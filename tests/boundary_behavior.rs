//! Integration: boundary behaviors and invariant corners across the
//! public API — the cases a downstream user hits on day one.

use llr_core::chain::Chain;
use llr_core::filter::{Filter, ReleasePolicy};
use llr_core::ma::MaGrid;
use llr_core::pf;
use llr_core::split::Split;
use llr_core::splitter::{EnterOp, SplitterRegs};
use llr_core::tas::TasRenaming;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_core::types::Direction;
use llr_gf::FilterParams;
use llr_mem::{Layout, SimMemory};

#[test]
fn interfered_splitter_entry_returns_middle() {
    // Interleave two Enters by hand: the overtaken process must get 0.
    let mut layout = Layout::new();
    let regs = SplitterRegs::allocate(&mut layout, "B");
    let mem = SimMemory::new(&layout);
    let mut p = EnterOp::new();
    let mut q = EnterOp::new();
    assert!(p.step(&regs, 1, &mem).is_none()); // p writes LAST = 1
    assert!(q.step(&regs, 2, &mem).is_none()); // q overwrites LAST = 2
    let p_dir = loop {
        if let Some(d) = p.step(&regs, 1, &mem) {
            break d;
        }
    };
    assert_eq!(p_dir, Direction::Middle, "overtaken entrant must take set 0");
    let q_dir = loop {
        if let Some(d) = q.step(&regs, 2, &mem) {
            break d;
        }
    };
    assert_ne!(q_dir, Direction::Middle, "last entrant sees no interference");
}

#[test]
fn me_check_after_release_passes() {
    let mut layout = Layout::new();
    let regs = pf::MeRegs::allocate(&mut layout, "ME");
    let mem = SimMemory::new(&layout);
    let mut e = pf::MeEnter::new(0);
    let own = loop {
        if let Some(v) = e.step(&regs, &mem) {
            break v;
        }
    };
    assert!(pf::check(&regs, 0, own, &mem));
    pf::release(&regs, 0, &mem);
    // The opponent slot is nil; a fresh competitor from side 1 sails in.
    let mut e1 = pf::MeEnter::new(1);
    let own1 = loop {
        if let Some(v) = e1.step(&regs, &mem) {
            break v;
        }
    };
    assert!(pf::check(&regs, 1, own1, &mem));
}

#[test]
fn every_protocol_rejects_out_of_contract_use() {
    // Double release panics everywhere.
    macro_rules! double_release_panics {
        ($rn:expr, $pid:expr) => {{
            let rn = $rn;
            let mut h = rn.handle($pid);
            h.acquire();
            h.release();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.release()));
            assert!(r.is_err(), "double release must panic");
        }};
    }
    double_release_panics!(Split::new(3), 7);
    double_release_panics!(MaGrid::new(3, 16), 7);
    double_release_panics!(TasRenaming::new(3), 7);
    let params = FilterParams::two_k_four(3).unwrap();
    double_release_panics!(Filter::new(params, &[7]).unwrap(), 7);
    double_release_panics!(Chain::theorem11(3).unwrap(), 7);
}

#[test]
fn split_max_k_boundary() {
    // MAX_K builds (shape only — the full tree at MAX_K is large but
    // allocation is linear); MAX_K + 1 panics.
    let r = std::panic::catch_unwind(|| {
        let mut layout = Layout::new();
        llr_core::split::SplitShape::build(llr_core::split::MAX_K + 1, &mut layout)
    });
    assert!(r.is_err());
}

#[test]
fn filter_policies_agree_on_names_sequentially() {
    let params = FilterParams::new(3, 25, 1, 5).unwrap();
    let pids = [1u64, 6, 11];
    let plain = Filter::new(params, &pids).unwrap();
    let eager = Filter::with_policy(params, &pids, ReleasePolicy::EagerLosers).unwrap();
    for &pid in &pids {
        let mut hp = plain.handle(pid);
        let mut he = eager.handle(pid);
        for _ in 0..5 {
            assert_eq!(hp.acquire(), he.acquire(), "pid {pid}");
            hp.release();
            he.release();
        }
    }
}

#[test]
fn chain_handle_reuse_across_many_generations() {
    let chain = Chain::theorem11(3).unwrap();
    let mut h = chain.handle(u64::MAX);
    let mut names = std::collections::HashSet::new();
    for _ in 0..30 {
        names.insert(h.acquire());
        h.release();
    }
    assert!(!names.is_empty());
    for &n in &names {
        assert!(n < chain.dest_size());
    }
}

#[test]
fn direction_roundtrip_is_total() {
    for d in Direction::ALL {
        assert_eq!(Direction::from_digit(d.digit()), d);
        assert!(d.digit() <= 2);
        assert!((-1..=1).contains(&d.value()));
    }
}

#[test]
fn sim_and_atomic_memory_agree_on_protocol_runs() {
    // The same SPLIT acquire sequence over SimMemory and AtomicMemory
    // produces identical names and access counts (single-threaded, so
    // the memories are interchangeable).
    let mut layout = Layout::new();
    let shape = llr_core::split::SplitShape::build(4, &mut layout);
    let sim = SimMemory::new(&layout);
    let atomic = llr_mem::AtomicMemory::new(&layout);
    for pid in [3u64, 99, 1 << 50] {
        let mut a = llr_core::split::SplitAcquire::new(pid);
        let mut b = llr_core::split::SplitAcquire::new(pid);
        let na = loop {
            if let Some(n) = a.step(&shape, &sim) {
                break n;
            }
        };
        let nb = loop {
            if let Some(n) = b.step(&shape, &atomic) {
                break n;
            }
        };
        assert_eq!(na, nb, "pid {pid}");
        // Clean up both memories identically.
        let mut ra = llr_core::split::SplitRelease::new(pid, a.into_path());
        while !ra.step(&shape, &sim) {}
        let mut rb = llr_core::split::SplitRelease::new(pid, b.into_path());
        while !rb.step(&shape, &atomic) {}
    }
    assert_eq!(sim.snapshot(), atomic.snapshot());
}

#[test]
fn ma_restart_counter_stays_zero_in_normal_runs() {
    let mut layout = Layout::new();
    let shape = llr_core::ma::MaShape::build(3, 8, &mut layout);
    let mem = SimMemory::new(&layout);
    for pid in [0u64, 3, 7] {
        let mut m = llr_core::ma::MaAcquire::new(&shape, pid);
        let name = loop {
            if let Some(n) = m.step(&shape, &mem) {
                break n;
            }
        };
        assert_eq!(m.restarts(), 0);
        let cell = m.stopped_at().unwrap();
        let mut r = llr_core::ma::MaRelease::new(pid, cell);
        while !r.step(&shape, &mem) {}
        let _ = name;
    }
}

#[test]
fn tas_is_optimal_sized() {
    // Herlihy–Shavit: read/write long-lived renaming needs D ≥ 2k-1; the
    // T&S baseline goes below that (D = k), demonstrating the separation
    // the paper's §5 cites.
    for k in 2..=6 {
        let tas = TasRenaming::new(k);
        assert!(tas.dest_size() < (2 * k - 1) as u64);
    }
}
