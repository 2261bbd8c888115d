//! Integration: boundary behaviors and invariant corners across the
//! public API — the cases a downstream user hits on day one.

use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::ma::MaGrid;
use llr_core::pf;
use llr_core::session::ProtocolCore;
use llr_core::split::{Split, SplitCore};
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
    assert_eq!(
        p_dir,
        Direction::Middle,
        "overtaken entrant must take set 0"
    );
    let q_dir = loop {
        if let Some(d) = q.step(&regs, 2, &mem) {
            break d;
        }
    };
    assert_ne!(
        q_dir,
        Direction::Middle,
        "last entrant sees no interference"
    );
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
        let core = SplitCore::new(shape.clone(), pid);
        let mut a = core.begin_acquire();
        let mut b = core.begin_acquire();
        let ta = loop {
            if let Some(t) = core.step_acquire(&mut a, &sim) {
                break t;
            }
        };
        let tb = loop {
            if let Some(t) = core.step_acquire(&mut b, &atomic) {
                break t;
            }
        };
        assert_eq!(core.token_name(&ta), core.token_name(&tb), "pid {pid}");
        // Clean up both memories identically.
        let mut ra = core.begin_release(ta);
        while !core.step_release(&mut ra, &sim) {}
        let mut rb = core.begin_release(tb);
        while !core.step_release(&mut rb, &atomic) {}
    }
    assert_eq!(sim.snapshot(), atomic.snapshot());
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

/// `(source_size, dest_size, concurrency)` as a served object reports them.
fn sizes<R: Renaming>(rn: R) -> (u64, u64, usize) {
    (rn.source_size(), rn.dest_size(), rn.concurrency())
}

#[test]
fn every_served_object_reports_its_sizes() {
    // `NameArena::new` admits exactly `concurrency()` clients at once, so
    // the bound each object reports is the one its arena enforces.
    let params = FilterParams::two_k_four(3).unwrap();
    for (object, got, want) in [
        ("Split::new(4)", sizes(Split::new(4)), (u64::MAX, 27, 4)),
        (
            "Filter::new(two_k_four(3), [7, 56, 161])",
            sizes(Filter::new(params, &[7, 56, 161]).unwrap()),
            (162, 228, 3),
        ),
        ("MaGrid::new(3, 16)", sizes(MaGrid::new(3, 16)), (16, 6, 3)),
        (
            "LevelArray::new(8)",
            sizes(llr_core::levelarray::LevelArray::new(8)),
            (u64::MAX, 23, 8),
        ),
        (
            "Chain::theorem11(3)",
            sizes(Chain::theorem11(3).unwrap()),
            (u64::MAX, 6, 3),
        ),
        (
            "Chain::split_ma(3)",
            sizes(Chain::split_ma(3).unwrap()),
            (u64::MAX, 6, 3),
        ),
        (
            "Chain::double_filter(3, 162)",
            sizes(Chain::double_filter(3, 162).unwrap()),
            (162, 44, 3),
        ),
    ] {
        assert_eq!(got, want, "{object}");
    }
}
