//! Integration: the generic session layer.
//!
//! Every protocol in the workspace is the same two machines — one acquire,
//! one release — plugged into `llr_core::session`: [`Session`] is the
//! model-checked spec and [`Handle`] the threaded executable, both derived
//! from the protocol's [`ProtocolCore`]. These tests exercise that
//! genericity end to end:
//!
//! * one polymorphic random-schedule driver runs all eight protocol cores,
//!   the naming protocols under the *generic* uniqueness invariant and the
//!   substrates under their own exclusion/output-set invariants;
//! * the threaded handle and the stepped session are pinned to the *same*
//!   names and shared-access counts over 50 consecutive solo cycles, for
//!   every core the handle serves — the same source, compiled once for
//!   `Counting<AtomicMemory>` and once for `&dyn Memory` — and those
//!   counts are pinned to the paper's theorem bounds.

use llr_core::chain::Chain;
use llr_core::filter::{Filter, FilterCore, FilterShape, ReleasePolicy};
use llr_core::levelarray::{LevelArray, LevelArrayCore, LevelShape};
use llr_core::ma::{MaCore, MaGrid, MaShape};
use llr_core::onetime::{OneTimeCore, OneTimeGrid, OneTimeShape};
use llr_core::pf::{spec as pf_spec, MeCore, MeRegs};
use llr_core::session::{self, ProtocolCore, Session};
use llr_core::split::{Split, SplitCore, SplitShape};
use llr_core::splitter::{spec as splitter_spec, SplitterCore, SplitterRegs};
use llr_core::tournament::{spec as tree_spec, TreeCore, TreeShape};
use llr_core::traits::{Renaming, RenamingHandle};
use llr_core::types::Name;
use llr_gf::FilterParams;
use llr_mc::{MachineStatus, ModelChecker, SplitMix64, StepMachine, World};
use llr_mem::{AtomicMemory, Counting, Layout, Memory};

/// Random-schedule sampling over any session world — the single driver
/// every protocol below goes through.
fn walk<P, F>(layout: Layout, machines: Vec<Session<P>>, invariant: F, seed: u64, label: &str)
where
    P: ProtocolCore,
    F: Fn(&World<'_, Session<P>>) -> Result<(), String>,
{
    let mc = ModelChecker::new(layout, machines);
    mc.random_walks(invariant, 15, 150_000, seed)
        .unwrap_or_else(|v| panic!("{label}: {v}"));
}

/// All five *naming* protocols under random schedules, checked by the one
/// generic `session::unique_names_invariant` — no per-protocol invariant
/// code involved.
#[test]
fn naming_protocols_share_the_generic_invariant() {
    let mut gen = SplitMix64::new(0x5E55_10A1_0001);
    for _ in 0..6 {
        // SPLIT, k = 3..=5, huge pids.
        let k = 3 + gen.next_index(3);
        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        let machines: Vec<_> = (0..k as u64)
            .map(|i| Session::start(SplitCore::new(shape.clone(), i * 999_983 + 1), 2))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "split",
        );

        // FILTER over GF(5), 3 of 24 pids.
        let pids = draw_pids(&mut gen, 24, 3);
        let params = FilterParams::new(3, 25, 1, 5).unwrap();
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &pids, &mut layout).unwrap();
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| {
                Session::start(
                    FilterCore::new(shape.clone(), p, ReleasePolicy::AtReleaseName),
                    2,
                )
            })
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "filter",
        );

        // MA grid, 3 of 8 pids.
        let pids = draw_pids(&mut gen, 8, 3);
        let mut layout = Layout::new();
        let shape = MaShape::build(3, 8, &mut layout);
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| Session::start(MaCore::new(shape.clone(), p), 2))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "ma",
        );

        // One-time grid, k = 4 (single session by construction).
        let mut layout = Layout::new();
        let shape = OneTimeShape::build(4, &mut layout);
        let machines: Vec<_> = (0..4u64)
            .map(|p| Session::start(OneTimeCore::new(shape.clone(), p), 1))
            .collect();
        walk(
            layout,
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "onetime",
        );

        // SPLIT stage into MA stage, random pids.
        let chain = Chain::split_ma(2).unwrap();
        let machines: Vec<_> = (0..2)
            .map(|_| Session::start(chain.core(gen.next_u64()), 2))
            .collect();
        walk(
            chain.layout().clone(),
            machines,
            session::unique_names_invariant,
            gen.next_u64(),
            "chain",
        );
    }
}

/// The three substrates ride the same `Session<P>` machinery under their
/// own invariants (they hand out directions/slots, not names).
#[test]
fn substrates_run_through_the_same_session_type() {
    let mut gen = SplitMix64::new(0x5E55_10A1_0002);
    for _ in 0..6 {
        // Splitter, 3..=5 processes.
        let ell = 3 + gen.next_index(3);
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let machines: Vec<_> = (0..ell as u64)
            .map(|p| Session::start(SplitterCore::new(p, regs), 2))
            .collect();
        walk(
            layout,
            machines,
            splitter_spec::output_set_invariant,
            gen.next_u64(),
            "splitter",
        );

        // Pairwise mutual exclusion, the two fixed competitors.
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let machines = vec![
            Session::start(MeCore::new(regs, 0), 2),
            Session::start(MeCore::new(regs, 1), 2),
        ];
        walk(
            layout,
            machines,
            pf_spec::mutual_exclusion,
            gen.next_u64(),
            "pf",
        );

        // Tournament tree, 2..=5 of 8 pids in a 16-leaf tree.
        let want = 2 + gen.next_index(4);
        let participants = draw_pids(&mut gen, 8, want);
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", 16, &participants);
        let machines: Vec<_> = participants
            .iter()
            .map(|&p| Session::start(TreeCore::new(shape.clone(), p), 2))
            .collect();
        walk(
            layout,
            machines,
            tree_spec::root_exclusion,
            gen.next_u64(),
            "tournament",
        );
    }
}

/// Draws `want` distinct pids below `n` (sorted, deterministic).
fn draw_pids(gen: &mut SplitMix64, n: u64, want: usize) -> Vec<u64> {
    let mut pids: Vec<u64> = Vec::with_capacity(want);
    while pids.len() < want {
        let p = gen.next_below(n);
        if !pids.contains(&p) {
            pids.push(p);
        }
    }
    pids.sort_unstable();
    pids
}

/// What one solo acquire/release cycle looked like: the name, the shared
/// accesses until it was held, and the accesses of the whole cycle.
type Cycle = (Name, u64, u64);

/// Steps one spec session of `cycles` sessions solo to completion on a
/// counting memory — through `&dyn Memory`, the checker's compiled copy of
/// the machines — and reports every cycle.
fn spec_solo_cycles<P: ProtocolCore>(layout: &Layout, core: P, cycles: u8) -> Vec<Cycle> {
    let mem = AtomicMemory::new(layout);
    let counting = Counting::new(&mem);
    let dyn_mem: &dyn Memory = &counting;
    let mut s = Session::start(core, cycles);
    let mut out = Vec::new();
    let mut cycle_start = 0;
    let mut held = None;
    for _ in 0..10_000_000 {
        let left = s.sessions_left();
        let status = s.step(dyn_mem);
        if held.is_none() {
            if let Some(n) = s.holding() {
                held = Some((n, counting.accesses() - cycle_start));
            }
        }
        if s.sessions_left() < left || status == MachineStatus::Done {
            let (name, at_acquire) = held
                .take()
                .expect("a cycle finished without holding a name");
            out.push((name, at_acquire, counting.accesses() - cycle_start));
            cycle_start = counting.accesses();
            if status == MachineStatus::Done {
                return out;
            }
        }
    }
    panic!("solo session did not terminate");
}

/// Runs `cycles` solo acquire/release cycles through the threaded
/// [`session::Handle`] — the machines' `Counting<AtomicMemory>` copy —
/// and reports every cycle.
fn handle_solo_cycles<P: ProtocolCore>(mut h: session::Handle<'_, P>, cycles: u8) -> Vec<Cycle> {
    (0..cycles)
        .map(|_| {
            let start = h.accesses();
            let name = h.acquire();
            let at_acquire = h.accesses() - start;
            h.release();
            (name, at_acquire, h.accesses() - start)
        })
        .collect()
}

/// Solo cycles compared between the two compiled copies.
const CYCLES: u8 = 50;

/// Asserts the handle's and the spec's cycles agree one for one, and
/// returns them for the protocol's bound checks.
fn assert_copies_agree(label: &str, exec: Vec<Cycle>, spec: Vec<Cycle>) -> Vec<Cycle> {
    assert_eq!(exec.len(), spec.len(), "{label}: cycle counts diverge");
    for (i, (e, s)) in exec.iter().zip(&spec).enumerate() {
        assert_eq!(e.0, s.0, "{label}: names diverge on cycle {i}");
        assert_eq!(e.1, s.1, "{label}: acquire accesses diverge on cycle {i}");
        assert_eq!(e.2, s.2, "{label}: total accesses diverge on cycle {i}");
    }
    spec
}

/// The handle and the spec are the same machines compiled twice — the
/// handle's copy for `Counting<AtomicMemory>`, the spec's for
/// `&dyn Memory`. For every core served through `session::Handle`, 50
/// consecutive solo cycles must give the same name and the same access
/// counts through either copy, cycle by cycle, inside the paper's bounds.
#[test]
fn handle_and_spec_agree_on_access_counts() {
    // SPLIT, Theorem 2: full cycle within 9(k-1) accesses.
    for k in 2..=6usize {
        let pid = 123_456_789u64;
        let split = Split::new(k);
        let exec = handle_solo_cycles(split.handle(pid), CYCLES);

        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        let spec = spec_solo_cycles(&layout, SplitCore::new(shape, pid), CYCLES);

        for (_, _, total) in assert_copies_agree(&format!("split k={k}"), exec, spec) {
            assert!(total <= 9 * (k as u64 - 1), "split k={k}: {total}");
        }
    }

    // FILTER, Theorem 10: GetName within the computed access bound.
    for k in 2..=4usize {
        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        let pids: Vec<u64> = (0..k as u64).map(|i| (i * (s / 7) + 1) % s).collect();
        let filter = Filter::new(params, &pids).unwrap();
        let exec = handle_solo_cycles(filter.handle(pids[0]), CYCLES);

        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &pids, &mut layout).unwrap();
        let core = FilterCore::new(shape, pids[0], ReleasePolicy::AtReleaseName);
        let spec = spec_solo_cycles(&layout, core, CYCLES);

        for (_, acquire, _) in assert_copies_agree(&format!("filter k={k}"), exec, spec) {
            assert!(
                acquire <= params.getname_access_bound(),
                "filter k={k}: {acquire} > {}",
                params.getname_access_bound()
            );
        }
    }

    // MA, the linear-in-S baseline: one block scan plus slack.
    {
        let (k, s, pid) = (3usize, 16u64, 7u64);
        let ma = MaGrid::new(k, s);
        let exec = handle_solo_cycles(ma.handle(pid), CYCLES);

        let mut layout = Layout::new();
        let shape = MaShape::build(k, s, &mut layout);
        let spec = spec_solo_cycles(&layout, MaCore::new(shape, pid), CYCLES);

        for (_, _, total) in assert_copies_agree("ma", exec, spec) {
            assert!(total <= 2 * s + 16, "ma: {total}");
        }
    }

    // The Theorem 11 chain: one composed core behind the same handle,
    // every solo cycle at E5's solo cost.
    for (k, solo) in [(2usize, 51u64), (3, 97), (4, 153)] {
        let pid = u64::MAX / 3;
        let chain = Chain::theorem11(k).unwrap();
        let exec = handle_solo_cycles(chain.handle(pid), CYCLES);
        let spec = spec_solo_cycles(chain.layout(), chain.core(pid), CYCLES);

        for (_, _, total) in assert_copies_agree(&format!("chain k={k}"), exec, spec) {
            assert_eq!(total, solo, "chain k={k}");
        }
    }

    // LevelArray: a solo cycle is one winning swap (read + write) and one
    // clearing write, on every cycle.
    for k in [1usize, 4, 8] {
        let pid = 987_654_321u64;
        let la = LevelArray::new(k);
        let exec = handle_solo_cycles(la.handle(pid), CYCLES);

        let mut layout = Layout::new();
        let shape = LevelShape::build(k, &mut layout);
        let spec = spec_solo_cycles(&layout, LevelArrayCore::new(shape, pid), CYCLES);

        for (_, acquire, total) in assert_copies_agree(&format!("levelarray k={k}"), exec, spec) {
            assert_eq!((acquire, total), (2, 3), "levelarray k={k}");
        }
    }

    // One-time grid: at most 4k accesses and no release machine at all
    // (one-shot: `get_name` serves its single acquire through the handle).
    {
        let (k, pid) = (4usize, 777u64);
        let grid = OneTimeGrid::new(k, 1 << 20);
        let exec = grid.get_name(pid);

        let mut layout = Layout::new();
        let shape = OneTimeShape::build(k, &mut layout);
        let core = OneTimeCore::new(shape, pid);
        let (_, total) = assert_one_shot_copies_agree("onetime", exec, &layout, core);
        assert!(total <= 4 * k as u64, "onetime: {total}");
    }

    // The small network, the same walk on the pruned shape: at most 4
    // accesses per splitter diagonal; at ℓ = 0 the one name is free.
    for ell in [0usize, 1, 3] {
        let (label, pid) = (format!("small net ℓ={ell}"), 777u64);
        let exec = OneTimeGrid::small_net(ell).get_name(pid);

        let mut layout = Layout::new();
        let shape = OneTimeShape::small_net(ell, &mut layout);
        let core = OneTimeCore::new(shape, pid);
        let (name, total) = assert_one_shot_copies_agree(&label, exec, &layout, core);
        assert!(total <= 4 * ell as u64, "{label}: {total}");
        if ell == 0 {
            assert_eq!((name, total), (0, 0), "{label}");
        }
    }
}

/// Asserts a one-shot acquire served by `get_name` (name, accesses) agrees
/// with the spec's single session over `core`, whose release must be
/// free; returns the spec's name and accesses.
fn assert_one_shot_copies_agree(
    label: &str,
    (exec_name, exec_acc): (Name, u64),
    layout: &Layout,
    core: OneTimeCore,
) -> (Name, u64) {
    let (spec_name, spec_acquire, spec_total) = spec_solo_cycles(layout, core, 1)[0];
    assert_eq!(exec_name, spec_name, "{label}: names diverge");
    assert_eq!(exec_acc, spec_acquire, "{label}: acquire accesses diverge");
    assert_eq!(spec_acquire, spec_total, "{label}: release must be free");
    (spec_name, spec_total)
}

/// A session executes exactly the requested number of acquire/release
/// cycles before reporting `Done`.
#[test]
fn session_counts_its_sessions() {
    let mut layout = Layout::new();
    let shape = SplitShape::build(3, &mut layout);
    let mem = AtomicMemory::new(&layout);
    let mut s = Session::start(SplitCore::new(shape, 42), 3);
    assert_eq!(s.sessions_left(), 3);

    let mut holds = 0u32;
    let mut was_holding = false;
    for _ in 0..1_000_000 {
        let status = s.step(&mem);
        let now = s.holding().is_some();
        if now && !was_holding {
            holds += 1;
        }
        was_holding = now;
        if status == MachineStatus::Done {
            assert_eq!(holds, 3, "one hold per session");
            assert_eq!(s.sessions_left(), 0);
            return;
        }
    }
    panic!("session did not terminate");
}

#[test]
#[should_panic(expected = "acquire while holding a name")]
fn handle_rejects_double_acquire() {
    let split = Split::new(2);
    let mut h = split.handle(1);
    h.acquire();
    h.acquire();
}

#[test]
#[should_panic(expected = "release without holding a name")]
fn handle_rejects_release_without_hold() {
    let split = Split::new(2);
    let mut h = split.handle(1);
    h.release();
}
