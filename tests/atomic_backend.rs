//! Differential and stress tests for the real-atomics backend.
//!
//! Part 1 (differential): every `ProtocolCore` spec, run single-threaded
//! under a deterministic round-robin schedule, must behave **identically**
//! on `SimMemory` and `AtomicMemory` — same per-step machine state (the
//! canonical `key()` encoding, which includes every held name), same
//! completion, same final register file. This pins the production backend
//! to the backend the model checker verified, in both its padded and flat
//! representations.
//!
//! Part 2 (stress): the unique-names invariant under *real* thread
//! interleavings at 2/4/8 threads, for SPLIT, MA, chain, FILTER, and the
//! admission-gated `NameArena` — including oversubscription (more client
//! threads than `k`). `arena_smoke` is the short release-mode gate ci.sh
//! runs on every PR.

use llr_core::arena::NameArena;
use llr_core::chain::Chain;
use llr_core::filter::{spec as filter_spec, Filter};
use llr_core::levelarray::{spec as la_spec, LevelArray};
use llr_core::ma::{spec as ma_spec, MaGrid};
use llr_core::smallnet::RenewableNet;
use llr_core::onetime::spec as onetime_spec;
use llr_core::pf::spec as pf_spec;
use llr_core::split::{spec as split_spec, Split};
use llr_core::splitter::spec as splitter_spec;
use llr_core::tournament::spec as tree_spec;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use llr_mc::{ModelChecker, StepMachine};
use llr_mem::{AtomicMemory, MemPolicy, Memory, SimMemory};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Part 1: single-threaded differential SimMemory vs AtomicMemory
// ---------------------------------------------------------------------------

/// Steps `machines` round-robin on `mem` until all are done, recording
/// each step's `(machine, key-after, done)` observation. Panics if the
/// run exceeds `cap` steps (a backend divergence could otherwise loop).
fn trace_round_robin<M: StepMachine>(
    machines: &mut [M],
    mem: &dyn Memory,
    cap: u64,
) -> Vec<(usize, Vec<u64>, bool)> {
    let mut done = vec![false; machines.len()];
    let mut trace = Vec::new();
    let mut steps = 0u64;
    while done.iter().any(|d| !d) {
        for (i, m) in machines.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            done[i] = m.step(mem).is_done();
            let mut key = Vec::new();
            m.key(&mut key);
            trace.push((i, key, done[i]));
            steps += 1;
            assert!(steps < cap, "round-robin exceeded {cap} steps");
        }
    }
    trace
}

/// Runs `checker`'s configuration round-robin on `SimMemory` and on
/// `AtomicMemory` (both padded and flat cell representations) and asserts
/// the three traces and final register files are identical. The `key()`
/// observation is total machine state — it includes every acquired name
/// (`key_token` pushes the held name) and every pending release's locals.
fn assert_backends_agree<M: StepMachine>(label: &str, checker: &ModelChecker<M>) {
    let layout = checker.layout();
    let sim = SimMemory::new(layout);
    let mut sim_machines = checker.machines().to_vec();
    let reference = trace_round_robin(&mut sim_machines, &sim, 1_000_000);

    for policy in [MemPolicy::default(), MemPolicy::baseline()] {
        let atomic = AtomicMemory::with_policy(layout.initial_values(), policy);
        let mut machines = checker.machines().to_vec();
        let trace = trace_round_robin(&mut machines, &atomic, 1_000_000);
        assert_eq!(
            trace.len(),
            reference.len(),
            "{label} [{policy:?}]: step counts diverge"
        );
        for (n, (s, a)) in reference.iter().zip(&trace).enumerate() {
            assert_eq!(s, a, "{label} [{policy:?}]: step {n} diverges");
        }
        assert_eq!(
            sim.snapshot(),
            atomic.snapshot(),
            "{label} [{policy:?}]: final register files diverge"
        );
    }
}

#[test]
fn splitter_backends_agree() {
    for (init_last, init_a1, init_a2) in splitter_spec::all_inits(2) {
        assert_backends_agree(
            &format!("splitter init=({init_last},{init_a1},{init_a2})"),
            &splitter_spec::checker(2, 3, init_last, init_a1, init_a2),
        );
    }
}

#[test]
fn pf_backends_agree() {
    assert_backends_agree("PF ME block", &pf_spec::checker(5));
}

#[test]
fn tournament_backends_agree() {
    assert_backends_agree("tournament S=8", &tree_spec::checker(8, &[2, 3], 3));
    assert_backends_agree("tournament S=4", &tree_spec::checker(4, &[0, 1, 3], 2));
}

#[test]
fn split_backends_agree() {
    assert_backends_agree("SPLIT k=3", &split_spec::checker(3, 2, 2));
    assert_backends_agree("SPLIT k=4", &split_spec::checker(4, 3, 2));
}

#[test]
fn filter_backends_agree() {
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    assert_backends_agree("FILTER tiny", &filter_spec::checker(tiny, &[1, 2], 2));
    let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
    assert_backends_agree("FILTER gf5", &filter_spec::checker(gf5, &[1, 6, 11], 1));
}

#[test]
fn ma_backends_agree() {
    assert_backends_agree("MA k=2 S=3", &ma_spec::checker(2, 3, &[0, 2], 3));
    assert_backends_agree("MA k=3 S=3", &ma_spec::checker(3, 3, &[0, 1, 2], 1));
}

#[test]
fn chain_backends_agree() {
    let chain = |k| Chain::split_ma(k).unwrap();
    assert_backends_agree("chain k=2", &chain(2).checker(&[3, 9], 2));
    assert_backends_agree("chain k=3", &chain(3).checker(&[3, 9, 27], 1));
}

#[test]
fn onetime_backends_agree() {
    assert_backends_agree("one-time k=2", &onetime_spec::checker(2, &[0, 1]));
    assert_backends_agree("one-time k=3", &onetime_spec::checker(3, &[0, 1, 2]));
}

#[test]
fn levelarray_backends_agree() {
    // The claim step is a Memory::swap: SimMemory runs the default
    // read+write decomposition, AtomicMemory a hardware exchange — the
    // traces must be indistinguishable.
    assert_backends_agree("LevelArray k=2", &la_spec::checker(2, &[0, 1], 2));
    assert_backends_agree("LevelArray k=3", &la_spec::checker(3, &[2, 9, 77], 2));
}

#[test]
fn smallnet_backends_agree() {
    assert_backends_agree("small net ℓ=1", &onetime_spec::small_net_checker(1, &[0, 1]));
    assert_backends_agree("small net ℓ=2", &onetime_spec::small_net_checker(2, &[0, 1, 2]));
}

// ---------------------------------------------------------------------------
// Part 2: multi-threaded stress — unique names under real interleavings
// ---------------------------------------------------------------------------

/// Hammers `rn` with one thread per pid, asserting no name is ever held
/// by two threads at once (claim-array check) and all names are in range.
fn stress_unique_names<R: Renaming>(rn: &R, pids: &[u64], ops_per_thread: u64) {
    let claimed: Vec<AtomicBool> = (0..rn.dest_size()).map(|_| AtomicBool::new(false)).collect();
    std::thread::scope(|s| {
        for &pid in pids {
            let rn = &rn;
            let claimed = &claimed;
            s.spawn(move || {
                let mut h = rn.handle(pid);
                for _ in 0..ops_per_thread {
                    let n = h.acquire();
                    let was = claimed[n as usize].swap(true, Ordering::SeqCst);
                    assert!(!was, "name {n} double-held");
                    claimed[n as usize].store(false, Ordering::SeqCst);
                    h.release();
                }
            });
        }
    });
}

/// Distinct, sparse pids for protocols with an unbounded source space.
fn sparse_pids(n: u64) -> Vec<u64> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3)).collect()
}

#[test]
fn split_stress_2_4_8_threads() {
    for threads in [2usize, 4, 8] {
        let split = Split::new(threads);
        stress_unique_names(&split, &sparse_pids(threads as u64), 300);
    }
}

#[test]
fn ma_stress_2_4_threads() {
    // MA pids come from the source space 0..S; threads = k here.
    for threads in [2usize, 4] {
        let ma = MaGrid::new(threads, 64);
        let pids: Vec<u64> = (0..threads as u64).map(|i| i * 17 + 1).collect();
        stress_unique_names(&ma, &pids, 300);
    }
}

#[test]
fn filter_stress_4_threads() {
    let params = FilterParams::two_k_four(4).unwrap();
    let pids: Vec<u64> = (0..4u64).map(|i| i * 11 + 1).collect();
    let filter = Filter::new(params, &pids).unwrap();
    stress_unique_names(&filter, &pids, 300);
}

#[test]
fn chain_stress_3_threads() {
    let chain = Chain::theorem11(3).unwrap();
    stress_unique_names(&chain, &sparse_pids(3), 200);
}

#[test]
fn levelarray_stress_2_4_8_threads() {
    for threads in [2usize, 4, 8] {
        let la = LevelArray::new(threads);
        stress_unique_names(&la, &sparse_pids(threads as u64), 300);
    }
}

#[test]
fn renewable_net_stress_4_threads() {
    // Generational rotation under real contention: 4 threads on a k = 4
    // network, hundreds of generations.
    let net = RenewableNet::new(3);
    stress_unique_names(&net, &sparse_pids(4), 300);
}

#[test]
fn arena_oversubscribed_stress_8_threads() {
    // 8 client threads multiplexed onto k = 4 protocols by the arena's
    // admission gate: SPLIT (unbounded pid space) and MA (pids from 0..S).
    let arena = NameArena::new(Split::new(4));
    stress_unique_names(&arena, &sparse_pids(8), 300);

    let arena = NameArena::new(MaGrid::new(4, 64));
    let pids: Vec<u64> = (0..8u64).map(|i| i * 5 + 2).collect();
    stress_unique_names(&arena, &pids, 300);

    // The two rivals behind the same gate: LevelArray's swap-claimed bits
    // and the generational small network.
    let arena = NameArena::new(LevelArray::new(4));
    stress_unique_names(&arena, &sparse_pids(8), 300);

    let arena = NameArena::new(RenewableNet::new(3));
    stress_unique_names(&arena, &sparse_pids(8), 300);
}

/// The ci.sh release-mode smoke: a few thousand gated acquire/release
/// ops at 4 threads, uniqueness-checked, on the full arena stack
/// (gate → session reuse → padded atomics → relaxed release stores).
#[test]
fn arena_smoke() {
    let arena = Arc::new(NameArena::new(Split::new(4)));
    stress_unique_names(arena.as_ref(), &sparse_pids(4), 1_000);
    // Quiescent now; the register file must be back to an all-released
    // configuration in which a fresh client immediately succeeds.
    let mut c = arena.client(999_983);
    let n = c.acquire();
    assert!(n < arena.dest_size());
    c.release();
}
