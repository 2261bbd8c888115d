//! Failure injection through the session layer's first-class fault step.
//!
//! Wait-freedom means a process that crashes at *any* point — mid-enter,
//! mid-release, while holding a name — cannot prevent the remaining
//! processes from completing their acquire/release cycles. Every fault
//! here goes through [`Session::inject`], the same step the model
//! checker's fault budget drives, in two flavours per protocol:
//!
//! * **freeze-forever** ([`Fault::Freeze`]): the victim stops and never
//!   returns — the paper's adversary, preserved from the original
//!   hand-rolled sweep (including the tournament mutex's *documented*
//!   failure: a blocking substrate is blockable by a crashed holder);
//! * **crash–restart** ([`Fault::CrashRestart`]): a fresh incarnation
//!   with a **new** process id takes over on the torn registers the old
//!   one abandoned, and the whole world — survivors *and* replacement —
//!   must still finish, with every held or leaked name unique.
//!
//! Both sweeps inject at every step index of the victim's workload.
//!
//! # Per-protocol crash verdicts (all 9 cores, the one-shot core on both shapes)
//!
//! The table below is the suite's contract: every core's behaviour under
//! both faults, stated so that no protocol lands undocumented (the
//! tournament/pf wedges nearly did). "survives" means the sweep below
//! proves every fault point leaves the world able to quiesce with unique
//! claims; "wedges" is the *documented failure* a blocking substrate is
//! expected to exhibit.
//!
//! | Core | Freeze | CrashRestart | Notes |
//! |---|---|---|---|
//! | `splitter` | survives | survives | advice registers tolerate torn writes |
//! | `split` | survives | survives | ghost + survivor + spare ≤ k provisioning |
//! | `filter` | survives | survives | victim may block a shared tree; survivors reroute |
//! | `ma` | survives | survives | torn grid cells only deflect later walks |
//! | `chain` | survives | survives | per-stage tolerance composes |
//! | `onetime` (grid) | survives | survives | crash mid-acquire tears the grid, never capacity |
//! | `levelarray` | survives | survives | failed probes leave **no** marks; crash-while-Holding leaks one bit (capacity gone, uniqueness kept) |
//! | `onetime` (small net) | survives | survives | a restarted incarnation is a **new entrant** — size the network for live + spares |
//! | `tournament` | **wedges** | **wedges** | blocking mutex: replacement queues behind the dead holder's claim |
//! | `pf` | **wedges** | **wedges** | two-sided ME has no fresh id to restart under |

use llr_core::chain::Chain;
use llr_core::filter::spec::FilterUser;
use llr_core::filter::{FilterCore, FilterShape, ReleasePolicy};
use llr_core::levelarray::{LevelArrayCore, LevelShape};
use llr_core::ma::spec::MaUser;
use llr_core::ma::{MaCore, MaShape};
use llr_core::onetime::{OneTimeCore, OneTimeShape};
use llr_core::pf::{spec as pf_spec, MeRegs};
use llr_core::session::{Fault, ProtocolCore, Session};
use llr_core::split::spec::SplitUser;
use llr_core::split::{SplitCore, SplitShape};
use llr_core::splitter::spec::SplitterUser;
use llr_core::splitter::{SplitterCore, SplitterRegs};
use llr_mc::StepMachine;
use llr_mem::{Layout, SimMemory};
use std::collections::HashMap;

/// Steps `machines[victim]` exactly `stall_after` times (unless it
/// finishes first), injects `fault`, and drives every still-running
/// machine — including a restarted incarnation — round-robin.
///
/// Returns the final machines, or `Err(steps)` if the world fails to
/// quiesce within `budget`.
fn drive_after_fault<P: ProtocolCore>(
    layout: &Layout,
    mut machines: Vec<Session<P>>,
    victim: usize,
    stall_after: usize,
    fault: Fault,
    budget: u64,
) -> Result<Vec<Session<P>>, u64> {
    let mem = SimMemory::new(layout);
    let mut done = vec![false; machines.len()];
    for _ in 0..stall_after {
        if done[victim] {
            break;
        }
        if machines[victim].step(&mem).is_done() {
            done[victim] = true;
        }
    }
    if !done[victim] {
        // The fault step: registers keep exactly what the victim wrote.
        done[victim] = machines[victim].inject(fault).is_done();
    }
    let mut steps = 0u64;
    loop {
        let mut progressed = false;
        for i in 0..machines.len() {
            if done[i] {
                continue;
            }
            progressed = true;
            if machines[i].step(&mem).is_done() {
                done[i] = true;
            }
            steps += 1;
            if steps > budget {
                return Err(steps);
            }
        }
        if !progressed {
            return Ok(machines);
        }
    }
}

/// Every name claimed at quiescence — still held (one-shot protocols) or
/// leaked by a crash-while-Holding — is in range and pairwise distinct.
fn assert_claims_unique<P: ProtocolCore>(machines: &[Session<P>], what: &str) {
    let mut claimed: HashMap<u64, usize> = HashMap::new();
    for (i, m) in machines.iter().enumerate() {
        for name in m.leaked().iter().copied().chain(m.holding()) {
            assert!(
                name < m.core().dest_size(),
                "{what}: machine {i} claims out-of-range name {name}"
            );
            if let Some(j) = claimed.insert(name, i) {
                panic!("{what}: machines {j} and {i} both claim name {name}");
            }
        }
    }
}

/// Exercises every (victim, stall point) combination under `fault`,
/// asserting quiescence and name uniqueness at the end.
fn sweep<P: ProtocolCore>(
    layout: &Layout,
    make: impl Fn() -> Vec<Session<P>>,
    max_stall: usize,
    budget: u64,
    fault: Fault,
    what: &str,
) {
    let n = make().len();
    for victim in 0..n {
        for stall_after in 0..=max_stall {
            match drive_after_fault(layout, make(), victim, stall_after, fault, budget) {
                Ok(machines) => assert_claims_unique(&machines, what),
                Err(steps) => panic!(
                    "{what}: world stuck after {steps} steps \
                     (victim {victim}, {fault:?} after {stall_after} steps)"
                ),
            }
        }
    }
}

/// `true` iff some stall point leaves the world stuck — the signature of
/// a blocking (non-wait-free) substrate.
fn some_stall_wedges<P: ProtocolCore>(
    layout: &Layout,
    make: impl Fn() -> Vec<Session<P>>,
    max_stall: usize,
    budget: u64,
    fault: Fault,
) -> bool {
    let n = make().len();
    (0..n).any(|victim| {
        (0..=max_stall)
            .any(|stall| drive_after_fault(layout, make(), victim, stall, fault, budget).is_err())
    })
}

// ---------------------------------------------------------------------------
// Freeze-forever: the original wait-freedom sweeps, now through inject().
// ---------------------------------------------------------------------------

#[test]
fn splitter_survives_any_freeze() {
    let mut layout = Layout::new();
    let regs = SplitterRegs::allocate(&mut layout, "B");
    sweep(
        &layout,
        || (0..3).map(|p| SplitterUser::new(p, regs, 2)).collect(),
        2 * 10,
        10_000,
        Fault::Freeze,
        "splitter ℓ=3",
    );
}

#[test]
fn split_survives_any_freeze() {
    let mut layout = Layout::new();
    let shape = SplitShape::build(3, &mut layout);
    sweep(
        &layout,
        || {
            (0..3u64)
                .map(|i| SplitUser::new(shape.clone(), i * 999 + 4, 2))
                .collect()
        },
        2 * 2 * 10, // two sessions × two splitters × ≤10 steps
        10_000,
        Fault::Freeze,
        "SPLIT k=3",
    );
}

#[test]
fn filter_survives_any_freeze() {
    // k = 2 with the fully-contended pid pair (shared first tree): the
    // victim may crash while physically blocking the shared tree; the
    // survivor must route to its private tree.
    let params = llr_gf::FilterParams::new(2, 4, 1, 2).unwrap();
    let mut layout = Layout::new();
    let shape = FilterShape::build(params, &[1, 3], &mut layout).unwrap();
    sweep(
        &layout,
        || {
            [1u64, 3]
                .iter()
                .map(|&p| FilterUser::new(shape.clone(), p, 2))
                .collect()
        },
        2 * 40,
        50_000,
        Fault::Freeze,
        "FILTER k=2 contended",
    );
}

#[test]
fn filter_survives_freeze_at_k3() {
    let params = llr_gf::FilterParams::new(3, 25, 1, 5).unwrap();
    let mut layout = Layout::new();
    let shape = FilterShape::build(params, &[1, 6, 11], &mut layout).unwrap();
    sweep(
        &layout,
        || {
            [1u64, 6, 11]
                .iter()
                .map(|&p| FilterUser::new(shape.clone(), p, 1))
                .collect()
        },
        100,
        100_000,
        Fault::Freeze,
        "FILTER k=3 GF(5)",
    );
}

#[test]
fn ma_survives_any_freeze() {
    let mut layout = Layout::new();
    let shape = MaShape::build(3, 6, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 2, 5]
                .iter()
                .map(|&p| MaUser::new(shape.clone(), p, 2))
                .collect()
        },
        2 * 3 * 12,
        100_000,
        Fault::Freeze,
        "MA k=3",
    );
}

#[test]
fn chain_survives_any_freeze() {
    let chain = Chain::split_ma(3).unwrap();
    sweep(
        chain.layout(),
        || {
            [3u64, 9, 27]
                .iter()
                .map(|&p| Session::start(chain.core(p), 2))
                .collect()
        },
        120,
        100_000,
        Fault::Freeze,
        "chain k=3",
    );
}

#[test]
fn onetime_survives_any_freeze() {
    let mut layout = Layout::new();
    let shape = OneTimeShape::build(4, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 1, 2]
                .iter()
                .map(|&p| Session::start(OneTimeCore::new(shape.clone(), p), 1))
                .collect()
        },
        80,
        100_000,
        Fault::Freeze,
        "one-time k=4",
    );
}

#[test]
fn levelarray_survives_any_freeze() {
    let mut layout = Layout::new();
    let shape = LevelShape::build(4, &mut layout);
    sweep(
        &layout,
        || {
            [2u64, 9, 77]
                .iter()
                .map(|&p| Session::start(LevelArrayCore::new(shape.clone(), p), 2))
                .collect()
        },
        2 * 4, // a claim is 1-2 swaps, a release 1 write
        10_000,
        Fault::Freeze,
        "LevelArray k=4",
    );
}

#[test]
fn smallnet_survives_any_freeze() {
    let mut layout = Layout::new();
    let shape = OneTimeShape::small_net(3, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 1, 2]
                .iter()
                .map(|&p| Session::start(OneTimeCore::new(shape.clone(), p), 1))
                .collect()
        },
        4 * 3,
        10_000,
        Fault::Freeze,
        "small net ℓ=3",
    );
}

// ---------------------------------------------------------------------------
// Crash–restart: a fresh incarnation takes over on torn registers. Each
// world provisions capacity for the ghost: live machines + one crashed
// incarnation never exceed the protocol's concurrency bound.
// ---------------------------------------------------------------------------

#[test]
fn splitter_survives_crash_restart() {
    let mut layout = Layout::new();
    let regs = SplitterRegs::allocate(&mut layout, "B");
    sweep(
        &layout,
        || {
            (0..2)
                .map(|p| {
                    SplitterUser::new(p, regs, 2).with_spares(vec![SplitterCore::new(p + 100, regs)])
                })
                .collect()
        },
        2 * 10,
        10_000,
        Fault::CrashRestart,
        "splitter ℓ=3 restart",
    );
}

#[test]
fn split_survives_crash_restart() {
    // k = 3 serving 2 live machines: one crash leaves ghost + survivor +
    // replacement = 3 participants, exactly the bound.
    let mut layout = Layout::new();
    let shape = SplitShape::build(3, &mut layout);
    sweep(
        &layout,
        || {
            [4u64, 1003]
                .iter()
                .map(|&p| {
                    SplitUser::new(shape.clone(), p, 2)
                        .with_spares(vec![SplitCore::new(shape.clone(), p + 7_777)])
                })
                .collect()
        },
        2 * 2 * 10,
        20_000,
        Fault::CrashRestart,
        "SPLIT k=3 restart",
    );
}

#[test]
fn filter_survives_crash_restart() {
    let params = llr_gf::FilterParams::new(3, 25, 1, 5).unwrap();
    let mut layout = Layout::new();
    let shape = FilterShape::build(params, &[1, 6, 11], &mut layout).unwrap();
    sweep(
        &layout,
        || {
            [1u64, 6]
                .iter()
                .map(|&p| {
                    FilterUser::new(shape.clone(), p, 1).with_spares(vec![FilterCore::new(
                        shape.clone(),
                        11,
                        ReleasePolicy::AtReleaseName,
                    )])
                })
                .collect()
        },
        100,
        200_000,
        Fault::CrashRestart,
        "FILTER k=3 GF(5) restart",
    );
}

#[test]
fn ma_survives_crash_restart() {
    let mut layout = Layout::new();
    let shape = MaShape::build(3, 6, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 2]
                .iter()
                .map(|&p| {
                    MaUser::new(shape.clone(), p, 2)
                        .with_spares(vec![MaCore::new(shape.clone(), 5)])
                })
                .collect()
        },
        2 * 3 * 12,
        200_000,
        Fault::CrashRestart,
        "MA k=3 restart",
    );
}

#[test]
fn chain_survives_crash_restart() {
    let chain = Chain::split_ma(3).unwrap();
    sweep(
        chain.layout(),
        || {
            [3u64, 9]
                .iter()
                .map(|&p| Session::start(chain.core(p), 2).with_spares(vec![chain.core(p + 1_000)]))
                .collect()
        },
        120,
        200_000,
        Fault::CrashRestart,
        "chain k=3 restart",
    );
}

#[test]
fn onetime_survives_crash_restart() {
    // One-shot sessions end while Holding, so a crash-while-Holding can
    // only hit before the acquire completes the session — but a crash
    // mid-acquire still tears the grid, and the fresh incarnation must
    // rename around the wreckage.
    let mut layout = Layout::new();
    let shape = OneTimeShape::build(4, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 1]
                .iter()
                .map(|&p| {
                    Session::start(OneTimeCore::new(shape.clone(), p), 1)
                        .with_spares(vec![OneTimeCore::new(shape.clone(), p + 2)])
                })
                .collect()
        },
        80,
        100_000,
        Fault::CrashRestart,
        "one-time k=4 restart",
    );
}

#[test]
fn levelarray_survives_crash_restart() {
    // k = 4 serving 2 live: ghost + survivor + replacement ≤ 4. A crash
    // while Holding leaks the victim's bit — capacity is gone forever,
    // but the replacement still finds a slot because participants stay
    // within k.
    let mut layout = Layout::new();
    let shape = LevelShape::build(4, &mut layout);
    sweep(
        &layout,
        || {
            [3u64, 9_000]
                .iter()
                .map(|&p| {
                    Session::start(LevelArrayCore::new(shape.clone(), p), 2)
                        .with_spares(vec![LevelArrayCore::new(shape.clone(), p + 50_000)])
                })
                .collect()
        },
        2 * 4,
        20_000,
        Fault::CrashRestart,
        "LevelArray k=4 restart",
    );
}

#[test]
fn smallnet_survives_crash_restart() {
    // ℓ = 3 admits 4 entrants: 2 live + 1 spare each is exactly the
    // provisioning bound, since every restarted incarnation enters the
    // one-shot network as a fresh process.
    let mut layout = Layout::new();
    let shape = OneTimeShape::small_net(3, &mut layout);
    sweep(
        &layout,
        || {
            [0u64, 1]
                .iter()
                .map(|&p| {
                    Session::start(OneTimeCore::new(shape.clone(), p), 1)
                        .with_spares(vec![OneTimeCore::new(shape.clone(), p + 2)])
                })
                .collect()
        },
        4 * 3,
        20_000,
        Fault::CrashRestart,
        "small net ℓ=3 restart",
    );
}

#[test]
fn crash_restart_without_spares_degrades_to_freeze() {
    let mut layout = Layout::new();
    let shape = SplitShape::build(2, &mut layout);
    let mut s = SplitUser::new(shape, 1, 1);
    let mem = SimMemory::new(&layout);
    while s.holding().is_none() {
        s.step(&mem);
    }
    let held = s.holding().unwrap();
    assert!(s.inject(Fault::CrashRestart).is_done(), "no spare → frozen");
    assert!(s.is_crashed());
    assert_eq!(s.incarnation(), 0);
    assert_eq!(s.leaked(), &[held], "the held name is recorded as leaked");
}

// ---------------------------------------------------------------------------
// The blocking substrates: a crashed critical-section holder wedges the
// world — frozen or restarted alike, since the replacement queues behind
// its predecessor's torn claim. These pins are the documented contrast
// that motivates FILTER's multi-tree structure.
// ---------------------------------------------------------------------------

#[test]
fn tournament_mutex_is_not_crash_tolerant() {
    use llr_core::tournament::spec::TreeUser;
    use llr_core::tournament::{TreeCore, TreeShape};

    let mut layout = Layout::new();
    let shape = TreeShape::build(&mut layout, "T", 4, &[0, 1, 3]);
    // Freeze process 0 right after it wins the root: survivor spins
    // forever.
    let make_frozen = || -> Vec<TreeUser> {
        [0u64, 3]
            .iter()
            .map(|&p| TreeUser::new(shape.clone(), p, 1))
            .collect()
    };
    assert!(
        some_stall_wedges(&layout, make_frozen, 16, 5_000, Fault::Freeze),
        "a blocking mutex must be blockable by a crashed holder"
    );
    // A restarted incarnation does not help: it queues behind the dead
    // incarnation's torn claim like everyone else.
    let make_restart = || -> Vec<TreeUser> {
        [0u64, 3]
            .iter()
            .map(|&p| {
                TreeUser::new(shape.clone(), p, 1)
                    .with_spares(vec![TreeCore::new(shape.clone(), 1)])
            })
            .collect()
    };
    assert!(
        some_stall_wedges(&layout, make_restart, 16, 5_000, Fault::CrashRestart),
        "a fresh incarnation cannot unwedge a blocking mutex"
    );
}

#[test]
fn pf_mutex_is_not_crash_tolerant() {
    let mut layout = Layout::new();
    let regs = MeRegs::allocate(&mut layout, "ME");
    // Two-sided Peterson–Fischer: there is no fresh id to restart under,
    // so CrashRestart (spare-less) degrades to a freeze — and a freeze
    // inside the critical section wedges the other side.
    for fault in [Fault::Freeze, Fault::CrashRestart] {
        let make = || -> Vec<pf_spec::MeUser> {
            vec![
                pf_spec::MeUser::new(regs, 0, 1),
                pf_spec::MeUser::new(regs, 1, 1),
            ]
        };
        assert!(
            some_stall_wedges(&layout, make, 16, 5_000, fault),
            "a blocking ME must be blockable by a crashed holder ({fault:?})"
        );
    }
}
