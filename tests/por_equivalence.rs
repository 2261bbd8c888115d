//! Differential soundness suite for partial-order reduction.
//!
//! For every protocol family at a small configuration, the reduced
//! search (`Engine::Reduced`) is run against the full search and must
//! agree on everything the reduction promises to preserve:
//!
//! * the **safety verdict** of every invariant over held names and
//!   done-ness (the invariants used here are exactly the
//!   POR-compatible ones — no raw-register predicates);
//! * the exact set size of **terminal states** (all machines done), so
//!   renaming outcomes are unaffected;
//! * `check_always_terminable` verdicts.
//!
//! And the reduced engines must agree with *each other*: the two
//! breadth-first backends (in-RAM and spill-to-disk) visit bit-for-bit
//! the same reduced graph at every worker count and every byte budget.
//! The sequential DFS applies the cycle proviso in its own visit order
//! and may settle on a different — equally sound — reduced subset, so
//! its state count is only required to be ≤ the full count, never
//! compared to the BFS counts.
//!
//! A seeded-violation test closes the loop: an invariant that is false
//! exactly at terminal states must still trip under reduction, with a
//! deterministic schedule per backend that replays to a violating
//! state.

use llr_core::chain::SplitMa;
use llr_core::filter::spec as filter_spec;
use llr_core::levelarray::spec as la_spec;
use llr_core::levelarray::{LevelArrayCore, LevelShape};
use llr_core::ma::spec as ma_spec;
use llr_core::ma::{MaCore, MaShape};
use llr_core::onetime::spec as onetime_spec;
use llr_core::onetime::{OneTimeCore, OneTimeShape};
use llr_core::pf::spec as pf_spec;
use llr_core::session::{self, crash_robust_uniqueness, ProtocolCore, Session};
use llr_core::split::spec as split_spec;
use llr_core::splitter::spec as splitter_spec;
use llr_core::tournament::spec as tree_spec;
use llr_gf::FilterParams;
use llr_mc::{CheckError, CheckStats, Engine, ModelChecker, StepMachine, World};
use llr_mem::Layout;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Generous (everything resident), tight (256 KiB: mid-size layers
/// split into several frontier read chunks), and zero (every slice at
/// its 64 KiB floor: single-digit-state chunks, multiple sorted runs
/// per layer).
const SPILL_BUDGETS: [usize; 3] = [1usize << 30, 1 << 18, 0];

/// `engine` with partial-order reduction on.
fn reduced(engine: Engine) -> Engine {
    Engine::Reduced(Box::new(engine))
}

/// The reduced in-RAM breadth-first engine at every worker count.
fn reduced_in_ram() -> [Engine; 3] {
    WORKER_COUNTS.map(|workers| {
        reduced(Engine::Parallel {
            workers,
            hashed: true,
        })
    })
}

/// The reduced breadth-first engine on disk at every budget and worker
/// count.
fn reduced_on_disk() -> impl Iterator<Item = Engine> {
    let at = |budget_bytes| {
        WORKER_COUNTS.map(move |workers| Engine::Spill {
            dir: std::env::temp_dir(),
            budget_bytes,
            workers,
        })
    };
    SPILL_BUDGETS.into_iter().flat_map(at).map(reduced)
}

/// Runs `build()` fully and reduced through every backend and asserts
/// the POR soundness contract. Returns `(full DFS, reduced BFS)` stats
/// so callers can additionally pin a reduction ratio.
fn assert_por_sound<M, F>(
    label: &str,
    build: impl Fn() -> ModelChecker<M>,
    invariant: F,
) -> (CheckStats, CheckStats)
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String> + Copy,
{
    let full = build()
        .check_with(&Engine::Sequential, invariant)
        .unwrap_or_else(|e| panic!("{label}: full check failed:\n{e}"));

    // Reduced DFS: same verdict, same terminal states, never more work.
    let por_dfs = build()
        .check_with(&reduced(Engine::Sequential), invariant)
        .unwrap_or_else(|e| panic!("{label}: reduced DFS flagged a spurious violation:\n{e}"));
    assert!(
        por_dfs.states <= full.states,
        "{label}: reduced DFS explored more states ({} > {})",
        por_dfs.states,
        full.states
    );
    assert!(
        por_dfs.transitions <= full.transitions,
        "{label}: reduced DFS explored more transitions"
    );
    assert_eq!(
        por_dfs.terminal_states, full.terminal_states,
        "{label}: reduced DFS changed the terminal-state count"
    );

    // Reduced BFS: identical counts at every worker count, same
    // soundness bounds against the full search.
    let mut por_bfs: Option<CheckStats> = None;
    for engine in reduced_in_ram() {
        let w = engine.label();
        let par = build().check_with(&engine, invariant).unwrap_or_else(|e| {
            panic!("{label}: reduced BFS ({w}) flagged a spurious violation:\n{e}")
        });
        assert!(
            par.states <= full.states,
            "{label}: reduced BFS ({w}) explored more states"
        );
        assert_eq!(
            par.terminal_states, full.terminal_states,
            "{label}: reduced BFS ({w}) changed the terminal-state count"
        );
        match &por_bfs {
            None => por_bfs = Some(par),
            Some(first) => {
                assert_eq!(par.states, first.states, "{label}: BFS states ({w})");
                assert_eq!(
                    par.transitions, first.transitions,
                    "{label}: BFS transitions ({w})"
                );
                assert_eq!(par.max_depth, first.max_depth, "{label}: BFS depth ({w})");
            }
        }
    }
    let por_bfs = por_bfs.expect("at least one worker count ran");

    // Spill backend: bit-for-bit the in-RAM reduced BFS, at every
    // budget and worker count (a zero budget clamps to the 64 KiB
    // flush floor, forcing the join-time frozen-hit path that patches
    // the cycle proviso for states deduplicated against disk runs).
    for engine in reduced_on_disk() {
        let tag = engine.label();
        let spill = build().check_with(&engine, invariant).unwrap_or_else(|e| {
            panic!("{label}: reduced spill ({tag}) flagged a spurious violation:\n{e}")
        });
        assert_eq!(
            spill.states, por_bfs.states,
            "{label}: spill states ({tag})"
        );
        assert_eq!(
            spill.transitions, por_bfs.transitions,
            "{label}: spill transitions ({tag})"
        );
        assert_eq!(
            spill.terminal_states, por_bfs.terminal_states,
            "{label}: spill terminal states ({tag})"
        );
        assert_eq!(
            spill.max_depth, por_bfs.max_depth,
            "{label}: spill depth ({tag})"
        );
    }

    (full, por_bfs)
}

#[test]
fn splitter_por_sound() {
    // A single splitter's three registers are all shared by everyone, so
    // the only commuting steps are the lazy session starts — the test
    // pins that POR degrades (almost) to the full search rather than to
    // an unsound one.
    for (init_last, init_a1, init_a2) in [(0u64, 1, 0), (2, 0, 2)] {
        assert_por_sound(
            &format!("splitter ℓ=2 init=({init_last},{init_a1},{init_a2})"),
            || splitter_spec::checker(2, 2, init_last, init_a1, init_a2),
            splitter_spec::output_set_invariant,
        );
    }
}

#[test]
fn pf_por_sound() {
    assert_por_sound(
        "PF 5 sessions",
        || pf_spec::checker(5),
        pf_spec::mutual_exclusion,
    );
}

#[test]
fn tournament_por_sound() {
    for (s, parts, sessions) in [
        (8u64, vec![2u64, 3], 3u8),
        (8, vec![0, 7], 3),
        (4, vec![0, 1, 3], 2),
    ] {
        let (full, por) = assert_por_sound(
            &format!("tournament S={s} pids={parts:?}"),
            || tree_spec::checker(s, &parts, sessions),
            tree_spec::root_exclusion,
        );
        // Root paths overlap near the root but the lazy Idle → Acquiring
        // steps commute, so the tree must see a real reduction.
        assert!(
            por.states < full.states,
            "tournament S={s} pids={parts:?}: expected a strict reduction, \
             got {} vs {}",
            por.states,
            full.states
        );
    }
}

#[test]
fn split_por_sound() {
    for (k, procs, sessions) in [(2usize, 2usize, 3u8), (3, 2, 2)] {
        assert_por_sound(
            &format!("SPLIT k={k} procs={procs}"),
            || split_spec::checker(k, procs, sessions),
            split_spec::unique_names_invariant,
        );
    }
}

#[test]
fn filter_por_sound() {
    // Uniqueness only: under the default core, FILTER's block-exclusion
    // predicate inspects the `won_blocks` of machines still inside their
    // acquire step, which is not invariant-observable state — for the
    // block-level invariants use the `observe_blocks` core below.
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    for pair in [[1u64, 2], [1, 3]] {
        let (full, por) = assert_por_sound(
            &format!("FILTER tiny pids={pair:?}"),
            || filter_spec::checker(tiny, &pair, 2),
            filter_spec::unique_names_invariant,
        );
        assert!(
            por.states < full.states,
            "FILTER pids={pair:?}: expected a strict reduction, got {} vs {}",
            por.states,
            full.states
        );
    }
}

/// With `FilterCore::observe_blocks` on, every step that can change a
/// machine's confirmed-won block set (checks and releasing pops) is
/// declared visible, which promotes `won_blocks` into the reduction's
/// visibility contract — so the block-exclusion invariant (Lemma 6) and
/// the combined invariant run soundly under `Engine::Reduced`. (FILTER
/// is the family with ME blocks; MA has none, so this is where the
/// block-level contract is pinned.) The extra visible steps shrink the
/// reduction, which is why the default core keeps the flag off.
#[test]
fn filter_blocks_observable_por_sound() {
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    for pair in [[1u64, 2], [1, 3]] {
        // The full graph must be identical to the default checker's —
        // the flag only affects footprints, never stepping or keys.
        let default_full = filter_spec::checker(tiny, &pair, 2)
            .check_with(&Engine::Sequential, filter_spec::combined_invariant)
            .expect("FILTER verifies");
        let observing_full = filter_spec::blocks_observable_checker(tiny, &pair, 2)
            .check_with(&Engine::Sequential, filter_spec::combined_invariant)
            .expect("FILTER verifies with observable blocks");
        assert_eq!(
            (observing_full.states, observing_full.transitions),
            (default_full.states, default_full.transitions),
            "observe_blocks must not change the unreduced graph (pids={pair:?})"
        );

        assert_por_sound(
            &format!("FILTER blocks-observable pids={pair:?} (block exclusion)"),
            || filter_spec::blocks_observable_checker(tiny, &pair, 2),
            filter_spec::block_exclusion_invariant,
        );
        assert_por_sound(
            &format!("FILTER blocks-observable pids={pair:?} (combined)"),
            || filter_spec::blocks_observable_checker(tiny, &pair, 2),
            filter_spec::combined_invariant,
        );
    }
}

#[test]
fn ma_por_sound() {
    for (k, s, pids, sessions) in [(2usize, 3u64, vec![0u64, 2], 3u8), (2, 4, vec![1, 3], 3)] {
        assert_por_sound(
            &format!("MA k={k} S={s} pids={pids:?}"),
            || ma_spec::checker(k, s, &pids, sessions),
            ma_spec::unique_names_invariant,
        );
    }
}

#[test]
fn chain_por_sound() {
    assert_por_sound(
        "chain k=2",
        || {
            let mut layout = Layout::new();
            let core = SplitMa::build(2, &mut layout).unwrap();
            session::checker(layout, &core, &[3, 9], 1)
        },
        session::unique_names_invariant,
    );
}

#[test]
fn onetime_por_sound() {
    for (k, pids) in [(2usize, vec![0u64, 1]), (3, vec![0, 1, 2])] {
        assert_por_sound(
            &format!("one-time k={k}"),
            || onetime_spec::checker(k, &pids),
            onetime_spec::unique_names_invariant,
        );
    }
}

#[test]
fn levelarray_por_sound() {
    // Hashed start offsets scatter the probe sequences, so different
    // processes mostly touch different slots — the reduction has real
    // commuting pairs to exploit even in these tiny worlds.
    for (k, pids, sessions) in [(2usize, vec![0u64, 1], 2u8), (3, vec![2, 9, 77], 2)] {
        assert_por_sound(
            &format!("LevelArray k={k} pids={pids:?}"),
            || la_spec::checker(k, &pids, sessions),
            la_spec::unique_names_invariant,
        );
    }
}

#[test]
fn smallnet_por_sound() {
    for (ell, pids) in [(1usize, vec![0u64, 1]), (2, vec![0, 1, 2])] {
        assert_por_sound(
            &format!("small net ℓ={ell}"),
            || onetime_spec::small_net_checker(ell, &pids),
            onetime_spec::unique_names_invariant,
        );
    }
}

/// A crash–restart world as E12 builds it: two live sessions of one
/// cycle, each with one spare core, under a fault budget of `f`.
fn faults<P: ProtocolCore>(layout: Layout, cores: [(P, P); 2], f: u64) -> ModelChecker<Session<P>> {
    let machines = cores
        .into_iter()
        .map(|(live, spare)| Session::start(live, 1).with_spares(vec![spare]))
        .collect();
    ModelChecker::new(layout, machines).faults(f)
}

/// E12's LevelArray k=4 world.
fn la_faults(f: u64) -> ModelChecker<Session<LevelArrayCore>> {
    let mut layout = Layout::new();
    let shape = LevelShape::build(4, &mut layout);
    let core = |p| LevelArrayCore::new(shape.clone(), p);
    faults(
        layout,
        [(core(3), core(50_003)), (core(9_000), core(59_000))],
        f,
    )
}

/// Under a fault budget, reduction resumes only once the budget is
/// spent: the reduced search must stay sound on E12's worlds, and every
/// breadth-first store must take the same crash moves.
#[test]
fn faults_por_sound() {
    for (f, expect) in [(1, (110, 177)), (2, (261, 503))] {
        let label = format!("LevelArray k=4 f={f}");
        let (_, por) = assert_por_sound(&label, || la_faults(f), crash_robust_uniqueness);
        assert_eq!(
            (por.states, por.transitions),
            expect,
            "{label}: reduced BFS"
        );
    }
    assert_por_sound(
        "small net ℓ=3 f=2",
        || {
            let mut layout = Layout::new();
            let shape = OneTimeShape::small_net(3, &mut layout);
            let core = |p| OneTimeCore::new(shape.clone(), p);
            faults(layout, [(core(0), core(2)), (core(1), core(3))], 2)
        },
        crash_robust_uniqueness,
    );
}

/// E12's MA grid k=4, S=8 world under one fault. Slow in debug builds:
/// run with `cargo test --release --test por_equivalence -- --ignored`.
#[test]
#[ignore = "about 30 s in a debug build; run in release mode"]
fn ma_faults_por_sound() {
    let build = || {
        let mut layout = Layout::new();
        let shape = MaShape::build(4, 8, &mut layout);
        let core = |p| MaCore::new(shape.clone(), p);
        faults(layout, [(core(0), core(1)), (core(3), core(5))], 1)
    };
    let (_, por) = assert_por_sound("MA k=4 S=8 f=1", build, crash_robust_uniqueness);
    assert_eq!(
        (por.states, por.transitions),
        (14_071, 19_820),
        "reduced BFS"
    );
}

/// `check_always_terminable` must reach the same verdict and the same
/// terminal-state count over the reduced graph, independent of worker
/// count.
#[test]
fn liveness_composes_with_por() {
    fn liveness_agrees<M: StepMachine + Send + Sync>(
        label: &str,
        build: impl Fn() -> ModelChecker<M>,
    ) {
        let full = build()
            .check_always_terminable(&Engine::Parallel {
                workers: 1,
                hashed: true,
            })
            .unwrap_or_else(|e| panic!("{label}: full liveness failed:\n{e}"));
        let mut first = None;
        for engine in reduced_in_ram() {
            let w = engine.label();
            let red = build()
                .check_always_terminable(&engine)
                .unwrap_or_else(|e| {
                    panic!("{label}: reduced liveness ({w}) reported a spurious trap:\n{e}")
                });
            assert!(
                red.states <= full.states,
                "{label}: reduced liveness explored more states ({w})"
            );
            assert_eq!(
                red.terminal_states, full.terminal_states,
                "{label}: reduced liveness changed the terminal count ({w})"
            );
            let f = *first.get_or_insert(red);
            assert_eq!(red, f, "{label}: reduced liveness differs at {w}");
        }
    }

    liveness_agrees("SPLIT k=2", || split_spec::checker(2, 2, 3));
    liveness_agrees("tournament S=8", || tree_spec::checker(8, &[2, 3], 3));
    // PF is the blocking substrate: its liveness check *is*
    // deadlock-freedom, the verdict POR must not flip.
    liveness_agrees("PF 3 sessions", || pf_spec::checker(3));
    liveness_agrees("FILTER tiny", || {
        filter_spec::checker(FilterParams::new(2, 4, 1, 2).unwrap(), &[1, 3], 2)
    });
}

/// A violation that only manifests at terminal states (the deepest
/// possible seeding) must still be found under reduction by every
/// backend, and each backend's schedule must be deterministic and
/// replay to a genuinely violating state.
#[test]
fn por_still_finds_seeded_violation() {
    let broken = |w: &World<'_, onetime_spec::OneTimeUser>| {
        if w.all_done() {
            Err("reached a terminal state".to_string())
        } else {
            Ok(())
        }
    };
    let build = || onetime_spec::checker(2, &[0, 1]);

    let replay_violates = |v: &llr_mc::Violation, tag: &str| {
        let (_, _, done) = build().run_schedule(&v.schedule);
        assert!(
            done.iter().all(|&d| d),
            "{tag}: schedule must replay to the violating (all-done) state"
        );
    };

    // Reduced DFS: its schedule may be a different linearisation of the
    // same Mazurkiewicz trace than the full search reports — it only has
    // to exist and replay.
    let err = build()
        .check_with(&reduced(Engine::Sequential), broken)
        .expect_err("reduced DFS must trip");
    let CheckError::Violation(v) = err else {
        panic!("expected a violation, got {err}");
    };
    replay_violates(&v, "reduced DFS");

    // Reduced BFS: identical message + schedule at every worker count,
    // and the spill backend reproduces it bit-for-bit at every budget.
    let mut expected: Option<(String, Vec<usize>)> = None;
    for engine in reduced_in_ram() {
        let err = build()
            .check_with(&engine, broken)
            .expect_err("reduced BFS must trip");
        let CheckError::Violation(v) = err else {
            panic!("expected a violation, got {err}");
        };
        replay_violates(&v, &engine.label());
        let got = (v.message.clone(), v.schedule.clone());
        match &expected {
            None => expected = Some(got),
            Some(e) => assert_eq!(
                &got,
                e,
                "reduced BFS violation differs ({})",
                engine.label()
            ),
        }
    }
    let expected = expected.expect("reduced BFS produced a violation");
    for engine in reduced_on_disk() {
        let err = build()
            .check_with(&engine, broken)
            .expect_err("reduced spill must trip");
        let CheckError::Violation(v) = err else {
            panic!("expected a violation, got {err}");
        };
        assert_eq!(
            (v.message.clone(), v.schedule.clone()),
            expected,
            "spill violation differs ({})",
            engine.label()
        );
    }
}
