//! Engine equivalence: the sequential DFS checker (exact dedup) and the
//! parallel BFS engine (hashed dedup, at several worker counts, in RAM and
//! on disk) must agree on the exploration counts, and the parallel
//! engine's violation report must not depend on the worker count.
//!
//! The expected `(states, transitions)` pairs are the frozen numbers
//! from `results/e2_modelcheck.csv` as produced by the original
//! sequential checker, so these tests also pin the engines to the seed
//! results byte-for-byte. The mid-size configurations run by default;
//! the multi-million-state rows of the table are behind `--ignored`
//! (run them in release mode).

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
use llr_mc::{CheckError, CheckStats, ModelChecker, StepMachine, World, CRASH_SCHEDULE_BASE};
use llr_mem::Layout;

/// Worker counts exercised for every configuration. 1 covers the
/// parallel code path degenerated to one thread; the others cover real
/// work splitting (even on a single-core host the layer chunking
/// differs, which is exactly what must not change the results).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs `build()` through the sequential checker and the parallel engine
/// at every worker count, asserting identical `(states, transitions,
/// terminal_states)` everywhere, and pins the counts to `expect` (the
/// seed CSV row) when given.
fn assert_engines_agree<M, F>(
    label: &str,
    build: impl Fn() -> ModelChecker<M>,
    invariant: F,
    expect: Option<(u64, u64)>,
) -> CheckStats
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String> + Copy,
{
    let seq = build()
        .check(invariant)
        .unwrap_or_else(|e| panic!("{label}: sequential check failed:\n{e}"));
    if let Some((states, transitions)) = expect {
        assert_eq!(seq.states, states, "{label}: states vs seed CSV");
        assert_eq!(
            seq.transitions, transitions,
            "{label}: transitions vs seed CSV"
        );
    }
    let mut par_depth = None;
    for workers in WORKER_COUNTS {
        let par = build()
            .workers(workers)
            .check_parallel(invariant)
            .unwrap_or_else(|e| panic!("{label}: parallel check ({workers}w) failed:\n{e}"));
        assert_eq!(par.states, seq.states, "{label}: states ({workers}w)");
        assert_eq!(
            par.transitions, seq.transitions,
            "{label}: transitions ({workers}w)"
        );
        assert_eq!(
            par.terminal_states, seq.terminal_states,
            "{label}: terminal states ({workers}w)"
        );
        // BFS depth (layer count) differs from DFS depth by design, but
        // it must be identical across worker counts.
        let d = *par_depth.get_or_insert(par.max_depth);
        assert_eq!(par.max_depth, d, "{label}: BFS depth ({workers}w)");
    }
    seq
}

#[test]
fn splitter_engines_agree() {
    // ℓ=2, 3 sessions: the counts in the CSV are the sum over all 12
    // quiescent initial register assignments.
    let mut total_states = 0u64;
    let mut total_transitions = 0u64;
    for (init_last, init_a1, init_a2) in splitter_spec::all_inits(2) {
        let seq = assert_engines_agree(
            &format!("splitter ℓ=2 init=({init_last},{init_a1},{init_a2})"),
            || splitter_spec::checker(2, 3, init_last, init_a1, init_a2),
            splitter_spec::output_set_invariant,
            None,
        );
        total_states += seq.states;
        total_transitions += seq.transitions;
    }
    assert_eq!((total_states, total_transitions), (126_816, 244_976));
}

#[test]
fn pf_engines_agree() {
    assert_engines_agree(
        "PF exclusion, 5 sessions",
        || pf_spec::checker(5),
        pf_spec::mutual_exclusion,
        Some((1_553, 3_017)),
    );
    assert_engines_agree(
        "PF no-deadlock, 5 sessions",
        || pf_spec::checker(5),
        pf_spec::no_deadlock_invariant,
        Some((1_553, 3_017)),
    );
}

#[test]
fn tournament_engines_agree() {
    for (s, parts, sessions, expect) in [
        (8u64, vec![2u64, 3], 3u8, (2_045, 3_927)),
        (8, vec![0, 7], 3, (3_271, 6_419)),
        (4, vec![0, 1, 3], 2, (17_249, 48_729)),
    ] {
        assert_engines_agree(
            &format!("tournament S={s} pids={parts:?}"),
            || tree_spec::checker(s, &parts, sessions),
            tree_spec::root_exclusion,
            Some(expect),
        );
    }
}

// The SPLIT and chain expectations below supersede the seed CSV rows:
// the seed's `SplitRelease` state key omitted the unreleased path, which
// collapsed states with different futures (its own e2_modelcheck.csv and
// e2_liveness.csv disagreed on the same configurations). With the key
// completed, every engine agrees on these counts.

#[test]
fn split_engines_agree() {
    for (k, procs, sessions, expect) in [
        (2usize, 2usize, 3u8, (9_341, 18_008)),
        (3, 2, 2, (48_803, 93_696)),
    ] {
        assert_engines_agree(
            &format!("SPLIT k={k} procs={procs}"),
            || split_spec::checker(k, procs, sessions),
            split_spec::unique_names_invariant,
            Some(expect),
        );
    }
}

#[test]
fn filter_engines_agree() {
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    for (pair, expect) in [
        ([1u64, 2], (441, 840)),
        ([1, 3], (3_130, 6_134)),
        ([0, 3], (441, 840)),
        ([0, 2], (3_130, 6_134)),
    ] {
        assert_engines_agree(
            &format!("FILTER tiny pids={pair:?}"),
            || filter_spec::checker(tiny, &pair, 2),
            filter_spec::combined_invariant,
            Some(expect),
        );
    }
}

#[test]
fn ma_engines_agree() {
    for (k, s, pids, sessions, expect) in [
        (2usize, 3u64, vec![0u64, 2], 3u8, (9_988, 19_046)),
        (3, 3, vec![0, 1, 2], 1, (50_126, 126_609)),
        (2, 4, vec![1, 3], 3, (12_784, 24_514)),
    ] {
        assert_engines_agree(
            &format!("MA k={k} S={s} pids={pids:?}"),
            || ma_spec::checker(k, s, &pids, sessions),
            ma_spec::unique_names_invariant,
            Some(expect),
        );
    }
}

#[test]
fn chain_engines_agree() {
    assert_engines_agree(
        "chain k=2",
        || {
            let mut layout = Layout::new();
            let core = SplitMa::build(2, &mut layout).unwrap();
            session::checker(layout, &core, &[3, 9], 2)
        },
        session::unique_names_invariant,
        Some((163_117, 308_332)),
    );
}

#[test]
fn levelarray_engines_agree() {
    // Swap-based claims finish in 1–2 steps, so these spaces are tiny
    // compared to the read/write families at the same (k, procs).
    for (k, pids, sessions, expect) in [
        (2usize, vec![0u64, 1], 2u8, (49, 84)),
        (3, vec![2u64, 9, 77], 2, (595, 1_546)),
        (4, vec![0u64, 1, 2, 3], 1, (521, 1_508)),
    ] {
        assert_engines_agree(
            &format!("LevelArray k={k} pids={pids:?}"),
            || la_spec::checker(k, &pids, sessions),
            la_spec::unique_names_invariant,
            Some(expect),
        );
    }
}

#[test]
fn smallnet_engines_agree() {
    for (ell, pids, expect) in [
        (1usize, vec![0u64, 1], (53, 70)),
        (2, vec![0u64, 1, 2], (6_583, 14_439)),
    ] {
        assert_engines_agree(
            &format!("small net ℓ={ell} pids={pids:?}"),
            || onetime_spec::small_net_checker(ell, &pids),
            onetime_spec::unique_names_invariant,
            Some(expect),
        );
    }
}

#[test]
fn onetime_engines_agree() {
    for (k, pids, expect) in [
        (2usize, vec![0u64, 1], (165, 254)),
        (3, vec![0, 1, 2], (14_887, 34_095)),
    ] {
        assert_engines_agree(
            &format!("one-time k={k}"),
            || onetime_spec::checker(k, &pids),
            onetime_spec::unique_names_invariant,
            Some(expect),
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

/// E12's small splitter network ℓ=3 world.
fn net_faults(f: u64) -> ModelChecker<Session<OneTimeCore>> {
    let mut layout = Layout::new();
    let shape = OneTimeShape::small_net(3, &mut layout);
    let core = |p| OneTimeCore::new(shape.clone(), p);
    faults(layout, [(core(0), core(2)), (core(1), core(3))], f)
}

/// E12's MA grid k=4, S=8 world.
fn ma_faults(f: u64) -> ModelChecker<Session<MaCore>> {
    let mut layout = Layout::new();
    let shape = MaShape::build(4, 8, &mut layout);
    let core = |p| MaCore::new(shape.clone(), p);
    faults(layout, [(core(0), core(1)), (core(3), core(5))], f)
}

/// The crash–restart fault model on E12's worlds: the DFS and the
/// in-RAM BFS must take the same crash moves.
#[test]
fn faults_engines_agree() {
    for (f, expect, terminal) in [(1, (120, 211), 7), (2, (261, 531), 25)] {
        let label = format!("LevelArray k=4 f={f}");
        let seq = assert_engines_agree(
            &label,
            || la_faults(f),
            crash_robust_uniqueness,
            Some(expect),
        );
        assert_eq!(seq.terminal_states, terminal, "{label}: terminal states");
    }
    let label = "small net ℓ=3 f=2";
    let seq = assert_engines_agree(
        label,
        || net_faults(2),
        crash_robust_uniqueness,
        Some((10_416, 19_364)),
    );
    assert_eq!(seq.terminal_states, 712, "{label}: terminal states");
}

/// E12's MA world under one fault. Slow in debug builds: run with
/// `cargo test --release --test engine_equivalence -- --ignored`.
#[test]
#[ignore = "about 30 s in a debug build; run in release mode"]
fn ma_faults_engines_agree() {
    assert_engines_agree(
        "MA k=4 S=8 f=1",
        || ma_faults(1),
        crash_robust_uniqueness,
        Some((19_217, 36_724)),
    );
}

/// A crash on the spanning tree: every store, worker count and
/// reduction setting must report the same crash schedule, and it must
/// replay to the crashed state and render as a crash.
#[test]
fn fault_schedule_is_deterministic() {
    let leaked = |w: &World<'_, Session<LevelArrayCore>>| {
        let leaker = w.machines.iter().position(|m| !m.leaked().is_empty());
        leaker.map_or(Ok(()), |i| Err(format!("machine {i} leaked a name")))
    };
    let replays = |v: &llr_mc::Violation, tag: &str| {
        let (_, machines, _) = la_faults(2).run_schedule(&v.schedule);
        assert!(
            machines.iter().any(|m| !m.leaked().is_empty()),
            "{tag}: the schedule must replay to a leaked name"
        );
        assert!(v.trace.contains("CRASH"), "{tag}: trace:\n{}", v.trace);
    };
    let dir = std::env::temp_dir();
    for por in [false, true] {
        for workers in WORKER_COUNTS {
            let stores = [
                ("in RAM", la_faults(2)),
                ("spill 0 B", la_faults(2).spill_dir(&dir, 0)),
                ("spill 1 GiB", la_faults(2).spill_dir(&dir, 1 << 30)),
            ];
            for (store, mc) in stores {
                let tag = format!("{store}, {workers}w, por {por}");
                let v = mc
                    .por(por)
                    .workers(workers)
                    .check_parallel(leaked)
                    .expect_err("a crash while holding leaks the name")
                    .unwrap_violation();
                assert_eq!(v.schedule, vec![0, 0, CRASH_SCHEDULE_BASE], "{tag}");
                replays(&v, &tag);
            }
        }
    }
    let v = la_faults(2)
        .check(leaked)
        .expect_err("a crash while holding leaks the name")
        .unwrap_violation();
    assert_eq!(
        v.schedule,
        vec![0, 0, 0, 1, 1, CRASH_SCHEDULE_BASE + 1],
        "DFS"
    );
    replays(&v, "DFS");
}

/// The external-memory (spill-to-disk) backend must reproduce the exact
/// counts of the sequential DFS and the in-RAM parallel engines at every
/// worker count — both with a generous budget (the delta never flushes
/// mid-layer) and with a zero budget, which clamps the flush threshold
/// to its 64 KiB floor and forces multiple sorted runs per BFS layer, so
/// the per-layer merge-join and shard compaction actually run.
#[test]
fn spill_backend_engines_agree() {
    let exact = split_spec::checker(3, 2, 2)
        .check(split_spec::unique_names_invariant)
        .expect("SPLIT verifies");
    assert_eq!((exact.states, exact.transitions), (48_803, 93_696));

    let dir = std::env::temp_dir();
    // 48_803 states × 16 B ≈ 763 KiB of hashes: a zero budget (64 KiB
    // effective) forces ~12 flushes spread across the layers.
    for budget in [1usize << 30, 0] {
        for workers in WORKER_COUNTS {
            let spill = split_spec::checker(3, 2, 2)
                .spill_dir(&dir, budget)
                .workers(workers)
                .check_parallel(split_spec::unique_names_invariant)
                .expect("SPLIT verifies spilled");
            let tag = format!("budget={budget} workers={workers}");
            assert_eq!(spill.states, exact.states, "spill states ({tag})");
            assert_eq!(
                spill.transitions, exact.transitions,
                "spill transitions ({tag})"
            );
            assert_eq!(
                spill.terminal_states, exact.terminal_states,
                "spill terminal states ({tag})"
            );
            assert!(
                spill.peak_resident_bytes > 0,
                "resident accounting ran ({tag})"
            );
            if budget == 0 {
                assert!(
                    spill.spilled_bytes >= exact.states.saturating_sub(8_192) * 16,
                    "tiny budget must push most hashes to disk ({tag}): \
                     spilled {} bytes",
                    spill.spilled_bytes
                );
            }
        }
    }
}

/// Budgets exercised by the frontier-spill battery. The generous budget
/// keeps everything resident (one chunk per layer, no mid-layer
/// flushes); the tight budget (256 KiB) forces a 128 KiB visited delta
/// and the 64 KiB frontier-window floor, so mid-size layers split into
/// several read chunks; the zero budget clamps every slice to its floor
/// and drives single-digit-state chunks plus multiple sorted runs per
/// layer.
const SPILL_BUDGETS: [usize; 3] = [1usize << 30, 1 << 18, 0];

/// The frontier-on-disk battery: with the whole BFS frontier streaming
/// through per-layer files (`llr_mc::frontier`), every protocol family
/// must reproduce the in-RAM parallel engine's counts byte-for-byte at
/// every worker count and every byte budget. Chunked frontier reads
/// change which worker first materialises a state, but the
/// deterministic (parent, via) merge must keep ids — and therefore
/// counts, depths, and schedules — bit-identical.
#[test]
fn frontier_spill_battery() {
    fn battery<M, F>(label: &str, build: impl Fn() -> ModelChecker<M>, invariant: F)
    where
        M: StepMachine + Send + Sync,
        F: Fn(&World<'_, M>) -> Result<(), String> + Copy,
    {
        let reference = build()
            .workers(1)
            .check_parallel(invariant)
            .unwrap_or_else(|e| panic!("{label}: in-RAM reference failed:\n{e}"));
        let dir = std::env::temp_dir();
        for budget in SPILL_BUDGETS {
            for workers in WORKER_COUNTS {
                let spill = build()
                    .spill_dir(&dir, budget)
                    .workers(workers)
                    .check_parallel(invariant)
                    .unwrap_or_else(|e| {
                        panic!("{label}: spill (budget={budget}, {workers}w) failed:\n{e}")
                    });
                let tag = format!("{label} budget={budget} workers={workers}");
                assert_eq!(spill.states, reference.states, "states ({tag})");
                assert_eq!(
                    spill.transitions, reference.transitions,
                    "transitions ({tag})"
                );
                assert_eq!(
                    spill.terminal_states, reference.terminal_states,
                    "terminal states ({tag})"
                );
                assert_eq!(spill.max_depth, reference.max_depth, "BFS depth ({tag})");
                assert!(
                    spill.peak_resident_bytes > 0,
                    "resident accounting ran ({tag})"
                );
                if budget == 0 {
                    // With every slice at its floor the frontier layers
                    // themselves must have gone through disk, not just
                    // the visited hashes.
                    assert!(
                        spill.spilled_bytes > reference.states * 16,
                        "zero budget must push frontier bytes to disk ({tag}): \
                         spilled {} bytes over {} states",
                        spill.spilled_bytes,
                        reference.states
                    );
                }
            }
        }
    }

    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    battery(
        "SPLIT k=2",
        || split_spec::checker(2, 2, 3),
        split_spec::unique_names_invariant,
    );
    battery(
        "FILTER tiny pids=[1,3]",
        || filter_spec::checker(tiny, &[1, 3], 2),
        filter_spec::combined_invariant,
    );
    battery(
        "LevelArray k=3",
        || la_spec::checker(3, &[2, 9, 77], 2),
        la_spec::unique_names_invariant,
    );
    battery(
        "small net ℓ=2",
        || onetime_spec::small_net_checker(2, &[0, 1, 2]),
        onetime_spec::unique_names_invariant,
    );
    for f in [1, 2] {
        battery(
            &format!("LevelArray k=4 f={f}"),
            || la_faults(f),
            crash_robust_uniqueness,
        );
    }
    battery(
        "small net ℓ=3 f=2",
        || net_faults(2),
        crash_robust_uniqueness,
    );
}

/// One world as the invariant saw it: the registers, then each
/// machine's done flag and key.
type Seen = (Vec<u64>, Vec<(bool, Vec<u64>)>);

/// Every world `check` shows its invariant, sorted. Each state is shown
/// exactly once.
fn worlds_seen<M: StepMachine>(
    check: impl FnOnce(&dyn Fn(&World<'_, M>) -> Result<(), String>) -> Result<CheckStats, CheckError>,
) -> Vec<Seen> {
    let seen = std::cell::RefCell::new(Vec::new());
    let record = |w: &World<'_, M>| {
        let machines = w.machines.iter().zip(w.done).map(|(m, &done)| {
            let mut key = Vec::new();
            m.key(&mut key);
            (done, key)
        });
        seen.borrow_mut()
            .push((w.mem.snapshot(), machines.collect()));
        Ok(())
    };
    let stats =
        check(&record).unwrap_or_else(|e| panic!("a recording invariant cannot fail:\n{e}"));
    let mut seen = seen.into_inner();
    assert_eq!(seen.len() as u64, stats.states, "one world per state");
    seen.sort();
    seen
}

/// Every store must show the invariant the same worlds, not just the same
/// number of them: a record decoded with the wrong machine, or a machine
/// left over from the previously checked state, keeps every count pin but
/// changes a world. Without reduction the DFS, the in-RAM BFS at every
/// worker count and the spill store at a zero and a generous budget agree;
/// with it, the breadth-first stores agree among themselves.
#[test]
fn every_store_shows_the_invariant_the_same_worlds() {
    fn stores_agree<M: StepMachine + Send + Sync>(
        label: &str,
        build: impl Fn() -> ModelChecker<M>,
    ) {
        let dir = std::env::temp_dir();
        for por in [false, true] {
            let mut reference = (!por).then(|| worlds_seen(|inv| build().check(inv)));
            let mut agree = |tag: String, got: Vec<Seen>| match &reference {
                Some(want) => assert!(got == *want, "{label}: {tag} shows other worlds"),
                None => reference = Some(got),
            };
            for workers in WORKER_COUNTS {
                let ram = worlds_seen(|inv| build().por(por).workers(workers).check_parallel(inv));
                agree(format!("in RAM, {workers}w, por {por}"), ram);
                for budget in [0, 1 << 30] {
                    let spill = worlds_seen(|inv| {
                        build()
                            .por(por)
                            .workers(workers)
                            .spill_dir(&dir, budget)
                            .check_parallel(inv)
                    });
                    agree(format!("spill {budget} B, {workers}w, por {por}"), spill);
                }
            }
        }
    }
    // Long enough for the breadth-first loop's machine pool to drop and
    // renumber machines between layers.
    stores_agree("SPLIT k=3", || split_spec::checker(3, 2, 2));
    stores_agree("LevelArray k=4 f=1", || la_faults(1));
    // 74 registers: nine full register blocks and a two-word tail.
    let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
    stores_agree("FILTER gf5, 2 pids", || {
        filter_spec::checker(gf5, &[1, 6], 1)
    });
}

/// Under a tiny budget the spill backend must hold far less of the
/// visited set in RAM than the in-RAM hashed engine — this is the whole
/// point of the backend, and what the E2 table's budget column claims.
#[test]
fn spill_backend_bounds_resident_memory() {
    let inram = split_spec::checker(3, 2, 2)
        .workers(1)
        .check_parallel(split_spec::unique_names_invariant)
        .expect("SPLIT verifies hashed");
    let spill = split_spec::checker(3, 2, 2)
        .spill_dir(std::env::temp_dir(), 0)
        .workers(1)
        .check_parallel(split_spec::unique_names_invariant)
        .expect("SPLIT verifies spilled");
    assert!(
        spill.peak_resident_bytes < inram.peak_resident_bytes,
        "spilling must lower the tracked resident peak: {} vs {}",
        spill.peak_resident_bytes,
        inram.peak_resident_bytes
    );
}

/// On a broken spec the parallel engine must report the *same* violation
/// — message and schedule — regardless of worker count or store (first
/// violating state in deterministic BFS id order), and replaying the
/// schedule must reproduce the violating state.
#[test]
fn violation_schedule_is_deterministic() {
    // "No terminal state exists" is false for the one-time grid: every
    // complete run ends with both machines done.
    let broken = |w: &World<'_, onetime_spec::OneTimeUser>| {
        if w.all_done() {
            Err("reached a terminal state".to_string())
        } else {
            Ok(())
        }
    };

    let mut first: Option<(String, Vec<usize>)> = None;
    for workers in WORKER_COUNTS {
        let err = onetime_spec::checker(2, &[0, 1])
            .workers(workers)
            .check_parallel(broken)
            .expect_err("the broken invariant must trip");
        let CheckError::Violation(v) = err else {
            panic!("expected a violation, got {err}");
        };
        let got = (v.message.clone(), v.schedule.clone());
        match &first {
            None => {
                // Replay check: the schedule drives both machines to
                // completion from the initial state.
                assert!(!v.schedule.is_empty());
                assert!(v.trace.contains("#0"), "trace renders steps:\n{}", v.trace);
                first = Some(got);
            }
            Some(expected) => assert_eq!(&got, expected, "violation differs (workers={workers})"),
        }
    }

    // The spill backend must report the identical violation — message
    // and schedule — at every budget, including the zero budget that
    // forces the visited set through disk runs and the frontier through
    // single-state read chunks.
    let expected = first.expect("in-RAM engines produced a violation");
    for budget in SPILL_BUDGETS {
        for workers in WORKER_COUNTS {
            let err = onetime_spec::checker(2, &[0, 1])
                .spill_dir(std::env::temp_dir(), budget)
                .workers(workers)
                .check_parallel(broken)
                .expect_err("the broken invariant must trip under spilling");
            let CheckError::Violation(v) = err else {
                panic!("expected a violation, got {err}");
            };
            assert_eq!(
                (v.message.clone(), v.schedule.clone()),
                expected,
                "spill violation differs (budget={budget}, workers={workers})"
            );
        }
    }
}

/// The full multi-million-state rows of the seed table, sequential vs
/// parallel. Slow: run with
/// `cargo test --release --test engine_equivalence -- --ignored`.
#[test]
#[ignore = "multi-million-state rows; run in release mode"]
fn full_seed_table_engines_agree() {
    let mut total = (0u64, 0u64);
    for (init_last, init_a1, init_a2) in splitter_spec::all_inits(3) {
        let seq = assert_engines_agree(
            &format!("splitter ℓ=3 init=({init_last},{init_a1},{init_a2})"),
            || splitter_spec::checker(3, 2, init_last, init_a1, init_a2),
            splitter_spec::output_set_invariant,
            None,
        );
        total.0 += seq.states;
        total.1 += seq.transitions;
    }
    assert_eq!(total, (5_450_316, 15_563_376));

    assert_engines_agree(
        "tournament S=4 full",
        || tree_spec::checker(4, &[0, 1, 2, 3], 2),
        tree_spec::root_exclusion,
        Some((486_893, 1_817_694)),
    );
    assert_engines_agree(
        "SPLIT k=3 full",
        || split_spec::checker(3, 3, 1),
        split_spec::unique_names_invariant,
        Some((1_255_072, 3_407_847)),
    );
    let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
    assert_engines_agree(
        "FILTER gf5",
        || filter_spec::checker(gf5, &[1, 6, 11], 1),
        filter_spec::combined_invariant,
        Some((294_622, 863_511)),
    );
    assert_engines_agree(
        "one-time k=4",
        || onetime_spec::checker(4, &[0, 1, 2, 3]),
        onetime_spec::unique_names_invariant,
        Some((2_884_713, 8_780_764)),
    );
    assert_engines_agree(
        "small net ℓ=3",
        || onetime_spec::small_net_checker(3, &[0, 1, 2, 3]),
        onetime_spec::unique_names_invariant,
        Some((1_526_121, 4_560_796)),
    );
}
