//! E2 (Theorem 5, Lemma 6, and friends): exhaustive model checking of
//! every reconstructed building block and every protocol at small scale.
//!
//! This is the release-mode home of the checks too slow for the debug
//! test suite; it regenerates the verification table of EXPERIMENTS.md.
//!
//! Every row records which engine explored it and how long it took
//! (`wall_ms`, `states_per_sec`). The sequential DFS is the reference
//! engine, the one that dedups by exact keys, and covers the CI-sized
//! rows; the parallel BFS engine (one worker per core, 128-bit hashed
//! dedup) covers the rows that used to be infeasible. Three mid-size rows
//! run under **both** engines, so the parallel speedup is measurable
//! straight from the CSV on a multicore host (engines agree exactly on
//! states/transitions — `tests/engine_equivalence.rs` pins that).
//!
//! The largest rows — one size step beyond what fits in RAM — run on the
//! external-memory backend (`bfs+spill`): the visited set lives in
//! sorted runs on disk and only a bounded delta (the budget in the
//! engine label) stays resident. The `peak_resident_bytes` column
//! reports each parallel engine's deterministic tracked footprint
//! (visited set / delta + frontier + spanning tree — a reproducible
//! lower bound on RSS, not a measurement), and `spilled_bytes` the total
//! run bytes written, so the memory story is auditable from the CSV.
//!
//! The `+por` rows run the same engines under partial-order reduction
//! (`Engine::Reduced`): only provably-commuting step orders are
//! collapsed, so the verdict is unchanged while the explored graph
//! shrinks by an order of magnitude or more — this is what makes the
//! GF(11) FILTER configurations (full graph beyond even the spill
//! frontier) checkable. These rows use the `(por-safe)` unique-names invariant;
//! see the row comments for why block exclusion needs the full graph.

use crate::common::{banner, bfs_hashed, bfs_spill, explore, liveness, por, Table};
use llr_core::chain::{SplitMa, Then, Theorem11};
use llr_core::filter::{spec as filter_spec, FilterCore, FilterShape};
use llr_core::levelarray::spec as la_spec;
use llr_core::ma::spec as ma_spec;
use llr_core::onetime::spec as onetime_spec;
use llr_core::pf::spec as pf_spec;
use llr_core::session::{self, unique_names_invariant};
use llr_core::split::{spec as split_spec, SplitCore, SplitShape};
use llr_core::splitter::spec as splitter_spec;
use llr_core::tournament::spec as tree_spec;
use llr_gf::FilterParams;
use llr_mc::{CheckError, CheckStats, Engine};
use llr_mem::Layout;
use std::time::Duration;

/// State budget for the large parallel rows.
const BIG: usize = 200_000_000;

/// Visited-set delta budget for the spill rows: the visited sets of
/// these rows are an order of magnitude larger than this (the
/// `peak_resident_bytes` column of their in-RAM siblings shows it), so
/// the rows genuinely exercise the external-memory path.
const SPILL_BUDGET: usize = 256 << 20;

/// The reference sequential DFS.
fn dfs() -> Engine {
    Engine::Sequential
}

/// Sums [`splitter_spec::checker`] over every quiescent initial register
/// assignment (the unit the splitter rows report).
fn splitter_all_inits(
    ell: usize,
    sessions: u8,
    engine: &Engine,
) -> (Result<CheckStats, CheckError>, Duration) {
    let mut total = CheckStats::default();
    let mut wall = Duration::ZERO;
    for (init_last, init_a1, init_a2) in splitter_spec::all_inits(ell) {
        let (r, w) = explore(
            splitter_spec::checker(ell, sessions, init_last, init_a1, init_a2),
            splitter_spec::output_set_invariant,
            engine,
            BIG,
        );
        wall += w;
        match r {
            Ok(s) => {
                total.states += s.states;
                total.transitions += s.transitions;
                total.max_depth = total.max_depth.max(s.max_depth);
                total.terminal_states += s.terminal_states;
                total.peak_resident_bytes = total.peak_resident_bytes.max(s.peak_resident_bytes);
                total.spilled_bytes += s.spilled_bytes;
            }
            Err(e) => return (Err(e), wall),
        }
    }
    (Ok(total), wall)
}

pub fn run() {
    banner("E2 — exhaustive interleaving verification (all schedules)");
    let mut t = Table::new(
        "e2_modelcheck",
        &[
            "subject",
            "invariant",
            "configuration",
            "engine",
            "states",
            "transitions",
            "wall_ms",
            "states_per_sec",
            "peak_resident_bytes",
            "spilled_bytes",
            "verdict",
        ],
    );
    let mut add = |subject: &str,
                   invariant: &str,
                   config: &str,
                   engine: &Engine,
                   (res, wall): (Result<CheckStats, CheckError>, Duration)| {
        let wall_ms = format!("{:.1}", wall.as_secs_f64() * 1e3);
        match res {
            Ok(s) => {
                let sps = format!("{:.0}", s.states_per_sec(wall));
                // The parallel engines report their deterministic tracked
                // footprint; the DFS reference does not track one.
                let resident = if s.peak_resident_bytes > 0 {
                    s.peak_resident_bytes.to_string()
                } else {
                    "-".into()
                };
                let spilled = if engine.spills() {
                    s.spilled_bytes.to_string()
                } else {
                    "-".to_string()
                };
                t.row(&[
                    &subject,
                    &invariant,
                    &config,
                    &engine.label(),
                    &s.states,
                    &s.transitions,
                    &wall_ms,
                    &sps,
                    &resident,
                    &spilled,
                    &"VERIFIED",
                ]);
            }
            Err(e) => {
                let verdict = match &e {
                    CheckError::Violation(_) => "VIOLATED",
                    CheckError::StateLimit { .. } => "STATE-LIMIT",
                    CheckError::Io(_) => "IO-ERROR",
                };
                t.row(&[
                    &subject,
                    &invariant,
                    &config,
                    &engine.label(),
                    &"-",
                    &"-",
                    &wall_ms,
                    &"-",
                    &"-",
                    &"-",
                    &verdict,
                ]);
                eprintln!("{verdict} in {subject} ({config}):\n{e}");
            }
        }
    };

    // Splitter (Figure 2 reconstruction) — Theorem 5. The ℓ=3 row is one
    // of the two largest in the table and runs under both engines.
    add(
        "splitter (Fig 2)",
        "each output set ≤ ℓ-1",
        "ℓ=2, 3 sessions, all 12 initial states",
        &dfs(),
        splitter_all_inits(2, 3, &dfs()),
    );
    for engine in [dfs(), bfs_hashed()] {
        add(
            "splitter (Fig 2)",
            "each output set ≤ ℓ-1",
            "ℓ=3, 2 sessions, all 12 initial states",
            &engine,
            splitter_all_inits(3, 2, &engine),
        );
    }
    add(
        "splitter (Fig 2)",
        "each output set ≤ ℓ-1",
        "ℓ=3, 3 sessions, all 12 initial states",
        &bfs_hashed(),
        splitter_all_inits(3, 3, &bfs_hashed()),
    );
    // One size step beyond what the in-RAM engines cover, on the
    // external-memory backend. Each of the 12 initial-state runs is its
    // own exploration, so the budget is sized against a single run's
    // visited set (≈ 120 MiB of hashes), not the row total.
    add(
        "splitter (Fig 2)",
        "each output set ≤ ℓ-1",
        "ℓ=3, 4 sessions, all 12 initial states",
        &bfs_spill(SPILL_BUDGET / 4),
        splitter_all_inits(3, 4, &bfs_spill(SPILL_BUDGET / 4)),
    );

    // Peterson–Fischer ME (Figure 3 reconstruction) — Lemma 6 substrate.
    for sessions in [5u8, 8] {
        add(
            "PF 2-proc ME (Fig 3)",
            "mutual exclusion",
            &format!("2 procs, {sessions} sessions"),
            &dfs(),
            explore(
                pf_spec::checker(sessions),
                pf_spec::mutual_exclusion,
                &dfs(),
                BIG,
            ),
        );
    }
    add(
        "PF 2-proc ME (Fig 3)",
        "no deadlock state",
        "2 procs, 5 sessions",
        &dfs(),
        explore(
            pf_spec::checker(5),
            pf_spec::no_deadlock_invariant,
            &dfs(),
            BIG,
        ),
    );

    // Tournament trees — Lemma 6. The 4-contender S=8 row is new: all
    // eight leaf pairs contended through three levels.
    for (s, parts, sessions, engine) in [
        (8u64, vec![2u64, 3], 3u8, dfs()),
        (8, vec![0, 7], 3, dfs()),
        (4, vec![0, 1, 3], 2, dfs()),
        (4, vec![0, 1, 2, 3], 2, dfs()),
        (8, vec![0, 3, 5, 7], 2, bfs_hashed()),
    ] {
        add(
            "tournament tree",
            "root CS exclusion",
            &format!("S={s}, pids={parts:?}, {sessions} sessions"),
            &engine,
            explore(
                tree_spec::checker(s, &parts, sessions),
                tree_spec::root_exclusion,
                &engine,
                BIG,
            ),
        );
    }

    // SPLIT (Figure 1) — name uniqueness. k=4 with three contenders is
    // new territory (a depth-3 splitter tree under contention).
    for (k, procs, sessions, engine) in [
        (2usize, 2usize, 3u8, dfs()),
        (3, 2, 2, dfs()),
        (3, 3, 1, dfs()),
        (4, 3, 1, bfs_hashed()),
        (5, 3, 1, bfs_spill(SPILL_BUDGET)),
    ] {
        add(
            "SPLIT (Fig 1)",
            "held names unique",
            &format!("k={k}, {procs} procs, {sessions} sessions"),
            &engine,
            explore(
                split_spec::checker(k, procs, sessions),
                split_spec::unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }

    // FILTER (Figure 4) — uniqueness and global block exclusion. The
    // 2-session GF(5) row is new: every contender re-enters once.
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    for pair in [[1u64, 2], [1, 3], [0, 3], [0, 2]] {
        add(
            "FILTER (Fig 4)",
            "unique names + ME blocks",
            &format!("k=2, S=4, d=1, z=2, pids={pair:?}, 2 sessions"),
            &dfs(),
            explore(
                filter_spec::checker(tiny, &pair, 2),
                filter_spec::combined_invariant,
                &dfs(),
                BIG,
            ),
        );
    }
    let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
    for (sessions, engine) in [(1u8, dfs()), (2, bfs_hashed())] {
        add(
            "FILTER (Fig 4)",
            "unique names + ME blocks",
            &format!("k=3, S=25, d=1, z=5, pids=[1,6,11], {sessions} sessions"),
            &engine,
            explore(
                filter_spec::checker(gf5, &[1, 6, 11], sessions),
                filter_spec::combined_invariant,
                &engine,
                BIG,
            ),
        );
    }
    // FILTER at the next field size: k=4, GF(7), four contenders. The
    // visited set for this row dwarfs the spill budget (compare
    // `peak_resident_bytes` on the in-RAM rows above) — this is the row
    // the external-memory backend exists for.
    let gf7 = FilterParams::new(4, 49, 1, 7).unwrap();
    add(
        "FILTER (Fig 4)",
        "unique names + ME blocks",
        "k=4, S=49, d=1, z=7, pids=[1,8,15,22], 1 sessions",
        &bfs_spill(SPILL_BUDGET),
        explore(
            filter_spec::checker(gf7, &[1, 8, 15, 22], 1),
            filter_spec::combined_invariant,
            &bfs_spill(SPILL_BUDGET),
            BIG,
        ),
    );
    // The same configuration under partial-order reduction. FILTER is
    // the family POR exists for — each process touches only the trees of
    // its own name set, so most interleavings commute — and the reduced
    // graph is more than an order of magnitude smaller than the
    // 63.4M-state row above, small enough for the in-RAM hashed engine.
    // This row keeps the default core, so the invariant drops the
    // block-exclusion half (under the default footprints `won_blocks` is
    // not invariant-observable). `blocks_observable_checker` promotes it
    // into the visibility contract — `tests/por_equivalence.rs` pins
    // that combination — at the cost of a shallower reduction; the
    // historical rows stay on the default core so their counts match
    // the seed CSV.
    add(
        "FILTER (Fig 4)",
        "unique names (por-safe)",
        "k=4, S=49, d=1, z=7, pids=[1,8,15,22], 1 sessions",
        &por(bfs_hashed()),
        explore(
            filter_spec::checker(gf7, &[1, 8, 15, 22], 1),
            filter_spec::unique_names_invariant,
            &por(bfs_hashed()),
            BIG,
        ),
    );
    // The reduction opens field sizes the full search cannot touch. The
    // reduced graph scales with *contention*, not field size: GF(11)
    // with the same four contenders is barely larger reduced than GF(7)
    // (2.0M vs 1.8M states), while its full graph is far beyond the
    // 63.4M-state GF(7) row.
    let gf11 = FilterParams::new(4, 121, 1, 11).unwrap();
    add(
        "FILTER (Fig 4)",
        "unique names (por-safe)",
        "k=4, S=121, d=1, z=11, pids=[1,12,23,34], 1 sessions",
        &por(bfs_hashed()),
        explore(
            filter_spec::checker(gf11, &[1, 12, 23, 34], 1),
            filter_spec::unique_names_invariant,
            &por(bfs_hashed()),
            BIG,
        ),
    );

    // MA grid — uniqueness. Three contenders doing two full sessions each
    // is new.
    for (k, s, pids, sessions, engine) in [
        (2usize, 3u64, vec![0u64, 2], 3u8, dfs()),
        (3, 3, vec![0, 1, 2], 1, dfs()),
        (2, 4, vec![1, 3], 3, dfs()),
        (3, 3, vec![0, 1, 2], 2, bfs_hashed()),
    ] {
        add(
            "MA grid (baseline)",
            "held names unique",
            &format!("k={k}, S={s}, pids={pids:?}, {sessions} sessions"),
            &engine,
            explore(
                ma_spec::checker(k, s, &pids, sessions),
                ma_spec::unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }

    // Chain composition: each chain is one register file and one `Then`
    // core, the value the arena serves. SPLIT → MA first.
    let mut split_ma_layout = Layout::new();
    let split_ma = SplitMa::build(2, &mut split_ma_layout).expect("SPLIT→MA chain");
    for (sessions, engine) in [(2u8, dfs()), (3, bfs_hashed())] {
        add(
            "chain SPLIT→MA",
            "end-to-end names unique",
            &format!("k=2, 2 procs, {sessions} sessions, backwards release"),
            &engine,
            explore(
                session::checker(split_ma_layout.clone(), &split_ma, &[3, 9], sessions),
                unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }
    // SPLIT → FILTER, composed by hand from the two stage cores: FILTER
    // takes the k=2 Theorem 11 parameters over SPLIT's 3 names.
    let mut layout = Layout::new();
    let split = SplitCore::new(SplitShape::build(2, &mut layout), 0);
    let params = FilterParams::exponential3(2).expect("k=2 parameters");
    let shape = FilterShape::build(params, &[0, 1, 2], &mut layout).expect("SPLIT's names");
    let filter = FilterCore::new(shape, 0);
    let split_filter = Then::new(split, filter).expect("FILTER covers SPLIT's names");
    add(
        "chain SPLIT→FILTER",
        "end-to-end names unique",
        "k=2, 2 procs, 3 sessions, backwards release",
        &dfs(),
        explore(
            session::checker(layout, &split_filter, &[3, 9], 3),
            unique_names_invariant,
            &dfs(),
            BIG,
        ),
    );
    // The whole Theorem 11 pipeline, SPLIT → FILTER → FILTER → MA.
    let mut theorem11_layout = Layout::new();
    let theorem11 = Theorem11::build(2, &mut theorem11_layout).expect("Theorem 11 chain");
    for (sessions, engine) in [(1u8, dfs()), (3, bfs_hashed())] {
        add(
            "chain Theorem 11",
            "end-to-end names unique",
            &format!("k=2, 2 procs, {sessions} sessions, backwards release"),
            &engine,
            explore(
                session::checker(theorem11_layout.clone(), &theorem11, &[3, 9], sessions),
                unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }

    // One-time grid — one-shot uniqueness. The k=4 row is the other
    // "largest seed row" and runs under both engines.
    for (k, pids) in [(2usize, vec![0u64, 1]), (3, vec![0, 1, 2])] {
        add(
            "one-time grid",
            "acquired names unique",
            &format!("k={k}, pids={pids:?}"),
            &dfs(),
            explore(
                onetime_spec::checker(k, &pids),
                onetime_spec::unique_names_invariant,
                &dfs(),
                BIG,
            ),
        );
    }
    for engine in [dfs(), bfs_hashed()] {
        add(
            "one-time grid",
            "acquired names unique",
            "k=4, pids=[0, 1, 2, 3]",
            &engine,
            explore(
                onetime_spec::checker(4, &[0, 1, 2, 3]),
                onetime_spec::unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }
    // A wider grid under the same four contenders: the unreached extra
    // column adds no reachable states (counts match k=4 exactly), which
    // pins down that the state space is driven by contention, not k.
    add(
        "one-time grid",
        "acquired names unique",
        "k=5, pids=[0, 1, 2, 4]",
        &bfs_hashed(),
        explore(
            onetime_spec::checker(5, &[0, 1, 2, 4]),
            onetime_spec::unique_names_invariant,
            &bfs_hashed(),
            BIG,
        ),
    );

    // LevelArray (arXiv:1405.5461 reconstruction) — the swap-claimed
    // rival. State spaces are minute next to the read/write protocols:
    // the claim is a single exchange, so an acquire is 1-2 steps and the
    // whole k=4 full-occupancy world fits in thousands of states. The
    // sequential DFS covers every row; the k=4 row also runs reduced to
    // pin that POR composes with the swap footprint (read+write of one
    // slot).
    for (k, pids, sessions) in [
        (2usize, vec![0u64, 1], 2u8),
        (3, vec![2, 9, 77], 2),
        (4, vec![0, 1, 2, 3], 2),
    ] {
        add(
            "LevelArray",
            "held names unique",
            &format!("k={k}, pids={pids:?}, {sessions} sessions"),
            &dfs(),
            explore(
                la_spec::checker(k, &pids, sessions),
                la_spec::unique_names_invariant,
                &dfs(),
                BIG,
            ),
        );
    }
    add(
        "LevelArray",
        "held names unique (por-safe)",
        "k=4, pids=[0, 1, 2, 3], 2 sessions",
        &por(bfs_hashed()),
        explore(
            la_spec::checker(4, &[0, 1, 2, 3], 2),
            la_spec::unique_names_invariant,
            &por(bfs_hashed()),
            BIG,
        ),
    );

    // Small splitter network (arXiv:1011.3170 reconstruction) — the
    // pruned one-shot grid. ℓ=3 at full occupancy is the direct analogue
    // of the one-time k=4 row above on k fewer splitters; ℓ=4 with four
    // entrants mirrors the k=5 partial-occupancy row.
    for (ell, pids) in [(1usize, vec![0u64, 1]), (2, vec![0, 1, 2])] {
        add(
            "small net",
            "acquired names unique",
            &format!("ℓ={ell}, pids={pids:?}"),
            &dfs(),
            explore(
                onetime_spec::small_net_checker(ell, &pids),
                onetime_spec::unique_names_invariant,
                &dfs(),
                BIG,
            ),
        );
    }
    for engine in [dfs(), bfs_hashed()] {
        add(
            "small net",
            "acquired names unique",
            "ℓ=3 (4 entrants), pids=[0, 1, 2, 3]",
            &engine,
            explore(
                onetime_spec::small_net_checker(3, &[0, 1, 2, 3]),
                onetime_spec::unique_names_invariant,
                &engine,
                BIG,
            ),
        );
    }
    add(
        "small net",
        "acquired names unique",
        "ℓ=4 (5 entrants), pids=[0, 1, 2, 4]",
        &bfs_hashed(),
        explore(
            onetime_spec::small_net_checker(4, &[0, 1, 2, 4]),
            onetime_spec::unique_names_invariant,
            &bfs_hashed(),
            BIG,
        ),
    );

    t.finish();

    // Liveness: from every reachable state, some schedule finishes the
    // workload (deadlock-freedom for the blocking ME; a wait-freedom
    // consequence for the protocols). Runs on the parallel engine with
    // edge recording.
    let mut lt = Table::new(
        "e2_liveness",
        &[
            "subject",
            "configuration",
            "states",
            "edges",
            "wall_ms",
            "verdict",
        ],
    );
    let mut add_live =
        |subject: &str, config: &str, (r, wall): (Result<CheckStats, CheckError>, Duration)| {
            let wall_ms = format!("{:.1}", wall.as_secs_f64() * 1e3);
            match r {
                Ok(s) => lt.row(&[
                    &subject,
                    &config,
                    &s.states,
                    &s.transitions,
                    &wall_ms,
                    &"ALWAYS-TERMINABLE",
                ]),
                Err(e) => {
                    lt.row(&[&subject, &config, &"-", &"-", &wall_ms, &"TRAP FOUND"]);
                    eprintln!("TRAP in {subject} ({config}):\n{e}");
                }
            }
        };
    let live = bfs_hashed();
    add_live(
        "PF 2-proc ME",
        "2 procs, 4 sessions",
        liveness(pf_spec::checker(4), &live),
    );
    add_live(
        "tournament tree",
        "S=4, 3 procs, 2 sessions",
        liveness(tree_spec::checker(4, &[0, 1, 3], 2), &live),
    );
    add_live(
        "SPLIT",
        "k=3, 2 procs, 2 sessions",
        liveness(split_spec::checker(3, 2, 2), &live),
    );
    add_live(
        "FILTER",
        "k=2, contended first tree, 2 sessions",
        liveness(filter_spec::checker(tiny, &[1, 3], 2), &live),
    );
    add_live(
        "MA grid",
        "k=3, 3 procs, 1 session",
        liveness(ma_spec::checker(3, 3, &[0, 1, 2], 1), &live),
    );
    add_live(
        "chain SPLIT→MA",
        "k=2, 2 procs, 2 sessions",
        liveness(
            session::checker(split_ma_layout, &split_ma, &[3, 9], 2),
            &live,
        ),
    );
    add_live(
        "chain Theorem 11",
        "k=2, 2 procs, 1 session",
        liveness(
            session::checker(theorem11_layout, &theorem11, &[3, 9], 1),
            &live,
        ),
    );
    add_live(
        "LevelArray",
        "k=3, 3 procs, 2 sessions",
        liveness(la_spec::checker(3, &[2, 9, 77], 2), &live),
    );
    add_live(
        "small net",
        "ℓ=2, 3 procs, 1 session",
        liveness(onetime_spec::small_net_checker(2, &[0, 1, 2]), &live),
    );

    lt.finish();
}
