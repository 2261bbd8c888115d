//! E2 frontier rows: the configurations the in-RAM engines cannot hold.
//!
//! The disk-frontier backend (DESIGN.md §6) keeps the visited delta, the
//! frontier read window and the liveness CSR window under **one**
//! resident-byte budget; the BFS layers, the spanning tree and the
//! sorted visited runs all live on disk. These rows push two families
//! one size step past the `results/e2_modelcheck.csv` frontier under a
//! fixed budget the in-RAM engines demonstrably cannot meet:
//!
//! * **FILTER `k=5` over GF(11)**, partial-order reduced — one more
//!   contender and one more filter level than the largest reduced row
//!   in the main table.
//! * **splitter ℓ=4**, full interleaving graph for one initial register
//!   assignment — one level past the ℓ=3 rows.
//!
//! Both engine families stop at the same state cap on the same layer
//! boundary (`tests/engine_equivalence.rs` pins layer-identical
//! exploration), so each pair of rows is a controlled experiment: equal
//! `states`/`transitions`, wildly different `peak_resident_bytes`. A
//! `DEPTH-BOUND` verdict is a *documented deeper bound*, not a failure:
//! the row records exactly how far the exploration got and what it cost
//! ([`CheckError::StateLimit`] carries the full [`CheckStats`]).
//!
//! Written to its own CSV (`results/e2_frontier.csv`) so regenerating
//! these rows never clobbers the seed table.

use crate::common::{banner, bfs_hashed, bfs_spill, explore, por, Table};
use llr_core::filter::spec as filter_spec;
use llr_core::splitter::spec as splitter_spec;
use llr_gf::FilterParams;
use llr_mc::{CheckError, CheckStats, Engine};
use std::time::Duration;

/// The fixed resident-byte budget every spill row runs under. Sized so
/// the visited hashes *alone* of the capped exploration (16 bytes per
/// state) exceed it — the in-RAM sibling rows record the peak the
/// spill engine avoids.
const BUDGET: usize = 64 << 20;

/// State cap for the FILTER rows. The k=5 snapshots are large (S=121
/// source cells plus 88 destination trees for five contenders), so even
/// one BFS layer of them dwarfs the budget in RAM — a million states is
/// already deep enough to make the memory gap three orders of
/// magnitude, and keeps the row in the minutes on a single core.
const FILTER_CAP: usize = 1_000_000;

/// State cap for the splitter rows. Higher than the FILTER cap (the
/// states are tiny, the engine fast) but bounded: the unreduced
/// splitter graph has wide layers, and the spill engine's per-layer
/// pending set is accounted but not bounded (DESIGN.md §6) — this
/// keeps the row honestly under budget.
const SPLITTER_CAP: usize = 2_000_000;

pub fn run() {
    banner("E2 frontier — fixed-budget rows past the in-RAM ceiling");
    let mut t = Table::new(
        "e2_frontier",
        &[
            "subject",
            "invariant",
            "configuration",
            "engine",
            "state_cap",
            "states",
            "transitions",
            "wall_ms",
            "states_per_sec",
            "peak_resident_bytes",
            "budget_bytes",
            "spilled_bytes",
            "verdict",
        ],
    );
    let mut add = |subject: &str,
                   invariant: &str,
                   config: &str,
                   engine: &Engine,
                   cap: usize,
                   (res, wall): (Result<CheckStats, CheckError>, Duration)| {
        let wall_ms = format!("{:.1}", wall.as_secs_f64() * 1e3);
        let budget = if engine.spills() {
            BUDGET.to_string()
        } else {
            "-".into()
        };
        // Unlike the main E2 table, a state-limited run here still
        // reports its stats: the depth bound *is* the result.
        let (stats, verdict) = match &res {
            Ok(s) => (Some(*s), "VERIFIED"),
            Err(CheckError::StateLimit { stats, .. }) => (Some(*stats), "DEPTH-BOUND"),
            Err(CheckError::Violation(v)) => (Some(v.stats), "VIOLATED"),
            Err(CheckError::Io(_)) => (None, "IO-ERROR"),
        };
        match stats {
            Some(s) => {
                let sps = format!("{:.0}", s.states_per_sec(wall));
                let spilled = if engine.spills() {
                    s.spilled_bytes.to_string()
                } else {
                    "-".to_string()
                };
                if engine.spills() && s.peak_resident_bytes > BUDGET as u64 {
                    eprintln!(
                        "WARN: {subject} ({config}) spill peak {} exceeds budget {BUDGET}",
                        s.peak_resident_bytes
                    );
                }
                t.row(&[
                    &subject,
                    &invariant,
                    &config,
                    &engine.label(),
                    &cap,
                    &s.states,
                    &s.transitions,
                    &wall_ms,
                    &sps,
                    &s.peak_resident_bytes,
                    &budget,
                    &spilled,
                    &verdict,
                ]);
            }
            None => {
                t.row(&[
                    &subject,
                    &invariant,
                    &config,
                    &engine.label(),
                    &cap,
                    &"-",
                    &"-",
                    &wall_ms,
                    &"-",
                    &"-",
                    &budget,
                    &"-",
                    &verdict,
                ]);
            }
        }
        if let Err(e) = &res {
            if !matches!(e, CheckError::StateLimit { .. }) {
                eprintln!("{verdict} in {subject} ({config}):\n{e}");
            }
        }
    };

    // FILTER k=5 over GF(11): five contenders through four filter
    // levels. The por-safe unique-names invariant (the main table's
    // GF(7)/GF(11) reduced rows explain why block exclusion stays on
    // the full graph). The in-RAM row runs first so the CSV reads as
    // "here is the peak the budget forbids, here is the same
    // exploration under it".
    let gf11 = FilterParams::new(5, 121, 1, 11).unwrap();
    let pids: [u64; 5] = [1, 12, 23, 34, 45];
    for engine in [por(bfs_hashed()), por(bfs_spill(BUDGET))] {
        add(
            "FILTER (Fig 4)",
            "unique names (por-safe)",
            "k=5, S=121, d=1, z=11, 5 procs, 1 session",
            &engine,
            FILTER_CAP,
            explore(
                filter_spec::checker(gf11, &pids, 1),
                filter_spec::unique_names_invariant,
                &engine,
                FILTER_CAP,
            ),
        );
    }

    // Splitter ℓ=4, one quiescent initial register assignment (the
    // first of `all_inits(4)`), full interleaving graph. One level past
    // the ℓ=3 rows of the main table.
    let (init_last, init_a1, init_a2) = splitter_spec::all_inits(4)[0];
    for engine in [bfs_hashed(), bfs_spill(BUDGET)] {
        add(
            "splitter (Fig 2)",
            "each output set ≤ ℓ-1",
            "ℓ=4, 2 sessions, first initial state",
            &engine,
            SPLITTER_CAP,
            explore(
                splitter_spec::checker(4, 2, init_last, init_a1, init_a2),
                splitter_spec::output_set_invariant,
                &engine,
                SPLITTER_CAP,
            ),
        );
    }

    t.finish();
}
