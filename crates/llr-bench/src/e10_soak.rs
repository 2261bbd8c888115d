//! E10 — randomized deep-soak verification: configurations too large to
//! enumerate exhaustively, hammered with seeded random schedules while
//! checking the same invariants as E2.
//!
//! Exhaustive checking (E2) proves small configurations; this samples
//! big ones — more processes, deeper trees, more sessions — so that a
//! scale-dependent bug (e.g. an advice chain that only breaks with four
//! sequential entrants) still has a chance to surface.

use crate::common::{banner, host_parallelism, Table};
use llr_core::filter::spec as filter_spec;
use llr_core::filter::FilterShape;
use llr_core::ma::spec as ma_spec;
use llr_core::ma::MaShape;
use llr_core::split::spec as split_spec;
use llr_core::split::SplitShape;
use llr_core::splitter::spec as splitter_spec;
use llr_core::splitter::SplitterRegs;
use llr_core::tournament::spec as tree_spec;
use llr_core::tournament::TreeShape;
use llr_gf::FilterParams;
use llr_mc::{CheckStats, ModelChecker, Violation};
use llr_mem::Layout;

const WALKS: usize = 400;
const MAX_STEPS: usize = 400_000;

pub fn run() {
    banner("E10 — randomized deep-soak (seeded schedules, big configs)");
    let (host_cores, degraded) = host_parallelism("E10");
    let degraded = if degraded { "yes" } else { "no" };
    let mut t = Table::new(
        "e10_soak",
        &[
            "subject",
            "configuration",
            "walks",
            "transitions",
            "verdict",
            "host_cores",
            "degraded",
        ],
    );
    let mut add = |subject: &str, config: &str, r: Result<CheckStats, Box<Violation>>| match r {
        Ok(s) => t.row(&[
            &subject,
            &config,
            &WALKS,
            &s.transitions,
            &"PASSED",
            &host_cores,
            &degraded,
        ]),
        Err(v) => {
            t.row(&[
                &subject,
                &config,
                &WALKS,
                &"-",
                &"VIOLATED",
                &host_cores,
                &degraded,
            ]);
            eprintln!("VIOLATION in {subject} ({config}):\n{v}");
        }
    };

    // Splitter at ℓ = 6 with long sessions.
    {
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let machines: Vec<_> = (0..6u64)
            .map(|p| splitter_spec::SplitterUser::new(p, regs, 6))
            .collect();
        add(
            "splitter",
            "ℓ=6, 6 sessions",
            ModelChecker::new(layout, machines).random_walks(
                splitter_spec::output_set_invariant,
                WALKS,
                MAX_STEPS,
                0xE10,
            ),
        );
    }

    // SPLIT at k = 5, full house.
    {
        let mut layout = Layout::new();
        let shape = SplitShape::build(5, &mut layout);
        let machines: Vec<_> = (0..5u64)
            .map(|i| split_spec::SplitUser::new(shape.clone(), i * 104_729 + 3, 3))
            .collect();
        add(
            "SPLIT",
            "k=5, 5 procs, 3 sessions",
            ModelChecker::new(layout, machines).random_walks(
                split_spec::unique_names_invariant,
                WALKS,
                MAX_STEPS,
                0xE10 + 1,
            ),
        );
    }

    // Tournament tree over 64 leaves with 6 contenders.
    {
        let pids: Vec<u64> = vec![0, 1, 17, 31, 62, 63];
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", 64, &pids);
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| tree_spec::TreeUser::new(shape.clone(), p, 3))
            .collect();
        add(
            "tournament tree",
            "S=64, 6 procs, 3 sessions",
            ModelChecker::new(layout, machines).random_walks(
                tree_spec::root_exclusion,
                WALKS,
                MAX_STEPS,
                0xE10 + 2,
            ),
        );
    }

    // FILTER at k = 4 over GF(13).
    {
        let params = FilterParams::new(4, 169, 1, 13).unwrap();
        let pids: Vec<u64> = vec![3, 16, 29, 120];
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &pids, &mut layout).unwrap();
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| filter_spec::FilterUser::new(shape.clone(), p, 3))
            .collect();
        let inv = |w: &llr_mc::World<'_, filter_spec::FilterUser>| {
            filter_spec::unique_names_invariant(w)?;
            filter_spec::block_exclusion_invariant(w)
        };
        add(
            "FILTER",
            "k=4, S=169, d=1, z=13, 3 sessions",
            ModelChecker::new(layout, machines).random_walks(inv, WALKS, MAX_STEPS, 0xE10 + 3),
        );
    }

    // MA grid at k = 4, S = 16.
    {
        let pids: Vec<u64> = vec![1, 6, 11, 15];
        let mut layout = Layout::new();
        let shape = MaShape::build(4, 16, &mut layout);
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| ma_spec::MaUser::new(shape.clone(), p, 3))
            .collect();
        add(
            "MA grid",
            "k=4, S=16, 3 sessions",
            ModelChecker::new(layout, machines).random_walks(
                ma_spec::unique_names_invariant,
                WALKS,
                MAX_STEPS,
                0xE10 + 5,
            ),
        );
    }

    t.finish();
    println!("({WALKS} seeded random schedules per row; reproducible by seed)");
}
