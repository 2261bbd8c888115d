//! E3 (Theorem 10): FILTER's destination size `2zd(k-1)` and its access
//! bound `6d(k-1)⌈log S⌉` checks + 4 accesses per entered ME block,
//! measured solo and under full-`k` contention.

use crate::common::{banner, Table};
use llr_core::filter::Filter;
use llr_core::harness::{stress, StressConfig};
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use std::sync::atomic::{AtomicU64, Ordering};

/// Drives `k` threads of acquire/release cycles collecting FILTER's
/// Lemma 9 metrics: (max rounds any GetName needed, min level-advances in
/// any completed round).
fn lemma9_probe(filter: &Filter, pids: &[u64], ops: u64) -> (u64, Option<u64>) {
    let max_rounds = AtomicU64::new(0);
    let min_adv = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        for &pid in pids {
            let filter = &filter;
            let max_rounds = &max_rounds;
            let min_adv = &min_adv;
            scope.spawn(move || {
                let mut h = filter.handle(pid);
                for _ in 0..ops {
                    h.acquire();
                    let m = h.last_metrics().expect("metrics after acquire");
                    max_rounds.fetch_max(m.rounds, Ordering::Relaxed);
                    if m.rounds > 0 {
                        min_adv.fetch_min(m.min_round_advances, Ordering::Relaxed);
                    }
                    h.release();
                }
            });
        }
    });
    let min = min_adv.load(Ordering::Relaxed);
    (
        max_rounds.load(Ordering::Relaxed),
        (min != u64::MAX).then_some(min),
    )
}

pub fn run() {
    banner("E3 — FILTER (Theorem 10): D = 2zd(k-1), O(dk log S) accesses");
    let mut t = Table::new(
        "e3_filter",
        &[
            "k",
            "d",
            "z",
            "S",
            "D",
            "72k^2",
            "acc bound",
            "solo acc",
            "stress max acc",
            "max rounds",
            "min adv/round",
            "Lemma9 d(k-1)",
            "violations",
        ],
    );
    for k in 2..=8usize {
        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        // 2k registered participants, k concurrently active.
        let pids: Vec<u64> = (0..2 * k as u64)
            .map(|i| (i * (s / (2 * k as u64 + 1)) + 7) % s)
            .collect();
        let filter = Filter::new(params, &pids).unwrap();

        let mut h = filter.handle(pids[0]);
        h.acquire();
        h.release();
        let solo = h.accesses();

        let report = stress(
            &filter,
            &StressConfig {
                pids,
                concurrency: k,
                ops_per_thread: 400,
                dwell_spins: 16,
                seed: 31 * k as u64,
            },
        );
        let bound = params.getname_access_bound() + params.release_access_bound();
        assert!(report.max_accesses_per_op <= bound, "Theorem 10 violated");

        // Lemma 9: in every completed round a process advances in at
        // least d(k-1) trees (completed rounds only happen under real
        // contention, so probe with all k threads hammering).
        let probe_pids: Vec<u64> = (0..k as u64).map(|i| (i * 3 + 1) % s).collect();
        let lf = Filter::new(params, &probe_pids).unwrap();
        let (max_rounds, min_adv) = lemma9_probe(&lf, &probe_pids, 500);
        let guarantee = params.degree() as u64 * (k as u64 - 1);
        let min_adv_str = min_adv.map_or("(no full round)".to_string(), |v| v.to_string());
        if let Some(v) = min_adv {
            assert!(v >= guarantee, "Lemma 9 violated: {v} < {guarantee}");
        }

        t.row(&[
            &k,
            &params.degree(),
            &params.modulus(),
            &s,
            &params.dest_size(),
            &(72 * (k as u64) * (k as u64)),
            &bound,
            &solo,
            &report.max_accesses_per_op,
            &max_rounds,
            &min_adv_str,
            &guarantee,
            &report.violations,
        ]);
    }
    t.finish();
    println!("every measured maximum is within Theorem 10's bound;");
    println!("D ≤ 72k² holds in the regime's intended range (k ≥ 6).");
    println!("\"max rounds = 0\" is Lemma 9 manifesting even more strongly than");
    println!("stated: completing a round requires a failed check in EVERY tree,");
    println!("but ≥ d(k-1) of a process's 2d(k-1) trees are always uncontended,");
    println!("and an uncontended tree lets it climb straight to the root — so");
    println!("every GetName here succeeded within its first pass.");
}
