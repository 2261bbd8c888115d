//! Experiment driver: regenerates every table and figure of the
//! reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! ```text
//! cargo run -p llr-bench --release            # run everything
//! cargo run -p llr-bench --release -- e3 e6   # run a subset
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV under
//! `results/`.

mod common;
mod e10_soak;
mod e11_arena;
mod e12_churn;
mod e1_split;
mod e2_frontier;
mod e2_modelcheck;
mod e3_filter;
mod e4_regimes;
mod e5_chain;
mod e6_fast_vs_s;
mod e7_hashing;
mod e9_ablation;
mod histogram;

const ALL: &[(&str, &str, fn())] = &[
    (
        "e1",
        "SPLIT: D = 3^(k-1), O(k) accesses (Theorem 2)",
        e1_split::run,
    ),
    (
        "e2",
        "exhaustive model checking of all building blocks",
        e2_modelcheck::run,
    ),
    (
        "e2f",
        "frontier rows: fixed-budget disk-frontier runs past the in-RAM ceiling",
        e2_frontier::run,
    ),
    (
        "e3",
        "FILTER: D = 2zd(k-1), O(dk log S) accesses (Theorem 10)",
        e3_filter::run,
    ),
    (
        "e4",
        "the Section 4.4 parameter-regime table",
        e4_regimes::run,
    ),
    (
        "e5",
        "Theorem 11 chain to k(k+1)/2 names in O(k³)",
        e5_chain::run,
    ),
    (
        "e6",
        "fast vs not-fast: cost vs S (the headline figure)",
        e6_fast_vs_s::run,
    ),
    (
        "e7",
        "polynomial hashing: Proposition 8 and covering margins",
        e7_hashing::run,
    ),
    (
        "e9",
        "ablations: one-time vs long-lived, chain composition",
        e9_ablation::run,
    ),
    (
        "e10",
        "randomized deep-soak verification of large configurations",
        e10_soak::run,
    ),
    (
        "e11",
        "NameArena on real atomics: latency percentiles, throughput, ablations",
        e11_arena::run,
    ),
    (
        "e12",
        "crash–restart churn: fault-budget checking + arena thread churn",
        e12_churn::run,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&(&str, &str, fn())> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match ALL.iter().find(|(id, _, _)| id == a) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment '{a}'; available:");
                    for (id, what, _) in ALL {
                        eprintln!("  {id}  {what}");
                    }
                    std::process::exit(2);
                }
            }
        }
        sel
    };
    println!(
        "Long-Lived Renaming Made Fast — reproduction experiments ({} selected)",
        selected.len()
    );
    for (id, what, run) in selected {
        println!("\n=== {id}: {what} ===");
        let start = std::time::Instant::now();
        run();
        println!("[{id} done in {:.1?}]", start.elapsed());
    }
}
