//! E6 — the headline comparison: "fast" means cost independent of `S`.
//! Sweep the source name space at fixed `k` and watch MA climb linearly
//! while SPLIT stays constant and FILTER grows only with `⌈log S⌉`.
//!
//! Every cell is the cost of one solo acquire+release cycle by the first
//! E6 pid, so a regeneration reproduces the table exactly.

use crate::common::{banner, solo_cost, Table};
use llr_core::filter::Filter;
use llr_core::ma::MaGrid;
use llr_core::split::Split;
use llr_gf::FilterParams;

fn pids_for(s: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i * (s / (n as u64 + 1)) + 1) % s)
        .collect()
}

pub fn run() {
    banner("E6 — cost vs S at fixed k = 3 (accesses of one solo acquire+release)");
    let k = 3usize;
    let mut t = Table::new(
        "e6_fast_vs_s",
        &[
            "S",
            "MA solo acc",
            "FILTER solo acc",
            "SPLIT solo acc",
            "MA/FILTER ratio",
        ],
    );
    let mut series = Vec::new();
    for exp in [6u32, 8, 10, 12, 14, 16] {
        let s = 1u64 << exp;
        let pids = pids_for(s, k);
        let ma = solo_cost(&MaGrid::new(k, s), pids[0]);
        let params = FilterParams::choose(k, s).unwrap();
        let filter = solo_cost(&Filter::new(params, &pids).unwrap(), pids[0]);
        let split = solo_cost(&Split::new(k), pids[0]);
        let ratio = format!("{:.1}", ma as f64 / filter as f64);
        t.row(&[&s, &ma, &filter, &split, &ratio]);
        series.push((s, ma, filter, split));
    }
    t.finish();

    // A small log-scale ASCII rendition of the figure.
    println!("\n  accesses/cycle (log₂ bars): M = MA, F = FILTER, P = SPLIT");
    for (s, ma, f, sp) in series {
        let bar = |v: u64, ch: char| -> String {
            let len = (v.max(1) as f64).log2().round() as usize;
            std::iter::repeat_n(ch, len).collect()
        };
        println!(
            "  S=2^{:<2} M {:<22} {}",
            (s as f64).log2() as u32,
            bar(ma, '█'),
            ma
        );
        println!("        F {:<22} {}", bar(f, '▒'), f);
        println!("        P {:<22} {}", bar(sp, '░'), sp);
    }
    println!("\nshape check: MA doubles with S (linear scan); SPLIT flat; FILTER");
    println!("moves only with ⌈log S⌉ — the paper's definition of *fast*.");
}
