//! E4 (Section 4.4): the paper's parameter-regime table — for each
//! `S`-vs-`k` relationship, the prescribed `(d, z)`, the resulting
//! destination size, and a measured solo acquisition cost.

use crate::common::{banner, Table};
use llr_core::filter::Filter;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;

fn probe(params: FilterParams) -> u64 {
    // A handful of spread-out participants; measure one uncontended
    // acquire+release.
    let s = params.source_size();
    let pids: Vec<u64> = (0..6u64).map(|i| (i * (s / 7) + 1) % s).collect();
    let filter = Filter::new(params, &pids).expect("valid instance");
    let mut h = filter.handle(pids[2]);
    h.acquire();
    h.release();
    h.accesses()
}

pub fn run() {
    banner("E4 — the Section 4.4 regime table");
    let mut t = Table::new(
        "e4_regimes",
        &[
            "regime",
            "k",
            "S",
            "d",
            "z",
            "D",
            "paper D bound",
            "time class",
            "⌈log S⌉",
            "acc bound",
            "solo acc",
        ],
    );
    for k in [4usize, 6, 8, 12, 16] {
        let kk = k as u64;
        let rows: Vec<(FilterParams, String, String)> = vec![
            (
                FilterParams::exponential_base(k, 2).unwrap(),
                format!(
                    "{}",
                    8 * kk.pow(2) * (kk - 1).pow(2) + 4 * 2 * kk * (kk - 1)
                ),
                "O(k^3)".into(),
            ),
            (
                FilterParams::exponential3(k).unwrap(),
                format!("{}", 2 * kk.pow(4) * 2),
                "O(k^3)".into(),
            ),
            (
                FilterParams::quasi_polynomial(k).unwrap(),
                format!(
                    "{}",
                    8 * kk * (kk - 1) * (kk.ilog2() as u64).pow(2).max(1) * 2
                ),
                "O(k log k)".into(),
            ),
            (
                FilterParams::polynomial(k, 2).unwrap(),
                format!("{}", 8 * 4 * (kk - 1) * (kk - 1) * 2),
                "O(k log k)".into(),
            ),
            (
                FilterParams::two_k_four(k).unwrap(),
                format!("{}", 72 * kk * kk),
                "O(k log k)".into(),
            ),
        ];
        for (params, paper_bound, time_class) in rows {
            let solo = probe(params);
            t.row(&[
                &params.regime(),
                &k,
                &params.source_size(),
                &params.degree(),
                &params.modulus(),
                &params.dest_size(),
                &paper_bound,
                &time_class,
                &params.tree_levels(),
                &(params.getname_access_bound() + params.release_access_bound()),
                &solo,
            ]);
        }
    }
    t.finish();
    println!("(paper D bound columns include a ×2 prime-gap slack, as discussed in §4.4)");
}
