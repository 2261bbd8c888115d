//! E7 (Section 4.1 / Proposition 8): the polynomial hashing facts,
//! verified numerically — pairwise intersections `≤ d` and the
//! cover-freeness margin (`≥ d(k-1)` uncontended names against any
//! `k-1` adversaries).

use crate::common::SplitMix64;
use crate::common::{banner, Table};
use llr_gf::FilterParams;

pub fn run() {
    banner("E7 — name-set hashing: ‖N_p ∩ N_q‖ ≤ d and the covering margin");
    let mut t = Table::new(
        "e7_hashing",
        &[
            "k",
            "d",
            "z",
            "|N_p|",
            "pairs checked",
            "max |N_p∩N_q|",
            "adversary sets",
            "min free names",
            "guarantee d(k-1)",
        ],
    );
    let mut rng = SplitMix64::new(0xC0FFEE);
    for k in [3usize, 4, 6, 8, 12] {
        let params = FilterParams::two_k_four(k).unwrap();
        let sets = params.name_sets();
        let s = sets.max_source_size().min(params.source_size());
        let d = params.degree();

        // Pairwise intersection bound over random pid pairs.
        let mut max_common = 0usize;
        let pairs = 4_000;
        for _ in 0..pairs {
            let p = rng.next_below(s);
            let q = rng.next_below(s);
            if p == q {
                continue;
            }
            let np: std::collections::HashSet<u64> = sets.name_set(p).into_iter().collect();
            let common = sets.name_set(q).iter().filter(|n| np.contains(n)).count();
            max_common = max_common.max(common);
        }
        assert!(max_common <= d, "Proposition 8 violated");

        // Covering margin against random (k-1)-adversary sets.
        let mut min_free = usize::MAX;
        let trials = 1_000;
        for _ in 0..trials {
            let p = rng.next_below(s);
            let mut others = Vec::new();
            while others.len() < k - 1 {
                let q = rng.next_below(s);
                if q != p && !others.contains(&q) {
                    others.push(q);
                }
            }
            let covered = sets.covered_count(p, &others);
            min_free = min_free.min(sets.names_per_process() - covered);
        }
        let guarantee = d * (k - 1);
        assert!(min_free >= guarantee, "covering guarantee violated");

        t.row(&[
            &k,
            &d,
            &params.modulus(),
            &sets.names_per_process(),
            &pairs,
            &max_common,
            &trials,
            &min_free,
            &guarantee,
        ]);
    }
    t.finish();
    println!("no sampled pair ever shares more than d names; every sampled");
    println!("adversary coalition leaves at least d(k-1) names uncontended.");
}
