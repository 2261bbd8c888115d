//! E5 (Theorem 11): the SPLIT → FILTER → FILTER → MA chain renames any
//! 64-bit source space to `k(k+1)/2` names in `O(k³)` time.

use crate::common::{banner, Table};
use llr_core::chain::Chain;
use llr_core::harness::{stress, StressConfig};
use llr_core::traits::{Renaming, RenamingHandle};

pub fn run() {
    banner("E5 — Theorem 11 chain: any S → k(k+1)/2 in O(k³)");
    let mut t = Table::new(
        "e5_chain",
        &[
            "k",
            "funnel",
            "D=k(k+1)/2",
            "solo acc",
            "solo acc / k^3",
            "violations",
        ],
    );
    for k in 2..=6usize {
        let chain = Chain::theorem11(k).unwrap();
        let mut h = chain.handle(u64::MAX / 3);
        h.acquire();
        h.release();
        let solo = h.accesses();

        let pids: Vec<u64> = (0..k as u64).map(|i| (i + 1) * 0x1234_5678_9ABC).collect();
        let report = stress(
            &chain,
            &StressConfig {
                pids,
                concurrency: k,
                ops_per_thread: 150,
                dwell_spins: 8,
                seed: 3 * k as u64,
            },
        );
        let funnel = chain
            .funnel()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("→");
        let normalized = format!("{:.1}", solo as f64 / (k as f64).powi(3));
        t.row(&[
            &k,
            &funnel,
            &chain.dest_size(),
            &solo,
            &normalized,
            &report.violations,
        ]);
    }
    t.finish();
    println!("solo acc / k³ stays bounded: the O(k³) claim, with the MA stage's");
    println!("O(k·k²) scan of the previous stage's O(k²) names dominating.");
}
