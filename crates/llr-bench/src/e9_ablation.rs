//! E9 (ablations): design-choice measurements that the paper discusses in
//! prose —
//!
//! * the price of *long-livedness*: the one-time grid vs SPLIT vs the full
//!   Theorem 11 chain, in shared accesses per name;
//! * chain composition: Theorem 11's FILTER middle stages vs the naive
//!   SPLIT→MA chain, showing why the intermediate compression pays as `k`
//!   grows (the MA stage scans the previous stage's name space).
//!
//! Every cell is a solo cost, so a regeneration reproduces the table
//! exactly.

use crate::common::{banner, solo_cost, Table};
use llr_core::chain::Chain;
use llr_core::onetime::OneTimeGrid;
use llr_core::split::Split;
use llr_core::tas::TasRenaming;
use llr_core::traits::Renaming;

pub fn run() {
    banner("E9 — ablations: one-time vs long-lived; chain composition");
    let mut t = Table::new(
        "e9_ablation",
        &[
            "k",
            "T&S acc (D=k)",
            "one-time acc",
            "SPLIT solo",
            "chain T11 solo",
            "chain SPLIT→MA solo",
            "D (T11)",
        ],
    );
    for k in 2..=6usize {
        let onetime = OneTimeGrid::new(k, 1 << 30);
        let (_, ot_acc) = onetime.get_name(123_456);

        let split = Split::new(k);
        let t11 = Chain::theorem11(k).unwrap();
        let split_ma = Chain::split_ma(k).unwrap();
        let tas = TasRenaming::new(k);

        t.row(&[
            &k,
            &solo_cost(&tas, 1 << 40),
            &ot_acc,
            &solo_cost(&split, 1 << 40),
            &solo_cost(&t11, 1 << 40),
            &solo_cost(&split_ma, 1 << 40),
            &t11.dest_size(),
        ]);
    }
    t.finish();
    println!("with Test&Set, a solo name among k optimal ones costs 2 accesses at every k —");
    println!(
        "the strong-primitive baseline the paper's read/write protocols are measured against."
    );
    println!("one-time names are ~k× cheaper than long-lived SPLIT names and");
    println!("orders cheaper than the full k(k+1)/2 chain — the cost of reuse.");
    println!("SPLIT→MA beats Theorem 11 at tiny k but its MA stage scans 3^(k-1)");
    println!("slots, so the FILTER middle stages win as k grows.");
}
