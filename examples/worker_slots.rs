//! The paper's motivating scenario (§1): a Unix-like system where
//! processes carry large, sparse identifiers, but only a handful run
//! concurrently. Renaming maps whoever is currently active onto a dense
//! set of "worker slots".
//!
//! Here 32 "daemon processes" with scattered 24-bit pids contend for
//! k = 6 concurrent slots backed by a FILTER instance, behind a
//! `NameArena` that admits at most k of them at a time. Each active
//! daemon acquires a slot name, uses a slot-indexed resource (a per-slot
//! counter — something you could never array-index by raw pid), and
//! releases.
//!
//! Run with: `cargo run --release --example worker_slots`

use llr_core::arena::NameArena;
use llr_core::filter::Filter;
use llr_core::harness::Oracle;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let k = 6;
    let s: u64 = 1 << 24; // 24-bit pid space

    // FILTER parameters for S = 2^24 at k = 6, chosen automatically.
    let params = FilterParams::choose(k, s).expect("feasible parameters");
    println!(
        "parameters : d = {}, z = {}, D = {} (for S = {s}, k = {k})",
        params.degree(),
        params.modulus(),
        params.dest_size()
    );

    // 32 daemons with scattered pids register up front.
    let daemons: Vec<u64> = (0..32u64).map(|i| (i * 524_287 + 9_999) % s).collect();
    // The arena admits at most k daemons at once, per the contract.
    let slots = NameArena::new(Filter::new(params, &daemons).expect("registration"));

    // One tiny, dense, slot-indexed resource — the payoff of renaming.
    let slot_work: Vec<AtomicU64> = (0..slots.dest_size()).map(|_| AtomicU64::new(0)).collect();

    let oracle = Oracle::new(slots.dest_size());
    let max_acc = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for &pid in &daemons {
            let slots = &slots;
            let oracle = &oracle;
            let slot_work = &slot_work;
            let max_acc = &max_acc;
            scope.spawn(move || {
                let mut h = slots.client(pid);
                for _ in 0..50 {
                    let before = h.accesses();
                    let slot = h.acquire();
                    oracle.claim(slot, pid);
                    // "Use" the slot: bump its counter a few times.
                    slot_work[slot as usize].fetch_add(1, Ordering::Relaxed);
                    oracle.release_claim(slot, pid);
                    h.release();
                    max_acc.fetch_max(h.accesses() - before, Ordering::Relaxed);
                }
            });
        }
    });

    let used: Vec<(usize, u64)> = slot_work
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.load(Ordering::Relaxed)))
        .filter(|&(_, c)| c > 0)
        .collect();
    println!(
        "32 daemons × 50 sessions ran through {} distinct slots (D = {}):",
        used.len(),
        slots.dest_size()
    );
    for (slot, count) in &used {
        println!("  slot {slot:>4}: {count:>4} sessions");
    }
    println!(
        "worst acquire+release: {} shared accesses (Theorem 10 bound: {})",
        max_acc.load(Ordering::Relaxed),
        params.getname_access_bound() + params.release_access_bound()
    );
    println!("uniqueness violations: {}", oracle.violations());
    assert_eq!(oracle.violations(), 0);
}
