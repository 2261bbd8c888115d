//! Integration: every protocol keeps concurrently-held names unique under
//! real multi-threaded contention, with more registered processes than
//! active ones and randomized hold times.

use llr_core::arena::NameArena;
use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::harness::{stress, StressConfig};
use llr_core::levelarray::LevelArray;
use llr_core::ma::MaGrid;
use llr_core::smallnet::RenewableNet;
use llr_core::split::Split;
use llr_core::traits::Renaming;
use llr_gf::FilterParams;

fn cfg(pids: Vec<u64>, k: usize, ops: u64, seed: u64) -> StressConfig {
    StressConfig {
        pids,
        concurrency: k,
        ops_per_thread: ops,
        dwell_spins: 32,
        seed,
    }
}

#[test]
fn split_stress_at_full_k() {
    for k in [2usize, 3, 5, 8] {
        let split = Split::new(k);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 0x9E37_79B9 + 7).collect();
        let report = stress(&split, &cfg(pids, k, 400, k as u64));
        assert_eq!(report.violations, 0, "k={k}");
        assert!(report.max_name < split.dest_size(), "k={k}");
        // Theorem 2: ≤ 9 accesses per splitter, k-1 splitters per op pair.
        assert!(
            report.max_accesses_per_op <= 9 * (k as u64 - 1),
            "k={k}: {} accesses",
            report.max_accesses_per_op
        );
    }
}

#[test]
fn split_stress_with_spectators() {
    // 12 registered processes rotate through k = 4 active slots.
    let split = Split::new(4);
    let pids: Vec<u64> = (0..12u64).map(|i| i * 1_000_003).collect();
    let report = stress(&split, &cfg(pids, 4, 150, 99));
    assert_eq!(report.violations, 0);
    assert!(report.max_name < 27);
}

#[test]
fn filter_stress_two_k_four() {
    for k in [2usize, 3, 4, 6] {
        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        let pids: Vec<u64> = (0..(2 * k as u64))
            .map(|i| (i * (s / 31) + 3) % s)
            .collect();
        let filter = Filter::new(params, &pids).unwrap();
        let report = stress(&filter, &cfg(pids, k, 120, 7 * k as u64));
        assert_eq!(report.violations, 0, "k={k}");
        assert!(report.max_name < params.dest_size(), "k={k}");
        assert!(
            report.max_accesses_per_op
                <= params.getname_access_bound() + params.release_access_bound(),
            "k={k}: {} accesses vs bound {}",
            report.max_accesses_per_op,
            params.getname_access_bound() + params.release_access_bound()
        );
    }
}

#[test]
fn filter_stress_polynomial_regime() {
    let k = 5;
    let params = FilterParams::polynomial(k, 2).unwrap();
    let s = params.source_size();
    let pids: Vec<u64> = (0..10u64).map(|i| (i * 7 + 1) % s).collect();
    let filter = Filter::new(params, &pids).unwrap();
    let report = stress(&filter, &cfg(pids, k, 150, 3));
    assert_eq!(report.violations, 0);
}

#[test]
fn ma_stress() {
    for k in [2usize, 3, 5] {
        let s = 64;
        let ma = MaGrid::new(k, s);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 13 + 1).collect();
        let report = stress(&ma, &cfg(pids, k, 200, k as u64));
        assert_eq!(report.violations, 0, "k={k}");
        assert!(report.max_name < ma.dest_size(), "k={k}");
    }
}

#[test]
fn chain_stress_theorem11() {
    let chain = Chain::theorem11(4).unwrap();
    let pids: Vec<u64> = vec![5, 1 << 40, u64::MAX - 1, 0xABCDEF, 42, 77777];
    let report = stress(&chain, &cfg(pids, 4, 60, 11));
    assert_eq!(report.violations, 0);
    assert!(report.max_name < 10); // k(k+1)/2
}

#[test]
fn chain_stress_split_ma() {
    let chain = Chain::split_ma(4).unwrap();
    let pids: Vec<u64> = (0..8u64).map(|i| i << 55 | 3).collect();
    let report = stress(&chain, &cfg(pids, 4, 80, 23));
    assert_eq!(report.violations, 0);
    assert!(report.max_name < 10);
}

#[test]
fn levelarray_stress_at_full_k() {
    for k in [2usize, 3, 5, 8] {
        let la = LevelArray::new(k);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 0x9E37_79B9 + 11).collect();
        let report = stress(&la, &cfg(pids, k, 300, k as u64 + 100));
        assert_eq!(report.violations, 0, "k={k}");
        assert!(report.max_name < la.dest_size(), "k={k}");
    }
}

#[test]
fn renewable_net_stress_with_spectators() {
    // 8 registered processes rotate through the k = 4 entry slots of a
    // generational small network.
    let net = RenewableNet::new(3);
    let pids: Vec<u64> = (0..8u64).map(|i| i * 1_000_003 + 1).collect();
    let report = stress(&net, &cfg(pids, 4, 150, 31));
    assert_eq!(report.violations, 0);
    assert!(report.max_name < net.dest_size());
}

#[test]
fn rivals_oversubscribed_through_arena() {
    // 12 client pids funneled through a k = 4 admission gate onto each
    // rival: the gate guarantees at most 4 concurrent participants, so
    // the protocols' own concurrency bounds hold even oversubscribed.
    let pids: Vec<u64> = (0..12u64).map(|i| i * 999_999_937 + 7).collect();

    let arena = NameArena::new(LevelArray::new(4));
    let report = stress(&arena, &cfg(pids.clone(), 4, 120, 53));
    assert_eq!(report.violations, 0, "arena(LevelArray)");
    assert!(report.max_name < arena.dest_size());

    let arena = NameArena::new(RenewableNet::new(3));
    let report = stress(&arena, &cfg(pids, 4, 120, 59));
    assert_eq!(report.violations, 0, "arena(RenewableNet)");
    assert!(report.max_name < arena.dest_size());
}

#[test]
fn long_run_name_recycling() {
    // One protocol object, many generations of handles: long-lived means
    // the object never wears out.
    let split = Split::new(3);
    for generation in 0..20u64 {
        let pids: Vec<u64> = (0..3u64).map(|i| generation * 1000 + i * 37).collect();
        let report = stress(&split, &cfg(pids, 3, 50, generation));
        assert_eq!(report.violations, 0, "generation {generation}");
    }
}
