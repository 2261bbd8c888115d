//! Integration: the quantitative claims of every theorem, checked as
//! executable assertions across parameter sweeps.

use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::levelarray::LevelArray;
use llr_core::ma::MaGrid;
use llr_core::onetime::OneTimeGrid;
use llr_core::split::Split;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;

/// Theorem 2: SPLIT renames to exactly `3^(k-1)` names in `O(k)` time,
/// for any source name space.
#[test]
fn theorem2_split_sizes_and_costs() {
    for k in 1..=10usize {
        let split = Split::new(k);
        assert_eq!(split.dest_size(), 3u64.pow(k as u32 - 1));
        assert_eq!(split.source_size(), u64::MAX);
        // Cost is linear in k and independent of the pid used.
        for pid in [0u64, u64::MAX / 3, u64::MAX - 1] {
            let mut h = split.handle(pid);
            h.acquire();
            let acq = h.accesses();
            h.release();
            assert!(
                h.accesses() <= 9 * (k as u64).saturating_sub(1),
                "k={k} pid={pid}: {} accesses",
                h.accesses()
            );
            assert!(acq <= 7 * (k as u64).saturating_sub(1));
        }
    }
}

/// Theorem 10: FILTER renames to `2zd(k-1)` names; a `GetName` costs at
/// most `6d(k-1)⌈log S⌉` checks plus the enters.
#[test]
fn theorem10_filter_sizes_and_costs() {
    for k in 2..=6usize {
        let params = FilterParams::two_k_four(k).unwrap();
        let expected_d =
            2 * params.modulus() * params.degree() as u64 * (k as u64 - 1);
        assert_eq!(params.dest_size(), expected_d, "k={k}");

        let s = params.source_size();
        let pids: Vec<u64> = (0..k as u64).map(|i| (i * (s / 7) + 1) % s).collect();
        let filter = Filter::new(params, &pids).unwrap();
        assert_eq!(filter.dest_size(), expected_d);
        for &pid in &pids {
            let mut h = filter.handle(pid);
            h.acquire();
            assert!(
                h.accesses() <= params.getname_access_bound(),
                "k={k}: {} > {}",
                h.accesses(),
                params.getname_access_bound()
            );
            h.release();
        }
    }
}

/// Theorem 11: the chain reaches exactly `k(k+1)/2` names with cost
/// polynomial in `k` and independent of the pid.
#[test]
fn theorem11_chain_reaches_triangle() {
    for k in 1..=5usize {
        let chain = Chain::theorem11(k).unwrap();
        assert_eq!(chain.dest_size(), (k * (k + 1) / 2) as u64, "k={k}");
        let mut costs = Vec::new();
        for pid in [3u64, 1 << 60] {
            let mut h = chain.handle(pid);
            let n = h.acquire();
            assert!(n < chain.dest_size());
            h.release();
            costs.push(h.accesses());
        }
        assert_eq!(
            costs[0], costs[1],
            "k={k}: chain cost must not depend on pid magnitude"
        );
    }
}

/// The MA baseline's defining anti-property: cost grows linearly with S.
#[test]
fn ma_cost_is_linear_in_s() {
    let k = 3;
    let mut last = 0;
    for exp in 4..=9u32 {
        let s = 1u64 << exp;
        let ma = MaGrid::new(k, s);
        let mut h = ma.handle(s - 1);
        h.acquire();
        h.release();
        let cost = h.accesses();
        assert!(
            cost > last,
            "S={s}: cost {cost} did not grow past {last}"
        );
        // Solo walk: one block, about S+3 accesses.
        assert!(cost >= s, "S={s}: cost {cost} below the scan length");
        assert!(cost <= 2 * s + 16, "S={s}: cost {cost} above one block + slack");
        last = cost;
    }
}

/// SPLIT and FILTER are *fast*: their costs do not change with S.
#[test]
fn fast_protocols_flat_in_s() {
    // SPLIT has no S parameter at all; FILTER's cost depends on S only
    // through ⌈log S⌉ in the bound — measure the realized flatness for a
    // solo process.
    let k = 3;
    let mut filter_costs = Vec::new();
    for exp in [8u32, 12, 16] {
        let s = 1u64 << exp;
        let params = FilterParams::choose(k, s).unwrap();
        let filter = Filter::new(params, &[1, s / 2, s - 1]).unwrap();
        let mut h = filter.handle(1);
        h.acquire();
        h.release();
        filter_costs.push(h.accesses());
    }
    // log₂ S grows 8 → 16; the cost may double, not explode like MA's 256×.
    assert!(
        *filter_costs.last().unwrap() <= 4 * filter_costs[0],
        "filter costs {filter_costs:?} grew super-logarithmically"
    );
}

/// One-time renaming (extension): `k(k+1)/2` names in at most `4k`
/// accesses — the cheapest, but each name is consumed forever.
#[test]
fn onetime_grid_bounds() {
    for k in 1..=8usize {
        let g = OneTimeGrid::new(k, 1 << 30);
        let mut seen = std::collections::HashSet::new();
        for i in 0..k as u64 {
            let (name, acc) = g.get_name(i * 77_777 + 5);
            assert!(name < g.dest_size());
            assert!(acc <= 4 * k as u64, "k={k}: {acc} accesses");
            assert!(seen.insert(name));
        }
    }
}

/// LevelArray (arXiv:1405.5461): a **linear** name space — halving
/// levels plus a `k`-bit reserve give `D ≤ 3k + ⌈log₂ k⌉ + 1` — with a
/// solo acquire of exactly one swap (claim) and one write (release).
#[test]
fn levelarray_names_linear_in_k() {
    for k in 1..=12usize {
        let la = LevelArray::new(k);
        let log = (usize::BITS - (k - 1).leading_zeros()) as u64; // ⌈log₂ k⌉
        assert!(
            la.dest_size() <= 3 * k as u64 + log + 1,
            "k={k}: D = {} not O(k)",
            la.dest_size()
        );
        assert!(la.dest_size() >= k as u64, "k={k}: below capacity");
        // Solo cost is pid-independent: the first swap always claims on
        // an empty array (2 accesses), the release is 1 write.
        for pid in [0u64, u64::MAX / 3, u64::MAX - 1] {
            let mut h = la.handle(pid);
            let n = h.acquire();
            assert!(n < la.dest_size());
            h.release();
            assert_eq!(h.accesses(), 3, "k={k} pid={pid}");
        }
    }
}

/// Aspnes (arXiv:1011.3170): the depth-`ℓ` network reaches the same
/// `k(k+1)/2` names as the MA one-time grid with `k` fewer splitters
/// (`ℓ(ℓ+1)/2` vs `k(k+1)/2`), in at most `4ℓ` accesses.
#[test]
fn smallnet_depth_bound() {
    for ell in 0..=8usize {
        let net = OneTimeGrid::small_net(ell);
        let k = ell as u64 + 1;
        assert_eq!(net.shape().dest_size(), k * (k + 1) / 2, "ℓ={ell}");
        // Exactly k fewer splitters than the grid spends for the same D.
        assert_eq!(
            net.shape().splitter_count() as u64,
            k * (k + 1) / 2 - k,
            "ℓ={ell}"
        );
        let mut seen = std::collections::HashSet::new();
        for i in 0..k {
            let (name, acc) = net.get_name(i * 77_777 + 5);
            assert!(name < net.shape().dest_size(), "ℓ={ell}");
            assert!(acc <= 4 * ell as u64, "ℓ={ell}: {acc} accesses");
            assert!(seen.insert(name), "ℓ={ell}: duplicate {name}");
        }
    }
}

/// The name-space funnel of Section 4.4: each Theorem 11 stage's
/// destination fits in the next stage's source.
#[test]
fn funnel_stages_compose() {
    for k in 2..=5usize {
        let chain = Chain::theorem11(k).unwrap();
        let funnel = chain.funnel();
        assert_eq!(funnel.len(), 4, "k={k}");
        assert_eq!(funnel[0], 3u64.pow(k as u32 - 1));
        assert_eq!(*funnel.last().unwrap(), (k * (k + 1) / 2) as u64);
    }
}

/// Section 4.4: "applying FILTER twice yields D ∈ O(k²)" for a source
/// space polynomial in k.
#[test]
fn double_filter_compresses_to_k_squared() {
    for k in [3usize, 4, 6] {
        let s = (k as u64).pow(4);
        let chain = Chain::double_filter(k, s).unwrap();
        let funnel = chain.funnel();
        assert!(funnel[1] < funnel[0], "second FILTER must compress: {funnel:?}");
        // O(k²) with a generous constant for prime gaps at tiny k.
        assert!(
            chain.dest_size() <= 60 * (k as u64) * (k as u64),
            "k={k}: D = {} not O(k²)",
            chain.dest_size()
        );
        // And it still renames correctly.
        let mut h = chain.handle(s / 3);
        let n = h.acquire();
        assert!(n < chain.dest_size());
        h.release();
    }
}

/// Section 5 cites Herlihy–Shavit: wait-free read/write long-lived
/// renaming requires D ≥ 2k-1. Consistency check: every read/write
/// protocol here respects the bound (and the Test&Set one, which is
/// allowed to beat it, does).
#[test]
fn herlihy_shavit_lower_bound_consistency() {
    for k in 2..=8usize {
        let lb = (2 * k - 1) as u64;
        assert!(Split::new(k).dest_size() >= lb);
        assert!(MaGrid::new(k, 64).dest_size() >= lb);
        let params = FilterParams::two_k_four(k).unwrap();
        assert!(params.dest_size() >= lb);
        if k <= 5 {
            assert!(Chain::theorem11(k).unwrap().dest_size() >= lb);
        }
        // The strong-primitive baseline legitimately goes below:
        assert!(llr_core::tas::TasRenaming::new(k).dest_size() < lb);
    }
}
