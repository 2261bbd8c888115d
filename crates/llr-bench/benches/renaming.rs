//! Wall-clock benchmarks: acquire+release latency per protocol, solo and
//! under full-`k` thread contention.
//!
//! These complement the shared-access counts of the experiment binaries
//! (`cargo run -p llr-bench --release`): access counts are the paper's
//! complexity measure; these are what a deployment would feel.
//!
//! The workspace builds fully offline, so this is a `harness = false`
//! binary with its own small median-of-samples timer instead of criterion.
//! Run with: `cargo bench -p llr-bench`, or a subset by group-name
//! substring: `cargo bench -p llr-bench -- contended_scaling`.
//!
//! The `contended_scaling` group is the wall-clock companion of the
//! paper's throughput story: every protocol driven through the *same*
//! generic session handle (`llr_core::session::Handle`), one thread per
//! pid at full-`k` contention, swept over `k`. Its table also lands in
//! `results/bench_contended.csv` so the scaling curve is plottable
//! straight from the repo.

use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::levelarray::LevelArray;
use llr_core::ma::MaGrid;
use llr_core::onetime::OneTimeGrid;
use llr_core::smallnet::RenewableNet;
use llr_core::split::Split;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Median-of-samples nanoseconds per op for `f`, which performs `batch`
/// ops per call. One warmup call is discarded.
fn time_ns_per_op(batch: u64, samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    per_op[per_op.len() / 2]
}

fn report(group: &str, name: &str, ns: f64) {
    println!("{group:<28} {name:<24} {:>12.1} ns/op", ns);
}

fn solo_cycle<R: Renaming>(rn: &R, pid: u64) {
    let mut h = rn.handle(pid);
    std::hint::black_box(h.acquire());
    h.release();
}

/// Wall-clock for `ops` cycles spread over one contending thread per pid.
fn contended_ops<R: Renaming>(rn: &R, pids: &[u64], ops_per_thread: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for &pid in pids {
            let rn = &rn;
            scope.spawn(move || {
                let mut h = rn.handle(pid);
                for _ in 0..ops_per_thread {
                    std::hint::black_box(h.acquire());
                    h.release();
                }
            });
        }
    });
    start.elapsed()
}

const SOLO_BATCH: u64 = 2_000;
const SOLO_SAMPLES: usize = 15;

/// `results/` at the workspace root — same convention as the experiment
/// binaries' `common::results_dir` (benches are a separate crate root, so
/// the helper is duplicated rather than imported).
fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// Write a small CSV (no field ever contains a comma or quote here).
fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut text = headers.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    let path = results_dir().join(format!("{name}.csv"));
    match std::fs::write(&path, text) {
        Ok(()) => println!("  -> wrote {}", path.display()),
        Err(e) => println!("  -> could not write {}: {e}", path.display()),
    }
}

fn bench_solo() {
    for k in [2usize, 4, 8] {
        let split = Split::new(k);
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&split, 123_456_789);
            }
        });
        report("solo_acquire_release", &format!("split/{k}"), ns);

        let params = FilterParams::two_k_four(k).unwrap();
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 11 + 1).collect();
        let filter = Filter::new(params, &pids).unwrap();
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&filter, pids[0]);
            }
        });
        report("solo_acquire_release", &format!("filter_2k4/{k}"), ns);

        let ma = MaGrid::new(k, 1024);
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&ma, 512);
            }
        });
        report("solo_acquire_release", &format!("ma_s1024/{k}"), ns);

        if k <= 4 {
            let chain = Chain::theorem11(k).unwrap();
            let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
                for _ in 0..SOLO_BATCH {
                    solo_cycle(&chain, u64::MAX / 5);
                }
            });
            report("solo_acquire_release", &format!("chain_t11/{k}"), ns);
        }
    }
}

fn bench_contended() {
    const OPS: u64 = 3_000;
    for k in [2usize, 4, 8] {
        let split = Split::new(k);
        let split_pids: Vec<u64> = (0..k as u64).map(|i| i * 99_991 + 7).collect();
        let total = k as u64 * OPS;
        let ns = time_ns_per_op(total, 7, || {
            std::hint::black_box(contended_ops(&split, &split_pids, OPS));
        });
        report("contended_throughput", &format!("split/{k}"), ns);

        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        let pids: Vec<u64> = (0..k as u64)
            .map(|i| (i * (s / (k as u64 + 1)) + 1) % s)
            .collect();
        let filter = Filter::new(params, &pids).unwrap();
        let ns = time_ns_per_op(total, 7, || {
            std::hint::black_box(contended_ops(&filter, &pids, OPS));
        });
        report("contended_throughput", &format!("filter_2k4/{k}"), ns);
    }
}

/// Contended throughput vs `k` for every protocol, all driven through the
/// generic `llr_core::session::Handle` (the `Renaming::handle` path). One
/// thread per pid, each doing `OPS` acquire/release cycles; the reported
/// figure is the median wall-clock converted to aggregate ops/sec.
///
/// Besides the printed table, the sweep is persisted to
/// `results/bench_contended.csv` with one row per (protocol, k).
fn bench_contended_scaling() {
    const OPS: u64 = 1_500;
    const SAMPLES: usize = 7;

    fn measure<R: Renaming>(
        rows: &mut Vec<Vec<String>>,
        protocol: &str,
        k: usize,
        rn: &R,
        pids: &[u64],
    ) {
        let total = pids.len() as u64 * OPS;
        let ns = time_ns_per_op(total, SAMPLES, || {
            std::hint::black_box(contended_ops(rn, pids, OPS));
        });
        let ops_per_sec = 1e9 / ns * pids.len() as f64;
        report("contended_scaling", &format!("{protocol}/{k}"), ns);
        rows.push(vec![
            protocol.to_string(),
            k.to_string(),
            pids.len().to_string(),
            OPS.to_string(),
            format!("{ns:.1}"),
            format!("{ops_per_sec:.0}"),
        ]);
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    for k in [2usize, 3, 4, 6, 8] {
        let split = Split::new(k);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 99_991 + 7).collect();
        measure(&mut rows, "split", k, &split, &pids);

        let params = FilterParams::two_k_four(k).unwrap();
        let s = params.source_size();
        let pids: Vec<u64> = (0..k as u64)
            .map(|i| (i * (s / (k as u64 + 1)) + 1) % s)
            .collect();
        let filter = Filter::new(params, &pids).unwrap();
        measure(&mut rows, "filter_2k4", k, &filter, &pids);

        let ma = MaGrid::new(k, 1024);
        let pids: Vec<u64> = (0..k as u64)
            .map(|i| i * (1024 / (k as u64 + 1)) + 1)
            .collect();
        measure(&mut rows, "ma_s1024", k, &ma, &pids);

        // Construction cost grows steeply with k (the k = 8 chain takes
        // ~2 s to size its FILTER stages) but per-op cost stays in the
        // microseconds, so the sweep covers the full k range — earlier
        // revisions silently dropped chain_t11 rows past k = 4.
        let chain = Chain::theorem11(k).unwrap();
        let pids: Vec<u64> = (0..k as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3))
            .collect();
        measure(&mut rows, "chain_t11", k, &chain, &pids);

        // The rivals, same handles, same sweep: LevelArray claims with a
        // single swap per probed slot; the renewable small network
        // amortizes a fresh register file over every k one-shot walks.
        let la = LevelArray::new(k);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 1_000_003 + 11).collect();
        measure(&mut rows, "levelarray", k, &la, &pids);

        let net = RenewableNet::new(k - 1);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 99_991 + 3).collect();
        measure(&mut rows, "smallnet_renew", k, &net, &pids);
    }

    write_csv(
        "bench_contended",
        &[
            "protocol",
            "k",
            "threads",
            "ops_per_thread",
            "ns_per_op",
            "ops_per_sec",
        ],
        &rows,
    );
}

fn bench_vs_source_space() {
    // The headline figure in wall-clock form: per-op latency vs S.
    for exp in [8u32, 12, 16] {
        let s = 1u64 << exp;
        let ma = MaGrid::new(3, s);
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&ma, s / 2);
            }
        });
        report("vs_source_space_k3", &format!("ma/S=2^{exp}"), ns);
        let params = FilterParams::choose(3, s).unwrap();
        let filter = Filter::new(params, &[1, s / 2, s - 1]).unwrap();
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&filter, s / 2);
            }
        });
        report("vs_source_space_k3", &format!("filter/S=2^{exp}"), ns);
        let split = Split::new(3);
        let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
            for _ in 0..SOLO_BATCH {
                solo_cycle(&split, s / 2);
            }
        });
        report("vs_source_space_k3", &format!("split/S=2^{exp}"), ns);
    }
}

fn bench_onetime_vs_longlived() {
    // One-time names are consumed; re-create the grid outside the timed
    // region every iteration and time only get_name.
    const ITERS: u64 = 300;
    let grids: Vec<OneTimeGrid> = (0..=ITERS).map(|_| OneTimeGrid::new(4, 1 << 30)).collect();
    let next = AtomicU64::new(0);
    let ns = time_ns_per_op(1, ITERS as usize, || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        std::hint::black_box(grids[i as usize].get_name(i % (1 << 30)));
    });
    report("onetime_vs_longlived_k4", "onetime_grid", ns);
    let split = Split::new(4);
    let ns = time_ns_per_op(SOLO_BATCH, SOLO_SAMPLES, || {
        for _ in 0..SOLO_BATCH {
            solo_cycle(&split, 9);
        }
    });
    report("onetime_vs_longlived_k4", "split_longlived", ns);
}

fn bench_substrate() {
    // Raw substrate costs, to put protocol numbers in context.
    let mut layout = llr_mem::Layout::new();
    let x = layout.scalar("X", 0);
    let atomic = llr_mem::AtomicMemory::new(&layout);
    let ns = time_ns_per_op(SOLO_BATCH, 25, || {
        for _ in 0..SOLO_BATCH {
            use llr_mem::Memory;
            atomic.write(x, 1);
            std::hint::black_box(atomic.read(x));
        }
    });
    report("substrate", "atomic_write_read", ns);
    let counter = AtomicU64::new(0);
    let ns = time_ns_per_op(SOLO_BATCH, 25, || {
        for _ in 0..SOLO_BATCH {
            std::hint::black_box(counter.fetch_add(1, Ordering::SeqCst));
        }
    });
    report("substrate", "bare_fetch_add", ns);
}

fn main() {
    // `cargo bench -p llr-bench -- <substring>...` runs only the groups
    // whose name contains one of the substrings; no args runs everything.
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let wants = |group: &str| filters.is_empty() || filters.iter().any(|f| group.contains(f));

    println!("{:-<70}", "");
    println!("wall-clock benchmarks (median of samples; smaller is better)");
    println!("{:-<70}", "");
    let groups: [(&str, fn()); 6] = [
        ("solo_acquire_release", bench_solo),
        ("contended_throughput", bench_contended),
        ("contended_scaling", bench_contended_scaling),
        ("vs_source_space", bench_vs_source_space),
        ("onetime_vs_longlived", bench_onetime_vs_longlived),
        ("substrate", bench_substrate),
    ];
    let mut ran = 0;
    for (name, f) in groups {
        if wants(name) {
            f();
            ran += 1;
        }
    }
    if ran == 0 {
        println!("no group matched {filters:?}; groups are:");
        for (name, _) in groups {
            println!("  {name}");
        }
    }
}
