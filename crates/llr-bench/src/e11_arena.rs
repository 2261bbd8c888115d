//! E11 — `NameArena` on real atomics: latency percentiles, throughput,
//! and ordering/padding ablations.
//!
//! Everything here runs the production stack end to end: client threads →
//! admission gate → per-thread session reuse → `AtomicMemory` (padded
//! cells, release-ordered release-path stores). Three sub-experiments,
//! one CSV (`results/e11_arena.csv`):
//!
//! 1. **latency** — per-protocol acquire/release latency percentiles and
//!    throughput at `threads = k` (SPLIT k ∈ {2, 4, 8}, FILTER 2k=4,
//!    MA S=1024, Theorem-11 chain).
//! 2. **threads** — SPLIT k = 4 under 1–16 client threads; past `k` the
//!    gate multiplexes, which is the arena's reason to exist.
//! 3. **ablation** — SPLIT k = 4, 4 threads: default vs unpadded cells
//!    vs all-SeqCst stores (`MemPolicy`), isolating each hot-path
//!    optimization.
//!
//! Per-op timing uses `Instant::now` pairs recorded into per-thread
//! [`LogHistogram`]s merged after the run, so the measured loop stays
//! allocation-free and unsynchronized. Numbers are host-dependent; the
//! `host_cores` column records `available_parallelism` so a single-core
//! container's figures are not mistaken for a many-core machine's.

use crate::common::{banner, host_parallelism, Table};
use crate::histogram::LogHistogram;
use llr_core::arena::NameArena;
use llr_core::chain::Chain;
use llr_core::filter::Filter;
use llr_core::levelarray::LevelArray;
use llr_core::ma::MaGrid;
use llr_core::smallnet::RenewableNet;
use llr_core::split::Split;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use llr_mem::MemPolicy;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Warm-up cycles per thread before the measured phase (populates the
/// session reuse path and faults in the register file).
const WARMUP: u64 = 64;

/// Merged measurement of one arena run.
struct RunStats {
    acquire: LogHistogram,
    release: LogHistogram,
    /// Total acquire/release cycles across all threads.
    cycles: u64,
    /// Longest per-thread measured-phase wall time — the run is only as
    /// done as its slowest thread, so throughput divides by this.
    elapsed: Duration,
}

impl RunStats {
    fn ops_per_sec(&self) -> f64 {
        self.cycles as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `ops_per_thread` timed acquire/release cycles on `arena` from one
/// thread per pid (barrier-synchronized start) and merges the per-thread
/// histograms.
fn measure<R: Renaming + Sync>(
    arena: &NameArena<R>,
    pids: &[u64],
    ops_per_thread: u64,
) -> RunStats {
    let barrier = Barrier::new(pids.len());
    let mut per_thread: Vec<(LogHistogram, LogHistogram, Duration)> = Vec::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for &pid in pids {
            let arena = &arena;
            let barrier = &barrier;
            joins.push(s.spawn(move || {
                let mut c = arena.client(pid);
                let mut acq = LogHistogram::new();
                let mut rel = LogHistogram::new();
                for _ in 0..WARMUP {
                    std::hint::black_box(c.acquire());
                    c.release();
                }
                barrier.wait();
                let run_start = Instant::now();
                for _ in 0..ops_per_thread {
                    let t0 = Instant::now();
                    std::hint::black_box(c.acquire());
                    let t1 = Instant::now();
                    c.release();
                    let t2 = Instant::now();
                    acq.record((t1 - t0).as_nanos() as u64);
                    rel.record((t2 - t1).as_nanos() as u64);
                }
                (acq, rel, run_start.elapsed())
            }));
        }
        for j in joins {
            per_thread.push(j.join().expect("bench thread panicked"));
        }
    });
    let mut stats = RunStats {
        acquire: LogHistogram::new(),
        release: LogHistogram::new(),
        cycles: ops_per_thread * pids.len() as u64,
        elapsed: Duration::ZERO,
    };
    for (acq, rel, elapsed) in &per_thread {
        stats.acquire.merge(acq);
        stats.release.merge(rel);
        stats.elapsed = stats.elapsed.max(*elapsed);
    }
    stats
}

/// Distinct sparse pids for protocols with an unbounded source space.
fn sparse_pids(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3))
        .collect()
}

/// Emits one acquire row and one release row for a finished run.
/// `ops_per_sec` is full cycles per second for the whole configuration
/// (identical in both rows by design — it is a per-run figure).
#[allow(clippy::too_many_arguments)]
fn emit(
    table: &mut Table,
    experiment: &str,
    protocol: &str,
    variant: &str,
    k: usize,
    threads: usize,
    stats: &RunStats,
    host_cores: usize,
    degraded: bool,
) {
    let ops_per_sec = format!("{:.0}", stats.ops_per_sec());
    for (op, hist) in [("acquire", &stats.acquire), ("release", &stats.release)] {
        let (p50, p99, p999) = hist.percentiles();
        table.row(&[
            &experiment,
            &protocol,
            &variant,
            &k,
            &threads,
            &op,
            &hist.count(),
            &p50,
            &p99,
            &p999,
            &ops_per_sec,
            &host_cores,
            &if degraded { "yes" } else { "no" },
        ]);
    }
}

/// Runs E11 and writes `results/e11_arena.csv`.
pub fn run() {
    let (host_cores, degraded) = host_parallelism("E11");
    let mut table = Table::new(
        "e11_arena",
        &[
            "experiment",
            "protocol",
            "variant",
            "k",
            "threads",
            "op",
            "ops",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "ops_per_sec",
            "host_cores",
            "degraded",
        ],
    );

    banner("latency: per-protocol percentiles at threads = k");
    for k in [2usize, 4, 8] {
        let arena = NameArena::new(Split::new(k));
        let stats = measure(&arena, &sparse_pids(k as u64), 2_000);
        emit(
            &mut table, "latency", "split", "default", k, k, &stats, host_cores, degraded,
        );
    }
    {
        let k = 4;
        let params = FilterParams::two_k_four(k).expect("2k=4 params");
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 11 + 1).collect();
        let arena = NameArena::new(Filter::new(params, &pids).expect("filter"));
        let stats = measure(&arena, &pids, 1_000);
        emit(
            &mut table,
            "latency",
            "filter_2k4",
            "default",
            k,
            k,
            &stats,
            host_cores,
            degraded,
        );
    }
    {
        let k = 4;
        let arena = NameArena::new(MaGrid::new(k, 1024));
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 17 + 1).collect();
        let stats = measure(&arena, &pids, 2_000);
        emit(
            &mut table, "latency", "ma_s1024", "default", k, k, &stats, host_cores, degraded,
        );
    }
    {
        let k = 3;
        let arena = NameArena::new(Chain::theorem11(k).expect("theorem-11 chain"));
        let stats = measure(&arena, &sparse_pids(k as u64), 500);
        emit(
            &mut table,
            "latency",
            "chain_t11",
            "default",
            k,
            k,
            &stats,
            host_cores,
            degraded,
        );
    }
    // The rivals, head to head with the paper's protocols on the same
    // stack: LevelArray's acquire is a couple of swaps; the renewable
    // small network pays its generation rotation on the slow path.
    for k in [2usize, 4, 8] {
        let arena = NameArena::new(LevelArray::new(k));
        let stats = measure(&arena, &sparse_pids(k as u64), 2_000);
        emit(
            &mut table,
            "latency",
            "levelarray",
            "default",
            k,
            k,
            &stats,
            host_cores,
            degraded,
        );
    }
    {
        let k = 4;
        let arena = NameArena::new(RenewableNet::new(k - 1));
        let stats = measure(&arena, &sparse_pids(k as u64), 2_000);
        emit(
            &mut table,
            "latency",
            "smallnet_renew",
            "default",
            k,
            k,
            &stats,
            host_cores,
            degraded,
        );
    }

    banner("threads: SPLIT k = 4 from undersubscribed to oversubscribed");
    for threads in [1usize, 2, 4, 8, 16] {
        let arena = NameArena::new(Split::new(4));
        let stats = measure(&arena, &sparse_pids(threads as u64), 1_000);
        emit(
            &mut table, "threads", "split", "default", 4, threads, &stats, host_cores, degraded,
        );
    }

    banner("ablation: SPLIT k = 4, 4 threads, hot-path optimizations off");
    let variants: [(&str, MemPolicy); 3] = [
        ("default", MemPolicy::default()),
        // Flat (unpadded) cells: re-introduces false sharing between
        // neighbouring registers.
        (
            "unpadded",
            MemPolicy {
                padded: false,
                relaxed_release: true,
            },
        ),
        // All stores SeqCst: release-path stores lose their Release
        // relaxation and pay the full fence again.
        (
            "seqcst_only",
            MemPolicy {
                padded: true,
                relaxed_release: false,
            },
        ),
    ];
    for (variant, policy) in variants {
        let arena = NameArena::new(Split::with_mem_policy(4, policy));
        let stats = measure(&arena, &sparse_pids(4), 2_000);
        emit(
            &mut table, "ablation", "split", variant, 4, 4, &stats, host_cores, degraded,
        );
    }

    table.finish();
}
