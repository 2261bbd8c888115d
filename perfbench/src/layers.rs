//! Stand-alone probes of single layers, timed from outside through each
//! layer's public calls. The traced run uses them for its per-layer
//! metrics.

use crate::stats::{median, Histogram};
use llr_core::arena::NameArena;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_mc::frontier::{LayerReader, LayerWriter};
use llr_mc::SplitMix64;
use llr_mem::{AtomicMemory, Layout, Memory};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each tight-loop probe; the median is reported.
const REPEATS: usize = 5;

/// Median over [`REPEATS`] of `f`'s seconds per iteration, in ns.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let per: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

/// Cost of one `Instant::now` pair, the benchmark's own per-timing cost.
pub fn clock_ns() -> f64 {
    ns_per_iter(1 << 18, |n| {
        for _ in 0..n {
            let a = Instant::now();
            black_box(Instant::now() - a);
        }
    })
}

/// Per-call cost of each [`Memory`] method on a padded [`AtomicMemory`]
/// (the layout default), called through `&dyn Memory` as the protocols'
/// step machines call it: `(read, write, write_rel, swap)` in ns.
pub fn mem_ns() -> (f64, f64, f64, f64) {
    const REGS: usize = 64;
    const ITERS: u64 = 1 << 21;
    let mut layout = Layout::new();
    let regs = layout.array("R", REGS, 0);
    let atomic = AtomicMemory::new(&layout);
    assert!(atomic.is_padded(), "the layout default pads registers");
    let mem: &dyn Memory = black_box(&atomic);
    let loc = |i: u64| regs.at(i as usize % REGS);
    let read = ns_per_iter(ITERS, |n| {
        for i in 0..n {
            black_box(mem.read(loc(i)));
        }
    });
    let write = ns_per_iter(ITERS, |n| (0..n).for_each(|i| mem.write(loc(i), i)));
    let write_rel = ns_per_iter(ITERS, |n| (0..n).for_each(|i| mem.write_rel(loc(i), i)));
    let swap = ns_per_iter(ITERS, |n| {
        for i in 0..n {
            black_box(mem.swap(loc(i), i));
        }
    });
    (read, write, write_rel, swap)
}

/// Solo costs of one protocol instance, with and without the arena gate.
#[derive(Clone, Debug, Default)]
pub struct SoloCosts {
    /// Shared accesses of one solo acquire (exact, averaged over cycles).
    pub acquire_accesses: f64,
    /// Shared accesses of one solo release.
    pub release_accesses: f64,
    /// p50 of a bare session acquire, ns.
    pub session_acquire_ns: f64,
    /// p50 of a bare session release, ns.
    pub session_release_ns: f64,
    /// p50 of a gated (arena client) acquire + release, minus the bare
    /// session's, ns. Noise can make it slightly negative.
    pub gate_ns: f64,
    /// Cycles run.
    pub cycles: u64,
    /// Cycles whose name was out of range or not reported as held.
    pub failed: u64,
}

/// Times one handle's acquire and release, solo, for `dur`.
fn solo_cycles<H: RenamingHandle>(
    h: &mut H,
    dest: u64,
    dur: Duration,
) -> (Histogram, Histogram, u64, u64) {
    let (mut acq, mut rel) = (Histogram::new(), Histogram::new());
    let (mut cycles, mut failed) = (0u64, 0u64);
    let end = Instant::now() + dur;
    while Instant::now() < end {
        for _ in 0..256 {
            let t0 = Instant::now();
            let name = h.acquire();
            let t1 = Instant::now();
            if name >= dest || h.held() != Some(name) {
                failed += 1;
            }
            let t2 = Instant::now();
            h.release();
            let t3 = Instant::now();
            acq.record((t1 - t0).as_nanos() as u64);
            rel.record((t3 - t2).as_nanos() as u64);
            cycles += 1;
        }
    }
    (acq, rel, cycles, failed)
}

/// Solo costs of the protocol objects `fresh()` builds: exact access
/// counts, then a bare session handle, then a one-client arena gated at
/// `permits` — each on its own fresh object, each timed for `dur`.
pub fn solo_costs<R: Renaming>(
    fresh: impl Fn() -> R,
    permits: usize,
    pid: u64,
    dur: Duration,
) -> SoloCosts {
    let mut out = SoloCosts::default();

    let proto = fresh();
    let mut h = proto.handle(pid);
    const COUNTED: u64 = 1000;
    let (mut acq_acc, mut rel_acc) = (0u64, 0u64);
    for _ in 0..COUNTED {
        let a0 = h.accesses();
        h.acquire();
        let a1 = h.accesses();
        h.release();
        acq_acc += a1 - a0;
        rel_acc += h.accesses() - a1;
    }
    out.acquire_accesses = acq_acc as f64 / COUNTED as f64;
    out.release_accesses = rel_acc as f64 / COUNTED as f64;

    let proto = fresh();
    let dest = proto.dest_size();
    let (acq, rel, cycles, failed) = solo_cycles(&mut proto.handle(pid), dest, dur);
    out.session_acquire_ns = acq.quantile(0.5).expect("cycles ran");
    out.session_release_ns = rel.quantile(0.5).expect("cycles ran");
    out.cycles += cycles;
    out.failed += failed;

    let arena = NameArena::with_permits(fresh(), permits);
    let (acq, rel, cycles, failed) = solo_cycles(&mut arena.client(pid), dest, dur);
    out.gate_ns = acq.quantile(0.5).expect("cycles ran") + rel.quantile(0.5).expect("cycles ran")
        - out.session_acquire_ns
        - out.session_release_ns;
    out.cycles += cycles;
    out.failed += failed;
    out
}

/// Write and read cost of one on-disk frontier layer record of the given
/// shape, in ns per record, and whether every record read back intact.
pub fn frontier_ns(
    dir: &Path,
    words: usize,
    machines: usize,
    records: u64,
    seed: u64,
) -> std::io::Result<(f64, f64, bool)> {
    const CHUNK: usize = 4096;
    let path = dir.join("probe-layer.flr");
    let record = |i: u64| {
        let mut rng = SplitMix64::new(seed ^ i);
        let done: Vec<bool> = (0..machines).map(|_| rng.next_below(2) == 1).collect();
        let ids: Vec<u32> = (0..machines)
            .map(|_| rng.next_below(1 << 20) as u32)
            .collect();
        let snap: Vec<u64> = (0..words).map(|_| rng.next_below(8)).collect();
        (done, ids, snap)
    };
    let inputs: Vec<_> = (0..records).map(record).collect();
    let (mut writes, mut reads, mut intact) = (Vec::new(), Vec::new(), true);
    for _ in 0..3 {
        let t = Instant::now();
        let mut w = LayerWriter::create(&path, words, machines)?;
        for (i, (done, ids, snap)) in inputs.iter().enumerate() {
            w.push(i as u32, done, ids, snap)?;
        }
        w.finish()?;
        writes.push(t.elapsed().as_nanos() as f64 / records as f64);

        let t = Instant::now();
        let mut r = LayerReader::open(&path)?;
        let mut got = Vec::with_capacity(records as usize);
        while (got.len() as u64) < r.count() {
            got.extend(r.read_range(got.len() as u64, CHUNK)?);
        }
        reads.push(t.elapsed().as_nanos() as f64 / records as f64);

        intact &= got.len() as u64 == records;
        for (i, (rec, (done, ids, snap))) in got.iter().zip(&inputs).enumerate() {
            intact &= rec.id as usize == i
                && &rec.done == done
                && &rec.machine_ids == ids
                && &rec.snap == snap;
        }
    }
    std::fs::remove_file(&path)?;
    Ok((median(&writes), median(&reads), intact))
}
