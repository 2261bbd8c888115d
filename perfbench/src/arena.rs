//! The arena workloads: two clients in a closed loop of acquire → release
//! on one `NameArena`, with every name checked against a benchmark-side
//! ownership table.

use crate::layers;
use crate::metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{median, Histogram};
use crate::trace::{span, SpanLog, Tracer};
use crate::{Config, Report};
use llr_core::arena::NameArena;
use llr_core::levelarray::LevelArray;
use llr_core::split::Split;
use llr_core::traits::{Renaming, RenamingHandle};
use llr_mc::SplitMix64;
use llr_mem::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client threads: one per core of the two-core reference host.
pub const CLIENTS: usize = 2;

/// The untraced measurement is split into this many epochs, each with a
/// fresh arena and fresh client threads; every metric is the median over
/// epochs, so one unlucky placement of threads or registers does not set
/// the run's figure.
const EPOCHS: usize = 10;

/// Checked cycles each client runs before timing starts.
const WARMUP_CYCLES: u64 = 20_000;

/// A traced epoch records the spans of one cycle in this many.
const SPAN_EVERY: u64 = 4096;

/// Duration of each solo layer probe in a traced run.
const PROBE: Duration = Duration::from_millis(300);

/// Which arena the workload drives.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `NameArena::new(Split::new(8))`: 2 clients on 8 permits, so the
    /// gate never waits and the protocol, session and register layers do
    /// the work.
    Split,
    /// `NameArena::with_permits(LevelArray::new(4), 1)`: a 3-access
    /// protocol behind a one-permit gate, so the gate's CAS, spin, park
    /// and wake path does the work.
    Gate,
}

/// Runs an arena workload.
pub fn run(kind: Kind, cfg: &Config, tracer: Option<&Tracer>) -> Report {
    match kind {
        // SPLIT names a solo process alike whatever its pid.
        Kind::Split => run_with(
            || Split::new(8),
            8,
            client_pids(cfg.seed, |pid| pid),
            cfg,
            tracer,
        ),
        Kind::Gate => {
            let probe = LevelArray::new(4);
            let pids = client_pids(cfg.seed, |pid| solo_name(&probe, pid));
            run_with(|| LevelArray::new(4), 1, pids, cfg, tracer)
        }
    }
}

/// The name `pid` gets when it acquires alone: its home slot, for
/// protocols that hash pids to a first probe.
pub fn solo_name<R: Renaming>(proto: &R, pid: u64) -> u64 {
    let mut h = proto.handle(pid);
    let name = h.acquire();
    h.release();
    name
}

/// `CLIENTS` sparse 64-bit pids drawn from the seed, with pairwise
/// distinct `home(pid)`.
///
/// LevelArray clients that share a home slot hand one register back and
/// forth and run in a different regime than clients that do not; a quarter
/// of random pairs share one at `k = 4`. Keeping homes distinct keeps
/// every seed in the common regime, so the seed varies the pids but not
/// the workload.
pub fn client_pids(seed: u64, home: impl Fn(u64) -> u64) -> [u64; CLIENTS] {
    let mut rng = SplitMix64::new(seed);
    let (mut pids, mut homes) = ([0u64; CLIENTS], [0u64; CLIENTS]);
    for i in 0..CLIENTS {
        (pids[i], homes[i]) = loop {
            // Both protocols accept any pid below `u64::MAX`.
            let p = rng.next_u64();
            if p == u64::MAX || pids[..i].contains(&p) {
                continue;
            }
            let h = home(p);
            if !homes[..i].contains(&h) {
                break (p, h);
            }
        };
    }
    pids
}

/// Marks `name` as held by `tag`; false if it is out of range or someone
/// else still holds it.
fn claim(owners: &[CachePadded<AtomicU64>], name: u64, tag: u64) -> bool {
    owners
        .get(name as usize)
        .is_some_and(|o| o.swap(tag, Ordering::AcqRel) == 0)
}

/// Marks `name` free again; false if `tag` was not its holder.
fn unclaim(owners: &[CachePadded<AtomicU64>], name: u64, tag: u64) -> bool {
    owners
        .get(name as usize)
        .is_some_and(|o| o.swap(0, Ordering::AcqRel) == tag)
}

/// What one client thread, or a whole epoch, measured.
struct Tally {
    acquire: Histogram,
    release: Histogram,
    /// Acquires that started with no free permit (traced epochs only).
    waited: Histogram,
    /// Timed cycles.
    cycles: u64,
    /// Checked cycles, warm-up included.
    checked: u64,
    failed: u64,
    /// The timed interval; for an epoch, its slowest client's.
    elapsed: Duration,
    log: SpanLog,
}

impl Tally {
    fn new(log: SpanLog) -> Self {
        Self {
            acquire: Histogram::new(),
            release: Histogram::new(),
            waited: Histogram::new(),
            cycles: 0,
            checked: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            log,
        }
    }

    /// Adds a client's tally into an epoch's.
    fn absorb(&mut self, c: Tally) {
        self.acquire.merge(&c.acquire);
        self.release.merge(&c.release);
        self.waited.merge(&c.waited);
        self.cycles += c.cycles;
        self.checked += c.checked;
        self.failed += c.failed;
        self.elapsed = self.elapsed.max(c.elapsed);
        self.log.absorb(c.log);
    }
}

/// One epoch: a fresh arena, warmed-up clients, then timed cycles.
struct Epoch {
    setup_s: f64,
    tally: Tally,
}

/// The figures kept from an epoch once its histograms are dropped.
struct Summary {
    setup_s: f64,
    ops_per_s: f64,
    acquire_p50_ns: f64,
    acquire_p99_ns: f64,
    release_p50_ns: f64,
    cycles: u64,
    checked: u64,
    failed: u64,
}

impl Epoch {
    fn summary(&self) -> Summary {
        let t = &self.tally;
        let q = |h: &Histogram, q: f64| h.quantile(q).expect("an epoch times at least one cycle");
        Summary {
            setup_s: self.setup_s,
            ops_per_s: t.cycles as f64 / t.elapsed.as_secs_f64(),
            acquire_p50_ns: q(&t.acquire, 0.5),
            acquire_p99_ns: q(&t.acquire, 0.99),
            release_p50_ns: q(&t.release, 0.5),
            cycles: t.cycles,
            checked: t.checked,
            failed: t.failed,
        }
    }
}

impl Summary {
    fn note(&self, label: &str) -> String {
        format!(
            "{label}: setup {:.4} s, {:.0} cycles/s, acquire p50 {:.1} ns p99 {:.1} ns, release p50 {:.1} ns, {} cycles, {} failed",
            self.setup_s,
            self.ops_per_s,
            self.acquire_p50_ns,
            self.acquire_p99_ns,
            self.release_p50_ns,
            self.cycles,
            self.failed
        )
    }
}

/// One client's warm-up and timed loop. With `TRACE` it also reads the
/// gate's free permits before each acquire and records the spans of one
/// cycle in [`SPAN_EVERY`]; without it the loop carries neither.
#[allow(clippy::too_many_arguments)]
fn client<R: Renaming, const TRACE: bool>(
    arena: &NameArena<R>,
    pid: u64,
    tag: u64,
    owners: &[CachePadded<AtomicU64>],
    ready: &Barrier,
    stop: &AtomicBool,
    dur: Duration,
    trace: Option<(&Tracer, u64)>,
) -> Tally {
    let mut c = arena.client(pid);
    let capacity = if TRACE {
        (dur.as_secs_f64() * 4e6) as usize * 4 / SPAN_EVERY as usize
    } else {
        0
    };
    let mut out = Tally::new(SpanLog::new(tag as u32, capacity));
    for _ in 0..WARMUP_CYCLES {
        let name = c.acquire();
        let ok = claim(owners, name, tag) & unclaim(owners, name, tag);
        c.release();
        out.failed += u64::from(!ok);
    }
    out.checked = WARMUP_CYCLES;
    let client_span = trace.map(|(tr, _)| tr.next_id());
    ready.wait();
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let waited = TRACE && arena.free_permits() == 0;
        let t0 = Instant::now();
        let name = c.acquire();
        let t1 = Instant::now();
        let ok = claim(owners, name, tag) & unclaim(owners, name, tag);
        let t2 = Instant::now();
        c.release();
        let t3 = Instant::now();
        let acq = (t1 - t0).as_nanos() as u64;
        out.acquire.record(acq);
        out.release.record((t3 - t2).as_nanos() as u64);
        out.failed += u64::from(!ok);
        if TRACE {
            if waited {
                out.waited.record(acq);
            }
            if out.cycles.is_multiple_of(SPAN_EVERY) {
                let (tr, _) = trace.expect("a traced client has a tracer");
                let parent = client_span.expect("a traced client has a span");
                let cycle = tr.next_id();
                out.log
                    .push(tr.next_id(), cycle, "arena.acquire", tr.ns(t0), tr.ns(t1));
                out.log
                    .push(tr.next_id(), cycle, "bench.check", tr.ns(t1), tr.ns(t2));
                out.log
                    .push(tr.next_id(), cycle, "arena.release", tr.ns(t2), tr.ns(t3));
                out.log
                    .push(cycle, parent, "bench.cycle", tr.ns(t0), tr.ns(t3));
            }
        }
        out.cycles += 1;
    }
    out.elapsed = start.elapsed();
    out.checked += out.cycles;
    if let (Some((tr, parent)), Some(id)) = (trace, client_span) {
        out.log.push(
            id,
            parent,
            "bench.client",
            tr.ns(start),
            tr.ns(start + out.elapsed),
        );
    }
    out
}

/// An epoch's arena and ownership table, kept alive until the run ends.
///
/// Freeing them between epochs left the allocator holding a varying
/// number of the 400 KB SPLIT register files, so the process's peak RSS
/// differed by a third between runs; with every epoch's arena alive until
/// the end it depends only on the workload.
type Kept<R> = (Box<CachePadded<NameArena<R>>>, Vec<CachePadded<AtomicU64>>);

/// Builds a fresh arena, warms up [`CLIENTS`] clients, times `dur` of
/// cycles, and pushes the arena onto `keep`. `trace` carries the tracer
/// and the parent span when `TRACE`.
fn epoch<R: Renaming, const TRACE: bool>(
    fresh: &impl Fn() -> R,
    permits: usize,
    pids: &[u64; CLIENTS],
    dur: Duration,
    trace: Option<(&Tracer, u64)>,
    keep: &mut Vec<Kept<R>>,
) -> Epoch {
    let start = Instant::now();
    // The arena, the ownership table's slots and the stop flag each start
    // on their own cache lines. The arena's placement matters most: the
    // gate's permit counter, which both clients CAS every cycle, shares a
    // line with the protocol's fields or not depending on where the arena
    // starts within a line. On the stack that offset changed with each
    // process's address layout and moved arena-split by a quarter; a
    // line-aligned box fixes it.
    let arena = Box::new(CachePadded::new(NameArena::with_permits(fresh(), permits)));
    let owners: Vec<CachePadded<AtomicU64>> = (0..arena.dest_size())
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let ready = Barrier::new(CLIENTS + 1);
    let stop = CachePadded::new(AtomicBool::new(false));
    let e = std::thread::scope(|s| {
        let joins: Vec<_> = pids
            .iter()
            .enumerate()
            .map(|(i, &pid)| {
                let (arena, owners, ready, stop) = (&**arena, &owners[..], &ready, &*stop);
                s.spawn(move || {
                    client::<R, TRACE>(arena, pid, i as u64 + 1, owners, ready, stop, dur, trace)
                })
            })
            .collect();
        ready.wait();
        let setup_s = start.elapsed().as_secs_f64();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        let mut tally = Tally::new(SpanLog::default());
        for j in joins {
            tally.absorb(j.join().expect("an arena client panicked"));
        }
        Epoch { setup_s, tally }
    });
    keep.push((arena, owners));
    e
}

fn run_with<R: Renaming>(
    fresh: impl Fn() -> R,
    permits: usize,
    pids: [u64; CLIENTS],
    cfg: &Config,
    tracer: Option<&Tracer>,
) -> Report {
    let mut notes = Vec::new();
    let mut keep = Vec::new();

    let Some(tr) = tracer else {
        let dur = Duration::from_secs_f64(cfg.seconds / EPOCHS as f64);
        let epochs: Vec<Summary> = (0..EPOCHS)
            .map(|_| epoch::<R, false>(&fresh, permits, &pids, dur, None, &mut keep).summary())
            .collect();
        for (i, e) in epochs.iter().enumerate() {
            notes.push(e.note(&format!("epoch {i}")));
        }
        let med = |f: fn(&Summary) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
        let mut m = Metrics::empty(END_TO_END);
        m.set("setup_s", med(|e| e.setup_s));
        m.set("ops_per_s", med(|e| e.ops_per_s));
        m.set("latency_p50_ns", med(|e| e.acquire_p50_ns));
        m.set("latency_p99_ns", med(|e| e.acquire_p99_ns));
        m.set("peak_rss_mb", crate::host::peak_rss_mb().unwrap_or(0.0));
        let failed: u64 = epochs.iter().map(|e| e.failed).sum();
        return Report {
            outcome: Outcome {
                correct: failed == 0,
                attempted: epochs.iter().map(|e| e.checked).sum(),
                failed,
                metrics: m,
            },
            notes,
            spans: Vec::new(),
            counts: None,
        };
    };

    let mut log = SpanLog::new(0, 64);
    let mut m = Metrics::zeroed(PER_LAYER);
    let (mut attempted, mut failed) = (0u64, 0u64);
    span(tracer, &mut log, "bench.run", 0, |log, root| {
        let clock = span(tracer, log, "bench.clock", root, |_, _| layers::clock_ns());
        m.set("bench.clock_ns", clock);
        let (read, write, write_rel, swap) =
            span(tracer, log, "mem.probe", root, |_, _| layers::mem_ns());
        m.set("mem.read_ns", read);
        m.set("mem.write_ns", write);
        m.set("mem.write_rel_ns", write_rel);
        m.set("mem.swap_ns", swap);
        let solo = span(tracer, log, "session.probe", root, |_, _| {
            layers::solo_costs(&fresh, permits, pids[0], PROBE)
        });
        m.set("protocol.acquire_accesses", solo.acquire_accesses);
        m.set("protocol.release_accesses", solo.release_accesses);
        m.set("session.acquire_ns", solo.session_acquire_ns);
        m.set("session.release_ns", solo.session_release_ns);
        m.set(
            "session.ns_per_access",
            (solo.session_acquire_ns + solo.session_release_ns)
                / (solo.acquire_accesses + solo.release_accesses),
        );
        m.set("arena.gate_ns", solo.gate_ns);
        attempted += solo.cycles;
        failed += solo.failed;

        // Equal halves with tracing off and on: their throughput ratio is
        // the tracing overhead.
        let dur = Duration::from_secs_f64(cfg.seconds / 2.0);
        let plain = span(tracer, log, "bench.epoch.untraced", root, |_, _| {
            epoch::<R, false>(&fresh, permits, &pids, dur, None, &mut keep)
        });
        let traced = span(tracer, log, "bench.epoch.traced", root, |_, id| {
            epoch::<R, true>(&fresh, permits, &pids, dur, Some((tr, id)), &mut keep)
        });
        let (plain_sum, traced_sum) = (plain.summary(), traced.summary());
        notes.push(plain_sum.note("untraced"));
        notes.push(traced_sum.note("traced"));
        let waited = &traced.tally.waited;
        m.set(
            "arena.waited_frac",
            waited.count() as f64 / traced_sum.cycles as f64,
        );
        m.set(
            "arena.waited_acquire_p50_ns",
            waited.quantile(0.5).unwrap_or(0.0),
        );
        m.set("arena.release_p50_ns", traced_sum.release_p50_ns);
        m.set(
            "bench.trace_overhead_frac",
            plain_sum.ops_per_s / traced_sum.ops_per_s - 1.0,
        );
        attempted += plain_sum.checked + traced_sum.checked;
        failed += plain_sum.failed + traced_sum.failed;
        log.absorb(traced.tally.log);
    });
    Report {
        outcome: Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: m,
        },
        notes,
        spans: log.spans().to_vec(),
        counts: None,
    }
}
