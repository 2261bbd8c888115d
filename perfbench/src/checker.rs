//! The checker workloads: fixed models verified end to end, each
//! verification checked against its pinned state and transition counts.

use crate::layers;
use crate::metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{span, SpanLog, Tracer};
use crate::{Config, Report};
use llr_core::{filter, split};
use llr_gf::FilterParams;
use llr_mc::{CheckStats, Engine, ModelChecker, StepMachine, World};
use std::time::Instant;

/// Worker threads of every engine: one per core of the two-core reference
/// host.
pub const WORKERS: usize = 2;

/// The spill engine's total resident-byte budget, well under the
/// 42 MB the same reduced model peaks at in RAM.
pub const SPILL_BUDGET: usize = 16 << 20;

/// Set-ups timed on their own after the verifications; every
/// verification's own set-up adds one more sample.
const SETUP_ROUNDS: usize = 9;

/// Random walks run by each set-up as warm-up.
const WARMUP_WALKS: usize = 2000;

/// Random walks behind the traced run's per-step cost.
const STEP_WALKS: usize = 4000;

/// Step cap of one random walk (every walk of these models ends sooner).
const WALK_STEPS: usize = 100_000;

/// Frontier records written and read back by the traced run's probe.
const FRONTIER_RECORDS: u64 = 50_000;

/// Which model the workload verifies.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// SPLIT `k = 3`, 3 processes, 1 session, on the in-RAM hashed BFS.
    Bfs,
    /// FILTER `k = 3`, GF(5), pids `[1, 6, 11]`, 2 sessions, reduced by
    /// POR, on the spilling BFS with on-disk visited runs and frontier.
    PorSpill,
}

/// Pinned `(states, transitions)` of each model.
pub const BFS_PINNED: (u64, u64) = (1_255_072, 3_407_847);
/// Pinned `(states, transitions)` of the reduced FILTER model.
pub const POR_SPILL_PINNED: (u64, u64) = (605_380, 787_365);

/// A model, its invariant and its pinned counts.
struct Model<M> {
    build: fn() -> ModelChecker<M>,
    invariant: fn(&World<'_, M>) -> Result<(), String>,
    pinned: (u64, u64),
}

fn split_model() -> ModelChecker<split::spec::SplitUser> {
    split::spec::checker(3, 3, 1)
}

fn filter_model() -> ModelChecker<filter::spec::FilterUser> {
    let gf5 =
        FilterParams::new(3, 25, 1, 5).expect("k=3, S=25, d=1, z=5 is a valid FILTER instance");
    filter::spec::checker(gf5, &[1, 6, 11], 2)
}

/// Runs a checker workload.
pub fn run(kind: Kind, cfg: &Config, tracer: Option<&Tracer>) -> Report {
    let in_ram = Engine::Parallel {
        workers: WORKERS,
        hashed: true,
    };
    match kind {
        Kind::Bfs => {
            let model = Model {
                build: split_model,
                invariant: split::spec::unique_names_invariant,
                pinned: BFS_PINNED,
            };
            run_with(&model, &in_ram, None, cfg, tracer)
        }
        Kind::PorSpill => {
            let model = Model {
                build: filter_model,
                invariant: filter::spec::unique_names_invariant,
                pinned: POR_SPILL_PINNED,
            };
            let spill = Engine::Reduced(Box::new(Engine::Spill {
                dir: cfg.scratch.clone(),
                budget_bytes: SPILL_BUDGET,
                workers: WORKERS,
            }));
            let reduced_in_ram = Engine::Reduced(Box::new(in_ram));
            run_with(&model, &spill, Some(&reduced_in_ram), cfg, tracer)
        }
    }
}

/// Builds the model and warms it up with random walks: the set-up a
/// verification pays before its first timed step.
fn set_up<M: StepMachine>(model: &Model<M>, seed: u64) -> (ModelChecker<M>, f64) {
    let t = Instant::now();
    let mc = (model.build)();
    mc.random_walks(|_| Ok(()), WARMUP_WALKS, WALK_STEPS, seed)
        .expect("a walk without an invariant cannot fail");
    (mc, t.elapsed().as_secs_f64())
}

/// Wall and CPU time of one timed call.
#[derive(Clone, Copy, Debug)]
struct Timed {
    wall_s: f64,
    /// User plus system time of the whole process, every worker included.
    cpu_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (t, cpu) = (Instant::now(), crate::host::cpu_seconds());
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    (
        out,
        Timed {
            wall_s,
            cpu_s: crate::host::cpu_seconds() - cpu,
        },
    )
}

/// One timed verification, and its stats if the verdict is VERIFIED with
/// exactly the pinned counts.
fn verify<M: StepMachine + Send + Sync>(
    model: &Model<M>,
    mc: ModelChecker<M>,
    engine: &Engine,
) -> (Timed, Result<CheckStats, String>) {
    let (result, t) = timed(|| mc.check_with(engine, model.invariant));
    let checked = match result {
        Ok(s) if (s.states, s.transitions) == model.pinned => Ok(s),
        Ok(s) => Err(format!(
            "{}: {} states / {} transitions, pinned {} / {}",
            engine.label(),
            s.states,
            s.transitions,
            model.pinned.0,
            model.pinned.1
        )),
        Err(e) => Err(format!("{}: not VERIFIED: {e}", engine.label())),
    };
    (t, checked)
}

/// Checker timings are CPU time, user plus system, of the whole process.
/// On a shared host, wall time also holds the time the hypervisor ran
/// other guests (steal). Steal moved a verification's wall time by up to
/// a quarter between runs minutes apart, while its CPU time stayed within
/// 2%. Wall time is printed in the notes.
fn run_with<M: StepMachine + Send + Sync>(
    model: &Model<M>,
    engine: &Engine,
    reduced_in_ram: Option<&Engine>,
    cfg: &Config,
    tracer: Option<&Tracer>,
) -> Report {
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counts = None;
    let mut record = |engine: &Engine,
                      t: Timed,
                      r: &Result<CheckStats, String>,
                      notes: &mut Vec<String>| {
        attempted += 1;
        match r {
            Ok(s) => {
                counts = Some((s.states, s.transitions));
                notes.push(format!(
                    "{}: VERIFIED {} states, {} transitions in {:.4} s CPU, {:.4} s wall, peak resident {} B, spilled {} B",
                    engine.label(),
                    s.states,
                    s.transitions,
                    t.cpu_s,
                    t.wall_s,
                    s.peak_resident_bytes,
                    s.spilled_bytes
                ));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("FAILED {e}"));
            }
        }
    };

    if tracer.is_none() {
        let (mut setups, mut cpu, mut states) = (Vec::new(), Vec::new(), 0u64);
        let run = Instant::now();
        loop {
            let (mc, setup_s) = set_up(model, cfg.seed);
            setups.push(setup_s);
            let (t, r) = verify(model, mc, engine);
            record(engine, t, &r, &mut notes);
            states += r.map_or(0, |s| s.states);
            cpu.push(t.cpu_s);
            // Start another verification only if it fits the run.
            if run.elapsed().as_secs_f64() + t.wall_s > cfg.seconds {
                break;
            }
        }
        // More set-ups once the verifications have run, so the median is
        // taken on a busy processor like every other timing of the run,
        // not on one still waking from idle.
        setups.extend((0..SETUP_ROUNDS).map(|r| set_up(model, cfg.seed ^ (r as u64 + 1)).1));
        let mut m = Metrics::empty(END_TO_END);
        m.set("setup_s", median(&setups));
        m.set("ops_per_s", states as f64 / cpu.iter().sum::<f64>());
        m.set("latency_p50_ns", median(&cpu) * 1e9);
        m.set(
            "latency_p99_ns",
            cpu.iter().copied().fold(0.0, f64::max) * 1e9,
        );
        m.set("peak_rss_mb", crate::host::peak_rss_mb().unwrap_or(0.0));
        return Report {
            outcome: Outcome {
                correct: failed == 0,
                attempted,
                failed,
                metrics: m,
            },
            notes,
            spans: Vec::new(),
            counts,
        };
    }

    let mut log = SpanLog::new(0, 64);
    let mut m = Metrics::zeroed(PER_LAYER);
    let mut intact = None;
    span(tracer, &mut log, "bench.run", 0, |log, root| {
        m.set(
            "bench.clock_ns",
            span(tracer, log, "bench.clock", root, |_, _| layers::clock_ns()),
        );

        let mc = (model.build)();
        let (words, machines) = (mc.layout().len(), mc.machines().len());
        let step_ns = span(tracer, log, "mc.random_walks", root, |_, _| {
            let per: Vec<f64> = (0..3)
                .map(|r| {
                    let (walks, t) = timed(|| {
                        mc.random_walks(|_| Ok(()), STEP_WALKS, WALK_STEPS, cfg.seed ^ r)
                            .expect("a walk without an invariant cannot fail")
                    });
                    t.cpu_s * 1e9 / walks.transitions as f64
                })
                .collect();
            median(&per)
        });
        m.set("mc.step_ns", step_ns);

        // The same verification untraced, then inside its span: the
        // ratio of their CPU times is the tracing overhead.
        let (plain_t, plain) = verify(model, set_up(model, cfg.seed).0, engine);
        record(engine, plain_t, &plain, &mut notes);
        let (t, r) = span(tracer, log, "engine.check", root, |_, _| {
            verify(model, set_up(model, cfg.seed).0, engine)
        });
        record(engine, t, &r, &mut notes);
        m.set("bench.trace_overhead_frac", t.cpu_s / plain_t.cpu_s - 1.0);
        let Ok(stats) = r else { return };
        let states = stats.states as f64;
        m.set("engine.states", states);
        m.set("engine.transitions", stats.transitions as f64);
        m.set(
            "engine.self_ns_per_state",
            (t.cpu_s * 1e9 - step_ns * stats.transitions as f64) / states,
        );
        m.set(
            "engine.peak_resident_bytes",
            stats.peak_resident_bytes as f64,
        );
        m.set(
            "engine.resident_bytes_per_state",
            stats.peak_resident_bytes as f64 / states,
        );

        let Some(reduced_in_ram) = reduced_in_ram else {
            return;
        };
        let (ram_t, ram) = span(tracer, log, "por.check_in_ram", root, |_, _| {
            verify(model, set_up(model, cfg.seed).0, reduced_in_ram)
        });
        record(reduced_in_ram, ram_t, &ram, &mut notes);
        if let Ok(ram) = ram {
            m.set("por.states", ram.states as f64);
            m.set("por.transitions", ram.transitions as f64);
            m.set(
                "por.ram_ns_per_state",
                ram_t.cpu_s * 1e9 / ram.states as f64,
            );
            m.set("spill.self_s", t.cpu_s - ram_t.cpu_s);
        }
        m.set(
            "spill.written_bytes_per_state",
            stats.spilled_bytes as f64 / states,
        );
        m.set(
            "spill.peak_resident_bytes",
            stats.peak_resident_bytes as f64,
        );

        let probe = span(tracer, log, "frontier.probe", root, |_, _| {
            layers::frontier_ns(&cfg.scratch, words, machines, FRONTIER_RECORDS, cfg.seed)
        });
        match probe {
            Ok((write, read, ok)) => {
                m.set("frontier.write_ns_per_record", write);
                m.set("frontier.read_ns_per_record", read);
                intact = Some(ok);
                if !ok {
                    notes.push("FAILED frontier records did not read back intact".into());
                }
            }
            Err(e) => {
                intact = Some(false);
                notes.push(format!("FAILED frontier probe: {e}"));
            }
        }
    });
    // The frontier probe's read-back counts as one more checked operation.
    let attempted = attempted + u64::from(intact.is_some());
    let failed = failed + u64::from(intact == Some(false));
    Report {
        outcome: Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: m,
        },
        notes,
        spans: log.spans().to_vec(),
        counts,
    }
}
