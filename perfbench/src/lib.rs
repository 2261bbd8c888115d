//! The repository's benchmark: the `NameArena` name service and the
//! `llr-mc` model checker, measured end to end and layer by layer.
//!
//! `main.rs` is the command line; everything it runs lives here so the
//! tests can drive the same code. See `README.md` beside this crate for
//! the workloads, the metrics and how to read a trace.

pub mod arena;
pub mod checker;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use trace::{Span, Tracer};

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two clients on a SPLIT `k = 8` arena; the gate never waits.
    ArenaSplit,
    /// Two clients on a one-permit LevelArray arena; the gate decides.
    ArenaGate,
    /// SPLIT `k = 3` on the in-RAM hashed BFS.
    CheckBfs,
    /// Reduced FILTER GF(5) on the spilling BFS.
    CheckPorSpill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ArenaSplit,
        Workload::ArenaGate,
        Workload::CheckBfs,
        Workload::CheckPorSpill,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArenaSplit => "arena-split",
            Workload::ArenaGate => "arena-gate",
            Workload::CheckBfs => "check-bfs",
            Workload::CheckPorSpill => "check-por-spill",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Picks the arena's client pids and the checker's walk schedules.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Existing directory for spill files, frontier probes and traces.
    pub scratch: PathBuf,
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// Checks and metrics: the result line.
    pub outcome: Outcome,
    /// Human-readable detail, one line each.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<Span>,
    /// The last verification's `(states, transitions)` (checker workloads).
    pub counts: Option<(u64, u64)>,
}

/// Runs `cfg`, tracing with `tracer` when `cfg.trace` is set.
pub fn run(cfg: &Config, tracer: &Tracer) -> Report {
    let tracer = cfg.trace.then_some(tracer);
    match cfg.workload {
        Workload::ArenaSplit => arena::run(arena::Kind::Split, cfg, tracer),
        Workload::ArenaGate => arena::run(arena::Kind::Gate, cfg, tracer),
        Workload::CheckBfs => checker::run(checker::Kind::Bfs, cfg, tracer),
        Workload::CheckPorSpill => checker::run(checker::Kind::PorSpill, cfg, tracer),
    }
}
