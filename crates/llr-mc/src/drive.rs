//! Engine selection: one value that names an exploration backend, and one
//! entry point that routes a configured [`ModelChecker`] to it.
//!
//! There are two engines: the sequential DFS, which dedups by exact keys,
//! and one layer-synchronous parallel BFS loop, which dedups by a 128-bit
//! state hash and keeps its visited and layer stores in RAM or on disk
//! (`spill_dir`). Every choice visits exactly the same states and reports
//! identical counts — which one to use is purely a resource question.
//! Callers that want to make that choice data-driven (experiment tables,
//! the generic session drivers in `llr-core`) pass an [`Engine`] instead
//! of hard-coding a method chain.

use crate::checker::{CheckError, CheckStats, ModelChecker, World};
use crate::machine::StepMachine;
use std::path::PathBuf;

/// Which exploration backend drives a check.
///
/// ```
/// use llr_mc::{Engine, MachineStatus, ModelChecker, StepMachine};
/// use llr_mem::{Layout, Loc, Memory};
///
/// #[derive(Clone)]
/// struct Writer { x: Loc, done: bool }
/// impl StepMachine for Writer {
///     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
///         mem.write(self.x, 1);
///         self.done = true;
///         MachineStatus::Done
///     }
///     fn key(&self, out: &mut Vec<u64>) { out.push(self.done as u64); }
///     fn describe(&self) -> String { format!("done={}", self.done) }
/// }
///
/// let mut layout = Layout::new();
/// let x = layout.scalar("X", 0);
/// let machines = vec![Writer { x, done: false }, Writer { x, done: false }];
/// let seq = ModelChecker::new(layout.clone(), machines.clone())
///     .check_with(&Engine::Sequential, |_| Ok(()))
///     .unwrap();
/// let par = ModelChecker::new(layout, machines)
///     .check_with(&Engine::Parallel { workers: 2, hashed: true }, |_| Ok(()))
///     .unwrap();
/// assert_eq!(seq.states, par.states);
/// assert_eq!(seq.transitions, par.transitions);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Sequential DFS with exact dedup — the reference engine.
    Sequential,
    /// Layer-synchronous parallel BFS ([`ModelChecker::check_parallel`])
    /// on the in-RAM stores.
    Parallel {
        /// Worker threads; `0` means one per core.
        workers: usize,
        /// Must be `true`: the BFS dedups by 128-bit state hash. The one
        /// exact-dedup engine is [`Engine::Sequential`].
        hashed: bool,
    },
    /// Parallel BFS on the disk stores — the external-memory visited set
    /// **and** the on-disk frontier ([`ModelChecker::spill_dir`]): `budget_bytes`
    /// bounds total resident bytes under one budget — half goes to the
    /// not-yet-flushed visited delta (the rest lives in sorted runs on
    /// disk), a quarter to the frontier read window (layers stream
    /// through per-layer files, see [`crate::frontier`]), and for
    /// liveness checks a quarter to the reversed-edge CSR build window.
    Spill {
        /// Directory for the run, layer, and edge files.
        dir: PathBuf,
        /// Total resident-byte budget (visited delta + frontier window
        /// + CSR window share it; each slice is floored at 64 KiB).
        budget_bytes: usize,
        /// Worker threads; `0` means one per core.
        workers: usize,
    },
    /// The inner backend with partial-order reduction turned on
    /// ([`ModelChecker::por`]). Only sound for invariants over held
    /// names and done-ness — see the `por` builder docs for the exact
    /// contract.
    Reduced(Box<Engine>),
}

impl Engine {
    /// Short backend label for tables: `dfs`, `bfs+hash:4w`,
    /// `bfs+spill:4w:256MiB`, and `+por` after a reduced backend. A worker
    /// count of `0` is resolved to the core count, matching what the run
    /// will actually use.
    pub fn label(&self) -> String {
        let resolve = |w: usize| {
            if w == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                w
            }
        };
        match self {
            Engine::Sequential => "dfs".into(),
            Engine::Parallel { workers, .. } => format!("bfs+hash:{}w", resolve(*workers)),
            Engine::Spill {
                budget_bytes,
                workers,
                ..
            } => {
                format!("bfs+spill:{}w:{}MiB", resolve(*workers), budget_bytes >> 20)
            }
            Engine::Reduced(inner) => format!("{}+por", inner.label()),
        }
    }

    /// Whether the backend (or, for [`Engine::Reduced`], its inner
    /// backend) spills the visited set to disk.
    pub fn spills(&self) -> bool {
        match self {
            Engine::Spill { .. } => true,
            Engine::Reduced(inner) => inner.spills(),
            _ => false,
        }
    }
}

impl<M: StepMachine + Send + Sync> ModelChecker<M> {
    /// Verifies `invariant` in every reachable state on the backend named
    /// by `engine`. Equivalent to hand-chaining [`ModelChecker::workers`] /
    /// [`ModelChecker::spill_dir`] / [`ModelChecker::por`] and calling the
    /// matching `check*` method.
    ///
    /// # Panics
    ///
    /// Panics on `Engine::Parallel { hashed: false, .. }`: the BFS has no
    /// exact-key store, and exact dedup is [`Engine::Sequential`].
    pub fn check_with<F>(self, engine: &Engine, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        match engine {
            Engine::Sequential => self.check(invariant),
            Engine::Parallel { workers, hashed } => {
                assert!(
                    *hashed,
                    "the BFS dedups by hash only; use Engine::Sequential for exact dedup"
                );
                self.workers(*workers).check_parallel(invariant)
            }
            Engine::Spill {
                dir,
                budget_bytes,
                workers,
            } => self
                .workers(*workers)
                .spill_dir(dir.clone(), *budget_bytes)
                .check_parallel(invariant),
            Engine::Reduced(inner) => self.por(true).check_with(inner, invariant),
        }
    }
}
