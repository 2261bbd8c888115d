//! Engine selection: one value that names an exploration backend, its one
//! resolution into what the exploration loops read, and the one safety
//! entry point that routes a check to it.
//!
//! There are two engines: the sequential DFS, which dedups by exact keys,
//! and one layer-synchronous parallel BFS loop, which dedups by a 128-bit
//! state hash and keeps its visited and layer stores in RAM or on disk
//! ([`Engine::Spill`]). Every choice visits exactly the same states and
//! reports identical counts — which one to use is purely a resource
//! question. An [`Engine`] is the only way to make that choice, so callers
//! can make it data-driven (experiment tables, the generic session drivers
//! in `llr-core`).

use crate::checker::{CheckError, CheckStats, ModelChecker, World};
use crate::machine::StepMachine;
use crate::spill::SpillConfig;
use std::path::PathBuf;

/// Which exploration backend drives a check: the argument of
/// [`ModelChecker::check_with`] and
/// [`ModelChecker::check_always_terminable`].
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
/// let mc = ModelChecker::new(layout, vec![Writer { x, done: false }, Writer { x, done: false }]);
/// let seq = mc.check_with(&Engine::Sequential, |_| Ok(())).unwrap();
/// let par = mc
///     .check_with(&Engine::Parallel { workers: 2, hashed: true }, |_| Ok(()))
///     .unwrap();
/// assert_eq!(seq.states, par.states);
/// assert_eq!(seq.transitions, par.transitions);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Sequential DFS with exact dedup — the reference engine. It
    /// allocates once per *distinct* state (the owned key). Safety checks
    /// only: liveness has no DFS form.
    Sequential,
    /// Layer-synchronous parallel BFS on the in-RAM stores. A liveness
    /// check records the state graph's edges in RAM.
    Parallel {
        /// Worker threads; `0` means one per core. The worker count never
        /// changes which states are visited, the reported counts, or which
        /// violation is reported — only wall time.
        workers: usize,
        /// Must be `true`: the BFS dedups by 128-bit state hash. The one
        /// exact-dedup engine is [`Engine::Sequential`]; `false` is
        /// rejected with a panic wherever the engine is run or labelled.
        hashed: bool,
    },
    /// Parallel BFS on the disk stores: the visited set and the layers
    /// spill to disk under `dir`, and the tracked resident bytes stay
    /// within `budget_bytes` in total.
    ///
    /// Dedup is by 128-bit state hash, as in RAM. Recently discovered
    /// hashes stay in an in-RAM delta, and whenever the delta exceeds its
    /// half of the budget it is flushed as one sorted run per shard. Every
    /// layer's candidate states are joined against the on-disk runs, read
    /// in blocks, so states, transitions, terminal counts and any
    /// violation (message *and* schedule) are **bit-for-bit identical** to
    /// the in-RAM engine at every worker count — only the memory ceiling
    /// moves. A unique subdirectory is created under `dir` and removed
    /// when the exploration finishes.
    ///
    /// `budget_bytes` is **one budget for every disk-backed structure** of
    /// the run: half of it bounds the visited-set delta (floored at the
    /// 64 KiB flush granularity) and a quarter bounds the frontier read
    /// window — the BFS frontier itself lives in per-layer files (the
    /// [`frontier`](crate::frontier) module) and is expanded one bounded
    /// chunk at a time, and the spanning-tree parents live in an
    /// append-only log walked from disk when a schedule is needed. What
    /// stays in RAM and is *accounted but not bounded* by the budget: the
    /// per-layer pending set (≈48 bytes per candidate, proportional to one
    /// layer's discoveries) and the two pools (proportional to the
    /// per-position machine and register-block diversity, not to states).
    /// [`CheckStats::peak_resident_bytes`] reports the deterministic
    /// per-layer peak over all of these.
    ///
    /// For [`ModelChecker::check_always_terminable`] the forward pass keeps
    /// its visited set and layers in RAM and streams the edge list to disk,
    /// and the backward marking runs over an on-disk reversed-edge CSR
    /// whose build window is the last quarter of the budget, instead of
    /// holding the flat edge vectors in RAM.
    ///
    /// A zero budget clamps to the 64 KiB flush floor and still reproduces
    /// the in-RAM counts exactly:
    ///
    /// ```
    /// use llr_mc::{Engine, MachineStatus, ModelChecker, StepMachine};
    /// use llr_mem::{Layout, Loc, Memory};
    ///
    /// #[derive(Clone)]
    /// struct Count { x: Loc, left: u8 }
    /// impl StepMachine for Count {
    ///     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
    ///         mem.write(self.x, self.left as u64);
    ///         self.left -= 1;
    ///         if self.left == 0 { MachineStatus::Done } else { MachineStatus::Running }
    ///     }
    ///     fn key(&self, out: &mut Vec<u64>) { out.push(self.left as u64); }
    ///     fn describe(&self) -> String { format!("left={}", self.left) }
    /// }
    ///
    /// let mut layout = Layout::new();
    /// let x = layout.scalar("X", 0);
    /// let mc = ModelChecker::new(layout, vec![Count { x, left: 3 }, Count { x, left: 3 }]);
    /// let in_ram = mc
    ///     .check_with(&Engine::Parallel { workers: 1, hashed: true }, |_| Ok(()))
    ///     .unwrap();
    /// let spill = Engine::Spill { dir: std::env::temp_dir(), budget_bytes: 0, workers: 1 };
    /// let spilled = mc.check_with(&spill, |_| Ok(())).unwrap();
    /// assert_eq!(spilled.states, in_ram.states);
    /// assert_eq!(spilled.transitions, in_ram.transitions);
    /// ```
    Spill {
        /// Directory for the run, layer, and edge files.
        dir: PathBuf,
        /// Total resident-byte budget (visited delta + frontier window
        /// + CSR window share it; each slice is floored at 64 KiB).
        budget_bytes: usize,
        /// Worker threads; `0` means one per core.
        workers: usize,
    },
    /// The inner backend with partial-order reduction turned on: at states
    /// where one machine's next step is declared (via
    /// [`StepMachine::footprint`]), invisible, and independent of
    /// everything the other running machines may still do, only that step
    /// is explored.
    ///
    /// This can shrink the explored state count by orders of magnitude for
    /// protocols whose processes mostly work on disjoint registers (the
    /// FILTER family), while preserving:
    ///
    /// * **safety verdicts** for invariants over *invariant-observable*
    ///   state — held names and done flags (uniqueness, exclusion). If the
    ///   invariant fails anywhere in the full graph, the reduced search
    ///   reports a violation too (possibly via a different, Mazurkiewicz-
    ///   equivalent schedule);
    /// * **terminal states** — exactly the same all-done states (and count)
    ///   are reached, so renaming outcomes are unaffected;
    /// * [`check_always_terminable`](ModelChecker::check_always_terminable)
    ///   — the reduction keeps singleton-or-full successor sets with the
    ///   cycle proviso, which preserves the always-terminable verdict.
    ///
    /// It is **not** sound for invariants that read raw register contents
    /// (e.g. a deadlock predicate over memory words): reduced-away states
    /// differ from visited ones in register values. Keep it off for those.
    ///
    /// Composes with every backend. Under reduction the two breadth-first
    /// backends (in-RAM and spill) visit bit-for-bit the same states at
    /// every worker count and budget; the DFS applies the cycle proviso in
    /// its own visit order, so it may settle on a different (equally
    /// sound) reduced subset — verdicts and terminal states still agree.
    /// `tests/por_equivalence.rs` pins all of this differentially.
    Reduced(Box<Engine>),
}

/// An [`Engine`] resolved into what the exploration loops read.
pub(crate) struct Run {
    /// Whether partial-order reduction may pick ample singletons.
    pub(crate) por: bool,
    /// The breadth-first loop's worker threads, with `0` resolved to the
    /// core count; `None` selects the sequential DFS.
    pub(crate) workers: Option<usize>,
    /// The disk stores' directory and budget, if the engine spills.
    pub(crate) spill: Option<SpillConfig>,
}

impl Engine {
    /// Resolves the engine into reduction on or off, a worker count and
    /// the disk stores: the one place a worker count of `0` becomes the
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics on `Engine::Parallel { hashed: false, .. }`: the BFS has no
    /// exact-key store, and exact dedup is [`Engine::Sequential`].
    pub(crate) fn resolve(&self) -> Run {
        let cores = |w: usize| match w {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            w => w,
        };
        match self {
            Engine::Sequential => Run {
                por: false,
                workers: None,
                spill: None,
            },
            Engine::Parallel { workers, hashed } => {
                assert!(
                    *hashed,
                    "the BFS dedups by hash only; use Engine::Sequential for exact dedup"
                );
                Run {
                    por: false,
                    workers: Some(cores(*workers)),
                    spill: None,
                }
            }
            Engine::Spill {
                dir,
                budget_bytes,
                workers,
            } => Run {
                por: false,
                workers: Some(cores(*workers)),
                spill: Some(SpillConfig {
                    dir: dir.clone(),
                    budget_bytes: *budget_bytes,
                }),
            },
            Engine::Reduced(inner) => Run {
                por: true,
                ..inner.resolve()
            },
        }
    }

    /// Short backend label for tables: `dfs`, `bfs+hash:4w`,
    /// `bfs+spill:4w:256MiB`, and `+por` after a reduced backend. The
    /// budget is written in the largest of MiB, KiB and B that divides it
    /// exactly (`256KiB`, `0MiB`). A worker count of `0` is resolved to
    /// the core count, matching what the run will actually use.
    pub fn label(&self) -> String {
        let run = self.resolve();
        let backend = match (run.workers, &run.spill) {
            (None, _) => "dfs".to_string(),
            (Some(w), None) => format!("bfs+hash:{w}w"),
            (Some(w), Some(cfg)) => match cfg.budget_bytes {
                b if b % (1 << 20) == 0 => format!("bfs+spill:{w}w:{}MiB", b >> 20),
                b if b % (1 << 10) == 0 => format!("bfs+spill:{w}w:{}KiB", b >> 10),
                b => format!("bfs+spill:{w}w:{b}B"),
            },
        };
        if run.por {
            backend + "+por"
        } else {
            backend
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
    /// Verifies `invariant` in every reachable state (including the
    /// initial one) on the backend named by `engine`. The checker is
    /// borrowed, so a caller can replay or shrink a reported violation on
    /// it afterwards.
    ///
    /// Every engine visits the same states and reports identical `states`,
    /// `transitions` and `terminal_states`; `max_depth` is the longest DFS
    /// path on [`Engine::Sequential`] and the number of breadth-first
    /// layers on the others. The breadth-first engines dedup by a 128-bit
    /// state hash (collision odds about `n²/2¹²⁹` over `n` states);
    /// [`Engine::Sequential`] is the exact-key engine the equivalence
    /// suites compare them with. Their violation reporting is
    /// deterministic for every worker count and store: state ids follow
    /// the layered `(parent, via)` order, and the first violating id's
    /// spanning-tree schedule is returned.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Violation`] with a replayable schedule if the
    /// invariant fails, [`CheckError::StateLimit`] if the configured
    /// state bound is exceeded before the search completes, or
    /// [`CheckError::Io`] if the disk stores hit an I/O error.
    ///
    /// # Panics
    ///
    /// Panics on `Engine::Parallel { hashed: false, .. }`: the BFS has no
    /// exact-key store, and exact dedup is [`Engine::Sequential`].
    pub fn check_with<F>(&self, engine: &Engine, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let run = engine.resolve();
        match run.workers {
            None => self.dfs(run.por, invariant),
            Some(_) => self.bfs(&run, invariant),
        }
    }
}
