//! DFS state-space exploration with memoization, replay and random walks.
//!
//! This module holds the checker configuration, the sequential DFS
//! engine (the fallback that the parallel frontier engine in
//! [`crate::engine`] is checked against), and the shared state-key
//! machinery: a reusable [`KeyBuilder`] so the hot path performs no
//! per-transition allocation, and an incremental 128-bit hash for the
//! memory-lean dedup mode.

use crate::por::AmpleCtx;
use crate::rng::SplitMix64;
use crate::spill::SpillConfig;
use crate::StepMachine;
use llr_mem::{Layout, Loc, Memory as _, SimMemory, Word};
use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;

/// Schedule-entry encoding of crash transitions: entry `i` with
/// `i < CRASH_SCHEDULE_BASE` steps machine `i`, entry
/// `CRASH_SCHEDULE_BASE + i` crashes machine `i`
/// ([`StepMachine::crash_restart`]) and decrements the fault budget
/// register installed by [`ModelChecker::faults`]. With the fault model
/// enabled, worlds are limited to `CRASH_SCHEDULE_BASE` machines so the
/// two ranges cannot collide.
pub const CRASH_SCHEDULE_BASE: usize = 128;

/// A read-only view of one global state, handed to invariant closures.
#[derive(Debug)]
pub struct World<'a, M> {
    /// The shared registers in this state.
    pub mem: &'a SimMemory,
    /// Every machine's local state.
    pub machines: &'a [M],
    /// `done[i]` is true iff machine `i` has finished its workload.
    pub done: &'a [bool],
}

impl<M> World<'_, M> {
    /// `true` iff every machine has finished (a terminal state).
    pub fn all_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }
}

/// Statistics from a successful exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct global states visited.
    pub states: u64,
    /// Transitions (machine steps) taken, including ones leading to
    /// already-visited states.
    pub transitions: u64,
    /// Depth of the exploration: the longest schedule prefix on the DFS
    /// path ([`ModelChecker::check`]) or the number of breadth-first
    /// layers ([`ModelChecker::check_parallel`]). The two engines agree
    /// on `states`, `transitions` and `terminal_states` but not on this
    /// field.
    pub max_depth: usize,
    /// States in which every machine was done.
    pub terminal_states: u64,
    /// Peak tracked bytes resident in the engine's own data structures
    /// (visited set, frontier materializations, spanning-tree parents).
    ///
    /// Only the parallel breadth-first loop accounts for this
    /// ([`ModelChecker::check_parallel`], with or without spilling), and a
    /// run that stops early charges the layer it was draining; the
    /// sequential DFS reports `0`. The figure is a deterministic lower
    /// bound on real memory use: it counts payload bytes and ignores
    /// allocator and hash-table overhead, so it is reproducible across
    /// hosts (unlike an RSS sample) and is what the E2 table records.
    pub peak_resident_bytes: u64,
    /// Total bytes written to disk under [`ModelChecker::spill_dir`]: the
    /// visited set's sorted runs (including compaction rewrites), the
    /// layer and candidate files, the parent log, and — for liveness
    /// checks — the edge log and predecessor file. `0` for the purely
    /// in-RAM engines.
    pub spilled_bytes: u64,
}

impl CheckStats {
    /// Exploration throughput for a run that took `wall` time, in states
    /// per second (the E2 driver records this next to `wall_ms`).
    pub fn states_per_sec(&self, wall: std::time::Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.states as f64 / secs
    }
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth ≤ {}, {} terminal",
            self.states, self.transitions, self.max_depth, self.terminal_states
        )
    }
}

/// An invariant violation, with everything needed to reproduce it.
#[derive(Debug)]
pub struct Violation {
    /// The invariant's error message.
    pub message: String,
    /// The machine indices, in order, whose steps reach the bad state.
    pub schedule: Vec<usize>,
    /// A human-readable replay of the schedule (one line per step).
    pub trace: String,
    /// Statistics gathered up to the point of the violation.
    pub stats: CheckStats,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.message)?;
        writeln!(f, "schedule: {:?}", self.schedule)?;
        write!(f, "{}", self.trace)
    }
}

impl std::error::Error for Violation {}

/// Errors produced by [`ModelChecker::check`].
#[derive(Debug)]
pub enum CheckError {
    /// An invariant failed in a reachable state.
    Violation(Box<Violation>),
    /// The state space exceeded the configured bound; nothing was proven.
    StateLimit {
        /// The configured maximum number of states.
        limit: usize,
        /// Statistics gathered up to the bound — the explored prefix is a
        /// genuine (if partial) search, so `states`, `transitions` and
        /// `peak_resident_bytes` document the depth reached under the
        /// configured budget.
        stats: CheckStats,
    },
    /// The spilling visited set ([`ModelChecker::spill_dir`]) hit an I/O
    /// error; the exploration is incomplete and nothing was proven.
    Io(std::io::Error),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => write!(f, "{v}"),
            CheckError::StateLimit { limit, .. } => {
                write!(f, "state limit of {limit} states exceeded")
            }
            CheckError::Io(e) => write!(f, "spill I/O error: {e}"),
        }
    }
}

impl From<std::io::Error> for CheckError {
    fn from(e: std::io::Error) -> Self {
        CheckError::Io(e)
    }
}

impl std::error::Error for CheckError {}

impl CheckError {
    /// Returns the violation, panicking on any other error.
    ///
    /// # Panics
    ///
    /// Panics if this error is [`CheckError::StateLimit`] or
    /// [`CheckError::Io`].
    pub fn unwrap_violation(self) -> Box<Violation> {
        match self {
            CheckError::Violation(v) => v,
            CheckError::StateLimit { limit, .. } => {
                panic!("expected a violation but hit the state limit ({limit})")
            }
            CheckError::Io(e) => panic!("expected a violation but hit an I/O error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// State keys
// ---------------------------------------------------------------------------

/// Reusable scratch buffers for canonical state keys.
///
/// A state key is `registers ++ (done_i, machine_i key, u64::MAX)*` — the
/// `u64::MAX` separator guards against ambiguous concatenation of
/// variable-length machine keys.
///
/// The buffer is reused across calls: after warm-up, building a key
/// allocates nothing.
#[derive(Default)]
pub(crate) struct KeyBuilder {
    buf: Vec<u64>,
}

impl KeyBuilder {
    /// Builds the key for the state `(mem, machines, done)`, with machine
    /// `i` replaced by `(m, d)` when `replace = Some((i, m, d))` — the hot
    /// path steps a single cloned machine and never materializes the full
    /// successor machine vector for already-visited states.
    pub(crate) fn build<M: StepMachine>(
        &mut self,
        mem: &SimMemory,
        machines: &[M],
        done: &[bool],
        replace: Option<(usize, &M, bool)>,
    ) -> &[u64] {
        self.buf.clear();
        mem.snapshot_append(&mut self.buf);
        for j in 0..machines.len() {
            let (m, d) = match replace {
                Some((i, m, d)) if i == j => (m, d),
                _ => (&machines[j], done[j]),
            };
            self.buf.push(u64::from(d));
            m.key(&mut self.buf);
            self.buf.push(u64::MAX);
        }
        &self.buf
    }
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    // The SplitMix64 finalizer: full avalanche in two multiplies.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental 128-bit state-key hash: two independently-seeded
/// mix-chained 64-bit lanes over the key words. A collision would
/// silently merge two states; with `n` states the probability is about
/// `n²/2¹²⁹` (< 10⁻²⁴ for 10⁸ states), which the large configurations
/// accept — CI-sized runs use exact dedup.
pub(crate) fn hash128(key: &[u64]) -> u128 {
    let mut h1: u64 = 0x243F_6A88_85A3_08D3; // first 64 fractional bits of π
    let mut h2: u64 = 0x1319_8A2E_0370_7344; // next 64
    for &w in key {
        h1 = mix64(h1 ^ w);
        h2 = mix64(h2 ^ w.rotate_left(32));
    }
    // Fold the length in so prefix keys cannot collide trivially.
    h1 = mix64(h1 ^ key.len() as u64);
    h2 = mix64(h2 ^ (key.len() as u64).rotate_left(32));
    ((h1 as u128) << 64) | h2 as u128
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Frame<M> {
    mem: Vec<Word>,
    machines: Vec<M>,
    done: Vec<bool>,
    /// Next machine index to try stepping from this state.
    next: usize,
    /// Which machine's step produced this state (usize::MAX for the root).
    via: usize,
    /// Whether the ample-set decision has been made for this state (POR).
    decided: bool,
    /// The chosen ample machine, not yet stepped (POR).
    ample_pending: bool,
    /// Index of the chosen ample machine when `ample_pending`.
    ample_idx: usize,
    /// On ample fallback (cycle proviso), the machine already stepped from
    /// this state; the full-expansion cursor skips it. `usize::MAX` = none.
    skip: usize,
}

/// Explores every interleaving of a set of [`StepMachine`]s over a shared
/// register file and checks invariants in each reachable state.
///
/// Two complete-exploration engines are available:
///
/// * [`check`](Self::check) — sequential depth-first search;
/// * [`check_parallel`](Self::check_parallel) — breadth-first frontier
///   exploration over [`workers`](Self::workers) threads, with its stores
///   in RAM or on disk ([`spill_dir`](Self::spill_dir)).
///
/// Both visit exactly the same set of states and report identical
/// `states`/`transitions`/`terminal_states` counts.
///
/// See the crate docs for a full example.
pub struct ModelChecker<M> {
    layout: Layout,
    machines: Vec<M>,
    max_states: usize,
    hashed_dedup: bool,
    workers: usize,
    spill: Option<SpillConfig>,
    por: bool,
    faults_loc: Option<Loc>,
}

impl<M: StepMachine> ModelChecker<M> {
    /// Creates a checker over `machines` sharing a register file initialized
    /// from `layout`.
    pub fn new(layout: Layout, machines: Vec<M>) -> Self {
        Self {
            layout,
            machines,
            max_states: 20_000_000,
            hashed_dedup: false,
            workers: 1,
            spill: None,
            por: false,
            faults_loc: None,
        }
    }

    /// The register-file layout the checker's runs start from.
    ///
    /// Exposed so harnesses can replay the same configuration on other
    /// [`Memory`](llr_mem::Memory) backends (e.g. the differential
    /// SimMemory-vs-AtomicMemory tests).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The machines in their initial states.
    pub fn machines(&self) -> &[M] {
        &self.machines
    }

    /// Sets the maximum number of distinct states to explore before giving
    /// up with [`CheckError::StateLimit`] (default: 20 million).
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Deduplicate visited states by a 128-bit hash instead of the full
    /// state vector.
    ///
    /// This reduces memory by an order of magnitude for large runs. A hash
    /// collision would silently prune a reachable state; with a 128-bit
    /// hash and `n` states the collision probability is about `n²/2¹²⁹`
    /// (< 10⁻²⁴ for 10⁸ states), which we accept for the large
    /// configurations; the CI-sized runs use exact dedup.
    pub fn hashed_dedup(mut self, on: bool) -> Self {
        self.hashed_dedup = on;
        self
    }

    /// Enables partial-order reduction: at states where one machine's next
    /// step is declared (via [`StepMachine::footprint`]), invisible, and
    /// independent of everything the other running machines may still do,
    /// only that step is explored.
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
    /// * [`check_always_terminable`](Self::check_always_terminable) — the
    ///   reduction keeps singleton-or-full successor sets with the cycle
    ///   proviso, which preserves the always-terminable verdict.
    ///
    /// It is **not** sound for invariants that read raw register contents
    /// (e.g. a deadlock predicate over memory words): reduced-away states
    /// differ from visited ones in register values. Keep it off for those.
    ///
    /// Off by default. Composes with every engine ([`check`](Self::check),
    /// [`check_parallel`](Self::check_parallel), and the
    /// [`spill_dir`](Self::spill_dir) backend). Under reduction the two
    /// breadth-first backends (in-RAM and spill) visit bit-for-bit the
    /// same states at every worker count and budget; the DFS applies the
    /// cycle proviso in its own visit order, so it may settle on a
    /// different (equally sound) reduced subset — verdicts and terminal
    /// states still agree. `tests/por_equivalence.rs` pins all of this
    /// differentially.
    pub fn por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Enables the crash–restart fault model with a budget of `f` crashes
    /// across the whole execution.
    ///
    /// While budget remains, every state gets — next to each runnable
    /// machine's ordinary step — one extra *crash transition* per machine
    /// reporting [`StepMachine::can_crash`]: the machine's
    /// [`crash_restart`](StepMachine::crash_restart) runs (local teardown
    /// only; the shared registers keep the torn values the process had
    /// written) and the budget drops by one. Exhausted budget restores
    /// the fault-free transition relation, so `faults(0)` checks exactly
    /// the original state space.
    ///
    /// The budget lives in a hidden shared register (`⚡CRASH_BUDGET`,
    /// appended to the layout), so it participates in state keys,
    /// snapshots, and traces for free — two states differing only in
    /// remaining budget are distinct, which keeps all three engines
    /// ([`check`](Self::check), [`check_parallel`](Self::check_parallel),
    /// with or without [`spill_dir`](Self::spill_dir)) sound and mutually
    /// byte-identical under faults. Crash transitions appear in
    /// [`Violation::schedule`]s as entries `≥` [`CRASH_SCHEDULE_BASE`]
    /// and are replayed by [`run_schedule`](Self::run_schedule) /
    /// [`render_trace`](Self::render_trace).
    ///
    /// Composes with partial-order reduction ([`por`](Self::por)): states
    /// with remaining budget are always fully expanded (a crash is a
    /// visible transition that commutes with nothing of its own machine),
    /// and reduction resumes once the budget is spent.
    ///
    /// # Panics
    ///
    /// The engines assert `machines.len() ≤ CRASH_SCHEDULE_BASE` when the
    /// fault model is on (the crash encoding shares the schedule-entry
    /// byte with machine indices).
    pub fn faults(mut self, f: u64) -> Self {
        match self.faults_loc {
            Some(loc) => self.layout.set_initial(loc, f),
            None => {
                if f > 0 {
                    self.faults_loc = Some(self.layout.scalar("⚡CRASH_BUDGET", f));
                }
            }
        }
        self
    }

    /// Spill the visited set and the breadth-first layers to disk under
    /// `dir`, keeping the tracked resident bytes within `budget_bytes` in
    /// total: half of it bounds the not-yet-flushed state hashes.
    ///
    /// This selects the disk stores of
    /// [`check_parallel`](Self::check_parallel)'s loop (the `spill`
    /// module): dedup is by 128-bit state hash (as if
    /// [`hashed_dedup`](Self::hashed_dedup) were set), recently
    /// discovered hashes stay in an in-RAM delta, and whenever the delta
    /// exceeds its half of the budget it is flushed as one sorted run per
    /// shard.
    /// Every layer's candidate states are merge-joined against the
    /// on-disk runs, so states, transitions, terminal counts and any
    /// violation (message *and* schedule) are **bit-for-bit identical**
    /// to the in-RAM engines at every worker count — only the memory
    /// ceiling moves. A unique subdirectory is created under `dir` and
    /// removed when the exploration finishes.
    ///
    /// `budget_bytes` is **one budget for every disk-backed structure**
    /// of the run: half of it bounds the visited-set delta (floored at
    /// the 64 KiB flush granularity) and a quarter bounds the frontier
    /// read window — the BFS frontier itself lives in per-layer files
    /// (the [`frontier`](crate::frontier) module) and is expanded one
    /// bounded chunk at a time, and the spanning-tree parents live in an
    /// append-only log walked from disk when a schedule is needed. What
    /// stays in RAM and is *accounted but not bounded* by the budget:
    /// the per-layer pending set (≈48 bytes per candidate, proportional
    /// to one layer's discoveries, one to two orders of magnitude below
    /// the retired per-state frontier payload) and the per-slot machine
    /// intern pool (proportional to slot-local machine diversity, not to
    /// states). [`CheckStats::peak_resident_bytes`] reports the
    /// deterministic per-layer peak over all of these.
    ///
    /// Ignored by [`check`](Self::check) (sequential DFS). For
    /// [`check_always_terminable`](Self::check_always_terminable) the
    /// forward pass streams the edge list to disk and the backward
    /// marking runs over an on-disk reversed-edge CSR whose build window
    /// gets the same quarter-budget, instead of holding the flat edge
    /// vectors in RAM.
    ///
    /// # Example
    ///
    /// A zero budget clamps to the 64 KiB flush floor and still
    /// reproduces the in-RAM counts exactly:
    ///
    /// ```
    /// use llr_mc::{MachineStatus, ModelChecker, StepMachine};
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
    /// let machines = vec![Count { x, left: 3 }, Count { x, left: 3 }];
    /// let in_ram = ModelChecker::new(layout.clone(), machines.clone())
    ///     .check_parallel(|_| Ok(()))
    ///     .unwrap();
    /// let spilled = ModelChecker::new(layout, machines)
    ///     .spill_dir(std::env::temp_dir(), 0)
    ///     .check_parallel(|_| Ok(()))
    ///     .unwrap();
    /// assert_eq!(spilled.states, in_ram.states);
    /// assert_eq!(spilled.transitions, in_ram.transitions);
    /// ```
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>, budget_bytes: usize) -> Self {
        self.spill = Some(SpillConfig {
            dir: dir.into(),
            budget_bytes,
        });
        self
    }

    /// Number of worker threads [`check_parallel`](Self::check_parallel)
    /// and [`check_always_terminable`](Self::check_always_terminable) use.
    ///
    /// `0` means "one per available core". The default is `1`
    /// (sequential). Worker count never changes which states are visited,
    /// the reported counts, or which violation is reported — only wall
    /// time.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// The configured worker count with `0` resolved to the core count.
    pub(crate) fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        }
    }

    /// The configured state budget.
    pub(crate) fn state_limit(&self) -> usize {
        self.max_states
    }

    /// Whether hashed dedup is enabled.
    pub(crate) fn hashed(&self) -> bool {
        self.hashed_dedup
    }

    /// The spill configuration, if the external-memory backend is on.
    pub(crate) fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
    }

    /// Whether partial-order reduction is enabled.
    pub(crate) fn por_on(&self) -> bool {
        self.por
    }

    /// The hidden fault-budget register, if [`faults`](Self::faults)
    /// installed one with a nonzero budget.
    pub(crate) fn crash_loc(&self) -> Option<Loc> {
        self.faults_loc
    }

    /// Exhaustively explores the state space depth-first, checking
    /// `invariant` in every reachable state (including the initial one).
    ///
    /// The hot path is allocation-free: state keys are built in a reusable
    /// `KeyBuilder`, only one machine is cloned per transition, and
    /// popped DFS frames are pooled and recycled. Exact dedup allocates
    /// once per *distinct* state (the owned key); hashed dedup
    /// ([`hashed_dedup`](Self::hashed_dedup)) stores a 16-byte hash
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Violation`] with a replayable schedule if the
    /// invariant fails, or [`CheckError::StateLimit`] if the configured
    /// state bound is exceeded before the search completes.
    pub fn check<F>(&self, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        if self.faults_loc.is_some() {
            assert!(
                self.machines.len() <= CRASH_SCHEDULE_BASE,
                "the crash–restart fault model supports at most {CRASH_SCHEDULE_BASE} machines"
            );
        }
        let mem = SimMemory::new(&self.layout);
        let mut stats = CheckStats::default();
        let mut visited_exact: HashSet<Box<[u64]>> = HashSet::new();
        let mut visited_hash: HashSet<u128> = HashSet::new();
        let mut kb = KeyBuilder::default();

        let done0 = vec![false; self.machines.len()];
        {
            let key0 = kb.build(&mem, &self.machines, &done0, None);
            if self.hashed_dedup {
                visited_hash.insert(hash128(key0));
            } else {
                visited_exact.insert(key0.into());
            }
        }
        stats.states = 1;
        if done0.iter().all(|&d| d) {
            stats.terminal_states += 1;
        }
        let world = World {
            mem: &mem,
            machines: &self.machines,
            done: &done0,
        };
        if let Err(message) = invariant(&world) {
            return Err(CheckError::Violation(Box::new(Violation {
                message,
                schedule: vec![],
                trace: "(violated in the initial state)".into(),
                stats,
            })));
        }

        let mut stack: Vec<Frame<M>> = vec![Frame {
            mem: mem.snapshot(),
            machines: self.machines.clone(),
            done: done0,
            next: 0,
            via: usize::MAX,
            decided: false,
            ample_pending: false,
            ample_idx: 0,
            skip: usize::MAX,
        }];
        // Recycled frames: their Vec allocations are reused by clone_from /
        // snapshot_into, so steady-state exploration stops allocating.
        let mut pool: Vec<Frame<M>> = Vec::new();
        let mut ample = AmpleCtx::new();

        loop {
            let depth = stack.len();
            let Some(top) = stack.last_mut() else { break };
            let n = top.machines.len();
            // Remaining crash budget in this state (0 when the fault model
            // is off). While budget remains, POR is disabled for the state
            // (a crash transition is visible and does not commute with its
            // machine's own step) and the cursor extends to a second range
            // of crash transitions, one per crashable machine.
            let budget = self.faults_loc.map_or(0, |l| top.mem[l.index()]);
            if self.por && budget == 0 && !top.decided {
                top.decided = true;
                if let Some(a) = ample.choose(&top.machines, &top.done) {
                    top.ample_idx = a;
                    top.ample_pending = true;
                }
            }
            // Pick the transition: the pending ample singleton, or the next
            // untried cursor position — `0..n` are ordinary steps of
            // not-done, not-skipped machines; `n..2n` (budget permitting)
            // are crash transitions of not-done, crashable machines.
            let limit = if budget > 0 { 2 * n } else { n };
            let ample_attempt = top.ample_pending;
            let i = if ample_attempt {
                top.ample_pending = false;
                top.ample_idx
            } else {
                let mut i = top.next;
                loop {
                    if i >= limit {
                        break;
                    }
                    if i < n {
                        if !top.done[i] && i != top.skip {
                            break;
                        }
                    } else if !top.done[i - n] && top.machines[i - n].can_crash() {
                        break;
                    }
                    i += 1;
                }
                if i >= limit {
                    let spent = stack.pop().expect("stack is nonempty");
                    pool.push(spent);
                    continue;
                }
                top.next = i + 1;
                i
            };

            mem.restore(&top.mem);
            // The machine slot acted on and the schedule-entry encoding.
            let (slot, via) = if i < n { (i, i) } else { (i - n, i - n + CRASH_SCHEDULE_BASE) };
            let mut mi = top.machines[slot].clone();
            let done_i = if i < n {
                mi.step(&mem).is_done()
            } else {
                let loc = self.faults_loc.expect("crash cursor range requires a fault budget");
                mem.write(loc, budget - 1);
                mi.crash_restart().is_done()
            };
            stats.transitions += 1;

            let key = kb.build(&mem, &top.machines, &top.done, Some((slot, &mi, done_i)));
            let fresh = if self.hashed_dedup {
                visited_hash.insert(hash128(key))
            } else if visited_exact.contains(key) {
                false
            } else {
                visited_exact.insert(key.into())
            };
            if ample_attempt {
                if fresh {
                    // The ample singleton is this state's only branch.
                    top.next = top.machines.len();
                } else {
                    // Cycle proviso: the ample successor was already visited
                    // (possibly down the current DFS path), so the singleton
                    // could defer a conflicting step forever around a cycle.
                    // Expand fully, skipping the step just taken.
                    top.skip = i;
                }
            }
            if !fresh {
                continue;
            }
            stats.states += 1;
            stats.max_depth = stats.max_depth.max(depth);

            let mut frame = pool.pop().unwrap_or_else(|| Frame {
                mem: Vec::new(),
                machines: Vec::new(),
                done: Vec::new(),
                next: 0,
                via: 0,
                decided: false,
                ample_pending: false,
                ample_idx: 0,
                skip: usize::MAX,
            });
            mem.snapshot_into(&mut frame.mem);
            frame.machines.clone_from(&top.machines);
            frame.machines[slot] = mi;
            frame.done.clear();
            frame.done.extend_from_slice(&top.done);
            frame.done[slot] = done_i;
            frame.next = 0;
            frame.via = via;
            frame.decided = false;
            frame.ample_pending = false;
            frame.skip = usize::MAX;

            let terminal = frame.done.iter().all(|&d| d);
            if terminal {
                stats.terminal_states += 1;
            }
            if stats.states as usize > self.max_states {
                return Err(CheckError::StateLimit {
                    limit: self.max_states,
                    stats,
                });
            }

            let world = World {
                mem: &mem,
                machines: &frame.machines,
                done: &frame.done,
            };
            if let Err(message) = invariant(&world) {
                let mut schedule: Vec<usize> =
                    stack.iter().map(|f| f.via).filter(|&v| v != usize::MAX).collect();
                schedule.push(via);
                let trace = self.render_trace(&schedule);
                return Err(CheckError::Violation(Box::new(Violation {
                    message,
                    schedule,
                    trace,
                    stats,
                })));
            }

            stack.push(frame);
        }

        Ok(stats)
    }

    /// Splits a schedule entry into `(machine index, is_crash)`. Crash
    /// entries ([`CRASH_SCHEDULE_BASE`]` + i`) only exist when the fault
    /// model is on; without it every entry is a plain machine index.
    fn decode_entry(&self, e: usize) -> (usize, bool) {
        if self.faults_loc.is_some() && e >= CRASH_SCHEDULE_BASE {
            (e - CRASH_SCHEDULE_BASE, true)
        } else {
            (e, false)
        }
    }

    /// Applies one decoded schedule entry to a replay world: an ordinary
    /// step, or a crash (budget decrement + [`StepMachine::crash_restart`]).
    fn apply_entry(&self, i: usize, crash: bool, mem: &SimMemory, machines: &mut [M]) -> bool {
        if crash {
            let loc = self.faults_loc.expect("crash entry without a fault budget");
            let left = mem.read(loc);
            mem.write(loc, left.saturating_sub(1));
            machines[i].crash_restart().is_done()
        } else {
            machines[i].step(mem).is_done()
        }
    }

    /// Replays a schedule (a sequence of machine indices, with crash
    /// entries encoded as [`CRASH_SCHEDULE_BASE`]` + i`) from the initial
    /// state, returning the final memory and machines.
    ///
    /// Steps scheduling a machine that is already done are skipped.
    pub fn run_schedule(&self, schedule: &[usize]) -> (SimMemory, Vec<M>, Vec<bool>) {
        let mem = SimMemory::new(&self.layout);
        let mut machines = self.machines.clone();
        let mut done = vec![false; machines.len()];
        for &e in schedule {
            let (i, crash) = self.decode_entry(e);
            if done[i] {
                continue;
            }
            if self.apply_entry(i, crash, &mem, &mut machines) {
                done[i] = true;
            }
        }
        (mem, machines, done)
    }

    /// Renders a schedule as a step-by-step human-readable trace.
    pub fn render_trace(&self, schedule: &[usize]) -> String {
        use std::fmt::Write as _;
        let mem = SimMemory::new(&self.layout);
        let mut machines = self.machines.clone();
        let mut done = vec![false; machines.len()];
        let mut out = String::new();
        let _ = writeln!(out, "  init: {}", self.layout.dump(&mem.snapshot()));
        for (n, &e) in schedule.iter().enumerate() {
            let (i, crash) = self.decode_entry(e);
            if done[i] {
                let _ = writeln!(out, "  #{n:<3} p{i}: (already done, skipped)");
                continue;
            }
            let before = mem.snapshot();
            if self.apply_entry(i, crash, &mem, &mut machines) {
                done[i] = true;
            }
            let after = mem.snapshot();
            let delta: Vec<String> = before
                .iter()
                .zip(&after)
                .enumerate()
                .filter(|(_, (b, a))| b != a)
                .map(|(r, (_, a))| {
                    format!("{}←{}", self.layout.name_of(llr_mem::Loc(r as u32)), a)
                })
                .collect();
            let _ = writeln!(
                out,
                "  #{n:<3} p{i}{}: {} {}",
                if crash { " CRASH" } else { "" },
                machines[i].describe(),
                if delta.is_empty() {
                    String::new()
                } else {
                    format!("| {}", delta.join(" "))
                }
            );
        }
        let _ = writeln!(out, "  final: {}", self.layout.dump(&mem.snapshot()));
        out
    }

    /// Runs `walks` random schedules (seeded, hence reproducible), checking
    /// `invariant` after every step.
    ///
    /// Each walk steps uniformly-random running machines until all machines
    /// are done or `max_steps` is reached. This does not prove anything but
    /// scales to configurations exhaustive search cannot reach.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] (with the offending schedule) if the
    /// invariant ever fails.
    pub fn random_walks<F>(
        &self,
        invariant: F,
        walks: usize,
        max_steps: usize,
        seed: u64,
    ) -> Result<CheckStats, Box<Violation>>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let mut stats = CheckStats::default();
        for w in 0..walks {
            let mut rng =
                SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mem = SimMemory::new(&self.layout);
            let mut machines = self.machines.clone();
            let mut done = vec![false; machines.len()];
            let mut schedule = Vec::new();
            for _ in 0..max_steps {
                let running: Vec<usize> =
                    (0..machines.len()).filter(|&i| !done[i]).collect();
                if running.is_empty() {
                    stats.terminal_states += 1;
                    break;
                }
                let i = running[rng.next_index(running.len())];
                schedule.push(i);
                if machines[i].step(&mem).is_done() {
                    done[i] = true;
                }
                stats.transitions += 1;
                let world = World {
                    mem: &mem,
                    machines: &machines,
                    done: &done,
                };
                if let Err(message) = invariant(&world) {
                    let trace = self.render_trace(&schedule);
                    return Err(Box::new(Violation {
                        message,
                        schedule,
                        trace,
                        stats,
                    }));
                }
            }
            stats.max_depth = stats.max_depth.max(schedule.len());
        }
        Ok(stats)
    }

    /// Bounded-fairness liveness check: steps the machines round-robin
    /// (skipping finished ones) and requires all of them to finish within
    /// `max_steps` total steps.
    ///
    /// # Errors
    ///
    /// Returns the indices of the machines still running if the budget is
    /// exhausted — evidence of a livelock or an unexpectedly large bound.
    pub fn round_robin(&self, max_steps: u64) -> Result<u64, Vec<usize>> {
        let mem = SimMemory::new(&self.layout);
        let mut machines = self.machines.clone();
        let mut done = vec![false; machines.len()];
        let mut steps = 0u64;
        while steps < max_steps {
            let mut progressed = false;
            for i in 0..machines.len() {
                if done[i] {
                    continue;
                }
                progressed = true;
                if machines[i].step(&mem).is_done() {
                    done[i] = true;
                }
                steps += 1;
            }
            if !progressed {
                return Ok(steps);
            }
        }
        let stuck: Vec<usize> = (0..machines.len()).filter(|&i| !done[i]).collect();
        if stuck.is_empty() {
            Ok(steps)
        } else {
            Err(stuck)
        }
    }
}

impl<M: StepMachine> ModelChecker<M> {
    /// Shrinks a violating schedule to a locally-minimal one: repeatedly
    /// deletes single steps (and then maximal chunks) while the shortened
    /// schedule still violates `invariant` at its end state or anywhere
    /// along the way.
    ///
    /// DFS counterexamples are often cluttered with irrelevant steps by
    /// unrelated machines; a shrunk schedule reads like a proof sketch.
    pub fn shrink_schedule<F>(&self, schedule: &[usize], invariant: F) -> Vec<usize>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let violates = |candidate: &[usize]| -> bool {
            let mem = SimMemory::new(&self.layout);
            let mut machines = self.machines.clone();
            let mut done = vec![false; machines.len()];
            for &e in candidate {
                let (i, crash) = self.decode_entry(e);
                if done[i] {
                    continue;
                }
                if self.apply_entry(i, crash, &mem, &mut machines) {
                    done[i] = true;
                }
                let world = World {
                    mem: &mem,
                    machines: &machines,
                    done: &done,
                };
                if invariant(&world).is_err() {
                    return true;
                }
            }
            false
        };
        assert!(
            violates(schedule),
            "shrink_schedule needs a schedule that actually violates the invariant"
        );

        let mut current: Vec<usize> = schedule.to_vec();
        // Chunked delta-debugging: try removing runs of decreasing size.
        let mut chunk = current.len().div_ceil(2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let mut candidate = current.clone();
                candidate.drain(start..end);
                if violates(&candidate) {
                    current = candidate;
                    // retry the same position (indices shifted left)
                } else {
                    start += 1;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        current
    }
}
