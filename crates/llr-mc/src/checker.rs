//! DFS state-space exploration with memoization, replay and random walks.
//!
//! This module holds the checker configuration, the sequential DFS
//! engine ([`Engine::Sequential`](crate::Engine::Sequential), the one
//! exact-dedup engine, the reference that the breadth-first loop in
//! [`crate::engine`] is checked against), and the
//! shared state-key machinery: a reusable [`KeyBuilder`] so the hot path
//! performs no per-transition allocation, and the 128-bit digests
//! ([`Hash128`]) the breadth-first loop hashes states from. Both engines
//! and replay take their moves from [`crate::relation`].

use crate::por::AmpleCtx;
use crate::relation::{Plan, Relation, Replay};
use crate::rng::SplitMix64;
use crate::StepMachine;
use llr_mem::{Layout, Loc, SimMemory, Word};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Schedule-entry encoding of crash transitions: entry `i` with
/// `i < CRASH_SCHEDULE_BASE` steps machine `i`, entry
/// `CRASH_SCHEDULE_BASE + i` crashes machine `i`
/// ([`StepMachine::crash_restart`]) and decrements the fault budget
/// register installed by [`ModelChecker::faults`]. Every engine writes
/// crashes this way, and replay ([`ModelChecker::run_schedule`]) reads
/// them back through the same transition relation. Without the fault
/// model every entry is a step. With it, worlds are limited to
/// `CRASH_SCHEDULE_BASE` machines so the two ranges cannot collide.
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
    /// path ([`Engine::Sequential`](crate::Engine::Sequential)) or the
    /// number of breadth-first layers (every other engine). The two
    /// engines agree on `states`, `transitions` and `terminal_states` but
    /// not on this field.
    pub max_depth: usize,
    /// States in which every machine was done.
    pub terminal_states: u64,
    /// Peak tracked bytes resident in the engine's own data structures:
    /// the visited set and spanning-tree parents, the layer records held
    /// in RAM (each
    /// [`layer_record_bytes`](crate::frontier::layer_record_bytes) long,
    /// with one word per 8-register block), the two pools their ids point
    /// into, the pending set and any edges recorded in RAM. Nothing is
    /// charged per state for the machine structs or the registers
    /// themselves: the pools hold each distinct machine per slot and each
    /// distinct register block per block position once, with its digest.
    ///
    /// Only the parallel breadth-first loop accounts for this (every
    /// engine but [`Engine::Sequential`](crate::Engine::Sequential), with
    /// or without spilling), and a run that stops early charges the layer
    /// it was draining; the sequential DFS reports `0`. A liveness check
    /// adds its backward marking: the reversed-edge CSR, or only its
    /// offset array and bounded windows when spilling. The figure is a
    /// deterministic lower bound on real memory use: it counts payload
    /// bytes and ignores allocator and hash-table overhead, so it is
    /// reproducible across hosts (unlike an RSS sample) and is what the E2
    /// table records.
    pub peak_resident_bytes: u64,
    /// Total bytes written to disk under
    /// [`Engine::Spill`](crate::Engine::Spill): the visited set's sorted
    /// runs (including compaction rewrites), the layer and candidate
    /// files, the parent log, and — for liveness checks — the edge log and
    /// predecessor file. `0` for the purely in-RAM engines.
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
    /// The schedule entries, in order, whose moves reach the bad state:
    /// `i` steps machine `i`, [`CRASH_SCHEDULE_BASE`]` + i` crashes it.
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

/// Errors produced by [`ModelChecker::check_with`] and
/// [`ModelChecker::check_always_terminable`].
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
    /// The disk stores ([`Engine::Spill`](crate::Engine::Spill)) hit an
    /// I/O error; the exploration is incomplete and nothing was proven.
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
/// allocates nothing. The DFS stores these keys; the breadth-first loop
/// never builds one, and hashes a state from its parts' digests instead
/// ([`Hash128`]).
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

/// The 128-bit digest of one part of a state ([`digest`](Self::digest)):
/// two independently-seeded mix-chained 64-bit lanes over a salt word —
/// the part's kind and position — and the part's words, with the word
/// count folded in last.
///
/// The breadth-first loop hashes a state, on every store, as the XOR of
/// its parts' digests: one per 8-register block, one per machine slot's
/// key, and one per done slot's flag; its pools intern blocks and
/// machines by digest. Modelling each digest as an independent uniform
/// 128-bit value per distinct input, two different states differ in at
/// least one part, and as a state has exactly one block and one machine
/// per position, the XOR of their hashes is the XOR of a non-empty set of
/// distinct digests: uniform, so they collide with probability 2⁻¹²⁸.
/// The salts are what keep the inputs distinct — without the position,
/// two blocks' contents swapped would cancel. With `n` states the odds
/// that any two merge are about `n²/2¹²⁹` (< 10⁻²⁴ for 10⁸ states). Two
/// blocks or machines at one position with one digest would merge in
/// their pool; the same bound covers it, as every pair of states that
/// differ only there would collide too. The DFS dedups by exact keys, and
/// the equivalence suites compare the two.
pub(crate) struct Hash128 {
    h1: u64,
    h2: u64,
    len: u64,
}

impl Hash128 {
    fn new() -> Self {
        Self {
            h1: 0x243F_6A88_85A3_08D3, // first 64 fractional bits of π
            h2: 0x1319_8A2E_0370_7344, // next 64
            len: 0,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.h1 = mix64(self.h1 ^ w);
        self.h2 = mix64(self.h2 ^ w.rotate_left(32));
        self.len += 1;
    }

    #[inline]
    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    fn finish(self) -> u128 {
        // Fold the length in so prefix keys cannot collide trivially.
        let h1 = mix64(self.h1 ^ self.len);
        let h2 = mix64(self.h2 ^ self.len.rotate_left(32));
        ((h1 as u128) << 64) | h2 as u128
    }

    /// The digest of one part of a state: the words `words` of the part
    /// kind `part` at `position`, salted by both.
    pub(crate) fn digest(part: u64, position: usize, words: &[u64]) -> u128 {
        let mut h = Self::new();
        h.word(part << 32 | position as u64);
        h.words(words);
        h.finish()
    }
}

/// The hasher of maps keyed by a 128-bit digest ([`Hash128`]) or a XOR of
/// digests: the key is already uniform, so its low 64 bits are the hash,
/// with no second hashing. hashbrown takes the bucket from the hash's low
/// bits and the tag from its top 7, both apart from the digest's top 6
/// bits that pick a loop shard. Maps still compare the full key. The keys
/// are digests this crate computes, never outside input, so no key can be
/// crafted to collide.
#[derive(Default)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a digest map hashes u128 keys only")
    }

    fn write_u128(&mut self, digest: u128) {
        self.0 = digest as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by digests, hashed by [`DigestHasher`].
pub(crate) type DigestMap<V> = HashMap<u128, V, BuildHasherDefault<DigestHasher>>;

/// A set of digests, hashed by [`DigestHasher`].
pub(crate) type DigestSet = HashSet<u128, BuildHasherDefault<DigestHasher>>;

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Frame<M> {
    mem: Vec<Word>,
    machines: Vec<M>,
    done: Vec<bool>,
    /// How many of the plan's moves have been taken from this state.
    next: usize,
    /// The schedule entry of the move that produced this state (unused
    /// for the root).
    via: usize,
    /// Which of the state's enabled moves the search takes.
    plan: Plan,
}

/// Explores every interleaving of a set of [`StepMachine`]s over a shared
/// register file and checks invariants in each reachable state.
///
/// The checker holds the model: the register layout, the machines, the
/// state limit and the fault model. The [`Engine`](crate::Engine) passed
/// to [`check_with`](Self::check_with) or
/// [`check_always_terminable`](Self::check_always_terminable) picks the
/// backend that explores it: the sequential depth-first search, or the
/// breadth-first loop over its worker threads with its stores in RAM or
/// on disk, either with or without partial-order reduction.
///
/// Every engine visits exactly the same set of states and reports
/// identical `states`/`transitions`/`terminal_states` counts. The DFS
/// dedups by exact keys; the breadth-first loop by a 128-bit state hash.
///
/// See the crate docs for a full example.
pub struct ModelChecker<M> {
    layout: Layout,
    machines: Vec<M>,
    max_states: usize,
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
    /// remaining budget are distinct. The DFS, the breadth-first loop on
    /// every store and replay share one transition relation, so they
    /// take the same crashes: `tests/engine_equivalence.rs` and
    /// `tests/por_equivalence.rs` pin E12's worlds on every engine, store,
    /// worker count and reduction setting. Crash transitions appear in
    /// [`Violation::schedule`]s as entries `≥` [`CRASH_SCHEDULE_BASE`]
    /// and are replayed by [`run_schedule`](Self::run_schedule) /
    /// [`render_trace`](Self::render_trace), which skip a crash the state
    /// does not enable.
    ///
    /// Composes with partial-order reduction
    /// ([`Engine::Reduced`](crate::Engine::Reduced)): states with
    /// remaining budget are always fully expanded (a crash is a visible
    /// transition that commutes with nothing of its own machine), and
    /// reduction resumes once the budget is spent.
    ///
    /// # Panics
    ///
    /// Checking and replay assert `machines.len() ≤ CRASH_SCHEDULE_BASE`
    /// when the fault model is on (the crash encoding shares the
    /// schedule-entry byte with machine indices).
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

    /// The configured state budget.
    pub(crate) fn state_limit(&self) -> usize {
        self.max_states
    }

    /// The transition relation the engines and replay explore, with
    /// partial-order reduction if `por`.
    pub(crate) fn relation(&self, por: bool) -> Relation {
        Relation::new(self.faults_loc, por, self.machines.len())
    }

    /// Exhaustively explores the state space depth-first
    /// ([`Engine::Sequential`](crate::Engine::Sequential)), with
    /// partial-order reduction if `por`, checking `invariant` in every
    /// reachable state (including the initial one).
    ///
    /// The hot path is allocation-free: state keys are built in a reusable
    /// `KeyBuilder`, only one machine is cloned per transition, and
    /// popped DFS frames are pooled and recycled. Dedup is exact: the
    /// search allocates once per *distinct* state (the owned key).
    pub(crate) fn dfs<F>(&self, por: bool, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let rel = self.relation(por);
        let mem = SimMemory::new(&self.layout);
        let mut stats = CheckStats::default();
        let mut visited: HashSet<Box<[u64]>> = HashSet::new();
        let mut kb = KeyBuilder::default();
        let mut ample = AmpleCtx::new();

        let done0 = vec![false; self.machines.len()];
        visited.insert(kb.build(&mem, &self.machines, &done0, None).into());
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

        let snap0 = mem.snapshot();
        let plan = rel.plan(&mut ample, &snap0, &self.machines, &done0);
        let mut stack: Vec<Frame<M>> = vec![Frame {
            mem: snap0,
            machines: self.machines.clone(),
            done: done0,
            next: 0,
            via: usize::MAX,
            plan,
        }];
        // Recycled frames: their Vec allocations are reused by clone_from /
        // snapshot_into, so steady-state exploration stops allocating.
        let mut pool: Vec<Frame<M>> = Vec::new();

        loop {
            let depth = stack.len();
            let Some(top) = stack.last_mut() else { break };
            let mv = rel
                .moves(&top.mem, &top.machines, &top.done, top.plan)
                .nth(top.next);
            let Some(mv) = mv else {
                pool.extend(stack.pop());
                continue;
            };
            top.next += 1;

            mem.restore(&top.mem);
            let i = mv.machine();
            let mut mi = top.machines[i].clone();
            let done_i = rel.apply(mv, &mem, &mut mi);
            stats.transitions += 1;

            let key = kb.build(&mem, &top.machines, &top.done, Some((i, &mi, done_i)));
            let fresh = !visited.contains(key) && visited.insert(key.into());
            if let (Plan::Ample(a), false) = (top.plan, fresh) {
                // Cycle proviso: the ample successor was already visited
                // (possibly down the current DFS path), so the singleton
                // could defer a conflicting step forever around a cycle.
                // Expand fully, skipping the step just taken.
                top.plan = Plan::AllBut(Some(a));
                top.next = 0;
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
                plan: Plan::AllBut(None),
            });
            mem.snapshot_into(&mut frame.mem);
            frame.machines.clone_from(&top.machines);
            frame.machines[i] = mi;
            frame.done.clear();
            frame.done.extend_from_slice(&top.done);
            frame.done[i] = done_i;
            frame.next = 0;
            frame.via = mv.entry();

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
                let mut schedule: Vec<usize> = stack[1..].iter().map(|f| f.via).collect();
                schedule.push(frame.via);
                let trace = self.render_trace(&schedule);
                return Err(CheckError::Violation(Box::new(Violation {
                    message,
                    schedule,
                    trace,
                    stats,
                })));
            }

            frame.plan = rel.plan(&mut ample, &frame.mem, &frame.machines, &frame.done);
            stack.push(frame);
        }

        Ok(stats)
    }

    /// Replays a schedule (a sequence of machine indices, with crash
    /// entries encoded as [`CRASH_SCHEDULE_BASE`]` + i`) from the initial
    /// state, returning the final memory and machines.
    ///
    /// Replay takes the same moves the engines take, and skips an entry
    /// whose move the state does not enable: a step of a machine that is
    /// already done, or a crash of a machine that is done, whose
    /// [`StepMachine::can_crash`] is false, or that would exceed the
    /// fault budget.
    pub fn run_schedule(&self, schedule: &[usize]) -> (SimMemory, Vec<M>, Vec<bool>) {
        let mut r = Replay::new(self);
        for &e in schedule {
            r.take(e);
        }
        (r.mem, r.machines, r.done)
    }

    /// Renders a schedule as a step-by-step human-readable trace. Entries
    /// [`run_schedule`](Self::run_schedule) skips are marked as skipped.
    pub fn render_trace(&self, schedule: &[usize]) -> String {
        use std::fmt::Write as _;
        let mut r = Replay::new(self);
        let mut out = String::new();
        let _ = writeln!(out, "  init: {}", self.layout.dump(&r.mem.snapshot()));
        for (n, &e) in schedule.iter().enumerate() {
            let before = r.mem.snapshot();
            let (mv, taken) = r.take(e);
            if !taken {
                let _ = writeln!(out, "  #{n:<3} {mv}: (not enabled, skipped)");
                continue;
            }
            let after = r.mem.snapshot();
            let delta: Vec<String> = before
                .iter()
                .zip(&after)
                .enumerate()
                .filter(|(_, (b, a))| b != a)
                .map(|(r, (_, a))| format!("{}←{}", self.layout.name_of(llr_mem::Loc(r as u32)), a))
                .collect();
            let _ = writeln!(
                out,
                "  #{n:<3} {mv}: {} {}",
                r.machines[mv.machine()].describe(),
                if delta.is_empty() {
                    String::new()
                } else {
                    format!("| {}", delta.join(" "))
                }
            );
        }
        let _ = writeln!(out, "  final: {}", self.layout.dump(&r.mem.snapshot()));
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
            let mut rng = SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mem = SimMemory::new(&self.layout);
            let mut machines = self.machines.clone();
            let mut done = vec![false; machines.len()];
            let mut schedule = Vec::new();
            for _ in 0..max_steps {
                let running: Vec<usize> = (0..machines.len()).filter(|&i| !done[i]).collect();
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
    ///
    /// Candidates replay as [`run_schedule`](Self::run_schedule) does:
    /// deleting an entry can disable a later crash, which is then skipped,
    /// so the result takes only moves the engines take.
    pub fn shrink_schedule<F>(&self, schedule: &[usize], invariant: F) -> Vec<usize>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let violates = |candidate: &[usize]| -> bool {
            let mut r = Replay::new(self);
            candidate
                .iter()
                .any(|&e| r.take(e).1 && invariant(&r.world()).is_err())
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
