//! The generic session layer: each protocol supplies **one acquire
//! machine and one release machine** (a [`ProtocolCore`]), and everything
//! else is derived here, once —
//!
//! * [`Session<P>`] — the model-checkable repeated acquire/release loop
//!   (Idle → Acquiring → Holding → Releasing, `sessions_left` times) with
//!   a canonical [`StepMachine::key`]/[`StepMachine::describe`] encoding;
//!   each phase holds one value — the acquire, the token or the release —
//!   so a session machine is as large as its largest one plus a tag;
//! * [`Handle<P>`] — the thread-executed [`RenamingHandle`] driving the
//!   *same* machines over [`AtomicMemory`], so the checked code and the
//!   benchmarked code are identical by construction;
//! * [`Renamer<P>`] — the served renaming object: one template core, the
//!   [`AtomicMemory`] its shape lives in, and `k`. It carries the one
//!   [`Renaming`] impl of every session-layer protocol; `split::Split`,
//!   `filter::Filter`, `ma::MaGrid`, `levelarray::LevelArray` and
//!   `chain::Chain<P>` are aliases of it;
//! * [`checker`] — the model checker of any [`Composable`] core: one
//!   [`Session`] per pid, on the layout the core was built in;
//! * [`unique_names_invariant`] — the paper's uniqueness condition,
//!   parameterized by [`Session::holding`] and the protocol's destination
//!   bound;
//! * [`run_check`] — the check driver, selecting the sequential /
//!   parallel / spill engines through [`Engine`].
//!
//! # How a protocol plugs in
//!
//! A protocol is one per-process program, as the paper writes each of its
//! Figures 1, 2 and 4. Implement [`ProtocolCore`] on a small per-process
//! value (shape + pid), with plain data types for the acquire, the token
//! and the release, and [`Composable`] to copy the core for any pid; then
//! name the served object `pub type Foo = Renamer<FooCore>` with a
//! constructor that builds the shape and calls [`Renamer::serve`]. The
//! four associated behaviours of `ProtocolCore` are the whole protocol
//! contract, and all of them live in the core's impl:
//!
//! 1. `begin_acquire` / `step_acquire` — the GetName machine; a step
//!    performs at most one shared access and yields the [`Token`]
//!    (name + whatever the release needs) when complete.
//! 2. `begin_release` / `step_release` — the ReleaseName machine.
//! 3. `key_*` — injective encodings of each machine's live state
//!    (everything that influences future behaviour, nothing more), with
//!    `*_footprint` and `describe_*` beside them.
//! 4. Two knobs: [`LAZY_START`] (is Idle → Acquiring a pure local
//!    transition, or does it perform the acquire's first shared access in
//!    the same scheduled step?) and [`RELEASES`] (`false` for one-shot
//!    protocols, whose session ends at acquire completion).
//!
//! # One source, two compiled copies
//!
//! Every core follows one ownership rule: **the core owns the shape and
//! the pid, the machines own the locals.** The core's hooks read the shape
//! (register table, parameters) and the pid from `self`; an acquire,
//! release or token value holds only what one operation needs — program
//! counter, path so far, the name — with no step logic of its own, no copy
//! of the core's state and never an `Arc`. Starting, finishing or
//! abandoning an operation therefore touches no reference count, and a
//! token moves by `memcpy`.
//!
//! The step hooks are generic over `M: Memory + ?Sized`. The checker
//! steps [`Session`] through `&dyn Memory` (its [`StepMachine::step`] is
//! the one place in this crate that type appears), while [`Handle`] steps
//! the same hooks over `Counting<AtomicMemory>`, so the served machines
//! are compiled for the memory they run on: every register access is a
//! direct, inlinable atomic instead of a vtable call.
//! `tests/session_layer.rs` pins the two copies to identical names and
//! access counts, cycle by cycle.
//!
//! # The crash–restart fault model
//!
//! Every session machine is fault-capable: [`Session::inject`] tears the
//! process down at its current point — mid-acquire, holding, mid-release —
//! leaving its abandoned registers **exactly as written** (torn state is
//! the point of the model). A [`Fault::Freeze`] is the paper's adversary
//! (the process stops forever); a [`Fault::CrashRestart`] additionally
//! brings up a replacement with a *fresh* process id drawn from the
//! session's [spare cores](Session::with_spares), restarting the full
//! session count. A name lost by crashing while **Holding** is recorded
//! in [`Session::leaked`]: its protocol marks are complete, so the name
//! stays reserved against every later acquire —
//! [`crash_robust_uniqueness`] checks exactly that. Names lost in other
//! phases left only partial marks, so no reservation is claimed for them.
//!
//! Under the checker, crashes arrive through [`StepMachine::crash_restart`]
//! whenever a fault budget is armed (`ModelChecker::faults`); on real
//! threads, the `NameArena` admission gate recovers the crashed client's
//! permit via its RAII guard (see `crate::arena`).
//!
//! [`Token`]: ProtocolCore::Token
//! [`LAZY_START`]: ProtocolCore::LAZY_START
//! [`RELEASES`]: ProtocolCore::RELEASES

use crate::traits::{Renaming, RenamingHandle};
use crate::types::{Name, Pid};
use llr_mc::{
    CheckError, CheckStats, Footprint, MachineStatus, ModelChecker, StepMachine, Violation, World,
};
use llr_mem::{AtomicMemory, Counting, Layout, Memory, Word};
use std::fmt::Debug;

pub use llr_mc::Engine;

/// A protocol's per-process view: shape + pid + the two step machines.
///
/// One `ProtocolCore` impl per protocol replaces the hand-rolled session
/// `Phase` enum, `StepMachine` impl, threaded handle loop, and uniqueness
/// invariant that each `spec` module used to carry.
pub trait ProtocolCore: Clone + Debug + Send + Sync {
    /// The in-progress GetName machine.
    type Acquire: Clone + Debug + Send + Sync;
    /// What a session holds between acquire and release: the name plus
    /// whatever the release machine needs (paths, grid cells, own-values).
    type Token: Clone + Debug + Send + Sync;
    /// The in-progress ReleaseName machine.
    type Release: Clone + Debug + Send + Sync;

    /// `true` iff Idle → Acquiring is a pure local transition (the
    /// acquire's first shared access is its own scheduled step, in every
    /// build profile). `false` protocols create *and step once* in the
    /// Idle step.
    const LAZY_START: bool;
    /// `false` for one-shot protocols: the session ends
    /// ([`MachineStatus::Done`]) the moment the acquire completes, and the
    /// token is held forever.
    const RELEASES: bool = true;

    /// The process id this core acts for (constant, so never keyed).
    fn pid(&self) -> Pid;

    /// A fresh GetName machine.
    fn begin_acquire(&self) -> Self::Acquire;

    /// One acquire step: at most one shared access; `Some(token)` exactly
    /// when GetName completes (the same scheduled step as its last
    /// access). Generic over the memory, so the checker's `&dyn Memory`
    /// and the threaded handle's concrete memory each get their own
    /// compiled copy of the same source.
    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut Self::Acquire,
        mem: &M,
    ) -> Option<Self::Token>;

    /// A fresh ReleaseName machine for a held token.
    fn begin_release(&self, token: Self::Token) -> Self::Release;

    /// One release step: at most one shared access; `true` when
    /// ReleaseName is complete. A release that is already trivially
    /// complete (e.g. an empty SPLIT path) returns `true` without any
    /// access. Generic over the memory, like
    /// [`step_acquire`](Self::step_acquire).
    fn step_release<M: Memory + ?Sized>(&self, r: &mut Self::Release, mem: &M) -> bool;

    /// The destination name a held token maps to. `None` for the mutex
    /// building blocks (splitter, PF, tournament), which hand out
    /// directions and critical sections rather than names.
    fn token_name(&self, _token: &Self::Token) -> Option<Name> {
        None
    }

    /// Destination-space bound `D` for [`unique_names_invariant`].
    fn dest_size(&self) -> u64 {
        u64::MAX
    }

    /// Injective encoding of an acquire machine's live state.
    fn key_acquire(&self, a: &Self::Acquire, out: &mut Vec<Word>);
    /// Injective encoding of a held token's live state.
    fn key_token(&self, t: &Self::Token, out: &mut Vec<Word>);
    /// Injective encoding of a release machine's live state.
    fn key_release(&self, r: &Self::Release, out: &mut Vec<Word>);

    /// Registers the next [`step_acquire`](Self::step_acquire) on `a` may
    /// touch, declared into `fp` (see [`Footprint`]); returns `true` iff
    /// that step may complete the acquire. Declared sets must
    /// over-approximate actual accesses. The default declares the
    /// footprint unknown (soundly disabling partial-order reduction
    /// around this protocol) and pessimistically returns `true`.
    fn acquire_footprint(&self, _a: &Self::Acquire, fp: &mut Footprint) -> bool {
        fp.set_unknown();
        true
    }

    /// Registers the next [`step_release`](Self::step_release) on `r` may
    /// touch; returns `true` iff that step may complete the release. Same
    /// contract and default as [`acquire_footprint`](Self::acquire_footprint).
    fn release_footprint(&self, _r: &Self::Release, fp: &mut Footprint) -> bool {
        fp.set_unknown();
        true
    }

    /// Every register this process may touch over its remaining lifetime
    /// (any acquire or release step of any remaining session),
    /// declared into `fp`'s future sets ([`Footprint::future_read`] /
    /// [`Footprint::future_write`]). A static per-process superset is
    /// fine — precision here only sharpens the reduction, never its
    /// soundness. The default declares the footprint unknown.
    fn future_footprint(&self, fp: &mut Footprint) {
        fp.set_unknown();
    }

    /// Every register the rest of the in-flight release `r` may touch —
    /// the refined future for a final-session release, where nothing runs
    /// afterwards. Defaults to the full lifetime footprint.
    fn release_future_footprint(&self, _r: &Self::Release, fp: &mut Footprint) {
        self.future_footprint(fp);
    }

    /// Actor label for traces (`p7`, `β0`, …).
    fn describe_actor(&self) -> String {
        format!("p{}", self.pid())
    }
    /// One-line description of an acquire machine's state.
    fn describe_acquire(&self, a: &Self::Acquire) -> String;
    /// One-line description of a held token.
    fn describe_token(&self, t: &Self::Token) -> String {
        match self.token_name(t) {
            Some(n) => format!("Holding({n})"),
            None => "Holding".into(),
        }
    }
    /// One-line description of a release machine's state.
    fn describe_release(&self, r: &Self::Release) -> String;
}

/// What serving a core to any process needs from it: the same core acting
/// for another pid, and the source space it takes pids from. A
/// [`Renamer`] serves one core as the template for every pid, and
/// [`crate::chain::Then`] composes two.
pub trait Composable: ProtocolCore {
    /// The same core, sharing its shape, acting for process `pid`.
    fn for_pid(&self, pid: Pid) -> Self;

    /// Size `S` of the source space the core accepts pids from.
    fn source_size(&self) -> u64;

    /// Whether [`for_pid`](Self::for_pid) can act for `pid`: by default,
    /// any pid below [`source_size`](Self::source_size).
    fn accepts(&self, pid: Pid) -> bool {
        pid < self.source_size()
    }

    /// Appends the destination size after each stage (the name-space
    /// funnel); a single stage has one.
    fn funnel(&self, out: &mut Vec<u64>) {
        out.push(self.dest_size());
    }

    /// Appends the name each stage's part of `token` holds.
    fn stage_names(&self, token: &Self::Token, out: &mut Vec<Option<Name>>) {
        out.push(self.token_name(token));
    }
}

/// A fault injected into a [`Session`] via [`Session::inject`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process stops forever at its current point — the paper's
    /// wait-freedom adversary. The machine becomes
    /// [`SessionPhase::Crashed`] and is never scheduled again.
    Freeze,
    /// The process crashes and a fresh incarnation with a **new** process
    /// id takes over, drawn from the [spares](Session::with_spares) pool.
    /// With no spare left this degrades to [`Fault::Freeze`].
    CrashRestart,
}

/// Where a [`Session`] is in its current acquire/release cycle.
#[derive(Clone, Debug)]
pub enum SessionPhase<P: ProtocolCore> {
    /// Between sessions (also the initial state).
    Idle,
    /// GetName in progress.
    Acquiring(P::Acquire),
    /// A token is held.
    Holding(P::Token),
    /// ReleaseName in progress.
    Releasing(P::Release),
    /// The process crashed with no replacement: frozen forever, its
    /// abandoned registers left exactly as written.
    Crashed,
}

/// A process running `sessions` repeated acquire/release cycles of
/// protocol `P` — the single [`StepMachine`] the model checker explores
/// for every protocol.
#[derive(Clone, Debug)]
pub struct Session<P: ProtocolCore> {
    core: P,
    sessions_left: u8,
    /// The configured cycle count, restored on every restart.
    sessions_total: u8,
    phase: SessionPhase<P>,
    /// Replacement cores (fresh pids) consumed front-first by
    /// [`Fault::CrashRestart`].
    spares: Vec<P>,
    /// How many times this slot has crash–restarted.
    incarnation: u32,
    /// Names lost by crashing while Holding — their marks are complete,
    /// so each stays reserved against every later acquire.
    leaked: Vec<Name>,
}

impl<P: ProtocolCore> Session<P> {
    /// A session machine for `core` that will run `sessions ≥ 1` full
    /// acquire/release cycles (one-shot protocols ignore the count and
    /// finish at the first acquire).
    pub fn start(core: P, sessions: u8) -> Self {
        assert!(
            sessions >= 1,
            "a session machine needs at least one session"
        );
        Self {
            core,
            sessions_left: sessions,
            sessions_total: sessions,
            phase: SessionPhase::Idle,
            spares: Vec::new(),
            incarnation: 0,
            leaked: Vec::new(),
        }
    }

    /// Equips the session with replacement cores for
    /// [`Fault::CrashRestart`], consumed front-first. Each spare must
    /// share the original core's shape but carry a fresh process id —
    /// a restarted process never reuses the crashed incarnation's id.
    pub fn with_spares(mut self, spares: Vec<P>) -> Self {
        self.spares = spares;
        self
    }

    /// The protocol core (shape + pid) this session runs.
    pub fn core(&self) -> &P {
        &self.core
    }

    /// The current phase.
    pub fn phase(&self) -> &SessionPhase<P> {
        &self.phase
    }

    /// Full cycles still to run, counting the current one.
    pub fn sessions_left(&self) -> u8 {
        self.sessions_left
    }

    /// The name currently held, if the session is in [`SessionPhase::Holding`]
    /// and the protocol hands out names.
    pub fn holding(&self) -> Option<Name> {
        self.holding_token().and_then(|t| self.core.token_name(t))
    }

    /// The token currently held, if any.
    pub fn holding_token(&self) -> Option<&P::Token> {
        match &self.phase {
            SessionPhase::Holding(t) => Some(t),
            _ => None,
        }
    }

    /// The in-progress acquire machine, if the session is acquiring.
    pub fn acquiring(&self) -> Option<&P::Acquire> {
        match &self.phase {
            SessionPhase::Acquiring(a) => Some(a),
            _ => None,
        }
    }

    /// How many times this slot has crash–restarted (0 = the original
    /// incarnation is still running).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Names lost by crashing while Holding, oldest first. Each was
    /// fully marked in shared memory when its holder died, so the
    /// protocol keeps it reserved forever ([`crash_robust_uniqueness`]).
    pub fn leaked(&self) -> &[Name] {
        &self.leaked
    }

    /// `true` iff the process is frozen forever ([`SessionPhase::Crashed`]).
    pub fn is_crashed(&self) -> bool {
        matches!(self.phase, SessionPhase::Crashed)
    }

    /// Tears the process down at its current point, leaving its abandoned
    /// registers exactly as written.
    ///
    /// A name held at the moment of the crash is recorded in
    /// [`leaked`](Self::leaked) (its marks are complete — the name stays
    /// reserved); names mid-acquire or mid-release left partial marks and
    /// are not claimed. [`Fault::CrashRestart`] consumes the next spare
    /// core and restarts the full session count under the fresh id,
    /// returning [`MachineStatus::Running`]; [`Fault::Freeze`] — or a
    /// restart with no spare left — freezes the slot forever and returns
    /// [`MachineStatus::Done`].
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::levelarray::{LevelArrayCore, LevelShape};
    /// use llr_core::session::{Fault, Session};
    /// use llr_mem::Layout;
    ///
    /// let mut layout = Layout::new();
    /// let shape = LevelShape::build(3, &mut layout);
    /// let mut s = Session::start(LevelArrayCore::new(shape.clone(), 7), 2)
    ///     .with_spares(vec![LevelArrayCore::new(shape, 8)]);
    ///
    /// // A crash with a spare restarts the slot under the fresh pid...
    /// s.inject(Fault::CrashRestart);
    /// assert_eq!(s.incarnation(), 1);
    /// assert!(!s.is_crashed());
    ///
    /// // ...but a freeze stops it forever.
    /// s.inject(Fault::Freeze);
    /// assert!(s.is_crashed());
    /// ```
    pub fn inject(&mut self, fault: Fault) -> MachineStatus {
        if let SessionPhase::Holding(t) = &self.phase {
            if let Some(name) = self.core.token_name(t) {
                self.leaked.push(name);
            }
        }
        match fault {
            Fault::CrashRestart if !self.spares.is_empty() => {
                self.core = self.spares.remove(0);
                self.incarnation += 1;
                self.sessions_left = self.sessions_total;
                self.phase = SessionPhase::Idle;
                MachineStatus::Running
            }
            Fault::CrashRestart | Fault::Freeze => {
                self.phase = SessionPhase::Crashed;
                MachineStatus::Done
            }
        }
    }

    fn finish_session(&mut self) -> MachineStatus {
        self.phase = SessionPhase::Idle;
        self.sessions_left -= 1;
        if self.sessions_left == 0 {
            MachineStatus::Done
        } else {
            MachineStatus::Running
        }
    }

    /// Holds a completed acquire's token; a one-shot session is then done.
    fn acquired(&mut self, token: P::Token) -> MachineStatus {
        self.phase = SessionPhase::Holding(token);
        if P::RELEASES {
            MachineStatus::Running
        } else {
            MachineStatus::Done
        }
    }
}

impl<P: ProtocolCore> StepMachine for Session<P> {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match &mut self.phase {
            SessionPhase::Idle => {
                let mut a = self.core.begin_acquire();
                if P::LAZY_START {
                    // Pure local transition; the acquire's first shared
                    // access is its own scheduled step.
                    self.phase = SessionPhase::Acquiring(a);
                    MachineStatus::Running
                } else {
                    match self.core.step_acquire(&mut a, mem) {
                        Some(token) => self.acquired(token),
                        None => {
                            self.phase = SessionPhase::Acquiring(a);
                            MachineStatus::Running
                        }
                    }
                }
            }
            SessionPhase::Acquiring(a) => match self.core.step_acquire(a, mem) {
                Some(token) => self.acquired(token),
                None => MachineStatus::Running,
            },
            SessionPhase::Holding(token) => {
                // One-shot sessions return Done while Holding and are
                // never stepped again, so reaching here implies RELEASES.
                let mut r = self.core.begin_release(token.clone());
                if self.core.step_release(&mut r, mem) {
                    self.finish_session()
                } else {
                    self.phase = SessionPhase::Releasing(r);
                    MachineStatus::Running
                }
            }
            SessionPhase::Releasing(r) => {
                if self.core.step_release(r, mem) {
                    self.finish_session()
                } else {
                    MachineStatus::Running
                }
            }
            // Crashed machines report Done at injection time and are
            // never scheduled again; stepping one is a harness bug, but
            // staying frozen is the only faithful answer.
            SessionPhase::Crashed => MachineStatus::Done,
        }
    }

    fn key(&self, out: &mut Vec<Word>) {
        out.push(self.sessions_left as u64);
        // Fault history is live state: the incarnation determines which
        // spare cores remain, and each leaked name constrains every
        // future acquire. (Both are constant zero in fault-free runs, so
        // the fault-free state space is keyed exactly as before.)
        out.push(self.incarnation as u64);
        out.push(self.leaked.len() as u64);
        out.extend_from_slice(&self.leaked);
        match &self.phase {
            SessionPhase::Idle => out.push(0),
            SessionPhase::Acquiring(a) => {
                out.push(1);
                self.core.key_acquire(a, out);
            }
            SessionPhase::Holding(t) => {
                out.push(2);
                self.core.key_token(t, out);
            }
            SessionPhase::Releasing(r) => {
                out.push(3);
                self.core.key_release(r, out);
            }
            // Tag 4 is unused, so the keys (and with them the state
            // digests) of crashed machines stay as pinned.
            SessionPhase::Crashed => out.push(5),
        }
    }

    fn describe(&self) -> String {
        let phase = match &self.phase {
            SessionPhase::Idle => "Idle".into(),
            SessionPhase::Acquiring(a) => self.core.describe_acquire(a),
            SessionPhase::Holding(t) => self.core.describe_token(t),
            SessionPhase::Releasing(r) => self.core.describe_release(r),
            SessionPhase::Crashed => "Crashed".into(),
        };
        let inc = if self.incarnation > 0 {
            format!(" [inc {}]", self.incarnation)
        } else {
            String::new()
        };
        format!(
            "{}:{phase} ({} left){inc}",
            self.core.describe_actor(),
            self.sessions_left
        )
    }

    fn footprint(&self, fp: &mut Footprint) {
        match &self.phase {
            SessionPhase::Idle => {
                // The whole lifetime is still ahead.
                self.core.future_footprint(fp);
                if !P::LAZY_START {
                    // The Idle step performs the acquire's first shared
                    // access (and, in a degenerate shape, might even
                    // complete it): cover both via the future sets.
                    fp.assume_worst_next();
                    fp.set_visible();
                }
                // Lazy start: a pure local transition — no access, and
                // holding()/done are unchanged, so the step is invisible.
            }
            SessionPhase::Acquiring(a) => {
                let may_complete = self.core.acquire_footprint(a, fp);
                self.core.future_footprint(fp);
                if may_complete {
                    // Completing an acquire may start Holding a name (or
                    // finish a one-shot machine).
                    fp.set_visible();
                }
            }
            SessionPhase::Holding(_) => {
                // The step leaves Holding (visible) and performs the first
                // release access; cover it via the future sets rather than
                // materializing a release machine here.
                self.core.future_footprint(fp);
                fp.assume_worst_next();
                fp.set_visible();
            }
            SessionPhase::Releasing(r) => {
                let may_complete = self.core.release_footprint(r, fp);
                if self.sessions_left == 1 {
                    // Final session: only the rest of this release remains.
                    self.core.release_future_footprint(r, fp);
                    if may_complete {
                        // Completing the final release sets done.
                        fp.set_visible();
                    }
                } else {
                    self.core.future_footprint(fp);
                    // Completing a non-final release just returns to Idle:
                    // holding() stays None and done stays false, so even a
                    // completing step is invisible.
                }
            }
            // A crashed machine never touches shared memory again; the
            // empty footprint is exact (it is also done, so the reduction
            // never considers it).
            SessionPhase::Crashed => {}
        }
    }

    fn can_crash(&self) -> bool {
        true
    }

    fn crash_restart(&mut self) -> MachineStatus {
        self.inject(Fault::CrashRestart)
    }
}

/// The paper's uniqueness condition over any renaming [`Session`] world:
/// no two machines hold the same name, and every held name is below the
/// protocol's destination bound `D`.
pub fn unique_names_invariant<P: ProtocolCore>(
    world: &World<'_, Session<P>>,
) -> Result<(), String> {
    let machines = world.machines;
    for (i, m) in machines.iter().enumerate() {
        let Some(name) = m.holding() else { continue };
        let d = m.core().dest_size();
        if name >= d {
            return Err(format!(
                "machine {i} holds out-of-range name {name} (D = {d})"
            ));
        }
        if let Some(j) = machines[..i].iter().position(|m| m.holding() == Some(name)) {
            return Err(format!(
                "machines {j} and {i} concurrently hold name {name}"
            ));
        }
    }
    Ok(())
}

/// The crash-robust strengthening of [`unique_names_invariant`]: live
/// holders are pairwise distinct **and** no live holder — nor any other
/// crash — reuses a name leaked by crashing while Holding.
///
/// The reservation claim is deliberately scoped: a process that died
/// while Holding had written its *complete* mark set, so the protocol
/// treats the name as taken forever (this is what the fault budget
/// checks under f ∈ {1, 2} in E12). Crashes mid-acquire or mid-release
/// left partial marks; those names are not claimed here — their cost
/// shows up only in the measured name-space degradation curve.
pub fn crash_robust_uniqueness<P: ProtocolCore>(
    world: &World<'_, Session<P>>,
) -> Result<(), String> {
    let machines = world.machines;
    for (i, m) in machines.iter().enumerate() {
        let d = m.core().dest_size();
        for (l, &name) in m.leaked().iter().enumerate() {
            if name >= d {
                return Err(format!(
                    "machine {i} leaked out-of-range name {name} (D = {d})"
                ));
            }
            if let Some(prev) = claimant(&machines[..i], (i, &m.leaked()[..l]), name) {
                return Err(format!(
                    "{prev} and machine {i} (leaked) both claim name {name}"
                ));
            }
        }
        if let Some(name) = m.holding() {
            if name >= d {
                return Err(format!(
                    "machine {i} holds out-of-range name {name} (D = {d})"
                ));
            }
            if let Some(prev) = claimant(&machines[..i], (i, m.leaked()), name) {
                return Err(format!("{prev} and machine {i} both claim name {name}"));
            }
        }
    }
    Ok(())
}

/// The earlier claim on `name` in [`crash_robust_uniqueness`], as its
/// messages name it: by one of `earlier`, the machines before `i`, or by
/// `own`, the names `i` leaked before. Every earlier claim was checked
/// against the ones before it, so there is at most one.
fn claimant<P: ProtocolCore>(
    earlier: &[Session<P>],
    (i, own): (usize, &[Name]),
    name: Name,
) -> Option<String> {
    for (j, m) in earlier.iter().enumerate() {
        if m.leaked().contains(&name) {
            return Some(format!("machine {j} (leaked)"));
        }
        if m.holding() == Some(name) {
            return Some(format!("machine {j}"));
        }
    }
    own.contains(&name).then(|| format!("machine {i} (leaked)"))
}

/// Runs `invariant` over every reachable state of `checker` on the
/// backend named by `engine`, converting the result into the protocol
/// `check_*` convention: `Ok(stats)` when verified, the boxed
/// counterexample when violated.
///
/// # Panics
///
/// Panics if exploration aborts without a verdict (state budget or I/O),
/// since a protocol check that did not finish proves nothing.
pub fn run_check<P, F>(
    checker: ModelChecker<Session<P>>,
    engine: &Engine,
    invariant: F,
) -> Result<CheckStats, Box<Violation>>
where
    P: ProtocolCore,
    F: Fn(&World<'_, Session<P>>) -> Result<(), String>,
{
    match checker.check_with(engine, invariant) {
        Ok(stats) => Ok(stats),
        Err(CheckError::Violation(v)) => Err(v),
        Err(e) => panic!("model checking did not complete: {e}"),
    }
}

/// The model checker over `pids`, each running `sessions` acquire/release
/// cycles of `core`'s protocol as a [`Session`] of
/// [`core.for_pid(pid)`](Composable::for_pid), on the registers `core`'s
/// shape was allocated in.
pub fn checker<P: Composable>(
    layout: Layout,
    core: &P,
    pids: &[Pid],
    sessions: u8,
) -> ModelChecker<Session<P>> {
    let machines = pids
        .iter()
        .map(|&pid| Session::start(core.for_pid(pid), sessions))
        .collect();
    ModelChecker::new(layout, machines)
}

/// The generic threaded handle: drives the *same* acquire/release
/// machines the model checker explores, in a loop over [`AtomicMemory`],
/// with a [`Counting`] wrapper maintaining the paper's shared-access
/// complexity measure.
///
/// The step hooks are monomorphized for `Counting<AtomicMemory>` here
/// (the checker's [`Session`] runs them through `&dyn Memory`), and a
/// cycle moves only per-operation locals: each step reads the core's
/// shape, never clones it.
#[derive(Debug)]
pub struct Handle<'a, P: ProtocolCore> {
    core: P,
    mem: &'a AtomicMemory,
    token: Option<P::Token>,
    accesses: u64,
    /// Armed fault fuse: the next `acquire` panics after this many
    /// machine steps (see [`arm_crash`](Self::arm_crash)).
    fuse: Option<u64>,
}

impl<'a, P: ProtocolCore> Handle<'a, P> {
    /// A handle driving `core`'s machines over `mem`.
    pub fn new(core: P, mem: &'a AtomicMemory) -> Self {
        Self {
            core,
            mem,
            token: None,
            accesses: 0,
            fuse: None,
        }
    }

    /// Arms a deterministic crash: the next [`RenamingHandle::acquire`]
    /// panics after `steps` acquire-machine steps, abandoning whatever
    /// partial marks the machine had written — the threaded counterpart
    /// of [`Session::inject`], used by the churn tests and the E12
    /// driver to kill clients mid-protocol at reproducible points.
    /// `steps = 0` dies before the first shared access. The fuse is
    /// consumed by the acquire it fires in (or, if the acquire completes
    /// first, disarmed with it).
    pub fn arm_crash(&mut self, steps: u64) {
        self.fuse = Some(steps);
    }

    /// The protocol core this handle drives.
    pub fn core(&self) -> &P {
        &self.core
    }

    /// The token currently held, if any — for protocol-specific
    /// diagnostics carried in the token (e.g. FILTER's check/enter
    /// counters).
    pub(crate) fn held_token(&self) -> Option<&P::Token> {
        self.token.as_ref()
    }
}

impl<P: ProtocolCore> RenamingHandle for Handle<'_, P> {
    fn acquire(&mut self) -> Name {
        assert!(self.token.is_none(), "acquire while holding a name");
        let mut fuse = self.fuse.take();
        let mem = Counting::new(self.mem);
        let mut a = self.core.begin_acquire();
        let token = loop {
            if let Some(left) = &mut fuse {
                if *left == 0 {
                    panic!("chaos fuse: p{} dies mid-acquire", self.core.pid());
                }
                *left -= 1;
            }
            if let Some(t) = self.core.step_acquire(&mut a, &mem) {
                break t;
            }
        };
        self.accesses += mem.accesses();
        let name = self
            .core
            .token_name(&token)
            .expect("a renaming protocol's token carries a name");
        self.token = Some(token);
        name
    }

    fn release(&mut self) {
        let token = self.token.take().expect("release without holding a name");
        let mem = Counting::new(self.mem);
        let mut r = self.core.begin_release(token);
        while !self.core.step_release(&mut r, &mem) {}
        self.accesses += mem.accesses();
    }

    fn pid(&self) -> Pid {
        self.core.pid()
    }

    fn held(&self) -> Option<Name> {
        self.token.as_ref().and_then(|t| self.core.token_name(t))
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// A core served as a long-lived renaming object: the [`Renaming`] impl
/// of every session-layer protocol, a Theorem 11 chain included.
///
/// It holds one core, the template that [`Composable::for_pid`] copies for
/// each process's [`Handle`], the [`AtomicMemory`] the core's shape was
/// allocated in, and the concurrency bound `k`. It keeps no [`Layout`]:
/// the memory is all a handle needs.
#[derive(Debug)]
pub struct Renamer<P> {
    pub(crate) core: P,
    pub(crate) mem: AtomicMemory,
    k: usize,
}

impl<P: Composable> Renamer<P> {
    /// Serves `core`, whose shape was allocated in `layout`, to at most
    /// `k` concurrent processes.
    pub fn serve(k: usize, layout: &Layout, core: P) -> Self {
        Self {
            core,
            mem: AtomicMemory::new(layout),
            k,
        }
    }

    /// Destination sizes after each stage (the "name-space funnel").
    pub fn funnel(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.core.funnel(&mut out);
        out
    }
}

impl<P: Composable> Renaming for Renamer<P> {
    type Handle<'a>
        = Handle<'a, P>
    where
        P: 'a;

    fn handle(&self, pid: Pid) -> Handle<'_, P> {
        Handle::new(self.core.for_pid(pid), &self.mem)
    }

    fn source_size(&self) -> u64 {
        self.core.source_size()
    }

    fn dest_size(&self) -> u64 {
        self.core.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llr_mem::{Layout, SimMemory};

    /// A core whose acquire takes one step and yields `name`, from a
    /// destination space of 4 names.
    #[derive(Clone, Debug)]
    struct Fixed {
        name: Name,
    }

    impl ProtocolCore for Fixed {
        type Acquire = ();
        type Token = ();
        type Release = ();
        const LAZY_START: bool = false;

        fn pid(&self) -> Pid {
            0
        }
        fn begin_acquire(&self) {}
        fn step_acquire<M: Memory + ?Sized>(&self, _: &mut (), _: &M) -> Option<()> {
            Some(())
        }
        fn begin_release(&self, _: ()) {}
        fn step_release<M: Memory + ?Sized>(&self, _: &mut (), _: &M) -> bool {
            true
        }
        fn token_name(&self, _: &()) -> Option<Name> {
            Some(self.name)
        }
        fn dest_size(&self) -> u64 {
            4
        }
        fn key_acquire(&self, _: &(), _: &mut Vec<Word>) {}
        fn key_token(&self, _: &(), _: &mut Vec<Word>) {}
        fn key_release(&self, _: &(), _: &mut Vec<Word>) {}
        fn describe_acquire(&self, _: &()) -> String {
            "Acquiring".into()
        }
        fn describe_release(&self, _: &()) -> String {
            "Releasing".into()
        }
    }

    /// A session that took each of `leaked` in turn and crashed holding
    /// it, then holds `holding`, if any.
    fn session(leaked: &[Name], holding: Option<Name>) -> Session<Fixed> {
        let mem = SimMemory::new(&Layout::new());
        let mut cores = leaked.iter().chain(&holding).map(|&name| Fixed { name });
        let first = cores.next().unwrap_or(Fixed { name: 0 });
        let mut s = Session::start(first, 1).with_spares(cores.collect());
        for _ in leaked {
            s.step(&mem);
            s.inject(Fault::CrashRestart);
        }
        if holding.is_some() {
            s.step(&mem);
        }
        s
    }

    fn err(message: &str) -> Result<(), String> {
        Err(message.into())
    }

    /// Asserts that `P`'s session phase is no larger than its largest
    /// machine value plus the 8 B a tag may take.
    fn assert_phase_holds_one_value<P: ProtocolCore>(core: &str) {
        use std::mem::size_of;
        let largest = size_of::<P::Acquire>()
            .max(size_of::<P::Token>())
            .max(size_of::<P::Release>());
        let phase = size_of::<SessionPhase<P>>();
        assert!(
            phase <= largest + 8,
            "{core}: a {phase} B phase, but its largest value is {largest} B"
        );
    }

    /// Every phase holds one operation's values — an acquire, a token or a
    /// release, never two — so a pooled or cloned machine pays for one.
    #[test]
    fn a_session_phase_holds_one_operations_values() {
        use crate::chain::{DoubleFilter, SplitMa, Theorem11};
        assert_phase_holds_one_value::<crate::splitter::SplitterCore>("SplitterCore");
        assert_phase_holds_one_value::<crate::pf::MeCore>("MeCore");
        assert_phase_holds_one_value::<crate::tournament::TreeCore>("TreeCore");
        assert_phase_holds_one_value::<crate::split::SplitCore>("SplitCore");
        assert_phase_holds_one_value::<crate::filter::FilterCore>("FilterCore");
        assert_phase_holds_one_value::<crate::ma::MaCore>("MaCore");
        assert_phase_holds_one_value::<crate::levelarray::LevelArrayCore>("LevelArrayCore");
        assert_phase_holds_one_value::<crate::onetime::OneTimeCore>("OneTimeCore");
        assert_phase_holds_one_value::<SplitMa>("SplitMa");
        assert_phase_holds_one_value::<DoubleFilter>("DoubleFilter");
        assert_phase_holds_one_value::<Theorem11>("Theorem11");
    }

    #[test]
    fn name_invariants_pin_their_messages() {
        let mem = SimMemory::new(&Layout::new());
        let check = |machines: &[Session<Fixed>]| {
            let done = vec![false; machines.len()];
            let world = World {
                mem: &mem,
                machines,
                done: &done,
            };
            (
                unique_names_invariant(&world),
                crash_robust_uniqueness(&world),
            )
        };
        let holds = |name| session(&[], Some(name));
        let idle = session(&[], None);
        assert_eq!(holds(2).holding(), Some(2));
        assert_eq!(session(&[1, 3], Some(2)).leaked(), &[1, 3]);

        assert_eq!(check(&[holds(1), idle.clone(), holds(2)]), (Ok(()), Ok(())));
        let out_of_range = "machine 1 holds out-of-range name 4 (D = 4)";
        assert_eq!(
            check(&[holds(1), holds(4)]),
            (err(out_of_range), err(out_of_range))
        );
        assert_eq!(
            check(&[holds(3), idle, holds(3)]),
            (
                err("machines 0 and 2 concurrently hold name 3"),
                err("machine 0 and machine 2 both claim name 3")
            )
        );
        for (machines, message) in [
            (
                vec![holds(1), session(&[5], None)],
                "machine 1 leaked out-of-range name 5 (D = 4)",
            ),
            (
                vec![holds(2), session(&[2], None)],
                "machine 0 and machine 1 (leaked) both claim name 2",
            ),
            (
                vec![session(&[1], None), session(&[0, 1], None)],
                "machine 0 (leaked) and machine 1 (leaked) both claim name 1",
            ),
            (
                vec![holds(0), session(&[2, 2], None)],
                "machine 1 (leaked) and machine 1 (leaked) both claim name 2",
            ),
            (
                vec![session(&[3], None), holds(3)],
                "machine 0 (leaked) and machine 1 both claim name 3",
            ),
            (
                vec![holds(0), session(&[1], Some(1))],
                "machine 1 (leaked) and machine 1 both claim name 1",
            ),
        ] {
            assert_eq!(check(&machines), (Ok(()), err(message)));
        }
    }
}
