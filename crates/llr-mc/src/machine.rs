//! The step-machine abstraction: a process as an explicit state machine.

use crate::por::Footprint;
use llr_mem::Memory;

/// Whether a machine can take further steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MachineStatus {
    /// The machine has more steps to take (it may be spinning on a busy-wait
    /// loop — the checker's visited-state memoization handles such cycles).
    Running,
    /// The machine has finished its workload; the scheduler must not step it
    /// again.
    Done,
}

impl MachineStatus {
    /// `true` iff the machine has finished.
    pub fn is_done(self) -> bool {
        matches!(self, MachineStatus::Done)
    }
}

/// A process expressed as an explicit state machine over shared registers.
///
/// Implementations must obey three rules for model checking to be sound:
///
/// 1. **One shared access per step.** Each [`step`](Self::step) call performs
///    at most one [`Memory::read`] or [`Memory::write`] — the paper's
///    atomicity granularity. Purely local transitions inside a step are
///    fine (and encouraged, to keep the state space small), as long as no
///    second shared access happens.
/// 2. **Determinism.** Given the machine's state and the values read,
///    `step` must be deterministic; all nondeterminism lives in the
///    scheduler.
/// 3. **Faithful keys.** [`key`](Self::key) must encode *all* state that
///    influences future behaviour (program counter and every live local).
///    Two machines with equal keys and equal shared memory must behave
///    identically forever. Omitting a live local from the key makes the
///    checker unsound (it would merge distinct states).
///
/// Machines are `Clone` so the checker can branch, and are reused on real
/// threads by the `llr-core` harness (where `step` is driven in a loop over
/// an `AtomicMemory`).
pub trait StepMachine: Clone {
    /// Executes the next atomic statement.
    ///
    /// Returns [`MachineStatus::Done`] when the machine's entire workload is
    /// complete; after that the scheduler will not call `step` again.
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus;

    /// Appends a canonical encoding of the machine's local state to `out`.
    fn key(&self, out: &mut Vec<u64>);

    /// One-line human-readable state description for counterexample traces.
    fn describe(&self) -> String;

    /// Describes, without stepping, what the machine's next step and
    /// remaining lifetime may access, for partial-order reduction.
    ///
    /// The declared sets must **over-approximate** actual behaviour: every
    /// register the next step reads (writes) must be in the footprint's
    /// next-step read (write) set, every register any later step may touch
    /// must be in the future sets, and a step that may change whether or
    /// which name the machine holds — or whether it is done — must be marked
    /// [`Footprint::set_visible`]. `tests/footprint_audit.rs` checks both
    /// halves of this contract against recorded accesses: each step must
    /// stay inside its declared next-step sets, and inside every future
    /// set the machine claimed at any earlier point of the run.
    ///
    /// The default declares the footprint unknown, which soundly disables
    /// reduction around this machine.
    fn footprint(&self, fp: &mut Footprint) {
        fp.set_unknown();
    }

    /// Whether the crash–restart fault model may crash this machine
    /// ([`ModelChecker::faults`](crate::ModelChecker::faults)).
    ///
    /// The default is `false`: machines that do not opt in are never
    /// crashed, so a fault budget on a mixed world only perturbs the
    /// machines that model fault-prone processes.
    fn can_crash(&self) -> bool {
        false
    }

    /// Tears the machine down as if its process crashed at this exact
    /// point — and, if the machine models a restartable process, brings
    /// up its replacement.
    ///
    /// Contract, mirroring [`step`](Self::step):
    ///
    /// * **No shared access.** A crash is a scheduler event; the engine
    ///   itself accounts for the fault budget. The shared registers keep
    ///   exactly the values the crashed process had written — torn state
    ///   is the point of the model.
    /// * **Determinism.** Given the machine's state, the result must be
    ///   deterministic (all nondeterminism — *when* the crash happens —
    ///   lives in the scheduler, which explores a crash transition next
    ///   to every ordinary step while budget remains).
    /// * **Faithful keys.** Whatever the crash changes (a tombstone flag,
    ///   a fresh incarnation's state) must be reflected in
    ///   [`key`](Self::key).
    ///
    /// Returns [`MachineStatus::Done`] when the crash is terminal (no
    /// replacement — the process freezes forever) and
    /// [`MachineStatus::Running`] when a restarted incarnation takes
    /// over. Only called when [`can_crash`](Self::can_crash) is `true`.
    fn crash_restart(&mut self) -> MachineStatus {
        unreachable!("crash_restart on a machine that reports can_crash() == false")
    }
}
