//! The transition relation: which moves a state enables, what a move
//! does, and how a move is written down.
//!
//! A [`Move`] is one edge of the global state graph: a step of one running
//! machine or, under the crash–restart fault model
//! ([`ModelChecker::faults`]), a crash of one. The DFS, the breadth-first
//! loop on every store, and schedule replay all take their moves from this
//! module, so they walk one graph:
//!
//! * **enumerator** ([`Relation::moves`]): a state's enabled moves in the
//!   order every engine takes them. First come the steps of running
//!   machines, by index. Then, while the fault budget is positive, come
//!   the crashes of running machines whose [`StepMachine::can_crash`]
//!   holds.
//! * **POR gate** ([`Relation::plan`]): an ample singleton
//!   ([`AmpleCtx::choose`]) only at zero budget. A crash may preempt any
//!   step, so no step is ample while a crash is possible.
//! * **effect** ([`Relation::apply`]): a step, or a budget decrement plus
//!   [`StepMachine::crash_restart`].
//! * **codec**: [`Move::entry`] and [`Relation::decode`] map a move to and
//!   from its schedule entry ([`CRASH_SCHEDULE_BASE`]` + i` for a crash of
//!   machine `i`); [`Move::via`] and [`via_entry`] map it to and from the
//!   byte the spanning tree stores.
//!
//! [`Replay`] takes a schedule through the same relation. It skips an
//! entry whose move the state does not enable, so a replayed schedule
//! never takes a move that no engine takes.

use crate::checker::{ModelChecker, World, CRASH_SCHEDULE_BASE};
use crate::por::AmpleCtx;
use crate::StepMachine;
use llr_mem::{Loc, Memory as _, SimMemory, Word};
use std::borrow::Borrow;
use std::fmt;

/// One edge of the global state graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Move {
    /// Machine `i` executes its next atomic statement.
    Step(usize),
    /// Machine `i` crashes and restarts, spending one unit of fault budget.
    Crash(usize),
}

impl Move {
    /// The machine the move acts on.
    pub(crate) fn machine(self) -> usize {
        match self {
            Move::Step(i) | Move::Crash(i) => i,
        }
    }

    /// The schedule entry that names the move.
    pub(crate) fn entry(self) -> usize {
        match self {
            Move::Step(i) => i,
            Move::Crash(i) => CRASH_SCHEDULE_BASE + i,
        }
    }

    /// The schedule entry as the byte the spanning tree stores.
    pub(crate) fn via(self) -> u8 {
        u8::try_from(self.entry()).expect("the spanning tree stores a move in one byte")
    }
}

/// Renders the move as in a trace: `p3` steps machine 3, `p3 CRASH`
/// crashes it.
impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Step(i) => write!(f, "p{i}"),
            Move::Crash(i) => write!(f, "p{i} CRASH"),
        }
    }
}

/// The schedule entry of a move the spanning tree stored as `via`.
pub(crate) fn via_entry(via: u8) -> usize {
    usize::from(via)
}

/// Which of a state's enabled moves an engine takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Plan {
    /// Only `Step(i)`: the ample singleton of partial-order reduction.
    Ample(usize),
    /// Every enabled move except `Step(i)`, if one is named. The cycle
    /// proviso names the ample step already taken when it rejects the
    /// singleton.
    AllBut(Option<usize>),
}

/// The transition relation of one configured [`ModelChecker`].
#[derive(Clone, Copy)]
pub(crate) struct Relation {
    /// The fault-budget register, if the fault model is on.
    budget: Option<Loc>,
    /// Whether partial-order reduction may pick ample singletons.
    por: bool,
}

impl Relation {
    /// The relation over `machines` machines, with the fault-budget
    /// register `budget` if the fault model is on, and with partial-order
    /// reduction if `por`.
    ///
    /// # Panics
    ///
    /// With the fault model on, if there are more machines than crash
    /// entries can name ([`CRASH_SCHEDULE_BASE`]).
    pub(crate) fn new(budget: Option<Loc>, por: bool, machines: usize) -> Self {
        assert!(
            budget.is_none() || machines <= CRASH_SCHEDULE_BASE,
            "the crash–restart fault model supports at most {CRASH_SCHEDULE_BASE} machines"
        );
        Self { budget, por }
    }

    /// The fault budget left in a state with registers `snap`: `0` when
    /// the fault model is off.
    fn budget(self, snap: &[Word]) -> Word {
        self.budget.map_or(0, |l| snap[l.index()])
    }

    /// The most moves one state can enable: a step per machine, plus a
    /// crash per machine while the fault model is on.
    pub(crate) fn max_moves(self, machines: usize) -> usize {
        if self.budget.is_some() {
            2 * machines
        } else {
            machines
        }
    }

    /// The POR gate: an ample singleton, if reduction is on, the budget is
    /// spent, and [`AmpleCtx::choose`] finds one; otherwise every move.
    /// `machines` are owned or borrowed.
    pub(crate) fn plan<M: StepMachine, B: Borrow<M>>(
        self,
        ample: &mut AmpleCtx,
        snap: &[Word],
        machines: &[B],
        done: &[bool],
    ) -> Plan {
        let a = if self.por && self.budget(snap) == 0 {
            ample.choose::<M, B>(machines, done)
        } else {
            None
        };
        a.map_or(Plan::AllBut(None), Plan::Ample)
    }

    /// The moves `plan` takes from the state `(snap, machines, done)`, in
    /// the order every engine takes them. `machines` are owned or borrowed.
    pub(crate) fn moves<'a, M: StepMachine + 'a, B: Borrow<M>>(
        self,
        snap: &[Word],
        machines: &'a [B],
        done: &'a [bool],
        plan: Plan,
    ) -> impl Iterator<Item = Move> + 'a {
        let n = machines.len();
        let (steps, crashes, skip) = match plan {
            Plan::Ample(a) => (a..a + 1, 0..0, None),
            Plan::AllBut(skip) if self.budget(snap) > 0 => (0..n, 0..n, skip),
            Plan::AllBut(skip) => (0..n, 0..0, skip),
        };
        let steps = steps.filter(move |&i| !done[i] && Some(i) != skip);
        let crashes = crashes.filter(move |&i| !done[i] && machines[i].borrow().can_crash());
        steps.map(Move::Step).chain(crashes.map(Move::Crash))
    }

    /// Takes `mv` over the registers `mem`, where `m` is the machine it
    /// moves. Returns whether `m` is done afterwards.
    #[inline]
    pub(crate) fn apply<M: StepMachine>(self, mv: Move, mem: &SimMemory, m: &mut M) -> bool {
        match mv {
            Move::Step(_) => m.step(mem).is_done(),
            Move::Crash(_) => {
                let loc = self.budget.expect("a crash needs the fault model");
                mem.write(loc, mem.read(loc) - 1);
                m.crash_restart().is_done()
            }
        }
    }

    /// The move schedule entry `e` names. Entries from
    /// [`CRASH_SCHEDULE_BASE`] on are crashes only when the fault model is
    /// on; without it every entry is a step.
    fn decode(self, e: usize) -> Move {
        match e.checked_sub(CRASH_SCHEDULE_BASE) {
            Some(i) if self.budget.is_some() => Move::Crash(i),
            _ => Move::Step(e),
        }
    }
}

/// A schedule replayed from the initial state, one entry at a time.
pub(crate) struct Replay<M> {
    rel: Relation,
    pub(crate) mem: SimMemory,
    pub(crate) machines: Vec<M>,
    pub(crate) done: Vec<bool>,
    /// Scratch copy of `mem` for the enumerator.
    snap: Vec<Word>,
}

impl<M: StepMachine> Replay<M> {
    /// The initial state of `mc`.
    pub(crate) fn new(mc: &ModelChecker<M>) -> Self {
        Self {
            rel: mc.relation(),
            mem: SimMemory::new(mc.layout()),
            machines: mc.machines().to_vec(),
            done: vec![false; mc.machines().len()],
            snap: Vec::new(),
        }
    }

    /// Takes the move entry `e` names if the state enables it. Returns the
    /// move and whether it was taken.
    pub(crate) fn take(&mut self, e: usize) -> (Move, bool) {
        let mv = self.rel.decode(e);
        self.mem.snapshot_into(&mut self.snap);
        let enabled = self
            .rel
            .moves(&self.snap, &self.machines, &self.done, Plan::AllBut(None))
            .any(|m| m == mv);
        if !enabled {
            return (mv, false);
        }
        let i = mv.machine();
        self.done[i] = self.rel.apply(mv, &self.mem, &mut self.machines[i]);
        (mv, true)
    }

    /// The current state, as invariants see it.
    pub(crate) fn world(&self) -> World<'_, M> {
        World {
            mem: &self.mem,
            machines: &self.machines,
            done: &self.done,
        }
    }
}
