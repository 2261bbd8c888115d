//! The modified Peterson–Fischer two-process mutual exclusion block
//! (Figure 3 of the paper).
//!
//! FILTER's tournament trees are built from two-process mutual exclusion
//! blocks (`ME`). The paper splits Peterson & Fischer's 1977 algorithm
//! into three procedures so that a process can compete in many trees "in
//! parallel":
//!
//! * [`MeEnter`] — declare interest and take position (done **once** per
//!   block per `GetName`);
//! * [`check`] — a **single shared read** asking "may I proceed?"; a
//!   process that reads `false` is free to go compete elsewhere and retry
//!   later (this is the modification that makes the wait-free FILTER
//!   possible);
//! * [`release`] — a single write of `nil`.
//!
//! Each block has two single-writer registers `R[0]`, `R[1]`, one per
//! direction (the "multi-writer variables" remark in the paper refers to
//! different processes writing the same register across time — at any
//! instant at most one process per direction uses a block, by the
//! tournament structure). Values are `nil` or a bit.
//!
//! # Reconstruction note
//!
//! Figure 3 is missing from the scan available to us; the algorithm is
//! reconstructed from the algebra that Lemma 7's proof uses:
//! an entrant from direction `β` that reads opponent value `v ≠ nil`
//! writes `β ⊕ v`, and `Check` from direction `β` with own value `r` and
//! opponent value `v` returns `v = nil ∨ (β ⊕ (r ≠ v))` — so direction 0
//! waits for registers that *differ*, direction 1 for registers that
//! *agree*, and a newly arriving opponent always defers to a process
//! already in place.
//!
//! The entry protocol must write *something* before reading the opponent
//! (otherwise two simultaneous entrants can each read `nil` and both pass
//! their first check). Writing the direction bit as that preliminary value
//! is still unsafe: model checking found a schedule in which an opponent's
//! check matches the preliminary bit while the final value is still
//! pending, letting both competitors into the critical section. The
//! reconstruction therefore writes a distinct `entering` marker first;
//! `Check` treats `entering` as "do not proceed" and an entrant reading
//! `entering` treats the opponent's position as unknown (uses its own
//! direction bit). Enter is 3 shared accesses, within the paper's budget
//! of 4; `Check` remains a single read. Mutual exclusion, deadlock
//! freedom and the deference property are verified exhaustively in
//! [`spec`] (experiment E8).

use crate::types::enc::{BIT0, BIT1, ENTERING, NIL};
use crate::types::Pid;
use llr_mc::Footprint;
use llr_mem::{Layout, Loc, Memory, Word};

/// A competitor's side of an ME block: `0` = left subtree, `1` = right.
pub type Side = usize;

/// The two registers of one two-process ME block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeRegs {
    /// `R[β]` is written by the direction-`β` competitor.
    pub r: [Loc; 2],
}

impl MeRegs {
    /// Allocates the block's registers (both initially `nil`).
    pub fn allocate(layout: &mut Layout, name: &str) -> Self {
        Self {
            r: [
                layout.scalar(format!("{name}.R0"), NIL),
                layout.scalar(format!("{name}.R1"), NIL),
            ],
        }
    }
}

/// Program counter of an in-progress `Enter(ME, β)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum EnterPc {
    /// Write the `entering` marker to `R[β]`.
    WritePrelim,
    /// Read the opponent register `R[1-β]`.
    ReadOpp,
    /// Write the final position value (`β ⊕ v` for an opponent bit `v`,
    /// else `β`).
    WriteFinal,
}

/// `Enter(ME, β)` as a micro step machine (3 shared accesses).
///
/// After completion, [`MeEnter::own_value`] is the register value this
/// competitor holds, which the subsequent [`check`] calls need.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeEnter {
    side: Side,
    pc: EnterPc,
    own: Word,
}

impl MeEnter {
    /// Starts an `Enter` from direction `side`.
    ///
    /// # Panics
    ///
    /// Panics if `side > 1`.
    pub fn new(side: Side) -> Self {
        assert!(side <= 1, "ME blocks have exactly two sides");
        Self {
            side,
            pc: EnterPc::WritePrelim,
            own: side as Word,
        }
    }

    /// Executes one atomic statement; returns the final own-register value
    /// when the `Enter` completes.
    pub fn step<M: Memory + ?Sized>(&mut self, regs: &MeRegs, mem: &M) -> Option<Word> {
        match self.pc {
            EnterPc::WritePrelim => {
                mem.write(regs.r[self.side], ENTERING);
                self.pc = EnterPc::ReadOpp;
                None
            }
            EnterPc::ReadOpp => {
                let v = mem.read(regs.r[1 - self.side]);
                self.own = if v == BIT0 || v == BIT1 {
                    (self.side as Word) ^ v
                } else {
                    // nil, or an opponent whose position is still unknown
                    // (entering): take our direction bit.
                    self.side as Word
                };
                self.pc = EnterPc::WriteFinal;
                None
            }
            EnterPc::WriteFinal => {
                mem.write(regs.r[self.side], self.own);
                Some(self.own)
            }
        }
    }

    /// The competitor's final register value (valid after completion).
    pub fn own_value(&self) -> Word {
        self.own
    }

    /// Declares the register the next [`step`](Self::step) touches into
    /// `fp`; returns `true` iff that step completes the `Enter`.
    pub fn footprint(&self, regs: &MeRegs, fp: &mut Footprint) -> bool {
        match self.pc {
            EnterPc::WritePrelim => {
                fp.write(regs.r[self.side]);
                false
            }
            EnterPc::ReadOpp => {
                fp.read(regs.r[1 - self.side]);
                false
            }
            EnterPc::WriteFinal => {
                fp.write(regs.r[self.side]);
                true
            }
        }
    }

    /// Encodes the micro-machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.side as u64);
        out.push(self.pc as u64);
        out.push(self.own);
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("MeEnter(β={}, @{:?})", self.side, self.pc)
    }
}

/// `Check(ME, β)`: one shared read; `true` means the competitor holds the
/// block's critical section (it stays held until [`release`]).
///
/// `own` must be the value returned by the matching [`MeEnter`].
pub fn check<M: Memory + ?Sized>(regs: &MeRegs, side: Side, own: Word, mem: &M) -> bool {
    let v = mem.read(regs.r[1 - side]);
    if v == NIL {
        return true;
    }
    if v == ENTERING {
        // The opponent has declared interest but not yet taken a position:
        // do not proceed (its final value is about to land).
        return false;
    }
    // β ⊕ (own ≠ v): side 0 proceeds when the registers differ, side 1
    // when they agree.
    let differ = u64::from(own != v);
    (side as u64) ^ differ == 1
}

/// `Release(ME, β)`: one shared write of `nil`.
///
/// The release's only access: Release ordering suffices (see llr-mem's
/// `AtomicMemory` docs). This covers every FILTER and tournament release,
/// both of which funnel through here.
pub fn release<M: Memory + ?Sized>(regs: &MeRegs, side: Side, mem: &M) {
    mem.write_rel(regs.r[side], NIL);
}

/// Declares [`check`]'s single shared read into `fp`.
pub fn check_footprint(regs: &MeRegs, side: Side, fp: &mut Footprint) {
    fp.read(regs.r[1 - side]);
}

/// Declares [`release`]'s single shared write into `fp`.
pub fn release_footprint(regs: &MeRegs, side: Side, fp: &mut Footprint) {
    fp.write(regs.r[side]);
}

/// Adds direction `side`'s lifetime footprint on one block — its writes to
/// its own register and its reads of the opponent register — to `fp`'s
/// future sets.
pub fn side_future_footprint(regs: &MeRegs, side: Side, fp: &mut Footprint) {
    fp.future_write(regs.r[side]);
    fp.future_read(regs.r[1 - side]);
}

/// Sanity helper: `true` iff `w` is a legal register value.
pub fn valid_reg_value(w: Word) -> bool {
    w == NIL || w == BIT0 || w == BIT1 || w == ENTERING
}

/// The ME block's [`ProtocolCore`][crate::session::ProtocolCore]: one
/// competitor's side and the block's registers. The "acquire" is the
/// composite enter-then-spin of [`MeAcquire`]; the token is the cached
/// own-register value while holding the critical section; the release is
/// the single `nil` write.
#[derive(Clone, Copy, Debug)]
pub struct MeCore {
    regs: MeRegs,
    side: Side,
}

impl MeCore {
    /// A core for the direction-`side` competitor on block `regs`.
    pub fn new(regs: MeRegs, side: Side) -> Self {
        Self { regs, side }
    }

    /// The competitor's direction.
    pub fn side(&self) -> Side {
        self.side
    }
}

/// PF's composite acquire machine: `Enter` once, then spin on [`check`].
#[derive(Clone, Copy, Debug)]
pub enum MeAcquire {
    /// Executing the 3-access `Enter`.
    Entering(MeEnter),
    /// Spinning on `check` with the cached own value.
    Waiting {
        /// The own-register value the matching `Enter` settled on.
        own: Word,
    },
}

impl crate::session::ProtocolCore for MeCore {
    type Acquire = MeAcquire;
    /// The own-register value held while inside the critical section.
    type Token = Word;
    type Release = ();

    // Pure local transition; the op's first shared access is its own
    // scheduled step in every build profile.
    const LAZY_START: bool = true;

    fn pid(&self) -> Pid {
        self.side as Pid
    }

    fn begin_acquire(&self) -> MeAcquire {
        MeAcquire::Entering(MeEnter::new(self.side))
    }

    fn step_acquire<M: Memory + ?Sized>(&self, a: &mut MeAcquire, mem: &M) -> Option<Word> {
        match a {
            MeAcquire::Entering(op) => {
                if let Some(own) = op.step(&self.regs, mem) {
                    *a = MeAcquire::Waiting { own };
                }
                None
            }
            MeAcquire::Waiting { own } => {
                if check(&self.regs, self.side, *own, mem) {
                    Some(*own)
                } else {
                    None
                }
            }
        }
    }

    fn begin_release(&self, _own: Word) {}

    fn step_release<M: Memory + ?Sized>(&self, _r: &mut (), mem: &M) -> bool {
        release(&self.regs, self.side, mem);
        true
    }

    fn acquire_footprint(&self, a: &MeAcquire, fp: &mut Footprint) -> bool {
        match a {
            MeAcquire::Entering(op) => {
                op.footprint(&self.regs, fp);
                // Completing the Enter only moves to Waiting; the acquire
                // itself continues.
                false
            }
            MeAcquire::Waiting { .. } => {
                check_footprint(&self.regs, self.side, fp);
                true
            }
        }
    }

    fn release_footprint(&self, _r: &(), fp: &mut Footprint) -> bool {
        release_footprint(&self.regs, self.side, fp);
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        side_future_footprint(&self.regs, self.side, fp);
    }

    fn release_future_footprint(&self, _r: &(), fp: &mut Footprint) {
        fp.future_write(self.regs.r[self.side]);
    }

    fn key_acquire(&self, a: &MeAcquire, out: &mut Vec<Word>) {
        match a {
            MeAcquire::Entering(op) => {
                out.push(0);
                op.key(out);
            }
            MeAcquire::Waiting { own } => {
                out.push(1);
                out.push(*own);
            }
        }
    }

    fn key_token(&self, own: &Word, out: &mut Vec<Word>) {
        out.push(*own);
    }

    fn key_release(&self, _r: &(), out: &mut Vec<Word>) {
        out.push(0);
    }

    fn describe_actor(&self) -> String {
        format!("β{}", self.side)
    }

    fn describe_acquire(&self, a: &MeAcquire) -> String {
        match a {
            MeAcquire::Entering(op) => op.describe(),
            MeAcquire::Waiting { .. } => "Waiting".into(),
        }
    }

    fn describe_token(&self, _own: &Word) -> String {
        "CRITICAL".into()
    }

    fn describe_release(&self, _r: &()) -> String {
        "Releasing".into()
    }
}

pub mod spec {
    //! Model-checkable specification: two competitors repeatedly entering,
    //! spinning on `check`, and releasing one ME block. The session loop
    //! and key encoding are the generic ones from [`crate::session`].

    use super::*;
    use crate::session::Session;
    use llr_mc::{ModelChecker, World};

    /// One competitor performing `sessions` × (enter; spin; critical;
    /// release) from a fixed side: the generic session machine over
    /// [`MeCore`].
    pub type MeUser = Session<MeCore>;

    impl MeUser {
        /// A competitor on `regs` from direction `side`.
        pub fn new(regs: MeRegs, side: Side, sessions: u8) -> Self {
            Session::start(MeCore::new(regs, side), sessions)
        }

        /// `true` iff currently inside the critical section.
        pub fn in_critical(&self) -> bool {
            self.holding_token().is_some()
        }
    }

    /// At most one competitor in the critical section.
    pub fn mutual_exclusion(world: &World<'_, MeUser>) -> Result<(), String> {
        let inside = world.machines.iter().filter(|m| m.in_critical()).count();
        if inside > 1 {
            Err(format!("{inside} competitors in the ME critical section"))
        } else {
            Ok(())
        }
    }

    /// The deadlock-freedom invariant: never are both competitors
    /// `Waiting` with both their `check`s durably false. Because `check`
    /// depends only on the registers, testing the current registers
    /// whenever both machines wait is exact.
    pub fn no_deadlock_invariant(world: &World<'_, MeUser>) -> Result<(), String> {
        let waiting: Vec<(&MeCore, Word)> = world
            .machines
            .iter()
            .filter_map(|m| match m.acquiring() {
                Some(MeAcquire::Waiting { own }) => Some((m.core(), *own)),
                _ => None,
            })
            .collect();
        if waiting.len() == 2 {
            let blocked = waiting
                .iter()
                .all(|(core, own)| !check(&core.regs, core.side, *own, world.mem));
            if blocked {
                return Err("both competitors durably blocked (deadlock)".into());
            }
        }
        Ok(())
    }

    /// Builds the model checker for two competitors doing `sessions`
    /// sessions each (shared by the exhaustive checks and the E2 driver).
    pub fn checker(sessions: u8) -> ModelChecker<MeUser> {
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let machines = vec![
            MeUser::new(regs, 0, sessions),
            MeUser::new(regs, 1, sessions),
        ];
        ModelChecker::new(layout, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::spec::*;
    use super::*;
    use crate::session::{run_check, Engine};
    use llr_mem::SimMemory;

    fn fresh() -> (MeRegs, SimMemory) {
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let mem = SimMemory::new(&layout);
        (regs, mem)
    }

    fn enter_fully(regs: &MeRegs, side: Side, mem: &SimMemory) -> Word {
        let mut op = MeEnter::new(side);
        loop {
            if let Some(own) = op.step(regs, mem) {
                return own;
            }
        }
    }

    #[test]
    fn solo_entrant_passes_check() {
        for side in [0, 1] {
            let (regs, mem) = fresh();
            let own = enter_fully(&regs, side, &mem);
            assert!(check(&regs, side, own, &mem), "solo β={side} must pass");
        }
    }

    #[test]
    fn enter_costs_3_check_1_release_1() {
        let (regs, mem) = fresh();
        let own = enter_fully(&regs, 0, &mem);
        assert_eq!(mem.accesses(), 3, "Enter is 3 accesses (≤ the paper's 4)");
        mem.reset_accesses();
        let _ = check(&regs, 0, own, &mem);
        assert_eq!(mem.accesses(), 1, "Check is exactly 1 access");
        mem.reset_accesses();
        release(&regs, 0, &mem);
        assert_eq!(mem.accesses(), 1, "Release is exactly 1 access");
    }

    #[test]
    fn second_entrant_defers_to_holder() {
        // The deference property Lemma 7 needs: if p is in place (final
        // value written) and q enters afterwards, p's next check succeeds
        // and q's fails.
        for p_side in [0, 1] {
            let (regs, mem) = fresh();
            let p_own = enter_fully(&regs, p_side, &mem);
            let q_own = enter_fully(&regs, 1 - p_side, &mem);
            assert!(check(&regs, p_side, p_own, &mem), "holder must pass");
            assert!(
                !check(&regs, 1 - p_side, q_own, &mem),
                "newcomer must defer"
            );
        }
    }

    #[test]
    fn alternation_after_release() {
        // p wins, releases, re-enters while q waits: q must now win (FIFO
        // between two competitors).
        let (regs, mem) = fresh();
        let p_own = enter_fully(&regs, 0, &mem);
        let q_own = enter_fully(&regs, 1, &mem);
        assert!(check(&regs, 0, p_own, &mem));
        release(&regs, 0, &mem);
        let p_own2 = enter_fully(&regs, 0, &mem);
        assert!(check(&regs, 1, q_own, &mem), "waiting q must now win");
        assert!(!check(&regs, 0, p_own2, &mem), "re-entrant p must defer");
    }

    #[test]
    fn exhaustive_mutual_exclusion() {
        let stats = run_check(checker(4), &Engine::Sequential, mutual_exclusion).unwrap();
        assert!(stats.states > 200, "state space suspiciously small");
    }

    #[test]
    fn exhaustive_no_deadlock() {
        let stats = run_check(checker(4), &Engine::Sequential, no_deadlock_invariant).unwrap();
        assert!(stats.states > 200);
    }

    #[test]
    fn live_under_fair_scheduling() {
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let machines = vec![MeUser::new(regs, 0, 20), MeUser::new(regs, 1, 20)];
        let steps = llr_mc::ModelChecker::new(layout, machines)
            .round_robin(100_000)
            .expect("two fair competitors must not livelock");
        assert!(steps < 2_000);
    }

    #[test]
    fn exhaustive_always_terminable() {
        // True deadlock-freedom: from every reachable state of two
        // competitors with 3 sessions each, some schedule finishes.
        let mut layout = Layout::new();
        let regs = MeRegs::allocate(&mut layout, "ME");
        let machines = vec![MeUser::new(regs, 0, 3), MeUser::new(regs, 1, 3)];
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("no trap states");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    fn register_values_stay_valid() {
        let (regs, mem) = fresh();
        let _ = enter_fully(&regs, 0, &mem);
        let _ = enter_fully(&regs, 1, &mem);
        assert!(valid_reg_value(mem.read(regs.r[0])));
        assert!(valid_reg_value(mem.read(regs.r[1])));
    }
}
