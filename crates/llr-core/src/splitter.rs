//! The long-lived splitter building block (Figure 2 of the paper).
//!
//! A splitter `B` dynamically partitions the processes accessing it into
//! three output sets `-1`, `0`, `1`. Its correctness condition: if at most
//! `ℓ` processes access `B` concurrently (`2 ≤ ℓ`), then **each** output
//! set holds at most `ℓ - 1` processes at any time, i.e. for every
//! `d ∈ {-1, 0, 1}`:
//!
//! ```text
//! (# p : Inside(B, p) ∧ e_p(B) = d) ≤ ℓ - 1.
//! ```
//!
//! SPLIT stacks `k-1` levels of these to whittle `k` processes down to one
//! per leaf.
//!
//! # How it works
//!
//! `LAST` holds the id of the last process to enter; re-reading it detects
//! interference ("was I overtaken?"), in which case the process joins the
//! middle set `0`. The two `ADVICE` registers pass advice between
//! *sequential* entrants — the only case in which all entrants could
//! otherwise pile into the same outer set. An entrant that took advice `a`
//! tells the next entrant to take `-a` (statement 4, and statement 6 as a
//! second-level backup that is only written when no interference was seen);
//! a releasing process re-advises its own (now vacated) set, or invalidates
//! the first-level advice with `⊥` so readers fall through to the
//! second-level advice.
//!
//! # Reconstruction note
//!
//! The scan of Figure 2 available to us is OCR-corrupted (the `⊥` glyph and
//! several guards are garbled). The code here is reconstructed from the
//! paper's prose and from the case analysis of Lemma 4 — e.g. case 1 needs
//! `Release` to write `advice` (not `¬advice`) when `LAST = p`, and case 2
//! needs a release path that writes `⊥` and is taken exactly when the
//! invocation did *not* execute statement 6 (`¬adv2`). The reconstruction
//! is validated exhaustively: [`spec::check_all_inits`] explores **all**
//! interleavings of ℓ ∈ {2, 3} processes with repeated invocations from
//! every initial register assignment, checking the output-set invariant in
//! every reachable state (see `tests` and experiment E2).
//!
//! Accesses per operation: `Enter` ≤ 7, `Release` ≤ 2 — the paper's
//! "at most 9 shared variable accesses".

use crate::types::enc::{self, Adv};
use crate::types::{Direction, Pid};
use llr_mc::Footprint;
use llr_mem::{Layout, Loc, Memory, Word};

/// The three shared registers of one splitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitterRegs {
    /// `LAST ∈ {0..S-1}`: id of the last process to start `Enter`.
    pub last: Loc,
    /// `ADVICE[1] ∈ {-1, ⊥, 1}`.
    pub a1: Loc,
    /// `ADVICE[2] ∈ {-1, 1}`.
    pub a2: Loc,
}

impl SplitterRegs {
    /// Allocates the three registers in `layout` under `name`, with the
    /// paper's initial values (`ADVICE[1] = ADVICE[2] = 1`; `LAST`
    /// arbitrary, here 0).
    pub fn allocate(layout: &mut Layout, name: &str) -> Self {
        Self {
            last: layout.scalar(format!("{name}.LAST"), 0),
            a1: layout.scalar(format!("{name}.A1"), enc::POS),
            a2: layout.scalar(format!("{name}.A2"), enc::POS),
        }
    }

    /// Adds all three registers to `fp`'s future read and write sets: the
    /// lifetime footprint of any process that may still enter or release
    /// this splitter.
    pub fn future_footprint(&self, fp: &mut Footprint) {
        for loc in [self.last, self.a1, self.a2] {
            fp.future_read(loc);
            fp.future_write(loc);
        }
    }
}

/// Program counter of an in-progress `Enter(B, p)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum EnterPc {
    /// Statement 1: `LAST ← p`.
    WriteLast,
    /// Statement 2: `advice ← ADVICE[1]`.
    ReadA1,
    /// Statement 3: `if advice = ⊥ then advice ← ADVICE[2]`.
    ReadA2,
    /// Statement 4: `ADVICE[1] ← ¬advice`.
    WriteA1,
    /// Statement 5: `adv2 ← (LAST = p)`.
    ReadLast1,
    /// Statement 6: `if adv2 then ADVICE[2] ← ¬advice`.
    WriteA2,
    /// Statement 7: `if LAST = p then return advice else return 0`.
    ReadLast2,
}

/// One `Enter(B, p)` as a micro step machine: call [`EnterOp::step`]
/// repeatedly (one shared access per call) until it yields the output set.
///
/// After completion, [`advice`](EnterOp::advice) and
/// [`adv2`](EnterOp::adv2) expose the "static local variables" that the
/// corresponding [`ReleaseOp`] needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EnterOp {
    pc: EnterPc,
    advice: Adv,
    adv2: bool,
}

impl Default for EnterOp {
    fn default() -> Self {
        Self::new()
    }
}

impl EnterOp {
    /// Starts a fresh `Enter`.
    pub fn new() -> Self {
        Self {
            pc: EnterPc::WriteLast,
            advice: Adv::Pos,
            adv2: false,
        }
    }

    /// Executes one atomic statement on behalf of process `pid`.
    ///
    /// Returns `Some(direction)` when the `Enter` completes.
    pub fn step<M: Memory + ?Sized>(
        &mut self,
        regs: &SplitterRegs,
        pid: Pid,
        mem: &M,
    ) -> Option<Direction> {
        match self.pc {
            EnterPc::WriteLast => {
                mem.write(regs.last, pid);
                self.pc = EnterPc::ReadA1;
                None
            }
            EnterPc::ReadA1 => {
                match Adv::from_word(mem.read(regs.a1)) {
                    Some(a) => {
                        self.advice = a;
                        self.pc = EnterPc::WriteA1;
                    }
                    None => self.pc = EnterPc::ReadA2, // read ⊥: consult ADVICE[2]
                }
                None
            }
            EnterPc::ReadA2 => {
                // ADVICE[2] only ever holds -1 or 1; tolerate anything else
                // defensively by defaulting to 1.
                self.advice = Adv::from_word(mem.read(regs.a2)).unwrap_or(Adv::Pos);
                self.pc = EnterPc::WriteA1;
                None
            }
            EnterPc::WriteA1 => {
                mem.write(regs.a1, self.advice.flipped().word());
                self.pc = EnterPc::ReadLast1;
                None
            }
            EnterPc::ReadLast1 => {
                self.adv2 = mem.read(regs.last) == pid;
                self.pc = if self.adv2 {
                    EnterPc::WriteA2
                } else {
                    EnterPc::ReadLast2
                };
                None
            }
            EnterPc::WriteA2 => {
                mem.write(regs.a2, self.advice.flipped().word());
                self.pc = EnterPc::ReadLast2;
                None
            }
            EnterPc::ReadLast2 => {
                let dir = if mem.read(regs.last) == pid {
                    self.advice.direction()
                } else {
                    Direction::Middle
                };
                Some(dir)
            }
        }
    }

    /// Declares the register the next [`step`](Self::step) touches into
    /// `fp`; returns `true` iff that step may complete the `Enter`.
    pub fn footprint(&self, regs: &SplitterRegs, fp: &mut Footprint) -> bool {
        match self.pc {
            EnterPc::WriteLast => fp.write(regs.last),
            EnterPc::ReadA1 => fp.read(regs.a1),
            EnterPc::ReadA2 => fp.read(regs.a2),
            EnterPc::WriteA1 => fp.write(regs.a1),
            EnterPc::ReadLast1 => fp.read(regs.last),
            EnterPc::WriteA2 => fp.write(regs.a2),
            EnterPc::ReadLast2 => {
                fp.read(regs.last);
                return true;
            }
        }
        false
    }

    /// The advice value this invocation settled on (valid after the
    /// `ReadA1`/`ReadA2` statements have run).
    pub fn advice(&self) -> Adv {
        self.advice
    }

    /// Whether statement 6 ran (`LAST = p` held at statement 5).
    pub fn adv2(&self) -> bool {
        self.adv2
    }

    /// Encodes the micro-machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.pc as u64);
        out.push(self.advice.word());
        out.push(u64::from(self.adv2));
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("Enter@{:?}", self.pc)
    }
}

/// Program counter of an in-progress `Release(B, p)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ReleasePc {
    /// Statement 9: read `LAST`.
    ReadLast,
    /// Statement 10: `ADVICE[1] ← advice` (taken when `LAST = p`).
    WriteRestore,
    /// Statement 11: `ADVICE[1] ← ⊥` (taken when `LAST ≠ p ∧ ¬adv2`).
    WriteBot,
}

/// One `Release(B, p)` as a micro step machine; needs the `advice`/`adv2`
/// locals saved by the matching [`EnterOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReleaseOp {
    pc: ReleasePc,
}

impl Default for ReleaseOp {
    fn default() -> Self {
        Self::new()
    }
}

impl ReleaseOp {
    /// Starts a fresh `Release`.
    pub fn new() -> Self {
        Self {
            pc: ReleasePc::ReadLast,
        }
    }

    /// Executes one atomic statement; returns `true` when the `Release`
    /// completes.
    pub fn step<M: Memory + ?Sized>(
        &mut self,
        regs: &SplitterRegs,
        pid: Pid,
        advice: Adv,
        adv2: bool,
        mem: &M,
    ) -> bool {
        match self.pc {
            ReleasePc::ReadLast => {
                if mem.read(regs.last) == pid {
                    // Nobody entered after us: our own set is vacated, so
                    // re-advise it.
                    self.pc = ReleasePc::WriteRestore;
                    false
                } else if !adv2 {
                    // We were overtaken and never wrote ADVICE[2]; our
                    // statement-4 write of ADVICE[1] may be stale advice —
                    // invalidate it so readers fall through to ADVICE[2].
                    self.pc = ReleasePc::WriteBot;
                    false
                } else {
                    true
                }
            }
            ReleasePc::WriteRestore => {
                // Final store of the release to this splitter: Release
                // ordering suffices (see llr-mem's AtomicMemory docs).
                mem.write_rel(regs.a1, advice.word());
                true
            }
            ReleasePc::WriteBot => {
                mem.write_rel(regs.a1, enc::BOT);
                true
            }
        }
    }

    /// Declares the register the next [`step`](Self::step) touches into
    /// `fp`. Every `Release` step may complete, so there is no flag to
    /// return.
    pub fn footprint(&self, regs: &SplitterRegs, fp: &mut Footprint) {
        match self.pc {
            ReleasePc::ReadLast => fp.read(regs.last),
            ReleasePc::WriteRestore | ReleasePc::WriteBot => fp.write(regs.a1),
        }
    }

    /// Adds every register the rest of this `Release` may touch to `fp`'s
    /// future sets.
    pub fn future_footprint(&self, regs: &SplitterRegs, fp: &mut Footprint) {
        if matches!(self.pc, ReleasePc::ReadLast) {
            fp.future_read(regs.last);
        }
        fp.future_write(regs.a1);
    }

    /// Encodes the micro-machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.pc as u64);
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("Release@{:?}", self.pc)
    }
}

/// The splitter's [`ProtocolCore`][crate::session::ProtocolCore]: one
/// process's identity plus the splitter's registers. The "name" a session
/// holds is its output set (a [`Direction`]), so the splitter plugs into
/// the generic session layer with [`token_name`] = `None` and its own
/// [`spec::output_set_invariant`] instead of name uniqueness.
///
/// [`token_name`]: crate::session::ProtocolCore::token_name
#[derive(Clone, Copy, Debug)]
pub struct SplitterCore {
    pid: Pid,
    regs: SplitterRegs,
}

impl SplitterCore {
    /// A core for process `pid` on splitter `regs`.
    pub fn new(pid: Pid, regs: SplitterRegs) -> Self {
        Self { pid, regs }
    }
}

/// An in-progress splitter `Release` plus the `advice`/`adv2` locals the
/// matching `Enter` saved.
#[derive(Clone, Copy, Debug)]
pub struct SplitterRelease {
    op: ReleaseOp,
    advice: Adv,
    adv2: bool,
}

impl crate::session::ProtocolCore for SplitterCore {
    type Acquire = EnterOp;
    /// `(direction, advice, adv2)`: the output set joined and the locals
    /// the release needs.
    type Token = (Direction, Adv, bool);
    type Release = SplitterRelease;

    // Entering is a pure local transition: the op's first shared access
    // must be its own scheduled step, in every build profile, or
    // exploration diverges.
    const LAZY_START: bool = true;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> EnterOp {
        EnterOp::new()
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        op: &mut EnterOp,
        mem: &M,
    ) -> Option<(Direction, Adv, bool)> {
        op.step(&self.regs, self.pid, mem)
            .map(|dir| (dir, op.advice(), op.adv2()))
    }

    fn begin_release(&self, token: (Direction, Adv, bool)) -> SplitterRelease {
        SplitterRelease {
            op: ReleaseOp::new(),
            advice: token.1,
            adv2: token.2,
        }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut SplitterRelease, mem: &M) -> bool {
        r.op.step(&self.regs, self.pid, r.advice, r.adv2, mem)
    }

    fn acquire_footprint(&self, op: &EnterOp, fp: &mut Footprint) -> bool {
        op.footprint(&self.regs, fp)
    }

    fn release_footprint(&self, r: &SplitterRelease, fp: &mut Footprint) -> bool {
        r.op.footprint(&self.regs, fp);
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        self.regs.future_footprint(fp);
    }

    fn release_future_footprint(&self, r: &SplitterRelease, fp: &mut Footprint) {
        r.op.future_footprint(&self.regs, fp);
    }

    fn key_acquire(&self, op: &EnterOp, out: &mut Vec<Word>) {
        op.key(out);
    }

    fn key_token(&self, t: &(Direction, Adv, bool), out: &mut Vec<Word>) {
        out.push(t.0.digit() as u64);
        out.push(t.1.word());
        out.push(u64::from(t.2));
    }

    fn key_release(&self, r: &SplitterRelease, out: &mut Vec<Word>) {
        r.op.key(out);
        out.push(r.advice.word());
        out.push(u64::from(r.adv2));
    }

    fn describe_acquire(&self, op: &EnterOp) -> String {
        op.describe()
    }

    fn describe_token(&self, t: &(Direction, Adv, bool)) -> String {
        format!("Inside({})", t.0)
    }

    fn describe_release(&self, r: &SplitterRelease) -> String {
        r.op.describe()
    }
}

pub mod spec {
    //! Model-checkable specification of the splitter: a driver machine that
    //! repeatedly enters and releases one splitter, plus the output-set
    //! invariant and its all-inits exhaustive check. The session loop and
    //! key encoding are the generic ones from [`crate::session`].

    use super::*;
    use crate::session::Session;
    use llr_mc::{CheckStats, ModelChecker, Violation, World};

    /// A process that performs `sessions` × (`Enter`; dwell; `Release`) on
    /// one splitter: the generic session machine over [`SplitterCore`].
    /// The model checker's scheduler supplies all possible dwell times and
    /// stalls.
    pub type SplitterUser = Session<SplitterCore>;

    impl SplitterUser {
        /// A user of splitter `regs` with identity `pid` performing
        /// `sessions` invocations.
        pub fn new(pid: Pid, regs: SplitterRegs, sessions: u8) -> Self {
            Session::start(SplitterCore::new(pid, regs), sessions)
        }

        /// `Some(direction)` iff the user is `Inside` the splitter.
        pub fn inside(&self) -> Option<Direction> {
            self.holding_token().map(|t| t.0)
        }
    }

    /// The splitter correctness condition: each output set holds at most
    /// `ℓ - 1` `Inside` processes, where `ℓ` is the number of machines.
    pub fn output_set_invariant(world: &World<'_, SplitterUser>) -> Result<(), String> {
        let ell = world.machines.len();
        for d in Direction::ALL {
            let count = world
                .machines
                .iter()
                .filter(|m| m.inside() == Some(d))
                .count();
            if count > ell - 1 {
                return Err(format!(
                    "{count} processes inside output set {d} (ℓ = {ell})"
                ));
            }
        }
        Ok(())
    }

    /// Builds the model checker for `ell` processes, each performing
    /// `sessions` invocations, from the given initial register values.
    /// The exhaustive checks, the equivalence tests, and the E2 driver
    /// (which also times and parallelizes the run) share this
    /// constructor.
    pub fn checker(
        ell: usize,
        sessions: u8,
        init_last: Pid,
        init_a1: Word,
        init_a2: Word,
    ) -> ModelChecker<SplitterUser> {
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        layout.set_initial(regs.last, init_last);
        layout.set_initial(regs.a1, init_a1);
        layout.set_initial(regs.a2, init_a2);
        let machines: Vec<SplitterUser> = (0..ell as Pid)
            .map(|pid| SplitterUser::new(pid, regs, sessions))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// The 12 quiescent initial register assignments that
    /// [`check_all_inits`] sweeps: `LAST` either a participant or a
    /// foreign id, `ADVICE[1] ∈ {-1, ⊥, 1}`, `ADVICE[2] ∈ {-1, 1}`.
    pub fn all_inits(ell: usize) -> Vec<(Pid, Word, Word)> {
        let mut inits = Vec::with_capacity(12);
        for init_last in [0, ell as Pid] {
            for init_a1 in [enc::NEG, enc::BOT, enc::POS] {
                for init_a2 in [enc::NEG, enc::POS] {
                    inits.push((init_last, init_a1, init_a2));
                }
            }
        }
        inits
    }

    /// Exhaustively checks the output-set invariant for `ell` processes,
    /// each performing `sessions` invocations, from **every** initial
    /// register assignment: `ADVICE[1] ∈ {-1, ⊥, 1}`, `ADVICE[2] ∈ {-1, 1}`, and
    /// `LAST` either a participant or a foreign id — the splitter must be
    /// safe from any quiescent state, because in SPLIT it is reused
    /// long-lived with whatever residue earlier invocations left.
    ///
    /// Returns accumulated statistics.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_all_inits(ell: usize, sessions: u8) -> Result<CheckStats, Box<Violation>> {
        let mut total = CheckStats::default();
        for (init_last, init_a1, init_a2) in all_inits(ell) {
            let stats = crate::session::run_check(
                checker(ell, sessions, init_last, init_a1, init_a2),
                &crate::session::Engine::Sequential,
                output_set_invariant,
            )?;
            total.states += stats.states;
            total.transitions += stats.transitions;
            total.max_depth = total.max_depth.max(stats.max_depth);
            total.terminal_states += stats.terminal_states;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::spec::*;
    use super::*;
    use llr_mem::SimMemory;

    fn solo_enter(init_a1: Word, init_a2: Word) -> (Direction, Adv, bool) {
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        layout.set_initial(regs.a1, init_a1);
        layout.set_initial(regs.a2, init_a2);
        let mem = SimMemory::new(&layout);
        let mut op = EnterOp::new();
        let dir = loop {
            if let Some(d) = op.step(&regs, 7, &mem) {
                break d;
            }
        };
        (dir, op.advice(), op.adv2())
    }

    #[test]
    fn solo_process_joins_advised_set() {
        // Alone, a process never detects interference, so it returns the
        // (possibly second-level) advice — never 0.
        assert_eq!(solo_enter(enc::POS, enc::POS).0, Direction::Right);
        assert_eq!(solo_enter(enc::NEG, enc::POS).0, Direction::Left);
        assert_eq!(solo_enter(enc::BOT, enc::POS).0, Direction::Right);
        assert_eq!(solo_enter(enc::BOT, enc::NEG).0, Direction::Left);
    }

    #[test]
    fn solo_process_sets_adv2() {
        let (_, _, adv2) = solo_enter(enc::POS, enc::POS);
        assert!(adv2, "an uninterfered process must write ADVICE[2]");
    }

    #[test]
    fn sequential_entrants_alternate_sets() {
        // Two fully sequential Enters: the second must join the opposite
        // set (this is the advice chain working).
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let mem = SimMemory::new(&layout);
        let run = |pid: Pid| {
            let mut op = EnterOp::new();
            loop {
                if let Some(d) = op.step(&regs, pid, &mem) {
                    break d;
                }
            }
        };
        let d1 = run(1);
        let d2 = run(2);
        assert_ne!(d1, Direction::Middle);
        assert_ne!(d2, Direction::Middle);
        assert_ne!(d1, d2, "sequential entrants must alternate outer sets");
    }

    #[test]
    fn enter_costs_at_most_7_accesses_release_2() {
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let mem = SimMemory::new(&layout);
        let mut op = EnterOp::new();
        while op.step(&regs, 3, &mem).is_none() {}
        assert!(
            mem.accesses() <= 7,
            "Enter used {} accesses",
            mem.accesses()
        );
        mem.reset_accesses();
        let mut rel = ReleaseOp::new();
        while !rel.step(&regs, 3, op.advice(), op.adv2(), &mem) {}
        assert!(
            mem.accesses() <= 2,
            "Release used {} accesses",
            mem.accesses()
        );
    }

    #[test]
    fn exhaustive_two_processes_three_sessions() {
        let stats = check_all_inits(2, 3).unwrap();
        assert!(stats.states > 1_000, "state space suspiciously small");
    }

    #[test]
    fn exhaustive_three_processes_two_sessions() {
        // Paper-initial registers only; the full sweep over every initial
        // assignment runs in the (release-mode) experiment binary
        // `e2_modelcheck` and in `exhaustive_three_processes_all_inits`.
        let stats = crate::session::run_check(
            checker(3, 2, 0, enc::POS, enc::POS),
            &crate::session::Engine::Sequential,
            output_set_invariant,
        )
        .unwrap();
        assert!(stats.states > 10_000, "state space suspiciously small");
    }

    #[test]
    #[ignore = "minutes in debug mode; run explicitly or via the e2_modelcheck binary"]
    fn exhaustive_three_processes_all_inits() {
        let stats = check_all_inits(3, 2).unwrap();
        assert!(stats.states > 100_000, "state space suspiciously small");
    }

    #[test]
    fn exhaustive_always_terminable() {
        // Wait-freedom implies every reachable state can still finish.
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let machines: Vec<SplitterUser> = (0..3).map(|p| SplitterUser::new(p, regs, 2)).collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("no trap states");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    fn wait_free_under_round_robin() {
        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        let machines: Vec<SplitterUser> = (0..4).map(|p| SplitterUser::new(p, regs, 5)).collect();
        let steps = llr_mc::ModelChecker::new(layout, machines)
            .round_robin(100_000)
            .expect("splitter operations are wait-free");
        // 4 processes × 5 sessions × ≤ 10 steps each
        assert!(steps <= 4 * 5 * 10);
    }
}
