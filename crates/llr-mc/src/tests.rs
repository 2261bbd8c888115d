//! Self-tests for the model checker: known-racy and known-correct
//! algorithms must be classified correctly.

use crate::{CheckStats, MachineStatus, ModelChecker, StepMachine};
use llr_mem::{Layout, Loc, Memory};

// ---------------------------------------------------------------------------
// A non-atomic increment: read x, then write x+1. Two of these must lose an
// update under some interleaving.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Incr {
    x: Loc,
    pc: u8,
    tmp: u64,
}

impl Incr {
    fn new(x: Loc) -> Self {
        Self { x, pc: 0, tmp: 0 }
    }
}

impl StepMachine for Incr {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            0 => {
                self.tmp = mem.read(self.x);
                self.pc = 1;
                MachineStatus::Running
            }
            _ => {
                mem.write(self.x, self.tmp + 1);
                self.pc = 2;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(self.tmp);
    }

    fn describe(&self) -> String {
        format!("Incr(pc={}, tmp={})", self.pc, self.tmp)
    }
}

#[test]
fn finds_lost_update() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err(format!("lost update: X = {}", w.mem.read(x)))
            } else {
                Ok(())
            }
        })
        .expect_err("the race must be found");
    let v = err.unwrap_violation();
    assert!(v.message.contains("lost update"));
    // The classic schedule: both read before either writes.
    assert!(v.schedule.len() >= 3);
    assert!(v.trace.contains("X"));
}

#[test]
fn single_machine_state_count_is_exact() {
    // One Incr machine: initial state, after-read state, after-write state.
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let stats = mc.check(|_| Ok(())).unwrap();
    assert_eq!(
        stats,
        CheckStats {
            states: 3,
            transitions: 2,
            max_depth: 2,
            terminal_states: 1,
            ..Default::default()
        }
    );
}

#[test]
fn hashed_dedup_matches_exact() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Incr::new(x), Incr::new(x), Incr::new(x)];
    let exact = ModelChecker::new(layout.clone(), machines.clone())
        .check(|_| Ok(()))
        .unwrap();
    let hashed = ModelChecker::new(layout, machines)
        .hashed_dedup(true)
        .check_parallel(|_| Ok(()))
        .unwrap();
    assert_eq!(exact.states, hashed.states);
    assert_eq!(exact.transitions, hashed.transitions);
}

#[test]
fn state_limit_reported() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]).max_states(2);
    match mc.check(|_| Ok(())) {
        Err(crate::checker::CheckError::StateLimit { limit, .. }) => assert_eq!(limit, 2),
        other => panic!("expected state limit, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Mutual exclusion: a naive test-then-set lock is broken; Peterson's
// algorithm is correct. The checker must tell them apart.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct NaiveLock {
    lock: Loc,
    pc: u8,
    in_cs: bool,
}

impl StepMachine for NaiveLock {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            // spin: read lock until free
            0 => {
                if mem.read(self.lock) == 0 {
                    self.pc = 1;
                }
                MachineStatus::Running
            }
            // acquire
            1 => {
                mem.write(self.lock, 1);
                self.in_cs = true;
                self.pc = 2;
                MachineStatus::Running
            }
            // release
            _ => {
                mem.write(self.lock, 0);
                self.in_cs = false;
                self.pc = 3;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(u64::from(self.in_cs));
    }

    fn describe(&self) -> String {
        format!("NaiveLock(pc={}, in_cs={})", self.pc, self.in_cs)
    }
}

#[test]
fn naive_lock_violates_mutual_exclusion() {
    let mut layout = Layout::new();
    let lock = layout.scalar("LOCK", 0);
    let m = NaiveLock {
        lock,
        pc: 0,
        in_cs: false,
    };
    let mc = ModelChecker::new(layout, vec![m.clone(), m]);
    let err = mc
        .check(|w| {
            let inside = w.machines.iter().filter(|m| m.in_cs).count();
            if inside > 1 {
                Err(format!("{inside} machines in the critical section"))
            } else {
                Ok(())
            }
        })
        .expect_err("naive lock must fail");
    let v = err.unwrap_violation();
    assert!(v.message.contains("2 machines"));
}

#[derive(Clone)]
struct Peterson {
    me: usize,
    flags: [Loc; 2],
    turn: Loc,
    sessions_left: u8,
    pc: u8,
    in_cs: bool,
}

impl Peterson {
    fn new(me: usize, flags: [Loc; 2], turn: Loc, sessions: u8) -> Self {
        Self {
            me,
            flags,
            turn,
            sessions_left: sessions,
            pc: 0,
            in_cs: false,
        }
    }
}

impl StepMachine for Peterson {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        let other = 1 - self.me;
        match self.pc {
            0 => {
                mem.write(self.flags[self.me], 1);
                self.pc = 1;
            }
            1 => {
                mem.write(self.turn, other as u64);
                self.pc = 2;
            }
            2 => {
                if mem.read(self.flags[other]) == 0 {
                    self.in_cs = true;
                    self.pc = 4;
                } else {
                    self.pc = 3;
                }
            }
            3 => {
                if mem.read(self.turn) != other as u64 {
                    self.in_cs = true;
                    self.pc = 4;
                } else {
                    self.pc = 2; // keep spinning
                }
            }
            _ => {
                mem.write(self.flags[self.me], 0);
                self.in_cs = false;
                self.sessions_left -= 1;
                self.pc = 0;
                if self.sessions_left == 0 {
                    return MachineStatus::Done;
                }
            }
        }
        MachineStatus::Running
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        out.push(self.sessions_left as u64);
        out.push(u64::from(self.in_cs));
    }

    fn describe(&self) -> String {
        format!(
            "Peterson(p{}, pc={}, left={}, in_cs={})",
            self.me, self.pc, self.sessions_left, self.in_cs
        )
    }
}

fn peterson_checker(sessions: u8) -> ModelChecker<Peterson> {
    let mut layout = Layout::new();
    let f0 = layout.scalar("FLAG0", 0);
    let f1 = layout.scalar("FLAG1", 0);
    let turn = layout.scalar("TURN", 0);
    let machines = vec![
        Peterson::new(0, [f0, f1], turn, sessions),
        Peterson::new(1, [f0, f1], turn, sessions),
    ];
    ModelChecker::new(layout, machines)
}

fn exclusion(w: &crate::World<'_, Peterson>) -> Result<(), String> {
    let inside = w.machines.iter().filter(|m| m.in_cs).count();
    if inside > 1 {
        Err(format!("{inside} machines in the critical section"))
    } else {
        Ok(())
    }
}

#[test]
fn peterson_satisfies_mutual_exclusion_exhaustively() {
    let stats = peterson_checker(3).check(exclusion).unwrap();
    // Two machines, repeated sessions, spinning: a nontrivial state space.
    assert!(stats.states > 100, "suspiciously small: {stats}");
    assert!(stats.terminal_states >= 1);
}

#[test]
fn peterson_random_walks_pass() {
    let mc = peterson_checker(4);
    let stats = mc.random_walks(exclusion, 200, 10_000, 42).unwrap();
    assert_eq!(stats.terminal_states, 200, "every walk should finish");
}

#[test]
fn peterson_is_live_under_fair_scheduling() {
    let steps = peterson_checker(5).round_robin(100_000).unwrap();
    assert!(steps < 1_000, "round-robin completion took {steps} steps");
}

#[test]
fn replay_reproduces_violation() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let v = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err()
        .unwrap_violation();
    let (mem, _, done) = mc.run_schedule(&v.schedule);
    assert!(done.iter().all(|&d| d));
    assert_eq!(mem.read(x), 1, "replay must reproduce the lost update");
}

#[test]
fn trace_is_readable() {
    let mut layout = Layout::new();
    let x = layout.scalar("COUNTER", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let trace = mc.render_trace(&[0, 0]);
    assert!(trace.contains("COUNTER"), "trace: {trace}");
    assert!(trace.contains("init:"));
    assert!(trace.contains("final:"));
}

#[test]
fn random_walks_find_the_lost_update_race() {
    // The same race `check` finds exhaustively is found by sampling.
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let result = mc.random_walks(
        |w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost update".into())
            } else {
                Ok(())
            }
        },
        500,
        100,
        7,
    );
    let v = result.expect_err("500 walks must hit the race");
    assert!(v.message.contains("lost update"));
    // And the reported schedule replays to the bad state.
    let (mem, _, _) = mc.run_schedule(&v.schedule);
    assert_eq!(mem.read(x), 1);
}

#[test]
fn run_schedule_skips_finished_machines() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    // Machine 0 finishes after 2 steps; the extra entries are ignored.
    let (mem, _, done) = mc.run_schedule(&[0, 0, 0, 0, 0]);
    assert!(done[0]);
    assert_eq!(mem.read(x), 1);
}

#[test]
fn error_displays_are_informative() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost update".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("invariant violated"));
    assert!(text.contains("schedule"));

    let limit = crate::CheckError::StateLimit { limit: 7, stats: Default::default() };
    assert!(limit.to_string().contains("7"));
}

#[test]
fn stats_display() {
    let s = CheckStats {
        states: 10,
        transitions: 20,
        max_depth: 5,
        terminal_states: 2,
        ..Default::default()
    };
    let text = s.to_string();
    assert!(text.contains("10 states"));
    assert!(text.contains("20 transitions"));
}

#[test]
fn violation_is_a_std_error() {
    fn takes_error<E: std::error::Error>(_: &E) {}
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let err = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) != 2 {
                Err("lost".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    if let crate::CheckError::Violation(v) = &err {
        takes_error(v.as_ref());
    }
    takes_error(&err);
}

#[test]
fn liveness_stats_display() {
    let s = crate::LivenessStats {
        states: 3,
        edges: 4,
        terminal_states: 1,
        peak_resident_bytes: 0,
        spilled_bytes: 0,
    };
    assert!(s.to_string().contains("3 states"));
}

#[test]
fn shrinking_produces_the_minimal_race() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x), Incr::new(x)]);
    let inv = |w: &crate::World<'_, Incr>| {
        if w.all_done() && w.mem.read(x) != 2 {
            Err("lost update".into())
        } else {
            Ok(())
        }
    };
    let v = mc.check(inv).unwrap_err().unwrap_violation();
    let shrunk = mc.shrink_schedule(&v.schedule, inv);
    assert!(shrunk.len() <= v.schedule.len());
    // The minimal lost-update interleaving is exactly 4 steps:
    // both read, both write.
    assert_eq!(shrunk.len(), 4, "shrunk: {shrunk:?}");
    // And it still violates (replay and check the final value).
    let (mem, _, done) = mc.run_schedule(&shrunk);
    assert!(done.iter().all(|&d| d));
    assert_eq!(mem.read(x), 1);
}

#[test]
#[should_panic(expected = "actually violates")]
fn shrinking_rejects_innocent_schedules() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Incr::new(x)]);
    let _ = mc.shrink_schedule(&[0, 0], |_| Ok(()));
}

// ---------------------------------------------------------------------------
// The crash–restart fault model: a Flagger raises X and lowers it again;
// crashing between the two writes leaves X torn high forever.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Flagger {
    x: Loc,
    pc: u8,
}

impl StepMachine for Flagger {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            0 => {
                mem.write(self.x, 1);
                self.pc = 1;
                MachineStatus::Running
            }
            _ => {
                mem.write(self.x, 0);
                self.pc = 2;
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
    }

    fn describe(&self) -> String {
        format!("Flagger(pc={})", self.pc)
    }

    fn can_crash(&self) -> bool {
        true
    }

    fn crash_restart(&mut self) -> MachineStatus {
        self.pc = 3; // frozen tombstone, distinct from every live pc
        MachineStatus::Done
    }
}

#[test]
fn faults_zero_leaves_the_state_space_untouched() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x, pc: 0 }];
    let plain = ModelChecker::new(layout.clone(), machines.clone())
        .check(|_| Ok(()))
        .unwrap();
    let zero = ModelChecker::new(layout, machines)
        .faults(0)
        .check(|_| Ok(()))
        .unwrap();
    assert_eq!(plain, zero);
}

#[test]
fn a_crash_exposes_torn_state() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let mc = ModelChecker::new(layout, vec![Flagger { x, pc: 0 }]).faults(1);
    // Fault-free, X is always lowered before the machine finishes; only a
    // crash between the writes can leave it torn high at quiescence.
    let v = mc
        .check(|w| {
            if w.all_done() && w.mem.read(x) == 1 {
                Err("flag left torn high".into())
            } else {
                Ok(())
            }
        })
        .expect_err("the crash window must be found")
        .unwrap_violation();
    assert_eq!(v.schedule, vec![0, crate::CRASH_SCHEDULE_BASE]);
    assert!(v.trace.contains("CRASH"), "trace: {}", v.trace);
    // The schedule replays: the raise step, then the crash.
    let (mem, machines, done) = mc.run_schedule(&v.schedule);
    assert!(done[0]);
    assert_eq!(mem.read(x), 1);
    assert_eq!(machines[0].pc, 3);
}

/// A `Flagger` that can crash only inside its window, between the raise
/// and the lower.
#[derive(Clone)]
struct WindowFlagger(Flagger);

impl StepMachine for WindowFlagger {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        self.0.step(mem)
    }

    fn key(&self, out: &mut Vec<u64>) {
        self.0.key(out);
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn can_crash(&self) -> bool {
        self.0.pc == 1
    }

    fn crash_restart(&mut self) -> MachineStatus {
        assert!(
            self.can_crash(),
            "crashed outside the window: {}",
            self.describe()
        );
        self.0.crash_restart()
    }
}

/// Two `WindowFlagger`s on one register under a budget of one crash.
fn window_checker() -> (ModelChecker<WindowFlagger>, Loc) {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let m = WindowFlagger(Flagger { x, pc: 0 });
    (ModelChecker::new(layout, vec![m.clone(), m]).faults(1), x)
}

#[test]
fn replay_skips_a_crash_outside_the_window() {
    let (mc, _) = window_checker();
    let (_, machines, done) = mc.run_schedule(&[crate::CRASH_SCHEDULE_BASE]);
    assert_eq!((machines[0].0.pc, done[0]), (0, false));
    let trace = mc.render_trace(&[crate::CRASH_SCHEDULE_BASE]);
    assert!(trace.contains("p0 CRASH: (not enabled, skipped)"), "{trace}");
}

#[test]
fn replay_skips_a_crash_beyond_the_budget() {
    let (mc, _) = window_checker();
    let crash = crate::CRASH_SCHEDULE_BASE;
    let (_, machines, done) = mc.run_schedule(&[0, 1, crash, crash + 1]);
    assert_eq!([machines[0].0.pc, machines[1].0.pc], [3, 1]);
    assert_eq!(done, [true, false]);
}

#[test]
fn shrinking_takes_only_enabled_crashes() {
    let (mc, x) = window_checker();
    let torn = |w: &crate::World<'_, WindowFlagger>| {
        if w.all_done() && w.mem.read(x) == 1 {
            Err("flag left torn high".into())
        } else {
            Ok(())
        }
    };
    let v = mc.check_parallel(torn).unwrap_err().unwrap_violation();
    assert_eq!(v.schedule, [0, 0, 1, crate::CRASH_SCHEDULE_BASE + 1]);
    let shrunk = mc.shrink_schedule(&v.schedule, torn);
    let (mem, _, done) = mc.run_schedule(&shrunk);
    assert!(done.iter().all(|&d| d), "shrunk: {shrunk:?}");
    assert_eq!(mem.read(x), 1, "shrunk: {shrunk:?}");
}

#[test]
fn fault_budget_bounds_the_number_of_crashes() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x, pc: 0 }];
    // With f = 1, at most one machine can die: quiescent X can be torn
    // high, but both machines can never be tombstoned at once.
    let stats = ModelChecker::new(layout, machines)
        .faults(1)
        .check(|w| {
            if w.machines.iter().filter(|m| m.pc == 3).count() > 1 {
                Err("two crashes under a budget of one".into())
            } else {
                Ok(())
            }
        })
        .unwrap();
    // The crash transitions strictly grow the fault-free space (9 states).
    assert!(stats.states > 9, "{stats}");
}

#[test]
fn engines_agree_under_faults() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let y = layout.scalar("Y", 0);
    let machines = vec![Flagger { x, pc: 0 }, Flagger { x: y, pc: 0 }, Flagger { x, pc: 0 }];
    let seq = ModelChecker::new(layout.clone(), machines.clone())
        .faults(2)
        .check(|_| Ok(()))
        .unwrap();
    let par = ModelChecker::new(layout, machines)
        .faults(2)
        .workers(3)
        .check_parallel(|_| Ok(()))
        .unwrap();
    assert_eq!(seq.states, par.states);
    assert_eq!(seq.transitions, par.transitions);
    assert_eq!(seq.terminal_states, par.terminal_states);
}

// ---------------------------------------------------------------------------
// Accounting pins. `Looper`s count through a short cycle in their own
// register with local, invisible steps and read a shared flag `T` each time
// the count wraps; a `Setter` takes a few local steps and then raises `T`.
// The model lives here, so protocol edits cannot move the pins. It has more
// than 4 096 states, so a zero spill budget flushes visited runs mid-layer,
// and its local cycles make the reduced search revisit ample successors in
// earlier layers, so the reduced spill search re-expands states whose ample
// successor was already flushed.
// ---------------------------------------------------------------------------

const LOOP_LEN: u8 = 4;

#[derive(Clone)]
struct Looper {
    own: Loc,
    t: Loc,
    c: u8,
    reading: bool,
}

impl StepMachine for Looper {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        if self.reading {
            self.reading = false;
            if mem.read(self.t) == 1 {
                return MachineStatus::Done;
            }
            return MachineStatus::Running;
        }
        self.c = (self.c + 1) % LOOP_LEN;
        mem.write(self.own, u64::from(self.c));
        self.reading = self.c == 0;
        MachineStatus::Running
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.c));
        out.push(u64::from(self.reading));
    }

    fn describe(&self) -> String {
        format!("Looper(c={}, reading={})", self.c, self.reading)
    }

    fn footprint(&self, fp: &mut crate::Footprint) {
        if self.reading {
            fp.read(self.t);
            fp.set_visible();
        } else {
            fp.write(self.own);
        }
        fp.future_write(self.own);
        fp.future_read(self.t);
    }
}

#[derive(Clone)]
struct Setter {
    own: Loc,
    t: Loc,
    left: u8,
}

impl StepMachine for Setter {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        if self.left == 0 {
            mem.write(self.t, 1);
            return MachineStatus::Done;
        }
        mem.write(self.own, u64::from(self.left));
        self.left -= 1;
        MachineStatus::Running
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.left));
    }

    fn describe(&self) -> String {
        format!("Setter(left={})", self.left)
    }

    fn footprint(&self, fp: &mut crate::Footprint) {
        if self.left == 0 {
            fp.write(self.t);
            fp.set_visible();
        } else {
            fp.write(self.own);
        }
        fp.future_write(self.own);
        fp.future_write(self.t);
    }
}

#[derive(Clone)]
enum Pinned {
    Loop(Looper),
    Set(Setter),
}

impl StepMachine for Pinned {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self {
            Pinned::Loop(m) => m.step(mem),
            Pinned::Set(m) => m.step(mem),
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        match self {
            Pinned::Loop(m) => m.key(out),
            Pinned::Set(m) => m.key(out),
        }
    }

    fn describe(&self) -> String {
        match self {
            Pinned::Loop(m) => m.describe(),
            Pinned::Set(m) => m.describe(),
        }
    }

    fn footprint(&self, fp: &mut crate::Footprint) {
        match self {
            Pinned::Loop(m) => m.footprint(fp),
            Pinned::Set(m) => m.footprint(fp),
        }
    }
}

/// `loopers` `Looper`s and, if `setter`, one `Setter` with three local
/// steps. Without the setter no `Looper` ever finishes.
fn looper_checker(loopers: usize, setter: bool) -> ModelChecker<Pinned> {
    let mut layout = Layout::new();
    let t = layout.scalar("T", 0);
    let mut machines: Vec<Pinned> = (0..loopers)
        .map(|i| {
            let own = layout.scalar(format!("C{i}"), 0);
            Pinned::Loop(Looper {
                own,
                t,
                c: 0,
                reading: false,
            })
        })
        .collect();
    if setter {
        let own = layout.scalar("S", 0);
        machines.push(Pinned::Set(Setter { own, t, left: 3 }));
    }
    ModelChecker::new(layout, machines)
}

/// The pinned model: five `Looper`s and the `Setter`.
fn pinned_checker() -> ModelChecker<Pinned> {
    looper_checker(5, true)
}

/// A successful run of the pinned model, which has one terminal state.
fn stats(states: u64, transitions: u64, depth: usize, peak: u64, spilled: u64) -> CheckStats {
    CheckStats {
        states,
        transitions,
        max_depth: depth,
        terminal_states: 1,
        peak_resident_bytes: peak,
        spilled_bytes: spilled,
    }
}

#[test]
fn bfs_stores_account_exactly() {
    let tmp = std::env::temp_dir();
    let full_exact = stats(20_276, 107_400, 29, 5_154_438, 0);
    let full_hashed = stats(20_276, 107_400, 29, 997_012, 0);
    let full_spill = [
        (1usize << 30, stats(20_276, 107_400, 29, 862_182, 3_752_434)),
        (256 << 10, stats(20_276, 107_400, 29, 307_154, 4_605_460)),
        (0, stats(20_276, 107_400, 29, 241_618, 4_726_452)),
    ];
    let reduced_hashed = stats(8_613, 27_617, 69, 297_893, 0);
    let reduced_spill = [
        (1usize << 30, stats(8_613, 27_617, 69, 220_216, 1_596_699)),
        (256 << 10, stats(8_613, 27_617, 69, 159_654, 1_794_567)),
        (0, stats(8_613, 27_617, 69, 105_084, 1_998_703)),
    ];
    for workers in [1, 2, 4] {
        for por in [false, true] {
            let run = |mc: ModelChecker<Pinned>| {
                mc.workers(workers)
                    .por(por)
                    .check_parallel(|_| Ok(()))
                    .unwrap()
            };
            let (hashed, spill) = if por {
                (reduced_hashed, &reduced_spill)
            } else {
                assert_eq!(
                    run(pinned_checker()),
                    full_exact,
                    "in-RAM exact, {workers}w"
                );
                (full_hashed, &full_spill)
            };
            assert_eq!(
                run(pinned_checker().hashed_dedup(true)),
                hashed,
                "in-RAM hashed, {workers}w, por {por}"
            );
            for &(budget, pin) in spill.iter() {
                assert_eq!(
                    run(pinned_checker().spill_dir(&tmp, budget)),
                    pin,
                    "spill {budget} B, {workers}w, por {por}"
                );
            }
        }
    }
}

#[test]
fn liveness_csr_paths_account_exactly() {
    let ram = crate::LivenessStats {
        states: 20_276,
        edges: 107_400,
        terminal_states: 1,
        peak_resident_bytes: 6_008_598,
        spilled_bytes: 0,
    };
    let disk = crate::LivenessStats {
        states: 20_276,
        edges: 107_400,
        terminal_states: 1,
        peak_resident_bytes: 997_012,
        spilled_bytes: 1_288_800,
    };
    for workers in [1, 2, 4] {
        let mc = pinned_checker().workers(workers);
        assert_eq!(
            mc.check_always_terminable().unwrap(),
            ram,
            "in-RAM CSR, {workers}w"
        );
        let mc = pinned_checker()
            .workers(workers)
            .spill_dir(std::env::temp_dir(), 0);
        assert_eq!(
            mc.check_always_terminable().unwrap(),
            disk,
            "disk CSR, {workers}w"
        );
    }
}

#[test]
fn in_ram_errors_charge_the_layer_in_progress() {
    let t_raised = |w: &crate::World<'_, Pinned>| {
        if w.mem.read(Loc(0)) == 1 {
            Err("T raised".into())
        } else {
            Ok(())
        }
    };
    for hashed in [false, true] {
        let mc = || pinned_checker().hashed_dedup(hashed);
        match mc().max_states(1).check_parallel(|_| Ok(())) {
            Err(crate::CheckError::StateLimit { stats, .. }) => {
                assert!(stats.peak_resident_bytes > 0, "hashed {hashed}: {stats:?}")
            }
            other => panic!("expected the state limit, got {other:?}"),
        }
        let v = mc()
            .check_parallel(t_raised)
            .unwrap_err()
            .unwrap_violation();
        assert!(
            v.stats.peak_resident_bytes > 0,
            "hashed {hashed}: {:?}",
            v.stats
        );
    }
}

#[test]
fn spill_runs_leave_no_scratch_behind() {
    let dir = std::env::temp_dir().join(format!("llr-mc-scratch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spill = |mc: ModelChecker<Pinned>| mc.spill_dir(&dir, 0).workers(2);
    let t_raised = |w: &crate::World<'_, Pinned>| {
        if w.mem.read(Loc(0)) == 1 {
            Err("T raised".into())
        } else {
            Ok(())
        }
    };
    spill(pinned_checker()).check_parallel(|_| Ok(())).unwrap();
    spill(pinned_checker())
        .check_parallel(t_raised)
        .unwrap_err()
        .unwrap_violation();
    assert!(matches!(
        spill(pinned_checker().max_states(5_000)).check_parallel(|_| Ok(())),
        Err(crate::CheckError::StateLimit { .. })
    ));
    spill(pinned_checker()).check_always_terminable().unwrap();
    let trap = spill(looper_checker(3, false))
        .check_always_terminable()
        .unwrap_err();
    assert!(trap.unwrap_violation().message.contains("trap state"));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "spill scratch left behind: {left:?}");
    std::fs::remove_dir(&dir).unwrap();
}
