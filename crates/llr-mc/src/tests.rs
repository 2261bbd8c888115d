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

    let limit = crate::CheckError::StateLimit {
        limit: 7,
        stats: Default::default(),
    };
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
    assert!(
        trace.contains("p0 CRASH: (not enabled, skipped)"),
        "{trace}"
    );
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
    let machines = vec![
        Flagger { x, pc: 0 },
        Flagger { x: y, pc: 0 },
        Flagger { x, pc: 0 },
    ];
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
    let full_hashed = stats(20_276, 107_400, 29, 954_374, 0);
    let full_spill = [
        (1usize << 30, stats(20_276, 107_400, 29, 791_874, 1_805_986)),
        (256 << 10, stats(20_276, 107_400, 29, 651_166, 2_343_892)),
        (0, stats(20_276, 107_400, 29, 585_630, 2_400_372)),
    ];
    let reduced_hashed = stats(8_613, 27_617, 69, 286_337, 0);
    let reduced_spill = [
        (1usize << 30, stats(8_613, 27_617, 69, 185_874, 769_899)),
        (256 << 10, stats(8_613, 27_617, 69, 183_676, 932_151)),
        (0, stats(8_613, 27_617, 69, 160_234, 1_027_423)),
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
                (full_hashed, &full_spill)
            };
            assert_eq!(
                run(pinned_checker()),
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
        peak_resident_bytes: 1_590_340,
        spilled_bytes: 0,
    };
    let disk = crate::LivenessStats {
        states: 20_276,
        edges: 107_400,
        terminal_states: 1,
        peak_resident_bytes: 954_374,
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

/// The hash the breadth-first loop gives a state, recomputed from scratch:
/// every register block's digest and every slot's, XORed.
fn digest_hash<M: StepMachine>(regs: &[u64], machines: &[M], done: &[bool]) -> u128 {
    use crate::engine::{block_digest, key_digest, slot_digest};
    let blocks = regs.chunks(crate::frontier::BLOCK).enumerate();
    let blocks = blocks.map(|(b, words)| block_digest(b, words));
    let slots = machines.iter().zip(done).enumerate().map(|(i, (m, &d))| {
        let mut key = Vec::new();
        m.key(&mut key);
        slot_digest(i, d, key_digest(i, &key))
    });
    blocks.chain(slots).fold(0, |h, d| h ^ d)
}

/// Walks `mc` for `steps` random moves from its initial state, starting
/// over whenever every machine is done. At every step, every enabled move
/// is hashed as the breadth-first loop hashes a successor — the parent's
/// hash with the moved slot's and each changed block's old and new digests
/// XORed in — and must match [`digest_hash`] of the successor.
fn walk_digest_hash<M: StepMachine>(label: &str, mc: &ModelChecker<M>, steps: usize) {
    use crate::engine::{block_digest, key_digest, rehash, slot_digest};
    use crate::frontier::BLOCK;
    use crate::relation::{Plan, Replay};
    let rel = mc.relation();
    let slot = |i: usize, m: &M, d: bool| {
        let mut key = Vec::new();
        m.key(&mut key);
        slot_digest(i, d, key_digest(i, &key))
    };
    let mut rng = crate::SplitMix64::new(7);
    let mut replay = Replay::new(mc);
    let mut h = digest_hash(&replay.mem.snapshot(), &replay.machines, &replay.done);
    let mut changed = Vec::new();
    for walk in 0..steps {
        if replay.done.iter().all(|&d| d) {
            replay = Replay::new(mc);
            h = digest_hash(&replay.mem.snapshot(), &replay.machines, &replay.done);
        }
        let regs = replay.mem.snapshot();
        assert_eq!(
            h,
            digest_hash(&regs, &replay.machines, &replay.done),
            "{label}, walk {walk}"
        );
        let moves: Vec<_> = rel
            .moves::<M, M>(&regs, &replay.machines, &replay.done, Plan::AllBut(None))
            .collect();
        let pick = rng.next_index(moves.len());
        let mut next = h;
        for (k, &mv) in moves.iter().enumerate() {
            let i = mv.machine();
            let mem = llr_mem::SimMemory::with_values(&regs);
            let mut mi = replay.machines[i].clone();
            let d = rel.apply(mv, &mem, &mut mi);
            let new = mem.snapshot();
            let moved = h ^ slot(i, &replay.machines[i], replay.done[i]) ^ slot(i, &mi, d);
            let old = |b: usize| block_digest(b, &regs[b * BLOCK..regs.len().min((b + 1) * BLOCK)]);
            let got = rehash(moved, &regs, &new, old, &mut changed);
            let mut machines = replay.machines.clone();
            let mut done = replay.done.clone();
            (machines[i], done[i]) = (mi, d);
            let want = digest_hash(&new, &machines, &done);
            assert_eq!(got, want, "{label}, walk {walk}, move {mv}");
            if k == pick {
                next = got;
            }
        }
        assert!(
            replay.take(moves[pick].entry()).1,
            "{label}: the move is enabled"
        );
        h = next;
    }
}

/// The breadth-first loop hashes a state as the XOR of position-salted
/// digests, one per 8-register block and one per machine slot, and hashes
/// a successor from its parent's hash and the parts the move changed. The
/// update agrees with the hash recomputed from scratch along random walks
/// of the pinned model with faults off and on, of a two-block model, and
/// of crashing machines; and the salts keep swapped blocks and a flipped
/// done flag apart.
#[test]
fn digest_hash_follows_every_move() {
    walk_digest_hash("pinned", &pinned_checker(), 400);
    walk_digest_hash("pinned, faults", &pinned_checker().faults(1), 400);
    // Eleven registers: two blocks.
    walk_digest_hash("nine loopers", &looper_checker(9, true), 400);
    let mut layout = Layout::new();
    let (x, y) = (layout.scalar("X", 0), layout.scalar("Y", 0));
    let flaggers = vec![
        Flagger { x, pc: 0 },
        Flagger { x: y, pc: 0 },
        Flagger { x, pc: 0 },
    ];
    walk_digest_hash(
        "flaggers, faults",
        &ModelChecker::new(layout, flaggers).faults(2),
        400,
    );

    let mc = looper_checker(9, true);
    let replay = crate::relation::Replay::new(&mc);
    let (machines, done) = (&replay.machines, &replay.done);
    let mut regs = replay.mem.snapshot();
    regs.resize(16, 0);
    regs[8..].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let h = digest_hash(&regs, machines, done);
    let mut swapped = regs[8..].to_vec();
    swapped.extend_from_slice(&regs[..8]);
    assert_ne!(digest_hash(&swapped, machines, done), h, "swapped blocks");
    let mut flipped = done.clone();
    flipped[3] = true;
    assert_ne!(
        digest_hash(&regs, machines, &flipped),
        h,
        "a flipped done flag"
    );

    // The pinned model's root.
    let mc = pinned_checker();
    let root = crate::relation::Replay::new(&mc);
    let h = digest_hash(&root.mem.snapshot(), &root.machines, &root.done);
    assert_eq!(h, 0x6aff_d4ae_eaab_99f9_960b_622a_33e5_e740);
}

/// A frontier chunk of the on-disk layer store fits the window together
/// with every successor it can enable: one per machine, plus one crash per
/// machine while the fault model is on.
#[test]
fn frontier_chunks_fit_every_successor() {
    use crate::frontier::layer_record_bytes;
    use crate::spill::{chunk_states, SpillConfig};
    let window = SpillConfig {
        dir: std::env::temp_dir(),
        budget_bytes: 0,
    }
    .window_bytes();
    assert_eq!(window, 64 << 10);
    // Six machines over 7 registers, and over 8 with the fault budget's
    // register: one block either way, so 42-byte records.
    for (mc, moves, chunk) in [
        (pinned_checker(), 6, 222),
        (pinned_checker().faults(1), 12, 120),
    ] {
        let n = mc.machines().len();
        assert_eq!(mc.relation().max_moves(n), moves);
        let blocks = mc.layout().len().div_ceil(crate::frontier::BLOCK);
        let record = layer_record_bytes(blocks, n) as usize;
        assert_eq!(record, 42);
        assert_eq!(chunk_states(window, record, moves), chunk);
        assert!(chunk * record * (1 + moves) <= window);
        assert!((chunk + 1) * record * (1 + moves) > window);
    }
    assert_eq!(chunk_states(100, 90, 6), 1, "at least one state per chunk");
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
    match pinned_checker().max_states(1).check_parallel(|_| Ok(())) {
        Err(crate::CheckError::StateLimit { stats, .. }) => {
            assert!(stats.peak_resident_bytes > 0, "{stats:?}")
        }
        other => panic!("expected the state limit, got {other:?}"),
    }
    let v = pinned_checker()
        .check_parallel(t_raised)
        .unwrap_err()
        .unwrap_violation();
    assert!(v.stats.peak_resident_bytes > 0, "{:?}", v.stats);
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

/// The spilled visited set's join returns exactly the candidates that it
/// holds on disk and `find` does not see: checked against an oracle over
/// one shard whose compacted run spans two read blocks, beside small runs
/// and shards with no runs.
#[test]
fn block_join_matches_an_oracle() {
    use crate::checker::DigestSet;
    use crate::engine::{shard_of, Visited};
    use crate::frontier::ScratchDir;
    use crate::spill::{SpillConfig, SpillSet};
    let tmp = std::env::temp_dir();
    let scratch = ScratchDir::create(&tmp).unwrap();
    // A zero budget flushes the delta every 4 097 hashes (the 64 KiB floor).
    let cfg = SpillConfig {
        dir: tmp,
        budget_bytes: 0,
    };
    let mut set = SpillSet::create(scratch.path(), &cfg).unwrap();
    let mut rng = crate::SplitMix64::new(22);
    let mut random_in = |shard: u128| {
        let h = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        h >> 6 | shard << 122
    };
    // 80 078 hashes in shard 5, and 322 in shards 0 to 4.
    let mut inserted = Vec::new();
    let mut seen = DigestSet::default();
    while inserted.len() < 80_400 {
        let n = inserted.len();
        let h = random_in(if n % 250 == 0 {
            (n / 250 % 5) as u128
        } else {
            5
        });
        if seen.insert(h) {
            set.insert(n as u32, h, (0, 0), false).unwrap();
            inserted.push(h);
        }
    }
    let read_run = |path: &std::path::PathBuf| -> Vec<u128> {
        let bytes = std::fs::read(path).unwrap();
        let run: Vec<u128> = (bytes.chunks_exact(16))
            .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert!(run.is_sorted(), "{path:?} is sorted");
        run
    };

    // Compaction kept every flushed hash, each once.
    let mut on_disk: Vec<u128> = set.runs().iter().flatten().flat_map(read_run).collect();
    on_disk.sort_unstable();
    let mut flushed: Vec<u128> = inserted
        .iter()
        .copied()
        .filter(|&h| set.find(h).is_none())
        .collect();
    flushed.sort_unstable();
    assert_eq!(on_disk, flushed);
    assert!(
        flushed.len() < inserted.len(),
        "some hashes stay in the delta"
    );

    // One block is 65 536 hashes: the compacted run spans two.
    let big = read_run(&set.runs()[5][0]);
    assert!(
        big.len() > 65_536 && set.runs()[5].len() > 1,
        "{}",
        big.len()
    );
    let mut cands: Vec<u128> = inserted.iter().step_by(97).copied().collect();
    for run in set.runs().iter().flatten().map(read_run) {
        cands.extend([run[0], run[run.len() - 1]]);
    }
    cands.extend([big[65_535], big[65_536]]);
    let absent = cands
        .iter()
        .flat_map(|&h| [h.wrapping_sub(1), h.wrapping_add(1)]);
    let absent: Vec<u128> = absent.filter(|h| !seen.contains(h)).collect();
    cands.extend(absent);
    let no_runs: Vec<u128> = (0..50).map(|_| random_in(40)).collect();
    assert!(no_runs
        .iter()
        .all(|&h| shard_of(h) == 40 && set.runs()[40].is_empty()));
    cands.extend(&no_runs);

    let mut expected: Vec<u128> = (cands.iter().copied())
        .filter(|&h| seen.contains(&h) && set.find(h).is_none())
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert!(expected.binary_search(&big[65_535]).is_ok());
    assert!(expected.binary_search(&big[65_536]).is_ok());
    let mut joined: Vec<u128> = set
        .join(cands.iter().copied())
        .unwrap()
        .into_iter()
        .collect();
    joined.sort_unstable();
    assert_eq!(joined, expected);
    assert!(set.join(std::iter::empty()).unwrap().is_empty());
    assert!(set.join(no_runs.into_iter()).unwrap().is_empty());
}

#[test]
fn engine_labels_name_the_backend() {
    use crate::Engine;
    let hashed = Engine::Parallel {
        workers: 2,
        hashed: true,
    };
    let spill = Engine::Spill {
        dir: std::env::temp_dir(),
        budget_bytes: 16 << 20,
        workers: 2,
    };
    assert_eq!(Engine::Sequential.label(), "dfs");
    assert_eq!(hashed.label(), "bfs+hash:2w");
    assert_eq!(spill.label(), "bfs+spill:2w:16MiB");
    assert_eq!(
        Engine::Reduced(Box::new(spill)).label(),
        "bfs+spill:2w:16MiB+por"
    );
    assert_eq!(Engine::Reduced(Box::new(hashed)).label(), "bfs+hash:2w+por");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        Engine::Parallel {
            workers: 0,
            hashed: true
        }
        .label(),
        format!("bfs+hash:{cores}w")
    );
}

#[test]
#[should_panic(expected = "Engine::Sequential")]
fn check_with_rejects_an_exact_bfs() {
    let mut layout = Layout::new();
    let x = layout.scalar("X", 0);
    let exact_bfs = crate::Engine::Parallel {
        workers: 1,
        hashed: false,
    };
    let _ = ModelChecker::new(layout, vec![Incr::new(x)]).check_with(&exact_bfs, |_| Ok(()));
}
