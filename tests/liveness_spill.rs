//! Disk-CSR differential suite for the liveness checker.
//!
//! On `Engine::Spill`, `check_always_terminable` streams the
//! state graph's edges to an on-disk log during the forward pass, builds
//! the reversed-edge CSR predecessor file with a bounded-window external
//! counting sort, and reads predecessor runs through per-worker file
//! handles. This suite pins that path against the all-in-RAM checker:
//!
//! * every E2 liveness family must report identical `(states, edges,
//!   terminal_states)` (the edges are the stats' `transitions`) and the
//!   same verdict at every tested worker count
//!   and byte budget;
//! * a trap (the deadlock witness) must be reported with the identical
//!   message and schedule through both CSR representations;
//! * a deliberately edge-heavy family (stateless spinners hammering one
//!   flag) must stay under a resident-byte budget that its edge list
//!   alone exceeds — the row the in-RAM checker cannot produce.

use llr_core::chain::SplitMa;
use llr_core::filter::spec as filter_spec;
use llr_core::levelarray::spec as la_spec;
use llr_core::ma::spec as ma_spec;
use llr_core::onetime::spec as onetime_spec;
use llr_core::pf::spec as pf_spec;
use llr_core::session;
use llr_core::split::spec as split_spec;
use llr_core::tournament::spec as tree_spec;
use llr_gf::FilterParams;
use llr_mc::{CheckError, Engine, MachineStatus, ModelChecker, StepMachine};
use llr_mem::{Layout, Loc, Memory};

const WORKER_COUNTS: [usize; 2] = [1, 2];
const SPILL_BUDGETS: [usize; 2] = [1usize << 30, 0];

/// The all-in-RAM liveness checker: one worker, edges and CSR in RAM.
const IN_RAM: Engine = Engine::Parallel {
    workers: 1,
    hashed: true,
};

/// The disk-CSR liveness checker on `workers` threads under
/// `budget_bytes`.
fn disk_csr(budget_bytes: usize, workers: usize) -> Engine {
    Engine::Spill {
        dir: std::env::temp_dir(),
        budget_bytes,
        workers,
    }
}

/// The disk-CSR liveness checker at every budget and worker count.
fn on_disk() -> impl Iterator<Item = Engine> {
    SPILL_BUDGETS
        .into_iter()
        .flat_map(|budget| WORKER_COUNTS.map(|workers| disk_csr(budget, workers)))
}

/// Runs the liveness check fully in RAM and through the disk-CSR path
/// at every budget and worker count, asserting identical graph counts
/// and that the spill run actually wrote the edge structure to disk.
fn assert_liveness_agrees<M: StepMachine + Send + Sync>(
    label: &str,
    build: impl Fn() -> ModelChecker<M>,
) {
    let inram = build()
        .check_always_terminable(&IN_RAM)
        .unwrap_or_else(|e| panic!("{label}: in-RAM liveness failed:\n{e}"));
    assert_eq!(
        inram.spilled_bytes, 0,
        "{label}: in-RAM path must not spill"
    );
    for engine in on_disk() {
        let tag = format!("{label} {}", engine.label());
        let spill = build()
            .check_always_terminable(&engine)
            .unwrap_or_else(|e| panic!("{tag}: disk-CSR liveness failed:\n{e}"));
        assert_eq!(spill.states, inram.states, "states ({tag})");
        assert_eq!(spill.transitions, inram.transitions, "edges ({tag})");
        assert_eq!(
            spill.terminal_states, inram.terminal_states,
            "terminal states ({tag})"
        );
        // The edge log (8 B/edge) and predecessor file (4 B/edge)
        // must both have gone to disk.
        assert!(
            spill.spilled_bytes >= inram.transitions * 12,
            "edge structure must live on disk ({tag}): spilled {} bytes for {} edges",
            spill.spilled_bytes,
            inram.transitions
        );
    }
}

/// Every E2 liveness family, at a mid-size configuration, through both
/// CSR representations.
#[test]
fn e2_families_disk_csr_agrees() {
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    assert_liveness_agrees("PF 4 sessions", || pf_spec::checker(4));
    assert_liveness_agrees("tournament S=8", || tree_spec::checker(8, &[2, 3], 3));
    assert_liveness_agrees("SPLIT k=2", || split_spec::checker(2, 2, 3));
    assert_liveness_agrees("FILTER tiny", || filter_spec::checker(tiny, &[1, 3], 2));
    assert_liveness_agrees("MA k=2 S=3", || ma_spec::checker(2, 3, &[0, 2], 3));
    assert_liveness_agrees("chain k=2", || {
        let mut layout = Layout::new();
        let core = SplitMa::build(2, &mut layout).unwrap();
        session::checker(layout, &core, &[3, 9], 1)
    });
    assert_liveness_agrees("LevelArray k=3", || la_spec::checker(3, &[2, 9, 77], 2));
    assert_liveness_agrees("small net ℓ=2", || {
        onetime_spec::small_net_checker(2, &[0, 1, 2])
    });
}

/// Two machines that grab two plain flags in opposite order and spin for
/// the second: the classic deadlock, used here as the trap witness.
#[derive(Clone)]
struct DeadlockProne {
    first: Loc,
    second: Loc,
    pc: u8,
}

impl StepMachine for DeadlockProne {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self.pc {
            0 => {
                if mem.read(self.first) == 0 {
                    self.pc = 1;
                }
                MachineStatus::Running
            }
            1 => {
                mem.write(self.first, 1);
                self.pc = 2;
                MachineStatus::Running
            }
            2 => {
                if mem.read(self.second) == 0 {
                    self.pc = 3;
                }
                MachineStatus::Running
            }
            3 => {
                mem.write(self.second, 1);
                self.pc = 4;
                MachineStatus::Running
            }
            4 => {
                mem.write(self.first, 0);
                self.pc = 5;
                MachineStatus::Running
            }
            _ => {
                mem.write(self.second, 0);
                MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
    }

    fn describe(&self) -> String {
        format!("DeadlockProne(pc={})", self.pc)
    }
}

fn deadlock_checker() -> ModelChecker<DeadlockProne> {
    let mut layout = Layout::new();
    let a = layout.scalar("A", 0);
    let b = layout.scalar("B", 0);
    ModelChecker::new(
        layout,
        vec![
            DeadlockProne {
                first: a,
                second: b,
                pc: 0,
            },
            DeadlockProne {
                first: b,
                second: a,
                pc: 0,
            },
        ],
    )
}

/// A trap must be reported identically — message and schedule — through
/// the in-RAM CSR and the disk CSR, at every budget and worker count.
#[test]
fn trap_report_is_identical_through_disk_csr() {
    let trap_of = |err: CheckError| match err {
        CheckError::Violation(v) => (v.message.clone(), v.schedule.clone()),
        other => panic!("expected a trap, got {other}"),
    };
    let expected = trap_of(
        deadlock_checker()
            .check_always_terminable(&IN_RAM)
            .expect_err("the deadlock must be found in RAM"),
    );
    for engine in on_disk() {
        let got = trap_of(
            deadlock_checker()
                .check_always_terminable(&engine)
                .expect_err("the deadlock must be found through the disk CSR"),
        );
        assert_eq!(got, expected, "trap report differs ({})", engine.label());
    }
}

/// A countdown writer hammered by stateless spinners: the state count
/// stays near the countdown length, but every state fans out one edge
/// per spinner, so the edge list dwarfs the state set — the shape that
/// breaks an in-RAM edge list first.
#[derive(Clone)]
struct Spinner {
    flag: Loc,
    done: bool,
}

impl StepMachine for Spinner {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        if mem.read(self.flag) == 0 {
            self.done = true;
            MachineStatus::Done
        } else {
            MachineStatus::Running
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.done as u64);
    }

    fn describe(&self) -> String {
        format!("Spinner(done={})", self.done)
    }
}

#[derive(Clone)]
struct Countdown {
    flag: Loc,
    left: u16,
}

impl StepMachine for Countdown {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        self.left -= 1;
        mem.write(self.flag, self.left as u64);
        if self.left == 0 {
            MachineStatus::Done
        } else {
            MachineStatus::Running
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.left as u64);
    }

    fn describe(&self) -> String {
        format!("Countdown(left={})", self.left)
    }
}

fn spinner_checker(spinners: usize, countdown: u16) -> ModelChecker<Spinner2> {
    let mut layout = Layout::new();
    let flag = layout.scalar("FLAG", countdown as u64);
    let mut machines: Vec<Spinner2> = (0..spinners)
        .map(|_| Spinner2::Spin(Spinner { flag, done: false }))
        .collect();
    machines.push(Spinner2::Count(Countdown {
        flag,
        left: countdown,
    }));
    ModelChecker::new(layout, machines)
}

/// Two-variant machine so spinners and the countdown share one checker.
#[derive(Clone)]
enum Spinner2 {
    Spin(Spinner),
    Count(Countdown),
}

impl StepMachine for Spinner2 {
    fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
        match self {
            Spinner2::Spin(s) => s.step(mem),
            Spinner2::Count(c) => c.step(mem),
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        match self {
            Spinner2::Spin(s) => {
                out.push(0);
                s.key(out);
            }
            Spinner2::Count(c) => {
                out.push(1);
                c.key(out);
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Spinner2::Spin(s) => s.describe(),
            Spinner2::Count(c) => c.describe(),
        }
    }
}

/// The regression the tentpole exists for: a run whose edge list alone
/// (8 B per edge in RAM) exceeds the byte budget must still complete
/// under that budget on the disk-CSR path, with `peak_resident_bytes`
/// recorded and under budget — while the in-RAM checker's recorded peak
/// blows straight through it.
#[test]
fn edge_heavy_run_stays_under_budget() {
    const BUDGET: usize = 256 * 1024;
    let build = || spinner_checker(8, 8_000);

    let inram = build()
        .check_always_terminable(&IN_RAM)
        .expect("the spinner family always terminates");
    assert!(
        inram.transitions * 8 > BUDGET as u64,
        "the family must be edge-heavy enough: {} edges × 8 B vs {BUDGET} B budget",
        inram.transitions
    );
    assert!(
        inram.peak_resident_bytes > BUDGET as u64,
        "the in-RAM checker must be unable to meet the budget: peak {} B",
        inram.peak_resident_bytes
    );

    let spill = build()
        .check_always_terminable(&disk_csr(BUDGET, 2))
        .expect("the spinner family always terminates under spilling");
    assert_eq!(spill.states, inram.states, "states");
    assert_eq!(spill.transitions, inram.transitions, "edges");
    assert_eq!(
        spill.terminal_states, inram.terminal_states,
        "terminal states"
    );
    assert!(
        spill.peak_resident_bytes <= BUDGET as u64,
        "the disk-CSR run must stay under the budget its edge list exceeds: \
         peak {} B vs budget {BUDGET} B",
        spill.peak_resident_bytes
    );
    assert!(
        spill.spilled_bytes >= inram.transitions * 12,
        "the edge log and predecessor file must be on disk: spilled {} B",
        spill.spilled_bytes
    );
}
