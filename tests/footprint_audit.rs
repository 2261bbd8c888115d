//! Footprint audit: declared POR footprints must over-approximate what
//! the machines actually do.
//!
//! The reduction in `llr-mc/src/por.rs` is only sound if every
//! [`StepMachine::footprint`] declaration is a superset of the machine's
//! real behaviour. This suite drives every protocol family step by step
//! over a recording [`Memory`] wrapper and checks, for each executed
//! step:
//!
//! * the access it performed (if any) is covered by the next-step sets
//!   the machine declared *immediately before* the step;
//! * the access is covered by the **future** sets of every footprint the
//!   machine declared at any earlier point of the run — future
//!   footprints may only shrink, so each old claim must still hold;
//! * the step performed at most one shared access (the paper's
//!   atomicity granularity, which the checker's soundness also rests
//!   on). A [`Memory::swap`] shows up here as the default read+write
//!   decomposition on the *same* location — that pair is one atomic
//!   exchange at the machine's granularity and is admitted as a single
//!   access, provided both halves hit the same register.
//!
//! A deliberately lying spec closes the loop: the audit must catch both
//! a machine whose *next-step* declaration omits an access and one
//! whose *future* declaration does.

use std::cell::RefCell;

use llr_core::chain::Chain;
use llr_core::filter::spec as filter_spec;
use llr_core::levelarray::spec as la_spec;
use llr_core::ma::spec as ma_spec;
use llr_core::onetime::spec as onetime_spec;
use llr_core::pf::spec as pf_spec;
use llr_core::split::spec as split_spec;
use llr_core::splitter::spec as splitter_spec;
use llr_core::tournament::spec as tree_spec;
use llr_gf::FilterParams;
use llr_mc::{Footprint, ModelChecker, SplitMix64, StepMachine};
use llr_mem::{Loc, Memory, SimMemory, Word};

/// Wraps a [`SimMemory`] and logs every access so it can be compared
/// against the footprint declared before the step.
struct RecordingMem<'a> {
    inner: &'a SimMemory,
    log: RefCell<Vec<(bool, Loc)>>,
}

impl<'a> RecordingMem<'a> {
    fn new(inner: &'a SimMemory) -> Self {
        Self { inner, log: RefCell::new(Vec::new()) }
    }
}

impl Memory for RecordingMem<'_> {
    fn read(&self, loc: Loc) -> Word {
        self.log.borrow_mut().push((false, loc));
        self.inner.read(loc)
    }

    fn write(&self, loc: Loc, val: Word) {
        self.log.borrow_mut().push((true, loc));
        self.inner.write(loc, val)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Runs `walks` random schedules of up to `max_steps` steps each and
/// audits every executed step against the machine's declarations.
/// Returns the first contract breach as `Err` so the lying-spec tests
/// can assert on it.
fn audit<M: StepMachine>(
    mc: &ModelChecker<M>,
    seed: u64,
    walks: usize,
    max_steps: usize,
) -> Result<(), String> {
    let mut gen = SplitMix64::new(seed);
    for walk in 0..walks {
        let (mem, mut machines, mut done) = mc.run_schedule(&[]);
        // Every footprint a machine has declared so far. Future sets may
        // only shrink, so each access must satisfy *all* earlier claims,
        // not just the latest one.
        let mut claims: Vec<Vec<Footprint>> = vec![Vec::new(); machines.len()];
        for step_no in 0..max_steps {
            let running: Vec<usize> =
                (0..machines.len()).filter(|&i| !done[i]).collect();
            let Some(&i) = running.get(gen.next_index(running.len().max(1))) else {
                break;
            };
            let mut fp = Footprint::new();
            machines[i].footprint(&mut fp);
            let desc = machines[i].describe();
            let rec = RecordingMem::new(&mem);
            let status = machines[i].step(&rec);
            let log = rec.log.into_inner();
            // A same-location read+write pair is Memory::swap seen through
            // its default decomposition: one atomic exchange, not two
            // accesses.
            let is_swap = log.len() == 2 && !log[0].0 && log[1].0 && log[0].1 == log[1].1;
            if log.len() > 1 && !is_swap {
                return Err(format!(
                    "walk {walk} step {step_no}: machine {i} [{desc}] performed \
                     {} shared accesses in one step",
                    log.len()
                ));
            }
            for &(is_write, loc) in &log {
                let kind = if is_write { "write" } else { "read" };
                let next_ok =
                    if is_write { fp.covers_write(loc) } else { fp.covers_read(loc) };
                if !next_ok {
                    return Err(format!(
                        "walk {walk} step {step_no}: machine {i} [{desc}] performed \
                         a {kind} of {loc:?} outside its declared next-step footprint"
                    ));
                }
                for (age, past) in claims[i].iter().enumerate() {
                    let fut_ok = if is_write {
                        past.covers_future_write(loc)
                    } else {
                        past.covers_future_read(loc)
                    };
                    if !fut_ok {
                        return Err(format!(
                            "walk {walk} step {step_no}: machine {i} [{desc}] {kind} \
                             of {loc:?} escapes the future footprint it declared at \
                             its step #{age}"
                        ));
                    }
                }
            }
            claims[i].push(fp);
            if status.is_done() {
                done[i] = true;
            }
        }
    }
    Ok(())
}

fn audit_ok<M: StepMachine>(label: &str, mc: ModelChecker<M>, seed: u64) {
    audit(&mc, seed, 40, 500).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn splitter_footprints_honest() {
    for (init_last, init_a1, init_a2) in splitter_spec::all_inits(3) {
        audit_ok(
            "splitter ℓ=3",
            splitter_spec::checker(3, 2, init_last, init_a1, init_a2),
            0xF00D_0001 ^ init_last ^ (init_a1 << 8) ^ (init_a2 << 16),
        );
    }
}

#[test]
fn pf_footprints_honest() {
    audit_ok("PF", pf_spec::checker(4), 0xF00D_0002);
}

#[test]
fn tournament_footprints_honest() {
    audit_ok("tournament S=8", tree_spec::checker(8, &[0, 3, 5, 6], 3), 0xF00D_0003);
    audit_ok("tournament S=4", tree_spec::checker(4, &[0, 1, 2, 3], 2), 0xF00D_0004);
}

#[test]
fn split_footprints_honest() {
    audit_ok("SPLIT k=3", split_spec::checker(3, 3, 2), 0xF00D_0005);
    audit_ok("SPLIT k=4", split_spec::checker(4, 4, 1), 0xF00D_0006);
}

#[test]
fn filter_footprints_honest() {
    let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
    audit_ok("FILTER gf5", filter_spec::checker(gf5, &[1, 6, 11], 2), 0xF00D_0007);
    let tiny = FilterParams::new(2, 4, 1, 2).unwrap();
    audit_ok("FILTER tiny", filter_spec::checker(tiny, &[0, 3], 3), 0xF00D_0008);
}

#[test]
fn ma_footprints_honest() {
    audit_ok("MA k=3", ma_spec::checker(3, 4, &[0, 1, 3], 2), 0xF00D_0009);
}

#[test]
fn chain_footprints_honest() {
    audit_ok(
        "chain k=3",
        Chain::split_ma(3).unwrap().checker(&[2, 5, 11], 2),
        0xF00D_000A,
    );
}

#[test]
fn onetime_footprints_honest() {
    audit_ok("one-time k=3", onetime_spec::checker(3, &[0, 1, 2]), 0xF00D_000B);
}

#[test]
fn levelarray_footprints_honest() {
    // The claim step is a swap: the audit sees its read+write halves and
    // requires the declared footprint to cover both.
    audit_ok("LevelArray k=3", la_spec::checker(3, &[2, 9, 77], 2), 0xF00D_000C);
    audit_ok("LevelArray k=4", la_spec::checker(4, &[0, 1, 2, 3], 1), 0xF00D_000D);
}

#[test]
fn smallnet_footprints_honest() {
    audit_ok("small net ℓ=2", onetime_spec::small_net_checker(2, &[0, 1, 2]), 0xF00D_000E);
    audit_ok("small net ℓ=3", onetime_spec::small_net_checker(3, &[0, 1, 2, 3]), 0xF00D_000F);
}

/// A machine whose next-step declaration claims a *read of X* while the
/// step actually writes Y. The audit must call this out — if it cannot
/// catch a planted lie, the honesty tests above prove nothing.
#[derive(Clone)]
struct NextLiar {
    x: Loc,
    y: Loc,
    left: u8,
}

impl StepMachine for NextLiar {
    fn step(&mut self, mem: &dyn Memory) -> llr_mc::MachineStatus {
        mem.write(self.y, self.left as u64);
        self.left -= 1;
        if self.left == 0 {
            llr_mc::MachineStatus::Done
        } else {
            llr_mc::MachineStatus::Running
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.left as u64);
    }

    fn describe(&self) -> String {
        format!("NextLiar(left={})", self.left)
    }

    fn footprint(&self, fp: &mut Footprint) {
        fp.read(self.x); // lie: the step writes Y
    }
}

#[test]
fn audit_catches_next_step_lie() {
    let mut layout = llr_mem::Layout::new();
    let x = layout.scalar("X", 0);
    let y = layout.scalar("Y", 0);
    let mc = ModelChecker::new(layout, vec![NextLiar { x, y, left: 2 }]);
    let err = audit(&mc, 1, 1, 10).expect_err("the planted lie must be caught");
    assert!(
        err.contains("outside its declared next-step footprint"),
        "unexpected audit report: {err}"
    );
}

/// A machine whose first, purely local step declares a future footprint
/// of only X — and then writes Y. Each individual next-step declaration
/// is honest; only the lifetime claim is a lie.
#[derive(Clone)]
struct FutureLiar {
    x: Loc,
    y: Loc,
    pc: u8,
}

impl StepMachine for FutureLiar {
    fn step(&mut self, mem: &dyn Memory) -> llr_mc::MachineStatus {
        match self.pc {
            0 => {
                self.pc = 1; // local, no shared access
                llr_mc::MachineStatus::Running
            }
            _ => {
                mem.write(self.y, 7);
                llr_mc::MachineStatus::Done
            }
        }
    }

    fn key(&self, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
    }

    fn describe(&self) -> String {
        format!("FutureLiar(pc={})", self.pc)
    }

    fn footprint(&self, fp: &mut Footprint) {
        match self.pc {
            0 => fp.future_write(self.x), // lie: the rest of life writes Y
            _ => fp.write(self.y),        // honest next step
        }
    }
}

#[test]
fn audit_catches_future_lie() {
    let mut layout = llr_mem::Layout::new();
    let x = layout.scalar("X", 0);
    let y = layout.scalar("Y", 0);
    let mc = ModelChecker::new(layout, vec![FutureLiar { x, y, pc: 0 }]);
    let err = audit(&mc, 1, 1, 10).expect_err("the planted future lie must be caught");
    assert!(
        err.contains("escapes the future footprint"),
        "unexpected audit report: {err}"
    );
}
