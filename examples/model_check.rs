//! Watch the model checker work: verify the splitter reconstruction
//! exhaustively, then demonstrate a counterexample on a deliberately
//! broken variant (the naive test-then-set lock from `llr-mc`'s tests).
//!
//! Run with: `cargo run --release --example model_check`

use llr_core::splitter::spec as splitter_spec;
use llr_mc::{Engine, MachineStatus, ModelChecker, StepMachine};
use llr_mem::{Layout, Loc, Memory};

fn main() {
    // --- 1. The real thing: Theorem 5, exhaustively ----------------------
    println!("splitter invariant (Theorem 5): every output set ≤ ℓ-1 of ℓ entrants");
    for (ell, sessions) in [(2usize, 3u8), (3, 2)] {
        let stats =
            splitter_spec::check_all_inits(ell, sessions).expect("the reconstruction is correct");
        println!(
            "  ℓ = {ell}, {sessions} sessions/proc, all 12 initial register \
             assignments: VERIFIED over {stats}"
        );
    }

    // --- 2. A broken lock, to show what a violation looks like -----------
    #[derive(Clone)]
    struct BadLock {
        lock: Loc,
        pc: u8,
        in_cs: bool,
    }
    impl StepMachine for BadLock {
        fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
            match self.pc {
                0 => {
                    if mem.read(self.lock) == 0 {
                        self.pc = 1;
                    }
                    MachineStatus::Running
                }
                1 => {
                    mem.write(self.lock, 1);
                    self.in_cs = true;
                    self.pc = 2;
                    MachineStatus::Running
                }
                _ => {
                    mem.write(self.lock, 0);
                    self.in_cs = false;
                    MachineStatus::Done
                }
            }
        }
        fn key(&self, out: &mut Vec<u64>) {
            out.push(self.pc as u64);
            out.push(u64::from(self.in_cs));
        }
        fn describe(&self) -> String {
            format!("BadLock(pc={}, in_cs={})", self.pc, self.in_cs)
        }
    }

    println!("\na deliberately broken test-then-set lock:");
    let mut layout = Layout::new();
    let lock = layout.scalar("LOCK", 0);
    let m = BadLock {
        lock,
        pc: 0,
        in_cs: false,
    };
    let mc = ModelChecker::new(layout, vec![m.clone(), m]);
    match mc.check_with(&Engine::Sequential, |w| {
        let inside = w.machines.iter().filter(|m| m.in_cs).count();
        if inside > 1 {
            Err(format!("{inside} processes in the critical section"))
        } else {
            Ok(())
        }
    }) {
        Ok(_) => unreachable!("the bad lock must fail"),
        Err(e) => println!("{e}"),
    }
}
