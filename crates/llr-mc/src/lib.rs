//! Exhaustive interleaving model checker for shared-memory step machines.
//!
//! The renaming protocols of Buhrman–Garay–Hoepman–Moir (1995) are specified
//! at the granularity of "each labelled statement is executed atomically and
//! contains at most one access of a shared variable". A protocol execution
//! is therefore an arbitrary interleaving of such statements. This crate
//! explores **all** interleavings of a small configuration (or a randomized
//! sample of a large one) and checks user-supplied safety invariants in
//! every reachable state.
//!
//! This matters for the reproduction because two of the paper's figures
//! (the splitter of Figure 2 and the modified Peterson–Fischer mutex of
//! Figure 3) are corrupted in the available scan and had to be
//! reconstructed from the prose and the proofs; the checker is what elevates
//! those reconstructions from "plausible" to "exhaustively verified for all
//! schedules of the configurations we can afford to enumerate".
//!
//! # Pieces
//!
//! * [`StepMachine`] — a process as an explicit state machine: program
//!   counter + locals, one shared access per [`StepMachine::step`].
//! * [`ModelChecker`] — exhaustive search over the global state graph
//!   (registers × machine states) with visited-state memoization;
//!   [`ModelChecker::check_with`] verifies an invariant in every
//!   reachable state on the backend an [`Engine`] names and produces a
//!   replayable [`Violation`] trace otherwise, and
//!   [`ModelChecker::check_always_terminable`] verifies that every
//!   reachable state can still finish. Every engine visits the same
//!   states and reports identical `states`/`transitions`/`terminal_states`
//!   in one [`CheckStats`]; the breadth-first engines' violation choice is
//!   deterministic for every worker count.
//! * [`Engine`] — the one backend selector: the sequential DFS, or the
//!   breadth-first loop over its worker threads with its stores in RAM or
//!   on disk, each with or without partial-order reduction.
//! * [`ModelChecker::random_walks`] — seeded random schedules (driven by
//!   the vendored [`SplitMix64`]) for configurations too large to
//!   enumerate.
//! * [`ModelChecker::run_schedule`] / [`ModelChecker::round_robin`] —
//!   deterministic replay and a bounded-fairness liveness check
//!   (every machine finishes within a step budget under a fair schedule).
//! * [`ModelChecker::faults`] — the crash–restart fault model: a crash of
//!   a machine is one more kind of move, with a budget.
//!
//! # Example
//!
//! A non-atomic counter increment (read, then write) loses updates; the
//! checker finds the interleaving:
//!
//! ```
//! use llr_mc::{Engine, MachineStatus, ModelChecker, StepMachine};
//! use llr_mem::{Layout, Loc, Memory};
//!
//! #[derive(Clone)]
//! struct Incr { x: Loc, pc: u8, tmp: u64 }
//!
//! impl StepMachine for Incr {
//!     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
//!         match self.pc {
//!             0 => { self.tmp = mem.read(self.x); self.pc = 1; MachineStatus::Running }
//!             _ => { mem.write(self.x, self.tmp + 1); self.pc = 2; MachineStatus::Done }
//!         }
//!     }
//!     fn key(&self, out: &mut Vec<u64>) { out.push(self.pc as u64); out.push(self.tmp); }
//!     fn describe(&self) -> String { format!("pc={} tmp={}", self.pc, self.tmp) }
//! }
//!
//! let mut layout = Layout::new();
//! let x = layout.scalar("X", 0);
//! let machines = vec![Incr { x, pc: 0, tmp: 0 }, Incr { x, pc: 0, tmp: 0 }];
//! let mc = ModelChecker::new(layout, machines);
//! let result = mc.check_with(&Engine::Sequential, |world| {
//!     if world.all_done() && world.mem.read(x) != 2 {
//!         Err("lost update".into())
//!     } else {
//!         Ok(())
//!     }
//! });
//! assert!(result.is_err()); // the classic race is found
//! ```
//!
//! # Engines
//!
//! Two exploration engines, visiting the same states and reporting
//! identical counts: the sequential DFS ([`Engine::Sequential`]), with an
//! explicit stack and an in-RAM visited set of exact keys — the one exact
//! engine — and one parallel breadth-first loop ([`Engine::Parallel`] and
//! [`Engine::Spill`], also the forward pass of
//! [`ModelChecker::check_always_terminable`]), which dedups by a 128-bit
//! state hash on every store.
//!
//! Both engines and replay share one transition relation: which moves
//! (machine steps and, under [`ModelChecker::faults`], crashes) a state
//! enables and in what order, when partial-order reduction
//! ([`Engine::Reduced`]) may take one ample step instead, what a move
//! does, and how a move is written in a [`Violation::schedule`]. Replay
//! ([`ModelChecker::run_schedule`], [`ModelChecker::render_trace`],
//! [`ModelChecker::shrink_schedule`]) skips an entry whose move the state
//! does not enable, so it never takes a move that no engine takes.
//!
//! The loop runs over two stores, and [`Engine::Spill`] selects their disk
//! versions:
//!
//! | store | in RAM ([`Engine::Parallel`]) | on disk ([`Engine::Spill`]) |
//! |---|---|---|
//! | visited | sharded map of 128-bit state hashes | bounded in-RAM delta + sorted runs on disk |
//! | layers | packed records in flat buffers, one chunk per layer | the same records in per-layer files on disk ([`frontier`]), read in bounded chunks |
//! | pools | machines per slot and 8-register blocks per block position, with their digests | the same, in RAM |
//!
//! Both layer stores keep a state as one packed record — done flags, a
//! per-slot machine id and one block id per 8-register block — over the
//! two pools the loop owns, so a state costs
//! [`layer_record_bytes`](frontier::layer_record_bytes)`(⌈registers / 8⌉,
//! machines)` in RAM as on disk. A state's hash is the XOR of its blocks'
//! and slots' digests, so a transition re-hashes only what its move
//! changed.

#![warn(missing_docs)]

mod checker;
mod drive;
mod engine;
pub mod frontier;
mod liveness;
mod machine;
mod por;
mod relation;
mod rng;
mod spill;

pub use checker::{CheckError, CheckStats, ModelChecker, Violation, World, CRASH_SCHEDULE_BASE};
pub use drive::Engine;
pub use machine::{MachineStatus, StepMachine};
pub use por::{independent, Footprint};
pub use rng::SplitMix64;

#[cfg(test)]
mod tests;
