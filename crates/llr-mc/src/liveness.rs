//! Exhaustive liveness checking: "from every reachable state, the system
//! can still finish".
//!
//! Safety invariants ([`ModelChecker::check`]) say nothing about getting
//! stuck: a protocol could be exclusion-safe yet drive itself into a
//! state from which no schedule completes the workload (deadlock, or a
//! livelock trap where only unproductive cycles remain). This module
//! builds the full reachable state graph and verifies that **every**
//! state can reach a terminal state (all machines done).
//!
//! For wait-free protocols this is implied by wait-freedom (any fair
//! schedule finishes from anywhere) — so a trap state is a bug witness.
//! For blocking substrates like the Peterson–Fischer block, it is
//! exactly deadlock-freedom.
//!
//! The graph is built by the same breadth-first loop as
//! [`ModelChecker::check_parallel`], on its in-RAM visited store with edge
//! recording on, so the forward pass scales over
//! [`ModelChecker::workers`] threads. The backward marking runs
//! layer-parallel over the same worker count: the reversed edges are
//! packed into a CSR adjacency (one offset array, one flat predecessor
//! array — no per-state `Vec`s), and one sweep marks each backward layer
//! concurrently with atomic-swap claiming, so every state is enqueued
//! exactly once, whichever of the two CSR forms below it reads. Edges are
//! stored as flat `u32` index pairs.
//!
//! With [`ModelChecker::spill_dir`] configured, the structure that grows
//! with *edges* moves to disk: the forward pass streams `(from, to)`
//! pairs to an append-only log instead of an in-RAM `Vec`, the reversed
//! CSR's flat predecessor array is built on disk by an external counting
//! sort whose working buffer is bounded by a quarter of the configured
//! budget ([`crate::frontier::DiskCsr`]), and each backward-marking
//! worker reads predecessor runs through its own file handle. Only the
//! `8(n + 1)`-byte offset array — linear in states, not edges — stays in
//! RAM, and the reported verdict, trap state and schedule are identical
//! to the in-RAM path (`tests/liveness_spill.rs` pins this on every E2
//! family).

use crate::checker::{CheckError, CheckStats, ModelChecker, Violation};
use crate::engine::{explore, schedule_to, EdgeStore, RamLayers, RamVisited};
use crate::frontier::{DiskCsr, ScratchDir};
use crate::StepMachine;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Result of a [`ModelChecker::check_always_terminable`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LivenessStats {
    /// Distinct reachable states.
    pub states: u64,
    /// Edges in the state graph.
    pub edges: u64,
    /// Terminal states (all machines done).
    pub terminal_states: u64,
    /// Deterministic peak payload bytes across the forward exploration
    /// and the backward marking (including the in-RAM edge list / CSR,
    /// or only the offset array and bounded windows when spilling).
    pub peak_resident_bytes: u64,
    /// Bytes written to disk (edge log + predecessor file); `0` on the
    /// all-in-RAM path.
    pub spilled_bytes: u64,
}

impl std::fmt::Display for LivenessStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states, {} edges, {} terminal",
            self.states, self.edges, self.terminal_states
        )
    }
}

impl<M: StepMachine + Send + Sync> ModelChecker<M> {
    /// Explores the full reachable state graph and verifies that a
    /// terminal state (every machine done) is reachable **from every
    /// reachable state**.
    ///
    /// Both passes run over [`workers`](Self::workers) threads: the
    /// forward graph construction on the breadth-first loop, and
    /// the backward marking as a layered sweep over the reversed-edge
    /// CSR adjacency. State ids, the set of trap states, and hence the
    /// reported trap are deterministic for every worker count.
    ///
    /// # Errors
    ///
    /// * [`CheckError::Violation`] with a schedule leading into a trap
    ///   region (a reachable state from which no continuation terminates);
    /// * [`CheckError::StateLimit`] if the graph exceeds the configured
    ///   state budget.
    ///
    /// # Panics
    ///
    /// Panics if the state graph exceeds `u32::MAX` states (far beyond
    /// the configured limits).
    ///
    /// # Example
    ///
    /// Two straight-line writers can always finish from anywhere:
    ///
    /// ```
    /// use llr_mc::{MachineStatus, ModelChecker, StepMachine};
    /// use llr_mem::{Layout, Loc, Memory};
    ///
    /// #[derive(Clone)]
    /// struct Count { x: Loc, left: u8 }
    /// impl StepMachine for Count {
    ///     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
    ///         mem.write(self.x, self.left as u64);
    ///         self.left -= 1;
    ///         if self.left == 0 { MachineStatus::Done } else { MachineStatus::Running }
    ///     }
    ///     fn key(&self, out: &mut Vec<u64>) { out.push(self.left as u64); }
    ///     fn describe(&self) -> String { format!("left={}", self.left) }
    /// }
    ///
    /// let mut layout = Layout::new();
    /// let x = layout.scalar("X", 0);
    /// let mc = ModelChecker::new(layout, vec![Count { x, left: 2 }, Count { x, left: 2 }]);
    /// let stats = mc.check_always_terminable().unwrap();
    /// assert_eq!(stats.terminal_states, 1); // both done, X settled
    /// ```
    pub fn check_always_terminable(&self) -> Result<LivenessStats, CheckError> {
        let workers = self.resolved_workers();
        let ok = |_: &crate::World<'_, M>| Ok(());
        let (explored, edges, visited) =
            explore(self, &ok, workers, true, RamVisited::new(), RamLayers::new)?;

        // Backward marking from terminal states over reversed edges,
        // layer-parallel like the forward pass. The reversed graph is
        // packed into CSR form (offset + flat predecessor arrays — on
        // disk when spilling), then each backward layer is swept over
        // the worker pool. The *set* marked per layer is
        // schedule-independent, hence the first unmarked id (the
        // reported trap) is deterministic for every worker count — and
        // for both CSR representations.
        let n = explored.states as usize;
        let can_finish: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let frontier: Vec<u32> = (0..n as u32)
            .filter(|&i| visited.terminal[i as usize])
            .collect();
        for &t in &frontier {
            can_finish[t as usize].store(true, Ordering::Relaxed);
        }
        let mut peak = explored.peak_resident_bytes;
        let mut spilled = explored.spilled_bytes;

        let preds = match edges {
            EdgeStore::Ram(edge_list) => {
                let mut off: Vec<u32> = vec![0; n + 1];
                for &(_, to) in &edge_list {
                    off[to as usize + 1] += 1;
                }
                for i in 0..n {
                    off[i + 1] += off[i];
                }
                let mut cursor = off.clone();
                let mut preds: Vec<u32> = vec![0; edge_list.len()];
                for &(from, to) in &edge_list {
                    let c = &mut cursor[to as usize];
                    preds[*c as usize] = from;
                    *c += 1;
                }
                // CSR build holds offsets, cursors, the predecessor
                // array and the still-live edge list at once.
                peak = peak.max(8 * (n as u64 + 1) + 12 * edge_list.len() as u64 + n as u64);
                Preds::Ram { off, preds }
            }
            EdgeStore::Disk(guard, log) => {
                let cfg = self
                    .spill_config()
                    .expect("edges spill only under a spill budget");
                let out = guard.path().join("preds.csr");
                let csr = DiskCsr::build(&log.path, log.count, n, cfg.window_bytes(), out)?;
                spilled += log.count * 4;
                peak = peak.max(8 * (n as u64 + 1) + csr.build_window_bytes + n as u64);
                Preds::Disk { csr, _guard: guard }
            }
        };
        let width_peak = preds.sweep(frontier, &can_finish, workers)?;
        // The marking frontiers themselves (current + next, 4 bytes per
        // entry, bounded by the widest marked layer).
        peak = peak.max(8 * (n as u64 + 1) + n as u64 + 8 * width_peak);

        if let Some(trap) = (0..n).find(|&i| !can_finish[i].load(Ordering::Relaxed)) {
            // Reconstruct the schedule into the trap via the forward
            // pass's spanning-tree parent pointers.
            let schedule = schedule_to(&visited.parent, trap as u32);
            let trace = self.render_trace(&schedule);
            return Err(CheckError::Violation(Box::new(Violation {
                message: format!(
                    "trap state: no continuation from state #{trap} can finish the workload"
                ),
                schedule,
                trace,
                stats: CheckStats {
                    peak_resident_bytes: peak,
                    spilled_bytes: spilled,
                    ..explored
                },
            })));
        }

        Ok(LivenessStats {
            states: n as u64,
            edges: explored.transitions,
            terminal_states: explored.terminal_states,
            peak_resident_bytes: peak,
            spilled_bytes: spilled,
        })
    }
}

/// The reversed edges — each state's predecessors — as a CSR adjacency.
enum Preds {
    /// `preds[off[s]..off[s + 1]]` are the predecessors of `s`.
    Ram { off: Vec<u32>, preds: Vec<u32> },
    /// The same with the flat predecessor array on disk, and the scratch
    /// guard that keeps it there.
    Disk { csr: DiskCsr, _guard: ScratchDir },
}

impl Preds {
    /// Marks every state with a path into `frontier` in `marked`, one
    /// backward layer at a time over `workers` threads, and returns the
    /// widest layer.
    fn sweep(
        &self,
        mut frontier: Vec<u32>,
        marked: &[AtomicBool],
        workers: usize,
    ) -> io::Result<u64> {
        let mut width_peak = frontier.len() as u64;
        while !frontier.is_empty() {
            width_peak = width_peak.max(frontier.len() as u64);
            let chunk = frontier.len().div_ceil(workers.clamp(1, frontier.len()));
            frontier = std::thread::scope(|s| {
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|part| s.spawn(move || self.mark_preds(part, marked)))
                    .collect();
                let mut next = Vec::new();
                for h in handles {
                    next.extend(h.join().expect("a liveness worker panicked")?);
                }
                Ok::<_, io::Error>(next)
            })?;
        }
        Ok(width_peak)
    }

    /// Marks the unmarked predecessors of `states` and returns them. Each
    /// is claimed with an atomic swap, so every state enters the next
    /// layer exactly once.
    fn mark_preds(&self, states: &[u32], marked: &[AtomicBool]) -> io::Result<Vec<u32>> {
        let mut next = Vec::new();
        let mut visit = |p: u32| {
            if !marked[p as usize].swap(true, Ordering::Relaxed) {
                next.push(p);
            }
        };
        match self {
            Preds::Ram { off, preds } => {
                for &st in states {
                    let (a, b) = (off[st as usize], off[st as usize + 1]);
                    preds[a as usize..b as usize].iter().for_each(|&p| visit(p));
                }
            }
            Preds::Disk { csr, .. } => {
                // One independent file handle per worker; runs are read in
                // bounded sub-chunks.
                let mut r = csr.reader()?;
                for &st in states {
                    r.for_each(csr.off[st as usize], csr.off[st as usize + 1], &mut visit)?;
                }
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use crate::{MachineStatus, ModelChecker, StepMachine};
    use llr_mem::{Layout, Loc, Memory};

    /// Two machines that each grab one of two "locks" (plain flags, no
    /// protocol) in opposite order and spin for the second: the classic
    /// deadlock. Each also releases and finishes if it ever gets both.
    #[derive(Clone)]
    struct DeadlockProne {
        first: Loc,
        second: Loc,
        pc: u8,
    }

    impl StepMachine for DeadlockProne {
        fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
            match self.pc {
                // test-and-grab first lock (non-atomically, but alone per
                // lock order it "works")
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

    #[test]
    fn finds_the_classic_deadlock() {
        let mut layout = Layout::new();
        let a = layout.scalar("A", 0);
        let b = layout.scalar("B", 0);
        let mc = ModelChecker::new(
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
        );
        let err = mc.check_always_terminable().unwrap_err();
        let v = match err {
            crate::CheckError::Violation(v) => v,
            other => panic!("expected a trap, got {other:?}"),
        };
        assert!(v.message.contains("trap state"), "{}", v.message);
        // Replaying the schedule must land both machines mid-acquisition.
        let (_, _, done) = mc.run_schedule(&v.schedule);
        assert!(done.iter().all(|&d| !d));
    }

    #[test]
    fn straight_line_machines_always_terminable() {
        #[derive(Clone)]
        struct Writer {
            x: Loc,
            left: u8,
        }
        impl StepMachine for Writer {
            fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
                mem.write(self.x, self.left as u64);
                self.left -= 1;
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
                format!("left={}", self.left)
            }
        }
        let mut layout = Layout::new();
        let x = layout.scalar("X", 0);
        let mc = ModelChecker::new(layout, vec![Writer { x, left: 3 }, Writer { x, left: 3 }]);
        let stats = mc.check_always_terminable().unwrap();
        assert_eq!(stats.terminal_states, 1);
        assert!(stats.states >= 7);
    }
}
