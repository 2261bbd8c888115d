//! The MA baseline: Moir–Anderson-style long-lived renaming to
//! `k(k+1)/2` names with `Θ(k·S)` time — deliberately **not fast**.
//!
//! The paper's headline contribution is that SPLIT and FILTER beat this:
//! Moir & Anderson's only read/write long-lived renaming protocol costs
//! `O(k·S)` per `GetName` because every grid building block consults
//! per-source-name state. This module reproduces that baseline so the
//! benchmarks can regenerate the comparison (experiment E6: MA's cost
//! climbs linearly with `S` while SPLIT/FILTER stay flat).
//!
//! # The grid
//!
//! Names are the cells of a triangular grid: rows `r` and columns `c` with
//! `r + c ≤ k - 1`, numbered `name(r,c) = r·k − r(r−1)/2 + c`. A process
//! walks from `(0,0)`; at each cell a building block partitions entrants
//! into **Stop** (take this cell's name), **Right** `(r, c+1)` and
//! **Down** `(r+1, c)`. Each move shrinks the set of companions, so the
//! walk stops within `k` cells.
//!
//! # The building block (reconstruction)
//!
//! \[MA94\] itself is cited by, but not contained in, our source text, so
//! the block is a reconstruction with the baseline's two defining
//! properties:
//!
//! * **at most one process stops at a block at any time** — this is name
//!   uniqueness, and it holds *unconditionally* here (exhaustively
//!   verified in [`spec`]): a would-be stopper writes `X`, scans the
//!   `S`-slot presence array `Y` (any set bit → Right), publishes
//!   `Y[p] ← true`, and re-reads `X`; two concurrent stoppers would each
//!   have had to see the other's still-published bit or a foreign `X`;
//! * **`Θ(S)` accesses per block** — the scan. This is exactly why MA is
//!   not fast and is the cost shape the paper's comparison relies on.
//!
//! One honest deviation (see DESIGN.md §2): the one-time grid's occupancy
//! argument does not survive naive reuse, so a walk that falls off the
//! diagonal (possible only under adversarial release timing) restarts
//! from `(0,0)`. Uniqueness is unaffected; a tripwire panics if restarts
//! ever exceed a generous bound.
//!
//! The protocol is one core, [`MaCore`]; the object [`MaGrid`] is that
//! core served by the generic [`Renamer`], and [`spec::checker`] checks
//! it through [`crate::session::checker`].
//!
//! # Example
//!
//! ```
//! use llr_core::ma::MaGrid;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! let ma = MaGrid::new(3, 64); // k = 3 out of S = 64 source names
//! assert_eq!(ma.dest_size(), 6); // k(k+1)/2
//! let mut h = ma.handle(17);
//! let name = h.acquire();
//! assert!(name < 6);
//! h.release();
//! ```

use crate::session::{Composable, ProtocolCore, Renamer, Session};
use crate::types::enc::{FALSE, TRUE};
use crate::types::{Name, Pid};
use llr_mc::Footprint;
use llr_mem::{ArrayLoc, Layout, Loc, Memory, Word};
use std::sync::Arc;

/// Outcome of one building-block access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Take this cell's name.
    Stop,
    /// Move to `(r, c+1)`.
    Right,
    /// Move to `(r+1, c)`.
    Down,
}

/// Registers of one grid building block.
#[derive(Clone, Debug)]
pub struct BlockRegs {
    /// Last entrant's pid (initialized to the invalid pid `S`).
    pub x: Loc,
    /// Presence bits, one per source name.
    pub y: ArrayLoc,
}

impl BlockRegs {
    /// Allocates a block for a source space of size `s`.
    pub fn allocate(layout: &mut Layout, name: &str, s: u64) -> Self {
        Self {
            x: layout.scalar(format!("{name}.X"), s),
            y: layout.array(format!("{name}.Y"), s as usize, FALSE),
        }
    }
}

/// The static shape of an MA grid. Cheap to clone; owned by the
/// [`MaCore`], which steps the machines on it.
#[derive(Clone, Debug)]
pub struct MaShape {
    k: usize,
    s: u64,
    blocks: Arc<[BlockRegs]>,
}

impl MaShape {
    /// Allocates the triangular grid in `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `s < 1`.
    pub fn build(k: usize, s: u64, layout: &mut Layout) -> Self {
        assert!(k >= 1, "concurrency bound k must be at least 1");
        assert!(s >= 1, "source space must be non-empty");
        let mut blocks = Vec::with_capacity(k * (k + 1) / 2);
        for r in 0..k {
            for c in 0..k - r {
                blocks.push(BlockRegs::allocate(layout, &format!("G{r}_{c}"), s));
            }
        }
        Self {
            k,
            s,
            blocks: blocks.into(),
        }
    }

    /// The concurrency bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The source space size `S`.
    pub fn s(&self) -> u64 {
        self.s
    }

    /// Holders of the block table (the shape's `Arc` strong count).
    #[cfg(test)]
    pub(crate) fn strong_count(&self) -> usize {
        Arc::strong_count(&self.blocks)
    }

    /// The name of cell `(r, c)`: `r·k − r(r−1)/2 + c`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the triangle.
    pub fn cell_name(&self, r: usize, c: usize) -> Name {
        assert!(r + c < self.k, "({r},{c}) outside the grid triangle");
        (r * self.k - r * r.saturating_sub(1) / 2 + c) as Name
    }

    /// The block registers of cell `(r, c)`.
    pub fn block(&self, r: usize, c: usize) -> &BlockRegs {
        &self.blocks[self.cell_name(r, c) as usize]
    }

    /// Adds process `pid`'s lifetime footprint on the whole grid to `fp`'s
    /// future sets. A walk can restart from the origin, so every block is
    /// reachable: its `X`, the process's own presence bit, and every slot
    /// the scan reads.
    pub fn future_footprint(&self, pid: Pid, fp: &mut Footprint) {
        for block in self.blocks.iter() {
            fp.future_read(block.x);
            fp.future_write(block.x);
            fp.future_write(block.y.at(pid as usize));
            for loc in block.y.iter() {
                fp.future_read(loc);
            }
        }
    }
}

/// Program counter within one building-block access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum BlockPc {
    /// `X ← p`.
    WriteX,
    /// Scan `Y[i]`; any set bit (other than our own slot) → Right.
    Scan(u64),
    /// `Y[p] ← true` (stop candidacy).
    PublishY,
    /// Re-read `X`; foreign → withdraw, Down; ours → Stop.
    ReadX,
    /// `Y[p] ← false` before returning Down.
    WithdrawY,
}

/// `GetName` as a step machine: the grid walk's locals, stepped one shared
/// access at a time by [`MaCore`].
#[derive(Clone, Debug)]
pub struct MaAcquire {
    r: usize,
    c: usize,
    pc: BlockPc,
    /// Grid-walk restarts so far (0 in every non-adversarial execution we
    /// have observed).
    restarts: u64,
}

/// Restart tripwire: exceeded only if the grid is kept churning by an
/// adversarial scheduler for this long.
const MAX_RESTARTS: u64 = 100_000;

/// `ReleaseName` as a step machine: the stop cell whose presence bit
/// [`MaCore`] clears (one write).
#[derive(Clone, Debug)]
pub struct MaRelease {
    cell: (usize, usize),
    done: bool,
}

/// MA's [`ProtocolCore`]: one process's view of the grid. The acquire
/// machine is [`MaAcquire`] (the `Θ(S)`-scan grid walk), the release
/// machine is [`MaRelease`] (one presence-bit clear), and the token is
/// the stop cell.
#[derive(Clone, Debug)]
pub struct MaCore {
    shape: MaShape,
    pid: Pid,
}

impl MaCore {
    /// A core for process `pid` on the grid described by `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `pid ≥ S`.
    pub fn new(shape: MaShape, pid: Pid) -> Self {
        assert!(pid < shape.s, "pid {pid} outside source space {}", shape.s);
        Self { shape, pid }
    }

    /// The grid shape.
    pub fn shape(&self) -> &MaShape {
        &self.shape
    }

    /// This process's presence bit in the block of its stop cell.
    fn own_bit(&self, (r, c): (usize, usize)) -> Loc {
        self.shape.block(r, c).y.at(self.pid as usize)
    }

    /// Local move to the next cell (or restart from the origin when the
    /// walk falls off the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if the walk restarts more than a generous tripwire bound
    /// (possible only under sustained adversarial scheduling).
    fn move_to(&self, a: &mut MaAcquire, outcome: Outcome) {
        let k = self.shape.k;
        let (nr, nc) = match outcome {
            Outcome::Right => (a.r, a.c + 1),
            Outcome::Down => (a.r + 1, a.c),
            Outcome::Stop => unreachable!("stop is terminal"),
        };
        if nr + nc > k - 1 {
            a.restarts += 1;
            assert!(
                a.restarts <= MAX_RESTARTS,
                "MA grid walk restarted {} times; the concurrency bound \
                 k = {k} is being violated or the scheduler is adversarial",
                a.restarts,
            );
            a.r = 0;
            a.c = 0;
        } else {
            a.r = nr;
            a.c = nc;
        }
        a.pc = BlockPc::WriteX;
    }
}

impl ProtocolCore for MaCore {
    type Acquire = MaAcquire;
    /// The stop cell `(r, c)` whose presence bit the release clears.
    type Token = (usize, usize);
    type Release = MaRelease;

    // Idle → Acquiring is a pure local transition; the walk's first write
    // is its own scheduled step.
    const LAZY_START: bool = true;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> MaAcquire {
        MaAcquire {
            r: 0,
            c: 0,
            pc: BlockPc::WriteX,
            restarts: 0,
        }
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut MaAcquire,
        mem: &M,
    ) -> Option<(usize, usize)> {
        let block = self.shape.block(a.r, a.c);
        match a.pc {
            BlockPc::WriteX => {
                mem.write(block.x, self.pid);
                a.pc = BlockPc::Scan(0);
            }
            BlockPc::Scan(i) => {
                // Skip our own slot (it can only be stale-free: we cleared
                // it before leaving any block).
                if i == self.pid {
                    a.pc = BlockPc::Scan(i + 1);
                    return self.step_acquire(a, mem);
                }
                if i >= self.shape.s {
                    a.pc = BlockPc::PublishY;
                    return self.step_acquire(a, mem);
                }
                if mem.read(block.y.at(i as usize)) == TRUE {
                    self.move_to(a, Outcome::Right);
                } else {
                    a.pc = BlockPc::Scan(i + 1);
                }
            }
            BlockPc::PublishY => {
                mem.write(block.y.at(self.pid as usize), TRUE);
                a.pc = BlockPc::ReadX;
            }
            BlockPc::ReadX => {
                if mem.read(block.x) == self.pid {
                    // Stop: this cell's name is ours; our Y bit stays set
                    // until release.
                    return Some((a.r, a.c));
                }
                a.pc = BlockPc::WithdrawY;
            }
            BlockPc::WithdrawY => {
                mem.write(block.y.at(self.pid as usize), FALSE);
                self.move_to(a, Outcome::Down);
            }
        }
        None
    }

    fn begin_release(&self, cell: (usize, usize)) -> MaRelease {
        MaRelease { cell, done: false }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut MaRelease, mem: &M) -> bool {
        if !r.done {
            // The release's only access: Release ordering suffices (see
            // llr-mem's AtomicMemory docs).
            mem.write_rel(self.own_bit(r.cell), FALSE);
            r.done = true;
        }
        true
    }

    fn acquire_footprint(&self, a: &MaAcquire, fp: &mut Footprint) -> bool {
        let block = self.shape.block(a.r, a.c);
        match a.pc {
            BlockPc::WriteX => fp.write(block.x),
            BlockPc::Scan(i) => {
                // Mirror the step's local skips: our own slot is passed
                // over, and a scan past the end performs PublishY's write.
                let mut j = i;
                if j == self.pid {
                    j += 1;
                }
                if j >= self.shape.s {
                    fp.write(block.y.at(self.pid as usize));
                } else {
                    fp.read(block.y.at(j as usize));
                }
            }
            BlockPc::PublishY | BlockPc::WithdrawY => fp.write(block.y.at(self.pid as usize)),
            BlockPc::ReadX => {
                fp.read(block.x);
                // Re-reading our own pid stops the walk here.
                return true;
            }
        }
        false
    }

    /// The single release write (nothing once done); the next step always
    /// completes.
    fn release_footprint(&self, r: &MaRelease, fp: &mut Footprint) -> bool {
        if !r.done {
            fp.write(self.own_bit(r.cell));
        }
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        self.shape.future_footprint(self.pid, fp);
    }

    /// The pending release write.
    fn release_future_footprint(&self, r: &MaRelease, fp: &mut Footprint) {
        if !r.done {
            fp.future_write(self.own_bit(r.cell));
        }
    }

    fn token_name(&self, cell: &(usize, usize)) -> Option<Name> {
        Some(self.shape.cell_name(cell.0, cell.1))
    }

    fn dest_size(&self) -> u64 {
        (self.shape.k * (self.shape.k + 1) / 2) as u64
    }

    fn key_acquire(&self, a: &MaAcquire, out: &mut Vec<Word>) {
        out.push(a.r as u64);
        out.push(a.c as u64);
        out.push(a.restarts);
        // The name slot, empty while the walk runs: a stopped walk is a
        // token, never an acquire. The word keeps the pinned key digests.
        out.push(u64::MAX);
        match a.pc {
            BlockPc::WriteX => out.push(0),
            BlockPc::Scan(i) => {
                out.push(1);
                out.push(i);
            }
            BlockPc::PublishY => out.push(2),
            BlockPc::ReadX => out.push(3),
            BlockPc::WithdrawY => out.push(4),
        }
    }

    fn key_token(&self, cell: &(usize, usize), out: &mut Vec<Word>) {
        out.push(cell.0 as u64);
        out.push(cell.1 as u64);
    }

    fn key_release(&self, r: &MaRelease, out: &mut Vec<Word>) {
        out.push(u64::from(r.done));
    }

    fn describe_acquire(&self, a: &MaAcquire) -> String {
        format!("Acquire@({},{}) {:?}", a.r, a.c, a.pc)
    }

    fn describe_token(&self, cell: &(usize, usize)) -> String {
        format!("Holding({},{})", cell.0, cell.1)
    }

    fn describe_release(&self, r: &MaRelease) -> String {
        format!("Releasing({},{})", r.cell.0, r.cell.1)
    }
}

impl Composable for MaCore {
    fn for_pid(&self, pid: Pid) -> Self {
        Self::new(self.shape.clone(), pid)
    }

    fn source_size(&self) -> u64 {
        self.shape.s
    }
}

/// The MA-style grid renaming object: [`MaCore`] served by a [`Renamer`].
pub type MaGrid = Renamer<MaCore>;

impl MaGrid {
    /// Creates a grid for at most `k` concurrent processes out of a source
    /// space of size `s`.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `s = 0`. Note the grid allocates
    /// `k(k+1)/2 · (S+1)` registers — `O(k²S)` space, the price of the
    /// baseline's presence scans.
    pub fn new(k: usize, s: u64) -> Self {
        let mut layout = Layout::new();
        let shape = MaShape::build(k, s, &mut layout);
        Self::serve(k, &layout, MaCore::new(shape, 0))
    }
}

pub mod spec {
    //! Model-checkable specification of the MA grid: name uniqueness
    //! under every interleaving. The session loop, key encoding, and
    //! invariant are all the generic ones from [`crate::session`].

    use super::*;
    use llr_mc::{ModelChecker, World};

    /// A process performing `sessions` × (`GetName`; dwell; `ReleaseName`):
    /// the generic session machine over [`MaCore`].
    pub type MaUser = Session<MaCore>;

    impl MaUser {
        /// A user of the grid described by `shape`.
        pub fn new(shape: MaShape, pid: Pid, sessions: u8) -> Self {
            Session::start(MaCore::new(shape, pid), sessions)
        }
    }

    /// Concurrently held names are pairwise distinct and in range.
    pub fn unique_names_invariant(world: &World<'_, MaUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for an MA grid over source size `s` with
    /// the given pids, `sessions` sessions each (shared by the
    /// exhaustive checks and the E2 driver).
    pub fn checker(k: usize, s: u64, pids: &[Pid], sessions: u8) -> ModelChecker<MaUser> {
        assert!(pids.len() <= k);
        let mut layout = Layout::new();
        let core = MaCore::new(MaShape::build(k, s, &mut layout), 0);
        crate::session::checker(layout, &core, pids, sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_check, Engine};
    use crate::traits::test_support::{assert_cycles_keep_refcount, sequential_cycle};
    use crate::traits::{Renaming, RenamingHandle};

    #[test]
    fn cycles_never_touch_the_shape_refcount() {
        let ma = MaGrid::new(3, 16);
        assert_cycles_keep_refcount(&ma, 9, || ma.core.shape.strong_count());
    }

    #[test]
    fn cell_naming_is_triangular() {
        let mut layout = Layout::new();
        let shape = MaShape::build(4, 4, &mut layout);
        // Row 0: 0..3, row 1: 4..6, row 2: 7..8, row 3: 9.
        assert_eq!(shape.cell_name(0, 0), 0);
        assert_eq!(shape.cell_name(0, 3), 3);
        assert_eq!(shape.cell_name(1, 0), 4);
        assert_eq!(shape.cell_name(2, 1), 8);
        assert_eq!(shape.cell_name(3, 0), 9);
    }

    #[test]
    #[should_panic(expected = "outside the grid triangle")]
    fn cell_bounds_checked() {
        let mut layout = Layout::new();
        let shape = MaShape::build(3, 4, &mut layout);
        let _ = shape.cell_name(1, 2);
    }

    #[test]
    fn solo_process_stops_at_origin() {
        let ma = MaGrid::new(3, 8);
        let mut h = ma.handle(5);
        assert_eq!(h.acquire(), 0, "an uncontended walk stops at (0,0)");
        h.release();
    }

    #[test]
    fn acquire_cost_scales_with_s_not_pid() {
        // The Θ(S) scan: doubling S roughly doubles the (uncontended)
        // acquire cost. This is the "not fast" baseline property.
        let cost = |s: u64| {
            let ma = MaGrid::new(2, s);
            let mut h = ma.handle(s - 1);
            h.acquire();
            h.release();
            h.accesses()
        };
        let c64 = cost(64);
        let c128 = cost(128);
        assert!(
            c128 > c64 + 32,
            "scan cost must grow with S: {c64} vs {c128}"
        );
    }

    #[test]
    fn k1_single_name() {
        let ma = MaGrid::new(1, 4);
        assert_eq!(ma.dest_size(), 1);
        let (names, _) = sequential_cycle(&ma, &[0, 1, 2, 3]);
        assert_eq!(names, vec![0, 0, 0, 0]);
    }

    #[test]
    fn sequential_cycles() {
        let ma = MaGrid::new(4, 16);
        let (names, max_acc) = sequential_cycle(&ma, &[0, 5, 10, 15]);
        for n in names {
            assert!(n < 10);
        }
        // ≤ k blocks × (S + 3) accesses + release
        assert!(max_acc <= 4 * (16 + 3) + 1);
    }

    #[test]
    fn concurrent_holders_distinct() {
        let ma = MaGrid::new(3, 8);
        let mut h: Vec<_> = [1u64, 4, 7].iter().map(|&p| ma.handle(p)).collect();
        let names: Vec<Name> = h.iter_mut().map(|h| h.acquire()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3, "names {names:?} must be distinct");
        for h in &mut h {
            h.release();
        }
    }

    #[test]
    fn exhaustive_always_terminable() {
        let mut layout = Layout::new();
        let shape = MaShape::build(2, 3, &mut layout);
        let machines: Vec<spec::MaUser> = [0u64, 2]
            .iter()
            .map(|&p| spec::MaUser::new(shape.clone(), p, 2))
            .collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable(&Engine::Parallel {
                workers: 1,
                hashed: true,
            })
            .expect("no trap states in the grid");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    fn exhaustive_two_processes() {
        let stats = run_check(
            spec::checker(2, 3, &[0, 2], 2),
            &Engine::Sequential,
            spec::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 500, "got {}", stats.states);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_three_processes() {
        let stats = run_check(
            spec::checker(3, 3, &[0, 1, 2], 1),
            &Engine::Sequential,
            spec::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 1_000);
    }

    #[test]
    fn restart_counter_stays_zero_in_normal_runs() {
        let mut layout = Layout::new();
        let shape = MaShape::build(3, 8, &mut layout);
        let mem = llr_mem::SimMemory::new(&layout);
        for pid in [0u64, 3, 7] {
            let core = MaCore::new(shape.clone(), pid);
            let mut a = core.begin_acquire();
            let cell = loop {
                if let Some(cell) = core.step_acquire(&mut a, &mem) {
                    break cell;
                }
            };
            assert_eq!(a.restarts, 0);
            let mut r = core.begin_release(cell);
            while !core.step_release(&mut r, &mem) {}
        }
    }

    #[test]
    fn release_makes_name_reusable() {
        let ma = MaGrid::new(2, 4);
        let mut h1 = ma.handle(0);
        let mut h2 = ma.handle(3);
        let n1 = h1.acquire();
        h1.release();
        let n2 = h2.acquire();
        assert_eq!(n1, n2, "a released name is available again");
        h2.release();
    }
}
