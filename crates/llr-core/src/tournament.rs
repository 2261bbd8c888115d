//! Mutual-exclusion tournament trees over the source name space.
//!
//! FILTER associates one binary tournament tree `T_m` with every
//! destination name `m`. A tree has `⌈log₂ S⌉` levels of two-process
//! [`crate::pf`] ME blocks; the `2^⌈log₂ S⌉ ≥ S` leaf inputs are in
//! one-to-one correspondence with source names, so **no two processes ever
//! compete in a block from the same direction** — each block really is a
//! two-process problem (Lemma 6). A process enters at its leaf input,
//! and each time it wins a block's critical section it moves up to the
//! parent block, entering from the side it came from; winning the root's
//! critical section wins the tree.
//!
//! Process `p`'s position is fully determined by arithmetic on `p`:
//! at level `ℓ ∈ {1..L}` it competes in block `p >> ℓ` from side
//! `(p >> (ℓ-1)) & 1`.
//!
//! Trees are allocated **sparsely**: only the root-paths of registered
//! participants exist. A dense tree would need `2^L - 1` blocks —
//! `O(S)` registers *per tree*, `O(zdkS)` overall exactly as the paper's
//! space bound says; the sparse representation preserves the time
//! behaviour (the paths processes touch are identical) while keeping
//! memory proportional to participants, which is what lets the benchmarks
//! sweep `S` into the millions.
//!
//! The standalone [`TreeMutex`]/[`spec::TreeUser`] wrapper turns one tree
//! into an `n`-process mutual-exclusion lock; it exists so the tournament
//! layer can be verified in isolation (Lemma 6) before FILTER composes
//! many trees.

use crate::pf::{self, MeEnter, MeRegs, Side};
use crate::session::ProtocolCore;
use crate::types::enc::{BIT0, BIT1};
use crate::types::Pid;
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Layout, Memory, Word};
use std::collections::HashMap;
use std::sync::Arc;

/// The static shape of one tournament tree: its levels and the sparse
/// block table. Cheap to clone.
#[derive(Clone, Debug)]
pub struct TreeShape {
    levels: usize,
    blocks: Arc<HashMap<(usize, u64), MeRegs>>,
}

impl TreeShape {
    /// Allocates (sparsely) the tree for a source space of size `s`,
    /// covering the root-paths of every pid in `participants`.
    ///
    /// # Panics
    ///
    /// Panics if a participant id is `≥ s`, or `s < 2`.
    pub fn build(layout: &mut Layout, tree_name: &str, s: u64, participants: &[Pid]) -> Self {
        Self::build_with_paths(layout, tree_name, s, participants, &mut Vec::new())
    }

    /// [`build`](Self::build), also appending every participant's root
    /// path — its block at levels `1..=levels`, participant by
    /// participant — to `paths`.
    pub(crate) fn build_with_paths(
        layout: &mut Layout,
        tree_name: &str,
        s: u64,
        participants: &[Pid],
        paths: &mut Vec<MeRegs>,
    ) -> Self {
        assert!(s >= 2, "a tournament needs a source space of at least 2");
        let levels = Self::levels_for(s);
        let mut blocks = HashMap::new();
        for &p in participants {
            assert!(p < s, "participant {p} outside source space of size {s}");
            for level in 1..=levels {
                let idx = Self::block_index(p, level);
                let regs = *blocks.entry((level, idx)).or_insert_with(|| {
                    MeRegs::allocate(layout, &format!("{tree_name}/L{level}B{idx}"))
                });
                paths.push(regs);
            }
        }
        Self {
            levels,
            blocks: Arc::new(blocks),
        }
    }

    /// `⌈log₂ s⌉`, at least 1 and at most 64 (any `s > 2^63`).
    pub fn levels_for(s: u64) -> usize {
        (64 - (s.max(2) - 1).leading_zeros()) as usize
    }

    /// Number of ME levels (`⌈log₂ S⌉`); the root block is at this level.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of allocated (touched) blocks.
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Process `p`'s block index at `level`: `p >> level`, which is 0 at
    /// level 64 (the root of a 64-level tree, where `p >> 64` would
    /// overflow the shift).
    pub fn block_index(p: Pid, level: usize) -> u64 {
        p.checked_shr(level as u32).unwrap_or(0)
    }

    /// The side from which process `p` enters its block at `level`.
    pub fn side_at(p: Pid, level: usize) -> Side {
        ((p >> (level - 1)) & 1) as Side
    }

    /// The registers of process `p`'s block at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s path was not allocated (unregistered participant)
    /// or `level` is out of range.
    pub fn block_for(&self, p: Pid, level: usize) -> MeRegs {
        assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of range 1..={}",
            self.levels
        );
        *self
            .blocks
            .get(&(level, Self::block_index(p, level)))
            .unwrap_or_else(|| panic!("block (level {level}) for pid {p} was never allocated"))
    }

    /// Adds process `p`'s lifetime footprint on this tree — its side of
    /// every block on its root path — to `fp`'s future sets. The path is
    /// fixed arithmetic on `p`, so this is exact, not a conservative
    /// over-approximation: two processes conflict on a tree iff their
    /// root paths share a block.
    pub fn path_future_footprint(&self, p: Pid, fp: &mut Footprint) {
        for level in 1..=self.levels {
            pf::side_future_footprint(&self.block_for(p, level), Self::side_at(p, level), fp);
        }
    }
}

/// Per-process progress in one tree: how high it has climbed and the ME
/// register values it holds on the way up.
///
/// A `Copy` value with no heap storage: the entered-level count plus one
/// bit per level. An own-register value is always [`BIT0`] or [`BIT1`]
/// (the final value [`MeEnter`] writes), and a tree has at most 64
/// levels ([`TreeShape::levels_for`]), so bit `ℓ - 1` of one word holds
/// the value at level `ℓ`. Every entered level is recorded (the last one
/// may still be unconfirmed — its `check` has not yet returned `true`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeProgress {
    levels: u8,
    own_bits: u64,
}

// The packing stores each own value as its own bit.
const _: () = assert!(BIT0 == 0 && BIT1 == 1);

impl TreeProgress {
    /// Fresh progress: not in the tree at all.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest entered level (0 = not entered).
    pub fn entered_level(&self) -> usize {
        self.levels as usize
    }

    /// Records completion of an `Enter` at the next level up, holding the
    /// own-register value `own`.
    ///
    /// # Panics
    ///
    /// Panics if `own` is neither [`BIT0`] nor [`BIT1`] (so `NIL` and
    /// `ENTERING`, which no completed `Enter` holds, are rejected), or if
    /// all 64 levels are already entered.
    pub fn push_entered(&mut self, own: Word) {
        assert!(
            own == BIT0 || own == BIT1,
            "a completed Enter holds BIT0 or BIT1, not {own}"
        );
        assert!(self.levels < 64, "a tournament tree has at most 64 levels");
        self.own_bits |= own << self.levels;
        self.levels += 1;
    }

    /// The own-register value held at `level`.
    ///
    /// # Panics
    ///
    /// Panics if that level has not been entered.
    pub fn own_at(&self, level: usize) -> Word {
        assert!(
            (1..=self.entered_level()).contains(&level),
            "level {level} not entered (entered {})",
            self.levels
        );
        (self.own_bits >> (level - 1)) & 1
    }

    /// Drops the topmost entered level (after its block was released;
    /// releases proceed top-down).
    ///
    /// # Panics
    ///
    /// Panics if no level is entered.
    pub fn pop_released(&mut self) {
        assert!(self.levels > 0, "pop_released on an empty tree position");
        self.levels -= 1;
        self.own_bits &= !(1 << self.levels);
    }

    /// Appends the progress to a model-checker key: the entered-level
    /// count, then the own value held at each level, bottom-up.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.levels as u64);
        out.extend((0..self.levels).map(|l| (self.own_bits >> l) & 1));
    }
}

/// A multi-process mutual-exclusion lock built from one tournament tree —
/// the substrate of FILTER, packaged standalone. [`lock`](Self::lock)
/// steps [`TreeCore`]'s climb and the guard's drop steps its descent, so
/// the threaded lock runs the machines the checker verifies.
#[derive(Debug)]
pub struct TreeMutex {
    shape: TreeShape,
    mem: AtomicMemory,
    /// Each participant's core, built once.
    cores: HashMap<Pid, TreeCore>,
}

impl TreeMutex {
    /// Builds a lock for the given participants out of a source space of
    /// size `s`.
    ///
    /// # Panics
    ///
    /// Panics if a participant id is `≥ s` or `s < 2`.
    pub fn new(s: u64, participants: &[Pid]) -> Self {
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", s, participants);
        let cores = participants
            .iter()
            .map(|&p| (p, TreeCore::new(shape.clone(), p)))
            .collect();
        Self {
            shape,
            mem: AtomicMemory::new(&layout),
            cores,
        }
    }

    /// The tree shape.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Acquires the lock for process `p` (spins while blocked, yielding
    /// the thread after each failed check).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a participant of this lock.
    pub fn lock(&self, p: Pid) -> TreeGuard<'_> {
        let core = self
            .cores
            .get(&p)
            .unwrap_or_else(|| panic!("pid {p} is not a participant of this lock"));
        let mut climb = core.begin_acquire();
        let progress = loop {
            let checking = matches!(climb.stage, ClimbStage::Waiting);
            if let Some(progress) = core.step_acquire(&mut climb, &self.mem) {
                break progress;
            }
            // A failed check leaves the climb waiting at the same level:
            // the block's other side is ahead, so let it run rather than
            // spin out the time slice.
            if checking && matches!(climb.stage, ClimbStage::Waiting) {
                std::thread::yield_now();
            }
        };
        TreeGuard {
            mem: &self.mem,
            core,
            progress,
        }
    }
}

/// RAII guard for [`TreeMutex::lock`]; releases the path (top-down) on
/// drop.
#[derive(Debug)]
pub struct TreeGuard<'a> {
    mem: &'a AtomicMemory,
    core: &'a TreeCore,
    progress: TreeProgress,
}

impl Drop for TreeGuard<'_> {
    fn drop(&mut self) {
        let mut descent = self.core.begin_release(self.progress);
        while !self.core.step_release(&mut descent, self.mem) {}
    }
}

/// The tournament's [`ProtocolCore`]: one process's identity and the
/// tree it climbs. The acquire is the composite [`TreeClimb`] (enter,
/// spin, climb, repeat up to the root); the token is the full
/// [`TreeProgress`] held while inside the root critical section; the
/// release walks the path back down top-first.
#[derive(Clone, Debug)]
pub struct TreeCore {
    /// The registers of `pid`'s block at each level, bottom-up: looked
    /// up once, so no step hashes the shape's block table.
    path: Arc<[MeRegs]>,
    pid: Pid,
}

impl TreeCore {
    /// A core for competitor `pid` on the tree described by `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not a participant when `shape` was built.
    pub fn new(shape: TreeShape, pid: Pid) -> Self {
        let path = (1..=shape.levels())
            .map(|level| shape.block_for(pid, level))
            .collect();
        Self { path, pid }
    }

    /// The registers of `pid`'s block at `level`.
    fn block(&self, level: usize) -> MeRegs {
        self.path[level - 1]
    }

    /// Number of levels; the root block is at this level.
    fn levels(&self) -> usize {
        self.path.len()
    }
}

/// The tournament's composite acquire machine: climb the tree one ME
/// block at a time, alternating `Enter` and `check` spins.
#[derive(Clone, Debug)]
pub struct TreeClimb {
    progress: TreeProgress,
    stage: ClimbStage,
}

#[derive(Clone, Debug)]
enum ClimbStage {
    /// Executing `Enter` at level `progress.entered_level() + 1`.
    Entering(MeEnter),
    /// Spinning on `check` at level `progress.entered_level()`.
    Waiting,
}

/// The tournament's release machine: release the path's blocks top-down
/// (a block only while still holding its parent — Lemma 6).
#[derive(Clone, Debug)]
pub struct TreeRelease {
    progress: TreeProgress,
    level: usize,
}

impl ProtocolCore for TreeCore {
    type Acquire = TreeClimb;
    type Token = TreeProgress;
    type Release = TreeRelease;

    // Pure local transition; the op's first shared access is its own
    // scheduled step in every build profile.
    const LAZY_START: bool = true;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> TreeClimb {
        TreeClimb {
            progress: TreeProgress::new(),
            stage: ClimbStage::Entering(MeEnter::new(TreeShape::side_at(self.pid, 1))),
        }
    }

    fn step_acquire<M: Memory + ?Sized>(&self, a: &mut TreeClimb, mem: &M) -> Option<TreeProgress> {
        match &mut a.stage {
            ClimbStage::Entering(op) => {
                let level = a.progress.entered_level() + 1;
                let regs = self.block(level);
                if let Some(own) = op.step(&regs, mem) {
                    a.progress.push_entered(own);
                    a.stage = ClimbStage::Waiting;
                }
                None
            }
            ClimbStage::Waiting => {
                let level = a.progress.entered_level();
                let regs = self.block(level);
                let side = TreeShape::side_at(self.pid, level);
                if pf::check(&regs, side, a.progress.own_at(level), mem) {
                    if level == self.levels() {
                        return Some(a.progress);
                    }
                    let next_side = TreeShape::side_at(self.pid, level + 1);
                    a.stage = ClimbStage::Entering(MeEnter::new(next_side));
                }
                None
            }
        }
    }

    fn begin_release(&self, progress: TreeProgress) -> TreeRelease {
        TreeRelease {
            level: self.levels(),
            progress,
        }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut TreeRelease, mem: &M) -> bool {
        let regs = self.block(r.level);
        pf::release(&regs, TreeShape::side_at(self.pid, r.level), mem);
        if r.level == 1 {
            true
        } else {
            r.level -= 1;
            false
        }
    }

    fn acquire_footprint(&self, a: &TreeClimb, fp: &mut Footprint) -> bool {
        match &a.stage {
            ClimbStage::Entering(op) => {
                let level = a.progress.entered_level() + 1;
                op.footprint(&self.block(level), fp);
                // Completing the Enter only moves to Waiting.
                false
            }
            ClimbStage::Waiting => {
                let level = a.progress.entered_level();
                let regs = self.block(level);
                pf::check_footprint(&regs, TreeShape::side_at(self.pid, level), fp);
                // Winning the root check completes the climb.
                level == self.levels()
            }
        }
    }

    fn release_footprint(&self, r: &TreeRelease, fp: &mut Footprint) -> bool {
        let regs = self.block(r.level);
        pf::release_footprint(&regs, TreeShape::side_at(self.pid, r.level), fp);
        r.level == 1
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        for (level, regs) in (1..).zip(self.path.iter()) {
            pf::side_future_footprint(regs, TreeShape::side_at(self.pid, level), fp);
        }
    }

    fn release_future_footprint(&self, r: &TreeRelease, fp: &mut Footprint) {
        // The descent only writes nil to our own side of each remaining
        // block on the path.
        for level in 1..=r.level {
            let regs = self.block(level);
            fp.future_write(regs.r[TreeShape::side_at(self.pid, level)]);
        }
    }

    fn key_acquire(&self, a: &TreeClimb, out: &mut Vec<Word>) {
        a.progress.key(out);
        match &a.stage {
            ClimbStage::Entering(op) => {
                out.push(0);
                op.key(out);
            }
            ClimbStage::Waiting => out.push(1),
        }
    }

    fn key_token(&self, progress: &TreeProgress, out: &mut Vec<Word>) {
        progress.key(out);
    }

    fn key_release(&self, r: &TreeRelease, out: &mut Vec<Word>) {
        // The not-yet-released own values are future-relevant via the
        // level countdown; keep the historical encoding (full progress +
        // level).
        r.progress.key(out);
        out.push(r.level as u64);
    }

    fn describe_acquire(&self, a: &TreeClimb) -> String {
        match &a.stage {
            ClimbStage::Entering(op) => {
                format!("L{} {}", a.progress.entered_level() + 1, op.describe())
            }
            ClimbStage::Waiting => format!("Waiting@L{}", a.progress.entered_level()),
        }
    }

    fn describe_token(&self, _progress: &TreeProgress) -> String {
        "ROOT-CS".into()
    }

    fn describe_release(&self, r: &TreeRelease) -> String {
        format!("Releasing@L{}", r.level)
    }
}

pub mod spec {
    //! Model-checkable specification of one tournament tree: root critical
    //! sections are mutually exclusive (Lemma 6) for any number of
    //! distinct participants. The session loop and key encoding are the
    //! generic ones from [`crate::session`].

    use super::*;
    use crate::session::Session;
    use llr_mc::{ModelChecker, World};

    /// A process repeatedly acquiring the tree's root critical section:
    /// the generic session machine over [`TreeCore`].
    pub type TreeUser = Session<TreeCore>;

    impl TreeUser {
        /// A competitor with identity `pid` doing `sessions` acquisitions.
        pub fn new(shape: TreeShape, pid: Pid, sessions: u8) -> Self {
            Session::start(TreeCore::new(shape, pid), sessions)
        }

        /// `true` iff inside the root critical section.
        pub fn in_critical(&self) -> bool {
            self.holding_token().is_some()
        }
    }

    /// Lemma 6 at the root: at most one process in the root critical
    /// section.
    pub fn root_exclusion(world: &World<'_, TreeUser>) -> Result<(), String> {
        let inside = world.machines.iter().filter(|m| m.in_critical()).count();
        if inside > 1 {
            Err(format!("{inside} processes in the tree's root CS"))
        } else {
            Ok(())
        }
    }

    /// Builds the model checker for a source-size-`s` tree with the
    /// given participants, `sessions` sessions each (shared by the
    /// exhaustive checks and the E2 driver).
    pub fn checker(s: u64, participants: &[Pid], sessions: u8) -> ModelChecker<TreeUser> {
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", s, participants);
        let machines: Vec<TreeUser> = participants
            .iter()
            .map(|&p| TreeUser::new(shape.clone(), p, sessions))
            .collect();
        ModelChecker::new(layout, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_check, Engine};

    #[test]
    fn levels_formula() {
        assert_eq!(TreeShape::levels_for(2), 1);
        assert_eq!(TreeShape::levels_for(3), 2);
        assert_eq!(TreeShape::levels_for(4), 2);
        assert_eq!(TreeShape::levels_for(5), 3);
        assert_eq!(TreeShape::levels_for(1 << 20), 20);
        assert_eq!(TreeShape::levels_for((1 << 20) + 1), 21);
    }

    #[test]
    fn path_arithmetic() {
        // pid 6 = 0b110 in an 8-leaf tree: level 1 block 3 side 0,
        // level 2 block 1 side 1, level 3 (root) block 0 side 1.
        assert_eq!(TreeShape::block_index(6, 1), 3);
        assert_eq!(TreeShape::side_at(6, 1), 0);
        assert_eq!(TreeShape::block_index(6, 2), 1);
        assert_eq!(TreeShape::side_at(6, 2), 1);
        assert_eq!(TreeShape::block_index(6, 3), 0);
        assert_eq!(TreeShape::side_at(6, 3), 1);
    }

    #[test]
    fn sixty_four_level_root_is_shared() {
        // S = 2^63 + 1 needs all 64 levels; pids 0 and 2^63 first meet at
        // the root, from opposite sides.
        let s = (1u64 << 63) + 1;
        let top = 1u64 << 63;
        assert_eq!(TreeShape::levels_for(s), 64);
        assert_eq!(TreeShape::block_index(top, 64), 0);
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", s, &[0, top]);
        assert_eq!(shape.levels(), 64);
        assert_eq!(
            shape.block_for(0, 64),
            shape.block_for(top, 64),
            "one root block"
        );
        assert_ne!(TreeShape::side_at(0, 64), TreeShape::side_at(top, 64));
        // Disjoint paths below the root: 63 blocks each, plus the root.
        assert_eq!(shape.allocated_blocks(), 2 * 63 + 1);
    }

    #[test]
    fn tree_progress_matches_vec_reference() {
        use crate::types::enc::{BIT0, BIT1};
        let mut rng = llr_mc::SplitMix64::new(0x07EE_0064);
        let mut deepest = 0;
        for round in 0..300 {
            let mut packed = TreeProgress::new();
            let mut reference: Vec<Word> = Vec::new();
            for step in 0..240 {
                let ctx = format!("round {round} step {step}");
                if reference.is_empty() || (reference.len() < 64 && rng.next_below(3) != 0) {
                    let own = if rng.next_below(2) == 0 { BIT0 } else { BIT1 };
                    packed.push_entered(own);
                    reference.push(own);
                } else if rng.next_below(20) == 0 {
                    packed = TreeProgress::new();
                    reference.clear();
                } else {
                    packed.pop_released();
                    reference.pop();
                }
                deepest = deepest.max(reference.len());
                assert_eq!(packed.entered_level(), reference.len(), "{ctx}");
                for (level, &own) in (1..).zip(&reference) {
                    assert_eq!(packed.own_at(level), own, "{ctx} level {level}");
                }
                let mut key = Vec::new();
                packed.key(&mut key);
                let mut want = vec![reference.len() as Word];
                want.extend_from_slice(&reference);
                assert_eq!(key, want, "{ctx}");
                // Popped levels leave no stale bits behind.
                let mut rebuilt = TreeProgress::new();
                reference.iter().for_each(|&own| rebuilt.push_entered(own));
                assert_eq!(packed, rebuilt, "{ctx}");
            }
        }
        assert_eq!(deepest, 64, "the sequences must reach a full-depth tree");
    }

    #[test]
    #[should_panic(expected = "holds BIT0 or BIT1")]
    fn push_entered_rejects_nil() {
        TreeProgress::new().push_entered(crate::types::enc::NIL);
    }

    #[test]
    #[should_panic(expected = "holds BIT0 or BIT1")]
    fn push_entered_rejects_entering() {
        TreeProgress::new().push_entered(crate::types::enc::ENTERING);
    }

    #[test]
    #[should_panic(expected = "at most 64 levels")]
    fn push_entered_stops_at_64_levels() {
        let mut p = TreeProgress::new();
        for _ in 0..65 {
            p.push_entered(crate::types::enc::BIT1);
        }
    }

    #[test]
    fn distinct_pids_distinct_leaf_inputs() {
        // (block, side) at level 1 is unique per pid.
        let mut seen = std::collections::HashSet::new();
        for p in 0..64u64 {
            assert!(seen.insert((TreeShape::block_index(p, 1), TreeShape::side_at(p, 1))));
        }
    }

    #[test]
    fn sparse_allocation_counts() {
        let mut layout = Layout::new();
        // 2 participants in a 1M space: ≤ 20 blocks each, shared near root.
        let shape = TreeShape::build(&mut layout, "T", 1 << 20, &[0, (1 << 20) - 1]);
        assert_eq!(shape.levels(), 20);
        assert!(shape.allocated_blocks() <= 40);
        assert!(shape.allocated_blocks() >= 21); // ≥ L (shared root path)
    }

    #[test]
    fn solo_lock_unlock() {
        let m = TreeMutex::new(8, &[5]);
        for _ in 0..3 {
            let g = m.lock(5);
            drop(g);
        }
    }

    #[test]
    fn threads_contend_without_violation() {
        let pids: Vec<Pid> = vec![0, 3, 5, 6];
        let m = std::sync::Arc::new(TreeMutex::new(8, &pids));
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let inside = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = pids
            .iter()
            .map(|&p| {
                let m = std::sync::Arc::clone(&m);
                let counter = std::sync::Arc::clone(&counter);
                let inside = std::sync::Arc::clone(&inside);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let g = m.lock(p);
                        let now = inside.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(now, 0, "mutual exclusion violated");
                        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        inside.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 800);
    }

    #[test]
    fn exhaustive_two_processes_deep_tree() {
        // S = 8 (3 levels), adjacent and far-apart pids.
        let stats = run_check(
            spec::checker(8, &[2, 3], 2),
            &Engine::Sequential,
            spec::root_exclusion,
        )
        .unwrap();
        assert!(stats.states > 100);
        let stats = run_check(
            spec::checker(8, &[0, 7], 2),
            &Engine::Sequential,
            spec::root_exclusion,
        )
        .unwrap();
        assert!(stats.states > 100);
    }

    #[test]
    fn exhaustive_three_processes() {
        let stats = run_check(
            spec::checker(4, &[0, 1, 3], 1),
            &Engine::Sequential,
            spec::root_exclusion,
        )
        .unwrap();
        assert!(stats.states > 1_000);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_four_processes_two_sessions() {
        let stats = run_check(
            spec::checker(4, &[0, 1, 2, 3], 2),
            &Engine::Sequential,
            spec::root_exclusion,
        )
        .unwrap();
        assert!(stats.states > 10_000);
    }

    #[test]
    fn exhaustive_always_terminable() {
        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", 4, &[0, 1, 3]);
        let machines: Vec<spec::TreeUser> = [0u64, 1, 3]
            .iter()
            .map(|&p| spec::TreeUser::new(shape.clone(), p, 1))
            .collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("no trap states in the tournament");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    #[should_panic(expected = "outside source space")]
    fn participant_bounds_checked() {
        let _ = TreeMutex::new(4, &[4]);
    }
}
