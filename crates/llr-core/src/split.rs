//! The SPLIT protocol (Figure 1): long-lived renaming to `3^(k-1)` names
//! in `O(k)` time, for **any** source name space.
//!
//! SPLIT arranges splitters ([`crate::splitter`]) in a complete ternary
//! tree of depth `k-1`. A process acquires a name by walking from the root
//! to a leaf, at each level joining the output set its splitter assigns and
//! descending to the corresponding child. Because each splitter guarantees
//! every output set is strictly smaller than its input set, the `≤ k`
//! processes entering the root thin out to `≤ 1` process per leaf; the
//! leaf's ternary path string, read as a number
//! `s̄ = Σ (1 + s[i])·3^(i-1) < 3^(k-1)`, is the acquired name.
//!
//! Releasing walks the path backwards (deepest splitter first, so that a
//! process never uses a splitter whose parent it has already released —
//! the containment that Lemma 1's counting argument needs) and releases
//! each splitter.
//!
//! Every operation touches `k-1` splitters at ≤ 7 (enter) / ≤ 2 (release)
//! shared accesses each: SPLIT is *fast* (Theorem 2) — its cost is
//! independent of both `S` and `n`.
//!
//! The protocol is one core, [`SplitCore`]; the object [`Split`] is that
//! core served by the generic [`Renamer`], and [`spec::checker`] checks
//! it through [`crate::session::checker`].
//!
//! # Example
//!
//! ```
//! use llr_core::split::Split;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! let split = Split::new(4); // at most 4 concurrent processes
//! assert_eq!(split.dest_size(), 27); // 3^(k-1)
//! let mut h = split.handle(0xDEAD_BEEF); // any 64-bit pid works
//! let name = h.acquire();
//! assert!(name < 27);
//! assert!(h.accesses() <= 7 * 3); // O(k), independent of the pid space
//! h.release();
//! ```

use crate::session::{Composable, ProtocolCore, Renamer, Session};
use crate::splitter::{EnterOp, ReleaseOp, SplitterRegs};
use crate::types::enc::Adv;
use crate::types::{Direction, Name, Pid};
use llr_mc::Footprint;
use llr_mem::{Layout, MemPolicy, Memory, Word};
use std::fmt;
use std::sync::Arc;

/// Largest supported concurrency bound: the tree has `(3^(k-1) - 1)/2`
/// interior splitters, which at `k = 14` is already ~800k nodes.
pub const MAX_K: usize = 14;

/// The static shape of a SPLIT instance: the splitter tree's register
/// table. Cheap to clone (the node table is shared); owned by the
/// [`SplitCore`], which steps the machines on it.
#[derive(Clone, Debug)]
pub struct SplitShape {
    k: usize,
    nodes: Arc<[SplitterRegs]>,
}

impl SplitShape {
    /// Allocates the splitter tree for concurrency `k` in `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `k > `[`MAX_K`].
    pub fn build(k: usize, layout: &mut Layout) -> Self {
        assert!(k >= 1, "concurrency bound k must be at least 1");
        assert!(
            k <= MAX_K,
            "k = {k} exceeds MAX_K = {MAX_K} ((3^(k-1)-1)/2 splitters would be allocated)"
        );
        let interior = Self::interior_count(k);
        let nodes: Vec<SplitterRegs> = (0..interior)
            .map(|id| SplitterRegs::allocate(layout, &format!("B{id}")))
            .collect();
        Self {
            k,
            nodes: nodes.into(),
        }
    }

    /// Number of interior (real) splitters: `(3^(k-1) - 1) / 2`.
    pub fn interior_count(k: usize) -> u64 {
        (3u64.pow(k as u32 - 1) - 1) / 2
    }

    /// The concurrency bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Ternary-heap child index: node `i`'s child in direction `d`.
    pub fn child(node: u64, dir: Direction) -> u64 {
        3 * node + 1 + dir.digit() as u64
    }

    /// The registers of interior node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an interior node.
    pub fn regs(&self, node: u64) -> SplitterRegs {
        self.nodes[node as usize]
    }

    /// Adds every register of every splitter in the tree to `fp`'s future
    /// sets. A SPLIT process's descent path depends on dynamic contention,
    /// so its lifetime footprint is the whole tree.
    pub fn future_footprint(&self, fp: &mut Footprint) {
        for regs in self.nodes.iter() {
            regs.future_footprint(fp);
        }
    }

    /// Holders of the node table (the shape's `Arc` strong count).
    #[cfg(test)]
    pub(crate) fn strong_count(&self) -> usize {
        Arc::strong_count(&self.nodes)
    }

    /// Adds the release footprint of each splitter on `path` (its `LAST`
    /// read and `ADVICE[1]` write) to `fp`'s future sets: everything a
    /// `ReleaseName` of that path may still touch.
    pub fn path_release_footprint(&self, path: &[PathEntry], fp: &mut Footprint) {
        for e in path {
            let regs = self.regs(e.node);
            fp.future_read(regs.last);
            fp.future_write(regs.a1);
        }
    }
}

/// One entry of an acquisition path: which splitter was entered and the
/// local state its eventual release needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathEntry {
    /// Interior node id.
    pub node: u64,
    /// The advice local saved from the `Enter`.
    pub advice: Adv,
    /// The `adv2` local saved from the `Enter`.
    pub adv2: bool,
}

impl Default for PathEntry {
    fn default() -> Self {
        Self {
            node: 0,
            advice: Adv::Neg,
            adv2: false,
        }
    }
}

/// An inline, fixed-capacity vector of [`PathEntry`]s.
///
/// A SPLIT path has at most `MAX_K - 1` entries (one per tree level), so
/// the whole path fits in the machine/token itself: steady-state
/// acquire/release moves paths around by `memcpy`, never the heap. This is
/// what makes the arena's hot path allocation-free (see
/// `tests/arena_alloc.rs`).
#[derive(Clone)]
pub struct PathVec {
    len: u8,
    entries: [PathEntry; MAX_K - 1],
}

impl PathVec {
    /// An empty path.
    pub const fn new() -> Self {
        Self {
            len: 0,
            entries: [PathEntry {
                node: 0,
                advice: Adv::Neg,
                adv2: false,
            }; MAX_K - 1],
        }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the path is already `MAX_K - 1` entries long.
    pub fn push(&mut self, entry: PathEntry) {
        self.entries[self.len as usize] = entry;
        self.len += 1;
    }

    /// The entries pushed so far.
    pub fn as_slice(&self) -> &[PathEntry] {
        &self.entries[..self.len as usize]
    }

    /// Empties the path.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for PathVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for PathVec {
    type Target = [PathEntry];

    fn deref(&self) -> &[PathEntry] {
        self.as_slice()
    }
}

impl fmt::Debug for PathVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for PathVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PathVec {}

/// `GetName` as a step machine: the descent's locals, stepped one shared
/// access at a time by [`SplitCore`].
#[derive(Clone, Debug)]
pub struct SplitAcquire {
    node: u64,
    depth: usize,
    op: EnterOp,
    path: PathVec,
    /// The name accumulated so far: `Σ digit(h)·3^h` over the levels
    /// descended. Equivalent to (and cheaper than) keeping the digit
    /// string — given `depth`, the two are in bijection.
    acc_name: u64,
}

/// `ReleaseName` as a step machine: the path whose splitters
/// [`SplitCore`] releases deepest first.
#[derive(Clone, Debug)]
pub struct SplitRelease {
    path: PathVec,
    /// Index of the entry currently being released (runs from the end of
    /// the path down to 0).
    idx: usize,
    op: ReleaseOp,
}

/// SPLIT's [`ProtocolCore`]: one process's view of the splitter tree.
///
/// The acquire machine is [`SplitAcquire`] (root-to-leaf descent), the
/// release machine is [`SplitRelease`] (deepest-first ascent), and the
/// token is the leaf name plus the acquisition path the release needs.
/// The core owns the shape and steps the machines on it, so a cycle never
/// touches the shape's reference count.
#[derive(Clone, Debug)]
pub struct SplitCore {
    shape: SplitShape,
    pid: Pid,
}

impl SplitCore {
    /// A core for process `pid` on the tree described by `shape`.
    pub fn new(shape: SplitShape, pid: Pid) -> Self {
        Self { shape, pid }
    }

    /// The tree shape.
    pub fn shape(&self) -> &SplitShape {
        &self.shape
    }

    /// The depth of the tree's leaves, where a descent ends.
    fn leaf_depth(&self) -> usize {
        self.shape.k - 1
    }
}

/// What a SPLIT session holds: the acquired name and the splitter path
/// whose release returns it.
#[derive(Clone, Debug)]
pub struct SplitToken {
    name: Name,
    path: PathVec,
}

impl ProtocolCore for SplitCore {
    type Acquire = SplitAcquire;
    type Token = SplitToken;
    type Release = SplitRelease;

    // The acquire's first step may already complete it (k = 1), so Idle
    // performs it in the same scheduled step.
    const LAZY_START: bool = false;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> SplitAcquire {
        SplitAcquire {
            node: 0,
            depth: 0,
            op: EnterOp::new(),
            path: PathVec::new(),
            acc_name: 0,
        }
    }

    /// With `k = 1` the tree has depth 0 and the (vacuous) root leaf is the
    /// name: the first step completes without touching memory.
    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut SplitAcquire,
        mem: &M,
    ) -> Option<SplitToken> {
        if a.depth < self.leaf_depth() {
            let dir = a.op.step(&self.shape.regs(a.node), self.pid, mem)?;
            a.path.push(PathEntry {
                node: a.node,
                advice: a.op.advice(),
                adv2: a.op.adv2(),
            });
            a.acc_name += dir.digit() as u64 * 3u64.pow(a.depth as u32);
            a.node = SplitShape::child(a.node, dir);
            a.depth += 1;
            a.op = EnterOp::new();
            if a.depth < self.leaf_depth() {
                return None;
            }
        }
        // A leaf: the accumulated path encoding is the name, taken in the
        // step that reaches it. The path is copied into the token (an
        // inline memcpy, no heap): moving it out with `mem::take` would
        // also write a fresh path into the machine every caller discards,
        // and measured slower.
        Some(SplitToken {
            name: a.acc_name,
            path: a.path.clone(),
        })
    }

    fn begin_release(&self, token: SplitToken) -> SplitRelease {
        SplitRelease {
            idx: token.path.len(),
            path: token.path,
            op: ReleaseOp::new(),
        }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut SplitRelease, mem: &M) -> bool {
        if r.idx == 0 {
            return true;
        }
        let e = r.path[r.idx - 1];
        let regs = self.shape.regs(e.node);
        if r.op.step(&regs, self.pid, e.advice, e.adv2, mem) {
            r.idx -= 1;
            r.op = ReleaseOp::new();
            return r.idx == 0;
        }
        false
    }

    fn acquire_footprint(&self, a: &SplitAcquire, fp: &mut Footprint) -> bool {
        if a.depth == self.leaf_depth() {
            // Completing is a pure-local name computation (k = 1 start).
            return true;
        }
        a.op.footprint(&self.shape.regs(a.node), fp) && a.depth + 1 == self.leaf_depth()
    }

    fn release_footprint(&self, r: &SplitRelease, fp: &mut Footprint) -> bool {
        if r.idx == 0 {
            return true;
        }
        r.op.footprint(&self.shape.regs(r.path[r.idx - 1].node), fp);
        r.idx == 1
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        self.shape.future_footprint(fp);
    }

    /// The release footprint of each splitter still on the path.
    fn release_future_footprint(&self, r: &SplitRelease, fp: &mut Footprint) {
        self.shape.path_release_footprint(&r.path[..r.idx], fp);
    }

    fn token_name(&self, token: &SplitToken) -> Option<Name> {
        Some(token.name)
    }

    fn dest_size(&self) -> u64 {
        3u64.pow(self.shape.k as u32 - 1)
    }

    fn key_acquire(&self, a: &SplitAcquire, out: &mut Vec<Word>) {
        out.push(a.node);
        out.push(a.depth as u64);
        a.op.key(out);
        // The accumulated partial name determines the digit string (given
        // depth, the two are in bijection); path entries' advice+adv2
        // matter for future releases.
        for e in a.path.as_slice() {
            out.push(e.advice.word());
            out.push(u64::from(e.adv2));
        }
        out.push(a.acc_name);
    }

    fn key_token(&self, t: &SplitToken, out: &mut Vec<Word>) {
        out.push(t.name);
        // The path's advice locals are future shared writes of the
        // eventual release.
        for e in t.path.as_slice() {
            out.push(e.advice.word());
            out.push(u64::from(e.adv2));
        }
    }

    fn key_release(&self, r: &SplitRelease, out: &mut Vec<Word>) {
        out.push(r.idx as u64);
        r.op.key(out);
        // The splitters not yet released — and the advice that will be
        // written back to them — are future shared writes; omitting them
        // would collapse states with different futures and make the
        // visited-set quotient unsound (traversal-order-dependent).
        for e in &r.path[..r.idx] {
            out.push(e.node);
            out.push(e.advice.word());
            out.push(u64::from(e.adv2));
        }
    }

    fn describe_acquire(&self, a: &SplitAcquire) -> String {
        format!(
            "Acquire@depth{} node{} {}",
            a.depth,
            a.node,
            a.op.describe()
        )
    }

    fn describe_release(&self, r: &SplitRelease) -> String {
        format!("Release@{}/{} {}", r.idx, r.path.len(), r.op.describe())
    }
}

impl Composable for SplitCore {
    fn for_pid(&self, pid: Pid) -> Self {
        Self::new(self.shape.clone(), pid)
    }

    fn source_size(&self) -> u64 {
        // Any 64-bit pid may enter the tree.
        u64::MAX
    }
}

/// The SPLIT long-lived renaming object: `D = 3^(k-1)`, `O(k)` per
/// operation, any source space — [`SplitCore`] served by a [`Renamer`].
pub type Split = Renamer<SplitCore>;

impl Split {
    /// Creates a SPLIT instance for at most `k` concurrent processes.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `k > `[`MAX_K`].
    pub fn new(k: usize) -> Self {
        Self::with_mem_policy(k, MemPolicy::default())
    }

    /// Creates a SPLIT instance with an explicit [`MemPolicy`] — the hook
    /// the E11 ablation benchmarks use to compare padded vs flat register
    /// files and relaxed vs all-`SeqCst` release stores.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `k > `[`MAX_K`].
    pub fn with_mem_policy(k: usize, policy: MemPolicy) -> Self {
        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        layout.set_policy(policy);
        Self::serve(k, &layout, SplitCore::new(shape, 0))
    }
}

pub mod spec {
    //! Model-checkable specification of SPLIT: uniqueness of held names
    //! under every interleaving. The session loop, key encoding, and
    //! invariant are all the generic ones from [`crate::session`].

    use super::*;
    use llr_mc::{ModelChecker, World};

    /// A process performing `sessions` × (`GetName`; dwell; `ReleaseName`):
    /// the generic session machine over [`SplitCore`].
    pub type SplitUser = Session<SplitCore>;

    impl SplitUser {
        /// Creates a user of the tree described by `shape`.
        pub fn new(shape: SplitShape, pid: Pid, sessions: u8) -> Self {
            Session::start(SplitCore::new(shape, pid), sessions)
        }
    }

    /// Names held concurrently are pairwise distinct and below `3^(k-1)`.
    pub fn unique_names_invariant(world: &World<'_, SplitUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for SPLIT with `procs ≤ k` processes,
    /// each doing `sessions` invocations (shared by the exhaustive
    /// checks and the E2 driver). Pids are deliberately large/sparse to
    /// exercise independence from the source space.
    pub fn checker(k: usize, procs: usize, sessions: u8) -> ModelChecker<SplitUser> {
        assert!(procs <= k, "at most k processes may participate");
        let mut layout = Layout::new();
        let core = SplitCore::new(SplitShape::build(k, &mut layout), 0);
        let pids: Vec<Pid> = (0..procs).map(|i| 1_000_003 * (i as u64 + 1)).collect();
        crate::session::checker(layout, &core, &pids, sessions)
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
        let split = Split::new(4);
        assert_cycles_keep_refcount(&split, 0xC0FF_EE00, || split.core.shape.strong_count());
    }

    #[test]
    fn shape_counts() {
        assert_eq!(SplitShape::interior_count(1), 0);
        assert_eq!(SplitShape::interior_count(2), 1);
        assert_eq!(SplitShape::interior_count(3), 4);
        assert_eq!(SplitShape::interior_count(4), 13);
    }

    #[test]
    fn child_indexing_disjoint() {
        // Children of distinct nodes never collide (ternary heap).
        let mut seen = std::collections::HashSet::new();
        for node in 0..13u64 {
            for d in Direction::ALL {
                assert!(seen.insert(SplitShape::child(node, d)));
            }
        }
    }

    #[test]
    fn k1_instant_name() {
        let split = Split::new(1);
        assert_eq!(split.dest_size(), 1);
        let (names, max_acc) = sequential_cycle(&split, &[42]);
        assert_eq!(names, vec![0]);
        assert_eq!(max_acc, 0, "k = 1 needs no shared accesses");
    }

    #[test]
    fn sequential_names_in_range_and_cheap() {
        let split = Split::new(5);
        let pids: Vec<Pid> = (0..20).map(|i| i * 987_654_321 + 17).collect();
        let (names, max_acc) = sequential_cycle(&split, &pids);
        for &n in &names {
            assert!(n < 81);
        }
        // ≤ 9 accesses per splitter, k-1 = 4 splitters
        assert!(max_acc <= 9 * 4, "cost {max_acc} exceeds Theorem 2's bound");
    }

    #[test]
    fn solo_reacquire_gets_a_name_every_time() {
        // Long-lived: one process cycling forever keeps succeeding.
        let split = Split::new(3);
        let mut h = split.handle(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let n = h.acquire();
            assert!(n < 9);
            seen.insert(n);
            h.release();
        }
        // A solo process should stay on advice-guided leaves, not exhaust
        // the space; whatever it gets must be consistent.
        assert!(!seen.is_empty());
    }

    #[test]
    fn accesses_independent_of_pid_magnitude() {
        let split = Split::new(4);
        let mut h1 = split.handle(3);
        let mut h2 = split.handle(u64::MAX - 1);
        h1.acquire();
        let a1 = h1.accesses();
        h1.release();
        h2.acquire();
        let a2 = h2.accesses();
        h2.release();
        assert_eq!(a1, a2, "cost must not depend on pid magnitude");
    }

    #[test]
    #[should_panic(expected = "acquire while holding")]
    fn double_acquire_panics() {
        let split = Split::new(2);
        let mut h = split.handle(1);
        h.acquire();
        h.acquire();
    }

    #[test]
    #[should_panic(expected = "release without holding")]
    fn release_without_acquire_panics() {
        let split = Split::new(2);
        let mut h = split.handle(1);
        h.release();
    }

    #[test]
    fn exhaustive_always_terminable() {
        let mut layout = Layout::new();
        let shape = SplitShape::build(3, &mut layout);
        let machines: Vec<spec::SplitUser> = (0..2)
            .map(|i| spec::SplitUser::new(shape.clone(), i * 71 + 5, 2))
            .collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("SPLIT is wait-free: no trap states");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    fn exhaustive_k2_two_procs_two_sessions() {
        let stats = run_check(
            spec::checker(2, 2, 2),
            &Engine::Sequential,
            spec::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 100);
    }

    #[test]
    fn exhaustive_k3_two_procs_one_session() {
        let stats = run_check(
            spec::checker(3, 2, 1),
            &Engine::Sequential,
            spec::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 100);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_k3_three_procs() {
        let stats = run_check(
            spec::checker(3, 3, 1),
            &Engine::Sequential,
            spec::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 1_000);
    }
}
