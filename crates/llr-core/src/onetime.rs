//! One-shot renaming on splitter networks — the classic Moir–Anderson
//! grid and Aspnes' smaller network (arXiv:1011.3170) as two shapes of
//! one protocol, an extension for comparison with the long-lived
//! protocols.
//!
//! The long-lived problem generalizes *one-time* renaming, where every
//! process acquires a name at most once. For one-time renaming, the grid
//! building block needs no reset machinery at all, and the famous
//! three-line splitter suffices:
//!
//! ```text
//! X ← p;
//! if Y then return Right;
//! Y ← true;
//! if X = p then return Stop else return Down
//! ```
//!
//! If `ℓ` processes enter: at most one stops (two stop candidates would
//! be serialized through `X`, and the later one would see `Y`), not all go
//! right (the first to read `Y` reads `false`), and not all go down (the
//! last to write `X` reads `X = p`). Walking a `k(k+1)/2` triangular grid
//! of these yields one-time renaming in `O(k)` time and 4 accesses per
//! block — the cheapest protocol in this crate, but each name is consumed
//! forever.
//!
//! # Two shapes, one walk
//!
//! Both networks are the triangle of side `k`, one name per cell. A
//! [`OneTimeShape`] puts a splitter on each cell of its first `depth`
//! diagonals and leaves the later diagonals *free* (no registers): a walk
//! that reaches a free cell takes its name with no access.
//!
//! * [`OneTimeShape::build`] is the Moir–Anderson grid: every diagonal
//!   holds splitters (`depth = k`).
//! * [`OneTimeShape::small_net`] is Aspnes' depth-`ℓ` network for
//!   `k = ℓ + 1` entrants: the grid without its final diagonal's
//!   splitters, which the capacity argument in [`crate::smallnet`] proves
//!   redundant. Same names, `k` fewer splitters.
//!
//! The one walk [`OneTimeAcquire`], driven by the one core [`OneTimeCore`],
//! serves both: the threaded [`OneTimeGrid`] steps it through
//! [`session::Handle`], and [`spec`] model-checks it.
//!
//! Benchmarked against SPLIT/FILTER in the `ablation` bench: the price of
//! long-livedness in shared accesses per operation.
//!
//! # Example
//!
//! ```
//! use llr_core::onetime::OneTimeGrid;
//!
//! let grid = OneTimeGrid::new(3, 1_000_000);
//! let (name, accesses) = grid.get_name(999_999);
//! assert!(name < 6); // k(k+1)/2
//! assert!(accesses <= 4 * 3);
//!
//! let net = OneTimeGrid::small_net(3); // depth ℓ = 3 ⇒ k = 4 entrants
//! let (name, accesses) = net.get_name(7);
//! assert!(name < 10); // k(k+1)/2
//! assert!(accesses <= 4 * 3); // ≤ 4 accesses per splitter diagonal
//! ```

use crate::session::{self, ProtocolCore};
use crate::traits::RenamingHandle;
use crate::types::enc::{FALSE, TRUE};
use crate::types::{Name, Pid};
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Layout, Loc, Memory, Word};
use std::sync::Arc;

/// Registers of one one-time splitter.
#[derive(Clone, Copy, Debug)]
pub struct OtBlockRegs {
    x: Loc,
    y: Loc,
}

/// The static shape of a one-shot splitter network: the triangle of side
/// `k`, with a splitter on each cell of its first `depth` diagonals and
/// free cells on the rest. Cheap to clone; owned by the [`OneTimeCore`]
/// (or [`OneTimeGrid`]), which steps the walk on it.
#[derive(Clone, Debug)]
pub struct OneTimeShape {
    k: usize,
    depth: usize,
    /// Splitters of the cells with `r + c < depth`, row-major.
    blocks: Arc<[OtBlockRegs]>,
}

impl OneTimeShape {
    /// Allocates the Moir–Anderson grid for `k` entrants in `layout`: a
    /// splitter on every cell of the triangle.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    pub fn build(k: usize, layout: &mut Layout) -> Self {
        assert!(k >= 1, "concurrency bound k must be at least 1");
        Self::with_depth(k, k, layout)
    }

    /// Allocates Aspnes' depth-`ell` network in `layout`: the grid for
    /// `k = ell + 1` entrants with no splitter on its final diagonal.
    pub fn small_net(ell: usize, layout: &mut Layout) -> Self {
        Self::with_depth(ell + 1, ell, layout)
    }

    fn with_depth(k: usize, depth: usize, layout: &mut Layout) -> Self {
        let mut blocks = Vec::with_capacity(depth * (depth + 1) / 2);
        for r in 0..depth {
            for c in 0..depth - r {
                blocks.push(OtBlockRegs {
                    x: layout.scalar(format!("G{r}_{c}.X"), u64::MAX),
                    y: layout.scalar(format!("G{r}_{c}.Y"), FALSE),
                });
            }
        }
        Self {
            k,
            depth,
            blocks: blocks.into(),
        }
    }

    /// The concurrency bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Destination names, `k(k+1)/2`: one per cell.
    pub fn dest_size(&self) -> u64 {
        (self.k * (self.k + 1) / 2) as u64
    }

    /// Splitters in the network: `k(k+1)/2` on the grid, `ℓ(ℓ+1)/2` on
    /// the depth-`ℓ` network — `k` fewer for the same names.
    pub fn splitter_count(&self) -> usize {
        self.blocks.len()
    }

    /// The name of cell `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the triangle.
    pub fn cell_name(&self, r: usize, c: usize) -> Name {
        assert!(r + c < self.k, "({r},{c}) outside the grid triangle");
        triangle_index(self.k, r, c) as Name
    }

    /// `true` iff `(r, c)` is a cell of the triangle without a splitter.
    fn is_free(&self, r: usize, c: usize) -> bool {
        (self.depth..self.k).contains(&(r + c))
    }

    fn block(&self, r: usize, c: usize) -> OtBlockRegs {
        debug_assert!(r + c < self.depth, "({r},{c}) holds no splitter");
        self.blocks[triangle_index(self.depth, r, c)]
    }
}

/// Row-major index of cell `(r, c)` in the triangle of side `side`.
fn triangle_index(side: usize, r: usize, c: usize) -> usize {
    r * side - r * r.saturating_sub(1) / 2 + c
}

/// One-time `GetName` as a step machine: the walk's locals, stepped by
/// [`OneTimeCore`] — the three-line splitter on every splitter cell, zero
/// accesses on a free one.
#[derive(Clone, Debug)]
pub struct OneTimeAcquire {
    r: usize,
    c: usize,
    pc: u8,
}

/// A one-shot splitter network on real atomics — the grid or the small
/// network: `k(k+1)/2` names, `O(k)` time, no release.
#[derive(Debug)]
pub struct OneTimeGrid {
    shape: OneTimeShape,
    mem: AtomicMemory,
    /// Source space the pids are validated against; `None` admits any
    /// 64-bit pid.
    s: Option<u64>,
}

impl OneTimeGrid {
    /// Creates a one-time grid for `k` concurrent processes out of a
    /// source space of size `s` (used only for pid validation — the cost
    /// is independent of `s`).
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    pub fn new(k: usize, s: u64) -> Self {
        Self::with_shape(|layout| OneTimeShape::build(k, layout), Some(s))
    }

    /// Creates Aspnes' depth-`ell` network, admitting `ell + 1` entrants
    /// with any 64-bit pids.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::onetime::OneTimeGrid;
    ///
    /// let net = OneTimeGrid::small_net(0); // k = 1: no splitters at all
    /// assert_eq!(net.get_name(9), (0, 0)); // free name, zero accesses
    /// ```
    pub fn small_net(ell: usize) -> Self {
        Self::with_shape(|layout| OneTimeShape::small_net(ell, layout), None)
    }

    fn with_shape(build: impl FnOnce(&mut Layout) -> OneTimeShape, s: Option<u64>) -> Self {
        let mut layout = Layout::new();
        let shape = build(&mut layout);
        Self {
            shape,
            mem: AtomicMemory::new(&layout),
            s,
        }
    }

    /// The network shape.
    pub fn shape(&self) -> &OneTimeShape {
        &self.shape
    }

    /// Size of the destination name space, `k(k+1)/2`.
    pub fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    /// Acquires a one-time name for `pid`; returns it with the number of
    /// shared accesses spent.
    ///
    /// Each pid must call this at most once over the object's lifetime
    /// (that is what "one-time" means); at most `k` processes may do so
    /// in total.
    ///
    /// # Panics
    ///
    /// Panics if the grid was built with a source space `s` and
    /// `pid ≥ s`.
    pub fn get_name(&self, pid: Pid) -> (Name, u64) {
        if let Some(s) = self.s {
            assert!(pid < s, "pid {pid} outside source space {s}");
        }
        let mut h = session::Handle::new(OneTimeCore::new(self.shape.clone(), pid), &self.mem);
        (h.acquire(), h.accesses())
    }
}

/// One-time renaming's [`ProtocolCore`]: the network shape plus one pid.
/// `RELEASES = false` — a session ends the moment its acquire completes
/// and the name is held forever, which is exactly what "one-time" means.
#[derive(Clone, Debug)]
pub struct OneTimeCore {
    shape: OneTimeShape,
    pid: Pid,
}

impl OneTimeCore {
    /// A core for process `pid` on the network described by `shape`.
    pub fn new(shape: OneTimeShape, pid: Pid) -> Self {
        Self { shape, pid }
    }
}

impl OneTimeCore {
    /// The walk's position as a name, if it stands on a free cell.
    fn free_name(&self, a: &OneTimeAcquire) -> Option<Name> {
        let free = self.shape.is_free(a.r, a.c);
        free.then(|| self.shape.cell_name(a.r, a.c))
    }

    /// After a Right/Down move: a free cell's name is taken in the same
    /// step (the move's read was the step's one access; the free cell
    /// costs none).
    fn arrive(&self, a: &OneTimeAcquire) -> Option<Name> {
        assert!(
            a.r + a.c < self.shape.k,
            "one-time grid walk fell off the triangle: more than k = {} \
             processes, or a pid was reused",
            self.shape.k,
        );
        self.free_name(a)
    }
}

impl ProtocolCore for OneTimeCore {
    type Acquire = OneTimeAcquire;
    type Token = Name;
    /// Never constructed: one-time names are not released.
    type Release = ();

    // The walk's first access happens in the same scheduled step that
    // leaves Idle (and a depth-0 network completes in it outright).
    const LAZY_START: bool = false;
    const RELEASES: bool = false;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> OneTimeAcquire {
        OneTimeAcquire { r: 0, c: 0, pc: 0 }
    }

    fn step_acquire<M: Memory + ?Sized>(&self, a: &mut OneTimeAcquire, mem: &M) -> Option<Name> {
        if let Some(name) = self.free_name(a) {
            // Only a depth-0 network starts on a free cell.
            return Some(name);
        }
        let b = self.shape.block(a.r, a.c);
        match a.pc {
            // X ← p
            0 => {
                mem.write(b.x, self.pid);
                a.pc = 1;
            }
            // if Y then Right
            1 => {
                if mem.read(b.y) == TRUE {
                    a.c += 1;
                    a.pc = 0;
                    return self.arrive(a);
                }
                a.pc = 2;
            }
            // Y ← true
            2 => {
                mem.write(b.y, TRUE);
                a.pc = 3;
            }
            // if X = p then Stop else Down
            _ => {
                if mem.read(b.x) == self.pid {
                    return Some(self.shape.cell_name(a.r, a.c));
                }
                a.r += 1;
                a.pc = 0;
                return self.arrive(a);
            }
        }
        None
    }

    fn begin_release(&self, _name: Name) {}

    fn step_release<M: Memory + ?Sized>(&self, _r: &mut (), _mem: &M) -> bool {
        true
    }

    fn acquire_footprint(&self, a: &OneTimeAcquire, fp: &mut Footprint) -> bool {
        if self.shape.is_free(a.r, a.c) {
            // Free-cell step: no accesses.
            return true;
        }
        let b = self.shape.block(a.r, a.c);
        match a.pc {
            0 => fp.write(b.x),
            // A Right move completes iff it lands on a free cell.
            1 => {
                fp.read(b.y);
                return self.shape.is_free(a.r, a.c + 1);
            }
            2 => fp.write(b.y),
            // Stop completes here; so may a Down move onto a free cell.
            _ => {
                fp.read(b.x);
                return true;
            }
        }
        false
    }

    fn release_footprint(&self, _r: &(), _fp: &mut Footprint) -> bool {
        // Never constructed (`RELEASES = false`): no accesses.
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // The walk can end up at any cell (Right/Down moves), so every
        // splitter is reachable.
        for b in self.shape.blocks.iter() {
            fp.future_read(b.x);
            fp.future_write(b.x);
            fp.future_read(b.y);
            fp.future_write(b.y);
        }
    }

    fn release_future_footprint(&self, _r: &(), _fp: &mut Footprint) {}

    fn token_name(&self, name: &Name) -> Option<Name> {
        Some(*name)
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn key_acquire(&self, a: &OneTimeAcquire, out: &mut Vec<Word>) {
        out.push(a.r as u64);
        out.push(a.c as u64);
        out.push(a.pc as u64);
        // The name slot, empty while the walk runs: a finished walk is a
        // token, never an acquire. The word keeps the pinned key digests.
        out.push(u64::MAX);
    }

    fn key_token(&self, name: &Name, out: &mut Vec<Word>) {
        out.push(*name);
    }

    fn key_release(&self, _r: &(), out: &mut Vec<Word>) {
        out.push(0);
    }

    fn describe_acquire(&self, a: &OneTimeAcquire) -> String {
        format!("OtAcquire@({},{}) pc{}", a.r, a.c, a.pc)
    }

    fn describe_release(&self, _r: &()) -> String {
        "Releasing".into()
    }
}

pub mod spec {
    //! Model-checkable specification of both one-shot networks. The
    //! session loop, key encoding, and invariant are the generic ones from
    //! [`crate::session`].

    use super::*;
    use crate::session::Session;
    use llr_mc::{ModelChecker, World};

    /// A process acquiring its single one-time name: the generic session
    /// machine over [`OneTimeCore`] (one session, no release).
    pub type OneTimeUser = Session<OneTimeCore>;

    impl OneTimeUser {
        /// A one-shot user with identity `pid`.
        pub fn new(shape: OneTimeShape, pid: Pid) -> Self {
            Session::start(OneTimeCore::new(shape, pid), 1)
        }

        /// The acquired name, once done.
        pub fn name(&self) -> Option<Name> {
            self.holding()
        }
    }

    /// All acquired names distinct and in range (forever — one-time names
    /// are never released).
    pub fn unique_names_invariant(world: &World<'_, OneTimeUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for a one-time grid with `pids.len() ≤ k`
    /// processes (shared by the exhaustive checks and the E2 driver).
    pub fn checker(k: usize, pids: &[Pid]) -> ModelChecker<OneTimeUser> {
        assert!(pids.len() <= k);
        world(pids, |layout| OneTimeShape::build(k, layout))
    }

    /// Builds the model checker for a depth-`ell` small network entered
    /// by `pids.len() ≤ ℓ + 1` processes (shared by the exhaustive checks
    /// and the E2 driver).
    pub fn small_net_checker(ell: usize, pids: &[Pid]) -> ModelChecker<OneTimeUser> {
        assert!(
            pids.len() <= ell + 1,
            "more entrants than the network admits"
        );
        world(pids, |layout| OneTimeShape::small_net(ell, layout))
    }

    fn world(
        pids: &[Pid],
        build: impl FnOnce(&mut Layout) -> OneTimeShape,
    ) -> ModelChecker<OneTimeUser> {
        let mut layout = Layout::new();
        let shape = build(&mut layout);
        let machines: Vec<OneTimeUser> = pids
            .iter()
            .map(|&p| OneTimeUser::new(shape.clone(), p))
            .collect();
        ModelChecker::new(layout, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_check, Engine, Session};
    use crate::traits::test_support::assert_session_keeps_refcount;
    use std::collections::HashSet;

    type Build = fn(usize, &mut Layout) -> OneTimeShape;

    /// Both shapes for `k` entrants: the grid of side `k` and the
    /// depth-`(k − 1)` small network.
    const SHAPES: [(&str, Build); 2] =
        [("grid", OneTimeShape::build), ("small net", small_net_for)];

    fn small_net_for(k: usize, layout: &mut Layout) -> OneTimeShape {
        OneTimeShape::small_net(k - 1, layout)
    }

    /// The threaded object over `build`'s shape for `k` entrants.
    fn object(build: Build, k: usize) -> OneTimeGrid {
        OneTimeGrid::with_shape(|layout| build(k, layout), None)
    }

    #[test]
    fn a_session_never_touches_the_shape_refcount() {
        for (_, build) in SHAPES {
            let mut layout = Layout::new();
            let shape = build(4, &mut layout);
            let user = Session::start(OneTimeCore::new(shape.clone(), 5), 1);
            assert_session_keeps_refcount(&layout, user, || Arc::strong_count(&shape.blocks));
        }
    }

    #[test]
    fn shape_counts() {
        let [(_, grid), (_, net)] = SHAPES;
        // The same names; the small network spends k fewer splitters.
        for (label, build, k, splitters) in [
            ("grid", grid, 4, 10),
            ("small net", net, 4, 6),
            ("small net", net, 1, 0),
        ] {
            let mut layout = Layout::new();
            let s = build(k, &mut layout);
            assert_eq!(s.k(), k, "{label}");
            assert_eq!(s.dest_size(), (k * (k + 1) / 2) as u64, "{label}");
            assert_eq!(s.splitter_count(), splitters, "{label}");
            // Two registers per splitter; free cells have none.
            assert_eq!(layout.initial_values().len(), 2 * splitters, "{label}");
        }
    }

    #[test]
    fn solo_stops_at_origin_in_4_accesses() {
        for (label, build) in SHAPES {
            assert_eq!(object(build, 4).get_name(42), (0, 4), "{label}");
        }
    }

    #[test]
    fn sequential_processes_get_distinct_names() {
        for (label, build) in SHAPES {
            let g = object(build, 4);
            let mut seen = HashSet::new();
            for pid in [3u64, 14, 15, 92] {
                let (name, acc) = g.get_name(pid);
                assert!(name < g.dest_size(), "{label}");
                // Deepest path: ≤ 4 accesses per splitter diagonal, none on
                // a free cell.
                assert!(acc <= 4 * g.shape.depth as u64, "{label}: {acc}");
                assert!(seen.insert(name), "{label}: name {name} reused");
            }
        }
    }

    #[test]
    fn threads_get_distinct_names() {
        for (label, build) in SHAPES {
            let g = &object(build, 8);
            let names: Vec<Name> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..8u64)
                    .map(|i| s.spawn(move || g.get_name(i * 117 + 5).0))
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let set: HashSet<_> = names.iter().collect();
            assert_eq!(set.len(), 8, "{label}: duplicate names: {names:?}");
        }
    }

    #[test]
    fn exhaustive_small_networks() {
        for (label, mc, states) in [
            ("grid k=2", spec::checker(2, &[0, 1]), 165),
            ("grid k=3", spec::checker(3, &[0, 1, 2]), 14_887),
            ("net ℓ=1", spec::small_net_checker(1, &[0, 1]), 53),
            ("net ℓ=2", spec::small_net_checker(2, &[0, 1, 2]), 6_583),
        ] {
            let stats = run_check(mc, &Engine::Sequential, spec::unique_names_invariant)
                .unwrap_or_else(|v| panic!("{label}: {v}"));
            assert_eq!(stats.states, states, "{label}");
        }
    }

    /// The capacity argument, observed: `ℓ` entrants never reach the
    /// diagonal the small network leaves free, so the depth-`ℓ` network,
    /// the grid for `ℓ + 1` and the grid for `ℓ` explore the same graph.
    #[test]
    fn capacity_bounds_the_reachable_cells() {
        for (ell, expect) in [(1usize, (5, 4)), (2, (165, 254)), (3, (14_887, 34_095))] {
            let pids: Vec<Pid> = (0..ell as u64).collect();
            for (label, mc) in [
                ("small net", spec::small_net_checker(ell, &pids)),
                ("grid k=ℓ+1", spec::checker(ell + 1, &pids)),
                ("grid k=ℓ", spec::checker(ell, &pids)),
            ] {
                let stats = run_check(mc, &Engine::Sequential, spec::unique_names_invariant)
                    .unwrap_or_else(|v| panic!("{label} ℓ={ell}: {v}"));
                let got = (stats.states, stats.transitions);
                assert_eq!(got, expect, "{label} ℓ={ell}");
            }
        }
    }

    #[test]
    fn small_net_accepts_any_pid() {
        let net = OneTimeGrid::small_net(2);
        assert_eq!(net.get_name(u64::MAX), (0, 4));
    }

    #[test]
    #[should_panic(expected = "outside source space")]
    fn pid_bounds_checked() {
        let g = OneTimeGrid::new(2, 10);
        let _ = g.get_name(10);
    }
}
