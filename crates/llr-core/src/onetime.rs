//! One-time renaming via the classic Moir–Anderson splitter grid — an
//! extension for comparison with the long-lived protocols.
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
//! ```

use crate::types::enc::{FALSE, TRUE};
use crate::types::{Name, Pid};
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Counting, Layout, Loc, Memory, Word};
use std::sync::Arc;

/// Registers of one one-time splitter.
#[derive(Clone, Copy, Debug)]
pub struct OtBlockRegs {
    x: Loc,
    y: Loc,
}

/// The static shape of a one-time grid. Cheap to clone; owned by the
/// [`OneTimeCore`] (or [`OneTimeGrid`]) and lent to the machine on every
/// step.
#[derive(Clone, Debug)]
pub struct OneTimeShape {
    k: usize,
    blocks: Arc<[OtBlockRegs]>,
}

impl OneTimeShape {
    /// Allocates the triangular grid in `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    pub fn build(k: usize, layout: &mut Layout) -> Self {
        assert!(k >= 1, "concurrency bound k must be at least 1");
        let mut blocks = Vec::with_capacity(k * (k + 1) / 2);
        for r in 0..k {
            for c in 0..k - r {
                blocks.push(OtBlockRegs {
                    x: layout.scalar(format!("G{r}_{c}.X"), u64::MAX),
                    y: layout.scalar(format!("G{r}_{c}.Y"), FALSE),
                });
            }
        }
        Self {
            k,
            blocks: blocks.into(),
        }
    }

    /// The concurrency bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The name of cell `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is outside the triangle.
    pub fn cell_name(&self, r: usize, c: usize) -> Name {
        assert!(r + c < self.k, "({r},{c}) outside the grid triangle");
        (r * self.k - r * r.saturating_sub(1) / 2 + c) as Name
    }

    fn block(&self, r: usize, c: usize) -> OtBlockRegs {
        self.blocks[self.cell_name(r, c) as usize]
    }
}

/// One-time `GetName` as a step machine. Holds only the walk's locals;
/// the grid is lent by the caller on every [`step`](Self::step).
#[derive(Clone, Debug)]
pub struct OneTimeAcquire {
    pid: Pid,
    r: usize,
    c: usize,
    pc: u8,
    name: Option<Name>,
}

impl OneTimeAcquire {
    /// Starts the (single) `GetName` of process `pid`.
    pub fn new(pid: Pid) -> Self {
        Self {
            pid,
            r: 0,
            c: 0,
            pc: 0,
            name: None,
        }
    }

    /// Executes one atomic statement on the grid `shape`; returns the
    /// acquired name when done.
    pub fn step<M: Memory + ?Sized>(&mut self, shape: &OneTimeShape, mem: &M) -> Option<Name> {
        if let Some(name) = self.name {
            return Some(name);
        }
        let b = shape.block(self.r, self.c);
        match self.pc {
            // X ← p
            0 => {
                mem.write(b.x, self.pid);
                self.pc = 1;
            }
            // if Y then Right
            1 => {
                if mem.read(b.y) == TRUE {
                    self.c += 1;
                    self.pc = 0;
                    self.check_bounds(shape.k);
                } else {
                    self.pc = 2;
                }
            }
            // Y ← true
            2 => {
                mem.write(b.y, TRUE);
                self.pc = 3;
            }
            // if X = p then Stop else Down
            _ => {
                if mem.read(b.x) == self.pid {
                    self.name = Some(shape.cell_name(self.r, self.c));
                    return self.name;
                }
                self.r += 1;
                self.pc = 0;
                self.check_bounds(shape.k);
            }
        }
        None
    }

    fn check_bounds(&self, k: usize) {
        assert!(
            self.r + self.c < k,
            "one-time grid walk fell off the triangle: more than k = {k} \
             processes, or a pid was reused",
        );
    }

    /// Declares the register the next [`step`](Self::step) on `shape`
    /// touches into `fp`; returns `true` iff that step may complete the
    /// `GetName`.
    pub fn footprint(&self, shape: &OneTimeShape, fp: &mut Footprint) -> bool {
        if self.name.is_some() {
            return true;
        }
        let b = shape.block(self.r, self.c);
        match self.pc {
            0 => fp.write(b.x),
            1 => fp.read(b.y),
            2 => fp.write(b.y),
            // Re-reading our own pid stops the walk here.
            _ => {
                fp.read(b.x);
                return true;
            }
        }
        false
    }

    /// Encodes machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.r as u64);
        out.push(self.c as u64);
        out.push(self.pc as u64);
        out.push(self.name.map_or(u64::MAX, |n| n));
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("OtAcquire@({},{}) pc{}", self.r, self.c, self.pc)
    }
}

/// The one-time renaming grid: `k(k+1)/2` names, `O(k)` time, no release.
#[derive(Debug)]
pub struct OneTimeGrid {
    shape: OneTimeShape,
    mem: AtomicMemory,
    s: u64,
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
        let mut layout = Layout::new();
        let shape = OneTimeShape::build(k, &mut layout);
        Self {
            shape,
            mem: AtomicMemory::new(&layout),
            s,
        }
    }

    /// Size of the destination name space, `k(k+1)/2`.
    pub fn dest_size(&self) -> u64 {
        (self.shape.k * (self.shape.k + 1) / 2) as u64
    }

    /// Acquires a one-time name for `pid`; returns it with the number of
    /// shared accesses spent.
    ///
    /// Each pid must call this at most once over the object's lifetime
    /// (that is what "one-time" means); at most `k` processes may do so
    /// concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `pid ≥ s`.
    pub fn get_name(&self, pid: Pid) -> (Name, u64) {
        assert!(pid < self.s, "pid {pid} outside source space {}", self.s);
        let mem = Counting::new(&self.mem);
        let mut m = OneTimeAcquire::new(pid);
        let name = loop {
            if let Some(n) = m.step(&self.shape, &mem) {
                break n;
            }
        };
        (name, mem.accesses())
    }
}

/// One-time renaming's [`ProtocolCore`][crate::session::ProtocolCore]:
/// the grid shape plus one pid. `RELEASES = false` — a session ends the
/// moment its acquire completes and the name is held forever, which is
/// exactly what "one-time" means.
#[derive(Clone, Debug)]
pub struct OneTimeCore {
    shape: OneTimeShape,
    pid: Pid,
}

impl OneTimeCore {
    /// A core for process `pid` on the grid described by `shape`.
    pub fn new(shape: OneTimeShape, pid: Pid) -> Self {
        Self { shape, pid }
    }
}

impl crate::session::ProtocolCore for OneTimeCore {
    type Acquire = OneTimeAcquire;
    type Token = Name;
    /// Never constructed: one-time names are not released.
    type Release = ();

    // The walk's first write happens in the same scheduled step that
    // leaves Idle.
    const LAZY_START: bool = false;
    const RELEASES: bool = false;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> OneTimeAcquire {
        OneTimeAcquire::new(self.pid)
    }

    fn step_acquire<M: Memory + ?Sized>(&self, a: &mut OneTimeAcquire, mem: &M) -> Option<Name> {
        a.step(&self.shape, mem)
    }

    fn begin_release(&self, _name: Name) {}

    fn step_release<M: Memory + ?Sized>(&self, _r: &mut (), _mem: &M) -> bool {
        true
    }

    fn acquire_footprint(&self, a: &OneTimeAcquire, fp: &mut Footprint) -> bool {
        a.footprint(&self.shape, fp)
    }

    fn release_footprint(&self, _r: &(), _fp: &mut Footprint) -> bool {
        // Never constructed (`RELEASES = false`): no accesses.
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // The walk can end up at any cell (Right/Down moves), so the whole
        // triangle is reachable.
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
        (self.shape.k * (self.shape.k + 1) / 2) as u64
    }

    fn key_acquire(&self, a: &OneTimeAcquire, out: &mut Vec<Word>) {
        a.key(out);
    }

    fn key_token(&self, name: &Name, out: &mut Vec<Word>) {
        out.push(*name);
    }

    fn key_release(&self, _r: &(), out: &mut Vec<Word>) {
        out.push(0);
    }

    fn describe_acquire(&self, a: &OneTimeAcquire) -> String {
        a.describe()
    }

    fn describe_release(&self, _r: &()) -> String {
        "Releasing".into()
    }
}

pub mod spec {
    //! Model-checkable specification of the one-time grid. The session
    //! loop, key encoding, and invariant are the generic ones from
    //! [`crate::session`].

    use super::*;
    use crate::session::{run_check, Engine, Session};
    use llr_mc::{CheckStats, ModelChecker, Violation, World};

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
        let mut layout = Layout::new();
        let shape = OneTimeShape::build(k, &mut layout);
        let machines: Vec<OneTimeUser> = pids
            .iter()
            .map(|&p| OneTimeUser::new(shape.clone(), p))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Exhaustively checks one-time uniqueness for `pids.len() ≤ k`
    /// processes.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if two processes can acquire the
    /// same name.
    pub fn check_onetime(k: usize, pids: &[Pid]) -> Result<CheckStats, Box<Violation>> {
        run_check(checker(k, pids), &Engine::Sequential, unique_names_invariant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::traits::test_support::assert_session_keeps_refcount;

    #[test]
    fn a_session_never_touches_the_shape_refcount() {
        let mut layout = Layout::new();
        let shape = OneTimeShape::build(3, &mut layout);
        let user = Session::start(OneTimeCore::new(shape.clone(), 5), 1);
        assert_session_keeps_refcount(&layout, user, || Arc::strong_count(&shape.blocks));
    }

    #[test]
    fn solo_stops_at_origin_in_4_accesses() {
        let g = OneTimeGrid::new(4, 100);
        let (name, acc) = g.get_name(42);
        assert_eq!(name, 0);
        assert_eq!(acc, 4);
    }

    #[test]
    fn sequential_processes_get_distinct_names() {
        let g = OneTimeGrid::new(4, 100);
        let mut seen = std::collections::HashSet::new();
        for pid in [3u64, 14, 15, 92] {
            let (name, acc) = g.get_name(pid);
            assert!(name < g.dest_size());
            assert!(acc <= 4 * 4);
            assert!(seen.insert(name), "name {name} reused");
        }
    }

    #[test]
    fn threads_get_distinct_names() {
        let g = std::sync::Arc::new(OneTimeGrid::new(8, 1_000));
        let names = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let g = std::sync::Arc::clone(&g);
                let names = std::sync::Arc::clone(&names);
                std::thread::spawn(move || {
                    let (n, _) = g.get_name(i * 117 + 5);
                    names.lock().unwrap().push(n);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let names = names.lock().unwrap();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 8, "duplicate one-time names: {names:?}");
    }

    #[test]
    fn exhaustive_two_and_three_processes() {
        let stats = spec::check_onetime(2, &[0, 1]).unwrap();
        assert!(stats.states > 20);
        let stats = spec::check_onetime(3, &[0, 1, 2]).unwrap();
        assert!(stats.states > 200);
    }

    #[test]
    #[should_panic(expected = "outside source space")]
    fn pid_bounds_checked() {
        let g = OneTimeGrid::new(2, 10);
        let _ = g.get_name(10);
    }
}
