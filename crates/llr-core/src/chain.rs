//! Chaining renaming protocols (Section 4.4 / Theorem 11).
//!
//! After acquiring a name from one long-lived renaming protocol, a process
//! can use that name as its identity in a second protocol whose source
//! space equals the first's destination space — and so on. Releasing goes
//! **backwards** (last stage first): releasing the front stage first would
//! let another process grab our intermediate name and enter a later stage
//! with an identity we still occupy there.
//!
//! The paper's Theorem 11 pipeline, built by [`Chain::theorem11`]:
//!
//! ```text
//! any S  ──SPLIT──▶  3^(k-1)  ──FILTER──▶  ≤ 2k⁴  ──FILTER──▶  ≤ 72k²  ──MA──▶  k(k+1)/2
//!          O(k)       (d=⌈(k-2)/2⌉)  O(k³)    (d=3)   O(k log k)          O(k·k²)
//! ```
//!
//! for long-lived renaming to the optimal-for-this-family `k(k+1)/2`
//! names in `O(k³)` time, independent of `S`.
//!
//! # Example
//!
//! ```
//! use llr_core::chain::Chain;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! let chain = Chain::theorem11(3).unwrap();
//! assert_eq!(chain.dest_size(), 6); // k(k+1)/2
//! let mut h = chain.handle(0xFFFF_FFFF_FFFF); // any 64-bit id
//! let name = h.acquire();
//! assert!(name < 6);
//! h.release();
//! ```

use crate::filter::{Filter, FilterHandle};
use crate::ma::{MaGrid, MaHandle};
use crate::split::{Split, SplitHandle};
use crate::traits::{Renaming, RenamingHandle};
use crate::types::{Name, Pid};
use llr_gf::{FilterParams, ParamError};
use std::fmt;

/// One stage of a chain.
#[derive(Debug)]
pub enum Stage {
    /// A SPLIT tree (any source space → `3^(k-1)`).
    Split(Split),
    /// A FILTER instance.
    Filter(Filter),
    /// An MA grid (final compaction to `k(k+1)/2`).
    Ma(MaGrid),
}

impl Stage {
    fn source_size(&self) -> u64 {
        match self {
            Stage::Split(s) => s.source_size(),
            Stage::Filter(f) => f.source_size(),
            Stage::Ma(m) => m.source_size(),
        }
    }

    fn dest_size(&self) -> u64 {
        match self {
            Stage::Split(s) => s.dest_size(),
            Stage::Filter(f) => f.dest_size(),
            Stage::Ma(m) => m.dest_size(),
        }
    }

    fn handle(&self, pid: Pid) -> StageHandle<'_> {
        match self {
            Stage::Split(s) => StageHandle::Split(s.handle(pid)),
            Stage::Filter(f) => StageHandle::Filter(f.handle(pid)),
            Stage::Ma(m) => StageHandle::Ma(m.handle(pid)),
        }
    }
}

/// A per-process handle on one stage.
#[derive(Debug)]
enum StageHandle<'a> {
    Split(SplitHandle<'a>),
    Filter(FilterHandle<'a>),
    Ma(MaHandle<'a>),
}

impl StageHandle<'_> {
    fn acquire(&mut self) -> Name {
        match self {
            StageHandle::Split(h) => h.acquire(),
            StageHandle::Filter(h) => h.acquire(),
            StageHandle::Ma(h) => h.acquire(),
        }
    }

    fn release(&mut self) {
        match self {
            StageHandle::Split(h) => h.release(),
            StageHandle::Filter(h) => h.release(),
            StageHandle::Ma(h) => h.release(),
        }
    }

    fn accesses(&self) -> u64 {
        match self {
            StageHandle::Split(h) => h.accesses(),
            StageHandle::Filter(h) => h.accesses(),
            StageHandle::Ma(h) => h.accesses(),
        }
    }
}

/// Errors from chain construction.
#[derive(Debug)]
pub enum ChainError {
    /// A later stage's source space is smaller than its predecessor's
    /// destination space.
    Mismatch {
        /// Index of the offending stage.
        stage: usize,
        /// The predecessor's destination size.
        upstream_dest: u64,
        /// This stage's source size.
        source: u64,
    },
    /// The chain has no stages.
    Empty,
    /// Building a FILTER stage's parameters failed.
    Params(ParamError),
    /// Building a FILTER stage failed.
    Filter(crate::filter::FilterError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Mismatch {
                stage,
                upstream_dest,
                source,
            } => write!(
                f,
                "stage {stage} accepts {source} source names but receives {upstream_dest}"
            ),
            ChainError::Empty => write!(f, "a chain needs at least one stage"),
            ChainError::Params(e) => write!(f, "parameter selection failed: {e}"),
            ChainError::Filter(e) => write!(f, "filter construction failed: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<ParamError> for ChainError {
    fn from(e: ParamError) -> Self {
        ChainError::Params(e)
    }
}

impl From<crate::filter::FilterError> for ChainError {
    fn from(e: crate::filter::FilterError) -> Self {
        ChainError::Filter(e)
    }
}

/// A pipeline of long-lived renaming stages acting as a single long-lived
/// renaming object.
#[derive(Debug)]
pub struct Chain {
    stages: Vec<Stage>,
    k: usize,
}

impl Chain {
    /// Builds a chain from explicit stages, validating that each stage's
    /// source space covers its predecessor's destination space.
    ///
    /// # Errors
    ///
    /// See [`ChainError`].
    pub fn from_stages(k: usize, stages: Vec<Stage>) -> Result<Self, ChainError> {
        if stages.is_empty() {
            return Err(ChainError::Empty);
        }
        for (i, pair) in stages.windows(2).enumerate() {
            let upstream_dest = pair[0].dest_size();
            let source = pair[1].source_size();
            if source < upstream_dest {
                return Err(ChainError::Mismatch {
                    stage: i + 1,
                    upstream_dest,
                    source,
                });
            }
        }
        Ok(Self { stages, k })
    }

    /// The Theorem 11 pipeline: SPLIT → FILTER(`S ≤ 3^(k-1)`) →
    /// FILTER(`S ≤ 2k⁴`) → MA, renaming any 64-bit source space to
    /// `k(k+1)/2` names in `O(k³)` time.
    ///
    /// For `k = 1` the pipeline is just SPLIT (which already renames to a
    /// single name).
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`crate::split::MAX_K`] (the SPLIT tree and
    /// the full intermediate registration become enormous well before
    /// that).
    pub fn theorem11(k: usize) -> Result<Self, ChainError> {
        let split = Split::new(k);
        if k == 1 {
            return Self::from_stages(k, vec![Stage::Split(split)]);
        }
        let d1 = split.dest_size(); // 3^(k-1)
        let p1 = FilterParams::exponential3(k)?;
        let f1 = Filter::new(p1, &all_pids(d1))?;
        let d2 = f1.dest_size();
        let p2 = FilterParams::choose(k, d2)?;
        let f2 = Filter::new(p2, &all_pids(d2))?;
        let d3 = f2.dest_size();
        let ma = MaGrid::new(k, d3);
        Self::from_stages(
            k,
            vec![
                Stage::Split(split),
                Stage::Filter(f1),
                Stage::Filter(f2),
                Stage::Ma(ma),
            ],
        )
    }

    /// The paper's §4.4 observation "applying FILTER twice yields
    /// `D ∈ O(k²)`": FILTER(chosen for `S`) → FILTER(chosen for the first
    /// stage's output), for a source space already polynomial in `k`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `s > 250_000`: this convenience constructor registers
    /// every source id with the first stage (so any pid may participate),
    /// which is only sensible for the poly(k)-sized source spaces the
    /// observation is about. For larger spaces, build the stages with an
    /// explicit participant set and [`Chain::from_stages`].
    pub fn double_filter(k: usize, s: u64) -> Result<Self, ChainError> {
        assert!(
            s <= 250_000,
            "double_filter registers all {s} source ids; use from_stages \
             with an explicit participant set for large source spaces"
        );
        let p1 = FilterParams::choose(k, s)?;
        let f1 = Filter::new(p1, &all_pids(s))?;
        let d1 = f1.dest_size();
        let p2 = FilterParams::choose(k, d1)?;
        let f2 = Filter::new(p2, &all_pids(d1))?;
        Self::from_stages(k, vec![Stage::Filter(f1), Stage::Filter(f2)])
    }

    /// A cheaper two-stage variant for measurements: SPLIT → MA. Same
    /// destination space as Theorem 11 but with the MA stage scanning
    /// `3^(k-1)` presence slots, illustrating why the intermediate FILTER
    /// stages pay off for larger `k`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn split_ma(k: usize) -> Result<Self, ChainError> {
        let split = Split::new(k);
        let d1 = split.dest_size();
        let ma = MaGrid::new(k, d1);
        Self::from_stages(k, vec![Stage::Split(split), Stage::Ma(ma)])
    }

    /// The stages of this chain.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Destination sizes after each stage (the "name-space funnel").
    pub fn funnel(&self) -> Vec<u64> {
        self.stages.iter().map(Stage::dest_size).collect()
    }
}

fn all_pids(n: u64) -> Vec<Pid> {
    (0..n).collect()
}

impl Renaming for Chain {
    type Handle<'a> = ChainHandle<'a>;

    fn handle(&self, pid: Pid) -> ChainHandle<'_> {
        ChainHandle {
            chain: self,
            pid,
            inner: Vec::new(),
            held: None,
            retired_accesses: 0,
        }
    }

    fn source_size(&self) -> u64 {
        self.stages[0].source_size()
    }

    fn dest_size(&self) -> u64 {
        self.stages.last().expect("nonempty").dest_size()
    }

    fn concurrency(&self) -> usize {
        self.k
    }
}

/// Process handle on a [`Chain`].
#[derive(Debug)]
pub struct ChainHandle<'a> {
    chain: &'a Chain,
    pid: Pid,
    inner: Vec<StageHandle<'a>>,
    held: Option<Name>,
    /// Accesses from stage handles already retired by past releases.
    retired_accesses: u64,
}

impl ChainHandle<'_> {
    /// The intermediate names acquired at each stage during the current
    /// hold (diagnostic).
    pub fn stage_names(&self) -> Vec<Option<Name>> {
        self.inner
            .iter()
            .map(|h| match h {
                StageHandle::Split(h) => h.held(),
                StageHandle::Filter(h) => h.held(),
                StageHandle::Ma(h) => h.held(),
            })
            .collect()
    }
}

impl RenamingHandle for ChainHandle<'_> {
    fn acquire(&mut self) -> Name {
        assert!(self.held.is_none(), "acquire while holding a name");
        let mut id = self.pid;
        for stage in &self.chain.stages {
            let mut h = stage.handle(id);
            id = h.acquire();
            self.inner.push(h);
        }
        self.held = Some(id);
        id
    }

    fn release(&mut self) {
        assert!(self.held.is_some(), "release without holding a name");
        self.held = None;
        // Last stage first: our intermediate names stay reserved upstream
        // until every downstream identity built on them is gone.
        while let Some(mut h) = self.inner.pop() {
            h.release();
            self.retired_accesses += h.accesses();
        }
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn held(&self) -> Option<Name> {
        self.held
    }

    fn accesses(&self) -> u64 {
        self.retired_accesses + self.inner.iter().map(StageHandle::accesses).sum::<u64>()
    }
}

pub mod spec {
    //! Model-checkable specification of stage composition: a two-stage
    //! SPLIT → MA chain in one register file, exhaustively checked for
    //! end-to-end name uniqueness — including the subtle part, the
    //! *backwards* release order (MA name first, SPLIT name second).

    use crate::ma::{MaAcquire, MaRelease, MaShape};
    use crate::split::{PathVec, SplitAcquire, SplitRelease, SplitShape};
    use crate::types::{Name, Pid};
    use llr_mc::{CheckStats, Footprint, ModelChecker, Violation, World};
    use llr_mem::{Layout, Memory, Word};

    /// Register layout of a SPLIT → MA mini-chain.
    #[derive(Clone, Debug)]
    pub struct MiniChainShape {
        split: SplitShape,
        ma: MaShape,
    }

    impl MiniChainShape {
        /// Allocates both stages in one layout: SPLIT for concurrency
        /// `k`, MA over SPLIT's `3^(k-1)` output names.
        pub fn build(k: usize, layout: &mut Layout) -> Self {
            let split = SplitShape::build(k, layout);
            let ma = MaShape::build(k, 3u64.pow(k as u32 - 1), layout);
            Self { split, ma }
        }

        /// Holders of each stage's shape (`Arc` strong counts).
        #[cfg(test)]
        pub(crate) fn strong_counts(&self) -> (usize, usize) {
            (self.split.strong_count(), self.ma.strong_count())
        }
    }

    /// The composite acquire machine: walk the SPLIT tree, then — under
    /// the intermediate identity it yields — walk the MA grid.
    #[derive(Clone, Debug)]
    pub enum ChainAcquire {
        /// Stage 1: the SPLIT walk.
        Split(SplitAcquire),
        /// Stage 2: the MA walk, with the SPLIT outcome carried along for
        /// the eventual backwards release.
        Ma {
            /// The SPLIT tree path, kept for the backwards release.
            split_path: PathVec,
            /// The intermediate identity SPLIT assigned for the MA stage.
            intermediate: Pid,
            /// The in-flight MA grid walk.
            m: MaAcquire,
        },
    }

    /// Everything a completed chain session holds: the final name plus
    /// the breadcrumbs each stage's release needs.
    #[derive(Clone, Debug)]
    pub struct ChainToken {
        split_path: PathVec,
        intermediate: Pid,
        cell: (usize, usize),
        name: Name,
    }

    /// The composite release machine. Backwards order: the MA name goes
    /// first (a single write, performed on the step that leaves Holding),
    /// then the SPLIT-stage release retraces the tree path — releasing the
    /// front stage first would let another process grab our intermediate
    /// name and enter MA with an identity we still occupy there.
    #[derive(Clone, Debug)]
    pub enum ChainRelease {
        /// The pending MA release write, with the SPLIT path stashed.
        Ma {
            /// The SPLIT tree path to retrace once the MA write lands.
            split_path: PathVec,
            /// The pending MA release machine.
            m: MaRelease,
        },
        /// Stage 1 unwinding.
        Split(SplitRelease),
    }

    /// The SPLIT → MA mini-chain's
    /// [`ProtocolCore`][crate::session::ProtocolCore]: both stages' shapes
    /// plus one pid. The core owns both shapes; the embedded stage
    /// machines borrow them on every step, like the stand-alone cores'.
    #[derive(Clone, Debug)]
    pub struct ChainCore {
        shape: MiniChainShape,
        pid: Pid,
    }

    impl ChainCore {
        /// A core for process `pid` on the mini-chain `shape`.
        pub fn new(shape: MiniChainShape, pid: Pid) -> Self {
            Self { shape, pid }
        }
    }

    impl crate::session::ProtocolCore for ChainCore {
        type Acquire = ChainAcquire;
        type Token = ChainToken;
        type Release = ChainRelease;

        // The SPLIT walk's first access happens in the same scheduled step
        // that leaves Idle (and a k = 1 zero-access SPLIT stage falls
        // straight through to the MA walk).
        const LAZY_START: bool = false;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn begin_acquire(&self) -> ChainAcquire {
            ChainAcquire::Split(SplitAcquire::new(self.pid))
        }

        fn step_acquire<M: Memory + ?Sized>(
            &self,
            a: &mut ChainAcquire,
            mem: &M,
        ) -> Option<ChainToken> {
            match a {
                ChainAcquire::Split(m) => {
                    if let Some(intermediate) = m.step(&self.shape.split, mem) {
                        let split_path = std::mem::replace(m, SplitAcquire::new(0)).into_path();
                        *a = ChainAcquire::Ma {
                            split_path,
                            intermediate,
                            m: MaAcquire::new(&self.shape.ma, intermediate),
                        };
                    }
                    None
                }
                ChainAcquire::Ma {
                    split_path,
                    intermediate,
                    m,
                } => m.step(&self.shape.ma, mem).map(|name| ChainToken {
                    split_path: std::mem::take(split_path),
                    intermediate: *intermediate,
                    cell: m.stopped_at().expect("stopped"),
                    name,
                }),
            }
        }

        fn begin_release(&self, t: ChainToken) -> ChainRelease {
            ChainRelease::Ma {
                split_path: t.split_path,
                m: MaRelease::new(t.intermediate, t.cell),
            }
        }

        fn step_release<M: Memory + ?Sized>(&self, r: &mut ChainRelease, mem: &M) -> bool {
            match r {
                ChainRelease::Ma { split_path, m } => {
                    let done = m.step(&self.shape.ma, mem);
                    debug_assert!(done, "MA release is a single write");
                    *r = ChainRelease::Split(SplitRelease::new(
                        self.pid,
                        std::mem::take(split_path),
                    ));
                    false
                }
                ChainRelease::Split(rel) => rel.step(&self.shape.split, mem),
            }
        }

        fn acquire_footprint(&self, a: &ChainAcquire, fp: &mut Footprint) -> bool {
            match a {
                ChainAcquire::Split(m) => {
                    // Completing the SPLIT walk only hands off to the MA
                    // stage; the chain acquire continues.
                    m.footprint(&self.shape.split, fp);
                    false
                }
                ChainAcquire::Ma { m, .. } => m.footprint(&self.shape.ma, fp),
            }
        }

        fn release_footprint(&self, r: &ChainRelease, fp: &mut Footprint) -> bool {
            match r {
                ChainRelease::Ma { m, .. } => {
                    // The MA write's step hands off to the SPLIT unwind.
                    m.footprint(&self.shape.ma, fp);
                    false
                }
                ChainRelease::Split(rel) => rel.footprint(&self.shape.split, fp),
            }
        }

        fn future_footprint(&self, fp: &mut Footprint) {
            self.shape.split.future_footprint(fp);
            // The MA stage runs under a dynamically acquired intermediate
            // identity, so every presence slot is a potential future write.
            for i in 0..self.shape.ma.s() {
                self.shape.ma.future_footprint(i, fp);
            }
        }

        fn release_future_footprint(&self, r: &ChainRelease, fp: &mut Footprint) {
            match r {
                ChainRelease::Ma { split_path, m } => {
                    m.future_footprint(&self.shape.ma, fp);
                    self.shape.split.path_release_footprint(split_path, fp);
                }
                ChainRelease::Split(rel) => rel.future_footprint(&self.shape.split, fp),
            }
        }

        fn token_name(&self, t: &ChainToken) -> Option<Name> {
            Some(t.name)
        }

        fn dest_size(&self) -> u64 {
            (self.shape.ma.k() * (self.shape.ma.k() + 1) / 2) as u64
        }

        fn key_acquire(&self, a: &ChainAcquire, out: &mut Vec<Word>) {
            match a {
                ChainAcquire::Split(m) => {
                    out.push(0);
                    m.key(out);
                }
                ChainAcquire::Ma {
                    split_path,
                    intermediate,
                    m,
                } => {
                    out.push(1);
                    out.push(*intermediate);
                    m.key(out);
                    for e in split_path.as_slice() {
                        out.push(e.advice.word());
                        out.push(u64::from(e.adv2));
                    }
                }
            }
        }

        fn key_token(&self, t: &ChainToken, out: &mut Vec<Word>) {
            out.push(t.intermediate);
            out.push(t.name);
            out.push(t.cell.0 as u64);
            out.push(t.cell.1 as u64);
            for e in t.split_path.as_slice() {
                out.push(e.advice.word());
                out.push(u64::from(e.adv2));
            }
        }

        fn key_release(&self, r: &ChainRelease, out: &mut Vec<Word>) {
            match r {
                // Never reachable as a stored state: the MA write happens
                // inside the step that leaves Holding.
                ChainRelease::Ma { .. } => out.push(0),
                ChainRelease::Split(rel) => {
                    out.push(1);
                    rel.key(out);
                }
            }
        }

        fn describe_acquire(&self, a: &ChainAcquire) -> String {
            match a {
                ChainAcquire::Split(m) => format!("S1:{}", m.describe()),
                ChainAcquire::Ma { m, .. } => format!("S2:{}", m.describe()),
            }
        }

        fn describe_release(&self, r: &ChainRelease) -> String {
            match r {
                ChainRelease::Ma { .. } => "S2:Releasing".into(),
                ChainRelease::Split(rel) => format!("S1:{}", rel.describe()),
            }
        }
    }

    /// A process cycling through the two-stage chain: the generic session
    /// machine over [`ChainCore`].
    pub type ChainUser = crate::session::Session<ChainCore>;

    impl ChainUser {
        /// A chain user with identity `pid` doing `sessions` cycles.
        pub fn new(shape: MiniChainShape, pid: Pid, sessions: u8) -> Self {
            crate::session::Session::start(ChainCore::new(shape, pid), sessions)
        }
    }

    /// Final names held concurrently are pairwise distinct and in range.
    pub fn unique_names_invariant(world: &World<'_, ChainUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for a SPLIT → MA mini-chain (shared by
    /// the exhaustive checks and the E2 driver).
    pub fn checker(k: usize, pids: &[Pid], sessions: u8) -> ModelChecker<ChainUser> {
        let mut layout = Layout::new();
        let shape = MiniChainShape::build(k, &mut layout);
        let machines: Vec<ChainUser> = pids
            .iter()
            .map(|&p| ChainUser::new(shape.clone(), p, sessions))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Exhaustively checks end-to-end uniqueness of a SPLIT → MA chain.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if composition can break.
    pub fn check_mini_chain(
        k: usize,
        pids: &[Pid],
        sessions: u8,
    ) -> Result<CheckStats, Box<Violation>> {
        crate::session::run_check(
            checker(k, pids, sessions),
            &crate::session::Engine::Sequential,
            unique_names_invariant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_session_keeps_refcount, sequential_cycle};

    #[test]
    fn a_session_never_touches_the_stage_refcounts() {
        let mut layout = llr_mem::Layout::new();
        let shape = spec::MiniChainShape::build(3, &mut layout);
        let user = spec::ChainUser::new(shape.clone(), 0xBEEF, 3);
        assert_session_keeps_refcount(&layout, user, || shape.strong_counts());
    }

    #[test]
    fn exhaustive_mini_chain_k2() {
        let stats = spec::check_mini_chain(2, &[3, 9], 2).unwrap();
        assert!(stats.states > 1_000, "got {}", stats.states);
    }

    #[test]
    fn exhaustive_mini_chain_always_terminable() {
        let mut layout = llr_mem::Layout::new();
        let shape = spec::MiniChainShape::build(2, &mut layout);
        let machines: Vec<spec::ChainUser> = [3u64, 9]
            .iter()
            .map(|&p| spec::ChainUser::new(shape.clone(), p, 1))
            .collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("chained stages are wait-free: no trap states");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_mini_chain_k2_three_procs_is_overloaded() {
        // Deliberately NOT run by default: 3 procs exceed k = 2 and the
        // protocols' assumptions no longer hold.
        let _ = spec::check_mini_chain(2, &[3, 9, 12], 1);
    }

    #[test]
    fn theorem11_funnel_shrinks_to_triangle() {
        for k in 2..=4usize {
            let chain = Chain::theorem11(k).unwrap();
            let funnel = chain.funnel();
            assert_eq!(chain.dest_size(), (k * (k + 1) / 2) as u64);
            // Monotone non-increasing funnel after the first stage is not
            // guaranteed for tiny k, but the end is the triangle number.
            assert_eq!(*funnel.last().unwrap(), (k * (k + 1) / 2) as u64);
            assert_eq!(chain.source_size(), u64::MAX);
        }
    }

    #[test]
    fn sequential_cycles_through_the_pipeline() {
        let chain = Chain::theorem11(3).unwrap();
        let pids = [5u64, 1 << 40, u64::MAX - 3];
        let (names, _) = sequential_cycle(&chain, &pids);
        for n in names {
            assert!(n < 6);
        }
    }

    #[test]
    fn concurrent_holders_distinct() {
        let chain = Chain::theorem11(3).unwrap();
        let mut hs: Vec<_> = [7u64, 1 << 33, 12345]
            .iter()
            .map(|&p| chain.handle(p))
            .collect();
        let names: Vec<Name> = hs.iter_mut().map(|h| h.acquire()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3, "duplicate final names: {names:?}");
        for h in &mut hs {
            assert!(h.stage_names().iter().all(Option::is_some));
            h.release();
        }
    }

    #[test]
    fn k1_chain() {
        let chain = Chain::theorem11(1).unwrap();
        assert_eq!(chain.dest_size(), 1);
        let mut h = chain.handle(99);
        assert_eq!(h.acquire(), 0);
        h.release();
    }

    #[test]
    fn split_ma_variant() {
        let chain = Chain::split_ma(3).unwrap();
        assert_eq!(chain.dest_size(), 6);
        let (names, _) = sequential_cycle(&chain, &[0, 42, 999]);
        for n in names {
            assert!(n < 6);
        }
    }

    #[test]
    fn mismatched_stages_rejected() {
        // MA stage too small for SPLIT's output space.
        let split = Split::new(4); // D = 27
        let ma = MaGrid::new(4, 9);
        match Chain::from_stages(4, vec![Stage::Split(split), Stage::Ma(ma)]) {
            Err(ChainError::Mismatch {
                stage: 1,
                upstream_dest: 27,
                source: 9,
            }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(matches!(
            Chain::from_stages(2, vec![]),
            Err(ChainError::Empty)
        ));
    }

    #[test]
    fn threads_cycle_concurrently() {
        let chain = std::sync::Arc::new(Chain::theorem11(3).unwrap());
        let claimed: std::sync::Arc<Vec<std::sync::atomic::AtomicBool>> = std::sync::Arc::new(
            (0..chain.dest_size())
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        );
        let hs: Vec<_> = [3u64, 1 << 50, 777]
            .iter()
            .map(|&p| {
                let chain = std::sync::Arc::clone(&chain);
                let claimed = std::sync::Arc::clone(&claimed);
                std::thread::spawn(move || {
                    let mut h = chain.handle(p);
                    for _ in 0..25 {
                        let n = h.acquire();
                        let was = claimed[n as usize]
                            .swap(true, std::sync::atomic::Ordering::SeqCst);
                        assert!(!was, "name {n} double-held");
                        claimed[n as usize].store(false, std::sync::atomic::Ordering::SeqCst);
                        h.release();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
    }
}
