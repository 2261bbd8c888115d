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
//! # One composition, served and checked
//!
//! Composition is itself a [`ProtocolCore`]: [`Then<A, B>`] runs `A`'s
//! acquire, then `B`'s under the name `A` handed out, and releases in the
//! opposite order. [`Theorem11::build`], [`SplitMa::build`] and
//! [`DoubleFilter::build`] allocate every stage in a caller's register
//! layout and return the nest of `Then`s. A [`Chain`] is that core served
//! by the same [`Renamer`] every other protocol is, through the same
//! [`session::Handle`](crate::session::Handle), and
//! [`session::checker`](crate::session::checker) model-checks the very
//! same core as [`Session`](crate::session::Session)s.
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
//! assert_eq!(h.stage_names().len(), 4); // SPLIT, FILTER, FILTER, MA
//! h.release();
//! ```

use crate::filter::{FilterCore, FilterShape};
use crate::ma::{MaCore, MaShape};
use crate::session::{Composable, Handle, ProtocolCore, Renamer};
use crate::split::{SplitCore, SplitShape};
use crate::types::{Name, Pid};
use llr_gf::{FilterParams, ParamError};
use llr_mc::Footprint;
use llr_mem::{Layout, Memory, Word};
use std::fmt;
use std::sync::Arc;

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
    /// A later stage cannot act for a name its predecessor hands out: a
    /// FILTER stage did not register it.
    Unregistered {
        /// Index of the offending stage.
        stage: usize,
        /// The first name the stage cannot act for.
        name: Name,
    },
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
            ChainError::Unregistered { stage, name } => write!(
                f,
                "stage {stage} cannot act for name {name}, which its predecessor hands out"
            ),
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

/// Two stages composed as one [`ProtocolCore`]: `A`'s acquire, then `B`'s
/// under the name `A` handed out; `B`'s release, then `A`'s.
///
/// `Then` holds `A`'s core and a table of `B` cores, one per name `A`
/// hands out, built once by [`Then::new`] and shared by every
/// [`for_pid`](Composable::for_pid) copy: no step and no cycle clones a
/// shape. Chains nest to the left, `Then<Then<A, B>, C>`, so each table
/// holds plain stage cores.
#[derive(Clone, Debug)]
pub struct Then<A, B> {
    first: A,
    /// `B`'s core for each name `A` hands out, indexed by that name.
    second: Arc<[B]>,
}

impl<A: Composable, B: Composable> Then<A, B> {
    /// Composes `first` with `second`, building `second`'s core for every
    /// name `first` hands out.
    ///
    /// # Errors
    ///
    /// [`ChainError::Mismatch`] if `second`'s source space is smaller than
    /// `first`'s destination space, and [`ChainError::Unregistered`] if
    /// `second` cannot act for some name below `first`'s destination
    /// size (a FILTER stage must have registered every one).
    pub fn new(first: A, second: B) -> Result<Self, ChainError> {
        let upstream_dest = first.dest_size();
        let stage = || {
            let mut funnel = Vec::new();
            first.funnel(&mut funnel);
            funnel.len()
        };
        let source = second.source_size();
        if source < upstream_dest {
            return Err(ChainError::Mismatch {
                stage: stage(),
                upstream_dest,
                source,
            });
        }
        if let Some(name) = (0..upstream_dest).find(|&name| !second.accepts(name)) {
            return Err(ChainError::Unregistered {
                stage: stage(),
                name,
            });
        }
        let second = (0..upstream_dest)
            .map(|name| second.for_pid(name))
            .collect();
        Ok(Self { first, second })
    }

    /// The index of the `B` core that serves `A`'s token.
    fn at(&self, token: &A::Token) -> usize {
        self.first
            .token_name(token)
            .expect("a chained stage's token carries a name") as usize
    }

    /// The hand-off: `B`'s acquire under the name in `token`. It makes no
    /// shared access; `B`'s first access is its own scheduled step.
    fn hand_off(&self, token: A::Token) -> ThenAcquire<A, B> {
        let at = self.at(&token);
        ThenAcquire::Second {
            at,
            b: self.second[at].begin_acquire(),
            token,
        }
    }
}

/// [`Then`]'s acquire machine.
#[derive(Clone, Debug)]
pub enum ThenAcquire<A: ProtocolCore, B: ProtocolCore> {
    /// `A`'s acquire.
    First(A::Acquire),
    /// `B`'s acquire on its core `at`, the name `A`'s token holds.
    Second {
        /// The `B` core's index.
        at: usize,
        /// `A`'s token, kept for the backwards release.
        token: A::Token,
        /// The in-flight `B` acquire.
        b: B::Acquire,
    },
    /// Complete: the token has moved on, and the machine is never
    /// stepped again.
    Done,
}

/// [`Then`]'s release machine: `B`'s release, then `A`'s.
#[derive(Clone, Debug)]
pub struct ThenRelease<A: ProtocolCore, B: ProtocolCore> {
    /// `B`'s release and the index of its core, until it completes.
    second: Option<(usize, B::Release)>,
    /// `A`'s release, run once `B`'s has completed.
    first: A::Release,
}

impl<A: Composable, B: Composable> ProtocolCore for Then<A, B> {
    type Acquire = ThenAcquire<A, B>;
    type Token = (A::Token, B::Token);
    type Release = ThenRelease<A, B>;

    const LAZY_START: bool = A::LAZY_START;

    fn pid(&self) -> Pid {
        self.first.pid()
    }

    fn begin_acquire(&self) -> ThenAcquire<A, B> {
        ThenAcquire::First(self.first.begin_acquire())
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut ThenAcquire<A, B>,
        mem: &M,
    ) -> Option<Self::Token> {
        match a {
            ThenAcquire::First(m) => {
                if let Some(token) = self.first.step_acquire(m, mem) {
                    *a = self.hand_off(token);
                }
                None
            }
            ThenAcquire::Second { at, b, .. } => {
                let second = self.second[*at].step_acquire(b, mem)?;
                match std::mem::replace(a, ThenAcquire::Done) {
                    ThenAcquire::Second { token, .. } => Some((token, second)),
                    _ => None,
                }
            }
            ThenAcquire::Done => None,
        }
    }

    fn begin_release(&self, (first, second): Self::Token) -> ThenRelease<A, B> {
        let at = self.at(&first);
        ThenRelease {
            second: Some((at, self.second[at].begin_release(second))),
            first: self.first.begin_release(first),
        }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut ThenRelease<A, B>, mem: &M) -> bool {
        if let Some((at, b)) = &mut r.second {
            if self.second[*at].step_release(b, mem) {
                // `A`'s release starts in the next step.
                r.second = None;
            }
            return false;
        }
        self.first.step_release(&mut r.first, mem)
    }

    fn token_name(&self, (first, second): &Self::Token) -> Option<Name> {
        self.second[self.at(first)].token_name(second)
    }

    fn dest_size(&self) -> u64 {
        self.second[0].dest_size()
    }

    fn acquire_footprint(&self, a: &ThenAcquire<A, B>, fp: &mut Footprint) -> bool {
        // Completing `A` only hands off to `B`.
        match a {
            ThenAcquire::First(m) => {
                self.first.acquire_footprint(m, fp);
                false
            }
            ThenAcquire::Second { at, b, .. } => self.second[*at].acquire_footprint(b, fp),
            ThenAcquire::Done => true,
        }
    }

    fn release_footprint(&self, r: &ThenRelease<A, B>, fp: &mut Footprint) -> bool {
        if let Some((at, b)) = &r.second {
            self.second[*at].release_footprint(b, fp);
            return false;
        }
        self.first.release_footprint(&r.first, fp)
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        self.first.future_footprint(fp);
        // `B` runs under a name `A` hands out at run time, so every `B`
        // core's lifetime is a potential future.
        for core in self.second.iter() {
            core.future_footprint(fp);
        }
    }

    fn release_future_footprint(&self, r: &ThenRelease<A, B>, fp: &mut Footprint) {
        if let Some((at, b)) = &r.second {
            self.second[*at].release_future_footprint(b, fp);
        }
        self.first.release_future_footprint(&r.first, fp);
    }

    fn key_acquire(&self, a: &ThenAcquire<A, B>, out: &mut Vec<Word>) {
        match a {
            ThenAcquire::First(m) => {
                out.push(0);
                self.first.key_acquire(m, out);
            }
            // `A`'s token is keyed: its release is still ahead. (Tag 1 is
            // unused, so these keys and their digests stay as pinned.)
            ThenAcquire::Second { at, token, b } => {
                out.push(2);
                self.first.key_token(token, out);
                self.second[*at].key_acquire(b, out);
            }
            ThenAcquire::Done => out.push(3),
        }
    }

    fn key_token(&self, (first, second): &Self::Token, out: &mut Vec<Word>) {
        self.first.key_token(first, out);
        self.second[self.at(first)].key_token(second, out);
    }

    fn key_release(&self, r: &ThenRelease<A, B>, out: &mut Vec<Word>) {
        match &r.second {
            Some((at, b)) => {
                out.push(*at as Word);
                self.second[*at].key_release(b, out);
            }
            None => out.push(Word::MAX),
        }
        self.first.key_release(&r.first, out);
    }

    fn describe_acquire(&self, a: &ThenAcquire<A, B>) -> String {
        match a {
            ThenAcquire::First(m) => self.first.describe_acquire(m),
            ThenAcquire::Second { at, token, b } => format!(
                "{} → {}",
                self.first.describe_token(token),
                self.second[*at].describe_acquire(b)
            ),
            ThenAcquire::Done => "Acquired".into(),
        }
    }

    fn describe_release(&self, r: &ThenRelease<A, B>) -> String {
        match &r.second {
            Some((at, b)) => self.second[*at].describe_release(b),
            None => self.first.describe_release(&r.first),
        }
    }
}

impl<A: Composable, B: Composable> Composable for Then<A, B> {
    fn for_pid(&self, pid: Pid) -> Self {
        Self {
            first: self.first.for_pid(pid),
            second: Arc::clone(&self.second),
        }
    }

    fn source_size(&self) -> u64 {
        self.first.source_size()
    }

    fn accepts(&self, pid: Pid) -> bool {
        self.first.accepts(pid)
    }

    fn funnel(&self, out: &mut Vec<u64>) {
        self.first.funnel(out);
        out.push(self.dest_size());
    }

    fn stage_names(&self, (first, second): &Self::Token, out: &mut Vec<Option<Name>>) {
        self.first.stage_names(first, out);
        out.push(self.second[self.at(first)].token_name(second));
    }
}

/// The Theorem 11 pipeline's core: SPLIT → FILTER → FILTER → MA.
pub type Theorem11 = Then<Then<Then<SplitCore, FilterCore>, FilterCore>, MaCore>;

/// The two-stage SPLIT → MA core.
pub type SplitMa = Then<SplitCore, MaCore>;

/// The FILTER → FILTER core of [`Chain::double_filter`].
pub type DoubleFilter = Then<FilterCore, FilterCore>;

/// A pipeline of long-lived renaming stages acting as a single long-lived
/// renaming object: one composed core `P`, its stages all allocated in one
/// register file, served by a [`Renamer`].
pub type Chain<P> = Renamer<P>;

/// A FILTER stage for `params` that registers every name below `names`,
/// acting for pid 0.
fn filter_stage(
    params: FilterParams,
    names: u64,
    layout: &mut Layout,
) -> Result<FilterCore, ChainError> {
    let pids: Vec<Pid> = (0..names).collect();
    let shape = FilterShape::build(params, &pids, layout)?;
    Ok(FilterCore::new(shape, 0))
}

impl Theorem11 {
    /// Allocates every stage of the Theorem 11 pipeline for concurrency
    /// `k` in `layout` and composes them, acting for pid 0.
    ///
    /// FILTER's `k` only bounds concurrency from above, so for `k = 1`
    /// the FILTER stages take their `k = 2` parameters and the chain
    /// still renames to a single name.
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `k` exceeds [`crate::split::MAX_K`].
    pub fn build(k: usize, layout: &mut Layout) -> Result<Self, ChainError> {
        let split = SplitCore::new(SplitShape::build(k, layout), 0);
        let filter_k = k.max(2);
        let f1 = filter_stage(
            FilterParams::exponential3(filter_k)?,
            split.dest_size(),
            layout,
        )?;
        let f2 = filter_stage(
            FilterParams::choose(filter_k, f1.dest_size())?,
            f1.dest_size(),
            layout,
        )?;
        let ma = MaCore::new(MaShape::build(k, f2.dest_size(), layout), 0);
        Then::new(Then::new(Then::new(split, f1)?, f2)?, ma)
    }
}

impl SplitMa {
    /// Allocates a SPLIT stage and an MA stage over its `3^(k-1)` names
    /// in `layout` and composes them, acting for pid 0.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn build(k: usize, layout: &mut Layout) -> Result<Self, ChainError> {
        let split = SplitCore::new(SplitShape::build(k, layout), 0);
        let ma = MaCore::new(MaShape::build(k, split.dest_size(), layout), 0);
        Then::new(split, ma)
    }
}

impl DoubleFilter {
    /// Allocates FILTER(chosen for `s`), registering every source id, and
    /// FILTER(chosen for the first stage's output) in `layout` and
    /// composes them, acting for pid 0.
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `s > 250_000`: registering every source id is only
    /// sensible for the poly(k)-sized source spaces the observation is
    /// about. For larger spaces, build the stages with an explicit
    /// participant set and compose them with [`Then::new`].
    pub fn build(k: usize, s: u64, layout: &mut Layout) -> Result<Self, ChainError> {
        assert!(
            s <= 250_000,
            "double_filter registers all {s} source ids; compose the stages \
             with Then::new over an explicit participant set for large source spaces"
        );
        let f1 = filter_stage(FilterParams::choose(k, s)?, s, layout)?;
        let f2 = filter_stage(
            FilterParams::choose(k, f1.dest_size())?,
            f1.dest_size(),
            layout,
        )?;
        Then::new(f1, f2)
    }
}

impl Chain<Theorem11> {
    /// The Theorem 11 pipeline: SPLIT → FILTER(`S ≤ 3^(k-1)`) →
    /// FILTER(`S ≤ 2k⁴`) → MA, renaming any 64-bit source space to
    /// `k(k+1)/2` names in `O(k³)` time ([`Theorem11::build`], served).
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0` or `k` exceeds [`crate::split::MAX_K`] (the
    /// SPLIT tree and the full intermediate registration become enormous
    /// well before that).
    pub fn theorem11(k: usize) -> Result<Self, ChainError> {
        let mut layout = Layout::new();
        let core = Theorem11::build(k, &mut layout)?;
        Ok(Self::serve(k, &layout, core))
    }
}

impl Chain<DoubleFilter> {
    /// The paper's §4.4 observation "applying FILTER twice yields
    /// `D ∈ O(k²)`": FILTER(chosen for `S`) → FILTER(chosen for the first
    /// stage's output), for a source space already polynomial in `k`
    /// ([`DoubleFilter::build`], served).
    ///
    /// # Errors
    ///
    /// Propagates parameter-selection and construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `s > 250_000`, as [`DoubleFilter::build`] does.
    pub fn double_filter(k: usize, s: u64) -> Result<Self, ChainError> {
        let mut layout = Layout::new();
        let core = DoubleFilter::build(k, s, &mut layout)?;
        Ok(Self::serve(k, &layout, core))
    }
}

impl Chain<SplitMa> {
    /// A cheaper two-stage variant for measurements: SPLIT → MA. Same
    /// destination space as Theorem 11 but with the MA stage scanning
    /// `3^(k-1)` presence slots, illustrating why the intermediate FILTER
    /// stages pay off for larger `k` ([`SplitMa::build`], served).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn split_ma(k: usize) -> Result<Self, ChainError> {
        let mut layout = Layout::new();
        let core = SplitMa::build(k, &mut layout)?;
        Ok(Self::serve(k, &layout, core))
    }
}

impl<A: Composable, B: Composable> Handle<'_, Then<A, B>> {
    /// The intermediate names held at each stage, read from the held
    /// token (diagnostic); empty while no name is held.
    pub fn stage_names(&self) -> Vec<Option<Name>> {
        let mut out = Vec::new();
        if let Some(token) = self.held_token() {
            self.core().stage_names(token, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::traits::test_support::{
        assert_cycles_keep_refcount, assert_session_keeps_refcount, sequential_cycle,
    };
    use crate::traits::{Renaming, RenamingHandle};

    /// The strong count of every stage shape and every `B` table of a
    /// Theorem 11 core.
    fn theorem11_refs(core: &Theorem11) -> [usize; 7] {
        let outer = core;
        let middle = &outer.first;
        let inner = &middle.first;
        [
            inner.first.shape().strong_count(),
            inner.second[0].shape().strong_count(),
            Arc::strong_count(&inner.second),
            middle.second[0].shape().strong_count(),
            Arc::strong_count(&middle.second),
            outer.second[0].shape().strong_count(),
            Arc::strong_count(&outer.second),
        ]
    }

    #[test]
    fn cycles_never_touch_the_stage_refcounts() {
        let chain = Chain::theorem11(3).unwrap();
        assert_cycles_keep_refcount(&chain, 0xC0FF_EE00, || theorem11_refs(&chain.core));
        let chain = Chain::split_ma(3).unwrap();
        let refs = || {
            let core = &chain.core;
            [
                core.first.shape().strong_count(),
                core.second[0].shape().strong_count(),
                Arc::strong_count(&core.second),
            ]
        };
        assert_cycles_keep_refcount(&chain, 0xBEEF, refs);
    }

    #[test]
    fn a_session_never_touches_the_stage_refcounts() {
        let mut layout = Layout::new();
        let core = Theorem11::build(3, &mut layout).unwrap();
        let user = Session::start(core.for_pid(0xBEEF), 3);
        assert_session_keeps_refcount(&layout, user, || theorem11_refs(&core));
    }

    /// The model checker over two SPLIT → MA processes at `k = 2`.
    fn split_ma_checker(sessions: u8) -> llr_mc::ModelChecker<Session<SplitMa>> {
        let mut layout = Layout::new();
        let core = SplitMa::build(2, &mut layout).unwrap();
        crate::session::checker(layout, &core, &[3, 9], sessions)
    }

    #[test]
    fn exhaustive_split_ma_k2() {
        let stats = crate::session::run_check(
            split_ma_checker(2),
            &crate::session::Engine::Sequential,
            crate::session::unique_names_invariant,
        )
        .unwrap();
        assert!(stats.states > 1_000, "got {}", stats.states);
    }

    #[test]
    fn exhaustive_split_ma_always_terminable() {
        let stats = split_ma_checker(1)
            .check_always_terminable(&crate::session::Engine::Parallel {
                workers: 1,
                hashed: true,
            })
            .expect("chained stages are wait-free: no trap states");
        assert!(stats.terminal_states >= 1);
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
        let mut layout = Layout::new();
        let split = SplitCore::new(SplitShape::build(4, &mut layout), 0); // D = 27
        let ma = MaCore::new(MaShape::build(4, 9, &mut layout), 0);
        match Then::new(split, ma) {
            Err(ChainError::Mismatch {
                stage: 1,
                upstream_dest: 27,
                source: 9,
            }) => {}
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_filter_names_rejected() {
        // SPLIT k=2 hands out 3 names; the FILTER stage registered 0 and 1.
        let mut layout = Layout::new();
        let split = SplitCore::new(SplitShape::build(2, &mut layout), 0);
        let params = FilterParams::exponential3(2).unwrap();
        let shape = FilterShape::build(params, &[0, 1], &mut layout).unwrap();
        let filter = FilterCore::new(shape, 0);
        match Then::new(split, filter) {
            Err(ChainError::Unregistered { stage: 1, name: 2 }) => {}
            other => panic!("expected name 2 unregistered, got {other:?}"),
        }
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
                        let was =
                            claimed[n as usize].swap(true, std::sync::atomic::Ordering::SeqCst);
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
