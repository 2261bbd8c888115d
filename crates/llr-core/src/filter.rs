//! The FILTER protocol (Section 4): wait-free long-lived renaming to
//! `D = 2zd(k-1)` names in `O(dk log S)` time.
//!
//! Every destination name `m` owns a mutual-exclusion tournament tree
//! `T_m` ([`crate::tournament`]); acquiring `m` means winning the root
//! critical section of `T_m`. Mutual exclusion inside a wait-free protocol
//! works because a process never *waits* on one tree: it competes in all
//! `2d(k-1)` trees of its hashed name set `N_p` ([`llr_gf::NameSets`]) "in
//! parallel" — round-robin, advancing one [`crate::pf::check`] at a time
//! and switching trees whenever a check says "not yet".
//!
//! The name sets are cover-free: any `k-1` other processes intersect at
//! most `d(k-1)` of `N_p`'s `2d(k-1)` trees, so at every instant at least
//! `d(k-1)` of `p`'s trees are contention-free, and the ME blocks' FIFO
//! deference guarantees progress there. Theorem 10 bounds a `GetName` by
//! `6d(k-1)⌈log S⌉` checks plus one (≤ 4-access) enter per ME block; the
//! implementation enforces a (generous multiple of) this bound with a
//! panic — a wait-freedom tripwire rather than silent spinning.
//!
//! `ReleaseName` releases every ME block the process entered in *any*
//! tree, top-down within each tree.
//!
//! # Registration
//!
//! A [`Filter`] is built for an explicit set of participant pids: the
//! tournament trees are allocated sparsely over exactly the union of the
//! participants' root-paths (see [`crate::tournament::TreeShape`] on why
//! this preserves the paper's behaviour while avoiding its `O(zdkS)`
//! dense space). Any number of participants may register; at most `k` may
//! acquire or hold names concurrently.
//!
//! # Example
//!
//! ```
//! use llr_core::filter::Filter;
//! use llr_core::traits::{Renaming, RenamingHandle};
//! use llr_gf::FilterParams;
//!
//! // k = 3 concurrent processes out of a source space of 2·3⁴ ids.
//! let params = FilterParams::two_k_four(3).unwrap();
//! let participants: Vec<u64> = vec![7, 56, 161];
//! let filter = Filter::new(params, &participants).unwrap();
//! let mut h = filter.handle(56);
//! let name = h.acquire();
//! assert!(name < filter.dest_size()); // < 2zd(k-1) ≤ 72k²
//! h.release();
//! ```

use crate::pf::{self, MeEnter};
use crate::session::{Handle, ProtocolCore, Session};
use crate::tournament::{TreeProgress, TreeShape};
use crate::traits::Renaming;
use crate::types::{Name, Pid};
use llr_gf::FilterParams;
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Layout, Memory, Word};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Errors from [`Filter::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FilterError {
    /// A participant id is outside the source name space.
    PidOutOfRange {
        /// The offending pid.
        pid: Pid,
        /// The source space size.
        s: u64,
    },
    /// The same pid was registered twice.
    DuplicatePid {
        /// The duplicated pid.
        pid: Pid,
    },
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FilterError::PidOutOfRange { pid, s } => {
                write!(f, "participant pid {pid} outside source space of size {s}")
            }
            FilterError::DuplicatePid { pid } => write!(f, "duplicate participant pid {pid}"),
        }
    }
}

impl std::error::Error for FilterError {}

/// The static shape of a FILTER instance: parameters plus the sparse
/// per-name tournament trees. Cheap to clone; owned by the
/// [`FilterCore`] and lent to the machines on every step.
#[derive(Clone, Debug)]
pub struct FilterShape {
    params: FilterParams,
    trees: Arc<HashMap<Name, TreeShape>>,
    participants: Arc<HashSet<Pid>>,
}

impl FilterShape {
    /// Allocates all tournament trees touched by `participants` in
    /// `layout`.
    ///
    /// # Errors
    ///
    /// See [`FilterError`].
    pub fn build(
        params: FilterParams,
        participants: &[Pid],
        layout: &mut Layout,
    ) -> Result<Self, FilterError> {
        let sets = params.name_sets();
        let s = params.source_size();
        let mut seen = HashSet::new();
        let mut per_tree: HashMap<Name, Vec<Pid>> = HashMap::new();
        for &p in participants {
            if p >= s {
                return Err(FilterError::PidOutOfRange { pid: p, s });
            }
            if !seen.insert(p) {
                return Err(FilterError::DuplicatePid { pid: p });
            }
            for m in sets.name_set(p) {
                per_tree.entry(m).or_default().push(p);
            }
        }
        let mut trees = HashMap::new();
        let mut names: Vec<Name> = per_tree.keys().copied().collect();
        names.sort_unstable(); // deterministic layout order
        for m in names {
            let pids = &per_tree[&m];
            trees.insert(m, TreeShape::build(layout, &format!("T{m}"), s, pids));
        }
        Ok(Self {
            params,
            trees: Arc::new(trees),
            participants: Arc::new(seen),
        })
    }

    /// The validated parameters.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// The tournament tree of name `m`.
    ///
    /// # Panics
    ///
    /// Panics if no registered participant competes for `m`.
    pub fn tree(&self, m: Name) -> &TreeShape {
        self.trees
            .get(&m)
            .unwrap_or_else(|| panic!("no registered participant competes for name {m}"))
    }

    /// Whether `pid` was registered.
    pub fn is_registered(&self, pid: Pid) -> bool {
        self.participants.contains(&pid)
    }

    /// Total ME blocks allocated across all trees.
    pub fn allocated_blocks(&self) -> usize {
        self.trees.values().map(TreeShape::allocated_blocks).sum()
    }
}

/// How far [`FilterAcquire`] got; exposed for metrics and invariants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcquireMetrics {
    /// `Check` calls performed (each 1 shared access).
    pub checks: u64,
    /// ME blocks entered (each 3 shared accesses).
    pub enters: u64,
    /// Full round-robin passes over the name set completed.
    pub rounds: u64,
    /// Level advances (successful checks) in the current round.
    advances_this_round: u64,
    /// Minimum advances over any *completed* round — Lemma 9 guarantees
    /// this is at least `d(k-1)` while the name is still being sought.
    pub min_round_advances: u64,
}

impl AcquireMetrics {
    fn new() -> Self {
        Self {
            min_round_advances: u64::MAX,
            ..Self::default()
        }
    }
}

#[derive(Clone, Debug)]
enum Mode {
    /// Running the ME-entry micro-machine at `progress[cur].entered_level() + 1`.
    Entering(MeEnter),
    /// About to perform the single-read check at `progress[cur].entered_level()`.
    Checking,
}

/// `GetName` (Figure 4) as a step machine: one shared access per step.
/// Holds only the operation's locals; the trees are lent by the caller on
/// every [`step`](Self::step).
#[derive(Clone, Debug)]
pub struct FilterAcquire {
    pid: Pid,
    names: Vec<Name>,
    progress: Vec<TreeProgress>,
    cur: usize,
    mode: Mode,
    acquired: Option<usize>,
    metrics: AcquireMetrics,
    /// Wait-freedom tripwire: generous multiple of Theorem 10's bound.
    check_budget: u64,
}

impl FilterAcquire {
    /// Starts a `GetName` for registered process `pid` on the instance
    /// `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not registered when the shape was built.
    pub fn new(shape: &FilterShape, pid: Pid) -> Self {
        assert!(
            shape.is_registered(pid),
            "pid {pid} was not registered with this FILTER instance"
        );
        let names = shape.params.name_sets().name_set(pid);
        let progress = vec![TreeProgress::new(); names.len()];
        let first_side = TreeShape::side_at(pid, 1);
        let check_budget = 50 * shape.params.max_checks() + 1_000;
        Self {
            pid,
            names,
            progress,
            cur: 0,
            mode: Mode::Entering(MeEnter::new(first_side)),
            acquired: None,
            metrics: AcquireMetrics::new(),
            check_budget,
        }
    }

    /// Executes one atomic statement on the instance `shape`; returns the
    /// acquired name when done.
    ///
    /// # Panics
    ///
    /// Panics if the number of checks wildly exceeds Theorem 10's
    /// wait-freedom bound — which can only happen if more than `k`
    /// processes use the object concurrently.
    pub fn step<M: Memory + ?Sized>(&mut self, shape: &FilterShape, mem: &M) -> Option<Name> {
        if let Some(i) = self.acquired {
            return Some(self.names[i]);
        }
        let m = self.names[self.cur];
        let tree = shape.tree(m);
        match &mut self.mode {
            Mode::Entering(op) => {
                let level = self.progress[self.cur].entered_level() + 1;
                let regs = tree.block_for(self.pid, level);
                if let Some(own) = op.step(&regs, mem) {
                    self.progress[self.cur].push_entered(own);
                    self.metrics.enters += 1;
                    self.mode = Mode::Checking;
                }
                None
            }
            Mode::Checking => {
                let level = self.progress[self.cur].entered_level();
                let regs = tree.block_for(self.pid, level);
                let side = TreeShape::side_at(self.pid, level);
                let own = self.progress[self.cur].own_at(level);
                self.metrics.checks += 1;
                assert!(
                    self.metrics.checks <= self.check_budget,
                    "wait-freedom tripwire: {} checks exceed 50× Theorem 10's bound \
                     ({}); is the concurrency bound k = {} being violated?",
                    self.metrics.checks,
                    shape.params.max_checks(),
                    shape.params.concurrency()
                );
                if pf::check(&regs, side, own, mem) {
                    self.metrics.advances_this_round += 1;
                    if level == tree.levels() {
                        // Root critical section won: name acquired.
                        self.acquired = Some(self.cur);
                        return Some(m);
                    }
                    let next_side = TreeShape::side_at(self.pid, level + 1);
                    self.mode = Mode::Entering(MeEnter::new(next_side));
                } else {
                    self.advance_tree();
                }
                None
            }
        }
    }

    /// Moves to the next tree in the round-robin order after a failed
    /// check (purely local).
    fn advance_tree(&mut self) {
        self.cur = (self.cur + 1) % self.names.len();
        if self.cur == 0 {
            self.metrics.rounds += 1;
            self.metrics.min_round_advances = self
                .metrics
                .min_round_advances
                .min(self.metrics.advances_this_round);
            self.metrics.advances_this_round = 0;
        }
        self.mode = if self.progress[self.cur].entered_level() == 0 {
            Mode::Entering(MeEnter::new(TreeShape::side_at(self.pid, 1)))
        } else {
            Mode::Checking
        };
    }

    /// Declares the register the next [`step`](Self::step) on `shape`
    /// touches into `fp`; returns `true` iff that step may complete the
    /// `GetName`.
    pub fn footprint(&self, shape: &FilterShape, fp: &mut Footprint) -> bool {
        if self.acquired.is_some() {
            return true;
        }
        let tree = shape.tree(self.names[self.cur]);
        match &self.mode {
            Mode::Entering(op) => {
                let level = self.progress[self.cur].entered_level() + 1;
                op.footprint(&tree.block_for(self.pid, level), fp);
                false
            }
            Mode::Checking => {
                let level = self.progress[self.cur].entered_level();
                pf::check_footprint(
                    &tree.block_for(self.pid, level),
                    TreeShape::side_at(self.pid, level),
                    fp,
                );
                // Only winning a root check completes the GetName.
                level == tree.levels()
            }
        }
    }

    /// Progress metrics so far.
    pub fn metrics(&self) -> AcquireMetrics {
        self.metrics
    }

    /// Whether the next step is a check (the only acquire step that can
    /// *confirm* an ME block: a successful check promotes the entered
    /// level to confirmed-won, growing [`spec::FilterUser::won_blocks`]).
    /// Entry steps only push *entered* levels, which stay unconfirmed
    /// until checked, so they never change the won set.
    pub fn is_checking(&self) -> bool {
        matches!(self.mode, Mode::Checking)
    }

    /// The acquired name's index in the name set, once complete.
    pub fn acquired_index(&self) -> Option<usize> {
        self.acquired
    }

    /// The highest *confirmed-won* level in tree `i` (levels whose
    /// critical section this process currently holds): used by the
    /// model-checking invariants.
    pub fn confirmed_level(&self, i: usize) -> usize {
        let entered = self.progress[i].entered_level();
        if self.acquired == Some(i) {
            // The winning check was at the root, the tree's top entered
            // level: the whole path is held.
            return entered;
        }
        if self.cur == i && matches!(self.mode, Mode::Entering(_)) {
            // We are entering `entered + 1`, so `entered` itself was won
            // (or `entered = 0` and nothing is won yet).
            entered
        } else {
            entered.saturating_sub(1)
        }
    }

    /// The name set being competed for.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// Moves everything the matching [`FilterRelease`] needs out of a
    /// completed machine (no clone of the per-tree vectors), leaving it
    /// empty. The machine must not be stepped afterwards.
    fn take_position(&mut self) -> FilterPosition {
        let confirmed = (0..self.names.len())
            .map(|i| self.confirmed_level(i))
            .collect();
        FilterPosition {
            names: std::mem::take(&mut self.names),
            progress: std::mem::take(&mut self.progress),
            confirmed,
            acquired: self.acquired,
            metrics: self.metrics,
        }
    }

    /// Encodes machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.cur as u64);
        out.push(self.acquired.map_or(u64::MAX, |i| i as u64));
        match &self.mode {
            Mode::Entering(op) => {
                out.push(0);
                op.key(out);
            }
            Mode::Checking => out.push(1),
        }
        for p in &self.progress {
            p.key(out);
        }
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        let mode = match &self.mode {
            Mode::Entering(op) => op.describe(),
            Mode::Checking => format!(
                "Check@L{}",
                self.progress[self.cur].entered_level()
            ),
        };
        format!("Acquire[T{} {mode}]", self.names[self.cur])
    }
}

/// When a process lets go of the tournament positions it holds in the
/// trees it did **not** win.
///
/// The paper's Figure 4 keeps every entered position until `ReleaseName`
/// ("releasing all played mutual exclusion blocks"); eagerly releasing
/// the losers right after acquiring shortens the window in which a name
/// holder blocks other names' trees, at the price of re-entering those
/// trees from scratch next time. Experiment E9 measures the trade-off;
/// both policies are exhaustively model-checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// Figure 4 as written: all positions released at `ReleaseName`.
    #[default]
    AtReleaseName,
    /// Loser-tree positions released at the end of `GetName`; only the
    /// won tree is released at `ReleaseName`.
    EagerLosers,
}

/// A process's standing positions in all trees: produced by a completed
/// [`FilterAcquire`], consumed by [`FilterRelease`].
#[derive(Clone, Debug)]
pub struct FilterPosition {
    names: Vec<Name>,
    progress: Vec<TreeProgress>,
    confirmed: Vec<usize>,
    acquired: Option<usize>,
    /// How the `GetName` that produced this position went (diagnostic,
    /// never keyed: it does not influence future behaviour).
    metrics: AcquireMetrics,
}

impl FilterPosition {
    /// The acquired name, if any.
    pub fn name(&self) -> Option<Name> {
        self.acquired.map(|i| self.names[i])
    }

    /// Metrics of the `GetName` that produced this position.
    pub fn metrics(&self) -> AcquireMetrics {
        self.metrics
    }

    /// The names of this position (parallel to tree indices).
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The highest level whose critical section is held in tree `i`.
    pub fn confirmed_level(&self, i: usize) -> usize {
        self.confirmed[i].min(self.progress[i].entered_level())
    }

    /// Splits this position into (winner-tree-only, loser-trees-only)
    /// positions, for the [`ReleasePolicy::EagerLosers`] policy.
    ///
    /// # Panics
    ///
    /// Panics if no name was acquired.
    pub fn split_winner(self) -> (FilterPosition, FilterPosition) {
        let won = self.acquired.expect("split_winner on an empty position");
        let mut winner = self.clone();
        let mut losers = self;
        for i in 0..winner.names.len() {
            if i == won {
                losers.progress[i] = crate::tournament::TreeProgress::new();
                losers.confirmed[i] = 0;
            } else {
                winner.progress[i] = crate::tournament::TreeProgress::new();
                winner.confirmed[i] = 0;
            }
        }
        losers.acquired = None;
        (winner, losers)
    }

    /// ME blocks currently entered, as (name, level) pairs.
    pub fn entered_blocks(&self) -> Vec<(Name, usize)> {
        let mut out = Vec::new();
        for (i, p) in self.progress.iter().enumerate() {
            for level in 1..=p.entered_level() {
                out.push((self.names[i], level));
            }
        }
        out
    }
}

/// `ReleaseName` as a step machine: one register write (`nil`) per entered
/// ME block, top-down within each tree. Like [`FilterAcquire`], it
/// borrows the trees on every step.
#[derive(Clone, Debug)]
pub struct FilterRelease {
    pid: Pid,
    pos: FilterPosition,
    tree_idx: usize,
}

impl FilterRelease {
    /// Starts releasing all positions in `pos`.
    pub fn new(pid: Pid, pos: FilterPosition) -> Self {
        Self {
            pid,
            pos,
            tree_idx: 0,
        }
    }

    /// Executes one atomic statement on the instance `shape`; returns
    /// `true` when every entered block has been released.
    pub fn step<M: Memory + ?Sized>(&mut self, shape: &FilterShape, mem: &M) -> bool {
        // Find the next tree that still has entered levels.
        while self.tree_idx < self.pos.names.len() {
            let prog = &mut self.pos.progress[self.tree_idx];
            let level = prog.entered_level();
            if level == 0 {
                self.tree_idx += 1;
                continue;
            }
            let m = self.pos.names[self.tree_idx];
            let regs = shape.tree(m).block_for(self.pid, level);
            pf::release(&regs, TreeShape::side_at(self.pid, level), mem);
            prog.pop_released();
            self.pos.confirmed[self.tree_idx] =
                self.pos.confirmed[self.tree_idx].min(prog.entered_level());
            return prog.entered_level() == 0 && self.remaining_after(self.tree_idx) == 0;
        }
        true
    }

    fn remaining_after(&self, idx: usize) -> usize {
        self.pos.progress[idx + 1..]
            .iter()
            .map(TreeProgress::entered_level)
            .sum()
    }

    /// The highest level still *held-and-won* in tree `i` (shrinks as the
    /// release proceeds); used by the model-checking invariants.
    pub fn confirmed_level(&self, i: usize) -> usize {
        self.pos.confirmed[i].min(self.pos.progress[i].entered_level())
    }

    /// Declares the register the next [`step`](Self::step) on `shape`
    /// touches into `fp`; returns `true` iff that step may complete the
    /// `ReleaseName`.
    pub fn footprint(&self, shape: &FilterShape, fp: &mut Footprint) -> bool {
        let mut idx = self.tree_idx;
        while idx < self.pos.names.len() {
            let prog = &self.pos.progress[idx];
            let level = prog.entered_level();
            if level == 0 {
                idx += 1;
                continue;
            }
            let tree = shape.tree(self.pos.names[idx]);
            let regs = tree.block_for(self.pid, level);
            pf::release_footprint(&regs, TreeShape::side_at(self.pid, level), fp);
            return level == 1 && self.remaining_after(idx) == 0;
        }
        // Nothing entered: the next step completes without any access.
        true
    }

    /// Whether any tree still has entered levels — i.e. whether the next
    /// step pops a block (shrinking
    /// [`spec::FilterUser::won_blocks`]) rather than completing with no
    /// access.
    pub fn has_entered(&self) -> bool {
        self.pos.progress[self.tree_idx..]
            .iter()
            .any(|p| p.entered_level() > 0)
    }

    /// Adds every register the rest of this `ReleaseName` on `shape` may
    /// touch — the process's own side of each still-entered block — to
    /// `fp`'s future sets.
    pub fn future_footprint(&self, shape: &FilterShape, fp: &mut Footprint) {
        for idx in self.tree_idx..self.pos.names.len() {
            let tree = shape.tree(self.pos.names[idx]);
            for level in 1..=self.pos.progress[idx].entered_level() {
                let regs = tree.block_for(self.pid, level);
                fp.future_write(regs.r[TreeShape::side_at(self.pid, level)]);
            }
        }
    }

    /// The names of this position (parallel to tree indices).
    pub fn names(&self) -> &[Name] {
        &self.pos.names
    }

    /// Encodes machine state for model-checker keys.
    pub fn key(&self, out: &mut Vec<Word>) {
        out.push(self.tree_idx as u64);
        for p in &self.pos.progress {
            p.key(out);
        }
    }

    /// Short state description for traces.
    pub fn describe(&self) -> String {
        format!("Release[tree #{}]", self.tree_idx)
    }
}

/// The FILTER long-lived renaming object.
#[derive(Debug)]
pub struct Filter {
    shape: FilterShape,
    mem: AtomicMemory,
    policy: ReleasePolicy,
}

impl Filter {
    /// Builds a FILTER instance for validated `params` and the given
    /// participant set, with the paper's release policy.
    ///
    /// # Errors
    ///
    /// See [`FilterError`].
    pub fn new(params: FilterParams, participants: &[Pid]) -> Result<Self, FilterError> {
        Self::with_policy(params, participants, ReleasePolicy::AtReleaseName)
    }

    /// Builds a FILTER instance with an explicit [`ReleasePolicy`].
    ///
    /// # Errors
    ///
    /// See [`FilterError`].
    pub fn with_policy(
        params: FilterParams,
        participants: &[Pid],
        policy: ReleasePolicy,
    ) -> Result<Self, FilterError> {
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, participants, &mut layout)?;
        Ok(Self {
            shape,
            mem: AtomicMemory::new(&layout),
            policy,
        })
    }

    /// The configured release policy.
    pub fn policy(&self) -> ReleasePolicy {
        self.policy
    }

    /// The shape (for custom drivers and model checking).
    pub fn shape(&self) -> &FilterShape {
        &self.shape
    }
}

impl Renaming for Filter {
    type Handle<'a> = FilterHandle<'a>;

    fn handle(&self, pid: Pid) -> FilterHandle<'_> {
        assert!(
            self.shape.is_registered(pid),
            "pid {pid} was not registered with this FILTER instance"
        );
        Handle::new(FilterCore::new(self.shape.clone(), pid, self.policy), &self.mem)
    }

    fn source_size(&self) -> u64 {
        self.shape.params.source_size()
    }

    fn dest_size(&self) -> u64 {
        self.shape.params.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.shape.params.concurrency()
    }
}

/// FILTER's [`ProtocolCore`]: the shape, one pid, and the release policy
/// (which decides whether acquire completion routes through the
/// eager-loser prologue). The core owns the shape and lends it to each
/// step, so no step clones a tree.
#[derive(Clone, Debug)]
pub struct FilterCore {
    shape: FilterShape,
    pid: Pid,
    policy: ReleasePolicy,
    observe_blocks: bool,
}

impl FilterCore {
    /// A core for registered process `pid` under `policy`.
    pub fn new(shape: FilterShape, pid: Pid, policy: ReleasePolicy) -> Self {
        Self {
            shape,
            pid,
            policy,
            observe_blocks: false,
        }
    }

    /// Promotes the set of *confirmed-won ME blocks*
    /// ([`spec::FilterUser::won_blocks`]) into the partial-order
    /// reduction's visibility contract: every step that can change it — a
    /// check (which may confirm a block) or a releasing pop — is declared
    /// visible, so block-level invariants like
    /// [`spec::block_exclusion_invariant`] stay sound under
    /// `Engine::Reduced`. Off by default: the extra visible steps shrink
    /// the reduction, so name-only invariants should leave this off
    /// (and keep the seed's reduced state counts).
    pub fn observe_blocks(mut self, on: bool) -> Self {
        self.observe_blocks = on;
        self
    }

    /// The FILTER shape.
    pub fn shape(&self) -> &FilterShape {
        &self.shape
    }

    /// The configured release policy.
    pub fn policy(&self) -> ReleasePolicy {
        self.policy
    }
}

impl ProtocolCore for FilterCore {
    type Acquire = FilterAcquire;
    type Token = FilterPosition;
    type Release = FilterRelease;

    // GetName's first shared access (an ME-entry write) happens in the
    // same scheduled step that leaves Idle.
    const LAZY_START: bool = false;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> FilterAcquire {
        FilterAcquire::new(&self.shape, self.pid)
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut FilterAcquire,
        mem: &M,
    ) -> Option<FilterPosition> {
        // The completed machine is discarded by every caller, so its
        // vectors move into the token; the metrics travel with it.
        a.step(&self.shape, mem).map(|_| a.take_position())
    }

    fn prologue(&self, token: &mut FilterPosition) -> Option<FilterRelease> {
        match self.policy {
            ReleasePolicy::AtReleaseName => None,
            ReleasePolicy::EagerLosers => {
                let (winner, losers) = token.clone().split_winner();
                *token = winner;
                Some(FilterRelease::new(self.pid, losers))
            }
        }
    }

    fn begin_release(&self, pos: FilterPosition) -> FilterRelease {
        FilterRelease::new(self.pid, pos)
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut FilterRelease, mem: &M) -> bool {
        r.step(&self.shape, mem)
    }

    fn acquire_footprint(&self, a: &FilterAcquire, fp: &mut Footprint) -> bool {
        let may_complete = a.footprint(&self.shape, fp);
        // A check may succeed and confirm an ME block, changing
        // `won_blocks`; entry steps only push unconfirmed levels.
        if self.observe_blocks && a.is_checking() {
            fp.set_visible();
        }
        may_complete
    }

    fn release_footprint(&self, r: &FilterRelease, fp: &mut Footprint) -> bool {
        let may_complete = r.footprint(&self.shape, fp);
        // Every pop removes a block from `won_blocks`; a release with
        // nothing entered completes without touching the won set.
        if self.observe_blocks && r.has_entered() {
            fp.set_visible();
        }
        may_complete
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // The union of the pid's root paths in every tree of its name set;
        // exact, so processes with disjoint name sets never conflict.
        for m in self.shape.params.name_sets().name_set(self.pid) {
            self.shape.tree(m).path_future_footprint(self.pid, fp);
        }
    }

    fn release_future_footprint(&self, r: &FilterRelease, fp: &mut Footprint) {
        r.future_footprint(&self.shape, fp);
    }

    fn token_name(&self, pos: &FilterPosition) -> Option<Name> {
        pos.name()
    }

    fn dest_size(&self) -> u64 {
        self.shape.params.dest_size()
    }

    fn key_acquire(&self, a: &FilterAcquire, out: &mut Vec<Word>) {
        a.key(out);
    }

    fn key_token(&self, pos: &FilterPosition, out: &mut Vec<Word>) {
        out.push(pos.name().map_or(u64::MAX, |n| n));
        for i in 0..pos.names().len() {
            out.push(pos.confirmed_level(i) as u64);
            pos.progress[i].key(out);
        }
    }

    fn key_release(&self, r: &FilterRelease, out: &mut Vec<Word>) {
        r.key(out);
    }

    // Historical coarser encoding of the eager-loser phase: the loser
    // release's full state plus just the winner's name (the winner's
    // positions are untouched while the losers drain).
    fn key_prologue(&self, rel: &FilterRelease, token: &FilterPosition, out: &mut Vec<Word>) {
        rel.key(out);
        out.push(token.name().map_or(u64::MAX, |n| n));
    }

    fn describe_acquire(&self, a: &FilterAcquire) -> String {
        a.describe()
    }

    fn describe_release(&self, r: &FilterRelease) -> String {
        r.describe()
    }
}

/// Process handle on a [`Filter`] object: the generic session handle over
/// [`FilterCore`].
pub type FilterHandle<'a> = Handle<'a, FilterCore>;

impl FilterHandle<'_> {
    /// Metrics (checks/enters/rounds) of the acquire that produced the
    /// held name; `None` while no name is held.
    pub fn last_metrics(&self) -> Option<AcquireMetrics> {
        self.held_token().map(FilterPosition::metrics)
    }
}

pub mod spec {
    //! Model-checkable specification of FILTER: name uniqueness and
    //! block-level mutual exclusion (Lemma 6) under every interleaving.

    use super::*;
    use crate::session::SessionPhase;
    use llr_mc::{CheckStats, ModelChecker, Violation, World};

    /// A process performing `sessions` × (`GetName`; dwell; `ReleaseName`):
    /// the generic session machine over [`FilterCore`] (the eager-loser
    /// release runs in the session's Prologue phase).
    pub type FilterUser = Session<FilterCore>;

    impl FilterUser {
        /// A user of the FILTER instance described by `shape`.
        pub fn new(shape: FilterShape, pid: Pid, sessions: u8) -> Self {
            Self::with_policy(shape, pid, sessions, ReleasePolicy::AtReleaseName)
        }

        /// A user with an explicit [`ReleasePolicy`].
        pub fn with_policy(
            shape: FilterShape,
            pid: Pid,
            sessions: u8,
            policy: ReleasePolicy,
        ) -> Self {
            Session::start(FilterCore::new(shape, pid, policy), sessions)
        }

        /// All ME critical sections currently held, as
        /// `(name, level, block_index)` triples — the resource Lemma 6
        /// says no two processes share.
        pub fn won_blocks(&self) -> Vec<(Name, usize, u64)> {
            let pid = self.core().pid;
            let collect = |names: &[Name], conf: &dyn Fn(usize) -> usize| {
                let mut out = Vec::new();
                for (i, &m) in names.iter().enumerate() {
                    for level in 1..=conf(i) {
                        out.push((m, level, TreeShape::block_index(pid, level)));
                    }
                }
                out
            };
            match self.phase() {
                SessionPhase::Idle => Vec::new(),
                SessionPhase::Acquiring(a) => collect(a.names(), &|i| a.confirmed_level(i)),
                SessionPhase::Prologue { rel, token } => {
                    let mut out = collect(rel.names(), &|i| rel.confirmed_level(i));
                    out.extend(collect(token.names(), &|i| token.confirmed_level(i)));
                    out
                }
                SessionPhase::Holding(pos) => collect(pos.names(), &|i| pos.confirmed_level(i)),
                SessionPhase::Releasing(r) => collect(r.names(), &|i| r.confirmed_level(i)),
                // A crashed process holds no critical section *as far as
                // liveness goes* — its torn marks may still block others,
                // which is exactly what the crash tests observe.
                SessionPhase::Crashed => Vec::new(),
            }
        }
    }

    /// Concurrently held names are pairwise distinct and inside `[0, D)`.
    pub fn unique_names_invariant(world: &World<'_, FilterUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Lemma 6, globally: no ME critical section is held by two processes.
    pub fn block_exclusion_invariant(world: &World<'_, FilterUser>) -> Result<(), String> {
        let mut owner: HashMap<(Name, usize, u64), usize> = HashMap::new();
        for (i, m) in world.machines.iter().enumerate() {
            for block in m.won_blocks() {
                if let Some(j) = owner.insert(block, i) {
                    return Err(format!(
                        "machines {j} and {i} both hold ME block {block:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Exhaustively checks both invariants for the given instance under
    /// an explicit release policy.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if either invariant fails.
    pub fn check_filter_with_policy(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
        policy: ReleasePolicy,
    ) -> Result<CheckStats, Box<Violation>> {
        crate::session::run_check(
            checker_with_policy(params, participants, sessions, policy),
            &crate::session::Engine::Sequential,
            combined_invariant,
        )
    }

    /// Both FILTER invariants in one closure-compatible function:
    /// name uniqueness, then global block exclusion.
    pub fn combined_invariant(w: &World<'_, FilterUser>) -> Result<(), String> {
        unique_names_invariant(w)?;
        block_exclusion_invariant(w)
    }

    /// Builds the model checker for the given instance under an explicit
    /// release policy (shared by the exhaustive checks and the E2
    /// driver).
    pub fn checker_with_policy(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
        policy: ReleasePolicy,
    ) -> ModelChecker<FilterUser> {
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, participants, &mut layout)
            .expect("valid participants");
        let machines: Vec<FilterUser> = participants
            .iter()
            .map(|&p| FilterUser::with_policy(shape.clone(), p, sessions, policy))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Builds the model checker with [`FilterCore::observe_blocks`]
    /// enabled, so the block-level invariants
    /// ([`block_exclusion_invariant`], [`combined_invariant`]) are sound
    /// under `Engine::Reduced`: every step that can change a machine's
    /// confirmed-won block set is declared visible to the reduction.
    /// The full (unreduced) state graph is identical to [`checker`]'s —
    /// the flag only affects footprints, not stepping or keys.
    pub fn blocks_observable_checker(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
    ) -> ModelChecker<FilterUser> {
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, participants, &mut layout)
            .expect("valid participants");
        let machines: Vec<FilterUser> = participants
            .iter()
            .map(|&p| {
                Session::start(
                    FilterCore::new(shape.clone(), p, ReleasePolicy::default())
                        .observe_blocks(true),
                    sessions,
                )
            })
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Builds the model checker for the given instance under the paper's
    /// Figure-4 release policy.
    pub fn checker(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
    ) -> ModelChecker<FilterUser> {
        checker_with_policy(params, participants, sessions, ReleasePolicy::default())
    }

    /// Exhaustively checks both invariants for the given instance.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if either invariant fails.
    pub fn check_filter(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
    ) -> Result<CheckStats, Box<Violation>> {
        crate::session::run_check(
            checker(params, participants, sessions),
            &crate::session::Engine::Sequential,
            combined_invariant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_cycles_keep_refcount, sequential_cycle};
    use crate::traits::RenamingHandle;
    use llr_mem::Counting;

    /// The smallest interesting instance: k=2, d=1, z=2, S=4.
    fn tiny_params() -> FilterParams {
        FilterParams::new(2, 4, 1, 2).unwrap()
    }

    #[test]
    fn cycles_never_touch_the_shape_refcount() {
        for policy in [ReleasePolicy::AtReleaseName, ReleasePolicy::EagerLosers] {
            let f = Filter::with_policy(tiny_params(), &[1, 2], policy).unwrap();
            assert_cycles_keep_refcount(&f, 1, || {
                (
                    Arc::strong_count(&f.shape.trees),
                    Arc::strong_count(&f.shape.participants),
                )
            });
        }
    }

    #[test]
    fn shape_allocates_shared_trees_once() {
        let mut layout = Layout::new();
        // N_1 = {1, 3}, N_2 = {0, 3}: three distinct trees.
        let shape = FilterShape::build(tiny_params(), &[1, 2], &mut layout).unwrap();
        assert_eq!(shape.params().dest_size(), 4);
        assert!(shape.tree(3).allocated_blocks() >= 2);
        assert!(shape.is_registered(1));
        assert!(!shape.is_registered(0));
    }

    #[test]
    fn registration_errors() {
        assert_eq!(
            Filter::new(tiny_params(), &[4]).unwrap_err(),
            FilterError::PidOutOfRange { pid: 4, s: 4 }
        );
        assert_eq!(
            Filter::new(tiny_params(), &[1, 1]).unwrap_err(),
            FilterError::DuplicatePid { pid: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "was not registered")]
    fn unregistered_handle_panics() {
        let f = Filter::new(tiny_params(), &[1, 2]).unwrap();
        let _ = f.handle(0);
    }

    #[test]
    fn solo_acquire_gets_first_name_cheaply() {
        let f = Filter::new(tiny_params(), &[1, 2]).unwrap();
        let sets = tiny_params().name_sets();
        let mut h = f.handle(1);
        let name = h.acquire();
        assert_eq!(name, sets.name(1, 0), "uncontended: the x = 0 name");
        assert!(
            h.accesses() <= tiny_params().getname_access_bound(),
            "{} accesses exceed Theorem 10's bound {}",
            h.accesses(),
            tiny_params().getname_access_bound()
        );
        h.release();
    }

    #[test]
    fn sequential_cycles_stay_in_range() {
        let params = FilterParams::two_k_four(3).unwrap();
        let pids: Vec<Pid> = vec![0, 17, 99, 150, params.source_size() - 1];
        let f = Filter::new(params, &pids).unwrap();
        let (names, max_acc) = sequential_cycle(&f, &pids);
        assert_eq!(names.len(), 5);
        assert!(max_acc <= params.getname_access_bound() + params.release_access_bound());
    }

    #[test]
    fn release_clears_all_registers() {
        let f = Filter::new(tiny_params(), &[1, 2]).unwrap();
        let mut h1 = f.handle(1);
        let mut h2 = f.handle(2);
        let n1 = h1.acquire();
        let n2 = h2.acquire();
        assert_ne!(n1, n2);
        h1.release();
        h2.release();
        // After quiescence every ME register must be nil again.
        for w in f.mem.snapshot() {
            assert_eq!(w, crate::types::enc::NIL);
        }
    }

    #[test]
    fn contenders_get_distinct_names_repeatedly() {
        let params = tiny_params();
        let f = Filter::new(params, &[1, 2]).unwrap();
        let mut h1 = f.handle(1);
        let mut h2 = f.handle(2);
        for _ in 0..20 {
            let n1 = h1.acquire();
            let n2 = h2.acquire();
            assert_ne!(n1, n2);
            h1.release();
            h2.release();
        }
    }

    #[test]
    fn metrics_reported() {
        let f = Filter::new(tiny_params(), &[1, 2]).unwrap();
        let mut h = f.handle(1);
        assert!(h.last_metrics().is_none());
        h.acquire();
        let m = h.last_metrics().unwrap();
        assert!(m.checks >= 1);
        assert!(m.enters >= 1);
        h.release();
    }

    #[test]
    fn exhaustive_always_terminable() {
        // Wait-freedom at the state-graph level: even from states where a
        // process is blocked in its shared tree, some schedule finishes.
        let mut layout = Layout::new();
        let shape =
            FilterShape::build(tiny_params(), &[1, 3], &mut layout).unwrap();
        let machines: Vec<spec::FilterUser> = [1u64, 3]
            .iter()
            .map(|&p| spec::FilterUser::new(shape.clone(), p, 2))
            .collect();
        let stats = llr_mc::ModelChecker::new(layout, machines)
            .check_always_terminable()
            .expect("FILTER is wait-free: no trap states");
        assert!(stats.terminal_states >= 1);
    }

    #[test]
    fn exhaustive_tiny_instance_one_session() {
        let stats = spec::check_filter(tiny_params(), &[1, 2], 1).unwrap();
        assert!(stats.states > 100, "got {}", stats.states);
    }

    #[test]
    fn exhaustive_tiny_instance_two_sessions() {
        // pids 1 and 2 share only their x = 1 tree: mostly independent.
        let stats = spec::check_filter(tiny_params(), &[1, 2], 2).unwrap();
        assert!(stats.states > 300, "got {}", stats.states);
    }

    #[test]
    fn eager_release_solo_and_contended() {
        let f = Filter::with_policy(tiny_params(), &[1, 3], ReleasePolicy::EagerLosers)
            .unwrap();
        assert_eq!(f.policy(), ReleasePolicy::EagerLosers);
        let mut h1 = f.handle(1);
        let mut h3 = f.handle(3);
        for _ in 0..10 {
            let n1 = h1.acquire();
            let n3 = h3.acquire();
            assert_ne!(n1, n3);
            h1.release();
            h3.release();
        }
        // After quiescence every ME register is nil under either policy.
        for w in f.mem.snapshot() {
            assert_eq!(w, crate::types::enc::NIL);
        }
    }

    #[test]
    fn exhaustive_eager_release_policy() {
        // The contended pair under the eager policy: all interleavings.
        let stats = spec::check_filter_with_policy(
            tiny_params(),
            &[1, 3],
            2,
            ReleasePolicy::EagerLosers,
        )
        .unwrap();
        assert!(stats.states > 500, "got {}", stats.states);
    }

    #[test]
    fn split_winner_partitions_positions() {
        let f = Filter::new(tiny_params(), &[1, 3]).unwrap();
        let mem = Counting::new(&f.mem);
        let mut m = FilterAcquire::new(&f.shape, 1);
        while m.step(&f.shape, &mem).is_none() {}
        let pos = m.take_position();
        let total_blocks = pos.entered_blocks().len();
        let name = pos.name().unwrap();
        let (winner, losers) = pos.split_winner();
        assert_eq!(winner.name(), Some(name));
        assert_eq!(losers.name(), None);
        assert_eq!(
            winner.entered_blocks().len() + losers.entered_blocks().len(),
            total_blocks
        );
        for (m_, _) in winner.entered_blocks() {
            assert_eq!(m_, name);
        }
    }

    #[test]
    fn exhaustive_contended_first_tree() {
        // pids 1 and 3 share their x = 0 tree (both have n_p(0) = 1), so
        // every session starts with a head-on collision: one must lose a
        // check, switch trees, and win elsewhere.
        let stats = spec::check_filter(tiny_params(), &[1, 3], 2).unwrap();
        assert!(stats.states > 1_000, "got {}", stats.states);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_other_pid_pairs() {
        // Pairs sharing a different tree, and the degenerate all-shared
        // case of N_0 ∩ N_3 = {2}.
        for pair in [[1u64, 3], [0, 3], [0, 2]] {
            spec::check_filter(tiny_params(), &pair, 2).unwrap();
        }
    }
}
