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

use crate::chain::Composable;
use crate::pf::{self, MeEnter, MeRegs, Side};
use crate::session::{Handle, ProtocolCore, Session};
use crate::tournament::{TreeProgress, TreeShape};
use crate::traits::Renaming;
use crate::types::{Name, Pid};
use llr_gf::FilterParams;
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Layout, Memory, Word};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// The static shape of a FILTER instance: parameters, the sparse per-name
/// tournament trees, and one *plan* per registered pid — its name set,
/// its block at every (tree, level) pair and its lifetime footprint,
/// each derived once (the footprint on first use) so that no step,
/// footprint or key derives them again. Cheap to clone (one reference
/// count); owned by the [`FilterCore`] and lent to the machines on every
/// step.
#[derive(Clone, Debug)]
pub struct FilterShape {
    inner: Arc<ShapeInner>,
}

#[derive(Debug)]
struct ShapeInner {
    params: FilterParams,
    trees: HashMap<Name, TreeShape>,
    /// Registered pid → index into `plans`, consulted only when a core or
    /// machine is created for a pid.
    plan_index: HashMap<Pid, usize>,
    plans: Vec<ProcessPlan>,
    dest_size: u64,
    max_checks: u64,
}

/// Everything one registered process can touch, fixed when the shape is
/// built: its name set `N_p`, its block at every (tree, level) pair and
/// its lifetime footprint. Cores and machines carry the plan's index, so
/// no step, footprint or key hashes a map or evaluates a polynomial over
/// GF(z).
#[derive(Debug)]
struct ProcessPlan {
    pid: Pid,
    /// `N_p` in `x` order; a machine's tree index `i` is `names[i]`.
    names: Vec<Name>,
    /// Tree depth `⌈log₂ S⌉`, the same for every tree.
    levels: usize,
    /// `blocks[i * levels + level - 1]`: the block of tree `names[i]` at
    /// `level` on this process's root path.
    blocks: Vec<MeRegs>,
    /// The lifetime footprint: this side of every block on every root
    /// path. Built on first use from `blocks`: its bitsets span the whole
    /// layout, which for a large registration (Theorem 11's first FILTER
    /// stage at `k = 8`: 2187 pids over 1.28M registers) would cost
    /// hundreds of megabytes that an instance serving threads never uses.
    lifetime: OnceLock<Footprint>,
}

impl ProcessPlan {
    /// The block of tree `i` at `level`.
    fn block(&self, i: usize, level: usize) -> MeRegs {
        self.blocks[i * self.levels + level - 1]
    }

    /// The side from which this process enters its blocks at `level`.
    fn side(&self, level: usize) -> Side {
        TreeShape::side_at(self.pid, level)
    }

    /// The union of [`TreeShape::path_future_footprint`] over every tree
    /// of the name set.
    fn lifetime(&self) -> &Footprint {
        self.lifetime.get_or_init(|| {
            let mut fp = Footprint::new();
            for (j, regs) in self.blocks.iter().enumerate() {
                pf::side_future_footprint(regs, self.side(j % self.levels + 1), &mut fp);
            }
            fp
        })
    }
}

impl FilterShape {
    /// Allocates all tournament trees touched by `participants` in
    /// `layout`, and builds each participant's plan.
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
        let mut plan_index = HashMap::new();
        let mut name_sets = Vec::with_capacity(participants.len());
        // Name → the indices of the participants competing for it.
        let mut per_tree: HashMap<Name, Vec<usize>> = HashMap::new();
        for (i, &p) in participants.iter().enumerate() {
            if p >= s {
                return Err(FilterError::PidOutOfRange { pid: p, s });
            }
            if plan_index.insert(p, i).is_some() {
                return Err(FilterError::DuplicatePid { pid: p });
            }
            let names = sets.name_set(p);
            for &m in &names {
                per_tree.entry(m).or_default().push(i);
            }
            name_sets.push(names);
        }
        let levels = TreeShape::levels_for(s);
        let mut blocks: Vec<Vec<MeRegs>> = name_sets
            .iter()
            .map(|names| Vec::with_capacity(names.len() * levels))
            .collect();
        let mut trees = HashMap::new();
        let mut tree_names: Vec<Name> = per_tree.keys().copied().collect();
        tree_names.sort_unstable(); // deterministic layout order
        let mut paths = Vec::new();
        for m in tree_names {
            let members = &per_tree[&m];
            let pids: Vec<Pid> = members.iter().map(|&i| participants[i]).collect();
            paths.clear();
            let tree = TreeShape::build_with_paths(layout, &format!("T{m}"), s, &pids, &mut paths);
            trees.insert(m, tree);
            // n_p(x) = z·x + Q_p(x) lies in stripe [zx, zx + z), so N_p
            // ascends with x: visiting trees in ascending name order
            // appends each plan's paths in x order.
            for (&i, path) in members.iter().zip(paths.chunks_exact(levels)) {
                blocks[i].extend_from_slice(path);
            }
        }
        let plans = participants
            .iter()
            .zip(name_sets)
            .zip(blocks)
            .map(|((&pid, names), blocks)| ProcessPlan {
                pid,
                names,
                levels,
                blocks,
                lifetime: OnceLock::new(),
            })
            .collect();
        Ok(Self {
            inner: Arc::new(ShapeInner {
                params,
                trees,
                plan_index,
                plans,
                dest_size: params.dest_size(),
                max_checks: params.max_checks(),
            }),
        })
    }

    /// The validated parameters.
    pub fn params(&self) -> FilterParams {
        self.inner.params
    }

    /// Destination name-space size `D = 2zd(k-1)`, computed once at build.
    fn dest_size(&self) -> u64 {
        self.inner.dest_size
    }

    /// The tournament tree of name `m`.
    ///
    /// # Panics
    ///
    /// Panics if no registered participant competes for `m`.
    pub fn tree(&self, m: Name) -> &TreeShape {
        self.inner
            .trees
            .get(&m)
            .unwrap_or_else(|| panic!("no registered participant competes for name {m}"))
    }

    /// Whether `pid` was registered.
    pub fn is_registered(&self, pid: Pid) -> bool {
        self.inner.plan_index.contains_key(&pid)
    }

    /// Holders of the shape (its `Arc` strong count).
    #[cfg(test)]
    pub(crate) fn strong_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Total ME blocks allocated across all trees.
    pub fn allocated_blocks(&self) -> usize {
        self.inner
            .trees
            .values()
            .map(TreeShape::allocated_blocks)
            .sum()
    }

    /// The plan index of registered process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not registered when the shape was built.
    fn plan_index(&self, pid: Pid) -> usize {
        *self
            .inner
            .plan_index
            .get(&pid)
            .unwrap_or_else(|| panic!("pid {pid} was not registered with this FILTER instance"))
    }

    fn plan(&self, i: usize) -> &ProcessPlan {
        &self.inner.plans[i]
    }

    /// Wait-freedom tripwire: a generous multiple of Theorem 10's bound
    /// on checks per `GetName`.
    fn check_budget(&self) -> u64 {
        50 * self.inner.max_checks + 1_000
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
/// Holds only the operation's locals — its plan index and its progress in
/// each tree; the shape (and with it the name set and the blocks) is lent
/// by the caller on every [`step`](Self::step).
#[derive(Clone, Debug)]
pub struct FilterAcquire {
    plan: usize,
    progress: Vec<TreeProgress>,
    cur: usize,
    mode: Mode,
    acquired: Option<usize>,
    metrics: AcquireMetrics,
}

impl FilterAcquire {
    /// Starts a `GetName` for registered process `pid` on the instance
    /// `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not registered when the shape was built.
    pub fn new(shape: &FilterShape, pid: Pid) -> Self {
        Self::for_plan(shape, shape.plan_index(pid))
    }

    fn for_plan(shape: &FilterShape, plan: usize) -> Self {
        let p = shape.plan(plan);
        Self {
            plan,
            progress: vec![TreeProgress::new(); p.names.len()],
            cur: 0,
            mode: Mode::Entering(MeEnter::new(p.side(1))),
            acquired: None,
            metrics: AcquireMetrics::new(),
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
        let plan = shape.plan(self.plan);
        if let Some(i) = self.acquired {
            return Some(plan.names[i]);
        }
        let cur = self.cur;
        match &mut self.mode {
            Mode::Entering(op) => {
                let level = self.progress[cur].entered_level() + 1;
                if let Some(own) = op.step(&plan.block(cur, level), mem) {
                    self.progress[cur].push_entered(own);
                    self.metrics.enters += 1;
                    self.mode = Mode::Checking;
                }
                None
            }
            Mode::Checking => {
                let level = self.progress[cur].entered_level();
                let own = self.progress[cur].own_at(level);
                self.metrics.checks += 1;
                assert!(
                    self.metrics.checks <= shape.check_budget(),
                    "wait-freedom tripwire: {} checks exceed 50× Theorem 10's bound \
                     ({}); is the concurrency bound k = {} being violated?",
                    self.metrics.checks,
                    shape.inner.max_checks,
                    shape.inner.params.concurrency()
                );
                if pf::check(&plan.block(cur, level), plan.side(level), own, mem) {
                    self.metrics.advances_this_round += 1;
                    if level == plan.levels {
                        // Root critical section won: name acquired.
                        self.acquired = Some(cur);
                        return Some(plan.names[cur]);
                    }
                    self.mode = Mode::Entering(MeEnter::new(plan.side(level + 1)));
                } else {
                    self.advance_tree(plan);
                }
                None
            }
        }
    }

    /// Moves to the next tree in the round-robin order after a failed
    /// check (purely local).
    fn advance_tree(&mut self, plan: &ProcessPlan) {
        self.cur = (self.cur + 1) % self.progress.len();
        if self.cur == 0 {
            self.metrics.rounds += 1;
            self.metrics.min_round_advances = self
                .metrics
                .min_round_advances
                .min(self.metrics.advances_this_round);
            self.metrics.advances_this_round = 0;
        }
        self.mode = if self.progress[self.cur].entered_level() == 0 {
            Mode::Entering(MeEnter::new(plan.side(1)))
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
        let plan = shape.plan(self.plan);
        match &self.mode {
            Mode::Entering(op) => {
                let level = self.progress[self.cur].entered_level() + 1;
                op.footprint(&plan.block(self.cur, level), fp);
                false
            }
            Mode::Checking => {
                let level = self.progress[self.cur].entered_level();
                pf::check_footprint(&plan.block(self.cur, level), plan.side(level), fp);
                // Only winning a root check completes the GetName.
                level == plan.levels
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

    /// Moves everything the matching [`FilterRelease`] needs out of a
    /// completed machine (no clone of the per-tree vector), leaving it
    /// empty. The machine must not be stepped afterwards.
    fn take_position(&mut self, shape: &FilterShape) -> FilterPosition {
        let names = &shape.plan(self.plan).names;
        FilterPosition {
            plan: self.plan,
            progress: std::mem::take(&mut self.progress),
            acquired: self.acquired.map(|i| (i, names[i])),
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
    pub fn describe(&self, shape: &FilterShape) -> String {
        let mode = match &self.mode {
            Mode::Entering(op) => op.describe(),
            Mode::Checking => format!("Check@L{}", self.progress[self.cur].entered_level()),
        };
        format!("Acquire[T{} {mode}]", shape.plan(self.plan).names[self.cur])
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
/// [`FilterAcquire`], consumed by [`FilterRelease`]. Its only heap
/// storage is the per-tree progress vector.
#[derive(Clone, Debug)]
pub struct FilterPosition {
    plan: usize,
    progress: Vec<TreeProgress>,
    /// The won tree's index and name.
    acquired: Option<(usize, Name)>,
    /// How the `GetName` that produced this position went (diagnostic,
    /// never keyed: it does not influence future behaviour).
    metrics: AcquireMetrics,
}

impl FilterPosition {
    /// The acquired name, if any.
    pub fn name(&self) -> Option<Name> {
        self.acquired.map(|(_, name)| name)
    }

    /// Metrics of the `GetName` that produced this position.
    pub fn metrics(&self) -> AcquireMetrics {
        self.metrics
    }

    /// The highest level whose critical section is held in tree `i`: the
    /// whole entered path in the won tree, and every entered level but
    /// the unconfirmed top one elsewhere (a `GetName` leaves a tree only
    /// after a failed check).
    pub fn confirmed_level(&self, i: usize) -> usize {
        let entered = self.progress[i].entered_level();
        match self.acquired {
            Some((won, _)) if won == i => entered,
            _ => entered.saturating_sub(1),
        }
    }

    /// Splits this position into (winner-tree-only, loser-trees-only)
    /// positions, for the [`ReleasePolicy::EagerLosers`] policy.
    ///
    /// # Panics
    ///
    /// Panics if no name was acquired.
    pub fn split_winner(self) -> (FilterPosition, FilterPosition) {
        let (won, _) = self.acquired.expect("split_winner on an empty position");
        let mut winner = self.clone();
        let mut losers = self;
        for i in 0..winner.progress.len() {
            if i == won {
                losers.progress[i].reset();
            } else {
                winner.progress[i].reset();
            }
        }
        losers.acquired = None;
        (winner, losers)
    }

    /// ME blocks currently entered on the instance `shape`, as
    /// (name, level) pairs.
    pub fn entered_blocks(&self, shape: &FilterShape) -> Vec<(Name, usize)> {
        let names = &shape.plan(self.plan).names;
        let mut out = Vec::new();
        for (i, p) in self.progress.iter().enumerate() {
            for level in 1..=p.entered_level() {
                out.push((names[i], level));
            }
        }
        out
    }
}

/// `ReleaseName` as a step machine: one register write (`nil`) per entered
/// ME block, top-down within each tree. Like [`FilterAcquire`], it
/// borrows the shape on every step.
#[derive(Clone, Debug)]
pub struct FilterRelease {
    pos: FilterPosition,
    tree_idx: usize,
    /// Whether a level of tree `tree_idx` has been released yet (never
    /// keyed: it only decides [`confirmed_level`](Self::confirmed_level)).
    popped: bool,
}

impl FilterRelease {
    /// Starts releasing all positions in `pos`.
    pub fn new(pos: FilterPosition) -> Self {
        Self {
            pos,
            tree_idx: 0,
            popped: false,
        }
    }

    /// Executes one atomic statement on the instance `shape`; returns
    /// `true` when every entered block has been released.
    pub fn step<M: Memory + ?Sized>(&mut self, shape: &FilterShape, mem: &M) -> bool {
        let plan = shape.plan(self.pos.plan);
        // Find the next tree that still has entered levels.
        while self.tree_idx < self.pos.progress.len() {
            let prog = &mut self.pos.progress[self.tree_idx];
            let level = prog.entered_level();
            if level == 0 {
                self.tree_idx += 1;
                continue;
            }
            pf::release(&plan.block(self.tree_idx, level), plan.side(level), mem);
            prog.pop_released();
            self.popped = true;
            return level == 1 && self.remaining_after(self.tree_idx) == 0;
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
    /// release proceeds); used by the model-checking invariants. Once a
    /// tree has released a level, every level it still holds is won.
    pub fn confirmed_level(&self, i: usize) -> usize {
        if i < self.tree_idx || (i == self.tree_idx && self.popped) {
            self.pos.progress[i].entered_level()
        } else {
            self.pos.confirmed_level(i)
        }
    }

    /// Declares the register the next [`step`](Self::step) on `shape`
    /// touches into `fp`; returns `true` iff that step may complete the
    /// `ReleaseName`.
    pub fn footprint(&self, shape: &FilterShape, fp: &mut Footprint) -> bool {
        let plan = shape.plan(self.pos.plan);
        for idx in self.tree_idx..self.pos.progress.len() {
            let level = self.pos.progress[idx].entered_level();
            if level > 0 {
                pf::release_footprint(&plan.block(idx, level), plan.side(level), fp);
                return level == 1 && self.remaining_after(idx) == 0;
            }
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
        let plan = shape.plan(self.pos.plan);
        for idx in self.tree_idx..self.pos.progress.len() {
            for level in 1..=self.pos.progress[idx].entered_level() {
                fp.future_write(plan.block(idx, level).r[plan.side(level)]);
            }
        }
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
        Handle::new(
            FilterCore::new(self.shape.clone(), pid, self.policy),
            &self.mem,
        )
    }

    fn source_size(&self) -> u64 {
        self.shape.params().source_size()
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.shape.params().concurrency()
    }
}

/// FILTER's [`ProtocolCore`]: the shape, one pid with its plan index, and
/// the release policy (which decides whether acquire completion routes
/// through the eager-loser prologue). The core owns the shape and lends
/// it to each step, so no step clones a tree or looks one up.
#[derive(Clone, Debug)]
pub struct FilterCore {
    shape: FilterShape,
    pid: Pid,
    plan: usize,
    policy: ReleasePolicy,
    observe_blocks: bool,
}

impl FilterCore {
    /// A core for registered process `pid` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not registered when the shape was built.
    pub fn new(shape: FilterShape, pid: Pid, policy: ReleasePolicy) -> Self {
        let plan = shape.plan_index(pid);
        Self {
            shape,
            pid,
            plan,
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

    /// The name set `N_p` this process competes for, in `x` order: tree
    /// index `i` of every machine of this core is `names()[i]`.
    pub fn names(&self) -> &[Name] {
        &self.shape.plan(self.plan).names
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
        FilterAcquire::for_plan(&self.shape, self.plan)
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut FilterAcquire,
        mem: &M,
    ) -> Option<FilterPosition> {
        // The completed machine is discarded by every caller, so its
        // progress vector moves into the token; the metrics travel with it.
        a.step(&self.shape, mem)
            .map(|_| a.take_position(&self.shape))
    }

    fn prologue(&self, token: &mut FilterPosition) -> Option<FilterRelease> {
        match self.policy {
            ReleasePolicy::AtReleaseName => None,
            ReleasePolicy::EagerLosers => {
                let (winner, losers) = token.clone().split_winner();
                *token = winner;
                Some(FilterRelease::new(losers))
            }
        }
    }

    fn begin_release(&self, pos: FilterPosition) -> FilterRelease {
        FilterRelease::new(pos)
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
        // The union of the pid's root paths in every tree of its name set,
        // precomputed in the plan; exact, so processes with disjoint name
        // sets never conflict.
        fp.extend_future(self.shape.plan(self.plan).lifetime());
    }

    fn release_future_footprint(&self, r: &FilterRelease, fp: &mut Footprint) {
        r.future_footprint(&self.shape, fp);
    }

    fn token_name(&self, pos: &FilterPosition) -> Option<Name> {
        pos.name()
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn key_acquire(&self, a: &FilterAcquire, out: &mut Vec<Word>) {
        a.key(out);
    }

    fn key_token(&self, pos: &FilterPosition, out: &mut Vec<Word>) {
        out.push(pos.name().map_or(u64::MAX, |n| n));
        for i in 0..pos.progress.len() {
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
        a.describe(&self.shape)
    }

    fn describe_release(&self, r: &FilterRelease) -> String {
        r.describe()
    }
}

impl Composable for FilterCore {
    fn for_pid(&self, pid: Pid) -> Self {
        Self {
            pid,
            plan: self.shape.plan_index(pid),
            ..self.clone()
        }
    }

    fn source_size(&self) -> u64 {
        self.shape.params().source_size()
    }

    fn accepts(&self, pid: Pid) -> bool {
        self.shape.is_registered(pid)
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
            let mut out = Vec::new();
            let _: Result<(), ()> = self.try_each_won_block(|block| {
                out.push(block);
                Ok(())
            });
            out
        }

        /// Calls `f` on each of [`won_blocks`](Self::won_blocks) in its
        /// order, without collecting them, until `f` fails.
        fn try_each_won_block<E>(
            &self,
            mut f: impl FnMut((Name, usize, u64)) -> Result<(), E>,
        ) -> Result<(), E> {
            let pid = self.core().pid;
            let names = self.core().names();
            let mut each = |conf: &dyn Fn(usize) -> usize| {
                for (i, &m) in names.iter().enumerate() {
                    for level in 1..=conf(i) {
                        f((m, level, TreeShape::block_index(pid, level)))?;
                    }
                }
                Ok(())
            };
            match self.phase() {
                SessionPhase::Idle => Ok(()),
                SessionPhase::Acquiring(a) => each(&|i| a.confirmed_level(i)),
                SessionPhase::Prologue { rel, token } => {
                    each(&|i| rel.confirmed_level(i))?;
                    each(&|i| token.confirmed_level(i))
                }
                SessionPhase::Holding(pos) => each(&|i| pos.confirmed_level(i)),
                SessionPhase::Releasing(r) => each(&|i| r.confirmed_level(i)),
                // A crashed process holds no critical section *as far as
                // liveness goes* — its torn marks may still block others,
                // which is exactly what the crash tests observe.
                SessionPhase::Crashed => Ok(()),
            }
        }

        /// Whether this process holds ME block `block`.
        fn holds_block(&self, block: (Name, usize, u64)) -> bool {
            self.try_each_won_block(|b| if b == block { Err(()) } else { Ok(()) })
                .is_err()
        }
    }

    /// Concurrently held names are pairwise distinct and inside `[0, D)`.
    pub fn unique_names_invariant(world: &World<'_, FilterUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Lemma 6, globally: no ME critical section is held by two processes.
    /// Each held block is looked up in the earlier machines' confirmed
    /// levels, so a state that satisfies the invariant allocates nothing.
    pub fn block_exclusion_invariant(world: &World<'_, FilterUser>) -> Result<(), String> {
        let machines = world.machines;
        for (i, m) in machines.iter().enumerate() {
            m.try_each_won_block(|block| {
                match machines[..i].iter().position(|o| o.holds_block(block)) {
                    Some(j) => Err(format!("machines {j} and {i} both hold ME block {block:?}")),
                    None => Ok(()),
                }
            })?;
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
        let shape =
            FilterShape::build(params, participants, &mut layout).expect("valid participants");
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
        let shape =
            FilterShape::build(params, participants, &mut layout).expect("valid participants");
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
            assert_cycles_keep_refcount(&f, 1, || Arc::strong_count(&f.shape.inner));
        }
    }

    /// Every registered pid's plan holds exactly what its definitions
    /// say: the name set, the block of every (tree, level) pair, and the
    /// union of its root-path footprints.
    fn assert_plans_match_definitions(params: FilterParams, pids: &[Pid]) {
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, pids, &mut layout).unwrap();
        let sets = params.name_sets();
        assert_eq!(shape.dest_size(), params.dest_size());
        assert_eq!(shape.inner.max_checks, params.max_checks());
        for &pid in pids {
            let plan = shape.plan(shape.plan_index(pid));
            assert_eq!(plan.pid, pid);
            assert_eq!(plan.names, sets.name_set(pid), "pid {pid}");
            let core = FilterCore::new(shape.clone(), pid, ReleasePolicy::default());
            assert_eq!(core.names(), &plan.names[..]);
            let mut union = Footprint::new();
            for (i, &m) in plan.names.iter().enumerate() {
                for level in 1..=params.tree_levels() {
                    assert_eq!(
                        plan.block(i, level),
                        shape.tree(m).block_for(pid, level),
                        "pid {pid} tree {m} level {level}"
                    );
                }
                shape.tree(m).path_future_footprint(pid, &mut union);
            }
            let lifetime = plan.lifetime();
            for l in 0..layout.len() as u32 + 64 {
                let loc = llr_mem::Loc(l);
                assert_eq!(
                    lifetime.covers_future_read(loc),
                    union.covers_future_read(loc),
                    "pid {pid} future read of {l}"
                );
                assert_eq!(
                    lifetime.covers_future_write(loc),
                    union.covers_future_write(loc),
                    "pid {pid} future write of {l}"
                );
            }
        }
    }

    #[test]
    fn plans_match_their_definitions() {
        assert_plans_match_definitions(FilterParams::new(3, 25, 1, 5).unwrap(), &[1, 6, 11]);
        assert_plans_match_definitions(FilterParams::new(4, 49, 1, 7).unwrap(), &[1, 8, 15, 22]);
    }

    #[test]
    fn sixty_four_level_trees_serve_names() {
        // S = 2^63 + 1: every tree is 64 levels deep, so each progress
        // value fills all 64 of its bits on the way to a root.
        let params = FilterParams::new(3, (1 << 63) + 1, 11, 47).unwrap();
        assert_eq!(params.tree_levels(), 64);
        let pids = [0, 1 << 63];
        let f = Filter::new(params, &pids).unwrap();
        let mut h0 = f.handle(pids[0]);
        let mut h1 = f.handle(pids[1]);
        for _ in 0..3 {
            let n0 = h0.acquire();
            let n1 = h1.acquire();
            assert_ne!(n0, n1);
            assert!(n0.max(n1) < f.dest_size());
            h0.release();
            h1.release();
        }
        for w in f.mem.snapshot() {
            assert_eq!(w, crate::types::enc::NIL);
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
        let shape = FilterShape::build(tiny_params(), &[1, 3], &mut layout).unwrap();
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
        let f = Filter::with_policy(tiny_params(), &[1, 3], ReleasePolicy::EagerLosers).unwrap();
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
        let stats =
            spec::check_filter_with_policy(tiny_params(), &[1, 3], 2, ReleasePolicy::EagerLosers)
                .unwrap();
        assert!(stats.states > 500, "got {}", stats.states);
    }

    #[test]
    fn split_winner_partitions_positions() {
        let f = Filter::new(tiny_params(), &[1, 3]).unwrap();
        let mem = Counting::new(&f.mem);
        let mut m = FilterAcquire::new(&f.shape, 1);
        while m.step(&f.shape, &mem).is_none() {}
        let pos = m.take_position(&f.shape);
        let total_blocks = pos.entered_blocks(&f.shape).len();
        let name = pos.name().unwrap();
        let (winner, losers) = pos.split_winner();
        assert_eq!(winner.name(), Some(name));
        assert_eq!(losers.name(), None);
        assert_eq!(
            winner.entered_blocks(&f.shape).len() + losers.entered_blocks(&f.shape).len(),
            total_blocks
        );
        for (m_, _) in winner.entered_blocks(&f.shape) {
            assert_eq!(m_, name);
        }
    }

    #[test]
    fn block_exclusion_pins_its_message() {
        use llr_mc::{StepMachine, World};
        use llr_mem::SimMemory;
        let user = |pid: Pid| {
            let mut layout = Layout::new();
            let shape = FilterShape::build(tiny_params(), &[1, 3], &mut layout).unwrap();
            (
                spec::FilterUser::new(shape, pid, 1),
                SimMemory::new(&layout),
            )
        };
        // Each holder acquires alone on its own copy of the instance, so
        // two of them can hold the same ME block.
        let holding = |pid: Pid| {
            let (mut u, mem) = user(pid);
            while u.holding().is_none() {
                u.step(&mem);
            }
            u
        };
        let idle = user(1).0;
        let check = |machines: &[spec::FilterUser]| {
            let mem = SimMemory::new(&Layout::new());
            let done = vec![false; machines.len()];
            spec::block_exclusion_invariant(&World {
                mem: &mem,
                machines,
                done: &done,
            })
        };
        let err = |message: &str| Err(message.to_string());
        assert_eq!(check(&[holding(1), idle.clone()]), Ok(()));
        // pids 1 and 3 share tree 1 and its root block (level 2) only.
        assert_eq!(
            check(&[idle, holding(1), holding(3)]),
            err("machines 1 and 2 both hold ME block (1, 2, 0)")
        );
        assert_eq!(
            check(&[holding(3), holding(1)]),
            err("machines 0 and 1 both hold ME block (1, 2, 0)")
        );
        assert_eq!(
            check(&[holding(1), holding(1)]),
            err("machines 0 and 1 both hold ME block (1, 1, 0)")
        );
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
