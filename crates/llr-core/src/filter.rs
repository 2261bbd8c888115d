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
//! A process keeps every position it entered, in every tree, until
//! `ReleaseName` (Figure 4: "releasing all played mutual exclusion
//! blocks"), which releases them top-down within each tree.
//!
//! # Registration
//!
//! A [`Filter`] is built for an explicit set of participant pids: the
//! tournament trees are allocated sparsely over exactly the union of the
//! participants' root-paths (see [`crate::tournament::TreeShape`] on why
//! this preserves the paper's behaviour while avoiding its `O(zdkS)`
//! dense space). Any number of participants — at least one — may
//! register; at most `k` may acquire or hold names concurrently.
//!
//! The protocol is one core, [`FilterCore`]; the object [`Filter`] is that
//! core served by the generic [`Renamer`], with the first participant's
//! core as the template every handle is copied from, and
//! [`spec::checker`] checks it through [`crate::session::checker`].
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

use crate::pf::{self, MeEnter, MeRegs, Side};
use crate::session::{Composable, Handle, ProtocolCore, Renamer, Session};
use crate::tournament::{TreeProgress, TreeShape};
use crate::types::{Name, Pid};
use llr_gf::FilterParams;
use llr_mc::Footprint;
use llr_mem::{Layout, Memory, Word};
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
    /// No participant was registered, so no process could use the object.
    NoParticipants,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FilterError::PidOutOfRange { pid, s } => {
                write!(f, "participant pid {pid} outside source space of size {s}")
            }
            FilterError::DuplicatePid { pid } => write!(f, "duplicate participant pid {pid}"),
            FilterError::NoParticipants => write!(f, "no participant registered"),
        }
    }
}

impl std::error::Error for FilterError {}

/// The static shape of a FILTER instance: parameters, the sparse per-name
/// tournament trees, and one *plan* per registered pid — its name set,
/// its block at every (tree, level) pair and its lifetime footprint,
/// each derived once (the footprint on first use) so that no step,
/// footprint or key derives them again. Cheap to clone (one reference
/// count); owned by the [`FilterCore`], which steps the machines on it.
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

/// `GetName` (Figure 4) as a step machine: the operation's locals — its
/// progress in each tree of the name set — stepped one shared access at a
/// time by [`FilterCore`], whose plan holds the name set and the blocks.
#[derive(Clone, Debug)]
pub struct FilterAcquire {
    progress: Vec<TreeProgress>,
    cur: usize,
    mode: Mode,
    metrics: AcquireMetrics,
}

impl FilterAcquire {
    /// The highest *confirmed-won* level in tree `i` (levels whose
    /// critical section this process currently holds): used by the
    /// model-checking invariants.
    pub fn confirmed_level(&self, i: usize) -> usize {
        let entered = self.progress[i].entered_level();
        if self.cur == i && matches!(self.mode, Mode::Entering(_)) {
            // We are entering `entered + 1`, so `entered` itself was won
            // (or `entered = 0` and nothing is won yet).
            entered
        } else {
            entered.saturating_sub(1)
        }
    }
}

/// A process's standing positions in all trees: produced by a completed
/// [`FilterAcquire`], consumed by [`FilterRelease`]. Its only heap
/// storage is the per-tree progress vector.
#[derive(Clone, Debug)]
pub struct FilterPosition {
    progress: Vec<TreeProgress>,
    /// The won tree's index and name.
    acquired: Option<(usize, Name)>,
    /// How the `GetName` that produced this position went (diagnostic,
    /// never keyed: it does not influence future behaviour).
    metrics: AcquireMetrics,
}

impl FilterPosition {
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
}

/// `ReleaseName` as a step machine: the position whose entered ME blocks
/// [`FilterCore`] releases, one register write (`nil`) each, top-down
/// within each tree.
#[derive(Clone, Debug)]
pub struct FilterRelease {
    pos: FilterPosition,
    tree_idx: usize,
    /// Whether a level of tree `tree_idx` has been released yet (never
    /// keyed: it only decides [`confirmed_level`](Self::confirmed_level)).
    popped: bool,
}

impl FilterRelease {
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
}

/// The FILTER long-lived renaming object: [`FilterCore`] served by a
/// [`Renamer`], whose template is the first participant's core.
pub type Filter = Renamer<FilterCore>;

impl Filter {
    /// Builds a FILTER instance for validated `params` and the given
    /// participant set.
    ///
    /// # Errors
    ///
    /// See [`FilterError`].
    pub fn new(params: FilterParams, participants: &[Pid]) -> Result<Self, FilterError> {
        let mut layout = Layout::new();
        let core = first_core(params, participants, &mut layout)?;
        Ok(Self::serve(params.concurrency(), &layout, core))
    }
}

/// Allocates the instance for `params` and `participants` in `layout` and
/// returns its first participant's core: the template a [`Filter`] serves
/// and [`spec::checker`] copies for each participant.
fn first_core(
    params: FilterParams,
    participants: &[Pid],
    layout: &mut Layout,
) -> Result<FilterCore, FilterError> {
    let &first = participants.first().ok_or(FilterError::NoParticipants)?;
    let shape = FilterShape::build(params, participants, layout)?;
    Ok(FilterCore::new(shape, first))
}

/// FILTER's [`ProtocolCore`]: the shape and one pid with its plan index.
/// The core owns the shape and steps the machines on its plan, so no step
/// clones a tree or looks one up.
#[derive(Clone, Debug)]
pub struct FilterCore {
    shape: FilterShape,
    pid: Pid,
    plan: usize,
    observe_blocks: bool,
}

impl FilterCore {
    /// A core for registered process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not registered when the shape was built.
    pub fn new(shape: FilterShape, pid: Pid) -> Self {
        let plan = shape.plan_index(pid);
        Self {
            shape,
            pid,
            plan,
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
    /// the reduction, so name-only invariants leave it off (and keep the
    /// seed's reduced state counts).
    pub fn observe_blocks(mut self) -> Self {
        self.observe_blocks = true;
        self
    }

    /// The FILTER shape.
    pub fn shape(&self) -> &FilterShape {
        &self.shape
    }

    /// The name set `N_p` this process competes for, in `x` order: tree
    /// index `i` of every machine of this core is `names()[i]`.
    pub fn names(&self) -> &[Name] {
        &self.plan().names
    }

    fn plan(&self) -> &ProcessPlan {
        self.shape.plan(self.plan)
    }

    /// Moves to the next tree in the round-robin order after a failed
    /// check (purely local).
    fn advance_tree(&self, a: &mut FilterAcquire) {
        a.cur = (a.cur + 1) % a.progress.len();
        if a.cur == 0 {
            a.metrics.rounds += 1;
            a.metrics.min_round_advances = a
                .metrics
                .min_round_advances
                .min(a.metrics.advances_this_round);
            a.metrics.advances_this_round = 0;
        }
        a.mode = if a.progress[a.cur].entered_level() == 0 {
            Mode::Entering(MeEnter::new(self.plan().side(1)))
        } else {
            Mode::Checking
        };
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
        let plan = self.plan();
        FilterAcquire {
            progress: vec![TreeProgress::new(); plan.names.len()],
            cur: 0,
            mode: Mode::Entering(MeEnter::new(plan.side(1))),
            metrics: AcquireMetrics::new(),
        }
    }

    /// # Panics
    ///
    /// Panics if the number of checks wildly exceeds Theorem 10's
    /// wait-freedom bound — which can only happen if more than `k`
    /// processes use the object concurrently.
    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut FilterAcquire,
        mem: &M,
    ) -> Option<FilterPosition> {
        let plan = self.plan();
        let cur = a.cur;
        match &mut a.mode {
            Mode::Entering(op) => {
                let level = a.progress[cur].entered_level() + 1;
                if let Some(own) = op.step(&plan.block(cur, level), mem) {
                    a.progress[cur].push_entered(own);
                    a.metrics.enters += 1;
                    a.mode = Mode::Checking;
                }
            }
            Mode::Checking => {
                let level = a.progress[cur].entered_level();
                let own = a.progress[cur].own_at(level);
                a.metrics.checks += 1;
                assert!(
                    a.metrics.checks <= self.shape.check_budget(),
                    "wait-freedom tripwire: {} checks exceed 50× Theorem 10's bound \
                     ({}); is the concurrency bound k = {} being violated?",
                    a.metrics.checks,
                    self.shape.inner.max_checks,
                    self.shape.inner.params.concurrency()
                );
                if pf::check(&plan.block(cur, level), plan.side(level), own, mem) {
                    a.metrics.advances_this_round += 1;
                    if level == plan.levels {
                        // Root critical section won: name acquired. Every
                        // caller discards the finished machine, so its
                        // progress vector moves into the token.
                        return Some(FilterPosition {
                            progress: std::mem::take(&mut a.progress),
                            acquired: Some((cur, plan.names[cur])),
                            metrics: a.metrics,
                        });
                    }
                    a.mode = Mode::Entering(MeEnter::new(plan.side(level + 1)));
                } else {
                    self.advance_tree(a);
                }
            }
        }
        None
    }

    fn begin_release(&self, pos: FilterPosition) -> FilterRelease {
        FilterRelease {
            pos,
            tree_idx: 0,
            popped: false,
        }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut FilterRelease, mem: &M) -> bool {
        let plan = self.plan();
        // Find the next tree that still has entered levels.
        while r.tree_idx < r.pos.progress.len() {
            let prog = &mut r.pos.progress[r.tree_idx];
            let level = prog.entered_level();
            if level == 0 {
                r.tree_idx += 1;
                continue;
            }
            pf::release(&plan.block(r.tree_idx, level), plan.side(level), mem);
            prog.pop_released();
            r.popped = true;
            return level == 1 && r.remaining_after(r.tree_idx) == 0;
        }
        true
    }

    fn acquire_footprint(&self, a: &FilterAcquire, fp: &mut Footprint) -> bool {
        let plan = self.plan();
        match &a.mode {
            Mode::Entering(op) => {
                let level = a.progress[a.cur].entered_level() + 1;
                op.footprint(&plan.block(a.cur, level), fp);
                false
            }
            Mode::Checking => {
                let level = a.progress[a.cur].entered_level();
                pf::check_footprint(&plan.block(a.cur, level), plan.side(level), fp);
                // A check may succeed and confirm an ME block, changing
                // `won_blocks`; entry steps only push unconfirmed levels.
                if self.observe_blocks {
                    fp.set_visible();
                }
                // Only winning a root check completes the GetName.
                level == plan.levels
            }
        }
    }

    fn release_footprint(&self, r: &FilterRelease, fp: &mut Footprint) -> bool {
        let plan = self.plan();
        for idx in r.tree_idx..r.pos.progress.len() {
            let level = r.pos.progress[idx].entered_level();
            if level > 0 {
                pf::release_footprint(&plan.block(idx, level), plan.side(level), fp);
                // Every pop removes a block from `won_blocks`.
                if self.observe_blocks {
                    fp.set_visible();
                }
                return level == 1 && r.remaining_after(idx) == 0;
            }
        }
        // Nothing entered: the next step completes without any access, and
        // without touching the won set.
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // The union of the pid's root paths in every tree of its name set,
        // precomputed in the plan; exact, so processes with disjoint name
        // sets never conflict.
        fp.extend_future(self.plan().lifetime());
    }

    /// The process's own side of each still-entered block.
    fn release_future_footprint(&self, r: &FilterRelease, fp: &mut Footprint) {
        let plan = self.plan();
        for idx in r.tree_idx..r.pos.progress.len() {
            for level in 1..=r.pos.progress[idx].entered_level() {
                fp.future_write(plan.block(idx, level).r[plan.side(level)]);
            }
        }
    }

    fn token_name(&self, pos: &FilterPosition) -> Option<Name> {
        pos.acquired.map(|(_, name)| name)
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn key_acquire(&self, a: &FilterAcquire, out: &mut Vec<Word>) {
        out.push(a.cur as u64);
        // The won-tree slot, empty while the GetName runs: a finished one is
        // a token, never an acquire. The word keeps the pinned key digests.
        out.push(u64::MAX);
        match &a.mode {
            Mode::Entering(op) => {
                out.push(0);
                op.key(out);
            }
            Mode::Checking => out.push(1),
        }
        for p in &a.progress {
            p.key(out);
        }
    }

    fn key_token(&self, pos: &FilterPosition, out: &mut Vec<Word>) {
        out.push(self.token_name(pos).unwrap_or(u64::MAX));
        for i in 0..pos.progress.len() {
            out.push(pos.confirmed_level(i) as u64);
            pos.progress[i].key(out);
        }
    }

    fn key_release(&self, r: &FilterRelease, out: &mut Vec<Word>) {
        out.push(r.tree_idx as u64);
        for p in &r.pos.progress {
            p.key(out);
        }
    }

    fn describe_acquire(&self, a: &FilterAcquire) -> String {
        let mode = match &a.mode {
            Mode::Entering(op) => op.describe(),
            Mode::Checking => format!("Check@L{}", a.progress[a.cur].entered_level()),
        };
        format!("Acquire[T{} {mode}]", self.plan().names[a.cur])
    }

    fn describe_release(&self, r: &FilterRelease) -> String {
        format!("Release[tree #{}]", r.tree_idx)
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

impl Handle<'_, FilterCore> {
    /// Metrics (checks/enters/rounds) of the acquire that produced the
    /// held name; `None` while no name is held.
    pub fn last_metrics(&self) -> Option<AcquireMetrics> {
        self.held_token().map(|pos| pos.metrics)
    }
}

pub mod spec {
    //! Model-checkable specification of FILTER: name uniqueness and
    //! block-level mutual exclusion (Lemma 6) under every interleaving.

    use super::*;
    use crate::session::SessionPhase;
    use llr_mc::{ModelChecker, World};

    /// A process performing `sessions` × (`GetName`; dwell; `ReleaseName`):
    /// the generic session machine over [`FilterCore`].
    pub type FilterUser = Session<FilterCore>;

    impl FilterUser {
        /// A user of the FILTER instance described by `shape`.
        pub fn new(shape: FilterShape, pid: Pid, sessions: u8) -> Self {
            Session::start(FilterCore::new(shape, pid), sessions)
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

    /// Both FILTER invariants in one closure-compatible function:
    /// name uniqueness, then global block exclusion.
    pub fn combined_invariant(w: &World<'_, FilterUser>) -> Result<(), String> {
        unique_names_invariant(w)?;
        block_exclusion_invariant(w)
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
        let (layout, core) = instance(params, participants);
        crate::session::checker(layout, &core.observe_blocks(), participants, sessions)
    }

    /// Builds the model checker for the given instance (shared by the
    /// exhaustive checks and experiment E2).
    pub fn checker(
        params: FilterParams,
        participants: &[Pid],
        sessions: u8,
    ) -> ModelChecker<FilterUser> {
        let (layout, core) = instance(params, participants);
        crate::session::checker(layout, &core, participants, sessions)
    }

    /// The instance's registers and its first participant's core.
    fn instance(params: FilterParams, participants: &[Pid]) -> (Layout, FilterCore) {
        let mut layout = Layout::new();
        let core = first_core(params, participants, &mut layout).expect("valid participants");
        (layout, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_check, Engine};
    use crate::traits::test_support::{assert_cycles_keep_refcount, sequential_cycle};
    use crate::traits::{Renaming, RenamingHandle};

    /// The smallest interesting instance: k=2, d=1, z=2, S=4.
    fn tiny_params() -> FilterParams {
        FilterParams::new(2, 4, 1, 2).unwrap()
    }

    #[test]
    fn cycles_never_touch_the_shape_refcount() {
        let f = Filter::new(tiny_params(), &[1, 2]).unwrap();
        assert_cycles_keep_refcount(&f, 1, || Arc::strong_count(&f.core.shape.inner));
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
            let core = FilterCore::new(shape.clone(), pid);
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
        assert_eq!(
            Filter::new(tiny_params(), &[]).unwrap_err(),
            FilterError::NoParticipants
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
        let stats = run_check(
            spec::checker(tiny_params(), &[1, 2], 1),
            &Engine::Sequential,
            spec::combined_invariant,
        )
        .unwrap();
        assert!(stats.states > 100, "got {}", stats.states);
    }

    #[test]
    fn exhaustive_tiny_instance_two_sessions() {
        // pids 1 and 2 share only their x = 1 tree: mostly independent.
        let stats = run_check(
            spec::checker(tiny_params(), &[1, 2], 2),
            &Engine::Sequential,
            spec::combined_invariant,
        )
        .unwrap();
        assert!(stats.states > 300, "got {}", stats.states);
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
        let stats = run_check(
            spec::checker(tiny_params(), &[1, 3], 2),
            &Engine::Sequential,
            spec::combined_invariant,
        )
        .unwrap();
        assert!(stats.states > 1_000, "got {}", stats.states);
    }

    #[test]
    #[ignore = "large state space; run via the e2_modelcheck binary in release mode"]
    fn exhaustive_other_pid_pairs() {
        // Pairs sharing a different tree, and the degenerate all-shared
        // case of N_0 ∩ N_3 = {2}.
        for pair in [[1u64, 3], [0, 3], [0, 2]] {
            run_check(
                spec::checker(tiny_params(), &pair, 2),
                &Engine::Sequential,
                spec::combined_invariant,
            )
            .unwrap();
        }
    }
}
