//! The breadth-first layer loop, shared by every exploration store.
//!
//! [`explore`] expands the reachable state space one breadth-first layer
//! at a time over two stores:
//!
//! * a **visited store** ([`Visited`]) — which states are known, and the
//!   spanning tree of the ones that are: the sharded in-RAM map
//!   [`RamVisited`] (exact or hashed keys, returning ids for liveness
//!   edges), or the spill module's in-RAM delta plus sorted runs on disk;
//! * a **layer store** ([`Layers`]) — the layer being expanded and the one
//!   being filled: [`RamLayers`], a `Vec` of materialized states expanded
//!   in one chunk, or the spill module's layer and candidate files read
//!   through a bounded window.
//!
//! Within a chunk, `std::thread::scope` workers each expand a contiguous
//! run of states ([`expand_layer`]):
//!
//! * the visited store is read lock-free by every worker — it is
//!   immutable for the whole expansion;
//! * states not found there go into **pending** — 64 mutex-guarded shards
//!   keyed like the visited store. Each pending entry remembers which
//!   worker materialized the successor state and the schedule-least
//!   `(parent, via)` edge that reached it (min-merged on every
//!   rediscovery). Pending persists across the chunks of one layer.
//!
//! After the expansion, a sequential phase drops the candidates a visited
//! store on disk already knows (re-expanding, under partial-order
//! reduction, the states whose ample successor was among them), drains
//! pending, sorts the fresh states by `(parent id, via)` — parent ids are
//! themselves assigned in this order, so state numbering, parent pointers,
//! and therefore the first reported violation are **identical for every
//! worker count and every store** — assigns ids, checks the invariant, and
//! appends the survivors to the next layer.
//!
//! The same loop builds the liveness graph: with edge recording on, every
//! transition is reported as a `(from, to)` id pair, which
//! [`crate::liveness`] consumes for its backward reachability marking.
//!
//! Exploration is instrumented with deterministic memory accounting: each
//! store reports the payload bytes of its own structures, the loop adds
//! the pending entries and the recorded edges, and the per-layer peak —
//! including the layer being drained when a run stops early — is
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes).

use crate::checker::{hash128, CheckError, CheckStats, KeyBuilder, ModelChecker, Violation, World};
use crate::frontier::{EdgeLog, ScratchDir};
use crate::por::AmpleCtx;
use crate::relation::{via_entry, Move, Plan, Relation};
use crate::spill::{DiskLayers, SpillSet};
use crate::StepMachine;
use llr_mem::{SimMemory, Word};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::io;
use std::sync::Mutex;

/// Shard count for both the visited and pending maps. Power of two so the
/// shard index is a bit slice of the 128-bit state hash.
pub(crate) const SHARDS: usize = 64;

/// Approximate per-entry overhead of a pending-map slot (the [`Pend`]
/// record plus map bookkeeping), used by the deterministic memory
/// accounting. The state key's own payload bytes are counted separately.
pub(crate) const PEND_OVERHEAD_BYTES: u64 = 32;

#[inline]
pub(crate) fn shard_of(h: u128) -> usize {
    (h >> 122) as usize & (SHARDS - 1)
}

/// Abstracts over the two dedup representations: owned full keys
/// (`Box<[u64]>`, exact) and 128-bit hashes (`u128`, memory-lean). Both
/// are looked up by a probe borrowed from the key buffer or the hash, so
/// the miss path allocates nothing.
pub(crate) trait EngineKey: Eq + Hash + Send + Sync + Sized + Borrow<Self::Probe> {
    /// The borrowed form a lookup uses: the key words, or the hash.
    type Probe: ?Sized + Eq + Hash;
    fn make(buf: &[u64], h: u128) -> Self;
    fn probe<'a>(buf: &'a [u64], h: &'a u128) -> &'a Self::Probe;
    /// Payload bytes of one stored key (for the resident-bytes accounting).
    fn bytes(&self) -> u64;
}

impl EngineKey for Box<[u64]> {
    type Probe = [u64];
    fn make(buf: &[u64], _h: u128) -> Self {
        buf.into()
    }
    fn probe<'a>(buf: &'a [u64], _h: &'a u128) -> &'a [u64] {
        buf
    }
    fn bytes(&self) -> u64 {
        (self.len() * 8) as u64
    }
}

impl EngineKey for u128 {
    type Probe = u128;
    fn make(_buf: &[u64], h: u128) -> Self {
        h
    }
    fn probe<'a>(_buf: &'a [u64], h: &'a u128) -> &'a u128 {
        h
    }
    fn bytes(&self) -> u64 {
        16
    }
}

/// A fully materialized frontier state.
pub(crate) struct FrontierState<M> {
    pub(crate) snap: Vec<Word>,
    pub(crate) machines: Vec<M>,
    pub(crate) done: Vec<bool>,
    /// Global state id (assigned sequentially in deterministic order).
    pub(crate) id: u32,
}

/// A state discovered in the current layer, not yet assigned an id.
pub(crate) struct Pend {
    /// Worker that materialized the state...
    pub(crate) worker: u32,
    /// ...and the index into that worker's `fresh` vector.
    pub(crate) idx: u32,
    /// Schedule-least discovering edge (min-merged across rediscoveries).
    pub(crate) parent: u32,
    pub(crate) via: u8,
    /// State hash, kept so promotion to the visited store recomputes
    /// nothing.
    pub(crate) h: u128,
}

/// The pending shards of one layer.
type Pending<K> = [Mutex<HashMap<K, Pend>>];

/// One worker's materialized successors, indexed by [`Pend::idx`].
pub(crate) type Fresh<M> = Vec<Option<FrontierState<M>>>;

enum EdgeTo {
    /// Successor was already visited with this id.
    Known(u32),
    /// Successor is pending: `(worker, idx)` names its materialization.
    Fresh(u32, u32),
}

/// Where the recorded transition pairs go.
pub(crate) enum EdgeStore {
    /// The full `(from, to)` list in RAM — the default, and always the
    /// variant when edge recording is off (then the list is empty).
    Ram(Vec<(u32, u32)>),
    /// Streamed to an append-only [`EdgeLog`] file because a spill budget
    /// is configured, in a scratch directory whose guard keeps the file
    /// alive until the consumer is done.
    Disk(ScratchDir, EdgeLog),
}

/// The visited half of the loop: which states are known, and the spanning
/// tree of the ones that are.
pub(crate) trait Visited: Sync {
    /// The key pending entries are deduplicated by.
    type Key: EngineKey;
    /// Whether [`find`](Self::find) sees every visited state. A store that
    /// sees only a recent part answers for the rest in
    /// [`join`](Self::join), where partial-order reduction re-checks its
    /// cycle proviso.
    const COMPLETE: bool = true;
    /// The id of a visited state, looked up by the expansion workers (no
    /// locks, no I/O). Ids are meaningful only in complete stores.
    fn find(&self, key: &[u64], h: u128) -> Option<u32>;
    /// The candidate hashes this store knows but [`find`](Self::find) does
    /// not see — none, in a complete store.
    fn join(&self, _candidates: impl Iterator<Item = u128>) -> io::Result<HashSet<u128>> {
        Ok(HashSet::new())
    }
    /// Records state `id` with hash `h`, reached by the `(parent, via)`
    /// edge.
    fn insert(
        &mut self,
        id: u32,
        key: Self::Key,
        h: u128,
        edge: (u32, u8),
        terminal: bool,
    ) -> io::Result<()>;
    /// The spanning-tree schedule reaching `id`.
    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>>;
    /// Payload bytes resident in the store, plus `pending` pending entries.
    fn resident(&self, pending: u64) -> u64;
    /// Bytes the store wrote to disk.
    fn spilled(&self) -> u64 {
        0
    }
}

/// The layer half of the loop: the layer being expanded and the one being
/// filled. A store starts with the root as its only state.
pub(crate) trait Layers<M> {
    /// Expands the current layer — or, with `only`, the states at those
    /// ordinals — chunk by chunk: `step(chunk, first, base)` steps the
    /// selection's states `first..` with worker ids from `base` on and
    /// returns each worker's fresh states, which the store keeps.
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        step: impl FnMut(&[FrontierState<M>], usize, u32) -> Vec<Fresh<M>>,
    ) -> io::Result<()>;
    /// Ends the layer's expansions, before the first [`admit`](Self::admit).
    fn end_expansion(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Numbers the fresh state `(worker, idx)` as `id`, hands it to
    /// `check`, and appends it to the next layer.
    fn admit(
        &mut self,
        worker: u32,
        idx: u32,
        id: u32,
        check: impl FnOnce(&FrontierState<M>) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>>;
    /// Makes the next layer current and returns its width.
    fn advance(&mut self) -> io::Result<u64>;
    /// Payload bytes resident in the store.
    fn resident(&self) -> u64;
    /// Bytes the store wrote to disk.
    fn spilled(&self) -> u64 {
        0
    }
}

/// The in-RAM visited store: a sharded map from keys to ids, plus the
/// spanning tree and terminal flags the liveness check reads back.
pub(crate) struct RamVisited<K> {
    frozen: Vec<HashMap<K, u32>>,
    /// Payload bytes of `frozen`.
    bytes: u64,
    /// `parent[id] = (parent id, via)`: the move that reached `id`, as
    /// [`Move::via`] stores it. The root has parent `u32::MAX`.
    pub(crate) parent: Vec<(u32, u8)>,
    /// `terminal[id]` iff every machine is done in state `id`.
    pub(crate) terminal: Vec<bool>,
}

impl<K> RamVisited<K> {
    pub(crate) fn new() -> Self {
        Self {
            frozen: (0..SHARDS).map(|_| HashMap::new()).collect(),
            bytes: 0,
            parent: Vec::new(),
            terminal: Vec::new(),
        }
    }
}

impl<K: EngineKey> Visited for RamVisited<K> {
    type Key = K;

    fn find(&self, key: &[u64], h: u128) -> Option<u32> {
        self.frozen[shard_of(h)].get(K::probe(key, &h)).copied()
    }

    fn insert(
        &mut self,
        id: u32,
        key: K,
        h: u128,
        edge: (u32, u8),
        terminal: bool,
    ) -> io::Result<()> {
        self.bytes += key.bytes() + 4;
        self.frozen[shard_of(h)].insert(key, id);
        self.parent.push(edge);
        self.terminal.push(terminal);
        Ok(())
    }

    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>> {
        Ok(schedule_to(&self.parent, id))
    }

    fn resident(&self, pending: u64) -> u64 {
        self.bytes
            + self.parent.len() as u64 * 8
            + self.terminal.len() as u64
            + pending * PEND_OVERHEAD_BYTES
    }
}

/// The in-RAM layer store: the current layer fully materialized and
/// expanded in one chunk, and the states the workers materialized.
pub(crate) struct RamLayers<M> {
    current: Vec<FrontierState<M>>,
    next: Vec<FrontierState<M>>,
    /// Each worker's fresh states, taken as they are admitted.
    fresh: Vec<Fresh<M>>,
    /// Payload bytes of one materialized state.
    per_state: u64,
}

impl<M> RamLayers<M> {
    pub(crate) fn new(root: FrontierState<M>) -> io::Result<Self> {
        Ok(Self {
            per_state: frontier_state_bytes::<M>(root.snap.len(), root.machines.len()),
            current: vec![root],
            next: Vec::new(),
            fresh: Vec::new(),
        })
    }
}

impl<M> Layers<M> for RamLayers<M> {
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        mut step: impl FnMut(&[FrontierState<M>], usize, u32) -> Vec<Fresh<M>>,
    ) -> io::Result<()> {
        assert!(only.is_none(), "a complete store re-expands nothing");
        self.fresh = step(&self.current, 0, 0);
        // Every fresh state survives: nothing is on disk to drop it.
        self.next
            .reserve_exact(self.fresh.iter().map(Vec::len).sum());
        Ok(())
    }

    fn admit(
        &mut self,
        worker: u32,
        idx: u32,
        id: u32,
        check: impl FnOnce(&FrontierState<M>) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>> {
        let mut st = self.fresh[worker as usize][idx as usize]
            .take()
            .expect("pending entry names a materialized state");
        st.id = id;
        let verdict = check(&st)?;
        self.next.push(st);
        Ok(verdict)
    }

    fn advance(&mut self) -> io::Result<u64> {
        self.current = std::mem::take(&mut self.next);
        self.fresh = Vec::new();
        Ok(self.current.len() as u64)
    }

    /// The current layer plus every state materialized from it.
    fn resident(&self) -> u64 {
        let fresh: usize = self.fresh.iter().map(Vec::len).sum();
        (self.current.len() + fresh) as u64 * self.per_state
    }
}

/// Reconstructs the schedule reaching `id` by walking parent pointers.
pub(crate) fn schedule_to(parent: &[(u32, u8)], mut id: u32) -> Vec<usize> {
    let mut schedule = Vec::new();
    while parent[id as usize].0 != u32::MAX {
        schedule.push(via_entry(parent[id as usize].1));
        id = parent[id as usize].0;
    }
    schedule.reverse();
    schedule
}

/// One expansion worker: its private register file and key buffer, the
/// shared pending shards and visited store, and what it found.
struct Worker<'a, M, V: Visited> {
    rel: Relation,
    wmem: SimMemory,
    kb: KeyBuilder,
    pending: &'a Pending<V::Key>,
    visited: &'a V,
    /// The id pending entries record for this worker.
    id: u32,
    fresh: Fresh<M>,
    transitions: u64,
    /// Every transition taken, when edges are recorded.
    edges: Option<Vec<(u32, EdgeTo)>>,
    /// States expanded via an ample singleton whose successor `find` did
    /// not see, as `(frontier index, ample machine, successor hash)`, when
    /// the visited store is not complete, so the loop can re-check the
    /// cycle proviso at the join.
    reduced: Vec<(u32, u8, u128)>,
}

impl<'a, M: StepMachine, V: Visited> Worker<'a, M, V> {
    fn new(
        rel: Relation,
        snap: &[Word],
        pending: &'a Pending<V::Key>,
        visited: &'a V,
        record_edges: bool,
        id: u32,
    ) -> Self {
        Self {
            rel,
            wmem: SimMemory::with_values(snap),
            kb: KeyBuilder::default(),
            pending,
            visited,
            id,
            fresh: Vec::new(),
            transitions: 0,
            edges: record_edges.then(Vec::new),
            reduced: Vec::new(),
        }
    }

    /// Takes move `mv` from frontier state `st` and routes the successor:
    /// visited states only record an edge, unknown states are min-merged
    /// into the pending shards, and materialized by the first worker to
    /// reach them. Returns whether the successor was found visited, and
    /// its hash.
    fn step(&mut self, st: &FrontierState<M>, mv: Move) -> (bool, u128) {
        self.wmem.restore(&st.snap);
        let i = mv.machine();
        let mut mi = st.machines[i].clone();
        let done_i = self.rel.apply(mv, &self.wmem, &mut mi);
        let via = mv.via();
        self.transitions += 1;
        let kbuf = self
            .kb
            .build(&self.wmem, &st.machines, &st.done, Some((i, &mi, done_i)));
        let h = hash128(kbuf);
        let found = self.visited.find(kbuf, h);
        let to = match found {
            Some(id) => EdgeTo::Known(id),
            None => {
                let mut shard = self.pending[shard_of(h)].lock().expect("shard poisoned");
                if let Some(p) = shard.get_mut(V::Key::probe(kbuf, &h)) {
                    if (st.id, via) < (p.parent, p.via) {
                        p.parent = st.id;
                        p.via = via;
                    }
                    EdgeTo::Fresh(p.worker, p.idx)
                } else {
                    let (worker, idx) = (self.id, self.fresh.len() as u32);
                    let pend = Pend {
                        worker,
                        idx,
                        parent: st.id,
                        via,
                        h,
                    };
                    shard.insert(V::Key::make(kbuf, h), pend);
                    // The slot is reserved: materialize outside the lock.
                    drop(shard);
                    let mut machines = st.machines.clone();
                    machines[i] = mi;
                    let mut done = st.done.clone();
                    done[i] = done_i;
                    let snap = self.wmem.snapshot();
                    self.fresh.push(Some(FrontierState {
                        snap,
                        machines,
                        done,
                        id: u32::MAX,
                    }));
                    EdgeTo::Fresh(worker, idx)
                }
            }
        };
        if let Some(edges) = &mut self.edges {
            edges.push((st.id, to));
        }
        (found.is_some(), h)
    }

    /// Takes every move `plan` allows from `st`.
    fn expand(&mut self, st: &FrontierState<M>, plan: Plan) {
        let rel = self.rel;
        for mv in rel.moves(&st.snap, &st.machines, &st.done, plan) {
            self.step(st, mv);
        }
    }
}

/// Expands one chunk of a breadth-first layer over `workers` scoped
/// threads.
///
/// Every frontier state's every enabled move ([`Relation::moves`]) is
/// taken once — unless the POR gate ([`Relation::plan`]) picks an ample
/// singleton for the state, in which case only that step is taken.
/// If the ample successor is found *visited* (in an earlier-or-current
/// layer), the cycle proviso fires and the state is expanded fully after
/// all: a cycle in the reduced graph must contain an edge into an
/// earlier-or-equal layer, so no step is ignored forever. If the visited
/// store is not complete, states left reduced are reported in
/// [`Worker::reduced`] so the loop can redo the proviso check against the
/// rest of the store at the join.
///
/// `worker_base` offsets the worker ids recorded in [`Pend`] (and in
/// [`EdgeTo::Fresh`]): a layer store that expands a layer in several
/// chunks against one pending set gives each chunk's workers globally
/// unique ids, so the drain can find their materializations. The
/// `frontier index` in [`Worker::reduced`] stays relative to the
/// `frontier` slice passed in.
///
/// This is the only concurrent phase of the loop; everything afterwards
/// (draining `pending` in `(parent, via)` order) is sequential and
/// deterministic.
fn expand_layer<'a, M, V>(
    rel: Relation,
    frontier: &[FrontierState<M>],
    pending: &'a Pending<V::Key>,
    visited: &'a V,
    workers: usize,
    record_edges: bool,
    worker_base: u32,
) -> Vec<Worker<'a, M, V>>
where
    M: StepMachine + Send + Sync,
    V: Visited,
{
    let chunk = frontier.len().div_ceil(workers.clamp(1, frontier.len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = frontier
            .chunks(chunk)
            .enumerate()
            .map(|(w, part)| {
                scope.spawn(move || {
                    let wid = worker_base + w as u32;
                    let mut s =
                        Worker::new(rel, &part[0].snap, pending, visited, record_edges, wid);
                    let mut ample = AmpleCtx::new();
                    for (fi, st) in part.iter().enumerate() {
                        let fi = w * chunk + fi;
                        match rel.plan(&mut ample, &st.snap, &st.machines, &st.done) {
                            Plan::Ample(a) => {
                                let (seen, h) = s.step(st, Move::Step(a));
                                if seen {
                                    // Cycle proviso: fall back to full
                                    // expansion (the ample step is already
                                    // taken and counted).
                                    s.expand(st, Plan::AllBut(Some(a)));
                                } else if !V::COMPLETE {
                                    s.reduced.push((fi as u32, a as u8, h));
                                }
                            }
                            plan => s.expand(st, plan),
                        }
                    }
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an exploration worker panicked"))
            .collect()
    })
}

/// Per-frontier-state payload bytes: one register-file snapshot, the
/// machine vector and the done flags. Used by the deterministic memory
/// accounting of both layer stores.
pub(crate) fn frontier_state_bytes<M>(words: usize, machines: usize) -> u64 {
    (words * 8 + machines * std::mem::size_of::<M>() + machines) as u64
}

/// Every entry of the pending shards.
fn entries<K>(pending: &mut [Mutex<HashMap<K, Pend>>]) -> impl Iterator<Item = &Pend> {
    pending.iter_mut().flat_map(|s| {
        let map: &HashMap<K, Pend> = s.get_mut().expect("shard poisoned");
        map.values()
    })
}

/// Charges `stats` with the stores' resident bytes (keeping the larger of
/// the peak so far and the present), the loop's own `pending` entries and
/// the edges recorded in RAM, and the stores' disk bytes.
fn charge<M>(
    stats: &mut CheckStats,
    visited: &impl Visited,
    layers: &impl Layers<M>,
    pending: u64,
    edges: &EdgeStore,
) {
    let edges = match edges {
        EdgeStore::Ram(list) => list.len() as u64 * 8,
        EdgeStore::Disk(..) => 0,
    };
    let resident = visited.resident(pending) + layers.resident() + edges;
    stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
    stats.spilled_bytes = visited.spilled() + layers.spilled();
}

/// Breadth-first exploration of the full state space over `workers`
/// threads, keeping visited states in `visited` — handed back at the end
/// — and layers in the store `new_layers` builds from the root.
///
/// Visits exactly the states [`ModelChecker::check`] visits and reports
/// the same `states`/`transitions`/`terminal_states`; `max_depth` counts
/// breadth-first layers instead of DFS depth. Violations are deterministic
/// for every worker count and store: ids are assigned in `(parent, via)`
/// order layer by layer, the invariant is checked in id order, and the
/// first failing state's spanning-tree schedule is reported.
///
/// With `record_edges` (complete visited stores only) every transition
/// comes back as a `(from, to)` id pair — streamed to an edge log on disk
/// when a spill budget is configured, the only forward structure that
/// grows with *transitions* rather than states.
pub(crate) fn explore<M, F, V, L>(
    mc: &ModelChecker<M>,
    invariant: &F,
    workers: usize,
    record_edges: bool,
    mut visited: V,
    new_layers: impl FnOnce(FrontierState<M>) -> io::Result<L>,
) -> Result<(CheckStats, EdgeStore, V), CheckError>
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
    V: Visited,
    L: Layers<M>,
{
    let rel = mc.relation();
    let mem = SimMemory::new(mc.layout());
    let machines = mc.machines().to_vec();
    let root = FrontierState {
        snap: mem.snapshot(),
        done: vec![false; machines.len()],
        machines,
        id: 0,
    };
    let terminal = root.done.iter().all(|&d| d);
    let mut stats = CheckStats {
        states: 1,
        terminal_states: u64::from(terminal),
        ..CheckStats::default()
    };
    {
        let mut kb = KeyBuilder::default();
        let key0 = kb.build(&mem, &root.machines, &root.done, None);
        let h = hash128(key0);
        visited.insert(0, V::Key::make(key0, h), h, (u32::MAX, 0), terminal)?;
    }
    // Scratch register file for main-thread invariant checks.
    let check_mem = SimMemory::new(mc.layout());
    let check = |st: &FrontierState<M>| {
        check_mem.restore(&st.snap);
        invariant(&World {
            mem: &check_mem,
            machines: &st.machines,
            done: &st.done,
        })
    };
    if let Err(message) = check(&root) {
        return Err(CheckError::Violation(Box::new(Violation {
            message,
            schedule: vec![],
            trace: "(violated in the initial state)".into(),
            stats,
        })));
    }
    let mut layers = new_layers(root)?;

    let mut edges = match (record_edges, mc.spill_config()) {
        (true, Some(cfg)) => {
            let guard = ScratchDir::create(&cfg.dir)?;
            let log = EdgeLog::create(guard.path().join("edges.log"))?;
            EdgeStore::Disk(guard, log)
        }
        _ => EdgeStore::Ram(Vec::new()),
    };

    loop {
        let mut pending: Vec<Mutex<HashMap<V::Key, Pend>>> =
            (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        // `assigned[w][idx]` maps a worker-local fresh slot to its global
        // id (edge recording only).
        let mut assigned: Vec<Vec<u32>> = Vec::new();
        let mut layer_edges = Vec::new();
        let mut reduced = Vec::new();
        layers.expand(None, |chunk, first, base| {
            let found = expand_layer(rel, chunk, &pending, &visited, workers, record_edges, base);
            let fresh = found.into_iter().map(|w| {
                stats.transitions += w.transitions;
                layer_edges.extend(w.edges.into_iter().flatten());
                let at = |(fi, a, h)| (fi + first as u32, a, h);
                reduced.extend(w.reduced.into_iter().map(at));
                if record_edges {
                    assigned.push(vec![u32::MAX; w.fresh.len()]);
                }
                w.fresh
            });
            fresh.collect()
        })?;

        // Drop every candidate the visited store knows beyond `find`.
        let candidates: u64 = pending
            .iter_mut()
            .map(|s| s.get_mut().expect("shard poisoned").len() as u64)
            .sum();
        let mut old = visited.join(entries(&mut pending).map(|p| p.h))?;
        // The workers' proviso check only saw what `find` sees. A state
        // left reduced whose ample successor is among the dropped
        // candidates would have been expanded fully by a complete store,
        // so expand it fully here, into the still-undrained pending shards,
        // and drop the new candidates the store knows too. This keeps
        // states, ids and violation schedules identical for every store
        // under reduction.
        let (ords, amples): (Vec<u32>, Vec<u8>) = reduced
            .iter()
            .filter(|r| old.contains(&r.2))
            .map(|&(fi, a, _)| (fi, a))
            .unzip();
        if !ords.is_empty() {
            let mut patch_base = u32::MAX;
            layers.expand(Some(&ords), |chunk, first, base| {
                patch_base = patch_base.min(base);
                let mut w = Worker::new(rel, &chunk[0].snap, &pending, &visited, false, base);
                for (st, &a) in chunk.iter().zip(&amples[first..]) {
                    w.expand(st, Plan::AllBut(Some(usize::from(a))));
                }
                stats.transitions += w.transitions;
                vec![w.fresh]
            })?;
            let extras = entries(&mut pending).filter(|p| p.worker >= patch_base);
            old.extend(visited.join(extras.map(|p| p.h))?);
        }

        // Drain pending in deterministic order. (parent, via) is unique per
        // entry — `step` is deterministic, so one parent/machine pair can
        // produce only one successor — hence this order is total and
        // worker-independent.
        let mut discovered: Vec<(V::Key, Pend)> = pending
            .into_iter()
            .flat_map(|s| s.into_inner().expect("shard poisoned"))
            .collect();
        discovered.sort_unstable_by_key(|(_, p)| (p.parent, p.via));
        layers.end_expansion()?;
        for (key, p) in discovered {
            if old.contains(&p.h) {
                continue;
            }
            let id = u32::try_from(stats.states).expect("state ids exceed u32");
            stats.states += 1;
            if stats.states as usize > mc.state_limit() {
                charge(&mut stats, &visited, &layers, candidates, &edges);
                return Err(CheckError::StateLimit {
                    limit: mc.state_limit(),
                    stats,
                });
            }
            let verdict = layers.admit(p.worker, p.idx, id, |st| {
                let terminal = st.done.iter().all(|&d| d);
                stats.terminal_states += u64::from(terminal);
                visited.insert(id, key, p.h, (p.parent, p.via), terminal)?;
                if record_edges {
                    assigned[p.worker as usize][p.idx as usize] = id;
                }
                Ok(check(st))
            })?;
            if let Err(message) = verdict {
                let schedule = visited.schedule_to(id)?;
                let trace = mc.render_trace(&schedule);
                charge(&mut stats, &visited, &layers, candidates, &edges);
                return Err(CheckError::Violation(Box::new(Violation {
                    message,
                    schedule,
                    trace,
                    stats,
                })));
            }
        }

        for (from, to) in layer_edges {
            let to = match to {
                EdgeTo::Known(id) => id,
                EdgeTo::Fresh(w, idx) => assigned[w as usize][idx as usize],
            };
            match &mut edges {
                EdgeStore::Ram(list) => list.push((from, to)),
                EdgeStore::Disk(_, log) => log.push(from, to)?,
            }
        }
        charge(&mut stats, &visited, &layers, candidates, &edges);
        if layers.advance()? == 0 {
            break;
        }
        stats.max_depth += 1;
    }

    stats.spilled_bytes = visited.spilled() + layers.spilled();
    if let EdgeStore::Disk(_, log) = &mut edges {
        stats.spilled_bytes += log.finish()? * 8;
    }
    Ok((stats, edges, visited))
}

impl<M: StepMachine + Send + Sync> ModelChecker<M> {
    /// Exhaustively explores the state space breadth-first over
    /// [`workers`](Self::workers) threads, checking `invariant` in every
    /// reachable state (including the initial one).
    ///
    /// Visits exactly the same states as [`check`](Self::check) and
    /// reports identical `states`, `transitions` and `terminal_states`
    /// (`max_depth` counts breadth-first layers instead of DFS depth).
    /// Violation reporting is deterministic for every worker count: state
    /// ids follow the layered `(parent, via)` order, and the first
    /// violating id's spanning-tree schedule is returned.
    ///
    /// With [`spill_dir`](Self::spill_dir) configured, the same loop keeps
    /// the visited set in sorted runs on disk behind a bounded in-RAM
    /// delta and the layers in files (the `spill` module); the reported
    /// counts and any violation remain bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Violation`] with a replayable schedule if the
    /// invariant fails, [`CheckError::StateLimit`] if the configured
    /// state bound is exceeded before the search completes, or
    /// [`CheckError::Io`] if the spill backend hits an I/O error.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_mc::{MachineStatus, ModelChecker, StepMachine};
    /// use llr_mem::{Layout, Loc, Memory};
    ///
    /// #[derive(Clone)]
    /// struct Count { x: Loc, left: u8 }
    /// impl StepMachine for Count {
    ///     fn step(&mut self, mem: &dyn Memory) -> MachineStatus {
    ///         mem.write(self.x, self.left as u64);
    ///         self.left -= 1;
    ///         if self.left == 0 { MachineStatus::Done } else { MachineStatus::Running }
    ///     }
    ///     fn key(&self, out: &mut Vec<u64>) { out.push(self.left as u64); }
    ///     fn describe(&self) -> String { format!("left={}", self.left) }
    /// }
    ///
    /// let mut layout = Layout::new();
    /// let x = layout.scalar("X", 0);
    /// let machines = vec![Count { x, left: 2 }, Count { x, left: 2 }];
    /// let seq = ModelChecker::new(layout.clone(), machines.clone())
    ///     .check(|_| Ok(()))
    ///     .unwrap();
    /// let par = ModelChecker::new(layout, machines)
    ///     .workers(2)
    ///     .check_parallel(|_| Ok(()))
    ///     .unwrap();
    /// assert_eq!(par.states, seq.states); // engines agree exactly
    /// assert_eq!(par.transitions, seq.transitions);
    /// ```
    pub fn check_parallel<F>(&self, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let workers = self.resolved_workers();
        let inv = &invariant;
        match self.spill_config() {
            Some(cfg) => {
                let scratch = ScratchDir::create(&cfg.dir)?;
                let visited = SpillSet::create(scratch.path(), cfg)?;
                let layers = |root| DiskLayers::new(scratch.path(), cfg, root);
                explore(self, inv, workers, false, visited, layers).map(|(stats, ..)| stats)
            }
            None if self.hashed() => {
                let visited = RamVisited::<u128>::new();
                explore(self, inv, workers, false, visited, RamLayers::new).map(|(stats, ..)| stats)
            }
            None => {
                let visited = RamVisited::<Box<[u64]>>::new();
                explore(self, inv, workers, false, visited, RamLayers::new).map(|(stats, ..)| stats)
            }
        }
    }
}
