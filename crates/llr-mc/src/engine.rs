//! The breadth-first layer loop, shared by every exploration store.
//!
//! [`explore`] expands the reachable state space one breadth-first layer
//! at a time over two stores:
//!
//! * a **visited store** ([`Visited`]) — which states are known, and the
//!   spanning tree of the ones that are: the sharded in-RAM map
//!   [`RamVisited`] (returning ids for liveness edges), or the spill
//!   module's in-RAM delta plus sorted runs on disk. Both dedup by the
//!   128-bit state hash; the exact-key reference is the DFS
//!   ([`Engine::Sequential`](crate::Engine::Sequential));
//! * a **layer store** ([`Layers`]) — the layer being expanded and the one
//!   being filled: [`RamLayers`], flat buffers of records expanded in one
//!   chunk, or the spill module's layer and candidate files read through
//!   a bounded window.
//!
//! Both layer stores keep a state as one packed record ([`RecordCodec`]):
//! `[id | per slot: done, machine id | per 8-register block: block id]`.
//! The ids point into two pools the loop owns ([`Pool`]): machines per
//! slot, and register [`Block`]s per block position. Each pool keeps its
//! values' 128-bit digests, salted by position, and a state's hash is the
//! XOR of one digest per block and one per slot (the slot's covers its
//! done flag and machine key). A transition gathers the parent's registers
//! from its blocks, borrows its machines from the pool, clones and steps
//! only the machine that moves, and compares the successor's registers
//! with the parent's block by block. Its hash is the parent's with the old
//! and new digests of the moved slot and of each changed block XORed in,
//! so it hashes only the moved machine's [`key`](StepMachine::key) and the
//! changed blocks, not every register and key word (Zobrist-style
//! incremental hashing). A fresh successor costs one record write;
//! machines are cloned out of the pool in full only for the invariant,
//! when a state is admitted.
//!
//! Within a chunk, `std::thread::scope` workers each expand a contiguous
//! run of records ([`expand_layer`]):
//!
//! * the visited store and both pools are read lock-free by every worker
//!   — all are frozen for the whole expansion. A machine or block a pool
//!   lacks goes into the worker's side table under a provisional id, and
//!   the loop interns the side tables, in worker order, before the store
//!   keeps the chunk's fresh records. Pool ids therefore depend on the
//!   worker count, but nothing observable depends on them: hashes come
//!   from digests, ids from the `(parent, via)` drain, and the pools'
//!   bytes only from which values they hold;
//! * states not found there go into **pending** — 64 mutex-guarded shards
//!   keyed by the state hash. Each pending entry remembers which
//!   worker wrote the successor's record and the schedule-least
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
//! store reports the payload bytes of its own structures — a layer store
//! its records, `records × layer_record_bytes` — and the loop adds the
//! two pools, the pending entries (≈48 B each) and the recorded edges.
//! The per-layer peak — including the layer being drained when a run
//! stops early — is
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes).

use crate::checker::{
    CheckError, CheckStats, DigestMap, DigestSet, Hash128, ModelChecker, Violation, World,
};
use crate::drive::Run;
use crate::frontier::{
    Block, EdgeLog, Pool, RecordCodec, Renumber, ScratchDir, BLOCK, PROVISIONAL,
};
use crate::por::AmpleCtx;
use crate::relation::{via_entry, Move, Plan, Relation};
use crate::spill::{DiskLayers, SpillSet};
use crate::StepMachine;
use llr_mem::{SimMemory, Word};
use std::io;
use std::sync::Mutex;

/// Shard count for both the visited and pending maps. Power of two so the
/// shard index is a bit slice of the 128-bit state hash.
pub(crate) const SHARDS: usize = 64;

/// Approximate per-entry overhead of a pending-map slot (the [`Pend`]
/// record plus map bookkeeping), used by the deterministic memory
/// accounting. [`charge`] adds the entry's 16-byte hash key to it.
pub(crate) const PEND_OVERHEAD_BYTES: u64 = 32;

#[inline]
pub(crate) fn shard_of(h: u128) -> usize {
    (h >> 122) as usize & (SHARDS - 1)
}

/// A state discovered in the current layer, not yet assigned an id.
pub(crate) struct Pend {
    /// Worker that wrote the state's record...
    pub(crate) worker: u32,
    /// ...and the record's index among that worker's fresh records.
    pub(crate) idx: u32,
    /// Schedule-least discovering edge (min-merged across rediscoveries).
    pub(crate) parent: u32,
    pub(crate) via: u8,
}

/// The pending shards of one layer, keyed by state hash.
type Pending = [Mutex<DigestMap<Pend>>];

enum EdgeTo {
    /// Successor was already visited with this id.
    Known(u32),
    /// Successor is pending: `(worker, idx)` names its record.
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
    /// Whether [`find`](Self::find) sees every visited state. A store that
    /// sees only a recent part answers for the rest in
    /// [`join`](Self::join), where partial-order reduction re-checks its
    /// cycle proviso.
    const COMPLETE: bool = true;
    /// The id of a visited state, looked up by the expansion workers (no
    /// locks, no I/O). Ids are meaningful only in complete stores.
    fn find(&self, h: u128) -> Option<u32>;
    /// The candidate hashes this store knows but [`find`](Self::find) does
    /// not see — none, in a complete store.
    fn join(&mut self, _candidates: impl Iterator<Item = u128>) -> io::Result<DigestSet> {
        Ok(DigestSet::default())
    }
    /// Records state `id` with hash `h`, reached by the `(parent, via)`
    /// edge.
    fn insert(&mut self, id: u32, h: u128, edge: (u32, u8), terminal: bool) -> io::Result<()>;
    /// The spanning-tree schedule reaching `id`.
    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>>;
    /// Payload bytes resident in the store.
    fn resident(&self) -> u64;
    /// Bytes the store wrote to disk.
    fn spilled(&self) -> u64 {
        0
    }
}

/// The layer half of the loop: the layer being expanded and the one being
/// filled, as packed state records ([`RecordCodec`]). A store starts with
/// the root's record as its only one.
pub(crate) trait Layers {
    /// Expands the current layer — or, with `only`, the records at those
    /// ordinals — chunk by chunk: `step(chunk, first, base)` steps the
    /// selection's records `first..`, back to back in the runs of `chunk`,
    /// with worker ids from `base` on, and returns each worker's fresh
    /// records, which the store keeps.
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        step: impl FnMut(&[Vec<u8>], usize, u32) -> Vec<Vec<u8>>,
    ) -> io::Result<()>;
    /// Ends the layer's expansions, before the first [`admit`](Self::admit).
    fn end_expansion(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Numbers the fresh record `(worker, idx)` as `id`, hands it to
    /// `check`, and keeps it for the next layer.
    fn admit(
        &mut self,
        worker: u32,
        idx: u32,
        id: u32,
        check: impl FnOnce(&[u8]) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>>;
    /// Makes the next layer current and returns its width. Its records'
    /// machine and block ids go through `renumber`'s maps, if a pool
    /// dropped values ([`Pool::retain`]).
    fn advance(&mut self, renumber: &Renumber) -> io::Result<u64>;
    /// Record bytes resident in the store.
    fn resident(&self) -> u64;
    /// Bytes the store wrote to disk.
    fn spilled(&self) -> u64 {
        0
    }
}

/// The in-RAM visited store: a sharded map from state hashes to ids, plus
/// the spanning tree and terminal flags the liveness check reads back.
pub(crate) struct RamVisited {
    frozen: Vec<DigestMap<u32>>,
    /// `parent[id] = (parent id, via)`: the move that reached `id`, as
    /// [`Move::via`] stores it. The root has parent `u32::MAX`.
    pub(crate) parent: Vec<(u32, u8)>,
    /// `terminal[id]` iff every machine is done in state `id`.
    pub(crate) terminal: Vec<bool>,
}

impl RamVisited {
    pub(crate) fn new() -> Self {
        Self {
            frozen: (0..SHARDS).map(|_| DigestMap::default()).collect(),
            parent: Vec::new(),
            terminal: Vec::new(),
        }
    }
}

impl Visited for RamVisited {
    fn find(&self, h: u128) -> Option<u32> {
        self.frozen[shard_of(h)].get(&h).copied()
    }

    fn insert(&mut self, id: u32, h: u128, edge: (u32, u8), terminal: bool) -> io::Result<()> {
        self.frozen[shard_of(h)].insert(h, id);
        self.parent.push(edge);
        self.terminal.push(terminal);
        Ok(())
    }

    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>> {
        Ok(schedule_to(&self.parent, id))
    }

    /// Per state: its hash and id in `frozen`, its parent and its flag.
    fn resident(&self) -> u64 {
        self.parent.len() as u64 * (16 + 4 + 8 + 1)
    }
}

/// The in-RAM layer store: the current layer and each worker's fresh
/// successors, as runs of records back to back in flat buffers. The
/// current layer is expanded in one chunk; the fresh runs are numbered in
/// place and become the next layer as they are. A layer's record order is
/// therefore the workers' order, which nothing observable depends on: ids
/// come from the `(parent, via)` drain.
pub(crate) struct RamLayers {
    codec: RecordCodec,
    current: Vec<Vec<u8>>,
    /// Each worker's fresh records.
    fresh: Vec<Vec<u8>>,
}

impl RamLayers {
    pub(crate) fn new(codec: RecordCodec, root: Vec<u8>) -> io::Result<Self> {
        Ok(Self {
            codec,
            current: vec![root],
            fresh: Vec::new(),
        })
    }
}

impl Layers for RamLayers {
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        mut step: impl FnMut(&[Vec<u8>], usize, u32) -> Vec<Vec<u8>>,
    ) -> io::Result<()> {
        assert!(only.is_none(), "a complete store re-expands nothing");
        // Every fresh record survives: nothing is on disk to drop it.
        self.fresh = step(&self.current, 0, 0);
        Ok(())
    }

    fn admit(
        &mut self,
        worker: u32,
        idx: u32,
        id: u32,
        check: impl FnOnce(&[u8]) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>> {
        let rb = self.codec.bytes();
        let at = idx as usize * rb;
        let rec = &mut self.fresh[worker as usize][at..at + rb];
        self.codec.set_id(rec, id);
        check(rec)
    }

    fn advance(&mut self, renumber: &Renumber) -> io::Result<u64> {
        self.current = std::mem::take(&mut self.fresh);
        self.current.retain(|run| !run.is_empty());
        if !renumber.is_empty() {
            for run in &mut self.current {
                self.codec.renumber(run, renumber);
            }
        }
        let bytes: usize = self.current.iter().map(Vec::len).sum();
        Ok((bytes / self.codec.bytes()) as u64)
    }

    /// The current layer and every fresh record.
    fn resident(&self) -> u64 {
        let runs = self.current.iter().chain(&self.fresh);
        runs.map(|run| run.len() as u64).sum()
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

/// The two pools the records' ids point into: machines per slot, and the
/// register file's [`Block`]s per block position.
struct Pools<M> {
    machines: Pool<M>,
    blocks: Pool<Block>,
    /// The register file's width.
    registers: usize,
}

/// One mark per interned value of each pool, set for the values the next
/// layer's records name.
struct Marks {
    machines: Vec<Vec<bool>>,
    blocks: Vec<Vec<bool>>,
}

impl<M> Pools<M> {
    fn new(slots: usize, registers: usize) -> Self {
        Self {
            machines: Pool::new(slots),
            blocks: Pool::new(registers.div_ceil(BLOCK)),
            registers,
        }
    }

    /// Gathers the registers of the blocks `ids` into `out`, replacing its
    /// contents.
    fn gather(&self, ids: &[Word], out: &mut Vec<Word>) {
        out.clear();
        for (b, &id) in ids.iter().enumerate() {
            let width = (self.registers - b * BLOCK).min(BLOCK);
            out.extend_from_slice(&self.blocks.get(b, id as u32)[..width]);
        }
    }

    fn marks(&self) -> Marks {
        Marks {
            machines: self.machines.marks(),
            blocks: self.blocks.marks(),
        }
    }

    /// Drops the values `live` leaves unmarked, pool by pool
    /// ([`Pool::retain`]).
    fn retain(&mut self, live: &Marks) -> Renumber {
        Renumber {
            machines: self.machines.retain(&live.machines),
            blocks: self.blocks.retain(&live.blocks),
        }
    }

    fn bytes(&self) -> u64 {
        self.machines.bytes() + self.blocks.bytes()
    }
}

/// Block `b` of the registers `regs`, padded with zeros.
fn block_of(regs: &[Word], b: usize) -> Block {
    let words = &regs[b * BLOCK..regs.len().min((b + 1) * BLOCK)];
    let mut block = [0; BLOCK];
    block[..words.len()].copy_from_slice(words);
    block
}

/// Part kinds a digest is salted with, besides its position.
const BLOCK_PART: u64 = 1;
const KEY_PART: u64 = 2;
const DONE_PART: u64 = 3;

/// The digest of the registers `words` at block position `b`.
pub(crate) fn block_digest(b: usize, words: &[Word]) -> u128 {
    Hash128::digest(BLOCK_PART, b, words)
}

/// The digest of the machine key `key` in `slot`.
pub(crate) fn key_digest(slot: usize, key: &[u64]) -> u128 {
    Hash128::digest(KEY_PART, slot, key)
}

/// The digest of `slot`: its machine's key digest `key`, and its done
/// flag.
pub(crate) fn slot_digest(slot: usize, done: bool, key: u128) -> u128 {
    if done {
        key ^ Hash128::digest(DONE_PART, slot, &[])
    } else {
        key
    }
}

/// The hash of a successor whose registers `new` differ from its parent's,
/// `old`: `h`, with the parent's digest of each changed block,
/// `digest(b)`, and the block's new digest XORed in. Each changed block
/// goes into `changed` with its new digest.
pub(crate) fn rehash(
    mut h: u128,
    old: &[Word],
    new: &[Word],
    digest: impl Fn(usize) -> u128,
    changed: &mut Vec<(usize, u128)>,
) -> u128 {
    changed.clear();
    for (b, (old, new)) in old.chunks(BLOCK).zip(new.chunks(BLOCK)).enumerate() {
        if old != new {
            let d = block_digest(b, new);
            h ^= digest(b) ^ d;
            changed.push((b, d));
        }
    }
    h
}

/// A record decoded for expansion, its machines borrowed from the pool.
struct Parent<'p, M> {
    /// The record's id and slots, which its successors' records copy.
    head: Vec<u8>,
    id: u32,
    /// The record's block ids.
    blocks: Vec<Word>,
    /// The registers, gathered from the blocks.
    snap: Vec<Word>,
    done: Vec<bool>,
    machines: Vec<&'p M>,
    /// Each slot's digest.
    slots: Vec<u128>,
    /// The state hash: every block's and every slot's digest, XORed.
    hash: u128,
}

impl<'p, M: StepMachine> Parent<'p, M> {
    fn new() -> Self {
        Self {
            head: Vec::new(),
            id: 0,
            blocks: Vec::new(),
            snap: Vec::new(),
            done: Vec::new(),
            machines: Vec::new(),
            slots: Vec::new(),
            hash: 0,
        }
    }

    /// Decodes `rec` and hashes it from the pools' digests.
    fn load(&mut self, codec: RecordCodec, rec: &[u8], pools: &'p Pools<M>) {
        self.head.clear();
        self.head.extend_from_slice(codec.head(rec));
        self.id = codec.id(rec);
        codec.read_words(rec, &mut self.blocks);
        pools.gather(&self.blocks, &mut self.snap);
        self.hash = 0;
        for (b, &id) in self.blocks.iter().enumerate() {
            self.hash ^= pools.blocks.digest(b, id as u32);
        }
        self.done.clear();
        self.machines.clear();
        self.slots.clear();
        for slot in 0..codec.slots() {
            let (id, done) = (codec.machine(rec, slot), codec.done(rec, slot));
            let digest = slot_digest(slot, done, pools.machines.digest(slot, id));
            self.done.push(done);
            self.machines.push(pools.machines.get(slot, id));
            self.slots.push(digest);
            self.hash ^= digest;
        }
    }
}

/// A worker's values a frozen pool lacks, under provisional ids.
struct Side<T> {
    /// `(position, value, digest)`, indexed by the low bits of their
    /// provisional ids.
    items: Vec<(usize, T, u128)>,
    /// Provisional ids by position and digest.
    ids: Vec<DigestMap<u32>>,
    /// `(record, position)` of every provisional id in the worker's fresh
    /// records.
    patches: Vec<(usize, usize)>,
}

impl<T> Side<T> {
    fn new(positions: usize) -> Self {
        Self {
            items: Vec::new(),
            ids: (0..positions).map(|_| DigestMap::default()).collect(),
            patches: Vec::new(),
        }
    }

    /// The id record `record` stores at `pos` for the value digested
    /// `digest`: the pool's, or a provisional one, under which `value()`
    /// joins the side table if it is new there too.
    fn id(
        &mut self,
        pool: &Pool<T>,
        (record, pos): (usize, usize),
        digest: u128,
        value: impl FnOnce() -> T,
    ) -> u32 {
        if let Some(id) = pool.find(pos, digest) {
            return id;
        }
        let items = &mut self.items;
        let id = *self.ids[pos].entry(digest).or_insert_with(|| {
            let side = u32::try_from(items.len())
                .ok()
                .filter(|&n| n < PROVISIONAL)
                .expect("a worker's side table exceeds 2^31 values");
            items.push((pos, value(), digest));
            PROVISIONAL | side
        });
        self.patches.push((record, pos));
        id
    }

    /// Interns the side table into `pool`, in order. Returns the ids the
    /// provisional ones stand for, and where they are stored.
    fn adopt(self, pool: &mut Pool<T>) -> (Vec<u32>, Vec<(usize, usize)>) {
        let items = self.items.into_iter();
        let ids = items.map(|(pos, v, d)| pool.intern(pos, d, v)).collect();
        (ids, self.patches)
    }
}

/// What one worker found in a chunk.
struct Found<M> {
    /// The records of the successors this worker reached first, indexed by
    /// [`Pend::idx`].
    fresh: Vec<u8>,
    /// Machines and blocks the pools lacked.
    machines: Side<M>,
    blocks: Side<Block>,
    transitions: u64,
    /// Every transition taken, when edges are recorded.
    edges: Option<Vec<(u32, EdgeTo)>>,
    /// States expanded via an ample singleton whose successor `find` did
    /// not see, as `(frontier index, ample machine, successor hash)`, when
    /// the visited store is not complete, so the loop can re-check the
    /// cycle proviso at the join.
    reduced: Vec<(u32, u8, u128)>,
}

impl<M: StepMachine> Found<M> {
    /// Interns the side tables into `pools`, in order, and patches the
    /// provisional ids in the fresh records. Returns the fresh records.
    fn adopt(self, pools: &mut Pools<M>, codec: RecordCodec) -> Vec<u8> {
        let mut fresh = self.fresh;
        let rb = codec.bytes();
        let (ids, patches) = self.machines.adopt(&mut pools.machines);
        for (r, slot) in patches {
            let rec = &mut fresh[r * rb..(r + 1) * rb];
            let id = ids[(codec.machine(rec, slot) & !PROVISIONAL) as usize];
            codec.set_machine(rec, slot, id);
        }
        let (ids, patches) = self.blocks.adopt(&mut pools.blocks);
        for (r, b) in patches {
            let rec = &mut fresh[r * rb..(r + 1) * rb];
            let id = ids[(codec.word(rec, b) as u32 & !PROVISIONAL) as usize];
            codec.set_word(rec, b, Word::from(id));
        }
        fresh
    }
}

/// One expansion worker: its private register file and key buffers, the
/// shared pending shards, visited store and pools, and what it found.
struct Worker<'a, M, V: Visited> {
    rel: Relation,
    codec: RecordCodec,
    wmem: SimMemory,
    pools: &'a Pools<M>,
    pending: &'a Pending,
    visited: &'a V,
    /// The id pending entries record for this worker.
    id: u32,
    /// The successor's registers.
    regs: Vec<Word>,
    /// The key of the machine that moved.
    kbuf: Vec<u64>,
    /// The blocks the move changed, with their digests.
    changed: Vec<(usize, u128)>,
    /// The successor's block ids.
    blocks: Vec<Word>,
    found: Found<M>,
}

impl<'a, M: StepMachine, V: Visited> Worker<'a, M, V> {
    fn new(
        rel: Relation,
        codec: RecordCodec,
        pools: &'a Pools<M>,
        pending: &'a Pending,
        visited: &'a V,
        record_edges: bool,
        id: u32,
    ) -> Self {
        Self {
            rel,
            codec,
            wmem: SimMemory::with_values(&vec![0; pools.registers]),
            pools,
            pending,
            visited,
            id,
            regs: Vec::new(),
            kbuf: Vec::new(),
            changed: Vec::new(),
            blocks: Vec::new(),
            found: Found {
                fresh: Vec::new(),
                machines: Side::new(codec.slots()),
                blocks: Side::new(codec.words()),
                transitions: 0,
                edges: record_edges.then(Vec::new),
                reduced: Vec::new(),
            },
        }
    }

    /// Takes move `mv` from the parent state `p` and routes the successor:
    /// visited states only record an edge, unknown states are min-merged
    /// into the pending shards, and written as a record by the first
    /// worker to reach them. Returns whether the successor was found
    /// visited, and its hash.
    fn step(&mut self, p: &Parent<'a, M>, mv: Move) -> (bool, u128) {
        self.wmem.restore(&p.snap);
        let i = mv.machine();
        let mut mi = p.machines[i].clone();
        let done_i = self.rel.apply(mv, &self.wmem, &mut mi);
        let via = mv.via();
        self.found.transitions += 1;
        self.wmem.snapshot_into(&mut self.regs);
        self.kbuf.clear();
        mi.key(&mut self.kbuf);
        let key = key_digest(i, &self.kbuf);
        let h = p.hash ^ p.slots[i] ^ slot_digest(i, done_i, key);
        let blocks = &self.pools.blocks;
        let old = |b| blocks.digest(b, p.blocks[b] as u32);
        let h = rehash(h, &p.snap, &self.regs, old, &mut self.changed);
        let found = self.visited.find(h);
        let to = match found {
            Some(id) => EdgeTo::Known(id),
            None => {
                let mut shard = self.pending[shard_of(h)].lock().expect("shard poisoned");
                if let Some(pend) = shard.get_mut(&h) {
                    if (p.id, via) < (pend.parent, pend.via) {
                        pend.parent = p.id;
                        pend.via = via;
                    }
                    EdgeTo::Fresh(pend.worker, pend.idx)
                } else {
                    let idx = (self.found.fresh.len() / self.codec.bytes()) as u32;
                    let pend = Pend {
                        worker: self.id,
                        idx,
                        parent: p.id,
                        via,
                    };
                    shard.insert(h, pend);
                    // The slot is reserved: write the record outside the lock.
                    drop(shard);
                    self.write_fresh(p, (i, done_i, mi, key));
                    EdgeTo::Fresh(self.id, idx)
                }
            }
        };
        if let Some(edges) = &mut self.found.edges {
            edges.push((p.id, to));
        }
        (found.is_some(), h)
    }

    /// Appends the successor's record: the parent's, with slot `i` holding
    /// `mi` (its key digested `key`) and the blocks the move changed.
    fn write_fresh(&mut self, p: &Parent<'a, M>, (i, done_i, mi, key): (usize, bool, M, u128)) {
        let r = self.found.fresh.len() / self.codec.bytes();
        let machine = (self.found.machines).id(&self.pools.machines, (r, i), key, || mi);
        self.blocks.clear();
        self.blocks.extend_from_slice(&p.blocks);
        for &(b, digest) in &self.changed {
            let regs = &self.regs;
            let id =
                (self.found.blocks).id(&self.pools.blocks, (r, b), digest, || block_of(regs, b));
            self.blocks[b] = Word::from(id);
        }
        let fresh = &mut self.found.fresh;
        (self.codec).push_successor(&p.head, (i, done_i, machine), &self.blocks, fresh);
    }

    /// Takes every move `plan` allows from `p`.
    fn expand(&mut self, p: &Parent<'a, M>, plan: Plan) {
        for mv in self.rel.moves::<M, &M>(&p.snap, &p.machines, &p.done, plan) {
            self.step(p, mv);
        }
    }
}

/// Expands one chunk of a breadth-first layer, the records back to back in
/// the runs of `chunk`, over `workers` scoped threads, each taking a
/// contiguous share of the chunk's records.
///
/// Every frontier state's every enabled move ([`Relation::moves`]) is
/// taken once — unless the POR gate ([`Relation::plan`]) picks an ample
/// singleton for the state, in which case only that step is taken.
/// If the ample successor is found *visited* (in an earlier-or-current
/// layer), the cycle proviso fires and the state is expanded fully after
/// all: a cycle in the reduced graph must contain an edge into an
/// earlier-or-equal layer, so no step is ignored forever. If the visited
/// store is not complete, states left reduced are reported in
/// [`Found::reduced`] so the loop can redo the proviso check against the
/// rest of the store at the join.
///
/// `worker_base` offsets the worker ids recorded in [`Pend`] (and in
/// [`EdgeTo::Fresh`]): a layer store that expands a layer in several
/// chunks against one pending set gives each chunk's workers globally
/// unique ids, so the drain can find their records. The `frontier index`
/// in [`Found::reduced`] stays relative to the `chunk` passed in.
///
/// This is the only concurrent phase of the loop; everything afterwards
/// (interning the side tables, draining `pending` in `(parent, via)`
/// order) is sequential and deterministic.
#[allow(clippy::too_many_arguments)]
fn expand_layer<M, V>(
    rel: Relation,
    codec: RecordCodec,
    chunk: &[Vec<u8>],
    pools: &Pools<M>,
    pending: &Pending,
    visited: &V,
    workers: usize,
    record_edges: bool,
    worker_base: u32,
) -> Vec<Found<M>>
where
    M: StepMachine + Send + Sync,
    V: Visited,
{
    let rb = codec.bytes();
    let n = chunk.iter().map(|run| run.len() / rb).sum::<usize>();
    let share = n.div_ceil(workers.clamp(1, n));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n.div_ceil(share))
            .map(|w| {
                scope.spawn(move || {
                    let wid = worker_base + w as u32;
                    let mut s = Worker::new(rel, codec, pools, pending, visited, record_edges, wid);
                    // Every state is some state's fresh successor, so one
                    // per record is the average over a run.
                    s.found.fresh.reserve(share * rb);
                    let mut p = Parent::new();
                    let mut ample = AmpleCtx::new();
                    let records = chunk.iter().flat_map(|run| run.chunks_exact(rb));
                    let part = records.enumerate().skip(w * share).take(share);
                    for (fi, rec) in part {
                        p.load(codec, rec, pools);
                        match rel.plan::<M, &M>(&mut ample, &p.snap, &p.machines, &p.done) {
                            Plan::Ample(a) => {
                                let (seen, h) = s.step(&p, Move::Step(a));
                                if seen {
                                    // Cycle proviso: fall back to full
                                    // expansion (the ample step is already
                                    // taken and counted).
                                    s.expand(&p, Plan::AllBut(Some(a)));
                                } else if !V::COMPLETE {
                                    s.found.reduced.push((fi as u32, a as u8, h));
                                }
                            }
                            plan => s.expand(&p, plan),
                        }
                    }
                    s.found
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an exploration worker panicked"))
            .collect()
    })
}

/// Every entry of the pending shards, with its state hash.
fn entries(pending: &mut Pending) -> impl Iterator<Item = (&u128, &Pend)> {
    pending
        .iter_mut()
        .flat_map(|s| s.get_mut().expect("shard poisoned").iter())
}

/// Charges `stats` with the stores' resident bytes (keeping the larger of
/// the peak so far and the present), the two pools, the loop's own
/// `pending` entries (≈48 B each: a [`Pend`] slot and its hash key) and
/// the edges recorded in RAM, and the stores' disk bytes.
fn charge<M>(
    stats: &mut CheckStats,
    visited: &impl Visited,
    layers: &impl Layers,
    pools: &Pools<M>,
    pending: u64,
    edges: &EdgeStore,
) {
    let edges = match edges {
        EdgeStore::Ram(list) => list.len() as u64 * 8,
        EdgeStore::Disk(..) => 0,
    };
    let pending = pending * (PEND_OVERHEAD_BYTES + 16);
    let resident = visited.resident() + layers.resident() + pools.bytes() + pending + edges;
    stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
    stats.spilled_bytes = visited.spilled() + layers.spilled();
}

/// The world the invariant is shown when a state is admitted. It is kept
/// from one admitted state to the next, so a slot's machine is cloned out
/// of the pool only when its id changes.
struct Shown<M> {
    mem: SimMemory,
    regs: Vec<Word>,
    /// The state's block ids.
    blocks: Vec<Word>,
    ids: Vec<u32>,
    machines: Vec<M>,
    done: Vec<bool>,
}

impl<M: StepMachine> Shown<M> {
    /// Loads the state `rec`, marks its machines and blocks in `live`, and
    /// returns whether it is terminal.
    fn load(&mut self, codec: RecordCodec, rec: &[u8], pools: &Pools<M>, live: &mut Marks) -> bool {
        codec.read_words(rec, &mut self.blocks);
        for (live, &id) in live.blocks.iter_mut().zip(&self.blocks) {
            live[id as usize] = true;
        }
        pools.gather(&self.blocks, &mut self.regs);
        self.mem.restore(&self.regs);
        for (slot, live) in live.machines.iter_mut().enumerate() {
            self.done[slot] = codec.done(rec, slot);
            let id = codec.machine(rec, slot);
            live[id as usize] = true;
            if self.ids[slot] != id {
                self.machines[slot].clone_from(pools.machines.get(slot, id));
                self.ids[slot] = id;
            }
        }
        self.done.iter().all(|&d| d)
    }

    /// Follows the machine pool's renumbering; a dropped machine is cloned
    /// again if it comes back.
    fn renumber(&mut self, renumber: &Renumber) {
        for (id, map) in self.ids.iter_mut().zip(renumber.machines.iter().flatten()) {
            *id = map[*id as usize];
        }
    }

    fn world(&self) -> World<'_, M> {
        World {
            mem: &self.mem,
            machines: &self.machines,
            done: &self.done,
        }
    }
}

/// Breadth-first exploration of the full state space over `run`'s worker
/// threads, with `run`'s reduction, keeping visited states in `visited` —
/// handed back at the end — and layers in the store `new_layers` builds
/// from the record codec and the root's record.
///
/// Visits exactly the states the DFS visits and reports the same
/// `states`/`transitions`/`terminal_states`; `max_depth` counts
/// breadth-first layers instead of DFS depth. Violations are deterministic
/// for every worker count and store: ids are assigned in `(parent, via)`
/// order layer by layer, the invariant is checked in id order, and the
/// first failing state's spanning-tree schedule is reported.
///
/// With `record_edges` (complete visited stores only) every transition
/// comes back as a `(from, to)` id pair — streamed to an edge log on disk
/// when `run` spills, the only forward structure that grows with
/// *transitions* rather than states.
pub(crate) fn explore<M, F, V, L>(
    mc: &ModelChecker<M>,
    invariant: &F,
    run: &Run,
    record_edges: bool,
    mut visited: V,
    new_layers: impl FnOnce(RecordCodec, Vec<u8>) -> io::Result<L>,
) -> Result<(CheckStats, EdgeStore, V), CheckError>
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
    V: Visited,
    L: Layers,
{
    let rel = mc.relation(run.por);
    let workers = run.workers.expect("the DFS runs no breadth-first loop");
    let slots = mc.machines().len();
    let mut shown = Shown {
        mem: SimMemory::new(mc.layout()),
        regs: Vec::new(),
        blocks: Vec::new(),
        ids: Vec::new(),
        machines: mc.machines().to_vec(),
        done: vec![false; slots],
    };
    let snap = shown.mem.snapshot();
    let mut pools = Pools::new(slots, snap.len());
    let codec = RecordCodec::new(snap.len().div_ceil(BLOCK), slots);
    let mut key = Vec::new();
    for (slot, m) in mc.machines().iter().enumerate() {
        key.clear();
        m.key(&mut key);
        let id = pools
            .machines
            .intern(slot, key_digest(slot, &key), m.clone());
        shown.ids.push(id);
    }
    let blocks: Vec<Word> = (snap.chunks(BLOCK).enumerate())
        .map(|(b, words)| {
            Word::from(
                pools
                    .blocks
                    .intern(b, block_digest(b, words), block_of(&snap, b)),
            )
        })
        .collect();
    let mut root = Vec::with_capacity(codec.bytes());
    codec.encode(0, &shown.done, &shown.ids, &blocks, &mut root);
    let terminal = shown.load(codec, &root, &pools, &mut pools.marks());
    let mut stats = CheckStats {
        states: 1,
        terminal_states: u64::from(terminal),
        ..CheckStats::default()
    };
    let mut parent = Parent::new();
    parent.load(codec, &root, &pools);
    visited.insert(0, parent.hash, (u32::MAX, 0), terminal)?;
    if let Err(message) = invariant(&shown.world()) {
        return Err(CheckError::Violation(Box::new(Violation {
            message,
            schedule: vec![],
            trace: "(violated in the initial state)".into(),
            stats,
        })));
    }
    let mut layers = new_layers(codec, root)?;

    let mut edges = match (record_edges, &run.spill) {
        (true, Some(cfg)) => {
            let guard = ScratchDir::create(&cfg.dir)?;
            let log = EdgeLog::create(guard.path().join("edges.log"))?;
            EdgeStore::Disk(guard, log)
        }
        _ => EdgeStore::Ram(Vec::new()),
    };

    loop {
        let mut pending: Vec<Mutex<DigestMap<Pend>>> =
            (0..SHARDS).map(|_| Mutex::default()).collect();
        // `assigned[w][idx]` maps a worker-local fresh record to its global
        // id (edge recording only).
        let mut assigned: Vec<Vec<u32>> = Vec::new();
        let mut layer_edges = Vec::new();
        let mut reduced = Vec::new();
        layers.expand(None, |chunk, first, base| {
            let found = expand_layer(
                rel,
                codec,
                chunk,
                &pools,
                &pending,
                &visited,
                workers,
                record_edges,
                base,
            );
            let fresh = found.into_iter().map(|mut w| {
                stats.transitions += w.transitions;
                layer_edges.extend(w.edges.take().into_iter().flatten());
                let at = |(fi, a, h)| (fi + first as u32, a, h);
                reduced.extend(w.reduced.drain(..).map(at));
                if record_edges {
                    assigned.push(vec![u32::MAX; w.fresh.len() / codec.bytes()]);
                }
                w.adopt(&mut pools, codec)
            });
            fresh.collect()
        })?;

        // Drop every candidate the visited store knows beyond `find`.
        let candidates: u64 = pending
            .iter_mut()
            .map(|s| s.get_mut().expect("shard poisoned").len() as u64)
            .sum();
        let mut old = visited.join(entries(&mut pending).map(|(&h, _)| h))?;
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
                let mut w = Worker::new(rel, codec, &pools, &pending, &visited, false, base);
                let mut p = Parent::new();
                let records = chunk.iter().flat_map(|run| run.chunks_exact(codec.bytes()));
                for (rec, &a) in records.zip(&amples[first..]) {
                    p.load(codec, rec, &pools);
                    w.expand(&p, Plan::AllBut(Some(usize::from(a))));
                }
                let found = w.found;
                stats.transitions += found.transitions;
                vec![found.adopt(&mut pools, codec)]
            })?;
            let extras = entries(&mut pending).filter(|(_, p)| p.worker >= patch_base);
            old.extend(visited.join(extras.map(|(&h, _)| h))?);
        }

        // The machines and blocks the next layer's records name; a pool
        // drops the rest once they outnumber these.
        let mut live = pools.marks();
        // Drain pending in deterministic order. (parent, via) is unique per
        // entry — `step` is deterministic, so one parent/machine pair can
        // produce only one successor — hence this order is total and
        // worker-independent.
        let mut discovered: Vec<(u128, Pend)> = pending
            .into_iter()
            .flat_map(|s| s.into_inner().expect("shard poisoned"))
            .collect();
        discovered.sort_unstable_by_key(|(_, p)| (p.parent, p.via));
        layers.end_expansion()?;
        for (h, p) in discovered {
            if old.contains(&h) {
                continue;
            }
            let id = u32::try_from(stats.states).expect("state ids exceed u32");
            stats.states += 1;
            if stats.states as usize > mc.state_limit() {
                charge(&mut stats, &visited, &layers, &pools, candidates, &edges);
                return Err(CheckError::StateLimit {
                    limit: mc.state_limit(),
                    stats,
                });
            }
            let verdict = layers.admit(p.worker, p.idx, id, |rec| {
                let terminal = shown.load(codec, rec, &pools, &mut live);
                stats.terminal_states += u64::from(terminal);
                visited.insert(id, h, (p.parent, p.via), terminal)?;
                if record_edges {
                    assigned[p.worker as usize][p.idx as usize] = id;
                }
                Ok(invariant(&shown.world()))
            })?;
            if let Err(message) = verdict {
                let schedule = visited.schedule_to(id)?;
                let trace = mc.render_trace(&schedule);
                charge(&mut stats, &visited, &layers, &pools, candidates, &edges);
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
        charge(&mut stats, &visited, &layers, &pools, candidates, &edges);
        let renumber = pools.retain(&live);
        shown.renumber(&renumber);
        if layers.advance(&renumber)? == 0 {
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
    /// Exhaustively explores the state space breadth-first on `run`'s
    /// stores, checking `invariant` in every reachable state (including
    /// the initial one).
    pub(crate) fn bfs<F>(&self, run: &Run, invariant: F) -> Result<CheckStats, CheckError>
    where
        F: Fn(&World<'_, M>) -> Result<(), String>,
    {
        let inv = &invariant;
        match &run.spill {
            Some(cfg) => {
                let scratch = ScratchDir::create(&cfg.dir)?;
                let visited = SpillSet::create(scratch.path(), cfg)?;
                let max_moves = self.relation(run.por).max_moves(self.machines().len());
                let layers = |codec, root: Vec<u8>| {
                    DiskLayers::new(scratch.path(), cfg, codec, &root, max_moves)
                };
                explore(self, inv, run, false, visited, layers).map(|(stats, ..)| stats)
            }
            None => {
                let visited = RamVisited::new();
                explore(self, inv, run, false, visited, RamLayers::new).map(|(stats, ..)| stats)
            }
        }
    }
}
