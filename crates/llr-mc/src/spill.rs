//! External-memory exploration: the disk-backed stores of the
//! breadth-first loop — a spill-to-disk visited set **and** a
//! spill-to-disk frontier.
//!
//! The in-RAM stores of the loop ([`crate::engine`]) hold every visited
//! state hash in a sharded map and every frontier state fully
//! materialized, so their ceiling is the host's memory — first through
//! the visited set (grows with *total* states), then through the frontier
//! (grows with the *widest layer*). These stores lift both ceilings
//! while preserving the exact counts and deterministic violation
//! schedules bit-for-bit:
//!
//! * Dedup is by 128-bit state hash (the same
//!   [`hash128`](crate::checker::hash128) as the in-RAM store); hashes
//!   are partitioned into the loop's 64 shards by their top bits.
//! * Recently discovered hashes live in an **in-RAM delta** (one
//!   `HashSet` per shard). Workers consult only this delta during layer
//!   expansion — never the disk — so the concurrent phase stays
//!   lock-free on the read side and does zero I/O.
//! * When the delta exceeds its budget half it is **flushed**: each
//!   shard's hashes are sorted and appended as one immutable run file. A
//!   shard accumulating too many runs is **compacted** by a streaming
//!   k-way merge into a single run.
//! * A state rediscovered after its hash was flushed is caught one layer
//!   later: each layer's candidate states (the pending set, minus the
//!   delta) are sorted per shard and **merge-joined against every run**
//!   in one sequential pass per run file; candidates found on disk are
//!   dropped before ids are assigned.
//! * The **frontier lives in per-layer files** ([`crate::frontier`]):
//!   each layer is an append-only file of fixed-size records (state id,
//!   per-slot done flags and machine intern ids, register-file
//!   snapshot), written in id order — which *is* `(parent, via)` order —
//!   so writes are streaming. Expansion reads the layer back as a
//!   bounded-buffer sequential scan: one chunk of at most a
//!   quarter-budget's worth of materialized states at a time, expanded
//!   by the loop's workers against the **layer-persistent** pending set
//!   (chunk workers get globally unique ids).
//!   Successors are streamed to a per-layer *candidate* file the same
//!   way and re-read by ordinal at the join. Machine structs are
//!   interned per slot, so records store a `u32` per machine.
//! * The spanning-tree parents go to an append-only **parent log** (5
//!   bytes per state); violation schedules are reconstructed by walking
//!   the log backwards with point reads.
//!
//! Because the drop set is a pure membership fact and chunking changes
//! only *which worker* first materializes a state (the min-merged
//! `(parent, via)` edge and the drain order do not change), the
//! surviving states, their id order, the invariant-check order and hence
//! the first reported violation are identical to the in-RAM engines at
//! every worker count and every budget — `tests/engine_equivalence.rs`
//! pins this, including with a zero budget that forces runs out
//! mid-layer and single-state expansion chunks.
//!
//! One budget governs every structure that scales with the state space
//! ([`SpillConfig`] splits it): half bounds the visited-set delta, a
//! quarter bounds the frontier chunk buffer (at least one state, with
//! worst-case successor materialization counted against it), and the
//! last quarter bounds the liveness CSR build window. What
//! stays in RAM is *accounted but not bounded*: the per-layer pending
//! set (≈48 bytes per candidate — one to two orders of magnitude below
//! the retired per-state frontier payload) and the per-slot machine
//! intern pool (grows with slot-local machine diversity, not states).
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes)
//! reports the deterministic per-layer peak over all of it.
//!
//! ```text
//!        layer file N ──sequential chunk reads──► expansion workers
//!      (id|done|mach|snap          │                (parallel, no I/O)
//!       fixed-size records)        │ ≤ budget/4 materialized   │
//!            ▲                     │ per chunk                 ▼
//!            │                                         pending (64 shards,
//!   parent log (5 B/state,                             layer-persistent)
//!   walked backwards on            candidate file            │ drain,
//!   violation)                  ◄──stream fresh──┘           │ sort (parent,via)
//!            ▲                     │ re-read by ordinal       ▼
//!            │                     ▼                     candidates
//!     delta (RAM, ≤ budget/2)   runs (disk, sorted)          │
//!     ┌───────────────┐         ┌────┐┌────┐┌────┐           │ merge-join:
//!     │ shard 0..63   │         │ r0 ││ r1 ││ r2 │ ──────────┤ drop hashes
//!     └──────┬────────┘         └─┬──┘└─┬──┘└─┬──┘           │ found on disk
//!            │ flush at budget/2  └─────┴─────┴── compact    ▼
//!            ▼                        (when >8)      survivors: assign ids,
//!       new sorted run                               check invariant,
//!                                                    append layer file N+1
//! ```

use crate::engine::{
    frontier_state_bytes, shard_of, Fresh, FrontierState, Layers, Visited, SHARDS,
};
use crate::frontier::{LayerReader, LayerWriter, MachinePool, ParentLog};
use crate::StepMachine;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes per stored state hash.
const HASH_BYTES: usize = 16;

/// Floor of every slice of the budget: the delta is flushed in chunks of
/// at least this many bytes even when the configured budget is smaller,
/// so a zero-byte test budget produces runs per layer instead of a file
/// per state, and tiny budgets still expand a few states per frontier
/// chunk and sort a few predecessor runs per CSR bucket. Budgets below
/// this floor are honored up to this granularity.
const MIN_SLICE_BYTES: usize = 64 * 1024;

/// A shard exceeding this many runs is compacted into a single run.
const MAX_RUNS_PER_SHARD: usize = 8;

/// Buffered-reader capacity for streaming run files.
const RUN_READ_BUF: usize = 1 << 20;

/// Configuration carried by
/// [`ModelChecker::spill_dir`](crate::ModelChecker::spill_dir).
pub(crate) struct SpillConfig {
    /// Parent directory for the per-run spill subdirectory.
    pub dir: PathBuf,
    /// Total resident budget in bytes, split `B/2` delta, `B/4` frontier
    /// window, `B/4` CSR window, each slice floored at
    /// [`MIN_SLICE_BYTES`].
    pub budget_bytes: usize,
}

impl SpillConfig {
    /// Flush threshold of the visited-set delta: half the budget.
    pub(crate) fn delta_bytes(&self) -> usize {
        (self.budget_bytes / 2).max(MIN_SLICE_BYTES)
    }

    /// The frontier read window, and the liveness CSR build window: a
    /// quarter of the budget each.
    pub(crate) fn window_bytes(&self) -> usize {
        (self.budget_bytes / 4).max(MIN_SLICE_BYTES)
    }
}

/// Sequential reader over one sorted run file.
struct RunReader {
    file: BufReader<File>,
    /// Hashes still unread.
    left: u64,
}

impl RunReader {
    fn open(path: &PathBuf) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len() / HASH_BYTES as u64;
        Ok(Self {
            file: BufReader::with_capacity(RUN_READ_BUF, file),
            left,
        })
    }

    /// The next hash, or `None` at end of run.
    fn next(&mut self) -> io::Result<Option<u128>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let mut b = [0u8; HASH_BYTES];
        self.file.read_exact(&mut b)?;
        Ok(Some(u128::from_le_bytes(b)))
    }
}

/// The sharded external visited set: an in-RAM delta plus sorted runs on
/// disk, and the spanning tree as a parent log. See the module docs for
/// the discipline. Files live inside the caller's scratch directory,
/// whose guard owns cleanup.
pub(crate) struct SpillSet {
    /// Directory owning every run file (the exploration's scratch dir).
    dir: PathBuf,
    /// Effective flush threshold.
    threshold: usize,
    /// The in-RAM delta: hashes not yet flushed, sharded like the engine.
    recent: Vec<HashSet<u128>>,
    /// Payload bytes currently in the delta.
    recent_bytes: usize,
    /// Largest delta ever held (for the resident accounting).
    peak_recent_bytes: u64,
    /// Sorted, immutable, pairwise-disjoint run files per shard.
    runs: Vec<Vec<PathBuf>>,
    /// Total bytes ever written to disk (runs + compaction rewrites).
    spilled_bytes: u64,
    /// Fresh-file counter.
    file_seq: u64,
    /// `(parent, via)` of every state, in id order.
    parents: ParentLog,
}

impl SpillSet {
    pub(crate) fn create(dir: &Path, cfg: &SpillConfig) -> io::Result<Self> {
        Ok(Self {
            dir: dir.to_path_buf(),
            threshold: cfg.delta_bytes(),
            recent: (0..SHARDS).map(|_| HashSet::new()).collect(),
            recent_bytes: 0,
            peak_recent_bytes: 0,
            runs: vec![Vec::new(); SHARDS],
            spilled_bytes: 0,
            file_seq: 0,
            parents: ParentLog::create(dir.join("parents.log"))?,
        })
    }

    /// Writes every non-empty shard of the delta as one new sorted run
    /// and empties the delta. Shards over [`MAX_RUNS_PER_SHARD`] are
    /// compacted.
    fn flush(&mut self) -> io::Result<()> {
        for shard in 0..SHARDS {
            if self.recent[shard].is_empty() {
                continue;
            }
            let mut hashes: Vec<u128> = self.recent[shard].drain().collect();
            hashes.sort_unstable();
            let path = self.dir.join(format!("s{shard:02}-{}.run", self.file_seq));
            self.file_seq += 1;
            let mut w = BufWriter::new(File::create(&path)?);
            for h in &hashes {
                w.write_all(&h.to_le_bytes())?;
            }
            w.flush()?;
            self.spilled_bytes += (hashes.len() * HASH_BYTES) as u64;
            self.runs[shard].push(path);
            if self.runs[shard].len() > MAX_RUNS_PER_SHARD {
                self.compact(shard)?;
            }
        }
        self.recent_bytes = 0;
        Ok(())
    }

    /// Streaming k-way merge of all of `shard`'s runs into a single run.
    /// Runs are pairwise disjoint (a hash is flushed exactly once), so
    /// the merge is a plain interleave with no dedup.
    fn compact(&mut self, shard: usize) -> io::Result<()> {
        let old = std::mem::take(&mut self.runs[shard]);
        let mut readers = Vec::with_capacity(old.len());
        for p in &old {
            readers.push(RunReader::open(p)?);
        }
        // (current hash, reader index) min-heap via sorted Vec scan —
        // the fan-in is ≤ MAX_RUNS_PER_SHARD + 1, so a linear minimum
        // beats heap bookkeeping.
        let mut heads: Vec<Option<u128>> = Vec::with_capacity(readers.len());
        for r in &mut readers {
            heads.push(r.next()?);
        }
        let path = self.dir.join(format!("s{shard:02}-{}.run", self.file_seq));
        self.file_seq += 1;
        let mut w = BufWriter::new(File::create(&path)?);
        loop {
            let mut min: Option<(u128, usize)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(h) = head {
                    if min.is_none_or(|(mh, _)| *h < mh) {
                        min = Some((*h, i));
                    }
                }
            }
            let Some((h, i)) = min else { break };
            w.write_all(&h.to_le_bytes())?;
            self.spilled_bytes += HASH_BYTES as u64;
            heads[i] = readers[i].next()?;
        }
        w.flush()?;
        drop(readers);
        for p in old {
            fs::remove_file(p)?;
        }
        self.runs[shard] = vec![path];
        Ok(())
    }
}

impl Visited for SpillSet {
    const COMPLETE: bool = false;

    /// Whether `h` is in the in-RAM delta — the only lookup the concurrent
    /// expansion phase performs (no locks, no I/O); hashes already flushed
    /// to disk are caught by [`join`](Self::join). The id is a
    /// placeholder.
    fn find(&self, h: u128) -> Option<u32> {
        self.recent[shard_of(h)].contains(&h).then_some(0)
    }

    /// Merge-joins this layer's candidate hashes against every on-disk
    /// run and returns the subset that is already on disk (states
    /// visited in an earlier, flushed layer).
    ///
    /// Candidates are sorted per shard; each run file is read once,
    /// sequentially, with a two-pointer join. Shards with no runs or no
    /// candidates cost nothing.
    fn join(&self, candidates: impl Iterator<Item = u128>) -> io::Result<HashSet<u128>> {
        let mut by_shard: Vec<Vec<u128>> = vec![Vec::new(); SHARDS];
        for h in candidates {
            by_shard[shard_of(h)].push(h);
        }
        let mut old = HashSet::new();
        for (shard, cands) in by_shard.iter_mut().enumerate() {
            if cands.is_empty() || self.runs[shard].is_empty() {
                continue;
            }
            cands.sort_unstable();
            for path in &self.runs[shard] {
                let mut r = RunReader::open(path)?;
                let mut i = 0;
                while i < cands.len() {
                    let Some(h) = r.next()? else { break };
                    while i < cands.len() && cands[i] < h {
                        i += 1;
                    }
                    if i < cands.len() && cands[i] == h {
                        old.insert(h);
                        i += 1;
                    }
                }
            }
        }
        Ok(old)
    }

    /// Inserts a genuinely fresh hash into the delta, flushing it to
    /// disk if the budget is exceeded, and logs its parent.
    fn insert(&mut self, _: u32, h: u128, edge: (u32, u8), _: bool) -> io::Result<()> {
        self.recent[shard_of(h)].insert(h);
        self.recent_bytes += HASH_BYTES;
        self.peak_recent_bytes = self.peak_recent_bytes.max(self.recent_bytes as u64);
        if self.recent_bytes > self.threshold {
            self.flush()?;
        }
        self.parents.push(edge.0, edge.1)
    }

    fn schedule_to(&mut self, id: u32) -> io::Result<Vec<usize>> {
        self.parents.schedule_to(id)
    }

    /// The delta's peak stands in for the visited set.
    fn resident(&self) -> u64 {
        self.peak_recent_bytes
    }

    fn spilled(&self) -> u64 {
        self.spilled_bytes + self.parents.bytes()
    }
}

/// A layer file read back and the layer file written from it.
type FilePair = (LayerReader, LayerWriter);

/// The on-disk layer store: the current and the next layer as layer
/// files, each layer's fresh successors as a candidate file, and the
/// per-slot machine pool every record's machine ids point into. Files
/// live inside the caller's scratch directory.
pub(crate) struct DiskLayers<M> {
    dir: PathBuf,
    /// States per expansion chunk.
    chunk_states: usize,
    per_state: u64,
    pool: MachinePool<M>,
    /// Index of the current layer, which names its files.
    layer: u64,
    width: u64,
    /// The current layer and its candidate file while it expands...
    expanding: Option<FilePair>,
    /// ...then the candidates read back and the next layer.
    draining: Option<FilePair>,
    /// `fresh_base[worker] + idx` is a fresh state's candidate ordinal.
    fresh_base: Vec<u64>,
    /// Peak bytes of one chunk's materialized states and successors.
    chunk_peak: u64,
    /// Bytes of every finished layer and candidate file.
    disk_bytes: u64,
}

impl<M: StepMachine> DiskLayers<M> {
    /// Starts the store in `dir` with the root as layer 0, expanding
    /// chunks that fit `cfg`'s frontier window.
    pub(crate) fn new(dir: &Path, cfg: &SpillConfig, root: FrontierState<M>) -> io::Result<Self> {
        let (words, slots) = (root.snap.len(), root.machines.len());
        let per_state = frontier_state_bytes::<M>(words, slots);
        // A chunk of `n` frontier states can materialize at most
        // `n × slots` fresh successors before they are streamed out, so
        // the window is divided by the worst-case amplification. Never
        // below one state per chunk.
        let chunk_states = (cfg.window_bytes() as u64 / (per_state * (1 + slots as u64))).max(1);
        let mut pool = MachinePool::new(slots);
        let mut w = LayerWriter::create(&dir.join("layer-0.flr"), words, slots)?;
        w.push(0, &root.done, &pool.intern_all(&root.machines), &root.snap)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            chunk_states: chunk_states as usize,
            per_state,
            pool,
            layer: 0,
            disk_bytes: w.bytes(),
            width: w.finish()?,
            expanding: None,
            draining: None,
            fresh_base: Vec::new(),
            chunk_peak: 0,
        })
    }

    fn path(&self, (kind, layer): (&str, u64)) -> PathBuf {
        self.dir.join(format!("{kind}-{layer}.flr"))
    }

    /// Opens file `read` and creates file `write` for records of the same
    /// shape; a file is named by its kind and layer.
    fn open_pair(&self, read: (&str, u64), write: (&str, u64)) -> io::Result<FilePair> {
        let r = LayerReader::open(&self.path(read))?;
        let w = LayerWriter::create(&self.path(write), r.words(), r.machines())?;
        Ok((r, w))
    }
}

impl<M: StepMachine> Layers<M> for DiskLayers<M> {
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        mut step: impl FnMut(&[FrontierState<M>], usize, u32) -> Vec<Fresh<M>>,
    ) -> io::Result<()> {
        if only.is_none() {
            self.expanding = Some(self.open_pair(("layer", self.layer), ("cand", self.layer))?);
            self.fresh_base.clear();
            self.chunk_peak = 0;
        }
        let (layer, cand) = self.expanding.as_mut().expect("expand opens the layer");
        let total = only.map_or(self.width as usize, <[u32]>::len);
        let mut first = 0;
        while first < total {
            let recs = match only {
                None => layer.read_range(first as u64, self.chunk_states)?,
                Some(ords) => ords[first..(first + self.chunk_states).min(total)]
                    .iter()
                    .map(|&o| layer.read_at(u64::from(o)))
                    .collect::<io::Result<_>>()?,
            };
            let chunk: Vec<FrontierState<M>> = recs
                .into_iter()
                .map(|r| FrontierState {
                    machines: self.pool.machines(&r.machine_ids),
                    snap: r.snap,
                    done: r.done,
                    id: r.id,
                })
                .collect();
            let found = step(&chunk, first, self.fresh_base.len() as u32);
            if only.is_none() {
                let materialized: usize = found.iter().map(Vec::len).sum();
                let bytes = (chunk.len() + materialized) as u64 * self.per_state;
                self.chunk_peak = self.chunk_peak.max(bytes);
            }
            for fresh in found {
                self.fresh_base.push(cand.count());
                for st in fresh {
                    let st = st.expect("fresh states are untouched before the drain");
                    let ids = self.pool.intern_all(&st.machines);
                    cand.push(u32::MAX, &st.done, &ids, &st.snap)?;
                }
            }
            first += chunk.len();
        }
        Ok(())
    }

    fn end_expansion(&mut self) -> io::Result<()> {
        let (layer, cand) = self.expanding.take().expect("end_expansion follows expand");
        drop(layer);
        self.disk_bytes += cand.bytes();
        cand.finish()?;
        self.draining = Some(self.open_pair(("cand", self.layer), ("layer", self.layer + 1))?);
        Ok(())
    }

    fn admit(
        &mut self,
        worker: u32,
        idx: u32,
        id: u32,
        check: impl FnOnce(&FrontierState<M>) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>> {
        let (cand, next) = self.draining.as_mut().expect("admit follows end_expansion");
        let rec = cand.read_at(self.fresh_base[worker as usize] + u64::from(idx))?;
        let machines = self.pool.machines(&rec.machine_ids);
        let st = FrontierState {
            snap: rec.snap,
            machines,
            done: rec.done,
            id,
        };
        let verdict = check(&st)?;
        // Survivors keep their interned ids; nothing is re-interned.
        next.push(id, &st.done, &rec.machine_ids, &st.snap)?;
        Ok(verdict)
    }

    fn advance(&mut self) -> io::Result<u64> {
        let (cand, next) = self.draining.take().expect("advance follows end_expansion");
        drop(cand);
        self.disk_bytes += next.bytes();
        self.width = next.finish()?;
        // The consumed layer and candidate files are dead: remove them
        // eagerly so disk usage stays O(current + next layer), not
        // O(total states).
        fs::remove_file(self.path(("layer", self.layer)))?;
        fs::remove_file(self.path(("cand", self.layer)))?;
        self.layer += 1;
        Ok(self.width)
    }

    /// The chunk peak stands in for the frontier; the machine pool is
    /// counted in full. Parents and the layers themselves are on disk.
    fn resident(&self) -> u64 {
        self.chunk_peak + self.pool.bytes()
    }

    fn spilled(&self) -> u64 {
        self.disk_bytes
    }
}
