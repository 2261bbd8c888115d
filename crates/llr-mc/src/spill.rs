//! External-memory exploration: the disk-backed stores of the
//! breadth-first loop — a spill-to-disk visited set **and** a
//! spill-to-disk frontier.
//!
//! The in-RAM stores of the loop ([`crate::engine`]) hold every visited
//! state hash in a sharded map and every frontier state's packed record in
//! flat buffers, so their ceiling is the host's memory — first through
//! the visited set (grows with *total* states), then through the frontier
//! (grows with the *widest layer*). These stores lift both ceilings
//! while preserving the exact counts and deterministic violation
//! schedules bit-for-bit:
//!
//! * Dedup is by 128-bit state hash (the same
//!   [`Hash128`](crate::checker::Hash128) as the in-RAM store); hashes
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
//!   delta) are sorted per shard and **joined against every run** in
//!   blocks. A run is read sequentially, `RUN_READ_BUF` (1 MiB) at a
//!   time, into one reused buffer, and each candidate up to a block's
//!   last hash is placed inside that block by binary search, with no
//!   per-hash read or decode; a run is read only until every candidate
//!   of its shard is placed. Candidates found on disk are dropped before
//!   ids are assigned.
//! * The **frontier lives in per-layer files** ([`crate::frontier`]):
//!   each layer is an append-only file of the loop's packed records
//!   (state id, per-slot done flags and machine ids, one block id per
//!   8-register block) — the bytes the in-RAM layer store keeps — written
//!   in id order, which *is* `(parent, via)` order, so writes are
//!   streaming.
//!   Expansion reads the layer back as a bounded-buffer sequential scan:
//!   one chunk at a time, small enough that its records and every
//!   successor record it can produce fit a quarter of the budget,
//!   expanded by the loop's workers against the **layer-persistent**
//!   pending set (chunk workers get globally unique ids). Successor
//!   records are streamed to a per-layer *candidate* file as they are and
//!   re-read by ordinal at the join. Machine structs and register blocks
//!   are interned per position in the loop's two pools, which both layer
//!   stores share, so records store a `u32` per machine and a word per
//!   block, and nothing is converted on the way to or from disk.
//! * The spanning-tree parents go to an append-only **parent log** (5
//!   bytes per state); violation schedules are reconstructed by walking
//!   the log backwards with point reads.
//!
//! Because the drop set is a pure membership fact and chunking changes
//! only *which worker* first writes a state's record (the min-merged
//! `(parent, via)` edge and the drain order do not change), the
//! surviving states, their id order, the invariant-check order and hence
//! the first reported violation are identical to the in-RAM engines at
//! every worker count and every budget — `tests/engine_equivalence.rs`
//! pins this, including with a zero budget that forces runs out
//! mid-layer and single-state expansion chunks.
//!
//! One budget governs every structure that scales with the state space
//! ([`SpillConfig`] splits it): half bounds the visited-set delta, a
//! quarter bounds the frontier chunk buffer (at least one state; a chunk
//! of `n` records can produce at most `n` × the relation's move bound
//! successor records — a step per machine, plus a crash per machine while
//! the fault model is on — and they are counted against it too), and the
//! last quarter bounds the liveness CSR build window. What stays in RAM
//! is *accounted but not bounded*: the per-layer pending set (≈48 bytes
//! per candidate) and the two pools (grow with the per-position machine
//! and register-block diversity of the layers in flight, not with
//! states). The run blocks are neither charged nor bounded, like the
//! files' read and write buffers: the join's one `RUN_READ_BUF` buffer,
//! kept for the whole run, and while a shard compacts, one block per
//! input run, the first of them the join's.
//! [`CheckStats::peak_resident_bytes`](crate::CheckStats::peak_resident_bytes)
//! reports the deterministic per-layer peak over all of it.
//!
//! ```text
//!        layer file N ──sequential chunk reads──► expansion workers
//!      (id|done|mach|blocks        │                (parallel, no I/O)
//!       fixed-size records)        │ ≤ budget/4 of records     │
//!            ▲                     │ per chunk                 ▼
//!            │                                         pending (64 shards,
//!   parent log (5 B/state,                             layer-persistent)
//!   walked backwards on            candidate file            │ drain,
//!   violation)                  ◄──stream fresh──┘           │ sort (parent,via)
//!            ▲                     │ re-read by ordinal       ▼
//!            │                     ▼                     candidates
//!     delta (RAM, ≤ budget/2)   runs (disk, sorted)          │
//!     ┌───────────────┐         ┌────┐┌────┐┌────┐           │ block join:
//!     │ shard 0..63   │         │ r0 ││ r1 ││ r2 │ ──────────┤ drop hashes
//!     └──────┬────────┘         └─┬──┘└─┬──┘└─┬──┘           │ found on disk
//!            │ flush at budget/2  └─────┴─────┴── compact    ▼
//!            ▼                        (when >8)      survivors: assign ids,
//!       new sorted run                               check invariant,
//!                                                    append layer file N+1
//! ```

use crate::checker::DigestSet;
use crate::engine::{shard_of, Layers, Visited, SHARDS};
use crate::frontier::{LayerReader, LayerWriter, ParentLog, RecordCodec, Renumber};
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
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

/// Bytes per block read from a run file, by the join and by compaction:
/// a whole number of hashes.
const RUN_READ_BUF: usize = 1 << 20;
const _: () = assert!(
    RUN_READ_BUF.is_multiple_of(HASH_BYTES),
    "a block holds whole hashes"
);

/// The disk stores' directory and budget, resolved from an
/// [`Engine::Spill`](crate::Engine::Spill).
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

/// A sorted run file read back `RUN_READ_BUF` bytes at a time into a
/// caller's buffer: the one way a run is read, by the join and by
/// compaction.
struct RunBlocks {
    file: File,
    /// Bytes still unread.
    left: u64,
}

impl RunBlocks {
    fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        if !left.is_multiple_of(HASH_BYTES as u64) {
            let torn = format!("{} holds a partial hash", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, torn));
        }
        Ok(Self { file, left })
    }

    /// Reads the run's next block into `buf` and returns its hashes, in
    /// place; none at the end of the run. `buf` only grows, so a buffer
    /// reused across runs is zeroed once.
    fn next<'b>(&mut self, buf: &'b mut Vec<u8>) -> io::Result<&'b [[u8; HASH_BYTES]]> {
        let n = self.left.min(RUN_READ_BUF as u64) as usize;
        if buf.len() < n {
            buf.resize(n, 0);
        }
        self.file.read_exact(&mut buf[..n])?;
        self.left -= n as u64;
        Ok(buf[..n].as_chunks().0)
    }
}

/// The index of the first of `hashes[from..]`, which are sorted, that is
/// not below `h`: `hashes.len()` if there is none.
fn seek(hashes: &[[u8; HASH_BYTES]], from: usize, h: u128) -> usize {
    from + hashes[from..].partition_point(|b| u128::from_le_bytes(*b) < h)
}

/// One input run of a compaction: its current block and the index of its
/// next hash there.
struct Merging {
    run: RunBlocks,
    buf: Vec<u8>,
    /// Hashes in the current block; 0 once the run is spent.
    len: usize,
    at: usize,
}

impl Merging {
    /// Opens the run at `path` and reads its first block into `buf`.
    fn open(path: &Path, mut buf: Vec<u8>) -> io::Result<Self> {
        let mut run = RunBlocks::open(path)?;
        let len = run.next(&mut buf)?.len();
        Ok(Self {
            run,
            buf,
            len,
            at: 0,
        })
    }

    fn block(&self) -> &[[u8; HASH_BYTES]] {
        &self.buf.as_chunks().0[..self.len]
    }

    fn head(&self) -> Option<u128> {
        let b = self.block().get(self.at)?;
        Some(u128::from_le_bytes(*b))
    }

    /// Moves past the hashes before `to`, reading the next block once the
    /// current one is spent.
    fn advance(&mut self, to: usize) -> io::Result<()> {
        self.at = to;
        if self.at == self.len {
            self.len = self.run.next(&mut self.buf)?.len();
            self.at = 0;
        }
        Ok(())
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
    recent: Vec<DigestSet>,
    /// Payload bytes currently in the delta.
    recent_bytes: usize,
    /// Largest delta ever held (for the resident accounting).
    peak_recent_bytes: u64,
    /// Sorted, immutable, pairwise-disjoint run files per shard.
    runs: Vec<Vec<PathBuf>>,
    /// The block every join reads runs into, and compaction's first input
    /// block; not charged, like a file buffer.
    block: Vec<u8>,
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
            recent: (0..SHARDS).map(|_| DigestSet::default()).collect(),
            recent_bytes: 0,
            peak_recent_bytes: 0,
            runs: vec![Vec::new(); SHARDS],
            block: Vec::new(),
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
    /// Each input run is read in blocks, as the join reads it, into a
    /// buffer of its own; the first input borrows the join's. Runs are
    /// pairwise disjoint (a hash is flushed exactly once), so the merge is
    /// a plain interleave with no dedup: each step copies the input with
    /// the least next hash, up to the least next hash of the others, in
    /// one write.
    fn compact(&mut self, shard: usize) -> io::Result<()> {
        let old = std::mem::take(&mut self.runs[shard]);
        let bufs =
            std::iter::once(std::mem::take(&mut self.block)).chain(std::iter::repeat(vec![]));
        let mut inputs = (old.iter().zip(bufs))
            .map(|(p, buf)| Merging::open(p, buf))
            .collect::<io::Result<Vec<_>>>()?;
        let path = self.dir.join(format!("s{shard:02}-{}.run", self.file_seq));
        self.file_seq += 1;
        let mut w = BufWriter::new(File::create(&path)?);
        // The fan-in is ≤ MAX_RUNS_PER_SHARD + 1, so a linear minimum beats
        // heap bookkeeping.
        loop {
            // The input with the least next hash, and the least next hash
            // of the others.
            let heads = || (inputs.iter().enumerate()).filter_map(|(i, m)| Some((m.head()?, i)));
            let Some((_, i)) = heads().min() else { break };
            let bound = heads().filter(|&(_, j)| j != i).map(|(h, _)| h).min();
            let m = &mut inputs[i];
            let end = bound.map_or(m.len, |b| seek(m.block(), m.at, b));
            w.write_all(m.block()[m.at..end].as_flattened())?;
            self.spilled_bytes += ((end - m.at) * HASH_BYTES) as u64;
            m.advance(end)?;
        }
        w.flush()?;
        self.block = std::mem::take(&mut inputs[0].buf);
        drop(inputs);
        for p in old {
            fs::remove_file(p)?;
        }
        self.runs[shard] = vec![path];
        Ok(())
    }
}

#[cfg(test)]
impl SpillSet {
    /// Every shard's run files.
    pub(crate) fn runs(&self) -> &[Vec<PathBuf>] {
        &self.runs
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

    /// Joins this layer's candidate hashes against every on-disk run and
    /// returns the subset that is already on disk (states visited in an
    /// earlier, flushed layer).
    ///
    /// Candidates are sorted per shard. Each run is read in blocks of
    /// `RUN_READ_BUF` bytes into one reused buffer, and every candidate up
    /// to a block's last hash is placed in that block by binary search,
    /// starting where the previous candidate was placed. A run is read
    /// only until every candidate is placed. Shards with no runs or no
    /// candidates cost nothing.
    fn join(&mut self, candidates: impl Iterator<Item = u128>) -> io::Result<DigestSet> {
        let mut by_shard: Vec<Vec<u128>> = vec![Vec::new(); SHARDS];
        for h in candidates {
            by_shard[shard_of(h)].push(h);
        }
        let mut old = DigestSet::default();
        for (shard, cands) in by_shard.iter_mut().enumerate() {
            if cands.is_empty() || self.runs[shard].is_empty() {
                continue;
            }
            cands.sort_unstable();
            for path in &self.runs[shard] {
                let mut run = RunBlocks::open(path)?;
                // The first candidate not yet placed in this run.
                let mut next = 0;
                while next < cands.len() {
                    let block = run.next(&mut self.block)?;
                    let Some(last) = block.last() else { break };
                    let last = u128::from_le_bytes(*last);
                    let mut at = 0;
                    while next < cands.len() && cands[next] <= last {
                        let h = cands[next];
                        at = seek(block, at, h);
                        if u128::from_le_bytes(block[at]) == h {
                            old.insert(h);
                        }
                        next += 1;
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

/// States per expansion chunk: as many as fit `window` bytes together with
/// every successor they can enable, `max_moves` records each
/// ([`Relation::max_moves`](crate::relation::Relation::max_moves)), and
/// never fewer than one.
pub(crate) fn chunk_states(window: usize, record: usize, max_moves: usize) -> usize {
    (window / (record * (1 + max_moves))).max(1)
}

/// The on-disk layer store: the current and the next layer as layer
/// files, and each layer's fresh successors as a candidate file, all of
/// them records whose machine and block ids point into the loop's pools.
/// Files live inside the caller's scratch directory.
pub(crate) struct DiskLayers {
    dir: PathBuf,
    codec: RecordCodec,
    /// States per expansion chunk.
    chunk_states: usize,
    /// Index of the current layer, which names its files.
    layer: u64,
    width: u64,
    /// The current layer and its candidate file while it expands...
    expanding: Option<FilePair>,
    /// ...then the candidates read back and the next layer.
    draining: Option<FilePair>,
    /// `fresh_base[worker] + idx` is a fresh state's candidate ordinal.
    fresh_base: Vec<u64>,
    /// Peak bytes of one chunk's records and the fresh records expanded
    /// from it.
    chunk_peak: u64,
    /// Bytes of every finished layer and candidate file.
    disk_bytes: u64,
    /// The chunk being expanded, then the candidate being admitted.
    buf: Vec<u8>,
    /// The id maps of the current layer's file, if a pool dropped values
    /// after the file was written.
    renumber: Option<Renumber>,
}

impl DiskLayers {
    /// Starts the store in `dir` with the record `root` as layer 0,
    /// expanding chunks that fit `cfg`'s frontier window with every
    /// successor, at most `max_moves` per state.
    pub(crate) fn new(
        dir: &Path,
        cfg: &SpillConfig,
        codec: RecordCodec,
        root: &[u8],
        max_moves: usize,
    ) -> io::Result<Self> {
        let mut w = LayerWriter::create(&dir.join("layer-0.flr"), codec.words(), codec.slots())?;
        w.push_records(root)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            codec,
            chunk_states: chunk_states(cfg.window_bytes(), codec.bytes(), max_moves),
            layer: 0,
            disk_bytes: w.bytes(),
            width: w.finish()?,
            expanding: None,
            draining: None,
            fresh_base: Vec::new(),
            chunk_peak: 0,
            buf: Vec::new(),
            renumber: None,
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

impl Layers for DiskLayers {
    fn expand(
        &mut self,
        only: Option<&[u32]>,
        mut step: impl FnMut(&[Vec<u8>], usize, u32) -> Vec<Vec<u8>>,
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
            let n = self.chunk_states.min(total - first);
            self.buf.clear();
            match only {
                None => {
                    layer.read_records(first as u64, n, &mut self.buf)?;
                }
                Some(ords) => {
                    for &o in &ords[first..first + n] {
                        layer.read_record_at(u64::from(o), &mut self.buf)?;
                    }
                }
            }
            if let Some(map) = &self.renumber {
                self.codec.renumber(&mut self.buf, map);
            }
            let chunk = std::slice::from_ref(&self.buf);
            let found = step(chunk, first, self.fresh_base.len() as u32);
            let fresh: usize = found.iter().map(Vec::len).sum();
            self.chunk_peak = self.chunk_peak.max((self.buf.len() + fresh) as u64);
            for records in found {
                self.fresh_base.push(cand.count());
                cand.push_records(&records)?;
            }
            first += n;
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
        check: impl FnOnce(&[u8]) -> io::Result<Result<(), String>>,
    ) -> io::Result<Result<(), String>> {
        let (cand, next) = self.draining.as_mut().expect("admit follows end_expansion");
        self.buf.clear();
        cand.read_record_at(
            self.fresh_base[worker as usize] + u64::from(idx),
            &mut self.buf,
        )?;
        self.codec.set_id(&mut self.buf, id);
        let verdict = check(&self.buf)?;
        // Survivors keep their interned ids; nothing is re-interned.
        next.push_records(&self.buf)?;
        Ok(verdict)
    }

    fn advance(&mut self, renumber: &Renumber) -> io::Result<u64> {
        self.renumber = (!renumber.is_empty()).then(|| renumber.clone());
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

    /// The chunk peak stands in for the frontier. Parents and the layers
    /// themselves are on disk.
    fn resident(&self) -> u64 {
        self.chunk_peak
    }

    fn spilled(&self) -> u64 {
        self.disk_bytes
    }
}
