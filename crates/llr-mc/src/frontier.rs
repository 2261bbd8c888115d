//! On-disk breadth-first frontier layers and the reversed-edge CSR.
//!
//! The spill backend (`crate::spill`) bounds the visited-set delta, but
//! until this module the *frontier* itself — one register-file snapshot
//! plus a machine vector per state in the widest layer — and the liveness
//! checker's full edge list still lived in RAM. This module puts both on
//! disk:
//!
//! * **Layer files** ([`LayerWriter`] / [`LayerReader`]): an append-only
//!   per-layer format holding one fixed-size record per frontier state.
//!   Layers are produced sequentially (states are assigned ids in
//!   `(parent, via)` order and written in that order), so writes are
//!   streaming; reads are a bounded-buffer sequential scan
//!   ([`LayerReader::read_range`]) feeding the expansion workers, plus
//!   point reads ([`LayerReader::read_at`]) for the partial-order
//!   reduction patch-up.
//! * **Machine pool** (`MachinePool`, crate-internal): records store a
//!   per-slot intern id instead of the machine struct, so a machine
//!   configuration recurring across millions of states costs disk bytes
//!   once per *slot-local* distinct value. Interning is per machine slot
//!   because [`StepMachine::key`] is injective only within one slot's
//!   lineage (two different pids can share a key).
//! * **Parent log** (`ParentLog`, crate-internal): the spanning-tree
//!   `(parent, via)` pairs as packed 5-byte records, appended in id
//!   order; violation schedules are reconstructed by walking the file
//!   backwards with point reads.
//! * **Edge log and disk CSR** (`EdgeLog` / `DiskCsr`,
//!   crate-internal): the liveness checker streams `(from, to)` pairs to
//!   an append-only log during the forward pass, then bucket-partitions
//!   them into a reversed-edge CSR predecessor file with an external
//!   counting sort whose working buffer never exceeds the configured
//!   window; the backward marking reads predecessor runs through
//!   per-worker file handles.
//!
//! Every file lives in a `ScratchDir` that is removed on drop, and
//! every reader validates its header **loudly**: a torn or truncated
//! file (wrong magic, unfinalized record count, byte length that does
//! not match `header + count × record_size`) is an explicit
//! [`io::Error`], never a silently short read.

use crate::StepMachine;
use llr_mem::Word;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic number opening every layer file (`b"LLRFLR1\0"`).
const LAYER_MAGIC: [u8; 8] = *b"LLRFLR1\0";

/// Header: magic (8) + words (4) + machines (4) + record count (8).
const HEADER_BYTES: u64 = 24;

/// Byte offset of the record-count field within the header.
const COUNT_OFFSET: u64 = 16;

/// Sentinel record count written at creation and replaced by
/// [`LayerWriter::finish`]; a reader that sees it knows the writer never
/// finalized the file.
const COUNT_SENTINEL: u64 = u64::MAX;

/// Buffered I/O capacity for layer readers and writers.
const LAYER_BUF: usize = 1 << 16;

/// Monotone counter so concurrent checkers in one process get distinct
/// scratch subdirectories.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A uniquely named scratch subdirectory removed (with all its contents)
/// on drop. Both the spill visited set and the on-disk frontier/CSR
/// files of one exploration live inside a single guard.
pub(crate) struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh `llr-mc-spill-<pid>-<seq>` subdirectory of
    /// `parent`.
    pub(crate) fn create(parent: &Path) -> io::Result<Self> {
        let unique = format!(
            "llr-mc-spill-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = parent.join(unique);
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Number of bytes one layer record occupies on disk: the state id, one
/// done flag and one machine intern id per machine slot, and the full
/// register-file snapshot.
pub fn layer_record_bytes(words: usize, machines: usize) -> u64 {
    4 + machines as u64 * 5 + words as u64 * 8
}

/// One decoded frontier-layer record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRecord {
    /// Global state id (writers of *candidate* records that have no id
    /// yet store `u32::MAX`).
    pub id: u32,
    /// Per-slot done flags.
    pub done: Vec<bool>,
    /// Per-slot machine intern ids (see `MachinePool`).
    pub machine_ids: Vec<u32>,
    /// The register-file snapshot.
    pub snap: Vec<Word>,
}

/// Streaming writer for one on-disk frontier layer.
///
/// Records are appended with [`push`](Self::push) and the file becomes
/// readable only after [`finish`](Self::finish) patches the record count
/// into the header — an unfinalized (torn) file is rejected loudly by
/// [`LayerReader::open`].
///
/// # Example
///
/// A layer written record-by-record reads back exactly:
///
/// ```
/// use llr_mc::frontier::{LayerReader, LayerWriter};
///
/// let dir = std::env::temp_dir().join(format!("flr-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("layer-0.flr");
///
/// // Two machine slots over a three-register file.
/// let mut w = LayerWriter::create(&path, 3, 2).unwrap();
/// w.push(0, &[false, true], &[4, 7], &[10, 20, 30]).unwrap();
/// w.push(1, &[true, true], &[5, 7], &[11, 21, 31]).unwrap();
/// assert_eq!(w.finish().unwrap(), 2);
///
/// let mut r = LayerReader::open(&path).unwrap();
/// assert_eq!(r.count(), 2);
/// let recs = r.read_range(0, 2).unwrap();
/// assert_eq!(recs[1].snap, vec![11, 21, 31]);
/// assert_eq!(recs[0].machine_ids, vec![4, 7]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct LayerWriter {
    w: BufWriter<File>,
    words: usize,
    machines: usize,
    count: u64,
}

impl LayerWriter {
    /// Creates the file and writes a header with the sentinel count.
    /// `words` is the register-file width, `machines` the machine slot
    /// count; every pushed record must match.
    pub fn create(path: &Path, words: usize, machines: usize) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut w = BufWriter::with_capacity(LAYER_BUF, file);
        w.write_all(&LAYER_MAGIC)?;
        w.write_all(&u32::try_from(words).expect("register file exceeds u32 words").to_le_bytes())?;
        w.write_all(
            &u32::try_from(machines).expect("machine count exceeds u32").to_le_bytes(),
        )?;
        w.write_all(&COUNT_SENTINEL.to_le_bytes())?;
        Ok(Self {
            w,
            words,
            machines,
            count: 0,
        })
    }

    /// Appends one record. `done`/`machine_ids` must have one entry per
    /// machine slot and `snap` must span the register file.
    pub fn push(
        &mut self,
        id: u32,
        done: &[bool],
        machine_ids: &[u32],
        snap: &[Word],
    ) -> io::Result<()> {
        assert_eq!(done.len(), self.machines, "done flags must cover every slot");
        assert_eq!(machine_ids.len(), self.machines, "machine ids must cover every slot");
        assert_eq!(snap.len(), self.words, "snapshot must span the register file");
        self.w.write_all(&id.to_le_bytes())?;
        for (&d, &m) in done.iter().zip(machine_ids) {
            self.w.write_all(&[d as u8])?;
            self.w.write_all(&m.to_le_bytes())?;
        }
        for &word in snap {
            self.w.write_all(&word.to_le_bytes())?;
        }
        self.count += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total bytes this file will occupy once finalized.
    pub fn bytes(&self) -> u64 {
        HEADER_BYTES + self.count * layer_record_bytes(self.words, self.machines)
    }

    /// Flushes, patches the record count into the header, and returns
    /// the count. Until this runs the file is deliberately unreadable.
    pub fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        let mut file = self.w.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(COUNT_OFFSET))?;
        file.write_all(&self.count.to_le_bytes())?;
        Ok(self.count)
    }
}

/// Reader over a finalized layer file.
///
/// [`open`](Self::open) validates the header and the byte length against
/// the recorded count, so a torn file fails loudly instead of yielding a
/// silently short layer. Sequential scans use
/// [`read_range`](Self::read_range) (bounded caller-chosen chunks);
/// [`read_at`](Self::read_at) seeks to a single record.
pub struct LayerReader {
    file: BufReader<File>,
    words: usize,
    machines: usize,
    count: u64,
    record: u64,
    /// Ordinal of the record the underlying cursor sits at, to skip
    /// redundant seeks during pure sequential scans.
    pos: u64,
}

impl LayerReader {
    /// Opens and validates a layer file.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if the magic is wrong, the count is
    /// still the writer's sentinel (the file was never finalized), or the
    /// file length does not equal `header + count × record_size` — plus
    /// any underlying I/O error.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut file = BufReader::with_capacity(LAYER_BUF, file);
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if len < HEADER_BYTES {
            return Err(bad(format!(
                "layer file {}: truncated header ({len} bytes)",
                path.display()
            )));
        }
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        if header[..8] != LAYER_MAGIC {
            return Err(bad(format!("layer file {}: bad magic", path.display())));
        }
        let words = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let machines = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let count = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if count == COUNT_SENTINEL {
            return Err(bad(format!(
                "layer file {}: not finalized (writer never ran finish, the file is torn)",
                path.display()
            )));
        }
        let record = layer_record_bytes(words, machines);
        let expect = HEADER_BYTES + count * record;
        if len != expect {
            return Err(bad(format!(
                "layer file {}: truncated or torn: {len} bytes on disk, header \
                 declares {count} records of {record} bytes ({expect} bytes expected)",
                path.display()
            )));
        }
        Ok(Self {
            file,
            words,
            machines,
            count,
            record,
            pos: 0,
        })
    }

    /// Records in the layer.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Register-file width every record carries.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Machine slots every record carries.
    pub fn machines(&self) -> usize {
        self.machines
    }

    fn decode(&self, buf: &[u8]) -> LayerRecord {
        let id = u32::from_le_bytes(buf[..4].try_into().unwrap());
        let mut done = Vec::with_capacity(self.machines);
        let mut machine_ids = Vec::with_capacity(self.machines);
        let mut at = 4;
        for _ in 0..self.machines {
            done.push(buf[at] != 0);
            machine_ids.push(u32::from_le_bytes(buf[at + 1..at + 5].try_into().unwrap()));
            at += 5;
        }
        let mut snap = Vec::with_capacity(self.words);
        for _ in 0..self.words {
            snap.push(u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()));
            at += 8;
        }
        LayerRecord {
            id,
            done,
            machine_ids,
            snap,
        }
    }

    fn seek_to(&mut self, ordinal: u64) -> io::Result<()> {
        if self.pos != ordinal {
            self.file
                .seek(SeekFrom::Start(HEADER_BYTES + ordinal * self.record))?;
            self.pos = ordinal;
        }
        Ok(())
    }

    /// Reads `n` records starting at `start` (clamped to the layer end)
    /// into a fresh buffer — the bounded-buffer sequential scan feeding
    /// the expansion workers.
    pub fn read_range(&mut self, start: u64, n: usize) -> io::Result<Vec<LayerRecord>> {
        let n = (n as u64).min(self.count.saturating_sub(start)) as usize;
        self.seek_to(start)?;
        let mut buf = vec![0u8; self.record as usize];
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.file.read_exact(&mut buf)?;
            out.push(self.decode(&buf));
        }
        self.pos = start + n as u64;
        Ok(out)
    }

    /// Point-reads the record at `ordinal`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of range.
    pub fn read_at(&mut self, ordinal: u64) -> io::Result<LayerRecord> {
        assert!(ordinal < self.count, "record {ordinal} out of range");
        self.seek_to(ordinal)?;
        let mut buf = vec![0u8; self.record as usize];
        self.file.read_exact(&mut buf)?;
        self.pos = ordinal + 1;
        Ok(self.decode(&buf))
    }
}

/// Approximate per-interned-machine bookkeeping overhead (key box, map
/// slot, id) on top of the machine struct itself.
const POOL_OVERHEAD_BYTES: u64 = 48;

/// Per-slot machine interning: layer records store a `u32` per slot
/// instead of the machine struct. Interning is per slot because
/// [`StepMachine::key`] is only injective within one slot's lineage.
pub(crate) struct MachinePool<M> {
    index: Vec<HashMap<Box<[u64]>, u32>>,
    items: Vec<Vec<M>>,
    bytes: u64,
    /// Key scratch buffer.
    keybuf: Vec<u64>,
}

impl<M: StepMachine> MachinePool<M> {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            index: (0..slots).map(|_| HashMap::new()).collect(),
            items: (0..slots).map(|_| Vec::new()).collect(),
            bytes: 0,
            keybuf: Vec::new(),
        }
    }

    /// Interns every slot's machine into that slot, returning the stable
    /// ids.
    pub(crate) fn intern_all(&mut self, machines: &[M]) -> Vec<u32> {
        machines
            .iter()
            .enumerate()
            .map(|(slot, m)| self.intern(slot, m))
            .collect()
    }

    /// Interns `m` into `slot`, returning its stable id.
    fn intern(&mut self, slot: usize, m: &M) -> u32 {
        self.keybuf.clear();
        m.key(&mut self.keybuf);
        if let Some(&id) = self.index[slot].get(self.keybuf.as_slice()) {
            return id;
        }
        let id = u32::try_from(self.items[slot].len()).expect("machine pool exceeds u32 ids");
        self.bytes +=
            (self.keybuf.len() * 8) as u64 + std::mem::size_of::<M>() as u64 + POOL_OVERHEAD_BYTES;
        self.index[slot].insert(self.keybuf.as_slice().into(), id);
        self.items[slot].push(m.clone());
        id
    }

    /// Clones of the machines interned under `ids`, one per slot.
    pub(crate) fn machines(&self, ids: &[u32]) -> Vec<M> {
        ids.iter()
            .zip(&self.items)
            .map(|(&id, items)| items[id as usize].clone())
            .collect()
    }

    /// Tracked payload bytes (structs + keys + map overhead), for the
    /// deterministic resident accounting.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Packed bytes of one parent-log record: `u32` parent + `u8` via.
const PARENT_RECORD: u64 = 5;

/// Append-only spanning-tree log: record `i` holds `(parent, via)` of
/// state id `i`. Schedules are rebuilt by walking the file backwards.
pub(crate) struct ParentLog {
    w: BufWriter<File>,
    path: PathBuf,
    count: u64,
}

impl ParentLog {
    pub(crate) fn create(path: PathBuf) -> io::Result<Self> {
        let w = BufWriter::with_capacity(LAYER_BUF, File::create(&path)?);
        Ok(Self { w, path, count: 0 })
    }

    pub(crate) fn push(&mut self, parent: u32, via: u8) -> io::Result<()> {
        self.w.write_all(&parent.to_le_bytes())?;
        self.w.write_all(&[via])?;
        self.count += 1;
        Ok(())
    }

    /// Bytes appended so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.count * PARENT_RECORD
    }

    /// Reconstructs the schedule reaching `id` by walking parent records
    /// backwards (the on-disk analogue of the in-RAM parent vector walk).
    pub(crate) fn schedule_to(&mut self, mut id: u32) -> io::Result<Vec<usize>> {
        self.w.flush()?;
        let mut file = File::open(&self.path)?;
        let mut schedule = Vec::new();
        let mut buf = [0u8; PARENT_RECORD as usize];
        loop {
            file.seek(SeekFrom::Start(id as u64 * PARENT_RECORD))?;
            file.read_exact(&mut buf)?;
            let parent = u32::from_le_bytes(buf[..4].try_into().unwrap());
            if parent == u32::MAX {
                break;
            }
            schedule.push(crate::relation::via_entry(buf[4]));
            id = parent;
        }
        schedule.reverse();
        Ok(schedule)
    }
}

/// Append-only log of `(from, to)` transition pairs, 8 bytes each —
/// the liveness checker's forward pass streams here instead of growing
/// an in-RAM edge list.
pub(crate) struct EdgeLog {
    w: BufWriter<File>,
    pub(crate) path: PathBuf,
    /// Pairs appended so far.
    pub(crate) count: u64,
}

impl EdgeLog {
    pub(crate) fn create(path: PathBuf) -> io::Result<Self> {
        let w = BufWriter::with_capacity(LAYER_BUF, File::create(&path)?);
        Ok(Self { w, path, count: 0 })
    }

    pub(crate) fn push(&mut self, from: u32, to: u32) -> io::Result<()> {
        self.w.write_all(&from.to_le_bytes())?;
        self.w.write_all(&to.to_le_bytes())?;
        self.count += 1;
        Ok(())
    }

    /// Flushes the log for the CSR build, returning its pair count.
    pub(crate) fn finish(&mut self) -> io::Result<u64> {
        self.w.flush()?;
        Ok(self.count)
    }
}

/// The reversed-edge CSR with its flat predecessor array on disk.
///
/// `off[s]..off[s + 1]` (record ordinals) is the predecessor run of
/// state `s` inside the preds file; the offset array stays in RAM
/// (`8(n + 1)` bytes, linear in states — the structure that scaled with
/// *edges* is the one on disk). Built by an external counting sort whose
/// working buffer is bounded by the configured window.
pub(crate) struct DiskCsr {
    pub(crate) off: Vec<u64>,
    path: PathBuf,
    /// Peak working-buffer bytes actually used by the build.
    pub(crate) build_window_bytes: u64,
}

impl DiskCsr {
    /// Builds the reversed CSR for an `n`-state graph from `edge_path`
    /// (an [`EdgeLog`] file), writing the predecessor file next to it.
    /// The bucket working buffer never exceeds
    /// `window_bytes.max(one state's predecessor run)`.
    pub(crate) fn build(
        edge_path: &Path,
        edge_count: u64,
        n: usize,
        window_bytes: usize,
        out_path: PathBuf,
    ) -> io::Result<Self> {
        // Counting pass: predecessor degree per target.
        let mut off: Vec<u64> = vec![0; n + 1];
        {
            let mut r = BufReader::with_capacity(LAYER_BUF, File::open(edge_path)?);
            let mut buf = [0u8; 8];
            for _ in 0..edge_count {
                r.read_exact(&mut buf)?;
                let to = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                off[to as usize + 1] += 1;
            }
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }

        // Bucketed external counting sort: take as many consecutive
        // targets as fit the window, scan the edge log once per bucket,
        // scatter matching sources into the buffer, append it.
        let mut w = BufWriter::with_capacity(LAYER_BUF, File::create(&out_path)?);
        let mut build_window_bytes = 0u64;
        let mut lo = 0usize;
        while lo < n {
            let base = off[lo];
            let mut hi = lo + 1;
            while hi < n && (off[hi + 1] - base) * 4 <= window_bytes as u64 {
                hi += 1;
            }
            let len = (off[hi] - base) as usize;
            build_window_bytes = build_window_bytes.max((len * 4 + (hi - lo) * 8) as u64);
            let mut bucket: Vec<u32> = vec![0; len];
            let mut cursor: Vec<u64> = off[lo..hi].to_vec();
            let mut r = BufReader::with_capacity(LAYER_BUF, File::open(edge_path)?);
            let mut buf = [0u8; 8];
            for _ in 0..edge_count {
                r.read_exact(&mut buf)?;
                let to = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
                if to >= lo && to < hi {
                    let from = u32::from_le_bytes(buf[..4].try_into().unwrap());
                    let c = &mut cursor[to - lo];
                    bucket[(*c - base) as usize] = from;
                    *c += 1;
                }
            }
            for &p in &bucket {
                w.write_all(&p.to_le_bytes())?;
            }
            lo = hi;
        }
        w.flush()?;
        Ok(Self {
            off,
            path: out_path,
            build_window_bytes,
        })
    }

    /// An independent read handle for one backward-marking worker.
    pub(crate) fn reader(&self) -> io::Result<PredReader> {
        Ok(PredReader {
            file: File::open(&self.path)?,
        })
    }
}

/// Per-worker handle reading predecessor runs out of a [`DiskCsr`].
pub(crate) struct PredReader {
    file: File,
}

/// Predecessor runs are read in sub-chunks of this many entries so a
/// hub state's run never forces an unbounded buffer.
const PRED_CHUNK: usize = 16 * 1024;

impl PredReader {
    /// Streams the predecessors in `off_lo..off_hi` (record ordinals)
    /// through `visit`.
    pub(crate) fn for_each(
        &mut self,
        off_lo: u64,
        off_hi: u64,
        mut visit: impl FnMut(u32),
    ) -> io::Result<()> {
        let mut at = off_lo;
        self.file.seek(SeekFrom::Start(off_lo * 4))?;
        let mut buf = vec![0u8; PRED_CHUNK * 4];
        while at < off_hi {
            let n = ((off_hi - at) as usize).min(PRED_CHUNK);
            self.file.read_exact(&mut buf[..n * 4])?;
            for i in 0..n {
                visit(u32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().unwrap()));
            }
            at += n as u64;
        }
        Ok(())
    }
}
