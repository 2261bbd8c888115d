//! On-disk breadth-first frontier layers and the reversed-edge CSR.
//!
//! The spill backend (`crate::spill`) bounds the visited-set delta; this
//! module puts the rest of what grows with the state space on disk: the
//! frontier layers and the liveness checker's edge list.
//!
//! * **Layer files** ([`LayerWriter`] / [`LayerReader`]): an append-only
//!   per-layer format holding one fixed-size record per frontier state —
//!   the packed record (`RecordCodec`, crate-internal) the in-RAM layer
//!   store keeps too, behind a header. The format carries a number of
//!   words per record; the breadth-first loop's files hold one register
//!   block id per word.
//!   Layers are produced sequentially (states are assigned ids in
//!   `(parent, via)` order and written in that order), so writes are
//!   streaming; reads are a bounded-buffer sequential scan
//!   ([`LayerReader::read_range`]) feeding the expansion workers, plus
//!   point reads ([`LayerReader::read_at`]) for the partial-order
//!   reduction patch-up and the admission of candidates; a point read a
//!   short way ahead keeps the read buffer.
//! * **Pools** (`Pool`, crate-internal): records in RAM and on disk store
//!   a per-slot machine id instead of the machine struct, and one block
//!   id per 8-register block instead of the registers, so a machine or a
//!   block recurring across millions of states is held once per position,
//!   with its 128-bit digest. Machines are interned per slot because
//!   [`StepMachine::key`](crate::StepMachine::key) is injective only
//!   within one slot's lineage (two different pids can share a key);
//!   blocks per block position, so equal contents at two positions stay
//!   apart.
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

use crate::checker::DigestMap;
use llr_mem::Word;
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
/// done flag and one machine intern id per machine slot, and `words`
/// 8-byte words — the register-file snapshot, or, in the breadth-first
/// loop's records, one block id per 8-register block.
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
    /// Per-slot machine intern ids (see `Pool`).
    pub machine_ids: Vec<u32>,
    /// The record's words: the register-file snapshot as the caller
    /// pushed it. The breadth-first loop's own layer files hold one block
    /// id per 8-register block here, into its block pool, not registers.
    pub snap: Vec<Word>,
}

/// The packed state record every store of the breadth-first loop keeps:
/// `[id | per slot: done, machine intern id | words]`, little-endian,
/// [`layer_record_bytes`] long. The loop's words are block ids, one per
/// 8-register block ([`BLOCK`]). The in-RAM layer store keeps records back
/// to back in flat buffers; the layer files hold the same bytes behind a
/// header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecordCodec {
    words: usize,
    slots: usize,
}

impl RecordCodec {
    pub(crate) fn new(words: usize, slots: usize) -> Self {
        Self { words, slots }
    }

    /// Bytes of one record.
    pub(crate) fn bytes(self) -> usize {
        layer_record_bytes(self.words, self.slots) as usize
    }

    /// Words per record.
    pub(crate) fn words(self) -> usize {
        self.words
    }

    /// Machine slots per record.
    pub(crate) fn slots(self) -> usize {
        self.slots
    }

    /// Byte offset of `slot`'s done flag; its machine id follows it.
    fn slot_at(slot: usize) -> usize {
        4 + slot * 5
    }

    /// Byte offset of the words.
    fn words_at(self) -> usize {
        Self::slot_at(self.slots)
    }

    /// The record's id and slots: everything before its words.
    pub(crate) fn head(self, rec: &[u8]) -> &[u8] {
        &rec[..self.words_at()]
    }

    /// Appends one record to `out`.
    pub(crate) fn encode(
        self,
        id: u32,
        done: &[bool],
        ids: &[u32],
        snap: &[Word],
        out: &mut Vec<u8>,
    ) {
        assert_eq!(done.len(), self.slots, "done flags must cover every slot");
        assert_eq!(ids.len(), self.slots, "machine ids must cover every slot");
        assert_eq!(
            snap.len(),
            self.words,
            "snapshot must span the register file"
        );
        out.extend_from_slice(&id.to_le_bytes());
        for (&d, &m) in done.iter().zip(ids) {
            out.push(u8::from(d));
            out.extend_from_slice(&m.to_le_bytes());
        }
        for &word in snap {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode(self, rec: &[u8]) -> LayerRecord {
        let mut snap = Vec::with_capacity(self.words);
        self.read_words(rec, &mut snap);
        LayerRecord {
            id: self.id(rec),
            done: (0..self.slots).map(|s| self.done(rec, s)).collect(),
            machine_ids: (0..self.slots).map(|s| self.machine(rec, s)).collect(),
            snap,
        }
    }

    pub(crate) fn id(self, rec: &[u8]) -> u32 {
        u32::from_le_bytes(rec[..4].try_into().unwrap())
    }

    pub(crate) fn set_id(self, rec: &mut [u8], id: u32) {
        rec[..4].copy_from_slice(&id.to_le_bytes());
    }

    /// Whether the machine in `slot` is done.
    pub(crate) fn done(self, rec: &[u8], slot: usize) -> bool {
        rec[Self::slot_at(slot)] != 0
    }

    /// The intern id of the machine in `slot`.
    pub(crate) fn machine(self, rec: &[u8], slot: usize) -> u32 {
        let at = Self::slot_at(slot) + 1;
        u32::from_le_bytes(rec[at..at + 4].try_into().unwrap())
    }

    pub(crate) fn set_machine(self, rec: &mut [u8], slot: usize, machine: u32) {
        let at = Self::slot_at(slot) + 1;
        rec[at..at + 4].copy_from_slice(&machine.to_le_bytes());
    }

    /// Appends the record of a successor with no id yet: the slots of
    /// `head` (a record's [`head`](Self::head)), but for `slot` set to
    /// `(done, machine)`, and the words `words`.
    pub(crate) fn push_successor(
        self,
        head: &[u8],
        (slot, done, machine): (usize, bool, u32),
        words: &[Word],
        out: &mut Vec<u8>,
    ) {
        let at = out.len();
        out.extend_from_slice(head);
        for &word in words {
            out.extend_from_slice(&word.to_le_bytes());
        }
        let rec = &mut out[at..];
        self.set_id(rec, u32::MAX);
        rec[Self::slot_at(slot)] = u8::from(done);
        self.set_machine(rec, slot, machine);
    }

    /// Decodes the words into `out`, replacing its contents.
    pub(crate) fn read_words(self, rec: &[u8], out: &mut Vec<Word>) {
        out.clear();
        let words = rec[self.words_at()..].chunks_exact(8);
        out.extend(words.map(|w| u64::from_le_bytes(w.try_into().unwrap())));
    }

    /// Word `at` of the record.
    pub(crate) fn word(self, rec: &[u8], at: usize) -> Word {
        let at = self.words_at() + at * 8;
        u64::from_le_bytes(rec[at..at + 8].try_into().unwrap())
    }

    pub(crate) fn set_word(self, rec: &mut [u8], at: usize, word: Word) {
        let at = self.words_at() + at * 8;
        rec[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }

    /// Rewrites the machine ids and the block ids (the words) of every
    /// record in `records` through `renumber`'s maps.
    pub(crate) fn renumber(self, records: &mut [u8], renumber: &Renumber) {
        for rec in records.chunks_exact_mut(self.bytes()) {
            for (slot, map) in renumber.machines.iter().flatten().enumerate() {
                let id = map[self.machine(rec, slot) as usize];
                self.set_machine(rec, slot, id);
            }
            for (at, map) in renumber.blocks.iter().flatten().enumerate() {
                let id = map[self.word(rec, at) as usize];
                self.set_word(rec, at, Word::from(id));
            }
        }
    }
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
    codec: RecordCodec,
    count: u64,
    /// One encoded record.
    scratch: Vec<u8>,
}

impl LayerWriter {
    /// Creates the file and writes a header with the sentinel count.
    /// `words` is the words per record — the register-file width, or, in
    /// the breadth-first loop's files, its block count, one block id per
    /// word — and `machines` the machine slot count; every pushed record
    /// must match.
    pub fn create(path: &Path, words: usize, machines: usize) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut w = BufWriter::with_capacity(LAYER_BUF, file);
        w.write_all(&LAYER_MAGIC)?;
        w.write_all(
            &u32::try_from(words)
                .expect("register file exceeds u32 words")
                .to_le_bytes(),
        )?;
        w.write_all(
            &u32::try_from(machines)
                .expect("machine count exceeds u32")
                .to_le_bytes(),
        )?;
        w.write_all(&COUNT_SENTINEL.to_le_bytes())?;
        Ok(Self {
            w,
            codec: RecordCodec::new(words, machines),
            count: 0,
            scratch: Vec::new(),
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
        self.scratch.clear();
        self.codec
            .encode(id, done, machine_ids, snap, &mut self.scratch);
        self.w.write_all(&self.scratch)?;
        self.count += 1;
        Ok(())
    }

    /// Appends records already encoded back to back by the writer's
    /// [`RecordCodec`].
    pub(crate) fn push_records(&mut self, records: &[u8]) -> io::Result<()> {
        let rb = self.codec.bytes();
        assert_eq!(records.len() % rb, 0, "records must be whole");
        self.w.write_all(records)?;
        self.count += (records.len() / rb) as u64;
        Ok(())
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total bytes this file will occupy once finalized.
    pub fn bytes(&self) -> u64 {
        HEADER_BYTES + self.count * self.codec.bytes() as u64
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
    codec: RecordCodec,
    count: u64,
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
            codec: RecordCodec::new(words, machines),
            count,
            pos: 0,
        })
    }

    /// Records in the layer.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Register-file width every record carries.
    pub fn words(&self) -> usize {
        self.codec.words()
    }

    /// Machine slots every record carries.
    pub fn machines(&self) -> usize {
        self.codec.slots()
    }

    /// Moves the cursor to record `ordinal`, relative to `pos`, so that a
    /// target inside the read buffer keeps the buffer.
    fn seek_to(&mut self, ordinal: u64) -> io::Result<()> {
        if self.pos != ordinal {
            let record = self.codec.bytes() as i64;
            let records = ordinal as i64 - self.pos as i64;
            self.file.seek_relative(records * record)?;
            self.pos = ordinal;
        }
        Ok(())
    }

    /// Reads `n` records starting at `start` (clamped to the layer end)
    /// into a fresh buffer — the bounded-buffer sequential scan feeding
    /// the expansion workers.
    pub fn read_range(&mut self, start: u64, n: usize) -> io::Result<Vec<LayerRecord>> {
        let mut buf = Vec::new();
        self.read_records(start, n, &mut buf)?;
        let records = buf.chunks_exact(self.codec.bytes());
        Ok(records.map(|r| self.codec.decode(r)).collect())
    }

    /// Appends the encoded records `start..start + n` (clamped to the
    /// layer end) to `out`.
    pub(crate) fn read_records(
        &mut self,
        start: u64,
        n: usize,
        out: &mut Vec<u8>,
    ) -> io::Result<()> {
        let n = (n as u64).min(self.count.saturating_sub(start)) as usize;
        self.seek_to(start)?;
        let at = out.len();
        out.resize(at + n * self.codec.bytes(), 0);
        self.file.read_exact(&mut out[at..])?;
        self.pos = start + n as u64;
        Ok(())
    }

    /// Point-reads the record at `ordinal`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of range.
    pub fn read_at(&mut self, ordinal: u64) -> io::Result<LayerRecord> {
        let mut buf = Vec::new();
        self.read_record_at(ordinal, &mut buf)?;
        Ok(self.codec.decode(&buf))
    }

    /// Appends the encoded record at `ordinal` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is out of range.
    pub(crate) fn read_record_at(&mut self, ordinal: u64, out: &mut Vec<u8>) -> io::Result<()> {
        assert!(ordinal < self.count, "record {ordinal} out of range");
        self.read_records(ordinal, 1, out)
    }
}

/// Approximate per-value bookkeeping overhead of a [`Pool`] entry on top of
/// the value itself: its stored digest (16 B) and its index slot, the
/// digest again and the id (24 B).
const POOL_OVERHEAD_BYTES: u64 = 40;

/// The id bit that marks a value not interned yet. Pool ids stay below
/// it; the breadth-first loop hands out ids with it set while the pools
/// are frozen, and replaces them once the values are interned.
pub(crate) const PROVISIONAL: u32 = 1 << 31;

/// Registers per block of the register file. The breadth-first loop's
/// records hold one block id per block ([`Block`]).
pub(crate) const BLOCK: usize = 8;

/// One block of the register file, as the block pool keeps it; the file's
/// last block is padded with zeros.
pub(crate) type Block = [Word; BLOCK];

/// Per-position interning by digest: state records store a `u32` id per
/// position instead of the value. The breadth-first loop keeps two pools,
/// machines per slot and register blocks per block position. Interning is
/// per position because [`StepMachine::key`](crate::StepMachine::key) is
/// only injective within one slot's lineage, and so that equal contents at
/// two positions stay apart.
///
/// A value is identified by its 128-bit digest, which the pool keeps with
/// it: the loop hashes states from these digests
/// ([`Hash128`](crate::checker::Hash128) gives the collision argument).
/// Ids are dense per position and stay below [`PROVISIONAL`]. The loop
/// drops the values no stored record names any more
/// ([`retain`](Self::retain)), so a pool follows the layers in flight, not
/// every value ever reached.
pub(crate) struct Pool<T> {
    positions: Vec<Interned<T>>,
    bytes: u64,
}

struct Interned<T> {
    index: DigestMap<u32>,
    /// Every interned value with its digest, by id.
    items: Vec<(T, u128)>,
}

/// The id maps of the pools that dropped values ([`Pool::retain`]): per
/// position, old id to new id (`u32::MAX` for a dropped value). Every id
/// stored outside a pool goes through its pool's map.
#[derive(Clone)]
pub(crate) struct Renumber {
    pub(crate) machines: Option<Vec<Vec<u32>>>,
    pub(crate) blocks: Option<Vec<Vec<u32>>>,
}

impl Renumber {
    /// Whether no pool dropped anything.
    pub(crate) fn is_empty(&self) -> bool {
        self.machines.is_none() && self.blocks.is_none()
    }
}

impl<T> Pool<T> {
    pub(crate) fn new(positions: usize) -> Self {
        Self {
            positions: (0..positions)
                .map(|_| Interned {
                    index: DigestMap::default(),
                    items: Vec::new(),
                })
                .collect(),
            bytes: 0,
        }
    }

    /// The id of the value digested `digest` at `pos`, if it is interned.
    pub(crate) fn find(&self, pos: usize, digest: u128) -> Option<u32> {
        self.positions[pos].index.get(&digest).copied()
    }

    /// Interns `value`, digested `digest`, at `pos`, returning its stable
    /// id.
    pub(crate) fn intern(&mut self, pos: usize, digest: u128, value: T) -> u32 {
        let at = &mut self.positions[pos];
        if let Some(&id) = at.index.get(&digest) {
            return id;
        }
        let id = u32::try_from(at.items.len())
            .ok()
            .filter(|&id| id < PROVISIONAL)
            .expect("a pool exceeds 2^31 ids at one position");
        self.bytes += Self::entry_bytes();
        at.index.insert(digest, id);
        at.items.push((value, digest));
        id
    }

    /// Tracked bytes of one interned value.
    fn entry_bytes() -> u64 {
        std::mem::size_of::<T>() as u64 + POOL_OVERHEAD_BYTES
    }

    /// One unset mark per interned value, per position, for
    /// [`retain`](Self::retain).
    pub(crate) fn marks(&self) -> Vec<Vec<bool>> {
        self.positions
            .iter()
            .map(|p| vec![false; p.items.len()])
            .collect()
    }

    /// Drops the values `live` leaves unmarked once they outnumber the
    /// marked ones, and numbers the rest densely in their old order.
    /// Returns the map from old ids to new ones per position (`u32::MAX`
    /// for a dropped value), or `None` if nothing was dropped. Every id
    /// stored outside the pool must go through the map.
    pub(crate) fn retain(&mut self, live: &[Vec<bool>]) -> Option<Vec<Vec<u32>>> {
        let marked = live.iter().flatten().filter(|&&l| l).count();
        let total: usize = live.iter().map(Vec::len).sum();
        if total - marked <= marked {
            return None;
        }
        let mut renumber = Vec::with_capacity(live.len());
        for (at, live) in self.positions.iter_mut().zip(live) {
            assert_eq!(live.len(), at.items.len(), "one mark per interned value");
            let mut map = vec![u32::MAX; live.len()];
            let items = std::mem::take(&mut at.items);
            for (item, (&keep, new)) in items.into_iter().zip(live.iter().zip(&mut map)) {
                if keep {
                    *new = at.items.len() as u32;
                    at.items.push(item);
                } else {
                    self.bytes -= Self::entry_bytes();
                }
            }
            at.index.retain(|_, id| live[*id as usize]);
            for id in at.index.values_mut() {
                *id = map[*id as usize];
            }
            renumber.push(map);
        }
        Some(renumber)
    }

    /// The value interned under `id` at `pos`.
    pub(crate) fn get(&self, pos: usize, id: u32) -> &T {
        &self.positions[pos].items[id as usize].0
    }

    /// The digest of the value interned under `id` at `pos`.
    pub(crate) fn digest(&self, pos: usize, id: u32) -> u128 {
        self.positions[pos].items[id as usize].1
    }

    /// Tracked payload bytes (values, digests and index overhead), for the
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
                visit(u32::from_le_bytes(
                    buf[i * 4..i * 4 + 4].try_into().unwrap(),
                ));
            }
            at += n as u64;
        }
        Ok(())
    }
}
