//! Property and round-trip tests for the on-disk frontier layer format
//! (`llr_mc::frontier`).
//!
//! The spill backend's correctness rests on layer files reading back
//! *exactly* what was written — a silently short or corrupted layer
//! would drop frontier states and change exploration counts without any
//! engine-level assertion firing. So this suite pins the format
//! directly: seeded random layers (random sizes, snapshot widths,
//! machine slot counts) must round-trip record-for-record through
//! `LayerWriter`/`LayerReader`, in full scans, chunked scans, and point
//! reads; and every torn-file shape — truncated header, unfinalized
//! count, a record cut mid-way — must fail **loudly** at `open`, never
//! yield a short layer.

use llr_mc::frontier::{layer_record_bytes, LayerReader, LayerRecord, LayerWriter};
use llr_mc::SplitMix64;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A scratch directory unique to this test binary invocation, removed
/// at the end of each test that creates one.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("llr-frontier-format-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates a pseudorandom layer: `count` records over `words`
/// registers and `machines` slots, all fields drawn from `rng`.
fn random_layer(
    rng: &mut SplitMix64,
    count: usize,
    words: usize,
    machines: usize,
) -> Vec<LayerRecord> {
    (0..count)
        .map(|i| LayerRecord {
            id: i as u32,
            done: (0..machines).map(|_| rng.next_u64() & 1 == 1).collect(),
            machine_ids: (0..machines).map(|_| rng.next_u64() as u32).collect(),
            snap: (0..words).map(|_| rng.next_u64()).collect(),
        })
        .collect()
}

/// Writes `layer` to `path` through the public writer.
fn write_layer(path: &Path, words: usize, machines: usize, layer: &[LayerRecord]) {
    let mut w = LayerWriter::create(path, words, machines).unwrap();
    for rec in layer {
        w.push(rec.id, &rec.done, &rec.machine_ids, &rec.snap)
            .unwrap();
        assert_eq!(w.count(), rec.id as u64 + 1, "writer counts pushes");
    }
    assert_eq!(
        w.bytes(),
        24 + layer.len() as u64 * layer_record_bytes(words, machines),
        "writer byte accounting matches the record-size formula"
    );
    assert_eq!(w.finish().unwrap(), layer.len() as u64);
}

/// Seeded random layers round-trip exactly: full scan, chunked scans at
/// awkward chunk sizes, point reads in a shuffled order, and point reads
/// that skip ahead all decode the records that were written. The last
/// layer is larger than the reader's 64 KiB buffer, so its point reads
/// land both inside the buffer and beyond it.
#[test]
fn random_layers_round_trip() {
    let dir = TestDir::new("roundtrip");
    let mut rng = SplitMix64::new(20260808);
    for case in 0..13 {
        let (words, machines, count) = if case < 12 {
            let words = 1 + rng.next_index(9);
            let machines = 1 + rng.next_index(5);
            (words, machines, 1 + rng.next_index(300))
        } else {
            // 2 000 records of 101 bytes.
            (9, 5, 2_000)
        };
        let layer = random_layer(&mut rng, count, words, machines);
        let path = dir.file(&format!("layer-{case}.flr"));
        write_layer(&path, words, machines, &layer);

        let mut r = LayerReader::open(&path).unwrap();
        assert_eq!(r.count(), count as u64);
        assert_eq!(r.words(), words);
        assert_eq!(r.machines(), machines);

        // Full scan.
        assert_eq!(
            r.read_range(0, count).unwrap(),
            layer,
            "full scan (case {case})"
        );

        // Chunked scan with a chunk size that does not divide the count,
        // plus an over-long final request (read_range clamps).
        let chunk = 1 + rng.next_index(count.max(2) - 1);
        let mut scanned = Vec::new();
        let mut at = 0u64;
        while at < count as u64 {
            let got = r.read_range(at, chunk).unwrap();
            assert!(!got.is_empty(), "non-empty chunk below the end");
            at += got.len() as u64;
            scanned.extend(got);
        }
        assert_eq!(scanned, layer, "chunked scan (case {case})");
        assert!(
            r.read_range(count as u64, chunk).unwrap().is_empty(),
            "reads past the end clamp to empty"
        );

        // Point reads in a scrambled order (the POR patch-up access
        // pattern), interleaved with sequential position reuse.
        for _ in 0..count.min(40) {
            let i = rng.next_index(count);
            assert_eq!(
                r.read_at(i as u64).unwrap(),
                layer[i],
                "point read of record {i} (case {case})"
            );
        }

        // Point reads in ascending order that skip records (the admit
        // pattern), then one back to the start.
        for i in (0..count).step_by(1 + case).chain([0]) {
            assert_eq!(
                r.read_at(i as u64).unwrap(),
                layer[i],
                "skipping read of record {i} (case {case})"
            );
        }
    }
    assert!(2_000 * layer_record_bytes(9, 5) > 64 << 10);
}

/// A multi-layer sequence (the spill engine's actual layout: one file
/// per BFS layer) re-opens and re-reads each file independently.
#[test]
fn multiple_layer_files_are_independent() {
    let dir = TestDir::new("multilayer");
    let mut rng = SplitMix64::new(7);
    let words = 4;
    let machines = 3;
    let layers: Vec<Vec<LayerRecord>> = (0..5)
        .map(|_| {
            let count = 1 + rng.next_index(50);
            random_layer(&mut rng, count, words, machines)
        })
        .collect();
    for (i, layer) in layers.iter().enumerate() {
        write_layer(&dir.file(&format!("layer-{i}.flr")), words, machines, layer);
    }
    // Read back in reverse order through fresh readers.
    for (i, layer) in layers.iter().enumerate().rev() {
        let mut r = LayerReader::open(&dir.file(&format!("layer-{i}.flr"))).unwrap();
        assert_eq!(&r.read_range(0, layer.len()).unwrap(), layer, "layer {i}");
    }
}

/// Asserts that `open` fails with `InvalidData` and a message containing
/// `needle`.
fn assert_open_fails(path: &Path, needle: &str, tag: &str) {
    let err = match LayerReader::open(path) {
        Err(e) => e,
        Ok(_) => panic!("{tag}: open must fail"),
    };
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::InvalidData,
        "{tag}: error kind"
    );
    let msg = err.to_string();
    assert!(
        msg.contains(needle),
        "{tag}: error message must name the failure: got {msg:?}, wanted {needle:?}"
    );
}

/// A file truncated mid-record — the torn-write shape a crash mid-layer
/// leaves behind — must be rejected loudly at `open`, not silently read
/// short.
#[test]
fn truncated_mid_record_fails_loudly() {
    let dir = TestDir::new("torn");
    let mut rng = SplitMix64::new(99);
    let (words, machines) = (3, 2);
    let layer = random_layer(&mut rng, 20, words, machines);
    let path = dir.file("torn.flr");
    write_layer(&path, words, machines, &layer);
    LayerReader::open(&path).expect("the intact file opens");

    let record = layer_record_bytes(words, machines);
    let full = 24 + 20 * record;
    // Cut at several offsets inside the final record, including one byte
    // short of complete.
    for cut in [full - 1, full - record / 2, full - record + 1] {
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        assert_open_fails(&path, "truncated or torn", &format!("cut at {cut}"));
    }
    // Extra trailing garbage is just as torn as a short file.
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&[0xAB; 7]).unwrap();
    drop(f);
    assert_open_fails(&path, "truncated or torn", "trailing garbage");
}

/// A writer that never ran `finish` leaves the sentinel count in the
/// header; `open` must refuse the file as torn rather than trusting the
/// byte length.
#[test]
fn unfinalized_file_fails_loudly() {
    let dir = TestDir::new("unfinalized");
    let path = dir.file("unfinished.flr");
    {
        let mut w = LayerWriter::create(&path, 2, 1).unwrap();
        w.push(0, &[false], &[0], &[1, 2]).unwrap();
        // Dropped without finish(): the header still holds the sentinel.
        // Flush what the BufWriter holds by dropping it.
    }
    assert_open_fails(&path, "not finalized", "dropped writer");
}

/// Headers shorter than the fixed header size, and wrong magic bytes,
/// each produce their own loud error.
#[test]
fn bad_headers_fail_loudly() {
    let dir = TestDir::new("badheader");

    let short = dir.file("short.flr");
    File::create(&short).unwrap().write_all(b"LLRF").unwrap();
    assert_open_fails(&short, "truncated header", "4-byte file");

    let empty = dir.file("empty.flr");
    File::create(&empty).unwrap();
    assert_open_fails(&empty, "truncated header", "empty file");

    // A finalized valid file whose magic is then stomped.
    let stomped = dir.file("stomped.flr");
    let mut w = LayerWriter::create(&stomped, 1, 1).unwrap();
    w.push(0, &[true], &[3], &[9]).unwrap();
    w.finish().unwrap();
    let mut f = OpenOptions::new().write(true).open(&stomped).unwrap();
    f.seek(SeekFrom::Start(0)).unwrap();
    f.write_all(b"XXRFLR1\0").unwrap();
    drop(f);
    assert_open_fails(&stomped, "bad magic", "stomped magic");
}

/// A header whose declared count disagrees with the byte length — e.g.
/// a count patched for more records than were flushed — is rejected with
/// the declared-vs-actual sizes in the message.
#[test]
fn count_length_mismatch_fails_loudly() {
    let dir = TestDir::new("mismatch");
    let path = dir.file("mismatch.flr");
    let mut w = LayerWriter::create(&path, 2, 2).unwrap();
    for i in 0..5u32 {
        w.push(i, &[false, true], &[i, i], &[i as u64, 0]).unwrap();
    }
    w.finish().unwrap();

    // Patch the count field (offset 16) to claim 6 records.
    let mut f = OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(16)).unwrap();
    f.write_all(&6u64.to_le_bytes()).unwrap();
    drop(f);
    assert_open_fails(&path, "declares 6 records", "inflated count");
}
