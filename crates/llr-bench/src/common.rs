//! Table formatting, CSV output, the solo-cycle cost, and the seeded PRNG
//! shared by all experiments.

/// The vendored SplitMix64 generator (canonical copy in `llr-mc`),
/// re-exported so experiments have one obvious place to get seeded,
/// reproducible randomness without an external `rand` dependency.
pub use llr_mc::SplitMix64;

use llr_core::traits::{Renaming, RenamingHandle};
use llr_mc::{CheckError, CheckStats, Engine, ModelChecker, StepMachine, World};
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A simple aligned table that also lands in `results/<name>.csv`.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with `headers`, persisted as `results/<name>.csv`.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (anything displayable).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the aligned table to stdout and writes the CSV.
    pub fn finish(self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }

        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        // RFC-4180-ish quoting: fields containing commas or quotes are
        // wrapped and inner quotes doubled.
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let join = |cells: &[String]| cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",");
        let mut csv = join(&self.headers) + "\n";
        for row in &self.rows {
            csv.push_str(&join(row));
            csv.push('\n');
        }
        let path = dir.join(format!("{}.csv", self.name));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("(could not write {}: {e})", path.display());
        } else {
            println!("→ {}", path.display());
        }
    }
}

/// Where CSVs land: `<workspace>/results`.
pub fn results_dir() -> PathBuf {
    // target dir layout: <workspace>/target/...; CARGO_MANIFEST_DIR is
    // <workspace>/crates/llr-bench.
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = fs::create_dir_all(&p);
    p.canonicalize().unwrap_or(p)
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n━━━ {title} ━━━");
}

/// Shared accesses of one solo acquire+release cycle by `pid` on a fresh
/// handle: a deterministic cost, the same on every regeneration.
pub fn solo_cost<R: Renaming>(rn: &R, pid: u64) -> u64 {
    let mut h = rn.handle(pid);
    h.acquire();
    h.release();
    h.accesses()
}

/// Host parallelism plus the shared degradation contract for the
/// contended drivers (E10, E11, E12): on a 1-core host every "contended"
/// row is actually scheduler-serialized, so we warn loudly on stderr and
/// return `degraded = true` for the CSV column that lets consumers
/// filter those rows instead of mistaking them for real contention.
pub fn host_parallelism(experiment: &str) -> (usize, bool) {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let degraded = cores < 2;
    if degraded {
        eprintln!(
            "WARNING [{experiment}]: host reports {cores} core(s) — threads cannot actually \
             contend, so every row below is scheduler-serialized and marked degraded=yes; \
             do not compare these figures against multi-core runs"
        );
    }
    (cores, degraded)
}

/// Parallel BFS, one worker per core, 128-bit hashed dedup.
pub fn bfs_hashed() -> Engine {
    Engine::Parallel {
        workers: 0,
        hashed: true,
    }
}

/// Parallel BFS with the external-memory visited set: only `budget`
/// bytes of not-yet-flushed state hashes stay in RAM; the rest lives in
/// sorted runs on disk.
pub fn bfs_spill(budget: usize) -> Engine {
    Engine::Spill {
        dir: std::env::temp_dir(),
        budget_bytes: budget,
        workers: 0,
    }
}

/// The given backend with partial-order reduction on
/// (`tests/por_equivalence.rs` pins that the reduced graphs agree with
/// the full ones on verdicts and terminal states). Only used with
/// por-safe invariants — ones over held names and done flags.
pub fn por(inner: Engine) -> Engine {
    Engine::Reduced(Box::new(inner))
}

/// Checks `mc` against `invariant` on `engine`, stopping at `cap` states,
/// and times the run.
pub fn explore<M, F>(
    mc: ModelChecker<M>,
    invariant: F,
    engine: &Engine,
    cap: usize,
) -> (Result<CheckStats, CheckError>, Duration)
where
    M: StepMachine + Send + Sync,
    F: Fn(&World<'_, M>) -> Result<(), String>,
{
    let start = Instant::now();
    let r = mc.max_states(cap).check_with(engine, invariant);
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip_to_csv() {
        let mut t = Table::new("_test_table", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        t.finish();
        let path = results_dir().join("_test_table.csv");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert_eq!(csv, "a,b\n1,x\n22,yy\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("_test_bad", &["a", "b"]);
        t.row(&[&1]);
    }
}
