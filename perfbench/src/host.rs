//! Host metadata printed with every result, and the process's peak RSS.

use crate::json::Json;
use std::process::Command;

/// What a result must carry so it is never compared with one from a
/// different kind of host.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// The commit of the working directory's `.git`, or `unknown` (a
    /// checkout exported without git history has none).
    pub commit: String,
}

/// Fewer cores than this and every workload's two threads share one core:
/// such runs are marked degraded and never compared with others.
pub const MIN_CORES: usize = 2;

impl Host {
    /// Probes the host. Runs `rustc -V` and `git rev-parse HEAD` and waits
    /// for both.
    pub fn probe() -> Self {
        let run = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: run(Command::new("rustc").arg("-V")),
            // `--git-dir` pins git to this directory's own `.git`, so a
            // checkout without one reads as unknown instead of picking up
            // an enclosing repository.
            commit: run(Command::new("git").args(["--git-dir=.git", "rev-parse", "HEAD"])),
        }
    }

    /// Whether results from this host must not be compared with others.
    pub fn degraded(&self) -> bool {
        self.cores < MIN_CORES
    }

    /// The metadata as one JSON object, with the run's workload and seed.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Bool(trace)),
            ("host_cores", Json::Num(self.cores as f64)),
            ("degraded", Json::Bool(self.degraded())),
            ("rustc", Json::str(self.rustc.clone())),
            ("commit", Json::str(self.commit.clone())),
        ])
    }
}

/// User plus system CPU time of the whole process so far, exited threads
/// included, in seconds. Time the hypervisor gave to other guests (steal)
/// is not in it.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    // `struct rusage`: two `struct timeval { c_long sec; c_long usec; }`
    // (user, then system time) followed by 14 `c_long` counters.
    const RUSAGE_SELF: c_int = 0;
    extern "C" {
        fn getrusage(who: c_int, usage: *mut [c_long; 18]) -> c_int;
    }
    let mut usage: [c_long; 18] = [0; 18];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage`, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |sec: c_long, usec: c_long| sec as f64 + usec as f64 * 1e-6;
    secs(usage[0], usage[1]) + secs(usage[2], usage[3])
}

/// The process's peak resident set (`VmHWM`) in MiB, if `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
