//! Multi-threaded execution harness: drives any [`Renaming`] object from
//! real threads while a claim-table oracle checks name uniqueness and a
//! [`NameArena`] admission gate enforces the concurrency bound `k`.
//!
//! The harness is what the integration tests, the examples and every
//! benchmark use to generate contention. Two knobs matter:
//!
//! * **participants vs. concurrency** — `n` registered pids can be driven
//!   through a `k`-permit gate, exercising the paper's regime of "many
//!   processes exist, few are active" (the whole point of renaming);
//! * **dwell** — how long a name is held, which controls how much
//!   acquire/release traffic overlaps.
//!
//! The oracle uses compare-and-swap internally; that is fine — it is the
//! *observer*, not the protocol. The protocols themselves only ever read
//! and write.
//!
//! # Example
//!
//! ```
//! use llr_core::harness::{stress, StressConfig};
//! use llr_core::split::Split;
//!
//! let split = Split::new(4);
//! let report = stress(&split, &StressConfig {
//!     pids: vec![10, 20, 30, 40],
//!     concurrency: 4,
//!     ops_per_thread: 100,
//!     dwell_spins: 5,
//!     seed: 7,
//! });
//! assert_eq!(report.violations, 0);
//! assert_eq!(report.total_ops, 400);
//! assert!(report.max_name < split_dest(&split));
//! # use llr_core::traits::Renaming;
//! # fn split_dest(s: &Split) -> u64 { s.dest_size() }
//! ```

use crate::arena::NameArena;
use crate::traits::{Renaming, RenamingHandle};
use crate::types::{Name, Pid};
use std::sync::atomic::{AtomicU64, Ordering};

/// A claim table that detects concurrent double-holding of a name.
///
/// `claim` must be called right after `acquire` returns and `release_claim`
/// right *before* the protocol's `release` begins (a name is free from the
/// start of `ReleaseName`).
#[derive(Debug)]
pub struct Oracle {
    /// 0 = free; otherwise holder's pid + 1.
    slots: Vec<AtomicU64>,
    violations: AtomicU64,
}

impl Oracle {
    /// An oracle for a destination space of size `d`.
    pub fn new(d: u64) -> Self {
        Self {
            slots: (0..d).map(|_| AtomicU64::new(0)).collect(),
            violations: AtomicU64::new(0),
        }
    }

    /// Records that `pid` now holds `name`.
    ///
    /// # Panics
    ///
    /// Panics (and counts a violation) if the name is already held.
    pub fn claim(&self, name: Name, pid: Pid) {
        let prev = self.slots[name as usize]
            .compare_exchange(0, pid + 1, Ordering::SeqCst, Ordering::SeqCst);
        if let Err(holder) = prev {
            self.violations.fetch_add(1, Ordering::SeqCst);
            panic!(
                "uniqueness violation: name {name} acquired by pid {pid} \
                 while held by pid {}",
                holder - 1
            );
        }
    }

    /// Records that `pid` is releasing `name`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not hold `name` per the table.
    pub fn release_claim(&self, name: Name, pid: Pid) {
        let prev = self.slots[name as usize]
            .compare_exchange(pid + 1, 0, Ordering::SeqCst, Ordering::SeqCst);
        assert!(
            prev.is_ok(),
            "oracle: pid {pid} released name {name} it did not hold"
        );
    }

    /// Violations observed (normally 0 — `claim` also panics).
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }
}

/// Workload description for [`stress`].
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// The participating pids (one thread each).
    pub pids: Vec<Pid>,
    /// Maximum simultaneously active processes: the permits of the
    /// [`NameArena`] the threads run through, in `1..=` the object's `k`.
    pub concurrency: usize,
    /// Acquire/release cycles per thread.
    pub ops_per_thread: u64,
    /// Busy-work iterations while holding a name (0 = release at once).
    pub dwell_spins: u32,
    /// Seed for per-thread jitter.
    pub seed: u64,
}

/// Aggregated results of a [`stress`] run.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// Total acquire/release cycles completed.
    pub total_ops: u64,
    /// Oracle violations (0 for a correct protocol; the oracle also
    /// panics at the moment of violation).
    pub violations: u64,
    /// Largest name ever acquired.
    pub max_name: Name,
    /// Maximum shared accesses spent by a single acquire+release cycle.
    pub max_accesses_per_op: u64,
    /// Mean shared accesses per acquire+release cycle.
    pub mean_accesses_per_op: f64,
    /// Distinct names seen across the run.
    pub distinct_names: usize,
}

/// Drives `rn` from one thread per pid through a [`NameArena`] gated to
/// `config.concurrency` concurrent holders, with the oracle checking
/// every acquisition.
///
/// # Panics
///
/// Panics if `config.concurrency` is not in `1..=rn.concurrency()`, on
/// any uniqueness violation or out-of-range name, and propagates
/// worker-thread panics.
pub fn stress<R: Renaming>(rn: &R, config: &StressConfig) -> StressReport {
    let arena = NameArena::with_permits(rn, config.concurrency);
    let oracle = Oracle::new(rn.dest_size());
    let max_name = AtomicU64::new(0);
    let max_acc = AtomicU64::new(0);
    let total_acc = AtomicU64::new(0);
    let name_seen: Vec<AtomicU64> = (0..rn.dest_size()).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        for (t, &pid) in config.pids.iter().enumerate() {
            let arena = &arena;
            let oracle = &oracle;
            let max_name = &max_name;
            let max_acc = &max_acc;
            let total_acc = &total_acc;
            let name_seen = &name_seen;
            scope.spawn(move || {
                let mut h = arena.client(pid);
                // Cheap deterministic per-thread jitter.
                let mut rng = config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..config.ops_per_thread {
                    let before = h.accesses();
                    let name = h.acquire();
                    assert!(
                        name < rn.dest_size(),
                        "name {name} out of range (D = {})",
                        rn.dest_size()
                    );
                    oracle.claim(name, pid);
                    name_seen[name as usize].store(1, Ordering::Relaxed);
                    max_name.fetch_max(name, Ordering::Relaxed);
                    // Dwell with jitter so holds overlap unpredictably.
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let spins = if config.dwell_spins == 0 {
                        0
                    } else {
                        (rng >> 33) as u32 % config.dwell_spins
                    };
                    for _ in 0..spins {
                        std::hint::spin_loop();
                    }
                    oracle.release_claim(name, pid);
                    h.release();
                    let spent = h.accesses() - before;
                    max_acc.fetch_max(spent, Ordering::Relaxed);
                    total_acc.fetch_add(spent, Ordering::Relaxed);
                }
            });
        }
    });

    let total_ops = config.ops_per_thread * config.pids.len() as u64;
    StressReport {
        total_ops,
        violations: oracle.violations(),
        max_name: max_name.load(Ordering::SeqCst),
        max_accesses_per_op: max_acc.load(Ordering::SeqCst),
        mean_accesses_per_op: total_acc.load(Ordering::SeqCst) as f64 / total_ops.max(1) as f64,
        distinct_names: name_seen
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == 1)
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::ma::MaGrid;
    use crate::split::Split;
    use llr_gf::FilterParams;

    #[test]
    fn oracle_detects_double_claim() {
        let o = Oracle::new(4);
        o.claim(2, 10);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.claim(2, 11)));
        assert!(r.is_err());
        assert_eq!(o.violations(), 1);
        o.release_claim(2, 10);
        o.claim(2, 11); // free again
    }

    #[test]
    fn oracle_rejects_phantom_release() {
        let o = Oracle::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.release_claim(0, 5)));
        assert!(r.is_err());
    }

    #[test]
    fn stress_split_full_concurrency() {
        let split = Split::new(5);
        let report = stress(
            &split,
            &StressConfig {
                pids: (0..5).map(|i| i * 999_999_937 + 13).collect(),
                concurrency: 5,
                ops_per_thread: 300,
                dwell_spins: 20,
                seed: 42,
            },
        );
        assert_eq!(report.violations, 0);
        assert_eq!(report.total_ops, 1500);
        assert!(report.max_name < 81);
        assert!(report.max_accesses_per_op <= 9 * 4);
    }

    #[test]
    fn stress_more_participants_than_k() {
        // 8 registered processes, at most 3 active: the renaming regime.
        let params = FilterParams::two_k_four(3).unwrap();
        let pids: Vec<Pid> = (0..8u64).map(|i| i * 19 + 1).collect();
        let filter = Filter::new(params, &pids).unwrap();
        let report = stress(
            &filter,
            &StressConfig {
                pids,
                concurrency: 3,
                ops_per_thread: 60,
                dwell_spins: 10,
                seed: 1,
            },
        );
        assert_eq!(report.violations, 0);
        assert!(report.max_name < params.dest_size());
        assert!(
            report.max_accesses_per_op
                <= params.getname_access_bound() + params.release_access_bound()
        );
    }

    #[test]
    fn stress_ma_grid() {
        let ma = MaGrid::new(3, 32);
        let report = stress(
            &ma,
            &StressConfig {
                pids: vec![1, 9, 27],
                concurrency: 3,
                ops_per_thread: 150,
                dwell_spins: 8,
                seed: 5,
            },
        );
        assert_eq!(report.violations, 0);
        assert!(report.max_name < 6);
    }
}
