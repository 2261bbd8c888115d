//! E12 — crash–restart churn: verified crash-robust uniqueness plus the
//! measured name-space degradation curve, and the `NameArena` under real
//! thread churn.
//!
//! Two sections, one CSV (`results/e12_churn.csv`):
//!
//! 1. **checker** — exhaustive model checking of `Session<P>` worlds
//!    under a fault budget `f ∈ {0, 1, 2}` ([`ModelChecker::faults`]):
//!    any machine may crash mid-acquire, while holding, or mid-release,
//!    leaving its registers torn, and restart on a spare id. The
//!    *crash-robust* invariant ([`crash_robust_uniqueness`]) must hold
//!    in every reachable state; the *crash-sensitive* name-space bound
//!    is not asserted — instead the `max_names_in_use` / `max_name`
//!    columns record how far churn pushes the name space past the
//!    fault-free `k` live holders (a crash while Holding reserves its
//!    name forever; a torn mid-acquire crash burns splitter/filter
//!    capacity).
//! 2. **churn** — the E11 stack (client threads → admission gate →
//!    `AtomicMemory`) with [`ChaosService`]-armed clients panicking
//!    mid-acquire: permits must all come home, parked waiters must not
//!    strand, survivors' names must stay exclusive.
//!
//! Configurations keep live incarnations + crash ghosts within each
//! protocol's concurrency bound k: two live machines with one spare
//! each, so even `f = 2` peaks at four participants.

use crate::common::{banner, host_parallelism, Table};
use llr_core::arena::NameArena;
use llr_core::chaos::ChaosService;
use llr_core::filter::{FilterCore, FilterShape};
use llr_core::levelarray::{LevelArrayCore, LevelShape};
use llr_core::ma::{MaCore, MaShape};
use llr_core::onetime::{OneTimeCore, OneTimeShape};
use llr_core::session::{crash_robust_uniqueness, ProtocolCore, Session};
use llr_core::split::{Split, SplitCore, SplitShape};
use llr_core::traits::{Renaming, RenamingHandle};
use llr_gf::FilterParams;
use llr_mc::{CheckError, Engine, ModelChecker, SplitMix64};
use llr_mem::Layout;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One exhaustive check of a `Session<P>` world under fault budget `f`,
/// emitting a row with the verification verdict and the degradation
/// metrics gathered along the DFS.
#[allow(clippy::too_many_arguments)]
fn checker_row<P: ProtocolCore>(
    table: &mut Table,
    subject: &str,
    config: &str,
    f: u64,
    layout: Layout,
    machines: Vec<Session<P>>,
    host_cores: usize,
    degraded: bool,
) {
    let dest_size = machines[0].core().dest_size();
    // Metrics ride along in the invariant closure: the sequential DFS
    // calls it in every reachable state, so the cells end up holding the
    // true reachable maxima (no partial-order reduction here — a skipped
    // state could hide the peak).
    let max_in_use = Cell::new(0u64);
    let max_name = Cell::new(0u64);
    let mc = ModelChecker::new(layout, machines).faults(f);
    let result = mc.check_with(&Engine::Sequential, |w| {
        let mut in_use = 0u64;
        let mut peak = 0u64;
        for m in w.machines {
            for &n in m.leaked() {
                in_use += 1;
                peak = peak.max(n);
            }
            if let Some(n) = m.holding() {
                in_use += 1;
                peak = peak.max(n);
            }
        }
        max_in_use.set(max_in_use.get().max(in_use));
        max_name.set(max_name.get().max(peak));
        crash_robust_uniqueness(w)
    });
    match result {
        Ok(stats) => table.row(&[
            &"checker",
            &subject,
            &config,
            &f,
            &stats.states,
            &max_in_use.get(),
            &max_name.get(),
            &dest_size,
            &"-",
            &"VERIFIED",
            &host_cores,
            &if degraded { "yes" } else { "no" },
        ]),
        Err(CheckError::Violation(v)) => {
            table.row(&[
                &"checker",
                &subject,
                &config,
                &f,
                &v.stats.states,
                &max_in_use.get(),
                &max_name.get(),
                &dest_size,
                &"-",
                &"VIOLATED",
                &host_cores,
                &if degraded { "yes" } else { "no" },
            ]);
            eprintln!("VIOLATION in {subject} (f = {f}):\n{v}");
        }
        Err(e) => panic!("E12 {subject} f={f}: exploration did not finish: {e}"),
    }
}

/// Threaded churn on the real-atomics arena: `threads` clients over a
/// gated SPLIT, `armed` of them fused to panic mid-acquire each round.
/// Returns `(completed cycles, crashes, max names in use, max name,
/// leaked permits, uniqueness held)`.
fn churn_run(
    rounds: u64,
    threads: u64,
    gate: usize,
    armed: usize,
    seed: u64,
) -> (u64, u64, u64, u64, usize, bool) {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut cycles = 0u64;
    let mut crashes = 0u64;
    let mut max_in_use = 0u64;
    let mut max_name = 0u64;
    let mut leaked_permits = 0usize;
    let unique = AtomicBool::new(true);
    for round in 0..rounds {
        let mut gen = SplitMix64::new(seed ^ (round.wrapping_mul(0x9E37_79B9)));
        let svc = ChaosService::new(Split::new(8));
        let mut doomed = Vec::new();
        while doomed.len() < armed {
            let t = gen.next_index(threads as usize) as u64;
            if !doomed.contains(&t) {
                doomed.push(t);
            }
        }
        let pid = |t: u64| round * 10_007 + t * 13 + 1;
        for &t in &doomed {
            svc.arm(pid(t), gen.next_index(12) as u64);
        }
        let arena = NameArena::with_permits(svc, gate);
        let claimed: Vec<AtomicBool> = (0..arena.dest_size())
            .map(|_| AtomicBool::new(false))
            .collect();
        let in_use = AtomicU64::new(0);
        let stats = (
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        );
        let (ok_ops, died, peak_in_use, peak_name) = &stats;
        std::thread::scope(|s| {
            for t in 0..threads {
                let arena = &arena;
                let claimed = &claimed;
                let in_use = &in_use;
                let unique = &unique;
                s.spawn(move || {
                    let mut c = arena.client(pid(t));
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        for _ in 0..8 {
                            let n = c.acquire();
                            if claimed[n as usize].swap(true, Ordering::SeqCst) {
                                unique.store(false, Ordering::SeqCst);
                            }
                            peak_in_use.fetch_max(
                                in_use.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            peak_name.fetch_max(n, Ordering::SeqCst);
                            in_use.fetch_sub(1, Ordering::SeqCst);
                            claimed[n as usize].store(false, Ordering::SeqCst);
                            c.release();
                            ok_ops.fetch_add(1, Ordering::SeqCst);
                        }
                    }));
                    if run.is_err() {
                        died.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        cycles += ok_ops.load(Ordering::SeqCst);
        crashes += died.load(Ordering::SeqCst);
        max_in_use = max_in_use.max(peak_in_use.load(Ordering::SeqCst));
        max_name = max_name.max(peak_name.load(Ordering::SeqCst));
        leaked_permits += gate - arena.free_permits();
    }
    std::panic::set_hook(hook);
    (
        cycles,
        crashes,
        max_in_use,
        max_name,
        leaked_permits,
        unique.load(Ordering::SeqCst),
    )
}

/// Runs E12 and writes `results/e12_churn.csv`.
pub fn run() {
    let (host_cores, degraded) = host_parallelism("E12");
    let mut table = Table::new(
        "e12_churn",
        &[
            "section",
            "subject",
            "configuration",
            "faults",
            "states_or_cycles",
            "max_names_in_use",
            "max_name",
            "dest_size",
            "leaked_permits",
            "verdict",
            "host_cores",
            "degraded",
        ],
    );

    banner("checker: crash-robust uniqueness under fault budget f ∈ {0, 1, 2}");

    // SPLIT k = 4: two live machines, one spare each.
    for f in 0..=2u64 {
        let mut layout = Layout::new();
        let shape = SplitShape::build(4, &mut layout);
        let machines: Vec<_> = [3u64, 7_000]
            .iter()
            .map(|&p| {
                Session::start(SplitCore::new(shape.clone(), p), 1)
                    .with_spares(vec![SplitCore::new(shape.clone(), p + 1_000)])
            })
            .collect();
        checker_row(
            &mut table,
            "SPLIT",
            "k=4, 2 live + 1 spare each, 1 session",
            f,
            layout,
            machines,
            host_cores,
            degraded,
        );
    }

    // MA grid k = 4, S = 8: pids and spares all below S.
    for f in 0..=2u64 {
        let mut layout = Layout::new();
        let shape = MaShape::build(4, 8, &mut layout);
        let machines: Vec<_> = [(0u64, 1u64), (3, 5)]
            .iter()
            .map(|&(p, spare)| {
                Session::start(MaCore::new(shape.clone(), p), 1)
                    .with_spares(vec![MaCore::new(shape.clone(), spare)])
            })
            .collect();
        checker_row(
            &mut table,
            "MA grid",
            "k=4, S=8, 2 live + 1 spare each, 1 session",
            f,
            layout,
            machines,
            host_cores,
            degraded,
        );
    }

    // FILTER at the paper's 2k⁴ regime, k = 4. Spare pids must be part
    // of the shape: the filter hashes every participant id at build time.
    for f in 0..=2u64 {
        let params = FilterParams::two_k_four(4).expect("2k=4 params");
        let mut layout = Layout::new();
        let shape = FilterShape::build(params, &[1, 6, 11, 16], &mut layout).expect("filter shape");
        let machines: Vec<_> = [(1u64, 11u64), (6, 16)]
            .iter()
            .map(|&(p, spare)| {
                Session::start(FilterCore::new(shape.clone(), p), 1)
                    .with_spares(vec![FilterCore::new(shape.clone(), spare)])
            })
            .collect();
        checker_row(
            &mut table,
            "FILTER",
            "2k⁴ regime k=4, 2 live + 1 spare each, 1 session",
            f,
            layout,
            machines,
            host_cores,
            degraded,
        );
    }

    // LevelArray k = 4: the swap-based rival. A crash while Holding leaks
    // its level bit — `max_names_in_use` counts it like any other claim.
    for f in 0..=2u64 {
        let mut layout = Layout::new();
        let shape = LevelShape::build(4, &mut layout);
        let machines: Vec<_> = [3u64, 9_000]
            .iter()
            .map(|&p| {
                Session::start(LevelArrayCore::new(shape.clone(), p), 1)
                    .with_spares(vec![LevelArrayCore::new(shape.clone(), p + 50_000)])
            })
            .collect();
        checker_row(
            &mut table,
            "LevelArray",
            "k=4, 2 live + 1 spare each, 1 session",
            f,
            layout,
            machines,
            host_cores,
            degraded,
        );
    }

    // Small splitter network ℓ = 3 (one-shot, 4 entrants): every restart
    // consumes an entry slot, so 2 live + 1 spare each saturates the
    // network exactly at f = 2.
    for f in 0..=2u64 {
        let mut layout = Layout::new();
        let shape = OneTimeShape::small_net(3, &mut layout);
        let machines: Vec<_> = [0u64, 1]
            .iter()
            .map(|&p| {
                Session::start(OneTimeCore::new(shape.clone(), p), 1)
                    .with_spares(vec![OneTimeCore::new(shape.clone(), p + 2)])
            })
            .collect();
        checker_row(
            &mut table,
            "small net",
            "ℓ=3 (4 entrants), 2 live + 1 spare each, 1 session",
            f,
            layout,
            machines,
            host_cores,
            degraded,
        );
    }

    banner("churn: real threads dying mid-acquire on the gated arena");
    for (label, armed) in [
        ("fault-free baseline", 0usize),
        ("2 armed clients/round", 2),
    ] {
        let (cycles, crashes, max_in_use, max_name, leaked, unique) =
            churn_run(40, 8, 4, armed, 0xE12_0000_0000_0001);
        let verdict = if leaked == 0 && unique {
            "PASSED"
        } else {
            "FAILED"
        };
        table.row(&[
            &"churn",
            &"arena SPLIT k=8",
            &format!("gate=4, 8 threads, 40 rounds, {label}"),
            &crashes,
            &cycles,
            &max_in_use,
            &max_name,
            &Split::new(8).dest_size(),
            &leaked,
            &verdict,
            &host_cores,
            &if degraded { "yes" } else { "no" },
        ]);
        if verdict == "FAILED" {
            eprintln!("E12 churn ({label}): leaked_permits={leaked}, unique={unique}");
        }
    }

    table.finish();
    println!("(crash-robust uniqueness VERIFIED exhaustively; name-space bounds degrade by design — read max_names_in_use against the fault-free row)");
}
