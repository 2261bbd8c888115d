//! The benchmark's own checks: `BENCHMARK.json` agrees with the code, and
//! every workload runs, checks its outputs and reports every metric.
//!
//! The smoke tests run each workload in full once (the checker workloads
//! are fixed models), so run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::checker::{BFS_PINNED, POR_SPILL_PINNED};
use perfbench::json::Json;
use perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{run, Config, Report, Workload};
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_round_trips_and_matches_the_code() {
    let b = benchmark_json();
    assert_eq!(
        Json::parse(&b.to_string()).unwrap(),
        b,
        "print → parse round trip"
    );
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names_units(b.get("end_to_end").unwrap()),
        catalogue(END_TO_END)
    );
    assert_eq!(
        names_units(b.get("per_layer").unwrap()),
        catalogue(PER_LAYER)
    );
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for name in &workloads {
        assert!(valid_name(name), "bad workload name {name}");
    }

    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s is an end-to-end metric")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
        assert!(*bound <= setup, "setup_s must carry the largest bound");
    }
    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

/// Runs `workload` briefly in a scratch directory of its own.
fn smoke(workload: Workload, trace: bool) -> Report {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scratch,
    };
    let report = run(&cfg, &Tracer::new());
    assert!(
        report.outcome.correct,
        "{}: {:?}",
        workload.name(),
        report.notes
    );
    assert_eq!(report.outcome.failed, 0);
    assert_eq!(report.outcome.failed_ops_frac(), 0.0);
    assert!(report.outcome.attempted >= 1);

    let line = Json::parse(&report.outcome.to_json().to_string()).unwrap();
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics = line.get("metrics").unwrap();
    assert_eq!(
        metrics.keys(),
        defs.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    if !trace {
        for d in END_TO_END {
            let v = metrics
                .get(d.name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(v > 0.0, "{}: end-to-end {} = {v}", workload.name(), d.name);
        }
    } else {
        assert!(!report.spans.is_empty(), "a traced run records spans");
    }
    report
}

/// The named per-layer metrics are measured (nonzero) on this run.
fn measured(report: &Report, names: &[&str]) {
    for name in names {
        let v = report.outcome.metrics.get(name).unwrap();
        assert!(v != 0.0, "{name} was not measured");
    }
}

const ARENA_LAYERS: &[&str] = &[
    "mem.read_ns",
    "mem.write_ns",
    "mem.write_rel_ns",
    "mem.swap_ns",
    "protocol.acquire_accesses",
    "protocol.release_accesses",
    "session.acquire_ns",
    "session.release_ns",
    "session.ns_per_access",
    "arena.release_p50_ns",
    "bench.clock_ns",
];

const ENGINE_LAYERS: &[&str] = &[
    "mc.step_ns",
    "engine.states",
    "engine.transitions",
    "engine.self_ns_per_state",
    "engine.peak_resident_bytes",
    "engine.resident_bytes_per_state",
    "bench.clock_ns",
];

#[test]
fn arena_split_smoke() {
    smoke(Workload::ArenaSplit, false);
    let traced = smoke(Workload::ArenaSplit, true);
    measured(&traced, ARENA_LAYERS);
    // Two clients on eight permits never find the gate closed.
    assert_eq!(traced.outcome.metrics.get("arena.waited_frac"), Some(0.0));
}

#[test]
fn arena_gate_smoke() {
    smoke(Workload::ArenaGate, false);
    let traced = smoke(Workload::ArenaGate, true);
    measured(&traced, ARENA_LAYERS);
    measured(
        &traced,
        &["arena.waited_frac", "arena.waited_acquire_p50_ns"],
    );
    assert_eq!(
        traced.outcome.metrics.get("protocol.acquire_accesses"),
        Some(2.0)
    );
    assert_eq!(
        traced.outcome.metrics.get("protocol.release_accesses"),
        Some(1.0)
    );
}

#[test]
fn check_bfs_smoke() {
    assert_eq!(smoke(Workload::CheckBfs, false).counts, Some(BFS_PINNED));
    let traced = smoke(Workload::CheckBfs, true);
    assert_eq!(traced.counts, Some(BFS_PINNED));
    measured(&traced, ENGINE_LAYERS);
    assert_eq!(
        traced.outcome.metrics.get("spill.self_s"),
        Some(0.0),
        "check-bfs never spills"
    );
}

#[test]
fn check_por_spill_smoke() {
    assert_eq!(
        smoke(Workload::CheckPorSpill, false).counts,
        Some(POR_SPILL_PINNED)
    );
    let traced = smoke(Workload::CheckPorSpill, true);
    assert_eq!(traced.counts, Some(POR_SPILL_PINNED));
    measured(&traced, ENGINE_LAYERS);
    measured(
        &traced,
        &[
            "por.states",
            "por.transitions",
            "por.ram_ns_per_state",
            "spill.self_s",
            "spill.written_bytes_per_state",
            "spill.peak_resident_bytes",
            "frontier.write_ns_per_record",
            "frontier.read_ns_per_record",
        ],
    );
    assert_eq!(
        traced.outcome.metrics.get("por.states"),
        Some(POR_SPILL_PINNED.0 as f64)
    );
}

#[test]
fn gate_pids_get_distinct_home_slots() {
    use llr_core::levelarray::LevelArray;
    use perfbench::arena::{client_pids, solo_name};
    let probe = LevelArray::new(4);
    for seed in 0..64 {
        let pids = client_pids(seed, |p| solo_name(&probe, p));
        assert_ne!(pids[0], pids[1]);
        assert_ne!(
            solo_name(&probe, pids[0]),
            solo_name(&probe, pids[1]),
            "seed {seed}"
        );
        assert_eq!(
            pids,
            client_pids(seed, |p| solo_name(&probe, p)),
            "same seed, same pids"
        );
    }
}

#[test]
fn unknown_workloads_are_rejected() {
    assert_eq!(Workload::from_name("check-bfs"), Some(Workload::CheckBfs));
    assert_eq!(Workload::from_name("check_bfs"), None);
}
