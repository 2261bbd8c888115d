//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints detail lines starting with `#`, and ends
//! with one JSON result line: `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs report the end-to-end metrics, traced runs
//! the per-layer ones and write their spans under `.perfbench/`.

use llr_mc::SplitMix64;
use perfbench::host::Host;
use perfbench::json::Json;
use perfbench::trace::{summarize, write_jsonl, Tracer};
use perfbench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// Where spill files, frontier probes and traces go, under the working
/// directory.
const SCRATCH: &str = ".perfbench";

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {value} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: PathBuf::from(SCRATCH),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("perfbench: cannot create {SCRATCH}: {e}");
        return ExitCode::from(2);
    }
    let host = Host::probe();
    let header = host.to_json(cfg.workload.name(), cfg.seed, cfg.trace);
    println!("# host {header}");
    if host.degraded() {
        println!(
            "# DEGRADED: {} core(s); never compare this run with runs on other hosts",
            host.cores
        );
    }

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let run_id = SplitMix64::new(cfg.seed ^ nanos ^ u64::from(std::process::id()) << 32).next_u64();
    let tracer = Tracer::new();
    let report = run(&cfg, &tracer);
    for note in &report.notes {
        println!("# {note}");
    }
    if cfg.trace {
        let path = cfg.scratch.join(format!(
            "trace-{}-seed{}-{run_id:016x}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        let header = Json::obj([
            ("run", Json::str(format!("{run_id:016x}"))),
            ("host", header),
        ]);
        match write_jsonl(&path, &header, run_id, &report.spans) {
            Ok(()) => println!(
                "# trace: {} spans in {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => println!("# trace not written: {e}"),
        }
        println!("# span                      count     total_ms      self_ms");
        for s in summarize(&report.spans) {
            println!(
                "# {:<22} {:>8} {:>12.3} {:>12.3}",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    println!("# failed_ops_frac {}", report.outcome.failed_ops_frac());
    println!("{}", report.outcome.to_json());
    if report.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
