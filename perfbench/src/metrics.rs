//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root repeats these names and units;
//! the tests hold the two in step.

use crate::json::Json;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// The unit the value is reported in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run (`--trace 0`), on every workload. Arena
/// workloads count acquire+release cycles and time `acquire`; checker
/// workloads count explored states and time whole verifications (see the
/// README beside this crate).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("latency_p50_ns", "ns"),
    m("latency_p99_ns", "ns"),
    m("peak_rss_mb", "MB"),
];

/// Reported by every traced run (`--trace 1`). A layer the workload does
/// not go through reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("mem.read_ns", "ns"),
    m("mem.write_ns", "ns"),
    m("mem.write_rel_ns", "ns"),
    m("mem.swap_ns", "ns"),
    m("protocol.acquire_accesses", "count"),
    m("protocol.release_accesses", "count"),
    m("session.acquire_ns", "ns"),
    m("session.release_ns", "ns"),
    m("session.ns_per_access", "ns"),
    m("arena.gate_ns", "ns"),
    m("arena.waited_frac", "frac"),
    m("arena.waited_acquire_p50_ns", "ns"),
    m("arena.release_p50_ns", "ns"),
    m("mc.step_ns", "ns"),
    m("engine.states", "count"),
    m("engine.transitions", "count"),
    m("engine.self_ns_per_state", "ns"),
    m("engine.peak_resident_bytes", "bytes"),
    m("engine.resident_bytes_per_state", "bytes"),
    m("por.states", "count"),
    m("por.transitions", "count"),
    m("por.ram_ns_per_state", "ns"),
    m("spill.self_s", "s"),
    m("spill.written_bytes_per_state", "bytes"),
    m("spill.peak_resident_bytes", "bytes"),
    m("frontier.write_ns_per_record", "ns"),
    m("frontier.read_ns_per_record", "ns"),
    m("bench.clock_ns", "ns"),
    m("bench.trace_overhead_frac", "frac"),
];

/// Whether `name` obeys the metric and workload name grammar: 1 to 64
/// characters from `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The values one run measured, keyed by the catalogue it reports.
#[derive(Clone, Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// Nothing measured yet.
    pub fn empty(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Every metric at 0: for per-layer catalogues, where a layer the
    /// workload skips stays at 0.
    pub fn zeroed(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: vec![Some(0.0); defs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue or `value` is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} = {value}");
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// `(definition, value)` for every metric.
    ///
    /// # Panics
    ///
    /// Panics if a metric was never set.
    pub fn entries(&self) -> Vec<(MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                (
                    *d,
                    v.unwrap_or_else(|| panic!("metric {} was never measured", d.name)),
                )
            })
            .collect()
    }
}

/// What one run found and measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (arena cycles, verifications) the run checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_ops_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// each metric as `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.entries().into_iter().map(|(d, v)| {
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_obey_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                "bad unit {}",
                d.unit
            );
        }
    }

    #[test]
    fn grammar_rejects_what_it_should() {
        for bad in ["", "_lead", ".x", "a b", "ü", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for good in ["a", "9x", "arena-split", "mem.read_ns", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?} rejected");
        }
    }

    #[test]
    fn result_line_carries_exactly_four_keys() {
        let mut metrics = Metrics::empty(END_TO_END);
        for (i, d) in END_TO_END.iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64);
        }
        let out = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics,
        };
        let line = Json::parse(&out.to_json().to_string()).unwrap();
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.keys(),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn an_unset_metric_is_a_bug() {
        Metrics::empty(END_TO_END).entries();
    }
}
