//! Percentiles: an exact quantile over small samples, and a latency
//! histogram for the millions of per-operation timings an arena run makes.

/// The `q`-quantile of an already sorted, non-empty sample, linearly
/// interpolated between the two nearest ranks (the estimator numpy and
/// R call "type 7").
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `0..=1`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a non-empty sample, in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Timings below this many nanoseconds land in one-nanosecond buckets;
/// longer ones (parked waits, preemptions) are kept exactly.
const LINEAR_NS: usize = 1 << 14;

/// A latency histogram with one bucket per nanosecond up to 16 µs and
/// exact storage above.
///
/// Recording is one increment, so the measured loop stays cheap and
/// allocation-free while timings stay in the linear range.
/// [`quantile`](Self::quantile) interpolates inside the one-nanosecond
/// bucket it lands in (the grouped-data median formula), so a reported
/// percentile carries a fraction and is within half a nanosecond of the
/// exact order statistic of the recorded integers.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; LINEAR_NS],
            over: Vec::new(),
            n: 0,
        }
    }

    /// Records one timing in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.n += 1;
    }

    /// Timings recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every timing of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds, or `None` if nothing was recorded.
    ///
    /// The target rank is `q · n` over a continuous scale; inside the
    /// linear range the `c` samples of bucket `v` are taken as spread
    /// evenly over `[v − ½, v + ½)`. Above it the exact order statistic is
    /// returned.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
        if self.n == 0 {
            return None;
        }
        let target = q * self.n as f64;
        let mut below = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c as u64) as f64 >= target {
                return Some(v as f64 - 0.5 + (target - below as f64) / c as f64);
            }
            below += c as u64;
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        let rank = (target - below as f64).ceil().max(1.0) as usize;
        Some(over[rank.min(over.len()) - 1] as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llr_mc::SplitMix64;

    /// The nearest-rank order statistic: the smallest sample with at
    /// least `q · n` samples at or below it.
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1] as f64
    }

    #[test]
    fn histogram_matches_an_exact_sort_on_seeded_data() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed);
            let mut h = Histogram::new();
            let mut all = Vec::new();
            for _ in 0..20_000 {
                // Mostly short timings, a heavy tail past the linear range.
                let ns = match rng.next_below(100) {
                    0 => LINEAR_NS as u64 + rng.next_below(1 << 22),
                    1..=9 => rng.next_below(20_000),
                    _ => 40 + rng.next_below(200),
                };
                h.record(ns);
                all.push(ns);
            }
            all.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 0.999, 1.0] {
                let got = h.quantile(q).unwrap();
                let want = exact(&all, q);
                assert!(
                    (got - want).abs() <= 0.5 + 1e-9,
                    "seed {seed} q {q}: histogram {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn merged_histograms_equal_one_recording_everything() {
        let mut rng = SplitMix64::new(7);
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..5_000 {
            let ns = rng.next_below(1 << 19);
            if i % 3 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn small_sample_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }
}
