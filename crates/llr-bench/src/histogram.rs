//! A vendored log-bucket latency histogram (no third-party deps — the
//! workspace stays `--offline`).
//!
//! Latencies span four orders of magnitude under contention, so linear
//! buckets are useless and storing raw samples costs cache misses in the
//! measured loop. `LogHistogram` uses the standard HdrHistogram-style
//! compromise: a logarithmic major scale (one per power of two) with
//! `SUB_BUCKETS` linear sub-buckets each, giving a worst-case quantile
//! error of `1/SUB_BUCKETS` (≈ 1.6%) at a fixed 4 KiB footprint.
//! Recording is two shifts and an increment.

/// Linear sub-buckets per power-of-two major bucket.
const SUB_BUCKETS: usize = 64;
/// log2 of `SUB_BUCKETS`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Major buckets: values up to 2^40 ns (~18 min) are resolved; larger
/// values clamp into the last bucket.
const MAJORS: usize = 41;

/// A fixed-size log-bucket histogram of `u64` samples (nanoseconds, in
/// the benchmarks).
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; MAJORS * SUB_BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    /// The bucket index for `value`.
    fn index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            // Values below SUB_BUCKETS get exact (width-1) buckets.
            return value as usize;
        }
        let major = 63 - value.leading_zeros(); // floor(log2), ≥ SUB_BITS
        if major > MAJORS as u32 + SUB_BITS - 2 {
            // Beyond the resolved range: everything lands in the final
            // bucket (whose quantile reports the observed max).
            return MAJORS * SUB_BUCKETS - 1;
        }
        // Keep the SUB_BITS bits below the leading one as the sub-bucket.
        let sub = (value >> (major - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        ((major - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// The inclusive upper edge of bucket `idx` (the value reported for
    /// quantiles landing in it).
    fn bucket_upper(idx: usize) -> u64 {
        if idx == MAJORS * SUB_BUCKETS - 1 {
            // The clamp bucket has no meaningful upper edge; quantile()
            // caps the result at the observed max anyway.
            return u64::MAX;
        }
        let major = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if major == 0 {
            return sub;
        }
        let scale = major as u32 - 1; // value width: 2^scale per sub-bucket
        ((SUB_BUCKETS as u64 + sub + 1) << scale) - 1
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one (used to combine the
    /// per-thread histograms after a run — recording itself is
    /// unsynchronized by design).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest recorded sample (exact, not bucketed).
    #[allow(dead_code)] // part of the histogram's public surface; tests use it
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (e.g. `0.99`): the upper edge of the
    /// first bucket at which the cumulative count reaches `q·total`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the observed maximum (the last
                // bucket's edge can overshoot it).
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// p50/p99/p99.9 in one call.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.quantile(0.0), 0);
        // Median of 0..63 is 31/32 territory; exact buckets → exact rank.
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Any single recorded value must be reported within 1/SUB_BUCKETS
        // relative error at every quantile.
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let mut h = LogHistogram::new();
            h.record(v);
            let got = h.quantile(0.5);
            assert!(got >= v, "q(0.5) of {{{v}}} under-reported: {got}");
            let err = (got - v) as f64 / v as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "value {v}: err {err}"
            );
            v = v.saturating_mul(2) + 1;
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped_to_max() {
        let mut h = LogHistogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37 % 5_000);
        }
        let (p50, p99, p999) = h.percentiles();
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= h.max());
        assert_eq!(h.quantile(1.0), h.max().max(h.quantile(1.0).min(h.max())));
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..1_000u64 {
            let v = i * i % 77_777;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), all.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.99), u64::MAX);
    }
}
