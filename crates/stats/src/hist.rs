//! Log-bucketed latency histogram with percentile and CDF queries.

use serde::{Deserialize, Serialize};

/// Number of sub-buckets per octave; 64 gives ≤ ~1.6 % relative error,
/// comparable to an HDR histogram with two significant digits.
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-linear ("HDR-style") histogram of latencies in nanoseconds.
///
/// Values up to 64 ns are recorded exactly; beyond that, each octave is
/// split into 64 linear sub-buckets, bounding relative quantization error
/// at ~1.6 %. Only the octaves between the smallest and largest sample
/// are stored, so memory is 512 B per octave spanned (at most ~30 KiB).
/// This matches how the paper reports latency (CDFs and P99 in
/// microseconds).
///
/// # Example
///
/// ```
/// use iostats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000u64 {
///     h.record_ns(i * 1_000); // 1..=1000 us
/// }
/// let p50 = h.percentile_ns(0.50) as f64 / 1_000.0;
/// assert!((p50 - 500.0).abs() / 500.0 < 0.03);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Counts for bucket indices `base .. base + buckets.len()`: a window
    /// of whole octaves (the 64 exact values 0–63 count as one) covering
    /// every sample seen. Buckets outside it are zero, so a fleet tenant
    /// whose latencies span a few octaves holds a few hundred bytes, not
    /// all ~30 KiB. Empty means "all zeros".
    buckets: Vec<u64>,
    /// First bucket index in `buckets`; a multiple of `SUB_COUNT`.
    base: usize,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// One point of a cumulative distribution function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdfPoint {
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Cumulative probability in `[0, 1]`.
    pub cum_prob: f64,
}

/// The latency digest printed in reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds (the paper's headline metric).
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Maximum observed, microseconds.
    pub max_us: f64,
}

const fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) & (SUB_COUNT - 1);
        ((msb - SUB_BITS as u64 + 1) * SUB_COUNT + sub) as usize
    }
}

fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        idx
    } else {
        let octave = idx / SUB_COUNT - 1;
        let sub = idx % SUB_COUNT;
        let base = 1u64 << (octave + SUB_BITS as u64);
        let step = 1u64 << octave;
        // Midpoint of the sub-bucket.
        base + sub * step + step / 2
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            base: 0,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Total bucket count: exact values below 64 ns, then 64 linear
    /// sub-buckets per octave up to `u64::MAX`.
    const NUM_BUCKETS: usize = bucket_index(u64::MAX) + 1;

    /// Grows the window to whole octaves covering bucket indices
    /// `lo..hi` as well as the current window, keeping its counts.
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        let (lo, hi) = if self.buckets.is_empty() {
            (lo, hi)
        } else {
            (lo.min(self.base), hi.max(self.base + self.buckets.len()))
        };
        let sub = SUB_COUNT as usize;
        let base = lo / sub * sub;
        let end = hi.next_multiple_of(sub).min(Self::NUM_BUCKETS);
        let mut buckets = vec![0; end - base];
        // An empty window (base 0) copies nothing, at offset 0.
        let off = self.base.saturating_sub(base);
        buckets[off..off + self.buckets.len()].copy_from_slice(&self.buckets);
        self.buckets = buckets;
        self.base = base;
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        if idx.wrapping_sub(self.base) >= self.buckets.len() {
            self.widen(idx, idx + 1);
        }
        self.buckets[idx - self.base] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a [`simcore::SimDuration`] sample.
    pub fn record(&mut self, d: simcore::SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in nanoseconds (0 if empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value (0 if empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Value at quantile `q` in `[0, 1]`; 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_value(self.base + i)
                    .min(self.max_ns)
                    .max(self.min_ns.min(self.max_ns));
            }
        }
        self.max_ns
    }

    /// Value at quantile `q`, in (fractional) microseconds.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1_000.0
    }

    /// Extracts `points` evenly spaced CDF points (plus the tail at
    /// P99/P99.9/P99.99), sorted by latency. Empty if no samples.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<CdfPoint> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(points + 3);
        for i in 1..=points {
            let q = i as f64 / points as f64;
            out.push(CdfPoint {
                latency_us: self.percentile_us(q),
                cum_prob: q,
            });
        }
        for q in [0.99, 0.999, 0.9999] {
            out.push(CdfPoint {
                latency_us: self.percentile_us(q),
                cum_prob: q,
            });
        }
        out.sort_by(|a, b| a.cum_prob.total_cmp(&b.cum_prob));
        out.dedup_by(|a, b| (a.cum_prob - b.cum_prob).abs() < 1e-12);
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.buckets.is_empty() {
            let (lo, hi) = (other.base, other.base + other.buckets.len());
            if self.buckets.is_empty() || lo < self.base || hi > self.base + self.buckets.len() {
                self.widen(lo, hi);
            }
            for (b, ob) in self.buckets[lo - self.base..]
                .iter_mut()
                .zip(&other.buckets)
            {
                *b += ob;
            }
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }

    /// Produces the report digest.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_ns() / 1_000.0,
            p50_us: self.percentile_us(0.50),
            p90_us: self.percentile_us(0.90),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            p999_us: self.percentile_us(0.999),
            max_us: self.max_ns() as f64 / 1_000.0,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert!(h.cdf(10).is_empty());
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record_ns(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 63);
        assert_eq!(h.percentile_ns(1.0), 63);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let v = 123_456_789u64;
        h.record_ns(v);
        let got = h.percentile_ns(1.0);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.02, "error {err}");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut seed = 1u64;
        for _ in 0..10_000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record_ns(seed % 10_000_000 + 100);
        }
        let mut last = 0;
        for i in 0..=100 {
            let p = h.percentile_ns(i as f64 / 100.0);
            assert!(p >= last, "p{i} = {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn uniform_median_is_accurate() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record_ns(us * 1_000);
        }
        let p50 = h.percentile_us(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 {p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(300);
        assert_eq!(h.mean_ns(), 200.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(1_000);
        b.record_ns(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 1_000);
        assert_eq!(a.max_ns(), 9_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record_ns(5_000);
        let before = a.summary();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn merge_into_never_recorded_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        b.record_ns(7_000);
        b.record_ns(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn cdf_is_sorted_and_ends_at_tail() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record_ns(us * 1_000);
        }
        let cdf = h.cdf(20);
        assert!(cdf.windows(2).all(|w| w[0].cum_prob <= w[1].cum_prob));
        assert!(cdf
            .windows(2)
            .all(|w| w[0].latency_us <= w[1].latency_us + 1e-9));
        assert!((cdf.last().unwrap().cum_prob - 1.0).abs() < 1e-9);
        assert!(cdf.iter().any(|p| (p.cum_prob - 0.9999).abs() < 1e-9));
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = LatencyHistogram::new();
        for us in [100u64, 200, 300, 400, 5_000] {
            h.record_ns(us * 1_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us && s.p99_us <= s.max_us + 1e-9);
        assert!((s.max_us - 5_000.0).abs() < 1.0);
    }

    #[test]
    fn new_histogram_holds_no_buckets() {
        let h = LatencyHistogram::new();
        assert!(h.buckets.is_empty());
        let mut m = LatencyHistogram::new();
        m.merge(&h);
        assert!(m.buckets.is_empty());
    }

    #[test]
    fn one_octave_holds_64_buckets() {
        let mut h = LatencyHistogram::new();
        // 16_384 ns = 2^14: every sample shares that octave.
        for ns in [20_000u64, 16_384, 32_767, 25_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.buckets.len(), 64);
        let mut exact = LatencyHistogram::new();
        for ns in [63u64, 0, 17] {
            exact.record_ns(ns);
        }
        assert_eq!(exact.buckets.len(), 64);
    }

    #[test]
    fn window_spans_only_seen_octaves() {
        let (lo, hi) = (20_000u64, 5_000_000u64);
        let octaves = (hi.ilog2() - lo.ilog2() + 1) as usize;
        let mut h = LatencyHistogram::new();
        let mut ns = hi;
        while ns >= lo {
            h.record_ns(ns);
            ns = ns * 7 / 8;
        }
        h.record_ns(lo);
        assert!(
            h.buckets.len() <= octaves * 64,
            "{} buckets",
            h.buckets.len()
        );
        assert_eq!(h.buckets.len() % 64, 0);
    }

    #[test]
    fn full_range_holds_every_bucket() {
        for order in [[0, u64::MAX], [u64::MAX, 0]] {
            let mut h = LatencyHistogram::new();
            for ns in order {
                h.record_ns(ns);
            }
            assert_eq!(h.buckets.len(), LatencyHistogram::NUM_BUCKETS);
            assert_eq!(h.percentile_ns(0.0), 0);
            assert_eq!(
                h.percentile_ns(1.0),
                bucket_value(LatencyHistogram::NUM_BUCKETS - 1)
            );
        }
    }

    #[test]
    fn bucket_value_inverts_bucket_index() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            1_000,
            10_000,
            1_000_000,
            u32::MAX as u64,
        ] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / (v as f64).max(1.0);
            assert!(err < 0.02, "v {v} rep {rep} err {err}");
        }
    }
}
