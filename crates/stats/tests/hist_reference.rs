//! Reference-model test for the windowed latency histogram.
//!
//! `DenseHist` below is the straightforward layout: every one of the
//! 3776 buckets, from 0 ns to `u64::MAX`, held from the first sample.
//! [`LatencyHistogram`] stores only a window of the octaves it has
//! seen. Both are driven with the same random sample streams (exact
//! values below 64 ns, µs–ms latencies, `u64::MAX`, and strictly
//! descending runs that widen the window leftwards again and again) and
//! the same merges (into and from empty histograms, disjoint and nested
//! windows). Every query must agree exactly: count, extremes, mean bits,
//! percentiles, summary and CDF.

use iostats::{CdfPoint, LatencyHistogram, LatencySummary};
use proptest::collection::vec;
use proptest::prelude::*;

const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const NUM_BUCKETS: usize = 3776;

fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        let sub = (v >> shift) & (SUB_COUNT - 1);
        ((msb - u64::from(SUB_BITS) + 1) * SUB_COUNT + sub) as usize
    }
}

fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        idx
    } else {
        let octave = idx / SUB_COUNT - 1;
        let sub = idx % SUB_COUNT;
        let base = 1u64 << (octave + u64::from(SUB_BITS));
        let step = 1u64 << octave;
        base + sub * step + step / 2
    }
}

/// The dense histogram the windowed one must reproduce exactly.
struct DenseHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl DenseHist {
    fn new() -> Self {
        DenseHist {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_value(i)
                    .min(self.max_ns)
                    .max(self.min_ns.min(self.max_ns));
            }
        }
        self.max_ns
    }

    fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1_000.0
    }

    fn cdf(&self, points: usize) -> Vec<CdfPoint> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
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

    fn merge(&mut self, other: &DenseHist) {
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += ob;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }

    fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_ns() / 1_000.0,
            p50_us: self.percentile_us(0.50),
            p90_us: self.percentile_us(0.90),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            p999_us: self.percentile_us(0.999),
            max_us: self.max_ns as f64 / 1_000.0,
        }
    }
}

/// Both histograms fed the same samples.
fn build(samples: &[u64]) -> (LatencyHistogram, DenseHist) {
    let mut h = LatencyHistogram::new();
    let mut r = DenseHist::new();
    for &ns in samples {
        h.record_ns(ns);
        r.record_ns(ns);
    }
    (h, r)
}

fn assert_same(h: &LatencyHistogram, r: &DenseHist) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), r.count);
    prop_assert_eq!(h.is_empty(), r.count == 0);
    prop_assert_eq!(h.min_ns(), r.min_ns());
    prop_assert_eq!(h.max_ns(), r.max_ns);
    prop_assert_eq!(h.mean_ns().to_bits(), r.mean_ns().to_bits());
    let grid = [
        0.0, 1e-4, 0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999,
    ];
    for q in grid
        .into_iter()
        .chain((0..=100).map(|i| f64::from(i) / 100.0))
    {
        prop_assert_eq!(h.percentile_ns(q), r.percentile_ns(q), "q = {}", q);
    }
    prop_assert_eq!(h.summary(), r.summary());
    for n in [0, 1, 7, 20, 100] {
        prop_assert_eq!(h.cdf(n), r.cdf(n), "cdf({})", n);
    }
    Ok(())
}

/// Latencies across the whole range, weighted toward the regions that
/// matter: exact values, µs–ms device latencies and the top bucket.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        64u64..1_000,
        1_000u64..10_000_000,
        Just(u64::MAX),
        0u64..=u64::MAX,
    ]
}

/// Reorders a stream: 0 keeps arrival order, 1 sorts it ascending,
/// 2 makes it strictly descending.
fn arrange(mut xs: Vec<u64>, order: u8) -> Vec<u64> {
    match order {
        0 => {}
        1 => xs.sort_unstable(),
        _ => {
            xs.sort_unstable_by(|a, b| b.cmp(a));
            xs.dedup();
        }
    }
    xs
}

/// Value bands for merge operands: the first and last are disjoint from
/// the rest, the third nests inside the second.
const BANDS: [(u64, u64); 4] = [
    (0, 64),
    (1_000, 10_000_000),
    (20_000, 40_000),
    (1 << 40, u64::MAX),
];

/// Folds raw values into band `band`, or into nothing for `band` past
/// the last one (an empty merge operand).
fn banded(raw: &[u64], band: usize) -> Vec<u64> {
    let Some(&(lo, hi)) = BANDS.get(band) else {
        return Vec::new();
    };
    raw.iter().map(|x| lo + x % (hi - lo)).collect()
}

proptest! {
    #[test]
    fn recorded_streams_match_dense(samples in vec(sample(), 0..400), order in 0u8..3) {
        let (h, r) = build(&arrange(samples, order));
        assert_same(&h, &r)?;
    }

    #[test]
    fn merges_match_dense(
        parts in vec(vec(0u64..=u64::MAX, 0..60), 1..5),
        bands in vec(0..BANDS.len() + 1, 4),
        tail in vec(sample(), 0..40),
    ) {
        let (mut h, mut r) = build(&[]);
        for (part, &band) in parts.iter().zip(&bands) {
            let (ph, pr) = build(&banded(part, band));
            h.merge(&ph);
            r.merge(&pr);
            assert_same(&h, &r)?;
        }
        // Recording after a merge must land in the merged window.
        for &ns in &tail {
            h.record_ns(ns);
            r.record_ns(ns);
        }
        assert_same(&h, &r)?;
    }

    #[test]
    fn merging_into_recorded_histogram_matches_dense(
        left in vec(sample(), 0..100),
        left_order in 0u8..3,
        right in vec(sample(), 0..100),
        right_order in 0u8..3,
    ) {
        let (mut h, mut r) = build(&arrange(left, left_order));
        let (oh, or) = build(&arrange(right, right_order));
        h.merge(&oh);
        r.merge(&or);
        assert_same(&h, &r)?;
    }
}
