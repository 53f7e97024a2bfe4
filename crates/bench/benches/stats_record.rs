//! `stats_record`: the completion-statistics cost per I/O.
//!
//! * `hot` — one tenant's `LatencyHistogram::record` +
//!   `BandwidthSeries::record` per completion, the engine's per-I/O
//!   bookkeeping once the tenant's latency octaves are already held.
//! * `first_record_4096` — the first sample into each of 4096 fresh
//!   histograms: the fleet pattern, where most tenants complete a
//!   handful of I/Os and the first record sets the histogram's size.
//! * `summary` — the report digest of a histogram holding 100k samples
//!   spread over 20 µs – 2 ms.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use iostats::{BandwidthSeries, LatencyHistogram};
use simcore::{SimDuration, SimTime};

/// Completions per timed sample of the hot path.
const BATCH: u64 = 1024;
/// Tenants in the cold-record sample.
const TENANTS: u64 = 4096;

/// A latency in 20 µs – ~2 ms, scrambled from `i`.
fn latency(i: u64) -> SimDuration {
    let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    SimDuration::from_nanos(20_000 + x % 2_000_000)
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats_record");
    g.sample_size(200);

    g.bench_function("hot", |b| {
        let mut hist = LatencyHistogram::new();
        let mut bw = BandwidthSeries::new(SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        let mut i = 0;
        b.iter(|| {
            for _ in 0..BATCH {
                now += SimDuration::from_micros(10);
                hist.record(latency(i));
                bw.record(now, 4096);
                i += 1;
            }
            black_box(hist.count())
        });
    });

    g.bench_function("first_record_4096", |b| {
        b.iter(|| {
            let hists: Vec<LatencyHistogram> = (0..TENANTS)
                .map(|t| {
                    let mut h = LatencyHistogram::new();
                    h.record(latency(t));
                    h
                })
                .collect();
            black_box(hists)
        });
    });

    g.bench_function("summary", |b| {
        let mut hist = LatencyHistogram::new();
        for i in 0..100_000 {
            hist.record(latency(i));
        }
        b.iter(|| black_box(&hist).summary());
    });

    g.finish();
}

criterion_group!(benches, bench_stats);
criterion_main!(benches);
