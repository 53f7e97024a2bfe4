//! `qos_scale`: `io.cost` controller cost scaling with tenant count.
//!
//! Three cost axes over materialized tenant groups with ~10% of them
//! active (the fleet steady state: most tenants idle between diurnal
//! bursts):
//!
//! * **tick** (8 / 256 / 1024 / 4096 / 16384 groups) — one `io.cost`
//!   period boundary (`adjust_vrate`): usage EMAs, active-set pruning,
//!   vrate clamp. The controller walks only the active slot set.
//! * **charge** (same counts) — pricing one 4 KiB random read on the
//!   submit path (`on_submit`): hweight is served from the probe's tag
//!   or derived in O(1) from the shared row sums, rebuilt over the
//!   active groups when the epoch has moved.
//! * **epoch** (256 / 1024 / 4096 groups) — one period of the fleet
//!   pattern: a tick, then one submit from each active group, each the
//!   group's first hweight in the new epoch. One shared row-sum build
//!   serves them all, so the period costs O(active), not O(active²).
//!
//! The `perfsnap` binary re-times the tick axis at 8 and 1024 groups and
//! gates absolute regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ioqos::{IoCostController, QosController, SubmitOutcome};
use isol_bench_harness::fixtures;
use simcore::SimDuration;

const GROUP_COUNTS: [usize; 5] = [8, 256, 1024, 4096, 16384];
const EPOCH_GROUP_COUNTS: [usize; 3] = [256, 1024, 4096];

fn bench_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("qos_scale_tick");
    g.sample_size(50);
    for n in GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("arena", n), |b| {
            let mut ctl = IoCostController::new(fixtures::bench_config());
            let mut now = fixtures::populate(&mut ctl, n);
            b.iter(|| {
                now += SimDuration::from_millis(5);
                ctl.tick(black_box(now));
            });
        });
    }
    g.finish();
}

fn bench_charge(c: &mut Criterion) {
    let mut g = c.benchmark_group("qos_scale_charge");
    g.sample_size(50);
    for n in GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("arena", n), |b| {
            let mut ctl = IoCostController::new(fixtures::bench_config());
            let mut now = fixtures::populate(&mut ctl, n);
            let mut id = 1_000_000;
            b.iter(|| {
                // The probe tenant's weight dwarfs the fleet's, so its
                // charge always clears the margin at this pace and the
                // held queues stay bounded.
                now += SimDuration::from_micros(400);
                id += 1;
                let req = fixtures::read4k(id, fixtures::PROBE_GROUP, now);
                black_box(ctl.on_submit(req, now))
            });
        });
    }
    g.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("qos_scale_epoch");
    g.sample_size(20);
    for n in EPOCH_GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("arena", n), |b| {
            let mut ctl = IoCostController::new(fixtures::bench_config());
            let mut now = fixtures::populate(&mut ctl, n);
            // The active groups `populate` left, each still pinned by
            // one uncompleted I/O.
            let stride = (n / fixtures::active_count(n)).max(1);
            let mut id = 1_000_000;
            let mut done = Vec::new();
            b.iter(|| {
                now += SimDuration::from_millis(5);
                ctl.tick(black_box(now));
                for g in (1..=n).step_by(stride) {
                    id += 1;
                    if let SubmitOutcome::Pass(r) = ctl.on_submit(fixtures::read4k(id, g, now), now)
                    {
                        done.push(r);
                    }
                }
                // Complete this period's I/O so held queues and
                // in-flight counts stay bounded across iterations.
                ctl.drain_released_into(now, &mut done);
                for r in done.drain(..) {
                    ctl.on_device_complete(&r, now);
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tick, bench_charge, bench_epoch);
criterion_main!(benches);
