//! `qos_scale`: `io.cost` controller cost scaling with tenant count.
//!
//! Two cost axes, each at 8 / 256 / 1024 / 4096 / 16384 materialized
//! tenant groups with ~10% of them active (the fleet steady state: most
//! tenants idle between diurnal bursts):
//!
//! * **tick** — one `io.cost` period boundary (`adjust_vrate`): usage
//!   EMAs, active-set pruning, vrate clamp. The controller walks only
//!   the active slot set.
//! * **charge** — pricing one 4 KiB random read on the submit path
//!   (`on_submit`): hweight is served from the controller's memo or
//!   recomputed over the active groups.
//!
//! The `perfsnap` binary re-times the tick axis at 8 and 1024 groups and
//! gates absolute regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ioqos::{IoCostController, QosController};
use isol_bench_harness::fixtures;
use simcore::SimDuration;

const GROUP_COUNTS: [usize; 5] = [8, 256, 1024, 4096, 16384];

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

criterion_group!(benches, bench_tick, bench_charge);
criterion_main!(benches);
