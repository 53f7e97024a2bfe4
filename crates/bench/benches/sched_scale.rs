//! `sched_scale`: scheduler dispatch cost with tenant count.
//!
//! Each sample times 64 `insert` + `dispatch` pairs on one device
//! scheduler (`none`, MQ-Deadline, BFQ) that carries a weight for each
//! of 8 / 1024 / 4096 tenant groups, ~10% of which are backlogged: the
//! fleet steady state, where the engine registers every cgroup on every
//! device but few tenants have I/O queued. Requests are 4 KiB random
//! reads, so BFQ never idles and each drained queue ends a slice.
//!
//! `none` and MQ-Deadline ignore groups and should stay flat; BFQ's
//! slice-start group choice is what scales (or not) with the count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use iosched_sim::{SchedKind, Scheduler};
use isol_bench_harness::fixtures::{active_count, read4k};
use simcore::{SimDuration, SimTime};

const GROUP_COUNTS: [usize; 3] = [8, 1024, 4096];
const KINDS: [SchedKind; 3] = [SchedKind::None, SchedKind::MqDeadline, SchedKind::Bfq];
/// Insert + dispatch pairs per timed sample.
const BATCH: usize = 64;
/// Requests queued per backlogged group before timing starts.
const DEPTH: usize = 4;

/// A scheduler weighted over groups `1..=n` (weights 100–800, as in the
/// fleet scenarios) with [`active_count`] of them backlogged `DEPTH`
/// deep.
fn populate(kind: SchedKind, n: usize) -> (Scheduler, Vec<usize>) {
    let mut s = Scheduler::new(kind);
    for g in 1..=n {
        s.set_group_weight(blkio::GroupId(g), 100 * (1 + (g % 8) as u32));
    }
    // Spread the backlogged tenants over the id range.
    let stride = n / active_count(n);
    let active: Vec<usize> = (0..active_count(n)).map(|i| 1 + i * stride).collect();
    let mut id = 0;
    for _ in 0..DEPTH {
        for &g in &active {
            s.insert(read4k(id, g, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
    }
    (s, active)
}

fn bench_insert_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_scale");
    g.sample_size(200);
    for kind in KINDS {
        for n in GROUP_COUNTS {
            g.bench_function(BenchmarkId::new(kind, n), |b| {
                let (mut s, active) = populate(kind, n);
                let mut now = SimTime::ZERO;
                let mut id = 1 << 32;
                let mut next = 0;
                b.iter(|| {
                    for _ in 0..BATCH {
                        now += SimDuration::from_micros(10);
                        // Refill round-robin so the backlog stays level.
                        s.insert(read4k(id, active[next], now), now);
                        id += 1;
                        next = (next + 1) % active.len();
                        black_box(s.dispatch(now));
                    }
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_insert_dispatch);
criterion_main!(benches);
