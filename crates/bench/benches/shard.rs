//! Sharded-engine benchmarks: the 7-SSD fleet scenario at increasing
//! shard counts (results are bit-exact at every count; only wall-clock
//! changes). Traced runs always execute at one shard, so they have no
//! sharded variant to time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use isol_bench::experiments::fleet;
use isol_bench::Knob;
use simcore::SimTime;

/// Short enough for `cargo test` (which runs each bench once), long
/// enough that shard setup cost is amortized.
const UNTIL_MS: u64 = 20;

fn bench_fleet_shards(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_shards");
    let until = SimTime::from_millis(UNTIL_MS);
    for shards in [1usize, 2, 4, 7] {
        g.bench_function(BenchmarkId::new("fleet_7ssd_20ms", shards), |b| {
            b.iter(|| {
                let sim = fleet::fleet_scenario(Knob::None, fleet::FLEET_SSDS).build_host(until);
                black_box(sim.run_sharded(until, shards))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fleet_shards);
criterion_main!(benches);
