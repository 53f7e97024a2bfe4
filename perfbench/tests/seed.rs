//! The seed argument is the only input: the same seed repeats every
//! deterministic per-layer count exactly, another seed changes them.
//!
//! One test function on purpose: the engine counters the counts come
//! from are process-global, so traced runs must not overlap.

use perfbench::bench::{run_traced, Options};
use perfbench::check::{Reference, REFERENCE};
use perfbench::workloads::Workload;

/// The metrics that must repeat exactly: counts, per-I/O ratios of
/// counts, and simulated-time means.
fn deterministic(seed: u64) -> Vec<(&'static str, f64)> {
    let out = run_traced(&Options {
        workload: Workload::AppsClosed,
        seed,
        seconds: 1.0,
        reference: Reference::parse(REFERENCE),
        max_cells: Some(2),
    });
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    out.metrics
        .iter()
        .filter(|m| {
            matches!(m.unit, "1/io" | "count" | "sim_us")
                || m.name == "host-sim.tourney_active_frac"
        })
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn seed_alone_decides_the_counts() {
    let a = deterministic(11);
    let b = deterministic(11);
    let c = deterministic(12);
    assert!(a.len() >= 12, "{a:?}");
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{name} differs at the same seed");
    }
    let changed = a.iter().zip(&c).filter(|((_, x), (_, y))| x != y).count();
    assert!(
        changed >= 6,
        "another seed changed only {changed} counts: {a:?} vs {c:?}"
    );
}
