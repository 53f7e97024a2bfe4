//! Regression tests for the engine's determinism guarantees:
//!
//! * running an experiment grid on one worker and on several workers
//!   must produce byte-identical CSV output (any jobs-dependent
//!   divergence — result reordering, per-worker RNG state, racy
//!   accumulation — fails here),
//! * output must match the committed golden CSVs, pinning today's
//!   tables against *any* future engine change (the goldens were
//!   captured before the wheel/slab/enum-dispatch rework and survived
//!   it byte-for-byte).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use isol_bench::cache::CacheStats;
use isol_bench::experiments::{fig4, q_faults};
use isol_bench::{run_cells, Fidelity, OutputSink, RunConfig};

fn with_jobs(jobs: usize) -> RunConfig {
    RunConfig {
        jobs,
        ..RunConfig::default()
    }
}

/// Runs one experiment's smoke grid, returning every emitted CSV as
/// `name -> bytes`.
fn grid_csvs(
    experiment: &str,
    tag: &str,
    run: impl FnOnce(&mut OutputSink),
) -> BTreeMap<String, Vec<u8>> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-determinism-{experiment}-{}-{tag}",
        std::process::id()
    ));
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    run(&mut sink);
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

fn fig4_csvs(cfg: &RunConfig, tag: &str) -> BTreeMap<String, Vec<u8>> {
    grid_csvs("fig4", tag, |sink| {
        fig4::stage(Fidelity::Smoke)
            .run(cfg, sink)
            .expect("fig4 run");
    })
}

/// The fault-injection grid: the interesting determinism case, because
/// every cell draws from a fault RNG stream on top of the usual
/// simulation streams.
fn q_faults_csvs(cfg: &RunConfig, tag: &str) -> BTreeMap<String, Vec<u8>> {
    grid_csvs("qfaults", tag, |sink| {
        q_faults::stage(Fidelity::Smoke)
            .run(cfg, sink)
            .expect("q_faults run");
    })
}

fn assert_same_csvs(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert!(!a.is_empty(), "experiment emitted no CSVs");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "emitted CSV sets differ between {what}"
    );
    for (name, a_bytes) in a {
        assert_eq!(a_bytes, &b[name], "{name}.csv differs between {what}");
    }
}

#[test]
fn fig4_grid_is_byte_identical_across_worker_counts() {
    let sequential = fig4_csvs(&with_jobs(1), "seq");
    let parallel = fig4_csvs(&with_jobs(4), "par");
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4");
}

#[test]
fn fig4_smoke_output_matches_committed_golden() {
    let current = fig4_csvs(&with_jobs(2), "golden");
    assert_matches_goldens(&current, 2, "the two fig4 CSVs");
}

fn assert_matches_goldens(current: &BTreeMap<String, Vec<u8>>, min: usize, what: &str) {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for (name, bytes) in current {
        let golden_path = golden_dir.join(format!("{name}.csv"));
        let golden = fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", golden_path.display()));
        assert_eq!(
            bytes, &golden,
            "{name}.csv diverged from the committed golden fixture"
        );
        checked += 1;
    }
    assert!(checked >= min, "expected at least {what}");
}

/// The cache determinism guarantee: a warm run serves every cell from
/// disk yet stays byte-identical to the cold run *and* to the committed
/// goldens — the cache is invisible in the output.
#[test]
fn fig4_warm_cache_run_is_byte_identical_to_cold_and_golden() {
    let cache_dir: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-determinism-cache-{}",
        std::process::id()
    ));
    fs::remove_dir_all(&cache_dir).ok();
    let cfg = RunConfig {
        jobs: 2,
        cache: Some(cache_dir.clone()),
        ..RunConfig::default()
    };
    let run = |tag: &str| {
        let mut stats = CacheStats::default();
        let csvs = grid_csvs("fig4", tag, |sink| {
            let (cells, finish) = fig4::stage(Fidelity::Smoke).into_parts();
            let records = run_cells(&cfg, cells);
            stats = CacheStats::tally(&records);
            finish(records.into_iter().map(|r| r.rows.ok()).collect(), sink).expect("fig4 run");
        });
        (csvs, stats)
    };
    let (cold, cold_stats) = run("cache-cold");
    let (warm, warm_stats) = run("cache-warm");
    fs::remove_dir_all(&cache_dir).ok();
    assert!(cold_stats.misses > 0, "cold run must simulate");
    assert!(
        warm_stats.hits >= cold_stats.misses,
        "warm run must be served from the cache ({} hits for {} cells)",
        warm_stats.hits,
        cold_stats.misses
    );
    assert_same_csvs(&cold, &warm, "cold and warm cache runs");
    assert_matches_goldens(&warm, 2, "the two fig4 CSVs (warm run)");
}

#[test]
fn q_faults_grid_is_byte_identical_across_worker_counts() {
    let sequential = q_faults_csvs(&with_jobs(1), "seq");
    let parallel = q_faults_csvs(&with_jobs(4), "par");
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4 (faulted)");
}

#[test]
fn q_faults_smoke_output_matches_committed_golden() {
    let current = q_faults_csvs(&with_jobs(2), "golden");
    assert_matches_goldens(&current, 1, "the q_faults CSV");
}
