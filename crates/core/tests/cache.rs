//! Integration tests for the content-addressed cell cache:
//!
//! * a warm rerun recomputes nothing and is byte-identical to the cold
//!   run at every `--jobs` value,
//! * the fidelity tier is part of the cache key, and an entry stored
//!   under another engine salt is a corrupt miss, recomputed and
//!   rewritten under [`ENGINE_SALT`],
//! * corrupted or truncated entries are silent misses (recomputed and
//!   rewritten), never panics,
//! * faulted scenarios (`q_faults`) bypass the cache entirely.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use isol_bench::cache::{self, CacheStats, ENGINE_SALT};
use isol_bench::experiments::{fig4, q_faults};
use isol_bench::{run_cells, Fidelity, Knob, OutputSink, RunConfig, Scenario};
use simcore::SimTime;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-cache-it-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

/// A configuration with `jobs` workers and the cache in `dir`.
fn cached(dir: &Path, jobs: usize) -> RunConfig {
    RunConfig {
        jobs,
        cache: Some(dir.to_path_buf()),
        ..RunConfig::default()
    }
}

/// Runs the fig4 smoke grid under `cfg`, returning every emitted CSV
/// as `name -> bytes` and the run's cache totals.
fn fig4_csvs(cfg: &RunConfig, tag: &str) -> (BTreeMap<String, Vec<u8>>, CacheStats) {
    let dir = temp_dir(&format!("out-{tag}"));
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    let (cells, finish) = fig4::stage(Fidelity::Smoke).into_parts();
    let records = run_cells(cfg, cells);
    let stats = CacheStats::tally(&records);
    finish(
        records.into_iter().map(|r| r.rows.ok()).collect(),
        &mut sink,
    )
    .expect("fig4 run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    (out, stats)
}

fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "cell"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn warm_rerun_recomputes_nothing_and_respects_jobs() {
    let cache_dir = temp_dir("jobs");
    let (cold, s0) = fig4_csvs(&cached(&cache_dir, 2), "jobs-cold");
    assert!(s0.misses > 0, "cold run must simulate");
    assert_eq!(s0.hits, 0);
    assert_eq!(s0.stored, s0.misses, "every computed cell stored");
    let (warm1, s1) = fig4_csvs(&cached(&cache_dir, 1), "jobs-w1");
    let (warm4, s4) = fig4_csvs(&cached(&cache_dir, 4), "jobs-w4");
    for s in [s1, s4] {
        assert_eq!(s.misses, 0, "warm reruns must not simulate");
        assert_eq!(s.hits, s0.misses, "every warm cell served from disk");
    }
    assert_eq!(cold, warm1, "jobs=1 warm run must match the cold bytes");
    assert_eq!(cold, warm4, "jobs=4 warm run must match the cold bytes");
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn engine_salt_bump_orphans_every_entry() {
    let cache_dir = temp_dir("salt");
    let cfg = cached(&cache_dir, 2);
    let (cold, s0) = fig4_csvs(&cfg, "salt-cold");
    assert!(s0.misses > 0);
    // Rewrite every entry's salt line, as if an older engine had stored
    // it: no stale-salt entry may serve.
    let current = format!("\nsalt {ENGINE_SALT:016x}\n");
    let stale = format!("\nsalt {:016x}\n", ENGINE_SALT ^ 0xDEAD_BEEF);
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), s0.stored);
    for path in &entries {
        let text = fs::read_to_string(path).unwrap();
        assert!(
            text.contains(&current),
            "{} has the engine salt",
            path.display()
        );
        fs::write(path, text.replacen(&current, &stale, 1)).unwrap();
    }
    let (bumped, s1) = fig4_csvs(&cfg, "salt-bump");
    assert_eq!(s1.hits, 0, "no entry may survive a salt bump");
    assert_eq!(s1.misses, s0.misses);
    assert_eq!(s1.corrupt, s0.misses, "a stale-salt entry is corrupt");
    assert_eq!(s1.stored, s0.misses, "every stale entry is rewritten");
    for path in &entries {
        let text = fs::read_to_string(path).unwrap();
        assert!(text.contains(&current), "{} rewritten", path.display());
    }
    // The rewritten entries serve the next run.
    let (warm, s2) = fig4_csvs(&cfg, "salt-warm");
    assert_eq!(s2.hits, s0.misses, "rewritten entries serve");
    assert_eq!(cold, bumped);
    assert_eq!(cold, warm);
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn fidelity_is_part_of_the_key() {
    let cache_dir = temp_dir("fidelity");
    let s = Scenario::new(
        "fidelity-key-probe",
        1,
        vec![Knob::None.device_setup(false)],
    );
    let until = SimTime::from_nanos(1);
    let smoke = cache::spec_string("t", "t-x", Fidelity::Smoke, &s, until);
    let standard = cache::spec_string("t", "t-x", Fidelity::Standard, &s, until);
    assert_ne!(smoke, standard, "fidelity must be part of the spec");
    assert_ne!(
        cache::entry_path(&cache_dir, &smoke),
        cache::entry_path(&cache_dir, &standard)
    );
    // Rows stored under one fidelity are unreachable from the other.
    cache::store_rows(&cache_dir, &smoke, &[vec![1.0]]).unwrap();
    assert!(cache::load_rows(&cache_dir, &smoke).is_some());
    assert!(cache::load_rows(&cache_dir, &standard).is_none());
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn corrupted_entries_recompute_without_panicking() {
    let cache_dir = temp_dir("corrupt");
    let cfg = cached(&cache_dir, 2);
    let (cold, s0) = fig4_csvs(&cfg, "corrupt-cold");
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), s0.stored, "one file per stored cell");
    // Truncate half the entries and garble the rest.
    for (i, path) in entries.iter().enumerate() {
        let bytes = fs::read(path).unwrap();
        if i % 2 == 0 {
            fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            fs::write(path, b"\xFF\xFEnot a cache entry").unwrap();
        }
    }
    let (recovered, s1) = fig4_csvs(&cfg, "corrupt-warm");
    assert_eq!(s1.hits, 0, "every corrupted entry must be a miss");
    assert_eq!(s1.misses, s0.misses, "every cell recomputed");
    assert_eq!(cold, recovered, "recovery run must match the cold bytes");
    // The recovery run rewrote the entries; the next run hits again.
    let (warm, s2) = fig4_csvs(&cfg, "corrupt-rewarm");
    assert_eq!(s2.hits, s0.misses, "rewritten entries serve again");
    assert_eq!(cold, warm);
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn faulted_cells_bypass_the_cache() {
    let cache_dir = temp_dir("faults");
    let (cells, _) = q_faults::stage(Fidelity::Smoke).into_parts();
    let records = run_cells(&cached(&cache_dir, 2), cells);
    assert!(records.iter().all(|r| r.rows.is_ok()), "q_faults run");
    let s = CacheStats::tally(&records);
    assert!(s.bypassed > 0, "faulted cells must register as bypassed");
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, 0);
    assert_eq!(s.stored, 0, "faulted results must never be written");
    assert!(
        cache_entries(&cache_dir).is_empty(),
        "no cache file may exist for a faulted grid"
    );
    fs::remove_dir_all(&cache_dir).ok();
}
