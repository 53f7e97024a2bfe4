//! Integration tests for resilient cell execution and crash-safe
//! resume from the cell cache:
//!
//! * a failing cell runs exactly once and leaves one failure record,
//!   with its label and failure class,
//! * a hung cell (`--inject-hang` hook) is stopped at its deadline
//!   within a bounded wall-clock and classified `timed_out`,
//! * a real scenario that outlives its deadline is cut at the engine's
//!   own poll point, and a task that never polls is discarded when it
//!   returns late — in both cases nothing reaches the cache or the
//!   cache totals, traced cells included,
//! * two batches with different configurations run at once in one
//!   process, and each gets exactly its own failures, cache counts and
//!   cell stats,
//! * a rerun over a cache left by a killed run (entries missing,
//!   corrupt, or only a stale temp file) serves every intact entry and
//!   reproduces the uninterrupted run's CSVs byte for byte,
//! * whichever entries a kill leaves intact, absent, torn or as a temp
//!   file only, the rerun's rows are bit-identical and its hits equal
//!   the intact entries (proptest).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use isol_bench::cache::{self, CacheStats, CellOutcome};
use isol_bench::experiments::fig4;
use isol_bench::runner::{CellRecord, FailureClass};
use isol_bench::tracing::TraceConfig;
use isol_bench::{run_cells, Cell, CellRows, Fidelity, Knob, OutputSink, RunConfig, Scenario};
use proptest::prelude::*;
use simcore::SimTime;
use workload::JobSpec;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-res-it-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

/// A configuration with two workers and the cache in `dir`.
fn cached(dir: &Path) -> RunConfig {
    RunConfig {
        jobs: 2,
        cache: Some(dir.to_path_buf()),
        ..RunConfig::default()
    }
}

#[test]
fn failing_cell_runs_exactly_once() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let doomed = Cell::from_fn("res", "res-doomed", || {
        CALLS.fetch_add(1, Ordering::SeqCst);
        panic!("always fails");
    });
    let records = run_cells(&RunConfig::default(), vec![doomed]);
    assert_eq!(CALLS.load(Ordering::SeqCst), 1, "not re-run");
    assert_eq!(records.len(), 1, "one record per cell");
    assert_eq!(records[0].label, "res-doomed");
    let fail = records[0].rows.as_ref().expect_err("the cell failed");
    assert_eq!(fail.class, FailureClass::Panic);
    assert!(fail.message.contains("always fails"));
}

#[test]
fn watchdog_cancels_a_hung_cell_within_bound() {
    let soft = Duration::from_millis(60);
    let cfg = RunConfig {
        deadline: Some(soft),
        inject_hang: Some("res-hang".to_owned()),
        ..RunConfig::default()
    };
    let hung = Cell::from_fn("res", "res-hang", || vec![vec![1.0]]);
    let healthy = Cell::from_fn("res", "res-ok", || vec![vec![2.0]]);
    let started = Instant::now();
    let records = run_cells(&cfg, vec![hung, healthy]);
    let elapsed = started.elapsed();
    assert_eq!(records.len(), 2);
    let hung_fail = records[0].rows.as_ref().expect_err("hung cell cancelled");
    assert_eq!(hung_fail.class, FailureClass::TimedOut);
    assert_eq!(
        records[1].rows.as_ref().expect("healthy cell unaffected")[0][0],
        2.0
    );
    // The hang would spin forever; only the deadline bounds it. Allow
    // generous slack over the soft deadline for scheduler noise.
    assert!(
        elapsed < soft + Duration::from_secs(10),
        "the deadline must bound the hang (took {elapsed:?})"
    );
}

/// A fig4-shaped scenario (four always-busy batch tenants on one SSD)
/// simulated for a minute: far longer than any deadline below, so only
/// the deadline can end it early.
fn long_cell(label: &str) -> Cell {
    let mut s = Scenario::new(label, 2, vec![Knob::None.device_setup(true)]);
    for i in 0..4 {
        let g = s.add_cgroup(&format!("batch-{i}"));
        s.add_app(g, JobSpec::batch_app(&format!("b-{i}")));
    }
    Cell::scenario(
        "res",
        Fidelity::Smoke,
        s,
        SimTime::from_secs(60),
        |report| vec![vec![report.aggregate_gib_s()]],
    )
}

/// Runs `cell` alone under `cfg` with a 50 ms deadline, checks that it
/// timed out within a bounded wall-clock and counts nothing, and
/// returns its record.
fn run_past_deadline(cfg: RunConfig, cell: Cell) -> CellRecord {
    let soft = Duration::from_millis(50);
    let cfg = RunConfig {
        deadline: Some(soft),
        ..cfg
    };
    let label = cell.label().to_owned();
    let started = Instant::now();
    let mut records = run_cells(&cfg, vec![cell]);
    let elapsed = started.elapsed();
    assert!(
        elapsed < soft + Duration::from_secs(10),
        "the deadline must bound the cell (took {elapsed:?})"
    );
    assert_eq!(records.len(), 1);
    assert_eq!(
        CacheStats::tally(&records),
        CacheStats::default(),
        "a timed-out cell counts nothing"
    );
    let record = records.pop().expect("one record");
    assert_eq!(record.label, label);
    let fail = record
        .rows
        .as_ref()
        .expect_err("a timed-out cell yields no rows");
    assert_eq!(fail.class, FailureClass::TimedOut);
    assert!(!record.stat.stored, "nothing stored");
    record
}

#[test]
fn deadline_cuts_a_real_scenario_at_the_engine_poll_point() {
    let cache_dir = temp_dir("deadline-cache");
    run_past_deadline(cached(&cache_dir), long_cell("res-long"));
    assert!(
        fs::read_dir(&cache_dir).map_or(true, |mut d| d.next().is_none()),
        "no cache entry written"
    );
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn traced_cell_past_its_deadline_records_nothing() {
    let trace_dir = temp_dir("deadline-traces");
    let cfg = RunConfig {
        trace: Some(TraceConfig {
            capacity: 1024,
            dir: trace_dir.clone(),
        }),
        ..RunConfig::default()
    };
    run_past_deadline(cfg, long_cell("res-long-traced"));
    fs::remove_dir_all(&trace_dir).ok();
}

#[test]
fn task_that_never_polls_is_discarded_when_it_returns_late() {
    let sleepy = Cell::from_fn("res", "res-sleepy", || {
        std::thread::sleep(Duration::from_millis(200));
        vec![vec![1.0]]
    });
    let record = run_past_deadline(RunConfig::default(), sleepy);
    let fail = record.rows.expect_err("discarded");
    assert!(fail.message.contains("partial result discarded"));
}

/// Six cells of a few simulated milliseconds each, one per knob,
/// labelled `<prefix>-<i>`.
fn short_grid(prefix: &str) -> Vec<Cell> {
    Knob::ALL
        .into_iter()
        .enumerate()
        .map(|(i, knob)| {
            let mut s = Scenario::new(&format!("{prefix}-{i}"), 2, vec![knob.device_setup(false)]);
            for t in 0..=i % 3 {
                let g = s.add_cgroup(&format!("t-{t}"));
                s.add_app(g, JobSpec::batch_app(&format!("a-{t}")));
            }
            Cell::scenario(
                "res",
                Fidelity::Smoke,
                s,
                SimTime::from_millis(3),
                |report| vec![report.app_bandwidths(), vec![report.aggregate_gib_s()]],
            )
        })
        .collect()
}

#[test]
fn concurrent_batches_keep_their_own_records() {
    let cache_dir = temp_dir("concurrent-cache");
    let with_cache = RunConfig {
        inject_panic: Some("res-mix-a-1".to_owned()),
        ..cached(&cache_dir)
    };
    let without_cache = RunConfig {
        jobs: 2,
        ..RunConfig::default()
    };
    let start = Barrier::new(2);
    let run = |cfg: &RunConfig, prefix: &str| {
        start.wait();
        run_cells(cfg, short_grid(prefix))
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run(&with_cache, "res-mix-a"));
        let b = scope.spawn(|| run(&without_cache, "res-mix-b"));
        (a.join().expect("batch a"), b.join().expect("batch b"))
    });

    // Batch a: one injected failure, five cached misses.
    assert_eq!(a.len(), 6);
    for (i, r) in a.iter().enumerate() {
        assert_eq!(r.label, format!("res-mix-a-{i}"));
    }
    let failed: Vec<_> = a.iter().filter(|r| r.rows.is_err()).collect();
    assert_eq!(failed.len(), 1, "exactly its own failure");
    assert_eq!(failed[0].label, "res-mix-a-1");
    let fail = failed[0].rows.as_ref().unwrap_err();
    assert_eq!(fail.class, FailureClass::Panic);
    assert!(fail.message.contains("injected panic"));
    let stats = CacheStats::tally(&a);
    assert_eq!(
        (
            stats.hits,
            stats.misses,
            stats.stored,
            stats.bypassed,
            stats.corrupt
        ),
        (0, 5, 5, 0, 0)
    );
    assert_eq!(cache_entries(&cache_dir).len(), 5);

    // Batch b: no failure, no cache traffic.
    assert_eq!(b.len(), 6);
    for (i, r) in b.iter().enumerate() {
        assert_eq!(r.label, format!("res-mix-b-{i}"));
        assert!(r.rows.is_ok(), "{} must not fail", r.label);
        assert_eq!(r.stat.outcome, CellOutcome::Off);
        assert!(!r.stat.stored && !r.stat.corrupt && !r.stat.traced);
    }
    assert_eq!(CacheStats::tally(&b), CacheStats::default());
    fs::remove_dir_all(&cache_dir).ok();
}

/// Runs the fig4 smoke grid under `cfg`, requiring every cell to
/// succeed; returns every emitted CSV as `name -> bytes` and the run's
/// cache totals.
fn fig4_csvs(cfg: &RunConfig, tag: &str) -> (BTreeMap<String, Vec<u8>>, CacheStats) {
    let dir = temp_dir(&format!("out-{tag}"));
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    let (cells, finish) = fig4::stage(Fidelity::Smoke).into_parts();
    let records = run_cells(cfg, cells);
    assert!(
        records.iter().all(|r| r.rows.is_ok()),
        "every cell succeeds"
    );
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

/// The `*.cell` entries under `dir`, sorted by name.
fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.retain(|p| p.extension().is_some_and(|e| e == "cell"));
    entries.sort();
    entries
}

/// The temp-file name a store of `entry` uses while it is in flight,
/// here for a writer process that no longer exists.
fn stale_tmp_of(entry: &Path) -> PathBuf {
    entry.with_extension("tmp-4242")
}

#[test]
fn rerun_after_a_kill_resumes_from_the_cache() {
    let cache_dir = temp_dir("resume-cache");
    let (cold, cold_stats) = fig4_csvs(&cached(&cache_dir), "resume-cold");
    let entries = cache_entries(&cache_dir);
    assert_eq!(cold_stats.stored, entries.len());
    assert!(
        entries.len() >= 4,
        "fig4 smoke grid has {} cells",
        entries.len()
    );

    // What a kill can leave: every other entry never stored, one of the
    // rest torn, and a half-written temp file from the store in flight.
    let mut intact = 0;
    for (i, entry) in entries.iter().enumerate() {
        if i % 2 == 0 {
            fs::remove_file(entry).expect("delete entry");
        } else if i == 1 {
            let bytes = fs::read(entry).expect("read entry");
            fs::write(entry, &bytes[..bytes.len() / 2]).expect("tear entry");
        } else {
            intact += 1;
        }
    }
    let tmp = stale_tmp_of(&entries[0]);
    fs::write(&tmp, "isol-bench-cell v1\nsalt").expect("write temp file");
    assert_eq!(cache::sweep_stale_tmp(&cache_dir), 1);
    assert!(!tmp.exists(), "the stale temp file is swept");

    let (resumed, stats) = fig4_csvs(&cached(&cache_dir), "resume-warm");
    assert_eq!(cold, resumed, "resumed CSVs must be byte-identical");
    assert_eq!(stats.hits, intact, "every intact entry is served");
    assert_eq!(stats.corrupt, 1, "the torn entry is a counted miss");
    assert_eq!(stats.misses, entries.len() - intact);
    assert_eq!(cache_entries(&cache_dir), entries, "every entry restored");
    fs::remove_dir_all(&cache_dir).ok();
}

fn run_short_grid(cfg: &RunConfig) -> (Vec<CellRows>, CacheStats) {
    let records = run_cells(cfg, short_grid("res-short"));
    let stats = CacheStats::tally(&records);
    let rows = records
        .into_iter()
        .map(|r| r.rows.expect("short cells never fail"))
        .collect();
    (rows, stats)
}

/// What a kill left of one cache entry.
#[derive(Debug, Clone, Copy)]
enum Left {
    Intact,
    Absent,
    /// Cut at this fraction of the entry's bytes (never all of them).
    Torn(f64),
    /// Never renamed into place: only a temp file with this fraction.
    TempOnly(f64),
}

fn left() -> impl Strategy<Value = Left> {
    prop_oneof![
        Just(Left::Intact),
        Just(Left::Absent),
        (0.0f64..1.0).prop_map(Left::Torn),
        (0.0f64..=1.0).prop_map(Left::TempOnly),
    ]
}

/// A cold run of the short grid: its rows and its cache entries.
struct ColdGrid {
    rows: Vec<CellRows>,
    /// `(file name, bytes)` per entry.
    entries: Vec<(String, Vec<u8>)>,
}

/// The cold short grid, computed once and restored into a fresh
/// directory by each proptest case.
fn cold_short_grid() -> &'static ColdGrid {
    static COLD: std::sync::OnceLock<ColdGrid> = std::sync::OnceLock::new();
    COLD.get_or_init(|| {
        let dir = temp_dir("short-cold");
        let (rows, _) = run_short_grid(&cached(&dir));
        let entries = cache_entries(&dir)
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(p).expect("read entry"))
            })
            .collect();
        fs::remove_dir_all(&dir).ok();
        ColdGrid { rows, entries }
    })
}

fn bits(rows: &[CellRows]) -> Vec<Vec<Vec<u64>>> {
    rows.iter()
        .map(|cell| {
            cell.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever a kill leaves of each entry — intact, absent, torn at
    /// any byte, or only a temp file — the rerun returns the cold run's
    /// rows bit for bit and serves exactly the intact entries.
    #[test]
    fn rerun_is_exact_whatever_a_kill_left(
        fates in proptest::collection::vec(left(), 6),
    ) {
        let cold = cold_short_grid();
        prop_assert_eq!(cold.entries.len(), fates.len());
        let dir = temp_dir("short-kill");
        fs::create_dir_all(&dir).expect("cache dir");
        let (mut intact, mut temps) = (0, 0);
        for ((name, bytes), fate) in cold.entries.iter().zip(&fates) {
            let path = dir.join(name);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let prefix = |frac: f64| &bytes[..(bytes.len() as f64 * frac) as usize];
            match *fate {
                Left::Intact => {
                    fs::write(&path, bytes).expect("write entry");
                    intact += 1;
                }
                Left::Absent => {}
                Left::Torn(frac) => fs::write(&path, prefix(frac)).expect("tear entry"),
                Left::TempOnly(frac) => {
                    fs::write(stale_tmp_of(&path), prefix(frac)).expect("write temp");
                    temps += 1;
                }
            }
        }
        prop_assert_eq!(cache::sweep_stale_tmp(&dir), temps);
        let (rows, stats) = run_short_grid(&cached(&dir));
        prop_assert_eq!(bits(&rows), bits(&cold.rows));
        prop_assert_eq!(stats.hits, intact);
        fs::remove_dir_all(&dir).ok();
    }
}
