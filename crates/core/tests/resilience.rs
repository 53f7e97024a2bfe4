//! Integration tests for resilient cell execution and crash-safe
//! resume from the cell cache:
//!
//! * a flaky cell (panics once, succeeds on retry) recovers without
//!   surfacing a failure,
//! * a cell that exhausts its retry budget is quarantined — recorded
//!   with its failure class and attempt count,
//! * a hung cell (`--inject-hang` hook) is stopped at its per-attempt
//!   deadline within a bounded wall-clock and classified `timed_out`,
//! * a real scenario that outlives its deadline is cut at the engine's
//!   own poll point, and a task that never polls is discarded when it
//!   returns late — in both cases nothing reaches the cache or the
//!   per-cell telemetry, traced cells included,
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use isol_bench::experiments::fig4;
use isol_bench::{
    cache, run_cells, runner, tracing, Cell, CellRows, Fidelity, Knob, OutputSink, Scenario,
};
use proptest::prelude::*;
use simcore::SimTime;
use workload::JobSpec;

/// The cell deadline, retry budget, injection hooks, cache and tracing
/// are process-global, so tests that touch them must not
/// interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

/// Restores every process-global knob this suite touches, so a failing
/// assertion cannot leak a deadline or an injection into other tests.
struct ResilienceGuard;

impl Drop for ResilienceGuard {
    fn drop(&mut self) {
        runner::set_watchdog(None);
        runner::set_cell_retries(1);
        runner::set_retry_backoff(Duration::from_millis(50));
        runner::set_inject_hang(None);
        runner::set_inject_panic(None);
        runner::set_jobs(0);
        runner::reset_resilience();
        let _ = runner::take_failures();
        cache::set_mode(cache::CacheMode::Off);
        tracing::set_capacity(None);
    }
}

fn arm_defaults() -> ResilienceGuard {
    runner::set_watchdog(None);
    runner::set_cell_retries(1);
    runner::set_retry_backoff(Duration::from_millis(1));
    runner::set_inject_hang(None);
    runner::set_inject_panic(None);
    runner::reset_resilience();
    let _ = runner::take_failures();
    cache::set_mode(cache::CacheMode::Off);
    ResilienceGuard
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-res-it-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn flaky_cell_recovers_on_retry() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    runner::set_cell_retries(2);
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    CALLS.store(0, Ordering::SeqCst);
    let cell = Cell::from_fn("res", "res-flaky", || {
        if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient failure (first attempt only)");
        }
        vec![vec![42.0]]
    });
    let results = run_cells(vec![cell]);
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].as_ref().expect("cell must recover on retry")[0][0],
        42.0
    );
    assert_eq!(CALLS.load(Ordering::SeqCst), 2, "exactly one retry");
    let stats = runner::resilience_stats();
    assert!(stats.retries >= 1, "retry must be counted");
    assert!(
        runner::take_failures().is_empty(),
        "a recovered cell must not surface a failure"
    );
}

#[test]
fn exhausted_retries_quarantine_the_label() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    runner::set_cell_retries(1);
    let doomed = Cell::from_fn("res", "res-doomed", || {
        panic!("always fails");
    });
    let results = run_cells(vec![doomed]);
    assert_eq!(results, vec![None]);
    let fails = runner::take_failures();
    assert_eq!(fails.len(), 1);
    assert_eq!(fails[0].label, "res-doomed");
    assert_eq!(fails[0].class, runner::FailureClass::Panic);
    assert_eq!(fails[0].attempts, 2, "initial attempt + one retry");
}

#[test]
fn watchdog_cancels_a_hung_cell_within_bound() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let soft = Duration::from_millis(60);
    runner::set_watchdog(Some(soft));
    runner::set_cell_retries(0);
    runner::set_inject_hang(Some("res-hang"));
    let hung = Cell::from_fn("res", "res-hang", || vec![vec![1.0]]);
    let healthy = Cell::from_fn("res", "res-ok", || vec![vec![2.0]]);
    let started = Instant::now();
    let results = run_cells(vec![hung, healthy]);
    let elapsed = started.elapsed();
    assert_eq!(results.len(), 2);
    assert!(results[0].is_none(), "hung cell must be cancelled");
    assert_eq!(
        results[1].as_ref().expect("healthy cell unaffected")[0][0],
        2.0
    );
    // The hang would spin forever; only the deadline bounds it. Allow
    // generous slack over the soft deadline for scheduler noise.
    assert!(
        elapsed < soft + Duration::from_secs(10),
        "the deadline must bound the hang (took {elapsed:?})"
    );
    let fails = runner::take_failures();
    let hung_fail = fails
        .iter()
        .find(|f| f.label == "res-hang")
        .expect("hung cell recorded");
    assert_eq!(hung_fail.class, runner::FailureClass::TimedOut);
    let stats = runner::resilience_stats();
    assert!(stats.watchdog_soft >= 1, "soft deadline must have fired");
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

/// Runs `cell` alone with a 50 ms deadline and no retry, and checks
/// that it timed out within a bounded wall-clock.
fn run_past_deadline(cell: Cell) -> runner::CellFailure {
    let soft = Duration::from_millis(50);
    runner::set_watchdog(Some(soft));
    runner::set_cell_retries(0);
    let label = cell.label().to_owned();
    let started = Instant::now();
    let results = run_cells(vec![cell]);
    let elapsed = started.elapsed();
    assert_eq!(results, vec![None], "a timed-out attempt yields no rows");
    assert!(
        elapsed < soft + Duration::from_secs(10),
        "the deadline must bound the cell (took {elapsed:?})"
    );
    let mut fails = runner::take_failures();
    assert_eq!(fails.len(), 1);
    let fail = fails.pop().expect("one failure");
    assert_eq!(fail.label, label);
    assert_eq!(fail.class, runner::FailureClass::TimedOut);
    assert_eq!(fail.attempts, 1);
    assert_eq!(runner::resilience_stats().watchdog_soft, 1);
    fail
}

#[test]
fn deadline_cuts_a_real_scenario_at_the_engine_poll_point() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let cache_dir = temp_dir("deadline-cache");
    cache::set_dir(&cache_dir);
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::reset_stats();
    let _ = cache::take_cell_stats();

    run_past_deadline(long_cell("res-long"));

    let stats = cache::stats();
    assert_eq!((stats.misses, stats.stored), (0, 0), "nothing stored");
    assert!(
        fs::read_dir(&cache_dir).map_or(true, |mut d| d.next().is_none()),
        "no cache entry written"
    );
    assert!(cache::take_cell_stats().is_empty(), "no per-cell telemetry");
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn traced_cell_past_its_deadline_records_nothing() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let trace_dir = temp_dir("deadline-traces");
    tracing::set_dir(&trace_dir);
    tracing::set_capacity(Some(1024));
    cache::reset_stats();
    let _ = cache::take_cell_stats();

    run_past_deadline(long_cell("res-long-traced"));

    assert_eq!(cache::stats().bypassed, 0, "no bypass counted");
    assert!(cache::take_cell_stats().is_empty(), "no per-cell telemetry");
    fs::remove_dir_all(&trace_dir).ok();
}

#[test]
fn task_that_never_polls_is_discarded_when_it_returns_late() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let sleepy = Cell::from_fn("res", "res-sleepy", || {
        std::thread::sleep(Duration::from_millis(200));
        vec![vec![1.0]]
    });
    let fail = run_past_deadline(sleepy);
    assert!(fail.message.contains("partial result discarded"));
}

/// Runs the fig4 smoke grid, returning every emitted CSV as
/// `name -> bytes`.
fn fig4_csvs(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(&format!("out-{tag}"));
    runner::set_jobs(2);
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    fig4::run(Fidelity::Smoke, &mut sink).expect("fig4 run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
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
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let cache_dir = temp_dir("resume-cache");
    cache::set_dir(&cache_dir);
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::reset_stats();
    let cold = fig4_csvs("resume-cold");
    assert!(runner::take_failures().is_empty(), "cold run must be clean");
    let entries = cache_entries(&cache_dir);
    assert_eq!(cache::stats().stored, entries.len());
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

    cache::reset_stats();
    let resumed = fig4_csvs("resume-warm");
    assert_eq!(cold, resumed, "resumed CSVs must be byte-identical");
    let stats = cache::stats();
    assert_eq!(stats.hits, intact, "every intact entry is served");
    assert_eq!(stats.corrupt, 1, "the torn entry is a counted miss");
    assert_eq!(stats.misses, entries.len() - intact);
    assert_eq!(cache_entries(&cache_dir), entries, "every entry restored");
    fs::remove_dir_all(&cache_dir).ok();
}

/// Six cells of a few simulated milliseconds each, one per knob.
fn short_grid() -> Vec<Cell> {
    Knob::ALL
        .into_iter()
        .enumerate()
        .map(|(i, knob)| {
            let mut s = Scenario::new(&format!("res-short-{i}"), 2, vec![knob.device_setup(false)]);
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

fn run_short_grid() -> Vec<CellRows> {
    run_cells(short_grid())
        .into_iter()
        .map(|rows| rows.expect("short cells never fail"))
        .collect()
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
        cache::set_dir(&dir);
        cache::set_mode(cache::CacheMode::ReadWrite);
        let rows = run_short_grid();
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
        let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = arm_defaults();
        runner::set_jobs(2);
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
        cache::set_dir(&dir);
        cache::set_mode(cache::CacheMode::ReadWrite);
        cache::reset_stats();
        let rows = run_short_grid();
        prop_assert_eq!(bits(&rows), bits(&cold.rows));
        prop_assert_eq!(cache::stats().hits, intact);
        fs::remove_dir_all(&dir).ok();
    }
}
