//! Integration tests for resilient cell execution and the crash-safe
//! run journal:
//!
//! * a flaky cell (panics once, succeeds on retry) recovers without
//!   surfacing a failure,
//! * a cell that exhausts its retry budget is quarantined — recorded
//!   with its failure class and attempt count,
//! * a hung cell (`--inject-hang` hook) is stopped at its per-attempt
//!   deadline within a bounded wall-clock and classified `timed_out`,
//! * a real scenario that outlives its deadline is cut at the engine's
//!   own poll point, and a task that never polls is discarded when it
//!   returns late — in both cases nothing reaches the cache, the
//!   journal or the per-cell telemetry, traced cells included,
//! * arming the journal in resume mode replays completed cells without
//!   re-simulating, and the replayed run's CSVs are byte-identical,
//! * journal replay is idempotent under arbitrary truncation of the
//!   journal file (proptest).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use isol_bench::experiments::fig4;
use isol_bench::journal::{parse_journal, render_header, render_record, Header, Record};
use isol_bench::{
    cache, journal, run_cells, runner, tracing, Cell, Fidelity, Knob, OutputSink, Scenario,
};
use proptest::prelude::*;
use simcore::SimTime;
use workload::JobSpec;

/// The cell deadline, retry budget, injection hooks, cache, tracing and
/// the journal are process-global, so tests that touch them must not
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
        journal::disarm();
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
    journal::disarm();
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
    let journal_dir = temp_dir("deadline-journal");
    cache::set_dir(&cache_dir);
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::reset_stats();
    let _ = cache::take_cell_stats();
    journal::arm(&journal_dir, false, "smoke").expect("arm journal");

    run_past_deadline(long_cell("res-long"));

    let stats = cache::stats();
    assert_eq!((stats.misses, stats.stored), (0, 0), "nothing stored");
    assert!(
        fs::read_dir(&cache_dir).map_or(true, |mut d| d.next().is_none()),
        "no cache entry written"
    );
    assert!(cache::take_cell_stats().is_empty(), "no per-cell telemetry");
    let text = fs::read_to_string(journal::file_path(&journal_dir)).unwrap_or_default();
    let (_, records) = parse_journal(&text);
    assert!(
        records.iter().all(|r| !matches!(r, Record::Cell { .. })),
        "no completed cell journaled: {records:?}"
    );
    fs::remove_dir_all(&cache_dir).ok();
    fs::remove_dir_all(&journal_dir).ok();
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

#[test]
fn journal_resume_replays_cells_byte_identically() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = arm_defaults();
    let journal_dir = temp_dir("journal");
    // Cold run with an armed fresh journal (cache stays off: the
    // journal alone must carry the resume).
    let summary = journal::arm(&journal_dir, false, "smoke").expect("arm fresh");
    assert!(summary.fresh);
    assert_eq!(summary.replayable, 0);
    let cold = fig4_csvs("journal-cold");
    assert!(runner::take_failures().is_empty(), "cold run must be clean");

    // Resume: every completed cell replays from the journal.
    let summary = journal::arm(&journal_dir, true, "smoke").expect("arm resume");
    assert!(!summary.fresh, "matching journal must not be discarded");
    assert!(summary.replayable > 0);
    let resumed = fig4_csvs("journal-resume");
    assert_eq!(
        journal::resumed_count(),
        summary.replayable,
        "every journaled cell must replay"
    );
    assert_eq!(cold, resumed, "resumed CSVs must be byte-identical");

    // A fidelity mismatch discards the journal instead of replaying
    // stale rows.
    let summary = journal::arm(&journal_dir, true, "standard").expect("arm mismatched");
    assert!(summary.fresh, "mismatched header must start fresh");
    assert_eq!(summary.replayable, 0);
    fs::remove_dir_all(&journal_dir).ok();
}

/// Deterministic journal content derived from a seed list: a mix of
/// completed-cell and failure records with awkward strings (quotes,
/// backslashes, newlines) and bit-pattern floats. ASCII only, so any
/// byte offset is a valid truncation point.
fn journal_fixture(seeds: &[u64]) -> (Header, Vec<Record>, String) {
    let header = Header {
        salt: 0xABCD_EF01_2345_6789,
        fidelity: "smoke".to_owned(),
    };
    let mut text = render_header(&header);
    let mut records = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let rec = if s % 5 == 0 {
            Record::Fail {
                label: format!("cell-{i}"),
                class: "panic".to_owned(),
                attempts: (s % 3) as u32 + 1,
                message: format!("boom \"{s}\" \\ tail\nsecond line"),
            }
        } else {
            let v = f64::from_bits(s);
            let v = if v.is_nan() { 0.0 } else { v };
            Record::Cell {
                fp: format!("{s:032x}"),
                experiment: "fig4".to_owned(),
                label: format!("cell-{i}"),
                outcome: "miss".to_owned(),
                attempts: (s % 2) as u32 + 1,
                rows: vec![vec![v, -1.5], vec![], vec![(i as f64) * 0.125]],
            }
        };
        text.push_str(&render_record(&rec));
        records.push(rec);
    }
    assert!(text.is_ascii(), "fixture must allow arbitrary byte cuts");
    (header, records, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating the journal at ANY byte yields a clean prefix of the
    /// original records (never garbage, never an error), and replaying
    /// that prefix — re-rendering and re-parsing it — is idempotent.
    /// This is the property that makes `--resume` after SIGKILL safe.
    #[test]
    fn journal_replay_is_idempotent_under_truncation(
        seeds in proptest::collection::vec(0u64..=u64::MAX, 0..12),
        cut_frac in 0.0f64..=1.0,
    ) {
        let (header, records, text) = journal_fixture(&seeds);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((text.len() as f64) * cut_frac) as usize;
        let cut = cut.min(text.len());
        let (h, parsed) = parse_journal(&text[..cut]);

        // The parsed records are exactly a prefix of what was written.
        prop_assert!(parsed.len() <= records.len());
        prop_assert_eq!(&parsed[..], &records[..parsed.len()]);
        // Records are only reachable through a complete, valid header.
        if h.is_none() {
            prop_assert!(parsed.is_empty());
        } else {
            prop_assert_eq!(h.as_ref(), Some(&header));
        }
        // A cut inside record k loses records k.. but nothing before.
        if cut == text.len() {
            prop_assert_eq!(parsed.len(), records.len());
        }

        // Idempotence: re-render the durable prefix and re-parse it.
        let mut round = h.as_ref().map(render_header).unwrap_or_default();
        for rec in &parsed {
            round.push_str(&render_record(rec));
        }
        let (h2, parsed2) = parse_journal(&round);
        prop_assert_eq!(h2, h);
        prop_assert_eq!(parsed2, parsed);
    }
}
