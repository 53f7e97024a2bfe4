//! Deterministic parallel cell runner.
//!
//! Experiment grids (Fig. 3–7, Q10, …) are embarrassingly parallel:
//! every cell builds its own [`crate::Scenario`] with its own seeded
//! RNG and shares no mutable state with any other cell. This module
//! fans such batches across a fixed-size worker pool
//! ([`run_cells_keep`], reached through [`crate::run_cells`]) while
//! keeping the output **bit-for-bit identical** to a sequential run:
//!
//! * each task writes its result into the slot matching its submission
//!   index, so results come back in submission order no matter which
//!   worker finished first;
//! * tasks themselves are deterministic (simulation state is seeded per
//!   scenario and never shared), so a cell computes the same value on
//!   any thread.
//!
//! Together these make every table, CSV, and report byte-identical for
//! any `--jobs` value — parallelism only changes wall-clock time.
//!
//! The pool is built on [`std::thread::scope`]; there are no external
//! dependencies and no long-lived threads. Worker count comes from the
//! process-wide setting ([`set_jobs`]), defaulting to
//! [`std::thread::available_parallelism`].
//!
//! # Resilient cell execution
//!
//! A failing cell no longer takes down the whole batch (and with it a
//! multi-minute figures run):
//!
//! * every attempt runs under [`std::panic::catch_unwind`] and, when a
//!   soft deadline is configured ([`set_watchdog`]), with that deadline
//!   installed in the worker's thread-local
//!   [`simcore::cancel::DeadlineGuard`]; the engine's event loop polls
//!   it and unwinds with partial stats once it passes;
//! * the runner polls the deadline once more when the attempt returns,
//!   so an attempt that finished late — or never polled at all — is
//!   classified `timed_out` and *discarded* even if it returned rows:
//!   partial stats never reach a CSV;
//! * a failed attempt (panic or deadline) is retried up to
//!   [`set_cell_retries`] times with exponential backoff;
//! * a cell that exhausts its budget leaves a `None` slot and a
//!   [`CellFailure`] with a structured [`FailureClass`] in a
//!   process-global registry, drained via [`take_failures`]; the
//!   harness writes them to `failures.json` and lists their labels as
//!   quarantined in `timings.json`.
//!
//! Callers that chunk results positionally should treat any recorded
//! failure as invalidating that experiment's table.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use simcore::cancel::{self, DeadlineGuard};

/// Process-wide worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Process-global registry of cells that failed every attempt (drained
/// by [`take_failures`]).
static FAILURES: Mutex<Vec<CellFailure>> = Mutex::new(Vec::new());

/// Label of the cell the next batches should deliberately panic in
/// (testing hook for the degraded-harness path).
static INJECT_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Label of the cell the next batches should deliberately hang in
/// (testing hook for the deadline → retry → quarantine path).
static INJECT_HANG: Mutex<Option<String>> = Mutex::new(None);

/// Soft deadline per cell attempt in milliseconds; 0 disables it.
static WATCHDOG_SOFT_MS: AtomicU64 = AtomicU64::new(0);

/// Retries granted to a failed cell (attempts = retries + 1).
static CELL_RETRIES: AtomicUsize = AtomicUsize::new(1);

/// Base backoff before the first retry; doubles per further retry.
static BACKOFF_BASE_MS: AtomicU64 = AtomicU64::new(50);

/// Resilience counters (see [`ResilienceStats`]).
static SOFT_FIRES: AtomicUsize = AtomicUsize::new(0);
static RETRIES_DONE: AtomicUsize = AtomicUsize::new(0);

/// Structured failure taxonomy reported in `failures.json` and in the
/// runner's log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The cell panicked (assertion, arithmetic, explicit panic).
    Panic,
    /// The attempt ran past its soft deadline.
    TimedOut,
    /// The failure message names a broken engine invariant (divergence,
    /// determinism or invariant check).
    InvariantViolation,
}

impl FailureClass {
    /// Stable lower-case token for JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::TimedOut => "timed_out",
            FailureClass::InvariantViolation => "invariant_violation",
        }
    }
}

/// Classifies a panic message into the failure taxonomy. Message-based
/// classification is a heuristic by necessity (a panic payload carries
/// no type information across `catch_unwind`), but the engine's own
/// invariant panics use stable wording, so the interesting buckets are
/// reliable in practice.
#[must_use]
pub fn classify_panic(message: &str) -> FailureClass {
    let m = message.to_ascii_lowercase();
    if m.contains("diverge") || m.contains("invariant") || m.contains("determinism") {
        FailureClass::InvariantViolation
    } else {
        FailureClass::Panic
    }
}

/// One grid cell that failed every attempt instead of producing a
/// result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Submission index within its batch.
    pub index: usize,
    /// Cell label (the scenario name).
    pub label: String,
    /// The last attempt's panic payload or deadline message.
    pub message: String,
    /// Structured failure class of the last attempt.
    pub class: FailureClass,
    /// Attempts consumed (`retries + 1`).
    pub attempts: u32,
}

/// Sets the process-wide worker count used by [`crate::run_cells`].
///
/// `0` restores the default: [`std::thread::available_parallelism`].
/// Because batches are deterministic for *any* worker count, changing
/// this at any time affects throughput only, never results.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The resolved worker count (always ≥ 1).
#[must_use]
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Drains and returns every cell failure recorded since the last call
/// (process-global, across all batches).
pub fn take_failures() -> Vec<CellFailure> {
    std::mem::take(&mut *FAILURES.lock().expect("failure registry poisoned"))
}

/// Sets the soft deadline installed for every cell attempt; the engine
/// unwinds a stuck simulation cooperatively once it passes. `None`
/// disables it (the default — library consumers and unit tests are
/// unaffected unless a harness opts in).
pub fn set_watchdog(soft: Option<Duration>) {
    let ms = soft.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    WATCHDOG_SOFT_MS.store(ms, Ordering::Relaxed);
}

/// The configured soft deadline per cell attempt.
#[must_use]
pub fn watchdog() -> Option<Duration> {
    match WATCHDOG_SOFT_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Sets how many times a failed cell is retried (default 1; 0 disables
/// retry). Attempts = retries + 1.
pub fn set_cell_retries(n: usize) {
    CELL_RETRIES.store(n, Ordering::Relaxed);
}

/// The configured per-cell retry budget.
#[must_use]
pub fn cell_retries() -> usize {
    CELL_RETRIES.load(Ordering::Relaxed)
}

/// Sets the base backoff slept before the first retry (doubles for each
/// further retry). Tests use ~zero to stay fast.
pub fn set_retry_backoff(base: Duration) {
    BACKOFF_BASE_MS.store(
        u64::try_from(base.as_millis()).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
}

/// Resilience telemetry for one run, reported under `"resilience"` in
/// `timings.json`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// Attempts whose soft deadline passed.
    pub watchdog_soft: usize,
    /// Retry attempts executed after a failed attempt.
    pub retries: usize,
}

/// Snapshot of the resilience counters since the last
/// [`reset_resilience`].
#[must_use]
pub fn resilience_stats() -> ResilienceStats {
    ResilienceStats {
        watchdog_soft: SOFT_FIRES.load(Ordering::Relaxed),
        retries: RETRIES_DONE.load(Ordering::Relaxed),
    }
}

/// Zeroes the resilience counters.
pub fn reset_resilience() {
    SOFT_FIRES.store(0, Ordering::Relaxed);
    RETRIES_DONE.store(0, Ordering::Relaxed);
}

/// Arms (or with `None`, disarms) the deliberate-panic hook: the next
/// cell whose label equals `label` panics inside the catch scope,
/// exercising the real degraded-harness machinery end to end. Used by
/// `figures --inject-panic` and the CI check.
pub fn set_inject_panic(label: Option<&str>) {
    *INJECT_PANIC.lock().expect("inject flag poisoned") = label.map(str::to_owned);
}

/// The currently armed inject-panic label, if any. The traced cell path
/// ([`crate::cache`]) uses this to arm the recorder's mid-run panic
/// instead of the up-front assert in the runner.
pub(crate) fn inject_panic_label() -> Option<String> {
    INJECT_PANIC.lock().expect("inject flag poisoned").clone()
}

/// Arms (or with `None`, disarms) the deliberate-hang hook: the next
/// cell whose label equals `label` spins instead of running, exiting
/// only when its deadline passes — exercising the full deadline →
/// retry → quarantine chain end to end. Used by `figures --inject-hang`
/// and the CI chaos check.
pub fn set_inject_hang(label: Option<&str>) {
    *INJECT_HANG.lock().expect("inject flag poisoned") = label.map(str::to_owned);
}

/// Spins in place of the task body when the hang hook targets `label`.
/// The spin is cooperative (it polls the installed deadline) because a
/// truly unkillable loop cannot be stopped from safe Rust; what is
/// under test is the runner classifying, retrying, and quarantining the
/// cell.
fn maybe_hang(label: &str) {
    let armed = INJECT_HANG.lock().expect("inject flag poisoned").as_deref() == Some(label);
    if !armed {
        return;
    }
    loop {
        if cancel::poll() {
            panic!("injected hang (cell `{label}`) stopped at its deadline");
        }
        thread::sleep(Duration::from_millis(1));
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one cell with its deadline and bounded retry. Returns `None`
/// when every attempt failed (the failure is recorded).
fn run_resilient_cell<T>(index: usize, label: &str, task: &(dyn Fn() -> T + Send)) -> Option<T> {
    let soft = watchdog();
    let max_attempts = u32::try_from(cell_retries())
        .unwrap_or(u32::MAX)
        .saturating_add(1);
    let inject = INJECT_PANIC
        .lock()
        .expect("inject flag poisoned")
        .as_deref()
        == Some(label);
    // With trace capture on, the injected panic is deferred into the
    // traced run itself (the recorder is armed to panic mid-simulation;
    // see crate::cache) so the partial-trace path gets exercised.
    let inject_now = inject && !crate::tracing::enabled();
    let mut last: Option<(FailureClass, String)> = None;
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            RETRIES_DONE.fetch_add(1, Ordering::Relaxed);
            let base = BACKOFF_BASE_MS.load(Ordering::Relaxed);
            let backoff = base.saturating_mul(1 << (attempt - 2).min(16));
            thread::sleep(Duration::from_millis(backoff));
        }
        let (outcome, timed_out) = {
            let _deadline = DeadlineGuard::new(soft);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                assert!(!inject_now, "injected panic (requested for cell `{label}`)");
                maybe_hang(label);
                task()
            }));
            (outcome, cancel::poll())
        };
        if timed_out {
            SOFT_FIRES.fetch_add(1, Ordering::Relaxed);
        }
        let (class, message) = match outcome {
            // An attempt that ran past its deadline is discarded even
            // when it returned: the engine unwinds early with partial
            // stats, and partial stats must never reach a CSV.
            Ok(v) if !timed_out => return Some(v),
            Ok(_) => (
                FailureClass::TimedOut,
                format!(
                    "attempt ran past its {:?} deadline; partial result discarded",
                    soft.unwrap_or_default()
                ),
            ),
            Err(payload) => {
                let message = payload_message(payload);
                let class = if timed_out {
                    FailureClass::TimedOut
                } else {
                    classify_panic(&message)
                };
                (class, message)
            }
        };
        eprintln!(
            "runner: cell #{index} ({label}) attempt {attempt}/{max_attempts} failed \
             [{}]: {message}",
            class.as_str()
        );
        last = Some((class, message));
    }
    let (class, message) = last.expect("at least one attempt ran");
    FAILURES
        .lock()
        .expect("failure registry poisoned")
        .push(CellFailure {
            index,
            label: label.to_owned(),
            message,
            class,
            attempts: max_attempts,
        });
    None
}

/// A re-runnable cell task with its label, as submitted to the pool.
pub(crate) type LabeledTask<T> = (String, Box<dyn Fn() -> T + Send>);

/// The resilient position-keeping pool behind [`crate::run_cells`]:
/// runs `(label, task)` pairs on `workers` threads and returns one slot
/// per submitted task in submission order. Tasks are re-runnable
/// (`Fn`): every attempt runs under the soft deadline, failed attempts
/// retry with exponential backoff, and a cell that exhausts its
/// attempts leaves `None` (already recorded in the failure registry).
///
/// Keeping positions (rather than dropping failed cells) is what lets
/// callers that correlate results with their submitted grid keys — the
/// global cell scheduler, `chunks`-based repetition folds — stay
/// aligned even in a degraded run.
pub(crate) fn run_cells_keep<T>(workers: usize, tasks: Vec<LabeledTask<T>>) -> Vec<Option<T>>
where
    T: Send,
{
    let n = tasks.len();
    let workers = workers.max(1).min(n);
    // Task slots and result slots are indexed by submission order; a
    // worker claims index i atomically, takes the task from slot i, and
    // writes its output to result slot i. Completion order is
    // irrelevant to the collected output.
    let slots: Vec<Mutex<Option<LabeledTask<T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (label, task) = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let out = run_resilient_cell(i, &label, task.as_ref());
                *results[i].lock().expect("result slot poisoned") = out;
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task<T: 'static>(label: String, f: impl Fn() -> T + Send + 'static) -> LabeledTask<T> {
        (label, Box::new(f))
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Give early tasks the longest work so they finish last; order
        // must still match submission.
        let tasks: Vec<_> = (0..32u64)
            .map(|i| {
                task(format!("order-{i}"), move || {
                    let spin = (32 - i) * 10_000;
                    let mut acc = i;
                    for k in 0..spin {
                        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i
                })
            })
            .collect();
        let out = run_cells_keep(4, tasks);
        assert_eq!(out, (0..32).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let build = || {
            (0..20u64)
                .map(|i| {
                    task(format!("agree-{i}"), move || {
                        format!("cell-{i}:{}", i.wrapping_mul(2_654_435_761))
                    })
                })
                .collect::<Vec<_>>()
        };
        let seq = run_cells_keep(1, build());
        assert!(seq.iter().all(Option::is_some));
        for workers in [2, 3, 4, 8, 64] {
            assert_eq!(run_cells_keep(workers, build()), seq, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_batches_work() {
        assert!(run_cells_keep::<u8>(8, Vec::new()).is_empty());
        assert_eq!(
            run_cells_keep(8, vec![task("single".to_owned(), || 7u8)]),
            vec![Some(7)]
        );
    }

    #[test]
    fn jobs_resolves_to_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn injected_panic_hits_only_the_named_label() {
        set_inject_panic(Some("cell-b (inject test)"));
        let out = run_cells_keep(
            2,
            ["a", "b", "c"]
                .into_iter()
                .map(|i| task(format!("cell-{i} (inject test)"), move || i.len()))
                .collect(),
        );
        set_inject_panic(None);
        assert_eq!(out, vec![Some(1), None, Some(1)]);
        let fails = take_failures();
        let ours: Vec<_> = fails
            .iter()
            .filter(|f| f.label.ends_with("(inject test)"))
            .collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].label, "cell-b (inject test)");
        assert_eq!(ours[0].index, 1);
        assert!(ours[0].message.contains("injected panic"));
    }
}
