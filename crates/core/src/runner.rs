//! Deterministic parallel scenario runner.
//!
//! Experiment grids (Fig. 3–7, Q10, …) are embarrassingly parallel:
//! every cell builds its own [`crate::Scenario`] with its own seeded
//! RNG and shares no mutable state with any other cell. This module
//! fans such batches across a fixed-size worker pool while keeping the
//! output **bit-for-bit identical** to a sequential run:
//!
//! * each task writes its result into the slot matching its submission
//!   index, so [`run_batch`] returns results in submission order no
//!   matter which worker finished first;
//! * tasks themselves are deterministic (simulation state is seeded per
//!   scenario and never shared), so a cell computes the same value on
//!   any thread.
//!
//! Together these make every table, CSV, and report byte-identical for
//! any `--jobs` value — parallelism only changes wall-clock time.
//!
//! # Graceful degradation
//!
//! A panicking cell no longer takes down the whole batch (and with it a
//! multi-minute figures run): every cell executes under
//! [`std::panic::catch_unwind`], a failure is recorded in a
//! process-global registry tagged with the cell's submission index and
//! label, and the batch returns the *surviving* cells in submission
//! order. The harness drains the registry via [`take_failures`] and
//! writes `failures.json` next to the partial CSVs. Callers that chunk
//! results positionally should treat any recorded failure as
//! invalidating that experiment's table.
//!
//! The pool is built on [`std::thread::scope`]; there are no external
//! dependencies and no long-lived threads. Worker count comes from the
//! process-wide setting ([`set_jobs`]), defaulting to
//! [`std::thread::available_parallelism`].
//!
//! # Resilient cell execution
//!
//! Scenario cells (the [`crate::cell`] layer) additionally run under a
//! **per-cell watchdog** with bounded retry:
//!
//! * every attempt gets a fresh [`simcore::cancel::CancelToken`] armed
//!   with the soft deadline ([`set_watchdog`]); a dedicated watchdog
//!   thread polls running attempts and latches the token when the soft
//!   deadline passes, which the simulation event loops observe
//!   cooperatively and unwind from with partial stats;
//! * passing the hard deadline is counted separately
//!   ([`ResilienceStats::watchdog_hard`]) and announced on stderr — the
//!   worker itself is freed the moment the cooperative cancel lands
//!   (all engine loops poll; a truly non-cooperative spin cannot be
//!   killed from safe Rust, see DESIGN.md §16);
//! * a failed attempt (panic or cancellation) is retried up to
//!   [`set_cell_retries`] times with exponential backoff; an attempt
//!   whose token latched is *discarded* even if it returned rows, so
//!   partial stats never reach a CSV;
//! * a cell that exhausts its budget is **quarantined** by label and
//!   recorded with a structured [`FailureClass`]; later submissions of
//!   a quarantined label are skipped immediately, so a systematically
//!   broken cell degrades the run instead of stalling every repetition.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use simcore::cancel::{CancelReason, CancelToken, InstallGuard};

/// Process-wide worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Process-global registry of cells that panicked (drained by
/// [`take_failures`]).
static FAILURES: Mutex<Vec<CellFailure>> = Mutex::new(Vec::new());

/// Label of the cell the next batches should deliberately panic in
/// (testing hook for the degraded-harness path).
static INJECT_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Label of the cell the next batches should deliberately hang in
/// (testing hook for the watchdog → cancel → retry → quarantine path).
static INJECT_HANG: Mutex<Option<String>> = Mutex::new(None);

/// Watchdog soft deadline in milliseconds; 0 disables the watchdog.
static WATCHDOG_SOFT_MS: AtomicU64 = AtomicU64::new(0);

/// Watchdog hard deadline in milliseconds; 0 disables hard accounting.
static WATCHDOG_HARD_MS: AtomicU64 = AtomicU64::new(0);

/// Retries granted to a failed cell (attempts = retries + 1).
static CELL_RETRIES: AtomicUsize = AtomicUsize::new(1);

/// Base backoff before the first retry; doubles per further retry.
static BACKOFF_BASE_MS: AtomicU64 = AtomicU64::new(50);

/// Resilience counters (see [`ResilienceStats`]).
static SOFT_FIRES: AtomicUsize = AtomicUsize::new(0);
static HARD_FIRES: AtomicUsize = AtomicUsize::new(0);
static RETRIES_DONE: AtomicUsize = AtomicUsize::new(0);

/// Labels that exhausted their retry budget; later submissions of these
/// labels are skipped outright.
static QUARANTINE: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

thread_local! {
    /// 1-based attempt number of the cell attempt running on this
    /// thread; read by the cache layer when journaling a completed
    /// cell.
    static CURRENT_ATTEMPT: std::cell::Cell<u32> = const { std::cell::Cell::new(1) };
}

/// The attempt number of the cell attempt running on this thread (1
/// outside the resilient pool).
#[must_use]
pub(crate) fn current_attempt() -> u32 {
    CURRENT_ATTEMPT.with(std::cell::Cell::get)
}

/// Structured failure taxonomy shared by `failures.json`, the run
/// journal, and the per-cell telemetry in `timings.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The cell panicked (assertion, arithmetic, explicit panic).
    Panic,
    /// The watchdog's deadline latched the cell's cancel token.
    TimedOut,
    /// The cell was cancelled by an explicit token or an event budget
    /// (run-level shutdown), not by its own watchdog.
    Cancelled,
    /// The failure implicates on-disk cache/journal bytes.
    CacheCorrupt,
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
            FailureClass::Cancelled => "cancelled",
            FailureClass::CacheCorrupt => "cache_corrupt",
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
    if m.contains("cache") && m.contains("corrupt") {
        FailureClass::CacheCorrupt
    } else if m.contains("diverge") || m.contains("invariant") || m.contains("determinism") {
        FailureClass::InvariantViolation
    } else {
        FailureClass::Panic
    }
}

/// Maps a latched cancel reason to the failure taxonomy.
fn class_from_reason(reason: Option<CancelReason>) -> FailureClass {
    match reason {
        Some(CancelReason::Deadline) => FailureClass::TimedOut,
        _ => FailureClass::Cancelled,
    }
}

/// One grid cell that failed instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Submission index within its batch.
    pub index: usize,
    /// Cell label — the scenario label for labeled batches, `#index`
    /// otherwise.
    pub label: String,
    /// The panic payload or cancellation cause, stringified.
    pub message: String,
    /// Structured failure class.
    pub class: FailureClass,
    /// Attempts consumed (1 for the plain batch paths, up to
    /// `retries + 1` for resilient cells).
    pub attempts: u32,
}

/// Sets the process-wide worker count used by [`run_batch`].
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

/// Configures the per-cell watchdog. `soft` arms each attempt's cancel
/// token with a deadline (cooperatively unwinding a stuck simulation);
/// `hard` sets the accounting deadline after which the cell is loudly
/// declared stuck. `None` disables the respective deadline (the default
/// — library consumers and unit tests are unaffected unless a harness
/// opts in).
pub fn set_watchdog(soft: Option<Duration>, hard: Option<Duration>) {
    let ms =
        |d: Option<Duration>| d.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    WATCHDOG_SOFT_MS.store(ms(soft), Ordering::Relaxed);
    WATCHDOG_HARD_MS.store(ms(hard), Ordering::Relaxed);
}

/// The configured (soft, hard) watchdog deadlines.
#[must_use]
pub fn watchdog() -> (Option<Duration>, Option<Duration>) {
    let get = |a: &AtomicU64| match a.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    (get(&WATCHDOG_SOFT_MS), get(&WATCHDOG_HARD_MS))
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
    /// Watchdog soft-deadline fires (cooperative cancels issued).
    pub watchdog_soft: usize,
    /// Watchdog hard-deadline fires (cells declared stuck).
    pub watchdog_hard: usize,
    /// Retry attempts executed after a failed attempt.
    pub retries: usize,
    /// Labels quarantined after exhausting their retry budget (sorted).
    pub quarantined: Vec<String>,
}

/// Snapshot of the resilience counters since the last
/// [`reset_resilience`].
#[must_use]
pub fn resilience_stats() -> ResilienceStats {
    ResilienceStats {
        watchdog_soft: SOFT_FIRES.load(Ordering::Relaxed),
        watchdog_hard: HARD_FIRES.load(Ordering::Relaxed),
        retries: RETRIES_DONE.load(Ordering::Relaxed),
        quarantined: QUARANTINE
            .lock()
            .expect("quarantine poisoned")
            .iter()
            .cloned()
            .collect(),
    }
}

/// Zeroes the resilience counters and empties the quarantine list.
pub fn reset_resilience() {
    SOFT_FIRES.store(0, Ordering::Relaxed);
    HARD_FIRES.store(0, Ordering::Relaxed);
    RETRIES_DONE.store(0, Ordering::Relaxed);
    QUARANTINE.lock().expect("quarantine poisoned").clear();
}

fn quarantined(label: &str) -> bool {
    QUARANTINE
        .lock()
        .expect("quarantine poisoned")
        .contains(label)
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
/// instead of the up-front assert below.
pub(crate) fn inject_panic_label() -> Option<String> {
    INJECT_PANIC.lock().expect("inject flag poisoned").clone()
}

/// Arms (or with `None`, disarms) the deliberate-hang hook: the next
/// cell whose label equals `label` spins instead of running, exiting
/// only when its cancel token latches — exercising the full watchdog →
/// cancel → retry → quarantine chain end to end. Used by
/// `figures --inject-hang` and the CI chaos check.
pub fn set_inject_hang(label: Option<&str>) {
    *INJECT_HANG.lock().expect("inject flag poisoned") = label.map(str::to_owned);
}

/// Spins in place of the task body when the hang hook targets `label`.
/// The spin is cooperative (it polls the installed token) because a
/// truly unkillable loop cannot be stopped from safe Rust; what is
/// under test is the watchdog latching the token and the runner
/// classifying, retrying, and quarantining the cell.
fn maybe_hang(label: &str) {
    let armed = INJECT_HANG.lock().expect("inject flag poisoned").as_deref() == Some(label);
    if !armed {
        return;
    }
    loop {
        if simcore::cancel::cancelled() {
            panic!("injected hang (cell `{label}`) stopped by cancellation");
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

/// Runs one cell under `catch_unwind`; `None` means it panicked (the
/// failure is recorded and announced on stderr with index + label).
fn run_cell<T>(index: usize, label: &str, task: impl FnOnce() -> T) -> Option<T> {
    let inject = INJECT_PANIC
        .lock()
        .expect("inject flag poisoned")
        .as_deref()
        == Some(label);
    // With trace capture on, the injected panic is deferred into the
    // traced run itself (the recorder is armed to panic mid-simulation;
    // see crate::cache) so the partial-trace path gets exercised.
    let inject_now = inject && !crate::tracing::enabled();
    match panic::catch_unwind(AssertUnwindSafe(|| {
        assert!(!inject_now, "injected panic (requested for cell `{label}`)");
        task()
    })) {
        Ok(v) => Some(v),
        Err(payload) => {
            let message = payload_message(payload);
            eprintln!("runner: cell #{index} ({label}) panicked: {message}");
            let class = classify_panic(&message);
            FAILURES
                .lock()
                .expect("failure registry poisoned")
                .push(CellFailure {
                    index,
                    label: label.to_owned(),
                    message,
                    class,
                    attempts: 1,
                });
            None
        }
    }
}

/// Runs `tasks` on the configured worker pool, returning the surviving
/// results in submission order.
///
/// Equivalent to `tasks.into_iter().map(|f| f()).collect()` — including
/// the exact output order — but cells run concurrently on up to
/// [`jobs`] threads.
///
/// A panicking task does **not** abort the batch: its failure is
/// recorded (see [`take_failures`]) under the label `#index` and its
/// result is omitted from the returned vector.
pub fn run_batch<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_batch_on(jobs(), tasks)
}

/// [`run_batch`] with an explicit worker count (used by the determinism
/// regression tests and benches; prefer [`run_batch`] elsewhere).
pub fn run_batch_on<T, F>(workers: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_labeled_on(
        workers,
        tasks
            .into_iter()
            .enumerate()
            .map(|(i, f)| (format!("#{i}"), f))
            .collect(),
    )
}

/// The labeled core: runs `(label, task)` pairs, catching per-cell
/// panics, and returns surviving results in submission order.
fn run_labeled_on<T, F>(workers: usize, tasks: Vec<(String, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_labeled_keep(workers, tasks)
        .into_iter()
        .flatten()
        .collect()
}

/// The position-keeping core behind every batch entry point: runs
/// `(label, task)` pairs on `workers` threads, catching per-cell
/// panics, and returns one slot per submitted task in submission order
/// — `None` marks a cell that panicked (already recorded in the
/// failure registry).
///
/// Keeping positions (rather than dropping failed cells) is what lets
/// callers that correlate results with their submitted grid keys — the
/// global cell scheduler, `chunks`-based repetition folds — stay
/// aligned even in a degraded run.
pub(crate) fn run_labeled_keep<T, F>(workers: usize, tasks: Vec<(String, F)>) -> Vec<Option<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, (label, f))| run_cell(i, &label, f))
            .collect();
    }

    // Task slots and result slots are indexed by submission order; a
    // worker claims index i atomically, takes the task from slot i, and
    // writes its output to result slot i. Completion order is
    // irrelevant to the collected output. A slot left `None` after the
    // scope joins belongs to a cell that panicked (already recorded).
    let slots: Vec<Mutex<Option<(String, F)>>> =
        tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
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
                let out = run_cell(i, &label, task);
                *results[i].lock().expect("result slot poisoned") = out;
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect()
}

/// One in-flight cell attempt, visible to the watchdog thread.
struct ActiveAttempt {
    token: CancelToken,
    started: Instant,
    label: String,
    soft_fired: bool,
    hard_fired: bool,
}

/// One pass of the watchdog over every worker's active attempt.
fn watchdog_scan(
    active: &[Mutex<Option<ActiveAttempt>>],
    soft: Option<Duration>,
    hard: Option<Duration>,
) {
    for slot in active {
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        let Some(att) = guard.as_mut() else {
            continue;
        };
        let elapsed = att.started.elapsed();
        if let Some(soft) = soft {
            if !att.soft_fired && elapsed >= soft {
                att.soft_fired = true;
                SOFT_FIRES.fetch_add(1, Ordering::Relaxed);
                // The token already carries the deadline; polling it
                // here latches the cancel even while the cell is deep
                // between its own poll points.
                att.token.poll();
                eprintln!(
                    "runner: watchdog soft deadline ({:?}) passed for `{}`; cancelling",
                    soft, att.label
                );
            }
        }
        if let Some(hard) = hard {
            if !att.hard_fired && elapsed >= hard {
                att.hard_fired = true;
                HARD_FIRES.fetch_add(1, Ordering::Relaxed);
                att.token.poll();
                eprintln!(
                    "runner: watchdog hard deadline ({:?}) passed for `{}`; \
                     cell is marked timed out (worker frees at its next poll point)",
                    hard, att.label
                );
            }
        }
    }
}

/// Runs one cell with watchdog, bounded retry, and quarantine. Returns
/// `None` when every attempt failed (the failure is recorded) or the
/// label is already quarantined.
fn run_resilient_cell<T>(
    index: usize,
    label: &str,
    task: &(dyn Fn() -> T + Send),
    active: &Mutex<Option<ActiveAttempt>>,
) -> Option<T> {
    if quarantined(label) {
        eprintln!("runner: cell #{index} ({label}) skipped: label is quarantined");
        FAILURES
            .lock()
            .expect("failure registry poisoned")
            .push(CellFailure {
                index,
                label: label.to_owned(),
                message: "skipped: label quarantined after earlier failures".to_owned(),
                class: FailureClass::Cancelled,
                attempts: 0,
            });
        return None;
    }
    let (soft, _) = watchdog();
    let max_attempts = u32::try_from(cell_retries())
        .unwrap_or(u32::MAX)
        .saturating_add(1);
    let mut last: Option<(FailureClass, String)> = None;
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            RETRIES_DONE.fetch_add(1, Ordering::Relaxed);
            let base = BACKOFF_BASE_MS.load(Ordering::Relaxed);
            let backoff = base.saturating_mul(1 << (attempt - 2).min(16));
            thread::sleep(Duration::from_millis(backoff));
        }
        let mut token = CancelToken::new();
        if let Some(soft) = soft {
            token = token.with_deadline(soft);
        }
        *active.lock().unwrap_or_else(|e| e.into_inner()) = Some(ActiveAttempt {
            token: token.clone(),
            started: Instant::now(),
            label: label.to_owned(),
            soft_fired: false,
            hard_fired: false,
        });
        CURRENT_ATTEMPT.with(|c| c.set(attempt));
        let inject = INJECT_PANIC
            .lock()
            .expect("inject flag poisoned")
            .as_deref()
            == Some(label);
        let inject_now = inject && !crate::tracing::enabled();
        let outcome = {
            let _guard = InstallGuard::new(token.clone());
            panic::catch_unwind(AssertUnwindSafe(|| {
                assert!(!inject_now, "injected panic (requested for cell `{label}`)");
                maybe_hang(label);
                task()
            }))
        };
        CURRENT_ATTEMPT.with(|c| c.set(1));
        *active.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let (class, message) = match outcome {
            // An attempt whose token latched is discarded even when it
            // returned: a cancelled simulation unwinds early with
            // partial stats, and partial stats must never reach a CSV.
            Ok(v) if !token.is_cancelled() => return Some(v),
            Ok(_) => {
                let reason = token.reason();
                (
                    class_from_reason(reason),
                    format!(
                        "attempt cancelled ({}); partial result discarded",
                        reason.map_or("unknown", CancelReason::as_str)
                    ),
                )
            }
            Err(payload) => {
                let message = payload_message(payload);
                let class = if token.is_cancelled() {
                    class_from_reason(token.reason())
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
    QUARANTINE
        .lock()
        .expect("quarantine poisoned")
        .insert(label.to_owned());
    crate::journal::record_failure(label, class.as_str(), max_attempts, &message);
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

/// A re-runnable cell task with its label, as submitted to the
/// resilient pool.
pub(crate) type LabeledTask<T> = (String, Box<dyn Fn() -> T + Send>);

/// The resilient position-keeping pool behind [`crate::run_cells`]:
/// like [`run_labeled_keep`], but tasks are re-runnable (`Fn`), every
/// attempt runs under a watchdog-armed cancel token, failed attempts
/// retry with exponential backoff, and exhausted cells are quarantined.
/// The watchdog runs on its own thread inside the same scope, so even a
/// single-worker run gets deadline enforcement.
pub(crate) fn run_cells_keep<T>(workers: usize, tasks: Vec<LabeledTask<T>>) -> Vec<Option<T>>
where
    T: Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    let slots: Vec<Mutex<Option<LabeledTask<T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let active: Vec<Mutex<Option<ActiveAttempt>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let (soft, hard) = watchdog();

    thread::scope(|scope| {
        if soft.is_some() || hard.is_some() {
            let active = &active;
            let finished = &finished;
            scope.spawn(move || {
                while finished.load(Ordering::Acquire) < workers {
                    watchdog_scan(active, soft, hard);
                    thread::sleep(Duration::from_millis(5));
                }
            });
        }
        for w in 0..workers {
            let slots = &slots;
            let results = &results;
            let next = &next;
            let finished = &finished;
            let active = &active[w];
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (label, task) = slots[i]
                        .lock()
                        .expect("task slot poisoned")
                        .take()
                        .expect("task claimed twice");
                    let out = run_resilient_cell(i, &label, task.as_ref(), active);
                    *results[i].lock().expect("result slot poisoned") = out;
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect()
}

/// Maps `f` over `items` on the worker pool, preserving item order.
///
/// Convenience wrapper over [`run_batch`] for the common "apply one
/// measurement function to every grid cell" shape. Panicking cells are
/// recorded and omitted (see [`run_batch`]).
pub fn map_batch<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let f = &f;
    run_batch(items.into_iter().map(move |item| move || f(item)).collect())
}

/// [`map_batch`] with human-readable cell labels: `label(&item)` names
/// each cell (typically the scenario name) so a panic is reported as
/// e.g. `q_faults-io.cost` instead of `#4`. Results carry no item
/// correlation, so cells should embed their own identity in `T`.
pub fn map_batch_labeled<I, T, L, F>(items: Vec<I>, label: L, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    L: Fn(&I) -> String,
    F: Fn(I) -> T + Sync,
{
    let f = &f;
    run_labeled_on(
        jobs(),
        items
            .into_iter()
            .map(move |item| (label(&item), move || f(item)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Give early tasks the longest work so they finish last; order
        // must still match submission.
        let tasks: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    let spin = (32 - i) * 10_000;
                    let mut acc = i;
                    for k in 0..spin {
                        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i
                }
            })
            .collect();
        let out = run_batch_on(4, tasks);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let build = || {
            (0..20u64)
                .map(|i| move || format!("cell-{i}:{}", i.wrapping_mul(2_654_435_761)))
                .collect::<Vec<_>>()
        };
        let seq = run_batch_on(1, build());
        for workers in [2, 3, 4, 8, 64] {
            assert_eq!(run_batch_on(workers, build()), seq, "workers = {workers}");
        }
    }

    #[test]
    fn map_batch_preserves_order() {
        let out = map_batch((0..10).collect::<Vec<i32>>(), |x| x * x);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(run_batch(empty).is_empty());
        assert_eq!(run_batch_on(8, vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn jobs_resolves_to_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn panicking_cell_is_dropped_and_recorded() {
        for workers in [1, 4] {
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8u64)
                .map(|i| {
                    Box::new(move || {
                        assert!(i != 5, "cell five exploded (workers test)");
                        i
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            let out = run_batch_on(workers, tasks);
            assert_eq!(out, vec![0, 1, 2, 3, 4, 6, 7], "workers = {workers}");
            let fails = take_failures();
            let ours: Vec<_> = fails
                .iter()
                .filter(|f| f.message.contains("cell five exploded"))
                .collect();
            assert_eq!(ours.len(), 1, "workers = {workers}");
            assert_eq!(ours[0].index, 5);
            assert_eq!(ours[0].label, "#5");
        }
    }

    #[test]
    fn labeled_batches_report_the_label() {
        let items = vec!["alpha", "beta", "gamma"];
        let out = map_batch_labeled(
            items,
            |i| format!("cell-{i}"),
            |i| {
                assert!(i != "beta", "beta failed (label test)");
                i.len()
            },
        );
        assert_eq!(out, vec![5, 5]);
        let fails = take_failures();
        let ours: Vec<_> = fails
            .iter()
            .filter(|f| f.message.contains("beta failed"))
            .collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].label, "cell-beta");
        assert_eq!(ours[0].index, 1);
    }

    #[test]
    fn injected_panic_hits_only_the_named_label() {
        set_inject_panic(Some("cell-b (inject test)"));
        let out = map_batch_labeled(
            vec!["a (inject test)", "b (inject test)", "c (inject test)"],
            |i| format!("cell-{i}"),
            |i| i.len(),
        );
        set_inject_panic(None);
        assert_eq!(out.len(), 2);
        let fails = take_failures();
        let ours: Vec<_> = fails
            .iter()
            .filter(|f| f.label == "cell-b (inject test)")
            .collect();
        assert_eq!(ours.len(), 1);
        assert!(ours[0].message.contains("injected panic"));
    }
}
