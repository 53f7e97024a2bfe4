//! Deterministic parallel cell runner.
//!
//! Experiment grids (Fig. 3–7, Q10, …) are embarrassingly parallel:
//! every cell builds its own [`crate::Scenario`] with its own seeded
//! RNG and shares no mutable state with any other cell. This module
//! fans such batches across a fixed-size worker pool ([`run_cells`])
//! while keeping the output **bit-for-bit identical** to a sequential
//! run:
//!
//! * each cell writes its record into the slot matching its submission
//!   index, so records come back in submission order no matter which
//!   worker finished first;
//! * cells themselves are deterministic (simulation state is seeded per
//!   scenario and never shared), so a cell computes the same value on
//!   any thread.
//!
//! Together these make every table, CSV, and report byte-identical for
//! any `--jobs` value — parallelism only changes wall-clock time.
//!
//! The pool is built on [`std::thread::scope`]; there are no external
//! dependencies and no long-lived threads.
//!
//! # One explicit configuration
//!
//! Everything a batch depends on besides its cells is one [`RunConfig`]
//! value, passed to [`run_cells`] and from there to every cell's task:
//! the worker count, the per-cell deadline, the cache directory, trace
//! capture and the two fault-injection hooks. Nothing is process-global,
//! so two batches with different configurations can run at once in one
//! process. [`RunConfig::default`] is what the experiments' own
//! `run(fidelity, sink)` entry points use: one worker per core, no
//! deadline, no cache, no trace, no injection.
//!
//! # Resilient cell execution
//!
//! A failing cell does not take down the whole batch (and with it a
//! multi-minute figures run):
//!
//! * each cell runs once, under [`std::panic::catch_unwind`] and, when
//!   [`RunConfig::deadline`] is set, with that deadline installed in the
//!   worker's thread-local [`simcore::cancel::DeadlineGuard`]; the
//!   engine's event loop polls it and unwinds with partial stats once it
//!   passes;
//! * the runner polls the deadline once more when the cell returns, so
//!   a cell that finished late — or never polled at all — is classified
//!   `timed_out` and *discarded* even if it returned rows: partial
//!   stats never reach a CSV;
//! * every cell yields one positional [`CellRecord`]: its rows or its
//!   [`CellFailure`] (with a structured [`FailureClass`]), plus its
//!   [`CellStat`]. The harness folds `failures.json`, the cache totals
//!   and the per-cell timings from these records.
//!
//! A failed cell is not retried: cells are pure and seeded, so a panic
//! recurs and an overrun re-runs the same work against the same
//! deadline. Running the same `figures` command again is the retry —
//! finished cells are served from the cell cache and only the failed
//! ones simulate.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use simcore::cancel::{self, DeadlineGuard};

use crate::cache::CellStat;
use crate::tracing::TraceConfig;
use crate::{Cell, CellRows};

/// How a batch of cells runs. The default is what library callers get:
/// one worker per available core, no deadline, no cache, no trace and
/// no injected fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Cooperative wall-clock deadline per cell; `None` disables it.
    pub deadline: Option<Duration>,
    /// Cell-cache directory; `None` neither reads nor writes entries.
    pub cache: Option<PathBuf>,
    /// Request-lifecycle trace capture; `None` runs untraced.
    pub trace: Option<TraceConfig>,
    /// Label of a cell to panic deliberately (`--inject-panic`). With
    /// tracing on, the panic fires mid-simulation so that the cell
    /// leaves a partial trace.
    pub inject_panic: Option<String>,
    /// Label of a cell to hang deliberately until its deadline
    /// (`--inject-hang`).
    pub inject_hang: Option<String>,
}

impl RunConfig {
    /// The resolved worker count (always ≥ 1).
    #[must_use]
    pub fn workers(&self) -> usize {
        match self.jobs {
            0 => thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Structured failure taxonomy reported in `failures.json` and in the
/// runner's log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The cell panicked (assertion, arithmetic, explicit panic).
    Panic,
    /// The cell ran past its deadline.
    TimedOut,
}

impl FailureClass {
    /// Stable lower-case token for JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::TimedOut => "timed_out",
        }
    }
}

/// Why a cell produced no rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Structured failure class.
    pub class: FailureClass,
    /// The panic payload or deadline message.
    pub message: String,
}

/// What one cell of a batch left behind, at its submission index.
#[derive(Debug)]
pub struct CellRecord {
    /// The experiment the cell belongs to.
    pub experiment: &'static str,
    /// The cell label (the scenario name).
    pub label: String,
    /// The cell's rows, or why it has none.
    pub rows: Result<CellRows, CellFailure>,
    /// Wall-clock, cache outcome and trace output. The cache fields
    /// count only for a cell whose `rows` are `Ok`.
    pub stat: CellStat,
}

/// Spins in place of the task body for the `--inject-hang` target. The
/// spin is cooperative (it polls the installed deadline) because a
/// truly unkillable loop cannot be stopped from safe Rust; what is
/// under test is the runner classifying and recording the cell.
fn hang(label: &str) -> ! {
    loop {
        if cancel::poll() {
            panic!("injected hang (cell `{label}`) stopped at its deadline");
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// The message of a caught panic payload (`&str` or `String`).
#[must_use]
pub fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one cell once under its deadline.
fn run_cell(cfg: &RunConfig, index: usize, cell: Cell) -> CellRecord {
    let Cell {
        experiment,
        label,
        task,
    } = cell;
    let mut stat = CellStat::default();
    let started = Instant::now();
    // With trace capture on, the injected panic is deferred into the
    // traced run itself (the recorder is armed to panic mid-simulation;
    // see crate::cache) so the partial-trace path gets exercised.
    let inject_now = cfg.inject_panic.as_deref() == Some(&label) && cfg.trace.is_none();
    let hang_now = cfg.inject_hang.as_deref() == Some(&label);
    let (outcome, timed_out) = {
        let _deadline = DeadlineGuard::new(cfg.deadline);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            assert!(!inject_now, "injected panic (requested for cell `{label}`)");
            if hang_now {
                hang(&label);
            }
            task(cfg, &mut stat)
        }));
        (outcome, cancel::poll())
    };
    stat.seconds = started.elapsed().as_secs_f64();
    let rows = match outcome {
        Ok(rows) if !timed_out => Ok(rows),
        // A cell that ran past its deadline is discarded even when it
        // returned: the engine unwinds early with partial stats, and
        // partial stats must never reach a CSV.
        Ok(_) => Err(CellFailure {
            class: FailureClass::TimedOut,
            message: format!(
                "cell ran past its {:?} deadline; partial result discarded",
                cfg.deadline.unwrap_or_default()
            ),
        }),
        Err(payload) => Err(CellFailure {
            class: if timed_out {
                FailureClass::TimedOut
            } else {
                FailureClass::Panic
            },
            message: payload_message(payload),
        }),
    };
    if let Err(f) = &rows {
        eprintln!(
            "runner: cell #{index} ({label}) failed [{}]: {}",
            f.class.as_str(),
            f.message
        );
    }
    CellRecord {
        experiment,
        label,
        rows,
        stat,
    }
}

/// Runs a batch of cells (possibly spanning many experiments) on
/// `cfg.workers()` threads: each cell once, under `cfg.deadline`.
/// Returns one record per cell, in submission order.
///
/// Keeping positions (rather than dropping failed cells) is what lets
/// callers that correlate results with their submitted grid keys — the
/// global cell scheduler, `chunks`-based repetition folds — stay
/// aligned even in a degraded run.
#[must_use]
pub fn run_cells(cfg: &RunConfig, cells: Vec<Cell>) -> Vec<CellRecord> {
    let n = cells.len();
    let workers = cfg.workers().min(n);
    // Cell slots and record slots are indexed by submission order; a
    // worker claims index i atomically, takes the cell from slot i, and
    // writes its record to slot i. Completion order is irrelevant to
    // the collected output.
    let slots: Vec<Mutex<Option<Cell>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let records: Vec<Mutex<Option<CellRecord>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = slots[i]
                    .lock()
                    .expect("cell slot poisoned")
                    .take()
                    .expect("cell claimed twice");
                let record = run_cell(cfg, i, cell);
                *records[i].lock().expect("record slot poisoned") = Some(record);
            });
        }
    });

    records
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("record slot poisoned")
                .expect("every cell ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_jobs(jobs: usize) -> RunConfig {
        RunConfig {
            jobs,
            ..RunConfig::default()
        }
    }

    fn rows(records: Vec<CellRecord>) -> Vec<Option<CellRows>> {
        records.into_iter().map(|r| r.rows.ok()).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Give early cells the longest work so they finish last; order
        // must still match submission.
        let cells: Vec<_> = (0..32u64)
            .map(|i| {
                Cell::from_fn("t", format!("order-{i}"), move || {
                    let spin = (32 - i) * 10_000;
                    let mut acc = i;
                    for k in 0..spin {
                        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    vec![vec![i as f64]]
                })
            })
            .collect();
        let out = rows(run_cells(&with_jobs(4), cells));
        assert_eq!(
            out,
            (0..32)
                .map(|i| Some(vec![vec![f64::from(i)]]))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let build = || {
            (0..20u64)
                .map(|i| {
                    Cell::from_fn("t", format!("agree-{i}"), move || {
                        vec![vec![f64::from_bits(i.wrapping_mul(2_654_435_761))]]
                    })
                })
                .collect::<Vec<_>>()
        };
        let bits = |out: Vec<Option<CellRows>>| {
            out.into_iter()
                .map(|r| r.expect("cell ran")[0][0].to_bits())
                .collect::<Vec<_>>()
        };
        let seq = bits(rows(run_cells(&with_jobs(1), build())));
        for workers in [2, 3, 4, 8, 64] {
            assert_eq!(
                bits(rows(run_cells(&with_jobs(workers), build()))),
                seq,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn empty_and_single_batches_work() {
        assert!(run_cells(&with_jobs(8), Vec::new()).is_empty());
        let single = Cell::from_fn("t", "single", || vec![vec![7.0]]);
        assert_eq!(
            rows(run_cells(&with_jobs(8), vec![single])),
            vec![Some(vec![vec![7.0]])]
        );
    }

    #[test]
    fn jobs_resolves_to_at_least_one() {
        assert!(RunConfig::default().workers() >= 1);
        assert_eq!(with_jobs(3).workers(), 3);
    }

    #[test]
    fn injected_panic_hits_only_the_named_label() {
        let cfg = RunConfig {
            jobs: 2,
            inject_panic: Some("cell-b".to_owned()),
            ..RunConfig::default()
        };
        let cells = ["a", "b", "c"]
            .into_iter()
            .map(|i| Cell::from_fn("t", format!("cell-{i}"), || vec![vec![1.0]]))
            .collect();
        let records = run_cells(&cfg, cells);
        let labels: Vec<_> = records.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["cell-a", "cell-b", "cell-c"]);
        assert!(records[0].rows.is_ok() && records[2].rows.is_ok());
        let fail = records[1].rows.as_ref().expect_err("cell-b panics");
        assert_eq!(fail.class, FailureClass::Panic);
        assert!(fail.message.contains("injected panic"));
    }
}
