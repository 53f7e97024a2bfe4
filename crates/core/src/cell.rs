//! Grid cells as schedulable descriptions.
//!
//! PR 1 gave every experiment its own worker pool; this module inverts
//! that: an experiment no longer *runs* its grid, it *describes* it —
//! a list of [`Cell`]s (label + boxed computation returning plain
//! numeric rows) plus a typed `finish` closure that decodes the rows
//! back into the experiment's result type and emits its tables. The
//! pair is a [`Staged`] experiment.
//!
//! The split buys two things:
//!
//! * **One global scheduler.** The `figures` harness concatenates the
//!   cells of *every* selected experiment into a single batch for
//!   [`run_cells`], so the worker pool never drains at an experiment
//!   boundary — fig2 stragglers overlap with q10 cells. Results come
//!   back positionally (one slot per cell, `None` for a failed
//!   cell), so each experiment's slice of the batch is exactly what
//!   its private pool would have produced, and every CSV stays
//!   byte-identical for any `--jobs` value.
//! * **Content-addressed caching.** [`Cell::scenario`] routes the
//!   computation through [`cache::run_scenario`], which can answer
//!   from disk without simulating (see [`crate::cache`]).
//!
//! `Staged::run` restores the old behavior — run just this
//! experiment's cells, then finish — so the public
//! `run(fidelity, sink)` entry points keep working unchanged for
//! library consumers, tests, and benches.

use std::io;

use host_sim::RunReport;
use simcore::SimTime;

use crate::{cache, runner, Fidelity, OutputSink, Scenario};

/// A cell's result: plain numeric rows, the only currency the cache
/// and the scheduler deal in. Each experiment defines its own row
/// layout and decodes it in its `finish` closure.
pub type CellRows = Vec<Vec<f64>>;

/// The typed tail of a staged experiment: decodes positional cell
/// results (`None` = that cell failed) and emits tables.
pub type FinishFn<R> = Box<dyn FnOnce(Vec<Option<CellRows>>, &mut OutputSink) -> io::Result<R>>;

/// One schedulable grid cell.
///
/// The task is `FnOnce`: the runner runs each cell exactly once. A
/// failed cell is re-run by running the same command again, which
/// serves every finished cell from the cache.
pub struct Cell {
    experiment: &'static str,
    label: String,
    task: Box<dyn FnOnce() -> CellRows + Send>,
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("experiment", &self.experiment)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl Cell {
    /// The canonical cell shape: simulate `scenario` until `until`,
    /// then reduce the report to rows with `extract` — all behind the
    /// content-addressed cache (a hit skips the simulation entirely;
    /// faulted scenarios always run live and are never stored).
    ///
    /// The cell label is the scenario name, which doubles as the
    /// `--inject-panic` / `--inject-hang` target and the
    /// failure-registry label.
    pub fn scenario(
        experiment: &'static str,
        fidelity: Fidelity,
        scenario: Scenario,
        until: SimTime,
        extract: impl FnOnce(RunReport) -> CellRows + Send + 'static,
    ) -> Self {
        let label = scenario.name().to_owned();
        let task_label = label.clone();
        Cell {
            experiment,
            label,
            task: Box::new(move || {
                cache::run_scenario(experiment, &task_label, fidelity, scenario, until, extract)
            }),
        }
    }

    /// A cell with an arbitrary task, bypassing the scenario/cache
    /// machinery. Intended for harness tests and ad-hoc batches.
    pub fn from_fn(
        experiment: &'static str,
        label: impl Into<String>,
        task: impl FnOnce() -> CellRows + Send + 'static,
    ) -> Self {
        Cell {
            experiment,
            label: label.into(),
            task: Box::new(task),
        }
    }

    /// The experiment this cell belongs to.
    #[must_use]
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// The cell label (scenario name).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// An experiment split into its schedulable cells and its typed
/// finishing step.
pub struct Staged<R> {
    name: &'static str,
    cells: Vec<Cell>,
    finish: FinishFn<R>,
}

impl<R> std::fmt::Debug for Staged<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Staged")
            .field("name", &self.name)
            .field("cells", &self.cells.len())
            .finish_non_exhaustive()
    }
}

impl<R> Staged<R> {
    /// Packages `cells` + `finish` under the experiment `name`.
    pub fn new(
        name: &'static str,
        cells: Vec<Cell>,
        finish: impl FnOnce(Vec<Option<CellRows>>, &mut OutputSink) -> io::Result<R> + 'static,
    ) -> Self {
        Staged {
            name,
            cells,
            finish: Box::new(finish),
        }
    }

    /// The experiment name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of cells this experiment contributes to a batch.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Splits into (cells, finish) for the global scheduler: the
    /// harness appends the cells to one big batch and later hands the
    /// matching result slice (same length, same order) to `finish`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Cell>, FinishFn<R>) {
        (self.cells, self.finish)
    }

    /// Runs just this experiment: its cells on the worker pool, then
    /// `finish`. Exactly the pre-scheduler behavior — used by the
    /// `run(fidelity, sink)` entry points.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures from `finish`.
    pub fn run(self, sink: &mut OutputSink) -> io::Result<R> {
        let results = run_cells(self.cells);
        (self.finish)(results, sink)
    }
}

/// Runs a batch of cells (possibly spanning many experiments) on the
/// resilient worker pool: each cell once, under a soft deadline (see
/// [`crate::runner`]). One result slot per cell, in submission order;
/// `None` marks a cell that failed (recorded in the failure registry
/// with its batch index, label, and failure class).
#[must_use]
pub fn run_cells(cells: Vec<Cell>) -> Vec<Option<CellRows>> {
    runner::run_cells_keep(
        runner::jobs(),
        cells.into_iter().map(|c| (c.label, c.task)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_cell(experiment: &'static str, label: &str, v: f64) -> Cell {
        // Bypasses Cell::scenario (no simulation in unit tests): a
        // hand-rolled cell with the same shape.
        Cell {
            experiment,
            label: label.to_owned(),
            task: Box::new(move || vec![vec![v]]),
        }
    }

    #[test]
    fn staged_run_feeds_finish_positionally() {
        let cells = vec![
            const_cell("t", "t-a", 1.0),
            const_cell("t", "t-b", 2.0),
            const_cell("t", "t-c", 3.0),
        ];
        let staged = Staged::new("t", cells, |results, _sink| {
            let got: Vec<f64> = results.iter().map(|r| r.as_ref().unwrap()[0][0]).collect();
            Ok(got)
        });
        assert_eq!(staged.name(), "t");
        assert_eq!(staged.cell_count(), 3);
        let out = staged.run(&mut OutputSink::quiet()).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn panicked_cell_leaves_a_none_slot_in_position() {
        let mut cells = vec![const_cell("t", "t-0", 0.0)];
        cells.push(Cell {
            experiment: "t",
            label: "t-boom".to_owned(),
            task: Box::new(|| panic!("cell boom (cell test)")),
        });
        cells.push(const_cell("t", "t-2", 2.0));
        let results = run_cells(cells);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "panicked slot must stay in place");
        assert_eq!(results[2].as_ref().unwrap()[0][0], 2.0);
        let fails = runner::take_failures();
        let ours: Vec<_> = fails.iter().filter(|f| f.label == "t-boom").collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].index, 1);
    }
}
