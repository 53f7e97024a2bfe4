//! Grid cells as schedulable descriptions.
//!
//! An experiment does not *run* its grid, it *describes* it — a list
//! of [`Cell`]s (label + boxed computation returning plain numeric
//! rows) plus a typed `finish` closure that decodes the rows back into
//! the experiment's result type and emits its tables. The pair is a
//! [`Staged`] experiment.
//!
//! The split buys two things:
//!
//! * **One global scheduler.** The `figures` harness concatenates the
//!   cells of *every* selected experiment into a single batch for
//!   [`run_cells`], so the worker pool never drains at an experiment
//!   boundary — fig2 stragglers overlap with q10 cells. Records come
//!   back positionally (one per cell, its rows or its failure), so each
//!   experiment's slice of the batch is exactly what its private pool
//!   would have produced, and every CSV stays byte-identical for any
//!   `--jobs` value.
//! * **Content-addressed caching.** [`Cell::scenario`] routes the
//!   computation through [`cache::run_scenario`], which can answer
//!   from disk without simulating (see [`crate::cache`]).
//!
//! A cell's task receives the batch's [`RunConfig`] (cache directory,
//! trace capture, injection hooks) and fills in its [`CellStat`]; it
//! reads no global state. `Staged::run` runs just this experiment's
//! cells under a given configuration, then finishes — the public
//! `run(fidelity, sink)` entry points call it with
//! [`RunConfig::default`], so library consumers, tests and benches see
//! plain uncached, untraced runs.

use std::io;

use host_sim::RunReport;
use simcore::SimTime;

use crate::cache::{self, CellStat};
use crate::{run_cells, Fidelity, OutputSink, RunConfig, Scenario};

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
    pub(crate) experiment: &'static str,
    pub(crate) label: String,
    pub(crate) task: CellTask,
}

/// A cell's computation: given the batch's configuration, it returns
/// the cell's rows and reports its cache outcome and trace output.
pub(crate) type CellTask = Box<dyn FnOnce(&RunConfig, &mut CellStat) -> CellRows + Send>;

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
    /// `--inject-panic` / `--inject-hang` target and the label in
    /// `failures.json`.
    pub fn scenario(
        experiment: &'static str,
        fidelity: Fidelity,
        scenario: Scenario,
        until: SimTime,
        extract: impl FnOnce(RunReport) -> CellRows + Send + 'static,
    ) -> Self {
        Cell {
            experiment,
            label: scenario.name().to_owned(),
            task: Box::new(move |cfg, stat| {
                cache::run_scenario(cfg, stat, experiment, fidelity, scenario, until, extract)
            }),
        }
    }

    /// A cell with an arbitrary task, bypassing the scenario/cache
    /// machinery (its outcome is [`cache::CellOutcome::Off`]). Intended
    /// for harness tests and ad-hoc batches.
    pub fn from_fn(
        experiment: &'static str,
        label: impl Into<String>,
        task: impl FnOnce() -> CellRows + Send + 'static,
    ) -> Self {
        Cell {
            experiment,
            label: label.into(),
            task: Box::new(move |_, _| task()),
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

    /// Runs just this experiment: its cells on the worker pool under
    /// `cfg`, then `finish` — used by the `run(fidelity, sink)` entry
    /// points with [`RunConfig::default`].
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures from `finish`.
    pub fn run(self, cfg: &RunConfig, sink: &mut OutputSink) -> io::Result<R> {
        let results = run_cells(cfg, self.cells)
            .into_iter()
            .map(|r| r.rows.ok())
            .collect();
        (self.finish)(results, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FailureClass;

    fn const_cell(label: &str, v: f64) -> Cell {
        Cell::from_fn("t", label, move || vec![vec![v]])
    }

    #[test]
    fn staged_run_feeds_finish_positionally() {
        let cells = vec![
            const_cell("t-a", 1.0),
            const_cell("t-b", 2.0),
            const_cell("t-c", 3.0),
        ];
        let staged = Staged::new("t", cells, |results, _sink| {
            let got: Vec<f64> = results.iter().map(|r| r.as_ref().unwrap()[0][0]).collect();
            Ok(got)
        });
        assert_eq!(staged.name(), "t");
        assert_eq!(staged.cell_count(), 3);
        let out = staged
            .run(&RunConfig::default(), &mut OutputSink::quiet())
            .unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn panicked_cell_leaves_a_none_slot_in_position() {
        let cells = vec![
            const_cell("t-0", 0.0),
            Cell::from_fn("t", "t-boom", || panic!("cell boom (cell test)")),
            const_cell("t-2", 2.0),
        ];
        let records = run_cells(&RunConfig::default(), cells);
        assert_eq!(records.len(), 3);
        assert!(records[0].rows.is_ok());
        let fail = records[1]
            .rows
            .as_ref()
            .expect_err("panicked slot stays in place");
        assert_eq!(records[1].label, "t-boom");
        assert_eq!(fail.class, FailureClass::Panic);
        assert!(fail.message.contains("cell boom"));
        assert_eq!(records[2].rows.as_ref().unwrap()[0][0], 2.0);
    }
}
