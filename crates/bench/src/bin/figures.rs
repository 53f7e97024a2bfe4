//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [--fidelity smoke|standard|full] [--smoke] [--jobs N|auto]
//!         [--no-cache] [--faults]
//!         [--trace[=N]] [--inject-panic LABEL] [--inject-hang LABEL]
//!         [--watchdog-soft-ms N] [--scenario FILE.toml]...
//!         [fig2 fig3 fig4 fig5 fig6 fig7 q10 table1 optane writeback
//!          q_faults fleet_scale app_mix | all]
//! ```
//!
//! Prints the paper-style tables and writes CSVs under
//! `target/isol-bench/`. `table1` needs the results of figs 3–7 and
//! Q10; when selected it runs whatever of those were not already
//! selected.
//!
//! `--jobs` sets how many scenarios run concurrently (default: all
//! available cores). Each scenario runs on one thread through
//! `HostSim::run`. Output is byte-identical for every jobs value; only
//! wall-clock time changes. Per-experiment and per-cell timings land in
//! `target/isol-bench/timings.json`.
//!
//! # Incremental runs
//!
//! Grid-cell results are cached content-addressed under
//! `target/isol-bench/cache/` (see `isol_bench::cache`): a cell whose
//! scenario, fidelity, and engine version are unchanged is loaded from
//! disk instead of re-simulated, so warm reruns are near-instant and
//! byte-identical to cold runs by construction. `--no-cache` disables
//! the cache entirely (every cell recomputes, nothing is read or
//! written — the pre-cache behavior); `rm -rf target/isol-bench/cache`
//! makes the next run recompute and store every cell. Faulted cells
//! (`q_faults`) always run live.
//!
//! # Scheduling
//!
//! The cells of *all* selected experiments are concatenated into one
//! batch for a single global worker pool, so the pool never drains at
//! an experiment boundary. Results return positionally, so every CSV is
//! byte-identical to running each experiment on its own (the
//! experiments' `run`, which the goldens pin) for any `--jobs` value.
//! Engine cost per layer is measured by `perfbench`, not here.
//!
//! `--faults` adds the fault-injection isolation study (`q_faults`) to
//! the selection; `--smoke` is shorthand for `--fidelity smoke`.
//!
//! # Scenario files
//!
//! `--scenario FILE.toml` runs a declarative scenario file (see
//! `isol_bench::scenario_file` for the schema and `scenarios/` for
//! committed examples) and emits one per-tenant table. May be repeated.
//! With no explicit experiment selection alongside, only the scenario
//! files run; output is byte-identical across `--jobs` values like
//! every other artifact.
//!
//! # Tracing
//!
//! `--trace` records the full request lifecycle of every cell and
//! writes two files per cell under `target/isol-bench/traces/`:
//! `<label>.trace.jsonl` (the raw event stream, input to the `traceck`
//! checker) and `<label>.chrome.json` (loadable in `chrome://tracing` /
//! Perfetto). `--trace=N` sets the per-cell ring-buffer capacity in
//! events (default 65536); once full, the oldest events are evicted and
//! counted in the JSONL header's `dropped` field. Traced cells always
//! bypass the result cache. See EXPERIMENTS.md ("Tracing a run") and
//! DESIGN.md §13 for the schema.
//!
//! # Graceful degradation
//!
//! A failing grid cell does not kill the run: a panicking or hung cell
//! runs once and is dropped; the remaining cells complete, partial CSVs
//! are written, and `target/isol-bench/failures.json` names every failed
//! cell with a structured class (`panic` or `timed_out`). The file is
//! written on every run (an empty `failures` array is the healthy
//! signal) and is the one record of a failed cell. The process still
//! exits 0 — CI distinguishes degraded runs by inspecting
//! `failures.json`. Failed cells are never written to the cache, so
//! running the same command again retries exactly them: cells are pure
//! and seeded, and every finished cell is a cache hit.
//! `--inject-panic LABEL` deliberately panics the cell with that label
//! (e.g. `q_faults-io.cost`); `--inject-hang LABEL` deliberately hangs
//! it (exercising the deadline → `timed_out` path, and arming a 2 s
//! deadline if none was configured).
//!
//! # Deadline
//!
//! `--watchdog-soft-ms N` gives every cell a cooperative wall-clock
//! deadline, installed thread-locally on the worker that runs it: the
//! engine's event loop polls it and unwinds with partial stats once N ms
//! pass, and the runner polls it again when the cell returns, so a late
//! cell is discarded and recorded in `failures.json` as `timed_out`.
//! Off by default.
//!
//! # Crash-safe resume
//!
//! A killed run is resumed by running the same command again. Each
//! cell's entry is stored in the cell cache the moment it completes
//! (temp file plus atomic rename), so every cell stored before the kill
//! is a hit and only the rest simulate; the CSVs are byte-identical to
//! an uninterrupted run's, and `"hits"` in `timings.json` counts the
//! cells that were carried over. Stale cache temp files (`*.tmp-<pid>`
//! from killed runs) are swept at startup. A `--no-cache` run reads and
//! writes nothing, so after a kill it starts over; faulted cells are
//! never cached, so they always run again.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use isol_bench::cell::FinishFn;
use isol_bench::experiments::{
    app_mix, fig2, fig3, fig4, fig5, fig6, fig7, fleet_scale, optane, q10, q_faults, table1,
    writeback,
};
use isol_bench::{cache, runner, Cell, Fidelity, OutputSink, Staged};
use isol_bench_harness::{parse_count, parse_selection, CellTiming, Failures, Timings, OUTPUT_DIR};

/// One experiment's slice of the global cell batch.
struct Span {
    name: &'static str,
    start: usize,
    end: usize,
}

/// Appends a staged experiment's cells to the global batch, records its
/// span, and hands back the typed finishing step.
fn stage_push<R>(staged: Staged<R>, batch: &mut Vec<Cell>, spans: &mut Vec<Span>) -> FinishFn<R> {
    let name = staged.name();
    let (cells, finish) = staged.into_parts();
    let start = batch.len();
    batch.extend(cells);
    spans.push(Span {
        name,
        start,
        end: batch.len(),
    });
    finish
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut fidelity = Fidelity::Standard;
    let mut no_cache = false;
    let mut inject_hang = false;
    let mut watchdog_soft: Option<Duration> = None;
    let mut rest = Vec::new();
    let mut scenario_files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--smoke" {
            fidelity = Fidelity::Smoke;
        } else if a == "--no-cache" {
            no_cache = true;
        } else if a == "--faults" {
            rest.push("q_faults".to_owned());
        } else if a == "--trace" {
            isol_bench::tracing::set_capacity(Some(isol_bench::tracing::DEFAULT_CAPACITY));
        } else if let Some(v) = a.strip_prefix("--trace=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => isol_bench::tracing::set_capacity(Some(n)),
                _ => {
                    eprintln!("--trace={v}: capacity must be a positive event count");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--inject-panic" {
            match args.next() {
                Some(label) => runner::set_inject_panic(Some(&label)),
                None => {
                    eprintln!("--inject-panic needs a cell label (e.g. q_faults-io.cost)");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--inject-hang" {
            match args.next() {
                Some(label) => {
                    runner::set_inject_hang(Some(&label));
                    inject_hang = true;
                }
                None => {
                    eprintln!("--inject-hang needs a cell label (e.g. fig4-none-1ssd-1)");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--scenario" {
            match args.next() {
                Some(path) => scenario_files.push(path),
                None => {
                    eprintln!("--scenario needs a file path (e.g. scenarios/app_mix.toml)");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--watchdog-soft-ms" {
            match args.next().as_deref().map(str::parse::<u64>) {
                Some(Ok(ms)) if ms > 0 => watchdog_soft = Some(Duration::from_millis(ms)),
                Some(_) => {
                    eprintln!("--watchdog-soft-ms needs a positive millisecond count");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--watchdog-soft-ms needs a value (milliseconds)");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--fidelity" {
            match args.next().as_deref() {
                Some("smoke") => fidelity = Fidelity::Smoke,
                Some("standard") => fidelity = Fidelity::Standard,
                Some("full") => fidelity = Fidelity::Full,
                other => {
                    eprintln!("unknown fidelity {other:?} (smoke|standard|full)");
                    return ExitCode::FAILURE;
                }
            }
        } else if a == "--jobs" {
            match args.next().map(|v| parse_count(&a, &v)) {
                Some(Ok(n)) => runner::set_jobs(n),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--jobs needs a value (a worker count or `auto`)");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            rest.push(a);
        }
    }
    // `--scenario` alone runs only the scenario files; naming
    // experiments next to it runs both.
    let scenarios_only = !scenario_files.is_empty() && rest.is_empty();
    let selection = match parse_selection(rest) {
        Ok(s) => s,
        Err(bad) => {
            eprintln!(
                "unknown experiment `{bad}`; known: fig2..fig7, q10, table1, optane, \
                 writeback, q_faults, fleet_scale, app_mix, all"
            );
            return ExitCode::FAILURE;
        }
    };
    if no_cache {
        cache::set_mode(cache::CacheMode::Off);
    } else {
        cache::set_dir(cache::DEFAULT_DIR);
        cache::set_mode(cache::CacheMode::ReadWrite);
        // A killed run can leave half-written `*.tmp-<pid>` files next
        // to the entries; they are dead weight (stores rename away
        // their temp file on success), so sweep them at open time.
        let swept = cache::sweep_stale_tmp(&cache::dir());
        if swept > 0 {
            eprintln!("cache: swept {swept} stale temp file(s) left by interrupted runs");
        }
    }
    cache::reset_stats();
    // A hang test without a deadline would hang forever; give
    // --inject-hang one unless one was configured explicitly.
    if inject_hang && watchdog_soft.is_none() {
        watchdog_soft = Some(Duration::from_millis(2_000));
    }
    runner::set_watchdog(watchdog_soft);

    let mut sink = match OutputSink::with_dir(OUTPUT_DIR) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create {OUTPUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = runner::jobs();
    sink.note(&format!(
        "# isol-bench figure regeneration ({fidelity:?} fidelity, {jobs} jobs), CSVs in {OUTPUT_DIR}/"
    ));
    if let Some(capacity) = isol_bench::tracing::capacity() {
        isol_bench::tracing::reset_written();
        sink.note(&format!(
            "(tracing: {capacity}-event ring per cell, files in {})",
            isol_bench::tracing::dir().display()
        ));
    }

    // ===== Scenario files =====
    if !scenario_files.is_empty() {
        let started = Instant::now();
        for path in &scenario_files {
            sink.note(&format!("\n=== scenario {path} ==="));
            match isol_bench::scenario_file::run_file(std::path::Path::new(path), &mut sink) {
                Ok(report) => sink.note(&format!(
                    "(scenario ran: {} tenant(s), {} completions)",
                    report.apps.len(),
                    report.apps.iter().map(|a| a.completed).sum::<u64>()
                )),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if scenarios_only {
            sink.note(&format!(
                "\nDone in {:.1?}; {} tables emitted.",
                started.elapsed(),
                sink.emitted().len()
            ));
            return ExitCode::SUCCESS;
        }
    }

    let wants = |name: &str| selection.iter().any(|s| s == name);
    let needs_table1 = wants("table1");
    let t0 = Instant::now();
    let mut timings = Timings::new(&format!("{fidelity:?}").to_lowercase(), jobs);
    let mut failures = Failures::new();
    let mut batch_cells: Vec<cache::CellStat> = Vec::new();

    // fig2 is standalone; the rest feed Table I.
    let result: std::io::Result<()> = (|| {
        // Runs one finishing step (or Table I's derivation) without
        // letting a panic kill the whole regeneration: cell panics are
        // already caught (and the cells dropped) inside the runner and
        // recorded after the batch; a finishing-step panic is caught
        // here. Either way the failure lands in failures.json and the
        // remaining experiments still finish.
        macro_rules! run_guarded {
            ($name:literal, $body:expr) => {{
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body))
                    .map_err(|p| {
                        let msg = runner::payload_message(p);
                        eprintln!("{} panicked: {msg}", $name);
                        failures.record(
                            $name,
                            0,
                            concat!($name, " (experiment)"),
                            &msg,
                            runner::FailureClass::Panic.as_str(),
                        );
                    })
                    .ok()
            }};
        }

        // Stage every selected experiment, concatenate the cells into
        // one batch, run the batch on one pool, then finish the
        // experiments in the canonical order so every CSV and table
        // appears exactly as each experiment's own `run` emits it.
        let mut batch: Vec<Cell> = Vec::new();
        let mut spans: Vec<Span> = Vec::new();
        let fin_fig2 =
            wants("fig2").then(|| stage_push(fig2::stage(fidelity), &mut batch, &mut spans));
        let fin_optane =
            wants("optane").then(|| stage_push(optane::stage(fidelity), &mut batch, &mut spans));
        let fin_writeback = wants("writeback")
            .then(|| stage_push(writeback::stage(fidelity), &mut batch, &mut spans));
        let fin_q_faults = wants("q_faults")
            .then(|| stage_push(q_faults::stage(fidelity), &mut batch, &mut spans));
        let fin_fleet_scale = wants("fleet_scale")
            .then(|| stage_push(fleet_scale::stage(fidelity), &mut batch, &mut spans));
        let fin_app_mix =
            wants("app_mix").then(|| stage_push(app_mix::stage(fidelity), &mut batch, &mut spans));
        let fin_fig3 = (wants("fig3") || needs_table1)
            .then(|| stage_push(fig3::stage(fidelity), &mut batch, &mut spans));
        let fin_fig4 = (wants("fig4") || needs_table1)
            .then(|| stage_push(fig4::stage(fidelity), &mut batch, &mut spans));
        let fin_fig5 = (wants("fig5") || needs_table1)
            .then(|| stage_push(fig5::stage(fidelity), &mut batch, &mut spans));
        let fin_fig6 = (wants("fig6") || needs_table1)
            .then(|| stage_push(fig6::stage(fidelity), &mut batch, &mut spans));
        let fin_fig7 = (wants("fig7") || needs_table1)
            .then(|| stage_push(fig7::stage(fidelity), &mut batch, &mut spans));
        let fin_q10 = (wants("q10") || needs_table1)
            .then(|| stage_push(q10::stage(fidelity), &mut batch, &mut spans));
        sink.note(&format!(
            "(global scheduler: {} cells from {} experiments on one pool)",
            batch.len(),
            spans.len()
        ));
        let batch_started = Instant::now();
        let mut results = isol_bench::run_cells(batch);
        let batch_elapsed = batch_started.elapsed();
        // Cell failures carry global batch indices; map them back to
        // their experiment and its local submission index.
        for f in runner::take_failures() {
            let (exp, local) = spans
                .iter()
                .find(|s| f.index >= s.start && f.index < s.end)
                .map_or(("batch", f.index), |s| (s.name, f.index - s.start));
            failures.record(exp, local, &f.label, &f.message, f.class.as_str());
        }
        batch_cells = cache::take_cell_stats();
        sink.note(&format!("(batch ran in {batch_elapsed:.1?})"));
        // An experiment's "seconds" under the global scheduler is
        // the sum of its cells' wall-clock (they overlap other
        // experiments') plus its finishing step.
        let cells_secs = |name: &str| {
            batch_cells
                .iter()
                .filter(|c| c.experiment == name)
                .map(|c| c.seconds)
                .sum::<f64>()
        };
        macro_rules! finish_exp {
            ($name:literal, $fin:expr) => {{
                let mut out = None;
                if let Some(finish) = $fin {
                    let n = spans
                        .iter()
                        .find(|s| s.name == $name)
                        .map_or(0, |s| s.end - s.start);
                    let slice: Vec<_> = results.drain(..n).collect();
                    let started = Instant::now();
                    sink.note(&format!("\n=== {} ===", $name));
                    if let Some(r) = run_guarded!($name, finish(slice, &mut sink)) {
                        out = Some(r?);
                    }
                    let elapsed = started.elapsed() + Duration::from_secs_f64(cells_secs($name));
                    timings.record($name, elapsed);
                    sink.note(&format!(
                        "({} took {:.1?} of cell+finish time)",
                        $name, elapsed
                    ));
                }
                out
            }};
        }
        finish_exp!("fig2", fin_fig2);
        finish_exp!("optane", fin_optane);
        finish_exp!("writeback", fin_writeback);
        finish_exp!("q_faults", fin_q_faults);
        finish_exp!("fleet_scale", fin_fleet_scale);
        finish_exp!("app_mix", fin_app_mix);
        let f3 = finish_exp!("fig3", fin_fig3);
        let f4 = finish_exp!("fig4", fin_fig4);
        let f5 = finish_exp!("fig5", fin_fig5);
        let f6 = finish_exp!("fig6", fin_fig6);
        let f7 = finish_exp!("fig7", fin_fig7);
        let q = finish_exp!("q10", fin_q10);
        if needs_table1 {
            if let (Some(f3), Some(f4), Some(f5), Some(f6), Some(f7), Some(q)) = (
                f3.as_ref(),
                f4.as_ref(),
                f5.as_ref(),
                f6.as_ref(),
                f7.as_ref(),
                q.as_ref(),
            ) {
                let started = Instant::now();
                sink.note("\n=== table1 ===");
                let derived =
                    run_guarded!("table1", table1::derive(f3, f4, f5, f6, f7, q, fidelity));
                if let Some(result) = derived {
                    table1::emit(&result, &mut sink)?;
                    let matches = result
                        .rows
                        .iter()
                        .filter(|r| {
                            table1::paper_verdicts(r.knob).is_some_and(|p| {
                                p == [r.overhead, r.fairness, r.tradeoffs, r.bursts]
                            })
                        })
                        .count();
                    sink.note(&format!(
                        "verdict rows matching the paper's Table I: {matches}/{}",
                        result.rows.len()
                    ));
                }
                timings.record("table1", started.elapsed());
            } else {
                sink.note("\n(table1 skipped: a prerequisite experiment failed)");
            }
        }
        Ok(())
    })();

    if let Err(e) = result {
        eprintln!("figure regeneration failed: {e}");
        return ExitCode::FAILURE;
    }
    let failures_path = format!("{OUTPUT_DIR}/failures.json");
    if let Err(e) = failures.write_json(&failures_path) {
        eprintln!("cannot write {failures_path}: {e}");
        return ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        sink.note(&format!(
            "WARNING: {} cell(s) failed and were dropped; see {failures_path}:",
            failures.len()
        ));
        for f in failures.entries() {
            sink.note(&format!(
                "  - {} cell #{} ({}) [{}]: {}",
                f.experiment, f.index, f.label, f.class, f.message
            ));
        }
    }
    let stats = cache::stats();
    timings.set_cache_summary(
        stats.hits,
        stats.misses,
        stats.stored,
        stats.bypassed,
        stats.corrupt,
    );
    batch_cells.extend(cache::take_cell_stats());
    timings.set_cells(
        batch_cells
            .into_iter()
            .map(|c| CellTiming {
                experiment: c.experiment,
                label: c.label,
                seconds: c.seconds,
                outcome: c.outcome.as_str().to_owned(),
            })
            .collect(),
    );
    if cache::mode() != cache::CacheMode::Off {
        sink.note(&format!(
            "(cell cache: {} hits, {} misses, {} stored, {} bypassed, {} corrupt — {})",
            stats.hits,
            stats.misses,
            stats.stored,
            stats.bypassed,
            stats.corrupt,
            cache::dir().display()
        ));
    }
    if isol_bench::tracing::enabled() {
        sink.note(&format!(
            "(traces: {} cell(s) written to {})",
            isol_bench::tracing::written(),
            isol_bench::tracing::dir().display()
        ));
    }
    let timings_path = format!("{OUTPUT_DIR}/timings.json");
    if let Err(e) = timings.write_json(&timings_path, t0.elapsed()) {
        eprintln!("cannot write {timings_path}: {e}");
        return ExitCode::FAILURE;
    }
    sink.note(&format!(
        "\nDone in {:.1?}; {} tables emitted; timings in {timings_path}.",
        t0.elapsed(),
        sink.emitted().len()
    ));
    ExitCode::SUCCESS
}
