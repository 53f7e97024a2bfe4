//! The two run modes: an untraced run for the end-to-end metrics and a
//! traced run for the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use host_sim::{stats, RunReport};
use isol_bench::traceck;
use isol_bench::Knob;
use simcore::trace::TraceKind;

use crate::calib::Calibrator;
use crate::check::{self, Reference, DEFAULT_SEED};
use crate::clock::thread_cpu_ns;
use crate::layers::{replay_cell, CellConfig, Cost};
use crate::spans::Spans;
use crate::workloads::{cell_seed, CellSpec, Workload};

/// Set-up repetitions in each pass's burst: at least this many…
const MIN_SETUP_REPS: usize = 3;
/// …and until this much time has gone by, up to [`MAX_SETUP_REPS`].
const SETUP_BURST: Duration = Duration::from_millis(50);
/// Cap on a burst's repetitions for workloads with sub-ms set-up.
const MAX_SETUP_REPS: usize = 100;

/// One metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked or failed a correctness check.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Span recorder of the run.
    pub spans: Spans,
    /// Cell labels, indexed like the spans' cell ids.
    pub labels: Vec<String>,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Reference digests, checked at [`DEFAULT_SEED`].
    pub reference: Reference,
    /// Run only the first `n` cells (tests).
    pub max_cells: Option<usize>,
}

impl Options {
    fn cells(&self) -> Vec<CellSpec> {
        let mut cells = self.workload.cells();
        if let Some(n) = self.max_cells {
            cells.truncate(n);
        }
        cells
    }
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// The per-report checks every run makes: conservation, and the
/// reference digest at the default seed.
fn check_report(r: &RunReport, label: &str, opts: &Options) -> Result<(), String> {
    check::conservation(r).map_err(|e| format!("{label}: {e}"))?;
    if opts.seed == DEFAULT_SEED {
        opts.reference.check(label, &check::digest(r))?;
    }
    Ok(())
}

/// Constructs, builds and runs one cell untraced; returns the report
/// and the raw host seconds inside `HostSim::run`.
fn run_cell(c: &CellSpec, seed: u64, i: usize, spans: &mut Spans) -> (RunReport, f64) {
    let ((s, until), _) = spans.time("setup.scenario", i, || c.scenario(seed));
    let (host, _) = spans.time("setup.build_host", i, || s.build_host(until));
    spans.time("host-sim.run", i, || host.run(until))
}

/// A set-up burst: the workload's whole set-up (every cell's scenario
/// construction and host build) repeated at least [`MIN_SETUP_REPS`]
/// times and for [`SETUP_BURST`], at most [`MAX_SETUP_REPS`] times.
/// Returns per repetition the raw scenario and build seconds, each
/// summed over the cells.
fn setup_burst(
    cells: &[CellSpec],
    seeds: &[u64],
    spans: &mut Spans,
    cal: &mut Calibrator,
) -> Vec<(f64, f64)> {
    let burst = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_SETUP_REPS
        || (burst.elapsed() < SETUP_BURST && reps.len() < MAX_SETUP_REPS)
    {
        let (mut scenario, mut build) = (0.0, 0.0);
        for (i, c) in cells.iter().enumerate() {
            let ((s, until), a) = spans.time("setup.scenario", i, || c.scenario(seeds[i]));
            let (host, b) = spans.time("setup.build_host", i, || s.build_host(until));
            drop(host);
            scenario += a;
            build += b;
        }
        reps.push((scenario, build));
        cal.tick();
    }
    reps
}

/// The untraced run: set-up repetitions, then whole passes over the
/// workload's cells until `seconds` of elapsed time are used. Reports
/// the end-to-end metrics as medians over set-up repetitions and passes,
/// in calibrated host seconds ([`crate::calib`]).
#[must_use]
pub fn run_untraced(opts: &Options) -> Outcome {
    let cells = opts.cells();
    let seeds: Vec<u64> = (0..cells.len()).map(|i| cell_seed(opts.seed, i)).collect();
    let mut out = Outcome {
        labels: cells.iter().map(CellSpec::label).collect(),
        ..Outcome::default()
    };
    let spans = &mut out.spans;
    let mut cal = Calibrator::new();

    // Each pass starts with a set-up burst: the workload's whole set-up
    // (every cell's scenario construction and host build) repeated; one
    // sample is the sum over the cells. Then set-up, run and checks of
    // every cell. Calibration slices bracket the pass and fall between
    // cells; neither bursts nor slices count in the pass time.
    let budget = Duration::from_secs_f64(opts.seconds);
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let first_slice = cal.count();
        cal.slice();
        let reps = setup_burst(&cells, &seeds, spans, &mut cal);
        let (mut pass_s, mut run_s, mut ios) = (0.0, 0.0, 0u64);
        for (i, c) in cells.iter().enumerate() {
            cal.tick();
            out.attempted += 1;
            let label = &out.labels[i];
            let start = thread_cpu_ns();
            let res = catch_unwind(AssertUnwindSafe(|| {
                let (report, run) = run_cell(c, seeds[i], i, spans);
                check_report(&report, label, opts).map(|()| (run, check::served_ios(&report)))
            }));
            pass_s += (thread_cpu_ns() - start) as f64 * 1e-9;
            match res {
                Ok(Ok((run, served))) => {
                    run_s += run;
                    ios += served;
                }
                Ok(Err(e)) => out.failures.push(e),
                Err(p) => {
                    spans.close_all();
                    out.failures
                        .push(format!("{label}: panicked: {}", panic_text(&*p)));
                }
            }
        }
        cal.slice();
        // The untraced run reads span durations only; drop the spans so
        // memory does not grow with the number of passes.
        spans.clear();
        let f = cal.factor_since(first_slice);
        walls.push(pass_s * f);
        rates.push(ios as f64 / (run_s * f).max(1e-12));
        setups.extend(reps.iter().map(|(a, b)| (a + b) * f));
        eprintln!(
            "# pass {}: {ios} I/Os served, {run_s:.3} s in HostSim::run, {pass_s:.3} s on CPU, \
             set-up {:.6} s, speed factor {f:.3}",
            walls.len(),
            median(&reps.iter().map(|(a, b)| a + b).collect::<Vec<_>>())
        );
        if t0.elapsed().as_secs_f64() * (1.0 + 1.0 / walls.len() as f64) > budget.as_secs_f64() {
            break;
        }
    }
    out.metrics = vec![
        Metric {
            name: "wall_s",
            value: median(&walls),
            unit: "s",
        },
        Metric {
            name: "sim_ios_per_s",
            value: median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib(),
            unit: "MiB",
        },
    ];
    out
}

/// Workload totals of the traced run.
#[derive(Debug, Default)]
struct Totals {
    served: u64,
    completed: u64,
    events: u64,
    peak_pending: u64,
    kinds: BTreeMap<TraceKind, u64>,
    stage_us: [f64; 4],
    run_s: f64,
    traced_s: f64,
    layers_s: f64,
    workload: Cost,
    stats: Cost,
    device: Cost,
    eventq: Cost,
    qos: BTreeMap<&'static str, Cost>,
    sched: BTreeMap<&'static str, Cost>,
}

/// Everything one traced cell contributes, or why it failed.
fn traced_cell(
    c: &CellSpec,
    seed: u64,
    i: usize,
    opts: &Options,
    spans: &mut Spans,
    cal: &mut Calibrator,
    tot: &mut Totals,
) -> Result<(), String> {
    let label = &c.label();
    stats::reset_peak();
    let before = stats::snapshot();
    let (report, run_s) = run_cell(c, seed, i, spans);
    let after = stats::snapshot();
    let served = check::served_ios(&report);
    check_report(&report, label, opts)?;
    let events = after.events_popped - before.events_popped;

    // The traced twin: same cell, recorder installed around the run.
    let ((s, until), _) = spans.time("setup.scenario", i, || c.scenario(seed));
    let mut config_scenario = s.clone();
    let (host, _) = spans.time("setup.build_host", i, || s.build_host(until));
    let capacity = 12 * served as usize + 4096;
    simcore::trace::install(capacity);
    let (traced, traced_s) = spans.time("host-sim.run_traced", i, || host.run(until));
    let trace = simcore::trace::take().expect("recorder installed above");
    // Calibration slices evict the caches: run them here, where no
    // set-up timing follows.
    cal.tick();
    if format!("{traced:?}") != format!("{report:?}") {
        return Err(format!(
            "{label}: traced report differs from the untraced one"
        ));
    }
    if !trace.is_lossless() || !trace.is_complete() {
        return Err(format!("{label}: trace lost events or has no run end"));
    }
    let (tc, _) = spans.time("traceck.check", i, || traceck::check(&trace));
    if let Some(v) = tc.violations.first() {
        return Err(format!("{label}: traceck: {v}"));
    }
    let (v, _) = spans.time("traceck.check_against_report", i, || {
        traceck::check_against_report(&trace, &traced)
    });
    if let Some(v) = v.first() {
        return Err(format!("{label}: traceck vs report: {v}"));
    }

    let devices = config_scenario.devices_mut().clone();
    let cfg = CellConfig {
        hierarchy: config_scenario.hierarchy(),
        devices: &devices,
        generators: c.generators(),
        issued: report.apps.iter().map(|a| a.issued).collect(),
        seed,
        bw_window: c.bw_window(),
        events,
        peak_pending: after.peak_pending,
    };
    let layers = replay_cell(&cfg, &trace.events, spans, i);

    for e in &trace.events {
        *tot.kinds.entry(e.kind).or_insert(0) += 1;
    }
    tot.served += served;
    tot.events += events;
    tot.peak_pending = tot.peak_pending.max(after.peak_pending);
    for app in &report.apps {
        let s = &app.stages;
        let w = app.completed as f64;
        tot.completed += app.completed;
        tot.stage_us[0] += s.qos_wait_us * w;
        tot.stage_us[1] += s.sched_wait_us * w;
        tot.stage_us[2] += s.device_us * w;
        tot.stage_us[3] += (s.submit_cpu_us + s.complete_cpu_us) * w;
    }
    tot.run_s += run_s;
    tot.traced_s += traced_s;
    tot.layers_s += layers.secs();
    tot.workload.add(layers.workload);
    tot.stats.add(layers.stats);
    tot.device.add(layers.device);
    tot.eventq.add(layers.eventq);
    let qos_key = match c.knob {
        Knob::IoMax => Some("io_max"),
        Knob::IoLatency => Some("io_latency"),
        Knob::IoCost => Some("io_cost"),
        _ => None,
    };
    if let Some(k) = qos_key {
        tot.qos.entry(k).or_default().add(layers.qos);
    }
    let sched_key = match c.knob {
        Knob::MqDlPrio => "mq_deadline",
        Knob::BfqWeight => "bfq",
        _ => "none",
    };
    tot.sched.entry(sched_key).or_default().add(layers.sched);
    Ok(())
}

/// The traced run: each cell once untraced and once traced, the checks
/// that need a trace, the deterministic counts, and the layer replays.
#[must_use]
pub fn run_traced(opts: &Options) -> Outcome {
    let cells = opts.cells();
    let mut out = Outcome {
        labels: cells.iter().map(CellSpec::label).collect(),
        ..Outcome::default()
    };
    let mut tot = Totals::default();
    let mut cal = Calibrator::new();
    cal.slice();
    let seeds: Vec<u64> = (0..cells.len()).map(|i| cell_seed(opts.seed, i)).collect();
    let reps = setup_burst(&cells, &seeds, &mut out.spans, &mut cal);
    let scenario_s = median(&reps.iter().map(|r| r.0).collect::<Vec<_>>());
    let build_host_s = median(&reps.iter().map(|r| r.1).collect::<Vec<_>>());
    for (i, c) in cells.iter().enumerate() {
        out.attempted += 1;
        let label = out.labels[i].clone();
        let spans = &mut out.spans;
        spans.enter("cell", i);
        let res = catch_unwind(AssertUnwindSafe(|| {
            traced_cell(
                c,
                cell_seed(opts.seed, i),
                i,
                opts,
                spans,
                &mut cal,
                &mut tot,
            )
        }));
        match res {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.failures.push(e),
            Err(p) => {
                let _ = simcore::trace::take();
                out.failures
                    .push(format!("{label}: panicked: {}", panic_text(&*p)));
            }
        }
        spans.close_all();
    }
    cal.slice();
    // Host times scale to the reference host speed; ratios of host
    // times need no scaling.
    let f = cal.factor_since(0);
    eprintln!("# speed factor {f:.3}");
    let eng = stats::snapshot();
    let served = tot.served.max(1) as f64;
    let per_io = |k: TraceKind| tot.kinds.get(&k).copied().unwrap_or(0) as f64 / served;
    let completed = tot.completed.max(1) as f64;
    let ns = |c: Option<&Cost>| c.map_or(0.0, Cost::ns_per_op) * f;
    let mut m = vec![
        ("host-sim.events_per_io", tot.events as f64 / served, "1/io"),
        ("host-sim.peak_pending", tot.peak_pending as f64, "count"),
        (
            "host-sim.tourney_active_frac",
            eng.tourney_active_hwm as f64 / eng.tourney_leaves.max(1) as f64,
            "frac",
        ),
        ("ioqos.holds_per_io", per_io(TraceKind::QosEnter), "1/io"),
        (
            "ioqos.iomax_passes_per_io",
            per_io(TraceKind::IoMaxPass),
            "1/io",
        ),
        (
            "ioqos.vtime_advances_per_io",
            per_io(TraceKind::VtimeAdvance),
            "1/io",
        ),
        (
            "iosched.enqueues_per_io",
            per_io(TraceKind::SchedEnqueue),
            "1/io",
        ),
        (
            "iosched.dispatches_per_io",
            per_io(TraceKind::SchedDispatch),
            "1/io",
        ),
        (
            "nvme-sim.starts_per_io",
            per_io(TraceKind::DeviceStart),
            "1/io",
        ),
        ("sim.qos_wait_us", tot.stage_us[0] / completed, "sim_us"),
        ("sim.sched_wait_us", tot.stage_us[1] / completed, "sim_us"),
        ("sim.device_us", tot.stage_us[2] / completed, "sim_us"),
        ("sim.cpu_us", tot.stage_us[3] / completed, "sim_us"),
        ("workload.ns_per_io", tot.workload.ns_per_op() * f, "ns"),
        ("ioqos.io_max.ns_per_io", ns(tot.qos.get("io_max")), "ns"),
        (
            "ioqos.io_latency.ns_per_io",
            ns(tot.qos.get("io_latency")),
            "ns",
        ),
        ("ioqos.io_cost.ns_per_io", ns(tot.qos.get("io_cost")), "ns"),
        ("iosched.none.ns_per_io", ns(tot.sched.get("none")), "ns"),
        (
            "iosched.mq_deadline.ns_per_io",
            ns(tot.sched.get("mq_deadline")),
            "ns",
        ),
        ("iosched.bfq.ns_per_io", ns(tot.sched.get("bfq")), "ns"),
        ("nvme-sim.ns_per_io", tot.device.ns_per_op() * f, "ns"),
        ("stats.ns_per_io", tot.stats.ns_per_op() * f, "ns"),
        ("simcore.eventq_ns_per_op", tot.eventq.ns_per_op() * f, "ns"),
        ("setup.scenario_s", scenario_s * f, "s"),
        ("setup.build_host_s", build_host_s * f, "s"),
        ("host-sim.run_ns_per_io", tot.run_s * 1e9 / served * f, "ns"),
        (
            "layers.explained_frac",
            tot.layers_s / tot.run_s.max(1e-12),
            "frac",
        ),
        (
            "trace.overhead_frac",
            tot.traced_s / tot.run_s.max(1e-12) - 1.0,
            "frac",
        ),
    ];
    out.metrics = m
        .drain(..)
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();
    out
}
