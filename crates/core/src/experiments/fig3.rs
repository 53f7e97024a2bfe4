//! Fig. 3 — cgroups latency and CPU overhead when scaling LC-apps on a
//! single CPU core (D1, Q1, O1).
//!
//! Per knob, `n` latency-critical apps (4 KiB random reads at QD 1) run
//! on one core against one flash SSD. Knobs are configured *active but
//! not restraining* (§V). Reported: merged latency CDFs for 1/16/256
//! apps, P99 per app count, single-core CPU utilization, and the 16-app
//! system profile (context switches and kilocycles per I/O).

use std::io;

use iostats::{CdfPoint, LatencyHistogram, Table};
use workload::JobSpec;

use crate::{Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// One (knob, app-count) measurement.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The knob.
    pub knob: Knob,
    /// Number of co-located LC-apps.
    pub apps: usize,
    /// Merged P50, microseconds.
    pub p50_us: f64,
    /// Merged P99, microseconds (the paper's annotation).
    pub p99_us: f64,
    /// Single-core CPU utilization, `[0, 1]`.
    pub cpu_util: f64,
    /// Context switches per I/O.
    pub ctx_per_io: f64,
    /// Kilocycles per I/O at 2.4 GHz.
    pub kcycles_per_io: f64,
}

/// The full Fig. 3 dataset.
#[derive(Debug)]
pub struct Fig3Result {
    /// One row per (knob, app count).
    pub rows: Vec<Fig3Row>,
    /// Merged latency CDFs for the highlighted app counts (1, 16, 256).
    pub cdfs: Vec<(Knob, usize, Vec<CdfPoint>)>,
}

impl Fig3Result {
    /// The row for `(knob, apps)`, if measured.
    #[must_use]
    pub fn row(&self, knob: Knob, apps: usize) -> Option<&Fig3Row> {
        self.rows.iter().find(|r| r.knob == knob && r.apps == apps)
    }
}

/// Stages the Fig. 3 sweep: one cell per (knob, apps) scenario. Cell
/// rows: row 0 is `[p50, p99, cpu_util, ctx/io, kcycles/io]`; for
/// highlighted app counts the remaining rows are the merged CDF as
/// `[latency_us, cum_prob]` pairs.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Fig3Result> {
    let counts = fidelity.fig3_app_counts();
    let highlight = [1usize, 16, 256];
    // Independent (knob, apps) cells; the scheduler fans them across
    // the worker pool and hands results back in cell order.
    let mut keys = Vec::new();
    for knob in Knob::ALL {
        for &n in &counts {
            keys.push((knob, n));
        }
    }
    let cells = keys
        .iter()
        .map(|&(knob, n)| {
            let mut s = Scenario::new(
                &format!("fig3-{}-{}", knob.label(), n),
                1,
                vec![knob.device_setup(true)],
            );
            s.set_warmup(fidelity.warmup());
            let groups: Vec<_> = (0..n).map(|i| s.add_cgroup(&format!("lc-{i}"))).collect();
            for (i, &g) in groups.iter().enumerate() {
                s.add_app(g, JobSpec::lc_app(&format!("lc-{i}")));
            }
            knob.configure_overhead_mode(&mut s, &groups);
            Cell::scenario(
                "fig3",
                fidelity,
                s,
                fidelity.run_duration(),
                move |report| {
                    let mut merged = LatencyHistogram::new();
                    for a in &report.apps {
                        merged.merge(&a.hist);
                    }
                    let sum = merged.summary();
                    let completed: u64 = report.apps.iter().map(|a| a.completed).sum();
                    let busy_ns: u64 = report.cores.iter().map(|c| c.busy.as_nanos()).sum();
                    let kcycles = if completed == 0 {
                        0.0
                    } else {
                        busy_ns as f64 * 2.4 / completed as f64 / 1_000.0
                    };
                    let ctx = if report.apps.is_empty() {
                        0.0
                    } else {
                        report.apps.iter().map(|a| a.ctx_per_io).sum::<f64>()
                            / report.apps.len() as f64
                    };
                    let mut rows = vec![vec![
                        sum.p50_us,
                        sum.p99_us,
                        report.cores[0].utilization,
                        ctx,
                        kcycles,
                    ]];
                    if highlight.contains(&n) {
                        rows.extend(
                            merged
                                .cdf(40)
                                .iter()
                                .map(|p| vec![p.latency_us, p.cum_prob]),
                        );
                    }
                    rows
                },
            )
        })
        .collect();
    Staged::new("fig3", cells, move |results, sink| {
        let mut rows = Vec::new();
        let mut cdfs = Vec::new();
        for (&(knob, n), cell) in keys.iter().zip(results) {
            let Some(cell) = cell else { continue };
            rows.push(Fig3Row {
                knob,
                apps: n,
                p50_us: cell[0][0],
                p99_us: cell[0][1],
                cpu_util: cell[0][2],
                ctx_per_io: cell[0][3],
                kcycles_per_io: cell[0][4],
            });
            if highlight.contains(&n) {
                let cdf: Vec<CdfPoint> = cell[1..]
                    .iter()
                    .map(|p| CdfPoint {
                        latency_us: p[0],
                        cum_prob: p[1],
                    })
                    .collect();
                cdfs.push((knob, n, cdf));
            }
        }

        let mut p99 = Table::new(vec!["knob", "apps", "P50 (us)", "P99 (us)", "CPU util"]);
        for r in &rows {
            p99.row(vec![
                r.knob.label().to_owned(),
                r.apps.to_string(),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.3}", r.cpu_util),
            ]);
        }
        sink.emit("fig3_p99_cpu", &p99)?;

        let mut prof = Table::new(vec!["knob", "ctx/io @16", "kcycles/io @16"]);
        for knob in Knob::ALL {
            if let Some(r) = rows.iter().find(|r| r.knob == knob && r.apps == 16) {
                prof.row(vec![
                    knob.label().to_owned(),
                    format!("{:.3}", r.ctx_per_io),
                    format!("{:.1}", r.kcycles_per_io),
                ]);
            }
        }
        sink.emit("fig3_profile_16apps", &prof)?;

        for (knob, n, cdf) in &cdfs {
            let mut t = Table::new(vec!["latency_us", "cum_prob"]);
            for p in cdf {
                t.row(vec![
                    format!("{:.2}", p.latency_us),
                    format!("{:.4}", p.cum_prob),
                ]);
            }
            sink.emit(
                &format!("fig3_cdf_{}_{}apps", knob.label().replace('.', "_"), n),
                &t,
            )?;
        }
        Ok(Fig3Result { rows, cdfs })
    })
}

/// Runs the Fig. 3 sweep.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig3Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig3Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig3")
    }

    #[test]
    fn schedulers_add_latency_at_one_app() {
        let r = result();
        let none = r.row(Knob::None, 1).unwrap().p99_us;
        let mqdl = r.row(Knob::MqDlPrio, 1).unwrap().p99_us;
        let bfq = r.row(Knob::BfqWeight, 1).unwrap().p99_us;
        assert!(mqdl > 1.02 * none, "MQ-DL P99 {mqdl} vs none {none}");
        assert!(bfq > mqdl, "BFQ {bfq} should exceed MQ-DL {mqdl}");
        // io.max and io.latency add almost nothing (O1).
        let iomax = r.row(Knob::IoMax, 1).unwrap().p99_us;
        assert!(iomax < 1.05 * none, "io.max {iomax} vs none {none}");
    }

    #[test]
    fn iocost_overhead_appears_past_cpu_saturation() {
        let r = result();
        let none1 = r.row(Knob::None, 1).unwrap().p99_us;
        let cost1 = r.row(Knob::IoCost, 1).unwrap().p99_us;
        let none16 = r.row(Knob::None, 16).unwrap().p99_us;
        let cost16 = r.row(Knob::IoCost, 16).unwrap().p99_us;
        // Mild at 1 app, pronounced at 16 (O1: 48 % in the paper).
        assert!(cost1 < 1.12 * none1, "1 app: {cost1} vs {none1}");
        assert!(cost16 > 1.15 * none16, "16 apps: {cost16} vs {none16}");
    }

    #[test]
    fn bfq_burns_the_most_cpu() {
        let r = result();
        let none = r.row(Knob::None, 16).unwrap();
        let bfq = r.row(Knob::BfqWeight, 16).unwrap();
        let mqdl = r.row(Knob::MqDlPrio, 16).unwrap();
        assert!(bfq.kcycles_per_io > mqdl.kcycles_per_io);
        assert!(mqdl.kcycles_per_io > none.kcycles_per_io);
        assert!(bfq.ctx_per_io > 1.0 && none.ctx_per_io <= 1.0 + 1e-9);
    }

    #[test]
    fn cdfs_cover_highlighted_counts() {
        let r = result();
        // Smoke runs 1 and 16 apps for all six knobs.
        assert_eq!(r.cdfs.len(), 12);
        for (_, _, cdf) in &r.cdfs {
            assert!(!cdf.is_empty());
            assert!(cdf
                .windows(2)
                .all(|w| w[0].latency_us <= w[1].latency_us + 1e-9));
        }
    }

    #[test]
    fn cpu_utilization_monotone_in_apps() {
        let r = result();
        for knob in Knob::ALL {
            let u1 = r.row(knob, 1).unwrap().cpu_util;
            let u16 = r.row(knob, 16).unwrap().cpu_util;
            assert!(u16 > u1, "{knob}: util {u1} -> {u16}");
        }
    }
}
