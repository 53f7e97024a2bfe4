//! Fig. 4 — cgroups bandwidth and CPU scalability (D1, Q2, O2).
//!
//! Per knob, `n` batch apps (4 KiB random reads at QD 256) run on ten
//! cores against 1 or 7 flash SSDs (round-robin per request). Knobs are
//! configured as in §V (active but not restraining; BFQ without
//! `slice_idle`). Reported: aggregated bandwidth and mean CPU
//! utilization.

use std::io;

use iostats::Table;
use workload::JobSpec;

use crate::{Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// One (knob, ssds, apps) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// The knob.
    pub knob: Knob,
    /// Number of SSDs (1 or 7).
    pub ssds: usize,
    /// Number of batch apps.
    pub apps: usize,
    /// Aggregated bandwidth, GiB/s.
    pub agg_gib_s: f64,
    /// Mean utilization of the ten cores, `[0, 1]`.
    pub cpu_util: f64,
}

/// The full Fig. 4 dataset.
#[derive(Debug)]
pub struct Fig4Result {
    /// All measurements.
    pub rows: Vec<Fig4Row>,
}

impl Fig4Result {
    /// The row for `(knob, ssds, apps)`, if measured.
    #[must_use]
    pub fn row(&self, knob: Knob, ssds: usize, apps: usize) -> Option<&Fig4Row> {
        self.rows
            .iter()
            .find(|r| r.knob == knob && r.ssds == ssds && r.apps == apps)
    }

    /// Peak aggregated bandwidth for a knob on `ssds` SSDs.
    #[must_use]
    pub fn peak_gib_s(&self, knob: Knob, ssds: usize) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.knob == knob && r.ssds == ssds)
            .map(|r| r.agg_gib_s)
            .fold(0.0, f64::max)
    }
}

/// Stages the Fig. 4 sweep: one cell per (knob, ssds, apps) scenario,
/// plus a finish step that decodes the rows and emits the two tables.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Fig4Result> {
    let counts = fidelity.fig4_app_counts();
    // Every (knob, ssds, apps) cell is an independent scenario; the
    // scheduler fans them across the worker pool. Row order equals
    // cell order.
    let mut keys = Vec::new();
    for knob in Knob::ALL {
        for &ssds in &[1usize, 7] {
            for &n in &counts {
                keys.push((knob, ssds, n));
            }
        }
    }
    let cells = keys
        .iter()
        .map(|&(knob, ssds, n)| {
            let devices = (0..ssds).map(|_| knob.device_setup(true)).collect();
            let mut s = Scenario::new(
                &format!("fig4-{}-{}ssd-{}", knob.label(), ssds, n),
                10,
                devices,
            );
            s.set_warmup(fidelity.warmup());
            let groups: Vec<_> = (0..n)
                .map(|i| s.add_cgroup(&format!("batch-{i}")))
                .collect();
            for (i, &g) in groups.iter().enumerate() {
                // Apps issue round-robin to every SSD (§V, Q2).
                s.add_app(g, JobSpec::batch_app(&format!("b-{i}")));
            }
            knob.configure_overhead_mode(&mut s, &groups);
            Cell::scenario("fig4", fidelity, s, fidelity.run_duration(), |report| {
                vec![vec![
                    report.aggregate_gib_s(),
                    report.mean_cpu_utilization(),
                ]]
            })
        })
        .collect();
    Staged::new("fig4", cells, move |results, sink| {
        let rows: Vec<Fig4Row> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(knob, ssds, apps), cell)| {
                let cell = cell?;
                Some(Fig4Row {
                    knob,
                    ssds,
                    apps,
                    agg_gib_s: cell[0][0],
                    cpu_util: cell[0][1],
                })
            })
            .collect();
        for ssds in [1usize, 7] {
            let mut t = Table::new(vec!["knob", "apps", "agg GiB/s", "CPU util (10 cores)"]);
            for r in rows.iter().filter(|r| r.ssds == ssds) {
                t.row(vec![
                    r.knob.label().to_owned(),
                    r.apps.to_string(),
                    format!("{:.2}", r.agg_gib_s),
                    format!("{:.3}", r.cpu_util),
                ]);
            }
            sink.emit(&format!("fig4_bandwidth_cpu_{ssds}ssd"), &t)?;
        }
        Ok(Fig4Result { rows })
    })
}

/// Runs the Fig. 4 sweep.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig4Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig4Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig4")
    }

    #[test]
    fn schedulers_cannot_saturate_one_ssd() {
        let r = result();
        let none = r.peak_gib_s(Knob::None, 1);
        let mqdl = r.peak_gib_s(Knob::MqDlPrio, 1);
        let bfq = r.peak_gib_s(Knob::BfqWeight, 1);
        assert!((2.4..3.2).contains(&none), "none peak {none}");
        assert!(mqdl < 0.75 * none, "MQ-DL peak {mqdl} vs none {none}");
        assert!(bfq < 0.5 * none, "BFQ peak {bfq} vs none {none}");
        assert!(bfq < mqdl, "BFQ below MQ-DL");
    }

    #[test]
    fn qos_knobs_stay_close_to_none() {
        let r = result();
        let none = r.peak_gib_s(Knob::None, 1);
        for knob in [Knob::IoMax, Knob::IoLatency, Knob::IoCost] {
            let peak = r.peak_gib_s(knob, 1);
            assert!(peak > 0.85 * none, "{knob} peak {peak} vs none {none}");
        }
    }

    #[test]
    fn seven_ssds_scale_bandwidth() {
        let r = result();
        for knob in [Knob::None, Knob::MqDlPrio, Knob::BfqWeight] {
            let one = r.peak_gib_s(knob, 1);
            let seven = r.peak_gib_s(knob, 7);
            assert!(seven > 1.5 * one, "{knob}: 1 SSD {one} vs 7 SSDs {seven}");
        }
        // Schedulers still cannot reach half of none's 7-SSD peak (O2).
        let none7 = r.peak_gib_s(Knob::None, 7);
        assert!(r.peak_gib_s(Knob::BfqWeight, 7) < 0.5 * none7);
    }

    #[test]
    fn schedulers_need_a_full_core_per_batch_app() {
        let r = result();
        let apps = 8;
        let none = r.row(Knob::None, 1, apps).unwrap().cpu_util;
        let mqdl = r.row(Knob::MqDlPrio, 1, apps).unwrap().cpu_util;
        assert!(mqdl > 1.5 * none, "MQ-DL util {mqdl} vs none {none}");
    }
}
