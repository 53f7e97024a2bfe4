//! Q10 — response time for high-priority bursts (D4, O10).
//!
//! Four best-effort apps saturate the SSD; a prioritized app (batch or
//! LC) *bursts in* after a quarter of the run. Each knob is configured
//! to favor the priority app; the measurement is how long the priority
//! app takes to reach 70 % of its eventual steady-state bandwidth.
//!
//! The paper's O10: io.cost, io.max, and the schedulers react in
//! milliseconds; io.latency needs its 500 ms evaluation windows and QD
//! halvings, so it takes seconds (up to `10 × 500 ms` from QD 1024).

use std::io;

use cgroup_sim::IoCostQos;
use iostats::Table;
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

use crate::{Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// Cores.
const CORES: usize = 10;
/// Best-effort apps.
const BE_APPS: usize = 4;
/// Bandwidth-threshold fraction of steady state that counts as
/// "responded".
const RESPONSE_FRACTION: f64 = 0.7;

/// Which priority app bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstApp {
    /// Bandwidth-oriented batch app (QD 64).
    Batch,
    /// Latency-critical app (QD 1).
    Lc,
}

impl BurstApp {
    /// Both kinds.
    pub const ALL: [BurstApp; 2] = [BurstApp::Batch, BurstApp::Lc];

    /// Short label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BurstApp::Batch => "batch",
            BurstApp::Lc => "lc",
        }
    }
}

/// One burst measurement.
#[derive(Debug, Clone, Copy)]
pub struct Q10Row {
    /// The knob.
    pub knob: Knob,
    /// Which app bursts.
    pub app: BurstApp,
    /// Time to reach the response threshold, milliseconds;
    /// `f64::INFINITY` if never reached within the run.
    pub response_ms: f64,
    /// The priority app's steady-state bandwidth, MiB/s.
    pub steady_mib_s: f64,
}

/// The full Q10 dataset.
#[derive(Debug)]
pub struct Q10Result {
    /// All measurements.
    pub rows: Vec<Q10Row>,
}

impl Q10Result {
    /// Looks up one measurement.
    #[must_use]
    pub fn row(&self, knob: Knob, app: BurstApp) -> Option<&Q10Row> {
        self.rows.iter().find(|r| r.knob == knob && r.app == app)
    }
}

/// io.cost QoS for the burst study: a P99 read target of 500 µs, vrate
/// between 50 % and 100 %.
const BURST_QOS: IoCostQos = IoCostQos {
    enable: true,
    ctrl: cgroup_sim::CostCtrl::User,
    rpct: 99.0,
    rlat_us: 500,
    wpct: 0.0,
    wlat_us: 0,
    min_pct: 50.0,
    max_pct: 100.0,
};

/// Builds the cell for one (knob, burst-app) measurement. Cell rows:
/// `[[response_ms, steady_mib_s]]` (`response_ms` may be `INFINITY`,
/// which the row encoding preserves exactly).
fn burst_cell(knob: Knob, app: BurstApp, fidelity: Fidelity) -> Cell {
    let until = fidelity.q10_duration();
    let burst_at = SimTime::from_nanos(until.as_nanos() / 4);
    let mut s = Scenario::new(
        &format!("q10-{}-{}", knob.label(), app.label()),
        CORES,
        vec![knob.device_setup(false)],
    );
    s.set_bw_window(SimDuration::from_millis(10));
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    let prio_job = match app {
        BurstApp::Batch => JobSpec::builder("prio")
            .iodepth(64)
            .block_size(4096)
            .start_at(burst_at)
            .build(),
        BurstApp::Lc => JobSpec::builder("prio")
            .iodepth(1)
            .block_size(4096)
            .start_at(burst_at)
            .build(),
    };
    s.add_app(prio, prio_job);
    for j in 0..BE_APPS {
        s.add_app(be, JobSpec::batch_app(&format!("be-{j}")));
    }
    crate::knob::configure_priority(knob, &mut s, prio, be, BURST_QOS);
    Cell::scenario("q10", fidelity, s, until, move |report| {
        let series = &report.apps[0].series;
        // Steady state: the last 40 % of the run.
        let steady_from = SimTime::from_nanos((until.as_nanos() as f64 * 0.6) as u64);
        let steady = series.mean_mib_s(steady_from, until);
        let response_ms = series
            .first_window_reaching(RESPONSE_FRACTION * steady, burst_at)
            .map_or(f64::INFINITY, |t| {
                t.saturating_since(burst_at).as_millis_f64()
            });
        vec![vec![response_ms, steady]]
    })
}

/// Stages the burst study: one cell per (knob, burst-app) scenario.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Q10Result> {
    let mut keys = Vec::new();
    for knob in Knob::ALL {
        for app in BurstApp::ALL {
            keys.push((knob, app));
        }
    }
    let cells = keys
        .iter()
        .map(|&(knob, app)| burst_cell(knob, app, fidelity))
        .collect();
    Staged::new("q10", cells, move |results, sink| {
        let rows: Vec<Q10Row> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(knob, app), cell)| {
                let cell = cell?;
                Some(Q10Row {
                    knob,
                    app,
                    response_ms: cell[0][0],
                    steady_mib_s: cell[0][1],
                })
            })
            .collect();
        let mut t = Table::new(vec!["knob", "burst app", "response (ms)", "steady MiB/s"]);
        for r in &rows {
            let resp = if r.response_ms.is_finite() {
                format!("{:.0}", r.response_ms)
            } else {
                "not within run".to_owned()
            };
            t.row(vec![
                r.knob.label().to_owned(),
                r.app.label().to_owned(),
                resp,
                format!("{:.0}", r.steady_mib_s),
            ]);
        }
        sink.emit("q10_burst_response", &t)?;
        Ok(Q10Result { rows })
    })
}

/// Runs the burst study.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Q10Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Q10Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("q10")
    }

    #[test]
    fn iocost_and_iomax_respond_fast() {
        let r = result();
        for knob in [Knob::IoCost, Knob::IoMax] {
            let row = r.row(knob, BurstApp::Batch).unwrap();
            assert!(
                row.response_ms < 150.0,
                "{knob} batch burst response {} ms",
                row.response_ms
            );
        }
    }

    #[test]
    fn iolatency_takes_windows_to_converge() {
        let r = result();
        let iolat = r.row(Knob::IoLatency, BurstApp::Batch).unwrap();
        let iocost = r.row(Knob::IoCost, BurstApp::Batch).unwrap();
        // O10: multiple 500 ms windows vs milliseconds.
        assert!(
            iolat.response_ms > 400.0 || iolat.response_ms.is_infinite(),
            "io.latency response {} ms",
            iolat.response_ms
        );
        assert!(iolat.response_ms > 3.0 * iocost.response_ms);
    }

    #[test]
    fn every_cell_is_measured() {
        let r = result();
        assert_eq!(r.rows.len(), Knob::ALL.len() * 2);
        for row in &r.rows {
            assert!(row.steady_mib_s >= 0.0);
        }
    }
}
