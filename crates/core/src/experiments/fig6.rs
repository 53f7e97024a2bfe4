//! Fig. 6 — bandwidth fairness with non-uniform workloads (D2, Q5, O5).
//!
//! Two cgroups of four batch apps each share one flash SSD with uniform
//! weights, but the cgroups issue *different* workloads:
//!
//! * `sizes` — 4 KiB vs 256 KiB random reads (Fig. 6a),
//! * `patterns` — random vs sequential 4 KiB reads (discussed but not
//!   plotted in the paper: all knobs stay close to 1),
//! * `readwrite` — 4 KiB random reads vs writes on a preconditioned
//!   device (Fig. 6b: GC collapses aggregate bandwidth; io.cost's
//!   write-costing looks "unfair" to the bandwidth-only metric).

use std::io;

use iostats::{jain_index, Table};
use workload::{JobSpec, RwKind};

use crate::{cgroup_bandwidths, Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// Apps per cgroup.
const APPS_PER_CGROUP: usize = 4;
/// Cores (enough that the device, not the CPU, is the contended
/// resource).
const CORES: usize = 10;

/// The mixed-workload cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixCase {
    /// 4 KiB vs 256 KiB random reads.
    Sizes,
    /// Random vs sequential 4 KiB reads.
    Patterns,
    /// Random 4 KiB reads vs random 4 KiB writes (preconditioned).
    ReadWrite,
}

impl MixCase {
    /// All cases.
    pub const ALL: [MixCase; 3] = [MixCase::Sizes, MixCase::Patterns, MixCase::ReadWrite];

    /// Short label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            MixCase::Sizes => "sizes",
            MixCase::Patterns => "patterns",
            MixCase::ReadWrite => "readwrite",
        }
    }
}

/// One fairness measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// The knob.
    pub knob: Knob,
    /// The workload mix.
    pub case: MixCase,
    /// Jain index over the two cgroups' bandwidth.
    pub jain: f64,
    /// Aggregated bandwidth, GiB/s.
    pub agg_gib_s: f64,
    /// First cgroup's bandwidth, MiB/s (the 4 KiB / random / read side).
    pub cg0_mib_s: f64,
    /// Second cgroup's bandwidth, MiB/s.
    pub cg1_mib_s: f64,
}

/// The full Fig. 6 dataset.
#[derive(Debug)]
pub struct Fig6Result {
    /// All measurements.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Looks up one measurement.
    #[must_use]
    pub fn row(&self, knob: Knob, case: MixCase) -> Option<&Fig6Row> {
        self.rows.iter().find(|r| r.knob == knob && r.case == case)
    }
}

fn job_for(case: MixCase, cgroup: usize, name: &str) -> JobSpec {
    let b = JobSpec::builder(name).iodepth(256);
    match (case, cgroup) {
        (MixCase::Sizes, 0) => b.rw(RwKind::RandRead).block_size(4096),
        (MixCase::Sizes, _) => b.rw(RwKind::RandRead).block_size(256 * 1024),
        (MixCase::Patterns, 0) => b.rw(RwKind::RandRead).block_size(4096),
        (MixCase::Patterns, _) => b.rw(RwKind::SeqRead).block_size(4096),
        (MixCase::ReadWrite, 0) => b.rw(RwKind::RandRead).block_size(4096),
        (MixCase::ReadWrite, _) => b.rw(RwKind::RandWrite).block_size(4096),
    }
    .build()
}

/// Stages the Fig. 6 cases: one cell per (knob, case) scenario. Cell
/// rows: `[[jain, agg_gib_s, cg0_mib_s, cg1_mib_s]]`.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Fig6Result> {
    let mut keys = Vec::new();
    for knob in Knob::ALL {
        for case in MixCase::ALL {
            keys.push((knob, case));
        }
    }
    let cells = keys
        .iter()
        .map(|&(knob, case)| {
            let mut device = knob.device_setup(false);
            if case == MixCase::ReadWrite {
                // §III: precondition before write experiments.
                device = device.preconditioned(1.0);
            }
            let mut s = Scenario::new(
                &format!("fig6-{}-{}", knob.label(), case.label()),
                CORES,
                vec![device],
            );
            s.set_warmup(fidelity.warmup());
            let cg0 = s.add_cgroup("cg-0");
            let cg1 = s.add_cgroup("cg-1");
            for j in 0..APPS_PER_CGROUP {
                s.add_app(cg0, job_for(case, 0, &format!("a-{j}")));
                s.add_app(cg1, job_for(case, 1, &format!("b-{j}")));
            }
            knob.configure_weights(&mut s, &[cg0, cg1], &[100, 100]);
            let app_groups = s.app_groups().to_vec();
            Cell::scenario(
                "fig6",
                fidelity,
                s,
                fidelity.run_duration(),
                move |report| {
                    let bws = cgroup_bandwidths(&report, &app_groups, &[cg0, cg1]);
                    vec![vec![
                        jain_index(&bws),
                        report.aggregate_gib_s(),
                        bws[0],
                        bws[1],
                    ]]
                },
            )
        })
        .collect();
    Staged::new("fig6", cells, move |results, sink| {
        let rows: Vec<Fig6Row> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(knob, case), cell)| {
                let cell = cell?;
                Some(Fig6Row {
                    knob,
                    case,
                    jain: cell[0][0],
                    agg_gib_s: cell[0][1],
                    cg0_mib_s: cell[0][2],
                    cg1_mib_s: cell[0][3],
                })
            })
            .collect();
        for case in MixCase::ALL {
            let mut t = Table::new(vec!["knob", "jain", "agg GiB/s", "cg0 MiB/s", "cg1 MiB/s"]);
            for r in rows.iter().filter(|r| r.case == case) {
                t.row(vec![
                    r.knob.label().to_owned(),
                    format!("{:.3}", r.jain),
                    format!("{:.2}", r.agg_gib_s),
                    format!("{:.0}", r.cg0_mib_s),
                    format!("{:.0}", r.cg1_mib_s),
                ]);
            }
            sink.emit(&format!("fig6_fairness_{}", case.label()), &t)?;
        }
        Ok(Fig6Result { rows })
    })
}

/// Runs the Fig. 6 cases.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig6Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig6Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig6")
    }

    #[test]
    fn large_requests_crowd_out_small_ones_without_control() {
        let r = result();
        let none = r.row(Knob::None, MixCase::Sizes).unwrap();
        assert!(none.jain < 0.7, "none sizes jain {}", none.jain);
        assert!(
            none.cg1_mib_s > 4.0 * none.cg0_mib_s,
            "256 KiB side should dominate: {} vs {}",
            none.cg1_mib_s,
            none.cg0_mib_s
        );
    }

    #[test]
    fn iomax_and_iocost_fix_request_size_unfairness() {
        let r = result();
        for knob in [Knob::IoMax, Knob::IoCost] {
            let row = r.row(knob, MixCase::Sizes).unwrap();
            assert!(row.jain > 0.8, "{knob} sizes jain {}", row.jain);
        }
    }

    #[test]
    fn access_patterns_stay_fair_for_everyone() {
        let r = result();
        for knob in Knob::ALL {
            let row = r.row(knob, MixCase::Patterns).unwrap();
            assert!(row.jain > 0.8, "{knob} patterns jain {}", row.jain);
        }
    }

    #[test]
    fn gc_collapses_mixed_read_write_bandwidth() {
        let r = result();
        let none_rw = r.row(Knob::None, MixCase::ReadWrite).unwrap().agg_gib_s;
        let none_sizes = r.row(Knob::None, MixCase::Sizes).unwrap().agg_gib_s;
        assert!(
            none_rw < 0.4 * none_sizes,
            "GC should collapse aggregate: rw {none_rw} vs reads {none_sizes}"
        );
    }

    #[test]
    fn iocost_prefers_reads_in_mixed_read_write() {
        let r = result();
        let cost = r.row(Knob::IoCost, MixCase::ReadWrite).unwrap();
        // O5: the model charges writes more, so the bandwidth-only
        // fairness metric dips below the others'.
        assert!(cost.cg0_mib_s > cost.cg1_mib_s, "reads should be preferred");
        assert!(cost.jain < 0.98, "io.cost rw jain {}", cost.jain);
    }
}
