//! Fig. 5 — bandwidth fairness scalability with uniform and weighted
//! cgroups (D2, Q3–Q4, O3–O4).
//!
//! `n` cgroups of four batch apps each (enough to saturate the SSD)
//! share one flash device. Fairness is the (weighted) Jain index over
//! per-cgroup bandwidth; the aggregated bandwidth shows the utilization
//! price each knob pays. Weighted runs assign linearly increasing
//! weights (cgroup *i* gets weight `100 × (i + 1)`), translated into
//! each knob's vocabulary by [`Knob::configure_weights`].

use std::io;

use iostats::{jain_index, weighted_jain_index, Table};
use workload::JobSpec;

use crate::{cgroup_bandwidths, Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// Apps per cgroup (paper: four batch apps saturate the device).
const APPS_PER_CGROUP: usize = 4;
/// Cores for fairness runs (the paper's host has 20 logical cores; ten
/// keep batch apps CPU-contended at 16 cgroups, as in Fig. 5b).
const CORES: usize = 10;

/// One fairness measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// The knob.
    pub knob: Knob,
    /// Number of cgroups.
    pub cgroups: usize,
    /// `true` for linearly increasing weights, `false` for uniform.
    pub weighted: bool,
    /// Mean (weighted) Jain index over repetitions.
    pub jain: f64,
    /// Standard deviation over repetitions.
    pub jain_std: f64,
    /// Mean aggregated bandwidth, GiB/s.
    pub agg_gib_s: f64,
}

/// The full Fig. 5 dataset.
#[derive(Debug)]
pub struct Fig5Result {
    /// All measurements.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Looks up one measurement.
    #[must_use]
    pub fn row(&self, knob: Knob, cgroups: usize, weighted: bool) -> Option<&Fig5Row> {
        self.rows
            .iter()
            .find(|r| r.knob == knob && r.cgroups == cgroups && r.weighted == weighted)
    }
}

/// Builds the cell for one repetition of a (knob, n, weighted) grid
/// point. Cell rows: `[[jain, agg_gib_s]]`.
fn rep_cell(knob: Knob, n: usize, weighted: bool, rep: usize, fidelity: Fidelity) -> Cell {
    let mut s = Scenario::new(
        &format!("fig5-{}-{}-{}-r{rep}", knob.label(), n, weighted),
        CORES,
        vec![knob.device_setup(false)],
    );
    s.set_warmup(fidelity.warmup());
    s.set_seed(0xF165 + rep as u64 * 7919);
    let cgroups: Vec<_> = (0..n).map(|i| s.add_cgroup(&format!("cg-{i}"))).collect();
    let weights: Vec<u32> = (0..n)
        .map(|i| if weighted { 100 * (i as u32 + 1) } else { 100 })
        .collect();
    for (i, &cg) in cgroups.iter().enumerate() {
        for j in 0..APPS_PER_CGROUP {
            s.add_app(cg, JobSpec::batch_app(&format!("b-{i}-{j}")));
        }
    }
    knob.configure_weights(&mut s, &cgroups, &weights);
    let app_groups = s.app_groups().to_vec();
    Cell::scenario(
        "fig5",
        fidelity,
        s,
        fidelity.run_duration(),
        move |report| {
            let bws = cgroup_bandwidths(&report, &app_groups, &cgroups);
            let jain = if weighted {
                let pairs: Vec<(f64, f64)> = bws
                    .iter()
                    .zip(&weights)
                    .map(|(&b, &w)| (b, f64::from(w)))
                    .collect();
                weighted_jain_index(&pairs)
            } else {
                jain_index(&bws)
            };
            vec![vec![jain, report.aggregate_gib_s()]]
        },
    )
}

/// Folds the `reps` per-repetition samples of one cell into its row.
fn fold_reps(knob: Knob, n: usize, weighted: bool, samples: &[(f64, f64)]) -> Fig5Row {
    let len = samples.len() as f64;
    let mean = samples.iter().map(|&(j, _)| j).sum::<f64>() / len;
    let var = samples
        .iter()
        .map(|&(j, _)| (j - mean) * (j - mean))
        .sum::<f64>()
        / len;
    Fig5Row {
        knob,
        cgroups: n,
        weighted,
        jain: mean,
        jain_std: var.sqrt(),
        agg_gib_s: samples.iter().map(|&(_, a)| a).sum::<f64>() / len,
    }
}

/// Stages the Fig. 5 sweeps: one cell per repetition of every
/// (knob, n, weighted) grid point; the finish step folds contiguous
/// `reps`-sized result chunks back into rows — same order and same
/// statistics as the sequential loops.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Fig5Result> {
    let counts = fidelity.fig5_cgroup_counts();
    let reps = fidelity.fairness_reps();
    let mut keys = Vec::new();
    let mut cells = Vec::new();
    for knob in Knob::ALL {
        for &n in &counts {
            for weighted in [false, true] {
                keys.push((knob, n, weighted));
                for rep in 0..reps {
                    cells.push(rep_cell(knob, n, weighted, rep, fidelity));
                }
            }
        }
    }
    Staged::new("fig5", cells, move |results, sink| {
        let rows: Vec<Fig5Row> = keys
            .iter()
            .zip(results.chunks(reps))
            .filter_map(|(&(knob, n, weighted), chunk)| {
                // A panicked repetition leaves a None slot; fold the
                // surviving samples (a fully failed cell has no row).
                let samples: Vec<(f64, f64)> = chunk
                    .iter()
                    .filter_map(|c| c.as_ref().map(|rows| (rows[0][0], rows[0][1])))
                    .collect();
                (!samples.is_empty()).then(|| fold_reps(knob, n, weighted, &samples))
            })
            .collect();
        for weighted in [false, true] {
            let tag = if weighted { "weighted" } else { "uniform" };
            let mut t = Table::new(vec!["knob", "cgroups", "jain", "jain std", "agg GiB/s"]);
            for r in rows.iter().filter(|r| r.weighted == weighted) {
                t.row(vec![
                    r.knob.label().to_owned(),
                    r.cgroups.to_string(),
                    format!("{:.3}", r.jain),
                    format!("{:.3}", r.jain_std),
                    format!("{:.2}", r.agg_gib_s),
                ]);
            }
            sink.emit(&format!("fig5_fairness_{tag}"), &t)?;
        }
        Ok(Fig5Result { rows })
    })
}

/// Runs the Fig. 5 sweeps (uniform a/b and weighted c/d).
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig5Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig5Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig5")
    }

    #[test]
    fn uniform_small_scale_is_fair_for_everyone() {
        let r = result();
        for knob in Knob::ALL {
            let row = r.row(knob, 2, false).unwrap();
            assert!(row.jain > 0.85, "{knob} uniform 2-cgroup jain {}", row.jain);
        }
    }

    #[test]
    fn iocost_pays_utilization_for_its_model() {
        let r = result();
        let none = r.row(Knob::None, 2, false).unwrap().agg_gib_s;
        let cost = r.row(Knob::IoCost, 2, false).unwrap().agg_gib_s;
        // O3: the conservative model + min window halves throughput.
        assert!(cost < 0.75 * none, "io.cost agg {cost} vs none {none}");
        assert!(cost > 0.25 * none, "io.cost should not collapse: {cost}");
    }

    #[test]
    fn weighted_fairness_works_for_weight_knobs() {
        let r = result();
        for knob in [Knob::IoCost, Knob::IoMax, Knob::BfqWeight] {
            let row = r.row(knob, 2, true).unwrap();
            assert!(row.jain > 0.8, "{knob} weighted jain {}", row.jain);
        }
    }

    #[test]
    fn prio_classes_and_latency_targets_are_not_weights() {
        let r = result();
        let mqdl = r.row(Knob::MqDlPrio, 2, true).unwrap().jain;
        let iolat = r.row(Knob::IoLatency, 2, true).unwrap().jain;
        let iocost = r.row(Knob::IoCost, 2, true).unwrap().jain;
        // O4: io.prio.class / io.latency "weights" land far from
        // proportional shares (the gap widens with cgroup count; Smoke
        // only runs n = 2).
        assert!(
            mqdl < iocost - 0.03,
            "MQ-DL weighted jain {mqdl} vs io.cost {iocost}"
        );
        assert!(
            iolat < iocost - 0.03,
            "io.latency weighted jain {iolat} vs io.cost {iocost}"
        );
        let mqdl_uniform = r.row(Knob::MqDlPrio, 2, false).unwrap().jain;
        assert!(
            mqdl < mqdl_uniform,
            "weights should not help MQ-DL: {mqdl} vs {mqdl_uniform}"
        );
    }
}
