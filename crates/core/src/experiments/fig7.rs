//! Fig. 7 — prioritization/utilization trade-off fronts (D3, Q6–Q9,
//! O6–O9).
//!
//! One priority app (a sub-saturating batch app, or an LC-app) shares a
//! flash SSD with four best-effort apps that saturate it in isolation.
//! For every knob we sweep its configuration space and record
//! `(priority-app metric, aggregated bandwidth)` pairs — the paper's
//! Pareto fronts. The BE side is varied across request sizes, access
//! patterns, and writes to expose each knob's blind spots.

use std::io;

use blkio::{GroupId, PrioClass};
use cgroup_sim::{DevNode, IoCostQos, IoLatency, IoMax, IoWeight, Knob as KnobWrite};
use iostats::Table;
use workload::{JobSpec, RwKind};

use crate::{Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// Cores for the trade-off runs.
const CORES: usize = 10;
/// Number of best-effort apps (they saturate the SSD in isolation).
const BE_APPS: usize = 4;

/// Which app is being prioritized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrioScenario {
    /// A bandwidth-hungry but sub-saturating batch app (QD 64).
    Batch,
    /// A latency-critical app (QD 1); the metric is its P99.
    Lc,
}

impl PrioScenario {
    /// Both scenarios.
    pub const ALL: [PrioScenario; 2] = [PrioScenario::Batch, PrioScenario::Lc];

    /// Short label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            PrioScenario::Batch => "batch",
            PrioScenario::Lc => "lc",
        }
    }
}

/// The best-effort side's workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BeVariant {
    /// 4 KiB random reads.
    Rand4k,
    /// 4 KiB sequential reads.
    Seq4k,
    /// 256 KiB random reads.
    Rand256k,
    /// 4 KiB random writes (preconditioned device).
    Write4k,
}

impl BeVariant {
    /// All four variants.
    pub const ALL: [BeVariant; 4] = [
        BeVariant::Rand4k,
        BeVariant::Seq4k,
        BeVariant::Rand256k,
        BeVariant::Write4k,
    ];

    /// Short label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BeVariant::Rand4k => "rand4k",
            BeVariant::Seq4k => "seq4k",
            BeVariant::Rand256k => "rand256k",
            BeVariant::Write4k => "write4k",
        }
    }

    fn job(self, name: &str) -> JobSpec {
        let b = JobSpec::builder(name).iodepth(256);
        match self {
            BeVariant::Rand4k => b.rw(RwKind::RandRead).block_size(4096),
            BeVariant::Seq4k => b.rw(RwKind::SeqRead).block_size(4096),
            BeVariant::Rand256k => b.rw(RwKind::RandRead).block_size(256 * 1024),
            BeVariant::Write4k => b.rw(RwKind::RandWrite).block_size(4096),
        }
        .build()
    }
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// The knob.
    pub knob: Knob,
    /// Batch- or LC-priority scenario.
    pub scenario: PrioScenario,
    /// The BE side's workload.
    pub variant: BeVariant,
    /// Human-readable description of this configuration.
    pub config: String,
    /// Priority-app bandwidth, MiB/s (batch scenario).
    pub prio_mib_s: f64,
    /// Priority-app P99, µs (LC scenario; also recorded for batch).
    pub prio_p99_us: f64,
    /// Aggregated bandwidth of all apps, MiB/s.
    pub agg_mib_s: f64,
}

/// The full Fig. 7 dataset.
#[derive(Debug)]
pub struct Fig7Result {
    /// All sweep points.
    pub points: Vec<Fig7Point>,
}

impl Fig7Result {
    /// All points of one `(knob, scenario, variant)` front.
    #[must_use]
    pub fn front(&self, knob: Knob, scenario: PrioScenario, variant: BeVariant) -> Vec<&Fig7Point> {
        self.points
            .iter()
            .filter(|p| p.knob == knob && p.scenario == scenario && p.variant == variant)
            .collect()
    }
}

/// Configures the (prio, BE) group pair of one sweep point. Applied at
/// staging time — the fully configured scenario is what the cell cache
/// fingerprints, so every swept setting lands in the cache key.
type ApplyFn = Box<dyn Fn(&mut Scenario, GroupId, GroupId)>;

/// One knob configuration to apply before a run.
struct SweepConfig {
    label: String,
    apply: ApplyFn,
}

fn lerp(lo: f64, hi: f64, i: usize, n: usize) -> f64 {
    if n <= 1 {
        return hi;
    }
    lo + (hi - lo) * i as f64 / (n - 1) as f64
}

fn sweep_configs(knob: Knob, scenario: PrioScenario, points: usize) -> Vec<SweepConfig> {
    let dev = DevNode::nvme(0);
    match knob {
        Knob::None => vec![SweepConfig {
            label: "none".into(),
            apply: Box::new(|_, _, _| {}),
        }],
        Knob::MqDlPrio => {
            // All class permutations between the priority and BE cgroup.
            let classes = [PrioClass::Realtime, PrioClass::BestEffort, PrioClass::Idle];
            classes
                .iter()
                .flat_map(|&p| classes.iter().map(move |&b| (p, b)))
                .map(|(p, b)| SweepConfig {
                    label: format!("prio={p} be={b}"),
                    apply: Box::new(move |s, prio, be| {
                        let h = s.hierarchy_mut();
                        h.apply(prio, KnobWrite::PrioClass(p)).expect("prio class");
                        h.apply(be, KnobWrite::PrioClass(b)).expect("be class");
                    }),
                })
                .collect()
        }
        Knob::BfqWeight => (0..points)
            .map(|i| {
                let w = lerp(1.0, 1000.0, i, points).round() as u32;
                SweepConfig {
                    label: format!("w={w}"),
                    apply: Box::new(move |s, prio, be| {
                        let h = s.hierarchy_mut();
                        let pw = IoWeight {
                            default: w.max(1),
                            ..IoWeight::default()
                        };
                        h.apply(prio, KnobWrite::BfqWeight(cgroup_sim::BfqWeight(pw)))
                            .expect("bfq weight");
                        let bw = IoWeight {
                            default: 100,
                            ..IoWeight::default()
                        };
                        h.apply(be, KnobWrite::BfqWeight(cgroup_sim::BfqWeight(bw)))
                            .expect("bfq weight");
                    }),
                }
            })
            .collect(),
        Knob::IoMax => (0..points)
            .map(|i| {
                // BE cap from 80 MiB/s to 2.3 GiB/s (§VI-B Q8).
                let cap_mib = lerp(80.0, 2355.0, i, points);
                let cap = (cap_mib * 1024.0 * 1024.0) as u64;
                SweepConfig {
                    label: format!("be_cap={cap_mib:.0}MiB/s"),
                    apply: Box::new(move |s, _, be| {
                        let m = IoMax {
                            rbps: Some(cap),
                            wbps: Some(cap),
                            ..IoMax::default()
                        };
                        s.hierarchy_mut()
                            .apply(be, KnobWrite::Max(dev, m))
                            .expect("io.max");
                    }),
                }
            })
            .collect(),
        Knob::IoLatency => (0..points)
            .map(|i| {
                // Priority target from 75 µs to 1.2 ms (§VI-B Q7).
                let target_us = lerp(75.0, 1200.0, i, points).round() as u64;
                SweepConfig {
                    label: format!("target={target_us}us"),
                    apply: Box::new(move |s, prio, _| {
                        s.hierarchy_mut()
                            .apply(prio, KnobWrite::Latency(dev, IoLatency { target_us }))
                            .expect("io.latency");
                    }),
                }
            })
            .collect(),
        Knob::IoCost => (0..points)
            .map(|i| {
                // Q9: io.weight 10000 for the priority app; sweep the QoS
                // "min" for the batch scenario, the P99 read-latency
                // target for the LC scenario (min fixed at 50).
                let (min_pct, rlat_us, rpct, label) = match scenario {
                    PrioScenario::Batch => {
                        let min = lerp(10.0, 100.0, i, points);
                        (min, 500, 99.0, format!("min={min:.0}%"))
                    }
                    PrioScenario::Lc => {
                        // Q9: "we further differ the latency target" — the
                        // LC sweep moves min and the P99 read target
                        // jointly.
                        let min = lerp(10.0, 100.0, i, points);
                        let rlat = lerp(100.0, 1000.0, i, points).round() as u64;
                        (min, rlat, 99.0, format!("min={min:.0}% rlat={rlat}us"))
                    }
                };
                SweepConfig {
                    label,
                    apply: Box::new(move |s, prio, be| {
                        let model = Knob::generated_model(&s.devices_mut()[0].profile.clone());
                        let qos = IoCostQos {
                            enable: true,
                            ctrl: cgroup_sim::CostCtrl::User,
                            rpct,
                            rlat_us,
                            wpct: 95.0,
                            wlat_us: 2_000,
                            min_pct,
                            max_pct: 100.0,
                        };
                        let h = s.hierarchy_mut();
                        h.apply(
                            cgroup_sim::Hierarchy::ROOT,
                            KnobWrite::CostModel(dev, model),
                        )
                        .expect("model");
                        h.apply(cgroup_sim::Hierarchy::ROOT, KnobWrite::CostQos(dev, qos))
                            .expect("qos");
                        let pw = IoWeight {
                            default: 10_000,
                            ..IoWeight::default()
                        };
                        h.apply(prio, KnobWrite::Weight(pw)).expect("weight");
                        let bw = IoWeight {
                            default: 100,
                            ..IoWeight::default()
                        };
                        h.apply(be, KnobWrite::Weight(bw)).expect("weight");
                    }),
                }
            })
            .collect(),
    }
}

/// Builds the cell for one sweep point: the scenario is fully
/// configured here (knob settings applied), so the cache fingerprint
/// covers every swept parameter. Cell rows:
/// `[[prio_mib_s, prio_p99_us, agg_mib_s]]`.
fn point_cell(
    knob: Knob,
    scenario: PrioScenario,
    variant: BeVariant,
    config: &SweepConfig,
    fidelity: Fidelity,
) -> Cell {
    let mut device = knob.device_setup(false);
    if variant == BeVariant::Write4k {
        device = device.preconditioned(1.0);
    }
    let mut s = Scenario::new(
        &format!(
            "fig7-{}-{}-{}-{}",
            knob.label(),
            scenario.label(),
            variant.label(),
            config.label,
        ),
        CORES,
        vec![device],
    );
    // Measure steady state only: reactive knobs (io.latency's 500 ms
    // windows) need the first half of the run to converge.
    let until = fidelity.fig7_duration();
    s.set_warmup(simcore::SimTime::from_nanos(until.as_nanos() / 2));
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    let prio_job = match scenario {
        PrioScenario::Batch => JobSpec::builder("prio")
            .iodepth(64)
            .block_size(4096)
            .build(),
        PrioScenario::Lc => JobSpec::lc_app("prio"),
    };
    s.add_app(prio, prio_job);
    for j in 0..BE_APPS {
        s.add_app(be, variant.job(&format!("be-{j}")));
    }
    (config.apply)(&mut s, prio, be);
    Cell::scenario("fig7", fidelity, s, until, |report| {
        vec![vec![
            report.apps[0].mean_mib_s,
            report.apps[0].latency.p99_us,
            report.apps.iter().map(|a| a.mean_mib_s).sum(),
        ]]
    })
}

/// Which BE variants a fidelity level sweeps.
#[must_use]
pub fn variants_for(fidelity: Fidelity) -> Vec<BeVariant> {
    match fidelity {
        Fidelity::Smoke => vec![BeVariant::Rand4k, BeVariant::Write4k],
        _ => BeVariant::ALL.to_vec(),
    }
}

/// Stages the Fig. 7 sweeps: one cell per (knob, scenario, variant,
/// config) sweep point, configured at staging time. Point order equals
/// cell order, matching the sequential loops.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<Fig7Result> {
    let points_per_knob = fidelity.fig7_sweep_points();
    let variants = variants_for(fidelity);
    let mut keys: Vec<(Knob, PrioScenario, BeVariant, String)> = Vec::new();
    let mut cells = Vec::new();
    for knob in Knob::ALL {
        for scenario in PrioScenario::ALL {
            let configs = sweep_configs(knob, scenario, points_per_knob);
            for &variant in &variants {
                for config in &configs {
                    keys.push((knob, scenario, variant, config.label.clone()));
                    cells.push(point_cell(knob, scenario, variant, config, fidelity));
                }
            }
        }
    }
    Staged::new("fig7", cells, move |results, sink| {
        let points: Vec<Fig7Point> = keys
            .iter()
            .zip(results)
            .filter_map(|((knob, scenario, variant, config), cell)| {
                let cell = cell?;
                Some(Fig7Point {
                    knob: *knob,
                    scenario: *scenario,
                    variant: *variant,
                    config: config.clone(),
                    prio_mib_s: cell[0][0],
                    prio_p99_us: cell[0][1],
                    agg_mib_s: cell[0][2],
                })
            })
            .collect();
        emit_tables(&points, sink)?;
        Ok(Fig7Result { points })
    })
}

fn emit_tables(points: &[Fig7Point], sink: &mut OutputSink) -> io::Result<()> {
    for scenario in PrioScenario::ALL {
        let metric = match scenario {
            PrioScenario::Batch => "prio MiB/s",
            PrioScenario::Lc => "prio P99 us",
        };
        let mut t = Table::new(vec!["knob", "be variant", "config", metric, "agg MiB/s"]);
        for p in points.iter().filter(|p| p.scenario == scenario) {
            let m = match scenario {
                PrioScenario::Batch => format!("{:.0}", p.prio_mib_s),
                PrioScenario::Lc => format!("{:.1}", p.prio_p99_us),
            };
            t.row(vec![
                p.knob.label().to_owned(),
                p.variant.label().to_owned(),
                p.config.clone(),
                m,
                format!("{:.0}", p.agg_mib_s),
            ]);
        }
        sink.emit(&format!("fig7_tradeoffs_{}", scenario.label()), &t)?;
    }
    Ok(())
}

/// Runs the Fig. 7 sweeps.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig7Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig7Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig7")
    }

    #[test]
    fn sweep_shapes_are_complete() {
        let r = result();
        // none 1, MQ-DL 9, BFQ/io.max/io.latency/io.cost 3 each → 22
        // configs × 2 scenarios × 2 variants.
        assert_eq!(r.points.len(), 22 * 2 * 2);
        assert_eq!(
            r.front(Knob::MqDlPrio, PrioScenario::Batch, BeVariant::Rand4k)
                .len(),
            9
        );
    }

    #[test]
    fn iomax_trades_be_bandwidth_for_priority_bandwidth() {
        let r = result();
        let front = r.front(Knob::IoMax, PrioScenario::Batch, BeVariant::Rand4k);
        let tightest = front.first().expect("swept");
        let loosest = front.last().expect("swept");
        // Tight BE caps give the priority app more bandwidth but lower
        // aggregate utilization (O8).
        assert!(
            tightest.prio_mib_s > 1.2 * loosest.prio_mib_s,
            "tight {} vs loose {}",
            tightest.prio_mib_s,
            loosest.prio_mib_s
        );
        assert!(
            tightest.agg_mib_s < loosest.agg_mib_s,
            "tight agg {} vs loose agg {}",
            tightest.agg_mib_s,
            loosest.agg_mib_s
        );
    }

    #[test]
    fn iocost_protects_lc_latency() {
        let r = result();
        let front = r.front(Knob::IoCost, PrioScenario::Lc, BeVariant::Rand4k);
        let strict = front.first().expect("swept");
        let none_front = r.front(Knob::None, PrioScenario::Lc, BeVariant::Rand4k);
        let baseline = none_front.first().expect("baseline");
        assert!(
            strict.prio_p99_us < 0.8 * baseline.prio_p99_us,
            "io.cost strict P99 {} vs none {}",
            strict.prio_p99_us,
            baseline.prio_p99_us
        );
    }

    #[test]
    fn bfq_cannot_prioritize_single_app_bandwidth() {
        let r = result();
        let front = r.front(Knob::BfqWeight, PrioScenario::Batch, BeVariant::Rand4k);
        let lo = front
            .iter()
            .map(|p| p.prio_mib_s)
            .fold(f64::INFINITY, f64::min);
        let hi = front.iter().map(|p| p.prio_mib_s).fold(0.0, f64::max);
        // O6: the spread BFQ weights achieve for one app's bandwidth is
        // small compared to what io.max achieves.
        let iomax = r.front(Knob::IoMax, PrioScenario::Batch, BeVariant::Rand4k);
        let io_lo = iomax
            .iter()
            .map(|p| p.prio_mib_s)
            .fold(f64::INFINITY, f64::min);
        let io_hi = iomax.iter().map(|p| p.prio_mib_s).fold(0.0, f64::max);
        assert!(
            (hi - lo) < 0.7 * (io_hi - io_lo),
            "BFQ spread {}..{} vs io.max {}..{}",
            lo,
            hi,
            io_lo,
            io_hi
        );
    }

    #[test]
    fn iolatency_fails_for_write_heavy_be() {
        let r = result();
        // With 4 KiB BE reads, a strict target protects the LC app...
        let strict_read = r.front(Knob::IoLatency, PrioScenario::Lc, BeVariant::Rand4k)[0];
        // ...with preconditioned BE writes the same target cannot
        // (GC-delayed effects, QD floor of 1 — O7).
        let strict_write = r.front(Knob::IoLatency, PrioScenario::Lc, BeVariant::Write4k)[0];
        assert!(
            strict_write.prio_p99_us > strict_read.prio_p99_us,
            "write BE should defeat io.latency: {} vs {}",
            strict_write.prio_p99_us,
            strict_read.prio_p99_us
        );
    }
}
