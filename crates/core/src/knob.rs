//! The six I/O-control configurations under test and their wiring.

use blkio::GroupId;
use cgroup_sim::{
    BfqWeight, CostCtrl, DevNode, Hierarchy, IoCostModel, IoCostQos, IoLatency, IoMax, IoWeight,
    Knob as KnobWrite,
};
use host_sim::DeviceSetup;
use iosched_sim::{BfqConfig, SchedKind};
use nvme_sim::DeviceProfile;
use simcore::SimDuration;

use crate::Scenario;

/// `iocost_coef_gen.py` measures conservatively (its probes back off
/// before the true saturation point); the paper's generated model had a
/// 2.3 GiB/s read saturation on a device that measures 2.94 GiB/s. We
/// apply the same conservatism to auto-generated models.
const COEF_GEN_CONSERVATISM: f64 = 0.78;

/// One of the cgroup I/O-control configurations the paper evaluates
/// (Table I rows), plus the `none` baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// No knob, no scheduler: the baseline.
    None,
    /// `io.prio.class` + the MQ-Deadline scheduler.
    MqDlPrio,
    /// `io.bfq.weight` + the BFQ scheduler.
    BfqWeight,
    /// `io.max` static limits.
    IoMax,
    /// `io.latency` targets.
    IoLatency,
    /// `io.cost` + `io.weight`.
    IoCost,
}

impl Knob {
    /// All six, in the paper's Table I order (baseline first).
    pub const ALL: [Knob; 6] = [
        Knob::None,
        Knob::MqDlPrio,
        Knob::BfqWeight,
        Knob::IoMax,
        Knob::IoLatency,
        Knob::IoCost,
    ];

    /// Display label, matching the paper's figures.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Knob::None => "none",
            Knob::MqDlPrio => "MQ-DL",
            Knob::BfqWeight => "BFQ",
            Knob::IoMax => "io.max",
            Knob::IoLatency => "io.latency",
            Knob::IoCost => "io.cost",
        }
    }

    /// The I/O scheduler this knob requires.
    #[must_use]
    pub const fn scheduler(self) -> SchedKind {
        match self {
            Knob::MqDlPrio => SchedKind::MqDeadline,
            Knob::BfqWeight => SchedKind::Bfq,
            _ => SchedKind::None,
        }
    }

    /// A flash device wired for this knob. With `overhead_mode` the
    /// paper's §V settings apply (BFQ `slice_idle` disabled).
    #[must_use]
    pub fn device_setup(self, overhead_mode: bool) -> DeviceSetup {
        let mut d = DeviceSetup::flash().with_scheduler(self.scheduler());
        if self == Knob::BfqWeight && overhead_mode {
            d = d.with_bfq(BfqConfig {
                slice_idle: SimDuration::ZERO,
                ..BfqConfig::default()
            });
        }
        d
    }

    /// Same, on the Optane profile (the paper's generalizability device).
    #[must_use]
    pub fn device_setup_optane(self) -> DeviceSetup {
        DeviceSetup::optane().with_scheduler(self.scheduler())
    }

    /// The iocost linear model `iocost_coef_gen.py` would generate for
    /// `profile` (conservative, like the paper's 2.3 GiB/s model).
    #[must_use]
    pub fn generated_model(profile: &DeviceProfile) -> IoCostModel {
        let c = profile.iocost_coefficients();
        let scale = |v: u64| ((v as f64) * COEF_GEN_CONSERVATISM) as u64;
        IoCostModel {
            ctrl: CostCtrl::User,
            rbps: scale(c.rbps),
            rseqiops: scale(c.rseqiops),
            rrandiops: scale(c.rrandiops),
            wbps: scale(c.wbps),
            wseqiops: scale(c.wseqiops),
            wrandiops: scale(c.wrandiops),
        }
    }

    fn write_iocost(hierarchy: &mut Hierarchy, dev: DevNode, model: IoCostModel, qos: IoCostQos) {
        hierarchy
            .apply(Hierarchy::ROOT, KnobWrite::CostModel(dev, model))
            .expect("root model write");
        hierarchy
            .apply(Hierarchy::ROOT, KnobWrite::CostQos(dev, qos))
            .expect("root qos write");
    }

    /// Configures the knob to be *active but not restraining* — the §V
    /// overhead methodology: `io.max` beyond saturation, multi-second
    /// `io.latency` targets, an `io.cost` model with its saturation point
    /// beyond the SSD's.
    pub fn configure_overhead_mode(self, s: &mut Scenario, cgroups: &[GroupId]) {
        let profiles: Vec<DeviceProfile> =
            s.devices_mut().iter().map(|d| d.profile.clone()).collect();
        let h = s.hierarchy_mut();
        for (d, profile) in profiles.iter().enumerate() {
            let dev = DevNode::nvme(d as u32);
            match self {
                Knob::None | Knob::MqDlPrio | Knob::BfqWeight => {}
                Knob::IoMax => {
                    for &g in cgroups {
                        let huge = IoMax {
                            rbps: Some(20 << 30),
                            ..IoMax::default()
                        };
                        h.apply(g, KnobWrite::Max(dev, huge)).expect("io.max write");
                    }
                }
                Knob::IoLatency => {
                    for &g in cgroups {
                        let lax = IoLatency {
                            target_us: 4_000_000,
                        };
                        h.apply(g, KnobWrite::Latency(dev, lax))
                            .expect("io.latency write");
                    }
                }
                Knob::IoCost => {
                    let c = profile.iocost_coefficients();
                    let model = IoCostModel {
                        ctrl: CostCtrl::User,
                        rbps: c.rbps * 4,
                        rseqiops: c.rseqiops * 4,
                        rrandiops: c.rrandiops * 4,
                        wbps: c.wbps * 4,
                        wseqiops: c.wseqiops * 4,
                        wrandiops: c.wrandiops * 4,
                    };
                    let qos = IoCostQos {
                        enable: true,
                        ctrl: CostCtrl::User,
                        rpct: 0.0,
                        rlat_us: 0,
                        wpct: 0.0,
                        wlat_us: 0,
                        min_pct: 100.0,
                        max_pct: 100.0,
                    };
                    Self::write_iocost(h, dev, model, qos);
                }
            }
        }
    }

    /// The paper's fairness-experiment `io.cost.qos`: generated model,
    /// P95 read target 100 µs, P95 write target 500 µs, vrate window
    /// 50–100 % (§VI-A, Fig. 5a discussion).
    #[must_use]
    pub fn fairness_qos() -> IoCostQos {
        IoCostQos {
            enable: true,
            ctrl: CostCtrl::User,
            rpct: 95.0,
            rlat_us: 100,
            wpct: 95.0,
            wlat_us: 500,
            min_pct: 50.0,
            max_pct: 100.0,
        }
    }

    /// Configures the knob to express the given abstract weights, one per
    /// cgroup, using each knob's own vocabulary (§VI-A, Q4):
    ///
    /// * `io.weight` / `io.bfq.weight` — weights directly (scaled to the
    ///   knob's range),
    /// * `io.prio.class` — weight terciles mapped to rt / be / idle,
    /// * `io.max` — the paper's naive translation
    ///   `max_i = w_i / Σw × max_read_bandwidth`,
    /// * `io.latency` — inverse-weight latency targets.
    ///
    /// Uniform weights degenerate to each knob's "active but neutral"
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cgroups.len()` or any weight is zero.
    pub fn configure_weights(self, s: &mut Scenario, cgroups: &[GroupId], weights: &[u32]) {
        assert_eq!(cgroups.len(), weights.len(), "one weight per cgroup");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let profiles: Vec<DeviceProfile> =
            s.devices_mut().iter().map(|d| d.profile.clone()).collect();
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let max_w = *weights.iter().max().expect("nonempty");
        let h = s.hierarchy_mut();
        for (d, profile) in profiles.iter().enumerate() {
            let dev = DevNode::nvme(d as u32);
            match self {
                Knob::None => {}
                Knob::MqDlPrio => {
                    // Terciles by weight rank → rt / be / idle.
                    let mut order: Vec<usize> = (0..weights.len()).collect();
                    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
                    let n = order.len();
                    for (rank, &i) in order.iter().enumerate() {
                        let class = if weights.iter().all(|&w| w == weights[0]) {
                            blkio::PrioClass::BestEffort
                        } else if rank * 3 >= 2 * n || rank == n - 1 {
                            blkio::PrioClass::Idle
                        } else if rank * 3 < n {
                            blkio::PrioClass::Realtime
                        } else {
                            blkio::PrioClass::BestEffort
                        };
                        h.apply(cgroups[i], KnobWrite::PrioClass(class))
                            .expect("prio write");
                    }
                }
                Knob::BfqWeight => {
                    for (&g, &w) in cgroups.iter().zip(weights) {
                        let scaled =
                            ((u64::from(w) * 1000 / u64::from(max_w)) as u32).clamp(1, 1000);
                        let bw = IoWeight {
                            default: scaled,
                            ..IoWeight::default()
                        };
                        h.apply(g, KnobWrite::BfqWeight(BfqWeight(bw)))
                            .expect("bfq write");
                    }
                }
                Knob::IoMax => {
                    let max_read_bw = profile.rand_read_bps;
                    for (&g, &w) in cgroups.iter().zip(weights) {
                        let share = u64::from(w) as f64 / total as f64;
                        let rbps = (max_read_bw * share) as u64;
                        let m = IoMax {
                            rbps: Some(rbps.max(1)),
                            wbps: Some(rbps.max(1)),
                            ..IoMax::default()
                        };
                        h.apply(g, KnobWrite::Max(dev, m)).expect("io.max write");
                    }
                }
                Knob::IoLatency => {
                    for (&g, &w) in cgroups.iter().zip(weights) {
                        let target_us =
                            (150 * u64::from(max_w) / u64::from(w)).clamp(50, 4_000_000);
                        h.apply(g, KnobWrite::Latency(dev, IoLatency { target_us }))
                            .expect("io.latency write");
                    }
                }
                Knob::IoCost => {
                    Self::write_iocost(
                        h,
                        dev,
                        Self::generated_model(profile),
                        Self::fairness_qos(),
                    );
                    for (&g, &w) in cgroups.iter().zip(weights) {
                        let iw = IoWeight {
                            default: w.clamp(1, 10_000),
                            ..IoWeight::default()
                        };
                        h.apply(g, KnobWrite::Weight(iw)).expect("io.weight write");
                    }
                }
            }
        }
    }
}

/// Configures `knob` to favor cgroup `prio` over `be` on the scenario's
/// first device, in each knob's own vocabulary: `rt` over `idle`
/// classes, BFQ weights 1000:100, an `io.max` cap on `be`, an
/// `io.latency` target on `prio`, or `io.cost` weights 10000:100 under
/// `qos`. The Q10 burst study and the app_mix probe share this wiring.
pub(crate) fn configure_priority(
    knob: Knob,
    s: &mut Scenario,
    prio: GroupId,
    be: GroupId,
    qos: IoCostQos,
) {
    let dev = DevNode::nvme(0);
    match knob {
        Knob::None => {}
        Knob::MqDlPrio => {
            let h = s.hierarchy_mut();
            h.apply(prio, KnobWrite::PrioClass(blkio::PrioClass::Realtime))
                .expect("prio write");
            h.apply(be, KnobWrite::PrioClass(blkio::PrioClass::Idle))
                .expect("prio write");
        }
        Knob::BfqWeight => {
            let h = s.hierarchy_mut();
            let pw = IoWeight {
                default: 1000,
                ..IoWeight::default()
            };
            h.apply(prio, KnobWrite::BfqWeight(BfqWeight(pw)))
                .expect("bfq write");
            let bw = IoWeight {
                default: 100,
                ..IoWeight::default()
            };
            h.apply(be, KnobWrite::BfqWeight(BfqWeight(bw)))
                .expect("bfq write");
        }
        Knob::IoMax => {
            let cap = (0.9 * 1024.0 * 1024.0 * 1024.0) as u64;
            let m = IoMax {
                rbps: Some(cap),
                wbps: Some(cap),
                ..IoMax::default()
            };
            s.hierarchy_mut()
                .apply(be, KnobWrite::Max(dev, m))
                .expect("io.max write");
        }
        Knob::IoLatency => {
            s.hierarchy_mut()
                .apply(prio, KnobWrite::Latency(dev, IoLatency { target_us: 200 }))
                .expect("io.latency write");
        }
        Knob::IoCost => {
            let model = Knob::generated_model(&s.devices_mut()[0].profile.clone());
            let h = s.hierarchy_mut();
            Knob::write_iocost(h, dev, model, qos);
            let pw = IoWeight {
                default: 10_000,
                ..IoWeight::default()
            };
            h.apply(prio, KnobWrite::Weight(pw))
                .expect("io.weight write");
            let bw = IoWeight {
                default: 100,
                ..IoWeight::default()
            };
            h.apply(be, KnobWrite::Weight(bw)).expect("io.weight write");
        }
    }
}

impl std::fmt::Display for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_schedulers() {
        assert_eq!(Knob::None.label(), "none");
        assert_eq!(Knob::MqDlPrio.scheduler(), SchedKind::MqDeadline);
        assert_eq!(Knob::BfqWeight.scheduler(), SchedKind::Bfq);
        assert_eq!(Knob::IoCost.scheduler(), SchedKind::None);
        assert_eq!(Knob::ALL.len(), 6);
    }

    #[test]
    fn overhead_mode_devices() {
        let d = Knob::BfqWeight.device_setup(true);
        assert!(d.bfq.slice_idle.is_zero());
        let d = Knob::BfqWeight.device_setup(false);
        assert!(!d.bfq.slice_idle.is_zero());
    }

    #[test]
    fn generated_model_is_conservative() {
        let p = DeviceProfile::flash();
        let full = p.iocost_coefficients();
        let model = Knob::generated_model(&p);
        assert!(model.rrandiops < full.rrandiops);
        // Roughly the paper's 2.3 GiB/s random-read saturation.
        let gib_s = model.rrandiops as f64 * 4096.0 / (1u64 << 30) as f64;
        assert!(
            (2.0..2.7).contains(&gib_s),
            "model saturation {gib_s} GiB/s"
        );
    }

    #[test]
    fn weights_configure_each_knob() {
        for knob in Knob::ALL {
            let mut s = Scenario::new(
                "t",
                2,
                vec![knob.device_setup(false), knob.device_setup(false)],
            );
            let a = s.add_cgroup("a");
            let b = s.add_cgroup("b");
            knob.configure_weights(&mut s, &[a, b], &[200, 100]);
            let h = s.hierarchy();
            let dev = DevNode::nvme(0);
            match knob {
                Knob::None => {}
                Knob::MqDlPrio => {
                    assert_eq!(h.prio_class(a), blkio::PrioClass::Realtime);
                    assert_eq!(h.prio_class(b), blkio::PrioClass::Idle);
                }
                Knob::BfqWeight => {
                    assert_eq!(h.bfq_weight(a, dev), 1000);
                    assert_eq!(h.bfq_weight(b, dev), 500);
                }
                Knob::IoMax => {
                    let ma = h.io_max(a, dev).rbps.unwrap();
                    let mb = h.io_max(b, dev).rbps.unwrap();
                    assert!((ma as f64 / mb as f64 - 2.0).abs() < 0.01);
                }
                Knob::IoLatency => {
                    let ta = h.io_latency(a, dev).unwrap().target_us;
                    let tb = h.io_latency(b, dev).unwrap().target_us;
                    assert!(ta < tb);
                }
                Knob::IoCost => {
                    assert_eq!(h.io_weight(a, dev), 200);
                    assert_eq!(h.io_weight(b, dev), 100);
                    assert!(h.cost_model(dev).is_some());
                    assert!(h.cost_qos(dev).unwrap().enable);
                    // Both devices configured.
                    assert!(h.cost_model(DevNode::nvme(1)).is_some());
                }
            }
        }
    }

    #[test]
    fn uniform_weights_are_neutral_for_mqdl() {
        let mut s = Scenario::new("t", 1, vec![Knob::MqDlPrio.device_setup(false)]);
        let a = s.add_cgroup("a");
        let b = s.add_cgroup("b");
        Knob::MqDlPrio.configure_weights(&mut s, &[a, b], &[100, 100]);
        assert_eq!(s.hierarchy().prio_class(a), blkio::PrioClass::BestEffort);
        assert_eq!(s.hierarchy().prio_class(b), blkio::PrioClass::BestEffort);
    }

    #[test]
    fn overhead_mode_does_not_restrain() {
        let mut s = Scenario::new("t", 1, vec![Knob::IoCost.device_setup(true)]);
        let a = s.add_cgroup("a");
        Knob::IoCost.configure_overhead_mode(&mut s, &[a]);
        let qos = s.hierarchy().cost_qos(DevNode::nvme(0)).unwrap();
        assert!(qos.enable);
        assert!((qos.min_pct - 100.0).abs() < 1e-9);
        assert_eq!(qos.rpct, 0.0);
    }

    #[test]
    #[should_panic(expected = "one weight per cgroup")]
    fn weight_arity_checked() {
        let mut s = Scenario::new("t", 1, vec![Knob::IoCost.device_setup(false)]);
        let a = s.add_cgroup("a");
        Knob::IoCost.configure_weights(&mut s, &[a], &[1, 2]);
    }
}
