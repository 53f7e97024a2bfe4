//! Fleet-scale QoS scalability — the D1 extension (ROADMAP open
//! item 1): the paper's experiments stop at ~8 cgroups, but production
//! multi-tenant hosts configure thousands of groups in 3–4-level
//! hierarchies, and the isolation machinery itself becomes a per-I/O
//! and per-tick cost. This experiment measures how each knob's
//! aggregate throughput, weighted fairness, P99 tail latency, and
//! controller CPU cost scale with tenant count.
//!
//! The scenario models a consolidation host: `isol.slice` →
//! departments → teams → tenant leaf groups (4 levels below the root),
//! with heterogeneous tenant weights drawn from a fixed 100/200/400/800
//! pattern and a diurnal duty cycle — every tenant bursts 10 % of the
//! time, with start phases staggered uniformly across the period so
//! roughly a tenth of the fleet is on at any instant. Tenants are
//! pinned round-robin to a small SSD fleet and share its cores.
//!
//! Controller CPU cost shows up in the *core busy fraction*: each QoS
//! stage charges `submit_cpu_overhead` per I/O on the submitting core,
//! so a controller whose bookkeeping walks every configured group gets
//! more expensive per I/O as the fleet grows — exactly the effect the
//! arena/active-set fast path bounds. All reported metrics are pure
//! simulation outputs (no wall-clock), so cells stay byte-identical
//! across `--jobs`.

use std::io;

use blkio::{DeviceId, GroupId, PrioClass};
use cgroup_sim::{BfqWeight, DevNode, IoLatency, IoMax, IoWeight, Knob as KnobWrite};
use iostats::{weighted_jain_index, Table};
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

use crate::{cgroup_bandwidths, Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// SSDs in the consolidation host; tenants are pinned round-robin.
pub const FLEET_DEVICES: usize = 4;

/// Submission cores shared by the whole tenant fleet.
pub const FLEET_CORES: usize = 16;

/// Departments under `isol.slice` (first hierarchy level).
const DEPTS: usize = 4;

/// Teams per department (second level; tenants are the third).
const TEAMS_PER_DEPT: usize = 8;

/// The heterogeneous tenant weight pattern, cycled by tenant index.
const WEIGHTS: [u32; 4] = [100, 200, 400, 800];

/// Diurnal burst period; every tenant is on for a tenth of it.
const PERIOD: SimDuration = SimDuration::from_millis(20);

/// `io.max` oversubscription factor: with a 10 % duty cycle, limits
/// provisioned at `8× fair share` throttle bursts without starving the
/// fleet outright.
const IOMAX_OVERSUB: f64 = 8.0;

/// The baseline hierarchy depth (root → slice → dept → team → tenant).
pub const BASE_DEPTH: usize = 4;

/// The cell label (`fleet_scale-<knob>-<tenants>`), also the
/// `--inject-panic` target.
#[must_use]
pub fn cell_label(knob: Knob, tenants: usize) -> String {
    format!("fleet_scale-{}-{}", knob.label(), tenants)
}

/// The label of a depth-sweep cell. Depth-[`BASE_DEPTH`] cells keep the
/// plain [`cell_label`] (they are the pre-existing grid); deeper trees
/// get a `-d<depth>` suffix.
#[must_use]
pub fn cell_label_depth(knob: Knob, tenants: usize, depth: usize) -> String {
    if depth == BASE_DEPTH {
        cell_label(knob, tenants)
    } else {
        format!("fleet_scale-{}-{}-d{}", knob.label(), tenants, depth)
    }
}

/// One (tenant count, knob, depth) cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct FleetScaleRow {
    /// Tenant (leaf cgroup) count.
    pub tenants: usize,
    /// The knob under test.
    pub knob: Knob,
    /// Hierarchy depth of the tenant leaves ([`BASE_DEPTH`] on the
    /// standard grid).
    pub depth: usize,
    /// Aggregate fleet throughput, MiB/s.
    pub agg_mib_s: f64,
    /// Weight-adjusted Jain fairness over per-tenant bandwidth.
    pub fairness: f64,
    /// Completion-weighted mean of per-tenant P99 latency, µs.
    pub p99_us: f64,
    /// Mean submission-core utilization — the controller-cost proxy
    /// (QoS bookkeeping is charged to the submitting core).
    pub core_util: f64,
}

/// The scalability study: one row per (tenant count, knob).
#[derive(Debug)]
pub struct FleetScaleResult {
    /// Rows grouped by tenant count, [`Knob::ALL`] order within.
    pub rows: Vec<FleetScaleRow>,
}

impl FleetScaleResult {
    /// Looks up one standard-grid (depth-[`BASE_DEPTH`]) cell's row.
    #[must_use]
    pub fn row(&self, tenants: usize, knob: Knob) -> Option<&FleetScaleRow> {
        self.rows
            .iter()
            .find(|r| r.tenants == tenants && r.knob == knob && r.depth == BASE_DEPTH)
    }
}

/// Builds the tenant-fleet scenario: `tenants` leaf groups under a
/// department/team tree, each holding one bursty app pinned to its
/// device. Returns the scenario plus the per-tenant groups and weights
/// (for fairness accounting).
///
/// # Panics
///
/// Panics if `tenants` is zero.
#[must_use]
pub fn fleet_scale_scenario(knob: Knob, tenants: usize) -> (Scenario, Vec<GroupId>, Vec<u32>) {
    fleet_scale_scenario_depth(knob, tenants, BASE_DEPTH)
}

/// [`fleet_scale_scenario`] with a configurable hierarchy depth: tenant
/// leaves sit `depth` levels below the root. Depths beyond
/// [`BASE_DEPTH`] insert `org-<j>` sub-levels between each team and its
/// tenants, so knob semantics that walk or propagate along ancestor
/// chains (weight scaling, latency protection, cost accounting) pay for
/// the longer chain.
///
/// # Panics
///
/// Panics if `tenants` is zero or `depth < BASE_DEPTH`.
#[must_use]
pub fn fleet_scale_scenario_depth(
    knob: Knob,
    tenants: usize,
    depth: usize,
) -> (Scenario, Vec<GroupId>, Vec<u32>) {
    assert!(tenants > 0, "need at least one tenant");
    assert!(
        depth >= BASE_DEPTH,
        "tree is at least slice/dept/team/tenant"
    );
    let devices = (0..FLEET_DEVICES)
        .map(|_| knob.device_setup(false))
        .collect();
    let mut s = Scenario::new(
        &cell_label_depth(knob, tenants, depth),
        FLEET_CORES,
        devices,
    );
    s.set_bw_window(SimDuration::from_millis(10));

    // isol.slice → dept → team [→ org…] → tenant: the management levels
    // carry `+io` so leaves may hold knobs.
    let slice = s.slice();
    let mut teams = Vec::with_capacity(DEPTS * TEAMS_PER_DEPT);
    for d in 0..DEPTS {
        let dept = s.add_cgroup_under(slice, &format!("dept-{d}"), true);
        for t in 0..TEAMS_PER_DEPT {
            let mut parent = s.add_cgroup_under(dept, &format!("team-{t}"), true);
            for j in 0..depth - BASE_DEPTH {
                parent = s.add_cgroup_under(parent, &format!("org-{j}"), true);
            }
            teams.push(parent);
        }
    }

    let mut groups = Vec::with_capacity(tenants);
    let mut weights = Vec::with_capacity(tenants);
    let period_ns = PERIOD.as_nanos();
    for k in 0..tenants {
        let team = teams[k % teams.len()];
        let g = s.add_cgroup_under(team, &format!("tenant-{k}"), false);
        groups.push(g);
        weights.push(WEIGHTS[k % WEIGHTS.len()]);
        // Stagger start phases uniformly across the diurnal period so
        // ~10 % of the fleet is on at any instant; 10 % duty cycle.
        let phase = SimTime::from_nanos(k as u64 * period_ns / tenants as u64);
        let spec = JobSpec::builder(&format!("tenant-{k}"))
            .iodepth(2)
            .block_size(4096)
            .start_at(phase)
            .burst(
                SimDuration::from_nanos(period_ns / 10),
                SimDuration::from_nanos(period_ns - period_ns / 10),
            )
            .build();
        s.add_app_on(g, spec, vec![DeviceId(k % FLEET_DEVICES)]);
    }
    configure_knob(knob, &mut s, &groups, &weights);
    (s, groups, weights)
}

/// Writes the knob's fleet configuration: heterogeneous per-tenant
/// settings in each knob's own vocabulary. Unlike the ≤16-group
/// fairness wiring in [`Knob::configure_weights`], `io.max` limits are
/// provisioned per *device* population with a burst oversubscription
/// factor — a fleet operator shares each SSD only among the tenants
/// pinned to it, and a 1/N hard split at N=4096 would starve everyone.
fn configure_knob(knob: Knob, s: &mut Scenario, groups: &[GroupId], weights: &[u32]) {
    let profiles: Vec<_> = s.devices_mut().iter().map(|d| d.profile.clone()).collect();
    let max_w = *weights.iter().max().expect("nonempty");
    // Per-device weight totals (tenant k is pinned to device k % FLEET_DEVICES).
    let mut dev_total = [0u64; FLEET_DEVICES];
    for (k, &w) in weights.iter().enumerate() {
        dev_total[k % FLEET_DEVICES] += u64::from(w);
    }
    let h = s.hierarchy_mut();
    match knob {
        Knob::None => {}
        Knob::MqDlPrio => {
            for (&g, &w) in groups.iter().zip(weights) {
                let class = if w >= 800 {
                    PrioClass::Realtime
                } else if w >= 200 {
                    PrioClass::BestEffort
                } else {
                    PrioClass::Idle
                };
                h.apply(g, KnobWrite::PrioClass(class)).expect("prio write");
            }
        }
        Knob::BfqWeight => {
            for (&g, &w) in groups.iter().zip(weights) {
                let scaled = ((u64::from(w) * 1000 / u64::from(max_w)) as u32).clamp(1, 1000);
                let bw = IoWeight {
                    default: scaled,
                    ..IoWeight::default()
                };
                h.apply(g, KnobWrite::BfqWeight(BfqWeight(bw)))
                    .expect("bfq write");
            }
        }
        Knob::IoMax => {
            for (k, (&g, &w)) in groups.iter().zip(weights).enumerate() {
                let d = k % FLEET_DEVICES;
                let dev = DevNode::nvme(d as u32);
                let share = f64::from(w) / dev_total[d] as f64;
                let bps = (profiles[d].rand_read_bps * share * IOMAX_OVERSUB) as u64;
                let m = IoMax {
                    rbps: Some(bps.max(1)),
                    wbps: Some(bps.max(1)),
                    ..IoMax::default()
                };
                h.apply(g, KnobWrite::Max(dev, m)).expect("io.max write");
            }
        }
        Knob::IoLatency => {
            for (k, (&g, &w)) in groups.iter().zip(weights).enumerate() {
                let dev = DevNode::nvme((k % FLEET_DEVICES) as u32);
                let target_us = (150 * u64::from(max_w) / u64::from(w)).clamp(50, 4_000_000);
                h.apply(g, KnobWrite::Latency(dev, IoLatency { target_us }))
                    .expect("io.latency write");
            }
        }
        Knob::IoCost => {
            for (d, profile) in profiles.iter().enumerate() {
                let dev = DevNode::nvme(d as u32);
                h.apply(
                    cgroup_sim::Hierarchy::ROOT,
                    KnobWrite::CostModel(dev, Knob::generated_model(profile)),
                )
                .expect("root model write");
                h.apply(
                    cgroup_sim::Hierarchy::ROOT,
                    KnobWrite::CostQos(dev, Knob::fairness_qos()),
                )
                .expect("root qos write");
            }
            for (&g, &w) in groups.iter().zip(weights) {
                let iw = IoWeight {
                    default: w.clamp(1, 10_000),
                    ..IoWeight::default()
                };
                h.apply(g, KnobWrite::Weight(iw)).expect("io.weight write");
            }
        }
    }
}

/// Builds the cell for one (tenant count, knob, depth) point. Cell
/// rows: `[[tenants, agg_mib_s, fairness, p99_us, core_util]]`.
fn scale_cell(knob: Knob, tenants: usize, depth: usize, fidelity: Fidelity) -> Cell {
    let (s, groups, weights) = fleet_scale_scenario_depth(knob, tenants, depth);
    let app_groups = s.app_groups().to_vec();
    Cell::scenario(
        "fleet_scale",
        fidelity,
        s,
        fidelity.fleet_scale_duration(),
        move |report| {
            let bws = cgroup_bandwidths(&report, &app_groups, &groups);
            let agg: f64 = bws.iter().sum();
            let pairs: Vec<(f64, f64)> = bws
                .iter()
                .zip(&weights)
                .map(|(&bw, &w)| (bw, f64::from(w)))
                .collect();
            let fairness = weighted_jain_index(&pairs);
            let completed: u64 = report.apps.iter().map(|a| a.completed).sum();
            let p99 = if completed == 0 {
                0.0
            } else {
                report
                    .apps
                    .iter()
                    .map(|a| a.latency.p99_us * a.completed as f64)
                    .sum::<f64>()
                    / completed as f64
            };
            let core_util = report.cores.iter().map(|c| c.utilization).sum::<f64>()
                / report.cores.len().max(1) as f64;
            vec![vec![tenants as f64, agg, fairness, p99, core_util]]
        },
    )
}

/// Stages the scalability study: one cell per (tenant count, knob) on
/// the baseline-depth grid, plus — at the smallest tenant count — one
/// cell per (knob, depth) for the deeper trees in
/// [`Fidelity::fleet_scale_depths`].
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<FleetScaleResult> {
    let counts = fidelity.fleet_scale_group_counts();
    let mut keys: Vec<(usize, Knob, usize)> = counts
        .iter()
        .flat_map(|&n| Knob::ALL.iter().map(move |&k| (n, k, BASE_DEPTH)))
        .collect();
    // The depth sweep holds the fleet small and fixed so depth is the
    // only moving variable.
    let depth_tenants = counts[0];
    for depth in fidelity.fleet_scale_depths() {
        if depth == BASE_DEPTH {
            continue;
        }
        for &k in Knob::ALL.iter() {
            keys.push((depth_tenants, k, depth));
        }
    }
    let cells = keys
        .iter()
        .map(|&(n, k, d)| scale_cell(k, n, d, fidelity))
        .collect();
    Staged::new("fleet_scale", cells, move |results, sink| {
        let rows: Vec<FleetScaleRow> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(tenants, knob, depth), cell)| {
                let cell = cell?;
                let v = &cell[0];
                Some(FleetScaleRow {
                    tenants,
                    knob,
                    depth,
                    agg_mib_s: v[1],
                    fairness: v[2],
                    p99_us: v[3],
                    core_util: v[4],
                })
            })
            .collect();
        emit_table(&rows, sink)?;
        Ok(FleetScaleResult { rows })
    })
}

fn emit_table(rows: &[FleetScaleRow], sink: &mut OutputSink) -> io::Result<()> {
    let mut t = Table::new(vec![
        "groups",
        "knob",
        "agg MiB/s",
        "fairness",
        "P99 (us)",
        "core util",
    ]);
    for r in rows.iter().filter(|r| r.depth == BASE_DEPTH) {
        t.row(vec![
            r.tenants.to_string(),
            r.knob.label().to_owned(),
            format!("{:.0}", r.agg_mib_s),
            format!("{:.4}", r.fairness),
            format!("{:.1}", r.p99_us),
            format!("{:.4}", r.core_util),
        ]);
    }
    sink.emit("fleet_scale", &t)?;
    sink.note(
        "(core util is the controller-cost proxy: QoS bookkeeping is \
         charged per I/O on the submitting core, so a controller that \
         walks every configured group shows up as busy cores as the \
         fleet grows)",
    );
    // Depth-sweep rows go in their own table so the standard grid's
    // bytes stay independent of the sweep configuration.
    let deep: Vec<_> = rows.iter().filter(|r| r.depth != BASE_DEPTH).collect();
    if !deep.is_empty() {
        let mut t = Table::new(vec![
            "depth",
            "groups",
            "knob",
            "agg MiB/s",
            "fairness",
            "P99 (us)",
            "core util",
        ]);
        for r in deep {
            t.row(vec![
                r.depth.to_string(),
                r.tenants.to_string(),
                r.knob.label().to_owned(),
                format!("{:.0}", r.agg_mib_s),
                format!("{:.4}", r.fairness),
                format!("{:.1}", r.p99_us),
                format!("{:.4}", r.core_util),
            ]);
        }
        sink.emit("fleet_scale_depth", &t)?;
        sink.note(
            "(depth sweep: same fleet, tenants pushed 5-8 levels below \
             the root — the cost of knob semantics that walk ancestor \
             chains)",
        );
    }
    Ok(())
}

/// Runs the fleet-scale scalability study.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<FleetScaleResult> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_the_fleet_tree() {
        let (s, groups, weights) = fleet_scale_scenario(Knob::IoCost, 64);
        assert_eq!(groups.len(), 64);
        assert_eq!(weights.len(), 64);
        assert_eq!(s.app_count(), 64);
        // Tenants sit 3 levels below isol.slice: slice → dept → team →
        // tenant, i.e. depth 4 below the root.
        let flat = s.hierarchy().flatten();
        for &g in &groups {
            assert_eq!(flat.depth(g), 4);
        }
        // The weight pattern cycles.
        assert_eq!(&weights[..4], &[100, 200, 400, 800]);
    }

    #[test]
    fn depth_sweep_builds_deeper_trees() {
        for depth in [5, 8] {
            let (s, groups, _) = fleet_scale_scenario_depth(Knob::BfqWeight, 32, depth);
            let flat = s.hierarchy().flatten();
            for &g in &groups {
                assert_eq!(flat.depth(g) as usize, depth, "depth {depth}");
            }
        }
        // The base-depth label has no suffix; deeper ones do.
        assert_eq!(cell_label_depth(Knob::None, 256, 4), "fleet_scale-none-256");
        assert_eq!(
            cell_label_depth(Knob::None, 256, 8),
            "fleet_scale-none-256-d8"
        );
    }

    #[test]
    fn smoke_run_emits_rows_for_every_knob() {
        // A tiny fleet keeps the unit test fast; the real tenant counts
        // come from Fidelity::fleet_scale_group_counts.
        let fidelity = Fidelity::Smoke;
        let keys: Vec<(usize, Knob)> = Knob::ALL.iter().map(|&k| (24usize, k)).collect();
        let cells: Vec<Cell> = keys
            .iter()
            .map(|&(n, k)| scale_cell(k, n, BASE_DEPTH, fidelity))
            .collect();
        let staged = Staged::new("fleet_scale", cells, move |results, sink| {
            let rows: Vec<FleetScaleRow> = keys
                .iter()
                .zip(results)
                .filter_map(|(&(tenants, knob), cell)| {
                    let cell = cell?;
                    let v = &cell[0];
                    Some(FleetScaleRow {
                        tenants,
                        knob,
                        depth: BASE_DEPTH,
                        agg_mib_s: v[1],
                        fairness: v[2],
                        p99_us: v[3],
                        core_util: v[4],
                    })
                })
                .collect();
            emit_table(&rows, sink)?;
            Ok(FleetScaleResult { rows })
        });
        let r = staged
            .run(&RunConfig::default(), &mut OutputSink::quiet())
            .expect("fleet_scale");
        assert_eq!(r.rows.len(), Knob::ALL.len());
        for row in &r.rows {
            assert!(row.agg_mib_s > 0.0, "{}: fleet made progress", row.knob);
            assert!(
                row.fairness > 0.0 && row.fairness <= 1.0 + 1e-9,
                "{}: fairness in (0,1]",
                row.knob
            );
            assert!(row.core_util > 0.0, "{}: cores did work", row.knob);
        }
    }
}
