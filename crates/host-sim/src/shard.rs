//! Sharded execution of a single scenario: per-device parallelism with
//! bit-exact results for any shard count.
//!
//! # Ownership map
//!
//! The machine is partitioned into *components*: connected components of
//! the coupling graph whose nodes are devices and cores, with an edge
//! from every app to its core and to each of its devices. Everything an
//! event handler can touch — the app, its core's FIFO, the device host
//! with its scheduler and QoS chain — stays inside one component, so a
//! component's event stream is completely independent of the others.
//! Apps spanning multiple devices, or sharing a core, merge the
//! components they touch; the per-device vtime/QoS state never crosses a
//! component boundary (see [`ioqos::QosChain::held_requests`]). Cores no
//! app maps to belong to no component and are reported with zero
//! utilization.
//!
//! # Execution
//!
//! [`HostSim::build`] runs unchanged (every RNG stream is forked from
//! global app/device indices), then [`HostSim::run_sharded`] splits the
//! built machine into per-component engines with local dense indices and
//! fresh event queues. Components are packed onto at most `shards`
//! workers (longest-processing-time-first on an iodepth-based load
//! estimate) and free-run to `until` on scoped threads.
//!
//! # Determinism
//!
//! A component-local run is an exact restriction of the sequential global
//! run: the initial inserts preserve the global seed order, and
//! inductively every pop inserts the same children at the same times, so
//! the component's sub-sequence of the global `(time, seq)` order is
//! reproduced verbatim. Untraced runs therefore need no synchronization
//! at all — only report merging.
//!
//! Traced runs execute at `shards = 1`: a trace records the global
//! interleaving of every component's events, which only the sequential
//! loop produces, so [`HostSim::run_sharded`] hands traced runs to
//! [`HostSim::run`] and the trace bytes match by construction.

use std::cmp::Reverse;
use std::sync::Mutex;

use blkio::{AppId, CoreId, DeviceId};
use simcore::{trace, EventQueue, SimDuration, SimTime};

use crate::engine::HostSim;
use crate::report::{CoreReport, RunReport};

/// One connected component of the coupling graph, in global indices
/// (each list sorted ascending; components ordered by first device).
#[derive(Debug)]
struct Component {
    devs: Vec<usize>,
    cores: Vec<usize>,
    apps: Vec<usize>,
    /// Load estimate for worker packing: Σ app iodepth + devices.
    load: u64,
}

/// Union-find with path halving (no ranks: the graphs are tiny).
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.0[hi] = lo;
        }
    }
}

/// Partitions the built machine into independent components.
fn plan_components(sim: &HostSim) -> Vec<Component> {
    let n_devs = sim.devs.len();
    let n_cores = sim.cores.len();
    // Nodes: devices 0..n_devs, cores n_devs..n_devs+n_cores.
    let mut dsu = Dsu::new(n_devs + n_cores);
    for app in &sim.apps {
        let anchor = app.devices[0].index();
        dsu.union(anchor, n_devs + app.core.index());
        for d in &app.devices[1..] {
            dsu.union(anchor, d.index());
        }
    }
    // Components in order of first device; every device belongs to one
    // (solo devices still pump QoS and take injected resets).
    let mut comp_of_root = vec![usize::MAX; n_devs + n_cores];
    let mut comps: Vec<Component> = Vec::new();
    for d in 0..n_devs {
        let root = dsu.find(d);
        if comp_of_root[root] == usize::MAX {
            comp_of_root[root] = comps.len();
            comps.push(Component {
                devs: Vec::new(),
                cores: Vec::new(),
                apps: Vec::new(),
                load: 0,
            });
        }
        comps[comp_of_root[root]].devs.push(d);
        comps[comp_of_root[root]].load += 1;
    }
    for c in 0..n_cores {
        let root = dsu.find(n_devs + c);
        if comp_of_root[root] != usize::MAX {
            comps[comp_of_root[root]].cores.push(c);
        }
    }
    for (i, app) in sim.apps.iter().enumerate() {
        let ci = comp_of_root[dsu.find(app.devices[0].index())];
        comps[ci].apps.push(i);
        comps[ci].load += u64::from(app.spec.iodepth());
    }
    comps
}

/// Packs components onto `workers` shards, LPT-first by load estimate.
/// Returns per-worker component lists (deterministic).
fn pack(plan: &[Component], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..plan.len()).collect();
    // Heaviest first; ties break on component order (= first device).
    order.sort_by_key(|&i| (Reverse(plan[i].load), i));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut loads = vec![0u64; workers];
    for ci in order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("workers > 0");
        loads[w] += plan[ci].load;
        groups[w].push(ci);
    }
    groups
}

/// Splits the built (but not yet seeded) machine into one engine per
/// component, remapping app core/device references to local dense
/// indices. Request-ids restart from 0 per component; within a component
/// they stay order-isomorphic to the global ids, which is all that any
/// consumer (the scheduler FIFOs) relies on.
fn split(sim: HostSim, plan: &[Component]) -> Vec<HostSim> {
    debug_assert!(
        sim.devs.iter().all(|d| !d.sched.has_pending()
            && d.qos.held_requests() == 0
            && d.dispatching.is_none()),
        "shard split requires a quiescent machine"
    );
    let mut dev_local = vec![usize::MAX; sim.devs.len()];
    let mut core_local = vec![usize::MAX; sim.cores.len()];
    for comp in plan {
        for (li, &g) in comp.devs.iter().enumerate() {
            dev_local[g] = li;
        }
        for (li, &g) in comp.cores.iter().enumerate() {
            core_local[g] = li;
        }
    }
    let HostSim {
        config,
        apps,
        cores,
        devs,
        ..
    } = sim;
    let mut apps: Vec<_> = apps.into_iter().map(Some).collect();
    let mut cores: Vec<_> = cores.into_iter().map(Some).collect();
    let mut devs: Vec<_> = devs.into_iter().map(Some).collect();
    plan.iter()
        .map(|comp| {
            let c_apps: Vec<_> = comp
                .apps
                .iter()
                .map(|&i| {
                    let mut a = apps[i].take().expect("app in one component");
                    a.core = CoreId(core_local[a.core.index()]);
                    for d in &mut a.devices {
                        *d = DeviceId(dev_local[d.index()]);
                    }
                    a
                })
                .collect();
            let c_cores: Vec<_> = comp
                .cores
                .iter()
                .map(|&i| cores[i].take().expect("core in one component"))
                .collect();
            let c_devs: Vec<_> = comp
                .devs
                .iter()
                .map(|&i| devs[i].take().expect("device in one component"))
                .collect();
            let cap = HostSim::event_capacity(&c_apps, &c_cores, &c_devs);
            let wake_tree = crate::tourney::Tourney::new(c_apps.len().clamp(1, 64));
            let app_leaf = vec![HostSim::LEAF_NONE; c_apps.len()];
            let cpu_tree = crate::tourney::Tourney::new(c_cores.len());
            let disp_tree = crate::tourney::Tourney::new(c_devs.len());
            HostSim {
                config: config.clone(),
                now: SimTime::ZERO,
                queue: EventQueue::with_capacity(cap),
                apps: c_apps,
                cores: c_cores,
                devs: c_devs,
                next_req_id: 0,
                qos_scratch: Vec::new(),
                start_scratch: Vec::new(),
                // The split machine is quiescent, so fresh empty trees
                // are exact.
                wake_tree,
                app_leaf,
                leaf_app: Vec::new(),
                free_leaves: Vec::new(),
                wake_fifo: std::collections::VecDeque::new(),
                cpu_tree,
                disp_tree,
                qfront: None,
                tree_pending: 0,
                active_leaves: 0,
                active_hwm: 0,
            }
        })
        .collect()
}

/// Result of one component's run.
struct CompResult {
    report: RunReport,
    popped: u64,
    peak: u64,
}

/// Runs one component engine to `until`.
fn run_component(mut part: HostSim, until: SimTime) -> CompResult {
    part.seed_initial_events();
    let (popped, peak) = part.run_loop(until);
    CompResult {
        report: part.finish(until),
        popped,
        peak,
    }
}

/// Scatters per-component reports back to global index positions. Cores
/// outside every component idled the whole run.
fn merge_reports(
    plan: &[Component],
    mut results: Vec<Option<CompResult>>,
    n_apps: usize,
    n_cores: usize,
    n_devs: usize,
) -> RunReport {
    let mut apps: Vec<Option<_>> = (0..n_apps).map(|_| None).collect();
    let mut cores: Vec<Option<_>> = (0..n_cores).map(|_| None).collect();
    let mut devices: Vec<Option<_>> = (0..n_devs).map(|_| None).collect();
    let mut duration = SimDuration::ZERO;
    let mut measure_from = SimTime::ZERO;
    for (comp, slot) in plan.iter().zip(results.iter_mut()) {
        let r = slot.take().expect("every component ran").report;
        duration = r.duration;
        measure_from = r.measure_from;
        for (mut a, &g) in r.apps.into_iter().zip(&comp.apps) {
            a.app = AppId(g);
            apps[g] = Some(a);
        }
        for (mut c, &g) in r.cores.into_iter().zip(&comp.cores) {
            c.core = CoreId(g);
            cores[g] = Some(c);
        }
        for (mut d, &g) in r.devices.into_iter().zip(&comp.devs) {
            d.dev = DeviceId(g);
            devices[g] = Some(d);
        }
    }
    RunReport {
        duration,
        measure_from,
        apps: apps.into_iter().map(|a| a.expect("app covered")).collect(),
        cores: cores
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                c.unwrap_or(CoreReport {
                    core: CoreId(i),
                    utilization: 0.0,
                    busy: SimDuration::ZERO,
                })
            })
            .collect(),
        devices: devices
            .into_iter()
            .map(|d| d.expect("device covered"))
            .collect(),
    }
}

/// Folds component results into the process-global stats (one
/// `record_run` per scenario, like the sequential path) and returns the
/// merged report.
fn finish_sharded(
    plan: &[Component],
    results: Vec<Option<CompResult>>,
    dims: (usize, usize, usize),
) -> RunReport {
    let (popped, peak) = results.iter().fold((0, 0), |(popped, peak), r| {
        let r = r.as_ref().expect("every component ran");
        (popped + r.popped, peak.max(r.peak))
    });
    crate::stats::record_run(popped, peak);
    merge_reports(plan, results, dims.0, dims.1, dims.2)
}

/// Runs the per-worker component groups on scoped threads, returning
/// the results by component index.
fn run_workers(
    groups: &[Vec<usize>],
    parts: Vec<HostSim>,
    until: SimTime,
) -> Vec<Option<CompResult>> {
    let mut slots: Vec<Option<HostSim>> = parts.into_iter().map(Some).collect();
    let results: Mutex<Vec<Option<CompResult>>> =
        Mutex::new((0..slots.len()).map(|_| None).collect());
    // Thread-locals do not cross `thread::scope`: hand the launching
    // thread's cancellation token to every worker explicitly so a
    // watchdog cancel reaches all component loops.
    let cancel = simcore::cancel::current();
    std::thread::scope(|s| {
        for g in groups {
            let mine: Vec<(usize, HostSim)> = g
                .iter()
                .map(|&ci| (ci, slots[ci].take().expect("component packed once")))
                .collect();
            let results = &results;
            let cancel = cancel.clone();
            s.spawn(move || {
                if let Some(token) = cancel {
                    simcore::cancel::install(token);
                }
                for (ci, part) in mine {
                    let r = run_component(part, until);
                    results.lock().unwrap_or_else(|e| e.into_inner())[ci] = Some(r);
                }
            });
        }
    });
    results.into_inner().unwrap_or_else(|e| e.into_inner())
}

impl HostSim {
    /// Runs the simulation on up to `shards` parallel workers, bit-exact
    /// with [`HostSim::run`] for every shard count. Falls back to the
    /// sequential path when `shards <= 1`, when tracing is enabled on
    /// this thread (traced runs execute at `shards = 1`; see the module
    /// docs), or when the scenario couples into a single component
    /// (multi-device apps and shared cores merge components; see the
    /// module docs for the ownership map).
    #[must_use]
    pub fn run_sharded(self, until: SimTime, shards: usize) -> RunReport {
        if shards <= 1 || trace::enabled() {
            return self.run(until);
        }
        let plan = plan_components(&self);
        if plan.len() <= 1 {
            return self.run(until);
        }
        let dims = (self.apps.len(), self.cores.len(), self.devs.len());
        let groups = pack(&plan, shards.min(plan.len()));
        let parts = split(self, &plan);
        let results = run_workers(&groups, parts, until);
        finish_sharded(&plan, results, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{AppSetup, DeviceSetup, HostConfig};
    use crate::JobSpecStopExt;
    use cgroup_sim::Hierarchy;
    use workload::JobSpec;

    fn pinned_hierarchy(n: usize) -> Hierarchy {
        let mut h = Hierarchy::new();
        let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
        h.enable_io(slice).unwrap();
        for i in 0..n {
            let g = h.create(slice, &format!("app-{i}")).unwrap();
            h.attach_process(g, AppId(i)).unwrap();
        }
        h
    }

    /// `n` apps, each pinned to its own device and core: `n` components.
    fn pinned_fleet(n: usize, dur_ms: u64) -> HostSim {
        let h = pinned_hierarchy(n);
        let apps = (0..n)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(dur_ms)),
                    vec![DeviceId(i)],
                )
            })
            .collect();
        let devices = (0..n).map(|_| DeviceSetup::flash()).collect();
        HostSim::build(HostConfig::with_cores(n), h, apps, devices)
    }

    fn report_key(r: &RunReport) -> Vec<(u64, u64, u64, u64)> {
        r.apps
            .iter()
            .map(|a| {
                (
                    a.issued,
                    a.completed,
                    a.latency.p99_us.to_bits(),
                    a.mean_mib_s.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn pinned_apps_split_into_one_component_each() {
        let sim = pinned_fleet(3, 10);
        let plan = plan_components(&sim);
        assert_eq!(plan.len(), 3);
        for (i, c) in plan.iter().enumerate() {
            assert_eq!(c.devs, vec![i]);
            assert_eq!(c.cores, vec![i]);
            assert_eq!(c.apps, vec![i]);
        }
    }

    #[test]
    fn multi_device_app_merges_components() {
        let h = pinned_hierarchy(1);
        let apps = vec![AppSetup::new(
            JobSpec::lc_app("span").stop_by(SimTime::from_millis(10)),
            vec![DeviceId(0), DeviceId(1)],
        )];
        let sim = HostSim::build(
            HostConfig::default(),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        assert_eq!(plan_components(&sim).len(), 1);
    }

    #[test]
    fn shared_core_merges_components() {
        // Two pinned apps on distinct devices, one core: i % 1 == 0.
        let h = pinned_hierarchy(2);
        let apps = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(10)),
                    vec![DeviceId(i)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(1),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        assert_eq!(plan_components(&sim).len(), 1);
    }

    #[test]
    fn unreferenced_device_forms_singleton_component() {
        let h = pinned_hierarchy(1);
        let apps = vec![AppSetup::new(
            JobSpec::lc_app("lc").stop_by(SimTime::from_millis(10)),
            vec![DeviceId(0)],
        )];
        let sim = HostSim::build(
            HostConfig::default(),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        let plan = plan_components(&sim);
        assert_eq!(plan.len(), 2);
        assert!(plan[1].apps.is_empty());
    }

    #[test]
    fn pack_is_deterministic_and_balanced() {
        let comps: Vec<Component> = [30u64, 10, 20, 5]
            .iter()
            .map(|&load| Component {
                devs: vec![],
                cores: vec![],
                apps: vec![],
                load,
            })
            .collect();
        let g = pack(&comps, 2);
        // LPT: 30 → w0; 20 → w1; 10 → w1 (30 vs 20); 5 → w1? loads 30/30 → w0.
        assert_eq!(g, vec![vec![0, 3], vec![2, 1]]);
    }

    #[test]
    fn sharded_report_matches_sequential() {
        let seq = pinned_fleet(4, 40).run(SimTime::from_millis(40));
        for shards in [2, 4, 7] {
            let par = pinned_fleet(4, 40).run_sharded(SimTime::from_millis(40), shards);
            assert_eq!(report_key(&seq), report_key(&par), "shards={shards}");
            assert_eq!(seq.cores.len(), par.cores.len());
            for (a, b) in seq.cores.iter().zip(&par.cores) {
                assert_eq!(a.core, b.core);
                assert_eq!(a.busy, b.busy);
            }
            for (a, b) in seq.devices.iter().zip(&par.devices) {
                assert_eq!(a.dev, b.dev);
                assert_eq!(a.served_ios, b.served_ios);
            }
        }
    }

    /// Traced runs execute at `shards = 1`, so the trace matches the
    /// sequential one byte for byte.
    #[test]
    fn sharded_traced_run_matches_sequential_bytes() {
        trace::install(1 << 16);
        let seq = pinned_fleet(3, 20).run(SimTime::from_millis(20));
        let seq_trace = trace::take().expect("recorder installed");
        trace::install(1 << 16);
        let par = pinned_fleet(3, 20).run_sharded(SimTime::from_millis(20), 3);
        let par_trace = trace::take().expect("recorder installed");
        assert_eq!(report_key(&seq), report_key(&par));
        assert!(seq_trace.is_complete() && seq_trace.is_lossless());
        assert_eq!(seq_trace.to_jsonl(), par_trace.to_jsonl());
    }

    #[test]
    fn single_component_scenario_falls_back_to_sequential() {
        let h = pinned_hierarchy(2);
        let apps: Vec<AppSetup> = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(20)),
                    vec![DeviceId(0), DeviceId(1)],
                )
            })
            .collect();
        let devices = vec![DeviceSetup::flash(), DeviceSetup::flash()];
        let build = || {
            HostSim::build(
                HostConfig::with_cores(2),
                h.clone(),
                apps.clone(),
                devices.clone(),
            )
        };
        assert_eq!(plan_components(&build()).len(), 1);
        let seq = build().run(SimTime::from_millis(20));
        let r = build().run_sharded(SimTime::from_millis(20), 4);
        assert_eq!(format!("{seq:?}"), format!("{r:?}"));
        assert!(r.apps.iter().all(|a| a.completed > 0));
    }
}
