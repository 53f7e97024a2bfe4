//! One benchmark run: cgroup tree + apps + devices → report.

use blkio::{AppId, DeviceId, GroupId};
use cgroup_sim::Hierarchy;
use host_sim::{AppSetup, DeviceSetup, HostConfig, HostSim, JobSpecStopExt, RunReport};
use simcore::{SimDuration, SimTime};
use workload::{AppModelSpec, JobSpec};

/// A configured benchmark scenario.
///
/// Wraps the cgroup hierarchy (one `isol.slice` management group whose
/// children are the benchmark cgroups), the app list, and the device
/// list; [`Scenario::run`] assembles and runs a [`HostSim`].
///
/// See the crate-level example.
///
/// `Clone` exists for the resilient cell runner: a retried cell
/// re-simulates from an identical `Scenario` value, so a flaky attempt
/// (watchdog cancel, injected panic) can be re-run without the
/// experiment rebuilding its grid.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    hierarchy: Hierarchy,
    slice: GroupId,
    apps: Vec<AppSetup>,
    app_groups: Vec<GroupId>,
    devices: Vec<DeviceSetup>,
    cores: usize,
    seed: u64,
    warmup: SimTime,
    bw_window: SimDuration,
    io_timeout: Option<SimDuration>,
}

impl Scenario {
    /// Creates a scenario with `cores` CPU cores and the given devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty or `cores == 0`.
    #[must_use]
    pub fn new(name: &str, cores: usize, devices: Vec<DeviceSetup>) -> Self {
        assert!(!devices.is_empty(), "need at least one device");
        assert!(cores > 0, "need at least one core");
        let mut hierarchy = Hierarchy::new();
        let slice = hierarchy
            .create(Hierarchy::ROOT, "isol.slice")
            .expect("fresh tree");
        hierarchy.enable_io(slice).expect("no processes yet");
        Scenario {
            name: name.to_owned(),
            hierarchy,
            slice,
            apps: Vec::new(),
            app_groups: Vec::new(),
            devices,
            cores,
            seed: 0x15_05_19_55,
            warmup: SimTime::ZERO,
            bw_window: SimDuration::from_millis(100),
            io_timeout: None,
        }
    }

    /// The scenario name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the RNG seed (defaults to a fixed constant). Used by the
    /// repetition loops to vary runs deterministically.
    pub fn set_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Excludes the first `warmup` of simulated time from measurement.
    pub fn set_warmup(&mut self, warmup: SimTime) -> &mut Self {
        self.warmup = warmup;
        self
    }

    /// Sets the bandwidth time-series window (default 100 ms). Use a
    /// window no larger than the analysis granularity.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_bw_window(&mut self, window: SimDuration) -> &mut Self {
        assert!(!window.is_zero(), "window must be positive");
        self.bw_window = window;
        self
    }

    /// Arms per-command deadline timers: commands in flight longer than
    /// `timeout` are aborted and re-driven by the host recovery path
    /// (the `/sys/block/*/queue/io_timeout` analogue). `None` (the
    /// default) disables timeout tracking entirely.
    pub fn set_io_timeout(&mut self, timeout: Option<SimDuration>) -> &mut Self {
        self.io_timeout = timeout;
        self
    }

    /// Creates a benchmark cgroup under the managed slice.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn add_cgroup(&mut self, name: &str) -> GroupId {
        self.hierarchy
            .create(self.slice, name)
            .expect("unique cgroup name")
    }

    /// The managed `isol.slice` group every benchmark cgroup descends
    /// from — the root anchor for multi-level fleet trees.
    #[must_use]
    pub fn slice(&self) -> GroupId {
        self.slice
    }

    /// Creates a cgroup under an arbitrary parent (for 3–4-level fleet
    /// hierarchies; [`Scenario::add_cgroup`] covers the flat case).
    /// With `management` the new group gets `+io` enabled so its own
    /// children may carry knobs; leave it false for leaf tenant groups
    /// that will hold processes.
    ///
    /// # Panics
    ///
    /// Panics on duplicate sibling names or a non-management parent.
    pub fn add_cgroup_under(&mut self, parent: GroupId, name: &str, management: bool) -> GroupId {
        let id = self
            .hierarchy
            .create(parent, name)
            .expect("unique cgroup name under live management parent");
        if management {
            self.hierarchy.enable_io(id).expect("no processes yet");
        }
        id
    }

    /// Adds an app inside `group`, issuing to every device (the default).
    /// Returns the app id.
    pub fn add_app(&mut self, group: GroupId, spec: JobSpec) -> AppId {
        let devices = (0..self.devices.len()).map(DeviceId).collect();
        self.add_app_on(group, spec, devices)
    }

    /// Adds an app inside `group` restricted to specific devices.
    ///
    /// # Panics
    ///
    /// Panics if `group` cannot hold processes.
    pub fn add_app_on(&mut self, group: GroupId, spec: JobSpec, devices: Vec<DeviceId>) -> AppId {
        self.push_app(group, AppSetup::new(spec, devices))
    }

    /// Adds a closed-loop app inside `group`: instead of an open-loop
    /// fio-style stream, the app is driven by an application model
    /// (`workload::AppModelSpec`) whose arrivals feed back from
    /// completions. Empty `devices` means "every device".
    ///
    /// # Panics
    ///
    /// Panics if `group` cannot hold processes or `spec.iodepth()`
    /// differs from the model's window.
    pub fn add_app_model_on(
        &mut self,
        group: GroupId,
        spec: JobSpec,
        model: AppModelSpec,
        devices: Vec<DeviceId>,
    ) -> AppId {
        let devices = if devices.is_empty() {
            (0..self.devices.len()).map(DeviceId).collect()
        } else {
            devices
        };
        self.push_app(group, AppSetup::closed_loop(spec, model, devices))
    }

    fn push_app(&mut self, group: GroupId, setup: AppSetup) -> AppId {
        let app = AppId(self.apps.len());
        self.hierarchy
            .attach_process(group, app)
            .expect("process group");
        self.apps.push(setup);
        self.app_groups.push(group);
        app
    }

    /// The cgroup each app lives in, indexed by app id.
    #[must_use]
    pub fn app_groups(&self) -> &[GroupId] {
        &self.app_groups
    }

    /// Direct access to the hierarchy for knob writes.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// Read access to the hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Devices (mutable, e.g. to switch schedulers after construction).
    pub fn devices_mut(&mut self) -> &mut Vec<DeviceSetup> {
        &mut self.devices
    }

    /// Number of configured apps.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Whether any device has fault injection armed. Faulted cells are
    /// excluded from the result cache (recovery-path statistics are the
    /// thing under test there, so they are always recomputed).
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.devices.iter().any(|d| d.faults.is_enabled())
    }

    /// Builds the host machine for a run ending at `until` (every app is
    /// stopped at `until` at the latest) without running it.
    #[must_use]
    pub fn build_host(self, until: SimTime) -> HostSim {
        let config = HostConfig {
            cores: self.cores,
            seed: self.seed,
            measure_from: self.warmup,
            bw_window: self.bw_window,
            io_timeout: self.io_timeout,
            ..HostConfig::default()
        };
        let apps = self
            .apps
            .into_iter()
            .map(|a| {
                let spec = a.spec.clone().stop_by(until);
                AppSetup {
                    spec,
                    devices: a.devices,
                    model: a.model,
                }
            })
            .collect();
        HostSim::build(config, self.hierarchy, apps, self.devices)
    }

    /// Runs the scenario until `until` and returns the report.
    #[must_use]
    pub fn run(self, until: SimTime) -> RunReport {
        self.build_host(until).run(until)
    }

    /// Runs the scenario with the request-lifecycle trace recorder
    /// installed, returning both the report and the captured trace.
    ///
    /// `capacity` bounds the trace ring buffer: once full, the oldest
    /// events are evicted and counted in [`simcore::trace::Trace::dropped`].
    /// Tracing is scoped to this call — the recorder is installed before
    /// the run and removed afterwards, even if the run panics.
    ///
    /// # Panics
    ///
    /// Propagates any panic from the run itself. The recorder is left
    /// installed in that case so a `catch_unwind` caller can salvage the
    /// partial trace with [`simcore::trace::take`] (which also
    /// uninstalls it).
    #[must_use]
    pub fn run_traced(self, until: SimTime, capacity: usize) -> (RunReport, simcore::trace::Trace) {
        simcore::trace::install(capacity);
        let report = self.run(until);
        let trace = simcore::trace::take().expect("recorder installed above");
        (report, trace)
    }
}

/// Aggregates per-app mean bandwidths into per-cgroup sums, ordered like
/// `cgroups`. This is the quantity Jain's index is computed over in the
/// fairness experiments (§VI-A).
#[must_use]
pub fn cgroup_bandwidths(
    report: &RunReport,
    app_groups: &[GroupId],
    cgroups: &[GroupId],
) -> Vec<f64> {
    cgroups
        .iter()
        .map(|&cg| {
            report
                .apps
                .iter()
                .zip(app_groups)
                .filter(|(_, &g)| g == cg)
                .map(|(a, _)| a.mean_mib_s)
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use host_sim::DeviceSetup;

    #[test]
    fn scenario_builds_and_runs() {
        let mut s = Scenario::new("t", 2, vec![DeviceSetup::flash()]);
        let g = s.add_cgroup("cg0");
        s.add_app(g, JobSpec::lc_app("lc"));
        assert_eq!(s.app_count(), 1);
        assert_eq!(s.app_groups(), &[g]);
        let r = s.run(SimTime::from_millis(100));
        assert!(r.apps[0].completed > 100);
    }

    #[test]
    fn cgroup_bandwidths_aggregate_by_group() {
        let mut s = Scenario::new("t", 2, vec![DeviceSetup::flash()]);
        let g0 = s.add_cgroup("cg0");
        let g1 = s.add_cgroup("cg1");
        s.add_app(g0, JobSpec::batch_app("a"));
        s.add_app(g0, JobSpec::batch_app("b"));
        s.add_app(g1, JobSpec::batch_app("c"));
        let groups = s.app_groups().to_vec();
        let r = s.run(SimTime::from_millis(100));
        let bws = cgroup_bandwidths(&r, &groups, &[g0, g1]);
        assert_eq!(bws.len(), 2);
        let direct: f64 = r.apps[0].mean_mib_s + r.apps[1].mean_mib_s;
        assert!((bws[0] - direct).abs() < 1e-9);
    }

    #[test]
    fn warmup_is_excluded() {
        let mut s = Scenario::new("t", 1, vec![DeviceSetup::flash()]);
        let g = s.add_cgroup("cg0");
        s.add_app(g, JobSpec::lc_app("lc"));
        s.set_warmup(SimTime::from_millis(50));
        let r = s.run(SimTime::from_millis(100));
        assert!(r.apps[0].completed < r.apps[0].issued);
    }

    #[test]
    #[should_panic(expected = "unique cgroup name")]
    fn duplicate_cgroup_panics() {
        let mut s = Scenario::new("t", 1, vec![DeviceSetup::flash()]);
        s.add_cgroup("cg0");
        s.add_cgroup("cg0");
    }
}
