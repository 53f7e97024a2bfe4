//! # host-sim — the simulated host machine
//!
//! Wires every substrate into one deterministic discrete-event machine,
//! the analogue of the paper's Xeon testbed (§III):
//!
//! * **Apps** ([`AppSetup`]) — fio-like jobs issuing I/O at their queue
//!   depth, optionally rate-capped, pinned round-robin onto cores,
//! * **Cores** — FIFO CPU servers; every submission and completion costs
//!   core time (engine + scheduler + QoS overheads), so CPU saturation
//!   produces queueing delay exactly as on real hardware (Fig. 3),
//! * **Devices** ([`DeviceSetup`]) — each NVMe device with its I/O
//!   scheduler ([`iosched_sim::SchedKind`]) and its QoS chain, which the
//!   engine derives from the [`cgroup_sim::Hierarchy`] — the hierarchy's
//!   knob files are the single source of configuration truth, as in
//!   Linux,
//! * **The event loop** ([`HostSim`]) — runs the request lifecycle
//!   (issue → submit CPU → QoS chain → scheduler → device → completion
//!   CPU) and captures per-app latency histograms, bandwidth series, and
//!   per-core utilization into a [`RunReport`].
//!
//! # Example
//!
//! ```
//! use host_sim::{AppSetup, DeviceSetup, HostConfig, HostSim, JobSpecStopExt};
//! use cgroup_sim::Hierarchy;
//! use workload::JobSpec;
//! use blkio::{AppId, DeviceId};
//! use simcore::SimTime;
//!
//! let mut h = Hierarchy::new();
//! let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
//! h.enable_io(slice).unwrap();
//! let g = h.create(slice, "tenant-a").unwrap();
//! h.attach_process(g, AppId(0)).unwrap();
//!
//! let spec = JobSpec::lc_app("lc").stop_by(SimTime::from_millis(50));
//! let sim = HostSim::build(
//!     HostConfig::default(),
//!     h,
//!     vec![AppSetup::new(spec, vec![DeviceId(0)])],
//!     vec![DeviceSetup::flash()],
//! );
//! let report = sim.run(SimTime::from_millis(50));
//! assert!(report.apps[0].completed > 0);
//! ```
//!
//! (The `stop_by` helper above is [`JobSpecStopExt::stop_by`], a
//! convenience re-exported by this crate.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod cpu;
mod devhost;
mod engine;
mod report;
mod setup;
pub mod stats;
mod tourney;

pub use engine::HostSim;
pub use report::{AppReport, CoreReport, DeviceReport, RunReport, StageBreakdown};
pub use setup::{AppSetup, DeviceSetup, HostConfig};

/// Small convenience extension used throughout the experiments.
pub trait JobSpecStopExt {
    /// Returns a copy of this spec stopped at `t` (no-op if it already
    /// stops earlier).
    #[must_use]
    fn stop_by(self, t: simcore::SimTime) -> workload::JobSpec;
}

impl JobSpecStopExt for workload::JobSpec {
    fn stop_by(self, t: simcore::SimTime) -> workload::JobSpec {
        if self.stop_at().is_some_and(|s| s <= t) {
            return self;
        }
        let mut b = workload::JobSpec::builder(self.name())
            .rw(self.rw())
            .block_size(self.block_size())
            .iodepth(self.iodepth())
            .start_at(self.start_at())
            .engine(self.engine())
            .stop_at(t);
        if let Some(rate) = self.rate_bytes_per_sec() {
            b = b.rate_mib_s(rate / (1024.0 * 1024.0));
        }
        if let Some(burst) = self.burst() {
            b = b.burst(burst.on, burst.off);
        }
        b.build()
    }
}

#[cfg(test)]
mod ext_tests {
    use super::*;
    use simcore::SimTime;
    use workload::JobSpec;

    #[test]
    fn stop_by_caps_open_ended_jobs() {
        let j = JobSpec::lc_app("x").stop_by(SimTime::from_secs(1));
        assert_eq!(j.stop_at(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn stop_by_keeps_earlier_stop() {
        let j = JobSpec::builder("x")
            .stop_at(SimTime::from_millis(10))
            .build();
        let j = j.stop_by(SimTime::from_secs(1));
        assert_eq!(j.stop_at(), Some(SimTime::from_millis(10)));
    }

    #[test]
    fn stop_by_preserves_rate_and_burst() {
        let j = JobSpec::builder("x")
            .rate_mib_s(100.0)
            .burst(
                simcore::SimDuration::from_millis(1),
                simcore::SimDuration::from_millis(2),
            )
            .build()
            .stop_by(SimTime::from_secs(2));
        assert!((j.rate_bytes_per_sec().unwrap() - 100.0 * 1048576.0).abs() < 1.0);
        assert!(j.burst().is_some());
    }
}
