//! # isol-bench — a benchmark suite for storage performance isolation
//!
//! The reproduction of the paper's primary contribution: a suite that
//! quantifies the four performance-isolation desiderata (§II-B) for any
//! I/O-control mechanism, applied to the five Linux cgroup knobs:
//!
//! | desideratum | module | paper artifacts |
//! |---|---|---|
//! | D1 overhead & scalability | [`experiments::fig3`], [`experiments::fig4`] | Fig. 3, Fig. 4, O1–O2 |
//! | D2 proportional fairness | [`experiments::fig5`], [`experiments::fig6`] | Fig. 5, Fig. 6, O3–O5 |
//! | D3 priority/utilization trade-offs | [`experiments::fig7`] | Fig. 7, O6–O9 |
//! | D4 burst response | [`experiments::q10`] | §VI-C, O10 |
//! | knob showcases | [`experiments::fig2`] | Fig. 2 |
//! | the verdict matrix | [`experiments::table1`] | Table I |
//!
//! Building blocks:
//!
//! * [`Knob`] — the six configurations under test (`none`, MQ-DL +
//!   `io.prio.class`, BFQ + `io.bfq.weight`, `io.max`, `io.latency`,
//!   `io.cost` + `io.weight`) and how each is wired into a cgroup
//!   hierarchy for overhead, fairness, and priority scenarios,
//! * [`Scenario`] — one benchmark run: a cgroup tree, apps, devices, a
//!   duration; produces a [`host_sim::RunReport`],
//! * [`Fidelity`] — run-length scaling: `Smoke` for CI, `Standard` for
//!   the `figures` binary, `Full` for paper-length runs.
//!
//! # Example
//!
//! ```
//! use isol_bench::{Fidelity, Knob, Scenario};
//! use workload::JobSpec;
//!
//! // Two tenants with 2:1 io.cost weights sharing one flash SSD.
//! let mut s = Scenario::new("quickstart", 4, vec![Knob::IoCost.device_setup(false)]);
//! let a = s.add_cgroup("tenant-a");
//! let b = s.add_cgroup("tenant-b");
//! Knob::IoCost.configure_weights(&mut s, &[a, b], &[200, 100]);
//! s.add_app(a, JobSpec::batch_app("a"));
//! s.add_app(b, JobSpec::batch_app("b"));
//! let report = s.run(Fidelity::Smoke.short_run());
//! let bw = report.app_bandwidths();
//! assert!(bw[0] > bw[1]); // weight 200 beats weight 100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cell;
pub mod experiments;
mod fidelity;
mod knob;
mod output;
pub mod runner;
mod scenario;
pub mod scenario_file;
pub mod traceck;
pub mod tracing;

pub use cell::{Cell, CellRows, Staged};
pub use fidelity::Fidelity;
pub use knob::Knob;
pub use output::OutputSink;
pub use runner::{run_cells, RunConfig};
pub use scenario::{cgroup_bandwidths, Scenario};
