//! # nvme-sim — a discrete-event NVMe SSD model
//!
//! The substrate substituting for the paper's Samsung 980 PRO and Intel
//! Optane devices. The model has three interacting parts:
//!
//! 1. **Command units** — `units` parallel servers, each holding one
//!    request for an op/pattern-dependent command latency (µs-scale,
//!    lognormal body, rare heavy tail). These bound IOPS and set the
//!    QD-1 latency floor.
//! 2. **A shared data pipe** — all data transfer serializes through one
//!    virtual-time pipe whose rate depends on op, pattern, and GC
//!    pressure. This bounds bandwidth and creates contention between
//!    tenants (a request's completion is the *max* of its command path
//!    and its pipe slot).
//! 3. **Garbage collection** — writes accrue *debt*; debt raises
//!    [`GcState::level`], which steals pipe bandwidth from both reads and
//!    writes (read/write interference, §III preconditioning, Fig. 6b).
//!
//! [`DeviceProfile::flash`] is calibrated so 4 KiB random reads saturate
//! near the paper's ~2.9 GiB/s with ~70 µs QD-1 latency;
//! [`DeviceProfile::optane`] is the low-latency, symmetric, GC-free
//! comparison device.
//!
//! # Example
//!
//! ```
//! use nvme_sim::{DeviceProfile, NvmeDevice};
//! use blkio::{IoRequest, AppId, GroupId, DeviceId, IoOp, AccessPattern};
//! use simcore::{DetRng, SimTime};
//!
//! let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(7));
//! let req = IoRequest::new(1, AppId(0), GroupId(0), DeviceId(0), IoOp::Read,
//!                          AccessPattern::Random, 4096, 0, SimTime::ZERO);
//! dev.accept(req, SimTime::ZERO);
//! let started = dev.start_ready(SimTime::ZERO);
//! assert_eq!(started.len(), 1);
//! let cmd = started[0];
//! assert!(cmd.done_at > SimTime::ZERO);
//! // The service slot retires the request and hands it back.
//! let done = dev.complete(cmd.slot, cmd.done_at);
//! assert_eq!(done.id, 1);
//! ```
//!
//! Devices can also *misbehave*: install a seeded [`FaultPlan`] with
//! [`NvmeDevice::set_fault_plan`] and commands may complete with
//! [`CompletionStatus::MediaError`], stall past the host's `io_timeout`,
//! or spike in latency, while [`NvmeDevice::reset`] models a full
//! controller reset. Recovery (timeout, abort, retry, requeue) is the
//! host's job — see `host-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod fault;
mod gc;
mod profile;

pub use device::{InvalidProfile, NvmeDevice, ServiceSlot, StartedCmd};
pub use fault::{CommandFate, CompletionStatus, FaultConfig, FaultCounters, FaultPlan};
pub use gc::GcState;
pub use profile::{DeviceProfile, IocostCoefficients, TAIL_MULT_MIN};
