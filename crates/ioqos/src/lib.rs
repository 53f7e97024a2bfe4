//! # ioqos — cgroup block-I/O QoS controller models
//!
//! From-scratch implementations of the three cgroup-v2 QoS mechanisms the
//! paper evaluates (§IV-B), mirroring the kernel's `rq_qos` layering:
//!
//! * [`IoMaxThrottler`] — `io.max` / blk-throttle: static token buckets
//!   for rbps/wbps/riops/wiops per group. Never work-conserving, no
//!   prioritization (O8).
//! * [`IoLatencyController`] — `io.latency` / blk-iolatency: every 500 ms
//!   compares each protected group's achieved P90 completion latency to
//!   its target; on violation, *lower-priority* groups (higher or no
//!   target) have their effective queue depth halved (min 1); recovery
//!   adds `max_qd / 4` but only once the `use_delay` counter drains —
//!   which is why bursty prioritization takes seconds (O10).
//! * [`IoCostController`] — `io.cost` + `io.weight` / blk-iocost: every
//!   I/O gets an absolute cost from the linear device model; groups spend
//!   virtual time at `cost / hweight`; a group may dispatch while its
//!   vtime is within the margin of the global vtime, which advances at
//!   `vrate`. The QoS loop moves `vrate` within `[min, max]` based on
//!   measured tail latencies (O9).
//!
//! Controllers compose in a [`QosChain`] in kernel order
//! (`io.max` → `io.cost` → `io.latency`); requests held by one stage
//! resume at the next stage when released.
//!
//! # Example
//!
//! ```
//! use ioqos::{IoMaxThrottler, QosChain, QosController, SubmitOutcome};
//! use cgroup_sim::IoMax;
//! use blkio::{GroupId, IoRequest, AppId, DeviceId, IoOp, AccessPattern};
//! use simcore::SimTime;
//!
//! let mut throttler = IoMaxThrottler::new();
//! throttler.set_limits(GroupId(1), IoMax { riops: Some(10), ..Default::default() });
//! let req = IoRequest::new(0, AppId(0), GroupId(1), DeviceId(0), IoOp::Read,
//!                          AccessPattern::Random, 4096, 0, SimTime::ZERO);
//! // The first request passes on the burst allowance...
//! assert!(matches!(throttler.on_submit(req.clone(), SimTime::ZERO), SubmitOutcome::Pass(_)));
//! // ...the second is held until the 10 IOPS bucket refills.
//! let mut second = req.clone();
//! second.id = 1;
//! assert!(matches!(throttler.on_submit(second, SimTime::ZERO), SubmitOutcome::Held));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod chain;
#[cfg(test)]
mod differential;
mod iocost;
mod iolatency;
mod iomax;

pub use arena::{slot_of, GroupArena, GroupSlot, SlotSet};
pub use chain::QosChain;
pub use iocost::{IoCostConfig, IoCostController};
pub use iolatency::IoLatencyController;
pub use iomax::{burst_tokens, IoMaxThrottler, MIN_BURST_BYTES, MIN_BURST_IOS};

use blkio::IoRequest;
use simcore::{SimDuration, SimTime};

/// Result of offering a request to a QoS controller.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The request may proceed to the next stage immediately.
    Pass(IoRequest),
    /// The controller keeps the request; it will surface later via
    /// [`QosController::drain_released`].
    Held,
}

/// One cgroup QoS mechanism attached to a device queue (an `rq_qos`
/// policy in kernel terms).
///
/// The host engine offers each submitted request with `on_submit`,
/// reports device completions with `on_device_complete`, pumps held
/// requests out with `drain_released`, and calls `tick` whenever
/// `next_event` fires (window evaluation, vrate adjustment, token
/// refill). The `now` passed to successive calls never decreases.
pub trait QosController: std::fmt::Debug {
    /// Offers a request at instant `now`.
    fn on_submit(&mut self, req: IoRequest, now: SimTime) -> SubmitOutcome;

    /// Reports a device completion (latency feedback + slot release).
    fn on_device_complete(&mut self, req: &IoRequest, now: SimTime);

    /// Removes requests whose hold has expired at `now`, appending them
    /// to `out`. The engine calls this on nearly every event, so
    /// implementations must not allocate; callers pass a reused scratch
    /// buffer.
    fn drain_released_into(&mut self, now: SimTime, out: &mut Vec<IoRequest>);

    /// Convenience wrapper around
    /// [`QosController::drain_released_into`] returning a fresh `Vec`
    /// (allocates; for tests and one-off callers).
    fn drain_released(&mut self, now: SimTime) -> Vec<IoRequest> {
        let mut out = Vec::new();
        self.drain_released_into(now, &mut out);
        out
    }

    /// An instant before which [`QosController::drain_released_into`]
    /// releases nothing and changes nothing, so a caller may skip it: a
    /// lower bound on the next release that the controller keeps up to
    /// date as its inputs change (`now` itself or earlier when it cannot
    /// tell).
    fn release_due(&self, now: SimTime) -> SimTime;

    /// The earliest instant at which this controller needs attention
    /// (a hold expiry or a periodic evaluation), if any.
    fn next_event(&self, now: SimTime) -> Option<SimTime>;

    /// Performs periodic controller work due at or before `now`.
    fn tick(&mut self, now: SimTime);

    /// Extra per-I/O CPU burned on the submitting core. `deep_queue`
    /// distinguishes high-QD batch submitters (whose bookkeeping
    /// amortizes differently — e.g. iocost's per-cpu vtime caches make
    /// it cheaper per I/O, while blk-throttle's per-bio hierarchy walk
    /// makes io.max more expensive), reproducing the paper's Fig. 3 vs
    /// Fig. 4 overhead orderings.
    fn submit_cpu_overhead(&self, deep_queue: bool) -> SimDuration;

    /// Controller name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod test_util {
    use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest, ReqId};
    use simcore::SimTime;

    pub fn req(id: ReqId, group: usize, op: IoOp, len: u32, at: SimTime) -> IoRequest {
        IoRequest::new(
            id,
            AppId(group),
            GroupId(group),
            DeviceId(0),
            op,
            AccessPattern::Random,
            len,
            0,
            at,
        )
    }

    pub fn read4k(id: ReqId, group: usize, at: SimTime) -> IoRequest {
        req(id, group, IoOp::Read, 4096, at)
    }
}
