//! # iosched-sim — Linux multi-queue I/O scheduler models
//!
//! From-scratch implementations of the block-layer schedulers the paper
//! evaluates (§IV-B), behind one [`IoScheduler`] trait:
//!
//! * [`Noop`] — scheduler `none`: a plain FIFO with negligible cost,
//! * [`MqDeadline`] — MQ-Deadline with the three `ioprio` classes
//!   (realtime > best-effort > idle), strict priority dispatch plus an
//!   anti-starvation aging timeout (`prio_aging_expire`),
//! * [`Bfq`] — BFQ with per-group weights (`io.bfq.weight`), virtual-time
//!   fair queueing, per-slice budgets, and the `slice_idle` device idling
//!   that costs utilization (Fig. 2c/d, Fig. 4),
//! * [`Kyber`] — a simplified Kyber (latency-target token scheduler),
//!   included as an extension beyond the paper's evaluated set.
//!
//! Two cost hooks let the host model the schedulers' overheads
//! faithfully: [`IoScheduler::dispatch_overhead`] (the serialized
//! dispatch-path cost that caps bandwidth — Fig. 4) and
//! [`IoScheduler::submit_cpu_overhead`] (extra per-I/O CPU on the
//! submitting core — Fig. 3).
//!
//! # Example
//!
//! ```
//! use iosched_sim::{IoScheduler, MqDeadline, SchedKind};
//! use blkio::{IoRequest, AppId, GroupId, DeviceId, IoOp, AccessPattern, PrioClass};
//! use simcore::SimTime;
//!
//! let mut sched = MqDeadline::new(Default::default());
//! let mut rt = IoRequest::new(0, AppId(0), GroupId(1), DeviceId(0), IoOp::Read,
//!                             AccessPattern::Random, 4096, 0, SimTime::ZERO);
//! rt.prio = PrioClass::Realtime;
//! let mut idle = rt.clone();
//! idle.id = 1;
//! idle.prio = PrioClass::Idle;
//! sched.insert(idle, SimTime::ZERO);
//! sched.insert(rt, SimTime::ZERO);
//! // Realtime dispatches first even though idle arrived first.
//! assert_eq!(sched.dispatch(SimTime::ZERO).unwrap().id, 0);
//! assert_eq!(sched.kind(), SchedKind::MqDeadline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfq;
mod kyber;
mod mq_deadline;
mod noop;

pub use bfq::{Bfq, BfqConfig};
pub use kyber::{Kyber, KyberConfig};
pub use mq_deadline::{MqDeadline, MqDeadlineConfig};
pub use noop::Noop;

use blkio::{GroupId, IoRequest, PrioClass};
use serde::{Deserialize, Serialize};
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{SimDuration, SimTime};

/// Trace probe shared by the enqueue/dispatch instrumentation points.
fn sched_event(kind: TraceKind, req: &IoRequest, now: SimTime) -> TraceEvent {
    let class = match req.prio {
        PrioClass::Realtime => 0,
        PrioClass::BestEffort => 1,
        PrioClass::Idle => 2,
    };
    TraceEvent::new(
        now.as_nanos(),
        kind,
        req.id,
        req.group.0 as u32,
        req.dev.0 as u32,
        class,
        u64::from(req.op.is_write()),
    )
}

/// Which scheduler is attached to a device queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedKind {
    /// Scheduler `none` (the NVMe default).
    #[default]
    None,
    /// MQ-Deadline.
    MqDeadline,
    /// BFQ.
    Bfq,
    /// Kyber (extension).
    Kyber,
}

impl SchedKind {
    /// sysfs name, as shown in `/sys/block/*/queue/scheduler`.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            SchedKind::None => "none",
            SchedKind::MqDeadline => "mq-deadline",
            SchedKind::Bfq => "bfq",
            SchedKind::Kyber => "kyber",
        }
    }
}

impl std::fmt::Display for SchedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A block-layer I/O scheduler instance attached to one device.
///
/// The host engine inserts submitted requests, asks for dispatches when
/// the device has room, and reports completions back. `dispatch` may
/// return `None` even with pending requests (BFQ's `slice_idle`); in that
/// case [`IoScheduler::next_timer`] says when to retry.
pub trait IoScheduler: std::fmt::Debug {
    /// Queues a request.
    fn insert(&mut self, req: IoRequest, now: SimTime);

    /// Picks the next request to send to the device, or `None` if the
    /// scheduler chooses to wait (idling) or has nothing.
    fn dispatch(&mut self, now: SimTime) -> Option<IoRequest>;

    /// `true` if any request is queued (even if `dispatch` would return
    /// `None` right now).
    fn has_pending(&self) -> bool;

    /// The earliest instant at which `dispatch` might newly succeed while
    /// requests are pending (idle expiry, aging deadline); `None` if a
    /// call right now would already succeed or nothing is pending.
    fn next_timer(&self, now: SimTime) -> Option<SimTime>;

    /// Reports a device completion for a request this scheduler
    /// dispatched.
    fn on_complete(&mut self, req: &IoRequest, now: SimTime);

    /// Serialized per-request dispatch cost (the scheduler-lock path);
    /// this is what caps the schedulers' bandwidth in Fig. 4.
    fn dispatch_overhead(&self) -> SimDuration;

    /// Extra per-I/O CPU burned on the submitting core (Fig. 3 overhead).
    fn submit_cpu_overhead(&self) -> SimDuration;

    /// Updates the absolute weight of a cgroup (used by BFQ; default
    /// no-op).
    fn set_group_weight(&mut self, group: GroupId, weight: u32) {
        let _ = (group, weight);
    }

    /// Which scheduler this is.
    fn kind(&self) -> SchedKind;
}

/// Enum dispatch over the closed scheduler set.
///
/// The kernel's elevator framework is an open registry, but this
/// simulation models exactly four schedulers, so the host engine stores
/// this enum instead of `Box<dyn IoScheduler>`: every per-request call
/// (`insert`/`dispatch`/`on_complete` and the two overhead probes) is a
/// direct, inlinable match instead of a vtable hop, and the scheduler
/// lives inline in `DeviceHost` rather than behind a heap pointer.
// Inline variants on purpose: one scheduler exists per device, and the
// engine calls through it on every event — boxing the large variants
// would reintroduce the pointer hop this enum removes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Scheduler {
    /// Scheduler `none`.
    Noop(Noop),
    /// MQ-Deadline.
    MqDeadline(MqDeadline),
    /// BFQ.
    Bfq(Bfq),
    /// Kyber.
    Kyber(Kyber),
}

macro_rules! each_sched {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            Scheduler::Noop($s) => $body,
            Scheduler::MqDeadline($s) => $body,
            Scheduler::Bfq($s) => $body,
            Scheduler::Kyber($s) => $body,
        }
    };
}

impl Scheduler {
    /// Creates a scheduler of the given kind with default config.
    #[must_use]
    pub fn new(kind: SchedKind) -> Self {
        match kind {
            SchedKind::None => Scheduler::Noop(Noop::new()),
            SchedKind::MqDeadline => Scheduler::MqDeadline(MqDeadline::new(Default::default())),
            SchedKind::Bfq => Scheduler::Bfq(Bfq::new(Default::default())),
            SchedKind::Kyber => Scheduler::Kyber(Kyber::new(Default::default())),
        }
    }

    /// Queues a request. See [`IoScheduler::insert`].
    #[inline]
    pub fn insert(&mut self, req: IoRequest, now: SimTime) {
        trace::record_with(|| sched_event(TraceKind::SchedEnqueue, &req, now));
        each_sched!(self, s => s.insert(req, now));
    }

    /// Picks the next request to dispatch. See [`IoScheduler::dispatch`].
    #[inline]
    pub fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        let picked = each_sched!(self, s => s.dispatch(now));
        if let Some(req) = &picked {
            trace::record_with(|| sched_event(TraceKind::SchedDispatch, req, now));
        }
        picked
    }

    /// `true` if any request is queued. See [`IoScheduler::has_pending`].
    #[inline]
    #[must_use]
    pub fn has_pending(&self) -> bool {
        each_sched!(self, s => s.has_pending())
    }

    /// Earliest instant `dispatch` might newly succeed. See
    /// [`IoScheduler::next_timer`].
    #[inline]
    #[must_use]
    pub fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        each_sched!(self, s => s.next_timer(now))
    }

    /// Reports a device completion. See [`IoScheduler::on_complete`].
    #[inline]
    pub fn on_complete(&mut self, req: &IoRequest, now: SimTime) {
        each_sched!(self, s => s.on_complete(req, now));
    }

    /// Serialized per-request dispatch cost. See
    /// [`IoScheduler::dispatch_overhead`].
    #[inline]
    #[must_use]
    pub fn dispatch_overhead(&self) -> SimDuration {
        each_sched!(self, s => s.dispatch_overhead())
    }

    /// Extra per-I/O submit CPU. See
    /// [`IoScheduler::submit_cpu_overhead`].
    #[inline]
    #[must_use]
    pub fn submit_cpu_overhead(&self) -> SimDuration {
        each_sched!(self, s => s.submit_cpu_overhead())
    }

    /// Updates a cgroup's weight. See [`IoScheduler::set_group_weight`].
    pub fn set_group_weight(&mut self, group: GroupId, weight: u32) {
        each_sched!(self, s => s.set_group_weight(group, weight));
    }

    /// Which scheduler this is.
    #[must_use]
    pub fn kind(&self) -> SchedKind {
        each_sched!(self, s => s.kind())
    }
}

impl From<Noop> for Scheduler {
    fn from(s: Noop) -> Self {
        Scheduler::Noop(s)
    }
}

impl From<MqDeadline> for Scheduler {
    fn from(s: MqDeadline) -> Self {
        Scheduler::MqDeadline(s)
    }
}

impl From<Bfq> for Scheduler {
    fn from(s: Bfq) -> Self {
        Scheduler::Bfq(s)
    }
}

impl From<Kyber> for Scheduler {
    fn from(s: Kyber) -> Self {
        Scheduler::Kyber(s)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest, PrioClass, ReqId};
    use simcore::SimTime;

    pub fn req(id: ReqId, group: usize, len: u32, at: SimTime) -> IoRequest {
        IoRequest::new(
            id,
            AppId(group),
            GroupId(group),
            DeviceId(0),
            IoOp::Read,
            AccessPattern::Random,
            len,
            0,
            at,
        )
    }

    pub fn seq_req(id: ReqId, group: usize, len: u32, at: SimTime) -> IoRequest {
        let mut r = req(id, group, len, at);
        r.pattern = AccessPattern::Sequential;
        r
    }

    pub fn req_prio(id: ReqId, group: usize, prio: PrioClass, at: SimTime) -> IoRequest {
        let mut r = req(id, group, 4096, at);
        r.prio = prio;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_sysfs() {
        assert_eq!(SchedKind::None.to_string(), "none");
        assert_eq!(SchedKind::MqDeadline.to_string(), "mq-deadline");
        assert_eq!(SchedKind::Bfq.to_string(), "bfq");
        assert_eq!(SchedKind::Kyber.to_string(), "kyber");
    }

    #[test]
    fn factory_builds_each_kind() {
        for kind in [
            SchedKind::None,
            SchedKind::MqDeadline,
            SchedKind::Bfq,
            SchedKind::Kyber,
        ] {
            let s = Scheduler::new(kind);
            assert_eq!(s.kind(), kind);
            assert!(!s.has_pending());
            assert_eq!(s.next_timer(SimTime::ZERO), None);
        }
    }

    #[test]
    fn enum_dispatch_round_trips_a_request() {
        let mut s = Scheduler::new(SchedKind::MqDeadline);
        let r = test_util::req(7, 1, 4096, SimTime::ZERO);
        s.insert(r, SimTime::ZERO);
        assert!(s.has_pending());
        let out = s.dispatch(SimTime::ZERO).expect("dispatchable");
        assert_eq!(out.id, 7);
        s.on_complete(&out, SimTime::ZERO);
        assert!(!s.has_pending());
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        // BFQ > MQ-DL > none, both in dispatch and CPU cost (O1, O2).
        let none = Scheduler::new(SchedKind::None);
        let mq = Scheduler::new(SchedKind::MqDeadline);
        let bfq = Scheduler::new(SchedKind::Bfq);
        assert!(bfq.dispatch_overhead() > mq.dispatch_overhead());
        assert!(mq.dispatch_overhead() > none.dispatch_overhead());
        assert!(bfq.submit_cpu_overhead() > mq.submit_cpu_overhead());
        assert!(mq.submit_cpu_overhead() > none.submit_cpu_overhead());
    }
}
