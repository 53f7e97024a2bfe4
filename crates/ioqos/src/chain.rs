//! Composition of QoS controllers into the kernel's `rq_qos` stack.

use blkio::IoRequest;
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{SimDuration, SimTime};

use crate::{IoCostController, IoLatencyController, IoMaxThrottler, QosController, SubmitOutcome};

/// One stage in the chain. The set is closed: these are the three
/// mechanisms cgroup v2 exposes.
// Inline variants on purpose: a chain holds at most three stages, and
// the engine walks them on every event — boxing the large `Cost`
// variant would trade a few bytes for a pointer hop on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Stage {
    Max(IoMaxThrottler),
    Cost(IoCostController),
    Latency(IoLatencyController),
}

/// Runs `$body` with `$c` bound to the stage's controller: a closed
/// `match`, so each arm calls its controller directly.
macro_rules! each_stage {
    ($stage:expr, $c:ident => $body:expr) => {
        match $stage {
            Stage::Max($c) => $body,
            Stage::Cost($c) => $body,
            Stage::Latency($c) => $body,
        }
    };
}

/// The ordered stack of QoS controllers in front of one device's
/// scheduler, mirroring the kernel order: blk-throttle (`io.max`) →
/// blk-iocost (`io.cost`) → blk-iolatency (`io.latency`).
///
/// A submitted request traverses the stages in order; any stage may hold
/// it. [`QosChain::drain`] pumps requests that a stage released onward
/// through the remaining stages and returns those that cleared the whole
/// stack. A drain before every stage's
/// [`QosController::release_due`] — the common pump, which finds every
/// held head still waiting — walks no stage.
///
/// # Example
///
/// ```
/// use ioqos::{QosChain, IoMaxThrottler};
/// use blkio::{IoRequest, AppId, GroupId, DeviceId, IoOp, AccessPattern};
/// use simcore::SimTime;
///
/// let mut chain = QosChain::new();
/// chain.push_io_max(IoMaxThrottler::new());
/// let req = IoRequest::new(0, AppId(0), GroupId(0), DeviceId(0), IoOp::Read,
///                          AccessPattern::Random, 4096, 0, SimTime::ZERO);
/// // No limits configured: the request clears the chain immediately.
/// assert!(chain.submit(req, SimTime::ZERO).is_some());
/// ```
#[derive(Debug, Default)]
pub struct QosChain {
    stages: Vec<Stage>,
    /// Reused scratch for stage-released requests (kept empty between
    /// [`QosChain::drain_into`] calls).
    released: Vec<IoRequest>,
}

impl QosChain {
    /// Creates an empty chain (no QoS control — the "none" baseline).
    #[must_use]
    pub fn new() -> Self {
        QosChain::default()
    }

    /// Appends an `io.max` throttler stage.
    pub fn push_io_max(&mut self, c: IoMaxThrottler) -> &mut Self {
        self.stages.push(Stage::Max(c));
        self
    }

    /// Appends an `io.cost` controller stage.
    pub fn push_io_cost(&mut self, c: IoCostController) -> &mut Self {
        self.stages.push(Stage::Cost(c));
        self
    }

    /// Appends an `io.latency` controller stage.
    pub fn push_io_latency(&mut self, c: IoLatencyController) -> &mut Self {
        self.stages.push(Stage::Latency(c));
        self
    }

    /// Mutable access to the `io.max` stage, if present.
    pub fn io_max_mut(&mut self) -> Option<&mut IoMaxThrottler> {
        self.stages.iter_mut().find_map(|s| match s {
            Stage::Max(c) => Some(c),
            _ => None,
        })
    }

    /// Mutable access to the `io.cost` stage, if present.
    pub fn io_cost_mut(&mut self) -> Option<&mut IoCostController> {
        self.stages.iter_mut().find_map(|s| match s {
            Stage::Cost(c) => Some(c),
            _ => None,
        })
    }

    /// Shared access to the `io.cost` stage, if present.
    #[must_use]
    pub fn io_cost(&self) -> Option<&IoCostController> {
        self.stages.iter().find_map(|s| match s {
            Stage::Cost(c) => Some(c),
            _ => None,
        })
    }

    /// Mutable access to the `io.latency` stage, if present.
    pub fn io_latency_mut(&mut self) -> Option<&mut IoLatencyController> {
        self.stages.iter_mut().find_map(|s| match s {
            Stage::Latency(c) => Some(c),
            _ => None,
        })
    }

    /// Shared access to the `io.latency` stage, if present.
    #[must_use]
    pub fn io_latency(&self) -> Option<&IoLatencyController> {
        self.stages.iter().find_map(|s| match s {
            Stage::Latency(c) => Some(c),
            _ => None,
        })
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if the chain has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    fn feed_from(&mut self, mut req: IoRequest, now: SimTime) -> Option<IoRequest> {
        let start = usize::from(req.qos_stage);
        for i in start..self.stages.len() {
            req.qos_stage = i as u8;
            let (id, group, dev) = (req.id, req.group, req.dev);
            match each_stage!(&mut self.stages[i], c => c.on_submit(req, now)) {
                SubmitOutcome::Pass(r) => req = r,
                SubmitOutcome::Held => {
                    trace::record_with(|| {
                        TraceEvent::new(
                            now.as_nanos(),
                            TraceKind::QosEnter,
                            id,
                            group.0 as u32,
                            dev.0 as u32,
                            i as u64,
                            0,
                        )
                    });
                    return None;
                }
            }
        }
        req.qos_stage = self.stages.len() as u8;
        Some(req)
    }

    /// Offers a freshly submitted request; returns it if it cleared the
    /// whole chain, or `None` if some stage held it.
    pub fn submit(&mut self, mut req: IoRequest, now: SimTime) -> Option<IoRequest> {
        req.qos_stage = 0;
        self.feed_from(req, now)
    }

    /// Reports a device completion to every stage (latency feedback and
    /// slot release).
    pub fn on_device_complete(&mut self, req: &IoRequest, now: SimTime) {
        for s in &mut self.stages {
            each_stage!(s, c => c.on_device_complete(req, now));
        }
    }

    /// Pumps stage-released requests through the rest of the chain,
    /// appending those that cleared it entirely to `out`. Runs on
    /// nearly every engine event; with a caller-reused `out` the whole
    /// pass is allocation-free.
    pub fn drain_into(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        if now < self.release_due(now) {
            return;
        }
        let mut released = std::mem::take(&mut self.released);
        for i in 0..self.stages.len() {
            released.clear();
            each_stage!(&mut self.stages[i], c => c.drain_released_into(now, &mut released));
            for mut r in released.drain(..) {
                r.qos_stage = (i + 1) as u8;
                if let Some(done) = self.feed_from(r, now) {
                    out.push(done);
                }
            }
        }
        released.clear();
        self.released = released;
    }

    /// Convenience wrapper around [`QosChain::drain_into`] returning a
    /// fresh `Vec` (allocates; for tests and one-off callers).
    pub fn drain(&mut self, now: SimTime) -> Vec<IoRequest> {
        let mut out = Vec::new();
        self.drain_into(now, &mut out);
        out
    }

    /// The earliest [`QosController::release_due`] of any stage: before
    /// it [`QosChain::drain_into`] is a no-op.
    fn release_due(&self, now: SimTime) -> SimTime {
        self.stages
            .iter()
            .map(|s| each_stage!(s, c => c.release_due(now)))
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// The earliest instant any stage needs attention.
    #[must_use]
    pub fn next_event(&self, now: SimTime) -> Option<SimTime> {
        self.stages
            .iter()
            .filter_map(|s| each_stage!(s, c => c.next_event(now)))
            .min()
    }

    /// Runs periodic work on every stage.
    pub fn tick(&mut self, now: SimTime) {
        for s in &mut self.stages {
            each_stage!(s, c => c.tick(now));
        }
    }

    /// Total extra per-I/O submit-path CPU of all stages; `deep_queue`
    /// selects the high-QD cost profile (see
    /// [`QosController::submit_cpu_overhead`]).
    #[must_use]
    pub fn submit_cpu_overhead(&self, deep_queue: bool) -> SimDuration {
        self.stages.iter().fold(SimDuration::ZERO, |acc, s| {
            acc + each_stage!(s, c => c.submit_cpu_overhead(deep_queue))
        })
    }
}

/// The drain and `next_event` as they were before stages kept their
/// release instants: every pump walks every stage, each through its own
/// literal reference. The differential tests' reference.
#[cfg(test)]
impl QosChain {
    pub(crate) fn drain_literal(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        let mut released = std::mem::take(&mut self.released);
        for i in 0..self.stages.len() {
            released.clear();
            each_stage!(&mut self.stages[i], c => c.drain_literal(now, &mut released));
            for mut r in released.drain(..) {
                r.qos_stage = (i + 1) as u8;
                if let Some(done) = self.feed_from(r, now) {
                    out.push(done);
                }
            }
        }
        released.clear();
        self.released = released;
    }

    pub(crate) fn next_event_literal(&self, now: SimTime) -> Option<SimTime> {
        self.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Max(c) => c.next_event_literal(now),
                Stage::Cost(c) => c.next_event_literal(now),
                Stage::Latency(c) => c.next_event(now),
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::read4k;
    use blkio::GroupId;
    use cgroup_sim::IoMax;

    #[test]
    fn empty_chain_is_transparent() {
        let mut chain = QosChain::new();
        let r = read4k(0, 1, SimTime::ZERO);
        let out = chain.submit(r, SimTime::ZERO).unwrap();
        assert_eq!(out.id, 0);
        assert!(chain.is_empty());
        assert_eq!(chain.next_event(SimTime::ZERO), None);
        assert_eq!(chain.submit_cpu_overhead(false), SimDuration::ZERO);
    }

    #[test]
    fn held_at_first_stage_resumes_through_second() {
        let mut chain = QosChain::new();
        let mut throttler = IoMaxThrottler::new();
        throttler.set_limits(
            GroupId(1),
            IoMax {
                riops: Some(10),
                ..Default::default()
            },
        );
        chain.push_io_max(throttler);
        chain.push_io_latency(IoLatencyController::new(1024));
        chain
            .io_latency_mut()
            .unwrap()
            .set_target(GroupId(9), Some(1_000));
        // Burst allowance is 1 request; the second is held at io.max.
        assert!(chain
            .submit(read4k(0, 1, SimTime::ZERO), SimTime::ZERO)
            .is_some());
        assert!(chain
            .submit(read4k(1, 1, SimTime::ZERO), SimTime::ZERO)
            .is_none());
        // After 100 ms a token accrued; drain must push it through the
        // io.latency stage too and return it fully cleared.
        let out = chain.drain(SimTime::from_millis(100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 1);
        assert_eq!(usize::from(out[0].qos_stage), chain.len());
    }

    #[test]
    fn completion_reaches_all_stages() {
        let mut chain = QosChain::new();
        chain.push_io_latency(IoLatencyController::new(2));
        chain
            .io_latency_mut()
            .unwrap()
            .set_target(GroupId(1), Some(100));
        // Fill the QD-2 gate.
        let a = chain
            .submit(read4k(0, 2, SimTime::ZERO), SimTime::ZERO)
            .unwrap();
        let _b = chain
            .submit(read4k(1, 2, SimTime::ZERO), SimTime::ZERO)
            .unwrap();
        assert!(chain
            .submit(read4k(2, 2, SimTime::ZERO), SimTime::ZERO)
            .is_none());
        // Completing one frees a slot; drain releases the held request.
        chain.on_device_complete(&a, SimTime::from_micros(50));
        let out = chain.drain(SimTime::from_micros(50));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 2);
    }

    #[test]
    fn overheads_accumulate() {
        let mut chain = QosChain::new();
        chain.push_io_max(IoMaxThrottler::new());
        chain.push_io_latency(IoLatencyController::new(1024));
        assert_eq!(
            chain.submit_cpu_overhead(false),
            SimDuration::from_nanos(400)
        );
        assert_eq!(
            chain.submit_cpu_overhead(true),
            SimDuration::from_nanos(750)
        );
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn stage_accessors_find_their_stage() {
        let mut chain = QosChain::new();
        chain.push_io_max(IoMaxThrottler::new());
        assert!(chain.io_max_mut().is_some());
        assert!(chain.io_cost_mut().is_none());
        assert!(chain.io_latency_mut().is_none());
    }
}
