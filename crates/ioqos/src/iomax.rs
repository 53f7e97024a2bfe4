//! `io.max` (blk-throttle): static token-bucket limiting.

use std::collections::VecDeque;

use blkio::{GroupId, IoRequest};
use cgroup_sim::IoMax;
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{SimDuration, SimTime, TokenBucket};

use crate::arena::{GroupArena, SlotSet};
use crate::{QosController, SubmitOutcome};

/// Burst window the buckets accumulate (kernel `throtl_slice`-like).
const BURST_SECS: f64 = 0.05;

/// Minimum burst allowance of a byte-rate bucket.
pub const MIN_BURST_BYTES: f64 = 256.0 * 1024.0;

/// Minimum burst allowance of an IOPS bucket.
pub const MIN_BURST_IOS: f64 = 1.0;

/// The burst capacity (in tokens) a bucket with the given rate gets.
/// Exported so the trace-invariant checker replays the exact budget the
/// throttler enforces.
#[must_use]
pub fn burst_tokens(rate: u64, min_burst: f64) -> f64 {
    let r = rate.max(1) as f64;
    (r * BURST_SECS).max(min_burst)
}

/// What a held head's buckets say, read at one instant and kept until
/// an input they read changes (a token take, the head itself, or new
/// limits — each of which resets it to [`HeadHold::STALE`]).
#[derive(Debug, Clone, Copy)]
struct HeadHold {
    /// The least instant at which the head's tokens are ready: exact for
    /// every instant while the buckets and the head are untouched,
    /// because readiness is a step function of time
    /// ([`TokenBucket::ready_from`]). `SimTime::MAX`: never.
    release_at: SimTime,
    /// `availability(head, t)` for every `t` from the read until `until`.
    next_at: SimTime,
    /// End of `next_at`'s validity: the first instant a not-ready bucket
    /// turns ready, or the instant after the read where a bucket's wait
    /// is not provably steady ([`TokenBucket::wait_is_steady`]).
    until: SimTime,
}

impl HeadHold {
    /// Must be read again before use (`until` lies before any instant).
    const STALE: HeadHold = HeadHold {
        release_at: SimTime::ZERO,
        next_at: SimTime::ZERO,
        until: SimTime::ZERO,
    };
}

/// One direction of a group: its byte and IOPS buckets and its FIFO of
/// held requests (reads and writes queue independently, as in
/// blk-throttle).
#[derive(Debug)]
struct DirThrottle {
    bps: Option<TokenBucket>,
    iops: Option<TokenBucket>,
    held: VecDeque<IoRequest>,
    /// The held head's hold (stale when `held` is empty).
    hold: HeadHold,
}

impl DirThrottle {
    fn new(bps: Option<u64>, iops: Option<u64>) -> Self {
        let bucket = |rate: Option<u64>, min_burst: f64| {
            rate.map(|r| TokenBucket::new(r.max(1) as f64, burst_tokens(r, min_burst)))
        };
        DirThrottle {
            bps: bucket(bps, MIN_BURST_BYTES),
            iops: bucket(iops, MIN_BURST_IOS),
            held: VecDeque::new(),
            hold: HeadHold::STALE,
        }
    }

    /// The buckets with the tokens a request of `len` bytes needs.
    fn needs(&self, len: u32) -> impl Iterator<Item = (&TokenBucket, f64)> {
        let bps = self.bps.as_ref().map(|b| (b, f64::from(len)));
        let iops = self.iops.as_ref().map(|b| (b, 1.0));
        bps.into_iter().chain(iops)
    }

    fn availability(&self, len: u32, now: SimTime) -> SimTime {
        self.needs(len)
            .fold(now, |at, (b, n)| at.max(b.available_at(n, now)))
    }

    /// Consumes the tokens for a request of `len` bytes. Availability was
    /// verified up to nanosecond rounding; `take_debt` tolerates the
    /// sub-token residue.
    fn take(&mut self, len: u32, now: SimTime) {
        if let Some(b) = &mut self.bps {
            b.take_debt(f64::from(len), now);
        }
        if let Some(b) = &mut self.iops {
            b.take_debt(1.0, now);
        }
    }

    /// Reads the held head's hold at `now`. Callers release a head that
    /// reads ready at once, so `until` matters only for heads waiting on
    /// some bucket.
    fn read_head(&self, now: SimTime) -> HeadHold {
        let len = self.held.front().expect("a held head").len;
        let mut release_at = SimTime::ZERO;
        let mut until = SimTime::MAX;
        for (b, n) in self.needs(len) {
            let ready = b.ready_from(n, now).unwrap_or(SimTime::MAX);
            release_at = release_at.max(ready);
            if ready > now {
                let steady = if b.wait_is_steady(n, now) {
                    ready
                } else {
                    now + SimDuration::from_nanos(1)
                };
                until = until.min(steady);
            }
        }
        HeadHold {
            release_at,
            next_at: self.availability(len, now),
            until,
        }
    }
}

#[derive(Debug)]
struct GroupThrottle {
    limits: IoMax,
    /// Reads (index 0) and writes (index 1).
    dirs: [DirThrottle; 2],
}

impl GroupThrottle {
    fn new(limits: IoMax) -> Self {
        GroupThrottle {
            dirs: [
                DirThrottle::new(limits.rbps, limits.riops),
                DirThrottle::new(limits.wbps, limits.wiops),
            ],
            limits,
        }
    }

    fn held_len(&self) -> usize {
        self.dirs.iter().map(|d| d.held.len()).sum()
    }
}

/// Index of a request's direction in [`GroupThrottle::dirs`].
fn dir_of(req: &IoRequest) -> usize {
    usize::from(req.op.is_write())
}

/// The `io.max` throttler for one device.
///
/// Groups without limits pass through untouched. Limited groups are
/// throttled by independent read/write byte and IOPS token buckets;
/// requests queue FIFO per group while tokens are short. The mechanism
/// is static: it never redistributes unused budget (not
/// work-conserving, O8) and provides no prioritization.
///
/// Like the kernel's one pending timer per throttled group, each held
/// head keeps its exact release instant ([`HeadHold`]), so a pump
/// before the earliest of them costs a compare.
#[derive(Debug, Default)]
pub struct IoMaxThrottler {
    /// Limited groups occupy a slot, as do groups whose limits were
    /// lifted while they held requests (a slot without buckets, which
    /// passes everything); everyone else passes through.
    groups: GroupArena<GroupThrottle>,
    /// Groups with held requests — the only slots the drain and the
    /// `next_event` fallback walk.
    backlogged: SlotSet,
    /// Total held requests across groups.
    held_total: usize,
    /// Minimum `until` over the held heads: before it no head can
    /// release and `next_event` is `next_at`. `ZERO` (the default) when
    /// unknown, forcing the next drain to walk.
    due: SimTime,
    /// Minimum `next_at` over the held heads (meaningful before `due`).
    next_at: SimTime,
    /// Reused scratch for the drain walk (kept empty between calls).
    scratch_ids: Vec<GroupId>,
}

impl IoMaxThrottler {
    /// Creates a throttler with no limits configured.
    #[must_use]
    pub fn new() -> Self {
        IoMaxThrottler::default()
    }

    /// Sets (or clears, when unlimited) a group's limits, as a write to
    /// that group's `io.max` file would.
    ///
    /// Held requests survive the write, in order. Once no limit is left
    /// they pass at the next drain without taking tokens, as
    /// blk-throttle dispatches a group's queued bios when its limits
    /// are lifted.
    pub fn set_limits(&mut self, group: GroupId, limits: IoMax) {
        self.due = SimTime::ZERO;
        let mut fresh = GroupThrottle::new(limits);
        if let Some(g) = self.groups.get_mut(group) {
            for (new, old) in fresh.dirs.iter_mut().zip(&mut g.dirs) {
                new.held = std::mem::take(&mut old.held);
            }
        }
        if limits.is_unlimited() && fresh.held_len() == 0 {
            self.groups.remove(group);
        } else {
            self.groups.insert(group, fresh);
        }
    }

    /// The configured limits for a group (unlimited if never set).
    #[must_use]
    pub fn limits(&self, group: GroupId) -> IoMax {
        self.groups
            .get(group)
            .map_or_else(IoMax::default, |g| g.limits)
    }

    /// Number of requests currently held.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held_total
    }
}

impl QosController for IoMaxThrottler {
    fn on_submit(&mut self, req: IoRequest, now: SimTime) -> SubmitOutcome {
        let Some(g) = self.groups.get_mut(req.group) else {
            return SubmitOutcome::Pass(req);
        };
        let d = &mut g.dirs[dir_of(&req)];
        if d.held.is_empty() && d.availability(req.len, now) <= now {
            d.take(req.len, now);
            trace::record_with(|| iomax_pass_event(&req, now));
            return SubmitOutcome::Pass(req);
        }
        let group = req.group;
        d.held.push_back(req);
        if d.held.len() == 1 {
            d.hold = d.read_head(now);
            self.due = self.due.min(d.hold.until);
            self.next_at = self.next_at.min(d.hold.next_at);
        }
        self.held_total += 1;
        self.backlogged.insert(group);
        SubmitOutcome::Held
    }

    fn on_device_complete(&mut self, _req: &IoRequest, _now: SimTime) {}

    fn drain_released_into(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        if now < self.due {
            return;
        }
        let (mut due, mut next_at) = (SimTime::MAX, SimTime::MAX);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        // Ascending slot order: deterministic by construction.
        ids.extend(self.backlogged.iter());
        for &id in &ids {
            let g = self
                .groups
                .get_mut(id)
                .expect("backlogged members have a slot");
            for d in &mut g.dirs {
                while !d.held.is_empty() {
                    if now >= d.hold.until {
                        d.hold = d.read_head(now);
                    }
                    if now < d.hold.release_at {
                        break;
                    }
                    let released = d.held.pop_front().expect("head exists");
                    d.take(released.len, now);
                    d.hold = HeadHold::STALE;
                    self.held_total -= 1;
                    trace::record_with(|| iomax_pass_event(&released, now));
                    out.push(released);
                }
                if !d.held.is_empty() {
                    due = due.min(d.hold.until);
                    next_at = next_at.min(d.hold.next_at);
                }
            }
            if g.held_len() == 0 {
                self.backlogged.remove(id);
            }
        }
        ids.clear();
        self.scratch_ids = ids;
        self.due = due;
        self.next_at = next_at;
    }

    fn release_due(&self, _now: SimTime) -> SimTime {
        self.due
    }

    fn next_event(&self, now: SimTime) -> Option<SimTime> {
        if self.backlogged.is_empty() {
            return None;
        }
        if now < self.due {
            return Some(self.next_at);
        }
        // Holds not read since an input changed: the literal walk.
        self.backlogged
            .iter()
            .flat_map(|id| &self.groups.get(id).expect("limited").dirs)
            .filter_map(|d| d.held.front().map(|h| d.availability(h.len, now)))
            .min()
    }

    fn tick(&mut self, _now: SimTime) {}

    fn submit_cpu_overhead(&self, deep_queue: bool) -> SimDuration {
        // blk-throttle walks the hierarchy per bio; batch submitters pay
        // for every one of them.
        if deep_queue {
            SimDuration::from_nanos(600)
        } else {
            SimDuration::from_nanos(250)
        }
    }

    fn name(&self) -> &'static str {
        "io.max"
    }
}

/// A request consumed `io.max` tokens at `now` (trace probe).
fn iomax_pass_event(req: &IoRequest, now: SimTime) -> TraceEvent {
    TraceEvent::new(
        now.as_nanos(),
        TraceKind::IoMaxPass,
        req.id,
        req.group.0 as u32,
        req.dev.0 as u32,
        u64::from(req.len),
        u64::from(req.op.is_write()),
    )
}

/// The drain and `next_event` as they were before held heads kept their
/// release instants: every pump re-derives every head's availability.
/// The differential tests' reference.
#[cfg(test)]
impl IoMaxThrottler {
    pub(crate) fn drain_literal(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        fn availability(d: &DirThrottle, req: &IoRequest, now: SimTime) -> SimTime {
            let mut at = now;
            if let Some(b) = &d.bps {
                at = at.max(b.available_at(f64::from(req.len), now));
            }
            if let Some(b) = &d.iops {
                at = at.max(b.available_at(1.0, now));
            }
            at
        }
        if self.backlogged.is_empty() {
            return;
        }
        let mut cursor = 0usize;
        while let Some(id) = self.backlogged.iter().find(|g| g.index() >= cursor) {
            cursor = id.index() + 1;
            let g = self.groups.get_mut(id).expect("limited");
            for d in &mut g.dirs {
                while let Some(head) = d.held.front() {
                    let head = head.clone();
                    if availability(d, &head, now) > now {
                        break;
                    }
                    if let Some(b) = &mut d.bps {
                        b.take_debt(f64::from(head.len), now);
                    }
                    if let Some(b) = &mut d.iops {
                        b.take_debt(1.0, now);
                    }
                    let released = d.held.pop_front().expect("head exists");
                    self.held_total -= 1;
                    out.push(released);
                }
            }
            if g.held_len() == 0 {
                self.backlogged.remove(id);
            }
        }
    }

    pub(crate) fn next_event_literal(&self, now: SimTime) -> Option<SimTime> {
        self.backlogged
            .iter()
            .flat_map(|id| &self.groups.get(id).expect("limited").dirs)
            .filter_map(|d| {
                let head = d.held.front()?;
                let mut at = now;
                if let Some(b) = &d.bps {
                    at = at.max(b.available_at(f64::from(head.len), now));
                }
                if let Some(b) = &d.iops {
                    at = at.max(b.available_at(1.0, now));
                }
                Some(at)
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{read4k, req};
    use blkio::IoOp;

    fn limits_rbps(rbps: u64) -> IoMax {
        IoMax {
            rbps: Some(rbps),
            ..Default::default()
        }
    }

    #[test]
    fn unlimited_groups_pass_through() {
        let mut t = IoMaxThrottler::new();
        let r = read4k(0, 1, SimTime::ZERO);
        assert!(matches!(
            t.on_submit(r, SimTime::ZERO),
            SubmitOutcome::Pass(_)
        ));
        assert_eq!(t.held_count(), 0);
        assert_eq!(t.next_event(SimTime::ZERO), None);
    }

    #[test]
    fn sustained_rate_matches_limit() {
        let mut t = IoMaxThrottler::new();
        // 1 MiB/s read limit, 4 KiB requests → 256 IOPS sustained.
        t.set_limits(GroupId(1), limits_rbps(1 << 20));
        let mut passed = 0u64;
        let mut id = 0;
        let horizon = SimTime::from_secs(2);
        let mut now = SimTime::ZERO;
        while now < horizon {
            match t.on_submit(read4k(id, 1, now), now) {
                SubmitOutcome::Pass(_) => passed += 1,
                SubmitOutcome::Held => {
                    // Wait and drain.
                    now += SimDuration::from_micros(500);
                    passed += t.drain_released(now).len() as u64;
                }
            }
            id += 1;
        }
        let bytes = passed * 4096;
        let rate = bytes as f64 / 2.0;
        // Allow the initial burst allowance on top.
        assert!(
            (0.9e6..1.35e6).contains(&rate),
            "sustained rate {rate} B/s for a 1 MiB/s limit"
        );
    }

    #[test]
    fn fifo_within_group_is_preserved() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(GroupId(1), limits_rbps(4096)); // 1 request/s
                                                     // Exhaust the burst.
        let mut now = SimTime::ZERO;
        while let SubmitOutcome::Pass(_) = t.on_submit(read4k(900, 1, now), now) {}
        // Two more held requests.
        assert!(matches!(
            t.on_submit(read4k(1, 1, now), now),
            SubmitOutcome::Held
        ));
        // Drain far in the future: order must be 900 (the first held), 1.
        now = SimTime::from_secs(10);
        let drained = t.drain_released(now);
        assert!(drained.len() >= 2);
        assert_eq!(drained[0].id, 900);
        assert_eq!(drained[1].id, 1);
    }

    #[test]
    fn read_and_write_buckets_are_independent() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(
            GroupId(1),
            IoMax {
                rbps: Some(4096),
                wbps: None,
                ..Default::default()
            },
        );
        // Reads throttle after the burst...
        let now = SimTime::ZERO;
        while let SubmitOutcome::Pass(_) = t.on_submit(read4k(0, 1, now), now) {}
        // ...but writes still pass.
        let w = req(1, 1, IoOp::Write, 4096, now);
        assert!(matches!(t.on_submit(w, now), SubmitOutcome::Pass(_)));
    }

    #[test]
    fn iops_limit_counts_requests_not_bytes() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(
            GroupId(1),
            IoMax {
                riops: Some(10),
                ..Default::default()
            },
        );
        // Burst capacity is max(10 * 0.05, 1) = 1... times: capacity =
        // (10*0.05).max(1.0) = 1 token. First passes, second held.
        let big = req(0, 1, IoOp::Read, 1 << 20, SimTime::ZERO);
        assert!(matches!(
            t.on_submit(big, SimTime::ZERO),
            SubmitOutcome::Pass(_)
        ));
        let big2 = req(1, 1, IoOp::Read, 1 << 20, SimTime::ZERO);
        assert!(matches!(
            t.on_submit(big2, SimTime::ZERO),
            SubmitOutcome::Held
        ));
        // 100 ms later one more token accrued.
        let drained = t.drain_released(SimTime::from_millis(100));
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn reconfiguring_preserves_held_requests() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(GroupId(1), limits_rbps(4096));
        let mut now = SimTime::ZERO;
        while let SubmitOutcome::Pass(_) = t.on_submit(read4k(7, 1, now), now) {}
        assert!(t.held_count() > 0);
        // Raise the limit dramatically; held request drains immediately.
        t.set_limits(GroupId(1), limits_rbps(1 << 30));
        now += SimDuration::from_micros(1);
        assert!(!t.drain_released(now).is_empty());
    }

    #[test]
    fn clearing_limits_removes_group() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(GroupId(1), limits_rbps(1));
        t.set_limits(GroupId(1), IoMax::default());
        assert!(t.limits(GroupId(1)).is_unlimited());
        let r = read4k(0, 1, SimTime::ZERO);
        assert!(matches!(
            t.on_submit(r, SimTime::ZERO),
            SubmitOutcome::Pass(_)
        ));
    }

    #[test]
    fn lifting_limits_releases_held_requests_in_order() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(GroupId(1), limits_rbps(4096));
        let now = SimTime::ZERO;
        while let SubmitOutcome::Pass(_) = t.on_submit(read4k(100, 1, now), now) {}
        for id in 1..4 {
            assert!(matches!(
                t.on_submit(read4k(id, 1, now), now),
                SubmitOutcome::Held
            ));
        }
        assert_eq!(t.held_count(), 4);
        t.set_limits(GroupId(1), IoMax::default());
        assert_eq!(t.held_count(), 4, "lifting limits drops nothing");
        assert_eq!(t.next_event(now), Some(now));
        let ids: Vec<u64> = t.drain_released(now).iter().map(|r| r.id).collect();
        assert_eq!(ids, [100, 1, 2, 3]);
        assert_eq!(t.held_count(), 0);
        assert_eq!(t.next_event(now), None);
        assert!(matches!(
            t.on_submit(read4k(4, 1, now), now),
            SubmitOutcome::Pass(_)
        ));
    }

    #[test]
    fn many_held_groups_release_in_slot_order() {
        let mut t = IoMaxThrottler::new();
        let groups: Vec<usize> = (0..96).map(|k| 1 + (k * 37) % 96).collect();
        let limit = IoMax {
            riops: Some(1),
            wiops: Some(1),
            ..Default::default()
        };
        for &g in &groups {
            t.set_limits(GroupId(g), limit);
        }
        // Burst one request per direction, hold the rest, submitting
        // the groups in shuffled order.
        let now = SimTime::ZERO;
        let mut id = 0;
        for &g in &groups {
            for op in [IoOp::Read, IoOp::Write, IoOp::Read, IoOp::Write, IoOp::Read] {
                let _ = t.on_submit(req(id, g, op, 4096, now), now);
                id += 1;
            }
        }
        assert_eq!(t.held_count(), 96 * 3);
        let released = t.drain_released(SimTime::from_secs(1));
        // One second refills one read and one write token per group.
        assert_eq!(released.len(), 96 * 2);
        let order: Vec<(usize, bool)> = released
            .iter()
            .map(|r| (r.group.index(), r.op.is_write()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "slot order, reads before writes per group");
    }

    #[test]
    fn next_event_fires_while_held() {
        let mut t = IoMaxThrottler::new();
        t.set_limits(GroupId(1), limits_rbps(4096));
        let now = SimTime::ZERO;
        while let SubmitOutcome::Pass(_) = t.on_submit(read4k(0, 1, now), now) {}
        assert!(t.next_event(now).is_some());
    }
}
