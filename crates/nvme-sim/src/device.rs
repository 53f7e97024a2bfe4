//! The runtime device: command units + shared pipe + GC interaction.

use std::collections::VecDeque;
use std::fmt;

use blkio::IoRequest;
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{BoundedPareto, DetRng, SimDuration, SimTime};

use crate::fault::{CommandFate, CompletionStatus, FaultCounters, FaultPlan};
use crate::profile::{TAIL_ALPHA, TAIL_MULT_MIN};
use crate::{DeviceProfile, GcState};

/// Opaque handle to a request in service on a device — the simulation's
/// analogue of an NVMe command identifier (CID).
///
/// [`NvmeDevice::start_ready_into`] hands one out per started request;
/// the caller passes it back to [`NvmeDevice::complete`]. Internally it
/// indexes a slab/free-list arena, so completion is a direct array
/// access instead of a `ReqId` hash lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceSlot(u32);

impl ServiceSlot {
    /// The arena index backing this slot.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A command started on a device unit: the slot handle, the slot's
/// generation at start time, and the projected completion instant.
///
/// The generation lets the host detect stale completion/abort events:
/// any operation that vacates the slot (completion, abort, reset) bumps
/// it, so an event carrying an old generation refers to a command that
/// no longer exists and must be dropped.
#[derive(Debug, Clone, Copy)]
pub struct StartedCmd {
    /// Slot the command occupies while in service.
    pub slot: ServiceSlot,
    /// Slot generation at service start; pass back to
    /// [`NvmeDevice::complete_current`] / [`NvmeDevice::abort`].
    pub gen: u64,
    /// Instant service finishes (command path ∨ pipe slot, plus any
    /// injected stall/spike).
    pub done_at: SimTime,
}

/// A [`DeviceProfile`] failed validation, with the offending profile's
/// name and the reason reported by [`DeviceProfile::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidProfile {
    /// `DeviceProfile::name` of the rejected profile.
    pub name: String,
    /// Human-readable validation failure.
    pub reason: String,
}

impl fmt::Display for InvalidProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid device profile `{}`: {}", self.name, self.reason)
    }
}

impl std::error::Error for InvalidProfile {}

/// A simulated NVMe SSD.
///
/// The host engine drives it with three calls:
///
/// 1. [`NvmeDevice::accept`] — enqueue a dispatched request (the caller
///    must respect [`NvmeDevice::has_capacity`], which models
///    `nr_requests`),
/// 2. [`NvmeDevice::start_ready`] — begin service on free command units;
///    returns a [`StartedCmd`] per started request for the caller to
///    schedule,
/// 3. [`NvmeDevice::complete`] / [`NvmeDevice::complete_current`] —
///    retire a finished request by its [`ServiceSlot`], freeing its
///    unit.
///
/// With a [`FaultPlan`] installed ([`NvmeDevice::set_fault_plan`]) the
/// device can also mis-serve commands (media errors, stalls, latency
/// spikes) and be reset wholesale ([`NvmeDevice::reset`]); the recovery
/// machinery lives host-side.
///
/// See the crate docs for the performance model.
#[derive(Debug)]
pub struct NvmeDevice {
    profile: DeviceProfile,
    /// The tail-event multiplier distribution (fixed by the profile).
    tail: BoundedPareto,
    gc: GcState,
    rng: DetRng,
    waiting: VecDeque<IoRequest>,
    /// Slab of in-service requests, indexed by [`ServiceSlot`]. Sized to
    /// `profile.units` up front: a slot is occupied exactly while its
    /// command unit is busy, so the arena never grows.
    slots: Vec<Option<IoRequest>>,
    /// Per-slot generation counters; bumped whenever the slot is
    /// vacated so stale completion/abort events are detectable.
    gens: Vec<u64>,
    /// Per-slot completion status decided at service start.
    statuses: Vec<CompletionStatus>,
    /// Free-list of vacant `slots` indexes (LIFO: the most recently
    /// retired slot is reused first, keeping the touched set small).
    free: Vec<u32>,
    busy_units: u32,
    pipe_cursor: SimTime,
    served_ios: u64,
    served_bytes: u64,
    fault: Option<FaultPlan>,
    /// While `now < offline_until` the device is mid-reset and accepts
    /// no dispatches.
    offline_until: SimTime,
    counters: FaultCounters,
}

impl NvmeDevice {
    /// Creates a device from a profile.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] if the profile fails
    /// [`DeviceProfile::validate`].
    pub fn try_new(profile: DeviceProfile, rng: DetRng) -> Result<Self, InvalidProfile> {
        if let Err(e) = profile.validate() {
            return Err(InvalidProfile {
                name: profile.name.clone(),
                reason: e,
            });
        }
        let gc = GcState::new(
            profile.gc_threshold_bytes,
            profile.gc_drain_bps,
            profile.waf,
        );
        let units = profile.units as usize;
        Ok(NvmeDevice {
            tail: BoundedPareto::new(TAIL_MULT_MIN, profile.tail_mult_max, TAIL_ALPHA),
            profile,
            gc,
            rng,
            waiting: VecDeque::new(),
            slots: (0..units).map(|_| None).collect(),
            gens: vec![0; units],
            statuses: vec![CompletionStatus::Success; units],
            // Reversed so the first allocation pops slot 0.
            free: (0..units as u32).rev().collect(),
            busy_units: 0,
            pipe_cursor: SimTime::ZERO,
            served_ios: 0,
            served_bytes: 0,
            fault: None,
            offline_until: SimTime::ZERO,
            counters: FaultCounters::default(),
        })
    }

    /// Creates a device from a profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`DeviceProfile::validate`]; use
    /// [`NvmeDevice::try_new`] to handle that case.
    #[must_use]
    pub fn new(profile: DeviceProfile, rng: DetRng) -> Self {
        match Self::try_new(profile, rng) {
            Ok(dev) => dev,
            Err(e) => panic!("{e}"),
        }
    }

    /// The device profile.
    #[must_use]
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Installs a fault plan; commands started from now on draw their
    /// fate from it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Lifetime fault accounting (all zeros when no plan is installed).
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Preconditions the flash (paper §III: sequential fill + random
    /// overwrite before write experiments).
    pub fn precondition(&mut self, fraction: f64) {
        self.gc.precondition(fraction);
    }

    /// Total requests inside the device (queued + in service).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.waiting.len() + self.busy_units as usize
    }

    /// `false` while a controller reset is in progress.
    #[must_use]
    pub fn is_online(&self, now: SimTime) -> bool {
        now >= self.offline_until
    }

    /// `true` while the device is online, the device queue
    /// (`nr_requests`) has room, *and* the data pipe's backlog is within
    /// the device's flow-control window. Under saturation this pushes
    /// queueing back into the I/O scheduler, where ordering policies can
    /// act.
    #[must_use]
    pub fn has_capacity(&self, now: SimTime) -> bool {
        self.is_online(now)
            && self.inflight() < self.profile.max_qd as usize
            && self.pipe_cursor.saturating_since(now) < self.profile.pipe_backlog_limit
    }

    /// Accepts a dispatched request at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the request-count queue limit is exceeded (callers must
    /// gate on [`NvmeDevice::has_capacity`] — the block layer never
    /// over-queues a device).
    pub fn accept(&mut self, req: IoRequest, _now: SimTime) {
        assert!(
            self.inflight() < self.profile.max_qd as usize,
            "device queue overflow (nr_requests exceeded)"
        );
        self.waiting.push_back(req);
    }

    /// Starts service on as many waiting requests as free units allow,
    /// appending a [`StartedCmd`] for each to `started`. The host engine
    /// calls this on nearly every event with a reused scratch buffer,
    /// keeping the hot path allocation-free.
    pub fn start_ready_into(&mut self, now: SimTime, started: &mut Vec<StartedCmd>) {
        if !self.is_online(now) {
            return;
        }
        while self.busy_units < self.profile.units {
            let Some(req) = self.waiting.pop_front() else {
                break;
            };
            let (done_at, status) = self.service(&req, now);
            trace::record_with(|| {
                TraceEvent::new(
                    now.as_nanos(),
                    TraceKind::DeviceStart,
                    req.id,
                    req.group.0 as u32,
                    req.dev.0 as u32,
                    u64::from(req.len),
                    u64::from(req.op.is_write()),
                )
            });
            self.busy_units += 1;
            let slot = self
                .free
                .pop()
                .expect("free-list exhausted with units spare");
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(req);
            self.statuses[slot as usize] = status;
            started.push(StartedCmd {
                slot: ServiceSlot(slot),
                gen: self.gens[slot as usize],
                done_at,
            });
        }
    }

    /// Convenience wrapper around [`NvmeDevice::start_ready_into`]
    /// returning a fresh `Vec` (allocates; for tests and one-off
    /// callers).
    pub fn start_ready(&mut self, now: SimTime) -> Vec<StartedCmd> {
        let mut started = Vec::new();
        self.start_ready_into(now, &mut started);
        started
    }

    fn service(&mut self, req: &IoRequest, now: SimTime) -> (SimTime, CompletionStatus) {
        let gc_level = self.gc.level(now);
        // Command path.
        let median = self.profile.cmd_latency_ns(req.op, req.pattern) as f64;
        let mut cmd_ns = self
            .rng
            .lognormal_median(median, self.profile.latency_sigma);
        if self.rng.chance(self.profile.tail_prob) {
            cmd_ns *= self.tail.sample(&mut self.rng);
        }
        // Fault fate, drawn from the plan's private stream (no plan, or
        // a disabled plan, draws nothing — the service RNG above is
        // untouched either way).
        let mut status = CompletionStatus::Success;
        let mut stall = SimDuration::ZERO;
        if let Some(plan) = &mut self.fault {
            match plan.command_fate(now) {
                CommandFate::Normal => {}
                CommandFate::MediaError => {
                    status = CompletionStatus::MediaError;
                    self.counters.media_errors += 1;
                }
                CommandFate::Stall => {
                    stall = plan.config().stall;
                    self.counters.stalls += 1;
                }
                CommandFate::Spike(mult) => {
                    cmd_ns *= mult;
                    self.counters.spikes += 1;
                }
            }
        }
        let cmd_done = now + SimDuration::from_nanos(cmd_ns as u64);
        // Shared data pipe, derated by GC pressure.
        let penalty = if req.op.is_write() {
            self.profile.gc_write_penalty
        } else {
            self.profile.gc_read_penalty
        };
        let rate = self.profile.pipe_bps(req.op, req.pattern) * (1.0 - penalty * gc_level);
        let pipe_ns = f64::from(req.len) / rate * 1e9;
        let slot_start = self.pipe_cursor.max(now);
        let data_done = slot_start + SimDuration::from_nanos(pipe_ns as u64);
        self.pipe_cursor = data_done;
        if req.op.is_write() {
            self.gc.on_write(u64::from(req.len), now);
        }
        (cmd_done.max(data_done) + stall, status)
    }

    /// `true` while `slot` still holds the command started at generation
    /// `gen` — i.e. the command is in service and neither completed,
    /// aborted, nor wiped by a reset. Used by the host to prune
    /// satisfied timeout deadlines.
    #[must_use]
    pub fn slot_pending(&self, slot: ServiceSlot, gen: u64) -> bool {
        self.gens[slot.index()] == gen && self.slots[slot.index()].is_some()
    }

    /// Retires the command in `slot` *if* it is still the one started at
    /// generation `gen`; returns the request and its completion status,
    /// or `None` for a stale event (the slot was vacated by an abort or
    /// reset since, or recycled for a newer command).
    ///
    /// Served-I/O counters only advance for successful completions.
    pub fn complete_current(
        &mut self,
        slot: ServiceSlot,
        gen: u64,
        now: SimTime,
    ) -> Option<(IoRequest, CompletionStatus)> {
        let i = slot.index();
        if self.gens[i] != gen {
            return None;
        }
        let req = self.slots[i].take()?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        let status = self.statuses[i];
        self.free.push(slot.0);
        self.busy_units -= 1;
        if status == CompletionStatus::Success {
            self.served_ios += 1;
            self.served_bytes += u64::from(req.len);
        }
        trace::record_with(|| {
            if status == CompletionStatus::Success {
                TraceEvent::new(
                    now.as_nanos(),
                    TraceKind::DeviceComplete,
                    req.id,
                    req.group.0 as u32,
                    req.dev.0 as u32,
                    u64::from(req.len),
                    u64::from(req.op.is_write()),
                )
            } else {
                TraceEvent::new(
                    now.as_nanos(),
                    TraceKind::DeviceError,
                    req.id,
                    req.group.0 as u32,
                    req.dev.0 as u32,
                    1, // MediaError
                    u64::from(req.retries),
                )
            }
        });
        Some((req, status))
    }

    /// Retires a completed request, freeing its command unit and slot.
    ///
    /// Legacy wrapper around [`NvmeDevice::complete_current`] using the
    /// slot's current generation (fine for callers that never abort or
    /// reset).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant (an engine bug).
    pub fn complete(&mut self, slot: ServiceSlot, now: SimTime) -> IoRequest {
        let gen = self.gens[slot.index()];
        self.complete_current(slot, gen, now)
            .expect("completing vacant service slot")
            .0
    }

    /// Aborts the in-service command in `slot` (host timeout path —
    /// `nvme_timeout` returning `BLK_EH_DONE` after an Abort command).
    /// Returns the request for host-side requeue/retry, or `None` if the
    /// generation is stale (the command completed first — benign race).
    pub fn abort(&mut self, slot: ServiceSlot, gen: u64) -> Option<IoRequest> {
        let i = slot.index();
        if self.gens[i] != gen {
            return None;
        }
        let req = self.slots[i].take()?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(slot.0);
        self.busy_units -= 1;
        self.counters.aborted += 1;
        Some(req)
    }

    /// Full controller reset: every queued and in-service request is
    /// bounced back to the caller (in deterministic order: device queue
    /// FIFO first, then service slots by index) for requeue through the
    /// I/O scheduler, and the device stays offline until `until`.
    ///
    /// The data-pipe cursor also restarts at `until` — a reset flushes
    /// transfer state.
    pub fn reset(&mut self, _now: SimTime, until: SimTime) -> Vec<IoRequest> {
        let mut bounced: Vec<IoRequest> = self.waiting.drain(..).collect();
        for i in 0..self.slots.len() {
            if let Some(req) = self.slots[i].take() {
                self.gens[i] = self.gens[i].wrapping_add(1);
                bounced.push(req);
            }
        }
        let units = self.profile.units;
        self.free = (0..units).rev().collect();
        self.busy_units = 0;
        self.offline_until = until;
        self.pipe_cursor = self.pipe_cursor.max(until);
        self.counters.resets += 1;
        bounced
    }

    /// Current GC pressure level in `[0, 1]`.
    pub fn gc_level(&mut self, now: SimTime) -> f64 {
        self.gc.level(now)
    }

    /// Lifetime counters: `(requests served, bytes served)`.
    #[must_use]
    pub fn served(&self) -> (u64, u64) {
        (self.served_ios, self.served_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, ReqId};
    use simcore::EventQueue;

    fn req(id: ReqId, op: IoOp, pattern: AccessPattern, len: u32, at: SimTime) -> IoRequest {
        IoRequest::new(
            id,
            AppId(0),
            GroupId(0),
            DeviceId(0),
            op,
            pattern,
            len,
            0,
            at,
        )
    }

    /// Closed-loop mini-driver: keep `qd` requests in flight for
    /// `duration`; returns (bytes completed, mean latency ns).
    fn drive(
        dev: &mut NvmeDevice,
        op: IoOp,
        pattern: AccessPattern,
        len: u32,
        qd: usize,
        duration: SimDuration,
    ) -> (u64, f64) {
        let mut now = SimTime::ZERO;
        let mut next_id: ReqId = 0;
        // Completions keyed by service slot: the request (and its issue
        // time) lives in the device slab until `complete` hands it back,
        // so the driver needs no side table of its own.
        let mut completions: EventQueue<ServiceSlot> = EventQueue::new();
        let mut bytes = 0u64;
        let mut lat_sum = 0f64;
        let mut lat_n = 0u64;
        let end = SimTime::ZERO + duration;
        for _ in 0..qd {
            let r = req(next_id, op, pattern, len, now);
            dev.accept(r, now);
            next_id += 1;
        }
        for c in dev.start_ready(now) {
            completions.schedule(c.done_at, c.slot);
        }
        while let Some((t, slot)) = completions.pop() {
            if t > end {
                break;
            }
            now = t;
            let done_req = dev.complete(slot, now);
            bytes += u64::from(len);
            lat_sum += (now - done_req.issued_at).as_nanos() as f64;
            lat_n += 1;
            let r = req(next_id, op, pattern, len, now);
            dev.accept(r, now);
            next_id += 1;
            for c in dev.start_ready(now) {
                completions.schedule(c.done_at, c.slot);
            }
        }
        (
            bytes,
            if lat_n == 0 {
                0.0
            } else {
                lat_sum / lat_n as f64
            },
        )
    }

    #[test]
    fn qd1_read_latency_is_near_command_median() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(1));
        let (_, mean_ns) = drive(
            &mut dev,
            IoOp::Read,
            AccessPattern::Random,
            4096,
            1,
            SimDuration::from_millis(200),
        );
        let median = DeviceProfile::flash().rand_read_cmd_ns as f64;
        assert!(
            (mean_ns - median).abs() / median < 0.10,
            "mean {mean_ns} vs median {median}"
        );
    }

    #[test]
    fn random_read_saturation_near_three_gib_s() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(2));
        let dur = SimDuration::from_millis(300);
        let (bytes, _) = drive(&mut dev, IoOp::Read, AccessPattern::Random, 4096, 256, dur);
        let gib_s = bytes as f64 / dur.as_secs_f64() / (1u64 << 30) as f64;
        assert!((2.5..3.2).contains(&gib_s), "saturation {gib_s} GiB/s");
    }

    #[test]
    fn sequential_large_reads_are_faster() {
        let dur = SimDuration::from_millis(200);
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(3));
        let (seq_bytes, _) = drive(
            &mut dev,
            IoOp::Read,
            AccessPattern::Sequential,
            256 * 1024,
            32,
            dur,
        );
        let mut dev2 = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(3));
        let (rand4k_bytes, _) = drive(&mut dev2, IoOp::Read, AccessPattern::Random, 4096, 32, dur);
        assert!(
            seq_bytes as f64 > 1.5 * rand4k_bytes as f64,
            "seq {seq_bytes} rand {rand4k_bytes}"
        );
    }

    #[test]
    fn preconditioned_random_writes_collapse() {
        let dur = SimDuration::from_millis(300);
        // Fresh device: fast burst writes.
        let mut fresh = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(4));
        let (burst, _) = drive(
            &mut fresh,
            IoOp::Write,
            AccessPattern::Random,
            4096,
            128,
            dur,
        );
        // Preconditioned device: sustained GC-bound writes.
        let mut worn = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(4));
        worn.precondition(1.0);
        let (sustained, _) = drive(
            &mut worn,
            IoOp::Write,
            AccessPattern::Random,
            4096,
            128,
            dur,
        );
        assert!(
            (sustained as f64) < 0.4 * burst as f64,
            "burst {burst} sustained {sustained}"
        );
        let gib_s = sustained as f64 / dur.as_secs_f64() / (1u64 << 30) as f64;
        assert!(
            gib_s < 0.8,
            "sustained writes {gib_s} GiB/s should be well under 1"
        );
    }

    #[test]
    fn optane_has_no_gc_effect() {
        let dur = SimDuration::from_millis(200);
        let mut a = NvmeDevice::new(DeviceProfile::optane(), DetRng::new(5));
        let (fresh, _) = drive(&mut a, IoOp::Write, AccessPattern::Random, 4096, 64, dur);
        let mut b = NvmeDevice::new(DeviceProfile::optane(), DetRng::new(5));
        b.precondition(1.0);
        let (worn, _) = drive(&mut b, IoOp::Write, AccessPattern::Random, 4096, 64, dur);
        let ratio = worn as f64 / fresh as f64;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut profile = DeviceProfile::flash();
        profile.max_qd = 4;
        let mut dev = NvmeDevice::new(profile, DetRng::new(6));
        for i in 0..4 {
            assert!(dev.has_capacity(SimTime::ZERO));
            dev.accept(
                req(i, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        assert!(!dev.has_capacity(SimTime::ZERO));
        assert_eq!(dev.inflight(), 4);
    }

    #[test]
    #[should_panic(expected = "device queue overflow")]
    fn overflow_panics() {
        let mut profile = DeviceProfile::flash();
        profile.max_qd = 1;
        let mut dev = NvmeDevice::new(profile, DetRng::new(7));
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
        dev.accept(
            req(1, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
    }

    #[test]
    fn units_bound_concurrency() {
        let mut profile = DeviceProfile::flash();
        profile.units = 2;
        let mut dev = NvmeDevice::new(profile, DetRng::new(8));
        for i in 0..5 {
            dev.accept(
                req(i, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        let started = dev.start_ready(SimTime::ZERO);
        assert_eq!(started.len(), 2);
        let c = started[0];
        dev.complete(c.slot, c.done_at);
        assert_eq!(dev.start_ready(c.done_at).len(), 1);
    }

    #[test]
    fn served_counters_accumulate() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(9));
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 8192, SimTime::ZERO),
            SimTime::ZERO,
        );
        let started = dev.start_ready(SimTime::ZERO);
        dev.complete(started[0].slot, started[0].done_at);
        assert_eq!(dev.served(), (1, 8192));
    }

    #[test]
    #[should_panic(expected = "invalid device profile")]
    fn invalid_profile_panics() {
        let mut p = DeviceProfile::flash();
        p.units = 0;
        let _ = NvmeDevice::new(p, DetRng::new(1));
    }

    #[test]
    fn try_new_reports_invalid_profile() {
        let mut p = DeviceProfile::flash();
        p.units = 0;
        let err = NvmeDevice::try_new(p, DetRng::new(1)).unwrap_err();
        assert_eq!(err.name, "flash-980pro-like");
        assert!(err.to_string().contains("invalid device profile"));
        assert!(NvmeDevice::try_new(DeviceProfile::flash(), DetRng::new(1)).is_ok());
    }

    #[test]
    fn media_errors_are_reported_and_not_counted_as_served() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(10));
        dev.set_fault_plan(FaultPlan::new(
            FaultConfig {
                media_error_rate: 1.0,
                ..FaultConfig::none()
            },
            1,
            0,
        ));
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
        let c = dev.start_ready(SimTime::ZERO)[0];
        let (r, status) = dev.complete_current(c.slot, c.gen, c.done_at).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(status, CompletionStatus::MediaError);
        assert_eq!(dev.served(), (0, 0));
        assert_eq!(dev.fault_counters().media_errors, 1);
    }

    #[test]
    fn stall_extends_service_time() {
        let stall = SimDuration::from_millis(50);
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(11));
        dev.set_fault_plan(FaultPlan::new(
            FaultConfig {
                stall_rate: 1.0,
                stall,
                ..FaultConfig::none()
            },
            1,
            0,
        ));
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
        let c = dev.start_ready(SimTime::ZERO)[0];
        assert!(
            c.done_at >= SimTime::ZERO + stall,
            "done_at {:?}",
            c.done_at
        );
        assert_eq!(dev.fault_counters().stalls, 1);
    }

    #[test]
    fn abort_frees_the_unit_and_stales_the_completion() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(12));
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
        let c = dev.start_ready(SimTime::ZERO)[0];
        assert!(dev.slot_pending(c.slot, c.gen));
        let r = dev.abort(c.slot, c.gen).unwrap();
        assert_eq!(r.id, 0);
        assert!(!dev.slot_pending(c.slot, c.gen));
        // The original completion event is now stale.
        assert!(dev.complete_current(c.slot, c.gen, c.done_at).is_none());
        // A second abort is also stale.
        assert!(dev.abort(c.slot, c.gen).is_none());
        assert_eq!(dev.fault_counters().aborted, 1);
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn reset_bounces_everything_and_goes_offline() {
        let mut profile = DeviceProfile::flash();
        profile.units = 2;
        let mut dev = NvmeDevice::new(profile, DetRng::new(13));
        for i in 0..4 {
            dev.accept(
                req(i, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        let started = dev.start_ready(SimTime::ZERO);
        assert_eq!(started.len(), 2);
        let until = SimTime::from_millis(10);
        let bounced = dev.reset(SimTime::ZERO, until);
        assert_eq!(bounced.len(), 4);
        assert_eq!(dev.inflight(), 0);
        assert!(!dev.is_online(SimTime::ZERO));
        assert!(!dev.has_capacity(SimTime::ZERO));
        assert!(dev.is_online(until));
        // In-flight completions from before the reset are stale now.
        for c in &started {
            assert!(dev.complete_current(c.slot, c.gen, c.done_at).is_none());
        }
        // The device serves again once back online.
        dev.accept(
            req(9, IoOp::Read, AccessPattern::Random, 4096, until),
            until,
        );
        assert_eq!(dev.start_ready(until).len(), 1);
        assert_eq!(dev.fault_counters().resets, 1);
    }

    #[test]
    fn start_ready_noops_while_offline() {
        let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(14));
        let until = SimTime::from_millis(5);
        dev.reset(SimTime::ZERO, until);
        dev.accept(
            req(0, IoOp::Read, AccessPattern::Random, 4096, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert!(dev.start_ready(SimTime::ZERO).is_empty());
        assert_eq!(dev.start_ready(until).len(), 1);
    }
}
