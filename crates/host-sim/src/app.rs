//! Per-app runtime state inside the engine.

use blkio::{CoreId, DeviceId, GroupId, PrioClass, ReqId};
use iostats::{BandwidthSeries, LatencyHistogram};
use simcore::{SimTime, TokenBucket};
use workload::{AddressStream, AppModel, ArrivalBatch, JobSpec};

/// Runtime state of one application.
#[derive(Debug)]
pub(crate) struct AppRuntime {
    pub spec: JobSpec,
    pub group: GroupId,
    pub prio: PrioClass,
    pub core: CoreId,
    pub devices: Vec<DeviceId>,
    pub next_dev: usize,
    pub stream: AddressStream,
    /// Pregenerated arrival chunk the open-loop issue path draws from.
    pub batch: ArrivalBatch,
    pub rate: Option<TokenBucket>,
    pub inflight: u32,
    pub issued: u64,
    pub completed: u64,
    /// I/Os that exhausted the host's retry budget and were reported
    /// back as errors.
    pub failed: u64,
    pub ctx_switches: f64,
    pub hist: LatencyHistogram,
    pub bw: BandwidthSeries,
    /// Per-stage latency sums in nanoseconds (measured completions only):
    /// [submit-cpu, qos-wait, sched-wait, device, complete-cpu].
    pub stage_sums_ns: [f64; 5],
    /// Multiplier on scheduler-lock contention cost, fixed per app
    /// (models NUMA/lock-position asymmetry under CPU saturation).
    pub lock_luck: f64,
    /// Outstanding wakes, sorted ascending by `(time, seq)`: the
    /// engine's exact pending set for this app. Exact dedup only admits
    /// a wake strictly earlier than everything pending, so inserts
    /// always land at the front and any pop removes the front — the
    /// list behaves as a (tiny) stack.
    pub wakes: Vec<Wake>,
    /// How many entries of `wakes` are near-term (FIFO- or
    /// tree-routed); the app counts toward the engine's active set
    /// while this is non-zero.
    pub near_wakes: u32,
    /// Cached `spec.is_active` result, valid while `now <
    /// phase_cached_until` (phase activity is constant between
    /// transitions, so the per-wake spec walks only run at phase edges).
    pub phase_active: bool,
    /// Cached `spec.next_transition` result over the same interval.
    pub phase_trans: Option<SimTime>,
    /// Instant at which the phase cache must be recomputed.
    pub phase_cached_until: SimTime,
    /// Closed-loop application model. `Some` switches this app from
    /// stream-driven (open-loop) arrivals to model-driven (closed-loop)
    /// issue: completions feed back into the model, which decides the
    /// next op. `None` leaves the pre-existing open-loop path — and its
    /// event stream — untouched byte for byte.
    pub model: Option<ClosedLoopState>,
}

/// Host-side state of one closed-loop app: the running model plus the
/// bookkeeping that maps host request ids back to model tokens.
#[derive(Debug)]
pub(crate) struct ClosedLoopState {
    /// The application model generating ops and absorbing completions.
    pub engine: AppModel,
    /// In-flight `(host request id, model token)` pairs. Bounded by the
    /// model window (≤ a few dozen), so linear scans beat a map.
    pub tokens: Vec<(ReqId, u64)>,
    /// Measured bytes actually transferred (closed-loop ops have
    /// per-op sizes, so `hist.count() * block_size` would be wrong).
    pub measured_bytes: u64,
}

/// One pending wake: its global `(time, seq)` key plus
/// which container holds it (see [`WakeRoute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wake {
    pub at: SimTime,
    pub seq: u64,
    pub route: WakeRoute,
}

/// Which merge source a pending wake was filed into. Pop order is
/// independent of the split — each container yields its entries in
/// `(time, seq)` order and the engine takes the min across fronts — so
/// routing is purely a cost decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeRoute {
    /// `at == now` at insert: global FIFO (keys are monotone because
    /// both `now` and the seq counter only grow — no ordering work).
    Fifo,
    /// Near future: the app's tournament leaf.
    Tree,
    /// Far future: a regular `AppWake` timer-wheel event (idle tenants
    /// thereby leave the tournament until their next phase edge).
    Wheel,
}

impl AppRuntime {
    /// Picks the next target device (round-robin across the app's list).
    pub(crate) fn pick_device(&mut self) -> DeviceId {
        // One modulo on wrap (or on the staggered initial value) instead
        // of two per call; the emitted sequence is unchanged.
        let n = self.devices.len();
        if self.next_dev >= n {
            self.next_dev %= n;
        }
        let dev = self.devices[self.next_dev];
        self.next_dev += 1;
        dev
    }
}
