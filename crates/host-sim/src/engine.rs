//! The discrete-event engine driving the full request lifecycle.

use blkio::{AppId, CoreId, DeviceId, IoRequest, ReqId};
use cgroup_sim::{DevNode, Hierarchy};
use ioqos::{IoCostConfig, IoCostController, IoLatencyController, IoMaxThrottler, QosChain};
use iosched_sim::{Bfq, Kyber, MqDeadline, Noop, SchedKind, Scheduler};
use iostats::{BandwidthSeries, LatencyHistogram};
use nvme_sim::{CompletionStatus, FaultPlan, NvmeDevice, ServiceSlot, StartedCmd};
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{DetRng, EventQueue, SimDuration, SimTime, TokenBucket};
use workload::{AddressStream, AppEngine, AppPoll};

use std::collections::VecDeque;

use crate::app::{AppRuntime, ClosedLoopState, Wake, WakeRoute};
use crate::cpu::{Core, Work};
use crate::devhost::DeviceHost;
use crate::report::{AppReport, CoreReport, DeviceReport, RunReport};
use crate::setup::{AppSetup, DeviceSetup, HostConfig};
use crate::tourney::Tourney;

/// Queue depth at or above which a submitter counts as a deep-queue
/// batch app (ring batching amortizes engine costs; scheduler-lock
/// contention applies).
const DEEP_QD: u32 = 64;

/// Horizon splitting near from far future wakes.
/// Wakes due within it (rate-limiter waits, imminent phase edges) arm
/// the app's tournament leaf; wakes beyond it (a sleeping tenant's next
/// burst) go to the timer wheel, whose cost is O(1) amortized per far
/// timer, so idle tenants occupy no tournament leaf at all. Any split
/// is correct — each container yields keys in `(time, seq)` order and
/// the pop takes the min across fronts — so the constant is purely a
/// cost tuning knob (one wheel level-0 horizon).
const NEAR_WAKE: SimDuration = SimDuration::from_nanos(1 << 18);

/// Fraction of the per-I/O engine cost that does *not* amortize away at
/// infinite queue depth (calibrated: ~3.8 µs/IO at QD 256 with io_uring,
/// ~7.6 µs at QD 1 — the paper's Fig. 3d / Fig. 4 CPU shapes).
const AMORT_FLOOR: f64 = 0.5;

/// Stable wire index of a scheduler kind in `CfgSched` trace events.
const fn sched_kind_index(kind: SchedKind) -> u64 {
    match kind {
        SchedKind::None => 0,
        SchedKind::MqDeadline => 1,
        SchedKind::Bfq => 2,
        SchedKind::Kyber => 3,
    }
}

/// Stable wire index of an `ioprio` class in scheduler/submit events.
const fn prio_index(prio: blkio::PrioClass) -> u64 {
    match prio {
        blkio::PrioClass::Realtime => 0,
        blkio::PrioClass::BestEffort => 1,
        blkio::PrioClass::Idle => 2,
    }
}

/// Trace probe for a per-request lifecycle point.
fn req_event(kind: TraceKind, req: &IoRequest, now: SimTime, a: u64, b: u64) -> TraceEvent {
    TraceEvent::new(
        now.as_nanos(),
        kind,
        req.id,
        req.group.0 as u32,
        req.dev.0 as u32,
        a,
        b,
    )
}

/// Trace probe for an app-issued request (`Submit`).
fn submit_event(req: &IoRequest, now: SimTime) -> TraceEvent {
    let flags = u64::from(req.op.is_write())
        | (u64::from(req.pattern == blkio::AccessPattern::Random) << 1)
        | (prio_index(req.prio) << 2);
    req_event(TraceKind::Submit, req, now, u64::from(req.len), flags)
}

#[derive(Debug)]
enum Event {
    AppWake(AppId),
    CpuDone(CoreId),
    SchedDispatchDone(DeviceId),
    /// Completion of the request in the device's given service slot.
    /// The `u64` is the slot's generation at service start: if the
    /// command was aborted or wiped by a reset in the meantime, the
    /// slot's generation has moved on and the event is dropped.
    DeviceDone(DeviceId, ServiceSlot, u64),
    /// QoS pump timer; the `u64` is its generation — a fired event whose
    /// generation no longer matches the device's was superseded by an
    /// earlier timer and is dropped unprocessed (see [`DeviceHost`]).
    QosPump(DeviceId, u64),
    /// Scheduler timer, generation-tagged like `QosPump`.
    SchedTimer(DeviceId, u64),
    /// Per-command deadline sweep (the analogue of the block layer's
    /// timeout work), generation-tagged like `QosPump`.
    IoTimeout(DeviceId, u64),
    /// Backoff expiry for requests awaiting a retry, generation-tagged
    /// like `QosPump`.
    RetryTimer(DeviceId, u64),
    /// Injected full controller reset.
    DeviceReset(DeviceId),
    /// End of a reset's offline window; the device serves again.
    DeviceRestart(DeviceId),
}

/// What the engine knows about the timer wheel's front.
#[derive(Debug, Clone, Copy)]
enum QFront {
    /// The exact earliest `(time, seq)` key in the queue.
    Exact((SimTime, u64)),
    /// Every queued event is at or after this instant.
    AtOrAfter(SimTime),
}

impl QFront {
    /// Min-updates the cache for a newly scheduled `(at, seq)`. In the
    /// bound state an event before the bound is the new exact front,
    /// since everything else queued lies at or after the bound.
    #[inline]
    fn scheduled(&mut self, at: SimTime, seq: u64) {
        match *self {
            QFront::Exact(f) if (at, seq) < f => *self = QFront::Exact((at, seq)),
            QFront::AtOrAfter(t) if at < t => *self = QFront::Exact((at, seq)),
            _ => {}
        }
    }

    /// `true` if no queued event can be at or before `now`.
    #[inline]
    fn after(self, now: SimTime) -> bool {
        match self {
            QFront::Exact((at, _)) | QFront::AtOrAfter(at) => at > now,
        }
    }
}

/// The simulated host, ready to run.
///
/// Build with [`HostSim::build`], then call [`HostSim::run`]. See the
/// crate docs for an end-to-end example.
#[derive(Debug)]
pub struct HostSim {
    config: HostConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    apps: Vec<AppRuntime>,
    cores: Vec<Core>,
    devs: Vec<DeviceHost>,
    next_req_id: ReqId,
    /// Reused scratch for QoS-released requests (kept empty between
    /// [`HostSim::pump_device`] calls).
    qos_scratch: Vec<IoRequest>,
    /// Reused scratch for device service starts (kept empty between
    /// [`HostSim::pump_device`] calls).
    start_scratch: Vec<StartedCmd>,
    /// Merge of per-app *near-term* wake frontiers; see [`NEAR_WAKE`]
    /// for the near/far split. Leaves are dynamic slots handed out by
    /// `wake_leaf` and recycled when an app's last tree wake pops, so
    /// the tree is sized to the active-set high-water mark — a 64k
    /// fleet with a few hundred active tenants replays over a few
    /// hundred cache-resident leaves, not 64k mostly-idle ones.
    wake_tree: Tourney,
    /// Leaf slot in `wake_tree` per app; `LEAF_NONE` when the app holds
    /// no tree-routed wake.
    app_leaf: Vec<u32>,
    /// Owning app per leaf slot (stale for freed slots; only read while
    /// the slot holds a live key).
    leaf_app: Vec<u32>,
    /// Recycled `wake_tree` leaf slots.
    free_leaves: Vec<u32>,
    /// Same-instant wakes (`at == now` at insert), in order: both `now`
    /// and the seq counter are monotone, so pushes arrive pre-sorted
    /// and the front is the class minimum with zero ordering work. This
    /// carries the completion-driven refill wakes — the bulk of all
    /// wake traffic.
    wake_fifo: VecDeque<(SimTime, u64, u32)>,
    /// Merge of per-core `CpuDone` slots (≤ 1 outstanding per core).
    cpu_tree: Tourney,
    /// Merge of per-device `SchedDispatchDone` slots (≤ 1 per device).
    disp_tree: Tourney,
    /// Cached knowledge of `queue`'s front: its exact key, or a bound
    /// every queued event lies at or after (set by a queue pop and by a
    /// bounded peek that found nothing before the other sources'
    /// minimum). Inserts min-update it in either state, so the wheel is
    /// only re-peeked when another source catches up with the bound.
    qfront: QFront,
    /// Events currently held by the trees/FIFO rather than the queue
    /// (so peak-pending accounting spans both containers).
    tree_pending: usize,
    /// Apps with at least one near-term wake pending — the engine's
    /// active set. Far-only (sleeping) apps are suppressed: they hold
    /// no tournament leaf and cost nothing per event.
    active_leaves: usize,
    /// High-water mark of `active_leaves` over the run.
    active_hwm: usize,
}

impl HostSim {
    /// Assembles the machine. The cgroup hierarchy is the configuration
    /// source of truth: QoS stages and weights are derived from its knob
    /// files exactly as the kernel controllers read cgroupfs. Apps are
    /// identified by their index (`AppId(i)`) and must already be
    /// attached to their groups in the hierarchy (unattached apps run in
    /// the root group).
    ///
    /// # Panics
    ///
    /// Panics if `apps` reference devices that do not exist, or if
    /// `config.cores == 0`, or if a device profile is invalid.
    #[must_use]
    pub fn build(
        config: HostConfig,
        hierarchy: Hierarchy,
        apps: Vec<AppSetup>,
        devices: Vec<DeviceSetup>,
    ) -> Self {
        assert!(config.cores > 0, "need at least one core");
        let mut rng = DetRng::new(config.seed);
        let group_ids = hierarchy.group_ids();
        // One flattened snapshot serves every device's knob resolution:
        // effective io.max / io.latency and hierarchical weight products
        // resolve for the whole fleet in O(groups) forward passes
        // instead of O(groups x depth) pointer walks per device.
        let flat = hierarchy.flatten();

        let devs: Vec<DeviceHost> = devices
            .iter()
            .enumerate()
            .map(|(d, setup)| {
                let node = DevNode::nvme(d as u32);
                // Scheduler (enum-dispatched: see `iosched_sim::Scheduler`).
                let mut sched: Scheduler = match setup.scheduler {
                    SchedKind::None => Noop::new().into(),
                    SchedKind::MqDeadline => MqDeadline::new(setup.mq_deadline).into(),
                    SchedKind::Bfq => Bfq::new(setup.bfq).into(),
                    SchedKind::Kyber => Kyber::new(setup.kyber).into(),
                };
                for &g in &group_ids {
                    sched.set_group_weight(g, hierarchy.bfq_weight(g, node));
                }
                trace::record_with(|| {
                    TraceEvent::new(
                        0,
                        TraceKind::CfgDevice,
                        0,
                        0,
                        d as u32,
                        u64::from(setup.profile.max_qd),
                        u64::from(setup.profile.units),
                    )
                });
                trace::record_with(|| {
                    TraceEvent::new(
                        0,
                        TraceKind::CfgSched,
                        0,
                        0,
                        d as u32,
                        sched_kind_index(setup.scheduler),
                        0,
                    )
                });
                // QoS chain, kernel order: io.max → io.cost → io.latency.
                let mut qos = QosChain::new();
                let mut throttler = IoMaxThrottler::new();
                let mut any_max = false;
                let eff_max = flat.effective_io_max(&hierarchy, node);
                let eff_latency = flat.effective_io_latency(&hierarchy, node);
                for &g in &group_ids {
                    let limits = eff_max[g.index()];
                    if !limits.is_unlimited() {
                        // Self-describing trace: one CfgIoMax event per
                        // configured bucket (0 rbps, 1 wbps, 2 riops,
                        // 3 wiops) so the invariant checker can replay
                        // the exact budget.
                        let buckets = [limits.rbps, limits.wbps, limits.riops, limits.wiops];
                        for (bucket, rate) in buckets.iter().enumerate() {
                            if let Some(rate) = rate {
                                trace::record_with(|| {
                                    TraceEvent::new(
                                        0,
                                        TraceKind::CfgIoMax,
                                        bucket as u64,
                                        g.0 as u32,
                                        d as u32,
                                        *rate,
                                        0,
                                    )
                                });
                            }
                        }
                        throttler.set_limits(g, limits);
                        any_max = true;
                    }
                }
                if any_max {
                    qos.push_io_max(throttler);
                }
                if let Some(qcfg) = hierarchy.cost_qos(node) {
                    if qcfg.enable {
                        let model = hierarchy.cost_model(node).copied().unwrap_or_else(|| {
                            // No explicit model: auto-generate from the
                            // device profile, as iocost_coef_gen.py would.
                            let c = setup.profile.iocost_coefficients();
                            cgroup_sim::IoCostModel {
                                ctrl: cgroup_sim::CostCtrl::Auto,
                                rbps: c.rbps,
                                rseqiops: c.rseqiops,
                                rrandiops: c.rrandiops,
                                wbps: c.wbps,
                                wseqiops: c.wseqiops,
                                wrandiops: c.wrandiops,
                            }
                        });
                        let mut cost = IoCostController::new(IoCostConfig::new(model, *qcfg));
                        // Fold ancestor weights below the root into each
                        // group's absolute weight (identity while every
                        // intermediate slice keeps the default of 100).
                        let mult = flat.weight_multipliers(|g| hierarchy.io_weight(g, node));
                        for &g in &group_ids {
                            let own = f64::from(hierarchy.io_weight(g, node));
                            let eff = (own * mult[g.index()]).round().clamp(1.0, 10_000.0);
                            cost.set_weight(g, eff as u32);
                        }
                        qos.push_io_cost(cost);
                    }
                }
                let mut latency = IoLatencyController::new(setup.profile.max_qd);
                let mut any_latency = false;
                for &g in &group_ids {
                    if let Some(l) = eff_latency[g.index()] {
                        latency.set_target(g, Some(l.target_us));
                        any_latency = true;
                    }
                }
                if any_latency {
                    qos.push_io_latency(latency);
                }
                let mut device = NvmeDevice::new(setup.profile.clone(), rng.fork(d as u64));
                device.precondition(setup.precondition);
                if setup.faults.is_enabled() {
                    // The fault stream is a pure function of (seed,
                    // device index) — NOT a fork of `rng`, which would
                    // shift every downstream stream and break
                    // byte-compatibility with fault-free runs.
                    device.set_fault_plan(FaultPlan::new(
                        setup.faults.clone(),
                        config.seed,
                        d as u64,
                    ));
                }
                DeviceHost {
                    device,
                    sched,
                    qos,
                    dispatching: None,
                    qos_pump_at: None,
                    qos_pump_gen: 0,
                    sched_timer_at: None,
                    sched_timer_gen: 0,
                    ctx_factor: DeviceHost::ctx_factor_for(setup.scheduler),
                    timeouts: std::collections::VecDeque::new(),
                    timeout_at: None,
                    timeout_gen: 0,
                    retry_queue: Vec::new(),
                    retry_at: None,
                    retry_gen: 0,
                    reset_period: setup.faults.reset_period,
                    reset_duration: setup.faults.reset_duration,
                    timeouts_fired: 0,
                    retries: 0,
                    failed: 0,
                }
            })
            .collect();

        let cores: Vec<Core> = (0..config.cores).map(|_| Core::new()).collect();

        let apps: Vec<AppRuntime> = apps
            .into_iter()
            .enumerate()
            .map(|(i, setup)| {
                for &d in &setup.devices {
                    assert!(d.index() < devs.len(), "app {i} references missing {d}");
                }
                let group = hierarchy.group_of(AppId(i));
                let prio = hierarchy.prio_class(group);
                let capacity = setup
                    .devices
                    .iter()
                    .map(|d| devs[d.index()].device.profile().capacity_bytes)
                    .min()
                    .expect("nonempty devices");
                let stream = AddressStream::new(&setup.spec, capacity, rng.fork(1000 + i as u64));
                let rate = setup.spec.rate_bytes_per_sec().map(|r| {
                    TokenBucket::new(r, (r * 0.005).max(f64::from(setup.spec.block_size())))
                });
                // Lock-luck: lognormal with scheduler-dependent spread,
                // normalized to mean 1 so aggregate calibration holds.
                let sigma = setup
                    .devices
                    .iter()
                    .map(|d| match devices[d.index()].scheduler {
                        SchedKind::None => 0.0,
                        SchedKind::MqDeadline => 0.9,
                        SchedKind::Bfq => 0.35,
                        SchedKind::Kyber => 0.2,
                    })
                    .fold(0.0, f64::max);
                let mut luck_rng = rng.fork(5000 + i as u64);
                let lock_luck = if sigma > 0.0 {
                    (sigma * luck_rng.std_normal() - sigma * sigma / 2.0).exp()
                } else {
                    1.0
                };
                // The model RNG is a pure function of (seed, app index)
                // — like FaultPlan, NOT a fork of the build rng, whose
                // state advances per fork: a conditional fork here
                // would shift every later app's stream and perturb
                // pre-existing open-loop runs.
                let model = setup.model.as_ref().map(|m| ClosedLoopState {
                    engine: m.build(
                        simcore::DetRng::new(
                            config.seed ^ (9000 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ),
                        capacity,
                    ),
                    tokens: Vec::new(),
                    measured_bytes: 0,
                });
                let amortization = Self::amortization(setup.spec.iodepth());
                let engine = setup.spec.engine();
                AppRuntime {
                    group,
                    prio,
                    lock_luck,
                    submit_cpu: engine.submit_cost().mul_f64(amortization),
                    complete_cpu: engine.complete_cost().mul_f64(amortization),
                    core: CoreId(i % config.cores),
                    devices: setup.devices,
                    next_dev: i, // stagger multi-device round-robins
                    stream,
                    batch: workload::ArrivalBatch::new(),
                    rate,
                    inflight: 0,
                    issued: 0,
                    completed: 0,
                    failed: 0,
                    ctx_switches: 0.0,
                    hist: LatencyHistogram::new(),
                    bw: BandwidthSeries::new(config.bw_window),
                    stage_sums_ns: [0.0; 5],
                    wakes: Vec::new(),
                    near_wakes: 0,
                    phase_active: false,
                    phase_trans: None,
                    phase_cached_until: SimTime::ZERO,
                    model,
                    spec: setup.spec,
                }
            })
            .collect();

        // The queue is pre-sized from a per-class bound on pending
        // events: about two wakes per app, one CpuDone per core, one
        // DeviceDone per in-flight device slot, and at most one each of
        // SchedDispatchDone / QosPump / SchedTimer / IoTimeout /
        // RetryTimer / DeviceReset / DeviceRestart per device. Only
        // far-routed wakes and the per-device classes other than
        // SchedDispatchDone reach the queue itself (near wakes, CpuDone
        // and SchedDispatchDone wait in the merge frontiers below), so
        // the bound is generous; aborts and resets can leave extra stale
        // DeviceDone events, and the queue then grows.
        let event_capacity = apps.len() * 2
            + cores.len()
            + devs
                .iter()
                .map(|d| 7 + d.device.profile().max_qd as usize)
                .sum::<usize>();

        // The wake tree starts small and grows with the active set; the
        // per-core / per-device trees are provisioned in full (their
        // source counts are machine-sized, not fleet-sized).
        let wake_tree = Tourney::new(apps.len().clamp(1, 64));
        let app_leaf = vec![Self::LEAF_NONE; apps.len()];
        let cpu_tree = Tourney::new(cores.len());
        let disp_tree = Tourney::new(devs.len());
        HostSim {
            config,
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(event_capacity),
            apps,
            cores,
            devs,
            next_req_id: 0,
            qos_scratch: Vec::new(),
            start_scratch: Vec::new(),
            wake_tree,
            app_leaf,
            leaf_app: Vec::new(),
            free_leaves: Vec::new(),
            wake_fifo: VecDeque::new(),
            cpu_tree,
            disp_tree,
            qfront: QFront::AtOrAfter(SimTime::ZERO),
            tree_pending: 0,
            active_leaves: 0,
            active_hwm: 0,
        }
    }

    /// Sentinel in `app_leaf` for "no tree leaf held".
    const LEAF_NONE: u32 = u32::MAX;

    /// The app's `wake_tree` leaf slot, allocating (and growing the
    /// tree if every slot is taken) on first use.
    fn wake_leaf(&mut self, i: usize) -> usize {
        let cur = self.app_leaf[i];
        if cur != Self::LEAF_NONE {
            return cur as usize;
        }
        let leaf = match self.free_leaves.pop() {
            Some(l) => l,
            None => {
                let l = self.leaf_app.len() as u32;
                if l as usize >= self.wake_tree.capacity() {
                    self.wake_tree.grow_to(self.wake_tree.capacity() * 2);
                }
                self.leaf_app.push(Self::LEAF_NONE);
                l
            }
        };
        self.app_leaf[i] = leaf;
        self.leaf_app[leaf as usize] = i as u32;
        leaf as usize
    }

    /// Schedules `ev`, min-updating the cached queue front key. A
    /// free-standing helper over the fields (not `&mut self`) so call
    /// sites holding `&mut self.devs[..]` or `&mut self.apps[..]`
    /// borrows keep compiling.
    #[inline]
    fn sched_event(queue: &mut EventQueue<Event>, qfront: &mut QFront, at: SimTime, ev: Event) {
        let seq = queue.schedule(at, ev);
        qfront.scheduled(at, seq);
    }

    /// Twin of [`Self::sched_event`] for single-slot sources (per-core
    /// `CpuDone`, per-device `SchedDispatchDone`): draws the shared
    /// tie-break seq and arms the source's tournament leaf in place.
    /// The leaf is parked, or still holds the event being handled (the
    /// source invariantly has at most one outstanding event).
    #[inline]
    fn slot_event(
        queue: &mut EventQueue<Event>,
        tree: &mut Tourney,
        tree_pending: &mut usize,
        leaf: usize,
        at: SimTime,
    ) {
        let seq = queue.alloc_seq();
        tree.set(leaf, (at, seq));
        *tree_pending += 1;
    }

    /// Wake insert. The caller has already applied exact dedup (`at` is
    /// strictly earlier than every wake pending for this app), so the
    /// new wake is the app's front; it is routed by distance —
    /// same-instant to the global FIFO, near to the app's tournament
    /// leaf, far to the timer wheel — and pushed onto the app's pending
    /// stack. Every route draws one seq from the queue's counter, so all
    /// events share one `(time, seq)` order.
    fn insert_wake(&mut self, a: AppId, at: SimTime) {
        debug_assert!(at >= self.now, "wakes cannot target the past");
        let i = a.index();
        let (seq, route) = if at == self.now {
            let seq = self.queue.alloc_seq();
            self.wake_fifo.push_back((at, seq, i as u32));
            self.tree_pending += 1;
            (seq, WakeRoute::Fifo)
        } else if at.saturating_since(self.now) <= NEAR_WAKE {
            let seq = self.queue.alloc_seq();
            // Earlier than all pending wakes ⇒ earlier than all
            // tree-routed ones ⇒ the new leaf key.
            let leaf = self.wake_leaf(i);
            self.wake_tree.set(leaf, (at, seq));
            self.tree_pending += 1;
            (seq, WakeRoute::Tree)
        } else {
            let seq = self.queue.schedule(at, Event::AppWake(a));
            self.qfront.scheduled(at, seq);
            (seq, WakeRoute::Wheel)
        };
        let newly_active = {
            let app = &mut self.apps[i];
            debug_assert!(app.wakes.first().is_none_or(|w| at < w.at));
            app.wakes.insert(0, Wake { at, seq, route });
            if route == WakeRoute::Wheel {
                false
            } else {
                app.near_wakes += 1;
                app.near_wakes == 1
            }
        };
        if newly_active {
            self.active_leaves += 1;
            self.active_hwm = self.active_hwm.max(self.active_leaves);
        }
    }

    /// Books the pop of app `a`'s front wake — the popped key is always
    /// the app's earliest pending wake, whichever container delivered
    /// it (an earlier one would have been some container's front with a
    /// smaller key and popped first) — and re-arms the app's tournament
    /// leaf with its next tree-routed wake when a tree wake left.
    fn wake_popped(&mut self, a: AppId, key: (SimTime, u64)) {
        let i = a.index();
        let w = self.apps[i].wakes.remove(0);
        debug_assert_eq!((w.at, w.seq), key);
        if w.route == WakeRoute::Wheel {
            return;
        }
        self.tree_pending -= 1;
        let now_idle = {
            let app = &mut self.apps[i];
            app.near_wakes -= 1;
            app.near_wakes == 0
        };
        if now_idle {
            self.active_leaves -= 1;
        }
        if w.route == WakeRoute::Tree {
            let next = self.apps[i]
                .wakes
                .iter()
                .find(|x| x.route == WakeRoute::Tree)
                .map_or(Tourney::INF, |x| (x.at, x.seq));
            let leaf = self.app_leaf[i];
            debug_assert_ne!(leaf, Self::LEAF_NONE);
            self.wake_tree.set(leaf as usize, next);
            if next == Tourney::INF {
                // Last tree wake gone: the app leaves the tournament
                // and the slot recycles to whichever app activates next.
                self.app_leaf[i] = Self::LEAF_NONE;
                self.free_leaves.push(leaf);
            }
        }
    }

    /// Runs the simulation until `until`, consuming the engine and
    /// returning the measurement report.
    #[must_use]
    pub fn run(mut self, until: SimTime) -> RunReport {
        self.seed_initial_events();
        // Profiling totals, kept in locals through the loop and folded
        // into the process-global counters once at the end (see
        // `crate::stats`).
        let (popped, peak) = self.run_loop(until);
        crate::stats::record_run(popped, peak);
        crate::stats::record_tourney(self.active_hwm as u64, self.apps.len() as u64);
        self.now = until;
        trace::record_with(|| TraceEvent::new(until.as_nanos(), TraceKind::RunEnd, 0, 0, 0, 0, 0));
        self.finish(until)
    }

    /// Seeds the initial event population: one `AppWake` per app (in app
    /// order), then per device (in device order) the QoS pump and the
    /// first injected reset.
    fn seed_initial_events(&mut self) {
        for i in 0..self.apps.len() {
            let at = self.apps[i].spec.start_at();
            self.insert_wake(AppId(i), at);
        }
        for d in 0..self.devs.len() {
            self.schedule_qos_pump(DeviceId(d));
            if let Some(period) = self.devs[d].reset_period {
                Self::sched_event(
                    &mut self.queue,
                    &mut self.qfront,
                    SimTime::ZERO + period,
                    Event::DeviceReset(DeviceId(d)),
                );
            }
        }
    }

    /// How many pops the event loop processes between polls of the
    /// thread-local cancellation token: cheap enough to be invisible on
    /// healthy runs, tight enough that a cancelled cell unwinds within
    /// milliseconds of simulated work.
    const CANCEL_POLL_INTERVAL: u64 = 4096;

    /// Removes and returns the next event in global `(time, seq)` order
    /// from whichever source holds the minimum: the queue's front, the
    /// same-instant wake FIFO, the app-wake tournament, the CPU-slot
    /// tournament, or the dispatch-slot tournament. Keys never collide
    /// across sources — every seq comes from the queue's one counter.
    ///
    /// The queue front is cached in `qfront` (exact key or lower bound;
    /// inserts min-update it, so handlers scheduling events earlier than
    /// the previous front keep it valid). The wheel is peeked only when
    /// the other sources' minimum reaches the bound, and then only up to
    /// that minimum ([`EventQueue::peek_key_within`]): a queue front
    /// beyond it cannot pop next, and the wheel's cursor must not run
    /// ahead of the clock.
    ///
    /// A popped CPU or dispatch leaf keeps its key here; its handler
    /// re-arms or parks it (see [`Self::on_cpu_done`] and
    /// [`Self::on_sched_dispatch_done`]).
    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, Event)> {
        let fkey = self
            .wake_fifo
            .front()
            .map_or(Tourney::INF, |&(t, s, _)| (t, s));
        let (ckey, cleaf) = self.cpu_tree.min();
        let (wkey, wleaf) = self.wake_tree.min();
        let (dkey, dleaf) = self.disp_tree.min();
        let min = fkey.min(ckey).min(wkey).min(dkey);
        let queue_first = match self.qfront {
            QFront::Exact(k) => k < min,
            QFront::AtOrAfter(t) if min.0 < t => false,
            QFront::AtOrAfter(_) => match self.queue.peek_key_within(min.0) {
                Ok(k) => {
                    self.qfront = QFront::Exact(k);
                    k < min
                }
                Err(lb) => {
                    self.qfront = QFront::AtOrAfter(lb);
                    false
                }
            },
        };
        if queue_first {
            let (t, seq, ev) = self.queue.pop_keyed().expect("cached front exists");
            self.qfront = QFront::AtOrAfter(t);
            if let Event::AppWake(a) = ev {
                // A far-routed wake: unwind the app's pending stack too.
                self.wake_popped(a, (t, seq));
            }
            return Some((t, ev));
        }
        if min == Tourney::INF {
            return None;
        }
        if min == fkey {
            let (t, seq, ai) = self.wake_fifo.pop_front().expect("front exists");
            let a = AppId(ai as usize);
            self.wake_popped(a, (t, seq));
            return Some((t, Event::AppWake(a)));
        }
        if min == wkey {
            let a = AppId(self.leaf_app[wleaf] as usize);
            self.wake_popped(a, min);
            return Some((min.0, Event::AppWake(a)));
        }
        self.tree_pending -= 1;
        if min == ckey {
            Some((min.0, Event::CpuDone(CoreId(cleaf))))
        } else {
            Some((min.0, Event::SchedDispatchDone(DeviceId(dleaf))))
        }
    }

    /// Drains the pending events up to `until`, returning `(events
    /// popped, peak pending)`. The first event past `until` is consumed
    /// but not processed.
    ///
    /// Cooperative cancellation: every [`Self::CANCEL_POLL_INTERVAL`]
    /// pops the loop charges the thread-local [`simcore::cancel`] token
    /// and breaks out early if it latched — the run then finishes
    /// normally with partial statistics (and the cell runner discards
    /// them; a cancelled run never contributes rows to any output, so
    /// determinism is unaffected).
    fn run_loop(&mut self, until: SimTime) -> (u64, u64) {
        let mut popped = 0u64;
        let mut peak = (self.queue.len() + self.tree_pending) as u64;
        while let Some((t, ev)) = self.pop_next() {
            if t > until {
                break;
            }
            if popped.is_multiple_of(Self::CANCEL_POLL_INTERVAL)
                && simcore::cancel::charge_current(Self::CANCEL_POLL_INTERVAL)
            {
                break;
            }
            self.now = t;
            popped += 1;
            match ev {
                Event::AppWake(a) => self.on_app_wake(a),
                Event::CpuDone(c) => self.on_cpu_done(c),
                Event::SchedDispatchDone(d) => self.on_sched_dispatch_done(d),
                Event::DeviceDone(d, slot, gen) => self.on_device_done(d, slot, gen),
                Event::QosPump(d, gen) => self.on_qos_pump(d, gen),
                Event::SchedTimer(d, gen) => self.on_sched_timer(d, gen),
                Event::IoTimeout(d, gen) => self.on_io_timeout(d, gen),
                Event::RetryTimer(d, gen) => self.on_retry_timer(d, gen),
                Event::DeviceReset(d) => self.on_device_reset(d),
                Event::DeviceRestart(d) => {
                    let now = self.now;
                    trace::record_with(|| {
                        TraceEvent::new(
                            now.as_nanos(),
                            TraceKind::DeviceRestart,
                            0,
                            0,
                            d.0 as u32,
                            0,
                            0,
                        )
                    });
                    self.pump_device(d);
                }
            }
            peak = peak.max((self.queue.len() + self.tree_pending) as u64);
        }
        (popped, peak)
    }

    fn measured(&self) -> bool {
        self.now >= self.config.measure_from
    }

    fn schedule_wake(&mut self, a: AppId, at: SimTime) {
        // Exact dedup: the pending stack knows every outstanding wake,
        // so a wake at or after the app's earliest pending one is pure
        // noise — by the time it would fire, the earlier wake has
        // already driven the issue loop at that instant or later
        // (re-arming any phase-edge follow-up itself). See DESIGN.md §17.
        if self.apps[a.index()].wakes.first().is_none_or(|w| at < w.at) {
            self.insert_wake(a, at);
        }
    }

    fn deep_submitters_on(&self, dev: DeviceId) -> u32 {
        let mut n = 0;
        for app in &self.apps {
            if app.spec.iodepth() >= DEEP_QD
                && app.spec.is_active(self.now)
                && app.devices.contains(&dev)
            {
                n += 1;
            }
        }
        n.max(1)
    }

    fn amortization(qd: u32) -> f64 {
        AMORT_FLOOR + (1.0 - AMORT_FLOOR) / f64::from(qd.max(1))
    }

    fn on_app_wake(&mut self, a: AppId) {
        let (active, trans) = {
            // Phase cache: `is_active`/`next_transition` are constant
            // between phase edges (the spec's burst/start/stop schedule
            // is a fixed step function of absolute time), so both spec
            // walks run once per phase instead of once per wake.
            let app = &mut self.apps[a.index()];
            if self.now >= app.phase_cached_until {
                app.phase_active = app.spec.is_active(self.now);
                app.phase_trans = app.spec.next_transition(self.now);
                app.phase_cached_until = app.phase_trans.unwrap_or(SimTime::MAX);
            }
            (app.phase_active, app.phase_trans)
        };
        if let Some(t) = trans {
            self.schedule_wake(a, t);
        }
        if !active {
            return;
        }
        if self.apps[a.index()].model.is_some() {
            // Closed-loop apps issue from their application model, not
            // the open-loop address stream.
            self.issue_closed_loop(a);
            return;
        }
        let now = self.now;
        loop {
            let app = &mut self.apps[a.index()];
            if app.inflight >= app.spec.iodepth() {
                break;
            }
            let len = app.spec.block_size();
            if let Some(bucket) = &mut app.rate {
                match bucket.try_take(f64::from(len), self.now) {
                    Ok(()) => {}
                    Err(at) => {
                        // Clamp forward: sub-nanosecond waits would
                        // otherwise re-fire at the same instant forever.
                        let at = at.max(self.now + SimDuration::from_nanos(1));
                        self.schedule_wake(a, at);
                        break;
                    }
                }
            }
            let dev = app.pick_device();
            // Same tuple sequence as `next_io()` (proven by the
            // batch_equivalence proptests), drawn from a pregenerated
            // chunk. The stream RNG is private to this app, so drawing
            // ahead is unobservable.
            let (op, pattern, offset) = app.batch.next(&mut app.stream);
            let id = self.next_req_id;
            self.next_req_id += 1;
            let mut req = IoRequest::new(id, a, app.group, dev, op, pattern, len, offset, self.now);
            req.prio = app.prio;
            app.inflight += 1;
            app.issued += 1;
            trace::record_with(|| submit_event(&req, now));
            let deep = app.spec.iodepth() >= DEEP_QD;
            let core = app.core;
            let dh = &self.devs[dev.index()];
            let mut dur =
                app.submit_cpu + dh.sched.submit_cpu_overhead() + dh.qos.submit_cpu_overhead(deep);
            if deep && dh.sched.kind() != SchedKind::None {
                // Deep-queue submitters contend on the scheduler lock
                // while the serialized dispatch path drains everyone's
                // requests (Fig. 4c: a full core per batch app). The
                // per-app luck factor models NUMA/lock-position
                // asymmetry, the source of the fairness collapse past
                // CPU saturation (O3).
                let contenders = f64::from(self.deep_submitters_on(dev));
                let spread = contenders / (4.0 * self.apps[a.index()].devices.len() as f64);
                let luck = self.apps[a.index()].lock_luck;
                dur += dh.sched.dispatch_overhead().mul_f64(spread.max(1.0) * luck);
            }
            self.push_cpu_work(core, Work::Submit(req), dur);
        }
    }

    /// The closed-loop issue path: instead of drawing from the
    /// open-loop address stream, poll the application model for its
    /// next op. Completions (including failures) feed back into the
    /// model via [`Self::on_cpu_done`], and think-time pauses become
    /// ordinary app wakes — closed-loop apps ride the same
    /// `ArrivalBatch`/tournament wake machinery as everyone else, so
    /// FIFO/tree/wheel routing and exact dedup apply unchanged.
    ///
    /// Rate buckets are intentionally ignored here: a closed-loop app's
    /// pacing *is* the model (window + think time); layering a token
    /// bucket on top would double-throttle.
    fn issue_closed_loop(&mut self, a: AppId) {
        let now = self.now;
        loop {
            let app = &mut self.apps[a.index()];
            if app.inflight >= app.spec.iodepth() {
                break;
            }
            let cl = app.model.as_mut().expect("closed-loop app");
            let aop = match cl.engine.next_op(now) {
                AppPoll::Op(aop) => aop,
                AppPoll::WaitUntil(at) => {
                    // Clamp forward like the rate-bucket path: a stale
                    // expiry must not re-fire at the same instant.
                    let at = at.max(now + SimDuration::from_nanos(1));
                    self.schedule_wake(a, at);
                    break;
                }
                // Blocked on in-flight ops: the next completion's
                // schedule_wake re-polls — no timer needed.
                AppPoll::Blocked => break,
            };
            let dev = app.pick_device();
            let id = self.next_req_id;
            self.next_req_id += 1;
            let mut req = IoRequest::new(
                id,
                a,
                app.group,
                dev,
                aop.op,
                aop.pattern,
                aop.len,
                aop.offset,
                now,
            );
            req.prio = app.prio;
            app.inflight += 1;
            app.issued += 1;
            app.model
                .as_mut()
                .expect("closed-loop app")
                .tokens
                .push((id, aop.token));
            let deep = app.spec.iodepth() >= DEEP_QD;
            let core = app.core;
            trace::record_with(|| submit_event(&req, now));
            let dh = &self.devs[dev.index()];
            let mut dur =
                app.submit_cpu + dh.sched.submit_cpu_overhead() + dh.qos.submit_cpu_overhead(deep);
            if deep && dh.sched.kind() != SchedKind::None {
                // Same deep-queue scheduler-lock contention model as the
                // open-loop path (Fig. 4c / O3).
                let contenders = f64::from(self.deep_submitters_on(dev));
                let spread = contenders / (4.0 * self.apps[a.index()].devices.len() as f64);
                let luck = self.apps[a.index()].lock_luck;
                dur += dh.sched.dispatch_overhead().mul_f64(spread.max(1.0) * luck);
            }
            self.push_cpu_work(core, Work::Submit(req), dur);
        }
    }

    fn push_cpu_work(&mut self, core: CoreId, work: Work, dur: SimDuration) {
        if let Some(done_at) = self.cores[core.index()].push(work, dur, self.now) {
            // At most one outstanding CpuDone per core (the FIFO only
            // reports a finish time when it goes busy), so the core's
            // tournament leaf is a one-slot frontier.
            Self::slot_event(
                &mut self.queue,
                &mut self.cpu_tree,
                &mut self.tree_pending,
                core.index(),
                done_at,
            );
        }
    }

    fn on_cpu_done(&mut self, c: CoreId) {
        let measured = self.measured();
        let (work, next) = self.cores[c.index()].finish_current(self.now, measured);
        // The core's leaf still holds the popped key: re-arm it in place
        // with the next item, or park it.
        match next {
            Some(t) => Self::slot_event(
                &mut self.queue,
                &mut self.cpu_tree,
                &mut self.tree_pending,
                c.index(),
                t,
            ),
            None => self.cpu_tree.set(c.index(), Tourney::INF),
        }
        match work {
            Work::Submit(mut req) => {
                req.submitted_at = self.now;
                let dev = req.dev;
                let dh = &mut self.devs[dev.index()];
                if let Some(mut cleared) = dh.qos.submit(req, self.now) {
                    cleared.scheduled_at = self.now;
                    dh.sched.insert(cleared, self.now);
                }
                self.pump_device(dev);
            }
            Work::Complete(req) => {
                let now = self.now;
                trace::record_with(|| {
                    req_event(
                        TraceKind::Complete,
                        &req,
                        now,
                        now.saturating_since(req.issued_at).as_nanos(),
                        u64::from(req.op.is_write()),
                    )
                });
                let ctx_factor = self.devs[req.dev.index()].ctx_factor;
                let app = &mut self.apps[req.app.index()];
                app.inflight = app.inflight.saturating_sub(1);
                if measured {
                    app.ctx_switches += 1.0 + ctx_factor;
                    app.completed += 1;
                    app.hist.record(self.now.saturating_since(req.issued_at));
                    app.bw.record(self.now, u64::from(req.len));
                    let spans = [
                        req.submitted_at.saturating_since(req.issued_at),
                        req.scheduled_at.saturating_since(req.submitted_at),
                        req.dispatched_at.saturating_since(req.scheduled_at),
                        req.device_done_at.saturating_since(req.dispatched_at),
                        self.now.saturating_since(req.device_done_at),
                    ];
                    for (sum, span) in app.stage_sums_ns.iter_mut().zip(spans) {
                        *sum += span.as_nanos() as f64;
                    }
                } else {
                    // Still record the series so time plots start at 0.
                    app.bw.record(self.now, u64::from(req.len));
                }
                if let Some(cl) = app.model.as_mut() {
                    if measured {
                        cl.measured_bytes += u64::from(req.len);
                    }
                    if let Some(pos) = cl.tokens.iter().position(|t| t.0 == req.id) {
                        let token = cl.tokens.swap_remove(pos).1;
                        cl.engine.on_complete(token, true, self.now);
                    }
                }
                let a = req.app;
                self.completion_wake(a);
            }
            Work::Fail(req) => {
                // The app observes an error completion: the in-flight
                // slot frees (so closed-loop jobs keep issuing) but no
                // latency/bandwidth sample is recorded.
                let now = self.now;
                trace::record_with(|| {
                    req_event(TraceKind::Fail, &req, now, u64::from(req.retries), 0)
                });
                let app = &mut self.apps[req.app.index()];
                app.inflight = app.inflight.saturating_sub(1);
                app.failed += 1;
                if let Some(cl) = app.model.as_mut() {
                    if let Some(pos) = cl.tokens.iter().position(|t| t.0 == req.id) {
                        let token = cl.tokens.swap_remove(pos).1;
                        // The model sees the error and advances its
                        // state machine (aborting the transaction).
                        cl.engine.on_complete(token, false, self.now);
                    }
                }
                let a = req.app;
                self.completion_wake(a);
            }
        }
    }

    /// The wake a completion owes its app at `now`. Such a wake carries
    /// the newest seq, so it pops right after every other event pending
    /// at `now`. When there is none (the FIFO is empty and every tree
    /// minimum and the queue front or its bound lies later), it would
    /// be the very next pop, and it runs here instead of round-tripping
    /// through the FIFO. It still draws its seq, so every later key is
    /// unchanged, and counts toward the active-set high-water mark as
    /// the queued wake would have. Inline wakes are not counted in
    /// `host_sim::stats`' `events_popped`.
    fn completion_wake(&mut self, a: AppId) {
        let now = self.now;
        let app = &self.apps[a.index()];
        if app.wakes.first().is_some_and(|w| w.at <= now) {
            return; // exact dedup, as in `schedule_wake`
        }
        let idle_now = self.wake_fifo.is_empty()
            && self.cpu_tree.min().0 .0 > now
            && self.wake_tree.min().0 .0 > now
            && self.disp_tree.min().0 .0 > now
            && self.qfront.after(now);
        if !idle_now {
            self.insert_wake(a, now);
            return;
        }
        self.queue.alloc_seq();
        if app.near_wakes == 0 {
            self.active_hwm = self.active_hwm.max(self.active_leaves + 1);
        }
        self.on_app_wake(a);
    }

    fn pump_device(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        // Lean pump: with no QoS stages configured the chain can never
        // hold requests (`submit` passes through) nor ask for a pump
        // (`next_event` is None), so both the drain and the follow-up
        // scheduling are provable no-ops — skip them. This is the
        // common case on the `none`/`MQ-DL`/`BFQ` knob rows.
        let has_qos = !dh.qos.is_empty();
        if has_qos {
            // Pass requests released by QoS stages on to the scheduler
            // (scratch buffers keep this per-event path allocation-free).
            dh.qos.drain_into(now, &mut self.qos_scratch);
            for mut r in self.qos_scratch.drain(..) {
                r.scheduled_at = now;
                dh.sched.insert(r, now);
            }
        }
        // Serialized dispatch path: start the next dispatch if free.
        if dh.dispatching.is_none() && dh.device.has_capacity(now) {
            if let Some(req) = dh.sched.dispatch(now) {
                let cost = dh.sched.dispatch_overhead();
                dh.dispatching = Some(req);
                // The dispatch path is serialized per device
                // (`dispatching` is a one-slot latch), so like CPU cores
                // it gets a one-slot tournament leaf.
                Self::slot_event(
                    &mut self.queue,
                    &mut self.disp_tree,
                    &mut self.tree_pending,
                    dev.index(),
                    now + cost,
                );
            }
        }
        // Start service on free device units.
        dh.device.start_ready_into(now, &mut self.start_scratch);
        let io_timeout = self.config.io_timeout;
        let started_any = !self.start_scratch.is_empty();
        for c in self.start_scratch.drain(..) {
            Self::sched_event(
                &mut self.queue,
                &mut self.qfront,
                c.done_at,
                Event::DeviceDone(dev, c.slot, c.gen),
            );
            if let Some(deadline) = io_timeout {
                // Constant offset from service start keeps this FIFO in
                // deadline order; one coalesced IoTimeout event covers
                // the front entry.
                dh.timeouts.push_back((now + deadline, c.slot, c.gen));
            }
        }
        if io_timeout.is_some() && started_any {
            self.schedule_io_timeout(dev);
        }
        if has_qos {
            self.schedule_qos_pump(dev);
        }
        self.schedule_sched_timer(dev);
    }

    fn on_sched_dispatch_done(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        let mut req = dh.dispatching.take().expect("dispatch path was busy");
        if dh.device.is_online(now) {
            req.dispatched_at = now;
            dh.device.accept(req, now);
        } else {
            // The device went into reset mid-dispatch: requeue through
            // the scheduler like any other bounced request.
            req.scheduled_at = now;
            dh.sched.insert(req, now);
        }
        self.pump_device(dev);
        // The device's leaf still holds the popped key unless the pump
        // started the next dispatch and re-armed it in place.
        if self.devs[dev.index()].dispatching.is_none() {
            self.disp_tree.set(dev.index(), Tourney::INF);
        }
    }

    fn on_device_done(&mut self, dev: DeviceId, slot: ServiceSlot, gen: u64) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        let Some((mut req, status)) = dh.device.complete_current(slot, gen, now) else {
            // Stale: the command was aborted (timeout) or wiped by a
            // reset after this event was scheduled.
            return;
        };
        match status {
            CompletionStatus::Success => {
                req.device_done_at = now;
                dh.qos.on_device_complete(&req, now);
                dh.sched.on_complete(&req, now);
                let app = &self.apps[req.app.index()];
                let (core, dur) = (app.core, app.complete_cpu);
                self.push_cpu_work(core, Work::Complete(req), dur);
            }
            CompletionStatus::MediaError => {
                // The scheduler saw a device attempt finish (feedback,
                // e.g. Kyber's latency tracking); QoS completion
                // accounting waits for the request's *final* outcome so
                // per-group inflight stays balanced across retries.
                dh.sched.on_complete(&req, now);
                self.handle_attempt_failure(dev, req);
            }
        }
        self.pump_device(dev);
    }

    /// A device attempt failed (media error or timeout abort): re-drive
    /// it after backoff if budget remains, else fail it back to the app.
    fn handle_attempt_failure(&mut self, dev: DeviceId, mut req: IoRequest) {
        let now = self.now;
        if u32::from(req.retries) < self.config.max_retries {
            req.retries += 1;
            // Exponential backoff: base × 2^(attempt-1).
            let exp = u32::from(req.retries) - 1;
            let backoff = self
                .config
                .retry_backoff
                .mul_f64(f64::from(1u32 << exp.min(16)));
            trace::record_with(|| {
                req_event(
                    TraceKind::RetryScheduled,
                    &req,
                    now,
                    u64::from(req.retries),
                    backoff.as_nanos(),
                )
            });
            let dh = &mut self.devs[dev.index()];
            dh.retries += 1;
            dh.retry_queue.push((now + backoff, req));
            self.schedule_retry_timer(dev);
        } else {
            let dh = &mut self.devs[dev.index()];
            dh.failed += 1;
            req.device_done_at = now;
            // Final outcome: settle QoS accounting exactly once.
            dh.qos.on_device_complete(&req, now);
            let app = &self.apps[req.app.index()];
            let (core, dur) = (app.core, app.complete_cpu);
            self.push_cpu_work(core, Work::Fail(req), dur);
        }
    }

    fn on_io_timeout(&mut self, dev: DeviceId, gen: u64) {
        {
            let dh = &mut self.devs[dev.index()];
            if gen != dh.timeout_gen {
                return;
            }
            dh.timeout_at = None;
        }
        let now = self.now;
        loop {
            let dh = &mut self.devs[dev.index()];
            let Some(&(deadline, slot, sgen)) = dh.timeouts.front() else {
                break;
            };
            if !dh.device.slot_pending(slot, sgen) {
                // Completed / aborted / reset since: deadline satisfied.
                dh.timeouts.pop_front();
                continue;
            }
            if deadline > now {
                break;
            }
            dh.timeouts.pop_front();
            if let Some(req) = dh.device.abort(slot, sgen) {
                dh.timeouts_fired += 1;
                trace::record_with(|| {
                    req_event(
                        TraceKind::TimeoutFired,
                        &req,
                        now,
                        u64::from(req.retries),
                        0,
                    )
                });
                trace::record_with(|| {
                    req_event(
                        TraceKind::DeviceAbort,
                        &req,
                        now,
                        u64::from(req.len),
                        u64::from(req.op.is_write()),
                    )
                });
                dh.sched.on_complete(&req, now);
                self.handle_attempt_failure(dev, req);
            }
        }
        self.schedule_io_timeout(dev);
        self.pump_device(dev);
    }

    fn on_retry_timer(&mut self, dev: DeviceId, gen: u64) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        if gen != dh.retry_gen {
            return;
        }
        dh.retry_at = None;
        // Re-drive due requests in push order (deterministic; due times
        // can tie across backoff levels).
        let mut i = 0;
        while i < dh.retry_queue.len() {
            if dh.retry_queue[i].0 <= now {
                let (_, mut r) = dh.retry_queue.remove(i);
                r.scheduled_at = now;
                trace::record_with(|| {
                    req_event(TraceKind::RetryRequeue, &r, now, u64::from(r.retries), 0)
                });
                dh.sched.insert(r, now);
            } else {
                i += 1;
            }
        }
        self.schedule_retry_timer(dev);
        self.pump_device(dev);
    }

    fn on_device_reset(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        let until = now + dh.reset_duration;
        // Everything queued or in flight on the device bounces back to
        // the scheduler (the kernel's requeue-on-reset: these consume no
        // retry budget). Their old DeviceDone events and deadlines go
        // stale via the slot generations.
        let bounced = dh.device.reset(now, until);
        let n_bounced = bounced.len() as u64;
        trace::record_with(|| {
            TraceEvent::new(
                now.as_nanos(),
                TraceKind::DeviceReset,
                0,
                0,
                dev.0 as u32,
                n_bounced,
                until.as_nanos(),
            )
        });
        dh.timeouts.clear();
        for mut r in bounced {
            r.scheduled_at = now;
            dh.sched.insert(r, now);
        }
        Self::sched_event(
            &mut self.queue,
            &mut self.qfront,
            until,
            Event::DeviceRestart(dev),
        );
        if let Some(period) = dh.reset_period {
            Self::sched_event(
                &mut self.queue,
                &mut self.qfront,
                now + period,
                Event::DeviceReset(dev),
            );
        }
    }

    fn schedule_io_timeout(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        // Drop satisfied deadlines from the front (amortized O(1)).
        while let Some(&(_, slot, sgen)) = dh.timeouts.front() {
            if dh.device.slot_pending(slot, sgen) {
                break;
            }
            dh.timeouts.pop_front();
        }
        if let Some(&(deadline, _, _)) = dh.timeouts.front() {
            let t = deadline.max(now + SimDuration::from_nanos(1));
            if dh.timeout_at.is_none_or(|e| t < e) {
                dh.timeout_at = Some(t);
                dh.timeout_gen += 1;
                Self::sched_event(
                    &mut self.queue,
                    &mut self.qfront,
                    t,
                    Event::IoTimeout(dev, dh.timeout_gen),
                );
            }
        }
    }

    fn schedule_retry_timer(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        let Some(due) = dh.retry_queue.iter().map(|&(t, _)| t).min() else {
            return;
        };
        let t = due.max(now + SimDuration::from_nanos(1));
        if dh.retry_at.is_none_or(|e| t < e) {
            dh.retry_at = Some(t);
            dh.retry_gen += 1;
            Self::sched_event(
                &mut self.queue,
                &mut self.qfront,
                t,
                Event::RetryTimer(dev, dh.retry_gen),
            );
        }
    }

    fn on_qos_pump(&mut self, dev: DeviceId, gen: u64) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        if gen != dh.qos_pump_gen {
            // Superseded by an earlier pump that already ran (and
            // rescheduled the follow-up it needed): drop it.
            return;
        }
        dh.qos_pump_at = None;
        dh.qos.tick(now);
        self.pump_device(dev);
    }

    fn on_sched_timer(&mut self, dev: DeviceId, gen: u64) {
        let dh = &mut self.devs[dev.index()];
        if gen != dh.sched_timer_gen {
            return;
        }
        dh.sched_timer_at = None;
        self.pump_device(dev);
    }

    fn schedule_qos_pump(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        if let Some(t) = dh.qos.next_event(now) {
            // Break same-instant ties to avoid live loops.
            let t = t.max(now + SimDuration::from_nanos(1));
            if dh.qos_pump_at.is_none_or(|e| t < e) {
                dh.qos_pump_at = Some(t);
                dh.qos_pump_gen += 1;
                Self::sched_event(
                    &mut self.queue,
                    &mut self.qfront,
                    t,
                    Event::QosPump(dev, dh.qos_pump_gen),
                );
            }
        }
    }

    fn schedule_sched_timer(&mut self, dev: DeviceId) {
        let now = self.now;
        let dh = &mut self.devs[dev.index()];
        if let Some(t) = dh.sched.next_timer(now) {
            let t = t.max(now + SimDuration::from_nanos(1));
            if dh.sched_timer_at.is_none_or(|e| t < e) {
                dh.sched_timer_at = Some(t);
                dh.sched_timer_gen += 1;
                Self::sched_event(
                    &mut self.queue,
                    &mut self.qfront,
                    t,
                    Event::SchedTimer(dev, dh.sched_timer_gen),
                );
            }
        }
    }

    fn finish(mut self, until: SimTime) -> RunReport {
        let measure_from = self.config.measure_from;
        let window = until.saturating_since(measure_from);
        let apps = self
            .apps
            .drain(..)
            .enumerate()
            .map(|(i, app)| {
                let from = measure_from.max(app.spec.start_at());
                let to = app.spec.stop_at().unwrap_or(until).min(until);
                let mean_mib_s = app.bw.mean_mib_s(from, to);
                // Open-loop ops are uniformly block-sized; closed-loop
                // ops carry per-op sizes, measured at completion.
                let bytes: u64 = match &app.model {
                    Some(cl) => cl.measured_bytes,
                    None => app.hist.count() * u64::from(app.spec.block_size()),
                };
                let n = app.hist.count().max(1) as f64;
                let stages = crate::report::StageBreakdown {
                    submit_cpu_us: app.stage_sums_ns[0] / n / 1_000.0,
                    qos_wait_us: app.stage_sums_ns[1] / n / 1_000.0,
                    sched_wait_us: app.stage_sums_ns[2] / n / 1_000.0,
                    device_us: app.stage_sums_ns[3] / n / 1_000.0,
                    complete_cpu_us: app.stage_sums_ns[4] / n / 1_000.0,
                };
                AppReport {
                    app: AppId(i),
                    name: app.spec.name().to_owned(),
                    group: app.group,
                    issued: app.issued,
                    completed: app.completed,
                    failed: app.failed,
                    bytes,
                    mean_mib_s,
                    latency: app.hist.summary(),
                    hist: app.hist,
                    series: app.bw,
                    ctx_per_io: if app.completed > 0 {
                        app.ctx_switches / app.completed as f64
                    } else {
                        0.0
                    },
                    stages,
                }
            })
            .collect();
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| CoreReport {
                core: CoreId(i),
                utilization: if window.is_zero() {
                    0.0
                } else {
                    (c.busy_measured.as_secs_f64() / window.as_secs_f64()).min(1.0)
                },
                busy: c.busy_measured,
            })
            .collect();
        let devices = self
            .devs
            .iter_mut()
            .enumerate()
            .map(|(i, dh)| {
                let (served_ios, served_bytes) = dh.device.served();
                let fc = dh.device.fault_counters();
                DeviceReport {
                    dev: DeviceId(i),
                    served_ios,
                    served_bytes,
                    gc_level: dh.device.gc_level(until),
                    media_errors: fc.media_errors,
                    stalls: fc.stalls,
                    spikes: fc.spikes,
                    resets: fc.resets,
                    timeouts: dh.timeouts_fired,
                    retries: dh.retries,
                    failed: dh.failed,
                }
            })
            .collect();
        RunReport {
            duration: until.saturating_since(SimTime::ZERO),
            measure_from,
            apps,
            cores,
            devices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpecStopExt;
    use workload::JobSpec;

    fn simple_hierarchy(n_apps: usize) -> Hierarchy {
        let mut h = Hierarchy::new();
        let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
        h.enable_io(slice).unwrap();
        for i in 0..n_apps {
            let g = h.create(slice, &format!("app-{i}")).unwrap();
            h.attach_process(g, AppId(i)).unwrap();
        }
        h
    }

    fn run_lc(n_apps: usize, dur_ms: u64) -> RunReport {
        let h = simple_hierarchy(n_apps);
        let apps = (0..n_apps)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(dur_ms)),
                    vec![DeviceId(0)],
                )
            })
            .collect();
        let sim = HostSim::build(HostConfig::default(), h, apps, vec![DeviceSetup::flash()]);
        sim.run(SimTime::from_millis(dur_ms))
    }

    #[test]
    fn single_lc_app_latency_is_device_plus_cpu() {
        let r = run_lc(1, 300);
        let lat = &r.apps[0].latency;
        assert!(
            r.apps[0].completed > 1_000,
            "completed {}",
            r.apps[0].completed
        );
        // ~68 µs device + ~7.6 µs CPU ≈ 76 µs mean.
        assert!(
            (65.0..95.0).contains(&lat.mean_us),
            "mean latency {} us",
            lat.mean_us
        );
        assert!(lat.p99_us > lat.p50_us);
        assert!(lat.p99_us < 160.0, "p99 {} us", lat.p99_us);
    }

    #[test]
    fn cpu_utilization_grows_with_apps() {
        let one = run_lc(1, 150).mean_cpu_utilization();
        let eight = run_lc(8, 150).mean_cpu_utilization();
        assert!(one < 0.25, "1 app util {one}");
        assert!((0.55..0.98).contains(&eight), "8 app util {eight}");
    }

    #[test]
    fn cpu_saturation_inflates_tail_latency() {
        let few = run_lc(2, 200);
        let many = run_lc(32, 200);
        let p99_few = few.apps[0].latency.p99_us;
        let p99_many = many.apps[0].latency.p99_us;
        assert!(
            p99_many > 1.5 * p99_few,
            "saturation should inflate P99: {p99_few} -> {p99_many}"
        );
    }

    #[test]
    fn batch_app_saturates_device_bandwidth() {
        let h = simple_hierarchy(4);
        let apps = (0..4)
            .map(|i| {
                AppSetup::new(
                    JobSpec::batch_app(&format!("b-{i}")).stop_by(SimTime::from_millis(300)),
                    vec![DeviceId(0)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(10),
            h,
            apps,
            vec![DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(300));
        let gib_s = r.aggregate_gib_s();
        assert!(
            (2.4..3.2).contains(&gib_s),
            "batch saturation {gib_s} GiB/s"
        );
    }

    #[test]
    fn rate_limited_app_respects_cap() {
        let h = simple_hierarchy(1);
        let spec = JobSpec::builder("capped")
            .iodepth(8)
            .block_size(65536)
            .rate_mib_s(100.0)
            .stop_at(SimTime::from_millis(400))
            .build();
        let sim = HostSim::build(
            HostConfig::default(),
            h,
            vec![AppSetup::new(spec, vec![DeviceId(0)])],
            vec![DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(400));
        let mib_s = r.apps[0].mean_mib_s;
        assert!(
            (85.0..115.0).contains(&mib_s),
            "rate-capped bandwidth {mib_s} MiB/s"
        );
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let a = run_lc(3, 100);
        let b = run_lc(3, 100);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.apps[1].latency.p99_us, b.apps[1].latency.p99_us);
    }

    #[test]
    fn staggered_jobs_start_and_stop() {
        let h = simple_hierarchy(2);
        let early = JobSpec::builder("early")
            .iodepth(16)
            .stop_at(SimTime::from_millis(50))
            .build();
        let late = JobSpec::builder("late")
            .iodepth(16)
            .start_at(SimTime::from_millis(100))
            .stop_at(SimTime::from_millis(150))
            .build();
        let apps = vec![
            AppSetup::new(early, vec![DeviceId(0)]),
            AppSetup::new(late, vec![DeviceId(0)]),
        ];
        let sim = HostSim::build(HostConfig::default(), h, apps, vec![DeviceSetup::flash()]);
        let r = sim.run(SimTime::from_millis(200));
        assert!(r.apps[0].completed > 0);
        assert!(r.apps[1].completed > 0);
        // The late app produced nothing before 100 ms.
        let pts = r.apps[1].series.points();
        let before: f64 = pts
            .iter()
            .take_while(|p| p.t_secs < 0.1)
            .map(|p| p.mib_s)
            .sum();
        assert_eq!(before, 0.0);
    }

    #[test]
    fn multi_device_round_robin_uses_all_devices() {
        let h = simple_hierarchy(1);
        let spec = JobSpec::batch_app("b").stop_by(SimTime::from_millis(100));
        let sim = HostSim::build(
            HostConfig::with_cores(4),
            h,
            vec![AppSetup::new(spec, vec![DeviceId(0), DeviceId(1)])],
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(100));
        assert!(r.devices[0].served_ios > 0);
        assert!(r.devices[1].served_ios > 0);
        let ratio = r.devices[0].served_ios as f64 / r.devices[1].served_ios as f64;
        assert!((0.8..1.25).contains(&ratio), "round-robin skew {ratio}");
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let h = simple_hierarchy(1);
        let spec = JobSpec::lc_app("lc").stop_by(SimTime::from_millis(100));
        let cfg = HostConfig {
            measure_from: SimTime::from_millis(50),
            ..HostConfig::default()
        };
        let sim = HostSim::build(
            cfg,
            h,
            vec![AppSetup::new(spec, vec![DeviceId(0)])],
            vec![DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(100));
        // Roughly half of the run's completions are measured.
        assert!(r.apps[0].completed < r.apps[0].issued);
    }

    #[test]
    fn mq_deadline_prioritizes_rt_class() {
        let mut h = simple_hierarchy(2);
        let g0 = h.group_of(AppId(0));
        let g1 = h.group_of(AppId(1));
        h.write(g0, "io.prio.class", "rt").unwrap();
        h.write(g1, "io.prio.class", "idle").unwrap();
        let apps = (0..2)
            .map(|i| {
                // Device-saturating large reads (the Fig. 2 shape): the
                // scheduler backlog is where class priority acts.
                AppSetup::new(
                    JobSpec::builder(&format!("b-{i}"))
                        .block_size(64 * 1024)
                        .iodepth(128)
                        .stop_at(SimTime::from_millis(300))
                        .build(),
                    vec![DeviceId(0)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(4),
            h,
            apps,
            vec![DeviceSetup::flash().with_scheduler(SchedKind::MqDeadline)],
        );
        let r = sim.run(SimTime::from_millis(300));
        let rt = r.apps[0].mean_mib_s;
        let idle = r.apps[1].mean_mib_s;
        assert!(rt > 20.0 * idle.max(0.01), "rt {rt} vs idle {idle}");
    }

    #[test]
    fn io_max_limits_group_bandwidth() {
        let mut h = simple_hierarchy(2);
        let g0 = h.group_of(AppId(0));
        // 50 MiB/s cap on app 0.
        h.write(g0, "io.max", &format!("259:0 rbps={}", 50 * 1024 * 1024))
            .unwrap();
        let apps = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::batch_app(&format!("b-{i}")).stop_by(SimTime::from_millis(400)),
                    vec![DeviceId(0)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(4),
            h,
            apps,
            vec![DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(400));
        assert!(
            (35.0..70.0).contains(&r.apps[0].mean_mib_s),
            "capped app got {} MiB/s",
            r.apps[0].mean_mib_s
        );
        assert!(
            r.apps[1].mean_mib_s > 700.0,
            "uncapped app {}",
            r.apps[1].mean_mib_s
        );
    }

    #[test]
    fn stage_breakdown_sums_to_mean_latency() {
        let r = run_lc(1, 200);
        let app = &r.apps[0];
        let total = app.stages.total_us();
        assert!(
            (total - app.latency.mean_us).abs() / app.latency.mean_us < 0.02,
            "breakdown total {total} vs mean {}",
            app.latency.mean_us
        );
        // A lone QD-1 app is device-dominated.
        assert_eq!(app.stages.dominant_stage(), "device");
        assert!(app.stages.qos_wait_us < 1.0, "no QoS configured");
    }

    #[test]
    fn stage_breakdown_shows_cpu_queueing_under_saturation() {
        let r = run_lc(32, 200);
        let app = &r.apps[0];
        // At 32 LC apps on one core, submit/complete CPU queueing is a
        // visible share of the latency.
        let cpu = app.stages.submit_cpu_us + app.stages.complete_cpu_us;
        assert!(
            cpu > 0.3 * app.stages.device_us,
            "cpu share {cpu} vs device {}",
            app.stages.device_us
        );
    }

    #[test]
    fn iocost_weights_prioritize_bandwidth() {
        let mut h = simple_hierarchy(2);
        let g0 = h.group_of(AppId(0));
        let g1 = h.group_of(AppId(1));
        // A model below the device's real speed, so iocost is the
        // binding constraint and weights can act.
        let c = nvme_sim::DeviceProfile::flash().iocost_coefficients();
        h.write(
            Hierarchy::ROOT,
            "io.cost.model",
            &format!(
                "259:0 ctrl=user rbps={} rseqiops={} rrandiops={} wbps={} wseqiops={} wrandiops={}",
                c.rbps / 4,
                c.rseqiops / 4,
                c.rrandiops / 4,
                c.wbps / 4,
                c.wseqiops / 4,
                c.wrandiops / 4
            ),
        )
        .unwrap();
        h.write(
            Hierarchy::ROOT,
            "io.cost.qos",
            "259:0 enable=1 ctrl=user rpct=0 rlat=0 wpct=0 wlat=0 min=100.00 max=100.00",
        )
        .unwrap();
        h.write(g0, "io.weight", "default 800").unwrap();
        h.write(g1, "io.weight", "default 100").unwrap();
        let apps = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::batch_app(&format!("b-{i}")).stop_by(SimTime::from_millis(400)),
                    vec![DeviceId(0)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(4),
            h,
            apps,
            vec![DeviceSetup::flash()],
        );
        let r = sim.run(SimTime::from_millis(400));
        let ratio = r.apps[0].mean_mib_s / r.apps[1].mean_mib_s;
        // Both entitlements sit below the CPU caps, so the achieved
        // ratio tracks the 8:1 nominal weights.
        assert!((4.0..9.5).contains(&ratio), "weighted ratio {ratio}");
    }

    fn run_faulted(
        faults: nvme_sim::FaultConfig,
        io_timeout: Option<SimDuration>,
        dur_ms: u64,
    ) -> RunReport {
        let h = simple_hierarchy(1);
        let cfg = HostConfig {
            io_timeout,
            ..HostConfig::default()
        };
        let spec = JobSpec::builder("faulted")
            .iodepth(16)
            .stop_at(SimTime::from_millis(dur_ms))
            .build();
        let sim = HostSim::build(
            cfg,
            h,
            vec![AppSetup::new(spec, vec![DeviceId(0)])],
            vec![DeviceSetup::flash().with_faults(faults)],
        );
        sim.run(SimTime::from_millis(dur_ms))
    }

    #[test]
    fn media_errors_are_retried_transparently() {
        let r = run_faulted(
            nvme_sim::FaultConfig {
                media_error_rate: 0.01,
                ..nvme_sim::FaultConfig::none()
            },
            None,
            200,
        );
        let d = &r.devices[0];
        assert!(d.media_errors > 0, "no media errors injected");
        assert!(d.retries >= d.media_errors, "every error re-drives");
        // At a 1% error rate, exhausting 3 retries is a ~1e-8 event.
        assert_eq!(d.failed, 0);
        assert_eq!(r.apps[0].failed, 0);
        assert!(r.apps[0].completed > 1_000);
        // Conservation: everything issued either completed or is still
        // in flight (bounded by the queue depth).
        let leftover = r.apps[0].issued - r.apps[0].completed - r.apps[0].failed;
        assert!(leftover <= 16, "lost requests: {leftover}");
    }

    #[test]
    fn stalls_trip_the_timeout_and_abort_path() {
        let r = run_faulted(
            nvme_sim::FaultConfig {
                stall_rate: 0.002,
                stall: SimDuration::from_millis(50),
                ..nvme_sim::FaultConfig::none()
            },
            Some(SimDuration::from_millis(2)),
            200,
        );
        let d = &r.devices[0];
        assert!(d.stalls > 0, "no stalls injected");
        assert!(d.timeouts > 0, "stalls must trip the deadline");
        assert!(d.timeouts <= d.stalls, "only stalled commands time out");
        assert!(r.apps[0].completed > 1_000);
        let leftover = r.apps[0].issued - r.apps[0].completed - r.apps[0].failed;
        assert!(leftover <= 16, "lost requests: {leftover}");
    }

    #[test]
    fn periodic_resets_requeue_without_loss() {
        let r = run_faulted(
            nvme_sim::FaultConfig {
                reset_period: Some(SimDuration::from_millis(20)),
                reset_duration: SimDuration::from_millis(1),
                ..nvme_sim::FaultConfig::none()
            },
            None,
            200,
        );
        let d = &r.devices[0];
        assert!(d.resets >= 5, "resets {}", d.resets);
        assert_eq!(d.failed, 0, "requeue consumes no retry budget");
        assert!(r.apps[0].completed > 1_000);
        let leftover = r.apps[0].issued - r.apps[0].completed - r.apps[0].failed;
        assert!(leftover <= 16, "lost requests: {leftover}");
    }

    #[test]
    fn exhausted_retries_fail_back_to_the_app() {
        // Every command errors: each request burns its full retry
        // budget and fails; the closed loop keeps issuing regardless.
        let r = run_faulted(
            nvme_sim::FaultConfig {
                media_error_rate: 1.0,
                ..nvme_sim::FaultConfig::none()
            },
            None,
            50,
        );
        let d = &r.devices[0];
        assert_eq!(r.apps[0].completed, 0);
        assert!(r.apps[0].failed > 0);
        assert_eq!(d.failed, r.apps[0].failed);
        assert_eq!(d.served_ios, 0, "nothing actually served");
    }

    #[test]
    fn fault_free_config_keeps_reports_identical() {
        // Installing an inert FaultConfig (the default) must not perturb
        // anything — the determinism bedrock for the golden CSVs.
        let base = run_lc(2, 100);
        let inert = {
            let h = simple_hierarchy(2);
            let apps = (0..2)
                .map(|i| {
                    AppSetup::new(
                        JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(100)),
                        vec![DeviceId(0)],
                    )
                })
                .collect();
            let sim = HostSim::build(
                HostConfig::default(),
                h,
                apps,
                vec![DeviceSetup::flash().with_faults(nvme_sim::FaultConfig::none())],
            );
            sim.run(SimTime::from_millis(100))
        };
        assert_eq!(base.total_bytes(), inert.total_bytes());
        assert_eq!(base.apps[0].latency.p99_us, inert.apps[0].latency.p99_us);
        assert_eq!(inert.devices[0].media_errors, 0);
        assert_eq!(inert.devices[0].resets, 0);
    }

    /// All four closed-loop application engines plus one open-loop app,
    /// sharing two devices and two cores — exercising model-driven
    /// issue, think-time wakes, write barriers, and the interleave with
    /// the pre-existing stream path.
    fn app_scenario(faults: bool) -> RunReport {
        use workload::{AppModelSpec, FileServerConfig, KvConfig, MlIngestConfig, OltpConfig};
        let stop = SimTime::from_millis(120);
        let h = simple_hierarchy(5);
        let models = [
            AppModelSpec::Kv(KvConfig::default()),
            AppModelSpec::Oltp(OltpConfig::default()),
            AppModelSpec::FileServer(FileServerConfig::default()),
            AppModelSpec::MlIngest(MlIngestConfig::default()),
        ];
        let mut apps: Vec<AppSetup> = models
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let spec = JobSpec::builder(m.kind())
                    .iodepth(m.window())
                    .stop_at(stop)
                    .build();
                let devs = if i % 2 == 0 {
                    vec![DeviceId(0), DeviceId(1)]
                } else {
                    vec![DeviceId(i % 2)]
                };
                AppSetup::closed_loop(spec, m, devs)
            })
            .collect();
        apps.push(AppSetup::new(
            JobSpec::lc_app("open-lc").stop_by(stop),
            vec![DeviceId(0)],
        ));
        let mut d0 = DeviceSetup::flash().with_scheduler(SchedKind::MqDeadline);
        let d1 = DeviceSetup::optane();
        if faults {
            d0 = d0.with_faults(nvme_sim::FaultConfig {
                media_error_rate: 1.0,
                ..nvme_sim::FaultConfig::none()
            });
        }
        let sim = HostSim::build(HostConfig::with_cores(2), h, apps, vec![d0, d1]);
        sim.run(stop)
    }

    #[test]
    fn closed_loop_apps_make_progress_and_conserve_ops() {
        let r = app_scenario(false);
        for app in &r.apps[..4] {
            assert!(
                app.completed > 100,
                "{}: {} completed",
                app.name,
                app.completed
            );
            let leftover = app.issued - app.completed - app.failed;
            // Outstanding never exceeds the model window (= iodepth).
            assert!(leftover <= 32, "{}: leaked {leftover}", app.name);
            assert!(app.bytes > 0, "{}: no measured bytes", app.name);
        }
        // The scan moves far more bytes per completion than the KV app.
        let kv = &r.apps[0];
        let scan = &r.apps[3];
        assert!(
            scan.bytes / scan.completed.max(1) > 10 * (kv.bytes / kv.completed.max(1)),
            "scan should be large-block: {} vs {}",
            scan.bytes / scan.completed.max(1),
            kv.bytes / kv.completed.max(1),
        );
    }

    /// Failed I/O feeds back into the model as an error completion: the
    /// closed loop keeps issuing (transactions abort, slots free) and
    /// op accounting still conserves.
    #[test]
    fn closed_loop_survives_total_device_failure() {
        let r = app_scenario(true);
        // Apps 0 (kv) and 2 (fileserver) round-robin across both
        // devices, including the always-failing one.
        for i in [0usize, 2] {
            assert!(r.apps[i].failed > 0, "{}: no failures seen", r.apps[i].name);
        }
        for app in &r.apps[..4] {
            let leftover = app.issued - app.completed - app.failed;
            assert!(leftover <= 32, "{}: leaked {leftover}", app.name);
            assert!(app.issued > 100, "{}: loop stalled", app.name);
        }
    }

    /// Closed-loop model RNGs are pure functions of (seed, app index):
    /// adding a model app must not shift the streams of open-loop apps
    /// built after it.
    #[test]
    fn model_apps_do_not_perturb_open_loop_streams() {
        let stop = SimTime::from_millis(80);
        let open_only = {
            let h = simple_hierarchy(2);
            let apps = vec![
                AppSetup::new(JobSpec::lc_app("pad").stop_by(stop), vec![DeviceId(0)]),
                AppSetup::new(JobSpec::lc_app("probe").stop_by(stop), vec![DeviceId(1)]),
            ];
            let sim = HostSim::build(
                HostConfig::with_cores(2),
                h,
                apps,
                vec![DeviceSetup::flash(), DeviceSetup::flash()],
            );
            sim.run(stop)
        };
        let with_model = {
            let h = simple_hierarchy(2);
            let m = workload::AppModelSpec::Kv(workload::KvConfig::default());
            let apps = vec![
                AppSetup::closed_loop(
                    JobSpec::builder("kv")
                        .iodepth(m.window())
                        .stop_at(stop)
                        .build(),
                    m,
                    vec![DeviceId(0)],
                ),
                AppSetup::new(JobSpec::lc_app("probe").stop_by(stop), vec![DeviceId(1)]),
            ];
            let sim = HostSim::build(
                HostConfig::with_cores(2),
                h,
                apps,
                vec![DeviceSetup::flash(), DeviceSetup::flash()],
            );
            sim.run(stop)
        };
        // The probe app on the untouched device sees identical results
        // whether its neighbor is open- or closed-loop.
        assert_eq!(
            format!("{:?}", open_only.apps[1].hist),
            format!("{:?}", with_model.apps[1].hist)
        );
    }
}
