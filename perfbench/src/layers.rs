//! Host time per layer, measured from outside.
//!
//! Each layer is driven in isolation through its public API, with the
//! cell's own configuration (the same cgroup tree, knob writes and
//! device setups) and the request stream recorded in the cell's traced
//! run. Every replay is one timed span around a loop of layer calls —
//! no timer sits inside the loop.

use std::collections::{HashMap, VecDeque};

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest, PrioClass};
use cgroup_sim::{CostCtrl, DevNode, Hierarchy, IoCostModel};
use host_sim::DeviceSetup;
use ioqos::{IoCostConfig, IoCostController, IoLatencyController, IoMaxThrottler, QosChain};
use iosched_sim::{Bfq, Kyber, MqDeadline, Noop, SchedKind, Scheduler};
use iostats::{BandwidthSeries, LatencyHistogram};
use nvme_sim::{NvmeDevice, StartedCmd};
use simcore::trace::{TraceEvent, TraceKind};
use simcore::{DetRng, EventQueue, SimDuration, SimTime};
use workload::{AddressStream, AppEngine, AppModelSpec, AppPoll, ArrivalBatch, JobSpec};

use crate::spans::Spans;

/// A layer's replayed work: host seconds and operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Host seconds inside the replay span(s).
    pub secs: f64,
    /// Operations replayed (I/Os, or event-queue pops).
    pub ops: u64,
}

impl Cost {
    /// Adds another cost.
    pub fn add(&mut self, o: Cost) {
        self.secs += o.secs;
        self.ops += o.ops;
    }

    /// Nanoseconds per operation (0 when nothing was replayed).
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }
}

/// Open-loop tenants (one `JobSpec` per app) or closed-loop ones (one
/// app model per app).
#[derive(Debug, Clone)]
pub enum Generators {
    /// fio-style streams.
    Open(Vec<JobSpec>),
    /// Application models.
    Closed(Vec<AppModelSpec>),
}

/// Everything a cell's layer replays need besides the trace.
#[derive(Debug)]
pub struct CellConfig<'a> {
    /// The cell's cgroup tree with its knob writes.
    pub hierarchy: &'a Hierarchy,
    /// The cell's devices.
    pub devices: &'a [DeviceSetup],
    /// The tenants' request generators.
    pub generators: Generators,
    /// I/Os each app issued in the traced run.
    pub issued: Vec<u64>,
    /// The scenario seed.
    pub seed: u64,
    /// Bandwidth-series window of the scenario.
    pub bw_window: SimDuration,
    /// Events the engine popped in the run.
    pub events: u64,
    /// Peak pending events.
    pub peak_pending: u64,
}

/// Per-layer costs of one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellLayers {
    /// Request generation (open-loop arrivals or closed-loop app ops).
    pub workload: Cost,
    /// The QoS chain (empty chains are skipped).
    pub qos: Cost,
    /// The I/O scheduler.
    pub sched: Cost,
    /// The device model.
    pub device: Cost,
    /// Completion statistics.
    pub stats: Cost,
    /// The event queue (ops are schedule+pop pairs).
    pub eventq: Cost,
}

impl CellLayers {
    /// Host seconds of all layers.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.workload.secs
            + self.qos.secs
            + self.sched.secs
            + self.device.secs
            + self.stats.secs
            + self.eventq.secs
    }
}

/// Requests reconstructed from the trace's `submit` events.
fn requests(events: &[TraceEvent]) -> HashMap<u64, IoRequest> {
    let mut out = HashMap::new();
    for e in events.iter().filter(|e| e.kind == TraceKind::Submit) {
        let op = if e.b & 1 == 1 {
            IoOp::Write
        } else {
            IoOp::Read
        };
        let pattern = if e.b & 2 == 2 {
            AccessPattern::Random
        } else {
            AccessPattern::Sequential
        };
        let prio = match e.b >> 2 {
            0 => PrioClass::Realtime,
            2 => PrioClass::Idle,
            _ => PrioClass::BestEffort,
        };
        let mut r = IoRequest::new(
            e.req,
            AppId(0),
            GroupId(e.group as usize),
            DeviceId(e.dev as usize),
            op,
            pattern,
            e.a as u32,
            e.req.wrapping_mul(e.a),
            SimTime::from_nanos(e.t),
        );
        r.prio = prio;
        out.insert(e.req, r);
    }
    out
}

/// The device's QoS chain, wired as the engine wires it: io.max →
/// io.cost → io.latency from the effective knob values.
fn qos_chain(h: &Hierarchy, d: usize, setup: &DeviceSetup) -> QosChain {
    let node = DevNode::nvme(d as u32);
    let flat = h.flatten();
    let groups = h.group_ids();
    let mut chain = QosChain::new();
    let eff_max = flat.effective_io_max(h, node);
    let mut throttler = IoMaxThrottler::new();
    let mut any_max = false;
    for &g in &groups {
        let limits = eff_max[g.index()];
        if !limits.is_unlimited() {
            throttler.set_limits(g, limits);
            any_max = true;
        }
    }
    if any_max {
        chain.push_io_max(throttler);
    }
    if let Some(qcfg) = h.cost_qos(node).filter(|q| q.enable) {
        let model = h.cost_model(node).copied().unwrap_or_else(|| {
            let c = setup.profile.iocost_coefficients();
            IoCostModel {
                ctrl: CostCtrl::Auto,
                rbps: c.rbps,
                rseqiops: c.rseqiops,
                rrandiops: c.rrandiops,
                wbps: c.wbps,
                wseqiops: c.wseqiops,
                wrandiops: c.wrandiops,
            }
        });
        let mut cost = IoCostController::new(IoCostConfig::new(model, *qcfg));
        let mult = flat.weight_multipliers(|g| h.io_weight(g, node));
        for &g in &groups {
            let own = f64::from(h.io_weight(g, node));
            let eff = (own * mult[g.index()]).round().clamp(1.0, 10_000.0);
            cost.set_weight(g, eff as u32);
        }
        chain.push_io_cost(cost);
    }
    let mut latency = IoLatencyController::new(setup.profile.max_qd);
    let mut any_latency = false;
    for (g, l) in flat.effective_io_latency(h, node).iter().enumerate() {
        if let Some(l) = l {
            latency.set_target(GroupId(g), Some(l.target_us));
            any_latency = true;
        }
    }
    if any_latency {
        chain.push_io_latency(latency);
    }
    chain
}

fn scheduler(h: &Hierarchy, d: usize, setup: &DeviceSetup) -> Scheduler {
    let mut s: Scheduler = match setup.scheduler {
        SchedKind::None => Noop::new().into(),
        SchedKind::MqDeadline => MqDeadline::new(setup.mq_deadline).into(),
        SchedKind::Bfq => Bfq::new(setup.bfq).into(),
        SchedKind::Kyber => Kyber::new(setup.kyber).into(),
    };
    let node = DevNode::nvme(d as u32);
    for g in h.group_ids() {
        s.set_group_weight(g, h.bfq_weight(g, node));
    }
    s
}

enum QosOp {
    Submit(u64, IoRequest),
    Complete(u64, IoRequest),
}

/// io.max/io.cost/io.latency: `submit` where the request first met the
/// chain, `on_device_complete` at its device completion, `tick` and
/// `drain_into` whenever the chain asks for attention.
fn replay_qos(mut chain: QosChain, ops: Vec<QosOp>, spans: &mut Spans, cell: usize) -> Cost {
    let n = ops
        .iter()
        .filter(|o| matches!(o, QosOp::Submit(..)))
        .count() as u64;
    let mut out = Vec::new();
    let ((), secs) = spans.time("ioqos.replay", cell, || {
        let mut next = None;
        for op in ops {
            let t = SimTime::from_nanos(match &op {
                QosOp::Submit(t, _) | QosOp::Complete(t, _) => *t,
            });
            while let Some(at) = next.filter(|&at| at <= t) {
                chain.tick(at);
                chain.drain_into(at, &mut out);
                out.clear();
                next = chain.next_event(at).filter(|&n| n > at);
            }
            match op {
                QosOp::Submit(_, r) => {
                    let _ = chain.submit(r, t);
                }
                QosOp::Complete(_, r) => chain.on_device_complete(&r, t),
            }
            chain.drain_into(t, &mut out);
            out.clear();
            next = chain.next_event(t);
        }
    });
    Cost { secs, ops: n }
}

enum SchedOp {
    Insert(u64, IoRequest),
    Dispatch(u64),
    Complete(u64),
}

/// The scheduler: `insert` at each recorded enqueue, `dispatch` at each
/// recorded dispatch, `on_complete` (dispatch order) at each recorded
/// device completion; what is left is dispatched at the end.
fn replay_sched(mut sched: Scheduler, ops: Vec<SchedOp>, spans: &mut Spans, cell: usize) -> Cost {
    let n = ops
        .iter()
        .filter(|o| matches!(o, SchedOp::Insert(..)))
        .count() as u64;
    let ((), secs) = spans.time("iosched.replay", cell, || {
        let mut inflight = VecDeque::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                SchedOp::Insert(t, r) => {
                    now = SimTime::from_nanos(t);
                    sched.insert(r, now);
                }
                SchedOp::Dispatch(t) => {
                    now = SimTime::from_nanos(t);
                    if let Some(r) = sched.dispatch(now) {
                        inflight.push_back(r);
                    }
                }
                SchedOp::Complete(t) => {
                    now = SimTime::from_nanos(t);
                    if let Some(r) = inflight.pop_front() {
                        sched.on_complete(&r, now);
                    }
                }
            }
        }
        while let Some(r) = inflight.pop_front() {
            sched.on_complete(&r, now);
        }
        while sched.has_pending() {
            match sched.dispatch(now) {
                Some(r) => sched.on_complete(&r, now),
                None => match sched.next_timer(now) {
                    Some(t) if t > now => now = t,
                    _ => now += SimDuration::from_micros(1),
                },
            }
        }
    });
    Cost { secs, ops: n }
}

/// The device model: `accept` + `start_ready_into` at each recorded
/// device start, `complete` (start order) once a command's service time
/// has passed or the queue is full.
fn replay_device(
    mut dev: NvmeDevice,
    starts: Vec<(u64, IoRequest)>,
    spans: &mut Spans,
    cell: usize,
) -> Cost {
    let n = starts.len() as u64;
    let max_qd = dev.profile().max_qd as usize;
    let ((), secs) = spans.time("nvme-sim.replay", cell, || {
        let mut started: Vec<StartedCmd> = Vec::new();
        let mut running: VecDeque<StartedCmd> = VecDeque::new();
        let mut now = SimTime::ZERO;
        for (t, r) in starts {
            now = now.max(SimTime::from_nanos(t));
            let mut freed = false;
            while let Some(c) = running.front().filter(|c| c.done_at <= now) {
                dev.complete(c.slot, c.done_at);
                running.pop_front();
                freed = true;
            }
            if freed {
                dev.start_ready_into(now, &mut started);
                running.extend(started.drain(..));
            }
            while dev.inflight() >= max_qd {
                let c = running
                    .pop_front()
                    .expect("a full device has commands in service");
                now = now.max(c.done_at);
                dev.complete(c.slot, now);
                dev.start_ready_into(now, &mut started);
                running.extend(started.drain(..));
            }
            dev.accept(r, now);
            dev.start_ready_into(now, &mut started);
            running.extend(started.drain(..));
        }
        while let Some(c) = running.pop_front() {
            now = now.max(c.done_at);
            dev.complete(c.slot, now);
            dev.start_ready_into(now, &mut started);
            running.extend(started.drain(..));
        }
    });
    Cost { secs, ops: n }
}

/// Completion statistics: `LatencyHistogram::record` and
/// `BandwidthSeries::record` per completed I/O of each cgroup.
fn replay_stats(
    events: &[TraceEvent],
    window: SimDuration,
    spans: &mut Spans,
    cell: usize,
) -> Cost {
    let done: Vec<(usize, u64, u64)> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Complete)
        .map(|e| (e.group as usize, e.t, e.a))
        .collect();
    let groups = done.iter().map(|d| d.0 + 1).max().unwrap_or(0);
    let mut hists: Vec<LatencyHistogram> = (0..groups).map(|_| LatencyHistogram::new()).collect();
    let mut series: Vec<BandwidthSeries> =
        (0..groups).map(|_| BandwidthSeries::new(window)).collect();
    let n = done.len() as u64;
    let ((), secs) = spans.time("stats.replay", cell, || {
        for (g, t, lat) in done {
            hists[g].record(SimDuration::from_nanos(lat));
            series[g].record(SimTime::from_nanos(t), 4096);
        }
    });
    Cost { secs, ops: n }
}

/// Request generation: for open-loop apps `ArrivalBatch::next` (which
/// refills through `AddressStream::fill`) once per issued I/O; for
/// closed-loop apps `AppEngine::next_op`/`on_complete` in a closed loop
/// whose completion latencies come from the cell's recorded ones.
fn replay_workload(
    cfg: &CellConfig<'_>,
    latencies: &[u64],
    spans: &mut Spans,
    cell: usize,
) -> Cost {
    let capacity = cfg.devices[0].profile.capacity_bytes;
    let mut rng = DetRng::new(cfg.seed);
    match &cfg.generators {
        Generators::Open(specs) => {
            let mut streams: Vec<(AddressStream, ArrivalBatch, u64)> = specs
                .iter()
                .zip(&cfg.issued)
                .enumerate()
                .map(|(i, (spec, &n))| {
                    let s = AddressStream::new(spec, capacity, rng.fork(1000 + i as u64));
                    (s, ArrivalBatch::new(), n)
                })
                .collect();
            let n: u64 = cfg.issued.iter().sum();
            let (sink, secs) = spans.time("workload.arrival.replay", cell, || {
                let mut sink = 0u64;
                for (stream, batch, k) in &mut streams {
                    for _ in 0..*k {
                        sink = sink.wrapping_add(batch.next(stream).2);
                    }
                }
                sink
            });
            std::hint::black_box(sink);
            Cost { secs, ops: n }
        }
        Generators::Closed(models) => {
            let lat = latencies;
            let mut engines: Vec<_> = models
                .iter()
                .enumerate()
                .map(|(i, m)| m.build(rng.fork(9000 + i as u64), capacity))
                .collect();
            let targets = cfg.issued.clone();
            let (n, secs) = spans.time("workload.app.replay", cell, || {
                let mut ops = 0u64;
                let mut li = 0usize;
                for (e, &target) in engines.iter_mut().zip(&targets) {
                    let mut now = SimTime::ZERO;
                    let mut inflight: VecDeque<(SimTime, u64)> = VecDeque::new();
                    let mut issued = 0u64;
                    while issued < target {
                        let mut wake = None;
                        while (inflight.len() as u32) < e.window() && issued < target {
                            match e.next_op(now) {
                                AppPoll::Op(op) => {
                                    li = (li + 1) % lat.len();
                                    inflight.push_back((
                                        now + SimDuration::from_nanos(lat[li]),
                                        op.token,
                                    ));
                                    issued += 1;
                                }
                                AppPoll::WaitUntil(t) => {
                                    wake = Some(t);
                                    break;
                                }
                                AppPoll::Blocked => break,
                            }
                        }
                        let next_done = inflight.front().map(|&(done, _)| done);
                        match (next_done, wake) {
                            (Some(done), w) if w.is_none_or(|w| done <= w) => {
                                let (_, token) = inflight.pop_front().expect("front exists");
                                now = now.max(done);
                                e.on_complete(token, true, now);
                            }
                            (_, Some(w)) => now = now.max(w),
                            (_, None) => break,
                        }
                    }
                    while let Some((done, token)) = inflight.pop_front() {
                        now = now.max(done);
                        e.on_complete(token, true, now);
                    }
                    ops += issued;
                }
                ops
            });
            Cost { secs, ops: n }
        }
    }
}

/// The event queue: `schedule`/`pop` pairs at the run's peak pending
/// depth, one per event the engine popped, with schedule-ahead delays
/// drawn from the recorded request latencies.
fn replay_eventq(cfg: &CellConfig<'_>, latencies: &[u64], spans: &mut Spans, cell: usize) -> Cost {
    let lat = latencies;
    let depth = cfg.peak_pending.max(1) as usize;
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(lat[i % lat.len()]), i as u32);
    }
    let n = cfg.events;
    let ((), secs) = spans.time("simcore.eventq.replay", cell, || {
        let mut i = 0usize;
        for _ in 0..n {
            let (t, x) = q.pop().expect("queue holds `depth` events");
            i = (i + 1) % lat.len();
            q.schedule(t + SimDuration::from_nanos(lat[i]), x);
        }
    });
    Cost { secs, ops: n }
}

/// Replays every layer of one cell against its recorded trace. The
/// replays that need request latencies (closed-loop apps, event queue)
/// use the cell's recorded ones, or 1 µs if it completed nothing.
pub fn replay_cell(
    cfg: &CellConfig<'_>,
    events: &[TraceEvent],
    spans: &mut Spans,
    cell: usize,
) -> CellLayers {
    let mut latencies: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Complete)
        .map(|e| e.a)
        .collect();
    if latencies.is_empty() {
        latencies.push(1000);
    }
    let mut out = CellLayers {
        workload: replay_workload(cfg, &latencies, spans, cell),
        stats: replay_stats(events, cfg.bw_window, spans, cell),
        eventq: replay_eventq(cfg, &latencies, spans, cell),
        ..CellLayers::default()
    };
    let reqs = requests(events);
    for (d, setup) in cfg.devices.iter().enumerate() {
        let on_dev = || events.iter().filter(move |e| e.dev as usize == d);
        let chain = qos_chain(cfg.hierarchy, d, setup);
        if !chain.is_empty() {
            let mut seen = std::collections::HashSet::new();
            let ops = on_dev()
                .filter_map(|e| match e.kind {
                    TraceKind::QosEnter | TraceKind::SchedEnqueue if seen.insert(e.req) => {
                        Some(QosOp::Submit(e.t, reqs[&e.req].clone()))
                    }
                    TraceKind::DeviceComplete => Some(QosOp::Complete(e.t, reqs[&e.req].clone())),
                    _ => None,
                })
                .collect();
            out.qos.add(replay_qos(chain, ops, spans, cell));
        }
        let ops = on_dev()
            .filter_map(|e| match e.kind {
                TraceKind::SchedEnqueue => Some(SchedOp::Insert(e.t, reqs[&e.req].clone())),
                TraceKind::SchedDispatch => Some(SchedOp::Dispatch(e.t)),
                TraceKind::DeviceComplete => Some(SchedOp::Complete(e.t)),
                _ => None,
            })
            .collect();
        out.sched.add(replay_sched(
            scheduler(cfg.hierarchy, d, setup),
            ops,
            spans,
            cell,
        ));
        let mut dev = NvmeDevice::new(setup.profile.clone(), DetRng::new(cfg.seed).fork(d as u64));
        dev.precondition(setup.precondition);
        let starts = on_dev()
            .filter(|e| e.kind == TraceKind::DeviceStart)
            .map(|e| (e.t, reqs[&e.req].clone()))
            .collect();
        out.device.add(replay_device(dev, starts, spans, cell));
    }
    out
}
