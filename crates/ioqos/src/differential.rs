//! Differential tests of the release-instant caches.
//!
//! Two chains with the same stages take the same random stream of
//! submits, device completions, ticks, time jumps and knob writes. One
//! drains and answers `next_event` through the caches, the other through
//! the literal per-pump references (`drain_literal` /
//! `next_event_literal` beside each controller). After every step both
//! must release the same requests in the same order and report the same
//! `next_event` instant.

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest};
use cgroup_sim::{CostCtrl, IoCostModel, IoCostQos, IoMax};
use simcore::{SimDuration, SimTime};

use crate::{IoCostConfig, IoCostController, IoLatencyController, IoMaxThrottler, QosChain};

/// Which stages a stream's chains carry.
#[derive(Debug, Clone, Copy)]
struct Stages {
    max: bool,
    cost: bool,
    latency: bool,
}

impl Stages {
    const ALL: Stages = Stages {
        max: true,
        cost: true,
        latency: true,
    };
}

fn cost_config(qos: bool) -> IoCostConfig {
    let model = IoCostModel {
        ctrl: CostCtrl::User,
        rbps: 1 << 30,
        rseqiops: 200_000,
        rrandiops: 100_000,
        wbps: 1 << 29,
        wseqiops: 100_000,
        wrandiops: 40_000,
    };
    let qos = IoCostQos {
        enable: qos,
        ctrl: CostCtrl::User,
        rpct: 90.0,
        rlat_us: 300,
        wpct: 90.0,
        wlat_us: 600,
        min_pct: 30.0,
        max_pct: 150.0,
    };
    IoCostConfig::new(model, qos)
}

/// Limits drawn from `bits`: byte and IOPS buckets, small enough that a
/// large request exceeds the burst, or none at all.
fn limits(bits: u64) -> IoMax {
    const BPS: [Option<u64>; 6] = [
        None,
        Some(4096),
        Some(1 << 20),
        Some(50 << 20),
        Some(966_367_641),
        Some(3),
    ];
    const IOPS: [Option<u64>; 5] = [None, Some(1), Some(10), Some(3_000), Some(1_000_000)];
    let pick_bps = |k: u64| BPS[(k % 6) as usize];
    let pick_iops = |k: u64| IOPS[(k % 5) as usize];
    IoMax {
        rbps: pick_bps(bits),
        wbps: pick_bps(bits >> 3),
        riops: pick_iops(bits >> 6),
        wiops: pick_iops(bits >> 9),
    }
}

fn chain(stages: Stages, groups: usize, seed: u64) -> QosChain {
    let mut chain = QosChain::new();
    if stages.max {
        let mut t = IoMaxThrottler::new();
        for g in 1..=groups {
            t.set_limits(GroupId(g), limits(seed.rotate_left(g as u32 * 7)));
        }
        chain.push_io_max(t);
    }
    if stages.cost {
        let mut c = IoCostController::new(cost_config(seed & 1 == 0));
        for g in 1..=groups {
            c.set_weight(GroupId(g), 1 + (seed.rotate_left(g as u32) % 1_000) as u32);
        }
        chain.push_io_cost(c);
    }
    if stages.latency {
        let mut l = IoLatencyController::new(1 + (seed >> 8) as u32 % 16);
        l.set_target(GroupId(1), Some(200));
        chain.push_io_latency(l);
    }
    chain
}

/// What a stream met, so tests can check it reached the interesting
/// states rather than passing vacuously.
#[derive(Debug, Default)]
struct Seen {
    released: usize,
    held_steps: usize,
}

/// A cached chain and its literal twin, driven in lockstep.
struct Rig {
    cached: QosChain,
    literal: QosChain,
    groups: usize,
    now: SimTime,
    next_id: u64,
    /// Requests that cleared both chains, awaiting their completion.
    inflight: Vec<IoRequest>,
    step: usize,
    seen: Seen,
}

impl Rig {
    fn fail(&self, what: String) -> String {
        format!("step {} at {:?}: {what}", self.step, self.now)
    }

    fn submit(&mut self, group: usize, op: IoOp, len: u32) -> Result<(), String> {
        let mut req = IoRequest::new(
            self.next_id,
            AppId(group),
            GroupId(group),
            DeviceId(0),
            op,
            AccessPattern::Random,
            len,
            0,
            self.now,
        );
        req.submitted_at = self.now;
        req.scheduled_at = self.now;
        self.next_id += 1;
        let a = self.cached.submit(req.clone(), self.now);
        let b = self.literal.submit(req, self.now);
        if a.as_ref().map(|r| r.id) != b.as_ref().map(|r| r.id) {
            return Err(self.fail(format!("submit cleared {a:?} vs literal {b:?}")));
        }
        self.inflight.extend(a);
        Ok(())
    }

    fn complete(&mut self, idx: usize) {
        let r = self.inflight.swap_remove(idx);
        self.cached.on_device_complete(&r, self.now);
        self.literal.on_device_complete(&r, self.now);
    }

    fn compare_next_event(&self) -> Result<(), String> {
        let (a, b) = (
            self.cached.next_event(self.now),
            self.literal.next_event_literal(self.now),
        );
        if a == b {
            Ok(())
        } else {
            Err(self.fail(format!("next_event {a:?} vs literal {b:?}")))
        }
    }

    fn drain_and_compare(&mut self) -> Result<(), String> {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.cached.drain_into(self.now, &mut a);
        self.literal.drain_literal(self.now, &mut b);
        let ids = |v: &[IoRequest]| v.iter().map(|r| (r.id, r.qos_stage)).collect::<Vec<_>>();
        if ids(&a) != ids(&b) {
            return Err(self.fail(format!("drained {:?} vs literal {:?}", ids(&a), ids(&b))));
        }
        self.seen.released += a.len();
        self.inflight.extend(a);
        self.compare_next_event()
    }

    fn set_limits(&mut self, group: usize, bits: u64) {
        let l = if bits.is_multiple_of(7) {
            IoMax::default()
        } else {
            limits(bits)
        };
        for c in [&mut self.cached, &mut self.literal] {
            if let Some(t) = c.io_max_mut() {
                t.set_limits(GroupId(group), l);
            }
        }
    }

    /// Applies the operation `op` encodes, then drains and compares.
    fn step(&mut self, op: u64) -> Result<(), String> {
        let g = 1 + (op >> 8) as usize % self.groups;
        let arg = op >> 20;
        match op % 20 {
            0..=5 => {
                let n = if op.is_multiple_of(20) {
                    16 + arg % 48
                } else {
                    1 + arg % 6
                };
                const LENS: [u32; 6] = [512, 4096, 4096, 65_536, 1 << 20, 4 << 20];
                let len = LENS[((arg >> 6) % 6) as usize];
                let io = if (arg >> 9).is_multiple_of(3) {
                    IoOp::Write
                } else {
                    IoOp::Read
                };
                for _ in 0..n {
                    self.submit(g, io, len)?;
                }
            }
            6 | 7 if !self.inflight.is_empty() => {
                let k = 1 + (arg % 8) as usize;
                for i in 0..k.min(self.inflight.len()) {
                    let idx = ((arg >> 4) as usize + i * 7) % self.inflight.len();
                    self.complete(idx);
                }
            }
            8 => {
                self.cached.tick(self.now);
                self.literal.tick(self.now);
            }
            9 => self.now += SimDuration::from_nanos(1 + arg % 1_000),
            10 => self.now += SimDuration::from_nanos(1 + arg % 10_000_000),
            11 | 12 => {
                // Land on (or one nanosecond before) the instant the
                // chain asked for — a hold release or a period boundary —
                // and pump there like the engine: tick, then drain.
                if let Some(t) = self.cached.next_event(self.now) {
                    let t = if op % 20 == 12 {
                        t.as_nanos().saturating_sub(1)
                    } else {
                        t.as_nanos()
                    };
                    self.now = self.now.max(SimTime::from_nanos(t));
                }
                self.cached.tick(self.now);
                self.literal.tick(self.now);
            }
            13 => self.set_limits(g, arg),
            14 => {
                let w = 1 + (arg % 10_000) as u32;
                for c in [&mut self.cached, &mut self.literal] {
                    if let Some(c) = c.io_cost_mut() {
                        c.set_weight(GroupId(g), w);
                    }
                }
            }
            15 => {
                let target = (!arg.is_multiple_of(3)).then_some(50 + arg % 2_000);
                for c in [&mut self.cached, &mut self.literal] {
                    if let Some(l) = c.io_latency_mut() {
                        l.set_target(GroupId(g), target);
                    }
                }
            }
            16 => {
                // `next_event` with no drain in between.
                self.compare_next_event()?;
            }
            _ => self.now += SimDuration::from_micros(1 + arg % 500),
        }
        self.drain_and_compare()?;
        if self.held() > 0 {
            self.seen.held_steps += 1;
        }
        Ok(())
    }

    fn held(&mut self) -> usize {
        let max = self.cached.io_max_mut().map_or(0, |t| t.held_count());
        let cost = self
            .cached
            .io_cost()
            .map_or(0, IoCostController::held_count);
        let lat = self
            .cached
            .io_latency()
            .map_or(0, IoLatencyController::held_count);
        max + cost + lat
    }
}

/// Runs the stream `ops` (the first word picks the group count, 1–64,
/// and seeds the configuration) through twin chains with `stages`.
fn check_stream(stages: Stages, ops: &[u64]) -> Result<Seen, String> {
    let seed = ops.first().copied().unwrap_or(0);
    let groups = 1 + (seed >> 32) as usize % 64;
    let mut rig = Rig {
        cached: chain(stages, groups, seed),
        literal: chain(stages, groups, seed),
        groups,
        now: SimTime::ZERO,
        next_id: 0,
        inflight: Vec::new(),
        step: 0,
        seen: Seen::default(),
    };
    for (step, &op) in ops.iter().enumerate().skip(1) {
        rig.step = step;
        rig.step(op)?;
    }
    Ok(rig.seen)
}

const MAX_ONLY: Stages = Stages {
    max: true,
    cost: false,
    latency: false,
};
const COST_ONLY: Stages = Stages {
    max: false,
    cost: true,
    latency: false,
};
const LATENCY_ONLY: Stages = Stages {
    max: false,
    cost: false,
    latency: true,
};

fn stages_from(bits: u64) -> Stages {
    Stages {
        max: bits & 1 != 0,
        cost: bits & 2 != 0,
        latency: bits & 4 != 0,
    }
}

macro_rules! differential {
    ($cases:expr, $len:expr, $($(#[$meta:meta])* $name:ident: $stages:expr;)*) => {
        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases($cases))]
            $(
                $(#[$meta])*
                #[test]
                fn $name(ops in proptest::collection::vec(0u64..=u64::MAX, $len)) {
                    let stages = $stages(&ops);
                    if let Err(e) = check_stream(stages, &ops) {
                        proptest::prop_assert!(false, "{:?}: {}", stages, e);
                    }
                }
            )*
        }
    };
}

differential! {
    48, 2..400,
    io_max_cache_matches_literal: |_: &Vec<u64>| MAX_ONLY;
    io_cost_cache_matches_literal: |_: &Vec<u64>| COST_ONLY;
    io_latency_cache_matches_literal: |_: &Vec<u64>| LATENCY_ONLY;
    chain_cache_matches_literal: |ops: &Vec<u64>| stages_from(ops[0] >> 1);
}

// The same properties at many more cases, for release-mode CI runs
// (`cargo test --release -p ioqos -- --ignored`).
differential! {
    3_000, 2..600,
    #[ignore = "high case count; run in release mode"]
    io_max_cache_matches_literal_many: |_: &Vec<u64>| MAX_ONLY;
    #[ignore = "high case count; run in release mode"]
    io_cost_cache_matches_literal_many: |_: &Vec<u64>| COST_ONLY;
    #[ignore = "high case count; run in release mode"]
    io_latency_cache_matches_literal_many: |_: &Vec<u64>| LATENCY_ONLY;
    #[ignore = "high case count; run in release mode"]
    chain_cache_matches_literal_many: |ops: &Vec<u64>| stages_from(ops[0] >> 1);
}

#[test]
fn streams_hold_and_release_at_every_stage() {
    // The properties are only as strong as their streams: each stage
    // must actually hold requests and release them again.
    let mut rng = proptest::TestRng::from_seed(23);
    for stages in [MAX_ONLY, COST_ONLY, LATENCY_ONLY, Stages::ALL] {
        let ops: Vec<u64> = (0..600).map(|_| rng.next_u64()).collect();
        let seen = check_stream(stages, &ops).expect("matches the literal reference");
        assert!(seen.released > 20, "{stages:?}: {seen:?}");
        assert!(seen.held_steps > 20, "{stages:?}: {seen:?}");
    }
}
