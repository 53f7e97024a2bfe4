//! Reference-model test for BFQ's service tree.
//!
//! `RefBfq` below is the straightforward BFQ: per-group state in a
//! `HashMap`, and every slice start scans all groups for the backlogged
//! one with the smallest `(vtime, group id)`. [`Bfq`] keeps backlogged
//! groups in an ordered set instead. Both are driven with the same
//! random operation streams (inserts, dispatches, time advances and
//! weight changes mid-run), and after every step they must agree on the
//! dispatched request (or `None`), `has_pending` and `next_timer`.

use std::collections::{HashMap, VecDeque};

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest};
use iosched_sim::{Bfq, BfqConfig, IoScheduler};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

#[derive(Debug)]
struct RefGroup {
    queue: VecDeque<IoRequest>,
    weight: u32,
    vtime: f64,
    slice_consumed: u64,
}

/// The linear-scan BFQ the service tree must reproduce exactly.
#[derive(Debug)]
struct RefBfq {
    config: BfqConfig,
    groups: HashMap<GroupId, RefGroup>,
    in_service: Option<GroupId>,
    idle_until: Option<SimTime>,
    slice_started: SimTime,
    global_vtime: f64,
}

impl RefBfq {
    fn new(config: BfqConfig) -> Self {
        RefBfq {
            config,
            groups: HashMap::new(),
            in_service: None,
            idle_until: None,
            slice_started: SimTime::ZERO,
            global_vtime: 0.0,
        }
    }

    fn group_mut(&mut self, id: GroupId) -> &mut RefGroup {
        self.groups.entry(id).or_insert_with(|| RefGroup {
            queue: VecDeque::new(),
            weight: 100,
            vtime: 0.0,
            slice_consumed: 0,
        })
    }

    fn pick_next(&self) -> Option<GroupId> {
        self.groups
            .iter()
            .filter(|(_, g)| !g.queue.is_empty())
            .min_by(|(ia, a), (ib, b)| a.vtime.total_cmp(&b.vtime).then_with(|| ia.cmp(ib)))
            .map(|(&id, _)| id)
    }

    fn serve_from(&mut self, id: GroupId, now: SimTime) -> Option<IoRequest> {
        let slice_idle = self.config.slice_idle;
        let g = self.groups.get_mut(&id)?;
        let req = g.queue.pop_front()?;
        g.vtime += f64::from(req.len) / f64::from(g.weight.max(1));
        g.slice_consumed += u64::from(req.len);
        if g.queue.is_empty() && !slice_idle.is_zero() && req.pattern == AccessPattern::Sequential {
            self.idle_until = Some(now + slice_idle);
        } else {
            self.idle_until = None;
        }
        Some(req)
    }

    fn insert(&mut self, req: IoRequest) {
        let global_v = self.global_vtime;
        let in_service = self.in_service;
        let g = self.group_mut(req.group);
        if g.queue.is_empty() {
            g.vtime = g.vtime.max(global_v);
        }
        let group = req.group;
        g.queue.push_back(req);
        if in_service == Some(group) {
            self.idle_until = None;
        }
    }

    fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        if let Some(current) = self.in_service {
            let (has_work, budget_spent) = {
                let g = self.groups.get(&current)?;
                (
                    !g.queue.is_empty(),
                    g.slice_consumed >= self.config.budget_bytes,
                )
            };
            let timed_out = now.saturating_since(self.slice_started) >= self.config.slice_timeout;
            if has_work && !budget_spent && !timed_out {
                return self.serve_from(current, now);
            }
            if timed_out {
                self.in_service = None;
                self.idle_until = None;
            }
            if !has_work {
                if let Some(idle_until) = self.idle_until {
                    if now < idle_until {
                        return None;
                    }
                }
            }
            self.in_service = None;
            self.idle_until = None;
        }
        let next = self.pick_next()?;
        self.global_vtime = self.global_vtime.max(self.groups[&next].vtime);
        self.in_service = Some(next);
        self.slice_started = now;
        self.group_mut(next).slice_consumed = 0;
        self.serve_from(next, now)
    }

    fn has_pending(&self) -> bool {
        self.groups.values().any(|g| !g.queue.is_empty())
    }

    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        match (self.in_service, self.idle_until) {
            (Some(current), Some(t)) if now < t => {
                let others_pending = self
                    .groups
                    .iter()
                    .any(|(&id, g)| id != current && !g.queue.is_empty());
                others_pending.then_some(t)
            }
            _ => None,
        }
    }

    fn set_group_weight(&mut self, group: GroupId, weight: u32) {
        self.group_mut(group).weight = weight.clamp(1, 1_000);
    }
}

/// How the generated requests' access patterns are chosen.
#[derive(Debug, Clone, Copy)]
enum Patterns {
    Sequential,
    Random,
    Mixed,
}

/// One generated scenario: configuration plus raw op codes, each
/// decoded into an operation by [`run`].
#[derive(Debug)]
struct Case {
    groups: usize,
    /// Equal weights and 4 KiB lengths everywhere, so vtimes tie and
    /// the group-id tie-break decides.
    uniform: bool,
    patterns: Patterns,
    slice_idle: bool,
    budget_kib: u64,
    timeout_ms: u64,
    ops: Vec<u64>,
}

fn request(id: u64, group: usize, len: u32, pattern: AccessPattern, at: SimTime) -> IoRequest {
    IoRequest::new(
        id,
        AppId(group),
        GroupId(group),
        DeviceId(0),
        IoOp::Read,
        pattern,
        len,
        0,
        at,
    )
}

/// Drives both schedulers through `case`, comparing them after every
/// op.
fn run(case: &Case) -> Result<(), TestCaseError> {
    let config = BfqConfig {
        slice_idle: if case.slice_idle {
            SimDuration::from_millis(8)
        } else {
            SimDuration::ZERO
        },
        budget_bytes: case.budget_kib * 1024,
        slice_timeout: SimDuration::from_millis(case.timeout_ms),
        ..BfqConfig::default()
    };
    let mut tree = Bfq::new(config);
    let mut reference = RefBfq::new(config);
    let mut now = SimTime::ZERO;
    let mut next_id = 0;
    for (step, &code) in case.ops.iter().enumerate() {
        let group = ((code >> 8) % case.groups as u64) as usize;
        let arg = code >> 16;
        match code % 8 {
            0..=2 => {
                let len = if case.uniform {
                    4096
                } else {
                    [512, 4096, 65536, 131_072][(arg % 4) as usize]
                };
                let pattern = match case.patterns {
                    Patterns::Sequential => AccessPattern::Sequential,
                    Patterns::Random => AccessPattern::Random,
                    Patterns::Mixed if arg & 4 == 0 => AccessPattern::Sequential,
                    Patterns::Mixed => AccessPattern::Random,
                };
                let req = request(next_id, group, len, pattern, now);
                next_id += 1;
                tree.insert(req.clone(), now);
                reference.insert(req);
            }
            3..=5 => {
                let a = tree.dispatch(now).map(|r| r.id);
                let b = reference.dispatch(now).map(|r| r.id);
                prop_assert_eq!(a, b, "dispatch at step {}", step);
            }
            6 => now += SimDuration::from_micros(arg % 10_000),
            _ => {
                let weight = if case.uniform {
                    100
                } else {
                    (arg % 1_200) as u32
                };
                tree.set_group_weight(GroupId(group), weight);
                reference.set_group_weight(GroupId(group), weight);
            }
        }
        prop_assert_eq!(
            tree.has_pending(),
            reference.has_pending(),
            "has_pending at step {}",
            step
        );
        prop_assert_eq!(
            tree.next_timer(now),
            reference.next_timer(now),
            "next_timer at step {}",
            step
        );
    }
    Ok(())
}

/// Generates [`Case`]s: 1–64 groups, uniform or mixed sizes and
/// weights, each pattern mode, `slice_idle` of 0 or 8 ms, 4–64 KiB
/// budgets, 1–20 ms slice timeouts and up to 600 ops.
struct CaseStrategy;

impl Strategy for CaseStrategy {
    type Value = Case;

    fn generate(&self, rng: &mut proptest::TestRng) -> Case {
        let groups = (1 + rng.below(64)) as usize;
        let uniform = rng.below(2) == 0;
        let patterns = match rng.below(3) {
            0 => Patterns::Sequential,
            1 => Patterns::Random,
            _ => Patterns::Mixed,
        };
        let slice_idle = rng.below(2) == 0;
        let budget_kib = 4 + rng.below(61);
        let timeout_ms = 1 + rng.below(20);
        let len = 1 + rng.below(600) as usize;
        let ops = (0..len).map(|_| rng.next_u64()).collect();
        Case {
            groups,
            uniform,
            patterns,
            slice_idle,
            budget_kib,
            timeout_ms,
            ops,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn service_tree_matches_linear_scan(case in CaseStrategy) {
        run(&case)?;
    }
}

#[test]
fn vtime_ties_go_to_the_lower_group_id() {
    // 64 equal groups, one 4 KiB request per slice: every slice start
    // sees all backlogged groups tied on vtime, so service must sweep
    // the ids in order, round after round.
    let config = BfqConfig {
        slice_idle: SimDuration::ZERO,
        budget_bytes: 4096,
        ..BfqConfig::default()
    };
    let mut tree = Bfq::new(config);
    let mut id = 0;
    for _ in 0..3 {
        for g in (0..64).rev() {
            let req = request(id, g, 4096, AccessPattern::Random, SimTime::ZERO);
            tree.insert(req, SimTime::ZERO);
            id += 1;
        }
    }
    let order: Vec<usize> = std::iter::from_fn(|| tree.dispatch(SimTime::ZERO))
        .map(|r| r.group.index())
        .collect();
    let expected: Vec<usize> = (0..3).flat_map(|_| 0..64).collect();
    assert_eq!(order, expected);
}
