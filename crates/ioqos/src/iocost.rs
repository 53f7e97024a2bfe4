//! `io.cost` + `io.weight` (blk-iocost): model-based virtual-time control.
//!
//! The controller prices every I/O with the linear device model
//! (`io.cost.model`), exactly like the kernel derives its coefficients:
//!
//! ```text
//! page_coef(read)   = VTIME / (rbps / 4096)          per 4 KiB page
//! io_coef(randread) = VTIME / rrandiops − page_coef  per I/O
//! abs_cost          = io_coef + pages × page_coef
//! ```
//!
//! so a 4 KiB random read costs exactly `VTIME / rrandiops` and the sum of
//! dispatched costs can never exceed the modelled device speed times
//! `vrate`. Each group pays `abs_cost / hweight` of virtual time, where
//! `hweight` is its weight share among *currently active* groups — this
//! is the donation/work-conservation mechanism: a group alone on the
//! device has `hweight = 1` and runs at full modelled speed.
//!
//! The QoS loop (`io.cost.qos`) measures read/write completion-latency
//! percentiles each period and moves the global `vrate` within
//! `[min, max]` percent: congestion (missed latency targets) slows
//! everyone down proportionally; clean periods speed everyone up. This
//! is why io.cost responds to priority bursts in milliseconds (O10) and
//! why its configuration bounds achievable bandwidth (O3).
//!
//! # Fleet-scale fast path
//!
//! Per-group state lives in dense [`GroupArena`]s (group ids are dense
//! slab indices), and the controller maintains two slot sets so periodic
//! work is O(active), not O(every group ever seen):
//!
//! * `active` — a conservative superset of the groups whose activity
//!   predicate (`active_until ≥ now ∨ held ≠ ∅ ∨ inflight > 0`) holds.
//!   Membership is added on submit and pruned only in `adjust_vrate`
//!   after the per-period `spent` reset, which preserves the invariant
//!   that non-members have `spent_in_period == 0`.
//! * `backlogged` — groups with held requests (`⊆ active`), so drain
//!   and `next_event` walk only groups that can actually release.
//!
//! # hweight in O(1) per I/O
//!
//! `hweight`'s rows are the *row members* — `active` slots whose
//! activity predicate holds — in slot order, plus the caller's own row.
//! For a caller that is itself a member the rows are the same whoever
//! asks, so all members share one [`RowSums`]: total weight, in-use
//! share and wants-more weight. It stays valid while the controller
//! `epoch` is unchanged (bumped whenever any hweight input changes:
//! weights, usage EMAs, active-set membership, a held queue flipping
//! empty↔nonempty) and `now` is within its horizon (the earliest
//! `active_until` of any member, past which time alone can change
//! membership).
//!
//! * **Members** derive their share from the sums in O(1) and tag it
//!   with the sums' generation, so repeat calls — `next_event` and the
//!   drain re-price backlogged groups many times per I/O — are a
//!   compare. Stale sums are rebuilt once, by two slot-order walks.
//! * **Outsiders** — a first-contact caller or a pruned one (row after
//!   every member), or one lapsed but still in `active` (row at its
//!   slot) — cost one streaming walk that re-sums the in-use share with
//!   their row in place.
//!
//! Rows, row order and per-row arithmetic are those of the row-by-row
//! definition, kept as the test reference; weight sums are exact
//! (integer weights ≤ 10 000), so every answer is bit-identical to it.

use std::cell::Cell;
use std::collections::VecDeque;

use blkio::{AccessPattern, GroupId, IoOp, IoRequest};
use cgroup_sim::{IoCostModel, IoCostQos};
use serde::{Deserialize, Serialize};
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{SimDuration, SimTime};

use crate::arena::{GroupArena, SlotSet};
use crate::{QosController, SubmitOutcome};

/// A group's vtime advanced to `vtime` charging `abs` for `req` (probe).
fn vtime_event(req: &IoRequest, now: SimTime, vtime: f64, abs: f64) -> TraceEvent {
    TraceEvent::new(
        now.as_nanos(),
        TraceKind::VtimeAdvance,
        req.id,
        req.group.0 as u32,
        req.dev.0 as u32,
        vtime.to_bits(),
        abs.to_bits(),
    )
}

/// Configuration of one device's iocost instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoCostConfig {
    /// The linear cost model (root `io.cost.model`).
    pub model: IoCostModel,
    /// The QoS parameters (root `io.cost.qos`).
    pub qos: IoCostQos,
    /// Controller period (kernel adjusts within 1–10 ms; default 5 ms).
    pub period: SimDuration,
    /// Dispatch margin as a fraction of one period's virtual time.
    pub margin_frac: f64,
}

impl IoCostConfig {
    /// Creates a config with kernel-like period and margin.
    #[must_use]
    pub fn new(model: IoCostModel, qos: IoCostQos) -> Self {
        IoCostConfig {
            model,
            qos,
            period: SimDuration::from_millis(5),
            margin_frac: 0.35,
        }
    }
}

#[derive(Debug)]
struct GroupCost {
    vtime: f64,
    inflight: u32,
    /// Held requests with their *absolute* model cost; the hweight
    /// division happens at release time so share changes (donation)
    /// apply to queued requests too.
    held: VecDeque<(IoRequest, f64)>,
    active_until: SimTime,
    /// Virtual time charged during the current period.
    spent_in_period: f64,
    /// Smoothed fraction of its entitlement the group actually uses;
    /// scales its weight in `hweight` (the donation mechanism: an
    /// underusing group cedes share to backlogged groups).
    usage: f64,
    /// Tagged hweight (interior-mutable: `hweight` is called from
    /// `&self` paths like `next_event`): valid while `hw_gen` equals
    /// the generation of a still-valid [`RowSums`].
    hw_value: Cell<f64>,
    hw_gen: Cell<u64>,
}

impl Default for GroupCost {
    fn default() -> Self {
        GroupCost {
            vtime: 0.0,
            inflight: 0,
            held: VecDeque::new(),
            active_until: SimTime::ZERO,
            spent_in_period: 0.0,
            usage: 1.0,
            hw_value: Cell::new(0.0),
            hw_gen: Cell::new(u64::MAX),
        }
    }
}

impl GroupCost {
    /// The activity predicate: whether the group is a row member of
    /// every hweight computation (given it is in the active set).
    fn in_rows(&self, now: SimTime) -> bool {
        self.active_until >= now || !self.held.is_empty() || self.inflight > 0
    }

    /// Whether the group wants more than its in-use share without
    /// asking right now (a caller always does).
    fn wants_more(&self) -> bool {
        !self.held.is_empty() || self.usage >= WANTS_MORE
    }
}

/// Floor on the usage fraction that scales a row's nominal share.
const USAGE_FLOOR: f64 = 0.02;
/// Usage at or above which a row wants more than its in-use share.
const WANTS_MORE: f64 = 0.9;

/// A row's in-use share: nominal weight fraction times clamped usage.
fn row_used(w: f64, total_w: f64, usage: f64) -> f64 {
    let nominal = w / total_w;
    nominal * usage.clamp(USAGE_FLOOR, 1.0)
}

/// The caller's hweight from its in-use share `used`, its weight `w`,
/// the rows' total in-use share and the weight of the rows that want
/// more (the caller included): the pooled surplus goes to the wanting
/// rows in proportion to weight.
fn share(used: f64, w: f64, inuse: f64, wants_w: f64) -> f64 {
    let mut mine = used;
    let surplus = (1.0 - inuse).max(0.0);
    if wants_w > 0.0 {
        mine += surplus * w / wants_w;
    }
    mine.clamp(1e-6, 1.0)
}

/// Sums over the row members, shared by every member's hweight while
/// the controller epoch is `epoch` and `now ≤ valid_until`.
#[derive(Debug, Clone, Copy)]
struct RowSums {
    /// Controller epoch the sums were built at (`u64::MAX`: never).
    epoch: u64,
    /// Earliest `active_until` of any member: past it a member can
    /// lapse out of the rows without an epoch bump.
    valid_until: SimTime,
    /// Bumped on every build; per-group tags compare against it.
    gen: u64,
    /// Sum of member weights (exact: integers ≤ 10 000).
    total_w: f64,
    /// Sum of member in-use shares, in slot order.
    inuse: f64,
    /// Sum of the weights of members that want more on their own.
    wants_w: f64,
}

impl RowSums {
    const UNBUILT: RowSums = RowSums {
        epoch: u64::MAX,
        valid_until: SimTime::ZERO,
        gen: 0,
        total_w: 0.0,
        inuse: 0.0,
        wants_w: 0.0,
    };
}

/// How long a group stays "active" for hweight purposes after its last
/// submission.
const ACTIVE_WINDOW: SimDuration = SimDuration::from_millis(100);

/// The `io.cost` controller for one device.
#[derive(Debug)]
pub struct IoCostController {
    config: IoCostConfig,
    weights: GroupArena<u32>,
    groups: GroupArena<GroupCost>,
    /// Conservative superset of groups whose activity predicate holds
    /// (pruned each period in `adjust_vrate`).
    active: SlotSet,
    /// Groups with a nonempty held queue (always a subset of `active`).
    backlogged: SlotSet,
    /// Total held requests across groups (kept in sync on push/pop).
    held_total: usize,
    /// Bumped whenever any input of `hweight` changes; invalidates the
    /// shared row sums (and with them every tagged hweight) at once.
    epoch: u64,
    vrate: f64,
    vbase: f64,
    tbase: SimTime,
    next_tick: SimTime,
    window_rlat_ns: Vec<u64>,
    window_wlat_ns: Vec<u64>,
    /// Reused scratch for drain/adjust walks (kept empty between calls).
    scratch_ids: Vec<GroupId>,
    /// Row-member sums (interior-mutable because `hweight` serves
    /// `&self` callers).
    rows: Cell<RowSums>,
}

impl IoCostController {
    /// Creates a controller; `vrate` starts at the QoS maximum.
    #[must_use]
    pub fn new(config: IoCostConfig) -> Self {
        let vrate = (config.qos.max_pct / 100.0).max(0.01);
        IoCostController {
            next_tick: SimTime::ZERO + config.period,
            config,
            weights: GroupArena::new(),
            groups: GroupArena::new(),
            active: SlotSet::new(),
            backlogged: SlotSet::new(),
            held_total: 0,
            epoch: 0,
            vrate,
            vbase: 0.0,
            tbase: SimTime::ZERO,
            window_rlat_ns: Vec::new(),
            window_wlat_ns: Vec::new(),
            scratch_ids: Vec::new(),
            rows: Cell::new(RowSums::UNBUILT),
        }
    }

    /// Sets a group's absolute weight (`io.weight`, 1..=10000).
    pub fn set_weight(&mut self, group: GroupId, weight: u32) {
        self.weights.insert(group, weight.clamp(1, 10_000));
        self.epoch += 1;
    }

    /// The group's absolute weight (default 100).
    #[must_use]
    pub fn weight(&self, group: GroupId) -> u32 {
        self.weights.get(group).copied().unwrap_or(100)
    }

    /// The current global vrate multiplier.
    #[must_use]
    pub fn vrate(&self) -> f64 {
        self.vrate
    }

    /// Total held requests.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held_total
    }

    /// A group's held-queue length (state inspection for tests).
    #[cfg(test)]
    fn held_len(&self, group: GroupId) -> usize {
        self.groups.get(group).map_or(0, |g| g.held.len())
    }

    fn vnow(&self, now: SimTime) -> f64 {
        self.vbase + now.saturating_since(self.tbase).as_nanos() as f64 * self.vrate
    }

    fn margin_v(&self) -> f64 {
        self.config.period.as_nanos() as f64 * self.config.margin_frac
    }

    /// Absolute cost of a request in virtual nanoseconds (device time at
    /// modelled full speed).
    #[must_use]
    pub fn abs_cost(&self, op: IoOp, pattern: AccessPattern, len: u32) -> f64 {
        let m = &self.config.model;
        let (bps, iops) = match (op, pattern) {
            (IoOp::Read, AccessPattern::Sequential) => (m.rbps, m.rseqiops),
            (IoOp::Read, AccessPattern::Random) => (m.rbps, m.rrandiops),
            (IoOp::Write, AccessPattern::Sequential) => (m.wbps, m.wseqiops),
            (IoOp::Write, AccessPattern::Random) => (m.wbps, m.wrandiops),
        };
        let page_coef = 4096.0 * 1e9 / bps as f64;
        let io_coef = (1e9 / iops as f64 - page_coef).max(0.0);
        let pages = (f64::from(len) / 4096.0).ceil().max(1.0);
        io_coef + pages * page_coef
    }

    /// Current in-use hierarchical weight share of `group` among active
    /// groups, after donation (kernel `hweight_inuse` semantics): each
    /// group's *nominal* share is its weight fraction; a group that only
    /// uses part of its entitlement keeps `nominal × usage`, and the
    /// pooled surplus is re-distributed to groups that want more
    /// (backlogged or fully-using), proportionally to their nominal
    /// weights. A group alone — or the only backlogged one — therefore
    /// converges to the full device speed (work conservation, O9).
    ///
    /// A row member is served from its generation tag, else from the
    /// shared [`RowSums`] in O(1); any other caller costs one walk of
    /// the active set (see the module doc).
    fn hweight(&self, group: GroupId, now: SimTime) -> f64 {
        let sums = self.row_sums(now);
        let Some(g) = self.groups.get(group) else {
            // First contact: nominal share, full usage, row after every
            // member.
            return self.hweight_outsider(group, 1.0, &sums, now);
        };
        if g.hw_gen.get() == sums.gen {
            return g.hw_value.get();
        }
        if !(self.active.contains(group) && g.in_rows(now)) {
            // Lapsed (row at its slot) or pruned (row after every
            // member), historical usage kept.
            return self.hweight_outsider(group, g.usage, &sums, now);
        }
        let w = f64::from(self.weight(group));
        // A group asking right now always wants more.
        let wants_w = if g.wants_more() {
            sums.wants_w
        } else {
            sums.wants_w + w
        };
        let value = share(row_used(w, sums.total_w, g.usage), w, sums.inuse, wants_w);
        g.hw_value.set(value);
        g.hw_gen.set(sums.gen);
        value
    }

    /// The row-member sums at `now`, rebuilt by two slot-order walks of
    /// the active set when the epoch or the horizon has moved.
    fn row_sums(&self, now: SimTime) -> RowSums {
        let old = self.rows.get();
        if old.epoch == self.epoch && now <= old.valid_until {
            return old;
        }
        let mut sums = RowSums {
            epoch: self.epoch,
            valid_until: SimTime::MAX,
            gen: old.gen.wrapping_add(1),
            ..RowSums::UNBUILT
        };
        for (id, g) in self.members(now) {
            let w = f64::from(self.weight(id));
            sums.total_w += w;
            if g.wants_more() {
                sums.wants_w += w;
            }
            sums.valid_until = sums.valid_until.min(g.active_until);
        }
        for (id, g) in self.members(now) {
            sums.inuse += row_used(f64::from(self.weight(id)), sums.total_w, g.usage);
        }
        self.rows.set(sums);
        sums
    }

    /// The row members at `now`, in slot order.
    fn members(&self, now: SimTime) -> impl Iterator<Item = (GroupId, &GroupCost)> {
        self.active.iter().filter_map(move |id| {
            let g = self
                .groups
                .get(id)
                .expect("active members are materialized");
            g.in_rows(now).then_some((id, g))
        })
    }

    /// hweight of a caller that is not a row member: its row joins the
    /// members at its slot if it is still in the active set, else after
    /// every member, and the in-use share is re-summed in that order.
    fn hweight_outsider(&self, group: GroupId, usage: f64, sums: &RowSums, now: SimTime) -> f64 {
        let w = f64::from(self.weight(group));
        let total_w = sums.total_w + w;
        let mine = row_used(w, total_w, usage);
        let mut inuse = 0.0;
        let mut placed = false;
        for id in self.active.iter() {
            if id == group {
                inuse += mine;
                placed = true;
                continue;
            }
            let g = self
                .groups
                .get(id)
                .expect("active members are materialized");
            if g.in_rows(now) {
                inuse += row_used(f64::from(self.weight(id)), total_w, g.usage);
            }
        }
        if !placed {
            inuse += mine;
        }
        // The caller always wants more.
        share(mine, w, inuse, sums.wants_w + w)
    }

    fn adjust_vrate(&mut self, now: SimTime) {
        let qos = self.config.qos;
        let min = qos.min_pct / 100.0;
        let max = qos.max_pct / 100.0;
        let mut missed = false;
        let mut measured = false;
        let mut check = |window: &mut Vec<u64>, pct: f64, target_us: u64| {
            if pct <= 0.0 || target_us == 0 || window.is_empty() {
                window.clear();
                return;
            }
            measured = true;
            let idx =
                ((window.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, window.len()) - 1;
            if *window.select_nth_unstable(idx).1 / 1_000 > target_us {
                missed = true;
            }
            window.clear();
        };
        if qos.enable {
            check(&mut self.window_rlat_ns, qos.rpct, qos.rlat_us);
            check(&mut self.window_wlat_ns, qos.wpct, qos.wlat_us);
        } else {
            self.window_rlat_ns.clear();
            self.window_wlat_ns.clear();
        }
        // Donation bookkeeping: how much of its entitlement did each
        // group use this period? Only active-set members can have spent
        // anything (non-members were pruned *after* their reset below,
        // so their `spent_in_period` is already zero), which keeps this
        // walk O(active), not O(every group ever seen).
        let entitlement = self.config.period.as_nanos() as f64 * self.vrate;
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.extend(self.active.iter());
        for &id in &ids {
            let g = self
                .groups
                .get_mut(id)
                .expect("active members are materialized");
            if g.active_until >= now || !g.held.is_empty() || g.inflight > 0 {
                let sample = (g.spent_in_period / entitlement).clamp(0.0, 1.0);
                g.usage = 0.5 * g.usage + 0.5 * sample;
            } else {
                // Predicate lapsed: drop from the active set so future
                // ticks and hweight row builds skip this group.
                self.active.remove(id);
            }
            g.spent_in_period = 0.0;
        }
        ids.clear();
        self.scratch_ids = ids;
        // Usage EMAs (and possibly membership) moved.
        self.epoch += 1;
        // Settle the vtime baseline before changing the rate.
        self.vbase = self.vnow(now);
        self.tbase = now;
        if qos.enable && measured {
            if missed {
                self.vrate = (self.vrate * 0.85).max(min);
            } else {
                self.vrate = (self.vrate * 1.05).min(max);
            }
        } else {
            self.vrate = self.vrate.clamp(min, max);
        }
    }
}

impl QosController for IoCostController {
    fn on_submit(&mut self, req: IoRequest, now: SimTime) -> SubmitOutcome {
        let abs = self.abs_cost(req.op, req.pattern, req.len);
        // Priced against the pre-contact state, like the kernel charges
        // before linking the iocg in.
        let charge = abs / self.hweight(req.group, now);
        let vnow = self.vnow(now);
        let margin = self.margin_v();
        let newly_active = self.active.insert(req.group);
        let g = self
            .groups
            .get_or_insert_with(req.group, GroupCost::default);
        let was_idle = g.inflight == 0 && g.held.is_empty();
        // A lapsed group re-entering the rows changes everyone's share.
        if newly_active || (was_idle && g.active_until < now) {
            self.epoch += 1;
        }
        g.active_until = now + ACTIVE_WINDOW;
        if was_idle {
            // No banking: an idle group resumes near the global clock.
            g.vtime = g.vtime.max(vnow - margin);
        }
        if g.held.is_empty() && g.vtime + charge <= vnow + margin {
            g.vtime += charge;
            g.spent_in_period += charge;
            g.inflight += 1;
            let vtime = g.vtime;
            trace::record_with(|| vtime_event(&req, now, vtime, abs));
            SubmitOutcome::Pass(req)
        } else {
            if g.held.is_empty() {
                // The group's "wants more" flag flips on.
                self.backlogged.insert(req.group);
                self.epoch += 1;
            }
            g.held.push_back((req, abs));
            self.held_total += 1;
            SubmitOutcome::Held
        }
    }

    fn on_device_complete(&mut self, req: &IoRequest, now: SimTime) {
        // QoS latency includes time held by the controller itself
        // (rq-wait semantics): once iocost throttles, waits blow past
        // the target and vrate stays pinned at min — the persistent
        // bandwidth reduction of Fig. 5a / Fig. 2g.
        let lat = now.saturating_since(req.submitted_at).as_nanos();
        if req.op.is_read() {
            self.window_rlat_ns.push(lat);
        } else {
            self.window_wlat_ns.push(lat);
        }
        if let Some(g) = self.groups.get_mut(req.group) {
            // No epoch bump: a completion can only lapse a group out of
            // the hweight rows when its `active_until` is already past,
            // and every memo containing such a member carried a
            // `valid_until ≤ active_until` and has expired on its own.
            g.inflight = g.inflight.saturating_sub(1);
        }
    }

    fn drain_released_into(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        let vnow = self.vnow(now);
        let margin = self.margin_v();
        let mut ids = std::mem::take(&mut self.scratch_ids);
        // Arena/slot order is ascending group order by construction —
        // deterministic without collect-and-sort.
        ids.extend(self.backlogged.iter());
        for &id in &ids {
            // Shares move with donation; price each head at the current
            // hweight, not the submit-time one.
            let hw = self.hweight(id, now);
            let g = self
                .groups
                .get_mut(id)
                .expect("backlogged members are materialized");
            while let Some((_, abs)) = g.held.front() {
                let charge = abs / hw;
                if g.vtime + charge <= vnow + margin {
                    let (req, abs) = g.held.pop_front().expect("nonempty");
                    self.held_total -= 1;
                    g.vtime += charge;
                    g.spent_in_period += charge;
                    g.inflight += 1;
                    let vtime = g.vtime;
                    trace::record_with(|| vtime_event(&req, now, vtime, abs));
                    out.push(req);
                } else {
                    break;
                }
            }
            if g.held.is_empty() {
                // The group's "wants more" flag flips off.
                self.backlogged.remove(id);
                self.epoch += 1;
            }
        }
        ids.clear();
        self.scratch_ids = ids;
    }

    fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let mut earliest = self.next_tick;
        // Earliest hold release across backlogged groups (estimated at
        // the current share; the periodic tick re-evaluates as shares
        // move).
        for id in self.backlogged.iter() {
            let g = self
                .groups
                .get(id)
                .expect("backlogged members are materialized");
            if let Some((_, abs)) = g.held.front() {
                let charge = abs / self.hweight(id, now);
                let needed_v = g.vtime + charge - self.margin_v();
                let dv = needed_v - self.vbase;
                let t = if dv <= 0.0 {
                    now
                } else {
                    self.tbase + SimDuration::from_nanos((dv / self.vrate).ceil() as u64)
                };
                earliest = earliest.min(t.max(now));
            }
        }
        Some(earliest)
    }

    fn tick(&mut self, now: SimTime) {
        while self.next_tick <= now {
            let at = self.next_tick;
            self.adjust_vrate(at);
            self.next_tick += self.config.period;
        }
    }

    fn submit_cpu_overhead(&self, deep_queue: bool) -> SimDuration {
        // Per-cpu vtime caches amortize well for deep-queue submitters;
        // shallow (QD-1) submitters serialize on the vtime lock, whose
        // contention grows with the number of active groups — the source
        // of io.cost's latency overhead past CPU saturation (O1).
        let n = self.groups.len() as u64;
        if deep_queue {
            SimDuration::from_nanos(250 + 8 * n)
        } else {
            SimDuration::from_nanos(900 + 90 * n)
        }
    }

    fn name(&self) -> &'static str {
        "io.cost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{read4k, req};

    fn model_1gib() -> IoCostModel {
        // A simple model: 1 GiB/s sequential everything, 100k rand IOPS,
        // 200k seq IOPS, symmetric.
        IoCostModel {
            ctrl: cgroup_sim::CostCtrl::User,
            rbps: 1 << 30,
            rseqiops: 200_000,
            rrandiops: 100_000,
            wbps: 1 << 30,
            wseqiops: 200_000,
            wrandiops: 100_000,
        }
    }

    fn fixed_cfg() -> IoCostConfig {
        IoCostConfig::new(model_1gib(), IoCostQos::default())
    }

    #[test]
    fn four_k_rand_read_costs_exactly_one_over_iops() {
        let c = IoCostController::new(fixed_cfg());
        let cost = c.abs_cost(IoOp::Read, AccessPattern::Random, 4096);
        assert!(
            (cost - 10_000.0).abs() < 1.0,
            "cost {cost} ns for 100k IOPS"
        );
    }

    #[test]
    fn large_requests_pay_page_costs() {
        let c = IoCostController::new(fixed_cfg());
        let small = c.abs_cost(IoOp::Read, AccessPattern::Sequential, 4096);
        let large = c.abs_cost(IoOp::Read, AccessPattern::Sequential, 256 * 1024);
        assert!(large > 10.0 * small, "small {small} large {large}");
        // 256 KiB at 1 GiB/s ≈ 238 µs of pure page cost.
        assert!((200_000.0..300_000.0).contains(&large), "large {large}");
    }

    #[test]
    fn dispatch_rate_is_bounded_by_model() {
        let mut c = IoCostController::new(fixed_cfg());
        // Pure 4 KiB random reads from one group, offered aggressively.
        let mut passed = 0u64;
        let mut id = 0;
        let horizon = SimTime::from_millis(500);
        let mut now = SimTime::ZERO;
        while now < horizon {
            match c.on_submit(read4k(id, 1, now), now) {
                SubmitOutcome::Pass(r) => {
                    passed += 1;
                    c.on_device_complete(&r, now);
                }
                SubmitOutcome::Held => {
                    now += SimDuration::from_micros(100);
                    for r in c.drain_released(now) {
                        passed += 1;
                        c.on_device_complete(&r, now);
                    }
                }
            }
            id += 1;
        }
        let iops = passed as f64 / 0.5;
        // Model says 100k rand read IOPS; margin allows slight overshoot.
        assert!((90_000.0..115_000.0).contains(&iops), "iops {iops}");
    }

    #[test]
    fn lone_group_gets_full_speed_regardless_of_weight() {
        let mut c = IoCostController::new(fixed_cfg());
        c.set_weight(GroupId(1), 1); // tiny weight, but alone
        let mut passed = 0u64;
        let mut id = 0;
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(200) {
            match c.on_submit(read4k(id, 1, now), now) {
                SubmitOutcome::Pass(r) => {
                    passed += 1;
                    c.on_device_complete(&r, now);
                }
                SubmitOutcome::Held => {
                    now += SimDuration::from_micros(100);
                    for r in c.drain_released(now) {
                        passed += 1;
                        c.on_device_complete(&r, now);
                    }
                }
            }
            id += 1;
        }
        let iops = passed as f64 / 0.2;
        assert!(iops > 85_000.0, "work conservation: lone group iops {iops}");
    }

    #[test]
    fn weighted_groups_share_proportionally() {
        let mut c = IoCostController::new(fixed_cfg());
        c.set_weight(GroupId(1), 300);
        c.set_weight(GroupId(2), 100);
        let mut counts = [0u64; 2];
        let mut id = 0;
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(500) {
            now += SimDuration::from_micros(50);
            for r in c.drain_released(now) {
                counts[r.group.index() - 1] += 1;
                c.on_device_complete(&r, now);
            }
            // Keep both groups backlogged; count immediate passes too.
            for g in [1usize, 2] {
                loop {
                    let pending = c.held_len(GroupId(g));
                    if pending >= 4 {
                        break;
                    }
                    match c.on_submit(read4k(id, g, now), now) {
                        SubmitOutcome::Pass(r) => {
                            counts[r.group.index() - 1] += 1;
                            c.on_device_complete(&r, now);
                        }
                        SubmitOutcome::Held => {}
                    }
                    id += 1;
                }
            }
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (2.5..3.5).contains(&ratio),
            "ratio {ratio}, counts {counts:?}"
        );
    }

    #[test]
    fn idle_group_does_not_bank_vtime() {
        let mut c = IoCostController::new(fixed_cfg());
        // Group 2 is busy for a while.
        let mut id = 0;
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(100) {
            if let SubmitOutcome::Pass(r) = c.on_submit(read4k(id, 2, now), now) {
                c.on_device_complete(&r, now);
            }
            id += 1;
            now += SimDuration::from_micros(20);
        }
        // Group 1 wakes after 100 ms idle; it must not burst far beyond
        // the margin.
        let mut burst = 0;
        while let SubmitOutcome::Pass(_) = c.on_submit(read4k(id, 1, now), now) {
            burst += 1;
            id += 1;
            assert!(burst < 10_000, "unbounded burst");
        }
        // Margin is 35% of 5 ms = 1.75 ms of vtime; at ~20 µs per rand
        // read with hweight 0.5 → at most ~175 requests, not thousands.
        assert!(burst < 400, "burst {burst}");
    }

    #[test]
    fn qos_violation_drives_vrate_to_min() {
        let qos = IoCostQos {
            enable: true,
            ctrl: cgroup_sim::CostCtrl::User,
            rpct: 95.0,
            rlat_us: 100,
            wpct: 0.0,
            wlat_us: 0,
            min_pct: 50.0,
            max_pct: 150.0,
        };
        let mut c = IoCostController::new(IoCostConfig::new(model_1gib(), qos));
        assert!((c.vrate() - 1.5).abs() < 1e-9, "starts at max");
        let mut now = SimTime::ZERO;
        for round in 0..40 {
            // Slow completions: 1 ms ≫ 100 µs target.
            for i in 0..20 {
                let mut r = read4k(round * 100 + i, 1, now);
                r.submitted_at = now;
                c.on_device_complete(&r, now + SimDuration::from_millis(1));
            }
            now += SimDuration::from_millis(5);
            c.tick(now);
        }
        assert!(
            (c.vrate() - 0.5).abs() < 1e-9,
            "vrate {} should hit min",
            c.vrate()
        );
        // Recovery: fast completions push vrate back to max.
        for round in 0..60 {
            for i in 0..20 {
                let mut r = read4k(10_000 + round * 100 + i, 1, now);
                r.submitted_at = now;
                c.on_device_complete(&r, now + SimDuration::from_micros(50));
            }
            now += SimDuration::from_millis(5);
            c.tick(now);
        }
        assert!(
            (c.vrate() - 1.5).abs() < 1e-9,
            "vrate {} should recover",
            c.vrate()
        );
    }

    #[test]
    fn disabled_qos_keeps_vrate_fixed() {
        let mut c = IoCostController::new(fixed_cfg());
        let v0 = c.vrate();
        let mut now = SimTime::ZERO;
        for i in 0..20 {
            let mut r = read4k(i, 1, now);
            r.submitted_at = now;
            c.on_device_complete(&r, now + SimDuration::from_millis(10));
            now += SimDuration::from_millis(5);
            c.tick(now);
        }
        assert_eq!(c.vrate(), v0);
    }

    #[test]
    fn writes_cost_more_when_model_says_so() {
        let mut model = model_1gib();
        model.wrandiops = 25_000; // 4x more expensive than reads
        let c = IoCostController::new(IoCostConfig::new(model, IoCostQos::default()));
        let r = c.abs_cost(IoOp::Read, AccessPattern::Random, 4096);
        let w = c.abs_cost(IoOp::Write, AccessPattern::Random, 4096);
        assert!((w / r - 4.0).abs() < 0.1, "write/read cost ratio {}", w / r);
    }

    #[test]
    fn next_event_includes_hold_release() {
        let mut c = IoCostController::new(fixed_cfg());
        let mut id = 0;
        // Saturate until a request is held.
        while let SubmitOutcome::Pass(_) = c.on_submit(read4k(id, 1, SimTime::ZERO), SimTime::ZERO)
        {
            id += 1;
        }
        let ev = c.next_event(SimTime::ZERO).expect("tick or release");
        assert!(ev <= SimTime::ZERO + SimDuration::from_millis(5));
        // The release must eventually happen.
        let released = c.drain_released(ev + SimDuration::from_millis(1));
        assert!(!released.is_empty() || c.held_count() > 0);
    }

    #[test]
    fn donation_gives_surplus_to_backlogged_group() {
        // A has weight 10000 but issues only ~10k IOPS; B (weight 100)
        // is backlogged. After usage converges, B must receive nearly
        // the whole modelled device speed (work conservation, O9).
        let mut c = IoCostController::new(fixed_cfg());
        c.set_weight(GroupId(1), 10_000);
        c.set_weight(GroupId(2), 100);
        let mut id = 0;
        let mut now = SimTime::ZERO;
        let mut b_done = 0u64;
        let horizon = SimTime::from_millis(500);
        let mut next_a = SimTime::ZERO;
        while now < horizon {
            now += SimDuration::from_micros(50);
            // A: one request every 100 us (10k IOPS demand).
            if now >= next_a {
                if let SubmitOutcome::Pass(r) = c.on_submit(read4k(id, 1, now), now) {
                    c.on_device_complete(&r, now);
                }
                id += 1;
                next_a = now + SimDuration::from_micros(100);
            }
            // B: backlogged (keep 4 held).
            loop {
                let pending = c.held_len(GroupId(2));
                if pending >= 4 {
                    break;
                }
                match c.on_submit(read4k(id, 2, now), now) {
                    SubmitOutcome::Pass(r) => {
                        b_done += 1;
                        c.on_device_complete(&r, now);
                    }
                    SubmitOutcome::Held => {}
                }
                id += 1;
            }
            for r in c.drain_released(now) {
                if r.group == GroupId(2) {
                    b_done += 1;
                }
                c.on_device_complete(&r, now);
            }
            c.tick(now);
        }
        // Steady-state check over the second half only.
        let b_iops = b_done as f64 / 0.5;
        // Model speed is 100k rand IOPS; A uses ~10k; B should get the
        // lion's share of the remaining ~90k.
        assert!(b_iops > 60_000.0, "backlogged group got only {b_iops} IOPS");
    }

    #[test]
    fn weight_is_clamped() {
        let mut c = IoCostController::new(fixed_cfg());
        c.set_weight(GroupId(1), 0);
        assert_eq!(c.weight(GroupId(1)), 1);
        c.set_weight(GroupId(1), 20_000);
        assert_eq!(c.weight(GroupId(1)), 10_000);
        let _ = req(0, 1, IoOp::Read, 4096, SimTime::ZERO);
    }

    #[test]
    fn drain_releases_in_ascending_group_order() {
        // Backlog three groups in shuffled submission order, then let
        // everything release at once: the drain must surface requests in
        // ascending group order (arena/slot order by construction), FIFO
        // within each group.
        let mut c = IoCostController::new(fixed_cfg());
        let mut id = 0;
        // Saturate group 5 first, then 1, then 3, leaving ≥2 held each.
        for g in [5usize, 1, 3] {
            let mut held = 0;
            while held < 2 {
                if let SubmitOutcome::Held =
                    c.on_submit(read4k(id, g, SimTime::ZERO), SimTime::ZERO)
                {
                    held += 1;
                }
                id += 1;
            }
        }
        let held = c.held_count();
        assert!(held >= 6);
        // Far enough out that every hold clears.
        let released = c.drain_released(SimTime::from_secs(2));
        assert_eq!(released.len(), held, "all holds must clear");
        assert_eq!(c.held_count(), 0);
        let groups: Vec<usize> = released.iter().map(|r| r.group.index()).collect();
        let mut sorted = groups.clone();
        sorted.sort_unstable();
        assert_eq!(groups, sorted, "release order must be ascending slot order");
        // FIFO within each group: request ids increase per group.
        for g in [1usize, 3, 5] {
            let ids: Vec<u64> = released
                .iter()
                .filter(|r| r.group.index() == g)
                .map(|r| r.id)
                .collect();
            let mut s = ids.clone();
            s.sort_unstable();
            assert_eq!(ids, s, "FIFO violated for group {g}");
        }
    }

    #[test]
    fn idle_groups_are_pruned_from_the_active_set() {
        let mut c = IoCostController::new(fixed_cfg());
        let mut now = SimTime::ZERO;
        for g in 1..=8usize {
            if let SubmitOutcome::Pass(r) = c.on_submit(read4k(g as u64, g, now), now) {
                c.on_device_complete(&r, now);
            }
        }
        assert_eq!(c.active.len(), 8);
        // Let the activity window lapse and a tick prune.
        now += ACTIVE_WINDOW + SimDuration::from_millis(10);
        c.tick(now);
        assert_eq!(c.active.len(), 0, "idle groups must be pruned");
        // State stays materialized (overhead model counts total groups).
        assert_eq!(c.groups.len(), 8);
    }

    /// Row-by-row hweight over the active set: the definition every
    /// `hweight` answer must reproduce bit for bit.
    fn hweight_compute(c: &IoCostController, group: GroupId, now: SimTime) -> f64 {
        // (id, nominal weight, usage, wants_more)
        let mut rows = Vec::new();
        let mut seen = false;
        for id in c.active.iter() {
            let g = c.groups.get(id).expect("active members are materialized");
            if id == group || g.active_until >= now || !g.held.is_empty() || g.inflight > 0 {
                // A group asking right now always wants more.
                let wants = id == group || !g.held.is_empty() || g.usage >= WANTS_MORE;
                rows.push((id, f64::from(c.weight(id)), g.usage, wants));
                seen |= id == group;
            }
        }
        if !seen {
            // Pruned (historical usage kept) or first contact (full
            // usage): the caller's row goes last.
            let usage = c.groups.get(group).map_or(1.0, |g| g.usage);
            rows.push((group, f64::from(c.weight(group)), usage, true));
        }
        let total_w: f64 = rows.iter().map(|r| r.1).sum();
        let mut inuse: f64 = 0.0;
        let mut mine = 0.0;
        let mut wants_w = 0.0;
        for &(id, w, usage, wants) in &rows {
            let nominal = w / total_w;
            let used = nominal * usage.clamp(USAGE_FLOOR, 1.0);
            inuse += used;
            if wants {
                wants_w += w;
            }
            if id == group {
                mine = used;
            }
        }
        let surplus = (1.0 - inuse).max(0.0);
        if wants_w > 0.0 {
            mine += surplus * f64::from(c.weight(group)) / wants_w;
        }
        mine.clamp(1e-6, 1.0)
    }

    /// Groups the hweight streams draw from; a few never submit, so
    /// first-contact callers stay in play throughout.
    const STREAM_GROUPS: usize = 12;

    /// Caller kinds outside the rows met by a stream: first contact,
    /// lapsed but still in the active set, pruned.
    #[derive(Debug, Default)]
    struct Outsiders {
        first_contact: usize,
        lapsed: usize,
        pruned: usize,
    }

    /// Drives a controller with the submit/complete/drain/tick/
    /// `set_weight`/time-jump stream decoded from `ops`, and after every
    /// step compares every group's `hweight` (and so every tag the step
    /// left behind) against [`hweight_compute`].
    fn check_hweight_stream(ops: &[u64]) -> Result<Outsiders, String> {
        let mut c = IoCostController::new(fixed_cfg());
        let mut seen = Outsiders::default();
        let mut inflight: Vec<IoRequest> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut id = 0;
        for (step, &op) in ops.iter().enumerate() {
            let g = 1 + (op >> 8) as usize % (STREAM_GROUPS - 3);
            match op % 16 {
                0..=5 => {
                    // A burst deep enough to overrun the margin and hold.
                    let n = if op % 16 == 0 {
                        200 + (op >> 20) % 200
                    } else {
                        1 + (op >> 20) % 8
                    };
                    for _ in 0..n {
                        id += 1;
                        if let SubmitOutcome::Pass(r) = c.on_submit(read4k(id, g, now), now) {
                            inflight.push(r);
                        }
                    }
                }
                6 => {
                    for r in inflight.extract_if(.., |r| r.group == GroupId(g)) {
                        c.on_device_complete(&r, now);
                    }
                }
                7 => {
                    let n = ((op >> 20) % 16) as usize;
                    for _ in 0..n.min(inflight.len()) {
                        let r = inflight.swap_remove((op >> 32) as usize % inflight.len());
                        c.on_device_complete(&r, now);
                    }
                }
                8 => inflight.extend(c.drain_released(now)),
                9 => {
                    let _ = c.next_event(now);
                }
                10 => c.tick(now),
                11 => c.set_weight(GroupId(g), 1 + ((op >> 20) % 10_000) as u32),
                12 | 13 => now += SimDuration::from_micros(10 + (op >> 20) % 2_000),
                14 => now += SimDuration::from_millis(1 + (op >> 20) % 20),
                _ => {
                    // Past the activity window: members lapse, and lapse
                    // out of the active set once a tick prunes them.
                    now += ACTIVE_WINDOW + SimDuration::from_millis((op >> 20) % 200);
                    if op & (1 << 40) != 0 {
                        // Quiesce: release every hold, complete it all.
                        inflight.extend(c.drain_released(now));
                        for r in inflight.drain(..) {
                            c.on_device_complete(&r, now);
                        }
                    }
                }
            }
            // Rotate the query order so tags are left in every state.
            for k in 0..STREAM_GROUPS {
                let q = GroupId((k + step) % STREAM_GROUPS);
                match c.groups.get(q) {
                    None => seen.first_contact += 1,
                    Some(m) if c.active.contains(q) && !m.in_rows(now) => seen.lapsed += 1,
                    Some(_) if !c.active.contains(q) => seen.pruned += 1,
                    Some(_) => {}
                }
                let want = hweight_compute(&c, q, now);
                let got = c.hweight(q, now);
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "step {step}: group {} at {now:?}: hweight {got} != reference {want}",
                        q.0
                    ));
                }
            }
        }
        Ok(seen)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn hweight_matches_row_by_row_reference(
            ops in proptest::collection::vec(0u64..=u64::MAX, 20..300),
        ) {
            if let Err(e) = check_hweight_stream(&ops) {
                proptest::prop_assert!(false, "{}", e);
            }
        }
    }

    #[test]
    fn hweight_streams_meet_every_outsider_kind() {
        // The reference proptest is only as strong as its streams: each
        // kind of caller outside the rows must actually occur.
        let mut rng = proptest::TestRng::from_seed(17);
        let ops: Vec<u64> = (0..400).map(|_| rng.next_u64()).collect();
        let seen = check_hweight_stream(&ops).expect("matches the reference");
        assert!(seen.first_contact > 0, "{seen:?}");
        assert!(seen.lapsed > 0, "{seen:?}");
        assert!(seen.pruned > 0, "{seen:?}");
    }
}
