//! `io.latency` (blk-iolatency): reactive tail-latency protection.
//!
//! Mechanism, as described in the paper (§IV-B) and the kernel:
//! every 500 ms the controller compares each protected group's achieved
//! P90 completion latency against its target. If violated, every group
//! with a *higher* target (or no target — lower priority) has its
//! effective queue depth halved, at most once per window, down to 1.
//! While still violated at QD 1, a `use_delay` counter accrues on the
//! victims. When the target is met again, victims first drain
//! `use_delay` (one per window) and only then recover queue depth in
//! steps of `max_qd / 4`. With `max_qd = 1024` a full throttle-down
//! takes 10 windows ≈ 5 s — the paper's O10 burst finding.
//!
//! # Fleet-scale fast path
//!
//! Per-group state lives in dense [`GroupArena`]s, and two slot sets
//! keep periodic work proportional to groups that need attention:
//!
//! * `dirty` — groups away from their settled fixpoint (`effective_qd ==
//!   max_qd`, `use_delay == 0`, empty latency window). A clean window
//!   evaluation is a no-op for settled groups, so the walk visits only
//!   dirty members; a *violated* window walks every materialized group
//!   (victim selection is global by design).
//! * `backlogged` — groups with held requests, so the per-pump drain
//!   never touches idle tenants.

use std::collections::VecDeque;

use blkio::{GroupId, IoRequest};
use simcore::{SimDuration, SimTime};

use crate::arena::{GroupArena, SlotSet};
use crate::{QosController, SubmitOutcome};

/// Evaluation window (kernel: 500 ms).
const WINDOW: SimDuration = SimDuration::from_millis(500);
/// The percentile compared against the target (static, kernel: P90).
const PERCENTILE: f64 = 0.90;

#[derive(Debug)]
struct GroupState {
    inflight: u32,
    effective_qd: u32,
    use_delay: u32,
    held: VecDeque<IoRequest>,
    window_lat_ns: Vec<u64>,
}

impl GroupState {
    fn new(max_qd: u32) -> Self {
        GroupState {
            inflight: 0,
            effective_qd: max_qd,
            use_delay: 0,
            held: VecDeque::new(),
            window_lat_ns: Vec::new(),
        }
    }

    /// A settled group: nothing a clean window evaluation would change.
    fn at_fixpoint(&self, max_qd: u32) -> bool {
        self.effective_qd == max_qd && self.use_delay == 0 && self.window_lat_ns.is_empty()
    }
}

/// The `io.latency` controller for one device.
#[derive(Debug)]
pub struct IoLatencyController {
    max_qd: u32,
    targets: GroupArena<u64>,
    groups: GroupArena<GroupState>,
    /// Groups away from their fixpoint (see [`GroupState::at_fixpoint`]);
    /// the only groups a clean window evaluation needs to visit.
    dirty: SlotSet,
    /// Groups with held requests.
    backlogged: SlotSet,
    /// Total held requests across groups.
    held_total: usize,
    next_window_at: SimTime,
    /// Reused scratch for window walks (kept empty between calls).
    scratch_ids: Vec<GroupId>,
    /// Reused scratch for percentile sorts.
    scratch_lats: Vec<u64>,
}

impl IoLatencyController {
    /// Creates a controller for a device with queue limit `max_qd`
    /// (1024 on the paper's SSDs).
    ///
    /// # Panics
    ///
    /// Panics if `max_qd` is zero.
    #[must_use]
    pub fn new(max_qd: u32) -> Self {
        assert!(max_qd > 0, "max_qd must be positive");
        IoLatencyController {
            max_qd,
            targets: GroupArena::new(),
            groups: GroupArena::new(),
            dirty: SlotSet::new(),
            backlogged: SlotSet::new(),
            held_total: 0,
            next_window_at: SimTime::ZERO + WINDOW,
            scratch_ids: Vec::new(),
            scratch_lats: Vec::new(),
        }
    }

    /// Sets or clears a group's latency target in microseconds (a write
    /// to `io.latency`).
    pub fn set_target(&mut self, group: GroupId, target_us: Option<u64>) {
        match target_us {
            Some(t) => {
                self.targets.insert(group, t);
            }
            None => {
                self.targets.remove(group);
            }
        }
    }

    /// `true` once any target is configured (otherwise the controller is
    /// a no-op pass-through).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.targets.is_empty()
    }

    /// The current effective queue depth of a group (for reports/tests).
    #[must_use]
    pub fn effective_qd(&self, group: GroupId) -> u32 {
        self.groups
            .get(group)
            .map_or(self.max_qd, |g| g.effective_qd)
    }

    /// The current `use_delay` counter of a group.
    #[must_use]
    pub fn use_delay(&self, group: GroupId) -> u32 {
        self.groups.get(group).map_or(0, |g| g.use_delay)
    }

    /// Total held requests across groups.
    #[must_use]
    pub fn held_count(&self) -> usize {
        self.held_total
    }

    fn group_mut(&mut self, id: GroupId) -> &mut GroupState {
        let max_qd = self.max_qd;
        self.groups
            .get_or_insert_with(id, || GroupState::new(max_qd))
    }

    fn effective_target(&self, id: GroupId) -> u64 {
        self.targets.get(id).copied().unwrap_or(u64::MAX)
    }

    fn evaluate_window(&mut self) {
        // Which protected groups are violated this window? Only the
        // strictest violated target matters for victim selection.
        let mut strictest_violated: Option<u64> = None;
        for (g, &target_us) in self.targets.iter() {
            if let Some(state) = self.groups.get(g) {
                if state.window_lat_ns.is_empty() {
                    continue;
                }
                self.scratch_lats.clear();
                self.scratch_lats.extend_from_slice(&state.window_lat_ns);
                let lats = &mut self.scratch_lats;
                let idx =
                    ((lats.len() as f64 * PERCENTILE).ceil() as usize).clamp(1, lats.len()) - 1;
                let p90_us = *lats.select_nth_unstable(idx).1 / 1_000;
                if p90_us > target_us {
                    strictest_violated =
                        Some(strictest_violated.map_or(target_us, |t| t.min(target_us)));
                }
            }
        }
        let max_qd = self.max_qd;
        let mut ids = std::mem::take(&mut self.scratch_ids);
        if strictest_violated.is_some() {
            // Victim selection is global: every group with traffic or
            // configuration is (re)examined.
            ids.extend(self.groups.iter().map(|(id, _)| id));
        } else {
            // A clean window changes nothing for settled groups — walk
            // only the dirty ones, so thousands of idle tenants cost
            // nothing here.
            ids.extend(self.dirty.iter());
        }
        for &id in &ids {
            let my_target = self.effective_target(id);
            // A group is a victim if some *stricter* protected group is
            // violated.
            let victim_of_violation = strictest_violated.is_some_and(|t| my_target > t);
            let g = self
                .groups
                .get_mut(id)
                .expect("walked ids are materialized");
            if victim_of_violation {
                if g.effective_qd > 1 {
                    g.effective_qd = (g.effective_qd / 2).max(1);
                } else {
                    g.use_delay += 1;
                }
            } else if g.use_delay > 0 {
                g.use_delay -= 1;
            } else {
                g.effective_qd = (g.effective_qd + max_qd / 4).min(max_qd);
            }
            g.window_lat_ns.clear();
            if g.at_fixpoint(max_qd) {
                self.dirty.remove(id);
            } else {
                self.dirty.insert(id);
            }
        }
        ids.clear();
        self.scratch_ids = ids;
    }
}

impl QosController for IoLatencyController {
    fn on_submit(&mut self, req: IoRequest, _now: SimTime) -> SubmitOutcome {
        if !self.is_enabled() {
            return SubmitOutcome::Pass(req);
        }
        let g = self.group_mut(req.group);
        if g.held.is_empty() && g.inflight < g.effective_qd {
            g.inflight += 1;
            SubmitOutcome::Pass(req)
        } else {
            let group = req.group;
            g.held.push_back(req);
            self.held_total += 1;
            self.backlogged.insert(group);
            SubmitOutcome::Held
        }
    }

    fn on_device_complete(&mut self, req: &IoRequest, now: SimTime) {
        if !self.is_enabled() {
            return;
        }
        let lat = now.saturating_since(req.scheduled_at).as_nanos();
        let group = req.group;
        let g = self.group_mut(group);
        g.inflight = g.inflight.saturating_sub(1);
        g.window_lat_ns.push(lat);
        // A nonempty window needs clearing at the next evaluation.
        self.dirty.insert(group);
    }

    fn drain_released_into(&mut self, _now: SimTime, out: &mut Vec<IoRequest>) {
        if self.backlogged.is_empty() {
            return;
        }
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.extend(self.backlogged.iter());
        for &id in &ids {
            let g = self
                .groups
                .get_mut(id)
                .expect("backlogged members are materialized");
            while !g.held.is_empty() && g.inflight < g.effective_qd {
                let req = g.held.pop_front().expect("nonempty");
                self.held_total -= 1;
                g.inflight += 1;
                out.push(req);
            }
            if g.held.is_empty() {
                self.backlogged.remove(id);
            }
        }
        ids.clear();
        self.scratch_ids = ids;
    }

    fn next_event(&self, _now: SimTime) -> Option<SimTime> {
        self.is_enabled().then_some(self.next_window_at)
    }

    fn tick(&mut self, now: SimTime) {
        if !self.is_enabled() {
            return;
        }
        while self.next_window_at <= now {
            self.evaluate_window();
            self.next_window_at += WINDOW;
        }
    }

    fn submit_cpu_overhead(&self, _deep_queue: bool) -> SimDuration {
        SimDuration::from_nanos(150)
    }

    fn name(&self) -> &'static str {
        "io.latency"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::read4k;

    fn complete(ctl: &mut IoLatencyController, mut req: IoRequest, sched_at: SimTime, lat_us: u64) {
        req.scheduled_at = sched_at;
        let done = sched_at + SimDuration::from_micros(lat_us);
        ctl.on_device_complete(&req, done);
    }

    #[test]
    fn disabled_controller_passes_everything() {
        let mut c = IoLatencyController::new(1024);
        assert!(!c.is_enabled());
        for i in 0..2000 {
            let r = read4k(i, 1, SimTime::ZERO);
            assert!(matches!(
                c.on_submit(r, SimTime::ZERO),
                SubmitOutcome::Pass(_)
            ));
        }
        assert_eq!(c.next_event(SimTime::ZERO), None);
    }

    #[test]
    fn effective_qd_gates_inflight() {
        let mut c = IoLatencyController::new(4);
        c.set_target(GroupId(1), Some(100));
        // Group 2 has no target; cap is max_qd = 4 until throttled.
        let mut passed = 0;
        for i in 0..6 {
            if matches!(
                c.on_submit(read4k(i, 2, SimTime::ZERO), SimTime::ZERO),
                SubmitOutcome::Pass(_)
            ) {
                passed += 1;
            }
        }
        assert_eq!(passed, 4);
        // A completion frees one slot.
        let r = read4k(99, 2, SimTime::ZERO);
        complete(&mut c, r, SimTime::ZERO, 10);
        assert_eq!(c.drain_released(SimTime::ZERO).len(), 1);
    }

    #[test]
    fn violation_halves_victims_once_per_window() {
        let mut c = IoLatencyController::new(1024);
        c.set_target(GroupId(1), Some(100));
        // Protected group misses its target badly this window.
        for i in 0..20 {
            let r = read4k(i, 1, SimTime::ZERO);
            c.on_submit(r.clone(), SimTime::ZERO);
            complete(&mut c, r, SimTime::ZERO, 500); // 500 us >> 100 us
        }
        // Unprotected group has traffic too.
        let r = read4k(100, 2, SimTime::ZERO);
        c.on_submit(r, SimTime::ZERO);
        let w1 = SimTime::ZERO + WINDOW;
        c.tick(w1);
        assert_eq!(c.effective_qd(GroupId(2)), 512, "halved once");
        assert_eq!(
            c.effective_qd(GroupId(1)),
            1024,
            "protected group untouched"
        );
    }

    #[test]
    fn ten_windows_throttle_to_one() {
        let mut c = IoLatencyController::new(1024);
        c.set_target(GroupId(1), Some(100));
        // Group 2 must exist (has had traffic).
        c.on_submit(read4k(0, 2, SimTime::ZERO), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for w in 0..10 {
            // Keep violating.
            for i in 0..10 {
                let r = read4k(1000 + w * 100 + i, 1, now);
                c.on_submit(r.clone(), now);
                complete(&mut c, r, now, 900);
            }
            now += WINDOW;
            c.tick(now);
        }
        assert_eq!(c.effective_qd(GroupId(2)), 1);
        // Continued violation accrues use_delay.
        for i in 0..10 {
            let r = read4k(9000 + i, 1, now);
            c.on_submit(r.clone(), now);
            complete(&mut c, r, now, 900);
        }
        now += WINDOW;
        c.tick(now);
        assert_eq!(c.use_delay(GroupId(2)), 1);
    }

    #[test]
    fn recovery_waits_for_use_delay_then_steps_up() {
        let mut c = IoLatencyController::new(1024);
        c.set_target(GroupId(1), Some(100));
        c.on_submit(read4k(0, 2, SimTime::ZERO), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        // Throttle to QD 1 and accrue use_delay = 2.
        for w in 0..12 {
            for i in 0..10 {
                let r = read4k(100 + w * 100 + i, 1, now);
                c.on_submit(r.clone(), now);
                complete(&mut c, r, now, 900);
            }
            now += WINDOW;
            c.tick(now);
        }
        assert_eq!(c.effective_qd(GroupId(2)), 1);
        assert_eq!(c.use_delay(GroupId(2)), 2);
        // Now the target is met (fast IO). First two windows drain
        // use_delay; the third adds max_qd/4.
        for expect_qd in [1, 1, 257] {
            for i in 0..10 {
                let r = read4k(5000 + u64::from(expect_qd) * 100 + i, 1, now);
                c.on_submit(r.clone(), now);
                complete(&mut c, r, now, 10);
            }
            now += WINDOW;
            c.tick(now);
            assert_eq!(c.effective_qd(GroupId(2)), expect_qd);
        }
    }

    #[test]
    fn stricter_targets_throttle_looser_protected_groups() {
        let mut c = IoLatencyController::new(64);
        c.set_target(GroupId(1), Some(50)); // strict
        c.set_target(GroupId(2), Some(5_000)); // loose
                                               // Strict group violated.
        for i in 0..10 {
            let r = read4k(i, 1, SimTime::ZERO);
            c.on_submit(r.clone(), SimTime::ZERO);
            complete(&mut c, r, SimTime::ZERO, 400);
        }
        // Loose group active.
        c.on_submit(read4k(50, 2, SimTime::ZERO), SimTime::ZERO);
        c.tick(SimTime::ZERO + WINDOW);
        assert_eq!(
            c.effective_qd(GroupId(2)),
            32,
            "looser protected group is a victim"
        );
        assert_eq!(c.effective_qd(GroupId(1)), 64);
    }

    #[test]
    fn no_violation_means_no_throttling() {
        let mut c = IoLatencyController::new(1024);
        c.set_target(GroupId(1), Some(1_000));
        for i in 0..20 {
            let r = read4k(i, 1, SimTime::ZERO);
            c.on_submit(r.clone(), SimTime::ZERO);
            complete(&mut c, r, SimTime::ZERO, 100); // well under target
        }
        c.on_submit(read4k(100, 2, SimTime::ZERO), SimTime::ZERO);
        c.tick(SimTime::ZERO + WINDOW);
        assert_eq!(c.effective_qd(GroupId(2)), 1024);
    }

    #[test]
    fn held_requests_release_in_order_as_slots_free() {
        let mut c = IoLatencyController::new(2);
        c.set_target(GroupId(1), Some(100));
        let mut reqs = Vec::new();
        for i in 0..4 {
            let r = read4k(i, 2, SimTime::ZERO);
            reqs.push(r.clone());
            c.on_submit(r, SimTime::ZERO);
        }
        // Two in flight, two held.
        complete(&mut c, reqs[0].clone(), SimTime::ZERO, 10);
        let rel = c.drain_released(SimTime::ZERO);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].id, 2);
    }

    #[test]
    fn settled_groups_leave_the_dirty_set() {
        let mut c = IoLatencyController::new(1024);
        c.set_target(GroupId(1), Some(100));
        // Traffic in several groups, all meeting targets.
        for g in 1..=6usize {
            let r = read4k(g as u64, g, SimTime::ZERO);
            c.on_submit(r.clone(), SimTime::ZERO);
            complete(&mut c, r, SimTime::ZERO, 10);
        }
        assert_eq!(c.dirty.len(), 6, "nonempty windows are dirty");
        c.tick(SimTime::ZERO + WINDOW);
        assert_eq!(
            c.dirty.len(),
            0,
            "clean evaluation settles every group back to its fixpoint"
        );
        // A violation drags everyone back in.
        for i in 0..10 {
            let r = read4k(100 + i, 1, SimTime::ZERO + WINDOW);
            c.on_submit(r.clone(), SimTime::ZERO + WINDOW);
            complete(&mut c, r, SimTime::ZERO + WINDOW, 900);
        }
        c.tick(SimTime::ZERO + WINDOW + WINDOW);
        // Victims (groups 2..=6) halved → dirty again.
        assert!(c.dirty.len() >= 5, "victims are dirty: {}", c.dirty.len());
        assert_eq!(c.effective_qd(GroupId(2)), 512);
    }
}
