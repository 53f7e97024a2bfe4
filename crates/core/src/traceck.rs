//! Trace-invariant conformance checking.
//!
//! Given a request-lifecycle trace ([`simcore::trace::Trace`]), this
//! module verifies the structural invariants every correct run of the
//! simulator must satisfy:
//!
//! * **time-monotonic** — event timestamps never go backwards.
//! * **vtime-monotonic** — blk-iocost virtual time per (device, cgroup)
//!   never decreases.
//! * **request-spans** — per request: exactly one submit, which comes
//!   first; dispatches never outrun enqueues, device starts never
//!   outrun dispatches, completions never outrun starts; at most one
//!   terminal (`complete`/`fail`), nothing after it; `complete`
//!   requires a successful device attempt, `fail` a failed one.
//! * **fifo-within-class** — on `none` and `mq-deadline` schedulers,
//!   dispatch order within a priority class replays the enqueue order
//!   exactly (FIFO tie-break; BFQ and Kyber reorder by design and are
//!   skipped).
//! * **iomax-budget** — replaying every `io.max` token-bucket against
//!   the limits recorded in the trace's config events, emission never
//!   exceeds the configured budget over any window (bucket starts at
//!   burst capacity and refills at the configured rate; before each
//!   pass it must hold the request's tokens, capped at the burst, up to
//!   a sub-token residue — the capped rule is charge-then-wait for
//!   requests beyond the burst, whose excess stays as debt). Uses the
//!   *exact* burst formula exported by [`ioqos::burst_tokens`].
//! * **work-conservation** — on `none`/`mq-deadline`, an online device
//!   is never idle for more than a scheduling epsilon while the
//!   scheduler holds dispatchable requests.
//! * **conservation** (vs. a [`host_sim::RunReport`], see
//!   [`check_against_report`]) — trace event counts agree with the
//!   engine's own accounting: submits vs. issued, device completions
//!   vs. served I/Os, timeouts, retries, resets, fails. Media errors
//!   are one-sided (trace ≤ report): the report counts the fault when
//!   it is drawn at service start, so an errored command aborted,
//!   reset-wiped, or still in flight at run end never emits its
//!   `dev_error` event.
//!
//! # Gating
//!
//! Counting invariants are only sound on a **lossless** trace (ring
//! buffer never evicted): with drops, a dispatch's enqueue may simply
//! be missing. [`check`] therefore runs only the order-insensitive
//! checks (time and vtime monotonicity) on lossy traces and reports
//! which checks ran in [`TraceCheck::checks`]. A **partial** trace (no
//! `run_end`, e.g. from a panicked cell) runs every per-event check but
//! skips report reconciliation. The checker is *false-fail-safe* under
//! gating: it may miss a violation on a degraded trace but never
//! invents one.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use host_sim::RunReport;
use ioqos::{burst_tokens, MIN_BURST_BYTES, MIN_BURST_IOS};
use simcore::trace::{Trace, TraceEvent, TraceKind};

/// An online device must not sit idle with dispatchable work queued for
/// longer than this (covers dispatch CPU overhead between a scheduler
/// pop and the device actually starting the command).
const IDLE_EPSILON_NS: u64 = 50_000;

/// Per-invariant cap on reported violations; the rest are summarized.
const MAX_PER_INVARIANT: usize = 50;

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant (stable kebab-case name, e.g. `fifo-within-class`).
    pub invariant: &'static str,
    /// Human-readable description with ids and timestamps.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

/// The result of checking one trace.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// Every violation found, in trace order (capped per invariant).
    pub violations: Vec<Violation>,
    /// The invariants that actually ran (a lossy or partial trace gates
    /// some off — see the module docs).
    pub checks: Vec<&'static str>,
    /// `true` if the trace lacked the `run_end` marker.
    pub partial: bool,
    /// `true` if the ring buffer never evicted an event.
    pub lossless: bool,
}

impl TraceCheck {
    /// `true` when no invariant was violated.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects violations with a per-invariant cap.
#[derive(Debug, Default)]
struct Sink {
    violations: Vec<Violation>,
    counts: HashMap<&'static str, usize>,
}

impl Sink {
    fn push(&mut self, invariant: &'static str, message: String) {
        let n = self.counts.entry(invariant).or_insert(0);
        *n += 1;
        if *n <= MAX_PER_INVARIANT {
            self.violations.push(Violation { invariant, message });
        }
    }

    fn finish(mut self) -> Vec<Violation> {
        let mut extra: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &n)| n > MAX_PER_INVARIANT)
            .map(|(&inv, &n)| (inv, n - MAX_PER_INVARIANT))
            .collect();
        extra.sort_unstable();
        for (invariant, suppressed) in extra {
            self.violations.push(Violation {
                invariant,
                message: format!("({suppressed} further violations suppressed)"),
            });
        }
        self.violations
    }
}

/// Checks every trace-internal invariant the trace's quality admits.
#[must_use]
pub fn check(trace: &Trace) -> TraceCheck {
    let mut sink = Sink::default();
    let mut checks = vec!["time-monotonic", "vtime-monotonic"];
    check_time_monotonic(trace, &mut sink);
    check_vtime_monotonic(trace, &mut sink);
    if trace.is_lossless() {
        checks.extend([
            "request-spans",
            "fifo-within-class",
            "iomax-budget",
            "work-conservation",
        ]);
        check_request_spans(trace, &mut sink);
        check_fifo(trace, &mut sink);
        check_iomax_budget(trace, &mut sink);
        check_work_conservation(trace, &mut sink);
    }
    TraceCheck {
        violations: sink.finish(),
        checks,
        partial: !trace.is_complete(),
        lossless: trace.is_lossless(),
    }
}

/// Reconciles trace event counts against the engine's own report.
///
/// Only sound on a lossless, complete trace of the same run; on a lossy
/// or partial trace this returns no violations (gated, not guessed).
#[must_use]
pub fn check_against_report(trace: &Trace, report: &RunReport) -> Vec<Violation> {
    if !trace.is_lossless() || !trace.is_complete() {
        return Vec::new();
    }
    let mut sink = Sink::default();
    let mut submits = 0u64;
    let mut per_dev: HashMap<u32, DevCounts> = HashMap::new();
    let mut fails = 0u64;
    for e in &trace.events {
        let d = per_dev.entry(e.dev).or_default();
        match e.kind {
            TraceKind::Submit => submits += 1,
            TraceKind::DeviceComplete => d.completes += 1,
            TraceKind::DeviceError => d.errors += 1,
            TraceKind::TimeoutFired => d.timeouts += 1,
            TraceKind::RetryScheduled => d.retries += 1,
            TraceKind::DeviceReset => d.resets += 1,
            TraceKind::Fail => fails += 1,
            _ => {}
        }
    }
    let issued: u64 = report.apps.iter().map(|a| a.issued).sum();
    if submits != issued {
        sink.push(
            "conservation",
            format!("trace has {submits} submits but the report issued {issued}"),
        );
    }
    let failed: u64 = report.devices.iter().map(|d| d.failed).sum();
    if fails != failed {
        sink.push(
            "conservation",
            format!("trace has {fails} fail events but the report failed {failed}"),
        );
    }
    for dev in &report.devices {
        let c = per_dev
            .get(&(dev.dev.0 as u32))
            .copied()
            .unwrap_or_default();
        let pairs = [
            ("dev_complete", c.completes, dev.served_ios),
            ("timeout", c.timeouts, dev.timeouts),
            ("retry_sched", c.retries, dev.retries),
            ("dev_reset", c.resets, dev.resets),
        ];
        for (what, got, want) in pairs {
            if got != want {
                sink.push(
                    "conservation",
                    format!(
                        "device {}: trace has {got} {what} events but the report counts {want}",
                        dev.dev.0
                    ),
                );
            }
        }
        // The report counts media errors when the fault is *drawn* at
        // service start; the trace records them at *completion*. An
        // errored command still in flight at run end — or one aborted on
        // deadline or wiped by a reset before completing — is counted
        // but never emits `dev_error`, so the trace may lag the report
        // but can never exceed it.
        if c.errors > dev.media_errors {
            sink.push(
                "conservation",
                format!(
                    "device {}: trace has {} dev_error events but the report drew only {}",
                    dev.dev.0, c.errors, dev.media_errors
                ),
            );
        }
    }
    sink.finish()
}

#[derive(Debug, Default, Clone, Copy)]
struct DevCounts {
    completes: u64,
    errors: u64,
    timeouts: u64,
    retries: u64,
    resets: u64,
}

fn check_time_monotonic(trace: &Trace, sink: &mut Sink) {
    let mut prev = 0u64;
    for (i, e) in trace.events.iter().enumerate() {
        if e.t < prev {
            sink.push(
                "time-monotonic",
                format!(
                    "event #{i} ({}) at t={} after t={}",
                    e.kind.as_str(),
                    e.t,
                    prev
                ),
            );
        }
        prev = prev.max(e.t);
    }
}

fn check_vtime_monotonic(trace: &Trace, sink: &mut Sink) {
    let mut last: HashMap<(u32, u32), f64> = HashMap::new();
    for e in &trace.events {
        if e.kind != TraceKind::VtimeAdvance {
            continue;
        }
        let vtime = f64::from_bits(e.a);
        if let Some(&prev) = last.get(&(e.dev, e.group)) {
            if vtime < prev {
                sink.push(
                    "vtime-monotonic",
                    format!(
                        "dev {} cgroup {}: vtime went backwards {prev} -> {vtime} at t={} (req {})",
                        e.dev, e.group, e.t, e.req
                    ),
                );
            }
        }
        last.insert((e.dev, e.group), vtime);
    }
}

/// Per-request lifecycle state for the span check.
#[derive(Debug, Default)]
struct ReqState {
    submitted: bool,
    enq: u64,
    disp: u64,
    starts: u64,
    attempts_done: u64,
    had_success: bool,
    had_failure: bool,
    terminal: Option<TraceKind>,
    /// Once a request violated, stop checking it (avoid cascades).
    bad: bool,
}

fn is_request_scoped(kind: TraceKind) -> bool {
    !matches!(
        kind,
        TraceKind::DeviceReset
            | TraceKind::DeviceRestart
            | TraceKind::CfgDevice
            | TraceKind::CfgSched
            | TraceKind::CfgIoMax
            | TraceKind::RunEnd
    )
}

fn check_request_spans(trace: &Trace, sink: &mut Sink) {
    let mut reqs: HashMap<u64, ReqState> = HashMap::new();
    for e in &trace.events {
        if !is_request_scoped(e.kind) {
            continue;
        }
        let s = reqs.entry(e.req).or_default();
        if s.bad {
            continue;
        }
        let mut fail = |s: &mut ReqState, msg: String| {
            s.bad = true;
            sink.push("request-spans", msg);
        };
        if let Some(term) = s.terminal {
            fail(
                s,
                format!(
                    "req {}: {} at t={} after terminal {}",
                    e.req,
                    e.kind.as_str(),
                    e.t,
                    term.as_str()
                ),
            );
            continue;
        }
        if e.kind == TraceKind::Submit {
            if s.submitted {
                fail(s, format!("req {}: double submit at t={}", e.req, e.t));
            } else {
                s.submitted = true;
            }
            continue;
        }
        if !s.submitted {
            fail(
                s,
                format!(
                    "req {}: {} at t={} before any submit",
                    e.req,
                    e.kind.as_str(),
                    e.t
                ),
            );
            continue;
        }
        match e.kind {
            TraceKind::SchedEnqueue => s.enq += 1,
            TraceKind::SchedDispatch => {
                s.disp += 1;
                if s.disp > s.enq {
                    fail(
                        s,
                        format!("req {}: dispatch without enqueue at t={}", e.req, e.t),
                    );
                }
            }
            TraceKind::DeviceStart => {
                s.starts += 1;
                if s.starts > s.disp {
                    fail(
                        s,
                        format!("req {}: device start without dispatch at t={}", e.req, e.t),
                    );
                }
            }
            TraceKind::DeviceComplete | TraceKind::DeviceError | TraceKind::DeviceAbort => {
                s.attempts_done += 1;
                if s.attempts_done > s.starts {
                    fail(
                        s,
                        format!(
                            "req {}: {} without device start at t={}",
                            e.req,
                            e.kind.as_str(),
                            e.t
                        ),
                    );
                }
                if e.kind == TraceKind::DeviceComplete {
                    s.had_success = true;
                } else {
                    s.had_failure = true;
                }
            }
            TraceKind::Complete => {
                if !s.had_success {
                    fail(
                        s,
                        format!(
                            "req {}: complete at t={} without a successful device attempt",
                            e.req, e.t
                        ),
                    );
                } else {
                    s.terminal = Some(TraceKind::Complete);
                }
            }
            TraceKind::Fail => {
                if !s.had_failure {
                    fail(
                        s,
                        format!(
                            "req {}: fail at t={} without a failed device attempt",
                            e.req, e.t
                        ),
                    );
                } else {
                    s.terminal = Some(TraceKind::Fail);
                }
            }
            // QoS / timeout / retry bookkeeping events have no counting
            // constraints beyond "after submit, before terminal".
            _ => {}
        }
    }
}

/// Scheduler kinds whose dispatch order is FIFO within a priority class
/// (`none` is a single global FIFO; `mq-deadline` keeps one FIFO per
/// class). BFQ (2) and Kyber (3) legitimately reorder.
fn fifo_class_key(sched_kind: u64, e: &TraceEvent) -> Option<u64> {
    match sched_kind {
        0 => Some(0),
        1 => Some(e.a),
        _ => None,
    }
}

fn check_fifo(trace: &Trace, sink: &mut Sink) {
    let mut sched_kind: HashMap<u32, u64> = HashMap::new();
    let mut queues: HashMap<(u32, u64), VecDeque<u64>> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::CfgSched => {
                sched_kind.insert(e.dev, e.a);
            }
            TraceKind::SchedEnqueue | TraceKind::SchedDispatch => {
                let Some(&kind) = sched_kind.get(&e.dev) else {
                    continue; // unconfigured device: don't guess
                };
                let Some(class) = fifo_class_key(kind, e) else {
                    continue; // scheduler reorders by design
                };
                let q = queues.entry((e.dev, class)).or_default();
                if e.kind == TraceKind::SchedEnqueue {
                    q.push_back(e.req);
                } else if q.front() == Some(&e.req) {
                    q.pop_front();
                } else {
                    sink.push(
                        "fifo-within-class",
                        format!(
                            "dev {} class {class}: dispatched req {} at t={} but FIFO head is {:?}",
                            e.dev,
                            e.req,
                            e.t,
                            q.front()
                        ),
                    );
                    // Recover so one slip doesn't cascade.
                    if let Some(pos) = q.iter().position(|&r| r == e.req) {
                        q.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One replayed `io.max` token bucket.
#[derive(Debug)]
struct Bucket {
    rate: f64,
    burst: f64,
    credit: f64,
    last_t: u64,
}

fn check_iomax_budget(trace: &Trace, sink: &mut Sink) {
    // Key: (group, dev, bucket index 0 rbps / 1 wbps / 2 riops / 3 wiops).
    let mut buckets: HashMap<(u32, u32, u64), Bucket> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::CfgIoMax => {
                let min_burst = if e.req < 2 {
                    MIN_BURST_BYTES
                } else {
                    MIN_BURST_IOS
                };
                let burst = burst_tokens(e.a, min_burst);
                buckets.insert(
                    (e.group, e.dev, e.req),
                    Bucket {
                        rate: e.a.max(1) as f64,
                        burst,
                        credit: burst,
                        last_t: 0,
                    },
                );
            }
            TraceKind::IoMaxPass => {
                let is_write = e.b == 1;
                // (bucket index, tokens consumed) pairs this pass hits.
                let hits = if is_write {
                    [(1u64, e.a as f64), (3, 1.0)]
                } else {
                    [(0u64, e.a as f64), (2, 1.0)]
                };
                for (idx, amount) in hits {
                    let Some(b) = buckets.get_mut(&(e.group, e.dev, idx)) else {
                        continue;
                    };
                    let dt = e.t.saturating_sub(b.last_t) as f64 * 1e-9;
                    let before = (b.credit + b.rate * dt).min(b.burst);
                    let need = amount.min(b.burst);
                    b.credit = before - amount;
                    b.last_t = e.t;
                    // Tolerance: the throttler releases on nanosecond
                    // boundaries, so a pass can lead full refill by a
                    // sub-token residue — never by a whole request.
                    let eps = 1.0 + b.rate * 1e-6;
                    if before - need < -eps {
                        sink.push(
                            "iomax-budget",
                            format!(
                                "cgroup {} dev {} bucket {idx}: req {} at t={} overdraws the \
                                 token bucket by {:.1} tokens (burst {:.0}, rate {:.0}/s)",
                                e.group,
                                e.dev,
                                e.req,
                                e.t,
                                need - before,
                                b.burst,
                                b.rate
                            ),
                        );
                        // Reset so one overdraw doesn't cascade.
                        b.credit = need - amount;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Per-device replay state for the work-conservation check.
#[derive(Debug, Default)]
struct DevState {
    pending: i64,
    in_service: i64,
    offline: bool,
    starved_since: Option<u64>,
}

impl DevState {
    fn starved(&self) -> bool {
        !self.offline && self.pending > 0 && self.in_service == 0
    }
}

fn check_work_conservation(trace: &Trace, sink: &mut Sink) {
    let mut sched_kind: HashMap<u32, u64> = HashMap::new();
    let mut devs: HashMap<u32, DevState> = HashMap::new();
    let close = |dev: u32, d: &mut DevState, now: u64, sink: &mut Sink| {
        if let Some(since) = d.starved_since.take() {
            let idle = now.saturating_sub(since);
            if idle > IDLE_EPSILON_NS {
                sink.push(
                    "work-conservation",
                    format!(
                        "dev {dev}: idle for {idle} ns from t={since} with {} dispatchable \
                         request(s) queued",
                        d.pending
                    ),
                );
            }
        }
    };
    let mut last_t = 0u64;
    for e in &trace.events {
        last_t = last_t.max(e.t);
        if e.kind == TraceKind::CfgSched {
            sched_kind.insert(e.dev, e.a);
            continue;
        }
        // Work conservation only holds for schedulers that always hand
        // out work when asked (none, mq-deadline); BFQ idles on purpose
        // (anticipation) and Kyber throttles by depth.
        if !matches!(sched_kind.get(&e.dev), Some(0 | 1)) {
            continue;
        }
        let d = devs.entry(e.dev).or_default();
        let was_starved = d.starved();
        match e.kind {
            TraceKind::SchedEnqueue => d.pending += 1,
            TraceKind::SchedDispatch => d.pending -= 1,
            TraceKind::DeviceStart => d.in_service += 1,
            TraceKind::DeviceComplete | TraceKind::DeviceError | TraceKind::DeviceAbort => {
                d.in_service -= 1;
            }
            TraceKind::DeviceReset => {
                // Everything in flight bounced back to the scheduler
                // (their re-enqueue events follow); the device is
                // offline until its restart event.
                d.in_service = 0;
                d.offline = true;
            }
            TraceKind::DeviceRestart => d.offline = false,
            _ => {}
        }
        match (was_starved, d.starved()) {
            (false, true) => d.starved_since = Some(e.t),
            (true, false) => close(e.dev, d, e.t, sink),
            _ => {}
        }
    }
    let mut open: Vec<_> = devs.iter_mut().map(|(&dev, d)| (dev, d)).collect();
    open.sort_unstable_by_key(|&(dev, _)| dev);
    for (dev, d) in open {
        close(dev, d, last_t, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind, req: u64, a: u64, b: u64) -> TraceEvent {
        TraceEvent::new(t, kind, req, 0, 0, a, b)
    }

    /// A minimal well-formed single-request trace on a `none` scheduler.
    fn good_trace() -> Trace {
        Trace {
            events: vec![
                ev(0, TraceKind::CfgDevice, 0, 64, 8),
                ev(0, TraceKind::CfgSched, 0, 0, 0),
                ev(100, TraceKind::Submit, 7, 4096, 0),
                ev(110, TraceKind::SchedEnqueue, 7, 1, 0),
                ev(120, TraceKind::SchedDispatch, 7, 1, 0),
                ev(130, TraceKind::DeviceStart, 7, 4096, 0),
                ev(200, TraceKind::DeviceComplete, 7, 4096, 0),
                ev(210, TraceKind::Complete, 7, 110, 0),
                ev(1000, TraceKind::RunEnd, 0, 0, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn clean_trace_passes_all_checks() {
        let r = check(&good_trace());
        assert!(r.is_ok(), "violations: {:?}", r.violations);
        assert!(!r.partial);
        assert!(r.lossless);
        assert!(r.checks.contains(&"fifo-within-class"));
    }

    #[test]
    fn lossy_trace_gates_counting_checks_off() {
        let mut t = good_trace();
        t.dropped = 5;
        // Make the retained window violate a counting invariant: a
        // dispatch with no enqueue would be a false positive here.
        t.events.retain(|e| e.kind != TraceKind::SchedEnqueue);
        let r = check(&t);
        assert!(
            r.is_ok(),
            "gated checker must not false-fail: {:?}",
            r.violations
        );
        assert!(!r.checks.contains(&"request-spans"));
        assert!(!r.lossless);
    }

    #[test]
    fn backwards_time_is_flagged() {
        let mut t = good_trace();
        t.events[4].t = 90; // dispatch before its enqueue's timestamp
        let r = check(&t);
        assert!(r.violations.iter().any(|v| v.invariant == "time-monotonic"));
    }

    #[test]
    fn fifo_violation_is_flagged() {
        let mut t = good_trace();
        // Second request enqueued first but dispatched second-hand.
        t.events.splice(
            3..3,
            [
                ev(105, TraceKind::Submit, 8, 4096, 0),
                ev(106, TraceKind::SchedEnqueue, 8, 1, 0),
            ],
        );
        // Now req 7 enqueues at 110 and dispatches at 120 ahead of req 8.
        let r = check(&t);
        assert!(
            r.violations
                .iter()
                .any(|v| v.invariant == "fifo-within-class"),
            "violations: {:?}",
            r.violations
        );
    }

    #[test]
    fn double_terminal_and_orphan_are_flagged() {
        let mut t = good_trace();
        t.events.insert(8, ev(220, TraceKind::Complete, 7, 110, 0));
        t.events.insert(2, ev(90, TraceKind::SchedEnqueue, 9, 1, 0));
        let r = check(&t);
        let spans: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.invariant == "request-spans")
            .collect();
        assert_eq!(spans.len(), 2, "violations: {:?}", r.violations);
    }

    #[test]
    fn vtime_regression_is_flagged() {
        let mut t = good_trace();
        t.events
            .insert(3, ev(101, TraceKind::VtimeAdvance, 7, 2.0f64.to_bits(), 0));
        t.events
            .insert(4, ev(102, TraceKind::VtimeAdvance, 7, 1.0f64.to_bits(), 0));
        let r = check(&t);
        assert!(r
            .violations
            .iter()
            .any(|v| v.invariant == "vtime-monotonic"));
    }

    #[test]
    fn iomax_overdraw_is_flagged() {
        // 1000 IOPS read limit: burst is max(0.05*1000, 1) = 50 tokens.
        // 60 back-to-back reads at t=0 overdraw by ~10.
        let mut events = vec![ev(0, TraceKind::CfgIoMax, 2, 1000, 0)];
        for i in 0..60 {
            events.push(ev(1, TraceKind::Submit, i, 4096, 0));
            events.push(ev(1, TraceKind::IoMaxPass, i, 4096, 0));
        }
        events.push(ev(10, TraceKind::RunEnd, 0, 0, 0));
        let t = Trace { events, dropped: 0 };
        let r = check(&t);
        assert!(
            r.violations.iter().any(|v| v.invariant == "iomax-budget"),
            "violations: {:?}",
            r.violations
        );
    }

    #[test]
    fn iomax_within_budget_passes() {
        // 1000 IOPS: 50-token burst, then 1 token per ms. 50 at t=0 and
        // one more per ms stays exactly at the boundary.
        let mut events = vec![ev(0, TraceKind::CfgIoMax, 2, 1000, 0)];
        for i in 0..50 {
            events.push(ev(0, TraceKind::Submit, i, 4096, 0));
            events.push(ev(0, TraceKind::IoMaxPass, i, 4096, 0));
        }
        for i in 0..20u64 {
            let t = (i + 1) * 1_000_000;
            events.push(ev(t, TraceKind::Submit, 50 + i, 4096, 0));
            events.push(ev(t, TraceKind::IoMaxPass, 50 + i, 4096, 0));
        }
        events.push(ev(100_000_000, TraceKind::RunEnd, 0, 0, 0));
        let t = Trace { events, dropped: 0 };
        let r = check(&t);
        assert!(r.is_ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn iomax_oversized_passes_charge_then_wait() {
        // 1 MiB/s read limit: a 256 KiB burst, so a 1 MiB read may pass
        // only with a full bucket and leaves 768 KiB of debt. Passes 1 s
        // apart repay it exactly; one at 0.5 s overdraws.
        let mib = 1u64 << 20;
        let trace = |times: &[u64]| {
            let mut events = vec![ev(0, TraceKind::CfgIoMax, 0, mib, 0)];
            for (i, &t) in (0u64..).zip(times) {
                events.push(ev(t, TraceKind::Submit, i, mib, 0));
                events.push(ev(t, TraceKind::IoMaxPass, i, mib, 0));
            }
            events.push(ev(10_000_000_000, TraceKind::RunEnd, 0, 0, 0));
            check(&Trace { events, dropped: 0 })
        };
        let paced = trace(&[0, 1_000_000_000, 2_000_000_000]);
        assert!(paced.is_ok(), "violations: {:?}", paced.violations);
        let hasty = trace(&[0, 500_000_000]);
        assert!(
            hasty
                .violations
                .iter()
                .any(|v| v.invariant == "iomax-budget"),
            "violations: {:?}",
            hasty.violations
        );
    }

    #[test]
    fn work_conservation_violation_is_flagged() {
        let t = Trace {
            events: vec![
                ev(0, TraceKind::CfgSched, 0, 1, 0),
                ev(100, TraceKind::Submit, 1, 4096, 0),
                ev(110, TraceKind::SchedEnqueue, 1, 1, 0),
                // Nothing dispatches for a full millisecond.
                ev(1_110_000, TraceKind::SchedDispatch, 1, 1, 0),
                ev(1_110_100, TraceKind::DeviceStart, 1, 4096, 0),
                ev(1_200_000, TraceKind::DeviceComplete, 1, 4096, 0),
                ev(1_210_000, TraceKind::Complete, 1, 4096, 0),
                ev(2_000_000, TraceKind::RunEnd, 0, 0, 0),
            ],
            dropped: 0,
        };
        let r = check(&t);
        assert!(
            r.violations
                .iter()
                .any(|v| v.invariant == "work-conservation"),
            "violations: {:?}",
            r.violations
        );
    }

    #[test]
    fn reset_window_is_not_starvation() {
        let t = Trace {
            events: vec![
                ev(0, TraceKind::CfgSched, 0, 1, 0),
                ev(100, TraceKind::Submit, 1, 4096, 0),
                ev(110, TraceKind::SchedEnqueue, 1, 1, 0),
                ev(120, TraceKind::DeviceReset, 0, 1, 2_000_000),
                // Offline for 2 ms; requeue + dispatch after restart.
                ev(2_000_120, TraceKind::DeviceRestart, 0, 0, 0),
                ev(2_000_130, TraceKind::SchedDispatch, 1, 1, 0),
                ev(2_000_140, TraceKind::DeviceStart, 1, 4096, 0),
                ev(2_100_000, TraceKind::DeviceComplete, 1, 4096, 0),
                ev(2_110_000, TraceKind::Complete, 1, 4096, 0),
                ev(3_000_000, TraceKind::RunEnd, 0, 0, 0),
            ],
            dropped: 0,
        };
        let r = check(&t);
        assert!(r.is_ok(), "violations: {:?}", r.violations);
    }
}
