//! Process-global engine profiling counters.
//!
//! Every [`crate::HostSim::run`] accumulates its event-loop totals into
//! these counters when it finishes (one atomic update per run, so the
//! per-event hot path stays free of shared-memory traffic). The
//! `figures --profile` harness snapshots them around each experiment to
//! report event counts, pop rates, and peak pending events.
//!
//! With concurrent runs (`--jobs > 1`) the deltas of overlapping
//! experiments mix; profile with `--jobs 1` for clean attribution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static EVENTS_POPPED: AtomicU64 = AtomicU64::new(0);
static RUNS: AtomicU64 = AtomicU64::new(0);
static PEAK_PENDING: AtomicU64 = AtomicU64::new(0);
static IO_TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static IO_RETRIES: AtomicU64 = AtomicU64::new(0);
static IO_FAILED: AtomicU64 = AtomicU64::new(0);
static CANCELLED_RUNS: AtomicU64 = AtomicU64::new(0);
static SHARDED_RUNS: AtomicU64 = AtomicU64::new(0);
/// Per-shard events processed during the most recent sharded run.
static SHARD_EVENTS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// A snapshot of the global engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped off simulation queues, over all finished runs.
    pub events_popped: u64,
    /// Simulation runs finished.
    pub runs: u64,
    /// Largest pending-event count seen in any single run since the
    /// last [`reset_peak`].
    pub peak_pending: u64,
    /// Commands aborted on deadline expiry (host recovery path), over
    /// all finished runs. Zero unless fault injection was enabled.
    pub io_timeouts: u64,
    /// Device attempts re-driven by the host retry path.
    pub io_retries: u64,
    /// Requests failed back to apps after exhausting retries.
    pub io_failed: u64,
    /// Event loops that stopped early on a cooperative cancellation
    /// token (watchdog soft deadline, wall-clock/event budget). Sharded
    /// runs count once per cancelled component loop.
    pub cancelled_runs: u64,
    /// Scenario runs that executed on more than one shard.
    pub sharded_runs: u64,
    /// High-water mark of concurrently active wake-tournament leaves
    /// (apps with at least one pending wake) over all sequential runs.
    pub tourney_active_hwm: u64,
    /// Provisioned wake-tournament leaves (total apps) in the largest
    /// sequential run; `1 - tourney_active_hwm / tourney_leaves` is the
    /// suppressed-tenant ratio — the fraction of tenants the engine
    /// never paid per-event cost for.
    pub tourney_leaves: u64,
}

/// Reads the current counter values.
#[must_use]
pub fn snapshot() -> EngineStats {
    EngineStats {
        events_popped: EVENTS_POPPED.load(Ordering::Relaxed),
        runs: RUNS.load(Ordering::Relaxed),
        peak_pending: PEAK_PENDING.load(Ordering::Relaxed),
        io_timeouts: IO_TIMEOUTS.load(Ordering::Relaxed),
        io_retries: IO_RETRIES.load(Ordering::Relaxed),
        io_failed: IO_FAILED.load(Ordering::Relaxed),
        cancelled_runs: CANCELLED_RUNS.load(Ordering::Relaxed),
        sharded_runs: SHARDED_RUNS.load(Ordering::Relaxed),
        tourney_active_hwm: TOURNEY_ACTIVE_HWM.load(Ordering::Relaxed),
        tourney_leaves: TOURNEY_LEAVES.load(Ordering::Relaxed),
    }
}

/// Per-shard events-processed counts from the most recent sharded run
/// (empty until a sharded run finishes).
#[must_use]
pub fn shard_events() -> Vec<u64> {
    SHARD_EVENTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Resets the peak-pending high-water mark (the cumulative counters are
/// monotonic; profilers attribute them by delta instead).
pub fn reset_peak() {
    PEAK_PENDING.store(0, Ordering::Relaxed);
}

/// Counts one event loop stopped early by cooperative cancellation.
pub(crate) fn record_cancelled() {
    CANCELLED_RUNS.fetch_add(1, Ordering::Relaxed);
}

// --- per-subsystem time attribution ---

/// Display names for the per-subsystem attribution buckets, indexed by
/// the `SS_*` constants. `figures --profile` reports these in
/// `profile.json`.
pub const SUBSYS_NAMES: [&str; 5] = ["arrival-gen", "qos", "scheduler", "device", "stats"];

/// Arrival generation: drawing `(op, pattern, offset)` tuples.
pub(crate) const SS_ARRIVAL: usize = 0;
/// QoS chain work: submit, drain, and pump ticks.
pub(crate) const SS_QOS: usize = 1;
/// I/O scheduler work: insert and dispatch.
pub(crate) const SS_SCHED: usize = 2;
/// Device model work: starting and accepting service.
pub(crate) const SS_DEVICE: usize = 3;
/// Completion-side statistics recording (histograms, series, stages).
pub(crate) const SS_STATS: usize = 4;

static SUBSYS_TIMING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SUBSYS_NS: [AtomicU64; 5] = [ZERO; 5];
static SUBSYS_N: [AtomicU64; 5] = [ZERO; 5];
/// High-water mark of concurrently active tournament leaves (apps with a
/// pending wake), maxed over finished sequential runs.
static TOURNEY_ACTIVE_HWM: AtomicU64 = AtomicU64::new(0);
/// Provisioned tournament leaves (total apps), maxed over finished
/// sequential runs; `1 - hwm/leaves` is the suppressed-tenant ratio.
static TOURNEY_LEAVES: AtomicU64 = AtomicU64::new(0);

/// Enables wall-clock attribution of event-loop work to the five
/// subsystem buckets in [`SUBSYS_NAMES`]. Costs two `Instant` reads per
/// instrumented section, so it stays off outside `--profile` runs.
pub fn set_subsystem_timing(on: bool) {
    SUBSYS_TIMING.store(on, Ordering::Relaxed);
}

#[must_use]
pub(crate) fn subsystem_timing_enabled() -> bool {
    SUBSYS_TIMING.load(Ordering::Relaxed)
}

pub(crate) fn add_subsys(idx: usize, ns: u64) {
    SUBSYS_NS[idx].fetch_add(ns, Ordering::Relaxed);
    SUBSYS_N[idx].fetch_add(1, Ordering::Relaxed);
}

/// Per-bucket `(total ns, call count)` pairs, indexed like
/// [`SUBSYS_NAMES`]. All zero unless [`set_subsystem_timing`] was on
/// during a run.
#[must_use]
pub fn subsys_snapshot() -> [(u64, u64); 5] {
    let mut out = [(0, 0); 5];
    for (slot, (ns, n)) in out.iter_mut().zip(SUBSYS_NS.iter().zip(&SUBSYS_N)) {
        *slot = (ns.load(Ordering::Relaxed), n.load(Ordering::Relaxed));
    }
    out
}

/// Folds one sequential run's tournament occupancy into the globals.
pub(crate) fn record_tourney(active_hwm: u64, leaves: u64) {
    TOURNEY_ACTIVE_HWM.fetch_max(active_hwm, Ordering::Relaxed);
    TOURNEY_LEAVES.fetch_max(leaves, Ordering::Relaxed);
}

/// Folds one finished run's totals into the global counters.
pub(crate) fn record_run(events_popped: u64, peak_pending: u64) {
    EVENTS_POPPED.fetch_add(events_popped, Ordering::Relaxed);
    RUNS.fetch_add(1, Ordering::Relaxed);
    PEAK_PENDING.fetch_max(peak_pending, Ordering::Relaxed);
}

/// Counts one finished sharded run and publishes its per-shard event
/// counts.
pub(crate) fn record_sharded(per_shard: Vec<u64>) {
    SHARDED_RUNS.fetch_add(1, Ordering::Relaxed);
    *SHARD_EVENTS.lock().unwrap_or_else(|e| e.into_inner()) = per_shard;
}

/// Folds one finished run's recovery-path totals into the global
/// counters (skipped entirely when all are zero, the fault-free case).
pub(crate) fn record_faults(timeouts: u64, retries: u64, failed: u64) {
    if timeouts == 0 && retries == 0 && failed == 0 {
        return;
    }
    IO_TIMEOUTS.fetch_add(timeouts, Ordering::Relaxed);
    IO_RETRIES.fetch_add(retries, Ordering::Relaxed);
    IO_FAILED.fetch_add(failed, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_peak_resets() {
        // Other tests in the process also record; assert on deltas.
        let before = snapshot();
        record_run(100, 7);
        record_run(50, 3);
        let after = snapshot();
        assert_eq!(after.events_popped - before.events_popped, 150);
        assert_eq!(after.runs - before.runs, 2);
        assert!(after.peak_pending >= 7);
        reset_peak();
        record_run(1, 2);
        let s = snapshot();
        assert!(s.peak_pending >= 2);
    }
}
