//! Process-global engine counters.
//!
//! Every [`crate::HostSim::run`] folds its event-loop totals into these
//! counters when it finishes (one atomic update per run, so the
//! per-event hot path stays free of shared-memory traffic). perfbench
//! snapshots them around each traced cell to report events per I/O,
//! peak pending events and wake-tournament occupancy; perfsnap reads
//! events per run the same way.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_POPPED: AtomicU64 = AtomicU64::new(0);
static PEAK_PENDING: AtomicU64 = AtomicU64::new(0);
/// High-water mark of concurrently active tournament leaves (apps with a
/// pending wake), maxed over finished sequential runs.
static TOURNEY_ACTIVE_HWM: AtomicU64 = AtomicU64::new(0);
/// Provisioned tournament leaves (total apps), maxed over finished
/// sequential runs; `1 - hwm/leaves` is the suppressed-tenant ratio.
static TOURNEY_LEAVES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the global engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped off simulation queues, over all finished runs.
    /// Pops only: a completion wake the engine runs inline, without
    /// queueing it, is not counted.
    pub events_popped: u64,
    /// Largest pending-event count seen in any single run since the
    /// last [`reset_peak`].
    pub peak_pending: u64,
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
        peak_pending: PEAK_PENDING.load(Ordering::Relaxed),
        tourney_active_hwm: TOURNEY_ACTIVE_HWM.load(Ordering::Relaxed),
        tourney_leaves: TOURNEY_LEAVES.load(Ordering::Relaxed),
    }
}

/// Resets the peak-pending high-water mark (the cumulative counters are
/// monotonic; readers attribute them by delta instead).
pub fn reset_peak() {
    PEAK_PENDING.store(0, Ordering::Relaxed);
}

/// Folds one sequential run's tournament occupancy into the globals.
pub(crate) fn record_tourney(active_hwm: u64, leaves: u64) {
    TOURNEY_ACTIVE_HWM.fetch_max(active_hwm, Ordering::Relaxed);
    TOURNEY_LEAVES.fetch_max(leaves, Ordering::Relaxed);
}

/// Folds one finished run's totals into the global counters.
pub(crate) fn record_run(events_popped: u64, peak_pending: u64) {
    EVENTS_POPPED.fetch_add(events_popped, Ordering::Relaxed);
    PEAK_PENDING.fetch_max(peak_pending, Ordering::Relaxed);
}
