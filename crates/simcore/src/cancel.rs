//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, cloneable handle around a shared atomic
//! flag plus two optional budgets:
//!
//! * a **wall-clock deadline** ([`CancelToken::with_deadline`]) — the
//!   token latches cancelled once `Instant::now()` passes it,
//! * an **event budget** ([`CancelToken::with_event_budget`]) — the
//!   token latches cancelled once [`CancelToken::charge`] has consumed
//!   that many simulation events.
//!
//! Cancellation is *cooperative*: nothing is interrupted. The engine's
//! event loop polls the current token every few thousand pops (see
//! `host_sim`), so a runaway or hung scenario unwinds back to its
//! caller with partial statistics instead of blocking a worker forever.
//!
//! The flag only ever goes one way (not-cancelled → cancelled) and the
//! *first* cause wins: a token cancelled by its deadline stays
//! [`CancelReason::Deadline`] even if [`CancelToken::cancel`] is called
//! later, which is what lets the cell runner distinguish a watchdog
//! timeout from an explicit stop.
//!
//! # Thread-local current token
//!
//! Deep call stacks (cell task → cache → scenario → engine) would need
//! the token threaded through every signature; instead the runner
//! [`install`]s it in the worker's thread-local slot and the engine
//! reads it back with [`cancelled`] / [`charge_current`]. With no token
//! installed every poll is a single TLS read returning `false`, so
//! healthy runs pay essentially nothing and results stay byte-identical
//! by construction — cancellation never alters a run that completes.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token was cancelled (first cause wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (watchdog soft deadline, user
    /// stop, …).
    Explicit,
    /// The wall-clock deadline passed.
    Deadline,
    /// The event budget ran out.
    EventBudget,
}

impl CancelReason {
    /// Stable lower-case token for logs and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::Explicit => "explicit",
            CancelReason::Deadline => "deadline",
            CancelReason::EventBudget => "event_budget",
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// 0 = none, 1 = Explicit, 2 = Deadline, 3 = EventBudget. Written
    /// once via compare-exchange so the first cause wins.
    reason: AtomicU8,
    /// Wall-clock deadline as nanos after `epoch`; `u64::MAX` = none.
    deadline_nanos: AtomicU64,
    /// Remaining event budget; `u64::MAX` = unlimited.
    events_left: AtomicU64,
    epoch: Instant,
}

/// Shared cancellation handle. Clones observe the same flag.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh token with no budgets armed.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU8::new(0),
                deadline_nanos: AtomicU64::new(u64::MAX),
                events_left: AtomicU64::new(u64::MAX),
                epoch: Instant::now(),
            }),
        }
    }

    /// Arms a wall-clock budget: [`poll`](Self::poll) latches the token
    /// cancelled once `budget` has elapsed from *now*.
    #[must_use]
    pub fn with_deadline(self, budget: Duration) -> Self {
        let nanos = u64::try_from(self.inner.epoch.elapsed().as_nanos() + budget.as_nanos())
            .unwrap_or(u64::MAX);
        self.inner.deadline_nanos.store(nanos, Ordering::Relaxed);
        self
    }

    /// Arms an event budget: [`charge`](Self::charge) latches the token
    /// cancelled once `events` simulation events have been consumed.
    #[must_use]
    pub fn with_event_budget(self, events: u64) -> Self {
        self.inner.events_left.store(events, Ordering::Relaxed);
        self
    }

    fn latch(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Explicit => 1,
            CancelReason::Deadline => 2,
            CancelReason::EventBudget => 3,
        };
        // First cause wins; the flag is only raised after the reason is
        // settled so readers never see cancelled-without-reason.
        let _ = self
            .inner
            .reason
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Cancels the token explicitly (idempotent; an earlier cause is
    /// kept).
    pub fn cancel(&self) {
        self.latch(CancelReason::Explicit);
    }

    /// Whether the token is cancelled — flag check only, no budget
    /// evaluation. The cheapest query; use on hot paths between
    /// [`poll`](Self::poll)s.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The first cancellation cause, once cancelled.
    #[must_use]
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.inner.reason.load(Ordering::Relaxed) {
            1 => Some(CancelReason::Explicit),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::EventBudget),
            _ => Some(CancelReason::Explicit),
        }
    }

    /// Evaluates the wall-clock budget and returns the (possibly just
    /// latched) cancelled state.
    pub fn poll(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::Relaxed);
        if deadline != u64::MAX {
            let now = u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if now >= deadline {
                self.latch(CancelReason::Deadline);
                return true;
            }
        }
        false
    }

    /// Consumes `events` from the event budget and evaluates both
    /// budgets; returns the cancelled state. Engines call this every few
    /// thousand pops rather than per event.
    pub fn charge(&self, events: u64) -> bool {
        let left = self.inner.events_left.load(Ordering::Relaxed);
        if left != u64::MAX {
            let remaining = left.saturating_sub(events);
            self.inner.events_left.store(remaining, Ordering::Relaxed);
            if remaining == 0 {
                self.latch(CancelReason::EventBudget);
                return true;
            }
        }
        self.poll()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs `token` as this thread's current token (returned by
/// [`current`] and polled by the engine loop). Replaces any previous
/// token.
pub fn install(token: CancelToken) {
    CURRENT.with(|c| *c.borrow_mut() = Some(token));
}

/// Removes this thread's current token.
pub fn clear() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// This thread's current token, if one is installed (cloning is an
/// `Arc` bump).
#[must_use]
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether this thread's current token is cancelled (flag check only;
/// `false` when no token is installed).
#[must_use]
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Charges `events` against this thread's current token and evaluates
/// its budgets; `false` when no token is installed. The engine's
/// periodic poll point.
pub fn charge_current(events: u64) -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.charge(events)))
}

/// RAII guard installing a token for a scope; restores the previous
/// token (usually none) on drop, panic included.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<CancelToken>,
}

impl InstallGuard {
    /// Installs `token` and remembers what it displaced.
    #[must_use]
    pub fn new(token: CancelToken) -> Self {
        let prev = current();
        install(token);
        InstallGuard { prev }
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        match self.prev.take() {
            Some(t) => install(t),
            None => clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.poll());
        assert!(!t.charge(1_000_000));
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn explicit_cancel_latches_and_clones_share() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::Explicit));
        // Idempotent; first cause kept.
        c.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Explicit));
    }

    #[test]
    fn event_budget_latches_at_zero() {
        let t = CancelToken::new().with_event_budget(100);
        assert!(!t.charge(60));
        assert!(t.charge(60));
        assert_eq!(t.reason(), Some(CancelReason::EventBudget));
    }

    #[test]
    fn zero_deadline_latches_on_poll() {
        let t = CancelToken::new().with_deadline(Duration::ZERO);
        assert!(t.poll());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let t = CancelToken::new().with_deadline(Duration::from_secs(3600));
        assert!(!t.poll());
    }

    #[test]
    fn first_cause_wins() {
        let t = CancelToken::new().with_deadline(Duration::ZERO);
        assert!(t.poll());
        t.cancel();
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn thread_local_install_and_guard() {
        assert!(!cancelled());
        assert!(!charge_current(10));
        let t = CancelToken::new();
        {
            let _g = InstallGuard::new(t.clone());
            assert!(current().is_some());
            assert!(!cancelled());
            t.cancel();
            assert!(cancelled());
            assert!(charge_current(1));
        }
        assert!(current().is_none(), "guard restores the empty slot");
        assert!(!cancelled());
    }

    #[test]
    fn spawned_thread_sees_shared_flag_via_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        let h = std::thread::spawn(move || {
            install(c);
            while !cancelled() {
                std::thread::yield_now();
            }
            true
        });
        t.cancel();
        assert!(h.join().unwrap());
    }
}
