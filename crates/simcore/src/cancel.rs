//! A cooperative wall-clock deadline for one cell.
//!
//! The cell runner installs a deadline in the worker thread's
//! thread-local slot for the span of one cell ([`DeadlineGuard`]).
//! The engine's event loop calls [`poll`] every few thousand pops (see
//! `host_sim`) and breaks out once it returns `true`, so a runaway or
//! hung scenario unwinds to its caller with partial statistics instead
//! of blocking a worker forever. Nothing is interrupted: code that
//! never polls runs to completion, and the runner's own [`poll`] after
//! the cell returns still marks it timed out.
//!
//! The deadline never leaves its thread, so there is no shared flag:
//! [`poll`] compares the clock with the installed deadline. `Instant` is
//! monotonic, so once [`poll`] has returned `true` it keeps returning
//! `true` until the guard drops. With no deadline installed every poll
//! is a single TLS read returning `false`, so healthy runs pay
//! essentially nothing and results stay byte-identical by construction:
//! a deadline never alters a run that completes.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Whether this thread's installed deadline has passed; `false` when no
/// deadline is installed. The engine's periodic poll point.
#[must_use]
pub fn poll() -> bool {
    DEADLINE.get().is_some_and(|d| Instant::now() >= d)
}

/// RAII guard installing a deadline for a scope; restores the previous
/// deadline (usually none) on drop, panic included.
#[derive(Debug)]
#[must_use = "the deadline is removed when the guard drops"]
pub struct DeadlineGuard {
    prev: Option<Instant>,
}

impl DeadlineGuard {
    /// Installs a deadline `budget` from now (`None`, or a budget past
    /// the clock's range, installs none) and remembers what it
    /// displaced.
    pub fn new(budget: Option<Duration>) -> Self {
        let deadline = budget.and_then(|b| Instant::now().checked_add(b));
        DeadlineGuard {
            prev: DEADLINE.replace(deadline),
        }
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.set(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_never_fires() {
        assert!(!poll());
        let _g = DeadlineGuard::new(None);
        assert!(!poll());
    }

    #[test]
    fn zero_deadline_fires_and_stays_fired() {
        let _g = DeadlineGuard::new(Some(Duration::ZERO));
        assert!(poll());
        assert!(poll(), "a passed deadline stays passed");
    }

    #[test]
    fn far_deadline_does_not_fire() {
        let _g = DeadlineGuard::new(Some(Duration::from_secs(3600)));
        assert!(!poll());
    }

    #[test]
    fn guard_restores_the_previous_deadline() {
        {
            let _outer = DeadlineGuard::new(Some(Duration::from_secs(3600)));
            {
                let _inner = DeadlineGuard::new(Some(Duration::ZERO));
                assert!(poll());
            }
            assert!(!poll(), "inner guard restores the far deadline");
        }
        assert!(!poll(), "outer guard restores the empty slot");
        let unwound = std::panic::catch_unwind(|| {
            let _g = DeadlineGuard::new(Some(Duration::ZERO));
            panic!("unwinds through the guard (cancel test)");
        });
        assert!(unwound.is_err());
        assert!(!poll(), "a panic still restores the empty slot");
    }
}
