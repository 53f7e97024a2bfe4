//! Nanosecond-resolution simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a newtype over `u64`; arithmetic with [`SimDuration`] is
/// checked in debug builds via the underlying integer operations.
///
/// # Example
///
/// ```
/// use simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(2);
/// assert_eq!(t.as_nanos(), 2_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(2));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::SimDuration;
/// assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
/// assert_eq!(SimDuration::from_micros(3) * 2, SimDuration::from_micros(6));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration since an earlier instant, saturating to zero if `earlier`
    /// is actually later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The least instant at which `holds` is true, searched outward from
    /// `guess`; `None` if it holds at no instant.
    ///
    /// `holds` must be a step function of time: false up to some instant
    /// and true from it on. The search gallops away from `guess` and then
    /// bisects, so it costs O(log |answer − guess|) calls — two or three
    /// when the guess is within a nanosecond or so.
    pub fn first_where(guess: SimTime, holds: impl Fn(SimTime) -> bool) -> Option<SimTime> {
        // Invariant once bracketed: `holds(lo)` is false, `holds(hi)` true.
        let (mut lo, mut hi);
        let mut step = 1u64;
        if holds(guess) {
            hi = guess.0;
            loop {
                if hi == 0 {
                    return Some(SimTime::ZERO);
                }
                let probe = hi.saturating_sub(step);
                if !holds(SimTime(probe)) {
                    lo = probe;
                    break;
                }
                hi = probe;
                step = step.saturating_mul(2);
            }
        } else {
            lo = guess.0;
            loop {
                let probe = lo.saturating_add(step);
                if probe == lo {
                    return None;
                }
                if holds(SimTime(probe)) {
                    hi = probe;
                    break;
                }
                lo = probe;
                step = step.saturating_mul(2);
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if holds(SimTime(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(SimTime(hi))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `true` if this duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative float, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "scale must be non-negative");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!((t0 + d) - t0, d);
        assert_eq!((t0 + d) - d, t0);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(late.saturating_since(early).as_nanos(), 4);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_float_conversions() {
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_nanos(), 500_000_000);
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-12);
        assert!((SimDuration::from_micros(1500).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_mul_div() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(25));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_nanos(1)),
            Some(SimTime::from_nanos(1))
        );
    }

    #[test]
    fn first_where_finds_the_step_from_any_guess() {
        for step in [0u64, 1, 2, 7, 1_000, 1 << 40, u64::MAX] {
            for guess in [0u64, 1, 5, 999, 1_001, 1 << 41, u64::MAX] {
                let got = SimTime::first_where(SimTime(guess), |t| t.0 >= step);
                assert_eq!(got, Some(SimTime(step)), "step {step} guess {guess}");
            }
        }
        assert_eq!(SimTime::first_where(SimTime(3), |_| false), None);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
    }
}
