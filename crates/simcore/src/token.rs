//! Token-bucket rate limiting, the primitive behind `io.max` and fio-style
//! per-job rate caps.

use crate::{SimDuration, SimTime};

/// A token bucket replenished continuously at a fixed rate.
///
/// The bucket starts full. [`TokenBucket::try_take`] either consumes the
/// requested tokens or reports the earliest instant at which they will be
/// available, which is exactly the shape a discrete-event simulator wants
/// (schedule a retry at that instant).
///
/// # Example
///
/// ```
/// use simcore::{TokenBucket, SimTime};
///
/// // 1000 tokens/second, burst capacity 10.
/// let mut tb = TokenBucket::new(1000.0, 10.0);
/// let now = SimTime::ZERO;
/// assert!(tb.try_take(10.0, now).is_ok());       // burst drains the bucket
/// let when = tb.try_take(1.0, now).unwrap_err(); // next token in 1 ms
/// assert_eq!(when.as_nanos(), 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Tokens per second.
    rate: f64,
    /// Maximum stored tokens (burst size).
    capacity: f64,
    level: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that refills at `rate` tokens per second with burst
    /// capacity `capacity`, starting full.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0` or `capacity <= 0` or either is not finite.
    #[must_use]
    pub fn new(rate: f64, capacity: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        TokenBucket {
            rate,
            capacity,
            level: capacity,
            last: SimTime::ZERO,
        }
    }

    /// The refill rate, in tokens per second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Changes the refill rate (used when knob values are rewritten at
    /// runtime). Accrued tokens are settled at the old rate first.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn set_rate(&mut self, rate: f64, now: SimTime) {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.refill(now);
        self.rate = rate;
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.level = (self.level + dt * self.rate).min(self.capacity);
            self.last = now;
        }
    }

    /// Current token level after settling refill up to `now`.
    pub fn level(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.level
    }

    /// Attempts to take `n` tokens at instant `now`.
    ///
    /// # Errors
    ///
    /// Returns `Err(t)` with the earliest instant `t` at which `n` tokens
    /// will be available (tokens are *not* consumed in that case).
    pub fn try_take(&mut self, n: f64, now: SimTime) -> Result<(), SimTime> {
        self.refill(now);
        if self.level + 1e-9 >= n {
            self.level -= n;
            Ok(())
        } else {
            let deficit = n - self.level;
            let wait_s = deficit / self.rate;
            Err(now + SimDuration::from_secs_f64(wait_s))
        }
    }

    /// Unconditionally consumes `n` tokens, allowing the level to go
    /// negative (debt). Used for the kernel-style "charge then wait"
    /// accounting of blk-throttle with oversized requests.
    pub fn take_debt(&mut self, n: f64, now: SimTime) {
        self.refill(now);
        self.level -= n;
    }

    /// The level refill would settle at `now` (read-only). Non-decreasing
    /// in `now`: constant up to `last`, then a rounded sum of a
    /// non-negative term, capped.
    fn level_at(&self, now: SimTime) -> f64 {
        if now > self.last {
            (self.level + (now - self.last).as_secs_f64() * self.rate).min(self.capacity)
        } else {
            self.level
        }
    }

    /// Earliest instant at which the bucket will hold `n` tokens.
    /// Read-only: does not settle the refill state.
    #[must_use]
    pub fn available_at(&self, n: f64, now: SimTime) -> SimTime {
        let level = self.level_at(now);
        if level + 1e-9 >= n {
            now
        } else {
            now + SimDuration::from_secs_f64((n - level) / self.rate)
        }
    }

    /// Whether `available_at(n, now) <= now`, without forming the
    /// instant. A step function of `now` (false, then true for good),
    /// since the level is non-decreasing in `now`.
    #[must_use]
    pub fn ready(&self, n: f64, now: SimTime) -> bool {
        let level = self.level_at(now);
        level + 1e-9 >= n || SimDuration::from_secs_f64((n - level) / self.rate).is_zero()
    }

    /// The least instant at which [`TokenBucket::ready`] holds for `n`
    /// tokens, or `None` if it never does (`n` beyond the capacity). Exact:
    /// found with the predicate itself, so `ready(n, t) ⇔ t ≥ ready_from(n)`
    /// for every `t` while the bucket is untouched.
    #[must_use]
    pub fn ready_from(&self, n: f64, now: SimTime) -> Option<SimTime> {
        let level = self.level_at(now);
        let guess = if level + 1e-9 >= n {
            now
        } else {
            let wait = SimDuration::from_secs_f64((n - level) / self.rate);
            now.checked_add(wait).unwrap_or(SimTime::MAX)
        };
        SimTime::first_where(guess, |t| self.ready(n, t))
    }

    /// Whether `available_at(n, t)` is one and the same instant for every
    /// `t` from `now` until `n` tokens are ready, while the bucket is
    /// untouched. `false` when the rounding bound below cannot show it
    /// (the caller then recomputes per instant).
    ///
    /// In exact arithmetic `t + (n − level(t)) / rate` is the constant
    /// `X = last + (n − level) / rate` (in ns); in floating point the wait
    /// `y(t)` computed from `Δ = t − last` carries an error `e(t)` and
    /// `available_at = last + round(X + e(t))` (Δ is an integer and
    /// `y ≥ 0`, so rounding commutes with adding it). Six rounded
    /// operations (÷1e9, ×rate, +level, n−, ÷rate, ×1e9), each with
    /// relative error `u = 2⁻⁵³`, over operands bounded by
    /// `M = |n| + |level|` (uncapped and not ready: `level ≤ level(t) <
    /// n`, refill `< M`) give `|e(t)| ≤ 7.1·u·M·1e9/rate < E = 8·u·M·1e9/rate`.
    /// From `z = fl(y(now) + Δ(now))`, `|X + e(t) − z| ≤ 2E + 1.01·u·|z|`;
    /// if `z` is farther than twice that from every half-integer, every
    /// `round(X + e(t))` equals `round(X + e(now))`. Once the level caps,
    /// the wait stops tracking `t`, hence `n ≤ capacity` is required; and
    /// below `last` the level is frozen, hence `now ≥ last`.
    #[must_use]
    pub fn wait_is_steady(&self, n: f64, now: SimTime) -> bool {
        if n > self.capacity || now < self.last {
            return false;
        }
        let dt = (now - self.last).as_nanos();
        if dt >= 1 << 52 {
            return false;
        }
        let u = f64::EPSILON / 2.0;
        let y = (n - self.level_at(now)) / self.rate * 1e9;
        let z = y + dt as f64;
        if !(z.is_finite() && z.abs() < (1u64 << 52) as f64) {
            return false;
        }
        let e = 8.0 * u * (n.abs() + self.level.abs()) * 1e9 / self.rate;
        let bound = 2.0 * e + 1.01 * u * z.abs();
        ((z - z.floor()) - 0.5).abs() > 2.0 * bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_allows_burst() {
        let mut tb = TokenBucket::new(100.0, 50.0);
        assert!(tb.try_take(50.0, SimTime::ZERO).is_ok());
        assert!(tb.try_take(0.0, SimTime::ZERO).is_ok());
    }

    #[test]
    fn refills_over_time() {
        let mut tb = TokenBucket::new(1000.0, 10.0);
        assert!(tb.try_take(10.0, SimTime::ZERO).is_ok());
        // After 5 ms, 5 tokens have accrued.
        let t = SimTime::from_millis(5);
        assert!(tb.try_take(5.0, t).is_ok());
        assert!(tb.try_take(1.0, t).is_err());
    }

    #[test]
    fn wait_time_is_exact() {
        let mut tb = TokenBucket::new(1000.0, 10.0);
        tb.try_take(10.0, SimTime::ZERO).unwrap();
        let err = tb.try_take(2.0, SimTime::ZERO).unwrap_err();
        assert_eq!(err.as_nanos(), 2_000_000); // 2 tokens at 1000/s = 2 ms
    }

    #[test]
    fn capacity_caps_accrual() {
        let mut tb = TokenBucket::new(1000.0, 10.0);
        tb.try_take(10.0, SimTime::ZERO).unwrap();
        let much_later = SimTime::from_secs(100);
        assert!((tb.level(much_later) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn debt_goes_negative_and_recovers() {
        let mut tb = TokenBucket::new(1000.0, 10.0);
        tb.take_debt(20.0, SimTime::ZERO); // level = -10
        let avail = tb.available_at(1.0, SimTime::ZERO);
        // Needs 11 tokens at 1000/s = 11 ms.
        assert_eq!(avail.as_nanos(), 11_000_000);
    }

    #[test]
    fn set_rate_settles_first() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        tb.try_take(100.0, SimTime::ZERO).unwrap();
        let t = SimTime::from_millis(10); // 10 tokens accrued at old rate
        tb.set_rate(1.0, t);
        assert!(tb.try_take(10.0, t).is_ok());
        assert!(tb.try_take(1.0, t).is_err());
    }

    /// A bucket in a random state: rate and burst like `io.max`'s (byte
    /// and IOPS buckets), drained by a random debt at a random instant.
    fn random_bucket(rng: &mut proptest::TestRng) -> (TokenBucket, f64, SimTime) {
        let (rate, cap) = if rng.below(2) == 0 {
            let rate = 1.0 + rng.below(4 << 30) as f64;
            (rate, (rate * 0.05).max(256.0 * 1024.0))
        } else {
            let rate = 1.0 + rng.below(2_000_000) as f64;
            (rate, (rate * 0.05).max(1.0))
        };
        let mut tb = TokenBucket::new(rate, cap);
        let at = SimTime::from_nanos(rng.below(1 << 40));
        tb.take_debt(cap * rng.f64() * 1.5, at);
        let n = if rate < 2_000_001.0 && cap < 256.0 * 1024.0 {
            1.0
        } else {
            (512 * (1 + rng.below(2048))) as f64
        };
        let now = at + SimDuration::from_nanos(rng.below(3) * rng.below(1 << 20));
        (tb, n, now)
    }

    #[test]
    fn ready_from_is_the_exact_step_of_ready() {
        let mut rng = proptest::TestRng::from_seed(5);
        for _ in 0..20_000 {
            let (tb, n, now) = random_bucket(&mut rng);
            match tb.ready_from(n, now) {
                Some(t) => {
                    assert!(tb.ready(n, t), "{tb:?} n {n}");
                    assert!(t == SimTime::ZERO || !tb.ready(n, t - SimDuration::from_nanos(1)));
                    assert!(tb.available_at(n, t) <= t);
                }
                None => assert!(n > tb.capacity),
            }
        }
    }

    #[test]
    fn steady_waits_hold_until_ready() {
        // Wherever `wait_is_steady` vouches, every instant up to the
        // ready step (dense near both ends, sampled between) yields the
        // same `available_at` as `now`.
        let mut rng = proptest::TestRng::from_seed(9);
        let mut vouched = 0;
        for _ in 0..4_000 {
            let (tb, n, now) = random_bucket(&mut rng);
            if !tb.wait_is_steady(n, now) {
                continue;
            }
            vouched += 1;
            let end = tb.ready_from(n, now).expect("n within capacity");
            let want = tb.available_at(n, now);
            let span = end.as_nanos().saturating_sub(now.as_nanos());
            let probes = (0..span.min(300))
                .chain((0..span.min(300)).map(|k| span - 1 - k))
                .chain((0..300).map(|_| rng.below(span.max(1))));
            for k in probes.filter(|&k| k < span) {
                let t = now + SimDuration::from_nanos(k);
                assert_eq!(tb.available_at(n, t), want, "{tb:?} n {n} at {t:?}");
            }
        }
        assert!(vouched > 3_000, "only {vouched} states vouched for");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0.0, 1.0);
    }
}
