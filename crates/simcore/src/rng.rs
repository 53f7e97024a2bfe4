//! Deterministic random numbers and the distribution samplers used by the
//! device and host models.

/// A seeded, deterministic RNG.
///
/// A self-contained xoshiro256++ generator (the algorithm behind
/// `rand`'s 64-bit `SmallRng`, vendored here so the simulator has zero
/// external dependencies) plus the handful of samplers the simulator
/// needs (uniform, exponential, normal, lognormal, bounded Pareto for
/// latency tails). Two `DetRng`s created from the same seed produce
/// identical streams.
///
/// # Example
///
/// ```
/// use simcore::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into the 256-bit
/// xoshiro state (the same expansion `SeedableRng::seed_from_u64` uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Derives an independent child RNG; useful to give each simulated
    /// component its own stream so adding components does not perturb
    /// others' draws.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(seed)
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits).
    #[allow(clippy::cast_precision_loss)]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`, unbiased (Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Widening-multiply rejection sampling.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = 1.0 - self.f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.f64();
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.std_normal()
    }

    /// Lognormal such that the *median* of the distribution is `median`
    /// and the shape parameter is `sigma` (σ of the underlying normal).
    ///
    /// Device service times use this: a tight body with a multiplicative
    /// tail, which is what NVMe latency distributions look like.
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.std_normal()).exp()
    }
}

/// Bounded Pareto on `[lo, hi]` with tail exponent `alpha`; heavy tails
/// for rare slow events (e.g. GC pauses). The parameter-only powers are
/// computed once; [`BoundedPareto::sample`] then costs one `powf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// `lo^alpha`.
    la: f64,
    /// `hi^alpha`.
    ha: f64,
    /// `-1 / alpha`.
    exp: f64,
}

impl BoundedPareto {
    /// The distribution on `[lo, hi]` with tail exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi <= lo`, or `alpha <= 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo && alpha > 0.0,
            "invalid pareto parameters"
        );
        BoundedPareto {
            la: lo.powf(alpha),
            ha: hi.powf(alpha),
            exp: -1.0 / alpha,
        }
    }

    /// Draws one sample from `rng`.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        let (u, la, ha) = (rng.f64(), self.la, self.ha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(self.exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = DetRng::new(9);
        let mut b = DetRng::new(9);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = DetRng::new(6);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let x = r.range(3, 9);
            assert!((3..9).contains(&x));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DetRng::new(12);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut r = DetRng::new(13);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal_median(50.0, 0.3)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!((median - 50.0).abs() < 2.0, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = DetRng::new(14);
        let pareto = BoundedPareto::new(1.0, 100.0, 1.3);
        for _ in 0..5000 {
            let x = pareto.sample(&mut r);
            assert!((1.0..=100.0 + 1e-9).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn hoisted_pareto_matches_the_per_draw_formula() {
        // The formula before the hoist, powers taken on every draw.
        fn per_draw(r: &mut DetRng, lo: f64, hi: f64, alpha: f64) -> f64 {
            let u = r.f64();
            let la = lo.powf(alpha);
            let ha = hi.powf(alpha);
            (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
        }
        for seed in 0..64 {
            for (lo, hi, alpha) in [(1.5, 6.0, 1.2), (1.5, 3.0, 1.2), (1.0, 100.0, 1.3)] {
                let pareto = BoundedPareto::new(lo, hi, alpha);
                let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
                for _ in 0..500 {
                    let (x, y) = (pareto.sample(&mut a), per_draw(&mut b, lo, hi, alpha));
                    assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(15);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
