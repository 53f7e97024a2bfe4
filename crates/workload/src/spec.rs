//! fio-style job specifications and the paper's app-class presets.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

use crate::IoEngine;

/// What mix of operations a job issues, mirroring fio's `--rw` values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RwKind {
    /// Uniformly random reads (`randread`).
    RandRead,
    /// Sequential reads (`read`).
    SeqRead,
    /// Uniformly random writes (`randwrite`).
    RandWrite,
    /// Sequential writes (`write`).
    SeqWrite,
    /// Random mixed read/write (`randrw`) with the given read fraction in
    /// `[0, 1]`.
    RandRw {
        /// Fraction of operations that are reads.
        read_frac: f64,
    },
    /// Zipf-skewed random reads (fio `--random_distribution=zipf`):
    /// a small set of hot blocks absorbs most accesses.
    ZipfRead {
        /// Zipf exponent θ (> 0); fio's common default is 1.1.
        theta: f64,
    },
}

impl RwKind {
    /// `true` if the mix can issue writes.
    #[must_use]
    pub fn has_writes(self) -> bool {
        match self {
            RwKind::RandRead | RwKind::SeqRead | RwKind::ZipfRead { .. } => false,
            RwKind::RandWrite | RwKind::SeqWrite => true,
            RwKind::RandRw { read_frac } => read_frac < 1.0,
        }
    }

    /// `true` if offsets are sequential.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, RwKind::SeqRead | RwKind::SeqWrite)
    }
}

/// An on/off duty cycle for bursty apps (D4).
///
/// While a job is within its `[start, stop)` window, the burst pattern
/// further gates activity: `on` time issuing I/O, then `off` time silent,
/// repeating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurstPattern {
    /// Duration of each active phase.
    pub on: SimDuration,
    /// Duration of each idle phase.
    pub off: SimDuration,
}

impl BurstPattern {
    /// `true` if the pattern is in an active phase at `elapsed` time since
    /// the job started.
    #[must_use]
    pub fn is_on(&self, elapsed: SimDuration) -> bool {
        let period = self.on + self.off;
        if period.is_zero() {
            return true;
        }
        SimDuration::from_nanos(elapsed.as_nanos() % period.as_nanos()) < self.on
    }
}

/// A fio-like job: one app issuing a homogeneous I/O stream.
///
/// Construct with [`JobSpec::builder`] or one of the paper presets
/// ([`JobSpec::lc_app`], [`JobSpec::batch_app`], [`JobSpec::be_app`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    name: String,
    rw: RwKind,
    block_size: u32,
    iodepth: u32,
    rate_bytes_per_sec: Option<f64>,
    start_at: SimTime,
    stop_at: Option<SimTime>,
    burst: Option<BurstPattern>,
    engine: IoEngine,
}

impl JobSpec {
    /// Starts building a job with fio-like defaults: 4 KiB random reads,
    /// QD 1, io_uring, no rate cap, active from t=0 forever.
    #[must_use]
    pub fn builder(name: &str) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec {
                name: name.to_owned(),
                rw: RwKind::RandRead,
                block_size: 4096,
                iodepth: 1,
                rate_bytes_per_sec: None,
                start_at: SimTime::ZERO,
                stop_at: None,
                burst: None,
                engine: IoEngine::IoUring,
            },
        }
    }

    /// The paper's latency-critical app: 4 KiB random reads at QD 1
    /// (stringent P99 requirements, e.g. a cache).
    #[must_use]
    pub fn lc_app(name: &str) -> JobSpec {
        JobSpec::builder(name)
            .rw(RwKind::RandRead)
            .block_size(4096)
            .iodepth(1)
            .build()
    }

    /// The paper's throughput-oriented batch app: 4 KiB random reads at
    /// QD 256 (e.g. AI training reads).
    #[must_use]
    pub fn batch_app(name: &str) -> JobSpec {
        JobSpec::builder(name)
            .rw(RwKind::RandRead)
            .block_size(4096)
            .iodepth(256)
            .build()
    }

    /// The paper's best-effort app: identical shape to a batch app but
    /// with no performance requirements (e.g. archiving).
    #[must_use]
    pub fn be_app(name: &str) -> JobSpec {
        JobSpec::batch_app(name)
    }

    /// Job name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operation mix.
    #[must_use]
    pub fn rw(&self) -> RwKind {
        self.rw
    }

    /// Request size in bytes.
    #[must_use]
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Queue depth (max in-flight requests).
    #[must_use]
    pub fn iodepth(&self) -> u32 {
        self.iodepth
    }

    /// Rate cap in bytes/second, if any.
    #[must_use]
    pub fn rate_bytes_per_sec(&self) -> Option<f64> {
        self.rate_bytes_per_sec
    }

    /// When the job starts issuing.
    #[must_use]
    pub fn start_at(&self) -> SimTime {
        self.start_at
    }

    /// When the job stops issuing (`None` = runs until the simulation
    /// ends).
    #[must_use]
    pub fn stop_at(&self) -> Option<SimTime> {
        self.stop_at
    }

    /// The burst duty cycle, if any.
    #[must_use]
    pub fn burst(&self) -> Option<BurstPattern> {
        self.burst
    }

    /// The submission engine (CPU-cost profile).
    #[must_use]
    pub fn engine(&self) -> IoEngine {
        self.engine
    }

    /// `true` if the job issues I/O at instant `now` (within its window
    /// and, if bursty, in an on-phase).
    #[must_use]
    pub fn is_active(&self, now: SimTime) -> bool {
        if now < self.start_at {
            return false;
        }
        if let Some(stop) = self.stop_at {
            if now >= stop {
                return false;
            }
        }
        match self.burst {
            Some(b) => b.is_on(now.saturating_since(self.start_at)),
            None => true,
        }
    }

    /// The next instant at or after `now` when the job's activity state
    /// may change (start, stop, or burst phase edge); `None` if it never
    /// changes again.
    #[must_use]
    pub fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        if now < self.start_at {
            return Some(self.start_at);
        }
        let stop = self.stop_at.filter(|&stop| now < stop);
        let edge = self.burst.and_then(|b| {
            let period = b.on + b.off;
            if period.is_zero() {
                return None;
            }
            let elapsed = now.saturating_since(self.start_at).as_nanos();
            let in_period = elapsed % period.as_nanos();
            let next_edge = if in_period < b.on.as_nanos() {
                b.on.as_nanos() - in_period
            } else {
                period.as_nanos() - in_period
            };
            Some(now + SimDuration::from_nanos(next_edge.max(1)))
        });
        stop.into_iter().chain(edge).min()
    }
}

/// Builder for [`JobSpec`]; see [`JobSpec::builder`].
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Sets the operation mix.
    #[must_use]
    pub fn rw(mut self, rw: RwKind) -> Self {
        self.spec.rw = rw;
        self
    }

    /// Sets the request size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bs` is zero.
    #[must_use]
    pub fn block_size(mut self, bs: u32) -> Self {
        assert!(bs > 0, "block size must be positive");
        self.spec.block_size = bs;
        self
    }

    /// Sets the queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `qd` is zero.
    #[must_use]
    pub fn iodepth(mut self, qd: u32) -> Self {
        assert!(qd > 0, "iodepth must be positive");
        self.spec.iodepth = qd;
        self
    }

    /// Caps issue rate at `mib_s` MiB/second.
    ///
    /// # Panics
    ///
    /// Panics if `mib_s` is not positive and finite.
    #[must_use]
    pub fn rate_mib_s(mut self, mib_s: f64) -> Self {
        assert!(mib_s.is_finite() && mib_s > 0.0, "rate must be positive");
        self.spec.rate_bytes_per_sec = Some(mib_s * 1024.0 * 1024.0);
        self
    }

    /// Sets the start instant.
    #[must_use]
    pub fn start_at(mut self, t: SimTime) -> Self {
        self.spec.start_at = t;
        self
    }

    /// Sets the stop instant.
    #[must_use]
    pub fn stop_at(mut self, t: SimTime) -> Self {
        self.spec.stop_at = Some(t);
        self
    }

    /// Applies an on/off burst duty cycle.
    #[must_use]
    pub fn burst(mut self, on: SimDuration, off: SimDuration) -> Self {
        self.spec.burst = Some(BurstPattern { on, off });
        self
    }

    /// Selects the submission engine.
    #[must_use]
    pub fn engine(mut self, engine: IoEngine) -> Self {
        self.spec.engine = engine;
        self
    }

    /// Finishes the spec.
    ///
    /// # Panics
    ///
    /// Panics if `stop_at <= start_at` was configured.
    #[must_use]
    pub fn build(self) -> JobSpec {
        if let Some(stop) = self.spec.stop_at {
            assert!(stop > self.spec.start_at, "stop_at must be after start_at");
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let lc = JobSpec::lc_app("lc");
        assert_eq!(lc.block_size(), 4096);
        assert_eq!(lc.iodepth(), 1);
        assert_eq!(lc.rw(), RwKind::RandRead);
        let batch = JobSpec::batch_app("b");
        assert_eq!(batch.iodepth(), 256);
        assert_eq!(JobSpec::be_app("be").iodepth(), 256);
    }

    #[test]
    fn window_gating() {
        let j = JobSpec::builder("x")
            .start_at(SimTime::from_secs(10))
            .stop_at(SimTime::from_secs(50))
            .build();
        assert!(!j.is_active(SimTime::from_secs(9)));
        assert!(j.is_active(SimTime::from_secs(10)));
        assert!(j.is_active(SimTime::from_millis(49_999)));
        assert!(!j.is_active(SimTime::from_secs(50)));
    }

    #[test]
    fn burst_duty_cycle() {
        let j = JobSpec::builder("x")
            .burst(SimDuration::from_millis(10), SimDuration::from_millis(90))
            .build();
        assert!(j.is_active(SimTime::from_millis(5)));
        assert!(!j.is_active(SimTime::from_millis(50)));
        assert!(j.is_active(SimTime::from_millis(105)));
    }

    #[test]
    fn next_transition_walks_edges() {
        let j = JobSpec::builder("x")
            .start_at(SimTime::from_secs(1))
            .stop_at(SimTime::from_secs(2))
            .build();
        assert_eq!(
            j.next_transition(SimTime::ZERO),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(
            j.next_transition(SimTime::from_millis(1_500)),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(j.next_transition(SimTime::from_secs(3)), None);
    }

    #[test]
    fn next_transition_burst_edges() {
        let j = JobSpec::builder("x")
            .burst(SimDuration::from_millis(10), SimDuration::from_millis(10))
            .build();
        // At t=5ms we are in the on-phase; next edge at 10ms.
        assert_eq!(
            j.next_transition(SimTime::from_millis(5)),
            Some(SimTime::from_millis(10))
        );
        // At t=15ms in off-phase; next edge at 20ms.
        assert_eq!(
            j.next_transition(SimTime::from_millis(15)),
            Some(SimTime::from_millis(20))
        );
        // With a stop, the earlier of the stop and the next edge.
        let j = JobSpec::builder("x")
            .burst(SimDuration::from_millis(10), SimDuration::from_millis(10))
            .stop_at(SimTime::from_millis(25))
            .build();
        assert_eq!(
            j.next_transition(SimTime::from_millis(15)),
            Some(SimTime::from_millis(20))
        );
        assert_eq!(
            j.next_transition(SimTime::from_millis(22)),
            Some(SimTime::from_millis(25))
        );
    }

    #[test]
    fn rate_converts_units() {
        let j = JobSpec::builder("x").rate_mib_s(1.0).build();
        assert!((j.rate_bytes_per_sec().unwrap() - 1_048_576.0).abs() < 1e-6);
    }

    #[test]
    fn rw_kind_predicates() {
        assert!(!RwKind::RandRead.has_writes());
        assert!(RwKind::SeqWrite.has_writes());
        assert!(RwKind::RandRw { read_frac: 0.5 }.has_writes());
        assert!(!RwKind::RandRw { read_frac: 1.0 }.has_writes());
        assert!(RwKind::SeqRead.is_sequential());
        assert!(!RwKind::RandWrite.is_sequential());
    }

    #[test]
    #[should_panic(expected = "stop_at must be after start_at")]
    fn inverted_window_panics() {
        let _ = JobSpec::builder("x")
            .start_at(SimTime::from_secs(5))
            .stop_at(SimTime::from_secs(5))
            .build();
    }

    #[test]
    #[should_panic(expected = "iodepth must be positive")]
    fn zero_iodepth_panics() {
        let _ = JobSpec::builder("x").iodepth(0);
    }
}
