//! Device performance profiles and iocost coefficient generation.

use blkio::{AccessPattern, IoOp};
use serde::{Deserialize, Serialize};

/// Lower bound of a tail event's multiplier (the bounded Pareto's `lo`).
pub const TAIL_MULT_MIN: f64 = 1.5;

/// Tail exponent of the tail-event multiplier.
pub const TAIL_ALPHA: f64 = 1.2;

/// Static performance parameters of a simulated SSD.
///
/// Two calibrated presets are provided: [`DeviceProfile::flash`]
/// (Samsung 980 PRO-like TLC flash) and [`DeviceProfile::optane`]
/// (Intel Optane-like 3D-XPoint: lower latency, symmetric read/write, no
/// GC). All fields are public so experiments can build custom devices;
/// the invariants are checked by [`DeviceProfile::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable model name.
    pub name: String,
    /// Addressable capacity in bytes.
    pub capacity_bytes: u64,
    /// Parallel command units (dies × planes the controller can keep busy).
    pub units: u32,
    /// Device queue limit (`nr_requests`); the paper's devices use 1024.
    pub max_qd: u32,
    /// Median command latency for 4 KiB random reads, nanoseconds.
    pub rand_read_cmd_ns: u64,
    /// Median command latency for sequential reads, nanoseconds.
    pub seq_read_cmd_ns: u64,
    /// Median command latency for writes (program into SLC cache), ns.
    pub write_cmd_ns: u64,
    /// Lognormal shape of the command-latency body.
    pub latency_sigma: f64,
    /// Probability of a heavy-tail service event (erase collision, etc.).
    pub tail_prob: f64,
    /// Multiplier range of tail events (bounded Pareto upper bound, above
    /// [`TAIL_MULT_MIN`]).
    pub tail_mult_max: f64,
    /// Shared-pipe bandwidth for random reads, bytes/s.
    pub rand_read_bps: f64,
    /// Shared-pipe bandwidth for sequential reads, bytes/s.
    pub seq_read_bps: f64,
    /// Shared-pipe bandwidth for random writes (pre-GC burst), bytes/s.
    pub rand_write_bps: f64,
    /// Shared-pipe bandwidth for sequential writes (pre-GC burst), bytes/s.
    pub seq_write_bps: f64,
    /// Write-amplification factor applied to GC debt accrual.
    pub waf: f64,
    /// Debt level (bytes) at which GC reaches full intensity.
    pub gc_threshold_bytes: f64,
    /// GC reclaim rate, bytes of debt drained per second.
    pub gc_drain_bps: f64,
    /// Fraction of *read* pipe bandwidth stolen at full GC intensity.
    pub gc_read_penalty: f64,
    /// Fraction of *write* pipe bandwidth stolen at full GC intensity.
    pub gc_write_penalty: f64,
    /// Maximum data-pipe backlog the device accepts before exerting
    /// back-pressure on dispatch (NVMe flow control under saturation).
    /// Backlog beyond this stays in the I/O scheduler, which is what
    /// lets schedulers reorder under contention.
    pub pipe_backlog_limit: simcore::SimDuration,
}

impl DeviceProfile {
    /// A Samsung 980 PRO-like 1 TB TLC flash SSD.
    ///
    /// Calibrated targets (matching the paper's testbed shape):
    /// ~2.9 GiB/s 4 KiB random-read saturation, ~70 µs QD-1 read latency,
    /// multi-GiB/s sequential reads, asymmetric writes that collapse to a
    /// few hundred MiB/s under sustained random writes with GC.
    #[must_use]
    pub fn flash() -> Self {
        DeviceProfile {
            name: "flash-980pro-like".to_owned(),
            capacity_bytes: 1 << 40, // 1 TiB
            units: 64,
            max_qd: 1024,
            rand_read_cmd_ns: 68_000,
            // Small sequential reads hit the same NAND page latency as
            // random ones; the sequential advantage is in the pipe
            // (readahead/striping), not the command.
            seq_read_cmd_ns: 64_000,
            write_cmd_ns: 14_000,
            latency_sigma: 0.055,
            tail_prob: 0.0015,
            tail_mult_max: 6.0,
            rand_read_bps: 3.16e9,  // ≈ 2.94 GiB/s
            seq_read_bps: 6.60e9,   // ≈ 6.1 GiB/s
            rand_write_bps: 2.60e9, // burst, before GC
            seq_write_bps: 4.80e9,  // burst, before GC
            waf: 2.2,
            gc_threshold_bytes: 8.0e9,
            gc_drain_bps: 0.45e9,
            gc_read_penalty: 0.72,
            gc_write_penalty: 0.86,
            pipe_backlog_limit: simcore::SimDuration::from_micros(120),
        }
    }

    /// An Intel Optane 900P-like device: ~10 µs command latency,
    /// symmetric read/write bandwidth, no garbage collection.
    #[must_use]
    pub fn optane() -> Self {
        DeviceProfile {
            name: "optane-900p-like".to_owned(),
            capacity_bytes: 280 * (1 << 30),
            units: 14,
            max_qd: 1024,
            rand_read_cmd_ns: 10_000,
            seq_read_cmd_ns: 9_000,
            write_cmd_ns: 10_000,
            latency_sigma: 0.03,
            tail_prob: 0.0002,
            tail_mult_max: 3.0,
            rand_read_bps: 2.65e9,
            seq_read_bps: 2.70e9,
            rand_write_bps: 2.40e9,
            seq_write_bps: 2.40e9,
            waf: 1.0,
            gc_threshold_bytes: f64::INFINITY,
            gc_drain_bps: 1.0, // irrelevant; debt never accrues pressure
            gc_read_penalty: 0.0,
            gc_write_penalty: 0.0,
            pipe_backlog_limit: simcore::SimDuration::from_micros(60),
        }
    }

    /// Median command latency for one request.
    #[must_use]
    pub fn cmd_latency_ns(&self, op: IoOp, pattern: AccessPattern) -> u64 {
        match (op, pattern) {
            (IoOp::Read, AccessPattern::Random) => self.rand_read_cmd_ns,
            (IoOp::Read, AccessPattern::Sequential) => self.seq_read_cmd_ns,
            (IoOp::Write, _) => self.write_cmd_ns,
        }
    }

    /// Pipe bandwidth for one request class, before GC pressure.
    #[must_use]
    pub fn pipe_bps(&self, op: IoOp, pattern: AccessPattern) -> f64 {
        match (op, pattern) {
            (IoOp::Read, AccessPattern::Random) => self.rand_read_bps,
            (IoOp::Read, AccessPattern::Sequential) => self.seq_read_bps,
            (IoOp::Write, AccessPattern::Random) => self.rand_write_bps,
            (IoOp::Write, AccessPattern::Sequential) => self.seq_write_bps,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.units == 0 {
            return Err("units must be positive".into());
        }
        if self.max_qd == 0 {
            return Err("max_qd must be positive".into());
        }
        if self.capacity_bytes < 1 << 20 {
            return Err("capacity must be at least 1 MiB".into());
        }
        for (name, v) in [
            ("rand_read_bps", self.rand_read_bps),
            ("seq_read_bps", self.seq_read_bps),
            ("rand_write_bps", self.rand_write_bps),
            ("seq_write_bps", self.seq_write_bps),
        ] {
            // NaN must fail validation too, hence not `v <= 0.0`.
            if v.is_nan() || v <= 0.0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if !(0.0..=1.0).contains(&self.gc_read_penalty)
            || !(0.0..=1.0).contains(&self.gc_write_penalty)
        {
            return Err("gc penalties must be in [0, 1]".into());
        }
        if self.waf < 1.0 {
            return Err("waf must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.tail_prob) {
            return Err("tail_prob must be in [0, 1]".into());
        }
        if self.tail_mult_max.is_nan() || self.tail_mult_max <= TAIL_MULT_MIN {
            return Err(format!("tail_mult_max must exceed {TAIL_MULT_MIN}"));
        }
        Ok(())
    }

    /// Derives the linear iocost model for this device, the way Linux's
    /// `iocost_coef_gen.py` measures one (sustained rates, writes at GC
    /// steady state). Returns saturated sequential/random read/write
    /// coefficients.
    #[must_use]
    pub fn iocost_coefficients(&self) -> IocostCoefficients {
        let unit_iops = |cmd_ns: u64| -> f64 { f64::from(self.units) / (cmd_ns as f64 / 1e9) };
        let write_sustain = 1.0 - self.gc_write_penalty * self.gc_steady_level();
        let rbps = self.seq_read_bps;
        let rseqiops = unit_iops(self.seq_read_cmd_ns).min(self.seq_read_bps / 4096.0);
        let rrandiops = unit_iops(self.rand_read_cmd_ns).min(self.rand_read_bps / 4096.0);
        let wbps = self.seq_write_bps * write_sustain;
        let wseqiops =
            unit_iops(self.write_cmd_ns).min(self.seq_write_bps * write_sustain / 4096.0);
        let wrandiops =
            unit_iops(self.write_cmd_ns).min(self.rand_write_bps * write_sustain / 4096.0);
        IocostCoefficients {
            rbps: rbps as u64,
            rseqiops: rseqiops as u64,
            rrandiops: rrandiops as u64,
            wbps: wbps as u64,
            wseqiops: wseqiops as u64,
            wrandiops: wrandiops as u64,
        }
    }

    /// The GC level sustained random writes converge to (1.0 unless the
    /// device drains faster than the workload writes — we assume it does
    /// not for flash; 0 for GC-free devices).
    #[must_use]
    pub fn gc_steady_level(&self) -> f64 {
        if self.gc_threshold_bytes.is_infinite() {
            0.0
        } else {
            1.0
        }
    }
}

/// The six coefficients of the iocost linear model, as
/// `iocost_coef_gen.py` would emit for this device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IocostCoefficients {
    /// Sequential read bytes/s.
    pub rbps: u64,
    /// Sequential read IOPS (4 KiB).
    pub rseqiops: u64,
    /// Random read IOPS (4 KiB).
    pub rrandiops: u64,
    /// Sequential write bytes/s (sustained).
    pub wbps: u64,
    /// Sequential write IOPS (sustained, 4 KiB).
    pub wseqiops: u64,
    /// Random write IOPS (sustained, 4 KiB).
    pub wrandiops: u64,
}

impl std::fmt::Display for IocostCoefficients {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rbps={} rseqiops={} rrandiops={} wbps={} wseqiops={} wrandiops={}",
            self.rbps, self.rseqiops, self.rrandiops, self.wbps, self.wseqiops, self.wrandiops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DeviceProfile::flash().validate().unwrap();
        DeviceProfile::optane().validate().unwrap();
    }

    #[test]
    fn flash_saturation_is_papers_ballpark() {
        let p = DeviceProfile::flash();
        // 4 KiB random read: min(unit-bound IOPS, pipe-bound IOPS).
        let unit_iops = f64::from(p.units) / (p.rand_read_cmd_ns as f64 / 1e9);
        let pipe_iops = p.rand_read_bps / 4096.0;
        let sat_gib_s = unit_iops.min(pipe_iops) * 4096.0 / (1 << 30) as f64;
        assert!(
            (2.6..3.2).contains(&sat_gib_s),
            "saturation {sat_gib_s} GiB/s"
        );
    }

    #[test]
    fn optane_is_faster_and_symmetric() {
        let o = DeviceProfile::optane();
        let f = DeviceProfile::flash();
        assert!(o.rand_read_cmd_ns < f.rand_read_cmd_ns / 3);
        assert_eq!(o.gc_steady_level(), 0.0);
        assert!((o.rand_read_bps - o.rand_write_bps).abs() / o.rand_read_bps < 0.15);
    }

    #[test]
    fn cmd_latency_dispatches_by_class() {
        let p = DeviceProfile::flash();
        assert_eq!(
            p.cmd_latency_ns(IoOp::Read, AccessPattern::Random),
            p.rand_read_cmd_ns
        );
        assert_eq!(
            p.cmd_latency_ns(IoOp::Read, AccessPattern::Sequential),
            p.seq_read_cmd_ns
        );
        assert_eq!(
            p.cmd_latency_ns(IoOp::Write, AccessPattern::Random),
            p.write_cmd_ns
        );
    }

    #[test]
    fn pipe_bps_reads_faster_than_writes_on_flash() {
        let p = DeviceProfile::flash();
        assert!(
            p.pipe_bps(IoOp::Read, AccessPattern::Sequential)
                > p.pipe_bps(IoOp::Write, AccessPattern::Sequential)
        );
    }

    #[test]
    fn coefficients_are_ordered_sensibly() {
        let c = DeviceProfile::flash().iocost_coefficients();
        assert!(c.rbps > c.wbps, "reads cheaper than sustained writes");
        assert!(c.rseqiops >= c.rrandiops);
        assert!(
            c.rrandiops > c.wrandiops,
            "sustained random writes are the most expensive"
        );
        assert!(c.wrandiops > 10_000, "still five digits of write IOPS");
    }

    #[test]
    fn validate_catches_bad_profiles() {
        let mut p = DeviceProfile::flash();
        p.tail_mult_max = TAIL_MULT_MIN;
        assert!(p.validate().is_err());
        let mut p = DeviceProfile::flash();
        p.units = 0;
        assert!(p.validate().is_err());
        let mut p = DeviceProfile::flash();
        p.waf = 0.5;
        assert!(p.validate().is_err());
        let mut p = DeviceProfile::flash();
        p.gc_read_penalty = 1.5;
        assert!(p.validate().is_err());
        let mut p = DeviceProfile::flash();
        p.rand_read_bps = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn coefficients_display_is_knob_grammar_compatible() {
        let c = DeviceProfile::flash().iocost_coefficients();
        let s = c.to_string();
        assert!(s.contains("rbps=") && s.contains("wrandiops="));
    }
}
