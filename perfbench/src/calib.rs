//! Host-speed calibration.
//!
//! Host speed on a shared VM swings by ±10 % within minutes and by up
//! to half between minutes, and no statistic over the simulator's own
//! timings removes that. A fixed kernel run in short slices between
//! cells slows down with the host: on `fleet_4096` (7 runs of 30 s) the
//! raw pass time spread 16.7 % (Q3−Q1 over the median) and the kernel's
//! own time 21 %, while their per-pass ratio spread 2.8 %. Every host
//! time the benchmark reports is therefore scaled to a reference host
//! speed: `raw × REF_SLICE_S / mean(slice times)` over the slices run
//! during that measurement. The mean, not the median: a pass's time
//! integrates the host's slowness over the pass, slow spells included,
//! and so does the mean of slices sampled across it.
//!
//! The kernel mixes what the simulator does per event: random reads
//! and writes over a table larger than L2, binary-heap pops and pushes
//! of timer keys, integer hashing and a logarithm. It lives in the
//! benchmark so that changes to the simulator never change it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::thread_cpu_ns;

/// Kernel iterations per slice (about 17 ms on the reference host).
const SLICE_ITERS: u32 = 100_000;

/// Slice time on the reference host: the 2-vCPU Xeon VM this benchmark
/// was written on. Calibrated seconds read close to its raw seconds.
pub const REF_SLICE_S: f64 = 0.017;

/// CPU time between slices.
const INTERVAL_NS: u64 = 250_000_000;

/// Table entries (4 MiB of `u64`).
const TABLE: usize = 1 << 19;

/// The calibration kernel and the slice times it measured.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    x: u64,
    last_ns: u64,
    slices: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocates the kernel's state once; slices reuse it.
    #[must_use]
    pub fn new() -> Self {
        Calibrator {
            table: (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            heap: (0..1024u32)
                .map(|i| Reverse((u64::from(i) * 977, i)))
                .collect(),
            x: 0x1234_5678_9ABC_DEF1,
            last_ns: 0,
            slices: Vec::new(),
        }
    }

    /// Runs one slice and records its CPU time.
    pub fn slice(&mut self) {
        let t0 = thread_cpu_ns();
        let mut x = self.x;
        let mut acc = 0.0f64;
        for _ in 0..SLICE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(x);
            let Reverse((t, id)) = self.heap.pop().expect("the heap holds 1024 keys");
            self.heap.push(Reverse((t + (self.table[i] & 0xFFFF), id)));
            if x & 7 == 0 {
                acc += ((x >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0) + 1e-12).ln();
            }
        }
        self.x = std::hint::black_box(x ^ acc.to_bits());
        self.last_ns = thread_cpu_ns();
        self.slices.push((self.last_ns - t0) as f64 * 1e-9);
    }

    /// Runs a slice if a slice interval of CPU time has passed since
    /// the last one.
    pub fn tick(&mut self) {
        if thread_cpu_ns().saturating_sub(self.last_ns) >= INTERVAL_NS {
            self.slice();
        }
    }

    /// Slices recorded so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.slices.len()
    }

    /// The factor that scales raw host seconds measured since slice
    /// `from` to the reference host speed (1 when no slice ran).
    #[must_use]
    pub fn factor_since(&self, from: usize) -> f64 {
        let s = &self.slices[from.min(self.slices.len())..];
        if s.is_empty() {
            1.0
        } else {
            REF_SLICE_S * s.len() as f64 / s.iter().sum::<f64>()
        }
    }
}
