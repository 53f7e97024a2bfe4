//! The benchmark's clock: on-CPU time of the calling thread.
//!
//! The benchmark is single-threaded and never blocks, so on a dedicated
//! host its thread CPU time equals wall time. On a shared virtual
//! machine the wall clock also counts time the hypervisor stole from
//! the vCPU, which comes in bursts of up to a third of a multi-second
//! pass and has nothing to do with the simulator. The kernel leaves
//! steal out of a thread's CPU time (`CLOCK_THREAD_CPUTIME_ID`, the
//! same accounting as `/proc/thread-self/schedstat`), so every host
//! time the benchmark reports is read from that clock.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds of CPU time the calling thread has used.
///
/// # Panics
///
/// Panics if the clock cannot be read (not Linux).
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_busy_time_not_sleep() {
        use std::time::{Duration, Instant};
        let t0 = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ns() - t0;
        let t1 = thread_cpu_ns();
        let wall = Instant::now();
        while wall.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(());
        }
        let busy = thread_cpu_ns() - t1;
        assert!(slept < 10_000_000, "sleeping used {slept} ns of CPU");
        assert!(
            busy >= 10_000_000,
            "20 ms of spinning used only {busy} ns of CPU"
        );
    }
}
