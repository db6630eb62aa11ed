//! The benchmark's clock: raw timestamp reads inside timed loops, nanoseconds afterwards.
//!
//! On x86_64 a raw read is `RDTSC` (no syscall); the tick length is calibrated once per
//! process against the monotonic clock.  Elsewhere a raw read is the monotonic clock and
//! a tick is a nanosecond.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ns_per_tick: f64,
    /// Origin of raw reads where they are the monotonic clock.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    anchor: Instant,
}

impl Clock {
    /// Calibrates over a ~2 ms busy-wait; call it before any timed loop starts.
    pub fn calibrate() -> Self {
        let anchor = Instant::now();
        let mut clock = Clock { ns_per_tick: 1.0, anchor };
        if cfg!(target_arch = "x86_64") {
            let (t0, w0) = (clock.raw(), anchor.elapsed());
            while anchor.elapsed() - w0 < Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            let (t1, w1) = (clock.raw(), anchor.elapsed());
            if t1 > t0 {
                clock.ns_per_tick = (w1 - w0).as_nanos() as f64 / (t1 - t0) as f64;
            }
        }
        clock
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub fn raw(&self) -> u64 {
        // SAFETY: RDTSC has no preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    pub fn raw(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between two raw reads, `later` taken after `earlier` on the same
    /// thread.  A backwards step (thread migrated between unsynchronized counters) is 0.
    #[inline(always)]
    pub fn ns_between(&self, earlier: u64, later: u64) -> u64 {
        (later.saturating_sub(earlier) as f64 * self.ns_per_tick) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sleep_measures_about_its_length() {
        let clock = Clock::calibrate();
        let t0 = clock.raw();
        std::thread::sleep(Duration::from_millis(20));
        let ns = clock.ns_between(t0, clock.raw());
        assert!((15_000_000..500_000_000).contains(&ns), "20 ms sleep measured as {ns} ns");
        assert_eq!(clock.ns_between(10, 5), 0);
    }
}
