//! Host calibration: the timed figures in reference seconds.
//!
//! The benchmark runs on a few cores of a shared host, whose other tenants
//! slow this process by up to half for seconds to minutes at a time (the
//! guest sees no steal time; its code just runs slower).  Between
//! operations the benchmark times [`kernel`], a fixed piece of work of its
//! own that allocates, hashes and walks a small tree, as the program does.
//! Over windows of a run, the kernel's speed and the program's followed
//! each other with a correlation of 0.99 on the development host, so a
//! time scaled by `REFERENCE_NS / kernel time` reads what it would on a host
//! as fast as that reference.  The kernel is the benchmark's own code and
//! never changes, so a change to the program moves the scaled figures as it
//! moves wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's time, in nanoseconds, on a host of reference speed: about
/// its median on the 2-vCPU development host.
pub const REFERENCE_NS: f64 = 350_000.0;
/// Kernel timings the current scale is the median of.
const RECENT: usize = 7;
/// Least wall time between two kernel timings in the timed loop.
const EVERY_S: f64 = 0.02;

/// The calibration kernel: a fixed mix of small allocations, byte hashing
/// and ordered-map inserts and removals, about 0.35 ms at reference speed.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..1500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = (x % 96) as usize + 8;
        let v: Vec<u8> = (0..len).map(|k| (x >> (k % 56)) as u8).collect();
        for b in &v {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        if x.is_multiple_of(3) {
            map.remove(&(x % 256));
        } else {
            map.insert(x % 256, v);
        }
    }
    h ^ map.len() as u64
}

/// Recent kernel timings and the scale they give.
#[derive(Debug, Default)]
pub struct HostClock {
    recent: Vec<f64>,
    all: Vec<f64>,
    last: Option<Instant>,
}

impl HostClock {
    /// A clock primed with [`RECENT`] kernel timings.
    pub fn new() -> Self {
        let mut clock = HostClock::default();
        for _ in 0..RECENT {
            clock.sample();
        }
        clock
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(kernel(self.all.len() as u64));
        let ns = t0.elapsed().as_nanos() as f64;
        if self.recent.len() == RECENT {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        self.all.push(ns);
        self.last = Some(Instant::now());
    }

    /// Times the kernel when [`EVERY_S`] passed since the last timing.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S)
        {
            self.sample();
        }
    }

    /// Reference seconds per wall second: below 1 while the host runs
    /// slower than the reference.
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / crate::stats::median(&self.recent)
    }

    /// Median kernel time over every timing, in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.all) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(3), kernel(4));
    }

    #[test]
    fn scale_is_reference_over_the_recent_median() {
        let mut clock = HostClock {
            recent: vec![700_000.0, 350_000.0, 1_400_000.0],
            ..HostClock::default()
        };
        assert_eq!(clock.scale(), 0.5);
        // Old timings leave the window.
        clock.recent = vec![175_000.0; RECENT];
        assert_eq!(clock.scale(), 2.0);
    }
}
