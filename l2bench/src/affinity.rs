//! Pinning the benchmark to one CPU for the duration of a workload.
//!
//! `shared_link` runs its two initiator threads on one CPU.  On a shared
//! two-vCPU host the turnstile's cross-CPU wake-ups made that workload's
//! throughput swing by a factor of nearly two between runs; on one CPU every
//! handoff is a same-CPU context switch and the runs agree within a few
//! percent, while the turnstile is still contended on every exchange.
//!
//! `sweep_resume` runs its worker and committer on one CPU too, so that the
//! calibration kernel (`calib`), which runs on the main thread, times the
//! CPU the sweep runs on: unpinned, the two vCPUs of a shared host ran at
//! speeds far enough apart that the scaled rates of runs differed by 0.3.

use std::mem::size_of;

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn current() -> Option<CpuSet> {
    let mut mask = CpuSet([0; 16]);
    // SAFETY: `mask` is a writable buffer of exactly the size passed, laid
    // out as the C `cpu_set_t`; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

fn apply(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, laid
    // out as the C `cpu_set_t`; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) == 0 }
}

/// The calling thread pinned to one CPU; threads it spawns inherit the pin.
/// Dropping it restores the previous mask.
pub struct OneCpu {
    saved: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    /// Pins the calling thread to the lowest-numbered CPU it may run on.
    pub fn pin() -> Result<OneCpu, String> {
        let saved = current().ok_or("sched_getaffinity failed")?;
        let cpu = (0..1024)
            .find(|&c| saved.0[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("empty CPU mask")?;
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        if !apply(&one) {
            return Err(format!("sched_setaffinity to CPU {cpu} failed"));
        }
        Ok(OneCpu { saved, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Best effort: a failure leaves the process pinned, which only
        // slows the workloads that follow in `--workload all`.
        let _ = apply(&self.saved);
    }
}
