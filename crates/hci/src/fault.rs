//! Deterministic fault injection for virtual links.
//!
//! Real campaigns live with flaky links and misbehaving targets: frames are
//! lost, duplicated or corrupted by interference, latency wanders, responses
//! arrive out of order, and a busy target can go silent for a while.  A
//! [`FaultPlan`] models those behaviours on a virtual link.  Every fault
//! decision draws from a per-event RNG derived from the scheduler ticket and
//! the link seed, in a seed domain of its own, so a faulty schedule replays
//! bit for bit at any initiator count, and [`FaultPlan::none`] leaves the
//! packet streams byte-identical to a fault-free medium.

use btcore::FuzzRng;
use l2cap::packet::L2capFrame;
use std::fmt;

/// Seed-domain separator of the fault stream: an event's fault RNG is
/// seeded from its scheduler ticket, the link seed and this constant.
pub(crate) const FAULT_DOMAIN: u64 = 0xFA17_0000_0000_0001;

/// Fault behaviour of a virtual link.
///
/// All probabilities are per-exchange and independent; the plan is applied
/// in a fixed order (jitter, stall, loss, corruption, reorder, duplication)
/// so that a given campaign seed always produces the same faulty schedule.
/// The default plan ([`FaultPlan::none`]) injects nothing and consumes no
/// randomness, keeping default campaigns packet-identical to a medium
/// without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a transmitted frame is dropped on the air (the
    /// target never sees it, and the fuzzer observes a timeout).
    pub loss: f64,
    /// Probability that a delivered frame reaches the target twice.
    pub duplicate: f64,
    /// Probability that the frame's payload is bit-corrupted in flight.
    /// The 4-byte basic header survives, so the frame still parses; the
    /// receiver sees garbage where the initiator sent structure.
    pub corrupt: f64,
    /// Upper bound of uniformly distributed extra latency charged per
    /// exchange, in microseconds of virtual time.
    pub jitter_micros: u64,
    /// Probability that a frame is held back and delivered after the *next*
    /// exchange (bounded, depth-1 reordering).
    pub reorder: f64,
    /// Probability that an exchange opens a stall window during which the
    /// target is silent: frames are swallowed and nothing is answered.
    pub stall: f64,
    /// Length of a stall window in microseconds of virtual time.
    pub stall_micros: u64,
    /// Probability that reading a crash dump from the target fails (the
    /// dump stays on the device for a later retry).
    pub dump_read_failure: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, no randomness consumed.
    pub const fn none() -> Self {
        FaultPlan {
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            jitter_micros: 0,
            reorder: 0.0,
            stall: 0.0,
            stall_micros: 0,
            dump_read_failure: 0.0,
        }
    }

    /// A degraded link dropping and corrupting the given fractions of
    /// frames — the chaos shape used by the resilience evaluation.
    pub fn degraded(loss: f64, corrupt: f64) -> Self {
        FaultPlan {
            loss,
            corrupt,
            ..FaultPlan::none()
        }
    }

    /// Returns `true` if this plan injects nothing.  The medium uses this
    /// as its fast path: a no-op plan never constructs a fault RNG and
    /// never touches the clock, so default streams stay byte-identical.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.jitter_micros == 0
            && self.reorder == 0.0
            && self.stall == 0.0
            && self.dump_read_failure == 0.0
    }

    /// Sets the extra frame-loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the payload-corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Sets the latency-jitter bound in microseconds.
    pub fn with_jitter(mut self, micros: u64) -> Self {
        self.jitter_micros = micros;
        self
    }

    /// Sets the depth-1 reordering probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the stall probability and window length.
    pub fn with_stall(mut self, p: f64, window_micros: u64) -> Self {
        self.stall = p;
        self.stall_micros = window_micros;
        self
    }

    /// Sets the crash-dump read-failure probability.
    pub fn with_dump_read_failure(mut self, p: f64) -> Self {
        self.dump_read_failure = p;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Panic payload thrown by a link whose per-job watchdog deadline passed.
///
/// The sweep service catches this with `catch_unwind` and records the job as
/// `JobOutcome::TimedOut` instead of aborting the shard.  The deadline is in
/// virtual time, so whether a job times out is as deterministic as the rest
/// of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogExpired {
    /// The deadline, in microseconds on the link's virtual clock.
    pub deadline_micros: u64,
    /// The link's virtual time when the watchdog fired.
    pub now_micros: u64,
}

impl fmt::Display for WatchdogExpired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "watchdog expired: virtual time {} past deadline {}",
            self.now_micros, self.deadline_micros
        )
    }
}

/// Flips one to three payload bits of `frame`'s encoded form, leaving the
/// 4-byte basic header intact so the result still parses as an L2CAP frame.
/// Frames with an empty payload pass through unchanged.
pub(crate) fn corrupt_frame(frame: &L2capFrame, rng: &mut FuzzRng) -> L2capFrame {
    let mut bytes = frame.to_bytes();
    if bytes.len() <= 4 {
        return frame.clone();
    }
    let flips = rng.range_usize(1, 3);
    for _ in 0..flips {
        let bit = rng.range_usize(32, bytes.len() * 8 - 1);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    L2capFrame::parse(&bytes).unwrap_or_else(|_| frame.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::Cid;

    #[test]
    fn none_plan_is_none_and_default() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }

    #[test]
    fn setters_mark_plan_active() {
        assert!(!FaultPlan::none().with_loss(0.1).is_none());
        assert!(!FaultPlan::none().with_duplication(0.1).is_none());
        assert!(!FaultPlan::none().with_corruption(0.1).is_none());
        assert!(!FaultPlan::none().with_jitter(50).is_none());
        assert!(!FaultPlan::none().with_reorder(0.1).is_none());
        assert!(!FaultPlan::none().with_stall(0.1, 1_000).is_none());
        assert!(!FaultPlan::none().with_dump_read_failure(0.1).is_none());
        assert!(!FaultPlan::degraded(0.1, 0.05).is_none());
    }

    #[test]
    fn corruption_keeps_frame_parseable_and_changes_payload() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x04, 0x00, 1, 2, 3, 4]);
        let mut rng = FuzzRng::seed_from(7);
        let corrupted = corrupt_frame(&frame, &mut rng);
        assert_eq!(corrupted.to_bytes().len(), frame.to_bytes().len());
        assert_ne!(corrupted, frame);
        // Header (length + CID) survives.
        assert_eq!(corrupted.to_bytes()[..4], frame.to_bytes()[..4]);
    }

    #[test]
    fn corruption_of_empty_payload_is_identity() {
        let frame = L2capFrame::new(Cid::SIGNALING, Vec::new());
        let mut rng = FuzzRng::seed_from(7);
        assert_eq!(corrupt_frame(&frame, &mut rng), frame);
    }

    #[test]
    fn corruption_is_deterministic() {
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x04, 0x00, 1, 2, 3, 4]);
        let a = corrupt_frame(&frame, &mut FuzzRng::seed_from(99));
        let b = corrupt_frame(&frame, &mut FuzzRng::seed_from(99));
        assert_eq!(a, b);
    }
}
