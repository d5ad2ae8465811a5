//! The fault schedule: a pure function of `(seed, op_index)`.
//!
//! A [`FaultPlan`] describes *which* faults a [`crate::FaultyFlash`] wrapper
//! injects and *how often*. Every decision — does operation `n` NAK, which
//! read bits flip, how much does a partial-erase pulse jitter — is drawn
//! from a fresh [`SplitMix64`] stream keyed by `(seed, op_index, channel)`,
//! never from a shared sequential stream. Two consequences:
//!
//! * replaying the same operation sequence against the same plan produces
//!   byte-identical faults, regardless of thread count or host;
//! * the schedule for operation `n` does not depend on whether anyone
//!   sampled the schedule for operation `m != n`.

use flashmark_physics::rng::{mix2, SplitMix64};

/// Sub-stream selector: keeps the independent fault dimensions of one
/// operation index statistically decoupled (same trick as the physics
/// crate's per-cell channels).
#[derive(Debug, Clone, Copy)]
enum FaultChannel {
    Transient = 1,
    ReadFlip = 2,
    Disturb = 3,
    Jitter = 4,
}

/// A deterministic, seed-driven fault schedule.
///
/// Built with the builder-style `with_*` methods; a plan with no faults
/// enabled (see [`FaultPlan::golden`]) makes [`crate::FaultyFlash`] a
/// transparent pass-through, which is what differential campaigns use as
/// the golden arm.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    transient_burst: u32,
    power_loss_at_op: Option<u64>,
    power_loss_fraction: f64,
    read_flip_rate: f64,
    disturb_rate: f64,
    jitter_us: f64,
}

impl FaultPlan {
    /// A plan that injects nothing — the golden arm of a differential run.
    #[must_use]
    pub fn golden(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.0,
            transient_burst: 0,
            power_loss_at_op: None,
            power_loss_fraction: 0.5,
            read_flip_rate: 0.0,
            disturb_rate: 0.0,
            jitter_us: 0.0,
        }
    }

    /// Alias for [`FaultPlan::golden`]: start from a fault-free plan and
    /// enable fault classes with the `with_*` builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::golden(seed)
    }

    /// Enables transient NAK-style interface errors: each operation index
    /// is refused with probability `rate`, but never more than `burst`
    /// times in a row — the bound that makes bounded consumer retry sound.
    #[must_use]
    pub fn with_transients(mut self, rate: f64, burst: u32) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self.transient_burst = burst;
        self
    }

    /// Schedules a one-shot power loss at operation index `op`. If the
    /// interrupted operation is a full segment erase, the array receives
    /// only `fraction` of the nominal tErase pulse before power drops.
    #[must_use]
    pub fn with_power_loss(mut self, op: u64, fraction: f64) -> Self {
        self.power_loss_at_op = Some(op);
        self.power_loss_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Enables random read noise: every bit returned by a read flips with
    /// probability `rate`, independently per `(op, word, bit)`.
    #[must_use]
    pub fn with_read_flips(mut self, rate: f64) -> Self {
        self.read_flip_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Enables read-disturb accumulation: reads of a segment disturb its
    /// cells toward the programmed state, with a per-bit flip probability of
    /// `rate × reads-since-erase` (capped at 1) on each subsequent read.
    #[must_use]
    pub fn with_read_disturb(mut self, rate: f64) -> Self {
        self.disturb_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Enables partial-erase timing jitter: each `partial_erase` pulse is
    /// lengthened or shortened by a zero-mean normal deviate with standard
    /// deviation `sigma_us` microseconds.
    #[must_use]
    pub fn with_t_pew_jitter(mut self, sigma_us: f64) -> Self {
        self.jitter_us = sigma_us.max(0.0);
        self
    }

    /// The independent decision stream for `(op, channel)`.
    fn stream(&self, op: u64, channel: FaultChannel) -> SplitMix64 {
        SplitMix64::new(mix2(mix2(self.seed, op), channel as u64))
    }

    /// Whether operation `op` is refused with a transient NAK.
    /// `consecutive` is the number of NAKs already injected immediately
    /// before this operation; once it reaches the configured burst bound
    /// the answer is always `false`.
    #[must_use]
    pub fn transient_at(&self, op: u64, consecutive: u32) -> bool {
        if self.transient_rate <= 0.0 || consecutive >= self.transient_burst {
            return false;
        }
        self.stream(op, FaultChannel::Transient).next_f64() < self.transient_rate
    }

    /// The erase fraction delivered before power drops, if operation `op`
    /// is the scheduled power-loss point.
    #[must_use]
    pub fn power_loss_at(&self, op: u64) -> Option<f64> {
        (self.power_loss_at_op == Some(op)).then_some(self.power_loss_fraction)
    }

    /// The random-noise XOR mask for word `word_offset` of read operation
    /// `op` (bit set ⇒ that bit flips).
    #[must_use]
    pub fn read_flip_mask(&self, op: u64, word_offset: u32) -> u16 {
        if self.read_flip_rate <= 0.0 {
            return 0;
        }
        let mut rng = self
            .stream(op, FaultChannel::ReadFlip)
            .fork(word_offset as u64);
        mask_with_rate(&mut rng, self.read_flip_rate)
    }

    /// The read-disturb AND-clear mask for word `word_offset` of read
    /// operation `op`, given `reads_since_erase` prior reads of the segment
    /// (bit set ⇒ that bit is dragged from 1 to 0, i.e. toward programmed).
    #[must_use]
    pub fn disturb_mask(&self, op: u64, word_offset: u32, reads_since_erase: u64) -> u16 {
        if self.disturb_rate <= 0.0 || reads_since_erase == 0 {
            return 0;
        }
        let p = (self.disturb_rate * reads_since_erase as f64).min(1.0);
        let mut rng = self
            .stream(op, FaultChannel::Disturb)
            .fork(word_offset as u64);
        mask_with_rate(&mut rng, p)
    }

    /// The timing-jitter delta (µs, may be negative) applied to a
    /// `partial_erase` issued as operation `op`.
    #[must_use]
    pub fn jitter_at(&self, op: u64) -> f64 {
        if self.jitter_us <= 0.0 {
            return 0.0;
        }
        self.stream(op, FaultChannel::Jitter).normal() * self.jitter_us
    }
}

/// A 16-bit mask with each bit set independently with probability `rate`.
fn mask_with_rate(rng: &mut SplitMix64, rate: f64) -> u16 {
    let mut mask = 0u16;
    for bit in 0..16 {
        if rng.next_f64() < rate {
            mask |= 1 << bit;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_plan_is_silent() {
        let p = FaultPlan::golden(42);
        for op in 0..100 {
            assert!(!p.transient_at(op, 0));
            assert!(p.power_loss_at(op).is_none());
            assert_eq!(p.read_flip_mask(op, 3), 0);
            assert_eq!(p.disturb_mask(op, 3, 1000), 0);
            assert!(p.jitter_at(op).abs() < 1e-12);
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_op() {
        let a = FaultPlan::new(7)
            .with_transients(0.3, 2)
            .with_read_flips(0.05)
            .with_t_pew_jitter(2.0);
        let b = a.clone();
        // Sample b out of order and interleaved; answers must not change.
        let b_sampled: Vec<_> = (0..64).rev().map(|op| b.transient_at(op, 0)).collect();
        let a_sampled: Vec<_> = (0..64).map(|op| a.transient_at(op, 0)).collect();
        let b_fwd: Vec<_> = b_sampled.into_iter().rev().collect();
        assert_eq!(a_sampled, b_fwd);
        assert_eq!(a.read_flip_mask(9, 100), b.read_flip_mask(9, 100));
        assert_eq!(a.jitter_at(5).to_bits(), b.jitter_at(5).to_bits());
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::new(1).with_read_flips(0.5);
        let b = FaultPlan::new(2).with_read_flips(0.5);
        let differs = (0..64).any(|op| a.read_flip_mask(op, 0) != b.read_flip_mask(op, 0));
        assert!(differs);
    }

    #[test]
    fn burst_bound_suppresses_naks() {
        let p = FaultPlan::new(3).with_transients(1.0, 2);
        assert!(p.transient_at(0, 0));
        assert!(p.transient_at(0, 1));
        assert!(
            !p.transient_at(0, 2),
            "burst bound must cap consecutive NAKs"
        );
    }

    #[test]
    fn disturb_grows_with_accumulated_reads() {
        let p = FaultPlan::new(4).with_read_disturb(1e-3);
        let few: u32 = (0..64)
            .map(|op| p.disturb_mask(op, 0, 1).count_ones())
            .sum();
        let many: u32 = (0..64)
            .map(|op| p.disturb_mask(op, 0, 500).count_ones())
            .sum();
        assert!(many > few);
        assert_eq!(p.disturb_mask(0, 0, 0), 0, "no disturb before any read");
    }

    #[test]
    fn power_loss_fires_only_at_its_op() {
        let p = FaultPlan::new(5).with_power_loss(7, 0.25);
        assert_eq!(p.power_loss_at(7), Some(0.25));
        assert_eq!(p.power_loss_at(6), None);
        assert_eq!(p.power_loss_at(8), None);
    }
}
