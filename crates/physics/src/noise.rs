//! Per-pulse noise composition.
//!
//! An erase (or program) pulse of nominal duration `t` does not act on every
//! cell identically:
//!
//! * a **common-mode** factor (charge-pump voltage, temperature, timing of
//!   the abort command) scales the effective duration for *all* cells in the
//!   pulse — this is what correlates extraction errors between watermark
//!   replicas that share a pulse (visible in the paper's Fig. 11), and
//! * a **per-cell** jitter factor models local field fluctuation.
//!
//! Both are log-normal with sigmas from
//! [`PhysicsParams`].

use crate::params::PhysicsParams;
use crate::rng::{mix2, uniform_from_bits, CounterStream, SplitMix64};
use crate::variation::inverse_normal_cdf;

/// The noise context of one pulse (drawn once per pulse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseNoise {
    /// Common-mode multiplier on the pulse's effective duration.
    pub common_factor: f64,
    seed: u64,
}

impl PulseNoise {
    /// Draws the pulse-level noise for the next pulse from `rng`.
    pub fn draw(params: &PhysicsParams, rng: &mut SplitMix64) -> Self {
        let z = rng.normal();
        Self {
            common_factor: (params.common_jitter_sigma * z).exp(),
            seed: rng.next_u64(),
        }
    }

    /// Draws the pulse-level noise from a counter-based stream: draw 0 is the
    /// common-mode deviate, draw 1 seeds the per-cell jitter hash.
    #[must_use]
    pub fn from_stream(params: &PhysicsParams, stream: &CounterStream) -> Self {
        Self {
            common_factor: (params.common_jitter_sigma * stream.normal(0)).exp(),
            seed: stream.draw_u64(1),
        }
    }

    /// Effective duration experienced by cell `cell_index` for a pulse of
    /// nominal duration `nominal_us`.
    ///
    /// Deterministic given the pulse and the cell, so the same pulse can be
    /// replayed cell-by-cell in any order.
    #[must_use]
    pub fn effective_us(&self, params: &PhysicsParams, cell_index: u64, nominal_us: f64) -> f64 {
        if self.seed == 0 {
            return nominal_us * self.common_factor;
        }
        // One avalanche hash and an inverse-CDF normal per cell — stateless,
        // so lane kernels can replay any subset of cells bit-identically.
        let z = inverse_normal_cdf(uniform_from_bits(mix2(self.seed, cell_index)));
        let cell_factor = (params.op_jitter_sigma * z).exp();
        nominal_us * self.common_factor * cell_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhysicsParams;

    #[test]
    fn common_factor_applies_to_all_cells() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(77);
        let pn = PulseNoise::draw(&params, &mut rng);
        let base = 100.0;
        let e0 = pn.effective_us(&params, 0, base);
        let e1 = pn.effective_us(&params, 1, base);
        // Both share the common factor; they differ only by the small
        // per-cell jitter.
        let ratio = e0 / e1;
        assert!((0.8..1.25).contains(&ratio));
        assert!((e0 / base / pn.common_factor - 1.0).abs() < 0.2);
    }

    #[test]
    fn per_cell_jitter_is_deterministic_for_a_pulse() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(78);
        let pn = PulseNoise::draw(&params, &mut rng);
        assert_eq!(
            pn.effective_us(&params, 9, 50.0).to_bits(),
            pn.effective_us(&params, 9, 50.0).to_bits()
        );
    }

    #[test]
    fn pulses_differ_between_draws() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(79);
        let a = PulseNoise::draw(&params, &mut rng);
        let b = PulseNoise::draw(&params, &mut rng);
        assert_ne!(
            a.effective_us(&params, 3, 10.0).to_bits(),
            b.effective_us(&params, 3, 10.0).to_bits()
        );
    }

    #[test]
    fn common_factor_near_one() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(80);
        for _ in 0..100 {
            let pn = PulseNoise::draw(&params, &mut rng);
            assert!(
                (0.8..1.25).contains(&pn.common_factor),
                "{}",
                pn.common_factor
            );
        }
    }
}
