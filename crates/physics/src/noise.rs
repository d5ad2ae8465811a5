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

use crate::arena::CHUNK;
use crate::params::PhysicsParams;
use crate::rng::{mix2, uniform_from_bits, CounterStream, SplitMix64};
use crate::variation::{inverse_normal_cdf, inverse_normal_cdf_batch};

/// A bound on every standard-normal deviate the counter streams can draw.
/// `uniform_from_bits` never returns below 2⁻⁵³ or above 1 − 2⁻⁵³, whose
/// normal quantiles are about ∓8.2, so every drawn `z` lies inside
/// `(−Z_BOUND, Z_BOUND)` with a margin of ~0.8 (pinned by a unit test).
/// The pulse floor and the read kernel's noise band both rest on it.
pub(crate) const Z_BOUND: f64 = 9.0;

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

    /// [`Self::effective_us`] of the cells `first_cell..first_cell +
    /// eff.len()`, each then multiplied by `temp_factor`, written to `eff`
    /// bit for bit: the same hash, deviate, `exp` and multiplication order
    /// as the scalar call, with the deviates drawn in one
    /// [`inverse_normal_cdf_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `eff` holds more than [`CHUNK`] cells.
    pub(crate) fn effective_us_chunk(
        &self,
        params: &PhysicsParams,
        first_cell: u64,
        nominal_us: f64,
        temp_factor: f64,
        eff: &mut [f64],
    ) {
        let common_us = nominal_us * self.common_factor;
        if self.seed == 0 {
            eff.fill(common_us * temp_factor);
            return;
        }
        let mut uniforms = [0.0; CHUNK];
        let uniforms = &mut uniforms[..eff.len()];
        for (u, cell) in uniforms.iter_mut().zip(first_cell..) {
            *u = uniform_from_bits(mix2(self.seed, cell));
        }
        inverse_normal_cdf_batch(uniforms, eff);
        for e in eff {
            *e = common_us * (params.op_jitter_sigma * *e).exp() * temp_factor;
        }
    }

    /// A lower bound on [`Self::effective_us`] over every cell: the jitter
    /// factor at `−Z_BOUND`, multiplied in the same order. The exponent
    /// sits 0.8σ below any drawable one, far beyond the rounding error of
    /// `exp`, and IEEE `*` is monotone, so no cell's duration falls below
    /// it. Exact when the pulse draws no per-cell jitter (`seed == 0`).
    pub(crate) fn min_effective_us(&self, params: &PhysicsParams, nominal_us: f64) -> f64 {
        if self.seed == 0 {
            return nominal_us * self.common_factor;
        }
        // `abs`: a negative sigma (which `validate` rejects) mirrors the
        // jitter, and the floor then sits at `+Z_BOUND`.
        let floor_factor = (params.op_jitter_sigma.abs() * -Z_BOUND).exp();
        nominal_us * self.common_factor * floor_factor
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
    fn z_bound_encloses_every_drawable_deviate() {
        let deepest = inverse_normal_cdf(uniform_from_bits(0));
        let highest = inverse_normal_cdf(uniform_from_bits(u64::MAX));
        assert!(-Z_BOUND < deepest - 0.5, "deepest z {deepest}");
        assert!(Z_BOUND > highest + 0.5, "highest z {highest}");
        for shift in 0..64 {
            for bits in [1u64 << shift, !(1u64 << shift)] {
                let z = inverse_normal_cdf(uniform_from_bits(bits));
                assert!((deepest..=highest).contains(&z), "bits {bits:#x}: z {z}");
            }
        }
    }

    #[test]
    fn min_effective_us_bounds_every_cell() {
        let params = PhysicsParams::msp430_like();
        let mut rng = SplitMix64::new(81);
        for _ in 0..8 {
            let pn = PulseNoise::draw(&params, &mut rng);
            let floor = pn.min_effective_us(&params, 25_000.0);
            for cell in 0..4096 {
                assert!(pn.effective_us(&params, cell, 25_000.0) >= floor);
            }
        }
    }

    #[test]
    fn unjittered_floor_is_exact() {
        let params = PhysicsParams::msp430_like();
        let pulse = PulseNoise {
            common_factor: 0.93,
            seed: 0,
        };
        let floor = pulse.min_effective_us(&params, 25_000.0);
        for cell in [0, 1, 4095, u64::MAX] {
            assert_eq!(
                pulse.effective_us(&params, cell, 25_000.0).to_bits(),
                floor.to_bits()
            );
        }
    }

    /// A pulse without per-cell jitter gives every cell the same duration:
    /// the closed-form full erase and the chunked exact kernel (300 cells,
    /// four full chunks and a tail) both match the scalar loop.
    #[test]
    fn unjittered_pulses_match_reference() {
        use crate::arena::{reference, CellArena};
        use crate::erase::EraseDistCache;
        let params = PhysicsParams::msp430_like();
        let pulse = PulseNoise {
            common_factor: 0.93,
            seed: 0,
        };
        let grid = params.erase_dist_grid_kcycles;
        for (nominal_us, completes) in [(25_000.0, true), (22.0, false)] {
            let mut lane = CellArena::derive(&params, 0x5EED, 0, 300);
            let stressed: Vec<bool> = (0..lane.len()).map(|i| i % 2 == 0).collect();
            lane.bulk_stress(&params, &stressed, 70_000.0);
            let mut scalar = lane.clone();
            let done = lane.erase_pulse(
                &params,
                &mut EraseDistCache::new(grid),
                0,
                &pulse,
                nominal_us,
                1.2,
            );
            let want = reference::erase_pulse(
                &mut scalar,
                &params,
                &mut EraseDistCache::new(grid),
                0,
                &pulse,
                nominal_us,
                1.2,
            );
            assert_eq!((done, want), (completes, completes), "{nominal_us} µs");
            for i in 0..lane.len() {
                assert_eq!(
                    lane.vth()[i].to_bits(),
                    scalar.vth()[i].to_bits(),
                    "{nominal_us} µs: vth {i}"
                );
                assert_eq!(
                    lane.wear_cycles()[i].to_bits(),
                    scalar.wear_cycles()[i].to_bits(),
                    "{nominal_us} µs: wear {i}"
                );
            }
        }
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
