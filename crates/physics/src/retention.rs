//! Charge retention: slow threshold-voltage drift of programmed cells.
//!
//! Stored charge leaks off the floating gate over years (faster at higher
//! temperature and on worn oxide). Two facts matter for Flashmark:
//!
//! 1. retention loss can flip *stored data*, but
//! 2. it does **not** touch the accumulated oxide wear — the watermark lives
//!    in wear, and extraction re-programs the segment anyway, so a watermark
//!    survives arbitrarily long storage. A test asserts exactly this at the
//!    `flashmark-core` level.

use crate::cell::{CellState, CellStatics};
use crate::params::PhysicsParams;

/// Retention-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionParams {
    /// VTH loss per decade of storage time at the reference temperature, for
    /// a fresh cell (volts/decade).
    pub dv_per_decade: f64,
    /// Normalization time for the logarithmic decay (hours).
    pub t0_hours: f64,
    /// Relative retention-rate spread across cells (multiplier sigma).
    pub cell_sigma: f64,
    /// Extra fractional loss rate per kcycle of wear (worn oxide leaks more).
    pub wear_accel_per_kcycle: f64,
    /// Activation energy (eV) for the Arrhenius temperature acceleration.
    pub activation_energy_ev: f64,
    /// Reference temperature (°C) at which `dv_per_decade` applies.
    pub ref_temp_c: f64,
}

impl Default for RetentionParams {
    fn default() -> Self {
        Self {
            dv_per_decade: 0.035,
            t0_hours: 1.0,
            cell_sigma: 0.15,
            wear_accel_per_kcycle: 0.01,
            activation_energy_ev: 1.1,
            ref_temp_c: 25.0,
        }
    }
}

const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;

/// Arrhenius acceleration factor of `temp_c` relative to the reference.
#[must_use]
pub fn arrhenius_factor(params: &RetentionParams, temp_c: f64) -> f64 {
    let t = temp_c + 273.15;
    let t_ref = params.ref_temp_c + 273.15;
    (params.activation_energy_ev / BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)).exp()
}

/// Applies `hours` of storage at `temp_c` to the cell.
///
/// Programmed cells lose threshold voltage logarithmically in time; erased
/// cells are unaffected (no stored charge). Wear is untouched.
pub fn apply_bake(
    params: &PhysicsParams,
    statics: &CellStatics,
    state: &mut CellState,
    hours: f64,
    temp_c: f64,
) {
    debug_assert!(hours >= 0.0, "negative bake time");
    let r = &params.retention;
    let floor = state.vth_erased_now(params, statics);
    if state.vth <= floor {
        return;
    }
    let accel = arrhenius_factor(r, temp_c);
    let decades = (1.0 + hours * accel / r.t0_hours).log10();
    let cell_rate = (r.cell_sigma * statics.retention_z).exp();
    let wear_accel = 1.0 + r.wear_accel_per_kcycle * state.wear_kcycles();
    let dv = r.dv_per_decade * decades * cell_rate * wear_accel;
    state.vth = (state.vth - dv).max(floor);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellStatics;
    use crate::program::apply_program;
    use crate::rng::SplitMix64;

    fn programmed(idx: u64) -> (PhysicsParams, CellStatics, CellState) {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 0xBA4E, idx);
        let mut state = CellState::fresh(&statics);
        let mut rng = SplitMix64::new(idx);
        apply_program(&params, &statics, &mut state, &mut rng);
        (params, statics, state)
    }

    #[test]
    fn bake_lowers_programmed_vth() {
        let (params, statics, mut state) = programmed(1);
        let v0 = state.vth;
        apply_bake(&params, &statics, &mut state, 24.0 * 365.0, 25.0);
        assert!(state.vth < v0);
    }

    #[test]
    fn bake_never_touches_wear() {
        let (params, statics, mut state) = programmed(2);
        let w0 = state.wear_cycles;
        apply_bake(&params, &statics, &mut state, 1e6, 125.0);
        assert_eq!(state.wear_cycles.to_bits(), w0.to_bits());
    }

    #[test]
    fn erased_cells_unaffected() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 0xBA4E, 3);
        let mut state = CellState::fresh(&statics);
        let v0 = state.vth;
        apply_bake(&params, &statics, &mut state, 1e5, 85.0);
        assert_eq!(state.vth.to_bits(), v0.to_bits());
    }

    #[test]
    fn hotter_bake_loses_more() {
        let (params, statics, state0) = programmed(4);
        let mut cold = state0;
        let mut hot = state0;
        apply_bake(&params, &statics, &mut cold, 1000.0, 25.0);
        apply_bake(&params, &statics, &mut hot, 1000.0, 85.0);
        assert!(hot.vth < cold.vth);
    }

    #[test]
    fn vth_floors_at_erased_level() {
        let (params, statics, mut state) = programmed(5);
        apply_bake(&params, &statics, &mut state, 1e12, 150.0);
        assert!(state.vth >= state.vth_erased_now(&params, &statics) - 1e-12);
    }

    #[test]
    fn arrhenius_is_one_at_reference() {
        let r = RetentionParams::default();
        assert!((arrhenius_factor(&r, r.ref_temp_c) - 1.0).abs() < 1e-12);
        assert!(arrhenius_factor(&r, r.ref_temp_c + 60.0) > 10.0);
    }

    #[test]
    fn ten_year_room_bake_keeps_data_on_fresh_cell() {
        // A fresh programmed cell must still read 0 after 10 years at 25 °C
        // (the usual datasheet retention promise).
        let (params, statics, mut state) = programmed(6);
        apply_bake(&params, &statics, &mut state, 10.0 * 8760.0, 25.0);
        assert!(!state.ideal_bit(&params), "data lost after 10-year bake");
        let _ = statics;
    }
}
