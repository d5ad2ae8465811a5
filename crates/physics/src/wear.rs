//! Bulk wear accounting and endurance helpers.
//!
//! Imprinting a watermark applies tens of thousands of identical P/E cycles.
//! Because wear accumulation is linear in the cycle count, the end state of
//! `n` repeated cycles can be computed in closed form; [`bulk_pe_stress`] is
//! that fast path. The faithful cycle-by-cycle loop and the bulk path are
//! asserted equivalent in tests (and again at the `flashmark-core` level).

use crate::cell::{CellState, CellStatics};
use crate::params::PhysicsParams;

/// Applies `cycles` full erase+program cycles to a cell in closed form.
///
/// * `ends_programmed = true` leaves the cell programmed (the last operation
///   was a program of a 0-bit), as after `ImprintFlashmark`.
/// * `ends_programmed = false` leaves the cell erased.
///
/// `programmed_each_cycle` says whether the cell was programmed in every
/// cycle (a watermark "bad"/0 cell) or only erase-pulsed (a "good"/1 cell).
///
/// # Panics
///
/// Panics if `cycles` is negative.
pub fn bulk_pe_stress(
    params: &PhysicsParams,
    statics: &CellStatics,
    state: &mut CellState,
    cycles: f64,
    programmed_each_cycle: bool,
    ends_programmed: bool,
) {
    assert!(cycles >= 0.0, "cycle count must be non-negative");
    let per_cycle = if programmed_each_cycle {
        params.wear.program + params.wear.erase
    } else {
        params.wear.erase_only
    };
    state.wear_cycles += per_cycle * cycles;
    state.vth = if ends_programmed {
        state.vth_prog_now(params, statics)
    } else {
        state.vth_erased_now(params, statics)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erase::{apply_erase_cached, t_full_us_cached, EraseDistCache};
    use crate::program::apply_program;
    use crate::rng::SplitMix64;

    #[test]
    fn bulk_matches_loop_wear_for_programmed_cells() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 4, 4);

        let mut looped = CellState::fresh(&statics);
        let mut rng = SplitMix64::new(0);
        let mut cache = EraseDistCache::new(params.erase_dist_grid_kcycles);
        let n = 40;
        for _ in 0..n {
            // erase (from programmed, except the very first iteration)...
            let t = t_full_us_cached(&params, &statics, &looped, &mut cache) * 1.2;
            apply_erase_cached(&params, &statics, &mut looped, t, &mut cache);
            // ...then program.
            apply_program(&params, &statics, &mut looped, &mut rng);
        }

        let mut bulk = CellState::fresh(&statics);
        bulk_pe_stress(&params, &statics, &mut bulk, n as f64, true, true);

        // First loop iteration erases an *erased* cell (cheap), so the loop
        // undershoots the bulk value by at most one erase weight.
        let diff = (bulk.wear_cycles - looped.wear_cycles).abs();
        assert!(diff <= params.wear.erase + 0.11, "wear diff {diff}");
        assert!(!bulk.ideal_bit(&params), "must end programmed");
    }

    #[test]
    fn bulk_erase_only_wear_is_small() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 4, 5);
        let mut cell = CellState::fresh(&statics);
        bulk_pe_stress(&params, &statics, &mut cell, 10_000.0, false, false);
        assert!((cell.wear_cycles - 10_000.0 * params.wear.erase_only).abs() < 1e-6);
        assert!(cell.ideal_bit(&params), "must end erased");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bulk_rejects_negative_cycles() {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 4, 7);
        let mut cell = CellState::fresh(&statics);
        bulk_pe_stress(&params, &statics, &mut cell, -1.0, true, true);
    }
}
