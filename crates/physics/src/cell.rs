//! Per-cell state: static process variation and dynamic threshold voltage.

use crate::params::PhysicsParams;
use crate::rng::{cell_normal, cell_uniform, Channel, SplitMix64};
use crate::variation::Uniform;

/// A wear-activated early-eraser trap.
///
/// Once the cell's wear exceeds `activation_kcycles`, its erase time is
/// multiplied by `factor` (< 1): trap-assisted tunneling makes the worn cell
/// erase anomalously fast. This is the physical mechanism behind the paper's
/// observation (Fig. 10) that stressed "bad" cells are mischaracterized as
/// "good" much more often than the reverse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyTrap {
    /// Wear level at which the trap becomes conductive.
    pub activation_kcycles: f64,
    /// Erase-time multiplier once active (in `(0, 1]`).
    pub factor: f64,
}

/// Static (lifetime-constant) properties of one cell, fixed at manufacture.
///
/// Derived as a pure function of `(chip_seed, cell_index)` so that the same
/// simulated chip always has the same cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStatics {
    /// Standard-normal deviate of the log-normal erase-speed variation.
    pub erase_z: f64,
    /// Extra slowdown if this cell is a straggler (`1 + extra` multiplier).
    pub straggler_extra: Option<f64>,
    /// Early-eraser trap, if this cell has one.
    pub early: Option<EarlyTrap>,
    /// Fresh erased-state threshold voltage (V).
    pub vth_erased0: f64,
    /// Programmed-state threshold voltage (V).
    pub vth_prog0: f64,
    /// Time to fully program this cell from erased (µs).
    pub prog_time_us: f64,
    /// Relative retention (charge-loss) rate deviation, standard-normal.
    pub retention_z: f64,
    /// Wear susceptibility: the cell's effective wear is `susceptibility ×
    /// raw wear`. Most cells sit near 1; a calibrated minority of weak
    /// responders barely ages (see
    /// [`SusceptibilityTable`](crate::calibration::SusceptibilityTable)).
    pub susceptibility: f64,
}

impl CellStatics {
    /// Derives the statics of cell `cell_index` on chip `chip_seed`.
    #[must_use]
    pub fn derive(params: &PhysicsParams, chip_seed: u64, cell_index: u64) -> Self {
        let straggler_extra = if cell_uniform(chip_seed, cell_index, Channel::StragglerSelect)
            < params.tails.straggler_prob
        {
            Some(
                params.tails.straggler_max_extra
                    * cell_uniform(chip_seed, cell_index, Channel::StragglerMagnitude),
            )
        } else {
            None
        };
        let early = if cell_uniform(chip_seed, cell_index, Channel::EarlySelect)
            < params.tails.early_prob_cap
        {
            let span = params.tails.early_activation_span_kcycles;
            let factor = Uniform::new(params.tails.early_factor_lo, params.tails.early_factor_hi)
                .at(cell_uniform(chip_seed, cell_index, Channel::EarlyMagnitude));
            Some(EarlyTrap {
                activation_kcycles: span
                    * cell_uniform(chip_seed, cell_index, Channel::EarlyActivation),
                factor,
            })
        } else {
            None
        };
        Self {
            erase_z: cell_normal(chip_seed, cell_index, Channel::EraseSpeed),
            straggler_extra,
            early,
            vth_erased0: params.vth_erased.at(cell_normal(
                chip_seed,
                cell_index,
                Channel::VthErased,
            )),
            vth_prog0: params.vth_programmed.at(cell_normal(
                chip_seed,
                cell_index,
                Channel::VthProgrammed,
            )),
            prog_time_us: params.prog_full_time_us.at(cell_normal(
                chip_seed,
                cell_index,
                Channel::ProgTime,
            )),
            retention_z: cell_normal(chip_seed, cell_index, Channel::Retention),
            susceptibility: params.susceptibility.at(cell_uniform(
                chip_seed,
                cell_index,
                Channel::Susceptibility,
            )),
        }
    }

    /// Log-domain straggler slowdown: `ln(1 + extra)`, or `0.0` for the
    /// non-straggler majority. The lane encoding used by the erase kernels —
    /// adding it in log space is exactly multiplying by `1 + extra`.
    #[must_use]
    pub fn ln_straggler(&self) -> f64 {
        self.straggler_extra.map_or(0.0, |extra| (1.0 + extra).ln())
    }

    /// Early-trap activation threshold in kcycles, or `+∞` for cells without
    /// a trap (an infinite threshold never activates — branch-free lanes).
    #[must_use]
    pub fn early_activation_kcycles(&self) -> f64 {
        self.early
            .map_or(f64::INFINITY, |trap| trap.activation_kcycles)
    }

    /// Log-domain early-trap speedup: `ln(factor)`, or `0.0` for cells
    /// without a trap.
    #[must_use]
    pub fn ln_early_factor(&self) -> f64 {
        self.early.map_or(0.0, |trap| trap.factor.ln())
    }
}

/// Dynamic state of one cell: its threshold voltage and accumulated wear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellState {
    /// Current threshold voltage (V). Below `vref` the cell reads `1`
    /// (erased / conducting); above, it reads `0` (programmed).
    pub vth: f64,
    /// Accumulated oxide wear, in equivalent full P/E cycles. Monotone
    /// non-decreasing over the cell's life — wear is irreversible.
    pub wear_cycles: f64,
}

impl CellState {
    /// A factory-fresh cell: erased, zero wear.
    #[must_use]
    pub fn fresh(statics: &CellStatics) -> Self {
        Self {
            vth: statics.vth_erased0,
            wear_cycles: 0.0,
        }
    }

    /// Wear expressed in kcycles (the unit the calibration tables use).
    #[must_use]
    pub fn wear_kcycles(&self) -> f64 {
        self.wear_cycles / 1000.0
    }

    /// Effective wear (kcycles) seen by this cell's oxide: raw wear scaled
    /// by the cell's susceptibility.
    #[must_use]
    pub fn effective_wear_kcycles(&self, statics: &CellStatics) -> f64 {
        self.wear_kcycles() * statics.susceptibility
    }

    /// Erased-state threshold voltage at the current wear (worn cells erase
    /// shallower).
    #[must_use]
    pub fn vth_erased_now(&self, params: &PhysicsParams, statics: &CellStatics) -> f64 {
        statics.vth_erased0
            + params.erased_vth_shift_per_kcycle * self.effective_wear_kcycles(statics)
    }

    /// Programmed-state threshold voltage at the current wear.
    #[must_use]
    pub fn vth_prog_now(&self, params: &PhysicsParams, statics: &CellStatics) -> f64 {
        statics.vth_prog0
            + params.programmed_vth_shift_per_kcycle * self.effective_wear_kcycles(statics)
    }

    /// Noise-free logical value: `true` (reads 1) if erased.
    #[must_use]
    pub fn ideal_bit(&self, params: &PhysicsParams) -> bool {
        self.vth < params.vref.get()
    }
}

/// Senses the cell once: returns `true` for logic 1 (erased / conducting).
///
/// A fresh noise draw is taken from `rng`, so repeated reads of a cell whose
/// threshold voltage sits near the reference may disagree — exactly the
/// behaviour the paper's N-read majority vote (`AnalyzeSegment`) targets.
pub fn sense(params: &PhysicsParams, state: &CellState, rng: &mut SplitMix64) -> bool {
    let noise = params.read_noise_sigma * rng.normal();
    state.vth + noise < params.vref.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhysicsParams;

    fn setup() -> (PhysicsParams, CellStatics) {
        let params = PhysicsParams::msp430_like();
        let statics = CellStatics::derive(&params, 0xDEAD_BEEF, 7);
        (params, statics)
    }

    #[test]
    fn statics_are_deterministic() {
        let params = PhysicsParams::msp430_like();
        let a = CellStatics::derive(&params, 1, 2);
        let b = CellStatics::derive(&params, 1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_cell_reads_one() {
        let (params, statics) = setup();
        let cell = CellState::fresh(&statics);
        assert!(cell.ideal_bit(&params));
        assert_eq!(cell.wear_cycles.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn vth_levels_ordered() {
        let (params, statics) = setup();
        assert!(statics.vth_erased0 < params.vref.get());
        assert!(statics.vth_prog0 > params.vref.get());
    }

    #[test]
    fn wear_shifts_erased_level_up() {
        let (params, statics) = setup();
        let fresh = CellState::fresh(&statics);
        let worn = CellState {
            vth: statics.vth_erased0,
            wear_cycles: 50_000.0,
        };
        assert!(worn.vth_erased_now(&params, &statics) > fresh.vth_erased_now(&params, &statics));
    }

    #[test]
    fn sense_is_reliable_far_from_vref() {
        let (params, statics) = setup();
        let cell = CellState::fresh(&statics);
        let mut rng = SplitMix64::new(9);
        assert!((0..100).all(|_| sense(&params, &cell, &mut rng)));
        let programmed = CellState {
            vth: statics.vth_prog0,
            wear_cycles: 0.0,
        };
        assert!((0..100).all(|_| !sense(&params, &programmed, &mut rng)));
    }

    #[test]
    fn sense_is_noisy_at_the_boundary() {
        let (params, statics) = setup();
        let boundary = CellState {
            vth: params.vref.get(),
            wear_cycles: 0.0,
        };
        let mut rng = SplitMix64::new(10);
        let ones = (0..1000)
            .filter(|_| sense(&params, &boundary, &mut rng))
            .count();
        assert!((300..700).contains(&ones), "expected ~50% ones, got {ones}");
        let _ = statics;
    }

    #[test]
    fn tail_fractions_roughly_match_params() {
        let params = PhysicsParams::msp430_like();
        let n = 20_000u64;
        let mut stragglers = 0;
        let mut earlies = 0;
        for i in 0..n {
            let s = CellStatics::derive(&params, 0xFEED, i);
            if s.straggler_extra.is_some() {
                stragglers += 1;
            }
            if s.early.is_some() {
                earlies += 1;
            }
        }
        let sf = stragglers as f64 / n as f64;
        let ef = earlies as f64 / n as f64;
        assert!(
            (sf - params.tails.straggler_prob).abs() < 0.005,
            "straggler frac {sf}"
        );
        assert!(
            (ef - params.tails.early_prob_cap).abs() < 0.01,
            "early frac {ef}"
        );
    }
}
