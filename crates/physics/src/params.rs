//! Simulation parameter set and presets.

use crate::calibration::{EraseCalibration, SusceptibilityTable};
use crate::retention::RetentionParams;
use crate::units::Volts;
use crate::variation::{LogNormal, Normal};

/// Relative oxide-wear contribution of each operation type.
///
/// One *full* P/E cycle (program from erased, then erase from programmed)
/// contributes `program + erase = 1.0` cycle of wear. An erase pulse applied
/// to an already-erased cell ("erase-only", what the watermark's *good* cells
/// experience during imprinting) contributes far less, because there is no
/// charge to tunnel through the oxide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearWeights {
    /// Wear (in cycles) from fully programming an erased cell.
    pub program: f64,
    /// Wear (in cycles) from fully erasing a programmed cell.
    pub erase: f64,
    /// Wear (in cycles) from an erase pulse on an already-erased cell.
    pub erase_only: f64,
}

impl Default for WearWeights {
    fn default() -> Self {
        Self {
            program: 0.55,
            erase: 0.45,
            erase_only: 0.02,
        }
    }
}

/// Parameters of the non-Gaussian tails of the erase-time distribution.
///
/// * **Stragglers** — a small static fraction of cells erases markedly slower
///   than the log-normal bulk; these set the "all cells erased" times in
///   Fig. 4 of the paper.
/// * **Early erasers** — wear-activated trap-assisted-tunneling cells that
///   erase markedly *faster* once their activation wear is exceeded. These
///   produce the paper's observed asymmetry (Fig. 10): a stressed "bad" cell
///   is far more likely to be misread as "good" than vice versa.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailParams {
    /// Fraction of cells that are stragglers.
    pub straggler_prob: f64,
    /// Maximum extra slowdown of a straggler (multiplier is `1 + U·max`).
    pub straggler_max_extra: f64,
    /// Fraction of cells that are *potential* early erasers.
    pub early_prob_cap: f64,
    /// Wear (kcycles) span over which early erasers activate uniformly.
    pub early_activation_span_kcycles: f64,
    /// Lower bound of the early-eraser speedup factor.
    pub early_factor_lo: f64,
    /// Upper bound of the early-eraser speedup factor.
    pub early_factor_hi: f64,
}

impl Default for TailParams {
    fn default() -> Self {
        Self {
            straggler_prob: 0.02,
            straggler_max_extra: 0.30,
            early_prob_cap: 0.02,
            early_activation_span_kcycles: 120.0,
            early_factor_lo: 0.50,
            early_factor_hi: 0.90,
        }
    }
}

/// Default erase-distribution quantization grid, in kcycles of effective
/// wear. A power of two so `k / grid` is an exact scaling, and fine enough
/// (0.25 kcycles ≈ 250 raw cycles at susceptibility 1) that the quantization
/// error is far below the log-normal per-cell spread.
pub const DEFAULT_ERASE_DIST_GRID_KCYCLES: f64 = 0.25;

/// Full physical parameter set of a flash cell population.
///
/// Construct with a preset ([`PhysicsParams::msp430_like`] is the paper's
/// device) or via [`PhysicsParams::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicsParams {
    /// Read reference voltage: a cell senses `1` (erased) when its threshold
    /// voltage is below this level.
    pub vref: Volts,
    /// Fresh erased-state threshold-voltage distribution (static per cell).
    pub vth_erased: Normal,
    /// Programmed-state threshold-voltage distribution (static per cell).
    pub vth_programmed: Normal,
    /// Per-read sensing noise sigma, in volts.
    pub read_noise_sigma: f64,
    /// Per-cell, per-pulse log-normal jitter sigma on effective pulse time.
    pub op_jitter_sigma: f64,
    /// Common-mode (whole-pulse) log-normal jitter sigma; correlates errors
    /// between replicas extracted in the same partial-erase pulse.
    pub common_jitter_sigma: f64,
    /// Upward shift of the erased-state threshold voltage per kcycle of wear
    /// (trapped charge makes worn cells erase shallower), volts.
    pub erased_vth_shift_per_kcycle: f64,
    /// Upward shift of the programmed-state threshold voltage per kcycle.
    pub programmed_vth_shift_per_kcycle: f64,
    /// Wear contribution of each operation type.
    pub wear: WearWeights,
    /// Effective activation energy (eV) of the Fowler–Nordheim erase rate:
    /// erase runs faster at higher die temperature. Zero disables the
    /// temperature dependence.
    pub erase_activation_energy_ev: f64,
    /// Reference die temperature (°C) at which the calibration tables hold.
    pub ref_temp_c: f64,
    /// Rated endurance in kcycles (100 K for the paper's parts).
    pub endurance_kcycles: f64,
    /// Wear → erase-time calibration.
    pub erase_cal: EraseCalibration,
    /// Quantization step (kcycles of effective wear) of the erase-time
    /// distribution lookup table: every effective-wear key is rounded to the
    /// nearest multiple of this grid before the calibration interpolation.
    /// Part of the committed parameter record — changing it changes every
    /// erase-time draw, so it is versioned alongside the calibration tables.
    pub erase_dist_grid_kcycles: f64,
    /// Per-cell wear-susceptibility distribution (heterogeneous response).
    pub susceptibility: SusceptibilityTable,
    /// Tail behaviour of the erase-time distribution.
    pub tails: TailParams,
    /// Distribution of the full-program time per cell, µs.
    pub prog_full_time_us: LogNormal,
    /// Fractional program-time speedup per kcycle of effective wear: worn
    /// oxide traps assist injection, so stressed cells program *faster* —
    /// the signature the FFD/timing-based recycled-flash detectors (paper
    /// refs \[6\], \[7\]) exploit.
    pub prog_speedup_per_kcycle: f64,
    /// Charge-retention (bake) parameters.
    pub retention: RetentionParams,
}

impl PhysicsParams {
    /// Parameters fitted to the paper's MSP430F5438/F5529 embedded NOR flash.
    #[must_use]
    pub fn msp430_like() -> Self {
        Self {
            vref: Volts::new(3.2),
            vth_erased: Normal::new(1.8, 0.06),
            vth_programmed: Normal::new(5.6, 0.08),
            read_noise_sigma: 0.04,
            op_jitter_sigma: 0.02,
            common_jitter_sigma: 0.04,
            erased_vth_shift_per_kcycle: 0.004,
            programmed_vth_shift_per_kcycle: 0.002,
            wear: WearWeights::default(),
            erase_activation_energy_ev: 0.10,
            ref_temp_c: 25.0,
            endurance_kcycles: 100.0,
            erase_cal: EraseCalibration::msp430(),
            erase_dist_grid_kcycles: DEFAULT_ERASE_DIST_GRID_KCYCLES,
            susceptibility: SusceptibilityTable::msp430(),
            tails: TailParams::default(),
            prog_full_time_us: LogNormal::new(45.0, 0.08),
            prog_speedup_per_kcycle: 0.005,
            retention: RetentionParams::default(),
        }
    }

    /// A generic discrete NOR part: same dynamics, slightly wider variation.
    #[must_use]
    pub fn generic_nor() -> Self {
        let mut p = Self::msp430_like();
        p.vth_erased = Normal::new(1.8, 0.09);
        p.vth_programmed = Normal::new(5.6, 0.12);
        p.read_noise_sigma = 0.05;
        p
    }

    /// A fast stand-alone NOR part (the paper notes imprint times would be
    /// much smaller on such devices): all erase times scaled down 5×.
    #[must_use]
    pub fn fast_standalone_nor() -> Self {
        let mut p = Self::msp430_like();
        p.erase_cal = p.erase_cal.scaled(0.2);
        p.prog_full_time_us = LogNormal::new(9.0, 0.08);
        p
    }

    /// Starts building a custom parameter set from the MSP430 preset.
    #[must_use]
    pub fn builder() -> PhysicsParamsBuilder {
        PhysicsParamsBuilder {
            params: Self::msp430_like(),
        }
    }

    /// Sanity-checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant, e.g. a read
    /// reference outside the erased/programmed window.
    pub fn validate(&self) -> Result<(), String> {
        let vref = self.vref.get();
        let ordered = self.vth_erased.mean < vref && vref < self.vth_programmed.mean;
        if !ordered {
            return Err("vref must sit between the erased and programmed vth means".into());
        }
        if self.read_noise_sigma < 0.0
            || self.op_jitter_sigma < 0.0
            || self.common_jitter_sigma < 0.0
        {
            return Err("noise sigmas must be non-negative".into());
        }
        if self.endurance_kcycles <= 0.0 {
            return Err("endurance must be positive".into());
        }
        let max_shift = self.erased_vth_shift_per_kcycle * 2.0 * self.endurance_kcycles;
        if self.vth_erased.mean + max_shift >= self.vref.get() {
            return Err(
                "erased vth shift reaches vref within 2x endurance; cells would never erase".into(),
            );
        }
        if self.tails.early_factor_lo <= 0.0 || self.tails.early_factor_hi > 1.0 {
            return Err("early-eraser factors must lie in (0, 1]".into());
        }
        if self.tails.early_factor_lo > self.tails.early_factor_hi {
            return Err("early-eraser factor bounds are inverted".into());
        }
        if !(self.erase_dist_grid_kcycles > 0.0 && self.erase_dist_grid_kcycles.is_finite()) {
            return Err("erase-distribution grid must be positive and finite".into());
        }
        Ok(())
    }
}

impl Default for PhysicsParams {
    fn default() -> Self {
        Self::msp430_like()
    }
}

/// Builder for [`PhysicsParams`].
///
/// # Example
///
/// ```
/// use flashmark_physics::PhysicsParams;
/// let p = PhysicsParams::builder()
///     .read_noise_sigma(0.02)
///     .endurance_kcycles(50.0)
///     .build()
///     .expect("valid parameters");
/// assert_eq!(p.endurance_kcycles, 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicsParamsBuilder {
    params: PhysicsParams,
}

impl PhysicsParamsBuilder {
    /// Sets the read reference voltage.
    #[must_use]
    pub fn vref(mut self, v: Volts) -> Self {
        self.params.vref = v;
        self
    }

    /// Sets the fresh erased-state VTH distribution.
    #[must_use]
    pub fn vth_erased(mut self, d: Normal) -> Self {
        self.params.vth_erased = d;
        self
    }

    /// Sets the programmed-state VTH distribution.
    #[must_use]
    pub fn vth_programmed(mut self, d: Normal) -> Self {
        self.params.vth_programmed = d;
        self
    }

    /// Sets the per-read sensing-noise sigma (volts).
    #[must_use]
    pub fn read_noise_sigma(mut self, sigma: f64) -> Self {
        self.params.read_noise_sigma = sigma;
        self
    }

    /// Sets the per-cell per-pulse jitter sigma.
    #[must_use]
    pub fn op_jitter_sigma(mut self, sigma: f64) -> Self {
        self.params.op_jitter_sigma = sigma;
        self
    }

    /// Sets the common-mode per-pulse jitter sigma.
    #[must_use]
    pub fn common_jitter_sigma(mut self, sigma: f64) -> Self {
        self.params.common_jitter_sigma = sigma;
        self
    }

    /// Sets the wear weights.
    #[must_use]
    pub fn wear(mut self, w: WearWeights) -> Self {
        self.params.wear = w;
        self
    }

    /// Sets the rated endurance.
    #[must_use]
    pub fn endurance_kcycles(mut self, k: f64) -> Self {
        self.params.endurance_kcycles = k;
        self
    }

    /// Sets the erase calibration table.
    #[must_use]
    pub fn erase_cal(mut self, cal: EraseCalibration) -> Self {
        self.params.erase_cal = cal;
        self
    }

    /// Sets the erase-distribution quantization grid (kcycles).
    #[must_use]
    pub fn erase_dist_grid_kcycles(mut self, grid: f64) -> Self {
        self.params.erase_dist_grid_kcycles = grid;
        self
    }

    /// Sets the wear-susceptibility distribution.
    #[must_use]
    pub fn susceptibility(mut self, table: SusceptibilityTable) -> Self {
        self.params.susceptibility = table;
        self
    }

    /// Sets the tail parameters.
    #[must_use]
    pub fn tails(mut self, t: TailParams) -> Self {
        self.params.tails = t;
        self
    }

    /// Sets the retention parameters.
    #[must_use]
    pub fn retention(mut self, r: RetentionParams) -> Self {
        self.params.retention = r;
        self
    }

    /// Finishes building.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (see [`PhysicsParams::validate`]).
    pub fn build(self) -> Result<PhysicsParams, String> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        PhysicsParams::msp430_like().validate().unwrap();
        PhysicsParams::generic_nor().validate().unwrap();
        PhysicsParams::fast_standalone_nor().validate().unwrap();
    }

    #[test]
    fn default_is_msp430() {
        assert_eq!(PhysicsParams::default(), PhysicsParams::msp430_like());
    }

    #[test]
    fn builder_overrides_fields() {
        let p = PhysicsParams::builder()
            .read_noise_sigma(0.01)
            .endurance_kcycles(42.0)
            .build()
            .unwrap();
        assert_eq!(p.read_noise_sigma.to_bits(), 0.01_f64.to_bits());
        assert_eq!(p.endurance_kcycles.to_bits(), 42.0_f64.to_bits());
    }

    #[test]
    fn builder_rejects_inconsistent_vref() {
        let err = PhysicsParams::builder()
            .vref(Volts::new(1.0))
            .build()
            .unwrap_err();
        assert!(err.contains("vref"), "unexpected message: {err}");
    }

    #[test]
    fn builder_rejects_excessive_erased_shift() {
        let mut p = PhysicsParams::msp430_like();
        p.erased_vth_shift_per_kcycle = 0.05;
        assert!(p.validate().is_err());
    }

    #[test]
    fn builder_rejects_bad_grid() {
        assert!(PhysicsParams::builder()
            .erase_dist_grid_kcycles(0.0)
            .build()
            .is_err());
        assert!(PhysicsParams::builder()
            .erase_dist_grid_kcycles(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn fast_preset_is_actually_faster() {
        let slow = PhysicsParams::msp430_like();
        let fast = PhysicsParams::fast_standalone_nor();
        assert!(fast.erase_cal.median_us(0.0) < slow.erase_cal.median_us(0.0));
    }

    #[test]
    fn full_pe_cycle_wear_is_one() {
        let w = WearWeights::default();
        assert!((w.program + w.erase - 1.0).abs() < 1e-12);
        assert!(w.erase_only < w.erase);
    }
}
