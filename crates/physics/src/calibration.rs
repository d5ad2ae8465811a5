//! Wear → erase-speed calibration, anchored to the paper's measurements.
//!
//! The Flashmark paper (Fig. 4) reports, for a 512-byte segment (4096 cells)
//! of an MSP430F5438 embedded NOR flash, the minimum partial-erase time at
//! which **all** cells read erased, as a function of prior P/E stress:
//!
//! | stress (P/E cycles) | all-cells-erased time |
//! |---|---|
//! | 0 K   | 35 µs  |
//! | 20 K  | 115 µs |
//! | 40 K  | 203 µs |
//! | 60 K  | 226 µs |
//! | 80 K  | 687 µs |
//! | 100 K | 811 µs |
//!
//! and, for the unstressed segment, an erase onset of ≈18 µs. Fig. 5 further
//! implies that at `tPE` = 23 µs about 94 % of fresh cells already read erased
//! while a 50 K segment is still almost fully programmed.
//!
//! We model the per-cell time-to-erase (threshold crossing time from the fully
//! programmed state) as log-normal: `T = median(w) · exp(sigma(w) · Z_cell)`,
//! with `median` and `sigma` interpolated from the anchor table below, plus
//! small straggler/early-eraser tails (see
//! [`TailParams`](crate::params::TailParams)). The anchor values were fitted
//! so that the extreme order statistics of 4096 cells land on the paper's
//! numbers.

use crate::variation::LogNormal;

/// One calibration anchor: erase-time distribution at a given wear level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearAnchor {
    /// Wear level in thousands of P/E cycles.
    pub kcycles: f64,
    /// Median time-to-erase from the programmed state, in microseconds.
    pub median_us: f64,
    /// Log-space sigma of the cell-to-cell erase-time distribution.
    pub sigma: f64,
}

impl WearAnchor {
    /// Creates an anchor.
    #[must_use]
    pub const fn new(kcycles: f64, median_us: f64, sigma: f64) -> Self {
        Self {
            kcycles,
            median_us,
            sigma,
        }
    }
}

/// Default anchor table fitted to the paper's Fig. 4/5 measurements.
///
/// Anchors describe the erase-time distribution of cells at a given
/// *effective* wear (raw wear × the cell's susceptibility, see
/// [`SusceptibilityTable`]); the fully-susceptible bulk of a segment
/// stressed `w` kcycles sits at effective wear ≈ `w`.
pub const MSP430_ANCHORS: &[WearAnchor] = &[
    WearAnchor::new(0.0, 20.0, 0.080),
    WearAnchor::new(5.0, 32.0, 0.120),
    WearAnchor::new(10.0, 40.0, 0.140),
    WearAnchor::new(20.0, 62.0, 0.160),
    WearAnchor::new(40.0, 116.0, 0.180),
    WearAnchor::new(60.0, 118.0, 0.180),
    WearAnchor::new(70.0, 125.0, 0.180),
    WearAnchor::new(80.0, 300.0, 0.260),
    WearAnchor::new(100.0, 345.0, 0.260),
];

/// Per-cell wear susceptibility: the heterogeneous wear response of flash
/// cells.
///
/// Oxide degradation is driven by trap generation, a strongly cell-dependent
/// percolation process: a minority of cells barely responds to stress (their
/// erase stays near-fresh-fast even after tens of kcycles) while the bulk
/// slows down in unison. A cell's *effective* wear is
/// `susceptibility × raw wear`.
///
/// This is the physical mechanism behind two of the paper's observations:
///
/// * the high single-copy extraction BER at low imprint levels (Fig. 9 —
///   weak-responder "bad" cells erase early and are misread as "good"), and
/// * the bad→good error asymmetry (Fig. 10).
///
/// The default quantile table is calibrated so that the weak-responder
/// fraction reproduces the paper's measured BER minima (19.9 % → 2.3 % for
/// 20 K → 80 K).
#[derive(Debug, Clone, PartialEq)]
pub struct SusceptibilityTable {
    /// `(cumulative probability, susceptibility)` points, both ascending.
    quantiles: Vec<(f64, f64)>,
}

impl SusceptibilityTable {
    /// Builds a table from `(cumulative probability, susceptibility)` pairs.
    ///
    /// # Errors
    ///
    /// [`CalibrationError::InvalidAnchor`] if the pairs are not ascending in
    /// both coordinates or do not span probabilities 0..=1.
    pub fn from_quantiles(quantiles: Vec<(f64, f64)>) -> Result<Self, CalibrationError> {
        if quantiles.len() < 2 {
            return Err(CalibrationError::InvalidAnchor);
        }
        let first = quantiles[0].0;
        let Some(&(last, _)) = quantiles.last() else {
            return Err(CalibrationError::InvalidAnchor);
        };
        // Anchor endpoints must sit at probabilities 0 and 1 (to float
        // tolerance — no exact f64 equality).
        if first.abs() > 1e-12 || (last - 1.0).abs() > 1e-12 {
            return Err(CalibrationError::InvalidAnchor);
        }
        for pair in quantiles.windows(2) {
            if pair[1].0 < pair[0].0 || pair[1].1 < pair[0].1 {
                return Err(CalibrationError::InvalidAnchor);
            }
        }
        if quantiles
            .iter()
            .any(|&(u, s)| !u.is_finite() || !s.is_finite() || s <= 0.0)
        {
            return Err(CalibrationError::InvalidAnchor);
        }
        Ok(Self { quantiles })
    }

    /// The default table calibrated to the paper's Fig. 9 BER minima.
    #[expect(
        clippy::missing_panics_doc,
        reason = "builtin table is statically valid"
    )]
    #[must_use]
    pub fn msp430() -> Self {
        Self::from_quantiles(vec![
            (0.000, 0.018),
            (0.010, 0.035),
            (0.040, 0.048),
            (0.110, 0.058),
            (0.300, 0.090),
            (0.390, 0.150),
            (0.450, 0.250),
            (0.490, 0.700),
            (0.530, 1.000),
            (0.900, 1.060),
            (1.000, 1.150),
        ])
        .expect("builtin table is valid")
    }

    /// Susceptibility at cumulative probability `u` (piecewise-linear
    /// inverse CDF).
    #[expect(
        clippy::missing_panics_doc,
        reason = "constructor guarantees >= 2 quantiles"
    )]
    #[must_use]
    pub fn at(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        for pair in self.quantiles.windows(2) {
            let (u0, s0) = pair[0];
            let (u1, s1) = pair[1];
            if u >= u0 && u <= u1 {
                let f = if u1 > u0 { (u - u0) / (u1 - u0) } else { 0.0 };
                return s0 + f * (s1 - s0);
            }
        }
        self.quantiles.last().expect("non-empty").1
    }

    /// Fraction of cells with susceptibility below `s` (piecewise-linear
    /// CDF; the inverse of [`SusceptibilityTable::at`]).
    #[must_use]
    pub fn fraction_below(&self, s: f64) -> f64 {
        if s <= self.quantiles[0].1 {
            return 0.0;
        }
        for pair in self.quantiles.windows(2) {
            let (u0, s0) = pair[0];
            let (u1, s1) = pair[1];
            if s >= s0 && s <= s1 {
                let f = if s1 > s0 { (s - s0) / (s1 - s0) } else { 1.0 };
                return u0 + f * (u1 - u0);
            }
        }
        1.0
    }
}

impl Default for SusceptibilityTable {
    fn default() -> Self {
        Self::msp430()
    }
}

/// Piecewise-linear interpolation over a wear-anchor table.
///
/// Median and sigma are interpolated independently; beyond the last anchor the
/// median keeps growing at the final slope (wear keeps hurting past the rated
/// endurance) while sigma is held at its last value.
///
/// # Example
///
/// ```
/// use flashmark_physics::EraseCalibration;
/// let cal = EraseCalibration::msp430();
/// assert!(cal.median_us(40.0) > cal.median_us(0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EraseCalibration {
    anchors: Vec<WearAnchor>,
}

impl EraseCalibration {
    /// Builds a calibration from an anchor table.
    ///
    /// # Errors
    ///
    /// Returns an error if the table is empty, not sorted by `kcycles`, or
    /// contains non-monotone medians, non-positive medians, or negative
    /// sigmas — all of which would break the physical invariant that wear
    /// slows erase down.
    pub fn from_anchors(anchors: Vec<WearAnchor>) -> Result<Self, CalibrationError> {
        if anchors.is_empty() {
            return Err(CalibrationError::Empty);
        }
        for pair in anchors.windows(2) {
            if pair[1].kcycles <= pair[0].kcycles {
                return Err(CalibrationError::UnsortedWear);
            }
            if pair[1].median_us < pair[0].median_us {
                return Err(CalibrationError::NonMonotoneMedian);
            }
        }
        for a in &anchors {
            let median_ok = a.median_us.is_finite() && a.median_us > 0.0;
            if !median_ok || a.sigma < 0.0 || !a.kcycles.is_finite() {
                return Err(CalibrationError::InvalidAnchor);
            }
        }
        Ok(Self { anchors })
    }

    /// The default calibration fitted to the paper's MSP430 measurements.
    #[expect(
        clippy::missing_panics_doc,
        reason = "builtin table is statically valid"
    )]
    #[must_use]
    pub fn msp430() -> Self {
        Self::from_anchors(MSP430_ANCHORS.to_vec()).expect("builtin table is valid")
    }

    /// A calibration with all times scaled by `factor` (e.g. a faster
    /// stand-alone NOR part, per the paper's Section V remark).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            anchors: self
                .anchors
                .iter()
                .map(|a| WearAnchor::new(a.kcycles, a.median_us * factor, a.sigma))
                .collect(),
        }
    }

    /// Median time-to-erase (µs) at `kcycles` of wear.
    #[must_use]
    pub fn median_us(&self, kcycles: f64) -> f64 {
        self.interp(kcycles, |a| a.median_us, true)
    }

    /// Log-space sigma at `kcycles` of wear.
    #[must_use]
    pub fn sigma(&self, kcycles: f64) -> f64 {
        self.interp(kcycles, |a| a.sigma, false)
    }

    /// The erase-time distribution at `kcycles` of wear (tails not included).
    #[must_use]
    pub fn distribution(&self, kcycles: f64) -> LogNormal {
        LogNormal::new(self.median_us(kcycles), self.sigma(kcycles).max(0.0))
    }

    fn interp(&self, kcycles: f64, f: impl Fn(&WearAnchor) -> f64, extrapolate: bool) -> f64 {
        let k = kcycles.max(0.0);
        let a = &self.anchors;
        if k <= a[0].kcycles {
            return f(&a[0]);
        }
        if let Some(last) = a.last() {
            if k >= last.kcycles {
                if extrapolate && a.len() >= 2 {
                    let prev = &a[a.len() - 2];
                    let slope = (f(last) - f(prev)) / (last.kcycles - prev.kcycles);
                    return f(last) + slope * (k - last.kcycles);
                }
                return f(last);
            }
        }
        for pair in a.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            if k >= lo.kcycles && k <= hi.kcycles {
                let t = (k - lo.kcycles) / (hi.kcycles - lo.kcycles);
                return f(lo) + t * (f(hi) - f(lo));
            }
        }
        f(a.last().expect("non-empty"))
    }
}

impl Default for EraseCalibration {
    fn default() -> Self {
        Self::msp430()
    }
}

/// Errors building an [`EraseCalibration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// The anchor table was empty.
    Empty,
    /// Anchors were not strictly increasing in wear.
    UnsortedWear,
    /// Median erase time decreased with wear.
    NonMonotoneMedian,
    /// An anchor had a non-positive median, negative sigma, or NaN.
    InvalidAnchor,
}

impl core::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Empty => write!(f, "calibration anchor table is empty"),
            Self::UnsortedWear => write!(f, "anchors are not strictly increasing in wear"),
            Self::NonMonotoneMedian => write!(f, "median erase time decreases with wear"),
            Self::InvalidAnchor => write!(f, "anchor has invalid median, sigma, or wear"),
        }
    }
}

impl std::error::Error for CalibrationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_anchors_exactly() {
        let cal = EraseCalibration::msp430();
        for a in MSP430_ANCHORS {
            assert!((cal.median_us(a.kcycles) - a.median_us).abs() < 1e-12);
            assert!((cal.sigma(a.kcycles) - a.sigma).abs() < 1e-12);
        }
    }

    #[test]
    fn median_interpolates_between_anchors() {
        let cal = EraseCalibration::msp430();
        let m = cal.median_us(30.0); // between 62 (20K) and 116 (40K)
        assert!((62.0..=116.0).contains(&m), "m = {m}");
        assert!((m - 89.0).abs() < 1e-9, "linear midpoint expected, got {m}");
    }

    #[test]
    fn median_is_monotone_in_wear() {
        let cal = EraseCalibration::msp430();
        let mut prev = 0.0;
        for i in 0..=240 {
            let k = i as f64 * 0.5;
            let m = cal.median_us(k);
            assert!(m >= prev, "median decreased at {k} kcycles");
            prev = m;
        }
    }

    #[test]
    fn extrapolates_beyond_endurance() {
        let cal = EraseCalibration::msp430();
        assert!(cal.median_us(150.0) > cal.median_us(100.0));
        // Sigma is clamped, not extrapolated.
        assert_eq!(cal.sigma(150.0).to_bits(), cal.sigma(100.0).to_bits());
    }

    #[test]
    fn scaled_calibration_scales_medians_only() {
        let cal = EraseCalibration::msp430();
        let fast = cal.scaled(0.2);
        assert!((fast.median_us(0.0) - cal.median_us(0.0) * 0.2).abs() < 1e-12);
        assert_eq!(fast.sigma(40.0).to_bits(), cal.sigma(40.0).to_bits());
    }

    #[test]
    fn rejects_bad_tables() {
        assert_eq!(
            EraseCalibration::from_anchors(vec![]).unwrap_err(),
            CalibrationError::Empty
        );
        let unsorted = vec![
            WearAnchor::new(10.0, 20.0, 0.1),
            WearAnchor::new(5.0, 30.0, 0.1),
        ];
        assert_eq!(
            EraseCalibration::from_anchors(unsorted).unwrap_err(),
            CalibrationError::UnsortedWear
        );
        let decreasing = vec![
            WearAnchor::new(0.0, 30.0, 0.1),
            WearAnchor::new(10.0, 20.0, 0.1),
        ];
        assert_eq!(
            EraseCalibration::from_anchors(decreasing).unwrap_err(),
            CalibrationError::NonMonotoneMedian
        );
        let invalid = vec![WearAnchor::new(0.0, -1.0, 0.1)];
        assert_eq!(
            EraseCalibration::from_anchors(invalid).unwrap_err(),
            CalibrationError::InvalidAnchor
        );
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let msg = CalibrationError::Empty.to_string();
        assert!(msg.starts_with("calibration"));
        assert!(!msg.ends_with('.'));
    }
}
