//! Elementary distributions used for process variation and noise.
//!
//! These are deliberately minimal: the simulator only needs normal,
//! log-normal, and uniform draws, each usable either with a sequential
//! [`SplitMix64`] stream or with a pre-drawn
//! standard-normal deviate (for static per-cell variation).

use crate::rng::SplitMix64;

/// A normal (Gaussian) distribution `N(mean, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation (must be non-negative).
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(
            mean.is_finite() && sigma.is_finite(),
            "non-finite parameter"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mean, sigma }
    }

    /// Value at a given standard-normal deviate `z`.
    #[must_use]
    pub fn at(&self, z: f64) -> f64 {
        self.mean + self.sigma * z
    }

    /// Draws a sample from the stream `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.at(rng.normal())
    }
}

/// A log-normal distribution parameterized by its **median** and log-space
/// sigma: `X = median · exp(sigma · Z)`.
///
/// This parameterization is the natural one for erase-time variation, where
/// the paper's anchors give typical (median) times and spreads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Median of the distribution (must be positive).
    pub median: f64,
    /// Log-space standard deviation (must be non-negative).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0`, `sigma < 0`, or either is non-finite.
    #[must_use]
    pub fn new(median: f64, sigma: f64) -> Self {
        assert!(
            median.is_finite() && sigma.is_finite(),
            "non-finite parameter"
        );
        assert!(median > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { median, sigma }
    }

    /// Value at a given standard-normal deviate `z`.
    #[must_use]
    pub fn at(&self, z: f64) -> f64 {
        self.median * (self.sigma * z).exp()
    }

    /// Draws a sample from the stream `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.at(rng.normal())
    }
}

/// A uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "non-finite bound");
        assert!(lo <= hi, "lo must not exceed hi");
        Self { lo, hi }
    }

    /// Value at a given unit-interval position `u ∈ [0, 1)`.
    #[must_use]
    pub fn at(&self, u: f64) -> f64 {
        self.lo + (self.hi - self.lo) * u
    }

    /// Draws a sample from the stream `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.at(rng.next_f64())
    }
}

// Coefficients of Acklam's rational approximation.
const A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
const C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
const D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];
/// The split between Acklam's central region and its two tails.
const P_LOW: f64 = 0.02425;

/// Inverse standard-normal CDF (Acklam's rational approximation).
///
/// Accurate to about 1.15e-9 over `(0, 1)`. The central region
/// `[P_LOW, 1 − P_LOW]`, where ~95 % of uniform draws land, is inlined;
/// the two tails take one out-of-line call.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
#[inline]
#[must_use]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    if is_central(p) {
        central(p)
    } else {
        tail(p)
    }
}

/// Whether `p` lies in Acklam's central region (`false` for NaN).
#[inline]
fn is_central(p: f64) -> bool {
    (P_LOW..=1.0 - P_LOW).contains(&p)
}

/// Acklam's central rational: straight-line arithmetic, so a loop of it
/// vectorizes, and SIMD lanes perform the same IEEE operations as the
/// scalar code (Rust never contracts `a * b + c` into a fused multiply-add).
#[inline]
fn central(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// Acklam's two tails, and the domain check: every `p` outside the
/// central region comes here, so NaN and values outside `(0, 1)` panic.
#[cold]
#[inline(never)]
fn tail(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// [`inverse_normal_cdf`] of every uniform in `p`, written to `z`, bit for
/// bit. The central rational runs over the whole slice without a branch
/// (one SIMD loop), then the tail lanes, ~5 % of uniform draws, are
/// patched through the scalar path. The cell kernels call this on
/// fixed-size stack chunks of their own counter-stream uniforms.
///
/// # Panics
///
/// Panics if the slices differ in length, or if any `p` is outside
/// `(0, 1)`.
#[inline]
pub(crate) fn inverse_normal_cdf_batch(p: &[f64], z: &mut [f64]) {
    assert_eq!(p.len(), z.len(), "uniform and deviate chunks differ");
    for (z, &p) in z.iter_mut().zip(p) {
        *z = central(p);
    }
    for (z, &p) in z.iter_mut().zip(p) {
        if !is_central(p) {
            *z = tail(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Standard-normal CDF Φ(z) via `erf` approximation (Abramowitz–Stegun 7.1.26).
    ///
    /// Accurate to about 1.5e-7, plenty to check the inverse against.
    fn normal_cdf(z: f64) -> f64 {
        let x = z / core::f64::consts::SQRT_2;
        0.5 * (1.0 + erf(x))
    }

    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let y = 1.0
            - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736)
                * t
                + 0.254_829_592)
                * t
                * (-x * x).exp();
        sign * y
    }

    #[test]
    fn normal_at_deviates() {
        let n = Normal::new(10.0, 2.0);
        assert_eq!(n.at(0.0).to_bits(), 10.0_f64.to_bits());
        assert_eq!(n.at(1.0).to_bits(), 12.0_f64.to_bits());
        assert_eq!(n.at(-2.0).to_bits(), 6.0_f64.to_bits());
    }

    #[test]
    fn lognormal_median_and_monotone() {
        let ln = LogNormal::new(20.0, 0.3);
        assert_eq!(ln.at(0.0).to_bits(), 20.0_f64.to_bits());
        assert!(ln.at(1.0) > ln.at(0.0));
        assert!(ln.at(-1.0) < ln.at(0.0));
        assert!(ln.at(-10.0) > 0.0, "log-normal is always positive");
    }

    #[test]
    fn uniform_at() {
        let u = Uniform::new(2.0, 4.0);
        assert_eq!(u.at(0.0).to_bits(), 2.0_f64.to_bits());
        assert_eq!(u.at(0.5).to_bits(), 3.0_f64.to_bits());
    }

    #[test]
    fn samples_respect_bounds() {
        let u = Uniform::new(-1.0, 1.0);
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = u.sample(&mut rng);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn inverse_cdf_round_trip() {
        for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let z = inverse_normal_cdf(p);
            let back = normal_cdf(z);
            assert!((back - p).abs() < 1e-4, "p={p} z={z} back={back}");
        }
    }

    #[test]
    fn inverse_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
    }

    /// Runs the batch form over `p` and checks it against the scalar spec.
    fn assert_batch_matches_scalar(p: &[f64]) {
        let mut z = vec![0.0; p.len()];
        inverse_normal_cdf_batch(p, &mut z);
        for (&p, &z) in p.iter().zip(&z) {
            assert_eq!(z.to_bits(), inverse_normal_cdf(p).to_bits(), "p {p:e}");
        }
    }

    /// The batch form equals the scalar spec bit for bit: at both region
    /// splits and their neighbouring floats, at the extreme uniforms the
    /// counter streams can draw, on 10⁶ random bit patterns, and at chunk
    /// lengths either side of one word and of one kernel chunk.
    #[test]
    fn batch_matches_scalar_bitwise() {
        use crate::rng::{mix64, uniform_from_bits};
        let hi = 1.0 - P_LOW;
        let edges = [
            P_LOW,
            P_LOW.next_up(),
            P_LOW.next_down(),
            hi,
            hi.next_up(),
            hi.next_down(),
            uniform_from_bits(0),
            uniform_from_bits(u64::MAX),
            0.5,
        ];
        assert_batch_matches_scalar(&edges);
        let random: Vec<f64> = (0..1_000_000u64)
            .map(|i| uniform_from_bits(mix64(i)))
            .collect();
        for chunk in random.chunks(64) {
            assert_batch_matches_scalar(chunk);
        }
        for len in [0, 1, 15, 16, 63, 64, 65] {
            assert_batch_matches_scalar(&random[..len]);
            let mixed: Vec<f64> = edges.iter().copied().cycle().take(len).collect();
            assert_batch_matches_scalar(&mixed);
        }
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1)")]
    fn batch_rejects_a_uniform_outside_the_unit_interval() {
        let mut z = [0.0; 3];
        inverse_normal_cdf_batch(&[0.5, 1.0, 0.25], &mut z);
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1)")]
    fn scalar_rejects_nan() {
        let _ = inverse_normal_cdf(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn normal_rejects_negative_sigma() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn lognormal_rejects_nonpositive_median() {
        let _ = LogNormal::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(2.0, 1.0);
    }
}
