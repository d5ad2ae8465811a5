//! Deterministic random-number generation for the simulator.
//!
//! Two kinds of randomness are needed:
//!
//! 1. **Static per-cell variation** (process variation): must be a pure
//!    function of `(chip_seed, cell_index, channel)` so that the same chip
//!    always has the same cells, regardless of the order operations touch
//!    them. See [`cell_normal`] / [`cell_uniform`], backed by
//!    [`CounterStream`].
//! 2. **Per-operation noise** (pulse jitter, read noise): counter-based
//!    [`CounterStream`]s keyed on `(op seed, entity, op counter)` for the
//!    batched kernels, and the sequential [`SplitMix64`] stream for
//!    inherently serial paths.
//!
//! Both are built on the SplitMix64 avalanche finalizer ([`mix64`]) — tiny,
//! fast, and dependency-free. The counter-based form carries no mutable
//! state, so lane kernels can evaluate draws in any order and still match a
//! scalar loop bit for bit.

/// A SplitMix64 pseudo-random generator.
///
/// Deterministic, `Copy`-cheap, and good enough statistically for Monte-Carlo
/// style simulation (it passes BigCrush as a 64-bit mixer).
///
/// # Example
///
/// ```
/// use flashmark_physics::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Returns a uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "range_usize requires n > 0");
        // Rejection-free mapping; bias is negligible for simulation sizes.
        (self.next_u64() % n as u64) as usize
    }

    /// Returns a standard-normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging the first uniform away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Derives an independent child generator; `salt` distinguishes children.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> Self {
        Self::new(mix64(self.next_u64() ^ mix64(salt)))
    }
}

/// A counter-based random stream: a pure function of
/// `(trial_seed, cell_index, op_counter)` with indexed draws.
///
/// Unlike [`SplitMix64`], a `CounterStream` carries **no mutable state**: the
/// constructor folds its three coordinates into one avalanche-mixed key, and
/// every draw is `mix2(key, draw_index)`. Because draw *i* never depends on
/// draw *i − 1*, a lane kernel can evaluate any subset of draws, in any
/// order, in bulk — and still produce bit-identical values to a scalar loop.
///
/// # Example
///
/// ```
/// use flashmark_physics::rng::CounterStream;
/// let a = CounterStream::new(7, 42, 3);
/// let b = CounterStream::new(7, 42, 3);
/// assert_eq!(a.draw_u64(0), b.draw_u64(0));
/// assert_ne!(a.draw_u64(0), CounterStream::new(7, 42, 4).draw_u64(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterStream {
    key: u64,
}

impl CounterStream {
    /// Derives the stream for operation `op_counter` of entity `cell_index`
    /// under `trial_seed`.
    #[inline]
    #[must_use]
    pub const fn new(trial_seed: u64, cell_index: u64, op_counter: u64) -> Self {
        Self {
            key: mix2(mix2(trial_seed, cell_index), op_counter),
        }
    }

    /// The mixed key; sub-streams can be derived from it with [`mix2`].
    #[must_use]
    pub const fn key(&self) -> u64 {
        self.key
    }

    /// The `draw`-th 64-bit value of the stream.
    #[inline]
    #[must_use]
    pub const fn draw_u64(&self, draw: u64) -> u64 {
        mix2(self.key, draw)
    }

    /// The `draw`-th uniform value, strictly inside `(0, 1)` (safe to feed
    /// through an inverse CDF) with 52 bits of precision.
    #[inline]
    #[must_use]
    pub fn uniform(&self, draw: u64) -> f64 {
        uniform_from_bits(self.draw_u64(draw))
    }

    /// The `draw`-th standard-normal value, via the inverse normal CDF (one
    /// uniform per normal — no Box–Muller pairing, so lanes stay branch-free
    /// and independent).
    #[inline]
    #[must_use]
    pub fn normal(&self, draw: u64) -> f64 {
        crate::variation::inverse_normal_cdf(self.uniform(draw))
    }

    /// [`Self::normal`] of draw `bit < 16`, one per bit of a flash word,
    /// bit for bit: the half of [`mix2`] that depends on the draw index
    /// comes from a table built at compile time, so a loop over a word's
    /// bits in any order hashes each draw once, as an unrolled loop does.
    #[inline]
    pub(crate) fn word_normal(self, bit: u32) -> f64 {
        const SALTS: [u64; 16] = {
            let mut salts = [0; 16];
            let mut bit = 0;
            while bit < 16 {
                salts[bit] = draw_salt(bit as u64);
                bit += 1;
            }
            salts
        };
        let bits = mix64(self.key ^ SALTS[bit as usize]);
        crate::variation::inverse_normal_cdf(uniform_from_bits(bits))
    }
}

/// Maps 64 random bits to a uniform value strictly inside `(0, 1)`.
///
/// The top 52 bits are centred on the half-step, so the result is never 0 or
/// 1 exactly — required by [`crate::variation::inverse_normal_cdf`]. (At 53
/// bits the largest value would round-to-even up to exactly 1.0.)
#[inline]
#[must_use]
pub fn uniform_from_bits(bits: u64) -> f64 {
    ((bits >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// The SplitMix64 finalizer: a high-quality 64-bit avalanche mixer.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two 64-bit values into one well-mixed value.
#[inline]
#[must_use]
pub const fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ draw_salt(b))
}

/// The half of [`mix2`] that depends only on its second argument.
#[inline]
const fn draw_salt(b: u64) -> u64 {
    mix64(b ^ 0x9E37_79B9_7F4A_7C15)
}

/// Independent draw channels for static per-cell variation.
///
/// Each channel yields an independent random stream for the same cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Channel {
    /// Log-normal erase-speed deviation (the dominant variation).
    EraseSpeed = 1,
    /// Straggler-tail selection (slow-to-erase outliers).
    StragglerSelect = 2,
    /// Straggler-tail magnitude.
    StragglerMagnitude = 3,
    /// Early-eraser trap selection (wear-activated fast-erase outliers).
    EarlySelect = 4,
    /// Early-eraser activation threshold.
    EarlyActivation = 5,
    /// Early-eraser magnitude.
    EarlyMagnitude = 6,
    /// Fresh erased-state threshold-voltage offset.
    VthErased = 7,
    /// Programmed-state threshold-voltage offset.
    VthProgrammed = 8,
    /// Full-program time deviation.
    ProgTime = 9,
    /// Retention (charge-loss rate) deviation.
    Retention = 10,
    /// Wear-susceptibility quantile (heterogeneous wear response).
    Susceptibility = 11,
}

fn cell_stream(chip_seed: u64, cell_index: u64, channel: Channel) -> CounterStream {
    CounterStream::new(chip_seed, cell_index, channel as u64)
}

/// Deterministic uniform draw strictly inside `(0, 1)` for a cell/channel
/// pair, drawn from the counter-based stream at `(chip_seed, cell_index,
/// channel)`.
#[must_use]
pub fn cell_uniform(chip_seed: u64, cell_index: u64, channel: Channel) -> f64 {
    cell_stream(chip_seed, cell_index, channel).uniform(0)
}

/// Deterministic standard-normal draw for a cell/channel pair, via the
/// inverse normal CDF (no Box–Muller pairing: one uniform per normal keeps
/// bulk derivation loops branch-light and transcendental-free).
#[must_use]
pub fn cell_normal(chip_seed: u64, cell_index: u64, channel: Channel) -> f64 {
    cell_stream(chip_seed, cell_index, channel).normal(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = SplitMix64::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SplitMix64::new(99);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn cell_draws_are_pure_functions() {
        let a = cell_normal(0xABCD, 17, Channel::EraseSpeed);
        let b = cell_normal(0xABCD, 17, Channel::EraseSpeed);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn cell_channels_are_independent() {
        let a = cell_normal(0xABCD, 17, Channel::EraseSpeed);
        let b = cell_normal(0xABCD, 17, Channel::VthErased);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn cells_differ() {
        let a = cell_normal(0xABCD, 17, Channel::EraseSpeed);
        let b = cell_normal(0xABCD, 18, Channel::EraseSpeed);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn chips_differ() {
        let a = cell_normal(1, 17, Channel::EraseSpeed);
        let b = cell_normal(2, 17, Channel::EraseSpeed);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn range_usize_bounds() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.range_usize(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "requires n > 0")]
    fn range_usize_zero_panics() {
        SplitMix64::new(0).range_usize(0);
    }

    #[test]
    fn counter_stream_is_a_pure_function_of_its_coordinates() {
        let a = CounterStream::new(0xABCD, 17, 5);
        let b = CounterStream::new(0xABCD, 17, 5);
        for draw in 0..64 {
            assert_eq!(a.draw_u64(draw), b.draw_u64(draw));
            assert_eq!(a.uniform(draw).to_bits(), b.uniform(draw).to_bits());
            assert_eq!(a.normal(draw).to_bits(), b.normal(draw).to_bits());
        }
    }

    #[test]
    fn word_normal_is_normal_bitwise() {
        for key in [0, 1, 0xFEED, u64::MAX] {
            let s = CounterStream::new(key, 0x5E45, key.rotate_left(7));
            for bit in 0..16 {
                assert_eq!(
                    s.word_normal(bit).to_bits(),
                    s.normal(u64::from(bit)).to_bits(),
                    "key {key:#x} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn counter_stream_coordinates_are_independent() {
        let base = CounterStream::new(1, 2, 3).draw_u64(0);
        assert_ne!(CounterStream::new(9, 2, 3).draw_u64(0), base);
        assert_ne!(CounterStream::new(1, 9, 3).draw_u64(0), base);
        assert_ne!(CounterStream::new(1, 2, 9).draw_u64(0), base);
        assert_ne!(CounterStream::new(1, 2, 3).draw_u64(1), base);
    }

    #[test]
    fn counter_stream_uniform_is_strictly_inside_unit_interval() {
        // Exercise the extreme bit patterns directly: all-zero and all-one
        // top bits must still land strictly inside (0, 1).
        assert!(uniform_from_bits(0) > 0.0);
        assert!(uniform_from_bits(u64::MAX) < 1.0);
        let s = CounterStream::new(0xFEED, 0, 0);
        for draw in 0..10_000 {
            let u = s.uniform(draw);
            assert!(u > 0.0 && u < 1.0, "u = {u}");
        }
    }

    #[test]
    fn counter_stream_normal_moments() {
        let s = CounterStream::new(0x1234, 7, 0);
        let n = 100_000u64;
        let draws: Vec<f64> = (0..n).map(|d| s.normal(d)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }
}
