//! A minimal, dependency-free, deterministic stand-in for the `proptest`
//! crate.
//!
//! This workspace builds in fully offline environments where crates.io is
//! unreachable, so the real `proptest` cannot be fetched. The property tests
//! only use a small slice of its API; this crate reimplements exactly that
//! slice with deterministic pseudo-random sampling:
//!
//! * [`proptest!`] — the test-generating macro, including an optional
//!   `#![proptest_config(...)]` header;
//! * [`any`] — an [`Arbitrary`]-driven full-range strategy;
//! * integer and float [`Range`] strategies;
//! * [`collection::vec`] — vectors of a strategy with a length range;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`].
//!
//! Sampling is seeded from the test's module path and name plus the case
//! index, so failures reproduce exactly across runs and machines. There is
//! no shrinking: a failing case panics with the sampled inputs printed via
//! the normal assertion message.

use core::marker::PhantomData;
use core::ops::Range;

/// Per-test-run configuration. Mirrors the subset of
/// `proptest::test_runner::Config` the workspace uses.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// Deterministic generator handed to [`Strategy::sample`].
///
/// SplitMix64 under the hood: tiny, fast, and statistically fine for test
/// input generation.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// A generator seeded from raw state.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A generator for one case of one named property, derived from the
    /// property name and the case index so every case is distinct but
    /// reproducible.
    #[must_use]
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of test values. The shim equivalent of `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, g: &mut Gen) -> Self::Value;
}

/// Types that can be drawn uniformly over their whole domain via [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(g: &mut Gen) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(g: &mut Gen) -> Self {
                g.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(g: &mut Gen) -> Self {
        g.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// A strategy producing any value of `T` (full domain, uniform).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, g: &mut Gen) -> T {
        T::arbitrary(g)
    }
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is irrelevant at test-input quality.
                self.start + (g.next_u64() % span) as $t
            }
        }
    )*};
}
range_strategy_int!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + g.next_f64() * (self.end - self.start)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Gen, Strategy};
    use core::ops::Range;

    /// A strategy for vectors of another strategy's values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Vectors of `elem` values with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, g: &mut Gen) -> Vec<S::Value> {
            let n = self.len.clone().sample(g);
            (0..n).map(|_| self.elem.sample(g)).collect()
        }
    }
}

/// Everything a property-test file needs in scope.
/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _g: &mut Gen) -> T {
        self.0.clone()
    }
}

/// A uniform choice between boxed strategies of one value type; built by
/// [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// An empty union (sampling panics until an option is added).
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: Vec::new(),
        }
    }

    /// Adds one alternative.
    #[must_use]
    pub fn or(mut self, strategy: impl Strategy<Value = T> + 'static) -> Self {
        self.options.push(Box::new(strategy));
        self
    }
}

impl<T> Default for Union<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, g: &mut Gen) -> T {
        assert!(
            !self.options.is_empty(),
            "prop_oneof! needs at least one strategy"
        );
        let i = (g.next_u64() as usize) % self.options.len();
        self.options[i].sample(g)
    }
}

/// Uniformly picks one of the given strategies per sample (no weight
/// support, unlike real proptest).
#[macro_export]
macro_rules! prop_oneof {
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::Union::new() $( .or($strat) )+
    };
}

/// The glob-importable surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Gen, Just, ProptestConfig, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property (plain `assert!` here — no
/// shrinking, the failing inputs are visible in the assertion message).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when an assumption does not hold.
///
/// Expands to `continue` targeting the case loop [`proptest!`] generates, so
/// it must appear at the top level of the property body (not inside a nested
/// loop) — which is how the workspace uses it.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Declares property tests. Supports the forms the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     /// Doc comment.
///     #[test]
///     fn my_property(x in any::<u64>(), v in collection::vec(0u8..4, 1..12)) {
///         prop_assert!(x == x);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __gen = $crate::Gen::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $( let $arg = $crate::Strategy::sample(&($strat), &mut __gen); )*
                $body
            }
        }
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::for_case("x", 3);
        let mut b = Gen::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = Gen::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut g = Gen::new(7);
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut g);
            assert!((3..17).contains(&v));
            let f = (0.5f64..2.5).sample(&mut g);
            assert!((0.5..2.5).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_length_in_range() {
        let mut g = Gen::new(9);
        for _ in 0..200 {
            let v = collection::vec(any::<u16>(), 1..64).sample(&mut g);
            assert!((1..64).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro itself compiles and iterates.
        #[test]
        fn macro_generates_cases(x in any::<u64>(), small in 0u8..4) {
            prop_assert!(small < 4);
            prop_assert_eq!(x, x);
            prop_assume!(x != 1);
            prop_assert_ne!(x, 1);
        }
    }
}
