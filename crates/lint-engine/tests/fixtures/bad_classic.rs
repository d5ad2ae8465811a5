//! Fixture: classic-family violations — float-eq, wrapping-audit.

/// Exact comparison with zero: the one float compare clippy skips.
pub fn is_unworn(wear: f64) -> bool {
    wear == 0.0
}

/// A non-zero exact compare is clippy's `float_cmp`, not the engine's.
pub fn same_level(a: f64) -> bool {
    a == 0.5
}

/// Silent wraparound in numeric simulation code.
pub fn next_state(s: u64) -> u64 {
    s.wrapping_mul(6_364_136_223_846_793_005)
}
