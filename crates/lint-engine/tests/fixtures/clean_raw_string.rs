//! Fixture: forbidden patterns inside strings and comments must not fire.
//! The doc generator renders comparisons like `wear == 0.0` here.

/// Emits a code snippet for the docs; the snippet text is data, not code.
pub fn snippet() -> &'static str {
    r#"let fresh = wear == 0.0; let s = SplitMix64::new(42);"#
}

/// Raw string at hash depth two, containing an inner `"#` terminator.
pub fn nested_snippet() -> &'static str {
    r##"x.wrapping_mul(3); r#"SplitMix64::new(0xDEAD)"# y != 0.0"##
}

// A line comment mentioning x == 0.0 and SplitMix64::new(7) is also inert.
/// Byte strings carry patterns too.
pub fn byte_snippet() -> &'static [u8] {
    b"seed.wrapping_add(1) == 0.0"
}
