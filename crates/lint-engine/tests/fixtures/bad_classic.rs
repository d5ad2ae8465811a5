//! Fixture: classic-family violations — float-eq, print-discipline,
//! wrapping-audit.

/// Exact float comparison against a simulated threshold.
pub fn same_level(a: f64) -> bool {
    a == 0.5
}

/// Library code writing to stdout/stderr.
pub fn narrate(step: u32) {
    println!("step {step}");
    eprintln!("step {step} done");
}

/// Silent wraparound in numeric simulation code.
pub fn next_state(s: u64) -> u64 {
    s.wrapping_mul(6_364_136_223_846_793_005)
}
