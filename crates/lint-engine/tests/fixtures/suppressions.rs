//! Fixture: suppression syntax — justified, unjustified, and unknown.

/// Justified suppression: the finding is silenced and accounted.
pub fn justified(v: Option<u32>) -> u32 {
    // flashmark-lint: allow(panic-free) -- fixture: invariant checked by caller, fails closed
    v.unwrap()
}

/// Unjustified suppression: inert, and itself a finding.
pub fn unjustified(v: Option<u32>) -> u32 {
    // flashmark-lint: allow(panic-free)
    v.unwrap()
}

/// Unknown rule name: a finding; the unwrap underneath still fires.
pub fn unknown_rule(v: Option<u32>) -> u32 {
    // flashmark-lint: allow(no-such-rule) -- justification present but rule is unknown
    v.unwrap()
}

/// Multi-rule suppression covering the next line.
pub fn multi(v: Option<f64>) -> bool {
    // flashmark-lint: allow(panic-free, float-eq) -- fixture: both findings on the next line are intended
    v.unwrap() == 0.5
}
