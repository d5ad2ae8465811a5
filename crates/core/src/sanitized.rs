//! The sanitized entry point: run any Flashmark procedure under the
//! flash-protocol sanitizer and get the violation report back with the
//! result.
//!
//! [`run_sanitized`] wraps the flash in a [`SanitizedFlash`], which
//! collects violations, for the duration of one closure. The sanitizer never changes behavior, so the value
//! computed is identical to the unsanitized call — what's added is the
//! [`Violation`] list. The test suite runs the clean-path algorithm tests
//! through it to prove the reference flows are protocol-clean.

use flashmark_nor::FlashInterface;
use flashmark_sanitizer::{SanitizedFlash, Violation};

/// Runs `op` against a sanitizer-wrapped borrow of `flash` and returns its
/// result alongside the collected violations (also on error — a failing run
/// often has the most interesting violation report).
pub fn run_sanitized<F, T, E>(
    flash: &mut F,
    op: impl FnOnce(&mut SanitizedFlash<&mut F>) -> Result<T, E>,
) -> (Result<T, E>, Vec<Violation>)
where
    F: FlashInterface,
{
    let mut sanitized = SanitizedFlash::new(&mut *flash);
    let result = op(&mut sanitized);
    (result, sanitized.take_violations())
}
