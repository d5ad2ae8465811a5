//! The scheme-generic manufacturer flow.
//!
//! [`provision`] is written once against [`WatermarkScheme`], so it runs
//! unchanged over the tPEW wear schemes (NOR, ReRAM forming stress) and
//! the intrinsic NAND PUF. The inspector side needs no wrapper: it calls
//! [`WatermarkScheme::verify`] with the published enrollment.

use crate::scheme::{ImprintCost, SchemeError, WatermarkScheme};

/// The manufacturer provisioning flow: enroll the chip, then imprint the
/// enrollment's mark. For intrinsic schemes the imprint is a free no-op and
/// the cost comes back zero.
///
/// # Errors
///
/// Backend or parameter errors from either step.
pub fn provision<S: WatermarkScheme>(
    scheme: &S,
    chip: &mut S::Chip,
    params: &S::Params,
) -> Result<(S::Enrollment, ImprintCost), SchemeError> {
    let enrollment = scheme.enroll(chip, params)?;
    let cost = scheme.imprint(chip, params, &enrollment)?;
    Ok((enrollment, cost))
}
