//! A chip in the supply chain: device plus hidden provenance.

use core::fmt;

use flashmark_msp430::{Msp430Flash, Msp430Variant};

/// Ground-truth origin of a chip (hidden from the inspector, which sees only
/// the device; kept so verdicts can be scored against it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Passed die sort at the trusted manufacturer; sold new.
    GenuineAccept,
    /// Failed die sort; marked reject and scrapped — should never ship.
    GenuineReject,
    /// A genuine chip recovered from e-waste and resold as new.
    Recycled {
        /// P/E cycles of prior use on its code/data segments.
        prior_cycles: u64,
    },
    /// Fresh silicon from another fab with a genuine chip's data cloned on.
    Clone,
    /// An inferior part re-branded with the trusted manufacturer's marking
    /// (no Flashmark watermark at all).
    Rebranded,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GenuineAccept => write!(f, "genuine (accept)"),
            Self::GenuineReject => write!(f, "genuine (reject)"),
            Self::Recycled { prior_cycles } => write!(f, "recycled ({prior_cycles} cycles)"),
            Self::Clone => write!(f, "clone"),
            Self::Rebranded => write!(f, "rebranded"),
        }
    }
}

/// A chip instance moving through the supply chain.
#[derive(Debug, Clone)]
pub struct Chip {
    /// The simulated device.
    pub flash: Msp430Flash,
    /// Ground-truth provenance (for scoring only).
    pub provenance: Provenance,
    /// Printed marking on the package (what the buyer *believes*).
    pub package_marking: String,
}

impl Chip {
    /// A fresh chip straight off the trusted line (provenance set by the
    /// caller once its fate is known).
    #[must_use]
    pub fn fresh(variant: Msp430Variant, chip_seed: u64, provenance: Provenance) -> Self {
        Self {
            flash: Msp430Flash::new(variant, chip_seed),
            provenance,
            package_marking: variant.spec().name.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(Provenance::GenuineAccept.to_string(), "genuine (accept)");
        assert_eq!(
            Provenance::Recycled { prior_cycles: 5 }.to_string(),
            "recycled (5 cycles)"
        );
    }

    #[test]
    fn fresh_chip_carries_marking() {
        let c = Chip::fresh(Msp430Variant::F5529, 5, Provenance::GenuineAccept);
        assert_eq!(c.package_marking, "MSP430F5529");
    }
}
