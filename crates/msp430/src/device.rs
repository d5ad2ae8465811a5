//! Device variants and their memory maps.

use core::fmt;

use flashmark_nor::{FlashGeometry, FlashTimings};
use flashmark_physics::PhysicsParams;

use crate::datasheet;

/// The microcontroller variants used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msp430Variant {
    /// MSP430F5438: 256 KB main flash (4 banks × 128 × 512 B segments).
    F5438,
    /// MSP430F5529: 128 KB main flash (4 banks × 64 × 512 B segments).
    F5529,
}

impl Msp430Variant {
    /// The specification of this variant.
    #[expect(
        clippy::missing_panics_doc,
        reason = "builtin geometries are statically valid"
    )]
    #[must_use]
    pub fn spec(self) -> DeviceSpec {
        match self {
            Self::F5438 => DeviceSpec {
                variant: self,
                name: "MSP430F5438",
                main_geometry: FlashGeometry::new(4, 128, 512).expect("valid"),
                info_geometry: FlashGeometry::new(1, 4, 128).expect("valid"),
                ram_bytes: 16 * 1024,
                timings: datasheet::timings(),
                endurance_cycles: datasheet::ENDURANCE_CYCLES,
            },
            Self::F5529 => DeviceSpec {
                variant: self,
                name: "MSP430F5529",
                main_geometry: FlashGeometry::new(4, 64, 512).expect("valid"),
                info_geometry: FlashGeometry::new(1, 4, 128).expect("valid"),
                ram_bytes: 8 * 1024,
                timings: datasheet::timings(),
                endurance_cycles: datasheet::ENDURANCE_CYCLES,
            },
        }
    }

    /// Physics parameter set of this family (identical across the family;
    /// the paper notes chips within a family behave consistently).
    #[must_use]
    pub fn physics(self) -> PhysicsParams {
        PhysicsParams::msp430_like()
    }
}

impl fmt::Display for Msp430Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Static specification of one device variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Which variant this is.
    pub variant: Msp430Variant,
    /// Marketing name.
    pub name: &'static str,
    /// Main flash geometry.
    pub main_geometry: FlashGeometry,
    /// Info memory geometry (segments D..A).
    pub info_geometry: FlashGeometry,
    /// RAM size (for completeness of the memory map).
    pub ram_bytes: u32,
    /// Flash operation timings.
    pub timings: FlashTimings,
    /// Rated endurance in P/E cycles.
    pub endurance_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5438_memory_map() {
        let s = Msp430Variant::F5438.spec();
        assert_eq!(s.main_geometry.total_words() * 2, 256 * 1024);
        assert_eq!(s.info_geometry.total_words() * 2, 512);
        assert_eq!(s.main_geometry.cells_per_segment(), 4096);
        assert_eq!(s.name, "MSP430F5438");
    }

    #[test]
    fn f5529_memory_map() {
        let s = Msp430Variant::F5529.spec();
        assert_eq!(s.main_geometry.total_words() * 2, 128 * 1024);
        assert_eq!(s.ram_bytes, 8 * 1024);
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(Msp430Variant::F5438.to_string(), "MSP430F5438");
    }

    #[test]
    fn physics_is_family_wide() {
        assert_eq!(
            Msp430Variant::F5438.physics(),
            Msp430Variant::F5529.physics()
        );
    }
}
