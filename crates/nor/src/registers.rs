//! MSP430-style register front-end (`FCTL1/FCTL3`).
//!
//! Real firmware drives the flash controller through password-protected
//! control registers: set a mode bit (`ERASE`, `WRT`, …) in `FCTL1`, clear
//! `LOCK` in `FCTL3`, then perform a (dummy) write into the flash address
//! range to trigger the operation. This module reproduces that protocol on
//! top of [`FlashController`], including the `0xA5` password, the `KEYV`
//! (key violation) and `ACCVIFG` (access violation) flags, and the `EMEX`
//! emergency exit used for partial erases.
//!
//! It exists for interface fidelity (and negative testing); the Flashmark
//! algorithms themselves use the plain [`FlashInterface`] methods.

use flashmark_physics::Micros;

use crate::addr::{SegmentAddr, WordAddr};
use crate::controller::FlashController;
use crate::error::NorError;
use crate::interface::FlashInterface;

/// Password that must be in the high byte of every register write (`FWKEY`).
pub const FWKEY: u16 = 0xA500;
/// Key returned in the high byte of every register read (`FRKEY`).
#[cfg(test)]
const FRKEY: u16 = 0x9600;

/// `FCTL1.ERASE`: next flash write triggers a segment erase.
pub const ERASE: u16 = 0x0002;
/// `FCTL1.MERAS`: next flash write triggers a mass erase.
pub const MERAS: u16 = 0x0004;
/// `FCTL1.WRT`: word/byte write mode.
pub const WRT: u16 = 0x0040;
/// `FCTL1.BLKWRT`: block write mode.
pub const BLKWRT: u16 = 0x0080;

/// `FCTL3.KEYV`: a register write used a bad key.
pub const KEYV: u16 = 0x0002;
/// `FCTL3.ACCVIFG`: access violation interrupt flag.
pub const ACCVIFG: u16 = 0x0004;
/// `FCTL3.LOCK`: controller locked.
pub const LOCK: u16 = 0x0010;
/// `FCTL3.EMEX`: emergency exit — aborts the operation in progress.
pub const EMEX: u16 = 0x0020;

/// The modelled flash control registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fctl {
    /// Operation mode bits.
    Fctl1,
    /// Lock/status bits.
    Fctl3,
}

/// Register-protocol adapter over a [`FlashController`].
#[derive(Debug, Clone)]
pub struct RegisterFront {
    ctl: FlashController,
    fctl1: u16,
    fctl3: u16,
}

impl RegisterFront {
    /// Wraps a controller; the device powers up locked, as real parts do.
    #[must_use]
    pub fn new(mut ctl: FlashController) -> Self {
        ctl.lock();
        Self {
            ctl,
            fctl1: 0,
            fctl3: LOCK,
        }
    }

    /// The wrapped controller.
    #[must_use]
    pub fn controller(&self) -> &FlashController {
        &self.ctl
    }

    /// Reads a control register (high byte reads back as `FRKEY`).
    #[cfg(test)]
    fn read_register(&self, reg: Fctl) -> u16 {
        let low = match reg {
            Fctl::Fctl1 => self.fctl1,
            Fctl::Fctl3 => self.fctl3,
        };
        FRKEY | (low & 0x00FF)
    }

    /// Writes a control register. The high byte must be the `0xA5` password.
    ///
    /// # Errors
    ///
    /// Returns [`NorError::KeyViolation`] (and latches `KEYV`) on a bad key.
    pub fn write_register(&mut self, reg: Fctl, value: u16) -> Result<(), NorError> {
        if value & 0xFF00 != FWKEY {
            self.fctl3 |= KEYV;
            return Err(NorError::KeyViolation);
        }
        let low = value & 0x00FF;
        match reg {
            Fctl::Fctl1 => self.fctl1 = low,
            Fctl::Fctl3 => {
                // KEYV and ACCVIFG are sticky; writing 0 clears them.
                self.fctl3 = low;
                if low & LOCK != 0 {
                    self.ctl.lock();
                } else {
                    self.ctl.unlock();
                }
            }
        }
        Ok(())
    }

    /// Reads a flash word (always allowed).
    ///
    /// # Errors
    ///
    /// Address errors from the controller.
    pub fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.ctl.read_word(word)
    }

    /// A CPU write into the flash address range: the triggered operation
    /// depends on the `FCTL1` mode bits, exactly as on real parts.
    ///
    /// * `ERASE` set → dummy write triggers an erase of the containing
    ///   segment (the data value is ignored); `ERASE` self-clears.
    /// * `WRT` set → programs `value` into `word`.
    /// * neither → access violation (`ACCVIFG` latches).
    ///
    /// # Errors
    ///
    /// [`NorError::Locked`], [`NorError::AccessViolation`], or address
    /// errors.
    pub fn write_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        if self.fctl3 & LOCK != 0 {
            return Err(NorError::Locked);
        }
        if self.fctl1 & (ERASE | MERAS) != 0 {
            let seg = self.ctl.geometry().segment_of(word);
            if self.fctl1 & MERAS != 0 {
                self.ctl.mass_erase()?;
            } else {
                self.ctl.erase_segment(seg)?;
            }
            self.fctl1 &= !(ERASE | MERAS); // self-clearing
            Ok(())
        } else if self.fctl1 & (WRT | BLKWRT) != 0 {
            self.ctl.program_word(word, value)
        } else {
            self.fctl3 |= ACCVIFG;
            Err(NorError::AccessViolation { word: word.index() })
        }
    }

    /// Starts an erase of `seg` and issues the `EMEX` emergency exit after
    /// `t_pe` — the register-level form of the partial erase.
    ///
    /// Requires `ERASE` mode set and the controller unlocked; `ERASE`
    /// self-clears afterwards.
    ///
    /// # Errors
    ///
    /// [`NorError::Locked`], [`NorError::AccessViolation`] if `ERASE` is not
    /// set, or address errors.
    pub fn emergency_exit_after(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        if self.fctl3 & LOCK != 0 {
            return Err(NorError::Locked);
        }
        if self.fctl1 & ERASE == 0 {
            self.fctl3 |= ACCVIFG;
            return Err(NorError::AccessViolation {
                word: self.ctl.geometry().first_word(seg).index(),
            });
        }
        self.ctl.partial_erase(seg, t_pe)?;
        self.fctl1 &= !ERASE;
        self.fctl3 |= EMEX; // latched until FCTL3 is rewritten
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::timing::FlashTimings;
    use flashmark_physics::PhysicsParams;

    fn front() -> RegisterFront {
        RegisterFront::new(FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(4),
            FlashTimings::msp430(),
            0xF407,
        ))
    }

    fn unlock(f: &mut RegisterFront) {
        f.write_register(Fctl::Fctl3, FWKEY).unwrap();
    }

    #[test]
    fn powers_up_locked() {
        let mut f = front();
        assert_eq!(f.read_register(Fctl::Fctl3) & LOCK, LOCK);
        assert_eq!(
            f.write_word(WordAddr::new(0), 0).unwrap_err(),
            NorError::Locked
        );
    }

    #[test]
    fn bad_key_latches_keyv() {
        let mut f = front();
        let err = f.write_register(Fctl::Fctl3, 0x0000).unwrap_err();
        assert_eq!(err, NorError::KeyViolation);
        assert_eq!(f.read_register(Fctl::Fctl3) & KEYV, KEYV);
        // Clearing with a correct key resets the flag.
        f.write_register(Fctl::Fctl3, FWKEY).unwrap();
        assert_eq!(f.read_register(Fctl::Fctl3) & KEYV, 0);
    }

    #[test]
    fn register_reads_return_frkey() {
        let f = front();
        assert_eq!(f.read_register(Fctl::Fctl1) & 0xFF00, FRKEY);
    }

    #[test]
    fn write_without_mode_is_access_violation() {
        let mut f = front();
        unlock(&mut f);
        let err = f.write_word(WordAddr::new(5), 0x1234).unwrap_err();
        assert!(matches!(err, NorError::AccessViolation { word: 5 }));
        assert_eq!(f.read_register(Fctl::Fctl3) & ACCVIFG, ACCVIFG);
    }

    #[test]
    fn wrt_mode_programs() {
        let mut f = front();
        unlock(&mut f);
        f.write_register(Fctl::Fctl1, FWKEY | WRT).unwrap();
        f.write_word(WordAddr::new(5), 0x5443).unwrap();
        assert_eq!(f.read_word(WordAddr::new(5)).unwrap(), 0x5443);
    }

    #[test]
    fn erase_mode_dummy_write_erases_segment_and_self_clears() {
        let mut f = front();
        unlock(&mut f);
        f.write_register(Fctl::Fctl1, FWKEY | WRT).unwrap();
        f.write_word(WordAddr::new(5), 0x0000).unwrap();
        f.write_register(Fctl::Fctl1, FWKEY | ERASE).unwrap();
        f.write_word(WordAddr::new(0), 0xBEEF).unwrap(); // dummy
        assert_eq!(
            f.read_register(Fctl::Fctl1) & ERASE,
            0,
            "ERASE must self-clear"
        );
        assert_eq!(f.read_word(WordAddr::new(5)).unwrap(), 0xFFFF);
    }

    #[test]
    fn emergency_exit_requires_erase_mode() {
        let mut f = front();
        unlock(&mut f);
        let err = f
            .emergency_exit_after(SegmentAddr::new(0), Micros::new(20.0))
            .unwrap_err();
        assert!(matches!(err, NorError::AccessViolation { .. }));
    }

    #[test]
    fn emergency_exit_performs_partial_erase() {
        let mut f = front();
        unlock(&mut f);
        // Program the segment fully, then partially erase 20 µs.
        f.write_register(Fctl::Fctl1, FWKEY | WRT).unwrap();
        for w in f.controller().geometry().segment_words(SegmentAddr::new(0)) {
            f.write_word(w, 0x0000).unwrap();
        }
        f.write_register(Fctl::Fctl1, FWKEY | ERASE).unwrap();
        f.emergency_exit_after(SegmentAddr::new(0), Micros::new(19.5))
            .unwrap();
        assert_eq!(f.read_register(Fctl::Fctl3) & EMEX, EMEX);
        // A mid-range fraction of the fresh cells should have crossed.
        let ones: u32 = (0..256)
            .map(|i| f.read_word(WordAddr::new(i)).unwrap().count_ones())
            .sum();
        assert!((500..3500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn mass_erase_via_registers() {
        let mut f = front();
        unlock(&mut f);
        f.write_register(Fctl::Fctl1, FWKEY | WRT).unwrap();
        f.write_word(WordAddr::new(0), 0x0000).unwrap();
        f.write_word(WordAddr::new(256), 0x0000).unwrap();
        f.write_register(Fctl::Fctl1, FWKEY | MERAS).unwrap();
        f.write_word(WordAddr::new(0), 0x0).unwrap();
        assert_eq!(f.read_word(WordAddr::new(0)).unwrap(), 0xFFFF);
        assert_eq!(f.read_word(WordAddr::new(256)).unwrap(), 0xFFFF);
    }
}
