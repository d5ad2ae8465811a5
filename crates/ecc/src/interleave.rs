//! Invertible block interleaving.
//!
//! Replicas laid out back to back share partial-erase pulses, so a
//! common-mode timing excursion hurts the *same* logical bits in several
//! replicas at once. Interleaving spreads each replica across the segment,
//! converting correlated burst errors into independent ones that majority
//! voting handles well. This is one of the ablations DESIGN.md calls out.

use crate::CodeError;

/// A rectangular (row/column) block interleaver of a fixed depth.
///
/// Writing fills a `depth × width` matrix row by row and reads it column by
/// column. `interleave` followed by `deinterleave` is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interleaver {
    depth: usize,
}

impl Interleaver {
    /// Creates an interleaver of the given depth (number of rows).
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameter`] if `depth` is zero.
    pub fn new(depth: usize) -> Result<Self, CodeError> {
        if depth == 0 {
            return Err(CodeError::InvalidParameter(
                "interleave depth must be non-zero",
            ));
        }
        Ok(Self { depth })
    }

    /// The interleaver depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Interleaves `bits`.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] unless the length is a multiple of the
    /// depth (pad first if needed).
    pub fn interleave(&self, bits: &[bool]) -> Result<Vec<bool>, CodeError> {
        self.permute(bits, false)
    }

    /// Inverts [`Interleaver::interleave`].
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] unless the length is a multiple of the
    /// depth.
    pub fn deinterleave(&self, bits: &[bool]) -> Result<Vec<bool>, CodeError> {
        self.permute(bits, true)
    }

    fn permute(self, bits: &[bool], invert: bool) -> Result<Vec<bool>, CodeError> {
        if !bits.len().is_multiple_of(self.depth) {
            return Err(CodeError::LengthMismatch {
                got: bits.len(),
                expected: self.depth,
            });
        }
        let width = bits.len() / self.depth;
        let mut out = vec![false; bits.len()];
        for r in 0..self.depth {
            for c in 0..width {
                let row_major = r * width + c;
                let col_major = c * self.depth + r;
                if invert {
                    out[row_major] = bits[col_major];
                } else {
                    out[col_major] = bits[row_major];
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_depth() {
        assert!(Interleaver::new(0).is_err());
    }

    #[test]
    fn roundtrip_identity() {
        let il = Interleaver::new(3).unwrap();
        let bits: Vec<bool> = (0..12).map(|i| i % 5 == 0).collect();
        let inter = il.interleave(&bits).unwrap();
        assert_ne!(inter, bits, "depth-3 interleave must move bits");
        assert_eq!(il.deinterleave(&inter).unwrap(), bits);
    }

    #[test]
    fn depth_one_is_identity() {
        let il = Interleaver::new(1).unwrap();
        let bits = vec![true, false, true];
        assert_eq!(il.interleave(&bits).unwrap(), bits);
    }

    #[test]
    fn spreads_bursts() {
        // A burst of 3 consecutive channel errors lands in 3 different rows.
        let il = Interleaver::new(3).unwrap();
        let bits = vec![false; 12];
        let mut channel = il.interleave(&bits).unwrap();
        channel[0] = true;
        channel[1] = true;
        channel[2] = true;
        let back = il.deinterleave(&channel).unwrap();
        let width = 4;
        let rows_hit: std::collections::BTreeSet<usize> = back
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i / width)
            .collect();
        assert_eq!(rows_hit.len(), 3, "burst must spread across all rows");
    }

    #[test]
    fn length_must_be_multiple_of_depth() {
        let il = Interleaver::new(3).unwrap();
        assert!(il.interleave(&[true; 4]).is_err());
    }
}
