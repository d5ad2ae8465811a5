//! Error-correction and integrity codes for flash watermarks.
//!
//! The paper hardens watermark extraction with **data replication plus
//! majority voting** (3/5/7 replicas, Fig. 10–11) and suggests error
//! correction codes as the alternative at equal overhead. This crate
//! provides both families behind one [`Code`] trait, plus the CRC signatures
//! used for tamper detection:
//!
//! * [`Repetition`] — k-way block replication with bitwise majority voting,
//! * [`Hamming`] — Hamming(15,11), optionally extended with an overall
//!   parity bit for double-error detection,
//! * [`crc`] — CRC-8/16/32 signatures.
//!
//! # Example
//!
//! ```
//! use flashmark_ecc::{Code, Repetition};
//!
//! let code = Repetition::new(5).unwrap();
//! let data = vec![true, false, true, true];
//! let mut tx = code.encode(&data);
//! tx[1] = !tx[1]; // corrupt one replica bit
//! tx[6] = !tx[6]; // and another, in a different replica
//! let rx = code.decode(&tx).unwrap();
//! assert_eq!(rx.data, data);
//! assert_eq!(rx.corrected, 2);
//! ```

pub mod bits;
pub mod crc;
pub mod hamming;
pub mod majority;
pub mod repetition;

pub use bits::{bits_from_bytes, bytes_from_bits, hamming_distance};
pub use hamming::Hamming;
pub use majority::MajorityVote;
pub use repetition::Repetition;

/// Outcome of a decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Recovered data bits.
    pub data: Vec<bool>,
    /// Number of channel bits the decoder corrected (for repetition codes,
    /// the number of replica bits outvoted).
    pub corrected: usize,
    /// The decoder saw errors it could detect but not correct.
    pub detected_uncorrectable: bool,
}

/// Errors from encode/decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// The input length does not match what the code expects.
    LengthMismatch {
        /// Length supplied.
        got: usize,
        /// Length required (or the required multiple).
        expected: usize,
    },
    /// A code parameter was invalid (e.g. an even replication factor).
    InvalidParameter(&'static str),
}

impl core::fmt::Display for CodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::LengthMismatch { got, expected } => {
                write!(f, "input length {got} does not match expected {expected}")
            }
            Self::InvalidParameter(why) => write!(f, "invalid code parameter: {why}"),
        }
    }
}

impl std::error::Error for CodeError {}

/// A binary block code over bit slices.
pub trait Code {
    /// Channel bits produced for `data_len` data bits.
    fn encoded_len(&self, data_len: usize) -> usize;

    /// Data bits recovered from `encoded_len` channel bits.
    fn data_len(&self, encoded_len: usize) -> usize;

    /// Encodes data bits into channel bits.
    fn encode(&self, data: &[bool]) -> Vec<bool>;

    /// Decodes channel bits back into data bits.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] if `received` is not a whole number of
    /// code blocks.
    fn decode(&self, received: &[bool]) -> Result<Decoded, CodeError>;

    /// Code rate (data bits per channel bit).
    fn rate(&self) -> f64 {
        let n = self.encoded_len(1024);
        1024.0 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_error_display() {
        let e = CodeError::LengthMismatch {
            got: 3,
            expected: 15,
        };
        assert_eq!(e.to_string(), "input length 3 does not match expected 15");
        assert!(CodeError::InvalidParameter("even k")
            .to_string()
            .contains("even k"));
    }

    #[test]
    fn rate_of_repetition() {
        let r = Repetition::new(3).unwrap();
        assert!((r.rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
