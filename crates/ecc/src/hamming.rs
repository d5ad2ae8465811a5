//! Hamming(15,11) block code, optionally extended to (16,11).
//!
//! The paper suggests error-correction codes as the alternative to replica
//! voting at lower overhead; Hamming(15,11) is the classic single-error
//! corrector at rate 0.73 (vs 0.33 for 3-way replication). The extended
//! variant adds an overall parity bit for double-error *detection*.

use crate::{Code, CodeError, Decoded};

const DATA_BITS: usize = 11;
const CODE_BITS: usize = 15;

/// Hamming(15,11) (or extended (16,11)) over 11-bit blocks.
///
/// Data shorter than a whole number of blocks is zero-padded; the decoder
/// returns the padded length (callers truncate to their known data length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Hamming {
    extended: bool,
}

impl Hamming {
    /// Plain Hamming(15,11): corrects 1 error per block.
    #[must_use]
    pub fn new() -> Self {
        Self { extended: false }
    }

    /// Extended Hamming(16,11): corrects 1, detects 2 errors per block.
    #[must_use]
    pub fn extended() -> Self {
        Self { extended: true }
    }

    fn block_len(self) -> usize {
        CODE_BITS + usize::from(self.extended)
    }

    /// Encodes one 11-bit block into 15 (or 16) channel bits.
    /// Channel bit positions are 1-based Hamming positions 1..=15; powers of
    /// two are parity bits.
    #[allow(clippy::needless_range_loop)] // 1-based Hamming positions read clearest as indices
    fn encode_block(self, data: &[bool]) -> Vec<bool> {
        debug_assert_eq!(data.len(), DATA_BITS);
        let mut code = [false; CODE_BITS + 1]; // 1-based
        let mut d = data.iter();
        for pos in 1..=CODE_BITS {
            if !pos.is_power_of_two() {
                code[pos] = *d.next().expect("11 data bits fill 11 non-parity slots");
            }
        }
        for p in [1usize, 2, 4, 8] {
            let parity = (1..=CODE_BITS)
                .filter(|&pos| pos & p != 0 && !pos.is_power_of_two())
                .fold(false, |acc, pos| acc ^ code[pos]);
            code[p] = parity;
        }
        let mut out: Vec<bool> = code[1..].to_vec();
        if self.extended {
            let overall = out.iter().fold(false, |acc, &b| acc ^ b);
            out.push(overall);
        }
        out
    }

    /// Decodes one block; returns (data, corrected, uncorrectable).
    fn decode_block(self, block: &[bool]) -> (Vec<bool>, usize, bool) {
        debug_assert_eq!(block.len(), self.block_len());
        let mut code = [false; CODE_BITS + 1];
        code[1..].copy_from_slice(&block[..CODE_BITS]);
        let mut syndrome = 0usize;
        for p in [1usize, 2, 4, 8] {
            let parity = (1..=CODE_BITS)
                .filter(|&pos| pos & p != 0)
                .fold(false, |acc, pos| acc ^ code[pos]);
            if parity {
                syndrome |= p;
            }
        }
        let mut corrected = 0;
        let mut uncorrectable = false;
        if self.extended {
            let overall = block.iter().fold(false, |acc, &b| acc ^ b);
            match (syndrome, overall) {
                (0, false) => {}            // clean
                (0, true) => corrected = 1, // error in the extra parity bit itself
                (_, true) => {
                    // Single error at `syndrome`: flip it.
                    code[syndrome] = !code[syndrome];
                    corrected = 1;
                }
                (_, false) => uncorrectable = true, // double error detected
            }
        } else if syndrome != 0 {
            code[syndrome] = !code[syndrome];
            corrected = 1;
        }
        let data: Vec<bool> = (1..=CODE_BITS)
            .filter(|pos| !pos.is_power_of_two())
            .map(|pos| code[pos])
            .collect();
        (data, corrected, uncorrectable)
    }
}

impl Code for Hamming {
    fn encoded_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(DATA_BITS) * self.block_len()
    }

    fn data_len(&self, encoded_len: usize) -> usize {
        encoded_len / self.block_len() * DATA_BITS
    }

    fn encode(&self, data: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.encoded_len(data.len()));
        for chunk in data.chunks(DATA_BITS) {
            let mut block = [false; DATA_BITS];
            block[..chunk.len()].copy_from_slice(chunk);
            out.extend(self.encode_block(&block));
        }
        out
    }

    fn decode(&self, received: &[bool]) -> Result<Decoded, CodeError> {
        if received.is_empty() || !received.len().is_multiple_of(self.block_len()) {
            return Err(CodeError::LengthMismatch {
                got: received.len(),
                expected: self.block_len(),
            });
        }
        let mut data = Vec::with_capacity(self.data_len(received.len()));
        let mut corrected = 0;
        let mut uncorrectable = false;
        for block in received.chunks(self.block_len()) {
            let (d, c, u) = self.decode_block(block);
            data.extend(d);
            corrected += c;
            uncorrectable |= u;
        }
        Ok(Decoded {
            data,
            corrected,
            detected_uncorrectable: uncorrectable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<bool> {
        (0..DATA_BITS).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn clean_roundtrip() {
        for code in [Hamming::new(), Hamming::extended()] {
            let data = sample_data();
            let rx = code.decode(&code.encode(&data)).unwrap();
            assert_eq!(rx.data, data);
            assert_eq!(rx.corrected, 0);
            assert!(!rx.detected_uncorrectable);
        }
    }

    #[test]
    fn corrects_any_single_error() {
        for code in [Hamming::new(), Hamming::extended()] {
            let data = sample_data();
            let tx = code.encode(&data);
            for i in 0..tx.len() {
                let mut corrupted = tx.clone();
                corrupted[i] = !corrupted[i];
                let rx = code.decode(&corrupted).unwrap();
                assert_eq!(rx.data, data, "error at position {i} not corrected");
                assert_eq!(rx.corrected, 1);
                assert!(!rx.detected_uncorrectable);
            }
        }
    }

    #[test]
    fn extended_detects_double_errors() {
        let code = Hamming::extended();
        let data = sample_data();
        let tx = code.encode(&data);
        let mut corrupted = tx.clone();
        corrupted[0] = !corrupted[0];
        corrupted[5] = !corrupted[5];
        let rx = code.decode(&corrupted).unwrap();
        assert!(rx.detected_uncorrectable, "double error must be detected");
    }

    #[test]
    fn plain_hamming_miscorrects_double_errors_silently() {
        // Documents the known limitation that motivates the extended form.
        let code = Hamming::new();
        let data = sample_data();
        let tx = code.encode(&data);
        let mut corrupted = tx.clone();
        corrupted[0] = !corrupted[0];
        corrupted[5] = !corrupted[5];
        let rx = code.decode(&corrupted).unwrap();
        assert!(!rx.detected_uncorrectable);
        assert_ne!(
            rx.data, data,
            "double error slips through as a miscorrection"
        );
    }

    #[test]
    fn multi_block_with_padding() {
        let code = Hamming::new();
        let data: Vec<bool> = (0..30).map(|i| i % 2 == 0).collect(); // 30 -> 3 blocks
        let tx = code.encode(&data);
        assert_eq!(tx.len(), 45);
        let rx = code.decode(&tx).unwrap();
        assert_eq!(&rx.data[..30], &data[..]);
        assert!(
            rx.data[30..].iter().all(|&b| !b),
            "padding decodes as zeros"
        );
    }

    #[test]
    fn lengths_and_rate() {
        let code = Hamming::new();
        assert_eq!(code.encoded_len(11), 15);
        assert_eq!(code.encoded_len(12), 30);
        assert_eq!(code.data_len(30), 22);
        assert!(code.rate() > Hamming::extended().rate());
    }

    #[test]
    fn length_mismatch_detected() {
        assert!(Hamming::new().decode(&[true; 14]).is_err());
        assert!(Hamming::extended().decode(&[true; 15]).is_err());
    }
}
