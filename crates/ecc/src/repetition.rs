//! K-way block replication with bitwise majority voting — the paper's
//! watermark-hardening scheme (Fig. 10–11).
//!
//! The data block is stored `k` times back to back (replica `r` of bit `i`
//! is channel bit `r * len + i`), and decoding takes a per-bit majority over
//! the replicas. Block-wise layout matches how the paper lays replicas into
//! a segment.

use crate::majority::MajorityVote;
use crate::{Code, CodeError, Decoded};

/// A k-way repetition code (`k` odd).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Repetition {
    k: usize,
}

impl Repetition {
    /// Creates a k-way repetition code.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParameter`] unless `k` is odd and non-zero (the
    /// paper uses 3, 5, and 7; an even k would allow ties).
    pub fn new(k: usize) -> Result<Self, CodeError> {
        if k == 0 || k.is_multiple_of(2) {
            return Err(CodeError::InvalidParameter(
                "replication factor must be odd",
            ));
        }
        Ok(Self { k })
    }

    /// Decodes with soft information: per-bit vote tallies.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] if `received` is not a multiple of `k`.
    pub fn decode_soft(&self, received: &[bool]) -> Result<Vec<MajorityVote>, CodeError> {
        if !received.len().is_multiple_of(self.k) {
            return Err(CodeError::LengthMismatch {
                got: received.len(),
                expected: self.k,
            });
        }
        let len = received.len() / self.k;
        let mut votes = vec![MajorityVote::new(); len];
        for r in 0..self.k {
            for i in 0..len {
                votes[i].push(received[r * len + i]);
            }
        }
        Ok(votes)
    }

    /// View of one replica within an encoded stream.
    ///
    /// # Panics
    ///
    /// Panics if `replica >= k` or the length is not a multiple of `k`.
    #[must_use]
    pub fn replica<'a>(&self, received: &'a [bool], replica: usize) -> &'a [bool] {
        assert!(replica < self.k, "replica index out of range");
        assert_eq!(
            received.len() % self.k,
            0,
            "length must be a replica multiple"
        );
        let len = received.len() / self.k;
        &received[replica * len..(replica + 1) * len]
    }
}

impl Code for Repetition {
    fn encoded_len(&self, data_len: usize) -> usize {
        data_len * self.k
    }

    fn data_len(&self, encoded_len: usize) -> usize {
        encoded_len / self.k
    }

    fn encode(&self, data: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(data.len() * self.k);
        for _ in 0..self.k {
            out.extend_from_slice(data);
        }
        out
    }

    fn decode(&self, received: &[bool]) -> Result<Decoded, CodeError> {
        let votes = self.decode_soft(received)?;
        let data: Vec<bool> = votes.iter().map(MajorityVote::winner).collect();
        // Replica bits that disagree with the winner: min(ones, zeros).
        let corrected: usize = votes.iter().map(|v| (v.total() - v.margin()) / 2).sum();
        Ok(Decoded {
            data,
            corrected,
            detected_uncorrectable: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_or_zero_k() {
        assert!(Repetition::new(0).is_err());
        assert!(Repetition::new(4).is_err());
        assert!(Repetition::new(7).is_ok());
    }

    #[test]
    fn roundtrip_clean_channel() {
        let code = Repetition::new(3).unwrap();
        let data = vec![true, false, false, true, true];
        let rx = code.decode(&code.encode(&data)).unwrap();
        assert_eq!(rx.data, data);
        assert_eq!(rx.corrected, 0);
        assert!(!rx.detected_uncorrectable);
    }

    #[test]
    fn corrects_minority_errors() {
        let code = Repetition::new(5).unwrap();
        let data = vec![true; 10];
        let mut tx = code.encode(&data);
        // Flip bit 3 in two of the five replicas: majority still wins.
        tx[3] = false;
        tx[10 + 3] = false;
        let rx = code.decode(&tx).unwrap();
        assert_eq!(rx.data, data);
        assert_eq!(rx.corrected, 2);
    }

    #[test]
    fn majority_errors_defeat_the_code() {
        let code = Repetition::new(3).unwrap();
        let data = vec![false; 4];
        let mut tx = code.encode(&data);
        tx[1] = true;
        tx[4 + 1] = true;
        let rx = code.decode(&tx).unwrap();
        assert!(rx.data[1], "two of three replicas flipped -> decoded wrong");
    }

    #[test]
    fn replica_views() {
        let code = Repetition::new(3).unwrap();
        let data = vec![true, false];
        let tx = code.encode(&data);
        for r in 0..3 {
            assert_eq!(code.replica(&tx, r), &data[..]);
        }
    }

    #[test]
    fn soft_decode_exposes_margins() {
        let code = Repetition::new(7).unwrap();
        let data = vec![true];
        let mut tx = code.encode(&data);
        tx[0] = false;
        let votes = code.decode_soft(&tx).unwrap();
        assert_eq!(votes[0].ones(), 6);
        assert_eq!(votes[0].margin(), 5);
    }

    #[test]
    fn length_mismatch_detected() {
        let code = Repetition::new(3).unwrap();
        assert!(matches!(
            code.decode(&[true, false]).unwrap_err(),
            CodeError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn lengths() {
        let code = Repetition::new(5).unwrap();
        assert_eq!(code.encoded_len(30), 150);
        assert_eq!(code.data_len(150), 30);
    }
}
