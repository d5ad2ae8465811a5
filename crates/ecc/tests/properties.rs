//! Property-based tests for the coding layer.

use proptest::prelude::*;

use flashmark_ecc::crc::{crc16, crc32, crc8};
use flashmark_ecc::{bits_from_bytes, bytes_from_bits, Code, Hamming, Interleaver, Repetition};

proptest! {
    /// Repetition: clean-channel round trip for any data and odd k.
    #[test]
    fn repetition_roundtrip(data in proptest::collection::vec(any::<bool>(), 1..200), k in 0usize..4) {
        let k = 2 * k + 1;
        let code = Repetition::new(k).unwrap();
        let rx = code.decode(&code.encode(&data)).unwrap();
        prop_assert_eq!(rx.data, data);
        prop_assert_eq!(rx.corrected, 0);
    }

    /// Repetition corrects any error pattern touching fewer than half the
    /// replicas of each bit.
    #[test]
    fn repetition_corrects_minority_patterns(
        data in proptest::collection::vec(any::<bool>(), 1..64),
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let k = 2 * k + 1;
        let code = Repetition::new(k).unwrap();
        let mut tx = code.encode(&data);
        // Corrupt up to (k-1)/2 replicas of each bit, chosen pseudo-randomly.
        let mut state = seed;
        let mut next = move || { state = state.wrapping_mul(6364136223846793005).wrapping_add(1); state };
        for i in 0..data.len() {
            let flips = (next() % (k as u64).div_ceil(2)) as usize;
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < flips {
                chosen.insert((next() % k as u64) as usize);
            }
            for r in chosen {
                tx[r * data.len() + i] = !tx[r * data.len() + i];
            }
        }
        let rx = code.decode(&tx).unwrap();
        prop_assert_eq!(rx.data, data);
    }

    /// Hamming: clean round trip for any whole number of blocks.
    #[test]
    fn hamming_roundtrip(data in proptest::collection::vec(any::<bool>(), 1..150), extended in any::<bool>()) {
        let code = if extended { Hamming::extended() } else { Hamming::new() };
        let rx = code.decode(&code.encode(&data)).unwrap();
        prop_assert_eq!(&rx.data[..data.len()], &data[..]);
        prop_assert!(rx.data[data.len()..].iter().all(|&b| !b));
    }

    /// Hamming corrects any single channel error in any block.
    #[test]
    fn hamming_corrects_any_single_error(
        data in proptest::collection::vec(any::<bool>(), 11..44),
        pos_seed in any::<u64>(),
        extended in any::<bool>(),
    ) {
        let code = if extended { Hamming::extended() } else { Hamming::new() };
        let mut tx = code.encode(&data);
        let pos = (pos_seed % tx.len() as u64) as usize;
        tx[pos] = !tx[pos];
        let rx = code.decode(&tx).unwrap();
        prop_assert_eq!(&rx.data[..data.len()], &data[..]);
        prop_assert_eq!(rx.corrected, 1);
    }

    /// Interleaving round-trips for any depth dividing the length.
    #[test]
    fn interleave_roundtrip(rows in 1usize..8, width in 1usize..64, seed in any::<u64>()) {
        let bits: Vec<bool> = (0..rows * width).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let il = Interleaver::new(rows).unwrap();
        let inter = il.interleave(&bits).unwrap();
        prop_assert_eq!(il.deinterleave(&inter).unwrap(), bits);
    }

    /// Bits/bytes conversions round-trip.
    #[test]
    fn bits_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bytes_from_bits(&bits_from_bytes(&bytes)), bytes);
    }

    /// Every CRC detects any single-bit corruption.
    #[test]
    fn crcs_detect_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..64), byte_seed in any::<u64>(), bit in 0u8..8) {
        let idx = (byte_seed % data.len() as u64) as usize;
        let mut corrupted = data.clone();
        corrupted[idx] ^= 1 << bit;
        prop_assert_ne!(crc8(&data), crc8(&corrupted));
        prop_assert_ne!(crc16(&data), crc16(&corrupted));
        prop_assert_ne!(crc32(&data), crc32(&corrupted));
    }

    /// Code-rate bookkeeping: encoded_len and data_len are consistent.
    #[test]
    fn length_bookkeeping(k in 0usize..4, n in 1usize..100) {
        let k = 2 * k + 1;
        let rep = Repetition::new(k).unwrap();
        prop_assert_eq!(rep.data_len(rep.encoded_len(n)), n);
        let ham = Hamming::new();
        let enc = ham.encoded_len(n);
        prop_assert!(ham.data_len(enc) >= n);
    }
}
