//! Property-based tests of the Flashmark codec and layout layers.

use proptest::prelude::*;

use flashmark_core::{SegmentLayout, TestStatus, Watermark, WatermarkRecord};
use flashmark_nor::FlashGeometry;

fn arb_status() -> impl Strategy<Value = TestStatus> {
    prop_oneof![Just(TestStatus::Accept), Just(TestStatus::Reject)]
}

proptest! {
    /// Watermark bytes → bits → bytes round trip.
    #[test]
    fn watermark_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
        let wm = Watermark::from_bytes(&bytes).unwrap();
        prop_assert_eq!(wm.to_bytes(), bytes);
        prop_assert_eq!(wm.ones() + wm.zeros(), wm.len());
    }

    /// Manchester balancing always yields exactly half ones and inverts.
    #[test]
    fn balanced_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..128)) {
        let wm = Watermark::from_bits(bits.clone()).unwrap();
        let bal = wm.balanced();
        prop_assert_eq!(bal.ones() * 2, bal.len());
        let unbalanced = bal.unbalanced().unwrap();
        prop_assert_eq!(unbalanced.bits(), &bits[..]);
    }

    /// Records round-trip for arbitrary field values.
    #[test]
    fn record_roundtrip(
        manufacturer_id in any::<u16>(),
        die_id in any::<u64>(),
        speed_grade in any::<u8>(),
        status in arb_status(),
        year_week in any::<u16>(),
    ) {
        let r = WatermarkRecord { manufacturer_id, die_id, speed_grade, status, year_week };
        let wm = r.to_watermark();
        prop_assert_eq!(WatermarkRecord::from_watermark(&wm).unwrap(), r);
    }

    /// Any single-bit corruption of a record is caught by the signature.
    #[test]
    fn record_crc_catches_any_flip(die_id in any::<u64>(), flip in 0usize..128) {
        let r = WatermarkRecord {
            manufacturer_id: 0x7C01,
            die_id,
            speed_grade: 1,
            status: TestStatus::Accept,
            year_week: 2004,
        };
        let mut bits = r.to_watermark().bits().to_vec();
        bits[flip] = !bits[flip];
        let wm = Watermark::from_bits(bits).unwrap();
        prop_assert!(WatermarkRecord::from_watermark(&wm).is_err());
    }

    /// Layout channel encode/slice round-trips.
    #[test]
    fn layout_roundtrip(
        data in proptest::collection::vec(any::<bool>(), 1..300),
        k in 0usize..3,
    ) {
        let k = 2 * k + 1;
        let l = SegmentLayout::new(data.len(), k).unwrap();
        let channel = l.encode_channel(&data).unwrap();
        prop_assert_eq!(channel.len(), data.len() * k);
        // slice_channel returns the replica-major channel.
        let mut segment = channel.clone();
        segment.extend(std::iter::repeat_n(true, 64));
        let sliced = l.slice_channel(&segment).unwrap();
        for r in 0..k {
            prop_assert_eq!(&sliced[r * data.len()..(r + 1) * data.len()], &data[..]);
        }
    }

    /// Pattern words place exactly the channel's zero bits.
    #[test]
    fn pattern_zero_count_matches(data in proptest::collection::vec(any::<bool>(), 1..256), k in 0usize..3) {
        let k = 2 * k + 1;
        let g = FlashGeometry::single_bank(1);
        let l = SegmentLayout::new(data.len(), k).unwrap();
        prop_assume!(l.check_fits(g).is_ok());
        let words = l.pattern_words(&data, g).unwrap();
        let zeros_in_words: u32 = words.iter().map(|w| w.count_zeros()).sum();
        let zeros_expected = (data.iter().filter(|&&b| !b).count() * k) as u32;
        prop_assert_eq!(zeros_in_words, zeros_expected);
    }
}
