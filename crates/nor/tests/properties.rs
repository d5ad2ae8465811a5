//! Property-based tests of the NOR array/controller semantics.

use proptest::prelude::*;

use flashmark_nor::interface::{FlashInterface, FlashInterfaceExt};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr, WordAddr};
use flashmark_physics::{Micros, PhysicsParams};

fn controller(seed: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        FlashTimings::msp430(),
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Programming is logical AND with current contents, for any value pair.
    #[test]
    fn program_is_and(seed in any::<u64>(), a in any::<u16>(), b in any::<u16>()) {
        let mut ctl = controller(seed);
        let w = WordAddr::new(5);
        ctl.program_word(w, a).unwrap();
        ctl.program_word(w, b).unwrap();
        prop_assert_eq!(ctl.read_word(w).unwrap(), a & b);
    }

    /// Erase always restores all-ones regardless of prior contents.
    #[test]
    fn erase_restores_ones(seed in any::<u64>(), values in proptest::collection::vec(any::<u16>(), 1..16)) {
        let mut ctl = controller(seed);
        for (i, &v) in values.iter().enumerate() {
            ctl.program_word(WordAddr::new(i as u32), v).unwrap();
        }
        ctl.erase_segment(SegmentAddr::new(0)).unwrap();
        for i in 0..values.len() {
            prop_assert_eq!(ctl.read_word(WordAddr::new(i as u32)).unwrap(), 0xFFFF);
        }
    }

    /// Two consecutive partial erases never un-erase cells: the count of
    /// erased cells is monotone over pulses.
    #[test]
    fn partial_erase_is_monotone(seed in any::<u64>(), t1 in 1.0f64..40.0, t2 in 1.0f64..40.0) {
        let mut ctl = controller(seed);
        let seg = SegmentAddr::new(1);
        ctl.program_all_zero(seg).unwrap();
        ctl.partial_erase(seg, Micros::new(t1)).unwrap();
        let ones_1 = ctl.array_mut().ideal_bits(seg).iter().filter(|&&b| b).count();
        ctl.partial_erase(seg, Micros::new(t2)).unwrap();
        let ones_2 = ctl.array_mut().ideal_bits(seg).iter().filter(|&&b| b).count();
        prop_assert!(ones_2 >= ones_1);
    }

    /// The simulated clock is strictly monotone across arbitrary operation
    /// sequences.
    #[test]
    fn clock_monotone(seed in any::<u64>(), ops in proptest::collection::vec(0u8..4, 1..12)) {
        let mut ctl = controller(seed);
        let mut prev = ctl.elapsed();
        for op in ops {
            match op {
                0 => { let _ = ctl.read_word(WordAddr::new(0)); }
                1 => { let _ = ctl.program_word(WordAddr::new(1), 0x1234); }
                2 => { let _ = ctl.erase_segment(SegmentAddr::new(0)); }
                _ => { let _ = ctl.partial_erase(SegmentAddr::new(0), Micros::new(10.0)); }
            }
            let now = ctl.elapsed();
            prop_assert!(now > prev, "clock did not advance");
            prev = now;
        }
    }

    /// Wear never decreases, whatever the digital interface does.
    #[test]
    fn wear_monotone_via_interface(seed in any::<u64>(), ops in proptest::collection::vec(0u8..3, 1..10)) {
        let mut ctl = controller(seed);
        let seg = SegmentAddr::new(0);
        let mut prev = ctl.wear_stats(seg).mean_cycles;
        for op in ops {
            match op {
                0 => { let _ = ctl.program_word(WordAddr::new(3), 0x0000); }
                1 => { let _ = ctl.erase_segment(seg); }
                _ => { let _ = ctl.partial_erase(seg, Micros::new(15.0)); }
            }
            let now = ctl.wear_stats(seg).mean_cycles;
            prop_assert!(now >= prev - 1e-12);
            prev = now;
        }
    }

    /// Geometry address math round-trips for arbitrary words.
    #[test]
    fn geometry_roundtrip(word_idx in 0u32..1024) {
        let g = FlashGeometry::single_bank(4);
        let w = WordAddr::new(word_idx);
        let seg = g.segment_of(w);
        let base = g.first_word(seg);
        let offset = g.word_offset_in_segment(w);
        prop_assert_eq!(base.offset(offset as u32), w);
        prop_assert!(offset < g.words_per_segment());
    }
}
