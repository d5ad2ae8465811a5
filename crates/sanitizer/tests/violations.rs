//! Integration tests of the flash-protocol sanitizer: every invariant has
//! an injected-failure test asserting the violation kind and backtrace, and
//! a clean-path test asserting the legal sequence passes unflagged.

use flashmark_nor::interface::FlashInterfaceExt;
use flashmark_nor::{
    FlashController, FlashGeometry, FlashInterface, FlashTimings, NorError, SegmentAddr, WordAddr,
};
use flashmark_physics::{Micros, PhysicsParams, Seconds};
use flashmark_sanitizer::{FlashEvent, SanitizedFlash, SegState, Violation, ViolationKind};

fn controller(seed: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        FlashTimings::msp430(),
        seed,
    )
}

fn sanitized(seed: u64) -> SanitizedFlash<FlashController> {
    SanitizedFlash::wrap_controller(controller(seed))
}

/// Every violation must carry a non-empty backtrace once any event has been
/// observed, and name the op it was detected in.
fn assert_backtraced(v: &Violation, op: &str) {
    assert_eq!(v.op, op);
    assert!(!v.backtrace.is_empty(), "violation backtrace is empty: {v}");
}

// --- invariant 1: overprogram ------------------------------------------------

#[test]
fn overprogram_is_flagged_with_backtrace() {
    let mut f = sanitized(1);
    let seg = SegmentAddr::new(0);
    let w = WordAddr::new(3);
    f.erase_segment(seg).unwrap();
    f.program_word(w, 0x1234).unwrap();
    f.program_word(w, 0x0F0F).unwrap(); // second program without erase

    let violations = f.violations();
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.kind, ViolationKind::Overprogram { word: w });
    assert_backtraced(v, "program_word");
    // The backtrace shows the history that makes it an overprogram: the
    // erase and the first program of the same word.
    assert!(v
        .backtrace
        .iter()
        .any(|(_, e)| matches!(e, FlashEvent::EraseSegment { seg: s } if *s == seg)));
    assert!(v
        .backtrace
        .iter()
        .any(|(_, e)| matches!(e, FlashEvent::ProgramWord { word } if *word == w)));
}

#[test]
fn program_after_erase_is_clean() {
    let mut f = sanitized(2);
    let seg = SegmentAddr::new(0);
    let w = WordAddr::new(3);
    f.erase_segment(seg).unwrap();
    f.program_word(w, 0x1234).unwrap();
    f.erase_segment(seg).unwrap();
    f.program_word(w, 0x0F0F).unwrap();
    f.assert_clean();
}

// --- invariant 2: cumulative program time (tCPT) -----------------------------

/// A controller whose `tCPT` budget fits a single word program, so a
/// second program to the same row overruns it. The sanitizer takes the
/// budget from the controller it wraps.
fn tight_tcpt_controller(seed: u64) -> FlashController {
    let timings = FlashTimings {
        cumulative_program_limit: Micros::new(100.0),
        ..FlashTimings::msp430()
    };
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        timings,
        seed,
    )
}

#[test]
fn tcpt_overrun_is_flagged_once_with_backtrace() {
    let mut f = SanitizedFlash::wrap_controller(tight_tcpt_controller(3));
    let seg = SegmentAddr::new(0);
    f.erase_segment(seg).unwrap();
    // Three programs to distinct words of row 0, 75 us each against a
    // 100 us budget: the second crosses the limit, the third is past it.
    // The controller refuses both; the sanitizer reports the crossing.
    f.program_word(WordAddr::new(0), 0).unwrap();
    for i in 1..3 {
        assert!(matches!(
            f.program_word(WordAddr::new(i), 0),
            Err(NorError::CumulativeProgramTime { .. })
        ));
    }

    let violations = f.violations();
    assert_eq!(
        violations.len(),
        1,
        "limit crossing must be reported exactly once"
    );
    let v = &violations[0];
    match v.kind {
        ViolationKind::CumulativeProgramTime {
            seg: s,
            row,
            charged,
            limit,
        } => {
            assert_eq!(s, seg);
            assert_eq!(row, 0);
            assert!(
                charged > limit,
                "charged {charged} must exceed limit {limit}"
            );
        }
        ref other => panic!("expected CumulativeProgramTime, got {other:?}"),
    }
    assert_backtraced(v, "program_word");
}

#[test]
fn tcpt_budget_resets_on_erase() {
    let mut f = SanitizedFlash::wrap_controller(tight_tcpt_controller(4));
    let seg = SegmentAddr::new(0);
    for i in 0..3 {
        f.erase_segment(seg).unwrap();
        f.program_word(WordAddr::new(i), 0).unwrap();
    }
    f.assert_clean();
}

// --- invariant 3: lock discipline --------------------------------------------

#[test]
fn operation_while_locked_is_flagged() {
    let mut f = sanitized(5);
    let seg = SegmentAddr::new(0);
    f.erase_segment(seg).unwrap(); // seed the event ring
    f.inner_mut().lock();
    let err = f.program_word(WordAddr::new(0), 0).unwrap_err();
    assert_eq!(err, NorError::Locked);

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, ViolationKind::LockedOperation);
    assert_backtraced(&violations[0], "program_word");
}

#[test]
fn operation_after_unlock_is_clean() {
    let mut f = sanitized(6);
    f.inner_mut().lock();
    f.inner_mut().unlock();
    f.erase_segment(SegmentAddr::new(0)).unwrap();
    f.program_word(WordAddr::new(0), 0xBEEF).unwrap();
    f.assert_clean();
}

// --- invariant 4: address range ----------------------------------------------

#[test]
fn segment_out_of_range_is_flagged() {
    let mut f = sanitized(7);
    let total = f.geometry().total_segments();
    f.erase_segment(SegmentAddr::new(0)).unwrap(); // seed the event ring
    let bogus = SegmentAddr::new(total + 3);
    assert!(f.erase_segment(bogus).is_err());

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(
        violations[0].kind,
        ViolationKind::SegmentOutOfRange {
            seg: bogus,
            total_segments: total
        }
    );
    assert_backtraced(&violations[0], "erase_segment");
}

#[test]
fn word_out_of_range_is_flagged() {
    let mut f = sanitized(8);
    let total = f.geometry().total_words();
    f.erase_segment(SegmentAddr::new(0)).unwrap();
    let bogus = WordAddr::new(u32::try_from(total).unwrap() + 17);
    assert!(f.program_word(bogus, 0).is_err());

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(
        violations[0].kind,
        ViolationKind::WordOutOfRange {
            word: bogus,
            total_words: total
        }
    );
    assert_backtraced(&violations[0], "program_word");
}

#[test]
fn last_valid_addresses_are_clean() {
    let mut f = sanitized(9);
    let geom = f.geometry();
    let last_seg = SegmentAddr::new(geom.total_segments() - 1);
    let last_word = WordAddr::new(u32::try_from(geom.total_words()).unwrap() - 1);
    f.erase_segment(last_seg).unwrap();
    f.program_word(last_word, 0x00FF).unwrap();
    f.read_word(last_word).unwrap();
    f.assert_clean();
}

// --- invariant 5: partial-erase ordering -------------------------------------

#[test]
fn partial_erase_without_all_zero_is_flagged() {
    let mut f = sanitized(10);
    let seg = SegmentAddr::new(1);
    f.erase_segment(seg).unwrap(); // erased, but NOT block-programmed all-zero
    f.partial_erase(seg, Micros::new(20.0)).unwrap();

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(
        violations[0].kind,
        ViolationKind::PartialEraseOrder {
            seg,
            found: SegState::Erased
        }
    );
    assert_backtraced(&violations[0], "partial_erase");
    assert!(violations[0]
        .backtrace
        .iter()
        .any(|(_, e)| matches!(e, FlashEvent::EraseSegment { seg: s } if *s == seg)));
}

#[test]
fn partial_erase_after_program_all_zero_is_clean() {
    let mut f = sanitized(11);
    let seg = SegmentAddr::new(1);
    f.program_all_zero(seg).unwrap();
    assert_eq!(f.segment_state(seg), SegState::AllZero);
    f.partial_erase(seg, Micros::new(20.0)).unwrap();
    assert_eq!(f.segment_state(seg), SegState::PartialErased);
    f.assert_clean();
}

#[test]
fn second_consecutive_partial_erase_is_flagged() {
    // Fig. 8 allows exactly one partial erase per all-zero program.
    let mut f = sanitized(12);
    let seg = SegmentAddr::new(1);
    f.program_all_zero(seg).unwrap();
    f.partial_erase(seg, Micros::new(20.0)).unwrap();
    f.partial_erase(seg, Micros::new(20.0)).unwrap();

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(
        violations[0].kind,
        ViolationKind::PartialEraseOrder {
            seg,
            found: SegState::PartialErased
        }
    );
}

// --- invariant 6: wear monotonicity ------------------------------------------

/// A backend whose reported wear can be rewound, to inject the one fault a
/// real [`FlashController`] cannot produce.
struct RewindableFlash {
    inner: FlashController,
    /// Offset subtracted from the real wear reading; raising it mid-run
    /// makes observed wear go backwards.
    rewind: f64,
}

impl FlashInterface for RewindableFlash {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }
    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.inner.read_word(word)
    }
    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.inner.program_word(word, value)
    }
    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        self.inner.program_block(seg, values)
    }
    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.inner.erase_segment(seg)
    }
    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.inner.partial_erase(seg, t_pe)
    }
    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.inner.erase_until_clean(seg)
    }
    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
}

#[test]
fn wear_decrease_is_flagged() {
    let backend = RewindableFlash {
        inner: controller(13),
        rewind: 0.0,
    };
    let mut f = SanitizedFlash::new(backend)
        .with_wear_probe(|b, seg| Some(b.inner.wear_stats(seg).mean_cycles - b.rewind));
    let seg = SegmentAddr::new(0);
    f.erase_segment(seg).unwrap();
    f.erase_segment(seg).unwrap();
    f.inner_mut().rewind = 5.0; // rewind the observable wear counter
    f.erase_segment(seg).unwrap();

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    match violations[0].kind {
        ViolationKind::WearDecrease {
            seg: s,
            previous,
            observed,
        } => {
            assert_eq!(s, seg);
            assert!(observed < previous, "{observed} must be below {previous}");
        }
        ref other => panic!("expected WearDecrease, got {other:?}"),
    }
    assert_backtraced(&violations[0], "erase_segment");
}

#[test]
fn monotone_wear_is_clean() {
    let mut f = sanitized(14); // wrap_controller installs the wear probe
    let seg = SegmentAddr::new(0);
    for _ in 0..4 {
        f.erase_segment(seg).unwrap();
        f.program_word(WordAddr::new(0), 0).unwrap();
    }
    f.assert_clean();
}

// --- backtrace configuration ------------------------------------------------

#[test]
fn backtrace_window_is_bounded() {
    let mut f = sanitized(15);
    let seg = SegmentAddr::new(0);
    for _ in 0..70 {
        f.erase_segment(seg).unwrap();
    }
    f.partial_erase(seg, Micros::new(10.0)).unwrap(); // injected ordering fault

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    // Capped at the 64 trailing events.
    assert_eq!(violations[0].backtrace.len(), 64);
}

#[test]
fn record_reads_puts_reads_in_the_backtrace() {
    let mut f = SanitizedFlash::new(controller(16)).record_reads(true);
    let seg = SegmentAddr::new(0);
    let w = WordAddr::new(7);
    f.erase_segment(seg).unwrap();
    f.read_word(w).unwrap();
    f.program_word(w, 0).unwrap();
    f.program_word(w, 0).unwrap(); // injected overprogram

    let violations = f.violations();
    assert_eq!(violations.len(), 1);
    assert!(violations[0]
        .backtrace
        .iter()
        .any(|(_, e)| matches!(e, FlashEvent::ReadWord { word } if *word == w)));
}

#[test]
fn wrap_controller_records_events_in_its_ring() {
    let mut f = sanitized(17);
    let seg = SegmentAddr::new(0);
    f.erase_segment(seg).unwrap();
    f.program_word(WordAddr::new(0), 0).unwrap();
    assert!(!f.events().is_empty());
}

#[test]
#[should_panic(expected = "flash-protocol violations detected (1 collected, 0 dropped)")]
fn assert_clean_panics_with_the_report() {
    let mut f = sanitized(18);
    let w = WordAddr::new(0);
    f.erase_segment(SegmentAddr::new(0)).unwrap();
    f.program_word(w, 0).unwrap();
    f.program_word(w, 0).unwrap(); // overprogram
    f.assert_clean();
}
