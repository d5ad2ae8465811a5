//! The [`SanitizedFlash`] wrapper.

use std::collections::VecDeque;

use flashmark_nor::{
    BulkStress, FlashController, FlashGeometry, FlashInterface, FlashTimings, ImprintTiming,
    NorError, PartialProgram, SegmentAddr, WordAddr,
};
use flashmark_physics::{Micros, Seconds};

use crate::violation::{FlashEvent, Policy, SegState, Violation, ViolationKind};

/// Words per 128-byte `tCPT` row (the datasheet's cumulative-program-time
/// accounting granule), matching the controller's accounting.
const WORDS_PER_ROW: usize = 64;

/// Cap on retained violations; pathological loops would otherwise grow the
/// report without bound. Excess violations are counted, not stored.
const MAX_VIOLATIONS: usize = 1024;

/// Default number of trailing events kept for violation backtraces.
const DEFAULT_BACKTRACE_CAPACITY: usize = 64;

/// Shadow bookkeeping for one segment.
#[derive(Debug, Clone)]
struct SegShadow {
    state: SegState,
    /// Per-word "programmed since the last erase" flags.
    programmed: Vec<bool>,
    /// Per-row cumulative program time since the last erase.
    row_time: Vec<Micros>,
}

impl SegShadow {
    fn new(words: usize) -> Self {
        let rows = words.div_ceil(WORDS_PER_ROW).max(1);
        Self {
            state: SegState::Unknown,
            programmed: vec![false; words],
            row_time: vec![Micros::new(0.0); rows],
        }
    }

    fn reset_erased(&mut self) {
        self.state = SegState::Erased;
        self.programmed.iter_mut().for_each(|p| *p = false);
        self.row_time.iter_mut().for_each(|t| *t = Micros::new(0.0));
    }
}

/// A probe reading a segment's mean wear from the wrapped backend, used for
/// the wear-monotonicity check. Installed automatically by
/// [`SanitizedFlash::wrap_controller`]; for other backends install one with
/// [`SanitizedFlash::with_wear_probe`].
pub type WearProbe<I> = fn(&mut I, SegmentAddr) -> Option<f64>;

/// A [`FlashInterface`] wrapper that shadows the flash protocol state and
/// checks every operation against the invariants real NOR parts impose:
///
/// 1. **Overprogram** — no word is programmed twice without an intervening
///    erase.
/// 2. **`tCPT`** — cumulative program time per 128-byte row stays within the
///    datasheet budget between erases.
/// 3. **Lock discipline** — no operation is attempted while the controller
///    is locked.
/// 4. **Address range** — segment and word addresses stay within the device
///    geometry.
/// 5. **Partial-erase ordering** — a partial erase is only issued on a
///    segment that was just block-programmed all-zero (the `ExtractFlashmark`
///    precondition, Fig. 8).
/// 6. **Wear monotonicity** — observed wear counters never decrease (needs a
///    wear probe; see [`WearProbe`]).
///
/// Violations never alter behavior: the operation is always forwarded to the
/// wrapped flash and its result returned unchanged, so a sanitized run
/// computes exactly what an unsanitized one would. What the sanitizer adds is
/// the [`Violation`] reports, each carrying a bounded backtrace of the
/// preceding flash events.
#[derive(Debug, Clone)]
pub struct SanitizedFlash<I> {
    inner: I,
    geom: FlashGeometry,
    timings: FlashTimings,
    policy: Policy,
    shadows: Vec<SegShadow>,
    ring: VecDeque<(Seconds, FlashEvent)>,
    ring_capacity: usize,
    record_reads: bool,
    violations: Vec<Violation>,
    violations_dropped: u64,
    wear_probe: Option<WearProbe<I>>,
    wear_seen: Vec<Option<f64>>,
}

impl<I: FlashInterface> SanitizedFlash<I> {
    /// Wraps a flash interface with default settings: MSP430 `tCPT`
    /// timings, [`Policy::Collect`], a 64-event backtrace, reads not
    /// recorded, and no wear probe.
    pub fn new(inner: I) -> Self {
        let geom = inner.geometry();
        let words = geom.words_per_segment();
        let segs = geom.total_segments() as usize;
        Self {
            inner,
            geom,
            timings: FlashTimings::msp430(),
            policy: Policy::default(),
            shadows: (0..segs).map(|_| SegShadow::new(words)).collect(),
            ring: VecDeque::with_capacity(DEFAULT_BACKTRACE_CAPACITY.min(1024)),
            ring_capacity: DEFAULT_BACKTRACE_CAPACITY,
            record_reads: false,
            violations: Vec::new(),
            violations_dropped: 0,
            wear_probe: None,
            wear_seen: vec![None; segs],
        }
    }

    /// Uses `timings` for the shadow `tCPT` accounting (defaults to
    /// [`FlashTimings::msp430`]).
    #[must_use]
    pub fn with_timings(mut self, timings: FlashTimings) -> Self {
        self.timings = timings;
        self
    }

    /// Sets the violation [`Policy`].
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how many trailing events each violation backtrace keeps.
    #[must_use]
    pub fn backtrace_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        while self.ring.len() > capacity {
            self.ring.pop_front();
        }
        self
    }

    /// Also records individual reads in backtraces (noisy; off by default).
    #[must_use]
    pub fn record_reads(mut self, on: bool) -> Self {
        self.record_reads = on;
        self
    }

    /// Installs a wear probe enabling the wear-monotonicity check.
    #[must_use]
    pub fn with_wear_probe(mut self, probe: WearProbe<I>) -> Self {
        self.wear_probe = Some(probe);
        self
    }

    /// The wrapped flash.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Mutable access to the wrapped flash.
    ///
    /// Operations issued through this reference bypass the sanitizer: the
    /// shadow state is not updated, so later checks may report stale-state
    /// violations. Prefer going through the [`FlashInterface`] impl.
    pub fn inner_mut(&mut self) -> &mut I {
        &mut self.inner
    }

    /// Unwraps, discarding the shadow state and any collected violations.
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Violations collected so far (empty under [`Policy::Panic`], which
    /// never returns from the first one).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains and returns the collected violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Violations discarded after the report filled up (the first 1024
    /// are retained).
    pub fn violations_dropped(&self) -> u64 {
        self.violations_dropped
    }

    /// Whether no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }

    /// Panics with a full report if any violation was collected.
    ///
    /// # Panics
    ///
    /// If the run was not clean.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "flash-protocol violations detected ({} collected, {} dropped):\n{}",
            self.violations.len(),
            self.violations_dropped,
            self.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The sanitizer's own trailing event window (what backtraces snapshot).
    pub fn events(&self) -> Vec<(Seconds, FlashEvent)> {
        self.ring.iter().copied().collect()
    }

    /// The shadow protocol state of a segment ([`SegState::Unknown`] if out
    /// of range).
    pub fn segment_state(&self, seg: SegmentAddr) -> SegState {
        self.shadows
            .get(seg.index() as usize)
            .map_or(SegState::Unknown, |s| s.state)
    }

    fn push_event(&mut self, event: FlashEvent) {
        if self.ring_capacity == 0 {
            return;
        }
        if self.ring.len() >= self.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back((self.inner.elapsed(), event));
    }

    fn report(&mut self, op: &'static str, kind: ViolationKind) {
        // Violations are re-emitted as obs events under every policy, so an
        // instrumented trial sees them even when the local log is the sink.
        flashmark_obs::emit(flashmark_obs::ObsEvent::SanitizerViolation {
            kind: kind.name(),
            op,
        });
        let violation = Violation {
            kind,
            op,
            at: self.inner.elapsed(),
            backtrace: self.ring.iter().copied().collect(),
        };
        match self.policy {
            Policy::Panic => panic!("flash-protocol violation: {violation}"),
            Policy::Collect => self.collect(violation),
        }
    }

    fn collect(&mut self, violation: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(violation);
        } else {
            self.violations_dropped += 1;
        }
    }

    /// Checks a segment address, reporting if out of range. Returns whether
    /// the address is usable for shadow bookkeeping.
    fn check_seg(&mut self, op: &'static str, seg: SegmentAddr) -> bool {
        let total = self.geom.total_segments();
        if seg.index() >= total {
            self.report(
                op,
                ViolationKind::SegmentOutOfRange {
                    seg,
                    total_segments: total,
                },
            );
            return false;
        }
        true
    }

    /// Checks a word address, reporting if out of range.
    fn check_word(&mut self, op: &'static str, word: WordAddr) -> bool {
        let total = self.geom.total_words();
        if u64::from(word.index()) >= total {
            self.report(
                op,
                ViolationKind::WordOutOfRange {
                    word,
                    total_words: total,
                },
            );
            return false;
        }
        true
    }

    /// Flags `NorError::Locked` results as lock-discipline violations.
    fn note_error(&mut self, op: &'static str, err: &NorError) {
        if matches!(err, NorError::Locked) {
            self.report(op, ViolationKind::LockedOperation);
        }
    }

    /// Charges `dt` of program time to one row's shadow `tCPT` budget,
    /// reporting on overflow. Mirrors the controller's accounting but keeps
    /// charging past the limit so every over-budget program is flagged.
    fn charge_row(&mut self, op: &'static str, seg: SegmentAddr, row: usize, dt: Micros) {
        let limit = self.timings.cumulative_program_limit;
        if limit.get() <= 0.0 {
            return;
        }
        let Some(shadow) = self.shadows.get_mut(seg.index() as usize) else {
            return;
        };
        let Some(slot) = shadow.row_time.get_mut(row) else {
            return;
        };
        let was_within = slot.get() <= limit.get();
        *slot += dt;
        let charged = *slot;
        if charged.get() > limit.get() && was_within {
            self.report(
                op,
                ViolationKind::CumulativeProgramTime {
                    seg,
                    row: row as u32,
                    charged,
                    limit,
                },
            );
        }
    }

    /// Re-reads the wear probe for `seg` and reports if wear went backwards.
    fn check_wear(&mut self, op: &'static str, seg: SegmentAddr) {
        let Some(probe) = self.wear_probe else { return };
        let idx = seg.index() as usize;
        if idx >= self.wear_seen.len() {
            return;
        }
        let Some(observed) = probe(&mut self.inner, seg) else {
            return;
        };
        if let Some(previous) = self.wear_seen[idx] {
            if observed < previous - 1e-9 {
                self.report(
                    op,
                    ViolationKind::WearDecrease {
                        seg,
                        previous,
                        observed,
                    },
                );
            }
        }
        self.wear_seen[idx] = Some(observed);
    }

    fn mark_erased(&mut self, seg: SegmentAddr) {
        if let Some(shadow) = self.shadows.get_mut(seg.index() as usize) {
            shadow.reset_erased();
        }
    }
}

impl SanitizedFlash<FlashController> {
    /// Wraps a [`FlashController`] with the wear-monotonicity probe
    /// installed (reading [`FlashController::wear_stats`]).
    pub fn wrap_controller(ctl: FlashController) -> Self {
        Self::new(ctl).with_wear_probe(|c, seg| Some(c.wear_stats(seg).mean_cycles))
    }
}

impl<I: FlashInterface> FlashInterface for SanitizedFlash<I> {
    fn geometry(&self) -> FlashGeometry {
        self.geom
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.check_word("read_word", word);
        let result = self.inner.read_word(word);
        match &result {
            Ok(_) => {
                if self.record_reads {
                    self.push_event(FlashEvent::ReadWord { word });
                }
            }
            Err(e) => self.note_error("read_word", e),
        }
        result
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        if self.check_word("program_word", word) {
            let seg = self.geom.segment_of(word);
            let offset = self.geom.word_offset_in_segment(word);
            let already = self
                .shadows
                .get(seg.index() as usize)
                .is_some_and(|s| s.programmed.get(offset).copied().unwrap_or(false));
            if already {
                self.report("program_word", ViolationKind::Overprogram { word });
            }
            self.charge_row(
                "program_word",
                seg,
                offset / WORDS_PER_ROW,
                self.timings.program_word,
            );
        }
        let result = self.inner.program_word(word, value);
        match &result {
            Ok(()) => {
                let seg = self.geom.segment_of(word);
                let offset = self.geom.word_offset_in_segment(word);
                if let Some(shadow) = self.shadows.get_mut(seg.index() as usize) {
                    if let Some(flag) = shadow.programmed.get_mut(offset) {
                        *flag = true;
                    }
                    shadow.state = SegState::Programmed;
                }
                self.push_event(FlashEvent::ProgramWord { word });
                self.check_wear("program_word", seg);
            }
            Err(e) => self.note_error("program_word", e),
        }
        result
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        if self.check_seg("program_block", seg) && values.len() == self.geom.words_per_segment() {
            let first_programmed = self.shadows[seg.index() as usize]
                .programmed
                .iter()
                .position(|&p| p);
            if let Some(offset) = first_programmed {
                let word = self.geom.first_word(seg).offset(offset as u32);
                self.report("program_block", ViolationKind::Overprogram { word });
            }
            let n = values.len();
            let rows = (n / WORDS_PER_ROW).max(1);
            let per_row = self.timings.block_write(n) / rows as f64;
            for row in 0..rows {
                self.charge_row("program_block", seg, row, per_row);
            }
        }
        let result = self.inner.program_block(seg, values);
        match &result {
            Ok(()) => {
                if let Some(shadow) = self.shadows.get_mut(seg.index() as usize) {
                    shadow.programmed.iter_mut().for_each(|p| *p = true);
                    shadow.state = if values.iter().all(|&v| v == 0) {
                        SegState::AllZero
                    } else {
                        SegState::Programmed
                    };
                }
                self.push_event(FlashEvent::ProgramBlock { seg });
                self.check_wear("program_block", seg);
            }
            Err(e) => self.note_error("program_block", e),
        }
        result
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.check_seg("erase_segment", seg);
        let result = self.inner.erase_segment(seg);
        match &result {
            Ok(()) => {
                self.mark_erased(seg);
                self.push_event(FlashEvent::EraseSegment { seg });
                self.check_wear("erase_segment", seg);
            }
            Err(e) => self.note_error("erase_segment", e),
        }
        result
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        if self.check_seg("partial_erase", seg) {
            let found = self.shadows[seg.index() as usize].state;
            if found != SegState::AllZero {
                self.report(
                    "partial_erase",
                    ViolationKind::PartialEraseOrder { seg, found },
                );
            }
        }
        let result = self.inner.partial_erase(seg, t_pe);
        match &result {
            Ok(()) => {
                if let Some(shadow) = self.shadows.get_mut(seg.index() as usize) {
                    shadow.state = SegState::PartialErased;
                    // The erase pulse resets row heating (tCPT), but the
                    // cells were not fully erased: keep the per-word
                    // programmed flags, so programming over a partially
                    // erased segment still flags as overprogram.
                    shadow
                        .row_time
                        .iter_mut()
                        .for_each(|t| *t = Micros::new(0.0));
                }
                self.push_event(FlashEvent::PartialErase { seg, t_pe });
                self.check_wear("partial_erase", seg);
            }
            Err(e) => self.note_error("partial_erase", e),
        }
        result
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.check_seg("erase_until_clean", seg);
        let result = self.inner.erase_until_clean(seg);
        match &result {
            Ok(took) => {
                self.mark_erased(seg);
                self.push_event(FlashEvent::EraseUntilClean { seg, took: *took });
                self.check_wear("erase_until_clean", seg);
            }
            Err(e) => self.note_error("erase_until_clean", e),
        }
        result
    }

    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
}

impl<I: PartialProgram> PartialProgram for SanitizedFlash<I> {
    fn partial_program(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        self.check_seg("partial_program", seg);
        let result = self.inner.partial_program(seg, t_pp);
        if let Err(e) = &result {
            self.note_error("partial_program", e);
        } else {
            self.check_wear("partial_program", seg);
        }
        result
    }
}

impl<I: BulkStress> BulkStress for SanitizedFlash<I> {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        self.check_seg("bulk_imprint", seg);
        let result = self.inner.bulk_imprint(seg, pattern, cycles, timing);
        match &result {
            Ok(_) => {
                // A bulk imprint is `cycles` erase+program rounds; it ends
                // one block-program past the last erase.
                if let Some(shadow) = self.shadows.get_mut(seg.index() as usize) {
                    shadow.reset_erased();
                    shadow.programmed.iter_mut().for_each(|p| *p = true);
                    shadow.state = if pattern.iter().all(|&v| v == 0) {
                        SegState::AllZero
                    } else {
                        SegState::Programmed
                    };
                }
                let n = pattern.len();
                let rows = (n / WORDS_PER_ROW).max(1);
                let per_row = self.timings.block_write(n) / rows as f64;
                for row in 0..rows {
                    self.charge_row("bulk_imprint", seg, row, per_row);
                }
                self.push_event(FlashEvent::BulkImprint { seg, cycles });
                self.check_wear("bulk_imprint", seg);
            }
            Err(e) => self.note_error("bulk_imprint", e),
        }
        result
    }
}
