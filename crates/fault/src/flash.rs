//! [`FaultyFlash`]: a fault-injecting decorator over any [`FlashInterface`].
//!
//! The wrapper numbers every interface operation with a monotone `op_index`
//! and consults its [`FaultPlan`] — a pure function of `(seed, op_index)` —
//! before forwarding to the wrapped device:
//!
//! * **transient NAKs** abort the operation *before* it reaches the device
//!   ([`NorError::TransientNak`]); a retry is a new op index, so a bounded
//!   retry loop always makes progress (the plan's burst bound guarantees a
//!   clean index within `burst + 1` attempts);
//! * **power loss** at the scheduled op index aborts the operation with
//!   [`NorError::PowerLoss`]; if that operation was a full segment erase,
//!   the device first receives the configured fraction of the nominal
//!   tErase pulse as a partial erase — the half-erased-segment state a real
//!   brown-out leaves behind;
//! * **read noise** XOR-flips read-back bits, and **read disturb** drags
//!   bits toward the programmed state at a rate that grows with the number
//!   of reads since the segment's last erase — neither touches the array,
//!   so injected read faults can never add or remove wear;
//! * **tPEW jitter** perturbs the duration of `partial_erase` pulses.
//!
//! Because only power-loss faults reach the device (and only as a shorter
//! erase pulse), every injected fault preserves wear monotonicity: wear can
//! be added, never removed. The sanitizer-facing tests assert exactly that.

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming, PartialProgram};
use flashmark_nor::{FlashGeometry, FlashTimings, NorError, SegmentAddr, WordAddr};
use flashmark_physics::{Micros, Seconds};

use crate::plan::FaultPlan;

/// Upper bound on the retained fault log; campaigns with aggressive rates
/// would otherwise grow it without bound.
const MAX_EVENTS: usize = 1024;

/// One injected fault, recorded for post-mortem inspection.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The interface NAK'ed operation `op`.
    TransientNak {
        /// Operation index that was refused.
        op: u64,
    },
    /// Power dropped during operation `op`.
    PowerLoss {
        /// Operation index that was interrupted.
        op: u64,
        /// Fraction of tErase delivered before the drop, when the
        /// interrupted operation was a segment erase.
        erase_fraction: Option<f64>,
    },
    /// Random read noise flipped bits of a read result.
    ReadFlips {
        /// Operation index of the read.
        op: u64,
        /// Number of flipped bits.
        bits: u32,
    },
    /// Read disturb dragged bits toward the programmed state.
    ReadDisturb {
        /// Operation index of the read.
        op: u64,
        /// Number of disturbed bits.
        bits: u32,
    },
    /// A partial-erase pulse was lengthened or shortened.
    TpewJitter {
        /// Operation index of the partial erase.
        op: u64,
        /// Signed pulse-length change in microseconds.
        delta_us: f64,
    },
}

impl FaultEvent {
    /// Stable channel label (also the obs event payload).
    #[must_use]
    pub fn channel(&self) -> &'static str {
        match self {
            Self::TransientNak { .. } => "transient_nak",
            Self::PowerLoss { .. } => "power_loss",
            Self::ReadFlips { .. } => "read_flips",
            Self::ReadDisturb { .. } => "read_disturb",
            Self::TpewJitter { .. } => "tpew_jitter",
        }
    }

    /// The injector operation index at which the fault fired.
    #[must_use]
    pub fn op(&self) -> u64 {
        match self {
            Self::TransientNak { op }
            | Self::PowerLoss { op, .. }
            | Self::ReadFlips { op, .. }
            | Self::ReadDisturb { op, .. }
            | Self::TpewJitter { op, .. } => *op,
        }
    }
}

/// A fault-injecting wrapper around any [`FlashInterface`].
///
/// Stacks freely with the sanitizer: `FaultyFlash<SanitizedFlash<_>>` lets
/// the sanitizer observe the *faulted* command stream, which is how the
/// test-suite checks that injected power loss shows up as the expected
/// protocol violation while wear stays monotone.
#[derive(Debug)]
pub struct FaultyFlash<F> {
    inner: F,
    plan: FaultPlan,
    t_erase: Micros,
    op_index: u64,
    consecutive_naks: u32,
    reads_since_erase: Vec<u64>,
    events: Vec<FaultEvent>,
    events_dropped: usize,
}

impl<F: FlashInterface> FaultyFlash<F> {
    /// Wraps `inner` under `plan`. The nominal tErase used for fractional
    /// power-loss erases defaults to the MSP430 datasheet value; override
    /// with [`FaultyFlash::with_t_erase`] for other parts.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        let segments = inner.geometry().total_segments() as usize;
        Self {
            inner,
            plan,
            t_erase: FlashTimings::msp430().erase_segment,
            op_index: 0,
            consecutive_naks: 0,
            reads_since_erase: vec![0; segments],
            events: Vec::new(),
            events_dropped: 0,
        }
    }

    /// Overrides the nominal full-erase time used when power loss interrupts
    /// a segment erase at fraction `f` (the array receives `f × t_erase`).
    #[must_use]
    pub fn with_t_erase(mut self, t_erase: Micros) -> Self {
        self.t_erase = t_erase;
        self
    }

    /// The plan driving the schedule.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The next operation index to be assigned.
    #[must_use]
    pub fn op_index(&self) -> u64 {
        self.op_index
    }

    /// Faults injected so far (oldest first, capped at an internal bound).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of fault events dropped once the log cap was reached.
    #[must_use]
    pub fn events_dropped(&self) -> usize {
        self.events_dropped
    }

    /// Total number of faults injected (including dropped log entries).
    #[must_use]
    pub fn injected(&self) -> usize {
        self.events.len() + self.events_dropped
    }

    /// Shared access to the wrapped interface.
    #[must_use]
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Mutable access to the wrapped interface (fault-free side channel).
    #[must_use]
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// Unwraps, returning the inner interface.
    #[must_use]
    pub fn into_inner(self) -> F {
        self.inner
    }

    fn push(&mut self, event: FaultEvent) {
        // Every firing reaches the obs layer, even once the local log caps.
        flashmark_obs::emit(flashmark_obs::ObsEvent::FaultFired {
            channel: event.channel(),
            op: event.op(),
        });
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.events_dropped += 1;
        }
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op_index;
        self.op_index += 1;
        op
    }

    /// Injects a scheduled transient NAK, if any, for operation `op`.
    fn nak_gate(&mut self, op: u64) -> Result<(), NorError> {
        if self.plan.transient_at(op, self.consecutive_naks) {
            self.consecutive_naks += 1;
            self.push(FaultEvent::TransientNak { op });
            return Err(NorError::TransientNak);
        }
        self.consecutive_naks = 0;
        Ok(())
    }

    /// Injects a scheduled power loss for a non-erase operation `op`: the
    /// command never reaches the device.
    fn power_gate(&mut self, op: u64) -> Result<(), NorError> {
        if self.plan.power_loss_at(op).is_some() {
            self.push(FaultEvent::PowerLoss {
                op,
                erase_fraction: None,
            });
            return Err(NorError::PowerLoss);
        }
        Ok(())
    }

    fn reads_of(&self, seg: SegmentAddr) -> u64 {
        self.reads_since_erase
            .get(seg.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    fn bump_reads(&mut self, seg: SegmentAddr) {
        if let Some(n) = self.reads_since_erase.get_mut(seg.index() as usize) {
            *n = n.saturating_add(1);
        }
    }

    fn reset_reads(&mut self, seg: SegmentAddr) {
        if let Some(n) = self.reads_since_erase.get_mut(seg.index() as usize) {
            *n = 0;
        }
    }

    /// Applies read-noise and read-disturb masks to one read-back word.
    fn corrupt_word(&self, op: u64, offset: u32, reads: u64, value: u16) -> (u16, u32, u32) {
        let disturb = self.plan.disturb_mask(op, offset, reads);
        let flips = self.plan.read_flip_mask(op, offset);
        // Disturb only drags erased bits down (1 → 0); noise flips both ways.
        let disturbed = value & disturb;
        (
            (value & !disturb) ^ flips,
            disturbed.count_ones(),
            flips.count_ones(),
        )
    }

    /// An erase-class operation interrupted by power loss: the device
    /// receives `fraction × t_erase` as a partial pulse, then the call
    /// fails with [`NorError::PowerLoss`].
    fn interrupted_erase(
        &mut self,
        op: u64,
        seg: SegmentAddr,
        fraction: f64,
    ) -> Result<(), NorError> {
        self.push(FaultEvent::PowerLoss {
            op,
            erase_fraction: Some(fraction),
        });
        let t = self.t_erase.get() * fraction;
        if t > 0.0 {
            self.inner.partial_erase(seg, Micros::new(t))?;
        }
        Err(NorError::PowerLoss)
    }
}

impl<F: FlashInterface> FlashInterface for FaultyFlash<F> {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        let raw = self.inner.read_word(word)?;
        let geom = self.inner.geometry();
        let seg = geom.segment_of(word);
        let offset = geom.word_offset_in_segment(word) as u32;
        let reads = self.reads_of(seg);
        let (value, disturbed, flipped) = self.corrupt_word(op, offset, reads, raw);
        if disturbed > 0 {
            self.push(FaultEvent::ReadDisturb {
                op,
                bits: disturbed,
            });
        }
        if flipped > 0 {
            self.push(FaultEvent::ReadFlips { op, bits: flipped });
        }
        self.bump_reads(seg);
        Ok(value)
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        let mut words = self.inner.read_block(seg)?;
        let reads = self.reads_of(seg);
        let mut disturbed = 0u32;
        let mut flipped = 0u32;
        for (i, w) in words.iter_mut().enumerate() {
            let (value, d, f) = self.corrupt_word(op, i as u32, reads, *w);
            *w = value;
            disturbed += d;
            flipped += f;
        }
        if disturbed > 0 {
            self.push(FaultEvent::ReadDisturb {
                op,
                bits: disturbed,
            });
        }
        if flipped > 0 {
            self.push(FaultEvent::ReadFlips { op, bits: flipped });
        }
        self.bump_reads(seg);
        Ok(words)
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        self.inner.program_word(word, value)
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        self.inner.program_block(seg, values)
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        let op = self.next_op();
        if let Some(fraction) = self.plan.power_loss_at(op) {
            return self.interrupted_erase(op, seg, fraction);
        }
        self.nak_gate(op)?;
        self.inner.erase_segment(seg)?;
        self.reset_reads(seg);
        Ok(())
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        let delta = self.plan.jitter_at(op);
        if delta.abs() > 0.0 {
            self.push(FaultEvent::TpewJitter {
                op,
                delta_us: delta,
            });
        }
        let t = Micros::new((t_pe.get() + delta).max(0.1));
        self.inner.partial_erase(seg, t)
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        let op = self.next_op();
        if let Some(fraction) = self.plan.power_loss_at(op) {
            self.interrupted_erase(op, seg, fraction)?;
            // Unreachable: interrupted_erase always errors; keep the typed
            // failure if that ever changes.
            return Err(NorError::PowerLoss);
        }
        self.nak_gate(op)?;
        let spent = self.inner.erase_until_clean(seg)?;
        self.reset_reads(seg);
        Ok(spent)
    }

    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
}

impl<F: PartialProgram> PartialProgram for FaultyFlash<F> {
    fn partial_program(&mut self, seg: SegmentAddr, t_pp: Micros) -> Result<(), NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        self.inner.partial_program(seg, t_pp)
    }
}

impl<F: BulkStress> BulkStress for FaultyFlash<F> {
    fn bulk_imprint(
        &mut self,
        seg: SegmentAddr,
        pattern: &[u16],
        cycles: u64,
        timing: ImprintTiming,
    ) -> Result<Seconds, NorError> {
        let op = self.next_op();
        self.power_gate(op)?;
        self.nak_gate(op)?;
        self.inner.bulk_imprint(seg, pattern, cycles, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_nor::interface::FlashInterfaceExt;
    use flashmark_nor::FlashController;
    use flashmark_physics::PhysicsParams;

    fn chip(seed: u64) -> FlashController {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(4),
            FlashTimings::msp430(),
            seed,
        )
    }

    #[test]
    fn golden_plan_is_transparent() {
        let seg = SegmentAddr::new(0);
        let mut bare = chip(11);
        bare.program_all_zero(seg).unwrap();
        let expected = bare.read_block(seg).unwrap();

        let mut faulty = FaultyFlash::new(chip(11), FaultPlan::golden(99));
        faulty.program_all_zero(seg).unwrap();
        let got = faulty.read_block(seg).unwrap();
        assert_eq!(expected, got);
        assert_eq!(faulty.injected(), 0);
    }

    #[test]
    fn replay_is_byte_identical() {
        let plan = FaultPlan::new(21)
            .with_read_flips(0.01)
            .with_transients(0.2, 2);
        let run = |plan: FaultPlan| -> (Vec<Vec<u16>>, Vec<FaultEvent>) {
            let mut f = FaultyFlash::new(chip(5), plan);
            let seg = SegmentAddr::new(1);
            let mut reads = Vec::new();
            for _ in 0..10 {
                if let Ok(words) = f.read_block(seg) {
                    reads.push(words);
                }
            }
            let events = f.events().to_vec();
            (reads, events)
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn transient_nak_precedes_the_device_and_is_burst_bounded() {
        let mut f = FaultyFlash::new(chip(1), FaultPlan::new(2).with_transients(1.0, 3));
        let seg = SegmentAddr::new(0);
        let mut naks = 0;
        loop {
            match f.erase_segment(seg) {
                Err(NorError::TransientNak) => naks += 1,
                Ok(()) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(naks, 3, "rate-1.0 plan must NAK exactly `burst` times");
    }

    #[test]
    fn power_loss_during_erase_leaves_a_partial_pulse() {
        // The simulated erase *transition* happens on the tens-of-µs scale
        // (the Fig. 4 window), far below the 25 ms datasheet command time;
        // pin tErase inside the transition window so the interrupted pulse
        // leaves the mid-erase state we want to observe.
        let mut f = FaultyFlash::new(chip(3), FaultPlan::new(4).with_power_loss(1, 0.4))
            .with_t_erase(Micros::new(60.0));
        let seg = SegmentAddr::new(0);
        f.program_all_zero(seg).unwrap(); // op 0
        assert_eq!(f.erase_segment(seg), Err(NorError::PowerLoss)); // op 1
                                                                    // A 24 µs pulse moves cells but does not complete the erase: the
                                                                    // segment must not read fully erased.
        let words = f.read_block(seg).unwrap();
        assert!(
            words.iter().any(|&w| w != 0xFFFF),
            "0.4 tErase must not fully erase a just-programmed segment"
        );
        // Power is back: the next erase completes.
        f.erase_segment(seg).unwrap();
        assert!(f.read_block(seg).unwrap().iter().all(|&w| w == 0xFFFF));
    }

    #[test]
    fn read_faults_do_not_touch_the_array() {
        let seg = SegmentAddr::new(0);
        let mut f = FaultyFlash::new(chip(8), FaultPlan::new(9).with_read_flips(0.05));
        f.program_all_zero(seg).unwrap();
        let _ = f.read_block(seg).unwrap();
        assert!(f.injected() > 0, "5 % read noise over 4096 bits must fire");
        // The array itself is untouched: a fault-free read via the inner
        // handle sees a fully-programmed segment.
        assert!(f
            .inner_mut()
            .read_block(seg)
            .unwrap()
            .iter()
            .all(|&w| w == 0));
    }

    #[test]
    fn read_disturb_accumulates_and_resets_on_erase() {
        let seg = SegmentAddr::new(0);
        let plan = FaultPlan::new(10).with_read_disturb(5e-4);
        let mut f = FaultyFlash::new(chip(12), plan);
        f.erase_segment(seg).unwrap();
        let mut disturbed = 0usize;
        for _ in 0..50 {
            let words = f.read_block(seg).unwrap();
            disturbed += words
                .iter()
                .map(|w| w.count_zeros() as usize)
                .sum::<usize>();
        }
        assert!(disturbed > 0, "accumulated reads must disturb some bits");
        f.erase_segment(seg).unwrap();
        let first = f.read_block(seg).unwrap();
        assert!(
            first.iter().all(|&w| w == 0xFFFF),
            "first read after erase has zero accumulated disturb"
        );
    }

    #[test]
    fn jitter_perturbs_partial_erase_only() {
        let seg = SegmentAddr::new(0);
        let mut f = FaultyFlash::new(chip(14), FaultPlan::new(15).with_t_pew_jitter(3.0));
        f.program_all_zero(seg).unwrap();
        f.partial_erase(seg, Micros::new(30.0)).unwrap();
        assert!(matches!(
            f.events().first(),
            Some(FaultEvent::TpewJitter { .. })
        ));
    }
}
