//! `TimedFlash`: a [`FlashInterface`] wrapper that times every operation a
//! caller issues to the NOR model underneath.
//!
//! Every trait method is forwarded explicitly. A method left to its default
//! body would change what runs underneath: the default `read_block` loops
//! over `read_word`, which the NOR controller implements with a batched
//! physics sweep instead.

use std::time::Instant;

use flashmark_nor::{FlashGeometry, FlashInterface, NorError, SegmentAddr, WordAddr};
use flashmark_physics::{Micros, Seconds};

/// One NOR operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NorOp {
    /// `read_word`
    ReadWord,
    /// `read_block`
    ReadBlock,
    /// `program_word`
    ProgramWord,
    /// `program_block`
    ProgramBlock,
    /// `erase_segment`
    EraseSegment,
    /// `partial_erase`
    PartialErase,
    /// `erase_until_clean`
    EraseUntilClean,
}

impl NorOp {
    /// Every operation class, in ledger order.
    pub const ALL: [Self; 7] = [
        Self::PartialErase,
        Self::EraseSegment,
        Self::ProgramBlock,
        Self::ReadBlock,
        Self::ReadWord,
        Self::ProgramWord,
        Self::EraseUntilClean,
    ];

    /// The span name recorded for the operation.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Self::ReadWord => "nor.read_word",
            Self::ReadBlock => "nor.read_block",
            Self::ProgramWord => "nor.program_word",
            Self::ProgramBlock => "nor.program_block",
            Self::EraseSegment => "nor.erase_segment",
            Self::PartialErase => "nor.partial_erase",
            Self::EraseUntilClean => "nor.erase_until_clean",
        }
    }

    /// The per-layer `(time, calls)` metric names of the operations the
    /// service path issues; `None` for the others.
    #[must_use]
    pub fn ledger_names(self) -> Option<(&'static str, &'static str)> {
        match self {
            Self::PartialErase => Some(("nor.partial_erase_us", "nor.partial_erase_calls")),
            Self::EraseSegment => Some(("nor.erase_segment_us", "nor.erase_segment_calls")),
            Self::ProgramBlock => Some(("nor.program_block_us", "nor.program_block_calls")),
            Self::ReadBlock => Some(("nor.read_block_us", "nor.read_block_calls")),
            Self::ReadWord | Self::ProgramWord | Self::EraseUntilClean => None,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct NorCall {
    /// What was called.
    pub op: NorOp,
    /// When the call was issued.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// Wraps a flash device and records a [`NorCall`] per operation.
#[derive(Debug, Clone)]
pub struct TimedFlash<F> {
    inner: F,
    calls: Vec<NorCall>,
}

impl<F> TimedFlash<F> {
    /// Wraps `inner` with an empty call log.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            calls: Vec::new(),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Removes and returns the calls recorded so far.
    pub fn take_calls(&mut self) -> Vec<NorCall> {
        std::mem::take(&mut self.calls)
    }

    fn timed<T>(&mut self, op: NorOp, call: impl FnOnce(&mut F) -> T) -> T {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.calls.push(NorCall {
            op,
            start,
            end: Instant::now(),
        });
        out
    }
}

impl<F: FlashInterface> FlashInterface for TimedFlash<F> {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }

    fn read_word(&mut self, word: WordAddr) -> Result<u16, NorError> {
        self.timed(NorOp::ReadWord, |f| f.read_word(word))
    }

    fn read_block(&mut self, seg: SegmentAddr) -> Result<Vec<u16>, NorError> {
        self.timed(NorOp::ReadBlock, |f| f.read_block(seg))
    }

    fn program_word(&mut self, word: WordAddr, value: u16) -> Result<(), NorError> {
        self.timed(NorOp::ProgramWord, |f| f.program_word(word, value))
    }

    fn program_block(&mut self, seg: SegmentAddr, values: &[u16]) -> Result<(), NorError> {
        self.timed(NorOp::ProgramBlock, |f| f.program_block(seg, values))
    }

    fn erase_segment(&mut self, seg: SegmentAddr) -> Result<(), NorError> {
        self.timed(NorOp::EraseSegment, |f| f.erase_segment(seg))
    }

    fn partial_erase(&mut self, seg: SegmentAddr, t_pe: Micros) -> Result<(), NorError> {
        self.timed(NorOp::PartialErase, |f| f.partial_erase(seg, t_pe))
    }

    fn erase_until_clean(&mut self, seg: SegmentAddr) -> Result<Micros, NorError> {
        self.timed(NorOp::EraseUntilClean, |f| f.erase_until_clean(seg))
    }

    fn elapsed(&self) -> Seconds {
        self.inner.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_bench::service_campaign::{campaign_config, CAMPAIGN_MANUFACTURER};
    use flashmark_core::{TestStatus, Verifier};
    use flashmark_msp430::Msp430Variant;
    use flashmark_obs::{install, take, Collector};
    use flashmark_supply::Manufacturer;

    #[test]
    fn wrapped_verify_is_identical_to_unwrapped() {
        let config = campaign_config();
        let mut manufacturer =
            Manufacturer::new(CAMPAIGN_MANUFACTURER, Msp430Variant::F5438, config.clone());
        let chip = manufacturer.produce(0x7E57, TestStatus::Accept).unwrap();
        let verifier = Verifier::new(config, CAMPAIGN_MANUFACTURER);
        let seg = chip.flash.watermark_segment();

        let mut plain = chip.flash.clone();
        install(Collector::with_capacity(0, 0));
        let plain_report = verifier.verify(&mut plain, seg).unwrap();
        let plain_obs = take().unwrap();

        let mut timed = TimedFlash::new(chip.flash.clone());
        install(Collector::with_capacity(0, 0));
        let timed_report = verifier.verify(&mut timed, seg).unwrap();
        let timed_obs = take().unwrap();

        assert_eq!(plain_report, timed_report);
        assert_eq!(
            plain.elapsed().get().to_bits(),
            timed.elapsed().get().to_bits()
        );
        assert_eq!(plain_obs.metrics(), timed_obs.metrics());
        assert_eq!(plain_obs.ops(), timed_obs.ops());

        // Blocks were read as blocks: nothing fell back to the word loop.
        let calls = timed.take_calls();
        assert!(calls.iter().any(|c| c.op == NorOp::ReadBlock));
        assert!(calls.iter().all(|c| c.op != NorOp::ReadWord));
        assert_eq!(
            calls.iter().filter(|c| c.op == NorOp::ReadBlock).count() as u64,
            timed_obs.metrics().counter("flash", "read_block")
        );
        assert!(calls.iter().all(|c| c.end >= c.start));
        assert!(timed.take_calls().is_empty());
    }
}
