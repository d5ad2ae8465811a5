//! Structured violation reports.

use core::fmt;

use flashmark_nor::{SegmentAddr, WordAddr};
use flashmark_physics::{Micros, Seconds};

/// What the sanitizer does when it detects a violation.
///
/// Under either policy the violation is first emitted as a
/// `SanitizerViolation` observability event as it happens. Library code
/// never prints; attach an obs collector to see violations live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Panic immediately with the violation report. Use in tests where any
    /// protocol violation is a bug.
    Panic,
    /// Record the violation; inspect via
    /// [`SanitizedFlash::violations`](crate::SanitizedFlash::violations).
    #[default]
    Collect,
}

/// The sanitizer's shadow model of one segment's logical state.
///
/// Driven by the operations the sanitizer observes; used to check the
/// partial-erase ordering precondition of the paper's `ExtractFlashmark`
/// (Fig. 8): a partial erase only has defined meaning on a segment that was
/// just block-programmed all-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegState {
    /// No operation observed yet since wrapping; contents unknown.
    #[default]
    Unknown,
    /// Fully erased (all cells read 1).
    Erased,
    /// Block-programmed with the all-zero pattern — the only valid state to
    /// issue a partial erase from.
    AllZero,
    /// Programmed with some non-all-zero data.
    Programmed,
    /// A partial erase left cells mid-transition (undefined logical
    /// values until the next full erase).
    PartialErased,
}

impl fmt::Display for SegState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Unknown => "unknown",
            Self::Erased => "erased",
            Self::AllZero => "block-programmed all-zero",
            Self::Programmed => "programmed",
            Self::PartialErased => "partially erased",
        };
        f.write_str(s)
    }
}

/// One detected flash-protocol invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// A word was programmed a second time without an intervening erase.
    ///
    /// NOR programming can only move bits 1 → 0; re-programming an already
    /// programmed word silently ANDs data on real parts and accumulates
    /// undeclared stress.
    Overprogram {
        /// The word programmed twice.
        word: WordAddr,
    },
    /// The cumulative program time budget (`tCPT`) of a 128-byte row was
    /// exceeded between erases.
    CumulativeProgramTime {
        /// Segment containing the overheated row.
        seg: SegmentAddr,
        /// Row index within the segment (row = word offset / 64).
        row: u32,
        /// Program time charged to the row since its last erase.
        charged: Micros,
        /// The datasheet budget.
        limit: Micros,
    },
    /// An operation was attempted while the controller was locked.
    LockedOperation,
    /// A segment address beyond the device geometry was used.
    SegmentOutOfRange {
        /// The offending address.
        seg: SegmentAddr,
        /// Total segments on the device.
        total_segments: u32,
    },
    /// A word address beyond the device geometry was used.
    WordOutOfRange {
        /// The offending address.
        word: WordAddr,
        /// Total words on the device.
        total_words: u64,
    },
    /// A partial erase was issued on a segment that was not just
    /// block-programmed all-zero (the `ExtractFlashmark` precondition).
    PartialEraseOrder {
        /// Target segment.
        seg: SegmentAddr,
        /// The shadow state the segment was actually in.
        found: SegState,
    },
    /// A wear counter decreased — wear is physically monotone, so a
    /// decrease means the backend lost or rewound state.
    WearDecrease {
        /// Segment whose wear went backwards.
        seg: SegmentAddr,
        /// Mean wear cycles previously observed.
        previous: f64,
        /// Mean wear cycles observed now.
        observed: f64,
    },
}

impl ViolationKind {
    /// Stable kind label (also the obs event payload).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Overprogram { .. } => "overprogram",
            Self::CumulativeProgramTime { .. } => "cumulative_program_time",
            Self::LockedOperation => "locked_operation",
            Self::SegmentOutOfRange { .. } => "segment_out_of_range",
            Self::WordOutOfRange { .. } => "word_out_of_range",
            Self::PartialEraseOrder { .. } => "partial_erase_order",
            Self::WearDecrease { .. } => "wear_decrease",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overprogram { word } => {
                write!(f, "overprogram: {word} programmed twice without an intervening erase")
            }
            Self::CumulativeProgramTime { seg, row, charged, limit } => write!(
                f,
                "cumulative program time exceeded on {seg} row {row}: {charged} charged, limit {limit}"
            ),
            Self::LockedOperation => write!(f, "operation attempted while the controller is locked"),
            Self::SegmentOutOfRange { seg, total_segments } => {
                write!(f, "{seg} out of range (device has {total_segments} segments)")
            }
            Self::WordOutOfRange { word, total_words } => {
                write!(f, "{word} out of range (device has {total_words} words)")
            }
            Self::PartialEraseOrder { seg, found } => write!(
                f,
                "partial erase of {seg} requires a block-programmed all-zero segment, found: {found}"
            ),
            Self::WearDecrease { seg, previous, observed } => write!(
                f,
                "wear decreased on {seg}: previously {previous:.3} mean cycles, now {observed:.3}"
            ),
        }
    }
}

/// One flash operation the sanitizer forwarded, as kept in its backtrace
/// ring.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FlashEvent {
    /// A full segment erase completed.
    EraseSegment {
        /// Erased segment.
        seg: SegmentAddr,
    },
    /// An erase was started and aborted after a partial-erase time.
    PartialErase {
        /// Target segment.
        seg: SegmentAddr,
        /// Partial-erase time before the emergency exit.
        t_pe: Micros,
    },
    /// An early-exited erase ran until the segment read clean.
    EraseUntilClean {
        /// Target segment.
        seg: SegmentAddr,
        /// Total erase time actually spent.
        took: Micros,
    },
    /// A word was programmed.
    ProgramWord {
        /// Target word.
        word: WordAddr,
    },
    /// A whole segment was block-programmed.
    ProgramBlock {
        /// Target segment.
        seg: SegmentAddr,
    },
    /// A word was read (recorded only with
    /// [`record_reads`](crate::SanitizedFlash::record_reads) on).
    ReadWord {
        /// Source word.
        word: WordAddr,
    },
    /// A bulk (closed-form) imprint was applied by the simulator.
    BulkImprint {
        /// Target segment.
        seg: SegmentAddr,
        /// Number of P/E cycles applied.
        cycles: u64,
    },
}

/// A violation report: what rule was broken, during which operation, when,
/// and the trailing window of flash events that led up to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The broken invariant.
    pub kind: ViolationKind,
    /// Name of the [`FlashInterface`](flashmark_nor::FlashInterface) method
    /// during which the violation was detected.
    pub op: &'static str,
    /// Simulated time at detection.
    pub at: Seconds,
    /// The last events observed before the violation, oldest first — a
    /// protocol-level "backtrace".
    pub backtrace: Vec<(Seconds, FlashEvent)>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (in {} at {}; {} events of history)",
            self.kind,
            self.op,
            self.at,
            self.backtrace.len()
        )?;
        for (at, ev) in &self.backtrace {
            write!(f, "\n    {at}  {ev:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let v = Violation {
            kind: ViolationKind::Overprogram {
                word: WordAddr::new(5),
            },
            op: "program_word",
            at: Seconds::new(1.5),
            backtrace: vec![(
                Seconds::new(1.0),
                FlashEvent::EraseSegment {
                    seg: SegmentAddr::new(0),
                },
            )],
        };
        let s = v.to_string();
        assert!(s.contains("overprogram"));
        assert!(s.contains("word#5"));
        assert!(s.contains("program_word"));
        assert!(s.contains("EraseSegment"));
    }

    #[test]
    fn seg_state_display() {
        assert_eq!(SegState::AllZero.to_string(), "block-programmed all-zero");
        assert_eq!(SegState::default(), SegState::Unknown);
    }
}
