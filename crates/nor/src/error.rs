//! Error type of the NOR flash emulation.

use core::fmt;

/// Errors raised by the flash array, controller, or register front-end.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NorError {
    /// A geometry parameter was invalid.
    InvalidGeometry(&'static str),
    /// Segment index past the end of the device.
    SegmentOutOfRange {
        /// Offending segment index.
        segment: u32,
        /// Number of segments on the device.
        total: u32,
    },
    /// Word index past the end of the device.
    WordOutOfRange {
        /// Offending word index.
        word: u32,
        /// Number of words on the device.
        total: u64,
    },
    /// The controller is locked (`LOCK` bit set); the operation was refused.
    Locked,
    /// The controller is mid-operation and cannot accept the command.
    Busy,
    /// An abort was issued with no erase in flight.
    NoEraseInProgress,
    /// A register write used a wrong password key (sets `KEYV` on real
    /// parts).
    KeyViolation,
    /// A flash access conflicted with the controller mode bits (sets
    /// `ACCVIFG` on real parts), e.g. a write with neither `WRT` nor `ERASE`
    /// set.
    AccessViolation {
        /// Word involved in the access.
        word: u32,
    },
    /// A block buffer had the wrong length for the segment.
    BlockLengthMismatch {
        /// Words supplied.
        got: usize,
        /// Words per segment required.
        expected: usize,
    },
    /// The cumulative program time of a segment since its last erase
    /// exceeded the datasheet limit (`tCPT`); an erase is required before
    /// further programming.
    CumulativeProgramTime {
        /// Segment involved.
        segment: u32,
    },
    /// The segment has exceeded the point where the simulator can model it
    /// (wear far beyond endurance).
    WearModelRange {
        /// Wear in kcycles.
        kcycles: f64,
    },
    /// The interface NAK'ed the command (bus glitch, handshake timeout).
    /// The operation had no effect on the array; re-issuing it is expected
    /// to succeed.
    TransientNak,
    /// Power was lost mid-operation. The operation's effect on the array is
    /// partial or absent; once power returns the device accepts commands
    /// again.
    PowerLoss,
}

// f64 in WearModelRange breaks Eq; keep Eq by comparing bits.
impl Eq for NorError {}

impl NorError {
    /// Whether the error is transient: the command failed for reasons that
    /// do not persist (NAK, busy controller, mid-operation power loss), so
    /// a bounded retry of the same operation is the correct response.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::TransientNak | Self::PowerLoss | Self::Busy)
    }
}

impl fmt::Display for NorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidGeometry(why) => write!(f, "invalid flash geometry: {why}"),
            Self::SegmentOutOfRange { segment, total } => {
                write!(
                    f,
                    "segment {segment} out of range (device has {total} segments)"
                )
            }
            Self::WordOutOfRange { word, total } => {
                write!(f, "word {word} out of range (device has {total} words)")
            }
            Self::Locked => write!(f, "flash controller is locked"),
            Self::Busy => write!(f, "flash controller is busy"),
            Self::NoEraseInProgress => write!(f, "no erase operation in progress to abort"),
            Self::KeyViolation => write!(f, "register write with invalid password key"),
            Self::AccessViolation { word } => {
                write!(
                    f,
                    "flash access violation at word {word} (mode bits do not allow it)"
                )
            }
            Self::BlockLengthMismatch { got, expected } => {
                write!(f, "block buffer has {got} words, segment needs {expected}")
            }
            Self::CumulativeProgramTime { segment } => {
                write!(
                    f,
                    "cumulative program time of segment {segment} exceeded; erase required"
                )
            }
            Self::WearModelRange { kcycles } => {
                write!(
                    f,
                    "wear of {kcycles} kcycles is outside the calibrated model range"
                )
            }
            Self::TransientNak => write!(f, "interface rejected the command (transient nak)"),
            Self::PowerLoss => write!(f, "power lost mid-operation"),
        }
    }
}

impl std::error::Error for NorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_prose() {
        let samples: Vec<NorError> = vec![
            NorError::InvalidGeometry("zero banks"),
            NorError::SegmentOutOfRange {
                segment: 9,
                total: 8,
            },
            NorError::WordOutOfRange {
                word: 4096,
                total: 4096,
            },
            NorError::Locked,
            NorError::Busy,
            NorError::NoEraseInProgress,
            NorError::KeyViolation,
            NorError::BlockLengthMismatch {
                got: 3,
                expected: 256,
            },
            NorError::TransientNak,
            NorError::PowerLoss,
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NorError>();
    }

    #[test]
    fn equality() {
        assert_eq!(NorError::Locked, NorError::Locked);
        assert_ne!(NorError::Locked, NorError::Busy);
    }

    #[test]
    fn transient_classification() {
        assert!(NorError::TransientNak.is_transient());
        assert!(NorError::PowerLoss.is_transient());
        assert!(NorError::Busy.is_transient());
        assert!(!NorError::Locked.is_transient());
        assert!(!NorError::KeyViolation.is_transient());
    }
}
