//! Operation tracing for debugging and experiment narration.

use crate::addr::{SegmentAddr, WordAddr};
use flashmark_physics::{Micros, Seconds};

/// One flash-controller event.
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
    /// A word was read.
    ReadWord {
        /// Source word.
        word: WordAddr,
    },
    /// All segments were mass erased.
    MassErase,
    /// A bulk (closed-form) imprint was applied by the simulator.
    BulkImprint {
        /// Target segment.
        seg: SegmentAddr,
        /// Number of P/E cycles applied.
        cycles: u64,
    },
}

/// A bounded event trace.
///
/// Disabled by default (recording 100 K imprint cycles would be pointless);
/// enable around the window of interest. Reads are recorded only when
/// `record_reads` is set — they dominate event counts otherwise.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<(Seconds, FlashEvent)>,
    enabled: bool,
    record_reads: bool,
    capacity: usize,
    dropped: u64,
    /// Precomputed `enabled && capacity > 0`: [`Trace::record`] tests only
    /// this one always-false-on-hot-paths flag, so a disabled or capacity-0
    /// trace costs a single well-predicted branch per operation.
    armed: bool,
}

impl Trace {
    /// Creates a disabled trace with the default capacity (64 K events).
    #[must_use]
    pub fn new() -> Self {
        Self {
            capacity: 65_536,
            ..Self::default()
        }
    }

    /// Creates a trace that can never record (capacity 0): the cheapest
    /// possible configuration for benchmark hot loops. Enabling it later is
    /// a no-op until [`Trace::set_capacity`] grants room.
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.rearm();
    }

    fn rearm(&mut self) {
        self.armed = self.enabled && self.capacity > 0;
    }

    /// Whether recording is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Also record individual reads (noisy; off by default).
    pub fn set_record_reads(&mut self, on: bool) {
        self.record_reads = on;
    }

    /// Changes the event capacity. Shrinking below the current event count
    /// discards the oldest events (counted as dropped), keeping the most
    /// recent window — the part a backtrace wants.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.events.len() > capacity {
            let excess = self.events.len() - capacity;
            self.events.drain(..excess);
            self.dropped += excess as u64;
        }
        self.rearm();
    }

    /// The event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event at simulated time `at`.
    ///
    /// When the trace is disarmed (disabled, or capacity 0) this is a
    /// single branch — no event inspection, no drop accounting.
    #[inline]
    pub fn record(&mut self, at: Seconds, event: FlashEvent) {
        if !self.armed {
            return;
        }
        self.record_armed(at, event);
    }

    #[cold]
    fn record_armed(&mut self, at: Seconds, event: FlashEvent) {
        if matches!(event, FlashEvent::ReadWord { .. }) && !self.record_reads {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push((at, event));
    }

    /// The captured events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[(Seconds, FlashEvent)] {
        &self.events
    }

    /// Number of events dropped after the trace filled up.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears captured events (keeps the enable state).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(Seconds::new(0.0), FlashEvent::MassErase);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records() {
        let mut t = Trace::new();
        t.enable();
        t.record(
            Seconds::new(1.0),
            FlashEvent::EraseSegment {
                seg: SegmentAddr::new(2),
            },
        );
        assert_eq!(t.events().len(), 1);
        assert!(t.is_enabled());
    }

    #[test]
    fn reads_skipped_unless_opted_in() {
        let mut t = Trace::new();
        t.enable();
        t.record(
            Seconds::new(0.0),
            FlashEvent::ReadWord {
                word: WordAddr::new(1),
            },
        );
        assert!(t.events().is_empty());
        t.set_record_reads(true);
        t.record(
            Seconds::new(0.0),
            FlashEvent::ReadWord {
                word: WordAddr::new(1),
            },
        );
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn set_capacity_keeps_newest_events() {
        let mut t = Trace::new();
        t.enable();
        for i in 0..10 {
            t.record(Seconds::new(f64::from(i)), FlashEvent::MassErase);
        }
        t.set_capacity(3);
        assert_eq!(t.capacity(), 3);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[0].0, Seconds::new(7.0));
        assert_eq!(t.dropped(), 7);
        // Growing back does not resurrect anything.
        t.set_capacity(100);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn off_trace_stays_silent_until_given_capacity() {
        let mut t = Trace::off();
        t.enable();
        t.record(Seconds::new(0.0), FlashEvent::MassErase);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0, "capacity-0 fast path skips bookkeeping");
        // Granting capacity (as the sanitizer's trace sync does) re-arms it.
        t.set_capacity(16);
        t.record(Seconds::new(0.0), FlashEvent::MassErase);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let mut t = Trace {
            capacity: 2,
            ..Trace::default()
        };
        t.enable();
        for _ in 0..5 {
            t.record(Seconds::new(0.0), FlashEvent::MassErase);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
