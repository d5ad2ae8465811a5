//! The typed event taxonomy of the observability layer.
//!
//! Events are deliberately plain-data (`Copy`, integers, floats, and
//! `&'static str` labels) so that emitting one never allocates and the
//! `obs` crate never depends on the domain crates it observes — `nor`,
//! `core`, `fault`, and `sanitizer` all translate their own vocabulary
//! into this one at the emission site.

/// The flash operation classes the controller front-end exposes.
///
/// Partial erase, accelerated erase, and bulk imprint carry extra payload
/// and get their own [`ObsEvent`] variants instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOpKind {
    /// A single-word read.
    ReadWord,
    /// A whole-segment batched read.
    ReadBlock,
    /// A single-word program.
    ProgramWord,
    /// A whole-segment batched program.
    ProgramBlock,
    /// A full segment erase.
    EraseSegment,
    /// A mass (all-segment) erase.
    MassErase,
    /// A deliberately aborted word program.
    PartialProgram,
}

impl FlashOpKind {
    /// Stable counter/report name for this operation class.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ReadWord => "read_word",
            Self::ReadBlock => "read_block",
            Self::ProgramWord => "program_word",
            Self::ProgramBlock => "program_block",
            Self::EraseSegment => "erase_segment",
            Self::MassErase => "mass_erase",
            Self::PartialProgram => "partial_program",
        }
    }
}

/// One observability event.
///
/// Every event a trial emits is stamped with a monotone per-trial
/// `op_index` by the [`Collector`](crate::Collector), so a replayed
/// timeline is totally ordered without any wall-clock involvement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent {
    /// A plain flash operation (see [`FlashOpKind`]).
    FlashOp {
        /// Operation class.
        kind: FlashOpKind,
        /// Segment index the operation targeted (0 for mass erase).
        seg: u32,
    },
    /// A partial (aborted) segment erase — the Flashmark primitive.
    PartialErase {
        /// Segment index.
        seg: u32,
        /// Requested partial-erase time in microseconds.
        t_pe_us: f64,
    },
    /// An accelerated erase that exited as soon as the segment read clean.
    EraseUntilClean {
        /// Segment index.
        seg: u32,
        /// Simulated erase time actually spent, in microseconds.
        took_us: f64,
    },
    /// A closed-form bulk imprint (the simulator fast path for Fig. 7).
    BulkImprint {
        /// Segment index.
        seg: u32,
        /// Stress cycles applied.
        cycles: u64,
    },
    /// Cell-level work performed by a batched kernel (per-chunk counter
    /// aggregate — the arena kernels count cells, not per-cell events).
    CellsTouched {
        /// Which kernel touched them (`"read_block"`, `"bulk_imprint"`, …).
        kind: &'static str,
        /// Number of cell visits (cells × passes).
        cells: u64,
    },
    /// Entry into a named phase (see [`span`](crate::span)).
    SpanEnter {
        /// Phase name (`"imprint"`, `"extract"`, …).
        name: &'static str,
    },
    /// Exit from a named phase.
    SpanExit {
        /// Phase name.
        name: &'static str,
    },
    /// A retry of a transiently failed stage.
    Retry {
        /// What is being retried (`"extract"`, `"verify_attempt"`, …).
        stage: &'static str,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// One rung of the `verify_resilient` tPEW retry ladder.
    LadderRung {
        /// tPEW offset of this rung relative to the configured window, µs.
        offset_us: f64,
        /// What the rung produced (`"decoded"`, `"no_watermark"`, …).
        outcome: &'static str,
    },
    /// The strategy that ultimately settled a resilient verification.
    Resolution {
        /// Winning strategy label (see `flashmark_core::Resolution`).
        strategy: &'static str,
    },
    /// A fault plan fired an injected fault.
    FaultFired {
        /// Fault channel (`"transient_nak"`, `"read_flips"`, …).
        channel: &'static str,
        /// The injector's own operation index at which it fired.
        op: u64,
    },
    /// The flash-protocol sanitizer observed a contract violation.
    SanitizerViolation {
        /// Violation class (stable kind name).
        kind: &'static str,
        /// The flash operation that triggered it.
        op: &'static str,
    },
    /// A characterization sweep ran over a tPE window.
    SweepWidth {
        /// Sweep width (`end - start`) in microseconds.
        width_us: f64,
        /// Number of sweep points.
        points: u32,
    },
    /// A verification verdict was reached.
    Verdict {
        /// Verdict label (`"genuine"`, `"counterfeit"`, `"inconclusive"`, …).
        verdict: &'static str,
    },
}

impl ObsEvent {
    /// One human-readable line describing the event, for timeline dumps.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::FlashOp { kind, seg } => format!("{} seg={seg}", kind.name()),
            Self::PartialErase { seg, t_pe_us } => {
                format!("partial_erase seg={seg} t_pe={t_pe_us:.2}us")
            }
            Self::EraseUntilClean { seg, took_us } => {
                format!("erase_until_clean seg={seg} took={took_us:.2}us")
            }
            Self::BulkImprint { seg, cycles } => {
                format!("bulk_imprint seg={seg} cycles={cycles}")
            }
            Self::CellsTouched { kind, cells } => {
                format!("cells_touched {kind} cells={cells}")
            }
            Self::SpanEnter { name } => format!("enter {name}"),
            Self::SpanExit { name } => format!("exit {name}"),
            Self::Retry { stage, attempt } => format!("retry {stage} attempt={attempt}"),
            Self::LadderRung { offset_us, outcome } => {
                format!("ladder_rung offset={offset_us:+.1}us -> {outcome}")
            }
            Self::Resolution { strategy } => format!("resolved_by {strategy}"),
            Self::FaultFired { channel, op } => format!("fault {channel} at_op={op}"),
            Self::SanitizerViolation { kind, op } => {
                format!("sanitizer_violation {kind} during {op}")
            }
            Self::SweepWidth { width_us, points } => {
                format!("sweep width={width_us:.1}us points={points}")
            }
            Self::Verdict { verdict } => format!("verdict {verdict}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptions_include_the_payload() {
        let e = ObsEvent::FaultFired {
            channel: "read_flips",
            op: 17,
        };
        assert_eq!(e.describe(), "fault read_flips at_op=17");
        let e = ObsEvent::FlashOp {
            kind: FlashOpKind::EraseSegment,
            seg: 3,
        };
        assert_eq!(e.describe(), "erase_segment seg=3");
    }
}
