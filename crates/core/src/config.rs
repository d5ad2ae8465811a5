//! Flashmark configuration: the design-space knobs the paper evaluates.

use flashmark_physics::Micros;

use crate::error::CoreError;

/// Parameters of the imprint/extract procedures.
///
/// Defaults follow the paper's recommended operating point: `NPE` = 60 K
/// stress cycles, 7 replicas, 3-read majority, accelerated imprint, and an
/// extraction window inside the low-BER valley of Fig. 9/11.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashmarkConfig {
    n_pe: u64,
    t_pew: Micros,
    replicas: usize,
    reads: usize,
    accelerated: bool,
}

impl FlashmarkConfig {
    /// Starts a builder with the recommended defaults.
    #[must_use]
    pub fn builder() -> FlashmarkConfigBuilder {
        FlashmarkConfigBuilder {
            config: Self {
                n_pe: 60_000,
                t_pew: Micros::new(30.0),
                replicas: 7,
                reads: 3,
                accelerated: true,
            },
        }
    }

    /// Number of imprinting P/E stress cycles (`NPE`).
    #[must_use]
    pub fn n_pe(&self) -> u64 {
        self.n_pe
    }

    /// Partial-erase time used during extraction (`tPEW`).
    #[must_use]
    pub fn t_pew(&self) -> Micros {
        self.t_pew
    }

    /// Number of watermark replicas (odd).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of reads per word in `AnalyzeSegment` (odd).
    #[must_use]
    pub fn reads(&self) -> usize {
        self.reads
    }

    /// Whether imprinting uses the accelerated (early-exit erase) schedule.
    #[must_use]
    pub fn accelerated(&self) -> bool {
        self.accelerated
    }

    /// This recipe with only its extraction time changed: one rung of the
    /// verifier's `tPEW` ladder, or one point of a BER sweep.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a non-positive or non-finite `t_pew`.
    pub fn with_t_pew(&self, t_pew: Micros) -> Result<Self, CoreError> {
        FlashmarkConfigBuilder {
            config: Self {
                t_pew,
                ..self.clone()
            },
        }
        .build()
    }
}

impl Default for FlashmarkConfig {
    fn default() -> Self {
        // The builder's seed config *is* the recommended operating point and
        // passes validation by construction; take it directly so Default
        // stays infallible without a panic path.
        Self::builder().config
    }
}

/// Builder for [`FlashmarkConfig`].
///
/// # Example
///
/// ```
/// use flashmark_core::FlashmarkConfig;
/// use flashmark_physics::Micros;
///
/// let cfg = FlashmarkConfig::builder()
///     .n_pe(40_000)
///     .t_pew(Micros::new(28.0))
///     .replicas(3)
///     .build()?;
/// assert_eq!(cfg.replicas(), 3);
/// # Ok::<(), flashmark_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlashmarkConfigBuilder {
    config: FlashmarkConfig,
}

impl FlashmarkConfigBuilder {
    /// Sets the imprinting stress-cycle count.
    #[must_use]
    pub fn n_pe(mut self, n: u64) -> Self {
        self.config.n_pe = n;
        self
    }

    /// Sets the extraction partial-erase time.
    #[must_use]
    pub fn t_pew(mut self, t: Micros) -> Self {
        self.config.t_pew = t;
        self
    }

    /// Sets the replica count.
    #[must_use]
    pub fn replicas(mut self, k: usize) -> Self {
        self.config.replicas = k;
        self
    }

    /// Sets the per-word read count of the majority analysis.
    #[must_use]
    pub fn reads(mut self, n: usize) -> Self {
        self.config.reads = n;
        self
    }

    /// Chooses the imprint schedule.
    #[must_use]
    pub fn accelerated(mut self, on: bool) -> Self {
        self.config.accelerated = on;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] if a knob is out of range: zero `NPE`,
    /// non-positive `tPEW`, or an even replica/read count (majority voting
    /// needs odd counts).
    pub fn build(self) -> Result<FlashmarkConfig, CoreError> {
        let c = &self.config;
        if c.n_pe == 0 {
            return Err(CoreError::Config("n_pe must be non-zero"));
        }
        if !c.t_pew.is_finite() || c.t_pew.get() <= 0.0 {
            return Err(CoreError::Config("t_pew must be positive"));
        }
        if c.replicas == 0 || c.replicas.is_multiple_of(2) {
            return Err(CoreError::Config("replica count must be odd"));
        }
        if c.reads == 0 || c.reads.is_multiple_of(2) {
            return Err(CoreError::Config("read count must be odd"));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers_operating_point() {
        let c = FlashmarkConfig::default();
        assert_eq!(c.n_pe(), 60_000);
        assert_eq!(c.replicas(), 7);
        assert_eq!(c.reads(), 3);
        assert!(c.accelerated());
    }

    #[test]
    fn builder_round_trips() {
        let c = FlashmarkConfig::builder()
            .n_pe(40_000)
            .t_pew(Micros::new(23.0))
            .replicas(3)
            .reads(5)
            .accelerated(false)
            .build()
            .unwrap();
        assert_eq!(c.n_pe(), 40_000);
        assert_eq!(c.t_pew(), Micros::new(23.0));
        assert_eq!(c.replicas(), 3);
        assert_eq!(c.reads(), 5);
        assert!(!c.accelerated());
    }

    #[test]
    fn with_t_pew_changes_only_the_extraction_time() {
        let c = FlashmarkConfig::builder()
            .n_pe(40_000)
            .replicas(3)
            .reads(5)
            .accelerated(false)
            .build()
            .unwrap();
        let rung = c.with_t_pew(Micros::new(23.0)).unwrap();
        assert_eq!(
            rung,
            FlashmarkConfig::builder()
                .n_pe(40_000)
                .t_pew(Micros::new(23.0))
                .replicas(3)
                .reads(5)
                .accelerated(false)
                .build()
                .unwrap()
        );
        for t in [0.0, -1.0, f64::NAN] {
            assert!(c.with_t_pew(Micros::new(t)).is_err(), "{t}");
        }
    }

    #[test]
    fn rejects_bad_knobs() {
        assert!(FlashmarkConfig::builder().n_pe(0).build().is_err());
        assert!(FlashmarkConfig::builder()
            .t_pew(Micros::new(0.0))
            .build()
            .is_err());
        assert!(FlashmarkConfig::builder().replicas(4).build().is_err());
        assert!(FlashmarkConfig::builder().reads(2).build().is_err());
    }
}
