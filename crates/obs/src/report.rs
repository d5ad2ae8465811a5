//! Trial aggregation: merging per-trial collectors in trial order and
//! running instrumented trial campaigns over a `TrialRunner`.

use flashmark_par::{Trial, TrialRunner};

use crate::collector::{Collector, Metrics};
use crate::runtime;

/// Bounded per-trial facts carried into the aggregate report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trial index within the campaign.
    pub trial_index: u64,
    /// Events the trial emitted in total.
    pub ops: u64,
    /// Events still retained in the trial's ring at merge time.
    pub events_retained: u64,
    /// Events evicted from (or refused by) the ring.
    pub dropped: u64,
}

/// The deterministic aggregate of an instrumented campaign.
///
/// Everything in here derives from per-trial collectors merged **in trial
/// order** with pointwise-added [`Metrics`], so the report is byte-for-byte
/// identical at any worker-thread count. Wall-clock timings never enter
/// this type; the bench layer reports them in the suite's runtime table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    trials: u64,
    total_ops: u64,
    events_dropped: u64,
    metrics: Metrics,
    per_trial: Vec<TrialSummary>,
}

impl ObsReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a report from collectors already sorted in trial order.
    #[must_use]
    pub fn merge<'a, I: IntoIterator<Item = &'a Collector>>(collectors: I) -> Self {
        let mut report = Self::new();
        for c in collectors {
            report.absorb_collector(c);
        }
        report
    }

    /// Folds one trial's collector into the aggregate.
    pub fn absorb_collector(&mut self, c: &Collector) {
        self.trials += 1;
        self.total_ops += c.ops();
        self.events_dropped += c.dropped();
        self.metrics.absorb(c.metrics());
        self.per_trial.push(TrialSummary {
            trial_index: c.trial_index(),
            ops: c.ops(),
            events_retained: c.events().count() as u64,
            dropped: c.dropped(),
        });
    }

    /// Number of trials merged in.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Total events emitted across all trials.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Total ring evictions across all trials.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The merged metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-trial summaries in trial order.
    #[must_use]
    pub fn per_trial(&self) -> &[TrialSummary] {
        &self.per_trial
    }
}

/// The outputs of [`run_instrumented`]: campaign results and per-trial
/// collectors, both in trial order.
#[derive(Debug)]
pub struct InstrumentedRun<T> {
    /// One closure result per trial, in trial order.
    pub outputs: Vec<T>,
    /// One collector per trial, in trial order.
    pub collectors: Vec<Collector>,
}

impl<T> InstrumentedRun<T> {
    /// Merges the collectors (in trial order) into an [`ObsReport`].
    #[must_use]
    pub fn report(&self) -> ObsReport {
        ObsReport::merge(&self.collectors)
    }
}

/// Runs `n` trials through `runner` with a fresh [`Collector`] (ring
/// capacity `capacity`) installed around each, and returns outputs and
/// collectors merged back **in trial order** regardless of which worker
/// ran which trial.
///
/// Any collector the trial body itself installed beforehand is restored
/// afterwards, so instrumented campaigns nest inside instrumented callers.
pub fn run_instrumented<T, F>(
    runner: &TrialRunner,
    n: usize,
    capacity: usize,
    f: F,
) -> InstrumentedRun<T>
where
    T: Send,
    F: Fn(Trial) -> T + Sync,
{
    let mut outputs = Vec::with_capacity(n);
    let mut collectors = Vec::with_capacity(n);
    runner.run_observed(
        n,
        |trial| {
            let prev = runtime::install(Collector::with_capacity(trial.index as u64, capacity));
            let out = f(trial);
            // A trial body that stole the collector contributes an empty one.
            let collector =
                runtime::take().unwrap_or_else(|| Collector::with_capacity(trial.index as u64, 0));
            if let Some(p) = prev {
                runtime::install(p);
            }
            (out, collector)
        },
        |_, (out, collector)| {
            outputs.push(out);
            collectors.push(collector);
        },
    );
    InstrumentedRun {
        outputs,
        collectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlashOpKind, ObsEvent};

    fn campaign(threads: usize, trials: usize) -> InstrumentedRun<u64> {
        let runner = TrialRunner::with_threads(42, threads);
        run_instrumented(&runner, trials, 64, |trial| {
            for seg in 0..=trial.index as u32 {
                runtime::emit(ObsEvent::FlashOp {
                    kind: FlashOpKind::EraseSegment,
                    seg,
                });
            }
            runtime::emit(ObsEvent::Verdict { verdict: "genuine" });
            trial.seed
        })
    }

    #[test]
    fn collectors_come_back_in_trial_order() {
        let run = campaign(4, 9);
        let indices: Vec<u64> = run.collectors.iter().map(Collector::trial_index).collect();
        assert_eq!(indices, (0..9).collect::<Vec<u64>>());
        // Trial k erased k+1 segments.
        assert_eq!(
            run.collectors[4]
                .metrics()
                .counter("flash", "erase_segment"),
            5
        );
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let serial = campaign(1, 9);
        let parallel = campaign(8, 9);
        assert_eq!(serial.outputs, parallel.outputs);
        assert_eq!(serial.report(), parallel.report());
        let report = serial.report();
        assert_eq!(report.trials(), 9);
        assert_eq!(report.metrics().counter("verdict", "genuine"), 9);
        // 1 + 2 + ... + 9 segment erases.
        assert_eq!(report.metrics().counter("flash", "erase_segment"), 45);
        assert_eq!(report.per_trial().len(), 9);
    }
}
