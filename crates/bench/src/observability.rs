//! The `results/obs_report.json` aggregate and the `obs_dump` timeline
//! tool.
//!
//! [`crate::fault_campaign::fault_campaign`] runs every trial of the
//! fault-injection grid under a per-trial [`Collector`] and merges the
//! collectors **in trial order** into [`ObsCampaignData`]: counters,
//! histograms, and per-trial summaries that are byte-identical at any
//! `--threads` count. Wall-clock timings never enter the aggregate; the
//! suite reports the step's wall time in its runtime table only.
//!
//! [`dump_trial`] replays a single trial of the same campaign, seeded as in
//! the campaign, with a large event ring and renders its op-ordered event
//! timeline — flash operations, retry decisions, ladder rungs, fault
//! firings, and the final verdict, exactly as the instrumented stack
//! emitted them.

use std::fmt::Write as _;

use flashmark_obs::{collect, Collector, Metrics};
use flashmark_par::TrialRunner;

use crate::fault_campaign::{
    cell_of, fault_campaign_trials, fault_grid, run_trial, trials_per_cell,
};
use crate::impl_to_json;
use crate::suite::Profile;

/// One merged `(group, name)` counter of the campaign aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsCounterRow {
    /// Counter group, e.g. `flash`, `retry`, `verdict`.
    pub group: String,
    /// Counter name within the group, e.g. `erase_segment`.
    pub name: String,
    /// Merged count across all trials.
    pub count: u64,
}
impl_to_json!(ObsCounterRow { group, name, count });

/// One merged `(metric, bucket)` histogram bin of the campaign aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsHistogramRow {
    /// Histogram metric, e.g. `t_pe_us`.
    pub metric: String,
    /// Integer bucket (µs quantities are rounded at record time).
    pub bucket: i64,
    /// Merged observation count for the bucket.
    pub count: u64,
}
impl_to_json!(ObsHistogramRow {
    metric,
    bucket,
    count
});

/// One trial's bounded summary in the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsTrialRow {
    /// Trial index within the campaign.
    pub trial_index: u64,
    /// Events the trial emitted in total.
    pub ops: u64,
    /// Events still retained in the trial's ring at merge time.
    pub events_retained: u64,
    /// Events evicted from the ring.
    pub dropped: u64,
}
impl_to_json!(ObsTrialRow {
    trial_index,
    ops,
    events_retained,
    dropped
});

/// The `results/obs_report.json` artifact: the deterministic aggregate of
/// an instrumented fault-grid campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsCampaignData {
    /// Campaign seed all trial seeds derive from.
    pub seed: u64,
    /// Profile name (`full` / `smoke`).
    pub profile: &'static str,
    /// Independent trials instrumented.
    pub trials: u64,
    /// Events emitted across all trials.
    pub total_ops: u64,
    /// Ring evictions across all trials.
    pub events_dropped: u64,
    /// Merged counters in sorted `(group, name)` order.
    pub counters: Vec<ObsCounterRow>,
    /// Merged histogram bins in sorted `(metric, bucket)` order.
    pub histograms: Vec<ObsHistogramRow>,
    /// Per-trial summaries in trial order.
    pub per_trial: Vec<ObsTrialRow>,
}
impl_to_json!(ObsCampaignData {
    seed,
    profile,
    trials,
    total_ops,
    events_dropped,
    counters,
    histograms,
    per_trial
});

impl ObsCampaignData {
    /// The merged value of a counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, group: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.group == group && c.name == name)
            .map_or(0, |c| c.count)
    }

    /// Sum of all counters in a group.
    #[must_use]
    pub fn group_total(&self, group: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.group == group)
            .map(|c| c.count)
            .sum()
    }

    /// The aggregate of the seed-`seed` campaign's per-trial collectors,
    /// given in trial order.
    pub(crate) fn from_collectors(seed: u64, profile: Profile, collectors: &[Collector]) -> Self {
        let mut metrics = Metrics::new();
        for c in collectors {
            metrics.absorb(c.metrics());
        }
        Self {
            seed,
            profile: profile.name(),
            trials: collectors.len() as u64,
            total_ops: collectors.iter().map(Collector::ops).sum(),
            events_dropped: collectors.iter().map(Collector::dropped).sum(),
            counters: metrics
                .counters()
                .map(|(group, name, count)| ObsCounterRow {
                    group: group.to_string(),
                    name: name.to_string(),
                    count,
                })
                .collect(),
            histograms: metrics
                .histograms()
                .map(|(metric, bucket, count)| ObsHistogramRow {
                    metric: metric.to_string(),
                    bucket,
                    count,
                })
                .collect(),
            per_trial: collectors
                .iter()
                .map(|c| ObsTrialRow {
                    trial_index: c.trial_index(),
                    ops: c.ops(),
                    events_retained: c.events().count() as u64,
                    dropped: c.dropped(),
                })
                .collect(),
        }
    }
}

/// Ring capacity for [`dump_trial`]: large enough that a single smoke
/// trial never evicts.
const DUMP_CAPACITY: usize = 1 << 16;

/// The loud header warning [`dump_trial`] prints when the trial's event
/// ring overflowed: the timeline then starts mid-trial, with the first
/// `dropped` events evicted. `None` when nothing was lost.
#[must_use]
pub fn truncation_note(dropped: u64) -> Option<String> {
    (dropped > 0).then(|| {
        format!(
            "WARNING: event ring overflowed; the first {dropped} event(s) \
             were evicted and the timeline below starts mid-trial"
        )
    })
}

/// Replays one trial of the seed-`seed` campaign and renders its event
/// timeline, one `op_index  description` line per retained event.
///
/// Only the requested trial runs, with the seed the campaign's
/// [`TrialRunner`] gives it, so its timeline is the campaign trial's own.
///
/// # Errors
///
/// A range error if `trial_index` is out of range for the profile's
/// campaign; configuration or flash errors from the replayed trial.
pub fn dump_trial(
    seed: u64,
    trial_index: usize,
    profile: Profile,
) -> Result<String, Box<dyn std::error::Error>> {
    let grid = fault_grid(profile);
    let reps = trials_per_cell(profile);
    let n = fault_campaign_trials(profile);
    if trial_index >= n {
        return Err(format!(
            "trial {trial_index} out of range: the {} campaign has {n} trials (0..={})",
            profile.name(),
            n - 1
        )
        .into());
    }

    let trial = TrialRunner::with_threads(seed, 1).trial(trial_index);
    let (scenario, class) = cell_of(&grid, trial_index / reps);
    let collector = Collector::with_capacity(trial_index as u64, DUMP_CAPACITY);
    let (outcome, collector) = collect(collector, || run_trial(trial.seed, scenario, class));
    outcome?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trial {trial_index} of {n} (campaign seed {seed}, {} profile)",
        profile.name()
    );
    let _ = writeln!(
        out,
        "scenario={} fault_class={}",
        scenario.name(),
        class.name
    );
    let _ = writeln!(
        out,
        "{} events emitted, {} retained, {} dropped\n",
        collector.ops(),
        collector.events().count(),
        collector.dropped()
    );
    if let Some(note) = truncation_note(collector.dropped()) {
        let _ = writeln!(out, "{note}\n");
    }
    let _ = writeln!(out, "{:>6}  event", "op");
    for (op, event) in collector.events() {
        let _ = writeln!(out, "{op:>6}  {}", event.describe());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_campaign::fault_campaign;

    #[test]
    fn smoke_campaign_counts_verdicts_and_faults() {
        let runner = TrialRunner::with_threads(42, 2);
        let data = fault_campaign(&runner, Profile::Smoke).unwrap().obs;
        assert_eq!(data.trials as usize, fault_campaign_trials(Profile::Smoke));
        assert_eq!(data.per_trial.len(), data.trials as usize);
        // Every trial runs a golden and a faulted verify — two verdicts.
        assert_eq!(data.group_total("verdict"), 2 * data.trials);
        // The fault grid injects by construction.
        assert!(data.group_total("fault") > 0, "no fault firings observed");
        assert!(data.counter("span", "verify_resilient") >= 2 * data.trials);
        assert!(data.total_ops > 0);
    }

    #[test]
    fn dump_renders_an_op_ordered_timeline() {
        let text = dump_trial(42, 0, Profile::Smoke).unwrap();
        assert!(text.contains("scenario=accept"), "{text}");
        assert!(text.contains("enter verify_resilient"), "{text}");
        assert!(text.contains("verdict"), "{text}");
        let ops: Vec<u64> = text
            .lines()
            .skip_while(|l| !l.ends_with("  event"))
            .skip(1)
            .filter_map(|l| l.split_whitespace().next())
            .filter_map(|t| t.parse().ok())
            .collect();
        assert!(ops.len() > 10, "timeline too short: {text}");
        assert!(ops.windows(2).all(|w| w[0] < w[1]), "ops not in order");
    }

    #[test]
    fn dumped_trials_replay_the_campaigns_own_trials() {
        let runner = TrialRunner::with_threads(42, 2);
        let obs = fault_campaign(&runner, Profile::Smoke).unwrap().obs;
        let n = fault_campaign_trials(Profile::Smoke);
        for i in [0, n / 2, n - 1] {
            let text = dump_trial(42, i, Profile::Smoke).unwrap();
            let ops = obs.per_trial[i].ops;
            assert!(
                text.contains(&format!("{ops} events emitted,")),
                "trial {i}: campaign emitted {ops} events\n{text}"
            );
        }
    }

    #[test]
    fn truncation_note_fires_only_on_drops() {
        assert_eq!(truncation_note(0), None);
        let note = truncation_note(37).unwrap();
        assert!(note.contains("WARNING"), "{note}");
        assert!(note.contains("37"), "{note}");
    }

    #[test]
    fn dump_rejects_out_of_range_trials() {
        let n = fault_campaign_trials(Profile::Smoke);
        assert!(dump_trial(42, n, Profile::Smoke).is_err());
    }
}
