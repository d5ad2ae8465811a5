//! Deterministic parallel execution of independent simulation trials.
//!
//! Every quantitative artifact in this repository is a Monte Carlo fan-out
//! over independent simulated chips. [`TrialRunner`] distributes those
//! trials across a scoped worker pool (plain `std::thread` — the workspace
//! is offline, so no external executor) while keeping the output
//! **bit-identical to a serial run**:
//!
//! * each trial's `SplitMix64` seed is a pure function of
//!   `(experiment_seed, trial_index)` — see [`TrialRunner::trial_seed`] —
//!   so no trial ever observes scheduling order through its RNG;
//! * results are merged back in trial-index order, so the returned `Vec`
//!   is independent of which worker ran which trial;
//! * `threads == 1` (or a single trial) takes a plain in-order loop — the
//!   exact legacy serial path, with no pool machinery at all.
//!
//! Raw `std::thread::spawn` and `std::thread::scope` are banned elsewhere
//! in the workspace by `clippy.toml`; all parallelism funnels through this
//! crate so the determinism guarantee holds globally.

#![warn(clippy::print_stdout, clippy::print_stderr)]

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use flashmark_physics::rng::mix2;

/// One trial's identity inside a fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Position in `0..n`; results are merged back in this order.
    pub index: usize,
    /// Deterministic seed, `mix2(experiment_seed, index)`. Use it to build
    /// the trial's chip/RNG so the trial is a pure function of its seed.
    pub seed: u64,
}

/// Fans N independent trials across a scoped worker pool.
///
/// # Example
///
/// ```
/// use flashmark_par::TrialRunner;
/// let serial = TrialRunner::with_threads(0xF1A5, 1);
/// let parallel = TrialRunner::with_threads(0xF1A5, 8);
/// let f = |t: flashmark_par::Trial| t.seed.wrapping_mul(t.index as u64 + 1);
/// assert_eq!(serial.run(100, f), parallel.run(100, f));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRunner {
    experiment_seed: u64,
    threads: usize,
}

impl TrialRunner {
    /// Creates a runner using [`default_threads`] workers.
    #[must_use]
    pub fn new(experiment_seed: u64) -> Self {
        Self::with_threads(experiment_seed, default_threads())
    }

    /// Creates a runner with an explicit worker count (clamped to ≥ 1).
    /// `threads == 1` is the exact legacy serial path.
    #[must_use]
    pub fn with_threads(experiment_seed: u64, threads: usize) -> Self {
        Self {
            experiment_seed,
            threads: threads.max(1),
        }
    }

    /// The experiment-level seed all trial seeds derive from.
    #[must_use]
    pub fn experiment_seed(&self) -> u64 {
        self.experiment_seed
    }

    /// The seed of trial `index`: `mix2(experiment_seed, index)`. A pure
    /// function of its inputs — independent of thread count and schedule.
    #[must_use]
    pub fn trial_seed(&self, index: usize) -> u64 {
        mix2(self.experiment_seed, index as u64)
    }

    /// The full [`Trial`] descriptor for `index`.
    #[must_use]
    pub fn trial(&self, index: usize) -> Trial {
        Trial {
            index,
            seed: self.trial_seed(index),
        }
    }

    /// Runs `n` trials of `f` and returns their results in trial order.
    ///
    /// With one worker (or ≤ 1 trials) this is a plain serial loop.
    /// Otherwise workers pull trial indices from a shared counter and the
    /// per-trial results are merged back by index, so the output is
    /// bit-identical to the serial loop as long as `f` is a pure function
    /// of its [`Trial`].
    ///
    /// # Panics
    ///
    /// A panic inside `f` is propagated to the caller (after the remaining
    /// workers finish).
    #[allow(
        clippy::disallowed_methods,
        reason = "the workspace's one worker pool; results merge back in trial order"
    )]
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Trial) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(|i| f(self.trial(i))).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    let runner = *self;
                    scope.spawn(move || {
                        let mut produced = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            produced.push((index, f(runner.trial(index))));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (index, value) in produced {
                            slots[index] = Some(value);
                        }
                    }
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every trial index was claimed exactly once"))
            .collect()
    }
}

/// The machine's available parallelism (≥ 1).
#[must_use]
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Error from parsing a `--threads` command-line flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsArgError(String);

impl fmt::Display for ThreadsArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid --threads flag: {}", self.0)
    }
}

impl std::error::Error for ThreadsArgError {}

/// Extracts `--threads N` / `--threads=N` from an argument list.
///
/// Returns `Ok(None)` when the flag is absent; other arguments are ignored
/// so bins can layer their own flags on top.
///
/// # Errors
///
/// The flag is present but has no value, a non-numeric value, or `0`.
pub fn parse_threads<I, S>(args: I) -> Result<Option<usize>, ThreadsArgError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        let value = if arg == "--threads" {
            match iter.next() {
                Some(v) => v.as_ref().to_owned(),
                None => return Err(ThreadsArgError("missing value after --threads".into())),
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            v.to_owned()
        } else {
            continue;
        };
        return match value.parse::<usize>() {
            Ok(0) => Err(ThreadsArgError("thread count must be >= 1".into())),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(ThreadsArgError(format!("not a number: {value:?}"))),
        };
    }
    Ok(None)
}

/// Worker count for a bin: `--threads` from the process arguments, falling
/// back to [`default_threads`].
///
/// # Errors
///
/// Malformed `--threads` flag (see [`parse_threads`]).
pub fn threads_from_env_args() -> Result<usize, ThreadsArgError> {
    Ok(parse_threads(std::env::args().skip(1))?.unwrap_or_else(default_threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn trial_seed_is_pure_function_of_seed_and_index() {
        let a = TrialRunner::with_threads(0xABCD, 1);
        let b = TrialRunner::with_threads(0xABCD, 16);
        for i in 0..100 {
            assert_eq!(a.trial_seed(i), b.trial_seed(i));
            assert_eq!(a.trial_seed(i), mix2(0xABCD, i as u64));
        }
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let runner = TrialRunner::new(7);
        let seeds: BTreeSet<u64> = (0..1_000).map(|i| runner.trial_seed(i)).collect();
        assert_eq!(seeds.len(), 1_000);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // A trial that feeds its seed through floating-point work, so any
        // scheduling leak would show up in the bits.
        let f = |t: Trial| {
            let mut rng = flashmark_physics::rng::SplitMix64::new(t.seed);
            (0..50).map(|_| rng.normal()).sum::<f64>().to_bits()
        };
        let serial = TrialRunner::with_threads(0x5EED, 1).run(64, f);
        for threads in [2, 3, 8, 32] {
            let parallel = TrialRunner::with_threads(0x5EED, threads).run(64, f);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let out = TrialRunner::with_threads(1, 8).run(100, |t| t.index);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let out = TrialRunner::with_threads(9, 4).run(257, |t| {
            count.fetch_add(1, Ordering::Relaxed);
            t.index
        });
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn zero_trials_is_empty() {
        assert!(TrialRunner::with_threads(1, 8)
            .run(0, |t| t.index)
            .is_empty());
        assert!(TrialRunner::with_threads(1, 1)
            .run(0, |t| t.index)
            .is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(TrialRunner::with_threads(1, 0).threads, 1);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn worker_panic_propagates() {
        TrialRunner::with_threads(1, 4).run(8, |t| {
            assert!(t.index != 3, "trial 3 exploded");
            t.index
        });
    }

    #[test]
    fn parse_threads_accepts_both_forms() {
        assert_eq!(parse_threads(["--threads", "4"]).unwrap(), Some(4));
        assert_eq!(parse_threads(["--threads=9"]).unwrap(), Some(9));
        assert_eq!(parse_threads(["--layout=interleaved"]).unwrap(), None);
        assert_eq!(
            parse_threads(["--foo", "--threads=2", "bar"]).unwrap(),
            Some(2)
        );
    }

    #[test]
    fn parse_threads_rejects_garbage() {
        assert!(parse_threads(["--threads"]).is_err());
        assert!(parse_threads(["--threads", "zero"]).is_err());
        assert!(parse_threads(["--threads=0"]).is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
