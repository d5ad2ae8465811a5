//! Golden-vector regression: re-runs the Fig. 5 extraction on its fixed
//! suite seed and pins every field against the committed
//! `results/fig05.json`, and replays one instrumented fault-campaign trial
//! against its committed event timeline. Any drift in the physics model,
//! characterization, op order or RNG plumbing shows up here as an
//! exact-value mismatch rather than a silently regenerated artifact.

use std::path::Path;

use flashmark_bench::experiments::fig05;
use flashmark_bench::observability::dump_trial;
use flashmark_bench::suite::Profile;
use flashmark_par::TrialRunner;
use flashmark_physics::Micros;

/// Line-oriented reader for the committed artifact — the same shape
/// `Json::pretty` writes, which is all this test needs to understand.
fn field(text: &str, name: &str) -> f64 {
    let needle = format!("\"{name}\": ");
    text.lines()
        .find_map(|line| line.trim().strip_prefix(&needle))
        .unwrap_or_else(|| panic!("field {name:?} missing from fig05.json"))
        .trim_end_matches(',')
        .parse()
        .unwrap_or_else(|_| panic!("field {name:?} is not a number"))
}

/// The two bare numbers of the `programmed_at_t_pew` array.
fn programmed_pair(text: &str) -> (usize, usize) {
    let nums: Vec<usize> = text
        .lines()
        .skip_while(|l| !l.contains("programmed_at_t_pew"))
        .skip(1)
        .map_while(|l| l.trim().trim_end_matches(',').parse().ok())
        .collect();
    assert_eq!(nums.len(), 2, "programmed_at_t_pew must hold two counts");
    (nums[0], nums[1])
}

#[test]
fn fig05_extraction_matches_committed_golden_vector() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig05.json");
    let text = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed.display()));

    // The exact suite invocation: seed 0xF1605, 50 kcycle stress, the
    // paper's 23 µs operating point. Serial runner — fig05 is one trial, so
    // the thread count is irrelevant, but pinning it keeps this test
    // independent of machine parallelism by construction.
    let runner = TrialRunner::with_threads(0xF1605, 1);
    let f5 = fig05(&runner, 50.0, Micros::new(field(&text, "t_pew_us"))).unwrap();

    assert_eq!(f5.t_pew_us.to_bits(), field(&text, "t_pew_us").to_bits());
    assert_eq!(
        (f5.distinguishable as f64).to_bits(),
        field(&text, "distinguishable").to_bits()
    );
    assert_eq!((f5.total as f64).to_bits(), field(&text, "total").to_bits());
    assert_eq!(
        f5.best_t_pew_us.to_bits(),
        field(&text, "best_t_pew_us").to_bits()
    );
    assert_eq!(
        (f5.best_distinguishable as f64).to_bits(),
        field(&text, "best_distinguishable").to_bits()
    );
    assert_eq!(f5.programmed_at_t_pew, programmed_pair(&text));
}

/// The timeline `obs_dump --seed=42 --trial=0` prints (the smoke profile's
/// first trial: every flash op, retry, ladder rung and the verdict, in op
/// order), pinned byte for byte. Regenerate the fixture with that command
/// only for a change meant to move the timeline.
#[test]
fn obs_dump_timeline_matches_the_pinned_fixture() {
    let pinned = include_str!("obs_dump_seed42_trial0.txt");
    let timeline = dump_trial(42, 0, Profile::Smoke).unwrap();
    let first_diff = timeline
        .lines()
        .zip(pinned.lines())
        .position(|(got, want)| got != want);
    if let Some(i) = first_diff {
        panic!(
            "timeline line {} moved: got {:?}, pinned {:?}",
            i + 1,
            timeline.lines().nth(i),
            pinned.lines().nth(i)
        );
    }
    assert!(
        timeline == pinned,
        "timeline has {} lines, the pinned one {}",
        timeline.lines().count(),
        pinned.lines().count()
    );
}
