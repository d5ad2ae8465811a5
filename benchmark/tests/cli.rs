//! The `flashbench` command line, end to end: `--quick` runs of every
//! workload pass their correctness gates at the default seed and print the
//! result object last, traced runs reproduce the real registry bit for bit,
//! and `agree` reads the result sets the runs append.

use std::path::{Path, PathBuf};
use std::process::Command;

use flashbench::json::{flag, get, num, parse, Value};
use flashbench::metrics::{Catalogue, MetricDef};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary; returns whether it exited 0 and its stdout.
fn flashbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flashbench"))
        .args(args)
        .output()
        .expect("flashbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// Checks the result object on the last stdout line: its exact shape, and
/// one metric per `listed` entry, in order, with the listed unit.
fn check_result_object(stdout: &str, listed: &[MetricDef]) {
    let last = stdout.lines().last().expect("some output");
    let result = parse(last).expect("last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(get(&result, "correct").and_then(flag), Some(true));
    assert_eq!(get(&result, "failed").and_then(num), Some(0.0));
    assert!(get(&result, "attempted").and_then(num).unwrap() >= 1.0);
    let metrics = get(&result, "metrics").and_then(Value::as_object).unwrap();
    assert_eq!(metrics.len(), listed.len());
    for ((name, m), def) in metrics.iter().zip(listed) {
        assert_eq!(*name, def.name);
        assert!(get(m, "value").and_then(num).is_some(), "{name}");
        assert_eq!(
            get(m, "unit").and_then(Value::as_str),
            Some(def.unit.as_str())
        );
    }
}

#[test]
fn quick_runs_pass_their_gates_and_repeat_exactly() {
    let catalogue = Catalogue::load().unwrap();
    let (a, b) = (fresh_dir("quick-a"), fresh_dir("quick-b"));
    for workload in ["inspect_campaign", "inspect_tray", "enroll_lot"] {
        for dir in [&a, &b] {
            let (ok, stdout) = flashbench(&[
                "run",
                "--workload",
                workload,
                "--quick",
                "--out",
                dir.to_str().unwrap(),
            ]);
            assert!(ok, "{workload}:\n{stdout}");
            assert!(stdout.contains("gate checkpoint_root ok"), "{stdout}");
            check_result_object(&stdout, &catalogue.end_to_end);
        }
    }

    let set = |dir: &Path| dir.join("results.jsonl");
    let load = |dir: &Path| flashbench::agree::load_set(&set(dir)).expect("result set");
    let (runs_a, runs_b) = (load(&a), load(&b));
    assert_eq!(runs_a.len(), 3);
    for (x, y) in runs_a.iter().zip(&runs_b) {
        assert_eq!(x.exact, y.exact, "{}", x.workload);
    }

    // A set compared with itself agrees through the command line.
    let set_a = set(&a);
    let (ok, report) = flashbench(&["agree", set_a.to_str().unwrap(), set_a.to_str().unwrap()]);
    assert!(ok, "{report}");
    assert!(report.contains("exact values identical"), "{report}");
}

#[test]
fn traced_quick_runs_reproduce_the_real_path() {
    let catalogue = Catalogue::load().unwrap();
    let dir = fresh_dir("traced");
    for workload in ["inspect_tray", "enroll_lot"] {
        let (ok, stdout) = flashbench(&[
            "run",
            "--workload",
            workload,
            "--quick",
            "--trace",
            "1",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(ok, "{workload}:\n{stdout}");
        for gate in ["shadow_config", "shadow_root", "trace_coverage"] {
            assert!(stdout.contains(&format!("gate {gate} ok")), "{stdout}");
        }
        check_result_object(&stdout, &catalogue.per_layer);
        let trace = std::fs::read_to_string(dir.join(format!("{workload}.trace.json"))).unwrap();
        let spans = parse(&trace).unwrap();
        assert!(!get(&spans, "spans")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--workload", "enroll_lot", "--seconds", "-1"],
        &["run", "--workload", "enroll_lot", "--threads", "2"],
        &["agree", "only-one.jsonl"],
        &["frobnicate"],
    ] {
        let (ok, stdout) = flashbench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}
