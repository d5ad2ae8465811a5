//! Reproducibility: the whole stack is deterministic given seeds.

use flashmark::core::{Extractor, FlashmarkConfig, Imprinter, Watermark};
use flashmark::msp430::Msp430Flash;
use flashmark::nor::SegmentAddr;

fn pipeline(seed: u64) -> Vec<bool> {
    let mut chip = Msp430Flash::f5438(seed);
    let seg = chip.watermark_segment();
    let cfg = FlashmarkConfig::builder()
        .n_pe(40_000)
        .replicas(3)
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("DETERMINISM").unwrap();
    Imprinter::new(&cfg).imprint(&mut chip, seg, &wm).unwrap();
    Extractor::new(&cfg)
        .extract(&mut chip, seg, wm.len())
        .unwrap()
        .channel()
        .to_vec()
}

#[test]
fn same_seed_same_raw_channel() {
    assert_eq!(pipeline(0xD1), pipeline(0xD1));
}

#[test]
fn different_seed_different_raw_channel_noise() {
    // The decoded watermark should agree, but the raw per-cell channel
    // (which carries each chip's process variation) should not be
    // bit-identical between chips.
    let a = pipeline(0xD2);
    let b = pipeline(0xD3);
    assert_ne!(a, b, "two chips should differ somewhere in the raw channel");
}

/// The committed `results/` files that the Smoke suite does not write,
/// because another writer owns them.
const OTHER_WRITERS: [&str; 5] = [
    "BENCH_runtime.json",    // perf_smoke; a Full suite adds the experiment rows
    "service_campaign.json", // the service_campaign bin
    "service_metrics.prom",  // the service_campaign bin
    "registry_golden.log",   // the registry golden-schema test
    "lint_report.json",      // cargo xtask lint
];

/// The parallel trial engine's core guarantee: a reduced-profile `run_all`
/// produces byte-identical JSON, `.jsonl`, and `.prom` artifacts at 1
/// worker thread (the exact legacy serial path) and at 8. The only
/// exception is `service_timings.json`, which exists precisely to
/// quarantine wall-clock measurements away from the deterministic
/// artifacts.
///
/// The suite is also the only writer of experiment artifacts: it writes
/// exactly the files in `results/` apart from those another writer owns,
/// so no artifact that nothing regenerates can hide there.
#[test]
fn suite_json_artifacts_identical_across_thread_counts() {
    use flashmark_bench::suite::{run_suite, Profile, SuiteOptions};

    let base = std::env::temp_dir().join(format!("flashmark_determinism_{}", std::process::id()));
    let mut artifacts: Vec<std::collections::BTreeMap<String, Vec<u8>>> = Vec::new();
    for threads in [1usize, 8] {
        let dir = base.join(format!("threads_{threads}"));
        let report = run_suite(&SuiteOptions {
            threads,
            profile: Profile::Smoke,
            results_dir: dir.clone(),
        })
        .expect("suite I/O");
        assert!(
            report.failures().is_empty(),
            "smoke suite failed at {threads} thread(s): {:?}",
            report.failures()
        );
        let mut files = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(&dir).expect("results dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            // The quarantine file for wall-clock data is the only
            // deterministic-format artifact allowed to differ.
            if path
                .extension()
                .is_some_and(|e| e == "json" || e == "jsonl" || e == "prom")
                && name != "service_timings.json"
            {
                files.insert(name, std::fs::read(&path).expect("artifact"));
            }
        }
        assert!(!files.is_empty(), "suite wrote no JSON artifacts");
        assert!(
            files.contains_key("obs_report.json"),
            "suite did not write obs_report.json"
        );
        assert!(
            files.contains_key("trend_log.jsonl") && files.contains_key("trend_report.json"),
            "suite did not append the trend log and drift report"
        );
        assert!(
            files.contains_key("service_metrics_smoke.prom"),
            "suite did not write the metrics exposition"
        );
        artifacts.push(files);
    }
    let (serial, parallel) = (&artifacts[0], &artifacts[1]);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "thread counts produced different artifact sets"
    );
    for (name, bytes) in serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} differs between --threads 1 and --threads 8"
        );
    }

    let file_names = |dir: &std::path::Path| -> std::collections::BTreeSet<String> {
        std::fs::read_dir(dir)
            .expect("results dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| !OTHER_WRITERS.contains(&name.as_str()))
            .collect()
    };
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    assert_eq!(
        file_names(&base.join("threads_1")),
        file_names(&committed),
        "the smoke suite's artifacts differ from the committed results/ files"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn experiments_are_reproducible() {
    use flashmark::core::SweepSpec;
    use flashmark::physics::Micros;
    let sweep = SweepSpec::new(Micros::new(20.0), Micros::new(40.0), Micros::new(10.0)).unwrap();
    let run = || {
        let mut chip = Msp430Flash::f5438(0x4E9);
        let cfg = FlashmarkConfig::builder()
            .n_pe(20_000)
            .replicas(1)
            .reads(1)
            .build()
            .unwrap();
        let wm = Watermark::from_bits(vec![false; 256]).unwrap();
        Imprinter::new(&cfg)
            .imprint(&mut chip, SegmentAddr::new(0), &wm)
            .unwrap();
        sweep
            .times()
            .iter()
            .map(|&t| {
                Extractor::new(&cfg.with_t_pew(t).unwrap())
                    .extract(&mut chip, SegmentAddr::new(0), wm.len())
                    .unwrap()
                    .ber_against(&wm)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
