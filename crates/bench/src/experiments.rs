//! The experiments themselves — one function per paper figure/table.
//!
//! Every function takes a [`TrialRunner`] and is deterministic given the
//! runner's experiment seed, independent of the worker count: each
//! independent unit of work (a stress level, a replica pair, a read count)
//! is one *trial* running on its own chip seeded by
//! `TrialRunner::trial_seed`, and results are merged in trial order.
//! The suite ([`crate::suite`]) writes each result as a JSON artifact.

use flashmark_core::{
    characterize_segment, select_t_pew, sense_segment, CoreError, Extractor, FlashmarkConfig,
    Imprinter, ProgramTimeDetector, SegmentCondition, StressDetector, SweepSpec, TestStatus,
    Verdict, Verifier, Watermark,
};
use flashmark_ecc::{Code, Hamming};
use flashmark_msp430::{Msp430Flash, Msp430Variant};
use flashmark_nand::{NandChip, NandGeometry, NandWordAdapter};
use flashmark_nor::interface::{BulkStress, FlashInterface};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_par::TrialRunner;
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_supply::Manufacturer;

use crate::harness::{precondition_segment, test_chip, trial_chip, uppercase_ascii_watermark};

/// Collects per-trial results, surfacing the first error in trial order.
fn merge<T>(results: Vec<Result<T, CoreError>>) -> Result<Vec<T>, CoreError> {
    results.into_iter().collect()
}

// ---------------------------------------------------------------- Fig. 4 --

/// One stress level's characterization curve.
#[derive(Debug, Clone)]
pub struct Fig04Curve {
    /// Pre-conditioning stress (kcycles).
    pub kcycles: f64,
    /// Sweep points `(t_pe_us, cells_0, cells_1)`.
    pub points: Vec<(f64, usize, usize)>,
    /// Minimum `tPE` at which every cell reads erased (found by extended
    /// search when beyond the plot sweep).
    pub all_erased_us: f64,
    /// Largest `tPE` at which every cell still reads programmed.
    pub onset_us: Option<f64>,
}

/// Fig. 4 data: cells_0/cells_1 vs `tPE` per stress level.
#[derive(Debug, Clone)]
pub struct Fig04Data {
    /// One curve per stress level.
    pub curves: Vec<Fig04Curve>,
}

/// Regenerates Fig. 4. One trial per stress level.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn fig04(
    runner: &TrialRunner,
    stress_kcycles: &[f64],
    sweep: &SweepSpec,
    reads: usize,
) -> Result<Fig04Data, CoreError> {
    let curves = runner.run(stress_kcycles.len(), |trial| {
        let k = stress_kcycles[trial.index];
        let mut flash = trial_chip(trial);
        let seg = SegmentAddr::new(0);
        precondition_segment(&mut flash, seg, (k * 1000.0) as u64)?;
        let curve = characterize_segment(&mut flash, seg, sweep, reads)?;
        let all_erased_us = match curve.all_erased_time() {
            Some(t) => t.get(),
            None => all_erased_search(&mut flash, seg, sweep.end, reads)?.get(),
        };
        Ok(Fig04Curve {
            kcycles: k,
            points: curve
                .points
                .iter()
                .map(|p| (p.t_pe.get(), p.cells_0, p.cells_1))
                .collect(),
            all_erased_us,
            onset_us: curve.onset_time().map(Micros::get),
        })
    });
    Ok(Fig04Data {
        curves: merge(curves)?,
    })
}

/// Searches (coarse-to-exact upward scan) for the minimum `tPE` at which a
/// full characterization round reads every cell erased.
fn all_erased_search(
    flash: &mut FlashController,
    seg: SegmentAddr,
    start: Micros,
    reads: usize,
) -> Result<Micros, CoreError> {
    let mut t = start;
    for _ in 0..200 {
        t += Micros::new(10.0);
        if sense_segment(flash, seg, t, reads)?.iter().all(|&b| b) {
            flash.erase_segment(seg)?;
            return Ok(t);
        }
    }
    flash.erase_segment(seg)?;
    Ok(t)
}

// ---------------------------------------------------------------- Fig. 5 --

/// Fig. 5 data: one-round fresh-vs-stressed discrimination.
#[derive(Debug, Clone)]
pub struct Fig05Data {
    /// Partial-erase time used.
    pub t_pew_us: f64,
    /// Cells distinguishable at `t_pew` (paper: 3833).
    pub distinguishable: usize,
    /// Total cells (paper: 4096).
    pub total: usize,
    /// Window-search optimum over the sweep.
    pub best_t_pew_us: f64,
    /// Distinguishability at the optimum.
    pub best_distinguishable: usize,
    /// Programmed-cell counts (fresh, stressed) at `t_pew`.
    pub programmed_at_t_pew: (usize, usize),
}

/// Regenerates Fig. 5: fresh vs `stress_kcycles` discrimination around the
/// paper's 23 µs operating point.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn fig05(
    runner: &TrialRunner,
    stress_kcycles: f64,
    t_pew: Micros,
) -> Result<Fig05Data, CoreError> {
    // A single chip carries both segments, so this is one trial.
    let mut flash = trial_chip(runner.trial(0));
    let fresh_seg = SegmentAddr::new(0);
    let worn_seg = SegmentAddr::new(1);
    precondition_segment(&mut flash, worn_seg, (stress_kcycles * 1000.0) as u64)?;

    let sweep = SweepSpec::new(Micros::new(10.0), Micros::new(60.0), Micros::new(1.0))?;
    let fresh = characterize_segment(&mut flash, fresh_seg, &sweep, 3)?;
    let worn = characterize_segment(&mut flash, worn_seg, &sweep, 3)?;
    let window = select_t_pew(&fresh, &worn, 50)?;

    let total = fresh.total_cells();
    let fresh_prog = fresh.cells_0_at(t_pew) as usize;
    let worn_prog = worn.cells_0_at(t_pew) as usize;
    let distinguishable = ((total - fresh_prog) + worn_prog).saturating_sub(total);

    Ok(Fig05Data {
        t_pew_us: t_pew.get(),
        distinguishable,
        total,
        best_t_pew_us: window.t_pew.get(),
        best_distinguishable: window.distinguishable,
        programmed_at_t_pew: (fresh_prog, worn_prog),
    })
}

// ---------------------------------------------------------------- Fig. 9 --

/// One BER-vs-`tPE` series.
#[derive(Debug, Clone)]
pub struct BerSeries {
    /// Imprint stress (kcycles).
    pub kcycles: f64,
    /// Replicas used (1 for Fig. 9).
    pub replicas: usize,
    /// `(t_pe_us, ber)` points.
    pub points: Vec<(f64, f64)>,
}

impl BerSeries {
    /// The minimum BER over the sweep and the time it occurs at.
    #[must_use]
    pub fn minimum(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Fig. 9 data: single-copy, single-read BER vs `tPE` per stress level.
#[derive(Debug, Clone)]
pub struct Fig09Data {
    /// Fraction of 1-bits in the watermark (the small-`tPE` plateau).
    pub ones_fraction: f64,
    /// One series per stress level.
    pub series: Vec<BerSeries>,
}

/// Regenerates Fig. 9: a 512-byte upper-case-ASCII watermark imprinted at
/// each stress level, extracted with a single read and no replication.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn fig09(
    runner: &TrialRunner,
    stress_kcycles: &[f64],
    sweep: &SweepSpec,
) -> Result<Fig09Data, CoreError> {
    let seed = runner.experiment_seed();
    let bytes = test_chip(seed).geometry().bytes_per_segment() as usize;
    let wm = uppercase_ascii_watermark(bytes, seed ^ 0x99);
    let series = runner.run(stress_kcycles.len(), |trial| {
        let k = stress_kcycles[trial.index];
        let mut flash = trial_chip(trial);
        let seg = SegmentAddr::new(0);
        let recipe = FlashmarkConfig::builder().replicas(1).reads(1);
        let cfg = if k == 0.0 {
            // No imprint at all: the watermark was never written.
            recipe.build()?
        } else {
            let cfg = recipe.n_pe((k * 1000.0) as u64).build()?;
            Imprinter::new(&cfg).imprint(&mut flash, seg, &wm)?;
            cfg
        };
        ber_sweep(&mut flash, seg, &wm, &cfg, k, sweep)
    });
    Ok(Fig09Data {
        ones_fraction: wm.ones_fraction(),
        series: merge(series)?,
    })
}

/// The BER-vs-`tPE` series of a segment imprinted with `wm` at
/// `kcycles`: one extraction per positive time of the sweep, each under
/// `recipe` with only its `tPEW` changed.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn ber_sweep(
    flash: &mut FlashController,
    seg: SegmentAddr,
    wm: &Watermark,
    recipe: &FlashmarkConfig,
    kcycles: f64,
    sweep: &SweepSpec,
) -> Result<BerSeries, CoreError> {
    let mut points = Vec::new();
    for t in sweep.times() {
        if t.get() <= 0.0 {
            continue;
        }
        let extraction = Extractor::new(&recipe.with_t_pew(t)?).extract(flash, seg, wm.len())?;
        points.push((t.get(), extraction.ber_against(wm)));
    }
    Ok(BerSeries {
        kcycles,
        replicas: recipe.replicas(),
        points,
    })
}

// --------------------------------------------------------------- Fig. 10 --

/// Fig. 10 data: per-replica extraction of a 30-bit slice plus the
/// majority-voted recovery.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// The imprinted reference bits.
    pub reference: Vec<bool>,
    /// Extracted bits per replica.
    pub replicas: Vec<Vec<bool>>,
    /// Majority-voted recovery.
    pub recovered: Vec<bool>,
    /// Per-replica bit errors.
    pub replica_errors: Vec<usize>,
    /// Errors in the recovered word (paper: 0).
    pub recovered_errors: usize,
    /// Good→bad vs bad→good error split across replicas.
    pub good_to_bad: usize,
    /// See above.
    pub bad_to_good: usize,
}

/// Regenerates Fig. 10: 7 replicas of a 30-bit vector at 50 K stress,
/// extracted at `tPEW` = 28 µs, recovered by majority voting.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn fig10(
    runner: &TrialRunner,
    bits: usize,
    replicas: usize,
    stress_kcycles: f64,
    t_pew: Micros,
) -> Result<Fig10Data, CoreError> {
    let seed = runner.experiment_seed();
    let mut flash = trial_chip(runner.trial(0));
    let seg = SegmentAddr::new(0);
    let wm = {
        let full = uppercase_ascii_watermark(bits.div_ceil(8), seed ^ 0x1010);
        Watermark::from_bits(full.bits()[..bits].to_vec())?
    };
    let cfg = FlashmarkConfig::builder()
        .n_pe((stress_kcycles * 1000.0) as u64)
        .replicas(replicas)
        .t_pew(t_pew)
        .reads(1)
        .build()?;
    Imprinter::new(&cfg).imprint(&mut flash, seg, &wm)?;
    let extraction = Extractor::new(&cfg).extract(&mut flash, seg, wm.len())?;

    let mut replica_bits = Vec::new();
    let mut replica_errors = Vec::new();
    let mut good_to_bad = 0;
    let mut bad_to_good = 0;
    for r in 0..replicas {
        let bits_r = extraction.replica(r).to_vec();
        let errs = extraction.replica_errors(r, &wm);
        good_to_bad += errs.good_to_bad;
        bad_to_good += errs.bad_to_good;
        replica_errors.push(errs.errors());
        replica_bits.push(bits_r);
    }
    let recovered = extraction.bits();
    let recovered_errors = recovered
        .iter()
        .zip(wm.bits())
        .filter(|(a, b)| a != b)
        .count();
    Ok(Fig10Data {
        reference: wm.bits().to_vec(),
        replicas: replica_bits,
        recovered,
        replica_errors,
        recovered_errors,
        good_to_bad,
        bad_to_good,
    })
}

// --------------------------------------------------------------- Fig. 11 --

/// Fig. 11 data: majority-voted BER vs `tPE` for several replica counts and
/// stress levels.
#[derive(Debug, Clone)]
pub struct Fig11Data {
    /// One series per `(stress level, replica count)` pair.
    pub series: Vec<BerSeries>,
}

/// Regenerates Fig. 11: a watermark imprinted at each stress level with
/// 3/5/7-way replication, extracted across the `tPE` window, BER after
/// majority voting.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn fig11(
    runner: &TrialRunner,
    stress_kcycles: &[f64],
    replica_counts: &[usize],
    sweep: &SweepSpec,
) -> Result<Fig11Data, CoreError> {
    let seed = runner.experiment_seed();
    // One trial per (stress level, replica count) pair, in row-major order.
    let pairs: Vec<(f64, usize)> = stress_kcycles
        .iter()
        .flat_map(|&k| replica_counts.iter().map(move |&reps| (k, reps)))
        .collect();
    let series = runner.run(pairs.len(), |trial| {
        let (k, reps) = pairs[trial.index];
        let mut flash = trial_chip(trial);
        let seg = SegmentAddr::new(0);
        // Largest watermark that fits with this replication.
        let data_bits = (4096 / reps).min(512);
        let wm = {
            let full = uppercase_ascii_watermark(data_bits.div_ceil(8), seed ^ 0x1111);
            Watermark::from_bits(full.bits()[..data_bits].to_vec())?
        };
        let cfg = FlashmarkConfig::builder()
            .n_pe((k * 1000.0) as u64)
            .replicas(reps)
            .reads(1)
            .build()?;
        Imprinter::new(&cfg).imprint(&mut flash, seg, &wm)?;
        ber_sweep(&mut flash, seg, &wm, &cfg, k, sweep)
    });
    Ok(Fig11Data {
        series: merge(series)?,
    })
}

// ------------------------------------------------------------ §V timing --

/// §V timing results.
#[derive(Debug, Clone)]
pub struct Table1Data {
    /// `(n_pe, baseline_s, accelerated_s, speedup)` rows.
    pub imprint: Vec<(u64, f64, f64, f64)>,
    /// Extraction time of a 7-replica record, seconds.
    pub extract_s: f64,
}

/// Regenerates the Section V timing numbers.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn table1(runner: &TrialRunner, cycle_counts: &[u64]) -> Result<Table1Data, CoreError> {
    let seed = runner.experiment_seed();
    let wm = uppercase_ascii_watermark(64, seed ^ 0x71);
    // Two trials per NPE (baseline then accelerated), each on its own chip.
    let elapsed = runner.run(cycle_counts.len() * 2, |trial| {
        let n = cycle_counts[trial.index / 2];
        let accel = trial.index % 2 == 1;
        let mut flash = trial_chip(trial);
        let cfg = FlashmarkConfig::builder()
            .n_pe(n)
            .replicas(7)
            .accelerated(accel)
            .build()?;
        let report = Imprinter::new(&cfg).imprint(&mut flash, SegmentAddr::new(0), &wm)?;
        Ok(report.elapsed.get())
    });
    let elapsed = merge(elapsed)?;
    let imprint = cycle_counts
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let (base, accel) = (elapsed[2 * i], elapsed[2 * i + 1]);
            (n, base, accel, base / accel)
        })
        .collect();

    // Extraction time of a 128-bit record with 7 replicas, 3 reads.
    let cfg = FlashmarkConfig::builder()
        .n_pe(70_000)
        .replicas(7)
        .build()?;
    let mut flash = trial_chip(runner.trial(cycle_counts.len() * 2));
    let seg = SegmentAddr::new(0);
    let record_wm = uppercase_ascii_watermark(16, seed ^ 0x72);
    Imprinter::new(&cfg).imprint(&mut flash, seg, &record_wm)?;
    let e = Extractor::new(&cfg).extract(&mut flash, seg, record_wm.len())?;
    Ok(Table1Data {
        imprint,
        extract_s: e.elapsed().get(),
    })
}

// ------------------------------------------------------- ECC ablation ----

/// ECC-vs-replication ablation result.
#[derive(Debug, Clone)]
pub struct EccAblationData {
    /// `(scheme, channel_bits, ber_after_decode, record_recovered)` rows.
    pub rows: Vec<(String, usize, f64, bool)>,
}

/// Compares 3-way replication against Hamming(15,11) (plain and extended)
/// protecting the same 128-bit record at the same stress level.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn ecc_ablation(
    runner: &TrialRunner,
    stress_kcycles: f64,
    t_pew: Micros,
) -> Result<EccAblationData, CoreError> {
    let seed = runner.experiment_seed();
    let record = uppercase_ascii_watermark(16, seed ^ 0x3C);
    let n_pe = (stress_kcycles * 1000.0) as u64;

    // Trial 0: 3-way replication via the standard pipeline. Trials 1-2:
    // Hamming codes — encode the record bits, imprint the codeword with no
    // replication, decode after extraction.
    let rows = runner.run(3, |trial| {
        let mut flash = trial_chip(trial);
        let seg = SegmentAddr::new(0);
        if trial.index == 0 {
            let cfg = FlashmarkConfig::builder()
                .n_pe(n_pe)
                .replicas(3)
                .t_pew(t_pew)
                .reads(1)
                .build()?;
            Imprinter::new(&cfg).imprint(&mut flash, seg, &record)?;
            let e = Extractor::new(&cfg).extract(&mut flash, seg, record.len())?;
            let ber = e.ber_against(&record);
            return Ok((
                "replication x3".to_string(),
                record.len() * 3,
                ber,
                ber == 0.0,
            ));
        }
        let (name, code) = if trial.index == 1 {
            ("hamming(15,11)", Hamming::new())
        } else {
            ("hamming(16,11) ext", Hamming::extended())
        };
        let codeword = Watermark::from_bits(code.encode(record.bits()))?;
        let cfg = FlashmarkConfig::builder()
            .n_pe(n_pe)
            .replicas(1)
            .t_pew(t_pew)
            .reads(1)
            .build()?;
        Imprinter::new(&cfg).imprint(&mut flash, seg, &codeword)?;
        let e = Extractor::new(&cfg).extract(&mut flash, seg, codeword.len())?;
        let decoded = code.decode(&e.bits())?;
        let ber = flashmark_ecc::bits::bit_error_rate(&decoded.data[..record.len()], record.bits());
        Ok((name.to_string(), codeword.len(), ber, ber == 0.0))
    });
    Ok(EccAblationData { rows: merge(rows)? })
}

// ------------------------------------------------------- read majority ---

/// Ablation: effect of the N-read majority (`AnalyzeSegment`) on single-copy
/// BER near the extraction window.
#[derive(Debug, Clone)]
pub struct ReadMajorityData {
    /// `(reads, min_ber)` rows at the fixed stress level.
    pub rows: Vec<(usize, f64)>,
}

/// Sweeps the read-majority count (the paper's N) at one stress level.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn read_majority_ablation(
    runner: &TrialRunner,
    stress_kcycles: f64,
    sweep: &SweepSpec,
    read_counts: &[usize],
) -> Result<ReadMajorityData, CoreError> {
    let wm = uppercase_ascii_watermark(512, runner.experiment_seed() ^ 0x42);
    // One trial per read count, each imprinting its own chip.
    let rows = runner.run(read_counts.len(), |trial| {
        let reads = read_counts[trial.index];
        let mut flash = trial_chip(trial);
        let seg = SegmentAddr::new(0);
        // The imprint reads nothing, so the read count only shapes the
        // extractions.
        let cfg = FlashmarkConfig::builder()
            .n_pe((stress_kcycles * 1000.0) as u64)
            .replicas(1)
            .reads(reads)
            .build()?;
        Imprinter::new(&cfg).imprint(&mut flash, seg, &wm)?;
        let series = ber_sweep(&mut flash, seg, &wm, &cfg, stress_kcycles, sweep)?;
        Ok((
            reads,
            series.minimum().map_or(f64::INFINITY, |(_, ber)| ber),
        ))
    });
    Ok(ReadMajorityData { rows: merge(rows)? })
}

// ------------------------------------------------------- stress probe ----

/// Recycled-chip detection sweep: stress-detector separation vs prior use.
#[derive(Debug, Clone)]
pub struct RecycledProbeData {
    /// `(prior_kcycles, programmed_fraction)` rows at the detector's tPEW.
    pub rows: Vec<(f64, f64)>,
}

/// Probes how much prior use the Fig. 5 detector can see.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn recycled_probe(
    runner: &TrialRunner,
    prior_kcycles: &[f64],
) -> Result<RecycledProbeData, CoreError> {
    let rows = runner.run(prior_kcycles.len(), |trial| {
        let k = prior_kcycles[trial.index];
        let mut flash = trial_chip(trial);
        let det = StressDetector::fig5();
        let seg = SegmentAddr::new(0);
        precondition_segment(&mut flash, seg, (k * 1000.0) as u64)?;
        let report = det.classify(&mut flash, seg)?;
        Ok((k, report.programmed_fraction()))
    });
    Ok(RecycledProbeData { rows: merge(rows)? })
}

/// Recycled-chip detector comparison: the paper's partial-erase primitive
/// against the FFD/timing-style partial-program baseline of related work
/// \[6\]/\[7\].
#[derive(Debug, Clone)]
pub struct DetectorComparisonData {
    /// `(prior_kcycles, erase_frac, erase_flags, prog_frac, prog_flags)`.
    pub rows: Vec<(f64, f64, bool, f64, bool)>,
}

/// Sweeps prior wear over the segments of one chip (seeded `seed`) and
/// classifies each segment with both detectors.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn detector_comparison(
    seed: u64,
    prior_kcycles: &[f64],
) -> Result<DetectorComparisonData, CoreError> {
    let mut flash = test_chip(seed);
    let erase_det = StressDetector::fig5();
    let prog_det = ProgramTimeDetector::default_for_msp430();
    let mut rows = Vec::new();
    for (i, &k) in prior_kcycles.iter().enumerate() {
        let seg = SegmentAddr::new(i as u32);
        precondition_segment(&mut flash, seg, (k * 1000.0) as u64)?;
        let e = erase_det.classify(&mut flash, seg)?;
        let p = prog_det.classify(&mut flash, seg)?;
        rows.push((
            k,
            e.programmed_fraction(),
            e.verdict == SegmentCondition::Stressed,
            p.programmed_fraction(),
            p.verdict == SegmentCondition::Stressed,
        ));
    }
    Ok(DetectorComparisonData { rows })
}

// ------------------------------------------------ operating conditions ----

/// Extraction window vs die temperature for a recipe calibrated at 25 °C.
#[derive(Debug, Clone)]
pub struct TemperatureSweepData {
    /// `(temp_c, best_t_pe_us, min_ber)` rows.
    pub rows: Vec<(f64, f64, f64)>,
    /// `(temp_c, ber)` at the 25 °C-calibrated 28 µs `tPEW`.
    pub fixed_t_pew_rows: Vec<(f64, f64)>,
}

/// Imprints one die (seeded by the runner's experiment seed) at 60 K and
/// sweeps extraction at each temperature. One trial per temperature; every
/// trial re-creates the same die.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn temperature_sweep(
    runner: &TrialRunner,
    temps_c: &[f64],
    sweep: &SweepSpec,
) -> Result<TemperatureSweepData, CoreError> {
    let wm = uppercase_ascii_watermark(512, 0x7E);
    let per_temp = runner.run(temps_c.len(), |trial| {
        let temp = temps_c[trial.index];
        let mut flash = FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            FlashTimings::msp430(),
            runner.experiment_seed(),
        );
        let seg = SegmentAddr::new(0);
        let cfg = FlashmarkConfig::builder()
            .n_pe(60_000)
            .replicas(1)
            .reads(1)
            .build()?;
        Imprinter::new(&cfg).imprint(&mut flash, seg, &wm)?;

        flash.set_temperature_c(temp);
        let series = ber_sweep(&mut flash, seg, &wm, &cfg, 60.0, sweep)?;
        let best = series.minimum().unwrap_or((0.0, f64::INFINITY));
        let at_ref = series
            .points
            .iter()
            .rfind(|&&(t, _)| (t - 28.0).abs() < 0.01)
            .map_or(f64::NAN, |&(_, ber)| ber);
        Ok(((temp, best.0, best.1), (temp, at_ref)))
    });
    let (rows, fixed_t_pew_rows) = merge(per_temp)?.into_iter().unzip();
    Ok(TemperatureSweepData {
        rows,
        fixed_t_pew_rows,
    })
}

// ------------------------------------------------- deployment trade-offs --

/// Imprint effort vs verification reliability: Section V's "conflicting
/// requirements".
#[derive(Debug, Clone)]
pub struct NpeSweepData {
    /// `(n_pe, chips, verified_genuine, imprint_s)` rows; `imprint_s` is
    /// the accelerated imprint time of the level's last chip.
    pub rows: Vec<(u64, usize, usize, f64)>,
}

/// Manufactures `chips` record-carrying chips per `NPE` level and verifies
/// each. One trial per (level, chip) pair; chip `i` at level `n_pe` is
/// seeded `experiment_seed + n_pe + i`, so the family does not depend on
/// the thread count.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn npe_sweep(
    runner: &TrialRunner,
    levels: &[u64],
    chips: usize,
) -> Result<NpeSweepData, CoreError> {
    const MFG: u16 = 0x7C01;
    let outcomes = runner.run(levels.len() * chips, |trial| {
        let n_pe = levels[trial.index / chips];
        let i = trial.index % chips;
        let cfg = FlashmarkConfig::builder()
            .n_pe(n_pe)
            .replicas(7)
            .t_pew(Micros::new(28.0))
            .build()?;
        let mut fab = Manufacturer::new(MFG, Msp430Variant::F5438, cfg.clone());
        let mut chip = fab.produce(
            runner.experiment_seed() + n_pe + i as u64,
            TestStatus::Accept,
        )?;
        let imprint_s = chip.flash.main().elapsed().get(); // dominated by the imprint
        let seg = chip.flash.watermark_segment();
        let verdict = Verifier::new(cfg, MFG)
            .verify(&mut chip.flash, seg)?
            .verdict;
        Ok((verdict == Verdict::Genuine, imprint_s))
    });
    let outcomes = merge(outcomes)?;
    let rows = levels
        .iter()
        .zip(outcomes.chunks(chips))
        .map(|(&n_pe, level)| {
            let passed = level.iter().filter(|&&(ok, _)| ok).count();
            let imprint_s = level.last().map_or(0.0, |&(_, s)| s);
            (n_pe, chips, passed, imprint_s)
        })
        .collect();
    Ok(NpeSweepData { rows })
}

/// Flashmark on NAND (the conclusion's applicability claim): one pipeline
/// on the MSP430 embedded NOR and on SLC NAND.
#[derive(Debug, Clone)]
pub struct NandDemoData {
    /// `(device, n_pe, imprint_s, post_vote_ber)` rows.
    pub rows: Vec<(String, u64, f64, f64)>,
}

/// Imprints and extracts "NAND-TOO" at each `NPE` on a fresh NOR chip
/// (seeded `seed`) and a fresh NAND chip (seeded `seed + 1`), through the
/// same `Imprinter`/`Extractor` code.
///
/// # Errors
///
/// Flash/configuration errors.
pub fn nand_demo(seed: u64, n_pe_levels: &[u64]) -> Result<NandDemoData, CoreError> {
    fn imprint_extract<F: FlashInterface + BulkStress>(
        flash: &mut F,
        seg: SegmentAddr,
        cfg: &FlashmarkConfig,
        wm: &Watermark,
    ) -> Result<(f64, f64), CoreError> {
        let report = Imprinter::new(cfg).imprint(flash, seg, wm)?;
        let e = Extractor::new(cfg).extract(flash, seg, wm.len())?;
        Ok((report.elapsed.get(), e.ber_against(wm)))
    }
    let wm = Watermark::from_ascii("NAND-TOO")?;
    let mut rows = Vec::new();
    for &n_pe in n_pe_levels {
        let cfg = FlashmarkConfig::builder()
            .n_pe(n_pe)
            .replicas(7)
            .t_pew(Micros::new(28.0))
            .build()?;
        let mut nor = Msp430Flash::f5438(seed);
        let seg = nor.watermark_segment();
        let (t, ber) = imprint_extract(&mut nor, seg, &cfg, &wm)?;
        rows.push(("MSP430 NOR".to_string(), n_pe, t, ber));
        let mut nand = NandWordAdapter::new(NandChip::new(NandGeometry::tiny(), seed + 1));
        let (t, ber) = imprint_extract(&mut nand, SegmentAddr::new(0), &cfg, &wm)?;
        rows.push(("SLC NAND".to_string(), n_pe, t, ber));
    }
    Ok(NandDemoData { rows })
}

// JSON serialization of the result structs (the offline replacement for
// the former `#[derive(Serialize)]`).
use crate::impl_to_json;
impl_to_json!(Fig04Curve {
    kcycles,
    points,
    all_erased_us,
    onset_us
});
impl_to_json!(Fig04Data { curves });
impl_to_json!(Fig05Data {
    t_pew_us,
    distinguishable,
    total,
    best_t_pew_us,
    best_distinguishable,
    programmed_at_t_pew,
});
impl_to_json!(BerSeries {
    kcycles,
    replicas,
    points
});
impl_to_json!(Fig09Data {
    ones_fraction,
    series
});
impl_to_json!(Fig10Data {
    reference,
    replicas,
    recovered,
    replica_errors,
    recovered_errors,
    good_to_bad,
    bad_to_good,
});
impl_to_json!(Fig11Data { series });
impl_to_json!(Table1Data { imprint, extract_s });
impl_to_json!(EccAblationData { rows });
impl_to_json!(ReadMajorityData { rows });
impl_to_json!(RecycledProbeData { rows });
impl_to_json!(DetectorComparisonData { rows });
impl_to_json!(TemperatureSweepData {
    rows,
    fixed_t_pew_rows
});
impl_to_json!(NpeSweepData { rows });
impl_to_json!(NandDemoData { rows });

#[cfg(test)]
mod tests {
    use super::*;

    // Scaled-down smoke tests; full-scale runs live in the suite.

    fn serial(seed: u64) -> TrialRunner {
        TrialRunner::with_threads(seed, 1)
    }

    #[test]
    fn fig04_small() {
        let sweep = SweepSpec::new(Micros::new(0.0), Micros::new(60.0), Micros::new(10.0)).unwrap();
        let d = fig04(&serial(1), &[0.0, 20.0], &sweep, 1).unwrap();
        assert_eq!(d.curves.len(), 2);
        assert!(d.curves[1].all_erased_us > d.curves[0].all_erased_us);
    }

    #[test]
    fn fig09_small() {
        let sweep = SweepSpec::new(Micros::new(20.0), Micros::new(44.0), Micros::new(6.0)).unwrap();
        let d = fig09(&serial(2), &[0.0, 40.0], &sweep).unwrap();
        let m0 = d.series[0].minimum().unwrap().1;
        let m40 = d.series[1].minimum().unwrap().1;
        assert!(
            m40 < m0,
            "imprinted segment must beat unimprinted ({m40} vs {m0})"
        );
    }

    #[test]
    fn fig09_parallel_matches_serial() {
        let sweep = SweepSpec::new(Micros::new(20.0), Micros::new(44.0), Micros::new(8.0)).unwrap();
        let levels = [0.0, 20.0, 40.0];
        let a = fig09(&serial(6), &levels, &sweep).unwrap();
        let b = fig09(&TrialRunner::with_threads(6, 4), &levels, &sweep).unwrap();
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.kcycles.to_bits(), sb.kcycles.to_bits());
            for (pa, pb) in sa.points.iter().zip(&sb.points) {
                assert_eq!(pa.0.to_bits(), pb.0.to_bits());
                assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "BER diverged at {}", pa.0);
            }
        }
    }

    #[test]
    fn fig10_small() {
        let d = fig10(&serial(3), 30, 7, 50.0, Micros::new(30.0)).unwrap();
        assert_eq!(d.replicas.len(), 7);
        assert_eq!(d.recovered.len(), 30);
        assert!(
            d.recovered_errors <= 1,
            "majority recovery should be near-perfect"
        );
    }

    #[test]
    fn table1_small() {
        let d = table1(&serial(4), &[1_000]).unwrap();
        let (_, baseline, accel, speedup) = d.imprint[0];
        assert!(baseline > accel);
        assert!(speedup > 2.0);
        assert!(d.extract_s < 1.0);
    }

    #[test]
    fn recycled_probe_monotone() {
        let d = recycled_probe(&serial(5), &[0.0, 30.0]).unwrap();
        assert!(d.rows[1].1 > d.rows[0].1 + 0.3);
    }
}
