//! Reference numbers from the paper, for paper-vs-measured comparison.

/// Fig. 4: minimum partial-erase time (µs) at which all 4096 cells read
/// erased, per stress level (kcycles).
pub const FIG4_ALL_ERASED_US: &[(f64, f64)] = &[
    (0.0, 35.0),
    (20.0, 115.0),
    (40.0, 203.0),
    (60.0, 226.0),
    (80.0, 687.0),
    (100.0, 811.0),
];

/// Fig. 4: erase onset of the fresh segment (µs) — all cells still
/// programmed below this time.
pub const FIG4_FRESH_ONSET_US: f64 = 18.0;

/// Fig. 5: at `tPEW` = 23 µs, 3833 of 4096 bits distinguish 0 K from 50 K.
pub const FIG5_T_PEW_US: f64 = 23.0;
/// Fig. 5: distinguishable bits.
pub const FIG5_DISTINGUISHABLE: usize = 3833;

/// Fig. 9: minimum single-copy, single-read BER (%) per imprint stress level
/// (kcycles).
pub const FIG9_MIN_BER_PCT: &[(f64, f64)] = &[(20.0, 19.9), (40.0, 11.8), (60.0, 7.6), (80.0, 2.3)];

/// Fig. 10: replication demo operating point.
pub const FIG10_STRESS_KCYCLES: f64 = 50.0;
/// Fig. 10: partial-erase time (µs).
pub const FIG10_T_PEW_US: f64 = 28.0;
/// Fig. 10: replicas.
pub const FIG10_REPLICAS: usize = 7;
/// Fig. 10: watermark slice length (bits).
pub const FIG10_BITS: usize = 30;

/// Fig. 11: minimum BER (%) at 40 K for 3/5/7 replicas.
pub const FIG11_40K_MIN_BER_PCT: &[(usize, f64)] = &[(3, 5.2), (5, 2.4), (7, 0.96)];
/// Fig. 11: at 70 K, 3-way replication fully recovers the watermark.
pub const FIG11_70K_ZERO_BER_REPLICAS: usize = 3;

/// §V: baseline imprint time at 40 K cycles (s).
pub const IMPRINT_BASELINE_40K_S: f64 = 1380.0;
/// §V: baseline imprint time at 70 K cycles (s).
pub const IMPRINT_BASELINE_70K_S: f64 = 2415.0;
/// §V: accelerated imprint time at 40 K cycles (s).
pub const IMPRINT_ACCEL_40K_S: f64 = 387.0;
/// §V: accelerated imprint time at 70 K cycles (s).
pub const IMPRINT_ACCEL_70K_S: f64 = 678.0;
/// §V: extraction time with replicas (ms), including host-side overhead.
pub const EXTRACT_MS: f64 = 170.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_times_monotone_in_stress() {
        for pair in FIG4_ALL_ERASED_US.windows(2) {
            assert!(pair[1].1 > pair[0].1);
        }
    }

    #[test]
    fn fig9_ber_decreases_with_stress() {
        for pair in FIG9_MIN_BER_PCT.windows(2) {
            assert!(pair[1].1 < pair[0].1);
        }
    }

    #[test]
    fn accelerated_speedup_is_about_3_5x() {
        let s40 = IMPRINT_BASELINE_40K_S / IMPRINT_ACCEL_40K_S;
        let s70 = IMPRINT_BASELINE_70K_S / IMPRINT_ACCEL_70K_S;
        assert!((3.4..3.7).contains(&s40));
        assert!((3.4..3.7).contains(&s70));
    }
}
