//! Order statistics over benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the default
//! "exclusive" method), so spreads computed here match the ones an external
//! script computes from the same values.

/// Samples a reported percentile must leave beyond it to be trusted.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or `None`
/// for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(f64::midpoint(v[n / 2 - 1], v[n / 2])),
    }
}

/// First and third quartiles, as `statistics.quantiles(samples, n=4)`
/// returns them; `None` for fewer than two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// A nearest-rank percentile and how well the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p/100 · n)`.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// True when at least [`MIN_BEYOND`] samples lie beyond the value, the
    /// condition for reporting it as a tail latency.
    #[must_use]
    pub fn is_supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`), or `None` for no
/// samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// benchmark's bounds are judged against.
#[must_use]
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.is_supported());
        let p99 = percentile(&hundred, 99.0).unwrap();
        assert_eq!(p99.beyond, 1);
        assert!(!p99.is_supported());
        let small = percentile(&[5.0, 1.0], 90.0).unwrap();
        assert_eq!((small.value, small.samples, small.beyond), (5.0, 2, 0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
