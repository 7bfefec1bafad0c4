//! Exact percentiles over sorted samples, the "ten samples beyond" rule,
//! and the run-to-run spread used by the A/A mode.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the harness knows, lowest first.
pub const LADDER: [(&str, f64); 4] = [
    ("p50", 0.50),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// A latency sample set, sorted once.
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn new(mut samples: Vec<u64>) -> Sorted {
        samples.sort_unstable();
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the samples at or below it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond percentile `q`.
    pub fn supports(&self, q: f64) -> bool {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0.len().saturating_sub(rank) >= MIN_BEYOND
    }

    /// `quantile(q)` if the sample supports it.
    pub fn supported(&self, q: f64) -> Option<u64> {
        self.supports(q).then(|| self.quantile(q))
    }

    /// The highest percentile of [`LADDER`] this sample supports.
    pub fn highest(&self) -> Option<(&'static str, u64)> {
        LADDER
            .iter()
            .rev()
            .find(|(_, q)| self.supports(*q))
            .map(|(name, q)| (*name, self.quantile(*q)))
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the numbers `--repeat` prints
/// are the ones the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 over n + 1 gaps; j is clamped to the sample
        // and delta taken from the clamped j, as CPython does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sorted::new((1..=100).rev().collect());
        assert_eq!(s.quantile(0.50), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(Sorted::new(vec![]).quantile(0.5), 0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 1 000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let s = Sorted::new((0..1000).collect());
        assert!(s.supports(0.99));
        assert!(!s.supports(0.999));
        assert_eq!(s.highest().unwrap().0, "p99");
        // One fewer and p99 no longer qualifies.
        let s = Sorted::new((0..999).collect());
        assert!(!s.supports(0.99));
        assert_eq!(s.highest().unwrap().0, "p50");
        assert_eq!(s.supported(0.99), None);
        // 10 000 reach p99.9; 19 samples do not even support a median.
        assert_eq!(
            Sorted::new((0..10_000).collect()).highest().unwrap().0,
            "p999"
        );
        assert!(Sorted::new((0..19).collect()).highest().is_none());
        assert_eq!(Sorted::new((0..20).collect()).highest().unwrap().0, "p50");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
