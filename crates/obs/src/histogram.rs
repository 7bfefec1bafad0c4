//! Log-bucketed latency histogram.
//!
//! Fixed power-of-two buckets: bucket 0 holds the value 0 and bucket `i`
//! (1..=64) holds values in `[2^(i-1), 2^i)`. Recording is a couple of
//! relaxed atomic adds — safe on hot paths. Quantiles are resolved from a
//! snapshot to the *upper bound* of the bucket containing the requested rank,
//! so a reported quantile is always within one bucket boundary of the true
//! order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per possible bit length.
pub(crate) const BUCKETS: usize = 65;

/// Index of the bucket that holds `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value that lands in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Concurrent log-bucketed histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Hot path: three relaxed adds and a fetch_max.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold another histogram's contents into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (i, b) in other.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Point-in-time copy (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable view of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in [0, 1]: the upper bound of the bucket holding
    /// the rank-`ceil(q * count)` sample (the true max for q = 1). 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                // The max sample bounds the top bucket more tightly.
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
impl Histogram {
    /// Zero every bucket and aggregate.
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Smallest value that lands in bucket `i`.
#[cfg(test)]
pub(crate) fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // True p50 is 50; bucket [32,64) upper bound is 63.
        assert_eq!(s.p50(), 63);
        // p99 rank 99 → bucket [64,127] capped at observed max 100.
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [0u64, 1, 5, 1000, u64::MAX] {
            a.record(v);
            combined.record(v);
        }
        for v in [2u64, 2, 7, 1 << 40] {
            b.record(v);
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }
}
