//! Write-latency breakdown instrumentation (paper Figure 5(b)).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Accumulated wall-clock nanoseconds per write-path stage.
#[derive(Debug, Default)]
pub struct WriteBreakdown {
    /// Waiting on the shared MemTable mutex.
    pub(crate) lock_wait_ns: AtomicU64,
    /// Updating the index structure (skiplist / B+-tree).
    pub(crate) index_update_ns: AtomicU64,
    /// Appending KV bytes to the MemTable data region (incl. flushes).
    pub(crate) data_write_ns: AtomicU64,
    /// Everything else (rotation, table builds, bookkeeping).
    pub(crate) other_ns: AtomicU64,
    /// Number of writes measured.
    pub(crate) writes: AtomicU64,
}

/// A point-in-time copy, with ratio helpers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakdownSnapshot {
    pub(crate) lock_wait_ns: u64,
    pub(crate) index_update_ns: u64,
    pub(crate) data_write_ns: u64,
    pub(crate) other_ns: u64,
    pub(crate) writes: u64,
}

impl WriteBreakdown {
    /// Time `f` and charge its duration to `counter`.
    #[inline]
    pub(crate) fn timed<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Record one completed write.
    #[inline]
    pub(crate) fn count_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> BreakdownSnapshot {
        BreakdownSnapshot {
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            index_update_ns: self.index_update_ns.load(Ordering::Relaxed),
            data_write_ns: self.data_write_ns.load(Ordering::Relaxed),
            other_ns: self.other_ns.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

impl BreakdownSnapshot {
    /// Total measured nanoseconds.
    pub(crate) fn total_ns(&self) -> u64 {
        self.lock_wait_ns + self.index_update_ns + self.data_write_ns + self.other_ns
    }

    /// Export as registry-style metrics under the `write.` namespace, for
    /// snapshot parity with CacheKV's phase counters.
    pub(crate) fn export_into(&self, out: &mut cachekv_obs::MetricsExport) {
        out.insert_counter("write.lock_wait_ns", self.lock_wait_ns);
        out.insert_counter("write.index_update_ns", self.index_update_ns);
        out.insert_counter("write.data_write_ns", self.data_write_ns);
        out.insert_counter("write.other_ns", self.other_ns);
        out.insert_counter("write.ops", self.writes);
    }

    /// Fractions `(lock, index, data, other)` of the total; zeros when empty.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total_ns();
        if t == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.lock_wait_ns as f64 / t,
            self.index_update_ns as f64 / t,
            self.data_write_ns as f64 / t,
            self.other_ns as f64 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_accumulates() {
        let b = WriteBreakdown::default();
        let v = WriteBreakdown::timed(&b.index_update_ns, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(b.snapshot().index_update_ns >= 2_000_000);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = WriteBreakdown::default();
        b.lock_wait_ns.store(10, Ordering::Relaxed);
        b.index_update_ns.store(30, Ordering::Relaxed);
        b.data_write_ns.store(40, Ordering::Relaxed);
        b.other_ns.store(20, Ordering::Relaxed);
        let (l, i, d, o) = b.snapshot().fractions();
        assert!((l + i + d + o - 1.0).abs() < 1e-9);
        assert!((i - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(
            WriteBreakdown::default().snapshot().fractions(),
            (0.0, 0.0, 0.0, 0.0)
        );
    }
}
