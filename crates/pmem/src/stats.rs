//! Hardware-counter style statistics for the simulated device.
//!
//! Mirrors what Intel PMWatch exposes on real Optane DIMMs and what the paper
//! measures: cacheline arrivals, XPBuffer hit/miss, and media read/write
//! traffic, from which the *write hit ratio* (Figure 4) and *write
//! amplification* are derived.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters, one set per device (aggregated across DIMMs).
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    /// Number of 64 B cachelines the CPU side handed to the device.
    pub(crate) cpu_writes: AtomicU64,
    /// Cacheline writes that landed in an already-open XPLine slot.
    pub(crate) xpbuffer_hits: AtomicU64,
    /// Cacheline writes that had to open a new XPLine slot.
    pub(crate) xpbuffer_misses: AtomicU64,
    /// Bytes read from the media (RMW completions and load misses).
    pub(crate) media_read_bytes: AtomicU64,
    /// Bytes written to the media (always multiples of 256).
    pub(crate) media_write_bytes: AtomicU64,
    /// XPLine evictions that needed a read-modify-write (partial line).
    pub(crate) rmw_evictions: AtomicU64,
    /// XPLine evictions with all four sectors dirty (no RMW needed).
    pub(crate) full_evictions: AtomicU64,
    /// Number of read operations served by the device.
    pub(crate) reads: AtomicU64,
    /// Power failures injected on this device.
    pub(crate) power_failures: AtomicU64,
}

impl StatsCell {
    /// Take an immutable snapshot of the counters.
    pub(crate) fn snapshot(&self) -> PmemStats {
        PmemStats {
            cpu_writes: self.cpu_writes.load(Ordering::Relaxed),
            xpbuffer_hits: self.xpbuffer_hits.load(Ordering::Relaxed),
            xpbuffer_misses: self.xpbuffer_misses.load(Ordering::Relaxed),
            media_read_bytes: self.media_read_bytes.load(Ordering::Relaxed),
            media_write_bytes: self.media_write_bytes.load(Ordering::Relaxed),
            rmw_evictions: self.rmw_evictions.load(Ordering::Relaxed),
            full_evictions: self.full_evictions.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            power_failures: self.power_failures.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (e.g., after a warm-up phase).
    pub(crate) fn reset(&self) {
        self.cpu_writes.store(0, Ordering::Relaxed);
        self.xpbuffer_hits.store(0, Ordering::Relaxed);
        self.xpbuffer_misses.store(0, Ordering::Relaxed);
        self.media_read_bytes.store(0, Ordering::Relaxed);
        self.media_write_bytes.store(0, Ordering::Relaxed);
        self.rmw_evictions.store(0, Ordering::Relaxed);
        self.full_evictions.store(0, Ordering::Relaxed);
        self.reads.store(0, Ordering::Relaxed);
        self.power_failures.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time snapshot of device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmemStats {
    pub cpu_writes: u64,
    pub xpbuffer_hits: u64,
    pub xpbuffer_misses: u64,
    pub media_read_bytes: u64,
    pub media_write_bytes: u64,
    pub rmw_evictions: u64,
    pub full_evictions: u64,
    pub reads: u64,
    pub power_failures: u64,
}

impl PmemStats {
    /// Fraction of cacheline writes that hit the XPBuffer — the metric of
    /// the paper's Figure 4. Returns 0.0 when no writes occurred.
    pub fn write_hit_ratio(&self) -> f64 {
        let total = self.xpbuffer_hits + self.xpbuffer_misses;
        if total == 0 {
            0.0
        } else {
            self.xpbuffer_hits as f64 / total as f64
        }
    }

    /// Bytes written to the media per byte the CPU wrote; >= 1.0 in steady
    /// state (1.0 means perfect write combining, 4.0 means every cacheline
    /// cost a whole XPLine). Returns 0.0 when nothing was written.
    pub fn write_amplification(&self) -> f64 {
        let cpu_bytes = self.cpu_writes * crate::CACHELINE as u64;
        if cpu_bytes == 0 {
            0.0
        } else {
            self.media_write_bytes as f64 / cpu_bytes as f64
        }
    }
}

#[cfg(test)]
impl PmemStats {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub(crate) fn delta_since(&self, earlier: &PmemStats) -> PmemStats {
        PmemStats {
            cpu_writes: self.cpu_writes - earlier.cpu_writes,
            xpbuffer_hits: self.xpbuffer_hits - earlier.xpbuffer_hits,
            xpbuffer_misses: self.xpbuffer_misses - earlier.xpbuffer_misses,
            media_read_bytes: self.media_read_bytes - earlier.media_read_bytes,
            media_write_bytes: self.media_write_bytes - earlier.media_write_bytes,
            rmw_evictions: self.rmw_evictions - earlier.rmw_evictions,
            full_evictions: self.full_evictions - earlier.full_evictions,
            reads: self.reads - earlier.reads,
            power_failures: self.power_failures - earlier.power_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_empty_is_zero() {
        assert_eq!(PmemStats::default().write_hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_computes() {
        let s = PmemStats {
            xpbuffer_hits: 3,
            xpbuffer_misses: 1,
            ..Default::default()
        };
        assert!((s.write_hit_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn write_amp_computes() {
        let s = PmemStats {
            cpu_writes: 1,
            media_write_bytes: 256,
            ..Default::default()
        };
        assert!((s.write_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts() {
        let a = PmemStats {
            cpu_writes: 10,
            media_write_bytes: 512,
            ..Default::default()
        };
        let b = PmemStats {
            cpu_writes: 4,
            media_write_bytes: 256,
            ..Default::default()
        };
        let d = a.delta_since(&b);
        assert_eq!(d.cpu_writes, 6);
        assert_eq!(d.media_write_bytes, 256);
    }

    #[test]
    fn snapshot_and_reset() {
        let cell = StatsCell::default();
        cell.cpu_writes.fetch_add(5, Ordering::Relaxed);
        assert_eq!(cell.snapshot().cpu_writes, 5);
        cell.reset();
        assert_eq!(cell.snapshot().cpu_writes, 0);
    }
}
