//! Cache-side statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters for the cache simulator.
#[derive(Debug, Default)]
pub(crate) struct CacheStatsCell {
    pub(crate) store_hits: AtomicU64,
    pub(crate) store_misses: AtomicU64,
    pub(crate) load_hits: AtomicU64,
    pub(crate) load_misses: AtomicU64,
    /// Lines pushed out by capacity/conflict replacement.
    pub(crate) evictions: AtomicU64,
    /// Evicted lines that were dirty (reached the device).
    pub(crate) dirty_evictions: AtomicU64,
    /// `clflush`/`clwb` line operations issued.
    pub(crate) flush_ops: AtomicU64,
    /// Cachelines written via non-temporal stores.
    pub(crate) nt_lines: AtomicU64,
    /// Accesses served by a CAT-locked region.
    pub(crate) locked_hits: AtomicU64,
}

impl CacheStatsCell {
    #[inline]
    pub(crate) fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable snapshot.
    pub(crate) fn snapshot(&self) -> CacheStats {
        CacheStats {
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            load_hits: self.load_hits.load(Ordering::Relaxed),
            load_misses: self.load_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_evictions: self.dirty_evictions.load(Ordering::Relaxed),
            flush_ops: self.flush_ops.load(Ordering::Relaxed),
            nt_lines: self.nt_lines.load(Ordering::Relaxed),
            locked_hits: self.locked_hits.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub(crate) fn reset(&self) {
        self.store_hits.store(0, Ordering::Relaxed);
        self.store_misses.store(0, Ordering::Relaxed);
        self.load_hits.store(0, Ordering::Relaxed);
        self.load_misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.dirty_evictions.store(0, Ordering::Relaxed);
        self.flush_ops.store(0, Ordering::Relaxed);
        self.nt_lines.store(0, Ordering::Relaxed);
        self.locked_hits.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub store_hits: u64,
    pub store_misses: u64,
    pub load_hits: u64,
    pub load_misses: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
    pub flush_ops: u64,
    pub nt_lines: u64,
    pub locked_hits: u64,
}

impl CacheStats {
    /// Load hit ratio in [0, 1]; 0 when no loads.
    pub fn load_hit_ratio(&self) -> f64 {
        let total = self.load_hits + self.load_misses;
        if total == 0 {
            0.0
        } else {
            self.load_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio() {
        let s = CacheStats {
            load_hits: 9,
            load_misses: 1,
            ..Default::default()
        };
        assert!((s.load_hit_ratio() - 0.9).abs() < 1e-9);
        assert_eq!(CacheStats::default().load_hit_ratio(), 0.0);
    }

    #[test]
    fn reset_and_snapshot() {
        let cell = CacheStatsCell::default();
        CacheStatsCell::bump(&cell.load_hits);
        assert_eq!(cell.snapshot().load_hits, 1);
        cell.reset();
        assert_eq!(cell.snapshot(), CacheStats::default());
    }
}
