//! LLC geometry configuration.

use cachekv_pmem::CACHELINE;

/// Geometry of the simulated last-level cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total capacity in bytes of the normal (unlocked) partition.
    pub capacity: usize,
    /// Associativity (lines per set).
    pub(crate) ways: usize,
    /// Number of lock shards the sets are spread over; bounds simulator-side
    /// contention in multi-threaded runs.
    pub(crate) shards: usize,
}

impl CacheConfig {
    /// Paper testbed geometry: a 36 MiB shared LLC, 12-way.
    pub fn paper() -> Self {
        CacheConfig {
            capacity: 36 << 20,
            ways: 12,
            shards: 64,
        }
    }

    /// A tiny cache for unit tests: 16 KiB, 4-way, 1 shard (deterministic
    /// eviction order across a whole run).
    pub fn small() -> Self {
        CacheConfig {
            capacity: 16 << 10,
            ways: 4,
            shards: 1,
        }
    }

    /// Number of sets implied by the geometry.
    pub(crate) fn num_sets(&self) -> usize {
        let sets = self.capacity / (self.ways * CACHELINE);
        assert!(sets > 0, "cache too small for its associativity");
        sets
    }

    /// Builder-style capacity override.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper();
        assert_eq!(c.num_sets(), (36 << 20) / (12 * 64));
    }

    #[test]
    fn small_geometry() {
        let c = CacheConfig::small();
        assert_eq!(c.num_sets(), 64);
    }
}
