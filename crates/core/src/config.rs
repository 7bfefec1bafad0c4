//! CacheKV configuration.

use cachekv_lsm::StorageConfig;

/// Which of the paper's techniques are enabled — the breakdown axis of
/// Exp#1/#2 (PCSM, PCSM+LIU, full CacheKV = PCSM+LIU+SC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Techniques {
    /// Lazy index update (Section III-B). Off = sub-skiplists are updated
    /// synchronously on every write (the bare PCSM configuration).
    pub lazy_index: bool,
    /// Sub-skiplist compaction into a global skiplist (Section III-D).
    pub compaction: bool,
}

impl Techniques {
    /// Bare per-core sub-MemTables with diligent index updates.
    pub fn pcsm() -> Self {
        Techniques {
            lazy_index: false,
            compaction: false,
        }
    }

    /// PCSM + lazy index update.
    pub fn pcsm_liu() -> Self {
        Techniques {
            lazy_index: true,
            compaction: false,
        }
    }

    /// The full system.
    pub fn all() -> Self {
        Techniques {
            lazy_index: true,
            compaction: true,
        }
    }
}

/// Tunables of the CacheKV store.
#[derive(Debug, Clone)]
pub struct CacheKvConfig {
    /// Total size of the sub-MemTable pool pinned in the LLC (12 MiB in the
    /// paper's default setup, always below the LLC size).
    pub pool_bytes: u64,
    /// Initial size of each sub-MemTable (2 MiB default; Exp#6 sweeps it).
    pub subtable_bytes: u64,
    /// Smallest size elasticity may shrink a sub-MemTable to.
    pub min_subtable_bytes: u64,
    /// Number of logical cores served (bounds concurrent sub-MemTables).
    pub num_cores: usize,
    /// Background copy-based-flush threads (Exp#5 sweeps this).
    pub flush_threads: usize,
    /// Lazy-index-update trigger: sync a sub-skiplist once this many writes
    /// accumulated since the last sync (strategy 2 of Section III-B).
    pub sync_every: u64,
    /// Dump flushed sub-ImmMemTables to the LSM's L0 once their total size
    /// reaches this threshold (Section III-D).
    pub dump_threshold_bytes: u64,
    /// Misses on the free-sub-MemTable pool before elasticity halves a free
    /// sub-MemTable (Section III-A, Elasticity).
    pub miss_threshold: u64,
    /// Housekeeping worker pool size: threads draining the scheduler queue
    /// and running per-segment SC merges in parallel.
    pub housekeeping_threads: usize,
    /// Bound of the housekeeping job queue. Full queue = backpressure on
    /// background submitters (counted), dropped reader nudges (counted) —
    /// never an inline merge.
    pub housekeeping_queue_cap: usize,
    /// Target entries per global-index segment: merges split output above
    /// it and absorb neighbours below half of it.
    pub sc_segment_target_entries: usize,
    /// Fold every segment on every SC round (the monolithic-compaction
    /// mode: a deterministic recovery fold and a negative control in the
    /// compaction tests — `false` for the real system).
    pub sc_full_fold: bool,
    /// Stall writers at a seal once flushed-but-undumped bytes exceed this
    /// watermark, until a dump catches up (0 disables). The only sanctioned
    /// way housekeeping may slow a put, surfaced as
    /// `core.housekeeping.put_stalls` / `.put_stall_ns`.
    pub hk_backpressure_bytes: u64,
    /// Technique ablation switches.
    pub techniques: Techniques,
    /// The LSM storage component below.
    pub storage: StorageConfig,
}

impl Default for CacheKvConfig {
    fn default() -> Self {
        // A simulated "core" is a writer slot in the global metadata
        // structure, modelling the paper's 24-core socket — not the host's
        // parallelism (the simulator must behave identically on small CI
        // machines).
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
            .max(8);
        CacheKvConfig {
            pool_bytes: 12 << 20,
            subtable_bytes: 2 << 20,
            min_subtable_bytes: 64 << 10,
            num_cores: cores,
            flush_threads: 1,
            sync_every: 64,
            dump_threshold_bytes: 24 << 20,
            miss_threshold: 4,
            housekeeping_threads: 2,
            housekeeping_queue_cap: 1024,
            sc_segment_target_entries: 16 << 10,
            sc_full_fold: false,
            hk_backpressure_bytes: 96 << 20,
            techniques: Techniques::all(),
            storage: StorageConfig::default(),
        }
    }
}

impl CacheKvConfig {
    /// Small config for unit tests: 256 KiB pool of 64 KiB sub-MemTables,
    /// inline storage compaction.
    pub fn test_small() -> Self {
        CacheKvConfig {
            pool_bytes: 256 << 10,
            subtable_bytes: 64 << 10,
            min_subtable_bytes: 8 << 10,
            num_cores: 4,
            flush_threads: 1,
            sync_every: 16,
            dump_threshold_bytes: 192 << 10,
            miss_threshold: 2,
            housekeeping_threads: 2,
            housekeeping_queue_cap: 64,
            sc_segment_target_entries: 512,
            sc_full_fold: false,
            hk_backpressure_bytes: 768 << 10,
            techniques: Techniques::all(),
            storage: StorageConfig::test_small(),
        }
    }

    /// Builder-style override of the technique set.
    pub fn with_techniques(mut self, t: Techniques) -> Self {
        self.techniques = t;
        self
    }

    /// Builder-style override of pool geometry.
    pub fn with_pool(mut self, pool_bytes: u64, subtable_bytes: u64) -> Self {
        self.pool_bytes = pool_bytes;
        self.subtable_bytes = subtable_bytes;
        self
    }

    /// Builder-style override of the flush thread count.
    pub fn with_flush_threads(mut self, n: usize) -> Self {
        self.flush_threads = n.max(1);
        self
    }

    /// Builder-style override of the core count.
    pub fn with_cores(mut self, n: usize) -> Self {
        self.num_cores = n.max(1);
        self
    }

    /// Builder-style override of the housekeeping worker count.
    pub fn with_housekeeping_threads(mut self, n: usize) -> Self {
        self.housekeeping_threads = n.max(1);
        self
    }

    /// Builder-style override of the per-segment entry target.
    pub fn with_segment_target(mut self, entries: usize) -> Self {
        self.sc_segment_target_entries = entries.max(1);
        self
    }

    /// Builder-style toggle of the monolithic full-fold baseline mode.
    pub fn with_full_fold(mut self, on: bool) -> Self {
        self.sc_full_fold = on;
        self
    }

    /// Builder-style override of the write backpressure watermark.
    pub fn with_backpressure_bytes(mut self, bytes: u64) -> Self {
        self.hk_backpressure_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = CacheKvConfig::default();
        assert_eq!(c.pool_bytes, 12 << 20);
        assert_eq!(c.subtable_bytes, 2 << 20);
        assert_eq!(c.flush_threads, 1);
        assert_eq!(c.techniques, Techniques::all());
    }

    #[test]
    fn technique_presets() {
        assert!(!Techniques::pcsm().lazy_index);
        assert!(Techniques::pcsm_liu().lazy_index);
        assert!(!Techniques::pcsm_liu().compaction);
        assert!(Techniques::all().compaction);
    }

    #[test]
    fn builders_compose() {
        let c = CacheKvConfig::test_small()
            .with_pool(1 << 20, 128 << 10)
            .with_flush_threads(3)
            .with_cores(2)
            .with_housekeeping_threads(4)
            .with_segment_target(2048)
            .with_full_fold(true)
            .with_backpressure_bytes(0);
        assert_eq!(c.pool_bytes, 1 << 20);
        assert_eq!(c.subtable_bytes, 128 << 10);
        assert_eq!(c.flush_threads, 3);
        assert_eq!(c.num_cores, 2);
        assert_eq!(c.housekeeping_threads, 4);
        assert_eq!(c.sc_segment_target_entries, 2048);
        assert!(c.sc_full_fold);
        assert_eq!(c.hk_backpressure_bytes, 0);
    }

    #[test]
    fn housekeeping_defaults_are_off_path() {
        let c = CacheKvConfig::default();
        assert!(c.housekeeping_threads >= 1);
        assert!(c.housekeeping_queue_cap >= c.housekeeping_threads);
        assert!(!c.sc_full_fold, "full fold is a test-only mode");
        assert!(
            c.hk_backpressure_bytes > c.dump_threshold_bytes,
            "watermark must sit above the dump threshold or puts stall before a dump can free anything"
        );
    }
}
