//! Comparison systems from the paper's evaluation (Section IV-A).
//!
//! Two open-source PMem KV stores are re-implemented over the same simulated
//! hierarchy, plus the two derived variants the paper constructs for each:
//!
//! | System | Memory component | Durability |
//! |---|---|---|
//! | [`NoveLsm`] | large mutable MemTable (data log + skiplist) in PMem | in-place, `store`+`clflush` per write, no WAL |
//! | `NoveLSM-w/o-flush` | same | eADR only (flushes removed) |
//! | `NoveLSM-cache` | MemTable segmented into CAT-locked cache segments | segment-granularity `clflush` |
//! | [`SlmDb`] | persistent MemTable + global PMem B+-tree over a single-level table set | `store`+`clflush` |
//! | `SLM-DB-w/o-flush` / `SLM-DB-cache` | analogous | analogous |
//!
//! All variants are produced by [`BaselineOptions`] so experiments sweep one
//! axis at a time. Both stores take one global mutex per operation — the
//! paper's Observation 2 identifies exactly this synchronization (plus
//! synchronous index updates) as the post-eADR bottleneck, so the contention
//! here is real, not simulated.

mod bptree;
mod breakdown;
mod novelsm;
mod pmem_memtable;
mod slmdb;

pub use bptree::{BpTree, VAL};
pub use breakdown::{BreakdownSnapshot, WriteBreakdown};
pub use novelsm::NoveLsm;
pub use slmdb::SlmDb;

use cachekv_lsm::FlushMode;

/// How a baseline uses the persistent caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// MemTable lives in PMem behind the (unlocked) cache: the vanilla and
    /// `-w/o-flush` deployments.
    None,
    /// MemTable data region is segmented and each active segment is pinned
    /// into the cache with Intel CAT (the `-cache` variants).
    LockedSegments,
}

/// Variant axis shared by both baselines.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Per-write durability discipline for PMem-resident structures.
    pub(crate) flush_mode: FlushMode,
    /// Whether the MemTable data region rides in CAT-locked cache segments.
    pub(crate) cache_use: CacheUse,
    /// MemTable rotation threshold (data bytes).
    pub(crate) memtable_bytes: u64,
    /// Segment size for [`CacheUse::LockedSegments`] (12 MiB in the paper).
    pub(crate) segment_bytes: u64,
}

impl BaselineOptions {
    /// The vanilla system: PMem MemTable, `clflush` per write.
    pub fn vanilla() -> Self {
        BaselineOptions {
            flush_mode: FlushMode::Clflush,
            cache_use: CacheUse::None,
            memtable_bytes: 8 << 20,
            segment_bytes: 12 << 20,
        }
    }

    /// `-w/o-flush`: drop the flush instructions, rely on eADR.
    pub fn without_flush() -> Self {
        BaselineOptions {
            flush_mode: FlushMode::None,
            ..Self::vanilla()
        }
    }

    /// `-cache`: lift the MemTable into CAT-locked cache segments.
    pub fn cache() -> Self {
        BaselineOptions {
            cache_use: CacheUse::LockedSegments,
            ..Self::vanilla()
        }
    }

    /// Scale the MemTable for small tests.
    pub fn with_memtable_bytes(mut self, bytes: u64) -> Self {
        self.memtable_bytes = bytes;
        self
    }

    /// Override the cache segment size.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }
}
