//! CacheKV's registered instruments.
//!
//! One [`StoreObs`] per store instance, shared by the front-end write/read
//! paths and the background flush/maintenance threads. All hot-path handles
//! are pre-fetched `Arc`s so recording is purely atomic; the registry lock
//! is only taken at store construction and at snapshot time.

use std::sync::Arc;

use cachekv_obs::{
    Counter, Gauge, Histogram, HousekeepPhaseSet, PhaseSet, ReadPhaseSet, Registry, TimeSource,
};

/// Instruments for the memory component and its pipelines.
pub struct StoreObs {
    pub registry: Registry,
    pub time_source: TimeSource,

    // Front-end operations.
    pub puts: Arc<Counter>,
    pub gets: Arc<Counter>,
    pub deletes: Arc<Counter>,
    /// Whole-op write latency (puts + deletes share the write path).
    pub write_ns: Arc<Histogram>,
    /// Whole-op get latency.
    pub get_ns: Arc<Histogram>,
    /// Range scans served.
    pub scans: Arc<Counter>,
    /// Whole-op scan latency (snapshot capture + merge).
    pub scan_ns: Arc<Histogram>,
    /// Live `(key, value)` pairs returned by scans.
    pub scan_items: Arc<Counter>,
    /// Sources (flushed tables, segments, sstables) a scan skipped because
    /// their key fences were disjoint from the range.
    pub scan_fence_skips: Arc<Counter>,
    /// Snapshot captures thrown away and retried because a version-dropping
    /// compaction (SC fold swap, L0 dump, LSM compaction) landed mid-capture.
    pub scan_retries: Arc<Counter>,
    /// Bounded capture rounds run by scans (at least one per capture).
    pub scan_rounds: Arc<Counter>,
    /// Versions scans copied out of memory sources (active, sealing and
    /// flushed tables, global segments) — what a scan's cost follows.
    pub scan_captured: Arc<Counter>,
    /// Figure 5 phase decomposition of the write path.
    pub put_phases: PhaseSet,
    /// Probe-order decomposition of the read path.
    pub get_phases: ReadPhaseSet,

    // Read-path pruning (contention-free read path).
    /// Sub-indexes actually probed (active, sealing, flushed, global).
    pub read_probes: Arc<Counter>,
    /// Tables skipped because the key fell outside their min/max fence.
    pub read_fence_skips: Arc<Counter>,
    /// Tables skipped by a bloom-filter miss (key in range, not present).
    pub read_bloom_skips: Arc<Counter>,
    /// LSM probes skipped because an in-memory hit dominated every
    /// persisted sequence number.
    pub read_lsm_short_circuits: Arc<Counter>,
    /// CoreSlot mutex acquisitions made from inside a get. The read path
    /// is lock-free by construction, so this must stay at zero; it exists
    /// as a regression tripwire, asserted in tests and `validate_metrics`.
    pub read_core_lock_acquisitions: Arc<Counter>,

    // Seal / flush pipeline.
    pub seals: Arc<Counter>,
    /// Sub-MemTables force-sealed away from an idle peer core (the
    /// contention signal behind Figure 12).
    pub steals: Arc<Counter>,
    pub flushes: Arc<Counter>,
    pub flushed_bytes: Arc<Counter>,
    pub flush_ns: Arc<Histogram>,
    /// Sealed tables queued for flushing, not yet flushed.
    pub flush_queue_depth: Arc<Gauge>,

    // Lazy index update.
    pub liu_syncs: Arc<Counter>,

    // Housekeeping scheduler (the off-path worker pool).
    /// Plan / merge / swap / dump decomposition of a housekeeping round.
    pub hk_phases: HousekeepPhaseSet,
    /// Jobs queued and not yet dequeued by a worker.
    pub hk_queue_depth: Arc<Gauge>,
    /// Background submitters that blocked on a full queue.
    pub hk_stalls: Arc<Counter>,
    /// Puts stalled at a seal by the flushed-bytes watermark.
    pub hk_put_stalls: Arc<Counter>,
    /// Total nanoseconds puts spent stalled at the watermark.
    pub hk_put_stall_ns: Arc<Counter>,
    /// Reader sync nudges dropped because the queue was full.
    pub hk_sync_dropped: Arc<Counter>,
    /// Sync jobs discarded because their sealed generation already rolled.
    pub hk_sync_stale: Arc<Counter>,
    /// Compaction merges executed from inside a put. The scheduler exists
    /// so this never happens; it is the off-path regression tripwire,
    /// asserted zero in tests and `validate_metrics`.
    pub hk_inline_merges: Arc<Counter>,
    /// Housekeeping rounds executed.
    pub hk_rounds: Arc<Counter>,

    // Sub-skiplist compaction and L0 dumps.
    pub sc_merges: Arc<Counter>,
    pub sc_merge_ns: Arc<Histogram>,
    /// One sample per segment merge task (the parallel unit of SC).
    pub sc_segment_merge_ns: Arc<Histogram>,
    /// Index bytes read by merges — against `core.sc.index_bytes`, the
    /// incrementality claim: merge bytes track touched data, not the index.
    pub sc_merge_bytes: Arc<Counter>,
    /// Live segments in the partitioned global index.
    pub sc_segments: Arc<Gauge>,
    /// Approximate resident bytes of the partitioned global index.
    pub sc_index_bytes: Arc<Gauge>,
    /// Segments created beyond a merge's input count (splits).
    pub sc_splits: Arc<Counter>,
    /// Segments carried over untouched across SC rounds.
    pub sc_segments_kept: Arc<Counter>,
    /// Segments folded (rebuilt) by SC rounds.
    pub sc_segments_merged: Arc<Counter>,
    pub l0_dumps: Arc<Counter>,
    pub l0_dump_entries: Arc<Counter>,

    // Recovery.
    pub recoveries: Arc<Counter>,
    pub recovery_ns: Arc<Histogram>,
}

impl StoreObs {
    /// Register every instrument under the `core.` namespace.
    pub fn new(time_source: TimeSource) -> Self {
        let registry = Registry::new();
        StoreObs {
            time_source,
            puts: registry.counter("core.puts"),
            gets: registry.counter("core.gets"),
            deletes: registry.counter("core.deletes"),
            write_ns: registry.histogram("core.write_ns"),
            get_ns: registry.histogram("core.get_ns"),
            scans: registry.counter("core.scans"),
            scan_ns: registry.histogram("core.scan_ns"),
            scan_items: registry.counter("core.scan.items"),
            scan_fence_skips: registry.counter("core.scan.fence_skips"),
            scan_retries: registry.counter("core.scan.retries"),
            scan_rounds: registry.counter("core.scan.rounds"),
            scan_captured: registry.counter("core.scan.captured"),
            put_phases: PhaseSet::register(&registry, "core.put", time_source),
            get_phases: ReadPhaseSet::register(&registry, "core.get", time_source),
            read_probes: registry.counter("core.read.probes"),
            read_fence_skips: registry.counter("core.read.fence_skips"),
            read_bloom_skips: registry.counter("core.read.bloom_skips"),
            read_lsm_short_circuits: registry.counter("core.read.lsm_short_circuits"),
            read_core_lock_acquisitions: registry.counter("core.read.core_lock_acquisitions"),
            seals: registry.counter("core.seals"),
            steals: registry.counter("core.steals"),
            flushes: registry.counter("core.flushes"),
            flushed_bytes: registry.counter("core.flushed_bytes"),
            flush_ns: registry.histogram("core.flush_ns"),
            flush_queue_depth: registry.gauge("core.flush.queue_depth"),
            liu_syncs: registry.counter("core.liu.syncs"),
            hk_phases: HousekeepPhaseSet::register(&registry, "core.housekeep", time_source),
            hk_queue_depth: registry.gauge("core.housekeeping.queue_depth"),
            hk_stalls: registry.counter("core.housekeeping.stalls"),
            hk_put_stalls: registry.counter("core.housekeeping.put_stalls"),
            hk_put_stall_ns: registry.counter("core.housekeeping.put_stall_ns"),
            hk_sync_dropped: registry.counter("core.housekeeping.sync_dropped"),
            hk_sync_stale: registry.counter("core.housekeeping.sync_stale"),
            hk_inline_merges: registry.counter("core.housekeeping.inline_merges"),
            hk_rounds: registry.counter("core.housekeeping.rounds"),
            sc_merges: registry.counter("core.sc.merges"),
            sc_merge_ns: registry.histogram("core.sc.merge_ns"),
            sc_segment_merge_ns: registry.histogram("core.sc.segment_merge_ns"),
            sc_merge_bytes: registry.counter("core.sc.merge_bytes"),
            sc_segments: registry.gauge("core.sc.segments"),
            sc_index_bytes: registry.gauge("core.sc.index_bytes"),
            sc_splits: registry.counter("core.sc.splits"),
            sc_segments_kept: registry.counter("core.sc.segments_kept"),
            sc_segments_merged: registry.counter("core.sc.segments_merged"),
            l0_dumps: registry.counter("core.l0.dumps"),
            l0_dump_entries: registry.counter("core.l0.dump_entries"),
            recoveries: registry.counter("core.recoveries"),
            recovery_ns: registry.histogram("core.recovery_ns"),
            registry,
        }
    }
}
