//! `server.*` instruments: request counters, per-op latency histograms,
//! group-commit batch sizes, queue depths, connection counts.
//!
//! One [`ServerObs`] per [`crate::KvServer`], shared by the accept loop,
//! the event-loop I/O threads, and the shard committers.
//! All hot-path handles are pre-fetched `Arc`s (recording is purely
//! atomic); the registry lock is only taken at construction and snapshot.

use cachekv_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Instruments for the service front-end.
pub struct ServerObs {
    pub registry: Registry,

    // Request mix.
    pub requests: Arc<Counter>,
    pub gets: Arc<Counter>,
    pub puts: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub batch_ops: Arc<Counter>,
    pub pings: Arc<Counter>,
    pub stats_requests: Arc<Counter>,
    pub errors: Arc<Counter>,
    /// SCAN requests served (each continuation page counts once).
    pub scans: Arc<Counter>,
    /// Items returned across all SCAN pages.
    pub scan_items: Arc<Counter>,

    // Per-op wire-to-ack latency (p50/p95/p99 come from the histogram).
    pub get_ns: Arc<Histogram>,
    pub put_ns: Arc<Histogram>,
    pub delete_ns: Arc<Histogram>,
    pub batch_ns: Arc<Histogram>,
    /// SCAN wire-to-ack latency (fan-out + cross-shard merge included).
    pub scan_ns: Arc<Histogram>,

    // Group commit.
    /// Committed batches (one per shard commit round).
    pub group_commits: Arc<Counter>,
    /// Entries applied per commit round.
    pub batch_size: Arc<Histogram>,
    /// Submission-queue depth observed at each commit round.
    pub queue_depth_hist: Arc<Histogram>,
    /// Current total queued submissions across shards.
    pub queue_depth: Arc<Gauge>,

    // Hot-key cache tier (see `crate::cache`).
    /// GETs served from a replica slab (no queue, no engine probe).
    pub cache_hits: Arc<Counter>,
    /// GETs that fell through to the engine.
    pub cache_misses: Arc<Counter>,
    /// Engine values installed into a slab after a miss.
    pub cache_fills: Arc<Counter>,
    /// Fills discarded because a commit round raced the engine read.
    pub cache_fill_races: Arc<Counter>,
    /// Fills rejected by the admission policy (victim was hotter).
    pub cache_admission_rejects: Arc<Counter>,
    /// Entries updated/removed by round publication or round-log checks.
    pub cache_invalidations: Arc<Counter>,
    /// Entries displaced by the byte cap.
    pub cache_evictions: Arc<Counter>,
    /// Coherence-invariant violations (must stay 0; tests assert on it).
    pub cache_tripwire: Arc<Counter>,
    /// Current cached bytes across every replica slab.
    pub cache_bytes: Arc<Gauge>,

    // Replication (see `crate::repl`).
    /// Committed rounds shipped to the follower (primary side).
    pub repl_rounds_shipped: Arc<Counter>,
    /// Replicated rounds applied in order (follower side).
    pub repl_rounds_applied: Arc<Counter>,
    /// Sync-mode acks released on quorum (primary persisted + follower
    /// applied).
    pub repl_quorum_acks: Arc<Counter>,
    /// Snapshot bytes streamed (sent on the primary, received on the
    /// follower — each side counts its own).
    pub repl_snapshot_bytes: Arc<Counter>,
    /// Bootstrap phases in µs, summed over shards: the write-gated image
    /// capture and the SNAP_BEGIN + chunk stream (primary side), and the
    /// verify + rebuild + store swap at SNAP_END (follower side).
    pub repl_snap_capture_us: Arc<Counter>,
    pub repl_snap_stream_us: Arc<Counter>,
    pub repl_snap_install_us: Arc<Counter>,
    /// Follower promotions served (routing epoch bumps).
    pub repl_failovers: Arc<Counter>,
    /// Replication-invariant violations: out-of-order / gapped rounds,
    /// torn snapshot installs. Must stay 0; tests assert on it.
    pub repl_tripwire: Arc<Counter>,
    /// Replication links declared dead (ship or ack failed).
    pub repl_link_failures: Arc<Counter>,
    /// Rounds enqueued but not yet applied by the follower.
    pub repl_lag_rounds: Arc<Gauge>,
    /// Bytes of round frames enqueued but not yet applied.
    pub repl_lag_bytes: Arc<Gauge>,

    // Connections.
    /// Open connections.
    pub conns: Arc<Gauge>,
    /// Connections accepted over the server's lifetime.
    pub accepts: Arc<Counter>,

    // Admission control (see `crate::server`'s admission budget).
    /// Requests refused with `Busy` because an admission watermark was
    /// crossed. Zero in nominal operation; > 0 proves shedding under
    /// overload.
    pub sheds: Arc<Counter>,
    /// Response bytes queued on event-loop connections but not yet
    /// written to their sockets.
    pub inflight_bytes: Arc<Gauge>,
    /// Write submissions admitted (queued or mid-commit) but not yet
    /// acked, across all shards.
    pub inflight_requests: Arc<Gauge>,

    // Wire traffic.
    pub bytes_in: Arc<Counter>,
    pub bytes_out: Arc<Counter>,
}

impl ServerObs {
    /// Register every instrument under the `server.` namespace.
    pub fn new() -> Arc<Self> {
        let registry = Registry::new();
        Arc::new(ServerObs {
            requests: registry.counter("server.requests"),
            registry: registry.clone(),
            gets: registry.counter("server.gets"),
            puts: registry.counter("server.puts"),
            deletes: registry.counter("server.deletes"),
            batches: registry.counter("server.batches"),
            batch_ops: registry.counter("server.batch_ops"),
            pings: registry.counter("server.pings"),
            stats_requests: registry.counter("server.stats_requests"),
            errors: registry.counter("server.errors"),
            scans: registry.counter("server.scans"),
            scan_items: registry.counter("server.scan.items"),
            get_ns: registry.histogram("server.get_ns"),
            put_ns: registry.histogram("server.put_ns"),
            delete_ns: registry.histogram("server.delete_ns"),
            batch_ns: registry.histogram("server.batch_ns"),
            scan_ns: registry.histogram("server.scan_ns"),
            group_commits: registry.counter("server.group_commit.commits"),
            batch_size: registry.histogram("server.group_commit.batch_size"),
            queue_depth_hist: registry.histogram("server.group_commit.queue_depth"),
            queue_depth: registry.gauge("server.queue_depth"),
            cache_hits: registry.counter("server.cache.hits"),
            cache_misses: registry.counter("server.cache.misses"),
            cache_fills: registry.counter("server.cache.fills"),
            cache_fill_races: registry.counter("server.cache.fill_races"),
            cache_admission_rejects: registry.counter("server.cache.admission_rejects"),
            cache_invalidations: registry.counter("server.cache.invalidations"),
            cache_evictions: registry.counter("server.cache.evictions"),
            cache_tripwire: registry.counter("server.cache.tripwire"),
            cache_bytes: registry.gauge("server.cache.bytes"),
            repl_rounds_shipped: registry.counter("server.repl.rounds_shipped"),
            repl_rounds_applied: registry.counter("server.repl.rounds_applied"),
            repl_quorum_acks: registry.counter("server.repl.quorum_acks"),
            repl_snapshot_bytes: registry.counter("server.repl.snapshot_bytes"),
            repl_snap_capture_us: registry.counter("server.repl.snap_capture_us"),
            repl_snap_stream_us: registry.counter("server.repl.snap_stream_us"),
            repl_snap_install_us: registry.counter("server.repl.snap_install_us"),
            repl_failovers: registry.counter("server.repl.failovers"),
            repl_tripwire: registry.counter("server.repl.tripwire"),
            repl_link_failures: registry.counter("server.repl.link_failures"),
            repl_lag_rounds: registry.gauge("server.repl.lag_rounds"),
            repl_lag_bytes: registry.gauge("server.repl.lag_bytes"),
            conns: registry.gauge("server.conns"),
            accepts: registry.counter("server.accepts"),
            sheds: registry.counter("server.sheds"),
            inflight_bytes: registry.gauge("server.inflight_bytes"),
            inflight_requests: registry.gauge("server.inflight_requests"),
            bytes_in: registry.counter("server.bytes_in"),
            bytes_out: registry.counter("server.bytes_out"),
        })
    }
}
