//! The sharded, pipelined service front-end: configuration, the admission
//! budget, request dispatch, the follower-role state machine and the STATS
//! document.
//!
//! [`KvServer`] owns an accept thread, the event-loop I/O threads (see
//! `event_loop` for the connection diagram and the backpressure model) and
//! one committer thread per shard. Every accepted connection — TCP or
//! loopback — is handed to an I/O thread, which decodes frames and calls
//! [`dispatch`]: reads are served inline, writes are admitted against the
//! server-wide budget (or shed with `Busy`), hash-routed to a shard queue and
//! acked only after their group-commit round is fully applied. Shutdown
//! stops accepting, stops the I/O threads (closing every connection), then
//! drains every shard queue before returning.

use crate::cache::{HotCache, HotCacheConfig};
use crate::client::KvClient;
use crate::event_loop::{EventConn, EventLoops};
use crate::obs::ServerObs;
use crate::protocol::{
    encode_response, BatchOp, ReplWrite, Request, Response, HELLO_ADMIN, HELLO_REPL, MAX_KV_BYTES,
};
use crate::repl::{ReplMode, Replicator};
use crate::shard::{Ack, BatchAcc, Shard, SubOp, Submission};
use crate::transport::{Connection, Transport};
use cachekv_lsm::KvStore;
use cachekv_obs::{Counter, Gauge, Json, StatsSnapshot};
use cachekv_storage::crc::crc32c;
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Max submissions folded into one group-commit round.
    pub group_commit_max: usize,
    /// Connections beyond this are refused (closed on accept).
    pub max_connections: usize,
    /// Hot-key cache tier in front of the GET path (see [`crate::cache`]).
    /// `cache.capacity_bytes == 0` builds the server without the tier.
    pub cache: HotCacheConfig,
    /// Replication outbound-queue byte cap (primary role): a stalled but
    /// connected follower whose backlog crosses this is declared down and
    /// the backlog dropped (degraded local-only acks) instead of growing
    /// without bound.
    pub repl_max_backlog_bytes: u64,
    /// Event-loop I/O threads multiplexing the connections (each owns a
    /// poller over nonblocking sockets). At least one always runs: `0` is
    /// served as `1`.
    pub io_threads: usize,
    /// Server-wide cap on write submissions in flight (admitted but not
    /// yet acked). Requests past it get a fast retryable `Busy` instead of
    /// queueing — this, not a per-queue cap, is what bounds the shard
    /// queues.
    pub admit_max_requests: u64,
    /// Server-wide cap on response bytes buffered toward sockets. Past it, new work is shed with `Busy` (acks for
    /// already-admitted writes still enqueue — an accepted round always
    /// acks).
    pub admit_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            group_commit_max: 32,
            max_connections: 1024,
            cache: HotCacheConfig::default(),
            repl_max_backlog_bytes: 256 << 20,
            io_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            admit_max_requests: 4096,
            admit_max_bytes: 64 << 20,
        }
    }
}

/// Hard per-page item cap for SCAN responses: a client cannot ask one
/// frame to carry more than this many pairs.
pub const MAX_SCAN_PAGE: usize = 4096;

/// Soft per-page byte budget for SCAN responses, kept well under
/// [`crate::protocol::MAX_FRAME`] so a page of maximum-size values still
/// frames (the page is cut early once the budget is crossed).
pub const MAX_SCAN_BYTES: usize = 4 << 20;

/// Route `key` to one of `n` shards (stable FNV-1a 64 hash — must not
/// change across restarts, or recovered shards would serve wrong keys).
pub fn shard_for_key(key: &[u8], n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % n.max(1) as u64) as usize
}

/// Hard ceiling on one shard's snapshot-bootstrap image (a corrupt
/// SNAP_BEGIN cannot make the follower allocate without bound).
pub const MAX_SNAP_IMAGE: u64 = 1 << 30;

/// How much of a declared snapshot image SNAP_BEGIN preallocates up
/// front. Anything beyond this grows as chunks actually arrive, so a
/// header alone (even from the registered link) cannot pin gigabytes.
const SNAP_PREALLOC_CAP: usize = 64 << 20;

/// Rebuilds a follower shard's store from a streamed media image (one
/// `Vec<u8>` per DIMM, each possibly shorter than the DIMM's capacity —
/// the trailing bytes are zero): typically `PmemDevice::from_media`, which
/// zero-extends, + recovery. The error string crosses the wire back to the
/// primary; so does a panic's message — the follower catches it, installs
/// nothing and keeps serving.
pub type StoreFactory =
    Box<dyn Fn(usize, Vec<Vec<u8>>) -> Result<Arc<dyn KvStore>, String> + Send + Sync>;

/// An in-progress snapshot stream for one follower shard. Nothing is
/// installed until SNAP_END verifies length and CRC — a torn stream is
/// discarded wholesale, never served.
struct PendingSnap {
    seq: u64,
    dimm_sizes: Vec<u64>,
    crc: u32,
    buf: Vec<u8>,
}

/// Round-stream progress of one follower shard: the order/gap check plus
/// the fragment reassembly buffer for the round currently streaming in
/// (always `submitted + 1`; only the repl connection's reader mutates
/// this).
struct ReplProgress {
    /// Highest round seq accepted for apply.
    submitted: u64,
    /// Partial round `submitted + 1`: next expected fragment index and
    /// the writes reassembled so far.
    frag: Option<(u32, Vec<ReplWrite>)>,
}

struct FollowerShard {
    progress: Mutex<ReplProgress>,
    /// Highest round seq fully applied (advanced by the committer's
    /// `Ack::Repl`, read by stats).
    applied: Arc<AtomicU64>,
    applied_gauge: Arc<Gauge>,
    pending: Mutex<Option<PendingSnap>>,
}

/// `FollowerCtl::repl_conn` value meaning "no link registered".
const REPL_CONN_NONE: u64 = 0;
/// `FollowerCtl::repl_conn` value meaning "fenced": promotion revoked the
/// old primary's link and no new link may register.
const REPL_CONN_FENCED: u64 = u64::MAX;

pub(crate) struct FollowerCtl {
    shards: Vec<FollowerShard>,
    factory: StoreFactory,
    /// Connection id of the one registered replication link
    /// (HELLO repl), or [`REPL_CONN_NONE`] / [`REPL_CONN_FENCED`].
    /// REPL_*/SNAP_* frames are refused from any other connection — a
    /// stray client cannot discard an in-flight bootstrap, inject
    /// divergent rounds, or trigger snapshot preallocation.
    repl_conn: AtomicU64,
}

/// Cloneable handle that routes an encoded response back to its
/// connection's outbound queue. Sends to a torn-down connection are
/// silently dropped (the client is gone; the commit still happened).
#[derive(Clone)]
pub struct ReplySender {
    conn: Arc<EventConn>,
    obs: Arc<ServerObs>,
}

impl ReplySender {
    pub(crate) fn new(conn: Arc<EventConn>, obs: Arc<ServerObs>) -> ReplySender {
        ReplySender { conn, obs }
    }

    /// Encode and enqueue `(id, resp)` toward the connection's socket.
    pub fn send(&self, id: u64, resp: &Response) {
        let payload = encode_response(id, resp);
        self.obs.bytes_out.add(payload.len() as u64 + 8);
        self.conn.enqueue_frame(&payload);
    }
}

/// Server-wide admission budget: a cap on write submissions in flight and
/// on response bytes buffered toward sockets. Acquisition is a pair of
/// atomics (no lock); over-budget requests are shed with a fast `Busy`
/// rather than parking the I/O thread that carried them — it serves many
/// other connections.
pub(crate) struct AdmitBudget {
    reqs: AtomicU64,
    max_reqs: u64,
    max_bytes: i64,
    inflight_reqs_gauge: Arc<Gauge>,
    inflight_bytes: Arc<Gauge>,
    sheds: Arc<Counter>,
}

impl AdmitBudget {
    fn new(cfg: &ServerConfig, obs: &ServerObs) -> Arc<AdmitBudget> {
        Arc::new(AdmitBudget {
            reqs: AtomicU64::new(0),
            max_reqs: cfg.admit_max_requests.max(1),
            max_bytes: cfg.admit_max_bytes.max(1) as i64,
            inflight_reqs_gauge: obs.inflight_requests.clone(),
            inflight_bytes: obs.inflight_bytes.clone(),
            sheds: obs.sheds.clone(),
        })
    }

    /// Admit `n` write ops, or refuse (count a shed) if either watermark
    /// is crossed. The returned permit releases the budget on drop.
    fn try_acquire(self: &Arc<Self>, n: u64) -> Option<AdmitPermit> {
        if self.bytes_over() {
            self.sheds.inc();
            return None;
        }
        let prev = self.reqs.fetch_add(n, Ordering::AcqRel);
        if prev.saturating_add(n) > self.max_reqs {
            self.reqs.fetch_sub(n, Ordering::AcqRel);
            self.sheds.inc();
            return None;
        }
        self.inflight_reqs_gauge.add(n as i64);
        Some(AdmitPermit {
            budget: self.clone(),
            n,
        })
    }

    /// Whether buffered response bytes exceed the budget. Reads consult
    /// only this (they add response bytes but no queue work); when it
    /// trips they shed too.
    fn bytes_over(&self) -> bool {
        self.inflight_bytes.get() >= self.max_bytes
    }
}

/// RAII admission slot for in-flight write ops (weight `n`); carried by a
/// [`Submission`](crate::shard::Submission) or a
/// [`BatchAcc`](crate::shard::BatchAcc) and released when the commit
/// round's ack drops it.
pub struct AdmitPermit {
    budget: Arc<AdmitBudget>,
    n: u64,
}

impl Drop for AdmitPermit {
    fn drop(&mut self) {
        self.budget.reqs.fetch_sub(self.n, Ordering::AcqRel);
        self.budget.inflight_reqs_gauge.add(-(self.n as i64));
    }
}

pub(crate) struct ServerShared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) cache: Arc<HotCache>,
    pub(crate) obs: Arc<ServerObs>,
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) cfg: ServerConfig,
    pub(crate) stopping: AtomicBool,
    /// Primary-role round shipping (None on plain and follower servers).
    pub(crate) repl: Option<Arc<Replicator>>,
    /// Follower-role apply state (None on plain and primary servers).
    pub(crate) follower: Option<FollowerCtl>,
    /// True while in follower role: writes are refused, REPL_*/SNAP_*
    /// frames are accepted. PROMOTE flips it off.
    pub(crate) is_follower: AtomicBool,
    /// Routing epoch: bumped on every promotion so clients can tell a
    /// stale primary's refusal from the new primary's acceptance.
    pub(crate) epoch: AtomicU64,
    /// Connection-id allocator (ids start at 1 — 0 and u64::MAX are the
    /// [`REPL_CONN_NONE`] / [`REPL_CONN_FENCED`] sentinels).
    pub(crate) next_conn_id: AtomicU64,
    /// Server-wide admission budget.
    pub(crate) admit: Arc<AdmitBudget>,
}

/// Per-connection dispatch state: identity for the replication-link
/// binding plus the admin designation HELLO can grant.
pub(crate) struct ConnCtx {
    pub(crate) conn_id: u64,
    /// Set by `HELLO admin`: this connection may PROMOTE.
    pub(crate) admin: bool,
}

impl ConnCtx {
    pub(crate) fn new(shared: &ServerShared) -> ConnCtx {
        ConnCtx {
            conn_id: shared.next_conn_id.fetch_add(1, Ordering::Relaxed),
            admin: false,
        }
    }
}

/// A running KV service: accept loop + event-loop I/O threads + shard
/// committers. Stops cleanly via [`KvServer::shutdown`] (drains in-flight
/// batches) — dropping without shutdown also joins everything.
pub struct KvServer {
    shared: Arc<ServerShared>,
    event: Arc<EventLoops>,
    accept: Option<JoinHandle<()>>,
}

impl KvServer {
    /// Start serving `stores` (one per shard; key-hash routed) over
    /// `transport`.
    pub fn start(
        stores: Vec<Arc<dyn KvStore>>,
        transport: Arc<dyn Transport>,
        cfg: ServerConfig,
    ) -> KvServer {
        let obs = ServerObs::new();
        Self::build(stores, transport, cfg, obs, None, None)
    }

    /// Start a *primary*: serve clients like [`KvServer::start`] and ship
    /// every committed round over `follower_conn` to a server started with
    /// [`KvServer::start_follower`]. In [`ReplMode::Sync`] write acks
    /// release only on quorum (local commit + follower applied); in
    /// [`ReplMode::Async`] the round log ships identically but acks stay
    /// local. Bootstrap (snapshot capture + stream) runs on a background
    /// shipper thread before live tail-follow.
    pub fn start_replicated(
        stores: Vec<Arc<dyn KvStore>>,
        transport: Arc<dyn Transport>,
        cfg: ServerConfig,
        follower_conn: Connection,
        mode: ReplMode,
    ) -> KvServer {
        let obs = ServerObs::new();
        let repl = Replicator::new(
            KvClient::connect(follower_conn),
            mode,
            stores.len(),
            cfg.repl_max_backlog_bytes,
            obs.clone(),
        );
        let server = Self::build(stores, transport, cfg, obs, Some(repl.clone()), None);
        let handles = server
            .shared
            .shards
            .iter()
            .map(Shard::capture_handle)
            .collect();
        repl.start(handles);
        server
    }

    /// Start a *follower*: refuse writes, accept SNAP_*/REPL_ROUND frames
    /// from a primary, rebuild bootstrap images through `factory`, and
    /// serve reads (possibly stale until promoted). PROMOTE flips it into
    /// a primary under a bumped routing epoch. The hot-key cache starts
    /// cold (disabled) and is enabled at promotion.
    pub fn start_follower(
        stores: Vec<Arc<dyn KvStore>>,
        transport: Arc<dyn Transport>,
        cfg: ServerConfig,
        factory: StoreFactory,
    ) -> KvServer {
        let obs = ServerObs::new();
        let ctl = FollowerCtl {
            shards: (0..stores.len())
                .map(|i| FollowerShard {
                    progress: Mutex::new(ReplProgress {
                        submitted: 0,
                        frag: None,
                    }),
                    applied: Arc::new(AtomicU64::new(0)),
                    applied_gauge: obs
                        .registry
                        .gauge(&format!("server.repl.applied_seq.shard{i}")),
                    pending: Mutex::new(None),
                })
                .collect(),
            factory,
            repl_conn: AtomicU64::new(REPL_CONN_NONE),
        };
        let server = Self::build(stores, transport, cfg, obs, None, Some(ctl));
        server.shared.is_follower.store(true, Ordering::Release);
        server.shared.cache.set_enabled(false);
        server
    }

    fn build(
        stores: Vec<Arc<dyn KvStore>>,
        transport: Arc<dyn Transport>,
        mut cfg: ServerConfig,
        obs: Arc<ServerObs>,
        repl: Option<Arc<Replicator>>,
        follower: Option<FollowerCtl>,
    ) -> KvServer {
        assert!(!stores.is_empty(), "server needs at least one shard");
        cfg.io_threads = cfg.io_threads.max(1);
        let cache = HotCache::new(&cfg.cache, stores.len(), obs.clone());
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                Shard::spawn(
                    i,
                    store,
                    cfg.group_commit_max,
                    obs.clone(),
                    cache.clone(),
                    repl.clone(),
                )
            })
            .collect();
        let admit = AdmitBudget::new(&cfg, &obs);
        let shared = Arc::new(ServerShared {
            shards,
            cache,
            obs,
            transport,
            cfg,
            stopping: AtomicBool::new(false),
            repl,
            follower,
            is_follower: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            admit,
        });
        let event = Arc::new(EventLoops::spawn(&shared));
        let accept = {
            let shared = shared.clone();
            let event = event.clone();
            std::thread::Builder::new()
                .name("cachekv-accept".into())
                .spawn(move || accept_loop(&shared, &event))
                .expect("spawn accept loop")
        };
        KvServer {
            shared,
            event,
            accept: Some(accept),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// The server's instruments (tests / benches).
    pub fn obs(&self) -> &Arc<ServerObs> {
        &self.shared.obs
    }

    /// The hot-key cache tier (runtime toggle, stats, tests).
    pub fn cache(&self) -> &Arc<HotCache> {
        &self.shared.cache
    }

    /// The primary-side replicator, if this server ships rounds.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.shared.repl.as_ref()
    }

    /// Whether this server is currently in follower role.
    pub fn is_follower(&self) -> bool {
        self.shared.is_follower.load(Ordering::Acquire)
    }

    /// The routing epoch (bumped on every promotion).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Per-shard committed round sequence numbers.
    pub fn round_seqs(&self) -> Vec<u64> {
        self.shared.shards.iter().map(Shard::round_seq).collect()
    }

    /// The STATS wire document: `server.*` metrics, each shard's full
    /// [`StatsSnapshot`], and a merged snapshot (shard 0's layers with the
    /// `server.*` metrics folded into its memory section) for artifact
    /// pipelines that expect one `StatsSnapshot` per label.
    pub fn stats_document(&self) -> String {
        stats_document(&self.shared)
    }

    /// Just the merged snapshot (see [`KvServer::stats_document`]).
    pub fn merged_snapshot_json(&self) -> String {
        merged_snapshot_json(&self.shared)
    }

    /// Stop accepting, close every connection, then drain and stop every
    /// shard committer. Everything already accepted onto a queue is
    /// committed before this returns.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.transport.close();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Stop the event loops (each shuts down the sockets it owns):
        // joining here guarantees no I/O thread submits past this point,
        // so the drain below sees a closed set of work.
        self.event.shutdown();
        // Drain after the I/O threads stop submitting: every accepted write is
        // committed (and acked, where the connection still exists) before
        // shutdown returns. The replication shipper must outlive the
        // drain — sync-mode committers park on follower acks — so it is
        // stopped only afterwards. The committer threads themselves join
        // in Shard's Drop when the last ServerShared ref goes away.
        for shard in &self.shared.shards {
            shard.wait_idle_and_quiesce();
        }
        if let Some(repl) = &self.shared.repl {
            repl.shutdown();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.teardown();
        // Shards drain-and-join in their own Drop (after teardown stopped
        // all submitters).
    }
}

fn accept_loop(shared: &Arc<ServerShared>, event: &EventLoops) {
    while let Some(conn) = shared.transport.accept() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let obs = &shared.obs;
        if obs.conns.get() >= shared.cfg.max_connections as i64 {
            // At capacity: refuse by dropping the connection (the peer
            // sees EOF).
            continue;
        }
        obs.conns.inc();
        obs.accepts.inc();
        event.register(conn.socket);
    }
}

/// Release the replication-link registration if `conn_id` held it, so a
/// restarted primary can re-register on a fresh connection.
pub(crate) fn release_repl_link(shared: &ServerShared, conn_id: u64) {
    if let Some(ctl) = &shared.follower {
        let _ = ctl.repl_conn.compare_exchange(
            conn_id,
            REPL_CONN_NONE,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

pub(crate) fn dispatch(
    shared: &Arc<ServerShared>,
    id: u64,
    req: Request,
    reply: &ReplySender,
    ctx: &mut ConnCtx,
) {
    let obs = &shared.obs;
    let n = shared.shards.len();
    match req {
        Request::Get { key } => {
            obs.gets.inc();
            // Reads add response bytes but no queue work: only the byte
            // watermark sheds them (an overflowing outbound buffer means
            // producing more values helps nobody).
            if shared.admit.bytes_over() {
                obs.sheds.inc();
                reply.send(id, &Response::Busy);
                return;
            }
            let started = Instant::now();
            // Reads bypass the queues entirely: the engine's read path is
            // contention-free, so serving inline gives GETs queue-free
            // latency even while writes batch behind them. The hot-key
            // cache sits in front of even that: a hit never touches the
            // engine. The fill token must be captured before the engine
            // read — it carries the round epoch that makes a racing
            // group-commit round discard the fill.
            let shard = shard_for_key(&key, n);
            let resp = match shared.cache.probe(shard, &key) {
                Ok(v) => Response::Value(v),
                Err(fill) => match shared.shards[shard].store().get(&key) {
                    Ok(Some(v)) => {
                        shared.cache.fill(shard, &key, &v, fill);
                        Response::Value(v)
                    }
                    Ok(None) => Response::NotFound,
                    Err(e) => {
                        obs.errors.inc();
                        Response::Err(e.to_string())
                    }
                },
            };
            obs.get_ns.record(started.elapsed().as_nanos() as u64);
            reply.send(id, &resp);
        }
        Request::Put { key, value } => {
            obs.puts.inc();
            if shared.is_follower.load(Ordering::Acquire) {
                reply.send(id, &not_primary(shared));
                return;
            }
            if key.len() + value.len() > MAX_KV_BYTES {
                obs.errors.inc();
                reply.send(id, &kv_too_large(key.len() + value.len()));
                return;
            }
            let Some(permit) = shared.admit.try_acquire(1) else {
                reply.send(id, &Response::Busy);
                return;
            };
            let shard = &shared.shards[shard_for_key(&key, n)];
            let accepted = shard.submit(Submission {
                ops: vec![SubOp::Put { key, value }],
                ack: Ack::Single {
                    id,
                    reply: reply.clone(),
                    started: Instant::now(),
                    latency: obs.put_ns.clone(),
                },
                permit: Some(permit),
            });
            if !accepted {
                reply.send(id, &Response::Err("server shutting down".into()));
            }
        }
        Request::Delete { key } => {
            obs.deletes.inc();
            if shared.is_follower.load(Ordering::Acquire) {
                reply.send(id, &not_primary(shared));
                return;
            }
            let Some(permit) = shared.admit.try_acquire(1) else {
                reply.send(id, &Response::Busy);
                return;
            };
            let shard = &shared.shards[shard_for_key(&key, n)];
            let accepted = shard.submit(Submission {
                ops: vec![SubOp::Delete { key }],
                ack: Ack::Single {
                    id,
                    reply: reply.clone(),
                    started: Instant::now(),
                    latency: obs.delete_ns.clone(),
                },
                permit: Some(permit),
            });
            if !accepted {
                reply.send(id, &Response::Err("server shutting down".into()));
            }
        }
        Request::Batch { ops } => {
            obs.batches.inc();
            obs.batch_ops.add(ops.len() as u64);
            if shared.is_follower.load(Ordering::Acquire) {
                reply.send(id, &not_primary(shared));
                return;
            }
            if ops.is_empty() {
                reply.send(id, &Response::Batch(Vec::new()));
                return;
            }
            if let Some(oversize) = ops.iter().find(|op| op.kv_bytes() > MAX_KV_BYTES) {
                obs.errors.inc();
                reply.send(id, &kv_too_large(oversize.kv_bytes()));
                return;
            }
            // One permit weighted by op count covers the whole batch; it
            // rides the BatchAcc so the budget is held until the combined
            // response is sent. Acquired before any part is queued —
            // shedding mid-batch would half-apply it.
            let Some(permit) = shared.admit.try_acquire(ops.len() as u64) else {
                reply.send(id, &Response::Busy);
                return;
            };
            // Split by shard, remembering each op's original position.
            let mut parts: Vec<(Vec<usize>, Vec<SubOp>)> = vec![Default::default(); n];
            for (pos, op) in ops.into_iter().enumerate() {
                let s = shard_for_key(op.key(), n);
                parts[s].0.push(pos);
                parts[s].1.push(match op {
                    BatchOp::Put { key, value } => SubOp::Put { key, value },
                    BatchOp::Delete { key } => SubOp::Delete { key },
                    BatchOp::Get { key } => SubOp::Get { key },
                });
            }
            let live: Vec<usize> = (0..n).filter(|&s| !parts[s].1.is_empty()).collect();
            let total: usize = parts.iter().map(|(slots, _)| slots.len()).sum();
            let acc = BatchAcc::new(
                id,
                reply.clone(),
                total,
                live.len(),
                obs.clone(),
                Some(permit),
            );
            for s in live {
                let (slots, sub_ops) = std::mem::take(&mut parts[s]);
                let accepted = shared.shards[s].submit(Submission {
                    ops: sub_ops,
                    ack: Ack::BatchPart {
                        acc: acc.clone(),
                        slots,
                    },
                    permit: None,
                });
                if !accepted {
                    reply.send(id, &Response::Err("server shutting down".into()));
                    return;
                }
            }
        }
        Request::Stats => {
            obs.stats_requests.inc();
            reply.send(id, &Response::Stats(stats_document(shared)));
        }
        Request::Ping { sync } => {
            obs.pings.inc();
            if sync {
                // The wire form of `quiesce`: wait until every accepted
                // submission is committed and every shard's background
                // work is done. Parks this I/O thread for the duration;
                // committers ack through the outbound queues without it.
                for shard in &shared.shards {
                    shard.wait_idle_and_quiesce();
                }
            }
            reply.send(id, &Response::Ok);
        }
        Request::Scan {
            start,
            end,
            limit,
            resume_after,
        } => {
            obs.scans.inc();
            // Same byte-watermark shed as GET: a scan page is the largest
            // response the server produces.
            if shared.admit.bytes_over() {
                obs.sheds.inc();
                reply.send(id, &Response::Busy);
                return;
            }
            // A zero limit asks for nothing: the empty page is the whole
            // answer, and claiming `more` would send a client that
            // follows it round forever without a resume key.
            if limit == 0 {
                reply.send(
                    id,
                    &Response::Scan {
                        items: Vec::new(),
                        more: false,
                    },
                );
                return;
            }
            let started = Instant::now();
            // Scans are reads: serve inline like GETs, off each shard's
            // contention-free scan path. Shard routing hashes keys, so a
            // key range scatters across every shard — fan out, merge by
            // key (each key lives on exactly one shard), page the result.
            let page = (limit as usize).min(MAX_SCAN_PAGE);
            let eff_start = match resume_after {
                // Continuation is exclusive: resume at the successor of
                // the last delivered key (`key ++ 0x00` in byte order).
                Some(mut k) => {
                    k.push(0);
                    if k > start {
                        k
                    } else {
                        start
                    }
                }
                None => start,
            };
            // `page + 1` per shard: enough to fill the page from any one
            // shard and still detect that the range continues past it.
            let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut err = None;
            for shard in &shared.shards {
                match shard.store().scan(&eff_start, &end, page + 1) {
                    Ok(items) => merged.extend(items),
                    Err(e) => {
                        err = Some(e.to_string());
                        break;
                    }
                }
            }
            let resp = match err {
                Some(e) => {
                    obs.errors.inc();
                    Response::Err(e)
                }
                None => {
                    merged.sort_by(|a, b| a.0.cmp(&b.0));
                    // Truncate to the page, and further to the byte budget
                    // so the response frame stays well under MAX_FRAME —
                    // but always deliver at least one item (progress).
                    let mut cut = merged.len().min(page);
                    let mut bytes = 0usize;
                    for (i, (k, v)) in merged.iter().take(cut).enumerate() {
                        bytes += k.len() + v.len() + 8;
                        if bytes > MAX_SCAN_BYTES && i > 0 {
                            cut = i;
                            break;
                        }
                    }
                    let more = merged.len() > cut;
                    merged.truncate(cut);
                    obs.scan_items.add(merged.len() as u64);
                    Response::Scan {
                        items: merged,
                        more,
                    }
                }
            };
            obs.scan_ns.record(started.elapsed().as_nanos() as u64);
            reply.send(id, &resp);
        }
        Request::Hello { role } => {
            reply.send(id, &hello(shared, role, ctx));
        }
        Request::ReplRound {
            shard,
            seq,
            frag,
            last,
            writes,
        } => {
            // `None` means the round was accepted onto the shard queue:
            // the committer's `Ack::Repl` replies after the apply.
            if let Some(resp) = apply_repl_round(
                shared,
                id,
                shard,
                seq,
                frag,
                last,
                writes,
                reply,
                ctx.conn_id,
            ) {
                reply.send(id, &resp);
            }
        }
        Request::SnapBegin {
            shard,
            seq,
            dimm_sizes,
            crc,
        } => {
            reply.send(
                id,
                &snap_begin(shared, shard, seq, dimm_sizes, crc, ctx.conn_id),
            );
        }
        Request::SnapChunk {
            shard,
            offset,
            data,
        } => {
            reply.send(id, &snap_chunk(shared, shard, offset, &data, ctx.conn_id));
        }
        Request::SnapEnd { shard, total_len } => {
            reply.send(id, &snap_end(shared, shard, total_len, ctx.conn_id));
        }
        Request::Promote { epoch } => {
            reply.send(id, &promote(shared, epoch, ctx));
        }
    }
}

/// Admission refusal for a PUT whose key + value could not be shipped in
/// one replication fragment. Enforced on every server (not just
/// replicated ones) so the limit is a stable protocol property.
fn kv_too_large(bytes: usize) -> Response {
    Response::Err(format!(
        "key + value too large: {bytes} bytes (max {MAX_KV_BYTES})"
    ))
}

/// HELLO: bind a role to this connection. `HELLO_REPL` claims the one
/// replication link a follower accepts REPL_*/SNAP_* frames from;
/// `HELLO_ADMIN` marks the connection as allowed to PROMOTE.
fn hello(shared: &Arc<ServerShared>, role: u8, ctx: &mut ConnCtx) -> Response {
    match role {
        HELLO_ADMIN => {
            ctx.admin = true;
            Response::Ok
        }
        HELLO_REPL => {
            let ctl = match follower_ctl(shared) {
                Ok(ctl) => ctl,
                Err(resp) => return resp,
            };
            match ctl.repl_conn.compare_exchange(
                REPL_CONN_NONE,
                ctx.conn_id,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => Response::Ok,
                Err(cur) if cur == ctx.conn_id => Response::Ok,
                Err(_) => {
                    shared.obs.errors.inc();
                    Response::Err("replication link already registered".into())
                }
            }
        }
        other => Response::Err(format!("unknown hello role {other}")),
    }
}

/// Guard on every REPL_*/SNAP_* frame after [`follower_ctl`]: the frame
/// must arrive on the connection that registered via HELLO repl. Stray
/// clients cannot discard an in-flight bootstrap, inject divergent
/// rounds, or balloon snapshot buffers; a fenced (post-promotion) link
/// is refused the same way.
fn repl_link_check(
    shared: &Arc<ServerShared>,
    ctl: &FollowerCtl,
    conn_id: u64,
) -> Option<Response> {
    if ctl.repl_conn.load(Ordering::Acquire) == conn_id {
        return None;
    }
    shared.obs.errors.inc();
    Some(Response::Err(
        "not the registered replication link (send HELLO first)".into(),
    ))
}

/// The follower-role write refusal: names the current epoch so an
/// [`crate::client::HaClient`] can distinguish a demoted stale primary
/// from a transient error and redirect.
fn not_primary(shared: &Arc<ServerShared>) -> Response {
    Response::Err(format!(
        "not primary (epoch {})",
        shared.epoch.load(Ordering::Acquire)
    ))
}

/// Guard common to every replication frame: the server must have been
/// started as a follower and still be in that role.
fn follower_ctl(shared: &Arc<ServerShared>) -> Result<&FollowerCtl, Response> {
    let Some(ctl) = &shared.follower else {
        return Err(Response::Err(
            "replication not enabled on this server".into(),
        ));
    };
    if !shared.is_follower.load(Ordering::Acquire) {
        return Err(Response::Err(format!(
            "not follower (epoch {})",
            shared.epoch.load(Ordering::Acquire)
        )));
    }
    Ok(ctl)
}

/// Apply one shipped round on a follower. Returns `None` when the round
/// was accepted onto the shard queue — the committer's `Ack::Repl` sends
/// the reply *after* the round is applied — and `Some(resp)` for the
/// immediate cases (duplicates, violations). Ordering is enforced here:
/// rounds apply at exactly `submitted + 1`, duplicates (≤ submitted, from
/// the pre-bootstrap backlog) ack idempotently, and a gap is a tripwire.
#[allow(clippy::too_many_arguments)]
fn apply_repl_round(
    shared: &Arc<ServerShared>,
    id: u64,
    shard: u32,
    seq: u64,
    frag: u32,
    last: bool,
    writes: Vec<ReplWrite>,
    reply: &ReplySender,
    conn_id: u64,
) -> Option<Response> {
    let ctl = match follower_ctl(shared) {
        Ok(ctl) => ctl,
        Err(resp) => return Some(resp),
    };
    if let Some(resp) = repl_link_check(shared, ctl, conn_id) {
        return Some(resp);
    }
    let Some(fs) = ctl.shards.get(shard as usize) else {
        shared.obs.repl_tripwire.inc();
        return Some(Response::Err(format!("no such shard {shard}")));
    };
    let mut pg = fs.progress.lock();
    if seq <= pg.submitted {
        // Pre-bootstrap backlog replay: the snapshot image already holds
        // this round.
        return Some(Response::Ok);
    }
    if seq != pg.submitted + 1 {
        shared.obs.repl_tripwire.inc();
        return Some(Response::Err(format!(
            "round gap on shard {shard}: got seq {seq}, expected {}",
            pg.submitted + 1
        )));
    }
    // Fragment reassembly: frames carry the same seq with a running
    // fragment index; only the `last` frame releases the round to the
    // shard queue. A misordered fragment tears the whole round down —
    // same tripwire discipline as a seq gap.
    let expected_frag = pg.frag.as_ref().map_or(0, |(next, _)| *next);
    if frag != expected_frag {
        pg.frag = None;
        shared.obs.repl_tripwire.inc();
        return Some(Response::Err(format!(
            "fragment misordered on shard {shard} seq {seq}: got frag {frag}, expected {expected_frag}"
        )));
    }
    if !last {
        match pg.frag.as_mut() {
            Some((next, buf)) => {
                *next += 1;
                buf.extend(writes);
            }
            None => pg.frag = Some((1, writes)),
        }
        return Some(Response::Ok);
    }
    let writes = match pg.frag.take() {
        Some((_, mut buf)) => {
            buf.extend(writes);
            buf
        }
        None => writes,
    };
    pg.submitted = seq;
    let ops: Vec<SubOp> = writes
        .into_iter()
        .map(|w| match w {
            ReplWrite::Put { key, value } => SubOp::Put { key, value },
            ReplWrite::Delete { key } => SubOp::Delete { key },
        })
        .collect();
    // Replicated rounds bypass the admission budget: shedding one would
    // gap the seq stream (the primary's backlog cap already bounds what
    // can be in flight).
    let accepted = shared.shards[shard as usize].submit(Submission {
        ops,
        ack: Ack::Repl {
            id,
            reply: reply.clone(),
            seq,
            applied: fs.applied.clone(),
            applied_gauge: fs.applied_gauge.clone(),
            rounds_applied: shared.obs.repl_rounds_applied.clone(),
        },
        permit: None,
    });
    if accepted {
        None
    } else {
        Some(Response::Err("server shutting down".into()))
    }
}

fn snap_begin(
    shared: &Arc<ServerShared>,
    shard: u32,
    seq: u64,
    dimm_sizes: Vec<u64>,
    crc: u32,
    conn_id: u64,
) -> Response {
    let ctl = match follower_ctl(shared) {
        Ok(ctl) => ctl,
        Err(resp) => return resp,
    };
    if let Some(resp) = repl_link_check(shared, ctl, conn_id) {
        return resp;
    }
    let Some(fs) = ctl.shards.get(shard as usize) else {
        return Response::Err(format!("no such shard {shard}"));
    };
    let total: u64 = dimm_sizes.iter().sum();
    if total > MAX_SNAP_IMAGE {
        return Response::Err(format!("snapshot image too large: {total} bytes"));
    }
    // A new stream discards any partial predecessor (primary restarted
    // its bootstrap): nothing of the old stream was installed. The
    // buffer grows with the chunks actually received, capped by the
    // misorder check against `dimm_sizes` — never preallocated from the
    // header alone.
    *fs.pending.lock() = Some(PendingSnap {
        seq,
        dimm_sizes,
        crc,
        buf: Vec::with_capacity((total as usize).min(SNAP_PREALLOC_CAP)),
    });
    Response::Ok
}

fn snap_chunk(
    shared: &Arc<ServerShared>,
    shard: u32,
    offset: u64,
    data: &[u8],
    conn_id: u64,
) -> Response {
    let ctl = match follower_ctl(shared) {
        Ok(ctl) => ctl,
        Err(resp) => return resp,
    };
    if let Some(resp) = repl_link_check(shared, ctl, conn_id) {
        return resp;
    }
    let Some(fs) = ctl.shards.get(shard as usize) else {
        return Response::Err(format!("no such shard {shard}"));
    };
    let mut pending = fs.pending.lock();
    let Some(snap) = pending.as_mut() else {
        return Response::Err("snapshot chunk without SNAP_BEGIN".into());
    };
    let expected: u64 = snap.dimm_sizes.iter().sum();
    if offset != snap.buf.len() as u64 || offset + data.len() as u64 > expected {
        // Out-of-order or overlong chunk: the stream is torn — discard
        // it entirely rather than risk installing a frankenstein image.
        *pending = None;
        return Response::Err(format!("snapshot chunk misordered at offset {offset}"));
    }
    snap.buf.extend_from_slice(data);
    shared.obs.repl_snapshot_bytes.add(data.len() as u64);
    Response::Ok
}

fn snap_end(shared: &Arc<ServerShared>, shard: u32, total_len: u64, conn_id: u64) -> Response {
    let ctl = match follower_ctl(shared) {
        Ok(ctl) => ctl,
        Err(resp) => return resp,
    };
    if let Some(resp) = repl_link_check(shared, ctl, conn_id) {
        return resp;
    }
    let Some(fs) = ctl.shards.get(shard as usize) else {
        return Response::Err(format!("no such shard {shard}"));
    };
    let Some(snap) = fs.pending.lock().take() else {
        return Response::Err("SNAP_END without SNAP_BEGIN".into());
    };
    let started = Instant::now();
    let expected: u64 = snap.dimm_sizes.iter().sum();
    if total_len != expected || snap.buf.len() as u64 != expected {
        return Response::Err(format!(
            "snapshot truncated: declared {expected}, got {}",
            snap.buf.len()
        ));
    }
    if crc32c(&snap.buf) != snap.crc {
        return Response::Err("snapshot image CRC mismatch".into());
    }
    // Split the verified image back into per-DIMM media and rebuild the
    // store. Only after the factory succeeds does anything replace the
    // live shard — verification failures above leave it untouched.
    let mut dimms = Vec::with_capacity(snap.dimm_sizes.len());
    let mut off = 0usize;
    for sz in &snap.dimm_sizes {
        dimms.push(snap.buf[off..off + *sz as usize].to_vec());
        off += *sz as usize;
    }
    // The factory runs on this I/O thread, which serves every other
    // connection too: a factory that panics on an image it cannot use
    // (say, the wrong DIMM count) fails this snapshot, not the thread.
    let built = panic::catch_unwind(AssertUnwindSafe(|| (ctl.factory)(shard as usize, dimms)));
    let store = match built {
        Ok(Ok(store)) => store,
        Ok(Err(e)) => return Response::Err(format!("snapshot rebuild failed: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("factory panicked");
            return Response::Err(format!("snapshot rebuild failed: {msg}"));
        }
    };
    let sh = &shared.shards[shard as usize];
    sh.wait_idle_and_quiesce();
    sh.replace_store(store);
    shared
        .obs
        .repl_snap_install_us
        .add(started.elapsed().as_micros() as u64);
    {
        let mut pg = fs.progress.lock();
        if snap.seq > pg.submitted {
            pg.submitted = snap.seq;
            // Any partially buffered round targeted `old submitted + 1`,
            // which the image now covers — drop it as stale.
            pg.frag = None;
        }
    }
    fs.applied.fetch_max(snap.seq, Ordering::AcqRel);
    fs.applied_gauge.set(snap.seq as i64);
    Response::Ok
}

fn promote(shared: &Arc<ServerShared>, epoch: u64, ctx: &ConnCtx) -> Response {
    if !ctx.admin {
        shared.obs.errors.inc();
        return Response::Err("promote requires an admin connection (send HELLO first)".into());
    }
    if !shared.is_follower.load(Ordering::Acquire) {
        // Already primary: idempotent — honor a *higher* requested epoch
        // as a floor, but never bump past it or count a failover, so
        // repeated promote probes don't inflate either.
        shared.epoch.fetch_max(epoch, Ordering::AcqRel);
        return Response::Ok;
    }
    // Fence the old primary's replication link *before* draining: any
    // round or snapshot frame it still has in flight is refused rather
    // than applied behind the new primary's back (split-brain guard).
    if let Some(ctl) = &shared.follower {
        ctl.repl_conn.store(REPL_CONN_FENCED, Ordering::Release);
    }
    // Drain every queued replicated round so the promoted state includes
    // everything the dead primary shipped, then flip the role.
    for shard in &shared.shards {
        shard.wait_idle_and_quiesce();
    }
    shared.is_follower.store(false, Ordering::Release);
    bump_epoch(shared, epoch);
    // The cache stayed cold in follower role; a primary wants it hot.
    if shared.cache.has_capacity() {
        shared.cache.set_enabled(true);
    }
    shared.obs.repl_failovers.inc();
    Response::Ok
}

fn bump_epoch(shared: &Arc<ServerShared>, requested: u64) {
    let mut cur = shared.epoch.load(Ordering::Acquire);
    loop {
        let next = requested.max(cur + 1);
        match shared
            .epoch
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

fn stats_document(shared: &Arc<ServerShared>) -> String {
    let mut shard_docs = std::collections::BTreeMap::new();
    for (i, shard) in shared.shards.iter().enumerate() {
        if let Some(json) = shard.store().snapshot_json() {
            if let Ok(doc) = Json::parse(&json) {
                shard_docs.insert(format!("shard{i}"), doc);
            }
        }
    }
    let merged =
        Json::parse(&merged_snapshot_json(shared)).expect("merged snapshot is well-formed JSON");
    let doc = Json::obj(vec![
        ("server", shared.obs.registry.export().to_json()),
        ("admission", admission_section(shared)),
        ("repl", repl_section(shared)),
        ("shards", Json::Obj(shard_docs)),
        ("merged", merged),
    ]);
    format!("{doc}")
}

/// The admission-control view: configured watermarks, live in-flight
/// levels, and the shed count, plus how connections are being served.
fn admission_section(shared: &Arc<ServerShared>) -> Json {
    let obs = &shared.obs;
    Json::obj(vec![
        ("io_threads", Json::UInt(shared.cfg.io_threads as u64)),
        ("max_requests", Json::UInt(shared.cfg.admit_max_requests)),
        ("max_bytes", Json::UInt(shared.cfg.admit_max_bytes)),
        (
            "inflight_requests",
            Json::UInt(obs.inflight_requests.get().max(0) as u64),
        ),
        (
            "inflight_bytes",
            Json::UInt(obs.inflight_bytes.get().max(0) as u64),
        ),
        ("sheds", Json::UInt(obs.sheds.get())),
        ("conns", Json::UInt(obs.conns.get().max(0) as u64)),
        ("accepts", Json::UInt(obs.accepts.get())),
        ("transport", Json::Str(shared.transport.name().to_string())),
    ])
}

/// The replication view of this server: role, routing epoch, and
/// per-shard round/lag watermarks (primary: enqueued vs follower-acked;
/// follower: applied).
fn repl_section(shared: &Arc<ServerShared>) -> Json {
    let role = if shared.is_follower.load(Ordering::Acquire) {
        "follower"
    } else if shared.repl.is_some() {
        "primary"
    } else if shared.follower.is_some() {
        "promoted"
    } else {
        "standalone"
    };
    let mut shards = std::collections::BTreeMap::new();
    let link_stats = shared.repl.as_ref().map(|r| r.link_stats());
    for (i, shard) in shared.shards.iter().enumerate() {
        let mut fields = vec![("round_seq", Json::UInt(shard.round_seq()))];
        if let Some(stats) = &link_stats {
            let (enqueued, acked, backlog, live) = stats[i];
            fields.push(("shipped_enqueued", Json::UInt(enqueued)));
            fields.push(("shipped_acked", Json::UInt(acked)));
            fields.push(("lag_rounds", Json::UInt(enqueued.saturating_sub(acked))));
            fields.push(("lag_bytes", Json::UInt(backlog)));
            fields.push(("live", Json::Bool(live)));
        }
        if let Some(ctl) = &shared.follower {
            fields.push((
                "applied_seq",
                Json::UInt(ctl.shards[i].applied.load(Ordering::Acquire)),
            ));
        }
        shards.insert(format!("shard{i}"), Json::obj(fields));
    }
    let mut fields = vec![
        ("role", Json::Str(role.into())),
        ("epoch", Json::UInt(shared.epoch.load(Ordering::Acquire))),
        ("shards", Json::Obj(shards)),
    ];
    if let Some(repl) = &shared.repl {
        let mode = match repl.mode() {
            ReplMode::Sync => "sync",
            ReplMode::Async => "async",
        };
        fields.push(("mode", Json::Str(mode.into())));
        fields.push(("link_down", Json::Bool(repl.is_down())));
    }
    Json::obj(fields)
}

fn merged_snapshot_json(shared: &Arc<ServerShared>) -> String {
    let export = shared.obs.registry.export();
    for shard in &shared.shards {
        let Some(json) = shard.store().snapshot_json() else {
            continue;
        };
        let Ok(mut snap) = Json::parse(&json).and_then(|j| StatsSnapshot::from_json(&j)) else {
            continue;
        };
        snap.system = format!("{}-server", snap.system);
        for (k, v) in &export.counters {
            snap.memory.counters.insert(k.clone(), *v);
        }
        for (k, v) in &export.gauges {
            snap.memory.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &export.histograms {
            snap.memory.histograms.insert(k.clone(), h.clone());
        }
        return snap.to_json_string();
    }
    // No instrumented shard: serve the server registry alone.
    let doc = Json::obj(vec![
        ("system", Json::Str("server".into())),
        ("server", export.to_json()),
    ]);
    format!("{doc}")
}
