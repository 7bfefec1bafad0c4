//! The sharded, pipelined service front-end: configuration, the server
//! lifecycle, the admission budget and request dispatch. The follower role
//! lives in `follower` and the STATS document in `stats`.
//!
//! [`KvServer`] owns an accept thread, the event-loop I/O threads (see
//! `event_loop` for the connection diagram and the backpressure model) and
//! one committer thread per shard. Every accepted connection — TCP or
//! loopback — is handed to an I/O thread, which decodes frames and calls
//! `dispatch`: reads are served inline, writes are admitted against the
//! server-wide budget (or shed with `Busy`), hash-routed to a shard queue and
//! acked only after their group-commit round is fully applied. Shutdown
//! stops accepting, stops the I/O threads (closing every connection), then
//! drains every shard queue before returning.

use crate::cache::{HotCache, HotCacheConfig};
use crate::client::KvClient;
use crate::event_loop::{EventConn, EventLoops};
use crate::follower::{self, FollowerCtl, StoreFactory};
use crate::obs::ServerObs;
use crate::protocol::{BatchOp, Request, Response, MAX_KV_BYTES};
use crate::repl::{ReplMode, Replicator};
use crate::shard::{Ack, BatchAcc, Shard, Submission};
use crate::stats::{merged_snapshot_json, stats_document};
use crate::transport::{Connection, Transport};
use cachekv_lsm::KvStore;
use cachekv_obs::{Counter, Gauge, Histogram};
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
pub(crate) const MAX_SCAN_BYTES: usize = 4 << 20;

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
/// shard `Submission` or a `BatchAcc` and released once the commit round
/// has sent the ack.
pub(crate) struct AdmitPermit {
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
    /// follower's "no link" / "fenced" sentinels).
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
        let ctl = FollowerCtl::new(stores.len(), factory, &obs);
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

    /// The STATS wire document: `server.*` metrics, each shard's full
    /// [`cachekv_obs::StatsSnapshot`], and a merged snapshot (shard 0's layers with the
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

pub(crate) fn dispatch(
    shared: &Arc<ServerShared>,
    id: u64,
    req: Request,
    reply: &Arc<EventConn>,
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
            submit_write(shared, id, BatchOp::Put { key, value }, &obs.put_ns, reply);
        }
        Request::Delete { key } => {
            obs.deletes.inc();
            submit_write(shared, id, BatchOp::Delete { key }, &obs.delete_ns, reply);
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
            let mut parts: Vec<(Vec<usize>, Vec<BatchOp>)> = vec![Default::default(); n];
            for (pos, op) in ops.into_iter().enumerate() {
                let s = shard_for_key(op.key(), n);
                parts[s].0.push(pos);
                parts[s].1.push(op);
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
        req @ (Request::Hello { .. }
        | Request::ReplRound { .. }
        | Request::SnapBegin { .. }
        | Request::SnapChunk { .. }
        | Request::SnapEnd { .. }
        | Request::Promote { .. }) => follower::handle(shared, id, req, reply, ctx),
    }
}

/// PUT and DELETE: admit one write and queue it on its shard; the
/// committer acks it once its group-commit round is applied.
fn submit_write(
    shared: &ServerShared,
    id: u64,
    op: BatchOp,
    latency: &Arc<Histogram>,
    reply: &Arc<EventConn>,
) {
    if shared.is_follower.load(Ordering::Acquire) {
        reply.send(id, &not_primary(shared));
        return;
    }
    if op.kv_bytes() > MAX_KV_BYTES {
        shared.obs.errors.inc();
        reply.send(id, &kv_too_large(op.kv_bytes()));
        return;
    }
    let Some(permit) = shared.admit.try_acquire(1) else {
        reply.send(id, &Response::Busy);
        return;
    };
    let shard = &shared.shards[shard_for_key(op.key(), shared.shards.len())];
    let accepted = shard.submit(Submission {
        ops: vec![op],
        ack: Ack::Single {
            id,
            reply: reply.clone(),
            started: Instant::now(),
            latency: latency.clone(),
        },
        permit: Some(permit),
    });
    if !accepted {
        reply.send(id, &Response::Err("server shutting down".into()));
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

/// The follower-role write refusal: names the current epoch, and its
/// `not primary` prefix is what makes a [`crate::KvClient`] built with
/// [`crate::KvClient::dial`] fail over to the next endpoint and resend.
fn not_primary(shared: &ServerShared) -> Response {
    Response::Err(format!(
        "not primary (epoch {})",
        shared.epoch.load(Ordering::Acquire)
    ))
}
