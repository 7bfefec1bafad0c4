//! One shard: a submission queue in front of a [`KvStore`], drained by a
//! committer thread in group-commit rounds.
//!
//! Writes are acked only after their whole batch is applied. Under eADR the
//! engine's append publish (the sub-MemTable header CAS) *is* the
//! persistence event, so "batch fully applied" is the batch's commit point:
//! an ack observed before a power failure implies every write of that batch
//! reached the persistence domain. The crash harness
//! (`tests/server_crash.rs`) kills a shard mid-traffic and verifies exactly
//! that.
//!
//! The queue itself has no cap and [`Shard::submit`] never blocks (its
//! callers are event-loop I/O threads, each serving many connections).
//! What bounds it is upstream: client writes hold a permit of the
//! server-wide admission budget from dispatch until their ack, so at most
//! `admit_max_requests` ops are queued across all shards; replicated rounds
//! are bounded by the primary's backlog cap.

use crate::cache::{key_hash, HotCache};
use crate::event_loop::EventConn;
use crate::obs::ServerObs;
use crate::protocol::{BatchOp, BatchReply, ReplWrite, Response};
use crate::repl::{ReplMode, Replicator};
use crate::server::AdmitPermit;
use cachekv_lsm::KvStore;
use cachekv_obs::{Counter, Gauge, Histogram};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Accumulates a cross-shard BATCH: each shard's part fills its slots; the
/// last part to finish sends the combined response.
pub(crate) struct BatchAcc {
    id: u64,
    reply: Arc<EventConn>,
    slots: Mutex<Vec<Option<BatchReply>>>,
    remaining: AtomicUsize,
    started: Instant,
    obs: Arc<ServerObs>,
    /// Admission budget held for the whole batch (weight = op count),
    /// released when the last `Arc` ref drops — i.e. after every part's
    /// commit round has completed and the combined response is sent.
    _permit: Option<AdmitPermit>,
}

impl BatchAcc {
    pub(crate) fn new(
        id: u64,
        reply: Arc<EventConn>,
        total_ops: usize,
        parts: usize,
        obs: Arc<ServerObs>,
        permit: Option<AdmitPermit>,
    ) -> Arc<Self> {
        Arc::new(BatchAcc {
            id,
            reply,
            slots: Mutex::new(vec![None; total_ops]),
            remaining: AtomicUsize::new(parts),
            started: Instant::now(),
            obs,
            _permit: permit,
        })
    }

    /// Record one shard part's results (`slots[i]` ↔ `results[i]`) and send
    /// the response if this was the last outstanding part.
    fn complete_part(&self, slot_idx: &[usize], results: Vec<BatchReply>) {
        {
            let mut slots = self.slots.lock();
            for (i, r) in slot_idx.iter().zip(results) {
                slots[*i] = Some(r);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let replies: Vec<BatchReply> = self
                .slots
                .lock()
                .iter_mut()
                .map(|s| s.take().expect("every batch slot filled"))
                .collect();
            self.obs
                .batch_ns
                .record(self.started.elapsed().as_nanos() as u64);
            self.reply.send(self.id, &Response::Batch(replies));
        }
    }
}

/// How a completed submission reports back to its connection.
pub(crate) enum Ack {
    /// A single PUT/DELETE: reply `Ok`/`Err` after the commit round.
    Single {
        id: u64,
        reply: Arc<EventConn>,
        started: Instant,
        latency: Arc<Histogram>,
    },
    /// This shard's slice of a BATCH.
    BatchPart {
        acc: Arc<BatchAcc>,
        /// Position of each op in the client's original batch order.
        slots: Vec<usize>,
    },
    /// A replicated round applied on a follower: reply to the primary's
    /// REPL_ROUND frame and advance the applied watermark — the commit
    /// round that releases this ack *is* the follower's persistence event,
    /// so the primary's quorum rule holds transitively.
    Repl {
        id: u64,
        reply: Arc<EventConn>,
        /// The primary's round sequence number.
        seq: u64,
        /// The follower shard's applied watermark (shared with dispatch).
        applied: Arc<AtomicU64>,
        applied_gauge: Arc<Gauge>,
        rounds_applied: Arc<Counter>,
    },
}

/// One unit on the submission queue: the ops plus their ack route. Batch
/// gets ride the queue too, so a batch observes its own prior writes on
/// the same shard (top-level GETs never enter the queue).
pub(crate) struct Submission {
    pub(crate) ops: Vec<BatchOp>,
    pub(crate) ack: Ack,
    /// Admission budget held while this submission is in flight; released
    /// (by drop) after the commit round sends its ack. `None` for
    /// replicated rounds (shedding one would gap the stream) and for
    /// batch parts (the whole batch's permit lives in [`BatchAcc`]).
    pub(crate) permit: Option<AdmitPermit>,
}

struct ShardQueue {
    items: VecDeque<Submission>,
    /// Submissions accepted but not yet acked (queued or mid-commit).
    in_flight: usize,
}

struct ShardInner {
    index: usize,
    /// Swappable so a follower can install a bootstrap image
    /// ([`Shard::replace_store`]); read-clone on every access.
    store: RwLock<Arc<dyn KvStore>>,
    q: Mutex<ShardQueue>,
    not_empty: Condvar,
    idle: Condvar,
    commit_max: usize,
    stop: AtomicBool,
    obs: Arc<ServerObs>,
    cache: Arc<HotCache>,
    /// Monotonic group-commit round counter; `N` means rounds `1..=N`
    /// are fully applied. The committer bumps it under `write_gate`.
    round_seq: AtomicU64,
    /// Mirrors `round_seq` into the registry
    /// (`server.repl.round_seq.shard{i}`).
    seq_gauge: Arc<Gauge>,
    /// Held by the committer across a round's apply + seq assignment +
    /// replication enqueue; a snapshot capture takes it to get a
    /// round-boundary-consistent image without stopping the committer
    /// thread (see [`CaptureHandle::capture`]).
    write_gate: Mutex<()>,
    /// Primary-role round shipping (None on plain and follower servers).
    repl: Option<Arc<Replicator>>,
}

/// A store shard plus its committer thread. Dropping it stops the
/// committer after draining: everything already accepted is committed and
/// acked before the thread exits.
pub(crate) struct Shard {
    inner: Arc<ShardInner>,
    committer: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spawn the committer for `store`. `commit_max` caps submissions per
    /// group-commit round. `repl` hooks
    /// every committed round into primary-side replication.
    pub(crate) fn spawn(
        index: usize,
        store: Arc<dyn KvStore>,
        commit_max: usize,
        obs: Arc<ServerObs>,
        cache: Arc<HotCache>,
        repl: Option<Arc<Replicator>>,
    ) -> Shard {
        let seq_gauge = obs
            .registry
            .gauge(&format!("server.repl.round_seq.shard{index}"));
        let inner = Arc::new(ShardInner {
            index,
            store: RwLock::new(store),
            q: Mutex::new(ShardQueue {
                items: VecDeque::new(),
                in_flight: 0,
            }),
            not_empty: Condvar::new(),
            idle: Condvar::new(),
            commit_max: commit_max.max(1),
            stop: AtomicBool::new(false),
            obs,
            cache,
            round_seq: AtomicU64::new(0),
            seq_gauge,
            write_gate: Mutex::new(()),
            repl,
        });
        let committer = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("cachekv-shard-{index}"))
                .spawn(move || committer_loop(&inner))
                .expect("spawn shard committer")
        };
        Shard {
            inner,
            committer: Some(committer),
        }
    }

    /// Direct read access for the inline (non-queued) GET path.
    pub(crate) fn store(&self) -> Arc<dyn KvStore> {
        self.inner.store.read().clone()
    }

    /// Swap in a new store (follower bootstrap install). The caller must
    /// first drain the queue ([`Shard::wait_idle_and_quiesce`]) so no
    /// submission straddles the swap.
    pub(crate) fn replace_store(&self, store: Arc<dyn KvStore>) {
        *self.inner.store.write() = store;
    }

    /// The shard's committed round sequence number (rounds `1..=seq` are
    /// fully applied).
    pub(crate) fn round_seq(&self) -> u64 {
        self.inner.round_seq.load(Ordering::Acquire)
    }

    /// A cloneable handle the replication shipper uses to capture a
    /// round-boundary-consistent media image.
    pub(crate) fn capture_handle(&self) -> CaptureHandle {
        CaptureHandle {
            inner: self.inner.clone(),
        }
    }

    /// Enqueue a submission; never blocks (the admission budget bounds
    /// what reaches the queue). Returns `false` only if the shard is
    /// shutting down.
    pub(crate) fn submit(&self, sub: Submission) -> bool {
        let inner = &self.inner;
        let mut q = inner.q.lock();
        if inner.stop.load(Ordering::Acquire) {
            return false;
        }
        q.items.push_back(sub);
        q.in_flight += 1;
        inner.obs.queue_depth.inc();
        drop(q);
        inner.not_empty.notify_one();
        true
    }

    /// Block until every accepted submission has been committed and acked,
    /// then quiesce the store (flushes, compactions). The wire form is
    /// `PING(sync)`.
    pub(crate) fn wait_idle_and_quiesce(&self) {
        let inner = &self.inner;
        {
            let mut q = inner.q.lock();
            while q.in_flight > 0 {
                inner.idle.wait(&mut q);
            }
        }
        inner.store.read().clone().quiesce();
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.not_empty.notify_all();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

/// Captures a crash-consistent media image of a shard between commit
/// rounds, for replication snapshot bootstrap. Cloneable; safe to call
/// while the committer runs.
#[derive(Clone)]
pub(crate) struct CaptureHandle {
    inner: Arc<ShardInner>,
}

impl CaptureHandle {
    /// The shard index this handle captures.
    pub(crate) fn index(&self) -> usize {
        self.inner.index
    }

    /// Take the write gate (committers hold it only across a round's
    /// apply section, never across waits) and capture the store's media
    /// at the current round boundary. Returns `(round_seq, image)`: the
    /// image contains exactly rounds `1..=round_seq`. `None` if the store
    /// has no capturable device.
    pub(crate) fn capture(&self) -> Option<(u64, Vec<Vec<u8>>)> {
        let _gate = self.inner.write_gate.lock();
        let seq = self.inner.round_seq.load(Ordering::Acquire);
        let store = self.inner.store.read().clone();
        store.capture_image().map(|image| (seq, image))
    }
}

fn committer_loop(inner: &Arc<ShardInner>) {
    loop {
        let batch: Vec<Submission> = {
            let mut q = inner.q.lock();
            while q.items.is_empty() {
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                inner.not_empty.wait(&mut q);
            }
            inner.obs.queue_depth_hist.record(q.items.len() as u64);
            let n = q.items.len().min(inner.commit_max);
            let batch: Vec<Submission> = q.items.drain(..n).collect();
            inner.obs.queue_depth.add(-(n as i64));
            batch
        };
        commit_round(inner, batch);
    }
}

/// Apply one op to `store`; an engine error becomes that op's reply.
fn apply(store: &dyn KvStore, op: &BatchOp, obs: &ServerObs) -> BatchReply {
    let res = match op {
        BatchOp::Put { key, value } => store.put(key, value).map(|()| BatchReply::Ok),
        BatchOp::Delete { key } => store.delete(key).map(|()| BatchReply::Ok),
        BatchOp::Get { key } => store
            .get(key)
            .map(|v| v.map_or(BatchReply::NotFound, BatchReply::Value)),
    };
    res.unwrap_or_else(|e| {
        obs.errors.inc();
        BatchReply::Err(e.to_string())
    })
}

/// Apply one batch of submissions, then ack them all: the group commit.
fn commit_round(inner: &Arc<ShardInner>, batch: Vec<Submission>) {
    let _ctx = cachekv_pmem::fault_context("server::group_commit");
    let store = inner.store.read().clone();
    let obs = &inner.obs;
    // Publish the round's write-key bloom and move the shard's cache epoch
    // to "round in progress" BEFORE any write applies: a GET racing the
    // apply window then refuses cached entries for these keys rather than
    // risk serving a value the engine has already superseded.
    let write_hashes: Vec<u64> = batch
        .iter()
        .flat_map(|sub| &sub.ops)
        .filter(|op| !matches!(op, BatchOp::Get { .. }))
        .map(|op| key_hash(op.key()))
        .collect();
    let round = inner.cache.round_begin(inner.index, &write_hashes);
    // The write gate spans apply + round-seq assignment + replication
    // enqueue: a snapshot capture taking the gate sees a state that is
    // exactly "every round up to `round_seq`, nothing more". It is
    // released before any wait below, so sync-mode replication stalls
    // never block a capture.
    let gate = inner.write_gate.lock();
    let results: Vec<Vec<BatchReply>> = batch
        .iter()
        .map(|sub| sub.ops.iter().map(|op| apply(&*store, op, obs)).collect())
        .collect();
    // The round's applied write-set (`None` value = delete), the one
    // source both replication and cache publication read. Failed writes
    // are left out: they never ship, and their cached entries fail
    // round-log revalidation instead (conservative miss).
    let applied: Vec<(&[u8], Option<&[u8]>)> = batch
        .iter()
        .zip(&results)
        .flat_map(|(sub, rs)| sub.ops.iter().zip(rs))
        .filter_map(|(op, r)| match (op, r) {
            (BatchOp::Put { key, value }, BatchReply::Ok) => Some((&key[..], Some(&value[..]))),
            (BatchOp::Delete { key }, BatchReply::Ok) => Some((&key[..], None)),
            _ => None,
        })
        .collect();
    // The round is applied: assign its sequence number and hand the
    // write-set to the replicator (still under the gate, so a capture at
    // seq S provably contains every enqueued round <= S).
    let seq = inner.round_seq.fetch_add(1, Ordering::AcqRel) + 1;
    inner.seq_gauge.set(seq as i64);
    if let Some(repl) = &inner.repl {
        let writes = applied
            .iter()
            .map(|&(key, value)| match value {
                Some(value) => ReplWrite::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                },
                None => ReplWrite::Delete { key: key.to_vec() },
            })
            .collect();
        // Empty rounds ship too: the follower's gap check needs the seq
        // stream contiguous.
        repl.enqueue_round(inner.index, seq, writes);
    }
    drop(gate);
    // Round publication: push the applied values into (or delete them
    // from) every cache replica and return the epoch to quiescent. This
    // must complete before any ack below — that is what makes an acked
    // write unshadowable by a stale cached value.
    if let Some(token) = round {
        inner.cache.round_publish(token, &applied);
    }
    // It borrows `batch`, which the acks below consume.
    drop(applied);
    // Quorum gate: in sync mode the ack additionally waits for the
    // follower to apply this round. A degraded return (link down) falls
    // back to local-only acks — counted, never silent.
    if let Some(repl) = &inner.repl {
        if repl.mode() == ReplMode::Sync {
            repl.wait_round_acked(inner.index, seq);
        }
    }
    // Commit point: every write of the round is applied (durable under
    // eADR) — and, in sync mode, applied on the follower. Only now are
    // acks released.
    obs.group_commits.inc();
    obs.batch_size
        .record(batch.iter().map(|sub| sub.ops.len() as u64).sum());
    let acked = batch.len();
    for (sub, rs) in batch.into_iter().zip(results) {
        match sub.ack {
            Ack::Single {
                id,
                reply,
                started,
                latency,
            } => {
                latency.record(started.elapsed().as_nanos() as u64);
                let resp = match rs.into_iter().next() {
                    Some(BatchReply::Err(e)) => Response::Err(e),
                    _ => Response::Ok,
                };
                reply.send(id, &resp);
            }
            Ack::BatchPart { acc, slots } => acc.complete_part(&slots, rs),
            Ack::Repl {
                id,
                reply,
                seq: primary_seq,
                applied,
                applied_gauge,
                rounds_applied,
            } => {
                let err = rs.into_iter().find_map(|r| match r {
                    BatchReply::Err(e) => Some(e),
                    _ => None,
                });
                match err {
                    None => {
                        applied.fetch_max(primary_seq, Ordering::AcqRel);
                        applied_gauge.set(primary_seq as i64);
                        rounds_applied.inc();
                        reply.send(id, &Response::Ok);
                    }
                    // A failed apply leaves the watermark put: the
                    // primary sees the Err ack and declares the link
                    // dead rather than ship past a divergence.
                    Some(e) => reply.send(id, &Response::Err(e)),
                }
            }
        }
        // Acked: the write's admission budget is free again.
        drop(sub.permit);
    }
    let mut q = inner.q.lock();
    q.in_flight -= acked;
    if q.in_flight == 0 {
        inner.idle.notify_all();
    }
}
