//! Round-shipping replication: a primary streams every committed
//! group-commit round to one follower over a second [`crate::Transport`]
//! connection.
//!
//! The group-commit round is the replication unit. Each shard committer
//! assigns a monotonically increasing round sequence number and hands the
//! round's successful write-set to the [`Replicator`], which serializes it
//! as a `REPL_ROUND` frame and ships rounds strictly in order. The follower
//! applies each round through its own group-commit path (so under eADR,
//! "applied" ⇒ "persisted" on the follower too) and acks with the round's
//! seq.
//!
//! **Quorum ack rule.** In [`ReplMode::Sync`] a client ack releases only
//! once the round is (a) applied on the primary — the existing commit
//! point — *and* (b) applied on the follower. A write acked to a client
//! therefore survives a primary crash on the promoted follower; that is
//! the invariant `tests/repl_failover.rs` sweeps crash points against.
//! [`ReplMode::Async`] ships the same log but releases acks at the local
//! commit point, trading the durability guarantee for latency (the A/B
//! the bench measures).
//!
//! **Bootstrap.** A fresh follower first receives a crash-consistent shard
//! image (`SNAP_BEGIN` / `SNAP_CHUNK` / `SNAP_END`): the shipper briefly
//! takes the shard's write gate between rounds, captures the media via
//! [`cachekv_lsm::KvStore::capture_image`] at round `S`, then streams the
//! bytes while the committer keeps committing. The image is one buffer per
//! DIMM, each only as long as the DIMM's last non-zero XPLine, so the
//! stream carries what the shard has written rather than the device's
//! capacity; `SNAP_BEGIN` names those per-DIMM lengths and the CRC-32C of
//! their concatenation (computed across the buffers with
//! [`crc32c_append`]), and the chunks are cut from the buffers in place.
//! The follower verifies length and CRC at `SNAP_END` before it rebuilds
//! and installs anything. Rounds enqueued before the capture (seq ≤ S) are
//! acked idempotently by the follower — its applied watermark is already
//! `S` — so the live tail-follow needs no handoff protocol. The phases are
//! timed in `server.repl.snap_capture_us` and `server.repl.snap_stream_us`
//! here, and `server.repl.snap_install_us` on the follower.
//!
//! **Link death.** If a ship or ack fails, the link is marked down, every
//! sync waiter is released (degraded local-only acks, counted in
//! `server.repl.link_failures`), and the shipper exits. Replication does
//! not resurrect a dead link; operators restart the pair.

use crate::client::KvClient;
use crate::obs::ServerObs;
use crate::protocol::{ReplWrite, Request, Response, HELLO_REPL, MAX_FRAME};
use crate::shard::CaptureHandle;
use cachekv_storage::crc::crc32c_append;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// When the primary releases a write ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMode {
    /// Quorum: primary persisted + follower applied.
    Sync,
    /// Local commit point only; the round log still ships in order.
    Async,
}

/// Snapshot chunk size on the wire (well under `MAX_FRAME`); a DIMM's
/// last chunk may be shorter.
const SNAP_CHUNK: usize = 1 << 20;

/// Serialized write-set budget per `REPL_ROUND` fragment, well under
/// `MAX_FRAME`. A round whose write-set overflows the budget ships as
/// several fragments sharing one seq; a single write larger than the
/// budget rides a fragment alone (it still frames — dispatch caps one
/// write at `MAX_KV_BYTES`, which leaves room for the fragment header).
const REPL_FRAG_BYTES: usize = 4 << 20;

/// Serialized wire size of one write inside a `REPL_ROUND` body
/// (tag byte + length prefixes + bytes).
fn write_wire_bytes(w: &ReplWrite) -> usize {
    match w {
        ReplWrite::Put { key, value } => 9 + key.len() + value.len(),
        ReplWrite::Delete { key } => 5 + key.len(),
    }
}

/// Greedily split a round's write-set into fragments whose serialized
/// size stays within [`REPL_FRAG_BYTES`] (always at least one fragment,
/// so empty rounds still ship and keep the seq stream contiguous).
fn split_fragments(writes: Vec<ReplWrite>) -> Vec<Vec<ReplWrite>> {
    let mut frags: Vec<Vec<ReplWrite>> = vec![Vec::new()];
    let mut bytes = 0usize;
    for w in writes {
        let sz = write_wire_bytes(&w);
        if bytes + sz > REPL_FRAG_BYTES && !frags.last().unwrap().is_empty() {
            frags.push(Vec::new());
            bytes = 0;
        }
        frags.last_mut().unwrap().push(w);
        bytes += sz;
    }
    debug_assert!(frags.iter().all(|f| {
        let body: usize = f.iter().map(write_wire_bytes).sum();
        // Fragment header (id, opcode, shard, seq, frag, last, count) is
        // 30 bytes; MAX_KV_BYTES guarantees the slack for a lone write.
        body + 30 <= MAX_FRAME
    }));
    frags
}

struct Link {
    /// Rounds committed locally but not yet acked by the follower, in seq
    /// order: `(seq, writes, approx_bytes)`.
    outbound: VecDeque<(u64, Vec<ReplWrite>, u64)>,
    /// Highest seq enqueued.
    enqueued: u64,
    /// Highest seq the follower has applied (or is known to hold via the
    /// bootstrap image).
    acked: u64,
    /// Bytes sitting in `outbound`.
    backlog_bytes: u64,
    /// Bootstrap finished; the live tail-follow covers this shard.
    live: bool,
}

struct ReplState {
    links: Vec<Link>,
    stop: bool,
    down: bool,
}

/// Primary-side replication engine: per-shard round queues plus the
/// shipper thread that drains them to the follower connection.
pub struct Replicator {
    mode: ReplMode,
    client: KvClient,
    /// Per-link outbound byte cap: when a link's `backlog_bytes` crosses
    /// it (a connected-but-stalled follower in async mode), the link is
    /// declared down and the backlog dropped — bounded memory, via the
    /// same degraded-ack path a dead link takes.
    max_backlog: u64,
    state: Mutex<ReplState>,
    /// Wakes the shipper when a round is enqueued (or on stop).
    work: Condvar,
    /// Wakes sync-mode committers when `acked` advances (or on link death).
    acked_cv: Condvar,
    obs: Arc<ServerObs>,
    shipper: Mutex<Option<JoinHandle<()>>>,
}

impl Replicator {
    /// Build a replicator over an established follower connection. Call
    /// [`Replicator::start`] once the shards exist.
    pub(crate) fn new(
        client: KvClient,
        mode: ReplMode,
        num_shards: usize,
        max_backlog: u64,
        obs: Arc<ServerObs>,
    ) -> Arc<Self> {
        let links = (0..num_shards)
            .map(|_| Link {
                outbound: VecDeque::new(),
                enqueued: 0,
                acked: 0,
                backlog_bytes: 0,
                live: false,
            })
            .collect();
        Arc::new(Replicator {
            mode,
            client,
            max_backlog: max_backlog.max(1),
            state: Mutex::new(ReplState {
                links,
                stop: false,
                down: false,
            }),
            work: Condvar::new(),
            acked_cv: Condvar::new(),
            obs,
            shipper: Mutex::new(None),
        })
    }

    /// The configured ship mode.
    pub(crate) fn mode(&self) -> ReplMode {
        self.mode
    }

    /// Spawn the shipper: bootstrap every shard via snapshot stream, then
    /// tail-follow the round queues.
    pub(crate) fn start(self: &Arc<Self>, handles: Vec<CaptureHandle>) {
        let repl = self.clone();
        let h = std::thread::Builder::new()
            .name("cachekv-repl-ship".into())
            .spawn(move || shipper_loop(&repl, &handles))
            .expect("spawn replication shipper");
        *self.shipper.lock() = Some(h);
    }

    /// Called by a shard committer after round `seq` is applied locally.
    /// Never blocks beyond the state lock.
    pub(crate) fn enqueue_round(&self, shard: usize, seq: u64, writes: Vec<ReplWrite>) {
        let bytes = writes.iter().map(write_wire_bytes).sum::<usize>() as u64 + 16;
        let mut st = self.state.lock();
        if st.stop || st.down {
            return;
        }
        let link = &mut st.links[shard];
        debug_assert!(seq > link.enqueued, "round seqs enqueue in order");
        link.outbound.push_back((seq, writes, bytes));
        link.enqueued = seq;
        link.backlog_bytes += bytes;
        if link.backlog_bytes > self.max_backlog {
            // A connected-but-stalled follower: the queue would otherwise
            // grow without bound (async mode never blocks the committer on
            // acks). Declare the link down and drop the backlog — the
            // degraded local-only ack path, same as a dead link.
            drop(st);
            self.mark_down();
            return;
        }
        self.publish_lag(&st);
        drop(st);
        self.work.notify_one();
    }

    /// Sync-mode gate: block until the follower applied round `seq` for
    /// `shard` (returns `true` — a quorum ack), or the link is down /
    /// shutting down (returns `false` — degraded local-only ack).
    pub(crate) fn wait_round_acked(&self, shard: usize, seq: u64) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.stop || st.down {
                return false;
            }
            if st.links[shard].live && st.links[shard].acked >= seq {
                self.obs.repl_quorum_acks.inc();
                return true;
            }
            self.acked_cv.wait(&mut st);
        }
    }

    /// Whether the link has been declared dead.
    pub fn is_down(&self) -> bool {
        self.state.lock().down
    }

    /// Per-shard `(enqueued, acked, backlog_bytes, live)` for stats.
    pub fn link_stats(&self) -> Vec<(u64, u64, u64, bool)> {
        self.state
            .lock()
            .links
            .iter()
            .map(|l| (l.enqueued, l.acked, l.backlog_bytes, l.live))
            .collect()
    }

    /// Stop the shipper and release every waiter. Safe to call twice.
    pub(crate) fn shutdown(&self) {
        {
            let mut st = self.state.lock();
            st.stop = true;
        }
        self.work.notify_all();
        self.acked_cv.notify_all();
        // The shipper may be wedged mid-`ship` on a dead or stalled
        // follower: sever the link so its `wait` fails and it observes
        // `stop`, otherwise the join below never returns.
        self.client.sever();
        if let Some(h) = self.shipper.lock().take() {
            let _ = h.join();
        }
    }

    fn publish_lag(&self, st: &ReplState) {
        let rounds: u64 = st.links.iter().map(|l| l.enqueued - l.acked).sum();
        let bytes: u64 = st.links.iter().map(|l| l.backlog_bytes).sum();
        self.obs.repl_lag_rounds.set(rounds as i64);
        self.obs.repl_lag_bytes.set(bytes as i64);
    }

    /// Declare the link down (a failed ship or ack, or a backlog over its
    /// cap) and release every waiter.
    fn mark_down(&self) {
        {
            let mut st = self.state.lock();
            // During shutdown the severed link makes the final ship fail
            // by design — that is not a link failure.
            if !st.down && !st.stop {
                st.down = true;
                // Nothing queued will ever ship: free the backlog and
                // zero the lag gauges rather than report phantom lag.
                for l in &mut st.links {
                    l.outbound.clear();
                    l.backlog_bytes = 0;
                }
                self.obs.repl_link_failures.inc();
                self.obs.repl_lag_rounds.set(0);
                self.obs.repl_lag_bytes.set(0);
            }
        }
        self.acked_cv.notify_all();
        self.work.notify_all();
    }
}

/// Submit `req` on the follower link and wait for its reply. `Ok(())`
/// only on `Response::Ok`; anything else is a link failure.
fn ship(client: &KvClient, req: &Request) -> Result<(), ()> {
    match client.submit(req).and_then(|p| p.wait()) {
        Ok(Response::Ok) => Ok(()),
        _ => Err(()),
    }
}

fn micros_since(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

/// Stream one shard's captured image: `SNAP_BEGIN` (per-DIMM lengths and
/// the CRC of the whole image), each DIMM's bytes as `SNAP_CHUNK`s at
/// consecutive offsets, then `SNAP_END`. The follower rebuilds and
/// installs before it answers `SNAP_END`, so `snap_stream_us` stops at
/// the last chunk's ack and the install is timed on the follower.
fn ship_image(repl: &Replicator, shard: u32, seq: u64, dimms: &[Vec<u8>]) -> Result<(), ()> {
    let started = Instant::now();
    let begin = Request::SnapBegin {
        shard,
        seq,
        dimm_sizes: dimms.iter().map(|d| d.len() as u64).collect(),
        crc: dimms.iter().fold(0, |crc, d| crc32c_append(crc, d)),
    };
    ship(&repl.client, &begin)?;
    let mut offset = 0u64;
    for chunk in dimms.iter().flat_map(|d| d.chunks(SNAP_CHUNK)) {
        let data = chunk.to_vec();
        ship(
            &repl.client,
            &Request::SnapChunk {
                shard,
                offset,
                data,
            },
        )?;
        repl.obs.repl_snapshot_bytes.add(chunk.len() as u64);
        offset += chunk.len() as u64;
    }
    repl.obs.repl_snap_stream_us.add(micros_since(started));
    let total_len = offset;
    ship(&repl.client, &Request::SnapEnd { shard, total_len })
}

fn shipper_loop(repl: &Arc<Replicator>, handles: &[CaptureHandle]) {
    // Phase 0: register this connection as the follower's replication
    // link — the follower refuses REPL_*/SNAP_* frames from any other
    // connection.
    if ship(&repl.client, &Request::Hello { role: HELLO_REPL }).is_err() {
        repl.mark_down();
        return;
    }

    // Phase 1: bootstrap every shard. The capture takes the shard's write
    // gate only for the quiesce + media clone; streaming happens here,
    // concurrent with further commits (which queue behind the capture seq
    // and get acked idempotently by the follower).
    for handle in handles {
        let shard = handle.index();
        let started = Instant::now();
        let Some((seq, dimms)) = handle.capture() else {
            // The store cannot produce a crash-consistent image; the
            // follower can never be made consistent.
            repl.mark_down();
            return;
        };
        repl.obs.repl_snap_capture_us.add(micros_since(started));
        if ship_image(repl, shard as u32, seq, &dimms).is_err() {
            repl.mark_down();
            return;
        }
        // The follower now holds everything up to `seq`: mark the link
        // live and release any sync waiter at or below the capture point.
        {
            let mut st = repl.state.lock();
            let link = &mut st.links[shard];
            link.live = true;
            link.acked = link.acked.max(seq);
            repl.publish_lag(&st);
        }
        repl.acked_cv.notify_all();
    }

    // Phase 2: live tail-follow — pop rounds in order, ship, ack.
    loop {
        let (shard, seq, writes, bytes) = {
            let mut st = repl.state.lock();
            loop {
                if st.stop || st.down {
                    return;
                }
                if let Some(shard) = st.links.iter().position(|l| !l.outbound.is_empty()) {
                    let (seq, writes, bytes) = st.links[shard].outbound.pop_front().unwrap();
                    break (shard, seq, writes, bytes);
                }
                repl.work.wait(&mut st);
            }
        };
        // Ship the round as one or more fragments sharing its seq; the
        // follower applies only once the `last` fragment arrives, so the
        // final ack here still means "round applied".
        let frags = split_fragments(writes);
        let n = frags.len();
        for (i, frag_writes) in frags.into_iter().enumerate() {
            let ok = ship(
                &repl.client,
                &Request::ReplRound {
                    shard: shard as u32,
                    seq,
                    frag: i as u32,
                    last: i + 1 == n,
                    writes: frag_writes,
                },
            );
            if ok.is_err() {
                repl.mark_down();
                return;
            }
        }
        repl.obs.repl_rounds_shipped.inc();
        {
            let mut st = repl.state.lock();
            let link = &mut st.links[shard];
            link.acked = link.acked.max(seq);
            link.backlog_bytes = link.backlog_bytes.saturating_sub(bytes);
            repl.publish_lag(&st);
        }
        repl.acked_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(bytes: usize) -> ReplWrite {
        ReplWrite::Put {
            key: vec![b'k'; 8],
            value: vec![b'v'; bytes - 8],
        }
    }

    #[test]
    fn empty_round_ships_one_empty_fragment() {
        let frags = split_fragments(Vec::new());
        assert_eq!(frags.len(), 1);
        assert!(frags[0].is_empty());
    }

    #[test]
    fn small_round_stays_whole() {
        let frags = split_fragments(vec![put(100), put(200), put(300)]);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].len(), 3);
    }

    #[test]
    fn oversized_round_splits_preserving_order() {
        // 6 writes of ~1MiB against a 4MiB budget: 4 + 2.
        let writes: Vec<ReplWrite> = (0..6).map(|_| put(1 << 20)).collect();
        let frags = split_fragments(writes);
        assert!(frags.len() >= 2, "round should fragment");
        let total: usize = frags.iter().map(|f| f.len()).sum();
        assert_eq!(total, 6, "no write lost or duplicated");
        for f in &frags {
            let body: usize = f.iter().map(write_wire_bytes).sum();
            assert!(body <= REPL_FRAG_BYTES, "fragment over budget: {body}");
        }
    }

    #[test]
    fn lone_maximum_write_rides_alone_within_frame() {
        // The largest write dispatch admits: key + value == MAX_KV_BYTES.
        let w = ReplWrite::Put {
            key: vec![b'k'; 8],
            value: vec![b'v'; crate::protocol::MAX_KV_BYTES - 8],
        };
        let frags = split_fragments(vec![put(1000), w, put(1000)]);
        let total: usize = frags.iter().map(|f| f.len()).sum();
        assert_eq!(total, 3);
        for f in &frags {
            let body: usize = f.iter().map(write_wire_bytes).sum();
            assert!(body + 30 <= MAX_FRAME, "fragment would overflow frame");
        }
    }
}
