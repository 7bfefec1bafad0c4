//! The follower role: the replication link's frames and promotion.
//!
//! A server started with [`crate::KvServer::start_follower`] refuses client
//! writes and accepts, on the one connection registered with `HELLO repl`,
//! the frames a primary ships (see [`crate::repl`]): `REPL_ROUND` (one
//! group-commit round, possibly in fragments) and the `SNAP_BEGIN` /
//! `SNAP_CHUNK` / `SNAP_END` bootstrap stream. Every one of those frames
//! passes one gate, [`guard`], before it touches any state. `PROMOTE` (from a
//! `HELLO admin` connection) fences the link, drains the queued rounds and
//! flips the server into a primary under a bumped routing epoch.

use crate::event_loop::EventConn;
use crate::obs::ServerObs;
use crate::protocol::{ReplWrite, Request, Response, HELLO_ADMIN, HELLO_REPL};
use crate::server::{ConnCtx, ServerShared};
use crate::shard::{Ack, Submission};
use cachekv_lsm::KvStore;
use cachekv_obs::Gauge;
use cachekv_storage::crc::crc32c;
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard ceiling on one shard's snapshot-bootstrap image (a corrupt
/// SNAP_BEGIN cannot make the follower allocate without bound).
const MAX_SNAP_IMAGE: u64 = 1 << 30;

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

/// `FollowerCtl::repl_conn` value meaning "no link registered". Connection
/// ids start at 1, so no connection holds it.
const REPL_CONN_NONE: u64 = 0;
/// `FollowerCtl::repl_conn` value meaning "fenced": promotion revoked the
/// old primary's link and no new link may register.
const REPL_CONN_FENCED: u64 = u64::MAX;

/// Follower-role apply state (one per follower server).
pub(crate) struct FollowerCtl {
    shards: Vec<FollowerShard>,
    factory: StoreFactory,
    /// Connection id of the one registered replication link
    /// (HELLO repl), or [`REPL_CONN_NONE`] / [`REPL_CONN_FENCED`].
    repl_conn: AtomicU64,
}

impl FollowerCtl {
    pub(crate) fn new(num_shards: usize, factory: StoreFactory, obs: &ServerObs) -> FollowerCtl {
        FollowerCtl {
            shards: (0..num_shards)
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
        }
    }

    /// Highest round seq fully applied on `shard`.
    pub(crate) fn applied_seq(&self, shard: usize) -> u64 {
        self.shards[shard].applied.load(Ordering::Acquire)
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

/// Serve one follower-role request: HELLO, PROMOTE, or a replication frame
/// (REPL_ROUND, SNAP_BEGIN, SNAP_CHUNK, SNAP_END). Dispatch routes exactly
/// these here.
pub(crate) fn handle(
    shared: &Arc<ServerShared>,
    id: u64,
    req: Request,
    reply: &Arc<EventConn>,
    ctx: &mut ConnCtx,
) {
    let resp = match req {
        Request::Hello { role } => hello(shared, role, ctx),
        Request::Promote { epoch } => promote(shared, epoch, ctx),
        Request::ReplRound {
            shard,
            seq,
            frag,
            last,
            writes,
        } => {
            let round = guard(shared, ctx.conn_id, shard).and_then(|(_, fs)| {
                Ok((fs, repl_round(shared, fs, shard, seq, frag, last, writes)?))
            });
            match round {
                Err(resp) => resp,
                // A duplicate, or a fragment buffered until its round's
                // last one arrives.
                Ok((_, None)) => Response::Ok,
                Ok((fs, Some(writes))) => {
                    // Replicated rounds bypass the admission budget:
                    // shedding one would gap the seq stream (the primary's
                    // backlog cap already bounds what can be in flight).
                    let accepted = shared.shards[shard as usize].submit(Submission {
                        ops: writes.into_iter().map(Into::into).collect(),
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
                    // Queued: the committer's `Ack::Repl` replies once the
                    // round is applied.
                    if accepted {
                        return;
                    }
                    Response::Err("server shutting down".into())
                }
            }
        }
        Request::SnapBegin {
            shard,
            seq,
            dimm_sizes,
            crc,
        } => match guard(shared, ctx.conn_id, shard) {
            Ok((_, fs)) => snap_begin(fs, seq, dimm_sizes, crc),
            Err(resp) => resp,
        },
        Request::SnapChunk {
            shard,
            offset,
            data,
        } => match guard(shared, ctx.conn_id, shard) {
            Ok((_, fs)) => snap_chunk(shared, fs, offset, &data),
            Err(resp) => resp,
        },
        Request::SnapEnd { shard, total_len } => match guard(shared, ctx.conn_id, shard) {
            Ok((ctl, fs)) => snap_end(shared, ctl, fs, shard, total_len),
            Err(resp) => resp,
        },
        other => unreachable!("not a follower-role request: {other:?}"),
    };
    reply.send(id, &resp);
}

/// The refusal a replication frame gets on a server not in follower role.
fn not_follower(shared: &ServerShared) -> Response {
    if shared.follower.is_none() {
        return Response::Err("replication not enabled on this server".into());
    }
    Response::Err(format!(
        "not follower (epoch {})",
        shared.epoch.load(Ordering::Acquire)
    ))
}

/// The one gate every replication frame passes, in this order:
/// 1. the server was started as a follower and still is one;
/// 2. the frame came on the connection registered with HELLO repl — a
///    stray client cannot discard an in-flight bootstrap, inject divergent
///    rounds or balloon snapshot buffers, and a fenced (post-promotion)
///    link is refused the same way;
/// 3. the shard exists — a primary naming a shard this follower lacks is
///    an invariant violation, counted in `server.repl.tripwire`.
fn guard(
    shared: &ServerShared,
    conn_id: u64,
    shard: u32,
) -> Result<(&FollowerCtl, &FollowerShard), Response> {
    let ctl = match &shared.follower {
        Some(ctl) if shared.is_follower.load(Ordering::Acquire) => ctl,
        _ => return Err(not_follower(shared)),
    };
    if ctl.repl_conn.load(Ordering::Acquire) != conn_id {
        shared.obs.errors.inc();
        return Err(Response::Err(
            "not the registered replication link (send HELLO first)".into(),
        ));
    }
    match ctl.shards.get(shard as usize) {
        Some(fs) => Ok((ctl, fs)),
        None => {
            shared.obs.repl_tripwire.inc();
            Err(Response::Err(format!("no such shard {shard}")))
        }
    }
}

/// HELLO: bind a role to this connection. `HELLO_REPL` claims the one
/// replication link a follower accepts REPL_*/SNAP_* frames from;
/// `HELLO_ADMIN` marks the connection as allowed to PROMOTE.
fn hello(shared: &ServerShared, role: u8, ctx: &mut ConnCtx) -> Response {
    match role {
        HELLO_ADMIN => {
            ctx.admin = true;
            Response::Ok
        }
        HELLO_REPL => {
            let ctl = match &shared.follower {
                Some(ctl) if shared.is_follower.load(Ordering::Acquire) => ctl,
                _ => return not_follower(shared),
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

/// Order and reassemble one REPL_ROUND fragment. `Ok(Some(writes))` is a
/// whole round ready to apply; `Ok(None)` a duplicate or a buffered
/// fragment (both ack `Ok` at once); `Err` a violation. Rounds apply at
/// exactly `submitted + 1`, duplicates (≤ submitted, from the
/// pre-bootstrap backlog) ack idempotently, and a gap is a tripwire.
fn repl_round(
    shared: &ServerShared,
    fs: &FollowerShard,
    shard: u32,
    seq: u64,
    frag: u32,
    last: bool,
    writes: Vec<ReplWrite>,
) -> Result<Option<Vec<ReplWrite>>, Response> {
    let mut pg = fs.progress.lock();
    if seq <= pg.submitted {
        // Pre-bootstrap backlog replay: the snapshot image already holds
        // this round.
        return Ok(None);
    }
    if seq != pg.submitted + 1 {
        shared.obs.repl_tripwire.inc();
        return Err(Response::Err(format!(
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
        return Err(Response::Err(format!(
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
        return Ok(None);
    }
    let writes = match pg.frag.take() {
        Some((_, mut buf)) => {
            buf.extend(writes);
            buf
        }
        None => writes,
    };
    pg.submitted = seq;
    Ok(Some(writes))
}

fn snap_begin(fs: &FollowerShard, seq: u64, dimm_sizes: Vec<u64>, crc: u32) -> Response {
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

fn snap_chunk(shared: &ServerShared, fs: &FollowerShard, offset: u64, data: &[u8]) -> Response {
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

fn snap_end(
    shared: &ServerShared,
    ctl: &FollowerCtl,
    fs: &FollowerShard,
    shard: u32,
    total_len: u64,
) -> Response {
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

fn promote(shared: &ServerShared, epoch: u64, ctx: &ConnCtx) -> Response {
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

fn bump_epoch(shared: &ServerShared, requested: u64) {
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
