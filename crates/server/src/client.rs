//! Pipelined client for the CacheKV wire protocol.
//!
//! [`KvClient`] is the one client type. Requests carry client-chosen ids;
//! a demux thread per connection matches responses (in any order) back
//! to waiters, so many threads can share a client and keep many requests
//! in flight — which is what lets the server fold them into one group
//! commit round.
//!
//! [`KvClient::connect`] wraps one fixed connection; [`KvClient::dial`]
//! takes an endpoint list (a primary/follower pair, or one redialable
//! address) and fails over along it. Every typed op runs through one
//! bounded retry loop (six attempts, exponential backoff) whose rule
//! follows from the op and from which step failed:
//!
//! | Outcome | Read (GET, SCAN, STATS, PING) | Write (PUT, DELETE, BATCH, PROMOTE) |
//! |---|---|---|
//! | `Busy` (shed before queueing) | back off, resend | back off, resend |
//! | `not primary` refusal | next endpoint, resend | next endpoint, resend |
//! | `submit` fails: the frame was never sent | redial, resend | redial, resend |
//! | [`Pending::wait`] fails: sent, no reply | redial, resend | `Disconnected`; the next call redials |
//!
//! An unanswered write may have been applied, so it is never resent. A
//! fixed connection has nothing to redial: its redial cells return
//! `Disconnected` at once, and a `not primary` refusal is returned as is.
//! [`KvClient::submit`] is the raw primitive: one frame, never retried.
//!
//! [`RemoteStore`] adapts a client to the [`KvStore`] trait so the
//! workload drivers (YCSB, db_bench-style loops) can run unchanged against
//! a server instead of an in-process engine.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, BatchOp, BatchReply, Request,
    Response, HELLO_ADMIN,
};
use crate::transport::{Connection, Socket};
use cachekv_lsm::KvStore;
use cachekv_obs::Json;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The connection is gone (EOF, corrupt frame, or server shutdown).
    Disconnected,
    /// The server shed this request at admission (over-watermark load).
    /// Nothing was queued or applied — safe to retry after backoff, even
    /// for writes.
    Busy,
    /// The server answered with an error status.
    Remote(String),
    /// The server answered with a status that makes no sense for the
    /// request (protocol bug).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "connection closed"),
            ClientError::Busy => write!(f, "server busy (load shed, retryable)"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Key/value pairs in key order, as a SCAN returns them.
pub(crate) type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// One SCAN page: the returned pairs plus the `more` continuation flag.
pub(crate) type ScanPage = (KvPairs, bool);

/// Dials one endpoint of a [`KvClient::dial`] endpoint list; `None` when
/// the endpoint does not answer.
pub type Connector = Box<dyn Fn() -> Option<Connection> + Send + Sync>;

/// Attempts per typed op: the first send plus up to five resends.
const ATTEMPTS: u32 = 6;

/// Backoff before retry attempt `n` (0-based): 1ms doubling, capped.
fn backoff(n: u32) -> Duration {
    Duration::from_millis((1u64 << n.min(7)).min(100))
}

struct ClientInner {
    /// Read by the demux thread, written by submitters (one frame at a
    /// time, under `write_gate`), shut down by `sever` or on drop.
    socket: Socket,
    write_gate: Mutex<()>,
    pending: Mutex<HashMap<u64, Sender<Response>>>,
    next_id: AtomicU64,
    closed: AtomicBool,
}

/// One connection plus the demux thread that routes its replies. Dropping
/// the last handle shuts the socket and joins the thread.
struct Conn {
    inner: Arc<ClientInner>,
    demux: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(conn: Connection) -> Arc<Conn> {
        let inner = Arc::new(ClientInner {
            socket: conn.socket,
            write_gate: Mutex::new(()),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        });
        let shared = inner.clone();
        let demux = std::thread::Builder::new()
            .name("cachekv-client-demux".into())
            .spawn(move || {
                while let Ok(Some(payload)) = read_frame(&mut &shared.socket) {
                    let Ok((id, resp)) = decode_response(&payload) else {
                        break;
                    };
                    if let Some(tx) = shared.pending.lock().remove(&id) {
                        let _ = tx.send(resp);
                    }
                }
                shared.closed.store(true, Ordering::Release);
                // Dropping the one-shot senders wakes every waiter with
                // Disconnected.
                shared.pending.lock().clear();
            })
            .expect("spawn client demux");
        Arc::new(Conn {
            inner,
            demux: Some(demux),
        })
    }

    /// Send one frame. `Err` means the frame was never (fully) sent, so
    /// the server cannot have applied it.
    fn submit(&self, req: &Request) -> Result<Pending, ClientError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(ClientError::Disconnected);
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (otx, orx) = unbounded();
        self.inner.pending.lock().insert(id, otx);
        let payload = encode_request(id, req);
        let gate = self.inner.write_gate.lock();
        let sent = write_frame(&mut &self.inner.socket, &payload);
        drop(gate);
        if sent.is_err() {
            self.inner.pending.lock().remove(&id);
            return Err(ClientError::Disconnected);
        }
        Ok(Pending { rx: orx })
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.inner.socket.shutdown();
        if let Some(h) = self.demux.take() {
            let _ = h.join();
        }
    }
}

/// A response not yet waited on — the handle that makes pipelining
/// explicit: issue several requests, then [`Pending::wait`] for each.
pub struct Pending {
    rx: Receiver<Response>,
}

impl Pending {
    /// Block until the response for this request arrives.
    pub fn wait(self) -> Result<Response, ClientError> {
        self.rx.recv().map_err(|_| ClientError::Disconnected)
    }
}

/// A thread-safe, pipelined client of a [`crate::KvServer`].
pub struct KvClient {
    /// Endpoints to (re)dial, in failover order; empty for a fixed
    /// connection.
    endpoints: Vec<Connector>,
    /// The endpoint index and connection currently serving requests.
    active: Mutex<(usize, Arc<Conn>)>,
}

impl KvClient {
    /// Take ownership of `conn`: one fixed connection, never redialled.
    pub fn connect(conn: Connection) -> KvClient {
        KvClient {
            endpoints: Vec::new(),
            active: Mutex::new((0, Conn::open(conn))),
        }
    }

    /// Connect to the first endpoint that answers; `None` if none does.
    /// Later failures redial along the list (see the module docs).
    pub fn dial(endpoints: Vec<Connector>) -> Option<KvClient> {
        let active = Mutex::new(dial_from(&endpoints, 0)?);
        Some(KvClient { endpoints, active })
    }

    /// The index of the endpoint serving requests (0 when fixed).
    pub fn active_endpoint(&self) -> usize {
        self.active.lock().0
    }

    /// Send `req` without waiting; the returned [`Pending`] resolves when
    /// the response arrives. This is the pipelining primitive: it is never
    /// retried or redirected.
    pub fn submit(&self, req: &Request) -> Result<Pending, ClientError> {
        let conn = self.active.lock().1.clone();
        conn.submit(req)
    }

    /// Replace `dead`, unless another caller already did, with the first
    /// endpoint after it that answers (if none does, the next attempt's
    /// send fails and redials again). `Disconnected` on a fixed connection.
    fn fail_over(&self, dead: &Arc<Conn>) -> Result<(), ClientError> {
        if self.endpoints.is_empty() {
            return Err(ClientError::Disconnected);
        }
        let mut active = self.active.lock();
        if Arc::ptr_eq(&active.1, dead) {
            if let Some(next) = dial_from(&self.endpoints, active.0 + 1) {
                *active = next;
            }
        }
        Ok(())
    }

    /// The retry loop: `req` under the module docs' rule. Never `Busy`.
    fn call(&self, req: &Request) -> Result<Response, ClientError> {
        // Only reads may be resent once their frame has left: an
        // unanswered write may already be applied.
        let resendable = matches!(
            req,
            Request::Get { .. }
                | Request::Scan { .. }
                | Request::Stats
                | Request::Ping { .. }
                | Request::Hello { .. }
        );
        let mut last = ClientError::Disconnected;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(backoff(attempt - 1));
            }
            let conn = self.active.lock().1.clone();
            // Outer `Err`: never sent. Inner `Err`: sent, no reply.
            match conn.submit(req).map(Pending::wait) {
                Ok(Err(e)) if !resendable => return Err(e),
                Ok(Ok(Response::Busy)) => last = ClientError::Busy,
                Ok(Ok(Response::Err(e)))
                    if e.contains("not primary") && !self.endpoints.is_empty() =>
                {
                    self.fail_over(&conn)?;
                    last = ClientError::Remote(e);
                }
                Ok(Ok(resp)) => return Ok(resp),
                Err(e) | Ok(Err(e)) => {
                    self.fail_over(&conn)?;
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// [`KvClient::call`] plus the reply mapping every typed op shares:
    /// `Err` becomes [`ClientError::Remote`], `ok` picks the expected
    /// reply, anything else is [`ClientError::Unexpected`]`(op)`.
    fn expect<T>(
        &self,
        req: Request,
        op: &'static str,
        ok: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        match self.call(&req)? {
            Response::Err(e) => Err(ClientError::Remote(e)),
            resp => ok(resp).ok_or(ClientError::Unexpected(op)),
        }
    }

    /// Fetch `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        self.expect(Request::Get { key: key.to_vec() }, "get", |r| match r {
            Response::Value(v) => Some(Some(v)),
            Response::NotFound => Some(None),
            _ => None,
        })
    }

    /// Write `key = value`; returns after the server's group commit.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        let req = Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        };
        self.expect(req, "put", is_ok)
    }

    /// Delete `key`; returns after the server's group commit.
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        self.expect(Request::Delete { key: key.to_vec() }, "delete", is_ok)
    }

    /// Run `ops` as one atomic-ack batch: one reply, acked only after
    /// every op committed (gets observe earlier writes in the same batch
    /// on the same shard).
    pub fn batch(&self, ops: Vec<BatchOp>) -> Result<Vec<BatchReply>, ClientError> {
        self.expect(Request::Batch { ops }, "batch", |r| match r {
            Response::Batch(replies) => Some(replies),
            _ => None,
        })
    }

    /// One SCAN page: up to `limit` live pairs with `start <= key < end`
    /// (empty `end` = unbounded), strictly after `resume_after` when set.
    /// Returns `(items, more)`; `more` means the server truncated and a
    /// continuation (resume after the last returned key) fetches the rest.
    pub fn scan(
        &self,
        start: &[u8],
        end: &[u8],
        limit: u32,
        resume_after: Option<&[u8]>,
    ) -> Result<ScanPage, ClientError> {
        let req = Request::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit,
            resume_after: resume_after.map(|k| k.to_vec()),
        };
        self.expect(req, "scan", |r| match r {
            Response::Scan { items, more } => Some((items, more)),
            _ => None,
        })
    }

    /// Up to `limit` live pairs with `start <= key < end`, following
    /// continuation cursors until the limit is met or the server reports
    /// the range exhausted. The concatenated pages equal one unbounded
    /// scan of the same range.
    pub fn scan_all(&self, start: &[u8], end: &[u8], limit: usize) -> Result<KvPairs, ClientError> {
        let mut out = Vec::new();
        let mut resume: Option<Vec<u8>> = None;
        loop {
            let want = (limit - out.len()).min(u32::MAX as usize) as u32;
            let (items, more) = self.scan(start, end, want, resume.as_deref())?;
            out.extend(items);
            if !more || out.len() >= limit {
                out.truncate(limit);
                return Ok(out);
            }
            resume = out.last().map(|(k, _)| k.clone());
        }
    }

    /// The server's stats document (JSON: `server` metrics, per-shard
    /// snapshots, and a merged `StatsSnapshot`).
    pub fn stats(&self) -> Result<String, ClientError> {
        self.expect(Request::Stats, "stats", |r| match r {
            Response::Stats(doc) => Some(doc),
            _ => None,
        })
    }

    /// Liveness probe; with `sync` the server first drains every shard
    /// queue and quiesces every store (the wire form of `quiesce`).
    pub fn ping(&self, sync: bool) -> Result<(), ClientError> {
        self.expect(Request::Ping { sync }, "ping", is_ok)
    }

    /// Promote the connected follower to primary under routing epoch
    /// `epoch` (the server adopts `max(epoch, its own + 1)`). Returns
    /// after every replicated round already queued there is applied.
    /// Sends the admin HELLO first: PROMOTE is only honored on a
    /// connection that designated itself, so a stray or misrouted
    /// client frame cannot split-brain a pair.
    pub fn promote(&self, epoch: u64) -> Result<(), ClientError> {
        self.expect(Request::Hello { role: HELLO_ADMIN }, "hello", is_ok)?;
        self.expect(Request::Promote { epoch }, "promote", is_ok)
    }

    /// Sever the active connection without consuming the handle, failing
    /// its in-flight waits with `Disconnected`: unblocks a thread wedged in
    /// [`Pending::wait`] on a dead peer (the replication shipper's shutdown).
    pub(crate) fn sever(&self) {
        let _ = self.active.lock().1.inner.socket.shutdown();
    }

    /// Tear the connection down and join its demux thread (as drop does).
    pub fn close(self) {}
}

fn is_ok(resp: Response) -> Option<()> {
    matches!(resp, Response::Ok).then_some(())
}

/// The first of `endpoints` from `start` on (wrapping) that answers.
fn dial_from(endpoints: &[Connector], start: usize) -> Option<(usize, Arc<Conn>)> {
    (0..endpoints.len()).find_map(|off| {
        let idx = (start + off) % endpoints.len();
        endpoints[idx]().map(|conn| (idx, Conn::open(conn)))
    })
}

/// [`KvStore`] adapter over a shared [`KvClient`], so workload drivers
/// and the shell run against the wire exactly as they run against an
/// in-process engine.
pub struct RemoteStore {
    client: Arc<KvClient>,
}

impl RemoteStore {
    pub fn new(client: Arc<KvClient>) -> Self {
        RemoteStore { client }
    }
}

/// Map a wire error string back onto the nearest [`cachekv_lsm::Error`].
/// The exact variant crossed the wire as its `Display` form; recovering
/// `OutOfSpace`/`Closed` keeps workload drivers' error handling working.
fn remote_error(e: ClientError) -> cachekv_lsm::Error {
    match e {
        ClientError::Disconnected => cachekv_lsm::Error::Closed,
        // Drivers have no retry notion; a shed that survived the client's
        // bounded retries reports as a transient I/O-style failure.
        ClientError::Busy => cachekv_lsm::Error::Corruption("server busy (load shed)".into()),
        ClientError::Remote(msg) => {
            if msg.contains("out of persistent space") {
                cachekv_lsm::Error::OutOfSpace(msg)
            } else if msg.contains("store is closed") || msg.contains("shutting down") {
                cachekv_lsm::Error::Closed
            } else {
                cachekv_lsm::Error::Corruption(msg)
            }
        }
        ClientError::Unexpected(what) => {
            cachekv_lsm::Error::Corruption(format!("protocol: unexpected response for {what}"))
        }
    }
}

impl KvStore for RemoteStore {
    fn put(&self, key: &[u8], value: &[u8]) -> cachekv_lsm::Result<()> {
        self.client.put(key, value).map_err(remote_error)
    }

    fn get(&self, key: &[u8]) -> cachekv_lsm::Result<Option<Vec<u8>>> {
        self.client.get(key).map_err(remote_error)
    }

    fn delete(&self, key: &[u8]) -> cachekv_lsm::Result<()> {
        self.client.delete(key).map_err(remote_error)
    }

    fn name(&self) -> &'static str {
        "cachekv-remote"
    }

    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> cachekv_lsm::Result<KvPairs> {
        self.client
            .scan_all(start, end, limit)
            .map_err(remote_error)
    }

    fn quiesce(&self) {
        let _ = self.client.ping(true);
    }

    /// The merged `StatsSnapshot` member of the server's stats document
    /// (harnesses expect one snapshot per label, not the full document).
    fn snapshot_json(&self) -> Option<String> {
        let doc = self.client.stats().ok()?;
        let parsed = Json::parse(&doc).ok()?;
        parsed.get("merged").map(|m| format!("{m}"))
    }
}
