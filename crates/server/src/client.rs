//! Pipelined client for the CacheKV wire protocol.
//!
//! One [`KvClient`] owns one connection. Requests carry client-chosen ids;
//! a background demux thread matches responses (which may arrive in any
//! order) back to waiters, so any number of threads can share a client and
//! keep many requests in flight — that is what makes group commit pay:
//! the server folds concurrently in-flight writes into one commit round.
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

/// One SCAN page: the returned pairs plus the `more` continuation flag.
pub type ScanPage = (Vec<(Vec<u8>, Vec<u8>)>, bool);

struct ClientInner {
    /// Read by the demux thread, written by submitters (one frame at a
    /// time, under `write_gate`), shut down by `sever`/`close`.
    socket: Socket,
    write_gate: Mutex<()>,
    pending: Mutex<HashMap<u64, Sender<Response>>>,
    next_id: AtomicU64,
    closed: AtomicBool,
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

/// A thread-safe, pipelined connection to a [`crate::KvServer`].
pub struct KvClient {
    inner: Arc<ClientInner>,
    demux: Option<JoinHandle<()>>,
}

impl KvClient {
    /// Take ownership of `conn` and start the response demux thread.
    pub fn connect(conn: Connection) -> KvClient {
        let inner = Arc::new(ClientInner {
            socket: conn.socket,
            write_gate: Mutex::new(()),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        });
        let demux = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("cachekv-client-demux".into())
                .spawn(move || {
                    while let Ok(Some(payload)) = read_frame(&mut &inner.socket) {
                        let Ok((id, resp)) = decode_response(&payload) else {
                            break;
                        };
                        if let Some(tx) = inner.pending.lock().remove(&id) {
                            let _ = tx.send(resp);
                        }
                    }
                    inner.closed.store(true, Ordering::Release);
                    // Dropping the one-shot senders wakes every waiter
                    // with Disconnected.
                    inner.pending.lock().clear();
                })
                .expect("spawn client demux")
        };
        KvClient {
            inner,
            demux: Some(demux),
        }
    }

    /// Send `req` without waiting; the returned [`Pending`] resolves when
    /// the response arrives. This is the pipelining primitive.
    pub fn submit(&self, req: &Request) -> Result<Pending, ClientError> {
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

    fn call(&self, req: &Request) -> Result<Response, ClientError> {
        self.submit(req)?.wait()
    }

    /// Fetch `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("get")),
        }
    }

    /// Write `key = value`; returns after the server's group commit.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("put")),
        }
    }

    /// Delete `key`; returns after the server's group commit.
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        match self.call(&Request::Delete { key: key.to_vec() })? {
            Response::Ok => Ok(()),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("delete")),
        }
    }

    /// Run `ops` as one atomic-ack batch: one reply, acked only after
    /// every op committed (gets observe earlier writes in the same batch
    /// on the same shard).
    pub fn batch(&self, ops: Vec<BatchOp>) -> Result<Vec<BatchReply>, ClientError> {
        match self.call(&Request::Batch { ops })? {
            Response::Batch(replies) => Ok(replies),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("batch")),
        }
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
        match self.call(&Request::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit,
            resume_after: resume_after.map(|k| k.to_vec()),
        })? {
            Response::Scan { items, more } => Ok((items, more)),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("scan")),
        }
    }

    /// The server's stats document (JSON: `server` metrics, per-shard
    /// snapshots, and a merged `StatsSnapshot`).
    pub fn stats(&self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(doc) => Ok(doc),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Liveness probe; with `sync` the server first drains every shard
    /// queue and quiesces every store (the wire form of `quiesce`).
    pub fn ping(&self, sync: bool) -> Result<(), ClientError> {
        match self.call(&Request::Ping { sync })? {
            Response::Ok => Ok(()),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("ping")),
        }
    }

    /// Promote the connected follower to primary under routing epoch
    /// `epoch` (the server adopts `max(epoch, its own + 1)`). Returns
    /// after every replicated round already queued there is applied.
    /// Sends the admin HELLO first: PROMOTE is only honored on a
    /// connection that designated itself, so a stray or misrouted
    /// client frame cannot split-brain a pair.
    pub fn promote(&self, epoch: u64) -> Result<(), ClientError> {
        match self.call(&Request::Hello { role: HELLO_ADMIN })? {
            Response::Ok => {}
            Response::Err(e) => return Err(ClientError::Remote(e)),
            _ => return Err(ClientError::Unexpected("hello")),
        }
        match self.call(&Request::Promote { epoch })? {
            Response::Ok => Ok(()),
            Response::Busy => Err(ClientError::Busy),
            Response::Err(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("promote")),
        }
    }

    /// Sever the underlying connection without consuming the handle:
    /// every in-flight and future call fails with `Disconnected`. Used
    /// to unblock a thread wedged in [`Pending::wait`] on a dead peer
    /// (the replication shipper during shutdown).
    pub fn sever(&self) {
        let _ = self.inner.socket.shutdown();
    }

    /// Tear the connection down and join the demux thread.
    pub fn close(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        let _ = self.inner.socket.shutdown();
        if let Some(h) = self.demux.take() {
            let _ = h.join();
        }
    }
}

impl Drop for KvClient {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Dials one endpoint of a replicated pair (index into the connector
/// list).
pub type Connector = Box<dyn Fn() -> Option<crate::transport::Connection> + Send + Sync>;

/// A failover-aware client over a primary/follower pair (or any endpoint
/// list): operations run against the active endpoint and, on a
/// disconnect or a `not primary` refusal, the client redials the other
/// endpoints in order and retries once per endpoint — the routing-epoch
/// redirect that makes promotion transparent to callers.
pub struct HaClient {
    connectors: Vec<Connector>,
    active: Mutex<(usize, Arc<KvClient>)>,
}

impl HaClient {
    /// Connect to the first dialable endpoint. `None` if every connector
    /// fails.
    pub fn connect(connectors: Vec<Connector>) -> Option<HaClient> {
        assert!(
            !connectors.is_empty(),
            "HaClient needs at least one endpoint"
        );
        let (idx, client) = Self::dial_from(&connectors, 0)?;
        Some(HaClient {
            connectors,
            active: Mutex::new((idx, client)),
        })
    }

    fn dial_from(connectors: &[Connector], start: usize) -> Option<(usize, Arc<KvClient>)> {
        for off in 0..connectors.len() {
            let idx = (start + off) % connectors.len();
            if let Some(conn) = connectors[idx]() {
                return Some((idx, Arc::new(KvClient::connect(conn))));
            }
        }
        None
    }

    /// The index of the endpoint currently serving requests.
    pub fn active_endpoint(&self) -> usize {
        self.active.lock().0
    }

    fn should_redirect(err: &ClientError) -> bool {
        match err {
            ClientError::Disconnected => true,
            // Busy is the endpoint telling us to back off, not to leave.
            ClientError::Busy => false,
            ClientError::Remote(msg) => msg.contains("not primary"),
            ClientError::Unexpected(_) => false,
        }
    }

    /// Run `op` against the active endpoint; on a redirectable failure,
    /// advance through the endpoint list (redialing) and retry, at most
    /// once per endpoint.
    fn with_redirect<T>(
        &self,
        op: impl Fn(&KvClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let (mut idx, mut client) = {
            let active = self.active.lock();
            (active.0, active.1.clone())
        };
        let mut attempts = self.connectors.len() + 1;
        loop {
            match op(&client) {
                Ok(v) => return Ok(v),
                Err(e) if Self::should_redirect(&e) && attempts > 1 => {
                    attempts -= 1;
                    let Some((next_idx, next)) =
                        Self::dial_from(&self.connectors, (idx + 1) % self.connectors.len())
                    else {
                        return Err(ClientError::Disconnected);
                    };
                    let mut active = self.active.lock();
                    *active = (next_idx, next.clone());
                    idx = next_idx;
                    client = next;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetch `key` from the active endpoint (redirecting on failover).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        self.with_redirect(|c| c.get(key))
    }

    /// Write `key = value` to the current primary (redirecting on
    /// failover).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.with_redirect(|c| c.put(key, value))
    }

    /// Delete `key` on the current primary (redirecting on failover).
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        self.with_redirect(|c| c.delete(key))
    }

    /// The active endpoint's stats document.
    pub fn stats(&self) -> Result<String, ClientError> {
        self.with_redirect(|c| c.stats())
    }
}

/// Reconnecting wrapper over one endpoint: redials through a
/// [`Connector`] with bounded exponential backoff when the connection
/// dies, and transparently retries **idempotent reads** (GET, SCAN,
/// STATS, PING) across both reconnects and `Busy` sheds.
///
/// Writes are deliberately *not* auto-retried: on `Disconnected` the
/// caller cannot know whether the server applied the write before the
/// connection died, so the ambiguity is surfaced. `Busy` on a write *is*
/// safe to retry (the server sheds before queueing anything) but the
/// wrapper still surfaces it — retry cadence under overload is the
/// caller's policy, not the transport's.
pub struct RetryClient {
    connector: Connector,
    active: Mutex<Option<Arc<KvClient>>>,
    /// Attempts per operation (first try + retries), each retry preceded
    /// by backoff.
    max_attempts: u32,
}

/// Backoff before retry attempt `n` (0-based): 1ms doubling, capped.
fn backoff(n: u32) -> std::time::Duration {
    std::time::Duration::from_millis((1u64 << n.min(7)).min(100))
}

impl RetryClient {
    /// Wrap `connector`; the first dial happens lazily on first use.
    pub fn new(connector: Connector) -> RetryClient {
        RetryClient {
            connector,
            active: Mutex::new(None),
            max_attempts: 6,
        }
    }

    /// Current client, dialing (with backoff across attempts) if there
    /// is none.
    fn client(&self, attempt: u32) -> Result<Arc<KvClient>, ClientError> {
        let mut active = self.active.lock();
        if let Some(c) = active.as_ref() {
            return Ok(c.clone());
        }
        if attempt > 0 {
            std::thread::sleep(backoff(attempt - 1));
        }
        let conn = (self.connector)().ok_or(ClientError::Disconnected)?;
        let c = Arc::new(KvClient::connect(conn));
        *active = Some(c.clone());
        Ok(c)
    }

    /// Drop the active connection so the next operation redials.
    fn invalidate(&self, dead: &Arc<KvClient>) {
        let mut active = self.active.lock();
        if let Some(cur) = active.as_ref() {
            if Arc::ptr_eq(cur, dead) {
                *active = None;
            }
        }
    }

    /// Run an idempotent operation, retrying across reconnects and
    /// `Busy` sheds with bounded backoff.
    fn retry_read<T>(
        &self,
        op: impl Fn(&KvClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last = ClientError::Disconnected;
        for attempt in 0..self.max_attempts {
            let client = match self.client(attempt) {
                Ok(c) => c,
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            match op(&client) {
                Ok(v) => return Ok(v),
                Err(ClientError::Disconnected) => {
                    self.invalidate(&client);
                    last = ClientError::Disconnected;
                }
                Err(ClientError::Busy) => {
                    std::thread::sleep(backoff(attempt));
                    last = ClientError::Busy;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Run a write once against the current connection (dialing if
    /// needed), surfacing `Busy` / `Disconnected` as-is.
    fn write_once<T>(
        &self,
        op: impl Fn(&KvClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let client = self.client(0)?;
        let out = op(&client);
        if matches!(out, Err(ClientError::Disconnected)) {
            self.invalidate(&client);
        }
        out
    }

    /// Fetch `key`, retrying across reconnects and sheds.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        self.retry_read(|c| c.get(key))
    }

    /// One SCAN page, retried like a read.
    pub fn scan(
        &self,
        start: &[u8],
        end: &[u8],
        limit: u32,
        resume_after: Option<&[u8]>,
    ) -> Result<ScanPage, ClientError> {
        self.retry_read(|c| c.scan(start, end, limit, resume_after))
    }

    /// Stats document, retried like a read.
    pub fn stats(&self) -> Result<String, ClientError> {
        self.retry_read(|c| c.stats())
    }

    /// Liveness probe, retried like a read.
    pub fn ping(&self, sync: bool) -> Result<(), ClientError> {
        self.retry_read(|c| c.ping(sync))
    }

    /// Write `key = value` — NOT auto-retried; `Busy` means "nothing was
    /// applied, retry when you choose", `Disconnected` means "outcome
    /// unknown".
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.write_once(|c| c.put(key, value))
    }

    /// Delete `key` — same non-retry policy as [`RetryClient::put`].
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        self.write_once(|c| c.delete(key))
    }
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

    /// The underlying client (for stats or pipelined access).
    pub fn client(&self) -> &Arc<KvClient> {
        &self.client
    }
}

/// Map a wire error string back onto the nearest [`cachekv_lsm::Error`].
/// The exact variant crossed the wire as its `Display` form; recovering
/// `OutOfSpace`/`Closed` keeps workload drivers' error handling working.
fn remote_error(e: ClientError) -> cachekv_lsm::Error {
    match e {
        ClientError::Disconnected => cachekv_lsm::Error::Closed,
        // Drivers have no retry notion; a shed that survived RemoteStore's
        // own bounded retries reports as a transient I/O-style failure.
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

/// Bounded `Busy` absorption for [`RemoteStore`]: workload drivers treat
/// errors as fatal, and a shed request was never queued, so brief
/// overload is retried here (writes included — shedding happens before
/// admission, so the retry cannot double-apply).
fn retry_busy<T>(op: impl Fn() -> Result<T, ClientError>) -> Result<T, ClientError> {
    let mut n = 0;
    loop {
        match op() {
            Err(ClientError::Busy) if n < 6 => {
                std::thread::sleep(backoff(n));
                n += 1;
            }
            out => return out,
        }
    }
}

impl KvStore for RemoteStore {
    fn put(&self, key: &[u8], value: &[u8]) -> cachekv_lsm::Result<()> {
        retry_busy(|| self.client.put(key, value)).map_err(remote_error)
    }

    fn get(&self, key: &[u8]) -> cachekv_lsm::Result<Option<Vec<u8>>> {
        retry_busy(|| self.client.get(key)).map_err(remote_error)
    }

    fn delete(&self, key: &[u8]) -> cachekv_lsm::Result<()> {
        retry_busy(|| self.client.delete(key)).map_err(remote_error)
    }

    fn name(&self) -> &'static str {
        "cachekv-remote"
    }

    /// Paged wire scan: follow continuation cursors until the limit is
    /// met or the server reports the range exhausted. The concatenated
    /// pages equal one unbounded scan of the same range.
    fn scan(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> cachekv_lsm::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut resume: Option<Vec<u8>> = None;
        loop {
            let want = (limit - out.len()).min(u32::MAX as usize) as u32;
            let (items, more) = self
                .client
                .scan(start, end, want, resume.as_deref())
                .map_err(remote_error)?;
            out.extend(items);
            if !more || out.len() >= limit {
                out.truncate(limit);
                return Ok(out);
            }
            resume = out.last().map(|(k, _)| k.clone());
        }
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
