//! The serving path: readiness-polling I/O threads that own every
//! connection the server accepts, TCP and loopback alike.
//!
//! ```text
//!   clients ── transport (loopback / TCP) ── accept loop
//!                                              │ round-robin
//!                            I/O thread 0..N (poller over nonblocking sockets)
//!                              │ read buffer → frame decode → dispatch
//!        GET / SCAN / STATS / PING: inline     PUT / DELETE / BATCH: shard queues
//!                              │                          │ group-commit rounds
//!                              ▼                          ▼
//!                   per-connection outbound queue ◄── acks (any order, any thread)
//!                              │ flushed on enqueue, then on writability
//!                              ▼ socket
//! ```
//!
//! N I/O threads ([`crate::ServerConfig::io_threads`], at least one) each
//! own a [`polling::Poller`] over nonblocking [`Socket`]s, so one thread
//! carries hundreds-to-thousands of connections. Per connection the thread
//! keeps a read-accumulation buffer with a frame-decode state machine and an
//! outbound frame queue.
//!
//! Backpressure, stated once for the whole server:
//!
//! * **The I/O thread never parks on a queue.** Shard queues have no cap;
//!   what bounds work is the server-wide admission budget, which sheds
//!   over-watermark requests with `Busy` before they reach a queue.
//! * **A slow reader is paused, not shed.** When a connection's outbound
//!   queue crosses its high watermark the loop drops read interest for
//!   just that connection (frames already admitted still ack); reads
//!   resume once the queue drains below the low watermark. Its unread
//!   requests then back up in the kernel socket buffer, which is what the
//!   client ultimately blocks on.
//! * **Acks always enqueue.** Committer threads append response frames to
//!   the connection's queue through [`EventConn`] without blocking and
//!   wake the owning loop; a closed connection drops them silently (the
//!   client is gone; the commit still happened).

use crate::follower::release_repl_link;
use crate::protocol::{decode_request, encode_response, parse_frame, write_frame, Frame, Response};
use crate::server::{dispatch, ConnCtx, ServerShared};
use crate::transport::Socket;
use cachekv_obs::{Counter, Gauge};
use parking_lot::Mutex;
use polling::{Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on bytes read from one connection per readiness event, so a
/// firehose peer cannot starve the rest of the loop's connections.
const READ_BUDGET: usize = 1 << 20;

/// Scratch read size per `read(2)` call.
const READ_CHUNK: usize = 64 << 10;

/// Cross-thread face of one I/O thread: the waker plus the injection
/// queues (new connections, connections with fresh output).
struct IoShared {
    waker: Waker,
    inbox: Mutex<Vec<Socket>>,
    dirty: Mutex<Vec<u64>>,
    stop: AtomicBool,
}

/// The event-loop fleet: spawned when the server is built, shut down
/// (joined) during server teardown.
pub(crate) struct EventLoops {
    io: Vec<Arc<IoShared>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl EventLoops {
    pub(crate) fn spawn(shared: &Arc<ServerShared>) -> EventLoops {
        let n = shared.cfg.io_threads;
        let mut io = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for i in 0..n {
            let poller = Poller::new().expect("create poller");
            let ios = Arc::new(IoShared {
                waker: poller.waker(),
                inbox: Mutex::new(Vec::new()),
                dirty: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
            });
            let h = {
                let ios = ios.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cachekv-io-{i}"))
                    .spawn(move || io_loop(poller, &ios, &shared))
                    .expect("spawn io thread")
            };
            io.push(ios);
            threads.push(h);
        }
        EventLoops {
            io,
            threads: Mutex::new(threads),
            next: AtomicUsize::new(0),
        }
    }

    /// Hand an accepted socket to one of the loops (round-robin).
    pub(crate) fn register(&self, socket: Socket) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.io.len();
        self.io[i].inbox.lock().push(socket);
        self.io[i].waker.wake();
    }

    /// Stop and join every I/O thread. Each loop shuts down every socket
    /// it owns on the way out, so peers see EOF.
    pub(crate) fn shutdown(&self) {
        for ios in &self.io {
            ios.stop.store(true, Ordering::Release);
            ios.waker.wake();
        }
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

struct OutQ {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written to the socket.
    head_off: usize,
    /// Total unwritten bytes across the queue.
    bytes: usize,
    /// Connection torn down: further enqueues are dropped.
    closed: bool,
    /// Already on the owning loop's dirty list (dedup, so a committer
    /// burst doesn't flood it).
    notified: bool,
}

/// The reply route of one event-loop connection: an outbound frame queue
/// plus the wake route to the loop that owns the socket. All socket I/O
/// stays on the I/O thread; dispatch and the committers only append here.
pub(crate) struct EventConn {
    token: u64,
    io: Arc<IoShared>,
    out: Mutex<OutQ>,
    inflight_bytes: Arc<Gauge>,
    bytes_out: Arc<Counter>,
}

impl EventConn {
    /// Encode `(id, resp)` and queue it for the socket, waking the I/O
    /// thread if it isn't already aware of pending output. Never blocks;
    /// drops silently after close (the client is gone; the commit still
    /// happened).
    pub(crate) fn send(&self, id: u64, resp: &Response) {
        let payload = encode_response(id, resp);
        self.bytes_out.add(payload.len() as u64 + 8);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut frame, &payload).expect("response frame within MAX_FRAME");
        let len = frame.len();
        let mut out = self.out.lock();
        if out.closed {
            return;
        }
        out.queue.push_back(frame);
        out.bytes += len;
        let need_notify = !out.notified;
        out.notified = true;
        drop(out);
        self.inflight_bytes.add(len as i64);
        if need_notify {
            self.io.dirty.lock().push(self.token);
            self.io.waker.wake();
        }
    }

    /// Unwritten response bytes queued on this connection.
    fn queued_bytes(&self) -> usize {
        self.out.lock().bytes
    }
}

/// Everything the I/O thread tracks per connection.
struct ConnState {
    socket: Socket,
    conn: Arc<EventConn>,
    ctx: ConnCtx,
    /// Accumulated bytes not yet parsed into complete frames.
    rbuf: Vec<u8>,
    /// Read interest dropped because the outbound queue crossed the high
    /// watermark.
    paused: bool,
    /// POLLOUT armed: a flush hit `WouldBlock` with bytes left.
    want_write: bool,
}

enum ConnFate {
    Keep,
    Close,
}

fn io_loop(mut poller: Poller, ios: &Arc<IoShared>, shared: &Arc<ServerShared>) {
    // Per-connection outbound watermarks, derived from the global byte
    // budget: pause reads once one connection holds an eighth of it
    // (clamped to sane bounds), resume at a quarter of that.
    let high = (shared.cfg.admit_max_bytes / 8).clamp(64 << 10, 4 << 20) as usize;
    let low = high / 4;
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    loop {
        if ios.stop.load(Ordering::Acquire) {
            break;
        }
        if poller
            .poll(&mut events, Some(Duration::from_millis(500)))
            .is_err()
        {
            break;
        }
        if ios.stop.load(Ordering::Acquire) {
            break;
        }
        // New connections first: their registration must precede any
        // dirty notification that may already name them.
        let fresh = std::mem::take(&mut *ios.inbox.lock());
        for socket in fresh {
            let token = next_token;
            next_token += 1;
            if let Some(cs) = register_conn(&mut poller, shared, ios, socket, token) {
                conns.insert(token, cs);
            } else {
                shared.obs.conns.dec();
            }
        }
        // Connections with freshly queued output: flush opportunistically
        // (most responses go out here, without waiting for POLLOUT).
        let dirty = std::mem::take(&mut *ios.dirty.lock());
        for token in dirty {
            let Some(cs) = conns.get_mut(&token) else {
                continue;
            };
            cs.conn.out.lock().notified = false;
            if let ConnFate::Close = flush_conn(cs, shared, low) {
                close_conn(&mut poller, &mut conns, token, shared);
                continue;
            }
            update_interest(&mut poller, conns.get_mut(&token).unwrap(), token);
        }
        for &ev in &events {
            let Some(cs) = conns.get_mut(&ev.token) else {
                continue; // closed earlier in this batch
            };
            if ev.writable {
                if let ConnFate::Close = flush_conn(cs, shared, low) {
                    close_conn(&mut poller, &mut conns, ev.token, shared);
                    continue;
                }
            }
            let cs = conns.get_mut(&ev.token).unwrap();
            if ev.readable || ev.closed {
                if let ConnFate::Close = read_conn(cs, shared, &mut scratch, high) {
                    close_conn(&mut poller, &mut conns, ev.token, shared);
                    continue;
                }
            }
            update_interest(&mut poller, conns.get_mut(&ev.token).unwrap(), ev.token);
        }
    }
    // Loop teardown: release every remaining connection's state.
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(&mut poller, &mut conns, token, shared);
    }
}

fn register_conn(
    poller: &mut Poller,
    shared: &Arc<ServerShared>,
    ios: &Arc<IoShared>,
    socket: Socket,
    token: u64,
) -> Option<ConnState> {
    socket.set_nonblocking(true).ok()?;
    poller
        .register(socket.as_raw_fd(), token, Interest::READ)
        .ok()?;
    let conn = Arc::new(EventConn {
        token,
        io: ios.clone(),
        out: Mutex::new(OutQ {
            queue: VecDeque::new(),
            head_off: 0,
            bytes: 0,
            closed: false,
            notified: false,
        }),
        inflight_bytes: shared.obs.inflight_bytes.clone(),
        bytes_out: shared.obs.bytes_out.clone(),
    });
    let ctx = ConnCtx::new(shared);
    Some(ConnState {
        socket,
        conn,
        ctx,
        rbuf: Vec::new(),
        paused: false,
        want_write: false,
    })
}

/// Write queued frames until the socket would block or the queue drains.
fn flush_conn(cs: &mut ConnState, shared: &Arc<ServerShared>, low: usize) -> ConnFate {
    let gauge = &shared.obs.inflight_bytes;
    let mut out = cs.conn.out.lock();
    while let Some(front) = out.queue.front() {
        let front_len = front.len();
        let off = out.head_off;
        match (&cs.socket).write(&front[off..]) {
            Ok(0) => return ConnFate::Close,
            Ok(n) => {
                out.head_off += n;
                out.bytes -= n;
                gauge.add(-(n as i64));
                if out.head_off == front_len {
                    out.queue.pop_front();
                    out.head_off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
    cs.want_write = !out.queue.is_empty();
    let bytes = out.bytes;
    drop(out);
    if cs.paused && bytes <= low {
        cs.paused = false;
    }
    ConnFate::Keep
}

/// Read until the socket would block (or the per-event budget runs out),
/// parsing and dispatching every complete frame.
fn read_conn(
    cs: &mut ConnState,
    shared: &Arc<ServerShared>,
    scratch: &mut [u8],
    high: usize,
) -> ConnFate {
    let mut budget = READ_BUDGET;
    loop {
        match (&cs.socket).read(scratch) {
            Ok(0) => return ConnFate::Close, // EOF
            Ok(n) => {
                cs.rbuf.extend_from_slice(&scratch[..n]);
                if let ConnFate::Close = parse_frames(cs, shared) {
                    return ConnFate::Close;
                }
                // Slow-reader guard: past the high watermark, stop
                // consuming this connection's requests until its
                // responses drain. Pausing (not shedding) preserves
                // every frame already in flight.
                if cs.conn.queued_bytes() > high {
                    cs.paused = true;
                    return ConnFate::Keep;
                }
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    return ConnFate::Keep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnFate::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Close,
        }
    }
}

/// Extract complete frames from the accumulation buffer and dispatch
/// them. Frame-level corruption (the rules of
/// [`crate::protocol::parse_frame`]: oversize length, CRC mismatch) closes
/// the connection; a payload that frames correctly but decodes badly gets
/// an error reply and the connection lives on.
fn parse_frames(cs: &mut ConnState, shared: &Arc<ServerShared>) -> ConnFate {
    let mut pos = 0usize;
    let fate = loop {
        let (payload, len) = match parse_frame(&cs.rbuf[pos..]) {
            Ok(Frame::Whole { payload, len }) => (payload, len),
            Ok(Frame::Need(_)) => break ConnFate::Keep,
            Err(_) => break ConnFate::Close,
        };
        let obs = &shared.obs;
        obs.bytes_in.add(len as u64);
        obs.requests.inc();
        match decode_request(payload) {
            Ok((id, req)) => dispatch(shared, id, req, &cs.conn, &mut cs.ctx),
            Err(e) => {
                obs.errors.inc();
                let id = payload
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                cs.conn
                    .send(id, &Response::Err(format!("bad request: {e}")));
            }
        }
        pos += len;
    };
    if pos > 0 {
        cs.rbuf.drain(..pos);
    }
    fate
}

fn update_interest(poller: &mut Poller, cs: &mut ConnState, token: u64) {
    let interest = match (!cs.paused, cs.want_write) {
        (true, true) => Interest::BOTH,
        (true, false) => Interest::READ,
        (false, true) => Interest::WRITE,
        (false, false) => Interest::NONE,
    };
    let _ = poller.modify(token, interest);
}

fn close_conn(
    poller: &mut Poller,
    conns: &mut HashMap<u64, ConnState>,
    token: u64,
    shared: &Arc<ServerShared>,
) {
    let Some(cs) = conns.remove(&token) else {
        return;
    };
    poller.deregister(token);
    // Mark the committer-facing handle closed and return its queued (now
    // undeliverable) bytes to the global budget.
    {
        let mut out = cs.conn.out.lock();
        out.closed = true;
        let dropped = out.bytes;
        out.queue.clear();
        out.bytes = 0;
        out.head_off = 0;
        drop(out);
        if dropped > 0 {
            shared.obs.inflight_bytes.add(-(dropped as i64));
        }
    }
    release_repl_link(shared, cs.ctx.conn_id);
    shared.obs.conns.dec();
    let _ = cs.socket.shutdown();
}
