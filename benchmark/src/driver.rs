//! The load driver: one thread, two nonblocking TCP connections polled with
//! the `polling` shim, open-loop and closed-loop pacing, and the check of
//! every reply against what the single driver thread knows was acked.
//!
//! No `KvClient`: it spawns a reader thread per connection, and with two
//! cores the driver must not add threads of its own.

use crate::gen::{key_bytes, parse_key, parse_value, write_value, Op, OpKind};
use crate::stats::Sorted;
use cachekv_server::protocol::{decode_response, encode_request, write_frame, MAX_FRAME};
use cachekv_server::{Request, Response, ServerObs};
use cachekv_storage::crc::crc32c;
use polling::{Event, Interest, Poller};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver connections. Ops on one key always use the same connection, so
/// TCP order is apply order and the version checks are exact.
pub const CONNS: usize = 2;
/// Closed-loop window per connection.
pub const WINDOW: usize = 16;
/// Open-loop cap on requests in flight. Below the server's admission
/// budget (4096 writes), so a stall shows as latency from the intended
/// send time and never as a shed request.
const INFLIGHT_CAP: usize = 2048;
/// In-flight slots, indexed by request id. A power of two above the cap.
const RING: usize = 4096;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What the driver knows about each key: the highest version it has sent
/// and the highest version the server has acknowledged.
pub struct Model {
    pub sent: Vec<u32>,
    pub acked: Vec<u32>,
    pub value_len: usize,
}

impl Model {
    pub fn new(keys: u32, value_len: usize) -> Model {
        Model {
            sent: vec![0; keys as usize],
            acked: vec![0; keys as usize],
            value_len,
        }
    }

    fn keys(&self) -> u32 {
        self.sent.len() as u32
    }

    /// Whether `value` is a well-formed value of `key` whose version lies
    /// in `[min_version, sent[key]]`.
    pub fn value_ok(&self, key: u32, value: &[u8], min_version: u32) -> bool {
        matches!(parse_value(value, self.value_len),
            Some((id, version)) if id == key
                && version >= min_version
                && version <= self.sent[key as usize])
    }
}

/// Outcome counts of a set of requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Refused with `Busy`.
    pub busy: u64,
    /// Answered with an error (or a miss on a key that must exist).
    pub errors: u64,
    /// Answered, but the reply failed verification.
    pub wrong: u64,
    /// Never answered before the drain timeout.
    pub unanswered: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.wrong + self.unanswered
    }

    /// Count one checked request.
    pub fn count(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.wrong += 1;
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.unanswered += o.unanswered;
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Op `i` is due at `i / rate` seconds, whatever the server does.
    Open { rate: f64 },
    /// Each connection keeps `window` requests in flight.
    Closed { window: usize },
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    /// Latencies (ns) of verified-ok ops, by kind. Open loop: from the
    /// intended send time. Closed loop: from the actual send.
    pub get: Vec<u64>,
    pub put: Vec<u64>,
    pub scan: Vec<u64>,
    pub tally: Tally,
    /// The measured interval in seconds.
    pub seconds: f64,
    /// Verified-ok ops completed inside the measured interval.
    pub ok_by_deadline: u64,
    /// The measured interval cut into [`WINDOWS`] equal parts.
    pub windows: Vec<Window>,
    /// Key + value bytes of the PUTs acknowledged.
    pub user_bytes: u64,
    /// Open loop: how late each send was against its schedule (ns).
    pub lateness: Vec<u64>,
    /// Requests due but not yet answered: largest, mean over the phase,
    /// and mean over its last tenth.
    pub backlog_max: u64,
    pub backlog_mean: f64,
    pub backlog_end: f64,
    /// Largest sampled `server.inflight_requests` / `repl.lag_rounds`.
    pub inflight_max: i64,
    pub repl_lag_max: i64,
}

/// One of the [`WINDOWS`] parts of a phase. The end-to-end metrics are
/// medians over these, so a burst — a compaction, a noisy neighbour — that
/// slows a window or two does not move them; the whole-phase figures stay
/// in `load.*`.
pub struct Window {
    pub seconds: f64,
    /// Verified-ok replies in the window.
    pub ok: u64,
    /// Replies of any outcome in the window.
    pub answered: u64,
    /// Process CPU spent in the window (closed loop only; else 0).
    pub cpu_us: u64,
    /// Median latency of the window's GETs / PUTs, ns, given at least
    /// [`WINDOW_MIN_SAMPLES`] of them.
    pub get_p50: Option<u64>,
    pub put_p50: Option<u64>,
}

/// Parts a phase is cut into.
pub const WINDOWS: usize = 8;
/// Samples a window needs before its median counts.
const WINDOW_MIN_SAMPLES: usize = 20;

/// Running totals at a window boundary.
struct Mark {
    at: u64,
    gets: usize,
    puts: usize,
    ok: u64,
    answered: u64,
    cpu_us: u64,
}

#[derive(Clone, Default)]
struct Slot {
    id: u64,
    /// The request in flight in this slot, if any.
    op: Option<Op>,
    /// GET: acked version of the key at send time. SCAN: unused.
    min_version: u32,
    /// SCAN: acked versions of the expected keys at send time.
    scan_min: Vec<u32>,
    /// Intended (open loop) or actual (closed loop) send time, ns.
    t_ref: u64,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    woff: usize,
    rbuf: Vec<u8>,
    inflight: usize,
    want_write: bool,
}

/// How one reply was judged.
enum Verdict {
    Ok,
    Busy,
    Error,
    Wrong,
}

pub struct Driver {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<Event>,
    scratch: Vec<u8>,
    slots: Vec<Slot>,
    next_id: u64,
    inflight: usize,
    epoch: Instant,
    pub model: Model,
    obs: Option<Arc<ServerObs>>,
}

/// Time stamps of one depth-1 request (ns since the driver's epoch).
pub struct Depth1 {
    pub start: u64,
    /// Request encoded and framed.
    pub encoded: u64,
    /// Complete reply frame received.
    pub received: u64,
    /// Reply CRC-checked, decoded and verified.
    pub done: u64,
    pub ok: bool,
    /// The reply as the server framed it (for shadow re-encoding).
    pub reply: Response,
}

impl Driver {
    /// Connect [`CONNS`] nonblocking connections to `addr`. `obs` lets the
    /// phase loop sample the server's in-flight gauges.
    pub fn connect(addr: SocketAddr, model: Model, obs: Option<Arc<ServerObs>>) -> Driver {
        let mut poller = Poller::new().expect("poller");
        let conns = (0..CONNS)
            .map(|i| {
                let stream = TcpStream::connect(addr).expect("dial server");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_nonblocking(true).expect("nonblocking");
                poller
                    .register(stream.as_raw_fd(), i as u64, Interest::READ)
                    .expect("register");
                Conn {
                    stream,
                    wbuf: Vec::with_capacity(64 << 10),
                    woff: 0,
                    rbuf: Vec::with_capacity(64 << 10),
                    inflight: 0,
                    want_write: false,
                }
            })
            .collect();
        Driver {
            poller,
            conns,
            events: Vec::new(),
            scratch: vec![0u8; 64 << 10],
            slots: vec![Slot::default(); RING],
            next_id: 1,
            inflight: 0,
            epoch: Instant::now(),
            model,
            obs,
        }
    }

    /// Nanoseconds since this driver connected.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_model(self) -> Model {
        self.model
    }

    #[inline]
    fn conn_of(op: &Op) -> usize {
        op.key as usize % CONNS
    }

    /// Whether the ring slot the next id maps to is free.
    #[inline]
    fn slot_free(&self) -> bool {
        self.slots[self.next_id as usize % RING].op.is_none()
    }

    /// Frame `op` onto its connection's write buffer and remember what its
    /// reply must satisfy.
    fn issue(&mut self, op: Op, t_ref: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let req = request_for(&op, self.model.value_len);
        let c = Self::conn_of(&op);
        let payload = encode_request(id, &req);
        write_frame(&mut self.conns[c].wbuf, &payload).expect("request fits a frame");
        self.conns[c].inflight += 1;
        self.inflight += 1;

        let slot = &mut self.slots[id as usize % RING];
        slot.id = id;
        slot.op = Some(op);
        slot.t_ref = t_ref;
        match op.kind {
            OpKind::Get => slot.min_version = self.model.acked[op.key as usize],
            OpKind::Put => {
                let sent = &mut self.model.sent[op.key as usize];
                *sent = (*sent).max(op.arg);
            }
            OpKind::Scan => {
                let end = (op.key + op.arg).min(self.model.keys());
                slot.scan_min.clear();
                slot.scan_min
                    .extend_from_slice(&self.model.acked[op.key as usize..end as usize]);
            }
        }
    }

    /// Write as much of connection `c`'s buffer as the socket takes.
    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        while conn.woff < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.woff..]) {
                Ok(0) => panic!("server closed connection {c}"),
                Ok(n) => conn.woff += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("write on connection {c}: {e}"),
            }
        }
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
        }
        let want = conn.woff < conn.wbuf.len();
        if want != conn.want_write {
            conn.want_write = want;
            let interest = if want { Interest::BOTH } else { Interest::READ };
            self.poller.modify(c as u64, interest).expect("modify");
        }
    }

    /// Read what connection `c` has and hand every complete, CRC-checked
    /// frame payload to `on_frame`.
    fn drain(&mut self, c: usize, mut on_frame: impl FnMut(&mut Driver, &[u8])) {
        loop {
            let n = match self.conns[c].stream.read(&mut self.scratch) {
                Ok(0) => panic!("server closed connection {c}"),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("read on connection {c}: {e}"),
            };
            let mut rbuf = std::mem::take(&mut self.conns[c].rbuf);
            rbuf.extend_from_slice(&self.scratch[..n]);
            let mut pos = 0;
            while let Some(len) = frame_len(&rbuf[pos..]) {
                on_frame(self, &rbuf[pos + 8..pos + 8 + len]);
                pos += 8 + len;
            }
            rbuf.drain(..pos);
            self.conns[c].rbuf = rbuf;
        }
    }

    /// Decode one reply, retire its slot, and judge it against the model.
    fn complete(&mut self, payload: &[u8]) -> Option<(Op, u64, Verdict, Response)> {
        let (id, resp) = decode_response(payload).expect("well-formed reply");
        let slot = &mut self.slots[id as usize % RING];
        if slot.op.is_none() || slot.id != id {
            // A reply nobody is waiting for: a late answer to a request a
            // previous phase already counted as unanswered.
            return None;
        }
        let op = slot.op.take().expect("checked above");
        let t_ref = slot.t_ref;
        let min_version = slot.min_version;
        let scan_min = std::mem::take(&mut slot.scan_min);
        self.inflight -= 1;
        self.conns[Self::conn_of(&op)].inflight -= 1;

        let verdict = match (&resp, op.kind) {
            (Response::Busy, _) => Verdict::Busy,
            (Response::Ok, OpKind::Put) => {
                let acked = &mut self.model.acked[op.key as usize];
                *acked = (*acked).max(op.arg);
                Verdict::Ok
            }
            (Response::Value(v), OpKind::Get) => {
                if self.model.value_ok(op.key, v, min_version) {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                }
            }
            (Response::Scan { items, .. }, OpKind::Scan) => {
                if self.scan_ok(&op, items, &scan_min) {
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                }
            }
            // Every key is preloaded and never deleted: a miss is an error.
            (Response::NotFound | Response::Err(_), _) => Verdict::Error,
            _ => Verdict::Wrong,
        };
        // Hand the buffer back so the next scan in this slot reuses it.
        self.slots[id as usize % RING].scan_min = scan_min;
        Some((op, t_ref, verdict, resp))
    }

    /// A SCAN page from `op.key` with limit `op.arg` over a dense, never
    /// deleted key space must be exactly the next keys in order — which
    /// makes it sorted, in range and duplicate-free — each holding a
    /// well-formed value no older than what was acked when the scan left.
    fn scan_ok(&self, op: &Op, items: &[(Vec<u8>, Vec<u8>)], scan_min: &[u32]) -> bool {
        items.len() == scan_min.len()
            && items
                .iter()
                .zip(scan_min)
                .enumerate()
                .all(|(i, ((k, v), min))| {
                    let want = op.key + i as u32;
                    parse_key(k) == Some(want) && self.model.value_ok(want, v, *min)
                })
    }

    fn sample_gauges(&self, out: &mut PhaseOut) {
        if let Some(obs) = &self.obs {
            out.inflight_max = out.inflight_max.max(obs.inflight_requests.get());
            out.repl_lag_max = out.repl_lag_max.max(obs.repl_lag_rounds.get());
        }
    }

    /// Run `ops` under `pace` for at most `duration` (open loop: exactly
    /// `ops.len()` sends on schedule; closed loop: until the deadline or
    /// the ops run out), then wait for the outstanding replies.
    pub fn run_phase(&mut self, ops: &[Op], pace: Pace, duration: Duration) -> PhaseOut {
        let mut out = PhaseOut {
            get: Vec::with_capacity(ops.len()),
            put: Vec::with_capacity(ops.len() / 2),
            lateness: Vec::with_capacity(match pace {
                Pace::Open { .. } => ops.len(),
                Pace::Closed { .. } => 0,
            }),
            ..PhaseOut::default()
        };
        let t0 = self.now();
        let deadline = t0 + duration.as_nanos() as u64;
        let interval_ns = match pace {
            Pace::Open { rate } => 1e9 / rate,
            Pace::Closed { .. } => 0.0,
        };
        let due_at = |i: usize| t0 + (i as f64 * interval_ns) as u64;
        let tail_from = ops.len() - ops.len() / 10;
        let (mut backlog_sum, mut tail_sum, mut tail_n) = (0u64, 0u64, 0u64);
        let mut next = 0usize;
        let mut completed = 0u64;
        let mut last_send = t0;
        let mut capped_at = 0u64;
        let mut iter = 0u64;
        let window_ns = (duration.as_nanos() as u64 / WINDOWS as u64).max(1);
        let mut marks: Vec<Mark> = Vec::with_capacity(WINDOWS + 1);

        loop {
            let now = self.now();
            while marks.len() <= WINDOWS && now >= t0 + marks.len() as u64 * window_ns {
                marks.push(Mark {
                    at: now,
                    gets: out.get.len(),
                    puts: out.put.len(),
                    ok: out.tally.ok,
                    answered: completed,
                    // Reading procfs takes ~20 µs: too long between two
                    // open-loop sends, nothing to a closed loop.
                    cpu_us: match pace {
                        Pace::Open { .. } => 0,
                        Pace::Closed { .. } => crate::process::cpu_us(),
                    },
                });
            }
            // Issue what the pacing allows.
            let mut touched = [false; CONNS];
            while next < ops.len() && self.slot_free() {
                let op = ops[next];
                let c = Self::conn_of(&op);
                let t_ref = match pace {
                    Pace::Open { .. } => {
                        let due = due_at(next);
                        if due > now {
                            break;
                        }
                        if self.inflight >= INFLIGHT_CAP {
                            capped_at = now;
                            break;
                        }
                        // Lateness is the generator's own: time an op
                        // waited on the in-flight cap is the server's and
                        // already counts in its latency.
                        out.lateness.push(now - due.max(capped_at));
                        due
                    }
                    Pace::Closed { window } => {
                        if now >= deadline || self.conns[c].inflight >= window {
                            break;
                        }
                        now
                    }
                };
                self.issue(op, t_ref);
                touched[c] = true;
                next += 1;
                last_send = now;
                let backlog = next as u64 - completed;
                out.backlog_max = out.backlog_max.max(backlog);
                backlog_sum += backlog;
                if next > tail_from {
                    tail_sum += backlog;
                    tail_n += 1;
                }
            }
            for (c, t) in touched.iter().enumerate() {
                if *t || self.conns[c].want_write {
                    self.flush(c);
                }
            }

            let sending_over =
                next >= ops.len() || matches!(pace, Pace::Closed { .. }) && now >= deadline;
            if sending_over && self.inflight == 0 {
                break;
            }
            if sending_over && now > last_send.max(deadline) + DRAIN_TIMEOUT.as_nanos() as u64 {
                break;
            }

            // Wait for replies, but never past the next send. The shim's
            // timeout is in whole milliseconds, so a shorter wait polls
            // without blocking: the open loop spins between sends. It
            // must: on a box whose cores the server keeps busy, a sleeping
            // driver waits up to a scheduler slice to be woken, while a
            // spinning one above the server's priority (see
            // `process::below_driver`) is simply never descheduled.
            let idle = Duration::from_millis(20);
            let timeout = match pace {
                _ if sending_over => idle,
                Pace::Open { .. } => Duration::from_nanos(due_at(next).saturating_sub(now)),
                Pace::Closed { .. } => Duration::from_nanos(deadline.saturating_sub(now)).min(idle),
            };
            let mut events = std::mem::take(&mut self.events);
            self.poller.poll(&mut events, Some(timeout)).expect("poll");
            for ev in &events {
                let c = ev.token as usize;
                if ev.readable || ev.closed {
                    self.drain(c, |d, payload| {
                        let Some((op, t_ref, verdict, _)) = d.complete(payload) else {
                            return;
                        };
                        completed += 1;
                        let done = d.now();
                        match verdict {
                            Verdict::Ok => {
                                out.tally.ok += 1;
                                if done <= deadline {
                                    out.ok_by_deadline += 1;
                                }
                                let lat = done.saturating_sub(t_ref);
                                match op.kind {
                                    OpKind::Get => out.get.push(lat),
                                    OpKind::Put => {
                                        out.put.push(lat);
                                        out.user_bytes +=
                                            (crate::gen::KEY_LEN + d.model.value_len) as u64;
                                    }
                                    OpKind::Scan => out.scan.push(lat),
                                }
                            }
                            Verdict::Busy => out.tally.busy += 1,
                            Verdict::Error => out.tally.errors += 1,
                            Verdict::Wrong => out.tally.wrong += 1,
                        }
                    });
                }
                if ev.writable {
                    self.flush(c);
                }
            }
            self.events = events;

            iter += 1;
            if iter.is_multiple_of(64) {
                self.sample_gauges(&mut out);
            }
        }

        let p50 = |samples: &[u64]| {
            (samples.len() >= WINDOW_MIN_SAMPLES)
                .then(|| Sorted::new(samples.to_vec()).quantile(0.5))
        };
        out.windows = marks
            .windows(2)
            .map(|m| Window {
                seconds: (m[1].at - m[0].at) as f64 / 1e9,
                ok: m[1].ok - m[0].ok,
                answered: m[1].answered - m[0].answered,
                cpu_us: m[1].cpu_us - m[0].cpu_us,
                get_p50: p50(&out.get[m[0].gets..m[1].gets]),
                put_p50: p50(&out.put[m[0].puts..m[1].puts]),
            })
            .collect();
        out.tally.sent = next as u64;
        out.tally.unanswered = self.abandon_inflight();
        let end = match pace {
            // An open-loop phase lasts as long as its schedule.
            Pace::Open { .. } => due_at(ops.len()),
            Pace::Closed { .. } => deadline.min(self.now()),
        };
        out.seconds = (end - t0) as f64 / 1e9;
        out.backlog_mean = backlog_sum as f64 / next.max(1) as f64;
        out.backlog_end = tail_sum as f64 / tail_n.max(1) as f64;
        out
    }

    /// Give up on whatever is still in flight (after a drain timeout) and
    /// return how many requests that was.
    fn abandon_inflight(&mut self) -> u64 {
        let mut n = 0;
        for slot in &mut self.slots {
            if slot.op.take().is_some() {
                n += 1;
            }
        }
        self.inflight = 0;
        for c in &mut self.conns {
            c.inflight = 0;
        }
        n
    }

    /// One request at depth 1 on an otherwise idle driver, with the time
    /// stamps the trace is built from.
    pub fn depth1(&mut self, op: Op) -> Depth1 {
        assert_eq!(self.inflight, 0, "depth-1 needs an idle driver");
        let c = Self::conn_of(&op);
        let start = self.now();
        self.issue(op, start);
        let encoded = self.now();
        self.flush(c);
        let (payload, received) = self.await_frame(c);
        let (_, _, verdict, reply) = self.complete(&payload).expect("reply to the one request");
        let done = self.now();
        Depth1 {
            start,
            encoded,
            received,
            done,
            ok: matches!(verdict, Verdict::Ok),
            reply,
        }
    }

    /// Round-trip time of one `Ping { sync: false }` at depth 1, ns.
    pub fn ping(&mut self) -> u64 {
        assert_eq!(self.inflight, 0, "depth-1 needs an idle driver");
        let id = self.next_id;
        self.next_id += 1;
        let t0 = self.now();
        let payload = encode_request(id, &Request::Ping { sync: false });
        write_frame(&mut self.conns[0].wbuf, &payload).expect("ping fits a frame");
        self.flush(0);
        let (reply, _) = self.await_frame(0);
        let (rid, resp) = decode_response(&reply).expect("well-formed reply");
        assert!(rid == id && resp == Response::Ok, "ping answered {resp:?}");
        self.now() - t0
    }

    /// Block until connection `c` holds one complete frame; return its
    /// payload and the time it was complete.
    fn await_frame(&mut self, c: usize) -> (Vec<u8>, u64) {
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        let mut got: Option<(Vec<u8>, u64)> = None;
        while got.is_none() {
            assert!(
                Instant::now() < give_up,
                "no reply within the drain timeout"
            );
            if self.conns[c].want_write {
                self.flush(c);
            }
            let mut events = std::mem::take(&mut self.events);
            self.poller
                .poll(&mut events, Some(Duration::from_millis(20)))
                .expect("poll");
            self.events = events;
            self.drain(c, |d, payload| {
                assert!(got.is_none(), "two replies to one depth-1 request");
                got = Some((payload.to_vec(), d.now()));
            });
        }
        got.unwrap()
    }
}

/// The wire request for `op`, with the value every PUT of `(key, version)`
/// carries.
pub fn request_for(op: &Op, value_len: usize) -> Request {
    match op.kind {
        OpKind::Get => Request::Get {
            key: key_bytes(op.key),
        },
        OpKind::Put => {
            let mut value = Vec::with_capacity(value_len);
            write_value(&mut value, op.key, op.arg, value_len);
            Request::Put {
                key: key_bytes(op.key),
                value,
            }
        }
        OpKind::Scan => scan_request(op),
    }
}

/// The SCAN for `op`: `op.arg` items from `op.key`. The end key is given
/// explicitly — over a dense key space it is `op.key + op.arg` — because
/// the engine materialises the whole requested range before it applies the
/// limit, so an open-ended scan reads to the end of the key space.
fn scan_request(op: &Op) -> Request {
    Request::Scan {
        start: key_bytes(op.key),
        end: key_bytes(op.key + op.arg),
        limit: op.arg,
        resume_after: None,
    }
}

/// Length of the complete, CRC-valid frame at the head of `buf`, or `None`
/// if more bytes are needed.
fn frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let want = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    assert!(len <= MAX_FRAME, "oversized reply frame ({len} bytes)");
    if buf.len() < 8 + len {
        return None;
    }
    assert_eq!(crc32c(&buf[8..8 + len]), want, "reply frame CRC");
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_server::protocol::{decode_request, encode_response, read_frame};
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn frames_are_recognised_whole_or_not_at_all() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"123456789").unwrap();
        assert_eq!(frame_len(&framed), Some(9));
        assert_eq!(frame_len(&framed[..framed.len() - 1]), None);
        assert_eq!(frame_len(&framed[..7]), None);
    }

    /// A single-threaded in-order server answering GETs from the preload
    /// and PUTs with Ok. Before answering request number `stall_at` it
    /// sleeps `stall`.
    fn fake_server(
        value_len: usize,
        stall_at: u64,
        stall: Duration,
    ) -> (SocketAddr, mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut conns: Vec<TcpStream> = (0..CONNS)
                .map(|_| {
                    let s = listener.accept().unwrap().0;
                    s.set_nodelay(true).unwrap();
                    s.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
                    s
                })
                .collect();
            let mut served = 0u64;
            while stop_rx.try_recv().is_err() {
                for s in &mut conns {
                    let payload = match read_frame(s) {
                        Ok(Some(p)) => p,
                        Ok(None) => return,
                        Err(_) => continue, // read timeout: try the other
                    };
                    let (id, req) = decode_request(&payload).unwrap();
                    served += 1;
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    let resp = match req {
                        Request::Get { key } => {
                            let mut v = Vec::new();
                            write_value(&mut v, parse_key(&key).unwrap(), 0, value_len);
                            Response::Value(v)
                        }
                        _ => Response::Ok,
                    };
                    write_frame(s, &encode_response(id, &resp)).unwrap();
                }
            }
        });
        (addr, stop_tx, handle)
    }

    fn gets(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                kind: OpKind::Get,
                key: i as u32 % 64,
                arg: 0,
            })
            .collect()
    }

    /// The coordinated-omission check: one 50 ms server stall in an open
    /// loop at 2 000 ops/s must show up in the latency of every op that
    /// was *due* during the stall (≈ 100 of them), not in one sample.
    #[test]
    fn open_loop_counts_the_wait_of_queued_ops() {
        let (addr, stop, handle) = fake_server(32, 1000, Duration::from_millis(50));
        let mut d = Driver::connect(addr, Model::new(64, 32), None);
        let ops = gets(2000);
        let out = d.run_phase(&ops, Pace::Open { rate: 2000.0 }, Duration::from_secs(1));
        stop.send(()).unwrap();
        drop(d);
        handle.join().unwrap();

        assert_eq!(out.tally.failed(), 0);
        assert_eq!(out.tally.ok, 2000);
        let delayed = out.get.iter().filter(|l| **l > 5_000_000).count();
        assert!(
            (60..=140).contains(&delayed),
            "{delayed} ops saw the stall; a closed loop would show 1"
        );
        // 2 000 samples support p99, and 5 % of them waited, so the p99
        // sits well inside the stall.
        let p99 = Sorted::new(out.get.clone()).supported(0.99).unwrap();
        assert!(p99 > 20_000_000, "p99 {p99} ns hides the stall");
        assert!(out.backlog_max >= 60, "backlog_max {}", out.backlog_max);
    }

    /// The same stall under a closed loop delays only the requests in
    /// flight — the contrast that makes the open-loop number the honest one.
    #[test]
    fn closed_loop_hides_the_stall() {
        let (addr, stop, handle) = fake_server(32, 1000, Duration::from_millis(50));
        let mut d = Driver::connect(addr, Model::new(64, 32), None);
        let ops = gets(3000);
        let out = d.run_phase(&ops, Pace::Closed { window: 1 }, Duration::from_secs(5));
        stop.send(()).unwrap();
        drop(d);
        handle.join().unwrap();

        assert_eq!(out.tally.ok, 3000);
        let delayed = out.get.iter().filter(|l| **l > 5_000_000).count();
        assert!(
            delayed <= 2 * CONNS,
            "{delayed} closed-loop ops saw the stall"
        );
    }

    #[test]
    fn replies_are_checked_against_the_model() {
        let m = {
            let mut m = Model::new(4, 16);
            m.sent[2] = 5;
            m.acked[2] = 3;
            m
        };
        let value = |id, version| {
            let mut v = Vec::new();
            write_value(&mut v, id, version, 16);
            v
        };
        assert!(m.value_ok(2, &value(2, 3), 3));
        assert!(m.value_ok(2, &value(2, 5), 3));
        assert!(!m.value_ok(2, &value(2, 2), 3), "older than acked");
        assert!(!m.value_ok(2, &value(2, 6), 3), "never sent");
        assert!(!m.value_ok(2, &value(1, 3), 3), "another key's value");
        assert!(!m.value_ok(2, &value(2, 3)[..15], 3), "truncated");
    }
}
