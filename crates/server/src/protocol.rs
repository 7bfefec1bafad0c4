//! The wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [len: u32 LE][crc32c(payload): u32 LE][payload: len bytes]
//! ```
//!
//! The CRC is the same Castagnoli CRC-32C the storage layer uses for log
//! records and table blocks ([`cachekv_storage::crc::crc32c`]), so a flipped bit
//! anywhere on the wire is detected before the payload is interpreted.
//!
//! Request payloads are `[id: u64][opcode: u8][body]`; response payloads
//! are `[id: u64][status: u8][body]`. The `id` is chosen by the client and
//! echoed verbatim, which is what lets a connection carry many requests in
//! flight (pipelining): responses may return in any order and the client
//! demultiplexes on `id`.
//!
//! Opcodes: GET, PUT, DELETE, BATCH (a mixed op vector applied with
//! group-commit semantics), STATS (the server's metrics document as JSON),
//! and PING (with an optional `sync` flag that drains every shard queue and
//! quiesces the stores before replying — the wire form of
//! [`cachekv_lsm::KvStore::quiesce`]).

use cachekv_storage::crc::crc32c;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame, large enough for a BATCH of maximum-size
/// values but small enough that a corrupt length prefix cannot trigger a
/// multi-GiB allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Hard ceiling on one write's `key.len() + value.len()`, enforced at the
/// server for PUT and BATCH ops. Kept below [`MAX_FRAME`] by enough slack
/// that a single write always fits one `REPL_ROUND` fragment frame
/// (whose header is larger than a PUT's) — without this bound a
/// maximum-size client PUT would commit locally but produce an
/// unshippable replication frame.
pub const MAX_KV_BYTES: usize = MAX_FRAME - 64;

/// Request opcodes (the first payload byte after the id).
pub(crate) const OP_GET: u8 = 1;
pub(crate) const OP_PUT: u8 = 2;
pub(crate) const OP_DELETE: u8 = 3;
pub const OP_BATCH: u8 = 4;
pub(crate) const OP_STATS: u8 = 5;
pub(crate) const OP_PING: u8 = 6;
pub(crate) const OP_SCAN: u8 = 7;
/// Replication: one committed group-commit round shipped primary→follower.
pub const OP_REPL_ROUND: u8 = 8;
/// Replication: snapshot stream header (shard, round seq, DIMM geometry).
pub(crate) const OP_SNAP_BEGIN: u8 = 9;
/// Replication: one snapshot chunk (shard, offset, bytes).
pub(crate) const OP_SNAP_CHUNK: u8 = 10;
/// Replication: snapshot stream end (shard, total length, image CRC).
pub(crate) const OP_SNAP_END: u8 = 11;
/// Failover: promote a follower to primary with a new routing epoch.
pub(crate) const OP_PROMOTE: u8 = 12;
/// Handshake: declare this connection's role (replication link / admin).
pub(crate) const OP_HELLO: u8 = 13;

/// HELLO role: register this connection as the follower's one replication
/// link — REPL_*/SNAP_* frames are accepted only from it.
pub const HELLO_REPL: u8 = 1;
/// HELLO role: designate this connection for administrative opcodes
/// (PROMOTE).
pub const HELLO_ADMIN: u8 = 2;

/// Response status codes.
pub(crate) const ST_OK: u8 = 0;
pub(crate) const ST_VALUE: u8 = 1;
pub(crate) const ST_NOT_FOUND: u8 = 2;
pub const ST_BATCH: u8 = 3;
pub(crate) const ST_STATS: u8 = 4;
pub(crate) const ST_ERR: u8 = 5;
pub const ST_SCAN: u8 = 6;
/// The server is over its admission budget and shed this request without
/// executing any of it. Retryable: nothing was applied.
pub(crate) const ST_BUSY: u8 = 7;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Get {
        key: Vec<u8>,
    },
    Put {
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        key: Vec<u8>,
    },
    Batch {
        ops: Vec<BatchOp>,
    },
    Stats,
    Ping {
        sync: bool,
    },
    /// Range scan: up to `limit` live pairs with `start <= key < end`
    /// (empty `end` = unbounded). `resume_after` is the continuation
    /// cursor: when present, only keys strictly greater are returned, so a
    /// client pages a long range by echoing the last key it received.
    Scan {
        start: Vec<u8>,
        end: Vec<u8>,
        limit: u32,
        resume_after: Option<Vec<u8>>,
    },
    /// One fragment of a committed group-commit round for `shard`, shipped
    /// by a primary. `seq` is the shard's round sequence number; a round
    /// whose serialized write-set would overflow [`MAX_FRAME`] is split
    /// across several frames sharing the same `seq`, with `frag` counting
    /// up from 0 and `last` marking the final piece. The follower buffers
    /// fragments and applies the reassembled round only at `last`,
    /// strictly in seq order (`seq == applied + 1`); duplicates
    /// (`seq <= applied`) ack idempotently, gaps and misordered fragments
    /// are rejected.
    ReplRound {
        shard: u32,
        seq: u64,
        frag: u32,
        last: bool,
        writes: Vec<ReplWrite>,
    },
    /// Role handshake for this connection: [`HELLO_REPL`] or
    /// [`HELLO_ADMIN`].
    Hello {
        role: u8,
    },
    /// Snapshot stream header for bootstrapping `shard`: the image was
    /// captured at round `seq`, splits into `dimm_sizes` per-DIMM byte
    /// counts, and the CRC-32C of the concatenated image is `crc` — the
    /// follower verifies it at SNAP_END before installing anything. Each
    /// size is the shipped extent of that DIMM, not its capacity: the
    /// DIMM's bytes past it are zero and are not sent.
    SnapBegin {
        shard: u32,
        seq: u64,
        dimm_sizes: Vec<u64>,
        crc: u32,
    },
    /// One snapshot chunk at byte `offset` into the concatenated image.
    SnapChunk {
        shard: u32,
        offset: u64,
        data: Vec<u8>,
    },
    /// End of a snapshot stream: `total_len` must equal the bytes received
    /// and the image CRC must match, or the follower discards the stream.
    SnapEnd {
        shard: u32,
        total_len: u64,
    },
    /// Promote this follower to primary under routing epoch `epoch` (the
    /// server adopts `max(epoch, its own + 1)`).
    Promote {
        epoch: u64,
    },
}

/// One write inside a replicated round (no Gets: reads don't replicate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplWrite {
    Put { key: Vec<u8>, value: Vec<u8> },
    Delete { key: Vec<u8> },
}

/// One operation inside a BATCH. Gets are allowed so a batch can read its
/// own writes: every batch op is routed through the shard submission queues
/// and executes in submission order on its shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    Put { key: Vec<u8>, value: Vec<u8> },
    Delete { key: Vec<u8> },
    Get { key: Vec<u8> },
}

/// A replicated write enters a shard queue as the batch op it is.
impl From<ReplWrite> for BatchOp {
    fn from(w: ReplWrite) -> BatchOp {
        match w {
            ReplWrite::Put { key, value } => BatchOp::Put { key, value },
            ReplWrite::Delete { key } => BatchOp::Delete { key },
        }
    }
}

impl BatchOp {
    /// The key this op routes on.
    pub(crate) fn key(&self) -> &[u8] {
        match self {
            BatchOp::Put { key, .. } | BatchOp::Delete { key } | BatchOp::Get { key } => key,
        }
    }

    /// Key + value bytes this op would carry into a replicated round,
    /// checked against [`MAX_KV_BYTES`] at admission.
    pub(crate) fn kv_bytes(&self) -> usize {
        match self {
            BatchOp::Put { key, value } => key.len() + value.len(),
            BatchOp::Delete { key } | BatchOp::Get { key } => key.len(),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// PUT / DELETE / PING acknowledged.
    Ok,
    /// GET hit.
    Value(Vec<u8>),
    /// GET miss (absent or deleted).
    NotFound,
    /// Per-op replies of a BATCH, in submission order.
    Batch(Vec<BatchReply>),
    /// The STATS JSON document.
    Stats(String),
    /// The request failed server-side.
    Err(String),
    /// One SCAN result page, sorted ascending. `more` means the range was
    /// truncated at the limit and a continuation (resume after the last
    /// key here) can fetch the rest.
    Scan {
        items: Vec<(Vec<u8>, Vec<u8>)>,
        more: bool,
    },
    /// Load shed: the server was over its admission budget and did not
    /// execute the request at all. Safe to retry (after backoff) even for
    /// writes — nothing was queued or applied.
    Busy,
}

/// One BATCH op's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    Ok,
    Value(Vec<u8>),
    NotFound,
    Err(String),
}

/// Decode failures (distinct from transport-level I/O errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the structure it promised.
    Truncated(&'static str),
    /// An unknown opcode / status byte.
    BadTag(u8),
    /// A length field exceeded its limit.
    TooLarge { what: &'static str, len: usize },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated(what) => write!(f, "truncated payload: {what}"),
            ProtoError::BadTag(t) => write!(f, "unknown opcode/status byte {t}"),
            ProtoError::TooLarge { what, len } => write!(f, "{what} too large: {len}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame: length, CRC, payload. The caller flushes. An
/// oversized payload is a hard error, not a debug assert — the peer's
/// `read_frame` would reject the frame anyway, and callers (notably the
/// replication shipper) must see the failure to mark the link down
/// rather than wedge.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds {MAX_FRAME}", payload.len()),
        ));
    }
    let mut hdr = [0u8; 8];
    hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&crc32c(payload).to_le_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)
}

/// What a buffer that starts at a frame boundary holds.
pub(crate) enum Frame<'a> {
    /// One whole, CRC-checked frame: its payload and the bytes it spans
    /// (header included).
    Whole { payload: &'a [u8], len: usize },
    /// Not yet a whole frame: the buffer must reach this many bytes first.
    Need(usize),
}

/// The frame rules, in the one place both readers ([`read_frame`] and the
/// server's event loop) apply them: a length over [`MAX_FRAME`] is refused
/// as soon as the header is in, and a whole frame whose payload fails its
/// CRC is refused before anything interprets it.
pub(crate) fn parse_frame(buf: &[u8]) -> io::Result<Frame<'_>> {
    let Some(hdr) = buf.get(..8) else {
        return Ok(Frame::Need(8));
    };
    let len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(hdr[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let Some(payload) = buf.get(8..8 + len) else {
        return Ok(Frame::Need(8 + len));
    };
    let got_crc = crc32c(payload);
    if got_crc != want_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: want {want_crc:#010x}, got {got_crc:#010x}"),
        ));
    }
    Ok(Frame::Whole {
        payload,
        len: 8 + len,
    })
}

/// Read one frame's payload, verifying its CRC. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed the connection); any
/// other shortfall, an oversized length, or a CRC mismatch is an error.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut buf = vec![0u8; 8];
    let mut got = 0;
    while got < 8 {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    loop {
        match parse_frame(&buf)? {
            Frame::Whole { .. } => {
                buf.drain(..8);
                return Ok(Some(buf));
            }
            Frame::Need(n) => {
                buf.resize(n, 0);
                r.read_exact(&mut buf[8..])?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        let b = *self.data.get(self.pos).ok_or(ProtoError::Truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        let end = self.pos + 4;
        if end > self.data.len() {
            return Err(ProtoError::Truncated(what));
        }
        let v = u32::from_le_bytes(self.data[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        let end = self.pos + 8;
        if end > self.data.len() {
            return Err(ProtoError::Truncated(what));
        }
        let v = u64::from_le_bytes(self.data[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    /// A count prefix for items of at least `min_item` bytes each. A count
    /// the bytes left cannot hold is refused before anything is allocated
    /// for it, so a decode never allocates more than its payload implies.
    fn count(&mut self, what: &'static str, min_item: usize) -> Result<usize, ProtoError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_item) > self.data.len() - self.pos {
            return Err(ProtoError::TooLarge { what, len: n });
        }
        Ok(n)
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32(what)? as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::TooLarge { what, len });
        }
        let end = self.pos + len;
        if end > self.data.len() {
            return Err(ProtoError::Truncated(what));
        }
        let v = self.data[self.pos..end].to_vec();
        self.pos = end;
        Ok(v)
    }

    fn done(&self, what: &'static str) -> Result<(), ProtoError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ProtoError::Truncated(what))
        }
    }
}

/// Encode `(id, request)` into a frame payload.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&id.to_le_bytes());
    match req {
        Request::Get { key } => {
            buf.push(OP_GET);
            put_bytes(&mut buf, key);
        }
        Request::Put { key, value } => {
            buf.push(OP_PUT);
            put_bytes(&mut buf, key);
            put_bytes(&mut buf, value);
        }
        Request::Delete { key } => {
            buf.push(OP_DELETE);
            put_bytes(&mut buf, key);
        }
        Request::Batch { ops } => {
            buf.push(OP_BATCH);
            buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                match op {
                    BatchOp::Put { key, value } => {
                        buf.push(OP_PUT);
                        put_bytes(&mut buf, key);
                        put_bytes(&mut buf, value);
                    }
                    BatchOp::Delete { key } => {
                        buf.push(OP_DELETE);
                        put_bytes(&mut buf, key);
                    }
                    BatchOp::Get { key } => {
                        buf.push(OP_GET);
                        put_bytes(&mut buf, key);
                    }
                }
            }
        }
        Request::Stats => buf.push(OP_STATS),
        Request::Ping { sync } => {
            buf.push(OP_PING);
            buf.push(*sync as u8);
        }
        Request::Scan {
            start,
            end,
            limit,
            resume_after,
        } => {
            buf.push(OP_SCAN);
            put_bytes(&mut buf, start);
            put_bytes(&mut buf, end);
            buf.extend_from_slice(&limit.to_le_bytes());
            match resume_after {
                Some(k) => {
                    buf.push(1);
                    put_bytes(&mut buf, k);
                }
                None => buf.push(0),
            }
        }
        Request::ReplRound {
            shard,
            seq,
            frag,
            last,
            writes,
        } => {
            buf.push(OP_REPL_ROUND);
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&frag.to_le_bytes());
            buf.push(*last as u8);
            buf.extend_from_slice(&(writes.len() as u32).to_le_bytes());
            for w in writes {
                match w {
                    ReplWrite::Put { key, value } => {
                        buf.push(OP_PUT);
                        put_bytes(&mut buf, key);
                        put_bytes(&mut buf, value);
                    }
                    ReplWrite::Delete { key } => {
                        buf.push(OP_DELETE);
                        put_bytes(&mut buf, key);
                    }
                }
            }
        }
        Request::SnapBegin {
            shard,
            seq,
            dimm_sizes,
            crc,
        } => {
            buf.push(OP_SNAP_BEGIN);
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&(dimm_sizes.len() as u32).to_le_bytes());
            for sz in dimm_sizes {
                buf.extend_from_slice(&sz.to_le_bytes());
            }
            buf.extend_from_slice(&crc.to_le_bytes());
        }
        Request::SnapChunk {
            shard,
            offset,
            data,
        } => {
            buf.push(OP_SNAP_CHUNK);
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.extend_from_slice(&offset.to_le_bytes());
            put_bytes(&mut buf, data);
        }
        Request::SnapEnd { shard, total_len } => {
            buf.push(OP_SNAP_END);
            buf.extend_from_slice(&shard.to_le_bytes());
            buf.extend_from_slice(&total_len.to_le_bytes());
        }
        Request::Promote { epoch } => {
            buf.push(OP_PROMOTE);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Request::Hello { role } => {
            buf.push(OP_HELLO);
            buf.push(*role);
        }
    }
    buf
}

/// Decode a frame payload into `(id, request)`.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let id = c.u64("request id")?;
    let op = c.u8("opcode")?;
    let req = match op {
        OP_GET => Request::Get {
            key: c.bytes("get key")?,
        },
        OP_PUT => Request::Put {
            key: c.bytes("put key")?,
            value: c.bytes("put value")?,
        },
        OP_DELETE => Request::Delete {
            key: c.bytes("delete key")?,
        },
        OP_BATCH => {
            // Each op is at least a tag and one length prefix.
            let n = c.count("batch count", 5)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(match c.u8("batch opcode")? {
                    OP_PUT => BatchOp::Put {
                        key: c.bytes("batch put key")?,
                        value: c.bytes("batch put value")?,
                    },
                    OP_DELETE => BatchOp::Delete {
                        key: c.bytes("batch delete key")?,
                    },
                    OP_GET => BatchOp::Get {
                        key: c.bytes("batch get key")?,
                    },
                    t => return Err(ProtoError::BadTag(t)),
                });
            }
            Request::Batch { ops }
        }
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping {
            sync: c.u8("ping flag")? != 0,
        },
        OP_SCAN => {
            let start = c.bytes("scan start")?;
            let end = c.bytes("scan end")?;
            let limit = c.u32("scan limit")?;
            let resume_after = match c.u8("scan resume flag")? {
                0 => None,
                1 => Some(c.bytes("scan resume key")?),
                t => return Err(ProtoError::BadTag(t)),
            };
            Request::Scan {
                start,
                end,
                limit,
                resume_after,
            }
        }
        OP_REPL_ROUND => {
            let shard = c.u32("repl shard")?;
            let seq = c.u64("repl seq")?;
            let frag = c.u32("repl frag")?;
            let last = match c.u8("repl last flag")? {
                0 => false,
                1 => true,
                t => return Err(ProtoError::BadTag(t)),
            };
            let n = c.count("repl write count", 5)?;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                writes.push(match c.u8("repl write tag")? {
                    OP_PUT => ReplWrite::Put {
                        key: c.bytes("repl put key")?,
                        value: c.bytes("repl put value")?,
                    },
                    OP_DELETE => ReplWrite::Delete {
                        key: c.bytes("repl delete key")?,
                    },
                    t => return Err(ProtoError::BadTag(t)),
                });
            }
            Request::ReplRound {
                shard,
                seq,
                frag,
                last,
                writes,
            }
        }
        OP_SNAP_BEGIN => {
            let shard = c.u32("snap shard")?;
            let seq = c.u64("snap seq")?;
            let n = c.count("snap dimm count", 8)?;
            // A PmemDevice has a handful of DIMMs; anything large is a
            // poisoned count.
            if n > 1024 {
                return Err(ProtoError::TooLarge {
                    what: "snap dimm count",
                    len: n,
                });
            }
            let mut dimm_sizes = Vec::with_capacity(n);
            for _ in 0..n {
                dimm_sizes.push(c.u64("snap dimm size")?);
            }
            let crc = c.u32("snap image crc")?;
            Request::SnapBegin {
                shard,
                seq,
                dimm_sizes,
                crc,
            }
        }
        OP_SNAP_CHUNK => Request::SnapChunk {
            shard: c.u32("snap chunk shard")?,
            offset: c.u64("snap chunk offset")?,
            data: c.bytes("snap chunk data")?,
        },
        OP_SNAP_END => Request::SnapEnd {
            shard: c.u32("snap end shard")?,
            total_len: c.u64("snap end total")?,
        },
        OP_PROMOTE => Request::Promote {
            epoch: c.u64("promote epoch")?,
        },
        OP_HELLO => match c.u8("hello role")? {
            role @ (HELLO_REPL | HELLO_ADMIN) => Request::Hello { role },
            t => return Err(ProtoError::BadTag(t)),
        },
        t => return Err(ProtoError::BadTag(t)),
    };
    c.done("trailing request bytes")?;
    Ok((id, req))
}

/// Encode `(id, response)` into a frame payload.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    buf.extend_from_slice(&id.to_le_bytes());
    match resp {
        Response::Ok => buf.push(ST_OK),
        Response::Value(v) => {
            buf.push(ST_VALUE);
            put_bytes(&mut buf, v);
        }
        Response::NotFound => buf.push(ST_NOT_FOUND),
        Response::Batch(replies) => {
            buf.push(ST_BATCH);
            buf.extend_from_slice(&(replies.len() as u32).to_le_bytes());
            for r in replies {
                match r {
                    BatchReply::Ok => buf.push(ST_OK),
                    BatchReply::Value(v) => {
                        buf.push(ST_VALUE);
                        put_bytes(&mut buf, v);
                    }
                    BatchReply::NotFound => buf.push(ST_NOT_FOUND),
                    BatchReply::Err(e) => {
                        buf.push(ST_ERR);
                        put_bytes(&mut buf, e.as_bytes());
                    }
                }
            }
        }
        Response::Stats(json) => {
            buf.push(ST_STATS);
            put_bytes(&mut buf, json.as_bytes());
        }
        Response::Err(e) => {
            buf.push(ST_ERR);
            put_bytes(&mut buf, e.as_bytes());
        }
        Response::Scan { items, more } => {
            buf.push(ST_SCAN);
            buf.push(*more as u8);
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for (k, v) in items {
                put_bytes(&mut buf, k);
                put_bytes(&mut buf, v);
            }
        }
        Response::Busy => buf.push(ST_BUSY),
    }
    buf
}

/// Decode a frame payload into `(id, response)`.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let id = c.u64("response id")?;
    let st = c.u8("status")?;
    let resp = match st {
        ST_OK => Response::Ok,
        ST_VALUE => Response::Value(c.bytes("value")?),
        ST_NOT_FOUND => Response::NotFound,
        ST_BATCH => {
            let n = c.count("batch reply count", 1)?;
            let mut replies = Vec::with_capacity(n);
            for _ in 0..n {
                replies.push(match c.u8("batch reply status")? {
                    ST_OK => BatchReply::Ok,
                    ST_VALUE => BatchReply::Value(c.bytes("batch value")?),
                    ST_NOT_FOUND => BatchReply::NotFound,
                    ST_ERR => BatchReply::Err(
                        String::from_utf8_lossy(&c.bytes("batch error")?).into_owned(),
                    ),
                    t => return Err(ProtoError::BadTag(t)),
                });
            }
            Response::Batch(replies)
        }
        ST_STATS => Response::Stats(String::from_utf8_lossy(&c.bytes("stats json")?).into_owned()),
        ST_ERR => Response::Err(String::from_utf8_lossy(&c.bytes("error")?).into_owned()),
        ST_SCAN => {
            let more = match c.u8("scan more flag")? {
                0 => false,
                1 => true,
                t => return Err(ProtoError::BadTag(t)),
            };
            // Each item is at least two length prefixes.
            let n = c.count("scan item count", 8)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.bytes("scan item key")?;
                let v = c.bytes("scan item value")?;
                items.push((k, v));
            }
            Response::Scan { items, more }
        }
        ST_BUSY => Response::Busy,
        t => return Err(ProtoError::BadTag(t)),
    };
    c.done("trailing response bytes")?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let payload = encode_request(77, &req);
        let (id, got) = decode_request(&payload).unwrap();
        assert_eq!(id, 77);
        assert_eq!(got, req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = encode_response(981, &resp);
        let (id, got) = decode_response(&payload).unwrap();
        assert_eq!(id, 981);
        assert_eq!(got, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Get { key: b"k".to_vec() });
        roundtrip_req(Request::Put {
            key: b"key".to_vec(),
            value: vec![0u8; 4096],
        });
        roundtrip_req(Request::Delete { key: vec![] });
        roundtrip_req(Request::Batch {
            ops: vec![
                BatchOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                BatchOp::Get { key: b"a".to_vec() },
                BatchOp::Delete { key: b"b".to_vec() },
            ],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Ping { sync: true });
        roundtrip_req(Request::Ping { sync: false });
        roundtrip_req(Request::Scan {
            start: b"a".to_vec(),
            end: b"z".to_vec(),
            limit: 128,
            resume_after: None,
        });
        roundtrip_req(Request::Scan {
            start: vec![],
            end: vec![],
            limit: u32::MAX,
            resume_after: Some(b"k00042".to_vec()),
        });
    }

    #[test]
    fn repl_request_roundtrips() {
        roundtrip_req(Request::ReplRound {
            shard: 3,
            seq: 987,
            frag: 0,
            last: true,
            writes: vec![
                ReplWrite::Put {
                    key: b"a".to_vec(),
                    value: vec![5u8; 2048],
                },
                ReplWrite::Delete { key: b"b".to_vec() },
            ],
        });
        roundtrip_req(Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![],
        });
        // A non-final middle fragment.
        roundtrip_req(Request::ReplRound {
            shard: 1,
            seq: 12,
            frag: 3,
            last: false,
            writes: vec![ReplWrite::Delete { key: b"x".to_vec() }],
        });
        roundtrip_req(Request::Hello { role: HELLO_REPL });
        roundtrip_req(Request::Hello { role: HELLO_ADMIN });
        roundtrip_req(Request::SnapBegin {
            shard: 1,
            seq: 42,
            dimm_sizes: vec![64 << 20, 64 << 20, 64 << 20, 64 << 20],
            crc: 0xDEAD_BEEF,
        });
        roundtrip_req(Request::SnapChunk {
            shard: 1,
            offset: 1 << 20,
            data: vec![7u8; 4096],
        });
        roundtrip_req(Request::SnapEnd {
            shard: 1,
            total_len: 256 << 20,
        });
        roundtrip_req(Request::Promote { epoch: 2 });
    }

    #[test]
    fn repl_decode_rejects_truncation_and_bad_tags() {
        let payload = encode_request(
            9,
            &Request::ReplRound {
                shard: 0,
                seq: 5,
                frag: 0,
                last: true,
                writes: vec![ReplWrite::Put {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                }],
            },
        );
        for cut in 1..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err(), "cut {cut}");
        }
        // A write tag outside {PUT, DELETE} (e.g. GET) is rejected.
        let mut bad = payload.clone();
        // id, opcode, shard, seq, frag, last, count
        let tag_pos = 8 + 1 + 4 + 8 + 4 + 1 + 4;
        assert_eq!(bad[tag_pos], OP_PUT);
        bad[tag_pos] = OP_GET;
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::BadTag(OP_GET))
        ));
        // A last flag outside {0, 1} is a bad tag.
        let mut bad_last = payload.clone();
        let last_pos = 8 + 1 + 4 + 8 + 4;
        assert_eq!(bad_last[last_pos], 1);
        bad_last[last_pos] = 7;
        assert!(matches!(
            decode_request(&bad_last),
            Err(ProtoError::BadTag(7))
        ));
        // Poisoned counts must be rejected before allocation.
        let mut poisoned = Vec::new();
        poisoned.extend_from_slice(&9u64.to_le_bytes());
        poisoned.push(OP_REPL_ROUND);
        poisoned.extend_from_slice(&0u32.to_le_bytes());
        poisoned.extend_from_slice(&1u64.to_le_bytes());
        poisoned.extend_from_slice(&0u32.to_le_bytes());
        poisoned.push(1);
        poisoned.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&poisoned),
            Err(ProtoError::TooLarge { .. })
        ));
        let mut snap_poisoned = Vec::new();
        snap_poisoned.extend_from_slice(&9u64.to_le_bytes());
        snap_poisoned.push(OP_SNAP_BEGIN);
        snap_poisoned.extend_from_slice(&0u32.to_le_bytes());
        snap_poisoned.extend_from_slice(&1u64.to_le_bytes());
        snap_poisoned.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&snap_poisoned),
            Err(ProtoError::TooLarge { .. })
        ));

        let snap = encode_request(
            10,
            &Request::SnapBegin {
                shard: 2,
                seq: 7,
                dimm_sizes: vec![100, 200],
                crc: 123,
            },
        );
        for cut in 1..snap.len() {
            assert!(decode_request(&snap[..cut]).is_err(), "cut {cut}");
        }

        // A HELLO role outside {repl, admin} is a bad tag.
        let mut hello = encode_request(11, &Request::Hello { role: HELLO_REPL });
        let n = hello.len();
        hello[n - 1] = 9;
        assert!(matches!(decode_request(&hello), Err(ProtoError::BadTag(9))));
    }

    #[test]
    fn write_frame_rejects_oversized_payload() {
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "oversized frame partially written");
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Value(b"v".to_vec()));
        roundtrip_resp(Response::NotFound);
        roundtrip_resp(Response::Batch(vec![
            BatchReply::Ok,
            BatchReply::Value(vec![9u8; 100]),
            BatchReply::NotFound,
            BatchReply::Err("boom".into()),
        ]));
        roundtrip_resp(Response::Stats("{\"a\":1}".into()));
        roundtrip_resp(Response::Err("nope".into()));
        roundtrip_resp(Response::Scan {
            items: vec![],
            more: false,
        });
        roundtrip_resp(Response::Scan {
            items: vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), vec![7u8; 300]),
                (vec![], vec![]),
            ],
            more: true,
        });
        roundtrip_resp(Response::Busy);
    }

    #[test]
    fn busy_is_a_bare_status_byte() {
        // Busy is the shed fast path: it must stay tiny (id + status only)
        // so an overloaded server spends nothing producing it.
        let payload = encode_response(5, &Response::Busy);
        assert_eq!(payload.len(), 9);
        assert_eq!(payload[8], ST_BUSY);
        assert!(decode_response(&payload[..8]).is_err(), "truncated status");
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r: &[u8] = &wire;
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_detects_corruption() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload-bytes").unwrap();
        // Flip one payload bit: the CRC must catch it.
        let n = wire.len();
        wire[n - 3] ^= 0x40;
        let mut r: &[u8] = &wire;
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"));
    }

    #[test]
    fn frame_rejects_oversized_length() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut r: &[u8] = &wire;
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn frame_truncated_header_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"xyz").unwrap();
        wire.truncate(5); // mid-header of... actually mid-frame
        let mut r: &[u8] = &wire;
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let payload = encode_request(
            1,
            &Request::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        );
        for cut in 1..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = payload.clone();
        bad[8] = 0xEE; // opcode byte
        assert!(matches!(
            decode_request(&bad),
            Err(ProtoError::BadTag(0xEE))
        ));
        // Trailing garbage is rejected too.
        let mut long = payload;
        long.push(0);
        assert!(decode_request(&long).is_err());
    }

    #[test]
    fn scan_decode_rejects_truncation_and_bad_flags() {
        let payload = encode_request(
            3,
            &Request::Scan {
                start: b"aa".to_vec(),
                end: b"zz".to_vec(),
                limit: 10,
                resume_after: Some(b"mm".to_vec()),
            },
        );
        for cut in 1..payload.len() {
            assert!(decode_request(&payload[..cut]).is_err(), "cut {cut}");
        }
        // A resume flag outside {0, 1} is a bad tag.
        let mut bad = payload.clone();
        let flag_pos = payload.len() - 2 - 4 - 1; // before [len u32][key "mm"]
        assert_eq!(bad[flag_pos], 1);
        bad[flag_pos] = 9;
        assert!(matches!(decode_request(&bad), Err(ProtoError::BadTag(9))));

        let resp = encode_response(
            4,
            &Response::Scan {
                items: vec![(b"k".to_vec(), b"v".to_vec())],
                more: false,
            },
        );
        for cut in 1..resp.len() {
            assert!(decode_response(&resp[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = resp.clone();
        trailing.push(0);
        assert!(decode_response(&trailing).is_err());
        // A poisoned item count must be rejected before allocation.
        let mut poisoned = Vec::new();
        poisoned.extend_from_slice(&4u64.to_le_bytes());
        poisoned.push(ST_SCAN);
        poisoned.push(0);
        poisoned.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&poisoned),
            Err(ProtoError::TooLarge { .. })
        ));
    }
}
