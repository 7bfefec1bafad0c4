//! `cachekv-server` — the service layer over the CacheKV engine.
//!
//! The engine (`crates/core`) gives one process a persistent-cache-resident
//! KV store; this crate turns it into a *service*: a wire protocol, a
//! pluggable transport, and a sharded front-end whose write path batches
//! concurrent requests into group commits.
//!
//! * [`protocol`] — length-prefixed, CRC-framed binary frames
//!   (GET/PUT/DELETE/BATCH/STATS/PING), pipelined via client-chosen ids.
//! * `transport` — where connections come from: an in-process loopback
//!   that hands out socket pairs (tests/benches, no ports) or a `std::net`
//!   TCP listener. The server is written against the [`Transport`] trait
//!   only, and serves every connection from its event-loop I/O threads.
//! * `server` — configuration, the [`KvServer`] lifecycle, the admission
//!   budget and request dispatch. Keys hash-route across N engine shards;
//!   each shard (`shard`) fronts its store with a submission queue drained
//!   in group-commit rounds. Writes are acked only after their whole round
//!   is applied (under eADR, applied ⇒ persisted — see
//!   `tests/server_crash.rs` for the crash-sweep proof). A server-wide
//!   admission budget sheds over-watermark load with `Busy`; a connection
//!   that does not read its replies has its reads paused (`event_loop`).
//! * `repl` — the primary's round shipping; `follower` — the follower
//!   role (the replication link's frames, bootstrap install, promotion).
//! * `client` — [`KvClient`], the one client: pipelined, over a fixed
//!   connection or an endpoint list it fails over along, with one retry
//!   rule for every op; plus [`RemoteStore`], a [`cachekv_lsm::KvStore`]
//!   adapter so YCSB/db_bench drivers run against the wire unchanged.
//! * `obs` — `server.*` counters, gauges, and latency histograms; the
//!   STATS opcode returns them with per-shard engine snapshots (`stats`).

pub mod cache;
mod client;
mod event_loop;
mod follower;
mod obs;
pub mod protocol;
mod repl;
mod server;
mod shard;
mod stats;
mod transport;

pub use cache::{HotCache, HotCacheConfig};
pub use client::{ClientError, Connector, KvClient, Pending, RemoteStore};
pub use follower::StoreFactory;
pub use obs::ServerObs;
pub use protocol::{
    BatchOp, BatchReply, ReplWrite, Request, Response, HELLO_ADMIN, HELLO_REPL, MAX_KV_BYTES,
};
pub use repl::{ReplMode, Replicator};
pub use server::{shard_for_key, KvServer, ServerConfig, MAX_SCAN_PAGE};
pub use transport::{Connection, LoopbackTransport, Socket, TcpTransport, Transport};
