//! # CacheKV
//!
//! A reproduction of **"Redesigning High-Performance LSM-based Key-Value
//! Stores with Persistent CPU Caches"** (Zhong, Shen, Yu, Shu — ICDE 2023):
//! the first LSM key-value store designed for eADR platforms, where the
//! persistence boundary reaches the CPU caches.
//!
//! ## Architecture (paper Figure 6)
//!
//! ```text
//!   writers (one sub-MemTable per core)          readers
//!      │  append + 64-bit header CAS                │
//!      ▼                                            ▼
//!   ┌──────────── CAT-locked LLC pool ────────────────────┐   DRAM:
//!   │ [sub-MemTable][sub-MemTable][sub-MemTable]...       │   sub-skiplists
//!   └──────────────────────────────────────────────────────┘  (lazy sync)
//!      │ copy-based flush (non-temporal stream)
//!      ▼
//!   flushed sub-ImmMemTables in PMem ←── partitioned global index
//!      │ dump at threshold               (fence-bounded segments,
//!      ▼                                  merged off-path in parallel)
//!   LSM storage component (L0 partially sorted, L1+ leveled)
//! ```
//!
//! The four techniques and where they live:
//!
//! * **Per-core sub-MemTable (PCSM)** — `pool`, `subtable`: a pool of
//!   small tables pinned in the LLC via Intel CAT; each core appends to its
//!   own, eliminating MemTable lock contention (paper R2). The packed
//!   38/2/24-bit header word is published by a single CAS for crash
//!   atomicity.
//! * **Lazy index update (LIU)** — `index::SubIndex`: DRAM sub-skiplists
//!   synchronized off the critical path (on read / every N writes / on
//!   seal).
//! * **Copy-based flush (CF)** — `store`: sealed tables are streamed to
//!   PMem with non-temporal stores in one multi-MB copy, filling whole
//!   XPLines instead of leaking random cachelines (paper R1).
//! * **Sub-skiplist compaction (SC)** — `segment::PartitionedIndex` +
//!   `sched::Scheduler`: flushed tables' indexes merge into a
//!   range-partitioned global index (ordered fence-bounded segments),
//!   dropping stale nodes to bound read amplification. Rounds only touch
//!   overlapped segments, merges run in parallel on an off-path
//!   housekeeping worker pool, and puts never compact inline.
//!
//! ## Example
//!
//! ```
//! use cachekv::{CacheKv, CacheKvConfig};
//! use cachekv_cache::{CacheConfig, Hierarchy};
//! use cachekv_lsm::KvStore;
//! use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
//! use std::sync::Arc;
//!
//! let dev = Arc::new(PmemDevice::new(
//!     PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
//! ));
//! let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
//! let db = CacheKv::create(hier, CacheKvConfig::test_small());
//! db.put(b"hello", b"persistent caches").unwrap();
//! assert_eq!(db.get(b"hello").unwrap(), Some(b"persistent caches".to_vec()));
//! ```

mod config;
mod crashtest;
mod cursor;
mod flushlog;
mod index;
mod metrics;
mod pool;
mod sched;
mod segment;
mod store;
mod subtable;

pub use config::{CacheKvConfig, Techniques};
pub use crashtest::{
    standard_workload, sweep_flushlog, sweep_store, Engine, FlushLogSweep, Op, SweepOptions,
    SweepOutcome,
};
pub use flushlog::FlushLog;
pub use pool::Pool;
pub use store::CacheKv;
pub use subtable::{Append, SubTable};
