//! Persistent-memory storage substrate.
//!
//! Sits between the simulated memory hierarchy and the LSM engine:
//!
//! * [`PmemAllocator`] — a first-fit free-list allocator over a range of the
//!   persistent address space, handing out cacheline-aligned regions for
//!   MemTables, SSTables, logs and CacheKV's sub-MemTable pool;
//! * [`PmemObject`] — an append-only persistent byte object (the moral
//!   equivalent of a file on a DAX filesystem), with cached or streaming
//!   (non-temporal) append paths;
//! * `wal` — a write-ahead log with CRC-protected records and replay,
//!   used by the baselines exactly as LevelDB uses its on-disk log.

mod alloc;
pub mod crc;
mod object;
mod wal;

pub use alloc::{AllocError, PmemAllocator};
pub use object::PmemObject;
pub use wal::{WalReader, WalWriter};
