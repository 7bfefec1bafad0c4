//! LSM-tree substrate: everything below the memory component.
//!
//! Provides the building blocks that LevelDB-style stores (and the paper's
//! baselines, and CacheKV itself) are assembled from:
//!
//! * `kv` — the public [`KvStore`] trait, errors, and internal entry
//!   encoding (sequence numbers, tombstones);
//! * `memspace` — an abstraction over *where* index/table bytes live:
//!   native DRAM or the simulated persistent hierarchy (with a configurable
//!   flush discipline), so the same skiplist runs in both worlds;
//! * `skiplist` — an arena-backed, offset-addressed skiplist;
//! * `memtable` — MemTable/ImmMemTable over the skiplist;
//! * `bloom` — a LevelDB-style bloom filter;
//! * `sstable` — sorted string tables with data blocks, a bloom filter and
//!   a block index, written to persistent objects with streaming stores;
//! * `version` — the leveled table organization (`L0` overlapping, `L1+`
//!   sorted) with version edits and a persistent manifest;
//! * `compaction` — k-way merge and compaction picking/execution;
//! * `storage_component` — the full "storage component" of Figure 2:
//!   ingest sorted runs, serve reads, compact in the background;
//! * `tree` — a classic LevelDB-like engine (WAL + shared MemTable +
//!   storage component), the reference point all paper variants diverge
//!   from.

mod bloom;
mod compaction;
mod kv;
mod memspace;
mod memtable;
mod skiplist;
mod sstable;
mod storage_component;
mod tree;
mod version;

pub use bloom::Bloom;
pub use compaction::{dedup_newest, MergeIter};
pub use kv::{
    decode_record_at, encode_record_into, internal_cmp, meta_kind, meta_seq, pack_meta, record_len,
    Entry, EntryKind, Error, KvStore, Result, RECORD_HDR,
};
pub use memspace::{DramSpace, FlushMode, MemSpace, PmemSpace};
pub use memtable::{Lookup, MemTable};
pub use skiplist::{SkipIter, SkipKeyIter, SkipList};
pub use sstable::{build_table, OwnedTableIter, TableHandle, TableIter, TableMeta, TableOptions};
pub use storage_component::{IngestStream, StorageComponent, StorageConfig};
pub use tree::{LsmConfig, LsmTree, PmemLayout};
pub use version::{Version, VersionSet};
