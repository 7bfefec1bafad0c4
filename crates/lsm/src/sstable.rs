//! Sorted String Tables.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [data block 0][data block 1]...[bloom][index][footer]
//! data block : repeated [klen u16][vlen u32][meta u64][key][value]
//! index      : [count u32] then per block
//!              [off u64][len u32][last_klen u16][last_user_key]
//! footer(48B): [index_off u64][index_len u32][bloom_off u64][bloom_len u32]
//!              [entries u64][crc u32][magic u32]
//! ```
//!
//! Tables are built in a DRAM buffer and streamed to persistent memory with
//! non-temporal stores — exactly how every store in this repo writes bulk
//! sorted runs, and the write pattern that fills whole XPLines.

use crate::bloom::Bloom;
use crate::kv::{meta_kind, Entry, EntryKind, Error, Result};
use crate::memtable::Lookup;
use cachekv_cache::Hierarchy;
use cachekv_storage::crc::crc32c;
use cachekv_storage::PmemAllocator;
use std::sync::Arc;

const MAGIC: u32 = 0x5354_424C; // "STBL"
const FOOTER: usize = 48;

/// Build-time knobs.
#[derive(Debug, Clone, Copy)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Bloom filter bits per key.
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            bloom_bits_per_key: 10,
        }
    }
}

/// Descriptor of a table resident in persistent memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Unique table id.
    pub(crate) id: u64,
    /// Base address in the persistent space.
    pub base: u64,
    /// Total encoded length.
    pub len: u64,
    /// Smallest user key.
    pub smallest: Vec<u8>,
    /// Largest user key.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub(crate) entries: u64,
    /// Highest sequence number contained.
    pub(crate) max_seq: u64,
}

/// One block-index entry: `(block offset, block length, last user key)`.
pub(crate) type BlockIndexEntry = (u64, u32, Vec<u8>);

/// Serialize sorted `entries` (internal order) into table bytes.
pub(crate) fn encode_table(
    entries: &[Entry],
    opts: &TableOptions,
) -> (Vec<u8>, Vec<BlockIndexEntry>) {
    let mut data = Vec::new();
    let mut index: Vec<BlockIndexEntry> = Vec::new();
    let mut block_start = 0usize;
    let mut last_key_in_block: Vec<u8> = Vec::new();
    for e in entries {
        data.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        data.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
        data.extend_from_slice(&e.meta.to_le_bytes());
        data.extend_from_slice(&e.key);
        data.extend_from_slice(&e.value);
        last_key_in_block = e.key.clone();
        if data.len() - block_start >= opts.block_size {
            index.push((
                block_start as u64,
                (data.len() - block_start) as u32,
                last_key_in_block.clone(),
            ));
            block_start = data.len();
        }
    }
    if data.len() > block_start {
        index.push((
            block_start as u64,
            (data.len() - block_start) as u32,
            last_key_in_block,
        ));
    }
    (data, index)
}

/// Build a table from sorted entries, allocate persistent space for it, and
/// stream it out. Returns its descriptor.
pub fn build_table(
    hier: &Arc<Hierarchy>,
    alloc: &PmemAllocator,
    id: u64,
    entries: &[Entry],
    opts: &TableOptions,
) -> Result<TableMeta> {
    assert!(!entries.is_empty(), "refusing to build an empty table");
    let (mut buf, index) = encode_table(entries, opts);

    let bloom = Bloom::build(
        entries.iter().map(|e| e.key.as_slice()),
        opts.bloom_bits_per_key,
    );
    let bloom_off = buf.len() as u64;
    let bloom_bytes = bloom.encode();
    buf.extend_from_slice(&bloom_bytes);

    let index_off = buf.len() as u64;
    buf.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for (off, len, last_key) in &index {
        buf.extend_from_slice(&off.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&(last_key.len() as u16).to_le_bytes());
        buf.extend_from_slice(last_key);
    }
    let index_len = buf.len() as u64 - index_off;

    let mut footer = [0u8; FOOTER];
    footer[0..8].copy_from_slice(&index_off.to_le_bytes());
    footer[8..12].copy_from_slice(&(index_len as u32).to_le_bytes());
    footer[12..20].copy_from_slice(&bloom_off.to_le_bytes());
    footer[20..24].copy_from_slice(&(bloom_bytes.len() as u32).to_le_bytes());
    footer[24..32].copy_from_slice(&(entries.len() as u64).to_le_bytes());
    // crc and magic sit at the fixed tail where the reader expects them.
    footer[FOOTER - 8..FOOTER - 4].copy_from_slice(&crc32c(&buf).to_le_bytes());
    footer[FOOTER - 4..].copy_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&footer);

    let base = alloc
        .alloc(buf.len() as u64)
        .map_err(|e| Error::OutOfSpace(format!("sstable {id}: {e}")))?;
    hier.nt_store(base, &buf);
    hier.sfence();

    let max_seq = entries.iter().map(|e| e.seq()).max().unwrap_or(0);
    Ok(TableMeta {
        id,
        base,
        len: buf.len() as u64,
        smallest: entries.first().unwrap().key.clone(),
        largest: entries.last().unwrap().key.clone(),
        entries: entries.len() as u64,
        max_seq,
    })
}

/// An opened table: bloom filter and block index cached in DRAM (as
/// LevelDB's block cache does), data blocks read through the hierarchy.
pub struct TableHandle {
    pub meta: TableMeta,
    hier: Arc<Hierarchy>,
    bloom: Bloom,
    /// Per-block index entries.
    index: Vec<BlockIndexEntry>,
    /// Deferred space reclamation (set once the table leaves the version).
    reclaim: parking_lot::Mutex<Option<Arc<PmemAllocator>>>,
}

impl TableHandle {
    /// Open a table from its descriptor, verifying the footer.
    pub fn open(hier: Arc<Hierarchy>, meta: TableMeta) -> Result<Self> {
        if meta.len < FOOTER as u64 {
            return Err(Error::Corruption(format!("table {} truncated", meta.id)));
        }
        let footer = hier.load_vec(meta.base + meta.len - FOOTER as u64, FOOTER);
        let magic = u32::from_le_bytes(footer[FOOTER - 4..].try_into().unwrap());
        if magic != MAGIC {
            return Err(Error::Corruption(format!(
                "table {}: bad magic {magic:#x}",
                meta.id
            )));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let index_len = u32::from_le_bytes(footer[8..12].try_into().unwrap()) as usize;
        let bloom_off = u64::from_le_bytes(footer[12..20].try_into().unwrap());
        let bloom_len = u32::from_le_bytes(footer[20..24].try_into().unwrap()) as usize;

        let bloom_bytes = hier.load_vec(meta.base + bloom_off, bloom_len);
        let bloom = Bloom::decode(&bloom_bytes)
            .ok_or_else(|| Error::Corruption(format!("table {}: bad bloom", meta.id)))?;

        let idx = hier.load_vec(meta.base + index_off, index_len);
        let count = u32::from_le_bytes(idx[0..4].try_into().unwrap()) as usize;
        let mut index = Vec::with_capacity(count);
        let mut p = 4usize;
        for _ in 0..count {
            let off = u64::from_le_bytes(idx[p..p + 8].try_into().unwrap());
            let len = u32::from_le_bytes(idx[p + 8..p + 12].try_into().unwrap());
            let klen = u16::from_le_bytes(idx[p + 12..p + 14].try_into().unwrap()) as usize;
            let key = idx[p + 14..p + 14 + klen].to_vec();
            index.push((off, len, key));
            p += 14 + klen;
        }
        Ok(TableHandle {
            meta,
            hier,
            bloom,
            index,
            reclaim: parking_lot::Mutex::new(None),
        })
    }

    /// Whether `key` is within this table's key range.
    pub(crate) fn overlaps_key(&self, key: &[u8]) -> bool {
        key >= self.meta.smallest.as_slice() && key <= self.meta.largest.as_slice()
    }

    /// Probe for the newest version of `key` in this table.
    pub fn get(&self, key: &[u8]) -> Lookup {
        if !self.overlaps_key(key) || !self.bloom.may_contain(key) {
            return Lookup::NotFound;
        }
        // First block whose last key >= target: if key exists, its newest
        // version lives there (internal order: newest first).
        let bi = self
            .index
            .partition_point(|(_, _, last)| last.as_slice() < key);
        if bi >= self.index.len() {
            return Lookup::NotFound;
        }
        let (off, len, _) = &self.index[bi];
        let block = self.hier.load_vec(self.meta.base + off, *len as usize);
        for e in BlockIter::new(&block) {
            match e.key.as_slice().cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Greater => return Lookup::NotFound,
                std::cmp::Ordering::Equal => {
                    return match meta_kind(e.meta) {
                        EntryKind::Put => Lookup::Found(e.value),
                        EntryKind::Delete => Lookup::Tombstone,
                    };
                }
            }
        }
        Lookup::NotFound
    }

    /// Probe with version information: `(meta, value)` of the newest entry
    /// for `key` (tombstones have `EntryKind::Delete` metas). Used by
    /// CacheKV, which must compare versions *across* components because its
    /// per-core sub-MemTables do not globally order a key's versions.
    pub(crate) fn get_versioned(&self, key: &[u8]) -> Option<(u64, Vec<u8>)> {
        if !self.overlaps_key(key) || !self.bloom.may_contain(key) {
            return None;
        }
        let bi = self
            .index
            .partition_point(|(_, _, last)| last.as_slice() < key);
        if bi >= self.index.len() {
            return None;
        }
        let (off, len, _) = &self.index[bi];
        let block = self.hier.load_vec(self.meta.base + off, *len as usize);
        for e in BlockIter::new(&block) {
            match e.key.as_slice().cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Equal => return Some((e.meta, e.value)),
            }
        }
        None
    }

    /// Iterate every entry in internal order (for compaction merges).
    pub fn iter(&self) -> TableIter<'_> {
        TableIter {
            table: self,
            block_idx: 0,
            block: Vec::new(),
            pos: 0,
        }
    }

    /// Iterate in internal order starting at the first block whose last
    /// key is `>= key`. Entries earlier in that block still precede `key`;
    /// the caller filters them against its start bound. The iterator owns
    /// its table handle, so a long-lived scan cursor can hold the stream
    /// while the Arc pins the table (and its reclaimable space) against
    /// compaction retirement.
    pub fn iter_from_owned(self: &Arc<Self>, key: &[u8]) -> OwnedTableIter {
        OwnedTableIter {
            block_idx: self
                .index
                .partition_point(|(_, _, last)| last.as_slice() < key),
            table: Arc::clone(self),
            block: Vec::new(),
            pos: 0,
        }
    }

    /// Arrange for the table's space to return to `alloc` when the last
    /// reference drops (called after a compaction retires the table).
    pub(crate) fn reclaim_with(&self, alloc: Arc<PmemAllocator>) {
        *self.reclaim.lock() = Some(alloc);
    }
}

impl Drop for TableHandle {
    fn drop(&mut self) {
        if let Some(alloc) = self.reclaim.lock().take() {
            alloc.free(self.meta.base, self.meta.len);
        }
    }
}

/// Decode entries from one in-DRAM block.
struct BlockIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BlockIter<'a> {
    fn new(data: &'a [u8]) -> Self {
        BlockIter { data, pos: 0 }
    }
}

impl Iterator for BlockIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        if self.pos + 14 > self.data.len() {
            return None;
        }
        let p = self.pos;
        let klen = u16::from_le_bytes(self.data[p..p + 2].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(self.data[p + 2..p + 6].try_into().unwrap()) as usize;
        let meta = u64::from_le_bytes(self.data[p + 6..p + 14].try_into().unwrap());
        let kstart = p + 14;
        if kstart + klen + vlen > self.data.len() {
            return None;
        }
        let key = self.data[kstart..kstart + klen].to_vec();
        let value = self.data[kstart + klen..kstart + klen + vlen].to_vec();
        self.pos = kstart + klen + vlen;
        Some(Entry { key, meta, value })
    }
}

/// Streaming iterator over all blocks of a table.
pub struct TableIter<'a> {
    table: &'a TableHandle,
    block_idx: usize,
    block: Vec<u8>,
    pos: usize,
}

impl Iterator for TableIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            if self.pos < self.block.len() {
                let mut it = BlockIter {
                    data: &self.block,
                    pos: self.pos,
                };
                if let Some(e) = it.next() {
                    self.pos = it.pos;
                    return Some(e);
                }
            }
            if self.block_idx >= self.table.index.len() {
                return None;
            }
            let (off, len, _) = &self.table.index[self.block_idx];
            self.block = self
                .table
                .hier
                .load_vec(self.table.meta.base + off, *len as usize);
            self.pos = 0;
            self.block_idx += 1;
        }
    }
}

/// Owning variant of [`TableIter`]: same block walk, but the handle rides
/// along as an `Arc` (see [`TableHandle::iter_from_owned`]).
pub struct OwnedTableIter {
    table: Arc<TableHandle>,
    block_idx: usize,
    block: Vec<u8>,
    pos: usize,
}

impl Iterator for OwnedTableIter {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            if self.pos < self.block.len() {
                let mut it = BlockIter {
                    data: &self.block,
                    pos: self.pos,
                };
                if let Some(e) = it.next() {
                    self.pos = it.pos;
                    return Some(e);
                }
            }
            if self.block_idx >= self.table.index.len() {
                return None;
            }
            let (off, len, _) = &self.table.index[self.block_idx];
            self.block = self
                .table
                .hier
                .load_vec(self.table.meta.base + off, *len as usize);
            self.pos = 0;
            self.block_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::pack_meta;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn setup() -> (Arc<Hierarchy>, Arc<PmemAllocator>) {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let cap = dev.capacity();
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        (hier, Arc::new(PmemAllocator::new(0, cap)))
    }

    fn sorted_entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::put(format!("key{i:06}"), (n - i) as u64, format!("value-{i}")))
            .collect()
    }

    #[test]
    fn build_open_get_roundtrip() {
        let (hier, alloc) = setup();
        let entries = sorted_entries(500);
        let meta = build_table(&hier, &alloc, 1, &entries, &TableOptions::default()).unwrap();
        let t = TableHandle::open(hier, meta).unwrap();
        assert_eq!(t.get(b"key000123"), Lookup::Found(b"value-123".to_vec()));
        assert_eq!(t.get(b"key000499"), Lookup::Found(b"value-499".to_vec()));
        assert_eq!(t.get(b"nope"), Lookup::NotFound);
    }

    #[test]
    fn tombstones_surface() {
        let (hier, alloc) = setup();
        let entries = vec![Entry::delete("aaa", 9), Entry::put("bbb", 8, "live")];
        let meta = build_table(&hier, &alloc, 1, &entries, &TableOptions::default()).unwrap();
        let t = TableHandle::open(hier, meta).unwrap();
        assert_eq!(t.get(b"aaa"), Lookup::Tombstone);
        assert_eq!(t.get(b"bbb"), Lookup::Found(b"live".to_vec()));
    }

    #[test]
    fn newest_version_returned_when_versions_span_blocks() {
        let (hier, alloc) = setup();
        // Many versions of one key so they straddle several small blocks.
        let mut entries = Vec::new();
        for seq in (1..=200u64).rev() {
            entries.push(Entry {
                key: b"hot".to_vec(),
                meta: pack_meta(seq, EntryKind::Put),
                value: format!("v{seq}").into_bytes().repeat(8),
            });
        }
        let opts = TableOptions {
            block_size: 256,
            bloom_bits_per_key: 10,
        };
        let meta = build_table(&hier, &alloc, 1, &entries, &opts).unwrap();
        let t = TableHandle::open(hier, meta).unwrap();
        assert_eq!(t.get(b"hot"), Lookup::Found(b"v200".to_vec().repeat(8)));
    }

    #[test]
    fn iter_yields_all_in_order() {
        let (hier, alloc) = setup();
        let entries = sorted_entries(300);
        let opts = TableOptions {
            block_size: 512,
            bloom_bits_per_key: 10,
        };
        let meta = build_table(&hier, &alloc, 1, &entries, &opts).unwrap();
        let t = TableHandle::open(hier, meta).unwrap();
        let got: Vec<Entry> = t.iter().collect();
        assert_eq!(got, entries);
    }

    #[test]
    fn iter_from_starts_in_the_right_block() {
        let (hier, alloc) = setup();
        let entries = sorted_entries(300);
        let opts = TableOptions {
            block_size: 512,
            bloom_bits_per_key: 10,
        };
        let meta = build_table(&hier, &alloc, 1, &entries, &opts).unwrap();
        let t = Arc::new(TableHandle::open(hier, meta).unwrap());
        for start in [
            b"key000000".to_vec(),
            b"key000123".to_vec(),
            b"key000299".to_vec(),
        ] {
            let got: Vec<Entry> = t
                .iter_from_owned(&start)
                .filter(|e| e.key >= start)
                .collect();
            let want: Vec<Entry> = entries.iter().filter(|e| e.key >= start).cloned().collect();
            assert_eq!(got, want, "start {:?}", String::from_utf8_lossy(&start));
        }
        assert!(t.iter_from_owned(b"key999999").next().is_none());
    }

    #[test]
    fn meta_records_key_range_and_counts() {
        let (hier, alloc) = setup();
        let entries = sorted_entries(50);
        let meta = build_table(&hier, &alloc, 7, &entries, &TableOptions::default()).unwrap();
        assert_eq!(meta.id, 7);
        assert_eq!(meta.smallest, b"key000000");
        assert_eq!(meta.largest, b"key000049");
        assert_eq!(meta.entries, 50);
        assert_eq!(meta.max_seq, 50);
    }

    #[test]
    fn open_rejects_bad_magic() {
        let (hier, alloc) = setup();
        let entries = sorted_entries(10);
        let mut meta = build_table(&hier, &alloc, 1, &entries, &TableOptions::default()).unwrap();
        // Truncate so the footer read lands on data bytes.
        meta.len -= 8;
        assert!(matches!(
            TableHandle::open(hier, meta),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn reclaim_frees_space_on_drop() {
        let (hier, alloc) = setup();
        let before = alloc.free_bytes();
        let entries = sorted_entries(100);
        let meta = build_table(&hier, &alloc, 1, &entries, &TableOptions::default()).unwrap();
        assert!(alloc.free_bytes() < before);
        let t = TableHandle::open(hier, meta).unwrap();
        t.reclaim_with(alloc.clone());
        drop(t);
        assert_eq!(alloc.free_bytes(), before);
    }
}
