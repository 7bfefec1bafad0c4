//! DRAM-resident per-table indexes: sub-skiplists with lazy
//! synchronization (Section III-B) and the fence/bloom [`ReadFilter`]s
//! that gate probes. The compacted *global* index lives in
//! [`crate::segment`] as an ordered set of range-partitioned segments.
//!
//! A sub-skiplist tracks a `list counter` and `list tail pointer`; syncing
//! compares them with the sub-MemTable's packed header and replays the data
//! region's unindexed suffix. Because the index lives in volatile DRAM it is
//! fully reconstructible from the (persistent) sub-MemTable after a crash —
//! which is exactly what recovery does.

use crate::cursor::take_keys;
use crate::subtable::SubTable;
use cachekv_cache::Hierarchy;
use cachekv_lsm::bloom::Bloom;
use cachekv_lsm::kv::{decode_record_at, Entry, RECORD_HDR};
use cachekv_lsm::{DramSpace, SkipList};
use parking_lot::RwLock;
use std::sync::Arc;

/// What a [`ReadFilter`] says about probing a table for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Key is outside the table's `[min, max]` fence — cannot be present.
    FenceSkip,
    /// Key is in range but the bloom filter rules it out.
    BloomSkip,
    /// The table may hold the key; probe its index.
    Probe,
}

/// Per-table read pruning: min/max fence keys plus a bloom filter over every
/// indexed key. Built only for *fully synced*, immutable indexes (flushed
/// tables, the global skiplist) — an index still lagging its table would
/// yield false negatives. Lives in DRAM beside the sub-skiplist and is
/// rebuilt from data on recovery; nothing about it is persisted.
pub struct ReadFilter {
    min: Vec<u8>,
    max: Vec<u8>,
    bloom: Bloom,
}

impl ReadFilter {
    /// Build from keys in ascending order (an index iteration); duplicates
    /// (multiple versions of one key) are allowed. `None` for an empty set.
    pub fn from_sorted_keys(keys: &[Vec<u8>]) -> Option<ReadFilter> {
        let min = keys.first()?.clone();
        let max = keys.last().expect("non-empty").clone();
        debug_assert!(min <= max, "keys must be sorted ascending");
        Some(ReadFilter {
            min,
            max,
            bloom: Bloom::build(keys.iter().map(|k| k.as_slice()), 10),
        })
    }

    /// Fence check then bloom check for `key`.
    #[inline]
    pub fn check(&self, key: &[u8]) -> FilterVerdict {
        if key < self.min.as_slice() || key > self.max.as_slice() {
            FilterVerdict::FenceSkip
        } else if !self.bloom.may_contain(key) {
            FilterVerdict::BloomSkip
        } else {
            FilterVerdict::Probe
        }
    }

    /// The `[min, max]` fence.
    pub fn fences(&self) -> (&[u8], &[u8]) {
        (&self.min, &self.max)
    }

    /// FNV-1a digest of the encoded bloom bits: two filters over the same
    /// key set hash identically — the recovery-determinism tests compare
    /// these across independently rebuilt indexes.
    pub fn bloom_fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in self.bloom.encode() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        h
    }
}

struct SubIndexInner {
    list: SkipList<DramSpace>,
    /// "list counter": records indexed so far.
    synced_count: u64,
    /// "list tail pointer": data-region offset indexed up to.
    synced_tail: u64,
}

/// The index of one sub-MemTable (or of one flushed sub-ImmMemTable).
pub struct SubIndex {
    inner: RwLock<SubIndexInner>,
}

impl SubIndex {
    /// Size the skiplist arena for a data region of `data_cap` bytes
    /// (worst-case small records need more index than data).
    pub fn for_data_capacity(data_cap: u64) -> Arc<Self> {
        let arena = (data_cap * 3) as usize + 4096;
        Arc::new(SubIndex {
            inner: RwLock::new(SubIndexInner {
                list: SkipList::new(DramSpace::new(arena)),
                synced_count: 0,
                synced_tail: 0,
            }),
        })
    }

    /// `(list counter, list tail pointer)`.
    pub fn counters(&self) -> (u64, u64) {
        let g = self.inner.read();
        (g.synced_count, g.synced_tail)
    }

    /// Whether the index lags the sub-MemTable (cheap check: counters).
    pub fn needs_sync(&self, st: &SubTable) -> bool {
        self.inner.read().synced_count != st.header().counter()
    }

    /// Bring the sub-skiplist up to date with the sub-MemTable by replaying
    /// `[list tail, table tail)` of the data region. Returns how many
    /// records were indexed.
    pub fn sync(&self, st: &SubTable) -> usize {
        let h = st.header();
        {
            let g = self.inner.read();
            if g.synced_count == h.counter() {
                return 0;
            }
        }
        let mut g = self.inner.write();
        if g.synced_count == h.counter() {
            return 0; // raced with another syncer
        }
        let start = g.synced_tail;
        let end = h.tail();
        debug_assert!(end >= start);
        let raw = st.read_data(start, (end - start) as usize);
        let mut pos = 0usize;
        let mut added = 0usize;
        while let Some((e, next)) = decode_record_at(&raw, pos) {
            let off = (start + pos as u64) as u32;
            g.list
                .insert(&e.key, e.meta, &off.to_le_bytes())
                .expect("sub-skiplist arena sized for its data region");
            pos = next;
            added += 1;
        }
        g.synced_tail = end;
        // On a clean table the scan count matches the header counter. On a
        // torn crash image the published header can claim more records than
        // the data region decodes (the counter's cacheline persisted, a data
        // line did not); adopt the counter so sync converges instead of
        // re-scanning the gap forever.
        g.synced_count = h.counter();
        added
    }

    /// Rebuild from a raw record region `[base, base+len)` (a copy-flushed
    /// data region, which has no header line): replay everything after the
    /// current list tail.
    pub fn sync_from_region(&self, hier: &Arc<Hierarchy>, base: u64, len: u64) -> usize {
        let mut g = self.inner.write();
        let start = g.synced_tail;
        if start >= len {
            return 0;
        }
        let raw = hier.load_vec(base + start, (len - start) as usize);
        let mut pos = 0usize;
        let mut added = 0usize;
        while let Some((e, next)) = decode_record_at(&raw, pos) {
            let off = (start + pos as u64) as u32;
            g.list
                .insert(&e.key, e.meta, &off.to_le_bytes())
                .expect("sub-skiplist arena sized for its data region");
            pos = next;
            added += 1;
        }
        g.synced_tail = start + pos as u64;
        g.synced_count += added as u64;
        added
    }

    /// Diligent (PCSM-mode) insert, performed on the write path. `rec_len`
    /// is the full record length at `off`: advancing the list tail past it
    /// keeps the unindexed suffix empty, so lock-free readers scanning
    /// `[list tail, table tail)` never re-decode already-indexed records.
    pub fn insert_direct(&self, key: &[u8], meta: u64, off: u64, rec_len: u64) {
        let mut g = self.inner.write();
        g.list
            .insert(key, meta, &(off as u32).to_le_bytes())
            .expect("sub-skiplist arena sized for its data region");
        g.synced_count += 1;
        g.synced_tail = g.synced_tail.max(off + rec_len);
    }

    /// Newest `(meta, data-region offset)` for `key`.
    pub fn get(&self, key: &[u8]) -> Option<(u64, u32)> {
        let g = self.inner.read();
        g.list
            .get_latest(key)
            .map(|(meta, v)| (meta, u32::from_le_bytes(v[..4].try_into().unwrap())))
    }

    /// All indexed `(key, meta, offset)` triples in internal order.
    pub fn entries(&self) -> Vec<IndexedEntry> {
        let g = self.inner.read();
        g.list
            .iter()
            .map(|e| {
                let off = u32::from_le_bytes(e.value[..4].try_into().unwrap());
                (e.key, e.meta, off)
            })
            .collect()
    }

    /// The newest indexed `(key, meta, offset)` at or below sequence `cut`
    /// of at most `max_keys` distinct keys with `start <= key < end`
    /// (empty `end` = unbounded), in internal order, plus the next indexed
    /// key past them (`None` when the range ran out first). Seeks instead
    /// of walking the whole list and stops after `max_keys`, so a scan
    /// copies what it can return, not the rest of the table.
    pub fn range_entries(
        &self,
        start: &[u8],
        end: &[u8],
        max_keys: usize,
        cut: u64,
    ) -> (Vec<IndexedEntry>, Option<Vec<u8>>) {
        let g = self.inner.read();
        let walk = g.list.iter_from(start).map(|e| {
            let off = u32::from_le_bytes(e.value[..4].try_into().unwrap());
            (e.key, e.meta, off)
        });
        take_keys(walk, end, cut, max_keys)
    }

    /// Build a [`ReadFilter`] over every indexed key. Only meaningful once
    /// the index is fully synced with its (now immutable) table.
    pub fn build_filter(&self) -> Option<ReadFilter> {
        let g = self.inner.read();
        let keys: Vec<Vec<u8>> = g.list.iter_keys().map(|(k, _)| k).collect();
        ReadFilter::from_sorted_keys(&keys)
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.inner.read().list.len()
    }

    /// True when nothing is indexed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Read the full record at `region_base + off` through the hierarchy, or
/// `None` if the bytes there don't decode. An indexed record always decodes
/// on a live device; after a fault trip blackholes the copy-flush stream,
/// a region can be indexed in DRAM while its media holds garbage.
pub fn try_read_record(hier: &Arc<Hierarchy>, region_base: u64, off: u64) -> Option<Entry> {
    let hdr = hier.load_vec(region_base + off, RECORD_HDR);
    let klen = u16::from_le_bytes(hdr[0..2].try_into().unwrap()) as usize;
    let vlen = u32::from_le_bytes(hdr[2..6].try_into().unwrap()) as usize;
    let raw = hier.load_vec(region_base + off, RECORD_HDR + klen + vlen);
    decode_record_at(&raw, 0).map(|(e, _)| e)
}

/// Read the full record at `region_base + off` through the hierarchy.
pub fn read_record(hier: &Arc<Hierarchy>, region_base: u64, off: u64) -> Entry {
    try_read_record(hier, region_base, off).expect("indexed record must decode")
}

/// A sub-ImmMemTable that has been copy-flushed out of the cache: its data
/// region now lives at `base` in ordinary PMem, still indexed by its (fully
/// synced) sub-skiplist.
pub struct FlushedTable {
    /// Generation number (monotone; also logged persistently).
    pub gen: u64,
    /// Region holding the copied data region.
    pub base: u64,
    /// Bytes of data.
    pub len: u64,
    /// The table's sub-skiplist.
    pub index: Arc<SubIndex>,
    /// Fence + bloom pruning for reads; `None` only for an empty table.
    pub filter: Option<ReadFilter>,
}

/// One indexed record: `(key, meta, data-region offset)`.
pub type IndexedEntry = (Vec<u8>, u64, u32);

/// One compaction source: a table generation and its indexed entries.
pub type TableEntries = (u64, Vec<IndexedEntry>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subtable::{Append, SubTable};
    use cachekv_cache::CacheConfig;
    use cachekv_lsm::kv::{meta_seq, pack_meta, EntryKind};
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn subtable() -> SubTable {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        hier.cat_lock(0, 64 << 10);
        let st = SubTable::new(hier, 0, 64 << 10);
        st.reset_free();
        st.try_acquire();
        st
    }

    fn fill(st: &SubTable, n: u64, seq0: u64) {
        let mut scratch = Vec::new();
        for i in 0..n {
            let r = st
                .append(
                    format!("key{:04}", i % 40).as_bytes(),
                    pack_meta(seq0 + i, EntryKind::Put),
                    format!("v{}", seq0 + i).as_bytes(),
                    &mut scratch,
                )
                .unwrap();
            assert!(matches!(r, Append::Ok(_)));
        }
    }

    #[test]
    fn lazy_sync_replays_exactly_the_gap() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        fill(&st, 100, 1);
        assert!(idx.needs_sync(&st));
        assert_eq!(idx.sync(&st), 100);
        assert!(!idx.needs_sync(&st));
        assert_eq!(idx.sync(&st), 0, "second sync is a no-op");
        fill(&st, 50, 101);
        assert_eq!(idx.sync(&st), 50, "only the suffix replays");
        let (count, tail) = idx.counters();
        assert_eq!(count, 150);
        assert_eq!(tail, st.header().tail());
    }

    #[test]
    fn get_returns_newest_version() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        fill(&st, 120, 1); // keys cycle mod 40, three versions each
        idx.sync(&st);
        let (meta, off) = idx.get(b"key0005").unwrap();
        assert_eq!(meta_seq(meta), 86, "third version of key 5 (seq 6, 46, 86)");
        let e = read_record(
            st.hierarchy(),
            st.base + crate::subtable::DATA_OFF,
            off as u64,
        );
        assert_eq!(e.value, b"v86");
    }

    #[test]
    fn direct_insert_matches_sync_results() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        let mut scratch = Vec::new();
        for i in 0..30u64 {
            let key = format!("k{i:03}");
            let meta = pack_meta(i + 1, EntryKind::Put);
            if let Append::Ok(off) = st.append(key.as_bytes(), meta, b"v", &mut scratch).unwrap() {
                let len = cachekv_lsm::kv::record_len(key.len(), 1) as u64;
                idx.insert_direct(key.as_bytes(), meta, off, len);
            }
        }
        assert_eq!(idx.len(), 30);
        assert!(idx.get(b"k015").is_some());
    }

    #[test]
    fn filter_fences_and_bloom_prune_absent_keys() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        fill(&st, 100, 1); // keys key0000..key0039
        idx.sync(&st);
        let f = idx.build_filter().expect("non-empty index");
        assert_eq!(f.fences(), (b"key0000".as_slice(), b"key0039".as_slice()));
        assert_eq!(f.check(b"aaa"), FilterVerdict::FenceSkip);
        assert_eq!(f.check(b"zzz"), FilterVerdict::FenceSkip);
        assert_eq!(f.check(b"key0020"), FilterVerdict::Probe);
        // In-range absent keys ("key0020" < probe < "key0039") are
        // overwhelmingly bloom-skipped (1% FPR); count over many probes to
        // tolerate false positives.
        let skipped = (0..200)
            .filter(|i| f.check(format!("key0020abs{i:03}").as_bytes()) == FilterVerdict::BloomSkip)
            .count();
        assert!(skipped > 180, "bloom pruned only {skipped}/200 absent keys");
    }

    #[test]
    fn empty_index_builds_no_filter() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        assert!(idx.build_filter().is_none());
    }

    #[test]
    fn bloom_fingerprints_are_stable_per_key_set() {
        let keys: Vec<Vec<u8>> = (0..40).map(|i| format!("f{i:03}").into_bytes()).collect();
        let a = ReadFilter::from_sorted_keys(&keys).unwrap();
        let b = ReadFilter::from_sorted_keys(&keys).unwrap();
        assert_eq!(a.bloom_fingerprint(), b.bloom_fingerprint());
        let other: Vec<Vec<u8>> = (0..40).map(|i| format!("g{i:03}").into_bytes()).collect();
        let c = ReadFilter::from_sorted_keys(&other).unwrap();
        assert_ne!(a.bloom_fingerprint(), c.bloom_fingerprint());
    }

    #[test]
    fn concurrent_readers_during_sync() {
        let st = subtable();
        let idx = SubIndex::for_data_capacity(st.data_capacity());
        fill(&st, 200, 1);
        let idx2 = idx.clone();
        let st2 = st.clone();
        let h = std::thread::spawn(move || idx2.sync(&st2));
        // Readers may observe a prefix; they must never panic.
        for _ in 0..100 {
            let _ = idx.get(b"key0000");
        }
        h.join().unwrap();
        assert_eq!(idx.len(), 200);
    }
}
