//! A persistent MemTable: data log + skiplist index, both in PMem.
//!
//! This is the memory component NoveLSM-style systems use for in-place
//! durability: each write appends the KV record to a persistent data region
//! and then inserts `key → record offset` into a persistent skiplist. Under
//! the vanilla discipline every store is followed by `clflush`; the
//! `-w/o-flush` variants skip the flushes; the `-cache` variants pin the
//! data region into a CAT-locked cache segment.

use cachekv_cache::Hierarchy;
use cachekv_lsm::{
    decode_record_at, encode_record_into, meta_kind, record_len, Entry, EntryKind, FlushMode,
    Lookup, MemSpace, PmemSpace, Result, SkipList, RECORD_HDR,
};
use std::sync::Arc;

/// Persistent data log + persistent skiplist index.
///
/// Externally synchronized (callers hold the store mutex — the contention
/// the paper measures).
pub(crate) struct PmemMemTable {
    hier: Arc<Hierarchy>,
    data_base: u64,
    data_cap: u64,
    tail: u64,
    mode: FlushMode,
    /// Data region rides in a CAT-locked cache segment.
    locked: bool,
    index: SkipList<PmemSpace>,
    entries: usize,
    scratch: Vec<u8>,
}

impl PmemMemTable {
    /// Assemble over two pre-allocated regions: `data` (the record log) and
    /// `index` (the skiplist arena). If `lock_data_in_cache` is set, the
    /// data region is pinned with CAT and per-write flushes are skipped for
    /// it (the whole segment is flushed at rotation instead).
    pub(crate) fn new(
        hier: Arc<Hierarchy>,
        data: (u64, u64),
        index: (u64, u64),
        mode: FlushMode,
        lock_data_in_cache: bool,
    ) -> Self {
        if lock_data_in_cache {
            hier.cat_lock(data.0, data.1);
        }
        let index_space = PmemSpace::new(hier.clone(), index.0, index.1, mode);
        PmemMemTable {
            hier,
            data_base: data.0,
            data_cap: data.1,
            tail: 0,
            mode,
            locked: lock_data_in_cache,
            index: SkipList::new(index_space),
            entries: 0,
            scratch: Vec::with_capacity(256),
        }
    }

    /// Whether another `record_len` bytes fit.
    pub(crate) fn has_room(&self, key_len: usize, value_len: usize) -> bool {
        self.tail + record_len(key_len, value_len) as u64 <= self.data_cap
    }

    /// Stage 1: append the KV record to the persistent data log. Public so
    /// the store can time it separately (Figure 5(b) instrumentation).
    pub(crate) fn append_data(&mut self, key: &[u8], meta: u64, value: &[u8]) -> u64 {
        let off = self.tail;
        self.scratch.clear();
        encode_record_into(&mut self.scratch, key, meta, value);
        let addr = self.data_base + off;
        self.hier.store(addr, &self.scratch);
        if !self.locked {
            // Per-write durability for the unlocked data region.
            match self.mode {
                FlushMode::Clflush => {
                    self.hier.clflush(addr, self.scratch.len());
                    self.hier.sfence();
                }
                FlushMode::Clwb => {
                    self.hier.clwb(addr, self.scratch.len());
                    self.hier.sfence();
                }
                FlushMode::None => {}
            }
        }
        self.tail += self.scratch.len() as u64;
        off
    }

    /// Stage 2: insert `key → record offset` into the persistent skiplist.
    pub(crate) fn update_index(&mut self, key: &[u8], meta: u64, off: u64) -> Result<()> {
        self.index.insert(key, meta, &off.to_le_bytes())?;
        self.entries += 1;
        Ok(())
    }

    /// Probe for the newest version of `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Lookup {
        match self.index.get_latest(key) {
            None => Lookup::NotFound,
            Some((meta, refbytes)) => match meta_kind(meta) {
                EntryKind::Delete => Lookup::Tombstone,
                EntryKind::Put => {
                    let off = u64::from_le_bytes(refbytes[..8].try_into().unwrap());
                    let (entry, _) = self
                        .read_record(off)
                        .expect("index points at a valid record");
                    Lookup::Found(entry.value)
                }
            },
        }
    }

    fn read_record(&self, off: u64) -> Option<(Entry, usize)> {
        let hdr = self.hier.load_vec(self.data_base + off, RECORD_HDR);
        let klen = u16::from_le_bytes(hdr[0..2].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(hdr[2..6].try_into().unwrap()) as usize;
        if klen == 0 {
            return None;
        }
        let body = self
            .hier
            .load_vec(self.data_base + off, record_len(klen, vlen));
        decode_record_at(&body, 0)
    }

    /// All entries in internal (flush) order.
    pub(crate) fn entries(&self) -> Vec<Entry> {
        self.index
            .iter()
            .map(|e| {
                let off = u64::from_le_bytes(e.value[..8].try_into().unwrap());
                let (rec, _) = self.read_record(off).expect("indexed record readable");
                Entry {
                    key: e.key,
                    meta: e.meta,
                    value: rec.value,
                }
            })
            .collect()
    }

    /// Rotate out: flush the data segment if it was cache-locked, release
    /// the CAT region, and hand back sorted entries.
    pub(crate) fn seal(&mut self) -> Vec<Entry> {
        let out = self.entries();
        if self.locked {
            // Write the whole segment back with flush instructions, in
            // address order — the `-cache` variants' segment flush.
            self.hier.clflush(self.data_base, self.tail as usize);
            self.hier.sfence();
            self.hier.cat_unlock(self.data_base, self.data_cap);
            self.locked = false;
        }
        out
    }

    /// Regions backing this table: `(data, index)` as `(base, len)` pairs.
    pub(crate) fn regions(&self) -> ((u64, u64), (u64, u64)) {
        (
            (self.data_base, self.data_cap),
            (self.index.space().base(), self.index.space().capacity()),
        )
    }
}

impl Drop for PmemMemTable {
    fn drop(&mut self) {
        if self.locked {
            self.hier.cat_unlock(self.data_base, self.data_cap);
        }
    }
}

#[cfg(test)]
impl PmemMemTable {
    /// Append a record and index it. Returns `Err(OutOfSpace)` when either
    /// the data region or the index arena is exhausted (rotation time).
    pub(crate) fn insert(&mut self, key: &[u8], meta: u64, value: &[u8]) -> Result<()> {
        if !self.has_room(key.len(), value.len()) {
            return Err(cachekv_lsm::Error::OutOfSpace(
                "pmem memtable data region".into(),
            ));
        }
        let off = self.append_data(key, meta, value);
        self.update_index(key, meta, off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_lsm::pack_meta;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn hier() -> Arc<Hierarchy> {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        Arc::new(Hierarchy::new(dev, CacheConfig::small()))
    }

    fn table(h: &Arc<Hierarchy>, mode: FlushMode, locked: bool) -> PmemMemTable {
        PmemMemTable::new(h.clone(), (0, 1 << 20), (1 << 20, 1 << 20), mode, locked)
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = hier();
        let mut t = table(&h, FlushMode::Clflush, false);
        t.insert(b"alice", pack_meta(1, EntryKind::Put), b"in-pmem")
            .unwrap();
        assert_eq!(t.get(b"alice"), Lookup::Found(b"in-pmem".to_vec()));
        assert_eq!(t.get(b"bob"), Lookup::NotFound);
    }

    #[test]
    fn tombstone_and_overwrite() {
        let h = hier();
        let mut t = table(&h, FlushMode::Clflush, false);
        t.insert(b"k", pack_meta(1, EntryKind::Put), b"v1").unwrap();
        t.insert(b"k", pack_meta(2, EntryKind::Delete), b"")
            .unwrap();
        assert_eq!(t.get(b"k"), Lookup::Tombstone);
        t.insert(b"k", pack_meta(3, EntryKind::Put), b"v3").unwrap();
        assert_eq!(t.get(b"k"), Lookup::Found(b"v3".to_vec()));
    }

    #[test]
    fn clflush_mode_survives_adr_crash() {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled()
                .with_domain(cachekv_pmem::PersistDomain::Adr)
                .with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let h = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        let mut t = PmemMemTable::new(
            h.clone(),
            (0, 1 << 20),
            (1 << 20, 1 << 20),
            FlushMode::Clflush,
            false,
        );
        t.insert(b"durable", pack_meta(1, EntryKind::Put), b"yes")
            .unwrap();
        h.power_fail();
        // The data log is readable straight from the media after the crash.
        let rec = h.load_vec(0, 64);
        let (e, _) = decode_record_at(&rec, 0).unwrap();
        assert_eq!(e.key, b"durable");
        assert_eq!(e.value, b"yes");
    }

    #[test]
    fn entries_sorted_for_ingest() {
        let h = hier();
        let mut t = table(&h, FlushMode::None, false);
        t.insert(b"c", pack_meta(1, EntryKind::Put), b"3").unwrap();
        t.insert(b"a", pack_meta(2, EntryKind::Put), b"1").unwrap();
        t.insert(b"b", pack_meta(3, EntryKind::Put), b"2").unwrap();
        let keys: Vec<Vec<u8>> = t.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn capacity_exhaustion_signals_rotation() {
        let h = hier();
        let mut t = PmemMemTable::new(h, (0, 1024), (4096, 1 << 16), FlushMode::None, false);
        let mut filled = false;
        for i in 0..100u64 {
            if t.insert(
                format!("k{i:03}").as_bytes(),
                pack_meta(i, EntryKind::Put),
                &[0u8; 48],
            )
            .is_err()
            {
                filled = true;
                break;
            }
        }
        assert!(filled);
    }

    #[test]
    fn locked_segment_stays_cached_until_seal() {
        let h = hier();
        let mut t = table(&h, FlushMode::Clflush, true);
        t.insert(b"key1", pack_meta(1, EntryKind::Put), &[9u8; 64])
            .unwrap();
        // Data region writes did not reach the device (pinned, no flush)...
        // though index writes did (clflush mode).
        assert!(!h.cat_regions().is_empty());
        let before = h.pmem_stats().cpu_writes;
        let entries = t.seal();
        assert_eq!(entries.len(), 1);
        assert!(
            h.pmem_stats().cpu_writes > before,
            "seal flushed the segment"
        );
        assert!(h.cat_regions().is_empty(), "CAT region released");
    }

    #[test]
    fn drop_releases_cat_region() {
        let h = hier();
        {
            let _t = table(&h, FlushMode::Clflush, true);
            assert_eq!(h.cat_regions().len(), 1);
        }
        assert!(h.cat_regions().is_empty());
    }
}
