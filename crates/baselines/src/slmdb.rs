//! An SLM-DB-like store (Kaiyrakhmet et al., FAST'19) and its two variants.
//!
//! SLM-DB's design: a persistent MemTable absorbs writes without a WAL; the
//! storage side is a *single-level* collection of tables (no leveled
//! compaction traffic), and a global B+-tree in PMem maps every key to its
//! exact location, replacing multi-level lookups. A selective-compaction
//! (garbage collection) pass rewrites tables whose live ratio drops.
//!
//! The global mutex around the MemTable + B+-tree reproduces the limited
//! access parallelism the paper observes for SLM-DB (Exp#3 discussion).

use crate::bptree::{BpTree, VAL};
use crate::breakdown::WriteBreakdown;
use crate::pmem_memtable::PmemMemTable;
use crate::{BaselineOptions, CacheUse};
use cachekv_cache::Hierarchy;
use cachekv_lsm::{
    build_table, pack_meta, record_len, Entry, EntryKind, KvStore, Lookup, PmemLayout, Result,
    TableHandle, TableMeta, TableOptions, RECORD_HDR,
};
use cachekv_storage::PmemAllocator;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const TOMBSTONE_FLAG: u32 = 1;

/// Encode a B+-tree payload: `[addr u64][len u32][flags u32]`.
fn encode_loc(addr: u64, len: u32, flags: u32) -> [u8; VAL] {
    let mut v = [0u8; VAL];
    v[0..8].copy_from_slice(&addr.to_le_bytes());
    v[8..12].copy_from_slice(&len.to_le_bytes());
    v[12..16].copy_from_slice(&flags.to_le_bytes());
    v
}

fn decode_loc(v: &[u8; VAL]) -> (u64, u32, u32) {
    (
        u64::from_le_bytes(v[0..8].try_into().unwrap()),
        u32::from_le_bytes(v[8..12].try_into().unwrap()),
        u32::from_le_bytes(v[12..16].try_into().unwrap()),
    )
}

struct SlmTable {
    meta: TableMeta,
    /// Bytes of entries whose B+-tree pointer has been superseded.
    garbage: u64,
}

struct Inner {
    mt: PmemMemTable,
    mt_regions: ((u64, u64), (u64, u64)),
    index: BpTree,
    tables: Vec<SlmTable>,
    next_table_id: u64,
    seq: u64,
}

/// The SLM-DB-like baseline.
pub struct SlmDb {
    hier: Arc<Hierarchy>,
    alloc: Arc<PmemAllocator>,
    opts: BaselineOptions,
    table_opts: TableOptions,
    inner: Mutex<Inner>,
    breakdown: WriteBreakdown,
    name: &'static str,
    /// GC a table once garbage exceeds this fraction of its bytes.
    gc_threshold: f64,
}

impl SlmDb {
    /// Create with explicit variant options.
    pub fn new(hier: Arc<Hierarchy>, opts: BaselineOptions) -> Self {
        let name = match (opts.flush_mode, opts.cache_use) {
            (_, CacheUse::LockedSegments) => "SLM-DB-cache",
            (cachekv_lsm::FlushMode::None, _) => "SLM-DB-w/o-flush",
            _ => "SLM-DB",
        };
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        // Global B+-tree region: sized for the whole key population.
        let bp_bytes = (layout.arena_cap / 4).max(8 << 20);
        let bp_base = alloc.alloc(bp_bytes).expect("B+-tree region");
        let index = BpTree::create(cachekv_lsm::PmemSpace::new(
            hier.clone(),
            bp_base,
            bp_bytes,
            opts.flush_mode,
        ));
        let mt = Self::fresh_memtable(&hier, &alloc, &opts);
        let mt_regions = mt.regions();
        SlmDb {
            hier,
            alloc,
            table_opts: TableOptions::default(),
            inner: Mutex::new(Inner {
                mt,
                mt_regions,
                index,
                tables: Vec::new(),
                next_table_id: 1,
                seq: 0,
            }),
            breakdown: WriteBreakdown::default(),
            name,
            gc_threshold: 0.5,
            opts,
        }
    }

    fn fresh_memtable(
        hier: &Arc<Hierarchy>,
        alloc: &Arc<PmemAllocator>,
        opts: &BaselineOptions,
    ) -> PmemMemTable {
        let locked = opts.cache_use == CacheUse::LockedSegments;
        let data_bytes = if locked {
            opts.segment_bytes.min(opts.memtable_bytes)
        } else {
            opts.memtable_bytes
        };
        let index_bytes = data_bytes.max(1 << 16) * 2;
        let data = alloc
            .alloc(data_bytes)
            .expect("SLM-DB memtable data region");
        let index = alloc
            .alloc(index_bytes)
            .expect("SLM-DB memtable index region");
        PmemMemTable::new(
            hier.clone(),
            (data, data_bytes),
            (index, index_bytes),
            opts.flush_mode,
            locked,
        )
    }

    /// Per-entry *record* offsets within a table encoded from `entries`
    /// (records are laid out contiguously in encode order).
    fn record_offsets(entries: &[Entry]) -> Vec<u64> {
        let mut offs = Vec::with_capacity(entries.len());
        let mut cum = 0u64;
        for e in entries {
            offs.push(cum);
            cum += record_len(e.key.len(), e.value.len()) as u64;
        }
        offs
    }

    /// Flush the MemTable into a new single-level table and point the global
    /// B+-tree at every entry.
    fn flush_locked(&self, inner: &mut Inner) -> Result<()> {
        let entries = inner.mt.seal();
        if !entries.is_empty() {
            let id = inner.next_table_id;
            inner.next_table_id += 1;
            let meta = build_table(&self.hier, &self.alloc, id, &entries, &self.table_opts)?;
            let offs = Self::record_offsets(&entries);
            // Internal order is newest-first per key: only the first
            // occurrence of a key gets indexed; shadowed versions are
            // garbage in the new table from birth.
            let mut own_garbage = 0u64;
            let mut prev_key: Option<&[u8]> = None;
            for (e, off) in entries.iter().zip(&offs) {
                if prev_key == Some(e.key.as_slice()) {
                    own_garbage += e.value.len() as u64;
                    continue;
                }
                prev_key = Some(e.key.as_slice());
                let (addr, len, flags) = match e.kind() {
                    EntryKind::Put => (
                        meta.base + off + RECORD_HDR as u64 + e.key.len() as u64,
                        e.value.len() as u32,
                        0,
                    ),
                    EntryKind::Delete => (0, 0, TOMBSTONE_FLAG),
                };
                let old = inner.index.insert(&e.key, &encode_loc(addr, len, flags))?;
                if let Some(old) = old {
                    Self::account_garbage(&mut inner.tables, &old);
                }
            }
            inner.tables.push(SlmTable {
                meta,
                garbage: own_garbage,
            });
        }
        // Fresh MemTable; recycle the old regions.
        let ((db, dl), (ib, il)) = inner.mt_regions;
        let fresh = Self::fresh_memtable(&self.hier, &self.alloc, &self.opts);
        let fresh_regions = fresh.regions();
        inner.mt = fresh;
        self.alloc.free(db, dl);
        self.alloc.free(ib, il);
        inner.mt_regions = fresh_regions;
        self.maybe_gc_locked(inner)
    }

    fn account_garbage(tables: &mut [SlmTable], old: &[u8; VAL]) {
        let (addr, len, flags) = decode_loc(old);
        if flags & TOMBSTONE_FLAG != 0 || len == 0 {
            return;
        }
        if let Some(t) = tables
            .iter_mut()
            .find(|t| addr >= t.meta.base && addr < t.meta.base + t.meta.len)
        {
            t.garbage += len as u64;
        }
    }

    /// Selective compaction: rewrite any table whose garbage ratio exceeds
    /// the threshold, keeping only entries the B+-tree still points into it.
    fn maybe_gc_locked(&self, inner: &mut Inner) -> Result<()> {
        let mut i = 0;
        while i < inner.tables.len() {
            let ratio = inner.tables[i].garbage as f64 / inner.tables[i].meta.len as f64;
            if ratio <= self.gc_threshold {
                i += 1;
                continue;
            }
            let old_meta = inner.tables.remove(i).meta;
            let handle = TableHandle::open(self.hier.clone(), old_meta.clone())?;
            let mut live: Vec<Entry> = Vec::new();
            let mut cum = 0u64;
            for e in handle.iter() {
                let value_addr = old_meta.base + cum + RECORD_HDR as u64 + e.key.len() as u64;
                cum += record_len(e.key.len(), e.value.len()) as u64;
                if e.kind() == EntryKind::Delete {
                    continue;
                }
                if let Some(loc) = inner.index.get(&e.key) {
                    let (addr, _, flags) = decode_loc(&loc);
                    if flags & TOMBSTONE_FLAG == 0 && addr == value_addr {
                        live.push(e);
                    }
                }
            }
            if !live.is_empty() {
                let id = inner.next_table_id;
                inner.next_table_id += 1;
                let meta = build_table(&self.hier, &self.alloc, id, &live, &self.table_opts)?;
                let offs = Self::record_offsets(&live);
                for (e, off) in live.iter().zip(&offs) {
                    let addr = meta.base + off + RECORD_HDR as u64 + e.key.len() as u64;
                    inner
                        .index
                        .insert(&e.key, &encode_loc(addr, e.value.len() as u32, 0))?;
                }
                inner.tables.insert(i, SlmTable { meta, garbage: 0 });
                i += 1;
            }
            self.alloc.free(old_meta.base, old_meta.len);
        }
        Ok(())
    }

    /// Number of single-level tables currently live (tests).
    pub(crate) fn table_count(&self) -> usize {
        self.inner.lock().tables.len()
    }

    fn write(&self, key: &[u8], value: &[u8], kind: EntryKind) -> Result<()> {
        let t_lock = std::time::Instant::now();
        let mut inner = self.inner.lock();
        self.breakdown
            .lock_wait_ns
            .fetch_add(t_lock.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.seq += 1;
        let meta = pack_meta(inner.seq, kind);
        if !inner.mt.has_room(key.len(), value.len()) {
            WriteBreakdown::timed(&self.breakdown.other_ns, || self.flush_locked(&mut inner))?;
        }
        let off = WriteBreakdown::timed(&self.breakdown.data_write_ns, || {
            inner.mt.append_data(key, meta, value)
        });
        let res = WriteBreakdown::timed(&self.breakdown.index_update_ns, || {
            inner.mt.update_index(key, meta, off)
        });
        if res.is_err() {
            WriteBreakdown::timed(&self.breakdown.other_ns, || self.flush_locked(&mut inner))?;
            let off = inner.mt.append_data(key, meta, value);
            inner.mt.update_index(key, meta, off)?;
        }
        self.breakdown.count_write();
        Ok(())
    }
}

impl KvStore for SlmDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, EntryKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", EntryKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = self.inner.lock();
        match inner.mt.get(key) {
            Lookup::Found(v) => return Ok(Some(v)),
            Lookup::Tombstone => return Ok(None),
            Lookup::NotFound => {}
        }
        match inner.index.get(key) {
            None => Ok(None),
            Some(loc) => {
                let (addr, len, flags) = decode_loc(&loc);
                if flags & TOMBSTONE_FLAG != 0 {
                    return Ok(None);
                }
                Ok(Some(self.hier.load_vec(addr, len as usize)))
            }
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn snapshot_json(&self) -> Option<String> {
        let mut memory = cachekv_obs::MetricsExport::default();
        self.breakdown.snapshot().export_into(&mut memory);
        // SLM-DB's single-level table set stands in for the LSM layer.
        let mut lsm = cachekv_obs::MetricsExport::default();
        lsm.insert_gauge("slmdb.tables", self.table_count() as i64);
        Some(
            cachekv_obs::StatsSnapshot {
                system: self.name.to_string(),
                device: self.hier.pmem_stats(),
                cache: self.hier.cache_stats(),
                memory,
                lsm,
            }
            .to_json_string(),
        )
    }
}

#[cfg(test)]
impl SlmDb {
    /// Vanilla SLM-DB.
    pub(crate) fn vanilla(hier: Arc<Hierarchy>, memtable_bytes: u64) -> Self {
        Self::new(
            hier,
            BaselineOptions::vanilla().with_memtable_bytes(memtable_bytes),
        )
    }

    /// `SLM-DB-w/o-flush`.
    pub(crate) fn without_flush(hier: Arc<Hierarchy>, memtable_bytes: u64) -> Self {
        Self::new(
            hier,
            BaselineOptions::without_flush().with_memtable_bytes(memtable_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn hier() -> Arc<Hierarchy> {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        Arc::new(Hierarchy::new(dev, CacheConfig::paper()))
    }

    fn small(kind: &str) -> SlmDb {
        let h = hier();
        match kind {
            "vanilla" => SlmDb::vanilla(h, 16 << 10),
            "noflush" => SlmDb::without_flush(h, 16 << 10),
            "cache" => SlmDb::new(
                h,
                BaselineOptions::cache()
                    .with_memtable_bytes(64 << 10)
                    .with_segment_bytes(16 << 10),
            ),
            _ => unreachable!(),
        }
    }

    #[test]
    fn put_get_delete_all_variants() {
        for kind in ["vanilla", "noflush", "cache"] {
            let db = small(kind);
            db.put(b"alpha", b"1").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()), "{kind}");
            db.delete(b"alpha").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), None, "{kind}");
        }
    }

    #[test]
    fn flush_moves_data_into_tables_and_bptree_serves_reads() {
        let db = small("vanilla");
        for i in 0..2000u32 {
            db.put(
                format!("key{i:06}").as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        assert!(db.table_count() > 0, "memtable rotated into tables");
        for i in (0..2000u32).step_by(83) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("val{i}").into_bytes())
            );
        }
    }

    #[test]
    fn overwrites_read_latest_after_flush() {
        let db = small("vanilla");
        for round in 0..4u32 {
            for i in 0..800u32 {
                db.put(
                    format!("k{i:05}").as_bytes(),
                    format!("r{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        assert_eq!(db.get(b"k00400").unwrap(), Some(b"r3".to_vec()));
    }

    #[test]
    fn gc_reclaims_mostly_dead_tables() {
        let db = small("vanilla");
        // Hammer the same small key set so earlier tables rot.
        for round in 0..12u32 {
            for i in 0..600u32 {
                db.put(
                    format!("k{i:05}").as_bytes(),
                    format!("round{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        // Every key still readable at its newest value.
        for i in (0..600u32).step_by(61) {
            assert_eq!(
                db.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(b"round11".to_vec())
            );
        }
        // GC kept the table set bounded well below one-table-per-flush.
        assert!(db.table_count() < 12, "GC ran: {} tables", db.table_count());
    }

    #[test]
    fn deleted_keys_stay_deleted_across_flush() {
        let db = small("vanilla");
        for i in 0..1200u32 {
            db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"key000100").unwrap();
        // Force the tombstone through a flush.
        for i in 2000..3500u32 {
            db.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(db.get(b"key000100").unwrap(), None);
        assert_eq!(db.get(b"key000101").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let db = Arc::new(small("vanilla"));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..300u32 {
                    let k = format!("t{t}k{i:05}");
                    db.put(k.as_bytes(), k.as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u32 {
            let k = format!("t{t}k00299");
            assert_eq!(db.get(k.as_bytes()).unwrap(), Some(k.into_bytes()));
        }
    }
}
