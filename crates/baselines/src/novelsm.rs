//! A NoveLSM-like store (Kannan et al., ATC'18) and its two paper variants.
//!
//! NoveLSM's headline idea: keep a large *mutable* MemTable directly in PMem
//! so writes are durable in place — no WAL — and fewer flushes to the
//! storage component are needed. Every write takes the shared MemTable
//! mutex, appends the record to the persistent data log, and synchronously
//! updates the persistent skiplist; the vanilla system issues
//! `store`+`clflush` for each step (Section II-C).
//!
//! Variants (Section IV-A):
//! * `NoveLSM-w/o-flush` — flush instructions removed, relying on eADR;
//! * `NoveLSM-cache` — the MemTable is split into segments pinned in
//!   CAT-locked cache space; a full segment is flushed with `clflush` and
//!   the next segment takes over.

use crate::breakdown::WriteBreakdown;
use crate::pmem_memtable::PmemMemTable;
use crate::{BaselineOptions, CacheUse};
use cachekv_cache::Hierarchy;
use cachekv_lsm::{
    pack_meta, EntryKind, Error, FlushMode, KvStore, Lookup, PmemLayout, Result, StorageComponent,
    StorageConfig,
};
use cachekv_storage::PmemAllocator;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Inner {
    mt: PmemMemTable,
    mt_regions: ((u64, u64), (u64, u64)),
}

/// The NoveLSM-like baseline.
pub struct NoveLsm {
    hier: Arc<Hierarchy>,
    alloc: Arc<PmemAllocator>,
    opts: BaselineOptions,
    inner: Mutex<Inner>,
    storage: StorageComponent,
    breakdown: WriteBreakdown,
    name: &'static str,
}

impl NoveLsm {
    /// Create with explicit options (see [`BaselineOptions`] presets).
    pub fn new(hier: Arc<Hierarchy>, opts: BaselineOptions, storage: StorageConfig) -> Self {
        let name = match (opts.flush_mode, opts.cache_use) {
            (_, CacheUse::LockedSegments) => "NoveLSM-cache",
            (FlushMode::None, _) => "NoveLSM-w/o-flush",
            _ => "NoveLSM",
        };
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        let storage = StorageComponent::create(
            hier.clone(),
            alloc.clone(),
            layout.manifest_base,
            layout.manifest_cap,
            storage,
        );
        let mt = Self::fresh_memtable(&hier, &alloc, &opts);
        let mt_regions = mt.regions();
        NoveLsm {
            hier,
            alloc,
            opts,
            inner: Mutex::new(Inner { mt, mt_regions }),
            storage,
            breakdown: WriteBreakdown::default(),
            name,
        }
    }

    fn fresh_memtable(
        hier: &Arc<Hierarchy>,
        alloc: &Arc<PmemAllocator>,
        opts: &BaselineOptions,
    ) -> PmemMemTable {
        // For the `-cache` variant the active unit is one segment; otherwise
        // the whole MemTable data region.
        let locked = opts.cache_use == CacheUse::LockedSegments;
        let data_bytes = if locked {
            opts.segment_bytes.min(opts.memtable_bytes)
        } else {
            opts.memtable_bytes
        };
        // Skiplist nodes are smaller than records; equal sizing is generous.
        let index_bytes = data_bytes.max(1 << 16) * 2;
        let data = alloc
            .alloc(data_bytes)
            .expect("NoveLSM memtable data region");
        let index = alloc
            .alloc(index_bytes)
            .expect("NoveLSM memtable index region");
        PmemMemTable::new(
            hier.clone(),
            (data, data_bytes),
            (index, index_bytes),
            opts.flush_mode,
            locked,
        )
    }

    fn rotate(&self, inner: &mut Inner) -> Result<()> {
        let entries = inner.mt.seal();
        self.storage.ingest(&entries)?;
        let ((db, dl), (ib, il)) = inner.mt_regions;
        let fresh = Self::fresh_memtable(&self.hier, &self.alloc, &self.opts);
        let fresh_regions = fresh.regions();
        inner.mt = fresh; // drop order: old table releases CAT before alloc reuse
        self.alloc.free(db, dl);
        self.alloc.free(ib, il);
        inner.mt_regions = fresh_regions;
        Ok(())
    }

    fn write(&self, key: &[u8], value: &[u8], kind: EntryKind) -> Result<()> {
        let t_lock = std::time::Instant::now();
        let mut inner = self.inner.lock();
        self.breakdown
            .lock_wait_ns
            .fetch_add(t_lock.elapsed().as_nanos() as u64, Ordering::Relaxed);

        let seq = self.storage.versions().next_seq();
        let meta = pack_meta(seq, kind);
        if !inner.mt.has_room(key.len(), value.len()) {
            WriteBreakdown::timed(&self.breakdown.other_ns, || self.rotate(&mut inner))?;
        }
        let off = WriteBreakdown::timed(&self.breakdown.data_write_ns, || {
            inner.mt.append_data(key, meta, value)
        });
        let index_res = WriteBreakdown::timed(&self.breakdown.index_update_ns, || {
            inner.mt.update_index(key, meta, off)
        });
        if let Err(Error::OutOfSpace(_)) = &index_res {
            // Index arena filled before the data region: rotate and retry.
            WriteBreakdown::timed(&self.breakdown.other_ns, || self.rotate(&mut inner))?;
            let off = inner.mt.append_data(key, meta, value);
            inner.mt.update_index(key, meta, off)?;
        } else {
            index_res?;
        }
        self.breakdown.count_write();
        Ok(())
    }

    /// Write-path latency breakdown (Figure 5(b)).
    pub fn breakdown(&self) -> &WriteBreakdown {
        &self.breakdown
    }
}

impl KvStore for NoveLsm {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, EntryKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", EntryKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        {
            let inner = self.inner.lock();
            match inner.mt.get(key) {
                Lookup::Found(v) => return Ok(Some(v)),
                Lookup::Tombstone => return Ok(None),
                Lookup::NotFound => {}
            }
        }
        match self.storage.get(key) {
            Lookup::Found(v) => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn quiesce(&self) {
        self.storage.wait_idle();
    }

    fn snapshot_json(&self) -> Option<String> {
        let mut memory = cachekv_obs::MetricsExport::default();
        self.breakdown.snapshot().export_into(&mut memory);
        Some(
            cachekv_obs::StatsSnapshot {
                system: self.name.to_string(),
                device: self.hier.pmem_stats(),
                cache: self.hier.cache_stats(),
                memory,
                lsm: self.storage.export_metrics(),
            }
            .to_json_string(),
        )
    }
}

#[cfg(test)]
impl NoveLsm {
    fn hier_regions(&self) -> usize {
        self.hier.cat_regions().len()
    }

    /// Vanilla NoveLSM: PMem MemTable, `clflush` per write.
    pub(crate) fn vanilla(
        hier: Arc<Hierarchy>,
        memtable_bytes: u64,
        storage: StorageConfig,
    ) -> Self {
        Self::new(
            hier,
            BaselineOptions::vanilla().with_memtable_bytes(memtable_bytes),
            storage,
        )
    }

    /// `NoveLSM-w/o-flush`.
    pub(crate) fn without_flush(
        hier: Arc<Hierarchy>,
        memtable_bytes: u64,
        storage: StorageConfig,
    ) -> Self {
        Self::new(
            hier,
            BaselineOptions::without_flush().with_memtable_bytes(memtable_bytes),
            storage,
        )
    }

    /// The storage component (tests / reporting).
    pub(crate) fn storage(&self) -> &StorageComponent {
        &self.storage
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

    fn small_store(kind: &str) -> NoveLsm {
        let h = hier();
        let cfg = StorageConfig::test_small();
        match kind {
            "vanilla" => NoveLsm::vanilla(h, 64 << 10, cfg),
            "noflush" => NoveLsm::without_flush(h, 64 << 10, cfg),
            "cache" => NoveLsm::new(
                h,
                BaselineOptions::cache()
                    .with_memtable_bytes(64 << 10)
                    .with_segment_bytes(16 << 10),
                cfg,
            ),
            _ => unreachable!(),
        }
    }

    #[test]
    fn put_get_delete_all_variants() {
        for kind in ["vanilla", "noflush", "cache"] {
            let db = small_store(kind);
            db.put(b"alpha", b"1").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()), "{kind}");
            db.delete(b"alpha").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), None, "{kind}");
        }
    }

    #[test]
    fn rotation_preserves_data() {
        for kind in ["vanilla", "cache"] {
            let db = small_store(kind);
            for i in 0..2000u32 {
                db.put(format!("key{i:06}").as_bytes(), &[3u8; 48]).unwrap();
            }
            db.quiesce();
            assert!(
                db.storage().level_tables().iter().sum::<usize>() > 0,
                "{kind}: rotated"
            );
            for i in (0..2000u32).step_by(137) {
                assert_eq!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap(),
                    Some(vec![3u8; 48]),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn vanilla_flushes_every_write_but_noflush_does_not() {
        let h1 = hier();
        let v = NoveLsm::vanilla(h1.clone(), 1 << 20, StorageConfig::test_small());
        v.put(b"a-key-000000000", &[9u8; 64]).unwrap();
        assert!(
            h1.pmem_stats().cpu_writes > 0,
            "vanilla pushed lines to the device"
        );

        let h2 = hier();
        let n = NoveLsm::without_flush(h2.clone(), 1 << 20, StorageConfig::test_small());
        n.put(b"a-key-000000000", &[9u8; 64]).unwrap();
        assert_eq!(
            h2.pmem_stats().cpu_writes,
            0,
            "w/o-flush kept lines in cache"
        );
    }

    #[test]
    fn breakdown_is_populated() {
        let db = small_store("vanilla");
        for i in 0..200u32 {
            db.put(format!("k{i:05}").as_bytes(), &[1u8; 32]).unwrap();
        }
        let b = db.breakdown().snapshot();
        assert_eq!(b.writes, 200);
        assert!(b.index_update_ns > 0);
        assert!(b.data_write_ns > 0);
    }

    #[test]
    fn concurrent_writers_share_the_mutex_safely() {
        let db = Arc::new(small_store("vanilla"));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..300u32 {
                    db.put(format!("t{t}k{i:05}").as_bytes(), b"v").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.quiesce();
        for t in 0..4u32 {
            assert_eq!(
                db.get(format!("t{t}k00299").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
        assert!(
            db.breakdown().snapshot().lock_wait_ns > 0,
            "contention measured"
        );
    }

    #[test]
    fn cache_variant_pins_then_releases_segments() {
        let db = small_store("cache");
        assert_eq!(db.hier_regions(), 1);
        for i in 0..1500u32 {
            db.put(format!("key{i:06}").as_bytes(), &[3u8; 48]).unwrap();
        }
        // Still exactly one active pinned segment after rotations.
        assert_eq!(db.hier_regions(), 1);
    }
}
