//! A classic LevelDB-like LSM engine: the reference point every variant in
//! the paper diverges from.
//!
//! Write path (Figure 2): ① request → ② WAL append (durable) → ③ insert
//! into the shared, mutex-guarded MemTable + its skiplist → ④ rotate to an
//! Immutable MemTable when full → ⑤ flush to `L0` of the storage component.
//! The MemTable lives in DRAM; durability before flush comes from the WAL in
//! persistent memory.

use crate::kv::{Entry, EntryKind, Error, KvStore, Result};
use crate::memspace::DramSpace;
use crate::memtable::{Lookup, MemTable};
use crate::storage_component::{StorageComponent, StorageConfig};
use cachekv_cache::Hierarchy;
use cachekv_storage::{PmemAllocator, PmemObject, WalReader, WalWriter};
use parking_lot::Mutex;
use std::sync::Arc;

/// Fixed layout of the persistent address space used by the engines in this
/// repository.
#[derive(Debug, Clone, Copy)]
pub struct PmemLayout {
    /// Manifest region.
    pub manifest_base: u64,
    pub manifest_cap: u64,
    /// WAL region.
    pub wal_base: u64,
    pub wal_cap: u64,
    /// General allocation arena (tables, persistent MemTables, pools).
    pub arena_base: u64,
    pub arena_cap: u64,
}

impl PmemLayout {
    /// Carve a device of `capacity` bytes into manifest / WAL / arena.
    pub fn standard(capacity: u64) -> Self {
        let manifest_cap = 1 << 20;
        let wal_cap = 16 << 20;
        assert!(
            capacity > manifest_cap + wal_cap + (1 << 20),
            "device too small"
        );
        PmemLayout {
            manifest_base: 0,
            manifest_cap,
            wal_base: manifest_cap,
            wal_cap,
            arena_base: manifest_cap + wal_cap,
            arena_cap: capacity - manifest_cap - wal_cap,
        }
    }
}

/// Configuration of the reference engine.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// MemTable rotation threshold (8 MiB, as in LevelDB-era systems).
    pub memtable_bytes: u64,
    /// Storage component configuration.
    pub storage: StorageConfig,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 8 << 20,
            storage: StorageConfig::default(),
        }
    }
}

impl LsmConfig {
    /// Small config for tests.
    pub fn test_small() -> Self {
        LsmConfig {
            memtable_bytes: 32 << 10,
            storage: StorageConfig::test_small(),
        }
    }
}

/// WAL record: `[kind u8][seq u64][klen u16][key][value]`.
fn encode_wal(kind: EntryKind, seq: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(11 + key.len() + value.len());
    b.push(matches!(kind, EntryKind::Put) as u8);
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&(key.len() as u16).to_le_bytes());
    b.extend_from_slice(key);
    b.extend_from_slice(value);
    b
}

fn decode_wal(b: &[u8]) -> Result<(EntryKind, u64, Vec<u8>, Vec<u8>)> {
    if b.len() < 11 {
        return Err(Error::Corruption("WAL record truncated".into()));
    }
    let kind = if b[0] == 1 {
        EntryKind::Put
    } else {
        EntryKind::Delete
    };
    let seq = u64::from_le_bytes(b[1..9].try_into().unwrap());
    let klen = u16::from_le_bytes(b[9..11].try_into().unwrap()) as usize;
    if b.len() < 11 + klen {
        return Err(Error::Corruption("WAL record truncated".into()));
    }
    Ok((
        kind,
        seq,
        b[11..11 + klen].to_vec(),
        b[11 + klen..].to_vec(),
    ))
}

struct MemState {
    mem: MemTable<DramSpace>,
    wal: WalWriter,
}

/// The reference LevelDB-like engine.
pub struct LsmTree {
    hier: Arc<Hierarchy>,
    layout: PmemLayout,
    cfg: LsmConfig,
    mem: Mutex<MemState>,
    storage: StorageComponent,
}

impl LsmTree {
    /// Create a fresh store over `hier` using the standard layout.
    pub fn create(hier: Arc<Hierarchy>, cfg: LsmConfig) -> Self {
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        let storage = StorageComponent::create(
            hier.clone(),
            alloc,
            layout.manifest_base,
            layout.manifest_cap,
            cfg.storage.clone(),
        );
        let mem = MemState {
            mem: Self::fresh_memtable(&cfg),
            wal: Self::fresh_wal(&hier, &layout),
        };
        LsmTree {
            hier,
            layout,
            cfg,
            mem: Mutex::new(mem),
            storage,
        }
    }

    /// Recover after a crash: manifest replay rebuilds the levels, WAL
    /// replay rebuilds the MemTable.
    pub fn recover(hier: Arc<Hierarchy>, cfg: LsmConfig) -> Result<Self> {
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        let storage = StorageComponent::recover(
            hier.clone(),
            alloc,
            layout.manifest_base,
            layout.manifest_cap,
            cfg.storage.clone(),
        )?;
        // Replay the WAL region into a fresh MemTable.
        let scan = Arc::new(PmemObject::open(
            hier.clone(),
            layout.wal_base,
            layout.wal_cap,
            layout.wal_cap,
        ));
        let mut reader = WalReader::new(scan);
        let mut mem = Self::fresh_memtable(&cfg);
        let mut max_seq = 0u64;
        for rec in reader.by_ref() {
            let (kind, seq, key, value) = decode_wal(&rec)?;
            max_seq = max_seq.max(seq);
            match kind {
                EntryKind::Put => mem.put(&key, seq, &value)?,
                EntryKind::Delete => mem.delete(&key, seq)?,
            }
        }
        storage.versions().bump_seq_to(max_seq);
        let valid = reader.pos();
        let wal_obj = Arc::new(PmemObject::open(
            hier.clone(),
            layout.wal_base,
            layout.wal_cap,
            valid,
        ));
        let mem_state = MemState {
            mem,
            wal: WalWriter::new(wal_obj),
        };
        Ok(LsmTree {
            hier,
            layout,
            cfg,
            mem: Mutex::new(mem_state),
            storage,
        })
    }

    fn fresh_memtable(cfg: &LsmConfig) -> MemTable<DramSpace> {
        // Arena sized above the rotation budget so inserts never hit the
        // arena wall before `is_full` fires.
        MemTable::new(
            DramSpace::new((cfg.memtable_bytes * 2) as usize),
            cfg.memtable_bytes,
        )
    }

    fn fresh_wal(hier: &Arc<Hierarchy>, layout: &PmemLayout) -> WalWriter {
        // Invalidate the first record header so stale records do not replay.
        hier.store(layout.wal_base, &[0u8; 8]);
        hier.clwb(layout.wal_base, 8);
        hier.sfence();
        WalWriter::new(Arc::new(PmemObject::create(
            hier.clone(),
            layout.wal_base,
            layout.wal_cap,
        )))
    }

    fn write(&self, key: &[u8], value: &[u8], kind: EntryKind) -> Result<()> {
        let mut st = self.mem.lock();
        let seq = self.storage.versions().next_seq();
        st.wal.append(&encode_wal(kind, seq, key, value));
        match kind {
            EntryKind::Put => st.mem.put(key, seq, value)?,
            EntryKind::Delete => st.mem.delete(key, seq)?,
        }
        if st.mem.is_full() {
            // ④ rotate + ⑤ flush (synchronously; the paper's variants move
            // this off the critical path in their own ways).
            let imm = std::mem::replace(&mut st.mem, Self::fresh_memtable(&self.cfg));
            let entries: Vec<Entry> = imm.entries();
            self.storage.ingest(&entries)?;
            st.wal = Self::fresh_wal(&self.hier, &self.layout);
        }
        Ok(())
    }

    /// The storage component (for tests and reporting).
    pub fn storage(&self) -> &StorageComponent {
        &self.storage
    }
}

impl KvStore for LsmTree {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, EntryKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", EntryKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        {
            let st = self.mem.lock();
            match st.mem.get(key) {
                Lookup::Found(v) => return Ok(Some(v)),
                Lookup::Tombstone => return Ok(None),
                Lookup::NotFound => {}
            }
        }
        match self.storage.get(key) {
            Lookup::Found(v) => Ok(Some(v)),
            Lookup::Tombstone | Lookup::NotFound => Ok(None),
        }
    }

    fn name(&self) -> &'static str {
        "LevelDB-like"
    }

    fn quiesce(&self) {
        self.storage.wait_idle();
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

    #[test]
    fn put_get_delete_roundtrip() {
        let db = LsmTree::create(hier(), LsmConfig::test_small());
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        db.delete(b"alpha").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), None);
        assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn rotation_pushes_data_to_storage_and_reads_still_work() {
        let db = LsmTree::create(hier(), LsmConfig::test_small());
        for i in 0..3000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[7u8; 32]).unwrap();
        }
        db.quiesce();
        assert!(
            db.storage().level_tables().iter().sum::<usize>() > 0,
            "flushes happened"
        );
        for i in (0..3000u32).step_by(191) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(vec![7u8; 32])
            );
        }
    }

    #[test]
    fn overwrites_return_latest() {
        let db = LsmTree::create(hier(), LsmConfig::test_small());
        for round in 0..5u32 {
            for i in 0..500u32 {
                db.put(
                    format!("k{i:04}").as_bytes(),
                    format!("r{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        assert_eq!(db.get(b"k0123").unwrap(), Some(b"r4".to_vec()));
    }

    #[test]
    fn crash_recovery_replays_wal_and_manifest() {
        let h = hier();
        {
            let db = LsmTree::create(h.clone(), LsmConfig::test_small());
            for i in 0..2000u32 {
                db.put(
                    format!("key{i:06}").as_bytes(),
                    format!("val{i}").as_bytes(),
                )
                .unwrap();
            }
            db.quiesce();
        }
        h.power_fail();
        let db = LsmTree::recover(h, LsmConfig::test_small()).unwrap();
        for i in (0..2000u32).step_by(97) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(format!("val{i}").into_bytes()),
                "key{i} lost in crash"
            );
        }
        // New writes keep working with monotone sequence numbers.
        db.put(b"post-crash", b"ok").unwrap();
        assert_eq!(db.get(b"post-crash").unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn adr_crash_loses_nothing_thanks_to_wal() {
        // Even under ADR (volatile caches), the WAL's clwb+fence discipline
        // makes committed writes durable.
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled()
                .with_domain(cachekv_pmem::PersistDomain::Adr)
                .with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let h = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        {
            let db = LsmTree::create(h.clone(), LsmConfig::test_small());
            for i in 0..200u32 {
                db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
            }
        }
        h.power_fail();
        let db = LsmTree::recover(h, LsmConfig::test_small()).unwrap();
        for i in 0..200u32 {
            assert_eq!(
                db.get(format!("k{i:03}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = Arc::new(LsmTree::create(hier(), LsmConfig::test_small()));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let k = format!("t{t}-k{i:04}");
                    db.put(k.as_bytes(), k.as_bytes()).unwrap();
                    if i % 7 == 0 {
                        let _ = db.get(k.as_bytes()).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.quiesce();
        for t in 0..4u32 {
            let k = format!("t{t}-k0499");
            assert_eq!(db.get(k.as_bytes()).unwrap(), Some(k.clone().into_bytes()));
        }
    }
}
