//! Leveled table organization, version edits, and the persistent manifest.
//!
//! `L0` holds partially-sorted (mutually overlapping) tables in flush order;
//! `L1+` hold fully-sorted, non-overlapping runs — the classic structure of
//! the paper's Figure 2. Every structural change is a [`VersionEdit`]
//! appended to a manifest log before it takes effect, so the level structure
//! is rebuildable after a crash.

use crate::kv::{Error, Result};
use crate::sstable::{TableHandle, TableMeta};
use cachekv_cache::Hierarchy;
use cachekv_storage::{PmemAllocator, PmemObject, WalReader, WalWriter};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One immutable snapshot of the level structure.
#[derive(Default)]
pub struct Version {
    /// `levels[0]` ordered oldest-first (search newest-first by reversing);
    /// `levels[1..]` sorted by smallest key, non-overlapping.
    pub levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// Create an empty version with `n` levels.
    pub(crate) fn empty(n: usize) -> Self {
        Version {
            levels: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Total bytes of tables in `level`.
    pub(crate) fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|t| t.meta.len).sum()
    }

    /// Tables in `level` overlapping the user-key range `[lo, hi]`.
    pub(crate) fn overlapping(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<TableHandle>> {
        self.levels[level]
            .iter()
            .filter(|t| t.meta.smallest.as_slice() <= hi && t.meta.largest.as_slice() >= lo)
            .cloned()
            .collect()
    }
}

/// A structural change, durably logged before application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VersionEdit {
    /// A new table enters `level`.
    AddTable { level: u32, meta: TableMeta },
    /// Table `id` leaves `level` (space reclaimed when last reader drops).
    RemoveTable { level: u32, id: u64 },
}

impl VersionEdit {
    /// Encode for the manifest log.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            VersionEdit::AddTable { level, meta } => {
                b.push(1);
                b.extend_from_slice(&level.to_le_bytes());
                b.extend_from_slice(&meta.id.to_le_bytes());
                b.extend_from_slice(&meta.base.to_le_bytes());
                b.extend_from_slice(&meta.len.to_le_bytes());
                b.extend_from_slice(&meta.entries.to_le_bytes());
                b.extend_from_slice(&meta.max_seq.to_le_bytes());
                b.extend_from_slice(&(meta.smallest.len() as u16).to_le_bytes());
                b.extend_from_slice(&meta.smallest);
                b.extend_from_slice(&(meta.largest.len() as u16).to_le_bytes());
                b.extend_from_slice(&meta.largest);
            }
            VersionEdit::RemoveTable { level, id } => {
                b.push(2);
                b.extend_from_slice(&level.to_le_bytes());
                b.extend_from_slice(&id.to_le_bytes());
            }
        }
        b
    }

    /// Decode a manifest record.
    pub(crate) fn decode(b: &[u8]) -> Result<Self> {
        let bad = || Error::Corruption("manifest record truncated".into());
        if b.is_empty() {
            return Err(bad());
        }
        match b[0] {
            1 => {
                if b.len() < 47 {
                    return Err(bad());
                }
                let level = u32::from_le_bytes(b[1..5].try_into().unwrap());
                let id = u64::from_le_bytes(b[5..13].try_into().unwrap());
                let base = u64::from_le_bytes(b[13..21].try_into().unwrap());
                let len = u64::from_le_bytes(b[21..29].try_into().unwrap());
                let entries = u64::from_le_bytes(b[29..37].try_into().unwrap());
                let max_seq = u64::from_le_bytes(b[37..45].try_into().unwrap());
                let klen = u16::from_le_bytes(b[45..47].try_into().unwrap()) as usize;
                if b.len() < 47 + klen + 2 {
                    return Err(bad());
                }
                let smallest = b[47..47 + klen].to_vec();
                let p = 47 + klen;
                let llen = u16::from_le_bytes(b[p..p + 2].try_into().unwrap()) as usize;
                if b.len() < p + 2 + llen {
                    return Err(bad());
                }
                let largest = b[p + 2..p + 2 + llen].to_vec();
                Ok(VersionEdit::AddTable {
                    level,
                    meta: TableMeta {
                        id,
                        base,
                        len,
                        smallest,
                        largest,
                        entries,
                        max_seq,
                    },
                })
            }
            2 => {
                if b.len() < 13 {
                    return Err(bad());
                }
                let level = u32::from_le_bytes(b[1..5].try_into().unwrap());
                let id = u64::from_le_bytes(b[5..13].try_into().unwrap());
                Ok(VersionEdit::RemoveTable { level, id })
            }
            t => Err(Error::Corruption(format!(
                "unknown manifest record type {t}"
            ))),
        }
    }
}

/// Owns the current [`Version`], the manifest, and table-id/seq allocation.
pub struct VersionSet {
    hier: Arc<Hierarchy>,
    alloc: Arc<PmemAllocator>,
    current: RwLock<Arc<Version>>,
    manifest: WalWriter,
    next_table_id: AtomicU64,
    last_seq: AtomicU64,
    num_levels: usize,
}

impl VersionSet {
    /// Create a fresh set whose manifest lives in `[manifest_base,
    /// manifest_base+manifest_cap)`.
    pub(crate) fn create(
        hier: Arc<Hierarchy>,
        alloc: Arc<PmemAllocator>,
        manifest_base: u64,
        manifest_cap: u64,
        num_levels: usize,
    ) -> Self {
        let obj = Arc::new(PmemObject::create(
            hier.clone(),
            manifest_base,
            manifest_cap,
        ));
        VersionSet {
            hier,
            alloc,
            current: RwLock::new(Arc::new(Version::empty(num_levels))),
            manifest: WalWriter::new(obj),
            next_table_id: AtomicU64::new(1),
            last_seq: AtomicU64::new(0),
            num_levels,
        }
    }

    /// Rebuild the set after a crash by replaying the manifest region. Live
    /// table regions are re-reserved from `alloc`.
    pub(crate) fn recover(
        hier: Arc<Hierarchy>,
        alloc: Arc<PmemAllocator>,
        manifest_base: u64,
        manifest_cap: u64,
        num_levels: usize,
    ) -> Result<Self> {
        // Scan the whole manifest region; CRCs delimit the valid prefix.
        let scan = Arc::new(PmemObject::open(
            hier.clone(),
            manifest_base,
            manifest_cap,
            manifest_cap,
        ));
        let mut reader = WalReader::new(scan);
        let mut live: BTreeMap<u64, (u32, TableMeta)> = BTreeMap::new();
        let mut max_id = 0u64;
        let mut valid_len = 0u64;
        while let Some(rec) = reader.next() {
            let edit = VersionEdit::decode(&rec)?;
            match edit {
                VersionEdit::AddTable { level, meta } => {
                    max_id = max_id.max(meta.id);
                    live.insert(meta.id, (level, meta));
                }
                VersionEdit::RemoveTable { id, .. } => {
                    live.remove(&id);
                }
            }
            valid_len = reader.pos();
        }
        let mut version = Version::empty(num_levels);
        let mut last_seq = 0u64;
        for (_, (level, meta)) in live {
            alloc.reserve(meta.base, meta.len);
            last_seq = last_seq.max(meta.max_seq);
            let handle = Arc::new(TableHandle::open(hier.clone(), meta)?);
            version.levels[level as usize].push(handle);
        }
        for level in version.levels[1..].iter_mut() {
            level.sort_by(|a, b| a.meta.smallest.cmp(&b.meta.smallest));
        }
        // L0 recency order: older tables have smaller ids.
        version.levels[0].sort_by_key(|t| t.meta.id);
        let writer_obj = Arc::new(PmemObject::open(
            hier.clone(),
            manifest_base,
            manifest_cap,
            valid_len,
        ));
        Ok(VersionSet {
            hier,
            alloc,
            current: RwLock::new(Arc::new(version)),
            manifest: WalWriter::new(writer_obj),
            next_table_id: AtomicU64::new(max_id + 1),
            last_seq: AtomicU64::new(last_seq),
            num_levels,
        })
    }

    /// The current version snapshot.
    pub fn current(&self) -> Arc<Version> {
        self.current.read().clone()
    }

    /// Allocate a fresh table id.
    pub(crate) fn new_table_id(&self) -> u64 {
        self.next_table_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate the next sequence number.
    pub fn next_seq(&self) -> u64 {
        self.last_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Highest sequence number issued (or observed during recovery).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Record that sequence numbers up to `seq` are in use (WAL replay).
    pub fn bump_seq_to(&self, seq: u64) {
        self.last_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Durably log `edits`, then apply them to produce a new current
    /// version. Removed tables are handed back to the allocator once their
    /// last reader drops.
    pub(crate) fn apply(&self, edits: Vec<VersionEdit>) -> Result<()> {
        for e in &edits {
            self.manifest.append(&e.encode());
        }
        let mut cur = self.current.write();
        let mut next = Version::empty(self.num_levels);
        for (i, lvl) in cur.levels.iter().enumerate() {
            next.levels[i] = lvl.clone();
        }
        for e in edits {
            match e {
                VersionEdit::AddTable { level, meta } => {
                    let handle = Arc::new(TableHandle::open(self.hier.clone(), meta)?);
                    next.levels[level as usize].push(handle);
                }
                VersionEdit::RemoveTable { level, id } => {
                    let lvl = &mut next.levels[level as usize];
                    if let Some(pos) = lvl.iter().position(|t| t.meta.id == id) {
                        let t = lvl.remove(pos);
                        t.reclaim_with(self.alloc.clone());
                    }
                }
            }
        }
        for level in next.levels[1..].iter_mut() {
            level.sort_by(|a, b| a.meta.smallest.cmp(&b.meta.smallest));
        }
        *cur = Arc::new(next);
        Ok(())
    }

    /// The hierarchy tables are opened against.
    pub(crate) fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hier
    }

    /// The allocator table space comes from.
    pub(crate) fn allocator(&self) -> &Arc<PmemAllocator> {
        &self.alloc
    }
}

#[cfg(test)]
impl Version {
    /// Total number of tables.
    pub(crate) fn table_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Entry;
    use crate::sstable::{build_table, TableOptions};
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn setup() -> (Arc<Hierarchy>, Arc<PmemAllocator>) {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let cap = dev.capacity();
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        // Reserve the manifest region [0, 1 MiB) outside the allocator.
        (hier, Arc::new(PmemAllocator::new(1 << 20, cap - (1 << 20))))
    }

    fn table(
        hier: &Arc<Hierarchy>,
        alloc: &Arc<PmemAllocator>,
        id: u64,
        lo: usize,
        hi: usize,
    ) -> TableMeta {
        let entries: Vec<Entry> = (lo..hi)
            .map(|i| Entry::put(format!("k{i:05}"), i as u64 + 1, "v"))
            .collect();
        build_table(hier, alloc, id, &entries, &TableOptions::default()).unwrap()
    }

    #[test]
    fn edit_encode_decode_roundtrip() {
        let meta = TableMeta {
            id: 3,
            base: 4096,
            len: 1234,
            smallest: b"aaa".to_vec(),
            largest: b"zzz".to_vec(),
            entries: 10,
            max_seq: 99,
        };
        let add = VersionEdit::AddTable { level: 2, meta };
        assert_eq!(VersionEdit::decode(&add.encode()).unwrap(), add);
        let rm = VersionEdit::RemoveTable { level: 1, id: 7 };
        assert_eq!(VersionEdit::decode(&rm.encode()).unwrap(), rm);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VersionEdit::decode(&[]).is_err());
        assert!(VersionEdit::decode(&[9, 0, 0]).is_err());
        assert!(VersionEdit::decode(&[1, 0]).is_err());
    }

    #[test]
    fn apply_add_and_remove() {
        let (hier, alloc) = setup();
        let vs = VersionSet::create(hier.clone(), alloc.clone(), 0, 1 << 20, 4);
        let m1 = table(&hier, &alloc, vs.new_table_id(), 0, 100);
        let id1 = m1.id;
        vs.apply(vec![VersionEdit::AddTable { level: 0, meta: m1 }])
            .unwrap();
        assert_eq!(vs.current().levels[0].len(), 1);
        vs.apply(vec![VersionEdit::RemoveTable { level: 0, id: id1 }])
            .unwrap();
        assert_eq!(vs.current().table_count(), 0);
    }

    #[test]
    fn recovery_rebuilds_levels_and_counters() {
        let (hier, alloc) = setup();
        let (m1, m2, m3);
        {
            let vs = VersionSet::create(hier.clone(), alloc.clone(), 0, 1 << 20, 4);
            m1 = table(&hier, &alloc, vs.new_table_id(), 0, 100);
            m2 = table(&hier, &alloc, vs.new_table_id(), 100, 200);
            m3 = table(&hier, &alloc, vs.new_table_id(), 200, 300);
            vs.apply(vec![
                VersionEdit::AddTable {
                    level: 0,
                    meta: m1.clone(),
                },
                VersionEdit::AddTable {
                    level: 1,
                    meta: m2.clone(),
                },
                VersionEdit::AddTable {
                    level: 1,
                    meta: m3.clone(),
                },
            ])
            .unwrap();
            // Drop one again so recovery sees add+remove.
            vs.apply(vec![VersionEdit::RemoveTable {
                level: 0,
                id: m1.id,
            }])
            .unwrap();
        }
        hier.power_fail();
        let alloc2 = Arc::new(PmemAllocator::new(
            1 << 20,
            hier.device().capacity() - (1 << 20),
        ));
        let vs = VersionSet::recover(hier.clone(), alloc2.clone(), 0, 1 << 20, 4).unwrap();
        let v = vs.current();
        assert_eq!(v.levels[0].len(), 0);
        assert_eq!(v.levels[1].len(), 2);
        assert!(vs.new_table_id() > m3.id);
        assert_eq!(vs.last_seq(), 300);
        // Reads still work post-recovery.
        let t = &v.levels[1][0];
        assert!(matches!(
            t.get(b"k00150"),
            crate::memtable::Lookup::Found(_)
        ));
    }

    #[test]
    fn overlapping_selection() {
        let (hier, alloc) = setup();
        let vs = VersionSet::create(hier.clone(), alloc.clone(), 0, 1 << 20, 4);
        let m1 = table(&hier, &alloc, 1, 0, 100); // k00000..k00099
        let m2 = table(&hier, &alloc, 2, 200, 300); // k00200..k00299
        vs.apply(vec![
            VersionEdit::AddTable { level: 1, meta: m1 },
            VersionEdit::AddTable { level: 1, meta: m2 },
        ])
        .unwrap();
        let v = vs.current();
        assert_eq!(v.overlapping(1, b"k00050", b"k00060").len(), 1);
        assert_eq!(v.overlapping(1, b"k00050", b"k00250").len(), 2);
        assert_eq!(v.overlapping(1, b"k00150", b"k00160").len(), 0);
    }
}
