//! Where index and table bytes live.
//!
//! The same skiplist code runs over native DRAM (CacheKV's sub-skiplists and
//! global skiplist, Section III-B) or over the simulated persistent
//! hierarchy (the baselines' PMem-resident MemTables and indexes), selected
//! by the [`MemSpace`] implementation. The PMem flavour also carries the
//! *flush discipline*: per-store `clflush`/`clwb` for ADR-style durability,
//! or none for the `-w/o-flush` variants that lean on eADR.

use cachekv_cache::Hierarchy;
use parking_lot::RwLock;
use std::sync::Arc;

/// A flat byte space the skiplist arena lives in.
pub trait MemSpace: Send + Sync {
    /// Write `data` at `off`.
    fn write(&self, off: u64, data: &[u8]);
    /// Read `buf.len()` bytes at `off`.
    fn read(&self, off: u64, buf: &mut [u8]);
    /// Make `[off, off+len)` durable, per the space's flush discipline.
    fn persist(&self, _off: u64, _len: usize) {}
    /// Capacity in bytes.
    fn capacity(&self) -> u64;

    /// Read a little-endian u32 at `off`.
    #[inline]
    fn read_u32(&self, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(off, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian u64 at `off`.
    #[inline]
    fn read_u64(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }
}

/// Native (volatile) DRAM space. Writes are plain memory writes; `persist`
/// is a no-op. Interior mutability via an `RwLock`, which is uncontended in
/// the single-writer settings the skiplist is used in.
pub struct DramSpace {
    bytes: RwLock<Vec<u8>>,
}

impl DramSpace {
    /// Allocate `capacity` zeroed bytes.
    pub fn new(capacity: usize) -> Self {
        DramSpace {
            bytes: RwLock::new(vec![0u8; capacity]),
        }
    }
}

impl MemSpace for DramSpace {
    fn write(&self, off: u64, data: &[u8]) {
        let mut b = self.bytes.write();
        let off = off as usize;
        b[off..off + data.len()].copy_from_slice(data);
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        let b = self.bytes.read();
        let off = off as usize;
        buf.copy_from_slice(&b[off..off + buf.len()]);
    }

    fn capacity(&self) -> u64 {
        self.bytes.read().len() as u64
    }
}

/// Durability discipline for a persistent space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// `clflush` + fence after every persist (raw NoveLSM / SLM-DB style).
    Clflush,
    /// `clwb` + fence after every persist.
    Clwb,
    /// No flush instructions: rely on eADR (`-w/o-flush` variants).
    None,
}

/// A window of the simulated persistent address space.
pub struct PmemSpace {
    hier: Arc<Hierarchy>,
    base: u64,
    len: u64,
    mode: FlushMode,
}

impl PmemSpace {
    /// Wrap `[base, base+len)` of the hierarchy with a flush discipline.
    pub fn new(hier: Arc<Hierarchy>, base: u64, len: u64, mode: FlushMode) -> Self {
        PmemSpace {
            hier,
            base,
            len,
            mode,
        }
    }

    /// Base address within the global persistent address space.
    pub fn base(&self) -> u64 {
        self.base
    }
}

impl MemSpace for PmemSpace {
    fn write(&self, off: u64, data: &[u8]) {
        debug_assert!(
            off + data.len() as u64 <= self.len,
            "PmemSpace write out of range"
        );
        self.hier.store(self.base + off, data);
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        debug_assert!(
            off + buf.len() as u64 <= self.len,
            "PmemSpace read out of range"
        );
        self.hier.load(self.base + off, buf);
    }

    fn persist(&self, off: u64, len: usize) {
        match self.mode {
            FlushMode::Clflush => {
                self.hier.clflush(self.base + off, len);
                self.hier.sfence();
            }
            FlushMode::Clwb => {
                self.hier.clwb(self.base + off, len);
                self.hier.sfence();
            }
            FlushMode::None => {}
        }
    }

    fn capacity(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
impl PmemSpace {
    /// The underlying hierarchy.
    pub(crate) fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn hier() -> Arc<Hierarchy> {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        Arc::new(Hierarchy::new(dev, CacheConfig::small()))
    }

    #[test]
    fn dram_roundtrip() {
        let s = DramSpace::new(1024);
        s.write(100, b"abc");
        let mut b = [0u8; 3];
        s.read(100, &mut b);
        assert_eq!(&b, b"abc");
        assert_eq!(s.capacity(), 1024);
    }

    #[test]
    fn pmem_roundtrip_with_offsets() {
        let s = PmemSpace::new(hier(), 4096, 8192, FlushMode::Clwb);
        s.write(0, b"xyz");
        s.persist(0, 3);
        let mut b = [0u8; 3];
        s.read(0, &mut b);
        assert_eq!(&b, b"xyz");
        // Data landed at base+off in the global space.
        let mut g = [0u8; 3];
        s.hierarchy().load(4096, &mut g);
        assert_eq!(&g, b"xyz");
    }

    #[test]
    fn clflush_mode_pushes_lines_to_device() {
        let h = hier();
        let s = PmemSpace::new(h.clone(), 0, 4096, FlushMode::Clflush);
        s.write(0, &[1u8; 64]);
        s.persist(0, 64);
        assert_eq!(h.pmem_stats().cpu_writes, 1);
    }

    #[test]
    fn none_mode_keeps_lines_in_cache() {
        let h = hier();
        let s = PmemSpace::new(h.clone(), 0, 4096, FlushMode::None);
        s.write(0, &[1u8; 64]);
        s.persist(0, 64);
        assert_eq!(h.pmem_stats().cpu_writes, 0, "no flush issued");
        assert_eq!(h.dirty_lines(), 1);
    }

    #[test]
    fn u32_u64_helpers() {
        let s = DramSpace::new(64);
        s.write(0, &0xAABB_CCDDu32.to_le_bytes());
        s.write(8, &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(s.read_u32(0), 0xAABB_CCDD);
        assert_eq!(s.read_u64(8), 0x1122_3344_5566_7788);
    }
}
