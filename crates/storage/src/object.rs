//! Append-only persistent byte objects.
//!
//! A [`PmemObject`] is the DAX-file equivalent the LSM engine writes
//! SSTables and logs into: a fixed-capacity region with a monotonically
//! growing length. Appends can take the cached path (small, latency-bound
//! writes that later rely on eADR or explicit flushes) or the streaming path
//! (non-temporal stores, used for bulk sequential table writes just like
//! CacheKV's copy-based flush).

use cachekv_cache::Hierarchy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An append-only region of persistent memory.
pub struct PmemObject {
    hier: Arc<Hierarchy>,
    base: u64,
    capacity: u64,
    len: AtomicU64,
}

impl PmemObject {
    /// Wrap `[base, base+capacity)` as an empty object.
    pub fn create(hier: Arc<Hierarchy>, base: u64, capacity: u64) -> Self {
        PmemObject {
            hier,
            base,
            capacity,
            len: AtomicU64::new(0),
        }
    }

    /// Re-open an object whose length is known (e.g., from a manifest).
    pub fn open(hier: Arc<Hierarchy>, base: u64, capacity: u64, len: u64) -> Self {
        assert!(len <= capacity);
        PmemObject {
            hier,
            base,
            capacity,
            len: AtomicU64::new(len),
        }
    }

    /// Base address of the region.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Capacity of the region.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current length.
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// The memory hierarchy this object lives in.
    pub(crate) fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hier
    }

    fn reserve(&self, n: u64) -> u64 {
        let off = self.len.fetch_add(n, Ordering::AcqRel);
        assert!(
            off + n <= self.capacity,
            "PmemObject overflow: {} + {} > {}",
            off,
            n,
            self.capacity
        );
        off
    }

    /// Append through the cache; returns the object-relative offset.
    /// Durability relies on eADR (or on the caller flushing the range).
    pub(crate) fn append(&self, data: &[u8]) -> u64 {
        let off = self.reserve(data.len() as u64);
        self.hier.store(self.base + off, data);
        off
    }

    /// Read `buf.len()` bytes at object-relative `off`.
    pub(crate) fn read_at(&self, off: u64, buf: &mut [u8]) {
        assert!(off + buf.len() as u64 <= self.len(), "read past object end");
        self.hier.load(self.base + off, buf);
    }

    /// Read `len` bytes at `off` into a fresh buffer.
    pub(crate) fn read_vec(&self, off: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_at(off, &mut v);
        v
    }
}

#[cfg(test)]
impl PmemObject {
    /// Append with non-temporal stores (bypasses the cache, fills XPLines in
    /// order); returns the object-relative offset.
    pub(crate) fn append_nt(&self, data: &[u8]) -> u64 {
        let off = self.reserve(data.len() as u64);
        self.hier.nt_store(self.base + off, data);
        off
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
    fn append_and_read_back() {
        let o = PmemObject::create(hier(), 0, 4096);
        let a = o.append(b"hello");
        let b = o.append(b" world");
        assert_eq!(a, 0);
        assert_eq!(b, 5);
        assert_eq!(o.read_vec(0, 11), b"hello world");
        assert_eq!(o.len(), 11);
    }

    #[test]
    fn nt_append_roundtrip() {
        let o = PmemObject::create(hier(), 4096, 8192);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        o.append_nt(&payload);
        assert_eq!(o.read_vec(0, 1000), payload);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let o = PmemObject::create(hier(), 0, 64);
        o.append(&[0u8; 65]);
    }

    #[test]
    fn reopen_preserves_length() {
        let h = hier();
        let o = PmemObject::create(h.clone(), 0, 4096);
        o.append(b"abcdef");
        let reopened = PmemObject::open(h, 0, 4096, 6);
        assert_eq!(reopened.read_vec(0, 6), b"abcdef");
    }

    #[test]
    fn concurrent_appends_do_not_overlap() {
        let o = Arc::new(PmemObject::create(hier(), 0, 1 << 16));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let o = o.clone();
            handles.push(std::thread::spawn(move || {
                let mut offs = Vec::new();
                for _ in 0..64 {
                    offs.push(o.append(&[t; 16]));
                }
                offs
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 64, "every append got a unique offset");
    }
}
