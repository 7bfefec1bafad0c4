//! The memory-hierarchy facade used by every store implementation.

use crate::config::CacheConfig;
use crate::llc::Llc;
use crate::stats::CacheStats;
use cachekv_pmem::faults::TripReport;
use cachekv_pmem::{FaultPlan, PersistDomain, PmemDevice, PmemStats};
use std::sync::{Arc, Weak};

/// Simulated LLC + PMem device, presented as one persistent address space.
///
/// All persistent loads and stores go through this type; DRAM-resident
/// structures (CacheKV's sub-skiplists, global metadata) are ordinary Rust
/// memory and never touch it — exactly the split the paper argues for.
pub struct Hierarchy {
    llc: Arc<Llc>,
}

impl Hierarchy {
    /// Build a hierarchy over `dev` with the given cache geometry.
    pub fn new(dev: Arc<PmemDevice>, cache: CacheConfig) -> Self {
        let llc = Arc::new(Llc::new(dev, cache));
        // Under eADR the LLC is inside the persistence domain: when an
        // injected fault trips, its dirty lines must reach the device
        // before the survivor image is captured. The observer holds a Weak
        // so the device does not keep its own cache alive (no Arc cycle).
        if llc.device().domain() == PersistDomain::Eadr {
            let weak: Weak<Llc> = Arc::downgrade(&llc);
            llc.device().set_fault_observer(Box::new(move || {
                if let Some(llc) = weak.upgrade() {
                    llc.writeback_all();
                }
            }));
        }
        Hierarchy { llc }
    }

    /// Arm fault injection on the underlying device (see
    /// [`cachekv_pmem::faults`]).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.llc.device().install_fault_plan(plan);
    }

    /// True from the instant an injected fault has tripped.
    pub fn fault_tripped(&self) -> bool {
        self.llc.device().fault_tripped()
    }

    /// Take the survivor image captured by the last fault trip.
    pub fn take_trip_report(&self) -> Option<TripReport> {
        self.llc.device().take_trip_report()
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        self.llc.device()
    }

    /// Cache geometry.
    pub fn cache_config(&self) -> &CacheConfig {
        self.llc.config()
    }

    /// Cached write (write-back, write-allocate).
    #[inline]
    pub fn store(&self, addr: u64, data: &[u8]) {
        self.llc.store(addr, data);
    }

    /// Cached read.
    #[inline]
    pub fn load(&self, addr: u64, buf: &mut [u8]) {
        self.llc.load(addr, buf);
    }

    /// Load exactly `len` bytes into a fresh buffer.
    pub fn load_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.load(addr, &mut v);
        v
    }

    /// Store a little-endian u64.
    #[inline]
    pub fn store_u64(&self, addr: u64, v: u64) {
        self.store(addr, &v.to_le_bytes());
    }

    /// Load a little-endian u64.
    #[inline]
    pub fn load_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.load(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Store a little-endian u32.
    #[inline]
    pub fn store_u32(&self, addr: u64, v: u32) {
        self.store(addr, &v.to_le_bytes());
    }

    /// Load a little-endian u32.
    #[inline]
    pub fn load_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.load(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// `clflush` the lines covering `[addr, addr+len)`.
    #[inline]
    pub fn clflush(&self, addr: u64, len: usize) {
        self.llc.clflush(addr, len);
    }

    /// `clwb` the lines covering `[addr, addr+len)`.
    #[inline]
    pub fn clwb(&self, addr: u64, len: usize) {
        self.llc.clwb(addr, len);
    }

    /// Non-temporal (cache-bypassing, streaming) store.
    #[inline]
    pub fn nt_store(&self, addr: u64, data: &[u8]) {
        self.llc.nt_store(addr, data);
    }

    /// Persistence barrier.
    #[inline]
    pub fn sfence(&self) {
        self.llc.sfence();
    }

    /// Atomic 64-bit compare-and-swap on a CAT-locked location. Returns the
    /// previous value; the swap happened iff it equals `expected`.
    #[inline]
    pub fn cas_u64(&self, addr: u64, expected: u64, new: u64) -> u64 {
        self.llc.cas_u64(addr, expected, new)
    }

    /// Pin `[start, start+len)` into the CAT-locked cache partition.
    pub fn cat_lock(&self, start: u64, len: u64) {
        self.llc.lock_region(start, len);
    }

    /// Release a CAT-locked region, writing dirty lines back.
    pub fn cat_unlock(&self, start: u64, len: u64) {
        self.llc.unlock_region(start, len);
    }

    /// Currently locked regions.
    pub fn cat_regions(&self) -> Vec<(u64, u64)> {
        self.llc.locked_ranges()
    }

    /// Simulate a platform power failure. Under eADR every dirty cacheline
    /// reaches the media (the persistence domain includes the caches); under
    /// ADR cache contents are lost. Either way the cache ends up empty and
    /// CAT regions must be re-established, matching Section III-E.
    pub fn power_fail(&self) {
        match self.llc.device().domain() {
            PersistDomain::Eadr => self.llc.writeback_all(),
            PersistDomain::Adr => {}
        }
        self.llc.invalidate_all();
        self.llc.device().power_fail();
    }

    /// Capture a crash-consistent media image without disturbing the live
    /// hierarchy: write back every dirty LLC line (a single point-in-time
    /// cut, exactly the eADR trip writeback) and clone the media with the
    /// XPBuffer applied. The result is byte-equivalent to the survivor
    /// image a power failure at this instant would produce, but the cache
    /// stays warm and CAT regions stay established — execution continues.
    /// Like [`PmemDevice::clone_media`](cachekv_pmem::PmemDevice::clone_media),
    /// each DIMM image stops at its last non-zero XPLine, so it may be
    /// shorter than the DIMM's capacity.
    /// Callers must ensure no store races the capture (quiesce writers
    /// first) or the image may split one thread's store sequence.
    pub fn capture_media(&self) -> Vec<Vec<u8>> {
        self.llc.writeback_all();
        self.llc.device().clone_media()
    }

    /// Cache counters snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.llc.stats.snapshot()
    }

    /// Device counters snapshot.
    pub fn pmem_stats(&self) -> PmemStats {
        self.llc.device().stats()
    }

    /// Reset both cache and device counters.
    pub fn reset_stats(&self) {
        self.llc.stats.reset();
        self.llc.device().reset_stats();
    }

    /// Number of dirty cachelines currently held (test helper).
    pub fn dirty_lines(&self) -> usize {
        self.llc.dirty_lines()
    }

    /// Whether a line is cached (test helper).
    pub fn contains_line(&self, addr: u64) -> bool {
        self.llc.contains_line(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_pmem::PmemConfig;

    fn hier(domain: PersistDomain) -> Hierarchy {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small().with_domain(domain)));
        Hierarchy::new(dev, CacheConfig::small())
    }

    #[test]
    fn store_load_roundtrip_u64() {
        let h = hier(PersistDomain::Eadr);
        h.store_u64(128, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(h.load_u64(128), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn store_is_cached_not_on_media() {
        let h = hier(PersistDomain::Eadr);
        h.store(0, &[7u8; 64]);
        // Device has not seen the write yet (write-back cache).
        assert_eq!(h.pmem_stats().cpu_writes, 0);
        assert_eq!(h.dirty_lines(), 1);
    }

    #[test]
    fn clwb_writes_back_and_retains() {
        let h = hier(PersistDomain::Eadr);
        h.store(0, &[7u8; 64]);
        h.clwb(0, 64);
        h.sfence();
        assert_eq!(h.pmem_stats().cpu_writes, 1);
        assert!(h.contains_line(0), "clwb retains the line");
        assert_eq!(h.dirty_lines(), 0);
    }

    #[test]
    fn clflush_writes_back_and_invalidates() {
        let h = hier(PersistDomain::Eadr);
        h.store(0, &[7u8; 64]);
        h.clflush(0, 64);
        assert_eq!(h.pmem_stats().cpu_writes, 1);
        assert!(!h.contains_line(0));
    }

    #[test]
    fn eadr_power_fail_preserves_dirty_lines() {
        let h = hier(PersistDomain::Eadr);
        h.store(256, b"survives");
        h.power_fail();
        let mut buf = [0u8; 8];
        h.load(256, &mut buf);
        assert_eq!(&buf, b"survives");
    }

    #[test]
    fn adr_power_fail_loses_unflushed_lines() {
        let h = hier(PersistDomain::Adr);
        h.store(256, b"volatile");
        h.power_fail();
        let mut buf = [0u8; 8];
        h.load(256, &mut buf);
        assert_eq!(buf, [0u8; 8], "unflushed data lost under ADR");
    }

    #[test]
    fn adr_power_fail_keeps_flushed_lines() {
        let h = hier(PersistDomain::Adr);
        h.store(256, b"durable!");
        h.clwb(256, 8);
        h.sfence();
        h.power_fail();
        let mut buf = [0u8; 8];
        h.load(256, &mut buf);
        assert_eq!(&buf, b"durable!");
    }

    #[test]
    fn locked_region_never_evicted_by_traffic() {
        let h = hier(PersistDomain::Eadr);
        h.cat_lock(0, 4096);
        h.store(0, &[1u8; 64]);
        // Thrash the whole small cache several times over.
        let cap = 16 << 10;
        for i in 0..(cap / 64) * 8 {
            h.store((1 << 19) | ((i as u64 * 64) % (1 << 18)), &[2u8; 64]);
        }
        assert!(h.contains_line(0), "locked line survived thrashing");
        // And the device never saw it.
        let mut buf = [0u8; 64];
        buf.fill(0);
        h.load(0, &mut buf);
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn nt_store_bypasses_cache_and_reaches_device() {
        let h = hier(PersistDomain::Eadr);
        let payload = vec![9u8; 512];
        h.nt_store(4096, &payload);
        assert!(!h.contains_line(4096));
        // 8 cachelines reached the device.
        assert_eq!(h.pmem_stats().cpu_writes, 8);
        let mut buf = vec![0u8; 512];
        h.load(4096, &mut buf);
        assert_eq!(buf, payload);
    }

    #[test]
    fn nt_store_over_dirty_cached_line_is_coherent() {
        let h = hier(PersistDomain::Eadr);
        h.store(0, &[1u8; 128]);
        h.nt_store(0, &[2u8; 64]); // overwrite first line only
        let mut buf = [0u8; 128];
        h.load(0, &mut buf);
        assert!(buf[..64].iter().all(|&b| b == 2));
        assert!(buf[64..].iter().all(|&b| b == 1));
    }

    #[test]
    fn nt_store_full_lines_combine_perfectly() {
        let h = hier(PersistDomain::Eadr);
        h.nt_store(0, &vec![5u8; 4096]);
        let s = h.pmem_stats();
        // Streaming in order: 3 of every 4 cachelines hit an open XPLine.
        assert!((s.write_hit_ratio() - 0.75).abs() < 0.01);
        assert_eq!(s.rmw_evictions, 0, "no read-modify-write for full lines");
    }

    #[test]
    fn unlock_region_writes_back_dirty_locked_lines() {
        let h = hier(PersistDomain::Adr);
        h.cat_lock(0, 4096);
        h.store(64, &[3u8; 64]);
        h.cat_unlock(0, 4096);
        assert_eq!(h.pmem_stats().cpu_writes, 1);
        h.power_fail();
        let mut buf = [0u8; 64];
        h.load(64, &mut buf);
        assert_eq!(buf, [3u8; 64], "unlock persisted the line even under ADR");
    }

    #[test]
    fn cas_swaps_only_on_match() {
        let h = hier(PersistDomain::Eadr);
        h.cat_lock(0, 4096);
        h.store_u64(64, 10);
        assert_eq!(h.cas_u64(64, 10, 20), 10, "matched: swap happens");
        assert_eq!(h.load_u64(64), 20);
        assert_eq!(h.cas_u64(64, 10, 30), 20, "mismatch: no swap");
        assert_eq!(h.load_u64(64), 20);
    }

    #[test]
    fn cas_is_atomic_under_contention() {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let h = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        h.cat_lock(0, 4096);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    loop {
                        let cur = h.load_u64(128);
                        if h.cas_u64(128, cur, cur + 1) == cur {
                            break;
                        }
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.load_u64(128), 20_000);
    }

    #[test]
    fn cas_after_relock_sees_media_contents() {
        let h = hier(PersistDomain::Eadr);
        h.cat_lock(0, 4096);
        h.store_u64(192, 777);
        h.power_fail(); // eADR: value reaches media; CAT regions cleared
        h.cat_lock(0, 4096);
        assert_eq!(
            h.cas_u64(192, 777, 888),
            777,
            "CAS fetched the persisted value"
        );
        assert_eq!(h.load_u64(192), 888);
    }

    #[test]
    fn eadr_fault_trip_captures_dirty_cache_lines() {
        use cachekv_pmem::FaultPlan;
        let h = hier(PersistDomain::Eadr);
        // Dirty line stays in the LLC: the device has not seen it.
        h.store(512, b"in-cache");
        assert_eq!(h.pmem_stats().cpu_writes, 0);
        // Trip on an unrelated NT store (event 1).
        h.install_fault_plan(FaultPlan::at(1));
        h.nt_store(4096, &[9u8; 64]);
        assert!(h.fault_tripped());
        let report = h.take_trip_report().expect("tripped");
        let r = Arc::new(cachekv_pmem::PmemDevice::from_media(
            h.device().config().clone(),
            report.media,
        ));
        let mut buf = [0u8; 8];
        r.read(512, &mut buf);
        assert_eq!(
            &buf, b"in-cache",
            "eADR: dirty LLC line written back at trip"
        );
        let mut nt = [0u8; 64];
        r.read(4096, &mut nt);
        assert_eq!(nt, [9u8; 64], "the tripping event itself completed");
    }

    #[test]
    fn adr_fault_trip_loses_dirty_cache_lines() {
        use cachekv_pmem::FaultPlan;
        let h = hier(PersistDomain::Adr);
        h.store(512, b"volatile");
        h.install_fault_plan(FaultPlan::at(1));
        h.nt_store(4096, &[9u8; 64]);
        assert!(h.fault_tripped());
        let report = h.take_trip_report().expect("tripped");
        let r = cachekv_pmem::PmemDevice::from_media(h.device().config().clone(), report.media);
        let mut buf = [0u8; 8];
        r.read(512, &mut buf);
        assert_eq!(buf, [0u8; 8], "ADR: unflushed cache contents are lost");
    }

    #[test]
    fn partial_store_miss_preserves_neighbouring_bytes() {
        let h = hier(PersistDomain::Eadr);
        // Seed media directly through the hierarchy + flush.
        h.store(0, &[0xAAu8; 64]);
        h.clflush(0, 64);
        // Partial store to the evicted line must fetch and merge.
        h.store(10, &[0xBBu8; 4]);
        let mut buf = [0u8; 64];
        h.load(0, &mut buf);
        assert_eq!(&buf[10..14], &[0xBB; 4]);
        assert!(buf[..10].iter().all(|&b| b == 0xAA));
        assert!(buf[14..].iter().all(|&b| b == 0xAA));
    }
}
