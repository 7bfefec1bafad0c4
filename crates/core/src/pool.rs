//! The sub-MemTable pool (Section III-A) with elasticity.
//!
//! A fixed cache-pinned region is carved into slots. The slot directory
//! (count + per-slot geometry) is persisted in the pool's first 8 KiB so
//! crash recovery can re-discover every sub-MemTable; slot *states* live in
//! the slots' own packed headers. The directory is double-buffered: a
//! rewrite (split/merge changes the geometry at runtime) fills the
//! inactive copy, then publishes it with a single 8-byte header store, so
//! a crash anywhere in the rewrite leaves a fully consistent copy behind
//! — recovery never sees torn geometry.
//!
//! Elasticity: a `miss counter` tracks acquire failures. Past a threshold
//! the pool halves a free sub-MemTable to raise slot count under bursty
//! writes; when misses stay at zero it re-merges adjacent free buddies to
//! cut background flush overhead.

use crate::subtable::{SlotState, SubTable};
use cachekv_cache::Hierarchy;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Persistent directory header size (8-byte publish word + two copies).
pub(crate) const DIR_BYTES: u64 = 8192;
/// Bytes available to each of the two directory copies.
const DIR_COPY_BYTES: u64 = (DIR_BYTES - 8) / 2;
const DIR_MAGIC: u32 = 0xCACE_4B56;
/// Bit of the header's second word that names the active copy.
const DIR_WHICH_BIT: u32 = 1 << 31;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    base: u64,
    size: u64,
}

/// The pool. Shared by writer threads and flush threads.
pub struct Pool {
    hier: Arc<Hierarchy>,
    base: u64,
    size: u64,
    min_subtable: u64,
    slots: Mutex<Vec<Slot>>,
    freed: Condvar,
    /// Which directory copy is currently published (0 or 1). Only read and
    /// advanced under the `slots` lock (every rewrite holds it).
    dir_which: AtomicU64,
    /// Times a core failed to find a free sub-MemTable (Section III-A).
    /// Reset whenever the elasticity threshold trips, so it is a *window*
    /// counter, not a lifetime one.
    pub(crate) miss_counter: AtomicU64,
    /// Lifetime acquire misses — never reset, safe for monotonic metrics.
    total_misses: AtomicU64,
    miss_threshold: u64,
    /// Set when the miss counter crossed the threshold; the next release
    /// performs the split (there is nothing free to split at miss time).
    split_pending: AtomicU64,
    /// Acquires since the last miss, for the merge heuristic.
    calm_acquires: AtomicU64,
}

impl Pool {
    /// Create a pool at `[base, base+size)`: CAT-lock it, write the slot
    /// directory, and reset every slot header to `Free`.
    pub(crate) fn create(
        hier: Arc<Hierarchy>,
        base: u64,
        size: u64,
        subtable_bytes: u64,
        min_subtable: u64,
        miss_threshold: u64,
    ) -> Self {
        assert!(
            size > DIR_BYTES + subtable_bytes,
            "pool too small for one sub-MemTable"
        );
        hier.cat_lock(base, size);
        Self::warm_locked(&hier, base, size);
        let mut slots = Vec::new();
        let mut cur = base + DIR_BYTES;
        while cur + subtable_bytes <= base + size {
            slots.push(Slot {
                base: cur,
                size: subtable_bytes,
            });
            cur += subtable_bytes;
        }
        let pool = Pool {
            hier,
            base,
            size,
            min_subtable,
            slots: Mutex::new(slots),
            freed: Condvar::new(),
            dir_which: AtomicU64::new(1),
            miss_counter: AtomicU64::new(0),
            total_misses: AtomicU64::new(0),
            miss_threshold,
            split_pending: AtomicU64::new(0),
            calm_acquires: AtomicU64::new(0),
        };
        {
            let slots = pool.slots.lock();
            for s in slots.iter() {
                pool.subtable_of(*s).reset_free();
            }
            // write_directory flips to the inactive copy, so this first
            // write lands in copy 0.
            pool.write_directory(&slots);
        }
        pool
    }

    /// Read the freshly locked region once, pulling every line into the
    /// locked partition. Intel CAT pseudo-locking does the same at setup
    /// (the region is streamed through the locked ways before use); it
    /// also means runtime appends never fill from the device, so their
    /// simulated cost cannot depend on concurrent XPBuffer state.
    fn warm_locked(hier: &Hierarchy, base: u64, size: u64) {
        let mut buf = [0u8; 4096];
        let mut cur = base;
        let end = base + size;
        while cur < end {
            let n = buf.len().min((end - cur) as usize);
            hier.load(cur, &mut buf[..n]);
            cur += n as u64;
        }
    }

    /// Re-attach to an existing pool after a crash: re-establish the CAT
    /// region and read the persisted directory. Slot headers are untouched.
    /// Returns `None` when no valid directory survives (an ADR platform
    /// lost the cache-resident directory) — the caller recreates the pool.
    pub(crate) fn try_reattach(
        hier: Arc<Hierarchy>,
        base: u64,
        size: u64,
        min_subtable: u64,
        miss_threshold: u64,
    ) -> Option<Self> {
        let mut hdr = [0u8; 8];
        hier.load(base, &mut hdr);
        let magic = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
        if magic != DIR_MAGIC {
            return None;
        }
        Some(Self::reattach(
            hier,
            base,
            size,
            min_subtable,
            miss_threshold,
        ))
    }

    /// Re-attach, panicking if the persisted directory is invalid.
    pub(crate) fn reattach(
        hier: Arc<Hierarchy>,
        base: u64,
        size: u64,
        min_subtable: u64,
        miss_threshold: u64,
    ) -> Self {
        hier.cat_lock(base, size);
        Self::warm_locked(&hier, base, size);
        let mut hdr = [0u8; 8];
        hier.load(base, &mut hdr);
        let magic = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
        assert_eq!(magic, DIR_MAGIC, "pool directory magic mismatch");
        let word = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
        let which = u64::from(word & DIR_WHICH_BIT != 0);
        let count = (word & !DIR_WHICH_BIT) as usize;
        let raw = hier.load_vec(Self::copy_base(base, which), count * 16);
        let slots: Vec<Slot> = (0..count)
            .map(|i| Slot {
                base: u64::from_le_bytes(raw[i * 16..i * 16 + 8].try_into().unwrap()),
                size: u64::from_le_bytes(raw[i * 16 + 8..i * 16 + 16].try_into().unwrap()),
            })
            .collect();
        // The publish protocol makes a torn directory unreachable; check
        // the geometry anyway so corruption fails loudly here, not as a
        // wild access through a recovered SubTable.
        for s in &slots {
            assert!(
                s.base >= base + DIR_BYTES
                    && s.size > crate::subtable::DATA_OFF
                    && s.base + s.size <= base + size,
                "recovered slot directory names an invalid slot [{:#x}, +{:#x}) \
                 in pool [{:#x}, +{:#x})",
                s.base,
                s.size,
                base,
                size
            );
        }
        Pool {
            hier,
            base,
            size,
            min_subtable,
            slots: Mutex::new(slots),
            freed: Condvar::new(),
            dir_which: AtomicU64::new(which),
            miss_counter: AtomicU64::new(0),
            total_misses: AtomicU64::new(0),
            miss_threshold,
            split_pending: AtomicU64::new(0),
            calm_acquires: AtomicU64::new(0),
        }
    }

    /// Base address of directory copy `which` (0 or 1).
    fn copy_base(base: u64, which: u64) -> u64 {
        base + 8 + which * DIR_COPY_BYTES
    }

    /// Persist the slot geometry crash-atomically: fill the inactive copy,
    /// then publish it with a single 8-byte header store. A crash before
    /// the publish leaves the previous copy active and intact.
    fn write_directory(&self, slots: &[Slot]) {
        let mut b = Vec::with_capacity(slots.len() * 16);
        for s in slots {
            b.extend_from_slice(&s.base.to_le_bytes());
            b.extend_from_slice(&s.size.to_le_bytes());
        }
        assert!(b.len() as u64 <= DIR_COPY_BYTES, "slot directory overflow");
        let which = self.dir_which.load(Ordering::Relaxed) ^ 1;
        if !b.is_empty() {
            self.hier.store(Self::copy_base(self.base, which), &b);
        }
        let word = slots.len() as u32 | if which == 1 { DIR_WHICH_BIT } else { 0 };
        let mut hdr = [0u8; 8];
        hdr[0..4].copy_from_slice(&DIR_MAGIC.to_le_bytes());
        hdr[4..8].copy_from_slice(&word.to_le_bytes());
        self.hier.store(self.base, &hdr);
        self.dir_which.store(which, Ordering::Relaxed);
    }

    fn subtable_of(&self, s: Slot) -> SubTable {
        SubTable::new(self.hier.clone(), s.base, s.size)
    }

    /// Pool region `(base, size)`.
    pub(crate) fn region(&self) -> (u64, u64) {
        (self.base, self.size)
    }

    /// Current slot geometry `(base, size)` pairs (recovery and tests).
    pub fn slot_layout(&self) -> Vec<(u64, u64)> {
        self.slots.lock().iter().map(|s| (s.base, s.size)).collect()
    }

    /// Every slot as a handle (recovery scans all states).
    pub(crate) fn all_subtables(&self) -> Vec<SubTable> {
        self.slots
            .lock()
            .iter()
            .map(|s| self.subtable_of(*s))
            .collect()
    }

    /// Try once to acquire a free sub-MemTable.
    pub(crate) fn try_acquire(&self) -> Option<SubTable> {
        let slots = self.slots.lock();
        for s in slots.iter() {
            let st = self.subtable_of(*s);
            if st.try_acquire() {
                drop(slots);
                self.calm_acquires.fetch_add(1, Ordering::Relaxed);
                return Some(st);
            }
        }
        None
    }

    /// One bounded wait-and-rescan round: waits briefly for a release and
    /// returns a table if one freed up. Callers loop, interleaving their
    /// own remedies (CacheKV force-seals idle peers between rounds).
    pub(crate) fn wait_brief(&self) -> Option<SubTable> {
        let mut slots = self.slots.lock();
        for s in slots.iter() {
            let st = self.subtable_of(*s);
            if st.try_acquire() {
                return Some(st);
            }
        }
        self.freed
            .wait_for(&mut slots, std::time::Duration::from_micros(200));
        for s in slots.iter() {
            let st = self.subtable_of(*s);
            if st.try_acquire() {
                return Some(st);
            }
        }
        None
    }

    /// Record one acquire miss; past the threshold, arm a split for the
    /// next release (nothing is free to split at miss time).
    pub(crate) fn note_miss(&self) {
        let misses = self.miss_counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.total_misses.fetch_add(1, Ordering::Relaxed);
        self.calm_acquires.store(0, Ordering::Relaxed);
        if misses >= self.miss_threshold {
            self.miss_counter.store(0, Ordering::Relaxed);
            self.split_pending.store(1, Ordering::Relaxed);
        }
    }

    /// Return a flushed slot to the pool: reset its header to `Free`, then
    /// apply any pending elasticity action, and wake waiters.
    pub(crate) fn release(&self, st: &SubTable) {
        st.reset_free();
        if self.split_pending.swap(0, Ordering::Relaxed) != 0 {
            self.split_one_free();
        } else if self.calm_acquires.load(Ordering::Relaxed)
            >= self.miss_threshold.saturating_mul(8)
        {
            self.merge_free_buddies();
        }
        self.freed.notify_all();
    }

    /// Halve the largest free slot into two free sub-MemTables.
    fn split_one_free(&self) {
        let mut slots = self.slots.lock();
        let candidate = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.size / 2 >= self.min_subtable
                    && self.subtable_of(**s).header().state() == SlotState::Free
            })
            .max_by_key(|(_, s)| s.size)
            .map(|(i, _)| i);
        if let Some(i) = candidate {
            let s = slots[i];
            // Take the slot out of circulation while we re-shape it.
            let st = self.subtable_of(s);
            if !st.try_acquire() {
                return; // lost a race with a writer; skip this round
            }
            let half = s.size / 2;
            slots[i] = Slot {
                base: s.base,
                size: half,
            };
            slots.insert(
                i + 1,
                Slot {
                    base: s.base + half,
                    size: half,
                },
            );
            self.subtable_of(slots[i]).reset_free();
            self.subtable_of(slots[i + 1]).reset_free();
            self.write_directory(&slots);
        }
    }

    /// Merge adjacent equal-size free buddies back together (the reverse
    /// elasticity direction, reducing flush overhead when load is calm).
    fn merge_free_buddies(&self) {
        let mut slots = self.slots.lock();
        let mut i = 0;
        while i + 1 < slots.len() {
            let (a, b) = (slots[i], slots[i + 1]);
            let buddy = a.size == b.size && a.base + a.size == b.base;
            if buddy
                && self.subtable_of(a).header().state() == SlotState::Free
                && self.subtable_of(b).header().state() == SlotState::Free
            {
                let (sa, sb) = (self.subtable_of(a), self.subtable_of(b));
                if sa.try_acquire() {
                    if sb.try_acquire() {
                        slots[i] = Slot {
                            base: a.base,
                            size: a.size * 2,
                        };
                        slots.remove(i + 1);
                        self.subtable_of(slots[i]).reset_free();
                        self.write_directory(&slots);
                        self.calm_acquires.store(0, Ordering::Relaxed);
                        return; // one merge per call is enough
                    }
                    sa.reset_free();
                }
            }
            i += 1;
        }
    }

    /// Number of slots currently free (tests / reporting).
    pub(crate) fn free_slots(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|s| self.subtable_of(**s).header().state() == SlotState::Free)
            .count()
    }

    /// Total slot count.
    pub fn slot_count(&self) -> usize {
        self.slots.lock().len()
    }

    /// Lifetime acquire misses (monotonic, unlike `miss_counter`).
    pub(crate) fn total_misses(&self) -> u64 {
        self.total_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
impl Pool {
    /// Acquire a free sub-MemTable, blocking until one is available.
    /// Records misses and arms elasticity (Section III-A).
    pub(crate) fn acquire(&self) -> SubTable {
        if let Some(st) = self.try_acquire() {
            return st;
        }
        loop {
            self.note_miss();
            {
                let mut slots = self.slots.lock();
                for s in slots.iter() {
                    let st = self.subtable_of(*s);
                    if st.try_acquire() {
                        return st;
                    }
                }
                // Wait for a flush to free a slot (with a timeout to
                // re-check under races).
                self.freed
                    .wait_for(&mut slots, std::time::Duration::from_millis(1));
            }
        }
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
        Arc::new(Hierarchy::new(dev, CacheConfig::small()))
    }

    fn pool(h: &Arc<Hierarchy>) -> Pool {
        // 4 KiB directory + 4 slots of 16 KiB.
        Pool::create(
            h.clone(),
            0,
            DIR_BYTES + 4 * (16 << 10),
            16 << 10,
            4 << 10,
            2,
        )
    }

    #[test]
    fn creation_carves_expected_slots() {
        let h = hier();
        let p = pool(&h);
        assert_eq!(p.slot_count(), 4);
        assert_eq!(p.free_slots(), 4);
    }

    #[test]
    fn acquire_release_cycle() {
        let h = hier();
        let p = pool(&h);
        let a = p.acquire();
        let b = p.acquire();
        assert_ne!(a.base, b.base);
        assert_eq!(p.free_slots(), 2);
        a.seal();
        p.release(&a);
        assert_eq!(p.free_slots(), 3);
    }

    #[test]
    fn exhaustion_blocks_until_release() {
        let h = hier();
        let p = Arc::new(pool(&h));
        let held: Vec<SubTable> = (0..4).map(|_| p.acquire()).collect();
        assert_eq!(p.free_slots(), 0);
        let p2 = p.clone();
        let waiter = std::thread::spawn(move || p2.acquire());
        std::thread::sleep(std::time::Duration::from_millis(20));
        held[0].seal();
        p.release(&held[0]);
        let got = waiter.join().unwrap();
        assert_eq!(got.base, held[0].base);
    }

    #[test]
    fn misses_trigger_split_on_release() {
        let h = hier();
        let p = Arc::new(pool(&h));
        let held: Vec<SubTable> = (0..4).map(|_| p.acquire()).collect();
        // Generate misses past the threshold from a blocked acquirer.
        let p2 = p.clone();
        let waiter = std::thread::spawn(move || {
            let a = p2.acquire();
            let b = p2.acquire();
            (a, b)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        held[0].seal();
        p.release(&held[0]);
        held[1].seal();
        p.release(&held[1]);
        let _ = waiter.join().unwrap();
        // A split happened: more than the original 4 slots now exist.
        assert!(
            p.slot_count() > 4,
            "elasticity split: {} slots",
            p.slot_count()
        );
        // Geometry remains a partition of the pool area.
        let layout = p.slot_layout();
        let total: u64 = layout.iter().map(|(_, s)| s).sum();
        assert_eq!(total, 4 * (16 << 10));
    }

    #[test]
    fn reattach_reads_directory_and_preserves_states() {
        let h = hier();
        let (a_base, layout_before);
        {
            let p = pool(&h);
            let a = p.acquire();
            a_base = a.base;
            layout_before = p.slot_layout();
        }
        h.power_fail();
        let p = Pool::reattach(h.clone(), 0, DIR_BYTES + 4 * (16 << 10), 4 << 10, 2);
        assert_eq!(p.slot_layout(), layout_before);
        // The acquired slot is still Allocated after the crash.
        let allocated: Vec<u64> = p
            .all_subtables()
            .iter()
            .filter(|s| s.header().state() == SlotState::Allocated)
            .map(|s| s.base)
            .collect();
        assert_eq!(allocated, vec![a_base]);
    }

    #[test]
    fn split_geometry_survives_crash() {
        let h = hier();
        let layout;
        {
            let p = pool(&h);
            p.split_one_free();
            assert_eq!(p.slot_count(), 5);
            layout = p.slot_layout();
        }
        h.power_fail();
        let p = Pool::reattach(h.clone(), 0, DIR_BYTES + 4 * (16 << 10), 4 << 10, 2);
        assert_eq!(p.slot_layout(), layout);
    }

    #[test]
    fn unpublished_directory_rewrite_is_invisible_after_crash() {
        // A crash mid-rewrite leaves garbage in the inactive copy but the
        // publish word still naming the old one; recovery must read the
        // old, consistent geometry.
        let h = hier();
        let layout_before;
        {
            let p = pool(&h);
            layout_before = p.slot_layout();
            let inactive = p.dir_which.load(Ordering::Relaxed) ^ 1;
            h.store(Pool::copy_base(0, inactive), &[0xAAu8; 64]);
        }
        h.power_fail();
        let p = Pool::reattach(h.clone(), 0, DIR_BYTES + 4 * (16 << 10), 4 << 10, 2);
        assert_eq!(p.slot_layout(), layout_before);
    }

    #[test]
    fn merge_restores_larger_slots_when_calm() {
        let h = hier();
        let p = pool(&h);
        // Force a split first.
        p.split_one_free();
        assert_eq!(p.slot_count(), 5);
        // Simulate calm traffic.
        p.calm_acquires.store(1_000, Ordering::Relaxed);
        let a = p.acquire();
        a.seal();
        p.release(&a);
        assert_eq!(p.slot_count(), 4, "buddies re-merged");
    }
}
