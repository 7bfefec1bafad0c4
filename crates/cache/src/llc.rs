//! Set-associative LLC with LRU replacement and CAT-locked regions.
//!
//! Data in dirty lines is *newer than the media*: it only reaches the
//! [`PmemDevice`] on replacement, on an explicit `clflush`/`clwb`, or — under
//! eADR — on power failure. Locked regions model Intel CAT pseudo-locking: a
//! side partition that replacement never touches, used by CacheKV to pin the
//! sub-MemTable pool.

use crate::config::CacheConfig;
use crate::stats::CacheStatsCell;
use cachekv_pmem::{PmemDevice, CACHELINE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

const LINE_MASK: u64 = !(CACHELINE as u64 - 1);

struct Line {
    tag: u64,
    data: [u8; CACHELINE],
    dirty: bool,
    tick: u64,
}

struct LockedLine {
    data: [u8; CACHELINE],
    dirty: bool,
}

struct Shard {
    /// Sets owned by this shard, indexed by `set_index / num_shards`.
    sets: Vec<Vec<Line>>,
    /// CAT-locked lines mapped to this shard.
    locked: HashMap<u64, LockedLine>,
    tick: u64,
}

/// The LLC simulator. Shared behind `Arc` by every thread of a store.
pub(crate) struct Llc {
    cfg: CacheConfig,
    dev: Arc<PmemDevice>,
    shards: Vec<Mutex<Shard>>,
    locked_ranges: RwLock<Vec<(u64, u64)>>,
    pub(crate) stats: CacheStatsCell,
}

impl Llc {
    pub(crate) fn new(dev: Arc<PmemDevice>, cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let shards = cfg.shards.min(num_sets);
        let mut v = Vec::with_capacity(shards);
        for s in 0..shards {
            let sets_here = num_sets / shards + usize::from(s < num_sets % shards);
            v.push(Mutex::new(Shard {
                sets: (0..sets_here)
                    .map(|_| Vec::with_capacity(cfg.ways))
                    .collect(),
                locked: HashMap::new(),
                tick: 0,
            }));
        }
        Llc {
            cfg,
            dev,
            shards: v,
            locked_ranges: RwLock::new(Vec::new()),
            stats: CacheStatsCell::default(),
        }
    }

    pub(crate) fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    #[inline]
    fn place(&self, line_addr: u64) -> (usize, usize) {
        // Intel LLCs select slice+set by hashing address bits ("complex
        // addressing"), so capacity evictions are decorrelated from the
        // program's write order — the mechanism that turns unflushed
        // sequential writes into scattered 64 B arrivals at the PMem
        // (Ob1/R1). A multiplicative hash models that scatter.
        let h = (line_addr / CACHELINE as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        let set = (h % self.cfg.num_sets() as u64) as usize;
        let shard = set % self.shards.len();
        (shard, set / self.shards.len())
    }

    #[inline]
    fn is_locked(&self, line_addr: u64) -> bool {
        let ranges = self.locked_ranges.read();
        ranges.iter().any(|&(s, e)| line_addr >= s && line_addr < e)
    }

    #[inline]
    fn charge_hit(&self) {
        self.dev
            .clock()
            .charge(self.dev.config().latency.cache_hit_ns);
    }

    /// Reserve `[start, start+len)` (64 B aligned) in the locked partition.
    /// Existing cached lines in the range migrate into it.
    pub(crate) fn lock_region(&self, start: u64, len: u64) {
        assert_eq!(
            start % CACHELINE as u64,
            0,
            "lock region must be line aligned"
        );
        assert_eq!(
            len % CACHELINE as u64,
            0,
            "lock region length must be line aligned"
        );
        // Migrate any normally-cached lines in range into the locked table so
        // a single line never exists in both partitions.
        let mut addr = start;
        while addr < start + len {
            let (si, set) = self.place(addr);
            let mut shard = self.shards[si].lock();
            if let Some(pos) = shard.sets[set].iter().position(|l| l.tag == addr) {
                let line = shard.sets[set].swap_remove(pos);
                shard.locked.insert(
                    addr,
                    LockedLine {
                        data: line.data,
                        dirty: line.dirty,
                    },
                );
            }
            addr += CACHELINE as u64;
        }
        self.locked_ranges.write().push((start, start + len));
    }

    /// Release a locked region: dirty lines are written back to the device
    /// and the partition space is returned.
    pub(crate) fn unlock_region(&self, start: u64, len: u64) {
        {
            let mut ranges = self.locked_ranges.write();
            if let Some(pos) = ranges.iter().position(|&r| r == (start, start + len)) {
                ranges.swap_remove(pos);
            }
        }
        let mut addr = start;
        while addr < start + len {
            let (si, _) = self.place(addr);
            let mut shard = self.shards[si].lock();
            let dirty = shard.locked.remove(&addr).filter(|l| l.dirty);
            drop(shard);
            if let Some(line) = dirty {
                self.dev.write_cacheline(addr, &line.data);
            }
            addr += CACHELINE as u64;
        }
    }

    /// Currently locked ranges (for tests and recovery).
    pub(crate) fn locked_ranges(&self) -> Vec<(u64, u64)> {
        self.locked_ranges.read().clone()
    }

    /// Store `data` at `addr` through the cache (write-back, write-allocate).
    pub(crate) fn store(&self, addr: u64, data: &[u8]) {
        self.for_each_line(addr, data.len(), |line, lo, hi, rng| {
            self.store_line(line, lo, hi, &data[rng.clone()]);
        });
    }

    /// Load `buf.len()` bytes at `addr` through the cache.
    pub(crate) fn load(&self, addr: u64, buf: &mut [u8]) {
        let mut scratch: Vec<(std::ops::Range<usize>, u64, usize, usize)> = Vec::new();
        self.for_each_line(addr, buf.len(), |line, lo, hi, rng| {
            scratch.push((rng, line, lo, hi));
        });
        for (rng, line, lo, hi) in scratch {
            self.load_line(line, lo, hi, &mut buf[rng]);
        }
    }

    /// Apply `f(line_addr, lo, hi, dst_range)` to every cacheline overlapped
    /// by `[addr, addr+len)`.
    fn for_each_line(
        &self,
        addr: u64,
        len: usize,
        mut f: impl FnMut(u64, usize, usize, std::ops::Range<usize>),
    ) {
        let mut cur = addr;
        let end = addr + len as u64;
        while cur < end {
            let line = cur & LINE_MASK;
            let lo = (cur - line) as usize;
            let hi = CACHELINE.min((end - line) as usize);
            let dst_lo = (cur - addr) as usize;
            let dst_hi = dst_lo + (hi - lo);
            f(line, lo, hi, dst_lo..dst_hi);
            cur = line + CACHELINE as u64;
        }
    }

    fn store_line(&self, line_addr: u64, lo: usize, hi: usize, src: &[u8]) {
        let partial = lo != 0 || hi != CACHELINE;
        if self.is_locked(line_addr) {
            let (si, _) = self.place(line_addr);
            let mut shard = self.shards[si].lock();
            CacheStatsCell::bump(&self.stats.locked_hits);
            match shard.locked.get_mut(&line_addr) {
                Some(l) => {
                    l.data[lo..hi].copy_from_slice(src);
                    l.dirty = true;
                    CacheStatsCell::bump(&self.stats.store_hits);
                    drop(shard);
                    self.charge_hit();
                }
                None => {
                    let mut data = [0u8; CACHELINE];
                    if partial {
                        drop(shard);
                        self.dev.read(line_addr, &mut data);
                        shard = self.shards[si].lock();
                    }
                    // Re-check: another thread may have populated the line
                    // while the lock was released for the fill; merging into
                    // its (newer) copy must not clobber it with stale data.
                    if let Some(l) = shard.locked.get_mut(&line_addr) {
                        l.data[lo..hi].copy_from_slice(src);
                        l.dirty = true;
                    } else {
                        data[lo..hi].copy_from_slice(src);
                        shard
                            .locked
                            .insert(line_addr, LockedLine { data, dirty: true });
                    }
                    CacheStatsCell::bump(&self.stats.store_misses);
                    drop(shard);
                    self.charge_hit();
                }
            }
            return;
        }

        let (si, set) = self.place(line_addr);
        let mut shard = self.shards[si].lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(l) = shard.sets[set].iter_mut().find(|l| l.tag == line_addr) {
            l.data[lo..hi].copy_from_slice(src);
            l.dirty = true;
            l.tick = tick;
            CacheStatsCell::bump(&self.stats.store_hits);
            drop(shard);
            self.charge_hit();
            return;
        }
        CacheStatsCell::bump(&self.stats.store_misses);
        let mut data = [0u8; CACHELINE];
        if partial {
            // Write-allocate: fetch the rest of the line (RFO) before the
            // partial update. Full-line stores skip the fetch, modelling
            // store-buffer merging of streaming writes.
            drop(shard);
            self.dev.read(line_addr, &mut data);
            shard = self.shards[si].lock();
            // Re-check: another thread may have allocated the line while
            // the lock was released; merge into its copy rather than
            // inserting a duplicate built from a possibly stale fill.
            if let Some(l) = shard.sets[set].iter_mut().find(|l| l.tag == line_addr) {
                l.data[lo..hi].copy_from_slice(src);
                l.dirty = true;
                l.tick = tick;
                drop(shard);
                self.charge_hit();
                return;
            }
        }
        data[lo..hi].copy_from_slice(src);
        let victim = Self::insert_line(
            &mut shard,
            set,
            self.cfg.ways,
            Line {
                tag: line_addr,
                data,
                dirty: true,
                tick,
            },
        );
        drop(shard);
        self.charge_hit();
        self.evict(victim);
    }

    fn load_line(&self, line_addr: u64, lo: usize, hi: usize, dst: &mut [u8]) {
        if self.is_locked(line_addr) {
            let (si, _) = self.place(line_addr);
            let shard = self.shards[si].lock();
            CacheStatsCell::bump(&self.stats.locked_hits);
            if let Some(l) = shard.locked.get(&line_addr) {
                dst.copy_from_slice(&l.data[lo..hi]);
                CacheStatsCell::bump(&self.stats.load_hits);
                drop(shard);
                self.charge_hit();
            } else {
                drop(shard);
                let mut data = [0u8; CACHELINE];
                self.dev.read(line_addr, &mut data);
                let mut shard = self.shards[si].lock();
                // Re-check: a store may have landed while the lock was
                // released — its copy is newer than the device fill and
                // must not be replaced with a stale clean line.
                if let Some(l) = shard.locked.get(&line_addr) {
                    dst.copy_from_slice(&l.data[lo..hi]);
                } else {
                    dst.copy_from_slice(&data[lo..hi]);
                    shard
                        .locked
                        .insert(line_addr, LockedLine { data, dirty: false });
                }
                CacheStatsCell::bump(&self.stats.load_misses);
            }
            return;
        }

        let (si, set) = self.place(line_addr);
        let mut shard = self.shards[si].lock();
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(l) = shard.sets[set].iter_mut().find(|l| l.tag == line_addr) {
            l.tick = tick;
            dst.copy_from_slice(&l.data[lo..hi]);
            CacheStatsCell::bump(&self.stats.load_hits);
            drop(shard);
            self.charge_hit();
            return;
        }
        CacheStatsCell::bump(&self.stats.load_misses);
        drop(shard);
        let mut data = [0u8; CACHELINE];
        self.dev.read(line_addr, &mut data);
        dst.copy_from_slice(&data[lo..hi]);
        let mut shard = self.shards[si].lock();
        // Re-check: another thread may have allocated the line meanwhile.
        if shard.sets[set].iter().any(|l| l.tag == line_addr) {
            return;
        }
        let victim = Self::insert_line(
            &mut shard,
            set,
            self.cfg.ways,
            Line {
                tag: line_addr,
                data,
                dirty: false,
                tick,
            },
        );
        drop(shard);
        self.evict(victim);
    }

    /// Insert a line, returning the LRU victim if the set was full.
    fn insert_line(shard: &mut Shard, set: usize, ways: usize, line: Line) -> Option<Line> {
        let victim = if shard.sets[set].len() >= ways {
            let lru = shard.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.tick)
                .map(|(i, _)| i)
                .expect("full set has a victim");
            Some(shard.sets[set].swap_remove(lru))
        } else {
            None
        };
        shard.sets[set].push(line);
        victim
    }

    fn evict(&self, victim: Option<Line>) {
        if let Some(v) = victim {
            CacheStatsCell::bump(&self.stats.evictions);
            if v.dirty {
                CacheStatsCell::bump(&self.stats.dirty_evictions);
                self.dev.write_cacheline(v.tag, &v.data);
            }
        }
    }

    /// Atomic 64-bit compare-and-swap on a cached location (lock cmpxchg).
    /// The value must not straddle a cacheline. Returns the previous value;
    /// the swap happened iff it equals `expected`. Only supported on
    /// CAT-locked lines (CacheKV's packed sub-MemTable headers) — x86 CAS on
    /// an uncached PMem line would implicitly fetch it, which locked regions
    /// already guarantee.
    pub(crate) fn cas_u64(&self, addr: u64, expected: u64, new: u64) -> u64 {
        assert_eq!(addr % 8, 0, "CAS must be 8-byte aligned");
        let line = addr & LINE_MASK;
        assert!(self.is_locked(line), "cas_u64 requires a CAT-locked line");
        let (si, _) = self.place(line);
        let mut shard = self.shards[si].lock();
        if !shard.locked.contains_key(&line) {
            // First touch after a CAT re-lock: fetch the line's true
            // contents from the device before operating on it.
            drop(shard);
            let mut data = [0u8; CACHELINE];
            self.dev.read(line, &mut data);
            shard = self.shards[si].lock();
            shard
                .locked
                .entry(line)
                .or_insert(LockedLine { data, dirty: false });
        }
        let l = shard.locked.get_mut(&line).expect("just ensured present");
        let off = (addr - line) as usize;
        let cur = u64::from_le_bytes(l.data[off..off + 8].try_into().unwrap());
        if cur == expected {
            l.data[off..off + 8].copy_from_slice(&new.to_le_bytes());
            l.dirty = true;
        }
        drop(shard);
        self.charge_hit();
        cur
    }

    /// `clflush` every line in `[addr, addr+len)`: write back if dirty, then
    /// invalidate. Works on both partitions (the paper's footnote 5: flush
    /// instructions evict even "locked" lines).
    pub(crate) fn clflush(&self, addr: u64, len: usize) {
        self.flush_range(addr, len, true);
    }

    /// `clwb` every line in `[addr, addr+len)`: write back if dirty, retain.
    pub(crate) fn clwb(&self, addr: u64, len: usize) {
        self.flush_range(addr, len, false);
    }

    fn flush_range(&self, addr: u64, len: usize, invalidate: bool) {
        let lat = self.dev.config().latency;
        let cost = if invalidate {
            lat.clflush_ns
        } else {
            lat.clwb_ns
        };
        let mut line = addr & LINE_MASK;
        let end = addr + len as u64;
        while line < end {
            CacheStatsCell::bump(&self.stats.flush_ops);
            self.dev.clock().charge(cost);
            let (si, set) = self.place(line);
            let mut shard = self.shards[si].lock();
            let mut to_write: Option<[u8; CACHELINE]> = None;
            if let Some(l) = shard.locked.get_mut(&line) {
                if l.dirty {
                    to_write = Some(l.data);
                    l.dirty = false;
                }
                if invalidate {
                    shard.locked.remove(&line);
                }
            } else if let Some(pos) = shard.sets[set].iter().position(|l| l.tag == line) {
                if shard.sets[set][pos].dirty {
                    to_write = Some(shard.sets[set][pos].data);
                    shard.sets[set][pos].dirty = false;
                }
                if invalidate {
                    shard.sets[set].swap_remove(pos);
                }
            }
            drop(shard);
            if let Some(data) = to_write {
                self.dev.write_cacheline(line, &data);
            }
            line += CACHELINE as u64;
        }
    }

    /// Non-temporal store: bypasses the cache and streams to the device in
    /// store order, which is what CacheKV's copy-based flush relies on to
    /// fill whole XPLines. Cached copies of the touched lines are first made
    /// coherent (dirty ones written back) and invalidated.
    pub(crate) fn nt_store(&self, addr: u64, data: &[u8]) {
        let lat = self.dev.config().latency;
        // Invalidate overlapping cached lines so later loads see the stream.
        let first = addr & LINE_MASK;
        let end = addr + data.len() as u64;
        let mut line = first;
        while line < end {
            let (si, set) = self.place(line);
            let mut shard = self.shards[si].lock();
            let mut writeback: Option<[u8; CACHELINE]> = None;
            if let Some(l) = shard.locked.get(&line) {
                if l.dirty {
                    writeback = Some(l.data);
                }
                shard.locked.remove(&line);
            } else if let Some(pos) = shard.sets[set].iter().position(|l| l.tag == line) {
                let l = shard.sets[set].swap_remove(pos);
                if l.dirty {
                    writeback = Some(l.data);
                }
            }
            drop(shard);
            if let Some(d) = writeback {
                self.dev.write_cacheline(line, &d);
            }
            line += CACHELINE as u64;
        }
        // Stream the payload. Full lines go straight through; edges are
        // completed by the device's read-patch path.
        let lines = data.len().div_ceil(CACHELINE) as u64;
        self.stats
            .nt_lines
            .fetch_add(lines, std::sync::atomic::Ordering::Relaxed);
        self.dev.clock().charge(lines * lat.nt_store_64_ns);
        self.dev.write(addr, data);
    }

    /// Persistence barrier.
    pub(crate) fn sfence(&self) {
        self.dev.persist_barrier();
    }

    /// Write back every dirty line (both partitions) without invalidating.
    ///
    /// The snapshot is a single point-in-time cut: all shards are locked at
    /// once, dirty lines collected, then the locks released before the data
    /// streams to the device. A real power failure freezes execution
    /// instantly — every retired store is inside the eADR domain — so the
    /// capture must not interleave with concurrent stores shard-by-shard
    /// (that could capture a published header CAS while missing the record
    /// bytes the same thread stored just before it, an ordering no hardware
    /// can produce). No caller may hold a shard lock across a device write,
    /// or the fault-trip observer running this would deadlock.
    pub(crate) fn writeback_all(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        let mut pending: Vec<(u64, [u8; CACHELINE])> = Vec::new();
        for shard in guards.iter_mut() {
            for set in shard.sets.iter_mut() {
                for l in set.iter_mut().filter(|l| l.dirty) {
                    pending.push((l.tag, l.data));
                    l.dirty = false;
                }
            }
            for (addr, l) in shard.locked.iter_mut() {
                if l.dirty {
                    pending.push((*addr, l.data));
                    l.dirty = false;
                }
            }
        }
        drop(guards);
        // Deterministic order: by address.
        pending.sort_unstable_by_key(|&(a, _)| a);
        for (addr, data) in pending {
            self.dev.write_cacheline(addr, &data);
        }
    }

    /// Drop every line. Under ADR this is what a power failure does to the
    /// caches; dirty data is lost.
    pub(crate) fn invalidate_all(&self) {
        for m in &self.shards {
            let mut shard = m.lock();
            for set in shard.sets.iter_mut() {
                set.clear();
            }
            shard.locked.clear();
        }
        self.locked_ranges.write().clear();
    }

    /// Number of dirty lines currently held (test helper).
    pub(crate) fn dirty_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|m| {
                let s = m.lock();
                s.sets.iter().flatten().filter(|l| l.dirty).count()
                    + s.locked.values().filter(|l| l.dirty).count()
            })
            .sum()
    }
}

#[cfg(test)]
impl Llc {
    /// Whether `addr`'s line is present in either partition (test helper).
    pub(crate) fn contains_line(&self, addr: u64) -> bool {
        let line = addr & LINE_MASK;
        let (si, set) = self.place(line);
        let shard = self.shards[si].lock();
        shard.locked.contains_key(&line) || shard.sets[set].iter().any(|l| l.tag == line)
    }
}
