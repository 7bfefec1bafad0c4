//! Set-associative LLC with LRU replacement and CAT-locked regions.
//!
//! Data in dirty lines is *newer than the media*: it only reaches the
//! [`PmemDevice`] on replacement, on an explicit `clflush`/`clwb`, or — under
//! eADR — on power failure. Locked regions model Intel CAT pseudo-locking: a
//! side partition that replacement never touches, used by CacheKV to pin the
//! sub-MemTable pool.
//!
//! Host-side layout (none of it is modelled; the golden tape in
//! `tests/golden_tape.rs` pins that it changes no modelled number):
//! * Each shard keeps its sets as parallel arrays indexed by
//!   `set * ways + way` — tags, LRU ticks and dirty flags packed, line data
//!   apart — so a lookup scans one run of tags rather than whole lines.
//! * A CAT-locked region keeps its lines in a slab indexed by line offset
//!   from the region start, in stripes of 64 lines that share a lock and
//!   one present and one dirty bitset.
//! * A range operation resolves its CAT region once per run of lines and
//!   keeps a shard or stripe lock across consecutive lines that share it.
//!
//! **In-flight lines.** A dirty line leaving the cache (replacement,
//! `clflush`/`clwb`, a non-temporal store over it, CAT unlock) is entered in
//! its shard's in-flight table under the lock that removed it, and cleared
//! once `write_cacheline` has returned. Fills read that table before the
//! device, and [`Llc::writeback_all`] puts in-flight lines into its cut, so
//! no load and no crash image sees the device's older bytes while the line
//! is between the cache and the device.

use crate::config::CacheConfig;
use crate::stats::CacheStatsCell;
use cachekv_pmem::{PmemDevice, CACHELINE};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::ops::Range;
use std::sync::Arc;

const LINE: u64 = CACHELINE as u64;
const LINE_MASK: u64 = !(LINE - 1);
/// Tag bit marking an occupied way. Line addresses are 64 B aligned, so the
/// bit is free, and a zeroed tag array is an empty set.
const VALID: u64 = 1;
/// Lines per slab stripe: one `u64` each of present and dirty bits.
const STRIPE_LINES: usize = 64;

type LineData = [u8; CACHELINE];

/// A line pushed out of a full set.
struct Victim {
    line: u64,
    /// The line's data if it was dirty.
    dirty: Option<LineData>,
}

/// One lock's share of the sets.
struct Shard {
    ways: usize,
    /// `line | VALID` per way; 0 marks an empty way.
    tags: Vec<u64>,
    /// LRU tick per way. Every access draws a fresh shard tick, so ticks are
    /// unique within a shard and the victim (the minimum) is too.
    ticks: Vec<u64>,
    dirty: Vec<bool>,
    data: Vec<LineData>,
    tick: u64,
    /// Dirty lines of this shard (either partition) on their way to the
    /// device, oldest first, with the sequence number that names each.
    inflight: Vec<(u64, u64, LineData)>,
    next_seq: u64,
}

impl Shard {
    fn new(sets: usize, ways: usize) -> Self {
        let n = sets * ways;
        Shard {
            ways,
            tags: vec![0; n],
            ticks: vec![0; n],
            dirty: vec![false; n],
            data: vec![[0; CACHELINE]; n],
            tick: 0,
            inflight: Vec::new(),
            next_seq: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The way (as a flat slot index) holding `line` in `set`.
    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line | VALID)
            .map(|w| base + w)
    }

    /// Put `line` into `set`, replacing the LRU way if the set is full.
    fn install(
        &mut self,
        set: usize,
        line: u64,
        data: &LineData,
        dirty: bool,
        tick: u64,
    ) -> Option<Victim> {
        let base = set * self.ways;
        let (slot, victim) = match self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == 0)
        {
            Some(w) => (base + w, None),
            None => {
                let slot = (base..base + self.ways)
                    .min_by_key(|&s| self.ticks[s])
                    .expect("a set has ways");
                let victim = Victim {
                    line: self.tags[slot] & !VALID,
                    dirty: self.dirty[slot].then_some(self.data[slot]),
                };
                (slot, Some(victim))
            }
        };
        self.tags[slot] = line | VALID;
        self.ticks[slot] = tick;
        self.dirty[slot] = dirty;
        self.data[slot] = *data;
        victim
    }

    fn clear(&mut self, slot: usize) {
        self.tags[slot] = 0;
        self.dirty[slot] = false;
    }

    /// The newest in-flight copy of `line`.
    fn inflight(&self, line: u64) -> Option<&LineData> {
        self.inflight
            .iter()
            .rev()
            .find(|e| e.0 == line)
            .map(|e| &e.2)
    }

    /// Enter a dirty line that is leaving the cache. Returns its sequence
    /// number and whether an older copy of the line is still in flight.
    fn depart(&mut self, line: u64, data: LineData) -> (u64, bool) {
        let older = self.inflight.iter().any(|e| e.0 == line);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push((line, seq, data));
        (seq, older)
    }
}

/// A CAT-locked region's lines: a slab indexed by line offset from `start`.
struct Region {
    start: u64,
    end: u64,
    stripes: Box<[Mutex<Stripe>]>,
}

#[derive(Default)]
struct Stripe {
    present: u64,
    dirty: u64,
    /// Set when the region is unlocked or invalidated. An operation that
    /// resolved the region before that goes through the sets instead.
    retired: bool,
    /// Allocated at the stripe's first line.
    data: Option<Box<[LineData; STRIPE_LINES]>>,
}

impl Region {
    /// Stripe index and bit of `line`.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u32) {
        let i = ((line - self.start) / LINE) as usize;
        (i / STRIPE_LINES, (i % STRIPE_LINES) as u32)
    }

    fn line_at(&self, stripe: usize, bit: u32) -> u64 {
        self.start + (stripe * STRIPE_LINES + bit as usize) as u64 * LINE
    }
}

impl Stripe {
    #[inline]
    fn get(&self, bit: u32) -> Option<&LineData> {
        match &self.data {
            Some(d) if self.present >> bit & 1 == 1 => Some(&d[bit as usize]),
            _ => None,
        }
    }

    #[inline]
    fn get_mut(&mut self, bit: u32) -> Option<&mut LineData> {
        match &mut self.data {
            Some(d) if self.present >> bit & 1 == 1 => Some(&mut d[bit as usize]),
            _ => None,
        }
    }

    fn put(&mut self, bit: u32, data: LineData, dirty: bool) {
        self.data
            .get_or_insert_with(|| Box::new([[0; CACHELINE]; STRIPE_LINES]))[bit as usize] = data;
        self.present |= 1 << bit;
        self.dirty = self.dirty & !(1 << bit) | u64::from(dirty) << bit;
    }

    fn is_dirty(&self, bit: u32) -> bool {
        self.dirty >> bit & 1 == 1
    }
}

/// Lock `locks[i]`, reusing the guard in `held` when it already holds that
/// lock: a range operation's consecutive lines often share one. The old
/// guard is released first, so no thread ever holds two locks of one kind
/// (only [`Llc::writeback_all`] does, and it takes them in index order).
fn relock<'a, 'h, T>(
    locks: &'a [Mutex<T>],
    held: &'h mut Option<(usize, MutexGuard<'a, T>)>,
    i: usize,
) -> &'h mut T {
    if held.as_ref().map(|h| h.0) != Some(i) {
        *held = None;
        *held = Some((i, locks[i].lock()));
    }
    &mut held.as_mut().expect("just locked").1
}

/// Bytes `lo..hi` of `line` that `[addr, end)` covers, and where they sit
/// in the caller's buffer.
#[inline]
fn span(addr: u64, end: u64, line: u64) -> (usize, usize, Range<usize>) {
    let lo = addr.max(line) - line;
    let hi = end.min(line + LINE) - line;
    let at = (line + lo - addr) as usize;
    (lo as usize, hi as usize, at..at + (hi - lo) as usize)
}

#[cfg(test)]
type GapHook = Box<dyn FnMut(u64)>;

#[cfg(test)]
thread_local! {
    /// Runs on this thread between a dirty line leaving the cache and its
    /// `write_cacheline`, so a test can act inside that window.
    static WRITEBACK_GAP: std::cell::RefCell<Option<GapHook>> =
        const { std::cell::RefCell::new(None) };
}

#[inline]
fn writeback_gap(_line: u64) {
    #[cfg(test)]
    WRITEBACK_GAP.with(|h| {
        if let Some(f) = h.borrow_mut().as_mut() {
            f(_line)
        }
    });
}

/// The LLC simulator. Shared behind `Arc` by every thread of a store.
pub(crate) struct Llc {
    dev: Arc<PmemDevice>,
    num_sets: u64,
    shards: Vec<Mutex<Shard>>,
    /// CAT-locked regions, pairwise disjoint.
    regions: RwLock<Vec<Arc<Region>>>,
    pub(crate) stats: CacheStatsCell,
}

impl Llc {
    pub(crate) fn new(dev: Arc<PmemDevice>, cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let shards = cfg.shards.min(num_sets);
        let shards = (0..shards)
            .map(|s| {
                let sets_here = num_sets / shards + usize::from(s < num_sets % shards);
                Mutex::new(Shard::new(sets_here, cfg.ways))
            })
            .collect();
        Llc {
            dev,
            num_sets: num_sets as u64,
            shards,
            regions: RwLock::new(Vec::new()),
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
        let h = (line_addr / LINE).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        let set = (h % self.num_sets) as usize;
        let shard = set % self.shards.len();
        (shard, set / self.shards.len())
    }

    /// Charge `n` cache hits in one go (an operation's hits are summed).
    fn charge_hits(&self, n: u64) {
        self.dev
            .clock()
            .charge(n * self.dev.config().latency.cache_hit_ns);
    }

    /// Call `f(region, first, stop)` for consecutive runs of the lines in
    /// `[first, end)`, each wholly inside one CAT region or outside all of
    /// them. The region list is read once per run.
    fn for_each_run(&self, first: u64, end: u64, mut f: impl FnMut(Option<&Region>, u64, u64)) {
        let mut cur = first;
        while cur < end {
            let (region, stop) = {
                let regions = self.regions.read();
                match regions.iter().find(|r| cur >= r.start && cur < r.end) {
                    Some(r) => (Some(r.clone()), r.end.min(end)),
                    None => {
                        let next = regions.iter().map(|r| r.start).filter(|&s| s > cur).min();
                        (None, next.unwrap_or(end).min(end))
                    }
                }
            };
            f(region.as_deref(), cur, stop);
            cur = stop;
        }
    }

    /// Contents for a line entering the cache: an in-flight copy is newer
    /// than the device. The caller holds the lock of the line's shard, so no
    /// departure of the line can fall between the check and the read.
    fn fill(&self, shard: &Shard, line: u64) -> LineData {
        if let Some(d) = shard.inflight(line) {
            return *d;
        }
        let mut data = [0; CACHELINE];
        self.dev.read(line, &mut data);
        data
    }

    /// [`Llc::fill`] for a CAT-locked line. The caller holds the line's
    /// stripe lock, which every departure of the line also takes; its
    /// in-flight copies sit in the shard its address maps to.
    fn fill_locked(&self, line: u64) -> LineData {
        self.fill(&self.shards[self.place(line).0].lock(), line)
    }

    /// Hand a departed dirty line to the device, then clear its in-flight
    /// entry. Called with no simulator lock held. Copies of one line reach
    /// the device in departure order: a later one waits for the earlier.
    fn write_back(&self, si: usize, line: u64, (seq, older): (u64, bool), data: &LineData) {
        if older {
            while self.shards[si]
                .lock()
                .inflight
                .iter()
                .find(|e| e.0 == line)
                .is_some_and(|e| e.1 != seq)
            {
                std::thread::yield_now();
            }
        }
        writeback_gap(line);
        self.dev.write_cacheline(line, data);
        let mut shard = self.shards[si].lock();
        if let Some(pos) = shard.inflight.iter().position(|e| e.1 == seq) {
            shard.inflight.remove(pos);
        }
    }

    /// Count a replacement, and write a dirty victim back. The victim's
    /// shard is the one `held` locks; the lock is released for the write.
    fn evict(&self, held: &mut Option<(usize, MutexGuard<'_, Shard>)>, victim: Option<Victim>) {
        let Some(v) = victim else { return };
        CacheStatsCell::bump(&self.stats.evictions);
        if let Some(data) = v.dirty {
            CacheStatsCell::bump(&self.stats.dirty_evictions);
            let (si, shard) = held.as_mut().expect("victim's shard is held");
            let si = *si;
            let ticket = shard.depart(v.line, data);
            *held = None;
            self.write_back(si, v.line, ticket, &data);
        }
    }

    /// Reserve `[start, start+len)` (64 B aligned) in the locked partition.
    /// Existing cached lines in the range migrate into it.
    pub(crate) fn lock_region(&self, start: u64, len: u64) {
        assert_eq!(start % LINE, 0, "lock region must be line aligned");
        assert_eq!(len % LINE, 0, "lock region length must be line aligned");
        let end = start + len;
        let lines = (len / LINE) as usize;
        let mut stripes: Vec<Stripe> = (0..lines.div_ceil(STRIPE_LINES))
            .map(|_| Stripe::default())
            .collect();
        // Migrate any normally-cached lines in range into the slab so a
        // single line never exists in both partitions.
        let mut held = None;
        for line in (start..end).step_by(CACHELINE) {
            let (si, set) = self.place(line);
            let shard = relock(&self.shards, &mut held, si);
            if let Some(slot) = shard.find(set, line) {
                let i = ((line - start) / LINE) as usize;
                stripes[i / STRIPE_LINES].put(
                    (i % STRIPE_LINES) as u32,
                    shard.data[slot],
                    shard.dirty[slot],
                );
                shard.clear(slot);
            }
        }
        drop(held);
        let region = Arc::new(Region {
            start,
            end,
            stripes: stripes.into_iter().map(Mutex::new).collect(),
        });
        let mut regions = self.regions.write();
        assert!(
            regions.iter().all(|r| end <= r.start || start >= r.end),
            "CAT regions must not overlap: [{start:#x}, {end:#x})"
        );
        regions.push(region);
    }

    /// Release a locked region: dirty lines are written back to the device
    /// and the partition space is returned.
    pub(crate) fn unlock_region(&self, start: u64, len: u64) {
        let region = {
            let mut regions = self.regions.write();
            match regions
                .iter()
                .position(|r| (r.start, r.end) == (start, start + len))
            {
                Some(pos) => regions.swap_remove(pos),
                None => return,
            }
        };
        let mut pending = Vec::new();
        for (i, stripe) in region.stripes.iter().enumerate() {
            let mut st = stripe.lock();
            let mut dirty = st.dirty;
            while dirty != 0 {
                let bit = dirty.trailing_zeros();
                dirty &= dirty - 1;
                let line = region.line_at(i, bit);
                let data = *st.get(bit).expect("dirty lines are present");
                let si = self.place(line).0;
                let ticket = self.shards[si].lock().depart(line, data);
                pending.push((si, line, ticket, data));
            }
            *st = Stripe {
                retired: true,
                ..Stripe::default()
            };
            drop(st);
            for (si, line, ticket, data) in pending.drain(..) {
                self.write_back(si, line, ticket, &data);
            }
        }
    }

    /// Currently locked ranges (for tests and recovery).
    pub(crate) fn locked_ranges(&self) -> Vec<(u64, u64)> {
        self.regions
            .read()
            .iter()
            .map(|r| (r.start, r.end))
            .collect()
    }

    /// Store `data` at `addr` through the cache (write-back, write-allocate).
    pub(crate) fn store(&self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        let mut hits = 0;
        self.for_each_run(addr & LINE_MASK, end, |region, first, stop| match region {
            Some(r) => self.store_locked(r, addr, end, first..stop, data, &mut hits),
            None => self.store_sets(addr, end, first..stop, data, &mut hits),
        });
        self.charge_hits(hits);
    }

    /// Load `buf.len()` bytes at `addr` through the cache.
    pub(crate) fn load(&self, addr: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let end = addr + buf.len() as u64;
        let mut hits = 0;
        self.for_each_run(addr & LINE_MASK, end, |region, first, stop| match region {
            Some(r) => self.load_locked(r, addr, end, first..stop, buf, &mut hits),
            None => self.load_sets(addr, end, first..stop, buf, &mut hits),
        });
        self.charge_hits(hits);
    }

    /// Store the bytes of `[addr, end)` that fall in `lines` (normal
    /// partition). Every line counts one charged hit, miss or not.
    fn store_sets(&self, addr: u64, end: u64, lines: Range<u64>, src: &[u8], hits: &mut u64) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (lo, hi, from) = span(addr, end, line);
            let (si, set) = self.place(line);
            *hits += 1;
            let victim = {
                let shard = relock(&self.shards, &mut held, si);
                let tick = shard.next_tick();
                if let Some(slot) = shard.find(set, line) {
                    shard.data[slot][lo..hi].copy_from_slice(&src[from]);
                    shard.dirty[slot] = true;
                    shard.ticks[slot] = tick;
                    CacheStatsCell::bump(&self.stats.store_hits);
                    continue;
                }
                CacheStatsCell::bump(&self.stats.store_misses);
                // Write-allocate: a partial store fetches the rest of the
                // line (RFO) first. Full-line stores skip the fetch,
                // modelling store-buffer merging of streaming writes.
                let mut data = if hi - lo < CACHELINE {
                    self.fill(shard, line)
                } else {
                    [0; CACHELINE]
                };
                data[lo..hi].copy_from_slice(&src[from]);
                shard.install(set, line, &data, true, tick)
            };
            self.evict(&mut held, victim);
        }
    }

    fn store_locked(
        &self,
        r: &Region,
        addr: u64,
        end: u64,
        lines: Range<u64>,
        src: &[u8],
        hits: &mut u64,
    ) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (lo, hi, from) = span(addr, end, line);
            let (i, bit) = r.locate(line);
            let st = relock(&r.stripes, &mut held, i);
            if st.retired {
                held = None;
                self.store_sets(addr, end, line..line + LINE, src, hits);
                continue;
            }
            CacheStatsCell::bump(&self.stats.locked_hits);
            *hits += 1;
            if let Some(d) = st.get_mut(bit) {
                d[lo..hi].copy_from_slice(&src[from]);
                st.dirty |= 1 << bit;
                CacheStatsCell::bump(&self.stats.store_hits);
                continue;
            }
            let mut data = if hi - lo < CACHELINE {
                self.fill_locked(line)
            } else {
                [0; CACHELINE]
            };
            data[lo..hi].copy_from_slice(&src[from]);
            st.put(bit, data, true);
            CacheStatsCell::bump(&self.stats.store_misses);
        }
    }

    /// Load the bytes of `[addr, end)` that fall in `lines` (normal
    /// partition). Hits are charged; a miss pays the device read.
    fn load_sets(&self, addr: u64, end: u64, lines: Range<u64>, buf: &mut [u8], hits: &mut u64) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (lo, hi, to) = span(addr, end, line);
            let (si, set) = self.place(line);
            let victim = {
                let shard = relock(&self.shards, &mut held, si);
                let tick = shard.next_tick();
                if let Some(slot) = shard.find(set, line) {
                    shard.ticks[slot] = tick;
                    buf[to].copy_from_slice(&shard.data[slot][lo..hi]);
                    CacheStatsCell::bump(&self.stats.load_hits);
                    *hits += 1;
                    continue;
                }
                CacheStatsCell::bump(&self.stats.load_misses);
                let data = self.fill(shard, line);
                buf[to].copy_from_slice(&data[lo..hi]);
                shard.install(set, line, &data, false, tick)
            };
            self.evict(&mut held, victim);
        }
    }

    fn load_locked(
        &self,
        r: &Region,
        addr: u64,
        end: u64,
        lines: Range<u64>,
        buf: &mut [u8],
        hits: &mut u64,
    ) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (lo, hi, to) = span(addr, end, line);
            let (i, bit) = r.locate(line);
            let st = relock(&r.stripes, &mut held, i);
            if st.retired {
                held = None;
                self.load_sets(addr, end, line..line + LINE, buf, hits);
                continue;
            }
            CacheStatsCell::bump(&self.stats.locked_hits);
            if let Some(d) = st.get(bit) {
                buf[to].copy_from_slice(&d[lo..hi]);
                CacheStatsCell::bump(&self.stats.load_hits);
                *hits += 1;
                continue;
            }
            let data = self.fill_locked(line);
            buf[to].copy_from_slice(&data[lo..hi]);
            st.put(bit, data, false);
            CacheStatsCell::bump(&self.stats.load_misses);
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
        let region = self
            .regions
            .read()
            .iter()
            .find(|r| line >= r.start && line < r.end)
            .cloned();
        let region = region.expect("cas_u64 requires a CAT-locked line");
        let (i, bit) = region.locate(line);
        let mut st = region.stripes[i].lock();
        assert!(!st.retired, "cas_u64 requires a CAT-locked line");
        if st.get(bit).is_none() {
            // First touch after a CAT re-lock: fetch the line's true
            // contents before operating on it.
            let data = self.fill_locked(line);
            st.put(bit, data, false);
        }
        let off = (addr - line) as usize;
        let d = st.get_mut(bit).expect("just ensured present");
        let cur = u64::from_le_bytes(d[off..off + 8].try_into().unwrap());
        if cur == expected {
            d[off..off + 8].copy_from_slice(&new.to_le_bytes());
            st.dirty |= 1 << bit;
        }
        drop(st);
        self.charge_hits(1);
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
        let first = addr & LINE_MASK;
        let end = addr + len as u64;
        let lines = end.saturating_sub(first).div_ceil(LINE);
        self.stats
            .flush_ops
            .fetch_add(lines, std::sync::atomic::Ordering::Relaxed);
        self.dev.clock().charge(lines * cost);
        self.write_back_lines(first, end, invalidate);
    }

    /// Write back every dirty line among the lines of `[first, end)`, in
    /// address order, and drop them from the cache if `invalidate`.
    fn write_back_lines(&self, first: u64, end: u64, invalidate: bool) {
        self.for_each_run(first, end, |region, first, stop| match region {
            Some(r) => self.write_back_locked(r, first..stop, invalidate),
            None => self.write_back_sets(first..stop, invalidate),
        });
    }

    fn write_back_sets(&self, lines: Range<u64>, invalidate: bool) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (si, set) = self.place(line);
            let shard = relock(&self.shards, &mut held, si);
            let Some(slot) = shard.find(set, line) else {
                continue;
            };
            let dirty = shard.dirty[slot];
            let data = shard.data[slot];
            if invalidate {
                shard.clear(slot);
            } else {
                shard.dirty[slot] = false;
            }
            if dirty {
                let ticket = shard.depart(line, data);
                held = None;
                self.write_back(si, line, ticket, &data);
            }
        }
    }

    fn write_back_locked(&self, r: &Region, lines: Range<u64>, invalidate: bool) {
        let mut held = None;
        for line in lines.step_by(CACHELINE) {
            let (i, bit) = r.locate(line);
            let st = relock(&r.stripes, &mut held, i);
            if st.retired {
                held = None;
                self.write_back_sets(line..line + LINE, invalidate);
                continue;
            }
            let Some(&data) = st.get(bit) else {
                continue;
            };
            let dirty = st.is_dirty(bit);
            st.dirty &= !(1 << bit);
            if invalidate {
                st.present &= !(1 << bit);
            }
            if dirty {
                // Enter the line in flight before the stripe lock drops.
                let si = self.place(line).0;
                let ticket = self.shards[si].lock().depart(line, data);
                held = None;
                self.write_back(si, line, ticket, &data);
            }
        }
    }

    /// Non-temporal store: bypasses the cache and streams to the device in
    /// store order, which is what CacheKV's copy-based flush relies on to
    /// fill whole XPLines. Cached copies of the touched lines are first made
    /// coherent (dirty ones written back) and invalidated.
    pub(crate) fn nt_store(&self, addr: u64, data: &[u8]) {
        let lat = self.dev.config().latency;
        self.write_back_lines(addr & LINE_MASK, addr + data.len() as u64, true);
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

    /// Write back every dirty line (both partitions, and every line in
    /// flight) without invalidating.
    ///
    /// The snapshot is a single point-in-time cut: every stripe and every
    /// shard is locked at once, dirty lines collected, then the locks
    /// released before the data streams to the device. A real power failure
    /// freezes execution instantly — every retired store is inside the eADR
    /// domain — so the capture must not interleave with concurrent stores
    /// shard-by-shard (that could capture a published header CAS while
    /// missing the record bytes the same thread stored just before it, an
    /// ordering no hardware can produce). No caller may hold a simulator lock
    /// across a device write, or the fault-trip observer running this would
    /// deadlock.
    pub(crate) fn writeback_all(&self) {
        let regions: Vec<Arc<Region>> = self.regions.read().clone();
        let mut stripes: Vec<_> = regions
            .iter()
            .flat_map(|r| {
                r.stripes
                    .iter()
                    .enumerate()
                    .map(move |(i, s)| (r, i, s.lock()))
            })
            .collect();
        let mut shards: Vec<_> = self.shards.iter().map(|m| m.lock()).collect();
        // In-flight copies first: a cached copy of the same line is newer.
        let mut pending: Vec<(u64, LineData)> = shards
            .iter()
            .flat_map(|s| s.inflight.iter().map(|e| (e.0, e.2)))
            .collect();
        for shard in shards.iter_mut() {
            for slot in 0..shard.tags.len() {
                if shard.dirty[slot] {
                    pending.push((shard.tags[slot] & !VALID, shard.data[slot]));
                    shard.dirty[slot] = false;
                }
            }
        }
        for (r, i, st) in stripes.iter_mut() {
            let mut dirty = st.dirty;
            while dirty != 0 {
                let bit = dirty.trailing_zeros();
                dirty &= dirty - 1;
                let data = *st.get(bit).expect("dirty lines are present");
                pending.push((r.line_at(*i, bit), data));
            }
            st.dirty = 0;
        }
        drop(shards);
        drop(stripes);
        // Deterministic order, by address; of several copies of one line
        // only the newest (the last collected) is written.
        pending.reverse();
        pending.sort_by_key(|&(a, _)| a);
        pending.dedup_by_key(|&mut (a, _)| a);
        for (addr, data) in pending {
            self.dev.write_cacheline(addr, &data);
        }
    }

    /// Drop every line. Under ADR this is what a power failure does to the
    /// caches; dirty data is lost.
    pub(crate) fn invalidate_all(&self) {
        for r in std::mem::take(&mut *self.regions.write()) {
            for s in r.stripes.iter() {
                *s.lock() = Stripe {
                    retired: true,
                    ..Stripe::default()
                };
            }
        }
        for m in &self.shards {
            let mut shard = m.lock();
            shard.tags.fill(0);
            shard.dirty.fill(false);
        }
    }

    /// Number of dirty lines currently held (test helper).
    pub(crate) fn dirty_lines(&self) -> usize {
        let cached: usize = self
            .shards
            .iter()
            .map(|m| m.lock().dirty.iter().filter(|&&d| d).count())
            .sum();
        let locked: u32 = self
            .regions
            .read()
            .iter()
            .flat_map(|r| r.stripes.iter())
            .map(|s| s.lock().dirty.count_ones())
            .sum();
        cached + locked as usize
    }
}

#[cfg(test)]
impl Llc {
    /// Whether `addr`'s line is present in either partition (test helper).
    pub(crate) fn contains_line(&self, addr: u64) -> bool {
        let line = addr & LINE_MASK;
        let region = self
            .regions
            .read()
            .iter()
            .find(|r| line >= r.start && line < r.end)
            .cloned();
        if let Some(r) = region {
            let (i, bit) = r.locate(line);
            if r.stripes[i].lock().get(bit).is_some() {
                return true;
            }
        }
        let (si, set) = self.place(line);
        self.shards[si].lock().find(set, line).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_pmem::PmemConfig;
    use std::sync::mpsc;

    #[test]
    fn a_load_in_the_writeback_gap_reads_the_departing_line() {
        // One set of four ways: the fifth line stored evicts line 0.
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let cfg = CacheConfig {
            capacity: 256,
            ways: 4,
            shards: 1,
        };
        let llc = Arc::new(Llc::new(dev, cfg));
        let (in_gap, gap_entered) = mpsc::channel();
        let (loaded, gap_may_close) = mpsc::channel::<()>();
        let writer = {
            let llc = llc.clone();
            std::thread::spawn(move || {
                WRITEBACK_GAP.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move |line| {
                        if line == 0 {
                            in_gap.send(()).unwrap();
                            gap_may_close.recv().unwrap();
                        }
                    }))
                });
                llc.store(0, &[1; CACHELINE]);
                for i in 1..=4 {
                    llc.store(i * LINE, &[2; CACHELINE]);
                }
            })
        };
        gap_entered.recv().unwrap();
        let mut during = [0; CACHELINE];
        llc.load(0, &mut during);
        loaded.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(during, [1; CACHELINE], "load in the gap saw the device");
        let mut after = [0; CACHELINE];
        llc.load(0, &mut after);
        assert_eq!(after, [1; CACHELINE], "a stale fill outlived the write");
        let mut dev_copy = [0; CACHELINE];
        llc.device().read(0, &mut dev_copy);
        assert_eq!(dev_copy, [1; CACHELINE]);
    }

    #[test]
    fn writeback_all_cuts_in_flight_lines() {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let cfg = CacheConfig {
            capacity: 256,
            ways: 4,
            shards: 1,
        };
        let llc = Arc::new(Llc::new(dev, cfg));
        let (in_gap, gap_entered) = mpsc::channel();
        let (cut, gap_may_close) = mpsc::channel::<()>();
        let writer = {
            let llc = llc.clone();
            std::thread::spawn(move || {
                WRITEBACK_GAP.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move |line| {
                        if line == 0 {
                            in_gap.send(()).unwrap();
                            gap_may_close.recv().unwrap();
                        }
                    }))
                });
                llc.store(0, &[7; CACHELINE]);
                llc.clflush(0, CACHELINE);
            })
        };
        gap_entered.recv().unwrap();
        // The line is in neither partition now, and not on the device yet.
        assert!(!llc.contains_line(0));
        llc.writeback_all();
        let image = llc.device().clone_media();
        cut.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(&image[0][..CACHELINE], &[7; CACHELINE], "cut missed it");
    }
}
