//! DRAM hot-key cache tier: a version-stamped, memory-capped cache
//! consulted before the shard submission queue on GET.
//!
//! ```text
//!   GET ──► slab ──hit──► reply (no queue, no engine)
//!              │ miss
//!              ▼
//!        shard.store().get() ──► epoch-gated fill ──► reply
//!
//!   committer round:  publish round bloom ─► epoch→odd ─► apply writes
//!                     ─► update/remove cached entries ─► epoch→even ─► ack
//! ```
//!
//! # Coherence: round-epoch invalidation
//!
//! Naive KV caching over an LSM breaks on invalidation: a GET can read the
//! engine, lose the CPU, and insert a value that a concurrent write has
//! already superseded — serving it after the write was acked. The cache
//! therefore anchors *all* invalidation to the group-commit round, the
//! server's existing durability point:
//!
//! * Each shard has a monotonic **round epoch**: even while the shard is
//!   quiescent, odd while a commit round is applying. Only the shard's
//!   committer thread advances it, or a store swap while that thread is
//!   held idle.
//! * Before applying a round, the committer publishes the round's write-key
//!   **bloom** into the shard's one seqlock round slot, then bumps the
//!   epoch to odd. After applying, it updates (put) or removes (delete,
//!   failed write) the slab's entry for every written key — stamped with
//!   the upcoming even epoch — then bumps the epoch to even, and only then
//!   are acks released.
//! * **Invariant:** every finished round has updated or removed, under the
//!   slab lock, each entry it wrote, so a cached entry is exact unless the
//!   round in flight writes its key. A probe therefore hits unless the
//!   epoch is odd, the entry predates it, and the in-flight round's bloom
//!   may hold the key (or its slot is torn). That case is a plain miss:
//!   the entry stays, because the round's publication is about to update
//!   it.
//! * A fill captures the shard epoch *before* probing the engine and
//!   installs only if the epoch is even and unchanged at insert — a fill
//!   that raced any round is discarded rather than risk caching a value
//!   the round overwrote.
//! * A store swap (a follower's bootstrap install) runs as a round that
//!   may write every key (`HotCache::swap_round`): it purges the slab
//!   before the epoch returns to even.
//! * Probes, fills and publications read `enabled` under the slab lock,
//!   where [`HotCache::set_enabled`] purges: a publication skipped while
//!   the tier was off can then leave nothing behind for a re-enabled tier
//!   to serve.
//!
//! Consequences: after a write is acked, the slab holds (and can re-admit)
//! no older value for that key, so read-your-writes through the server
//! path holds; and because the in-flight round's bloom is visible *before*
//! its writes apply, a reader can never observe a new value from the
//! engine and subsequently an older value from the slab — per-key
//! observations are monotonic even mid-round.
//!
//! # One slab
//!
//! Every I/O thread probes and fills the one slab behind one mutex, which
//! holds the whole byte cap; a round's publication locks it once.
//! Admission is a sampled frequency sketch (`FreqSketch`, TinyLFU-style)
//! and eviction is CLOCK.

use crate::obs::ServerObs;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Accounted bytes per entry beyond key + value (map slot, stamps, clock
/// state — a deliberate overestimate so the cap is honest).
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64 over `key` — the hash used for the slab's entries, the
/// admission sketch, and round blooms. (Same family as shard routing,
/// different use: this one never feeds `% shards`.)
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0x8422_2325_cbf2_9ce4u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Hot-cache configuration (part of [`crate::ServerConfig`]).
#[derive(Debug, Clone)]
pub struct HotCacheConfig {
    /// The slab's byte cap. `0` disables the tier entirely (it cannot be
    /// enabled at runtime).
    pub(crate) capacity_bytes: usize,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        HotCacheConfig::with_capacity(16 << 20)
    }
}

impl HotCacheConfig {
    /// A configuration with the tier compiled out of the request path.
    pub fn disabled() -> Self {
        HotCacheConfig::with_capacity(0)
    }

    /// A configuration at a given byte cap.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        HotCacheConfig { capacity_bytes }
    }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Fill admission: a count-min sketch of 4-bit-equivalent saturating byte
/// counters with periodic halving (TinyLFU's aging), shared lock-free
/// across threads. `record` runs on every probe, `admit` on every fill
/// that needs to evict.
pub(crate) struct FreqSketch {
    rows: Vec<AtomicU8>,
    mask: usize,
    samples: AtomicU64,
    window: u64,
}

const SKETCH_HASHES: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xff51_afd7_ed55_8ccd,
];

impl FreqSketch {
    /// `slots` is rounded up to a power of two; the aging window is 16x
    /// the slot count, as in TinyLFU.
    pub(crate) fn new(slots: usize) -> Self {
        let slots = slots.max(64).next_power_of_two();
        FreqSketch {
            rows: (0..slots).map(|_| AtomicU8::new(0)).collect(),
            mask: slots - 1,
            samples: AtomicU64::new(0),
            window: 16 * slots as u64,
        }
    }

    fn idx(&self, h: u64, row: usize) -> usize {
        (h.wrapping_mul(SKETCH_HASHES[row]) >> 32) as usize & self.mask
    }

    /// Halve every counter (called once per aging window; racing
    /// increments are lost, which only dampens the estimate).
    fn age(&self) {
        for c in &self.rows {
            let v = c.load(Ordering::Relaxed);
            c.store(v >> 1, Ordering::Relaxed);
        }
    }

    /// Note one access to `h` (sampled frequency signal).
    pub(crate) fn record(&self, h: u64) {
        for row in 0..SKETCH_HASHES.len() {
            let c = &self.rows[self.idx(h, row)];
            // Saturating increment without wrap under races.
            let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v < u8::MAX).then(|| v + 1)
            });
        }
        if self.samples.fetch_add(1, Ordering::Relaxed) + 1 >= self.window
            && self
                .samples
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                    (s >= self.window).then_some(0)
                })
                .is_ok()
        {
            self.age();
        }
    }

    /// Estimated access frequency of `h`.
    pub(crate) fn estimate(&self, h: u64) -> u32 {
        (0..SKETCH_HASHES.len())
            .map(|row| self.rows[self.idx(h, row)].load(Ordering::Relaxed) as u32)
            .min()
            .unwrap_or(0)
    }

    /// Should a fill of `cand` displace `victim`? `victim` is `None` when
    /// the slab still has free space (always admit); otherwise the
    /// candidate must be estimated strictly more frequent.
    pub(crate) fn admit(&self, cand: u64, victim: Option<u64>) -> bool {
        match victim {
            None => true,
            Some(v) => self.estimate(cand) > self.estimate(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

/// CLOCK: one reference bit per slot, a sweeping hand granting each
/// referenced entry a second chance. Called with the slab lock held;
/// `slot` indices refer to the slab's entry ring.
struct ClockEviction {
    referenced: Vec<bool>,
    hand: usize,
}

impl ClockEviction {
    fn new() -> Self {
        ClockEviction {
            referenced: Vec::new(),
            hand: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.referenced.len() {
            self.referenced.resize(slot + 1, false);
        }
    }

    /// A new entry landed in `slot`.
    fn on_insert(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = false;
    }

    /// The entry in `slot` was served (recency signal).
    fn on_hit(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = true;
    }

    /// The entry in `slot` was removed (invalidation or eviction).
    fn on_remove(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = false;
    }

    /// Pick a victim among occupied slots (`occupied[i]` ⇔ slot `i` holds
    /// an entry). Returns `None` only if nothing is occupied.
    fn victim(&mut self, occupied: &[bool]) -> Option<usize> {
        if occupied.is_empty() {
            return None;
        }
        self.ensure(occupied.len() - 1);
        // Two full sweeps suffice: the first clears every reference bit in
        // the worst case, the second must find an unreferenced entry.
        for _ in 0..occupied.len() * 2 {
            let i = self.hand;
            self.hand = (self.hand + 1) % occupied.len();
            if !occupied[i] {
                continue;
            }
            if self.referenced[i] {
                self.referenced[i] = false;
            } else {
                return Some(i);
            }
        }
        occupied.iter().position(|&o| o)
    }
}

// ---------------------------------------------------------------------------
// Round clock (per shard): the epoch and the in-flight round's bloom
// ---------------------------------------------------------------------------

const BLOOM_WORDS: usize = 4; // 256-bit bloom, 2 bits per key

#[derive(Default)]
struct RoundSlot {
    /// The round's odd epoch, or 0 while the slot is being (re)written.
    seq: AtomicU64,
    bloom: [AtomicU64; BLOOM_WORDS],
}

fn bloom_bits(h: u64) -> (usize, usize) {
    let bits = BLOOM_WORDS * 64;
    ((h as usize) % bits, ((h >> 21) as usize) % bits)
}

#[derive(Default)]
struct ShardClock {
    /// Even = quiescent, odd = a commit round or a store swap is applying.
    /// Written only by the shard's committer thread, or by
    /// [`HotCache::swap_round`] while that thread is held idle.
    epoch: AtomicU64,
    /// The write-key bloom of the latest round to begin.
    round: RoundSlot,
}

impl ShardClock {
    /// Publish round `odd`'s write-key bloom. Single writer (the
    /// committer); SeqCst so readers' double-checked reads order globally.
    fn publish(&self, odd: u64, hashes: &[u64]) {
        let slot = &self.round;
        slot.seq.store(0, Ordering::SeqCst);
        let mut words = [0u64; BLOOM_WORDS];
        for &h in hashes {
            let (a, b) = bloom_bits(h);
            words[a / 64] |= 1 << (a % 64);
            words[b / 64] |= 1 << (b % 64);
        }
        for (w, v) in slot.bloom.iter().zip(words) {
            w.store(v, Ordering::SeqCst);
        }
        slot.seq.store(odd, Ordering::SeqCst);
    }

    /// May round `odd` write a key hashing to `h`? `true` (conservative)
    /// also when the slot is torn or already holds a later round.
    fn in_flight_may_write(&self, odd: u64, h: u64) -> bool {
        let slot = &self.round;
        let (a, b) = bloom_bits(h);
        if slot.seq.load(Ordering::SeqCst) != odd {
            return true;
        }
        let wa = slot.bloom[a / 64].load(Ordering::SeqCst);
        let wb = slot.bloom[b / 64].load(Ordering::SeqCst);
        slot.seq.load(Ordering::SeqCst) != odd
            || (wa >> (a % 64) & 1 == 1 && wb >> (b % 64) & 1 == 1)
    }
}

// ---------------------------------------------------------------------------
// The slab
// ---------------------------------------------------------------------------

struct Entry {
    key: Box<[u8]>,
    value: Box<[u8]>,
    hash: u64,
    /// Epoch at which `value` was last known to equal the engine's.
    stamp: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.key.len() + self.value.len() + ENTRY_OVERHEAD
    }
}

struct Slab {
    map: HashMap<Box<[u8]>, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    occupied: Vec<bool>,
    bytes: usize,
    cap: usize,
    evict: ClockEviction,
}

impl Slab {
    fn new(cap: usize) -> Self {
        Slab {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            occupied: Vec::new(),
            bytes: 0,
            cap,
            evict: ClockEviction::new(),
        }
    }

    fn slot_of(&self, key: &[u8]) -> Option<usize> {
        self.map.get(key).copied()
    }

    /// Remove the entry in `slot`, returning freed bytes. The slot goes
    /// back on the free list so the slot ring stays O(capacity) under
    /// eviction/invalidation churn instead of growing per fill.
    fn remove_slot(&mut self, slot: usize) -> usize {
        let Some(e) = self.slots[slot].take() else {
            return 0;
        };
        self.map.remove(&e.key);
        self.occupied[slot] = false;
        self.free.push(slot);
        self.evict.on_remove(slot);
        self.bytes -= e.bytes();
        e.bytes()
    }

    /// Install `entry`, evicting under `admission` as needed. Returns
    /// `(installed, delta_bytes, evictions)`; when admission rejects the
    /// fill, `installed` is `false` but bytes already freed by earlier
    /// eviction-loop iterations are still reported in `delta_bytes` /
    /// `evictions` so the caller's gauges never drift from slab state.
    fn install(&mut self, entry: Entry, admission: &FreqSketch) -> (bool, i64, u64) {
        let need = entry.bytes();
        if need > self.cap {
            return (false, 0, 0);
        }
        let mut delta = 0i64;
        let mut evictions = 0u64;
        // Overwrite in place if present.
        if let Some(slot) = self.slot_of(&entry.key) {
            let old = self.slots[slot].as_ref().expect("mapped slot occupied");
            delta -= old.bytes() as i64;
            delta += need as i64;
            self.bytes = (self.bytes as i64 + delta) as usize;
            self.slots[slot] = Some(entry);
            self.evict.on_hit(slot);
            // Over-cap after a larger value: fall through to trim below.
            while self.bytes > self.cap {
                let Some(v) = self.pick_victim(None) else {
                    break;
                };
                delta -= self.remove_slot(v) as i64;
                evictions += 1;
            }
            return (true, delta, evictions);
        }
        while self.bytes + need > self.cap {
            let Some(v) = self.pick_victim(Some((admission, entry.hash))) else {
                return (false, delta, evictions);
            };
            delta -= self.remove_slot(v) as i64;
            evictions += 1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.occupied.push(false);
            self.slots.len() - 1
        });
        self.map.insert(entry.key.clone(), slot);
        self.occupied[slot] = true;
        self.bytes += need;
        self.slots[slot] = Some(entry);
        self.evict.on_insert(slot);
        delta += need as i64;
        (true, delta, evictions)
    }

    /// Choose an eviction victim; with `gate = (admission, candidate)`
    /// the candidate must beat the victim's estimated frequency.
    fn pick_victim(&mut self, gate: Option<(&FreqSketch, u64)>) -> Option<usize> {
        let v = self.evict.victim(&self.occupied)?;
        if let Some((admission, cand)) = gate {
            let victim_hash = self.slots[v].as_ref().map(|e| e.hash);
            if !admission.admit(cand, victim_hash) {
                return None;
            }
        }
        Some(v)
    }

    fn purge(&mut self) -> i64 {
        let freed = self.bytes as i64;
        for slot in 0..self.slots.len() {
            if self.occupied[slot] {
                self.remove_slot(slot);
            }
        }
        -freed
    }
}

// ---------------------------------------------------------------------------
// The cache tier
// ---------------------------------------------------------------------------

/// Token returned by a missed probe; carries the shard epoch captured
/// *before* the engine read so the fill can detect racing commit rounds.
#[derive(Debug, Clone, Copy)]
pub struct FillToken {
    epoch: u64,
    usable: bool,
}

const UNUSABLE: FillToken = FillToken {
    epoch: 0,
    usable: false,
};

/// Token handed to the committer between [`HotCache::round_begin`] and
/// [`HotCache::round_publish`].
#[must_use]
pub struct RoundToken {
    shard: usize,
    odd: u64,
}

/// The DRAM hot-key cache tier. One instance per [`crate::KvServer`],
/// shared by every connection thread and shard committer.
pub struct HotCache {
    slab: Mutex<Slab>,
    shards: Vec<ShardClock>,
    admission: FreqSketch,
    /// Written only under the slab lock, so a reader that checks it under
    /// that lock is ordered against the purge of [`HotCache::set_enabled`].
    enabled: AtomicBool,
    obs: Arc<ServerObs>,
}

#[cfg(test)]
type GapHook = Box<dyn FnMut()>;

#[cfg(test)]
thread_local! {
    /// Runs on this thread between `fill`'s unlocked `enabled` check and
    /// its slab lock, so a test can act inside that window.
    static FILL_GAP: std::cell::RefCell<Option<GapHook>> =
        const { std::cell::RefCell::new(None) };
}

#[inline]
fn fill_gap() {
    #[cfg(test)]
    FILL_GAP.with(|h| {
        if let Some(f) = h.borrow_mut().as_mut() {
            f()
        }
    });
}

impl HotCache {
    /// Build the tier for `num_shards` shards. `capacity_bytes == 0`
    /// pins the tier off.
    pub fn new(cfg: &HotCacheConfig, num_shards: usize, obs: Arc<ServerObs>) -> Arc<HotCache> {
        let capacity = cfg.capacity_bytes;
        Arc::new(HotCache {
            slab: Mutex::new(Slab::new(capacity)),
            shards: (0..num_shards).map(|_| ShardClock::default()).collect(),
            // Size the sketch to roughly the entry count the cap implies.
            admission: FreqSketch::new((capacity / 256).clamp(1024, 1 << 20)),
            enabled: AtomicBool::new(capacity > 0),
            obs,
        })
    }

    /// Whether the tier is currently serving probes and fills.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Whether the tier was built with capacity at all.
    pub fn has_capacity(&self) -> bool {
        self.slab.lock().cap > 0
    }

    /// Turn the tier on or off at runtime. Disabling purges the slab
    /// (re-enable starts cold). Returns the effective state: enabling a
    /// zero-capacity tier stays off.
    pub fn set_enabled(&self, on: bool) -> bool {
        let mut slab = self.slab.lock();
        if slab.cap == 0 {
            return false;
        }
        self.enabled.store(on, Ordering::Release);
        if !on {
            self.obs.cache_bytes.add(slab.purge());
        }
        on
    }

    /// Cached bytes (tests / stats).
    pub fn bytes(&self) -> usize {
        self.slab.lock().bytes
    }

    /// The slab, locked, while the tier is enabled.
    fn locked(&self) -> Option<MutexGuard<'_, Slab>> {
        let slab = self.slab.lock();
        self.is_enabled().then_some(slab)
    }

    // -- read path ---------------------------------------------------------

    /// Probe the slab for `key` on `shard`. `Ok` is a hit; `Err` is a
    /// miss carrying the [`FillToken`] that must be captured *before* the
    /// engine read backing the fill.
    pub fn probe(&self, shard: usize, key: &[u8]) -> Result<Vec<u8>, FillToken> {
        if !self.is_enabled() {
            return Err(UNUSABLE);
        }
        let clock = &self.shards[shard];
        let epoch = clock.epoch.load(Ordering::Acquire);
        let h = key_hash(key);
        self.admission.record(h);
        let token = FillToken {
            epoch,
            // Fills are only sound from a quiescent (even) epoch.
            usable: epoch.is_multiple_of(2),
        };
        let Some(mut slab) = self.locked() else {
            return Err(UNUSABLE);
        };
        let Some(slot) = slab.slot_of(key) else {
            self.obs.cache_misses.inc();
            return Err(token);
        };
        let entry = slab.slots[slot].as_ref().expect("mapped slot occupied");
        // Every finished round updated or removed this entry under the
        // slab lock, so only the round in flight can have outdated it. A
        // stamp at or past `epoch` is that round's own publication.
        if entry.stamp < epoch && !epoch.is_multiple_of(2) && clock.in_flight_may_write(epoch, h) {
            // Keep the entry: the round's publication is about to update it.
            self.obs.cache_misses.inc();
            return Err(token);
        }
        let v = entry.value.to_vec();
        slab.evict.on_hit(slot);
        self.obs.cache_hits.inc();
        Ok(v)
    }

    /// Install `key = value` read from the engine under `token`. The fill
    /// is discarded if any commit round began on the shard since the token
    /// was captured, if the tier was disabled meanwhile, or if admission
    /// prefers the incumbent victim.
    pub fn fill(&self, shard: usize, key: &[u8], value: &[u8], token: FillToken) {
        if !token.usable || !self.is_enabled() {
            return;
        }
        fill_gap();
        // A disable that slipped in after the check above has purged the
        // slab, and publications skip a disabled tier: installing now would
        // leave an entry no later round updates.
        let Some(mut slab) = self.locked() else {
            return;
        };
        // Epoch-gate under the slab lock: round publication takes this
        // lock too, so a round that slips in after this check will still
        // observe (and supersede) the entry we install.
        if self.shards[shard].epoch.load(Ordering::Acquire) != token.epoch {
            self.obs.cache_fill_races.inc();
            return;
        }
        if let Some(slot) = slab.slot_of(key) {
            let existing = slab.slots[slot].as_ref().expect("mapped slot occupied");
            if existing.stamp > token.epoch {
                // A round published a fresher value while we read the
                // engine; with the epoch unchanged that cannot happen.
                self.obs.cache_tripwire.inc();
                return;
            }
        }
        let entry = Entry {
            key: key.into(),
            value: value.into(),
            hash: key_hash(key),
            stamp: token.epoch,
        };
        let (installed, delta, evictions) = slab.install(entry, &self.admission);
        // Apply the accounting even when admission rejected the fill: the
        // eviction loop may have freed entries before the gate declined,
        // and those bytes must still leave the gauge.
        self.obs.cache_bytes.add(delta);
        self.obs.cache_evictions.add(evictions);
        if installed {
            self.obs.cache_fills.inc();
        } else {
            self.obs.cache_admission_rejects.inc();
        }
    }

    // -- committer path ----------------------------------------------------

    /// Begin a group-commit round on `shard` that writes the keys hashing
    /// to `write_hashes`: publish the round's bloom and move the shard
    /// epoch to odd. Call *before* applying the round's writes; returns
    /// `None` (and leaves the epoch untouched) for write-free rounds.
    /// Only the shard's committer thread may call this.
    pub fn round_begin(&self, shard: usize, write_hashes: &[u64]) -> Option<RoundToken> {
        if write_hashes.is_empty() {
            return None;
        }
        let clock = &self.shards[shard];
        let even = clock.epoch.load(Ordering::Acquire);
        debug_assert!(even.is_multiple_of(2), "nested round on shard {shard}");
        let odd = even + 1;
        clock.publish(odd, write_hashes);
        clock.epoch.store(odd, Ordering::Release);
        Some(RoundToken { shard, odd })
    }

    /// Publish a round's results: update or remove the slab's entry for
    /// every written key, then move the shard epoch back to even.
    /// `writes` holds each written key as `(key, Some(value))` for an
    /// applied put or `(key, None)` for a delete or a failed write. Must
    /// be called *after* the round's writes are applied and *before* its
    /// acks are released.
    pub fn round_publish(&self, token: RoundToken, writes: &[(&[u8], Option<&[u8]>)]) {
        let RoundToken { shard, odd } = token;
        let next_even = odd + 1;
        if let Some(mut slab) = self.locked() {
            for &(key, val) in writes {
                let Some(slot) = slab.slot_of(key) else {
                    continue;
                };
                self.obs.cache_invalidations.inc();
                match val {
                    None => {
                        let delta = -(slab.remove_slot(slot) as i64);
                        self.obs.cache_bytes.add(delta);
                    }
                    Some(v) => {
                        let entry = slab.slots[slot].as_mut().expect("mapped slot occupied");
                        if entry.stamp > next_even {
                            // Stamps only ever reach the epoch this
                            // publication is about to install.
                            self.obs.cache_tripwire.inc();
                            continue;
                        }
                        let old = entry.bytes();
                        entry.value = v.into();
                        entry.stamp = next_even;
                        let new = entry.bytes();
                        slab.bytes = slab.bytes + new - old;
                        self.obs.cache_bytes.add(new as i64 - old as i64);
                    }
                }
            }
            // An updated value may have grown past the cap: trim.
            let mut delta = 0i64;
            while slab.bytes > slab.cap {
                let Some(v) = slab.pick_victim(None) else {
                    break;
                };
                delta -= slab.remove_slot(v) as i64;
                self.obs.cache_evictions.inc();
            }
            if delta != 0 {
                self.obs.cache_bytes.add(delta);
            }
        }
        self.shards[shard].epoch.store(next_even, Ordering::Release);
    }

    /// Run `swap`, which replaces `shard`'s whole store behind the
    /// committer (a follower's bootstrap install), as a round that may
    /// write every key. The epoch goes odd with no bloom published, so the
    /// stale round slot makes every entry of the shard miss while `swap`
    /// runs, and racing fills fail the epoch gate. The slab is purged
    /// before the epoch returns to even, so nothing read from the old
    /// store survives, whether or not the tier is enabled. The caller
    /// must keep the committer from beginning a round meanwhile.
    pub(crate) fn swap_round<T>(&self, shard: usize, swap: impl FnOnce() -> T) -> T {
        let clock = &self.shards[shard];
        let even = clock.epoch.load(Ordering::Acquire);
        debug_assert!(
            even.is_multiple_of(2),
            "store swap inside a round on shard {shard}"
        );
        clock.epoch.store(even + 1, Ordering::Release);
        let out = swap();
        let mut slab = self.slab.lock();
        self.obs.cache_bytes.add(slab.purge());
        clock.epoch.store(even + 2, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn cache(cap: usize) -> Arc<HotCache> {
        HotCache::new(&HotCacheConfig::with_capacity(cap), 1, ServerObs::new())
    }

    /// Probe `key` `heat` times (the last one misses), then fill it: the
    /// sketch admits a fill over a victim only if it is probed more.
    fn hot_fill(c: &HotCache, key: &[u8], val: &[u8], heat: usize) {
        for _ in 1..heat {
            let _ = c.probe(0, key);
        }
        let t = c.probe(0, key).unwrap_err();
        c.fill(0, key, val, t);
    }

    fn put_round(c: &HotCache, key: &[u8], val: &[u8]) {
        let tok = c.round_begin(0, &[key_hash(key)]).expect("write round");
        c.round_publish(tok, &[(key, Some(val))]);
    }

    #[test]
    fn fill_then_hit() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        assert_eq!(c.probe(0, b"k").unwrap(), b"v");
    }

    #[test]
    fn round_invalidates_written_key_only() {
        let c = cache(1 << 20);
        for (k, v) in [(b"a", b"1"), (b"b", b"2")] {
            let t = c.probe(0, k).unwrap_err();
            c.fill(0, k, v, t);
        }
        put_round(&c, b"a", b"9");
        // Written key serves the round's new value; the other one the
        // round did not write, so its entry is still exact.
        assert_eq!(c.probe(0, b"a").unwrap(), b"9");
        assert_eq!(c.probe(0, b"b").unwrap(), b"2");
    }

    #[test]
    fn in_flight_round_hides_only_its_keys() {
        let c = cache(1 << 20);
        for (k, v) in [(b"a", b"1"), (b"b", b"2")] {
            let t = c.probe(0, k).unwrap_err();
            c.fill(0, k, v, t);
        }
        let tok = c.round_begin(0, &[key_hash(b"a")]).unwrap();
        let invalidations = c.obs.cache_invalidations.get();
        assert!(
            c.probe(0, b"a").is_err(),
            "in-flight write served its old value"
        );
        assert!(
            c.slab.lock().slot_of(b"a").is_some(),
            "the miss dropped the entry"
        );
        assert_eq!(c.obs.cache_invalidations.get(), invalidations);
        assert_eq!(c.probe(0, b"b").unwrap(), b"2");
        c.round_publish(tok, &[(b"a".as_slice(), Some(b"9".as_slice()))]);
        assert_eq!(c.probe(0, b"a").unwrap(), b"9");
    }

    #[test]
    fn delete_round_removes_entry() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        let tok = c.round_begin(0, &[key_hash(b"k")]).unwrap();
        c.round_publish(tok, &[(b"k".as_slice(), None)]);
        assert!(c.probe(0, b"k").is_err());
    }

    #[test]
    fn store_swap_drops_entries_and_racing_fills() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"a").unwrap_err();
        c.fill(0, b"a", b"old", t);
        // A GET that probed before the swap and reads the old store.
        let racing = c.probe(0, b"b").unwrap_err();
        c.swap_round(0, || {
            assert!(c.probe(0, b"a").is_err(), "old entry served mid-swap");
        });
        c.fill(0, b"b", b"old", racing);
        assert!(c.probe(0, b"a").is_err(), "old entry outlived the swap");
        assert!(c.probe(0, b"b").is_err(), "racing fill outlived the swap");
        assert_eq!(c.bytes(), 0);
        // Fills from the new store install as usual.
        let t = c.probe(0, b"a").unwrap_err();
        c.fill(0, b"a", b"new", t);
        assert_eq!(c.probe(0, b"a").unwrap(), b"new");
    }

    #[test]
    fn raced_fill_is_discarded() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        // A round commits between the engine read and the fill.
        put_round(&c, b"k", b"new");
        c.fill(0, b"k", b"stale", t);
        // The fill must not have shadowed the round's value. (The round
        // updated no entry — the key wasn't cached — so this is a miss.)
        if let Ok(v) = c.probe(0, b"k") {
            assert_eq!(v, b"new");
        }
    }

    #[test]
    fn entry_outlives_unrelated_rounds() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        for i in 0..1000u64 {
            let other = format!("other{i}");
            put_round(&c, other.as_bytes(), b"x");
        }
        assert_eq!(c.probe(0, b"k").unwrap(), b"v");
    }

    #[test]
    fn fill_across_a_disable_is_dropped() {
        let c = cache(1 << 20);
        let (in_gap, gap_entered) = mpsc::channel();
        let (disabled, gap_may_close) = mpsc::channel::<()>();
        let filler = {
            let c = c.clone();
            std::thread::spawn(move || {
                FILL_GAP.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        in_gap.send(()).unwrap();
                        gap_may_close.recv().unwrap();
                    }))
                });
                let t = c.probe(0, b"k").unwrap_err();
                c.fill(0, b"k", b"old", t);
            })
        };
        gap_entered.recv().unwrap();
        assert!(!c.set_enabled(false));
        disabled.send(()).unwrap();
        filler.join().unwrap();
        // The disabled tier skips this round's publication.
        put_round(&c, b"k", b"new");
        assert!(c.set_enabled(true));
        assert!(
            c.probe(0, b"k").is_err(),
            "a fill that landed after the purge outlived the write"
        );
    }

    #[test]
    fn byte_cap_evicts() {
        let c = cache(3 * (ENTRY_OVERHEAD + 10));
        for i in 0..16u8 {
            // Each key is hotter than every earlier one, so the sketch
            // admits it over whichever victim CLOCK picks.
            hot_fill(&c, &[b'k', i], &[0u8; 8], i as usize + 1);
        }
        assert!(
            c.obs.cache_evictions.get() > 0,
            "cap never forced an eviction"
        );
        assert!(c.bytes() <= 3 * (ENTRY_OVERHEAD + 10));
    }

    #[test]
    fn disable_purges_and_reenable_starts_cold() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        assert!(c.bytes() > 0);
        assert!(!c.set_enabled(false));
        assert_eq!(c.bytes(), 0);
        assert!(c.probe(0, b"k").is_err());
        assert!(c.set_enabled(true));
        assert!(c.probe(0, b"k").is_err());
    }

    #[test]
    fn zero_capacity_never_enables() {
        let c = cache(0);
        assert!(!c.has_capacity());
        assert!(!c.set_enabled(true));
        assert!(c.probe(0, b"k").is_err());
    }

    #[test]
    fn slab_ring_stays_bounded_under_churn() {
        // A long-running server must not grow the slot ring per fill:
        // evicted and invalidated slots go back on the free list, so the
        // ring stays O(capacity) no matter how many keys churn through.
        let cap = 3 * (ENTRY_OVERHEAD + 10);
        let c = cache(cap);
        for i in 0..1000u32 {
            let k = format!("key{i}");
            // Heat climbs in runs of 32, so fills regularly beat a
            // resident and go through the eviction loop.
            hot_fill(&c, k.as_bytes(), &[0u8; 8], 1 + (i % 32) as usize);
            if i % 7 == 0 {
                // Round-driven delete exercises the invalidation path's
                // remove_slot as well as the eviction loop's.
                let tok = c.round_begin(0, &[key_hash(k.as_bytes())]).unwrap();
                c.round_publish(tok, &[(k.as_bytes(), None)]);
            }
        }
        let slab = c.slab.lock();
        assert!(
            slab.slots.len() <= 4,
            "slot ring grew unboundedly: {} slots",
            slab.slots.len()
        );
        assert_eq!(slab.slots.len(), slab.occupied.len());
        assert!(c.obs.cache_evictions.get() > 0, "churn never evicted");
        assert!(slab.bytes <= slab.cap);
        // The obs gauge must track actual slab bytes exactly.
        assert_eq!(c.obs.cache_bytes.get(), slab.bytes as i64);
    }

    #[test]
    fn admission_reject_keeps_gauge_in_sync() {
        // With a sketch gate, a cold candidate is declined; any accounting
        // from the attempt must still leave the gauge equal to slab bytes.
        let c = cache(2 * (ENTRY_OVERHEAD + 2));
        // Make two keys hot enough to be admitted and defended.
        for k in [b"a".as_slice(), b"b"] {
            for _ in 0..8 {
                let _ = c.probe(0, k); // records frequency
            }
            let t = c.probe(0, k).unwrap_err();
            c.fill(0, k, b"v", t);
        }
        // One cold probe + fill: declined by admission.
        let t = c.probe(0, b"x").unwrap_err();
        c.fill(0, b"x", b"v", t);
        assert_eq!(c.obs.cache_bytes.get(), c.bytes() as i64);
    }

    #[test]
    fn declined_admission_evicts_nothing() {
        let sketch = FreqSketch::new(256);
        let mut slab = Slab::new(3 * (ENTRY_OVERHEAD + 2));
        let mk = |k: &[u8]| Entry {
            key: k.into(),
            value: b"v".as_slice().into(),
            hash: key_hash(k),
            stamp: 0,
        };
        for k in [b"a".as_slice(), b"b", b"c"] {
            for _ in 0..10 {
                sketch.record(key_hash(k));
            }
            assert!(slab.install(mk(k), &sketch).0);
        }
        // Cold candidate declined: the gate fires before any entry is
        // evicted, so the slab is untouched and reports no eviction.
        let (installed, delta, evictions) = slab.install(mk(b"x"), &sketch);
        assert!(!installed);
        assert_eq!((delta, evictions), (0, 0));
        for k in [b"a".as_slice(), b"b", b"c"] {
            assert!(slab.slot_of(k).is_some(), "declined fill evicted an entry");
        }
        // A hot candidate then does evict exactly one entry.
        for _ in 0..20 {
            sketch.record(key_hash(b"y"));
        }
        let (installed, _, evictions) = slab.install(mk(b"y"), &sketch);
        assert!(installed);
        assert_eq!(evictions, 1);
    }

    #[test]
    fn sketch_prefers_frequent_keys() {
        let s = FreqSketch::new(256);
        for _ in 0..8 {
            s.record(key_hash(b"hot"));
        }
        s.record(key_hash(b"cold"));
        assert!(s.estimate(key_hash(b"hot")) > s.estimate(key_hash(b"cold")));
        assert!(s.admit(key_hash(b"hot"), Some(key_hash(b"cold"))));
        assert!(!s.admit(key_hash(b"cold"), Some(key_hash(b"hot"))));
    }
}
