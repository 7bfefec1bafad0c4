//! DRAM hot-key cache tier: a memory-capped cache consulted before the
//! shard submission queue on GET.
//!
//! ```text
//!   GET ──► slab ──hit──► reply (no queue, no engine)
//!              │ miss
//!              ▼
//!        shard.store().get() ──► epoch-gated fill ──► reply
//!
//!   committer round:  record write hashes + epoch→odd ─► apply writes
//!                     ─► update/remove cached entries + epoch→even ─► ack
//! ```
//!
//! # Coherence: round-epoch invalidation under one lock
//!
//! Naive KV caching over an LSM breaks on invalidation: a GET can read the
//! engine, lose the CPU, and insert a value that a concurrent write has
//! already superseded — serving it after the write was acked. The cache
//! therefore anchors *all* invalidation to the group-commit round, the
//! server's existing durability point, and keeps all of its state — the
//! entries, each shard's round epoch and in-flight write set, the admission
//! sketch and the CLOCK bits — behind the slab's one mutex:
//!
//! * Each shard has a monotonic **round epoch**: even while the shard is
//!   quiescent, odd while a commit round or a store swap is applying.
//! * Before applying a round, the committer records the round's write-key
//!   hashes and moves the epoch to odd, in one critical section. After
//!   applying, it updates (put) or removes (delete, failed write) the
//!   slab's entry for every written key and moves the epoch back to even,
//!   again in one critical section; only then are acks released.
//! * **Invariant:** every finished round has updated or removed each entry
//!   it wrote, so a cached entry is exact unless the round in flight writes
//!   its key. A probe therefore misses exactly when its shard's epoch is
//!   odd and the key's hash is in the in-flight set. The entry stays: the
//!   round's publication is about to update it.
//! * A fill carries the shard epoch its probe saw *before* the engine read
//!   and installs only if that epoch was even and is unchanged — a fill
//!   that raced any round is discarded rather than risk caching a value
//!   the round overwrote.
//! * A store swap (a follower's bootstrap install) runs as a round that
//!   may write every key (`HotCache::swap_round`): the slab is purged as
//!   the epoch goes odd.
//!
//! Consequences: after a write is acked, the slab holds (and can re-admit)
//! no older value for that key, so read-your-writes through the server
//! path holds; and because the in-flight set is in place *before* its
//! writes apply, a reader can never observe a new value from the engine
//! and subsequently an older value from the slab — per-key observations
//! are monotonic even mid-round.
//!
//! The tier is on exactly when `capacity_bytes > 0`, in either server role.
//! Admission is a sampled frequency sketch (`FreqSketch`, TinyLFU-style)
//! and eviction is CLOCK.

use crate::obs::ServerObs;
use crate::server::fnv1a;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Accounted bytes per entry beyond key + value (map slot, hash, clock
/// bit — a deliberate overestimate so the cap is honest).
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64 over `key` — the slab's map key, the admission sketch's hash
/// and what the in-flight write sets hold. (Shard routing hashes from
/// another offset basis and never feeds this `% shards`.)
pub fn key_hash(key: &[u8]) -> u64 {
    fnv1a(0x8422_2325_cbf2_9ce4, key)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Hot-cache configuration (part of [`crate::ServerConfig`]).
#[derive(Debug, Clone)]
pub struct HotCacheConfig {
    /// The slab's byte cap. `0` builds the server without the tier.
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

/// Fill admission: a count-min sketch of saturating byte counters with
/// periodic halving (TinyLFU's aging). `record` runs on every probe, the
/// estimates on every fill that needs to evict.
struct FreqSketch {
    rows: Vec<u8>,
    mask: usize,
    samples: u64,
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
    fn new(slots: usize) -> Self {
        let slots = slots.max(64).next_power_of_two();
        FreqSketch {
            rows: vec![0; slots],
            mask: slots - 1,
            samples: 0,
            window: 16 * slots as u64,
        }
    }

    fn idx(&self, h: u64, row: usize) -> usize {
        (h.wrapping_mul(SKETCH_HASHES[row]) >> 32) as usize & self.mask
    }

    /// Note one access to `h`; once per aging window, halve every counter.
    fn record(&mut self, h: u64) {
        for row in 0..SKETCH_HASHES.len() {
            let i = self.idx(h, row);
            self.rows[i] = self.rows[i].saturating_add(1);
        }
        self.samples += 1;
        if self.samples >= self.window {
            self.samples = 0;
            for c in &mut self.rows {
                *c >>= 1;
            }
        }
    }

    /// Estimated access frequency of `h`.
    fn estimate(&self, h: u64) -> u32 {
        (0..SKETCH_HASHES.len())
            .map(|row| self.rows[self.idx(h, row)] as u32)
            .min()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The slab
// ---------------------------------------------------------------------------

struct Entry {
    key: Box<[u8]>,
    value: Box<[u8]>,
    hash: u64,
    /// CLOCK's reference bit: set by a hit, cleared by the sweeping hand.
    referenced: bool,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.key.len() + self.value.len() + ENTRY_OVERHEAD
    }
}

/// One shard's round state.
#[derive(Default)]
struct Round {
    /// Even = quiescent, odd = a commit round or a store swap is applying.
    epoch: u64,
    /// The in-flight round's write-key hashes, sorted; meaningful while
    /// `epoch` is odd. Reused across rounds.
    writes: Vec<u64>,
}

/// The entries and every piece of coherence state, behind one mutex.
struct Slab {
    /// `key_hash` → slot. Two keys under one hash share the map slot: the
    /// later fill replaces the other key's entry.
    map: HashMap<u64, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// CLOCK's sweeping hand over `slots`.
    hand: usize,
    bytes: usize,
    cap: usize,
    rounds: Vec<Round>,
    sketch: FreqSketch,
}

impl Slab {
    fn new(cap: usize, num_shards: usize) -> Self {
        Slab {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            bytes: 0,
            cap,
            rounds: (0..num_shards).map(|_| Round::default()).collect(),
            // Size the sketch to roughly the entry count the cap implies.
            sketch: FreqSketch::new((cap / 256).clamp(1024, 1 << 20)),
        }
    }

    fn entry(&self, slot: usize) -> &Entry {
        self.slots[slot].as_ref().expect("mapped slot occupied")
    }

    /// The slot holding `key` (hashing to `h`); another key under the same
    /// hash is not a match.
    fn slot_of(&self, h: u64, key: &[u8]) -> Option<usize> {
        let slot = *self.map.get(&h)?;
        (*self.entry(slot).key == *key).then_some(slot)
    }

    /// Remove the entry in `slot`. The slot goes back on the free list so
    /// the slot ring stays O(capacity) under eviction/invalidation churn
    /// instead of growing per fill.
    fn remove_slot(&mut self, slot: usize) {
        if let Some(e) = self.slots[slot].take() {
            self.map.remove(&e.hash);
            self.free.push(slot);
            self.bytes -= e.bytes();
        }
    }

    /// CLOCK: sweep from the hand, clearing reference bits, to the first
    /// unreferenced entry. Two sweeps suffice: the first clears every bit
    /// in the worst case. `None` only if the slab is empty.
    fn victim(&mut self) -> Option<usize> {
        for _ in 0..2 * self.slots.len() {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            if let Some(e) = &mut self.slots[i] {
                if !std::mem::take(&mut e.referenced) {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Install `entry`, replacing another key under its hash and evicting
    /// while over the cap — each victim only if the sketch rates `entry`
    /// strictly more frequent. Returns `(installed, evictions)`; a declined
    /// fill keeps the evictions already made.
    fn install(&mut self, entry: Entry) -> (bool, u64) {
        let need = entry.bytes();
        if need > self.cap {
            return (false, 0);
        }
        if let Some(&slot) = self.map.get(&entry.hash) {
            self.remove_slot(slot);
        }
        let mut evictions = 0;
        while self.bytes + need > self.cap {
            let Some(v) = self.victim() else {
                return (false, evictions);
            };
            if self.sketch.estimate(entry.hash) <= self.sketch.estimate(self.entry(v).hash) {
                return (false, evictions);
            }
            self.remove_slot(v);
            evictions += 1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.map.insert(entry.hash, slot);
        self.bytes += need;
        self.slots[slot] = Some(entry);
        (true, evictions)
    }

    /// Evict until the slab fits its cap (a published value may have
    /// grown); returns the evictions.
    fn trim(&mut self) -> u64 {
        let mut evictions = 0;
        while self.bytes > self.cap {
            let Some(v) = self.victim() else {
                break;
            };
            self.remove_slot(v);
            evictions += 1;
        }
        evictions
    }

    fn purge(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.hand = 0;
        self.bytes = 0;
    }
}

// ---------------------------------------------------------------------------
// The cache tier
// ---------------------------------------------------------------------------

/// Token returned by a missed probe; carries the shard epoch captured
/// *before* the engine read so the fill can detect racing commit rounds.
/// An odd epoch never fills.
#[derive(Debug, Clone, Copy)]
pub struct FillToken {
    epoch: u64,
}

const UNUSABLE: FillToken = FillToken { epoch: 1 };

/// Token handed to the committer between [`HotCache::round_begin`] and
/// [`HotCache::round_publish`].
#[must_use]
pub struct RoundToken {
    shard: usize,
}

/// The DRAM hot-key cache tier. One instance per [`crate::KvServer`],
/// shared by every connection thread and shard committer.
pub struct HotCache {
    slab: Mutex<Slab>,
    /// `capacity_bytes > 0`, fixed at build: a tier without capacity
    /// answers every probe with an unusable miss and skips every round.
    on: bool,
    obs: Arc<ServerObs>,
}

impl HotCache {
    /// Build the tier for `num_shards` shards; `capacity_bytes == 0`
    /// builds it off.
    pub fn new(cfg: &HotCacheConfig, num_shards: usize, obs: Arc<ServerObs>) -> Arc<HotCache> {
        let cap = cfg.capacity_bytes;
        Arc::new(HotCache {
            slab: Mutex::new(Slab::new(cap, num_shards)),
            on: cap > 0,
            obs,
        })
    }

    // -- read path ---------------------------------------------------------

    /// Probe the slab for `key` on `shard`. `Ok` is a hit; `Err` is a
    /// miss carrying the [`FillToken`] that must be captured *before* the
    /// engine read backing the fill.
    pub fn probe(&self, shard: usize, key: &[u8]) -> Result<Vec<u8>, FillToken> {
        if !self.on {
            return Err(UNUSABLE);
        }
        let h = key_hash(key);
        let mut slab = self.slab.lock();
        slab.sketch.record(h);
        let round = &slab.rounds[shard];
        let token = FillToken { epoch: round.epoch };
        // Every finished round updated or removed its keys' entries, so
        // only the round in flight can have outdated this one.
        let in_flight = !round.epoch.is_multiple_of(2) && round.writes.binary_search(&h).is_ok();
        let Some(slot) = slab.slot_of(h, key).filter(|_| !in_flight) else {
            self.obs.cache_misses.inc();
            return Err(token);
        };
        let entry = slab.slots[slot].as_mut().expect("mapped slot occupied");
        entry.referenced = true;
        let v = entry.value.to_vec();
        self.obs.cache_hits.inc();
        Ok(v)
    }

    /// Install `key = value` read from the engine under `token`. The fill
    /// is discarded if the token's epoch was odd, if any round began on
    /// the shard since, or if admission prefers every victim.
    pub fn fill(&self, shard: usize, key: &[u8], value: &[u8], token: FillToken) {
        if !token.epoch.is_multiple_of(2) {
            return;
        }
        let hash = key_hash(key);
        let mut slab = self.slab.lock();
        // Rounds move the epoch under this lock, so an unchanged epoch
        // means no round wrote the shard since the probe.
        if slab.rounds[shard].epoch != token.epoch {
            self.obs.cache_fill_races.inc();
            return;
        }
        if let Some(slot) = slab.slot_of(hash, key) {
            // Another GET filled the key meanwhile, from the same engine
            // state: its bytes can only be these.
            if *slab.entry(slot).value != *value {
                self.obs.cache_tripwire.inc();
            }
            return;
        }
        let before = slab.bytes;
        let (installed, evictions) = slab.install(Entry {
            key: key.into(),
            value: value.into(),
            hash,
            referenced: false,
        });
        // Evictions made before a declined admission still leave the gauge.
        self.obs.cache_bytes.add(slab.bytes as i64 - before as i64);
        self.obs.cache_evictions.add(evictions);
        if installed {
            self.obs.cache_fills.inc();
        } else {
            self.obs.cache_admission_rejects.inc();
        }
    }

    // -- committer path ----------------------------------------------------

    /// Begin a group-commit round on `shard` that writes the keys hashing
    /// to `write_hashes`: record them as the in-flight set and move the
    /// shard epoch to odd. Call *before* applying the round's writes;
    /// returns `None` (and leaves the epoch untouched) for write-free
    /// rounds and on a tier without capacity. Only the shard's committer
    /// thread may call this.
    pub fn round_begin(&self, shard: usize, write_hashes: &[u64]) -> Option<RoundToken> {
        if !self.on || write_hashes.is_empty() {
            return None;
        }
        let mut slab = self.slab.lock();
        let round = &mut slab.rounds[shard];
        debug_assert!(
            round.epoch.is_multiple_of(2),
            "nested round on shard {shard}"
        );
        round.epoch += 1;
        round.writes.clear();
        round.writes.extend_from_slice(write_hashes);
        round.writes.sort_unstable();
        Some(RoundToken { shard })
    }

    /// Publish a round's results: update or remove the slab's entry for
    /// every written key, then move the shard epoch back to even.
    /// `writes` holds each written key as `(key, Some(value))` for an
    /// applied put or `(key, None)` for a delete or a failed write. Must
    /// be called *after* the round's writes are applied and *before* its
    /// acks are released.
    pub fn round_publish(&self, token: RoundToken, writes: &[(&[u8], Option<&[u8]>)]) {
        let mut slab = self.slab.lock();
        let before = slab.bytes;
        for &(key, val) in writes {
            let Some(slot) = slab.slot_of(key_hash(key), key) else {
                continue;
            };
            self.obs.cache_invalidations.inc();
            match val {
                None => slab.remove_slot(slot),
                Some(v) => {
                    let entry = slab.slots[slot].as_mut().expect("mapped slot occupied");
                    let old = entry.value.len();
                    entry.value = v.into();
                    slab.bytes = slab.bytes + v.len() - old;
                }
            }
        }
        self.obs.cache_evictions.add(slab.trim());
        self.obs.cache_bytes.add(slab.bytes as i64 - before as i64);
        slab.rounds[token.shard].epoch += 1;
    }

    /// Run `swap`, which replaces `shard`'s whole store behind the
    /// committer (a follower's bootstrap install), as a round that may
    /// write every key: the slab is purged as the epoch goes odd, so
    /// nothing read from the old store survives, and fills racing `swap`
    /// fail the epoch gate until it returns to even. The caller must keep
    /// the committer from beginning a round meanwhile.
    pub(crate) fn swap_round<T>(&self, shard: usize, swap: impl FnOnce() -> T) -> T {
        {
            let mut slab = self.slab.lock();
            self.obs.cache_bytes.add(-(slab.bytes as i64));
            slab.purge();
            let round = &mut slab.rounds[shard];
            debug_assert!(
                round.epoch.is_multiple_of(2),
                "store swap inside a round on shard {shard}"
            );
            round.epoch += 1;
            round.writes.clear();
        }
        let out = swap();
        self.slab.lock().rounds[shard].epoch += 1;
        out
    }

    /// Cached bytes.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.slab.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cached(c: &HotCache, key: &[u8]) -> bool {
        c.slab.lock().slot_of(key_hash(key), key).is_some()
    }

    #[test]
    fn fill_then_hit() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        assert_eq!(c.probe(0, b"k").unwrap(), b"v");
    }

    #[test]
    fn concurrent_fills_of_one_value_trip_nothing() {
        let c = cache(1 << 20);
        let first = c.probe(0, b"k").unwrap_err();
        let second = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", first);
        c.fill(0, b"k", b"v", second);
        assert_eq!(c.obs.cache_tripwire.get(), 0);
        assert_eq!(c.probe(0, b"k").unwrap(), b"v");
        // Different bytes under an unchanged even epoch break the
        // invariant: counted, and the entry is left alone.
        let third = c.probe(0, b"j").unwrap_err();
        c.fill(0, b"k", b"w", third);
        assert_eq!(c.obs.cache_tripwire.get(), 1);
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
        assert!(cached(&c, b"a"), "the miss dropped the entry");
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
            // A GET that probes mid-swap and reads the old store.
            let mid = c.probe(0, b"c").unwrap_err();
            c.fill(0, b"c", b"old", mid);
        });
        c.fill(0, b"b", b"old", racing);
        assert!(c.probe(0, b"a").is_err(), "old entry outlived the swap");
        assert!(c.probe(0, b"b").is_err(), "racing fill outlived the swap");
        assert!(c.probe(0, b"c").is_err(), "mid-swap fill outlived the swap");
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.obs.cache_bytes.get(), 0);
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
        assert_eq!(c.obs.cache_fill_races.get(), 1);
        // The round updated no entry (the key wasn't cached) and the fill
        // was dropped, so this is a miss.
        assert!(c.probe(0, b"k").is_err());
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
    fn hash_collision_replaces_the_other_key() {
        let mut slab = Slab::new(1 << 20, 1);
        let mk = |k: &[u8]| Entry {
            key: k.into(),
            value: b"v".as_slice().into(),
            hash: 7,
            referenced: false,
        };
        assert!(slab.install(mk(b"a")).0);
        assert!(slab.install(mk(b"bb")).0);
        assert_eq!(
            slab.slot_of(7, b"a"),
            None,
            "a collision served the wrong key"
        );
        assert!(slab.slot_of(7, b"bb").is_some());
        assert_eq!(slab.bytes, 2 + 1 + ENTRY_OVERHEAD);
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
    fn zero_capacity_never_enables() {
        let c = cache(0);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        assert!(c.probe(0, b"k").is_err());
        assert!(c.round_begin(0, &[key_hash(b"k")]).is_none());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.obs.cache_hits.get(), 0);
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
        let mut slab = Slab::new(3 * (ENTRY_OVERHEAD + 2), 1);
        let mk = |k: &[u8]| Entry {
            key: k.into(),
            value: b"v".as_slice().into(),
            hash: key_hash(k),
            referenced: false,
        };
        for k in [b"a".as_slice(), b"b", b"c"] {
            for _ in 0..10 {
                slab.sketch.record(key_hash(k));
            }
            assert!(slab.install(mk(k)).0);
        }
        // Cold candidate declined: the gate fires before any entry is
        // evicted, so the slab is untouched and reports no eviction.
        let bytes = slab.bytes;
        assert_eq!(slab.install(mk(b"x")), (false, 0));
        assert_eq!(slab.bytes, bytes);
        for k in [b"a".as_slice(), b"b", b"c"] {
            assert!(
                slab.slot_of(key_hash(k), k).is_some(),
                "declined fill evicted an entry"
            );
        }
        // A hot candidate then does evict exactly one entry.
        for _ in 0..20 {
            slab.sketch.record(key_hash(b"y"));
        }
        assert_eq!(slab.install(mk(b"y")), (true, 1));
    }

    #[test]
    fn sketch_prefers_frequent_keys() {
        let mut s = FreqSketch::new(256);
        for _ in 0..8 {
            s.record(key_hash(b"hot"));
        }
        s.record(key_hash(b"cold"));
        assert!(s.estimate(key_hash(b"hot")) > s.estimate(key_hash(b"cold")));
    }
}
