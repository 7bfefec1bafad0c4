//! DRAM hot-key cache tier: a version-stamped, memory-capped cache
//! consulted before the shard submission queue on GET.
//!
//! ```text
//!   GET ──► per-core replica slab ──hit──► reply (no queue, no engine)
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
//!   committer thread advances it.
//! * Before applying a round, the committer publishes the round's write-key
//!   **bloom** into a seqlock slot of the shard's round log, then bumps the
//!   epoch to odd. After applying, it updates (put) or removes (delete)
//!   every replica's entry for the round's keys — stamped with the upcoming
//!   even epoch — then bumps the epoch to even, and only then are acks
//!   released.
//! * Every cached entry carries the epoch **stamp** at which it was last
//!   known to equal the engine's value. A probe serves an entry iff its
//!   stamp is current, or the round log proves no round since the stamp
//!   wrote the key (re-stamping it forward). Anything else is a miss and
//!   the entry is dropped.
//! * A fill captures the shard epoch *before* probing the engine and
//!   installs only if the epoch is even and unchanged at insert — a fill
//!   that raced any round is discarded rather than risk caching a value
//!   the round overwrote.
//!
//! Consequences: after a write is acked, no replica holds (or can ever
//! re-admit) an older value for that key, so read-your-writes through the
//! server path holds; and because the in-progress round's bloom is visible
//! *before* its writes apply, a reader can never observe a new value from
//! the engine and subsequently an older value from a replica — per-key
//! observations are monotonic even mid-round.
//!
//! # Per-core replicas
//!
//! An ultra-hot key serialized on one cacheline would make the cache the
//! bottleneck it is meant to remove. The cache therefore keeps one slab per
//! server worker thread (I/O threads pin to a replica round-robin):
//! probes and fills touch only the calling thread's slab, while the
//! committer walks all slabs at round publication — writes pay the
//! fan-out, reads stay core-local.
//!
//! Admission is a sampled frequency sketch (`FreqSketch`, TinyLFU-style)
//! and eviction is CLOCK; each slab enforces a hard byte cap.

use crate::obs::ServerObs;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Accounted bytes per entry beyond key + value (map slot, stamps, clock
/// state — a deliberate overestimate so the cap is honest).
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64 over `key` — the hash used for replicas' maps, the admission
/// sketch, and round-log blooms. (Same family as shard routing, different
/// use: this one never feeds `% shards`.)
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

/// Hot-cache tuning knobs (part of [`crate::ServerConfig`]).
#[derive(Debug, Clone)]
pub struct HotCacheConfig {
    /// Total byte cap across all replicas. `0` disables the tier entirely
    /// (no slabs are allocated and it cannot be enabled at runtime).
    pub(crate) capacity_bytes: usize,
    /// Per-core replica slabs. `0` = auto (available parallelism, max 8).
    pub(crate) replicas: usize,
    /// Round-log slots per shard: how many group-commit rounds back an
    /// idle entry can be re-validated before coverage is lost and it is
    /// dropped. Minimum 8.
    pub(crate) round_log_slots: usize,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        HotCacheConfig {
            capacity_bytes: 16 << 20,
            replicas: 0,
            round_log_slots: 64,
        }
    }
}

impl HotCacheConfig {
    /// A configuration with the tier compiled out of the request path.
    pub fn disabled() -> Self {
        HotCacheConfig {
            capacity_bytes: 0,
            ..HotCacheConfig::default()
        }
    }

    /// Convenience: the default configuration at a given byte cap.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        HotCacheConfig {
            capacity_bytes,
            ..HotCacheConfig::default()
        }
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
// Round log (per shard): seqlock slots of per-round write-key blooms
// ---------------------------------------------------------------------------

const BLOOM_WORDS: usize = 4; // 256-bit bloom, 2 bits per key

struct RoundSlot {
    /// The round's odd epoch, or 0 while the slot is being (re)written.
    seq: AtomicU64,
    bloom: [AtomicU64; BLOOM_WORDS],
}

fn bloom_bits(h: u64) -> (usize, usize) {
    let bits = BLOOM_WORDS * 64;
    ((h as usize) % bits, ((h >> 21) as usize) % bits)
}

struct ShardClock {
    /// Even = quiescent, odd = a commit round is applying. Written only by
    /// the shard's committer thread.
    epoch: AtomicU64,
    log: Vec<RoundSlot>,
}

impl ShardClock {
    fn new(slots: usize) -> Self {
        ShardClock {
            epoch: AtomicU64::new(0),
            log: (0..slots)
                .map(|_| RoundSlot {
                    seq: AtomicU64::new(0),
                    bloom: Default::default(),
                })
                .collect(),
        }
    }

    fn slot_for(&self, odd: u64) -> &RoundSlot {
        &self.log[(((odd - 1) / 2) as usize) % self.log.len()]
    }

    /// Publish round `odd`'s write-key bloom. Single writer (the
    /// committer); SeqCst so readers' double-checked reads order globally.
    fn publish(&self, odd: u64, hashes: &[u64]) {
        let slot = self.slot_for(odd);
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

    /// Did any round in `(stamp, upto]` possibly write a key hashing to
    /// `h`? Returns `true` (conservative) when the log no longer covers
    /// the range or a slot is torn mid-read.
    fn maybe_written_since(&self, stamp: u64, upto: u64, h: u64) -> bool {
        let first_odd = if stamp.is_multiple_of(2) {
            stamp + 1
        } else {
            stamp + 2
        };
        if upto < first_odd {
            return false; // no rounds in range
        }
        let rounds = (upto - first_odd) / 2 + 1;
        if rounds > self.log.len() as u64 {
            return true; // coverage lost
        }
        let (ba, bb) = bloom_bits(h);
        let mut odd = first_odd;
        while odd <= upto {
            let slot = self.slot_for(odd);
            let s1 = slot.seq.load(Ordering::SeqCst);
            if s1 != odd {
                return true; // overwritten or mid-write
            }
            let wa = slot.bloom[ba / 64].load(Ordering::SeqCst);
            let wb = slot.bloom[bb / 64].load(Ordering::SeqCst);
            if slot.seq.load(Ordering::SeqCst) != odd {
                return true; // torn read
            }
            if wa >> (ba % 64) & 1 == 1 && wb >> (bb % 64) & 1 == 1 {
                return true; // round maybe wrote the key
            }
            odd += 2;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Replica slabs
// ---------------------------------------------------------------------------

struct Entry {
    key: Box<[u8]>,
    value: Box<[u8]>,
    hash: u64,
    shard: u32,
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
    replicas: Vec<Mutex<Slab>>,
    shards: Vec<ShardClock>,
    admission: FreqSketch,
    enabled: AtomicBool,
    obs: Arc<ServerObs>,
}

/// Round-robin replica assignment: each OS thread gets a stable slab so
/// an ultra-hot key's probes never share a cacheline across cores.
static REPLICA_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static REPLICA_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

fn replica_ticket() -> usize {
    REPLICA_ID.with(|c| match c.get() {
        Some(t) => t,
        None => {
            let t = REPLICA_TICKET.fetch_add(1, Ordering::Relaxed);
            c.set(Some(t));
            t
        }
    })
}

impl HotCache {
    /// Build the tier for `num_shards` shards. `capacity_bytes == 0`
    /// allocates nothing and pins the tier off.
    pub fn new(cfg: &HotCacheConfig, num_shards: usize, obs: Arc<ServerObs>) -> Arc<HotCache> {
        let replicas = if cfg.capacity_bytes == 0 {
            0
        } else if cfg.replicas > 0 {
            cfg.replicas
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .min(8)
        };
        let per_slab = cfg
            .capacity_bytes
            .checked_div(replicas)
            .map_or(0, |per| per.max(ENTRY_OVERHEAD * 4));
        // Size the sketch to roughly the entry count the cap implies.
        let admission = FreqSketch::new((cfg.capacity_bytes / 256).clamp(1024, 1 << 20));
        Arc::new(HotCache {
            replicas: (0..replicas)
                .map(|_| Mutex::new(Slab::new(per_slab)))
                .collect(),
            shards: (0..num_shards)
                .map(|_| ShardClock::new(cfg.round_log_slots.max(8)))
                .collect(),
            admission,
            enabled: AtomicBool::new(replicas > 0),
            obs,
        })
    }

    /// Whether the tier is currently serving probes and fills.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire) && !self.replicas.is_empty()
    }

    /// Whether the tier was built with capacity at all.
    pub fn has_capacity(&self) -> bool {
        !self.replicas.is_empty()
    }

    /// Turn the tier on or off at runtime. Disabling purges every slab
    /// (re-enable starts cold). Returns the effective state: enabling a
    /// zero-capacity tier stays off.
    pub fn set_enabled(&self, on: bool) -> bool {
        if self.replicas.is_empty() {
            return false;
        }
        self.enabled.store(on, Ordering::Release);
        if !on {
            for slab in &self.replicas {
                let delta = slab.lock().purge();
                self.obs.cache_bytes.add(delta);
            }
        }
        on
    }

    /// Total cached bytes across replicas (tests / stats).
    pub fn bytes(&self) -> usize {
        self.replicas.iter().map(|s| s.lock().bytes).sum()
    }

    fn replica(&self) -> &Mutex<Slab> {
        &self.replicas[replica_ticket() % self.replicas.len()]
    }

    // -- read path ---------------------------------------------------------

    /// Probe the calling thread's replica for `key` on `shard`. `Ok` is a
    /// hit; `Err` is a miss carrying the [`FillToken`] that must be
    /// captured *before* the engine read backing the fill.
    pub fn probe(&self, shard: usize, key: &[u8]) -> Result<Vec<u8>, FillToken> {
        if !self.is_enabled() {
            return Err(FillToken {
                epoch: 0,
                usable: false,
            });
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
        let mut slab = self.replica().lock();
        let Some(slot) = slab.slot_of(key) else {
            self.obs.cache_misses.inc();
            return Err(token);
        };
        let entry = slab.slots[slot].as_ref().expect("mapped slot occupied");
        if entry.stamp >= epoch {
            // Current (or installed by the in-flight round after its
            // applies — the engine already serves that value).
            let v = entry.value.to_vec();
            slab.evict.on_hit(slot);
            self.obs.cache_hits.inc();
            return Ok(v);
        }
        if clock.maybe_written_since(entry.stamp, epoch, h) {
            // A round since the stamp may have written the key (or log
            // coverage is gone): the value is unusable, drop it.
            let delta = -(slab.remove_slot(slot) as i64);
            self.obs.cache_bytes.add(delta);
            self.obs.cache_invalidations.inc();
            self.obs.cache_misses.inc();
            return Err(token);
        }
        // No round touched the key since the stamp: still exact.
        let entry = slab.slots[slot].as_mut().expect("mapped slot occupied");
        entry.stamp = epoch;
        let v = entry.value.to_vec();
        slab.evict.on_hit(slot);
        self.obs.cache_hits.inc();
        Ok(v)
    }

    /// Install `key = value` read from the engine under `token`. The fill
    /// is discarded if any commit round began on the shard since the token
    /// was captured, or if admission prefers the incumbent victim.
    pub fn fill(&self, shard: usize, key: &[u8], value: &[u8], token: FillToken) {
        if !token.usable || !self.is_enabled() {
            return;
        }
        let clock = &self.shards[shard];
        let h = key_hash(key);
        let mut slab = self.replica().lock();
        // Epoch-gate under the slab lock: round publication takes this
        // lock too, so a round that slips in after this check will still
        // observe (and supersede) the entry we install.
        if clock.epoch.load(Ordering::Acquire) != token.epoch {
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
            hash: h,
            shard: shard as u32,
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

    /// Publish a round's results: update or remove every replica's entry
    /// for the written keys, then move the shard epoch back to even.
    /// `writes` holds each applied write as `(key, Some(value))` for a put
    /// or `(key, None)` for a delete. Must be called *after* the round's
    /// writes are applied and *before* its acks are released.
    pub fn round_publish(&self, token: RoundToken, writes: &[(&[u8], Option<&[u8]>)]) {
        let RoundToken { shard, odd } = token;
        let next_even = odd + 1;
        if self.is_enabled() {
            for slab in &self.replicas {
                let mut slab = slab.lock();
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
                            let old = entry.key.len() + entry.value.len() + ENTRY_OVERHEAD;
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
        }
        self.shards[shard].epoch.store(next_even, Ordering::Release);
    }
}

// The `shard` field documents entry ownership for debugging; keep the
// compiler honest about it being read.
impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("shard", &self.shard)
            .field("stamp", &self.stamp)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> Arc<HotCache> {
        let obs = ServerObs::new();
        HotCache::new(
            &HotCacheConfig {
                capacity_bytes: cap,
                replicas: 1,
                round_log_slots: 8,
            },
            1,
            obs,
        )
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
        // Written key serves the round's new value; the other re-validates
        // through the round log and stays.
        assert_eq!(c.probe(0, b"a").unwrap(), b"9");
        assert_eq!(c.probe(0, b"b").unwrap(), b"2");
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
    fn coverage_loss_drops_entry() {
        let c = cache(1 << 20);
        let t = c.probe(0, b"k").unwrap_err();
        c.fill(0, b"k", b"v", t);
        // Push more rounds than the log holds, none touching `k`.
        for i in 0..20u64 {
            let other = format!("other{i}");
            put_round(&c, other.as_bytes(), b"x");
        }
        // Validation can no longer prove freshness: must miss, not serve.
        assert!(c.probe(0, b"k").is_err());
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
        let slab = c.replicas[0].lock();
        assert!(
            slab.slots.len() <= 4,
            "slot ring grew unboundedly: {} slots",
            slab.slots.len()
        );
        assert_eq!(slab.slots.len(), slab.occupied.len());
        assert!(c.obs.cache_evictions.get() > 0, "churn never evicted");
        // (HotCache::new may round the per-slab cap up to a small floor.)
        assert!(slab.bytes <= slab.cap);
        // The obs gauge must track actual slab bytes exactly.
        assert_eq!(c.obs.cache_bytes.get(), slab.bytes as i64);
    }

    #[test]
    fn admission_reject_keeps_gauge_in_sync() {
        // With a sketch gate, a cold candidate is declined; any accounting
        // from the attempt must still leave the gauge equal to slab bytes.
        let obs = ServerObs::new();
        let c = HotCache::new(
            &HotCacheConfig {
                capacity_bytes: 2 * (ENTRY_OVERHEAD + 2),
                replicas: 1,
                round_log_slots: 8,
            },
            1,
            obs,
        );
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
            shard: 0,
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
