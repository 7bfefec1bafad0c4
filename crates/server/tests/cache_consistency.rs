//! Model-based consistency oracle for the hot-key cache tier.
//!
//! The property under test: **no GET served through the server path ever
//! returns a value older than the last acked write to that key**, at any
//! cache capacity (off, tiny-and-thrashing, unbounded) and shard count.
//!
//! Every value written embeds its per-key version. Writers serialize per
//! key (a version is fully acked before the next is issued), so the acked
//! version counter is exactly the oracle's lower bound: a GET that starts
//! after version `lo` was acked and finishes before version `hi` was
//! issued must observe a version in `[lo, hi]` — anything below `lo` is a
//! stale cached value, which the round-invalidation protocol exists to
//! make impossible.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use cachekv_server::{HotCacheConfig, KvClient, KvServer, LoopbackTransport, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const KEYS: usize = 48;
const WRITERS: usize = 3;
const READERS: usize = 3;
const OPS_PER_WRITER: usize = 150;
const OPS_PER_READER: usize = 400;

fn engine_shard() -> Arc<dyn KvStore> {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
    Arc::new(CacheKv::create(hier, CacheKvConfig::test_small()))
}

fn start(shards: usize, cache: HotCacheConfig) -> (KvServer, Arc<LoopbackTransport>) {
    let transport = LoopbackTransport::new();
    let stores = (0..shards).map(|_| engine_shard()).collect();
    let cfg = ServerConfig {
        cache,
        ..ServerConfig::default()
    };
    (KvServer::start(stores, transport.clone(), cfg), transport)
}

fn key(k: usize) -> Vec<u8> {
    format!("oracle-key-{k:04}").into_bytes()
}

fn encode(version: u64) -> Vec<u8> {
    format!("v{version:012}-padding-padding-padding").into_bytes()
}

fn decode(value: &[u8]) -> u64 {
    let s = std::str::from_utf8(value).expect("oracle value is utf8");
    s[1..13].parse().expect("oracle value embeds its version")
}

/// Per-key ground truth. Writers hold `write_lock` across issue→ack, so
/// per-key versions are issued, applied, and acked strictly in order.
struct KeyOracle {
    write_lock: Mutex<()>,
    /// Highest version whose ack has been observed.
    last_acked: AtomicU64,
    /// Highest version that has been issued (upper bound for readers).
    max_issued: AtomicU64,
    /// `deletes[v-1]` ⇔ version `v` was a DELETE. Pushed at issue time.
    deletes: Mutex<Vec<bool>>,
}

impl KeyOracle {
    fn new() -> Self {
        KeyOracle {
            write_lock: Mutex::new(()),
            last_acked: AtomicU64::new(0),
            max_issued: AtomicU64::new(0),
            deletes: Mutex::new(Vec::new()),
        }
    }

    fn any_delete_in(&self, lo: u64, hi: u64) -> bool {
        if hi < 1 || hi < lo {
            return false;
        }
        let deletes = self.deletes.lock().unwrap();
        (lo.max(1)..=hi.min(deletes.len() as u64)).any(|v| deletes[(v - 1) as usize])
    }
}

/// Tiny deterministic PRNG so the interleaving differs per thread without
/// pulling in a rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }
}

/// Drive the interleaved PUT/DELETE/GET battery against one server
/// configuration and check every read against the oracle.
fn run_oracle(shards: usize, cache: HotCacheConfig, label: &str) {
    let (server, transport) = start(shards, cache);
    let oracles: Arc<Vec<KeyOracle>> = Arc::new((0..KEYS).map(|_| KeyOracle::new()).collect());

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let oracles = oracles.clone();
        let client = KvClient::connect(transport.connect().expect("dial"));
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0x9E3779B9 + w as u64);
            for _ in 0..OPS_PER_WRITER {
                let k = (rng.next() as usize) % KEYS;
                let oracle = &oracles[k];
                let _guard = oracle.write_lock.lock().unwrap();
                let version = oracle.max_issued.load(Ordering::Acquire) + 1;
                let is_delete = rng.next().is_multiple_of(5);
                oracle.deletes.lock().unwrap().push(is_delete);
                oracle.max_issued.store(version, Ordering::Release);
                if is_delete {
                    client.delete(&key(k)).expect("delete acked");
                } else {
                    client.put(&key(k), &encode(version)).expect("put acked");
                }
                oracle.last_acked.store(version, Ordering::Release);
            }
            client.close();
        }));
    }
    for r in 0..READERS {
        let oracles = oracles.clone();
        let client = KvClient::connect(transport.connect().expect("dial"));
        let label = label.to_string();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xB5297A4D + r as u64);
            // Per-reader observation floor: versions a single client sees
            // for one key must never go backwards.
            let mut floor = vec![0u64; KEYS];
            for _ in 0..OPS_PER_READER {
                let k = (rng.next() as usize) % KEYS;
                let oracle = &oracles[k];
                let lo = oracle.last_acked.load(Ordering::Acquire);
                let got = client.get(&key(k)).expect("get answered");
                let hi = oracle.max_issued.load(Ordering::Acquire);
                match got {
                    Some(v) => {
                        let version = decode(&v);
                        assert!(
                            version >= lo,
                            "{label}: key {k} returned version {version}, \
                             older than last acked {lo} (stale cache read)"
                        );
                        assert!(
                            version <= hi,
                            "{label}: key {k} returned version {version} \
                             beyond max issued {hi}"
                        );
                        assert!(
                            version >= floor[k],
                            "{label}: key {k} went backwards: saw {version} \
                             after {}",
                            floor[k]
                        );
                        floor[k] = version;
                    }
                    None => {
                        // Not-found is only consistent if nothing was ever
                        // acked or a DELETE could be the latest applied
                        // write in the read's window.
                        assert!(
                            lo == 0 || oracle.any_delete_in(lo, hi),
                            "{label}: key {k} returned not-found but last \
                             acked write {lo} was a PUT with no delete \
                             through {hi}"
                        );
                    }
                }
            }
            client.close();
        }));
    }
    for h in handles {
        h.join().expect("oracle thread");
    }

    // Quiesced final sweep: with writers done, every key must read exactly
    // its last acked state — through whatever the cache now holds.
    let client = KvClient::connect(transport.connect().expect("dial"));
    client.ping(true).expect("drain + quiesce");
    for k in 0..KEYS {
        let oracle = &oracles[k];
        let last = oracle.last_acked.load(Ordering::Acquire);
        let expect = if last == 0 {
            None
        } else {
            let deletes = oracle.deletes.lock().unwrap();
            (!deletes[(last - 1) as usize]).then(|| encode(last))
        };
        assert_eq!(
            client.get(&key(k)).expect("final get"),
            expect,
            "{label}: final state of key {k} diverged from oracle"
        );
    }
    client.close();

    let obs = server.obs();
    assert_eq!(
        obs.cache_tripwire.get(),
        0,
        "{label}: cache coherence tripwire fired"
    );
    server.shutdown();
}

fn capacity_label(capacity: usize) -> &'static str {
    match capacity {
        0 => "off",
        c if c < 1 << 20 => "tiny",
        _ => "unbounded",
    }
}

fn sweep_capacity(capacity: usize) {
    for shards in [1usize, 2, 4] {
        let label = format!("cache={} shards={shards}", capacity_label(capacity));
        run_oracle(shards, HotCacheConfig::with_capacity(capacity), &label);
    }
}

#[test]
fn oracle_with_cache_disabled() {
    sweep_capacity(0);
}

#[test]
fn oracle_with_tiny_thrashing_cache() {
    // A few entries per replica: constant eviction + admission pressure.
    sweep_capacity(4 << 10);
}

#[test]
fn oracle_with_unbounded_cache() {
    sweep_capacity(64 << 20);
}

/// Round-invalidation race: readers hammer one ultra-hot key while
/// writers rotate its value through group-commit rounds. Each reader's
/// observed version sequence must be monotonic, and the coherence
/// tripwire must stay at zero.
#[test]
fn hot_key_version_rotation_is_monotonic() {
    const HOT_WRITES: u64 = 600;
    const HOT_READERS: usize = 4;

    let (server, transport) = start(2, HotCacheConfig::with_capacity(64 << 20));
    let issued = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let write_gate = Arc::new(Mutex::new(()));

    let mut handles = Vec::new();
    for _ in 0..2 {
        let issued = issued.clone();
        let acked = acked.clone();
        let write_gate = write_gate.clone();
        let client = KvClient::connect(transport.connect().expect("dial"));
        handles.push(std::thread::spawn(move || {
            loop {
                let _guard = write_gate.lock().unwrap();
                let version = issued.load(Ordering::Acquire) + 1;
                if version > HOT_WRITES {
                    break;
                }
                issued.store(version, Ordering::Release);
                client.put(b"the-hot-key", &encode(version)).expect("put");
                acked.store(version, Ordering::Release);
            }
            client.close();
        }));
    }
    for _ in 0..HOT_READERS {
        let issued = issued.clone();
        let acked = acked.clone();
        let done = done.clone();
        let client = KvClient::connect(transport.connect().expect("dial"));
        handles.push(std::thread::spawn(move || {
            let mut floor = 0u64;
            while !done.load(Ordering::Acquire) {
                let lo = acked.load(Ordering::Acquire);
                let got = client.get(b"the-hot-key").expect("get");
                let hi = issued.load(Ordering::Acquire);
                match got {
                    None => assert_eq!(lo, 0, "hot key vanished after version {lo} acked"),
                    Some(v) => {
                        let version = decode(&v);
                        assert!(
                            (lo..=hi).contains(&version),
                            "hot key version {version} outside acked window [{lo}, {hi}]"
                        );
                        assert!(
                            version >= floor,
                            "hot key went backwards: {version} after {floor}"
                        );
                        floor = version;
                    }
                }
            }
            client.close();
        }));
    }
    // First two handles are the writers.
    let readers = handles.split_off(2);
    for h in handles {
        h.join().expect("hot writer");
    }
    done.store(true, Ordering::Release);
    for h in readers {
        h.join().expect("hot reader");
    }

    let obs = server.obs();
    assert_eq!(obs.cache_tripwire.get(), 0, "coherence tripwire fired");
    assert!(
        obs.cache_invalidations.get() > 0,
        "rotating a cached hot key through {HOT_WRITES} rounds must invalidate"
    );
    server.shutdown();
}

/// Deterministic hit accounting: on one quiescent connection, the second
/// GET of a key is served by the calling thread's replica; with the cache
/// off, hits must stay exactly zero.
#[test]
fn hit_and_miss_accounting() {
    // Cache on: fill on first read, hit on second.
    let (server, transport) = start(1, HotCacheConfig::with_capacity(64 << 20));
    let client = KvClient::connect(transport.connect().expect("dial"));
    client.put(b"warm", b"value").expect("put");
    client.ping(true).expect("quiesce");
    assert_eq!(client.get(b"warm").unwrap(), Some(b"value".to_vec()));
    assert_eq!(client.get(b"warm").unwrap(), Some(b"value".to_vec()));
    let obs = server.obs();
    assert!(obs.cache_fills.get() >= 1, "first read must fill");
    assert!(obs.cache_hits.get() >= 1, "second read must hit");
    // Runtime toggle: disabling purges and stops serving; the data is
    // still correct from the engine.
    assert!(!server.cache().set_enabled(false));
    assert_eq!(server.cache().bytes(), 0);
    let hits_frozen = obs.cache_hits.get();
    assert_eq!(client.get(b"warm").unwrap(), Some(b"value".to_vec()));
    assert_eq!(
        obs.cache_hits.get(),
        hits_frozen,
        "disabled cache must not hit"
    );
    assert!(server.cache().set_enabled(true));
    client.close();
    server.shutdown();

    // Cache off at build time: zero hits, zero bytes, still correct.
    let (server, transport) = start(1, HotCacheConfig::disabled());
    let client = KvClient::connect(transport.connect().expect("dial"));
    client.put(b"cold", b"value").expect("put");
    for _ in 0..8 {
        assert_eq!(client.get(b"cold").unwrap(), Some(b"value".to_vec()));
    }
    let obs = server.obs();
    assert_eq!(obs.cache_hits.get(), 0);
    assert_eq!(obs.cache_bytes.get(), 0);
    assert!(!server.cache().has_capacity());
    client.close();
    server.shutdown();
}
