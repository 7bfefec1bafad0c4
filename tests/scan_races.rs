//! Races the merged range cursor against the full table lifecycle.
//!
//! A writer drives keys through seal → flush → sub-skiplist compaction →
//! L0 dump — putting even keys every round and churning odd keys through
//! put/delete cycles — while reader threads continuously scan sub-ranges.
//! Three properties are pinned:
//!
//! * **sequence consistency** — a scan observes a committed prefix of the
//!   writer's operation stream: over the always-present even keys the
//!   observed rounds are non-increasing in key order and span at most two
//!   adjacent rounds, and a scan started after a put returned sees that
//!   put's round or newer;
//! * **tombstone suppression** — deleted keys never leak into a scan,
//!   at any lifecycle stage of the tombstone;
//! * **lock freedom** — the `core.read.core_lock_acquisitions` tripwire
//!   stays at zero: scans share the get path's contention-free capture.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const KEYS: usize = 64;
const ROUNDS: u64 = 40;
const READERS: usize = 3;

/// Small tables so the run crosses every lifecycle stage: seals within a
/// round, flushes and compactions throughout, and L0 dumps past 24 KiB.
fn cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 24 << 10,
        ..CacheKvConfig::test_small()
    }
}

fn device() -> Arc<PmemDevice> {
    Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled()
            .with_domain(PersistDomain::Eadr)
            .with_latency(LatencyConfig::zero()),
    ))
}

fn key(i: usize) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

/// Value for key `i` at `round`; both parseable back out.
fn value(i: usize, round: u64) -> Vec<u8> {
    format!("r{round:04}-i{i:05}-{}", "v".repeat(24)).into_bytes()
}

fn round_of(val: &[u8]) -> u64 {
    std::str::from_utf8(&val[1..5])
        .expect("value prefix is ascii")
        .parse()
        .expect("value prefix is a round number")
}

fn idx_of(key: &[u8]) -> usize {
    std::str::from_utf8(&key[1..])
        .expect("key is ascii")
        .parse()
        .expect("key suffix is an index")
}

/// Watermark encoding: `round << 1 | present`. Zero = never written.
fn mark_put(round: u64) -> u64 {
    (round << 1) | 1
}
fn mark_del(round: u64) -> u64 {
    round << 1
}

#[test]
fn scans_stay_consistent_and_lock_free_across_seal_flush_compact() {
    let hier = Arc::new(Hierarchy::new(device(), CacheConfig::paper()));
    let db = Arc::new(CacheKv::create(hier, cfg()));
    let watermark: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for r in 0..READERS {
            let db = db.clone();
            let watermark = watermark.clone();
            let done = done.clone();
            s.spawn(move || {
                const WIDTH: usize = 16;
                // Small limits cut sources short, so scans take several
                // capture rounds while SC folds and L0 dumps race them.
                const LIMITS: [usize; 6] = [1, 3, 7, WIDTH / 2, usize::MAX, usize::MAX];
                let mut iter = r; // stagger readers across the key space
                while !done.load(Ordering::SeqCst) {
                    let lo = (iter * 7) % KEYS;
                    let hi = (lo + WIDTH).min(KEYS);
                    // Capture per-key lower bounds BEFORE the scan: those
                    // operations returned, so the scan snapshot includes
                    // them (or something newer).
                    let lbs: Vec<u64> = (lo..hi)
                        .map(|k| watermark[k].load(Ordering::SeqCst))
                        .collect();
                    let limit = LIMITS[iter % LIMITS.len()];
                    let got = db.scan(&key(lo), &key(hi), limit).expect("reader scan");
                    assert!(got.len() <= limit, "limit overshot");

                    let mut even_rounds: Vec<u64> = Vec::new();
                    let mut prev: Option<Vec<u8>> = None;
                    for (k, v) in &got {
                        if let Some(p) = &prev {
                            assert!(p < k, "scan keys not strictly ascending");
                        }
                        prev = Some(k.clone());
                        assert!(key(lo) <= *k && *k < key(hi), "key escaped the range");
                        let i = idx_of(k);
                        let seen = round_of(v);
                        assert_eq!(*v, value(i, seen), "torn value on key {i}");
                        let lb = lbs[i - lo];
                        if i.is_multiple_of(2) {
                            assert!(
                                seen >= lb >> 1,
                                "stale scan on key {i}: saw round {seen}, {} committed",
                                lb >> 1
                            );
                            even_rounds.push(seen);
                        } else {
                            // Odd keys are deleted on even rounds; a
                            // surviving version must be from a put round,
                            // newer than any committed delete.
                            assert!(seen % 2 == 1, "tombstoned round {seen} leaked for key {i}");
                            if lb != 0 && lb & 1 == 0 {
                                assert!(
                                    seen > lb >> 1,
                                    "key {i} deleted at round {} resurfaced from round {seen}",
                                    lb >> 1
                                );
                            }
                        }
                    }
                    // Freshness: an even key whose put committed must be in
                    // the scan — anywhere in the range when the limit did
                    // not bind, else up to the last key returned (a scan
                    // that skips a key across a round boundary fails here).
                    let present: Vec<usize> = got.iter().map(|(k, _)| idx_of(k)).collect();
                    let covered = match present.last() {
                        Some(&last) if got.len() == limit => last + 1,
                        _ => hi,
                    };
                    for k in (lo..covered).filter(|k| k % 2 == 0) {
                        if lbs[k - lo] != 0 {
                            assert!(
                                present.contains(&k),
                                "committed key {k} missing (limit {limit})"
                            );
                        }
                    }
                    // Snapshot consistency: the writer commits rounds in
                    // ascending key order, so one snapshot — limited or
                    // not — shows a non-increasing round sequence spanning
                    // at most two adjacent rounds over the even keys.
                    for w in even_rounds.windows(2) {
                        assert!(
                            w[0] >= w[1] && w[0] - w[1] <= 1,
                            "torn snapshot (limit {limit}): even-key rounds {even_rounds:?}"
                        );
                    }
                    iter += 1;
                }
            });
        }

        let watermark = watermark.clone();
        let db2 = db.clone();
        let done = done.clone();
        s.spawn(move || {
            for round in 1..=ROUNDS {
                for k in 0..KEYS {
                    if k % 2 == 1 && round % 2 == 0 {
                        db2.delete(&key(k)).expect("writer delete");
                        watermark[k].store(mark_del(round), Ordering::SeqCst);
                    } else {
                        db2.put(&key(k), &value(k, round)).expect("writer put");
                        watermark[k].store(mark_put(round), Ordering::SeqCst);
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    });

    // Quiesced final pass: ROUNDS is even, so every odd key ends deleted
    // and the full scan is exactly the even keys at the last round.
    db.quiesce();
    let all = db.scan(b"", b"", usize::MAX).expect("final scan");
    let expect: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS)
        .step_by(2)
        .map(|k| (key(k), value(k, ROUNDS)))
        .collect();
    assert_eq!(all, expect, "final scan is the tombstone-free last round");

    let snap = db.snapshot();
    let c = &snap.memory.counters;
    assert!(c["core.scans"] > 0, "readers scanned");
    assert!(c["core.scan.items"] > 0, "scans returned items");
    assert!(c["core.seals"] > 0, "lifecycle reached sealing");
    assert!(c["core.flushes"] > 0, "lifecycle reached flushing");
    // Small limits made scans cross round boundaries, and version drops
    // landed mid-scan: the path under test really ran.
    assert!(
        c["core.scan.rounds"] > c["core.scans"],
        "no scan took a second capture round"
    );
    assert!(c["core.scan.retries"] > 0, "no scan raced a version drop");
    // The tentpole claim: no scan ever acquired a CoreSlot mutex.
    assert_eq!(c["core.read.core_lock_acquisitions"], 0);
}

/// A scan copies about what it returns. With the population folded into a
/// global index of several segments, a limit-10 scan — with an end key or
/// without one — copies at most 10 versions per memory source, plus the
/// active tables' unindexed suffix, which every scan decodes whole (zero
/// here: the active tables hold only keys below the scanned range) — not
/// every overlapped entry up to the end key or the end of the key space
/// (200 and 2 000 versions here).
#[test]
fn limited_scan_copies_what_it_returns() {
    const N: usize = 4_000;
    let cfg = CacheKvConfig {
        dump_threshold_bytes: 4 << 20,
        hk_backpressure_bytes: 16 << 20,
        ..CacheKvConfig::test_small()
    };
    let hier = Arc::new(Hierarchy::new(device(), CacheConfig::paper()));
    let db = CacheKv::create(hier, cfg.clone());
    // Descending, so the still-active tables hold the lowest keys, below
    // every scan here: what the scans copy comes from the global index.
    for i in (0..N).rev() {
        db.put(&key(i), &value(i, 1)).unwrap();
    }
    db.quiesce();
    assert!(db.segment_fences().len() >= 3, "global index has segments");

    let (sealing, flushed, _, _) = db.memory_stats();
    let memory_sources = cfg.num_cores + sealing + flushed + 1;
    let counter = |name: &str| db.snapshot().memory.counters[name];
    for end in [key(2_200), Vec::new()] {
        let (copied0, rounds0) = (counter("core.scan.captured"), counter("core.scan.rounds"));
        let got = db.scan(&key(2_000), &end, 10).unwrap();
        let want: Vec<_> = (2_000..2_010).map(|i| (key(i), value(i, 1))).collect();
        assert_eq!(got, want);
        let copied = counter("core.scan.captured") - copied0;
        assert!(
            copied <= 10 * memory_sources as u64,
            "end {end:?}: copied {copied} versions for 10 items ({memory_sources} memory sources)"
        );
        assert_eq!(
            counter("core.scan.rounds") - rounds0,
            1,
            "one round suffices"
        );
    }
}

/// Deterministic lifecycle sweep: the same scan answer must come back at
/// every stage — active-only, sealed+flushed, and after an L0 dump — with
/// tombstones suppressed throughout.
#[test]
fn scan_answer_is_stable_across_lifecycle_stages() {
    let hier = Arc::new(Hierarchy::new(device(), CacheConfig::paper()));
    let db = CacheKv::create(hier, cfg());
    let mut model = std::collections::BTreeMap::new();

    let check = |db: &CacheKv, model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>, stage| {
        let got = db.scan(b"", b"", usize::MAX).expect("scan");
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want, "full scan diverged at stage {stage}");
        // A bounded, limited scan is the same answer cut differently.
        let (lo, hi) = (key(8), key(40));
        let got = db.scan(&lo, &hi, 10).expect("bounded scan");
        let want: Vec<_> = model
            .range(lo..hi)
            .take(10)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got, want, "bounded scan diverged at stage {stage}");
    };

    // Stage 1: everything in active sub-MemTables.
    for k in 0..KEYS {
        db.put(&key(k), &value(k, 1)).unwrap();
        model.insert(key(k), value(k, 1));
    }
    for k in (0..KEYS).step_by(5) {
        db.delete(&key(k)).unwrap();
        model.remove(&key(k));
    }
    check(&db, &model, "active");

    // Stage 2: overwrite across seals/flushes so versions straddle the
    // flushed indexes and the memtable.
    for round in 2..=6u64 {
        for k in 0..KEYS {
            if (k + round as usize).is_multiple_of(7) {
                db.delete(&key(k)).unwrap();
                model.remove(&key(k));
            } else {
                db.put(&key(k), &value(k, round)).unwrap();
                model.insert(key(k), value(k, round));
            }
        }
    }
    check(&db, &model, "multi-generation");

    // Stage 3: quiesce drains seal/flush/compaction and dumps past the
    // threshold, pushing history into sstables.
    db.quiesce();
    check(&db, &model, "quiesced");

    let snap = db.snapshot();
    assert_eq!(snap.memory.counters["core.read.core_lock_acquisitions"], 0);
}
