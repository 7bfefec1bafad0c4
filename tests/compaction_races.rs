//! Races writers and readers against the off-path housekeeping scheduler
//! while the partitioned global index splits, merges and swaps segments.
//!
//! Four properties are pinned:
//!
//! * **Off-path**: no put ever executes a compaction merge inline — the
//!   `core.housekeeping.inline_merges` tripwire stays at zero (debug
//!   builds additionally assert inside `run_merge_tasks`), and the read
//!   path stays lock-free (`core.read.core_lock_acquisitions` == 0).
//! * **Incrementality**: once the index is partitioned, rounds driven by a
//!   narrow hot range keep the untouched segments (`core.sc.segments_kept`
//!   grows) instead of refolding the world, so a round merges bytes in
//!   proportion to the range it touches, not to the index size.
//! * **Crash safety**: the segments are DRAM-only — the fault-injection
//!   sweep still lands in both persistence contexts, and recovery from
//!   identical media rebuilds byte-identical fences and bloom filters.
//! * **Backpressure**: the flushed-bytes watermark stalls puts explicitly
//!   (counted) and releases them once dumps catch up; no lost writes.

use cachekv::{standard_workload, sweep_store, CacheKv, CacheKvConfig, Engine, SweepOptions};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use cachekv_workloads::{fill, KeyGen, ValueGen};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn device() -> Arc<PmemDevice> {
    Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled()
            .with_domain(PersistDomain::Eadr)
            .with_latency(LatencyConfig::zero()),
    ))
}

fn hier(dev: &Arc<PmemDevice>) -> Arc<Hierarchy> {
    Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()))
}

/// Small tables and a small segment target so the run crosses every SC
/// structure change: first fold splits the index into many segments, hot
/// rounds merge/swap a few of them.
fn race_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        // High threshold: the partitioned index keeps growing instead of
        // being retired to L0, so split/merge/keep behaviour is visible.
        dump_threshold_bytes: 4 << 20,
        sc_segment_target_entries: 128,
        hk_backpressure_bytes: 0,
        ..CacheKvConfig::test_small()
    }
}

fn fill_key(i: usize) -> Vec<u8> {
    // 'c'..'z' range — sorts after every hot key.
    format!("c{i:05}").into_bytes()
}

fn hot_key(w: usize, i: usize) -> Vec<u8> {
    format!("{}{i:04}", (b'a' + w as u8) as char).into_bytes()
}

fn value(round: u64) -> Vec<u8> {
    format!("r{round:04}-{}", "v".repeat(24)).into_bytes()
}

fn round_of(val: &[u8]) -> u64 {
    std::str::from_utf8(&val[1..5])
        .expect("value prefix is ascii")
        .parse()
        .expect("value prefix is a round number")
}

const FILL: usize = 3_000;
const HOT: usize = 64;
const ROUNDS: u64 = 40;

#[test]
fn hot_writers_race_readers_through_segment_split_merge_swap() {
    let dev = device();
    let db = Arc::new(CacheKv::create(hier(&dev), race_cfg()));

    // Wide fill, then quiesce: the fold partitions the index.
    for i in 0..FILL {
        db.put(&fill_key(i), &value(0)).expect("fill put");
    }
    db.quiesce();
    let snap = db.snapshot();
    assert!(
        snap.memory.gauges["core.mem.global_segments"] > 1,
        "fill did not partition the index: {:?}",
        snap.memory.gauges
    );

    // Two hot writers on disjoint narrow ranges ('a*', 'b*') race readers
    // while housekeeping rounds split/merge/swap segments under them.
    let watermark: Arc<Vec<AtomicU64>> =
        Arc::new((0..2 * HOT).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for r in 0..2 {
            let db = db.clone();
            let watermark = watermark.clone();
            let done = done.clone();
            s.spawn(move || {
                let mut i = r;
                while !done.load(Ordering::SeqCst) {
                    // Hot keys: freshness against the committed watermark.
                    let k = i % (2 * HOT);
                    let lb = watermark[k].load(Ordering::SeqCst);
                    match db.get(&hot_key(k / HOT, k % HOT)).expect("reader get") {
                        Some(v) => assert!(
                            round_of(&v) >= lb,
                            "stale hot read: saw {}, {lb} committed",
                            round_of(&v)
                        ),
                        None => assert_eq!(lb, 0, "hot key {k} lost"),
                    }
                    // Fill keys: must stay readable across every swap.
                    let f = (i * 13) % FILL;
                    assert_eq!(
                        db.get(&fill_key(f)).expect("reader get"),
                        Some(value(0)),
                        "fill key {f} lost mid-swap"
                    );
                    i += 1;
                }
            });
        }
        for w in 0..2usize {
            let db = db.clone();
            let watermark = watermark.clone();
            s.spawn(move || {
                for round in 1..=ROUNDS {
                    for i in 0..HOT {
                        db.put(&hot_key(w, i), &value(round)).expect("hot put");
                        watermark[w * HOT + i].store(round, Ordering::SeqCst);
                    }
                }
            });
        }
        let done = done.clone();
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(400));
            done.store(true, Ordering::SeqCst);
        });
    });
    done.store(true, Ordering::SeqCst);

    db.quiesce();
    for w in 0..2 {
        for i in 0..HOT {
            assert_eq!(db.get(&hot_key(w, i)).unwrap(), Some(value(ROUNDS)));
        }
    }
    for i in (0..FILL).step_by(97) {
        assert_eq!(db.get(&fill_key(i)).unwrap(), Some(value(0)));
    }

    let snap = db.snapshot();
    let c = &snap.memory.counters;
    assert!(c["core.housekeeping.rounds"] > 0, "scheduler never ran");
    assert!(c["core.sc.merges"] >= 2, "need multiple SC rounds: {c:?}");
    assert!(c["core.sc.splits"] > 0, "no segment ever split: {c:?}");
    assert!(
        c["core.sc.segments_kept"] > 0,
        "narrow hot rounds refolded the whole index: {c:?}"
    );
    assert!(c["core.sc.merge_bytes"] > 0);
    // The tentpole tripwires: compaction never ran inside a put, reads
    // never took a core lock.
    assert_eq!(c["core.housekeeping.inline_merges"], 0);
    assert_eq!(c["core.read.core_lock_acquisitions"], 0);
}

/// Mean bytes merged per SC round, and the global index size, after 10
/// rounds of updates confined to 1 024 hot keys of a 20 000-key store.
fn hot_range_merge_cost(full_fold: bool) -> (u64, u64) {
    let cfg = CacheKvConfig {
        subtable_bytes: 64 << 10,
        min_subtable_bytes: 32 << 10,
        flush_threads: 1,
        num_cores: 24,
        // Keep the whole index resident: no dump retires it mid-measure.
        dump_threshold_bytes: 256 << 20,
        hk_backpressure_bytes: 0,
        sc_segment_target_entries: 2048,
        sc_full_fold: full_fold,
        ..CacheKvConfig::default()
    };
    let dev = device();
    let db = Arc::new(CacheKv::create(hier(&dev), cfg));
    let store: Arc<dyn KvStore> = db.clone();
    let (wide, hot, rounds) = (20_000u64, 1_024u64, 10u64);
    let key = KeyGen::paper();
    let value = ValueGen::new(100);
    fill(&store, wide, &key, &value);

    let before = db.snapshot();
    let mut kbuf = vec![0u8; key.width()];
    let mut vbuf = Vec::new();
    for r in 0..rounds {
        for i in 0..hot {
            // Fixed-stride permutation of the hot range, varied per round.
            let id = (i * 389 + r * 17) % hot;
            key.key_into(id, &mut kbuf);
            value.value_into(id, &mut vbuf);
            db.put(&kbuf, &vbuf).expect("hot put");
        }
    }
    db.quiesce();
    let after = db.snapshot();

    let delta = |name: &str| after.memory.counters[name] - before.memory.counters[name];
    let sc_rounds = delta("core.sc.merges");
    let index_bytes = after.memory.gauges["core.sc.index_bytes"].max(0) as u64;
    assert!(sc_rounds > 0, "hot phase never triggered an SC round");
    assert!(index_bytes > 0, "index retired mid-measure");
    (delta("core.sc.merge_bytes") / sc_rounds, index_bytes)
}

#[test]
fn sc_round_cost_follows_the_touched_range_not_the_index() {
    // The partitioned-index cost model: a round merges only the segments
    // the hot range overlaps, so per-round merge bytes ≪ index size.
    let (per_round, index_bytes) = hot_range_merge_cost(false);
    assert!(
        per_round < index_bytes / 2,
        "SC round cost not proportional to touched range: \
         {per_round} B/round vs {index_bytes} B index"
    );
    // Negative control: the full fold re-merges every segment each round,
    // and the same bound must catch it.
    let (per_round, index_bytes) = hot_range_merge_cost(true);
    assert!(
        per_round >= index_bytes / 2,
        "full fold slipped under the bound: {per_round} B/round vs {index_bytes} B index"
    );
}

#[test]
fn crash_sweep_with_partitioned_index_covers_flush_and_dump() {
    // Tiny segments + the sweep's small dump threshold: crashes land inside
    // the segmented dump stream, not just the copy flush.
    let out = sweep_store(&SweepOptions {
        engine: Engine::CacheKv(CacheKvConfig {
            pool_bytes: 64 << 10,
            subtable_bytes: 8 << 10,
            min_subtable_bytes: 4 << 10,
            dump_threshold_bytes: 16 << 10,
            sc_segment_target_entries: 64,
            ..CacheKvConfig::test_small()
        }),
        domain: PersistDomain::Eadr,
        points: 48,
        torn: false,
        seed: 0x5E6_7E27,
        ops: standard_workload(45, 400),
    });
    assert!(out.points_run >= 40, "breadth: {out:?}");
    assert!(out.trips > 0, "no injection point fired: {out:?}");
    assert!(
        out.contexts.contains_key("cachekv::copy_flush"),
        "no crash inside the copy-based flush: {out:?}"
    );
    assert!(
        out.contexts.contains_key("cachekv::l0_dump"),
        "no crash inside the segmented L0 dump: {out:?}"
    );
}

#[test]
fn recovery_rebuilds_identical_segment_fences_and_blooms() {
    // Full-fold recovery config: the final fold's output is a pure
    // function of the surviving record set, so two recoveries from the
    // same media must rebuild byte-identical segment fences and blooms —
    // which also proves the segments are DRAM-only (nothing of them is
    // read back from PMem).
    let recover_cfg = CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 4 << 20,
        sc_segment_target_entries: 96,
        sc_full_fold: true,
        flush_threads: 1,
        ..CacheKvConfig::test_small()
    };
    let dev = device();
    let h = hier(&dev);
    {
        let db = CacheKv::create(
            h.clone(),
            CacheKvConfig {
                sc_full_fold: false,
                ..recover_cfg.clone()
            },
        );
        for i in 0..2_000usize {
            db.put(&fill_key(i), &value((i % 7) as u64)).unwrap();
        }
        // No quiesce: crash with tables in every lifecycle stage.
    }
    h.power_fail();
    let media = dev.clone_media();

    let recover = |media| {
        let dev = Arc::new(PmemDevice::from_media(device().config().clone(), media));
        let h = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        CacheKv::recover(h, recover_cfg.clone()).unwrap()
    };
    let a = recover(media.clone());
    let b = recover(media);

    let fa = a.segment_fences();
    let fb = b.segment_fences();
    assert!(
        fa.len() > 1,
        "recovery left a trivial index: {} segs",
        fa.len()
    );
    assert_eq!(fa, fb, "recoveries from identical media diverged");
    for i in (0..2_000usize).step_by(83) {
        assert_eq!(
            a.get(&fill_key(i)).unwrap(),
            Some(value((i % 7) as u64)),
            "key {i} lost in recovery"
        );
    }
}

#[test]
fn backpressure_watermark_stalls_puts_and_releases_them() {
    // Watermark of 1 byte floors at 2 × the dump threshold; four writers
    // outpace the single housekeeping worker, so puts must hit the gate —
    // explicitly counted — and complete once dumps drain the backlog.
    let cfg = CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 16 << 10,
        hk_backpressure_bytes: 1,
        ..CacheKvConfig::test_small()
    };
    let dev = device();
    let db = Arc::new(CacheKv::create(hier(&dev), cfg));
    let payload = vec![7u8; 512];
    std::thread::scope(|s| {
        for w in 0..4usize {
            let db = db.clone();
            let payload = payload.clone();
            s.spawn(move || {
                for i in 0..1_500usize {
                    db.put(format!("w{w}k{i:06}").as_bytes(), &payload)
                        .expect("gated put");
                }
            });
        }
    });
    db.quiesce();
    for w in 0..4usize {
        for i in (0..1_500usize).step_by(251) {
            assert_eq!(
                db.get(format!("w{w}k{i:06}").as_bytes()).unwrap(),
                Some(payload.clone()),
                "w{w}k{i} lost under backpressure"
            );
        }
    }
    let snap = db.snapshot();
    let c = &snap.memory.counters;
    assert!(
        c["core.housekeeping.put_stalls"] > 0,
        "writers never hit the watermark: {c:?}"
    );
    assert!(
        c["core.housekeeping.put_stall_ns"] > 0,
        "stall time unaccounted: {c:?}"
    );
    assert!(
        c["core.l0.dumps"] > 0,
        "stalls were never relieved by dumps"
    );
    assert_eq!(c["core.housekeeping.inline_merges"], 0);
}
