//! Property-based model checking: every store in the repository must match
//! a `BTreeMap` reference model under arbitrary put/delete/get sequences —
//! including ones that force MemTable rotations and compactions.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_baselines::{BaselineOptions, NoveLsm, SlmDb};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{KvStore, LsmConfig, LsmTree, StorageConfig};
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    /// Range scan `[lo, hi)` with a limit; `hi = None` is unbounded.
    /// `lo >= hi` must come back empty, not error.
    Scan(u16, Option<u16>, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u16..300, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u16..300).prop_map(Op::Delete),
        2 => (0u16..300).prop_map(Op::Get),
        2 => (0u16..320, 0u16..340, 0u8..20)
            .prop_map(|(lo, hi, n)| Op::Scan(lo, (hi < 320).then_some(hi), n)),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn value(v: u8, len: usize) -> Vec<u8> {
    vec![v; len]
}

fn hier() -> Arc<Hierarchy> {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    Arc::new(Hierarchy::new(dev, CacheConfig::paper()))
}

/// What the model says `scan(lo, hi, limit)` must return. Empty `hi` is
/// unbounded; an inverted range is empty.
fn model_scan(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    lo: &[u8],
    hi: &[u8],
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let iter: Box<dyn Iterator<Item = (&Vec<u8>, &Vec<u8>)>> = if hi.is_empty() {
        Box::new(model.range(lo.to_vec()..))
    } else if lo < hi {
        Box::new(model.range(lo.to_vec()..hi.to_vec()))
    } else {
        Box::new(std::iter::empty())
    };
    iter.take(limit)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn check_against_model(store: &dyn KvStore, ops: &[Op], vlen: usize) {
    // Baselines without a native scan keep the trait's "unsupported"
    // default; the oracle only drives stores that answer.
    let scan_supported = store.scan(b"", b"", 1).is_ok();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(&key(*k), &value(*v, vlen)).unwrap();
                model.insert(key(*k), value(*v, vlen));
            }
            Op::Delete(k) => {
                store.delete(&key(*k)).unwrap();
                model.remove(&key(*k));
            }
            Op::Get(k) => {
                let got = store.get(&key(*k)).unwrap();
                assert_eq!(
                    got,
                    model.get(&key(*k)).cloned(),
                    "{}: key {k}",
                    store.name()
                );
            }
            Op::Scan(a, b, n) => {
                if !scan_supported {
                    continue;
                }
                let lo = key(*a);
                let hi = b.map(key).unwrap_or_default();
                let got = store.scan(&lo, &hi, *n as usize).unwrap();
                assert_eq!(
                    got,
                    model_scan(&model, &lo, &hi, *n as usize),
                    "{}: scan [{a}, {b:?}) limit {n}",
                    store.name()
                );
            }
        }
    }
    // Final full sweep.
    store.quiesce();
    for k in 0u16..300 {
        let got = store.get(&key(k)).unwrap();
        assert_eq!(
            got,
            model.get(&key(k)).cloned(),
            "{}: final key {k}",
            store.name()
        );
    }
    if scan_supported {
        let got = store.scan(b"", b"", usize::MAX).unwrap();
        assert_eq!(
            got,
            model_scan(&model, b"", b"", usize::MAX),
            "{}: final full scan",
            store.name()
        );
    }
}

/// Tiny sub-MemTables: rotations, flushes, and L0 dumps all trigger.
fn tiny_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 32 << 10,
        ..CacheKvConfig::test_small()
    }
}

/// Limited scans from every start in `starts`, with and without an end.
fn scans_from(starts: impl Iterator<Item = u16>, limits: &[u8]) -> Vec<Op> {
    starts
        .flat_map(|lo| {
            limits
                .iter()
                .flat_map(move |&n| [Op::Scan(lo, None, n), Op::Scan(lo, Some(lo + 60), n)])
        })
        .collect()
}

/// A run of tombstones longer than any scan limit, in a newer source than
/// the puts it deletes: a limited scan over it is cut short by the
/// tombstone source's horizon and must take several capture rounds.
#[test]
fn cachekv_scans_across_a_tombstone_run_longer_than_the_limit() {
    let mut ops: Vec<Op> = (0..200).map(|k| Op::Put(k, k as u8)).collect();
    ops.extend((20..150).map(Op::Delete));
    ops.extend(scans_from((0..40).step_by(3), &[1, 5, 19]));
    // Push the tombstones down through flushes and SC, then scan again.
    ops.extend((200..300).flat_map(|k| [Op::Put(k, 1), Op::Put(k, 2), Op::Put(k, 3)]));
    ops.extend(scans_from((0..40).step_by(3), &[1, 5, 19]));
    let db = CacheKv::create(hier(), tiny_cfg());
    check_against_model(&db, &ops, 48);
    let c = &db.snapshot().memory.counters;
    assert!(
        c["core.scan.rounds"] > c["core.scans"],
        "no scan took a second capture round"
    );
}

/// One key overwritten more times than any scan limit, with filler puts
/// in between so its versions spread over flushed tables, the global
/// index and the LSM: each source resolves it to one version.
#[test]
fn cachekv_scans_a_key_overwritten_more_times_than_the_limit() {
    let mut ops = Vec::new();
    for round in 0..40u16 {
        ops.push(Op::Put(100, round as u8));
        ops.extend((0..30).map(|i| Op::Put((round * 7 + i * 11) % 300, i as u8)));
        if round % 8 == 7 {
            ops.extend(scans_from(95..102, &[1, 3, 19]));
        }
    }
    ops.extend(scans_from(95..102, &[1, 3, 19]));
    let db = CacheKv::create(hier(), tiny_cfg());
    check_against_model(&db, &ops, 48);
    let c = &db.snapshot().memory.counters;
    assert!(c["core.flushes"] > 0 && c["core.sc.merges"] > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn cachekv_matches_model(ops in prop::collection::vec(op_strategy(), 1..800)) {
        let db = CacheKv::create(hier(), tiny_cfg());
        check_against_model(&db, &ops, 48);
    }

    #[test]
    fn lsm_tree_matches_model(ops in prop::collection::vec(op_strategy(), 1..800)) {
        let db = LsmTree::create(hier(), LsmConfig { memtable_bytes: 4 << 10, storage: StorageConfig::test_small() });
        check_against_model(&db, &ops, 48);
    }

    #[test]
    fn novelsm_matches_model(ops in prop::collection::vec(op_strategy(), 1..500)) {
        let db = NoveLsm::new(
            hier(),
            BaselineOptions::vanilla().with_memtable_bytes(8 << 10),
            StorageConfig::test_small(),
        );
        check_against_model(&db, &ops, 48);
    }

    #[test]
    fn slmdb_matches_model(ops in prop::collection::vec(op_strategy(), 1..500)) {
        let db = SlmDb::new(hier(), BaselineOptions::vanilla().with_memtable_bytes(8 << 10));
        check_against_model(&db, &ops, 48);
    }

    #[test]
    fn cachekv_crash_recovery_matches_model(
        ops in prop::collection::vec(op_strategy(), 1..400),
        crash_at in 0usize..400,
    ) {
        let h = hier();
        let cfg = tiny_cfg();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let crash_at = crash_at.min(ops.len());
        {
            let db = CacheKv::create(h.clone(), cfg.clone());
            for op in &ops[..crash_at] {
                match op {
                    Op::Put(k, v) => {
                        db.put(&key(*k), &value(*v, 48)).unwrap();
                        model.insert(key(*k), value(*v, 48));
                    }
                    Op::Delete(k) => {
                        db.delete(&key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    Op::Get(_) | Op::Scan(..) => {}
                }
            }
            db.quiesce();
        }
        h.power_fail();
        let db = CacheKv::recover(h, cfg).unwrap();
        for k in 0u16..300 {
            let got = db.get(&key(k)).unwrap();
            prop_assert_eq!(got, model.get(&key(k)).cloned(), "post-crash key {}", k);
        }
        // Post-recovery scans agree with post-recovery gets.
        let got = db.scan(b"", b"", usize::MAX).unwrap();
        prop_assert_eq!(got, model_scan(&model, b"", b"", usize::MAX), "post-crash scan");
    }
}
