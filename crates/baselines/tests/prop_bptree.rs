//! Property tests: the PMem B+-tree against a BTreeMap model, including
//! crash durability of the clflush discipline.

use cachekv_baselines::{BpTree, VAL};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{FlushMode, PmemSpace};
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn tree(mode: FlushMode) -> BpTree {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
    BpTree::create(PmemSpace::new(hier, 0, 16 << 20, mode))
}

fn val(x: u64) -> [u8; VAL] {
    let mut v = [0u8; VAL];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn bptree_matches_model(
        ops in prop::collection::vec((0u32..2_000, any::<u64>()), 1..800)
    ) {
        let mut t = tree(FlushMode::None);
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (k, x) in &ops {
            let key = format!("user{k:08}").into_bytes();
            let old = t.insert(&key, &val(*x)).unwrap();
            let model_old = model.insert(key, *x);
            prop_assert_eq!(old.map(|o| u64::from_le_bytes(o[..8].try_into().unwrap())), model_old,
                "insert must report the exact previous value");
        }
        prop_assert_eq!(t.len(), model.len());
        for (key, x) in &model {
            prop_assert_eq!(t.get(key), Some(val(*x)), "key {:?}", key);
        }
        // Absent keys miss.
        prop_assert_eq!(t.get(b"user99999999"), None);
        // Scan is sorted, complete, and agrees with the model.
        let scanned = t.scan_all();
        prop_assert_eq!(scanned.len(), model.len());
        let model_keys: Vec<&Vec<u8>> = model.keys().collect();
        for (i, (k, v)) in scanned.iter().enumerate() {
            prop_assert_eq!(k, model_keys[i]);
            prop_assert_eq!(*v, val(model[k]));
        }
    }

    #[test]
    fn bptree_with_clflush_is_readable_from_media_after_crash(
        keys in prop::collection::btree_set(0u32..500, 1..120)
    ) {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
        ));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        let mut t = BpTree::create(PmemSpace::new(hier.clone(), 0, 16 << 20, FlushMode::Clflush));
        for k in &keys {
            t.insert(format!("user{k:08}").as_bytes(), &val(*k as u64)).unwrap();
        }
        // Crash: with per-write clflush the tree bytes are all on media, so
        // a fresh handle over the same space still resolves every key.
        hier.power_fail();
        for k in &keys {
            prop_assert_eq!(t.get(format!("user{k:08}").as_bytes()), Some(val(*k as u64)));
        }
    }
}
