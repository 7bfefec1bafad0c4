//! Property tests for the LSM building blocks: skiplist ordering/lookup
//! against a model, SSTable roundtrip, merge/dedup laws, and bloom
//! soundness.

use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{
    build_table, dedup_newest, internal_cmp, pack_meta, Bloom, DramSpace, Entry, EntryKind, Lookup,
    MergeIter, SkipList, TableHandle, TableOptions,
};
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use cachekv_storage::PmemAllocator;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    (0u16..200).prop_map(|k| format!("key{k:04}").into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn skiplist_matches_versioned_model(
        ops in prop::collection::vec((key_strategy(), prop::collection::vec(any::<u8>(), 0..40)), 1..300)
    ) {
        let mut list = SkipList::new(DramSpace::new(1 << 20));
        // Model: key -> (seq, value) of the newest version.
        let mut model: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
        for (seq, (key, value)) in ops.iter().enumerate() {
            let seq = seq as u64 + 1;
            list.insert(key, pack_meta(seq, EntryKind::Put), value).unwrap();
            model.insert(key.clone(), (seq, value.clone()));
        }
        prop_assert!(list.check_ordered());
        for (key, (seq, value)) in &model {
            let (meta, got) = list.get_latest(key).expect("inserted key findable");
            prop_assert_eq!(cachekv_lsm::meta_seq(meta), *seq);
            prop_assert_eq!(&got, value);
        }
        // Iteration covers exactly the inserted multiset, in internal order.
        let entries: Vec<Entry> = list.iter().collect();
        prop_assert_eq!(entries.len(), ops.len());
        for w in entries.windows(2) {
            prop_assert_eq!(
                internal_cmp(&w[0].key, w[0].meta, &w[1].key, w[1].meta),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn sstable_roundtrips_arbitrary_sorted_entries(
        kvs in prop::collection::btree_map(key_strategy(), (any::<bool>(), prop::collection::vec(any::<u8>(), 0..60)), 1..150),
        block_size in 64usize..2048,
    ) {
        let entries: Vec<Entry> = kvs
            .iter()
            .enumerate()
            .map(|(i, (k, (is_del, v)))| {
                let kind = if *is_del { EntryKind::Delete } else { EntryKind::Put };
                Entry {
                    key: k.clone(),
                    meta: pack_meta(i as u64 + 1, kind),
                    value: if *is_del { vec![] } else { v.clone() },
                }
            })
            .collect();
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
        ));
        let cap = dev.capacity();
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        let alloc = PmemAllocator::new(0, cap);
        let opts = TableOptions { block_size, bloom_bits_per_key: 10 };
        let meta = build_table(&hier, &alloc, 1, &entries, &opts).unwrap();
        let table = TableHandle::open(hier, meta).unwrap();
        // Every entry resolves correctly by point lookup.
        for e in &entries {
            match (e.kind(), table.get(&e.key)) {
                (EntryKind::Put, Lookup::Found(v)) => prop_assert_eq!(v, e.value.clone()),
                (EntryKind::Delete, Lookup::Tombstone) => {}
                (k, got) => prop_assert!(false, "key {:?}: kind {:?} got {:?}", e.key, k, got),
            }
        }
        // And iteration reproduces the input exactly.
        let out: Vec<Entry> = table.iter().collect();
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn merge_dedup_equals_model(
        runs in prop::collection::vec(
            prop::collection::vec((key_strategy(), prop::collection::vec(any::<u8>(), 0..16)), 0..60),
            1..5
        )
    ) {
        // Assign globally unique seqs across runs, then build per-run sorted
        // entry lists.
        let mut seq = 0u64;
        let mut model: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
        let mut sources: Vec<Vec<Entry>> = Vec::new();
        for run in &runs {
            let mut entries: Vec<Entry> = run
                .iter()
                .map(|(k, v)| {
                    seq += 1;
                    let newest = model.get(k).map(|(s, _)| *s < seq).unwrap_or(true);
                    if newest {
                        model.insert(k.clone(), (seq, v.clone()));
                    }
                    Entry { key: k.clone(), meta: pack_meta(seq, EntryKind::Put), value: v.clone() }
                })
                .collect();
            entries.sort_by(|a, b| internal_cmp(&a.key, a.meta, &b.key, b.meta));
            sources.push(entries);
        }
        let merged = MergeIter::new(sources.into_iter().map(|s| s.into_iter()).collect());
        let deduped = dedup_newest(merged, false);
        prop_assert_eq!(deduped.len(), model.len());
        for e in &deduped {
            let (seq, value) = &model[&e.key];
            prop_assert_eq!(e.seq(), *seq, "kept the newest version");
            prop_assert_eq!(&e.value, value);
        }
    }

    #[test]
    fn bloom_never_false_negative(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 1..32), 1..300),
        bits in 4usize..16,
    ) {
        let keys: Vec<Vec<u8>> = keys.into_iter().collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), bits);
        for k in &keys {
            prop_assert!(bloom.may_contain(k));
        }
        let decoded = Bloom::decode(&bloom.encode()).unwrap();
        for k in &keys {
            prop_assert!(decoded.may_contain(k), "decode preserved membership");
        }
    }
}
