//! Exp#2 (Figure 11): read throughput vs value size, plus a mixed-state
//! read profile exercising the contention-free read path.
//!
//! Each store is pre-filled, quiesced, and then read with one thread under
//! three request distributions: sequential, uniform random, and scrambled
//! Zipfian (θ = 0.99). Expected shape: CacheKV roughly matches NoveLSM
//! (within a few percent, ahead of PCSM/PCSM+LIU thanks to sub-skiplist
//! compaction) and clearly beats SLM-DB.
//!
//! Section (d) runs a deliberately small-table configuration so the store
//! quiesces with a populated global skiplist (CacheKV) or a pile of
//! flushed tables (PCSM+LIU), then issues present, absent-in-range, and
//! out-of-range reads. That drives every read-path pruning counter —
//! fence skips, bloom skips, LSM short-circuits — to provably non-zero
//! values in the metrics artifact, which `validate_metrics` checks in CI.

use std::sync::Arc;
use std::time::Instant;

use cachekv_bench::{banner, build, row, BenchScale, MetricsSink, SystemKind};
use cachekv_lsm::KvStore;
use cachekv_workloads::{fill, run_ops, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value_sizes = [16usize, 64, 128, 256];
    let mut sink = MetricsSink::new("fig11_read_throughput");

    for (mode, title, tag) in [
        (DbBench::ReadSeq, "(a) sequential reads", "seq"),
        (DbBench::ReadRandom, "(b) random reads", "random"),
        (DbBench::ReadZipfian, "(c) zipfian reads", "zipfian"),
    ] {
        banner(
            "Figure 11",
            &format!("{title} — Kops/s, 1 thread, {} reads", scale.ops),
        );
        row(
            "value size",
            &value_sizes
                .iter()
                .map(|v| format!("{v} B"))
                .collect::<Vec<_>>(),
        );
        for kind in SystemKind::exp1_set() {
            let mut cells = Vec::new();
            for &vs in &value_sizes {
                let inst = build(kind, &scale);
                let value = ValueGen::new(vs);
                fill(&inst.store, scale.keyspace, &key, &value);
                let m = run_ops(
                    &inst.store,
                    mode,
                    scale.keyspace,
                    scale.ops,
                    1,
                    &key,
                    &value,
                );
                cells.push(format!("{:.1}", m.kops()));
                sink.record(&format!("{}/{tag}/{vs}B", kind.name()), &inst);
            }
            row(kind.name(), &cells);
        }
    }

    mixed_state_section(&scale, &key, &mut sink);
    sink.write();
}

/// Section (d): reads against a store holding every table state at once.
///
/// Tiny sub-MemTables force the fill through seal → flush → (for CacheKV)
/// sub-skiplist compaction, so reads traverse flushed tables and the
/// global skiplist rather than just the active tables. Only even key ids
/// are written: odd ids are absent but inside the key fences (bloom-skip
/// territory), and ids past the keyspace are outside every fence
/// (fence-skip territory). The write volume stays far below the L0 dump
/// threshold, so every present-key read is satisfied in memory at a
/// sequence number newer than anything persisted — the LSM probe
/// short-circuits.
fn mixed_state_section(scale: &BenchScale, key: &KeyGen, sink: &mut MetricsSink) {
    let small = BenchScale {
        pool_bytes: 1 << 20,
        subtable_bytes: 64 << 10,
        ..scale.clone()
    };
    let value = ValueGen::new(64);
    banner(
        "Figure 11",
        &format!(
            "(d) mixed-state reads — Kops/s, 1 thread, {} reads over sealed/flushed/compacted tables",
            small.ops
        ),
    );
    let mix: Vec<String> = ["present", "absent", "out-of-range"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    row("read mix", &mix);
    for kind in [SystemKind::PcsmLiu, SystemKind::CacheKv] {
        let inst = build(kind, &small);
        for id in (0..small.keyspace).step_by(2) {
            inst.store
                .put(&key.key(id), &value.value(id))
                .expect("mixed-state fill");
        }
        inst.store.quiesce();

        let ks = small.keyspace;
        let present = timed_gets(&inst.store, key, ks, (0..ks).step_by(2));
        let absent = timed_gets(&inst.store, key, ks, (1..ks).step_by(2));
        let out_of_range = timed_gets(&inst.store, key, ks, ks..ks + ks / 2);
        row(
            kind.name(),
            &[
                format!("{present:.1}"),
                format!("{absent:.1}"),
                format!("{out_of_range:.1}"),
            ],
        );
        sink.record(&format!("{}/mixed", kind.name()), &inst);
    }
}

/// Issue one get per id, asserting presence expectations, returning Kops/s.
fn timed_gets(
    store: &Arc<dyn KvStore>,
    key: &KeyGen,
    keyspace: u64,
    ids: impl Iterator<Item = u64> + Clone,
) -> f64 {
    let n = ids.clone().count() as u64;
    let t0 = Instant::now();
    for id in ids {
        let hit = store.get(&key.key(id)).expect("mixed-state get");
        let written = id < keyspace && id % 2 == 0;
        assert_eq!(hit.is_some(), written, "key id {id} presence");
    }
    let secs = t0.elapsed().as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        n as f64 / secs / 1e3
    }
}
