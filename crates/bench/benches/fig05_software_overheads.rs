//! Ob2 (Figure 5): software overheads once the MemTable rides in the cache.
//!
//! (a) aggregate random-write throughput vs user threads for the six
//!     baseline systems — expected: low (sub-300 Kops/s scale) and
//!     *degrading* with threads (shared-MemTable lock contention);
//! (b) write-latency breakdown of NoveLSM-cache — expected: index update +
//!     MemTable lock dominate (46.3% at 2 threads, 67.0% at 8 in the paper).

use cachekv_baselines::BaselineOptions;
use cachekv_baselines::NoveLsm;
use cachekv_bench::{banner, build, fresh_hierarchy, row, BenchScale, MetricsSink, SystemKind};
use cachekv_lsm::StorageConfig;
use cachekv_workloads::{run_ops, DbBench, KeyGen, ValueGen};
use std::sync::Arc;

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    let threads = [1usize, 2, 4, 8];
    let mut sink = MetricsSink::new("fig05_software_overheads");

    banner(
        "Figure 5(a)",
        &format!(
            "random-write Kops/s vs user threads — 64 B values, {} ops/point",
            scale.ops
        ),
    );
    row(
        "threads",
        &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    for kind in SystemKind::ob1_set() {
        let mut cells = Vec::new();
        for &t in &threads {
            let inst = build(kind, &scale);
            let m = run_ops(
                &inst.store,
                DbBench::FillRandom,
                scale.keyspace,
                scale.ops / t as u64,
                t,
                &key,
                &value,
            );
            cells.push(format!("{:.1}", m.kops()));
            inst.store.quiesce();
            sink.record(&format!("{}/{t}threads", kind.name()), &inst);
        }
        row(kind.name(), &cells);
    }

    banner("Figure 5(b)", "NoveLSM-cache write latency breakdown (%)");
    row(
        "threads",
        &[
            "lock wait".into(),
            "index update".into(),
            "data write".into(),
            "others".into(),
        ],
    );
    for &t in &threads {
        let hier = fresh_hierarchy();
        let db = Arc::new(NoveLsm::new(
            hier,
            BaselineOptions::cache().with_memtable_bytes(scale.memtable_bytes),
            StorageConfig::default(),
        ));
        let store: Arc<dyn cachekv_lsm::KvStore> = db.clone();
        run_ops(
            &store,
            DbBench::FillRandom,
            scale.keyspace,
            scale.ops / t as u64,
            t,
            &key,
            &value,
        );
        if let Some(json) = store.snapshot_json() {
            sink.record_json(&format!("NoveLSM-cache/breakdown/{t}threads"), &json);
        }
        let (l, i, d, o) = db.breakdown().snapshot().fractions();
        row(
            &format!("{t} threads"),
            &[
                format!("{:.1}", l * 100.0),
                format!("{:.1}", i * 100.0),
                format!("{:.1}", d * 100.0),
                format!("{:.1}", o * 100.0),
            ],
        );
    }
    sink.write();
}
