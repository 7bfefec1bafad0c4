//! Exp#4 (Figure 13): YCSB Load/A/B/C/D/F, one thread, 16 B keys / 64 B
//! values.
//!
//! Expected shape: CacheKV ahead everywhere; the gap is largest on the
//! write-dominated YCSB-Load and narrows on the read-dominated B/C/D.

use cachekv_bench::{banner, build, row, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ycsb, KeyGen, ValueGen, YcsbWorkload};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    let workloads = YcsbWorkload::all();

    banner(
        "Figure 13",
        &format!(
            "YCSB throughput (Kops/s) — 1 thread, {} requests/workload",
            scale.ops
        ),
    );
    row(
        "workload",
        &workloads
            .iter()
            .map(|w| w.name().to_string())
            .collect::<Vec<_>>(),
    );
    for kind in SystemKind::comparison_set() {
        let mut cells = Vec::new();
        for w in workloads {
            let inst = build(kind, &scale);
            if w.needs_load_phase() {
                fill(&inst.store, scale.keyspace, &key, &value);
            }
            let m = run_ycsb(&inst.store, w, scale.keyspace, scale.ops, 1, &key, &value);
            cells.push(format!("{:.1}", m.kops()));
        }
        row(kind.name(), &cells);
    }
}
