//! Extension beyond the paper: per-operation latency percentiles.
//!
//! The paper reports throughput only; this profile shows *why* — CacheKV's
//! lock-free, flush-free write path has a flat latency distribution while
//! the baselines' p99 balloons with MemTable rotations and per-write
//! flushes.

use cachekv_bench::{banner, build, row, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ops_with_latency, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);

    banner(
        "Latency profile",
        &format!(
            "per-op write/read latency (µs), 1 thread, {} ops",
            scale.ops
        ),
    );
    row(
        "system",
        &[
            "w p50".into(),
            "w p99".into(),
            "w mean".into(),
            "r p50".into(),
            "r p99".into(),
        ],
    );
    for kind in SystemKind::comparison_set() {
        let inst = build(kind, &scale);
        let (_, wlat) = run_ops_with_latency(
            &inst.store,
            DbBench::FillRandom,
            scale.keyspace,
            scale.ops,
            1,
            &key,
            &value,
        );
        fill(&inst.store, scale.keyspace, &key, &value);
        let (_, rlat) = run_ops_with_latency(
            &inst.store,
            DbBench::ReadRandom,
            scale.keyspace,
            scale.ops / 2,
            1,
            &key,
            &value,
        );
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        row(
            kind.name(),
            &[
                us(wlat.p50()),
                us(wlat.p99()),
                us(wlat.mean()),
                us(rlat.p50()),
                us(rlat.p99()),
            ],
        );
    }
}
