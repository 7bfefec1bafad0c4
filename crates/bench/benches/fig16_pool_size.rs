//! Exp#7 (Figure 16): impact of the sub-MemTable pool size (sub-MemTable
//! fixed at 1 MiB, pool 3-30 MiB, 12 user threads, 4 flush threads).
//!
//! Expected shape: (a) read throughput *declines* as the pool grows (more
//! sub-skiplists to probe); (b) write throughput climbs then flattens once
//! background flushing, not slot availability, limits it — "CacheKV is
//! also effective when given limited cache space".

use cachekv_bench::{banner, build_with, row, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ops, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    let pools_mb = [3usize, 6, 12, 18, 24, 30];
    let user_threads = 12usize;
    let flushers = 4usize;

    banner("Figure 16", &format!("CacheKV vs pool size — 1 MiB sub-MemTables, {user_threads} user / {flushers} flush threads"));
    row(
        "pool size",
        &pools_mb
            .iter()
            .map(|p| format!("{p} MiB"))
            .collect::<Vec<_>>(),
    );

    let mut read_cells = Vec::new();
    let mut write_cells = Vec::new();
    for &mb in &pools_mb {
        let mut s = scale.clone();
        s.pool_bytes = (mb as u64) << 20;
        s.subtable_bytes = 1 << 20;
        let inst = build_with(SystemKind::CacheKv, &s, flushers);
        fill(&inst.store, s.keyspace, &key, &value);
        let m = run_ops(
            &inst.store,
            DbBench::ReadRandom,
            s.keyspace,
            s.ops / user_threads as u64,
            user_threads,
            &key,
            &value,
        );
        read_cells.push(format!("{:.1}", m.kops()));
        // Median of 3 repetitions: multi-threaded flush scheduling on a
        // small host is noisy.
        let mut reps: Vec<f64> = (0..3)
            .map(|_| {
                let inst = build_with(SystemKind::CacheKv, &s, flushers);
                run_ops(
                    &inst.store,
                    DbBench::FillRandom,
                    s.keyspace,
                    s.ops / user_threads as u64,
                    user_threads,
                    &key,
                    &value,
                )
                .kops()
            })
            .collect();
        reps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        write_cells.push(format!("{:.1}", reps[1]));
    }
    row("(a) random reads", &read_cells);
    row("(b) random writes", &write_cells);
}
