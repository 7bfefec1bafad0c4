//! Exp#6 (Figure 15): impact of the sub-MemTable size (pool fixed at
//! 12 MiB, sizes 0.25-2 MiB, 12 user threads, 4 flush threads).
//!
//! Expected shape: (a) read throughput *rises* with sub-MemTable size
//! (fewer sub-skiplists to probe); (b) write throughput peaks mid-range
//! (small tables bottleneck on flushing, large tables starve parallelism).

use cachekv_bench::{banner, build_with, row, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ops, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    let sizes_kb = [256usize, 512, 1024, 2048];
    let user_threads = 12usize;
    let flushers = 4usize;

    banner("Figure 15", &format!("CacheKV vs sub-MemTable size — pool 12 MiB, {user_threads} user / {flushers} flush threads"));
    row(
        "sub-MemTable",
        &sizes_kb
            .iter()
            .map(|s| format!("{s} KiB"))
            .collect::<Vec<_>>(),
    );

    let mut read_cells = Vec::new();
    let mut write_cells = Vec::new();
    for &kb in &sizes_kb {
        let mut s = scale.clone();
        s.subtable_bytes = (kb as u64) << 10;
        // (a) random reads over a filled store.
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
        // (b) random writes on a fresh store.
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
