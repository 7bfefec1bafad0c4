//! Ablation (beyond the paper's figures): does sub-MemTable elasticity
//! (Section III-A) help under bursty over-subscription?
//!
//! A 4-slot pool serves 12 writer threads. With elasticity armed, misses
//! halve free sub-MemTables, raising slot count and parallelism; with it
//! effectively disabled (astronomical miss threshold), writers serialize on
//! slot turnover.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_bench::{banner, fresh_hierarchy, row, BenchScale};
use cachekv_lsm::KvStore;
use cachekv_workloads::{run_ops, DbBench, KeyGen, ValueGen};
use std::sync::Arc;

fn run(miss_threshold: u64, scale: &BenchScale) -> (f64, usize) {
    let hier = fresh_hierarchy();
    let cfg = CacheKvConfig {
        pool_bytes: 2 << 20,
        subtable_bytes: 512 << 10,
        min_subtable_bytes: 32 << 10,
        flush_threads: 2,
        miss_threshold,
        ..CacheKvConfig::default()
    };
    let db = Arc::new(CacheKv::create(hier, cfg));
    let store: Arc<dyn KvStore> = db.clone();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    let threads = 12;
    let m = run_ops(
        &store,
        DbBench::FillRandom,
        scale.keyspace,
        scale.ops / threads as u64,
        threads,
        &key,
        &value,
    );
    (m.kops(), db.pool().slot_count())
}

fn main() {
    let scale = BenchScale::default();
    banner(
        "Ablation: elasticity",
        &format!("12 writers over a 4-slot pool — {} writes", scale.ops),
    );
    row("config", &["Kops/s".into(), "final slots".into()]);
    let (kops, slots) = run(4, &scale);
    row(
        "elastic (threshold 4)",
        &[format!("{kops:.1}"), slots.to_string()],
    );
    let (kops, slots) = run(u64::MAX, &scale);
    row(
        "rigid (disabled)",
        &[format!("{kops:.1}"), slots.to_string()],
    );
}
