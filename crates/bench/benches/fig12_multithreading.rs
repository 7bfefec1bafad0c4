//! Exp#3 (Figure 12): throughput vs user threads, 16 B keys / 64 B values.
//!
//! (a) random reads — expected: CacheKV leads (DRAM indexes), SLM-DB last;
//! (b) random writes — expected: CacheKV *scales* with threads (peaking,
//!     then flattening once background flushing becomes the bottleneck)
//!     while every baseline *degrades* (shared-MemTable contention).

use cachekv_bench::{banner, build, row, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ops, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    // Simulated cores, not host cores: the full paper sweep always runs.
    // On a small host the threads timeshare, which flattens absolute
    // scaling but preserves the contention contrast between systems.
    let threads: Vec<usize> = vec![4, 8, 12, 16, 20, 24];

    banner(
        "Figure 12(a)",
        &format!(
            "random-read Kops/s vs user threads ({} reads/point)",
            scale.ops
        ),
    );
    row(
        "threads",
        &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    for kind in SystemKind::comparison_set() {
        let mut cells = Vec::new();
        for &t in &threads {
            let inst = build(kind, &scale);
            fill(&inst.store, scale.keyspace, &key, &value);
            let m = run_ops(
                &inst.store,
                DbBench::ReadRandom,
                scale.keyspace,
                scale.ops / t as u64,
                t,
                &key,
                &value,
            );
            cells.push(format!("{:.1}", m.kops()));
        }
        row(kind.name(), &cells);
    }

    banner(
        "Figure 12(b)",
        &format!(
            "random-write Kops/s vs user threads ({} writes/point)",
            scale.ops
        ),
    );
    row(
        "threads",
        &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    for kind in SystemKind::comparison_set() {
        let mut cells = Vec::new();
        for &t in &threads {
            // CacheKV gets 4 flush threads here, as multi-thread writes
            // shift the bottleneck to flushing (paper text for Exp#3/#5).
            let inst = cachekv_bench::build_with(kind, &scale, 4);
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
        }
        row(kind.name(), &cells);
    }
}
