//! Run the same mixed workload on every store in the repository and print
//! a one-screen comparison — a quick sanity check that the paper's
//! qualitative ordering holds end to end.
//!
//! ```sh
//! cargo run --release --example store_shootout
//! ```

use cachekv_bench::{build, BenchScale, SystemKind};
use cachekv_workloads::{fill, run_ops, DbBench, KeyGen, ValueGen};

fn main() {
    let scale = BenchScale {
        ops: 15_000,
        keyspace: 15_000,
        ..BenchScale::default()
    };
    let key = KeyGen::paper();
    let value = ValueGen::new(64);

    println!(
        "{:<20} {:>14} {:>14} {:>14}",
        "system", "fill Kops/s", "read Kops/s", "write amp"
    );
    let all = [
        SystemKind::LevelDbLike,
        SystemKind::NoveLsm,
        SystemKind::NoveLsmCache,
        SystemKind::SlmDb,
        SystemKind::SlmDbCache,
        SystemKind::Pcsm,
        SystemKind::PcsmLiu,
        SystemKind::CacheKv,
    ];
    for kind in all {
        let inst = build(kind, &scale);
        inst.hier.reset_stats();
        let w = run_ops(
            &inst.store,
            DbBench::FillRandom,
            scale.keyspace,
            scale.ops,
            1,
            &key,
            &value,
        );
        inst.store.quiesce();
        let amp = inst.hier.pmem_stats().write_amplification();
        // Ensure reads have a full population.
        fill(&inst.store, scale.keyspace, &key, &value);
        let r = run_ops(
            &inst.store,
            DbBench::ReadRandom,
            scale.keyspace,
            scale.ops,
            1,
            &key,
            &value,
        );
        println!(
            "{:<20} {:>14.1} {:>14.1} {:>13.2}x",
            kind.name(),
            w.kops(),
            r.kops(),
            amp
        );
    }
    println!("\nExpected ordering: CacheKV-family fills fastest; reads are comparable.");
}
