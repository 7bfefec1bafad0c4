//! Ablation (beyond the paper's figures): the lazy-index-update trigger
//! threshold (Section III-B strategy 2) trades write throughput against the
//! index-sync work a read must absorb.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_bench::{banner, fresh_hierarchy, row, BenchScale};
use cachekv_lsm::KvStore;
use cachekv_workloads::{run_ops, DbBench, KeyGen, ValueGen};
use std::sync::Arc;

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);
    banner(
        "Ablation: LIU sync threshold",
        &format!(
            "{} writes then {} reads, 1 thread",
            scale.ops,
            scale.ops / 4
        ),
    );
    row("sync every", &["write Kops/s".into(), "read Kops/s".into()]);
    for sync_every in [1u64, 16, 64, 256, u64::MAX] {
        let hier = fresh_hierarchy();
        let cfg = CacheKvConfig {
            sync_every,
            ..CacheKvConfig::default()
        };
        let db = Arc::new(CacheKv::create(hier, cfg));
        let store: Arc<dyn KvStore> = db.clone();
        let w = run_ops(
            &store,
            DbBench::FillRandom,
            scale.keyspace,
            scale.ops,
            1,
            &key,
            &value,
        );
        let r = run_ops(
            &store,
            DbBench::ReadRandom,
            scale.keyspace,
            scale.ops / 4,
            1,
            &key,
            &value,
        );
        let label = if sync_every == u64::MAX {
            "on-read only".to_string()
        } else {
            sync_every.to_string()
        };
        row(
            &label,
            &[format!("{:.1}", w.kops()), format!("{:.1}", r.kops())],
        );
    }
}
