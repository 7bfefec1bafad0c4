//! Range-scan throughput: YCSB-E (95% scans / 5% inserts, zipfian start
//! keys, uniform lengths 1..=100) through the wire protocol over the
//! in-process loopback transport, plus a direct-engine scan microbench.
//!
//! Every wire scan pays framing, CRC, the cross-shard fan-out/merge, and
//! paging; the engine rows isolate the merged-cursor cost itself. The
//! artifact carries `core.scan.*` and `server.scan*` instruments that
//! `validate_metrics` checks for scan coverage.

use cachekv_bench::{banner, build, row, BenchScale, Instance, MetricsSink, SystemKind};
use cachekv_lsm::KvStore;
use cachekv_server::{KvClient, KvServer, LoopbackTransport, RemoteStore, ServerConfig};
use cachekv_workloads::{fill, run_ycsb, KeyGen, ValueGen, YcsbWorkload};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const THREADS: usize = 4;

fn main() {
    let scale = BenchScale::default();
    let key = KeyGen::paper();
    let value = ValueGen::new(64);

    banner(
        "Scan",
        &format!(
            "loopback server — {SHARDS} shards, {THREADS} client threads, YCSB-E range scans, {} requests",
            scale.ops
        ),
    );

    let insts: Vec<Instance> = (0..SHARDS)
        .map(|_| build(SystemKind::CacheKv, &scale))
        .collect();
    let stores: Vec<Arc<dyn KvStore>> = insts.iter().map(|i| i.store.clone()).collect();
    let transport = LoopbackTransport::new();
    let server = KvServer::start(stores, transport.clone(), ServerConfig::default());
    let client = Arc::new(KvClient::connect(
        transport.connect().expect("loopback dial"),
    ));
    let remote: Arc<dyn KvStore> = Arc::new(RemoteStore::new(client.clone()));

    fill(&remote, scale.keyspace, &key, &value);

    // A few point reads so the server artifact carries its full latency
    // decomposition (the validator requires get/put histogram samples).
    let mut kbuf = vec![0u8; key.width()];
    for id in 0..32u64.min(scale.keyspace) {
        key.key_into(id, &mut kbuf);
        let _ = client.get(&kbuf).expect("warmup get");
    }

    let ops_per_thread = (scale.ops / THREADS as u64).max(1);
    let m = run_ycsb(
        &remote,
        YcsbWorkload::E,
        scale.keyspace,
        ops_per_thread,
        THREADS,
        &key,
        &value,
    );
    remote.quiesce(); // PING(sync): drain queues, quiesce every shard

    row(
        "YCSB-E over wire",
        &[format!("{:.1} Kops/s", m.kops()), format!("{} ops", m.ops)],
    );
    let export = server.obs().registry.export();
    let h = &export.histograms["server.scan_ns"];
    row(
        "server.scan_ns",
        &[
            format!("p50 {}ns", h.p50()),
            format!("p95 {}ns", h.p95()),
            format!("p99 {}ns", h.p99()),
            format!("n={}", h.count),
        ],
    );
    row(
        "scan volume",
        &[
            format!("{} scans", export.counters["server.scans"]),
            format!("{} items", export.counters["server.scan.items"]),
        ],
    );

    // Direct-engine scan microbench on shard 0: fixed-length scans over
    // the fill population, no wire in the way.
    let engine = &insts[0].store;
    let mut sbuf = vec![0u8; key.width()];
    for len in [10usize, 100] {
        let rounds = 1_000u64;
        let start = Instant::now();
        let mut items = 0usize;
        for i in 0..rounds {
            key.key_into((i * 37) % scale.keyspace, &mut sbuf);
            items += engine.scan(&sbuf, &[], len).expect("engine scan").len();
        }
        let ns = start.elapsed().as_nanos() as u64 / rounds;
        row(
            &format!("engine scan len={len}"),
            &[format!("{ns}ns/scan"), format!("{items} items")],
        );
    }

    let mut sink = MetricsSink::new("fig_scan");
    sink.record_json(
        "CacheKV-server/loopback/ycsb-e",
        &server.merged_snapshot_json(),
    );
    for (i, inst) in insts.iter().enumerate() {
        sink.record(&format!("CacheKV/shard{i}"), inst);
    }
    sink.write();
    server.shutdown();
}
