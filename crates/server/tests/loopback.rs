//! End-to-end service tests over the in-process loopback transport (plus a
//! TCP smoke test): CRUD, batches, pipelining, stats, multi-threaded races,
//! shutdown draining, and the workload drivers running against
//! [`RemoteStore`]. Backpressure is covered once for both transports in
//! `event_transport.rs`.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use cachekv_server::{
    BatchOp, BatchReply, KvClient, KvServer, LoopbackTransport, RemoteStore, Request, Response,
    ServerConfig, TcpTransport,
};
use cachekv_workloads::{fill, run_ops, run_ycsb, DbBench, KeyGen, ValueGen, YcsbWorkload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One CacheKV engine on its own simulated device + hierarchy (shards must
/// not share a device: each store owns the whole PMEM layout).
fn engine_shard() -> Arc<dyn KvStore> {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
    Arc::new(CacheKv::create(hier, CacheKvConfig::test_small()))
}

fn start_loopback(shards: usize, cfg: ServerConfig) -> (KvServer, Arc<LoopbackTransport>) {
    let transport = LoopbackTransport::new();
    let stores = (0..shards).map(|_| engine_shard()).collect();
    let server = KvServer::start(stores, transport.clone(), cfg);
    (server, transport)
}

fn client(transport: &Arc<LoopbackTransport>) -> KvClient {
    KvClient::connect(transport.connect().expect("loopback dial"))
}

#[test]
fn crud_roundtrip_over_loopback() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let c = client(&transport);

    assert_eq!(c.get(b"missing").unwrap(), None);
    c.put(b"alpha", b"1").unwrap();
    c.put(b"beta", b"2").unwrap();
    assert_eq!(c.get(b"alpha").unwrap(), Some(b"1".to_vec()));
    assert_eq!(c.get(b"beta").unwrap(), Some(b"2".to_vec()));
    c.put(b"alpha", b"updated").unwrap();
    assert_eq!(c.get(b"alpha").unwrap(), Some(b"updated".to_vec()));
    c.delete(b"alpha").unwrap();
    assert_eq!(c.get(b"alpha").unwrap(), None);
    assert_eq!(c.get(b"beta").unwrap(), Some(b"2".to_vec()));
    c.ping(false).unwrap();
    c.ping(true).unwrap(); // drains queues + quiesces every shard

    let obs = server.obs();
    assert_eq!(obs.puts.get(), 3);
    assert_eq!(obs.deletes.get(), 1);
    assert_eq!(obs.gets.get(), 6);
    assert!(obs.group_commits.get() >= 1);
    c.close();
    server.shutdown();
}

#[test]
fn batch_spans_shards_and_sees_own_writes() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let c = client(&transport);

    // Enough keys to hit both shards with near-certainty; each batch GET
    // follows the PUT of the same key, so it must observe it (per-shard
    // submission order is preserved through the queue).
    let mut ops = Vec::new();
    for i in 0..32u32 {
        let k = format!("batch-key-{i}").into_bytes();
        ops.push(BatchOp::Put {
            key: k.clone(),
            value: format!("v{i}").into_bytes(),
        });
        ops.push(BatchOp::Get { key: k });
    }
    ops.push(BatchOp::Get {
        key: b"batch-absent".to_vec(),
    });
    let replies = c.batch(ops).unwrap();
    assert_eq!(replies.len(), 65);
    for i in 0..32usize {
        assert!(matches!(replies[2 * i], BatchReply::Ok), "put {i}");
        match &replies[2 * i + 1] {
            BatchReply::Value(v) => assert_eq!(v, format!("v{i}").as_bytes()),
            other => panic!("get {i} returned {other:?}"),
        }
    }
    assert!(matches!(replies[64], BatchReply::NotFound));

    // Empty batch is a no-op, not an error.
    assert_eq!(c.batch(Vec::new()).unwrap().len(), 0);
    c.close();
    server.shutdown();
}

#[test]
fn pipelined_puts_share_group_commits() {
    let (server, transport) = start_loopback(1, ServerConfig::default());
    let c = client(&transport);

    // Issue 200 puts without waiting, then collect the acks: the committer
    // drains whatever accumulated, so in-flight requests get folded into
    // shared commit rounds.
    let pendings: Vec<_> = (0..200u32)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("p{i}").into_bytes(),
                value: vec![b'x'; 64],
            })
            .unwrap()
        })
        .collect();
    for p in pendings {
        assert!(matches!(p.wait().unwrap(), Response::Ok));
    }
    let obs = server.obs();
    assert_eq!(obs.puts.get(), 200);
    let commits = obs.group_commits.get();
    assert!((1..=200).contains(&commits));
    // Histograms saw every round and every entry.
    let export = obs.registry.export();
    let batch_size = &export.histograms["server.group_commit.batch_size"];
    assert_eq!(batch_size.count, commits);
    assert_eq!(batch_size.sum, 200);
    for i in (0..200u32).step_by(37) {
        assert_eq!(
            c.get(format!("p{i}").as_bytes()).unwrap(),
            Some(vec![b'x'; 64])
        );
    }
    c.close();
    server.shutdown();
}

#[test]
fn stats_document_has_server_and_shard_layers() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let c = client(&transport);
    for i in 0..10u32 {
        c.put(format!("s{i}").as_bytes(), b"v").unwrap();
    }
    let doc = c.stats().unwrap();
    let v = cachekv_obs::Json::parse(&doc).expect("stats doc parses");
    let server_counters = v
        .get("server")
        .and_then(|s| s.get("counters"))
        .and_then(cachekv_obs::Json::as_obj)
        .expect("server.counters");
    assert!(server_counters["server.puts"].as_u64().unwrap() >= 10);
    // Both shard snapshots and the merged snapshot round-trip as full
    // StatsSnapshots (so validate_metrics-style tooling can consume them).
    for label in ["shard0", "shard1"] {
        let snap = v.get("shards").and_then(|s| s.get(label)).expect(label);
        let parsed = cachekv_obs::StatsSnapshot::from_json(snap).expect(label);
        assert_eq!(parsed.system, "CacheKV");
    }
    let merged = v.get("merged").expect("merged snapshot");
    let merged = cachekv_obs::StatsSnapshot::from_json(merged).expect("merged parses");
    assert_eq!(merged.system, "CacheKV-server");
    assert!(merged.memory.counters.contains_key("server.requests"));
    assert!(merged.memory.histograms.contains_key("server.put_ns"));
    c.close();
    server.shutdown();
}

#[test]
fn four_client_threads_race_cleanly() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let c = Arc::new(client(&transport));

    let errors = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let c = c.clone();
            let errors = errors.clone();
            s.spawn(move || {
                for i in 0..150u32 {
                    let key = format!("t{t}-k{i}");
                    if c.put(key.as_bytes(), format!("t{t}-v{i}").as_bytes())
                        .is_err()
                    {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    match c.get(key.as_bytes()) {
                        Ok(Some(v)) if v == format!("t{t}-v{i}").into_bytes() => {}
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    // Every thread's writes are durable and visible afterwards.
    for t in 0..4u32 {
        for i in (0..150u32).step_by(29) {
            assert_eq!(
                c.get(format!("t{t}-k{i}").as_bytes()).unwrap(),
                Some(format!("t{t}-v{i}").into_bytes())
            );
        }
    }
    assert_eq!(server.obs().puts.get(), 600);
    server.shutdown();
}

/// Minimal in-memory store with a tunable per-put stall, for exercising
/// queue backpressure and shutdown draining without engine timing noise.
struct SlowMapStore {
    map: parking_lot::Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    put_delay: Duration,
}

impl SlowMapStore {
    fn new(put_delay: Duration) -> Arc<Self> {
        Arc::new(SlowMapStore {
            map: parking_lot::Mutex::new(HashMap::new()),
            put_delay,
        })
    }
}

impl KvStore for SlowMapStore {
    fn put(&self, key: &[u8], value: &[u8]) -> cachekv_lsm::Result<()> {
        if !self.put_delay.is_zero() {
            std::thread::sleep(self.put_delay);
        }
        self.map.lock().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> cachekv_lsm::Result<Option<Vec<u8>>> {
        Ok(self.map.lock().get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> cachekv_lsm::Result<()> {
        self.map.lock().remove(key);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "slow-map"
    }
}

#[test]
fn shutdown_drains_acked_and_accepted_writes() {
    let store = SlowMapStore::new(Duration::from_millis(1));
    let transport = LoopbackTransport::new();
    let server = KvServer::start(
        vec![store.clone() as Arc<dyn KvStore>],
        transport.clone(),
        ServerConfig {
            group_commit_max: 8,
            ..Default::default()
        },
    );
    let c = client(&transport);
    let pendings: Vec<_> = (0..40u32)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("d{i}").into_bytes(),
                value: b"v".to_vec(),
            })
            .unwrap()
        })
        .collect();
    for p in pendings {
        assert!(matches!(p.wait().unwrap(), Response::Ok));
    }
    server.shutdown();
    // Every acked write survived the drain.
    let map = store.map.lock();
    for i in 0..40u32 {
        assert!(map.contains_key(format!("d{i}").as_bytes()), "d{i} lost");
    }
}

#[test]
fn requests_after_shutdown_fail_cleanly() {
    let (server, transport) = start_loopback(1, ServerConfig::default());
    let c = client(&transport);
    c.put(b"k", b"v").unwrap();
    server.shutdown();
    // The connection was force-closed; the client reports Disconnected
    // rather than hanging.
    assert!(c.put(b"k2", b"v").is_err());
    assert!(
        transport.connect().is_none(),
        "closed transport refuses dials"
    );
}

#[test]
fn tcp_transport_smoke() {
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    let server = KvServer::start(vec![engine_shard()], transport, ServerConfig::default());
    let c = KvClient::connect(TcpTransport::connect(addr).expect("dial"));
    c.put(b"tcp-key", b"tcp-value").unwrap();
    assert_eq!(c.get(b"tcp-key").unwrap(), Some(b"tcp-value".to_vec()));
    let replies = c
        .batch(vec![
            BatchOp::Put {
                key: b"tb".to_vec(),
                value: b"1".to_vec(),
            },
            BatchOp::Get {
                key: b"tb".to_vec(),
            },
        ])
        .unwrap();
    assert!(matches!(&replies[1], BatchReply::Value(v) if v == b"1"));
    c.ping(true).unwrap();
    assert_eq!(server.obs().accepts.get(), 1);
    c.close();
    server.shutdown();
}

#[test]
fn scan_merges_shards_and_pages_match_one_shot() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let c = client(&transport);

    // Populate via batches (keys hash across both shards), then delete a
    // stripe so the wire scan must also suppress tombstones.
    let skey = |i: u32| format!("sk{i:05}").into_bytes();
    let sval = |i: u32| format!("val-{i}").into_bytes();
    let mut expected = std::collections::BTreeMap::new();
    for chunk in (0..300u32).collect::<Vec<_>>().chunks(100) {
        let ops = chunk
            .iter()
            .map(|&i| BatchOp::Put {
                key: skey(i),
                value: sval(i),
            })
            .collect();
        c.batch(ops).unwrap();
    }
    for i in 0..300u32 {
        expected.insert(skey(i), sval(i));
    }
    for i in (0..300u32).step_by(7) {
        c.delete(&skey(i)).unwrap();
        expected.remove(&skey(i));
    }
    let want: Vec<(Vec<u8>, Vec<u8>)> = expected
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    // One-shot unbounded scan: the cross-shard merge in sorted order.
    let (one_shot, more) = c.scan(b"", b"", 10_000, None).unwrap();
    assert!(!more, "300 keys fit one page");
    assert_eq!(one_shot, want, "one-shot scan diverged from the model");

    // Paged with a tiny limit, following continuation cursors: the
    // concatenated pages must be byte-identical to the one-shot scan.
    let mut paged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut resume: Option<Vec<u8>> = None;
    loop {
        let (items, more) = c.scan(b"", b"", 7, resume.as_deref()).unwrap();
        assert!(items.len() <= 7);
        paged.extend(items);
        if !more {
            break;
        }
        resume = Some(paged.last().unwrap().0.clone());
    }
    assert_eq!(paged, one_shot, "paged scan diverged from one-shot");

    // Bounded range with a truncating limit: `more` flags the cut.
    let (bounded, more) = c.scan(&skey(50), &skey(150), 20, None).unwrap();
    let want_bounded: Vec<(Vec<u8>, Vec<u8>)> = expected
        .range(skey(50)..skey(150))
        .take(20)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(bounded, want_bounded);
    assert!(more, "the range holds more than 20 keys");

    // Inverted and empty ranges come back empty, not as errors.
    let (empty, more) = c.scan(&skey(200), &skey(100), 100, None).unwrap();
    assert!(empty.is_empty() && !more);
    // A zero limit is an empty, final page — not an empty page that
    // claims `more` over a range that holds keys.
    let (empty, more) = c.scan(b"", b"", 0, None).unwrap();
    assert!(empty.is_empty() && !more, "limit 0 must not claim more");

    let obs = server.obs();
    assert!(obs.scans.get() >= 3);
    assert!(obs.scan_items.get() >= one_shot.len() as u64);
    c.close();
    server.shutdown();
}

#[test]
fn remote_store_scan_follows_continuations_past_the_page_cap() {
    let (server, transport) = start_loopback(1, ServerConfig::default());
    let c = Arc::new(client(&transport));
    let remote: Arc<dyn KvStore> = Arc::new(RemoteStore::new(c.clone()));

    // More keys than MAX_SCAN_PAGE, so one unbounded RemoteStore scan must
    // transparently follow at least one continuation cursor.
    let n = (cachekv_server::MAX_SCAN_PAGE + 200) as u32;
    let skey = |i: u32| format!("pg{i:06}").into_bytes();
    for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
        let ops = chunk
            .iter()
            .map(|&i| BatchOp::Put {
                key: skey(i),
                value: format!("v{i}").into_bytes(),
            })
            .collect();
        c.batch(ops).unwrap();
    }
    let all = remote.scan(b"", b"", usize::MAX).unwrap();
    assert_eq!(all.len(), n as usize);
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(k, &skey(i as u32), "key {i} out of place");
        assert_eq!(v, format!("v{i}").as_bytes());
    }
    assert!(
        server.obs().scans.get() >= 2,
        "a scan past the page cap must take multiple SCAN requests"
    );
    // A limited scan is the same stream truncated.
    let first = remote.scan(b"", b"", 10).unwrap();
    assert_eq!(first, all[..10]);
    server.shutdown();
}

#[test]
fn workload_drivers_run_against_remote_store() {
    let (server, transport) = start_loopback(2, ServerConfig::default());
    let remote: Arc<dyn KvStore> = Arc::new(RemoteStore::new(Arc::new(client(&transport))));
    let key = KeyGen::paper();
    let val = ValueGen::new(64);

    // db_bench-style fill + read, then a mixed YCSB-A phase, all through
    // the wire. The drivers panic on any op error, so clean completion is
    // the assertion.
    fill(&remote, 400, &key, &val);
    let wr = run_ops(&remote, DbBench::FillRandom, 400, 100, 4, &key, &val);
    assert_eq!(wr.ops, 400);
    let rd = run_ops(&remote, DbBench::ReadRandom, 400, 100, 4, &key, &val);
    assert_eq!(rd.ops, 400);
    let mixed = run_ycsb(&remote, YcsbWorkload::A, 400, 100, 4, &key, &val);
    assert_eq!(mixed.ops, 400);

    // quiesce goes over the wire as PING(sync); snapshot_json yields the
    // merged StatsSnapshot.
    remote.quiesce();
    let snap = remote.snapshot_json().expect("remote snapshot");
    let snap = cachekv_obs::StatsSnapshot::parse(&snap).expect("parses");
    assert_eq!(snap.system, "CacheKV-server");
    assert!(snap.memory.counters["server.requests"] > 0);
    assert!(server.obs().pings.get() >= 1);
    server.shutdown();
}
