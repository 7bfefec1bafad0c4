//! Round-shipping replication: protocol semantics, snapshot bootstrap
//! equivalence, torn-stream rejection, promotion, and client failover
//! (including which writes a failing-over client may resend).
//!
//! The acceptance-level crash sweep (kill the primary at every persistence
//! event, promote, verify the ack contract) lives in the workspace-level
//! `tests/repl_failover.rs`; this suite pins the subsystem's individual
//! behaviors deterministically.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use cachekv_server::protocol::read_frame;
use cachekv_server::{
    ClientError, Connector, HotCacheConfig, KvClient, KvServer, LoopbackTransport, ReplMode,
    ReplWrite, Request, Response, ServerConfig, StoreFactory, Transport, HELLO_ADMIN, HELLO_REPL,
    MAX_KV_BYTES,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn engine_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 24 << 10,
        ..CacheKvConfig::test_small()
    }
}

fn device_cfg() -> PmemConfig {
    // The engine's fixed layout puts its table arena after a 17 MiB
    // manifest + flush-log prefix; 96 MiB leaves most of the device
    // unwritten, so a snapshot that ships only the written extent is
    // visibly smaller than one that ships the capacity.
    PmemConfig::paper_scaled()
        .with_total_capacity(96 << 20)
        .with_domain(PersistDomain::Eadr)
        .with_latency(LatencyConfig::zero())
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        group_commit_max: 8,
        cache: HotCacheConfig::disabled(),
        ..Default::default()
    }
}

fn fresh_engines(n: usize) -> Vec<Arc<CacheKv>> {
    (0..n)
        .map(|_| {
            let dev = Arc::new(PmemDevice::new(device_cfg()));
            let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
            Arc::new(CacheKv::create(hier, engine_cfg()))
        })
        .collect()
}

fn fresh_stores(n: usize) -> Vec<Arc<dyn KvStore>> {
    fresh_engines(n)
        .into_iter()
        .map(|kv| kv as Arc<dyn KvStore>)
        .collect()
}

/// Rebuilt follower engines, keyed by shard, for structural inspection.
type RebuiltStash = Arc<Mutex<HashMap<usize, Arc<CacheKv>>>>;

/// A follower store factory that rebuilds each streamed image through
/// `PmemDevice::from_media` + `CacheKv::recover`, stashing the rebuilt
/// engine handles so tests can inspect internal structure (segment
/// fences, bloom fingerprints).
fn recovery_factory() -> (StoreFactory, RebuiltStash) {
    let stash: RebuiltStash = Arc::new(Mutex::new(HashMap::new()));
    let stash2 = stash.clone();
    let factory: StoreFactory = Box::new(move |shard, media| {
        let dev = Arc::new(PmemDevice::from_media(device_cfg(), media));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        let kv = Arc::new(CacheKv::recover(hier, engine_cfg()).map_err(|e| e.to_string())?);
        stash2.lock().unwrap().insert(shard, kv.clone());
        Ok(kv as Arc<dyn KvStore>)
    });
    (factory, stash)
}

struct Pair {
    primary: KvServer,
    follower: KvServer,
    primary_transport: Arc<LoopbackTransport>,
    follower_transport: Arc<LoopbackTransport>,
    rebuilt: RebuiltStash,
}

/// Stand up a follower and a primary replicating into it over a second
/// loopback connection.
fn start_pair(primary_stores: Vec<Arc<dyn KvStore>>, mode: ReplMode) -> Pair {
    let follower_transport = LoopbackTransport::new();
    let (factory, rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        follower_transport.clone(),
        server_cfg(),
        factory,
    );
    let repl_conn = follower_transport.connect().expect("repl link");
    let primary_transport = LoopbackTransport::new();
    let primary = KvServer::start_replicated(
        primary_stores,
        primary_transport.clone(),
        server_cfg(),
        repl_conn,
        mode,
    );
    Pair {
        primary,
        follower,
        primary_transport,
        follower_transport,
        rebuilt,
    }
}

/// Find a key with the given tag that hash-routes to `shard` — the
/// manual-round tests ship frames to one shard and must probe keys the
/// GET path routes to that same shard.
fn key_routed_to(shard: usize, tag: &str) -> Vec<u8> {
    (0..10_000u32)
        .map(|n| format!("{tag}-{n}").into_bytes())
        .find(|k| cachekv_server::shard_for_key(k, SHARDS) == shard)
        .expect("routable key")
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Register `client`'s connection as the follower's one replication link
/// (HELLO repl). Retries briefly: a predecessor's registration is only
/// released once the server-side reader observes that connection's EOF.
fn register_repl(client: &KvClient) {
    let start = Instant::now();
    loop {
        match client
            .submit(&Request::Hello { role: HELLO_REPL })
            .unwrap()
            .wait()
            .unwrap()
        {
            Response::Ok => return,
            Response::Err(e) if e.contains("already registered") => {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "repl link never freed: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("hello(repl) failed: {other:?}"),
        }
    }
}

#[test]
fn sync_mode_acked_writes_are_readable_on_follower_immediately() {
    let pair = start_pair(fresh_stores(SHARDS), ReplMode::Sync);
    let client = KvClient::connect(pair.primary_transport.connect().unwrap());
    let fclient = KvClient::connect(pair.follower_transport.connect().unwrap());

    for i in 0..100u32 {
        let k = format!("sync-{i:03}").into_bytes();
        let v = format!("value-{i:03}").into_bytes();
        client.put(&k, &v).expect("put acked");
        // Quorum ack: the instant the primary acks, the follower has
        // applied — no quiesce, no sleep.
        assert_eq!(
            fclient.get(&k).expect("follower get"),
            Some(v),
            "acked write {i} not on follower"
        );
    }
    client.delete(b"sync-000").expect("delete acked");
    assert_eq!(
        fclient.get(b"sync-000").unwrap(),
        None,
        "delete not shipped"
    );

    assert!(pair.primary.obs().repl_rounds_shipped.get() > 0);
    assert!(pair.primary.obs().repl_quorum_acks.get() > 0);
    assert!(pair.follower.obs().repl_rounds_applied.get() > 0);
    assert_eq!(pair.primary.obs().repl_tripwire.get(), 0);
    assert_eq!(pair.follower.obs().repl_tripwire.get(), 0);
    assert_eq!(pair.primary.obs().repl_link_failures.get(), 0);

    // The stats document reports the replication section on both sides.
    let doc = client.stats().unwrap();
    assert!(
        doc.contains("\"repl\""),
        "stats document missing repl section"
    );
    assert!(doc.contains("\"role\":\"primary\""), "primary role missing");
    let fdoc = fclient.stats().unwrap();
    assert!(
        fdoc.contains("\"role\":\"follower\""),
        "follower role missing"
    );

    client.close();
    fclient.close();
    pair.primary.shutdown();
    pair.follower.shutdown();
}

#[test]
fn async_mode_ships_the_same_log_and_drains_lag() {
    let pair = start_pair(fresh_stores(SHARDS), ReplMode::Async);
    let client = KvClient::connect(pair.primary_transport.connect().unwrap());

    for i in 0..200u32 {
        let k = format!("async-{i:03}").into_bytes();
        client
            .put(&k, format!("v{i}").as_bytes())
            .expect("put acked");
    }
    // Async acks don't wait for the follower; the shipper catches up on
    // its own. Wait for the lag to drain, then verify the follower state.
    // "Drained" includes an empty backlog: bootstrap advances `acked` to
    // the capture point while the rounds enqueued before it still ship.
    let repl = pair
        .primary
        .replicator()
        .expect("primary has replicator")
        .clone();
    wait_until("async lag drain", Duration::from_secs(30), || {
        repl.link_stats()
            .iter()
            .all(|(enq, acked, backlog, live)| *live && enq == acked && *backlog == 0)
    });
    let fclient = KvClient::connect(pair.follower_transport.connect().unwrap());
    for i in 0..200u32 {
        let k = format!("async-{i:03}").into_bytes();
        assert_eq!(
            fclient.get(&k).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "async round {i} not applied after drain"
        );
    }
    assert_eq!(pair.primary.obs().repl_lag_rounds.get(), 0);
    assert_eq!(pair.primary.obs().repl_lag_bytes.get(), 0);
    assert_eq!(pair.follower.obs().repl_tripwire.get(), 0);

    client.close();
    fclient.close();
    pair.primary.shutdown();
    pair.follower.shutdown();
}

#[test]
fn bootstrap_rebuilds_the_primary_image_exactly() {
    // Pre-fill the primary stores *before* replication exists, with
    // enough data to force L0 dumps (global-index segments).
    let engines = fresh_engines(SHARDS);
    let stores: Vec<Arc<dyn KvStore>> = engines
        .iter()
        .map(|kv| kv.clone() as Arc<dyn KvStore>)
        .collect();
    for i in 0..600u32 {
        let k = format!("boot-{i:05}").into_bytes();
        let v = format!("val-{i:05}-{}", "x".repeat(64)).into_bytes();
        let s = cachekv_server::shard_for_key(&k, SHARDS);
        engines[s].put(&k, &v).unwrap();
    }
    for e in &engines {
        e.quiesce();
    }

    let pair = start_pair(stores, ReplMode::Sync);
    // Bootstrap runs on the shipper thread; wait for both links live.
    let repl = pair.primary.replicator().unwrap().clone();
    wait_until("bootstrap", Duration::from_secs(60), || {
        repl.link_stats().iter().all(|(_, _, _, live)| *live)
    });
    // The stream carried each DIMM's written extent, not its capacity:
    // the quiesced primaries re-capture the same trimmed images.
    let shard_capacity = device_cfg().total_capacity();
    let mut extents = 0;
    for (shard, e) in engines.iter().enumerate() {
        let extent: usize = e.capture_image().unwrap().iter().map(Vec::len).sum();
        assert!(
            extent < shard_capacity / 4,
            "shard {shard} shipped {extent} of {shard_capacity} bytes"
        );
        extents += extent as u64;
    }
    let shipped = pair.primary.obs().repl_snapshot_bytes.get();
    assert_eq!(shipped, extents, "snapshot bytes != Σ shipped extents");
    assert_eq!(pair.follower.obs().repl_snapshot_bytes.get(), shipped);
    assert!(pair.primary.obs().repl_snap_capture_us.get() > 0);
    assert!(pair.primary.obs().repl_snap_stream_us.get() > 0);
    assert!(pair.follower.obs().repl_snap_install_us.get() > 0);

    // Structural equivalence: the follower's rebuilt engines carry the
    // same global-index segment fences and bloom fingerprints as the
    // primary's quiesced image — recovery rebuilt identical segments
    // from the streamed media.
    let rebuilt = pair.rebuilt.lock().unwrap();
    assert_eq!(rebuilt.len(), SHARDS, "every shard bootstrapped");
    for (shard, follower_kv) in rebuilt.iter() {
        let primary_fences = engines[*shard].segment_fences();
        let follower_fences = follower_kv.segment_fences();
        assert_eq!(
            primary_fences, follower_fences,
            "shard {shard}: segment fences / bloom fingerprints diverge"
        );
    }
    drop(rebuilt);

    // Content equivalence over the wire.
    let fclient = KvClient::connect(pair.follower_transport.connect().unwrap());
    for i in (0..600u32).step_by(7) {
        let k = format!("boot-{i:05}").into_bytes();
        let v = format!("val-{i:05}-{}", "x".repeat(64)).into_bytes();
        assert_eq!(fclient.get(&k).unwrap(), Some(v), "bootstrap lost key {i}");
    }
    fclient.close();
    pair.primary.shutdown();
    pair.follower.shutdown();
}

/// A captured shard image (flattened dimm bytes) plus the key/value
/// pairs it contains.
type Image = (Vec<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>);

/// Build one shard's crash-consistent image directly (the same capture
/// the shipper performs), for tests that speak the SNAP protocol by hand.
fn captured_image(keys: u32) -> Image {
    let dev = Arc::new(PmemDevice::new(device_cfg()));
    let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
    let kv = CacheKv::create(hier, engine_cfg());
    let mut pairs = Vec::new();
    for i in 0..keys {
        let k = format!("snap-{i:04}").into_bytes();
        let v = format!("sv-{i:04}").into_bytes();
        kv.put(&k, &v).unwrap();
        pairs.push((k, v));
    }
    let image = kv.capture_image().expect("CacheKv captures");
    (image, pairs)
}

fn snap_stream_reqs(shard: u32, seq: u64, image: &[Vec<u8>]) -> Vec<Request> {
    let sizes: Vec<u64> = image.iter().map(|d| d.len() as u64).collect();
    let mut flat = Vec::new();
    for d in image {
        flat.extend_from_slice(d);
    }
    let crc = cachekv_storage::crc::crc32c(&flat);
    let mut reqs = vec![Request::SnapBegin {
        shard,
        seq,
        dimm_sizes: sizes,
        crc,
    }];
    let mut offset = 0u64;
    for chunk in flat.chunks(1 << 20) {
        reqs.push(Request::SnapChunk {
            shard,
            offset,
            data: chunk.to_vec(),
        });
        offset += chunk.len() as u64;
    }
    reqs.push(Request::SnapEnd {
        shard,
        total_len: flat.len() as u64,
    });
    reqs
}

fn expect_ok(client: &KvClient, req: &Request) {
    match client.submit(req).unwrap().wait().unwrap() {
        Response::Ok => {}
        other => panic!("expected Ok, got {other:?}"),
    }
}

#[test]
fn torn_bootstrap_is_discarded_never_served() {
    let transport = LoopbackTransport::new();
    let (factory, rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let (image, pairs) = captured_image(300);
    let reqs = snap_stream_reqs(0, 42, &image);
    // The image installs on shard 0; only probe keys the GET path
    // routes there.
    let probes: Vec<&(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .filter(|(k, _)| cachekv_server::shard_for_key(k, SHARDS) == 0)
        .collect();
    assert!(probes.len() > 50, "workload should spread across shards");

    // Primary dies mid-stream: BEGIN + some chunks, then the connection
    // drops. Nothing may be installed.
    {
        let dying = KvClient::connect(transport.connect().unwrap());
        register_repl(&dying);
        for req in reqs.iter().take(reqs.len() - 1) {
            expect_ok(&dying, req);
        }
        dying.close(); // simulated primary crash before SNAP_END
    }
    let probe = KvClient::connect(transport.connect().unwrap());
    assert!(
        rebuilt.lock().unwrap().is_empty(),
        "torn stream installed a store"
    );
    assert_eq!(
        probe.get(&probes[0].0).unwrap(),
        None,
        "follower served data from a torn bootstrap"
    );

    // A corrupted image (CRC mismatch at SNAP_END) is also discarded.
    {
        let bad = KvClient::connect(transport.connect().unwrap());
        register_repl(&bad);
        let mut corrupt = image.clone();
        corrupt[0][0] ^= 0xFF;
        let bad_reqs = {
            // CRC computed over the *original* image, stream ships the
            // corrupted bytes: END must reject.
            let mut reqs = snap_stream_reqs(0, 42, &image);
            let n = reqs.len();
            for req in reqs[1..n - 1].iter_mut() {
                if let Request::SnapChunk { offset, data, .. } = req {
                    let off = *offset as usize;
                    let mut flat = Vec::new();
                    for d in &corrupt {
                        flat.extend_from_slice(d);
                    }
                    *data = flat[off..off + data.len()].to_vec();
                }
            }
            reqs
        };
        let n = bad_reqs.len();
        for req in &bad_reqs[..n - 1] {
            expect_ok(&bad, req);
        }
        match bad.submit(&bad_reqs[n - 1]).unwrap().wait().unwrap() {
            Response::Err(e) => assert!(e.contains("CRC"), "wrong rejection: {e}"),
            other => panic!("corrupt snapshot accepted: {other:?}"),
        }
        bad.close();
    }
    assert!(
        rebuilt.lock().unwrap().is_empty(),
        "corrupt stream installed a store"
    );
    assert_eq!(probe.get(&probes[0].0).unwrap(), None);

    // The full, correct replay then completes and serves.
    let good = KvClient::connect(transport.connect().unwrap());
    register_repl(&good);
    for req in &reqs {
        expect_ok(&good, req);
    }
    assert_eq!(
        rebuilt.lock().unwrap().len(),
        1,
        "replayed stream did not install"
    );
    for (k, v) in probes.iter().map(|p| (&p.0, &p.1)).step_by(13) {
        assert_eq!(
            probe.get(k).unwrap().as_ref(),
            Some(v),
            "bootstrapped key missing after replay"
        );
    }
    assert_eq!(follower.obs().repl_tripwire.get(), 0);
    good.close();
    probe.close();
    follower.shutdown();
}

#[test]
fn image_the_factory_cannot_rebuild_fails_the_snapshot_not_the_io_thread() {
    let transport = LoopbackTransport::new();
    let (factory, rebuilt) = recovery_factory();
    // One I/O thread serves every connection: if the factory's panic took
    // it down, nothing would answer again.
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        ServerConfig {
            io_threads: 1,
            ..server_cfg()
        },
        factory,
    );
    let (image, pairs) = captured_image(100);
    let link = KvClient::connect(transport.connect().unwrap());
    register_repl(&link);

    // A well-formed stream (length and CRC check out) of 3 of the 4 DIMM
    // images: `PmemDevice::from_media` panics inside the factory.
    let reqs = snap_stream_reqs(0, 9, &image[..image.len() - 1]);
    let n = reqs.len();
    for req in &reqs[..n - 1] {
        expect_ok(&link, req);
    }
    match link.submit(&reqs[n - 1]).unwrap().wait() {
        Ok(Response::Err(e)) => assert!(
            e.contains("snapshot rebuild failed") && e.contains("DIMM count"),
            "wrong rejection: {e}"
        ),
        other => panic!("unusable image not refused with an error: {other:?}"),
    }
    assert!(rebuilt.lock().unwrap().is_empty(), "bad image installed");

    // The follower still serves: a fresh connection is answered, nothing
    // from the bad image is visible, and the link can bootstrap properly.
    let probe = KvClient::connect(transport.connect().unwrap());
    probe
        .ping(false)
        .expect("follower answers after a failed rebuild");
    let (k, v) = pairs
        .iter()
        .find(|(k, _)| cachekv_server::shard_for_key(k, SHARDS) == 0)
        .unwrap();
    assert_eq!(probe.get(k).unwrap(), None);
    for req in snap_stream_reqs(0, 9, &image) {
        expect_ok(&link, &req);
    }
    assert_eq!(probe.get(k).unwrap().as_ref(), Some(v));
    assert_eq!(follower.obs().repl_tripwire.get(), 0);
    link.close();
    probe.close();
    follower.shutdown();
}

#[test]
fn round_ordering_duplicates_ack_gaps_trip() {
    let transport = LoopbackTransport::new();
    let (factory, _rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let link = KvClient::connect(transport.connect().unwrap());
    register_repl(&link);

    let k1 = key_routed_to(0, "r1");
    let k2 = key_routed_to(0, "r2");
    let k5 = key_routed_to(0, "r5");
    let round = |seq: u64, key: &[u8]| Request::ReplRound {
        shard: 0,
        seq,
        frag: 0,
        last: true,
        writes: vec![ReplWrite::Put {
            key: key.to_vec(),
            value: b"v".to_vec(),
        }],
    };
    expect_ok(&link, &round(1, &k1));
    expect_ok(&link, &round(2, &k2));
    // Duplicate (pre-bootstrap backlog replay): idempotent Ok, no
    // re-apply, no tripwire.
    expect_ok(&link, &round(1, &k1));
    assert_eq!(follower.obs().repl_tripwire.get(), 0);
    // A gap is an invariant violation: rejected and counted.
    match link.submit(&round(5, &k5)).unwrap().wait().unwrap() {
        Response::Err(e) => assert!(e.contains("gap"), "wrong gap error: {e}"),
        other => panic!("gapped round accepted: {other:?}"),
    }
    assert_eq!(follower.obs().repl_tripwire.get(), 1);
    // The follower state holds the applied prefix only.
    let probe = KvClient::connect(transport.connect().unwrap());
    assert_eq!(probe.get(&k1).unwrap(), Some(b"v".to_vec()));
    assert_eq!(probe.get(&k2).unwrap(), Some(b"v".to_vec()));
    assert_eq!(probe.get(&k5).unwrap(), None, "gapped round fabricated");

    link.close();
    probe.close();
    follower.shutdown();
}

/// One gate for every replication frame: on the registered link, each of
/// REPL_ROUND, SNAP_BEGIN, SNAP_CHUNK and SNAP_END naming a shard this
/// follower lacks is refused and counted as a tripwire, and the follower
/// keeps serving.
#[test]
fn unknown_shard_trips_every_replication_frame_kind() {
    let transport = LoopbackTransport::new();
    let (factory, rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let link = KvClient::connect(transport.connect().unwrap());
    register_repl(&link);

    let shard = SHARDS as u32;
    let k = key_routed_to(0, "parity");
    let frames = [
        Request::ReplRound {
            shard,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![ReplWrite::Put {
                key: k.clone(),
                value: b"v".to_vec(),
            }],
        },
        Request::SnapBegin {
            shard,
            seq: 1,
            dimm_sizes: vec![64],
            crc: 0,
        },
        Request::SnapChunk {
            shard,
            offset: 0,
            data: vec![0; 64],
        },
        Request::SnapEnd {
            shard,
            total_len: 64,
        },
    ];
    for req in &frames {
        match link.submit(req).unwrap().wait().unwrap() {
            Response::Err(e) => assert!(e.contains("no such shard"), "wrong refusal: {e}"),
            other => panic!("frame for a missing shard accepted: {other:?}"),
        }
    }
    assert_eq!(follower.obs().repl_tripwire.get(), 4);
    assert!(rebuilt.lock().unwrap().is_empty());

    // Still a working follower: GETs answer, and a real shard's round
    // applies on the same link.
    let probe = KvClient::connect(transport.connect().unwrap());
    assert_eq!(probe.get(&k).unwrap(), None);
    expect_ok(
        &link,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![ReplWrite::Put {
                key: k.clone(),
                value: b"v".to_vec(),
            }],
        },
    );
    assert_eq!(probe.get(&k).unwrap(), Some(b"v".to_vec()));

    link.close();
    probe.close();
    follower.shutdown();
}

#[test]
fn promote_flips_role_bumps_epoch_and_enables_writes() {
    let transport = LoopbackTransport::new();
    let (factory, _rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let client = KvClient::connect(transport.connect().unwrap());

    // Follower role: writes refused with the epoch-bearing error.
    let err = client.put(b"k", b"v").unwrap_err();
    assert!(
        err.to_string().contains("not primary"),
        "follower accepted a write: {err}"
    );
    // Ship one round so promoted state has data to serve.
    let pre = key_routed_to(0, "pre-promote");
    register_repl(&client);
    expect_ok(
        &client,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![ReplWrite::Put {
                key: pre.clone(),
                value: b"pv".to_vec(),
            }],
        },
    );

    client.promote(7).expect("promote");
    assert!(!follower.is_follower());
    assert!(follower.epoch() >= 7, "epoch floor not honored");
    assert_eq!(follower.obs().repl_failovers.get(), 1);

    // Now a primary: writes land, replicated state survives, and late
    // round frames from the dead primary are refused.
    client
        .put(b"k", b"v")
        .expect("promoted server accepts writes");
    assert_eq!(client.get(&pre).unwrap(), Some(b"pv".to_vec()));
    match client
        .submit(&Request::ReplRound {
            shard: 0,
            seq: 2,
            frag: 0,
            last: true,
            writes: vec![],
        })
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Err(e) => assert!(e.contains("not follower"), "wrong refusal: {e}"),
        other => panic!("promoted server accepted a round: {other:?}"),
    }
    client.close();
    follower.shutdown();
}

#[test]
fn ha_client_redirects_to_promoted_follower() {
    let pair = start_pair(fresh_stores(SHARDS), ReplMode::Sync);
    let pt = pair.primary_transport.clone();
    let ft = pair.follower_transport.clone();
    let connectors: Vec<Connector> = vec![
        Box::new(move || pt.connect()),
        Box::new(move || ft.connect()),
    ];
    let ha = KvClient::dial(connectors).expect("dial primary");
    assert_eq!(ha.active_endpoint(), 0);
    for i in 0..50u32 {
        ha.put(format!("ha-{i:02}").as_bytes(), b"v1")
            .expect("put via primary");
    }

    // The primary dies; the operator promotes the follower.
    pair.primary.shutdown();
    let admin = KvClient::connect(pair.follower_transport.connect().unwrap());
    admin.promote(1).expect("promote");
    admin.close();

    // The same handle keeps working: the next op redirects.
    for i in 0..50u32 {
        assert_eq!(
            ha.get(format!("ha-{i:02}").as_bytes())
                .expect("get after failover"),
            Some(b"v1".to_vec()),
            "acked write lost across failover"
        );
    }
    ha.put(b"post-failover", b"v2")
        .expect("write to promoted follower");
    assert_eq!(ha.active_endpoint(), 1);
    assert_eq!(pair.follower.obs().repl_failovers.get(), 1);
    pair.follower.shutdown();
}

/// A write whose frame reached an endpoint that then died without
/// answering may have been applied there, so the client must surface
/// `Disconnected` instead of resending it to the next endpoint (where a
/// reader could then see it land after later acked writes). The next call
/// fails over.
#[test]
fn unanswered_write_is_not_resent_to_next_endpoint() {
    // Endpoint 0: takes one frame, then hangs up without a reply.
    let fake = LoopbackTransport::new();
    let peer = {
        let fake = fake.clone();
        std::thread::spawn(move || {
            let conn = fake.accept().expect("client dials endpoint 0 first");
            read_frame(&mut &conn.socket)
                .expect("read request")
                .expect("one frame");
            conn.socket.shutdown().expect("hang up");
        })
    };
    let live_transport = LoopbackTransport::new();
    let live = KvServer::start(fresh_stores(SHARDS), live_transport.clone(), server_cfg());
    let (ft, lt) = (fake.clone(), live_transport.clone());
    let connectors: Vec<Connector> = vec![
        Box::new(move || ft.connect()),
        Box::new(move || lt.connect()),
    ];
    let client = KvClient::dial(connectors).expect("dial");
    assert_eq!(client.active_endpoint(), 0);

    assert_eq!(client.put(b"k", b"v"), Err(ClientError::Disconnected));
    peer.join().unwrap();
    let probe = KvClient::connect(live_transport.connect().unwrap());
    assert_eq!(
        probe.get(b"k").unwrap(),
        None,
        "unanswered write was resent to the next endpoint"
    );

    client.put(b"k2", b"v2").expect("next write fails over");
    assert_eq!(client.active_endpoint(), 1);
    assert_eq!(probe.get(b"k2").unwrap(), Some(b"v2".to_vec()));
    assert_eq!(probe.get(b"k").unwrap(), None);
    probe.close();
    client.close();
    live.shutdown();
}

#[test]
fn fragmented_round_reassembles_and_misorder_trips() {
    let transport = LoopbackTransport::new();
    let (factory, _rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let link = KvClient::connect(transport.connect().unwrap());
    register_repl(&link);

    // Round 1 arrives as two fragments sharing seq 1: the write in the
    // first fragment must not be visible until the last lands.
    let ka = key_routed_to(0, "frag-a");
    let kb = key_routed_to(0, "frag-b");
    expect_ok(
        &link,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: false,
            writes: vec![ReplWrite::Put {
                key: ka.clone(),
                value: b"va".to_vec(),
            }],
        },
    );
    let probe = KvClient::connect(transport.connect().unwrap());
    assert_eq!(
        probe.get(&ka).unwrap(),
        None,
        "partial round visible before last fragment"
    );
    expect_ok(
        &link,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 1,
            last: true,
            writes: vec![ReplWrite::Put {
                key: kb.clone(),
                value: b"vb".to_vec(),
            }],
        },
    );
    assert_eq!(probe.get(&ka).unwrap(), Some(b"va".to_vec()));
    assert_eq!(probe.get(&kb).unwrap(), Some(b"vb".to_vec()));
    assert_eq!(follower.obs().repl_rounds_applied.get(), 1);
    assert_eq!(follower.obs().repl_tripwire.get(), 0);

    // A misordered fragment (round 2 opening at frag 3) is an invariant
    // violation: rejected, counted, nothing applied.
    let kc = key_routed_to(0, "frag-c");
    match link
        .submit(&Request::ReplRound {
            shard: 0,
            seq: 2,
            frag: 3,
            last: true,
            writes: vec![ReplWrite::Put {
                key: kc.clone(),
                value: b"vc".to_vec(),
            }],
        })
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Err(e) => assert!(e.contains("fragment"), "wrong misorder error: {e}"),
        other => panic!("misordered fragment accepted: {other:?}"),
    }
    assert_eq!(follower.obs().repl_tripwire.get(), 1);
    assert_eq!(probe.get(&kc).unwrap(), None);

    link.close();
    probe.close();
    follower.shutdown();
}

#[test]
fn oversized_round_ships_fragmented_end_to_end() {
    // An engine config that can hold multi-hundred-KiB values, so one
    // batch (= one group-commit round) can exceed the 4MiB fragment
    // budget and force the shipper down the multi-fragment path.
    let big_engine = || CacheKvConfig {
        pool_bytes: 32 << 20,
        subtable_bytes: 4 << 20,
        min_subtable_bytes: 1 << 20,
        dump_threshold_bytes: 16 << 20,
        hk_backpressure_bytes: 0,
        ..CacheKvConfig::test_small()
    };
    let big_device = || {
        PmemConfig::paper_scaled()
            .with_total_capacity(96 << 20)
            .with_domain(PersistDomain::Eadr)
            .with_latency(LatencyConfig::zero())
    };
    let big_stores = |n: usize| -> Vec<Arc<dyn KvStore>> {
        (0..n)
            .map(|_| {
                let dev = Arc::new(PmemDevice::new(big_device()));
                let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
                Arc::new(CacheKv::create(hier, big_engine())) as Arc<dyn KvStore>
            })
            .collect()
    };

    let follower_transport = LoopbackTransport::new();
    let factory: StoreFactory = Box::new(move |_, media| {
        let dev = Arc::new(PmemDevice::from_media(big_device(), media));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        let kv = Arc::new(CacheKv::recover(hier, big_engine()).map_err(|e| e.to_string())?);
        Ok(kv as Arc<dyn KvStore>)
    });
    let follower = KvServer::start_follower(
        big_stores(SHARDS),
        follower_transport.clone(),
        server_cfg(),
        factory,
    );
    let repl_conn = follower_transport.connect().expect("repl link");
    let primary_transport = LoopbackTransport::new();
    let primary = KvServer::start_replicated(
        big_stores(SHARDS),
        primary_transport.clone(),
        server_cfg(),
        repl_conn,
        ReplMode::Sync,
    );
    let client = KvClient::connect(primary_transport.connect().unwrap());

    // One batch to one shard = one submission = one round: 7 writes of
    // ~800KiB ≈ 5.6MiB, which must split into at least two fragments.
    let keys: Vec<Vec<u8>> = (0..7)
        .map(|i| key_routed_to(0, &format!("big-{i}")))
        .collect();
    let value = vec![0xabu8; 800 << 10];
    let ops: Vec<cachekv_server::BatchOp> = keys
        .iter()
        .map(|k| cachekv_server::BatchOp::Put {
            key: k.clone(),
            value: value.clone(),
        })
        .collect();
    let replies = client.batch(ops).expect("oversized batch acked");
    assert_eq!(replies.len(), 7);

    // Sync mode: the ack above means the follower applied the round —
    // every write of the reassembled round is readable there.
    let fclient = KvClient::connect(follower_transport.connect().unwrap());
    for k in &keys {
        assert_eq!(
            fclient.get(k).unwrap().as_deref(),
            Some(&value[..]),
            "fragmented round write missing on follower"
        );
    }
    assert_eq!(primary.obs().repl_link_failures.get(), 0);
    assert_eq!(follower.obs().repl_tripwire.get(), 0);
    assert!(!primary.replicator().unwrap().is_down(), "link died");

    client.close();
    fclient.close();
    primary.shutdown();
    follower.shutdown();
}

#[test]
fn oversized_put_is_refused_at_admission() {
    let transport = LoopbackTransport::new();
    let server = KvServer::start(fresh_stores(SHARDS), transport.clone(), server_cfg());
    let client = KvClient::connect(transport.connect().unwrap());

    // key + value one byte over the cap: refused before the shard queue,
    // so it can never produce an unshippable replication frame.
    let key = vec![b'k'; 1024];
    let value = vec![b'v'; MAX_KV_BYTES + 1 - key.len()];
    let err = client.put(&key, &value).unwrap_err();
    assert!(
        err.to_string().contains("too large"),
        "wrong refusal: {err}"
    );
    // At the cap exactly: admitted (the engine may still refuse a value
    // this large, but the protocol layer must not).
    let ok_value = vec![b'v'; 100];
    client.put(&key, &ok_value).expect("normal put");
    assert_eq!(client.get(&key).unwrap(), Some(ok_value));
    client.close();
    server.shutdown();
}

#[test]
fn backlog_overflow_declares_link_down_not_oom() {
    // The follower end never responds: connect() hands the server side
    // to a transport nobody serves, so the shipper wedges on its HELLO
    // and the outbound queues only grow.
    let dead_transport = LoopbackTransport::new();
    let repl_conn = dead_transport.connect().expect("dial dead follower");
    let primary_transport = LoopbackTransport::new();
    let primary = KvServer::start_replicated(
        fresh_stores(SHARDS),
        primary_transport.clone(),
        ServerConfig {
            repl_max_backlog_bytes: 4096,
            ..server_cfg()
        },
        repl_conn,
        ReplMode::Async,
    );
    let client = KvClient::connect(primary_transport.connect().unwrap());

    // Async mode keeps acking locally; the backlog crosses the 4KiB cap
    // almost immediately and the link must die rather than queue forever.
    for i in 0..200u32 {
        client
            .put(format!("bk-{i:03}").as_bytes(), &[0u8; 128])
            .expect("async put acks locally");
    }
    let repl = primary.replicator().unwrap().clone();
    wait_until("backlog overflow", Duration::from_secs(10), || {
        repl.is_down()
    });
    assert!(primary.obs().repl_link_failures.get() >= 1);
    // The dropped backlog is freed and not reported as phantom lag.
    assert_eq!(primary.obs().repl_lag_rounds.get(), 0);
    assert_eq!(primary.obs().repl_lag_bytes.get(), 0);
    assert!(
        repl.link_stats()
            .iter()
            .all(|(_, _, backlog, _)| *backlog == 0),
        "backlog not dropped on overflow"
    );
    // Writes keep flowing on the degraded (local-only) path.
    client.put(b"bk-after", b"v").expect("degraded put");
    assert_eq!(client.get(b"bk-after").unwrap(), Some(b"v".to_vec()));

    client.close();
    primary.shutdown();
}

#[test]
fn promote_is_idempotent_on_epoch_and_failovers() {
    let transport = LoopbackTransport::new();
    let (factory, _rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let client = KvClient::connect(transport.connect().unwrap());

    client.promote(7).expect("first promote");
    let epoch_after_first = follower.epoch();
    assert!(epoch_after_first >= 7);
    assert_eq!(follower.obs().repl_failovers.get(), 1);

    // A repeat probe with a lower epoch changes nothing.
    client.promote(3).expect("repeat promote");
    assert_eq!(follower.epoch(), epoch_after_first, "lower epoch bumped");
    assert_eq!(
        follower.obs().repl_failovers.get(),
        1,
        "repeat promote counted as a failover"
    );
    // A repeat with a higher epoch raises the floor, still no failover.
    client.promote(99).expect("epoch-raise promote");
    assert_eq!(follower.epoch(), 99);
    assert_eq!(follower.obs().repl_failovers.get(), 1);

    client.close();
    follower.shutdown();
}

#[test]
fn stray_clients_cannot_replicate_snapshot_or_promote() {
    let transport = LoopbackTransport::new();
    let (factory, rebuilt) = recovery_factory();
    let follower = KvServer::start_follower(
        fresh_stores(SHARDS),
        transport.clone(),
        server_cfg(),
        factory,
    );
    let expect_err = |client: &KvClient, req: &Request, needle: &str| match client
        .submit(req)
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Err(e) => assert!(e.contains(needle), "wrong refusal: {e}"),
        other => panic!("stray frame accepted: {other:?}"),
    };

    // A client that never said HELLO: every replication/control frame is
    // refused — no round injection, no bootstrap discard, no snapshot
    // preallocation, no promotion.
    let stray = KvClient::connect(transport.connect().unwrap());
    let k = key_routed_to(0, "stray");
    expect_err(
        &stray,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![ReplWrite::Put {
                key: k.clone(),
                value: b"evil".to_vec(),
            }],
        },
        "HELLO",
    );
    expect_err(
        &stray,
        &Request::SnapBegin {
            shard: 0,
            seq: 1,
            dimm_sizes: vec![1 << 30],
            crc: 0,
        },
        "HELLO",
    );
    expect_err(&stray, &Request::Promote { epoch: 9 }, "admin");
    assert!(follower.is_follower(), "stray client promoted the follower");
    assert_eq!(follower.obs().repl_failovers.get(), 0);

    // The real link registers; a second HELLO(repl) from another
    // connection is refused while the first holds the registration.
    let link = KvClient::connect(transport.connect().unwrap());
    register_repl(&link);
    match stray
        .submit(&Request::Hello { role: HELLO_REPL })
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Err(e) => assert!(e.contains("already registered"), "wrong refusal: {e}"),
        other => panic!("second repl link accepted: {other:?}"),
    }
    // The registered link works; the stray one still can't interfere.
    expect_ok(
        &link,
        &Request::ReplRound {
            shard: 0,
            seq: 1,
            frag: 0,
            last: true,
            writes: vec![ReplWrite::Put {
                key: k.clone(),
                value: b"good".to_vec(),
            }],
        },
    );
    expect_err(
        &stray,
        &Request::ReplRound {
            shard: 0,
            seq: 2,
            frag: 0,
            last: true,
            writes: vec![],
        },
        "HELLO",
    );
    let probe = KvClient::connect(transport.connect().unwrap());
    assert_eq!(probe.get(&k).unwrap(), Some(b"good".to_vec()));
    assert!(rebuilt.lock().unwrap().is_empty());
    assert_eq!(follower.obs().repl_tripwire.get(), 0);

    // HELLO(admin) on the stray connection unlocks PROMOTE — epoch-gated
    // operator action, not an open opcode.
    match stray
        .submit(&Request::Hello { role: HELLO_ADMIN })
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Ok => {}
        other => panic!("admin hello refused: {other:?}"),
    }
    match stray
        .submit(&Request::Promote { epoch: 2 })
        .unwrap()
        .wait()
        .unwrap()
    {
        Response::Ok => {}
        other => panic!("admin promote refused: {other:?}"),
    }
    assert!(!follower.is_follower());
    assert_eq!(follower.obs().repl_failovers.get(), 1);

    stray.close();
    link.close();
    probe.close();
    follower.shutdown();
}
