//! Service-layer crash sweep: kill a shard mid-group-commit and prove the
//! ack contract.
//!
//! A server acks a write only after its group-commit round is fully
//! applied; under eADR, applied means persisted. So for any crash point:
//! every write acked over the wire *before* the fault tripped must be
//! present after recovery, the one possibly-in-flight write per client
//! thread may go either way, and writes never submitted must not exist.
//!
//! The sweep installs `FaultPlan::at(k)` on shard 0's device (shard 1 runs
//! fault-free and is power-failed at the end), drives 4 client threads
//! through the loopback transport, recovers both shards from their
//! surviving media, restarts the server on the recovered stores, and
//! verifies every committed key back over the wire.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{FaultPlan, LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use cachekv_server::{HotCacheConfig, KvClient, KvServer, LoopbackTransport, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SHARDS: usize = 2;
const WRITERS: usize = 4;
const PER_WRITER: usize = 200;

fn engine_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 24 << 10,
        ..CacheKvConfig::test_small()
    }
}

fn device() -> Arc<PmemDevice> {
    Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled()
            .with_domain(PersistDomain::Eadr)
            .with_latency(LatencyConfig::zero()),
    ))
}

fn server_cfg(cache: &HotCacheConfig) -> ServerConfig {
    // A small commit cap keeps many distinct group-commit rounds in the
    // event stream, so the sweep lands inside rounds, not between them.
    ServerConfig {
        group_commit_max: 8,
        cache: cache.clone(),
        ..Default::default()
    }
}

fn key(tid: usize, i: usize) -> Vec<u8> {
    format!("w{tid}-{i:05}").into_bytes()
}

fn value(tid: usize, i: usize) -> Vec<u8> {
    format!("v{tid}-{i:05}-{}", "d".repeat(48)).into_bytes()
}

struct TestShard {
    dev: Arc<PmemDevice>,
    hier: Arc<Hierarchy>,
}

fn build_shards(plan0: FaultPlan) -> (Vec<TestShard>, Vec<Arc<dyn KvStore>>) {
    let mut shards = Vec::new();
    let mut stores: Vec<Arc<dyn KvStore>> = Vec::new();
    for s in 0..SHARDS {
        let dev = device();
        if s == 0 {
            dev.install_fault_plan(plan0.clone());
        }
        let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()));
        stores.push(Arc::new(CacheKv::create(hier.clone(), engine_cfg())));
        shards.push(TestShard { dev, hier });
    }
    (shards, stores)
}

/// Drive `WRITERS` threads over one shared pipelined client; each returns
/// its committed watermark: puts `0..count` were acked while shard 0's
/// fault had not yet tripped, so the ack contract says they are durable.
/// With `readers`, two extra threads interleave GETs on already-written
/// keys for the whole run, so the hot cache is filling and invalidating
/// while group commits land and while the fault trips — any value they
/// see must be exact (keys are write-once here).
fn run_clients(client: &Arc<KvClient>, dev0: &Arc<PmemDevice>, readers: bool) -> Vec<usize> {
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        if readers {
            for r in 0..2usize {
                let client = client.clone();
                let writers_done = &writers_done;
                s.spawn(move || {
                    let mut i = 0usize;
                    while !writers_done.load(Ordering::Acquire) {
                        let tid = (r + i) % WRITERS;
                        let idx = i % PER_WRITER;
                        match client.get(&key(tid, idx)) {
                            // Not-yet-written or in-flight: fine. Present:
                            // must be the exact committed bytes — a stale
                            // or torn cached value fails here.
                            Ok(None) => {}
                            Ok(Some(v)) => assert_eq!(
                                v,
                                value(tid, idx),
                                "mid-traffic GET returned wrong bytes for writer {tid} put {idx}"
                            ),
                            // The shard may error after its device tripped.
                            Err(_) => break,
                        }
                        i += 1;
                    }
                });
            }
        }
        let handles: Vec<_> = (0..WRITERS)
            .map(|tid| {
                let client = client.clone();
                let dev0 = dev0.clone();
                s.spawn(move || {
                    let mut committed = 0;
                    for i in 0..PER_WRITER {
                        if dev0.fault_tripped() {
                            break;
                        }
                        let r = client.put(&key(tid, i), &value(tid, i));
                        if dev0.fault_tripped() {
                            break; // ack raced the trip: in-flight
                        }
                        r.expect("put acked before any crash");
                        committed = i + 1;
                    }
                    committed
                })
            })
            .collect();
        let watermarks = handles.into_iter().map(|h| h.join().unwrap()).collect();
        writers_done.store(true, Ordering::Release);
        watermarks
    })
}

/// The full mid-commit crash sweep, parametrized over the hot-cache
/// configuration. With the cache on (and `readers` interleaving GETs),
/// this additionally proves that cached reads never resurrect unacked
/// writes and that recovery restarts with a cold, consistent cache — the
/// post-crash verification reads run through a fresh cache tier and must
/// match the recovered engines exactly.
fn crash_sweep(cache: HotCacheConfig, readers: bool) {
    // Baseline: count persistence events for this workload shape.
    let total = {
        let (shards, stores) = build_shards(FaultPlan::count_only());
        let transport = LoopbackTransport::new();
        let server = KvServer::start(stores, transport.clone(), server_cfg(&cache));
        let client = Arc::new(KvClient::connect(transport.connect().unwrap()));
        run_clients(&client, &shards[0].dev, readers);
        client.ping(true).unwrap();
        drop(client);
        server.shutdown();
        shards[0].dev.fault_events()
    };
    assert!(total > 0, "workload produced no persistence events");

    let mut tripped_mid_service = 0u32;
    for k in [total / 5, total / 3, total / 2, total * 3 / 4] {
        let (shards, stores) = build_shards(FaultPlan::at(k.max(1)));
        let transport = LoopbackTransport::new();
        let server = KvServer::start(stores, transport.clone(), server_cfg(&cache));
        let client = Arc::new(KvClient::connect(transport.connect().unwrap()));
        let committed = run_clients(&client, &shards[0].dev, readers);
        assert_eq!(
            server.obs().cache_tripwire.get(),
            0,
            "crash at {k}: cache coherence tripwire fired pre-crash"
        );
        // Shutdown drains every accepted submission; acks to the still-open
        // client may keep arriving, which is fine.
        drop(client);
        server.shutdown();

        // Shard 0 died at event k: its surviving media is the trip
        // snapshot. (Event drift can put k past this run's total; then
        // nothing tripped and a clean power failure stands in.)
        let media0 = match shards[0].dev.take_trip_report() {
            Some(rep) => {
                // A writer that broke early saw the trip while still
                // submitting: the crash landed mid-service, during live
                // group commits, not after the workload drained. (The
                // tripping thread is an engine flush/dump thread — the
                // committer's own stores land in CAT-locked cache lines
                // and reach media only through background flushes.)
                if committed.iter().any(|&c| c < PER_WRITER) {
                    tripped_mid_service += 1;
                }
                rep.media
            }
            None => {
                shards[0].dev.clear_fault_plan();
                shards[0].hier.power_fail();
                shards[0].dev.clone_media()
            }
        };
        // Shard 1 never faulted; it loses power at the same moment.
        shards[1].hier.power_fail();
        let media1 = shards[1].dev.clone_media();

        // Recover both shards from their surviving media and restart the
        // server on them (same shard count, so key routing matches).
        let recovered: Vec<Arc<dyn KvStore>> = [media0, media1]
            .into_iter()
            .enumerate()
            .map(|(s, media)| {
                let dev = Arc::new(PmemDevice::from_media(
                    shards[s].dev.config().clone(),
                    media,
                ));
                let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
                Arc::new(CacheKv::recover(hier, engine_cfg()).expect("shard recovery"))
                    as Arc<dyn KvStore>
            })
            .collect();
        let transport = LoopbackTransport::new();
        let server = KvServer::start(recovered, transport.clone(), server_cfg(&cache));
        // The recovered server's cache starts cold: nothing cached from
        // before the crash can exist, so every check below reads the
        // recovered engine (and re-fills the cache from it).
        assert_eq!(server.cache().bytes(), 0, "recovered cache must start cold");
        let client = KvClient::connect(transport.connect().unwrap());

        for (tid, &count) in committed.iter().enumerate() {
            // Every acked-before-trip write is present…
            for i in 0..count {
                assert_eq!(
                    client.get(&key(tid, i)).unwrap(),
                    Some(value(tid, i)),
                    "crash at {k}: writer {tid}'s acked put {i}/{count} lost"
                );
            }
            // …the one possibly-in-flight write went atomically either
            // way…
            if count < PER_WRITER {
                let boundary = client.get(&key(tid, count)).unwrap();
                assert!(
                    boundary.is_none() || boundary == Some(value(tid, count)),
                    "crash at {k}: writer {tid}'s in-flight put corrupted"
                );
            }
            // …and writes never submitted are not falsely durable.
            for i in (count + 1)..PER_WRITER {
                assert_eq!(
                    client.get(&key(tid, i)).unwrap(),
                    None,
                    "crash at {k}: writer {tid} put {i} fabricated"
                );
            }
        }
        assert_eq!(
            server.obs().cache_tripwire.get(),
            0,
            "crash at {k}: cache coherence tripwire fired post-recovery"
        );
        client.close();
        server.shutdown();
    }

    // The sweep must actually have interrupted live traffic somewhere,
    // or the recovery checks above proved nothing about group commit.
    assert!(
        tripped_mid_service > 0,
        "no crash point landed while clients were in flight"
    );
}

#[test]
fn acked_writes_survive_shard_crash_mid_group_commit() {
    crash_sweep(HotCacheConfig::disabled(), false);
}

#[test]
fn acked_writes_survive_shard_crash_with_hot_cache() {
    crash_sweep(HotCacheConfig::with_capacity(32 << 20), true);
}
