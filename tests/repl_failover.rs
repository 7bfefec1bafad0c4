//! Replication failover crash sweep: kill the primary at persistence
//! events mid-round, promote the follower, and prove the quorum-ack
//! contract *without ever recovering the primary's media*.
//!
//! Under sync replication a write is acked only after its group-commit
//! round is (a) applied on the primary and (b) applied on the follower.
//! So for any primary crash point: every write acked over the wire
//! before the fault tripped must be readable from the *promoted
//! follower*, the one possibly-in-flight write per client thread may go
//! either way, and writes never submitted must not exist — the follower
//! must not fabricate rounds it was never shipped.
//!
//! The sweep first runs a traced baseline (`FaultPlan::count_only()`)
//! to learn the persistence-event stream and its fault-context labels,
//! then replays with `FaultPlan::at(k)` for strided points plus points
//! aimed inside the labelled persistence paths (group commit,
//! copy-flush, L0 dump), so the primary dies inside more than one
//! distinct persistence context.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{FaultPlan, LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use cachekv_server::{
    HotCacheConfig, KvClient, KvServer, LoopbackTransport, ReplMode, ServerConfig, StoreFactory,
};
use std::collections::BTreeSet;
use std::sync::Arc;

const SHARDS: usize = 2;
const WRITERS: usize = 4;
const PER_WRITER: usize = 150;

fn engine_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        // Low enough that this workload forces L0 dumps, so the sweep
        // has persistence events in both the copy-flush and l0-dump
        // fault contexts to aim at.
        dump_threshold_bytes: 12 << 10,
        ..CacheKvConfig::test_small()
    }
}

fn device_cfg() -> PmemConfig {
    // Small media keeps each run's snapshot bootstrap (one flat image
    // per shard over the repl link) cheap across the whole sweep.
    PmemConfig::paper_scaled()
        .with_total_capacity(24 << 20)
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

fn key(tid: usize, i: usize) -> Vec<u8> {
    format!("w{tid}-{i:05}").into_bytes()
}

fn value(tid: usize, i: usize) -> Vec<u8> {
    format!("v{tid}-{i:05}-{}", "d".repeat(48)).into_bytes()
}

fn build_primary(plan0: FaultPlan) -> (Vec<Arc<PmemDevice>>, Vec<Arc<dyn KvStore>>) {
    let mut devs = Vec::new();
    let mut stores: Vec<Arc<dyn KvStore>> = Vec::new();
    for s in 0..SHARDS {
        let dev = Arc::new(PmemDevice::new(device_cfg()));
        if s == 0 {
            dev.install_fault_plan(plan0.clone());
        }
        let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()));
        stores.push(Arc::new(CacheKv::create(hier, engine_cfg())));
        devs.push(dev);
    }
    (devs, stores)
}

fn follower_stores() -> Vec<Arc<dyn KvStore>> {
    (0..SHARDS)
        .map(|_| {
            let dev = Arc::new(PmemDevice::new(device_cfg()));
            let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
            Arc::new(CacheKv::create(hier, engine_cfg())) as Arc<dyn KvStore>
        })
        .collect()
}

fn follower_factory() -> StoreFactory {
    Box::new(|_, media| {
        let dev = Arc::new(PmemDevice::from_media(device_cfg(), media));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        Ok(
            Arc::new(CacheKv::recover(hier, engine_cfg()).map_err(|e| e.to_string())?)
                as Arc<dyn KvStore>,
        )
    })
}

/// Drive `WRITERS` threads over one shared pipelined client; each returns
/// its committed watermark: puts `0..count` were acked while shard 0's
/// fault had not yet tripped. Under sync replication those acks imply the
/// follower applied the rounds, so they must survive promotion.
fn run_clients(client: &Arc<KvClient>, dev0: &Arc<PmemDevice>) -> Vec<usize> {
    std::thread::scope(|s| {
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
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

struct RunOutcome {
    committed: Vec<usize>,
    trip_context: Option<Vec<&'static str>>,
    dev0: Arc<PmemDevice>,
}

/// One primary+follower run with the given fault plan on primary shard 0.
/// Returns the watermarks plus the (still running) follower pair for
/// promotion and verification.
fn run_primary(plan0: FaultPlan) -> (RunOutcome, KvServer, Arc<LoopbackTransport>) {
    let follower_transport = LoopbackTransport::new();
    let follower = KvServer::start_follower(
        follower_stores(),
        follower_transport.clone(),
        server_cfg(),
        follower_factory(),
    );
    let repl_conn = follower_transport.connect().expect("repl link");
    let (devs, stores) = build_primary(plan0);
    let primary_transport = LoopbackTransport::new();
    let primary = KvServer::start_replicated(
        stores,
        primary_transport.clone(),
        server_cfg(),
        repl_conn,
        ReplMode::Sync,
    );
    let client = Arc::new(KvClient::connect(primary_transport.connect().unwrap()));
    let committed = run_clients(&client, &devs[0]);
    drop(client);
    // No replication invariant may have fired on either side, and no ack
    // may have been released in degraded (link-down) mode — every
    // watermarked ack below really was quorum.
    assert_eq!(
        primary.obs().repl_tripwire.get(),
        0,
        "primary repl tripwire"
    );
    assert_eq!(
        primary.obs().repl_link_failures.get(),
        0,
        "repl link died mid-run"
    );
    assert_eq!(
        follower.obs().repl_tripwire.get(),
        0,
        "follower repl tripwire"
    );
    primary.shutdown();
    let trip_context = devs[0].take_trip_report().map(|rep| rep.context);
    (
        RunOutcome {
            committed,
            trip_context,
            dev0: devs[0].clone(),
        },
        follower,
        follower_transport,
    )
}

#[test]
fn acked_writes_survive_primary_crash_and_failover() {
    // Baseline: learn this workload's persistence-event stream and where
    // the labelled persistence paths sit inside it.
    let (total, trace) = {
        let (out, follower, _ft) = run_primary(FaultPlan::count_only().traced());
        assert!(
            out.committed.iter().all(|&c| c == PER_WRITER),
            "baseline run must complete"
        );
        follower.shutdown();
        (out.dev0.fault_events(), out.dev0.take_fault_trace())
    };
    assert!(total > 0, "workload produced no persistence events");
    {
        let mut hist: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
        for &(idx, l) in &trace {
            let e = hist.entry(l).or_insert((0, u64::MAX, 0));
            e.0 += 1;
            e.1 = e.1.min(idx);
            e.2 = e.2.max(idx);
        }
        eprintln!("total events {total}; trace by label: {hist:?}");
    }

    // Strided points, plus the first traced event inside each labelled
    // persistence context so the sweep provably kills the primary inside
    // distinct fault contexts, not just "somewhere".
    let mut points: BTreeSet<u64> = [total / 5, total / 3, total / 2, total * 3 / 4]
        .into_iter()
        .map(|k| k.max(1))
        .collect();
    // Event indices drift between runs (bootstrap capture, flush timing),
    // so aim at the start, middle, and end of each label's span rather
    // than a single traced index.
    let interesting = [
        "server::group_commit",
        "cachekv::copy_flush",
        "cachekv::l0_dump",
    ];
    for label in interesting {
        let spans: Vec<u64> = trace
            .iter()
            .filter(|(_, l)| *l == label)
            .map(|&(i, _)| i)
            .collect();
        if let (Some(&lo), Some(&hi)) = (spans.first(), spans.last()) {
            points.insert(lo.max(1));
            points.insert(((lo + hi) / 2).max(1));
            points.insert(spans[spans.len() / 4].max(1));
        }
    }

    let mut tripped_mid_service = 0u32;
    let mut contexts_hit: BTreeSet<&'static str> = BTreeSet::new();
    for &k in &points {
        let (out, follower, follower_transport) = run_primary(FaultPlan::at(k));
        // A `None` trip context means event drift put k past this run's
        // total: nothing tripped, the run completed — still a valid
        // failover data point.
        if let Some(stack) = &out.trip_context {
            if out.committed.iter().any(|&c| c < PER_WRITER) {
                tripped_mid_service += 1;
            }
            for label in stack {
                contexts_hit.insert(label);
            }
        }

        // The primary is gone. Promote the follower and verify the ack
        // contract entirely over its wire — no primary media recovery.
        let client = KvClient::connect(follower_transport.connect().unwrap());
        client.promote(1).expect("promote follower");
        assert!(!follower.is_follower());
        assert_eq!(follower.obs().repl_failovers.get(), 1);

        for (tid, &count) in out.committed.iter().enumerate() {
            // Every acked-before-trip write is on the promoted follower…
            for i in 0..count {
                assert_eq!(
                    client.get(&key(tid, i)).unwrap(),
                    Some(value(tid, i)),
                    "crash at {k}: writer {tid}'s acked put {i}/{count} lost in failover"
                );
            }
            // …the one possibly-in-flight write went atomically either
            // way…
            if count < PER_WRITER {
                let boundary = client.get(&key(tid, count)).unwrap();
                assert!(
                    boundary.is_none() || boundary == Some(value(tid, count)),
                    "crash at {k}: writer {tid}'s in-flight put corrupted on follower"
                );
            }
            // …and writes never submitted were not fabricated.
            for i in (count + 1)..PER_WRITER {
                assert_eq!(
                    client.get(&key(tid, i)).unwrap(),
                    None,
                    "crash at {k}: writer {tid} put {i} fabricated on follower"
                );
            }
        }
        // The promoted follower accepts new writes in the new epoch.
        client
            .put(b"epoch-probe", b"alive")
            .expect("promoted follower writable");
        assert_eq!(
            follower.obs().repl_tripwire.get(),
            0,
            "crash at {k}: follower tripwire"
        );
        client.close();
        follower.shutdown();
    }

    // The sweep must have interrupted live replicated traffic, and in
    // more than one persistence context, or it proved nothing.
    assert!(
        tripped_mid_service > 0,
        "no crash point landed while clients were in flight"
    );
    assert!(
        contexts_hit.len() >= 2,
        "sweep hit only one fault context: {contexts_hit:?}"
    );
}
