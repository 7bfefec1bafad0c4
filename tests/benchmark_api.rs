//! Compile-time pin of the API `benchmark/` (kvbench) builds against.
//!
//! `benchmark/` is its own workspace, so tier-1 does not compile it; a
//! refactor that renames or re-types one of these items would break the
//! benchmark without failing a single test. The `use` lines below are the
//! union of what `benchmark/src` imports from `cachekv_server`, `cachekv`,
//! `cachekv_pmem` and `cachekv_cache`, and the function-pointer bindings pin
//! the signatures it calls. Keep this file in step with `benchmark/src`, not
//! the other way round.

#![allow(unused_imports)]

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_pmem::{Clock, ClockMode, LatencyConfig, PmemConfig, PmemDevice, CACHELINE};
use cachekv_server::cache::key_hash;
use cachekv_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    MAX_FRAME,
};
use cachekv_server::{
    shard_for_key, Connection, HotCache, HotCacheConfig, KvServer, ReplMode, Replicator, Request,
    Response, ServerConfig, ServerObs, StoreFactory, TcpTransport, Transport,
};
use std::net::SocketAddr;
use std::sync::Arc;

type Stores = Vec<Arc<dyn KvStore>>;
/// Per shard: `(enqueued, acked, backlog_bytes, live)`.
type LinkStats = Vec<(u64, u64, u64, bool)>;

#[test]
fn the_items_kvbench_calls_keep_their_signatures() {
    // `sut.rs`: the pinned server configuration.
    let cfg = ServerConfig {
        io_threads: 1,
        ..ServerConfig::default()
    };
    assert_eq!(cfg.io_threads, 1);

    // `sut.rs`: the three ways it starts a server, and what it asks of one.
    let _: fn(Stores, Arc<dyn Transport>, ServerConfig) -> KvServer = KvServer::start;
    let _: fn(Stores, Arc<dyn Transport>, ServerConfig, StoreFactory) -> KvServer =
        KvServer::start_follower;
    let _: fn(Stores, Arc<dyn Transport>, ServerConfig, Connection, ReplMode) -> KvServer =
        KvServer::start_replicated;
    let _: fn(&KvServer) -> &Arc<ServerObs> = KvServer::obs;
    let _: fn(&KvServer) -> Option<&Arc<Replicator>> = KvServer::replicator;
    let _: fn(KvServer) = KvServer::shutdown;
    let _: fn(&Replicator) -> LinkStats = Replicator::link_stats;
    let _: fn(&Replicator) -> bool = Replicator::is_down;
    let _ = ReplMode::Sync;

    // `sut.rs`: bind an ephemeral port, read it back, dial it.
    let transport: Arc<TcpTransport> = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = transport.local_addr();
    let _link: Connection = TcpTransport::connect(addr).expect("dial");
    let _: Arc<dyn Transport> = transport;

    // `trace.rs` / `main.rs`: routing, the cache tier, the registry export.
    let _: fn(&[u8], usize) -> usize = shard_for_key;
    let _: fn(&[u8]) -> u64 = key_hash;
    let obs: Arc<ServerObs> = ServerObs::new();
    let _ = obs.registry.export();
    let _: Arc<HotCache> = HotCache::new(&HotCacheConfig::default(), 2, obs);
}
