//! The system under test: the pinned engine + server configuration, the
//! preload, and the cross-layer counter snapshot every count metric is a
//! delta of.

use crate::gen::{key_bytes, write_value};
use crate::process::ProcessSample;
use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_obs::{HistogramSnapshot, MetricsExport};
use cachekv_pmem::{Clock, ClockMode, PmemConfig, PmemDevice};
use cachekv_server::{shard_for_key, KvServer, ReplMode, ServerConfig, StoreFactory, TcpTransport};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards per server. Pinned: numbers compare across machines only if the
/// routing fan-out is the same.
pub const SHARDS: usize = 2;

/// Engine configuration, pinned. `num_cores` would otherwise follow the
/// host's parallelism.
pub fn engine_config() -> CacheKvConfig {
    CacheKvConfig {
        num_cores: 8,
        ..CacheKvConfig::default()
    }
}

/// Server configuration, pinned. `io_threads` would otherwise follow the
/// host's parallelism; the 16 MiB hot cache is the default and stays on.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        io_threads: 1,
        ..ServerConfig::default()
    }
}

/// One engine shard with handles to the layers under it.
#[derive(Clone)]
pub struct Store {
    pub kv: Arc<CacheKv>,
    pub hier: Arc<Hierarchy>,
    pub clock: Arc<Clock>,
}

impl Store {
    /// A fresh shard on a spinning clock: modelled device time is felt in
    /// wall-clock, the methodology of the paper-figure benches.
    pub fn create() -> Store {
        let clock = Arc::new(Clock::new(ClockMode::Spin));
        let dev = Arc::new(PmemDevice::with_clock(
            PmemConfig::paper_scaled(),
            clock.clone(),
        ));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        let kv = Arc::new(CacheKv::create(hier.clone(), engine_config()));
        Store { kv, hier, clock }
    }

    /// Power-fail the shard's hierarchy and recover a store from what the
    /// persistence domain kept. Returns the store and the recovery time.
    pub fn crash_and_recover(self) -> Result<(Store, Duration), String> {
        let Store { kv, hier, clock } = self;
        drop(kv);
        hier.power_fail();
        let t0 = Instant::now();
        let kv = CacheKv::recover(hier.clone(), engine_config()).map_err(|e| e.to_string())?;
        Ok((
            Store {
                kv: Arc::new(kv),
                hier,
                clock,
            },
            t0.elapsed(),
        ))
    }
}

/// Build [`SHARDS`] stores holding version 0 of keys `0..keys`, written
/// through `KvStore::put` (one loader thread per shard) and quiesced.
pub fn build_stores(keys: u32, value_len: usize) -> Vec<Store> {
    let stores: Vec<Store> = (0..SHARDS).map(|_| Store::create()).collect();
    std::thread::scope(|s| {
        for (shard, store) in stores.iter().enumerate() {
            s.spawn(move || {
                let mut value = Vec::with_capacity(value_len);
                for id in 0..keys {
                    let key = key_bytes(id);
                    if shard_for_key(&key, SHARDS) != shard {
                        continue;
                    }
                    value.clear();
                    write_value(&mut value, id, 0, value_len);
                    store.kv.put(&key, &value).expect("preload put");
                }
                store.kv.quiesce();
            });
        }
    });
    stores
}

fn dyn_stores(stores: &[Store]) -> Vec<Arc<dyn KvStore>> {
    stores
        .iter()
        .map(|s| s.kv.clone() as Arc<dyn KvStore>)
        .collect()
}

/// A running server (and, when replicated, its follower) over TCP.
pub struct Sut {
    pub server: KvServer,
    pub addr: SocketAddr,
    pub stores: Vec<Store>,
    pub follower: Option<(KvServer, SocketAddr)>,
}

impl Sut {
    /// Standalone server over `stores` on an ephemeral loopback TCP port.
    pub fn standalone(stores: Vec<Store>) -> Sut {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind 127.0.0.1:0");
        let addr = transport.local_addr();
        let server = KvServer::start(dyn_stores(&stores), transport, server_config());
        Sut {
            server,
            addr,
            stores,
            follower: None,
        }
    }

    /// Primary over `stores` shipping rounds synchronously to an in-process
    /// follower over a second TCP link. Returns once the snapshot bootstrap
    /// has finished and every shard tail-follows live.
    ///
    /// The follower's bootstrapped device runs on the counting clock
    /// (`PmemDevice::from_media`), the primary's spins: follower apply time
    /// is software only. Stated in the README.
    pub fn replicated(stores: Vec<Store>) -> Sut {
        let f_transport = TcpTransport::bind("127.0.0.1:0").expect("bind follower");
        let f_addr = f_transport.local_addr();
        let factory: StoreFactory = Box::new(|_, media| {
            let dev = Arc::new(PmemDevice::from_media(PmemConfig::paper_scaled(), media));
            let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
            let kv = CacheKv::recover(hier, engine_config()).map_err(|e| e.to_string())?;
            Ok(Arc::new(kv) as Arc<dyn KvStore>)
        });
        let placeholders: Vec<Store> = (0..SHARDS).map(|_| Store::create()).collect();
        let follower = KvServer::start_follower(
            dyn_stores(&placeholders),
            f_transport,
            server_config(),
            factory,
        );
        let link = TcpTransport::connect(f_addr).expect("dial follower");
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind primary");
        let addr = transport.local_addr();
        let server = KvServer::start_replicated(
            dyn_stores(&stores),
            transport,
            server_config(),
            link,
            ReplMode::Sync,
        );
        let repl = server.replicator().expect("replicated server").clone();
        let t0 = Instant::now();
        while !repl.link_stats().iter().all(|(_, _, _, live)| *live) {
            assert!(!repl.is_down(), "replication link died during bootstrap");
            assert!(t0.elapsed() < Duration::from_secs(120), "bootstrap stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        Sut {
            server,
            addr,
            stores,
            follower: Some((follower, f_addr)),
        }
    }

    /// Drain and stop the server(s); the stores survive for audits.
    pub fn shutdown(self) -> Vec<Store> {
        self.server.shutdown();
        if let Some((follower, _)) = self.follower {
            follower.shutdown();
        }
        self.stores
    }
}

/// Every counter the count metrics are built from, at one instant: the
/// server registry, the engine + LSM registries and the device + LLC
/// counters summed over the shards, modelled device time, and the process
/// counters.
#[derive(Clone, Default)]
pub struct Counters {
    pub server: MetricsExport,
    pub core: MetricsExport,
    pub lsm: MetricsExport,
    /// The simulated hardware's counters, as `pmem.*` and `llc.*`, so that
    /// summing over shards and differencing work as for the registries.
    pub hw: MetricsExport,
    /// Σ `clock().total_ns()` — modelled-hardware (simulated) time.
    pub sim_ns: u64,
    pub process: ProcessSample,
}

impl Counters {
    pub fn snapshot(sut: &Sut) -> Counters {
        let mut c = Counters {
            server: sut.server.obs().registry.export(),
            process: ProcessSample::now(),
            ..Counters::default()
        };
        for store in &sut.stores {
            let snap = store.kv.snapshot();
            merge_export(&mut c.core, &snap.memory);
            merge_export(&mut c.lsm, &snap.lsm);
            let (dev, llc) = (&snap.device, &snap.cache);
            let mut hw = MetricsExport::default();
            for (name, v) in [
                ("pmem.xpbuffer_hits", dev.xpbuffer_hits),
                ("pmem.xpbuffer_misses", dev.xpbuffer_misses),
                ("pmem.media_read_bytes", dev.media_read_bytes),
                ("pmem.media_write_bytes", dev.media_write_bytes),
                ("pmem.rmw_evictions", dev.rmw_evictions),
                ("llc.load_hits", llc.load_hits),
                ("llc.load_misses", llc.load_misses),
                ("llc.dirty_evictions", llc.dirty_evictions),
                ("llc.flush_ops", llc.flush_ops),
                ("llc.nt_lines", llc.nt_lines),
                ("llc.locked_hits", llc.locked_hits),
            ] {
                hw.insert_counter(name, v);
            }
            merge_export(&mut c.hw, &hw);
            c.sim_ns += store.clock.total_ns();
        }
        c
    }

    /// What happened between `earlier` and `self`. Gauges keep their later
    /// value; counters and histograms are differenced.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            server: export_delta(&self.server, &earlier.server),
            core: export_delta(&self.core, &earlier.core),
            lsm: export_delta(&self.lsm, &earlier.lsm),
            hw: export_delta(&self.hw, &earlier.hw),
            sim_ns: self.sim_ns - earlier.sim_ns,
            process: self.process.since(&earlier.process),
        }
    }
}

/// Counter value by name, 0 if the layer never registered it.
pub fn counter(e: &MetricsExport, name: &str) -> u64 {
    e.counters.get(name).copied().unwrap_or(0)
}

/// Histogram by name, empty if absent.
pub fn histogram<'a>(e: &'a MetricsExport, name: &str) -> &'a HistogramSnapshot {
    static EMPTY: HistogramSnapshot = HistogramSnapshot {
        count: 0,
        sum: 0,
        max: 0,
        buckets: Vec::new(),
    };
    e.histograms.get(name).unwrap_or(&EMPTY)
}

fn bucket_map(h: &HistogramSnapshot) -> BTreeMap<u8, u64> {
    h.buckets.iter().copied().collect()
}

fn hist_add(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = bucket_map(a);
    for (i, n) in &b.buckets {
        *buckets.entry(*i).or_insert(0) += n;
    }
    HistogramSnapshot {
        count: a.count + b.count,
        sum: a.sum + b.sum,
        max: a.max.max(b.max),
        buckets: buckets.into_iter().collect(),
    }
}

/// `later − earlier`, bucket by bucket. `max` cannot be differenced and
/// keeps the later value, which only bounds the top bucket less tightly.
fn hist_sub(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = bucket_map(later);
    for (i, n) in &earlier.buckets {
        if let Some(v) = buckets.get_mut(i) {
            *v = v.saturating_sub(*n);
        }
    }
    HistogramSnapshot {
        count: later.count.saturating_sub(earlier.count),
        sum: later.sum.saturating_sub(earlier.sum),
        max: later.max,
        buckets: buckets.into_iter().filter(|(_, n)| *n > 0).collect(),
    }
}

fn merge_export(into: &mut MetricsExport, from: &MetricsExport) {
    for (k, v) in &from.counters {
        *into.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, v) in &from.gauges {
        *into.gauges.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &from.histograms {
        let merged = match into.histograms.get(k) {
            Some(have) => hist_add(have, h),
            None => h.clone(),
        };
        into.histograms.insert(k.clone(), merged);
    }
}

fn export_delta(later: &MetricsExport, earlier: &MetricsExport) -> MetricsExport {
    let mut out = later.clone();
    for (k, v) in &mut out.counters {
        *v = v.saturating_sub(counter(earlier, k));
    }
    for (k, h) in &mut out.histograms {
        *h = hist_sub(h, histogram(earlier, k));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_obs::Registry;

    #[test]
    fn export_delta_differences_counters_and_histograms() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.add(5);
        for v in [10, 20, 1000] {
            h.record(v);
        }
        let before = reg.export();
        c.add(7);
        for v in [20, 20, 20, 4000] {
            h.record(v);
        }
        let d = export_delta(&reg.export(), &before);
        assert_eq!(counter(&d, "c"), 7);
        let dh = histogram(&d, "h");
        assert_eq!(dh.count, 4);
        assert_eq!(dh.sum, 4060);
        // Three of the four new samples sit in the [16, 32) bucket.
        assert_eq!(dh.p50(), 31);
        assert_eq!(counter(&d, "absent"), 0);
        assert_eq!(histogram(&d, "absent").count, 0);
    }

    #[test]
    fn merge_sums_across_shards() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("x").add(2);
        b.counter("x").add(3);
        a.histogram("h").record(8);
        b.histogram("h").record(9);
        let mut total = MetricsExport::default();
        merge_export(&mut total, &a.export());
        merge_export(&mut total, &b.export());
        assert_eq!(counter(&total, "x"), 5);
        assert_eq!(histogram(&total, "h").count, 2);
    }
}
