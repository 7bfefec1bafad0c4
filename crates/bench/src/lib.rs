//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every benchmark target in `benches/` regenerates one figure of the
//! paper's evaluation (Section IV). Systems are built over a fresh
//! simulated hierarchy whose device latencies are *injected in wall-clock
//! time* ([`ClockMode::Spin`]), so real lock contention and index-update CPU
//! cost compose with simulated PMem costs exactly as Section II-C describes.
//!
//! Scale: the paper dispatches 10 M requests on a 48-core testbed; the
//! simulator defaults to `CACHEKV_OPS` = 30 000 requests per data point
//! (override with the env var) — shapes, not absolute numbers, are the
//! reproduction target.

use cachekv::{CacheKv, CacheKvConfig, Techniques};
use cachekv_baselines::{BaselineOptions, NoveLsm, SlmDb};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{KvStore, LsmConfig, LsmTree, StorageConfig};
use cachekv_obs::{Json, StatsSnapshot};
use cachekv_pmem::{Clock, ClockMode, PmemConfig, PmemDevice};
use std::path::PathBuf;
use std::sync::Arc;

/// Every system the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Full CacheKV (PCSM + LIU + SC).
    CacheKv,
    /// Per-core sub-MemTables only (diligent index updates).
    Pcsm,
    /// PCSM + lazy index update, no sub-skiplist compaction.
    PcsmLiu,
    NoveLsm,
    NoveLsmNoFlush,
    NoveLsmCache,
    SlmDb,
    SlmDbNoFlush,
    SlmDbCache,
    /// The classic LevelDB-like reference engine.
    LevelDbLike,
}

impl SystemKind {
    /// Display name (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::CacheKv => "CacheKV",
            SystemKind::Pcsm => "PCSM",
            SystemKind::PcsmLiu => "PCSM+LIU",
            SystemKind::NoveLsm => "NoveLSM",
            SystemKind::NoveLsmNoFlush => "NoveLSM-w/o-flush",
            SystemKind::NoveLsmCache => "NoveLSM-cache",
            SystemKind::SlmDb => "SLM-DB",
            SystemKind::SlmDbNoFlush => "SLM-DB-w/o-flush",
            SystemKind::SlmDbCache => "SLM-DB-cache",
            SystemKind::LevelDbLike => "LevelDB-like",
        }
    }

    /// The Exp#1/#2 line-up.
    pub fn exp1_set() -> Vec<SystemKind> {
        vec![
            SystemKind::NoveLsm,
            SystemKind::NoveLsmCache,
            SystemKind::SlmDb,
            SystemKind::SlmDbCache,
            SystemKind::Pcsm,
            SystemKind::PcsmLiu,
            SystemKind::CacheKv,
        ]
    }

    /// The Ob1 (Figure 4) line-up.
    pub fn ob1_set() -> Vec<SystemKind> {
        vec![
            SystemKind::NoveLsm,
            SystemKind::NoveLsmNoFlush,
            SystemKind::NoveLsmCache,
            SystemKind::SlmDb,
            SystemKind::SlmDbNoFlush,
            SystemKind::SlmDbCache,
        ]
    }

    /// The multi-system comparison set (Exp#3/#4).
    pub fn comparison_set() -> Vec<SystemKind> {
        vec![
            SystemKind::NoveLsm,
            SystemKind::NoveLsmCache,
            SystemKind::SlmDb,
            SystemKind::SlmDbCache,
            SystemKind::CacheKv,
        ]
    }
}

/// Benchmark-scale knobs (env-overridable).
#[derive(Debug, Clone)]
pub struct BenchScale {
    /// Requests per data point.
    pub ops: u64,
    /// Key-space size.
    pub keyspace: u64,
    /// NoveLSM MemTable size (the paper's is 4 GiB — effectively never
    /// rotating within a run; scaled likewise here).
    pub memtable_bytes: u64,
    /// SLM-DB MemTable size. The paper's default is 64 MiB against
    /// NoveLSM's 4 GiB, i.e. SLM-DB rotates ~64x more often and pays its
    /// per-flush B+-tree insertions far more frequently — the scaled ratio
    /// is preserved.
    pub slmdb_memtable_bytes: u64,
    /// CacheKV pool size.
    pub pool_bytes: u64,
    /// CacheKV sub-MemTable size.
    pub subtable_bytes: u64,
}

impl Default for BenchScale {
    fn default() -> Self {
        let ops = std::env::var("CACHEKV_OPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30_000);
        BenchScale {
            ops,
            keyspace: ops,
            memtable_bytes: 8 << 20,
            slmdb_memtable_bytes: 512 << 10,
            pool_bytes: 12 << 20,
            subtable_bytes: 2 << 20,
        }
    }
}

/// A constructed system plus its hierarchy (for counters).
pub struct Instance {
    pub kind: SystemKind,
    pub store: Arc<dyn KvStore>,
    pub hier: Arc<Hierarchy>,
}

impl Instance {
    /// A [`StatsSnapshot`] JSON document for this system. Instrumented
    /// stores report through [`KvStore::snapshot_json`]; uninstrumented
    /// ones fall back to a device/cache-only snapshot so every label in a
    /// figure artifact carries at least the hardware counters.
    pub fn snapshot_json(&self) -> String {
        self.store.snapshot_json().unwrap_or_else(|| {
            StatsSnapshot {
                system: self.kind.name().to_string(),
                device: self.hier.pmem_stats(),
                cache: self.hier.cache_stats(),
                memory: Default::default(),
                lsm: Default::default(),
            }
            .to_json_string()
        })
    }
}

/// Collects per-label [`StatsSnapshot`] documents during a figure run and
/// writes them as one JSON artifact to `$CACHEKV_METRICS_DIR/<fig>.json`
/// (default `target/metrics/<fig>.json`).
pub struct MetricsSink {
    fig: String,
    systems: Vec<(String, Json)>,
    measurements: Vec<(String, Json)>,
}

impl MetricsSink {
    pub fn new(fig: &str) -> Self {
        MetricsSink {
            fig: fig.to_string(),
            systems: Vec::new(),
            measurements: Vec::new(),
        }
    }

    /// Directory metric artifacts land in.
    pub fn dir() -> PathBuf {
        std::env::var("CACHEKV_METRICS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/metrics"))
    }

    /// Record `inst`'s snapshot under `label` (e.g. `"CacheKV/random/64B"`).
    pub fn record(&mut self, label: &str, inst: &Instance) {
        self.record_json(label, &inst.snapshot_json());
    }

    /// Record a throughput + put-latency measurement under `label`, so the
    /// artifact carries the tail (p50/p99), not just the mean implied by
    /// throughput. Written as a top-level `"measurements"` object.
    pub fn record_measurement(&mut self, label: &str, kops: f64, p50_ns: u64, p99_ns: u64) {
        self.measurements.push((
            label.to_string(),
            Json::obj(vec![
                ("kops", Json::Num(kops)),
                ("put_p50_ns", Json::UInt(p50_ns)),
                ("put_p99_ns", Json::UInt(p99_ns)),
            ]),
        ));
    }

    /// Record a pre-rendered snapshot document under `label`.
    pub fn record_json(&mut self, label: &str, json: &str) {
        let doc = Json::parse(json).unwrap_or_else(|e| panic!("bad snapshot for {label}: {e}"));
        self.systems.push((label.to_string(), doc));
    }

    /// Write the combined artifact; returns its path (best-effort: I/O
    /// errors are reported to stderr, not fatal to the figure run).
    pub fn write(&self) -> Option<PathBuf> {
        let mut systems = std::collections::BTreeMap::new();
        for (label, doc) in &self.systems {
            systems.insert(label.clone(), doc.clone());
        }
        let mut fields = vec![
            ("figure", Json::Str(self.fig.clone())),
            ("labels", Json::UInt(self.systems.len() as u64)),
            ("systems", Json::Obj(systems)),
        ];
        if !self.measurements.is_empty() {
            let mut measurements = std::collections::BTreeMap::new();
            for (label, doc) in &self.measurements {
                measurements.insert(label.clone(), doc.clone());
            }
            fields.push(("measurements", Json::Obj(measurements)));
        }
        let doc = Json::obj(fields);
        let dir = Self::dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("metrics sink: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{}.json", self.fig));
        match std::fs::write(&path, format!("{doc}\n")) {
            Ok(()) => {
                println!("(metrics artifact: {})", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("metrics sink: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Build a fresh hierarchy with spin-injected latencies.
pub fn fresh_hierarchy() -> Arc<Hierarchy> {
    fresh_hierarchy_with_cache(CacheConfig::paper().capacity)
}

/// Build a fresh hierarchy with a non-default LLC size (Figure 4 uses a
/// smaller cache so the `-w/o-flush` variants actually evict within a
/// scaled run).
pub fn fresh_hierarchy_with_cache(cache_bytes: usize) -> Arc<Hierarchy> {
    let clock = Arc::new(Clock::new(ClockMode::Spin));
    let dev = Arc::new(PmemDevice::with_clock(PmemConfig::paper_scaled(), clock));
    Arc::new(Hierarchy::new(
        dev,
        CacheConfig::paper().with_capacity(cache_bytes),
    ))
}

/// Build one system at the given scale.
pub fn build(kind: SystemKind, scale: &BenchScale) -> Instance {
    build_with(kind, scale, 1)
}

/// Build one system, with `flush_threads` background flushers for CacheKV
/// variants (Exp#5).
pub fn build_with(kind: SystemKind, scale: &BenchScale, flush_threads: usize) -> Instance {
    build_on(fresh_hierarchy(), kind, scale, flush_threads)
}

/// Build one system over a caller-supplied hierarchy.
pub fn build_on(
    hier: Arc<Hierarchy>,
    kind: SystemKind,
    scale: &BenchScale,
    flush_threads: usize,
) -> Instance {
    let store: Arc<dyn KvStore> = match kind {
        SystemKind::CacheKv | SystemKind::Pcsm | SystemKind::PcsmLiu => {
            let techniques = match kind {
                SystemKind::Pcsm => Techniques::pcsm(),
                SystemKind::PcsmLiu => Techniques::pcsm_liu(),
                _ => Techniques::all(),
            };
            let cfg = CacheKvConfig {
                pool_bytes: scale.pool_bytes,
                subtable_bytes: scale.subtable_bytes,
                flush_threads,
                techniques,
                // The paper's testbed exposes 24 cores per socket.
                num_cores: 24,
                ..CacheKvConfig::default()
            };
            Arc::new(CacheKv::create(hier.clone(), cfg))
        }
        SystemKind::NoveLsm => Arc::new(NoveLsm::new(
            hier.clone(),
            BaselineOptions::vanilla().with_memtable_bytes(scale.memtable_bytes),
            StorageConfig::default(),
        )),
        SystemKind::NoveLsmNoFlush => Arc::new(NoveLsm::new(
            hier.clone(),
            BaselineOptions::without_flush().with_memtable_bytes(scale.memtable_bytes),
            StorageConfig::default(),
        )),
        SystemKind::NoveLsmCache => Arc::new(NoveLsm::new(
            hier.clone(),
            BaselineOptions::cache().with_memtable_bytes(scale.memtable_bytes),
            StorageConfig::default(),
        )),
        SystemKind::SlmDb => Arc::new(SlmDb::new(
            hier.clone(),
            BaselineOptions::vanilla().with_memtable_bytes(scale.slmdb_memtable_bytes),
        )),
        SystemKind::SlmDbNoFlush => Arc::new(SlmDb::new(
            hier.clone(),
            BaselineOptions::without_flush().with_memtable_bytes(scale.slmdb_memtable_bytes),
        )),
        SystemKind::SlmDbCache => Arc::new(SlmDb::new(
            hier.clone(),
            BaselineOptions::cache()
                .with_memtable_bytes(scale.slmdb_memtable_bytes)
                .with_segment_bytes(scale.slmdb_memtable_bytes),
        )),
        SystemKind::LevelDbLike => Arc::new(LsmTree::create(
            hier.clone(),
            LsmConfig {
                memtable_bytes: scale.memtable_bytes,
                ..LsmConfig::default()
            },
        )),
    };
    Instance { kind, store, hier }
}

/// Print a figure header.
pub fn banner(fig: &str, what: &str) {
    println!("\n=== {fig}: {what} ===");
    println!("(simulated hierarchy; shapes — not absolute numbers — reproduce the paper)");
}

/// Print one aligned series row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_builds_and_serves() {
        let scale = BenchScale {
            ops: 100,
            keyspace: 100,
            memtable_bytes: 1 << 20,
            slmdb_memtable_bytes: 256 << 10,
            pool_bytes: 1 << 20,
            subtable_bytes: 256 << 10,
        };
        for kind in [
            SystemKind::CacheKv,
            SystemKind::Pcsm,
            SystemKind::PcsmLiu,
            SystemKind::NoveLsm,
            SystemKind::NoveLsmNoFlush,
            SystemKind::NoveLsmCache,
            SystemKind::SlmDb,
            SystemKind::SlmDbNoFlush,
            SystemKind::SlmDbCache,
            SystemKind::LevelDbLike,
        ] {
            let inst = build(kind, &scale);
            inst.store.put(b"key000000000001", b"hello").unwrap();
            assert_eq!(
                inst.store.get(b"key000000000001").unwrap(),
                Some(b"hello".to_vec()),
                "{}",
                kind.name()
            );
        }
    }
}
