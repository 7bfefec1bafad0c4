//! Cross-layer stats snapshot.
//!
//! [`StatsSnapshot`] is the machine-readable view a store returns from
//! `snapshot()`: device counters (PMWatch-style, Figure 4), cache counters,
//! the memory component's registry (phase breakdowns, Figure 5), and the LSM
//! storage component's registry (compaction/amplification accounting).

use cachekv_cache::CacheStats;
use cachekv_pmem::PmemStats;

use crate::json::Json;
use crate::registry::MetricsExport;

/// Point-in-time metrics for every layer of one store instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Which system produced this (e.g. `cachekv`, `novelsm-cache`).
    pub system: String,
    /// Simulated persistent-memory device counters.
    pub device: PmemStats,
    /// Simulated LLC counters.
    pub cache: CacheStats,
    /// Memory-component metrics (pool, flush pipeline, LIU, SC, phases).
    pub memory: MetricsExport,
    /// LSM storage-component metrics (L0 dumps, compaction traffic).
    pub lsm: MetricsExport,
}

impl StatsSnapshot {
    /// Serialize to a JSON value. Derived ratios (write hit ratio, write
    /// amplification, load hit ratio) are included so artifacts are directly
    /// plottable without re-deriving them.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("system", Json::Str(self.system.clone())),
            ("device", device_to_json(&self.device)),
            ("cache", cache_to_json(&self.cache)),
            ("memory", self.memory.to_json()),
            ("lsm", self.lsm.to_json()),
        ])
    }

    /// Serialize to a JSON string (deterministic key order).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuild from a JSON value produced by `StatsSnapshot::to_json`.
    pub fn from_json(v: &Json) -> Result<StatsSnapshot, String> {
        Ok(StatsSnapshot {
            system: v
                .get("system")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            device: device_from_json(v.get("device").ok_or("missing device")?)?,
            cache: cache_from_json(v.get("cache").ok_or("missing cache")?)?,
            memory: MetricsExport::from_json(v.get("memory").ok_or("missing memory")?)?,
            lsm: MetricsExport::from_json(v.get("lsm").ok_or("missing lsm")?)?,
        })
    }

    /// Parse from a JSON string.
    pub fn parse(text: &str) -> Result<StatsSnapshot, String> {
        StatsSnapshot::from_json(&Json::parse(text)?)
    }
}

fn device_to_json(d: &PmemStats) -> Json {
    Json::obj(vec![
        ("cpu_writes", Json::UInt(d.cpu_writes)),
        ("xpbuffer_hits", Json::UInt(d.xpbuffer_hits)),
        ("xpbuffer_misses", Json::UInt(d.xpbuffer_misses)),
        ("media_read_bytes", Json::UInt(d.media_read_bytes)),
        ("media_write_bytes", Json::UInt(d.media_write_bytes)),
        ("rmw_evictions", Json::UInt(d.rmw_evictions)),
        ("full_evictions", Json::UInt(d.full_evictions)),
        ("reads", Json::UInt(d.reads)),
        ("power_failures", Json::UInt(d.power_failures)),
        ("write_hit_ratio", Json::Num(d.write_hit_ratio())),
        ("write_amplification", Json::Num(d.write_amplification())),
    ])
}

fn device_from_json(v: &Json) -> Result<PmemStats, String> {
    let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("bad {k}"));
    Ok(PmemStats {
        cpu_writes: field("cpu_writes")?,
        xpbuffer_hits: field("xpbuffer_hits")?,
        xpbuffer_misses: field("xpbuffer_misses")?,
        media_read_bytes: field("media_read_bytes")?,
        media_write_bytes: field("media_write_bytes")?,
        rmw_evictions: field("rmw_evictions")?,
        full_evictions: field("full_evictions")?,
        reads: field("reads")?,
        power_failures: field("power_failures")?,
    })
}

fn cache_to_json(c: &CacheStats) -> Json {
    Json::obj(vec![
        ("store_hits", Json::UInt(c.store_hits)),
        ("store_misses", Json::UInt(c.store_misses)),
        ("load_hits", Json::UInt(c.load_hits)),
        ("load_misses", Json::UInt(c.load_misses)),
        ("evictions", Json::UInt(c.evictions)),
        ("dirty_evictions", Json::UInt(c.dirty_evictions)),
        ("flush_ops", Json::UInt(c.flush_ops)),
        ("nt_lines", Json::UInt(c.nt_lines)),
        ("locked_hits", Json::UInt(c.locked_hits)),
        ("load_hit_ratio", Json::Num(c.load_hit_ratio())),
    ])
}

fn cache_from_json(v: &Json) -> Result<CacheStats, String> {
    let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("bad {k}"));
    Ok(CacheStats {
        store_hits: field("store_hits")?,
        store_misses: field("store_misses")?,
        load_hits: field("load_hits")?,
        load_misses: field("load_misses")?,
        evictions: field("evictions")?,
        dirty_evictions: field("dirty_evictions")?,
        flush_ops: field("flush_ops")?,
        nt_lines: field("nt_lines")?,
        locked_hits: field("locked_hits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn round_trips_through_json_string() {
        let reg = Registry::new();
        reg.counter("core.puts").add(12);
        reg.gauge("core.flush.queue_depth").set(3);
        reg.histogram("core.put_ns").record(450);
        let snap = StatsSnapshot {
            system: "cachekv".to_string(),
            device: PmemStats {
                cpu_writes: 100,
                xpbuffer_hits: 80,
                xpbuffer_misses: 20,
                media_write_bytes: 2560,
                ..Default::default()
            },
            cache: CacheStats {
                store_hits: 7,
                locked_hits: 7,
                ..Default::default()
            },
            memory: reg.export(),
            lsm: MetricsExport::default(),
        };
        let text = snap.to_json_string();
        let back = StatsSnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        // Derived ratios are present in the artifact.
        let v = Json::parse(&text).unwrap();
        let ratio = v
            .get("device")
            .and_then(|d| d.get("write_hit_ratio"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((ratio - 0.8).abs() < 1e-9);
    }

    #[test]
    fn missing_layer_is_an_error() {
        assert!(StatsSnapshot::parse("{\"system\":\"x\"}").is_err());
    }
}
