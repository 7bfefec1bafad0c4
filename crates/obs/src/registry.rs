//! Named-metric registry.
//!
//! Registration (cold path) takes a lock; recording (hot path) goes through
//! pre-fetched `Arc` handles and is purely atomic. Names are dotted paths
//! like `core.flush.queue_depth`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::Json;

/// Monotonically non-decreasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, lag, table counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A collection of named metrics. Cheap to clone (shared interior).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<RwLock<BTreeMap<String, Metric>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a wiring bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(m) = self.metrics.read().get(name) {
            return match m {
                Metric::Counter(c) => c.clone(),
                _ => panic!("metric `{name}` is not a counter"),
            };
        }
        let mut w = self.metrics.write();
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Get or create the gauge named `name`. Panics on kind mismatch.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(m) = self.metrics.read().get(name) {
            return match m {
                Metric::Gauge(g) => g.clone(),
                _ => panic!("metric `{name}` is not a gauge"),
            };
        }
        let mut w = self.metrics.write();
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Get or create the histogram named `name`. Panics on kind mismatch.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(m) = self.metrics.read().get(name) {
            return match m {
                Metric::Histogram(h) => h.clone(),
                _ => panic!("metric `{name}` is not a histogram"),
            };
        }
        let mut w = self.metrics.write();
        match w
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Snapshot every registered metric.
    pub fn export(&self) -> MetricsExport {
        let mut out = MetricsExport::default();
        for (name, m) in self.metrics.read().iter() {
            match m {
                Metric::Counter(c) => {
                    out.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    out.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    out.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        out
    }
}

/// Point-in-time export of one registry (plus ad-hoc inserted values).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsExport {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsExport {
    /// Insert a snapshot-time counter value (for state sampled on demand).
    pub fn insert_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Insert a snapshot-time gauge value.
    pub fn insert_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), histogram_to_json(h)))
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Rebuild from a JSON value produced by [`MetricsExport::to_json`].
    pub(crate) fn from_json(v: &Json) -> Result<MetricsExport, String> {
        let mut out = MetricsExport::default();
        if let Some(map) = v.get("counters").and_then(Json::as_obj) {
            for (k, val) in map {
                out.counters.insert(
                    k.clone(),
                    val.as_u64().ok_or_else(|| format!("counter {k} not u64"))?,
                );
            }
        }
        if let Some(map) = v.get("gauges").and_then(Json::as_obj) {
            for (k, val) in map {
                out.gauges.insert(
                    k.clone(),
                    val.as_i64().ok_or_else(|| format!("gauge {k} not i64"))?,
                );
            }
        }
        if let Some(map) = v.get("histograms").and_then(Json::as_obj) {
            for (k, val) in map {
                out.histograms.insert(k.clone(), histogram_from_json(val)?);
            }
        }
        Ok(out)
    }
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::UInt(h.count)),
        ("sum", Json::UInt(h.sum)),
        ("max", Json::UInt(h.max)),
        ("p50", Json::UInt(h.p50())),
        ("p95", Json::UInt(h.p95())),
        ("p99", Json::UInt(h.p99())),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(i, n)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(n)]))
                    .collect(),
            ),
        ),
    ])
}

fn histogram_from_json(v: &Json) -> Result<HistogramSnapshot, String> {
    let field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("bad {k}"));
    let mut buckets = Vec::new();
    if let Some(arr) = v.get("buckets").and_then(Json::as_arr) {
        for pair in arr {
            let pair = pair.as_arr().ok_or("bad bucket pair")?;
            let i = pair
                .first()
                .and_then(Json::as_u64)
                .ok_or("bad bucket index")?;
            let n = pair
                .get(1)
                .and_then(Json::as_u64)
                .ok_or("bad bucket count")?;
            buckets.push((i as u8, n));
        }
    }
    Ok(HistogramSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        max: field("max")?,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_is_shared() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-5);
        assert_eq!(reg.gauge("depth").get(), -5);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn export_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("ops").add(17);
        reg.gauge("depth").set(-2);
        reg.histogram("lat_ns").record(100);
        reg.histogram("lat_ns").record(3);
        let export = reg.export();
        let back = MetricsExport::from_json(&export.to_json()).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn concurrent_registration() {
        let reg = Registry::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    reg.counter(&format!("c{}", i % 10)).inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = reg.export().counters.values().sum();
        assert_eq!(total, 800);
    }
}
