//! The traced run: depth-1 requests with a span at each layer boundary the
//! benchmark can see from outside, plus *shadow* spans made by calling the
//! server's layers directly for the same op.
//!
//! Per request: `request` → `protocol.encode` → `wire` → `protocol.decode`.
//! `wire` (send the frame, wait for the reply) is opaque from outside, so
//! its children are shadows: the same op replayed through
//! `decode_request`, a standalone `HotCache`, the shadow engine and
//! `encode_response`. A shadow span carries its *measured* duration but a
//! synthetic position (laid end to end from `wire`'s start). What is left
//! of `wire` after its shadows is `transport.residual_us`: sockets, the
//! event loop, queue hand-offs, the committer wake-up, replication — the
//! part only in-program stage stamps can split further.

use crate::driver::{request_for, Driver};
use crate::gen::{key_bytes, write_value, Op, OpKind};
use crate::stats::Sorted;
use crate::sut::{Store, SHARDS};
use cachekv_lsm::KvStore;
use cachekv_pmem::Clock;
use cachekv_server::cache::key_hash;
use cachekv_server::protocol::{decode_request, encode_request, encode_response, write_frame};
use cachekv_server::{shard_for_key, HotCache, HotCacheConfig, Request, Response, ServerObs};
use cachekv_storage::crc::crc32c;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the trace, `None` for a root.
    pub parent: Option<u32>,
    pub request_id: u64,
    /// Made by a direct call into the layer, not observed on the request.
    pub shadow: bool,
    /// Modelled device time charged inside the span (engine spans).
    pub sim_ns: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::ns).collect()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans called `name`, less the cost of the two
    /// clock reads that bracket a span; 0 if there are none.
    pub fn mean_ns(&self, name: &str, timer_ns: f64) -> (f64, u64) {
        let d = self.durations(name);
        if d.is_empty() {
            return (0.0, 0);
        }
        let mean = d.iter().sum::<u64>() as f64 / d.len() as f64;
        ((mean - timer_ns).max(0.0), d.len() as u64)
    }

    pub fn p50_ns(&self, name: &str) -> (f64, u64) {
        let s = Sorted::new(self.durations(name));
        (s.quantile(0.5) as f64, s.len() as u64)
    }

    pub fn mean_sim_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .named(name)
            .filter_map(|s| s.sim_ns)
            .fold((0u64, 0u64), |(a, n), v| (a + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Σ `request` spans against Σ of their parts as reported: the
    /// protocol spans, every shadow span and the residual of every `wire`.
    /// Printed so a reader can see that the parts sum to the whole.
    pub fn sum_check(&self) -> (u64, i64) {
        let whole: u64 = self.named("request").map(Span::ns).sum();
        let parts: i64 = self.residuals().iter().sum::<i64>()
            + self
                .spans
                .iter()
                .filter(|s| s.shadow || matches!(s.name, "protocol.encode" | "protocol.decode"))
                .map(|s| s.ns() as i64)
                .sum::<i64>();
        (whole, parts)
    }

    /// Per-request residual of `wire` after its shadow children, ns. May
    /// be negative for a single request when the shadow engine ran slower
    /// than the live one did.
    pub fn residuals(&self) -> Vec<i64> {
        let mut out: Vec<i64> = Vec::new();
        let mut wire = None;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "wire" {
                wire = Some(i as u32);
                out.push(s.ns() as i64);
            } else if s.shadow && s.parent == wire {
                *out.last_mut().expect("shadow follows its wire span") -= s.ns() as i64;
            }
        }
        out
    }

    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
        timer_ns: f64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"timer_overhead_ns\":{timer_ns:.1},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sim = s
                .sim_ns
                .map_or(String::new(), |n| format!(",\"sim_ns\":{n}"));
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"shadow\":{}{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request_id,
                s.shadow,
                sim,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Cost of the two clock reads around a span: the median of many
/// back-to-back pairs.
pub fn timer_overhead_ns() -> f64 {
    let pairs: Vec<u64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    Sorted::new(pairs).quantile(0.5) as f64
}

/// The layers the server would run for an op, callable directly: a shadow
/// engine preloaded like the live one and a standalone hot cache that sees
/// the same key stream.
pub struct Shadow {
    pub stores: Vec<Store>,
    cache: Arc<HotCache>,
    value_len: usize,
    frame: Vec<u8>,
}

impl Shadow {
    pub fn new(stores: Vec<Store>, value_len: usize) -> Shadow {
        Shadow {
            stores,
            cache: HotCache::new(&HotCacheConfig::default(), SHARDS, ServerObs::new()),
            value_len,
            frame: Vec::new(),
        }
    }

    /// Let the standalone cache see `ops` untimed, as the live cache saw
    /// the warm-up, so traced probes hit at a comparable rate.
    pub fn warm_cache(&self, ops: &[Op]) {
        let mut value = Vec::new();
        for op in ops.iter().filter(|o| o.kind == OpKind::Get) {
            let key = key_bytes(op.key);
            let shard = shard_for_key(&key, SHARDS);
            if let Err(token) = self.cache.probe(shard, &key) {
                value.clear();
                write_value(&mut value, op.key, 0, self.value_len);
                self.cache.fill(shard, &key, &value, token);
            }
        }
    }

    /// Replay `op` through the layers and return `(name, ns, sim_ns)` per
    /// layer call, in the order the server makes them. `reply` is what the
    /// live server answered, re-encoded here as the server encoded it.
    fn replay(&mut self, id: u64, op: &Op, reply: &Response) -> Vec<ShadowCall> {
        let mut out = Vec::with_capacity(5);
        let key = key_bytes(op.key);
        let shard = shard_for_key(&key, SHARDS);
        let request = request_for(op, self.value_len);
        let payload = encode_request(id, &request);
        let (_, ns, _) = timed(|| {
            // The event loop checks the frame CRC, then decodes.
            std::hint::black_box(crc32c(&payload));
            std::hint::black_box(decode_request(&payload).expect("own request decodes"));
        });
        out.push(("protocol.decode_req", ns, None));

        let kv = &self.stores[shard].kv;
        match &request {
            Request::Get { .. } => {
                let (probe, ns, _) = timed(|| self.cache.probe(shard, &key));
                match probe {
                    Ok(v) => {
                        std::hint::black_box(v);
                        out.push(("hotcache.probe_hit", ns, None));
                    }
                    Err(token) => {
                        out.push(("hotcache.probe_miss", ns, None));
                        let (got, ns, sim) = timed(|| kv.get(&key).expect("shadow get"));
                        out.push(("core.get", ns, Some(sim)));
                        if let Some(v) = got {
                            let (_, ns, _) = timed(|| self.cache.fill(shard, &key, &v, token));
                            out.push(("hotcache.fill", ns, None));
                        }
                    }
                }
            }
            Request::Put { value, .. } => {
                // The committer publishes the round's bloom, applies, then
                // publishes the values; the two cache calls are one span.
                let (token, begin_ns, _) =
                    timed(|| self.cache.round_begin(shard, &[key_hash(&key)]));
                let (_, ns, sim) = timed(|| kv.put(&key, value).expect("shadow put"));
                out.push(("core.put", ns, Some(sim)));
                let (_, publish_ns, _) = timed(|| {
                    if let Some(token) = token {
                        let write = (key.as_slice(), Some(value.as_slice()));
                        self.cache.round_publish(token, &[write]);
                    }
                });
                out.push(("hotcache.publish", begin_ns + publish_ns, None));
            }
            Request::Scan { end, limit, .. } => {
                // The server asks every shard for a page + 1 and merges.
                let (_, ns, sim) = timed(|| {
                    for s in &self.stores {
                        let page = s.kv.scan(&key, end, *limit as usize + 1);
                        std::hint::black_box(page.expect("shadow scan"));
                    }
                });
                out.push(("core.scan", ns, Some(sim)));
            }
            _ => unreachable!("the op stream holds GET, PUT and SCAN"),
        }

        let frame = &mut self.frame;
        let (_, ns, _) = timed(|| {
            frame.clear();
            write_frame(frame, &encode_response(id, reply)).expect("reply fits a frame");
        });
        out.push(("protocol.encode_resp", ns, None));
        out
    }
}

/// One direct layer call: span name, wall ns, and modelled device ns for
/// engine calls.
type ShadowCall = (&'static str, u64, Option<u64>);

/// Run `f`; return its value, its wall time and the modelled device time
/// this thread was charged meanwhile, both in ns.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let sim0 = Clock::thread_ns();
    let t0 = Instant::now();
    let v = f();
    let ns = t0.elapsed().as_nanos() as u64;
    (v, ns, Clock::thread_ns() - sim0)
}

pub struct TraceOut {
    pub trace: Trace,
    pub requests: u64,
    pub failed: u64,
    /// `request` span durations by op kind, ns.
    pub get_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    /// `wire` span durations of PUTs, ns.
    pub put_wire_ns: Vec<u64>,
}

/// Send `ops` one at a time for at most `budget`, recording the spans of
/// each request and the shadow spans of the same op.
pub fn traced_segment(
    driver: &mut Driver,
    shadow: &mut Shadow,
    ops: &[Op],
    budget: Duration,
) -> TraceOut {
    let mut out = TraceOut {
        trace: Trace::default(),
        requests: 0,
        failed: 0,
        get_ns: Vec::new(),
        put_ns: Vec::new(),
        put_wire_ns: Vec::new(),
    };
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        let id = i as u64 + 1;
        let d = driver.depth1(*op);
        out.requests += 1;
        if !d.ok {
            out.failed += 1;
        }
        match op.kind {
            OpKind::Get => out.get_ns.push(d.done - d.start),
            OpKind::Put => {
                out.put_ns.push(d.done - d.start);
                out.put_wire_ns.push(d.received - d.encoded);
            }
            OpKind::Scan => {}
        }
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: id,
            shadow: false,
            sim_ns: None,
        };
        let t = &mut out.trace;
        let root = t.push(span("request", d.start, d.done, None));
        t.push(span("protocol.encode", d.start, d.encoded, Some(root)));
        let wire = t.push(span("wire", d.encoded, d.received, Some(root)));
        let mut at = d.encoded;
        for (name, ns, sim_ns) in shadow.replay(id, op, &d.reply) {
            t.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(wire),
                request_id: id,
                shadow: true,
                sim_ns,
            });
            at += ns;
        }
        t.push(span("protocol.decode", d.received, d.done, Some(root)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<u32>, shadow: bool) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            request_id: 1,
            shadow,
            sim_ns: None,
        }
    }

    #[test]
    fn parts_sum_to_the_request_and_residual_is_wire_minus_shadows() {
        let mut t = Trace::default();
        for base in [0u64, 1000] {
            let root = t.push(span("request", base, base + 100, None, false));
            t.push(span("protocol.encode", base, base + 10, Some(root), false));
            let wire = t.push(span("wire", base + 10, base + 90, Some(root), false));
            t.push(span(
                "protocol.decode_req",
                base + 10,
                base + 15,
                Some(wire),
                true,
            ));
            t.push(span("core.get", base + 15, base + 45, Some(wire), true));
            t.push(span(
                "protocol.decode",
                base + 90,
                base + 100,
                Some(root),
                false,
            ));
        }
        let (whole, parts) = t.sum_check();
        assert_eq!(whole, 200);
        assert_eq!(parts, 200);
        assert_eq!(t.residuals(), vec![45, 45]);
        assert_eq!(t.durations("core.get"), vec![30, 30]);
        assert_eq!(t.mean_ns("core.get", 4.0), (26.0, 2));
        assert_eq!(t.mean_ns("absent", 4.0), (0.0, 0));
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Trace::default();
        let root = t.push(span("request", 0, 9, None, false));
        t.push(Span {
            sim_ns: Some(3),
            ..span("core.get", 1, 5, Some(root), true)
        });
        let path = std::env::temp_dir().join(format!("kvbench_trace_{}.json", std::process::id()));
        t.write_json(&path, "w", 7, 21.0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = cachekv_obs::Json::parse(&text).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[1].get("sim_ns").and_then(|p| p.as_u64()), Some(3));
        assert_eq!(doc.get("seed").and_then(|p| p.as_u64()), Some(7));
    }
}
