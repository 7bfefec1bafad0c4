//! Multi-threaded benchmark driver.

use crate::dbbench::DbBench;
use crate::keys::{KeyGen, ValueGen};
use crate::ycsb::{YcsbOp, YcsbSpec, YcsbWorkload};
use cachekv_lsm::KvStore;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub(crate) secs: f64,
}

impl Measurement {
    /// Throughput in thousands of operations per second (the paper's unit).
    pub fn kops(&self) -> f64 {
        if self.secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.secs / 1e3
        }
    }
}

/// Run `ops_per_thread` operations of `mode` on `threads` threads and
/// measure aggregate throughput. `n` is the key-space size, `key`/`value`
/// the byte generators.
pub fn run_ops(
    store: &Arc<dyn KvStore>,
    mode: DbBench,
    n: u64,
    ops_per_thread: u64,
    threads: usize,
    key: &KeyGen,
    value: &ValueGen,
) -> Measurement {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = store.clone();
            let key = key.clone();
            let value = value.clone();
            s.spawn(move || {
                let mut dist = mode.dist(n, t as u64, threads as u64);
                let mut kbuf = vec![0u8; key.width()];
                let mut vbuf = Vec::new();
                for _ in 0..ops_per_thread {
                    let id = dist.next_id();
                    key.key_into(id, &mut kbuf);
                    if mode.is_write() {
                        value.value_into(id, &mut vbuf);
                        store.put(&kbuf, &vbuf).expect("bench put");
                    } else {
                        let _ = store.get(&kbuf).expect("bench get");
                    }
                }
            });
        }
    });
    Measurement {
        ops: ops_per_thread * threads as u64,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Per-operation latency distribution (nanoseconds), aggregated across
/// threads.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    sorted_ns: Vec<u64>,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        LatencyStats { sorted_ns: samples }
    }

    /// The `q`-quantile latency in nanoseconds (`q` in `[0, 1]`).
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.sorted_ns.is_empty() {
            return 0;
        }
        let idx = ((self.sorted_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.sorted_ns[idx]
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Tail latency.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> u64 {
        if self.sorted_ns.is_empty() {
            0
        } else {
            self.sorted_ns.iter().sum::<u64>() / self.sorted_ns.len() as u64
        }
    }
}

/// Like [`run_ops`] but additionally records per-operation latencies
/// (adds one `Instant::now` pair per op — use for latency studies, not
/// peak-throughput measurements).
pub fn run_ops_with_latency(
    store: &Arc<dyn KvStore>,
    mode: DbBench,
    n: u64,
    ops_per_thread: u64,
    threads: usize,
    key: &KeyGen,
    value: &ValueGen,
) -> (Measurement, LatencyStats) {
    let t0 = Instant::now();
    let samples = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let store = store.clone();
            let key = key.clone();
            let value = value.clone();
            handles.push(s.spawn(move || {
                let mut dist = mode.dist(n, t as u64, threads as u64);
                let mut kbuf = vec![0u8; key.width()];
                let mut vbuf = Vec::new();
                let mut lat = Vec::with_capacity(ops_per_thread as usize);
                for _ in 0..ops_per_thread {
                    let id = dist.next_id();
                    key.key_into(id, &mut kbuf);
                    let op_start = Instant::now();
                    if mode.is_write() {
                        value.value_into(id, &mut vbuf);
                        store.put(&kbuf, &vbuf).expect("bench put");
                    } else {
                        let _ = store.get(&kbuf).expect("bench get");
                    }
                    lat.push(op_start.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<u64>>()
    });
    (
        Measurement {
            ops: ops_per_thread * threads as u64,
            secs: t0.elapsed().as_secs_f64(),
        },
        LatencyStats::from_samples(samples),
    )
}

/// Pre-fill keys `[0, n)` sequentially (load phase for read benchmarks).
pub fn fill(store: &Arc<dyn KvStore>, n: u64, key: &KeyGen, value: &ValueGen) {
    let mut kbuf = vec![0u8; key.width()];
    let mut vbuf = Vec::new();
    for id in 0..n {
        key.key_into(id, &mut kbuf);
        value.value_into(id, &mut vbuf);
        store.put(&kbuf, &vbuf).expect("fill put");
    }
    store.quiesce();
}

/// Run a YCSB workload: `ops_per_thread` requests per thread over a
/// population of `population` keys (which must be pre-loaded unless the
/// workload is `Load`).
pub fn run_ycsb(
    store: &Arc<dyn KvStore>,
    workload: YcsbWorkload,
    population: u64,
    ops_per_thread: u64,
    threads: usize,
    key: &KeyGen,
    value: &ValueGen,
) -> Measurement {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = store.clone();
            let key = key.clone();
            let value = value.clone();
            s.spawn(move || {
                // Threads insert into disjoint id stripes to avoid write
                // collisions on fresh keys (YCSB's insert-key chooser).
                let stripe = 1_000_000_000u64 * t as u64;
                let mut spec = YcsbSpec::new(workload, population, t as u64);
                let mut kbuf = vec![0u8; key.width()];
                let mut vbuf = Vec::new();
                for _ in 0..ops_per_thread {
                    let (op, mut id) = spec.next_op();
                    if op == YcsbOp::Insert && workload != YcsbWorkload::Load {
                        id += stripe;
                    }
                    key.key_into(id, &mut kbuf);
                    match op {
                        YcsbOp::Read => {
                            let _ = store.get(&kbuf).expect("ycsb read");
                        }
                        YcsbOp::Update | YcsbOp::Insert => {
                            value.value_into(id, &mut vbuf);
                            store.put(&kbuf, &vbuf).expect("ycsb write");
                        }
                        YcsbOp::ReadModifyWrite => {
                            let _ = store.get(&kbuf).expect("ycsb rmw read");
                            value.value_into(id.wrapping_add(1), &mut vbuf);
                            store.put(&kbuf, &vbuf).expect("ycsb rmw write");
                        }
                        YcsbOp::Scan => {
                            // Scan length keys from the drawn start key
                            // onward (YCSB-E: unbounded end, limit = len).
                            let len = spec.next_scan_len();
                            let _ = store.scan(&kbuf, &[], len as usize).expect("ycsb scan");
                        }
                    }
                }
            });
        }
    });
    Measurement {
        ops: ops_per_thread * threads as u64,
        secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
impl LatencyStats {
    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.sorted_ns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::{CacheConfig, Hierarchy};
    use cachekv_lsm::{LsmConfig, LsmTree};
    use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};

    fn store() -> Arc<dyn KvStore> {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
        ));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
        Arc::new(LsmTree::create(hier, LsmConfig::test_small()))
    }

    #[test]
    fn fill_then_read_all_hit() {
        let db = store();
        let key = KeyGen::paper();
        let val = ValueGen::new(32);
        fill(&db, 500, &key, &val);
        for id in (0..500).step_by(41) {
            assert_eq!(db.get(&key.key(id)).unwrap(), Some(val.value(id)));
        }
    }

    #[test]
    fn run_ops_measures_and_writes() {
        let db = store();
        let key = KeyGen::paper();
        let val = ValueGen::new(32);
        let m = run_ops(&db, DbBench::FillRandom, 1_000, 500, 2, &key, &val);
        assert_eq!(m.ops, 1_000);
        assert!(m.secs > 0.0);
        assert!(m.kops() > 0.0);
    }

    #[test]
    fn ycsb_a_mix_runs_clean() {
        let db = store();
        let key = KeyGen::paper();
        let val = ValueGen::new(32);
        fill(&db, 1_000, &key, &val);
        let m = run_ycsb(&db, YcsbWorkload::A, 1_000, 500, 2, &key, &val);
        assert_eq!(m.ops, 1_000);
    }

    #[test]
    fn ycsb_load_populates_store() {
        let db = store();
        let key = KeyGen::paper();
        let val = ValueGen::new(32);
        run_ycsb(&db, YcsbWorkload::Load, 0, 300, 1, &key, &val);
        // Load inserts ids 0..300 densely.
        assert!(db.get(&key.key(299)).unwrap().is_some());
    }

    #[test]
    fn latency_stats_quantiles() {
        let stats = LatencyStats::from_samples((1..=100u64).collect());
        assert_eq!(stats.p50(), 51); // nearest-rank at idx round(99*.5)=50
        assert_eq!(stats.p99(), 99);
        assert_eq!(stats.quantile(0.0), 1);
        assert_eq!(stats.quantile(1.0), 100);
        assert_eq!(stats.mean(), 50);
        assert_eq!(LatencyStats::from_samples(vec![]).p99(), 0);
    }

    #[test]
    fn run_ops_with_latency_collects_samples() {
        let db = store();
        let key = KeyGen::paper();
        let val = ValueGen::new(32);
        let (m, lat) = run_ops_with_latency(&db, DbBench::FillRandom, 500, 250, 2, &key, &val);
        assert_eq!(m.ops, 500);
        assert_eq!(lat.len(), 500);
        assert!(lat.p99() >= lat.p50());
    }

    #[test]
    fn measurement_kops_math() {
        let m = Measurement {
            ops: 10_000,
            secs: 2.0,
        };
        assert!((m.kops() - 5.0).abs() < 1e-9);
        let z = Measurement { ops: 1, secs: 0.0 };
        assert_eq!(z.kops(), 0.0);
    }
}
