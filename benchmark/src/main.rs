//! `kvbench` — the repo's one benchmark. See `benchmark/README.md`.
//!
//! One run of one workload: set-up (stores, preload, server, connections),
//! warm-up, then three timed phases over real TCP against an in-process
//! `KvServer` — *cruise* (open loop at a frozen rate; the latency metrics),
//! *busy* (open loop nearer the knee; informational) and *saturate*
//! (closed loop; throughput and CPU per op) — then the correctness audits.
//! With `--trace 1` the phases shrink and a depth-1 traced segment plus
//! direct layer calls give the per-layer timings.

mod driver;
mod gen;
mod layers;
mod process;
mod schema;
mod stats;
mod sut;
mod trace;

use cachekv_obs::Json;
use driver::{Driver, Model, Pace, PhaseOut, Tally, Window, WINDOW};
use gen::{key_bytes, Op, OpKind, OpStream, Rng};
use layers::{put, put_n, Metrics, Observed};
use process::ProcessSample;
use schema::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Sorted;
use std::time::{Duration, Instant};
use sut::{build_stores, Counters, Store, Sut};

#[global_allocator]
static ALLOC: process::CountingAlloc = process::CountingAlloc;

/// `setup_s` is the median of up to this many set-ups per untraced run…
const MAX_SETUPS: usize = 3;
/// …fewer once they have taken this long in total, so a workload with an
/// expensive set-up (the snapshot bootstrap) does not triple its run time.
const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Keys read back (and audited after a crash) at the end of a workload.
const AUDIT_KEYS: usize = 1000;
/// Depth-1 samples behind `transport.ping_rtt_p50_us` and the PUT
/// round-trip comparisons of the traced run.
const DEPTH1_SAMPLES: usize = 1000;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    /// Where trace files go, relative to the working directory (the repo
    /// root when run through the `BENCHMARK.json` command).
    out_dir: std::path::PathBuf,
}

const USAGE: &str = "\
usage: kvbench [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
               [--repeat <n>] [--quick] [--emit-benchmark-json] [--list-metrics]
  no --workload   run read_hot, read_cold, write_ingest, mixed_repl in turn
  --trace 1       shorter phases + depth-1 traced segment; prints per-layer
                  metrics and writes benchmark/out/trace_<workload>.json
  --repeat n      run the set n times (fresh server each) and print
                  min / median / max / spread per metric
  --quick         phases / 10 and a quarter of the keys, for development;
                  output is stamped quick and must not be recorded";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        quick: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = schema::workload(&name).ok_or(format!("unknown workload `{name}`"))?;
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means 1.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => a.quick = true,
            "--list-metrics" => {
                print!("{}", schema::metrics_table());
                std::process::exit(0);
            }
            "--emit-benchmark-json" => {
                print!("{}", schema::benchmark_json());
                std::process::exit(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    Ok(a)
}

/// What one run of one workload produced.
struct RunResult {
    workload: &'static str,
    correct: bool,
    /// Cruise lateness p99 within 1 ms: the run measured the server, not
    /// the driver.
    valid: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Metrics,
    per_layer: Metrics,
    notes: Vec<String>,
}

/// The seeded stream plus the cost of drawing from it.
struct TimedStream {
    stream: OpStream,
    gen_ns: u128,
    generated: u64,
}

impl TimedStream {
    fn take(&mut self, n: usize) -> Vec<Op> {
        let t0 = Instant::now();
        let ops = self.stream.take(n);
        self.gen_ns += t0.elapsed().as_nanos();
        self.generated += n as u64;
        ops
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Percentiles of a latency sample in µs; one the sample does not support
/// (fewer than ten samples beyond it) is `None`.
struct Pcts {
    n: u64,
    p50: f64,
    p99: f64,
    p99_supported: bool,
    p999: Option<f64>,
    /// The highest percentile the sample supports, by name.
    highest: Option<(&'static str, f64)>,
}

fn pcts(samples: &[u64]) -> Pcts {
    let s = Sorted::new(samples.to_vec());
    Pcts {
        n: s.len() as u64,
        p50: us(s.quantile(0.50)),
        p99: us(s.quantile(0.99)),
        p99_supported: s.supports(0.99),
        p999: s.supported(0.999).map(us),
        highest: s.highest().map(|(name, ns)| (name, us(ns))),
    }
}

/// A load step is ok when nothing failed, GET/PUT p99 from the intended
/// send time stays within 5 ms (SCAN: 20 ms) and the backlog at its end is
/// at most twice its mean.
fn step_ok(p: &PhaseOut, get: &Pcts, put: &Pcts, scan: &Pcts) -> bool {
    let within = |pcts: &Pcts, limit_us: f64| pcts.n == 0 || pcts.p99 <= limit_us;
    p.tally.failed() == 0
        && within(get, schema::LIMIT_POINT_US)
        && within(put, schema::LIMIT_POINT_US)
        && within(scan, schema::LIMIT_SCAN_US)
        && p.backlog_end <= 2.0 * p.backlog_mean.max(1.0)
}

fn set_up(w: &Workload, keys: u32) -> (Sut, Driver) {
    let sut = process::below_driver(|| {
        let stores = build_stores(keys, w.value_len);
        if w.replicated {
            Sut::replicated(stores)
        } else {
            Sut::standalone(stores)
        }
    });
    let driver = Driver::connect(
        sut.addr,
        Model::new(keys, w.value_len),
        Some(sut.server.obs().clone()),
    );
    (sut, driver)
}

/// GETs of up to [`AUDIT_KEYS`] seeded keys, half of them drawn from the
/// keys this run wrote.
fn audit_keys(model: &Model, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed ^ 0xA0D1_7000);
    let keys = model.sent.len() as u64;
    let written: Vec<u32> = (0..keys as u32)
        .filter(|k| model.sent[*k as usize] > 0)
        .collect();
    let mut out = Vec::with_capacity(AUDIT_KEYS);
    for i in 0..AUDIT_KEYS {
        if i % 2 == 0 && !written.is_empty() {
            out.push(written[rng.below(written.len() as u64) as usize]);
        } else {
            out.push(rng.below(keys) as u32);
        }
    }
    out
}

fn gets_of(keys: &[u32]) -> Vec<Op> {
    keys.iter()
        .map(|k| Op {
            kind: OpKind::Get,
            key: *k,
            arg: 0,
        })
        .collect()
}

/// Read the audit keys back over the wire. With nothing else in flight the
/// model's `[acked, sent]` window is one version wide, so this compares
/// every value with the last acked version.
fn read_back(driver: &mut Driver, seed: u64) -> Tally {
    let ops = gets_of(&audit_keys(&driver.model, seed));
    driver
        .run_phase(
            &ops,
            Pace::Closed { window: WINDOW },
            Duration::from_secs(30),
        )
        .tally
}

/// The crash audit: power-fail every shard's hierarchy, recover, and check
/// sampled acked writes straight on the recovered engines. Returns
/// `(checked, failed, recovery_ms)`.
fn crash_audit(stores: Vec<Store>, model: &Model, seed: u64) -> (u64, u64, f64) {
    use cachekv_lsm::KvStore;
    let mut recovered = Vec::new();
    let mut recovery_ms = 0.0;
    for store in stores {
        match process::below_driver(|| store.crash_and_recover()) {
            Ok((s, took)) => {
                recovery_ms += took.as_secs_f64() * 1e3;
                recovered.push(s);
            }
            Err(e) => {
                eprintln!("kvbench: recovery failed: {e}");
                return (AUDIT_KEYS as u64, AUDIT_KEYS as u64, recovery_ms);
            }
        }
    }
    let keys = audit_keys(model, seed);
    let failed = keys
        .iter()
        .filter(|k| {
            let key = key_bytes(**k);
            let shard = cachekv_server::shard_for_key(&key, sut::SHARDS);
            let min = model.acked[**k as usize];
            !matches!(recovered[shard].kv.get(&key),
                Ok(Some(v)) if model.value_ok(**k, &v, min))
        })
        .count();
    (keys.len() as u64, failed as u64, recovery_ms)
}

/// One run of one workload in the making: its scale, its seeded stream and
/// everything it has measured so far.
struct Run<'a> {
    w: &'static Workload,
    a: &'a Args,
    keys: u32,
    /// Measured seconds (a tenth of `--seconds` in quick mode).
    secs: f64,
    stream: TimedStream,
    total: Tally,
    end_to_end: Metrics,
    per_layer: Metrics,
    notes: Vec<String>,
}

/// What the warm-up and the three timed phases sent and saw.
struct Phases {
    warm_ops: Vec<Op>,
    warm: PhaseOut,
    cruise_ops: Vec<Op>,
    cruise: PhaseOut,
    busy_ops: Vec<Op>,
    busy: PhaseOut,
    sat_ops: Vec<Op>,
    sat: PhaseOut,
    /// Process cost of the saturate phase.
    sat_cost: ProcessSample,
    /// Counter deltas from the end of warm-up to the end of saturate.
    delta: Counters,
}

impl Phases {
    fn timed(&self) -> [&PhaseOut; 3] {
        [&self.cruise, &self.busy, &self.sat]
    }

    /// Every op the live hot cache saw, in order.
    fn sent_ops(&self) -> [&[Op]; 4] {
        [
            &self.warm_ops[..self.warm.tally.sent as usize],
            &self.cruise_ops,
            &self.busy_ops,
            &self.sat_ops[..self.sat.tally.sent as usize],
        ]
    }
}

impl Run<'_> {
    /// Set up, several times over: the median is the metric, the last
    /// instance is the one measured.
    fn set_up(&mut self) -> (Sut, Driver) {
        let max_setups = if self.a.trace { 1 } else { MAX_SETUPS };
        let mut setup_s = Vec::with_capacity(max_setups);
        let mut live: Option<(Sut, Driver)> = None;
        while setup_s.len() < max_setups
            && (live.is_none() || setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
        {
            if let Some((sut, driver)) = live.take() {
                drop(driver);
                drop(sut.shutdown());
            }
            let t0 = Instant::now();
            live = Some(set_up(self.w, self.keys));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let n = setup_s.len() as u64;
        put_n(&mut self.end_to_end, "setup_s", stats::median(&setup_s), n);
        live.expect("at least one set-up")
    }

    /// Warm-up (closed loop, discarded), then cruise and busy (open loop at
    /// the frozen rates) and saturate (closed loop, 2 connections × window
    /// 16), with the counters snapshotted around the timed three.
    fn phases(&mut self, sut: &Sut, driver: &mut Driver) -> Phases {
        let w = self.w;
        let share = if self.a.trace {
            schema::TRACED_PHASE_SHARE
        } else {
            1.0
        };
        let secs = self.secs;
        let lasting = |part: f64| Duration::from_secs_f64(secs * part);
        // Closed-loop phases end on time, not on count: give them more ops
        // than the server can take (busy_rate is well over half of
        // saturation on every workload).
        let closed_ops = |d: Duration| (4.0 * w.busy_rate * d.as_secs_f64()) as usize + 1000;
        let closed = Pace::Closed { window: WINDOW };

        let warm_for = lasting(schema::WARMUP_SHARE);
        let warm_ops = self.stream.take(closed_ops(warm_for));
        let warm = driver.run_phase(&warm_ops, closed, warm_for);
        let c0 = Counters::snapshot(sut);

        let mut open = |rate: f64, d: Duration| {
            let ops = self.stream.take((rate * d.as_secs_f64()) as usize);
            let out = driver.run_phase(&ops, Pace::Open { rate }, d);
            (ops, out)
        };
        let (cruise_ops, cruise) = open(w.cruise_rate, lasting(schema::CRUISE_SHARE * share));
        let (busy_ops, busy) = open(w.busy_rate, lasting(schema::BUSY_SHARE * share));

        let sat_for = lasting(schema::SATURATE_SHARE * share);
        let sat_ops = self.stream.take(closed_ops(sat_for));
        let p0 = ProcessSample::now();
        let sat = driver.run_phase(&sat_ops, closed, sat_for);
        let sat_cost = ProcessSample::now().since(&p0);
        let delta = Counters::snapshot(sut).since(&c0);

        let p = Phases {
            warm_ops,
            warm,
            cruise_ops,
            cruise,
            busy_ops,
            busy,
            sat_ops,
            sat,
            sat_cost,
            delta,
        };
        self.total.add(&p.warm.tally);
        for phase in p.timed() {
            self.total.add(&phase.tally);
        }
        p
    }

    /// The end-to-end metrics: medians over the windows of their phase. A
    /// phase too short for any window to qualify (toy scale only) falls
    /// back to its whole-phase figure.
    fn end_to_end(&mut self, p: &Phases) {
        let over_windows = |phase: &PhaseOut, of: &dyn Fn(&Window) -> Option<f64>, whole: f64| {
            let values: Vec<f64> = phase.windows.iter().filter_map(of).collect();
            if values.is_empty() {
                whole
            } else {
                stats::median(&values)
            }
        };
        let out = &mut self.end_to_end;
        let sat = &p.sat;
        let answered = sat.tally.sent - sat.tally.unanswered;
        let kops = |w: &Window| (w.seconds > 0.0).then(|| w.ok as f64 / w.seconds / 1e3);
        let total_kops = sat.ok_by_deadline as f64 / sat.seconds.max(1e-9) / 1e3;
        let throughput = over_windows(sat, &kops, total_kops);
        put_n(out, "throughput_kops", throughput, sat.tally.ok);
        let cpu = |w: &Window| (w.answered > 0).then(|| w.cpu_us as f64 / w.answered as f64);
        let total_cpu = p.sat_cost.cpu_us as f64 / answered.max(1) as f64;
        put_n(
            out,
            "cpu_us_per_op",
            over_windows(sat, &cpu, total_cpu),
            answered,
        );
        let (gets, puts) = (&p.cruise.get, &p.cruise.put);
        let get = over_windows(&p.cruise, &|w| w.get_p50.map(us), pcts(gets).p50);
        put_n(out, "get_p50_us", get, gets.len() as u64);
        let put_p50 = over_windows(&p.cruise, &|w| w.put_p50.map(us), pcts(puts).p50);
        put_n(out, "put_p50_us", put_p50, puts.len() as u64);
    }

    /// Whole-phase latency percentiles, the load steps and driver health.
    /// Returns whether the run is valid (the driver kept its schedule).
    fn load_curve(&mut self, p: &Phases) -> bool {
        let out = &mut self.per_layer;
        let (cruise, busy, sat) = (&p.cruise, &p.busy, &p.sat);
        put_n(
            out,
            "load.saturate_total_kops",
            sat.ok_by_deadline as f64 / sat.seconds.max(1e-9) / 1e3,
            sat.ok_by_deadline,
        );
        let (cg, cp, cs) = (pcts(&cruise.get), pcts(&cruise.put), pcts(&cruise.scan));
        put_n(out, "load.get_p99_us", cg.p99, cg.n);
        put_n(out, "load.put_p99_us", cp.p99, cp.n);
        // p99.9 only where ten samples lie beyond it; 0 otherwise.
        put_n(out, "load.get_p999_us", cg.p999.unwrap_or(0.0), cg.n);
        put_n(out, "load.put_p999_us", cp.p999.unwrap_or(0.0), cp.n);
        put_n(out, "load.scan_p50_us", cs.p50, cs.n);
        put_n(out, "load.scan_p99_us", cs.p99, cs.n);
        let (bg, bp, bs) = (pcts(&busy.get), pcts(&busy.put), pcts(&busy.scan));
        put_n(out, "load.busy_get_p99_us", bg.p99, bg.n);
        put_n(out, "load.busy_put_p99_us", bp.p99, bp.n);
        let growth = busy.backlog_end / busy.backlog_mean.max(1.0);
        put(out, "load.busy_backlog_growth", growth);
        let steps = (step_ok(cruise, &cg, &cp, &cs), step_ok(busy, &bg, &bp, &bs));
        let max_step_ok = match steps {
            (true, true) => 2.0,
            (true, false) => 1.0,
            _ => 0.0,
        };
        put(out, "load.max_step_ok", max_step_ok);

        let late = Sorted::new(cruise.lateness.clone());
        let lateness_p99 = us(late.quantile(0.99));
        put_n(
            out,
            "driver.lateness_p99_us",
            lateness_p99,
            late.len() as u64,
        );
        let backlog_max = cruise.backlog_max.max(busy.backlog_max);
        put(out, "driver.backlog_max", backlog_max as f64);

        for (kind, pcts) in [("GET", &cg), ("PUT", &cp), ("SCAN", &cs)] {
            if let Some((name, value)) = pcts.highest {
                self.notes.push(format!(
                    "cruise {kind}: whole-phase p50 {:.1} us; highest percentile with ten samples beyond it is {name} = {value:.1} us (n={})",
                    pcts.p50, pcts.n
                ));
            }
        }
        if !(cg.p99_supported && cp.p99_supported) {
            self.notes.push(format!(
                "p99 rests on fewer than ten samples beyond it (GET n={}, PUT n={}): run longer",
                cg.n, cp.n
            ));
        }
        self.notes.push(format!(
            "inputs: seed {} -> cruise op-stream hash {:016x}",
            self.a.seed,
            gen::stream_hash(&p.cruise_ops)
        ));
        let valid = lateness_p99 <= 1000.0;
        if !valid {
            self.notes.push(format!(
                "INVALID: cruise lateness p99 {lateness_p99:.0} us > 1000 us - this run measured the driver"
            ));
        }
        valid
    }

    /// Per-layer counts over the three timed phases, and the process
    /// budget of the saturate phase.
    fn counts(&mut self, p: &Phases) {
        let out = &mut self.per_layer;
        let sum = |of: &dyn Fn(&PhaseOut) -> u64| p.timed().iter().map(|ph| of(ph)).sum::<u64>();
        let seen = Observed {
            answered: sum(&|ph| ph.tally.sent - ph.tally.unanswered),
            busy: sum(&|ph| ph.tally.busy),
            sent: sum(&|ph| ph.tally.sent),
            user_bytes: sum(&|ph| ph.user_bytes),
            seconds: p.timed().iter().map(|ph| ph.seconds).sum(),
        };
        layers::count_metrics(out, &p.delta, &seen);
        let max = |of: &dyn Fn(&PhaseOut) -> i64| p.timed().iter().map(|ph| of(ph)).max();
        let inflight_max = max(&|ph| ph.inflight_max).unwrap_or(0);
        put(out, "admission.inflight_max", inflight_max as f64);
        let lag_max = max(&|ph| ph.repl_lag_max).unwrap_or(0);
        put(out, "repl.lag_rounds_max", lag_max as f64);

        let answered = p.sat.tally.sent - p.sat.tally.unanswered;
        let per_op = |n: u64| n as f64 / answered.max(1) as f64;
        let cost = &p.sat_cost;
        put_n(
            out,
            "process.ctx_switches_per_op",
            per_op(cost.ctx_switches),
            answered,
        );
        put_n(out, "process.allocs_per_op", per_op(cost.allocs), answered);
        put_n(
            out,
            "process.alloc_bytes_per_op",
            per_op(cost.alloc_bytes),
            answered,
        );
    }

    /// Depth-1 `ops`, each counted and checked; their request times, ns.
    fn depth1_all(driver: &mut Driver, ops: &[Op], tally: &mut Tally) -> Vec<u64> {
        ops.iter()
            .map(|op| {
                let d = driver.depth1(*op);
                tally.count(d.ok);
                d.done - d.start
            })
            .collect()
    }

    /// The traced part: pings, an untraced and a traced depth-1 segment
    /// with shadow calls, and the direct timings read off the spans.
    fn traced(&mut self, driver: &mut Driver, shadow_stores: Vec<Store>, p: &Phases) {
        let timer_ns = trace::timer_overhead_ns();
        let pings: Vec<u64> = (0..DEPTH1_SAMPLES).map(|_| driver.ping()).collect();
        let ping_p50 = us(Sorted::new(pings).quantile(0.5));
        let n = DEPTH1_SAMPLES as u64;
        put_n(
            &mut self.per_layer,
            "transport.ping_rtt_p50_us",
            ping_p50,
            n,
        );

        // Untraced depth-1 baseline for the tracing overhead.
        let plain_ops = self.stream.take(DEPTH1_SAMPLES);
        let plain_ns = Self::depth1_all(driver, &plain_ops, &mut self.total);

        let mut shadow = trace::Shadow::new(shadow_stores, self.w.value_len);
        for ops in p.sent_ops() {
            shadow.warm_cache(ops);
        }
        let trace_ops = self.stream.take(schema::TRACE_MAX_OPS);
        let budget = Duration::from_secs_f64(self.secs * schema::TRACE_SEGMENT_SHARE);
        let t = trace::traced_segment(driver, &mut shadow, &trace_ops, budget);
        self.total.sent += t.requests;
        self.total.ok += t.requests - t.failed;
        self.total.wrong += t.failed;

        let path = self.a.out_dir.join(format!("trace_{}.json", self.w.name));
        let tr = &t.trace;
        self.notes.push(
            match tr.write_json(&path, self.w.name, self.a.seed, timer_ns) {
                Ok(()) => format!(
                    "trace: {} requests, {} spans -> {}",
                    t.requests,
                    tr.spans.len(),
                    path.display()
                ),
                Err(e) => format!("trace: cannot write {}: {e}", path.display()),
            },
        );
        let (whole, parts) = tr.sum_check();
        self.notes.push(format!(
            "trace: residual + shadow + protocol spans = {parts} ns of {whole} ns request time ({:.4})",
            parts as f64 / whole.max(1) as f64
        ));

        let out = &mut self.per_layer;
        for (metric, span) in [
            ("protocol.encode_req_ns", "protocol.encode"),
            ("protocol.decode_req_ns", "protocol.decode_req"),
            ("protocol.encode_resp_ns", "protocol.encode_resp"),
            ("protocol.decode_resp_ns", "protocol.decode"),
            ("hotcache.probe_hit_ns", "hotcache.probe_hit"),
            ("hotcache.probe_miss_ns", "hotcache.probe_miss"),
            ("hotcache.fill_ns", "hotcache.fill"),
            ("hotcache.publish_ns_per_write", "hotcache.publish"),
        ] {
            let (mean, n) = tr.mean_ns(span, timer_ns);
            put_n(out, metric, mean, n);
        }
        for (wall, sim, span) in [
            ("core.put_wall_ns_p50", "core.put_sim_ns_mean", "core.put"),
            ("core.get_wall_ns_p50", "core.get_sim_ns_mean", "core.get"),
        ] {
            let (p50, n) = tr.p50_ns(span);
            put_n(out, wall, p50, n);
            put_n(out, sim, tr.mean_sim_ns(span), n);
        }
        let (scan_p50, n) = tr.p50_ns("core.scan");
        put_n(out, "core.scan_wall_us_p50", scan_p50 / 1e3, n);
        let residuals = tr.residuals();
        let residual_mean = residuals.iter().sum::<i64>() as f64 / residuals.len().max(1) as f64;
        let n = residuals.len() as u64;
        put_n(out, "transport.residual_us", residual_mean / 1e3, n);

        // What a PUT costs above the bare round trip and the engine call:
        // decode, admission, queue hand-off, committer wake-up, round
        // publication, ack routing (and the quorum wait on mixed_repl).
        let put_wire_p50 = us(Sorted::new(t.put_wire_ns.clone()).quantile(0.5));
        let overhead = put_wire_p50 - ping_p50 - tr.p50_ns("core.put").0 / 1e3;
        let n = t.put_wire_ns.len() as u64;
        put_n(out, "shard.put_overhead_us", overhead, n);

        let mut traced_ns = t.get_ns.clone();
        traced_ns.extend_from_slice(&t.put_ns);
        let plain_p50 = Sorted::new(plain_ns).quantile(0.5) as f64;
        let traced_p50 = Sorted::new(traced_ns).quantile(0.5) as f64;
        let overhead_pct = (traced_p50 / plain_p50.max(1.0) - 1.0) * 100.0;
        put_n(out, "driver.trace_overhead_pct", overhead_pct, t.requests);

        layers::simulator_host_cost(out);

        // Sync replication's price: the same depth-1 PUTs on the replicated
        // primary and on an unreplicated server over the shadow engine.
        let mut extra = 0.0;
        if self.w.replicated {
            let mut puts = self.stream.take(4 * DEPTH1_SAMPLES);
            puts.retain(|o| o.kind == OpKind::Put);
            puts.truncate(DEPTH1_SAMPLES);
            let p50 = |ns: Vec<u64>| us(Sorted::new(ns).quantile(0.5));
            let replicated = p50(Self::depth1_all(driver, &puts, &mut self.total));
            let shadow_stores = std::mem::take(&mut shadow.stores);
            let plain_sut = process::below_driver(|| Sut::standalone(shadow_stores));
            let model = Model::new(self.keys, self.w.value_len);
            let mut plain_driver = Driver::connect(plain_sut.addr, model, None);
            let plain = p50(Self::depth1_all(&mut plain_driver, &puts, &mut self.total));
            drop(plain_driver);
            drop(plain_sut.shutdown());
            extra = replicated - plain;
        }
        put_n(
            &mut self.per_layer,
            "repl.sync_put_extra_us",
            extra,
            DEPTH1_SAMPLES as u64,
        );

        // The live engine was written to by the depth-1 segments: check it
        // once more before it is torn down.
        let tally = read_back(driver, self.a.seed ^ 1);
        self.total.add(&tally);
    }

    /// The closing audits: the follower read-back on a replicated
    /// workload, the crash audit where the workload asks for one, the
    /// layers' own tripwires — and the verdict.
    fn finish(mut self, sut: Sut, driver: Driver, valid: bool) -> RunResult {
        let a = self.a;
        // A synchronous ack means durable on the follower: read the same
        // keys from the follower and hold them to the same versions.
        let mut model = driver.into_model();
        if let Some((_, follower_addr)) = &sut.follower {
            let mut fd = Driver::connect(*follower_addr, model, None);
            let tally = read_back(&mut fd, a.seed);
            self.total.add(&tally);
            model = fd.into_model();
        }

        let stores = sut.shutdown();
        let mut recovery_ms = 0.0;
        let (mut audited, mut audit_failed) = (0, 0);
        if self.w.crash_audit {
            (audited, audit_failed, recovery_ms) = crash_audit(stores, &model, a.seed);
            self.notes.push(format!(
                "crash audit: {} of {audited} acked writes intact after power_fail + recover ({recovery_ms:.0} ms)",
                audited - audit_failed
            ));
        }
        put(&mut self.per_layer, "core.recovery_ms", recovery_ms);

        let total = &self.total;
        let attempted = total.sent + audited;
        let failed = total.failed() + audit_failed;
        let failed_ratio = failed as f64 / attempted.max(1) as f64;
        put_n(
            &mut self.per_layer,
            "load.failed_ratio",
            failed_ratio,
            attempted,
        );
        if total.failed() > 0 {
            self.notes.push(format!(
                "failures: busy {} error {} wrong {} unanswered {}",
                total.busy, total.errors, total.wrong, total.unanswered
            ));
        }
        // Tripwires the layers keep for themselves count as correctness too.
        let tripped: Vec<&str> = [
            "hotcache.tripwire",
            "repl.tripwire",
            "repl.link_failures",
            "core.read.core_lock_acquisitions",
            "core.housekeeping.inline_merges",
        ]
        .into_iter()
        .filter(|n| self.per_layer[n].value != 0.0)
        .collect();
        if !tripped.is_empty() {
            self.notes
                .push(format!("tripwires fired: {}", tripped.join(", ")));
        }

        RunResult {
            workload: self.w.name,
            correct: failed == 0 && tripped.is_empty(),
            valid,
            attempted,
            failed,
            end_to_end: self.end_to_end,
            per_layer: self.per_layer,
            notes: self.notes,
        }
    }
}

fn run_workload(w: &'static Workload, a: &Args) -> RunResult {
    let keys = if a.quick { w.keys / 4 } else { w.keys };
    let mut run = Run {
        w,
        a,
        keys,
        secs: if a.quick { a.seconds / 10.0 } else { a.seconds },
        stream: TimedStream {
            stream: OpStream::new(a.seed, w.mix, keys),
            gen_ns: 0,
            generated: 0,
        },
        total: Tally::default(),
        end_to_end: Metrics::new(),
        per_layer: Metrics::new(),
        notes: Vec::new(),
    };
    let (sut, mut driver) = run.set_up();
    // The traced run replays ops on a second, identically preloaded engine.
    let shadow_stores = a
        .trace
        .then(|| process::below_driver(|| build_stores(keys, w.value_len)));

    let phases = run.phases(&sut, &mut driver);
    run.end_to_end(&phases);
    let valid = run.load_curve(&phases);
    run.counts(&phases);
    // Correctness: read seeded keys back over the wire.
    let tally = read_back(&mut driver, a.seed);
    run.total.add(&tally);
    if let Some(shadow_stores) = shadow_stores {
        run.traced(&mut driver, shadow_stores, &phases);
    }
    let gen_ns = run.stream.gen_ns as f64 / run.stream.generated.max(1) as f64;
    let generated = run.stream.generated;
    put_n(
        &mut run.per_layer,
        "driver.gen_ns_per_op",
        gen_ns,
        generated,
    );
    run.finish(sut, driver, valid)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_metrics(workload: &str, metrics: &Metrics) {
    for (name, m) in metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!("{workload} {name} {:.4} {}{n}", m.value, unit_of(name));
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` for the listed names, which
/// must all be present: a run that cannot report a metric of the contract
/// is a bug, not a gap.
fn metrics_json<'a>(names: impl Iterator<Item = &'a str>, from: &Metrics) -> Json {
    Json::Obj(
        names
            .map(|name| {
                let m = from
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} not measured"));
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit_of(name).into())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The result object of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics` (end-to-end untraced, per-layer traced) — plus a
/// `quick` stamp on output that must never be recorded.
fn result_json(r: &RunResult, a: &Args) -> Json {
    let metrics = if a.trace {
        metrics_json(PER_LAYER.iter().map(|p| p.name), &r.per_layer)
    } else {
        metrics_json(END_TO_END.iter().map(|e| e.name), &r.end_to_end)
    };
    let mut fields = vec![
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::UInt(r.attempted)),
        ("failed", Json::UInt(r.failed)),
        ("metrics", metrics),
    ];
    if a.quick {
        fields.push(("quick", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// min / median / max / spread of every metric over the repeats.
fn print_spreads(results: &[RunResult], a: &Args) -> Json {
    let mut rows = Vec::new();
    for w in &a.workloads {
        let runs: Vec<&RunResult> = results.iter().filter(|r| r.workload == w.name).collect();
        let names: Vec<&str> = if a.trace {
            PER_LAYER.iter().map(|p| p.name).collect()
        } else {
            END_TO_END.iter().map(|e| e.name).collect()
        };
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.end_to_end.get(name).or(r.per_layer.get(name)))
                .map(|m| m.value)
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (median, spread) = (stats::median(&values), stats::spread(&values));
            println!(
                "{} {name} min {min:.4} median {median:.4} max {max:.4} {} spread {:.1}% runs={}",
                w.name,
                unit_of(name),
                spread * 100.0,
                values.len()
            );
            rows.push(Json::obj(vec![
                ("workload", Json::Str(w.name.into())),
                ("metric", Json::Str(name.into())),
                ("min", Json::Num(min)),
                ("median", Json::Num(median)),
                ("max", Json::Num(max)),
                ("spread", Json::Num(spread)),
                ("runs", Json::UInt(values.len() as u64)),
            ]));
        }
    }
    Json::Arr(rows)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.quick {
        println!("quick: true (phases / 10, a quarter of the keys - not for the record)");
    }
    let mut results = Vec::new();
    for run in 0..args.repeat {
        for w in &args.workloads {
            if args.repeat > 1 {
                println!("# run {} of {}", run + 1, args.repeat);
            }
            let r = run_workload(w, &args);
            print_metrics(r.workload, &r.end_to_end);
            print_metrics(r.workload, &r.per_layer);
            for note in &r.notes {
                println!("{} # {note}", r.workload);
            }
            println!(
                "{} correct {} valid {} attempted {} failed {}",
                r.workload, r.correct, r.valid, r.attempted, r.failed
            );
            results.push(r);
        }
    }
    let all_correct = results.iter().all(|r| r.correct);
    if results.len() == 1 {
        println!("{}", result_json(&results[0], &args));
    } else {
        let spreads = if args.repeat > 1 {
            print_spreads(&results, &args)
        } else {
            Json::Arr(Vec::new())
        };
        let runs = results
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::Str(r.workload.into())),
                    ("valid", Json::Bool(r.valid)),
                    ("result", result_json(r, &args)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("seed", Json::UInt(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("quick", Json::Bool(args.quick)),
            ("correct", Json::Bool(all_correct)),
            ("runs", Json::Arr(runs)),
            ("spreads", spreads),
        ]);
        println!("{doc}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Args {
        Args {
            workloads: vec![schema::workload(workload).unwrap()],
            seed: 3,
            // Quick mode divides by ten: 0.1 s of measured phases.
            seconds: 1.0,
            trace,
            repeat: 1,
            quick: true,
            out_dir: std::env::temp_dir().join(format!("kvbench_test_{}", std::process::id())),
        }
    }

    fn parsed(r: &RunResult, a: &Args) -> Json {
        Json::parse(&result_json(r, a).to_string()).expect("result line is valid JSON")
    }

    /// The whole untraced pipeline at toy scale, on the workload with the
    /// most audits: every end-to-end metric is reported and non-zero, the
    /// crash audit ran, and the result line has the contract's shape.
    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let a = tiny("write_ingest", false);
        let r = run_workload(a.workloads[0], &a);
        assert!(r.correct, "notes: {:?}", r.notes);
        assert_eq!(r.failed, 0);
        assert!(r
            .notes
            .iter()
            .any(|n| n.starts_with("crash audit: 1000 of 1000")));
        let doc = parsed(&r, &a);
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics", "quick"]);
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for e in &END_TO_END {
            let m = &metrics[e.name];
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(e.unit));
            // A gated metric must never be 0.
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{} is 0",
                e.name
            );
        }
    }

    /// The traced pipeline: every per-layer metric is reported, the span
    /// file is written, and its parts sum to the request spans.
    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let a = tiny("read_hot", true);
        let r = run_workload(a.workloads[0], &a);
        assert!(r.correct, "notes: {:?}", r.notes);
        let doc = parsed(&r, &a);
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        for p in &PER_LAYER {
            assert!(metrics.contains_key(p.name), "{} missing", p.name);
        }
        for name in [
            "transport.ping_rtt_p50_us",
            "core.get_wall_ns_p50",
            "llc.load_host_ns",
        ] {
            assert!(r.per_layer[name].value > 0.0, "{name} is 0");
        }
        let path = a.out_dir.join("trace_read_hot.json");
        let trace = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&a.out_dir).unwrap();
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        let ns = |s: &Json| {
            s.get("end_ns").and_then(Json::as_u64).unwrap() as i64
                - s.get("start_ns").and_then(Json::as_u64).unwrap() as i64
        };
        let named = |n: &str| -> i64 {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .map(ns)
                .sum()
        };
        assert!(named("request") > 0);
        assert_eq!(
            named("request"),
            named("protocol.encode") + named("wire") + named("protocol.decode")
        );
    }
}
