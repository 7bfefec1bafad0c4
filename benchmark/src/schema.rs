//! The benchmark's contract in one place: workloads with their reasons and
//! frozen rates, every end-to-end metric with its bound, every per-layer
//! metric with its layer and the end-to-end metric it should move.
//! `BENCHMARK.json` is printed from these tables (`--emit-benchmark-json`)
//! and a test keeps the checked-in file equal to them.

use crate::gen::{KeyDist, Mix};

/// Measured seconds of one run (`run_seconds`), split over the phases.
pub const RUN_SECONDS: u64 = 16;

/// Shares of the measured seconds. Warm-up comes before and is not counted.
pub const CRUISE_SHARE: f64 = 0.4;
pub const BUSY_SHARE: f64 = 0.2;
pub const SATURATE_SHARE: f64 = 0.4;
/// Warm-up length as a share of the measured seconds.
pub const WARMUP_SHARE: f64 = 0.1;
/// With `--trace 1` the three phases shrink to this share of their length;
/// the rest of the run goes to the depth-1 traced segment and the direct
/// layer calls.
pub const TRACED_PHASE_SHARE: f64 = 0.7;
/// Share of the measured seconds the traced depth-1 segment may take.
pub const TRACE_SEGMENT_SHARE: f64 = 0.15;
/// Ops of the seeded stream the traced segment covers at most.
pub const TRACE_MAX_OPS: usize = 20_000;

/// Latency limits that mark a load step `ok` (p99 from intended send time).
pub const LIMIT_POINT_US: f64 = 5_000.0;
pub const LIMIT_SCAN_US: f64 = 20_000.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    pub keys: u32,
    pub value_len: usize,
    pub replicated: bool,
    /// End with the crash audit (power-fail, recover, verify acked writes).
    pub crash_audit: bool,
    /// Open-loop rates, ops/s: ≈ 40 % and ≈ 70 % of the saturation this
    /// repo's seed reached on the 2-core box the benchmark was frozen on.
    /// Constants, never derived at run time, so parent and change see the
    /// same offered load.
    pub cruise_rate: f64,
    pub busy_rate: f64,
}

#[rustfmt::skip]
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        why: "95% GET / 5% PUT zipfian over 200k x 100 B: protocol, event loop, reply path and the 16 MiB HotCache carry the load (hit ratio 0.50), the engine serves the rest from in-memory indexes",
        mix: Mix {
            get_pct: 95,
            put_pct: 5,
            dist: KeyDist::Zipfian(0.99),
            get_recent: false,
        },
        keys: 200_000,
        value_len: 100,
        replicated: false,
        crash_audit: false,
        cruise_rate: 25_000.0,
        busy_rate: 35_000.0,
    },
    Workload {
        name: "read_cold",
        why: "95% GET uniform over 300k x 200 B (4x the hot cache): same opcode, opposite layer - reads fall through to the global index, sstables and the LLC/PMem simulator",
        mix: Mix {
            get_pct: 95,
            put_pct: 5,
            dist: KeyDist::Uniform,
            get_recent: false,
        },
        keys: 300_000,
        value_len: 200,
        replicated: false,
        crash_audit: false,
        cruise_rate: 7_000.0,
        busy_rate: 10_000.0,
    },
    Workload {
        name: "write_ingest",
        why: "95% PUT uniform over 200k x 100 B + 5% GET of just-written keys: group commit, seal/copy-flush/SC/L0 dump, compaction and PMem write combining run many cycles; ends with a crash audit",
        mix: Mix {
            get_pct: 5,
            put_pct: 95,
            dist: KeyDist::Uniform,
            get_recent: true,
        },
        keys: 200_000,
        value_len: 100,
        replicated: false,
        crash_audit: true,
        cruise_rate: 6_000.0,
        busy_rate: 10_000.0,
    },
    Workload {
        name: "mixed_repl",
        why: "50% GET / 45% PUT / 5% SCAN zipfian on a sync-replicated primary: every layer on, and the only workload with the repl quorum wait and the scan cursor + cross-shard merge",
        mix: Mix {
            get_pct: 50,
            put_pct: 45,
            dist: KeyDist::Zipfian(0.99),
            get_recent: false,
        },
        keys: 200_000,
        value_len: 100,
        replicated: true,
        crash_audit: false,
        cruise_rate: 1_500.0,
        busy_rate: 2_500.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Bounds. Every one is the contract's maximum, 25 %: over two sets of
/// ten seeds on the 2-core shared box the benchmark was frozen on, the
/// spread (interquartile range over median) of each metric reached 8 %
/// (`setup_s`), 10 % (`throughput_kops`, `cpu_us_per_op`) and 19 % (the
/// two medians) on its worst workload, and 15 % for throughput in a noisy
/// half hour — the box resolves no less. `get_p99_us`, `put_p99_us` and
/// `media_bytes_per_user_byte` were candidates; their spreads (33–500 %,
/// and a value of 0 on two workloads) made them per-layer metrics.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "throughput_kops", unit: "kops", better: Higher, bound: 0.25 },
    EndToEnd { name: "get_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "put_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Module the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric (and workload) it is expected to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const HOT: &str = "cpu_us_per_op, throughput_kops on read_hot";
const HOT_GET: &str = "get_p50_us, throughput_kops on read_hot";
const ADMIT: &str = "failed count on every workload";
const INGEST: &str = "throughput_kops, put_p50_us on write_ingest";
const REPL: &str = "put_p50_us, throughput_kops on mixed_repl";
const COLD_GET: &str = "get_p50_us, throughput_kops on read_cold";
const INGEST_TPUT: &str = "throughput_kops on write_ingest";
const STALL: &str = "load.put_p99_us on write_ingest";
const LSM_MOVES: &str = "throughput_kops on write_ingest; load.get_p99_us on read_cold";
const LLC_MOVES: &str = "cpu_us_per_op, throughput_kops on read_cold";
const PMEM_W: &str = "throughput_kops on write_ingest";
const CPU_ALL: &str = "cpu_us_per_op on every workload";
const NONE: &str = "none (driver health)";
const INFO: &str = "none (informational)";

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 103] = [
    // server.protocol
    m("protocol.encode_req_ns", "ns", Lower, "server.protocol", HOT),
    m("protocol.decode_req_ns", "ns", Lower, "server.protocol", HOT),
    m("protocol.encode_resp_ns", "ns", Lower, "server.protocol", HOT),
    m("protocol.decode_resp_ns", "ns", Lower, "server.protocol", HOT),
    m("protocol.wire_bytes_per_op", "B", Lower, "server.protocol", HOT),
    // server.transport + event_loop
    m("transport.ping_rtt_p50_us", "us", Lower, "server.transport", HOT_GET),
    m("transport.residual_us", "us", Lower, "server.transport", HOT_GET),
    m("process.ctx_switches_per_op", "count", Lower, "server.transport", "get_p50_us on read_hot; put_p50_us on write_ingest"),
    // server.server (admission)
    m("admission.sheds", "count", Lower, "server.server", ADMIT),
    m("admission.busy_ratio", "ratio", Lower, "server.server", ADMIT),
    m("admission.inflight_max", "count", Lower, "server.server", ADMIT),
    // server.cache (HotCache)
    m("hotcache.hit_ratio", "ratio", Higher, "server.cache", HOT_GET),
    m("hotcache.evictions", "count", Lower, "server.cache", HOT_GET),
    m("hotcache.invalidations", "count", Lower, "server.cache", HOT_GET),
    m("hotcache.fill_races", "count", Lower, "server.cache", HOT_GET),
    m("hotcache.admission_rejects", "count", Lower, "server.cache", HOT_GET),
    m("hotcache.tripwire", "count", Lower, "server.cache", "must stay 0"),
    m("hotcache.probe_hit_ns", "ns", Lower, "server.cache", HOT_GET),
    m("hotcache.probe_miss_ns", "ns", Lower, "server.cache", HOT_GET),
    m("hotcache.fill_ns", "ns", Lower, "server.cache", HOT_GET),
    m("hotcache.publish_ns_per_write", "ns", Lower, "server.cache", "put_p50_us on write_ingest, mixed_repl"),
    // server.shard
    m("shard.round_batch_mean", "count", Higher, "server.shard", INGEST),
    m("shard.round_batch_p50", "count", Higher, "server.shard", INGEST),
    m("shard.commits_per_s", "1/s", Lower, "server.shard", INGEST),
    m("shard.queue_depth_p99", "count", Lower, "server.shard", INGEST),
    m("shard.backpressure_waits", "count", Lower, "server.shard", INGEST),
    m("shard.put_overhead_us", "us", Lower, "server.shard", INGEST),
    // server.repl
    m("repl.rounds_shipped", "count", Lower, "server.repl", REPL),
    m("repl.quorum_acks", "count", Higher, "server.repl", REPL),
    m("repl.lag_rounds_max", "count", Lower, "server.repl", REPL),
    m("repl.link_failures", "count", Lower, "server.repl", "must stay 0"),
    m("repl.tripwire", "count", Lower, "server.repl", "must stay 0"),
    m("repl.sync_put_extra_us", "us", Lower, "server.repl", REPL),
    // core: direct calls on the shadow engine
    m("core.put_wall_ns_p50", "ns", Lower, "core", INGEST_TPUT),
    m("core.put_sim_ns_mean", "ns", Lower, "core", INGEST_TPUT),
    m("core.get_wall_ns_p50", "ns", Lower, "core", COLD_GET),
    m("core.get_sim_ns_mean", "ns", Lower, "core", COLD_GET),
    m("core.scan_wall_us_p50", "us", Lower, "core", "throughput_kops on mixed_repl"),
    // core: phase shares of the live engine
    m("core.put.lock_wait_share", "ratio", Lower, "core", INGEST_TPUT),
    m("core.put.alloc_share", "ratio", Lower, "core", INGEST_TPUT),
    m("core.put.index_update_share", "ratio", Lower, "core", INGEST_TPUT),
    m("core.put.data_copy_share", "ratio", Lower, "core", INGEST_TPUT),
    m("core.put.persist_share", "ratio", Lower, "core", INGEST_TPUT),
    m("core.get.active_probe_share", "ratio", Lower, "core", COLD_GET),
    m("core.get.imm_probe_share", "ratio", Lower, "core", COLD_GET),
    m("core.get.global_probe_share", "ratio", Lower, "core", COLD_GET),
    m("core.get.lsm_probe_share", "ratio", Lower, "core", COLD_GET),
    // core: counts
    m("core.read.probes_per_get", "count", Lower, "core", COLD_GET),
    m("core.read.bloom_skips_per_get", "count", Higher, "core", COLD_GET),
    m("core.read.lsm_short_circuit_ratio", "ratio", Higher, "core", COLD_GET),
    m("core.seals", "count", Lower, "core", INGEST_TPUT),
    m("core.steals", "count", Lower, "core", INGEST_TPUT),
    m("core.flushes", "count", Lower, "core", INGEST_TPUT),
    m("core.flushed_bytes", "B", Lower, "core", INGEST_TPUT),
    m("core.flush_ns_p50", "ns", Lower, "core", INGEST_TPUT),
    m("core.liu.syncs", "count", Lower, "core", INGEST_TPUT),
    m("core.sc.merges", "count", Lower, "core", INGEST_TPUT),
    m("core.sc.merge_bytes", "B", Lower, "core", INGEST_TPUT),
    m("core.l0.dumps", "count", Lower, "core", INGEST_TPUT),
    m("core.housekeeping.put_stalls", "count", Lower, "core", STALL),
    m("core.housekeeping.put_stall_ms", "ms", Lower, "core", STALL),
    m("core.read.core_lock_acquisitions", "count", Lower, "core", "must stay 0"),
    m("core.housekeeping.inline_merges", "count", Lower, "core", "must stay 0"),
    m("core.recovery_ms", "ms", Lower, "core", "guards work moved into recovery (write_ingest)"),
    // lsm
    m("lsm.ingest_bytes", "B", Lower, "lsm", LSM_MOVES),
    m("lsm.compactions", "count", Lower, "lsm", LSM_MOVES),
    m("lsm.compact_bytes_in", "B", Lower, "lsm", LSM_MOVES),
    m("lsm.compact_bytes_out", "B", Lower, "lsm", LSM_MOVES),
    m("lsm.compaction_ns_p50", "ns", Lower, "lsm", LSM_MOVES),
    m("lsm.write_amp", "B/B", Lower, "lsm", LSM_MOVES),
    // cache (LLC simulator)
    m("llc.load_hit_ratio", "ratio", Higher, "cache", LLC_MOVES),
    m("llc.dirty_evictions", "count", Lower, "cache", LLC_MOVES),
    m("llc.nt_lines", "count", Lower, "cache", LLC_MOVES),
    m("llc.flush_ops", "count", Lower, "cache", "the flush policy: one clwb per flush-log record, none per put (eADR)"),
    m("llc.locked_hits", "count", Higher, "cache", LLC_MOVES),
    m("llc.store_host_ns", "ns", Lower, "cache", LLC_MOVES),
    m("llc.load_host_ns", "ns", Lower, "cache", LLC_MOVES),
    // pmem
    m("pmem.write_hit_ratio", "ratio", Higher, "pmem", PMEM_W),
    m("pmem.rmw_evictions", "count", Lower, "pmem", PMEM_W),
    m("pmem.media_read_bytes_per_get", "B", Lower, "pmem", "get_p50_us on read_cold"),
    m("pmem.media_bytes_per_user_byte", "B/B", Lower, "pmem", PMEM_W),
    m("pmem.sim_ns_per_op", "ns", Lower, "pmem", "throughput_kops on write_ingest, read_cold (simulated time)"),
    m("pmem.write_cacheline_host_ns", "ns", Lower, "pmem", LLC_MOVES),
    m("pmem.read_256_host_ns", "ns", Lower, "pmem", LLC_MOVES),
    // obs
    m("obs.histogram_record_ns", "ns", Lower, "obs", CPU_ALL),
    // process budget
    m("process.allocs_per_op", "count", Lower, "process", CPU_ALL),
    m("process.alloc_bytes_per_op", "B", Lower, "process", CPU_ALL),
    // driver health
    m("driver.lateness_p99_us", "us", Lower, "driver", NONE),
    m("driver.backlog_max", "count", Lower, "driver", NONE),
    m("driver.gen_ns_per_op", "ns", Lower, "driver", NONE),
    m("driver.trace_overhead_pct", "%", Lower, "driver", NONE),
    // load curve
    m("load.saturate_total_kops", "kops", Higher, "load", INFO),
    m("load.get_p99_us", "us", Lower, "load", INFO),
    m("load.put_p99_us", "us", Lower, "load", INFO),
    m("load.busy_get_p99_us", "us", Lower, "load", INFO),
    m("load.busy_put_p99_us", "us", Lower, "load", INFO),
    m("load.busy_backlog_growth", "ratio", Lower, "load", INFO),
    m("load.max_step_ok", "count", Higher, "load", INFO),
    m("load.get_p999_us", "us", Lower, "load", INFO),
    m("load.put_p999_us", "us", Lower, "load", INFO),
    m("load.scan_p50_us", "us", Lower, "load", INFO),
    m("load.scan_p99_us", "us", Lower, "load", INFO),
    m("load.failed_ratio", "ratio", Lower, "load", ADMIT),
];

/// Every metric with its layer and what it should move, as the markdown
/// table the README carries.
pub fn metrics_table() -> String {
    let mut s = String::from("| metric | unit | better | bound |\n|---|---|---|---|\n");
    for e in &END_TO_END {
        s += &format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound * 100.0
        );
    }
    s += "\n| layer | metric | unit | better | should move |\n|---|---|---|---|---|\n";
    for p in &PER_LAYER {
        s += &format!(
            "| {} | `{}` | {} | {} | {} |\n",
            p.layer,
            p.name,
            p.unit,
            p.better.as_str(),
            p.moves
        );
    }
    s
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(e.name),
                q(e.unit),
                q(e.better.as_str()),
                e.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(p.name),
                q(p.unit),
                q(p.better.as_str())
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn schema_fits_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
            assert!(w.cruise_rate < w.busy_rate);
        }
        for e in &END_TO_END {
            assert!(name_ok(e.name) && unit_ok(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(names.insert(e.name), "duplicate {}", e.name);
        }
        for p in &PER_LAYER {
            assert!(name_ok(p.name) && unit_ok(p.unit), "{}", p.name);
            assert!(names.insert(p.name), "duplicate {}", p.name);
            assert!(!p.layer.is_empty() && !p.moves.is_empty());
        }
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 << 10);
        let shares = CRUISE_SHARE + BUSY_SHARE + SATURATE_SHARE;
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `kvbench --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
