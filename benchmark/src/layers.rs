//! Per-layer metrics: the ones that are counter deltas over the timed
//! phases, and the host-cost micro-measurements of the simulator layers.

use crate::sut::{counter, histogram, Counters};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_obs::Histogram;
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice, CACHELINE};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    /// How many samples a timing or ratio rests on, where that is known.
    pub samples: Option<u64>,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn put(out: &mut Metrics, name: &'static str, value: f64) {
    out.insert(
        name,
        Metric {
            value,
            samples: None,
        },
    );
}

pub fn put_n(out: &mut Metrics, name: &'static str, value: f64, samples: u64) {
    out.insert(
        name,
        Metric {
            value,
            samples: Some(samples),
        },
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the driver saw over the phases `delta` covers.
pub struct Observed {
    /// Requests answered (any outcome).
    pub answered: u64,
    pub busy: u64,
    pub sent: u64,
    /// Key + value bytes of acknowledged PUTs.
    pub user_bytes: u64,
    pub seconds: f64,
}

/// Every per-layer metric that is a counter delta, a ratio of deltas or a
/// percentile of a histogram delta.
pub fn count_metrics(out: &mut Metrics, d: &Counters, seen: &Observed) {
    let srv = |n: &str| counter(&d.server, n);
    let core = |n: &str| counter(&d.core, n);
    let lsm = |n: &str| counter(&d.lsm, n);
    let ops = seen.answered;

    let (wire, requests) = (
        srv("server.bytes_in") + srv("server.bytes_out"),
        srv("server.requests"),
    );
    put_n(
        out,
        "protocol.wire_bytes_per_op",
        ratio(wire, requests),
        requests,
    );

    // Plain deltas of the server's own counters.
    for (metric, counter) in [
        ("admission.sheds", "server.sheds"),
        ("hotcache.evictions", "server.cache.evictions"),
        ("hotcache.invalidations", "server.cache.invalidations"),
        ("hotcache.fill_races", "server.cache.fill_races"),
        (
            "hotcache.admission_rejects",
            "server.cache.admission_rejects",
        ),
        ("hotcache.tripwire", "server.cache.tripwire"),
        ("shard.backpressure_waits", "server.backpressure_waits"),
        ("repl.rounds_shipped", "server.repl.rounds_shipped"),
        ("repl.quorum_acks", "server.repl.quorum_acks"),
        ("repl.link_failures", "server.repl.link_failures"),
        ("repl.tripwire", "server.repl.tripwire"),
    ] {
        put(out, metric, srv(counter) as f64);
    }
    let busy_ratio = ratio(seen.busy, seen.sent);
    put_n(out, "admission.busy_ratio", busy_ratio, seen.sent);
    let (hits, misses) = (srv("server.cache.hits"), srv("server.cache.misses"));
    let lookups = hits + misses;
    put_n(out, "hotcache.hit_ratio", ratio(hits, lookups), lookups);

    let batch = histogram(&d.server, "server.group_commit.batch_size");
    put_n(out, "shard.round_batch_mean", batch.mean(), batch.count);
    let batch_p50 = batch.p50() as f64;
    put_n(out, "shard.round_batch_p50", batch_p50, batch.count);
    let commits = srv("server.group_commit.commits") as f64;
    put(out, "shard.commits_per_s", commits / seen.seconds.max(1e-9));
    let depth = histogram(&d.server, "server.group_commit.queue_depth");
    let depth_p99 = depth.p99() as f64;
    put_n(out, "shard.queue_depth_p99", depth_p99, depth.count);

    phase_shares(
        out,
        d,
        "core.put",
        &[
            ("lock_wait", "core.put.lock_wait_share"),
            ("alloc", "core.put.alloc_share"),
            ("index_update", "core.put.index_update_share"),
            ("data_copy", "core.put.data_copy_share"),
            ("persist", "core.put.persist_share"),
        ],
    );
    phase_shares(
        out,
        d,
        "core.get",
        &[
            ("active_probe", "core.get.active_probe_share"),
            ("imm_probe", "core.get.imm_probe_share"),
            ("global_probe", "core.get.global_probe_share"),
            ("lsm_probe", "core.get.lsm_probe_share"),
        ],
    );

    let gets = core("core.gets");
    for (metric, counter) in [
        ("core.read.probes_per_get", "core.read.probes"),
        ("core.read.bloom_skips_per_get", "core.read.bloom_skips"),
        (
            "core.read.lsm_short_circuit_ratio",
            "core.read.lsm_short_circuits",
        ),
    ] {
        put_n(out, metric, ratio(core(counter), gets), gets);
    }
    for name in [
        "core.seals",
        "core.steals",
        "core.flushes",
        "core.flushed_bytes",
        "core.liu.syncs",
        "core.sc.merges",
        "core.sc.merge_bytes",
        "core.l0.dumps",
        "core.housekeeping.put_stalls",
        "core.read.core_lock_acquisitions",
        "core.housekeeping.inline_merges",
    ] {
        put(out, name, core(name) as f64);
    }
    let flush = histogram(&d.core, "core.flush_ns");
    put_n(out, "core.flush_ns_p50", flush.p50() as f64, flush.count);
    let stall_ms = core("core.housekeeping.put_stall_ns") as f64 / 1e6;
    put(out, "core.housekeeping.put_stall_ms", stall_ms);

    for name in [
        "lsm.ingest_bytes",
        "lsm.compactions",
        "lsm.compact_bytes_in",
        "lsm.compact_bytes_out",
    ] {
        put(out, name, lsm(name) as f64);
    }
    let compaction = histogram(&d.lsm, "lsm.compaction_ns");
    let compaction_p50 = compaction.p50() as f64;
    put_n(
        out,
        "lsm.compaction_ns_p50",
        compaction_p50,
        compaction.count,
    );
    let lsm_written = lsm("lsm.ingest_bytes") + lsm("lsm.compact_bytes_out");
    put(out, "lsm.write_amp", ratio(lsm_written, seen.user_bytes));

    let hw = |n: &str| counter(&d.hw, n);
    let loads = hw("llc.load_hits") + hw("llc.load_misses");
    put_n(
        out,
        "llc.load_hit_ratio",
        ratio(hw("llc.load_hits"), loads),
        loads,
    );
    for name in [
        "llc.dirty_evictions",
        "llc.nt_lines",
        "llc.flush_ops",
        "llc.locked_hits",
        "pmem.rmw_evictions",
    ] {
        put(out, name, hw(name) as f64);
    }
    // Fig. 4: the share of arriving cache lines that hit an open XPLine.
    let arrivals = hw("pmem.xpbuffer_hits") + hw("pmem.xpbuffer_misses");
    let write_hits = ratio(hw("pmem.xpbuffer_hits"), arrivals);
    put_n(out, "pmem.write_hit_ratio", write_hits, arrivals);
    let server_gets = srv("server.gets");
    let read_per_get = ratio(hw("pmem.media_read_bytes"), server_gets);
    put_n(
        out,
        "pmem.media_read_bytes_per_get",
        read_per_get,
        server_gets,
    );
    // The paper's Ob1 cost: bytes reaching the media per user byte acked.
    let media_per_user = ratio(hw("pmem.media_write_bytes"), seen.user_bytes);
    put_n(
        out,
        "pmem.media_bytes_per_user_byte",
        media_per_user,
        seen.user_bytes,
    );
    put_n(out, "pmem.sim_ns_per_op", ratio(d.sim_ns, ops), ops);
}

/// `{prefix}.phase.{phase}.total_ns` as shares of their sum.
fn phase_shares(out: &mut Metrics, d: &Counters, prefix: &str, phases: &[(&str, &'static str)]) {
    let total = |p: &str| counter(&d.core, &format!("{prefix}.phase.{p}.total_ns"));
    let sum: u64 = phases.iter().map(|(p, _)| total(p)).sum();
    let ops = counter(&d.core, &format!("{prefix}.ops"));
    for (phase, metric) in phases {
        put_n(out, metric, ratio(total(phase), sum), ops);
    }
}

/// Host nanoseconds per call of `f`, over `n` calls.
fn host_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// The simulator's own cost per access, with modelled latency zeroed so
/// only host work remains: `Hierarchy::{store,load}` of one cache line,
/// `PmemDevice::write_cacheline`, a 256 B device read, and one
/// `Histogram::record` (every layer records into these on the hot path).
pub fn simulator_host_cost(out: &mut Metrics) {
    const N: u64 = 200_000;
    // Stride over 64 MiB so the accesses miss the 36 MiB simulated LLC
    // about as often as a working set larger than it does.
    const SPAN: u64 = 64 << 20;
    let addr = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (SPAN / 256)) * 256;

    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    let hier = Hierarchy::new(dev.clone(), CacheConfig::paper());
    let line = [0xA5u8; CACHELINE];
    put_n(
        out,
        "llc.store_host_ns",
        host_ns(N, |i| hier.store(addr(i), &line)),
        N,
    );
    let mut buf = [0u8; CACHELINE];
    put_n(
        out,
        "llc.load_host_ns",
        host_ns(N, |i| {
            hier.load(addr(i), &mut buf);
            std::hint::black_box(&buf);
        }),
        N,
    );
    put_n(
        out,
        "pmem.write_cacheline_host_ns",
        host_ns(N, |i| dev.write_cacheline(addr(i), &line)),
        N,
    );
    let mut xpline = [0u8; 256];
    put_n(
        out,
        "pmem.read_256_host_ns",
        host_ns(N, |i| {
            dev.read(addr(i), &mut xpline);
            std::hint::black_box(&xpline);
        }),
        N,
    );
    let hist = Histogram::new();
    put_n(
        out,
        "obs.histogram_record_ns",
        host_ns(4 * N, |i| hist.record(std::hint::black_box(i * 37))),
        4 * N,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_obs::Registry;

    #[test]
    fn count_metrics_cover_ratios_and_shares() {
        let (srv, core) = (Registry::new(), Registry::new());
        srv.counter("server.cache.hits").add(90);
        srv.counter("server.cache.misses").add(10);
        srv.counter("server.requests").add(100);
        srv.counter("server.bytes_in").add(3000);
        srv.counter("server.bytes_out").add(7000);
        core.counter("core.put.phase.data_copy.total_ns").add(300);
        core.counter("core.put.phase.persist.total_ns").add(100);
        core.counter("core.gets").add(10);
        core.counter("core.read.probes").add(25);
        let d = Counters {
            server: srv.export(),
            core: core.export(),
            sim_ns: 5000,
            ..Counters::default()
        };
        let seen = Observed {
            answered: 100,
            busy: 0,
            sent: 100,
            user_bytes: 1000,
            seconds: 2.0,
        };
        let mut out = Metrics::new();
        count_metrics(&mut out, &d, &seen);
        assert_eq!(out["hotcache.hit_ratio"].value, 0.9);
        assert_eq!(out["hotcache.hit_ratio"].samples, Some(100));
        assert_eq!(out["protocol.wire_bytes_per_op"].value, 100.0);
        assert_eq!(out["core.put.data_copy_share"].value, 0.75);
        assert_eq!(out["core.put.lock_wait_share"].value, 0.0);
        assert_eq!(out["core.read.probes_per_get"].value, 2.5);
        assert_eq!(out["pmem.sim_ns_per_op"].value, 50.0);
        assert_eq!(out["admission.busy_ratio"].value, 0.0);
        // Nothing registered, nothing divided by zero.
        assert_eq!(out["lsm.write_amp"].value, 0.0);
        assert_eq!(out["llc.load_hit_ratio"].value, 0.0);
    }
}
