//! Validate a figure metrics artifact produced by [`cachekv_bench::MetricsSink`].
//!
//! Usage: `validate_metrics [path ...]` — defaults to
//! `$CACHEKV_METRICS_DIR/fig10_write_throughput.json`. Exits nonzero if any
//! artifact is missing, unparseable, or lacks the expected keys; CI's bench
//! smoke job runs this after a scaled-down figure run.

use cachekv_bench::MetricsSink;
use cachekv_obs::{Json, StatsSnapshot};

fn fail(msg: &str) -> ! {
    eprintln!("validate_metrics: {msg}");
    std::process::exit(1);
}

fn validate(path: &std::path::Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{} is not valid JSON: {e}", path.display())));

    let fig = doc
        .get("figure")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("missing top-level \"figure\" string"));
    let systems = doc
        .get("systems")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| fail("missing top-level \"systems\" object"));
    if systems.is_empty() {
        fail("\"systems\" is empty — no snapshots were recorded");
    }

    let mut instrumented = 0usize;
    // Aggregated read-path pruning counters (fig11 must prove each fires).
    let mut read_probes = 0u64;
    let mut fence_skips = 0u64;
    let mut bloom_skips = 0u64;
    let mut lsm_short_circuits = 0u64;
    // Aggregated range-scan counters (scan artifacts must prove the merged
    // cursor actually ran, both engine-side and over the wire).
    let mut core_scans = 0u64;
    let mut core_scan_items = 0u64;
    let mut server_scans = 0u64;
    let mut server_scan_items = 0u64;
    for (label, entry) in systems {
        // Every entry must be a full StatsSnapshot document.
        let snap = StatsSnapshot::from_json(entry)
            .unwrap_or_else(|e| fail(&format!("{label}: bad snapshot: {e}")));
        if snap.system.is_empty() {
            fail(&format!("{label}: empty \"system\" name"));
        }
        if !snap.device.media_write_bytes.is_multiple_of(256) {
            fail(&format!(
                "{label}: media_write_bytes {} is not XPLine (256 B) aligned",
                snap.device.media_write_bytes
            ));
        }
        if snap.device.xpbuffer_hits + snap.device.xpbuffer_misses != snap.device.cpu_writes {
            fail(&format!("{label}: xpbuffer hits+misses != cpu_writes"));
        }
        if !snap.memory.counters.is_empty() {
            instrumented += 1;
        }
        // The contention-free read path must never take a CoreSlot mutex:
        // any snapshot carrying the tripwire counter must report zero.
        if let Some(&locks) = snap.memory.counters.get("core.read.core_lock_acquisitions") {
            if locks != 0 {
                fail(&format!(
                    "{label}: read path took {locks} CoreSlot locks (must be 0)"
                ));
            }
        }
        // Hot-cache coherence tripwire: any snapshot carrying it must
        // report zero — a nonzero count means a cached value survived past
        // a round publication it should not have.
        if let Some(&trip) = snap.memory.counters.get("server.cache.tripwire") {
            if trip != 0 {
                fail(&format!(
                    "{label}: cache coherence tripwire fired {trip} times (must be 0)"
                ));
            }
        }
        // Replication ordering tripwire: any snapshot carrying it must
        // report zero — a nonzero count means a round arrived out of
        // order (gap) on the follower or the shipping invariants broke.
        if let Some(&trip) = snap.memory.counters.get("server.repl.tripwire") {
            if trip != 0 {
                fail(&format!(
                    "{label}: replication tripwire fired {trip} times (must be 0)"
                ));
            }
        }
        // Off-path housekeeping tripwire: a put must never execute a
        // compaction merge inline.
        if let Some(&inline) = snap.memory.counters.get("core.housekeeping.inline_merges") {
            if inline != 0 {
                fail(&format!(
                    "{label}: {inline} compaction merges ran inline on the put path (must be 0)"
                ));
            }
        }
        for (counter, slot) in [
            ("core.read.probes", &mut read_probes),
            ("core.read.fence_skips", &mut fence_skips),
            ("core.read.bloom_skips", &mut bloom_skips),
            ("core.read.lsm_short_circuits", &mut lsm_short_circuits),
            ("core.scans", &mut core_scans),
            ("core.scan.items", &mut core_scan_items),
            ("server.scans", &mut server_scans),
            ("server.scan.items", &mut server_scan_items),
        ] {
            *slot += snap.memory.counters.get(counter).copied().unwrap_or(0);
        }
        // CacheKV snapshots must carry the per-phase put breakdown.
        if snap.system == "CacheKV" {
            for key in [
                "core.put.phase.lock_wait.total_ns",
                "core.put.phase.alloc.total_ns",
                "core.put.phase.index_update.total_ns",
                "core.put.phase.data_copy.total_ns",
                "core.put.phase.persist.total_ns",
                "core.put.ops",
                "core.puts",
                "core.seals",
                "core.flushes",
            ] {
                if !snap.memory.counters.contains_key(key) {
                    fail(&format!("{label}: missing memory counter {key}"));
                }
            }
            if !snap
                .memory
                .histograms
                .contains_key("core.put.phase.persist.ns")
            {
                fail(&format!("{label}: missing persist phase histogram"));
            }
            // The housekeeping scheduler instruments must all be present:
            // stall accounting, queue depth, and the per-segment merge
            // latency distribution.
            for key in [
                "core.housekeeping.rounds",
                "core.housekeeping.stalls",
                "core.housekeeping.put_stalls",
                "core.housekeeping.put_stall_ns",
                "core.housekeeping.sync_dropped",
                "core.housekeeping.inline_merges",
                "core.sc.merge_bytes",
            ] {
                if !snap.memory.counters.contains_key(key) {
                    fail(&format!("{label}: missing memory counter {key}"));
                }
            }
            if !snap
                .memory
                .gauges
                .contains_key("core.housekeeping.queue_depth")
            {
                fail(&format!(
                    "{label}: missing gauge core.housekeeping.queue_depth"
                ));
            }
            let merge_hist = snap
                .memory
                .histograms
                .get("core.sc.segment_merge_ns")
                .unwrap_or_else(|| {
                    fail(&format!(
                        "{label}: missing histogram core.sc.segment_merge_ns"
                    ))
                });
            // Consistency: SC rounds that merged at least one segment must
            // have recorded per-segment merge latencies.
            let merged = snap
                .memory
                .counters
                .get("core.sc.segments_merged")
                .copied()
                .unwrap_or(0);
            if merged > 0 && merge_hist.count == 0 {
                fail(&format!(
                    "{label}: {merged} segments merged but core.sc.segment_merge_ns is empty"
                ));
            }
        }
        // Server-merged snapshots must have served traffic through group
        // commit and carry the full service-layer instrument set: per-op
        // latency histograms with samples, the group-commit batch-size and
        // queue-depth distributions, and the live queue-depth gauge.
        if snap.system.ends_with("-server") {
            for key in ["server.requests", "server.group_commit.commits"] {
                if snap.memory.counters.get(key).copied().unwrap_or(0) == 0 {
                    fail(&format!("{label}: {key} is zero"));
                }
            }
            for key in [
                "server.get_ns",
                "server.put_ns",
                "server.group_commit.batch_size",
                "server.group_commit.queue_depth",
            ] {
                let h = snap
                    .memory
                    .histograms
                    .get(key)
                    .unwrap_or_else(|| fail(&format!("{label}: missing histogram {key}")));
                if h.count == 0 {
                    fail(&format!("{label}: histogram {key} recorded no samples"));
                }
            }
            if !snap.memory.gauges.contains_key("server.queue_depth") {
                fail(&format!("{label}: missing gauge server.queue_depth"));
            }
        }
    }
    if instrumented == 0 {
        fail("no snapshot carries memory-component metrics");
    }
    // Read-figure artifacts must demonstrate every pruning mechanism
    // firing: fences, blooms, and the LSM short-circuit.
    if fig.contains("read") {
        for (name, total) in [
            ("core.read.probes", read_probes),
            ("core.read.fence_skips", fence_skips),
            ("core.read.bloom_skips", bloom_skips),
            ("core.read.lsm_short_circuits", lsm_short_circuits),
        ] {
            if total == 0 {
                fail(&format!("read figure: {name} never fired across labels"));
            }
        }
    }
    // Write figures must carry put-tail measurements, not just snapshots.
    if fig.contains("write") {
        let measurements = doc
            .get("measurements")
            .and_then(Json::as_obj)
            .unwrap_or_else(|| fail("write figure: missing top-level \"measurements\" object"));
        if measurements.is_empty() {
            fail("write figure: \"measurements\" is empty");
        }
        for (label, m) in measurements {
            let p99 = m
                .get("put_p99_ns")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| fail(&format!("{label}: measurement missing put_p99_ns")));
            if p99 == 0 {
                fail(&format!("{label}: put_p99_ns is zero"));
            }
        }
    }
    // Scan artifacts must demonstrate the full range-scan path: engine
    // merged-cursor scans yielding items, and SCAN requests served over
    // the wire.
    if fig.contains("scan") {
        for (name, total) in [
            ("core.scans", core_scans),
            ("core.scan.items", core_scan_items),
            ("server.scans", server_scans),
            ("server.scan.items", server_scan_items),
        ] {
            if total == 0 {
                fail(&format!("scan figure: {name} never fired across labels"));
            }
        }
    }
    println!(
        "validate_metrics: {} ok — figure {fig}, {} labels, {instrumented} instrumented",
        path.display(),
        systems.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        validate(&MetricsSink::dir().join("fig10_write_throughput.json"));
    } else {
        for a in &args {
            validate(std::path::Path::new(a));
        }
    }
}
