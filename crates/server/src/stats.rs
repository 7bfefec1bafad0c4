//! The STATS document: the `server.*` registry, the admission and
//! replication views, each shard's engine snapshot, and one merged
//! snapshot for artifact pipelines that expect a single `StatsSnapshot`.

use crate::repl::ReplMode;
use crate::server::ServerShared;
use cachekv_obs::{Json, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// The STATS wire document (see [`crate::KvServer::stats_document`]).
pub(crate) fn stats_document(shared: &ServerShared) -> String {
    let mut shard_docs = BTreeMap::new();
    for (i, shard) in shared.shards.iter().enumerate() {
        if let Some(json) = shard.store().snapshot_json() {
            if let Ok(doc) = Json::parse(&json) {
                shard_docs.insert(format!("shard{i}"), doc);
            }
        }
    }
    let merged =
        Json::parse(&merged_snapshot_json(shared)).expect("merged snapshot is well-formed JSON");
    let doc = Json::obj(vec![
        ("server", shared.obs.registry.export().to_json()),
        ("admission", admission_section(shared)),
        ("repl", repl_section(shared)),
        ("shards", Json::Obj(shard_docs)),
        ("merged", merged),
    ]);
    format!("{doc}")
}

/// The admission-control view: configured watermarks, live in-flight
/// levels, and the shed count, plus how connections are being served.
fn admission_section(shared: &ServerShared) -> Json {
    let obs = &shared.obs;
    Json::obj(vec![
        ("io_threads", Json::UInt(shared.cfg.io_threads as u64)),
        ("max_requests", Json::UInt(shared.cfg.admit_max_requests)),
        ("max_bytes", Json::UInt(shared.cfg.admit_max_bytes)),
        (
            "inflight_requests",
            Json::UInt(obs.inflight_requests.get().max(0) as u64),
        ),
        (
            "inflight_bytes",
            Json::UInt(obs.inflight_bytes.get().max(0) as u64),
        ),
        ("sheds", Json::UInt(obs.sheds.get())),
        ("conns", Json::UInt(obs.conns.get().max(0) as u64)),
        ("accepts", Json::UInt(obs.accepts.get())),
        ("transport", Json::Str(shared.transport.name().to_string())),
    ])
}

/// The replication view of this server: role, routing epoch, and
/// per-shard round/lag watermarks (primary: enqueued vs follower-acked;
/// follower: applied).
fn repl_section(shared: &ServerShared) -> Json {
    let role = if shared.is_follower.load(Ordering::Acquire) {
        "follower"
    } else if shared.repl.is_some() {
        "primary"
    } else if shared.follower.is_some() {
        "promoted"
    } else {
        "standalone"
    };
    let mut shards = BTreeMap::new();
    let link_stats = shared.repl.as_ref().map(|r| r.link_stats());
    for (i, shard) in shared.shards.iter().enumerate() {
        let mut fields = vec![("round_seq", Json::UInt(shard.round_seq()))];
        if let Some(stats) = &link_stats {
            let (enqueued, acked, backlog, live) = stats[i];
            fields.push(("shipped_enqueued", Json::UInt(enqueued)));
            fields.push(("shipped_acked", Json::UInt(acked)));
            fields.push(("lag_rounds", Json::UInt(enqueued.saturating_sub(acked))));
            fields.push(("lag_bytes", Json::UInt(backlog)));
            fields.push(("live", Json::Bool(live)));
        }
        if let Some(ctl) = &shared.follower {
            fields.push(("applied_seq", Json::UInt(ctl.applied_seq(i))));
        }
        shards.insert(format!("shard{i}"), Json::obj(fields));
    }
    let mut fields = vec![
        ("role", Json::Str(role.into())),
        ("epoch", Json::UInt(shared.epoch.load(Ordering::Acquire))),
        ("shards", Json::Obj(shards)),
    ];
    if let Some(repl) = &shared.repl {
        let mode = match repl.mode() {
            ReplMode::Sync => "sync",
            ReplMode::Async => "async",
        };
        fields.push(("mode", Json::Str(mode.into())));
        fields.push(("link_down", Json::Bool(repl.is_down())));
    }
    Json::obj(fields)
}

/// The merged snapshot (see [`crate::KvServer::merged_snapshot_json`]).
pub(crate) fn merged_snapshot_json(shared: &ServerShared) -> String {
    let export = shared.obs.registry.export();
    for shard in &shared.shards {
        let Some(json) = shard.store().snapshot_json() else {
            continue;
        };
        let Ok(mut snap) = Json::parse(&json).and_then(|j| StatsSnapshot::from_json(&j)) else {
            continue;
        };
        snap.system = format!("{}-server", snap.system);
        for (k, v) in &export.counters {
            snap.memory.counters.insert(k.clone(), *v);
        }
        for (k, v) in &export.gauges {
            snap.memory.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &export.histograms {
            snap.memory.histograms.insert(k.clone(), h.clone());
        }
        return snap.to_json_string();
    }
    // No instrumented shard: serve the server registry alone.
    let doc = Json::obj(vec![
        ("system", Json::Str("server".into())),
        ("server", export.to_json()),
    ]);
    format!("{doc}")
}
