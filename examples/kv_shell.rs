//! An interactive shell over the CacheKV *service*: a sharded [`KvServer`]
//! on the simulated eADR platform, driven through the wire protocol via a
//! [`KvClient`] on the in-process loopback transport. Every command below
//! crosses the framed protocol and the group-commit write path — the same
//! round trip a TCP client makes.
//!
//! ```sh
//! cargo run --release --example kv_shell
//! ```
//!
//! Commands:
//! ```text
//! put <key> <value>    insert or overwrite (acked after group commit)
//! get <key>            point lookup
//! scan <start> <end> [limit]   range scan, merged across shards
//!                      (`-` = unbounded end; pages follow automatically)
//! del <key>            delete (alias: delete)
//! ping                 liveness probe; `ping sync` also drains + quiesces
//! stats                server counters, the hot-cache line (hits, fills, bytes,
//!                      tripwire) and per-shard device summaries
//! repl [status]        replication role, epoch, bootstrap bytes + phase times,
//!                      per-shard round sequence + lag
//! snap                 full stats document (server + shards) as JSON
//! crash                power-fail every shard, recover, restart the server
//! help                 this text
//! quit                 exit
//! ```

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_obs::Json;
use cachekv_pmem::{PmemConfig, PmemDevice};
use cachekv_server::{KvClient, KvServer, LoopbackTransport, ServerConfig};
use std::io::{BufRead, Write};
use std::sync::Arc;

const SHARDS: usize = 2;

/// Per-shard simulated platform state kept across server restarts so the
/// `crash` command can power-fail and recover in place.
struct ShardState {
    dev: Arc<PmemDevice>,
    hier: Arc<Hierarchy>,
}

fn fresh_shards() -> (Vec<ShardState>, Vec<Arc<dyn KvStore>>) {
    let mut shards = Vec::new();
    let mut stores: Vec<Arc<dyn KvStore>> = Vec::new();
    for _ in 0..SHARDS {
        let dev = Arc::new(PmemDevice::new(PmemConfig::paper_scaled()));
        let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()));
        stores.push(Arc::new(CacheKv::create(
            hier.clone(),
            CacheKvConfig::default(),
        )));
        shards.push(ShardState { dev, hier });
    }
    (shards, stores)
}

fn start_server(stores: Vec<Arc<dyn KvStore>>) -> (KvServer, KvClient) {
    let transport = LoopbackTransport::new();
    let server = KvServer::start(stores, transport.clone(), ServerConfig::default());
    let client = KvClient::connect(transport.connect().expect("loopback dial"));
    (server, client)
}

fn print_stats(client: &KvClient) {
    let doc = match client.stats() {
        Ok(d) => d,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    let Ok(v) = Json::parse(&doc) else {
        println!("error: unparseable stats document");
        return;
    };
    if let Some(c) = v
        .get("server")
        .and_then(|s| s.get("counters"))
        .and_then(Json::as_obj)
    {
        let n = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "server : {} requests ({} gets, {} puts, {} deletes, {} batches), {} errors",
            n("server.requests"),
            n("server.gets"),
            n("server.puts"),
            n("server.deletes"),
            n("server.batches"),
            n("server.errors"),
        );
        println!(
            "commit : {} group commits over {} writes, {} shed (busy)",
            n("server.group_commit.commits"),
            n("server.puts") + n("server.deletes") + n("server.batch_ops"),
            n("server.sheds"),
        );
        let hits = n("server.cache.hits");
        let misses = n("server.cache.misses");
        let probes = hits + misses;
        let bytes = v
            .get("server")
            .and_then(|s| s.get("gauges"))
            .and_then(|g| g.get("server.cache.bytes"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        println!(
            "cache  : {} hits / {} probes ({:.1}% hit rate), {} fills, {} invalidations, {} evictions, {} bytes, {} tripwire",
            hits,
            probes,
            if probes == 0 { 0.0 } else { hits as f64 / probes as f64 * 100.0 },
            n("server.cache.fills"),
            n("server.cache.invalidations"),
            n("server.cache.evictions"),
            bytes,
            n("server.cache.tripwire"),
        );
    }
    if let Some(repl) = v.get("repl") {
        let role = repl.get("role").and_then(Json::as_str).unwrap_or("?");
        let epoch = repl.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let seqs: Vec<String> = repl
            .get("shards")
            .and_then(Json::as_obj)
            .map(|m| {
                m.iter()
                    .map(|(label, s)| {
                        format!(
                            "{label} seq {}",
                            s.get("round_seq")
                                .or_else(|| s.get("applied_seq"))
                                .and_then(Json::as_u64)
                                .unwrap_or(0)
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        println!("repl   : role {role}, epoch {epoch}, {}", seqs.join(", "));
    }
    if let Some(shards) = v.get("shards").and_then(Json::as_obj) {
        for (label, snap) in shards {
            let d = |k: &str| {
                snap.get("device")
                    .and_then(|d| d.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            let ratio = snap
                .get("device")
                .and_then(|dv| dv.get("write_hit_ratio"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            println!(
                "{label} : {} cacheline writes, hit ratio {:.1}%, {} media bytes",
                d("cpu_writes"),
                ratio * 100.0,
                d("media_write_bytes"),
            );
        }
    }
}

/// Print the replication section of the stats document in full: role,
/// epoch, shipping mode, the snapshot bootstrap's bytes and phase times
/// (from the `server.repl.*` counters), and the per-shard round-sequence /
/// lag detail.
fn print_repl_status(client: &KvClient) {
    let doc = match client.stats() {
        Ok(d) => d,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    let Ok(v) = Json::parse(&doc) else {
        println!("error: unparseable stats document");
        return;
    };
    let Some(repl) = v.get("repl") else {
        println!("no replication section in stats document");
        return;
    };
    let s = |k: &str| {
        repl.get(k)
            .and_then(Json::as_str)
            .unwrap_or("-")
            .to_string()
    };
    let n = |k: &str| repl.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut head = format!("role {}, epoch {}", s("role"), n("epoch"));
    if repl.get("mode").is_some() {
        head.push_str(&format!(", mode {}", s("mode")));
        if matches!(repl.get("link_down"), Some(Json::Bool(true))) {
            head.push_str(", LINK DOWN (acks degraded to local-only)");
        }
    }
    println!("{head}");
    if let Some(c) = v
        .get("server")
        .and_then(|s| s.get("counters"))
        .and_then(Json::as_obj)
    {
        let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "bootstrap: {} snapshot bytes, capture {} us, stream {} us, install {} us",
            g("server.repl.snapshot_bytes"),
            g("server.repl.snap_capture_us"),
            g("server.repl.snap_stream_us"),
            g("server.repl.snap_install_us"),
        );
    }
    if let Some(shards) = repl.get("shards").and_then(Json::as_obj) {
        for (label, sh) in shards {
            let g = |k: &str| sh.get(k).and_then(Json::as_u64).unwrap_or(0);
            if sh.get("shipped_enqueued").is_some() {
                println!(
                    "{label}: round seq {}, shipped {}/{} (lag {} rounds / {} bytes), link {}",
                    g("round_seq"),
                    g("shipped_acked"),
                    g("shipped_enqueued"),
                    g("lag_rounds"),
                    g("lag_bytes"),
                    if matches!(sh.get("live"), Some(Json::Bool(true))) {
                        "live"
                    } else {
                        "bootstrapping/down"
                    },
                );
            } else if sh.get("applied_seq").is_some() {
                println!("{label}: applied seq {}", g("applied_seq"));
            } else {
                println!("{label}: round seq {}", g("round_seq"));
            }
        }
    }
}

fn main() {
    let (mut shards, stores) = fresh_shards();
    let (mut server, mut client) = start_server(stores);
    println!(
        "CacheKV shell — {SHARDS}-shard service over loopback wire protocol. Type `help` for commands."
    );

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("cachekv> ");
        std::io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("put") => match (parts.next(), parts.next()) {
                (Some(k), Some(v)) => match client.put(k.as_bytes(), v.as_bytes()) {
                    Ok(()) => println!("ok"),
                    Err(e) => println!("error: {e}"),
                },
                _ => println!("usage: put <key> <value>"),
            },
            Some("get") => match parts.next() {
                Some(k) => match client.get(k.as_bytes()) {
                    Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                    Ok(None) => println!("(nil)"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: get <key>"),
            },
            Some("scan") => match (parts.next(), parts.next()) {
                (Some(start), Some(end)) => {
                    let limit: usize = match parts.next().map(str::parse) {
                        Some(Ok(n)) => n,
                        Some(Err(_)) => {
                            println!("usage: scan <start> <end|-> [limit]");
                            continue;
                        }
                        None => usize::MAX,
                    };
                    // `-` means unbounded; `scan_all` follows the
                    // continuation cursor across pages.
                    let end: &[u8] = if end == "-" { b"" } else { end.as_bytes() };
                    match client.scan_all(start.as_bytes(), end, limit) {
                        Ok(items) => {
                            for (k, v) in &items {
                                println!(
                                    "{} = {}",
                                    String::from_utf8_lossy(k),
                                    String::from_utf8_lossy(v)
                                );
                            }
                            println!("({} keys)", items.len());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("usage: scan <start> <end|-> [limit]"),
            },
            Some("del") | Some("delete") => match parts.next() {
                Some(k) => match client.delete(k.as_bytes()) {
                    Ok(()) => println!("ok"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: del <key>"),
            },
            Some("ping") => {
                let sync = parts.next() == Some("sync");
                match client.ping(sync) {
                    Ok(()) if sync => println!("pong (drained + quiesced)"),
                    Ok(()) => println!("pong"),
                    Err(e) => println!("error: {e}"),
                }
            }
            Some("stats") => print_stats(&client),
            Some("repl") => match parts.next() {
                None | Some("status") => print_repl_status(&client),
                Some(_) => println!("usage: repl [status]"),
            },
            Some("snap") => match client.stats() {
                Ok(doc) => println!("{doc}"),
                Err(e) => println!("error: {e}"),
            },
            Some("crash") => {
                // Tear the service down (drains in-flight commits), cut
                // power on every shard, recover each store from its
                // surviving media, and restart the server on them.
                client.close();
                server.shutdown();
                let mut stores: Vec<Arc<dyn KvStore>> = Vec::new();
                let mut next = Vec::new();
                let mut failed = false;
                for s in shards.drain(..) {
                    s.hier.power_fail();
                    let dev = Arc::new(PmemDevice::from_media(
                        s.dev.config().clone(),
                        s.dev.clone_media(),
                    ));
                    let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()));
                    match CacheKv::recover(hier.clone(), CacheKvConfig::default()) {
                        Ok(db) => {
                            stores.push(Arc::new(db));
                            next.push(ShardState { dev, hier });
                        }
                        Err(e) => {
                            println!("recovery failed: {e}");
                            failed = true;
                            break;
                        }
                    }
                }
                if failed {
                    return;
                }
                shards = next;
                let (s, c) = start_server(stores);
                server = s;
                client = c;
                println!("power failure injected on every shard; service recovered");
            }
            Some("help") => {
                println!(
                    "put <k> <v> | get <k> | scan <lo> <hi|-> [n] | del <k> | ping [sync] | stats | repl [status] | snap | crash | quit"
                )
            }
            Some("quit") | Some("exit") => break,
            Some(other) => println!("unknown command: {other} (try `help`)"),
        }
    }
    client.close();
    server.shutdown();
}
