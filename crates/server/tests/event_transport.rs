//! End-to-end tests for the serving path: the readiness-polling I/O loops
//! that multiplex every connection, the server-wide admission budget that
//! sheds over-watermark load with `Busy`, the per-connection read pause,
//! and a [`KvClient`] that redials its endpoint.
//!
//! The backpressure and accounting tests run once per transport ([`Wire`]):
//! TCP on `127.0.0.1:0` and the in-process loopback socket pair take the
//! same path through the server.

use cachekv::{CacheKv, CacheKvConfig};
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::KvStore;
use cachekv_obs::Json;
use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};
use cachekv_server::protocol::{decode_response, encode_request, read_frame, write_frame};
use cachekv_server::{
    ClientError, Connection, Connector, KvClient, KvServer, LoopbackTransport, Request, Response,
    ServerConfig, TcpTransport,
};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine_shards(n: usize) -> Vec<Arc<dyn KvStore>> {
    (0..n).map(|_| engine_shard()).collect()
}

fn engine_shard() -> Arc<dyn KvStore> {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev, CacheConfig::paper()));
    Arc::new(CacheKv::create(hier, CacheKvConfig::test_small()))
}

/// Which transport a test body runs over.
#[derive(Clone, Copy, Debug)]
enum Wire {
    Tcp,
    Loopback,
}

const WIRES: [Wire; 2] = [Wire::Tcp, Wire::Loopback];

type Dial = Box<dyn Fn() -> Connection>;

/// Start a server over `wire`; the returned closure dials it.
fn start(wire: Wire, stores: Vec<Arc<dyn KvStore>>, cfg: ServerConfig) -> (KvServer, Dial) {
    match wire {
        Wire::Tcp => {
            let (server, addr) = start_tcp(stores, cfg);
            let dial = move || TcpTransport::connect(addr).expect("dial");
            (server, Box::new(dial))
        }
        Wire::Loopback => {
            let transport = LoopbackTransport::new();
            let server = KvServer::start(stores, transport.clone(), cfg);
            let dial = move || transport.connect().expect("loopback dial");
            (server, Box::new(dial))
        }
    }
}

/// TCP on an ephemeral port, for the tests that need the address itself.
fn start_tcp(stores: Vec<Arc<dyn KvStore>>, cfg: ServerConfig) -> (KvServer, std::net::SocketAddr) {
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    (KvServer::start(stores, transport, cfg), addr)
}

fn dial(addr: std::net::SocketAddr) -> KvClient {
    KvClient::connect(TcpTransport::connect(addr).expect("dial"))
}

/// Poll `cond` until it holds or `what` times out.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn event_path_pipelined_crud_and_stats() {
    for wire in WIRES {
        pipelined_crud_and_stats(wire);
    }
}

fn pipelined_crud_and_stats(wire: Wire) {
    let (server, dial) = start(wire, engine_shards(2), ServerConfig::default());
    let c = KvClient::connect(dial());

    // Pipelined burst: many requests in flight on one multiplexed
    // connection, answered out of the event loop's outbound queue.
    let pendings: Vec<_> = (0..256u32)
        .map(|i| {
            c.submit(&Request::Put {
                key: format!("ev{i:04}").into_bytes(),
                value: format!("v{i}").into_bytes(),
            })
            .unwrap()
        })
        .collect();
    for p in pendings {
        assert!(matches!(p.wait().unwrap(), Response::Ok));
    }
    for i in (0..256u32).step_by(17) {
        assert_eq!(
            c.get(format!("ev{i:04}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes())
        );
    }
    let (items, _more) = c.scan(b"ev", b"ev~", 1000, None).unwrap();
    assert_eq!(items.len(), 256);

    // The stats document carries the admission section with the event
    // transport's identity and live connection accounting.
    let doc = c.stats().unwrap();
    let parsed = Json::parse(&doc).expect("stats parses");
    let adm = parsed.get("admission").expect("admission section");
    let as_u64 = |j: &Json, k: &str| -> u64 {
        match j.get(k) {
            Some(Json::UInt(v)) => *v,
            Some(Json::Int(v)) => *v as u64,
            Some(Json::Num(v)) => *v as u64,
            other => panic!("admission.{k} missing or non-numeric: {other:?}"),
        }
    };
    assert!(as_u64(adm, "io_threads") >= 1);
    assert_eq!(
        as_u64(adm, "sheds"),
        0,
        "{wire:?}: nominal load must not shed"
    );
    assert_eq!(as_u64(adm, "conns"), 1, "{wire:?}");
    assert_eq!(as_u64(adm, "accepts"), 1, "{wire:?}");

    let obs = server.obs().clone();
    assert_eq!(obs.accepts.get(), 1);
    assert_eq!(obs.conns.get(), 1);
    c.close();
    server.shutdown();
    assert_eq!(obs.conns.get(), 0, "close must release the conn");
}

#[test]
fn event_path_many_concurrent_connections() {
    let (server, addr) = start_tcp(engine_shards(2), ServerConfig::default());
    let threads: Vec<_> = (0..16)
        .map(|t| {
            std::thread::spawn(move || {
                let c = dial(addr);
                for i in 0..32u32 {
                    let key = format!("t{t}-k{i}");
                    c.put(key.as_bytes(), key.as_bytes()).unwrap();
                    assert_eq!(c.get(key.as_bytes()).unwrap(), Some(key.into_bytes()));
                }
                c.close();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let obs = server.obs();
    assert_eq!(obs.accepts.get(), 16);
    assert_eq!(obs.puts.get(), 16 * 32);
    // All clients closed: the loops must have reaped every connection.
    wait_until("closed conns to be reaped", || obs.conns.get() == 0);
    server.shutdown();
}

/// Minimal in-memory store with a per-put stall so the admission budget
/// fills deterministically under a pipelined burst. Remembers which thread
/// served the last GET (GETs are served inline by the connection's thread).
struct SlowMapStore {
    map: parking_lot::Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    put_delay: Duration,
    last_get_thread: parking_lot::Mutex<Option<String>>,
}

impl SlowMapStore {
    fn new(put_delay: Duration) -> Arc<Self> {
        Arc::new(SlowMapStore {
            map: parking_lot::Mutex::new(HashMap::new()),
            put_delay,
            last_get_thread: parking_lot::Mutex::new(None),
        })
    }
}

impl KvStore for SlowMapStore {
    fn put(&self, key: &[u8], value: &[u8]) -> cachekv_lsm::Result<()> {
        if !self.put_delay.is_zero() {
            std::thread::sleep(self.put_delay);
        }
        self.map.lock().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> cachekv_lsm::Result<Option<Vec<u8>>> {
        *self.last_get_thread.lock() = std::thread::current().name().map(str::to_owned);
        Ok(self.map.lock().get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> cachekv_lsm::Result<()> {
        self.map.lock().remove(key);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "slow-map"
    }
}

/// The crash-sweep-shaped overload oracle: under a burst far past the
/// admission budget, some writes shed with `Busy` — and afterwards the
/// world must be exactly partitioned: every `Ok`-acked key readable,
/// every `Busy` key absent (nothing half-queued), and the server still
/// promptly serving new connections (no wedged reader). This is the one
/// write-backpressure contract, checked on both transports.
#[test]
fn overload_sheds_busy_but_every_acked_write_survives() {
    for wire in WIRES {
        overload_sheds_busy(wire);
    }
}

fn overload_sheds_busy(wire: Wire) {
    let store = SlowMapStore::new(Duration::from_millis(2));
    let (server, dial) = start(
        wire,
        vec![store as Arc<dyn KvStore>],
        ServerConfig {
            io_threads: 1,
            admit_max_requests: 4,
            group_commit_max: 2,
            ..Default::default()
        },
    );
    let c = KvClient::connect(dial());

    // Unique key per request so "absent" is provable per outcome.
    let pendings: Vec<_> = (0..200u32)
        .map(|i| {
            (
                i,
                c.submit(&Request::Put {
                    key: format!("ov{i:04}").into_bytes(),
                    value: b"v".to_vec(),
                })
                .unwrap(),
            )
        })
        .collect();
    let mut acked = Vec::new();
    let mut shed = Vec::new();
    for (i, p) in pendings {
        match p.wait().unwrap() {
            Response::Ok => acked.push(i),
            Response::Busy => shed.push(i),
            other => panic!("{wire:?}: unexpected response under overload: {other:?}"),
        }
    }
    assert!(
        !shed.is_empty(),
        "{wire:?}: a budget of 4 must shed under 200 in-flight"
    );
    assert!(
        !acked.is_empty(),
        "{wire:?}: admitted writes must still ack"
    );
    let obs = server.obs();
    assert!(obs.sheds.get() >= shed.len() as u64);
    // `puts` is a request-mix counter: it sees shed requests too.
    assert_eq!(obs.puts.get(), 200);

    c.ping(true).unwrap(); // drain every queue before auditing

    // Audit from a *fresh* connection: proves accept + read paths are
    // live after the overload (no wedged loop), and checks the oracle.
    let fresh = KvClient::connect(dial());
    let t0 = Instant::now();
    for &i in &acked {
        assert_eq!(
            fresh.get(format!("ov{i:04}").as_bytes()).unwrap(),
            Some(b"v".to_vec()),
            "acked write ov{i:04} lost"
        );
    }
    for &i in &shed {
        assert_eq!(
            fresh.get(format!("ov{i:04}").as_bytes()).unwrap(),
            None,
            "Busy-shed write ov{i:04} was applied anyway"
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "reads after overload must stay fast"
    );
    fresh.close();
    c.close();
    server.shutdown();
}

/// The read-side backpressure contract: a client that pipelines GETs whose
/// responses exceed its connection's high watermark plus anything the
/// socket buffers can absorb, and reads nothing until every request is
/// written, is *paused* — the server stops consuming its requests, sheds
/// nothing, and once the client reads, every reply arrives, in order.
#[test]
fn slow_reader_is_paused_not_shed_and_gets_every_reply_in_order() {
    for wire in WIRES {
        slow_reader(wire);
    }
}

fn slow_reader(wire: Wire) {
    // 40 GETs x 4 KiB key = 160 KiB of requests (more than one 64 KiB
    // server read, little enough to sit in a socket buffer while paused);
    // 40 x 512 KiB = 20 MiB of responses against a 2 MiB high watermark
    // (`admit_max_bytes / 8`). One server read dispatches at most 16 of
    // them (8 MiB), so the 16 MiB byte budget is never reached.
    const GETS: u64 = 40;
    const VALUE_LEN: usize = 512 << 10;
    let key = vec![b'k'; 4 << 10];
    let store = SlowMapStore::new(Duration::ZERO);
    store.map.lock().insert(key.clone(), vec![7u8; VALUE_LEN]);
    let (server, dial) = start(
        wire,
        vec![store as Arc<dyn KvStore>],
        ServerConfig {
            io_threads: 1,
            admit_max_bytes: 16 << 20,
            ..Default::default()
        },
    );
    let obs = server.obs().clone();
    let conn = dial();

    let mut requests = Vec::new();
    for id in 1..=GETS {
        write_frame(
            &mut requests,
            &encode_request(id, &Request::Get { key: key.clone() }),
        )
        .unwrap();
    }
    // The client end runs on its own thread so a wedged server fails the
    // test with a message instead of hanging it.
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Vec<u64>>();
    let client = std::thread::spawn(move || {
        let mut sock = &conn.socket;
        sock.write_all(&requests).expect("pipeline every request");
        go_rx.recv().expect("main thread alive");
        let mut ids = Vec::new();
        for _ in 0..GETS {
            let payload = read_frame(&mut sock).unwrap().expect("reply, not EOF");
            let (id, resp) = decode_response(&payload).unwrap();
            assert!(
                matches!(resp, Response::Value(ref v) if v.len() == VALUE_LEN),
                "reply {id} is not the value"
            );
            ids.push(id);
        }
        done_tx.send(ids).unwrap();
    });

    // Before the client reads anything the server must stop on its own:
    // response bytes past the watermark are queued and the connection's
    // remaining requests are left unread.
    wait_until("the outbound queue to cross the watermark", || {
        obs.inflight_bytes.get() > 2 << 20
    });
    std::thread::sleep(Duration::from_millis(200));
    let served = obs.gets.get();
    assert!(
        served < GETS,
        "{wire:?}: reads were not paused — all {GETS} GETs served with no reply read"
    );
    go_tx.send(()).unwrap();
    let ids = done_rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{wire:?}: slow reader wedged after {served} GETs"));
    client.join().unwrap();
    assert_eq!(ids, (1..=GETS).collect::<Vec<_>>(), "{wire:?}: in order");
    assert_eq!(obs.gets.get(), GETS);
    assert_eq!(obs.sheds.get(), 0, "{wire:?}: a slow reader is never shed");
    wait_until("queued response bytes to drain", || {
        obs.inflight_bytes.get() == 0
    });
    server.shutdown();
}

/// `/proc/self/fd` entries: every open descriptor of this test process.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// A closed connection gives its descriptor back while the server keeps
/// running. Other tests of this binary open and close sockets on parallel
/// threads, so the count is polled down to the baseline plus a slack far
/// below the 400 descriptors a one-per-connection leak would pin.
#[test]
fn closed_connections_release_their_descriptors() {
    const CYCLES: usize = 200;
    const SLACK: usize = 48;
    for wire in WIRES {
        let (server, dial) = start(
            wire,
            vec![SlowMapStore::new(Duration::ZERO) as Arc<dyn KvStore>],
            ServerConfig::default(),
        );
        let before = open_fds();
        for _ in 0..CYCLES {
            let c = KvClient::connect(dial());
            c.ping(false).unwrap();
            c.close();
        }
        let obs = server.obs();
        assert_eq!(obs.accepts.get(), CYCLES as u64, "{wire:?}");
        wait_until("closed conns to be reaped", || obs.conns.get() == 0);
        wait_until("descriptors of closed conns to be released", || {
            open_fds() <= before + SLACK
        });
        server.shutdown();
    }
}

/// `io_threads: 0` selects nothing: it is served as one I/O thread, and a
/// loopback connection is accepted, counted and served there like any
/// other.
#[test]
fn io_threads_zero_is_served_as_one_and_loopback_runs_on_an_io_thread() {
    let store = SlowMapStore::new(Duration::ZERO);
    let (server, dial) = start(
        Wire::Loopback,
        vec![store.clone() as Arc<dyn KvStore>],
        ServerConfig {
            io_threads: 0,
            ..Default::default()
        },
    );
    let c = KvClient::connect(dial());
    c.put(b"k", b"v").unwrap();
    assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(
        store.last_get_thread.lock().as_deref(),
        Some("cachekv-io-0"),
        "the GET is served inline by the event loop"
    );
    let doc = Json::parse(&c.stats().unwrap()).expect("stats parses");
    let adm = doc.get("admission").expect("admission section");
    assert!(matches!(adm.get("io_threads"), Some(Json::UInt(1))));
    assert!(matches!(adm.get("transport"), Some(Json::Str(t)) if t == "loopback"));
    assert_eq!(server.obs().conns.get(), 1);
    assert_eq!(server.obs().accepts.get(), 1);
    c.close();
    server.shutdown();
}

/// NODELAY smoke: sequential single-frame roundtrips must not pay
/// Nagle/delayed-ACK stalls (~40ms each would blow the bound by 10x).
#[test]
fn sequential_small_frames_are_not_nagle_delayed() {
    let (server, addr) = start_tcp(engine_shards(1), ServerConfig::default());
    let c = dial(addr);
    c.put(b"warm", b"up").unwrap();
    const ROUNDTRIPS: u32 = 200;
    let t0 = Instant::now();
    for _ in 0..ROUNDTRIPS {
        c.ping(false).unwrap();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(40 * ROUNDTRIPS as u64 / 10),
        "{ROUNDTRIPS} sequential pings took {elapsed:?} — Nagle-shaped latency"
    );
    c.close();
    server.shutdown();
}

/// A dialled client redials through its connector after the endpoint dies
/// and transparently retries the read; writes surface the ambiguity
/// instead.
#[test]
fn retry_client_reconnects_and_retries_reads() {
    let (server_a, addr_a) = start_tcp(engine_shards(1), ServerConfig::default());
    let endpoint = Arc::new(parking_lot::Mutex::new(addr_a));
    let dials = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let rc = {
        let endpoint = endpoint.clone();
        let dials = dials.clone();
        let connector: Connector = Box::new(move || {
            dials.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            TcpTransport::connect(*endpoint.lock()).ok()
        });
        KvClient::dial(vec![connector]).expect("dial endpoint A")
    };

    rc.put(b"ra", b"1").unwrap();
    assert_eq!(rc.get(b"ra").unwrap(), Some(b"1".to_vec()));
    assert_eq!(dials.load(std::sync::atomic::Ordering::SeqCst), 1);

    // Kill endpoint A; bring up B at a new address and repoint the
    // connector. The next read must reconnect and succeed transparently.
    server_a.shutdown();
    let (server_b, addr_b) = start_tcp(engine_shards(1), ServerConfig::default());
    *endpoint.lock() = addr_b;
    // The first write after the death is allowed to surface the
    // ambiguity (Disconnected, not auto-retried)...
    if let Err(e) = rc.put(b"rb", b"2") {
        assert_eq!(e, ClientError::Disconnected);
    }
    // ...but reads retry transparently across the reconnect.
    rc.ping(false).unwrap();
    rc.put(b"rb2", b"3").unwrap();
    assert_eq!(rc.get(b"rb2").unwrap(), Some(b"3".to_vec()));
    assert!(
        dials.load(std::sync::atomic::Ordering::SeqCst) >= 2,
        "must have redialed after endpoint death"
    );
    server_b.shutdown();
}
