//! Byte transports: how a [`Connection`] comes to exist.
//!
//! A connection is one connected stream [`Socket`]. The server hands every
//! accepted socket to an event-loop I/O thread, which runs it nonblocking
//! under a poller (see `event_loop`); a client uses the same socket
//! blocking, reading and writing it from different threads through `&Socket`
//! (pipelining requires reading response K while request K+1 is written).
//!
//! Two implementations of [`Transport`], one serving path:
//!
//! * [`LoopbackTransport`] — `connect` makes a `UnixStream::pair()`, keeps
//!   the client end and queues the server end for `accept`. No ports, no
//!   listener; the test suite, the crash sweeps and the loopback benches use
//!   it. Transport backpressure is the kernel socket buffer, as for TCP.
//! * [`TcpTransport`] — a `std::net` TCP listener.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A connected stream socket: the one thing both transports produce and the
/// event loop polls.
pub enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    pub(crate) fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.set_nonblocking(on),
            Socket::Unix(s) => s.set_nonblocking(on),
        }
    }

    /// Shut down both directions. Callable from any thread: a reader parked
    /// in `read` sees EOF, a writer parked on a full buffer fails with
    /// `BrokenPipe`, and the peer sees EOF once it drains what was sent.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.shutdown(Shutdown::Both),
            Socket::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl AsRawFd for Socket {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Socket::Tcp(s) => s.as_raw_fd(),
            Socket::Unix(s) => s.as_raw_fd(),
        }
    }
}

// Like `std`'s sockets, a shared reference reads and writes: the kernel
// object is the synchronisation point, so one thread may read while another
// writes.
impl Read for &Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => (&*s).read(buf),
            Socket::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => (&*s).write(buf),
            Socket::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One accepted or dialed connection.
pub struct Connection {
    pub socket: Socket,
}

/// Server-side listener abstraction.
pub trait Transport: Send + Sync {
    /// Block until the next connection arrives; `None` once the transport
    /// has been closed (the accept loop should exit).
    fn accept(&self) -> Option<Connection>;

    /// Stop accepting: wakes any blocked `accept` and makes future dials
    /// fail. Established connections are unaffected (the server drains
    /// them separately).
    fn close(&self);

    /// Transport label for logs.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Loopback: in-process socket pairs
// ---------------------------------------------------------------------------

/// In-process transport: `connect` hands the caller the client end of a
/// fresh socket pair and queues the server end for `accept`.
pub struct LoopbackTransport {
    pending: Mutex<VecDeque<Connection>>,
    arrived: Condvar,
    closed: AtomicBool,
}

impl LoopbackTransport {
    pub fn new() -> Arc<Self> {
        Arc::new(LoopbackTransport {
            pending: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// Dial the server: returns the client-side [`Connection`], or `None`
    /// if the transport is closed (or the process is out of descriptors).
    pub fn connect(&self) -> Option<Connection> {
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let (client, server) = UnixStream::pair().ok()?;
        let end = |s| Connection {
            socket: Socket::Unix(s),
        };
        let mut q = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        q.push_back(end(server));
        drop(q);
        self.arrived.notify_one();
        Some(end(client))
    }
}

impl Transport for LoopbackTransport {
    fn accept(&self) -> Option<Connection> {
        let mut q = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            q = self.arrived.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.arrived.notify_all();
    }

    fn name(&self) -> &'static str {
        "loopback"
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// `std::net` TCP listener transport.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    closed: AtomicBool,
}

impl TcpTransport {
    /// Bind a listener (use port 0 for an ephemeral port in tests).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Arc::new(TcpTransport {
            listener,
            addr,
            closed: AtomicBool::new(false),
        }))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Dial a server (client side); independent of any listener instance.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        Ok(tcp_connection(TcpStream::connect(addr)?))
    }
}

/// Wrap a `TcpStream` as a [`Connection`]. `TCP_NODELAY` is set on every
/// accepted and dialed socket: the protocol pipelines many small frames and
/// Nagle batching would serialize them behind delayed ACKs.
fn tcp_connection(stream: TcpStream) -> Connection {
    stream.set_nodelay(true).ok();
    Connection {
        socket: Socket::Tcp(stream),
    }
}

impl Transport for TcpTransport {
    fn accept(&self) -> Option<Connection> {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.closed.load(Ordering::Acquire) {
                        return None;
                    }
                    return Some(tcp_connection(stream));
                }
                Err(_) => {
                    if self.closed.load(Ordering::Acquire) {
                        return None;
                    }
                }
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway self-connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// More than any default socket buffer holds: a blocking write of this
    /// much to a peer that never reads must park.
    const OVER_SOCKET_BUFFER: usize = 8 << 20;

    #[test]
    fn loopback_connect_accept_duplex() {
        let t = LoopbackTransport::new();
        let client = t.connect().unwrap();
        let server = t.accept().unwrap();
        (&client.socket).write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        (&server.socket).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        (&server.socket).write_all(b"pong").unwrap();
        (&client.socket).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        drop(client);
        assert_eq!(
            (&server.socket).read(&mut buf).unwrap(),
            0,
            "EOF after drop"
        );
    }

    #[test]
    fn loopback_close_unblocks_accept_and_refuses_dials() {
        let t = LoopbackTransport::new();
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.accept().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.close();
        assert!(h.join().unwrap(), "accept observed close");
        assert!(t.connect().is_none());
    }

    #[test]
    fn closer_unblocks_parked_reader() {
        let t = LoopbackTransport::new();
        let _client = t.connect().unwrap(); // held open: reader would park forever
        let server = Arc::new(t.accept().unwrap().socket);
        let h = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut b = [0u8; 1];
                (&*server).read(&mut b).unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        server.shutdown().unwrap();
        assert_eq!(h.join().unwrap(), 0, "closed connection reads EOF");
    }

    #[test]
    fn closer_unblocks_writer_parked_on_full_pipe() {
        let t = LoopbackTransport::new();
        let _client = t.connect().unwrap(); // never reads: server tx fills up
        let server = Arc::new(t.accept().unwrap().socket);
        let h = {
            let server = server.clone();
            std::thread::spawn(move || {
                // The write parks on the full socket buffer until the
                // shutdown, then fails with BrokenPipe instead of hanging
                // forever.
                (&*server)
                    .write_all(&vec![3u8; OVER_SOCKET_BUFFER])
                    .unwrap_err()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        server.shutdown().unwrap();
        let err = h.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn loopback_accept_after_close_returns_none() {
        let t = LoopbackTransport::new();
        // A dial queued before close is surfaced, then accept reports
        // closed — and keeps reporting closed on every later call.
        let _client = t.connect().unwrap();
        t.close();
        assert!(t.accept().is_some(), "pre-close dial still accepted");
        assert!(t.accept().is_none());
        assert!(t.accept().is_none(), "accept-after-close is sticky");
        assert!(t.connect().is_none(), "dial after close refused");
    }

    #[test]
    fn tcp_accept_after_close_returns_none() {
        let t = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = t.local_addr();
        t.close();
        assert!(t.accept().is_none());
        assert!(t.accept().is_none(), "accept-after-close is sticky");
        // A racing dial may or may not land in the kernel backlog, but it
        // must never resurrect the transport.
        let _ = TcpStream::connect(addr);
        assert!(t.accept().is_none());
    }

    #[test]
    fn tcp_close_unblocks_parked_accept() {
        let t = TcpTransport::bind("127.0.0.1:0").unwrap();
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.accept().is_none());
        std::thread::sleep(std::time::Duration::from_millis(30));
        t.close();
        assert!(h.join().unwrap(), "parked accept observed close");
    }

    #[test]
    fn tcp_connection_carries_raw_stream_with_nodelay() {
        let t = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = t.local_addr();
        let h = {
            let t = t.clone();
            std::thread::spawn(move || t.accept().unwrap())
        };
        let c = TcpTransport::connect(addr).unwrap();
        let s = h.join().unwrap();
        for conn in [&c, &s] {
            let Socket::Tcp(raw) = &conn.socket else {
                panic!("tcp connection carries a TcpStream");
            };
            assert!(raw.nodelay().unwrap(), "TCP_NODELAY set");
        }
        t.close();
    }

    #[test]
    fn tcp_accept_connect_roundtrip() {
        let t = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = t.local_addr();
        let h = {
            let t = t.clone();
            std::thread::spawn(move || {
                let conn = t.accept().unwrap();
                let mut buf = [0u8; 2];
                (&conn.socket).read_exact(&mut buf).unwrap();
                (&conn.socket).write_all(&buf).unwrap();
            })
        };
        let c = TcpTransport::connect(addr).unwrap();
        (&c.socket).write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        (&c.socket).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        h.join().unwrap();
        t.close();
        assert!(t.accept().is_none());
    }
}
