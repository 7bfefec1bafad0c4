//! Minimal readiness polling over `poll(2)` — no async runtime, no external
//! crates. A [`Poller`] owns a set of registered file descriptors keyed by a
//! caller-chosen `u64` token and reports readable/writable/closed readiness.
//! A [`Waker`] (a nonblocking `UnixStream` pair whose read end the poller
//! watches internally) lets other threads interrupt a blocked `poll` call.
//!
//! The `Poller` itself is single-threaded by design: only the owning I/O
//! thread registers, polls, and deregisters. Cross-thread signalling goes
//! through the cloneable `Waker` plus whatever queue the caller maintains.
//!
//! The libc symbols are declared directly (`std` already links libc on every
//! Unix target) so the workspace stays free of external dependencies.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Which readiness kinds a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but currently watching nothing (read-paused connection
    /// with an empty write buffer). Errors/hangup are still reported.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn events(self) -> i16 {
        let mut ev = 0;
        if self.readable {
            ev |= POLLIN;
        }
        if self.writable {
            ev |= POLLOUT;
        }
        ev
    }
}

/// One readiness report from [`Poller::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// POLLERR / POLLHUP / POLLNVAL — the fd is broken or the peer is gone;
    /// the owner should tear the connection down after draining reads.
    pub closed: bool,
}

/// Cross-thread interrupt for a blocked [`Poller::poll`]. Cheap to clone.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Wake the poller. Idempotent and never blocks: once the signal pipe is
    /// full the poller is already guaranteed to wake, so a `WouldBlock` (or
    /// any other error on this one-way signal path) is deliberately dropped.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

struct Slot {
    fd: RawFd,
    interest: Interest,
}

/// Level-triggered readiness poller over `poll(2)`.
pub struct Poller {
    slots: HashMap<u64, Slot>,
    waker_rx: UnixStream,
    waker_tx: Arc<UnixStream>,
    // Scratch vectors reused across poll calls.
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Poller {
            slots: HashMap::new(),
            waker_rx: rx,
            waker_tx: Arc::new(tx),
            fds: Vec::new(),
            tokens: Vec::new(),
        })
    }

    /// A waker that interrupts `poll` from any thread.
    pub fn waker(&self) -> Waker {
        Waker {
            tx: self.waker_tx.clone(),
        }
    }

    /// Watch `fd` under `token`. Tokens are caller-assigned and must be
    /// unique among live registrations; re-registering a live token is a
    /// logic error and reported as `InvalidInput`. The fd must outlive the
    /// registration (the poller never closes it).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.slots.contains_key(&token) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token already registered",
            ));
        }
        self.slots.insert(token, Slot { fd, interest });
        Ok(())
    }

    /// Change what `token` watches.
    pub fn modify(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        match self.slots.get_mut(&token) {
            Some(slot) => {
                slot.interest = interest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "token not registered",
            )),
        }
    }

    pub fn interest(&self, token: u64) -> Option<Interest> {
        self.slots.get(&token).map(|s| s.interest)
    }

    /// Stop watching `token`. Unknown tokens are a no-op (teardown paths may
    /// race a close that already removed the slot).
    pub fn deregister(&mut self, token: u64) {
        self.slots.remove(&token);
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Block until at least one registered fd is ready, the waker fires, or
    /// `timeout` elapses (`None` = wait indefinitely). Ready fds are appended
    /// to `events` (cleared first). Returns the number of events; a waker
    /// fire alone yields zero events. `EINTR` is retried internally.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.fds.clear();
        self.tokens.clear();
        // Slot 0 is always the waker's read end.
        self.fds.push(PollFd {
            fd: self.waker_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        self.tokens.push(0);
        for (&token, slot) in &self.slots {
            self.fds.push(PollFd {
                fd: slot.fd,
                events: slot.interest.events(),
                revents: 0,
            });
            self.tokens.push(token);
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        loop {
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        if self.fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            self.drain_waker();
        }
        for i in 1..self.fds.len() {
            let re = self.fds[i].revents;
            if re == 0 {
                continue;
            }
            events.push(Event {
                token: self.tokens[i],
                readable: re & POLLIN != 0,
                writable: re & POLLOUT != 0,
                closed: re & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.waker_rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(all(unix, not(target_os = "linux")))]
const RLIMIT_NOFILE: i32 = 8;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raise the soft open-file limit toward `want` (clamped to the hard limit)
/// and return the soft limit now in effect. Benches opening thousands of
/// sockets call this first; failures degrade to the current limit rather
/// than erroring, so callers can clamp their fan-out to the return value.
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let target = want.min(lim.max);
        let new = RLimit {
            cur: target,
            max: lim.max,
        };
        if setrlimit(RLIMIT_NOFILE, &new) == 0 {
            target
        } else {
            lim.cur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;
    use std::time::Instant;

    #[test]
    fn waker_interrupts_blocked_poll() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let n = p.poll(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 0, "waker fire reports no fd events");
        assert!(start.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
        // Waker byte was drained: an immediate zero-timeout poll is quiet.
        let n = p.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn reports_readable_and_writable() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.register(a.as_raw_fd(), 7, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        p.poll(&mut events, Some(Duration::ZERO)).unwrap();
        // Nothing to read yet, but an idle socket is writable.
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        assert!(!events.iter().any(|e| e.token == 7 && e.readable));

        (&b).write_all(b"x").unwrap();
        p.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Peer close surfaces as readable (EOF) and/or closed.
        drop(b);
        p.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.readable || ev.closed);
    }

    #[test]
    fn interest_none_stays_quiet_until_modified() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.register(a.as_raw_fd(), 1, Interest::NONE).unwrap();
        (&b).write_all(b"y").unwrap();
        let mut events = Vec::new();
        p.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| !e.readable && !e.writable));
        p.modify(1, Interest::READ).unwrap();
        p.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
    }

    #[test]
    fn duplicate_token_rejected_and_deregister_idempotent() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut p = Poller::new().unwrap();
        p.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
        assert!(p.register(a.as_raw_fd(), 3, Interest::READ).is_err());
        p.deregister(3);
        p.deregister(3);
        assert!(p.is_empty());
        assert!(p.modify(3, Interest::READ).is_err());
    }

    #[test]
    fn tcp_accept_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut p = Poller::new().unwrap();
        p.register(listener.as_raw_fd(), 9, Interest::READ).unwrap();
        let mut events = Vec::new();
        p.poll(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
        let _c = TcpStream::connect(addr).unwrap();
        p.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        let (s, _) = listener.accept().unwrap();
        drop(s);
    }

    #[test]
    fn raise_nofile_limit_reports_usable_value() {
        let lim = raise_nofile_limit(4096);
        assert!(lim >= 256, "soft fd limit suspiciously low: {lim}");
        // Second call is idempotent and never lowers the limit.
        assert!(raise_nofile_limit(1024) >= lim.min(4096));
    }
}
