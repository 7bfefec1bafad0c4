//! Simulated time accounting.
//!
//! Device and cache operations *charge* nanoseconds to a [`Clock`]. Two modes
//! are provided:
//!
//! * [`ClockMode::Virtual`] — charges are summed into an atomic counter and
//!   no real time passes. Deterministic; used by unit tests, by harnesses
//!   that compute throughput from simulated time, and by the observability
//!   layer's phase timers (identical runs charge identical nanoseconds).
//! * [`ClockMode::Spin`] — charges busy-wait for their duration, so
//!   simulated device costs compose with *real* CPU work and *real* lock
//!   contention. This is what the figure-reproduction benchmarks use: the
//!   paper's Observation 2 (software overheads dominating) emerges naturally
//!   because index updates and MemTable locks cost genuine wall-clock time.
//!
//! **Settling.** A charge made outside any operation spins at once. Inside
//! an operation — a [`SpinScope`] opened by the cache hierarchy around each
//! of its public calls — `Spin` charges are owed instead, and the outermost
//! scope spins the whole debt off in one busy-wait when it closes, after the
//! operation has released every simulator lock. Each operation therefore
//! still takes its own modelled latency in wall time, but pays the
//! `Instant` overhead of one spin rather than one per cacheline. No debt
//! outlives the operation that incurred it. Totals are unaffected: the
//! global counter and [`Clock::thread_ns`] are updated at every charge.
//!
//! Besides the global total, every charge is also added to a **thread-local**
//! accumulator readable via [`Clock::thread_ns`]. Phase timers diff that
//! accumulator around a critical section to attribute simulated time to the
//! current thread only — background flush threads charging the same clock do
//! not perturb a foreground writer's measurement.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How charged nanoseconds are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Account only; never block. Deterministic.
    #[default]
    Virtual,
    /// Busy-wait for charges so device latency is felt in wall-clock time
    /// (once per operation; see the module docs on settling).
    Spin,
}

/// This thread's share of every clock's accounting.
struct ThreadClock {
    /// Nanoseconds charged by *this* thread to any clock.
    ns: Cell<u64>,
    /// Open [`SpinScope`]s on this thread.
    depth: Cell<u32>,
    /// `Spin` nanoseconds charged inside the open scopes, not yet spun.
    debt: Cell<u64>,
}

thread_local! {
    static THREAD: ThreadClock = const {
        ThreadClock {
            ns: Cell::new(0),
            depth: Cell::new(0),
            debt: Cell::new(0),
        }
    };
}

/// A shared simulated-time sink. Cheap to clone via `Arc` at the call sites
/// that need it; internally just an atomic counter plus the mode.
#[derive(Debug)]
pub struct Clock {
    mode: ClockMode,
    total_ns: AtomicU64,
}

impl Clock {
    /// Create a clock with the given mode.
    pub fn new(mode: ClockMode) -> Self {
        Clock {
            mode,
            total_ns: AtomicU64::new(0),
        }
    }

    /// Accounting-only virtual clock (the default for tests).
    pub fn counting() -> Self {
        Clock::new(ClockMode::Virtual)
    }

    /// The clock's mode.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// Charge `ns` simulated nanoseconds.
    #[inline]
    pub fn charge(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        let spin_now = THREAD.with(|t| {
            t.ns.set(t.ns.get().wrapping_add(ns));
            if self.mode != ClockMode::Spin {
                return false;
            }
            if t.depth.get() > 0 {
                t.debt.set(t.debt.get() + ns);
                return false;
            }
            true
        });
        if spin_now {
            spin_for(Duration::from_nanos(ns));
        }
    }

    /// Open an operation on this thread: `Spin` charges made before the
    /// returned scope drops are owed, and the outermost scope spins them off
    /// in one busy-wait as it drops. Scopes nest; inner ones settle nothing.
    #[inline]
    pub fn spin_scope() -> SpinScope {
        THREAD.with(|t| t.depth.set(t.depth.get() + 1));
        SpinScope {
            _thread_bound: PhantomData,
        }
    }

    /// Total nanoseconds charged so far (across all threads).
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds charged by the calling thread to *any* clock since it
    /// started. Monotonically non-decreasing within a thread; diff two reads
    /// to attribute simulated time to a code region.
    pub fn thread_ns() -> u64 {
        THREAD.with(|t| t.ns.get())
    }

    /// Reset the accumulated total (e.g., between benchmark phases).
    pub fn reset(&self) {
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// An open operation; see [`Clock::spin_scope`]. Bound to the thread that
/// opened it, since the debt it settles is that thread's.
#[must_use = "the scope settles when dropped"]
pub struct SpinScope {
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for SpinScope {
    #[inline]
    fn drop(&mut self) {
        let debt = THREAD.with(|t| {
            let depth = t.depth.get() - 1;
            t.depth.set(depth);
            if depth == 0 {
                t.debt.replace(0)
            } else {
                0
            }
        });
        if debt > 0 {
            spin_for(Duration::from_nanos(debt));
        }
    }
}

/// Busy-wait for approximately `d`. `Instant`-based so it needs no
/// calibration; the ~20 ns `Instant::now` overhead acts as a small floor,
/// below real instruction issue costs anyway.
#[inline]
fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_accumulates_without_blocking() {
        let c = Clock::counting();
        let t0 = Instant::now();
        for _ in 0..1000 {
            c.charge(1_000_000); // 1 ms each; must not sleep
        }
        assert_eq!(c.total_ns(), 1_000_000_000);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn zero_charge_is_free() {
        let c = Clock::new(ClockMode::Spin);
        c.charge(0);
        assert_eq!(c.total_ns(), 0);
    }

    #[test]
    fn spin_mode_takes_wall_time() {
        let c = Clock::new(ClockMode::Spin);
        let t0 = Instant::now();
        c.charge(2_000_000); // 2 ms
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(c.total_ns(), 2_000_000);
    }

    #[test]
    fn charge_outside_a_scope_spins_at_once() {
        let c = Clock::new(ClockMode::Spin);
        let t0 = Instant::now();
        c.charge(1_000_000);
        assert!(
            t0.elapsed() >= Duration::from_millis(1),
            "spun before return"
        );
    }

    #[test]
    fn scope_settles_once_with_exact_totals() {
        let c = Clock::new(ClockMode::Spin);
        let base = Clock::thread_ns();
        // Best of five, so one preemption does not decide the comparison.
        let mut scoped = Duration::MAX;
        let mut separate = Duration::MAX;
        for _ in 0..5 {
            let t0 = Instant::now();
            {
                let _op = Clock::spin_scope();
                for _ in 0..1000 {
                    c.charge(3);
                }
            }
            let dt = t0.elapsed();
            assert!(dt >= Duration::from_micros(3), "the debt was spun: {dt:?}");
            scoped = scoped.min(dt);
            let t0 = Instant::now();
            for _ in 0..1000 {
                c.charge(3);
            }
            separate = separate.min(t0.elapsed());
        }
        // Each separate spin pays two `Instant` reads; one settle pays two
        // in all. Unoptimised test builds spend ≈ 35 ns of bookkeeping per
        // charge either way, which caps the ratio near 3 there.
        assert!(
            scoped * 2 < separate,
            "one settle ({scoped:?}) is far cheaper than 1000 spins ({separate:?})"
        );
        assert_eq!(c.total_ns(), 2 * 5 * 1000 * 3);
        assert_eq!(Clock::thread_ns() - base, 2 * 5 * 1000 * 3);
    }

    #[test]
    fn nested_scopes_settle_once_at_the_outermost() {
        let c = Clock::new(ClockMode::Spin);
        let t0 = Instant::now();
        let outer = Clock::spin_scope();
        {
            let _inner = Clock::spin_scope();
            c.charge(20_000_000); // 20 ms, owed
        }
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "the inner scope settled nothing"
        );
        drop(outer);
        assert!(t0.elapsed() >= Duration::from_millis(20), "outer settled");
        // Nothing carries into the next operation.
        let t1 = Instant::now();
        drop(Clock::spin_scope());
        assert!(t1.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn virtual_charges_in_a_scope_owe_nothing() {
        let c = Clock::counting();
        let t0 = Instant::now();
        {
            let _op = Clock::spin_scope();
            c.charge(1_000_000_000);
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(c.total_ns(), 1_000_000_000);
    }

    #[test]
    fn reset_clears_total() {
        let c = Clock::counting();
        c.charge(42);
        c.reset();
        assert_eq!(c.total_ns(), 0);
    }

    #[test]
    fn concurrent_charges_sum() {
        let c = std::sync::Arc::new(Clock::counting());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.charge(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.total_ns(), 4 * 10_000 * 3);
    }

    #[test]
    fn thread_ns_is_per_thread() {
        let c = std::sync::Arc::new(Clock::counting());
        let base = Clock::thread_ns();
        c.charge(10);
        assert_eq!(Clock::thread_ns() - base, 10);
        // Another thread's charges don't show up here.
        let c2 = c.clone();
        std::thread::spawn(move || {
            let b = Clock::thread_ns();
            c2.charge(99);
            assert_eq!(Clock::thread_ns() - b, 99);
        })
        .join()
        .unwrap();
        assert_eq!(Clock::thread_ns() - base, 10);
        // Two clocks feed the same thread-local stream.
        let other = Clock::counting();
        other.charge(5);
        assert_eq!(Clock::thread_ns() - base, 15);
    }
}
