//! Whole-process cost counters: CPU time and context switches from procfs,
//! allocations from a counting global allocator. The server runs inside
//! this process, so its threads and allocations are included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counter stripes, so the allocator does not make every thread bounce
/// one cache line.
const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Stripe; STRIPES] = [const {
    Stripe {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPES];

thread_local! {
    /// Its address picks the thread's stripe. Const-initialised and without
    /// a destructor, so touching it from inside the allocator is safe.
    static STRIPE_ANCHOR: u8 = const { 0 };
}

/// `System`, counting every allocation and its size.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count(size: usize) {
        let stripe = STRIPE_ANCHOR
            .try_with(|a| (a as *const u8 as usize >> 6) % STRIPES)
            .unwrap_or(0);
        COUNTS[stripe].allocs.fetch_add(1, Ordering::Relaxed);
        COUNTS[stripe]
            .bytes
            .fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches only atomics and a
// destructor-free thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Run `f` on a helper thread at the lowest scheduling priority (nice 19)
/// and return its result. Threads inherit the priority of the thread that
/// spawns them, so every thread `f` starts — the engine's flush,
/// housekeeping and compaction threads, the server's accept, I/O and
/// committer threads — runs below the driver thread.
///
/// The server and the driver share two cores, and the open-loop driver
/// spins (see `Driver::run_phase`). At equal priority the one thread that
/// measures is time-sliced like any of the dozen it measures: whenever the
/// server wants both cores the driver loses its core for a scheduler slice
/// at a time and sends milliseconds late (write_ingest: lateness p99 3 ms).
/// Below the driver, the server has one core to itself and whatever the
/// driver leaves of the other — the nearest a single box gets to a load
/// generator on a machine of its own.
pub fn below_driver<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            // SAFETY: no pointers; PRIO_PROCESS (0) with who 0 names the
            // calling thread on Linux. Lowering priority needs no
            // privilege; the result is checked.
            let rc = unsafe { setpriority(0, 0, 19) };
            assert_eq!(rc, 0, "setpriority: {}", std::io::Error::last_os_error());
            f()
        })
        .join()
        .expect("set-up thread panicked")
    })
}

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessSample {
    /// User + system CPU of every thread, in microseconds.
    pub cpu_us: u64,
    pub ctx_switches: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl ProcessSample {
    pub fn now() -> ProcessSample {
        let (allocs, alloc_bytes) = COUNTS.iter().fold((0, 0), |(a, b), s| {
            (
                a + s.allocs.load(Ordering::Relaxed),
                b + s.bytes.load(Ordering::Relaxed),
            )
        });
        ProcessSample {
            cpu_us: cpu_us(),
            ctx_switches: ctx_switches(),
            allocs,
            alloc_bytes,
        }
    }

    pub fn since(&self, earlier: &ProcessSample) -> ProcessSample {
        ProcessSample {
            cpu_us: self.cpu_us.saturating_sub(earlier.cpu_us),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
        }
    }
}

/// utime + stime of the process from `/proc/self/stat`. Linux reports them
/// in clock ticks of 10 ms (USER_HZ is 100 on every supported target).
pub fn cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * 10_000
}

/// Voluntary + involuntary context switches summed over every thread.
fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.rsplit('\t').next()?.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_with_work() {
        let before = ProcessSample::now();
        let mut keep = Vec::new();
        for i in 0..1000usize {
            keep.push(vec![0u8; 64 + i % 7]);
        }
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            std::hint::black_box(&keep);
        }
        let d = ProcessSample::now().since(&before);
        // Under `cargo test` the counting allocator is not installed, so
        // only the procfs side is asserted here.
        assert!(d.cpu_us >= 30_000, "cpu_us {}", d.cpu_us);
        assert!(ProcessSample::now().ctx_switches >= before.ctx_switches);
    }
}
