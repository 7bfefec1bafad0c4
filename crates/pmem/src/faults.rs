//! Deterministic fault injection: crash the device at the Kth persistence
//! event.
//!
//! A [`FaultPlan`] installed on a [`PmemDevice`](crate::PmemDevice) counts
//! *persistence events* — cacheline writes handed to the device, XPBuffer
//! evictions, explicit drains, and persistence barriers — and simulates a
//! power failure immediately after the Kth event completes. The trip
//! protocol runs entirely on the thread that triggered the event:
//!
//! 1. **Armed → Capturing**: the winning thread CASes the phase so no other
//!    event can trip again. From this moment [`tripped`] observers see the
//!    crash, so an operation that returned *before* the trip is known to
//!    have fully reached the device.
//! 2. The registered observer runs (under eADR the cache hierarchy writes
//!    back every dirty LLC line — the caches are inside the persistence
//!    domain, so their contents belong in the crash image).
//! 3. The per-DIMM media is cloned and the XPBuffer applied according to the
//!    plan's policy, producing the byte-exact *survivor image* stored in a
//!    [`TripReport`].
//! 4. **Capturing → Tripped**: the device becomes a *black hole* — writes
//!    are silently dropped ("the power is out") but reads keep working, so
//!    in-flight background threads terminate normally instead of
//!    deadlocking. The crashed process is then discarded and recovery runs
//!    against a fresh device rebuilt from the survivor image.
//!
//! XPBuffer policy models two platforms:
//! - default (ADR and eADR): the WPQ/XPBuffer is inside the persistence
//!   domain, so every staged sector is applied — identical to what
//!   [`power_fail`](crate::PmemDevice::power_fail) guarantees;
//! - torn mode ([`FaultPlan::torn`]): staged-but-unevicted XPLines are
//!   dropped and the most recently touched line is *torn* — only a
//!   seed-chosen subset of its staged sectors reaches the media — modelling
//!   a platform whose flush-on-fail did not complete. Guarantees are weaker
//!   here; recovery must merely never fabricate data or crash.
//!
//! [`tripped`]: crate::PmemDevice::fault_tripped

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// The classes of persistence events a [`FaultPlan`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultEventKind {
    /// One 64 B cacheline handed to the device.
    CachelineWrite,
    /// One XPLine pushed from the XPBuffer to the media.
    Eviction,
    /// An explicit XPBuffer drain.
    Drain,
    /// A persistence barrier (`sfence`).
    Barrier,
}

/// When and how to crash. Install with
/// [`PmemDevice::install_fault_plan`](crate::PmemDevice::install_fault_plan).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// 1-based persistence-event index to crash after. `u64::MAX` never
    /// trips — useful for counting the total events of a workload.
    pub(crate) trip_at: u64,
    /// Discard un-evicted XPBuffer slots from the crash image instead of
    /// applying them (torn-platform mode; see module docs).
    pub(crate) drop_xpbuffer: bool,
    /// With `drop_xpbuffer`: partially apply the most recently touched
    /// XPLine, tearing it at sector granularity.
    pub(crate) tear_inflight: bool,
    /// Drives the deterministic choice of torn sectors.
    pub(crate) seed: u64,
    /// Record `(event index, fault-context label)` for every event counted
    /// on a thread inside a [`fault_context`] scope. Crash sweeps use the
    /// trace of a baseline run to aim follow-up trips at specific code
    /// paths (copy-flush, L0 dump, log reset, ...).
    pub(crate) trace: bool,
}

impl FaultPlan {
    /// Crash after the `k`th persistence event; the XPBuffer survives
    /// (standard ADR/eADR device semantics).
    pub fn at(k: u64) -> Self {
        FaultPlan {
            trip_at: k,
            drop_xpbuffer: false,
            tear_inflight: false,
            seed: 0,
            trace: false,
        }
    }

    /// Never crash; just count events (read back via
    /// [`fault_events`](crate::PmemDevice::fault_events)).
    pub fn count_only() -> Self {
        Self::at(u64::MAX)
    }

    /// Crash after the `k`th event on a torn platform: un-evicted XPBuffer
    /// contents are lost and the in-flight XPLine is torn by `seed`.
    pub fn torn(k: u64, seed: u64) -> Self {
        FaultPlan {
            trip_at: k,
            drop_xpbuffer: true,
            tear_inflight: true,
            seed,
            trace: false,
        }
    }

    /// Enable context tracing (see the `trace` field).
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Everything known about a trip, including the byte-exact survivor image.
#[derive(Clone)]
pub struct TripReport {
    /// The 1-based event index that tripped (equals the plan's `trip_at`).
    pub(crate) event_index: u64,
    /// The kind of the triggering event.
    pub(crate) kind: FaultEventKind,
    /// The fault-context label stack of the tripping thread, outermost
    /// first (see [`fault_context`]).
    pub context: Vec<&'static str>,
    /// Per-DIMM media contents that survive the crash. Feed to
    /// [`PmemDevice::from_media`](crate::PmemDevice::from_media) to reopen.
    pub media: Vec<Vec<u8>>,
}

impl std::fmt::Debug for TripReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripReport")
            .field("event_index", &self.event_index)
            .field("kind", &self.kind)
            .field("context", &self.context)
            .field("media_dimms", &self.media.len())
            .finish()
    }
}

/// Phase machine: see module docs.
pub(crate) const PHASE_DISARMED: u8 = 0;
pub(crate) const PHASE_ARMED: u8 = 1;
pub(crate) const PHASE_CAPTURING: u8 = 2;
pub(crate) const PHASE_TRIPPED: u8 = 3;

/// Observer invoked at trip time, before the survivor image is captured.
/// The cache crate registers the eADR writeback here.
pub(crate) type FaultObserver = Box<dyn Fn() + Send + Sync>;

/// Per-device fault state. All fast-path reads are a single atomic load.
pub(crate) struct FaultState {
    phase: AtomicU8,
    trip_at: AtomicU64,
    counter: AtomicU64,
    tracing: AtomicBool,
    pub(crate) plan: Mutex<Option<FaultPlan>>,
    pub(crate) observer: Mutex<Option<FaultObserver>>,
    pub(crate) report: Mutex<Option<TripReport>>,
    pub(crate) trace: Mutex<Vec<(u64, &'static str)>>,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState {
            phase: AtomicU8::new(PHASE_DISARMED),
            trip_at: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            tracing: AtomicBool::new(false),
            plan: Mutex::new(None),
            observer: Mutex::new(None),
            report: Mutex::new(None),
            trace: Mutex::new(Vec::new()),
        }
    }
}

impl FaultState {
    pub(crate) fn arm(&self, plan: FaultPlan) {
        // Order matters: publish the threshold before opening the gate.
        self.counter.store(0, Ordering::SeqCst);
        self.trip_at.store(plan.trip_at, Ordering::SeqCst);
        self.tracing.store(plan.trace, Ordering::SeqCst);
        self.trace.lock().unwrap_or_else(|e| e.into_inner()).clear();
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
        *self.report.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.phase.store(PHASE_ARMED, Ordering::SeqCst);
    }

    pub(crate) fn disarm(&self) {
        self.phase.store(PHASE_DISARMED, Ordering::SeqCst);
        self.tracing.store(false, Ordering::SeqCst);
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Count one event. Returns `Some(event_index)` iff the calling thread
    /// won the trip and must now run capture.
    pub(crate) fn record(&self) -> Option<u64> {
        if self.phase.load(Ordering::Acquire) != PHASE_ARMED {
            return None;
        }
        let n = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        if self.tracing.load(Ordering::Relaxed) {
            if let Some(&label) = FAULT_CONTEXT.with(|c| c.borrow().last().copied()).as_ref() {
                self.trace
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((n, label));
            }
        }
        if n >= self.trip_at.load(Ordering::SeqCst)
            && self
                .phase
                .compare_exchange(
                    PHASE_ARMED,
                    PHASE_CAPTURING,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
        {
            return Some(n);
        }
        None
    }

    pub(crate) fn finish_capture(&self) {
        self.phase.store(PHASE_TRIPPED, Ordering::SeqCst);
    }

    /// True from the instant a trip is decided (including during capture).
    pub(crate) fn tripped(&self) -> bool {
        self.phase.load(Ordering::SeqCst) >= PHASE_CAPTURING
    }

    /// True once the device has become a black hole for writes.
    pub(crate) fn blackholed(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_TRIPPED
    }

    pub(crate) fn events(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Drain the context trace recorded so far (traced plans only).
    pub(crate) fn take_trace(&self) -> Vec<(u64, &'static str)> {
        std::mem::take(&mut self.trace.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Deterministic sector-subset choice for torn XPLines: a SplitMix64 draw
/// keyed by (seed, dimm, line). The same plan always tears the same way.
pub(crate) fn torn_sector_mask(seed: u64, dimm: usize, line: u64) -> u8 {
    let mut z = seed ^ (dimm as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ line;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8 & 0x0F
}

thread_local! {
    static FAULT_CONTEXT: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII label marking the current thread as being inside a named crash
/// site (e.g. `"cachekv::copy_flush"`). If a fault trips on this thread
/// while the guard lives, the label stack is recorded in the
/// [`TripReport`], letting crash sweeps prove they hit specific code paths.
pub fn fault_context(label: &'static str) -> FaultContextGuard {
    FAULT_CONTEXT.with(|c| c.borrow_mut().push(label));
    FaultContextGuard { _priv: () }
}

/// Guard returned by [`fault_context`]; pops the label on drop.
pub struct FaultContextGuard {
    _priv: (),
}

impl Drop for FaultContextGuard {
    fn drop(&mut self) {
        FAULT_CONTEXT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The tripping thread's current label stack, outermost first.
pub(crate) fn current_context() -> Vec<&'static str> {
    FAULT_CONTEXT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_trips_exactly_once_at_threshold() {
        let st = FaultState::default();
        st.arm(FaultPlan::at(3));
        assert_eq!(st.record(), None);
        assert_eq!(st.record(), None);
        assert!(!st.tripped());
        assert_eq!(st.record(), Some(3));
        assert!(st.tripped());
        assert!(!st.blackholed(), "capturing, not yet blackholed");
        st.finish_capture();
        assert!(st.blackholed());
        assert_eq!(st.record(), None, "no double trip");
    }

    #[test]
    fn count_only_never_trips() {
        let st = FaultState::default();
        st.arm(FaultPlan::count_only());
        for _ in 0..10_000 {
            assert_eq!(st.record(), None);
        }
        assert_eq!(st.events(), 10_000);
        assert!(!st.tripped());
    }

    #[test]
    fn disarmed_records_nothing() {
        let st = FaultState::default();
        assert_eq!(st.record(), None);
        assert_eq!(st.events(), 0);
    }

    #[test]
    fn torn_mask_is_deterministic_and_varies() {
        assert_eq!(torn_sector_mask(7, 0, 256), torn_sector_mask(7, 0, 256));
        let distinct: std::collections::HashSet<u8> = (0..64u64)
            .map(|l| torn_sector_mask(7, 0, l * 256))
            .collect();
        assert!(distinct.len() > 4, "masks should vary across lines");
    }

    #[test]
    fn traced_plan_records_labelled_events() {
        let st = FaultState::default();
        st.arm(FaultPlan::count_only().traced());
        st.record(); // unlabelled: not traced
        {
            let _g = fault_context("phase-a");
            st.record();
            st.record();
        }
        st.record(); // unlabelled again
        assert_eq!(st.take_trace(), vec![(2, "phase-a"), (3, "phase-a")]);
        assert_eq!(st.events(), 4, "tracing never changes the count");
    }

    #[test]
    fn context_stack_nests_and_unwinds() {
        assert!(current_context().is_empty());
        {
            let _a = fault_context("outer");
            {
                let _b = fault_context("inner");
                assert_eq!(current_context(), vec!["outer", "inner"]);
            }
            assert_eq!(current_context(), vec!["outer"]);
        }
        assert!(current_context().is_empty());
    }
}
