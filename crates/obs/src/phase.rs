//! Per-phase latency decomposition (paper Figure 5).
//!
//! The paper splits a put's latency into software phases — lock wait, sub-
//! MemTable allocation, index update, data copy, and persistence wait — to
//! show that software overheads dominate once the medium is an eADR-backed
//! CPU cache. [`PhaseSet`] reproduces that decomposition: each phase gets a
//! total-nanoseconds counter and a latency histogram in a [`Registry`].
//!
//! Time comes from a [`TimeSource`]:
//!
//! * [`TimeSource::Virtual`] diffs [`Clock::thread_ns`] around the phase, so
//!   with [`ClockMode::Virtual`] two identical single-threaded runs produce
//!   *identical* phase totals — the determinism the metrics-invariant tests
//!   pin.
//! * [`TimeSource::Wall`] uses `Instant`, for benchmarks running with
//!   [`ClockMode::Spin`] where real contention is part of the measurement.

use std::sync::Arc;
use std::time::Instant;

use cachekv_pmem::{Clock, ClockMode};

use crate::histogram::Histogram;
use crate::registry::{Counter, Registry};

/// Where phase timers read time from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSource {
    /// Simulated nanoseconds charged by this thread ([`Clock::thread_ns`]).
    Virtual,
    /// Real elapsed time (`Instant`).
    Wall,
}

impl TimeSource {
    /// The source matching a clock's mode: virtual clocks yield deterministic
    /// thread-charged time, spin clocks yield wall time.
    pub fn for_mode(mode: ClockMode) -> TimeSource {
        match mode {
            ClockMode::Virtual => TimeSource::Virtual,
            ClockMode::Spin => TimeSource::Wall,
        }
    }

    #[inline]
    fn now(self) -> TimePoint {
        match self {
            TimeSource::Virtual => TimePoint::Virtual(Clock::thread_ns()),
            TimeSource::Wall => TimePoint::Wall(Instant::now()),
        }
    }

    /// Start a stopwatch on this source. For call sites where a closure is
    /// awkward (borrow-heavy code, multi-statement regions).
    #[inline]
    pub fn begin(self) -> Stopwatch {
        Stopwatch(self.now())
    }
}

/// A started measurement; read it with [`Stopwatch::elapsed_ns`].
#[derive(Clone, Copy)]
pub struct Stopwatch(TimePoint);

impl Stopwatch {
    /// Nanoseconds since [`TimeSource::begin`] on the calling thread.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed_ns()
    }

    /// Nanoseconds since the start, restarting the stopwatch at now: one
    /// clock read per boundary when successive laps decompose a timeline.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        let now = match self.0 {
            TimePoint::Virtual(_) => TimePoint::Virtual(Clock::thread_ns()),
            TimePoint::Wall(_) => TimePoint::Wall(Instant::now()),
        };
        let ns = match (self.0, now) {
            (TimePoint::Virtual(a), TimePoint::Virtual(b)) => b.saturating_sub(a),
            (TimePoint::Wall(a), TimePoint::Wall(b)) => b.duration_since(a).as_nanos() as u64,
            _ => unreachable!("lap never switches time source"),
        };
        self.0 = now;
        ns
    }
}

#[derive(Clone, Copy)]
enum TimePoint {
    Virtual(u64),
    Wall(Instant),
}

impl TimePoint {
    #[inline]
    fn elapsed_ns(self) -> u64 {
        match self {
            TimePoint::Virtual(start) => Clock::thread_ns().saturating_sub(start),
            TimePoint::Wall(start) => start.elapsed().as_nanos() as u64,
        }
    }
}

/// A finite enumeration of phases an operation decomposes into. Implemented
/// by [`Phase`] (writes) and [`ReadPhase`] (reads); [`PhaseSetOf`] registers
/// one counter + histogram pair per variant.
pub trait PhaseKind: Copy + 'static {
    /// Every phase, in presentation order.
    fn all() -> &'static [Self];
    /// Stable metric-name component.
    fn key(self) -> &'static str;
    /// Position in [`PhaseKind::all`]; indexes the instrument table.
    fn index(self) -> usize;
}

/// The software phases of a write, after the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting on the per-core slot lock.
    LockWait,
    /// Acquiring/stealing a sub-MemTable from the pool.
    Alloc,
    /// Skiplist/index insertion (or LIU bookkeeping).
    IndexUpdate,
    /// Copying key/value bytes into the sub-MemTable.
    DataCopy,
    /// Persistence waiting: seals, flush-queue handoff, sync barriers.
    Persist,
}

impl Phase {
    /// Every phase, in presentation order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::LockWait,
        Phase::Alloc,
        Phase::IndexUpdate,
        Phase::DataCopy,
        Phase::Persist,
    ];

    /// Stable metric-name component.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Phase::LockWait => "lock_wait",
            Phase::Alloc => "alloc",
            Phase::IndexUpdate => "index_update",
            Phase::DataCopy => "data_copy",
            Phase::Persist => "persist",
        }
    }
}

impl PhaseKind for Phase {
    fn all() -> &'static [Phase] {
        &Phase::ALL
    }
    fn key(self) -> &'static str {
        Phase::key(self)
    }
    fn index(self) -> usize {
        self as usize
    }
}

/// The probe stages of a point read, in probe order: active sub-MemTables,
/// immutable (sealing + flushed) sub-indexes, the compacted global skiplist,
/// and the LSM storage component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPhase {
    /// Lock-free snapshot probes of the per-core active sub-MemTables.
    ActiveProbe,
    /// Sealing + flushed immutable sub-index probes (fence/bloom gated).
    ImmProbe,
    /// Global skiplist probe (fence/bloom gated).
    GlobalProbe,
    /// LSM storage-component probe (skipped when an in-memory hit dominates).
    LsmProbe,
}

impl ReadPhase {
    /// Every read phase, in probe order.
    pub(crate) const ALL: [ReadPhase; 4] = [
        ReadPhase::ActiveProbe,
        ReadPhase::ImmProbe,
        ReadPhase::GlobalProbe,
        ReadPhase::LsmProbe,
    ];

    /// Stable metric-name component.
    pub(crate) fn key(self) -> &'static str {
        match self {
            ReadPhase::ActiveProbe => "active_probe",
            ReadPhase::ImmProbe => "imm_probe",
            ReadPhase::GlobalProbe => "global_probe",
            ReadPhase::LsmProbe => "lsm_probe",
        }
    }
}

impl PhaseKind for ReadPhase {
    fn all() -> &'static [ReadPhase] {
        &ReadPhase::ALL
    }
    fn key(self) -> &'static str {
        ReadPhase::key(self)
    }
    fn index(self) -> usize {
        self as usize
    }
}

/// The stages of one housekeeping round: planning which global-index
/// segments a flushed table overlaps, the (parallel) per-segment merges,
/// the atomic swap of the new segment set, and the streaming L0 dump.
/// Runs on scheduler workers — never on a put path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HousekeepPhase {
    /// Route flushed entries to overlapped segments, mark dirty runs.
    Plan,
    /// Per-segment k-way merges (parallel across worker threads).
    Merge,
    /// Publish the new segment set under the write lock.
    Swap,
    /// Stream the merged segments into L0 tables.
    Dump,
}

impl HousekeepPhase {
    /// Every housekeeping phase, in execution order.
    pub(crate) const ALL: [HousekeepPhase; 4] = [
        HousekeepPhase::Plan,
        HousekeepPhase::Merge,
        HousekeepPhase::Swap,
        HousekeepPhase::Dump,
    ];

    /// Stable metric-name component.
    pub(crate) fn key(self) -> &'static str {
        match self {
            HousekeepPhase::Plan => "plan",
            HousekeepPhase::Merge => "merge",
            HousekeepPhase::Swap => "swap",
            HousekeepPhase::Dump => "dump",
        }
    }
}

impl PhaseKind for HousekeepPhase {
    fn all() -> &'static [HousekeepPhase] {
        &HousekeepPhase::ALL
    }
    fn key(self) -> &'static str {
        HousekeepPhase::key(self)
    }
    fn index(self) -> usize {
        self as usize
    }
}

struct PhaseInstruments {
    total_ns: Arc<Counter>,
    hist: Arc<Histogram>,
}

/// Registered instruments for one operation kind (e.g. `put`): per-phase
/// totals + histograms, plus an op counter.
pub struct PhaseSetOf<P: PhaseKind> {
    phases: Vec<PhaseInstruments>,
    ops: Arc<Counter>,
    _kind: std::marker::PhantomData<P>,
}

/// The write-phase set (paper Figure 5 decomposition).
pub type PhaseSet = PhaseSetOf<Phase>;
/// The read-phase set (probe-order decomposition).
pub type ReadPhaseSet = PhaseSetOf<ReadPhase>;
/// The housekeeping-round phase set (plan / merge / swap / dump).
pub type HousekeepPhaseSet = PhaseSetOf<HousekeepPhase>;

impl<P: PhaseKind> PhaseSetOf<P> {
    /// Register `{prefix}.phase.{phase}.total_ns` counters,
    /// `{prefix}.phase.{phase}.ns` histograms, and a `{prefix}.ops` counter.
    pub fn register(reg: &Registry, prefix: &str) -> PhaseSetOf<P> {
        let phases = P::all()
            .iter()
            .map(|p| PhaseInstruments {
                total_ns: reg.counter(&format!("{prefix}.phase.{}.total_ns", p.key())),
                hist: reg.histogram(&format!("{prefix}.phase.{}.ns", p.key())),
            })
            .collect();
        PhaseSetOf {
            phases,
            ops: reg.counter(&format!("{prefix}.ops")),
            _kind: std::marker::PhantomData,
        }
    }

    /// Count one completed operation.
    #[inline]
    pub fn op(&self) {
        self.ops.inc();
    }

    /// Attribute pre-measured nanoseconds to `phase`.
    #[inline]
    pub fn record(&self, phase: P, ns: u64) {
        let inst = &self.phases[phase.index()];
        inst.total_ns.add(ns);
        inst.hist.record(ns);
    }
}

/// Time `f` with `source` and record the elapsed nanoseconds into `hist`.
/// For whole-operation latencies that don't decompose into phases.
#[inline]
pub fn timed<T>(source: TimeSource, hist: &Histogram, f: impl FnOnce() -> T) -> T {
    let start = source.now();
    let out = f();
    hist.record(start.elapsed_ns());
    out
}

#[cfg(test)]
impl<P: PhaseKind> PhaseSetOf<P> {
    /// Time `f` with `source` and attribute the elapsed nanoseconds to `phase`.
    fn timed<T>(&self, source: TimeSource, phase: P, f: impl FnOnce() -> T) -> T {
        let start = source.now();
        let out = f();
        self.record(phase, start.elapsed_ns());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_phases_enumerate_in_probe_order() {
        assert_eq!(ReadPhase::ALL.len(), 4);
        let keys: Vec<_> = ReadPhase::ALL.iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            ["active_probe", "imm_probe", "global_probe", "lsm_probe"]
        );
        let reg = Registry::new();
        let set = ReadPhaseSet::register(&reg, "get");
        set.record(ReadPhase::LsmProbe, 9);
        set.op();
        let export = reg.export();
        assert_eq!(export.counters["get.phase.lsm_probe.total_ns"], 9);
        assert_eq!(export.counters["get.phase.active_probe.total_ns"], 0);
        assert_eq!(export.counters["get.ops"], 1);
    }

    #[test]
    fn phases_enumerate_in_order() {
        assert_eq!(Phase::ALL.len(), 5);
        assert_eq!(Phase::ALL[0] as usize, 0);
        assert_eq!(Phase::Persist as usize, 4);
        let keys: Vec<_> = Phase::ALL.iter().map(|p| p.key()).collect();
        assert_eq!(
            keys,
            ["lock_wait", "alloc", "index_update", "data_copy", "persist"]
        );
    }

    #[test]
    fn virtual_timing_is_exact_and_deterministic() {
        let clock = Clock::counting();
        let reg = Registry::new();
        let set = PhaseSet::register(&reg, "put");
        set.timed(TimeSource::Virtual, Phase::DataCopy, || clock.charge(120));
        set.timed(TimeSource::Virtual, Phase::DataCopy, || clock.charge(80));
        set.timed(TimeSource::Virtual, Phase::Persist, || clock.charge(7));
        set.op();
        let export = reg.export();
        assert_eq!(export.counters["put.phase.data_copy.total_ns"], 200);
        assert_eq!(export.counters["put.phase.persist.total_ns"], 7);
        assert_eq!(export.counters["put.phase.lock_wait.total_ns"], 0);
        assert_eq!(export.counters["put.ops"], 1);
        assert_eq!(export.histograms["put.phase.data_copy.ns"].count, 2);
        assert_eq!(export.histograms["put.phase.data_copy.ns"].sum, 200);
    }

    #[test]
    fn wall_timing_is_nonzero_for_real_work() {
        let reg = Registry::new();
        let set = PhaseSet::register(&reg, "op");
        set.timed(TimeSource::Wall, Phase::IndexUpdate, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(reg.export().counters["op.phase.index_update.total_ns"] >= 1_000_000);
    }

    #[test]
    fn source_follows_clock_mode() {
        assert_eq!(
            TimeSource::for_mode(ClockMode::Virtual),
            TimeSource::Virtual
        );
        assert_eq!(TimeSource::for_mode(ClockMode::Spin), TimeSource::Wall);
    }

    #[test]
    fn free_timed_records_into_histogram() {
        let clock = Clock::counting();
        let h = Histogram::new();
        timed(TimeSource::Virtual, &h, || clock.charge(33));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 33);
    }
}
