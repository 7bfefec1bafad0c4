//! `cachekv-obs` — unified observability for the CacheKV stack.
//!
//! The paper's evaluation hinges on instrumentation: Figure 4's write hit
//! ratio comes from device counters, Figure 5 decomposes write latency into
//! software phases, and Figures 10–16 sweep throughput/latency. This crate
//! provides the shared machinery every layer wires into:
//!
//! * [`Registry`] — named counters, gauges, and log-bucketed latency
//!   [`Histogram`]s. Registration is locked (cold); recording through the
//!   returned `Arc` handles is purely atomic (hot).
//! * [`PhaseSet`]/[`Phase`] — per-phase put/get decomposition driven by the
//!   simulated clock, deterministic under `ClockMode::Virtual`.
//! * [`StatsSnapshot`] — a four-layer (device, cache, memory component, LSM)
//!   point-in-time view, JSON-serializable without external dependencies via
//!   the bundled [`Json`] value type.

mod histogram;
mod json;
mod phase;
mod registry;
mod snapshot;

pub use histogram::{bucket_index, bucket_upper, Histogram, HistogramSnapshot};
pub use json::Json;
pub use phase::{
    timed, HousekeepPhase, HousekeepPhaseSet, Phase, PhaseKind, PhaseSet, PhaseSetOf, ReadPhase,
    ReadPhaseSet, Stopwatch, TimeSource,
};
pub use registry::{Counter, Gauge, MetricsExport, Registry};
pub use snapshot::StatsSnapshot;
