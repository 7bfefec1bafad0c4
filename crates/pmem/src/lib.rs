//! Simulated Intel Optane DC Persistent Memory device.
//!
//! This crate models the two Optane PMem characteristics the CacheKV paper
//! (ICDE 2023) builds on:
//!
//! 1. **Mismatch of access granularities** — the device media is written in
//!    256 B *XPLines* while the CPU emits 64 B cachelines. An on-DIMM
//!    write-combining buffer (the *XPBuffer*) stages incoming cachelines and
//!    merges those belonging to the same XPLine; a partially-filled XPLine
//!    must be completed with a read-modify-write, amplifying write traffic.
//! 2. **Persistence domains** — under ADR only the write-pending queue and
//!    the media are power-fail protected; under eADR the CPU caches are too.
//!    The cache side of eADR is modelled by the `cachekv-cache` crate; this
//!    crate guarantees that anything handed to the device (WPQ/XPBuffer)
//!    survives [`PmemDevice::power_fail`].
//!
//! The device exposes hardware-counter style statistics ([`PmemStats`]),
//! including the *write hit ratio* metric used throughout the paper's
//! Observation 1 (Figure 4), and charges simulated latencies to a [`Clock`]
//! so that full-system benchmarks reproduce the paper's performance shapes.
//!
//! # Example
//!
//! ```
//! use cachekv_pmem::{PmemConfig, PmemDevice};
//!
//! let dev = PmemDevice::new(PmemConfig::small());
//! // Stream one full XPLine in flush order: 1 miss (opens the slot) + 3 hits.
//! for i in 0..4u64 {
//!     dev.write_cacheline(i * 64, &[0xAB; 64]);
//! }
//! dev.drain();
//! let stats = dev.stats();
//! assert_eq!(stats.xpbuffer_hits, 3);
//! assert_eq!(stats.xpbuffer_misses, 1);
//! // The fully populated XPLine was written without a read-modify-write.
//! assert_eq!(stats.media_read_bytes, 0);
//! assert_eq!(stats.media_write_bytes, 256);
//! ```

mod clock;
mod config;
mod device;
mod faults;
mod media;
mod stats;
mod xpbuffer;

pub use clock::{Clock, ClockMode};
pub use config::{LatencyConfig, PersistDomain, PmemConfig};
pub use device::PmemDevice;
pub use faults::{fault_context, FaultContextGuard, FaultPlan, TripReport};
pub use stats::PmemStats;

/// Size of a CPU cacheline in bytes: the granularity at which the CPU hands
/// data to the memory subsystem.
pub const CACHELINE: usize = 64;

/// Size of an XPLine in bytes: the constant access granularity of the Optane
/// PMem media (Section II-B, Feature 1 of the paper).
pub(crate) const XPLINE: usize = 256;

/// Number of cacheline-sized sectors per XPLine.
pub(crate) const SECTORS_PER_XPLINE: usize = XPLINE / CACHELINE;
