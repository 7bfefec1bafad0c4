//! Simulated CPU cache hierarchy over the simulated Optane PMem device.
//!
//! Models the pieces of the platform the CacheKV paper (ICDE 2023) relies on:
//!
//! * a set-associative, write-back **last-level cache** (64 B lines, LRU
//!   replacement) whose evictions dribble single cachelines into the PMem
//!   device in access-recency order — the mechanism that "reawakens" write
//!   amplification once flush instructions are removed (Figure 3(c), Ob1);
//! * **Intel CAT pseudo-locking**: address ranges can be locked into a
//!   reserved cache partition that normal traffic can never evict, which is
//!   how CacheKV pins its sub-MemTable pool (Section III-A);
//! * the x86 **persistence instructions** `clflush`, `clwb`, non-temporal
//!   stores, and `sfence`, each with its simulated cost;
//! * **ADR vs. eADR crash semantics**: on [`Hierarchy::power_fail`], dirty
//!   cachelines reach the media under eADR but are lost under ADR.
//!
//! The facade type is [`Hierarchy`]; all loads and stores that target the
//! persistent address space go through it.
//!
//! # Example
//!
//! ```
//! use cachekv_cache::{CacheConfig, Hierarchy};
//! use cachekv_pmem::{PmemConfig, PmemDevice};
//! use std::sync::Arc;
//!
//! let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
//! let h = Hierarchy::new(dev, CacheConfig::small());
//! h.store(0, b"hello persistent caches");
//! let mut buf = [0u8; 23];
//! h.load(0, &mut buf);
//! assert_eq!(&buf, b"hello persistent caches");
//! // eADR: the dirty line survives a crash without any clflush.
//! h.power_fail();
//! let mut after = [0u8; 23];
//! h.load(0, &mut after);
//! assert_eq!(&after, b"hello persistent caches");
//! ```

mod config;
mod hierarchy;
mod llc;
mod stats;

pub use config::CacheConfig;
pub use hierarchy::Hierarchy;
pub use stats::CacheStats;

pub use cachekv_pmem::CACHELINE;
