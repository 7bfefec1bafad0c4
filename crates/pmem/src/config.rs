//! Device configuration: geometry, persistence domain, and latency model.

/// Persistence domain supported by the simulated platform (Section II-B,
/// Feature 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistDomain {
    /// Asynchronous DRAM Refresh: only the iMC write-pending queue and the
    /// media survive a power failure. CPU caches are volatile and must be
    /// flushed explicitly (`clflush`/`clwb` + fence).
    Adr,
    /// Enhanced ADR: the persistence boundary extends up to the CPU caches,
    /// so dirty cachelines survive a power failure without explicit flushes.
    Eadr,
}

/// Simulated latencies charged per operation, in nanoseconds.
///
/// Values follow published Optane PMem characterization studies (Yang et al.,
/// FAST'20; Gugnani et al., VLDB'21): media reads are 2-3x DRAM latency,
/// 256 B media writes are bandwidth-bound (~2.3 GB/s per DIMM set), and a
/// `clflush` stalls for roughly the store+writeback round trip. Absolute
/// numbers only need to preserve *relative* costs for the paper's shapes to
/// reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Reading one 256 B XPLine from the media (e.g., an XPBuffer
    /// read-modify-write, or a load miss that reaches the device).
    pub(crate) media_read_256_ns: u64,
    /// Writing one 256 B XPLine to the media.
    pub(crate) media_write_256_ns: u64,
    /// Landing one 64 B cacheline in the WPQ/XPBuffer (paid by every
    /// cacheline arriving at the device).
    pub(crate) buffer_write_64_ns: u64,
    /// `clflush` instruction overhead (beyond the device-side write), which
    /// invalidates the line and stalls the store pipeline.
    pub clflush_ns: u64,
    /// `clwb` instruction overhead: writes back but retains the line.
    pub clwb_ns: u64,
    /// `sfence` / persistence barrier.
    pub(crate) sfence_ns: u64,
    /// Non-temporal 64 B store issued by the CPU (bypasses the cache; the
    /// device-side `buffer_write_64_ns` is charged in addition).
    pub nt_store_64_ns: u64,
    /// Hitting a line already resident in the simulated LLC.
    pub cache_hit_ns: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            media_read_256_ns: 300,
            media_write_256_ns: 110,
            buffer_write_64_ns: 55,
            clflush_ns: 200,
            clwb_ns: 90,
            sfence_ns: 25,
            nt_store_64_ns: 40,
            cache_hit_ns: 3,
        }
    }
}

impl LatencyConfig {
    /// A zero-latency model: statistics are still collected but no time is
    /// charged. Useful for pure-correctness tests.
    pub fn zero() -> Self {
        LatencyConfig {
            media_read_256_ns: 0,
            media_write_256_ns: 0,
            buffer_write_64_ns: 0,
            clflush_ns: 0,
            clwb_ns: 0,
            sfence_ns: 0,
            nt_store_64_ns: 0,
            cache_hit_ns: 0,
        }
    }
}

/// Geometry and behaviour of the simulated PMem platform.
#[derive(Debug, Clone)]
pub struct PmemConfig {
    /// Number of DIMMs in the interleave set. The paper's testbed used four
    /// 128 GB Optane PMem 200-series DIMMs in interleaved App Direct mode.
    pub(crate) num_dimms: usize,
    /// Capacity of each DIMM in bytes (scaled down from hardware).
    pub(crate) dimm_capacity: usize,
    /// Interleaving granularity across DIMMs, 4 KiB on real platforms.
    pub(crate) interleave: usize,
    /// Number of XPLine slots in each DIMM's XPBuffer. Characterization
    /// studies place the XPBuffer around 16 KiB, i.e. 64 XPLines.
    pub(crate) xpbuffer_slots: usize,
    /// Persistence domain of the platform.
    pub(crate) domain: PersistDomain,
    /// Latency model.
    pub latency: LatencyConfig,
}

impl PmemConfig {
    /// Paper-like geometry scaled for simulation: 4 DIMMs x 64 MiB,
    /// 4 KiB interleave, 64-slot XPBuffers, eADR.
    pub fn paper_scaled() -> Self {
        PmemConfig {
            num_dimms: 4,
            dimm_capacity: 64 << 20,
            interleave: 4096,
            xpbuffer_slots: 64,
            domain: PersistDomain::Eadr,
            latency: LatencyConfig::default(),
        }
    }

    /// A small single-DIMM device for unit tests: 1 MiB, 8 XPBuffer slots.
    pub fn small() -> Self {
        PmemConfig {
            num_dimms: 1,
            dimm_capacity: 1 << 20,
            interleave: 4096,
            xpbuffer_slots: 8,
            domain: PersistDomain::Eadr,
            latency: LatencyConfig::zero(),
        }
    }

    /// Total byte capacity across all DIMMs.
    pub fn total_capacity(&self) -> usize {
        self.num_dimms * self.dimm_capacity
    }

    /// Builder-style override of the persistence domain.
    pub fn with_domain(mut self, domain: PersistDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Builder-style override of the latency model.
    pub fn with_latency(mut self, latency: LatencyConfig) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style override of total capacity, keeping the DIMM count.
    /// `total` is rounded up to a multiple of `num_dimms * interleave`.
    pub fn with_total_capacity(mut self, total: usize) -> Self {
        let unit = self.num_dimms * self.interleave;
        let rounded = total.div_ceil(unit) * unit;
        self.dimm_capacity = rounded / self.num_dimms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scaled_geometry() {
        let c = PmemConfig::paper_scaled();
        assert_eq!(c.num_dimms, 4);
        assert_eq!(c.total_capacity(), 256 << 20);
        assert_eq!(c.domain, PersistDomain::Eadr);
    }

    #[test]
    fn capacity_override_rounds_up() {
        let c = PmemConfig::paper_scaled().with_total_capacity(100_000);
        assert!(c.total_capacity() >= 100_000);
        assert_eq!(c.total_capacity() % (c.num_dimms * c.interleave), 0);
    }

    #[test]
    fn zero_latency_is_all_zero() {
        let l = LatencyConfig::zero();
        assert_eq!(l.media_read_256_ns, 0);
        assert_eq!(l.clflush_ns, 0);
    }
}
