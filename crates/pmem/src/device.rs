//! The interleaved multi-DIMM device front-end.
//!
//! Presents a flat byte-addressable persistent address space, striped across
//! DIMMs at 4 KiB granularity like a real interleaved App Direct namespace.
//! Every write enters the target DIMM's XPBuffer as 64 B cachelines; reads
//! are coherent with buffered data. Statistics and latency charges are
//! applied here so the per-DIMM code stays purely functional.

use crate::clock::Clock;
use crate::config::{PersistDomain, PmemConfig};
use crate::faults::{self, FaultEventKind, FaultObserver, FaultPlan, FaultState, TripReport};
use crate::media::{Dimm, DimmEffects};
use crate::stats::{PmemStats, StatsCell};
use crate::xpbuffer::SlotSnapshot;
use crate::{CACHELINE, SECTORS_PER_XPLINE, XPLINE};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The simulated PMem device. Cheap to share: wrap in `Arc`.
pub struct PmemDevice {
    config: PmemConfig,
    dimms: Vec<Mutex<Dimm>>,
    stats: StatsCell,
    clock: Arc<Clock>,
    faults: FaultState,
}

impl PmemDevice {
    /// Create a device with an accounting-only clock.
    pub fn new(config: PmemConfig) -> Self {
        Self::with_clock(config, Arc::new(Clock::counting()))
    }

    /// Create a device charging latencies to the given clock.
    pub fn with_clock(config: PmemConfig, clock: Arc<Clock>) -> Self {
        let dimms = (0..config.num_dimms)
            .map(|_| Mutex::new(Dimm::new(config.dimm_capacity, config.xpbuffer_slots)))
            .collect();
        PmemDevice {
            config,
            dimms,
            stats: StatsCell::default(),
            clock,
            faults: FaultState::default(),
        }
    }

    /// Rebuild a device from a crash survivor image (one `Vec<u8>` per
    /// DIMM, as produced in a [`TripReport`] or by
    /// [`PmemDevice::clone_media`]). A DIMM image shorter than
    /// `dimm_capacity` is the DIMM's leading bytes: the rest is zero, and
    /// is restored as zero. The XPBuffers start empty: after a power
    /// failure everything that survived is on the media.
    ///
    /// Panics if the image has the wrong DIMM count or a DIMM image is
    /// longer than `dimm_capacity`.
    pub fn from_media(config: PmemConfig, media: Vec<Vec<u8>>) -> Self {
        assert_eq!(media.len(), config.num_dimms, "image has wrong DIMM count");
        let dimms = media
            .into_iter()
            .map(|m| {
                assert!(
                    m.len() <= config.dimm_capacity,
                    "DIMM image longer than capacity: {} > {}",
                    m.len(),
                    config.dimm_capacity
                );
                let m = if m.len() < config.dimm_capacity {
                    // Zeroed allocation: the trailing pages stay unmapped
                    // until the store touches them.
                    let mut full = vec![0u8; config.dimm_capacity];
                    full[..m.len()].copy_from_slice(&m);
                    full
                } else {
                    m
                };
                Mutex::new(Dimm::from_media(m, config.xpbuffer_slots))
            })
            .collect();
        PmemDevice {
            config,
            dimms,
            stats: StatsCell::default(),
            clock: Arc::new(Clock::counting()),
            faults: FaultState::default(),
        }
    }

    /// Byte-exact copy of the media as it would survive a power failure
    /// right now (XPBuffer applied — it is inside the persistence domain),
    /// one `Vec<u8>` per DIMM, each trimmed of its trailing all-zero
    /// XPLines: a DIMM image may be shorter than `dimm_capacity` (empty for
    /// an all-zero DIMM). [`PmemDevice::from_media`] restores the trimmed
    /// zeros exactly.
    pub fn clone_media(&self) -> Vec<Vec<u8>> {
        self.dimms
            .iter()
            .map(|dm| {
                let dm = dm.lock();
                let slots = dm.buffer_snapshot();
                let staged_end = slots.iter().map(|s| s.line as usize + XPLINE).max();
                let end = nonzero_extent(dm.media()).max(staged_end.unwrap_or(0));
                let mut media = dm.media()[..end].to_vec();
                for s in &slots {
                    Self::apply_slot(&mut media, s, s.valid_mask);
                }
                // A staged slot may have zeroed the lines it covers.
                media.truncate(nonzero_extent(&media));
                media
            })
            .collect()
    }

    /// Total capacity of the flat address space.
    pub fn capacity(&self) -> u64 {
        self.config.total_capacity() as u64
    }

    /// Device configuration.
    pub fn config(&self) -> &PmemConfig {
        &self.config
    }

    /// The clock this device charges.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Persistence domain of the platform.
    pub fn domain(&self) -> PersistDomain {
        self.config.domain
    }

    /// Snapshot of the hardware counters.
    pub fn stats(&self) -> PmemStats {
        self.stats.snapshot()
    }

    /// Zero the hardware counters (e.g., after warm-up).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Map a global address to (dimm index, DIMM-local offset).
    fn locate(&self, addr: u64) -> (usize, u64) {
        debug_assert!(addr < self.capacity(), "address {addr:#x} out of range");
        let il = self.config.interleave as u64;
        let chunk = addr / il;
        let dimm = (chunk % self.config.num_dimms as u64) as usize;
        let local = (chunk / self.config.num_dimms as u64) * il + addr % il;
        (dimm, local)
    }

    fn apply_effects(&self, fx: DimmEffects) {
        let lat = &self.config.latency;
        let s = &self.stats;
        if fx.hits > 0 {
            s.xpbuffer_hits.fetch_add(fx.hits, Ordering::Relaxed);
        }
        if fx.misses > 0 {
            s.xpbuffer_misses.fetch_add(fx.misses, Ordering::Relaxed);
        }
        if fx.media_reads_256 > 0 {
            s.media_read_bytes
                .fetch_add(fx.media_reads_256 * 256, Ordering::Relaxed);
        }
        if fx.media_writes_256 > 0 {
            s.media_write_bytes
                .fetch_add(fx.media_writes_256 * 256, Ordering::Relaxed);
        }
        if fx.rmw_evictions > 0 {
            s.rmw_evictions
                .fetch_add(fx.rmw_evictions, Ordering::Relaxed);
        }
        if fx.full_evictions > 0 {
            s.full_evictions
                .fetch_add(fx.full_evictions, Ordering::Relaxed);
        }
        self.clock.charge(
            fx.media_reads_256 * lat.media_read_256_ns
                + fx.media_writes_256 * lat.media_write_256_ns,
        );
    }

    /// Install a fault plan and arm the event counter (see
    /// [`faults`](crate::faults) for the trip protocol). Replaces any
    /// previous plan and clears a pending report.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.faults.arm(plan);
    }

    /// Disarm fault injection without clearing a captured report.
    pub fn clear_fault_plan(&self) {
        self.faults.disarm();
    }

    /// Persistence events counted since the plan was installed.
    pub fn fault_events(&self) -> u64 {
        self.faults.events()
    }

    /// True from the instant a fault trip is decided. An operation that
    /// completed while this still read `false` fully reached the device
    /// before the crash.
    pub fn fault_tripped(&self) -> bool {
        self.faults.tripped()
    }

    /// Take the report captured by the last trip, if any.
    pub fn take_trip_report(&self) -> Option<TripReport> {
        self.faults
            .report
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Drain the `(event index, context label)` trace recorded by a
    /// [`FaultPlan::traced`] plan. Crash sweeps use a baseline trace to aim
    /// later trips at specific labelled code paths.
    pub fn take_fault_trace(&self) -> Vec<(u64, &'static str)> {
        self.faults.take_trace()
    }

    /// Register the observer run at trip time before the survivor image is
    /// captured (the cache crate uses this for the eADR writeback).
    pub fn set_fault_observer(&self, obs: FaultObserver) {
        *self
            .faults
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(obs);
    }

    /// Count one persistence event; if it is the planned Kth, run the trip
    /// protocol on this thread.
    fn fault_event(&self, kind: FaultEventKind) {
        if let Some(event_index) = self.faults.record() {
            self.trip(event_index, kind);
        }
    }

    /// Trip protocol: observer (eADR cache writeback flows into the still
    /// writable device), then survivor-image capture, then black hole.
    /// Called with no DIMM lock held.
    fn trip(&self, event_index: u64, kind: FaultEventKind) {
        if let Some(obs) = self
            .faults
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            obs();
        }
        let plan = self
            .faults
            .plan
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .expect("tripped without a plan");
        let media = self.capture_media(&plan);
        *self.faults.report.lock().unwrap_or_else(|e| e.into_inner()) = Some(TripReport {
            event_index,
            kind,
            context: faults::current_context(),
            media,
        });
        self.faults.finish_capture();
    }

    /// Clone each DIMM's media and apply its XPBuffer according to the
    /// plan's survivability policy.
    fn capture_media(&self, plan: &FaultPlan) -> Vec<Vec<u8>> {
        self.dimms
            .iter()
            .enumerate()
            .map(|(di, dm)| {
                let dm = dm.lock();
                let mut media = dm.media().to_vec();
                let slots = dm.buffer_snapshot();
                if !plan.drop_xpbuffer {
                    // WPQ/XPBuffer is power-fail protected: apply everything.
                    for s in &slots {
                        Self::apply_slot(&mut media, s, s.valid_mask);
                    }
                } else if plan.tear_inflight {
                    // Torn platform: only the in-flight (most recent) XPLine
                    // partially lands, sectors chosen by the plan seed.
                    if let Some(newest) = slots.iter().max_by_key(|s| s.tick) {
                        let keep = faults::torn_sector_mask(plan.seed, di, newest.line)
                            & newest.valid_mask;
                        Self::apply_slot(&mut media, newest, keep);
                    }
                }
                media
            })
            .collect()
    }

    fn apply_slot(media: &mut [u8], s: &SlotSnapshot, mask: u8) {
        for sector in 0..SECTORS_PER_XPLINE {
            if mask & (1 << sector) != 0 {
                let lo = sector * CACHELINE;
                let base = s.line as usize + lo;
                media[base..base + CACHELINE].copy_from_slice(&s.data[lo..lo + CACHELINE]);
            }
        }
    }

    /// Hand one 64 B cacheline to the device (the unit at which the CPU
    /// cache hierarchy writes back / flushes / NT-stores). `addr` must be
    /// 64 B aligned.
    pub fn write_cacheline(&self, addr: u64, data: &[u8; CACHELINE]) {
        assert_eq!(
            addr % CACHELINE as u64,
            0,
            "unaligned cacheline address {addr:#x}"
        );
        if self.faults.blackholed() {
            return; // power is out: the write is lost
        }
        let (di, off) = self.locate(addr);
        self.stats.cpu_writes.fetch_add(1, Ordering::Relaxed);
        self.clock.charge(self.config.latency.buffer_write_64_ns);
        let fx = self.dimms[di].lock().write_cacheline(off, data);
        self.apply_effects(fx);
        self.fault_event(FaultEventKind::CachelineWrite);
        if fx.full_evictions + fx.rmw_evictions > 0 {
            self.fault_event(FaultEventKind::Eviction);
        }
    }

    /// Write an arbitrary byte range. Interior full cachelines are streamed
    /// directly; unaligned edges are completed by reading the surrounding
    /// cacheline first (what a real CPU's store path does transparently).
    pub fn write(&self, addr: u64, data: &[u8]) {
        let mut cur = addr;
        let end = addr + data.len() as u64;
        while cur < end {
            let line = cur & !(CACHELINE as u64 - 1);
            let lo = (cur - line) as usize;
            let hi = CACHELINE.min((end - line) as usize);
            let mut cl = [0u8; CACHELINE];
            if lo != 0 || hi != CACHELINE {
                self.read_quiet(line, &mut cl);
            }
            let src_off = (cur - addr) as usize;
            cl[lo..hi].copy_from_slice(&data[src_off..src_off + (hi - lo)]);
            self.write_cacheline(line, &cl);
            cur = line + CACHELINE as u64;
        }
    }

    /// Read `buf.len()` bytes from `addr`, charging media read latency.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let lines = self.read_inner(addr, buf);
        self.clock
            .charge(lines * self.config.latency.media_read_256_ns);
        self.stats
            .media_read_bytes
            .fetch_add(lines * 256, Ordering::Relaxed);
    }

    /// Read without stats or latency (internal RMW edge completion).
    fn read_quiet(&self, addr: u64, buf: &mut [u8]) {
        self.read_inner(addr, buf);
    }

    /// Returns the number of XPLines touched.
    fn read_inner(&self, addr: u64, buf: &mut [u8]) -> u64 {
        if buf.is_empty() {
            return 0;
        }
        let il = self.config.interleave as u64;
        let mut lines = 0;
        let mut cur = addr;
        let end = addr + buf.len() as u64;
        while cur < end {
            // Stay within one interleave chunk (one DIMM) per step.
            let chunk_end = (cur / il + 1) * il;
            let stop = chunk_end.min(end);
            let (di, off) = self.locate(cur);
            let dst = &mut buf[(cur - addr) as usize..(stop - addr) as usize];
            lines += self.dimms[di].lock().read(off, dst);
            cur = stop;
        }
        lines
    }

    /// Persistence barrier (`sfence`). The WPQ/XPBuffer are already inside
    /// the persistence domain, so this only charges the fence cost.
    pub fn persist_barrier(&self) {
        self.clock.charge(self.config.latency.sfence_ns);
        self.fault_event(FaultEventKind::Barrier);
    }

    /// Flush every XPBuffer to the media (used by tests and by power-fail).
    pub fn drain(&self) {
        if self.faults.blackholed() {
            return;
        }
        for d in &self.dimms {
            let fx = d.lock().drain();
            self.apply_effects(fx);
        }
        self.fault_event(FaultEventKind::Drain);
    }

    /// Simulate a power failure *at the device level*: everything already
    /// handed to the device (WPQ/XPBuffer) reaches the media, regardless of
    /// the platform's ADR/eADR mode. The cache hierarchy decides separately
    /// whether CPU cache contents make it here (eADR) or are lost (ADR).
    pub fn power_fail(&self) {
        self.stats.power_failures.fetch_add(1, Ordering::Relaxed);
        self.drain();
    }
}

/// Length of `media` up to the end of its last XPLine holding a non-zero
/// byte (0 if every byte is zero). `media` is XPLine aligned.
fn nonzero_extent(media: &[u8]) -> usize {
    const ZERO: [u8; XPLINE] = [0; XPLINE];
    media
        .chunks(XPLINE)
        .rposition(|line| line != &ZERO[..line.len()])
        .map_or(0, |i| (i + 1) * XPLINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyConfig;

    fn dev() -> PmemDevice {
        PmemDevice::new(PmemConfig::small())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let d = dev();
        let data = [0x5Au8; 64];
        d.write_cacheline(4096, &data);
        let mut out = [0u8; 64];
        d.read(4096, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn unaligned_write_roundtrip() {
        let d = dev();
        let payload: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        d.write(100, &payload);
        let mut out = vec![0u8; 200];
        d.read(100, &mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn interleaving_maps_distinct_dimms() {
        let cfg = PmemConfig {
            num_dimms: 4,
            dimm_capacity: 1 << 20,
            ..PmemConfig::paper_scaled()
        };
        let d = PmemDevice::new(cfg);
        let (d0, _) = d.locate(0);
        let (d1, _) = d.locate(4096);
        let (d2, _) = d.locate(8192);
        let (d4, o4) = d.locate(4 * 4096);
        assert_eq!(d0, 0);
        assert_eq!(d1, 1);
        assert_eq!(d2, 2);
        assert_eq!(d4, 0, "wraps back to DIMM 0");
        assert_eq!(o4, 4096, "second chunk on DIMM 0");
    }

    #[test]
    fn cross_dimm_read_roundtrip() {
        let cfg = PmemConfig {
            num_dimms: 2,
            dimm_capacity: 1 << 20,
            ..PmemConfig::paper_scaled()
        };
        let d = PmemDevice::new(cfg);
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        d.write(1024, &payload); // spans the 4096 interleave boundary
        let mut out = vec![0u8; 8192];
        d.read(1024, &mut out);
        assert_eq!(out, payload);
    }

    #[test]
    fn sequential_stream_has_high_hit_ratio() {
        let d = dev();
        for i in 0..1024u64 {
            d.write_cacheline(i * 64, &[1u8; 64]);
        }
        let s = d.stats();
        // 4 sectors per line: 1 miss + 3 hits each => 75%.
        assert!(
            (s.write_hit_ratio() - 0.75).abs() < 0.01,
            "got {}",
            s.write_hit_ratio()
        );
    }

    #[test]
    fn scattered_stream_has_low_hit_ratio_and_amplifies() {
        let d = dev();
        // Touch one cacheline per XPLine over a region far larger than the
        // 8-slot XPBuffer: every write opens a new slot, evictions are RMW.
        for i in 0..1024u64 {
            d.write_cacheline(i * 256, &[1u8; 64]);
        }
        d.drain();
        let s = d.stats();
        assert_eq!(s.xpbuffer_hits, 0);
        assert!(
            s.write_amplification() >= 3.9,
            "amp {}",
            s.write_amplification()
        );
        assert_eq!(s.rmw_evictions, 1024);
    }

    #[test]
    fn power_fail_persists_buffered_writes() {
        let d = dev();
        d.write_cacheline(0, &[0xCD; 64]);
        d.power_fail();
        let mut out = [0u8; 64];
        d.read(0, &mut out);
        assert_eq!(out, [0xCD; 64]);
        assert_eq!(d.stats().power_failures, 1);
    }

    #[test]
    fn latency_charging_counts() {
        let cfg = PmemConfig::small().with_latency(LatencyConfig::default());
        let d = PmemDevice::new(cfg);
        d.write_cacheline(0, &[0u8; 64]);
        let after_write = d.clock().total_ns();
        assert_eq!(after_write, d.config().latency.buffer_write_64_ns);
        let mut out = [0u8; 64];
        d.read(0, &mut out);
        assert_eq!(
            d.clock().total_ns(),
            after_write + d.config().latency.media_read_256_ns
        );
    }

    #[test]
    fn reset_stats_zeroes() {
        let d = dev();
        d.write_cacheline(0, &[0u8; 64]);
        d.reset_stats();
        assert_eq!(d.stats(), PmemStats::default());
    }

    #[test]
    fn fault_trips_after_kth_event_and_blackholes() {
        let d = dev();
        d.install_fault_plan(FaultPlan::at(2));
        d.write_cacheline(0, &[1u8; 64]);
        assert!(!d.fault_tripped());
        d.write_cacheline(64, &[2u8; 64]);
        assert!(d.fault_tripped());
        // Post-trip writes are lost; reads still work on the live state.
        d.write_cacheline(128, &[3u8; 64]);
        let mut out = [0u8; 64];
        d.read(128, &mut out);
        assert_eq!(out, [0u8; 64], "blackholed write must not land");

        let report = d.take_trip_report().expect("trip captured a report");
        assert_eq!(report.event_index, 2);
        assert_eq!(report.kind, FaultEventKind::CachelineWrite);
        let r = PmemDevice::from_media(d.config().clone(), report.media);
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        let mut c = [0u8; 64];
        r.read(0, &mut a);
        r.read(64, &mut b);
        r.read(128, &mut c);
        assert_eq!(a, [1u8; 64], "event 1 survived");
        assert_eq!(b, [2u8; 64], "the tripping event itself completed");
        assert_eq!(c, [0u8; 64], "post-trip write is not in the image");
    }

    #[test]
    fn fault_counting_is_deterministic_and_reproducible() {
        let run = |plan: FaultPlan| -> (u64, Vec<Vec<u8>>) {
            let d = dev();
            d.install_fault_plan(plan);
            for i in 0..200u64 {
                d.write_cacheline((i * 64) % 4096, &[i as u8; 64]);
            }
            d.persist_barrier();
            d.drain();
            match d.take_trip_report() {
                Some(r) => (r.event_index, r.media),
                None => (d.fault_events(), d.clone_media()),
            }
        };
        let (total, _) = run(FaultPlan::count_only());
        assert!(total > 200, "writes + evictions + barrier + drain");
        let (e1, m1) = run(FaultPlan::at(57));
        let (e2, m2) = run(FaultPlan::at(57));
        assert_eq!(e1, 57);
        assert_eq!(e1, e2);
        assert_eq!(m1, m2, "same plan => byte-identical survivor image");
    }

    #[test]
    fn torn_plan_drops_unevicted_lines_and_tears_deterministically() {
        let run = || {
            let d = dev();
            d.install_fault_plan(FaultPlan::torn(4, 99));
            // Three cachelines into distinct XPLines; small() has 8 slots so
            // nothing evicts — all three are still staged at the trip.
            d.write_cacheline(0, &[0xAA; 64]);
            d.write_cacheline(256, &[0xBB; 64]);
            d.write_cacheline(512, &[0xCC; 64]);
            d.persist_barrier(); // event 4: trip
            d.take_trip_report().expect("tripped").media
        };
        let m1 = run();
        let m2 = run();
        assert_eq!(m1, m2, "torn capture is deterministic");
        // Only the in-flight (newest) line may have landed, and only the
        // sectors chosen by the seed; the older staged lines are gone.
        assert!(
            m1[0][0..64].iter().all(|&b| b == 0),
            "older staged line dropped"
        );
        assert!(
            m1[0][256..320].iter().all(|&b| b == 0),
            "older staged line dropped"
        );
        let keep = crate::faults::torn_sector_mask(99, 0, 512) & 0b0001;
        let expect = if keep != 0 { 0xCC } else { 0 };
        assert!(
            m1[0][512..576].iter().all(|&b| b == expect),
            "tear follows the seed mask"
        );
    }

    #[test]
    fn barrier_and_drain_count_as_events() {
        let d = dev();
        d.install_fault_plan(FaultPlan::count_only());
        d.persist_barrier();
        d.drain();
        assert_eq!(d.fault_events(), 2);
    }

    #[test]
    fn from_media_roundtrips_clone_media() {
        let cfg = PmemConfig {
            num_dimms: 4,
            dimm_capacity: 64 << 10,
            ..PmemConfig::small()
        };
        let cap = cfg.dimm_capacity;
        let d = PmemDevice::new(cfg.clone());
        // Global address of DIMM-local offset `local` on DIMM `dimm`.
        let addr = |dimm: u64, local: u64| ((local / 4096) * 4 + dimm) * 4096 + local % 4096;
        // DIMM 0: data on the media, then a staged slot past it.
        d.write(addr(0, 100), &[7u8; 500]);
        d.drain();
        d.write_cacheline(addr(0, 8192), &[8u8; 64]);
        // DIMM 1: never written (all zero).
        // DIMM 2: written up to its last XPLine.
        d.write_cacheline(addr(2, 4096), &[9u8; 64]);
        d.write_cacheline(addr(2, cap as u64 - 64), &[10u8; 64]);
        d.drain();
        // DIMM 3: a staged slot zeroing the media's last non-zero line.
        d.write_cacheline(addr(3, 0), &[11u8; 64]);
        d.write_cacheline(addr(3, 4096), &[12u8; 64]);
        d.drain();
        d.write_cacheline(addr(3, 4096), &[0u8; 64]);

        let mut full = vec![0u8; d.capacity() as usize];
        d.read(0, &mut full);
        let image = d.clone_media();
        let lens: Vec<usize> = image.iter().map(Vec::len).collect();
        assert_eq!(lens, [8192 + XPLINE, 0, cap, XPLINE], "trimmed extents");

        let r = PmemDevice::from_media(cfg.clone(), image);
        let mut back = vec![0xEEu8; full.len()];
        r.read(0, &mut back);
        assert!(back == full, "every byte reads back as before the trim");

        // An over-long DIMM image is still rejected.
        let long = (0..4).map(|i| vec![0u8; cap + XPLINE * (i % 2)]).collect();
        let res = std::panic::catch_unwind(|| PmemDevice::from_media(cfg, long));
        assert!(res.is_err(), "over-long DIMM image accepted");
    }
}
