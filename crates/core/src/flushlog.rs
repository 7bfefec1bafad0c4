//! Persistent log of copy-flushed sub-ImmMemTable regions.
//!
//! The DRAM side knows where flushed tables live; after a crash that
//! knowledge must come from somewhere persistent. This small log records
//! the pool region and every flushed table's `(generation, base, len)`;
//! it is rewritten (compacted) whenever a dump retires regions.
//!
//! # Crash safety: double-buffered halves
//!
//! A naive compaction (zero the log header, then re-append the survivors)
//! has a fatal window: a power failure between the zeroing and the first
//! re-append leaves an *empty* log, losing the pool record and every
//! flushed table — exactly the kind of bug a crash-point sweep exists to
//! find. The log therefore keeps **two halves** and an epoch selector:
//!
//! ```text
//!   base ──► [ selector line: magic | epoch ]   (one cacheline)
//!            [ half 0 ........................ ]
//!            [ half 1 ........................ ]
//! ```
//!
//! The half `epoch % 2` is live; appends go to it. [`FlushLog::reset_with`]
//! writes the compacted record stream into the *inactive* half and only
//! then publishes `epoch + 1` with a single 8-byte store + `clwb` +
//! `sfence`. A crash at any point inside the reset recovers either the
//! complete old log or the complete new one — never an empty log.

use cachekv_cache::Hierarchy;
use cachekv_pmem::fault_context;
use cachekv_storage::{PmemObject, WalReader, WalWriter};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const REC_POOL: u8 = 1;
const REC_FLUSHED: u8 = 2;

/// High 32 bits of the selector word. A selector that does not carry the
/// magic (zeroed media, ADR-torn garbage) reads as "no log".
const SELECTOR_MAGIC: u64 = 0x464C_4F47; // "FLOG"

/// One recovered flushed-table record: `(generation, base, len)`.
pub(crate) type FlushedRecord = (u64, u64, u64);

/// Result of replaying the log: the pool region, the flushed tables, and a
/// writer positioned at the valid tail.
pub(crate) type RecoveredLog = (Option<(u64, u64)>, Vec<FlushedRecord>, FlushLog);

struct LogState {
    epoch: u64,
    writer: WalWriter,
}

/// The flushed-table log.
pub struct FlushLog {
    hier: Arc<Hierarchy>,
    base: u64,
    cap: u64,
    state: Mutex<LogState>,
    /// Records appended this process lifetime (metrics).
    appends: AtomicU64,
    /// Compacting resets performed this process lifetime (metrics).
    resets: AtomicU64,
}

fn half_cap_of(cap: u64) -> u64 {
    ((cap - 64) / 2) & !63
}

fn half_base_of(base: u64, cap: u64, epoch: u64) -> u64 {
    base + 64 + (epoch & 1) * half_cap_of(cap)
}

/// Terminate any stale record stream at `half`, then wrap it as a fresh
/// writer. Durable before the caller publishes the selector.
fn fresh_half(hier: &Arc<Hierarchy>, half: u64, half_cap: u64) -> WalWriter {
    hier.store(half, &[0u8; 8]);
    hier.clwb(half, 8);
    hier.sfence();
    WalWriter::new(Arc::new(PmemObject::create(hier.clone(), half, half_cap)))
}

impl FlushLog {
    /// Atomically point recovery at `epoch`'s half.
    fn publish_epoch(&self, epoch: u64) {
        self.hier
            .store_u64(self.base, (SELECTOR_MAGIC << 32) | (epoch & 0xFFFF_FFFF));
        self.hier.clwb(self.base, 8);
        self.hier.sfence();
    }

    /// Create a fresh (empty) log at `[base, base+cap)`.
    pub fn create(hier: Arc<Hierarchy>, base: u64, cap: u64) -> Self {
        assert!(
            half_cap_of(cap) >= 64,
            "log region too small for two halves"
        );
        let writer = fresh_half(&hier, half_base_of(base, cap, 1), half_cap_of(cap));
        let log = FlushLog {
            hier,
            base,
            cap,
            state: Mutex::new(LogState { epoch: 1, writer }),
            appends: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        };
        log.publish_epoch(1);
        log
    }

    /// Replay the log region after a crash. Returns the recorded pool
    /// region, the flushed tables, and a writer positioned at the tail.
    pub fn recover(hier: Arc<Hierarchy>, base: u64, cap: u64) -> RecoveredLog {
        let selector = {
            let mut b = [0u8; 8];
            hier.load(base, &mut b);
            u64::from_le_bytes(b)
        };
        let (epoch, valid_selector) = if selector >> 32 == SELECTOR_MAGIC {
            (selector & 0xFFFF_FFFF, true)
        } else {
            (0, false)
        };
        let half = half_base_of(base, cap, epoch);
        let mut pool = None;
        let mut flushed = Vec::new();
        let mut valid = 0;
        if valid_selector {
            let scan = Arc::new(PmemObject::open(
                hier.clone(),
                half,
                half_cap_of(cap),
                half_cap_of(cap),
            ));
            let mut reader = WalReader::new(scan);
            while let Some(rec) = reader.next() {
                match rec.first() {
                    Some(&REC_POOL) if rec.len() >= 17 => {
                        let b = u64::from_le_bytes(rec[1..9].try_into().unwrap());
                        let s = u64::from_le_bytes(rec[9..17].try_into().unwrap());
                        pool = Some((b, s));
                    }
                    Some(&REC_FLUSHED) if rec.len() >= 25 => {
                        let gen = u64::from_le_bytes(rec[1..9].try_into().unwrap());
                        let b = u64::from_le_bytes(rec[9..17].try_into().unwrap());
                        let l = u64::from_le_bytes(rec[17..25].try_into().unwrap());
                        flushed.push((gen, b, l));
                    }
                    _ => break,
                }
                valid = reader.pos();
            }
        }
        let obj = Arc::new(PmemObject::open(
            hier.clone(),
            half,
            half_cap_of(cap),
            valid,
        ));
        let log = FlushLog {
            hier,
            base,
            cap,
            state: Mutex::new(LogState {
                epoch,
                writer: WalWriter::new(obj),
            }),
            appends: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        };
        (pool, flushed, log)
    }

    fn encode_pool(rec: &mut Vec<u8>, base: u64, size: u64) {
        rec.push(REC_POOL);
        rec.extend_from_slice(&base.to_le_bytes());
        rec.extend_from_slice(&size.to_le_bytes());
    }

    fn encode_flushed(rec: &mut Vec<u8>, gen: u64, base: u64, len: u64) {
        rec.push(REC_FLUSHED);
        rec.extend_from_slice(&gen.to_le_bytes());
        rec.extend_from_slice(&base.to_le_bytes());
        rec.extend_from_slice(&len.to_le_bytes());
    }

    /// Record the pool region (first record of a fresh log).
    pub fn log_pool(&self, base: u64, size: u64) {
        let mut rec = Vec::with_capacity(17);
        Self::encode_pool(&mut rec, base, size);
        self.state.lock().writer.append(&rec);
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one flushed table.
    pub fn log_flushed(&self, gen: u64, base: u64, len: u64) {
        let mut rec = Vec::with_capacity(25);
        Self::encode_flushed(&mut rec, gen, base, len);
        self.state.lock().writer.append(&rec);
        self.appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records appended since this handle was created (monotonic).
    pub(crate) fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Compacting resets since this handle was created (monotonic).
    pub(crate) fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Compact the log after a dump: keep only the pool record and the
    /// surviving flushed tables. Crash-atomic — the old log stays live
    /// until the new half is complete and the epoch selector flips.
    pub fn reset_with(&self, pool_base: u64, pool_size: u64, survivors: &[(u64, u64, u64)]) {
        let _ctx = fault_context("flushlog::reset_with");
        let mut st = self.state.lock();
        let next = st.epoch + 1;
        let w = fresh_half(
            &self.hier,
            half_base_of(self.base, self.cap, next),
            half_cap_of(self.cap),
        );
        let mut rec = Vec::with_capacity(25);
        Self::encode_pool(&mut rec, pool_base, pool_size);
        w.append(&rec);
        for &(gen, base, len) in survivors {
            rec.clear();
            Self::encode_flushed(&mut rec, gen, base, len);
            w.append(&rec);
        }
        // The commit point: everything before this is invisible to
        // recovery, everything after recovers the full new log.
        self.publish_epoch(next);
        st.epoch = next;
        st.writer = w;
        self.resets.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{FaultPlan, PersistDomain, PmemConfig, PmemDevice};

    fn hier() -> Arc<Hierarchy> {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        Arc::new(Hierarchy::new(dev, CacheConfig::small()))
    }

    #[test]
    fn roundtrip_through_crash() {
        let h = hier();
        {
            let log = FlushLog::create(h.clone(), 0, 64 << 10);
            log.log_pool(1 << 16, 12 << 10);
            log.log_flushed(1, 0x5000, 4096);
            log.log_flushed(2, 0x7000, 2048);
        }
        h.power_fail();
        let (pool, flushed, _log) = FlushLog::recover(h, 0, 64 << 10);
        assert_eq!(pool, Some((1 << 16, 12 << 10)));
        assert_eq!(flushed, vec![(1, 0x5000, 4096), (2, 0x7000, 2048)]);
    }

    #[test]
    fn reset_keeps_only_survivors() {
        let h = hier();
        let log = FlushLog::create(h.clone(), 0, 64 << 10);
        log.log_pool(100, 200);
        log.log_flushed(1, 0x1000, 64);
        log.log_flushed(2, 0x2000, 64);
        log.reset_with(100, 200, &[(2, 0x2000, 64)]);
        log.log_flushed(3, 0x3000, 64);
        drop(log);
        h.power_fail();
        let (pool, flushed, _) = FlushLog::recover(h, 0, 64 << 10);
        assert_eq!(pool, Some((100, 200)));
        assert_eq!(flushed, vec![(2, 0x2000, 64), (3, 0x3000, 64)]);
    }

    #[test]
    fn empty_log_recovers_empty() {
        let h = hier();
        let (pool, flushed, _) = FlushLog::recover(h, 0, 64 << 10);
        assert_eq!(pool, None);
        assert!(flushed.is_empty());
    }

    #[test]
    fn repeated_resets_alternate_halves_and_roundtrip() {
        let h = hier();
        let log = FlushLog::create(h.clone(), 0, 64 << 10);
        log.log_pool(100, 200);
        for round in 1..=5u64 {
            log.log_flushed(round, round * 0x1000, 64);
            log.reset_with(100, 200, &[(round, round * 0x1000, 64)]);
        }
        drop(log);
        h.power_fail();
        let (pool, flushed, _) = FlushLog::recover(h, 0, 64 << 10);
        assert_eq!(pool, Some((100, 200)));
        assert_eq!(flushed, vec![(5, 5 * 0x1000, 64)]);
    }

    #[test]
    fn crash_at_the_start_of_reset_keeps_the_old_log() {
        // Regression for the naive zero-then-rewrite reset: a crash on the
        // very first persistence event inside reset_with must leave the old
        // log fully recoverable (under ADR, so nothing unflushed survives).
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::small().with_domain(PersistDomain::Adr),
        ));
        let h = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::small()));
        let log = FlushLog::create(h.clone(), 0, 64 << 10);
        log.log_pool(100, 200);
        log.log_flushed(1, 0x1000, 64);
        log.log_flushed(2, 0x2000, 64);
        dev.install_fault_plan(FaultPlan::at(1));
        log.reset_with(100, 200, &[(2, 0x2000, 64)]);
        assert!(dev.fault_tripped(), "reset generated persistence events");
        let report = dev.take_trip_report().expect("tripped");
        assert_eq!(report.context, vec!["flushlog::reset_with"]);

        let dev2 = Arc::new(PmemDevice::from_media(dev.config().clone(), report.media));
        let h2 = Arc::new(Hierarchy::new(dev2, CacheConfig::small()));
        let (pool, flushed, _) = FlushLog::recover(h2, 0, 64 << 10);
        assert_eq!(pool, Some((100, 200)), "old log intact mid-reset");
        assert_eq!(flushed, vec![(1, 0x1000, 64), (2, 0x2000, 64)]);
    }

    #[test]
    fn invalid_selector_reads_as_empty() {
        let h = hier();
        // Garbage where the selector lives (no magic).
        h.store_u64(0, 0xDEAD_BEEF_0000_0007);
        h.clwb(0, 8);
        h.sfence();
        let (pool, flushed, _) = FlushLog::recover(h, 0, 64 << 10);
        assert_eq!(pool, None);
        assert!(flushed.is_empty());
    }
}
