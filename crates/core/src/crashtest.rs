//! Deterministic crash-point sweep driver.
//!
//! The pmem layer can trip a simulated power failure at the Kth persistence
//! event ([`cachekv_pmem::FaultPlan`]). This module turns that primitive
//! into a harness: enumerate injection points across a workload, crash at
//! each one, reopen the store from the surviving media image, and
//! differentially check the recovered state against a shadow model.
//!
//! Two sweeps are provided:
//!
//! * [`sweep_store`] — drives a full engine ([`CacheKv`] or the WAL-based
//!   [`LsmTree`] reference) through a workload. Because background flush
//!   and maintenance threads interleave with the writer, event indices are
//!   not perfectly stable run-to-run; the driver therefore runs a traced
//!   baseline first and aims extra points at labelled code paths
//!   (`cachekv::copy_flush`, `cachekv::l0_dump`, `flushlog::reset_with`),
//!   and classifies each operation as *committed* (returned before the
//!   trip was observable) or *ambiguous* (in flight when the trip hit).
//! * [`sweep_flushlog`] — drives [`FlushLog`] directly, single-threaded,
//!   so every event index is enumerable densely and the surviving image is
//!   reproducible byte-for-byte (the returned digest proves it).
//!
//! Commit-point semantics: an eADR store commits at the *store* (a put
//! that returned before the trip must survive), the WAL-based reference
//! commits at the *fence* inside `put` — either way "returned with the
//! fault not yet tripped" implies durable, which is what the driver
//! checks. The one op in flight when the trip lands may or may not have
//! committed; it is checked against both acceptable states.

use crate::config::CacheKvConfig;
use crate::flushlog::FlushLog;
use crate::store::CacheKv;
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{KvStore, LsmConfig, LsmTree};
use cachekv_pmem::{FaultPlan, LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One workload operation.
#[derive(Clone, Debug)]
pub enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

impl Op {
    fn key(&self) -> &[u8] {
        match self {
            Op::Put(k, _) => k,
            Op::Delete(k) => k,
        }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Op::Put(_, v) => Some(v),
            Op::Delete(_) => None,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic mixed workload: puts with overwrites across a small key
/// space (so flushes and dumps trigger), with an occasional delete.
pub fn standard_workload(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = seed;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let r = splitmix64(&mut rng);
        let key = format!("key{:03}", r % 48).into_bytes();
        if r % 8 == 7 && i > 8 {
            ops.push(Op::Delete(key));
        } else {
            let pad = 64 + (r >> 8) % 96;
            let mut v = format!("v{i:06}-").into_bytes();
            v.resize(v.len() + pad as usize, b'x');
            ops.push(Op::Put(key, v));
        }
    }
    ops
}

/// Which engine a sweep drives. `CacheKv` commits at the store (sound under
/// eADR); `WalLsm` commits at the WAL fence (sound under plain ADR too).
pub enum Engine {
    CacheKv(CacheKvConfig),
    WalLsm(LsmConfig),
}

impl Engine {
    fn build(&self, hier: Arc<Hierarchy>) -> Box<dyn KvStore> {
        match self {
            Engine::CacheKv(cfg) => Box::new(CacheKv::create(hier, cfg.clone())),
            Engine::WalLsm(cfg) => Box::new(LsmTree::create(hier, cfg.clone())),
        }
    }

    fn recover(&self, hier: Arc<Hierarchy>) -> cachekv_lsm::Result<Box<dyn KvStore>> {
        match self {
            Engine::CacheKv(cfg) => Ok(Box::new(CacheKv::recover(hier, cfg.clone())?)),
            Engine::WalLsm(cfg) => Ok(Box::new(LsmTree::recover(hier, cfg.clone())?)),
        }
    }

    /// Can committed ops be checked exactly after recovery in `domain`?
    /// CacheKV's no-flush write path only commits durably on eADR;
    /// on ADR its cached writes legitimately die, so only the weaker
    /// no-fabrication check applies.
    fn exact_under(&self, domain: PersistDomain) -> bool {
        match self {
            Engine::CacheKv(_) => domain == PersistDomain::Eadr,
            Engine::WalLsm(_) => true,
        }
    }
}

/// Sweep parameters.
pub struct SweepOptions {
    pub engine: Engine,
    pub domain: PersistDomain,
    /// How many strided injection points to take from `1..=total_events`
    /// (context-targeted points are added on top).
    pub points: usize,
    /// Use torn-XPLine (beyond-ADR) semantics: un-evicted XPBuffer lines
    /// are lost and the freshest line is torn by a per-point seed. Only
    /// the no-fabrication check applies.
    pub torn: bool,
    pub seed: u64,
    pub ops: Vec<Op>,
}

/// What a sweep did, for assertions and reporting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Total persistence events in the (traced) baseline run; every
    /// injection point lies in `1..=total_events`.
    pub total_events: u64,
    /// Injection points actually exercised.
    pub points_run: usize,
    /// Points where the fault plan fired (the rest saw fewer events than
    /// the baseline due to thread interleaving and fell back to a plain
    /// power-fail at end of workload).
    pub trips: usize,
    /// Recoveries that returned an error with nothing committed (a crash
    /// before store creation finished) — acceptable, counted for info.
    pub(crate) early_recovery_errors: usize,
    /// How many trips landed inside each fault-context label.
    pub contexts: BTreeMap<String, usize>,
}

fn make_store_device(domain: PersistDomain) -> (Arc<PmemDevice>, Arc<Hierarchy>) {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled()
            .with_total_capacity(24 << 20)
            .with_domain(domain)
            .with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::paper()));
    (dev, hier)
}

/// Every value each key can legitimately hold at any point in the workload
/// (`None` = absent). Used by the relaxed no-fabrication check.
fn value_history(ops: &[Op]) -> BTreeMap<Vec<u8>, BTreeSet<Option<Vec<u8>>>> {
    let mut h: BTreeMap<Vec<u8>, BTreeSet<Option<Vec<u8>>>> = BTreeMap::new();
    for op in ops {
        let e = h.entry(op.key().to_vec()).or_default();
        e.insert(None); // every key starts absent
        e.insert(op.value().map(|v| v.to_vec()));
    }
    h
}

fn apply(store: &dyn KvStore, op: &Op) -> cachekv_lsm::Result<()> {
    match op {
        Op::Put(k, v) => store.put(k, v),
        Op::Delete(k) => store.delete(k),
    }
}

const PHANTOM_KEYS: [&[u8]; 3] = [b"zz-never-written", b"zz-phantom", b"aaa-phantom"];

/// Run the full crash-point sweep described in the module docs.
///
/// Panics (with a descriptive message) on any consistency violation; on
/// success returns what was covered so callers can assert breadth.
pub fn sweep_store(opts: &SweepOptions) -> SweepOutcome {
    // ---- Baseline: count events and trace labelled code paths. ----
    let (dev, hier) = make_store_device(opts.domain);
    dev.install_fault_plan(FaultPlan::count_only().traced());
    {
        let store = opts.engine.build(hier.clone());
        for op in &opts.ops {
            apply(&*store, op).expect("baseline op");
        }
        store.quiesce();
    }
    let total_events = dev.fault_events();
    let trace = dev.take_fault_trace();
    drop((dev, hier));
    assert!(total_events > 0, "workload generated no persistence events");

    // ---- Choose injection points: a stride over everything, plus points
    // aimed at each labelled code path (first / middle / last occurrences,
    // so run-to-run event drift still lands inside the label's span). ----
    let mut points: BTreeSet<u64> = BTreeSet::new();
    let stride = (total_events / opts.points.max(1) as u64).max(1);
    let mut k = 1;
    while k <= total_events && points.len() < opts.points {
        points.insert(k);
        k += stride;
    }
    let mut by_label: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for &(idx, label) in &trace {
        by_label.entry(label).or_default().push(idx);
    }
    for occurrences in by_label.values() {
        let n = occurrences.len();
        for frac in [n / 8, n / 2, n * 7 / 8, n.saturating_sub(1)] {
            points.insert(occurrences[frac.min(n - 1)]);
        }
    }

    // ---- The sweep itself. ----
    let history = value_history(&opts.ops);
    let exact = opts.engine.exact_under(opts.domain) && !opts.torn;
    let mut outcome = SweepOutcome {
        total_events,
        points_run: 0,
        trips: 0,
        early_recovery_errors: 0,
        contexts: BTreeMap::new(),
    };

    for &k in &points {
        let (dev, hier) = make_store_device(opts.domain);
        let plan = if opts.torn {
            FaultPlan::torn(k, opts.seed ^ (k.wrapping_mul(0x9E37_79B9)))
        } else {
            FaultPlan::at(k)
        };
        dev.install_fault_plan(plan);

        // Shadow model: last committed value per key, plus the one op that
        // was in flight when the trip became visible.
        let mut committed: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut in_flight: Option<(Vec<u8>, Option<Vec<u8>>)> = None;
        {
            let store = opts.engine.build(hier.clone());
            for op in &opts.ops {
                if dev.fault_tripped() {
                    break;
                }
                let r = apply(&*store, op);
                if dev.fault_tripped() {
                    in_flight = Some((op.key().to_vec(), op.value().map(|v| v.to_vec())));
                    break;
                }
                r.unwrap_or_else(|e| panic!("point {k}: op failed before any crash: {e:?}"));
                committed.insert(op.key().to_vec(), op.value().map(|v| v.to_vec()));
            }
            // Mirror the baseline's shutdown so event counts line up; after
            // a trip this runs against a blackholed device and is a no-op
            // durability-wise. Drop then joins the background threads.
            store.quiesce();
        }

        let (media, context) = match dev.take_trip_report() {
            Some(rep) => {
                outcome.trips += 1;
                for label in &rep.context {
                    *outcome.contexts.entry((*label).to_string()).or_insert(0) += 1;
                }
                (rep.media, rep.context)
            }
            None => {
                // This run produced fewer events than the baseline (thread
                // interleaving): degenerate to a power-fail at the end.
                // Disarm first — the writeback must not trip the stale plan
                // and blackhole its own final writes.
                dev.clear_fault_plan();
                hier.power_fail();
                (dev.clone_media(), Vec::new())
            }
        };
        let config = dev.config().clone();
        drop((dev, hier));

        // ---- Recover from the surviving image and check. ----
        let dev2 = Arc::new(PmemDevice::from_media(config, media));
        let hier2 = Arc::new(Hierarchy::new(dev2, CacheConfig::paper()));
        let store2 = match opts.engine.recover(hier2) {
            Ok(s) => s,
            Err(e) => {
                // Under torn (beyond-ADR) semantics losing the entire log is
                // legitimate — un-drained XPBuffer lines die, including the
                // flush log's selector. Otherwise only a crash before the
                // store finished creating may fail recovery.
                assert!(
                    opts.torn || committed.is_empty(),
                    "point {k} (ctx {context:?}): recovery failed with {} committed ops: {e:?}",
                    committed.len()
                );
                outcome.early_recovery_errors += 1;
                outcome.points_run += 1;
                continue;
            }
        };
        if exact {
            for (key, want) in &committed {
                if in_flight.as_ref().is_some_and(|(ik, _)| ik == key) {
                    continue; // checked below against both states
                }
                let got = store2.get(key).unwrap();
                assert_eq!(
                    &got,
                    want,
                    "point {k} (ctx {context:?}): committed key {} diverged",
                    String::from_utf8_lossy(key)
                );
            }
            if let Some((key, new_v)) = &in_flight {
                let got = store2.get(key).unwrap();
                let prior = committed.get(key).cloned().unwrap_or(None);
                assert!(
                    got == prior || got == *new_v,
                    "point {k} (ctx {context:?}): in-flight key {} is neither its prior \
                     nor its new value",
                    String::from_utf8_lossy(key)
                );
            }
        } else {
            // Relaxed: whatever survives must be a value that was actually
            // written at some point — nothing fabricated, no panics.
            for (key, allowed) in &history {
                let got = store2.get(key).unwrap();
                assert!(
                    allowed.contains(&got),
                    "point {k} (ctx {context:?}): key {} recovered a value never written",
                    String::from_utf8_lossy(key)
                );
            }
        }
        for p in PHANTOM_KEYS {
            assert_eq!(
                store2.get(p).unwrap(),
                None,
                "point {k} (ctx {context:?}): phantom key fabricated"
            );
        }
        // Post-recovery scans agree with post-recovery gets: the merged
        // cursor rebuilds from the same recovered sources the point-read
        // path probes. Engines without a native scan keep the trait's
        // "unsupported" default and are skipped.
        match store2.scan(b"", b"", usize::MAX) {
            Ok(scanned) => {
                let mut prev: Option<&[u8]> = None;
                for (key, val) in &scanned {
                    if let Some(p) = prev {
                        assert!(
                            p < key.as_slice(),
                            "point {k} (ctx {context:?}): scan keys out of order"
                        );
                    }
                    prev = Some(key);
                    assert_eq!(
                        store2.get(key).unwrap().as_deref(),
                        Some(val.as_slice()),
                        "point {k} (ctx {context:?}): scan and get disagree on key {}",
                        String::from_utf8_lossy(key)
                    );
                }
                let seen: BTreeSet<&[u8]> = scanned.iter().map(|(key, _)| key.as_slice()).collect();
                for key in history.keys() {
                    if store2.get(key).unwrap().is_some() {
                        assert!(
                            seen.contains(key.as_slice()),
                            "point {k} (ctx {context:?}): get sees key {} but scan missed it",
                            String::from_utf8_lossy(key)
                        );
                    }
                }
            }
            Err(e) => assert!(
                format!("{e:?}").contains("scan is not supported"),
                "point {k} (ctx {context:?}): post-recovery scan failed: {e:?}"
            ),
        }
        outcome.points_run += 1;
    }
    outcome
}

// ---------------------------------------------------------------------------
// FlushLog-only sweep: single-threaded, dense, byte-for-byte reproducible.
// ---------------------------------------------------------------------------

/// Outcome of [`sweep_flushlog`].
#[derive(Debug)]
pub struct FlushLogSweep {
    /// Persistence events in the baseline script run.
    pub total_events: u64,
    /// Injection points exercised: every event in `1..=total_events`.
    pub points_run: usize,
    /// FNV-1a digest over every point's surviving media image — two sweeps
    /// with the same arguments must produce the same digest (determinism).
    pub digest: u64,
    /// Trips per fault-context label (always includes
    /// `flushlog::reset_with` — the script resets twice).
    pub contexts: BTreeMap<String, usize>,
}

const FL_BASE: u64 = 0;
const FL_CAP: u64 = 64 << 10;

type LogState = (Option<(u64, u64)>, Vec<(u64, u64, u64)>);

/// The scripted FlushLog life cycle: create, record a pool, flush tables,
/// compact twice, flush more. Returns the model state after each step.
fn flushlog_script(hier: &Arc<Hierarchy>, mut after_step: impl FnMut()) -> Vec<LogState> {
    let pool = (1 << 16, 64 << 10);
    let ft = |g: u64| (g, 0x10_0000 + g * 0x1000, 256 + g * 64);
    let mut states: Vec<LogState> = Vec::new();
    let mut flushed: Vec<(u64, u64, u64)> = Vec::new();

    let log = FlushLog::create(hier.clone(), FL_BASE, FL_CAP);
    states.push((None, Vec::new()));
    after_step();
    log.log_pool(pool.0, pool.1);
    states.push((Some(pool), Vec::new()));
    after_step();
    for g in 1..=4u64 {
        log.log_flushed(ft(g).0, ft(g).1, ft(g).2);
        flushed.push(ft(g));
        states.push((Some(pool), flushed.clone()));
        after_step();
    }
    let survivors = vec![ft(2), ft(4)];
    log.reset_with(pool.0, pool.1, &survivors);
    flushed = survivors;
    states.push((Some(pool), flushed.clone()));
    after_step();
    for g in 5..=6u64 {
        log.log_flushed(ft(g).0, ft(g).1, ft(g).2);
        flushed.push(ft(g));
        states.push((Some(pool), flushed.clone()));
        after_step();
    }
    let survivors = vec![ft(4), ft(6)];
    log.reset_with(pool.0, pool.1, &survivors);
    flushed = survivors;
    states.push((Some(pool), flushed.clone()));
    after_step();
    for g in 7..=8u64 {
        log.log_flushed(ft(g).0, ft(g).1, ft(g).2);
        flushed.push(ft(g));
        states.push((Some(pool), flushed.clone()));
        after_step();
    }
    states
}

fn make_log_device(domain: PersistDomain) -> (Arc<PmemDevice>, Arc<Hierarchy>) {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::small()
            .with_domain(domain)
            .with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::small()));
    (dev, hier)
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Densely sweep every persistence event of the scripted FlushLog life
/// cycle: crash at each index, recover, and require the recovered log to be
/// one of the two model states the crash straddles (old or new — never a
/// mix, never empty-when-it-had-data). With `torn`, the recovered flushed
/// list need only be a prefix of a model state.
pub fn sweep_flushlog(domain: PersistDomain, torn: bool, seed: u64) -> FlushLogSweep {
    // Baseline: count events at each step boundary.
    let (dev, hier) = make_log_device(domain);
    dev.install_fault_plan(FaultPlan::count_only());
    let mut boundaries: Vec<u64> = Vec::new();
    let states = {
        let d = dev.clone();
        flushlog_script(&hier, || boundaries.push(d.fault_events()))
    };
    let total_events = *boundaries.last().unwrap();
    drop((dev, hier));

    let mut sweep = FlushLogSweep {
        total_events,
        points_run: 0,
        digest: 0xCBF2_9CE4_8422_2325,
        contexts: BTreeMap::new(),
    };
    for k in 1..=total_events {
        let (dev, hier) = make_log_device(domain);
        let plan = if torn {
            FaultPlan::torn(k, seed ^ k)
        } else {
            FaultPlan::at(k)
        };
        dev.install_fault_plan(plan);
        flushlog_script(&hier, || ());
        let rep = dev
            .take_trip_report()
            .unwrap_or_else(|| panic!("point {k}: single-threaded script must trip"));
        for label in &rep.context {
            *sweep.contexts.entry((*label).to_string()).or_insert(0) += 1;
        }
        fnv1a(&mut sweep.digest, &k.to_le_bytes());
        for dimm in &rep.media {
            fnv1a(&mut sweep.digest, dimm);
        }
        let config = dev.config().clone();
        let context = rep.context.clone();
        drop((dev, hier));

        let dev2 = Arc::new(PmemDevice::from_media(config, rep.media));
        let hier2 = Arc::new(Hierarchy::new(dev2, CacheConfig::small()));
        let (pool, flushed, _log) = FlushLog::recover(hier2, FL_BASE, FL_CAP);
        let got: LogState = (pool, flushed);

        // Steps fully complete by event k, by baseline boundary counts.
        // `states[done - 1]` is the last fully durable state; the step in
        // flight may also have fully landed (its last event tripped), so
        // `states[done]` is acceptable too. Crash mid-create recovers the
        // empty state, which `states[0]` already is.
        let done = boundaries.iter().filter(|&&b| b <= k).count();
        let lo = done.saturating_sub(1);
        let hi = done.min(states.len() - 1);
        if torn {
            // Lost XPBuffer lines may truncate the active half at a record
            // boundary (CRC guards partial records), or lose the selector
            // flip itself — any model-state prefix is sound.
            let plausible = states
                .iter()
                .any(|(p, f)| (got.0.is_none() || got.0 == *p) && f.starts_with(&got.1));
            assert!(
                plausible,
                "torn point {k} (ctx {context:?}): recovered {got:?} is not a prefix \
                 of any model state"
            );
        } else {
            assert!(
                got == states[lo] || got == states[hi],
                "point {k} (ctx {context:?}): recovered {got:?}, expected state {lo} \
                 {:?} or state {hi} {:?}",
                states[lo],
                states[hi]
            );
        }
        sweep.points_run += 1;
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = standard_workload(7, 100);
        let b = standard_workload(7, 100);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.iter().any(|op| matches!(op, Op::Delete(_))));
    }

    #[test]
    fn history_contains_absent_and_all_written_values() {
        let ops = vec![
            Op::Put(b"k".to_vec(), b"1".to_vec()),
            Op::Put(b"k".to_vec(), b"2".to_vec()),
            Op::Delete(b"k".to_vec()),
        ];
        let h = value_history(&ops);
        let k = &h[b"k".as_slice()];
        assert!(k.contains(&None));
        assert!(k.contains(&Some(b"1".to_vec())));
        assert!(k.contains(&Some(b"2".to_vec())));
        assert_eq!(k.len(), 3);
    }
}
