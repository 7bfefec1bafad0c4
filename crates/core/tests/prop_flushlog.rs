//! Property tests for `FlushLog`: arbitrary (pool, flush, reset) sequences
//! must round-trip through recovery, and a crash at *any* persistence event
//! inside the sequence must recover either the state before or after the
//! step the crash interrupted — in particular a crash inside `reset_with`
//! (between preparing the inactive half and publishing the selector) must
//! never lose the previous log.

use cachekv::FlushLog;
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_pmem::{FaultPlan, LatencyConfig, PersistDomain, PmemConfig, PmemDevice};
use proptest::prelude::*;
use std::sync::Arc;

const LOG_BASE: u64 = 0;
const LOG_CAP: u64 = 64 << 10;

#[derive(Debug, Clone)]
enum LogOp {
    /// Append a flushed-table record (region derived from the generation).
    Flush,
    /// Compact, keeping the subset of current records selected by the mask.
    Reset(u8),
}

type LogModel = (Option<(u64, u64)>, Vec<(u64, u64, u64)>);

fn region(gen: u64) -> (u64, u64, u64) {
    (gen, 0x10_0000 + gen * 0x1000, 128 + (gen % 7) * 64)
}

const POOL: (u64, u64) = (1 << 16, 32 << 10);

fn make_hier(domain: PersistDomain) -> (Arc<PmemDevice>, Arc<Hierarchy>) {
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::small()
            .with_domain(domain)
            .with_latency(LatencyConfig::zero()),
    ));
    let hier = Arc::new(Hierarchy::new(dev.clone(), CacheConfig::small()));
    (dev, hier)
}

/// Run create + log_pool + `ops`, calling `after_step` after each step.
/// Returns the model state after every step (index 0 = after create).
fn run_script(hier: &Arc<Hierarchy>, ops: &[LogOp], mut after_step: impl FnMut()) -> Vec<LogModel> {
    let mut states: Vec<LogModel> = Vec::new();
    let mut flushed: Vec<(u64, u64, u64)> = Vec::new();
    let mut gen = 0u64;

    let log = FlushLog::create(hier.clone(), LOG_BASE, LOG_CAP);
    states.push((None, Vec::new()));
    after_step();
    log.log_pool(POOL.0, POOL.1);
    states.push((Some(POOL), Vec::new()));
    after_step();
    for op in ops {
        match op {
            LogOp::Flush => {
                gen += 1;
                let (g, b, l) = region(gen);
                log.log_flushed(g, b, l);
                flushed.push((g, b, l));
            }
            LogOp::Reset(mask) => {
                flushed.retain(|(g, _, _)| (mask >> (g % 8)) & 1 == 1);
                log.reset_with(POOL.0, POOL.1, &flushed);
            }
        }
        states.push((Some(POOL), flushed.clone()));
        after_step();
    }
    states
}

fn ops_strategy() -> impl Strategy<Value = Vec<LogOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(LogOp::Flush),
            1 => any::<u8>().prop_map(LogOp::Reset),
        ],
        1..14,
    )
}

proptest! {
    // Clean-shutdown round-trip: whatever sequence ran, recovery returns
    // exactly the final model state.
    #[test]
    fn recovery_roundtrips_arbitrary_sequences(ops in ops_strategy()) {
        let (_dev, hier) = make_hier(PersistDomain::Adr);
        let states = run_script(&hier, &ops, || ());
        hier.power_fail();
        let (pool, flushed, _log) = FlushLog::recover(hier, LOG_BASE, LOG_CAP);
        let want = states.last().unwrap();
        prop_assert_eq!(&(pool, flushed), want);
    }

    // Crash anywhere: recovery lands on the model state just before or
    // just after the interrupted step — never anything else, and in
    // particular never an empty log once the pool record is down.
    #[test]
    fn crash_at_any_event_recovers_a_neighbouring_state(
        ops in ops_strategy(),
        frac in 0u16..1000,
    ) {
        // Baseline: count events per step boundary (single-threaded, so
        // counts are exact and reproducible).
        let (dev, hier) = make_hier(PersistDomain::Adr);
        dev.install_fault_plan(FaultPlan::count_only());
        let mut boundaries: Vec<u64> = Vec::new();
        let states = {
            let d = dev.clone();
            run_script(&hier, &ops, || boundaries.push(d.fault_events()))
        };
        let total = *boundaries.last().unwrap();
        drop((dev, hier));

        let k = 1 + (frac as u64 * (total - 1)) / 999;
        let (dev, hier) = make_hier(PersistDomain::Adr);
        dev.install_fault_plan(FaultPlan::at(k));
        run_script(&hier, &ops, || ());
        let rep = dev.take_trip_report().expect("plan must fire within the script");
        let dev2 = Arc::new(PmemDevice::from_media(dev.config().clone(), rep.media));
        let hier2 = Arc::new(Hierarchy::new(dev2, CacheConfig::small()));
        let (pool, flushed, _log) = FlushLog::recover(hier2, LOG_BASE, LOG_CAP);
        let got: LogModel = (pool, flushed);

        let done = boundaries.iter().filter(|&&b| b <= k).count();
        let lo = done.saturating_sub(1);
        let hi = done.min(states.len() - 1);
        prop_assert!(
            got == states[lo] || got == states[hi],
            "crash at event {}/{} (ctx {:?}): recovered {:?}, expected {:?} or {:?}",
            k, total, rep.context, got, states[lo], states[hi]
        );
    }
}
