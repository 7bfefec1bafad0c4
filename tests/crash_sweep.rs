//! Crash-point sweeps: enumerate persistence-event indices across whole
//! workloads, crash at each, recover, and differentially check the result.
//! See `cachekv::crashtest` for the driver and `DESIGN.md` ("Crash
//! testing") for the methodology.

use cachekv::{
    standard_workload, sweep_flushlog, sweep_store, CacheKvConfig, Engine, SweepOptions,
};
use cachekv_lsm::{LsmConfig, StorageConfig};
use cachekv_pmem::PersistDomain;

fn sweep_cfg() -> CacheKvConfig {
    CacheKvConfig {
        pool_bytes: 64 << 10,
        subtable_bytes: 8 << 10,
        min_subtable_bytes: 4 << 10,
        dump_threshold_bytes: 16 << 10,
        ..CacheKvConfig::test_small()
    }
}

fn wal_cfg() -> LsmConfig {
    LsmConfig {
        memtable_bytes: 8 << 10,
        storage: StorageConfig::test_small(),
    }
}

#[test]
fn cachekv_eadr_sweep_covers_flush_and_dump_paths() {
    let out = sweep_store(&SweepOptions {
        engine: Engine::CacheKv(sweep_cfg()),
        domain: PersistDomain::Eadr,
        points: 56,
        torn: false,
        seed: 0xC0FFEE,
        ops: standard_workload(42, 400),
    });
    assert!(out.points_run >= 50, "breadth: {out:?}");
    assert!(out.points_run as u64 <= out.total_events, "{out:?}");
    assert!(out.trips > 0, "no injection point actually fired: {out:?}");
    assert!(
        out.contexts.contains_key("cachekv::copy_flush"),
        "no crash landed inside the copy-based flush: {out:?}"
    );
    assert!(
        out.contexts.contains_key("cachekv::l0_dump"),
        "no crash landed inside the L0 dump: {out:?}"
    );
}

#[test]
fn wal_lsm_adr_sweep_commits_at_the_fence() {
    // The WAL reference engine under plain ADR: every op that returned
    // before the crash was fenced, so recovery must reproduce it exactly.
    let out = sweep_store(&SweepOptions {
        engine: Engine::WalLsm(wal_cfg()),
        domain: PersistDomain::Adr,
        points: 56,
        torn: false,
        seed: 0xFE2CE,
        ops: standard_workload(43, 400),
    });
    assert!(out.points_run >= 50, "breadth: {out:?}");
    assert!(out.points_run as u64 <= out.total_events, "{out:?}");
    assert!(out.trips > 0, "no injection point actually fired: {out:?}");
}

#[test]
fn cachekv_torn_sweep_never_fabricates() {
    // Beyond-ADR torn-XPLine semantics: recovery may lose suffixes but must
    // never invent values or panic.
    let out = sweep_store(&SweepOptions {
        engine: Engine::CacheKv(sweep_cfg()),
        domain: PersistDomain::Eadr,
        points: 24,
        torn: true,
        seed: 0xBAD_5EED,
        ops: standard_workload(44, 300),
    });
    assert!(out.points_run >= 20, "breadth: {out:?}");
    assert!(out.points_run as u64 <= out.total_events, "{out:?}");
}

#[test]
fn flushlog_dense_sweep_hits_reset_in_both_domains() {
    for domain in [PersistDomain::Eadr, PersistDomain::Adr] {
        let out = sweep_flushlog(domain, false, 1);
        assert!(
            out.points_run >= 50,
            "{domain:?}: dense sweep too small: {out:?}"
        );
        assert_eq!(
            out.points_run as u64, out.total_events,
            "{domain:?}: the dense sweep skipped an event: {out:?}"
        );
        assert!(
            out.contexts
                .get("flushlog::reset_with")
                .copied()
                .unwrap_or(0)
                >= 1,
            "{domain:?}: no crash landed inside reset_with: {out:?}"
        );
    }
}

#[test]
fn flushlog_sweep_is_deterministic_byte_for_byte() {
    // Same plan, same seed => identical surviving media at every point.
    let a = sweep_flushlog(PersistDomain::Adr, false, 7);
    let b = sweep_flushlog(PersistDomain::Adr, false, 7);
    assert_eq!(a.points_run, b.points_run);
    assert_eq!(
        a.digest, b.digest,
        "crash images diverged between identical sweeps"
    );

    let ta = sweep_flushlog(PersistDomain::Adr, true, 7);
    let tb = sweep_flushlog(PersistDomain::Adr, true, 7);
    assert_eq!(
        ta.digest, tb.digest,
        "torn images diverged between identical sweeps"
    );
    // A different tear seed must actually change something.
    let tc = sweep_flushlog(PersistDomain::Adr, true, 8);
    assert_ne!(ta.digest, tc.digest, "tear seed had no effect");
}
