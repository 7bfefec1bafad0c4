//! The CacheKV store: per-core sub-MemTables in persistent CPU caches,
//! lazy index update, copy-based flush, and sub-skiplist compaction.

use crate::config::CacheKvConfig;
use crate::cursor::{Round, VersionedEntry};
use crate::flushlog::FlushLog;
use crate::index::{
    read_record, try_read_record, FilterVerdict, FlushedTable, SubIndex, TableEntries,
};
use crate::metrics::StoreObs;
use crate::pool::Pool;
use crate::sched::{Job, Scheduler};
use crate::segment::{GlobalProbe, MergeTask, PartitionedIndex, Segment};
use crate::subtable::{Append, SlotState, SubTable, DATA_OFF};
use cachekv_cache::Hierarchy;
use cachekv_lsm::{
    decode_record_at, internal_cmp, meta_kind, meta_seq, pack_meta, record_len, EntryKind, Error,
    KvStore, PmemLayout, Result, StorageComponent, Version,
};
use cachekv_obs::{HousekeepPhase, Phase, ReadPhase, StatsSnapshot, TimeSource};
use cachekv_storage::PmemAllocator;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-core write state (the paper's global metadata structure maps cores to
/// sub-MemTables; the mutex is uncontended when one thread runs per core).
struct CoreSlot {
    st: Option<SubTable>,
    index: Arc<SubIndex>,
    writes_since_sync: u64,
    scratch: Vec<u8>,
}

/// What readers see of one core's *active* sub-MemTable: the table plus the
/// sub-skiplist indexing it. Published beside the CoreSlot mutex on every
/// table acquire/seal, so the read path probes it under an uncontended
/// `RwLock` read guard — writers only take the write side at roll-over —
/// and never touches the CoreSlot mutex itself.
struct ActiveView {
    st: SubTable,
    index: Arc<SubIndex>,
}

/// The memory component's shared read view.
struct MemIndexes {
    /// Sealed sub-ImmMemTables still in the cache, awaiting flush.
    sealing: Vec<(SubTable, Arc<SubIndex>)>,
    /// Copy-flushed tables not yet folded into the global index.
    flushed: Vec<FlushedTable>,
    /// The compacted global index: ordered, range-partitioned segments.
    global: PartitionedIndex,
    /// gen → (region base, len) for every live flushed table.
    gen_regions: HashMap<u64, (u64, u64)>,
    /// Total flushed bytes (drives the L0 dump threshold).
    flushed_bytes: u64,
}

enum FlushMsg {
    Seal(SubTable, Arc<SubIndex>),
    Stop,
}

/// Per-core LIU-nudge dedupe state. `epoch` counts sealed generations
/// (bumped on every view publish); `pending` latches one outstanding sync
/// job per core per epoch; `req_tail` is the reader-side table-tail
/// watermark within the epoch.
struct CoreSync {
    epoch: AtomicU64,
    pending: AtomicBool,
    req_tail: AtomicU64,
}

struct Shared {
    hier: Arc<Hierarchy>,
    alloc: Arc<PmemAllocator>,
    cfg: CacheKvConfig,
    pool: Pool,
    mem: RwLock<MemIndexes>,
    storage: StorageComponent,
    flushlog: FlushLog,
    next_gen: AtomicU64,
    pending_flushes: Mutex<usize>,
    flush_idle: Condvar,
    stop: AtomicBool,
    /// The off-path housekeeping scheduler (bounded queue + worker pool).
    sched: Scheduler,
    /// Per-core sync-nudge dedupe (one queued sync per sealed generation).
    core_sync: Vec<CoreSync>,
    /// Lock-free mirror of `MemIndexes::flushed_bytes` for the write-path
    /// backpressure gate (the canonical value stays under `mem`).
    flushed_total: AtomicU64,
    /// Stalled writers wait here for a housekeeping round to finish.
    dump_mutex: Mutex<()>,
    dump_done: Condvar,
    /// Serializes housekeeping (compaction + dump) across callers.
    housekeep_lock: Mutex<()>,
    /// Bumped (under the `mem` write lock) by every memory-component swap
    /// that can *drop* key versions — the SC fold swap and the L0 dump
    /// retirement. Scans sample it before and after snapshot capture: a
    /// change means a version at or below the scan's sequence cut may have
    /// been compacted away mid-capture, so the capture must be retried.
    /// Migrations that merely move data (seal, flush) never bump it.
    drop_epoch: AtomicU64,
    obs: StoreObs,
}

impl Shared {
    /// Request a background LIU sync for `core`, deduped per sealed
    /// generation: at most one queued sync job per core per epoch. Never
    /// blocks; on a full queue the latch is released so a later caller
    /// retries.
    fn nudge_sync(&self, core: usize) {
        let cs = &self.core_sync[core];
        let epoch = cs.epoch.load(Ordering::Acquire);
        if cs
            .pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
            && !self.sched.submit_sync(core, epoch)
        {
            cs.pending.store(false, Ordering::Release);
        }
    }

    /// The effective write-stall watermark: the configured bytes, floored
    /// at twice the dump threshold so a stall can always be relieved by a
    /// dump (0 = disabled).
    fn backpressure_limit(&self) -> u64 {
        if self.cfg.hk_backpressure_bytes == 0 {
            0
        } else {
            self.cfg
                .hk_backpressure_bytes
                .max(2 * self.cfg.dump_threshold_bytes)
        }
    }
}

/// CacheKV (Section III). See the crate docs for the architecture.
pub struct CacheKv {
    shared: Arc<Shared>,
    cores: Vec<Mutex<CoreSlot>>,
    /// Per-core published [`ActiveView`]s, read by the lock-free read path.
    /// Written only at table acquire/seal, while holding that core's mutex
    /// (so the view always mirrors `CoreSlot::st`).
    publish: Vec<RwLock<Option<ActiveView>>>,
    /// Bit `i` set ⇒ core `i` (i < 64) has a published view: readers skip
    /// empty cores with one load. Cores ≥ 64 are always probed.
    active_mask: AtomicU64,
    flush_tx: Sender<FlushMsg>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_core: AtomicUsize,
    /// Unique instance id (threads cache their core per store instance).
    store_id: u64,
}

thread_local! {
    /// Cached `(store instance id, core id)`: a thread keeps its core for
    /// one store but re-registers when it touches a different instance.
    static CORE_ID: std::cell::Cell<Option<(u64, usize)>> = const { std::cell::Cell::new(None) };
    /// Whether this thread is inside `get` — the tripwire for the read
    /// path's lock-freedom (see `lock_core`).
    static IN_READ: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Whether this thread is inside a put — the tripwire for the write
    /// path's off-path compaction (see `run_merge_tasks`).
    static IN_PUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Per-thread scratch for the read path's unindexed-suffix decode-scan,
    /// so a lagging index costs a buffer reuse, not an allocation per get.
    static READ_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

static STORE_IDS: AtomicU64 = AtomicU64::new(1);

impl CacheKv {
    /// Create a fresh store over `hier`.
    pub fn create(hier: Arc<Hierarchy>, cfg: CacheKvConfig) -> Self {
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        let storage = StorageComponent::create(
            hier.clone(),
            alloc.clone(),
            layout.manifest_base,
            layout.manifest_cap,
            cfg.storage.clone(),
        );
        // CacheKV needs no WAL (sub-MemTables are durable in the caches);
        // the WAL region hosts the flushed-table log instead.
        let flushlog = FlushLog::create(hier.clone(), layout.wal_base, layout.wal_cap);
        let pool_base = alloc.alloc(cfg.pool_bytes).expect("pool region");
        flushlog.log_pool(pool_base, cfg.pool_bytes);
        let pool = Pool::create(
            hier.clone(),
            pool_base,
            cfg.pool_bytes,
            cfg.subtable_bytes,
            cfg.min_subtable_bytes,
            cfg.miss_threshold,
        );
        Self::assemble(
            hier,
            alloc,
            cfg,
            pool,
            storage,
            flushlog,
            MemIndexes {
                sealing: Vec::new(),
                flushed: Vec::new(),
                global: PartitionedIndex::new(),
                gen_regions: HashMap::new(),
                flushed_bytes: 0,
            },
            1,
        )
    }

    /// Recover after a power failure (Section III-E): re-establish the CAT
    /// pool, rebuild sub-skiplists from the persistent sub-MemTables,
    /// re-register flushed tables from the flush log, rebuild the global
    /// skiplist, and replay the LSM manifest.
    pub fn recover(hier: Arc<Hierarchy>, cfg: CacheKvConfig) -> Result<Self> {
        let t0 = std::time::Instant::now();
        let layout = PmemLayout::standard(hier.device().capacity());
        let alloc = Arc::new(PmemAllocator::new(layout.arena_base, layout.arena_cap));
        let storage = StorageComponent::recover(
            hier.clone(),
            alloc.clone(),
            layout.manifest_base,
            layout.manifest_cap,
            cfg.storage.clone(),
        )?;
        let (pool_info, flushed_regions, flushlog) =
            FlushLog::recover(hier.clone(), layout.wal_base, layout.wal_cap);
        let (pool_base, pool_bytes) = pool_info.ok_or_else(|| {
            Error::Corruption("flush log has no pool record: store was never created".into())
        })?;
        alloc.reserve(pool_base, pool_bytes);
        // On eADR the directory and slot headers survived in the caches; on
        // ADR they died with them, so the pool is rebuilt empty (anything
        // not yet copy-flushed is gone — which is why the paper's design
        // requires eADR).
        let pool = Pool::try_reattach(
            hier.clone(),
            pool_base,
            pool_bytes,
            cfg.min_subtable_bytes,
            cfg.miss_threshold,
        )
        .unwrap_or_else(|| {
            Pool::create(
                hier.clone(),
                pool_base,
                pool_bytes,
                cfg.subtable_bytes,
                cfg.min_subtable_bytes,
                cfg.miss_threshold,
            )
        });

        let mut max_seq = storage.versions().last_seq();
        let mut next_gen = 1u64;
        // Rebuild flushed tables: reserve their regions and re-index them by
        // scanning the self-describing record stream.
        let mut mem = MemIndexes {
            sealing: Vec::new(),
            flushed: Vec::new(),
            global: PartitionedIndex::new(),
            gen_regions: HashMap::new(),
            flushed_bytes: 0,
        };
        for (gen, base, len) in flushed_regions {
            alloc.reserve(base, len);
            let index = SubIndex::for_data_capacity(len);
            index.sync_from_region(&hier, base, len);
            for (_, meta, _) in index.entries() {
                max_seq = max_seq.max(meta_seq(meta));
            }
            next_gen = next_gen.max(gen + 1);
            mem.gen_regions.insert(gen, (base, len));
            mem.flushed_bytes += len;
            let filter = index.build_filter();
            mem.flushed.push(FlushedTable {
                gen,
                base,
                len,
                index,
                filter,
            });
        }
        storage.versions().bump_seq_to(max_seq);

        let kv = Self::assemble(hier, alloc, cfg, pool, storage, flushlog, mem, next_gen);

        // Sub-MemTables that were live in the (persistent) caches: rebuild
        // their indexes, then flush them out and return the slots (the
        // paper re-frees all allocated sub-MemTables after recovery).
        let mut crash_max_seq = 0u64;
        for st in kv.shared.pool.all_subtables() {
            let h = st.header();
            if h.state() == SlotState::Free {
                continue;
            }
            if h.state() == SlotState::Allocated {
                st.seal();
            }
            let index = SubIndex::for_data_capacity(st.data_capacity());
            index.sync(&st);
            for (_, meta, _) in index.entries() {
                crash_max_seq = crash_max_seq.max(meta_seq(meta));
            }
            kv.shared
                .mem
                .write()
                .sealing
                .push((st.clone(), index.clone()));
            *kv.shared.pending_flushes.lock() += 1;
            kv.shared.obs.flush_queue_depth.inc();
            kv.flush_tx
                .send(FlushMsg::Seal(st, index))
                .expect("flush thread alive");
        }
        kv.shared.storage.versions().bump_seq_to(crash_max_seq);
        kv.quiesce();
        kv.shared.obs.recoveries.inc();
        kv.shared
            .obs
            .recovery_ns
            .record((t0.elapsed().as_nanos() as u64).max(1));
        Ok(kv)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        hier: Arc<Hierarchy>,
        alloc: Arc<PmemAllocator>,
        cfg: CacheKvConfig,
        pool: Pool,
        storage: StorageComponent,
        flushlog: FlushLog,
        mem: MemIndexes,
        next_gen: u64,
    ) -> Self {
        let obs = StoreObs::new(TimeSource::for_mode(hier.device().clock().mode()));
        let sched = Scheduler::new(
            cfg.housekeeping_queue_cap,
            obs.hk_queue_depth.clone(),
            obs.hk_stalls.clone(),
            obs.hk_sync_dropped.clone(),
        );
        let core_sync = (0..cfg.num_cores)
            .map(|_| CoreSync {
                epoch: AtomicU64::new(0),
                pending: AtomicBool::new(false),
                req_tail: AtomicU64::new(0),
            })
            .collect();
        let flushed_total = AtomicU64::new(mem.flushed_bytes);
        let shared = Arc::new(Shared {
            hier,
            alloc,
            pool,
            mem: RwLock::new(mem),
            storage,
            flushlog,
            next_gen: AtomicU64::new(next_gen),
            pending_flushes: Mutex::new(0),
            flush_idle: Condvar::new(),
            stop: AtomicBool::new(false),
            sched,
            core_sync,
            flushed_total,
            dump_mutex: Mutex::new(()),
            dump_done: Condvar::new(),
            housekeep_lock: Mutex::new(()),
            drop_epoch: AtomicU64::new(0),
            obs,
            cfg,
        });
        let cores = (0..shared.cfg.num_cores)
            .map(|_| {
                Mutex::new(CoreSlot {
                    st: None,
                    index: SubIndex::for_data_capacity(shared.cfg.subtable_bytes),
                    writes_since_sync: 0,
                    scratch: Vec::with_capacity(256),
                })
            })
            .collect();
        let publish = (0..shared.cfg.num_cores)
            .map(|_| RwLock::new(None))
            .collect();
        let (flush_tx, flush_rx) = unbounded::<FlushMsg>();
        let mut threads = Vec::new();
        for i in 0..shared.cfg.flush_threads {
            let s = shared.clone();
            let rx = flush_rx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cachekv-flush-{i}"))
                    .spawn(move || flush_loop(&s, &rx))
                    .expect("spawn flush thread"),
            );
        }
        let kv = CacheKv {
            shared: shared.clone(),
            cores,
            publish,
            active_mask: AtomicU64::new(0),
            flush_tx,
            threads: Mutex::new(threads),
            next_core: AtomicUsize::new(0),
            store_id: STORE_IDS.fetch_add(1, Ordering::Relaxed),
        };
        let core_refs: Arc<Vec<CoreRef>> = Arc::new(
            kv.cores
                .iter()
                .map(|c| CoreRef {
                    ptr: c as *const Mutex<CoreSlot> as usize,
                })
                .collect(),
        );
        let mut threads = kv.threads.lock();
        for i in 0..shared.cfg.housekeeping_threads.max(1) {
            let s = shared.clone();
            let rx = s.sched.receiver();
            let cores = core_refs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cachekv-hk-{i}"))
                    .spawn(move || housekeeping_loop(&s, &rx, &cores))
                    .expect("spawn housekeeping thread"),
            );
        }
        drop(threads);
        kv
    }

    /// The only sanctioned way to lock a CoreSlot. Gets must never come
    /// through here: the read path works off published views, and a reader
    /// acquiring a core lock would re-create the Observation-2 contention
    /// the per-core design removes. The counter is the regression tripwire
    /// (asserted zero in tests and `validate_metrics`).
    fn lock_core(&self, core: usize) -> parking_lot::MutexGuard<'_, CoreSlot> {
        if IN_READ.with(|c| c.get()) {
            self.shared.obs.read_core_lock_acquisitions.inc();
            debug_assert!(false, "read path must not take CoreSlot locks");
        }
        self.cores[core].lock()
    }

    /// Publish `view` as core `core`'s active table (or retract it with
    /// `None`). Must be called with the core's mutex held, so the published
    /// view always mirrors `CoreSlot::st`.
    fn publish_view(&self, core: usize, view: Option<ActiveView>) {
        let present = view.is_some();
        // New sealed generation: roll the sync epoch so queued sync jobs
        // for the previous table are recognized as stale, clear the pending
        // latch, and reset the reader-side sync-request watermark so nudges
        // for the fresh table aren't suppressed by the previous table's
        // (larger) tail.
        let cs = &self.shared.core_sync[core];
        cs.epoch.fetch_add(1, Ordering::Release);
        cs.pending.store(false, Ordering::Release);
        cs.req_tail.store(0, Ordering::Relaxed);
        *self.publish[core].write() = view;
        if core < 64 {
            let bit = 1u64 << core;
            if present {
                self.active_mask.fetch_or(bit, Ordering::SeqCst);
            } else {
                self.active_mask.fetch_and(!bit, Ordering::SeqCst);
            }
        }
    }

    fn core_id(&self) -> usize {
        CORE_ID.with(|c| {
            if let Some((sid, id)) = c.get() {
                if sid == self.store_id {
                    return id;
                }
            }
            let id = self.next_core.fetch_add(1, Ordering::Relaxed) % self.shared.cfg.num_cores;
            c.set(Some((self.store_id, id)));
            id
        })
    }

    /// Seal one *other* core's sub-MemTable and send it to the flushers,
    /// freeing a pool slot. Called when acquisition starves because peer
    /// cores sit idle on partially-filled tables (a case the paper's
    /// always-writing benchmarks never hit, but a real store must handle).
    fn force_seal_one(&self, self_core: usize) -> bool {
        for (i, c) in self.cores.iter().enumerate() {
            if i == self_core {
                continue;
            }
            let Some(mut cs) = c.try_lock() else { continue };
            if let Some(st) = cs.st.take() {
                st.seal();
                let index = cs.index.clone();
                self.shared.obs.steals.inc();
                self.seal_to_flush(i, st, index);
                return true;
            }
        }
        false
    }

    /// Publish a sealed table to readers and enqueue its flush. Ordering is
    /// load-bearing for the lock-free read path: the table enters
    /// `mem.sealing` *before* its active view is retracted (no window where
    /// its records are reachable through neither), and the flush message —
    /// which lets a flusher eventually recycle the slot — is sent only
    /// *after* the retraction, so a reader's post-probe view validation
    /// can always detect recycling.
    fn seal_to_flush(&self, core: usize, st: SubTable, index: Arc<SubIndex>) {
        self.shared
            .mem
            .write()
            .sealing
            .push((st.clone(), index.clone()));
        self.publish_view(core, None);
        *self.shared.pending_flushes.lock() += 1;
        self.shared.obs.seals.inc();
        self.shared.obs.flush_queue_depth.inc();
        self.flush_tx
            .send(FlushMsg::Seal(st, index))
            .expect("flush thread alive");
    }

    /// Get a free sub-MemTable for `core`, force-sealing idle peers if the
    /// pool starves.
    fn acquire_for(&self, core: usize) -> SubTable {
        loop {
            if let Some(st) = self.shared.pool.try_acquire() {
                return st;
            }
            self.shared.pool.note_miss();
            // Give in-flight flushes a moment; then reclaim from idle peers.
            if let Some(st) = self.shared.pool.wait_brief() {
                return st;
            }
            self.force_seal_one(core);
        }
    }

    fn write(&self, key: &[u8], value: &[u8], kind: EntryKind) -> Result<()> {
        let obs = &self.shared.obs;
        match kind {
            EntryKind::Put => obs.puts.inc(),
            EntryKind::Delete => obs.deletes.inc(),
        }
        let op = obs.time_source.begin();
        IN_PUT.with(|c| c.set(true));
        let out = self.write_inner(key, value, kind);
        IN_PUT.with(|c| c.set(false));
        obs.write_ns.record(op.elapsed_ns());
        obs.put_phases.op();
        out
    }

    /// The write-path backpressure gate: when flushed bytes sit above the
    /// watermark, block *before* taking the core lock (never under it — a
    /// housekeeping worker may need that lock for a sync job) until a
    /// housekeeping round drains the backlog. Explicit and observable:
    /// `core.housekeeping.put_stalls` / `.put_stall_ns` count every stall.
    fn backpressure_gate(&self) {
        let s = &self.shared;
        let limit = s.backpressure_limit();
        if limit == 0 || s.flushed_total.load(Ordering::Relaxed) <= limit {
            return;
        }
        s.obs.hk_put_stalls.inc();
        let t0 = std::time::Instant::now();
        let mut guard = s.dump_mutex.lock();
        while s.flushed_total.load(Ordering::Relaxed) > limit
            && !s.stop.load(Ordering::Relaxed)
            && !s.hier.fault_tripped()
        {
            s.sched.submit_round();
            if s.dump_done
                .wait_for(&mut guard, std::time::Duration::from_millis(10))
                .timed_out()
            {
                continue;
            }
        }
        drop(guard);
        s.obs
            .hk_put_stall_ns
            .add((t0.elapsed().as_nanos() as u64).max(1));
    }

    /// The write path, decomposed into the paper's Figure 5 phases: lock
    /// wait, allocation, data copy, index update, persistence handoff.
    fn write_inner(&self, key: &[u8], value: &[u8], kind: EntryKind) -> Result<()> {
        let obs = &self.shared.obs;
        let src = obs.time_source;
        self.backpressure_gate();
        let core = self.core_id();
        let t = src.begin();
        let mut cs = self.lock_core(core);
        obs.put_phases.record(Phase::LockWait, t.elapsed_ns());
        if cs.st.is_none() {
            let t = src.begin();
            let st = self.acquire_for(core);
            obs.put_phases.record(Phase::Alloc, t.elapsed_ns());
            cs.index = SubIndex::for_data_capacity(st.data_capacity());
            self.publish_view(
                core,
                Some(ActiveView {
                    st: st.clone(),
                    index: cs.index.clone(),
                }),
            );
            cs.st = Some(st);
        }
        let seq = self.shared.storage.versions().next_seq();
        let meta = pack_meta(seq, kind);
        loop {
            let st = cs.st.as_ref().expect("core has a sub-MemTable").clone();
            let t = src.begin();
            let appended = st.append(key, meta, value, &mut cs.scratch)?;
            obs.put_phases.record(Phase::DataCopy, t.elapsed_ns());
            match appended {
                Append::Ok(off) => {
                    let t = src.begin();
                    if self.shared.cfg.techniques.lazy_index {
                        cs.writes_since_sync += 1;
                        if cs.writes_since_sync >= self.shared.cfg.sync_every {
                            cs.writes_since_sync = 0;
                            self.shared.nudge_sync(core);
                        }
                    } else {
                        cs.index.insert_direct(
                            key,
                            meta,
                            off,
                            record_len(key.len(), value.len()) as u64,
                        );
                    }
                    obs.put_phases.record(Phase::IndexUpdate, t.elapsed_ns());
                    return Ok(());
                }
                Append::Full => {
                    // Seal, make visible to readers, hand to a flush thread,
                    // grab a fresh sub-MemTable.
                    let t = src.begin();
                    st.seal();
                    cs.st = None;
                    let index = cs.index.clone();
                    self.seal_to_flush(core, st, index);
                    obs.put_phases.record(Phase::Persist, t.elapsed_ns());
                    let t = src.begin();
                    let fresh = self.acquire_for(core);
                    obs.put_phases.record(Phase::Alloc, t.elapsed_ns());
                    cs.index = SubIndex::for_data_capacity(fresh.data_capacity());
                    self.publish_view(
                        core,
                        Some(ActiveView {
                            st: fresh.clone(),
                            index: cs.index.clone(),
                        }),
                    );
                    cs.st = Some(fresh);
                    cs.writes_since_sync = 0;
                }
            }
        }
    }

    /// The LSM storage component (tests / reporting).
    pub fn storage(&self) -> &StorageComponent {
        &self.shared.storage
    }

    /// The sub-MemTable pool (tests / reporting).
    pub fn pool(&self) -> &Pool {
        &self.shared.pool
    }

    /// `(sealing, flushed-pending, global keys, flushed bytes)` snapshot.
    pub fn memory_stats(&self) -> (usize, usize, usize, u64) {
        let m = self.shared.mem.read();
        (
            m.sealing.len(),
            m.flushed.len(),
            m.global.len(),
            m.flushed_bytes,
        )
    }

    /// Fence and size of every live global-index segment, plus each
    /// segment's bloom fingerprint: `(min, max, entries, fingerprint)`.
    /// Test accessor — used to prove recovery rebuilds identical segments.
    pub fn segment_fences(&self) -> Vec<(Vec<u8>, Vec<u8>, usize, u64)> {
        let m = self.shared.mem.read();
        m.global
            .segments()
            .iter()
            .map(|seg| {
                (
                    seg.min().to_vec(),
                    seg.max().to_vec(),
                    seg.len(),
                    seg.filter().bloom_fingerprint(),
                )
            })
            .collect()
    }

    /// Cross-layer metrics snapshot: device and cache counters, the memory
    /// component's registry (plus sampled pool / LIU / flush-log state), and
    /// the LSM storage component's registry.
    pub fn snapshot(&self) -> StatsSnapshot {
        let s = &self.shared;
        let mut memory = s.obs.registry.export();
        // LIU lag: writes per core not yet reflected in its sub-skiplist.
        // Core locks are taken one at a time (same first-lock order as the
        // write path, and never while holding `mem`).
        let mut lag_total = 0u64;
        let mut lag_max = 0u64;
        for c in &self.cores {
            let lag = c.lock().writes_since_sync;
            lag_total += lag;
            lag_max = lag_max.max(lag);
        }
        memory.insert_gauge("core.liu.lag_total", lag_total as i64);
        memory.insert_gauge("core.liu.lag_max", lag_max as i64);
        memory.insert_counter("core.pool.misses", s.pool.total_misses());
        memory.insert_gauge("core.pool.slots", s.pool.slot_count() as i64);
        memory.insert_gauge("core.pool.free_slots", s.pool.free_slots() as i64);
        memory.insert_counter("core.flushlog.appends", s.flushlog.appends());
        memory.insert_counter("core.flushlog.resets", s.flushlog.resets());
        {
            let m = s.mem.read();
            memory.insert_gauge("core.mem.sealing_tables", m.sealing.len() as i64);
            memory.insert_gauge("core.mem.flushed_tables", m.flushed.len() as i64);
            memory.insert_gauge("core.mem.global_keys", m.global.len() as i64);
            memory.insert_gauge("core.mem.global_segments", m.global.segments().len() as i64);
            memory.insert_gauge("core.mem.flushed_bytes", m.flushed_bytes as i64);
        }
        StatsSnapshot {
            system: self.name().to_string(),
            device: s.hier.pmem_stats(),
            cache: s.hier.cache_stats(),
            memory,
            lsm: s.storage.export_metrics(),
        }
    }
}

impl KvStore for CacheKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write(key, value, EntryKind::Put)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.write(key, b"", EntryKind::Delete)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let obs = &self.shared.obs;
        obs.gets.inc();
        let op = obs.time_source.begin();
        IN_READ.with(|c| c.set(true));
        let out = READ_SCRATCH.with(|buf| self.get_inner(key, &mut buf.borrow_mut()));
        IN_READ.with(|c| c.set(false));
        obs.get_ns.record(op.elapsed_ns());
        obs.get_phases.op();
        out
    }

    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let obs = &self.shared.obs;
        obs.scans.inc();
        let op = obs.time_source.begin();
        IN_READ.with(|c| c.set(true));
        let out = self.scan_inner(start, end, limit);
        IN_READ.with(|c| c.set(false));
        obs.scan_ns.record(op.elapsed_ns());
        if let Ok(items) = &out {
            obs.scan_items.add(items.len() as u64);
        }
        out
    }

    fn name(&self) -> &'static str {
        match (
            self.shared.cfg.techniques.lazy_index,
            self.shared.cfg.techniques.compaction,
        ) {
            (false, _) => "PCSM",
            (true, false) => "PCSM+LIU",
            (true, true) => "CacheKV",
        }
    }

    fn quiesce(&self) {
        {
            let mut pending = self.shared.pending_flushes.lock();
            while *pending > 0 {
                self.shared.flush_idle.wait(&mut pending);
            }
        }
        // One synchronous housekeeping round (compaction + possible dump).
        housekeep_round(&self.shared);
        self.shared.storage.wait_idle();
    }

    fn snapshot_json(&self) -> Option<String> {
        Some(self.snapshot().to_json_string())
    }

    /// Crash-consistent image of the shard: quiesce background work (no
    /// flush, merge, or dump mid-write), then a point-in-time LLC
    /// writeback + media clone. The caller holds off foreground writes;
    /// [`CacheKv::recover`] on the returned image rebuilds an equivalent
    /// store — replication bootstrap ships exactly these bytes. Each DIMM's
    /// image stops at its last non-zero XPLine, so it is about as large as
    /// what the shard has written, not the device's capacity.
    fn capture_image(&self) -> Option<Vec<Vec<u8>>> {
        self.quiesce();
        Some(self.shared.hier.capture_media())
    }
}

impl CacheKv {
    /// The contention-free read path. Probe order: active sub-MemTables
    /// (published views, no CoreSlot locks), then sealing + flushed tables
    /// and the global skiplist (fence/bloom gated) under the `mem` read
    /// lock, then the LSM — unless an in-memory hit already dominates every
    /// persisted sequence number.
    fn get_inner(&self, key: &[u8], scratch: &mut Vec<u8>) -> Result<Option<Vec<u8>>> {
        let s = &self.shared;
        let obs = &s.obs;
        let src = obs.time_source;
        let mut best: Candidate = None;
        let consider = |meta: u64, value: Option<Vec<u8>>, best: &mut Candidate| {
            if best.as_ref().is_none_or(|(m, _)| meta > *m) {
                *best = Some((meta, value));
            }
        };

        // 1. Active sub-MemTables: snapshot each published view and probe
        // it read-only — the indexed prefix through the sub-skiplist, the
        // unindexed suffix by scanning `[list tail, table tail)`. The scan
        // replaces reader-driven `sync()`: LIU's sync-on-read semantics
        // (a get observes every completed write) without mutating a shared
        // index or taking the CoreSlot mutex.
        // One stopwatch laps across the phase boundaries: a single clock
        // read per boundary instead of a begin/elapsed pair per phase.
        let mut sw = src.begin();
        let mask = self.active_mask.load(Ordering::SeqCst);
        for (core, slot) in self.publish.iter().enumerate() {
            if core < 64 && mask & (1u64 << core) == 0 {
                continue;
            }
            let guard = slot.read();
            let Some(view) = guard.as_ref() else {
                continue;
            };
            obs.read_probes.inc();
            // Holding the publish read guard pins the view: a seal retracts
            // it under the write lock *before* sending the flush message
            // that lets the slot's memory be reused, so the table cannot be
            // recycled mid-probe and any hit is valid as-is. Writers never
            // wait on this guard on the hot path — only the (rare) seal
            // rollover takes the write side.
            let (hit, lag_tail) = probe_table(s, &view.st, &view.index, key, scratch);
            drop(guard);
            if let Some((meta, value)) = hit {
                consider(meta, value, &mut best);
            }
            // Sync-on-read, asynchronously: a lagging index makes every
            // reader re-decode the suffix, so nudge a housekeeping worker
            // to index it — once per observed tail, not once per get.
            if lag_tail > 0 {
                let req = &s.core_sync[core].req_tail;
                let prev = req.load(Ordering::Relaxed);
                if lag_tail > prev
                    && req
                        .compare_exchange(prev, lag_tail, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    s.nudge_sync(core);
                }
            }
        }
        obs.get_phases.record(ReadPhase::ActiveProbe, sw.lap());

        // 2. Sealed/flushed tables and the global skiplist.
        {
            let m = s.mem.read();
            for (st, index) in &m.sealing {
                // Sealed tables are immutable but possibly not fully
                // indexed yet (the flusher does the final sync); the same
                // read-only suffix scan covers the gap — a miss never pays
                // a sync.
                obs.read_probes.inc();
                if let (Some((meta, value)), _) = probe_table(s, st, index, key, scratch) {
                    consider(meta, value, &mut best);
                }
            }
            for ft in &m.flushed {
                match ft
                    .filter
                    .as_ref()
                    .map_or(FilterVerdict::Probe, |f| f.check(key))
                {
                    FilterVerdict::FenceSkip => {
                        obs.read_fence_skips.inc();
                        continue;
                    }
                    FilterVerdict::BloomSkip => {
                        obs.read_bloom_skips.inc();
                        continue;
                    }
                    FilterVerdict::Probe => {}
                }
                obs.read_probes.inc();
                if let Some((meta, off)) = ft.index.get(key) {
                    let value = match meta_kind(meta) {
                        EntryKind::Delete => None,
                        EntryKind::Put => Some(read_record(&s.hier, ft.base, off as u64).value),
                    };
                    consider(meta, value, &mut best);
                }
            }
            obs.get_phases.record(ReadPhase::ImmProbe, sw.lap());
            match m.global.probe(key) {
                GlobalProbe::Empty => {}
                GlobalProbe::FenceSkip => obs.read_fence_skips.inc(),
                GlobalProbe::BloomSkip => obs.read_bloom_skips.inc(),
                GlobalProbe::Miss => obs.read_probes.inc(),
                GlobalProbe::Hit(meta, gen, off) => {
                    obs.read_probes.inc();
                    let value = match meta_kind(meta) {
                        EntryKind::Delete => None,
                        EntryKind::Put => {
                            let (base, _) = m.gen_regions[&gen];
                            Some(read_record(&s.hier, base, off as u64).value)
                        }
                    };
                    consider(meta, value, &mut best);
                }
            }
            obs.get_phases.record(ReadPhase::GlobalProbe, sw.lap());
        }

        // 3. The LSM levels. Per-core sub-MemTables don't globally order a
        // key's versions, so the storage result competes on version too —
        // but when the in-memory hit's sequence exceeds everything the
        // levels hold, the probe cannot change the outcome: skip it.
        let dominated = best
            .as_ref()
            .is_some_and(|(meta, _)| meta_seq(*meta) > s.storage.max_persisted_seq());
        if dominated {
            obs.read_lsm_short_circuits.inc();
        } else if let Some((meta, value)) = s.storage.get_versioned(key) {
            let value = match meta_kind(meta) {
                EntryKind::Delete => None,
                EntryKind::Put => Some(value),
            };
            consider(meta, value, &mut best);
        }
        obs.get_phases.record(ReadPhase::LsmProbe, sw.lap());
        Ok(best.and_then(|(_, v)| v))
    }

    /// The range-scan path: pin a consistent snapshot of every source,
    /// then heap-merge them through a
    /// [`MergedCursor`](crate::cursor::MergedCursor), in bounded capture
    /// rounds ([`Round`]) so a scan copies about what it returns.
    ///
    /// Capture runs in the read path's probe order — active views first
    /// (under their publish guards), then sealing/flushed/global under one
    /// `mem` read guard, then the LSM version — which is the *opposite* of
    /// the direction data migrates (active → sealing → flushed → global →
    /// LSM). A migration racing the capture can therefore only duplicate
    /// an entry across two captured sources, never hide it, and duplicates
    /// are resolved by the merge's newest-first dedup. Memory-component
    /// values are copied out while their pin guard is held (sub-MemTable
    /// slots and flushed regions can be recycled after it drops); sstables
    /// stay lazy because their `Arc` handles pin table space directly.
    /// Like gets, scans never touch a CoreSlot mutex.
    ///
    /// Migration alone is not the only hazard: the SC fold, the L0 dump,
    /// and LSM compactions *drop* every non-newest version of a key. A
    /// capture pinned to a sequence cut needs the newest version *at or
    /// below the cut*, which such a drop can destroy mid-capture (the
    /// surviving newest version is above the cut, so the cursor filters
    /// it and the key goes silently stale or missing). The capture
    /// therefore pins the LSM version and samples the memory component's
    /// drop epoch *before* reading the cut, re-checks both after capture,
    /// and retries on interference — drops that completed before the pin
    /// are benign (their surviving newest version predates the cut), and
    /// drops after it are detected. Persistent interference (tiny tables,
    /// heavy preemption) falls back to capturing under the housekeeping
    /// lock, which excludes SC and dumps entirely.
    ///
    /// Across rounds nothing of this changes: every round of one attempt
    /// shares the same pin, drop-epoch sample and cut, captures in probe
    /// order, and is validated before it is merged, so a drop anywhere in
    /// the scan restarts the whole attempt and the housekeeping-lock
    /// fallback covers every round. Each round emits only keys below its
    /// smallest horizon, and the next round starts at that horizon, so the
    /// rounds partition the result into disjoint ascending key ranges, all
    /// read at one cut. Progress: a round starts at a key `>= lo` and its
    /// horizon lies past at least one key at or above `lo` (every bounded
    /// read takes `n >= 1` keys), so `lo` strictly increases.
    fn scan_inner(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let s = &self.shared;
        if limit == 0 || (!end.is_empty() && start >= end) {
            return Ok(Vec::new());
        }
        let mut attempts = 0u32;
        loop {
            let quell = if attempts >= 4 {
                Some(s.housekeep_lock.lock())
            } else {
                None
            };
            if let Some(out) = self.scan_capture(start, end, limit) {
                return Ok(out);
            }
            drop(quell);
            s.obs.scan_retries.inc();
            attempts += 1;
        }
    }

    /// One snapshot-capture attempt: pin, cut, then capture, validate and
    /// merge bounded rounds until `limit` items are out or the range is
    /// exhausted. `None` means some round's capture cannot be trusted —
    /// a version-dropping compaction intervened — and the caller must
    /// retry the whole attempt.
    fn scan_capture(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let s = &self.shared;
        let obs = &s.obs;
        // Pin the LSM version (the `Arc` keeps its tables readable and
        // makes the post-capture pointer comparison ABA-free) and sample
        // the drop epoch, both *before* the cut.
        let version = s.storage.versions().current();
        let epoch = s.drop_epoch.load(Ordering::SeqCst);
        // The consistent cut: every write that completed before this line
        // holds a sequence at or below it; anything newer is filtered out
        // by the cursor, so concurrent writers cannot tear the result.
        let snapshot_seq = s.storage.versions().last_seq();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let mut lo = start.to_vec();
        loop {
            let mut round = Round::new(&lo, end, limit - out.len(), snapshot_seq);
            self.capture_round(&version, &mut round, &mut scratch);
            obs.scan_rounds.inc();
            obs.scan_captured.add(round.captured as u64);
            // Validate before merging: if a version-dropping swap landed
            // since the pin, some source may have lost the
            // newest-at-or-below-cut version of a key and the whole
            // attempt is suspect. The memory runs are already private
            // copies and the pinned sstables are immutable, so a *clean*
            // round stays trustworthy for however long its merge takes.
            if s.drop_epoch.load(Ordering::SeqCst) != epoch
                || !Arc::ptr_eq(&version, &s.storage.versions().current())
            {
                return None;
            }
            match round.merge(&mut out) {
                Some(horizon) => lo = horizon,
                None => return Some(out),
            }
        }
    }

    /// Capture one round's sources in probe order: active views, then
    /// sealing / flushed / global under one `mem` guard, then the pinned
    /// LSM version. Memory sources copy at most `round.n` keys each.
    fn capture_round(&self, version: &Version, round: &mut Round, scratch: &mut Vec<u8>) {
        let s = &self.shared;
        let obs = &s.obs;
        let (lo, end, n, cut) = (round.lo, round.end, round.n, round.cut);

        // 1. Active sub-MemTables.
        let mask = self.active_mask.load(Ordering::SeqCst);
        for (core, slot) in self.publish.iter().enumerate() {
            if core < 64 && mask & (1u64 << core) == 0 {
                continue;
            }
            let guard = slot.read();
            let Some(view) = guard.as_ref() else {
                continue;
            };
            scan_table_range(s, &view.st, &view.index, round, scratch);
        }

        // 2. Sealing, flushed, and global index under one `mem` guard.
        {
            let m = s.mem.read();
            for (st, index) in &m.sealing {
                scan_table_range(s, st, index, round, scratch);
            }
            for ft in &m.flushed {
                if let Some(f) = &ft.filter {
                    let (min, max) = f.fences();
                    if max < lo || (!end.is_empty() && min >= end) {
                        obs.scan_fence_skips.inc();
                        continue;
                    }
                }
                let (entries, horizon) = ft.index.range_entries(lo, end, n, cut);
                let run = entries
                    .into_iter()
                    .map(|(key, meta, off)| {
                        let value = match meta_kind(meta) {
                            EntryKind::Delete => None,
                            EntryKind::Put => Some(read_record(&s.hier, ft.base, off as u64).value),
                        };
                        (key, meta, value)
                    })
                    .collect();
                round.mem(run, horizon);
            }
            // The segments are disjoint and ordered, so the global index
            // is one source: walk the overlapped segments in order with
            // one budget of `n` keys.
            let mut run: Vec<VersionedEntry> = Vec::new();
            let mut horizon = None;
            for seg in m.global.segments() {
                if seg.max() < lo || (!end.is_empty() && seg.min() >= end) {
                    obs.scan_fence_skips.inc();
                    continue;
                }
                if run.len() == n {
                    horizon = Some(seg.min().to_vec());
                    break;
                }
                let (entries, seg_horizon) = seg.range(lo, end, n - run.len(), cut);
                for (key, meta, gen, off) in entries {
                    let value = match meta_kind(meta) {
                        EntryKind::Delete => None,
                        EntryKind::Put => {
                            let (base, _) = m.gen_regions[&gen];
                            Some(read_record(&s.hier, base, off as u64).value)
                        }
                    };
                    run.push((key, meta, value));
                }
                if seg_horizon.is_some() {
                    horizon = seg_horizon;
                    break;
                }
            }
            round.mem(run, horizon);
        }

        // 3. LSM tables, Arc-pinned by the version captured before the
        // cut, fence-checked against what this round may emit.
        for level in &version.levels {
            for table in level {
                let bound = round.bound();
                if table.meta.largest.as_slice() < lo
                    || (!bound.is_empty() && table.meta.smallest.as_slice() >= bound)
                {
                    obs.scan_fence_skips.inc();
                    continue;
                }
                round.table(table.iter_from_owned(lo));
            }
        }
    }
}

/// Newest version candidate for a key: `(meta, value)`, where a `None`
/// value records a tombstone. Highest meta (sequence) wins.
type Candidate = Option<(u64, Option<Vec<u8>>)>;

/// Read-only probe of one (active or sealing) sub-MemTable: newest version
/// of `key` from the indexed prefix plus a decode-scan of the unindexed
/// suffix `[list tail, table tail)`. Never mutates the index; callers pin
/// the table against recycling (publish read guard or `mem` lock) for the
/// duration. The second return is the table tail when the index was
/// observed lagging (0 when fully synced) so the caller can request a
/// background sync.
fn probe_table(
    s: &Shared,
    st: &SubTable,
    index: &SubIndex,
    key: &[u8],
    scratch: &mut Vec<u8>,
) -> (Candidate, u64) {
    let mut best: Candidate = None;
    // Read the list tail before the table tail: the index may advance
    // concurrently (background LIU sync), which only widens overlap with
    // the indexed prefix — duplicates are fine, newest meta wins.
    let (_, synced_tail) = index.counters();
    let tail = st.header().tail();
    if let Some((meta, off)) = index.get(key) {
        match meta_kind(meta) {
            EntryKind::Delete => best = Some((meta, None)),
            EntryKind::Put => {
                // `try_read_record`, not `read_record`: under a racing
                // recycle the offset may point at garbage.
                if let Some(e) = try_read_record(&s.hier, st.base + DATA_OFF, off as u64) {
                    best = Some((meta, Some(e.value)));
                }
            }
        }
    }
    let mut lag_tail = 0;
    if synced_tail < tail {
        lag_tail = tail;
        // Reuse the caller's scratch buffer: the suffix scan is the hot
        // read path under LIU lag, and a per-get allocation here shows up
        // directly in get latency.
        st.read_data_into(synced_tail, (tail - synced_tail) as usize, scratch);
        let raw: &[u8] = scratch;
        let mut pos = 0usize;
        while let Some((e, next)) = decode_record_at(raw, pos) {
            if e.key == key && best.as_ref().is_none_or(|(m, _)| e.meta > *m) {
                let value = match meta_kind(e.meta) {
                    EntryKind::Delete => None,
                    EntryKind::Put => Some(e.value),
                };
                best = Some((e.meta, value));
            }
            pos = next;
        }
    }
    (best, lag_tail)
}

/// Read-only range capture of one (active or sealing) sub-MemTable into
/// `round`: the round's bounded share of the indexed prefix plus a
/// decode-scan of the whole unindexed suffix `[list tail, table tail)`
/// (short: LIU lag bounds it), values copied out, in internal order, cut
/// back to `round.n` keys. The caller pins the table (publish read guard
/// or `mem` lock) for the duration — the same discipline as
/// [`probe_table`].
fn scan_table_range(
    s: &Shared,
    st: &SubTable,
    index: &SubIndex,
    round: &mut Round,
    scratch: &mut Vec<u8>,
) {
    let (lo, end, n, cut) = (round.lo, round.end, round.n, round.cut);
    let (_, synced_tail) = index.counters();
    let tail = st.header().tail();
    let (entries, mut horizon) = index.range_entries(lo, end, n, cut);
    let mut run: Vec<VersionedEntry> = Vec::with_capacity(entries.len());
    for (key, meta, off) in entries {
        let value = match meta_kind(meta) {
            EntryKind::Delete => None,
            // `try_read_record`, not `read_record`: under a racing recycle
            // the offset may point at garbage (see `probe_table`).
            EntryKind::Put => match try_read_record(&s.hier, st.base + DATA_OFF, off as u64) {
                Some(e) => Some(e.value),
                None => continue,
            },
        };
        run.push((key, meta, value));
    }
    if synced_tail < tail {
        st.read_data_into(synced_tail, (tail - synced_tail) as usize, scratch);
        let raw: &[u8] = scratch;
        let mut pos = 0usize;
        while let Some((e, next)) = decode_record_at(raw, pos) {
            pos = next;
            if e.key.as_slice() < lo
                || (!end.is_empty() && e.key.as_slice() >= end)
                || meta_seq(e.meta) > cut
            {
                continue;
            }
            let value = match meta_kind(e.meta) {
                EntryKind::Delete => None,
                EntryKind::Put => Some(e.value),
            };
            run.push((e.key, e.meta, value));
        }
        // The suffix arrives in append order; the merge heap needs each
        // source in internal order, newest version per key only.
        run.sort_by(|a, b| internal_cmp(&a.0, a.1, &b.0, b.1));
        let copied = run.len();
        run.dedup_by(|later, kept| later.0 == kept.0);
        // Suffix keys may crowd past the indexed share: keep `n` keys and
        // let the first one dropped bound the horizon.
        if run.len() > n {
            let first_dropped = run[n].0.clone();
            run.truncate(n);
            if horizon.as_ref().is_none_or(|h| first_dropped < *h) {
                horizon = Some(first_dropped);
            }
        }
        // `mem` counts what survives; the copies dropped here count too.
        round.captured += copied - run.len();
    }
    round.mem(run, horizon);
}

impl Drop for CacheKv {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake any writer parked at the backpressure gate before joining.
        {
            let _g = self.shared.dump_mutex.lock();
            self.shared.dump_done.notify_all();
        }
        for _ in 0..self.shared.cfg.flush_threads {
            let _ = self.flush_tx.send(FlushMsg::Stop);
        }
        self.shared
            .sched
            .stop(self.shared.cfg.housekeeping_threads.max(1));
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// A type-erased pointer to a core slot for the maintenance thread. Safe
/// because `CacheKv` joins the thread before the slots drop.
struct CoreRef {
    ptr: usize,
}

unsafe impl Send for CoreRef {}
unsafe impl Sync for CoreRef {}

impl CoreRef {
    fn with<T>(&self, f: impl FnOnce(&Mutex<CoreSlot>) -> T) -> T {
        // SAFETY: the owning CacheKv outlives its background threads (Drop
        // joins them) and Mutex<CoreSlot> never moves (boxed in a Vec that
        // is never resized after construction).
        f(unsafe { &*(self.ptr as *const Mutex<CoreSlot>) })
    }
}

fn flush_loop(s: &Arc<Shared>, rx: &Receiver<FlushMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            FlushMsg::Stop => return,
            FlushMsg::Seal(st, index) => {
                let t = s.obs.time_source.begin();
                flush_one(s, st, index);
                s.obs.flushes.inc();
                s.obs.flush_ns.record(t.elapsed_ns());
                s.obs.flush_queue_depth.dec();
                let mut pending = s.pending_flushes.lock();
                *pending -= 1;
                if *pending == 0 {
                    s.flush_idle.notify_all();
                }
                s.sched.submit_round();
            }
        }
    }
}

/// Copy-based flush (Section III-C): final index sync, then a single
/// streaming (non-temporal) copy of the data region out of the cache into
/// PMem — no reliance on cacheline replacement, whole XPLines filled.
fn flush_one(s: &Arc<Shared>, st: SubTable, index: Arc<SubIndex>) {
    let _ctx = cachekv_pmem::fault_context("cachekv::copy_flush");
    index.sync(&st); // strategy 3: sync when the table sealed
    let len = st.header().tail();
    if len > 0 {
        let base = s
            .alloc
            .alloc(len)
            .expect("flushed-table arena exhausted (raise dump threshold headroom)");
        let data = s.hier.load_vec(st.base + DATA_OFF, len as usize);
        s.hier.nt_store(base, &data);
        s.hier.sfence();
        s.obs.flushed_bytes.add(len);
        let gen = s.next_gen.fetch_add(1, Ordering::Relaxed);
        // Log and publish under one lock so a concurrent dump's log reset
        // cannot wipe this record before the table is in the survivor set.
        let mut m = s.mem.write();
        s.flushlog.log_flushed(gen, base, len);
        m.gen_regions.insert(gen, (base, len));
        m.flushed_bytes += len;
        s.flushed_total.fetch_add(len, Ordering::Relaxed);
        m.flushed.push(FlushedTable {
            gen,
            base,
            len,
            // The table is fully synced (immutable from here on), so the
            // fence/bloom filter is exact. DRAM-only: recovery rebuilds it
            // from the data region.
            filter: index.build_filter(),
            index: index.clone(),
        });
        if let Some(pos) = m.sealing.iter().position(|(t, _)| t.base == st.base) {
            m.sealing.remove(pos);
        }
    } else {
        let mut m = s.mem.write();
        if let Some(pos) = m.sealing.iter().position(|(t, _)| t.base == st.base) {
            m.sealing.remove(pos);
        }
    }
    s.pool.release(&st);
}

fn housekeeping_loop(s: &Arc<Shared>, rx: &Receiver<Job>, cores: &Arc<Vec<CoreRef>>) {
    // Exit only on `Job::Stop` (or disconnect), never on the `stop` flag:
    // `Scheduler::stop` blocking-sends one Stop per worker, and a worker
    // bailing early would leave a sibling's Stop undrained.
    while let Ok(job) = rx.recv() {
        match job {
            Job::Stop => return,
            Job::SyncCore { core, epoch } => {
                s.sched.note_dequeue();
                sync_core(s, cores, core, epoch);
            }
            Job::Round => {
                s.sched.note_dequeue();
                // Clear the dedup latch *before* the round runs so a
                // submit landing mid-round enqueues a fresh one (no lost
                // wakeups).
                s.sched.take_round();
                housekeep_round(s);
            }
        }
    }
}

/// Lazy index update (strategy 2): bring one core's sub-skiplist up to
/// date in the background. Stale jobs (the table already sealed — the
/// flusher does a final sync regardless) are dropped, and a busy core lock
/// is never contended: the job is abandoned and the nudge latch reopened.
fn sync_core(s: &Arc<Shared>, cores: &Arc<Vec<CoreRef>>, core: usize, epoch: u64) {
    if core >= cores.len() {
        return;
    }
    let latch = &s.core_sync[core];
    if latch.epoch.load(Ordering::Acquire) != epoch {
        s.obs.hk_sync_stale.inc();
        return;
    }
    cores[core].with(|m| {
        if let Some(cs) = m.try_lock() {
            if let Some(st) = &cs.st {
                cs.index.sync(st);
                s.obs.liu_syncs.inc();
            }
        }
    });
    latch.pending.store(false, Ordering::Release);
}

/// One housekeeping round: sub-skiplist compaction into the partitioned
/// global index, then the L0 dump once enough flushed bytes accumulate
/// (Section III-D). Serialized by `housekeep_lock`; heavy work happens
/// under *read* locks so front-end reads and flushes proceed concurrently.
fn housekeep_round(s: &Arc<Shared>) {
    let _serial = s.housekeep_lock.lock();
    // After a simulated power failure the device blackholes writes, so
    // copy-flushed regions may hold garbage; a real powered-off machine
    // does no housekeeping either.
    if s.hier.fault_tripped() {
        return;
    }
    s.obs.hk_rounds.inc();
    s.obs.hk_phases.op();
    if s.cfg.techniques.compaction {
        sc_round(s);
    }
    dump_if_due(s);
    // Writers parked at the backpressure gate re-check after every round.
    let _g = s.dump_mutex.lock();
    s.dump_done.notify_all();
}

/// One SC round: plan against the partitioned index, run each per-run
/// merge (in parallel when several runs are dirty), swap in the
/// reassembled index. Readers keep probing the old segment `Arc`s they
/// already hold throughout — the swap replaces the vector, not the data.
fn sc_round(s: &Arc<Shared>) {
    let src = s.obs.time_source;
    let round = src.begin();
    let mut sw = src.begin();
    let (merged_gens, plan) = {
        let m = s.mem.read();
        if m.flushed.is_empty() {
            return;
        }
        let merged_gens: Vec<u64> = m.flushed.iter().map(|ft| ft.gen).collect();
        let sources: Vec<TableEntries> = m
            .flushed
            .iter()
            .map(|ft| (ft.gen, ft.index.entries()))
            .collect();
        let plan = m
            .global
            .plan(sources, s.cfg.sc_segment_target_entries, s.cfg.sc_full_fold);
        (merged_gens, plan)
    };
    s.obs.hk_phases.record(HousekeepPhase::Plan, sw.lap());
    let (tasks, kept) = plan.into_parts();
    s.obs.sc_segments_kept.add(kept.len() as u64);
    let outputs = run_merge_tasks(s, tasks);
    s.obs.hk_phases.record(HousekeepPhase::Merge, sw.lap());
    let new_global = PartitionedIndex::assemble(kept, outputs);
    {
        let mut m = s.mem.write();
        // The fold kept only each key's newest version: a concurrent scan
        // pinned to an older sequence cut must detect this swap and retry.
        s.drop_epoch.fetch_add(1, Ordering::SeqCst);
        // Tables flushed after the snapshot stay pending for next round.
        m.flushed.retain(|ft| !merged_gens.contains(&ft.gen));
        s.obs.sc_segments.set(new_global.segments().len() as i64);
        s.obs.sc_index_bytes.set(new_global.approx_bytes() as i64);
        m.global = new_global;
    }
    s.obs.hk_phases.record(HousekeepPhase::Swap, sw.lap());
    s.obs.sc_merges.inc();
    s.obs.sc_merge_ns.record(round.elapsed_ns().max(1));
}

/// Execute a plan's merge tasks — the parallel unit of SC. When several
/// runs are dirty the tasks fan out over `housekeeping_threads` scoped
/// workers (tasks share nothing by construction). Never called from a put:
/// the `IN_PUT` tripwire counts (and debug-asserts against) any inline
/// execution.
fn run_merge_tasks(s: &Arc<Shared>, tasks: Vec<MergeTask>) -> Vec<(usize, Vec<Arc<Segment>>)> {
    if IN_PUT.with(|c| c.get()) {
        s.obs.hk_inline_merges.inc();
        debug_assert!(false, "puts must never run compaction merges inline");
    }
    if tasks.is_empty() {
        return Vec::new();
    }
    let target = s.cfg.sc_segment_target_entries;
    let run_one = |t: MergeTask| {
        let sw = s.obs.time_source.begin();
        s.obs.sc_merge_bytes.add(t.input_bytes());
        s.obs.sc_segments_merged.add(t.segments_in() as u64);
        let slot = t.slot();
        let segs_in = t.segments_in();
        let out = t.run(target);
        if out.len() > segs_in {
            s.obs.sc_splits.add((out.len() - segs_in) as u64);
        }
        s.obs.sc_segment_merge_ns.record(sw.elapsed_ns().max(1));
        (slot, out)
    };
    let workers = s.cfg.housekeeping_threads.max(1).min(tasks.len());
    if workers <= 1 {
        return tasks.into_iter().map(run_one).collect();
    }
    let queue = Mutex::new(tasks);
    let outputs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(t) = queue.lock().pop() else { return };
                let out = run_one(t);
                outputs.lock().push(out);
            });
        }
    });
    outputs.into_inner()
}

/// The L0 dump, once the flushed set outgrows its threshold. Any tables
/// not yet folded (SC disabled, or flushed since the last round) are
/// folded into a private dump snapshot first; the snapshot then streams
/// into the storage component segment-by-segment, so the dump's resident
/// set is one segment's entries, not the whole index.
fn dump_if_due(s: &Arc<Shared>) {
    if s.mem.read().flushed_bytes < s.cfg.dump_threshold_bytes {
        return;
    }
    let mut sw = s.obs.time_source.begin();
    let _ctx = cachekv_pmem::fault_context("cachekv::l0_dump");
    // Build the dump snapshot under a read lock (cheap: `Arc` clones plus
    // any straggler fold); `housekeep_lock` guarantees nobody else
    // replaces `global` concurrently.
    let (snapshot, dumped_gens, gen_regions) = {
        let m = s.mem.read();
        let sources: Vec<TableEntries> = m
            .flushed
            .iter()
            .map(|ft| (ft.gen, ft.index.entries()))
            .collect();
        let dumped: Vec<u64> = m.gen_regions.keys().copied().collect();
        let snapshot = if sources.iter().any(|(_, es)| !es.is_empty()) {
            let plan = m
                .global
                .plan(sources, s.cfg.sc_segment_target_entries, false);
            let (tasks, kept) = plan.into_parts();
            let outputs = run_merge_tasks(s, tasks);
            PartitionedIndex::assemble(kept, outputs)
        } else {
            m.global.clone()
        };
        (snapshot, dumped, m.gen_regions.clone())
    };
    // One table per `target` bytes; floored at the dump threshold so the
    // default shape stays "one table per dump" (the write-amp contract of
    // copy-based flush tests).
    let target = s
        .cfg
        .storage
        .table_target_bytes
        .max(s.cfg.dump_threshold_bytes);
    let mut stream = s.storage.ingest_stream(target);
    let mut pushed = 0u64;
    for seg in snapshot.segments() {
        for (_, _, gen, off) in seg.entries() {
            let (base, _) = gen_regions[&gen];
            let e = match try_read_record(&s.hier, base, off as u64) {
                Some(e) => e,
                // A trip can land between the entry check and here: the
                // region's blackholed copy never reached media. The dump's
                // own writes would be dropped anyway.
                None if s.hier.fault_tripped() => return,
                None => panic!("indexed record must decode"),
            };
            if let Err(err) = stream.push(e) {
                // A trip mid-dump blackholes the new table's bytes, which
                // then fail their read-back; abandon the dump — nothing
                // below would persist either.
                if s.hier.fault_tripped() {
                    return;
                }
                panic!("L0 ingest: {err:?}");
            }
            pushed += 1;
        }
    }
    if let Err(err) = stream.finish() {
        if s.hier.fault_tripped() {
            return;
        }
        panic!("L0 ingest: {err:?}");
    }
    if pushed > 0 {
        s.obs.l0_dumps.inc();
        s.obs.l0_dump_entries.add(pushed);
    }
    let mut m = s.mem.write();
    // The dump's fold kept only each key's newest version and the retired
    // regions below stop being readable: scans mid-capture must retry.
    s.drop_epoch.fetch_add(1, Ordering::SeqCst);
    // Concurrent flushes may have added new gens; only retire what we
    // dumped, and rebuild the flush log to cover the survivors.
    let mut retired = Vec::with_capacity(dumped_gens.len());
    for gen in &dumped_gens {
        if let Some((base, len)) = m.gen_regions.remove(gen) {
            retired.push((base, len));
            m.flushed_bytes -= len;
            s.flushed_total.fetch_sub(len, Ordering::Relaxed);
        }
    }
    m.flushed.retain(|ft| !dumped_gens.contains(&ft.gen));
    m.global = PartitionedIndex::new();
    s.obs.sc_segments.set(0);
    s.obs.sc_index_bytes.set(0);
    let (pool_base, pool_len) = s.pool.region();
    let survivors: Vec<(u64, u64, u64)> = m
        .flushed
        .iter()
        .map(|ft| (ft.gen, ft.base, ft.len))
        .collect();
    s.flushlog.reset_with(pool_base, pool_len, &survivors);
    drop(m);
    // Only return the dumped regions to the allocator once the new log is
    // published: until then the *old* log still references them, and a
    // crash would have recovery reading regions a concurrent flush had
    // already reused.
    for (base, len) in retired {
        s.alloc.free(base, len);
    }
    s.obs.hk_phases.record(HousekeepPhase::Dump, sw.lap());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Techniques;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{LatencyConfig, PmemConfig, PmemDevice};

    fn hier() -> Arc<Hierarchy> {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
        ));
        Arc::new(Hierarchy::new(dev, CacheConfig::paper()))
    }

    fn store(t: Techniques) -> CacheKv {
        CacheKv::create(hier(), CacheKvConfig::test_small().with_techniques(t))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        for t in [
            Techniques::pcsm(),
            Techniques::pcsm_liu(),
            Techniques::all(),
        ] {
            let db = store(t);
            db.put(b"alpha", b"1").unwrap();
            db.put(b"beta", b"2").unwrap();
            assert_eq!(
                db.get(b"alpha").unwrap(),
                Some(b"1".to_vec()),
                "{}",
                db.name()
            );
            db.delete(b"alpha").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), None, "{}", db.name());
            assert_eq!(
                db.get(b"beta").unwrap(),
                Some(b"2".to_vec()),
                "{}",
                db.name()
            );
            assert_eq!(db.get(b"gamma").unwrap(), None, "{}", db.name());
        }
    }

    #[test]
    fn overwrites_return_latest() {
        let db = store(Techniques::all());
        for round in 0..5u32 {
            for i in 0..200u32 {
                db.put(
                    format!("k{i:04}").as_bytes(),
                    format!("r{round}").as_bytes(),
                )
                .unwrap();
            }
        }
        assert_eq!(db.get(b"k0042").unwrap(), Some(b"r4".to_vec()));
    }

    #[test]
    fn fills_subtables_flushes_and_dumps_to_l0() {
        let db = store(Techniques::all());
        // 64 KiB sub-MemTables, 192 KiB dump threshold: ~60 B records need
        // thousands of writes to roll tables over and trigger the dump.
        for i in 0..30_000u32 {
            db.put(format!("key{i:08}").as_bytes(), &[7u8; 40]).unwrap();
        }
        db.quiesce();
        let tables: usize = db.storage().level_tables().iter().sum();
        assert!(
            tables > 0,
            "L0 dump happened: {:?}",
            db.storage().level_tables()
        );
        // Every key still readable from wherever it landed.
        for i in (0..30_000u32).step_by(997) {
            assert_eq!(
                db.get(format!("key{i:08}").as_bytes()).unwrap(),
                Some(vec![7u8; 40]),
                "key{i} lost"
            );
        }
        let (sealing, _, _, _) = db.memory_stats();
        assert_eq!(sealing, 0, "no tables stuck in sealing state");
    }

    #[test]
    fn read_your_writes_across_seal_boundary() {
        // Tiny subtables so a single writer rolls over several times.
        let cfg = CacheKvConfig {
            pool_bytes: 64 << 10,
            subtable_bytes: 8 << 10,
            min_subtable_bytes: 4 << 10,
            ..CacheKvConfig::test_small()
        };
        let db = CacheKv::create(hier(), cfg);
        for i in 0..2_000u32 {
            let key = format!("key{i:08}");
            db.put(key.as_bytes(), key.as_bytes()).unwrap();
            if i % 111 == 0 {
                // Read back a key written a while ago (different subtable
                // generation) and the one just written.
                let probe = format!("key{:08}", i / 2);
                assert_eq!(
                    db.get(probe.as_bytes()).unwrap(),
                    Some(probe.clone().into_bytes())
                );
                assert_eq!(
                    db.get(key.as_bytes()).unwrap(),
                    Some(key.clone().into_bytes())
                );
            }
        }
    }

    #[test]
    fn concurrent_writers_scale_across_cores() {
        let db = Arc::new(store(Techniques::all()));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let k = format!("t{t}k{i:06}");
                    db.put(k.as_bytes(), k.as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        db.quiesce();
        for t in 0..4u32 {
            for i in (0..2_000u32).step_by(397) {
                let k = format!("t{t}k{i:06}");
                assert_eq!(
                    db.get(k.as_bytes()).unwrap(),
                    Some(k.clone().into_bytes()),
                    "{k}"
                );
            }
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = Arc::new(store(Techniques::all()));
        for i in 0..500u32 {
            db.put(format!("warm{i:05}").as_bytes(), b"w").unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    db.put(format!("live{i:06}").as_bytes(), b"v").unwrap();
                    i += 1;
                }
            }));
        }
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let k = format!("warm{:05}", i % 500);
                    assert_eq!(db.get(k.as_bytes()).unwrap(), Some(b"w".to_vec()));
                    i += 1;
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn versions_resolve_across_components() {
        // Force cross-component versions: write v1 everywhere, dump to L0,
        // then write v2 and check v2 wins while v1-only keys still resolve.
        let db = store(Techniques::all());
        for i in 0..12_000u32 {
            db.put(format!("key{i:08}").as_bytes(), b"v1").unwrap();
        }
        db.quiesce();
        for i in 0..100u32 {
            db.put(format!("key{i:08}").as_bytes(), b"v2").unwrap();
        }
        assert_eq!(db.get(b"key00000042").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(db.get(b"key00011000").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn crash_recovery_preserves_all_committed_writes() {
        let h = hier();
        {
            let db = CacheKv::create(h.clone(), CacheKvConfig::test_small());
            for i in 0..8_000u32 {
                db.put(
                    format!("key{i:08}").as_bytes(),
                    format!("val{i}").as_bytes(),
                )
                .unwrap();
            }
            // No quiesce: crash with data spread over active sub-MemTables,
            // sealing tables, flushed tables, and possibly L0.
        }
        h.power_fail();
        let db = CacheKv::recover(h, CacheKvConfig::test_small()).unwrap();
        for i in (0..8_000u32).step_by(271) {
            assert_eq!(
                db.get(format!("key{i:08}").as_bytes()).unwrap(),
                Some(format!("val{i}").into_bytes()),
                "key{i} lost in crash"
            );
        }
        // And the store keeps working.
        db.put(b"post-crash", b"ok").unwrap();
        assert_eq!(db.get(b"post-crash").unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn crash_recovery_preserves_deletes() {
        let h = hier();
        {
            let db = CacheKv::create(h.clone(), CacheKvConfig::test_small());
            for i in 0..1_000u32 {
                db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
            }
            db.delete(b"k00007").unwrap();
        }
        h.power_fail();
        let db = CacheKv::recover(h, CacheKvConfig::test_small()).unwrap();
        assert_eq!(db.get(b"k00007").unwrap(), None, "tombstone survived");
        assert_eq!(db.get(b"k00008").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn compaction_builds_global_index() {
        let db = store(Techniques::all());
        for i in 0..8_000u32 {
            db.put(format!("key{i:08}").as_bytes(), &[1u8; 40]).unwrap();
        }
        db.quiesce();
        let (_, pending, global_keys, _) = db.memory_stats();
        assert_eq!(
            pending, 0,
            "all flushed tables folded into the global skiplist"
        );
        // Either everything was dumped to L0 (global reset) or the global
        // index holds keys; both are healthy post-quiesce states.
        let l0: usize = db.storage().level_tables().iter().sum();
        assert!(global_keys > 0 || l0 > 0);
    }

    #[test]
    fn pcsm_without_liu_reads_without_sync() {
        let db = store(Techniques::pcsm());
        for i in 0..500u32 {
            db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
            // Diligent mode: index always current, reads never trigger sync.
            assert_eq!(
                db.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
    }

    #[test]
    fn copy_based_flush_streams_whole_xplines() {
        let h = hier();
        let db = CacheKv::create(h.clone(), CacheKvConfig::test_small());
        h.reset_stats();
        for i in 0..20_000u32 {
            db.put(format!("key{i:08}").as_bytes(), &[7u8; 40]).unwrap();
        }
        db.quiesce();
        let s = h.pmem_stats();
        // The dominant device traffic is streaming copies + table builds:
        // sequential, so the XPBuffer combines 3 of every 4 cachelines.
        assert!(
            s.write_hit_ratio() > 0.6,
            "hit ratio {:.2}",
            s.write_hit_ratio()
        );
        assert!(
            s.write_amplification() < 1.5,
            "write amp {:.2}",
            s.write_amplification()
        );
    }
}
