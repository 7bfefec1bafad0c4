//! The storage component of Figure 2: leveled tables + compaction.
//!
//! Every store in this repository (LevelDB-like reference, NoveLSM/SLM-DB
//! baselines, CacheKV) sits its memory component on top of one of these.
//! Sorted runs are ingested into `L0`; background (or inline) compaction
//! keeps level sizes within policy.

use crate::compaction::{
    dedup_newest, pick_compaction, split_outputs, CompactionJob, CompactionPolicy, MergeIter,
};
use crate::kv::{Entry, Result};
use crate::memtable::Lookup;
use crate::sstable::{build_table, TableOptions};
use crate::version::{VersionEdit, VersionSet};
use cachekv_cache::Hierarchy;
use cachekv_obs::{Counter, Histogram, MetricsExport, Registry};
use cachekv_storage::PmemAllocator;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Storage component configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Level sizing / trigger policy.
    pub(crate) policy: CompactionPolicy,
    /// Total number of levels (`n + 1` in the paper's Figure 2).
    pub(crate) num_levels: usize,
    /// Target size of compaction output tables.
    pub table_target_bytes: u64,
    /// SSTable encoding knobs.
    pub(crate) table_opts: TableOptions,
    /// Run compactions on a background thread (`true`, production) or
    /// inline inside `ingest` (`false`, deterministic tests).
    pub(crate) background: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            policy: CompactionPolicy::default(),
            num_levels: 4,
            table_target_bytes: 2 << 20,
            table_opts: TableOptions::default(),
            background: true,
        }
    }
}

impl StorageConfig {
    /// A small config for tests: tiny levels, inline compaction.
    pub fn test_small() -> Self {
        StorageConfig {
            policy: CompactionPolicy {
                l0_trigger: 2,
                level_base_bytes: 16 << 10,
                level_multiplier: 4,
            },
            num_levels: 4,
            table_target_bytes: 8 << 10,
            table_opts: TableOptions {
                block_size: 1024,
                bloom_bits_per_key: 10,
            },
            background: false,
        }
    }
}

/// Registered instruments for the storage component (paper's compaction /
/// write-amplification accounting).
struct LsmObs {
    registry: Registry,
    ingests: Arc<Counter>,
    ingest_entries: Arc<Counter>,
    ingest_bytes: Arc<Counter>,
    compactions: Arc<Counter>,
    compact_bytes_in: Arc<Counter>,
    compact_bytes_out: Arc<Counter>,
    compact_tables_out: Arc<Counter>,
    compaction_ns: Arc<Histogram>,
}

impl LsmObs {
    fn new() -> Self {
        let registry = Registry::new();
        LsmObs {
            ingests: registry.counter("lsm.ingests"),
            ingest_entries: registry.counter("lsm.ingest_entries"),
            ingest_bytes: registry.counter("lsm.ingest_bytes"),
            compactions: registry.counter("lsm.compactions"),
            compact_bytes_in: registry.counter("lsm.compact_bytes_in"),
            compact_bytes_out: registry.counter("lsm.compact_bytes_out"),
            compact_tables_out: registry.counter("lsm.compact_tables_out"),
            compaction_ns: registry.histogram("lsm.compaction_ns"),
            registry,
        }
    }
}

struct Shared {
    vset: VersionSet,
    cfg: StorageConfig,
    obs: LsmObs,
    /// Compactions queued or running.
    pending: Mutex<usize>,
    idle: Condvar,
    stop: AtomicBool,
    /// Largest sequence number stored in any table of the current version.
    /// Monotone: compactions only rewrite existing entries, so only
    /// [`StorageComponent::ingest`] can raise it. Readers use it to skip the
    /// level probe entirely when an in-memory hit already dominates
    /// everything persisted here.
    max_table_seq: AtomicU64,
}

/// Leveled persistent tables with compaction.
pub struct StorageComponent {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl StorageComponent {
    /// Create a fresh component; the manifest occupies
    /// `[manifest_base, manifest_base+manifest_cap)`.
    pub fn create(
        hier: Arc<Hierarchy>,
        alloc: Arc<PmemAllocator>,
        manifest_base: u64,
        manifest_cap: u64,
        cfg: StorageConfig,
    ) -> Self {
        let vset = VersionSet::create(hier, alloc, manifest_base, manifest_cap, cfg.num_levels);
        Self::from_vset(vset, cfg)
    }

    /// Recover a component from its manifest after a crash.
    pub fn recover(
        hier: Arc<Hierarchy>,
        alloc: Arc<PmemAllocator>,
        manifest_base: u64,
        manifest_cap: u64,
        cfg: StorageConfig,
    ) -> Result<Self> {
        let vset = VersionSet::recover(hier, alloc, manifest_base, manifest_cap, cfg.num_levels)?;
        Ok(Self::from_vset(vset, cfg))
    }

    fn from_vset(vset: VersionSet, cfg: StorageConfig) -> Self {
        let max_table_seq = vset
            .current()
            .levels
            .iter()
            .flatten()
            .map(|t| t.meta.max_seq)
            .max()
            .unwrap_or(0);
        let shared = Arc::new(Shared {
            vset,
            cfg,
            obs: LsmObs::new(),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            stop: AtomicBool::new(false),
            max_table_seq: AtomicU64::new(max_table_seq),
        });
        let worker = if shared.cfg.background {
            let s = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("lsm-compaction".into())
                    .spawn(move || compaction_loop(&s))
                    .expect("spawn compaction thread"),
            )
        } else {
            None
        };
        StorageComponent {
            shared,
            worker: Mutex::new(worker),
        }
    }

    /// The version set (sequence numbers, snapshots).
    pub fn versions(&self) -> &VersionSet {
        &self.shared.vset
    }

    /// Ingest one sorted run (a flushed memory component) as an L0 table.
    pub fn ingest(&self, entries: &[Entry]) -> Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let s = &self.shared;
        let id = s.vset.new_table_id();
        let meta = build_table(
            s.vset.hierarchy(),
            s.vset.allocator(),
            id,
            entries,
            &s.cfg.table_opts,
        )?;
        s.obs.ingests.inc();
        s.obs.ingest_entries.add(entries.len() as u64);
        s.obs.ingest_bytes.add(meta.len);
        s.max_table_seq.fetch_max(meta.max_seq, Ordering::SeqCst);
        s.vset
            .apply(vec![VersionEdit::AddTable { level: 0, meta }])?;
        self.maybe_compact();
        Ok(())
    }

    /// Begin a streaming L0 ingest: push entries (globally sorted across
    /// pushes) in arbitrary-sized batches, cut tables at `target_bytes`,
    /// and publish every table in a single version edit at
    /// [`IngestStream::finish`]. Lets a caller iterating a large source
    /// (e.g. an index dump walking segment-by-segment) avoid materializing
    /// the whole run in one `Vec`.
    pub fn ingest_stream(&self, target_bytes: u64) -> IngestStream<'_> {
        IngestStream {
            sc: self,
            target_bytes: target_bytes.max(1),
            buf: Vec::new(),
            buf_bytes: 0,
            edits: Vec::new(),
            max_seq: 0,
            entries: 0,
            bytes: 0,
        }
    }

    /// Largest sequence number persisted in any table. An in-memory hit
    /// whose sequence exceeds this dominates every entry the levels could
    /// return, so callers may skip [`StorageComponent::get_versioned`]. The
    /// counter is raised *before* the ingested table becomes visible, so a
    /// stale read here is always conservative (it only forces a probe).
    pub fn max_persisted_seq(&self) -> u64 {
        self.shared.max_table_seq.load(Ordering::SeqCst)
    }

    /// Probe the levels for `key`, newest first.
    pub fn get(&self, key: &[u8]) -> Lookup {
        let v = self.shared.vset.current();
        // L0: overlapping tables, newest (latest-flushed) first.
        for t in v.levels[0].iter().rev() {
            match t.get(key) {
                Lookup::NotFound => continue,
                hit => return hit,
            }
        }
        for level in v.levels[1..].iter() {
            // Non-overlapping: binary search by key range.
            let i = level.partition_point(|t| t.meta.largest.as_slice() < key);
            if i < level.len() && level[i].meta.smallest.as_slice() <= key {
                match level[i].get(key) {
                    Lookup::NotFound => {}
                    hit => return hit,
                }
            }
        }
        Lookup::NotFound
    }

    /// Probe the levels and return the newest `(meta, value)` for `key`.
    /// Within L0 versions may be spread over overlapping tables, so the
    /// maximum meta wins; deeper levels are strictly older.
    pub fn get_versioned(&self, key: &[u8]) -> Option<(u64, Vec<u8>)> {
        let v = self.shared.vset.current();
        let mut best: Option<(u64, Vec<u8>)> = None;
        for t in v.levels[0].iter() {
            if let Some((meta, value)) = t.get_versioned(key) {
                if best.as_ref().is_none_or(|(m, _)| meta > *m) {
                    best = Some((meta, value));
                }
            }
        }
        if best.is_some() {
            return best;
        }
        for level in v.levels[1..].iter() {
            let i = level.partition_point(|t| t.meta.largest.as_slice() < key);
            if i < level.len() && level[i].meta.smallest.as_slice() <= key {
                if let Some(hit) = level[i].get_versioned(key) {
                    return Some(hit);
                }
            }
        }
        None
    }

    /// Kick (or run) compaction if policy demands it.
    pub(crate) fn maybe_compact(&self) {
        let s = &self.shared;
        if s.cfg.background {
            let mut pending = s.pending.lock();
            *pending += 1;
            drop(pending);
            s.idle.notify_all();
        } else {
            while let Some(job) = pick_compaction(&s.vset.current(), &s.cfg.policy) {
                // After a simulated power failure writes are blackholed, so
                // freshly "written" tables read back as garbage; a powered
                // off machine compacts nothing.
                if s.vset.hierarchy().fault_tripped() {
                    break;
                }
                if let Err(e) = run_compaction(s, job) {
                    if s.vset.hierarchy().fault_tripped() {
                        break;
                    }
                    panic!("inline compaction failed: {e:?}");
                }
            }
        }
    }

    /// Block until no compaction work remains.
    pub fn wait_idle(&self) {
        let s = &self.shared;
        if !s.cfg.background {
            return;
        }
        let mut pending = s.pending.lock();
        while *pending > 0 {
            s.idle.wait(&mut pending);
        }
    }

    /// Table count at each level.
    pub fn level_tables(&self) -> Vec<usize> {
        let v = self.shared.vset.current();
        v.levels.iter().map(|l| l.len()).collect()
    }

    /// Export the component's metrics: ingest/compaction counters and
    /// histograms from the registry, plus per-level table/byte gauges
    /// sampled from the current version.
    pub fn export_metrics(&self) -> MetricsExport {
        let mut out = self.shared.obs.registry.export();
        let v = self.shared.vset.current();
        for (i, level) in v.levels.iter().enumerate() {
            out.insert_gauge(&format!("lsm.l{i}.tables"), level.len() as i64);
            out.insert_gauge(&format!("lsm.l{i}.bytes"), v.level_bytes(i) as i64);
        }
        out
    }
}

/// An in-progress streaming ingest (see [`StorageComponent::ingest_stream`]).
/// Entries must arrive in internal key order across all pushes. Dropping
/// the stream without `finish` abandons any uncut buffer *and* any already
/// built tables (their edits are never applied, so they stay invisible).
pub struct IngestStream<'a> {
    sc: &'a StorageComponent,
    target_bytes: u64,
    buf: Vec<Entry>,
    buf_bytes: u64,
    edits: Vec<VersionEdit>,
    max_seq: u64,
    entries: u64,
    bytes: u64,
}

impl IngestStream<'_> {
    /// Add one entry; cuts a table when the buffered bytes reach target.
    pub fn push(&mut self, e: Entry) -> Result<()> {
        self.buf_bytes += (e.key.len() + e.value.len() + 16) as u64;
        self.buf.push(e);
        if self.buf_bytes >= self.target_bytes {
            self.cut()?;
        }
        Ok(())
    }

    fn cut(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let s = &self.sc.shared;
        let id = s.vset.new_table_id();
        let meta = build_table(
            s.vset.hierarchy(),
            s.vset.allocator(),
            id,
            &self.buf,
            &s.cfg.table_opts,
        )?;
        self.entries += self.buf.len() as u64;
        self.bytes += meta.len;
        self.max_seq = self.max_seq.max(meta.max_seq);
        self.edits.push(VersionEdit::AddTable { level: 0, meta });
        self.buf.clear();
        self.buf_bytes = 0;
        Ok(())
    }

    /// Cut the remainder, publish every table in one version edit, and
    /// kick compaction. Returns how many tables were added. The sequence
    /// counter is raised *before* the tables become visible (same ordering
    /// contract as [`StorageComponent::ingest`]).
    pub fn finish(mut self) -> Result<usize> {
        self.cut()?;
        if self.edits.is_empty() {
            return Ok(0);
        }
        let s = &self.sc.shared;
        s.obs.ingests.inc();
        s.obs.ingest_entries.add(self.entries);
        s.obs.ingest_bytes.add(self.bytes);
        s.max_table_seq.fetch_max(self.max_seq, Ordering::SeqCst);
        let n = self.edits.len();
        s.vset.apply(std::mem::take(&mut self.edits))?;
        self.sc.maybe_compact();
        Ok(n)
    }
}

impl Drop for StorageComponent {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.idle.notify_all();
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

fn compaction_loop(s: &Shared) {
    loop {
        {
            let mut pending = s.pending.lock();
            while *pending == 0 && !s.stop.load(Ordering::SeqCst) {
                s.idle.wait(&mut pending);
            }
            if s.stop.load(Ordering::SeqCst) {
                return;
            }
        }
        // Drain: run until the tree satisfies policy, then clear pending.
        while let Some(job) = pick_compaction(&s.vset.current(), &s.cfg.policy) {
            if run_compaction(s, job).is_err() {
                break;
            }
            if s.stop.load(Ordering::SeqCst) {
                return;
            }
        }
        let mut pending = s.pending.lock();
        *pending = 0;
        s.idle.notify_all();
    }
}

fn run_compaction(s: &Shared, job: CompactionJob) -> Result<()> {
    let t0 = Instant::now();
    s.obs.compact_bytes_in.add(job.input_bytes());
    let out_level = job.level + 1;
    let bottom = out_level == s.cfg.num_levels - 1;
    let iters: Vec<_> = job
        .inputs_lo
        .iter()
        .chain(&job.inputs_hi)
        .map(|t| t.iter().collect::<Vec<Entry>>().into_iter())
        .collect();
    let deduped = dedup_newest(MergeIter::new(iters), bottom);
    let mut edits = Vec::new();
    for chunk in split_outputs(deduped, s.cfg.table_target_bytes) {
        let id = s.vset.new_table_id();
        let meta = build_table(
            s.vset.hierarchy(),
            s.vset.allocator(),
            id,
            &chunk,
            &s.cfg.table_opts,
        )?;
        s.obs.compact_bytes_out.add(meta.len);
        s.obs.compact_tables_out.inc();
        edits.push(VersionEdit::AddTable {
            level: out_level as u32,
            meta,
        });
    }
    for t in &job.inputs_lo {
        edits.push(VersionEdit::RemoveTable {
            level: job.level as u32,
            id: t.meta.id,
        });
    }
    for t in &job.inputs_hi {
        edits.push(VersionEdit::RemoveTable {
            level: out_level as u32,
            id: t.meta.id,
        });
    }
    let out = s.vset.apply(edits);
    if out.is_ok() {
        s.obs.compactions.inc();
        s.obs
            .compaction_ns
            .record((t0.elapsed().as_nanos() as u64).max(1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn setup(background: bool) -> StorageComponent {
        let dev = Arc::new(PmemDevice::new(
            PmemConfig::paper_scaled().with_latency(cachekv_pmem::LatencyConfig::zero()),
        ));
        let cap = dev.capacity();
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        let alloc = Arc::new(PmemAllocator::new(1 << 20, cap - (1 << 20)));
        let mut cfg = StorageConfig::test_small();
        cfg.background = background;
        StorageComponent::create(hier, alloc, 0, 1 << 20, cfg)
    }

    fn run(lo: usize, hi: usize, seq_base: u64) -> Vec<Entry> {
        (lo..hi)
            .map(|i| {
                Entry::put(
                    format!("k{i:06}"),
                    seq_base + i as u64,
                    format!("v{seq_base}-{i}"),
                )
            })
            .collect()
    }

    #[test]
    fn ingest_then_get() {
        let sc = setup(false);
        sc.ingest(&run(0, 100, 1)).unwrap();
        assert_eq!(sc.get(b"k000042"), Lookup::Found(b"v1-42".to_vec()));
        assert_eq!(sc.get(b"missing"), Lookup::NotFound);
    }

    #[test]
    fn newer_run_shadows_older() {
        let sc = setup(false);
        sc.ingest(&run(0, 50, 1_000)).unwrap();
        sc.ingest(&run(0, 50, 2_000)).unwrap();
        assert_eq!(sc.get(b"k000010"), Lookup::Found(b"v2000-10".to_vec()));
    }

    #[test]
    fn compaction_moves_data_down_and_preserves_reads() {
        let sc = setup(false);
        for round in 0..8u64 {
            sc.ingest(&run(0, 400, round * 1_000)).unwrap();
        }
        let tables = sc.level_tables();
        assert!(tables[0] < 2, "L0 drained by compaction: {tables:?}");
        assert!(
            tables.iter().skip(1).any(|&n| n > 0),
            "data moved deeper: {tables:?}"
        );
        // Latest round wins for every key.
        for i in (0..400).step_by(37) {
            let key = format!("k{i:06}");
            assert_eq!(
                sc.get(key.as_bytes()),
                Lookup::Found(format!("v7000-{i}").into_bytes())
            );
        }
    }

    #[test]
    fn tombstones_disappear_at_bottom_level() {
        let sc = setup(false);
        sc.ingest(&run(0, 100, 1)).unwrap();
        let dels: Vec<Entry> = (0..100)
            .map(|i| Entry::delete(format!("k{i:06}"), 1_000 + i as u64))
            .collect();
        sc.ingest(&dels).unwrap();
        // Force everything down with more churn.
        for round in 2..10u64 {
            sc.ingest(&run(500, 600, round * 1_000)).unwrap();
        }
        // The delete must win over the old value: either the tombstone is
        // still visible, or bottom-level compaction dropped both.
        let got = sc.get(b"k000050");
        assert!(
            matches!(got, Lookup::Tombstone | Lookup::NotFound),
            "deleted key resurfaced: {got:?}"
        );
    }

    #[test]
    fn background_compaction_quiesces() {
        let sc = setup(true);
        for round in 0..6u64 {
            sc.ingest(&run(0, 300, round * 1_000)).unwrap();
        }
        sc.wait_idle();
        assert!(sc.level_tables()[0] < 2);
        assert_eq!(sc.get(b"k000000"), Lookup::Found(b"v5000-0".to_vec()));
    }

    #[test]
    fn empty_ingest_is_noop() {
        let sc = setup(false);
        sc.ingest(&[]).unwrap();
        assert_eq!(sc.level_tables().iter().sum::<usize>(), 0);
    }

    #[test]
    fn metrics_account_for_ingest_and_compaction() {
        let sc = setup(false);
        for round in 0..8u64 {
            sc.ingest(&run(0, 400, round * 1_000)).unwrap();
        }
        let m = sc.export_metrics();
        assert_eq!(m.counters["lsm.ingests"], 8);
        assert_eq!(m.counters["lsm.ingest_entries"], 8 * 400);
        assert!(m.counters["lsm.ingest_bytes"] > 0);
        assert!(m.counters["lsm.compactions"] > 0);
        assert!(m.counters["lsm.compact_bytes_in"] > 0);
        assert!(m.counters["lsm.compact_bytes_out"] > 0);
        assert_eq!(
            m.histograms["lsm.compaction_ns"].count,
            m.counters["lsm.compactions"]
        );
        // Per-level gauges match the live view.
        for (i, &n) in sc.level_tables().iter().enumerate() {
            assert_eq!(m.gauges[&format!("lsm.l{i}.tables")], n as i64);
        }
    }
}
