//! The range-partitioned global index (Section III-D, re-architected).
//!
//! The paper's sub-skiplist compaction (SC) folds flushed sub-skiplists
//! into one global skiplist. A monolithic global index makes every fold
//! cost O(total index size): each round re-streams the whole previous
//! index through the merge. This module partitions the global index into
//! an ordered set of fence-bounded, immutable [`Segment`]s instead, so a
//! round only merges the segments a flushed table's key range overlaps —
//! cost proportional to touched data — and independent segment merges run
//! in parallel on the housekeeping worker pool.
//!
//! Invariants:
//!
//! * Segments are disjoint and ordered: `seg[i].max() < seg[i+1].min()`.
//! * Segments are never empty and are immutable once built; the index swap
//!   replaces `Arc`s, so the lock-free read path keeps probing old
//!   segments it already holds.
//! * Everything here is DRAM-only. Recovery rebuilds the index from the
//!   persistent flushed-table regions, and chunking is deterministic: the
//!   same inputs rebuild the same fences and blooms.

use crate::cursor::take_keys;
use crate::index::{FilterVerdict, IndexedEntry, ReadFilter, TableEntries};
use cachekv_lsm::kv::internal_cmp;
use cachekv_lsm::{DramSpace, SkipList};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One live global-index record: `(key, meta, table generation, offset)`.
pub type GlobalEntry = (Vec<u8>, u64, u64, u32);

/// One immutable, fence-bounded slice of the global index.
pub struct Segment {
    list: SkipList<DramSpace>,
    entries: usize,
    key_bytes: usize,
    filter: ReadFilter,
}

impl Segment {
    /// Build from deduplicated entries in internal order. Callers never
    /// construct empty segments — the filter build requires keys.
    fn build(entries: Vec<GlobalEntry>) -> Arc<Segment> {
        debug_assert!(!entries.is_empty(), "segments are never empty");
        let arena: usize = entries.iter().map(|(k, ..)| k.len() + 48).sum::<usize>() + 4096;
        let mut list = SkipList::new(DramSpace::new(arena));
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(entries.len());
        let mut key_bytes = 0usize;
        for (key, meta, gen, off) in entries {
            let mut v = [0u8; 12];
            v[0..8].copy_from_slice(&gen.to_le_bytes());
            v[8..12].copy_from_slice(&off.to_le_bytes());
            list.insert(&key, meta, &v)
                .expect("segment arena sized from inputs");
            key_bytes += key.len();
            keys.push(key);
        }
        let filter = ReadFilter::from_sorted_keys(&keys).expect("non-empty segment");
        Arc::new(Segment {
            list,
            entries: keys.len(),
            key_bytes,
            filter,
        })
    }

    /// Number of live keys in this segment.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Always false — empty segments are never built.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Smallest key (inclusive fence).
    pub fn min(&self) -> &[u8] {
        self.filter.fences().0
    }

    /// Largest key (inclusive fence).
    pub fn max(&self) -> &[u8] {
        self.filter.fences().1
    }

    /// Fence + bloom pruning for reads.
    pub fn filter(&self) -> &ReadFilter {
        &self.filter
    }

    /// Newest `(meta, gen, off)` for `key`.
    pub fn get(&self, key: &[u8]) -> Option<(u64, u64, u32)> {
        self.list.get_latest(key).map(|(meta, v)| {
            let gen = u64::from_le_bytes(v[0..8].try_into().unwrap());
            let off = u32::from_le_bytes(v[8..12].try_into().unwrap());
            (meta, gen, off)
        })
    }

    /// All live entries in internal order (bounds one L0 dump stream step).
    pub fn entries(&self) -> Vec<GlobalEntry> {
        self.list
            .iter()
            .map(|e| {
                let gen = u64::from_le_bytes(e.value[0..8].try_into().unwrap());
                let off = u32::from_le_bytes(e.value[8..12].try_into().unwrap());
                (e.key, e.meta, gen, off)
            })
            .collect()
    }

    /// Entries at or below sequence `cut` of at most `max_keys` keys with
    /// `start <= key < end` (empty `end` = unbounded), in internal order,
    /// plus the next key past them (`None` when the segment or the range
    /// ran out first) — one scan round's share of this segment.
    pub fn range(
        &self,
        start: &[u8],
        end: &[u8],
        max_keys: usize,
        cut: u64,
    ) -> (Vec<GlobalEntry>, Option<Vec<u8>>) {
        let walk = self.list.iter_from(start).map(|e| {
            let gen = u64::from_le_bytes(e.value[0..8].try_into().unwrap());
            let off = u32::from_le_bytes(e.value[8..12].try_into().unwrap());
            (e.key, e.meta, (gen, off))
        });
        let (run, horizon) = take_keys(walk, end, cut, max_keys);
        let run = run
            .into_iter()
            .map(|(key, meta, (gen, off))| (key, meta, gen, off))
            .collect();
        (run, horizon)
    }

    /// Approximate resident bytes (keys + fixed per-entry value).
    fn approx_bytes(&self) -> u64 {
        (self.key_bytes + self.entries * 12) as u64
    }
}

/// What probing the partitioned index for a key concluded.
pub enum GlobalProbe {
    /// No segments at all.
    Empty,
    /// Key falls outside every segment's fences.
    FenceSkip,
    /// The owning segment's bloom filter rules the key out.
    BloomSkip,
    /// The owning segment was probed and holds no version of the key.
    Miss,
    /// Newest `(meta, gen, off)` for the key.
    Hit(u64, u64, u32),
}

/// The range-partitioned global index: ordered, disjoint segments behind
/// cheap-to-clone `Arc`s. Cloning the index (for a dump snapshot) copies
/// only the `Arc` vector.
#[derive(Clone, Default)]
pub struct PartitionedIndex {
    segments: Vec<Arc<Segment>>,
}

impl PartitionedIndex {
    /// An empty index (fresh store, or just after an L0 dump retired
    /// everything).
    pub fn new() -> PartitionedIndex {
        PartitionedIndex::default()
    }

    /// Total live keys across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Approximate resident bytes across all segments (the denominator of
    /// the "merge bytes ≪ index size" incrementality claim).
    pub fn approx_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.approx_bytes()).sum()
    }

    /// The ordered segment set.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Probe for `key`: binary-search the owning segment by fence, then
    /// fence/bloom gate it before touching its skiplist.
    pub fn probe(&self, key: &[u8]) -> GlobalProbe {
        if self.segments.is_empty() {
            return GlobalProbe::Empty;
        }
        // Last segment whose min <= key; keys below every fence fall out
        // at i == 0.
        let i = self.segments.partition_point(|s| s.min() <= key);
        if i == 0 {
            return GlobalProbe::FenceSkip;
        }
        let seg = &self.segments[i - 1];
        match seg.filter.check(key) {
            FilterVerdict::FenceSkip => GlobalProbe::FenceSkip,
            FilterVerdict::BloomSkip => GlobalProbe::BloomSkip,
            FilterVerdict::Probe => match seg.get(key) {
                Some((meta, gen, off)) => GlobalProbe::Hit(meta, gen, off),
                None => GlobalProbe::Miss,
            },
        }
    }

    /// Newest `(meta, gen, off)` for `key` (tests / tools).
    pub fn get(&self, key: &[u8]) -> Option<(u64, u64, u32)> {
        match self.probe(key) {
            GlobalProbe::Hit(meta, gen, off) => Some((meta, gen, off)),
            _ => None,
        }
    }

    /// All live entries in internal order (tests / tools).
    pub fn entries(&self) -> Vec<GlobalEntry> {
        self.segments.iter().flat_map(|s| s.entries()).collect()
    }

    /// Plan one SC round: route each source's entries (already in internal
    /// order) to the segment region they overlap, mark those regions dirty,
    /// pull undersized neighbours of dirty regions in (so split/merge churn
    /// converges back toward `target` entries per segment), and group
    /// maximal dirty runs into independent [`MergeTask`]s. Clean segments
    /// are *kept* — their `Arc`s move to the next index untouched, which is
    /// what makes round cost proportional to overlapped data.
    ///
    /// `full_fold` marks everything dirty — the monolithic-baseline mode
    /// used for A/B benchmarking.
    pub fn plan(&self, sources: Vec<TableEntries>, target: usize, full_fold: bool) -> MergePlan {
        let n = self.segments.len();
        if n == 0 {
            let sources: Vec<(u64, Vec<IndexedEntry>)> = sources
                .into_iter()
                .filter(|(_, es)| !es.is_empty())
                .collect();
            let tasks = if sources.is_empty() {
                Vec::new()
            } else {
                vec![MergeTask {
                    slot: 0,
                    segments: Vec::new(),
                    sources,
                }]
            };
            return MergePlan {
                tasks,
                kept: Vec::new(),
            };
        }
        // Route: peel each sorted source apart at the segment fences, last
        // region first, moving (never cloning) the entry slices.
        let mut region_sources: Vec<Vec<(u64, Vec<IndexedEntry>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (gen, mut entries) in sources {
            for i in (0..n).rev() {
                if entries.is_empty() {
                    break;
                }
                let slice = if i == 0 {
                    std::mem::take(&mut entries)
                } else {
                    let lower = self.segments[i].min();
                    let cut = entries.partition_point(|(k, ..)| k.as_slice() < lower);
                    entries.split_off(cut)
                };
                if !slice.is_empty() {
                    region_sources[i].push((gen, slice));
                }
            }
        }
        let mut dirty: Vec<bool> = region_sources.iter().map(|s| !s.is_empty()).collect();
        if full_fold {
            dirty.iter_mut().for_each(|d| *d = true);
        }
        // Fold undersized neighbours into adjacent dirty runs so repeated
        // narrow merges can't fragment the index into slivers.
        let target = target.max(1);
        let small = |s: &Arc<Segment>| s.len() < target / 2;
        for i in 1..n {
            if dirty[i - 1] && small(&self.segments[i]) {
                dirty[i] = true;
            }
        }
        for i in (0..n - 1).rev() {
            if dirty[i + 1] && small(&self.segments[i]) {
                dirty[i] = true;
            }
        }
        let mut tasks = Vec::new();
        let mut kept = Vec::new();
        let mut i = 0;
        while i < n {
            if !dirty[i] {
                kept.push((i, self.segments[i].clone()));
                i += 1;
                continue;
            }
            let slot = i;
            let mut segs = Vec::new();
            let mut srcs = Vec::new();
            while i < n && dirty[i] {
                segs.push(self.segments[i].clone());
                srcs.append(&mut region_sources[i]);
                i += 1;
            }
            tasks.push(MergeTask {
                slot,
                segments: segs,
                sources: srcs,
            });
        }
        MergePlan { tasks, kept }
    }

    /// Reassemble an index from a plan's kept segments plus each task's
    /// output, in fence order (tasks and kept slots never interleave out of
    /// order because runs are maximal and disjoint).
    pub fn assemble(
        kept: Vec<(usize, Arc<Segment>)>,
        outputs: Vec<(usize, Vec<Arc<Segment>>)>,
    ) -> PartitionedIndex {
        let mut slots: Vec<(usize, Vec<Arc<Segment>>)> = outputs;
        slots.extend(kept.into_iter().map(|(slot, s)| (slot, vec![s])));
        slots.sort_by_key(|(slot, _)| *slot);
        let segments: Vec<Arc<Segment>> = slots.into_iter().flat_map(|(_, v)| v).collect();
        debug_assert!(
            segments.windows(2).all(|w| w[0].max() < w[1].min()),
            "segments must stay disjoint and ordered"
        );
        PartitionedIndex { segments }
    }
}

/// One SC round's plan: independent merge tasks plus untouched segments.
pub struct MergePlan {
    /// Independent merges, each covering one maximal dirty run.
    pub tasks: Vec<MergeTask>,
    kept: Vec<(usize, Arc<Segment>)>,
}

impl MergePlan {
    /// True when nothing overlaps (no sources routed anywhere).
    pub fn is_noop(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Segments carried over without being touched.
    pub fn kept_count(&self) -> usize {
        self.kept.len()
    }

    /// Split into `(tasks, kept)` for execution + reassembly.
    pub fn into_parts(self) -> (Vec<MergeTask>, Vec<(usize, Arc<Segment>)>) {
        (self.tasks, self.kept)
    }
}

/// One independent per-run merge: the dirty segments of a maximal run plus
/// every source slice routed into it. Tasks share nothing and run in
/// parallel on the housekeeping workers.
pub struct MergeTask {
    /// Original index of the run's first region (orders reassembly).
    pub(crate) slot: usize,
    segments: Vec<Arc<Segment>>,
    sources: Vec<(u64, Vec<IndexedEntry>)>,
}

/// One k-way-merge stream head: orders by [`internal_cmp`] (key ascending,
/// newest version first), tie-broken by stream id for determinism.
struct MergeHead {
    key: Vec<u8>,
    meta: u64,
    gen: u64,
    off: u32,
    src: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        internal_cmp(&self.key, self.meta, &other.key, other.meta).then(self.src.cmp(&other.src))
    }
}

impl MergeTask {
    /// Reassembly slot (tests / scheduling).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// How many existing segments this task folds.
    pub fn segments_in(&self) -> usize {
        self.segments.len()
    }

    /// Bytes of index data this merge reads: folded segments plus routed
    /// source entries. Summed per round into `core.sc.merge_bytes` — the
    /// counter behind the "merge bytes ≪ index size" claim.
    pub fn input_bytes(&self) -> u64 {
        let seg: u64 = self.segments.iter().map(|s| s.approx_bytes()).sum();
        let src: u64 = self
            .sources
            .iter()
            .flat_map(|(_, es)| es.iter())
            .map(|(k, ..)| (k.len() + 12) as u64)
            .sum();
        seg + src
    }

    /// Execute: k-way heap merge of the folded segments and source slices
    /// (every stream already in internal order), dedup to the newest
    /// version per key, then chunk the output into near-equal segments of
    /// at most `target` entries. Chunk boundaries are a pure function of
    /// the merged entry count, so identical inputs rebuild identical
    /// fences — the recovery-determinism contract.
    pub fn run(self, target: usize) -> Vec<Arc<Segment>> {
        let MergeTask {
            segments, sources, ..
        } = self;
        type Stream<'a> = Box<dyn Iterator<Item = GlobalEntry> + 'a>;
        let mut streams: Vec<Stream<'_>> = Vec::with_capacity(segments.len() + sources.len());
        for seg in &segments {
            streams.push(Box::new(seg.list.iter().map(|e| {
                let gen = u64::from_le_bytes(e.value[0..8].try_into().unwrap());
                let off = u32::from_le_bytes(e.value[8..12].try_into().unwrap());
                (e.key, e.meta, gen, off)
            })));
        }
        for (gen, entries) in sources {
            streams.push(Box::new(
                entries.into_iter().map(move |(k, m, off)| (k, m, gen, off)),
            ));
        }
        let mut heap: BinaryHeap<Reverse<MergeHead>> = streams
            .iter_mut()
            .enumerate()
            .filter_map(|(src, s)| {
                s.next().map(|(key, meta, gen, off)| {
                    Reverse(MergeHead {
                        key,
                        meta,
                        gen,
                        off,
                        src,
                    })
                })
            })
            .collect();
        let mut out: Vec<GlobalEntry> = Vec::new();
        while let Some(Reverse(head)) = heap.pop() {
            if let Some((key, meta, gen, off)) = streams[head.src].next() {
                heap.push(Reverse(MergeHead {
                    key,
                    meta,
                    gen,
                    off,
                    src: head.src,
                }));
            }
            // Internal order yields the newest version of a key first; any
            // repeat of the key just emitted is stale.
            if out.last().is_some_and(|(k, ..)| *k == head.key) {
                continue;
            }
            out.push((head.key, head.meta, head.gen, head.off));
        }
        if out.is_empty() {
            return Vec::new();
        }
        let target = target.max(1);
        let chunks = out.len().div_ceil(target);
        let base = out.len() / chunks;
        let extra = out.len() % chunks;
        let mut result = Vec::with_capacity(chunks);
        let mut it = out.into_iter();
        for c in 0..chunks {
            let size = base + usize::from(c < extra);
            let chunk: Vec<GlobalEntry> = it.by_ref().take(size).collect();
            result.push(Segment::build(chunk));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_lsm::kv::{meta_seq, pack_meta, EntryKind};

    /// Fold `sources` into `idx` the way an SC round does: plan, run every
    /// task, reassemble.
    fn fold(idx: &PartitionedIndex, sources: Vec<TableEntries>, target: usize) -> PartitionedIndex {
        let plan = idx.plan(sources, target, false);
        let (tasks, kept) = plan.into_parts();
        let outputs = tasks
            .into_iter()
            .map(|t| {
                let slot = t.slot();
                (slot, t.run(target))
            })
            .collect();
        PartitionedIndex::assemble(kept, outputs)
    }

    fn src(seqs: &[(u32, u64)]) -> Vec<IndexedEntry> {
        let mut v: Vec<IndexedEntry> = seqs
            .iter()
            .map(|&(k, s)| {
                (
                    format!("m{k:03}").into_bytes(),
                    pack_meta(s, EntryKind::Put),
                    k * 16,
                )
            })
            .collect();
        v.sort_by(|a, b| internal_cmp(&a.0, a.1, &b.0, b.1));
        v
    }

    #[test]
    fn compaction_drops_stale_versions() {
        let older: Vec<IndexedEntry> = (0..10)
            .map(|i| {
                (
                    format!("k{i:02}").into_bytes(),
                    pack_meta(i + 1, EntryKind::Put),
                    i as u32 * 32,
                )
            })
            .collect();
        let newer: Vec<IndexedEntry> = (0..5)
            .map(|i| {
                (
                    format!("k{i:02}").into_bytes(),
                    pack_meta(i + 100, EntryKind::Put),
                    i as u32 * 32,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, older), (2, newer)], 1024);
        assert_eq!(g.len(), 10, "10 distinct keys survive");
        let (meta, gen, _) = g.get(b"k03").unwrap();
        assert_eq!(meta_seq(meta), 103);
        assert_eq!(gen, 2, "newest version points at the newer table");
        let (_, gen_old, _) = g.get(b"k07").unwrap();
        assert_eq!(gen_old, 1, "unshadowed key still points at gen 1");
    }

    #[test]
    fn incremental_fold_extends_previous_index() {
        let first: Vec<IndexedEntry> = vec![(b"a".to_vec(), pack_meta(1, EntryKind::Put), 0)];
        let g1 = fold(&PartitionedIndex::new(), vec![(1, first)], 1024);
        let second: Vec<IndexedEntry> = vec![
            (b"a".to_vec(), pack_meta(9, EntryKind::Put), 64),
            (b"b".to_vec(), pack_meta(5, EntryKind::Put), 0),
        ];
        let g2 = fold(&g1, vec![(2, second)], 1024);
        assert_eq!(g2.len(), 2);
        assert_eq!(g2.get(b"a").unwrap().1, 2, "newer gen wins");
        assert!(g2.get(b"b").is_some());
    }

    #[test]
    fn segments_build_filters() {
        let entries: Vec<IndexedEntry> = (0..50)
            .map(|i| {
                (
                    format!("g{i:03}").into_bytes(),
                    pack_meta(i + 1, EntryKind::Put),
                    i as u32 * 32,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, entries)], 1024);
        assert_eq!(g.segments().len(), 1);
        let f = g.segments()[0].filter();
        assert_eq!(f.fences(), (b"g000".as_slice(), b"g049".as_slice()));
        assert!(matches!(g.probe(b"g025"), GlobalProbe::Hit(..)));
        assert!(matches!(g.probe(b"h000"), GlobalProbe::FenceSkip));
        assert!(matches!(g.probe(b"a"), GlobalProbe::FenceSkip));
    }

    #[test]
    fn merge_matches_multiway_inputs() {
        let g1 = fold(
            &PartitionedIndex::new(),
            vec![(1, src(&[(0, 1), (1, 2), (2, 3)]))],
            1024,
        );
        let g2 = fold(
            &g1,
            vec![
                (2, src(&[(1, 10), (3, 11)])),
                (3, src(&[(0, 20), (2, 21), (4, 22)])),
            ],
            1024,
        );
        assert_eq!(g2.len(), 5);
        assert_eq!(meta_seq(g2.get(b"m000").unwrap().0), 20);
        assert_eq!(meta_seq(g2.get(b"m001").unwrap().0), 10);
        assert_eq!(meta_seq(g2.get(b"m002").unwrap().0), 21);
        assert_eq!(g2.get(b"m003").unwrap().1, 2, "gen follows newest version");
        assert_eq!(g2.get(b"m004").unwrap().1, 3);
    }

    #[test]
    fn large_merge_splits_into_target_sized_segments() {
        let entries: Vec<IndexedEntry> = (0..1000u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(i as u64 + 1, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, entries)], 128);
        assert_eq!(g.len(), 1000);
        assert_eq!(g.segments().len(), 1000usize.div_ceil(128));
        for s in g.segments() {
            assert!(s.len() <= 128, "segment over target: {}", s.len());
            assert!(s.len() >= 64, "sliver segment: {}", s.len());
        }
        // Disjoint + ordered, every key resolvable through its segment.
        for w in g.segments().windows(2) {
            assert!(w[0].max() < w[1].min());
        }
        for i in (0..1000u32).step_by(37) {
            assert!(g.get(format!("k{i:05}").as_bytes()).is_some(), "k{i}");
        }
    }

    #[test]
    fn narrow_source_touches_only_overlapped_segments() {
        let wide: Vec<IndexedEntry> = (0..1000u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(i as u64 + 1, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, wide)], 128);
        let n_segs = g.segments().len();
        assert!(n_segs >= 4);
        // A source confined to one segment's range.
        let hot: Vec<IndexedEntry> = (300..330u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(5000 + i as u64, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let plan = g.plan(vec![(2, hot)], 128, false);
        assert_eq!(plan.tasks.len(), 1, "one dirty run");
        assert!(
            plan.kept_count() >= n_segs - 2,
            "kept {} of {n_segs}",
            plan.kept_count()
        );
        let total_in: u64 = plan.tasks.iter().map(|t| t.input_bytes()).sum();
        assert!(
            total_in < g.approx_bytes() / 2,
            "merge bytes {total_in} not ≪ index bytes {}",
            g.approx_bytes()
        );
        let (tasks, kept) = plan.into_parts();
        let outputs = tasks.into_iter().map(|t| (t.slot(), t.run(128))).collect();
        let g2 = PartitionedIndex::assemble(kept, outputs);
        assert_eq!(g2.len(), 1000);
        assert_eq!(meta_seq(g2.get(b"k00310").unwrap().0), 5310);
        assert_eq!(meta_seq(g2.get(b"k00700").unwrap().0), 701);
    }

    #[test]
    fn sources_spanning_boundaries_route_to_each_region() {
        let wide: Vec<IndexedEntry> = (0..400u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(i as u64 + 1, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, wide)], 100);
        // A source spanning the whole space dirties everything but still
        // folds correctly.
        let overwrite: Vec<IndexedEntry> = (0..400u32)
            .step_by(3)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(1000 + i as u64, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let g2 = fold(&g, vec![(2, overwrite)], 100);
        assert_eq!(g2.len(), 400);
        assert_eq!(meta_seq(g2.get(b"k00003").unwrap().0), 1003);
        assert_eq!(meta_seq(g2.get(b"k00004").unwrap().0), 5);
    }

    #[test]
    fn full_fold_dirties_every_segment() {
        let wide: Vec<IndexedEntry> = (0..300u32)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    pack_meta(i as u64 + 1, EntryKind::Put),
                    i * 16,
                )
            })
            .collect();
        let g = fold(&PartitionedIndex::new(), vec![(1, wide)], 64);
        let plan = g.plan(vec![(2, src(&[]))], 64, true);
        assert_eq!(plan.kept_count(), 0, "full fold keeps nothing");
        assert_eq!(plan.tasks.len(), 1, "one run spanning everything");
    }

    #[test]
    fn deterministic_rebuild_produces_identical_fences() {
        let build = || {
            let a: Vec<IndexedEntry> = (0..500u32)
                .map(|i| {
                    (
                        format!("k{i:05}").into_bytes(),
                        pack_meta(i as u64 + 1, EntryKind::Put),
                        i * 16,
                    )
                })
                .collect();
            let b: Vec<IndexedEntry> = (100..200u32)
                .map(|i| {
                    (
                        format!("k{i:05}").into_bytes(),
                        pack_meta(900 + i as u64, EntryKind::Put),
                        i * 16,
                    )
                })
                .collect();
            let g = fold(&PartitionedIndex::new(), vec![(1, a)], 77);
            fold(&g, vec![(2, b)], 77)
        };
        let g1 = build();
        let g2 = build();
        let fences = |g: &PartitionedIndex| -> Vec<(Vec<u8>, Vec<u8>, usize)> {
            g.segments()
                .iter()
                .map(|s| (s.min().to_vec(), s.max().to_vec(), s.len()))
                .collect()
        };
        assert_eq!(fences(&g1), fences(&g2));
    }

    #[test]
    fn empty_plan_is_noop() {
        let g = PartitionedIndex::new();
        let plan = g.plan(vec![(1, Vec::new())], 64, false);
        assert!(plan.is_noop());
        let g2 = PartitionedIndex::assemble(plan.into_parts().1, Vec::new());
        assert!(g2.is_empty());
    }
}
