//! Compaction: picking inputs and executing k-way merges.

use crate::kv::{internal_cmp, Entry, EntryKind};
use crate::sstable::TableHandle;
use crate::version::Version;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Level-size policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompactionPolicy {
    /// Number of L0 tables that triggers an L0→L1 compaction.
    pub(crate) l0_trigger: usize,
    /// Byte budget of L1.
    pub(crate) level_base_bytes: u64,
    /// Each deeper level is this many times larger.
    pub(crate) level_multiplier: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            l0_trigger: 4,
            level_base_bytes: 8 << 20,
            level_multiplier: 10,
        }
    }
}

impl CompactionPolicy {
    /// Byte budget of `level` (>= 1).
    pub(crate) fn level_limit(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        self.level_base_bytes * self.level_multiplier.pow(level as u32 - 1)
    }
}

/// A chosen compaction: merge `inputs_lo` (from `level`) with `inputs_hi`
/// (from `level + 1`) into new tables at `level + 1`.
pub(crate) struct CompactionJob {
    pub(crate) level: usize,
    pub(crate) inputs_lo: Vec<Arc<TableHandle>>,
    pub(crate) inputs_hi: Vec<Arc<TableHandle>>,
}

impl CompactionJob {
    /// Total input bytes.
    pub(crate) fn input_bytes(&self) -> u64 {
        self.inputs_lo
            .iter()
            .chain(&self.inputs_hi)
            .map(|t| t.meta.len)
            .sum()
    }
}

/// Decide whether `version` needs compacting, and what to compact.
pub(crate) fn pick_compaction(
    version: &Version,
    policy: &CompactionPolicy,
) -> Option<CompactionJob> {
    let num_levels = version.levels.len();
    // L0 pressure first (it blocks flushes in real systems).
    if version.levels[0].len() >= policy.l0_trigger && num_levels > 1 {
        let inputs_lo = version.levels[0].clone();
        let lo = inputs_lo.iter().map(|t| t.meta.smallest.clone()).min()?;
        let hi = inputs_lo.iter().map(|t| t.meta.largest.clone()).max()?;
        let inputs_hi = version.overlapping(1, &lo, &hi);
        return Some(CompactionJob {
            level: 0,
            inputs_lo,
            inputs_hi,
        });
    }
    for level in 1..num_levels - 1 {
        if version.level_bytes(level) > policy.level_limit(level) {
            // Rotate out the table with the smallest key (simple, fair).
            let t = version.levels[level].first()?.clone();
            let inputs_hi = version.overlapping(level + 1, &t.meta.smallest, &t.meta.largest);
            return Some(CompactionJob {
                level,
                inputs_lo: vec![t],
                inputs_hi,
            });
        }
    }
    None
}

struct HeapItem {
    entry: Entry,
    src: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert to pop smallest internal key.
        internal_cmp(
            &other.entry.key,
            other.entry.meta,
            &self.entry.key,
            self.entry.meta,
        )
    }
}

/// Merge sorted entry streams into one internally-ordered stream.
pub struct MergeIter<I: Iterator<Item = Entry>> {
    sources: Vec<I>,
    heap: BinaryHeap<HeapItem>,
}

impl<I: Iterator<Item = Entry>> MergeIter<I> {
    /// Build from per-source iterators (each already internally ordered).
    pub fn new(mut sources: Vec<I>) -> Self {
        let mut heap = BinaryHeap::new();
        for (src, it) in sources.iter_mut().enumerate() {
            if let Some(entry) = it.next() {
                heap.push(HeapItem { entry, src });
            }
        }
        MergeIter { sources, heap }
    }
}

impl<I: Iterator<Item = Entry>> Iterator for MergeIter<I> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let top = self.heap.pop()?;
        if let Some(next) = self.sources[top.src].next() {
            self.heap.push(HeapItem {
                entry: next,
                src: top.src,
            });
        }
        Some(top.entry)
    }
}

/// Collapse a merged stream: keep only the newest version of each user key;
/// optionally drop tombstones (legal only when writing the bottom level).
pub fn dedup_newest(merged: impl Iterator<Item = Entry>, drop_tombstones: bool) -> Vec<Entry> {
    let mut out: Vec<Entry> = Vec::new();
    let mut last_key: Option<Vec<u8>> = None;
    for e in merged {
        if last_key.as_deref() == Some(e.key.as_slice()) {
            continue; // older version of the key we just emitted/skipped
        }
        last_key = Some(e.key.clone());
        if drop_tombstones && e.kind() == EntryKind::Delete {
            continue;
        }
        out.push(e);
    }
    out
}

/// Split deduped entries into output tables of roughly `target_bytes` each.
pub(crate) fn split_outputs(entries: Vec<Entry>, target_bytes: u64) -> Vec<Vec<Entry>> {
    let mut outputs = Vec::new();
    let mut cur = Vec::new();
    let mut cur_bytes = 0u64;
    for e in entries {
        cur_bytes += (e.key.len() + e.value.len() + 14) as u64;
        cur.push(e);
        if cur_bytes >= target_bytes {
            outputs.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
    }
    if !cur.is_empty() {
        outputs.push(cur);
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::pack_meta;

    fn e(key: &str, seq: u64, val: &str) -> Entry {
        Entry::put(key, seq, val)
    }

    #[test]
    fn merge_two_sorted_streams() {
        let a = vec![e("a", 1, "1"), e("c", 2, "3")];
        let b = vec![e("b", 3, "2"), e("d", 4, "4")];
        let merged: Vec<Entry> = MergeIter::new(vec![a.into_iter(), b.into_iter()]).collect();
        let keys: Vec<&[u8]> = merged.iter().map(|x| x.key.as_slice()).collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"d"]);
    }

    #[test]
    fn merge_orders_same_key_newest_first() {
        let a = vec![e("k", 1, "old")];
        let b = vec![e("k", 9, "new")];
        let merged: Vec<Entry> = MergeIter::new(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(merged[0].value, b"new");
        assert_eq!(merged[1].value, b"old");
    }

    #[test]
    fn dedup_keeps_newest_only() {
        let merged = vec![e("k", 9, "new"), e("k", 1, "old"), e("z", 2, "zz")];
        let out = dedup_newest(merged.into_iter(), false);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, b"new");
        assert_eq!(out[1].key, b"z");
    }

    #[test]
    fn tombstones_kept_mid_tree_dropped_at_bottom() {
        let del = Entry {
            key: b"k".to_vec(),
            meta: pack_meta(9, EntryKind::Delete),
            value: vec![],
        };
        let merged = vec![del.clone(), e("k", 1, "old")];
        let kept = dedup_newest(merged.clone().into_iter(), false);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].kind(), EntryKind::Delete);
        let dropped = dedup_newest(merged.into_iter(), true);
        assert!(dropped.is_empty(), "tombstone and shadowed value both gone");
    }

    #[test]
    fn split_respects_target() {
        let entries: Vec<Entry> = (0..100)
            .map(|i| e(&format!("k{i:03}"), i, "0123456789"))
            .collect();
        let outs = split_outputs(entries, 200);
        assert!(outs.len() > 5);
        let total: usize = outs.iter().map(|o| o.len()).sum();
        assert_eq!(total, 100);
        // Outputs preserve global order.
        let flat: Vec<&Entry> = outs.iter().flatten().collect();
        assert!(flat.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn policy_limits_scale_by_multiplier() {
        let p = CompactionPolicy {
            l0_trigger: 4,
            level_base_bytes: 10,
            level_multiplier: 10,
        };
        assert_eq!(p.level_limit(1), 10);
        assert_eq!(p.level_limit(2), 100);
        assert_eq!(p.level_limit(3), 1000);
    }
}
