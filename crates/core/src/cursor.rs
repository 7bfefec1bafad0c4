//! The merged range cursor: one sorted, tombstone-free stream over every
//! live source of the store.
//!
//! A scan sees the same components a get probes — active per-core
//! sub-MemTables, sealed sub-ImmMemTables, copy-flushed tables, the
//! compacted global index, and the LSM levels — but instead of racing them
//! for one key it must present a *consistent ordered view* of a whole
//! range. The store captures each source as a [`ScanSource`] (memory
//! components materialized under their pin guards, sstables as lazily
//! streamed Arc-pinned iterators) and this module heap-merges them in
//! internal order (key asc, sequence desc).
//!
//! Consistency comes from two rules:
//!
//! * **Snapshot sequence.** The store reads the global sequence counter
//!   once at scan start; every entry newer than that cut is dropped. Writes
//!   that completed before the scan began hold sequences at or below the
//!   cut, so the scan is exactly the committed prefix at its start time,
//!   no matter how long the merge runs or what lands concurrently.
//! * **Newest-first dedup.** Within the heap, versions of one key surface
//!   newest first (the same `internal_cmp` order the skiplists and tables
//!   store), so the first head per key is authoritative: a put yields its
//!   value, a tombstone suppresses the key, and every later version of the
//!   same key is stale and skipped.
//!
//! A scan pays for what it returns, not for what its sources hold: memory
//! sources are copied in **bounded capture rounds**. A [`Round`] covers
//! `[lo, end)` and still needs `n` items; every memory source copies only
//! the newest version at or below the cut of at most `n` distinct keys
//! ([`take_keys`]), and the next key it holds past them is its
//! **horizon** (a source that ran out has none). An active or sealing
//! table also decodes its whole unindexed suffix, which LIU lag keeps
//! short; sstables stay lazy and have no horizon. The horizon rule: below
//! the smallest horizon every source is complete, so the round merges and
//! emits live keys strictly below it. If that yields fewer than `n` items
//! and a horizon exists, the next round starts at that horizon for the
//! items still missing — each round advances past at least one key of the
//! source that set the horizon, so a scan always terminates.

use cachekv_lsm::kv::{internal_cmp, meta_kind, meta_seq, EntryKind};
use cachekv_lsm::sstable::OwnedTableIter;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One versioned candidate from a source: `(key, meta, value)`, where a
/// `None` value records a tombstone.
pub(crate) type VersionedEntry = (Vec<u8>, u64, Option<Vec<u8>>);

/// A bounded run of `(key, meta, payload)` entries and the source's
/// horizon: the first key past them, `None` when the source ran out.
pub(crate) type Bounded<T> = (Vec<(Vec<u8>, u64, T)>, Option<Vec<u8>>);

/// One memory source's share of a capture round, from a walk in internal
/// order starting at the round's `lo`: the newest version at or below
/// `cut` of at most `max_keys` distinct keys below `end` (empty =
/// unbounded), and the horizon past them (`None` also when the walk
/// reached `end`). Older versions in the same source can never win the
/// merge's newest-first dedup, so they are not copied. `max_keys` must be
/// at least 1 (the progress argument).
pub(crate) fn take_keys<T>(
    walk: impl Iterator<Item = (Vec<u8>, u64, T)>,
    end: &[u8],
    cut: u64,
    max_keys: usize,
) -> Bounded<T> {
    let mut run: Vec<(Vec<u8>, u64, T)> = Vec::new();
    for (key, meta, rest) in walk {
        if !end.is_empty() && key.as_slice() >= end {
            break;
        }
        if run.last().is_some_and(|(k, ..)| *k == key) {
            continue; // an older version of a key already taken
        }
        if run.len() == max_keys {
            return (run, Some(key));
        }
        if meta_seq(meta) <= cut {
            run.push((key, meta, rest));
        }
    }
    (run, None)
}

/// One bounded capture round: the window every source is asked for —
/// versions at or below `cut` of at most `n` keys in `[lo, end)` — and
/// the sources captured for it so far, with their smallest horizon.
pub(crate) struct Round<'a> {
    pub(crate) lo: &'a [u8],
    pub(crate) end: &'a [u8],
    pub(crate) n: usize,
    pub(crate) cut: u64,
    /// Versions copied out of memory sources this round.
    pub(crate) captured: usize,
    sources: Vec<ScanSource>,
    horizon: Option<Vec<u8>>,
}

impl<'a> Round<'a> {
    pub(crate) fn new(lo: &'a [u8], end: &'a [u8], n: usize, cut: u64) -> Self {
        Round {
            lo,
            end,
            n,
            cut,
            captured: 0,
            sources: Vec::new(),
            horizon: None,
        }
    }

    /// Add one memory source's run (in internal order, at or below the
    /// cut) and its horizon.
    pub(crate) fn mem(&mut self, run: Vec<VersionedEntry>, horizon: Option<Vec<u8>>) {
        self.captured += run.len();
        if let Some(h) = horizon {
            if self.horizon.as_ref().is_none_or(|min| h < *min) {
                self.horizon = Some(h);
            }
        }
        if !run.is_empty() {
            self.sources.push(ScanSource::Mem(run.into_iter()));
        }
    }

    /// Add a lazily streamed sstable, seeked to `lo`.
    pub(crate) fn table(&mut self, it: OwnedTableIter) {
        self.sources.push(ScanSource::Table(it));
    }

    /// Exclusive bound of what this round may emit: the smallest horizon
    /// of the memory sources added so far, else `end`.
    pub(crate) fn bound(&self) -> &[u8] {
        self.horizon.as_deref().unwrap_or(self.end)
    }

    /// Merge the round, appending at most `n` live pairs below
    /// [`Round::bound`] to `out`. Returns where the next round starts
    /// when this one fell short of `n` only because a source was cut off.
    pub(crate) fn merge(self, out: &mut Vec<(Vec<u8>, Vec<u8>)>) -> Option<Vec<u8>> {
        let before = out.len();
        let bound = self.horizon.as_deref().unwrap_or(self.end);
        out.extend(MergedCursor::new(self.lo, bound, self.cut, self.sources).take(self.n));
        self.horizon.filter(|_| out.len() - before < self.n)
    }
}

/// A sorted run of versioned entries feeding the merge heap.
pub(crate) enum ScanSource {
    /// Materialized memory-component run, already restricted to the
    /// round's window and in internal order (values copied out while the
    /// source was pinned).
    Mem(std::vec::IntoIter<VersionedEntry>),
    /// Lazily streamed sstable, seeked to the round's `lo` block. Range
    /// and snapshot filtering happen here as blocks decode.
    Table(OwnedTableIter),
}

impl ScanSource {
    /// Next in-range entry at or below the snapshot cut, or `None` when
    /// the source is exhausted (or past the end bound).
    fn next(&mut self, start: &[u8], end: &[u8], snapshot_seq: u64) -> Option<VersionedEntry> {
        match self {
            ScanSource::Mem(it) => it
                .find(|(_, meta, _)| meta_seq(*meta) <= snapshot_seq)
                .filter(|(key, ..)| end.is_empty() || key.as_slice() < end),
            ScanSource::Table(it) => loop {
                let e = it.next()?;
                if e.key.as_slice() < start {
                    continue; // pre-range entries of the seeked first block
                }
                if !end.is_empty() && e.key.as_slice() >= end {
                    return None; // tables are sorted: nothing further is in range
                }
                if meta_seq(e.meta) > snapshot_seq {
                    continue;
                }
                let value = match meta_kind(e.meta) {
                    EntryKind::Delete => None,
                    EntryKind::Put => Some(e.value),
                };
                return Some((e.key, e.meta, value));
            },
        }
    }
}

/// One source's current head in the merge heap. Ordered by internal order
/// then source index, so equal `(key, meta)` pairs pop deterministically.
struct Head {
    key: Vec<u8>,
    meta: u64,
    value: Option<Vec<u8>>,
    src: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        internal_cmp(&self.key, self.meta, &other.key, other.meta).then(self.src.cmp(&other.src))
    }
}

/// K-way merge over [`ScanSource`]s yielding live `(key, value)` pairs in
/// ascending key order: newest version per key, tombstones resolved away.
pub(crate) struct MergedCursor {
    start: Vec<u8>,
    end: Vec<u8>,
    snapshot_seq: u64,
    sources: Vec<ScanSource>,
    heap: BinaryHeap<Reverse<Head>>,
    last_key: Option<Vec<u8>>,
}

impl MergedCursor {
    pub(crate) fn new(
        start: &[u8],
        end: &[u8],
        snapshot_seq: u64,
        mut sources: Vec<ScanSource>,
    ) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (src, source) in sources.iter_mut().enumerate() {
            if let Some((key, meta, value)) = source.next(start, end, snapshot_seq) {
                heap.push(Reverse(Head {
                    key,
                    meta,
                    value,
                    src,
                }));
            }
        }
        MergedCursor {
            start: start.to_vec(),
            end: end.to_vec(),
            snapshot_seq,
            sources,
            heap,
            last_key: None,
        }
    }
}

impl Iterator for MergedCursor {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        loop {
            let Reverse(head) = self.heap.pop()?;
            if let Some((key, meta, value)) =
                self.sources[head.src].next(&self.start, &self.end, self.snapshot_seq)
            {
                self.heap.push(Reverse(Head {
                    key,
                    meta,
                    value,
                    src: head.src,
                }));
            }
            if self.last_key.as_deref() == Some(head.key.as_slice()) {
                continue; // stale older version of an emitted/suppressed key
            }
            self.last_key = Some(head.key.clone());
            match head.value {
                Some(v) => return Some((head.key, v)),
                None => continue, // newest version is a tombstone
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_lsm::kv::pack_meta;

    fn mem(entries: Vec<(&str, u64, EntryKind, Option<&str>)>) -> ScanSource {
        let run: Vec<VersionedEntry> = entries
            .into_iter()
            .map(|(k, seq, kind, v)| {
                (
                    k.as_bytes().to_vec(),
                    pack_meta(seq, kind),
                    v.map(|v| v.as_bytes().to_vec()),
                )
            })
            .collect();
        ScanSource::Mem(run.into_iter())
    }

    fn collect(cursor: MergedCursor) -> Vec<(String, String)> {
        cursor
            .map(|(k, v)| (String::from_utf8(k).unwrap(), String::from_utf8(v).unwrap()))
            .collect()
    }

    #[test]
    fn newest_version_wins_across_sources() {
        let a = mem(vec![("k1", 5, EntryKind::Put, Some("new"))]);
        let b = mem(vec![
            ("k1", 2, EntryKind::Put, Some("old")),
            ("k2", 3, EntryKind::Put, Some("live")),
        ]);
        let got = collect(MergedCursor::new(b"", b"", u64::MAX, vec![a, b]));
        assert_eq!(
            got,
            vec![("k1".into(), "new".into()), ("k2".into(), "live".into())]
        );
    }

    #[test]
    fn tombstone_suppresses_older_puts() {
        let a = mem(vec![("k1", 9, EntryKind::Delete, None)]);
        let b = mem(vec![
            ("k1", 4, EntryKind::Put, Some("dead")),
            ("k2", 1, EntryKind::Put, Some("v")),
        ]);
        let got = collect(MergedCursor::new(b"", b"", u64::MAX, vec![a, b]));
        assert_eq!(got, vec![("k2".into(), "v".into())]);
    }

    #[test]
    fn snapshot_cut_hides_newer_writes() {
        let a = mem(vec![
            ("k1", 9, EntryKind::Put, Some("future")),
            ("k1", 3, EntryKind::Put, Some("past")),
        ]);
        let got = collect(MergedCursor::new(b"", b"", 5, vec![a]));
        assert_eq!(got, vec![("k1".into(), "past".into())]);
    }

    #[test]
    fn snapshot_cut_hides_newer_tombstone() {
        let a = mem(vec![
            ("k1", 9, EntryKind::Delete, None),
            ("k1", 3, EntryKind::Put, Some("alive-at-cut")),
        ]);
        let got = collect(MergedCursor::new(b"", b"", 5, vec![a]));
        assert_eq!(got, vec![("k1".into(), "alive-at-cut".into())]);
    }

    #[test]
    fn empty_sources_yield_nothing() {
        let got = collect(MergedCursor::new(b"a", b"z", u64::MAX, Vec::new()));
        assert!(got.is_empty());
    }

    fn walk(entries: &[(&str, u64)]) -> std::vec::IntoIter<(Vec<u8>, u64, ())> {
        let run: Vec<_> = entries
            .iter()
            .map(|(k, seq)| (k.as_bytes().to_vec(), pack_meta(*seq, EntryKind::Put), ()))
            .collect();
        run.into_iter()
    }

    fn keys_of(run: &[(Vec<u8>, u64, ())]) -> Vec<(String, u64)> {
        run.iter()
            .map(|(k, meta, _)| (String::from_utf8(k.clone()).unwrap(), meta_seq(*meta)))
            .collect()
    }

    #[test]
    fn take_keys_copies_newest_at_cut_and_reports_the_horizon() {
        let src = [("a", 9), ("a", 4), ("a", 2), ("b", 8), ("c", 3), ("d", 1)];
        // Cut 5: "a" resolves to seq 4, "b" has nothing at or below the
        // cut, "c" is the second key; "d" is the horizon.
        let (run, horizon) = take_keys(walk(&src), b"", 5, 2);
        assert_eq!(keys_of(&run), vec![("a".into(), 4), ("c".into(), 3)]);
        assert_eq!(horizon.as_deref(), Some(b"d".as_slice()));
        // The end bound and an exhausted walk both leave no horizon.
        let (run, horizon) = take_keys(walk(&src), b"c", 5, 2);
        assert_eq!(keys_of(&run), vec![("a".into(), 4)]);
        assert!(horizon.is_none());
        let (run, horizon) = take_keys(walk(&src), b"", u64::MAX, 4);
        assert_eq!(run.len(), 4);
        assert!(horizon.is_none());
    }

    #[test]
    fn round_emits_below_the_smallest_horizon_and_asks_for_the_rest() {
        // Source a was cut off at horizon "c"; b is complete. The round
        // must not emit b's "d" (a may hold a newer "d" past its cut),
        // and falls short, so it names "c" as the next round's start.
        let mut round = Round::new(b"", b"", 3, u64::MAX);
        round.mem(
            vec![
                (b"a".to_vec(), pack_meta(5, EntryKind::Delete), None),
                (
                    b"b".to_vec(),
                    pack_meta(5, EntryKind::Put),
                    Some(b"1".to_vec()),
                ),
            ],
            Some(b"c".to_vec()),
        );
        round.mem(
            vec![
                (
                    b"a".to_vec(),
                    pack_meta(2, EntryKind::Put),
                    Some(b"old".to_vec()),
                ),
                (
                    b"d".to_vec(),
                    pack_meta(2, EntryKind::Put),
                    Some(b"2".to_vec()),
                ),
            ],
            None,
        );
        assert_eq!(round.bound(), b"c");
        assert_eq!(round.captured, 4);
        let mut out = Vec::new();
        let next = round.merge(&mut out);
        assert_eq!(out, vec![(b"b".to_vec(), b"1".to_vec())]);
        assert_eq!(next.as_deref(), Some(b"c".as_slice()));
        // A round that fills its quota needs no successor.
        let mut round = Round::new(b"", b"", 1, u64::MAX);
        round.mem(
            vec![(
                b"a".to_vec(),
                pack_meta(1, EntryKind::Put),
                Some(b"v".to_vec()),
            )],
            Some(b"b".to_vec()),
        );
        assert!(round.merge(&mut Vec::new()).is_none());
    }
}
