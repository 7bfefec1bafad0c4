//! Arena-backed, offset-addressed skiplist.
//!
//! Nodes live inside a [`MemSpace`] arena and reference each other by u32
//! offsets, so the *same* implementation runs in native DRAM (CacheKV's
//! sub-skiplists) and in simulated PMem (the baselines' MemTable indexes —
//! where every pointer chase pays simulated PMem latency and every pointer
//! update dirties a scattered cacheline, the write-amplification source of
//! the paper's Observation 1).
//!
//! Concurrency: single writer, externally synchronized (the paper's
//! baselines guard the shared MemTable with a mutex — that contention *is*
//! Observation 2; CacheKV's sub-skiplists are single-writer by design).
//! Duplicate user keys are allowed and ordered newest-first, LevelDB style.

use crate::kv::{internal_cmp, Entry, Error, Result};
use crate::memspace::MemSpace;

/// Maximum tower height.
pub(crate) const MAX_HEIGHT: usize = 12;
/// Branching factor: each level keeps ~1/4 of the one below.
const BRANCHING: u64 = 4;

/// Fixed node header: height(1) pad(1) klen(2) vlen(4) meta(8).
const HDR: u64 = 16;
/// Offset of the head node in the arena (0 is the null offset).
const HEAD_OFF: u64 = 8;

/// The skiplist. `S` decides where the bytes live.
pub struct SkipList<S: MemSpace> {
    space: S,
    /// Arena bump pointer.
    tail: u64,
    len: usize,
    /// xorshift64 state for tower heights (deterministic per seed).
    rng: u64,
}

struct NodeRef {
    off: u64,
    height: usize,
    key_len: usize,
    val_len: usize,
    meta: u64,
}

impl<S: MemSpace> SkipList<S> {
    /// Build an empty list in `space` (which must be zeroed, as fresh
    /// allocations are).
    pub fn new(space: S) -> Self {
        Self::with_seed(space, 0x9E37_79B9_7F4A_7C15)
    }

    /// Build with an explicit height-RNG seed (deterministic tests).
    pub(crate) fn with_seed(space: S, seed: u64) -> Self {
        let mut list = SkipList {
            space,
            tail: HEAD_OFF,
            len: 0,
            rng: seed | 1,
        };
        // Head node: max height, empty key, null next pointers.
        let head_size = HDR + (MAX_HEIGHT as u64) * 4;
        let mut hdr = [0u8; HDR as usize];
        hdr[0] = MAX_HEIGHT as u8;
        list.space.write(HEAD_OFF, &hdr);
        list.space.write(HEAD_OFF + HDR, &[0u8; MAX_HEIGHT * 4]);
        list.space.persist(HEAD_OFF, head_size as usize);
        list.tail = HEAD_OFF + head_size;
        list
    }

    /// Number of entries (including shadowed versions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arena bytes consumed.
    pub(crate) fn arena_used(&self) -> u64 {
        self.tail
    }

    /// The underlying space.
    pub fn space(&self) -> &S {
        &self.space
    }

    fn read_node(&self, off: u64) -> NodeRef {
        let mut hdr = [0u8; HDR as usize];
        self.space.read(off, &mut hdr);
        NodeRef {
            off,
            height: hdr[0] as usize,
            key_len: u16::from_le_bytes([hdr[2], hdr[3]]) as usize,
            val_len: u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize,
            meta: u64::from_le_bytes(hdr[8..16].try_into().unwrap()),
        }
    }

    fn node_key(&self, n: &NodeRef) -> Vec<u8> {
        let mut k = vec![0u8; n.key_len];
        self.space.read(n.off + HDR + (n.height as u64) * 4, &mut k);
        k
    }

    fn node_value(&self, n: &NodeRef) -> Vec<u8> {
        let mut v = vec![0u8; n.val_len];
        self.space.read(
            n.off + HDR + (n.height as u64) * 4 + n.key_len as u64,
            &mut v,
        );
        v
    }

    fn next(&self, node_off: u64, height_of_node: usize, level: usize) -> u64 {
        debug_assert!(level < height_of_node);
        let _ = height_of_node;
        self.space.read_u32(node_off + HDR + (level as u64) * 4) as u64
    }

    fn set_next(&self, node_off: u64, level: usize, target: u64) {
        debug_assert!(target <= u32::MAX as u64);
        self.space.write(
            node_off + HDR + (level as u64) * 4,
            &(target as u32).to_le_bytes(),
        );
        self.space.persist(node_off + HDR + (level as u64) * 4, 4);
    }

    fn random_height(&mut self) -> usize {
        // xorshift64*
        let mut h = 1;
        loop {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if h >= MAX_HEIGHT || !self.rng.is_multiple_of(BRANCHING) {
                break;
            }
            h += 1;
        }
        h
    }

    /// Find, per level, the last node strictly before `(key, meta)`.
    fn find_preds(&self, key: &[u8], meta: u64) -> [u64; MAX_HEIGHT] {
        let mut preds = [HEAD_OFF; MAX_HEIGHT];
        let mut cur = HEAD_OFF;
        let mut cur_height = MAX_HEIGHT;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let nxt = self.next(cur, cur_height, level);
                if nxt == 0 {
                    break;
                }
                let node = self.read_node(nxt);
                let nkey = self.node_key(&node);
                if internal_cmp(&nkey, node.meta, key, meta) == std::cmp::Ordering::Less {
                    cur = nxt;
                    cur_height = node.height;
                } else {
                    break;
                }
            }
            preds[level] = cur;
        }
        preds
    }

    /// Insert `(key, meta, value)`. Duplicate `(key, meta)` pairs are
    /// rejected as corruption (sequence numbers are unique by construction).
    pub fn insert(&mut self, key: &[u8], meta: u64, value: &[u8]) -> Result<()> {
        let height = self.random_height();
        let node_size = HDR + (height as u64) * 4 + key.len() as u64 + value.len() as u64;
        if self.tail + node_size > self.space.capacity() {
            return Err(Error::OutOfSpace(format!(
                "skiplist arena: need {node_size} bytes, {} free",
                self.space.capacity() - self.tail
            )));
        }
        let preds = self.find_preds(key, meta);
        let off = self.tail;
        self.tail += node_size;

        // Write the node body first...
        let mut hdr = [0u8; HDR as usize];
        hdr[0] = height as u8;
        hdr[2..4].copy_from_slice(&(key.len() as u16).to_le_bytes());
        hdr[4..8].copy_from_slice(&(value.len() as u32).to_le_bytes());
        hdr[8..16].copy_from_slice(&meta.to_le_bytes());
        self.space.write(off, &hdr);
        let mut nexts = vec![0u8; height * 4];
        for level in 0..height {
            let succ = self.next(preds[level], MAX_HEIGHT, level) as u32;
            nexts[level * 4..level * 4 + 4].copy_from_slice(&succ.to_le_bytes());
        }
        self.space.write(off + HDR, &nexts);
        self.space.write(off + HDR + (height as u64) * 4, key);
        self.space
            .write(off + HDR + (height as u64) * 4 + key.len() as u64, value);
        self.space.persist(off, node_size as usize);

        // ...then publish it bottom-up (crash-safe link order).
        for (level, &pred) in preds.iter().enumerate().take(height) {
            self.set_next(pred, level, off);
        }
        self.len += 1;
        Ok(())
    }

    /// Newest version at or below `max_meta` for `key`:
    /// `(meta, value bytes)`.
    pub fn get_latest(&self, key: &[u8]) -> Option<(u64, Vec<u8>)> {
        let preds = self.find_preds(key, u64::MAX);
        let nxt = self.next(preds[0], MAX_HEIGHT, 0);
        if nxt == 0 {
            return None;
        }
        let node = self.read_node(nxt);
        if self.node_key(&node) == key {
            Some((node.meta, self.node_value(&node)))
        } else {
            None
        }
    }

    /// Iterate all entries in internal order (key asc, newest first).
    pub fn iter(&self) -> SkipIter<'_, S> {
        SkipIter {
            list: self,
            cur: self.next(HEAD_OFF, MAX_HEIGHT, 0),
        }
    }

    /// Iterate in internal order starting at the first entry whose key is
    /// `>= key`. Seeking with `meta = u64::MAX` works because internal
    /// order is key asc, meta desc: `(key, u64::MAX)` sorts before every
    /// real version of `key`, so the successor of its predecessors is the
    /// first node with `node_key >= key`.
    pub fn iter_from(&self, key: &[u8]) -> SkipIter<'_, S> {
        let preds = self.find_preds(key, u64::MAX);
        SkipIter {
            list: self,
            cur: self.next(preds[0], MAX_HEIGHT, 0),
        }
    }

    /// Iterate `(key, meta)` pairs in internal order without materializing
    /// values — for bloom/fence construction over large lists.
    pub fn iter_keys(&self) -> SkipKeyIter<'_, S> {
        SkipKeyIter {
            list: self,
            cur: self.next(HEAD_OFF, MAX_HEIGHT, 0),
        }
    }

    /// Sanity check: entries are in strict internal order (tests/fuzzing).
    pub fn check_ordered(&self) -> bool {
        let mut prev: Option<(Vec<u8>, u64)> = None;
        for e in self.iter() {
            if let Some((pk, pm)) = &prev {
                if internal_cmp(pk, *pm, &e.key, e.meta) != std::cmp::Ordering::Less {
                    return false;
                }
            }
            prev = Some((e.key, e.meta));
        }
        true
    }
}

/// Forward iterator over a skiplist.
pub struct SkipIter<'a, S: MemSpace> {
    list: &'a SkipList<S>,
    cur: u64,
}

impl<S: MemSpace> Iterator for SkipIter<'_, S> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        if self.cur == 0 {
            return None;
        }
        let node = self.list.read_node(self.cur);
        let key = self.list.node_key(&node);
        let value = self.list.node_value(&node);
        self.cur = self.list.next(node.off, node.height, 0);
        Some(Entry {
            key,
            meta: node.meta,
            value,
        })
    }
}

/// Forward iterator over `(key, meta)` pairs only.
pub struct SkipKeyIter<'a, S: MemSpace> {
    list: &'a SkipList<S>,
    cur: u64,
}

impl<S: MemSpace> Iterator for SkipKeyIter<'_, S> {
    type Item = (Vec<u8>, u64);

    fn next(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.cur == 0 {
            return None;
        }
        let node = self.list.read_node(self.cur);
        let key = self.list.node_key(&node);
        self.cur = self.list.next(node.off, node.height, 0);
        Some((key, node.meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{pack_meta, EntryKind};
    use crate::memspace::DramSpace;

    fn list(cap: usize) -> SkipList<DramSpace> {
        SkipList::new(DramSpace::new(cap))
    }

    #[test]
    fn insert_and_get() {
        let mut l = list(1 << 16);
        l.insert(b"bob", pack_meta(1, EntryKind::Put), b"1")
            .unwrap();
        l.insert(b"alice", pack_meta(2, EntryKind::Put), b"2")
            .unwrap();
        let (_, v) = l.get_latest(b"alice").unwrap();
        assert_eq!(v, b"2");
        assert!(l.get_latest(b"carol").is_none());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn newest_version_wins() {
        let mut l = list(1 << 16);
        l.insert(b"k", pack_meta(1, EntryKind::Put), b"old")
            .unwrap();
        l.insert(b"k", pack_meta(5, EntryKind::Put), b"new")
            .unwrap();
        l.insert(b"k", pack_meta(3, EntryKind::Put), b"mid")
            .unwrap();
        let (meta, v) = l.get_latest(b"k").unwrap();
        assert_eq!(v, b"new");
        assert_eq!(crate::kv::meta_seq(meta), 5);
    }

    #[test]
    fn tombstone_is_visible_as_latest() {
        let mut l = list(1 << 16);
        l.insert(b"k", pack_meta(1, EntryKind::Put), b"v").unwrap();
        l.insert(b"k", pack_meta(2, EntryKind::Delete), b"")
            .unwrap();
        let (meta, _) = l.get_latest(b"k").unwrap();
        assert_eq!(crate::kv::meta_kind(meta), EntryKind::Delete);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut l = list(1 << 18);
        let keys = [b"d", b"a", b"c", b"b", b"e"];
        for (i, k) in keys.iter().enumerate() {
            l.insert(*k, pack_meta(i as u64, EntryKind::Put), b"v")
                .unwrap();
        }
        let got: Vec<Vec<u8>> = l.iter().map(|e| e.key).collect();
        assert_eq!(
            got,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec()
            ]
        );
        assert!(l.check_ordered());
    }

    #[test]
    fn many_random_inserts_stay_ordered() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = list(1 << 20);
        for seq in 0..2000u64 {
            let key = format!("key{:05}", rng.gen_range(0..500));
            l.insert(key.as_bytes(), pack_meta(seq, EntryKind::Put), b"payload")
                .unwrap();
        }
        assert_eq!(l.len(), 2000);
        assert!(l.check_ordered());
    }

    #[test]
    fn arena_exhaustion_is_an_error() {
        let mut l = list(256);
        let mut filled = false;
        for seq in 0..100 {
            if l.insert(b"key", pack_meta(seq, EntryKind::Put), &[0u8; 32])
                .is_err()
            {
                filled = true;
                break;
            }
        }
        assert!(filled, "small arena must eventually refuse inserts");
    }

    #[test]
    fn empty_value_roundtrip() {
        let mut l = list(1 << 12);
        l.insert(b"k", pack_meta(1, EntryKind::Put), b"").unwrap();
        let (_, v) = l.get_latest(b"k").unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn get_between_existing_keys_misses() {
        let mut l = list(1 << 12);
        l.insert(b"a", pack_meta(1, EntryKind::Put), b"1").unwrap();
        l.insert(b"c", pack_meta(2, EntryKind::Put), b"3").unwrap();
        assert!(l.get_latest(b"b").is_none());
    }

    #[test]
    fn iter_from_seeks_to_first_key_at_or_after() {
        let mut l = list(1 << 18);
        for (seq, k) in [b"b", b"d", b"f"].iter().enumerate() {
            l.insert(*k, pack_meta(seq as u64 + 1, EntryKind::Put), b"v")
                .unwrap();
        }
        // Multiple versions of "d": iter_from must start at the newest.
        l.insert(b"d", pack_meta(9, EntryKind::Put), b"v9").unwrap();

        let keys = |start: &[u8]| -> Vec<Vec<u8>> { l.iter_from(start).map(|e| e.key).collect() };
        assert_eq!(
            keys(b"a"),
            vec![b"b".to_vec(), b"d".to_vec(), b"d".to_vec(), b"f".to_vec()]
        );
        assert_eq!(
            keys(b"c"),
            vec![b"d".to_vec(), b"d".to_vec(), b"f".to_vec()]
        );
        assert_eq!(keys(b"f"), vec![b"f".to_vec()]);
        assert!(keys(b"g").is_empty());
        // Exact-key seek lands on the newest version first.
        let first = l.iter_from(b"d").next().unwrap();
        assert_eq!(crate::kv::meta_seq(first.meta), 9);
        // Empty start key walks the whole list.
        assert_eq!(keys(b""), keys(b"a"));
    }

    #[test]
    fn deterministic_heights_with_seed() {
        let mut a = SkipList::with_seed(DramSpace::new(1 << 14), 42);
        let mut b = SkipList::with_seed(DramSpace::new(1 << 14), 42);
        for seq in 0..50 {
            a.insert(
                format!("k{seq}").as_bytes(),
                pack_meta(seq, EntryKind::Put),
                b"v",
            )
            .unwrap();
            b.insert(
                format!("k{seq}").as_bytes(),
                pack_meta(seq, EntryKind::Put),
                b"v",
            )
            .unwrap();
        }
        assert_eq!(a.arena_used(), b.arena_used());
    }
}
