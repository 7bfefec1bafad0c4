//! MemTable: the in-memory (or in-PMem, or in-cache) write buffer.

use crate::kv::{
    meta_kind, pack_meta, Entry, EntryKind, Error, Result, MAX_KEY_LEN, MAX_VALUE_LEN,
};
use crate::memspace::MemSpace;
use crate::skiplist::{SkipIter, SkipList};

/// Outcome of probing one component for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Key present with this value.
    Found(Vec<u8>),
    /// Key deleted at this component; stop probing older components.
    Tombstone,
    /// Not in this component; keep probing.
    NotFound,
}

/// A skiplist-backed write buffer with a byte budget.
pub struct MemTable<S: MemSpace> {
    list: SkipList<S>,
    budget: u64,
}

impl<S: MemSpace> MemTable<S> {
    /// Create a MemTable whose skiplist arena lives in `space`; it reports
    /// full once the arena has less than one max-sized entry of headroom or
    /// `budget` bytes have been consumed.
    pub(crate) fn new(space: S, budget: u64) -> Self {
        MemTable {
            list: SkipList::new(space),
            budget,
        }
    }

    /// Insert a live entry.
    pub(crate) fn put(&mut self, key: &[u8], seq: u64, value: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(Error::TooLarge {
                what: "key",
                len: key.len(),
                max: MAX_KEY_LEN,
            });
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(Error::TooLarge {
                what: "value",
                len: value.len(),
                max: MAX_VALUE_LEN,
            });
        }
        self.list.insert(key, pack_meta(seq, EntryKind::Put), value)
    }

    /// Insert a tombstone.
    pub(crate) fn delete(&mut self, key: &[u8], seq: u64) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(Error::TooLarge {
                what: "key",
                len: key.len(),
                max: MAX_KEY_LEN,
            });
        }
        self.list
            .insert(key, pack_meta(seq, EntryKind::Delete), b"")
    }

    /// Probe for the newest version of `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Lookup {
        match self.list.get_latest(key) {
            None => Lookup::NotFound,
            Some((meta, value)) => match meta_kind(meta) {
                EntryKind::Put => Lookup::Found(value),
                EntryKind::Delete => Lookup::Tombstone,
            },
        }
    }

    /// Whether the table should be rotated out.
    pub(crate) fn is_full(&self) -> bool {
        self.list.arena_used() >= self.budget
    }

    /// Sorted iteration (key asc, newest first) for flushing to an SSTable.
    pub(crate) fn iter(&self) -> SkipIter<'_, S> {
        self.list.iter()
    }

    /// Drain into owned entries (for table building).
    pub(crate) fn entries(&self) -> Vec<Entry> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memspace::DramSpace;

    fn mt(cap: usize) -> MemTable<DramSpace> {
        MemTable::new(DramSpace::new(cap), cap as u64 * 8 / 10)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut m = mt(1 << 14);
        m.put(b"a", 1, b"va").unwrap();
        assert_eq!(m.get(b"a"), Lookup::Found(b"va".to_vec()));
        assert_eq!(m.get(b"b"), Lookup::NotFound);
    }

    #[test]
    fn delete_shadows_put() {
        let mut m = mt(1 << 14);
        m.put(b"a", 1, b"va").unwrap();
        m.delete(b"a", 2).unwrap();
        assert_eq!(m.get(b"a"), Lookup::Tombstone);
    }

    #[test]
    fn later_put_shadows_delete() {
        let mut m = mt(1 << 14);
        m.delete(b"a", 1).unwrap();
        m.put(b"a", 2, b"back").unwrap();
        assert_eq!(m.get(b"a"), Lookup::Found(b"back".to_vec()));
    }

    #[test]
    fn fullness_tracks_budget() {
        let mut m = MemTable::new(DramSpace::new(1 << 14), 1024);
        assert!(!m.is_full());
        for seq in 0..40 {
            m.put(format!("key{seq:03}").as_bytes(), seq, &[7u8; 32])
                .unwrap();
        }
        assert!(m.is_full());
    }

    #[test]
    fn oversized_key_rejected() {
        let mut m = mt(1 << 14);
        let big = vec![0u8; MAX_KEY_LEN + 1];
        assert!(matches!(
            m.put(&big, 1, b"v"),
            Err(Error::TooLarge { what: "key", .. })
        ));
    }

    #[test]
    fn oversized_value_rejected() {
        let mut m = MemTable::new(DramSpace::new(4 << 20), 4 << 20);
        let big = vec![0u8; MAX_VALUE_LEN + 1];
        assert!(matches!(
            m.put(b"k", 1, &big),
            Err(Error::TooLarge { what: "value", .. })
        ));
    }

    #[test]
    fn entries_sorted_for_flush() {
        let mut m = mt(1 << 14);
        m.put(b"c", 1, b"3").unwrap();
        m.put(b"a", 2, b"1").unwrap();
        m.put(b"b", 3, b"2").unwrap();
        let keys: Vec<Vec<u8>> = m.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }
}
