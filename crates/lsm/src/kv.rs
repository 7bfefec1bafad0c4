//! Public store trait, errors, and internal entry encoding.

use std::fmt;

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Persistent space exhausted.
    OutOfSpace(String),
    /// A key or value exceeded a structural limit.
    TooLarge {
        what: &'static str,
        len: usize,
        max: usize,
    },
    /// Corrupt on-media structure detected (bad CRC, bad magic, ...).
    Corruption(String),
    /// The store has been shut down.
    Closed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfSpace(w) => write!(f, "out of persistent space: {w}"),
            Error::TooLarge { what, len, max } => write!(f, "{what} too large: {len} > {max}"),
            Error::Corruption(w) => write!(f, "corruption: {w}"),
            Error::Closed => write!(f, "store is closed"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Maximum key length (u16-encoded on media).
pub(crate) const MAX_KEY_LEN: usize = u16::MAX as usize;
/// Maximum value length (bounded well below the u32 media encoding so a
/// single entry always fits in a MemTable).
pub(crate) const MAX_VALUE_LEN: usize = 1 << 20;

/// What an internal entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A live value.
    Put,
    /// A tombstone shadowing older versions.
    Delete,
}

/// Pack a sequence number and kind into the 64-bit meta word stored with
/// every entry. Higher `meta` = newer (seq dominates; `Put` sorts above
/// `Delete` at equal seq, which never happens in practice).
#[inline]
pub fn pack_meta(seq: u64, kind: EntryKind) -> u64 {
    debug_assert!(seq < (1 << 63), "sequence overflow");
    (seq << 1) | matches!(kind, EntryKind::Put) as u64
}

/// Extract the sequence number from a meta word.
#[inline]
pub fn meta_seq(meta: u64) -> u64 {
    meta >> 1
}

/// Extract the kind from a meta word.
#[inline]
pub fn meta_kind(meta: u64) -> EntryKind {
    if meta & 1 != 0 {
        EntryKind::Put
    } else {
        EntryKind::Delete
    }
}

/// An owned internal entry (key, version metadata, value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub key: Vec<u8>,
    pub meta: u64,
    pub value: Vec<u8>,
}

impl Entry {
    /// The entry's kind.
    pub fn kind(&self) -> EntryKind {
        meta_kind(self.meta)
    }

    /// The entry's sequence number.
    pub fn seq(&self) -> u64 {
        meta_seq(self.meta)
    }
}

/// Internal ordering: key ascending, then meta (newness) *descending*, so a
/// forward scan yields the newest version of each key first — the LevelDB
/// internal-key convention.
#[inline]
pub fn internal_cmp(a_key: &[u8], a_meta: u64, b_key: &[u8], b_meta: u64) -> std::cmp::Ordering {
    a_key.cmp(b_key).then(b_meta.cmp(&a_meta))
}

/// Size of the fixed record header used in data regions and table blocks:
/// `[klen u16][vlen u32][meta u64]`.
pub const RECORD_HDR: usize = 14;

/// Append one record (`[klen][vlen][meta][key][value]`) to `buf`.
pub fn encode_record_into(buf: &mut Vec<u8>, key: &[u8], meta: u64, value: &[u8]) {
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(&meta.to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
}

/// Total encoded size of a record.
pub fn record_len(key_len: usize, value_len: usize) -> usize {
    RECORD_HDR + key_len + value_len
}

/// Decode the record starting at `data[pos..]`. Returns the entry and the
/// position just past it, or `None` if truncated or empty (zeroed space).
pub fn decode_record_at(data: &[u8], pos: usize) -> Option<(Entry, usize)> {
    if pos + RECORD_HDR > data.len() {
        return None;
    }
    let klen = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
    let vlen = u32::from_le_bytes(data[pos + 2..pos + 6].try_into().unwrap()) as usize;
    let meta = u64::from_le_bytes(data[pos + 6..pos + 14].try_into().unwrap());
    if klen == 0 || pos + RECORD_HDR + klen + vlen > data.len() {
        return None;
    }
    let key = data[pos + RECORD_HDR..pos + RECORD_HDR + klen].to_vec();
    let value = data[pos + RECORD_HDR + klen..pos + RECORD_HDR + klen + vlen].to_vec();
    Some((Entry { key, meta, value }, pos + RECORD_HDR + klen + vlen))
}

/// The user-facing store interface every system in this repository
/// implements: LevelDB-like [`crate::LsmTree`], the NoveLSM/SLM-DB baselines,
/// and CacheKV.
pub trait KvStore: Send + Sync {
    /// Insert or overwrite `key`.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Fetch the newest value for `key`, or `None` if absent/deleted.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Remove `key` (writes a tombstone).
    fn delete(&self, key: &[u8]) -> Result<()>;

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `start <= key < end`, sorted ascending, tombstones resolved away.
    /// An empty `end` means unbounded; pass `usize::MAX` for no limit.
    /// Stores without an ordered scan path keep the erroring default.
    fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let _ = (start, end, limit);
        Err(Error::Corruption(format!(
            "{}: scan is not supported by this store",
            self.name()
        )))
    }

    /// Human-readable system name (used by benchmark reports).
    fn name(&self) -> &'static str;

    /// Block until background work (flushes, index sync, compactions)
    /// started so far is complete. Benchmarks call this before measuring
    /// read phases; the default is a no-op for purely synchronous stores.
    fn quiesce(&self) {}

    /// JSON-serialized metrics snapshot (an `obs::StatsSnapshot` document)
    /// covering the store's device, cache, memory-component, and LSM layers.
    /// `None` for stores that are not instrumented; benchmark harnesses fall
    /// back to device/cache counters in that case.
    fn snapshot_json(&self) -> Option<String> {
        None
    }

    /// Capture a crash-consistent media image of the store's persistent
    /// state (one `Vec<u8>` per DIMM), equivalent to what would survive a
    /// power failure at this instant. A DIMM's image may be shorter than
    /// its capacity: the bytes past it are zero (`PmemDevice::from_media`
    /// restores them). The caller must guarantee no writes
    /// race the capture (e.g. call from the single committer thread at a
    /// group-commit round boundary); background housekeeping is quiesced
    /// internally. Used by replication snapshot bootstrap; stores without
    /// a capturable device keep the `None` default.
    fn capture_image(&self) -> Option<Vec<Vec<u8>>> {
        None
    }
}

#[cfg(test)]
impl Entry {
    /// Build a live entry.
    pub(crate) fn put(key: impl Into<Vec<u8>>, seq: u64, value: impl Into<Vec<u8>>) -> Self {
        Entry {
            key: key.into(),
            meta: pack_meta(seq, EntryKind::Put),
            value: value.into(),
        }
    }

    /// Build a tombstone.
    pub(crate) fn delete(key: impl Into<Vec<u8>>, seq: u64) -> Self {
        Entry {
            key: key.into(),
            meta: pack_meta(seq, EntryKind::Delete),
            value: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn meta_roundtrip() {
        let m = pack_meta(42, EntryKind::Put);
        assert_eq!(meta_seq(m), 42);
        assert_eq!(meta_kind(m), EntryKind::Put);
        let d = pack_meta(7, EntryKind::Delete);
        assert_eq!(meta_seq(d), 7);
        assert_eq!(meta_kind(d), EntryKind::Delete);
    }

    #[test]
    fn newer_sorts_first_for_same_key() {
        let old = pack_meta(1, EntryKind::Put);
        let new = pack_meta(2, EntryKind::Put);
        assert_eq!(internal_cmp(b"k", new, b"k", old), Ordering::Less);
        assert_eq!(internal_cmp(b"k", old, b"k", new), Ordering::Greater);
    }

    #[test]
    fn key_order_dominates() {
        let m = pack_meta(1, EntryKind::Put);
        assert_eq!(internal_cmp(b"a", m, b"b", m), Ordering::Less);
    }

    #[test]
    fn record_roundtrip() {
        let mut buf = Vec::new();
        encode_record_into(&mut buf, b"key", 42, b"value");
        encode_record_into(&mut buf, b"key2", 43, b"");
        let (e1, p1) = decode_record_at(&buf, 0).unwrap();
        assert_eq!(e1.key, b"key");
        assert_eq!(e1.meta, 42);
        assert_eq!(e1.value, b"value");
        let (e2, p2) = decode_record_at(&buf, p1).unwrap();
        assert_eq!(e2.key, b"key2");
        assert!(e2.value.is_empty());
        assert_eq!(p2, buf.len());
        assert!(decode_record_at(&buf, p2).is_none(), "end of data");
    }

    #[test]
    fn decode_zeroed_space_is_none() {
        let buf = vec![0u8; 64];
        assert!(decode_record_at(&buf, 0).is_none());
    }

    #[test]
    fn entry_constructors() {
        let e = Entry::put("k", 3, "v");
        assert_eq!(e.kind(), EntryKind::Put);
        assert_eq!(e.seq(), 3);
        let t = Entry::delete("k", 4);
        assert_eq!(t.kind(), EntryKind::Delete);
        assert!(t.value.is_empty());
    }
}
