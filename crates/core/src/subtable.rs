//! The sub-MemTable: a slot of the CAT-locked pool (Section III-A).
//!
//! Each slot starts with one cacheline of metadata whose first word packs
//! the paper's three consistency-critical fields —
//!
//! ```text
//!   63                    26 25 24 23                    0
//!  +------------------------+-----+-----------------------+
//!  |  table counter (38 b)  |state|   tail pointer (24 b) |
//!  +------------------------+-----+-----------------------+
//! ```
//!
//! — updated with a single 64-bit compare-and-swap so a crash can never
//! observe a counter/tail mismatch. The second word holds the remaining-
//! space field. KV records are appended to the data region *before* the CAS
//! publishes them; records beyond the published tail are invisible.

use cachekv_cache::Hierarchy;
use cachekv_lsm::{encode_record_into, record_len, Error, Result};
use std::sync::Arc;

/// Sub-MemTable states (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Unassigned, ready for a core.
    Free = 0,
    /// Owned by a core, accepting appends.
    Allocated = 1,
    /// Sealed, awaiting copy-based flush.
    Immutable = 2,
}

impl SlotState {
    fn from_bits(b: u64) -> SlotState {
        match b {
            0 => SlotState::Free,
            1 => SlotState::Allocated,
            _ => SlotState::Immutable,
        }
    }
}

/// The packed first header word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedHeader(pub u64);

const TAIL_BITS: u64 = 24;
const STATE_BITS: u64 = 2;
const TAIL_MASK: u64 = (1 << TAIL_BITS) - 1;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

impl PackedHeader {
    /// Pack `(counter, state, tail)`.
    pub(crate) fn new(counter: u64, state: SlotState, tail: u64) -> Self {
        debug_assert!(counter < (1 << 38), "table counter overflow");
        debug_assert!(tail <= TAIL_MASK, "tail exceeds 24 bits");
        PackedHeader((counter << (STATE_BITS + TAIL_BITS)) | ((state as u64) << TAIL_BITS) | tail)
    }

    /// Records appended so far (doubles as a version tag).
    pub(crate) fn counter(self) -> u64 {
        self.0 >> (STATE_BITS + TAIL_BITS)
    }

    /// Slot state.
    pub(crate) fn state(self) -> SlotState {
        SlotState::from_bits((self.0 >> TAIL_BITS) & STATE_MASK)
    }

    /// Byte offset in the data region where the next record goes.
    pub(crate) fn tail(self) -> u64 {
        self.0 & TAIL_MASK
    }
}

/// Data region starts one cacheline past the slot base.
pub(crate) const DATA_OFF: u64 = 64;

/// Outcome of an append attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Append {
    /// Record published at this data-region offset.
    Ok(u64),
    /// Not enough space; seal and rotate.
    Full,
}

/// A DRAM handle onto one pool slot. Cloneable; all state is persistent.
#[derive(Clone)]
pub struct SubTable {
    hier: Arc<Hierarchy>,
    /// Slot base address (header cacheline).
    pub(crate) base: u64,
    /// Total slot size including the header line.
    pub(crate) size: u64,
}

impl SubTable {
    /// Wrap the slot at `[base, base+size)`.
    pub fn new(hier: Arc<Hierarchy>, base: u64, size: u64) -> Self {
        debug_assert!(size > DATA_OFF);
        SubTable { hier, base, size }
    }

    /// Capacity of the data region.
    pub(crate) fn data_capacity(&self) -> u64 {
        self.size - DATA_OFF
    }

    /// Load the packed header word.
    pub(crate) fn header(&self) -> PackedHeader {
        PackedHeader(self.hier.load_u64(self.base))
    }

    /// CAS the packed header word; true on success.
    pub(crate) fn cas_header(&self, old: PackedHeader, new: PackedHeader) -> bool {
        self.hier.cas_u64(self.base, old.0, new.0) == old.0
    }

    /// Reset the header to an empty `Free` slot (after flush / at pool
    /// creation).
    pub fn reset_free(&self) {
        self.hier
            .store_u64(self.base, PackedHeader::new(0, SlotState::Free, 0).0);
        self.hier.store_u64(self.base + 8, self.data_capacity());
    }

    /// Attempt the `Free → Allocated` transition (pool acquire).
    pub fn try_acquire(&self) -> bool {
        let h = self.header();
        if h.state() != SlotState::Free {
            return false;
        }
        self.cas_header(
            h,
            PackedHeader::new(h.counter(), SlotState::Allocated, h.tail()),
        )
    }

    /// `Allocated → Immutable` (owner seals a full table).
    pub fn seal(&self) {
        loop {
            let h = self.header();
            debug_assert_eq!(h.state(), SlotState::Allocated);
            if self.cas_header(
                h,
                PackedHeader::new(h.counter(), SlotState::Immutable, h.tail()),
            ) {
                return;
            }
        }
    }

    /// Append one record. The record bytes are stored first; the header CAS
    /// publishes them (crash-atomic). Only the owning core calls this, so
    /// the CAS can only race with crash recovery, never another writer.
    pub fn append(
        &self,
        key: &[u8],
        meta: u64,
        value: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<Append> {
        let need = record_len(key.len(), value.len()) as u64;
        if need > self.data_capacity() {
            return Err(Error::TooLarge {
                what: "record",
                len: need as usize,
                max: self.data_capacity() as usize,
            });
        }
        let h = self.header();
        debug_assert_eq!(
            h.state(),
            SlotState::Allocated,
            "append to unowned sub-MemTable"
        );
        let off = h.tail();
        if off + need > self.data_capacity() {
            return Ok(Append::Full);
        }
        scratch.clear();
        encode_record_into(scratch, key, meta, value);
        self.hier.store(self.base + DATA_OFF + off, scratch);
        let new = PackedHeader::new(h.counter() + 1, SlotState::Allocated, off + need);
        let swapped = self.cas_header(h, new);
        debug_assert!(swapped, "single-writer header CAS cannot fail");
        // Derived remaining-space field (plain store; not consistency-
        // critical, per the paper it is advisory).
        self.hier
            .store_u64(self.base + 8, self.data_capacity() - (off + need));
        Ok(Append::Ok(off))
    }

    /// Read `len` bytes of the data region at `off`.
    pub(crate) fn read_data(&self, off: u64, len: usize) -> Vec<u8> {
        self.hier.load_vec(self.base + DATA_OFF + off, len)
    }

    /// Read `len` bytes of the data region at `off` into `buf`, resizing
    /// it (previous contents are overwritten). Lets hot read paths reuse a
    /// scratch buffer instead of allocating per call.
    pub(crate) fn read_data_into(&self, off: u64, len: usize, buf: &mut Vec<u8>) {
        buf.resize(len, 0);
        self.hier.load(self.base + DATA_OFF + off, buf);
    }
}

#[cfg(test)]
impl SubTable {
    /// The remaining-space field (second header word).
    pub(crate) fn remaining_space(&self) -> u64 {
        self.hier.load_u64(self.base + 8)
    }

    /// The hierarchy this slot lives in.
    pub(crate) fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachekv_cache::CacheConfig;
    use cachekv_lsm::{decode_record_at, pack_meta, EntryKind};
    use cachekv_pmem::{PmemConfig, PmemDevice};

    fn slot(size: u64) -> SubTable {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        hier.cat_lock(0, size);
        let st = SubTable::new(hier, 0, size);
        st.reset_free();
        st
    }

    #[test]
    fn header_packs_38_2_24() {
        let h = PackedHeader::new(
            0x3FF_FFFF_FFFF & ((1 << 38) - 1),
            SlotState::Immutable,
            0xFF_FFFF,
        );
        assert_eq!(h.counter(), (1 << 38) - 1);
        assert_eq!(h.state(), SlotState::Immutable);
        assert_eq!(h.tail(), 0xFF_FFFF);
        let z = PackedHeader::new(0, SlotState::Free, 0);
        assert_eq!(z.0, 0);
    }

    #[test]
    fn acquire_append_publishes_atomically() {
        let st = slot(4096);
        assert!(st.try_acquire());
        assert!(!st.try_acquire(), "second acquire fails");
        let mut scratch = Vec::new();
        let r = st
            .append(
                b"key1",
                pack_meta(1, EntryKind::Put),
                b"value1",
                &mut scratch,
            )
            .unwrap();
        assert_eq!(r, Append::Ok(0));
        let h = st.header();
        assert_eq!(h.counter(), 1);
        assert_eq!(h.tail(), record_len(4, 6) as u64);
        assert_eq!(st.remaining_space(), st.data_capacity() - h.tail());
        let raw = st.read_data(0, h.tail() as usize);
        let (e, _) = decode_record_at(&raw, 0).unwrap();
        assert_eq!(e.key, b"key1");
        assert_eq!(e.value, b"value1");
    }

    #[test]
    fn fills_then_reports_full() {
        let st = slot(1024); // 960 B data region
        st.try_acquire();
        let mut scratch = Vec::new();
        let mut appended = 0;
        while let Append::Ok(_) = st
            .append(
                b"key00001",
                pack_meta(appended, EntryKind::Put),
                &[7u8; 50],
                &mut scratch,
            )
            .unwrap()
        {
            appended += 1;
        }
        assert_eq!(appended, 960 / record_len(8, 50) as u64);
        assert_eq!(st.header().counter(), appended);
    }

    #[test]
    fn oversized_record_is_an_error() {
        let st = slot(1024);
        st.try_acquire();
        let mut scratch = Vec::new();
        let huge = vec![0u8; 2000];
        assert!(matches!(
            st.append(b"k", pack_meta(1, EntryKind::Put), &huge, &mut scratch),
            Err(Error::TooLarge { .. })
        ));
    }

    #[test]
    fn seal_then_reset_cycle() {
        let st = slot(4096);
        st.try_acquire();
        let mut scratch = Vec::new();
        st.append(b"k", pack_meta(1, EntryKind::Put), b"v", &mut scratch)
            .unwrap();
        st.seal();
        assert_eq!(st.header().state(), SlotState::Immutable);
        st.reset_free();
        assert_eq!(st.header().state(), SlotState::Free);
        assert_eq!(st.header().counter(), 0);
        assert!(st.try_acquire());
    }

    #[test]
    fn header_survives_eadr_crash() {
        let dev = Arc::new(PmemDevice::new(PmemConfig::small()));
        let hier = Arc::new(Hierarchy::new(dev, CacheConfig::small()));
        hier.cat_lock(0, 4096);
        let st = SubTable::new(hier.clone(), 0, 4096);
        st.reset_free();
        st.try_acquire();
        let mut scratch = Vec::new();
        st.append(
            b"persist",
            pack_meta(9, EntryKind::Put),
            b"me",
            &mut scratch,
        )
        .unwrap();
        let before = st.header();
        hier.power_fail();
        hier.cat_lock(0, 4096);
        let st2 = SubTable::new(hier, 0, 4096);
        assert_eq!(st2.header(), before, "packed header survived the crash");
        let raw = st2.read_data(0, before.tail() as usize);
        let (e, _) = decode_record_at(&raw, 0).unwrap();
        assert_eq!(e.key, b"persist");
    }
}
