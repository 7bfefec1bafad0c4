//! The on-DIMM write-combining buffer ("XPBuffer").
//!
//! Incoming 64 B cachelines are staged in XPLine-sized slots. A cacheline
//! that lands in an already-open slot is a *write hit* (combined for free);
//! one that must open a new slot is a *miss*, and when the buffer is full the
//! least-recently-used slot is evicted to the media. A fully populated slot
//! is written as one 256 B media write; a partial slot first reads the line
//! from the media (read-modify-write), which is the write-amplification
//! mechanism of the paper's Figure 3.

use crate::{CACHELINE, SECTORS_PER_XPLINE, XPLINE};

/// All sectors dirty: no read-modify-write needed on eviction.
const FULL_MASK: u8 = (1 << SECTORS_PER_XPLINE) - 1;
/// Line offset of a free slot (no XPLine starts there).
const FREE: u64 = u64::MAX;
/// Buckets of the open-line filter.
const BUCKETS: usize = 256;

#[inline]
fn bucket(line: u64) -> usize {
    (line / XPLINE as u64) as usize % BUCKETS
}

/// What happened to a slot that was pushed out to the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Eviction {
    /// All four sectors were dirty; one clean 256 B media write.
    Full,
    /// Some sectors were missing; the media line was read, merged, and
    /// rewritten (read-modify-write).
    ReadModifyWrite,
}

/// Read-only view of one open slot, taken for fault-injection capture.
#[derive(Debug, Clone)]
pub(crate) struct SlotSnapshot {
    /// XPLine-aligned DIMM-local offset.
    pub(crate) line: u64,
    /// The staged data; only sectors set in `valid_mask` are meaningful.
    pub(crate) data: [u8; XPLINE],
    /// Bit i set => sector i holds CPU data newer than the media.
    pub(crate) valid_mask: u8,
    /// LRU timestamp; the maximum across slots is the in-flight line.
    pub(crate) tick: u64,
}

/// Outcome of staging one cacheline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteOutcome {
    /// Whether the cacheline hit an already-open XPLine slot.
    pub(crate) hit: bool,
    /// Eviction triggered to make room, if any.
    pub(crate) evicted: Option<Eviction>,
}

/// A bounded write-combining buffer in front of one DIMM's media.
///
/// The slots are parallel arrays, so finding a line scans one packed run of
/// offsets, and a per-bucket count of open lines answers most misses (every
/// read of an unbuffered line) without the scan. Every write draws a fresh
/// tick, so ticks are unique and the LRU victim (the minimum) does not
/// depend on slot order.
pub(crate) struct XpBuffer {
    /// XPLine-aligned DIMM-local offset per slot; [`FREE`] if unused.
    lines: Vec<u64>,
    /// LRU timestamp per slot.
    ticks: Vec<u64>,
    /// Bit i set => sector i holds CPU data newer than the media.
    masks: Vec<u8>,
    data: Vec<[u8; XPLINE]>,
    /// Open slots per [`bucket`] of their line offset.
    filter: [u32; BUCKETS],
    open: usize,
    next_tick: u64,
}

impl XpBuffer {
    /// Create a buffer with room for `capacity` XPLines (must be > 0).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "XPBuffer needs at least one slot");
        XpBuffer {
            lines: vec![FREE; capacity],
            ticks: vec![0; capacity],
            masks: vec![0; capacity],
            data: vec![[0; XPLINE]; capacity],
            filter: [0; BUCKETS],
            open: 0,
            next_tick: 0,
        }
    }

    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        if self.filter[bucket(line)] == 0 {
            return None;
        }
        self.lines.iter().position(|&l| l == line)
    }

    /// Open slots' indexes, by line offset.
    fn by_line(&self) -> Vec<usize> {
        let mut open: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i] != FREE)
            .collect();
        open.sort_unstable_by_key(|&i| self.lines[i]);
        open
    }

    /// Snapshot of every open slot, sorted by line offset for determinism.
    pub(crate) fn snapshot(&self) -> Vec<SlotSnapshot> {
        self.by_line()
            .into_iter()
            .map(|i| SlotSnapshot {
                line: self.lines[i],
                data: self.data[i],
                valid_mask: self.masks[i],
                tick: self.ticks[i],
            })
            .collect()
    }

    /// Stage one 64 B cacheline destined for DIMM-local offset `off` (must be
    /// 64 B aligned). `media` is the DIMM's backing store, updated in place
    /// when an eviction occurs.
    pub(crate) fn write_cacheline(
        &mut self,
        off: u64,
        data: &[u8; CACHELINE],
        media: &mut [u8],
    ) -> WriteOutcome {
        debug_assert_eq!(off % CACHELINE as u64, 0, "unaligned cacheline write");
        let line = off & !(XPLINE as u64 - 1);
        let sector = ((off - line) / CACHELINE as u64) as usize;
        self.next_tick += 1;
        let tick = self.next_tick;
        let s = sector * CACHELINE;

        if let Some(i) = self.find(line) {
            self.data[i][s..s + CACHELINE].copy_from_slice(data);
            self.masks[i] |= 1 << sector;
            self.ticks[i] = tick;
            return WriteOutcome {
                hit: true,
                evicted: None,
            };
        }

        let (i, evicted) = if self.open >= self.lines.len() {
            let (i, ev) = self.evict_lru(media);
            self.filter[bucket(self.lines[i])] -= 1;
            (i, Some(ev))
        } else {
            let i = self
                .lines
                .iter()
                .position(|&l| l == FREE)
                .expect("a free slot below capacity");
            self.open += 1;
            (i, None)
        };
        self.filter[bucket(line)] += 1;
        self.lines[i] = line;
        self.ticks[i] = tick;
        self.masks[i] = 1 << sector;
        self.data[i] = [0; XPLINE];
        self.data[i][s..s + CACHELINE].copy_from_slice(data);
        WriteOutcome {
            hit: false,
            evicted,
        }
    }

    /// Push the least-recently-used slot out to the media, leaving its
    /// index to be reused.
    fn evict_lru(&mut self, media: &mut [u8]) -> (usize, Eviction) {
        let i = (0..self.lines.len())
            .min_by_key(|&i| self.ticks[i])
            .expect("evict_lru called on empty buffer");
        (i, self.write_out(i, media))
    }

    /// Write every open slot to the media (power-fail drain or explicit
    /// flush). Returns the evictions performed, for accounting.
    pub(crate) fn drain(&mut self, media: &mut [u8]) -> Vec<Eviction> {
        let out = self
            .by_line()
            .into_iter()
            .map(|i| {
                let ev = self.write_out(i, media);
                self.lines[i] = FREE;
                ev
            })
            .collect();
        self.filter = [0; BUCKETS];
        self.open = 0;
        out
    }

    fn write_out(&self, i: usize, media: &mut [u8]) -> Eviction {
        let base = self.lines[i] as usize;
        let mask = self.masks[i];
        let kind = if mask == FULL_MASK {
            Eviction::Full
        } else {
            Eviction::ReadModifyWrite
        };
        for sector in 0..SECTORS_PER_XPLINE {
            if mask & (1 << sector) != 0 {
                let s = sector * CACHELINE;
                media[base + s..base + s + CACHELINE]
                    .copy_from_slice(&self.data[i][s..s + CACHELINE]);
            }
            // Invalid sectors keep the media's current contents — the
            // read-modify-write "read" half.
        }
        kind
    }

    /// Overlay any buffered (newer-than-media) bytes in `[off, off+buf.len())`
    /// onto `buf`, which the caller pre-filled from the media. Keeps reads
    /// coherent with pending writes.
    pub(crate) fn overlay_reads(&self, off: u64, buf: &mut [u8]) {
        if self.open == 0 || buf.is_empty() {
            return;
        }
        let start = off;
        let end = off + buf.len() as u64;
        let first_line = start & !(XPLINE as u64 - 1);
        let mut line = first_line;
        while line < end {
            if let Some(i) = self.find(line) {
                for sector in 0..SECTORS_PER_XPLINE {
                    if self.masks[i] & (1 << sector) == 0 {
                        continue;
                    }
                    let sec_start = line + (sector * CACHELINE) as u64;
                    let sec_end = sec_start + CACHELINE as u64;
                    let lo = sec_start.max(start);
                    let hi = sec_end.min(end);
                    if lo < hi {
                        let src = &self.data[i][(lo - line) as usize..(hi - line) as usize];
                        buf[(lo - start) as usize..(hi - start) as usize].copy_from_slice(src);
                    }
                }
            }
            line += XPLINE as u64;
        }
    }
}

#[cfg(test)]
impl XpBuffer {
    /// Number of currently open slots.
    pub(crate) fn len(&self) -> usize {
        self.open
    }

    /// True when no slots are open.
    pub(crate) fn is_empty(&self) -> bool {
        self.open == 0
    }

    /// Whether the XPLine at `line` has an open slot.
    fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cl(b: u8) -> [u8; CACHELINE] {
        [b; CACHELINE]
    }

    #[test]
    fn sequential_line_fills_then_hits() {
        let mut buf = XpBuffer::new(4);
        let mut media = vec![0u8; 1024];
        let o0 = buf.write_cacheline(0, &cl(1), &mut media);
        assert!(!o0.hit);
        for i in 1..4 {
            let o = buf.write_cacheline(i * 64, &cl(1), &mut media);
            assert!(o.hit, "sector {i} should combine");
        }
    }

    #[test]
    fn full_slot_evicts_without_rmw() {
        let mut buf = XpBuffer::new(1);
        let mut media = vec![0u8; 1024];
        for i in 0..4 {
            buf.write_cacheline(i * 64, &cl(7), &mut media);
        }
        // Opening a second XPLine forces the first (full) slot out.
        let o = buf.write_cacheline(256, &cl(9), &mut media);
        assert_eq!(o.evicted, Some(Eviction::Full));
        assert!(media[..256].iter().all(|&b| b == 7));
    }

    #[test]
    fn partial_slot_evicts_with_rmw_preserving_media() {
        let mut buf = XpBuffer::new(1);
        let mut media = vec![0xEE; 1024];
        buf.write_cacheline(64, &cl(5), &mut media); // only sector 1 dirty
        let o = buf.write_cacheline(512, &cl(9), &mut media);
        assert_eq!(o.evicted, Some(Eviction::ReadModifyWrite));
        assert!(
            media[0..64].iter().all(|&b| b == 0xEE),
            "sector 0 kept from media"
        );
        assert!(
            media[64..128].iter().all(|&b| b == 5),
            "sector 1 overwritten"
        );
        assert!(
            media[128..256].iter().all(|&b| b == 0xEE),
            "sectors 2-3 kept"
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut buf = XpBuffer::new(2);
        let mut media = vec![0u8; 4096];
        buf.write_cacheline(0, &cl(1), &mut media); // line 0 (older)
        buf.write_cacheline(256, &cl(2), &mut media); // line 256
        buf.write_cacheline(64, &cl(1), &mut media); // touch line 0 again
        buf.write_cacheline(512, &cl(3), &mut media); // must evict line 256
        assert!(buf.contains(0));
        assert!(!buf.contains(256));
        assert!(media[256..320].iter().all(|&b| b == 2));
    }

    #[test]
    fn drain_flushes_everything() {
        let mut buf = XpBuffer::new(8);
        let mut media = vec![0u8; 4096];
        buf.write_cacheline(0, &cl(1), &mut media);
        buf.write_cacheline(1024, &cl(2), &mut media);
        let evs = buf.drain(&mut media);
        assert_eq!(evs.len(), 2);
        assert!(buf.is_empty());
        assert!(media[0..64].iter().all(|&b| b == 1));
        assert!(media[1024..1088].iter().all(|&b| b == 2));
    }

    #[test]
    fn overlay_merges_buffered_bytes_into_reads() {
        let mut buf = XpBuffer::new(4);
        let mut media = vec![0xAA; 1024];
        buf.write_cacheline(64, &cl(0x55), &mut media);
        let mut out = vec![0u8; 192];
        out.copy_from_slice(&media[0..192]);
        buf.overlay_reads(0, &mut out);
        assert!(out[0..64].iter().all(|&b| b == 0xAA));
        assert!(out[64..128].iter().all(|&b| b == 0x55));
        assert!(out[128..192].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn overlay_handles_unaligned_ranges() {
        let mut buf = XpBuffer::new(4);
        let mut media = vec![0xAA; 1024];
        buf.write_cacheline(64, &cl(0x55), &mut media);
        let mut out = vec![0u8; 40];
        out.copy_from_slice(&media[100..140]);
        buf.overlay_reads(100, &mut out);
        // [100,128) falls in sector 1 (buffered); [128,140) in sector 2.
        assert!(out[0..28].iter().all(|&b| b == 0x55));
        assert!(out[28..].iter().all(|&b| b == 0xAA));
    }
}
