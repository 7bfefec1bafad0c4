//! One DIMM: 3D-XPoint media plus its XPBuffer.

use crate::xpbuffer::{Eviction, XpBuffer};
use crate::{CACHELINE, XPLINE};

/// A single simulated DIMM. The device wraps each in a mutex; methods here
/// assume exclusive access.
pub(crate) struct Dimm {
    media: Vec<u8>,
    buffer: XpBuffer,
}

/// Accounting outcome for a DIMM-level operation, consumed by the device to
/// update counters and charge latency.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DimmEffects {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) media_reads_256: u64,
    pub(crate) media_writes_256: u64,
    pub(crate) rmw_evictions: u64,
    pub(crate) full_evictions: u64,
}

impl DimmEffects {
    fn absorb(&mut self, ev: Eviction) {
        self.media_writes_256 += 1;
        match ev {
            Eviction::Full => self.full_evictions += 1,
            Eviction::ReadModifyWrite => {
                self.rmw_evictions += 1;
                self.media_reads_256 += 1;
            }
        }
    }
}

impl Dimm {
    /// Create a DIMM with `capacity` bytes of zeroed media and an XPBuffer of
    /// `xpbuffer_slots` XPLines.
    pub(crate) fn new(capacity: usize, xpbuffer_slots: usize) -> Self {
        assert_eq!(capacity % XPLINE, 0, "capacity must be XPLine aligned");
        Dimm {
            media: vec![0u8; capacity],
            buffer: XpBuffer::new(xpbuffer_slots),
        }
    }

    /// Rebuild a DIMM around existing media contents (crash-image reopen).
    /// The XPBuffer starts empty.
    pub(crate) fn from_media(media: Vec<u8>, xpbuffer_slots: usize) -> Self {
        assert_eq!(media.len() % XPLINE, 0, "capacity must be XPLine aligned");
        Dimm {
            media,
            buffer: XpBuffer::new(xpbuffer_slots),
        }
    }

    /// Raw media contents, *excluding* anything staged in the XPBuffer.
    pub(crate) fn media(&self) -> &[u8] {
        &self.media
    }

    /// Snapshot of the open XPBuffer slots (fault-injection capture).
    pub(crate) fn buffer_snapshot(&self) -> Vec<crate::xpbuffer::SlotSnapshot> {
        self.buffer.snapshot()
    }

    /// Stage one cacheline at DIMM-local offset `off`.
    pub(crate) fn write_cacheline(&mut self, off: u64, data: &[u8; CACHELINE]) -> DimmEffects {
        assert!(
            off as usize + CACHELINE <= self.media.len(),
            "write past DIMM end"
        );
        let outcome = self.buffer.write_cacheline(off, data, &mut self.media);
        let mut fx = DimmEffects::default();
        if outcome.hit {
            fx.hits = 1;
        } else {
            fx.misses = 1;
        }
        if let Some(ev) = outcome.evicted {
            fx.absorb(ev);
        }
        fx
    }

    /// Read `buf.len()` bytes at DIMM-local offset `off`, coherent with any
    /// pending XPBuffer contents. Returns the number of 256 B media reads
    /// charged (one per touched XPLine).
    pub(crate) fn read(&self, off: u64, buf: &mut [u8]) -> u64 {
        let end = off as usize + buf.len();
        assert!(end <= self.media.len(), "read past DIMM end");
        buf.copy_from_slice(&self.media[off as usize..end]);
        self.buffer.overlay_reads(off, buf);
        let first = off / XPLINE as u64;
        let last = (off + buf.len().max(1) as u64 - 1) / XPLINE as u64;
        last - first + 1
    }

    /// Flush the XPBuffer to the media (power-fail drain).
    pub(crate) fn drain(&mut self) -> DimmEffects {
        let mut fx = DimmEffects::default();
        for ev in self.buffer.drain(&mut self.media) {
            fx.absorb(ev);
        }
        fx
    }
}

#[cfg(test)]
impl Dimm {
    /// Number of open XPBuffer slots (for tests).
    pub(crate) fn buffered_lines(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_sees_buffered_data_before_drain() {
        let mut d = Dimm::new(4096, 4);
        d.write_cacheline(128, &[9u8; CACHELINE]);
        let mut out = [0u8; 64];
        d.read(128, &mut out);
        assert_eq!(out, [9u8; 64]);
    }

    #[test]
    fn read_charges_per_xpline() {
        let d = Dimm::new(4096, 4);
        let mut out = vec![0u8; 300];
        // [100, 400) touches XPLines 0 and 1.
        assert_eq!(d.read(100, &mut out), 2);
        let mut one = [0u8; 1];
        assert_eq!(d.read(0, &mut one), 1);
    }

    #[test]
    fn drain_then_media_holds_data() {
        let mut d = Dimm::new(4096, 4);
        d.write_cacheline(0, &[3u8; CACHELINE]);
        let fx = d.drain();
        assert_eq!(fx.media_writes_256, 1);
        assert_eq!(fx.rmw_evictions, 1, "single sector forces RMW");
        assert_eq!(d.buffered_lines(), 0);
        let mut out = [0u8; 64];
        d.read(0, &mut out);
        assert_eq!(out, [3u8; 64]);
    }

    #[test]
    #[should_panic(expected = "write past DIMM end")]
    fn out_of_bounds_write_panics() {
        let mut d = Dimm::new(256, 2);
        d.write_cacheline(256, &[0u8; CACHELINE]);
    }
}
