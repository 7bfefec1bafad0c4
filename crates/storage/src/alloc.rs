//! First-fit free-list allocator over a persistent address range.
//!
//! The allocator metadata itself is DRAM-resident: after a crash the LSM
//! manifest / recovery path re-registers live regions, which is how LevelDB
//! treats filesystem space too. Allocations are cacheline (64 B) aligned so
//! regions never share a cacheline (avoiding false sharing of persistence).

use cachekv_pmem::CACHELINE;
use parking_lot::Mutex;
use std::fmt;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No contiguous free range of the requested size.
    OutOfSpace { requested: u64 },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfSpace { requested } => {
                write!(f, "out of persistent space (requested {requested} bytes)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

#[derive(Debug, Clone, Copy)]
struct FreeRange {
    start: u64,
    len: u64,
}

/// A thread-safe region allocator over `[base, base+len)`.
pub struct PmemAllocator {
    base: u64,
    len: u64,
    free: Mutex<Vec<FreeRange>>, // sorted by start, coalesced
}

impl PmemAllocator {
    /// Manage the range `[base, base+len)`; both must be 64 B aligned.
    pub fn new(base: u64, len: u64) -> Self {
        assert_eq!(base % CACHELINE as u64, 0, "base must be cacheline aligned");
        assert_eq!(
            len % CACHELINE as u64,
            0,
            "length must be cacheline aligned"
        );
        PmemAllocator {
            base,
            len,
            free: Mutex::new(vec![FreeRange { start: base, len }]),
        }
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free.lock().iter().map(|r| r.len).sum()
    }

    /// Allocate `size` bytes (rounded up to a cacheline multiple).
    pub fn alloc(&self, size: u64) -> Result<u64, AllocError> {
        assert!(size > 0, "zero-size allocation");
        let size = round_up(size);
        let mut free = self.free.lock();
        for i in 0..free.len() {
            if free[i].len >= size {
                let addr = free[i].start;
                free[i].start += size;
                free[i].len -= size;
                if free[i].len == 0 {
                    free.remove(i);
                }
                return Ok(addr);
            }
        }
        Err(AllocError::OutOfSpace { requested: size })
    }

    /// Carve a specific range out of the free list (crash recovery:
    /// re-registering regions the manifest says are live). Panics if any
    /// part of the range is already allocated.
    pub fn reserve(&self, addr: u64, size: u64) {
        let size = round_up(size);
        assert_eq!(
            addr % CACHELINE as u64,
            0,
            "reserve must be cacheline aligned"
        );
        let mut free = self.free.lock();
        let i = free
            .iter()
            .position(|r| r.start <= addr && addr + size <= r.start + r.len)
            .unwrap_or_else(|| panic!("reserve [{addr}, +{size}) overlaps a live allocation"));
        let r = free[i];
        free.remove(i);
        if addr > r.start {
            free.insert(
                i,
                FreeRange {
                    start: r.start,
                    len: addr - r.start,
                },
            );
        }
        let tail_start = addr + size;
        if tail_start < r.start + r.len {
            let pos = free.partition_point(|x| x.start < tail_start);
            free.insert(
                pos,
                FreeRange {
                    start: tail_start,
                    len: r.start + r.len - tail_start,
                },
            );
        }
    }

    /// Return `[addr, addr+size)` to the free list, coalescing neighbours.
    pub fn free(&self, addr: u64, size: u64) {
        let size = round_up(size);
        assert!(
            addr >= self.base && addr + size <= self.base + self.len,
            "free outside managed range"
        );
        let mut free = self.free.lock();
        let pos = free.partition_point(|r| r.start < addr);
        if let Some(prev) = pos.checked_sub(1).map(|i| free[i]) {
            assert!(
                prev.start + prev.len <= addr,
                "double free (overlaps previous range)"
            );
        }
        if pos < free.len() {
            assert!(
                addr + size <= free[pos].start,
                "double free (overlaps next range)"
            );
        }
        free.insert(
            pos,
            FreeRange {
                start: addr,
                len: size,
            },
        );
        // Coalesce with next, then previous.
        if pos + 1 < free.len() && free[pos].start + free[pos].len == free[pos + 1].start {
            free[pos].len += free[pos + 1].len;
            free.remove(pos + 1);
        }
        if pos > 0 && free[pos - 1].start + free[pos - 1].len == free[pos].start {
            free[pos - 1].len += free[pos].len;
            free.remove(pos);
        }
    }
}

fn round_up(size: u64) -> u64 {
    size.div_ceil(CACHELINE as u64) * CACHELINE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let a = PmemAllocator::new(0, 1 << 20);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 128, "rounded to cachelines and disjoint");
    }

    #[test]
    fn exhaustion_errors() {
        let a = PmemAllocator::new(0, 256);
        a.alloc(256).unwrap();
        assert!(matches!(a.alloc(1), Err(AllocError::OutOfSpace { .. })));
    }

    #[test]
    fn free_coalesces_and_allows_realloc() {
        let a = PmemAllocator::new(0, 512);
        let x = a.alloc(128).unwrap();
        let y = a.alloc(128).unwrap();
        let z = a.alloc(256).unwrap();
        a.free(x, 128);
        a.free(z, 256);
        a.free(y, 128);
        assert_eq!(a.free_bytes(), 512);
        // Whole range available again as one block.
        assert_eq!(a.alloc(512).unwrap(), 0);
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let a = PmemAllocator::new(1024, 1024);
        let x = a.alloc(64).unwrap();
        let _y = a.alloc(64).unwrap();
        a.free(x, 64);
        assert_eq!(a.alloc(64).unwrap(), x);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let a = PmemAllocator::new(0, 1024);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        a.free(x, 64);
    }

    #[test]
    fn reserve_carves_out_range() {
        let a = PmemAllocator::new(0, 1024);
        a.reserve(256, 128);
        assert_eq!(a.free_bytes(), 1024 - 128);
        // Allocations avoid the reserved hole.
        let x = a.alloc(256).unwrap();
        assert_eq!(x, 0);
        let y = a.alloc(256).unwrap();
        assert!(y >= 384, "skipped the reserved range, got {y}");
        // Freeing the reserved range re-integrates it.
        a.free(256, 128);
        assert_eq!(a.free_bytes(), 1024 - 512);
    }

    #[test]
    #[should_panic(expected = "overlaps a live allocation")]
    fn reserve_overlapping_allocation_panics() {
        let a = PmemAllocator::new(0, 1024);
        a.alloc(128).unwrap();
        a.reserve(64, 64);
    }

    #[test]
    fn concurrent_allocs_are_disjoint() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let a = Arc::new(PmemAllocator::new(0, 1 << 20));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..256).map(|_| a.alloc(64).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for addr in h.join().unwrap() {
                assert!(seen.insert(addr), "duplicate allocation {addr}");
            }
        }
    }
}
