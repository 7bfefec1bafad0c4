//! Golden tape: a seeded mix of every `Hierarchy` operation, replayed under
//! a virtual clock with the default (non-zero) latencies, must reproduce
//! pinned counters bit for bit.
//!
//! The simulator's host-side layout (set arrays, the CAT slab, lock
//! batching, how `Spin` settles charges) may change freely; what it models
//! may not. Every modelled number the tape can observe is pinned: a hash of
//! every byte loaded and of the final media image, every `CacheStats` and
//! `PmemStats` field, and `Clock::total_ns`.
//!
//! The constants were recorded on the simulator as it stood before the
//! struct-of-arrays set layout, the CAT slab and the per-op spin settle
//! were introduced (`HashMap` locked lines, `Vec<Line>` sets, one spin per
//! charge), so a pass here means those changes left modelled behaviour
//! untouched. A deliberate change to the model must re-record them and say
//! why.

use cachekv_cache::{CacheConfig, CacheStats, Hierarchy};
use cachekv_pmem::{Clock, LatencyConfig, PmemConfig, PmemDevice, PmemStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Bytes of address space the tape touches (the device is larger).
const SPACE: u64 = 256 << 10;
/// Two CAT regions the tape locks and unlocks independently.
const REGIONS: [(u64, u64); 2] = [(64 << 10, 8 << 10), (160 << 10, 4 << 10)];

/// FNV-1a, folded over every byte the tape observes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

struct Outcome {
    hash: u64,
    cache: CacheStats,
    pmem: PmemStats,
    total_ns: u64,
}

fn span(rng: &mut StdRng) -> (u64, usize) {
    let len = rng.gen_range(1usize..300);
    // Half the traffic aims at the CAT regions (locked or not at the time).
    let addr = if rng.gen_bool(0.5) {
        let (start, rlen) = REGIONS[rng.gen_range(0..2usize)];
        start + rng.gen_range(0..rlen - 300)
    } else {
        rng.gen_range(0..SPACE - 300)
    };
    (addr, len)
}

fn run(pmem: PmemConfig, cache: CacheConfig, seed: u64, ops: usize) -> Outcome {
    let clock = Arc::new(Clock::counting());
    let dev = Arc::new(PmemDevice::with_clock(
        pmem.with_latency(LatencyConfig::default()),
        clock.clone(),
    ));
    let h = Hierarchy::new(dev, cache);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = Fnv::new();
    let mut locked = [false; 2];
    let mut buf = vec![0u8; 512];
    for i in 0..ops {
        // One power failure mid-tape: CAT regions are dropped with it.
        if i == ops / 2 {
            h.power_fail();
            locked = [false; 2];
            continue;
        }
        let (addr, len) = span(&mut rng);
        match rng.gen_range(0..100u32) {
            0..=29 => {
                let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                h.store(addr, &data);
            }
            30..=34 => h.store_u64(addr & !7, rng.gen::<u64>()),
            35..=59 => {
                h.load(addr, &mut buf[..len]);
                hash.eat(&buf[..len]);
            }
            60..=64 => hash.eat(&h.load_u64(addr & !7).to_le_bytes()),
            65..=69 => hash.eat(&h.load_vec(addr & !63, 4096.min((SPACE - addr) as usize))),
            70..=77 => {
                let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                h.nt_store(addr, &data);
            }
            78..=82 => h.clwb(addr, len),
            83..=86 => h.clflush(addr, len),
            87..=89 => h.sfence(),
            90..=95 => {
                // CAS on a locked header word; a match is made likely by
                // reading the current value first half the time.
                let r = rng.gen_range(0..2usize);
                if locked[r] {
                    let (start, rlen) = REGIONS[r];
                    let word = start + (rng.gen_range(0..rlen / 64)) * 64;
                    let expected = if rng.gen_bool(0.5) {
                        h.load_u64(word)
                    } else {
                        rng.gen::<u64>() & 0xff
                    };
                    let prev = h.cas_u64(word, expected, rng.gen::<u64>());
                    hash.eat(&prev.to_le_bytes());
                }
            }
            _ => {
                let r = rng.gen_range(0..2usize);
                let (start, rlen) = REGIONS[r];
                if locked[r] {
                    h.cat_unlock(start, rlen);
                } else {
                    h.cat_lock(start, rlen);
                }
                locked[r] = !locked[r];
            }
        }
    }
    let mut regions = h.cat_regions();
    regions.sort_unstable();
    for (start, end) in regions {
        hash.eat(&start.to_le_bytes());
        hash.eat(&end.to_le_bytes());
    }
    // The final image as an eADR power failure would leave it.
    for dimm in h.capture_media() {
        hash.eat(&dimm);
    }
    Outcome {
        hash: hash.0,
        cache: h.cache_stats(),
        pmem: h.pmem_stats(),
        total_ns: clock.total_ns(),
    }
}

fn print(o: &Outcome) -> String {
    format!(
        "hash {:#x}\n{:?}\n{:?}\ntotal_ns {}",
        o.hash, o.cache, o.pmem, o.total_ns
    )
}

#[test]
fn golden_tape_single_shard() {
    let o = run(PmemConfig::small(), CacheConfig::small(), 0x601d, 60_000);
    eprintln!("{}", print(&o));
    assert_eq!(o.hash, 0x79b6_3719_87b3_447e, "data hash");
    assert_eq!(
        o.cache,
        CacheStats {
            store_hits: 15_696,
            store_misses: 47_464,
            load_hits: 62_713,
            load_misses: 180_615,
            evictions: 162_029,
            dirty_evictions: 32_251,
            flush_ops: 17_646,
            nt_lines: 13_625,
            locked_hits: 67_423,
        }
    );
    assert_eq!(
        o.pmem,
        PmemStats {
            cpu_writes: 73_999,
            xpbuffer_hits: 30_536,
            xpbuffer_misses: 43_463,
            media_read_bytes: 63_738_880,
            media_write_bytes: 11_124_480,
            rmw_evictions: 40_377,
            full_evictions: 3_078,
            reads: 208_603,
            power_failures: 1,
        }
    );
    assert_eq!(o.total_ns, 86_952_240);
}

#[test]
fn golden_tape_multi_shard() {
    // The paper's 12-way, 64-shard geometry shrunk to 128 sets, over four
    // interleaved DIMMs.
    let o = run(
        PmemConfig::paper_scaled().with_total_capacity(4 << 20),
        CacheConfig::paper().with_capacity(96 << 10),
        0x7a9e,
        60_000,
    );
    eprintln!("{}", print(&o));
    assert_eq!(o.hash, 0x3344_825b_1f06_3c40, "data hash");
    assert_eq!(
        o.cache,
        CacheStats {
            store_hits: 26_015,
            store_misses: 36_740,
            load_hits: 116_494,
            load_misses: 126_404,
            evictions: 87_098,
            dirty_evictions: 23_817,
            flush_ops: 17_731,
            nt_lines: 13_809,
            locked_hits: 66_354,
        }
    );
    assert_eq!(
        o.pmem,
        PmemStats {
            cpu_writes: 70_393,
            xpbuffer_hits: 54_311,
            xpbuffer_misses: 16_082,
            media_read_bytes: 41_223_680,
            media_write_bytes: 4_051_456,
            rmw_evictions: 12_809,
            full_evictions: 3_017,
            reads: 148_221,
            power_failures: 1,
        }
    );
    assert_eq!(o.total_ns, 57_529_591);
}
