//! Criterion microbenchmarks of the core data structures: the skiplist in
//! DRAM vs simulated PMem, XPBuffer streaming vs scattered writes, the
//! sub-MemTable append path, the PMem B+-tree, and the simulator's own host
//! cost on a sub-table copy-flush.

use cachekv::SubTable;
use cachekv_baselines::BpTree;
use cachekv_cache::{CacheConfig, Hierarchy};
use cachekv_lsm::{pack_meta, DramSpace, EntryKind, FlushMode, PmemSpace, SkipList};
use cachekv_pmem::{Clock, LatencyConfig, PmemConfig, PmemDevice};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn hier() -> Arc<Hierarchy> {
    // Counting clock: criterion measures the simulator's own CPU cost.
    let dev = Arc::new(PmemDevice::new(
        PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()),
    ));
    Arc::new(Hierarchy::new(dev, CacheConfig::paper()))
}

fn bench_skiplist(c: &mut Criterion) {
    let mut g = c.benchmark_group("skiplist");
    g.bench_function("insert_dram", |b| {
        let mut i = 0u64;
        let mut list = SkipList::new(DramSpace::new(256 << 20));
        b.iter(|| {
            let key = format!("key{:012}", i * 7919 % 1_000_000);
            list.insert(key.as_bytes(), pack_meta(i + 1, EntryKind::Put), &[0u8; 16])
                .unwrap();
            i += 1;
        });
    });
    g.bench_function("insert_pmem_clflush", |b| {
        let mut i = 0u64;
        let h = hier();
        let mut list = SkipList::new(PmemSpace::new(h, 1 << 20, 128 << 20, FlushMode::Clflush));
        b.iter(|| {
            let key = format!("key{:012}", i * 7919 % 1_000_000);
            list.insert(key.as_bytes(), pack_meta(i + 1, EntryKind::Put), &[0u8; 16])
                .unwrap();
            i += 1;
        });
    });
    g.bench_function("get_dram", |b| {
        let mut list = SkipList::new(DramSpace::new(64 << 20));
        for i in 0..100_000u64 {
            list.insert(
                format!("key{i:012}").as_bytes(),
                pack_meta(i + 1, EntryKind::Put),
                &[0u8; 16],
            )
            .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key{:012}", i * 31 % 100_000);
            black_box(list.get_latest(key.as_bytes()));
            i += 1;
        });
    });
    g.finish();
}

fn bench_xpbuffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("xpbuffer");
    g.bench_function("streaming_cachelines", |b| {
        let dev = PmemDevice::new(PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()));
        let mut addr = 0u64;
        let cap = dev.capacity();
        b.iter(|| {
            dev.write_cacheline(addr % cap, &[7u8; 64]);
            addr += 64;
        });
    });
    g.bench_function("scattered_cachelines", |b| {
        let dev = PmemDevice::new(PmemConfig::paper_scaled().with_latency(LatencyConfig::zero()));
        let cap = dev.capacity();
        let mut addr = 0u64;
        b.iter(|| {
            dev.write_cacheline(addr % cap, &[7u8; 64]);
            addr = addr.wrapping_add(0x9E37_79B9_7F4A_7C15) & !63;
        });
    });
    g.finish();
}

fn bench_subtable(c: &mut Criterion) {
    let mut g = c.benchmark_group("subtable");
    g.bench_function("append_64b", |b| {
        let h = hier();
        h.cat_lock(0, 2 << 20);
        let st = SubTable::new(h, 0, 2 << 20);
        st.reset_free();
        st.try_acquire();
        let mut scratch = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            if st
                .append(
                    b"key0000000000001",
                    pack_meta(i + 1, EntryKind::Put),
                    &[5u8; 64],
                    &mut scratch,
                )
                .unwrap()
                == cachekv::Append::Full
            {
                st.seal();
                st.reset_free();
                st.try_acquire();
            }
            i += 1;
        });
    });
    g.finish();
}

fn bench_bptree(c: &mut Criterion) {
    let mut g = c.benchmark_group("bptree");
    g.bench_function("insert_pmem", |b| {
        let h = hier();
        let mut t = BpTree::create(PmemSpace::new(h, 0, 128 << 20, FlushMode::Clflush));
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("key{:012}", i * 7919 % 10_000_000);
            t.insert(key.as_bytes(), &[0u8; 16]).unwrap();
            i += 1;
        });
    });
    g.finish();
}

/// The copy-flush of one full sub-table the way `flush_one` issues it
/// (`load_vec` of the CAT-locked sub-table, `nt_store` of the copy,
/// `sfence`), with the paper's latencies on a virtual clock. The wall time
/// criterion reports is the simulator's host cost; the modelled device time
/// per flush is printed beside it, and the two should stay within 2×.
fn bench_flush_probe(c: &mut Criterion) {
    const SUBTABLE: usize = 2 << 20;
    const DEST: u64 = 64 << 20;
    let clock = Arc::new(Clock::counting());
    let dev = Arc::new(PmemDevice::with_clock(
        PmemConfig::paper_scaled(),
        clock.clone(),
    ));
    let h = Hierarchy::new(dev, CacheConfig::paper());
    h.cat_lock(0, SUBTABLE as u64);
    for off in (0..SUBTABLE).step_by(100) {
        let len = 100.min(SUBTABLE - off);
        h.store(off as u64, &[off as u8; 100][..len]);
    }
    let flush = || {
        let copy = h.load_vec(0, SUBTABLE);
        h.nt_store(DEST, &copy);
        h.sfence();
    };
    let before = clock.total_ns();
    flush();
    println!(
        "flush_probe/modelled_2mib_subtable       modelled: {} ns per flush",
        clock.total_ns() - before
    );
    let mut g = c.benchmark_group("flush_probe");
    g.bench_function("copy_flush_2mib_subtable", |b| b.iter(&flush));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_skiplist, bench_xpbuffer, bench_subtable, bench_bptree, bench_flush_probe
}
criterion_main!(benches);
