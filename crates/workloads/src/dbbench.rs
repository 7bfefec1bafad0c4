//! LevelDB's `db_bench` operations, the paper's primary microbenchmark.

use crate::dist::{KeyDist, Sequential, Uniform, Zipfian};

/// The `db_bench` modes the paper sweeps (Exp#1-#3), plus a Zipfian read
/// mode for skewed point-read profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbBench {
    /// Sequential-key inserts.
    FillSeq,
    /// Uniform-random-key inserts.
    FillRandom,
    /// Sequential-key point reads.
    ReadSeq,
    /// Uniform-random-key point reads.
    ReadRandom,
    /// Scrambled-Zipfian (θ = 0.99) point reads — YCSB-C's request mix.
    ReadZipfian,
}

impl DbBench {
    /// Whether this mode writes.
    pub(crate) fn is_write(&self) -> bool {
        matches!(self, DbBench::FillSeq | DbBench::FillRandom)
    }

    /// Key-id source for one thread: `n` is the key-space size; writers
    /// partition the space so threads never collide on unwritten keys.
    pub(crate) fn dist(&self, n: u64, thread: u64, threads: u64) -> Box<dyn KeyDist> {
        match self {
            DbBench::FillSeq | DbBench::ReadSeq => {
                // Disjoint contiguous stripes per thread.
                let per = n / threads.max(1);
                Box::new(Sequential::new(thread * per, n))
            }
            DbBench::FillRandom | DbBench::ReadRandom => Box::new(Uniform::new(n, 0x5EED + thread)),
            DbBench::ReadZipfian => Box::new(Zipfian::new(n, 0x5EED + thread)),
        }
    }
}

#[cfg(test)]
impl DbBench {
    /// Display name (db_bench's spelling).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DbBench::FillSeq => "fillseq",
            DbBench::FillRandom => "fillrandom",
            DbBench::ReadSeq => "readseq",
            DbBench::ReadRandom => "readrandom",
            DbBench::ReadZipfian => "readzipfian",
        }
    }

    /// Whether it needs a pre-filled store.
    pub(crate) fn needs_fill(&self) -> bool {
        !self.is_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_db_bench() {
        assert_eq!(DbBench::FillSeq.name(), "fillseq");
        assert_eq!(DbBench::ReadRandom.name(), "readrandom");
    }

    #[test]
    fn seq_threads_get_disjoint_stripes() {
        let mut a = DbBench::FillSeq.dist(100, 0, 2);
        let mut b = DbBench::FillSeq.dist(100, 1, 2);
        assert_eq!(a.next_id(), 0);
        assert_eq!(b.next_id(), 50);
    }

    #[test]
    fn write_read_classification() {
        assert!(DbBench::FillRandom.is_write());
        assert!(!DbBench::ReadSeq.is_write());
        assert!(DbBench::ReadRandom.needs_fill());
        assert!(!DbBench::ReadZipfian.is_write());
        assert!(DbBench::ReadZipfian.needs_fill());
    }

    #[test]
    fn zipfian_reads_stay_in_keyspace_and_skew() {
        let n = 1000;
        let mut d = DbBench::ReadZipfian.dist(n, 0, 1);
        let mut counts = vec![0u32; n as usize];
        for _ in 0..20_000 {
            let id = d.next_id();
            assert!(id < n);
            counts[id as usize] += 1;
        }
        // Skewed: the hottest key draws far more than a uniform share (20).
        assert!(counts.iter().max().copied().unwrap_or(0) > 100);
    }
}
