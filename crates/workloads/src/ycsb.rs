//! YCSB workload definitions (Cooper et al., SoCC'10), as used in Exp#4.

use crate::dist::{KeyDist, Latest, Uniform, Zipfian};

/// Operation mix entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum YcsbOp {
    Read,
    Update,
    Insert,
    ReadModifyWrite,
    /// Range scan starting at the drawn key (length drawn separately via
    /// [`YcsbSpec::next_scan_len`]).
    Scan,
}

/// The request distribution a workload draws keys from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestDist {
    Uniform,
    Zipfian,
    Latest,
}

/// The six workloads the paper evaluates (Section IV-B, Exp#4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbWorkload {
    /// 100% inserts, Uniform.
    Load,
    /// 50% reads / 50% updates, Zipfian(0.99).
    A,
    /// 95% reads / 5% updates, Zipfian(0.99).
    B,
    /// 100% reads, Zipfian(0.99).
    C,
    /// 95% reads of latest / 5% inserts, Latest.
    D,
    /// 95% scans / 5% inserts, Zipfian(0.99) start keys, uniform lengths.
    E,
    /// 50% reads / 50% read-modify-writes, Zipfian(0.99).
    F,
}

impl YcsbWorkload {
    /// All seven, in YCSB's presentation order.
    pub fn all() -> [YcsbWorkload; 7] {
        [
            YcsbWorkload::Load,
            YcsbWorkload::A,
            YcsbWorkload::B,
            YcsbWorkload::C,
            YcsbWorkload::D,
            YcsbWorkload::E,
            YcsbWorkload::F,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            YcsbWorkload::Load => "YCSB-Load",
            YcsbWorkload::A => "YCSB-A",
            YcsbWorkload::B => "YCSB-B",
            YcsbWorkload::C => "YCSB-C",
            YcsbWorkload::D => "YCSB-D",
            YcsbWorkload::E => "YCSB-E",
            YcsbWorkload::F => "YCSB-F",
        }
    }

    /// `(read%, update%, insert%, rmw%, scan%)`.
    pub(crate) fn mix(&self) -> (u32, u32, u32, u32, u32) {
        match self {
            YcsbWorkload::Load => (0, 0, 100, 0, 0),
            YcsbWorkload::A => (50, 50, 0, 0, 0),
            YcsbWorkload::B => (95, 5, 0, 0, 0),
            YcsbWorkload::C => (100, 0, 0, 0, 0),
            YcsbWorkload::D => (95, 0, 5, 0, 0),
            YcsbWorkload::E => (0, 0, 5, 0, 95),
            YcsbWorkload::F => (50, 0, 0, 50, 0),
        }
    }

    /// Request distribution.
    pub(crate) fn dist(&self) -> RequestDist {
        match self {
            YcsbWorkload::Load => RequestDist::Uniform,
            YcsbWorkload::D => RequestDist::Latest,
            _ => RequestDist::Zipfian,
        }
    }

    /// Whether the run phase needs a pre-loaded key population.
    pub fn needs_load_phase(&self) -> bool {
        !matches!(self, YcsbWorkload::Load)
    }
}

/// A concrete, seeded operation stream for one thread.
pub(crate) struct YcsbSpec {
    workload: YcsbWorkload,
    dist: Box<dyn KeyDist>,
    rng: rand::rngs::StdRng,
    /// Keys already present (inserts append past this).
    population: u64,
    next_insert: u64,
}

impl YcsbSpec {
    /// Build a per-thread stream over an existing `population` of keys.
    /// `thread` seeds both the mix and the key distribution.
    pub(crate) fn new(workload: YcsbWorkload, population: u64, thread: u64) -> Self {
        let n = population.max(1);
        let dist: Box<dyn KeyDist> = match workload.dist() {
            RequestDist::Uniform => Box::new(Uniform::new(n, 0xFEED + thread)),
            RequestDist::Zipfian => Box::new(Zipfian::new(n, 0xBEEF + thread)),
            RequestDist::Latest => Box::new(Latest::new(n, 0xCAFE + thread)),
        };
        YcsbSpec {
            workload,
            dist,
            rng: rand::SeedableRng::seed_from_u64(0xACDC + thread),
            population: n,
            next_insert: population,
        }
    }

    /// Draw the next `(op, key id)` pair. For [`YcsbOp::Scan`] the id is
    /// the scan's start key.
    pub(crate) fn next_op(&mut self) -> (YcsbOp, u64) {
        use rand::Rng;
        let (r, u, i, f, _s) = self.workload.mix();
        let roll: u32 = self.rng.gen_range(0..100);
        if roll < r {
            (YcsbOp::Read, self.dist.next_id())
        } else if roll < r + u {
            (YcsbOp::Update, self.dist.next_id())
        } else if roll < r + u + i {
            let id = self.next_insert;
            self.next_insert += 1;
            self.population += 1;
            self.dist.grow(self.population);
            (YcsbOp::Insert, id)
        } else if roll < r + u + i + f {
            (YcsbOp::ReadModifyWrite, self.dist.next_id())
        } else {
            (YcsbOp::Scan, self.dist.next_id())
        }
    }

    /// Scan length for the next [`YcsbOp::Scan`]: uniform in `1..=100`,
    /// YCSB-E's standard `max_scan_length`.
    pub(crate) fn next_scan_len(&mut self) -> u64 {
        use rand::Rng;
        self.rng.gen_range(1..101)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn mix_of(w: YcsbWorkload, n: usize) -> HashMap<YcsbOp, usize> {
        let mut spec = YcsbSpec::new(w, 10_000, 0);
        let mut counts = HashMap::new();
        for _ in 0..n {
            let (op, _) = spec.next_op();
            *counts.entry(op).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn load_is_all_inserts_with_fresh_keys() {
        let mut spec = YcsbSpec::new(YcsbWorkload::Load, 0, 0);
        for expect in 0..100u64 {
            let (op, id) = spec.next_op();
            assert_eq!(op, YcsbOp::Insert);
            assert_eq!(id, expect, "inserts are dense and ordered");
        }
    }

    #[test]
    fn a_is_half_reads_half_updates() {
        let c = mix_of(YcsbWorkload::A, 10_000);
        let reads = c.get(&YcsbOp::Read).copied().unwrap_or(0);
        let updates = c.get(&YcsbOp::Update).copied().unwrap_or(0);
        assert_eq!(reads + updates, 10_000);
        assert!((4_500..5_500).contains(&reads), "reads {reads}");
    }

    #[test]
    fn c_is_read_only() {
        let c = mix_of(YcsbWorkload::C, 5_000);
        assert_eq!(c.get(&YcsbOp::Read), Some(&5_000));
    }

    #[test]
    fn f_has_rmw() {
        let c = mix_of(YcsbWorkload::F, 10_000);
        let rmw = c.get(&YcsbOp::ReadModifyWrite).copied().unwrap_or(0);
        assert!((4_500..5_500).contains(&rmw), "rmw {rmw}");
    }

    #[test]
    fn d_inserts_grow_population_and_reads_follow() {
        let mut spec = YcsbSpec::new(YcsbWorkload::D, 1_000, 0);
        let mut max_read = 0;
        for _ in 0..20_000 {
            let (op, id) = spec.next_op();
            if op == YcsbOp::Read {
                max_read = max_read.max(id);
            } else {
                assert_eq!(op, YcsbOp::Insert);
                assert!(id >= 1_000, "inserts append past the population");
            }
        }
        assert!(
            max_read >= 1_000,
            "reads reach newly inserted keys: {max_read}"
        );
    }

    #[test]
    fn names_and_mixes_are_consistent() {
        for w in YcsbWorkload::all() {
            let (r, u, i, f, s) = w.mix();
            assert_eq!(r + u + i + f + s, 100, "{}", w.name());
        }
    }

    #[test]
    fn e_is_mostly_scans_with_bounded_lengths() {
        let c = mix_of(YcsbWorkload::E, 10_000);
        let scans = c.get(&YcsbOp::Scan).copied().unwrap_or(0);
        let inserts = c.get(&YcsbOp::Insert).copied().unwrap_or(0);
        assert_eq!(scans + inserts, 10_000);
        assert!((9_200..9_800).contains(&scans), "scans {scans}");

        let mut spec = YcsbSpec::new(YcsbWorkload::E, 10_000, 0);
        for _ in 0..1_000 {
            let len = spec.next_scan_len();
            assert!((1..=100).contains(&len), "scan length {len}");
        }
        assert_eq!(YcsbWorkload::E.dist(), RequestDist::Zipfian);
        assert!(YcsbWorkload::E.needs_load_phase());
    }
}
