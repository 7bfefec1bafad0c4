//! Request distributions (YCSB's generators, reimplemented).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of key ids over `[0, n)`.
pub trait KeyDist: Send {
    /// Draw the next key id.
    fn next_id(&mut self) -> u64;
    /// Inform the distribution that the key space grew (inserts).
    fn grow(&mut self, _new_n: u64) {}
}

/// Monotonically increasing ids (db_bench `fillseq` / `readseq`).
pub(crate) struct Sequential {
    next: u64,
    n: u64,
}

impl Sequential {
    /// Count from `start`, wrapping at `n`.
    pub(crate) fn new(start: u64, n: u64) -> Self {
        assert!(n > 0);
        Sequential { next: start, n }
    }
}

impl KeyDist for Sequential {
    fn next_id(&mut self) -> u64 {
        let id = self.next % self.n;
        self.next += 1;
        id
    }
}

/// Uniformly random ids.
pub struct Uniform {
    rng: StdRng,
    n: u64,
}

impl Uniform {
    /// Uniform over `[0, n)`, seeded for reproducibility.
    pub(crate) fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0);
        Uniform {
            rng: StdRng::seed_from_u64(seed),
            n,
        }
    }
}

impl KeyDist for Uniform {
    fn next_id(&mut self) -> u64 {
        self.rng.gen_range(0..self.n)
    }

    fn grow(&mut self, new_n: u64) {
        self.n = new_n;
    }
}

/// YCSB's Zipfian generator (Gray et al.'s algorithm) with the standard
/// skew θ = 0.99, plus FNV scrambling so hot keys spread over the key
/// space ("scrambled zipfian", what YCSB workloads A-C/F actually use).
pub struct Zipfian {
    rng: StdRng,
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

fn fnv1a64(x: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

impl Zipfian {
    /// Zipf(θ=0.99) over `[0, n)`, scrambled.
    pub(crate) fn new(n: u64, seed: u64) -> Self {
        Self::with_theta(n, seed, 0.99, true)
    }

    /// Full control over skew and scrambling.
    pub(crate) fn with_theta(n: u64, seed: u64, theta: f64, scramble: bool) -> Self {
        assert!(n > 0);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            rng: StdRng::seed_from_u64(seed),
            n,
            theta,
            alpha,
            zetan,
            eta,
            scramble,
        }
    }

    fn raw_next(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

impl KeyDist for Zipfian {
    fn next_id(&mut self) -> u64 {
        let rank = self.raw_next().min(self.n - 1);
        if self.scramble {
            fnv1a64(rank) % self.n
        } else {
            rank
        }
    }
}

/// YCSB's Latest distribution: Zipfian over recency, favouring the most
/// recently inserted keys (workload D).
pub struct Latest {
    zipf: Zipfian,
    n: u64,
}

impl Latest {
    /// Latest over a key space that currently holds `n` keys.
    pub fn new(n: u64, seed: u64) -> Self {
        Latest {
            zipf: Zipfian::with_theta(n, seed, 0.99, false),
            n,
        }
    }
}

impl KeyDist for Latest {
    fn next_id(&mut self) -> u64 {
        let back = self.zipf.raw_next().min(self.n - 1);
        self.n - 1 - back
    }

    fn grow(&mut self, new_n: u64) {
        // YCSB re-targets the zipfian at the new max; rebuilding zeta each
        // insert is too slow, so grow in steps.
        if new_n > self.n * 2 {
            self.zipf = Zipfian::with_theta(new_n, 7, 0.99, false);
        }
        self.n = new_n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sequential_counts_and_wraps() {
        let mut d = Sequential::new(0, 3);
        let got: Vec<u64> = (0..5).map(|_| d.next_id()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn uniform_stays_in_range_and_spreads() {
        let mut d = Uniform::new(1000, 42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let id = d.next_id();
            assert!(id < 1000);
            seen.insert(id);
        }
        assert!(seen.len() > 900, "uniform covered most of the space");
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut d = Zipfian::with_theta(10_000, 1, 0.99, false);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(d.next_id()).or_default() += 1;
        }
        let top = counts.get(&0).copied().unwrap_or(0);
        assert!(top > 5_000, "rank 0 should dominate: {top}");
        let tail: u64 = (5_000..10_000)
            .map(|i| counts.get(&i).copied().unwrap_or(0))
            .sum();
        assert!(tail < top, "long tail is cold");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut d = Zipfian::new(10_000, 1);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            let id = d.next_id();
            assert!(id < 10_000);
            *counts.entry(id).or_default() += 1;
        }
        // Still skewed (one key takes ~10% of draws) but not at rank 0.
        let (hot, hits) = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        assert!(*hits > 3_000, "hot key drew {hits} of 50k");
        assert_ne!(*hot, 0, "scrambling moved the hot key");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut d = Latest::new(10_000, 3);
        let mut recent = 0u64;
        for _ in 0..10_000 {
            if d.next_id() >= 9_000 {
                recent += 1;
            }
        }
        assert!(recent > 7_000, "most draws near the newest keys: {recent}");
    }

    #[test]
    fn latest_grow_tracks_inserts() {
        let mut d = Latest::new(100, 3);
        d.grow(1_000);
        let mut max = 0;
        for _ in 0..1_000 {
            max = max.max(d.next_id());
        }
        assert!(max >= 900, "draws reach the grown space: {max}");
    }

    #[test]
    fn distributions_are_reproducible() {
        let mut a = Zipfian::new(1000, 9);
        let mut b = Zipfian::new(1000, 9);
        for _ in 0..100 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }
}
