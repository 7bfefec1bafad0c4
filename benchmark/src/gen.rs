//! Seeded input generation: xorshift64*, scrambled zipfian, the four op
//! mixes, and the key/value encodings every response is checked against.
//!
//! Lives here and not in `crates/workloads` so a later PR cannot move the
//! benchmark's inputs: the same `--seed` must give the same op stream on
//! the parent and on the change.

/// xorshift64* — small, fast, and good enough for workload shaping.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed so that seeds 0, 1, 2… start far apart
        // and the state is never zero.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        // 128-bit multiply-shift: unbiased enough for n ≪ 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian over `[0, n)` (Gray et al., the YCSB generator), rank 0 hottest.
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 2, "zipfian needs at least two items");
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    #[inline]
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Scrambled: the hot ranks are spread over the key space (and so over
    /// both shards) instead of clustering at the low ids.
    #[inline]
    pub fn scrambled(&self, rng: &mut Rng) -> u64 {
        fnv64(self.rank(rng)) % self.n
    }
}

#[inline]
pub fn fnv64(v: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    Scan,
}

/// One generated operation. `arg` is the value version for a PUT and the
/// item limit for a SCAN; unused for a GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
    pub arg: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Scrambled zipfian with this theta.
    Zipfian(f64),
}

/// A traffic mix. Percentages are of 100; the remainder after GET and PUT
/// is SCAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub get_pct: u32,
    pub put_pct: u32,
    pub dist: KeyDist,
    /// GETs read one of the last [`RECENT`] keys this stream wrote instead
    /// of drawing from `dist` (the read-your-writes probe of
    /// `write_ingest`).
    pub get_recent: bool,
}

/// How far back `get_recent` reaches.
pub const RECENT: usize = 64;
/// SCAN item limits are uniform in `1..=MAX_SCAN_ITEMS`.
pub const MAX_SCAN_ITEMS: u32 = 50;

/// The seeded op stream of one workload. Holds the per-key version counter,
/// so segments taken one after another continue the same stream.
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    keys: u32,
    zipf: Option<Zipfian>,
    next_version: Vec<u32>,
    recent: [u32; RECENT],
    recent_len: usize,
    recent_pos: usize,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix, keys: u32) -> OpStream {
        OpStream {
            rng: Rng::new(seed),
            mix,
            keys,
            zipf: match mix.dist {
                KeyDist::Uniform => None,
                KeyDist::Zipfian(theta) => Some(Zipfian::new(keys as u64, theta)),
            },
            // Version 0 is the preloaded value.
            next_version: vec![1; keys as usize],
            recent: [0; RECENT],
            recent_len: 0,
            recent_pos: 0,
        }
    }

    #[inline]
    fn draw_key(&mut self) -> u32 {
        match &self.zipf {
            None => self.rng.below(self.keys as u64) as u32,
            Some(z) => z.scrambled(&mut self.rng) as u32,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100) as u32;
        if roll < self.mix.get_pct {
            let key = if self.mix.get_recent && self.recent_len > 0 {
                self.recent[self.rng.below(self.recent_len as u64) as usize]
            } else {
                self.draw_key()
            };
            Op {
                kind: OpKind::Get,
                key,
                arg: 0,
            }
        } else if roll < self.mix.get_pct + self.mix.put_pct {
            let key = self.draw_key();
            let version = self.next_version[key as usize];
            self.next_version[key as usize] = version + 1;
            self.recent[self.recent_pos] = key;
            self.recent_pos = (self.recent_pos + 1) % RECENT;
            self.recent_len = (self.recent_len + 1).min(RECENT);
            Op {
                kind: OpKind::Put,
                key,
                arg: version,
            }
        } else {
            let key = self.draw_key();
            Op {
                kind: OpKind::Scan,
                key,
                arg: 1 + self.rng.below(MAX_SCAN_ITEMS as u64) as u32,
            }
        }
    }

    /// The next `n` ops of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// The highest version generated so far for `key` (0 = only preloaded).
    #[cfg(test)]
    pub fn last_version(&self, key: u32) -> u32 {
        self.next_version[key as usize] - 1
    }
}

/// Order-sensitive hash of an op sequence (determinism checks).
pub fn stream_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, op| {
        let word = (op.kind as u64) << 62 ^ (op.key as u64) << 30 ^ op.arg as u64;
        (h ^ fnv64(word)).wrapping_mul(0x100_0000_01b3)
    })
}

pub const KEY_LEN: usize = 16;

/// `user%012d` — zero-padded, so byte order equals id order.
#[inline]
pub fn write_key(buf: &mut Vec<u8>, id: u32) {
    buf.extend_from_slice(b"user");
    let mut digits = [b'0'; 12];
    let mut v = id;
    let mut i = digits.len();
    while v > 0 {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    buf.extend_from_slice(&digits);
}

pub fn key_bytes(id: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(KEY_LEN);
    write_key(&mut k, id);
    k
}

/// The id of a key produced by [`write_key`], or `None` for anything else.
pub fn parse_key(key: &[u8]) -> Option<u32> {
    let digits = key.strip_prefix(b"user")?;
    if digits.len() != 12 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let v = digits.iter().fold(0u64, |a, d| a * 10 + (d - b'0') as u64);
    u32::try_from(v).ok()
}

/// A value of `len >= 8` bytes: `(key id, version)` as two LE u32s, repeated
/// to the length, so every byte of every reply is checkable.
#[inline]
pub fn write_value(buf: &mut Vec<u8>, id: u32, version: u32, len: usize) {
    let mut word = [0u8; 8];
    word[..4].copy_from_slice(&id.to_le_bytes());
    word[4..].copy_from_slice(&version.to_le_bytes());
    let start = buf.len();
    buf.resize(start + len, 0);
    for (i, b) in buf[start..].iter_mut().enumerate() {
        *b = word[i % 8];
    }
}

/// Decode a value written by [`write_value`]: `Some((id, version))` iff the
/// length matches and every byte is consistent with its header.
#[inline]
pub fn parse_value(v: &[u8], len: usize) -> Option<(u32, u32)> {
    if v.len() != len || len < 8 {
        return None;
    }
    let (word, rest) = v.split_at(8);
    if !rest.iter().enumerate().all(|(i, b)| *b == word[i % 8]) {
        return None;
    }
    Some((
        u32::from_le_bytes(word[..4].try_into().unwrap()),
        u32::from_le_bytes(word[4..].try_into().unwrap()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: Mix = Mix {
        get_pct: 95,
        put_pct: 5,
        dist: KeyDist::Zipfian(0.99),
        get_recent: false,
    };

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let a = OpStream::new(7, HOT, 10_000).take(50_000);
        let b = OpStream::new(7, HOT, 10_000).take(50_000);
        let c = OpStream::new(8, HOT, 10_000).take(50_000);
        assert_eq!(stream_hash(&a), stream_hash(&b));
        assert_ne!(stream_hash(&a), stream_hash(&c));
    }

    #[test]
    fn segments_continue_the_stream() {
        let whole = OpStream::new(3, HOT, 1000).take(2000);
        let mut s = OpStream::new(3, HOT, 1000);
        let mut parts = s.take(700);
        parts.extend(s.take(1300));
        assert_eq!(whole, parts);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let n = 10_000u64;
        let z = Zipfian::new(n, 0.99);
        let mut rng = Rng::new(1);
        let draws = 200_000;
        let mut top = 0u64;
        for _ in 0..draws {
            let r = z.rank(&mut rng);
            assert!(r < n);
            if r < n / 100 {
                top += 1;
            }
        }
        // Under theta = 0.99 the hottest 1 % of ranks draw about half the
        // accesses; uniform would give them 1 %.
        let share = top as f64 / draws as f64;
        assert!((0.4..0.7).contains(&share), "top-1% share {share}");
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = Rng::new(2);
        let low = (0..100_000)
            .filter(|_| z.scrambled(&mut rng) < 5_000)
            .count();
        assert!((35_000..65_000).contains(&low), "low half got {low}");
    }

    #[test]
    fn put_versions_count_up_per_key() {
        let mix = Mix {
            get_pct: 0,
            put_pct: 100,
            dist: KeyDist::Uniform,
            get_recent: false,
        };
        let mut s = OpStream::new(5, mix, 16);
        let mut seen = [0u32; 16];
        for op in s.take(1000) {
            assert_eq!(op.kind, OpKind::Put);
            seen[op.key as usize] += 1;
            assert_eq!(op.arg, seen[op.key as usize]);
        }
        for (k, n) in seen.iter().enumerate() {
            assert_eq!(s.last_version(k as u32), *n);
        }
    }

    #[test]
    fn recent_gets_read_written_keys() {
        let mix = Mix {
            get_pct: 5,
            put_pct: 95,
            dist: KeyDist::Uniform,
            get_recent: true,
        };
        let ops = OpStream::new(9, mix, 100_000).take(20_000);
        let mut written = std::collections::HashSet::new();
        let mut gets = 0;
        for op in &ops {
            match op.kind {
                OpKind::Put => {
                    written.insert(op.key);
                }
                OpKind::Get if !written.is_empty() => {
                    gets += 1;
                    assert!(written.contains(&op.key));
                }
                _ => {}
            }
        }
        assert!(gets > 500);
    }

    #[test]
    fn key_and_value_round_trip() {
        for id in [0u32, 7, 199_999, u32::MAX] {
            let k = key_bytes(id);
            assert_eq!(k.len(), KEY_LEN);
            assert_eq!(parse_key(&k), Some(id));
        }
        assert_eq!(key_bytes(42), b"user000000000042");
        assert!(key_bytes(9) < key_bytes(10));
        assert_eq!(parse_key(b"user00000000004x"), None);

        let mut v = Vec::new();
        write_value(&mut v, 123, 456, 100);
        assert_eq!(parse_value(&v, 100), Some((123, 456)));
        assert_eq!(parse_value(&v, 200), None);
        v[57] ^= 1;
        assert_eq!(parse_value(&v, 100), None);
    }
}
