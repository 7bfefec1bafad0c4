//! LevelDB-style bloom filter (double hashing over a 64-bit base hash).

/// A serializable bloom filter built over a fixed key set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u32,
}

/// FNV-1a 64-bit, the base hash both probes derive from.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

impl Bloom {
    /// Build a filter for `keys` at `bits_per_key` (10 in LevelDB ≈ 1% FPR).
    pub fn build<'a>(keys: impl ExactSizeIterator<Item = &'a [u8]>, bits_per_key: usize) -> Self {
        let n = keys.len().max(1);
        let nbits = (n * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        // k = bits_per_key * ln2, clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut bits = vec![0u8; nbytes];
        for key in keys {
            let mut h = fnv1a(key);
            let delta = h.rotate_right(17) | 1;
            for _ in 0..k {
                let bit = (h % nbits as u64) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        Bloom { bits, k }
    }

    /// Whether `key` may be present (no false negatives).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let nbits = self.bits.len() * 8;
        if nbits == 0 {
            return true;
        }
        let mut h = fnv1a(key);
        let delta = h.rotate_right(17) | 1;
        for _ in 0..self.k {
            let bit = (h % nbits as u64) as usize;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Serialize: `[k: u32][bits...]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserialize a filter produced by [`Self::encode`].
    pub fn decode(data: &[u8]) -> Option<Self> {
        if data.len() < 4 {
            return None;
        }
        let k = u32::from_le_bytes(data[0..4].try_into().ok()?);
        if !(1..=30).contains(&k) {
            return None;
        }
        Some(Bloom {
            bits: data[4..].to_vec(),
            k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(1000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), 10);
        for k in &ks {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let ks = keys(1000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), 10);
        let fp = (0..10_000)
            .filter(|i| bloom.may_contain(format!("absent{i:08}").as_bytes()))
            .count();
        assert!(fp < 500, "FPR {} > 5%", fp as f64 / 10_000.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(100);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), 10);
        let decoded = Bloom::decode(&bloom.encode()).unwrap();
        assert_eq!(decoded, bloom);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Bloom::decode(&[]).is_none());
        assert!(Bloom::decode(&[0, 0, 0, 0, 1]).is_none(), "k = 0 invalid");
    }

    #[test]
    fn empty_key_set_is_safe() {
        let bloom = Bloom::build(std::iter::empty::<&[u8]>(), 10);
        // May return anything, but must not panic.
        let _ = bloom.may_contain(b"whatever");
    }
}
