//! Key and value byte generation.
//!
//! The paper's setup: 16 B keys, values from 16 B to 256 B (64 B default,
//! matching FlatStore/P²KVS and the small-value dominance at Facebook).

/// Fixed-width key formatter: `k` + zero-padded decimal, exactly
/// `width` bytes.
#[derive(Debug, Clone)]
pub struct KeyGen {
    width: usize,
}

impl KeyGen {
    /// Keys of exactly `width` bytes (>= 8; paper default 16).
    pub(crate) fn new(width: usize) -> Self {
        assert!(width >= 8, "key width too small to format");
        KeyGen { width }
    }

    /// The paper's 16-byte keys.
    pub fn paper() -> Self {
        KeyGen::new(16)
    }

    /// Render key `id` into a fresh buffer.
    pub fn key(&self, id: u64) -> Vec<u8> {
        let mut buf = vec![0u8; self.width];
        self.key_into(id, &mut buf);
        buf
    }

    /// Render key `id` into `buf` (must be exactly `width` bytes).
    pub fn key_into(&self, id: u64, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.width);
        buf[0] = b'k';
        let digits = self.width - 1;
        let mut v = id;
        for i in (1..=digits).rev() {
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        debug_assert_eq!(v, 0, "key id exceeds width");
    }

    /// Key width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Deterministic value bytes: `size` bytes derived from the key id (so
/// read-side verification is possible without storing expectations).
#[derive(Debug, Clone)]
pub struct ValueGen {
    size: usize,
}

impl ValueGen {
    /// Values of exactly `size` bytes.
    pub fn new(size: usize) -> Self {
        ValueGen { size }
    }

    /// Fill `buf` (resized to the value size) for key `id`.
    pub fn value_into(&self, id: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.size, 0);
        let seed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
        for (i, b) in buf.iter_mut().enumerate() {
            *b = seed[i % 8] ^ (i as u8);
        }
    }

    /// Fresh value buffer for key `id`.
    pub fn value(&self, id: u64) -> Vec<u8> {
        let mut v = Vec::new();
        self.value_into(id, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_ordered() {
        let g = KeyGen::paper();
        let a = g.key(41);
        let b = g.key(42);
        let c = g.key(1_000_000);
        assert_eq!(a.len(), 16);
        assert!(a < b && b < c, "lexicographic order matches numeric order");
    }

    #[test]
    fn key_into_matches_key() {
        let g = KeyGen::new(12);
        let mut buf = vec![0u8; 12];
        g.key_into(7_654_321, &mut buf);
        assert_eq!(buf, g.key(7_654_321));
        assert_eq!(&buf, b"k00007654321");
    }

    #[test]
    fn values_are_deterministic_and_distinct() {
        let v = ValueGen::new(64);
        assert_eq!(v.value(5), v.value(5));
        assert_ne!(v.value(5), v.value(6));
        assert_eq!(v.value(5).len(), 64);
    }
}
