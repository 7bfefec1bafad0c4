//! CRC-32C (Castagnoli), the checksum LevelDB uses for log records and
//! table blocks, and the one every wire frame and snapshot image carries.
//!
//! Two implementations compute the same function:
//!
//! - **Hardware**: on x86-64 CPUs that report SSE4.2 (checked at run time
//!   with `is_x86_feature_detected!`, which caches the CPUID result), the
//!   `crc32` instruction folds 8 bytes per step. No build flag selects it;
//!   the CPU does.
//! - **Bytewise table**: one 256-entry lookup per byte, no dependencies.
//!   The portable fallback everywhere else, and the reference the tests
//!   hold the hardware path to.
//!
//! [`crc32c_append`] continues a checksum across buffers, so an image held
//! as several pieces (one per DIMM) is checksummed in one pass without
//! concatenating it first: `crc32c(a ++ b) == crc32c_append(crc32c(a), b)`.

const POLY: u32 = 0x82F6_3B78; // reflected CRC-32C polynomial

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Compute the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extend `crc` — the CRC-32C of some prefix, or 0 for none — over `data`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the check above proved this CPU executes SSE4.2
        // instructions, the only precondition of `append_sse42`.
        return unsafe { append_sse42(crc, data) };
    }
    append_table(crc, data)
}

/// The bytewise table loop.
fn append_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The SSE4.2 `crc32` instruction, 8 bytes per step, then a byte at a
/// time for the tail.
///
/// # Safety
///
/// The CPU must support SSE4.2 (`is_x86_feature_detected!("sse4.2")`);
/// executing `crc32` on one that does not is undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!crc);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    type Crc = fn(u32, &[u8]) -> u32;

    /// The hardware path, when this CPU has one.
    fn hardware() -> Option<Crc> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the detection check on the line above.
            return Some(|c, d| unsafe { append_sse42(c, d) });
        }
        None
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC-32C, on every path this CPU runs.
        let inc: Vec<u8> = (0u8..32).collect();
        let dec: Vec<u8> = (0u8..32).rev().collect();
        let paths: Vec<(&str, Crc)> = [
            ("table", append_table as Crc),
            ("dispatched", |_, d| crc32c(d)),
        ]
        .into_iter()
        .chain(hardware().map(|f| ("sse4.2", f)))
        .collect();
        for (name, f) in paths {
            assert_eq!(f(0, &[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(f(0, &[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(f(0, &inc), 0x46DD_794E, "{name}");
            assert_eq!(f(0, &dec), 0x113F_DB5C, "{name}");
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32c(&[]), 0);
        assert_eq!(crc32c_append(0x1234_5678, &[]), 0x1234_5678);
    }

    #[test]
    fn differs_on_single_bit() {
        let a = crc32c(b"hello world");
        let b = crc32c(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn hardware_matches_bytewise_at_every_length_and_offset() {
        let Some(hw) = hardware() else {
            return; // the bytewise loop is the only path on this CPU
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.gen()).collect();
        for off in 0..8 {
            for len in 0..=4096 {
                let d = &buf[off..off + len];
                assert_eq!(hw(0, d), append_table(0, d), "offset {off} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        assert_eq!(hw(0, &big), append_table(0, &big), "1 MiB buffer");
        assert_eq!(
            crc32c(&big),
            hw(0, &big),
            "dispatch picks the hardware path"
        );
    }

    #[test]
    fn appending_composes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let buf: Vec<u8> = (0..2048).map(|_| rng.gen()).collect();
        for split in [0, 1, 7, 8, 9, 63, 64, 1000, 2047, 2048] {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                crc32c_append(crc32c(a), b),
                crc32c(&buf),
                "split at {split}"
            );
            assert_eq!(append_table(append_table(0, a), b), crc32c(&buf));
        }
        // Three pieces, as a multi-DIMM image is checksummed.
        let pieces = [&buf[..100], &buf[100..1500], &buf[1500..]];
        let crc = pieces.iter().fold(0, |c, p| crc32c_append(c, p));
        assert_eq!(crc, crc32c(&buf));
    }
}
