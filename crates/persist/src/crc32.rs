//! CRC-32 (IEEE 802.3: reflected, polynomial `0xEDB88320`), hand-rolled
//! for the same reason `dduf_core::rng` vendors SplitMix64: the
//! workspace must build fully offline, so the `crc32fast` crate is
//! deliberately not a dependency. Both framed files (snapshot and counts)
//! are checksummed on every open and every checkpoint, so the loop is
//! *slicing-by-8*: eight tables, computed at compile time, fold eight
//! bytes per step; a tail under eight bytes goes byte at a time.

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The CRC-32 checksum of `data` (IEEE polynomial, as in zip/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard check vectors every CRC-32 implementation must match.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Any single-bit flip changes the checksum (the property the journal
    /// relies on to detect mid-log corruption).
    #[test]
    fn single_bit_flips_detected() {
        let base = b"+works(dolors). -u_benefit(dolors).".to_vec();
        let clean = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}.{bit}");
            }
        }
    }

    /// The byte-at-a-time loop the slicing one replaced.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Bytes that differ from position to position (SplitMix64-style).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Every length 0..=64 at every alignment 0..8 — each split between
    /// the eight-byte steps and the byte-at-a-time tail — and a 1 MB
    /// buffer agree with the byte-at-a-time loop.
    #[test]
    fn slicing_by_8_equals_byte_at_a_time() {
        let data = noise(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), reference(slice), "len {len} at {offset}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), reference(&big));
    }
}
