//! In-crate CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Every `.sptrc` frame ends in a CRC-32 over its
//! `[kind | codec | len | stored]` bytes so a flipped bit is caught before
//! a corrupted payload reaches the decompressor or the JSON parser
//! (DESIGN.md §14). The workspace
//! builds offline with no crates.io access, so the checksum is implemented
//! here: the standard byte-at-a-time table algorithm, table built at
//! compile time. This is the same CRC that gzip, PNG and zlib use, so a
//! frame checksum can be verified with any external tool.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Streaming CRC-32 state, for callers that hash a frame in pieces.
#[derive(Debug, Clone, Copy)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Fresh state (all-ones preset, per the standard).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state = (self.state >> 8) ^ TABLE[((self.state ^ b as u32) & 0xFF) as usize];
        }
    }

    /// The final checksum (final XOR applied; the state is not consumed).
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32 test vector ("check" in the Rocksoft model).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data = b"SPTRC frame payload with some bytes";
        let base = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {i} bit {bit}");
                copy[i] ^= 1 << bit;
            }
        }
    }
}
