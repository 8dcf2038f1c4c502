//! The FNV-1a 128-bit hash keying the corpus-wide class cache.
//!
//! The semantics crate is deliberately dependency-light, so it carries
//! its own copy of this ~10-line hash instead of pulling one in. The
//! keys hashed here (slice texts) come from the firmware image under
//! analysis, not from untrusted network peers, so the cheap non-keyed
//! hash is appropriate.

/// FNV-1a over 128 bits, for keys where the 64-bit variant's collision
/// probability is no longer comfortable (the corpus-wide class cache
/// keys millions of distinct slice texts). Same discipline as the FRAC
/// store: the wide hash narrows the candidate, full-text comparison
/// confirms it.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv128;

    #[test]
    fn fnv128_matches_published_vectors() {
        // FNV-1a 128-bit test vectors from the reference
        // implementation's suite.
        assert_eq!(fnv128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(fnv128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
        assert_ne!(fnv128(b"ab"), fnv128(b"ba"));
    }
}
