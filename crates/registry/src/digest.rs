//! Content digests for registry records and log segments.
//!
//! The registry needs a digest that is (a) a pure function of record
//! bytes, (b) identical on every platform, and (c) dependency-free — the
//! build environment is offline, so no external hash crates. FNV-1a over
//! the canonical record line meets all three; it is a *content* digest for
//! drift detection and chain-of-custody bookkeeping, not a cryptographic
//! commitment (the threat model is accidental divergence between runs and
//! machines, not an adversary forging registry files).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit content digest, displayed as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest64(u64);

impl Digest64 {
    /// The digest of an empty chain — the root value before any record has
    /// been appended.
    pub const EMPTY: Self = Self(FNV_OFFSET);

    /// FNV-1a over `bytes`.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Self(fold(FNV_OFFSET, bytes))
    }

    /// Extends a chain: folds this digest's bytes and `next`'s bytes into
    /// a fresh FNV-1a state. `chain_{i} = EMPTY.link(d_1).link(d_2)...`
    /// depends on every linked digest and their order.
    #[must_use]
    pub fn link(self, next: Self) -> Self {
        let mut state = fold(FNV_OFFSET, &self.0.to_le_bytes());
        state = fold(state, &next.0.to_le_bytes());
        Self(state)
    }

    /// The 16-digit lowercase hex form used in canonical record lines.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-digit hex form written by [`Digest64::to_hex`].
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

impl core::fmt::Display for Digest64 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(Digest64::of(b"").to_hex(), "cbf29ce484222325");
        assert_eq!(Digest64::of(b"a").to_hex(), "af63dc4c8601ec8c");
        assert_eq!(Digest64::of(b"foobar").to_hex(), "85944171f73967e8");
    }

    #[test]
    fn hex_roundtrip() {
        let d = Digest64::of(b"record");
        assert_eq!(Digest64::from_hex(&d.to_hex()), Some(d));
        assert_eq!(d.to_hex().len(), 16);
        assert!(Digest64::from_hex("xyz").is_none());
        assert!(Digest64::from_hex("00").is_none());
    }

    #[test]
    fn chain_depends_on_order() {
        let a = Digest64::of(b"a");
        let b = Digest64::of(b"b");
        let ab = Digest64::EMPTY.link(a).link(b);
        let ba = Digest64::EMPTY.link(b).link(a);
        assert_ne!(ab, ba);
        // Re-deriving the same chain gives the same value.
        assert_eq!(ab, Digest64::EMPTY.link(a).link(b));
    }

    #[test]
    fn display_matches_to_hex() {
        let d = Digest64::of(b"x");
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
