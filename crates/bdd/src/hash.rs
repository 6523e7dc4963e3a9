//! A fast, non-cryptographic hasher for the crate's auxiliary maps: the
//! per-call memos and visited sets of `sat_count`, `try_cofactors_intersect`,
//! `node_count`, `support`, DOT export, the minimizers and the consistency
//! check, and the interning of varsets and rename maps.
//!
//! The unique table and the computed table do not use it: they are flat
//! arrays that hash with the same multiply–rotate–xor step themselves
//! (`table.rs`). The default `std` hasher (SipHash) is DoS-resistant but
//! several times slower than necessary here. This is a minimal
//! re-implementation of the scheme popularized by rustc's `FxHasher`; keys
//! are short tuples of `u32`s produced internally, so DoS resistance is
//! irrelevant.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the 64-bit Fx scheme (derived from the
/// golden ratio, as in FxHash/rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast `Hasher` for small integer keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 3u32)));
    }

    #[test]
    fn distinguishes_tuples() {
        assert_ne!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(3u32, 2u32, 1u32)));
        assert_ne!(hash_of(&(0u32, 0u32, 1u32)), hash_of(&(0u32, 1u32, 0u32)));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential keys (the common case for node indices) should not all
        // collide modulo a power-of-two table size.
        let mut buckets = std::collections::HashSet::new();
        for i in 0u32..1024 {
            buckets.insert(hash_of(&i) % 64);
        }
        assert!(buckets.len() > 32, "poor spread: {}", buckets.len());
    }

    #[test]
    fn hashes_byte_slices() {
        assert_ne!(hash_of(&b"abc"[..]), hash_of(&b"abd"[..]));
        assert_eq!(hash_of(&b"abcdefghij"[..]), hash_of(&b"abcdefghij"[..]));
    }
}
