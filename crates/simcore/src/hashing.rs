//! A deterministic, dependency-free hasher for hot-path tables.
//!
//! The std `HashMap` defaults to SipHash-1-3 with per-process random keys:
//! DoS-resistant, but ~10× more expensive per integer key than the hot
//! loops of the simulator can afford, and randomly seeded — a property the
//! determinism story must not *rely* on being harmless. This module
//! supplies the well-known "Fx" multiply-rotate hash (the scheme rustc
//! itself uses for its internal tables): a single rotate/xor/multiply per
//! word, zero state beyond the accumulator, and a fixed seed, so hashes —
//! though **not** map iteration order, which still depends on insertion
//! history and capacity — are identical across runs and platforms.
//!
//! Use [`FxHashMap`] only where the simulator never iterates
//! the table (or provably sorts/indexes the result, like
//! `FirstTouch::pages_per_mc`): lookup results stay byte-identical under
//! any hasher, iteration order does not. Keys here are trusted simulator
//! addresses, not attacker-controlled input, so the loss of DoS resistance
//! is irrelevant.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant: a 64-bit prime-ish pattern with good
/// avalanche behaviour under the rotate-xor-multiply step (the constant
/// popularised by Firefox's and rustc's Fx hash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast word-at-a-time hasher (rotate, xor, multiply per word).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low half. The multiply
        // only propagates entropy upward, so without this, keys sharing
        // low bits (64-byte-aligned line addresses!) land in few hash
        // buckets — `HashMap` masks the *low* bits for its bucket index.
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (fixed seed, no per-map state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash — for hot per-access tables whose
/// iteration order never reaches an artefact.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_of<T: std::hash::Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        for v in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(hash_of(v), hash_of(v));
        }
        // Pin one value so a silent change to the scheme cannot slip in:
        // hash(0x2A) = rotl(0,5)^0x2A * K, then high half folded down.
        let raw = 0x2Au64.wrapping_mul(K);
        assert_eq!(hash_of(0x2Au64), raw ^ (raw >> 32));
    }

    #[test]
    fn nearby_keys_spread() {
        // Sequential line addresses (the dominant key pattern) must not
        // collide in the low bits HashMap uses for bucketing.
        let mut low_bits = HashSet::new();
        for line in 0..1024u64 {
            low_bits.insert(hash_of(line * 64) & 0x3FF);
        }
        assert!(
            low_bits.len() > 512,
            "low-bit spread too poor: {} distinct of 1024",
            low_bits.len()
        );
    }

    #[test]
    fn byte_writes_match_padding_rule() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
        // Multi-chunk input consumes 8 bytes at a time.
        let mut c = FxHasher::default();
        c.write(&[0xAA; 16]);
        let mut d = FxHasher::default();
        d.write_u64(u64::from_le_bytes([0xAA; 8]));
        d.write_u64(u64::from_le_bytes([0xAA; 8]));
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(10, 1);
        m.insert(20, 2);
        assert_eq!(m.get(&10), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
