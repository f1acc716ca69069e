//! FxHash: the multiply-rotate hasher of rustc (and of egg's tables),
//! written out here so the engine stays dependency-free. One lookup in an
//! e-graph table costs one multiply per word instead of a SipHash round.
//!
//! Fx mixes far less than SipHash, and it is not keyed, so colliding keys
//! can be worked out offline. Some keys do come from outside the program:
//! a served request's symbol names and literals become e-nodes in the
//! hash-cons memo. So every map starts its hashers from a seed drawn once
//! per process, and [`finish`](Hasher::finish) rotates the well-mixed high
//! bits of the product down to where the table takes its bucket index (as
//! rustc-hash 2 does).
//!
//! [`Language::op_key`](crate::Language::op_key) stays on SipHash. Its
//! 64-bit value is compared directly, so a collision between two
//! operators puts one operator's classes into the other's index bucket.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHasher: each word is folded in as
/// `hash = (hash.rotl(5) ^ word) * K`.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// Builds [`FxHasher`]s that start from this process's random seed (see
/// the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        FxBuildHasher { seed }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut rest = chunks.remainder();
        if rest.len() >= 4 {
            let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            self.add(u64::from(word));
            rest = &rest[4..];
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_deterministic_and_distinguish_ids() {
        assert_eq!(fx(&(3u32, 1u32)), fx(&(3u32, 1u32)));
        assert_ne!(fx(&(3u32, 1u32)), fx(&(1u32, 3u32)));
        assert_ne!(fx(&"ab"), fx(&"ba"));
        // Byte strings of every tail length (8-, 4- and 1-byte steps).
        let seen: FxHashSet<u64> = (0..20).map(|n| fx(&vec![7u8; n])).collect();
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn the_seed_changes_every_hash() {
        let (a, b) = (FxBuildHasher { seed: 1 }, FxBuildHasher { seed: 2 });
        for key in ["x", "A_1", "a.b.c.d.e.f.g"] {
            assert_ne!(a.hash_one(key), b.hash_one(key), "{key}");
        }
        assert_ne!(a.hash_one((7u32, 2u32)), b.hash_one((7u32, 2u32)));
    }

    #[test]
    fn map_round_trips() {
        let mut map: FxHashMap<(u32, u64), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, u64::from(i) << 1), i as usize);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000u32).all(|i| map[&(i, u64::from(i) << 1)] == i as usize));
    }
}
