//! A fast, deterministic hasher for the workspace's hot maps.
//!
//! The per-frame maps (timer tables here; neighbor cache, RREQ dedup
//! set, pending-ack table in `manet-secure`) are touched once or more
//! per delivered frame; SipHash's keyed setup and finalization showed
//! up in scale-run profiles. This is the well-known Fx/rustc
//! multiply-rotate fold: not DoS-resistant — irrelevant here, keys
//! come from the simulation itself — but seed-free, so
//! iteration-independent lookups stay deterministic run-to-run (map
//! *iteration order* must still never leak into protocol behavior;
//! that contract predates this hasher and is pinned by the determinism
//! and golden-trace suites, and statically by manet-lint's
//! `unordered-iter` rule).
//!
//! `manet-secure` re-exports this module as `crate::fxhash`.
//! `manet-crypto`, which sits below this crate, needs no copy: its only
//! tables are keyed by SHA-256 digests and pass a digest word through.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap`/`HashSet` alias pair on the Fx hasher.
// lint: allow(default-hasher) — alias definition site: the std type is rebound onto the Fx hasher here
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
// lint: allow(default-hasher) — alias definition site: the std type is rebound onto the Fx hasher here
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash folding hasher (64-bit variant).
#[derive(Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // lint: allow(panic-budget) — chunks_exact(8) guarantees 8-byte slices; the conversion cannot fail
            self.add(u64::from_le_bytes(c.try_into().expect("8 bytes")));
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
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche. The folding multiply in `add` only
        // propagates entropy *upward*, so a key whose variation sits in
        // the top bytes of its last word (e.g. addresses differing only
        // in their final big-endian groups, which land in the high bits
        // of the little-endian chunk) would leave the low — bucket-index
        // — bits constant and degrade the map to a linked list. One
        // fold-multiply-fold round pushes high-bit entropy back down;
        // two extra ALU ops per lookup, still far below SipHash setup.
        let h = self.hash;
        let h = (h ^ (h >> 32)).wrapping_mul(SEED);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(b"hello world!!"), hash_of(b"hello world!!"));
        assert_ne!(hash_of(b"hello world!!"), hash_of(b"hello world!?"));
        // Tail handling: same prefix, differing short remainder.
        assert_ne!(hash_of(b"12345678a"), hash_of(b"12345678b"));
    }

    #[test]
    fn map_basics_work() {
        let mut m: FxHashMap<[u8; 16], u32> = FxHashMap::default();
        for i in 0..100u32 {
            let mut k = [0u8; 16];
            k[..4].copy_from_slice(&i.to_le_bytes());
            m.insert(k, i);
        }
        assert_eq!(m.len(), 100);
        let mut k = [0u8; 16];
        k[..4].copy_from_slice(&42u32.to_le_bytes());
        assert_eq!(m.get(&k), Some(&42));
    }

    #[test]
    fn high_byte_entropy_reaches_the_bucket_bits() {
        // Keys differing only in the last two bytes of a 16-byte key —
        // the shape of structured IPv6 addresses (`fec0::…::d`) — must
        // not collide in the low bits hashbrown uses for bucket
        // selection. Without the finishing avalanche, every one of
        // these collided in the bottom 48 bits.
        let mut low_bits = std::collections::HashSet::new();
        for d in 0..1024u16 {
            let mut k = [0u8; 16];
            k[0] = 0xfe;
            k[1] = 0xc0;
            k[14..16].copy_from_slice(&d.to_be_bytes());
            low_bits.insert(hash_of(&k) & 0xfff);
        }
        // 1024 keys into 4096 buckets: expect ~900 distinct values;
        // anything below half signals clustering.
        assert!(
            low_bits.len() > 512,
            "low-bit clustering: {} distinct of 1024",
            low_bits.len()
        );
    }

    #[test]
    fn set_dedup_works() {
        let mut s: FxHashSet<(u64, u64)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
    }
}
