//! Memoization of RSA signature-verification verdicts.
//!
//! Verification is a pure function of `(public key, payload, signature)`,
//! and the secure-MANET protocol re-runs it on identical triples
//! constantly: a destination answering several copies of one RREQ flood
//! re-checks the same source proof and the shared SRR prefix per copy; a
//! signed-RERR spammer repeats one `[IIP, I'IP]` payload verbatim. A
//! bounded LRU of verdicts turns every repeat into a hash lookup — and,
//! because the verdict is pure, memoizing it cannot change any protocol
//! decision, only the CPU spent reaching it.
//!
//! The cache key is the triple of digests
//! `(SHA-256(pk), SHA-256(payload), SHA-256(sig))` — the full inputs are
//! never retained, and a forged signature over a cached-valid payload
//! maps to a *different* key, so a cached `true` can never be returned
//! for material that was not itself verified (see the poisoning
//! proptests in `tests/properties.rs`).

use crate::rsa::{PublicKey, Signature};
use crate::sha256::sha256;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Cache key: digests of the exact verification inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyKey {
    pk: [u8; 32],
    payload: [u8; 32],
    sig: [u8; 32],
}

/// A key hashes to the first eight bytes of its three digests, XORed:
/// they are SHA-256 outputs, uniform already, so there is nothing left
/// to mix.
impl Hash for VerifyKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let word = |digest: &[u8; 32]| {
            let mut w = [0; 8];
            w.copy_from_slice(&digest[..8]);
            u64::from_le_bytes(w)
        };
        state.write_u64(word(&self.pk) ^ word(&self.payload) ^ word(&self.sig));
    }
}

/// The pass-through hasher of the [`VerifyKey`] tables: `finish` is the
/// word the key wrote. Nothing iterates those tables (the verify cache
/// only looks up; the batch verifier's set and map are only probed and
/// cleared whole), so their order never reaches a verdict.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `VerifyKey` hashes into this, through `write_u64`.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` / `HashSet` over [`VerifyKey`] on the [`KeyHasher`].
// lint: allow(default-hasher) — alias definition site: keys are SHA-256 digests, hashed by the pass-through KeyHasher
pub(crate) type KeyMap<V> = std::collections::HashMap<VerifyKey, V, BuildHasherDefault<KeyHasher>>;
// lint: allow(default-hasher) — alias definition site: keys are SHA-256 digests, hashed by the pass-through KeyHasher
pub(crate) type KeySet = std::collections::HashSet<VerifyKey, BuildHasherDefault<KeyHasher>>;

impl VerifyKey {
    /// Digest the `(key, payload, signature)` triple. Each component is
    /// hashed separately, so no length-prefix ambiguity can alias two
    /// distinct triples.
    pub fn for_triple(pk: &PublicKey, payload: &[u8], sig: &Signature) -> Self {
        VerifyKey {
            pk: *pk.digest(),
            payload: sha256(payload),
            sig: sha256(&sig.to_bytes()),
        }
    }
}

/// Where a verdict came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// The RSA computation ran.
    Computed,
    /// Served from the memo table.
    Cached,
}

/// Intrusive doubly-linked-list slot: `prev`/`next` index into `slots`.
#[derive(Debug)]
struct Slot {
    key: VerifyKey,
    valid: bool,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A bounded LRU of verification verdicts. O(1) lookup, insert, and
/// eviction; entirely deterministic (no clocks, no randomness), so
/// caching never perturbs a seeded simulation.
#[derive(Debug)]
pub struct VerifyCache {
    map: KeyMap<usize>,
    slots: Vec<Slot>,
    /// Most-recently-used slot index (NIL when empty).
    head: usize,
    /// Least-recently-used slot index (NIL when empty).
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Slots reserved up front. `capacity` bounds what a cache may hold, not
/// what it does hold: a node in a 50-host network keeps a few dozen
/// verdicts, and reserving the configured 1024 for each was ~0.3 MiB per
/// node that nothing ever touched. Past this the table and the slot
/// vector grow on demand, up to `capacity`.
const INITIAL_SLOTS: usize = 32;

impl VerifyCache {
    /// A cache holding at most `capacity` verdicts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let reserve = capacity.min(INITIAL_SLOTS);
        VerifyCache {
            map: KeyMap::with_capacity_and_hasher(reserve, Default::default()),
            slots: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Verify `sig` over `payload` under `pk`, consulting the memo table
    /// first. Returns the verdict and whether it was served from cache.
    pub fn verify(
        &mut self,
        pk: &PublicKey,
        payload: &[u8],
        sig: &Signature,
    ) -> (bool, Provenance) {
        self.verify_with(pk, payload, sig, || pk.verify(payload, sig).is_ok())
    }

    /// Like [`Self::verify`], but the miss path runs `compute` instead of
    /// the RSA pipeline — the hook by which pluggable backends and the
    /// network-wide batch table supply verdicts while this cache keeps
    /// exactly its usual hit/miss/LRU behavior.
    pub fn verify_with(
        &mut self,
        pk: &PublicKey,
        payload: &[u8],
        sig: &Signature,
        compute: impl FnOnce() -> bool,
    ) -> (bool, Provenance) {
        let key = VerifyKey::for_triple(pk, payload, sig);
        if let Some(valid) = self.lookup(&key) {
            return (valid, Provenance::Cached);
        }
        let valid = compute();
        self.insert(key, valid);
        (valid, Provenance::Computed)
    }

    /// Cached verdict for `key` without promoting it or touching the
    /// hit/miss counters. For speculative readers (batch prefetch) that
    /// must leave the cache byte-identical to an untouched one.
    pub fn peek(&self, key: &VerifyKey) -> Option<bool> {
        self.map.get(key).map(|&idx| self.slots[idx].valid)
    }

    /// Cached verdict for `key`, promoting it to most-recently-used.
    pub fn lookup(&mut self, key: &VerifyKey) -> Option<bool> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.promote(idx);
                Some(self.slots[idx].valid)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a verdict, evicting the least-recently-used entry at
    /// capacity. Re-inserting an existing key updates and promotes it.
    pub fn insert(&mut self, key: VerifyKey, valid: bool) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].valid = valid;
            self.promote(idx);
            return;
        }
        let idx = if self.map.len() == self.capacity {
            // Reuse the LRU slot in place.
            let idx = self.tail;
            self.unlink(idx);
            let old = std::mem::replace(
                &mut self.slots[idx],
                Slot {
                    key,
                    valid,
                    prev: NIL,
                    next: NIL,
                },
            );
            self.map.remove(&old.key);
            self.evictions += 1;
            idx
        } else {
            self.slots.push(Slot {
                key,
                valid,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    fn promote(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from the memo table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to (or would require) real verification.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::KeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn keypair(seed: u64) -> KeyPair {
        KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(seed))
    }

    /// A synthetic key whose digests are derived from `tag` — no RSA
    /// needed for pure LRU mechanics tests.
    fn key(tag: u8) -> VerifyKey {
        VerifyKey {
            pk: [tag; 32],
            payload: [tag.wrapping_add(1); 32],
            sig: [tag.wrapping_add(2); 32],
        }
    }

    #[test]
    fn keys_differing_in_one_digest_hash_apart() {
        use std::hash::BuildHasher;
        let hash = |k: &VerifyKey| BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        let base = key(7);
        let mut payload = base;
        payload.payload[3] ^= 1;
        let mut sig = base;
        sig.sig[0] ^= 0x80;
        assert_ne!(hash(&base), hash(&payload), "payload digest alone");
        assert_ne!(hash(&base), hash(&sig), "signature digest alone");
        assert_ne!(hash(&payload), hash(&sig));
    }

    #[test]
    fn verdicts_match_direct_verification() {
        let kp = keypair(1);
        let other = keypair(2);
        let sig = kp.sign(b"payload");
        let mut cache = VerifyCache::new(8);

        let (v1, p1) = cache.verify(kp.public(), b"payload", &sig);
        assert_eq!((v1, p1), (true, Provenance::Computed));
        let (v2, p2) = cache.verify(kp.public(), b"payload", &sig);
        assert_eq!((v2, p2), (true, Provenance::Cached));

        // Wrong payload and wrong key are cached as *invalid*, not
        // confused with the valid entry.
        assert!(!cache.verify(kp.public(), b"other", &sig).0);
        assert!(!cache.verify(other.public(), b"payload", &sig).0);
        assert!(cache.verify(kp.public(), b"payload", &sig).0);
    }

    #[test]
    fn forged_signature_never_hits_the_valid_entry() {
        let kp = keypair(3);
        let sig = kp.sign(b"msg");
        let mut cache = VerifyCache::new(8);
        assert!(cache.verify(kp.public(), b"msg", &sig).0);

        let mut bytes = sig.to_bytes();
        bytes[0] ^= 0x01;
        let forged = Signature::from_bytes(&bytes);
        let (valid, prov) = cache.verify(kp.public(), b"msg", &forged);
        assert!(!valid, "tampered signature must be rejected");
        assert_eq!(prov, Provenance::Computed, "must not alias the cached key");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = VerifyCache::new(2);
        c.insert(key(1), true);
        c.insert(key(2), false);
        assert_eq!(c.lookup(&key(1)), Some(true)); // promote 1; LRU is now 2
        c.insert(key(3), true); // evicts 2
        assert_eq!(c.lookup(&key(2)), None);
        assert_eq!(c.lookup(&key(1)), Some(true));
        assert_eq!(c.lookup(&key(3)), Some(true));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = VerifyCache::new(2);
        c.insert(key(1), true);
        c.insert(key(1), false);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key(1)), Some(false));
    }

    #[test]
    fn capacity_one_still_works() {
        let mut c = VerifyCache::new(1);
        for tag in 0..10u8 {
            c.insert(key(tag), tag % 2 == 0);
            assert_eq!(c.len(), 1);
            assert_eq!(c.lookup(&key(tag)), Some(tag % 2 == 0));
        }
        assert_eq!(c.evictions(), 9);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = VerifyCache::new(0);
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = VerifyCache::new(4);
        assert_eq!(c.lookup(&key(1)), None);
        c.insert(key(1), true);
        c.lookup(&key(1));
        c.lookup(&key(1));
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn peek_neither_promotes_nor_counts() {
        let mut c = VerifyCache::new(2);
        c.insert(key(1), true);
        c.insert(key(2), false);
        // Peeking 1 must not promote it...
        assert_eq!(c.peek(&key(1)), Some(true));
        assert_eq!(c.peek(&key(3)), None);
        // ...so inserting 3 still evicts 1 (the LRU), not 2.
        c.insert(key(3), true);
        assert_eq!(c.peek(&key(1)), None);
        assert_eq!(c.peek(&key(2)), Some(false));
        // And no peek touched the stats.
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn verify_with_supplier_feeds_miss_path_only() {
        let kp = keypair(5);
        let sig = kp.sign(b"x");
        let mut c = VerifyCache::new(4);
        let mut calls = 0u32;
        let (v, p) = c.verify_with(kp.public(), b"x", &sig, || {
            calls += 1;
            true
        });
        assert_eq!((v, p, calls), (true, Provenance::Computed, 1));
        // Hit path must not invoke the supplier.
        let (v, p) = c.verify_with(kp.public(), b"x", &sig, || {
            panic!("supplier must not run on a cache hit")
        });
        assert_eq!((v, p), (true, Provenance::Cached));
    }

    #[test]
    fn distinct_triples_distinct_keys() {
        let kp = keypair(4);
        let sig_a = kp.sign(b"a");
        let sig_b = kp.sign(b"b");
        let k1 = VerifyKey::for_triple(kp.public(), b"a", &sig_a);
        let k2 = VerifyKey::for_triple(kp.public(), b"b", &sig_a);
        let k3 = VerifyKey::for_triple(kp.public(), b"a", &sig_b);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, VerifyKey::for_triple(kp.public(), b"a", &sig_a));
    }

    #[test]
    fn eviction_stress_keeps_list_consistent() {
        // Interleaved inserts and promotes across many evictions: the
        // intrusive list must stay a proper chain.
        let mut c = VerifyCache::new(8);
        for round in 0..100u32 {
            let tag = (round % 23) as u8;
            c.insert(key(tag), tag.is_multiple_of(3));
            c.lookup(&key((round % 7) as u8));
            assert!(c.len() <= 8);
        }
        // Every mapped entry is reachable and consistent.
        for tag in 0..23u8 {
            if let Some(v) = c.lookup(&key(tag)) {
                assert_eq!(v, tag.is_multiple_of(3));
            }
        }
    }
}
