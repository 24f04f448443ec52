//! Network-wide deferred batch verification.
//!
//! [`crate::VerifyCache`] memoizes verdicts *per node*; a DAD storm or
//! RREQ flood makes hundreds of nodes verify the *same* `(pk, payload,
//! sig)` triple in one engine tick, and each node's first sight of it
//! still pays a full modpow. The [`BatchVerifier`] closes that gap: a
//! speculative prefetch pass enqueues the triples a tick's frames are
//! about to check, a per-tick drain verifies each unique triple once
//! (in parallel under the sharded executor), and dispatch-time lookups
//! serve the shared verdict.
//!
//! Correctness rests on verdict purity: verification is a pure function
//! of the triple, so *where* the verdict came from (node cache, shared
//! table, or a fresh execution) can never change a protocol decision.
//! The protocol-visible accounting (per-node cache stats, metrics
//! counters) is charged at dispatch time exactly as if the node had
//! verified inline, which is what keeps run fingerprints byte-identical
//! between batched and inline runs. A missed prefetch only costs speed
//! (the dispatch path falls back to an inline execution); a spurious
//! one only wastes a backend op.

use crate::backend::CryptoBackend;
use crate::rsa::{PublicKey, Signature};
use crate::verifycache::{KeyMap, KeySet, VerifyKey};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// A drain fans out only when its tick holds at least this much
/// verification work, in modulus limbs² summed over the unique triples
/// (a verify is 17 Montgomery multiplies of k² limb products each, so
/// its cost scales with k²: `crypto.verify_us` 2.5 µs at 8 limbs, 30 µs
/// at 32, i.e. 30–40 ns per unit). Fanning out spawns one scoped OS
/// thread per core and joins them, measured at 300–400 µs per drain
/// (`crypto.batch_unique_tick_us` 370–494 fanned out vs 116 serial for
/// 32 RSA-512 triples), and on two cores it can save at most half the
/// serial time: break-even near 700 µs ≈ 18,000 units. So a 32-triple
/// RSA-512 tick (2,048 units, ≈75 µs) drains serially and sixteen
/// 2048-bit triples (≈480 µs here, more on a slower host) fan out.
const PAR_MIN_WORK: usize = 16_384;

/// Does this tick hold enough verification work to pay for the threads?
fn fans_out(items: &[PendingItem]) -> bool {
    let work: usize = items
        .iter()
        .map(|it| it.pk.modulus().limbs().len().pow(2))
        .sum();
    work >= PAR_MIN_WORK
}

/// A triple waiting for its verdict.
struct PendingItem {
    key: VerifyKey,
    pk: PublicKey,
    payload: Vec<u8>,
    sig: Signature,
}

#[derive(Default)]
struct Pending {
    /// Dedup set over `items` (one entry per unique triple per tick).
    keys: KeySet,
    items: Vec<PendingItem>,
}

/// Execution counters, for benchmark reporting only (never part of a
/// run fingerprint).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Triples offered via [`BatchVerifier::enqueue`].
    pub requests: u64,
    /// Unique triples actually executed by drains.
    pub executed: u64,
    /// Drains that had work.
    pub drains: u64,
    /// Dispatch-time verdict lookups served from the shared table.
    pub table_hits: u64,
}

/// Shared verdict table + per-tick pending queue.
///
/// `enqueue` may run from parallel prefetch passes; `drain` runs
/// serially between ticks/windows; `verdict` may run from parallel
/// dispatch. All three are safe concurrently, but determinism only
/// needs the drain to be a barrier between enqueues and lookups —
/// which the engine's tick hook guarantees.
pub struct BatchVerifier {
    pending: Mutex<Pending>,
    verdicts: RwLock<KeyMap<bool>>,
    /// Verdict-table bound. At capacity the table is cleared *entirely*
    /// (not LRU-trimmed): crude, but deterministic regardless of hash
    /// iteration order, and correctness never depends on table content.
    capacity: usize,
    requests: AtomicU64,
    executed: AtomicU64,
    drains: AtomicU64,
    table_hits: AtomicU64,
}

impl BatchVerifier {
    /// A verifier whose shared table holds at most `capacity` verdicts
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BatchVerifier {
            pending: Mutex::new(Pending::default()),
            verdicts: RwLock::new(KeyMap::with_capacity_and_hasher(
                capacity.min(4096),
                Default::default(),
            )),
            capacity,
            requests: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            table_hits: AtomicU64::new(0),
        }
    }

    /// Offer a triple for the next drain. Skips triples whose verdict
    /// the shared table already holds and triples already pending.
    pub fn enqueue(&self, pk: &PublicKey, payload: &[u8], sig: &Signature) {
        self.requests.fetch_add(1, Ordering::Relaxed); // Relaxed: bench-only op counter
        let key = VerifyKey::for_triple(pk, payload, sig);
        if self
            .verdicts
            .read()
            .expect("verdict lock")
            .contains_key(&key)
        {
            return;
        }
        let mut pending = self.pending.lock().expect("pending lock");
        if pending.keys.insert(key) {
            pending.items.push(PendingItem {
                key,
                pk: pk.clone(),
                payload: payload.to_vec(),
                sig: sig.clone(),
            });
        }
    }

    /// Verify every pending unique triple once and publish the verdicts.
    /// Called serially by the engine between ticks/windows.
    pub fn drain(&self, backend: &dyn CryptoBackend) {
        let items = {
            let mut pending = self.pending.lock().expect("pending lock");
            pending.keys.clear();
            std::mem::take(&mut pending.items)
        };
        if items.is_empty() {
            return;
        }
        // Re-filter against the table: a triple enqueued across two
        // ticks may have been published by the intervening drain.
        let items: Vec<PendingItem> = {
            let table = self.verdicts.read().expect("verdict lock");
            items
                .into_iter()
                .filter(|it| !table.contains_key(&it.key))
                .collect()
        };
        if items.is_empty() {
            return;
        }
        // Relaxed: bench-only op counters; never part of a run fingerprint.
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.executed
            .fetch_add(items.len() as u64, Ordering::Relaxed); // Relaxed: ditto
        let verdicts: Vec<(VerifyKey, bool)> = if fans_out(&items) {
            items
                .par_iter()
                .map(|it| (it.key, backend.verify(&it.pk, &it.payload, &it.sig)))
                .collect()
        } else {
            items
                .iter()
                .map(|it| (it.key, backend.verify(&it.pk, &it.payload, &it.sig)))
                .collect()
        };
        let mut table = self.verdicts.write().expect("verdict lock");
        if table.len() + verdicts.len() > self.capacity {
            // Full flush at capacity: deterministic independent of hash
            // order, and only a perf (never correctness) event.
            table.clear();
        }
        table.extend(verdicts);
    }

    /// Shared verdict for `key`, if a drain has published one.
    pub fn verdict(&self, key: &VerifyKey) -> Option<bool> {
        let v = self
            .verdicts
            .read()
            .expect("verdict lock")
            .get(key)
            .copied();
        if v.is_some() {
            self.table_hits.fetch_add(1, Ordering::Relaxed); // Relaxed: bench-only op counter
        }
        v
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            requests: self.requests.load(Ordering::Relaxed), // Relaxed: counter snapshot
            executed: self.executed.load(Ordering::Relaxed), // Relaxed: counter snapshot
            drains: self.drains.load(Ordering::Relaxed),     // Relaxed: counter snapshot
            table_hits: self.table_hits.load(Ordering::Relaxed), // Relaxed: counter snapshot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, BackendKind};
    use crate::rsa::KeyPair;
    use crate::uint::Ubig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn keypair(seed: u64) -> KeyPair {
        KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(seed))
    }

    #[test]
    fn drain_verifies_each_unique_triple_once() {
        let kp = keypair(1);
        let backend = backend_for(BackendKind::Rsa);
        let sig = kp.sign(b"flooded rreq");
        let bv = BatchVerifier::new(64);
        // The same triple offered by "many nodes" in one tick...
        for _ in 0..10 {
            bv.enqueue(kp.public(), b"flooded rreq", &sig);
        }
        bv.drain(backend.as_ref());
        // ...runs the backend exactly once.
        assert_eq!(backend.verifies_executed(), 1);
        let key = VerifyKey::for_triple(kp.public(), b"flooded rreq", &sig);
        assert_eq!(bv.verdict(&key), Some(true));
        let s = bv.stats();
        assert_eq!(
            (s.requests, s.executed, s.drains, s.table_hits),
            (10, 1, 1, 1)
        );
    }

    #[test]
    fn verdicts_match_backend_for_good_and_bad_material() {
        let kp = keypair(2);
        let other = keypair(3);
        let backend = backend_for(BackendKind::Rsa);
        let sig = kp.sign(b"msg");
        let mut tampered = sig.to_bytes();
        tampered[0] ^= 1;
        let bad = Signature::from_bytes(&tampered);

        let bv = BatchVerifier::new(64);
        bv.enqueue(kp.public(), b"msg", &sig); // valid
        bv.enqueue(kp.public(), b"msg", &bad); // corrupted
        bv.enqueue(other.public(), b"msg", &sig); // wrong key
        bv.drain(backend.as_ref());

        assert_eq!(
            bv.verdict(&VerifyKey::for_triple(kp.public(), b"msg", &sig)),
            Some(true)
        );
        assert_eq!(
            bv.verdict(&VerifyKey::for_triple(kp.public(), b"msg", &bad)),
            Some(false)
        );
        assert_eq!(
            bv.verdict(&VerifyKey::for_triple(other.public(), b"msg", &sig)),
            Some(false)
        );
    }

    #[test]
    fn already_published_triples_skip_requeue_and_reexecution() {
        let kp = keypair(4);
        let backend = backend_for(BackendKind::HashSig);
        let sig = backend.sign(&kp, b"m");
        let bv = BatchVerifier::new(64);
        bv.enqueue(kp.public(), b"m", &sig);
        bv.drain(backend.as_ref());
        let executed = backend.verifies_executed();
        // Next tick offers the same triple: table already has it.
        bv.enqueue(kp.public(), b"m", &sig);
        bv.drain(backend.as_ref());
        assert_eq!(backend.verifies_executed(), executed);
    }

    #[test]
    fn capacity_flush_keeps_serving_correct_verdicts() {
        let kp = keypair(5);
        let backend = backend_for(BackendKind::HashSig);
        let bv = BatchVerifier::new(4);
        let mut sigs = Vec::new();
        for i in 0..12u8 {
            let payload = [i; 3];
            let sig = backend.sign(&kp, &payload);
            bv.enqueue(kp.public(), &payload, &sig);
            bv.drain(backend.as_ref());
            sigs.push((payload, sig));
        }
        // Whatever survived the flushes must agree with the backend;
        // evicted entries just miss.
        for (payload, sig) in &sigs {
            let key = VerifyKey::for_triple(kp.public(), payload, sig);
            if let Some(v) = bv.verdict(&key) {
                assert!(v);
            }
        }
    }

    #[test]
    fn large_batch_takes_parallel_path() {
        let kp = keypair(6);
        let backend = backend_for(BackendKind::HashSig);
        let bv = BatchVerifier::new(1024);
        let mut keys = Vec::new();
        // Enough 8-limb triples (a good and a corrupted one per payload)
        // to cross the fan-out gate.
        let payloads = PAR_MIN_WORK / 64 / 2;
        for i in 0..payloads as u16 {
            let payload = i.to_be_bytes();
            let sig = backend.sign(&kp, &payload);
            bv.enqueue(kp.public(), &payload, &sig);
            keys.push((VerifyKey::for_triple(kp.public(), &payload, &sig), true));
            let mut bad = sig.to_bytes();
            bad[0] ^= 1;
            let bad = Signature::from_bytes(&bad);
            bv.enqueue(kp.public(), &payload, &bad);
            keys.push((VerifyKey::for_triple(kp.public(), &payload, &bad), false));
        }
        bv.drain(backend.as_ref());
        for (key, expect) in keys {
            assert_eq!(bv.verdict(&key), Some(expect));
        }
    }

    /// `count` pending triples under one key of `bits` bits.
    fn pending(count: usize, bits: u32) -> Vec<PendingItem> {
        let n = (Ubig::one() << (bits - 1)) + Ubig::one();
        let pk = PublicKey::from_parts(n, Ubig::from(65537u64)).expect("odd, in range");
        (0..count)
            .map(|i| {
                let payload = i.to_be_bytes().to_vec();
                let sig = Signature::from_bytes(&[1]);
                PendingItem {
                    key: VerifyKey::for_triple(&pk, &payload, &sig),
                    pk: pk.clone(),
                    payload,
                    sig,
                }
            })
            .collect()
    }

    #[test]
    fn fan_out_is_gated_on_work_not_on_count() {
        // The simulator's default keys: a whole flood tick stays serial.
        assert!(!fans_out(&pending(32, 512)));
        // A 2048-bit verify is sixteen times the work: far fewer triples
        // fill a tick.
        assert!(!fans_out(&pending(15, 2048)));
        assert!(fans_out(&pending(16, 2048)));
        assert!(!fans_out(&pending(255, 512)));
        assert!(fans_out(&pending(256, 512)));
    }

    #[test]
    fn empty_drain_is_free() {
        let backend = backend_for(BackendKind::Rsa);
        let bv = BatchVerifier::new(8);
        bv.drain(backend.as_ref());
        assert_eq!(bv.stats(), BatchStats::default());
    }
}
