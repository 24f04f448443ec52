//! Host identity: the key pair, the CGA modifier, and the resulting
//! address, plus the verification helpers every receiver runs.

use crate::fxhash::FxHashMap;
use manet_crypto::backend::RsaBackend;
use manet_crypto::{
    backend_for, BackendKind, BatchVerifier, CryptoBackend, KeyPair, Provenance, PublicKey,
    Signature, VerifyCache, VerifyKey,
};
use manet_wire::{cga, sigdata, CgaError, IdentityProof, Ipv6Addr, Seq};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Hop signatures a relay keeps (see [`HostIdentity::prove_srr_hop`]).
/// Discoveries that are in flight together carry a handful of distinct
/// sequence numbers — every source counts from 1 — so a few dozen
/// entries catch the repeats (`secure_routes`: 111 signatures where an
/// unbounded memo makes 111 and none makes 612), while a flooder
/// inventing sequence numbers can pin no more than this.
const HOP_SIG_MEMO_CAP: usize = 32;

/// A host's cryptographic identity and current CGA.
pub struct HostIdentity {
    /// Shared, not copied, when the identity came out of an
    /// [`IdentityPool`]: the same host in another cell of a campaign.
    keypair: Arc<KeyPair>,
    rn: u64,
    ip: Ipv6Addr,
    /// The signature scheme every `prove`/`sign` runs on. A bare
    /// identity defaults to the RSA oracle; nodes and the scenario layer
    /// inject the configured backend (see `ProtocolConfig::crypto_backend`).
    backend: Arc<dyn CryptoBackend>,
    /// `[IIP, seq]ISK` for the current address and backend, oldest
    /// first; every method that changes either empties it.
    hop_sigs: VecDeque<(Seq, Signature)>,
}

impl HostIdentity {
    /// Generate a fresh identity: new key pair, random modifier, CGA.
    pub fn generate<R: Rng>(key_bits: u32, rng: &mut R) -> Self {
        let keypair = KeyPair::generate(key_bits, rng);
        Self::assemble(Arc::new(keypair), rng.gen())
    }

    /// The identity of node `host` (0 is the DNS, host `i` is `i + 1`)
    /// in a scenario with master seed `seed`: [`Self::generate`] on that
    /// node's own key stream, ChaCha12 keyed by `seed` on stream
    /// `host + 1`. Stream 0 of that key is the engine's, and every other
    /// generator in a run reads stream 0 of some other key, so a key
    /// stream overlaps none. A function of its arguments alone — not of
    /// how many hosts the scenario has, nor of which thread asks, nor in
    /// what order — which is what lets a build generate its identities
    /// side by side.
    pub fn for_host(seed: u64, host: u32, key_bits: u32) -> Self {
        let mut stream = ChaCha12Rng::seed_from_u64(seed);
        stream.set_stream(u64::from(host) + 1);
        Self::generate(key_bits, &mut stream)
    }

    /// Build from an existing key pair (e.g. the DNS server whose public
    /// key was distributed out of band).
    pub fn from_keypair<R: Rng>(keypair: KeyPair, rng: &mut R) -> Self {
        Self::assemble(Arc::new(keypair), rng.gen())
    }

    fn assemble(keypair: Arc<KeyPair>, rn: u64) -> Self {
        HostIdentity {
            ip: cga::generate(keypair.public(), rn),
            keypair,
            rn,
            backend: backend_for(BackendKind::Rsa),
            hop_sigs: VecDeque::new(),
        }
    }

    /// Route all signing through `backend`. CGA generation is
    /// backend-independent (it hashes the public key, not signatures),
    /// so the address survives a backend swap.
    pub fn set_backend(&mut self, backend: Arc<dyn CryptoBackend>) {
        self.backend = backend;
        self.hop_sigs.clear();
    }

    /// The signature backend this identity signs with.
    pub fn backend(&self) -> &Arc<dyn CryptoBackend> {
        &self.backend
    }

    /// Current address.
    pub fn ip(&self) -> Ipv6Addr {
        self.ip
    }

    /// Current CGA modifier.
    pub fn rn(&self) -> u64 {
        self.rn
    }

    /// Public key.
    pub fn public(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// Re-roll the modifier after a collision (Section 3.1: "generate a
    /// new IP address (with a new rn) ... while PK is kept unchanged").
    pub fn reroll<R: Rng>(&mut self, rng: &mut R) -> Ipv6Addr {
        self.set_rn(rng.gen())
    }

    /// Switch to a specific modifier (IP-change flow, Section 3.2).
    pub fn set_rn(&mut self, rn: u64) -> Ipv6Addr {
        self.rn = rn;
        self.ip = cga::generate(self.keypair.public(), rn);
        self.hop_sigs.clear();
        self.ip
    }

    /// Sign `payload` and attach our key material: the `([…]XSK, XPK,
    /// Xrn)` triple that travels in every secure message.
    pub fn prove(&self, payload: &[u8]) -> IdentityProof {
        self.attach(self.sign(payload))
    }

    /// `sig` with our key and modifier beside it.
    fn attach(&self, sig: Signature) -> IdentityProof {
        IdentityProof {
            pk: self.keypair.public().clone(),
            rn: self.rn,
            sig,
        }
    }

    /// A relay's SRR entry proof `([IIP, seq]ISK, IPK, Irn)` (Section
    /// 3.3), byte for byte what `prove(&sigdata::srr_hop(&ip, seq))`
    /// returns. The signed bytes name this host's address and the
    /// sequence number but not the requesting source, and the signature
    /// is deterministic, so every discovery that shares a `seq` gets the
    /// same entry from this relay: it is signed once and remembered, up
    /// to [`HOP_SIG_MEMO_CAP`] sequence numbers, oldest dropped first.
    pub fn prove_srr_hop(&mut self, seq: Seq) -> IdentityProof {
        let sig = match self.hop_sigs.iter().find(|(s, _)| *s == seq) {
            Some((_, sig)) => sig.clone(),
            None => {
                let sig = self.sign(&sigdata::srr_hop(&self.ip, seq));
                if self.hop_sigs.len() == HOP_SIG_MEMO_CAP {
                    self.hop_sigs.pop_front();
                }
                self.hop_sigs.push_back((seq, sig.clone()));
                sig
            }
        };
        self.attach(sig)
    }

    /// Plain signature without the key/rn attachment (for messages
    /// verified against an out-of-band key, like everything the DNS signs).
    pub fn sign(&self, payload: &[u8]) -> Signature {
        self.backend.sign(&self.keypair, payload)
    }
}

impl std::fmt::Debug for HostIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostIdentity({}, rn={:#x})", self.ip, self.rn)
    }
}

/// Identities an [`IdentityPool`] keeps: a key, `rn` and a shared
/// RSA-512 key pair (≈ 1 KiB of limbs) each, so a full pool is ≈ 5 MiB.
/// The committed campaigns need 12–20 entries (seeds × nodes of the
/// largest cell); 4096 also covers eight seeds of a 500-host sweep.
/// Identities past the cap are generated per job, exactly as without a
/// pool, so no result depends on this number.
const IDENTITY_POOL_CAP: usize = 4096;

/// The identities one campaign's secure jobs will ask for, each
/// generated once, before the jobs start. Every cell of a campaign runs
/// every plan seed and [`HostIdentity::for_host`] is a function of
/// `(seed, host, key_bits)`, so all cells of one seed ask for the same
/// key pairs — a 6-host cell's seven are the first seven of the 9-host
/// cell's ten; a host keeps its key pair for life (paper Section 3.1),
/// and a campaign need not pay for it once per cell.
///
/// Filled in one fork-join and read-only afterwards: jobs share it
/// without a lock, and none waits for another's key generation.
pub(crate) struct IdentityPool {
    drawn: FxHashMap<(u64, u32, u32), (Arc<KeyPair>, u64)>,
}

impl IdentityPool {
    /// Generate the distinct `(seed, host, key_bits)` among `wanted`,
    /// the lowest [`IDENTITY_POOL_CAP`] of them, on all cores.
    pub(crate) fn generate(wanted: impl IntoIterator<Item = (u64, u32, u32)>) -> Self {
        Self::generate_capped(wanted, IDENTITY_POOL_CAP)
    }

    fn generate_capped(wanted: impl IntoIterator<Item = (u64, u32, u32)>, cap: usize) -> Self {
        let mut keys: Vec<_> = wanted.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(cap);
        let drawn: Vec<_> = keys
            .par_iter()
            .map(|&(seed, host, key_bits)| {
                let ident = HostIdentity::for_host(seed, host, key_bits);
                (ident.keypair, ident.rn)
            })
            .collect();
        IdentityPool {
            drawn: keys.into_iter().zip(drawn).collect(),
        }
    }

    /// [`HostIdentity::for_host`], from the pool when it holds it.
    pub(crate) fn for_host(&self, seed: u64, host: u32, key_bits: u32) -> HostIdentity {
        match self.drawn.get(&(seed, host, key_bits)) {
            Some((keypair, rn)) => HostIdentity::assemble(Arc::clone(keypair), *rn),
            None => HostIdentity::for_host(seed, host, key_bits),
        }
    }
}

/// Why a received identity proof was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofError {
    /// The claimed address is not the CGA of the attached key material.
    Cga(CgaError),
    /// The signature does not verify under the attached key.
    Signature,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Cga(e) => write!(f, "CGA check failed: {e}"),
            ProofError::Signature => write!(f, "signature check failed"),
        }
    }
}

impl std::error::Error for ProofError {}

/// The two-step check from Sections 3.1/3.3: (1) the lower part of
/// `claimed_ip` equals `H(PK, rn)` for the attached key material, and
/// (2) the signature over `payload` verifies under that key — the
/// [`verify_proof_pipeline`] with no memo, on the RSA oracle.
pub fn verify_proof(
    claimed_ip: &Ipv6Addr,
    payload: &[u8],
    proof: &IdentityProof,
) -> Result<(), ProofError> {
    verify_proof_pipeline(
        claimed_ip,
        payload,
        proof,
        None,
        &RsaBackend::default(),
        None,
    )
    .0
}

/// Verify a signature against an out-of-band-known key (the DNS case:
/// every host knows `NPK` a priori, so no CGA check applies).
pub fn verify_known_key(pk: &PublicKey, payload: &[u8], sig: &Signature) -> Result<(), ProofError> {
    verify_known_key_pipeline(pk, payload, sig, None, &RsaBackend::default(), None).0
}

/// Resolve one triple's verdict from the cheapest available source:
/// the network-wide batch table, else an inline backend execution.
/// Verdict purity makes the source invisible to protocol decisions.
fn batch_or_backend(
    pk: &PublicKey,
    payload: &[u8],
    sig: &Signature,
    backend: &dyn CryptoBackend,
    batch: Option<&BatchVerifier>,
) -> bool {
    if let Some(b) = batch {
        if let Some(v) = b.verdict(&VerifyKey::for_triple(pk, payload, sig)) {
            return v;
        }
    }
    backend.verify(pk, payload, sig)
}

/// The full node-side verification pipeline for a known key: the node's
/// own [`VerifyCache`] memo, then the shared [`BatchVerifier`] table,
/// then an inline `backend` execution.
///
/// Accounting is demand-side: a batch-table hit still reports
/// [`Provenance::Computed`] — the *node* demanded a verification it had
/// not cached, exactly as in an inline run; only where the answer came
/// from differs. This is what keeps run fingerprints byte-identical
/// between batched and inline runs (actual backend executions live in
/// the backend's own counters, outside any fingerprint).
pub fn verify_known_key_pipeline(
    pk: &PublicKey,
    payload: &[u8],
    sig: &Signature,
    cache: Option<&mut VerifyCache>,
    backend: &dyn CryptoBackend,
    batch: Option<&BatchVerifier>,
) -> (Result<(), ProofError>, Provenance) {
    let (valid, prov) = match cache {
        Some(c) => c.verify_with(pk, payload, sig, || {
            batch_or_backend(pk, payload, sig, backend, batch)
        }),
        None => (
            batch_or_backend(pk, payload, sig, backend, batch),
            Provenance::Computed,
        ),
    };
    let res = if valid {
        Ok(())
    } else {
        Err(ProofError::Signature)
    };
    (res, prov)
}

/// [`verify_proof`] on the full pipeline: CGA check first (always
/// recomputed — one SHA-256; a CGA rejection reports `Computed`, nothing
/// was cached and nothing spent on the signature), then
/// [`verify_known_key_pipeline`].
pub fn verify_proof_pipeline(
    claimed_ip: &Ipv6Addr,
    payload: &[u8],
    proof: &IdentityProof,
    cache: Option<&mut VerifyCache>,
    backend: &dyn CryptoBackend,
    batch: Option<&BatchVerifier>,
) -> (Result<(), ProofError>, Provenance) {
    if let Err(e) = cga::verify(claimed_ip, &proof.pk, proof.rn) {
        return (Err(ProofError::Cga(e)), Provenance::Computed);
    }
    verify_known_key_pipeline(&proof.pk, payload, &proof.sig, cache, backend, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn generated_identity_owns_its_address() {
        let mut r = rng(1);
        let id = HostIdentity::generate(512, &mut r);
        assert!(id.ip().is_site_local());
        let proof = id.prove(b"payload");
        assert_eq!(verify_proof(&id.ip(), b"payload", &proof), Ok(()));
    }

    #[test]
    fn proof_fails_for_wrong_payload() {
        let mut r = rng(2);
        let id = HostIdentity::generate(512, &mut r);
        let proof = id.prove(b"payload");
        assert_eq!(
            verify_proof(&id.ip(), b"other", &proof),
            Err(ProofError::Signature)
        );
    }

    #[test]
    fn proof_fails_for_wrong_address() {
        let mut r = rng(3);
        let id = HostIdentity::generate(512, &mut r);
        let victim = HostIdentity::generate(512, &mut r);
        // Attacker signs correctly with its own key but claims the
        // victim's address: the CGA check catches it.
        let proof = id.prove(b"payload");
        assert!(matches!(
            verify_proof(&victim.ip(), b"payload", &proof),
            Err(ProofError::Cga(CgaError::InterfaceIdMismatch))
        ));
    }

    #[test]
    fn reroll_changes_address_not_key() {
        let mut r = rng(4);
        let mut id = HostIdentity::generate(512, &mut r);
        let ip1 = id.ip();
        let pk1 = id.public().clone();
        let ip2 = id.reroll(&mut r);
        assert_ne!(ip1, ip2);
        assert_eq!(*id.public(), pk1);
        let proof = id.prove(b"x");
        assert_eq!(verify_proof(&ip2, b"x", &proof), Ok(()));
        assert!(verify_proof(&ip1, b"x", &proof).is_err());
    }

    #[test]
    fn set_rn_is_deterministic() {
        let mut r = rng(5);
        let mut id = HostIdentity::generate(512, &mut r);
        let a = id.set_rn(42);
        let b = id.set_rn(43);
        assert_ne!(a, b);
        assert_eq!(id.set_rn(42), a);
    }

    #[test]
    fn hop_proof_is_a_fresh_proof_signed_once_per_seq() {
        let mut r = rng(11);
        let mut id = HostIdentity::generate(512, &mut r);
        let fresh = id.prove(&sigdata::srr_hop(&id.ip(), Seq(7)));
        let signs = id.backend().signs_executed();
        assert_eq!(id.prove_srr_hop(Seq(7)), fresh);
        assert_eq!(id.prove_srr_hop(Seq(7)), fresh);
        assert_eq!(id.backend().signs_executed(), signs + 1);
        // The entry belongs to one (address, backend): changing either
        // signs again, over the new address / in the new scheme.
        let old_ip = id.ip();
        id.set_rn(id.rn() + 1);
        let moved = id.prove_srr_hop(Seq(7));
        assert_eq!(moved, id.prove(&sigdata::srr_hop(&id.ip(), Seq(7))));
        assert!(verify_proof(&old_ip, &sigdata::srr_hop(&old_ip, Seq(7)), &moved).is_err());
        id.set_backend(backend_for(BackendKind::HashSig));
        assert_ne!(id.prove_srr_hop(Seq(7)).sig, moved.sig);
    }

    #[test]
    fn hop_memo_stops_at_its_cap_and_drops_oldest_first() {
        let mut r = rng(12);
        let mut id = HostIdentity::generate(512, &mut r);
        id.set_backend(backend_for(BackendKind::HashSig)); // 10,000 cheap signatures
        for seq in 1..=10_000 {
            id.prove_srr_hop(Seq(seq));
        }
        assert_eq!(id.hop_sigs.len(), HOP_SIG_MEMO_CAP);
        assert!(id.hop_sigs.capacity() <= 2 * HOP_SIG_MEMO_CAP);
        // The newest CAP sequence numbers are remembered, nothing older.
        let signs = id.backend().signs_executed();
        for seq in 10_001 - HOP_SIG_MEMO_CAP as u64..=10_000 {
            id.prove_srr_hop(Seq(seq));
        }
        assert_eq!(id.backend().signs_executed(), signs);
        id.prove_srr_hop(Seq(10_000 - HOP_SIG_MEMO_CAP as u64));
        assert_eq!(id.backend().signs_executed(), signs + 1);
    }

    /// Everything that tells two identities apart from outside.
    fn observable(id: &HostIdentity) -> (Ipv6Addr, u64, PublicKey, Vec<u8>) {
        let sig = id.sign(b"fixed bytes").to_bytes();
        (id.ip(), id.rn(), id.public().clone(), sig)
    }

    #[test]
    fn for_host_is_generate_on_the_hosts_own_stream() {
        let mut stream = rng(21);
        stream.set_stream(4);
        let want = observable(&HostIdentity::generate(512, &mut stream));
        assert_eq!(observable(&HostIdentity::for_host(21, 3, 512)), want);
        // Not the engine's stream, not a neighbour's, not another seed's.
        for (seed, host) in [(21, 2), (21, 4), (22, 3)] {
            assert_ne!(observable(&HostIdentity::for_host(seed, host, 512)), want);
        }
        assert_ne!(observable(&HostIdentity::generate(512, &mut rng(21))), want);
    }

    /// Which worker generates an identity, beside which others and in
    /// what order cannot show: the fork-join over all cores, one-item
    /// calls (which the stub runs inline on the caller) and a serial map
    /// in reverse all produce the same identities.
    #[test]
    fn identities_do_not_depend_on_worker_count_or_order() {
        let hosts: Vec<u32> = (0..7).collect();
        let of = |host: &u32| observable(&HostIdentity::for_host(9, *host, 384));
        let forked: Vec<_> = hosts.par_iter().map(of).collect();
        let one_at_a_time = |one: &[u32]| -> Vec<_> { one.par_iter().map(of).collect() };
        let inline: Vec<_> = hosts.chunks(1).flat_map(one_at_a_time).collect();
        let mut reversed: Vec<_> = hosts.iter().rev().map(of).collect();
        reversed.reverse();
        assert_eq!(forked, inline);
        assert_eq!(forked, reversed);
    }

    fn pool_of(wanted: &[(u64, u32, u32)]) -> IdentityPool {
        IdentityPool::generate(wanted.iter().copied())
    }

    #[test]
    fn pool_hit_is_the_identity_for_host_generates() {
        let pool = pool_of(&[(21, 0, 512), (21, 1, 512), (21, 0, 512)]);
        assert_eq!(pool.drawn.len(), 2, "asked for twice, generated once");
        let want = HostIdentity::for_host(21, 1, 512);
        let (first, second) = (pool.for_host(21, 1, 512), pool.for_host(21, 1, 512));
        assert!(Arc::ptr_eq(&first.keypair, &second.keypair), "a hit");
        assert_eq!(Arc::strong_count(&first.keypair), 3, "pool + two hits");
        assert_eq!(observable(&first), observable(&want));
        assert_eq!(observable(&second), observable(&want));
    }

    #[test]
    fn pool_misses_on_any_other_seed_host_or_key_size() {
        let pool = pool_of(&[(22, 1, 512)]);
        for (seed, host, key_bits) in [(23, 1, 512), (22, 2, 512), (22, 1, 384)] {
            let missed = pool.for_host(seed, host, key_bits);
            assert_eq!(
                Arc::strong_count(&missed.keypair),
                1,
                "generated for the asker"
            );
            assert_eq!(
                observable(&missed),
                observable(&HostIdentity::for_host(seed, host, key_bits))
            );
        }
        assert_eq!(
            pool.drawn.len(),
            1,
            "a miss is not admitted: the pool is read-only"
        );
    }

    #[test]
    fn full_pool_admits_nothing_and_still_answers() {
        let wanted: Vec<_> = (0..5).map(|host| (24, host, 384)).collect();
        let pool = IdentityPool::generate_capped(wanted.iter().copied(), 3);
        assert_eq!(pool.drawn.len(), 3);
        for &(seed, host, key_bits) in &wanted {
            let got = pool.for_host(seed, host, key_bits);
            let pooled = Arc::strong_count(&got.keypair) == 2;
            assert_eq!(pooled, host < 3, "host {host}");
            assert_eq!(
                observable(&got),
                observable(&HostIdentity::for_host(seed, host, key_bits))
            );
        }
    }

    #[test]
    fn threads_sharing_a_pool_agree_with_generation() {
        let wanted: Vec<_> = (31..34)
            .flat_map(|seed| [(seed, 0, 512), (seed, 1, 512)])
            .collect();
        let want: Vec<_> = wanted
            .iter()
            .map(|&(seed, host, bits)| observable(&HostIdentity::for_host(seed, host, bits)))
            .collect();
        let pool = pool_of(&wanted);
        let start = std::sync::Barrier::new(2);
        // Both threads ask for the same identities in the same order
        // from the same instant; the pool is read-only, nobody waits.
        let pooled = || -> Vec<HostIdentity> {
            start.wait();
            let ask = |&(seed, host, bits): &(u64, u32, u32)| pool.for_host(seed, host, bits);
            wanted.iter().map(ask).collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(pooled);
            (pooled(), other.join().expect("pool user panicked"))
        });
        assert_eq!(a.iter().map(observable).collect::<Vec<_>>(), want);
        assert_eq!(b.iter().map(observable).collect::<Vec<_>>(), want);
        // Neither generated a copy of its own: each identity exists once.
        for (a, b) in a.iter().zip(&b) {
            assert!(Arc::ptr_eq(&a.keypair, &b.keypair));
            assert_eq!(Arc::strong_count(&a.keypair), 3);
        }
    }

    #[test]
    fn known_key_verification() {
        let mut r = rng(6);
        let id = HostIdentity::generate(512, &mut r);
        let sig = id.sign(b"dns says so");
        assert_eq!(verify_known_key(id.public(), b"dns says so", &sig), Ok(()));
        assert_eq!(
            verify_known_key(id.public(), b"dns says no", &sig),
            Err(ProofError::Signature)
        );
    }

    #[test]
    fn default_backend_signs_exactly_like_raw_rsa() {
        let mut r = rng(7);
        let id = HostIdentity::generate(512, &mut r);
        assert_eq!(id.backend().kind(), BackendKind::Rsa);
        // The backend-routed signature is byte-identical to the key
        // pair's own — swapping the default in is a pure refactor.
        let direct = id.keypair.sign(b"payload");
        assert_eq!(id.sign(b"payload").to_bytes(), direct.to_bytes());
        assert_eq!(id.prove(b"payload").sig.to_bytes(), direct.to_bytes());
    }

    #[test]
    fn swapped_backend_changes_signature_universe() {
        let mut r = rng(8);
        let mut id = HostIdentity::generate(512, &mut r);
        let ip_before = id.ip();
        let rsa_sig = id.sign(b"m");
        id.set_backend(backend_for(BackendKind::HashSig));
        // Same address (CGA is key-derived, not signature-derived)...
        assert_eq!(id.ip(), ip_before);
        // ...different signature bytes, verifiable only under the same
        // backend.
        let hs_sig = id.sign(b"m");
        assert_ne!(rsa_sig.to_bytes(), hs_sig.to_bytes());
        let hs = backend_for(BackendKind::HashSig);
        assert!(hs.verify(id.public(), b"m", &hs_sig));
        assert!(!hs.verify(id.public(), b"m", &rsa_sig));
    }

    #[test]
    fn pipeline_matches_plain_verify_under_rsa() {
        let mut r = rng(9);
        let id = HostIdentity::generate(512, &mut r);
        let other = HostIdentity::generate(512, &mut r);
        let backend = backend_for(BackendKind::Rsa);
        let proof = id.prove(b"p");
        for (claimed, payload) in [
            (id.ip(), b"p".as_slice()),
            (id.ip(), b"q".as_slice()),
            (other.ip(), b"p".as_slice()),
        ] {
            let plain = verify_proof(&claimed, payload, &proof);
            let (piped, _) =
                verify_proof_pipeline(&claimed, payload, &proof, None, backend.as_ref(), None);
            assert_eq!(plain, piped);
        }
    }

    #[test]
    fn pipeline_prefers_cache_then_batch_then_backend() {
        let mut r = rng(10);
        let id = HostIdentity::generate(512, &mut r);
        let backend = backend_for(BackendKind::Rsa);
        let sig = id.sign(b"m");
        let batch = BatchVerifier::new(16);

        // Batch table empty: the pipeline falls back to an inline
        // execution (one backend op).
        let (res, prov) = verify_known_key_pipeline(
            id.public(),
            b"m",
            &sig,
            None,
            backend.as_ref(),
            Some(&batch),
        );
        assert_eq!((res, prov), (Ok(()), Provenance::Computed));
        assert_eq!(backend.verifies_executed(), 1);

        // Published verdict: served from the shared table, no new
        // backend op, still *demand-side* Computed.
        batch.enqueue(id.public(), b"m", &sig);
        batch.drain(backend.as_ref());
        let executed = backend.verifies_executed();
        let (res, prov) = verify_known_key_pipeline(
            id.public(),
            b"m",
            &sig,
            None,
            backend.as_ref(),
            Some(&batch),
        );
        assert_eq!((res, prov), (Ok(()), Provenance::Computed));
        assert_eq!(backend.verifies_executed(), executed, "table hit, no op");

        // A warm node cache wins over everything: Cached provenance,
        // nothing touches table or backend.
        let mut cache = VerifyCache::new(8);
        let (_, first) = verify_known_key_pipeline(
            id.public(),
            b"m",
            &sig,
            Some(&mut cache),
            backend.as_ref(),
            Some(&batch),
        );
        assert_eq!(first, Provenance::Computed);
        let (res, prov) = verify_known_key_pipeline(
            id.public(),
            b"m",
            &sig,
            Some(&mut cache),
            backend.as_ref(),
            Some(&batch),
        );
        assert_eq!((res, prov), (Ok(()), Provenance::Cached));
    }
}
