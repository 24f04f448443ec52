//! # manet-crypto
//!
//! From-scratch cryptographic substrate for the secure-MANET reproduction:
//!
//! * [`uint::Ubig`] — arbitrary-precision unsigned integers (schoolbook
//!   multiplication, Knuth Algorithm-D division);
//! * [`modular`] — Montgomery-form modular exponentiation, the two
//!   halves of the Baillie–PSW primality test, and modular inverse;
//! * [`prime`] — Baillie–PSW primality testing and random prime
//!   generation;
//! * [`rsa`] — RSA signatures with message recovery, the paper's
//!   `[msg]XSK` primitive;
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, the paper's hash `H`;
//! * [`verifycache`] — a bounded LRU memoizing signature-verification
//!   verdicts (pure-function caching, safe under seeded determinism);
//! * [`backend`] — pluggable signature backends ([`BackendKind::Rsa`]
//!   the oracle, [`BackendKind::Null`] constant-true,
//!   [`BackendKind::HashSig`] a fast forgeable stand-in), selected per
//!   scenario or via `MANET_CRYPTO`;
//! * [`batch`] — network-wide deferred batch verification: per-tick
//!   dedup of `(pk, payload, sig)` triples, each unique triple verified
//!   once and the verdict shared across every requesting node.
//!
//! No external crypto crates are used anywhere in the workspace; this
//! crate is the sole provider (docs/ARCHITECTURE.md, "Offline
//! dependency stubs").

pub mod backend;
pub mod batch;
pub mod limb;
pub mod modular;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod uint;
pub mod verifycache;

pub use backend::{backend_for, BackendKind, CryptoBackend};
pub use batch::{BatchStats, BatchVerifier};
pub use rsa::{KeyPair, PublicKey, RsaError, Signature};
pub use sha256::{hmac_sha256, sha256, Sha256};
pub use uint::Ubig;
pub use verifycache::{Provenance, VerifyCache, VerifyKey};

/// The paper's `H(PK, rn)`: hash the public key bytes and the random
/// modifier, truncate to the low 64 bits for the IPv6 interface identifier.
pub fn h_pk_rn(pk: &PublicKey, rn: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(b"CGA-IID-v1");
    h.update(&pk.to_bytes());
    h.update(&rn.to_be_bytes());
    sha256::digest_head(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn h_pk_rn_depends_on_both_inputs() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let kp1 = KeyPair::generate(512, &mut rng);
        let kp2 = KeyPair::generate(512, &mut rng);
        let a = h_pk_rn(kp1.public(), 1);
        assert_eq!(a, h_pk_rn(kp1.public(), 1), "deterministic");
        assert_ne!(a, h_pk_rn(kp1.public(), 2), "rn matters");
        assert_ne!(a, h_pk_rn(kp2.public(), 1), "key matters");
    }
}
