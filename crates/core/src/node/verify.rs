//! The security pipeline: the single choke point through which every
//! inbound message's cryptographic material passes.
//!
//! Handlers never call the raw verification primitives; they call
//! [`SecureNode::check_proof`] / [`SecureNode::check_known_key`] /
//! [`SecureNode::check_dns_sig`], which
//!
//! 1. run the two-step CGA + signature check (or the known-key check)
//!    via [`crate::identity`],
//! 2. consult the node's [`manet_crypto::VerifyCache`] so an identical
//!    `(key, payload, signature)` triple is verified once per node, not
//!    once per delivery — an RREQ flood arriving over three paths
//!    re-proves the shared SRR prefix for free, and a signed-RERR
//!    spammer pays RSA once and hash-lookups thereafter; on a node-cache
//!    miss the network-wide [`manet_crypto::BatchVerifier`] table is
//!    consulted before any inline execution (see `node::prefetch`),
//! 3. count every verdict once, in the node's [`NodeStats`]
//!    (`sec.verify_rsa` / `sec.verify_cached` / `sec.verify_failed`).
//!
//! Memoization is observationally invisible: the verdict is a pure
//! function of the triple, the cache key digests the *whole* triple
//! (so a forged signature over a cached-valid payload can never alias
//! the valid entry), and no RNG draw or timer is involved — same-seed
//! traces are bit-identical with the cache on, off, or thrashing.

use super::SecureNode;
use crate::identity::{verify_known_key_pipeline, verify_proof_pipeline, ProofError};
use crate::stats::{Counter, NodeStats};
use manet_crypto::{Provenance, PublicKey, Signature};
use manet_wire::{IdentityProof, Ipv6Addr};

/// Count one pipeline verdict in the node stats.
fn record(
    stats: &mut NodeStats,
    outcome: (Result<(), ProofError>, Provenance),
) -> Result<(), ProofError> {
    let (result, provenance) = outcome;
    if matches!(result, Err(ProofError::Cga(_))) {
        // The CGA check short-circuited before any RSA ran (one SHA-256
        // of work, nothing cacheable): a failed verdict, not an executed
        // verification — `sec.verify_rsa` stays an exact count of RSA
        // operations.
        stats.bump(Counter::SecVerifyFailed);
        return result;
    }
    stats.bump(match provenance {
        Provenance::Cached => Counter::SecVerifyCached,
        Provenance::Computed => Counter::SecVerifyRsa,
    });
    if result.is_err() {
        stats.bump(Counter::SecVerifyFailed);
    }
    result
}

impl SecureNode {
    /// Verify an identity proof for `claimed`: CGA ownership plus the
    /// signature over `payload`, memoized and counted.
    pub(crate) fn check_proof(
        &mut self,
        claimed: &Ipv6Addr,
        payload: &[u8],
        proof: &IdentityProof,
    ) -> Result<(), ProofError> {
        // Split borrow: cache, backend and batch handle all live on self.
        let SecureNode {
            crypto,
            batch,
            verify_cache,
            stats,
            ..
        } = self;
        let outcome = verify_proof_pipeline(
            claimed,
            payload,
            proof,
            verify_cache.as_mut(),
            crypto.as_ref(),
            batch.as_deref(),
        );
        record(stats, outcome)
    }

    /// Verify a signature under a key carried by the message itself
    /// (e.g. the IP-change proof's `XPK`), memoized and counted.
    pub(crate) fn check_known_key(
        &mut self,
        pk: &PublicKey,
        payload: &[u8],
        sig: &Signature,
    ) -> Result<(), ProofError> {
        let SecureNode {
            crypto,
            batch,
            verify_cache,
            stats,
            ..
        } = self;
        let outcome = verify_known_key_pipeline(
            pk,
            payload,
            sig,
            verify_cache.as_mut(),
            crypto.as_ref(),
            batch.as_deref(),
        );
        record(stats, outcome)
    }

    /// Verify a signature under the pre-configured DNS public key —
    /// everything the DNS signs (DREP, DNS replies, IP-change results,
    /// routes to the anycast address).
    pub(crate) fn check_dns_sig(
        &mut self,
        payload: &[u8],
        sig: &Signature,
    ) -> Result<(), ProofError> {
        // Split borrow: the key lives on self alongside the cache.
        let SecureNode {
            dns_pk,
            crypto,
            batch,
            verify_cache,
            stats,
            ..
        } = self;
        let outcome = verify_known_key_pipeline(
            dns_pk,
            payload,
            sig,
            verify_cache.as_mut(),
            crypto.as_ref(),
            batch.as_deref(),
        );
        record(stats, outcome)
    }
}
