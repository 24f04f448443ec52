//! The speculative prefetch pass: mirror every handler's verification
//! gates *read-only* and enqueue the signature triples the frame will
//! demand, so the engine's per-tick batch drain can verify each unique
//! triple once network-wide before dispatch.
//!
//! This is the supply side of the batch pipeline (`node::verify` is the
//! demand side). The contract is [`manet_sim::Protocol::prefetch_frame`]'s:
//! `&self`, no observable protocol effect, wrong or missing prefetches
//! cost only performance. Each gate below is an *approximation* of the
//! handler it shadows — state may change between prefetch and dispatch
//! (an earlier frame in the same tick can satisfy a pending entry), and
//! the destination's answer quota is deliberately not mirrored. A
//! spurious enqueue wastes one backend op in the drain; a missed one
//! falls back to an inline execution at dispatch. Verdict purity makes
//! both invisible.
//!
//! A flooded RREQ is gated on its header, as at dispatch: only its
//! destination verifies it, so only the destination decodes it, and the
//! relays' flood dedup needs no mirror.
//!
//! CGA checks are mirrored exactly (they are cheap SHA-256s): the
//! dispatch path short-circuits on a CGA failure *before* any signature
//! work, so prefetching a CGA-failing proof would execute a backend op
//! the inline run never pays.

use super::{NodeState, SecureNode};
use crate::dsr::Dsr;
use crate::envelope::Envelope;
use manet_crypto::{BatchVerifier, PublicKey, Signature, VerifyKey};
use manet_sim::NodeId;
use manet_wire::{cga, sigdata, FloodKind, IdentityProof, Message, Rreq};

impl SecureNode {
    pub(super) fn prefetch_frame_impl(&self, _src: NodeId, bytes: &[u8]) {
        let Some(batch) = self.batch.as_deref() else {
            return; // inline-only node: nothing to feed
        };
        // Kind gate before the frame decode: the bulk of traffic (data,
        // acks, AREQ floods, probes) can carry nothing the receiver
        // verifies, and skipping a verifiable kind here would only cost
        // an inline execution at dispatch — never correctness. `None`
        // from the offset peek means the strict decode would fail too.
        let Some(off) = Envelope::peek_msg_offset(bytes) else {
            return;
        };
        if !Message::peek_may_verify(&bytes[off..]) {
            return;
        }
        // A flooded RREQ is verified only by its destination, which the
        // header names: relays skip their copies undecoded.
        if let Some((_, flood)) = Envelope::peek_flood(bytes) {
            let FloodKind::Rreq { dip } = flood.kind else {
                return;
            };
            if !self.is_ready() || flood.sip == self.ident.ip() || !self.is_my_addr(&dip) {
                return;
            }
        }
        let Ok(env) = Envelope::decode(bytes) else {
            return;
        };
        match &env.source_route {
            Some(_) => {
                let Some(cur) = env.current_hop() else {
                    return;
                };
                if !self.accepts_addr(&cur) {
                    return; // overheard fallback broadcast — not ours
                }
                if env.at_final_hop() {
                    self.prefetch_local(batch, &env);
                }
                // Forwarding verifies nothing: no triples to feed.
            }
            None => {
                if let Message::Rreq(rreq) = &env.msg {
                    self.prefetch_rreq(batch, rreq);
                }
                // AREQs carry no signature; other flooded kinds are
                // dropped unverified at dispatch.
            }
        }
    }

    /// Flooded RREQ at its destination (the header gate above): source
    /// proof, then every SRR hop. The `answered_rreqs` quota is not
    /// mirrored, so late extra copies past `rrep_multi` prefetch
    /// spuriously — their triples are already in the verdict table from
    /// the first copy, making the waste a dedup lookup, not an op.
    fn prefetch_rreq(&self, batch: &BatchVerifier, rreq: &Rreq) {
        self.enqueue_proof(
            batch,
            &rreq.sip,
            &sigdata::rreq_src(&rreq.sip, rreq.seq),
            &rreq.src_proof,
        );
        if self.cfg.verify_srr {
            for e in &rreq.srr.0 {
                self.enqueue_proof(batch, &e.ip, &sigdata::srr_hop(&e.ip, rreq.seq), &e.proof);
            }
        }
    }

    /// A source-routed frame at its final hop: shadow `deliver_local`'s
    /// dispatch and each handler's checks.
    fn prefetch_local(&self, batch: &BatchVerifier, env: &Envelope) {
        match &env.msg {
            Message::Arep(arep) => {
                let dns_past_dad = self
                    .dns
                    .as_ref()
                    .filter(|_| !matches!(self.state, NodeState::Dad { .. }));
                if let Some(dns) = dns_past_dad {
                    // DNS warning path: verified against the stored
                    // challenge of the pending registration.
                    if let Some(ch) = dns.pending_challenge(&arep.sip) {
                        self.enqueue_proof(
                            batch,
                            &arep.sip,
                            &sigdata::arep(&arep.sip, ch),
                            &arep.proof,
                        );
                    }
                } else if let NodeState::Dad { ch, .. } = self.state {
                    if arep.sip == self.ident.ip() {
                        self.enqueue_proof(
                            batch,
                            &arep.sip,
                            &sigdata::arep(&arep.sip, ch),
                            &arep.proof,
                        );
                    }
                }
            }
            Message::Drep(drep) => {
                if let NodeState::Dad { ch, .. } = self.state {
                    if drep.sip == self.ident.ip() {
                        if let Some(dn) = &self.desired_dn {
                            self.enqueue_sig(
                                batch,
                                &self.dns_pk,
                                &sigdata::drep(dn, ch),
                                &drep.sig,
                            );
                        }
                    }
                }
            }
            Message::Rrep(rrep) => {
                if rrep.sip != self.ident.ip() {
                    return;
                }
                // Pending or recently satisfied discovery with the same
                // sequence (the dispatch-time recency *window* needs
                // `now`, unavailable here — a stale match is spurious).
                let seq_matches = self
                    .dsr
                    .pending_rreqs
                    .get(&rrep.dip)
                    .map(|p| p.seq)
                    .or_else(|| self.recent_rreqs.get(&rrep.dip).map(|&(seq, _)| seq))
                    == Some(rrep.seq);
                if !seq_matches {
                    return;
                }
                let payload = sigdata::rrep(&rrep.sip, rrep.seq, &rrep.rr);
                if rrep.dip.is_dns_well_known() {
                    self.enqueue_sig(batch, &self.dns_pk, &payload, &rrep.proof.sig);
                } else {
                    self.enqueue_proof(batch, &rrep.dip, &payload, &rrep.proof);
                }
            }
            Message::Crep(crep) => {
                if crep.s2ip != self.ident.ip() {
                    return;
                }
                if self.dsr.pending_rreqs.get(&crep.dip).map(|p| p.seq) != Some(crep.seq2) {
                    return;
                }
                self.enqueue_proof(
                    batch,
                    &crep.sip,
                    &sigdata::crep_cache_holder(&crep.s2ip, crep.seq2, &crep.rr_s2_to_s),
                    &crep.s_proof,
                );
                let d_payload = sigdata::rrep(&crep.sip, crep.orig_seq, &crep.rr_s_to_d);
                if crep.dip.is_dns_well_known() {
                    self.enqueue_sig(batch, &self.dns_pk, &d_payload, &crep.d_proof.sig);
                } else {
                    self.enqueue_proof(batch, &crep.dip, &d_payload, &crep.d_proof);
                }
            }
            Message::Rerr(rerr) => {
                // handle_rerr verifies unconditionally.
                self.enqueue_proof(
                    batch,
                    &rerr.iip,
                    &sigdata::rerr(&rerr.iip, &rerr.i2ip),
                    &rerr.proof,
                );
            }
            Message::ProbeAck(ack) => {
                let Some(pending) = self.pending_probes.get(&ack.probe_seq.0) else {
                    return;
                };
                if !pending.expected.contains(&ack.hop) {
                    return;
                }
                self.enqueue_proof(
                    batch,
                    &ack.hop,
                    &sigdata::probe_ack(&ack.sip, ack.probe_seq, &ack.hop),
                    &ack.proof,
                );
            }
            Message::DnsReply(reply) => {
                let Some(ch) = self.pending_resolves.get(&reply.qname).copied() else {
                    return;
                };
                let payload = sigdata::dns_reply(&reply.qname, reply.answer.as_ref(), ch);
                self.enqueue_sig(batch, &self.dns_pk, &payload, &reply.sig);
            }
            Message::IpChangeResult(res) => {
                // Peek — dispatch *takes* the pending entry; prefetch
                // must not.
                let Some(pending) = self.pending_ip_change.as_ref() else {
                    return;
                };
                let Some(ch) = pending.ch else {
                    return;
                };
                let payload = sigdata::ip_change_result(&res.dn, res.accepted, ch);
                self.enqueue_sig(batch, &self.dns_pk, &payload, &res.sig);
            }
            Message::IpChangeProof(proof) => {
                let Some(dns) = self.dns.as_ref() else {
                    return;
                };
                let Some((ch, old_ip, new_ip)) = dns.ip_change_session(&proof.dn) else {
                    return;
                };
                // Dispatch short-circuits on address or CGA mismatch
                // before the signature — mirror all four checks.
                if old_ip != proof.old_ip
                    || new_ip != proof.new_ip
                    || cga::verify(&proof.old_ip, &proof.pk, proof.old_rn).is_err()
                    || cga::verify(&proof.new_ip, &proof.pk, proof.new_rn).is_err()
                {
                    return;
                }
                let payload = sigdata::ip_change(&proof.old_ip, &proof.new_ip, ch);
                self.enqueue_sig(batch, &proof.pk, &payload, &proof.sig);
            }
            // Data, Ack, Probe, DnsQuery, IpChangeRequest and
            // IpChangeChallenge carry nothing the receiver verifies.
            _ => {}
        }
    }

    /// Enqueue an identity proof's signature half, mirroring the
    /// dispatch pipeline's CGA-first short-circuit.
    fn enqueue_proof(
        &self,
        batch: &BatchVerifier,
        claimed: &manet_wire::Ipv6Addr,
        payload: &[u8],
        proof: &IdentityProof,
    ) {
        if cga::verify(claimed, &proof.pk, proof.rn).is_err() {
            return; // dispatch never reaches the signature
        }
        self.enqueue_sig(batch, &proof.pk, payload, &proof.sig);
    }

    /// Enqueue a bare triple unless this node's own cache already holds
    /// its verdict (then dispatch never consults the batch table).
    /// `VerifyCache::peek` is non-mutating: no LRU promotion, no
    /// counters — the observable cache state stays untouched.
    fn enqueue_sig(&self, batch: &BatchVerifier, pk: &PublicKey, payload: &[u8], sig: &Signature) {
        let cached = self
            .verify_cache
            .as_ref()
            .is_some_and(|c| c.peek(&VerifyKey::for_triple(pk, payload, sig)).is_some());
        if !cached {
            batch.enqueue(pk, payload, sig);
        }
    }
}
