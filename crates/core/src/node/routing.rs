//! Secure DSR route discovery and maintenance (Sections 3.3–3.4):
//! RREQ floods with per-hop identity proofs, signed RREP/CREP replies,
//! signed RERRs, and the route-integrity probe extension.

use super::{PendingProbe, SecureNode, TAG_ROUTE_PROBE};
use crate::dsr::Dsr;
use crate::envelope::Envelope;
use crate::fxhash::FxHashSet;
use crate::routecache::CachedRoute;
use crate::stats::Counter;
use manet_sim::{Ctx, Dir};
use manet_wire::{
    sigdata, Crep, FloodHeader, Ipv6Addr, Message, Rerr, RouteRecord, Rrep, Rreq, SrrEntry,
};

impl SecureNode {
    /// Every early return of RREQ handling, taken on the header alone so
    /// that a dropped copy is never decoded: true for a first sighting
    /// to relay and for a copy addressed to us within the answer quota.
    pub(super) fn admit_rreq(&mut self, ctx: &mut Ctx, rreq: &FloodHeader, dip: Ipv6Addr) -> bool {
        if !self.is_ready() {
            return false;
        }
        if rreq.sip == self.ident.ip() {
            return false; // our own flood echoed back
        }
        ctx.trace(
            Dir::Rx,
            "RREQ",
            format_args!("{}→{} seq={} hops={}", rreq.sip, dip, rreq.seq.0, rreq.hops),
        );

        if self.is_my_addr(&dip) {
            // Answer several copies (arriving over distinct paths) so the
            // source gets route diversity to select among.
            let key = (rreq.sip, rreq.seq.0);
            let answered = self.answered_rreqs.get(&key).unwrap_or(0);
            if answered >= self.cfg.rrep_multi {
                return false;
            }
            if self.answered_rreqs.put(key, answered + 1) {
                self.stats.bump(Counter::RouteRreqDedupRotations);
            }
            return true;
        }
        self.dsr.first_sighting(&mut self.stats, rreq.sip, rreq.seq)
    }

    /// An RREQ [`Self::admit_rreq`] let through: answer it as its
    /// destination, or relay it.
    pub(super) fn handle_rreq(&mut self, ctx: &mut Ctx, rreq: Rreq) {
        if self.is_my_addr(&rreq.dip) {
            return self.answer_rreq(ctx, rreq);
        }
        if self.behavior.forge_rrep {
            self.forge_rrep(ctx, &rreq);
            return; // attracts the route; no honest relaying
        }

        if self.behavior.replay {
            if let Some(old) = self
                .observed_rreps
                .iter()
                .find(|r| r.dip == rreq.dip)
                .cloned()
            {
                // Splice the captured proof onto the new request: the
                // destination signature covers (old sip, old seq, old rr)
                // so the verifier must reject it.
                self.stats.bump(Counter::AtkReplayedRrep);
                let forged = Rrep {
                    sip: rreq.sip,
                    dip: old.dip,
                    seq: rreq.seq,
                    rr: old.rr.clone(),
                    proof: old.proof.clone(),
                };
                let back = rreq.srr.to_route_record();
                self.reply_along(ctx, self.ident.ip(), &back, rreq.sip, Message::Rrep(forged));
            }
        }

        // Cached-route reply (Section 3.3, CREP) — only from routes we
        // discovered ourselves (we hold D's signed RREP for them).
        if self.cfg.crep_enabled {
            if let Some(cached) = self.dsr.route_cache.creppable(&rreq.dip, ctx.now()) {
                let cached = cached.to_owned();
                self.send_crep(ctx, &rreq, &cached);
                return;
            }
        }

        // Relay: sign and append our identity block to the SRR.
        let mut fwd = rreq;
        let entry_proof = self.ident.prove_srr_hop(fwd.seq);
        fwd.srr.0.push(SrrEntry {
            ip: self.ident.ip(),
            proof: entry_proof,
        });
        self.stats.bump(Counter::RouteRreqRelayed);
        let env = Envelope::broadcast(self.ident.ip(), Message::Rreq(fwd));
        self.tx(ctx, None, &env);
    }

    /// We are the destination (or the DNS behind the anycast address):
    /// verify the whole request and answer with a signed RREP.
    fn answer_rreq(&mut self, ctx: &mut Ctx, rreq: Rreq) {
        // Check 1: source validity.
        if self
            .check_proof(
                &rreq.sip,
                &sigdata::rreq_src(&rreq.sip, rreq.seq),
                &rreq.src_proof,
            )
            .is_err()
        {
            self.stats.bump(Counter::SecRreqRejected);
            ctx.trace(
                Dir::Drop,
                "RREQ",
                format_args!("bad source proof from {}", rreq.sip),
            );
            return;
        }
        // Check 2: every intermediate hop's identity.
        if self.cfg.verify_srr {
            for e in &rreq.srr.0 {
                if self
                    .check_proof(&e.ip, &sigdata::srr_hop(&e.ip, rreq.seq), &e.proof)
                    .is_err()
                {
                    self.stats.bump(Counter::SecRreqRejected);
                    ctx.trace(
                        Dir::Drop,
                        "RREQ",
                        format_args!("bad SRR entry for {}", e.ip),
                    );
                    return;
                }
            }
        }
        let rr = rreq.srr.to_route_record();
        let payload = sigdata::rrep(&rreq.sip, rreq.seq, &rr);
        let proof = self.ident.prove(&payload);
        let rrep = Rrep {
            sip: rreq.sip,
            dip: rreq.dip,
            seq: rreq.seq,
            rr: rr.clone(),
            proof,
        };
        self.stats.bump(Counter::RouteRrepSent);
        self.reply_along(ctx, rreq.dip, &rr, rreq.sip, Message::Rrep(rrep));
    }

    /// Black-hole route attraction: forge an RREP claiming we are one hop
    /// from the destination. The proof is signed with our own key (we do
    /// not have the destination's), so a verifying source rejects it —
    /// this is exactly the Section 4 argument made executable.
    fn forge_rrep(&mut self, ctx: &mut Ctx, rreq: &Rreq) {
        let back = rreq.srr.to_route_record();
        let mut rr = back.clone();
        rr.push(self.ident.ip());
        let payload = sigdata::rrep(&rreq.sip, rreq.seq, &rr);
        let claimed = self.behavior.impersonate.unwrap_or(rreq.dip);
        let proof = self.ident.prove(&payload); // our key ≠ H(...) of `claimed`
        let rrep = Rrep {
            sip: rreq.sip,
            dip: claimed,
            seq: rreq.seq,
            rr,
            proof,
        };
        self.stats.bump(Counter::AtkForgedRrep);
        self.reply_along(ctx, self.ident.ip(), &back, rreq.sip, Message::Rrep(rrep));
    }

    fn send_crep(&mut self, ctx: &mut Ctx, rreq: &Rreq, cached: &CachedRoute) {
        let Some((orig_seq, d_proof)) = cached.d_proof.clone() else {
            return; // not creppable: no destination proof to serve
        };
        let rr_s2_to_s = rreq.srr.to_route_record();
        let s_proof = self.ident.prove(&sigdata::crep_cache_holder(
            &rreq.sip,
            rreq.seq,
            &rr_s2_to_s,
        ));
        let crep = Crep {
            s2ip: rreq.sip,
            sip: self.ident.ip(),
            dip: rreq.dip,
            seq2: rreq.seq,
            rr_s2_to_s: rr_s2_to_s.clone(),
            s_proof,
            orig_seq,
            rr_s_to_d: RouteRecord(cached.relays.clone()),
            d_proof,
        };
        self.stats.bump(Counter::RouteCrepSent);
        self.reply_along(
            ctx,
            self.ident.ip(),
            &rr_s2_to_s,
            rreq.sip,
            Message::Crep(crep),
        );
    }

    // --- replies ------------------------------------------------------------

    pub(super) fn handle_rrep(&mut self, ctx: &mut Ctx, rrep: Rrep) {
        if rrep.sip != self.ident.ip() {
            return;
        }
        // Match against the outstanding request, or a recently satisfied
        // one (extra RREPs for the same sequence add alternate routes).
        const RECENT_WINDOW_US: u64 = 10_000_000;
        let (expected_seq, pending_started) = match self.dsr.pending_rreqs.get(&rrep.dip) {
            Some(p) => (p.seq, Some(p.started)),
            None => match self.recent_rreqs.get(&rrep.dip) {
                Some(&(seq, at))
                    if ctx.now().as_micros().saturating_sub(at.as_micros()) <= RECENT_WINDOW_US =>
                {
                    (seq, None)
                }
                _ => return, // nothing outstanding (stale or replayed)
            },
        };
        if expected_seq != rrep.seq {
            self.stats.bump(Counter::SecRrepRejected);
            ctx.trace(Dir::Drop, "RREP", "sequence mismatch (replay?)");
            return;
        }
        // Verify the destination's proof over [SIP, seq, RR]. Routes to
        // the DNS anycast address verify against the well-known DNS key
        // (an anycast address is not a CGA); everything else runs the
        // full CGA + signature check.
        let payload = sigdata::rrep(&rrep.sip, rrep.seq, &rrep.rr);
        let ok = if rrep.dip.is_dns_well_known() {
            self.check_dns_sig(&payload, &rrep.proof.sig).is_ok()
        } else {
            self.check_proof(&rrep.dip, &payload, &rrep.proof).is_ok()
        };
        if !ok {
            self.stats.bump(Counter::SecRrepRejected);
            ctx.trace(
                Dir::Drop,
                "RREP",
                format_args!("invalid proof for {}", rrep.dip),
            );
            return;
        }
        if let Some(started) = pending_started {
            self.dsr.pending_rreqs.remove(&rrep.dip);
            self.recent_rreqs.insert(rrep.dip, (rrep.seq, ctx.now()));
            ctx.sample(
                "route.discovery_latency_s",
                ctx.now().since(started).as_secs_f64(),
            );
            self.stats.bump(Counter::RouteDiscovered);
        } else {
            self.stats.bump(Counter::RouteAlternateCached);
        }
        ctx.trace(
            Dir::Note,
            "ROUTE",
            format_args!("to {} via {} relays", rrep.dip, rrep.rr.len()),
        );
        self.dsr.route_cache.insert(
            rrep.dip,
            CachedRoute {
                relays: rrep.rr.0.clone(),
                d_proof: Some((rrep.seq, rrep.proof.clone())),
                learned_at: ctx.now(),
            },
        );
        if self.behavior.replay {
            self.observed_rreps.push(rrep.clone());
            self.observed_rreps.truncate(32);
        }
        self.flush_buffer(ctx, rrep.dip);
    }

    pub(super) fn handle_crep(&mut self, ctx: &mut Ctx, crep: Crep) {
        if crep.s2ip != self.ident.ip() {
            return;
        }
        let (pending_seq, started) = match self.dsr.pending_rreqs.get(&crep.dip) {
            Some(p) => (p.seq, p.started),
            None => return,
        };
        if pending_seq != crep.seq2 {
            self.stats.bump(Counter::SecCrepRejected);
            return;
        }
        // Verify the cache holder's identity over [S'IP, seq', RR_{S'→S}].
        let holder_payload = sigdata::crep_cache_holder(&crep.s2ip, crep.seq2, &crep.rr_s2_to_s);
        if self
            .check_proof(&crep.sip, &holder_payload, &crep.s_proof)
            .is_err()
        {
            self.stats.bump(Counter::SecCrepRejected);
            ctx.trace(Dir::Drop, "CREP", "invalid cache-holder proof");
            return;
        }
        // Verify the destination's original proof over [SIP, seq, RR_{S→D}].
        let d_payload = sigdata::rrep(&crep.sip, crep.orig_seq, &crep.rr_s_to_d);
        let d_ok = if crep.dip.is_dns_well_known() {
            self.check_dns_sig(&d_payload, &crep.d_proof.sig).is_ok()
        } else {
            self.check_proof(&crep.dip, &d_payload, &crep.d_proof)
                .is_ok()
        };
        if !d_ok {
            self.stats.bump(Counter::SecCrepRejected);
            ctx.trace(Dir::Drop, "CREP", "invalid destination proof");
            return;
        }
        // Composite route: S' → (relays to S) → S → (S's relays to D) → D.
        let mut relays = crep.rr_s2_to_s.0.clone();
        relays.push(crep.sip);
        relays.extend(crep.rr_s_to_d.0.iter().copied());
        // The composite can double back through us (we may sit on S's
        // cached path to D). The proofs cover the original components, so
        // verification is done; for *forwarding* we shortcut at our last
        // occurrence. DSR's standard cached-reply loop trimming.
        if let Some(pos) = relays.iter().rposition(|r| *r == self.ident.ip()) {
            relays.drain(..=pos);
        }
        self.dsr.pending_rreqs.remove(&crep.dip);
        ctx.sample(
            "route.discovery_latency_s",
            ctx.now().since(started).as_secs_f64(),
        );
        self.stats.bump(Counter::RouteDiscoveredViaCrep);
        self.dsr.route_cache.insert(
            crep.dip,
            CachedRoute {
                relays,
                d_proof: None, // composite: not servable as a further CREP
                learned_at: ctx.now(),
            },
        );
        self.flush_buffer(ctx, crep.dip);
    }

    pub(super) fn handle_rerr(&mut self, ctx: &mut Ctx, rerr: Rerr) {
        if self
            .check_proof(
                &rerr.iip,
                &sigdata::rerr(&rerr.iip, &rerr.i2ip),
                &rerr.proof,
            )
            .is_err()
        {
            self.stats.bump(Counter::SecRerrRejected);
            ctx.trace(
                Dir::Drop,
                "RERR",
                format_args!("invalid proof from {}", rerr.iip),
            );
            return;
        }
        self.stats.bump(Counter::RouteRerrReceived);
        let me = self.ident.ip();
        self.dsr.route_cache.remove_link(me, rerr.iip, rerr.i2ip);
        // Track the reporter; frequent reporters (and their next hops)
        // mark a hostile area (Section 3.4).
        if self.credits.record_rerr(&rerr.iip, &rerr.i2ip) {
            self.stats.bump(Counter::CreditHostileMarked);
            ctx.trace(
                Dir::Note,
                "CREDIT",
                format_args!("hostile area around {} / {}", rerr.iip, rerr.i2ip),
            );
        }
    }

    // --- route probing (Section 3.4 extension) -------------------------------

    /// Probe the route last used toward `dip`: every hop that forwards
    /// the probe returns a signed per-hop ack; the first silent hop is
    /// the suspect.
    pub(super) fn launch_probe(&mut self, ctx: &mut Ctx, dip: Ipv6Addr, relays: &[Ipv6Addr]) {
        // lint: allow(unordered-iter) — existence check (.any); no visit-order dependence
        if self.pending_probes.values().any(|p| p.dip == dip) {
            return; // one probe at a time per destination
        }
        let seq = self.dsr.alloc_seq();
        let mut path = Vec::with_capacity(relays.len() + 2);
        path.push(self.ident.ip());
        path.extend_from_slice(relays);
        path.push(dip);
        let route = RouteRecord(path);
        if route.len() < 2 {
            return;
        }
        let mut expected = relays.to_vec();
        expected.push(dip);
        self.pending_probes.insert(
            seq.0,
            PendingProbe {
                dip,
                expected,
                acked: FxHashSet::default(),
            },
        );
        self.stats.bump(Counter::ProbeSent);
        ctx.trace(Dir::Note, "PROBE", format_args!("probing route to {dip}"));
        let msg = Message::Probe(manet_wire::Probe {
            sip: self.ident.ip(),
            dip,
            seq,
            route: route.clone(),
        });
        self.send_routed(ctx, route, msg);
        ctx.set_timer(self.cfg.probe_timeout, TAG_ROUTE_PROBE | seq.0);
    }

    /// Sign and return a per-hop probe acknowledgement toward the source.
    pub(super) fn send_probe_ack(
        &mut self,
        ctx: &mut Ctx,
        probe: &manet_wire::Probe,
        back: Vec<Ipv6Addr>,
    ) {
        let hop = self.ident.ip();
        let proof = self
            .ident
            .prove(&sigdata::probe_ack(&probe.sip, probe.seq, &hop));
        let ack = Message::ProbeAck(manet_wire::ProbeAck {
            sip: probe.sip,
            probe_seq: probe.seq,
            hop,
            proof,
        });
        self.stats.bump(Counter::ProbeAcksSent);
        if back.len() >= 2 {
            self.send_routed(ctx, RouteRecord(back), ack);
        }
    }

    pub(super) fn handle_probe_ack(&mut self, ack: manet_wire::ProbeAck) {
        let Some(pending) = self.pending_probes.get(&ack.probe_seq.0) else {
            return; // expired or unsolicited
        };
        if !pending.expected.contains(&ack.hop) {
            self.stats.bump(Counter::ProbeAckOffroute);
            return;
        }
        // Same identity checks as everything else: the CGA must belong
        // to the claimed hop and the signature must cover this probe.
        if self
            .check_proof(
                &ack.hop,
                &sigdata::probe_ack(&ack.sip, ack.probe_seq, &ack.hop),
                &ack.proof,
            )
            .is_err()
        {
            self.stats.bump(Counter::SecProbeAckRejected);
            return;
        }
        if let Some(pending) = self.pending_probes.get_mut(&ack.probe_seq.0) {
            pending.acked.insert(ack.hop);
        }
    }

    /// The collection window closed: judge the probed route.
    pub(super) fn on_route_probe_timer(&mut self, ctx: &mut Ctx, seq: u64) {
        let Some(pending) = self.pending_probes.remove(&seq) else {
            return;
        };
        let first_silent = pending
            .expected
            .iter()
            .position(|h| !pending.acked.contains(h));
        match first_silent {
            None => {
                // Everyone answered: an evading dropper or a transient
                // fault. Credits remain the fallback.
                self.stats.bump(Counter::ProbeInconclusive);
                ctx.trace(Dir::Note, "PROBE", "all hops acked — inconclusive");
            }
            Some(i) => {
                let suspect = pending.expected[i];
                // The suspect either swallowed the probe or swallowed the
                // acks of everyone behind it — in both cases the paper's
                // "very large amount" slash applies. Its predecessor gets
                // only the weak timeout-grade penalty (it might be the
                // ack-dropper's victim, not an accomplice).
                self.credits.slash(&suspect);
                if i > 0 {
                    self.credits.penalize_route(&pending.expected[i - 1..i]);
                }
                self.stats.probe_suspects.push(suspect);
                self.stats.bump(Counter::ProbeLocalized);
                ctx.trace(
                    Dir::Note,
                    "PROBE",
                    format_args!("suspect localized: {suspect}"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::identity::{verify_proof, HostIdentity};
    use manet_crypto::BackendKind;
    use manet_sim::{
        Engine, EngineConfig, Mobility, NodeId, Pos, Protocol, RadioConfig, SimDuration, SimTime,
    };
    use manet_wire::Seq;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::any::Any;

    /// A neighbour that records what the relay transmits.
    #[derive(Default)]
    struct Sink(Vec<Vec<u8>>);

    impl Protocol for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_frame(&mut self, _ctx: &mut Ctx, _src: NodeId, bytes: &[u8]) {
            self.0.push(bytes.to_vec());
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, _tag: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One ready relay and one listening neighbour on a lossless link.
    fn relay_and_sink(seed: u64, crypto_backend: BackendKind) -> (Engine, NodeId, NodeId) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dns_pk = manet_crypto::KeyPair::generate(512, &mut rng)
            .public()
            .clone();
        let cfg = ProtocolConfig {
            crypto_backend,
            ..ProtocolConfig::default()
        };
        let relay = SecureNode::new(cfg, dns_pk, None, &mut rng);
        let mut engine = Engine::new(EngineConfig {
            radio: RadioConfig {
                loss: 0.0,
                ..RadioConfig::default()
            },
            seed,
            ..EngineConfig::default()
        });
        let sink = engine.add_node(
            Box::<Sink>::default(),
            Pos::new(100.0, 0.0),
            Mobility::Static,
        );
        let relay = engine.add_node(Box::new(relay), Pos::new(0.0, 0.0), Mobility::Static);
        // Nobody disputes the address: DAD runs out and the relay is up.
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert!(engine.protocol_as::<SecureNode>(relay).is_ready());
        engine.with_protocol::<Sink, _>(sink, |s, _| s.0.clear());
        (engine, relay, sink)
    }

    /// Hand the relay a flooded RREQ `(src, seq)` for some far destination,
    /// as if `from` had broadcast it.
    fn flood_rreq(engine: &mut Engine, relay: NodeId, from: NodeId, src: &HostIdentity, seq: Seq) {
        let sip = src.ip();
        let rreq = Rreq {
            sip,
            dip: Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, 9]),
            seq,
            srr: manet_wire::SecureRouteRecord::new(),
            src_proof: src.prove(&sigdata::rreq_src(&sip, seq)),
        };
        let bytes = Envelope::broadcast(sip, Message::Rreq(rreq)).encode();
        engine.with_protocol::<SecureNode, _>(relay, |n, ctx| n.on_frame(ctx, from, &bytes));
    }

    /// Run until the relay's broadcasts have landed; the SRR entries it
    /// appended, in transmission order, then forget them.
    fn relayed_entries(engine: &mut Engine, sink: NodeId) -> Vec<SrrEntry> {
        let until = engine.now() + SimDuration::from_millis(50);
        engine.run_until(until);
        let frames = engine.with_protocol::<Sink, _>(sink, |s, _| std::mem::take(&mut s.0));
        frames
            .iter()
            .map(|f| match Envelope::decode(f).expect("relay frame").msg {
                Message::Rreq(mut r) => r.srr.0.pop().expect("relay appended an entry"),
                other => panic!("relay sent {}", other.kind()),
            })
            .collect()
    }

    #[test]
    fn relay_signs_one_hop_entry_for_two_sources_sharing_a_seq() {
        let (mut engine, relay, sink) = relay_and_sink(31, BackendKind::Rsa);
        let mut rng = ChaCha12Rng::seed_from_u64(32);
        let sources = [
            HostIdentity::generate(512, &mut rng),
            HostIdentity::generate(512, &mut rng),
        ];
        let signs = |e: &Engine| {
            e.protocol_as::<SecureNode>(relay)
                .crypto_backend()
                .signs_executed()
        };
        let before = signs(&engine);
        for src in &sources {
            flood_rreq(&mut engine, relay, sink, src, Seq(1));
        }
        assert_eq!(signs(&engine) - before, 1, "second source hit the memo");

        let entries = relayed_entries(&mut engine, sink);
        assert_eq!(entries.len(), 2, "both floods relayed");
        // The memo is invisible: both entries are the bytes a fresh
        // signature produces.
        let node = engine.protocol_as::<SecureNode>(relay);
        let fresh = SrrEntry {
            ip: node.ip(),
            proof: node.ident.prove(&sigdata::srr_hop(&node.ip(), Seq(1))),
        };
        assert_eq!(entries[0], fresh);
        assert_eq!(entries[1], fresh);

        // A different seq is a different signature.
        flood_rreq(&mut engine, relay, sink, &sources[0], Seq(2));
        let entries = relayed_entries(&mut engine, sink);
        assert_ne!(entries[0].proof.sig, fresh.proof.sig);
    }

    #[test]
    fn ten_thousand_distinct_seqs_leave_the_relay_remembering_only_the_newest() {
        let (mut engine, relay, sink) = relay_and_sink(35, BackendKind::HashSig);
        let mut rng = ChaCha12Rng::seed_from_u64(36);
        let flooder = HostIdentity::generate(512, &mut rng);
        let other = HostIdentity::generate(512, &mut rng);
        for seq in 1..=10_000 {
            flood_rreq(&mut engine, relay, sink, &flooder, Seq(seq));
        }
        assert_eq!(relayed_entries(&mut engine, sink).len(), 10_000);
        let signs = |e: &Engine| {
            e.protocol_as::<SecureNode>(relay)
                .crypto_backend()
                .signs_executed()
        };
        let before = signs(&engine);
        flood_rreq(&mut engine, relay, sink, &other, Seq(10_000));
        assert_eq!(signs(&engine), before, "newest seq still remembered");
        flood_rreq(&mut engine, relay, sink, &other, Seq(1));
        assert_eq!(signs(&engine), before + 1, "oldest seq was dropped");
    }

    #[test]
    fn relayed_entry_names_the_new_address_after_an_address_change() {
        let (mut engine, relay, sink) = relay_and_sink(33, BackendKind::Rsa);
        let mut rng = ChaCha12Rng::seed_from_u64(34);
        let src = HostIdentity::generate(512, &mut rng);
        flood_rreq(&mut engine, relay, sink, &src, Seq(1));
        let old = relayed_entries(&mut engine, sink).remove(0);

        // Same seq from another source after each kind of address change:
        // the entry must be signed afresh over the new address.
        let changes: [fn(&mut SecureNode, &mut Ctx); 2] = [
            |n, ctx| {
                n.ident.reroll(ctx.rng());
            },
            |n, _| {
                n.ident.set_rn(0xF1C2);
            },
        ];
        let mut prev = old;
        for change in changes {
            let src = HostIdentity::generate(512, &mut rng);
            engine.with_protocol::<SecureNode, _>(relay, change);
            let now_ip = engine.protocol_as::<SecureNode>(relay).ip();
            assert_ne!(now_ip, prev.ip);
            flood_rreq(&mut engine, relay, sink, &src, Seq(1));
            let entry = relayed_entries(&mut engine, sink).remove(0);
            assert_eq!(entry.ip, now_ip);
            // What the destination checks for every SRR entry.
            let payload = sigdata::srr_hop(&entry.ip, Seq(1));
            assert_eq!(verify_proof(&entry.ip, &payload, &entry.proof), Ok(()));
            assert!(verify_proof(&prev.ip, &payload, &entry.proof).is_err());
            prev = entry;
        }
    }
}
