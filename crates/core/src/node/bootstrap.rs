//! Secure duplicate address detection (Section 3.1): the AREQ flood, the
//! AREP/DREP replies, and the DAD state machine that turns a candidate
//! CGA into a confirmed address.

use super::{NodeState, QueuedWork, SecureNode, TAG_DAD, TAG_DAD_PROBE};
use crate::dsr::{Dsr, Queued};
use crate::envelope::Envelope;
use crate::stats::Counter;
use manet_sim::{Ctx, Dir};
use manet_wire::Ipv6Addr;
use manet_wire::{
    sigdata, Arep, Areq, Challenge, DomainName, Drep, FloodHeader, Message, RouteRecord, Seq,
    DNS_WELL_KNOWN, UNSPECIFIED,
};
use rand::Rng;
use std::fmt;

impl SecureNode {
    pub(super) fn begin_dad(&mut self, ctx: &mut Ctx) {
        self.stats.bump(Counter::DadAttempts);
        // A restarted attempt invalidates the previous one's probe plan.
        for h in self.dad_probe_timers.drain(..) {
            ctx.cancel_timer(h);
        }
        let seq = self.dsr.alloc_seq();
        let ch = Challenge(ctx.rng().gen());
        self.state = NodeState::Dad { seq, ch };
        self.send_dad_probe(ctx, seq, ch);
        // Retransmit the probe across the window so a single lost
        // broadcast cannot hide a duplicate.
        let probes = self.cfg.dad_probes.max(1);
        for i in 1..probes {
            let delay = manet_sim::SimDuration::from_micros(
                self.cfg.dad_timeout.as_micros() * i as u64 / probes as u64,
            );
            let h = ctx.set_timer(delay, TAG_DAD_PROBE);
            self.dad_probe_timers.push(h);
        }
        ctx.set_timer(self.cfg.dad_timeout, TAG_DAD);
    }

    /// One AREQ flood of the current DAD attempt (fresh `seq`, so relays
    /// do not dedup the retransmission; same `ch`, which identifies the
    /// attempt to verifiers).
    fn send_dad_probe(&mut self, ctx: &mut Ctx, seq: Seq, ch: Challenge) {
        self.my_dad_probes.insert((seq.0, ch.0));
        let areq = Areq {
            sip: self.ident.ip(),
            seq,
            dn: self.desired_dn.clone(),
            ch,
            rr: RouteRecord::new(),
        };
        self.stats.bump(Counter::DadAreqSent);
        let env = Envelope::broadcast(UNSPECIFIED, Message::Areq(areq));
        self.tx(ctx, None, &env);
    }

    pub(super) fn on_dad_probe_timer(&mut self, ctx: &mut Ctx) {
        if let NodeState::Dad { ch, .. } = self.state {
            let seq = self.dsr.alloc_seq();
            self.send_dad_probe(ctx, seq, ch);
        }
    }

    pub(super) fn on_dad_timer(&mut self, ctx: &mut Ctx) {
        if matches!(self.state, NodeState::Dad { .. }) {
            // Silence means uniqueness (Section 3.1).
            self.dad_confirmed(ctx);
        }
    }

    fn dad_confirmed(&mut self, ctx: &mut Ctx) {
        self.state = NodeState::Ready;
        self.stats.joined_at = Some(ctx.now());
        self.stats.bump(Counter::DadConfirmed);
        ctx.sample("dad.latency_s", ctx.now().as_secs_f64());
        ctx.trace(
            Dir::Note,
            "DAD",
            format_args!("address {} confirmed", self.ident.ip()),
        );
        // Kick route discovery for everything queued while bootstrapping
        // — in address order, deduplicated: the send buffer yields its
        // destinations in storage order, which must not pick the RREQ
        // emission order.
        let mut dests: Vec<Ipv6Addr> = self.dsr.send_buffer.dests().collect();
        dests.sort_unstable();
        dests.dedup();
        for d in dests {
            self.ensure_route(ctx, d);
        }
    }

    fn restart_dad(&mut self, ctx: &mut Ctx) {
        if self.stats[Counter::DadAttempts] >= u64::from(self.cfg.dad_max_attempts) {
            self.stats.bump(Counter::DadGaveUp);
            self.state = NodeState::Boot;
            return;
        }
        self.ident.reroll(ctx.rng());
        self.begin_dad(ctx);
    }

    // --- flood handling ----------------------------------------------------

    /// Every early return of AREQ handling, taken on the header alone so
    /// that a dropped copy is never decoded: true for a first sighting
    /// of a foreign AREQ at a ready node.
    pub(super) fn admit_areq(&mut self, areq: &FloodHeader, ch: Challenge) -> bool {
        if self.my_dad_probes.contains(&(areq.seq.0, ch.0)) {
            return false; // an echo of our own probe
        }
        // Look before inserting: an insert reserves room first, so a
        // duplicate could grow a full table.
        let key = (areq.sip, areq.seq.0, ch.0);
        if self.seen_areqs.contains(&key) {
            return false;
        }
        self.seen_areqs.insert(key);
        // Mid-DAD — our own flood coming back, or another joining host —
        // a node neither answers nor relays.
        self.is_ready()
    }

    /// An AREQ [`Self::admit_areq`] let through, as received (`flood`
    /// is its peeked header): answer it where this node has an answer,
    /// then relay it. Only an answer decodes the frame — a DNS server
    /// books the name, the address's holder (or a squatter) sends an
    /// AREP, a replaying adversary an old one; the relay splices it.
    pub(super) fn handle_areq(&mut self, ctx: &mut Ctx, bytes: &[u8], flood: &FloodHeader) {
        ctx.trace(Dir::Rx, "AREQ", RxAreq(bytes));
        let answers = self.dns.is_some()
            || flood.sip == self.ident.ip()
            || self.behavior.squat_dad
            || self.behavior.replay;
        if answers {
            let Ok(Envelope {
                msg: Message::Areq(areq),
                ..
            }) = Envelope::decode(bytes)
            else {
                // Unreachable: whatever peeks decodes.
                return self.stats.bump(Counter::RxMalformed);
            };
            self.answer_areq(ctx, &areq);
        }
        // "Every host should … properly rebroadcast the AREQ": append
        // our address to the route record and rebroadcast — past the
        // collision holder too, so the DNS hears the request and
        // holds/cancels the registration.
        if !self.relay_flood(ctx, bytes, flood) {
            self.stats.bump(Counter::RxMalformed); // unreachable: an AREQ splices
        }
    }

    fn answer_areq(&mut self, ctx: &mut Ctx, areq: &Areq) {
        // DNS server: name bookkeeping (conflict DREP / pending commit).
        if self.dns.is_some() {
            self.dns_on_areq(ctx, areq);
        }

        let collision = areq.sip == self.ident.ip();
        if collision || self.behavior.squat_dad {
            if !collision {
                self.stats.bump(Counter::AtkForgedArep);
            }
            self.send_arep(ctx, areq);
            if collision {
                self.warn_dns(ctx, areq);
            }
        }

        // Replay attacker: answer with a previously captured AREP for
        // this address if we have one (its challenge is stale).
        if self.behavior.replay {
            if let Some(old) = self
                .observed_areps
                .iter()
                .find(|a| a.sip == areq.sip)
                .cloned()
            {
                self.stats.bump(Counter::AtkReplayedArep);
                self.reply_along(ctx, self.ident.ip(), &areq.rr, areq.sip, Message::Arep(old));
            }
        }
    }

    /// Answer an AREQ whose address collides with ours (Section 3.1):
    /// `AREP(SIP, RR, [SIP, ch]RSK, RPK, Rrn)` unicast along the reverse
    /// route record.
    fn send_arep(&mut self, ctx: &mut Ctx, areq: &Areq) {
        let proof = self.ident.prove(&sigdata::arep(&areq.sip, areq.ch));
        let arep = Arep {
            sip: areq.sip,
            rr: areq.rr.clone(),
            proof,
        };
        self.stats.bump(Counter::DadArepSent);
        self.reply_along(
            ctx,
            self.ident.ip(),
            &areq.rr,
            areq.sip,
            Message::Arep(arep),
        );
    }

    /// Warn the DNS that `areq.sip` is a duplicate so it never commits a
    /// name for it (Section 3.1). Routed over the normal secure-routing
    /// machinery toward the well-known DNS address.
    fn warn_dns(&mut self, ctx: &mut Ctx, areq: &Areq) {
        if self.dns.is_some() {
            // We *are* the DNS; cancel locally.
            let sip = areq.sip;
            self.dns_cancel_pending(ctx, &sip);
            return;
        }
        let proof = self.ident.prove(&sigdata::arep(&areq.sip, areq.ch));
        let warning = Arep {
            sip: areq.sip,
            rr: RouteRecord::new(),
            proof,
        };
        let dns_ip = DNS_WELL_KNOWN[0];
        if let Some(path) = self.path_to(ctx.now(), &dns_ip) {
            self.send_routed(ctx, path, Message::Arep(warning));
        } else {
            let warning = Queued::Other(QueuedWork::ArepWarning { arep: warning });
            self.enqueue(dns_ip, warning, &[]);
            self.ensure_route(ctx, dns_ip);
        }
    }

    // --- replies -----------------------------------------------------------

    pub(super) fn handle_arep(&mut self, ctx: &mut Ctx, arep: Arep) {
        // DNS warning path (Section 3.1's "unicast an AREP to DNS").
        if self.dns.is_some() && !matches!(self.state, NodeState::Dad { .. }) {
            self.dns_on_warning_arep(ctx, &arep);
            return;
        }
        let NodeState::Dad { ch, .. } = self.state else {
            return;
        };
        if arep.sip != self.ident.ip() {
            return; // not about our candidate
        }
        // The two checks of Section 3.1: CGA ownership of SIP by (RPK,
        // Rrn), and the challenge response under RSK.
        match self.check_proof(&arep.sip, &sigdata::arep(&arep.sip, ch), &arep.proof) {
            Ok(()) => {
                self.stats.bump(Counter::DadCollisions);
                ctx.trace(
                    Dir::Note,
                    "DAD",
                    "valid AREP: address collision, rerolling rn",
                );
                self.restart_dad(ctx);
            }
            Err(_) => {
                self.stats.bump(Counter::SecArepRejected);
                ctx.trace(Dir::Drop, "AREP", "invalid proof (squat/replay attempt?)");
            }
        }
    }

    pub(super) fn handle_drep(&mut self, ctx: &mut Ctx, drep: Drep) {
        let NodeState::Dad { ch, .. } = self.state else {
            return;
        };
        if drep.sip != self.ident.ip() {
            return;
        }
        let Some(dn) = self.desired_dn.clone() else {
            return; // we registered no name; a DREP for us is bogus
        };
        match self.check_dns_sig(&sigdata::drep(&dn, ch), &drep.sig) {
            Ok(()) => {
                self.stats.bump(Counter::DadNameConflicts);
                // First-come-first-serve lost: pick a decorated fallback
                // name and retry the DAD round (Section 3.1).
                let fallback = format!("{}-{}", dn.as_str(), self.stats[Counter::DadAttempts] + 1);
                self.desired_dn = DomainName::new(&fallback).ok();
                ctx.trace(
                    Dir::Note,
                    "DAD",
                    format_args!("name conflict; retrying as {fallback}"),
                );
                self.restart_dad(ctx);
            }
            Err(_) => {
                self.stats.bump(Counter::SecDrepRejected);
            }
        }
    }
}

/// The `Rx AREQ` trace detail of a received frame, decoded only when a
/// tracer formats it: a relay that splices the frame never builds the
/// message.
struct RxAreq<'a>(&'a [u8]);

impl fmt::Display for RxAreq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match Envelope::decode(self.0).map(|env| env.msg) {
            Ok(Message::Areq(areq)) => write!(
                f,
                "for {} dn={:?}",
                areq.sip,
                areq.dn.as_ref().map(|d| d.as_str())
            ),
            _ => Ok(()),
        }
    }
}
