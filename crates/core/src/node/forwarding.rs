//! The secure stack on the shared DSR data plane ([`crate::dsr`]): where
//! its state lives, how it words its RREQ and RERR, and the hooks it
//! overrides — which together are what Sections 3.3–3.4 add to plain
//! DSR's forwarding (readiness before DAD completes, the DNS anycast
//! address, probe and credit bookkeeping, the Section 4 relay attacks).

use super::{QueuedWork, SecureNode};
use crate::config::Behavior;
use crate::credit::CreditManager;
use crate::dsr::{Dsr, DsrParams, DsrState, PendingAck};
use crate::envelope::Envelope;
use crate::stats::{Counter, NodeStats};
use manet_sim::Ctx;
use manet_wire::{
    sigdata, DnsQuery, DnsReply, IpChangeRequest, Ipv6Addr, Message, Rerr, RouteRecord, Rreq,
    SecureRouteRecord, Seq,
};
use rand::Rng;

impl SecureNode {
    /// Application API (call via `Engine::with_protocol`): send
    /// `payload` to `dip`, discovering a route if needed.
    pub fn send_data(&mut self, ctx: &mut Ctx, dip: Ipv6Addr, payload: Vec<u8>) {
        self.originate_data(ctx, dip, payload);
    }
}

impl Dsr for SecureNode {
    type Work = QueuedWork;

    fn dsr(&self) -> &DsrState<QueuedWork> {
        &self.dsr
    }
    fn dsr_mut(&mut self) -> &mut DsrState<QueuedWork> {
        &mut self.dsr
    }
    fn ip(&self) -> Ipv6Addr {
        self.ident.ip()
    }
    fn params(&self) -> DsrParams {
        DsrParams {
            rreq_timeout: self.cfg.rreq_timeout,
            rreq_retries: self.cfg.rreq_retries,
            ack_timeout: self.cfg.ack_timeout,
            data_retries: self.cfg.data_retries,
            max_send_buffer: self.cfg.max_send_buffer,
        }
    }
    fn behavior(&self) -> &Behavior {
        &self.behavior
    }
    fn credits(&self) -> &CreditManager {
        &self.credits
    }
    fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    /// `RREQ(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)` (Section 3.3).
    fn rreq_message(&mut self, dip: Ipv6Addr, seq: Seq) -> Message {
        let sip = self.ident.ip();
        Message::Rreq(Rreq {
            sip,
            dip,
            seq,
            srr: SecureRouteRecord::new(),
            src_proof: self.ident.prove(&sigdata::rreq_src(&sip, seq)),
        })
    }

    /// `RERR(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)` (Section 3.4).
    fn rerr_message(&mut self, next: Ipv6Addr) -> Message {
        let iip = self.ident.ip();
        Message::Rerr(Rerr {
            iip,
            i2ip: next,
            proof: self.ident.prove(&sigdata::rerr(&iip, &next)),
        })
    }

    fn deliver_control(&mut self, ctx: &mut Ctx, env: Envelope) {
        let path = env.source_route.unwrap_or_default();
        match env.msg {
            Message::Arep(arep) => self.handle_arep(ctx, arep),
            Message::Drep(drep) => self.handle_drep(ctx, drep),
            Message::Rrep(rrep) => self.handle_rrep(ctx, rrep),
            Message::Crep(crep) => self.handle_crep(ctx, crep),
            Message::Rerr(rerr) => self.handle_rerr(ctx, rerr),
            Message::Probe(probe) => {
                // We are the probed destination: acknowledge.
                let back: Vec<Ipv6Addr> = probe.route.reversed().0;
                self.send_probe_ack(ctx, &probe, back);
            }
            Message::ProbeAck(ack) => self.handle_probe_ack(ack),
            Message::DnsQuery(q) => {
                if self.dns.is_some() {
                    self.dns_on_query(ctx, q, &path);
                }
            }
            Message::DnsReply(r) => self.handle_dns_reply(ctx, r),
            Message::IpChangeRequest(r) => {
                if self.dns.is_some() {
                    self.dns_on_ip_change_request(ctx, r, &path);
                }
            }
            Message::IpChangeChallenge(c) => self.handle_ip_change_challenge(ctx, c, &path),
            Message::IpChangeProof(p) => {
                if self.dns.is_some() {
                    self.dns_on_ip_change_proof(ctx, p, &path);
                }
            }
            Message::IpChangeResult(r) => self.handle_ip_change_result(ctx, r),
            // Floods never arrive source-routed; plain-DSR messages are
            // not spoken by secure nodes.
            _ => self.stats.bump(Counter::RxUnexpectedRouted),
        }
    }

    fn send_queued(
        &mut self,
        ctx: &mut Ctx,
        dest: Ipv6Addr,
        work: QueuedWork,
    ) -> Option<QueuedWork> {
        let Some(path) = self.path_to(ctx.now(), &dest) else {
            // Stay queued — except an IP-change request, which is not
            // worth keeping without a route.
            return match work {
                QueuedWork::IpChangeRequest { .. } => None,
                keep => Some(keep),
            };
        };
        let msg = match work {
            QueuedWork::DnsQuery { qname, ch } => Message::DnsQuery(DnsQuery {
                requester: self.ident.ip(),
                qname,
                ch,
                route: path.clone(),
            }),
            QueuedWork::ArepWarning { arep } => Message::Arep(arep),
            QueuedWork::IpChangeRequest { dn } => {
                let pending = self.pending_ip_change.as_ref()?;
                Message::IpChangeRequest(IpChangeRequest {
                    dn,
                    old_ip: pending.old_ip,
                    new_ip: pending.new_ip,
                    route: path.clone(),
                })
            }
        };
        self.send_routed(ctx, path, msg);
        None
    }

    // --- what Sections 3.1–3.4 change in the data plane ---------------------

    /// A host may not originate before secure DAD confirms its address
    /// (Section 3.1).
    fn ready(&self) -> bool {
        self.is_ready()
    }

    /// The DNS also answers to the well-known anycast addresses
    /// (Section 3.2).
    fn is_my_addr(&self, ip: &Ipv6Addr) -> bool {
        *ip == self.ident.ip() || (self.dns.is_some() && ip.is_dns_well_known())
    }

    /// Alternate routes are an asset here (RREP diversity, credit
    /// ranking): scrub only routes over the direct link to `dip`.
    fn scrub_dead_first_hop(&mut self, dip: Ipv6Addr) {
        let me = self.ident.ip();
        self.dsr.route_cache.remove_link(me, me, dip);
    }

    fn on_broken_link(&mut self, next: Ipv6Addr) {
        let me = self.ident.ip();
        self.dsr.route_cache.remove_link(me, me, next);
    }

    /// Route probes are acknowledged hop by hop (Section 3.4); a
    /// malicious relay may swallow them or answer DNS queries itself
    /// (Section 4).
    fn intercept_transit(&mut self, ctx: &mut Ctx, env: &Envelope, idx: usize) -> bool {
        let Some(path) = &env.source_route else {
            return false;
        };
        let back = || -> Vec<Ipv6Addr> { path.0[..=idx].iter().rev().copied().collect() };
        match &env.msg {
            Message::Probe(probe) => {
                // A naive dropper swallows probes like everything else
                // and is localized; an evader acknowledges and forwards.
                if self.behavior.data_drop_prob > 0.0
                    && !self.behavior.evade_probes
                    && ctx.rng().gen::<f64>() < self.behavior.data_drop_prob
                {
                    self.stats.bump(Counter::AtkProbeDropped);
                    return true;
                }
                self.send_probe_ack(ctx, probe, back());
                false
            }
            // DNS impersonation: a malicious relay answers the query
            // itself with a forged signature (and suppresses the real one).
            Message::DnsQuery(q) if self.behavior.forge_dns => {
                let me = self.ident.ip();
                let reply = Message::DnsReply(DnsReply {
                    requester: q.requester,
                    qname: q.qname.clone(),
                    answer: Some(me),
                    sig: self
                        .ident
                        .sign(&sigdata::dns_reply(&q.qname, Some(&me), q.ch)),
                    route: RouteRecord::new(),
                });
                self.stats.bump(Counter::AtkForgedDns);
                let back = back();
                if back.len() >= 2 {
                    self.send_routed(ctx, RouteRecord(back), reply);
                }
                true
            }
            _ => false,
        }
    }

    /// RERR spam: after dutifully forwarding, falsely report the link
    /// broken to poison the source's cache (Section 4's forged-RERR case
    /// — the report is *signed honestly* by us, so it passes
    /// verification; the defense is frequency tracking + credits).
    fn after_forward(&mut self, ctx: &mut Ctx, env: &Envelope, idx: usize, next: Ipv6Addr) {
        if !self.behavior.rerr_spam {
            return;
        }
        if let (Message::Data(_), Some(path)) = (&env.msg, &env.source_route) {
            self.stats.bump(Counter::AtkRerrSpam);
            self.originate_rerr(ctx, path, idx, next);
        }
    }

    /// "Whenever a data packet is correctly acknowledged by D, the
    /// credit of each host in the route is increased by one."
    fn on_acked(&mut self, pending: &PendingAck) {
        self.consecutive_timeouts.remove(&pending.dip);
        self.credits.reward_route(&pending.relays);
    }

    fn on_ack_timeout(&mut self, ctx: &mut Ctx, pending: &PendingAck) {
        // Weak evidence against every relay: a black hole accrues it from
        // every flow it swallows (Section 3.4).
        self.credits.penalize_route(&pending.relays);
        // Persistent loss toward one destination triggers a route probe
        // ("test the integrality of each host") when enabled.
        let misses = self
            .consecutive_timeouts
            .entry(pending.dip)
            .and_modify(|c| *c += 1)
            .or_insert(1);
        if self.cfg.probe_enabled && *misses >= self.cfg.probe_after {
            self.launch_probe(ctx, pending.dip, &pending.relays);
        }
    }
}
