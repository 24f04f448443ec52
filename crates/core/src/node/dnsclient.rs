//! The host side of the DNS services (Section 3.2): secure name
//! resolution and the challenge/response IP-change flow. The server side
//! lives in [`crate::dns`].

use super::{PendingIpChange, QueuedWork, SecureNode};
use crate::dsr::{Dsr, Queued};
use crate::stats::Counter;
use manet_sim::{Ctx, Dir};
use manet_wire::{
    sigdata, Challenge, DnsQuery, DnsReply, DomainName, IpChangeChallenge, IpChangeProof,
    IpChangeRequest, IpChangeResult, Message, RouteRecord, DNS_WELL_KNOWN,
};
use rand::Rng;

impl SecureNode {
    /// Securely resolve `qname` through the DNS (Section 3.2). The signed
    /// answer lands in [`crate::stats::NodeStats::resolved`].
    pub fn resolve(&mut self, ctx: &mut Ctx, qname: DomainName) {
        let ch = Challenge(ctx.rng().gen());
        self.pending_resolves.insert(qname.clone(), ch);
        let dns_ip = DNS_WELL_KNOWN[0];
        if self.is_ready() {
            if let Some(path) = self.path_to(ctx.now(), &dns_ip) {
                let msg = Message::DnsQuery(DnsQuery {
                    requester: self.ident.ip(),
                    qname,
                    ch,
                    route: path.clone(),
                });
                self.send_routed(ctx, path, msg);
                return;
            }
        }
        let query = Queued::Other(QueuedWork::DnsQuery { qname, ch });
        self.enqueue(dns_ip, query, &[]);
        if self.is_ready() {
            self.ensure_route(ctx, dns_ip);
        }
    }

    /// Start the Section 3.2 IP-change flow: move our DNS name to the
    /// CGA generated by `new_rn` (same key pair).
    pub fn request_ip_change(&mut self, ctx: &mut Ctx, new_rn: u64) {
        let Some(dn) = self.desired_dn.clone() else {
            return; // no registered name to move
        };
        let old_ip = self.ident.ip();
        let new_ip = manet_wire::cga::generate(self.ident.public(), new_rn);
        self.pending_ip_change = Some(PendingIpChange {
            dn: dn.clone(),
            old_rn: self.ident.rn(),
            new_rn,
            old_ip,
            new_ip,
            ch: None,
        });
        let dns_ip = DNS_WELL_KNOWN[0];
        if self.is_ready() {
            if let Some(path) = self.path_to(ctx.now(), &dns_ip) {
                let msg = Message::IpChangeRequest(IpChangeRequest {
                    dn,
                    old_ip,
                    new_ip,
                    route: path.clone(),
                });
                self.send_routed(ctx, path, msg);
                return;
            }
            self.ensure_route(ctx, dns_ip);
        }
        let request = Queued::Other(QueuedWork::IpChangeRequest { dn });
        self.enqueue(dns_ip, request, &[]);
    }

    // --- inbound ------------------------------------------------------------

    pub(super) fn handle_dns_reply(&mut self, ctx: &mut Ctx, reply: DnsReply) {
        let Some(ch) = self.pending_resolves.get(&reply.qname).copied() else {
            return;
        };
        let payload = sigdata::dns_reply(&reply.qname, reply.answer.as_ref(), ch);
        if self.check_dns_sig(&payload, &reply.sig).is_err() {
            self.stats.bump(Counter::SecDnsReplyRejected);
            ctx.trace(Dir::Drop, "DNSR", "invalid DNS signature (impersonation?)");
            return;
        }
        self.pending_resolves.remove(&reply.qname);
        self.stats.bump(Counter::DnsResolved);
        self.stats.resolved.insert(reply.qname, reply.answer);
    }

    pub(super) fn handle_ip_change_challenge(
        &mut self,
        ctx: &mut Ctx,
        chal: IpChangeChallenge,
        path: &RouteRecord,
    ) {
        let Some(pending) = self.pending_ip_change.as_mut() else {
            return;
        };
        if pending.dn != chal.dn {
            return;
        }
        pending.ch = Some(chal.ch);
        // Answer with the paper's reply contents: XIP, X'IP, both rn
        // values, XPK and [XIP, X'IP, ch]XSK.
        let sig = self.ident.sign(&sigdata::ip_change(
            &pending.old_ip,
            &pending.new_ip,
            chal.ch,
        ));
        let msg = Message::IpChangeProof(IpChangeProof {
            dn: chal.dn,
            old_ip: pending.old_ip,
            new_ip: pending.new_ip,
            old_rn: pending.old_rn,
            new_rn: pending.new_rn,
            pk: self.ident.public().clone(),
            sig,
            route: path.reversed(),
        });
        let reply_path = path.reversed();
        if reply_path.len() >= 2 {
            self.send_routed(ctx, reply_path, msg);
        }
    }

    pub(super) fn handle_ip_change_result(&mut self, ctx: &mut Ctx, res: IpChangeResult) {
        let Some(pending) = self.pending_ip_change.take() else {
            return;
        };
        let Some(ch) = pending.ch else {
            return;
        };
        let payload = sigdata::ip_change_result(&res.dn, res.accepted, ch);
        if self.check_dns_sig(&payload, &res.sig).is_err() {
            self.stats.bump(Counter::SecIpChangeResultRejected);
            return;
        }
        self.stats.ip_change_accepted = Some(res.accepted);
        if res.accepted {
            self.ident.set_rn(pending.new_rn);
            self.stats.bump(Counter::DnsIpChanged);
            ctx.trace(Dir::Note, "IPCHG", format_args!("now {}", self.ident.ip()));
            // Old routes reference the old address; peers will re-resolve.
            self.dsr.route_cache.remove_dest(&pending.old_ip);
        }
    }
}
