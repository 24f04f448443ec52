//! The DNS server role (Sections 3.1–3.2): the MANET's only security
//! infrastructure.
//!
//! The server keeps the committed name table, holds registrations from
//! AREQ floods pending for a warning window, answers resolution queries
//! with signed replies, and runs the challenge/response IP-change flow.
//! [`DnsState`] is the data; the protocol handlers live in the
//! `impl SecureNode` block below so they can reuse the node's routing
//! machinery and its security pipeline (`node::verify`).

use crate::dsr::Dsr;
use crate::fxhash::FxHashMap;
use crate::node::SecureNode;
use crate::stats::Counter;
use manet_sim::{Ctx, Dir, SimTime};
use manet_wire::{
    cga, sigdata, Arep, Areq, Challenge, DnsQuery, DnsReply, DomainName, Drep, IpChangeProof,
    IpChangeRequest, IpChangeResult, Ipv6Addr, Message, RouteRecord,
};
use rand::Rng;

const TAG_DNS_PENDING: u64 = 4 << 56;

/// A registration captured from an AREQ, held open for warning AREPs.
#[derive(Debug, Clone)]
pub struct PendingRegistration {
    pub id: u64,
    pub dn: Option<DomainName>,
    pub sip: Ipv6Addr,
    /// The challenge S put in its AREQ — the key to verifying any
    /// warning AREP about this address ("the DNS should keep a copy of
    /// the ch … for a while").
    pub ch: Challenge,
    /// The AREQ's route record, kept so a commit-time DREP can be routed
    /// back to the claimant.
    pub rr: manet_wire::RouteRecord,
    pub received_at: SimTime,
}

/// An outstanding IP-change challenge.
#[derive(Debug, Clone)]
struct IpChangeSession {
    ch: Challenge,
    old_ip: Ipv6Addr,
    new_ip: Ipv6Addr,
}

/// DNS server state.
#[derive(Debug, Default)]
pub struct DnsState {
    /// Committed name → address entries (pre-registered + FCFS online).
    names: FxHashMap<DomainName, Ipv6Addr>,
    /// Pending registrations by claimed address.
    pending: FxHashMap<Ipv6Addr, PendingRegistration>,
    next_pending_id: u64,
    /// IP-change sessions by domain name.
    ip_changes: FxHashMap<DomainName, IpChangeSession>,
}

impl DnsState {
    /// Start with the pre-registered permanent entries.
    pub fn new(pre_registered: Vec<(DomainName, Ipv6Addr)>) -> Self {
        DnsState {
            names: pre_registered.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Look up a committed name.
    pub fn lookup(&self, dn: &DomainName) -> Option<Ipv6Addr> {
        self.names.get(dn).copied()
    }

    /// Install a permanent entry (pre-network-formation registration).
    pub fn preregister(&mut self, dn: DomainName, ip: Ipv6Addr) {
        self.names.insert(dn, ip);
    }

    /// Number of committed entries.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Is a registration for `sip` pending?
    pub fn is_pending(&self, sip: &Ipv6Addr) -> bool {
        self.pending.contains_key(sip)
    }

    /// The stored challenge of a pending registration, if one exists —
    /// read-only peek for the speculative prefetch pass (the warning-AREP
    /// verification payload is built from it).
    pub(crate) fn pending_challenge(&self, sip: &Ipv6Addr) -> Option<Challenge> {
        self.pending.get(sip).map(|p| p.ch)
    }

    /// Read-only peek at a live IP-change session: `(ch, old_ip,
    /// new_ip)`. Same prefetch purpose as [`Self::pending_challenge`].
    pub(crate) fn ip_change_session(
        &self,
        dn: &DomainName,
    ) -> Option<(Challenge, Ipv6Addr, Ipv6Addr)> {
        self.ip_changes.get(dn).map(|s| (s.ch, s.old_ip, s.new_ip))
    }

    /// Does `dn` already belong to a *committed* different address?
    ///
    /// Pending claims deliberately do not conflict here: concurrent
    /// pendings race to their commit timers, and the loser is rejected
    /// at commit time (first-come-first-serve by commit order). Checking
    /// pendings immediately would mis-reject a host whose first claim is
    /// about to be cancelled by a duplicate-address warning.
    fn name_conflicts(&self, dn: &DomainName, sip: &Ipv6Addr) -> bool {
        matches!(self.names.get(dn), Some(owner) if owner != sip)
    }
}

impl SecureNode {
    /// DNS-side AREQ processing (Section 3.1 + 6DNAR): reject conflicting
    /// names with a signed DREP, otherwise hold the registration pending
    /// the warning window.
    pub(crate) fn dns_on_areq(&mut self, ctx: &mut Ctx, areq: &Areq) {
        let conflicts = {
            let dns = self.dns.as_ref().expect("dns role");
            match &areq.dn {
                Some(dn) => dns.name_conflicts(dn, &areq.sip),
                None => false,
            }
        };
        if conflicts {
            let dn = areq.dn.clone().expect("conflict implies a name");
            self.send_drep(ctx, &dn, areq.ch, &areq.rr, areq.sip);
            return;
        }
        // Hold the (name, address, challenge) open for the warning window.
        let window = self.cfg.dns_pending_window;
        let now = ctx.now();
        let dns = self.dns.as_mut().expect("dns role");
        let id = dns.next_pending_id;
        dns.next_pending_id += 1;
        dns.pending.insert(
            areq.sip,
            PendingRegistration {
                id,
                dn: areq.dn.clone(),
                sip: areq.sip,
                ch: areq.ch,
                rr: areq.rr.clone(),
                received_at: now,
            },
        );
        self.stats.bump(Counter::DnsPendingOpened);
        ctx.set_timer(window, TAG_DNS_PENDING | id);
    }

    /// `DREP(SIP, RR, [DN, ch]NSK)` back to the claimant.
    fn send_drep(
        &mut self,
        ctx: &mut Ctx,
        dn: &DomainName,
        ch: manet_wire::Challenge,
        rr: &RouteRecord,
        sip: Ipv6Addr,
    ) {
        let sig = self.ident.sign(&sigdata::drep(dn, ch));
        let drep = Drep {
            sip,
            rr: rr.clone(),
            sig,
        };
        self.stats.bump(Counter::DnsDrepSent);
        ctx.trace(Dir::Note, "DNS", format_args!("name {} already taken", dn));
        self.reply_along(ctx, self.ident.ip(), rr, sip, Message::Drep(drep));
    }

    /// Commit a pending registration whose warning window elapsed. A
    /// concurrent claimant that lost the commit race gets its DREP here.
    pub(crate) fn dns_on_pending_timer(&mut self, ctx: &mut Ctx, id: u64) {
        let dns = self.dns.as_mut().expect("dns role");
        let Some(sip) = dns
            .pending
            // lint: allow(unordered-iter) — id is unique across pending entries; .find hits at most one
            .iter()
            .find(|(_, p)| p.id == id)
            .map(|(sip, _)| *sip)
        else {
            return; // cancelled by a warning AREP
        };
        let reg = dns.pending.remove(&sip).expect("just found");
        let Some(dn) = reg.dn else {
            return; // address-only registration: nothing to commit
        };
        if dns.name_conflicts(&dn, &sip) {
            // Someone else committed this name while we were pending.
            self.send_drep(ctx, &dn, reg.ch, &reg.rr, sip);
            return;
        }
        let dns = self.dns.as_mut().expect("dns role");
        dns.names.insert(dn.clone(), sip);
        self.stats.bump(Counter::DnsNamesCommitted);
        ctx.trace(Dir::Note, "DNS", format_args!("committed {} → {}", dn, sip));
    }

    /// A warning AREP arrived (a host detected that `arep.sip` is a
    /// duplicate): verify it against the stored challenge and cancel the
    /// pending registration.
    pub(crate) fn dns_on_warning_arep(&mut self, ctx: &mut Ctx, arep: &Arep) {
        let Some(reg) = self
            .dns
            .as_ref()
            .expect("dns role")
            .pending
            .get(&arep.sip)
            .cloned()
        else {
            return; // nothing pending for that address
        };
        // Same two checks as the host side runs, against the stored ch.
        if self
            .check_proof(&arep.sip, &sigdata::arep(&arep.sip, reg.ch), &arep.proof)
            .is_err()
        {
            self.stats.bump(Counter::SecDnsWarningRejected);
            ctx.trace(Dir::Drop, "AREP", "invalid duplicate warning at DNS");
            return;
        }
        let sip = arep.sip;
        self.dns_cancel_pending(ctx, &sip);
    }

    /// Remove a pending registration (verified duplicate).
    pub(crate) fn dns_cancel_pending(&mut self, ctx: &mut Ctx, sip: &Ipv6Addr) {
        let dns = self.dns.as_mut().expect("dns role");
        if dns.pending.remove(sip).is_some() {
            self.stats.bump(Counter::DnsRegCancelled);
            ctx.trace(
                Dir::Note,
                "DNS",
                format_args!("registration for {} cancelled", sip),
            );
        }
    }

    /// Answer a resolution query with a signed reply (Section 3.2).
    pub(crate) fn dns_on_query(&mut self, ctx: &mut Ctx, q: DnsQuery, path: &RouteRecord) {
        let answer = self.dns.as_ref().expect("dns role").lookup(&q.qname);
        let sig = self
            .ident
            .sign(&sigdata::dns_reply(&q.qname, answer.as_ref(), q.ch));
        let reply = DnsReply {
            requester: q.requester,
            qname: q.qname,
            answer,
            sig,
            route: path.reversed(),
        };
        self.stats.bump(Counter::DnsQueriesAnswered);
        let back = path.reversed();
        if back.len() >= 2 {
            self.send_routed(ctx, back, Message::DnsReply(reply));
        }
    }

    /// Step 2 of the IP-change flow: issue a challenge (Section 3.2).
    pub(crate) fn dns_on_ip_change_request(
        &mut self,
        ctx: &mut Ctx,
        req: IpChangeRequest,
        path: &RouteRecord,
    ) {
        // Only challenge requests that could possibly succeed; anything
        // else is noise (the proof step re-checks everything anyway).
        let plausible = self
            .dns
            .as_ref()
            .expect("dns role")
            .lookup(&req.dn)
            .map(|owner| owner == req.old_ip)
            .unwrap_or(false);
        if !plausible {
            self.stats.bump(Counter::DnsIpChangeImplausible);
            return;
        }
        let ch = Challenge(ctx.rng().gen());
        self.dns.as_mut().expect("dns role").ip_changes.insert(
            req.dn.clone(),
            IpChangeSession {
                ch,
                old_ip: req.old_ip,
                new_ip: req.new_ip,
            },
        );
        let chal = Message::IpChangeChallenge(manet_wire::IpChangeChallenge {
            dn: req.dn,
            ch,
            route: path.reversed(),
        });
        let back = path.reversed();
        if back.len() >= 2 {
            self.send_routed(ctx, back, chal);
        }
    }

    /// Step 4: verify the proof and switch the mapping (Section 3.2).
    ///
    /// Accepting requires *all* of: a live session, matching addresses,
    /// CGA ownership of the old address (`H(PK, old_rn)`), CGA validity
    /// of the new one (`H(PK, new_rn)`), and the challenge signature
    /// `[XIP, X'IP, ch]XSK` under the presented key.
    pub(crate) fn dns_on_ip_change_proof(
        &mut self,
        ctx: &mut Ctx,
        proof: IpChangeProof,
        path: &RouteRecord,
    ) {
        let Some(session) = self
            .dns
            .as_ref()
            .expect("dns role")
            .ip_changes
            .get(&proof.dn)
            .cloned()
        else {
            return;
        };
        let accepted = session.old_ip == proof.old_ip
            && session.new_ip == proof.new_ip
            && cga::verify(&proof.old_ip, &proof.pk, proof.old_rn).is_ok()
            && cga::verify(&proof.new_ip, &proof.pk, proof.new_rn).is_ok()
            && self
                .check_known_key(
                    &proof.pk,
                    &sigdata::ip_change(&proof.old_ip, &proof.new_ip, session.ch),
                    &proof.sig,
                )
                .is_ok();
        {
            let dns = self.dns.as_mut().expect("dns role");
            dns.ip_changes.remove(&proof.dn);
            if accepted {
                dns.names.insert(proof.dn.clone(), proof.new_ip);
                self.stats.bump(Counter::DnsIpChangesAccepted);
            } else {
                self.stats.bump(Counter::DnsIpChangesRejected);
            }
        }
        let sig = self
            .ident
            .sign(&sigdata::ip_change_result(&proof.dn, accepted, session.ch));
        let res = Message::IpChangeResult(IpChangeResult {
            dn: proof.dn,
            accepted,
            sig,
            route: path.reversed(),
        });
        let back = path.reversed();
        if back.len() >= 2 {
            self.send_routed(ctx, back, res);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
    }

    fn dn(s: &str) -> DomainName {
        DomainName::new(s).unwrap()
    }

    #[test]
    fn preregistered_names_resolve() {
        let st = DnsState::new(vec![(dn("server.manet"), ip(9))]);
        assert_eq!(st.lookup(&dn("server.manet")), Some(ip(9)));
        assert_eq!(st.lookup(&dn("other.manet")), None);
        assert_eq!(st.name_count(), 1);
    }

    #[test]
    fn committed_name_conflicts_for_other_address() {
        let st = DnsState::new(vec![(dn("a"), ip(1))]);
        assert!(st.name_conflicts(&dn("a"), &ip(2)));
        assert!(!st.name_conflicts(&dn("a"), &ip(1)), "re-announce is fine");
        assert!(!st.name_conflicts(&dn("b"), &ip(2)));
    }

    #[test]
    fn pending_claims_defer_conflict_to_commit_time() {
        let mut st = DnsState::new(Vec::new());
        st.pending.insert(
            ip(1),
            PendingRegistration {
                id: 0,
                dn: Some(dn("x")),
                sip: ip(1),
                ch: Challenge(5),
                rr: manet_wire::RouteRecord::new(),
                received_at: SimTime::ZERO,
            },
        );
        // Pending claims do not conflict immediately — the commit timer
        // decides first-come-first-serve (see name_conflicts docs).
        assert!(!st.name_conflicts(&dn("x"), &ip(2)));
        assert!(st.is_pending(&ip(1)));
        // Once committed, the name is taken.
        st.names.insert(dn("x"), ip(1));
        assert!(st.name_conflicts(&dn("x"), &ip(2)));
        assert!(!st.name_conflicts(&dn("x"), &ip(1)));
    }
}
