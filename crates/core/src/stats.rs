//! Per-node statistics, readable by harnesses after a run via
//! [`manet_sim::Engine::protocol_as`].
//!
//! Every protocol event is counted once, in the node's own
//! [`NodeStats`], under a [`Counter`]. Network-wide numbers are sums
//! over nodes ([`crate::scenario::Network::count`]); the engine keeps
//! only its link-layer counters ([`manet_sim::LinkCounter`]).
//! `docs/OBSERVABILITY.md` says where each counter is counted and what
//! it means.

use crate::fxhash::FxHashMap;
use manet_sim::SimTime;
use manet_wire::{DomainName, Ipv6Addr};
use std::collections::VecDeque;

manet_sim::counters! {
    /// One protocol counter: a row of every node's [`NodeStats`] table.
    pub enum Counter {
        AppAckTimeouts = "app.ack_timeouts",
        AppDataAcked = "app.data_acked",
        AppDataFailed = "app.data_failed",
        AppDataReceived = "app.data_received",
        AppDataSent = "app.data_sent",
        AtkDataDropped = "atk.data_dropped",
        AtkForgedArep = "atk.forged_arep",
        AtkForgedDns = "atk.forged_dns",
        AtkForgedRrep = "atk.forged_rrep",
        AtkImpersonatedRrep = "atk.impersonated_rrep",
        AtkProbeDropped = "atk.probe_dropped",
        AtkReplayedArep = "atk.replayed_arep",
        AtkReplayedRrep = "atk.replayed_rrep",
        AtkRerrSpam = "atk.rerr_spam",
        CreditHostileMarked = "credit.hostile_marked",
        CtlRoutingBytes = "ctl.routing_bytes",
        CtlTable1Bytes = "ctl.table1_bytes",
        CtlTxBytes = "ctl.tx_bytes",
        CtlTxMsgs = "ctl.tx_msgs",
        DadArepSent = "dad.arep_sent",
        DadAreqSent = "dad.areq_sent",
        DadAttempts = "dad.attempts",
        DadCollisions = "dad.collisions",
        DadConfirmed = "dad.confirmed",
        DadGaveUp = "dad.gave_up",
        DadNameConflicts = "dad.name_conflicts",
        DnsDrepSent = "dns.drep_sent",
        DnsIpChangeImplausible = "dns.ip_change_implausible",
        DnsIpChanged = "dns.ip_changed",
        DnsIpChangesAccepted = "dns.ip_changes_accepted",
        DnsIpChangesRejected = "dns.ip_changes_rejected",
        DnsNamesCommitted = "dns.names_committed",
        DnsPendingOpened = "dns.pending_opened",
        DnsQueriesAnswered = "dns.queries_answered",
        DnsRegCancelled = "dns.reg_cancelled",
        DnsResolved = "dns.resolved",
        NeighEvicted = "neigh.evicted",
        ProbeAckOffroute = "probe.ack_offroute",
        ProbeAcksSent = "probe.acks_sent",
        ProbeInconclusive = "probe.inconclusive",
        ProbeLocalized = "probe.localized",
        ProbeSent = "probe.sent",
        RouteAlternateCached = "route.alternate_cached",
        RouteBroadcastFallback = "route.broadcast_fallback",
        RouteCachedReply = "route.cached_reply",
        RouteCrepSent = "route.crep_sent",
        RouteDiscovered = "route.discovered",
        RouteDiscoveredViaCrep = "route.discovered_via_crep",
        RouteDiscoveryFailed = "route.discovery_failed",
        RouteDiscoveryGaveUp = "route.discovery_gave_up",
        RouteFirstHopUnresolved = "route.first_hop_unresolved",
        RouteForwarded = "route.forwarded",
        RouteRerrReceived = "route.rerr_received",
        RouteRerrSent = "route.rerr_sent",
        RouteRrepSent = "route.rrep_sent",
        RouteRreqDedupRotations = "route.rreq_dedup_rotations",
        RouteRreqOriginated = "route.rreq_originated",
        RouteRreqRelayed = "route.rreq_relayed",
        RouteRreqRetries = "route.rreq_retries",
        RouteSourceLinkFailures = "route.source_link_failures",
        RxMalformed = "rx.malformed",
        RxUnexpectedFlood = "rx.unexpected_flood",
        RxUnexpectedRouted = "rx.unexpected_routed",
        SecArepRejected = "sec.arep_rejected",
        SecCrepRejected = "sec.crep_rejected",
        SecDnsReplyRejected = "sec.dns_reply_rejected",
        SecDnsWarningRejected = "sec.dns_warning_rejected",
        SecDrepRejected = "sec.drep_rejected",
        SecIpChangeResultRejected = "sec.ip_change_result_rejected",
        SecProbeAckRejected = "sec.probe_ack_rejected",
        SecRerrRejected = "sec.rerr_rejected",
        SecRrepRejected = "sec.rrep_rejected",
        SecRreqRejected = "sec.rreq_rejected",
        SecVerifyCached = "sec.verify_cached",
        SecVerifyFailed = "sec.verify_failed",
        SecVerifyRsa = "sec.verify_rsa",
    }
}

/// The counters [`NodeStats::total_rejected`] sums: every message a
/// handler dropped on a failed proof, the DNS's rejected duplicate
/// warnings included.
const REJECTED: [Counter; 8] = [
    Counter::SecArepRejected,
    Counter::SecCrepRejected,
    Counter::SecDnsReplyRejected,
    Counter::SecDnsWarningRejected,
    Counter::SecDrepRejected,
    Counter::SecRerrRejected,
    Counter::SecRrepRejected,
    Counter::SecRreqRejected,
];

/// Default bound on the per-node resolved-name cache.
pub const RESOLVED_CACHE_CAP: usize = 256;

/// A bounded name → answer map with deterministic oldest-entry
/// eviction.
///
/// The per-node `resolved` map used to grow without bound for the life
/// of the node — at S3 scale that is one live allocation per name ever
/// resolved, per node. This caps it: inserting a fresh name past the
/// cap evicts the *oldest inserted* entry (insertion order, not hash
/// order, so eviction is identical on every run and platform).
/// Re-resolving a cached name updates the answer in place without
/// refreshing its age.
#[derive(Debug, Clone)]
pub struct ResolvedCache {
    cap: usize,
    map: FxHashMap<DomainName, Option<Ipv6Addr>>,
    /// Names in insertion order; front = oldest = next to evict.
    order: VecDeque<DomainName>,
}

impl Default for ResolvedCache {
    fn default() -> Self {
        Self::new(RESOLVED_CACHE_CAP)
    }
}

impl ResolvedCache {
    pub fn new(cap: usize) -> Self {
        ResolvedCache {
            cap: cap.max(1),
            map: FxHashMap::default(),
            order: VecDeque::new(),
        }
    }

    /// Record an answer (`None` = authenticated NXDOMAIN), evicting the
    /// oldest entry if a fresh name would exceed the cap.
    pub fn insert(&mut self, name: DomainName, answer: Option<Ipv6Addr>) {
        if let Some(slot) = self.map.get_mut(&name) {
            *slot = answer;
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(name.clone());
        self.map.insert(name, answer);
    }

    /// The cached answer for `name`, if still resident.
    pub fn get(&self, name: &DomainName) -> Option<&Option<Ipv6Addr>> {
        self.map.get(name)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Everything a node counts about its own behaviour: one row per
/// [`Counter`], read as `stats[counter]`, plus the few facts that are
/// not counts.
#[derive(Debug, Clone)]
pub struct NodeStats {
    counts: [u64; Counter::COUNT],
    /// When the address was confirmed and the node became operational.
    pub joined_at: Option<SimTime>,
    /// Hops this node localized as packet-swallowing suspects.
    pub probe_suspects: Vec<Ipv6Addr>,
    /// Answers received for [`crate::node::SecureNode::resolve`] calls,
    /// keyed by name (`None` = authenticated NXDOMAIN). Bounded:
    /// inserting past [`RESOLVED_CACHE_CAP`] evicts the oldest entry.
    pub resolved: ResolvedCache,
    /// Outcome of the last IP-change attempt.
    pub ip_change_accepted: Option<bool>,
}

impl Default for NodeStats {
    fn default() -> Self {
        NodeStats {
            counts: [0; Counter::COUNT],
            joined_at: None,
            probe_suspects: Vec::new(),
            resolved: ResolvedCache::default(),
            ip_change_accepted: None,
        }
    }
}

impl std::ops::Index<Counter> for NodeStats {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.counts[c as usize]
    }
}

impl NodeStats {
    /// Count one `c` event.
    pub(crate) fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Count `by` units of `c` (bytes, or several events at once).
    pub(crate) fn add(&mut self, c: Counter, by: u64) {
        self.counts[c as usize] += by;
    }

    /// Sum of all rejected-message counters — the node's evidence of
    /// attack traffic.
    pub fn total_rejected(&self) -> u64 {
        REJECTED.iter().map(|&c| self[c]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_rejected_sums_all_kinds() {
        let mut s = NodeStats::default();
        s.add(Counter::SecArepRejected, 1);
        s.add(Counter::SecRrepRejected, 2);
        s.add(Counter::SecDnsReplyRejected, 4);
        s.add(Counter::SecDnsWarningRejected, 8);
        s.bump(Counter::SecProbeAckRejected);
        assert_eq!(
            s.total_rejected(),
            15,
            "probe-ack rejections are not messages"
        );
    }

    /// One `u64` per counter plus the non-count facts; every node holds
    /// one (boxed in `PlainDsrNode`, inline in `SecureNode`).
    #[test]
    fn node_stats_size_only_ratchets_down() {
        assert!(std::mem::size_of::<NodeStats>() <= 728);
    }

    #[test]
    fn counters_run_in_strict_name_order() {
        for pair in Counter::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?}");
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} indexes its own row");
        }
    }

    fn dn(s: &str) -> DomainName {
        DomainName::new(s).unwrap()
    }

    fn ip(last: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
    }

    #[test]
    fn resolved_cache_evicts_oldest_insertion() {
        let mut c = ResolvedCache::new(2);
        c.insert(dn("a"), Some(ip(1)));
        c.insert(dn("b"), None);
        c.insert(dn("c"), Some(ip(3)));
        assert_eq!(c.get(&dn("a")), None, "oldest entry evicted");
        assert_eq!(c.get(&dn("b")), Some(&None));
        assert_eq!(c.get(&dn("c")), Some(&Some(ip(3))));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn resolved_cache_update_in_place_keeps_age() {
        let mut c = ResolvedCache::new(2);
        c.insert(dn("a"), None);
        c.insert(dn("b"), None);
        // Re-resolving "a" updates the answer but not its age...
        c.insert(dn("a"), Some(ip(9)));
        assert_eq!(c.get(&dn("a")), Some(&Some(ip(9))));
        // ...so it is still the first out when "c" arrives.
        c.insert(dn("c"), None);
        assert_eq!(c.get(&dn("a")), None);
        assert_eq!(c.get(&dn("b")), Some(&None));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn resolved_cache_stays_bounded_under_churn() {
        let mut c = ResolvedCache::new(4);
        for i in 0..100u32 {
            c.insert(dn(&format!("n{i}")), Some(ip(i as u16)));
        }
        assert_eq!(c.len(), 4);
        // Exactly the 4 newest survive.
        for i in 96..100u32 {
            assert!(c.get(&dn(&format!("n{i}"))).is_some());
        }
        assert_eq!(c.get(&dn("n95")), None);
    }
}
