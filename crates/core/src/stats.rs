//! Per-node statistics, readable by harnesses after a run via
//! [`manet_sim::Engine::protocol_as`].

use crate::fxhash::FxHashMap;
use manet_sim::SimTime;
use manet_wire::{DomainName, Ipv6Addr};
use std::collections::VecDeque;

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

/// Everything a node counts about its own behaviour.
#[derive(Debug, Default, Clone)]
pub struct NodeStats {
    // --- bootstrap ---
    /// DAD rounds run (1 = first address stuck).
    pub dad_attempts: u32,
    /// When the address was confirmed and the node became operational.
    pub joined_at: Option<SimTime>,
    /// Genuine address collisions detected (valid AREP received).
    pub collisions_detected: u32,
    /// Name conflicts reported by the DNS (valid DREP received).
    pub name_conflicts: u32,

    // --- application data ---
    pub data_sent: u64,
    pub data_acked: u64,
    pub data_failed: u64,
    /// Data packets received as final destination.
    pub data_received: u64,

    // --- control traffic originated ---
    pub areq_sent: u64,
    pub arep_sent: u64,
    pub drep_sent: u64,
    pub rreq_sent: u64,
    pub rrep_sent: u64,
    pub crep_sent: u64,
    pub rerr_sent: u64,

    // --- security verdicts (messages rejected by verification) ---
    pub rejected_arep: u64,
    pub rejected_drep: u64,
    pub rejected_rreq: u64,
    pub rejected_rrep: u64,
    pub rejected_crep: u64,
    pub rejected_rerr: u64,
    pub rejected_dns_reply: u64,

    // --- attacker-side counters (zero on honest nodes) ---
    pub atk_data_dropped: u64,
    pub atk_forged_rrep: u64,
    pub atk_forged_arep: u64,
    pub atk_replayed: u64,
    pub atk_forged_dns: u64,
    pub atk_spam_rerr: u64,

    // --- crypto pipeline (node::verify) ---
    /// RSA verifications actually executed (cache misses + uncached
    /// runs; CGA short-circuits are excluded — no RSA ran for those).
    pub crypto_verify_attempted: u64,
    /// Verification verdicts served from the verify cache.
    pub crypto_verify_cached: u64,
    /// Pipeline checks that rejected their input: bad CGA (counted only
    /// here) or bad signature (also counted under attempted/cached).
    pub crypto_verify_failed: u64,

    // --- route probing (Section 3.4 extension) ---
    /// Probes launched after persistent ack timeouts.
    pub probes_sent: u64,
    /// Per-hop probe acknowledgements we produced as a relay.
    pub probe_acks_sent: u64,
    /// Hops this node localized as packet-swallowing suspects.
    pub probe_suspects: Vec<Ipv6Addr>,
    /// Probes whose hops all acknowledged (no suspect — an evader or a
    /// transient fault).
    pub probes_inconclusive: u64,

    // --- DNS client ---
    /// Answers received for [`crate::node::SecureNode::resolve`] calls,
    /// keyed by name (`None` = authenticated NXDOMAIN). Bounded:
    /// inserting past [`RESOLVED_CACHE_CAP`] evicts the oldest entry.
    pub resolved: ResolvedCache,
    /// Outcome of the last IP-change attempt.
    pub ip_change_accepted: Option<bool>,
}

impl NodeStats {
    /// Sum of all rejected-message counters — the node's evidence of
    /// attack traffic.
    pub fn total_rejected(&self) -> u64 {
        self.rejected_arep
            + self.rejected_drep
            + self.rejected_rreq
            + self.rejected_rrep
            + self.rejected_crep
            + self.rejected_rerr
            + self.rejected_dns_reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_rejected_sums_all_kinds() {
        let s = NodeStats {
            rejected_arep: 1,
            rejected_rrep: 2,
            rejected_dns_reply: 4,
            ..NodeStats::default()
        };
        assert_eq!(s.total_rejected(), 7);
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
