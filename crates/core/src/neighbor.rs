//! Neighbor cache: IPv6 address → link-layer node, learned from the
//! (unauthenticated) source field of received frames.
//!
//! This plays the role of IPv6 neighbor discovery's link-layer address
//! resolution. Entries age out so a departed neighbor eventually stops
//! being a forwarding candidate; a stale entry is not a safety problem —
//! unicast to a gone node surfaces as a link failure, which is exactly
//! the protocol's RERR trigger.

use crate::fxhash::FxHashMap;
use manet_sim::{NodeId, SimDuration, SimTime};
use manet_wire::Ipv6Addr;

/// Default entry lifetime.
pub const DEFAULT_TTL: SimDuration = SimDuration(30_000_000); // 30 s

/// Most entries a cache holds. The source address of a frame is
/// believed before anything is verified, so a transmitter that writes a
/// fresh one into every frame would otherwise grow every listener's map
/// at frame rate; the cap is two orders of magnitude above the number
/// of distinct neighbours an honest node hears within one TTL.
pub const NEIGHBOR_CAP: usize = 1024;

/// IPv6 → link neighbor mapping with last-heard timestamps.
#[derive(Debug)]
pub struct NeighborCache {
    ttl: SimDuration,
    entries: FxHashMap<Ipv6Addr, (NodeId, SimTime)>,
}

fn fresh(heard: SimTime, now: SimTime, ttl: SimDuration) -> bool {
    now.as_micros().saturating_sub(heard.as_micros()) <= ttl.as_micros()
}

impl Default for NeighborCache {
    fn default() -> Self {
        Self::new(DEFAULT_TTL)
    }
}

impl NeighborCache {
    pub fn new(ttl: SimDuration) -> Self {
        NeighborCache {
            ttl,
            entries: FxHashMap::default(),
        }
    }

    /// Record that `ip` was heard transmitting as link node `node` at
    /// `now`; returns how many entries that evicted. Unspecified sources
    /// (DAD probes) are ignored.
    pub fn learn(&mut self, ip: Ipv6Addr, node: NodeId, now: SimTime) -> usize {
        if ip.is_unspecified() {
            return 0;
        }
        // Update in place: an insert reserves room first, so hearing a
        // known neighbour again could grow a full table.
        if let Some(entry) = self.entries.get_mut(&ip) {
            *entry = (node, now);
            return 0;
        }
        let evicted = if self.entries.len() >= NEIGHBOR_CAP {
            self.make_room(now)
        } else {
            0
        };
        self.entries.insert(ip, (node, now));
        evicted
    }

    /// A new address arrived at a full cache: sweep out every expired
    /// entry — invisible, [`Self::lookup`] already ignores them — and, if
    /// nothing had expired, evict the entry heard longest ago. Returns
    /// how many entries went.
    fn make_room(&mut self, now: SimTime) -> usize {
        let (before, ttl) = (self.entries.len(), self.ttl);
        self.entries
            .retain(|_, &mut (_, heard)| fresh(heard, now, ttl));
        if self.entries.len() == before {
            let entries = &self.entries;
            // lint: allow(unordered-iter) — (heard, address) totally orders distinct keys: the minimum is the same in any visit order
            let oldest = entries.iter().map(|(&ip, &(_, heard))| (heard, ip)).min();
            if let Some((_, oldest)) = oldest {
                self.entries.remove(&oldest);
            }
        }
        before - self.entries.len()
    }

    /// Look up the link node for `ip` if the entry is still fresh.
    pub fn lookup(&self, ip: &Ipv6Addr, now: SimTime) -> Option<NodeId> {
        let &(node, heard) = self.entries.get(ip)?;
        fresh(heard, now, self.ttl).then_some(node)
    }

    /// Drop an entry (e.g. after a link failure to that neighbor).
    pub fn forget(&mut self, ip: &Ipv6Addr) {
        self.entries.remove(ip);
    }

    /// Number of (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
    }

    #[test]
    fn learn_and_lookup() {
        let mut c = NeighborCache::default();
        c.learn(ip(1), NodeId(3), SimTime(0));
        assert_eq!(c.lookup(&ip(1), SimTime(1_000)), Some(NodeId(3)));
        assert_eq!(c.lookup(&ip(2), SimTime(1_000)), None);
    }

    #[test]
    fn entries_expire() {
        let mut c = NeighborCache::new(SimDuration::from_secs(1));
        c.learn(ip(1), NodeId(3), SimTime(0));
        assert_eq!(c.lookup(&ip(1), SimTime(1_000_000)), Some(NodeId(3)));
        assert_eq!(c.lookup(&ip(1), SimTime(1_000_001)), None);
    }

    #[test]
    fn relearning_refreshes() {
        let mut c = NeighborCache::new(SimDuration::from_secs(1));
        c.learn(ip(1), NodeId(3), SimTime(0));
        c.learn(ip(1), NodeId(4), SimTime(900_000));
        // Refreshed and remapped.
        assert_eq!(c.lookup(&ip(1), SimTime(1_800_000)), Some(NodeId(4)));
    }

    #[test]
    fn unspecified_source_not_learned() {
        let mut c = NeighborCache::default();
        c.learn(manet_wire::UNSPECIFIED, NodeId(1), SimTime(0));
        assert!(c.is_empty());
    }

    #[test]
    fn forget_removes() {
        let mut c = NeighborCache::default();
        c.learn(ip(1), NodeId(3), SimTime(0));
        c.forget(&ip(1));
        assert_eq!(c.lookup(&ip(1), SimTime(0)), None);
    }

    fn spoofed(i: usize) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 6, 6, (i >> 16) as u16, i as u16])
    }

    #[test]
    fn spoofed_sources_cannot_grow_the_cache_past_its_cap() {
        let mut c = NeighborCache::default();
        let mut evicted = 0;
        // One transmitter, a fresh source address per frame, 1 ms apart.
        for i in 0..10 * NEIGHBOR_CAP {
            evicted += c.learn(spoofed(i), NodeId(9), SimTime(i as u64 * 1_000));
            assert!(c.len() <= NEIGHBOR_CAP);
        }
        let now = SimTime(10 * NEIGHBOR_CAP as u64 * 1_000);
        assert_eq!(c.learn(ip(1), NodeId(3), now), 1);
        evicted += 1;
        assert_eq!(c.len(), NEIGHBOR_CAP);
        assert_eq!(evicted, 9 * NEIGHBOR_CAP + 1);
        assert_eq!(c.lookup(&ip(1), now), Some(NodeId(3)), "heard last");
        // Refreshing a known address evicts nothing, even when full.
        assert_eq!(c.learn(ip(1), NodeId(3), now), 0);
        assert_eq!(c.len(), NEIGHBOR_CAP);
    }

    #[test]
    fn a_full_cache_evicts_the_entry_heard_longest_ago_ties_by_address() {
        let mut c = NeighborCache::default();
        c.learn(ip(2), NodeId(2), SimTime(5));
        c.learn(ip(1), NodeId(1), SimTime(5));
        for i in 0..NEIGHBOR_CAP - 2 {
            c.learn(spoofed(i), NodeId(9), SimTime(6));
        }
        assert_eq!(c.learn(ip(3), NodeId(3), SimTime(7)), 1);
        assert_eq!(c.lookup(&ip(1), SimTime(7)), None, "oldest, lower address");
        assert_eq!(c.lookup(&ip(2), SimTime(7)), Some(NodeId(2)));
        assert_eq!(c.learn(ip(4), NodeId(4), SimTime(7)), 1);
        assert_eq!(c.lookup(&ip(2), SimTime(7)), None, "then the other");
    }

    #[test]
    fn the_sweep_drops_expired_entries_and_keeps_fresh_ones() {
        let mut c = NeighborCache::new(SimDuration::from_secs(1));
        c.learn(ip(1), NodeId(1), SimTime(0));
        for i in 0..NEIGHBOR_CAP - 2 {
            c.learn(spoofed(i), NodeId(9), SimTime(0));
        }
        c.learn(ip(2), NodeId(2), SimTime(900_000));
        assert_eq!(c.len(), NEIGHBOR_CAP);
        // Everything heard at t = 0 has expired by now; `ip(2)` has not.
        let now = SimTime(1_000_001);
        assert_eq!(c.learn(ip(3), NodeId(3), now), NEIGHBOR_CAP - 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&ip(2), now), Some(NodeId(2)));
        assert_eq!(c.lookup(&ip(3), now), Some(NodeId(3)));
        assert_eq!(c.lookup(&ip(1), now), None);
        // Below the cap nothing is swept: expired entries just sit.
        c.learn(ip(4), NodeId(4), SimTime(5_000_000));
        assert_eq!(c.len(), 3);
    }
}
