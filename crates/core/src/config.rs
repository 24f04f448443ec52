//! Protocol configuration.
//!
//! One struct gathers every tunable the paper leaves implicit (timeouts,
//! retry budgets, credit parameters) so experiments can sweep them and the
//! ablation benches can toggle individual mechanisms.

use manet_crypto::BackendKind;
use manet_sim::SimDuration;

/// Credit-management parameters (Section 3.4).
#[derive(Clone, Debug)]
pub struct CreditConfig {
    /// Master switch; off reduces route selection to shortest-first.
    pub enabled: bool,
    /// Credit assigned to a never-seen host ("a new node should be given
    /// a low credit").
    pub initial: i64,
    /// Added to each relay on a correctly acknowledged data packet.
    pub reward: i64,
    /// Subtracted on detected misbehaviour ("decreased by a very large
    /// amount").
    pub slash: i64,
    /// Small penalty applied to every relay of a route whose end-to-end
    /// ack timed out (the black-hole signal is in the aggregate).
    pub timeout_penalty: i64,
    /// RERR reports from the same host beyond this count mark it (and its
    /// next hop) as a hostile area.
    pub rerr_threshold: u32,
    /// Routes containing a host below this credit are avoided when any
    /// alternative exists.
    pub avoid_below: i64,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            enabled: true,
            initial: 0,
            reward: 1,
            slash: 100,
            timeout_penalty: 2,
            rerr_threshold: 3,
            avoid_below: -10,
        }
    }
}

/// Malicious behaviour switches. A default instance is an honest node;
/// the constructors in [`crate::attacks`] flip specific switches.
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    /// Fraction of data packets this node silently drops instead of
    /// forwarding (1.0 = black hole, 0.0 = honest, in between = grey hole).
    pub data_drop_prob: f64,
    /// Answer every RREQ with a forged RREP claiming a one-hop route to
    /// the destination (the classic black-hole route attraction).
    pub forge_rrep: bool,
    /// Claim this IP address in forged replies instead of our own
    /// (impersonation attack).
    pub impersonate: Option<manet_wire::Ipv6Addr>,
    /// Record overheard AREP/RREP messages and replay them later.
    pub replay: bool,
    /// Send a spurious signed RERR after forwarding each data packet
    /// (RERR spam / route disruption).
    pub rerr_spam: bool,
    /// Answer DAD AREQs for *any* address as if it were ours (address
    /// squatting / bootstrap denial attempt).
    pub squat_dad: bool,
    /// Answer DNS queries with a forged reply pointing at ourselves
    /// (DNS impersonation).
    pub forge_dns: bool,
    /// A sophisticated dropper: forward (and acknowledge) route probes
    /// while still dropping data — evades probe localization, degrading
    /// the defense to the credit mechanism.
    pub evade_probes: bool,
}

impl Behavior {
    /// True if every switch is off.
    pub fn is_honest(&self) -> bool {
        self.data_drop_prob == 0.0
            && !self.forge_rrep
            && self.impersonate.is_none()
            && !self.replay
            && !self.rerr_spam
            && !self.squat_dad
            && !self.forge_dns
            && !self.evade_probes
    }
}

/// All protocol tunables.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// RSA modulus size for host identities.
    pub key_bits: u32,
    /// How long a joining host waits for AREP/DREP before concluding its
    /// address and name are unique (Section 3.1's "predefined period").
    pub dad_timeout: SimDuration,
    /// AREQ transmissions per DAD attempt, spread across the window.
    /// Flooding is lossy; the extended-DAD drafts retransmit the probe so
    /// one lost broadcast does not miss a genuine duplicate.
    pub dad_probes: u32,
    /// DAD attempts before giving up entirely.
    pub dad_max_attempts: u32,
    /// How long the DNS holds a pending (DN, IP) registration open for
    /// warning AREPs before committing it.
    pub dns_pending_window: SimDuration,
    /// Route discovery timeout before retrying.
    pub rreq_timeout: SimDuration,
    /// Route discovery attempts per destination before failing buffered
    /// traffic.
    pub rreq_retries: u32,
    /// End-to-end ack timeout for a data packet.
    pub ack_timeout: SimDuration,
    /// Retransmissions of a data packet (over alternate routes) before
    /// declaring it failed.
    pub data_retries: u32,
    /// Answer RREQs from cache with CREP when we hold a destination-signed
    /// route (toggled off by the `ablation_crep` bench).
    pub crep_enabled: bool,
    /// Route cache entry lifetime.
    pub route_ttl: SimDuration,
    /// Maximum cached routes per destination; inserting past the cap
    /// evicts the oldest-learned (soonest-to-expire) route.
    pub route_cache_per_dest: usize,
    /// Maximum destinations in the route cache; a new destination past
    /// the cap evicts the stalest one (oldest newest-route).
    pub route_cache_dests: usize,
    /// Memoize signature-verification verdicts (see
    /// `node::verify`). Pure-function caching: verdicts are identical
    /// with or without it, only the CPU cost changes. Disable to measure
    /// the uncached baseline (the V1 exhibit does).
    pub verify_cache: bool,
    /// Verdicts retained by the verify cache (LRU bound). A bound, not
    /// a reservation: the cache starts small and grows on demand.
    pub verify_cache_capacity: usize,
    /// Signature backend for everything this node signs and verifies.
    /// The default honors the `MANET_CRYPTO` env knob (RSA when unset).
    /// Backends emit different signature bytes, so two backends are two
    /// different — each internally deterministic — simulation universes;
    /// tests pinning RSA semantics must set this explicitly.
    pub crypto_backend: BackendKind,
    /// Network-wide deferred batch verification (scenario builds only):
    /// a speculative prefetch pass enqueues the triples a tick's frames
    /// will check, one drain verifies each unique triple once, dispatch
    /// reads the shared verdicts. Observationally invisible — verdicts
    /// are pure — so this is a perf knob, never a semantics knob.
    pub batch_verify: bool,
    /// The destination answers up to this many copies of the same RREQ
    /// (arriving over different paths), giving the source route diversity
    /// — the raw material the credit system selects from.
    pub rrep_multi: u32,
    /// Verify SRR hop identities at the destination. Always on in the
    /// real protocol; the `ablation_srr` bench turns it off to measure
    /// the cost/benefit of per-hop verification.
    pub verify_srr: bool,
    /// Credit management.
    pub credit: CreditConfig,
    /// Maximum buffered packets awaiting a route, per node.
    pub max_send_buffer: usize,
    /// Route probing (Section 3.4's "traverse the route and test the
    /// integrality of each host"). Off by default — it is the paper's
    /// suggested extension, evaluated separately (ablation A5).
    pub probe_enabled: bool,
    /// End-to-end ack timeouts toward one destination before a probe is
    /// launched. 1 (the default) probes on the first sign of loss: a
    /// probe costs a few hundred control bytes, far less than the data
    /// it saves, and credit-based rerouting usually abandons a bad route
    /// after a single timeout — a higher threshold would rarely fire.
    pub probe_after: u32,
    /// How long to collect per-hop probe acks before judging.
    pub probe_timeout: SimDuration,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            key_bits: 512,
            dad_timeout: SimDuration::from_millis(900),
            dad_probes: 2,
            dad_max_attempts: 4,
            dns_pending_window: SimDuration::from_millis(400),
            rreq_timeout: SimDuration::from_millis(500),
            rreq_retries: 3,
            ack_timeout: SimDuration::from_millis(800),
            data_retries: 2,
            crep_enabled: true,
            route_ttl: SimDuration::from_secs(60),
            route_cache_per_dest: 8,
            route_cache_dests: 256,
            verify_cache: true,
            verify_cache_capacity: 1024,
            crypto_backend: BackendKind::default(),
            batch_verify: true,
            rrep_multi: 3,
            verify_srr: true,
            credit: CreditConfig::default(),
            max_send_buffer: 64,
            probe_enabled: false,
            probe_after: 1,
            probe_timeout: SimDuration::from_millis(600),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_behavior_is_honest() {
        assert!(Behavior::default().is_honest());
        let b = Behavior {
            data_drop_prob: 1.0,
            ..Behavior::default()
        };
        assert!(!b.is_honest());
    }

    #[test]
    fn default_config_is_consistent() {
        // The DNS commits (and emits any commit-time DREP) strictly
        // before the joining host's DAD window closes — otherwise a name
        // conflict could be reported to a host that already assumed
        // success (Section 3.1's two "predefined periods" must nest).
        let c = ProtocolConfig::default();
        assert!(
            c.dns_pending_window < c.dad_timeout,
            "DNS must commit inside DAD"
        );
        assert!(
            c.credit.slash > c.credit.reward,
            "slash must dominate reward"
        );
        assert!(c.key_bits >= 384, "modulus must admit the signature frame");
    }
}
