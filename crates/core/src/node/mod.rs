//! The secure MANET node: the paper's Section 3 as a layered protocol
//! stack.
//!
//! One struct covers every role, but the behaviour is split by protocol
//! layer:
//!
//! * [`bootstrap`] — CGA identity, the secure-DAD state machine
//!   (AREQ/AREP/DREP floods and timers, Section 3.1);
//! * [`routing`] — secure DSR discovery and maintenance
//!   (RREQ/RREP/CREP/RERR plus route probing, Sections 3.3–3.4);
//! * [`forwarding`] — what the secure stack adds to the shared DSR data
//!   plane ([`crate::dsr`], which owns source-routed transmission,
//!   Data/Ack retries and the pre-route send buffer for both stacks):
//!   its hook overrides, local delivery and its non-data queued work;
//! * [`dnsclient`] — the host side of the DNS services (resolution and
//!   IP change, Section 3.2); the *server* side lives in [`crate::dns`];
//! * [`verify`] — the security pipeline every inbound proof passes
//!   through, backed by a [`manet_crypto::VerifyCache`] that memoizes
//!   signature verdicts.
//!
//! A node constructed with [`SecureNode::new_dns`] additionally runs the
//! DNS server state; a node constructed with a non-default
//! [`crate::config::Behavior`] misbehaves in the configured ways
//! (Section 4's attacker models). Keeping attackers inside the same
//! implementation guarantees they speak byte-identical wire formats —
//! their packets are rejected by *cryptography*, not by accidental
//! incompatibility.

mod bootstrap;
mod dnsclient;
mod forwarding;
mod prefetch;
mod routing;
mod verify;

use crate::config::{Behavior, ProtocolConfig};
use crate::credit::CreditManager;
use crate::dns::DnsState;
use crate::dsr::{Dsr, DsrState, FloodMemo, TAG_ACK, TAG_KIND_MASK, TAG_RREQ};
use crate::envelope::Envelope;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::identity::HostIdentity;
use crate::routecache::RouteCache;
use crate::stats::{Counter, NodeStats};
use manet_crypto::{backend_for, BatchVerifier, CryptoBackend, PublicKey, VerifyCache};
use manet_sim::{Ctx, NodeId, Protocol, SimTime};
use manet_wire::{
    Arep, Challenge, DomainName, FloodHeader, FloodKind, Ipv6Addr, Message, RouteRecord, Rrep, Seq,
};
use std::any::Any;
use std::sync::Arc;

// The secure stack's timer kinds, in the data plane's tag layout
// (kinds 2 and 3 are `dsr::TAG_RREQ` / `dsr::TAG_ACK`).
const TAG_DAD: u64 = 1 << 56;
const TAG_DNS_PENDING: u64 = 4 << 56;
const TAG_DAD_PROBE: u64 = 5 << 56;
const TAG_ROUTE_PROBE: u64 = 6 << 56;

/// AREPs and RREPs a replay attacker captures per kind: the first ones
/// it overhears, never replaced by later ones.
const REPLAY_CAPTURE: usize = 32;

/// Bootstrap state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeState {
    /// Waiting for `on_start`.
    Boot,
    /// Flooded an AREQ, waiting out the DAD window.
    Dad { seq: Seq, ch: Challenge },
    /// Address confirmed; fully operational.
    Ready,
}

/// The secure stack's non-data work queued until a route to its
/// destination exists ([`crate::dsr::Queued::Other`]).
#[derive(Debug)]
pub(crate) enum QueuedWork {
    DnsQuery { qname: DomainName, ch: Challenge },
    ArepWarning { arep: Arep },
    IpChangeRequest { dn: DomainName },
}

/// An outstanding route-integrity probe (Section 3.4).
#[derive(Debug)]
struct PendingProbe {
    dip: Ipv6Addr,
    /// Hops expected to acknowledge: the relays, then the destination.
    expected: Vec<Ipv6Addr>,
    acked: FxHashSet<Ipv6Addr>,
}

/// State of an in-flight IP change (Section 3.2).
#[derive(Debug)]
struct PendingIpChange {
    dn: DomainName,
    old_rn: u64,
    new_rn: u64,
    old_ip: Ipv6Addr,
    new_ip: Ipv6Addr,
    /// Challenge received from the DNS (None until the challenge arrives).
    ch: Option<Challenge>,
}

/// The secure node.
pub struct SecureNode {
    pub(crate) cfg: ProtocolConfig,
    pub(crate) ident: HostIdentity,
    pub(crate) dns_pk: PublicKey,
    /// Domain name to register during bootstrap, if any.
    pub(crate) desired_dn: Option<DomainName>,
    pub(crate) behavior: Behavior,
    pub(crate) dns: Option<DnsState>,

    state: NodeState,
    /// The shared DSR data plane's state.
    dsr: DsrState<QueuedWork>,
    pub(crate) credits: CreditManager,
    pub(crate) stats: NodeStats,
    /// Memoized signature-verification verdicts (None = cache disabled);
    /// consulted exclusively through the [`verify`] pipeline.
    pub(crate) verify_cache: Option<VerifyCache>,
    /// The signature backend every sign/verify runs on (one shared
    /// instance network-wide when built by the scenario layer, so its op
    /// counters aggregate; never part of a run fingerprint).
    pub(crate) crypto: Arc<dyn CryptoBackend>,
    /// Network-wide deferred-verification handle (None = inline only);
    /// fed by [`prefetch`], consulted by the [`verify`] pipeline.
    pub(crate) batch: Option<Arc<BatchVerifier>>,

    /// Flood dedup for AREQs, by `(source, seq, challenge)`. The
    /// challenge is part of the key: `seq` is
    /// only unique *per initiator*, and the interesting DAD case is two
    /// initiators claiming the same SIP — their floods must not collapse.
    seen_areqs: FxHashSet<(Ipv6Addr, u64, u64)>,
    /// `(seq, ch)` of every AREQ we ourselves flooded, so a late echo of
    /// our own probe is never mistaken for a foreign claim on our address.
    my_dad_probes: FxHashSet<(u64, u64)>,
    /// As destination: how many copies of each RREQ we already answered
    /// (up to `cfg.rrep_multi` for route diversity).
    answered_rreqs: FloodMemo<u32>,
    /// Recently satisfied discoveries, so late extra RREPs for the same
    /// sequence can still be cached as alternate routes.
    recent_rreqs: FxHashMap<Ipv6Addr, (Seq, SimTime)>,
    /// Challenges of our outstanding DNS resolutions, by name.
    pending_resolves: FxHashMap<DomainName, Challenge>,
    pending_ip_change: Option<PendingIpChange>,
    /// Route probes awaiting per-hop acks, by probe sequence number.
    pending_probes: FxHashMap<u64, PendingProbe>,
    /// Consecutive end-to-end ack timeouts per destination (probe trigger).
    consecutive_timeouts: FxHashMap<Ipv6Addr, u32>,

    /// Probe-retransmission timers of the current DAD attempt, cancelled
    /// when the attempt restarts.
    dad_probe_timers: Vec<manet_sim::TimerHandle>,

    /// Replay attacker's capture buffers (the first [`REPLAY_CAPTURE`]
    /// of each kind).
    observed_areps: Vec<Arep>,
    observed_rreps: Vec<Rrep>,
}

impl SecureNode {
    /// An ordinary (honest) host. `dns_pk` is the one piece of
    /// pre-configuration the paper allows: "a host only needs to know the
    /// public key of the DNS server prior to entering the MANET".
    pub fn new<R: rand::Rng>(
        cfg: ProtocolConfig,
        dns_pk: PublicKey,
        desired_dn: Option<DomainName>,
        rng: &mut R,
    ) -> Self {
        Self::with_behavior(cfg, dns_pk, desired_dn, Behavior::default(), rng)
    }

    /// A host with attacker switches.
    pub fn with_behavior<R: rand::Rng>(
        cfg: ProtocolConfig,
        dns_pk: PublicKey,
        desired_dn: Option<DomainName>,
        behavior: Behavior,
        rng: &mut R,
    ) -> Self {
        let ident = HostIdentity::generate(cfg.key_bits, rng);
        Self::assemble(cfg, ident, dns_pk, desired_dn, behavior, None)
    }

    /// A host with a caller-supplied identity. This is how tests inject
    /// address collisions (two hosts sharing a key pair and `rn` generate
    /// the same CGA) and how a deployment would load a persisted key.
    pub fn with_identity(
        cfg: ProtocolConfig,
        ident: HostIdentity,
        dns_pk: PublicKey,
        desired_dn: Option<DomainName>,
        behavior: Behavior,
    ) -> Self {
        Self::assemble(cfg, ident, dns_pk, desired_dn, behavior, None)
    }

    /// The DNS server node. Its identity *is* the DNS key pair; its
    /// public half must be handed to every other node. `pre_registered`
    /// holds the permanent (name, address) entries established "before
    /// the network is formed".
    pub fn new_dns<R: rand::Rng>(
        cfg: ProtocolConfig,
        pre_registered: Vec<(DomainName, Ipv6Addr)>,
        rng: &mut R,
    ) -> Self {
        let ident = HostIdentity::generate(cfg.key_bits, rng);
        Self::dns_with_identity(cfg, ident, pre_registered)
    }

    /// [`Self::new_dns`] with a caller-supplied identity.
    pub(crate) fn dns_with_identity(
        cfg: ProtocolConfig,
        ident: HostIdentity,
        pre_registered: Vec<(DomainName, Ipv6Addr)>,
    ) -> Self {
        let dns_pk = ident.public().clone();
        Self::assemble(
            cfg,
            ident,
            dns_pk,
            None,
            Behavior::default(),
            Some(DnsState::new(pre_registered)),
        )
    }

    fn assemble(
        cfg: ProtocolConfig,
        ident: HostIdentity,
        dns_pk: PublicKey,
        desired_dn: Option<DomainName>,
        behavior: Behavior,
        dns: Option<DnsState>,
    ) -> Self {
        let credits = CreditManager::new(cfg.credit.clone());
        let route_cache = RouteCache::with_caps(
            cfg.route_ttl,
            cfg.route_cache_per_dest,
            cfg.route_cache_dests,
        );
        let verify_cache = cfg
            .verify_cache
            .then(|| VerifyCache::new(cfg.verify_cache_capacity));
        // A standalone node gets its own backend instance; scenario
        // builds replace it with the network-shared one.
        let crypto = backend_for(cfg.crypto_backend);
        let mut ident = ident;
        ident.set_backend(Arc::clone(&crypto));
        SecureNode {
            cfg,
            ident,
            crypto,
            batch: None,
            dns_pk,
            desired_dn,
            behavior,
            dns,
            state: NodeState::Boot,
            dsr: DsrState::new(route_cache),
            credits,
            stats: NodeStats::default(),
            verify_cache,
            seen_areqs: FxHashSet::default(),
            my_dad_probes: FxHashSet::default(),
            answered_rreqs: FloodMemo::default(),
            recent_rreqs: FxHashMap::default(),
            pending_resolves: FxHashMap::default(),
            pending_ip_change: None,
            pending_probes: FxHashMap::default(),
            consecutive_timeouts: FxHashMap::default(),
            dad_probe_timers: Vec::new(),
            observed_areps: Vec::new(),
            observed_rreps: Vec::new(),
        }
    }

    // --- public accessors -------------------------------------------------

    /// Current IPv6 address (candidate until [`Self::is_ready`]).
    pub fn ip(&self) -> Ipv6Addr {
        self.ident.ip()
    }

    /// The public key behind this node's CGA.
    pub fn public_key(&self) -> &PublicKey {
        self.ident.public()
    }

    /// Address confirmed and node operational?
    pub fn is_ready(&self) -> bool {
        self.state == NodeState::Ready
    }

    /// Is this node the DNS server?
    pub fn is_dns(&self) -> bool {
        self.dns.is_some()
    }

    /// Per-node statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The credit table (Section 3.4), for inspection.
    pub fn credits(&self) -> &CreditManager {
        &self.credits
    }

    /// The DNS server state, if this node is the DNS.
    pub fn dns_state(&self) -> Option<&DnsState> {
        self.dns.as_ref()
    }

    /// The verify cache, for inspection (None when disabled).
    pub fn verify_cache(&self) -> Option<&VerifyCache> {
        self.verify_cache.as_ref()
    }

    /// Adopt the network-shared crypto runtime (builder-time only): one
    /// backend instance so execution counters aggregate network-wide,
    /// plus the batch-verification handle when deferred verification is
    /// on. Must run before the node signs or verifies anything.
    pub fn set_crypto_runtime(
        &mut self,
        backend: Arc<dyn CryptoBackend>,
        batch: Option<Arc<BatchVerifier>>,
    ) {
        self.ident.set_backend(Arc::clone(&backend));
        self.crypto = backend;
        self.batch = batch;
    }

    /// The signature backend this node runs on.
    pub fn crypto_backend(&self) -> &Arc<dyn CryptoBackend> {
        &self.crypto
    }

    /// Number of destinations with a cached route.
    pub fn cached_destinations(&self) -> usize {
        self.dsr.route_cache.len()
    }

    /// The relay list of the best cached route to `dip` at time `now`
    /// (empty = direct), if any survives credit filtering.
    pub fn cached_route(&self, dip: &Ipv6Addr, now: SimTime) -> Option<Vec<Ipv6Addr>> {
        self.dsr
            .route_cache
            .best(dip, &self.credits, now)
            .map(|r| r.relays.to_vec())
    }

    /// Test-support: transmit an arbitrary routed message. Integration
    /// tests use this to inject forged or malformed control traffic that
    /// the honest API would never produce.
    #[doc(hidden)]
    pub fn inject_routed(&mut self, ctx: &mut Ctx, path: RouteRecord, msg: Message) -> bool {
        self.send_routed(ctx, path, msg)
    }

    #[cfg(test)]
    pub(crate) fn answered_rreqs_len(&self) -> usize {
        self.answered_rreqs.len()
    }

    /// The header gate every flooded copy passes before it is decoded:
    /// each handler's early returns, run on the header once.
    fn admit_flood(&mut self, ctx: &mut Ctx, flood: &FloodHeader) -> bool {
        match flood.kind {
            FloodKind::Areq { ch } => self.admit_areq(flood, ch),
            FloodKind::Rreq { dip } => self.admit_rreq(ctx, flood, dip),
            FloodKind::PlainRreq { .. } => {
                self.stats.bump(Counter::RxUnexpectedFlood);
                false
            }
        }
    }

    /// The replay attacker records the verifiable replies it overhears:
    /// the first [`REPLAY_CAPTURE`] of each kind, kept for the run.
    fn observe_for_replay(&mut self, env: &Envelope) {
        match &env.msg {
            Message::Arep(a) if self.observed_areps.len() < REPLAY_CAPTURE => {
                self.observed_areps.push(a.clone());
            }
            Message::Rrep(r) if self.observed_rreps.len() < REPLAY_CAPTURE => {
                self.observed_rreps.push(r.clone());
            }
            _ => {}
        }
    }
}

impl Protocol for SecureNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.dns.is_some() {
            // The DNS server is pre-deployed infrastructure: it owns its
            // address and name table before the MANET forms (Section 3).
            self.state = NodeState::Ready;
            self.stats.joined_at = Some(ctx.now());
            self.stats.bump(Counter::DadConfirmed);
            return;
        }
        self.begin_dad(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx, src: NodeId, bytes: &[u8]) {
        // Floods first, on their header: most copies are duplicates
        // dropped without decoding their keys and signatures. The peek
        // is as strict as `decode`, so malformed frames fall through to
        // the counting path below.
        if let Some((tx_ip, flood)) = Envelope::peek_flood(bytes) {
            self.heard(ctx, tx_ip, src);
            if !self.admit_flood(ctx, &flood) {
                return;
            }
            if let FloodKind::Areq { .. } = flood.kind {
                return self.handle_areq(ctx, bytes, &flood);
            }
            match Envelope::decode(bytes).map(|env| env.msg) {
                Ok(Message::Rreq(rreq)) => self.handle_rreq(ctx, rreq),
                // Unreachable: only AREQs and RREQs are admitted, and
                // whatever peeks decodes.
                _ => self.stats.bump(Counter::RxMalformed),
            }
            return;
        }
        let Some(env) = self.decode_frame(ctx, src, bytes) else {
            return;
        };
        if self.behavior.replay {
            self.observe_for_replay(&env);
        }
        if env.source_route.is_some() {
            return self.receive_routed(ctx, env);
        }
        // Broadcast-fallback deliveries carry a source route and are
        // handled above; the protocol's floods were taken first.
        self.stats.bump(Counter::RxUnexpectedFlood);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag & TAG_KIND_MASK {
            TAG_DAD => self.on_dad_timer(ctx),
            TAG_RREQ => self.on_rreq_timer(ctx, tag & !TAG_KIND_MASK),
            TAG_ACK => self.on_ack_timer(ctx, tag & !TAG_KIND_MASK),
            TAG_DNS_PENDING => self.dns_on_pending_timer(ctx, tag & !TAG_KIND_MASK),
            TAG_DAD_PROBE => self.on_dad_probe_timer(ctx),
            TAG_ROUTE_PROBE => self.on_route_probe_timer(ctx, tag & !TAG_KIND_MASK),
            _ => {}
        }
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx, _to: NodeId, bytes: &[u8]) {
        self.link_failed(ctx, bytes);
    }

    fn prefetch_frame(&self, src: NodeId, bytes: &[u8]) {
        self.prefetch_frame_impl(src, bytes);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsr::final_hop_must_broadcast;
    use manet_wire::{Rerr, DNS_WELL_KNOWN, UNSPECIFIED};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn mk_node(seed: u64) -> SecureNode {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dns_kp = manet_crypto::KeyPair::generate(512, &mut rng);
        SecureNode::new(
            ProtocolConfig::default(),
            dns_kp.public().clone(),
            Some(DomainName::new("node").unwrap()),
            &mut rng,
        )
    }

    #[test]
    fn fresh_node_is_not_ready() {
        let n = mk_node(1);
        assert!(!n.is_ready());
        assert!(!n.is_dns());
        assert!(n.ip().is_site_local());
        assert_eq!(n.stats()[Counter::DadAttempts], 0);
    }

    #[test]
    fn dns_node_knows_its_own_key() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let dns = SecureNode::new_dns(ProtocolConfig::default(), Vec::new(), &mut rng);
        assert!(dns.is_dns());
        assert_eq!(dns.dns_pk, *dns.ident.public());
    }

    #[test]
    fn timer_tags_partition() {
        assert_eq!(TAG_DAD & TAG_KIND_MASK, TAG_DAD);
        assert_eq!((TAG_RREQ | 12345) & TAG_KIND_MASK, TAG_RREQ);
        assert_eq!((TAG_ACK | 12345) & !TAG_KIND_MASK, 12345);
        assert_ne!(TAG_RREQ, TAG_ACK);
        assert_ne!(TAG_ACK, TAG_DNS_PENDING);
    }

    #[test]
    fn seq_allocation_is_monotonic() {
        let mut n = mk_node(3);
        let a = n.dsr.alloc_seq();
        let b = n.dsr.alloc_seq();
        assert!(b.0 > a.0);
    }

    #[test]
    fn final_hop_broadcast_rule_covers_dad_replies_only() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let id = crate::identity::HostIdentity::generate(512, &mut rng);
        let sip = id.ip();
        let other = crate::identity::HostIdentity::generate(512, &mut rng).ip();
        let proof = manet_wire::IdentityProof {
            pk: id.public().clone(),
            rn: id.rn(),
            sig: id.sign(b"x"),
        };
        let arep = Message::Arep(Arep {
            sip,
            rr: RouteRecord::new(),
            proof: proof.clone(),
        });
        // AREP toward the disputed (mid-DAD, link-layer-ambiguous)
        // address: always broadcast.
        assert!(final_hop_must_broadcast(&arep, &sip));
        // AREP toward anyone else (the DNS warning copy): normal unicast.
        assert!(!final_hop_must_broadcast(&arep, &other));
        // Other message kinds never force a broadcast.
        let rerr = Message::Rerr(Rerr {
            iip: sip,
            i2ip: other,
            proof,
        });
        assert!(!final_hop_must_broadcast(&rerr, &sip));
    }

    #[test]
    fn probe_state_defaults_off() {
        let n = mk_node(8);
        assert!(!n.cfg.probe_enabled);
        assert!(n.pending_probes.is_empty());
        assert_eq!(n.stats()[Counter::ProbeSent], 0);
    }

    #[test]
    fn tx_src_is_unspecified_until_ready() {
        let n = mk_node(10);
        assert_eq!(n.tx_src_ip(), UNSPECIFIED, "Boot state sends as ::");
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let dns = SecureNode::new_dns(ProtocolConfig::default(), Vec::new(), &mut rng);
        // The DNS starts Ready only after on_start; in Boot it is :: too.
        assert_eq!(dns.tx_src_ip(), UNSPECIFIED);
    }

    #[test]
    fn is_my_addr_covers_anycast_only_for_dns() {
        let n = mk_node(4);
        assert!(n.is_my_addr(&n.ip()));
        assert!(!n.is_my_addr(&DNS_WELL_KNOWN[0]));
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let dns = SecureNode::new_dns(ProtocolConfig::default(), Vec::new(), &mut rng);
        assert!(dns.is_my_addr(&DNS_WELL_KNOWN[0]));
        assert!(dns.is_my_addr(&dns.ip()));
    }

    #[test]
    fn verify_cache_present_by_default_and_togglable() {
        let n = mk_node(12);
        let cache = n.verify_cache().expect("default config enables the cache");
        assert_eq!(
            cache.capacity(),
            ProtocolConfig::default().verify_cache_capacity
        );
        let mut rng = ChaCha12Rng::seed_from_u64(13);
        let dns_kp = manet_crypto::KeyPair::generate(512, &mut rng);
        let off = SecureNode::new(
            ProtocolConfig {
                verify_cache: false,
                ..ProtocolConfig::default()
            },
            dns_kp.public().clone(),
            None,
            &mut rng,
        );
        assert!(off.verify_cache().is_none());
    }
}
