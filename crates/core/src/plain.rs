//! Plain DSR baseline — the comparison point for every security
//! experiment.
//!
//! The forwarding machinery is not a copy of the secure stack's but the
//! same code: `crate::dsr` moves every source-routed packet for both
//! stacks (envelope source routes, route cache, send buffer, Data/Ack
//! retries, RERR on link failure), and `PlainDsrNode` runs it with
//! every hook at its default. What lives here is what plain DSR words
//! differently: unsigned RREQ/RREP/RERR and the handlers that believe
//! them — no CGA, no signatures, no verification anywhere, no credits.
//! A `PlainDsrNode` believes any RREP, any RERR, and any claimed
//! address — which is exactly why the Section 4 attacks succeed against
//! it and fail against [`crate::SecureNode`].

use crate::config::{Behavior, CreditConfig};
use crate::credit::CreditManager;
use crate::dsr::{Dsr, DsrParams, DsrState, TAG_ACK, TAG_KIND_MASK, TAG_RREQ};
use crate::envelope::Envelope;
use crate::routecache::{CachedRoute, RouteCache};
use crate::stats::{Counter, NodeStats};
use manet_sim::{Ctx, NodeId, Protocol, SimDuration};
use manet_wire::{
    FloodHeader, FloodKind, Ipv6Addr, Message, PlainRerr, PlainRrep, PlainRreq, RouteRecord, Seq,
};
use rand::Rng;
use std::any::Any;
use std::convert::Infallible;
use std::sync::OnceLock;

/// Baseline configuration (subset of the secure one).
#[derive(Clone, Debug)]
pub struct PlainConfig {
    pub rreq_timeout: SimDuration,
    pub rreq_retries: u32,
    pub ack_timeout: SimDuration,
    pub data_retries: u32,
    pub max_send_buffer: usize,
    /// Answer RREQs from cache (standard DSR route-cache replies).
    pub cached_replies: bool,
}

impl Default for PlainConfig {
    fn default() -> Self {
        PlainConfig {
            rreq_timeout: SimDuration::from_millis(500),
            rreq_retries: 3,
            ack_timeout: SimDuration::from_millis(800),
            data_retries: 2,
            max_send_buffer: 64,
            cached_replies: true,
        }
    }
}

/// The baseline node.
pub struct PlainDsrNode {
    cfg: PlainConfig,
    ip: Ipv6Addr,
    behavior: Behavior,
    /// Per-node counters, boxed so the table stays out of the node's
    /// slab entry (S3 holds 100k of these).
    stats: Box<NodeStats>,
    /// The shared data plane's state; plain DSR queues nothing but data.
    dsr: DsrState<Infallible>,
}

impl PlainDsrNode {
    /// A baseline node with the given (externally assigned, assumed
    /// unique) address.
    pub fn new(cfg: PlainConfig, ip: Ipv6Addr) -> Self {
        Self::with_behavior(cfg, ip, Behavior::default())
    }

    /// A baseline node with attacker switches.
    pub fn with_behavior(cfg: PlainConfig, ip: Ipv6Addr, behavior: Behavior) -> Self {
        PlainDsrNode {
            cfg,
            ip,
            behavior,
            stats: Box::default(),
            dsr: DsrState::new(RouteCache::default()),
        }
    }

    /// Generate an address of the same shape the secure stack uses (a
    /// site-local with a random interface ID) — but with no key behind it.
    pub fn random_ip<R: Rng>(rng: &mut R) -> Ipv6Addr {
        let mut b = [0u8; 16];
        b[0] = 0xfe;
        b[1] = 0xc0;
        let iid: u64 = rng.gen();
        b[8..16].copy_from_slice(&iid.to_be_bytes());
        Ipv6Addr(b)
    }

    pub fn ip(&self) -> Ipv6Addr {
        self.ip
    }

    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    pub fn cached_destinations(&self) -> usize {
        self.dsr.route_cache.len()
    }

    /// Application entry: send `payload` to `dip`.
    pub fn send_data(&mut self, ctx: &mut Ctx, dip: Ipv6Addr, payload: Vec<u8>) {
        self.originate_data(ctx, dip, payload);
    }

    /// Reply to `rreq` with the route `rr`, claiming to be `from`.
    fn send_rrep(&mut self, ctx: &mut Ctx, rreq: &PlainRreq, from: Ipv6Addr, rr: RouteRecord) {
        let rrep = PlainRrep {
            sip: rreq.sip,
            dip: rreq.dip,
            seq: rreq.seq,
            rr,
        };
        self.reply_along(ctx, from, &rreq.rr, rreq.sip, Message::PlainRrep(rrep));
    }

    /// A first sighting of a foreign request for `dip` (`on_frame`
    /// dropped the rest on its header): answer it, or relay it. Only an
    /// answer decodes the frame; a relay splices it.
    fn handle_rreq(&mut self, ctx: &mut Ctx, bytes: &[u8], flood: &FloodHeader, dip: Ipv6Addr) {
        // No verification anywhere: an attacker impersonating the target
        // address simply answers (the paper's impersonation attack).
        let answers = self.accepts_addr(&dip);
        // Classic black hole: claim a one-hop route to the target.
        let forges = !answers && self.behavior.forge_rrep;
        let cached = if answers || forges || !self.cfg.cached_replies {
            None
        } else {
            self.dsr.route_cache.best(&dip, credits(), ctx.now())
        };
        if !answers && !forges && cached.is_none() {
            if !self.relay_flood(ctx, bytes, flood) {
                self.stats.bump(Counter::RxMalformed); // unreachable: a plain RREQ splices
            }
            return;
        }
        let Ok(Envelope {
            msg: Message::PlainRreq(rreq),
            ..
        }) = Envelope::decode(bytes)
        else {
            // Unreachable: whatever peeks decodes.
            return self.stats.bump(Counter::RxMalformed);
        };
        let mut rr = rreq.rr.clone();
        let from = if answers {
            if dip != self.ip {
                self.stats.bump(Counter::AtkImpersonatedRrep);
            }
            self.stats.bump(Counter::RouteRrepSent);
            dip
        } else {
            // A relay's reply extends the recorded path with its own
            // address.
            rr.push(self.ip);
            match cached {
                None => self.stats.bump(Counter::AtkForgedRrep),
                Some(cached) => {
                    // Standard DSR cached reply: splice our cached tail
                    // onto the request's recorded path. Unverifiable by
                    // design.
                    rr.0.extend(cached.relays.iter().copied());
                    self.stats.bump(Counter::RouteCachedReply);
                }
            }
            self.ip
        };
        self.send_rrep(ctx, &rreq, from, rr);
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx, rrep: PlainRrep) {
        if rrep.sip != self.ip {
            return;
        }
        let Some(pending) = self.dsr.pending_rreqs.get(&rrep.dip) else {
            return;
        };
        if pending.seq != rrep.seq {
            return;
        }
        let started = pending.started;
        self.dsr.pending_rreqs.remove(&rrep.dip);
        self.stats.bump(Counter::RouteDiscovered);
        ctx.sample(
            "route.discovery_latency_s",
            ctx.now().since(started).as_secs_f64(),
        );
        self.dsr.route_cache.insert(
            rrep.dip,
            CachedRoute {
                relays: rrep.rr.0,
                d_proof: None,
                learned_at: ctx.now(),
            },
        );
        self.flush_buffer(ctx, rrep.dip);
    }

    fn handle_rerr(&mut self, rerr: PlainRerr) {
        // Believed unconditionally — no identity to verify (the paper's
        // forged-RERR attack surface).
        self.stats.bump(Counter::RouteRerrReceived);
        self.dsr
            .route_cache
            .remove_link(self.ip, rerr.iip, rerr.i2ip);
    }
}

/// Route selection is shortest-first: one disabled credit table serves
/// every plain node (nothing ever writes to it).
fn credits() -> &'static CreditManager {
    static DISABLED: OnceLock<CreditManager> = OnceLock::new();
    DISABLED.get_or_init(|| {
        CreditManager::new(CreditConfig {
            enabled: false,
            ..CreditConfig::default()
        })
    })
}

/// Plain DSR is the data plane with every hook left at its default.
impl Dsr for PlainDsrNode {
    type Work = Infallible;

    fn dsr(&self) -> &DsrState<Infallible> {
        &self.dsr
    }
    fn dsr_mut(&mut self) -> &mut DsrState<Infallible> {
        &mut self.dsr
    }
    fn ip(&self) -> Ipv6Addr {
        self.ip
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
        credits()
    }
    fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }
    fn rreq_message(&mut self, dip: Ipv6Addr, seq: Seq) -> Message {
        Message::PlainRreq(PlainRreq {
            sip: self.ip,
            dip,
            seq,
            rr: RouteRecord::new(),
        })
    }
    fn rerr_message(&mut self, next: Ipv6Addr) -> Message {
        Message::PlainRerr(PlainRerr {
            iip: self.ip,
            i2ip: next,
        })
    }
    fn deliver_control(&mut self, ctx: &mut Ctx, env: Envelope) {
        match env.msg {
            Message::PlainRrep(r) => self.handle_rrep(ctx, r),
            Message::PlainRerr(r) => self.handle_rerr(r),
            _ => self.stats.bump(Counter::RxUnexpectedRouted),
        }
    }
    fn send_queued(&mut self, _: &mut Ctx, _: Ipv6Addr, work: Infallible) -> Option<Infallible> {
        match work {}
    }
}

impl Protocol for PlainDsrNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // No DAD, no keys: plain DSR assumes pre-assigned unique addresses.
        self.stats.joined_at = Some(ctx.now());
    }

    fn on_frame(&mut self, ctx: &mut Ctx, src: NodeId, bytes: &[u8]) {
        // Duplicate-flood fast path: in a dense RREQ flood most
        // receptions are copies of a request this node already relayed
        // (or its own request echoed back). Those are dropped on the
        // header, which the peek reads without building the route
        // record and validates as strictly as `decode`; malformed
        // frames fall through to the counting path below.
        if let Some((tx_ip, flood)) = Envelope::peek_flood(bytes) {
            self.heard(ctx, tx_ip, src);
            let FloodKind::PlainRreq { dip } = flood.kind else {
                return self.stats.bump(Counter::RxUnexpectedFlood);
            };
            if flood.sip == self.ip
                || !self
                    .dsr
                    .first_sighting(&mut self.stats, flood.sip, flood.seq)
            {
                return;
            }
            return self.handle_rreq(ctx, bytes, &flood, dip);
        }
        let Some(env) = self.decode_frame(ctx, src, bytes) else {
            return;
        };
        if env.source_route.is_some() {
            return self.receive_routed(ctx, env);
        }
        // The only flood plain DSR speaks was taken above.
        self.stats.bump(Counter::RxUnexpectedFlood);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag & TAG_KIND_MASK {
            TAG_RREQ => self.on_rreq_timer(ctx, tag & !TAG_KIND_MASK),
            TAG_ACK => self.on_ack_timer(ctx, tag & !TAG_KIND_MASK),
            _ => {}
        }
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx, _to: NodeId, bytes: &[u8]) {
        self.link_failed(ctx, bytes);
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn random_ip_is_site_local_shaped() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let a = PlainDsrNode::random_ip(&mut rng);
        let b = PlainDsrNode::random_ip(&mut rng);
        assert!(a.is_site_local());
        assert_ne!(a, b);
    }

    #[test]
    fn node_reports_its_address() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let ip = PlainDsrNode::random_ip(&mut rng);
        let n = PlainDsrNode::new(PlainConfig::default(), ip);
        assert_eq!(n.ip(), ip);
        assert_eq!(n.stats()[Counter::AppDataSent], 0);
    }

    /// S3 runs 100k of these. 728 bytes before the fold; the second
    /// dedup generation costs 32, the per-node disabled credit table it
    /// no longer carries gave back 112, the address-id tables PR 24
    /// deleted 128.
    #[test]
    fn node_size_only_ratchets_down() {
        assert!(std::mem::size_of::<PlainDsrNode>() <= 520);
    }
}
