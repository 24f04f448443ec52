//! The one DSR data plane both stacks run.
//!
//! [`DsrState`] is the state DSR needs whoever signs the control
//! traffic — neighbor and route caches, flood dedup, pending
//! discoveries and acks, the pre-route send buffer — and [`Dsr`] is the
//! single implementation of everything that moves a source-routed
//! packet or keeps a discovery's books: transmission, per-hop
//! forwarding with the broadcast fallback, Data/Ack retries, the send
//! buffer, RREQ retry timers, link-failure handling.
//!
//! A stack implements the required methods (where its state lives, how
//! it words its RREQ and RERR, what it does with the control messages
//! delivered to it) and overrides the hooks it needs. The hook defaults
//! are plain DSR; what [`crate::SecureNode`] overrides is the paper's
//! Section 3.3–3.4 additions. Nothing here asks which stack it serves,
//! and counters, samples and trace lines are the same for both. Every
//! method is monomorphised over the node type: no dispatch is added.

use crate::config::Behavior;
use crate::credit::CreditManager;
use crate::envelope::Envelope;
use crate::fxhash::FxHashMap;
use crate::neighbor::NeighborCache;
use crate::routecache::RouteCache;
use crate::sendbuf::SendBuffer;
use crate::stats::{Counter, NodeStats};
use manet_sim::{Ctx, Dir, NodeId, SimDuration, SimTime};
use manet_wire::{
    Ack, Data, FloodHeader, FloodKind, Ipv6Addr, Message, RouteRecord, Seq, UNSPECIFIED,
};
use rand::Rng;

// Timer tag layout: kind in the top byte, payload below. Kinds 2 and 3
// are the data plane's; a stack numbers its own kinds around them.
pub(crate) const TAG_KIND_MASK: u64 = 0xff << 56;
pub(crate) const TAG_RREQ: u64 = 2 << 56;
pub(crate) const TAG_ACK: u64 = 3 << 56;

/// Most `(source, seq)` floods a node remembers per dedup map. A flood
/// only has to be remembered while copies of it are still in the air
/// (tens of milliseconds); the cap is orders of magnitude above what an
/// honest network shows one node in that time, and bounds what a
/// flooder can make every node hold.
pub(crate) const RREQ_DEDUP_CAP: usize = 4096;

/// Insert-only flood memory bounded by two generations: entries land in
/// the current one, and when it holds half the cap the previous one is
/// dropped and the current one takes its place. Rotation depends only
/// on the insertion count, so it is identical on every run; lookups
/// consult both generations, so an entry survives at least half a cap
/// of newer ones.
#[derive(Debug, Default)]
pub(crate) struct FloodMemo<V> {
    cur: FxHashMap<(Ipv6Addr, u64), V>,
    old: FxHashMap<(Ipv6Addr, u64), V>,
}

impl<V: Copy> FloodMemo<V> {
    pub(crate) fn get(&self, key: &(Ipv6Addr, u64)) -> Option<V> {
        self.cur.get(key).or_else(|| self.old.get(key)).copied()
    }

    /// Record `v` for `key`; true when that filled the current
    /// generation and the oldest entries were dropped.
    #[must_use]
    pub(crate) fn put(&mut self, key: (Ipv6Addr, u64), v: V) -> bool {
        self.cur.insert(key, v);
        if self.cur.len() < RREQ_DEDUP_CAP / 2 {
            return false;
        }
        self.old = std::mem::take(&mut self.cur);
        true
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cur.len() + self.old.len()
    }
}

/// An outstanding route discovery.
#[derive(Debug)]
pub(crate) struct PendingRreq {
    pub(crate) seq: Seq,
    attempts: u32,
    pub(crate) started: SimTime,
}

/// A data packet awaiting its end-to-end ACK.
#[derive(Debug)]
pub(crate) struct PendingAck {
    pub(crate) dip: Ipv6Addr,
    payload: Vec<u8>,
    /// The relays of the route it went out on (empty = direct).
    pub(crate) relays: Vec<Ipv6Addr>,
    retries: u32,
    sent: SimTime,
}

/// Work parked in the send buffer until a route to its destination
/// exists. Data payload bytes live in the buffer's arena, not here; `W`
/// is the stack's own non-data work (plain DSR has none).
#[derive(Debug)]
pub(crate) enum Queued<W> {
    Data { seq: Seq },
    Other(W),
}

/// The retry and buffering knobs the data plane reads from its stack's
/// configuration.
#[derive(Clone, Copy)]
pub(crate) struct DsrParams {
    pub(crate) rreq_timeout: SimDuration,
    pub(crate) rreq_retries: u32,
    pub(crate) ack_timeout: SimDuration,
    pub(crate) data_retries: u32,
    pub(crate) max_send_buffer: usize,
}

/// The state both stacks share.
pub(crate) struct DsrState<W> {
    pub(crate) neighbors: NeighborCache,
    pub(crate) route_cache: RouteCache,
    /// RREQ floods already relayed or answered, by `(source, seq)`.
    seen_rreqs: FloodMemo<()>,
    pub(crate) pending_rreqs: FxHashMap<Ipv6Addr, PendingRreq>,
    pending_acks: FxHashMap<u64, PendingAck>,
    pub(crate) send_buffer: SendBuffer<Queued<W>>,
    next_seq: u64,
}

impl<W> DsrState<W> {
    pub(crate) fn new(route_cache: RouteCache) -> Self {
        DsrState {
            neighbors: NeighborCache::default(),
            route_cache,
            seen_rreqs: FloodMemo::default(),
            pending_rreqs: FxHashMap::default(),
            pending_acks: FxHashMap::default(),
            send_buffer: SendBuffer::new(),
            next_seq: 1,
        }
    }

    pub(crate) fn alloc_seq(&mut self) -> Seq {
        let s = Seq(self.next_seq);
        self.next_seq += 1;
        s
    }

    /// Flood dedup: true the first time `(sip, seq)` is seen, and
    /// remembers it.
    pub(crate) fn first_sighting(
        &mut self,
        stats: &mut NodeStats,
        sip: Ipv6Addr,
        seq: Seq,
    ) -> bool {
        let key = (sip, seq.0);
        if self.seen_rreqs.get(&key).is_some() {
            return false;
        }
        if self.seen_rreqs.put(key, ()) {
            stats.bump(Counter::RouteRreqDedupRotations);
        }
        true
    }

    /// Non-mutating [`Self::first_sighting`].
    #[cfg(test)]
    pub(crate) fn already_seen(&self, sip: &Ipv6Addr, seq: Seq) -> bool {
        self.seen_rreqs.get(&(*sip, seq.0)).is_some()
    }
}

/// How a transmitted frame counts: the message kind its trace line
/// names, and whether its bytes are Table 1 control and routing
/// overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TxKind {
    name: &'static str,
    table1: bool,
    routing: bool,
}

impl TxKind {
    fn of(msg: &Message) -> Self {
        TxKind {
            name: msg.kind(),
            table1: msg.is_table1_control(),
            routing: !matches!(msg, Message::Data(_) | Message::Ack(_)),
        }
    }

    /// [`TxKind::of`] a flooded message, from its peeked header.
    fn of_flood(kind: FloodKind) -> Self {
        let (name, table1) = match kind {
            FloodKind::Areq { .. } => ("AREQ", true),
            FloodKind::Rreq { .. } => ("RREQ", true),
            FloodKind::PlainRreq { .. } => ("P-RREQ", false),
        };
        TxKind {
            name,
            table1,
            routing: true,
        }
    }
}

/// The paper's footnote: the last hop of an AREP (or DREP) toward a
/// mid-DAD host must be a link broadcast — the claimed address is not
/// yet legal, and during a genuine collision it is *ambiguous* (the
/// owner's transmissions map it to the owner in neighbor caches, so a
/// unicast would deliver the collision notice back to the owner).
pub(crate) fn final_hop_must_broadcast(msg: &Message, final_dst: &Ipv6Addr) -> bool {
    match msg {
        Message::Arep(a) => a.sip == *final_dst,
        Message::Drep(d) => d.sip == *final_dst,
        _ => false,
    }
}

/// A node that runs the DSR data plane.
pub(crate) trait Dsr: Sized {
    /// The stack's non-data queued work ([`Queued::Other`]).
    type Work;

    // --- required: where the stack keeps things, how it words things ------

    fn dsr(&self) -> &DsrState<Self::Work>;
    fn dsr_mut(&mut self) -> &mut DsrState<Self::Work>;
    /// The node's current address.
    fn ip(&self) -> Ipv6Addr;
    fn params(&self) -> DsrParams;
    /// Attacker switches; the data plane reads `data_drop_prob` and
    /// `impersonate`.
    fn behavior(&self) -> &Behavior;
    /// The credit table route selection ranks by.
    fn credits(&self) -> &CreditManager;
    /// Per-node counters.
    fn stats_mut(&mut self) -> &mut NodeStats;
    /// This stack's route request for `dip`, originated by this node.
    fn rreq_message(&mut self, dip: Ipv6Addr, seq: Seq) -> Message;
    /// This stack's route error for the broken link to `next`.
    fn rerr_message(&mut self, next: Ipv6Addr) -> Message;
    /// A source-routed message other than Data/Ack reached this node as
    /// its final hop.
    fn deliver_control(&mut self, ctx: &mut Ctx, env: Envelope);
    /// A route to `dest` appeared: send `work`, or hand it back to stay
    /// queued.
    fn send_queued(
        &mut self,
        ctx: &mut Ctx,
        dest: Ipv6Addr,
        work: Self::Work,
    ) -> Option<Self::Work>;

    // --- hooks: the defaults are plain DSR ---------------------------------

    /// May this node originate traffic yet? Until it may, data is only
    /// queued, no discovery starts, and frames go out from `::`.
    fn ready(&self) -> bool {
        true
    }

    /// Is `ip` an address this node legitimately answers to?
    fn is_my_addr(&self, ip: &Ipv6Addr) -> bool {
        *ip == self.ip()
    }

    /// A data packet could not leave because the first hop of the best
    /// route to `dip` is unresolvable: scrub what led there.
    fn scrub_dead_first_hop(&mut self, dip: Ipv6Addr) {
        self.dsr_mut().route_cache.remove_dest(&dip);
    }

    /// While forwarding, the link to `next` turned out broken.
    fn on_broken_link(&mut self, _next: Ipv6Addr) {}

    /// A frame in transit (this node is hop `idx` of its route), before
    /// it is forwarded. True swallows it.
    fn intercept_transit(&mut self, _ctx: &mut Ctx, _env: &Envelope, _idx: usize) -> bool {
        false
    }

    /// A frame in transit was just unicast to `next`.
    fn after_forward(&mut self, _ctx: &mut Ctx, _env: &Envelope, _idx: usize, _next: Ipv6Addr) {}

    /// A data packet was acknowledged end to end.
    fn on_acked(&mut self, _pending: &PendingAck) {}

    /// A data packet's end-to-end ack timed out (before any retry).
    fn on_ack_timeout(&mut self, _ctx: &mut Ctx, _pending: &PendingAck) {}

    // --- the data plane ------------------------------------------------------

    /// Source address for outgoing frames (`::` until ready, like real
    /// IPv6 DAD probes).
    fn tx_src_ip(&self) -> Ipv6Addr {
        if self.ready() {
            self.ip()
        } else {
            UNSPECIFIED
        }
    }

    /// An impersonator also listens on its claimed address. Against the
    /// secure stack nothing is ever *sent* there, because its forged
    /// replies are rejected upstream; in plain DSR nothing stops it.
    fn accepts_addr(&self, ip: &Ipv6Addr) -> bool {
        self.is_my_addr(ip) || self.behavior().impersonate == Some(*ip)
    }

    /// Full forwarding path to `dip` from the route cache.
    fn path_to(&self, now: SimTime, dip: &Ipv6Addr) -> Option<RouteRecord> {
        let r = self.dsr().route_cache.best(dip, self.credits(), now)?;
        Some(r.full_path(self.ip(), *dip))
    }

    /// Application entry: send `payload` to `dip`, discovering a route
    /// if needed.
    fn originate_data(&mut self, ctx: &mut Ctx, dip: Ipv6Addr, payload: Vec<u8>) {
        self.stats_mut().bump(Counter::AppDataSent);
        let seq = self.dsr_mut().alloc_seq();
        if self.ready() && self.try_send_data(ctx, seq, dip, &payload, 0) {
            return;
        }
        self.enqueue(dip, Queued::Data { seq }, &payload);
        self.ensure_route(ctx, dip);
    }

    /// Queue `q` for `dest`; `payload` is the data bytes of a
    /// [`Queued::Data`] entry (empty otherwise), copied into the buffer
    /// arena.
    fn enqueue(&mut self, dest: Ipv6Addr, q: Queued<Self::Work>, payload: &[u8]) {
        if self.dsr().send_buffer.len() >= self.params().max_send_buffer {
            // Oldest-first drop; count the casualty if it was data.
            if let Some((_, Queued::Data { .. })) = self.dsr_mut().send_buffer.drop_front() {
                self.stats_mut().bump(Counter::AppDataFailed);
            }
        }
        self.dsr_mut().send_buffer.push_back(dest, q, payload);
    }

    /// Transmit `msg` along `path` (this node must be `path[0]`). Returns
    /// false when the first hop is unresolvable and no broadcast fallback
    /// applies.
    fn send_routed(&mut self, ctx: &mut Ctx, path: RouteRecord, msg: Message) -> bool {
        debug_assert!(path.len() >= 2);
        let next = path.0[1];
        let at_final = path.len() == 2;
        let to = if at_final && final_hop_must_broadcast(&msg, &next) {
            None
        } else {
            let node = self.dsr().neighbors.lookup(&next, ctx.now());
            // Unknown next hop: legal only for a final hop to an
            // address-less (mid-DAD) or silent host — fall back to link
            // broadcast.
            if node.is_none() && !at_final {
                self.stats_mut().bump(Counter::RouteFirstHopUnresolved);
                ctx.trace(
                    Dir::Drop,
                    "ROUTE",
                    format_args!("{}: first hop {next} unresolved", msg.kind()),
                );
                return false;
            }
            node
        };
        let env = Envelope::routed(self.tx_src_ip(), path, msg);
        self.tx(ctx, to, &env);
        true
    }

    /// Answer a flood: send `msg` as `from` (this node, or the address
    /// it claims) back along the flood's route record `rr` to its
    /// originator `to`.
    fn reply_along(
        &mut self,
        ctx: &mut Ctx,
        from: Ipv6Addr,
        rr: &RouteRecord,
        to: Ipv6Addr,
        msg: Message,
    ) -> bool {
        let mut path = Vec::with_capacity(rr.len() + 2);
        path.push(from);
        path.extend(rr.0.iter().rev());
        path.push(to);
        self.send_routed(ctx, RouteRecord(path), msg)
    }

    /// Put `env` on the air: unicast to `to`, or link broadcast.
    fn tx(&mut self, ctx: &mut Ctx, to: Option<NodeId>, env: &Envelope) {
        // Encode into a recycled frame buffer (it returns to the engine
        // pool once the frame's last receiver has been dispatched).
        let mut bytes = ctx.frame_buf();
        env.encode_into(&mut bytes);
        let routed = env
            .source_route
            .as_ref()
            .and_then(|p| Some((*p.0.last()?, p.len() - 1)));
        self.send_frame(ctx, to, bytes, TxKind::of(&env.msg), routed);
    }

    /// Rebroadcast the flood `bytes`, whose header
    /// [`Envelope::peek_flood`] read as `flood`, with this node appended
    /// to its route record. The frame is spliced
    /// ([`Envelope::relay_flood_into`]), not decoded and re-encoded, so
    /// with a warm frame pool a relay allocates nothing. False, with
    /// nothing sent, for a secure RREQ: its relays sign their hop.
    fn relay_flood(&mut self, ctx: &mut Ctx, bytes: &[u8], flood: &FloodHeader) -> bool {
        let mut frame = ctx.frame_buf();
        if !Envelope::relay_flood_into(bytes, flood, self.ip(), &mut frame) {
            return false;
        }
        self.send_frame(ctx, None, frame, TxKind::of_flood(flood.kind), None);
        true
    }

    /// Count and trace a frame this node transmits, then queue it:
    /// unicast to `to`, or link broadcast. `routed` is the source
    /// route's destination and hop count.
    fn send_frame(
        &mut self,
        ctx: &mut Ctx,
        to: Option<NodeId>,
        bytes: Vec<u8>,
        kind: TxKind,
        routed: Option<(Ipv6Addr, usize)>,
    ) {
        let (stats, len) = (self.stats_mut(), bytes.len() as u64);
        stats.bump(Counter::CtlTxMsgs);
        stats.add(Counter::CtlTxBytes, len);
        if kind.table1 {
            stats.add(Counter::CtlTable1Bytes, len);
        }
        if kind.routing {
            stats.add(Counter::CtlRoutingBytes, len);
        }
        match routed {
            Some((dst, hops)) => {
                ctx.trace(Dir::Tx, kind.name, format_args!("→{dst} ({hops} hops)"))
            }
            None => ctx.trace(Dir::Tx, kind.name, "flood"),
        }
        match to {
            Some(node) => ctx.unicast(node, bytes),
            None => ctx.broadcast(bytes),
        }
    }

    fn try_send_data(
        &mut self,
        ctx: &mut Ctx,
        seq: Seq,
        dip: Ipv6Addr,
        payload: &[u8],
        retries: u32,
    ) -> bool {
        let Some(path) = self.path_to(ctx.now(), &dip) else {
            return false;
        };
        let relays = path.0[1..path.len() - 1].to_vec();
        let msg = Message::Data(Data {
            sip: self.ip(),
            dip,
            seq,
            route: path.clone(),
            payload: payload.to_vec(),
        });
        if !self.send_routed(ctx, path, msg) {
            // Report failure so the caller can rediscover.
            self.scrub_dead_first_hop(dip);
            return false;
        }
        self.dsr_mut().pending_acks.insert(
            seq.0,
            PendingAck {
                dip,
                payload: payload.to_vec(),
                relays,
                retries,
                sent: ctx.now(),
            },
        );
        ctx.set_timer(self.params().ack_timeout, TAG_ACK | seq.0);
        true
    }

    /// Flush queued work for `dest` after a route appeared.
    fn flush_buffer(&mut self, ctx: &mut Ctx, dest: Ipv6Addr) {
        // Full-length rotation: every entry is popped once and retained
        // entries are re-pushed, so relative order is preserved exactly
        // and payload spans are recycled in the buffer arena.
        for _ in 0..self.dsr().send_buffer.len() {
            let Some((d, q, payload)) = self.dsr_mut().send_buffer.pop_front() else {
                break;
            };
            let keep = match q {
                q if d != dest => Some(q),
                Queued::Data { seq } => {
                    (!self.try_send_data(ctx, seq, d, &payload, 0)).then_some(Queued::Data { seq })
                }
                Queued::Other(work) => self.send_queued(ctx, d, work).map(Queued::Other),
            };
            if let Some(q) = keep {
                self.dsr_mut().send_buffer.push_back(d, q, &payload);
            }
        }
    }

    /// Start (or keep) a route discovery toward `dip`.
    fn ensure_route(&mut self, ctx: &mut Ctx, dip: Ipv6Addr) {
        if !self.ready() || self.dsr().pending_rreqs.contains_key(&dip) {
            return;
        }
        let seq = self.dsr_mut().alloc_seq();
        self.dsr_mut().pending_rreqs.insert(
            dip,
            PendingRreq {
                seq,
                attempts: 1,
                started: ctx.now(),
            },
        );
        self.broadcast_rreq(ctx, dip, seq);
        ctx.set_timer(self.params().rreq_timeout, TAG_RREQ | seq.0);
    }

    fn broadcast_rreq(&mut self, ctx: &mut Ctx, dip: Ipv6Addr, seq: Seq) {
        let msg = self.rreq_message(dip, seq);
        self.stats_mut().bump(Counter::RouteRreqOriginated);
        let env = Envelope::broadcast(self.ip(), msg);
        self.tx(ctx, None, &env);
    }

    fn on_rreq_timer(&mut self, ctx: &mut Ctx, seq: u64) {
        let params = self.params();
        let st = self.dsr_mut();
        // lint: allow(unordered-iter) — seq is unique across pending entries; .find hits at most one
        let found = st.pending_rreqs.iter_mut().find(|(_, p)| p.seq.0 == seq);
        let Some((&dip, pending)) = found else {
            return; // answered in time
        };
        if pending.attempts >= params.rreq_retries {
            // Discovery exhausted: fail everything queued for `dip`.
            st.pending_rreqs.remove(&dip);
            let dropped = st.send_buffer.remove_dest(dip) as u64;
            let stats = self.stats_mut();
            stats.bump(Counter::RouteDiscoveryGaveUp);
            if dropped > 0 {
                stats.add(Counter::AppDataFailed, dropped);
                stats.bump(Counter::RouteDiscoveryFailed);
            }
            return;
        }
        pending.attempts += 1;
        // Fresh sequence number per retry: replayed answers to the old
        // one stay rejectable.
        let new_seq = Seq(st.next_seq);
        st.next_seq += 1;
        pending.seq = new_seq;
        self.stats_mut().bump(Counter::RouteRreqRetries);
        self.broadcast_rreq(ctx, dip, new_seq);
        ctx.set_timer(params.rreq_timeout, TAG_RREQ | new_seq.0);
    }

    fn on_ack_timer(&mut self, ctx: &mut Ctx, seq: u64) {
        let Some(pending) = self.dsr_mut().pending_acks.remove(&seq) else {
            return; // acked in time
        };
        self.stats_mut().bump(Counter::AppAckTimeouts);
        self.on_ack_timeout(ctx, &pending);
        if pending.retries < self.params().data_retries {
            // Retry — possibly over a different route if the stack's
            // bookkeeping just shifted the ranking.
            let seq = Seq(seq);
            if self.try_send_data(ctx, seq, pending.dip, &pending.payload, pending.retries + 1) {
                return;
            }
            // No usable route: rediscover and queue.
            self.enqueue(pending.dip, Queued::Data { seq }, &pending.payload);
            self.ensure_route(ctx, pending.dip);
            return;
        }
        self.stats_mut().bump(Counter::AppDataFailed);
    }

    // --- reception -------------------------------------------------------------

    /// Decode a received frame and learn its transmitter; `None` (and
    /// counted) when malformed.
    fn decode_frame(&mut self, ctx: &mut Ctx, src: NodeId, bytes: &[u8]) -> Option<Envelope> {
        let Ok(env) = Envelope::decode(bytes) else {
            self.stats_mut().bump(Counter::RxMalformed);
            return None;
        };
        self.heard(ctx, env.src_ip, src);
        Some(env)
    }

    /// Learn that `tx_ip` transmits as link node `src`.
    fn heard(&mut self, ctx: &Ctx, tx_ip: Ipv6Addr, src: NodeId) {
        let evicted = self.dsr_mut().neighbors.learn(tx_ip, src, ctx.now());
        if evicted > 0 {
            self.stats_mut().add(Counter::NeighEvicted, evicted as u64);
        }
    }

    /// A source-routed frame arrived: deliver, forward, or ignore it.
    fn receive_routed(&mut self, ctx: &mut Ctx, env: Envelope) {
        let Some(cur) = env.current_hop() else {
            return;
        };
        if !self.accepts_addr(&cur) {
            return; // overheard fallback broadcast — not ours
        }
        if !env.at_final_hop() {
            return self.forward(ctx, env);
        }
        ctx.trace(Dir::Rx, env.msg.kind(), format_args!("from {}", env.src_ip));
        match env.msg {
            Message::Data(data) => self.handle_data(ctx, data),
            Message::Ack(ack) => self.handle_ack(ctx, ack),
            _ => self.deliver_control(ctx, env),
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx, data: Data) {
        self.stats_mut().bump(Counter::AppDataReceived);
        ctx.sample("app.data_bytes", data.payload.len() as f64);
        let path = data.route.reversed();
        let ack = Ack {
            sip: data.sip,
            dip: data.dip,
            seq: data.seq,
            route: data.route,
        };
        if path.len() >= 2 {
            self.send_routed(ctx, path, Message::Ack(ack));
        }
    }

    fn handle_ack(&mut self, ctx: &mut Ctx, ack: Ack) {
        let Some(pending) = self.dsr_mut().pending_acks.remove(&ack.seq.0) else {
            return;
        };
        self.stats_mut().bump(Counter::AppDataAcked);
        ctx.sample(
            "app.e2e_latency_s",
            ctx.now().since(pending.sent).as_secs_f64(),
        );
        self.on_acked(&pending);
    }

    fn forward(&mut self, ctx: &mut Ctx, mut env: Envelope) {
        let Some(path) = env.source_route.as_ref() else {
            return;
        };
        let idx = env.sr_index as usize;
        let is_data = matches!(env.msg, Message::Data(_));
        // Black/grey hole: accept and discard (Section 4's black hole).
        let drop_prob = self.behavior().data_drop_prob;
        if is_data && drop_prob > 0.0 && ctx.rng().gen::<f64>() < drop_prob {
            self.stats_mut().bump(Counter::AtkDataDropped);
            ctx.trace(Dir::Drop, "DATA", "black hole: swallowing packet");
            return;
        }
        if self.intercept_transit(ctx, &env, idx) {
            return;
        }
        let next = path.0[idx + 1];
        let final_next = idx + 1 == path.len() - 1;
        env.sr_index += 1;
        env.src_ip = self.ip();
        self.stats_mut().bump(Counter::RouteForwarded);
        let node = self.dsr().neighbors.lookup(&next, ctx.now());
        match node {
            Some(node) if !(final_next && final_hop_must_broadcast(&env.msg, &next)) => {
                self.tx(ctx, Some(node), &env);
                self.after_forward(ctx, &env, idx, next);
            }
            // Last hop to a mid-DAD joiner (the footnote broadcast) or
            // to a host we cannot resolve: link-layer broadcast.
            _ if final_next => {
                self.stats_mut().bump(Counter::RouteBroadcastFallback);
                self.tx(ctx, None, &env);
            }
            // Broken link with no cached neighbor: report it.
            _ => {
                self.dsr_mut().neighbors.forget(&next);
                self.on_broken_link(next);
                if is_data {
                    self.originate_rerr(ctx, path, idx, next);
                }
            }
        }
    }

    /// Send this stack's RERR for the broken link to `next` back to the
    /// source of a source-routed packet (this node is hop `my_idx`).
    fn originate_rerr(&mut self, ctx: &mut Ctx, path: &RouteRecord, my_idx: usize, next: Ipv6Addr) {
        let msg = self.rerr_message(next);
        self.stats_mut().bump(Counter::RouteRerrSent);
        let back: Vec<Ipv6Addr> = path.0[..=my_idx].iter().rev().copied().collect();
        if back.len() >= 2 {
            self.send_routed(ctx, RouteRecord(back), msg);
        }
    }

    /// A unicast frame this node transmitted could not be delivered.
    fn link_failed(&mut self, ctx: &mut Ctx, bytes: &[u8]) {
        let Ok(env) = Envelope::decode(bytes) else {
            return;
        };
        let (Some(path), Some(next)) = (env.source_route.as_ref(), env.current_hop()) else {
            return;
        };
        let me = self.ip();
        let st = self.dsr_mut();
        st.neighbors.forget(&next);
        // The failed transmitter was us, as path head or as forwarder:
        // in route-cache terms the broken link is (our address) → next.
        st.route_cache.remove_link(me, me, next);
        if !matches!(env.msg, Message::Data(_)) {
            return;
        }
        if path.0.first() == Some(&me) {
            // We are the source: no RERR to send; the ACK timeout will
            // retry over another route.
            self.stats_mut().bump(Counter::RouteSourceLinkFailures);
        } else {
            let my_idx = (env.sr_index as usize).saturating_sub(1);
            self.originate_rerr(ctx, path, my_idx, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::identity::HostIdentity;
    use crate::plain::{PlainConfig, PlainDsrNode};
    use crate::scenario::NodeApi;
    use crate::SecureNode;
    use manet_crypto::BackendKind;
    use manet_sim::{Engine, EngineConfig, Mobility, Pos, Protocol};
    use manet_wire::{sigdata, Areq, Challenge, PlainRreq, Rreq, SecureRouteRecord};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn flood_memo_forgets_the_oldest_half_and_nothing_newer() {
        let mut memo = FloodMemo::default();
        let src = far(7);
        let half = RREQ_DEDUP_CAP as u64 / 2;
        for seq in 0..half - 1 {
            assert!(!memo.put((src, seq), seq));
        }
        assert!(
            memo.put((src, half - 1), half - 1),
            "generation full: rotated"
        );
        assert_eq!(
            memo.get(&(src, 0)),
            Some(0),
            "the previous generation still answers"
        );
        for seq in half..2 * half - 1 {
            assert!(!memo.put((src, seq), seq));
        }
        assert_eq!(memo.len(), RREQ_DEDUP_CAP - 1);
        assert!(memo.put((src, 2 * half - 1), 0), "second rotation");
        assert_eq!(memo.get(&(src, 0)), None, "oldest generation dropped");
        assert_eq!(memo.get(&(src, half)), Some(half));
        // An update lands in the current generation and wins the lookup.
        assert!(!memo.put((src, half), 99));
        assert_eq!(memo.get(&(src, half)), Some(99));
        assert!(memo.len() <= RREQ_DEDUP_CAP);
    }

    /// Addresses that exist only at run time — a CGA re-rolled after a
    /// DAD collision, a source from outside the build — are keys like
    /// any other: the same `seq` from two of them is two floods.
    #[test]
    fn runtime_only_sources_with_the_same_seq_are_remembered_separately() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut host = HostIdentity::generate(512, &mut rng);
        let first = host.ip();
        host.reroll(&mut rng);
        let (rerolled, foreign) = (host.ip(), far(0x77));
        assert_ne!(first, rerolled);

        let mut memo = FloodMemo::default();
        assert!(!memo.put((rerolled, 5), 1));
        assert_eq!(memo.get(&(foreign, 5)), None);
        assert_eq!(memo.get(&(first, 5)), None);
        assert!(!memo.put((foreign, 5), 2));
        assert_eq!(memo.get(&(rerolled, 5)), Some(1));
        assert_eq!(memo.get(&(foreign, 5)), Some(2));

        let (mut engine, relay) = alone(PlainDsrNode::new(PlainConfig::default(), far(0)));
        engine.with_protocol::<PlainDsrNode, _>(relay, |n, _| {
            let (dsr, stats) = (n.dsr_mut(), &mut NodeStats::default());
            assert!(dsr.first_sighting(stats, rerolled, Seq(5)));
            assert!(!dsr.already_seen(&foreign, Seq(5)));
            assert!(dsr.first_sighting(stats, foreign, Seq(5)));
            assert!(!dsr.first_sighting(stats, rerolled, Seq(5)));
            assert!(!dsr.first_sighting(stats, foreign, Seq(5)));
            assert!(dsr.already_seen(&rerolled, Seq(5)) && dsr.already_seen(&foreign, Seq(5)));
        });
    }

    /// `node` alone in an engine, run long enough for a secure node to
    /// finish DAD.
    fn alone<P: Protocol + 'static>(node: P) -> (Engine, NodeId) {
        let mut engine = Engine::new(EngineConfig::default());
        let node = engine.add_node(Box::new(node), Pos::new(0.0, 0.0), Mobility::Static);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        (engine, node)
    }

    /// Deliver `frame` to `node`; how many frames it transmitted in
    /// response (a relayed flood or an answer is one).
    fn hear<P: NodeApi>(engine: &mut Engine, node: NodeId, frame: &[u8]) -> u64 {
        let sent = |e: &Engine| e.protocol_as::<P>(node).node_stats()[Counter::CtlTxMsgs];
        let before = sent(engine);
        engine.with_protocol::<P, _>(node, |n, ctx| n.on_frame(ctx, node, frame));
        sent(engine) - before
    }

    fn far(i: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, i])
    }

    /// A spliced relay counts and traces as its encoded copy would.
    #[test]
    fn a_flood_header_counts_as_its_message() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let src = HostIdentity::generate(512, &mut rng);
        let floods = [
            Message::Areq(Areq {
                sip: far(1),
                seq: Seq(1),
                dn: None,
                ch: Challenge(2),
                rr: RouteRecord::new(),
            }),
            Message::Rreq(Rreq {
                sip: src.ip(),
                dip: far(2),
                seq: Seq(1),
                srr: SecureRouteRecord::new(),
                src_proof: src.prove(b"src"),
            }),
            Message::PlainRreq(PlainRreq {
                sip: far(1),
                dip: far(2),
                seq: Seq(1),
                rr: RouteRecord::new(),
            }),
        ];
        for msg in floods {
            let flood = msg.flood_header().expect("a flooded kind");
            assert_eq!(
                TxKind::of_flood(flood.kind),
                TxKind::of(&msg),
                "{}",
                msg.kind()
            );
        }
    }

    #[test]
    fn ten_thousand_distinct_floods_leave_a_plain_relay_under_the_cap() {
        let (mut engine, relay) = alone(PlainDsrNode::new(PlainConfig::default(), far(0)));
        let flood = |seq: u64| {
            let rreq = PlainRreq {
                sip: far(1),
                dip: far(2),
                seq: Seq(seq),
                rr: RouteRecord::new(),
            };
            Envelope::broadcast(far(1), Message::PlainRreq(rreq)).encode()
        };
        for seq in 1..=10_000 {
            assert_eq!(hear::<PlainDsrNode>(&mut engine, relay, &flood(seq)), 1);
        }
        let stats = engine.protocol_as::<PlainDsrNode>(relay).stats();
        assert!(stats[Counter::RouteRreqDedupRotations] >= 4);
        // Both generations answer the allocation-free peek path.
        let older = 10_000 - RREQ_DEDUP_CAP as u64 / 2;
        for seq in [10_000, older] {
            let dsr = engine.protocol_as::<PlainDsrNode>(relay).dsr();
            assert!(dsr.seen_rreqs.len() <= RREQ_DEDUP_CAP);
            assert!(dsr.already_seen(&far(1), Seq(seq)));
            let relayed = hear::<PlainDsrNode>(&mut engine, relay, &flood(seq));
            assert_eq!(relayed, 0, "a remembered flood stays suppressed");
        }
        let relayed = hear::<PlainDsrNode>(&mut engine, relay, &flood(1));
        assert_eq!(relayed, 1, "the oldest was forgotten");
    }

    /// A transmitter that writes a fresh source address into every
    /// frame: the listener's neighbor cache stays at its cap, counts
    /// what it dropped, and still resolves the neighbour heard last.
    #[test]
    fn spoofed_source_addresses_leave_a_relay_under_the_neighbor_cap() {
        use crate::neighbor::NEIGHBOR_CAP;
        let (mut engine, relay) = alone(PlainDsrNode::new(PlainConfig::default(), far(0)));
        let copy_from = |src_ip: Ipv6Addr| {
            let rreq = PlainRreq {
                sip: far(1),
                dip: far(2),
                seq: Seq(1),
                rr: RouteRecord::new(),
            };
            Envelope::broadcast(src_ip, Message::PlainRreq(rreq)).encode()
        };
        // The first copy is decoded and relayed, the rest take the
        // duplicate-flood peek: both paths learn the transmitter.
        for i in 0..10 * NEIGHBOR_CAP {
            hear::<PlainDsrNode>(&mut engine, relay, &copy_from(far(10 + i as u16)));
        }
        hear::<PlainDsrNode>(&mut engine, relay, &copy_from(far(5)));
        let now = engine.now();
        let neighbors = &engine.protocol_as::<PlainDsrNode>(relay).dsr().neighbors;
        assert_eq!(neighbors.len(), NEIGHBOR_CAP);
        assert_eq!(neighbors.lookup(&far(5), now), Some(relay));
        assert_eq!(
            engine.protocol_as::<PlainDsrNode>(relay).stats()[Counter::NeighEvicted],
            9 * NEIGHBOR_CAP as u64 + 1
        );
    }

    #[test]
    fn ten_thousand_distinct_floods_leave_a_secure_node_under_both_caps() {
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let cfg = ProtocolConfig {
            crypto_backend: BackendKind::HashSig,
            rrep_multi: 1,
            ..ProtocolConfig::default()
        };
        let dns_pk = HostIdentity::generate(512, &mut rng).public().clone();
        let node = SecureNode::new(cfg, dns_pk, None, &mut rng);
        let mut src = HostIdentity::generate(512, &mut rng);
        src.set_backend(node.crypto_backend().clone());
        let (mut engine, node) = alone(node);
        let me = engine.protocol_as::<SecureNode>(node).ip();
        // Transmitted by a stranger, so the answer's last hop is a
        // link broadcast and needs no neighbour.
        let flood = |dip: Ipv6Addr, seq: u64| {
            let rreq = Rreq {
                sip: src.ip(),
                dip,
                seq: Seq(seq),
                srr: SecureRouteRecord::new(),
                src_proof: src.prove(&sigdata::rreq_src(&src.ip(), Seq(seq))),
            };
            Envelope::broadcast(far(3), Message::Rreq(rreq)).encode()
        };
        // As a relay (`seen_rreqs`) and as the destination
        // (`answered_rreqs`): 10k distinct floods each.
        for dip in [far(2), me] {
            for seq in 1..=10_000 {
                assert_eq!(hear::<SecureNode>(&mut engine, node, &flood(dip, seq)), 1);
            }
            let again = hear::<SecureNode>(&mut engine, node, &flood(dip, 10_000));
            assert_eq!(again, 0, "a remembered flood stays suppressed");
            let again = hear::<SecureNode>(&mut engine, node, &flood(dip, 1));
            assert_eq!(again, 1, "the oldest was forgotten");
        }
        let n = engine.protocol_as::<SecureNode>(node);
        assert!(n.dsr().seen_rreqs.len() <= RREQ_DEDUP_CAP);
        assert!(n.answered_rreqs_len() <= RREQ_DEDUP_CAP);
    }
}
