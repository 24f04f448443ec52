//! The discrete-event engine.
//!
//! Deterministic whatever the executor: a global `(time, insertion
//! sequence)` dispatch order, per-node RNG streams, and node protocols
//! that interact with the world only through [`Ctx`]. The two executors
//! ([`EngineConfig::exec`]) share all of the dispatch code — every
//! event of every executor becomes a callback in one function,
//! `Shard::dispatch` (`shard.rs`), told only where its outputs go —
//! and differ in ordering alone:
//!
//! * [`ExecMode::Single`] (`single.rs`): one shard, one queue, popped a
//!   tick at a time — the differential oracle. Outputs go straight
//!   into the queue under fresh global sequence numbers;
//! * [`ExecMode::Sharded`]\(K\) (`sharded.rs`): the field is split into
//!   K contiguous x-bands; each shard owns the event queue, timer
//!   table, and protocol slabs of its nodes and runs on scoped `rayon`
//!   workers under conservative synchronization (see below), logging
//!   its outputs for a serial replay. Same-seed runs are byte-identical
//!   to `Single` — traces, metrics, and event counts — which
//!   `tests/determinism.rs` enforces at scenario level and `exhibits`
//!   at S2 scale.
//!
//! Both run the same tick: collect the due events (`Shard::collect`),
//! run the tick hook if one is installed
//! ([`Engine::set_tick_hook`]), dispatch. This file holds the
//! [`Engine`] itself: configuration, node lifecycle, the public API,
//! and the serial dispatch path (`Single` ticks, barrier ticks,
//! [`Engine::with_protocol`]) that wraps the shared core.
//!
//! Coarser parallelism (independent simulation cells on a rayon pool)
//! still lives one level up in [`crate::runner`].
//!
//! ## How sharding keeps the single-threaded universe
//!
//! * **Lookahead.** Every transmission is delivered at least
//!   `radio.base_delay` after it is sent (`RadioConfig::sample_delay`
//!   can only add to the base), so inside a window of that length a
//!   shard can dispatch its own events knowing no other shard can
//!   inject new work into it. Each epoch processes the half-open
//!   window `[t, t+lookahead)` clipped to the next barrier event and
//!   the run horizon.
//! * **Epoch barrier.** Events with global effects — mobility ticks
//!   (every node moves, the spatial grid mutates) and kills — live in
//!   a separate barrier queue and are dispatched serially, merged with
//!   all shard queues in `(time, seq)` order. Between barriers the
//!   hot slab (positions, liveness) and grid are frozen, so shard
//!   workers share them read-only.
//! * **Deterministic merge.** The engine owns one global sequence
//!   counter. During a window a shard *logs* its would-be pushes and
//!   side effects (trace lines, metric samples) per callback; at the
//!   epoch end the per-shard logs are replayed serially in merged
//!   `(time, seq)` order, assigning real sequence numbers to new
//!   events exactly as the single-threaded loop would have. Timers a
//!   callback schedules inside its own window are queued immediately
//!   (in the shard's `in_window` heap — the wheel's cursor has already
//!   passed them) under a provisional sequence (they sort after every
//!   pre-window event of the same tick, which is where their real
//!   sequence lands too) and resolved at replay. Counters are
//!   order-insensitive and folded per epoch.
//! * **Per-node streams.** RNG draws (protocol, transmit, mobility)
//!   come from a per-node ChaCha stream seeded from `(cfg.seed, node
//!   id)`, and timer handles are namespaced per node — so the order
//!   two *different* nodes dispatch in never changes what either
//!   draws. [`Engine::rng`] stays a separate harness stream for
//!   construction-time draws.
//!
//! ## Link-layer semantics
//!
//! * **Broadcast** frames reach every alive node within radio range, each
//!   reception independently subject to the configured loss probability.
//! * **Unicast** frames model a MAC with ARQ (802.11-style): delivery is
//!   reliable while the peer is alive and in range; if it is not, the
//!   sender gets an [`Protocol::on_link_failure`] callback — this is the
//!   trigger for the protocol's RERR path.
//!
//! ## Channel & spatial index
//!
//! Receiver lookup is a uniform spatial grid with cell size
//! `radio.max_range()`, O(density) per broadcast. Candidates are always
//! visited in ascending [`NodeId`] order with liveness/range filters
//! ahead of any RNG draw, so a one-cell grid — the linear scan — yields
//! the same universe under the same seed (the unit tests' oracle).
//!
//! ## Event store
//!
//! Every queue the engine pops — each shard's and the barrier's — is a
//! `crate::wheel::TimerWheel`; the only binary heap is a shard's
//! in-window store, which is also the reference the wheel is tested
//! against.

pub use crate::ctx::{Ctx, LinkDst, NodeId, Protocol, TimerHandle};

mod shard;
mod sharded;
mod single;

use crate::geom::{Field, Pos};
use crate::grid::SpatialGrid;
use crate::link::LinkEnv;
use crate::metrics::{LinkCounter, Metrics};
use crate::mobility::{Mobility, MobilityState};
use crate::queue::Event;
use crate::radio::RadioConfig;
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;
use crate::wheel::TimerWheel;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use shard::{Shard, Sink};

/// Which executor runs the event loop (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// One queue, one thread — the differential oracle.
    Single,
    /// K field-band shards on scoped worker threads, byte-identical to
    /// `Single` by construction.
    Sharded(usize),
}

impl ExecMode {
    /// Stable lowercase name, as serialized into `RunReport::to_json`.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Single => "single",
            ExecMode::Sharded(_) => "sharded",
        }
    }

    /// Number of shards this mode runs (1 for `Single`).
    pub fn shard_count(self) -> usize {
        match self {
            ExecMode::Single => 1,
            ExecMode::Sharded(k) => k,
        }
    }
}

fn parse_exec(v: &str) -> Option<ExecMode> {
    if v == "single" {
        return Some(ExecMode::Single);
    }
    let k: usize = v.strip_prefix("sharded:")?.parse().ok()?;
    (k >= 1).then_some(ExecMode::Sharded(k))
}

impl Default for ExecMode {
    /// `MANET_EXEC` env knob (`single` | `sharded:K`), read once — the
    /// CI matrix uses it to run the whole test suite under each
    /// executor. Defaults to `Single`; an unparseable value panics
    /// rather than silently testing the wrong mode.
    fn default() -> Self {
        static MODE: std::sync::OnceLock<ExecMode> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("MANET_EXEC") {
            Err(_) => ExecMode::Single,
            Ok(v) => parse_exec(&v)
                .unwrap_or_else(|| panic!("invalid MANET_EXEC={v:?} (want single|sharded:K)")),
        })
    }
}

/// Hot per-node state, packed into one global slab so the broadcast
/// delivery filter (position + liveness + join check per candidate)
/// touches a few bytes per node instead of dragging the protocol box
/// through the cache. Frozen between barriers, so shard workers read it
/// lock-free.
pub(crate) struct HotNode {
    pub(crate) pos: Pos,
    pub(crate) join_at: SimTime,
    pub(crate) alive: bool,
}

/// splitmix64 finalizer over `(seed, node id)`: decorrelates per-node
/// streams even for adjacent seeds/ids.
fn node_stream_seed(seed: u64, id: usize) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub field: Field,
    pub radio: RadioConfig,
    /// Mobility integration step.
    pub mobility_tick: SimDuration,
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Record a full event trace?
    pub trace: bool,
    /// Hard cap on processed events (runaway guard).
    pub max_events: u64,
    /// Executor (see the module docs); `Single` unless set here, via
    /// [`crate::runner`]-level builders, or the `MANET_EXEC` env knob.
    pub exec: ExecMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            field: Field::new(1000.0, 1000.0),
            radio: RadioConfig::default(),
            mobility_tick: SimDuration::from_millis(200),
            seed: 1,
            trace: false,
            max_events: 50_000_000,
            exec: ExecMode::default(),
        }
    }
}

/// The discrete-event simulator.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    shards: Vec<Shard>,
    /// Kill / mobility-tick events (global effects) in sharded mode;
    /// unused under `Single`, where everything lives in shard 0's queue.
    barrier: TimerWheel,
    /// Global node id → owner shard.
    owner: Vec<u32>,
    /// Global node id → index into the owner shard's `nodes` slab.
    local: Vec<u32>,
    /// Hot slab, indexed by global node id (see [`HotNode`]).
    pub(crate) hot: Vec<HotNode>,
    now: SimTime,
    /// The global insertion-sequence stream; every queued event's
    /// tiebreak key, identical across executors.
    seq: u64,
    /// Harness stream (construction-time draws: keys, placements,
    /// churn). Run-time draws use the per-node streams.
    rng: ChaCha12Rng,
    metrics: Metrics,
    tracer: Tracer,
    /// Receiver index: positions of the live nodes.
    pub(crate) grid: SpatialGrid,
    events_processed: u64,
    /// Every tick (Single) or parallel window (Sharded) runs as
    /// collect → dispatch: the events due now are buffered, then
    /// dispatched in unchanged `(time, seq)` order. When a hook is set,
    /// collection also gives every pending delivery a speculative
    /// [`Protocol::prefetch_frame`] pass and the hook runs once between
    /// the two halves (the batch-verification drain); `None` (the
    /// default) skips both and nothing else.
    tick_hook: Option<Box<dyn FnMut() + Send>>,
    /// Wall-clock time spent inside `run_until` — the denominator of
    /// the machine-dependent `events/sec (engine)` rate the scale
    /// exhibits and the CI perf gate report.
    busy: std::time::Duration,
    mobility_scheduled: bool,
    /// Any node with a non-static mobility model? (Cached: models are
    /// fixed at `add_node` time.)
    has_mobile: bool,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Self {
        let k = cfg.exec.shard_count();
        assert!(k >= 1, "ExecMode::Sharded requires at least one shard");
        if let ExecMode::Sharded(_) = cfg.exec {
            assert!(
                cfg.radio.base_delay > SimDuration::ZERO,
                "sharded execution requires a positive base_delay (the lookahead)"
            );
        }
        let grid = SpatialGrid::new(&cfg.field, cfg.radio.max_range());
        Engine {
            shards: (0..k).map(|_| Shard::new(cfg.trace)).collect(),
            barrier: TimerWheel::new(),
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            tracer: Tracer::new(cfg.trace),
            cfg,
            owner: Vec::new(),
            local: Vec::new(),
            hot: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            metrics: Metrics::new(),
            grid,
            events_processed: 0,
            tick_hook: None,
            busy: std::time::Duration::ZERO,
            mobility_scheduled: false,
            has_mobile: false,
        }
    }

    /// Owner shard for a position: its contiguous x-band of the field.
    fn shard_of_pos(&self, pos: &Pos) -> usize {
        let k = self.shards.len();
        let w = self.cfg.field.width;
        let x = pos.x.clamp(0.0, w);
        (((x / w) * k as f64) as usize).min(k - 1)
    }

    /// Assign `event` the next global sequence number and route it to
    /// the queue that owns it: its node's shard, or for the events with
    /// global effects the barrier queue (shard 0 under `Single` — there
    /// is no parallel phase to protect).
    fn push_event(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        let queue = match (event.owner_node(), self.cfg.exec) {
            (Some(node), _) => &mut self.shards[self.owner[node.0] as usize].queue,
            (None, ExecMode::Single) => &mut self.shards[0].queue,
            (None, ExecMode::Sharded(_)) => &mut self.barrier,
        };
        queue.push_seq(at, seq, event);
    }

    /// Add a node joining at t=0.
    pub fn add_node(&mut self, proto: Box<dyn Protocol>, pos: Pos, mobility: Mobility) -> NodeId {
        self.add_node_at(proto, pos, mobility, SimTime::ZERO)
    }

    /// Add a node that joins (runs `on_start`) at `join_at`. Staggered
    /// joins drive the bootstrap experiments (E1, E5). Panics if
    /// `join_at` is already in the past.
    pub fn add_node_at(
        &mut self,
        proto: Box<dyn Protocol>,
        pos: Pos,
        mobility: Mobility,
        join_at: SimTime,
    ) -> NodeId {
        let id = NodeId(self.hot.len());
        assert!(
            join_at >= self.now,
            "add_node_at: node {} would join at {join_at:?}, before now {:?}",
            id.0,
            self.now
        );
        if !mobility.is_static() {
            self.has_mobile = true;
        }
        let sh = self.shard_of_pos(&pos);
        self.owner.push(sh as u32);
        let rng = ChaCha12Rng::seed_from_u64(node_stream_seed(self.cfg.seed, id.0));
        let li = self.shards[sh]
            .nodes
            .push(proto, MobilityState::new(mobility), rng);
        self.local.push(li as u32);
        self.hot.push(HotNode {
            pos,
            join_at,
            alive: true,
        });
        self.grid.insert(id, &pos);
        self.push_event(join_at, Event::Start(id));
        id
    }

    /// Schedule a node's death (failure injection). Panics if `at` is
    /// already in the past.
    pub fn kill_at(&mut self, node: NodeId, at: SimTime) {
        assert!(
            at >= self.now,
            "kill_at: node {} would die at {at:?}, before now {:?}",
            node.0,
            self.now
        );
        self.push_event(at, Event::Kill(node));
    }

    /// Current position of a node.
    pub fn position(&self, node: NodeId) -> Pos {
        self.hot[node.0].pos
    }

    /// Teleport a node (scripted topology changes in tests). Shard
    /// ownership stays with the initial band — ownership is a work
    /// partition, not a correctness constraint.
    pub fn set_position(&mut self, node: NodeId, pos: Pos) {
        let pos = self.cfg.field.clamp(pos);
        self.hot[node.0].pos = pos;
        self.grid.relocate(node, &pos);
    }

    /// Is the node alive?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.hot[node.0].alive
    }

    /// Number of nodes (alive or not).
    pub fn node_count(&self) -> usize {
        self.hot.len()
    }

    /// Events dispatched so far — the wall-clock-independent measure of
    /// how much simulation work a run did (events/sec in the scale
    /// exhibits).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Wall-clock seconds spent inside [`Engine::run_until`] so far.
    /// `events_processed() / busy_secs()` is the engine-only throughput
    /// rate — free of scenario construction and key generation, which
    /// is what the perf-regression gate compares.
    pub fn busy_secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    /// Which executor this engine runs on.
    pub fn exec_mode(&self) -> ExecMode {
        self.cfg.exec
    }

    /// The read-only world transmissions and neighbor queries consult.
    pub(crate) fn link_env(&self) -> LinkEnv<'_> {
        LinkEnv {
            radio: &self.cfg.radio,
            hot: &self.hot,
            grid: &self.grid,
        }
    }

    /// Borrow a protocol for post-run inspection.
    ///
    /// # Panics
    /// Panics if called re-entrantly (from inside a protocol callback).
    pub fn protocol(&self, node: NodeId) -> &dyn Protocol {
        let (sh, li) = (self.owner[node.0] as usize, self.local[node.0] as usize);
        self.shards[sh].nodes.protos[li]
            .as_deref()
            .expect("protocol checked out (re-entrant access)")
    }

    /// Typed view of a node's protocol.
    pub fn protocol_as<T: 'static>(&self, node: NodeId) -> &T {
        self.protocol(node)
            .as_any()
            .downcast_ref::<T>()
            .expect("protocol type mismatch")
    }

    /// Run a protocol callback "from outside" (applications injecting
    /// work between run() calls — e.g. "node 3: start a flow to D").
    pub fn with_protocol<T: 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx) -> R,
    ) -> R {
        let now = self.now;
        self.on_owner_shard(node, |shard, env, local, sink| {
            shard.fire(now, node, env, local, sink, |p, ctx| {
                let p = p.as_any_mut().downcast_mut::<T>();
                f(p.expect("protocol type mismatch"), ctx)
            })
        })
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace (empty unless `cfg.trace`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic RNG (for harness-level draws that must stay inside
    /// the simulation's random universe).
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        &mut self.rng
    }

    /// Install the per-tick hook (see the `tick_hook` field docs). The
    /// scenario builder uses this to drain the batch verifier between
    /// collecting a tick's deliveries and dispatching them; any
    /// replacement must preserve the same contract: verdict-pure work
    /// only, no protocol side effects.
    pub fn set_tick_hook(&mut self, hook: impl FnMut() + Send + 'static) {
        self.tick_hook = Some(Box::new(hook));
    }

    /// Process events until `until` (inclusive) or the queue drains.
    pub fn run_until(&mut self, until: SimTime) {
        // lint: allow(wall-clock) — perf-gate instrumentation: busy_secs feeds the perf tables, never the event stream
        let t0 = std::time::Instant::now();
        self.ensure_mobility_tick(until);
        match self.cfg.exec {
            ExecMode::Single => self.run_single(until),
            ExecMode::Sharded(_) => self.run_sharded(until),
        }
        if self.now < until {
            self.now = until;
        }
        self.busy += t0.elapsed();
    }

    /// Run `f` on `node`'s owner shard with serial access to the world
    /// ([`Sink::Direct`]), then push the events it scheduled, in order,
    /// under fresh global sequence numbers. Every serial dispatch
    /// (`Single` ticks, barrier ticks, `with_protocol`) goes through here.
    fn on_owner_shard<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Shard, &LinkEnv<'_>, &[u32], Sink<'_>) -> R,
    ) -> R {
        let sh = self.owner[node.0] as usize;
        let env = LinkEnv {
            radio: &self.cfg.radio,
            hot: &self.hot,
            grid: &self.grid,
        };
        let sink = Sink::Direct {
            metrics: &mut self.metrics,
            tracer: &mut self.tracer,
        };
        let r = f(&mut self.shards[sh], &env, &self.local, sink);
        if !self.shards[sh].out.is_empty() {
            let mut out = std::mem::take(&mut self.shards[sh].out);
            for (at, ev) in out.drain(..) {
                self.push_event(at, ev);
            }
            self.shards[sh].out = out;
        }
        r
    }

    /// Dispatch one event at `self.now` with full serial access to the
    /// world: node-owned events go through the shared core on their
    /// owner shard, the two with global effects are handled here.
    fn dispatch_serial(&mut self, event: Event, until: SimTime) {
        if let Some(node) = event.owner_node() {
            let now = self.now;
            return self.on_owner_shard(node, |shard, env, local, sink| {
                shard.dispatch(now, event, env, local, sink)
            });
        }
        match event {
            Event::MobilityTick => {
                let dt = self.cfg.mobility_tick.as_secs_f64();
                let field = self.cfg.field;
                for i in 0..self.hot.len() {
                    let (sh, li) = (self.owner[i] as usize, self.local[i] as usize);
                    let nodes = &mut self.shards[sh].nodes;
                    let hot = &mut self.hot[i];
                    if hot.alive && nodes.started[li] {
                        let before = hot.pos;
                        nodes.mobility[li].step(&mut hot.pos, &field, dt, &mut nodes.rngs[li]);
                        if hot.pos != before {
                            self.grid.relocate(NodeId(i), &hot.pos);
                        }
                    }
                }
                self.mobility_scheduled = false;
                self.ensure_mobility_tick(until);
            }
            Event::Kill(id) => {
                self.hot[id.0].alive = false;
                self.grid.remove(id);
                self.metrics.count(LinkCounter::NodesKilled, 1);
            }
            _ => unreachable!("node-owned events were dispatched on their shard"),
        }
    }

    /// Count `n` dispatched events against the runaway guard.
    fn count_events(&mut self, n: u64) {
        self.events_processed += n;
        assert!(
            self.events_processed <= self.cfg.max_events,
            "event cap exceeded — runaway simulation"
        );
    }

    fn ensure_mobility_tick(&mut self, until: SimTime) {
        let t = self.now + self.cfg.mobility_tick;
        if self.has_mobile && !self.mobility_scheduled && t <= until {
            self.push_event(t, Event::MobilityTick);
            self.mobility_scheduled = true;
        }
    }
}

#[cfg(test)]
mod tests;
