//! One shard — the state that owns a band of nodes — and the per-event
//! dispatch core every executor runs.
//!
//! [`Shard::dispatch`] is the only place an event becomes a protocol
//! callback: the liveness/started gates, the `phy.*` receive counters,
//! the protocol check-out, the [`Ctx`] a callback sees, timer
//! arm/cancel and the [`transmit_into`] fan-out all live here, once. It
//! is parameterised by nothing but a [`Sink`] — where the callback's
//! outputs go. `Single` has exactly one shard; `Sharded(K)` has K.

use super::HotNode;
use crate::ctx::{Ctx, CtxOut, NodeId, Protocol, Samples};
use crate::link::{transmit_into, LinkEnv};
use crate::metrics::{LinkCounter, Metrics};
use crate::mobility::MobilityState;
use crate::queue::{Event, EventQueue, TimerTable};
use crate::time::SimTime;
use crate::trace::Tracer;
use crate::wheel::TimerWheel;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// Cold per-node state: touched once per dispatched callback (protocol)
/// or once per mobility tick (mobility), never in the candidate-filter
/// loop. Lives in its owner shard's slab.
///
/// Stored struct-of-arrays: the AoS layout interleaved a ~250-byte
/// stride of protocol box + mobility + RNG between consecutive
/// `started` flags, so the per-dispatch liveness check dragged a cache
/// line of cold state per node. Split into parallel vectors, the
/// `started` column is one byte per node and the RNG/handle columns
/// only fault in when a callback actually fires.
#[derive(Default)]
pub(super) struct NodeSlab {
    pub(super) protos: Vec<Option<Box<dyn Protocol>>>,
    pub(super) mobility: Vec<MobilityState>,
    /// Per-node deterministic streams: protocol draws, transmit
    /// loss/delay draws (as sender), and mobility steps.
    pub(super) rngs: Vec<ChaCha12Rng>,
    /// Checked on every dispatched delivery/timer — the hot column.
    pub(super) started: Vec<bool>,
    /// Next local timer-handle counters (namespaced by node id in
    /// [`Ctx::set_timer`]).
    next_handles: Vec<u64>,
}

impl NodeSlab {
    /// Append a node; returns its slab index.
    pub(super) fn push(
        &mut self,
        proto: Box<dyn Protocol>,
        mobility: MobilityState,
        rng: ChaCha12Rng,
    ) -> usize {
        self.protos.push(Some(proto));
        self.mobility.push(mobility);
        self.rngs.push(rng);
        self.started.push(false);
        self.next_handles.push(0);
        self.protos.len() - 1
    }
}

/// Recycled frame buffers, and the emptied `Arc` shells that held
/// them, kept at most this many deep per shard, each. A 3,000-host
/// plain flood fills all 1,024; a cap of 4,096 allocated no less.
/// Frames are ~100–300 bytes.
const FRAME_POOL_CAP: usize = 1024;

/// Marks a provisional sequence number (assigned inside a window,
/// resolved at replay). Real sequences would need 2^63 events to get
/// here; `max_events` caps runs ten orders of magnitude earlier.
pub(super) const PROV_BIT: u64 = 1 << 63;

/// One dispatched callback in a shard's window log: its `(time, seq)`
/// sort key (seq may be provisional) plus cumulative end offsets into
/// the shard's trace/sample/push logs. A record's range starts where
/// the previous record's ended; no-op pops (cancelled timers, dead
/// receivers) produce no record and no log entries.
pub(super) struct Rec {
    pub(super) time: SimTime,
    pub(super) seq: u64,
    pub(super) trace_end: usize,
    pub(super) sample_end: usize,
    pub(super) push_end: usize,
}

/// A push a window callback deferred to replay (where it receives its
/// real sequence number and is routed to its owner queue).
pub(super) enum PushOp {
    /// A timer already pushed into the shard's `in_window` queue under
    /// a provisional sequence (it fires inside this same window);
    /// replay only records the resolved sequence.
    Provisional,
    Ev(SimTime, Event),
}

/// What a shard's window callbacks logged for replay (its trace lines
/// sit in the shard's tracer). Taken out of the shard while the engine
/// replays it, so pushes can be routed into *other* shards' queues
/// while this one's log is read.
#[derive(Default)]
pub(super) struct WindowLog {
    pub(super) recs: Vec<Rec>,
    pub(super) pushes: Vec<PushOp>,
    pub(super) samples: Vec<(&'static str, f64)>,
    /// Replay-resolved real sequences of this window's provisional
    /// pushes, indexed by provisional counter.
    pub(super) prov_seq: Vec<u64>,
}

/// Where one dispatch's outputs go — the only thing the executors do
/// differently per event.
pub(super) enum Sink<'a> {
    /// Serial contexts (`Single` ticks, barrier ticks, `with_protocol`):
    /// counters, samples and trace lines hit the global collectors at
    /// once; scheduled events wait in [`Shard::out`] for the engine to
    /// push under fresh global sequence numbers before the next dispatch.
    Direct {
        metrics: &'a mut Metrics,
        tracer: &'a mut Tracer,
    },
    /// Inside a parallel window ending (exclusively) at `w_end`, for
    /// the event popped under `seq`: everything is logged on the shard
    /// and replayed in merged `(time, seq)` order at the epoch end.
    Window { w_end: SimTime, seq: u64 },
}

impl Sink<'_> {
    /// The counter table this dispatch feeds: the global one, or the
    /// shard's (counters are order-insensitive, folded per epoch).
    fn metrics<'s>(&'s mut self, shard: &'s mut Metrics) -> &'s mut Metrics {
        match self {
            Sink::Direct { metrics, .. } => metrics,
            Sink::Window { .. } => shard,
        }
    }
}

/// One shard: the event queue, timer table, and node slabs of the nodes
/// whose initial position falls in its field band, plus the window logs
/// and scratch buffers its worker thread uses.
pub(super) struct Shard {
    pub(super) queue: TimerWheel,
    /// Timers set inside a window to fire inside it, keyed by
    /// provisional sequence; empty between windows. A cursor-free heap:
    /// `collect` has already moved the wheel's cursor to the window's
    /// last tick, past where these land.
    pub(super) in_window: EventQueue,
    pub(super) timers: TimerTable,
    pub(super) nodes: NodeSlab,
    /// Order-insensitive counters accumulated during windows, folded
    /// into the global metrics at each replay.
    pub(super) metrics: Metrics,
    /// Trace lines recorded during windows, moved to the global tracer
    /// in merge order at replay.
    pub(super) tracer: Tracer,
    pub(super) log: WindowLog,
    /// Provisional sequences handed out in the current window.
    pub(super) prov_ctr: u64,
    /// Window pops not yet folded into `events_processed`.
    pub(super) pops: u64,
    /// The tick's (Single) or window's (Sharded) due events, popped by
    /// [`Shard::collect`] and awaiting dispatch. Empty in between.
    pub(super) batch: Vec<(SimTime, u64, Event)>,
    /// Events the last callback scheduled: timers, then sends, each in
    /// command order. [`Sink::Direct`]: drained by the engine after
    /// every dispatch; [`Sink::Window`]: logged before `fire` returns.
    pub(super) out: Vec<(SimTime, Event)>,
    frame_pool: Vec<Vec<u8>>,
    /// Emptied `Arc`s of delivered frames, refilled by [`Shard::fire`]
    /// instead of allocating a fresh one per transmission.
    frame_shells: Vec<Arc<Vec<u8>>>,
    bcast_scratch: Vec<NodeId>,
    ctx_scratch: CtxOut,
}

impl Shard {
    pub(super) fn new(trace: bool) -> Self {
        Shard {
            queue: TimerWheel::new(),
            in_window: EventQueue::new(),
            timers: TimerTable::new(),
            nodes: NodeSlab::default(),
            metrics: Metrics::new(),
            tracer: Tracer::new(trace),
            log: WindowLog::default(),
            prov_ctr: 0,
            pops: 0,
            batch: Vec::new(),
            out: Vec::new(),
            frame_pool: Vec::new(),
            frame_shells: Vec::new(),
            bcast_scratch: Vec::new(),
            ctx_scratch: CtxOut::default(),
        }
    }

    /// Pop this shard's events due at or before `last` into `batch`
    /// *without dispatching* — the first half of every tick (`Single`)
    /// and window (`Sharded`). With `prefetch` (a tick hook is
    /// installed) every delivery to a live, started node also gets the
    /// speculative [`Protocol::prefetch_frame`] pass; the hook runs
    /// between this and dispatch. Liveness is rechecked at dispatch —
    /// prefetching a frame whose receiver dies mid-window only wastes a
    /// backend op (prefetch has no observable effects by contract).
    pub(super) fn collect(
        &mut self,
        last: SimTime,
        prefetch: bool,
        hot: &[HotNode],
        local: &[u32],
    ) {
        debug_assert!(self.batch.is_empty(), "batch not drained");
        while let Some((time, seq, ev)) = self.queue.pop_due_seq(last) {
            if let Event::Deliver { to, src, bytes } = &ev {
                if prefetch && self.is_up(*to, hot, local) {
                    if let Some(p) = self.nodes.protos[local[to.0] as usize].as_deref() {
                        p.prefetch_frame(*src, bytes);
                    }
                }
            }
            self.batch.push((time, seq, ev));
        }
    }

    /// Alive and past its `on_start`: may this node run callbacks?
    fn is_up(&self, node: NodeId, hot: &[HotNode], local: &[u32]) -> bool {
        hot[node.0].alive && self.nodes.started[local[node.0] as usize]
    }

    /// Dispatch one already-popped event of a node this shard owns, at
    /// `time`, against the world `env` (frozen for the duration);
    /// `local` maps global node ids to slab indices. Shared by every
    /// executor — the `Single` loop, barrier ticks, and the parallel
    /// windows — so they cannot drift.
    pub(super) fn dispatch(
        &mut self,
        time: SimTime,
        ev: Event,
        env: &LinkEnv<'_>,
        local: &[u32],
        mut sink: Sink<'_>,
    ) {
        match ev {
            Event::Start(id) => {
                let li = local[id.0] as usize;
                if !env.hot[id.0].alive || self.nodes.started[li] {
                    return;
                }
                self.nodes.started[li] = true;
                self.fire(time, id, env, local, sink, |p, ctx| p.on_start(ctx));
            }
            Event::Deliver { to, src, bytes } => {
                let up = self.is_up(to, env.hot, local);
                let metrics = sink.metrics(&mut self.metrics);
                if !up {
                    metrics.count(LinkCounter::RxDroppedDead, 1);
                    self.recycle_frame(bytes);
                    return;
                }
                metrics.count(LinkCounter::RxFrames, 1);
                metrics.count(LinkCounter::RxBytes, bytes.len() as u64);
                self.fire(time, to, env, local, sink, |p, ctx| {
                    p.on_frame(ctx, src, &bytes)
                });
                self.recycle_frame(bytes);
            }
            Event::Timer { node, handle, tag } => {
                if !self.timers.should_fire(handle) || !self.is_up(node, env.hot, local) {
                    return;
                }
                self.fire(time, node, env, local, sink, |p, ctx| p.on_timer(ctx, tag));
            }
            Event::LinkFailure { node, to, bytes } => {
                if self.is_up(node, env.hot, local) {
                    sink.metrics(&mut self.metrics)
                        .count(LinkCounter::LinkFailures, 1);
                    self.fire(time, node, env, local, sink, |p, ctx| {
                        p.on_link_failure(ctx, to, &bytes)
                    });
                }
                self.recycle_frame(bytes);
            }
            Event::MobilityTick | Event::Kill(_) => {
                unreachable!("events with global effects never reach a shard")
            }
        }
    }

    /// Run one protocol callback of `node` and apply the commands it
    /// buffered: arm and cancel its timers, fan its sends out through
    /// [`transmit_into`], and hand the resulting events to `sink`.
    pub(super) fn fire<R>(
        &mut self,
        time: SimTime,
        node: NodeId,
        env: &LinkEnv<'_>,
        local: &[u32],
        sink: Sink<'_>,
        f: impl FnOnce(&mut dyn Protocol, &mut Ctx) -> R,
    ) -> R {
        let li = local[node.0] as usize;
        let mut proto = self.nodes.protos[li]
            .take()
            .expect("re-entrant protocol call");
        let (metrics, tracer, window) = match sink {
            Sink::Direct { metrics, tracer } => (metrics, tracer, None),
            Sink::Window { w_end, seq } => {
                (&mut self.metrics, &mut self.tracer, Some((w_end, seq)))
            }
        };
        let samples = match window {
            None => Samples::Series(&mut metrics.series),
            Some(_) => Samples::Log(&mut self.log.samples),
        };
        let cmds = &mut self.ctx_scratch;
        let r = f(
            proto.as_mut(),
            &mut Ctx {
                node,
                now: time,
                out: &mut *cmds,
                rng: &mut self.nodes.rngs[li],
                samples,
                tracer,
                next_handle: &mut self.nodes.next_handles[li],
                frame_pool: &mut self.frame_pool,
            },
        );
        self.nodes.protos[li] = Some(proto);
        // Arm before cancelling: a callback may set a timer and cancel
        // it in the same batch, and the timer table drops cancels for
        // handles it has never seen armed. The command buffers are
        // drained but keep their capacity for the next callback.
        for (delay, handle, tag) in cmds.timers.drain(..) {
            self.timers.arm(handle);
            let timer = Event::Timer { node, handle, tag };
            self.out.push((time + delay, timer));
        }
        for h in cmds.cancels.drain(..) {
            self.timers.cancel(h);
        }
        for (dst, bytes) in cmds.sends.drain(..) {
            let mut frame = self.frame_shells.pop().unwrap_or_default();
            match Arc::get_mut(&mut frame) {
                Some(slot) => *slot = bytes,
                // Unreachable: a pooled shell has no other reference.
                None => frame = Arc::new(bytes),
            }
            let rng = &mut self.nodes.rngs[li];
            let cand = &mut self.bcast_scratch;
            transmit_into(
                env,
                time,
                node,
                dst,
                frame,
                rng,
                metrics,
                cand,
                &mut self.out,
            );
        }
        if let Some((w_end, seq)) = window {
            for (at, ev) in self.out.drain(..) {
                if at >= w_end {
                    self.log.pushes.push(PushOp::Ev(at, ev));
                    continue;
                }
                // Only the node's own timers may land inside the
                // window: every transmission is delivered at least the
                // lookahead after it is sent. Such a timer is queued at
                // once under a provisional sequence so this window sees
                // it; it sorts after every pre-window event of its
                // tick, which is where its real sequence lands too.
                assert!(
                    matches!(ev, Event::Timer { .. }),
                    "lookahead violation: callback (time {time:?}, seq {seq}, node {}) sent a \
                     frame landing at {at:?}, inside its window (ends {w_end:?})",
                    node.0
                );
                self.in_window.push_seq(at, PROV_BIT | self.prov_ctr, ev);
                self.prov_ctr += 1;
                self.log.pushes.push(PushOp::Provisional);
            }
            self.log.recs.push(Rec {
                time,
                seq,
                trace_end: self.tracer.events().len(),
                sample_end: self.log.samples.len(),
                push_end: self.log.pushes.len(),
            });
        }
        r
    }

    /// Once this was a delivered frame's last outstanding reference
    /// (the broadcast fan-out is fully dispatched), return its buffer
    /// to the pool and keep the emptied `Arc` beside it: the next
    /// [`Ctx::frame_buf`] hands the buffer back out, and the next
    /// transmission refills the shell.
    fn recycle_frame(&mut self, mut bytes: Arc<Vec<u8>>) {
        let Some(buf) = Arc::get_mut(&mut bytes) else {
            return;
        };
        if self.frame_pool.len() < FRAME_POOL_CAP {
            let mut buf = std::mem::take(buf);
            buf.clear();
            self.frame_pool.push(buf);
            if self.frame_shells.len() < FRAME_POOL_CAP {
                self.frame_shells.push(bytes);
            }
        }
    }
}
