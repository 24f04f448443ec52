//! The protocol-facing surface of the engine: node identity, frame
//! destinations, the [`Protocol`] trait, and the [`Ctx`] window through
//! which a protocol callback interacts with the world.
//!
//! Everything a protocol can do during a callback is buffered in a
//! [`CtxOut`] and applied by the engine when the callback returns, so
//! protocol code can never observe (or corrupt) engine internals
//! mid-event.

use crate::metrics::Series;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Dir, TraceEvent, Tracer};
use rand_chacha::ChaCha12Rng;
use std::any::Any;
use std::collections::BTreeMap;

/// Identifies a node (index into the engine's node table). This is the
/// *link-layer* identity; IP addresses live entirely in the protocol layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub usize);

/// Where a frame is headed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkDst {
    Broadcast,
    Unicast(NodeId),
}

/// Handle for cancelling a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(pub(crate) u64);

/// A node's behaviour. Implementations hold all protocol state; the
/// engine only knows about frames and timers.
///
/// `Send` because the sharded executor moves node slabs onto scoped
/// worker threads; protocol state is plain owned data, so this costs
/// implementations nothing.
pub trait Protocol: Send {
    /// Called once when the node joins the network.
    fn on_start(&mut self, ctx: &mut Ctx);

    /// A frame arrived from link-layer neighbor `src`.
    fn on_frame(&mut self, ctx: &mut Ctx, src: NodeId, bytes: &[u8]);

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64);

    /// A unicast frame could not be delivered (peer dead or out of range).
    /// Models the MAC-layer ACK timeout that DSR uses to detect broken
    /// links. Default: ignore.
    fn on_link_failure(&mut self, _ctx: &mut Ctx, _to: NodeId, _bytes: &[u8]) {}

    /// Speculative pass over a frame that will be delivered to this node
    /// later in the current tick/window, run *before* any of the batch's
    /// [`Protocol::on_frame`] calls. Implementations may enqueue
    /// signature triples for batch verification but MUST NOT cause any
    /// observable protocol effect: no state changes, no sends, no
    /// timers, no metrics. Takes `&self` so the no-side-effects rule is
    /// enforced by the compiler (batch queues live behind shared
    /// handles with interior mutability). A wrong or missing prefetch
    /// may only cost performance, never correctness. Default: do
    /// nothing.
    fn prefetch_frame(&self, _src: NodeId, _bytes: &[u8]) {}

    /// Downcasting support so harnesses can inspect protocol state after
    /// a run.
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Commands a protocol issues during a callback; applied by the engine
/// when the callback returns. The engine keeps one instance and reuses
/// its buffers across callbacks (drained, never dropped), so dispatch
/// allocates nothing in steady state.
#[derive(Default)]
pub(crate) struct CtxOut {
    pub(crate) sends: Vec<(LinkDst, Vec<u8>)>,
    pub(crate) timers: Vec<(SimDuration, u64, u64)>, // (delay, handle, tag)
    pub(crate) cancels: Vec<u64>,
}

/// Where a callback's samples go.
pub(crate) enum Samples<'a> {
    /// Straight into the global series (serial dispatch).
    Series(&'a mut BTreeMap<&'static str, Series>),
    /// Buffered: the sharded executor's parallel phase logs samples per
    /// shard and applies them in merge order during replay, so the
    /// global series see the exact single-threaded sequence.
    Log(&'a mut Vec<(&'static str, f64)>),
}

/// The protocol's window onto the world during a callback.
pub struct Ctx<'a> {
    /// The node being called.
    pub node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) out: &'a mut CtxOut,
    pub(crate) rng: &'a mut ChaCha12Rng,
    pub(crate) samples: Samples<'a>,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) next_handle: &'a mut u64,
    pub(crate) frame_pool: &'a mut Vec<Vec<u8>>,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// An empty byte buffer for encoding an outgoing frame — recycled
    /// from a previously delivered frame when one is available. Hand
    /// the filled buffer to [`Ctx::broadcast`] / [`Ctx::unicast`] as
    /// usual; the engine wraps it in a recycled `Arc` too, so the
    /// encode→transmit→deliver cycle allocates only when the pool is
    /// empty or the buffer must grow past what its last frame needed
    /// (reserve the frame's length once, up front, to grow it once).
    pub fn frame_buf(&mut self) -> Vec<u8> {
        self.frame_pool.pop().unwrap_or_default()
    }

    /// Queue a broadcast frame.
    pub fn broadcast(&mut self, bytes: Vec<u8>) {
        self.out.sends.push((LinkDst::Broadcast, bytes));
    }

    /// Queue a unicast frame to link-layer neighbor `to`.
    pub fn unicast(&mut self, to: NodeId, bytes: Vec<u8>) {
        self.out.sends.push((LinkDst::Unicast(to), bytes));
    }

    /// Arm a timer that fires after `delay` with the given tag.
    ///
    /// Handles are namespaced by node (`node_id << 32 | local counter`)
    /// so every node draws from its own stream — the allocation order
    /// is then a per-node fact, identical under single-threaded and
    /// sharded execution.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerHandle {
        let handle = ((self.node.0 as u64) << 32) | *self.next_handle;
        *self.next_handle += 1;
        self.out.timers.push((delay, handle, tag));
        TimerHandle(handle)
    }

    /// Cancel a previously armed timer (no-op if already fired).
    pub fn cancel_timer(&mut self, h: TimerHandle) {
        self.out.cancels.push(h.0);
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        self.rng
    }

    /// Record a sample.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        match &mut self.samples {
            Samples::Series(series) => series.entry(name).or_default().record(v),
            Samples::Log(log) => log.push((name, v)),
        }
    }

    /// Record a trace event. `detail` is rendered only when tracing is
    /// enabled, so passing `format_args!(…)` costs nothing otherwise.
    pub fn trace(&mut self, dir: Dir, kind: &'static str, detail: impl std::fmt::Display) {
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent {
                time: self.now,
                node: self.node,
                dir,
                kind,
                detail: detail.to_string(),
            });
        }
    }
}
