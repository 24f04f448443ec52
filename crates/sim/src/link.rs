//! The link layer: how frames find their receivers.
//!
//! Broadcast delivery, [`Engine::neighbors`], and
//! [`Engine::connected_component`] all reduce to one primitive — "which
//! nodes could possibly hear a transmission from this position?" — and
//! the uniform spatial grid (`crate::grid`) answers it: the 3×3 cell
//! neighborhood of the sender, O(density) per transmission. Candidates
//! come back in ascending [`NodeId`] order and the liveness/range
//! filters run before any RNG draw, so a grid with a single cell (every
//! live node a candidate — the linear scan through the same code) is
//! bit-identical under the same seed; that one-cell grid is the
//! engine's test oracle (`engine/tests.rs`).
//!
//! Transmission itself (`transmit_into`) is a free function over a
//! borrowed `LinkEnv` rather than an `Engine` method: the sharded
//! executor runs it concurrently from worker threads (each with its own
//! RNG, metrics, and output buffer) against the same shared read-only
//! world, and the single-threaded path calls the identical code — one
//! implementation, so the two modes cannot drift.

use crate::ctx::{LinkDst, NodeId};
use crate::engine::{Engine, HotNode};
use crate::grid::SpatialGrid;
use crate::metrics::{LinkCounter, Metrics};
use crate::queue::Event;
use crate::radio::RadioConfig;
use crate::time::SimTime;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// The read-only world a transmission consults: radio model, node
/// positions/liveness, and the spatial index. Borrowed immutably so any
/// number of shard workers can transmit concurrently.
pub(crate) struct LinkEnv<'a> {
    pub(crate) radio: &'a RadioConfig,
    pub(crate) hot: &'a [HotNode],
    pub(crate) grid: &'a SpatialGrid,
}

/// Transmit `bytes` from `src`, resolving receivers and delays against
/// `env` at time `now`, and append the resulting future events (with
/// their times) to `out` instead of scheduling them directly. `rng`
/// must be the *sender's* deterministic stream and `cand` is a reused
/// scratch buffer. The frame comes already in its `Arc` (a recycled
/// shell, in steady state): each receiver's event holds a clone, so a
/// transmission allocates nothing.
///
/// Every delay this emits is `>= radio.base_delay` (see
/// `RadioConfig::sample_delay`), which is the lookahead guarantee the
/// sharded executor's epoch windows rely on: a frame sent inside a
/// window can never need delivery inside that same window.
// Three of the nine parameters are reused scratch/output buffers; the
// zero-alloc contract is worth more than a tidy signature here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transmit_into(
    env: &LinkEnv<'_>,
    now: SimTime,
    src: NodeId,
    dst: LinkDst,
    bytes: Arc<Vec<u8>>,
    rng: &mut ChaCha12Rng,
    metrics: &mut Metrics,
    cand: &mut Vec<NodeId>,
    out: &mut Vec<(SimTime, Event)>,
) {
    if !env.hot[src.0].alive {
        return;
    }
    metrics.count(LinkCounter::TxFrames, 1);
    metrics.count(LinkCounter::TxBytes, bytes.len() as u64);
    let src_pos = env.hot[src.0].pos;
    match dst {
        LinkDst::Broadcast => {
            metrics.count(LinkCounter::TxBroadcasts, 1);
            env.grid.candidates_into(&src_pos, cand);
            for &to in cand.iter() {
                if to == src {
                    continue;
                }
                let n = &env.hot[to.0];
                // `join_at <= now` rather than `started`: peers whose
                // Start event is queued for this same instant are
                // physically present; they will have started by the
                // time the delivery (≥ base_delay later) arrives.
                if !n.alive || n.join_at > now {
                    continue;
                }
                let d = src_pos.dist(&n.pos);
                if d > env.radio.max_range() {
                    continue;
                }
                if !env.radio.sample_broadcast_reception(d, rng) {
                    metrics.count(LinkCounter::RxDroppedLoss, 1);
                    continue;
                }
                let delay = env.radio.sample_delay(bytes.len(), rng);
                out.push((
                    now + delay,
                    Event::Deliver {
                        to,
                        src,
                        bytes: Arc::clone(&bytes),
                    },
                ));
            }
        }
        LinkDst::Unicast(to) => {
            metrics.count(LinkCounter::TxUnicasts, 1);
            let reachable = {
                let n = &env.hot[to.0];
                n.alive && n.join_at <= now && env.radio.in_range(src_pos.dist(&n.pos))
            };
            if reachable {
                // MAC ARQ abstraction: no random loss on unicast.
                let delay = env.radio.sample_delay(bytes.len(), rng);
                out.push((
                    now + delay,
                    Event::Deliver {
                        to,
                        src,
                        bytes: Arc::clone(&bytes),
                    },
                ));
            } else {
                metrics.count(LinkCounter::TxUnicastUnreachable, 1);
                // ACK-timeout feedback after ~MAC retry budget.
                let delay = env.radio.sample_delay(bytes.len(), rng);
                let t = now + delay + env.radio.base_delay + env.radio.base_delay;
                out.push((
                    t,
                    Event::LinkFailure {
                        node: src,
                        to,
                        bytes: Arc::clone(&bytes),
                    },
                ));
            }
        }
    }
}

impl Engine {
    /// Link-layer neighbors of `node` right now (alive and in range),
    /// ascending by NodeId, written into a caller-owned buffer (prior
    /// contents are replaced) — the allocation-free variant for hot
    /// call-sites.
    pub fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let env = self.link_env();
        let me_pos = env.hot[node.0].pos;
        env.grid.candidates_into(&me_pos, out);
        let now = self.now();
        out.retain(|&other| {
            let n = &env.hot[other.0];
            other != node && n.alive && n.join_at <= now && env.radio.in_range(me_pos.dist(&n.pos))
        });
    }

    /// Link-layer neighbors of `node` right now (alive and in range),
    /// ascending by NodeId.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(node, &mut out);
        out
    }

    /// All nodes reachable from `from` over current radio links (BFS on
    /// the unit-disk graph of alive, joined nodes), including `from`.
    pub fn connected_component(&self, from: NodeId) -> Vec<NodeId> {
        let n_nodes = self.node_count();
        let mut seen = vec![false; n_nodes];
        let mut queue = std::collections::VecDeque::new();
        if self.is_alive(from) {
            seen[from.0] = true;
            queue.push_back(from);
        }
        let mut out = Vec::new();
        let mut nbrs = Vec::new();
        while let Some(n) = queue.pop_front() {
            out.push(n);
            self.neighbors_into(n, &mut nbrs);
            for &next in &nbrs {
                if !seen[next.0] {
                    seen[next.0] = true;
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// Is the set of alive, joined nodes one connected radio graph?
    /// Useful as a scenario sanity check — a partitioned topology makes
    /// most delivery assertions meaningless.
    pub fn is_connected(&self) -> bool {
        let now = self.now();
        let alive: Vec<NodeId> = (0..self.node_count())
            .map(NodeId)
            .filter(|&n| {
                let s = &self.hot[n.0];
                s.alive && s.join_at <= now
            })
            .collect();
        match alive.first() {
            None => true,
            Some(&first) => self.connected_component(first).len() == alive.len(),
        }
    }
}
