//! The generic network handle: one implementation of traffic driving and
//! metric extraction shared by every protocol stack.
//!
//! [`Network<P>`] replaces the old `SecureNetwork` / `PlainNetwork`
//! struct pair, whose `send` / `run_flows` / `delivery_ratio` /
//! `mean_degree` bodies were duplicated nearly verbatim. Anything a
//! stack must provide to participate lives in the small [`NodeApi`]
//! trait; everything else is written once here.

use super::report::{CryptoTotals, RunReport, StatTotals};
use super::workload::{Workload, DEFAULT_PAYLOAD};
use crate::node::SecureNode;
use crate::plain::PlainDsrNode;
use crate::stats::{Counter, NodeStats};
use manet_crypto::{BatchVerifier, CryptoBackend};
use manet_sim::{Ctx, Engine, LinkCounter, NodeId, Protocol, SimTime};
use manet_wire::{DomainName, Ipv6Addr};
use std::marker::PhantomData;
use std::sync::Arc;

/// What a protocol stack exposes so the generic [`Network`] can drive it
/// and read it. Implemented by [`SecureNode`] and [`PlainDsrNode`]; any
/// future stack joins the scenario layer by implementing this.
pub trait NodeApi: Protocol + Sized + 'static {
    /// The node's current address.
    fn addr(&self) -> Ipv6Addr;
    /// The node's protocol counters.
    fn node_stats(&self) -> &NodeStats;
    /// Application entry point: send `payload` to `dst`.
    fn send_payload(&mut self, ctx: &mut Ctx, dst: Ipv6Addr, payload: Vec<u8>);
    /// Has the node finished joining (DAD etc.)? Stacks without a
    /// bootstrap phase are always ready.
    fn ready(&self) -> bool {
        true
    }
}

impl NodeApi for SecureNode {
    fn addr(&self) -> Ipv6Addr {
        self.ip()
    }
    fn node_stats(&self) -> &NodeStats {
        self.stats()
    }
    fn send_payload(&mut self, ctx: &mut Ctx, dst: Ipv6Addr, payload: Vec<u8>) {
        self.send_data(ctx, dst, payload);
    }
    fn ready(&self) -> bool {
        self.is_ready()
    }
}

impl NodeApi for PlainDsrNode {
    fn addr(&self) -> Ipv6Addr {
        self.ip()
    }
    fn node_stats(&self) -> &NodeStats {
        self.stats()
    }
    fn send_payload(&mut self, ctx: &mut Ctx, dst: Ipv6Addr, payload: Vec<u8>) {
        self.send_data(ctx, dst, payload);
    }
}

/// A built network of protocol `P` nodes: engine + node handles. Build
/// one with [`ScenarioBuilder`](super::ScenarioBuilder).
pub struct Network<P: NodeApi> {
    pub engine: Engine,
    /// The DNS server node, if the stack has one (always placed first).
    pub dns: Option<NodeId>,
    /// Host nodes in construction order.
    pub hosts: Vec<NodeId>,
    /// When the last host joins (bootstrap completes some time after).
    pub last_join: SimTime,
    /// The network-shared signature backend (secure builds): its
    /// counters report *actual* backend executions network-wide, the
    /// quantity the demand-side `sec.verify_rsa` deliberately does not
    /// measure. `None` for plain stacks.
    pub crypto_backend: Option<Arc<dyn CryptoBackend>>,
    /// The shared batch verifier when deferred verification is on.
    pub batch: Option<Arc<BatchVerifier>>,
    pub(super) _stack: PhantomData<P>,
}

impl<P: NodeApi> Network<P> {
    /// Borrow a host's protocol.
    pub fn host(&self, i: usize) -> &P {
        self.engine.protocol_as::<P>(self.hosts[i])
    }

    /// A host's current address.
    pub fn host_ip(&self, i: usize) -> Ipv6Addr {
        self.host(i).addr()
    }

    /// Have host `from` send `payload` to host `to` right now.
    pub fn send(&mut self, from: usize, to: usize, payload: Vec<u8>) {
        let dst = self.host_ip(to);
        let id = self.hosts[from];
        self.engine.with_protocol::<P, _>(id, |n, ctx| {
            n.send_payload(ctx, dst, payload);
        });
    }

    /// Execute a declarative [`Workload`] — warmup, `packets` rounds of
    /// one packet per flow spaced by `interval`, then the drain — and
    /// report what the universe looks like afterwards. This is the one
    /// traffic driver every scenario (secure, plain, scale) runs on.
    pub fn run(&mut self, w: &Workload) -> RunReport {
        // lint: allow(wall-clock) — harness-side perf reporting; wall_s is masked out of RunReport fingerprints
        let t0 = std::time::Instant::now();
        let events_before = self.engine.events_processed();
        if w.warmup > manet_sim::SimDuration::ZERO {
            let until = self.engine.now() + w.warmup;
            self.engine.run_until(until);
        }
        for _ in 0..w.packets {
            for &(from, to) in &w.flows {
                self.send(from, to, vec![DEFAULT_PAYLOAD.0; w.payload_len]);
            }
            let next = self.engine.now() + w.interval;
            self.engine.run_until(next);
        }
        // Anchor the drain past the join storm so a drain on a freshly
        // built staggered network covers every scheduled join.
        let anchor = self.engine.now().max(self.last_join);
        self.engine.run_until(anchor + w.drain);
        let wall_s = t0.elapsed().as_secs_f64();
        let mut report = self.report(wall_s);
        // Rate this run only: `events` stays cumulative (deterministic),
        // but dividing the whole history by this run's wall would
        // overstate throughput after a bootstrap or an earlier workload.
        report.events_per_sec = if wall_s > 0.0 {
            (report.events - events_before) as f64 / wall_s
        } else {
            0.0
        };
        report
    }

    /// Legacy-shaped convenience: `packets` rounds of one packet per
    /// flow, spaced by `interval`, then a 5 s ack drain. Sugar over
    /// [`Network::run`].
    pub fn run_flows(
        &mut self,
        flows: &[(usize, usize)],
        packets: usize,
        interval: manet_sim::SimDuration,
    ) -> RunReport {
        self.run(&Workload::flows(flows.to_vec(), packets, interval))
    }

    /// Run long enough for every host to finish joining (secure DAD and
    /// DNS name commits; a no-op window for plain stacks). Returns
    /// whether all hosts are ready.
    pub fn bootstrap(&mut self) -> bool {
        self.run(&Workload::bootstrap_storm());
        self.all_ready()
    }

    /// Are all hosts done joining?
    pub fn all_ready(&self) -> bool {
        self.hosts
            .iter()
            .all(|&h| self.engine.protocol_as::<P>(h).ready())
    }

    /// Fraction of sent data packets that were end-to-end acknowledged,
    /// across all hosts. `None` if no host sent anything — the empty
    /// denominator is explicit, not a silent NaN.
    pub fn delivery_ratio(&self) -> Option<f64> {
        delivery_ratio(&self.stat_totals())
    }

    /// Mean link-layer degree over alive hosts — the density check for
    /// randomly placed scale scenarios. `None` if no host is alive.
    /// Allocation-free per host via [`Engine::neighbors_into`].
    pub fn mean_degree(&self) -> Option<f64> {
        let mut nbrs = Vec::new();
        let (mut total, mut alive) = (0usize, 0usize);
        for &h in &self.hosts {
            if !self.engine.is_alive(h) {
                continue;
            }
            self.engine.neighbors_into(h, &mut nbrs);
            total += nbrs.len();
            alive += 1;
        }
        (alive > 0).then(|| total as f64 / alive as f64)
    }

    /// Network-wide total of counter `c`: the sum over every node of the
    /// engine that runs stack `P` — the hosts, the DNS node, and any node
    /// added straight to `engine` after the build. Nodes of another
    /// protocol keep no `NodeStats` and add nothing.
    pub fn count(&self, c: Counter) -> u64 {
        (0..self.engine.node_count())
            .filter_map(|i| {
                let p = self.engine.protocol(NodeId(i)).as_any();
                p.downcast_ref::<P>()
            })
            .map(|p| p.node_stats()[c])
            .sum()
    }

    /// Per-node protocol counters summed over all hosts (the DNS node
    /// excluded): the one source of a report's totals.
    pub fn stat_totals(&self) -> StatTotals {
        let mut t = StatTotals::default();
        for &h in &self.hosts {
            t.add(self.engine.protocol_as::<P>(h).node_stats());
        }
        t
    }

    /// Network-wide crypto-pipeline totals, [`Network::count`]s: the
    /// DNS node included (zero across the board for plain stacks).
    pub fn crypto_totals(&self) -> CryptoTotals {
        CryptoTotals {
            executed: self.count(Counter::SecVerifyRsa),
            cached: self.count(Counter::SecVerifyCached),
            failed: self.count(Counter::SecVerifyFailed),
        }
    }

    /// Snapshot the whole universe into a [`RunReport`]. `wall_s` is
    /// whatever wall-clock window the caller timed (the driver passes
    /// its own run time).
    pub fn report(&self, wall_s: f64) -> RunReport {
        let m = self.engine.metrics();
        let events = self.engine.events_processed();
        let busy = self.engine.busy_secs();
        let totals = self.stat_totals();
        RunReport {
            delivery_ratio: delivery_ratio(&totals),
            mean_degree: self.mean_degree(),
            totals,
            crypto: self.crypto_totals(),
            events,
            sim_s: self.engine.now().as_secs_f64(),
            wall_s,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            events_per_sec_engine: if busy > 0.0 {
                events as f64 / busy
            } else {
                0.0
            },
            exec_mode: self.engine.exec_mode().name(),
            shards: self.engine.exec_mode().shard_count(),
            tx_bytes: self.count(Counter::CtlTxBytes),
            rx_frames: m[LinkCounter::RxFrames],
            nodes_killed: m[LinkCounter::NodesKilled],
            peak_rss_bytes: manet_sim::mem::peak_rss_bytes(),
            alloc_bytes: manet_sim::mem::alloc_totals().map(|(b, _)| b),
            alloc_count: manet_sim::mem::alloc_totals().map(|(_, c)| c),
        }
    }

    /// Deterministically pick `n_flows` source→destination host pairs
    /// from the largest radio component reachable from a few probe
    /// hosts, so scale runs measure routing rather than
    /// unreachable-by-construction pairs. Draws from the engine RNG
    /// (stays inside the seeded universe).
    pub fn scale_flows(&mut self, n_flows: usize) -> Vec<(usize, usize)> {
        use rand::Rng;
        let probes: Vec<usize> = [0usize, 1, 2, 3]
            .iter()
            .map(|&i| i * self.hosts.len() / 4)
            .collect();
        let component = probes
            .into_iter()
            .map(|i| self.engine.connected_component(self.hosts[i]))
            .max_by_key(|c| c.len())
            .unwrap_or_default();
        // Map engine ids back to host indices (the DNS node, if any, is
        // not a flow endpoint).
        let idx_of: crate::fxhash::FxHashMap<NodeId, usize> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let pool: Vec<usize> = component
            .into_iter()
            .filter_map(|id| idx_of.get(&id).copied())
            .collect();
        if pool.len() < 2 {
            return Vec::new();
        }
        let mut flows = Vec::with_capacity(n_flows);
        while flows.len() < n_flows {
            let a = pool[self.engine.rng().gen_range(0..pool.len())];
            let b = pool[self.engine.rng().gen_range(0..pool.len())];
            if a != b {
                flows.push((a, b));
            }
        }
        flows
    }
}

fn delivery_ratio(t: &StatTotals) -> Option<f64> {
    (t.data_sent > 0).then(|| t.data_acked as f64 / t.data_sent as f64)
}

impl Network<SecureNode> {
    /// Borrow the DNS node's protocol.
    pub fn dns_node(&self) -> &SecureNode {
        let dns = self.dns.expect("secure networks always have a DNS node");
        self.engine.protocol_as::<SecureNode>(dns)
    }
}

impl SecureNode {
    /// Pre-register a (name, address) pair at this DNS node — only
    /// meaningful before the network starts (Section 3's permanent
    /// entries).
    pub fn dns_preregister(&mut self, dn: DomainName, ip: Ipv6Addr) {
        if let Some(dns) = &mut self.dns {
            dns.preregister(dn, ip);
        }
    }
}
