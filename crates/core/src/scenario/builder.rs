//! The fluent, typed scenario builder — the single front door for
//! constructing networks.
//!
//! [`ScenarioBuilder`] carries everything stack-independent (topology,
//! radio, mobility, churn, adversaries, seed, tracing, executor);
//! selecting a stack with [`ScenarioBuilder::secure`] or
//! [`ScenarioBuilder::plain`] moves to a typed second stage that only
//! offers the knobs that stack actually has (join staggering and name
//! registration exist for the secure stack alone), ending in `build()`.
//!
//! Construction is **the** implementation: every exhibit, test, and
//! the declarative campaign layer (`crate::campaign`) build through it.
//! The builders are also the scenario *schema*: a `ScenarioSpec` holds a
//! stack stage as its data and the knob tables of `campaign/spec.rs` map
//! JSON keys onto these fields — which is why the fields are
//! `pub(crate)` and why every default lives here.

use super::network::{Network, NodeApi};
use super::placement::{positions_for, Placement};
use crate::config::{Behavior, ProtocolConfig};
use crate::identity::{HostIdentity, IdentityPool};
use crate::node::SecureNode;
use crate::plain::{PlainConfig, PlainDsrNode};
use manet_crypto::{backend_for, BackendKind, BatchVerifier};
use manet_sim::{
    Engine, EngineConfig, ExecMode, Field, Mobility, RadioConfig, SimDuration, SimTime,
};
use manet_wire::DomainName;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::sync::Arc;

/// Verdict-table bound for the network-wide batch verifier. Sized for
/// the largest secure exhibit (S2's 10k nodes): each entry is a 72-byte
/// key plus a bool, so the worst case is a few MiB, and overflow is a
/// deterministic full flush — a perf event, never a correctness one.
const BATCH_TABLE_CAPACITY: usize = 1 << 16;

/// The host's registered name for index `i`.
pub fn host_name(i: usize) -> DomainName {
    DomainName::new(&format!("h{i}.manet")).expect("static name is valid")
}

/// Field edge that gives `n` uniformly placed nodes an expected radio
/// degree of `target`: solve `n·πr²/A = target` for a square.
pub fn field_for_density(n: usize, range: f64, target: f64) -> Field {
    let area = n as f64 * std::f64::consts::PI * range * range / target;
    let edge = area.sqrt();
    Field::new(edge, edge)
}

/// The `scale` family preset (the S1 exhibit shape at any size): `n`
/// uniformly placed hosts at expected radio degree ~15, slow
/// random-waypoint mobility, and 2% of the population failing at
/// deterministic random times in the 4–10 s window. One definition so
/// the exhibit, the benches, and the smoke tests measure the same
/// scenario; finish with `.plain()`/`.secure…` after any overrides
/// (executor, churn count, …).
pub fn scale_family(n: usize, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .hosts(n)
        .placement(Placement::Uniform)
        .density(15.0)
        .mobility(Mobility::RandomWaypoint {
            min_speed: 1.0,
            max_speed: 4.0,
            pause_s: 2.0,
        })
        .churn(n / 50, (SimTime(4_000_000), SimTime(10_000_000)))
        .seed(seed)
}

/// Spacing of the default chain, and of any chain or grid placement a
/// scenario document declares without one.
pub(crate) const DEFAULT_SPACING: f64 = 180.0;

/// How the field is sized: explicitly, or derived from a target radio
/// density at build time.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FieldSpec {
    Explicit(Field),
    /// Expected radio degree for the built host count.
    Density(f64),
}

/// Stack-independent scenario knobs. Every setter returns `self`, so
/// specs read as one chained expression.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    pub(crate) n_hosts: usize,
    pub(crate) placement: Placement,
    pub(crate) field: FieldSpec,
    pub(crate) radio: RadioConfig,
    pub(crate) mobility: Mobility,
    pub(crate) seed: u64,
    pub(crate) trace: bool,
    /// `None` defers to `ExecMode::default()` (the `MANET_EXEC` knob)
    /// at build time.
    pub(crate) exec: Option<ExecMode>,
    pub(crate) attackers: Vec<(usize, Behavior)>,
    pub(crate) churn_kills: usize,
    pub(crate) churn_window: (SimTime, SimTime),
    pub(crate) max_events: Option<u64>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            n_hosts: 8,
            placement: Placement::Chain {
                spacing: DEFAULT_SPACING,
            },
            field: FieldSpec::Explicit(Field::new(2000.0, 2000.0)),
            radio: RadioConfig {
                loss: 0.0,
                ..RadioConfig::default()
            },
            mobility: Mobility::Static,
            seed: 1,
            trace: false,
            exec: None,
            attackers: Vec::new(),
            churn_kills: 0,
            churn_window: (SimTime(4_000_000), SimTime(10_000_000)),
            max_events: None,
        }
    }
}

impl ScenarioBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of hosts, excluding the DNS node a secure stack adds.
    pub fn hosts(mut self, n: usize) -> Self {
        self.n_hosts = n;
        self
    }

    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    pub fn field(mut self, field: Field) -> Self {
        self.field = FieldSpec::Explicit(field);
        self
    }

    /// Size the field at build time so the host count lands at the given
    /// expected radio degree (see [`field_for_density`]).
    pub fn density(mut self, target_degree: f64) -> Self {
        self.field = FieldSpec::Density(target_degree);
        self
    }

    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    pub fn mobility(mut self, mobility: Mobility) -> Self {
        self.mobility = mobility;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Executor: the single-threaded oracle or the K-band sharded
    /// engine (byte-identical by contract; `tests/determinism.rs`
    /// enforces it). Defaults to `Single`, or whatever the `MANET_EXEC`
    /// env knob says.
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Raise the engine's runaway-simulation event cap (the
    /// `EngineConfig` default suits exhibits up to ~10k nodes; the S3
    /// memory-diet scale needs room proportional to its population).
    pub fn max_events(mut self, cap: u64) -> Self {
        self.max_events = Some(cap);
        self
    }

    /// Give host `idx` an attacker behavior.
    pub fn adversary(mut self, idx: usize, behavior: Behavior) -> Self {
        self.attackers.push((idx, behavior));
        self
    }

    /// Replace the whole adversary mix at once.
    pub fn adversaries(mut self, attackers: Vec<(usize, Behavior)>) -> Self {
        self.attackers = attackers;
        self
    }

    /// Kill `kills` distinct hosts at deterministic random times inside
    /// `window`, scheduled from the engine's own RNG so the whole run
    /// stays a pure function of the seed.
    pub fn churn(mut self, kills: usize, window: (SimTime, SimTime)) -> Self {
        self.churn_kills = kills;
        self.churn_window = window;
        self
    }

    /// Select the secure stack (DNS node + CGA/DAD bootstrap) with a
    /// default protocol config.
    pub fn secure(self) -> SecureBuilder {
        self.secure_with(ProtocolConfig::default())
    }

    /// Select the secure stack with an explicit protocol config.
    pub fn secure_with(self, proto: ProtocolConfig) -> SecureBuilder {
        SecureBuilder {
            base: self,
            proto,
            join_stagger: SimDuration::from_millis(1_100),
            register_names: true,
            pre_register: Vec::new(),
            name_overrides: Vec::new(),
        }
    }

    /// Select the plain-DSR baseline stack (pre-assigned addresses, no
    /// DNS, no DAD) with a default config.
    pub fn plain(self) -> PlainBuilder {
        self.plain_with(PlainConfig::default())
    }

    /// Select the plain-DSR stack with an explicit config.
    pub fn plain_with(self, proto: PlainConfig) -> PlainBuilder {
        PlainBuilder { base: self, proto }
    }

    pub(crate) fn resolved_field(&self) -> Field {
        match self.field {
            FieldSpec::Explicit(f) => f,
            FieldSpec::Density(target) => field_for_density(self.n_hosts, self.radio.range, target),
        }
    }

    fn engine(&self, field: Field) -> Engine {
        let defaults = EngineConfig::default();
        Engine::new(EngineConfig {
            field,
            radio: self.radio.clone(),
            seed: self.seed,
            trace: self.trace,
            exec: self.exec.unwrap_or_default(),
            max_events: self.max_events.unwrap_or(defaults.max_events),
            ..defaults
        })
    }

    fn behavior_for(&self, i: usize) -> Behavior {
        self.attackers
            .iter()
            .find(|(idx, _)| *idx == i)
            .map(|(_, b)| b.clone())
            .unwrap_or_default()
    }

    /// Schedule the churn kills. Called after every node exists, so the
    /// RNG draws land in the same stream position the legacy
    /// `build_scale` used.
    fn schedule_churn<P: NodeApi>(&self, net: &mut Network<P>) {
        use rand::Rng;
        if self.churn_kills == 0 {
            return;
        }
        let (start, end) = self.churn_window;
        // Distinct victims: a duplicate pick would double-count in
        // `sim.nodes_killed` and overstate the real churn level.
        let mut victims = crate::fxhash::FxHashSet::default();
        while victims.len() < self.churn_kills.min(self.n_hosts) {
            victims.insert(net.engine.rng().gen_range(0..self.n_hosts));
        }
        // lint: allow(unordered-iter) — visit order erased by the sort below before anything observes it
        let mut order: Vec<usize> = victims.into_iter().collect();
        order.sort_unstable(); // set order must not leak into the schedule
        for v in order {
            let at = SimTime(net.engine.rng().gen_range(start.0..=end.0));
            net.engine.kill_at(net.hosts[v], at);
        }
    }
}

/// Second stage of the builder once the secure stack is selected: the
/// knobs only the DNS-backed bootstrap has.
#[derive(Clone, Debug)]
pub struct SecureBuilder {
    pub(crate) base: ScenarioBuilder,
    pub(crate) proto: ProtocolConfig,
    pub(crate) join_stagger: SimDuration,
    pub(crate) register_names: bool,
    pub(crate) pre_register: Vec<usize>,
    pub(crate) name_overrides: Vec<(usize, DomainName)>,
}

impl SecureBuilder {
    /// Delay between consecutive host joins. Extended DAD relies on
    /// already-joined hosts to relay AREQ floods, so simultaneous joins
    /// only probe one hop; the default (1.1 s) exceeds
    /// `ProtocolConfig::dad_timeout` so the previous joiner is Ready
    /// (relaying) before the next AREQ floods.
    pub fn join_stagger(mut self, stagger: SimDuration) -> Self {
        self.join_stagger = stagger;
        self
    }

    /// Register a domain name (`h<i>.manet`) for every host during DAD.
    pub fn register_names(mut self, on: bool) -> Self {
        self.register_names = on;
        self
    }

    /// Host indices whose names are pre-registered at the DNS before
    /// network formation (the paper's permanent servers).
    pub fn pre_register(mut self, hosts: Vec<usize>) -> Self {
        self.pre_register = hosts;
        self
    }

    /// Override the name host `i` registers (defaults to `h<i>.manet`).
    ///
    /// # Panics
    /// If `name` is not a valid [`DomainName`]. Scenario documents never
    /// get here: `ScenarioSpec::parse` rejects the name with path and line.
    pub fn name_override(mut self, i: usize, name: &str) -> Self {
        let parsed = DomainName::new(name);
        assert!(parsed.is_ok(), "name_override({i}, {name:?}): {parsed:?}");
        self.name_overrides.extend(parsed.map(|name| (i, name)));
        self
    }

    /// Edit the protocol config in place — for the one-flag tweaks
    /// (`credit.enabled`, `probe_enabled`, …) that don't warrant
    /// constructing a whole config up front.
    pub fn tune(mut self, f: impl FnOnce(&mut ProtocolConfig)) -> Self {
        f(&mut self.proto);
        self
    }

    /// Select the signature backend the whole network signs and verifies
    /// with (sugar over `.tune`). RSA is the oracle; `Null`/`HashSig`
    /// trade cryptographic meaning for speed in scale exhibits. Tests
    /// that assert attack rejection must pin [`BackendKind::Rsa`].
    pub fn crypto_backend(mut self, kind: BackendKind) -> Self {
        self.proto.crypto_backend = kind;
        self
    }

    /// Toggle network-wide deferred batch verification (sugar over
    /// `.tune`). Perf-only: fingerprints are identical either way.
    pub fn batch_verify(mut self, on: bool) -> Self {
        self.proto.batch_verify = on;
        self
    }

    /// Read access to the protocol config the build will use.
    pub fn proto(&self) -> &ProtocolConfig {
        &self.proto
    }

    /// The name host `i` will actually use: its override if one was
    /// given, else `h<i>.manet`. Pre-registration goes through this too,
    /// so `.pre_register` and `.name_override` on the same host agree.
    fn effective_name(&self, i: usize) -> DomainName {
        self.name_overrides
            .iter()
            .find(|(idx, _)| *idx == i)
            .map_or_else(|| host_name(i), |(_, name)| name.clone())
    }

    /// The [`HostIdentity::for_host`] arguments of every node this build
    /// creates, in node order: the DNS, then the hosts.
    pub(crate) fn identity_keys(&self) -> impl Iterator<Item = (u64, u32, u32)> {
        let (seed, key_bits) = (self.base.seed, self.proto.key_bits);
        (0..=self.base.n_hosts as u32).map(move |node| (seed, node, key_bits))
    }

    /// Build the network. Node 0 of the engine is the DNS; hosts join
    /// staggered starting at `join_stagger`.
    pub fn build(self) -> Network<SecureNode> {
        self.build_with(None)
    }

    /// [`Self::build`], taking identities from `pool` when a campaign
    /// lends one. The network is the same either way: a pooled identity
    /// is the one this build would have generated.
    pub(crate) fn build_with(self, pool: Option<&IdentityPool>) -> Network<SecureNode> {
        let base = &self.base;
        let n_total = base.n_hosts + 1;
        let field = base.resolved_field();
        let positions = positions_for(&base.placement, n_total, true, &field, base.seed);
        let mut engine = base.engine(field);

        // Every identity first — pre-registration needs the addresses —
        // each from its node's own key stream, so on all cores at once
        // unless a campaign already generated them (its jobs are
        // themselves spread over the cores and fork no further).
        let wanted: Vec<_> = self.identity_keys().collect();
        let mut identities: Vec<HostIdentity> = match pool {
            Some(pool) => wanted
                .iter()
                .map(|&(seed, node, key_bits)| pool.for_host(seed, node, key_bits))
                .collect(),
            None => wanted
                .par_iter()
                .map(|&(seed, node, key_bits)| HostIdentity::for_host(seed, node, key_bits))
                .collect(),
        };
        let dns_identity = identities.remove(0); // node 0; `n_total` is at least 1
        let mut dns_node =
            SecureNode::dns_with_identity(self.proto.clone(), dns_identity, Vec::new());
        let dns_pk = dns_node.public_key().clone();

        let mut host_nodes = Vec::with_capacity(base.n_hosts);
        for (i, identity) in identities.into_iter().enumerate() {
            let dn = self.register_names.then(|| self.effective_name(i));
            let node = SecureNode::with_identity(
                self.proto.clone(),
                identity,
                dns_pk.clone(),
                dn,
                base.behavior_for(i),
            );
            host_nodes.push(node);
        }
        for &i in &self.pre_register {
            dns_node.dns_preregister(self.effective_name(i), host_nodes[i].ip());
        }

        // One shared crypto runtime network-wide: a single backend
        // instance (so execution counters aggregate across nodes) and,
        // when enabled, the batch verifier the engine's tick hook drains
        // between collecting a tick's frames and dispatching them.
        let backend = backend_for(self.proto.crypto_backend);
        let batch = self
            .proto
            .batch_verify
            .then(|| Arc::new(BatchVerifier::new(BATCH_TABLE_CAPACITY)));
        dns_node.set_crypto_runtime(Arc::clone(&backend), batch.clone());
        for node in &mut host_nodes {
            node.set_crypto_runtime(Arc::clone(&backend), batch.clone());
        }
        if let Some(batch_handle) = &batch {
            let drain_batch = Arc::clone(batch_handle);
            let drain_backend = Arc::clone(&backend);
            engine.set_tick_hook(move || drain_batch.drain(drain_backend.as_ref()));
        }

        let dns = engine.add_node(Box::new(dns_node), positions[0], Mobility::Static);
        let mut hosts = Vec::with_capacity(base.n_hosts);
        let mut last_join = SimTime::ZERO;
        for (i, node) in host_nodes.into_iter().enumerate() {
            let join_at = SimTime(self.join_stagger.as_micros() * (i as u64 + 1));
            last_join = join_at;
            let id = engine.add_node_at(
                Box::new(node),
                positions[i + 1],
                base.mobility.clone(),
                join_at,
            );
            hosts.push(id);
        }
        let mut net = Network {
            engine,
            dns: Some(dns),
            hosts,
            last_join,
            crypto_backend: Some(backend),
            batch,
            _stack: PhantomData,
        };
        base.schedule_churn(&mut net);
        net
    }
}

/// Second stage of the builder once the plain-DSR stack is selected.
/// Addresses are assigned up front (plain DSR has no autoconfiguration
/// story — that asymmetry *is* the paper's bootstrap contribution).
#[derive(Clone, Debug)]
pub struct PlainBuilder {
    pub(crate) base: ScenarioBuilder,
    pub(crate) proto: PlainConfig,
}

impl PlainBuilder {
    /// Edit the plain config in place.
    pub fn tune(mut self, f: impl FnOnce(&mut PlainConfig)) -> Self {
        f(&mut self.proto);
        self
    }

    /// Build the network: all hosts join at t = 0 with random (assumed
    /// unique) addresses drawn from the engine RNG.
    pub fn build(self) -> Network<PlainDsrNode> {
        let base = &self.base;
        let field = base.resolved_field();
        let positions = positions_for(&base.placement, base.n_hosts, false, &field, base.seed);
        let mut engine = base.engine(field);
        let ips: Vec<manet_wire::Ipv6Addr> = (0..base.n_hosts)
            .map(|_| PlainDsrNode::random_ip(engine.rng()))
            .collect();
        let mut hosts = Vec::with_capacity(base.n_hosts);
        for i in 0..base.n_hosts {
            let node =
                PlainDsrNode::with_behavior(self.proto.clone(), ips[i], base.behavior_for(i));
            let id = engine.add_node(Box::new(node), positions[i], base.mobility.clone());
            hosts.push(id);
        }
        let mut net = Network {
            engine,
            dns: None,
            hosts,
            last_join: SimTime::ZERO,
            crypto_backend: None,
            batch: None,
            _stack: PhantomData,
        };
        base.schedule_churn(&mut net);
        net
    }
}
