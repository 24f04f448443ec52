//! Kernel probes: one public function of one layer timed in isolation,
//! on keys and messages drawn from the run's seed. Each value is the
//! best of its batches, the same estimator as the end-to-end timings.
//! Probes name the cost of an operation; multiplied by the exact counts
//! of a rep they give the `*_est_*` ceilings.

use crate::inputs::{self, NetSpec};
use manet_crypto::{
    backend_for, sha256, BackendKind, BatchVerifier, CryptoBackend, KeyPair, Signature, VerifyCache,
};
use manet_secure::campaign::{json, ScenarioSpec};
use manet_secure::config::CreditConfig;
use manet_secure::credit::CreditManager;
use manet_secure::routecache::{CachedRoute, RouteCache};
use manet_secure::scenario::{field_for_density, Workload};
use manet_secure::{HostIdentity, PlainDsrNode};
use manet_sim::{
    placement, Ctx, Engine, EngineConfig, ExecMode, Mobility, NodeId, Protocol, RadioConfig,
    SimDuration, SimTime,
};
use manet_wire::{
    cga, sigdata, Data, Ipv6Addr, Message, PlainRreq, RouteRecord, Rreq, SecureRouteRecord, Seq,
    SrrEntry,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Triples per simulated tick of the batch probes (the issue's 32).
const TICK: usize = 32;
/// Hops in the probed secure route request (a mid-flood copy).
const SRR_HOPS: usize = 3;

/// A protocol that only re-arms timers: wheel pop/cascade plus dispatch.
struct TimerToy;

impl Protocol for TimerToy {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = ctx.rng().gen_range(1_000..50_000);
        ctx.set_timer(SimDuration(delay), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _src: NodeId, _bytes: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        // Delays from 1 ms to 4 s, so that timers land on every level
        // of the wheel and cascade.
        let delay = 1_000u64 << ctx.rng().gen_range(0..13);
        ctx.set_timer(SimDuration(delay), tag);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A protocol that only broadcasts: grid fan-out plus delivery.
struct BcastToy;

impl Protocol for BcastToy {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = ctx.rng().gen_range(1_000..100_000);
        ctx.set_timer(SimDuration(delay), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _src: NodeId, bytes: &[u8]) {
        black_box(bytes.len());
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        let mut frame = ctx.frame_buf();
        frame.resize(64, 0xda);
        ctx.broadcast(frame);
        ctx.set_timer(SimDuration(100_000), tag);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Run `nodes` toys of one kind at radio degree 15 for `sim_s`
/// simulated seconds; engine wall seconds, events and receptions.
fn run_toys(
    seed: u64,
    nodes: usize,
    sim_s: u64,
    toy: fn() -> Box<dyn Protocol>,
) -> (f64, u64, u64) {
    let radio = RadioConfig {
        loss: 0.0,
        ..RadioConfig::default()
    };
    let field = field_for_density(nodes, radio.range, 15.0);
    let mut engine = Engine::new(EngineConfig {
        field,
        radio,
        seed,
        exec: ExecMode::Single,
        ..EngineConfig::default()
    });
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    for pos in placement::uniform(nodes, &field, &mut rng) {
        engine.add_node(toy(), pos, Mobility::Static);
    }
    engine.run_until(SimTime(sim_s * 1_000_000));
    (
        engine.busy_secs(),
        engine.events_processed(),
        engine.metrics().counter("phy.rx_frames"),
    )
}

/// Traffic-phase wall of the plain_scale network under `exec`.
fn plain_traffic_wall(spec: &NetSpec, exec: ExecMode) -> f64 {
    let mut net = spec.plain_builder(exec).build();
    net.engine.run_until(SimTime(spec.formation_ms * 1000));
    net.run(&Workload::flows(
        spec.flows.clone(),
        spec.packets,
        SimDuration::from_millis(spec.interval_ms),
    ))
    .wall_s
}

/// A secure route request as a relay `SRR_HOPS` hops into the flood
/// sees it: the source's proof plus one signed SRR entry per hop.
fn secure_rreq(ids: &[HostIdentity]) -> Message {
    let (src, dst) = (&ids[0], &ids[1]);
    let seq = Seq(7);
    Message::Rreq(Rreq {
        sip: src.ip(),
        dip: dst.ip(),
        seq,
        srr: SecureRouteRecord(
            ids[2..2 + SRR_HOPS]
                .iter()
                .map(|hop| SrrEntry {
                    ip: hop.ip(),
                    proof: hop.prove(&sigdata::srr_hop(&hop.ip(), seq)),
                })
                .collect(),
        ),
        src_proof: src.prove(&sigdata::rreq_src(&src.ip(), seq)),
    })
}

/// The prepared inputs of every probe and the best time each has shown
/// so far.
///
/// Batches run in child processes of their own (`manet-benchmark probes
/// <seed> short|long`), like the reps: the bignum code allocates some
/// 150k times per key, and the same 49 keys that take 5.4 ms each in a
/// fresh process take 6.4–7.3 ms in one whose heap other work has
/// churned. A traced run starts such a child between reps, so that the
/// batches of a probe are spread over the whole run like the reps are —
/// a burst of batches at the end would sit inside one stretch of host
/// noise and take its slowdown for the operation's cost — and folds the
/// children's times into its own `Probes` with [`Probes::absorb`].
pub struct Probes {
    seed: u64,
    /// Best nanoseconds per operation, by probe.
    best: BTreeMap<String, f64>,
    ids: Vec<HostIdentity>,
    backend: Arc<dyn CryptoBackend>,
    kp: KeyPair,
    /// `TICK` distinct signed triples under one key, as a flood's
    /// copies and a forger's inventions look to a verifier.
    payloads: Vec<Vec<u8>>,
    sigs: Vec<Signature>,
    block: Vec<u8>,
    cache: VerifyCache,
    fresh: u64,
    rreq: Message,
    rreq_bytes: Vec<u8>,
    data: Message,
    data_bytes: Vec<u8>,
    plain_rreq: Vec<u8>,
    addr: Ipv6Addr,
    dests: Vec<Ipv6Addr>,
    routes: RouteCache,
    round: u64,
    credits: CreditManager,
    plan_text: String,
    base_text: String,
    base_doc: json::Json,
    plain: NetSpec,
}

/// Time `ops` calls of `f`; nanoseconds per call.
fn time_ns(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

impl Probes {
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x7072_6f62_6573);
        let ids: Vec<HostIdentity> = (0..2 + SRR_HOPS)
            .map(|_| HostIdentity::generate(512, &mut rng))
            .collect();
        let backend = backend_for(BackendKind::Rsa);
        let kp = KeyPair::generate(512, &mut rng);
        let payloads: Vec<Vec<u8>> = (0..TICK)
            .map(|i| sigdata::rreq_src(&ids[0].ip(), Seq(i as u64)))
            .collect();
        let sigs: Vec<Signature> = payloads.iter().map(|p| backend.sign(&kp, p)).collect();
        let mut cache = VerifyCache::new(1024);
        for (payload, sig) in payloads.iter().zip(&sigs) {
            cache.verify_with(kp.public(), payload, sig, || true);
        }
        let rreq = secure_rreq(&ids);
        let data = Message::Data(Data {
            sip: ids[0].ip(),
            dip: ids[1].ip(),
            seq: Seq(9),
            route: RouteRecord(ids.iter().map(HostIdentity::ip).collect()),
            payload: vec![0xda; 64],
        });
        let plain_rreq = Message::PlainRreq(PlainRreq {
            sip: ids[0].ip(),
            dip: ids[1].ip(),
            seq: Seq(3),
            rr: RouteRecord((0..8).map(|_| PlainDsrNode::random_ip(&mut rng)).collect()),
        })
        .encode();
        let (plan_text, base_text) = inputs::campaign(seed);
        Probes {
            seed,
            best: BTreeMap::new(),
            backend,
            payloads,
            sigs,
            block: vec![0xa5u8; 64 * 1024],
            cache,
            fresh: 0,
            rreq_bytes: rreq.encode(),
            rreq,
            data_bytes: data.encode(),
            data,
            plain_rreq,
            addr: cga::generate(ids[0].public(), 5),
            // Shipping caps (8 routes × 256 destinations), cycled past
            // both so that inserts evict.
            dests: (0..512)
                .map(|_| PlainDsrNode::random_ip(&mut rng))
                .collect(),
            routes: RouteCache::with_caps(SimDuration::from_secs(60), 8, 256),
            round: 0,
            credits: CreditManager::new(CreditConfig::default()),
            base_doc: json::parse(&base_text).expect("own base"),
            plan_text,
            base_text,
            plain: inputs::plain_scale(seed),
            ids,
            kp,
        }
    }

    fn record(&mut self, name: &str, ns: f64) {
        let best = self.best.entry(name.to_string()).or_insert(f64::INFINITY);
        *best = best.min(ns);
    }

    /// The best times so far as `name nanoseconds` lines: what a probe
    /// child prints.
    pub fn render(&self) -> String {
        self.best
            .iter()
            .map(|(name, ns)| format!("{name} {ns:?}\n"))
            .collect()
    }

    /// Fold a probe child's output into the best times.
    pub fn absorb(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let parsed = line
                .split_once(' ')
                .and_then(|(name, ns)| Some((name, ns.parse::<f64>().ok()?)));
            let Some((name, ns)) = parsed else {
                return Err(format!("bad probe output line: {line:?}"));
            };
            self.record(name, ns);
        }
        Ok(())
    }

    /// One batch of every short probe of `crypto`, `wire`, `routecache`
    /// and `campaign` (about 20 ms).
    pub fn batch(&mut self) {
        let Probes {
            backend,
            kp,
            payloads,
            sigs,
            ..
        } = self;
        let pk = kp.public().clone();
        let sign = time_ns(TICK, |i| {
            black_box(backend.sign(kp, &payloads[i]));
        });
        let verify = time_ns(TICK, |i| {
            black_box(backend.verify(&pk, &payloads[i], &sigs[i]));
        });
        // One engine tick of TICK verification requests through the
        // batch verifier (a fresh one per tick, as its table would
        // otherwise answer from the previous tick): all copies of one
        // triple, then all distinct triples.
        let tick = |distinct: bool| {
            time_ns(1, |_| {
                let batch = BatchVerifier::new(2 * TICK);
                for i in 0..TICK {
                    let j = if distinct { i } else { 0 };
                    batch.enqueue(&pk, &payloads[j], &sigs[j]);
                }
                batch.drain(backend.as_ref());
                black_box(batch.stats());
            })
        };
        let (dup_tick, unique_tick) = (tick(false), tick(true));
        self.record("sign", sign);
        self.record("verify", verify);
        self.record("batch_dup_tick", dup_tick);
        self.record("batch_unique_tick", unique_tick);

        let sha = time_ns(8, |_| {
            black_box(sha256(black_box(&self.block)));
        });
        self.record("sha256_block", sha);
        // Verify-cache paths with the RSA work taken out (`compute`
        // answers at once): what a hit saves is `verify_us`, what a
        // miss adds is this bookkeeping.
        let hit = time_ns(TICK, |i| {
            black_box(
                self.cache
                    .verify_with(&pk, &self.payloads[i], &self.sigs[i], || true),
            );
        });
        self.record("cache_hit", hit);
        let miss = time_ns(TICK, |i| {
            self.fresh += 1;
            let payload = self.fresh.to_be_bytes();
            black_box(
                self.cache
                    .verify_with(&pk, &payload, &self.sigs[i], || true),
            );
        });
        self.record("cache_miss", miss);

        let encode = time_ns(64, |_| {
            black_box(black_box(&self.rreq).encode());
        });
        self.record("secure_ctl_encode", encode);
        let decode = time_ns(64, |_| {
            black_box(Message::decode(black_box(&self.rreq_bytes)).expect("own encoding"));
        });
        self.record("secure_ctl_decode", decode);
        let encode = time_ns(256, |_| {
            black_box(black_box(&self.data).encode());
        });
        self.record("data_encode", encode);
        let decode = time_ns(256, |_| {
            black_box(Message::decode(black_box(&self.data_bytes)).expect("own encoding"));
        });
        self.record("data_decode", decode);
        let peek = time_ns(1024, |_| {
            black_box(Message::peek_plain_rreq(black_box(&self.plain_rreq)));
        });
        self.record("rreq_peek", peek);
        let frames = [&self.rreq_bytes, &self.data_bytes, &self.plain_rreq];
        let peek = time_ns(3072, |i| {
            black_box(Message::peek_may_verify(black_box(frames[i % 3])));
        });
        self.record("may_verify_peek", peek);
        let generate = time_ns(64, |i| {
            black_box(cga::generate(self.ids[0].public(), black_box(i as u64)));
        });
        self.record("cga_generate", generate);
        let check = time_ns(64, |_| {
            black_box(cga::verify(black_box(&self.addr), self.ids[0].public(), 5))
                .expect("own address");
        });
        self.record("cga_verify", check);

        let n = self.dests.len();
        let insert = time_ns(n, |d| {
            self.round += 1;
            let len = 1 + (self.round % 3) as usize;
            self.routes.insert(
                self.dests[d],
                CachedRoute {
                    relays: (1..=len).map(|k| self.dests[(d + k) % n]).collect(),
                    d_proof: None,
                    learned_at: SimTime(self.round),
                },
            );
        });
        self.record("routecache_insert", insert);
        let now = SimTime(self.round);
        let lookup = time_ns(n, |d| {
            black_box(
                self.routes
                    .best(&self.dests[d], &self.credits, now)
                    .is_some(),
            );
        });
        self.record("routecache_best", lookup);

        let parse = time_ns(16, |_| {
            black_box(json::parse(black_box(&self.plan_text)).expect("own plan"));
            black_box(json::parse(black_box(&self.base_text)).expect("own base"));
        });
        self.record("json_parse", parse);
        let canonical = time_ns(16, |_| {
            black_box(json::canonical(black_box(&self.base_doc)));
        });
        self.record("json_canonical", canonical);
        let roundtrip = time_ns(8, |_| {
            let spec = ScenarioSpec::from_json(black_box(&self.base_doc)).expect("own base");
            black_box(ScenarioSpec::parse(&spec.to_canonical_string()).expect("own rendering"));
        });
        self.record("spec_roundtrip", roundtrip);
    }

    /// One batch of the long probes (about 1 s): key generation, a run of
    /// each toy network, and the plain_scale traffic phase under both
    /// executors.
    pub fn long_batch(&mut self) {
        // Key generation is a random prime search whose cost varies
        // several-fold from key to key, so the probe generates the very
        // identities of the secure network: the builder draws them, one
        // after the other, from the engine's harness stream.
        let mut engine = Engine::new(EngineConfig {
            seed: inputs::NETWORK_SEED,
            ..EngineConfig::default()
        });
        let keygen = time_ns(inputs::SECURE_IDENTITIES, |_| {
            black_box(HostIdentity::generate(512, engine.rng()));
        });
        self.record("keygen", keygen);
        let (busy, events, _) = run_toys(self.seed, 2_000, 20, || Box::new(TimerToy));
        self.record("timer_event", busy * 1e9 / events as f64);
        let (busy, _, rx) = run_toys(self.seed, 2_000, 1, || Box::new(BcastToy));
        self.record("bcast_rx", busy * 1e9 / rx as f64);
        let sharded = plain_traffic_wall(&self.plain, ExecMode::Sharded(2));
        self.record("plain_sharded2", sharded * 1e9);
        let single = plain_traffic_wall(&self.plain, ExecMode::Single);
        self.record("plain_single", single * 1e9);
    }

    /// Every probe metric of `metrics::PER_LAYER`, as `(name, value)`,
    /// from the best batch of each probe so far.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        let ns = |name: &str| self.best.get(name).copied().unwrap_or(f64::INFINITY);
        // Bytes per nanosecond × 1000 = MB/s.
        let mb_s = |bytes: usize, name: &str| bytes as f64 / ns(name) * 1e3;
        vec![
            ("crypto.keygen_ms", ns("keygen") / 1e6),
            ("crypto.sign_us", ns("sign") / 1e3),
            ("crypto.verify_us", ns("verify") / 1e3),
            ("crypto.sha256_mb_s", mb_s(self.block.len(), "sha256_block")),
            ("crypto.cache_hit_ns", ns("cache_hit")),
            ("crypto.cache_miss_ns", ns("cache_miss")),
            ("crypto.batch_dup_tick_us", ns("batch_dup_tick") / 1e3),
            ("crypto.batch_unique_tick_us", ns("batch_unique_tick") / 1e3),
            ("crypto.inline_tick_us", ns("verify") * TICK as f64 / 1e3),
            ("wire.secure_ctl_bytes", self.rreq_bytes.len() as f64),
            ("wire.secure_ctl_encode_ns", ns("secure_ctl_encode")),
            ("wire.secure_ctl_decode_ns", ns("secure_ctl_decode")),
            ("wire.data_encode_ns", ns("data_encode")),
            ("wire.data_decode_ns", ns("data_decode")),
            ("wire.rreq_peek_ns", ns("rreq_peek")),
            ("wire.may_verify_peek_ns", ns("may_verify_peek")),
            ("wire.cga_generate_us", ns("cga_generate") / 1e3),
            ("wire.cga_verify_us", ns("cga_verify") / 1e3),
            ("routecache.insert_ns", ns("routecache_insert")),
            ("routecache.best_ns", ns("routecache_best")),
            (
                "campaign.json_parse_mb_s",
                mb_s(self.plan_text.len() + self.base_text.len(), "json_parse"),
            ),
            (
                "campaign.json_canonical_mb_s",
                mb_s(json::canonical(&self.base_doc).len(), "json_canonical"),
            ),
            ("campaign.spec_roundtrip_us", ns("spec_roundtrip") / 1e3),
            ("sim.timer_ns_per_event", ns("timer_event")),
            ("sim.bcast_ns_per_rx", ns("bcast_rx")),
            (
                "sim.sharded2_wall_ratio",
                ns("plain_sharded2") / ns("plain_single"),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn recorded_value_is_the_best_batch() {
        let mut probes = Probes::new(5);
        probes.record("x", 30.0);
        probes.record("x", 10.0);
        probes.record("x", 20.0);
        assert_eq!(probes.best["x"], 10.0);
        // A child's output folds in the same way.
        let mut child = Probes::new(5);
        child.record("x", 7.5);
        child.record("y", 1.0 / 3.0);
        probes.absorb(&child.render()).unwrap();
        assert_eq!(probes.best["x"], 7.5);
        assert_eq!(probes.best["y"], 1.0 / 3.0);
        assert!(probes.absorb("x fast").is_err());
    }

    #[test]
    fn every_probe_names_a_per_layer_metric_once_and_is_positive() {
        let mut probes = Probes::new(5);
        probes.batch();
        probes.long_batch();
        let values = probes.values();
        for (name, v) in &values {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name}");
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        let mut names: Vec<_> = values.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len());
    }

    #[test]
    fn the_probed_route_request_verifies_like_a_real_one() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let ids: Vec<HostIdentity> = (0..2 + SRR_HOPS)
            .map(|_| HostIdentity::generate(512, &mut rng))
            .collect();
        let Message::Rreq(rreq) = secure_rreq(&ids) else {
            panic!("not a route request");
        };
        assert_eq!(rreq.srr.len(), SRR_HOPS);
        assert!(manet_secure::verify_proof(
            &rreq.sip,
            &sigdata::rreq_src(&rreq.sip, rreq.seq),
            &rreq.src_proof
        )
        .is_ok());
    }
}
