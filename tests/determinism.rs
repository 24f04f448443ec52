//! The simulator's reproducibility contract: a scenario is a pure
//! function of its parameters and seed. Any hidden nondeterminism —
//! HashMap iteration order leaking into event order, thread interleaving
//! in a sweep, an unseeded RNG — breaks every experiment in the paper
//! reproduction, so it gets its own regression gate.

use manet_secure::scenario::{Placement, ScenarioBuilder};
use manet_secure::{Counter, HostIdentity};
use manet_sim::{ExecMode, Field, Mobility, SimDuration};

/// One full run: bootstrap, two crossing flows, then the observables.
fn run(seed: u64) -> (f64, usize, u64, u64) {
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .seed(seed)
        .trace(true)
        .secure()
        .build();
    assert!(net.bootstrap(), "seed {seed}: bootstrap failed");
    let report = net.run_flows(&[(0, 4), (1, 3)], 4, SimDuration::from_millis(300));
    (
        report.delivery_or_nan(),
        net.engine.tracer().events().len(),
        net.count(Counter::CtlTxBytes),
        net.count(Counter::RouteForwarded),
    )
}

#[test]
fn same_seed_same_universe() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same scenario spec + seed must reproduce exactly");
    // Guard against the trivial-pass failure mode (nothing simulated).
    assert!(a.0 > 0.0, "no traffic delivered: {a:?}");
    assert!(a.1 > 0, "no trace events recorded: {a:?}");
    assert!(a.3 > 0, "no relay forwarded anything: {a:?}");
}

/// The executor gate, one level up from the engine's unit test: a full
/// secure scenario — mobility, gray zone, loss, staggered joins,
/// timer-heavy DAD — must be byte-identical under the single-threaded
/// oracle and the sharded engine at any shard count, down to the
/// rendered trace stream. This is the tentpole's acceptance bar.
#[test]
fn sharded_and_single_executors_are_one_universe() {
    let full_run = |exec: ExecMode| {
        let mut net = ScenarioBuilder::new()
            .hosts(6)
            .seed(21)
            .trace(true)
            .placement(Placement::Uniform)
            .field(Field::new(600.0, 600.0))
            .mobility(Mobility::RandomWaypoint {
                min_speed: 1.0,
                max_speed: 4.0,
                pause_s: 2.0,
            })
            .radio(manet_sim::RadioConfig {
                loss: 0.05,
                gray_zone: Some(300.0),
                ..manet_sim::RadioConfig::default()
            })
            .exec(exec)
            .secure()
            .build();
        net.bootstrap();
        let report = net.run_flows(&[(0, 5), (2, 3)], 4, SimDuration::from_millis(300));
        let trace = net.engine.tracer().render();
        (report.fingerprint(), net.engine.events_processed(), trace)
    };
    let single = full_run(ExecMode::Single);
    assert!(single.1 > 0, "nothing simulated — vacuous differential");
    for k in [1, 2, 8] {
        let sharded = full_run(ExecMode::Sharded(k));
        assert_eq!(
            single.2, sharded.2,
            "trace streams diverged between single and sharded({k})"
        );
        assert_eq!(
            (&single.0, single.1),
            (&sharded.0, sharded.1),
            "observables diverged between single and sharded({k})"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    // Not a strict requirement of determinism, but if two seeds give a
    // byte-identical universe the seed isn't actually feeding the RNG.
    // Event and byte *counts* may well agree on a lossless chain; who
    // the hosts are may not.
    let universe = |seed: u64| {
        let mut net = ScenarioBuilder::new().hosts(5).seed(seed).secure().build();
        let addresses: Vec<_> = (0..5).map(|i| net.host_ip(i)).collect();
        assert!(net.bootstrap(), "seed {seed}: bootstrap failed");
        let report = net.run_flows(&[(0, 4), (1, 3)], 4, SimDuration::from_millis(300));
        (addresses, net.dns_node().ip(), report.fingerprint())
    };
    let (a, b) = (universe(1), universe(2));
    assert!(
        a.0.iter().all(|ip| !b.0.contains(ip)) && a.1 != b.1,
        "seeds 1 and 2 share an address — seed unused?\n{a:?}\n{b:?}"
    );
    assert_eq!(a, universe(1), "and the same seed, the same hosts");
}

/// A node's identity is `HostIdentity::for_host(seed, node, key_bits)`
/// and nothing else: not how many hosts the scenario has (a 6-host
/// network is the first seven nodes of the 9-host one — what lets a
/// campaign's cells share key pairs), not the order or the thread the
/// build's fork-join generated it in (a serial pass in reverse order
/// finds the same addresses).
#[test]
fn a_hosts_identity_depends_on_seed_and_index_alone() {
    for seed in [3u64, 77] {
        let build = |n: usize| ScenarioBuilder::new().hosts(n).seed(seed).secure().build();
        let (small, large) = (build(6), build(9));
        assert_eq!(small.dns_node().ip(), large.dns_node().ip());
        for i in (0..6).rev() {
            assert_eq!(small.host_ip(i), large.host_ip(i), "seed {seed} h{i}");
        }
        for i in (0..9).rev() {
            let alone = HostIdentity::for_host(seed, i as u32 + 1, 512);
            assert_eq!(large.host_ip(i), alone.ip(), "seed {seed} h{i}");
        }
        assert_eq!(
            large.dns_node().ip(),
            HostIdentity::for_host(seed, 0, 512).ip()
        );
    }
}

/// Key streams are ChaCha12 keyed by the master seed on streams 1, 2, …;
/// the engine reads stream 0 of that key and node `i`'s protocol reads
/// stream 0 of a key derived from `(seed, i)`. No two of them start
/// alike, for seeds 0..8 × 64 nodes.
#[test]
fn key_streams_differ_from_the_engine_and_every_node_stream() {
    use manet_sim::{Ctx, Engine, EngineConfig, NodeId, Pos, Protocol};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use std::sync::{Arc, Mutex};

    type Words = [u32; 4];
    /// Reports the first words of the stream its node was given.
    struct Probe(Arc<Mutex<Vec<Words>>>);
    impl Protocol for Probe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let words = std::array::from_fn(|_| ctx.rng().gen());
            self.0.lock().unwrap().push(words);
        }
        fn on_frame(&mut self, _: &mut Ctx, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, _: &mut Ctx, _: u64) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    for seed in 0..8u64 {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Engine::new(EngineConfig {
            seed,
            ..EngineConfig::default()
        });
        let engine_words: Words = std::array::from_fn(|_| engine.rng().gen());
        for _ in 0..65 {
            let probe = Probe(Arc::clone(&seen));
            engine.add_node(Box::new(probe), Pos::new(0.0, 0.0), Mobility::Static);
        }
        engine.run_until(manet_sim::SimTime(1_000));
        let mut taken = std::mem::take(&mut *seen.lock().unwrap());
        assert_eq!(taken.len(), 65, "every probe started");
        taken.push(engine_words);
        for host in 0..64u64 {
            let mut key_stream = ChaCha12Rng::seed_from_u64(seed);
            key_stream.set_stream(host + 1);
            let words: Words = std::array::from_fn(|_| key_stream.gen());
            assert!(!taken.contains(&words), "seed {seed} host {host}");
            taken.push(words);
        }
    }
}

/// Randomized executor differential at the raw engine level: a
/// scripted protocol schedules, cancels, and re-schedules timers (and
/// mixes in broadcasts, so `Deliver` events interleave with `Timer`
/// events) from inside its own callbacks. Whatever the interleaving —
/// including zero-delay timers and duplicate delays, i.e. same-tick
/// ties — both executors must produce the identical fire log, because
/// protocols observe event *order*, not just event sets. (The wheel
/// against its binary-heap reference is a queue-level proptest in
/// `manet-sim`'s `wheel.rs`.)
mod wheel_heap_script {
    use manet_sim::{
        Ctx, Engine, EngineConfig, ExecMode, LinkCounter, Mobility, NodeId, Pos, Protocol,
        RadioConfig, SimDuration, SimTime, TimerHandle,
    };
    use proptest::prelude::*;
    use std::any::Any;

    /// One generated step, consumed when a timer fires: the action
    /// selector and a raw operand (delay in µs, or a cancel index).
    pub(super) type Step = (u8, u16);

    /// Fire log: (time µs, tag) per timer, (time µs, u64::MAX) per frame.
    type FireLog = Vec<(u64, u64)>;

    struct Script {
        steps: Vec<Step>,
        next: usize,
        handles: Vec<TimerHandle>,
        /// The observable (see [`FireLog`]).
        log: FireLog,
        tag_seq: u64,
    }

    impl Script {
        fn new(steps: Vec<Step>) -> Self {
            Script {
                steps,
                next: 0,
                handles: Vec::new(),
                log: Vec::new(),
                tag_seq: 0,
            }
        }

        fn consume(&mut self, ctx: &mut Ctx, count: usize) {
            for _ in 0..count {
                let Some(&(action, operand)) = self.steps.get(self.next) else {
                    return;
                };
                self.next += 1;
                match action % 4 {
                    0 => {
                        // Schedule; operand 0 is a same-tick timer, and
                        // small ranges force duplicate (tied) delays.
                        let delay = SimDuration::from_micros(u64::from(operand % 2048));
                        let tag = self.tag_seq;
                        self.tag_seq += 1;
                        self.handles.push(ctx.set_timer(delay, tag));
                    }
                    1 => {
                        // Schedule-then-cancel in the same callback.
                        let delay = SimDuration::from_micros(u64::from(operand % 512));
                        let h = ctx.set_timer(delay, 999_000 + self.tag_seq);
                        self.tag_seq += 1;
                        ctx.cancel_timer(h);
                    }
                    2 => {
                        // Cancel an arbitrary earlier handle (it may
                        // have fired already — the late-cancel path).
                        if !self.handles.is_empty() {
                            let i = usize::from(operand) % self.handles.len();
                            ctx.cancel_timer(self.handles[i]);
                        }
                    }
                    _ => {
                        // Mix a Deliver event stream into the ordering.
                        ctx.broadcast(vec![operand as u8; 1 + usize::from(operand % 7)]);
                    }
                }
            }
        }
    }

    impl Protocol for Script {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // Seed the run with a burst so there is always something
            // in flight; everything else happens from on_timer.
            self.consume(ctx, 4);
        }
        fn on_frame(&mut self, ctx: &mut Ctx, _src: NodeId, _bytes: &[u8]) {
            self.log.push((ctx.now().as_micros(), u64::MAX));
            self.consume(ctx, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            self.log.push((ctx.now().as_micros(), tag));
            self.consume(ctx, 2);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_with(
        exec: ExecMode,
        positions: [(f64, f64); 2],
        steps: &[Step],
        seed: u64,
    ) -> (FireLog, FireLog, u64) {
        let mut e = Engine::new(EngineConfig {
            seed,
            exec,
            radio: RadioConfig {
                loss: 0.02,
                ..RadioConfig::default()
            },
            ..EngineConfig::default()
        });
        // Two nodes in range of each other: broadcasts from one arrive
        // at the other, so Deliver and Timer events interleave in the
        // queues under test.
        let a = e.add_node(
            Box::new(Script::new(steps.to_vec())),
            Pos::new(positions[0].0, positions[0].1),
            Mobility::Static,
        );
        let b = e.add_node(
            Box::new(Script::new(steps.iter().rev().cloned().collect())),
            Pos::new(positions[1].0, positions[1].1),
            Mobility::Static,
        );
        e.run_until(SimTime(30_000_000));
        (
            e.protocol_as::<Script>(a).log.clone(),
            e.protocol_as::<Script>(b).log.clone(),
            e.events_processed(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Both nodes in the first of two field bands: one shard runs
        /// the whole script and the other idles, so every timer and
        /// delivery goes through the window and in-window paths with
        /// no cross-shard replay in between.
        #[test]
        fn one_band_pair_fires_in_identical_order_when_sharded(
            steps in proptest::collection::vec((any::<u8>(), any::<u16>()), 16..96),
            seed in 0u64..512,
        ) {
            let pos = [(0.0, 0.0), (100.0, 0.0)];
            let s = run_with(ExecMode::Single, pos, &steps, seed);
            let sh = run_with(ExecMode::Sharded(2), pos, &steps, seed);
            prop_assert_eq!(&s, &sh);
            prop_assert!(s.2 > 0, "vacuous script — nothing dispatched");
        }

        /// Randomized sharded-vs-single differential over shard counts:
        /// the nodes sit at x=300 and x=400 in a 1000 m field, so small
        /// K puts them in one shard and larger K splits them across a
        /// band boundary — every cross-shard delivery goes through the
        /// epoch replay merge, and the fire logs must not notice.
        #[test]
        fn sharded_and_single_fire_in_identical_order(
            steps in proptest::collection::vec((any::<u8>(), any::<u16>()), 16..96),
            seed in 0u64..512,
            k in 1usize..=8,
        ) {
            let pos = [(300.0, 0.0), (400.0, 0.0)];
            let s = run_with(ExecMode::Single, pos, &steps, seed);
            let sh = run_with(ExecMode::Sharded(k), pos, &steps, seed);
            prop_assert_eq!(&s, &sh);
            prop_assert!(s.2 > 0, "vacuous script — nothing dispatched");
        }
    }

    /// Cross-shard edge case: a node teleporting (and random-waypoint
    /// walking) across shard boundaries mid-simulation. Ownership is
    /// pinned at `add_node` time, so a node physically inside another
    /// shard's band keeps dispatching on its original shard — the
    /// observables must not notice under any shard count.
    #[test]
    fn teleport_across_shard_boundary_is_one_universe() {
        let steps: Vec<Step> = (0..64).map(|i| (i as u8, (i as u16) * 37)).collect();
        let run = |exec: ExecMode| {
            let mut e = Engine::new(EngineConfig {
                seed: 9,
                exec,
                radio: RadioConfig {
                    loss: 0.02,
                    ..RadioConfig::default()
                },
                ..EngineConfig::default()
            });
            let mobile = Mobility::RandomWaypoint {
                min_speed: 20.0,
                max_speed: 60.0,
                pause_s: 0.1,
            };
            // Fast walkers straddling the K=2 boundary (x=500): mobility
            // itself carries them across bands between epochs.
            let a = e.add_node(
                Box::new(Script::new(steps.clone())),
                Pos::new(450.0, 0.0),
                mobile.clone(),
            );
            let b = e.add_node(
                Box::new(Script::new(steps.iter().rev().cloned().collect())),
                Pos::new(550.0, 0.0),
                mobile,
            );
            e.run_until(SimTime(2_000_000));
            // Teleport a into the far band (crosses every K≤8 boundary)…
            e.set_position(a, Pos::new(900.0, 0.0));
            e.run_until(SimTime(4_000_000));
            // …and back to the first band.
            e.set_position(a, Pos::new(50.0, 0.0));
            e.run_until(SimTime(8_000_000));
            (
                e.protocol_as::<Script>(a).log.clone(),
                e.protocol_as::<Script>(b).log.clone(),
                e.position(a).x.to_bits(),
                e.position(b).x.to_bits(),
                e.events_processed(),
            )
        };
        let single = run(ExecMode::Single);
        assert!(single.4 > 0, "vacuous run");
        for k in [2, 3, 8] {
            assert_eq!(
                single,
                run(ExecMode::Sharded(k)),
                "teleport universe diverged under sharded({k})"
            );
        }
    }

    /// Cross-shard edge case: a kill landing in the same epoch as
    /// in-flight cross-shard deliveries. Kills are barrier events in
    /// sharded mode, so the epoch must be clipped at the kill tick and
    /// the already-queued deliveries must observe the death in exactly
    /// the `(time, seq)` order the single-threaded oracle uses.
    #[test]
    fn kill_racing_cross_shard_delivery_is_one_universe() {
        // Broadcast-heavy scripts so deliveries are always in flight
        // across the x=500 band boundary when the kills land.
        let steps: Vec<Step> = (0..64u16).map(|i| (3, i * 13)).collect();
        let run = |exec: ExecMode| {
            let mut e = Engine::new(EngineConfig {
                seed: 4,
                exec,
                radio: RadioConfig {
                    loss: 0.0,
                    ..RadioConfig::default()
                },
                ..EngineConfig::default()
            });
            let a = e.add_node(
                Box::new(Script::new(steps.clone())),
                Pos::new(450.0, 0.0),
                Mobility::Static,
            );
            let b = e.add_node(
                Box::new(Script::new(steps.clone())),
                Pos::new(550.0, 0.0),
                Mobility::Static,
            );
            // First kill lands amid the initial broadcast exchange
            // (deliveries depart at t=0 and arrive ≥ 1 ms later); the
            // second mops up mid-conversation.
            e.kill_at(b, SimTime(1_200));
            e.kill_at(a, SimTime(5_000_000));
            e.run_until(SimTime(10_000_000));
            let m = e.metrics();
            (
                e.protocol_as::<Script>(a).log.clone(),
                e.protocol_as::<Script>(b).log.clone(),
                m[LinkCounter::RxFrames],
                m[LinkCounter::RxDroppedDead],
                e.events_processed(),
            )
        };
        let single = run(ExecMode::Single);
        assert!(
            single.3 > 0,
            "no delivery raced the kill — vacuous edge case: {single:?}"
        );
        for k in [2, 3, 8] {
            assert_eq!(
                single,
                run(ExecMode::Sharded(k)),
                "kill-race universe diverged under sharded({k})"
            );
        }
    }
}
