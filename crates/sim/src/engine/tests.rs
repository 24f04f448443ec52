#![cfg(test)]
//! Engine unit tests (`#[cfg(test)] mod tests;` in `mod.rs`): link
//! semantics, timers, lifecycle, and the engine-level differential
//! gates (channel, executor, tick hook).

use super::*;
use crate::trace::Dir;
use std::any::Any;

/// Bounded-growth regression hooks.
impl Engine {
    /// Armed-and-unfired timer entries across all shards.
    fn timers_pending_len(&self) -> usize {
        self.shards.iter().map(|s| s.timers.pending_len()).sum()
    }

    /// Live cancellation entries across all shards.
    fn timers_cancelled_len(&self) -> usize {
        self.shards.iter().map(|s| s.timers.cancelled_len()).sum()
    }
}

/// Minimal protocol: counts frames, echoes once, tracks timers.
struct Echo {
    frames: Vec<(NodeId, Vec<u8>)>,
    timers: Vec<u64>,
    link_failures: Vec<NodeId>,
    start_broadcast: Option<Vec<u8>>,
    unicast_on_start: Option<(NodeId, Vec<u8>)>,
    /// Arm a timer this long after every received frame.
    timer_on_frame: Option<SimDuration>,
    /// Frames seen by the speculative prefetch pass (`Cell`: the
    /// pass takes `&self` by contract).
    prefetched: std::cell::Cell<u64>,
}

impl Echo {
    fn new() -> Self {
        Echo {
            frames: Vec::new(),
            timers: Vec::new(),
            link_failures: Vec::new(),
            start_broadcast: None,
            unicast_on_start: None,
            timer_on_frame: None,
            prefetched: std::cell::Cell::new(0),
        }
    }
}

impl Protocol for Echo {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(b) = self.start_broadcast.take() {
            ctx.broadcast(b);
        }
        if let Some((to, b)) = self.unicast_on_start.take() {
            ctx.unicast(to, b);
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx, src: NodeId, bytes: &[u8]) {
        ctx.trace(
            Dir::Rx,
            "ECHO",
            format_args!("{} bytes from n{}", bytes.len(), src.0),
        );
        ctx.sample("echo.rx_len", bytes.len() as f64);
        if let Some(delay) = self.timer_on_frame {
            ctx.set_timer(delay, self.frames.len() as u64);
        }
        self.frames.push((src, bytes.to_vec()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        ctx.trace(Dir::Note, "TIMER", format_args!("tag {tag}"));
        self.timers.push(tag);
    }
    fn on_link_failure(&mut self, _ctx: &mut Ctx, to: NodeId, _bytes: &[u8]) {
        self.link_failures.push(to);
    }
    fn prefetch_frame(&self, _src: NodeId, _bytes: &[u8]) {
        self.prefetched.set(self.prefetched.get() + 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn engine() -> Engine {
    engine_with(false)
}

fn engine_with(one_cell: bool) -> Engine {
    with_channel(
        Engine::new(EngineConfig {
            radio: RadioConfig {
                range: 150.0,
                loss: 0.0,
                ..RadioConfig::default()
            },
            exec: ExecMode::Single,
            ..EngineConfig::default()
        }),
        one_cell,
    )
}

/// The channel oracle: with `one_cell`, a grid whose single cell holds
/// every node, so each broadcast visits every live node in `NodeId`
/// order — the linear scan, through the same code. Call before the
/// first `add_node`.
fn with_channel(mut e: Engine, one_cell: bool) -> Engine {
    if one_cell {
        e.grid = SpatialGrid::new(&e.cfg.field, f64::INFINITY);
    }
    e
}

#[test]
fn broadcast_reaches_only_in_range_nodes() {
    for one_cell in [false, true] {
        let mut e = engine_with(one_cell);
        let mut sender = Echo::new();
        sender.start_broadcast = Some(vec![1, 2, 3]);
        let _a = e.add_node(Box::new(sender), Pos::new(0.0, 0.0), Mobility::Static);
        let b = e.add_node(
            Box::new(Echo::new()),
            Pos::new(100.0, 0.0),
            Mobility::Static,
        );
        let c = e.add_node(
            Box::new(Echo::new()),
            Pos::new(400.0, 0.0),
            Mobility::Static,
        );
        e.run_until(SimTime(1_000_000));
        assert_eq!(
            e.protocol_as::<Echo>(b).frames.len(),
            1,
            "one_cell={one_cell}"
        );
        assert_eq!(e.protocol_as::<Echo>(b).frames[0].1, vec![1, 2, 3]);
        assert!(
            e.protocol_as::<Echo>(c).frames.is_empty(),
            "one_cell={one_cell}"
        );
    }
}

#[test]
fn unicast_delivers_and_fails_over_range() {
    let mut e = engine();
    let mut s1 = Echo::new();
    s1.unicast_on_start = Some((NodeId(1), vec![9]));
    let a = e.add_node(Box::new(s1), Pos::new(0.0, 0.0), Mobility::Static);
    let b = e.add_node(Box::new(Echo::new()), Pos::new(50.0, 0.0), Mobility::Static);
    // Far node: unicast must produce a link failure at the sender.
    let mut s2 = Echo::new();
    s2.unicast_on_start = Some((NodeId(3), vec![7]));
    let c = e.add_node(Box::new(s2), Pos::new(500.0, 0.0), Mobility::Static);
    let d = e.add_node(
        Box::new(Echo::new()),
        Pos::new(900.0, 0.0),
        Mobility::Static,
    );
    e.run_until(SimTime(1_000_000));
    assert_eq!(e.protocol_as::<Echo>(b).frames.len(), 1);
    assert_eq!(e.protocol_as::<Echo>(a).link_failures.len(), 0);
    assert!(e.protocol_as::<Echo>(d).frames.is_empty());
    assert_eq!(e.protocol_as::<Echo>(c).link_failures, vec![d]);
    assert_eq!(e.metrics()[LinkCounter::TxUnicastUnreachable], 1);
}

#[test]
fn timers_fire_in_order_and_cancel_works() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(0)); // process Start
    let cancel_me = e.with_protocol::<Echo, _>(a, |_p, ctx| {
        ctx.set_timer(SimDuration::from_millis(10), 1);
        let h = ctx.set_timer(SimDuration::from_millis(20), 2);
        ctx.set_timer(SimDuration::from_millis(30), 3);
        h
    });
    e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.cancel_timer(cancel_me));
    e.run_until(SimTime(1_000_000));
    assert_eq!(e.protocol_as::<Echo>(a).timers, vec![1, 3]);
}

#[test]
fn timer_set_and_cancelled_in_same_callback_never_fires() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(0));
    e.with_protocol::<Echo, _>(a, |_p, ctx| {
        let h = ctx.set_timer(SimDuration::from_millis(5), 9);
        ctx.cancel_timer(h);
    });
    e.run_until(SimTime(1_000_000));
    assert!(e.protocol_as::<Echo>(a).timers.is_empty());
    assert_eq!(e.timers_cancelled_len(), 0);
    assert_eq!(e.timers_pending_len(), 0);
}

#[test]
fn timer_bookkeeping_stays_bounded() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(0));
    // Arm + cancel-before-fire, then cancel-after-fire, many times:
    // the regression this guards is `cancelled` growing without bound
    // when protocols cancel timers that already fired.
    for round in 0..100u64 {
        let h = e.with_protocol::<Echo, _>(a, |_p, ctx| {
            ctx.set_timer(SimDuration::from_millis(1), round)
        });
        if round % 2 == 0 {
            e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.cancel_timer(h));
            e.run_until(e.now() + SimDuration::from_millis(2));
        } else {
            e.run_until(e.now() + SimDuration::from_millis(2)); // fires
            e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.cancel_timer(h)); // late cancel
        }
    }
    assert_eq!(e.timers_cancelled_len(), 0, "cancel set leaked");
    assert_eq!(e.timers_pending_len(), 0, "pending set leaked");
    assert_eq!(e.protocol_as::<Echo>(a).timers.len(), 50);
}

#[test]
fn timer_handles_are_namespaced_per_node() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    let b = e.add_node(Box::new(Echo::new()), Pos::new(50.0, 0.0), Mobility::Static);
    e.run_until(SimTime(0));
    let ha = e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.set_timer(SimDuration::from_millis(5), 1));
    let hb = e.with_protocol::<Echo, _>(b, |_p, ctx| ctx.set_timer(SimDuration::from_millis(5), 2));
    assert_ne!(ha, hb, "two nodes' first handles must differ");
    // Cancelling b's timer must not touch a's.
    e.with_protocol::<Echo, _>(b, |_p, ctx| ctx.cancel_timer(hb));
    e.run_until(SimTime(1_000_000));
    assert_eq!(e.protocol_as::<Echo>(a).timers, vec![1]);
    assert!(e.protocol_as::<Echo>(b).timers.is_empty());
}

#[test]
fn dead_nodes_neither_send_nor_receive() {
    let mut e = engine();
    let mut s = Echo::new();
    s.start_broadcast = Some(vec![1]);
    let _a = e.add_node(Box::new(s), Pos::new(0.0, 0.0), Mobility::Static);
    let b = e.add_node(Box::new(Echo::new()), Pos::new(50.0, 0.0), Mobility::Static);
    e.kill_at(b, SimTime(0));
    // Kill is scheduled with seq after Start events but before the
    // broadcast delivery arrives (delivery has ≥1ms latency).
    e.run_until(SimTime(1_000_000));
    assert!(e.protocol_as::<Echo>(b).frames.is_empty());
    assert!(!e.is_alive(b));
}

#[test]
fn staggered_join_delays_start() {
    let mut e = engine();
    let mut s = Echo::new();
    s.start_broadcast = Some(vec![5]);
    // b joins at t=2s; a broadcasts at t=1s; b must not hear it.
    let a = e.add_node_at(
        Box::new(Echo::new()),
        Pos::new(0.0, 0.0),
        Mobility::Static,
        SimTime(1_000_000),
    );
    let b = e.add_node_at(
        Box::new(Echo::new()),
        Pos::new(50.0, 0.0),
        Mobility::Static,
        SimTime(2_000_000),
    );
    e.run_until(SimTime(500_000));
    assert!(e.neighbors(a).is_empty(), "nobody started yet");
    e.run_until(SimTime(1_500_000));
    e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.broadcast(vec![5]));
    e.run_until(SimTime(1_600_000));
    assert!(
        e.protocol_as::<Echo>(b).frames.is_empty(),
        "not yet started"
    );
    e.run_until(SimTime(3_000_000));
    e.with_protocol::<Echo, _>(a, |_p, ctx| ctx.broadcast(vec![6]));
    e.run_until(SimTime(4_000_000));
    assert_eq!(e.protocol_as::<Echo>(b).frames.len(), 1);
}

fn lossy_mobile_run(seed: u64, one_cell: bool, exec: ExecMode) -> (u64, u64, Vec<u64>) {
    lossy_mobile_run_hooked(seed, one_cell, exec, false)
        .0
        .summary
}

/// Everything a run exposes to an observer.
#[derive(PartialEq, Debug)]
struct Observed {
    /// `(phy.rx_frames, phy.rx_dropped_loss, final x positions)`.
    summary: (u64, u64, Vec<u64>),
    events: u64,
    counters: [u64; LinkCounter::ALL.len()],
    samples: Vec<(&'static str, Vec<f64>)>,
    trace: String,
}

fn lossy_mobile_run_hooked(
    seed: u64,
    one_cell: bool,
    exec: ExecMode,
    hook: bool,
) -> (Observed, u64, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let config = EngineConfig {
        seed,
        radio: RadioConfig {
            loss: 0.3,
            ..RadioConfig::default()
        },
        trace: true,
        exec,
        ..EngineConfig::default()
    };
    let mut e = with_channel(Engine::new(config), one_cell);
    let hook_calls = Arc::new(AtomicU64::new(0));
    if hook {
        let calls = Arc::clone(&hook_calls);
        e.set_tick_hook(move || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
    }
    for i in 0..10 {
        let mut s = Echo::new();
        s.start_broadcast = Some(vec![i as u8; 100]);
        // Well under the 1 ms lookahead: under `Sharded` these fire
        // inside the window that set them, often *before* deliveries
        // the window had already collected.
        s.timer_on_frame = Some(SimDuration(100));
        e.add_node(
            Box::new(s),
            Pos::new(i as f64 * 40.0, 0.0),
            Mobility::RandomWaypoint {
                min_speed: 1.0,
                max_speed: 5.0,
                pause_s: 1.0,
            },
        );
    }
    e.run_until(SimTime(10_000_000));
    let prefetches = (0..10)
        .map(|i| e.protocol_as::<Echo>(NodeId(i)).prefetched.get())
        .sum();
    let m = e.metrics();
    let observed = Observed {
        summary: (
            m[LinkCounter::RxFrames],
            m[LinkCounter::RxDroppedLoss],
            (0..10).map(|i| e.position(NodeId(i)).x.to_bits()).collect(),
        ),
        events: e.events_processed(),
        counters: LinkCounter::ALL.map(|c| m[c]),
        samples: m
            .series_names()
            .map(|n| (n, m.series(n).samples().to_vec()))
            .collect(),
        trace: e.tracer().render(),
    };
    (observed, hook_calls.load(Ordering::Relaxed), prefetches)
}

#[test]
fn determinism_same_seed_same_metrics() {
    let run = |seed| lossy_mobile_run(seed, false, ExecMode::Single);
    assert_eq!(run(7), run(7), "same seed must reproduce exactly");
    assert_ne!(run(7).1, run(8).1, "different seeds should diverge");
}

#[test]
fn grid_and_linear_channels_are_bit_identical() {
    // Same seed, mobile and lossy: every RNG draw (loss, delay,
    // waypoints) must land identically whichever channel indexes the
    // receivers: the grid against its one-cell oracle.
    for seed in [7, 8, 9] {
        assert_eq!(
            lossy_mobile_run(seed, false, ExecMode::Single),
            lossy_mobile_run(seed, true, ExecMode::Single),
            "grid and one-cell channels diverged at seed {seed}"
        );
    }
}

/// Each node's received frames, in node order.
type RxLog = Vec<Vec<(NodeId, Vec<u8>)>>;

/// Per-node received frames, every channel counter, and the rendered
/// trace (receive times included) after each node of a random field —
/// some snapped onto exact cell boundaries, some mobile — broadcasts
/// once over a lossy, jittered, optionally gray-zone radio.
fn broadcast_round(
    one_cell: bool,
    raw: &[(f64, f64, bool, bool)],
    radio: &RadioConfig,
    seed: u64,
) -> (RxLog, Vec<u64>, String) {
    const FIELD: f64 = 1000.0;
    let config = EngineConfig {
        field: Field::new(FIELD, FIELD),
        radio: radio.clone(),
        seed,
        trace: true,
        exec: ExecMode::Single,
        ..EngineConfig::default()
    };
    let mut e = with_channel(Engine::new(config), one_cell);
    let cell = radio.max_range();
    let ids: Vec<NodeId> = raw
        .iter()
        .map(|&(fx, fy, snap, mobile)| {
            let at = |f: f64| match snap {
                // Exactly k cell widths: lands on a bucket boundary.
                true => ((f * FIELD / cell).round() * cell).min(FIELD),
                false => f * FIELD,
            };
            let mobility = match mobile {
                true => Mobility::RandomWaypoint {
                    min_speed: 5.0,
                    max_speed: 40.0,
                    pause_s: 0.0,
                },
                false => Mobility::Static,
            };
            e.add_node(Box::new(Echo::new()), Pos::new(at(fx), at(fy)), mobility)
        })
        .collect();
    e.run_until(SimTime(1));
    for (round, &id) in ids.iter().enumerate() {
        e.with_protocol::<Echo, _>(id, move |_p, ctx| ctx.broadcast(vec![round as u8; 16]));
        let until = e.now() + SimDuration::from_millis(50);
        e.run_until(until);
    }
    let frames = ids
        .iter()
        .map(|&id| e.protocol_as::<Echo>(id).frames.clone())
        .collect();
    let m = e.metrics();
    let counters = [
        LinkCounter::RxFrames,
        LinkCounter::RxDroppedLoss,
        LinkCounter::TxBroadcasts,
    ]
    .map(|c| m[c])
    .to_vec();
    (frames, counters, e.tracer().render())
}

mod broadcast_oracle {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Same seed ⇒ every broadcast lands on exactly the same
        /// receivers at exactly the same times whether the grid or its
        /// one-cell oracle enumerates the candidates — the RNG-stream
        /// equivalence the NodeId-order invariant exists for.
        #[test]
        fn same_seed_broadcasts_are_bit_identical(
            raw in proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, any::<bool>(), any::<bool>()), 2..24),
            range in 60.0f64..400.0,
            gray_frac in 1.0f64..2.0,
            with_gray in any::<bool>(),
            loss in 0.0f64..0.5,
            seed in 0u64..1000,
        ) {
            let radio = RadioConfig {
                range,
                loss,
                gray_zone: with_gray.then_some(range * gray_frac),
                ..RadioConfig::default()
            };
            let grid = broadcast_round(false, &raw, &radio, seed);
            prop_assert!(grid.1[2] > 0, "nothing broadcast");
            prop_assert_eq!(grid, broadcast_round(true, &raw, &radio, seed));
        }
    }
}

#[test]
fn sharded_and_single_executors_are_bit_identical() {
    // The engine-level differential gate for the sharded executor:
    // metrics and final positions (every mobility RNG draw) must
    // match the single-threaded oracle for any shard count,
    // including shards that own no nodes. The byte-exact *trace*
    // gate lives in tests/determinism.rs.
    let oracle = lossy_mobile_run(11, false, ExecMode::Single);
    for k in [1, 2, 3, 8, 16] {
        assert_eq!(
            lossy_mobile_run(11, false, ExecMode::Sharded(k)),
            oracle,
            "sharded({k}) diverged from single"
        );
    }
}

#[test]
fn noop_tick_hook_changes_nothing_observable() {
    // A hook only adds the prefetch scan and the hook call to the one
    // tick loop each executor has: events, every counter and sample,
    // and the rendered trace must not move — while the hook and the
    // prefetch pass actually run (every frame delivered to a live
    // started node is seen).
    for exec in [ExecMode::Single, ExecMode::Sharded(3)] {
        let (plain, hook_calls, prefetches) = lossy_mobile_run_hooked(11, false, exec, false);
        assert_eq!((hook_calls, prefetches), (0, 0), "no hook, no prefetch");
        assert!(!plain.trace.is_empty() && !plain.samples.is_empty());
        let (hooked, hook_calls, prefetches) = lossy_mobile_run_hooked(11, false, exec, true);
        assert_eq!(hooked, plain, "a no-op hook changed the {exec:?} universe");
        assert!(hook_calls > 0, "tick hook never ran under {exec:?}");
        assert!(
            prefetches >= hooked.summary.0,
            "prefetch pass missed delivered frames under {exec:?}"
        );
    }
}

#[test]
fn with_protocol_under_sharded_matches_single() {
    // `with_protocol` is the one serial dispatch that runs outside any
    // tick: under `Sharded` it still has to hand the injected timer and
    // cross-shard delivery the sequence numbers `Single` would, and
    // put its trace line in the same place.
    let run = |exec| {
        let mut e = Engine::new(EngineConfig {
            radio: RadioConfig {
                range: 900.0,
                loss: 0.0,
                ..RadioConfig::default()
            },
            trace: true,
            exec,
            ..EngineConfig::default()
        });
        // 1000 m field: a and b sit in different bands of two shards.
        let mut s = Echo::new();
        s.start_broadcast = Some(vec![1; 10]);
        let a = e.add_node(Box::new(s), Pos::new(100.0, 0.0), Mobility::Static);
        let b = e.add_node(
            Box::new(Echo::new()),
            Pos::new(900.0, 0.0),
            Mobility::Static,
        );
        e.run_until(SimTime(1_000_000));
        let seq_before = e.seq;
        e.with_protocol::<Echo, _>(a, |_p, ctx| {
            ctx.trace(Dir::Tx, "INJECT", "app send");
            ctx.set_timer(SimDuration::from_millis(5), 42);
            ctx.broadcast(vec![2; 20]);
        });
        let injected = (seq_before, e.seq);
        e.run_until(SimTime(2_000_000));
        (
            injected,
            e.tracer().render(),
            e.protocol_as::<Echo>(b).frames.clone(),
            e.protocol_as::<Echo>(a).timers.clone(),
            e.events_processed(),
        )
    };
    let oracle = run(ExecMode::Single);
    let (seq_before, seq_after) = oracle.0;
    assert_eq!(seq_after - seq_before, 2, "one timer + one delivery");
    assert!(oracle.1.contains("INJECT"), "trace line missing");
    assert_eq!(oracle.2.len(), 2, "start broadcast + injected broadcast");
    assert_eq!(oracle.3, vec![42]);
    assert_eq!(run(ExecMode::Sharded(2)), oracle);
}

#[test]
#[should_panic(expected = "add_node_at: node 1 would join at t=1.000000s, before now t=2.000000s")]
fn add_node_at_rejects_a_join_in_the_past() {
    let mut e = engine();
    e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(2_000_000));
    e.add_node_at(
        Box::new(Echo::new()),
        Pos::new(50.0, 0.0),
        Mobility::Static,
        SimTime(1_000_000),
    );
}

#[test]
#[should_panic(expected = "kill_at: node 0 would die at t=1.000000s, before now t=2.000000s")]
fn kill_at_rejects_a_death_in_the_past() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(2_000_000));
    e.kill_at(a, SimTime(1_000_000));
}

#[test]
fn sharded_executor_counts_every_event() {
    let count = |exec| {
        let mut e = Engine::new(EngineConfig {
            radio: RadioConfig {
                loss: 0.0,
                ..RadioConfig::default()
            },
            exec,
            ..EngineConfig::default()
        });
        for i in 0..6 {
            let mut s = Echo::new();
            s.start_broadcast = Some(vec![i as u8; 20]);
            e.add_node(
                Box::new(s),
                Pos::new(i as f64 * 120.0, 0.0),
                Mobility::Static,
            );
        }
        e.run_until(SimTime(5_000_000));
        e.events_processed()
    };
    assert_eq!(count(ExecMode::Single), count(ExecMode::Sharded(4)));
}

#[test]
fn metrics_track_tx_rx() {
    let mut e = engine();
    let mut s = Echo::new();
    s.start_broadcast = Some(vec![0; 50]);
    e.add_node(Box::new(s), Pos::new(0.0, 0.0), Mobility::Static);
    e.add_node(Box::new(Echo::new()), Pos::new(10.0, 0.0), Mobility::Static);
    e.add_node(Box::new(Echo::new()), Pos::new(20.0, 0.0), Mobility::Static);
    e.run_until(SimTime(1_000_000));
    assert_eq!(e.metrics()[LinkCounter::TxFrames], 1);
    assert_eq!(e.metrics()[LinkCounter::TxBytes], 50);
    assert_eq!(e.metrics()[LinkCounter::RxFrames], 2);
    assert_eq!(e.metrics()[LinkCounter::RxBytes], 100);
}

#[test]
fn neighbors_reflect_positions() {
    for one_cell in [false, true] {
        let mut e = engine_with(one_cell);
        let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
        let b = e.add_node(
            Box::new(Echo::new()),
            Pos::new(100.0, 0.0),
            Mobility::Static,
        );
        let c = e.add_node(
            Box::new(Echo::new()),
            Pos::new(1000.0, 0.0),
            Mobility::Static,
        );
        e.run_until(SimTime(1));
        assert_eq!(e.neighbors(a), vec![b], "one_cell={one_cell}");
        e.set_position(c, Pos::new(50.0, 0.0));
        // Ascending-NodeId order is part of the API contract now.
        assert_eq!(e.neighbors(a), vec![b, c], "one_cell={one_cell}");
    }
}

#[test]
fn neighbors_into_reuses_buffer() {
    let mut e = engine();
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    let b = e.add_node(Box::new(Echo::new()), Pos::new(60.0, 0.0), Mobility::Static);
    e.run_until(SimTime(1));
    let mut buf = vec![NodeId(99); 8]; // stale content must be cleared
    e.neighbors_into(a, &mut buf);
    assert_eq!(buf, vec![b]);
    e.neighbors_into(b, &mut buf);
    assert_eq!(buf, vec![a]);
}

#[test]
fn connectivity_analysis() {
    let mut e = engine(); // range 150
    let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    let b = e.add_node(
        Box::new(Echo::new()),
        Pos::new(100.0, 0.0),
        Mobility::Static,
    );
    let c = e.add_node(
        Box::new(Echo::new()),
        Pos::new(200.0, 0.0),
        Mobility::Static,
    );
    let d = e.add_node(
        Box::new(Echo::new()),
        Pos::new(900.0, 0.0),
        Mobility::Static,
    );
    e.run_until(SimTime(1));
    // a-b-c form a chain; d is isolated.
    let mut comp = e.connected_component(a);
    comp.sort();
    assert_eq!(comp, vec![a, b, c]);
    assert!(!e.is_connected());
    assert_eq!(e.connected_component(d), vec![d]);
    // Killing the bridge splits a from c.
    e.kill_at(b, SimTime(2));
    e.run_until(SimTime(3));
    assert_eq!(e.connected_component(a), vec![a]);
    // Moving d next to a reconnects that pair (still 160 m from c,
    // out of the 150 m range).
    e.set_position(d, Pos::new(40.0, 0.0));
    let mut comp = e.connected_component(a);
    comp.sort();
    assert_eq!(comp, vec![a, d]);
}

#[test]
fn empty_and_single_node_graphs_are_connected() {
    let mut e = engine();
    assert!(e.is_connected(), "vacuously connected");
    e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
    e.run_until(SimTime(1));
    assert!(e.is_connected());
}

#[test]
fn run_until_advances_time_even_when_idle() {
    let mut e = engine();
    e.run_until(SimTime(5_000_000));
    assert_eq!(e.now(), SimTime(5_000_000));
}

#[test]
fn gray_zone_sizes_grid_cells_to_max_range() {
    // With a gray zone the farthest receiver sits beyond `range`;
    // the grid must still find it (cell size = max_range, not range).
    for one_cell in [false, true] {
        let config = EngineConfig {
            radio: RadioConfig {
                range: 100.0,
                loss: 0.0,
                gray_zone: Some(220.0),
                jitter: SimDuration::ZERO,
                ..RadioConfig::default()
            },
            exec: ExecMode::Single,
            ..EngineConfig::default()
        };
        let mut e = with_channel(Engine::new(config), one_cell);
        let mut s = Echo::new();
        s.start_broadcast = Some(vec![1]);
        let _a = e.add_node(Box::new(s), Pos::new(0.0, 0.0), Mobility::Static);
        // 150 m: inside the gray band, outside crisp range. Reception
        // probability ~0.58; with the same seed both channels make
        // the same draw — and it must at least be *attempted*.
        let b = e.add_node(
            Box::new(Echo::new()),
            Pos::new(150.0, 0.0),
            Mobility::Static,
        );
        e.run_until(SimTime(1_000_000));
        let heard = e.protocol_as::<Echo>(b).frames.len()
            + e.metrics()[LinkCounter::RxDroppedLoss] as usize;
        assert_eq!(
            heard, 1,
            "one_cell={one_cell}: gray-zone receiver never considered"
        );
        // But b is NOT a crisp-range neighbor.
        assert!(e.neighbors(b).is_empty(), "one_cell={one_cell}");
    }
}

#[test]
fn exec_mode_parse_accepts_valid_and_rejects_garbage() {
    assert_eq!(parse_exec("single"), Some(ExecMode::Single));
    assert_eq!(parse_exec("sharded:4"), Some(ExecMode::Sharded(4)));
    assert_eq!(parse_exec("sharded:0"), None);
    assert_eq!(parse_exec("sharded:"), None);
    assert_eq!(parse_exec("parallel"), None);
    assert_eq!(parse_exec(""), None);
}

/// Trace detail is rendered only when the tracer is on: protocols pass
/// `format_args!` on hot paths and pay nothing with tracing off.
#[test]
fn trace_detail_is_not_formatted_with_tracing_off() {
    struct Rendered<'a>(&'a std::cell::Cell<u32>);
    impl std::fmt::Display for Rendered<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("rendered")
        }
    }
    for trace in [false, true] {
        let mut e = Engine::new(EngineConfig {
            trace,
            exec: ExecMode::Single,
            ..EngineConfig::default()
        });
        let a = e.add_node(Box::new(Echo::new()), Pos::new(0.0, 0.0), Mobility::Static);
        let renders = std::cell::Cell::new(0);
        e.with_protocol::<Echo, _>(a, |_p, ctx| {
            ctx.trace(Dir::Note, "LAZY", Rendered(&renders));
        });
        assert_eq!(renders.get(), u32::from(trace));
        assert_eq!(e.tracer().render().contains("rendered"), trace);
    }
}
