//! Integration tests for secure route discovery and maintenance
//! (Sections 3.3–3.4): multi-hop discovery, cached CREP replies, RERR on
//! link breakage, route re-discovery under mobility.

use manet_secure::scenario::{Network, Placement, ScenarioBuilder};
use manet_secure::{Counter, SecureNode};
use manet_sim::{Field, LinkCounter, Mobility, SimDuration, SimTime};

fn chain(n: usize, seed: u64) -> Network<SecureNode> {
    ScenarioBuilder::new().hosts(n).seed(seed).secure().build()
}

/// Discovered route lengths match the chain geometry exactly.
#[test]
fn discovered_routes_have_expected_length() {
    let mut net = chain(6, 20);
    assert!(net.bootstrap());
    net.run_flows(&[(0, 5)], 3, SimDuration::from_millis(400));
    let now = net.engine.now();
    let h5 = net.host_ip(5);
    let relays = net
        .host(0)
        .cached_route(&h5, now)
        .expect("route cached after flow");
    // Chain h0..h5: the relays are exactly h1..h4 in order.
    let expect: Vec<_> = (1..5).map(|i| net.host_ip(i)).collect();
    assert_eq!(relays, expect);
    assert!(net.delivery_ratio().expect("packets sent") > 0.9);
}

/// Every intermediate hop signs the SRR; the destination verifies all of
/// them, so the engine-wide relay counter matches the chain length.
#[test]
fn rreq_relays_sign_and_destination_accepts() {
    let mut net = chain(5, 21);
    assert!(net.bootstrap());
    net.run_flows(&[(0, 4)], 2, SimDuration::from_millis(400));
    assert!(net.count(Counter::RouteDiscovered) >= 1);
    assert_eq!(
        net.count(Counter::SecRreqRejected),
        0,
        "honest SRRs all verify"
    );
    assert!(
        net.count(Counter::RouteRreqRelayed) >= 3,
        "h1..h3 relayed with signatures"
    );
    assert_eq!(net.host(4).stats()[Counter::SecRreqRejected], 0);
}

/// A node holding a self-discovered route answers a later requester with
/// a CREP instead of letting the flood run to the destination (Figure 3).
#[test]
fn cached_route_served_as_crep() {
    let mut net = chain(6, 22);
    assert!(net.bootstrap());
    // h0 discovers a route to h5 first.
    net.run_flows(&[(0, 5)], 2, SimDuration::from_millis(400));
    let before = net.count(Counter::RouteCrepSent);
    // h1's request can now be answered from h0's cache (h0 is adjacent).
    net.run_flows(&[(1, 5)], 2, SimDuration::from_millis(400));
    assert!(
        net.count(Counter::RouteCrepSent) > before,
        "some node served a cached route"
    );
    assert!(net.delivery_ratio().expect("packets sent") > 0.9);
    assert_eq!(net.count(Counter::SecCrepRejected), 0);
}

/// Killing a relay mid-flow produces a verified RERR at the source and
/// removes the dead route from its cache.
#[test]
fn node_death_triggers_rerr_and_cache_eviction() {
    let mut net = chain(5, 23);
    assert!(net.bootstrap());
    net.run_flows(&[(0, 4)], 3, SimDuration::from_millis(300));
    assert!(
        net.delivery_ratio().expect("packets sent") > 0.9,
        "healthy before the kill"
    );

    // Kill h2 (the middle relay), then keep sending.
    let h2 = net.hosts[2];
    let kill_at = net.engine.now() + SimDuration::from_millis(50);
    net.engine.kill_at(h2, kill_at);
    net.run_flows(&[(0, 4)], 5, SimDuration::from_millis(300));

    assert!(
        net.count(Counter::RouteRerrSent) >= 1,
        "h1 reported the break"
    );
    assert_eq!(
        net.count(Counter::SecRerrRejected),
        0,
        "the report verified"
    );
    let h0 = net.host(0);
    assert!(
        h0.stats()[Counter::AppDataFailed] > 0,
        "chain is partitioned now"
    );
    let h4 = net.host_ip(4);
    assert!(
        h0.cached_route(&h4, net.engine.now()).is_none(),
        "broken route evicted"
    );
}

/// With the destination answering several RREQ copies, the source
/// accumulates alternate routes (the raw material for credit-based
/// avoidance).
#[test]
fn route_diversity_from_multiple_rreps() {
    let mut net = ScenarioBuilder::new()
        .hosts(11)
        .placement(Placement::Grid {
            cols: 4,
            spacing: 180.0,
        })
        .seed(24)
        .secure()
        .build();
    assert!(net.bootstrap());
    net.run_flows(&[(0, 10)], 3, SimDuration::from_millis(400));
    // rrep_multi = 3 by default: at least one extra RREP should have been
    // produced and cached beyond the first.
    assert!(
        net.count(Counter::RouteAlternateCached) >= 1,
        "alternate routes cached: {}",
        net.count(Counter::RouteAlternateCached)
    );
    assert!(net.delivery_ratio().expect("packets sent") > 0.9);
}

/// Under random-waypoint mobility the protocol keeps rediscovering and
/// keeps delivering (route maintenance end to end).
#[test]
fn mobility_rediscovery_sustains_delivery() {
    let mut net = ScenarioBuilder::new()
        .hosts(10)
        .placement(Placement::Uniform)
        .field(Field::new(700.0, 700.0))
        .mobility(Mobility::RandomWaypoint {
            min_speed: 5.0,
            max_speed: 15.0,
            pause_s: 0.5,
        })
        .seed(25)
        .secure()
        .build();
    assert!(net.bootstrap());
    let report = net.run_flows(&[(0, 9), (3, 6)], 40, SimDuration::from_millis(400));
    let ratio = report.delivery_ratio.expect("packets sent");
    assert!(
        ratio > 0.5,
        "mobile delivery ratio {ratio} too low — rediscovery broken?"
    );
}

/// Deterministic rediscovery: kill the relay on the active path in a
/// grid with an alternate path — the source re-discovers and delivery
/// continues.
#[test]
fn rediscovery_after_relay_death_with_alternate_path() {
    let mut net = ScenarioBuilder::new()
        .hosts(8)
        .placement(Placement::Grid {
            cols: 3,
            spacing: 180.0,
        })
        .seed(26)
        .secure()
        .build();
    assert!(net.bootstrap());
    net.run_flows(&[(0, 7)], 3, SimDuration::from_millis(300));
    assert!(net.delivery_ratio().expect("packets sent") > 0.9);

    // Find the relays actually in use and kill the first one.
    let dst = net.host_ip(7);
    let relays = net
        .host(0)
        .cached_route(&dst, net.engine.now())
        .expect("route in use");
    assert!(!relays.is_empty(), "grid route is multi-hop");
    let victim_idx = (0..8)
        .find(|&i| net.host_ip(i) == relays[0])
        .expect("relay is a host");
    let kill_at = net.engine.now() + SimDuration::from_millis(50);
    net.engine.kill_at(net.hosts[victim_idx], kill_at);

    let acked_before = net.host(0).stats()[Counter::AppDataAcked];
    net.run_flows(&[(0, 7)], 8, SimDuration::from_millis(400));
    let h0 = net.host(0);
    assert!(
        h0.stats()[Counter::AppDataAcked] > acked_before + 4,
        "delivery resumed over an alternate path ({} → {})",
        acked_before,
        h0.stats()[Counter::AppDataAcked]
    );
}

/// Data queued before any route exists is flushed once discovery
/// completes (send-buffer behaviour).
#[test]
fn send_buffer_flushes_after_discovery() {
    let mut net = chain(4, 26);
    assert!(net.bootstrap());
    // Three sends back-to-back with no route yet: one RREQ, all queued.
    let dst = net.host_ip(3);
    let src = net.hosts[0];
    net.engine.with_protocol::<SecureNode, _>(src, |n, ctx| {
        n.send_data(ctx, dst, vec![1; 32]);
        n.send_data(ctx, dst, vec![2; 32]);
        n.send_data(ctx, dst, vec![3; 32]);
    });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);
    let h0 = net.host(0);
    assert_eq!(h0.stats()[Counter::AppDataSent], 3);
    assert_eq!(
        h0.stats()[Counter::AppDataAcked],
        3,
        "all flushed and acknowledged"
    );
    assert_eq!(
        h0.stats()[Counter::RouteRreqOriginated],
        1,
        "a single discovery served all three"
    );
}

/// Discovery to an unreachable destination gives up after the configured
/// retries and fails the buffered data.
#[test]
fn unreachable_destination_fails_cleanly() {
    let mut net = chain(3, 27);
    assert!(net.bootstrap());
    // An address nobody owns.
    let ghost = manet_wire::Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 1, 2, 3, 4]);
    let src = net.hosts[0];
    net.engine.with_protocol::<SecureNode, _>(src, |n, ctx| {
        n.send_data(ctx, ghost, vec![0; 16]);
    });
    let until = net.engine.now() + SimDuration::from_secs(10);
    net.engine.run_until(until);
    let h0 = net.host(0);
    assert_eq!(h0.stats()[Counter::AppDataFailed], 1);
    assert_eq!(h0.stats()[Counter::AppDataAcked], 0);
    assert_eq!(net.count(Counter::RouteDiscoveryGaveUp), 1);
    assert_eq!(
        net.count(Counter::RouteRreqRetries),
        (h0.stats()[Counter::RouteRreqOriginated] - 1),
        "retries counted consistently"
    );
}

/// The same scenario and seed reproduce identical results (whole-stack
/// determinism: crypto, DAD, routing, mobility).
#[test]
fn whole_stack_is_deterministic() {
    let run = |seed: u64| {
        let mut net = chain(5, seed);
        net.bootstrap();
        net.run_flows(&[(0, 4)], 5, SimDuration::from_millis(300));
        (
            net.delivery_ratio(),
            net.count(Counter::CtlTxBytes),
            (0..5).map(|i| net.host_ip(i)).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(99).1, run(99).1);
    assert_eq!(run(99).2, run(99).2);
    assert_eq!(run(99).0, run(99).0);
    assert_ne!(run(99).2, run(100).2, "different seeds, different keys");
}

/// Partition and heal, deterministically: the middle relay of a chain
/// walks out of range (routes break, delivery stops) and walks back
/// (rediscovery, delivery resumes). Exercises the full RERR → cache
/// eviction → re-discovery loop under *scripted* mobility.
#[test]
fn partition_and_heal() {
    use manet_sim::Pos;

    // Chain: DNS, h0, h1, h2 at 180 m spacing; h1 is the only bridge
    // between h0 and h2.
    let positions = vec![
        Pos::new(0.0, 0.0),   // DNS
        Pos::new(180.0, 0.0), // h0
        Pos::new(360.0, 0.0), // h1 — will wander
        Pos::new(540.0, 0.0), // h2
    ];
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .placement(Placement::Custom(positions))
        .seed(29)
        .secure()
        .build();
    assert!(net.bootstrap());
    let report = net.run_flows(&[(0, 2)], 3, SimDuration::from_millis(300));
    assert!(
        report.delivery_ratio.expect("packets sent") > 0.9,
        "healthy before the walk"
    );
    let acked_healthy = net.host(0).stats()[Counter::AppDataAcked];

    // Script h1's walk: far off-axis (breaking both links), then home.
    // Walking is slow; run the engine while it happens.
    let h1 = net.hosts[1];
    let away = Pos::new(360.0, 800.0);
    let home = Pos::new(360.0, 0.0);
    net.engine.set_position(h1, away); // teleport = instant partition
    let t = net.engine.now() + SimDuration::from_secs(1);
    net.engine.run_until(t);
    assert!(!net.engine.is_connected(), "h1's absence splits the chain");

    net.run_flows(&[(0, 2)], 4, SimDuration::from_millis(300));
    let acked_partitioned = net.host(0).stats()[Counter::AppDataAcked];
    assert!(
        acked_partitioned - acked_healthy <= 1,
        "partition must stop (almost) all delivery"
    );
    assert!(net.host(0).stats()[Counter::AppDataFailed] > 0);

    // Heal and resume.
    net.engine.set_position(h1, home);
    let t = net.engine.now() + SimDuration::from_secs(1);
    net.engine.run_until(t);
    assert!(net.engine.is_connected());
    net.run_flows(&[(0, 2)], 5, SimDuration::from_millis(300));
    let acked_healed = net.host(0).stats()[Counter::AppDataAcked];
    assert!(
        acked_healed >= acked_partitioned + 4,
        "delivery resumed after healing ({acked_partitioned} → {acked_healed})"
    );
}

/// Marginal links (gray-zone radio): floods leak across the gray band
/// probabilistically, but unicast forwarding stays on reliable links, so
/// the protocol still delivers and never mis-verifies.
#[test]
fn gray_zone_radio_degrades_gracefully() {
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .seed(30)
        .radio(manet_sim::RadioConfig {
            range: 250.0,
            loss: 0.02,
            gray_zone: Some(400.0), // chain spacing 180: 2-hop neighbors sit at 360, inside the band
            ..manet_sim::RadioConfig::default()
        })
        .secure()
        .build();
    assert!(net.bootstrap(), "bootstrap survives marginal links");
    let report = net.run_flows(&[(0, 4)], 12, SimDuration::from_millis(300));
    let ratio = report.delivery_ratio.expect("packets sent");
    assert!(ratio > 0.8, "delivery {ratio} with gray-zone floods");
    let m = net.engine.metrics();
    // Some broadcasts genuinely died in the gray band…
    assert!(m[LinkCounter::RxDroppedLoss] > 0);
    // …but nothing ever failed verification (noise ≠ forgery).
    assert_eq!(net.count(Counter::SecRreqRejected), 0);
    assert_eq!(net.count(Counter::SecRrepRejected), 0);
}

/// run_until with nothing to do still advances the clock (regression
/// guard for harness loops that interleave sends with time).
#[test]
fn idle_time_advances() {
    let mut net = chain(2, 28);
    assert!(net.bootstrap());
    let t0 = net.engine.now();
    let target = t0 + SimDuration::from_secs(30);
    net.engine.run_until(target);
    assert_eq!(net.engine.now(), target);
    assert!(net.engine.now() > SimTime::ZERO);
}

/// Both stacks run one DSR data plane: the same chain and flow forward
/// and acknowledge the same number of frames with or without the
/// signatures, and the baseline reports end-to-end latency too.
#[test]
fn plain_and_secure_chains_forward_alike() {
    fn traffic<P: manet_secure::NodeApi>(mut net: Network<P>) -> (u64, u64, usize) {
        assert!(net.bootstrap());
        let before = net.count(Counter::RouteForwarded);
        net.run_flows(&[(0, 4)], 5, SimDuration::from_millis(300));
        let m = net.engine.metrics();
        (
            net.count(Counter::RouteForwarded) - before,
            net.count(Counter::AppDataAcked),
            m.series("app.e2e_latency_s").len(),
        )
    }
    let chain = || ScenarioBuilder::new().hosts(5).seed(42);
    let plain = traffic(chain().plain().build());
    let secure = traffic(chain().secure().build());
    assert_eq!(plain, secure);
    assert_eq!(plain.1, 5, "every packet acknowledged");
    assert_eq!(plain.2, 5, "one latency sample per acknowledged packet");
}
