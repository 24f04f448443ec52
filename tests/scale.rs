//! Scale and stress tests: larger networks, mixed attacker populations,
//! long runs, churn. These guard against emergent breakage that small
//! deterministic topologies cannot expose (flood storms, dedup-table
//! growth, buffer exhaustion, cross-flow interference).

use manet_secure::scenario::{scale_family, Placement, ScenarioBuilder, Workload};
use manet_secure::{attacks, Counter, SecureNode};
use manet_sim::{Field, LinkCounter, Mobility, SimDuration, SimTime};

/// A 24-host grid bootstraps completely and carries eight simultaneous
/// flows with high delivery.
#[test]
fn large_grid_bootstrap_and_traffic() {
    let mut net = ScenarioBuilder::new()
        .hosts(24)
        .placement(Placement::Grid {
            cols: 5,
            spacing: 170.0,
        })
        .seed(80)
        .secure()
        .build();
    assert!(net.bootstrap(), "all 24 hosts ready");
    assert!(net.engine.is_connected(), "grid must be one component");

    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(dns.name_count(), 24, "every name committed");

    let flows = [
        (0, 23),
        (23, 0),
        (3, 20),
        (7, 16),
        (12, 1),
        (5, 22),
        (9, 14),
        (18, 2),
    ];
    let report = net.run_flows(&flows, 8, SimDuration::from_millis(400));
    let ratio = report.delivery_ratio.expect("packets sent");
    assert!(ratio > 0.9, "delivery {ratio} under 8-flow load");
    // Every destination actually received data.
    for &(_, dst) in &flows {
        assert!(
            net.host(dst).stats()[Counter::AppDataReceived] > 0,
            "h{dst} starved"
        );
    }
}

/// A quarter of the network is hostile (mixed attacker types); the
/// honest majority keeps communicating.
#[test]
fn mixed_attacker_population() {
    let mut net = ScenarioBuilder::new()
        .hosts(15)
        .placement(Placement::Grid {
            cols: 4,
            spacing: 170.0,
        })
        .seed(81)
        .adversaries(vec![
            (5, attacks::black_hole()),
            (9, attacks::grey_hole(0.6)),
            (11, attacks::rerr_forger()),
            (13, attacks::replayer()),
        ])
        .secure()
        .build();
    assert!(net.bootstrap(), "attackers do not block bootstrap");
    let flows = [(0, 14), (2, 12), (6, 10)];
    let report = net.run_flows(&flows, 12, SimDuration::from_millis(350));
    let ratio = report.delivery_ratio.expect("packets sent");
    assert!(
        ratio > 0.6,
        "honest traffic survives a 4/15 hostile population (got {ratio})"
    );
}

/// Nodes keep joining while traffic is already flowing: late joiners
/// bootstrap against a busy network and become reachable.
#[test]
fn late_joiners_under_traffic() {
    let mut net = ScenarioBuilder::new().hosts(6).seed(82).secure().build();
    assert!(net.bootstrap());
    // Keep a flow running in the background.
    net.run_flows(&[(0, 3)], 5, SimDuration::from_millis(300));

    // Add two late joiners next to the end of the chain.
    let cfg = manet_secure::ProtocolConfig::default();
    let dns_pk = net.dns_node().public_key().clone();
    let base = net.engine.position(net.hosts[5]);
    let mut new_ids = Vec::new();
    for i in 0..2 {
        let node = SecureNode::new(
            cfg.clone(),
            dns_pk.clone(),
            Some(manet_wire::DomainName::new(&format!("late{i}.manet")).unwrap()),
            net.engine.rng(),
        );
        let join_at = net.engine.now() + SimDuration::from_millis(200 + 1_200 * i as u64);
        let id = net.engine.add_node_at(
            Box::new(node),
            manet_sim::Pos::new(base.x + 150.0 * (i as f64 + 1.0), base.y + 20.0),
            Mobility::Static,
            join_at,
        );
        new_ids.push(id);
    }
    // More traffic while they join.
    net.run_flows(&[(0, 3), (1, 4)], 10, SimDuration::from_millis(350));

    for &id in &new_ids {
        let n = net.engine.protocol_as::<SecureNode>(id);
        assert!(n.is_ready(), "late joiner completed DAD under load");
    }
    // And they are actually reachable: route a flow to the first one.
    let late_ip = net.engine.protocol_as::<SecureNode>(new_ids[0]).ip();
    let src = net.hosts[0];
    net.engine.with_protocol::<SecureNode, _>(src, |n, ctx| {
        n.send_data(ctx, late_ip, vec![0x77; 32]);
    });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);
    let late = net.engine.protocol_as::<SecureNode>(new_ids[0]);
    assert!(
        late.stats()[Counter::AppDataReceived] > 0,
        "late joiner reachable"
    );
}

/// The `scale` scenario family end-to-end at test size: uniform
/// placement at the target density, churn kills fire, flows picked from
/// the largest component actually deliver, and the whole thing is a
/// pure function of the seed.
#[test]
fn scale_family_smoke() {
    let run = || {
        let mut net = scale_family(150, 5)
            // One extra kill over the preset's n/50 so the count stays a
            // distinctive assertion target.
            .churn(4, (SimTime(4_000_000), SimTime(10_000_000)))
            .plain()
            .build();
        net.engine.run_until(SimTime(1_000_000));
        let deg = net.mean_degree().expect("alive hosts");
        assert!(
            (8.0..25.0).contains(&deg),
            "density off target: mean degree {deg}"
        );
        let flows = net.scale_flows(5);
        assert_eq!(flows.len(), 5);
        net.run(&Workload::flows(flows, 3, SimDuration::from_millis(400)));
        // Run past the end of the churn window so every kill fires.
        net.engine.run_until(SimTime(11_000_000));
        assert_eq!(
            net.engine.metrics()[LinkCounter::NodesKilled],
            4,
            "churn kills must all fire inside the run window"
        );
        let ratio = net.delivery_ratio().expect("packets sent");
        assert!(
            ratio > 0.5,
            "scale delivery ratio {ratio} too low for an in-component flow set"
        );
        (
            ratio,
            net.engine.metrics()[LinkCounter::RxFrames],
            net.engine.events_processed(),
        )
    };
    assert_eq!(run(), run(), "same seed, same universe");
}

/// Long-duration mobile run: an hour of simulated time with periodic
/// traffic — guards against state leaks (dedup sets, pending maps) that
/// only bite over time, and exercises route expiry + rediscovery.
#[test]
fn long_running_mobile_network() {
    let mut net = ScenarioBuilder::new()
        .hosts(8)
        .placement(Placement::Uniform)
        .field(Field::new(500.0, 500.0))
        .mobility(Mobility::RandomWaypoint {
            min_speed: 1.0,
            max_speed: 5.0,
            pause_s: 5.0,
        })
        .seed(83)
        .secure()
        .build();
    assert!(net.bootstrap());
    // 20 rounds of sparse traffic across ~40 minutes of sim time: routes
    // expire (60 s TTL) between rounds, forcing rediscovery every time.
    for round in 0..20 {
        let flows = [(round % 8, (round + 4) % 8)];
        net.run_flows(&flows, 2, SimDuration::from_millis(400));
        let idle = net.engine.now() + SimDuration::from_secs(110);
        net.engine.run_until(idle);
    }
    let ratio = net.delivery_ratio().expect("packets sent");
    assert!(ratio > 0.6, "long-run delivery {ratio}");
    assert!(
        net.count(Counter::RouteRreqOriginated) >= 20,
        "route expiry forced rediscovery each round"
    );
}
