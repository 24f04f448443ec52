//! Integration tests for secure bootstrapping (Section 3.1):
//! address autoconfiguration, duplicate detection, name conflicts, and
//! the DAD-squatting attack.

use manet_crypto::KeyPair;
use manet_secure::scenario::{host_name, Placement, ScenarioBuilder};
use manet_secure::{attacks, Counter, HostIdentity, ProtocolConfig, SecureNode};
use manet_sim::{Engine, EngineConfig, Mobility, Pos, RadioConfig, SimTime};
use manet_wire::DomainName;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn chain_engine(seed: u64) -> Engine {
    Engine::new(EngineConfig {
        seed,
        radio: RadioConfig {
            loss: 0.0,
            ..RadioConfig::default()
        },
        ..EngineConfig::default()
    })
}

/// Two hosts sharing a key pair and modifier generate the same CGA; the
/// second one to join must detect the collision via a verified AREP and
/// re-roll its modifier (Figure 2's core exchange).
#[test]
fn genuine_collision_detected_and_rerolled() {
    let cfg = ProtocolConfig::default();
    let mut engine = chain_engine(42);

    let dns = SecureNode::new_dns(cfg.clone(), Vec::new(), engine.rng());
    let dns_pk = dns.public_key().clone();

    // Same seed → same key pair; same rn → same address.
    let kp_a = KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(777));
    let kp_b = KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(777));
    let mut ident_a = HostIdentity::from_keypair(kp_a, engine.rng());
    let mut ident_b = HostIdentity::from_keypair(kp_b, engine.rng());
    ident_a.set_rn(0xC011);
    ident_b.set_rn(0xC011);
    assert_eq!(ident_a.ip(), ident_b.ip(), "collision constructed");
    let shared_ip = ident_a.ip();

    let node_a = SecureNode::with_identity(
        cfg.clone(),
        ident_a,
        dns_pk.clone(),
        Some(DomainName::new("a.manet").unwrap()),
        Default::default(),
    );
    let node_b = SecureNode::with_identity(
        cfg.clone(),
        ident_b,
        dns_pk,
        Some(DomainName::new("b.manet").unwrap()),
        Default::default(),
    );

    engine.add_node(Box::new(dns), Pos::new(0.0, 0.0), Mobility::Static);
    let a = engine.add_node(Box::new(node_a), Pos::new(180.0, 0.0), Mobility::Static);
    // B joins after A is established and within radio range of A.
    let b = engine.add_node_at(
        Box::new(node_b),
        Pos::new(360.0, 0.0),
        Mobility::Static,
        SimTime(2_000_000),
    );
    engine.run_until(SimTime(8_000_000));

    let na = engine.protocol_as::<SecureNode>(a);
    let nb = engine.protocol_as::<SecureNode>(b);
    assert!(na.is_ready() && nb.is_ready());
    assert_eq!(na.ip(), shared_ip, "first claimant keeps the address");
    assert_ne!(nb.ip(), shared_ip, "second claimant re-rolled");
    assert_eq!(nb.stats()[Counter::DadCollisions], 1);
    assert_eq!(nb.stats()[Counter::DadAttempts], 2);
    // The owner answers each probe retransmission it hears (distinct
    // seq), all for the same collision.
    assert!(na.stats()[Counter::DadArepSent] >= 1);
}

/// A DAD squatter answers every AREQ claiming the announced address, but
/// cannot exhibit a key hashing to it: joiners reject the forged AREPs
/// and keep their addresses — the paper's "can not arbitrarily claim the
/// ownership of an IP address".
#[test]
fn dad_squatter_cannot_deny_addresses() {
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .adversary(0, attacks::dad_squatter())
        .seed(11)
        .secure()
        .build();
    assert!(net.bootstrap());
    let squatter = net.host(0);
    assert!(
        squatter.stats()[Counter::AtkForgedArep] > 0,
        "squatter was active"
    );
    for i in 1..5 {
        let n = net.host(i);
        assert!(n.is_ready());
        assert_eq!(
            n.stats()[Counter::DadAttempts],
            1,
            "h{i} kept its first address despite squatting"
        );
        assert!(
            n.stats()[Counter::SecArepRejected] > 0,
            "h{i} saw and rejected a forged AREP"
        );
        assert_eq!(n.stats()[Counter::DadCollisions], 0);
    }
}

/// First-come-first-serve name registration (Section 3.1): the second
/// claimant of a name receives a DNS-signed DREP and falls back.
#[test]
fn name_conflict_resolved_first_come_first_serve() {
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .seed(12)
        .secure()
        // Host 2 wants host 0's (earlier) name.
        .name_override(2, "h0.manet")
        .build();
    assert!(net.bootstrap());
    let loser = net.host(2);
    assert_eq!(
        loser.stats()[Counter::DadNameConflicts],
        1,
        "DREP received and verified"
    );
    assert!(loser.is_ready());
    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(
        dns.lookup(&host_name(0)),
        Some(net.host_ip(0)),
        "first claimant owns the name"
    );
    // The loser registered under a decorated fallback name.
    let fallback = DomainName::new("h0.manet-2").unwrap();
    assert_eq!(dns.lookup(&fallback), Some(net.host_ip(2)));
}

/// A wider, randomly placed network bootstraps completely with unique
/// addresses (E1's success criterion).
#[test]
fn uniform_network_bootstraps_with_unique_addresses() {
    let mut net = ScenarioBuilder::new()
        .hosts(12)
        .placement(Placement::Uniform)
        .field(manet_sim::Field::new(600.0, 600.0))
        .seed(13)
        .secure()
        .build();
    assert!(net.bootstrap(), "all 12 hosts ready");
    let mut ips: Vec<_> = (0..12).map(|i| net.host_ip(i)).collect();
    ips.sort();
    ips.dedup();
    assert_eq!(ips.len(), 12, "all addresses unique");
    // Every confirmed address is a well-formed MANET CGA.
    for i in 0..12 {
        let n = net.host(i);
        assert!(n.ip().is_site_local());
        assert_eq!(n.ip().zero_field(), 0);
    }
}

/// Bootstrap messages: a joining host floods `dad_probes` AREQs per DAD
/// attempt (probe retransmission), and a clean join needs exactly one
/// attempt.
#[test]
fn clean_join_costs_one_attempt() {
    let scenario = ScenarioBuilder::new().hosts(4).seed(14).secure();
    let probes = scenario.proto().dad_probes as u64;
    let mut net = scenario.build();
    assert!(net.bootstrap());
    for i in 0..4 {
        assert_eq!(net.host(i).stats()[Counter::DadAreqSent], probes);
        assert_eq!(net.host(i).stats()[Counter::DadAttempts], 1);
    }
    // The engine-wide AREQ originations match.
    assert_eq!(net.count(Counter::DadAttempts), 4);
    assert_eq!(net.count(Counter::DadCollisions), 0);
}
