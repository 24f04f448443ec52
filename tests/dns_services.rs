//! Integration tests for the secure DNS services (Section 3.2):
//! authenticated resolution, pre-registered servers, the challenge/
//! response IP-change flow, and their attack surfaces.

use manet_secure::scenario::{host_name, Network, ScenarioBuilder};
use manet_secure::{attacks, Counter, SecureNode};
use manet_sim::SimDuration;
use manet_wire::{sigdata, Challenge, DomainName, IpChangeProof, Message, RouteRecord};

fn chain(n: usize, seed: u64) -> Network<SecureNode> {
    ScenarioBuilder::new().hosts(n).seed(seed).secure().build()
}

/// A host resolves another host's auto-registered name through the DNS
/// and gets a signed, challenge-bound answer.
#[test]
fn resolve_registered_name() {
    let mut net = chain(4, 50);
    assert!(net.bootstrap());
    let target = host_name(0);
    let resolver = net.hosts[3];
    net.engine
        .with_protocol::<SecureNode, _>(resolver, |n, ctx| {
            n.resolve(ctx, host_name(0));
        });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);
    let n3 = net.host(3);
    assert_eq!(
        n3.stats().resolved.get(&target),
        Some(&Some(net.host_ip(0))),
        "signed answer matches the registered address"
    );
    assert_eq!(n3.stats()[Counter::SecDnsReplyRejected], 0);
}

/// Unknown names produce an authenticated NXDOMAIN (`None` answer) — the
/// signature covers the absence too, so it cannot be forged either.
#[test]
fn nxdomain_is_signed() {
    let mut net = chain(3, 51);
    assert!(net.bootstrap());
    let ghost = DomainName::new("nobody.manet").unwrap();
    let resolver = net.hosts[2];
    let q = ghost.clone();
    net.engine
        .with_protocol::<SecureNode, _>(resolver, |n, ctx| {
            n.resolve(ctx, q);
        });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);
    assert_eq!(net.host(2).stats().resolved.get(&ghost), Some(&None));
}

/// Pre-registered permanent entries (the paper's public-server scenario)
/// survive an online claim on the same name: the claimant gets a DREP.
#[test]
fn preregistered_server_name_is_immovable() {
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .seed(52)
        .secure()
        .pre_register(vec![0])
        // Host 2 tries to register host 0's (pre-registered) name online.
        .name_override(2, "h0.manet")
        .build();
    assert!(net.bootstrap());
    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(dns.lookup(&host_name(0)), Some(net.host_ip(0)));
    assert_eq!(
        net.host(2).stats()[Counter::DadNameConflicts],
        1,
        "claimant got a DREP"
    );
    assert!(net.dns_node().stats()[Counter::DnsDrepSent] >= 1);
}

/// The full Section 3.2 IP-change flow: request → challenge → proof →
/// signed result; the mapping moves and the host switches addresses.
#[test]
fn ip_change_happy_path() {
    let mut net = chain(3, 53);
    assert!(net.bootstrap());
    let old_ip = net.host_ip(1);
    let mover = net.hosts[1];
    net.engine.with_protocol::<SecureNode, _>(mover, |n, ctx| {
        n.request_ip_change(ctx, 0xFEED_F00D);
    });
    let until = net.engine.now() + SimDuration::from_secs(8);
    net.engine.run_until(until);

    let n1 = net.host(1);
    assert_eq!(n1.stats().ip_change_accepted, Some(true));
    let new_ip = n1.ip();
    assert_ne!(new_ip, old_ip, "host switched to the new CGA");
    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(dns.lookup(&host_name(1)), Some(new_ip), "mapping moved");
    let accepted = net.dns_node().stats()[Counter::DnsIpChangesAccepted];
    assert_eq!(accepted, 1);
}

/// An attacker cannot move someone else's name: its IP-change proof is
/// signed by a key that does not hash to the victim's address, so the
/// DNS rejects it and the mapping stays.
#[test]
fn ip_change_with_wrong_key_rejected() {
    let mut net = chain(4, 54);
    assert!(net.bootstrap());
    let victim_name = host_name(0);
    let victim_ip = net.host_ip(0);
    let attacker = net.hosts[2];
    let attacker_ip = net.host_ip(2);

    // The attacker needs a route to the DNS: resolving anything builds it.
    net.engine
        .with_protocol::<SecureNode, _>(attacker, |n, ctx| {
            n.resolve(ctx, host_name(0));
        });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);

    // Forged request: move the victim's name to an attacker address.
    let dns_anycast = manet_wire::DNS_WELL_KNOWN[0];
    let vn = victim_name.clone();
    net.engine
        .with_protocol::<SecureNode, _>(attacker, |n, ctx| {
            let path = RouteRecord(vec![attacker_ip, dns_anycast]);
            // Direct path works because the DNS answer above made them
            // neighbors-by-cache; if not, inject_routed returns false and
            // the test would fail below anyway.
            let msg = Message::IpChangeRequest(manet_wire::IpChangeRequest {
                dn: vn,
                old_ip: victim_ip,
                new_ip: attacker_ip,
                route: RouteRecord::new(),
            });
            n.inject_routed(ctx, path, msg);
        });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);

    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(
        dns.lookup(&victim_name),
        Some(victim_ip),
        "the victim's mapping must not move"
    );
    assert_eq!(net.dns_node().stats()[Counter::DnsIpChangesAccepted], 0);
}

/// A forged IP-change *proof* (valid session, wrong key) is rejected by
/// the CGA ownership checks at the DNS.
#[test]
fn forged_ip_change_proof_rejected() {
    let mut net = chain(3, 55);
    assert!(net.bootstrap());
    let victim_ip = net.host_ip(0);
    let attacker = net.hosts[1];
    let attacker_ip = net.host_ip(1);
    let dns_anycast = manet_wire::DNS_WELL_KNOWN[0];

    // Build a route to the DNS first.
    net.engine
        .with_protocol::<SecureNode, _>(attacker, |n, ctx| {
            n.resolve(ctx, host_name(0));
        });
    let until = net.engine.now() + SimDuration::from_secs(6);
    net.engine.run_until(until);

    // Step 1: a *plausible* request for the attacker's own name — the
    // session opens. Step 3 then lies about the addresses.
    let own_name = host_name(1);
    let dn = own_name.clone();
    net.engine
        .with_protocol::<SecureNode, _>(attacker, |n, ctx| {
            let pk = n.public_key().clone();
            let sig_payload = sigdata::ip_change(&victim_ip, &attacker_ip, Challenge(0));
            let msg = Message::IpChangeProof(IpChangeProof {
                dn,
                old_ip: victim_ip, // not ours, and ch=0 guess is wrong anyway
                new_ip: attacker_ip,
                old_rn: 0,
                new_rn: 0,
                pk: pk.clone(),
                sig: manet_crypto::Signature::from_bytes(&sig_payload), // garbage
                route: RouteRecord::new(),
            });
            let path = RouteRecord(vec![attacker_ip, dns_anycast]);
            n.inject_routed(ctx, path, msg);
        });
    let until = net.engine.now() + SimDuration::from_secs(4);
    net.engine.run_until(until);

    let dns = net.dns_node().dns_state().expect("dns");
    assert_eq!(net.dns_node().stats()[Counter::DnsIpChangesAccepted], 0);
    assert_eq!(dns.lookup(&host_name(0)), Some(victim_ip));
}

/// DNS impersonation by a malicious relay: the forged reply fails the
/// known-key signature check. (The query it swallowed is denied — the
/// paper's DNS only authenticates; availability under an on-path DoS is
/// out of scope.)
#[test]
fn forged_dns_reply_rejected() {
    let mut net = ScenarioBuilder::new()
        .hosts(4)
        .seed(56)
        .adversary(1, attacks::dns_impersonator())
        .secure()
        // The forged reply is detected by its *signature* failing under
        // the real DNS key — meaningless under the Null backend.
        .crypto_backend(manet_crypto::BackendKind::Rsa)
        .build();
    assert!(net.bootstrap());
    // h3 is far from the DNS; the route passes the attacker at h1.
    let resolver = net.hosts[3];
    net.engine
        .with_protocol::<SecureNode, _>(resolver, |n, ctx| {
            n.resolve(ctx, host_name(0));
        });
    let until = net.engine.now() + SimDuration::from_secs(8);
    net.engine.run_until(until);

    let n3 = net.host(3);
    let atk = net.host(1);
    if atk.stats()[Counter::AtkForgedDns] > 0 {
        assert!(
            n3.stats()[Counter::SecDnsReplyRejected] > 0,
            "forged DNS reply must be rejected"
        );
        // Whatever was resolved (if the genuine answer got through on a
        // different path) is the truth, never the attacker's address.
        if let Some(ans) = n3.stats().resolved.get(&host_name(0)) {
            assert_eq!(*ans, Some(net.host_ip(0)));
        }
    } else {
        // The route dodged the attacker: the resolution simply succeeds.
        assert_eq!(
            n3.stats().resolved.get(&host_name(0)),
            Some(&Some(net.host_ip(0)))
        );
    }
}

/// Resolution still verifies when the DNS answer crosses several hops —
/// the signature is end-to-end, relays cannot tamper.
#[test]
fn multi_hop_resolution_is_end_to_end_authentic() {
    let mut net = chain(6, 57);
    assert!(net.bootstrap());
    let resolver = net.hosts[5]; // five hops from the DNS
    net.engine
        .with_protocol::<SecureNode, _>(resolver, |n, ctx| {
            n.resolve(ctx, host_name(1));
        });
    let until = net.engine.now() + SimDuration::from_secs(8);
    net.engine.run_until(until);
    assert_eq!(
        net.host(5).stats().resolved.get(&host_name(1)),
        Some(&Some(net.host_ip(1)))
    );
    assert!(net.dns_node().stats()[Counter::DnsQueriesAnswered] >= 1);
}
