//! Quickstart: build a small secure MANET with the scenario builder,
//! bootstrap it, run a declarative workload, and read the report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use manet_secure::scenario::{host_name, ScenarioBuilder, Workload};
use manet_secure::{Counter, SecureNode};
use manet_sim::SimDuration;

fn main() {
    // Six hosts plus a DNS server on a multi-hop chain. Everything else
    // (key generation, CGA addresses, secure DAD, name registration) is
    // driven by the protocol itself.
    let mut net = ScenarioBuilder::new()
        .hosts(6)
        .seed(2003) // the paper's year; any seed reproduces exactly
        .secure()
        .build();

    println!("bootstrapping: staggered joins, secure DAD, name registration…");
    assert!(net.bootstrap(), "all hosts should finish DAD");

    for i in 0..6 {
        let n = net.host(i);
        println!(
            "  {}  {}  (DAD rounds: {}, joined at t={:.2}s)",
            host_name(i),
            n.ip(),
            n.stats()[Counter::DadAttempts],
            n.stats().joined_at.expect("ready").as_secs_f64(),
        );
    }

    // Resolve a name through the DNS — the reply is signed with the DNS
    // key every host was provisioned with.
    let resolver = net.hosts[5];
    net.engine
        .with_protocol::<SecureNode, _>(resolver, |n, ctx| {
            n.resolve(ctx, host_name(0));
        });
    let t = net.engine.now() + SimDuration::from_secs(5);
    net.engine.run_until(t);
    let answer = net.host(5).stats().resolved.get(&host_name(0)).cloned();
    println!("h5 resolved {} → {:?}", host_name(0), answer.flatten());

    // A declarative workload: 20 packets h0 → h5 over 5 hops, 250 ms
    // apart. One driver executes it; one report describes what happened.
    println!("running a 20-packet flow h0 → h5 over 5 hops…");
    let report = net.run(&Workload::flows(
        vec![(0, 5)],
        20,
        SimDuration::from_millis(250),
    ));

    println!(
        "  sent {} / acked {}  (delivery ratio {:.2})",
        report.totals.data_sent,
        report.totals.data_acked,
        report.delivery_or_nan(),
    );
    let dst = net.host_ip(5);
    if let Some(relays) = net.host(0).cached_route(&dst, net.engine.now()) {
        println!("  route relays: {relays:?}");
    }
    let m = net.engine.metrics();
    println!(
        "  control traffic: {} messages, {} bytes ({} bytes Table-1 control)",
        net.count(Counter::CtlTxMsgs),
        report.tx_bytes,
        net.count(Counter::CtlTable1Bytes),
    );
    println!(
        "  discovery latency: mean {:.1} ms over {} discoveries",
        m.series("route.discovery_latency_s").mean() * 1e3,
        m.series("route.discovery_latency_s").len(),
    );
    println!(
        "  crypto pipeline: {} RSA verifications run, {} served from cache",
        report.crypto.executed, report.crypto.cached,
    );
}
