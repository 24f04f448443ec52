//! Bootstrap storm — how fast can an open MANET form from nothing?
//!
//! The paper's claim (iii): "relying on a DNS server, it allows
//! bootstrapping a MANET with little pre-configuration overhead, so
//! network formation is light-weight". This example forms networks of
//! growing size with the formation-only workload and reports join
//! latency and the control-message cost, including what happens when an
//! address-squatting attacker tries to deny the bootstrap.
//!
//! ```sh
//! cargo run --release --example bootstrap_storm
//! ```

use manet_secure::scenario::{Placement, ScenarioBuilder, Workload};
use manet_secure::{attacks, Counter};
use manet_sim::Field;

fn form(n: usize, squatter: bool) -> (bool, f64, u64, u64, u64) {
    let attackers = if squatter {
        vec![(0, attacks::dad_squatter())]
    } else {
        Vec::new()
    };
    let mut net = ScenarioBuilder::new()
        .hosts(n)
        .placement(Placement::Uniform)
        .field(Field::new(700.0, 700.0))
        .adversaries(attackers)
        .seed(7 + n as u64)
        .secure()
        .build();
    // The bootstrap-storm workload: no traffic, just the staggered join
    // storm driven to completion by the shared driver.
    let report = net.run(&Workload::bootstrap_storm());
    let ok = net.all_ready();
    // Mean time from a host's join instant to its DAD confirmation.
    let mut latencies = Vec::new();
    for (i, _) in (0..n).enumerate() {
        if let Some(t) = net.host(i).stats().joined_at {
            let join = net.last_join.as_secs_f64() / n as f64 * (i as f64 + 1.0);
            latencies.push(t.as_secs_f64() - join);
        }
    }
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let committed = net
        .dns_node()
        .dns_state()
        .map(|d| d.name_count())
        .unwrap_or(0) as u64;
    (
        ok,
        mean_latency,
        net.count(Counter::CtlTxMsgs),
        report.tx_bytes,
        committed,
    )
}

fn main() {
    println!("network formation from zero pre-configuration (only the DNS key):\n");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12}",
        "nodes", "all ready", "join lat(s)", "ctl msgs", "ctl bytes"
    );
    for n in [5, 10, 20, 30] {
        let (ok, lat, msgs, bytes, committed) = form(n, false);
        println!(
            "{n:>6} {:>10} {lat:>12.2} {msgs:>12} {bytes:>12}   ({committed} names committed)",
            ok
        );
    }

    println!("\nwith an address-squatting attacker answering every AREQ:");
    for n in [10, 20] {
        let (ok, lat, msgs, bytes, committed) = form(n, true);
        println!(
            "{n:>6} {:>10} {lat:>12.2} {msgs:>12} {bytes:>12}   ({committed} names committed)",
            ok
        );
    }
    println!("\nforged AREPs fail the CGA check, so joiners keep their first");
    println!("addresses — the squatter only adds bytes, not denial.");
}
