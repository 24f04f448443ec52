//! Black-hole defense demo — Section 4's headline attack, on plain DSR
//! and on the secure protocol, side by side.
//!
//! The attacker sits on the shortest path between source and
//! destination, forges route replies to attract traffic, and silently
//! drops every data packet it is asked to relay.
//!
//! ```sh
//! cargo run --example blackhole_defense
//! ```

use manet_secure::scenario::{Placement, ScenarioBuilder, Workload, BYPASS_ATTACKER};
use manet_secure::{attacks, Behavior, Counter};
use manet_sim::SimDuration;

fn workload() -> Workload {
    Workload::flows(vec![(0, 2)], 30, SimDuration::from_millis(300))
}

fn plain_run(behavior: Option<Behavior>) -> (f64, u64) {
    // Same bypass geometry; Placement::Bypass drops the DNS slot for the
    // plain stack, so host indices (S=0, A=1, D=2) coincide with the
    // secure layout's.
    let attackers = behavior
        .map(|b| vec![(BYPASS_ATTACKER, b)])
        .unwrap_or_default();
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .placement(Placement::Bypass)
        .adversaries(attackers)
        .seed(1)
        .plain()
        .build();
    let report = net.run(&workload());
    let dropped = net.host(BYPASS_ATTACKER).stats()[Counter::AtkDataDropped];
    (report.delivery_or_nan(), dropped)
}

fn secure_run(behavior: Option<Behavior>, credits: bool) -> (f64, u64, u64) {
    let attackers = behavior
        .map(|b| vec![(BYPASS_ATTACKER, b)])
        .unwrap_or_default();
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .placement(Placement::Bypass)
        .adversaries(attackers)
        .seed(1)
        .secure()
        .tune(|p| p.credit.enabled = credits)
        .build();
    assert!(net.bootstrap());
    let report = net.run(&workload());
    let rejected = net.count(Counter::SecRrepRejected);
    let dropped = net.host(BYPASS_ATTACKER).stats()[Counter::AtkDataDropped];
    (report.delivery_or_nan(), rejected, dropped)
}

fn main() {
    println!("topology: S ── A ── D  with a two-relay detour around A");
    println!("flow: 30 packets S → D\n");

    let (clean_plain, _) = plain_run(None);
    let (clean_secure, _, _) = secure_run(None, true);
    println!("no attacker:");
    println!("  plain DSR        delivery {clean_plain:.2}");
    println!("  secure protocol  delivery {clean_secure:.2}\n");

    let (atk_plain, dropped) = plain_run(Some(attacks::black_hole()));
    println!("black hole at A (forges RREPs, drops data):");
    println!("  plain DSR        delivery {atk_plain:.2}   (A swallowed {dropped} packets)");

    let (atk_secure, rejected, dropped) = secure_run(Some(attacks::black_hole()), true);
    println!(
        "  secure protocol  delivery {atk_secure:.2}   ({rejected} forged RREPs rejected, {dropped} drops on honest-looking relays)"
    );

    let (quiet, _, quiet_dropped) = secure_run(Some(attacks::data_dropper()), true);
    let (quiet_off, _, _) = secure_run(Some(attacks::data_dropper()), false);
    println!("\nquiet dropper at A (honest control plane, drops data):");
    println!("  secure, credits ON   delivery {quiet:.2}   (A still swallowed {quiet_dropped})");
    println!("  secure, credits OFF  delivery {quiet_off:.2}");
    println!("\ncredits shift traffic to the detour once A's credit sinks —");
    println!("Section 3.4's \"choose a route in which all hosts exhibit high credits\".");
}
