//! Whole-network scenario construction, workloads, and measurement.
//!
//! Everything downstream — integration tests, examples, the bench
//! harness — builds networks through this module, so topology, staggered
//! bootstrap, attacker placement, traffic driving, and metric extraction
//! live in one place:
//!
//! * [`ScenarioBuilder`] — the fluent, typed spec: topology (placement /
//!   field / density), radio, mobility, churn, adversary mix, seed,
//!   tracing, and stack selection (`.secure…` with a DNS node, or
//!   `.plain…` for the DSR baseline).
//! * [`Network<P>`] — the generic built network; one shared
//!   implementation of `send` / `run` / `delivery_ratio` /
//!   `mean_degree` / stat totals for every stack implementing
//!   [`NodeApi`].
//! * [`Workload`] — declarative traffic (flows, packets, interval,
//!   warmup, drain) executed by the one driver, [`Network::run`].
//! * [`RunReport`] — the single result struct exhibits, campaigns and
//!   the benchmark consume.
//!
//! Build → workload → report, end to end:
//!
//! ```
//! use manet_secure::scenario::{ScenarioBuilder, Workload};
//! use manet_sim::SimDuration;
//!
//! // Build: five hosts + a DNS server on a multi-hop chain.
//! let mut net = ScenarioBuilder::new().hosts(5).seed(9).secure().build();
//! assert!(net.bootstrap()); // staggered joins, secure DAD, name registration
//!
//! // Workload: ten packets h0 → h4, 300 ms apart.
//! let w = Workload::flows(vec![(0, 4)], 10, SimDuration::from_millis(300));
//!
//! // Run → one report with everything an experiment reads.
//! let report = net.run(&w);
//! assert!(report.delivery_ratio.unwrap() > 0.9);
//! assert_eq!(report.totals.data_sent, 10);
//! assert!(report.crypto.executed > 0); // RSA verifications actually ran
//! ```
//!
//! A note on cold boots: extended DAD relies on already-joined hosts to
//! relay AREQ floods, so simultaneous joins only probe one hop (the same
//! is true of the draft the paper builds on). Secure scenarios therefore
//! stagger joins by [`SecureBuilder::join_stagger`], which also gives
//! the DNS a serialized stream of registrations.

pub(crate) mod builder;
mod network;
mod placement;
pub(crate) mod report;
pub(crate) mod workload;

pub use builder::{
    field_for_density, host_name, scale_family, PlainBuilder, ScenarioBuilder, SecureBuilder,
};
pub use network::{Network, NodeApi};
pub use placement::{Placement, BYPASS_ATTACKER};
pub use report::{CryptoTotals, RunReport, StatTotals};
pub use workload::Workload;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;
    use manet_sim::{LinkCounter, SimDuration};

    fn chain(n: usize, seed: u64) -> SecureBuilder {
        ScenarioBuilder::new().hosts(n).seed(seed).secure()
    }

    #[test]
    fn secure_chain_bootstraps_all_hosts() {
        let mut net = chain(4, 7).build();
        assert!(net.bootstrap(), "every host must finish DAD");
        for i in 0..4 {
            let n = net.host(i);
            assert!(n.is_ready());
            assert_eq!(n.stats()[Counter::DadAttempts], 1, "no collisions expected");
            assert!(n.ip().is_site_local());
        }
        // All addresses distinct.
        let mut ips: Vec<_> = (0..4).map(|i| net.host_ip(i)).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 4);
    }

    #[test]
    fn dns_commits_host_names_during_bootstrap() {
        let mut net = chain(3, 8).build();
        assert!(net.bootstrap());
        let dns = net.dns_node().dns_state().expect("dns role");
        for i in 0..3 {
            assert_eq!(
                dns.lookup(&host_name(i)),
                Some(net.host_ip(i)),
                "h{i} must be committed"
            );
        }
    }

    #[test]
    fn data_flows_end_to_end_over_multiple_hops() {
        let mut net = chain(5, 9).build();
        assert!(net.bootstrap());
        let report = net.run(&Workload::flows(
            vec![(0, 4)],
            10,
            SimDuration::from_millis(300),
        ));
        let ratio = report.delivery_ratio.expect("packets were sent");
        assert!(ratio > 0.9, "delivery ratio {ratio} too low");
        // The receiving host actually saw the packets.
        assert!(net.host(4).stats()[Counter::AppDataReceived] >= 9);
        assert_eq!(report.totals.data_received, report.totals.data_acked);
    }

    #[test]
    fn plain_network_delivers_without_security() {
        let mut net = ScenarioBuilder::new().hosts(5).seed(10).plain().build();
        let report = net.run_flows(&[(0, 4)], 10, SimDuration::from_millis(300));
        let ratio = report.delivery_ratio.expect("packets were sent");
        assert!(ratio > 0.9, "plain delivery ratio {ratio} too low");
        assert_eq!(
            report.crypto,
            CryptoTotals::default(),
            "no crypto in plain DSR"
        );
    }

    #[test]
    fn host_names_are_valid_and_distinct() {
        assert_ne!(host_name(0), host_name(1));
        assert_eq!(host_name(3).as_str(), "h3.manet");
    }

    #[test]
    fn pre_register_honors_name_override() {
        use manet_wire::DomainName;
        let mut net = ScenarioBuilder::new()
            .hosts(2)
            .seed(15)
            .secure()
            .pre_register(vec![0])
            .name_override(0, "coord.manet")
            .build();
        assert!(net.bootstrap());
        let dns = net.dns_node().dns_state().expect("dns role");
        let coord = DomainName::new("coord.manet").unwrap();
        assert_eq!(
            dns.lookup(&coord),
            Some(net.host_ip(0)),
            "the pre-registered entry must carry the name the host actually uses"
        );
        assert_eq!(
            dns.lookup(&host_name(0)),
            None,
            "the default name must not be pre-registered once overridden"
        );
    }

    /// A pooled identity is the one the build would have generated:
    /// loss draws, churn and DAD see the same network. The pool holds a
    /// smaller cell's identities, so the measured build both hits (the
    /// DNS and 3 hosts) and misses (2 more hosts) in one pass. An empty pool
    /// misses every time and generates on the calling thread alone —
    /// the build a one-core machine does — beside `build()`'s fork-join.
    #[test]
    fn warm_identity_pool_builds_the_same_network() {
        use crate::identity::IdentityPool;
        let lossy = |n: usize, seed: u64| {
            ScenarioBuilder::new()
                .hosts(n)
                .seed(seed)
                .radio(manet_sim::RadioConfig {
                    loss: 0.05,
                    ..Default::default()
                })
                .churn(
                    1,
                    (manet_sim::SimTime(6_000_000), manet_sim::SimTime(7_000_000)),
                )
                .secure()
        };
        let w = Workload::flows(vec![(0, 4)], 3, SimDuration::from_millis(300));
        for seed in [1, 2, 2003] {
            let warm = IdentityPool::generate(lossy(3, seed).identity_keys());
            let empty = IdentityPool::generate([]);
            let mut alone = lossy(5, seed).build();
            alone.bootstrap();
            let want = alone.run(&w).fingerprint();
            for pool in [&warm, &empty] {
                let mut pooled = lossy(5, seed).build_with(Some(pool));
                for i in 0..5 {
                    assert_eq!(pooled.host_ip(i), alone.host_ip(i), "seed {seed} h{i}");
                }
                assert_eq!(pooled.dns_node().ip(), alone.dns_node().ip());
                pooled.bootstrap();
                assert_eq!(pooled.run(&w).fingerprint(), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn delivery_ratio_is_none_before_any_traffic() {
        let net = ScenarioBuilder::new().hosts(3).seed(11).plain().build();
        assert_eq!(net.delivery_ratio(), None, "no packets sent yet");
        // Static chain, nodes alive: degree is defined (ends have 1
        // neighbor, middle has 2).
        let deg = net.mean_degree().expect("alive hosts");
        assert!(deg > 0.9 && deg < 2.1, "chain degree {deg}");
    }

    #[test]
    fn mean_degree_is_none_when_everyone_is_dead() {
        let mut net = ScenarioBuilder::new()
            .hosts(3)
            .seed(12)
            .churn(3, (manet_sim::SimTime(1), manet_sim::SimTime(2)))
            .plain()
            .build();
        net.engine.run_until(manet_sim::SimTime(1_000_000));
        assert_eq!(net.engine.metrics()[LinkCounter::NodesKilled], 3);
        assert_eq!(net.mean_degree(), None, "no alive host — no degree");
        let report = net.report(0.0);
        assert_eq!(report.mean_degree, None);
        assert!(report.delivery_or_nan().is_nan());
    }

    #[test]
    fn warmup_is_honored_by_the_driver() {
        let mut net = ScenarioBuilder::new().hosts(3).seed(13).plain().build();
        let w = Workload::flows(vec![(0, 2)], 1, SimDuration::from_millis(100))
            .with_warmup(SimDuration::from_secs(2));
        let t0 = net.engine.now();
        let report = net.run(&w);
        // warmup (2 s) + 1 round (0.1 s) + drain (5 s).
        let elapsed = net.engine.now().since(t0).as_secs_f64();
        assert!(elapsed >= 7.0, "driver skipped the warmup: {elapsed}s");
        assert_eq!(report.totals.data_sent, 1);
    }

    #[test]
    fn density_sizes_the_field_for_the_host_count() {
        let net = ScenarioBuilder::new()
            .hosts(150)
            .placement(Placement::Uniform)
            .density(15.0)
            .seed(14)
            .plain()
            .build();
        let deg = net.mean_degree().expect("alive hosts");
        assert!((8.0..25.0).contains(&deg), "density off target: {deg}");
    }
}
