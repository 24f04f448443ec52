//! Ablation benchmarks: the runtime side of the design
//! choices — SRR verification cost at the destination, CREP's effect on
//! discovery work, and credit bookkeeping overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manet_secure::scenario::ScenarioBuilder;
use manet_sim::SimDuration;
use std::hint::black_box;

/// Destination-side SRR verification on/off over a 6-hop discovery: the
/// paper's per-hop identity checking vs SRP-style trust-the-chain.
fn bench_srr_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_srr_verify");
    g.sample_size(10);
    for &verify in &[true, false] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if verify { "on" } else { "off" }),
            &verify,
            |b, &verify| {
                b.iter(|| {
                    let mut net = ScenarioBuilder::new()
                        .hosts(7)
                        .seed(4)
                        .secure()
                        .tune(|p| p.verify_srr = verify)
                        .build();
                    assert!(net.bootstrap());
                    let report = net.run_flows(&[(0, 6)], 5, SimDuration::from_millis(300));
                    black_box(report.delivery_ratio)
                });
            },
        );
    }
    g.finish();
}

/// CREP on/off: total work for two requesters reaching the same
/// destination.
fn bench_crep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_crep");
    g.sample_size(10);
    for &crep in &[true, false] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if crep { "on" } else { "off" }),
            &crep,
            |b, &crep| {
                b.iter(|| {
                    let mut net = ScenarioBuilder::new()
                        .hosts(6)
                        .seed(5)
                        .secure()
                        .tune(|p| p.crep_enabled = crep)
                        .build();
                    assert!(net.bootstrap());
                    net.run_flows(&[(0, 5)], 2, SimDuration::from_millis(300));
                    let report = net.run_flows(&[(1, 5)], 2, SimDuration::from_millis(300));
                    black_box(report.tx_bytes)
                });
            },
        );
    }
    g.finish();
}

/// Credit bookkeeping on/off in a clean network — the steady-state tax
/// of Section 3.4 when nobody misbehaves.
fn bench_credits_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_credit_overhead");
    g.sample_size(10);
    for &on in &[true, false] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if on { "on" } else { "off" }),
            &on,
            |b, &on| {
                b.iter(|| {
                    let mut net = ScenarioBuilder::new()
                        .hosts(5)
                        .seed(6)
                        .secure()
                        .tune(|p| p.credit.enabled = on)
                        .build();
                    assert!(net.bootstrap());
                    let report = net.run_flows(&[(0, 4)], 10, SimDuration::from_millis(250));
                    black_box(report.delivery_ratio)
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_srr_verify,
    bench_crep,
    bench_credits_overhead
);
criterion_main!(benches);
