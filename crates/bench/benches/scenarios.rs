//! Whole-simulation benchmarks: wall-clock cost of the E1/E2/E5-shaped
//! scenarios. These time the *reproduction harness itself* (simulator +
//! crypto under load), so regressions in any layer show up here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manet_secure::scenario::{scale_family, Placement, ScenarioBuilder, Workload};
use manet_secure::Counter;
use manet_sim::{LinkCounter, SimDuration, SimTime};
use std::hint::black_box;

/// E5-shaped: full secure bootstrap of an n-host chain network.
fn bench_bootstrap(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap_secure");
    g.sample_size(10);
    for n in [4usize, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut net = ScenarioBuilder::new().hosts(n).seed(1).secure().build();
                assert!(net.bootstrap());
                black_box(net.count(Counter::CtlTxBytes))
            });
        });
    }
    g.finish();
}

/// E2-shaped: bootstrap + discovery + 10-packet flow over a chain,
/// secure vs plain (the security multiplier on harness wall time).
fn bench_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("five_hop_flow");
    g.sample_size(10);
    let w = Workload::flows(vec![(0, 5)], 10, SimDuration::from_millis(300));
    g.bench_function("secure", |b| {
        b.iter(|| {
            let mut net = ScenarioBuilder::new().hosts(6).seed(2).secure().build();
            assert!(net.bootstrap());
            black_box(net.run(&w).delivery_ratio)
        });
    });
    g.bench_function("plain", |b| {
        b.iter(|| {
            let mut net = ScenarioBuilder::new().hosts(6).seed(2).plain().build();
            black_box(net.run(&w).delivery_ratio)
        });
    });
    g.finish();
}

/// E1-shaped: a grid network under a flooding join storm.
fn bench_grid_bootstrap(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap_grid");
    g.sample_size(10);
    g.bench_function("12_hosts", |b| {
        b.iter(|| {
            let mut net = ScenarioBuilder::new()
                .hosts(12)
                .placement(Placement::Grid {
                    cols: 4,
                    spacing: 170.0,
                })
                .seed(3)
                .secure()
                .build();
            assert!(net.bootstrap());
            black_box(net.engine.metrics()[LinkCounter::RxFrames])
        });
    });
    g.finish();
}

/// S1-shaped at full 2k-node scale: the same flooding workload under
/// the single-threaded oracle vs the sharded executor. Both produce
/// byte-identical universes (gated in `tests/determinism.rs`); this
/// pins the wall-clock cost/benefit of the epoch machinery per commit.
fn bench_scale_shards(c: &mut Criterion) {
    use manet_sim::ExecMode;
    let mut g = c.benchmark_group("scale_shards");
    g.sample_size(10);
    for (name, exec) in [
        ("single_2000", ExecMode::Single),
        ("sharded2_2000", ExecMode::Sharded(2)),
        ("sharded8_2000", ExecMode::Sharded(8)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut net = scale_family(2000, 8).exec(exec).plain().build();
                net.engine.run_until(SimTime(1_000_000));
                let flows = net.scale_flows(8);
                let report = net.run(&Workload::flows(flows, 2, SimDuration::from_millis(400)));
                black_box(report.rx_frames)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bootstrap,
    bench_flow,
    bench_grid_bootstrap,
    bench_scale_shards
);
criterion_main!(benches);
