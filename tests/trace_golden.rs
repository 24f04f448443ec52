//! Golden-trace gate, now double duty: the fixtures under
//! `tests/golden/` were rendered from the pre-refactor monolithic
//! `node.rs`, and the universes are now built through the redesigned
//! `ScenarioBuilder` — so a pass proves the layered node stack, the
//! verify cache, *and* the scenario-API redesign all left the byte-exact
//! trace stream untouched. Any divergence is a determinism regression,
//! not a formatting nit. Each universe also pins the network total of
//! every counter (`counters_*.txt`, recorded from the engine-wide string
//! table that counted them before each node owned its counts, plus
//! `dad.areq_sent`, which that table never had).
//!
//! Regenerate (only for an *intentional* protocol change) with:
//! `UPDATE_GOLDEN=1 cargo test --test trace_golden`

use manet_crypto::BackendKind;
use manet_secure::scenario::{Network, ScenarioBuilder, Workload};
use manet_secure::{attacks, Behavior, Counter, NodeApi};
use manet_sim::{LinkCounter, SimDuration};

/// One deterministic universe rendered to text: the full trace stream
/// plus the headline observables (so a silent metric drift is caught
/// even if it never changes a trace line), and every nonzero counter's
/// network total, one `name=value` line each in name order — the
/// protocol counters summed over all nodes, then the engine's own.
fn render<P: NodeApi>(seed: u64, mut net: Network<P>, workload: &Workload) -> (String, String) {
    net.bootstrap();
    let report = net.run(workload);
    let trace = format!(
        "seed={} events={} ctl.tx_bytes={} app.data_sent={} delivery={:.6}\n{}",
        seed,
        net.engine.events_processed(),
        net.count(Counter::CtlTxBytes),
        net.count(Counter::AppDataSent),
        report.delivery_or_nan(),
        net.engine.tracer().render(),
    );
    let protocol = Counter::ALL.iter().map(|&c| (c.name(), net.count(c)));
    let link = LinkCounter::ALL
        .iter()
        .map(|&c| (c.name(), net.engine.metrics()[c]));
    let mut totals: Vec<_> = protocol.chain(link).filter(|&(_, v)| v > 0).collect();
    totals.sort_unstable();
    let counters = totals.iter().map(|(n, v)| format!("{n}={v}\n")).collect();
    (trace, counters)
}

fn chain(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new().hosts(5).seed(seed).trace(true)
}

fn render_universe(seed: u64, attackers: Vec<(usize, Behavior)>) -> (String, String) {
    let net = chain(seed)
        .adversaries(attackers)
        .secure()
        // The fixtures were rendered in the RSA universe; signature
        // bytes differ per backend, so pin it against MANET_CRYPTO.
        .crypto_backend(BackendKind::Rsa)
        .build();
    let flows = vec![(0, 4), (1, 3)];
    render(
        seed,
        net,
        &Workload::flows(flows, 4, SimDuration::from_millis(300)),
    )
}

/// The plain-DSR baseline on the same chain: pins the data plane the
/// two stacks share from the side that signs nothing.
fn render_plain_chain(seed: u64) -> (String, String) {
    let flows = Workload::flows(vec![(0, 4)], 5, SimDuration::from_millis(300));
    render(seed, chain(seed).plain().build(), &flows)
}

fn check_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    if expected != rendered {
        // Report the first diverging line; dumping both full streams
        // would drown the signal.
        let mismatch = expected
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (a, b))) => panic!(
                "{name}: trace diverges from pre-refactor golden at line {}:\n  golden: {a}\n  actual: {b}",
                i + 1
            ),
            None => panic!(
                "{name}: trace length changed: golden {} lines, actual {} lines",
                expected.lines().count(),
                rendered.lines().count()
            ),
        }
    }
}

#[test]
fn honest_universe_matches_pre_refactor_trace() {
    let (trace, counters) = render_universe(42, Vec::new());
    check_golden("trace_honest_seed42.txt", &trace);
    check_golden("counters_honest.txt", &counters);
}

#[test]
fn attacked_universe_matches_pre_refactor_trace() {
    // A black-hole route forger on the chain: exercises the verification
    // reject paths (forged RREPs) whose verdicts the cache must preserve.
    let (trace, counters) = render_universe(7, vec![(2, attacks::black_hole())]);
    check_golden("trace_forge_seed7.txt", &trace);
    check_golden("counters_black_hole.txt", &counters);
}

#[test]
fn plain_chain_matches_golden_trace() {
    let (trace, counters) = render_plain_chain(42);
    check_golden("trace_plain_chain.txt", &trace);
    check_golden("counters_plain_chain.txt", &counters);
}
