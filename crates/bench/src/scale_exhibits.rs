//! S1 and S2 — the scale exhibits.
//!
//! **S1**: a 2,000-node plain-DSR network (bootstrap route discovery +
//! traffic under mobility and node-failure churn) run under both
//! executors. Impractical before the spatial-grid channel (a linear
//! receiver scan makes every flood O(n²)); plain DSR (no RSA, no DAD)
//! keeps per-node cost flat, so the engine — not key generation — is
//! what is measured. The exhibit doubles as a coarse executor
//! differential gate (the two runs must agree on every
//! machine-independent report field, or it panics).
//!
//! **S2**: the timer-wheel-era headline — 10,000 plain-DSR nodes
//! driven through formation, churn, and cross-field flows under both
//! executors, plus a secure variant (full CGA/DAD bootstrap storm;
//! 1,000 hosts in full mode, 250 in quick) and a secure cell run with
//! batched and inline verification as the scale-level batch gate.
//!
//! **S3**: the memory-diet exhibit — 100,000 plain-DSR nodes in quick
//! mode (1,000,000 in full mode, the stretch cell), the S1 document's
//! stack as written. Runs under both executors as a fingerprint gate
//! and records **peak RSS** (`VmHWM`) next to engine events/sec: the
//! number the arena-backed route caches and send buffers are
//! accountable to, gated by `tables -- --check-perf` against the
//! committed baseline.
//!
//! Every cell is a committed scenario document run through
//! `crate::cell`: S1 is `campaigns/s1_base.json`, S2-plain and S3 are
//! that document at another population (`s2_sizes`, `s3_sizes`),
//! the secure storm and the secure-scale cell have documents of their
//! own. A document is its quick cell; `--full` is a handful of
//! overrides, and a cell's differential knob (`scenario.exec`,
//! `…proto.batch_verify`) is one more. The timer wheel and the grid are
//! the engine's only event store and channel, so no exhibit has a heap
//! or linear-scan cell: their references are unit tests in `manet-sim`.
//! `tables -- --check-perf` compares the quick cells' engine events/sec
//! (and S3's peak RSS) against the committed baseline in
//! `bench/baselines/`.

use crate::documents::{S1, SECURE_SCALE, SECURE_STORM};
use crate::table::Table;
use crate::{cell, num, Override};
use manet_secure::campaign::json::Json;
use manet_secure::scenario::RunReport;

/// Sharded cells run `sharded:8`: matches the top of the CI matrix, and
/// 8 contiguous field bands keep hundreds of S1 nodes per shard.
pub(crate) fn sharded_exec() -> Vec<Override> {
    vec![("scenario.exec", Json::str("sharded:8"))]
}

/// The S1 document at another population and flow count: the shape's
/// 2% churn follows the host count.
fn scaled(hosts: u64, flows: u64, packets: u64) -> Vec<Override> {
    vec![
        ("scenario.hosts", num(hosts)),
        ("scenario.churn.kills", num(hosts / 50)),
        ("workload.flows.scale", num(flows)),
        ("workload.packets", num(packets)),
    ]
}

/// S1: the document as committed (2,000 hosts, 10 flows × 3 packets),
/// or with the `--full` flow count.
fn s1_sizes(quick: bool) -> Vec<Override> {
    if quick {
        return Vec::new();
    }
    vec![
        ("workload.flows.scale", num(16)),
        ("workload.packets", num(8)),
    ]
}

/// The S2 plain cell: the S1 document at 10,000 hosts.
pub(crate) fn s2_sizes(quick: bool) -> Vec<Override> {
    let (flows, packets) = if quick { (16, 3) } else { (24, 6) };
    scaled(10_000, flows, packets)
}

/// The S3 cell: the S1 document at 100k (quick) or 1M (full, the
/// stretch cell) hosts. The report's `peak_rss_bytes` is the
/// process-lifetime `VmHWM` sampled after the run.
pub(crate) fn s3_sizes(quick: bool) -> Vec<Override> {
    let hosts = if quick { 100_000 } else { 1_000_000 };
    let (flows, packets) = if quick { (16, 2) } else { (24, 3) };
    let mut sizes = scaled(hosts, flows, packets);
    // Room proportional to population: the default 50M runaway cap is
    // sized for ≤10k nodes, and S3's mobility ticks alone pass it.
    sizes.push(("scenario.max_events", num(hosts * 20_000)));
    sizes
}

/// The secure storm scales as O(n² · degree) flood receptions: the
/// document's 250 hosts in quick mode, 1,000 in full. (Its 384-bit keys
/// keep key *generation*, not the hot path under test, from dominating
/// the wall.)
fn storm_sizes(quick: bool) -> Vec<Override> {
    if quick {
        Vec::new()
    } else {
        vec![("scenario.hosts", num(1000))]
    }
}

/// The secure-scale cell — the batch-verification headline: the
/// document's 1,000 hosts in quick mode, the whole S2 population secure
/// in full. A clean storm verifies nothing (signature checks live on
/// collisions, RREP/RERR handling, and DNS replies), so the document
/// follows it with signed route discovery and data flows, where
/// verification load exists for batching to amortize.
fn secure_scale_sizes(quick: bool) -> Vec<Override> {
    if quick {
        return Vec::new();
    }
    let hosts = 10_000;
    vec![
        ("scenario.hosts", num(hosts)),
        // The default 50M runaway cap is sized for ≤10k *plain* nodes,
        // but a secure DAD storm is quadratic by construction: every
        // joiner floods an AREQ over the whole field, ~n² × degree
        // receptions (the quick 1k run processes ~6.9M events). Budget
        // to the flood structure with ~2× headroom.
        ("scenario.max_events", num(hosts * hosts * 15)),
        ("workload.flows.scale", num(24)),
        ("workload.packets", num(3)),
    ]
}

fn batch_verify(on: bool) -> [Override; 1] {
    [("scenario.stack.proto.batch_verify", Json::bool(on))]
}

/// S1: 2,000-node scale run, single vs sharded executor.
pub fn exhibit_s1(quick: bool) -> String {
    let sizes = s1_sizes(quick);
    let grid = cell(S1, &sizes, &[]);
    let n = grid.hosts;
    let grid = grid.report;
    let sharded = cell(S1, &sizes, &sharded_exec()).report;

    // Differential gate: same seed ⇒ identical simulation universe,
    // down to every machine-independent field of the report — whichever
    // executor runs the loop.
    assert_eq!(
        grid.fingerprint(),
        sharded.fingerprint(),
        "sharded and single executors diverged — determinism invariant broken"
    );

    let shard_speedup = grid.events_per_sec_engine / sharded.events_per_sec_engine.max(1.0);
    let mut t = Table::new(
        format!(
            "S1 — scale: {n} plain-DSR nodes, mobility + churn ({} flows)",
            if quick { "quick" } else { "full" }
        ),
        &[
            "cell",
            "wall (s)",
            "events",
            "events/s",
            "ev/s engine",
            "delivery",
            "mean degree",
        ],
    );
    for (name, r) in [("grid/single", &grid), ("grid/sharded:8", &sharded)] {
        t.rowv(vec![
            name.to_string(),
            format!("{:.2}", r.wall_s),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.0}", r.events_per_sec_engine),
            format!("{:.3}", r.delivery_or_nan()),
            format!("{:.1}", r.mean_degree.unwrap_or(f64::NAN)),
        ]);
    }
    t.note("identical observables under both executors (differential gate)");
    t.note(format!(
        "single/sharded engine-rate ratio {shard_speedup:.2}× (sharded:8 on {} core(s))",
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    ));
    t.note(format!(
        "{} of {} nodes killed mid-run; flows chosen inside the largest radio component",
        grid.nodes_killed, n
    ));
    t.render()
}

/// S2: 10,000-node plain run under both executors (the scale-level
/// sharded-vs-single gate), the secure bootstrap storm, and the secure
/// cell batched vs inline (the scale-level batch gate).
pub fn exhibit_s2(quick: bool) -> String {
    let sizes = s2_sizes(quick);
    let plain = cell(S1, &sizes, &[]);
    let n_plain = plain.hosts;
    let plain = plain.report;
    let plain_sharded = cell(S1, &sizes, &sharded_exec()).report;

    let sizes = storm_sizes(quick);
    let storm = cell(SECURE_STORM, &sizes, &[]);

    let sizes = secure_scale_sizes(quick);
    let sec_batched = cell(SECURE_SCALE, &sizes, &batch_verify(true));
    let sec_inline = cell(SECURE_SCALE, &sizes, &batch_verify(false));

    // Differential gate: the executor is scheduling machinery, not a
    // model change — the 10k plain run must be one universe under both.
    assert_eq!(
        plain.fingerprint(),
        plain_sharded.fingerprint(),
        "sharded and single executors diverged at 10k — determinism invariant broken"
    );
    assert!(
        storm.all_ready,
        "secure storm left hosts unjoined — scenario shape broken"
    );
    // The batch-verification gate at scale: deferring and deduping
    // signature checks across the whole network step must not move one
    // event, byte, or verdict relative to inline verification.
    assert_eq!(
        sec_batched.report.fingerprint(),
        sec_inline.report.fingerprint(),
        "batched and inline verification diverged at scale — batch table is not pure"
    );
    assert!(
        sec_batched.all_ready && sec_inline.all_ready,
        "secure scale storm left hosts unjoined — scenario shape broken"
    );
    assert!(
        sec_batched.batch.executed > 0 && sec_batched.batch.executed < sec_batched.batch.requests,
        "batch verification never amortized: {} executed of {} requested",
        sec_batched.batch.executed,
        sec_batched.batch.requests
    );

    let (n_sec, n_scale) = (storm.hosts, sec_batched.hosts);
    let mut t = Table::new(
        format!(
            "S2 — scale: {n_plain} plain-DSR nodes + secure {n_sec}-host DAD storm ({} mode)",
            if quick { "quick" } else { "full" }
        ),
        &[
            "cell",
            "queue",
            "wall (s)",
            "events",
            "events/s",
            "ev/s engine",
            "delivery",
        ],
    );
    let delivery_cell = |r: &RunReport| match r.delivery_ratio {
        Some(d) => format!("{d:.3}"),
        None => "—".to_string(), // the storm sends no data traffic
    };
    for (cell, queue, r) in [
        (format!("plain {n_plain}"), "wheel", &plain),
        (
            format!("plain {n_plain} sharded:8"),
            "wheel",
            &plain_sharded,
        ),
        (format!("secure {n_sec}"), "wheel", &storm.report),
        (
            format!("secure {n_scale} batched"),
            "wheel",
            &sec_batched.report,
        ),
        (
            format!("secure {n_scale} inline"),
            "wheel",
            &sec_inline.report,
        ),
    ] {
        t.rowv(vec![
            cell,
            queue.to_string(),
            format!("{:.2}", r.wall_s),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.0}", r.events_per_sec_engine),
            delivery_cell(r),
        ]);
    }
    t.note(format!(
        "plain cell: {} of {} killed mid-run, mean degree {:.1}; secure cell: all {} hosts completed DAD",
        plain.nodes_killed,
        n_plain,
        plain.mean_degree.unwrap_or(f64::NAN),
        n_sec,
    ));
    t.note(format!(
        "secure scale cell ({n_scale} hosts, RSA): identical universes batched and inline \
         (differential gate); batch amortization {:.2}× \
         ({} requests, {} executed), wall {:.2}s batched vs {:.2}s inline",
        sec_batched.amortization(),
        sec_batched.batch.requests,
        sec_batched.batch.executed,
        sec_batched.report.wall_s,
        sec_inline.report.wall_s,
    ));
    t.render()
}

/// S3: the memory-diet run — 100k (quick) / 1M (full) plain-DSR nodes
/// under both executors, reporting peak RSS next to throughput.
pub fn exhibit_s3(quick: bool) -> String {
    let sizes = s3_sizes(quick);
    let single = cell(S1, &sizes, &[]);
    let n = single.hosts;
    let single = single.report;
    let sharded = cell(S1, &sizes, &sharded_exec()).report;

    // Differential gate: the reports under both executors must describe
    // one universe, down to the per-node totals.
    assert_eq!(
        single.fingerprint(),
        sharded.fingerprint(),
        "sharded and single executors diverged at {n} — determinism invariant broken"
    );

    let mib = |b: Option<u64>| match b {
        Some(b) => format!("{:.0}", b as f64 / (1024.0 * 1024.0)),
        None => "—".to_string(),
    };
    let per_node = |b: Option<u64>| match b {
        Some(b) => format!("{:.0}", b as f64 / n as f64),
        None => "—".to_string(),
    };
    let mut t = Table::new(
        format!(
            "S3 — memory diet: {n} plain-DSR nodes ({} mode)",
            if quick { "quick" } else { "full" }
        ),
        &[
            "cell",
            "wall (s)",
            "events",
            "events/s",
            "ev/s engine",
            "delivery",
            "peak RSS (MiB)",
            "bytes/node",
        ],
    );
    for (name, r) in [("single", &single), ("sharded:8", &sharded)] {
        t.rowv(vec![
            name.to_string(),
            format!("{:.2}", r.wall_s),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.0}", r.events_per_sec_engine),
            format!("{:.3}", r.delivery_or_nan()),
            mib(r.peak_rss_bytes),
            per_node(r.peak_rss_bytes),
        ]);
    }
    t.note(
        "the S1 document at this population, stack as written: delivery and totals \
         are the per-node counter sum, as in every other exhibit",
    );
    t.note(
        "peak RSS is the process-lifetime VmHWM: the sharded cell's sample includes \
         the single cell's footprint, so the first cell is the diet's headline",
    );
    t.note(format!(
        "{} of {} nodes killed mid-run; flows chosen inside the largest radio component",
        single.nodes_killed, n
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_secure::campaign::json::Val;
    use manet_secure::scenario::{
        field_for_density, scale_family, Placement, ScenarioBuilder, Workload,
    };
    use manet_secure::ProtocolConfig;
    use manet_sim::{ExecMode, RadioConfig, SimDuration, SimTime};

    /// The full S1 is exercised by the exhibit smoke test; here just the
    /// shape helpers.
    #[test]
    fn s1_density_sizing_hits_target_degree() {
        let radio = RadioConfig::default();
        let field = field_for_density(2000, radio.range, 15.0);
        // A = n·πr²/deg ⇒ expected degree back out of the chosen field.
        let deg = 2000.0 * std::f64::consts::PI * radio.range * radio.range
            / (field.width * field.height);
        assert!((deg - 15.0).abs() < 0.5, "expected degree ~15, got {deg}");
    }

    fn value(sizes: &[Override], path: &str) -> Option<f64> {
        let found = sizes.iter().find(|(p, _)| *p == path)?;
        match found.1.v {
            Val::Num(n) => Some(n),
            _ => None,
        }
    }

    #[test]
    fn sizes_keep_the_shape_rules_in_both_modes() {
        // S1 leaves the population to the committed document, which
        // declares the same rule.
        assert!(value(&s1_sizes(false), "scenario.hosts").is_none());
        let doc = manet_secure::campaign::json::parse(S1).unwrap();
        let scenario = doc.get("scenario").unwrap();
        assert_eq!(crate::number(scenario, "hosts"), Some(2000.0));
        let kills = crate::number(scenario.get("churn").unwrap(), "kills");
        assert_eq!(kills, Some(2000.0 / 50.0));

        for quick in [true, false] {
            for sizes in [s2_sizes(quick), s3_sizes(quick)] {
                let hosts = value(&sizes, "scenario.hosts").unwrap();
                let kills = value(&sizes, "scenario.churn.kills").unwrap();
                assert_eq!(kills, (hosts / 50.0).floor(), "2% churn at {hosts}");
            }
            let s3 = s3_sizes(quick);
            let hosts = value(&s3, "scenario.hosts").unwrap();
            assert_eq!(value(&s3, "scenario.max_events"), Some(hosts * 20_000.0));
        }
        let hosts = value(&secure_scale_sizes(false), "scenario.hosts").unwrap();
        let cap = value(&secure_scale_sizes(false), "scenario.max_events").unwrap();
        assert!(cap == hosts * hosts * 15.0 && cap > 50_000_000.0);
    }

    /// Shrink a scale cell to test size: the shape rules above, small.
    fn tiny(hosts: u64, seed: u64, flows: u64) -> Vec<Override> {
        let mut sizes = scaled(hosts, flows, 2);
        sizes.push(("scenario.seed", num(seed)));
        sizes
    }

    #[test]
    fn s3_overrides_of_the_s1_document_are_the_builder_chain_they_replaced() {
        let mut sizes = tiny(60, 4, 3);
        sizes.extend(s3_sizes(true).split_off(4));
        for exec in [ExecMode::Single, ExecMode::Sharded(8)] {
            let mut net = scale_family(60, 4)
                .exec(exec)
                .max_events(100_000 * 20_000)
                .plain()
                .build();
            net.engine.run_until(SimTime(2_000_000));
            let flows = net.scale_flows(3);
            let chain = net.run(&Workload::flows(flows, 2, SimDuration::from_millis(400)));
            let variant = match exec {
                ExecMode::Single => Vec::new(),
                ExecMode::Sharded(_) => sharded_exec(),
            };
            let doc = cell(S1, &sizes, &variant).report;
            assert_eq!(doc.fingerprint(), chain.fingerprint(), "{exec:?}");
            assert_eq!(doc.exec_mode, chain.exec_mode);
        }
    }

    fn storm_chain(hosts: usize, density: f64, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder::new()
            .hosts(hosts)
            .placement(Placement::Uniform)
            .density(density)
            .seed(seed)
    }

    fn storm_proto() -> ProtocolConfig {
        ProtocolConfig {
            key_bits: 384,
            crypto_backend: manet_crypto::BackendKind::Rsa,
            ..ProtocolConfig::default()
        }
    }

    fn tiny_storm() -> Vec<Override> {
        vec![
            ("scenario.hosts", num(8)),
            ("scenario.field.density", num(10)),
            ("scenario.seed", num(5)),
        ]
    }

    #[test]
    fn s2_secure_storm_document_is_the_builder_chain_at_tiny_scale() {
        // The storm runs inside exhibit_s2; pin a miniature version here
        // so `cargo test` checks that the document is the builder chain
        // it replaced without the exhibit's wall cost.
        let mut net = storm_chain(8, 10.0, 5)
            .secure_with(storm_proto())
            .join_stagger(SimDuration::from_millis(20))
            .build();
        let chain = net.run(&Workload::bootstrap_storm());
        let doc = cell(SECURE_STORM, &tiny_storm(), &[]);
        assert_eq!(doc.all_ready, net.all_ready());
        assert_eq!(doc.report.fingerprint(), chain.fingerprint());
    }

    #[test]
    fn s2_secure_storm_is_identical_under_both_executors_at_tiny_scale() {
        // The full sharded-vs-single gate runs inside exhibit_s1/s2;
        // this miniature keeps the scale-shaped differential (staggered
        // joins, DAD timers, kills) in plain `cargo test`.
        let mut sizes = tiny_storm();
        sizes.push(("scenario.churn.kills", num(2)));
        let window = Json::arr(vec![num(2), num(6)]);
        sizes.push(("scenario.churn.window_s", window));
        let run = |exec: &str| {
            let variant = [("scenario.exec", Json::str(exec))];
            cell(SECURE_STORM, &sizes, &variant).report.fingerprint()
        };
        let single = run("single");
        for k in [1, 3, 8] {
            assert_eq!(
                single,
                run(&format!("sharded:{k}")),
                "sharded({k}) secure storm diverged from single"
            );
        }
    }

    #[test]
    fn secure_scale_document_is_the_builder_chain_it_replaced() {
        let sizes = [
            ("scenario.hosts", num(12)),
            ("scenario.seed", num(3)),
            ("workload.flows.scale", num(3)),
        ];
        let mut fingerprints = Vec::new();
        for batch in [true, false] {
            let mut net = storm_chain(12, 12.0, 3)
                .secure_with(ProtocolConfig {
                    batch_verify: batch,
                    ..storm_proto()
                })
                .join_stagger(SimDuration::from_millis(20))
                .build();
            net.run(&Workload::bootstrap_storm());
            let flows = net.scale_flows(3);
            let chain = net.run(&Workload::flows(flows, 2, SimDuration::from_millis(400)));
            let doc = cell(SECURE_SCALE, &sizes, &batch_verify(batch));
            assert_eq!(doc.report.fingerprint(), chain.fingerprint(), "{batch}");
            assert_eq!(doc.batch.requests > 0, batch, "a batch table only when on");
            assert!(doc.all_ready && doc.report.crypto.demand() > 0);
            fingerprints.push(chain.fingerprint());
        }
        assert_eq!(fingerprints[0], fingerprints[1], "batched vs inline");
    }
}
