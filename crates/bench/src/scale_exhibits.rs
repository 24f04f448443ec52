//! S1 and S2 — the scale exhibits.
//!
//! **S1**: a 2,000-node plain-DSR network (bootstrap route discovery +
//! traffic under mobility and node-failure churn) run under both
//! channel implementations. Impractical before the spatial-index
//! channel (the linear receiver scan makes every flood O(n²)); the
//! exhibit reports the wall-clock ratio and doubles as a coarse
//! channel-differential gate (the two runs must agree on every
//! machine-independent report field, or it panics).
//!
//! **S2**: the timer-wheel-era headline — 10,000 plain-DSR nodes
//! driven through formation, churn, and cross-field flows, plus a
//! secure variant (full CGA/DAD bootstrap storm; 1,000 hosts in full
//! mode, 250 in quick) run under **both queue implementations** as the
//! scale-level wheel-vs-heap differential gate, mirroring how S1 gates
//! grid-vs-linear.
//!
//! **S3**: the memory-diet exhibit — 100,000 plain-DSR nodes in quick
//! mode (1,000,000 in full mode, the stretch cell) with per-node stat
//! detail disabled, so delivery and protocol totals come from the
//! engine's streaming counters. Runs under both executors as a
//! fingerprint gate and records **peak RSS** (`VmHWM`) next to engine
//! events/sec: the number the arena/interning/SoA diet is accountable
//! to, gated by `tables -- --check-perf` against the committed
//! baseline.
//!
//! All three write into one machine-readable `BENCH_scale.json` (an
//! `"s1"`, `"s2"` and `"s3"` section, each exhibit preserving the
//! others' last same-mode records), so the perf trajectory is recorded
//! run over run; CI uploads it as an artifact and `tables --
//! --check-perf` compares the engine events/sec numbers (and S3's peak
//! RSS) against the committed baseline in `bench/baselines/`.

use crate::table::Table;
use crate::{obj, report_json};
use manet_secure::campaign::json::{self, Json, Val};
use manet_secure::scenario::{scale_family, Placement, RunReport, ScenarioBuilder, Workload};
use manet_secure::ProtocolConfig;
use manet_sim::{ChannelMode, ExecMode, QueueImpl, SimDuration, SimTime};
use std::time::Instant;

/// The S1 population size. The shape itself (uniform placement at
/// expected degree ~15, slow random waypoint, 2% churn) is the shared
/// [`scale_family`] preset, so the exhibit, the Criterion bench, and
/// the smoke tests all measure one scenario. Plain DSR (no RSA, no DAD)
/// keeps per-node cost flat so the channel layer — not key generation —
/// is what's being measured.
const S1_HOSTS: usize = 2000;

/// The S2 population size (same `scale_family` shape, 5× S1).
const S2_HOSTS: usize = 10_000;

/// Hosts in S2's secure variant: a full CGA/DAD bootstrap storm, which
/// scales as O(n² · degree) flood receptions — 1,000 hosts in full
/// mode, scaled down in quick mode like every other exhibit.
fn s2_secure_hosts(quick: bool) -> usize {
    if quick {
        250
    } else {
        1000
    }
}

/// Hosts in S2's secure *scale* cell — the batch-verification headline:
/// the full S2 population (all 10,000 nodes) runs secure in full mode,
/// 1,000 in quick. The cell runs twice, batched and inline, as the
/// at-scale byte-identity gate for deferred batch verification.
fn s2_secure_scale_hosts(quick: bool) -> usize {
    if quick {
        1000
    } else {
        S2_HOSTS
    }
}

/// The S3 population size: 100k in quick mode, the 1M stretch cell in
/// full mode. Same `scale_family` shape as S1/S2 — what changes is the
/// storage regime (per-node stat detail off, aggregate counters only),
/// so the exhibit measures the memory diet, not a different protocol.
fn s3_hosts(quick: bool) -> usize {
    if quick {
        100_000
    } else {
        1_000_000
    }
}

/// Shard count the sharded exhibit cells run: matches the top of the
/// CI matrix, and 8 contiguous field bands keep hundreds of S1 nodes
/// per shard.
const EXHIBIT_SHARDS: usize = 8;

/// One S1 run. The returned report's `wall_s` covers the whole cell —
/// construction, formation beat, flow picking, and traffic — since the
/// build cost is part of what the channel layer buys back.
fn run_s1(channel: ChannelMode, exec: ExecMode, quick: bool, seed: u64) -> RunReport {
    let (n_flows, packets) = if quick { (10, 3) } else { (16, 8) };

    let t0 = Instant::now();
    let mut net = scale_family(S1_HOSTS, seed)
        .channel(channel)
        .exec(exec)
        .plain()
        .build();
    // Formation beat: mobility starts ticking, churn kills are queued.
    net.engine.run_until(SimTime(2_000_000));
    let flows = net.scale_flows(n_flows);
    let mut report = net.run(&Workload::flows(
        flows,
        packets,
        SimDuration::from_millis(400),
    ));
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    report
}

/// The S2 plain cell: the S1 shape at 10,000 hosts.
pub(crate) fn run_s2_plain(exec: ExecMode, quick: bool, seed: u64) -> RunReport {
    let (n_flows, packets) = if quick { (16, 3) } else { (24, 6) };

    let t0 = Instant::now();
    let mut net = scale_family(S2_HOSTS, seed)
        .channel(ChannelMode::Grid)
        .exec(exec)
        .plain()
        .build();
    net.engine.run_until(SimTime(2_000_000));
    let flows = net.scale_flows(n_flows);
    let mut report = net.run(&Workload::flows(
        flows,
        packets,
        SimDuration::from_millis(400),
    ));
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    report
}

/// The S2 secure variant: `n` hosts, uniform at expected degree ~12,
/// joining in a 20 ms-staggered storm — full CGA generation, DAD
/// floods, and DNS name commits — then a short converge check. 384-bit
/// keys keep key *generation* (not the hot path under test) from
/// dominating the wall.
fn run_s2_secure(queue: QueueImpl, quick: bool, seed: u64) -> (RunReport, bool) {
    let n = s2_secure_hosts(quick);
    let t0 = Instant::now();
    let mut net = ScenarioBuilder::new()
        .hosts(n)
        .placement(Placement::Uniform)
        .density(12.0)
        .seed(seed)
        .queue(queue)
        .secure_with(ProtocolConfig {
            key_bits: 384,
            ..ProtocolConfig::default()
        })
        .join_stagger(SimDuration::from_millis(20))
        .build();
    let mut report = net.run(&Workload::bootstrap_storm());
    let all_ready = net.all_ready();
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    (report, all_ready)
}

/// Observables of one secure-scale run: the report, whether every host
/// completed DAD, and the network-wide batch-verification counters
/// (zero on the inline side, which owns no batch table).
pub(crate) struct SecureScaleRun {
    pub(crate) report: RunReport,
    pub(crate) all_ready: bool,
    pub(crate) batch_requests: u64,
    pub(crate) batch_executed: u64,
}

/// The S2 secure-scale cell: the bootstrap storm of [`run_s2_secure`]
/// at [`s2_secure_scale_hosts`] hosts **followed by cross-field signed
/// route discovery and data flows** — a clean storm verifies nothing
/// (signature checks live on collisions, RREP/RERR handling, and DNS
/// replies), so the flows phase is where verification load actually
/// exists for batching to amortize. The crypto backend is pinned to RSA
/// (the oracle this cell is accountable to, immune to the
/// `MANET_CRYPTO` knob); deferred batch verification toggles per call.
pub(crate) fn run_s2_secure_scale(batch: bool, quick: bool, seed: u64) -> SecureScaleRun {
    let n = s2_secure_scale_hosts(quick);
    let (n_flows, packets) = if quick { (16, 2) } else { (24, 3) };
    let t0 = Instant::now();
    let mut net = ScenarioBuilder::new()
        .hosts(n)
        .placement(Placement::Uniform)
        .density(12.0)
        .seed(seed)
        // The default 50M runaway cap is sized for ≤10k *plain* nodes,
        // but a secure DAD storm is quadratic by construction: every
        // joiner floods an AREQ over the whole field, ~n² × degree
        // receptions (the quick 1k run processes ~6.9M events, ~0.6 of
        // that bound). Budget to the flood structure with ~2× headroom,
        // never below the default.
        .max_events((n as u64 * n as u64 * 15).max(50_000_000))
        .secure_with(ProtocolConfig {
            key_bits: 384,
            crypto_backend: manet_crypto::BackendKind::Rsa,
            batch_verify: batch,
            ..ProtocolConfig::default()
        })
        .join_stagger(SimDuration::from_millis(20))
        .build();
    net.run(&Workload::bootstrap_storm());
    let all_ready = net.all_ready();
    let flows = net.scale_flows(n_flows);
    // `report.events` is cumulative since build, so the final report
    // fingerprints the storm and the flows phase together.
    let mut report = net.run(&Workload::flows(
        flows,
        packets,
        SimDuration::from_millis(400),
    ));
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    let stats = net.batch.as_ref().map(|b| b.stats()).unwrap_or_default();
    SecureScaleRun {
        report,
        all_ready,
        batch_requests: stats.requests,
        batch_executed: stats.executed,
    }
}

/// The S3 cell: the S1 shape at 100k (quick) or 1M (full) hosts, with
/// per-node stat detail off — delivery and totals are read back from
/// the engine's streaming counters, so report assembly allocates
/// nothing per node. `peak_rss_bytes` in the returned report is the
/// process-lifetime `VmHWM` sampled after the run.
pub(crate) fn run_s3(exec: ExecMode, quick: bool, seed: u64) -> RunReport {
    let n = s3_hosts(quick);
    let (n_flows, packets) = if quick { (16, 2) } else { (24, 3) };

    let t0 = Instant::now();
    let mut net = scale_family(n, seed)
        .channel(ChannelMode::Grid)
        .exec(exec)
        // Room proportional to population: the default 50M runaway cap
        // is sized for ≤10k nodes, and S3's mobility ticks alone pass it.
        .max_events(n as u64 * 20_000)
        .plain()
        .tune(|c| c.per_node_stats = false)
        .build();
    net.engine.run_until(SimTime(2_000_000));
    let flows = net.scale_flows(n_flows);
    let mut report = net.run(&Workload::flows(
        flows,
        packets,
        SimDuration::from_millis(400),
    ));
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    report
}

/// Wall seconds of one quick-or-full S1 run under the grid channel —
/// the V1 exhibit re-times it to show protocol-layer refactors leave the
/// scale workload's cost unchanged.
pub(crate) fn s1_grid_wall(quick: bool) -> f64 {
    run_s1(ChannelMode::Grid, ExecMode::Single, quick, 1).wall_s
}

/// One fresh quick S1 grid report, for the perf-regression gate.
pub(crate) fn s1_quick_report(exec: ExecMode) -> RunReport {
    run_s1(ChannelMode::Grid, exec, true, 1)
}

/// S1: 2,000-node scale run, grid vs linear channel, single vs sharded
/// executor.
pub fn exhibit_s1(quick: bool) -> String {
    let seed = 1;
    let n = S1_HOSTS;
    let grid = run_s1(ChannelMode::Grid, ExecMode::Single, quick, seed);
    let linear = run_s1(ChannelMode::Linear, ExecMode::Single, quick, seed);
    let sharded = run_s1(
        ChannelMode::Grid,
        ExecMode::Sharded(EXHIBIT_SHARDS),
        quick,
        seed,
    );

    // Differential gates: same seed ⇒ identical simulation universe,
    // down to every machine-independent field of the report — whichever
    // channel indexes receivers and whichever executor runs the loop.
    assert_eq!(
        grid.fingerprint(),
        linear.fingerprint(),
        "grid and linear channels diverged — determinism invariant broken"
    );
    assert_eq!(
        grid.fingerprint(),
        sharded.fingerprint(),
        "sharded and single executors diverged — determinism invariant broken"
    );

    let ratio = linear.wall_s / grid.wall_s;
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
    for (name, r) in [
        ("grid/single", &grid),
        ("linear/single", &linear),
        ("grid/sharded:8", &sharded),
    ] {
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
    t.note(format!(
        "identical observables under both channels and both executors (differential gates); linear/grid wall ratio {ratio:.2}×"
    ));
    t.note(format!(
        "single/sharded engine-rate ratio {shard_speedup:.2}× (sharded:{EXHIBIT_SHARDS} on {} core(s))",
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    ));
    t.note(format!(
        "{} of {} nodes killed mid-run; flows chosen inside the largest radio component",
        grid.nodes_killed, n
    ));

    let section = s1_section_json(n, &grid, &linear, &sharded, ratio);
    match write_scale_section(&scale_json_path(), "s1", section, quick) {
        Err(e) => t.note(format!("BENCH_scale.json not written: {e}")),
        Ok(()) => t.note(format!("wrote {} (s1 section)", scale_json_path())),
    };
    t.render()
}

/// S2: 10,000-node plain run under both executors (the scale-level
/// sharded-vs-single gate) plus the secure bootstrap storm under both
/// queue implementations (the scale-level wheel-vs-heap gate).
pub fn exhibit_s2(quick: bool) -> String {
    let seed = 1;
    let plain = run_s2_plain(ExecMode::Single, quick, seed);
    let plain_sharded = run_s2_plain(ExecMode::Sharded(EXHIBIT_SHARDS), quick, seed);

    let (sec_wheel, ready_wheel) = run_s2_secure(QueueImpl::Wheel, quick, seed);
    let (sec_heap, ready_heap) = run_s2_secure(QueueImpl::Heap, quick, seed);

    let sec_batched = run_s2_secure_scale(true, quick, seed);
    let sec_inline = run_s2_secure_scale(false, quick, seed);

    // Differential gates: the executor and the pending-event store are
    // scheduling machinery, not model changes — the 10k plain run must
    // be one universe under both executors, and the secure storm
    // (timer-heavy DAD, staggered joins, signature checks) one universe
    // under both queues.
    assert_eq!(
        plain.fingerprint(),
        plain_sharded.fingerprint(),
        "sharded and single executors diverged at 10k — determinism invariant broken"
    );
    assert_eq!(
        sec_wheel.fingerprint(),
        sec_heap.fingerprint(),
        "wheel and heap queues diverged — event-order invariant broken"
    );
    assert!(
        ready_wheel && ready_heap,
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
        sec_batched.batch_executed > 0 && sec_batched.batch_executed < sec_batched.batch_requests,
        "batch verification never amortized: {} executed of {} requested",
        sec_batched.batch_executed,
        sec_batched.batch_requests
    );

    let n_sec = s2_secure_hosts(quick);
    let ratio = sec_heap.wall_s / sec_wheel.wall_s;
    let mut t = Table::new(
        format!(
            "S2 — scale: {S2_HOSTS} plain-DSR nodes + secure {n_sec}-host DAD storm ({} mode)",
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
        (format!("plain {S2_HOSTS}"), "wheel", &plain),
        (
            format!("plain {S2_HOSTS} sharded:{EXHIBIT_SHARDS}"),
            "wheel",
            &plain_sharded,
        ),
        (format!("secure {n_sec}"), "wheel", &sec_wheel),
        (format!("secure {n_sec}"), "heap", &sec_heap),
        (
            format!("secure {} batched", s2_secure_scale_hosts(quick)),
            "wheel",
            &sec_batched.report,
        ),
        (
            format!("secure {} inline", s2_secure_scale_hosts(quick)),
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
        "identical secure universes under both queues (differential gate); heap/wheel wall ratio {ratio:.2}×"
    ));
    t.note(format!(
        "plain cell: {} of {} killed mid-run, mean degree {:.1}; secure cell: all {} hosts completed DAD",
        plain.nodes_killed,
        S2_HOSTS,
        plain.mean_degree.unwrap_or(f64::NAN),
        n_sec,
    ));
    let n_scale = s2_secure_scale_hosts(quick);
    let amortization =
        sec_batched.batch_requests as f64 / (sec_batched.batch_executed.max(1)) as f64;
    t.note(format!(
        "secure scale cell ({n_scale} hosts, RSA): identical universes batched and inline \
         (differential gate); batch amortization {amortization:.2}× \
         ({} requests, {} executed), wall {:.2}s batched vs {:.2}s inline",
        sec_batched.batch_requests,
        sec_batched.batch_executed,
        sec_batched.report.wall_s,
        sec_inline.report.wall_s,
    ));

    let section = s2_section_json(
        n_sec,
        &plain,
        &plain_sharded,
        &sec_wheel,
        &sec_heap,
        ratio,
        &sec_batched,
        &sec_inline,
        n_scale,
    );
    match write_scale_section(&scale_json_path(), "s2", section, quick) {
        Err(e) => t.note(format!("BENCH_scale.json not written: {e}")),
        Ok(()) => t.note(format!("wrote {} (s2 section)", scale_json_path())),
    };
    t.render()
}

/// S3: the memory-diet run — 100k (quick) / 1M (full) plain-DSR nodes
/// with per-node stat detail off, under both executors, reporting peak
/// RSS next to throughput.
pub fn exhibit_s3(quick: bool) -> String {
    let seed = 1;
    let n = s3_hosts(quick);
    let single = run_s3(ExecMode::Single, quick, seed);
    let sharded = run_s3(ExecMode::Sharded(EXHIBIT_SHARDS), quick, seed);

    // Differential gate: aggregate-counter reports under both executors
    // must describe one universe, down to the counter-derived totals.
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
            "S3 — memory diet: {n} plain-DSR nodes, streaming stats ({} mode)",
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
        "per-node stat detail off: delivery and totals come from the engine's \
         streaming counters (identical fingerprint to the detailed path — gated in tests)",
    );
    t.note(
        "peak RSS is the process-lifetime VmHWM: the sharded cell's sample includes \
         the single cell's footprint, so the first cell is the diet's headline",
    );
    t.note(format!(
        "{} of {} nodes killed mid-run; flows chosen inside the largest radio component",
        single.nodes_killed, n
    ));

    let section = s3_section_json(n, &single, &sharded);
    match write_scale_section(&scale_json_path(), "s3", section, quick) {
        Err(e) => t.note(format!("BENCH_scale.json not written: {e}")),
        Ok(()) => t.note(format!("wrote {} (s3 section)", scale_json_path())),
    };
    t.render()
}

fn scale_json_path() -> String {
    std::env::var("BENCH_SCALE_JSON").unwrap_or_else(|_| "BENCH_scale.json".to_string())
}

fn s1_section_json(
    n: usize,
    grid: &RunReport,
    linear: &RunReport,
    sharded: &RunReport,
    ratio: f64,
) -> Json {
    // Crypto counters of the grid run: total verification demand and the
    // cache hit rate (0/0 = NaN, rendered as null, until the scale family
    // runs secure nodes).
    let demand = grid.crypto.demand();
    let hit_rate = grid.crypto.cached as f64 / demand as f64;
    let crypto = vec![
        ("total_verifications", Json::num(demand as f64)),
        ("cached", Json::num(grid.crypto.cached as f64)),
        ("cache_hit_rate", Json::num(hit_rate)),
    ];
    obj(vec![
        ("n_hosts", Json::num(n as f64)),
        ("sim_secs", Json::num(grid.sim_s)),
        ("delivery_ratio", Json::num(grid.delivery_or_nan())),
        (
            "mean_degree",
            Json::num(grid.mean_degree.unwrap_or(f64::NAN)),
        ),
        ("grid", report_json(grid)),
        ("linear", report_json(linear)),
        ("sharded", report_json(sharded)),
        ("linear_over_grid_wall_ratio", Json::num(ratio)),
        ("crypto", obj(crypto)),
    ])
}

#[allow(clippy::too_many_arguments)]
fn s2_section_json(
    n_sec: usize,
    plain: &RunReport,
    plain_sharded: &RunReport,
    sec_wheel: &RunReport,
    sec_heap: &RunReport,
    heap_over_wheel: f64,
    sec_batched: &SecureScaleRun,
    sec_inline: &SecureScaleRun,
    n_scale: usize,
) -> Json {
    let amortization =
        sec_batched.batch_requests as f64 / (sec_batched.batch_executed.max(1)) as f64;
    let batch = vec![
        ("requests", Json::num(sec_batched.batch_requests as f64)),
        ("executed", Json::num(sec_batched.batch_executed as f64)),
        ("amortization_ratio", Json::num(amortization)),
    ];
    obj(vec![
        ("n_hosts", Json::num(S2_HOSTS as f64)),
        ("plain", report_json(plain)),
        ("plain_sharded", report_json(plain_sharded)),
        ("secure_hosts", Json::num(n_sec as f64)),
        ("secure", report_json(sec_wheel)),
        ("secure_heap", report_json(sec_heap)),
        ("heap_over_wheel_wall_ratio", Json::num(heap_over_wheel)),
        ("secure_scale_hosts", Json::num(n_scale as f64)),
        ("secure_scale", report_json(&sec_batched.report)),
        ("secure_scale_inline", report_json(&sec_inline.report)),
        ("batch", obj(batch)),
    ])
}

fn s3_section_json(n: usize, single: &RunReport, sharded: &RunReport) -> Json {
    // Section-level peak RSS: the later (sharded) sample is the
    // process max over both cells — the number the perf gate tracks.
    let rss = sharded.peak_rss_bytes.or(single.peak_rss_bytes);
    obj(vec![
        ("n_hosts", Json::num(n as f64)),
        ("per_node_stats", Json::bool(false)),
        ("single", report_json(single)),
        ("sharded", report_json(sharded)),
        (
            "peak_rss_bytes",
            rss.map_or(Json::null(), |b| Json::num(b as f64)),
        ),
    ])
}

/// Every section key of `BENCH_scale.json`. Readers address sections by
/// key (the V1 exhibit reads `s1.grid.wall_s`).
const SCALE_KEYS: [&str; 3] = ["s1", "s2", "s3"];

/// Write one exhibit's section into the scale JSON at `path`,
/// preserving the other exhibits' last records when they were produced
/// in the same mode (quick and full are different workloads; their
/// numbers must not cohabit one file).
fn write_scale_section(path: &str, key: &str, section: Json, quick: bool) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let existing = json::parse(&text).unwrap_or(Json::null());
    let same_mode = existing.get("quick").map(|q| &q.v) == Some(&Val::Bool(quick));
    let mut members = vec![("quick", Json::bool(quick))];
    for k in SCALE_KEYS {
        if k == key {
            members.push((k, section.clone()));
        } else if let Some(kept) = existing.get(k).filter(|_| same_mode) {
            members.push((k, kept.clone()));
        }
    }
    std::fs::write(path, json::canonical(&obj(members)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::number;
    use manet_secure::scenario::field_for_density;
    use manet_sim::RadioConfig;

    /// The full S1 is exercised by the exhibit smoke test; here just the
    /// shape helpers.
    #[test]
    fn s1_density_sizing_hits_target_degree() {
        let radio = RadioConfig::default();
        let field = field_for_density(S1_HOSTS, radio.range, 15.0);
        // A = n·πr²/deg ⇒ expected degree back out of the chosen field.
        let deg = S1_HOSTS as f64 * std::f64::consts::PI * radio.range * radio.range
            / (field.width * field.height);
        assert!((deg - 15.0).abs() < 0.5, "expected degree ~15, got {deg}");
    }

    #[test]
    fn sections_merge_and_survive_rewrites() {
        let dir = std::env::temp_dir().join("scale_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pathbuf = dir.join("BENCH_scale.json");
        let _ = std::fs::remove_file(&pathbuf);
        let path = pathbuf.to_str().unwrap();

        let section = |text: &str| json::parse(text).unwrap();
        let read = || json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        write_scale_section(path, "s1", section("{\"v\": 1}"), true).unwrap();
        write_scale_section(path, "s2", section("{\"w\": 2}"), true).unwrap();
        write_scale_section(path, "s3", section("{\"m\": 7}"), true).unwrap();
        // Re-writing s1 must keep the s2 and s3 records.
        write_scale_section(path, "s1", section("{\"v\": 3}"), true).unwrap();
        let doc = read();
        assert_eq!(number(doc.get("s1").unwrap(), "v"), Some(3.0));
        assert_eq!(number(doc.get("s2").unwrap(), "w"), Some(2.0));
        assert_eq!(number(doc.get("s3").unwrap(), "m"), Some(7.0));
        let text = std::fs::read_to_string(path).unwrap();
        let s1_at = text.find("\"s1\"").unwrap();
        let s2_at = text.find("\"s2\"").unwrap();
        let s3_at = text.find("\"s3\"").unwrap();
        assert!(
            s1_at < s2_at && s2_at < s3_at,
            "sections should serialize in S1, S2, S3 presentation order"
        );

        // A mode switch drops the stale other-mode sections.
        write_scale_section(path, "s2", section("{\"w\": 9}"), false).unwrap();
        let doc = read();
        assert!(doc.get("s1").is_none() && doc.get("s3").is_none());
        assert_eq!(doc.get("quick").unwrap().v, Val::Bool(false));
    }

    #[test]
    fn s3_section_round_trips_through_jsonscan() {
        // The perf gate and CI smoke both read the s3 section back;
        // pin that a real section survives the file round trip.
        let mut net = ScenarioBuilder::new()
            .hosts(3)
            .seed(7)
            .plain()
            .tune(|c| c.per_node_stats = false)
            .build();
        let single = net.run(&Workload::flows(
            vec![(0, 2)],
            2,
            SimDuration::from_millis(200),
        ));
        let section = s3_section_json(3, &single, &single);
        let text = json::canonical(&obj(vec![("quick", Json::bool(true)), ("s3", section)]));
        let doc = json::parse(&text).expect("the written file parses");
        let s3 = doc.get("s3").expect("s3 section present");
        assert_eq!(number(s3, "n_hosts"), Some(3.0));
        let sub = s3.get("single").expect("report present");
        assert_eq!(number(sub, "events"), Some(single.events as f64));
        // On Linux the section-level RSS is a positive number; elsewhere
        // the writer spells null, which reads back as present-but-NaN.
        let rss = number(s3, "peak_rss_bytes").expect("rss key present");
        assert!(rss.is_nan() || rss > 0.0, "rss {rss}");
    }

    #[test]
    fn stats_off_report_matches_stats_on_at_tiny_scale() {
        // The S3 regime (aggregate counters, no per-node detail) must
        // describe the same universe as the default detailed path: same
        // fingerprint, including counter-derived delivery and totals.
        let run = |detail: bool| {
            let mut net = scale_family(24, 3)
                .plain()
                .tune(|c| c.per_node_stats = detail)
                .build();
            net.engine.run_until(SimTime(2_000_000));
            let flows = net.scale_flows(3);
            net.run(&Workload::flows(flows, 2, SimDuration::from_millis(400)))
                .fingerprint()
        };
        assert_eq!(
            run(true),
            run(false),
            "streaming stats diverged from detailed"
        );
    }

    #[test]
    fn s2_secure_storm_is_identical_under_both_queues_at_tiny_scale() {
        // The full gate runs inside exhibit_s2; pin a miniature version
        // here so `cargo test` exercises the wheel-vs-heap secure
        // differential without the exhibit's wall cost.
        let run = |queue| {
            let mut net = ScenarioBuilder::new()
                .hosts(8)
                .placement(Placement::Uniform)
                .density(10.0)
                .seed(5)
                .queue(queue)
                .secure_with(ProtocolConfig {
                    key_bits: 384,
                    ..ProtocolConfig::default()
                })
                .join_stagger(SimDuration::from_millis(20))
                .build();
            let report = net.run(&Workload::bootstrap_storm());
            report.fingerprint()
        };
        assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    #[test]
    fn s2_secure_storm_is_identical_under_both_executors_at_tiny_scale() {
        // The full sharded-vs-single gate runs inside exhibit_s1/s2;
        // this miniature keeps the scale-shaped differential (staggered
        // joins, DAD timers, kills) in plain `cargo test`.
        let run = |exec| {
            let mut net = ScenarioBuilder::new()
                .hosts(8)
                .placement(Placement::Uniform)
                .density(10.0)
                .seed(5)
                .exec(exec)
                .churn(2, (SimTime(2_000_000), SimTime(6_000_000)))
                .secure_with(ProtocolConfig {
                    key_bits: 384,
                    ..ProtocolConfig::default()
                })
                .join_stagger(SimDuration::from_millis(20))
                .build();
            let report = net.run(&Workload::bootstrap_storm());
            report.fingerprint()
        };
        let single = run(manet_sim::ExecMode::Single);
        for k in [1, 3, 8] {
            assert_eq!(
                single,
                run(manet_sim::ExecMode::Sharded(k)),
                "sharded({k}) secure storm diverged from single"
            );
        }
    }

    #[test]
    fn empty_flow_report_round_trips_through_jsonscan() {
        // No flows sent: delivery_ratio is None and serializes as null;
        // the reader must see the document instead of choking on it.
        let mut net = ScenarioBuilder::new().hosts(2).plain().build();
        let report = net.run(&Workload::flows(
            Vec::new(),
            0,
            SimDuration::from_millis(10),
        ));
        assert_eq!(report.delivery_ratio, None, "empty flow list sent data?");
        let text = report.to_json();
        let j = report_json(&report);
        assert!(
            number(&j, "delivery_ratio").is_some_and(f64::is_nan),
            "null must round-trip as present-but-NaN: {text}"
        );
        assert_eq!(number(&j, "events"), Some(report.events as f64));
        assert_eq!(number(&j, "nodes_killed"), Some(report.nodes_killed as f64));
        assert!(!text.contains("NaN"), "raw NaN leaked into JSON: {text}");
    }
}
