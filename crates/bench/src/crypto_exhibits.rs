//! V1 — the verify-pipeline exhibit: a secure-node flood workload run
//! twice, with the signature-verdict cache on and off.
//!
//! The workload concentrates RREQ floods: a dense uniform network
//! (expected degree ~8) where several sources discover routes to shared
//! hub destinations under a flood-stress config (`rrep_multi = 6`, so a
//! destination answers up to six copies of each flood), with a
//! signed-RERR spammer in the population. Every repeated
//! `(key, payload, signature)` triple — the shared SRR prefix across
//! flood copies, the re-presented source proof, the spammer's identical
//! RERR payload — is exactly what `manet_crypto::VerifyCache` memoizes.
//!
//! The two runs double as the pipeline's differential gate: verification
//! verdicts are pure, so the cached and uncached universes must agree on
//! every observable (events, bytes, delivery) and on the total
//! verification demand. The exhibit panics if they do not, or if the
//! cache hit rate on this workload drops to half or below.
//!
//! Results land in `BENCH_crypto.json` (next to `BENCH_scale.json`),
//! including a re-timed quick S1 grid run so the scale trajectory shows
//! the node-stack refactor did not tax the hot path.

use crate::table::Table;
use crate::{number, obj, report_json};
use manet_crypto::BackendKind;
use manet_secure::campaign::json::{self, Json, Val};
use manet_secure::scenario::{Placement, RunReport, ScenarioBuilder, Workload};
use manet_secure::{attacks, ProtocolConfig};
use manet_sim::SimDuration;
use std::time::Instant;

/// Observables of one V1 run: the boot wall plus the flows-phase
/// [`RunReport`] (whose `wall_s` covers the traffic only, so exec/s
/// rates are not diluted by RSA key generation), and the
/// benchmark-only backend/batch execution counters.
struct V1Run {
    wall_boot_s: f64,
    report: RunReport,
    backend_verifies: u64,
    backend_signs: u64,
    batch_requests: u64,
    batch_executed: u64,
}

impl V1Run {
    fn demand(&self) -> u64 {
        self.report.crypto.demand()
    }

    /// Backend ops saved per op executed by the network-wide drain.
    fn amortization(&self) -> f64 {
        self.batch_requests as f64 / self.batch_executed.max(1) as f64
    }
}

/// The flood workload under an explicit protocol config: `n` hosts at
/// expected radio degree ~8, sources fanning in on two hub destinations
/// plus background pair flows.
fn run_v1_cfg(cfg: ProtocolConfig, quick: bool, seed: u64) -> V1Run {
    let n = if quick { 24 } else { 36 };
    let (packets, rounds_ms) = if quick { (6, 300) } else { (10, 300) };
    let hub_a = n / 2;
    let hub_b = n - 2;
    let mut flows: Vec<(usize, usize)> = (0..6).map(|s| (s, hub_a)).collect();
    flows.extend((7..11).map(|s| (s, hub_b)));
    flows.push((11, 12));
    flows.push((13, 14));

    let t0 = Instant::now();
    let mut net = ScenarioBuilder::new()
        .hosts(n)
        .placement(Placement::Uniform)
        .density(8.0)
        .seed(seed)
        .adversary(6, attacks::rerr_forger())
        .secure_with(cfg)
        .build();
    net.bootstrap();
    let wall_boot_s = t0.elapsed().as_secs_f64();
    let report = net.run(&Workload::flows(
        flows,
        packets,
        SimDuration::from_millis(rounds_ms),
    ));
    let (bv, bs) = net
        .crypto_backend
        .as_ref()
        .map(|b| (b.verifies_executed(), b.signs_executed()))
        .unwrap_or((0, 0));
    let stats = net.batch.as_ref().map(|b| b.stats()).unwrap_or_default();
    V1Run {
        wall_boot_s,
        report,
        backend_verifies: bv,
        backend_signs: bs,
        batch_requests: stats.requests,
        batch_executed: stats.executed,
    }
}

/// The cache-differential pair: verify cache on vs off under the
/// default (RSA) backend.
fn run_v1(cache: bool, quick: bool, seed: u64) -> V1Run {
    run_v1_cfg(
        ProtocolConfig {
            rrep_multi: 6,
            verify_cache: cache,
            ..ProtocolConfig::default()
        },
        quick,
        seed,
    )
}

/// The same flood under an explicit signature backend, batch drain on —
/// the per-backend throughput rows of `BENCH_crypto.json`.
fn run_v1_backend(kind: BackendKind, quick: bool, seed: u64) -> V1Run {
    run_v1_cfg(
        ProtocolConfig {
            rrep_multi: 6,
            crypto_backend: kind,
            batch_verify: true,
            ..ProtocolConfig::default()
        },
        quick,
        seed,
    )
}

/// V1: secure flood workload, verify cache on vs off.
pub fn exhibit_v1(quick: bool) -> String {
    let seed = 1;
    let on = run_v1(true, quick, seed);
    let off = run_v1(false, quick, seed);

    // Differential gate: memoizing a pure function must not move a
    // single event, byte, or verdict.
    assert_eq!(
        (
            on.report.events,
            on.report.tx_bytes,
            on.report.crypto.failed
        ),
        (
            off.report.events,
            off.report.tx_bytes,
            off.report.crypto.failed
        ),
        "cached and uncached universes diverged — verify cache is not pure"
    );
    assert_eq!(
        on.demand(),
        off.demand(),
        "verification demand changed with the cache — pipeline accounting broken"
    );
    let hit_rate = on.report.crypto.cached as f64 / on.demand().max(1) as f64;
    assert!(
        hit_rate > 0.5,
        "verify-cache hit rate {hit_rate:.3} fell to 1/2 or below on the flood workload"
    );

    // Per-backend throughput: the same flood under each signature
    // scheme, batch drain on. Each backend is its own universe (its
    // signature bytes differ), so the rows compare cost, never
    // observables. The drain must amortize under every backend — more
    // triples requested than backend ops executed — or batching is
    // pure overhead.
    let backends: Vec<(BackendKind, V1Run)> = BackendKind::ALL
        .iter()
        .map(|&k| (k, run_v1_backend(k, quick, seed)))
        .collect();
    for (kind, r) in &backends {
        assert!(
            r.batch_executed > 0 && r.batch_executed < r.batch_requests,
            "{}: batch never amortized ({} executed of {} requested)",
            kind.name(),
            r.batch_executed,
            r.batch_requests
        );
    }
    let rate_of = |want: BackendKind| {
        backends
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, r)| r.report.events_per_sec_engine)
            .expect("backend row")
    };
    let null_over_rsa = rate_of(BackendKind::Null) / rate_of(BackendKind::Rsa).max(1e-9);

    // Re-time the S1 hot path: the refactor moved the whole node stack,
    // so pin its cost next to the crypto numbers. Compare only against a
    // recorded run of the same workload size — a full-mode BENCH_scale
    // number against a quick re-run would fake a speedup.
    let prev_s1 = read_prev_s1_grid_wall(quick);
    let s1_wall_s = crate::scale_exhibits::s1_grid_wall(quick);

    let mut t = Table::new(
        format!(
            "V1 — verify pipeline: secure flood workload ({} mode), cache on vs off",
            if quick { "quick" } else { "full" }
        ),
        &[
            "verify cache",
            "RSA executed",
            "served cached",
            "hit rate",
            "flows wall (s)",
            "exec/s",
            "delivery",
        ],
    );
    for (name, r) in [("on", &on), ("off", &off)] {
        let crypto = r.report.crypto;
        let rate = crypto.cached as f64 / r.demand().max(1) as f64;
        t.rowv(vec![
            name.to_string(),
            crypto.executed.to_string(),
            crypto.cached.to_string(),
            format!("{rate:.3}"),
            format!("{:.3}", r.report.wall_s),
            format!("{:.0}", crypto.executed as f64 / r.report.wall_s.max(1e-9)),
            format!("{:.3}", r.report.delivery_or_nan()),
        ]);
    }
    t.note(format!(
        "identical universes with cache on/off (differential gate); demand {} checks, {} rejected",
        on.demand(),
        on.report.crypto.failed
    ));

    let mut bt = Table::new(
        "V1 — crypto backends: same flood per scheme, batch drain on".to_string(),
        &[
            "backend",
            "boot (s)",
            "flows wall (s)",
            "engine ev/s",
            "verifies run",
            "signs run",
            "batch req",
            "batch exec",
            "amortize",
        ],
    );
    for (kind, r) in &backends {
        bt.rowv(vec![
            kind.name().to_string(),
            format!("{:.3}", r.wall_boot_s),
            format!("{:.3}", r.report.wall_s),
            format!("{:.0}", r.report.events_per_sec_engine),
            r.backend_verifies.to_string(),
            r.backend_signs.to_string(),
            r.batch_requests.to_string(),
            r.batch_executed.to_string(),
            format!("{:.2}x", r.amortization()),
        ]);
    }
    bt.note(format!(
        "null runs the engine {null_over_rsa:.1}x faster than rsa on this workload — the crypto \
         budget batching and caching are chasing"
    ));
    t.note(format!(
        "S1 grid ({}) re-timed at {s1_wall_s:.3}s{}",
        if quick { "quick" } else { "full" },
        match prev_s1 {
            Some(prev) => format!(
                " vs {prev:.3}s recorded in BENCH_scale.json (Δ {:+.3}s)",
                s1_wall_s - prev
            ),
            None => " (no same-mode BENCH_scale.json record to compare against)".to_string(),
        }
    ));

    if let Err(e) = write_crypto_json(
        quick,
        &on,
        &off,
        hit_rate,
        &backends,
        null_over_rsa,
        s1_wall_s,
        prev_s1,
    ) {
        bt.note(format!("BENCH_crypto.json not written: {e}"));
    } else {
        bt.note(format!("wrote {}", crypto_json_path()));
    }
    format!("{}\n{}", t.render(), bt.render())
}

fn crypto_json_path() -> String {
    std::env::var("BENCH_CRYPTO_JSON").unwrap_or_else(|_| "BENCH_crypto.json".to_string())
}

/// Pull the grid-cell wall out of an existing BENCH_scale.json's
/// **`s1` section**. The recorded run must have the same `quick` mode
/// as ours — quick and full S1 are different workloads and their walls
/// must not be compared.
fn read_prev_s1_grid_wall(quick: bool) -> Option<f64> {
    let path = std::env::var("BENCH_SCALE_JSON").unwrap_or_else(|_| "BENCH_scale.json".to_string());
    read_prev_s1_grid_wall_from(&path, quick)
}

fn read_prev_s1_grid_wall_from(path: &str, quick: bool) -> Option<f64> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if doc.get("quick")?.v != Val::Bool(quick) {
        return None;
    }
    // Addressed by key: another section carrying a "grid" object (or
    // sections serialized in a different order) can never masquerade as
    // S1's record.
    number(doc.get("s1")?.get("grid")?, "wall_s")
}

#[allow(clippy::too_many_arguments)]
fn write_crypto_json(
    quick: bool,
    on: &V1Run,
    off: &V1Run,
    hit_rate: f64,
    backends: &[(BackendKind, V1Run)],
    null_over_rsa: f64,
    s1_wall_s: f64,
    prev_s1: Option<f64>,
) -> std::io::Result<()> {
    // Each side serializes its flows-phase RunReport verbatim, plus the
    // V1-specific extras (boot wall, per-second crypto rates).
    let run_json = |r: &V1Run| {
        let per_sec = |count: u64| Json::num(count as f64 / r.report.wall_s.max(1e-9));
        obj(vec![
            ("wall_boot_s", Json::num(r.wall_boot_s)),
            ("executed_per_sec", per_sec(r.report.crypto.executed)),
            ("demand_per_sec", per_sec(r.demand())),
            ("report", report_json(&r.report)),
        ])
    };
    // One entry per signature backend: engine throughput, the backend's
    // actual execution counters, and how hard the batch drain amortized.
    let backend_json = |(kind, r): &(BackendKind, V1Run)| {
        let batch = vec![
            ("requests", Json::num(r.batch_requests as f64)),
            ("executed", Json::num(r.batch_executed as f64)),
            ("amortization_ratio", Json::num(r.amortization())),
        ];
        let entry = vec![
            (
                "events_per_sec_engine",
                Json::num(r.report.events_per_sec_engine),
            ),
            ("wall_boot_s", Json::num(r.wall_boot_s)),
            ("flows_wall_s", Json::num(r.report.wall_s)),
            ("verifies_executed", Json::num(r.backend_verifies as f64)),
            ("signs_executed", Json::num(r.backend_signs as f64)),
            ("batch", obj(batch)),
        ];
        (kind.name(), obj(entry))
    };
    // A missing previous S1 record leaves both cells null.
    let prev = prev_s1.unwrap_or(f64::NAN);
    let doc = obj(vec![
        ("exhibit", Json::str("v1")),
        ("quick", Json::bool(quick)),
        ("verify_demand", Json::num(on.demand() as f64)),
        ("cache_hit_rate", Json::num(hit_rate)),
        ("cached", Json::num(on.report.crypto.cached as f64)),
        ("cache_on", run_json(on)),
        ("cache_off", run_json(off)),
        ("backends", obj(backends.iter().map(backend_json).collect())),
        ("null_over_rsa_engine_rate", Json::num(null_over_rsa)),
        ("s1_grid_wall_s", Json::num(s1_wall_s)),
        ("s1_grid_wall_prev_s", Json::num(prev)),
        ("s1_grid_wall_delta_s", Json::num(s1_wall_s - prev)),
    ]);
    std::fs::write(crypto_json_path(), json::canonical(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full V1 is exercised by the exhibit smoke test; here the
    /// workload-shape invariants.
    #[test]
    fn quick_flood_workload_hits_cache_hard() {
        let run = run_v1(true, true, 1);
        assert!(run.demand() > 50, "workload too small: {}", run.demand());
        assert!(
            run.report.crypto.cached * 2 > run.demand(),
            "hit rate {}/{} at or below 1/2",
            run.report.crypto.cached,
            run.demand()
        );
        assert!(
            run.report.delivery_or_nan() > 0.8,
            "flood workload must still deliver"
        );
    }

    /// The per-backend rows must be non-vacuous: the drain amortizes
    /// (fewer backend ops than triples requested), and every drained
    /// execution shows up in the backend's own counter.
    #[test]
    fn backend_rows_amortize_on_the_flood() {
        let run = run_v1_backend(BackendKind::Null, true, 1);
        assert!(run.batch_executed > 0, "drain never executed");
        assert!(
            run.batch_executed < run.batch_requests,
            "no dedup: {} executed of {} requested",
            run.batch_executed,
            run.batch_requests
        );
        assert!(
            run.backend_verifies >= run.batch_executed,
            "drain executions missing from the backend counter"
        );
        assert!(run.backend_signs > 0, "flood produced no signing work");
    }

    #[test]
    fn uncached_run_reports_zero_cached() {
        let run = run_v1(false, true, 1);
        assert_eq!(run.report.crypto.cached, 0);
        assert!(run.report.crypto.executed > 50);
    }

    #[test]
    fn prev_s1_parser_reads_the_structured_sections() {
        let dir = std::env::temp_dir().join("v1_parser_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_scale.json");
        // Sections deliberately serialized s2-first, with a decoy
        // "grid" object inside s2: the reader must reach into the s1
        // section, not grab the file's first "grid".
        std::fs::write(
            &path,
            concat!(
                "{\n  \"quick\": true,\n",
                "  \"s2\": {\"n_hosts\": 10000, \"grid\": {\"wall_s\": 9.999}},\n",
                "  \"s1\": {\"grid\": {\"wall_s\": 0.638, \"events\": 1}, \"linear\": {\"wall_s\": 0.886}}\n}\n",
            ),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(read_prev_s1_grid_wall_from(path, true), Some(0.638));
        assert_eq!(
            read_prev_s1_grid_wall_from(path, false),
            None,
            "a quick-mode record must not anchor a full-mode comparison"
        );
        assert_eq!(
            read_prev_s1_grid_wall_from("/nonexistent/nope.json", true),
            None
        );
        // A file with no s1 section (e.g. only S2/S3 ran) yields None
        // instead of a wrong anchor.
        let no_s1 = dir.join("no_s1.json");
        std::fs::write(
            &no_s1,
            "{\n  \"quick\": true,\n  \"s2\": {\"grid\": {\"wall_s\": 9.9}}\n}\n",
        )
        .unwrap();
        assert_eq!(
            read_prev_s1_grid_wall_from(no_s1.to_str().unwrap(), true),
            None
        );
    }
}
