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
//! The network and its flows are `campaigns/v1_flood.json`, run through
//! [`crate::cell`]; `…proto.verify_cache`, `…proto.crypto_backend` and
//! `…proto.batch_verify` are the exhibit's knobs.

use crate::documents::V1_FLOOD;
use crate::table::Table;
use crate::{cell, num, Cell, Override};
use manet_crypto::BackendKind;
use manet_secure::campaign::json::Json;

/// Verification demand of one V1 run.
fn demand(r: &Cell) -> u64 {
    r.report.crypto.demand()
}

/// `--full`: 36 hosts for the document's 24, ten rounds for its six —
/// sources fanning in on the two hub destinations (host `n / 2` and
/// `n - 2`) plus the background pair flows, as the document spells them
/// for 24.
fn v1_sizes(quick: bool) -> Vec<Override> {
    if quick {
        return Vec::new();
    }
    let n = 36;
    let pair = |(s, d): (u64, u64)| Json::arr(vec![num(s), num(d)]);
    let fan_in = (0..6)
        .map(|s| (s, n / 2))
        .chain((7..11).map(|s| (s, n - 2)));
    let flows = fan_in.chain([(11, 12), (13, 14)]).map(pair).collect();
    vec![
        ("scenario.hosts", num(n)),
        ("workload.flows", Json::arr(flows)),
        ("workload.packets", num(10)),
    ]
}

/// The cache-differential pair: verify cache on vs off under the
/// document's RSA backend. The report's `wall_s` covers key generation
/// and bootstrap too; [`Cell::traffic_s`] is the flows phase alone, so
/// exec/s rates are not diluted by either.
fn run_v1(cache: bool, quick: bool) -> Cell {
    let variant = [("scenario.stack.proto.verify_cache", Json::bool(cache))];
    cell(V1_FLOOD, &v1_sizes(quick), &variant)
}

/// The same flood under an explicit signature backend, batch drain on —
/// the per-backend throughput rows.
fn run_v1_backend(kind: BackendKind, quick: bool) -> Cell {
    let variant = [
        (
            "scenario.stack.proto.crypto_backend",
            Json::str(kind.name()),
        ),
        ("scenario.stack.proto.batch_verify", Json::bool(true)),
    ];
    cell(V1_FLOOD, &v1_sizes(quick), &variant)
}

/// V1: secure flood workload, verify cache on vs off.
pub fn exhibit_v1(quick: bool) -> String {
    let on = run_v1(true, quick);
    let off = run_v1(false, quick);

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
        demand(&on),
        demand(&off),
        "verification demand changed with the cache — pipeline accounting broken"
    );
    let hit_rate = on.report.crypto.cached as f64 / demand(&on).max(1) as f64;
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
    let backends: Vec<(BackendKind, Cell)> = BackendKind::ALL
        .iter()
        .map(|&k| (k, run_v1_backend(k, quick)))
        .collect();
    for (kind, r) in &backends {
        assert!(
            r.batch.executed > 0 && r.batch.executed < r.batch.requests,
            "{}: batch never amortized ({} executed of {} requested)",
            kind.name(),
            r.batch.executed,
            r.batch.requests
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
        let rate = crypto.cached as f64 / demand(r).max(1) as f64;
        t.rowv(vec![
            name.to_string(),
            crypto.executed.to_string(),
            crypto.cached.to_string(),
            format!("{rate:.3}"),
            format!("{:.3}", r.traffic_s),
            format!("{:.0}", crypto.executed as f64 / r.traffic_s.max(1e-9)),
            format!("{:.3}", r.report.delivery_or_nan()),
        ]);
    }
    t.note(format!(
        "identical universes with cache on/off (differential gate); demand {} checks, {} rejected",
        demand(&on),
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
            format!("{:.3}", r.report.wall_s - r.traffic_s),
            format!("{:.3}", r.traffic_s),
            format!("{:.0}", r.report.events_per_sec_engine),
            r.verifies_run.to_string(),
            r.signs_run.to_string(),
            r.batch.requests.to_string(),
            r.batch.executed.to_string(),
            format!("{:.2}x", r.amortization()),
        ]);
    }
    bt.note(format!(
        "null runs the engine {null_over_rsa:.1}x faster than rsa on this workload — the crypto \
         budget batching and caching are chasing"
    ));
    format!("{}\n{}", t.render(), bt.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_secure::scenario::{Placement, ScenarioBuilder, Workload};
    use manet_secure::{attacks, ProtocolConfig};
    use manet_sim::SimDuration;

    /// The document (quick) and its `--full` overrides are the builder
    /// chain and flow arithmetic they replaced, cache on and off.
    #[test]
    fn document_is_the_builder_chain_it_replaced() {
        for (quick, cache) in [(true, true), (true, false), (false, true)] {
            let (n, packets) = if quick { (24, 6) } else { (36, 10) };
            let mut flows: Vec<(usize, usize)> = (0..6).map(|s| (s, n / 2)).collect();
            flows.extend((7..11).map(|s| (s, n - 2)));
            flows.extend([(11, 12), (13, 14)]);
            let mut net = ScenarioBuilder::new()
                .hosts(n)
                .placement(Placement::Uniform)
                .density(8.0)
                .seed(1)
                .adversary(6, attacks::rerr_forger())
                .secure_with(ProtocolConfig {
                    rrep_multi: 6,
                    verify_cache: cache,
                    crypto_backend: BackendKind::Rsa,
                    ..ProtocolConfig::default()
                })
                .build();
            net.bootstrap();
            let chain = net.run(&Workload::flows(
                flows,
                packets,
                SimDuration::from_millis(300),
            ));
            let doc = run_v1(cache, quick).report;
            assert_eq!(doc.fingerprint(), chain.fingerprint(), "{quick} {cache}");
        }
    }

    /// The full V1 is exercised by the exhibit smoke test; here the
    /// workload-shape invariants.
    #[test]
    fn quick_flood_workload_hits_cache_hard() {
        let run = run_v1(true, true);
        assert!(demand(&run) > 50, "workload too small: {}", demand(&run));
        assert!(
            run.report.crypto.cached * 2 > demand(&run),
            "hit rate {}/{} at or below 1/2",
            run.report.crypto.cached,
            demand(&run)
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
        let run = run_v1_backend(BackendKind::Null, true);
        assert!(run.batch.executed > 0, "drain never executed");
        assert!(
            run.batch.executed < run.batch.requests,
            "no dedup: {} executed of {} requested",
            run.batch.executed,
            run.batch.requests
        );
        assert!(
            run.verifies_run >= run.batch.executed,
            "drain executions missing from the backend counter"
        );
        assert!(run.signs_run > 0, "flood produced no signing work");
    }

    #[test]
    fn uncached_run_reports_zero_cached() {
        let run = run_v1(false, true);
        assert_eq!(run.report.crypto.cached, 0);
        assert!(run.report.crypto.executed > 50);
    }
}
