//! # manet-bench
//!
//! The benchmark and exhibit harness: every table and figure of the
//! paper (and the quantified versions of its claims) is regenerated by a
//! function here. The `tables` binary prints them.
//!
//! | exhibit | function |
//! |---------|----------|
//! | T1 (Table 1) | [`protocol_exhibits::exhibit_t1`] |
//! | T2 (Table 2) | [`protocol_exhibits::exhibit_t2`] |
//! | F1 (Figure 1) | [`protocol_exhibits::exhibit_f1`] |
//! | F2 (Figure 2) | [`protocol_exhibits::exhibit_f2`] |
//! | F3 (Figure 3) | [`protocol_exhibits::exhibit_f3`] |
//! | E1 (DAD) | [`eval_exhibits::exhibit_e1`] |
//! | E2 (discovery) | [`eval_exhibits::exhibit_e2`] |
//! | E3 (attack matrix) | [`eval_exhibits::exhibit_e3`] |
//! | E4 (credits) | [`eval_exhibits::exhibit_e4`] |
//! | E5 (bootstrap) | [`eval_exhibits::exhibit_e5`] |
//! | A1–A4 (ablations) | [`eval_exhibits::ablation_srr`] … |
//! | S1 (scale) | [`scale_exhibits::exhibit_s1`] |
//! | S2 (scale, 10k) | [`scale_exhibits::exhibit_s2`] |
//! | S3 (memory diet, 100k) | [`scale_exhibits::exhibit_s3`] |
//! | V1 (verify pipeline) | [`crypto_exhibits::exhibit_v1`] |
//!
//! S1–S3, V1 and the perf gate run committed scenario documents
//! (`documents`, embedded from `campaigns/`) down the campaigns' own
//! path: `cell` overrides a document by dotted path, parses it into a
//! `ScenarioSpec`, builds, and drives it with `WorkloadSpec::drive`.
//! Exhibits print tables and nothing else; the numbers that count are
//! committed in `bench/history.jsonl` and `bench/baselines/`.

pub mod crypto_exhibits;
pub mod eval_exhibits;
pub mod perf_gate;
pub mod protocol_exhibits;
pub mod scale_exhibits;
pub mod table;

use manet_crypto::BatchStats;
use manet_secure::campaign::json::{self, Json, Val};
use manet_secure::campaign::{ScenarioSpec, StackSpec, WorkloadSpec};
use manet_secure::scenario::{Network, NodeApi, RunReport};
use std::time::Instant;

/// The committed documents the scale and verify exhibits run, embedded
/// so no exhibit depends on the working directory. `S1` is a bare
/// scenario document (the defaults file of `campaigns/s1_density.json`,
/// and so the S2-plain and S3 cells, which are overrides of it); the
/// others are one-cell plans `campaign run` accepts as they are.
pub(crate) mod documents {
    pub(crate) const S1: &str = include_str!("../../../campaigns/s1_base.json");
    pub(crate) const SECURE_STORM: &str = include_str!("../../../campaigns/s2_secure_storm.json");
    pub(crate) const SECURE_SCALE: &str = include_str!("../../../campaigns/s2_secure_scale.json");
    pub(crate) const V1_FLOOD: &str = include_str!("../../../campaigns/v1_flood.json");
}

/// One `(dotted path, value)` override of a scenario document.
pub(crate) type Override = (&'static str, Json);

/// An integer override value.
pub(crate) fn num(v: u64) -> Json {
    Json::num(v as f64)
}

/// What one run of a document leaves behind.
pub(crate) struct Cell {
    /// The driver's report, re-timed: `wall_s` and `events_per_sec`
    /// cover the whole cell — construction, bootstrap, formation beat,
    /// flow picking and traffic — since the build cost is part of what
    /// the channel and crypto layers buy back.
    pub(crate) report: RunReport,
    /// Wall seconds of the traffic phase alone (the driver's own
    /// `wall_s`), free of key generation and bootstrap.
    pub(crate) traffic_s: f64,
    /// Hosts built (the DNS node a secure stack adds not counted).
    pub(crate) hosts: usize,
    /// Whether every host had completed DAD when the run ended.
    pub(crate) all_ready: bool,
    /// Network-wide batch-verification counters (zero without a batch
    /// table: plain stacks, inline verification).
    pub(crate) batch: BatchStats,
    /// Verifications and signatures the shared backend actually ran.
    pub(crate) verifies_run: u64,
    pub(crate) signs_run: u64,
}

impl Cell {
    /// Backend ops saved per op executed by the network-wide drain.
    pub(crate) fn amortization(&self) -> f64 {
        self.batch.requests as f64 / self.batch.executed.max(1) as f64
    }
}

/// Run `doc` (a scenario document, or a plan's `base`) with the mode's
/// `sizes` and then the cell's own `variant` set over it by dotted path.
/// Panics on a document that does not parse: the documents are
/// compiled in and `tests/campaign.rs` loads every one of them.
pub(crate) fn cell(doc: &str, sizes: &[Override], variant: &[Override]) -> Cell {
    let parsed = json::parse(doc).expect("committed document is valid JSON");
    let mut scenario = parsed.get("base").cloned().unwrap_or(parsed);
    for (path, value) in sizes.iter().chain(variant) {
        json::set_path(&mut scenario, path, value.clone()).expect("override path");
    }
    let spec = ScenarioSpec::from_json(&scenario).unwrap_or_else(|e| panic!("cell document: {e}"));
    let t0 = Instant::now();
    match spec.stack {
        StackSpec::Plain(b) => finish(b.build(), &spec.workload, t0),
        StackSpec::Secure(b) => finish(b.build(), &spec.workload, t0),
    }
}

fn finish<P: NodeApi>(mut net: Network<P>, workload: &WorkloadSpec, t0: Instant) -> Cell {
    let mut report = workload.drive(&mut net);
    let traffic_s = report.wall_s;
    report.wall_s = t0.elapsed().as_secs_f64();
    report.events_per_sec = report.events as f64 / report.wall_s;
    let backend = net.crypto_backend.as_ref();
    Cell {
        report,
        traffic_s,
        hosts: net.hosts.len(),
        all_ready: net.all_ready(),
        batch: net.batch.as_ref().map(|b| b.stats()).unwrap_or_default(),
        verifies_run: backend.map_or(0, |b| b.verifies_executed()),
        signs_run: backend.map_or(0, |b| b.signs_executed()),
    }
}

/// The number under `key`. A `null` (how the writers spell NaN and
/// infinity, which JSON cannot represent) reads back as `Some(NaN)` —
/// present but not finite — distinct from `None` for a missing key.
pub(crate) fn number(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key)?.v {
        Val::Num(n) => Some(n),
        Val::Null => Some(f64::NAN),
        _ => None,
    }
}

/// All exhibit IDs in presentation order.
pub const EXHIBITS: &[&str] = &[
    "t1", "t2", "f1", "f2", "f3", "e1", "e2", "e3", "e4", "e5", "a1", "a2", "a3", "a4", "a5", "s1",
    "s2", "s3", "v1",
];

/// Render one exhibit by ID (`quick` trades seeds for speed).
pub fn render(id: &str, quick: bool) -> Option<String> {
    Some(match id {
        "t1" => protocol_exhibits::exhibit_t1(),
        "t2" => protocol_exhibits::exhibit_t2(),
        "f1" => protocol_exhibits::exhibit_f1(),
        "f2" => protocol_exhibits::exhibit_f2(),
        "f3" => protocol_exhibits::exhibit_f3(),
        "e1" => eval_exhibits::exhibit_e1(quick),
        "e2" => eval_exhibits::exhibit_e2(quick),
        "e3" => eval_exhibits::exhibit_e3(quick),
        "e4" => eval_exhibits::exhibit_e4(quick),
        "e5" => eval_exhibits::exhibit_e5(quick),
        "a1" => eval_exhibits::ablation_srr(),
        "a2" => eval_exhibits::ablation_crep(quick),
        "a3" => eval_exhibits::ablation_credit(quick),
        "a4" => eval_exhibits::ablation_keysize(),
        "a5" => eval_exhibits::ablation_probe(quick),
        "s1" => scale_exhibits::exhibit_s1(quick),
        "s2" => scale_exhibits::exhibit_s2(quick),
        "s3" => scale_exhibits::exhibit_s3(quick),
        "v1" => crypto_exhibits::exhibit_v1(quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_exhibit_renders() {
        // The heavyweight ones are covered by their own module tests;
        // here we just check the dispatch table is complete for the
        // cheap, static exhibits.
        for id in ["t1", "t2", "f1", "a1", "a4"] {
            assert!(render(id, true).is_some(), "{id} missing");
        }
        assert!(render("nope", true).is_none());
        assert_eq!(EXHIBITS.len(), 19);
    }
}
