//! # manet-bench
//!
//! The benchmark and exhibit harness: every table and figure of the
//! paper (and DESIGN.md §4's quantified claims) is regenerated by a
//! function here. The `tables` binary prints them; the Criterion benches
//! under `benches/` time the performance-shaped ones.
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

pub mod crypto_exhibits;
pub mod eval_exhibits;
pub mod perf_gate;
pub mod protocol_exhibits;
pub mod scale_exhibits;
pub mod table;

use manet_secure::campaign::json::{self, Json, Val};
use manet_secure::scenario::RunReport;

/// A JSON object from `(key, value)` pairs: what the `BENCH_*.json` and
/// baseline writers build and render with [`json::canonical`].
pub(crate) fn obj(members: Vec<(&str, Json)>) -> Json {
    let owned = members.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::obj(owned.collect())
}

/// A report as a JSON value: its own [`RunReport::to_json`] text, which
/// fixes the precision of every field, parsed back.
pub(crate) fn report_json(r: &RunReport) -> Json {
    json::parse(&r.to_json()).expect("RunReport::to_json emits valid JSON")
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
