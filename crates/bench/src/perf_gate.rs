//! The CI perf-regression gate: `tables -- --check-perf`.
//!
//! Re-runs the quick-mode S1 (2k, grid), S2 (10k, plain) and S3 (100k,
//! plain) cells and compares their **engine** events/sec — lifetime events over wall time spent inside
//! `Engine::run_until`, so scenario construction, flow picking, and key
//! generation don't pollute the signal — against the committed baseline
//! in `bench/baselines/BENCH_scale.baseline.json`. A fresh rate more
//! than `tolerance` below baseline fails the check (exit 1 from the
//! binary); wall-clock noise that doesn't change the event count only
//! moves this metric through genuine hot-path time.
//!
//! S3 additionally gates **peak RSS** (`VmHWM` after the 100k cell, the
//! biggest thing this process ever builds) with the comparison
//! *inverted*: a fresh peak more than `tolerance` *above* baseline
//! fails. That is the memory-diet ratchet — an accidental per-node
//! `Vec` or map shows up here long before it OOMs CI.
//!
//! S1's quick cell is short, so its rate is taken best-of-two; S2 and
//! S3 run several wall-seconds and are stable as single samples. Every
//! cell is a committed document run through `crate::cell`, as in the
//! exhibits.
//!
//! Knobs (environment):
//! * `PERF_BASELINE_JSON` — baseline path override (tests use this);
//! * `PERF_TOLERANCE` — allowed fractional regression, default `0.25`.
//!   CI runners with different silicon than the baseline machine can
//!   widen it instead of rebaselining on every hardware change.
//!
//! `tables -- --write-baseline` regenerates the baseline file from
//! fresh runs on the current machine.

use crate::documents::{S1, SECURE_SCALE};
use crate::scale_exhibits::{s2_sizes, s3_sizes, sharded_exec};
use crate::table::Table;
use crate::{cell, number, Override};
use manet_secure::campaign::json::{self, Json};

pub const DEFAULT_BASELINE_PATH: &str = "bench/baselines/BENCH_scale.baseline.json";
const DEFAULT_TOLERANCE: f64 = 0.25;

pub fn baseline_path() -> String {
    std::env::var("PERF_BASELINE_JSON").unwrap_or_else(|_| DEFAULT_BASELINE_PATH.to_string())
}

/// Resolve the allowed fractional regression from a raw
/// `PERF_TOLERANCE` value. Unset means the default; anything set must
/// be a finite non-negative number — a misconfigured CI gate should
/// fail loudly, not silently run at the default tolerance.
fn parse_tolerance(raw: Option<String>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_TOLERANCE);
    };
    let v: f64 = raw.trim().parse().map_err(|_| {
        format!("PERF_TOLERANCE={raw:?} is not a number (want a fraction like 0.25)")
    })?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "PERF_TOLERANCE={raw:?} must be a finite non-negative fraction (e.g. 0.25)"
        ));
    }
    Ok(v)
}

/// The gated throughput cells in report order: row label and baseline
/// key (less its `_events_per_sec_engine` suffix).
const CELLS: [(&str, &str); 5] = [
    ("S1 (2k grid)", "s1"),
    ("S1 (2k sharded:8)", "s1_sharded"),
    ("S2 (10k plain)", "s2"),
    ("S2 secure (1k batched)", "s2_secure"),
    ("S3 (100k plain)", "s3"),
];

fn baseline_key(cell: &(&str, &str)) -> String {
    format!("{}_events_per_sec_engine", cell.1)
}

/// Fresh quick-mode engine rates, one per [`CELLS`] row, and the
/// process peak RSS (`VmHWM`, `None` off Linux) sampled after the last.
fn fresh_cells() -> (Vec<f64>, Option<u64>) {
    let rate = |doc: &str, sizes: &[Override], variant: &[Override]| {
        cell(doc, sizes, variant).report.events_per_sec_engine
    };
    // S1's quick cell (the document as committed) is short: best of two.
    let s1 = |variant: &[Override]| rate(S1, &[], variant).max(rate(S1, &[], variant));
    let mut rates = vec![
        s1(&[]),
        s1(&sharded_exec()),
        rate(S1, &s2_sizes(true), &[]),
        // The secure-mode cell, also as committed (1k hosts, RSA, batch
        // drain on): storm plus signed route discovery, so a regression
        // anywhere in the identity/verify/batch pipeline lands here.
        rate(SECURE_SCALE, &[], &[]),
    ];
    // S3 runs last: its peak-RSS sample must not be inflated by a
    // later, larger allocation (the 100k scenario dwarfs the others).
    let s3 = cell(S1, &s3_sizes(true), &[]).report;
    rates.push(s3.events_per_sec_engine);
    (rates, s3.peak_rss_bytes)
}

/// The tolerance and the parsed baseline, or why the gate cannot run.
fn load(path: &str) -> Result<(f64, Json), String> {
    let tol = parse_tolerance(std::env::var("PERF_TOLERANCE").ok())?;
    let text = std::fs::read_to_string(path).map_err(|_| {
        format!("no baseline at {path} — run `tables -- --write-baseline` and commit it")
    })?;
    let doc = json::parse(&text).map_err(|e| format!("baseline at {path} does not parse: {e}"))?;
    Ok((tol, doc))
}

/// Run the check. Returns the rendered report and whether it passed.
pub fn check(path: &str) -> (String, bool) {
    let (tol, doc) = match load(path) {
        Ok(loaded) => loaded,
        Err(e) => return (format!("perf gate: {e}"), false),
    };
    let base = CELLS.iter().map(|c| number(&doc, &baseline_key(c)));
    let base: Option<Vec<f64>> = base.collect();
    let Some(base) = base else {
        return (format!("perf gate: baseline at {path} is malformed"), false);
    };
    // `null` (baseline written off-Linux) reads back as NaN: present
    // but unusable, so the RSS row is skipped rather than failed.
    let base_s3_rss = number(&doc, "s3_peak_rss_bytes");
    let (fresh, fresh_rss) = fresh_cells();

    let mut pass = true;
    let mut t = Table::new(
        format!(
            "perf gate — engine events/sec (−{:.0}%) and S3 peak RSS (+{:.0}%) vs baseline",
            tol * 100.0,
            tol * 100.0
        ),
        &["cell", "baseline", "fresh", "ratio", "verdict"],
    );
    for (((label, _), base), fresh_v) in CELLS.iter().zip(&base).zip(&fresh) {
        let ratio = fresh_v / base;
        let ok = ratio >= 1.0 - tol;
        pass &= ok;
        t.rowv(vec![
            label.to_string(),
            format!("{base:.0}"),
            format!("{fresh_v:.0}"),
            format!("{ratio:.2}×"),
            if ok {
                "ok".to_string()
            } else {
                format!("REGRESSION (>{:.0}% below baseline)", tol * 100.0)
            },
        ]);
    }
    // The memory cell: more is worse, so the comparison inverts.
    match (base_s3_rss.filter(|v| v.is_finite()), fresh_rss) {
        (Some(base), Some(rss)) => {
            let rss = rss as f64;
            let ratio = rss / base;
            let ok = ratio <= 1.0 + tol;
            pass &= ok;
            t.rowv(vec![
                "S3 peak RSS".to_string(),
                format!("{:.0} MiB", base / (1024.0 * 1024.0)),
                format!("{:.0} MiB", rss / (1024.0 * 1024.0)),
                format!("{ratio:.2}×"),
                if ok {
                    "ok".to_string()
                } else {
                    format!("REGRESSION (>{:.0}% above baseline)", tol * 100.0)
                },
            ]);
        }
        (None, _) => {
            t.note("S3 peak RSS: no usable baseline value — memory cell skipped");
        }
        (_, None) => {
            t.note("S3 peak RSS: unavailable on this platform — memory cell skipped");
        }
    }
    // The two plain single-executor cells, S1 and S2.
    let beats = |row: usize| fresh[row] > base[row] * (1.0 + tol);
    if beats(0) && beats(2) {
        t.note("cells beat baseline by more than the tolerance — consider `--write-baseline` to ratchet");
    }
    t.note(format!("baseline: {path}"));
    (t.render(), pass)
}

/// Regenerate the baseline file from fresh runs on this machine.
pub fn write_baseline(path: &str) -> std::io::Result<String> {
    let (fresh, rss) = fresh_cells();
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let rss = rss.map_or(Json::null(), |b| Json::num(b as f64));
    let mut members = vec![
        ("comment".to_string(), Json::str(BASELINE_COMMENT)),
        ("quick".to_string(), Json::bool(true)),
    ];
    let rates = CELLS.iter().zip(&fresh);
    members.extend(rates.map(|(cell, rate)| (baseline_key(cell), Json::num(rate.round()))));
    members.push(("s3_peak_rss_bytes".to_string(), rss));
    let body = json::canonical(&Json::obj(members));
    std::fs::write(path, &body)?;
    Ok(format!("wrote {path}:\n{body}"))
}

const BASELINE_COMMENT: &str = "engine events/sec + S3 peak-RSS baselines for `tables -- --check-perf` (quick-mode S1 grid single+sharded, S2 plain, S2 secure batched, S3 plain cells; regenerate with `tables -- --write-baseline` when the hot path or memory layout legitimately changes, or CI hardware does)";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_numbers_parse_from_our_own_format() {
        let text = "{\n  \"comment\": \"x\",\n  \"quick\": true,\n  \"s1_events_per_sec_engine\": 2500000,\n  \"s1_sharded_events_per_sec_engine\": 2400000,\n  \"s2_events_per_sec_engine\": 1400000,\n  \"s2_secure_events_per_sec_engine\": 450000,\n  \"s3_events_per_sec_engine\": 1300000,\n  \"s3_peak_rss_bytes\": 900000000\n}\n";
        let doc = json::parse(text).unwrap();
        for (key, value) in [
            ("s1_events_per_sec_engine", 2_500_000.0),
            ("s1_sharded_events_per_sec_engine", 2_400_000.0),
            ("s2_events_per_sec_engine", 1_400_000.0),
            ("s2_secure_events_per_sec_engine", 450_000.0),
            ("s3_events_per_sec_engine", 1_300_000.0),
            ("s3_peak_rss_bytes", 900_000_000.0),
        ] {
            assert_eq!(number(&doc, key), Some(value), "{key}");
        }
    }

    #[test]
    fn committed_baseline_loads() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../",
            "bench/baselines/BENCH_scale.baseline.json"
        );
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(number(&doc, "s3_events_per_sec_engine").is_some_and(|v| v > 0.0));
        assert!(number(&doc, "s3_peak_rss_bytes").is_some());
    }

    #[test]
    fn unparseable_baseline_fails_with_the_parse_error_and_its_line() {
        let dir = std::env::temp_dir().join("perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        std::fs::write(
            &path,
            "{\n  \"quick\": true,\n  \"s1_events_per_sec_engine\": \n",
        )
        .unwrap();
        let (msg, pass) = check(path.to_str().unwrap());
        assert!(!pass);
        assert!(
            msg.contains("truncated.json does not parse: line 4"),
            "{msg}"
        );
    }

    #[test]
    fn null_rss_baseline_reads_as_nan_and_skips_the_memory_cell() {
        // An off-Linux `--write-baseline` spells the RSS cell null; the
        // gate must treat it as absent, not compare against NaN.
        let doc = json::parse("{\"s3_peak_rss_bytes\": null}").unwrap();
        let v = number(&doc, "s3_peak_rss_bytes").expect("present");
        assert!(v.is_nan());
        assert_eq!(v.is_finite().then_some(v), None, "NaN must filter out");
    }

    #[test]
    fn tolerance_accepts_valid_values_and_defaults_when_unset() {
        assert_eq!(parse_tolerance(None), Ok(DEFAULT_TOLERANCE));
        assert_eq!(parse_tolerance(Some("0.1".into())), Ok(0.1));
        assert_eq!(parse_tolerance(Some(" 0.5 ".into())), Ok(0.5));
        assert_eq!(parse_tolerance(Some("0".into())), Ok(0.0));
    }

    #[test]
    fn tolerance_rejects_garbage_instead_of_masking_it() {
        for bad in ["25%", "lots", "", "-0.1", "NaN", "inf"] {
            let r = parse_tolerance(Some(bad.into()));
            assert!(r.is_err(), "{bad:?} must be rejected, got {r:?}");
            assert!(
                r.unwrap_err().contains("PERF_TOLERANCE"),
                "error must name the knob"
            );
        }
    }

    #[test]
    fn missing_baseline_fails_with_instructions() {
        let (msg, pass) = check("/nonexistent/baseline.json");
        assert!(!pass);
        assert!(msg.contains("--write-baseline"), "{msg}");
    }

    #[test]
    fn malformed_baseline_fails() {
        let dir = std::env::temp_dir().join("perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"quick\": true}").unwrap();
        let (msg, pass) = check(path.to_str().unwrap());
        assert!(!pass);
        assert!(msg.contains("malformed"), "{msg}");
    }

    #[test]
    fn pre_s3_baseline_is_rejected_as_malformed() {
        // A baseline from before the memory diet lacks the s3 keys; the
        // gate must demand a rebaseline instead of silently passing.
        let dir = std::env::temp_dir().join("perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(
            &path,
            "{\n  \"quick\": true,\n  \"s1_events_per_sec_engine\": 1,\n  \"s1_sharded_events_per_sec_engine\": 1,\n  \"s2_events_per_sec_engine\": 1\n}\n",
        )
        .unwrap();
        let (msg, pass) = check(path.to_str().unwrap());
        assert!(!pass);
        assert!(msg.contains("malformed"), "{msg}");
    }

    #[test]
    fn pre_secure_baseline_is_rejected_as_malformed() {
        // A baseline from before the secure cell lacks its key; the
        // stale file must force a rebaseline, not skip the new gate.
        let dir = std::env::temp_dir().join("perf_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pre_secure.json");
        std::fs::write(
            &path,
            "{\n  \"quick\": true,\n  \"s1_events_per_sec_engine\": 1,\n  \"s1_sharded_events_per_sec_engine\": 1,\n  \"s2_events_per_sec_engine\": 1,\n  \"s3_events_per_sec_engine\": 1,\n  \"s3_peak_rss_bytes\": 1\n}\n",
        )
        .unwrap();
        let (msg, pass) = check(path.to_str().unwrap());
        assert!(!pass);
        assert!(msg.contains("malformed"), "{msg}");
    }
}
