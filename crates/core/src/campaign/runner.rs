//! Campaign execution: expand a [`CampaignPlan`] into (cell, seed)
//! jobs, fan them across cores, aggregate per-cell statistics, apply
//! tolerance checks, and render one **canonical** JSON report.
//!
//! Determinism contract: the canonical report is a pure function of
//! (plan, seeds). Job order is fixed (cells in expansion order × seeds
//! in file order), each job's simulation is a pure function of its
//! document, the parallel fan-out only changes *when* a job runs (its
//! result lands back at its index; the key pairs the cells of a seed
//! share are generated before any job starts, and the `IdentityPool`
//! hands every job the identity it would have generated itself), and every
//! wall-clock-derived report field is masked to the exact values
//! [`RunReport::fingerprint`] uses (`null` / `""` / `0`). Running the
//! same campaign twice must produce byte-identical reports —
//! `tests/campaign.rs` and the CI `campaign-smoke` step both diff-gate
//! this.

use super::json::{self, Json};
use super::plan::{CampaignPlan, Cell, SweepMode};
use super::spec::{ScenarioSpec, SpecError};
use crate::identity::IdentityPool;
use crate::scenario::report::{Class, FieldValue, FIELDS};
use crate::scenario::RunReport;
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

/// The flat metric keys every run contributes, in report order: the
/// [`Class::Metric`] rows of the report's field table. Each maps to a
/// machine-independent `RunReport` field; the wall-derived fields are
/// *not* here — they appear in the canonical report only as
/// fingerprint-style masked constants.
pub const METRICS: [&str; 19] = {
    let mut keys = [""; 19];
    let (mut row, mut n) = (0, 0);
    while row < FIELDS.len() {
        if matches!(FIELDS[row].class, Class::Metric) {
            keys[n] = FIELDS[row].key;
            n += 1;
        }
        row += 1;
    }
    assert!(n == keys.len(), "METRICS must hold every metric row");
    keys
};

/// One run's machine-independent metrics, keyed like [`METRICS`]
/// (`None` = the metric's denominator was empty, serialized `null`).
fn metrics_of(r: &RunReport) -> Vec<(&'static str, Option<f64>)> {
    let mut row = Vec::with_capacity(METRICS.len());
    let metrics = FIELDS.iter().filter(|f| f.class == Class::Metric);
    row.extend(metrics.map(|f| (f.key, (f.get)(r).as_f64())));
    row
}

/// One tolerance verdict on one cell.
#[derive(Clone, Debug)]
pub struct CheckResult {
    pub metric: String,
    pub mean: Option<f64>,
    pub pass: bool,
}

/// One expanded cell's outcome across its seed repetitions.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub assignments: Cell,
    /// Per-seed metric rows, one per plan seed, in seed order.
    pub per_seed: Vec<Vec<(&'static str, Option<f64>)>>,
    /// Per-metric mean across seeds (`None` if every seed was `None`).
    pub mean: Vec<(&'static str, Option<f64>)>,
    pub checks: Vec<CheckResult>,
    /// Display-only wall stats (sum of run walls, mean engine rate);
    /// never serialized canonically.
    pub wall_s: f64,
    pub engine_rate: f64,
}

impl CellResult {
    pub fn mean_of(&self, metric: &str) -> Option<f64> {
        self.mean
            .iter()
            .find(|(k, _)| *k == metric)
            .and_then(|(_, v)| *v)
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// A whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub name: String,
    pub mode: SweepMode,
    pub seeds: Vec<u64>,
    pub cells: Vec<CellResult>,
    /// Display-only: total wall seconds for the whole fan-out.
    pub wall_s: f64,
}

impl CampaignReport {
    pub fn passed(&self) -> bool {
        self.cells.iter().all(CellResult::passed)
    }

    /// The deterministic report document: sorted keys, fixed float
    /// format, wall-derived fields masked exactly like
    /// [`RunReport::fingerprint`]. Byte-identical across runs of the
    /// same plan.
    pub fn canonical_json(&self) -> String {
        let masked = |row: &[(&'static str, Option<f64>)]| {
            let mut members: Vec<(String, Json)> = row
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.map_or(Json::null(), Json::num)))
                .collect();
            // The fingerprint masks, spelled out so a report diff shows
            // them held constant rather than silently omitted: what a
            // masked report holds, a masked float having no value.
            let blank = RunReport::default();
            for f in FIELDS.iter().filter(|f| f.class == Class::Machine) {
                let constant = match (f.get)(&blank) {
                    FieldValue::Float(_) | FieldValue::Int(None) => Json::null(),
                    FieldValue::Int(Some(v)) => Json::num(v as f64),
                    FieldValue::Str(s) => Json::str(s),
                };
                members.push((f.key.to_string(), constant));
            }
            Json::obj(members)
        };
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let assignments = Json::obj(
                    c.assignments
                        .iter()
                        .map(|(p, v)| (p.clone(), v.clone()))
                        .collect(),
                );
                let checks = Json::arr(
                    c.checks
                        .iter()
                        .map(|ck| {
                            Json::obj(vec![
                                ("metric".into(), Json::str(ck.metric.clone())),
                                ("mean".into(), ck.mean.map_or(Json::null(), Json::num)),
                                ("pass".into(), Json::bool(ck.pass)),
                            ])
                        })
                        .collect(),
                );
                Json::obj(vec![
                    ("assignments".into(), assignments),
                    ("mean".into(), masked(&c.mean)),
                    (
                        "per_seed".into(),
                        Json::arr(c.per_seed.iter().map(|row| masked(row)).collect()),
                    ),
                    ("checks".into(), checks),
                    ("pass".into(), Json::bool(c.passed())),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("campaign".into(), Json::str(self.name.clone())),
            (
                "mode".into(),
                match self.mode {
                    SweepMode::Grid => Json::str("grid"),
                    SweepMode::Lhs { samples, lhs_seed } => Json::obj(vec![
                        ("lhs".into(), Json::num(samples as f64)),
                        ("lhs_seed".into(), Json::num(lhs_seed as f64)),
                    ]),
                },
            ),
            (
                "seeds".into(),
                Json::arr(self.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("cells".into(), Json::arr(cells)),
            ("pass".into(), Json::bool(self.passed())),
        ]);
        json::canonical(&doc)
    }

    /// A human summary, one row per cell.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign {} · {} cells × {} seeds · {:.1}s wall\n",
            self.name,
            self.cells.len(),
            self.seeds.len(),
            self.wall_s
        ));
        for c in &self.cells {
            let assigns = if c.assignments.is_empty() {
                "(base)".to_string()
            } else {
                c.assignments
                    .iter()
                    .map(|(p, v)| {
                        format!("{}={}", p.rsplit('.').next().unwrap_or(p), json::compact(v))
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let delivery = c
                .mean_of("delivery_ratio")
                .map_or("  n/a".to_string(), |v| format!("{v:5.3}"));
            out.push_str(&format!(
                "  [{}] {:40} delivery {} | {:>9.0} ev/s engine | {}\n",
                if c.passed() { "ok" } else { "FAIL" },
                assigns,
                delivery,
                c.engine_rate,
                format_args!("{} runs", c.per_seed.len()),
            ));
            for ck in &c.checks {
                if !ck.pass {
                    out.push_str(&format!(
                        "       tolerance FAILED: {} mean {:?}\n",
                        ck.metric, ck.mean
                    ));
                }
            }
        }
        out
    }
}

/// Load a plan file, resolving its spec/source split: a `base_file` key
/// names a scenario document on disk (relative to the plan file) that
/// becomes the defaults layer, with the plan's inline `base` /
/// `overrides` merged on top.
pub fn load_plan(path: &Path) -> Result<CampaignPlan, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::at(path.display().to_string(), 0, format!("read failed: {e}")))?;
    let mut doc = json::parse(&text).map_err(|e| {
        SpecError::at(
            path.display().to_string(),
            e.line,
            format!("JSON syntax: {}", e.msg),
        )
    })?;

    // Spec/source split: hoist base_file's contents under "base",
    // beneath whatever inline base the plan carries.
    if let json::Val::Obj(members) = &mut doc.v {
        let base_file = members.iter().position(|(k, _)| k == "base_file");
        if let Some(idx) = base_file {
            let (_, bf) = members.remove(idx);
            let rel = match &bf.v {
                json::Val::Str(s) => s.clone(),
                _ => {
                    return Err(SpecError::at(
                        "base_file",
                        bf.line,
                        format!("expected a string path, found {}", bf.type_name()),
                    ))
                }
            };
            let base_path = path.parent().unwrap_or(Path::new(".")).join(&rel);
            let base_text = std::fs::read_to_string(&base_path).map_err(|e| {
                SpecError::at(
                    "base_file",
                    bf.line,
                    format!("read {} failed: {e}", base_path.display()),
                )
            })?;
            let defaults = json::parse(&base_text).map_err(|e| {
                SpecError::at(
                    format!("{}", base_path.display()),
                    e.line,
                    format!("JSON syntax: {}", e.msg),
                )
            })?;
            let merged = match members.iter().position(|(k, _)| k == "base") {
                Some(bidx) => {
                    let m = json::merge(&defaults, &members[bidx].1);
                    members.remove(bidx);
                    m
                }
                None => defaults,
            };
            members.push(("base".to_string(), merged));
        }
    }
    CampaignPlan::from_json(&doc)
}

/// Run every (cell × seed) job and aggregate. Validates all documents
/// and tolerance metric names **before** simulating anything, so a bad
/// cell fails in milliseconds, not after the grid.
pub fn run_campaign(plan: &CampaignPlan) -> Result<CampaignReport, SpecError> {
    for t in &plan.tolerances {
        if !METRICS.contains(&t.metric.as_str()) {
            return Err(SpecError::at(
                format!("tolerances.{}", t.metric),
                0,
                format!("unknown metric; expected one of: {}", METRICS.join(", ")),
            ));
        }
    }
    let cells = plan.cells();

    // Expand and validate every job document up front.
    struct Job {
        cell_idx: usize,
        spec: ScenarioSpec,
    }
    let mut jobs = Vec::with_capacity(cells.len() * plan.seeds.len());
    for (cell_idx, cell) in cells.iter().enumerate() {
        let mut doc = plan.document_for(cell)?;
        for &seed in &plan.seeds {
            json::set_path(&mut doc, "scenario.seed", Json::num(seed as f64))
                .map_err(|e| SpecError::at("scenario.seed", 0, e))?;
            let spec = ScenarioSpec::from_json(&doc).map_err(|e| {
                SpecError::at(
                    format!("cell {cell_idx} ({}): {}", describe_cell(cell), e.path),
                    e.line,
                    e.msg.clone(),
                )
            })?;
            jobs.push(Job { cell_idx, spec });
        }
    }

    // Every cell runs every seed, and a secure scenario's key pairs are
    // a function of (seed, node): the campaign generates each once, on
    // all cores, and lends them to its jobs. Part of the measured wall.
    let started = Instant::now();
    let identities = IdentityPool::generate(jobs.iter().flat_map(|job| job.spec.identity_keys()));
    let results: Vec<Result<RunReport, SpecError>> = jobs
        .par_iter()
        .map(|job| job.spec.run_with(Some(&identities)))
        .collect();
    let wall_s = started.elapsed().as_secs_f64();

    let mut reports: Vec<Vec<RunReport>> = vec![Vec::new(); cells.len()];
    for (job, result) in jobs.iter().zip(results) {
        reports[job.cell_idx].push(result?);
    }

    let cell_results = cells
        .into_iter()
        .zip(reports)
        .map(|(assignments, runs)| {
            let per_seed: Vec<_> = runs.iter().map(metrics_of).collect();
            let mean: Vec<(&'static str, Option<f64>)> = METRICS
                .iter()
                .map(|&metric| {
                    let vals: Vec<f64> = per_seed
                        .iter()
                        .filter_map(|row| {
                            row.iter().find(|(k, _)| *k == metric).and_then(|(_, v)| *v)
                        })
                        .collect();
                    let mean = if vals.is_empty() {
                        None
                    } else {
                        Some(vals.iter().sum::<f64>() / vals.len() as f64)
                    };
                    (metric, mean)
                })
                .collect();
            let checks = plan
                .tolerances
                .iter()
                .map(|t| {
                    let m = mean
                        .iter()
                        .find(|(k, _)| *k == t.metric)
                        .and_then(|(_, v)| *v);
                    CheckResult {
                        metric: t.metric.clone(),
                        mean: m,
                        pass: m.is_some_and(|v| t.check(v)),
                    }
                })
                .collect();
            let cell_wall: f64 = runs.iter().map(|r| r.wall_s).sum();
            let engine_rate = if runs.is_empty() {
                0.0
            } else {
                runs.iter().map(|r| r.events_per_sec_engine).sum::<f64>() / runs.len() as f64
            };
            CellResult {
                assignments,
                per_seed,
                mean,
                checks,
                wall_s: cell_wall,
                engine_rate,
            }
        })
        .collect();

    Ok(CampaignReport {
        name: plan.name.clone(),
        mode: plan.mode.clone(),
        seeds: plan.seeds.clone(),
        cells: cell_results,
        wall_s,
    })
}

fn describe_cell(cell: &Cell) -> String {
    if cell.is_empty() {
        return "base".to_string();
    }
    cell.iter()
        .map(|(p, v)| format!("{p}={}", json::compact(v)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> CampaignPlan {
        CampaignPlan::from_json(&json::parse(text).unwrap()).unwrap()
    }

    /// The committed reports and every plan's tolerances name these;
    /// the report's field table may grow, this list may not move.
    #[test]
    fn metrics_are_the_nineteen_pinned_names() {
        let pinned = "delivery_ratio mean_degree events sim_s tx_bytes rx_frames nodes_killed \
            totals.data_sent totals.data_acked totals.data_received totals.data_failed \
            totals.rreq_sent totals.rrep_sent totals.crep_sent totals.rerr_sent totals.rejected \
            totals.collisions_detected crypto.executed crypto.cached";
        assert_eq!(
            METRICS.to_vec(),
            pinned.split_whitespace().collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_report_is_byte_identical_across_runs() {
        let p = plan(
            r#"{"campaign": "smoke",
                "seeds": [1, 2],
                "base": {"scenario": {"hosts": 4},
                         "workload": {"flows": [[0, 3]], "packets": 2, "interval_ms": 200.0}},
                "factors": {"scenario.radio.loss": [0.0, 0.05]},
                "tolerances": {"delivery_ratio": {"min": 0.5, "abs": 0.1}}}"#,
        );
        let a = run_campaign(&p).unwrap();
        let b = run_campaign(&p).unwrap();
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.cells.len(), 2);
        assert_eq!(a.cells[0].per_seed.len(), 2);
        // Masked exactly like the fingerprint: present, constant.
        let doc = a.canonical_json();
        assert!(doc.contains("\"wall_s\": null"), "{doc}");
        assert!(doc.contains("\"exec_mode\": \"\""), "{doc}");
        assert!(doc.contains("\"shards\": 0"), "{doc}");
        assert!(!doc.contains("NaN"), "{doc}");
    }

    /// The campaign's shared identity pool is invisible in the rows:
    /// every job reports what its document reports run on its own.
    #[test]
    fn pooled_jobs_report_what_each_spec_reports_alone() {
        let p = plan(
            r#"{"campaign": "t", "seeds": [5, 6],
                "base": {"scenario": {"stack": {"kind": "secure"},
                                      "churn": {"kills": 1, "window_s": [4.0, 5.0]}},
                         "workload": {"flows": [[0, 2]], "packets": 2, "interval_ms": 300.0}},
                "factors": {"scenario.hosts": [3, 4], "scenario.radio.loss": [0.0, 0.05]}}"#,
        );
        let pooled = run_campaign(&p).unwrap();
        assert_eq!(pooled.cells.len(), 4);
        assert!(pooled.cells[3].mean_of("crypto.executed") > Some(0.0));
        for (cell, result) in p.cells().iter().zip(&pooled.cells) {
            let mut doc = p.document_for(cell).unwrap();
            for (&seed, row) in p.seeds.iter().zip(&result.per_seed) {
                json::set_path(&mut doc, "scenario.seed", Json::num(seed as f64)).unwrap();
                let alone = ScenarioSpec::from_json(&doc).unwrap().run().unwrap();
                assert_eq!(
                    *row,
                    metrics_of(&alone),
                    "{} seed {seed}",
                    describe_cell(cell)
                );
            }
        }
    }

    #[test]
    fn seeds_actually_vary_the_runs() {
        let p = plan(
            r#"{"campaign": "t", "seeds": [1, 99],
                "base": {"scenario": {"hosts": 6, "placement": {"kind": "uniform"},
                                      "field": {"density": 12.0}},
                         "workload": {"flows": [[0, 5]], "packets": 2, "interval_ms": 200.0}}}"#,
        );
        let r = run_campaign(&p).unwrap();
        let rows = &r.cells[0].per_seed;
        assert_eq!(rows.len(), 2);
        assert_ne!(rows[0], rows[1], "different seeds, different universes");
    }

    #[test]
    fn tolerance_failure_is_reported_not_panicked() {
        let p = plan(
            r#"{"campaign": "t",
                "base": {"scenario": {"hosts": 4},
                         "workload": {"flows": [[0, 3]], "packets": 2, "interval_ms": 200.0}},
                "tolerances": {"delivery_ratio": {"min": 1.5}}}"#,
        );
        let r = run_campaign(&p).unwrap();
        assert!(!r.passed());
        assert!(r.summary_table().contains("FAIL"));
    }

    #[test]
    fn unknown_tolerance_metric_fails_before_any_run() {
        let p = plan(r#"{"campaign": "t", "tolerances": {"deliverance": {"min": 0.9}}}"#);
        let e = run_campaign(&p).unwrap_err();
        assert_eq!(e.path, "tolerances.deliverance");
        assert!(e.msg.contains("delivery_ratio"), "{e}");
    }

    #[test]
    fn bad_cell_documents_fail_fast_with_cell_context() {
        let p = plan(
            r#"{"campaign": "t",
                "base": {"scenario": {"hosts": 4}},
                "factors": {"scenario.radio.loss": [0.0, 2.0]}}"#,
        );
        let e = run_campaign(&p).unwrap_err();
        assert!(e.path.contains("scenario.radio.loss=2"), "{e}");
        assert!(e.msg.contains("[0, 1)"), "{e}");
    }
}
