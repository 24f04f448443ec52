//! The declarative campaign layer: JSON scenarios, parameter sweeps,
//! and deterministic reports.
//!
//! The paper's claims are parameter studies — delivery and overhead as
//! functions of density, mobility, adversary mix, and key strength.
//! This module turns every such question into a config file instead of
//! a new Rust exhibit:
//!
//! * [`json`] — the dependency-free JSON layer (strict line-tracked
//!   parser, canonical serializer, deep merge, dotted-path writes); the
//!   workspace is offline, so no serde.
//! * [`ScenarioSpec`] — a scenario document parsed *into* a builder
//!   stage (`PlainBuilder` | `SecureBuilder`) plus a workload: the
//!   builders are the schema, every scalar key is one row of a knob
//!   table (key, field, range), unknown keys and out-of-range values
//!   are rejected with path and line, and any programmatic chain can be
//!   captured as a file (`from_plain_builder` / `from_secure_builder`).
//! * [`CampaignPlan`] — a base document plus factor grids or
//!   Latin-hypercube sampling over any knob, multi-seed repetition,
//!   and [`ToleranceSpec`] pass/fail bands.
//! * [`run_campaign`] — fans (cell × seed) jobs across cores and
//!   renders a canonical-JSON report with wall-clock fields masked
//!   exactly like `RunReport::fingerprint()`, so same plan + same
//!   seeds ⇒ byte-identical bytes.
//!
//! The `campaign` bin (`crates/bench/src/bin/campaign.rs`) is the CLI;
//! `docs/SCENARIO.md` is the complete file-format reference; worked
//! examples live in `campaigns/` and are executed by `tests/campaign.rs`.

pub mod json;
mod plan;
mod runner;
mod spec;

pub use plan::{CampaignPlan, Cell, Factor, SweepMode, ToleranceSpec};
pub use runner::{load_plan, run_campaign, CampaignReport, CellResult, CheckResult, METRICS};
pub use spec::{FlowSpec, ScenarioSpec, SpecError, StackSpec, WorkloadSpec};
