//! The one result type every experiment consumes.
//!
//! A [`RunReport`] is what [`Network::run`](super::Network::run) returns
//! and what exhibits, campaigns and the benchmark read: delivery,
//! per-node stat totals, crypto-pipeline totals, event throughput, and
//! wall time. All simulation-derived fields are pure functions of the
//! scenario spec and seed; the wall-, memory- and configuration-derived
//! ones depend on the machine — [`RunReport::fingerprint`] masks those
//! for determinism assertions. [`FIELDS`] is the one list of them all.

use crate::stats::{Counter, NodeStats};

/// Per-node protocol counters summed over all hosts (the DNS node, which
/// originates no application traffic, is excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatTotals {
    pub data_sent: u64,
    pub data_acked: u64,
    pub data_received: u64,
    pub data_failed: u64,
    pub rreq_sent: u64,
    pub rrep_sent: u64,
    pub crep_sent: u64,
    pub rerr_sent: u64,
    /// Verification rejections of every kind (see
    /// [`NodeStats::total_rejected`](crate::stats::NodeStats::total_rejected)).
    pub rejected: u64,
    pub collisions_detected: u64,
}

impl StatTotals {
    /// Add one node's counters. A total that sums several counters
    /// names them here.
    pub(crate) fn add(&mut self, s: &NodeStats) {
        self.data_sent += s[Counter::AppDataSent];
        self.data_acked += s[Counter::AppDataAcked];
        self.data_received += s[Counter::AppDataReceived];
        self.data_failed += s[Counter::AppDataFailed];
        self.rreq_sent += s[Counter::RouteRreqOriginated];
        self.rrep_sent += s[Counter::RouteRrepSent];
        // Secure CREPs and plain DSR's unsigned cached replies.
        self.crep_sent += s[Counter::RouteCrepSent] + s[Counter::RouteCachedReply];
        self.rerr_sent += s[Counter::RouteRerrSent];
        self.rejected += s.total_rejected();
        self.collisions_detected += s[Counter::DadCollisions];
    }
}

/// Crypto-pipeline totals summed over every host **and** the DNS node:
/// RSA verifications actually executed, verdicts served from the verify
/// cache, and rejected checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoTotals {
    pub executed: u64,
    pub cached: u64,
    pub failed: u64,
}

impl CryptoTotals {
    /// Total verification demand (executed + served from cache).
    pub fn demand(&self) -> u64 {
        self.executed + self.cached
    }
}

/// Everything one scenario run produced.
///
/// `delivery_ratio` and `mean_degree` are `None` when their denominator
/// is empty (no data packets sent / no alive hosts) — the silent-NaN
/// escape hatch lives only in [`RunReport::delivery_or_nan`], for
/// writers that need a raw float.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Fraction of sent data packets end-to-end acknowledged, across all
    /// hosts; `None` if nothing was sent.
    pub delivery_ratio: Option<f64>,
    /// Mean link-layer degree over alive hosts; `None` if none are alive.
    pub mean_degree: Option<f64>,
    pub totals: StatTotals,
    pub crypto: CryptoTotals,
    /// Engine events processed since the network was built.
    pub events: u64,
    /// Simulated seconds elapsed.
    pub sim_s: f64,
    /// Wall-clock seconds of the `run` call that produced this report.
    pub wall_s: f64,
    /// Events per wall-clock second. The driver
    /// ([`Network::run`](super::Network::run)) computes this from the
    /// events processed *during that run*, so an earlier bootstrap or
    /// workload does not inflate the rate; a bare
    /// [`Network::report`](super::Network::report) divides the whole
    /// history by the caller's wall window.
    pub events_per_sec: f64,
    /// Engine-only throughput: lifetime events over wall-clock seconds
    /// spent inside `Engine::run_until`. Free of scenario construction
    /// and key generation, so it is the number the CI perf-regression
    /// gate compares across commits. Wall-derived, masked by
    /// [`RunReport::fingerprint`].
    pub events_per_sec_engine: f64,
    /// Which executor produced this run (`"single"` / `"sharded"`).
    /// Config echo, masked by [`RunReport::fingerprint`] so
    /// sharded-vs-single differentials can compare whole reports.
    pub exec_mode: &'static str,
    /// Shard count of the executor (1 under `"single"`). Masked by
    /// [`RunReport::fingerprint`].
    pub shards: usize,
    pub tx_bytes: u64,
    pub rx_frames: u64,
    pub nodes_killed: u64,
    /// Process peak RSS (`VmHWM`) when the report was taken; `None`
    /// off-Linux. Machine-dependent — masked by
    /// [`RunReport::fingerprint`].
    pub peak_rss_bytes: Option<u64>,
    /// Cumulative allocated bytes, if the process installed
    /// [`manet_sim::mem::CountingAlloc`](manet_sim::mem). Masked by
    /// [`RunReport::fingerprint`] (allocator traffic is not part of
    /// the simulation's observable state).
    pub alloc_bytes: Option<u64>,
    /// Cumulative allocation count, same source and masking as
    /// `alloc_bytes`.
    pub alloc_count: Option<u64>,
}

/// One field of a [`RunReport`] as a table row hands it on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FieldValue {
    /// `None` = the field's denominator was empty.
    Float(Option<f64>),
    /// `None` = unavailable on this platform or build.
    Int(Option<u64>),
    Str(&'static str),
}

impl FieldValue {
    /// The value as a campaign metric (`None` serializes as `null`).
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            FieldValue::Float(v) => v,
            FieldValue::Int(v) => v.map(|v| v as f64),
            FieldValue::Str(_) => None,
        }
    }
}

/// Who reads a report field besides [`RunReport::to_json`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// A pure function of (spec, seed) and a campaign metric: a key of
    /// [`METRICS`](crate::campaign::METRICS), a tolerance target.
    Metric,
    /// Deterministic and in the fingerprint, but not a campaign metric
    /// (the committed canonical reports predate it).
    Pinned,
    /// Wall-derived, a configuration echo, or a memory reading: reset
    /// by [`RunReport::fingerprint`], a constant in canonical reports.
    Machine,
}

/// One row per [`RunReport`] field. The fingerprint's mask list, the
/// campaign metric list, the canonical report's masked constants and
/// the JSON rendering all derive from [`FIELDS`]: a new field is a row.
pub(crate) struct ReportField {
    /// The JSON key; a dot nests it in that object (`totals.data_sent`).
    pub(crate) key: &'static str,
    pub(crate) get: fn(&RunReport) -> FieldValue,
    reset: fn(&mut RunReport),
    /// Decimals a float takes in [`RunReport::to_json`].
    precision: usize,
    pub(crate) class: Class,
}

/// `field!(key, field.path, Kind, Class)`, a float's decimals last. The
/// kind wraps the field as it is or in `Some`.
macro_rules! field {
    ($key:literal, $($f:ident).+, $kind:ident, $class:ident) => {
        field!($key, $($f).+, $kind, $class, 0)
    };
    ($key:literal, $($f:ident).+, $kind:ident, $class:ident, $precision:literal) => {
        ReportField {
            key: $key,
            get: |r| FieldValue::$kind(r.$($f).+.into()),
            reset: |r| r.$($f).+ = Default::default(),
            precision: $precision,
            class: Class::$class,
        }
    };
}

/// Metrics first, in [`METRICS`](crate::campaign::METRICS) order; the
/// members of one nested object stay adjacent.
pub(crate) const FIELDS: &[ReportField] = &[
    field!("delivery_ratio", delivery_ratio, Float, Metric, 4),
    field!("mean_degree", mean_degree, Float, Metric, 4),
    field!("events", events, Int, Metric),
    field!("sim_s", sim_s, Float, Metric, 1),
    field!("tx_bytes", tx_bytes, Int, Metric),
    field!("rx_frames", rx_frames, Int, Metric),
    field!("nodes_killed", nodes_killed, Int, Metric),
    field!("totals.data_sent", totals.data_sent, Int, Metric),
    field!("totals.data_acked", totals.data_acked, Int, Metric),
    field!("totals.data_received", totals.data_received, Int, Metric),
    field!("totals.data_failed", totals.data_failed, Int, Metric),
    field!("totals.rreq_sent", totals.rreq_sent, Int, Metric),
    field!("totals.rrep_sent", totals.rrep_sent, Int, Metric),
    field!("totals.crep_sent", totals.crep_sent, Int, Metric),
    field!("totals.rerr_sent", totals.rerr_sent, Int, Metric),
    field!("totals.rejected", totals.rejected, Int, Metric),
    field!(
        "totals.collisions_detected",
        totals.collisions_detected,
        Int,
        Metric
    ),
    field!("crypto.executed", crypto.executed, Int, Metric),
    field!("crypto.cached", crypto.cached, Int, Metric),
    field!("crypto.failed", crypto.failed, Int, Pinned),
    field!("wall_s", wall_s, Float, Machine, 3),
    field!("events_per_sec", events_per_sec, Float, Machine),
    field!(
        "events_per_sec_engine",
        events_per_sec_engine,
        Float,
        Machine
    ),
    field!("exec_mode", exec_mode, Str, Machine),
    ReportField {
        key: "shards",
        get: |r| FieldValue::Int(Some(r.shards as u64)),
        reset: |r| r.shards = 0,
        precision: 0,
        class: Class::Machine,
    },
    field!("peak_rss_bytes", peak_rss_bytes, Int, Machine),
    field!("alloc_bytes", alloc_bytes, Int, Machine),
    field!("alloc_count", alloc_count, Int, Machine),
];

impl RunReport {
    /// The machine-independent view: every field that must be a pure
    /// function of (spec, seed), with each [`Class::Machine`] field
    /// reset to its default. Two runs of the same scenario must compare
    /// equal here.
    pub fn fingerprint(&self) -> RunReport {
        let mut masked = self.clone();
        for f in FIELDS.iter().filter(|f| f.class == Class::Machine) {
            (f.reset)(&mut masked);
        }
        masked
    }

    /// `delivery_ratio` with the empty case collapsed to NaN — only for
    /// numeric sinks (tables, JSON) that must emit *something*.
    pub fn delivery_or_nan(&self) -> f64 {
        self.delivery_ratio.unwrap_or(f64::NAN)
    }

    /// Hand-rolled JSON (the workspace is offline — no serde), every
    /// [`FIELDS`] row in table order, rendered into one `String`.
    ///
    /// JSON has no NaN or infinity literals, so non-finite floats (an
    /// empty-flow report's ratios, a zero-wall run's infinite rate)
    /// and absent values serialize as `null` instead of producing an
    /// unparseable document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        out.push('{');
        let mut open = "";
        for f in FIELDS {
            let (object, leaf) = f.key.split_once('.').unwrap_or(("", f.key));
            if object != open {
                if !open.is_empty() {
                    out.push('}');
                }
                if !object.is_empty() {
                    let sep = if out.ends_with('{') { "" } else { ", " };
                    let _ = write!(out, "{sep}\"{object}\": {{");
                }
                open = object;
            }
            let sep = if out.ends_with('{') { "" } else { ", " };
            let _ = write!(out, "{sep}\"{leaf}\": ");
            let _ = match (f.get)(self) {
                FieldValue::Float(Some(v)) if v.is_finite() => {
                    write!(out, "{v:.0$}", f.precision)
                }
                FieldValue::Int(Some(v)) => write!(out, "{v}"),
                FieldValue::Str(s) => write!(out, "\"{s}\""),
                FieldValue::Float(_) | FieldValue::Int(None) => write!(out, "null"),
            };
        }
        if !open.is_empty() {
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::json::Val;

    fn sample() -> RunReport {
        RunReport {
            delivery_ratio: Some(0.9375),
            mean_degree: None,
            totals: StatTotals {
                data_sent: 16,
                data_acked: 15,
                ..StatTotals::default()
            },
            crypto: CryptoTotals {
                executed: 10,
                cached: 30,
                failed: 1,
            },
            events: 1234,
            sim_s: 20.5,
            wall_s: 0.123,
            events_per_sec: 10032.5,
            events_per_sec_engine: 20065.0,
            exec_mode: "single",
            shards: 1,
            tx_bytes: 9000,
            rx_frames: 400,
            nodes_killed: 0,
            peak_rss_bytes: Some(64 * 1024 * 1024),
            alloc_bytes: None,
            alloc_count: None,
        }
    }

    #[test]
    fn fingerprint_masks_only_wall_derived_fields() {
        let a = sample();
        let mut b = sample();
        b.wall_s = 99.0;
        b.events_per_sec = 1.0;
        b.events_per_sec_engine = 2.0;
        // The executor is config, not an observable: sharded-vs-single
        // differentials compare fingerprints directly.
        b.exec_mode = "sharded";
        b.shards = 8;
        // Memory observables are machine/allocator-dependent.
        b.peak_rss_bytes = Some(1);
        b.alloc_bytes = Some(2);
        b.alloc_count = Some(3);
        assert_ne!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A genuine divergence still shows through.
        b.events += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_denominators_are_explicit_not_nan() {
        let r = sample();
        assert_eq!(r.mean_degree, None);
        assert!(r.delivery_or_nan() > 0.9);
        let mut none = sample();
        none.delivery_ratio = None;
        assert!(none.delivery_or_nan().is_nan());
    }

    #[test]
    fn json_spells_out_null_for_missing_ratios() {
        let mut r = sample();
        r.delivery_ratio = None;
        let j = r.to_json();
        assert!(j.contains("\"delivery_ratio\": null"), "{j}");
        assert!(j.contains("\"mean_degree\": null"), "{j}");
        assert!(j.contains("\"wall_s\": 0.123"), "{j}");
        assert!(j.contains("\"crypto\": {\"executed\": 10"), "{j}");
        assert!(j.contains("\"failed\": 1}, \"wall_s\""), "{j}");
        assert!(j.contains("\"totals\": {\"data_sent\": 16"), "{j}");
        assert!(j.contains("\"collisions_detected\": 0}"), "{j}");
        assert!(j.contains("\"events_per_sec_engine\": 20065"), "{j}");
        assert!(j.contains("\"exec_mode\": \"single\""), "{j}");
        assert!(j.contains("\"shards\": 1"), "{j}");
        assert!(j.contains("\"peak_rss_bytes\": 67108864"), "{j}");
        assert!(j.contains("\"alloc_bytes\": null"), "{j}");
        assert!(j.contains("\"alloc_count\": null"), "{j}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null_not_nan() {
        // The empty-flow shape: nothing sent, nothing timed.
        let mut r = sample();
        r.delivery_ratio = None;
        r.mean_degree = None;
        r.wall_s = f64::NAN;
        r.events_per_sec = f64::INFINITY;
        r.events_per_sec_engine = f64::NEG_INFINITY;
        r.sim_s = f64::NAN;
        let j = r.to_json();
        assert!(!j.contains("NaN") && !j.contains("inf"), "{j}");
        let doc = crate::campaign::json::parse(&j).expect("to_json emits valid JSON");
        let nested = doc.get("crypto").and_then(|c| c.get("cached"));
        assert_eq!(nested.map(|c| &c.v), Some(&Val::Num(30.0)), "{j}");
        assert!(j.contains("\"wall_s\": null"), "{j}");
        assert!(j.contains("\"events_per_sec\": null"), "{j}");
        assert!(j.contains("\"events_per_sec_engine\": null"), "{j}");
        assert!(j.contains("\"sim_s\": null"), "{j}");
        assert!(j.contains("\"delivery_ratio\": null"), "{j}");
    }

    #[test]
    fn demand_sums_executed_and_cached() {
        assert_eq!(sample().crypto.demand(), 40);
    }
}
