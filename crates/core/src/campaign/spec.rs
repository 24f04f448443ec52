//! The declarative scenario format: a JSON document over every
//! [`ScenarioBuilder`] / [`SecureBuilder`] / [`PlainBuilder`] /
//! [`Workload`] knob.
//!
//! The builders are the schema. A [`ScenarioSpec`] is a stack-tagged
//! builder stage plus a [`WorkloadSpec`] — no second struct mirrors the
//! builder fields — so `from_json` fills a builder in, `to_json` reads
//! one back, the capture constructors (`from_plain_builder` /
//! `from_secure_builder`) are clones, and `run` is `build()` plus the
//! shared driver. `tests/campaign.rs` pins that builder → JSON → parse →
//! build reproduces the identical fingerprint.
//!
//! The JSON mapping of a knob is one row of a per-section [`Knob`]
//! table: key, field, permitted [`Range`]. Parsing, rendering, the
//! default (whatever the builder or `Default` value holds before the
//! row is applied), the "expected one of" list and the range check —
//! reported at the offending value's own line — all derive from that
//! row. Only the structural parts (placement, field, mobility,
//! adversaries, name overrides, flows) are written by hand.
//!
//! Every key is optional (`docs/SCENARIO.md` tabulates them; a test
//! checks that reference against the tables), so `{}` is the default
//! 8-host chain with the plain stack and no traffic. The ranges admit
//! every real scenario and are narrow enough that a document which
//! parses cannot overflow, exhaust or hang the build.

use super::json::{self, Json, Val};
use crate::config::{Behavior, CreditConfig, ProtocolConfig};
use crate::identity::IdentityPool;
use crate::plain::PlainConfig;
use crate::scenario::builder::{FieldSpec, DEFAULT_SPACING};
use crate::scenario::{
    Network, NodeApi, Placement, PlainBuilder, RunReport, ScenarioBuilder, SecureBuilder, Workload,
};
use manet_crypto::BackendKind;
use manet_sim::{ExecMode, Field, Mobility, Pos, RadioConfig, SimDuration, SimTime};
use manet_wire::{DomainName, Ipv6Addr};
use std::fmt;

/// A spec-level failure: which key (dotted path), which source line,
/// and what went wrong.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// Dotted key path, e.g. `scenario.radio.loss`.
    pub path: String,
    /// Source line of the offending value (0 when synthesized).
    pub line: u32,
    pub msg: String,
}

impl SpecError {
    pub fn at(path: impl Into<String>, line: u32, msg: impl Into<String>) -> Self {
        SpecError {
            path: path.into(),
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} (line {}): {}", self.path, self.line, self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------
// Typed access to JSON values
// ---------------------------------------------------------------------

/// Largest integer an `f64` JSON number carries exactly (2^53).
const MAX_INT: f64 = 9.007_199_254_740_992e15;

fn mismatch(j: &Json, path: &str, want: &str) -> SpecError {
    let msg = format!("expected {want}, found {}", j.type_name());
    SpecError::at(path, j.line, msg)
}

fn as_f64(j: &Json, path: &str) -> Result<f64, SpecError> {
    match j.v {
        Val::Num(n) => Ok(n),
        _ => Err(mismatch(j, path, "a number")),
    }
}

fn as_uint(j: &Json, path: &str) -> Result<u64, SpecError> {
    let v = as_f64(j, path)?;
    if v < 0.0 || v.fract() != 0.0 || v > MAX_INT {
        let msg = format!("expected a non-negative integer, found {v}");
        return Err(SpecError::at(path, j.line, msg));
    }
    Ok(v as u64)
}

fn as_str<'a>(j: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    match &j.v {
        Val::Str(s) => Ok(s),
        _ => Err(mismatch(j, path, "a string")),
    }
}

fn as_arr<'a>(j: &'a Json, path: &str) -> Result<&'a [Json], SpecError> {
    match &j.v {
        Val::Arr(items) => Ok(items),
        _ => Err(mismatch(j, path, "an array")),
    }
}

/// The error for a string (or key) outside a closed set of choices.
fn unknown(what: &str, got: &str, path: &str, line: u32, choices: &[&str]) -> SpecError {
    let mut sorted = choices.to_vec();
    sorted.sort_unstable();
    let msg = format!(
        "unknown {what} \"{got}\"; expected one of: {}",
        sorted.join(", ")
    );
    SpecError::at(path, line, msg)
}

// ---------------------------------------------------------------------
// Knobs: one row per scalar key
// ---------------------------------------------------------------------

/// The numbers a knob admits: the rule in words (the error appends the
/// offending value) and as a predicate.
struct Range(&'static str, fn(f64) -> bool);

impl Range {
    fn check(&self, v: f64, path: &str, line: u32) -> Result<(), SpecError> {
        if (self.1)(v) {
            return Ok(());
        }
        Err(SpecError::at(path, line, format!("{}, got {v}", self.0)))
    }
}

const ANY: Range = Range("", |_| true);
const AT_LEAST_ONE: Range = Range("need at least one", |v| v >= 1.0);
const POSITIVE: Range = Range("must be a positive number", |v| v > 0.0 && v.is_finite());
const NON_NEGATIVE: Range = Range("must be >= 0", |v| v >= 0.0);
const LOSS: Range = Range("loss probability must be in [0, 1)", |v| {
    (0.0..1.0).contains(&v)
});
const DROP: Range = Range("drop probability must be in [0, 1]", |v| {
    (0.0..=1.0).contains(&v)
});
const FORMATION: Range = Range("formation time must be in [0, 1e9] s", |v| {
    (0.0..=1e9).contains(&v)
});
// The bands below keep the build's arithmetic finite: the grid sizes
// itself from field / range (`sim/grid.rs`), the density solver from
// hosts · range² / density, a hop's airtime from bytes / bit rate
// (`sim/radio.rs`). `validate` bounds the resulting grid itself.
const LENGTH: Range = Range("length must be in [0.001, 1e7] m", |v| {
    (1e-3..=1e7).contains(&v)
});
const DENSITY: Range = Range("radio degree must be in [1e-6, 1e6]", |v| {
    (1e-6..=1e6).contains(&v)
});
const BIT_RATE: Range = Range("bit rate must be in [1, 1e12] bit/s", |v| {
    (1.0..=1e12).contains(&v)
});
/// 384 bits is the narrowest modulus that admits the signature frame;
/// key generation needs an even width, and past 4096 bits a single key
/// takes longer than any scenario is worth.
const KEY_BITS: Range = Range(
    "modulus must be an even number of bits in [384, 4096]",
    |v| (384.0..=4096.0).contains(&v) && v % 2.0 == 0.0,
);
/// More shards than this is never faster and, on small fields, never
/// finishes: every shard takes a barrier per lookahead window.
const MAX_SHARDS: usize = 256;
/// Cap on the spatial index (`field / radio range`, squared): 2^22
/// cells is ~100 MiB of empty buckets and 20× the S3 exhibit's grid.
const MAX_GRID_CELLS: f64 = 4_194_304.0;

/// How one Rust type reads from and renders to JSON. The type *is* the
/// knob's kind: `bool`, `u32`, `u64`, `usize`, `i64`, `f64`,
/// `SimDuration` (fractional milliseconds), the [`Named`] enums and
/// `ExecMode` (strings), index lists, a `[start_s, end_s]` window, an
/// address as its groups — and `Option` of any of them (`null`).
trait Kind: Sized {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError>;
    fn show(&self) -> Json;
    /// The number a [`Range`] constrains, for kinds that have one.
    fn num(&self) -> Option<f64> {
        None
    }
}

impl Kind for bool {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        match j.v {
            Val::Bool(b) => Ok(b),
            _ => Err(mismatch(j, path, "a bool")),
        }
    }
    fn show(&self) -> Json {
        Json::bool(*self)
    }
}

impl Kind for f64 {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        as_f64(j, path)
    }
    fn show(&self) -> Json {
        Json::num(*self)
    }
    fn num(&self) -> Option<f64> {
        Some(*self)
    }
}

fn as_int(j: &Json, path: &str) -> Result<i64, SpecError> {
    let v = as_f64(j, path)?;
    if v.fract() != 0.0 || v.abs() > MAX_INT {
        let msg = format!("expected an integer, found {v}");
        return Err(SpecError::at(path, j.line, msg));
    }
    Ok(v as i64)
}

macro_rules! integer_kinds {
    ($($t:ident from $wide:ident),*) => {$(
        impl Kind for $t {
            fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
                let v = $wide(j, path)?;
                $t::try_from(v).map_err(|_| {
                    let msg = format!("{v} does not fit in {}", stringify!($t));
                    SpecError::at(path, j.line, msg)
                })
            }
            fn show(&self) -> Json {
                Json::num(*self as f64)
            }
            fn num(&self) -> Option<f64> {
                Some(*self as f64)
            }
        }
    )*};
}
integer_kinds!(u32 from as_uint, u64 from as_uint, usize from as_uint, i64 from as_int);

impl Kind for SimDuration {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let ms = as_f64(j, path)?;
        if !(0.0..=1.0e12).contains(&ms) {
            let msg = format!("duration must be in [0, 1e12] ms, got {ms}");
            return Err(SpecError::at(path, j.line, msg));
        }
        Ok(SimDuration::from_micros((ms * 1000.0).round() as u64))
    }
    fn show(&self) -> Json {
        Json::num(self.as_micros() as f64 / 1000.0)
    }
}

impl<K: Kind> Kind for Option<K> {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        match j.v {
            Val::Null => Ok(None),
            _ => K::parse(j, path).map(Some),
        }
    }
    fn show(&self) -> Json {
        self.as_ref().map_or(Json::null(), K::show)
    }
    fn num(&self) -> Option<f64> {
        self.as_ref().and_then(K::num)
    }
}

impl Kind for Vec<usize> {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let items = as_arr(j, path)?;
        items.iter().map(|i| usize::parse(i, path)).collect()
    }
    fn show(&self) -> Json {
        Json::arr(self.iter().map(usize::show).collect())
    }
}

/// A window of sim time as `[start_s, end_s]`.
impl Kind for (SimTime, SimTime) {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let [lo, hi] = as_arr(j, path)? else {
            return Err(SpecError::at(path, j.line, "expected [start_s, end_s]"));
        };
        let (lo, hi) = (as_f64(lo, path)?, as_f64(hi, path)?);
        if !(0.0 <= lo && lo <= hi) {
            let msg = format!("need 0 <= start <= end, got [{lo}, {hi}]");
            return Err(SpecError::at(path, j.line, msg));
        }
        let at = |s: f64| SimTime((s * 1e6).round() as u64);
        Ok((at(lo), at(hi)))
    }
    fn show(&self) -> Json {
        let s = |t: SimTime| Json::num(t.0 as f64 / 1e6);
        Json::arr(vec![s(self.0), s(self.1)])
    }
}

/// `"single"` or `"sharded:<k>"`.
impl Kind for ExecMode {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let s = as_str(j, path)?;
        let shards = s.strip_prefix("sharded:").and_then(|k| k.parse().ok());
        match (s, shards) {
            ("single", _) => Ok(ExecMode::Single),
            (_, Some(k)) if (1..=MAX_SHARDS).contains(&k) => Ok(ExecMode::Sharded(k)),
            _ => {
                let msg = format!(
                    "unknown exec \"{s}\"; expected null, \"single\", or \"sharded:<k>\" \
                     with k in [1, {MAX_SHARDS}]"
                );
                Err(SpecError::at(path, j.line, msg))
            }
        }
    }
    fn show(&self) -> Json {
        match self {
            ExecMode::Single => Json::str("single"),
            ExecMode::Sharded(k) => Json::str(format!("sharded:{k}")),
        }
    }
}

/// An address as its eight 16-bit groups (the textual grouping), e.g.
/// `[65216, 0, 0, 0, 0, 0, 0, 1]` for `fec0::1`.
impl Kind for Ipv6Addr {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let items = as_arr(j, path)?;
        if items.len() != 8 {
            return Err(SpecError::at(path, j.line, "expected eight 16-bit groups"));
        }
        let mut groups = [0u16; 8];
        for (group, item) in groups.iter_mut().zip(items) {
            let v = as_uint(item, path)?;
            *group = u16::try_from(v).map_err(|_| {
                let msg = format!("group {v} does not fit in 16 bits");
                SpecError::at(path, item.line, msg)
            })?;
        }
        Ok(Ipv6Addr::from_groups(groups))
    }
    fn show(&self) -> Json {
        Json::arr(self.groups().iter().map(|&g| Json::num(g as f64)).collect())
    }
}

/// An enum that serializes as one string per variant.
trait Named: Copy + 'static {
    const ALL: &'static [Self];
    fn name(self) -> &'static str;
}

impl Named for BackendKind {
    const ALL: &'static [Self] = &BackendKind::ALL;
    fn name(self) -> &'static str {
        BackendKind::name(self)
    }
}

impl<E: Named> Kind for E {
    fn parse(j: &Json, path: &str) -> Result<Self, SpecError> {
        let s = as_str(j, path)?;
        E::ALL
            .iter()
            .copied()
            .find(|e| e.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = E::ALL.iter().map(|e| e.name()).collect();
                let key = path.rsplit('.').next().unwrap_or(path);
                unknown(key, s, path, j.line, &names)
            })
    }
    fn show(&self) -> Json {
        Json::str(self.name())
    }
}

/// Parse `j`, range-checked at `j`'s own line.
fn read<K: Kind>(j: &Json, path: &str, range: &Range) -> Result<K, SpecError> {
    let value = K::parse(j, path)?;
    if let Some(n) = value.num() {
        range.check(n, path, j.line)?;
    }
    Ok(value)
}

/// One knob of section `T`: its JSON key and how to read and render the
/// field behind it. The field's type fixes the [`Kind`]; `read` checks
/// the row's [`Range`].
struct Knob<T: 'static> {
    key: &'static str,
    read: fn(&mut T, &Json, &str) -> Result<(), SpecError>,
    show: fn(&T) -> Json,
}

/// `knob!("key", field.path)` or `knob!("key", field.path, RANGE)`.
macro_rules! knob {
    ($key:literal, $($field:ident).+) => {
        knob!($key, $($field).+, ANY)
    };
    ($key:literal, $($field:ident).+, $range:ident) => {
        Knob {
            key: $key,
            read: |t, j, path| read(j, path, &$range).map(|v| t.$($field).+ = v),
            show: |t| t.$($field).+.show(),
        }
    };
}

const SCENARIO: &[Knob<ScenarioBuilder>] = &[
    knob!("hosts", n_hosts, AT_LEAST_ONE),
    knob!("seed", seed),
    knob!("exec", exec),
    knob!("trace", trace),
    knob!("max_events", max_events),
];

const CHURN: &[Knob<ScenarioBuilder>] =
    &[knob!("kills", churn_kills), knob!("window_s", churn_window)];

const RADIO: &[Knob<RadioConfig>] = &[
    knob!("range", range, LENGTH),
    knob!("loss", loss, LOSS),
    knob!("base_delay_ms", base_delay),
    knob!("jitter_ms", jitter),
    knob!("bits_per_sec", bits_per_sec, BIT_RATE),
    knob!("gray_zone", gray_zone, LENGTH),
];

const BEHAVIOR: &[Knob<Behavior>] = &[
    knob!("data_drop_prob", data_drop_prob, DROP),
    knob!("forge_rrep", forge_rrep),
    knob!("impersonate", impersonate),
    knob!("replay", replay),
    knob!("rerr_spam", rerr_spam),
    knob!("squat_dad", squat_dad),
    knob!("forge_dns", forge_dns),
    knob!("evade_probes", evade_probes),
];

const PLAIN: &[Knob<PlainConfig>] = &[
    knob!("rreq_timeout_ms", rreq_timeout),
    knob!("rreq_retries", rreq_retries),
    knob!("ack_timeout_ms", ack_timeout),
    knob!("data_retries", data_retries),
    knob!("max_send_buffer", max_send_buffer),
    knob!("cached_replies", cached_replies),
];

const SECURE: &[Knob<SecureBuilder>] = &[
    knob!("join_stagger_ms", join_stagger),
    knob!("register_names", register_names),
    knob!("pre_register", pre_register),
];

const PROTO: &[Knob<ProtocolConfig>] = &[
    knob!("key_bits", key_bits, KEY_BITS),
    knob!("dad_timeout_ms", dad_timeout),
    knob!("dad_probes", dad_probes),
    knob!("dad_max_attempts", dad_max_attempts),
    knob!("dns_pending_window_ms", dns_pending_window),
    knob!("rreq_timeout_ms", rreq_timeout),
    knob!("rreq_retries", rreq_retries),
    knob!("ack_timeout_ms", ack_timeout),
    knob!("data_retries", data_retries),
    knob!("crep_enabled", crep_enabled),
    knob!("route_ttl_ms", route_ttl),
    knob!("route_cache_per_dest", route_cache_per_dest),
    knob!("route_cache_dests", route_cache_dests),
    knob!("verify_cache", verify_cache),
    knob!("verify_cache_capacity", verify_cache_capacity),
    knob!("crypto_backend", crypto_backend),
    knob!("batch_verify", batch_verify),
    knob!("rrep_multi", rrep_multi),
    knob!("verify_srr", verify_srr),
    knob!("max_send_buffer", max_send_buffer),
    knob!("probe_enabled", probe_enabled),
    knob!("probe_after", probe_after),
    knob!("probe_timeout_ms", probe_timeout),
];

const CREDIT: &[Knob<CreditConfig>] = &[
    knob!("enabled", enabled),
    knob!("initial", initial),
    knob!("reward", reward),
    knob!("slash", slash),
    knob!("timeout_penalty", timeout_penalty),
    knob!("rerr_threshold", rerr_threshold),
    knob!("avoid_below", avoid_below),
];

const WORKLOAD: &[Knob<WorkloadSpec>] = &[
    knob!("packets", traffic.packets),
    knob!("interval_ms", traffic.interval),
    knob!("warmup_ms", traffic.warmup),
    knob!("drain_ms", traffic.drain),
    knob!("payload_len", traffic.payload_len),
    knob!("formation_s", formation_s, FORMATION),
    knob!("bootstrap", bootstrap),
];

/// Wraps one JSON object during parsing: every key the parser asks for
/// is recorded, and [`Fields::deny_unknown`] rejects whatever remains —
/// so a row added to a table is admitted automatically, and typos fail
/// loudly with the full expected-key list.
struct Fields<'a> {
    path: String,
    line: u32,
    members: &'a [(String, Json)],
    known: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    fn new(j: &'a Json, path: &str) -> Result<Self, SpecError> {
        match &j.v {
            Val::Obj(members) => Ok(Fields {
                path: path.to_string(),
                line: j.line,
                members,
                known: Vec::new(),
            }),
            _ => Err(mismatch(j, path, "an object")),
        }
    }

    fn child(&self, key: &str) -> String {
        format!("{}.{}", self.path, key)
    }

    fn get(&mut self, key: &'static str) -> Option<&'a Json> {
        self.known.push(key);
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn req(&mut self, key: &'static str) -> Result<&'a Json, SpecError> {
        self.get(key)
            .ok_or_else(|| SpecError::at(self.child(key), self.line, format!("missing \"{key}\"")))
    }

    /// Apply every row of `table` whose key is present to `target`.
    fn knobs<T>(&mut self, table: &[Knob<T>], target: &mut T) -> Result<(), SpecError> {
        for knob in table {
            if let Some(j) = self.get(knob.key) {
                (knob.read)(target, j, &self.child(knob.key))?;
            }
        }
        Ok(())
    }

    /// A knob of a hand-written section: `default` unless `key` is present.
    fn or<K: Kind>(
        &mut self,
        key: &'static str,
        default: K,
        range: &Range,
    ) -> Result<K, SpecError> {
        match self.get(key) {
            Some(j) => read(j, &self.child(key), range),
            None => Ok(default),
        }
    }

    /// Reject any key the parser never asked for. Call after every
    /// `get` for the section.
    fn deny_unknown(&self) -> Result<(), SpecError> {
        let is_stray = |(k, _): &&(String, Json)| !self.known.contains(&k.as_str());
        match self.members.iter().find(is_stray) {
            Some((k, v)) => Err(unknown("key", k, &self.path, v.line, &self.known)),
            None => Ok(()),
        }
    }
}

/// A section that is nothing but a table.
fn parse_table<T>(
    j: &Json,
    path: &str,
    table: &[Knob<T>],
    target: &mut T,
) -> Result<(), SpecError> {
    let mut f = Fields::new(j, path)?;
    f.knobs(table, target)?;
    f.deny_unknown()
}

fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let owned = members.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::obj(owned.collect())
}

/// An object of `table`'s rows as `t` holds them, then the hand-written
/// members.
fn section<T>(table: &[Knob<T>], t: &T, rest: Vec<(&'static str, Json)>) -> Json {
    let rows = table.iter().map(|knob| (knob.key, (knob.show)(t)));
    obj(rows.chain(rest))
}

// ---------------------------------------------------------------------
// The typed spec
// ---------------------------------------------------------------------

/// Which protocol stack: the builder stage that carries its knobs (and,
/// as `base`, every stack-independent one).
#[derive(Clone, Debug)]
pub enum StackSpec {
    Plain(PlainBuilder),
    Secure(SecureBuilder),
}

impl StackSpec {
    pub fn is_secure(&self) -> bool {
        matches!(self, StackSpec::Secure(_))
    }
}

/// How the workload's flow list is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowSpec {
    /// Explicit `(source, destination)` host-index pairs.
    Pairs(Vec<(usize, usize)>),
    /// `Network::scale_flows(n)`: n pairs drawn from the engine RNG out
    /// of the largest connected component (the scale-exhibit picker).
    Scale(usize),
    /// Everyone-to-one: each source sends to `sink` every round.
    ConvergeCast { sources: Vec<usize>, sink: usize },
}

/// The workload section: a [`Workload`] whose flows are still a recipe,
/// plus the two driver knobs that precede it (formation beat,
/// bootstrap).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    pub flows: FlowSpec,
    /// Rounds, pacing, drain and payload size. Its own `flows` stays
    /// empty; the driver resolves [`WorkloadSpec::flows`] into it.
    pub traffic: Workload,
    /// Run the engine to this absolute sim time before flows are picked
    /// and traffic starts (the S1 exhibit's formation beat).
    pub formation_s: f64,
    /// Drive the staggered bootstrap to completion first (defaults to
    /// true for the secure stack, false for plain).
    pub bootstrap: bool,
}

impl WorkloadSpec {
    fn default_for(secure: bool) -> Self {
        WorkloadSpec {
            flows: FlowSpec::Pairs(Vec::new()),
            traffic: Workload::flows(Vec::new(), 0, SimDuration::ZERO),
            formation_s: 0.0,
            bootstrap: secure,
        }
    }

    /// The shared driver: bootstrap (secure), formation beat, flow
    /// resolution, then the one `Network::run` path — for a caller that
    /// built the network from [`ScenarioSpec::stack`] and reads it after.
    pub fn drive<P: NodeApi>(&self, net: &mut Network<P>) -> RunReport {
        if self.bootstrap {
            let _ = net.bootstrap();
        }
        if self.formation_s > 0.0 {
            let t = SimTime((self.formation_s * 1e6).round() as u64);
            if t > net.engine.now() {
                net.engine.run_until(t);
            }
        }
        let flows = match &self.flows {
            FlowSpec::Pairs(pairs) => pairs.clone(),
            FlowSpec::Scale(n) => net.scale_flows(*n),
            FlowSpec::ConvergeCast { sources, sink } => {
                sources.iter().map(|&s| (s, *sink)).collect()
            }
        };
        net.run(&Workload {
            flows,
            ..self.traffic
        })
    }
}

/// One complete declarative scenario: a stack stage of the builder —
/// everything `ScenarioBuilder` and that stage know — plus the workload.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    pub stack: StackSpec,
    pub workload: WorkloadSpec,
}

impl ScenarioSpec {
    /// Capture a plain-stack builder chain. The executor is captured as
    /// the chain set it: `null` unless `.exec(..)` was called.
    pub fn from_plain_builder(b: &PlainBuilder) -> Self {
        ScenarioSpec {
            stack: StackSpec::Plain(b.clone()),
            workload: WorkloadSpec::default_for(false),
        }
    }

    /// Capture a secure-stack builder chain.
    pub fn from_secure_builder(b: &SecureBuilder) -> Self {
        ScenarioSpec {
            stack: StackSpec::Secure(b.clone()),
            workload: WorkloadSpec::default_for(true),
        }
    }

    /// Attach a [`Workload`] (plus driver knobs) to a captured spec.
    pub fn with_workload(mut self, w: &Workload, formation_s: f64, bootstrap: bool) -> Self {
        self.workload = WorkloadSpec {
            flows: FlowSpec::Pairs(w.flows.clone()),
            traffic: Workload {
                flows: Vec::new(),
                ..*w
            },
            formation_s,
            bootstrap,
        };
        self
    }

    /// The stack-independent knobs, whichever stage carries them.
    fn base(&self) -> &ScenarioBuilder {
        match &self.stack {
            StackSpec::Plain(b) => &b.base,
            StackSpec::Secure(b) => &b.base,
        }
    }

    /// Parse a scenario document: `{"scenario": {...}, "workload": {...}}`.
    /// Every key optional, unknown keys rejected with their source line.
    pub fn from_json(doc: &Json) -> Result<Self, SpecError> {
        let mut top = Fields::new(doc, "$")?;
        let stack = match top.get("scenario") {
            Some(sc) => parse_scenario(sc)?,
            None => StackSpec::Plain(ScenarioBuilder::new().plain()),
        };
        let mut workload = WorkloadSpec::default_for(stack.is_secure());
        if let Some(w) = top.get("workload") {
            let mut f = Fields::new(w, "workload")?;
            f.knobs(WORKLOAD, &mut workload)?;
            if let Some(flows) = f.get("flows") {
                workload.flows = parse_flows(flows)?;
            }
            f.deny_unknown()?;
        }
        top.deny_unknown()?;
        let spec = ScenarioSpec { stack, workload };
        spec.validate(doc.line)?;
        Ok(spec)
    }

    /// Parse a scenario document from text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = json::parse(text)
            .map_err(|e| SpecError::at("$", e.line, format!("JSON syntax: {}", e.msg)))?;
        Self::from_json(&doc)
    }

    /// Cross-field validation that needs the whole spec (host-index
    /// ranges, placement arity, spatial-index size).
    fn validate(&self, line: u32) -> Result<(), SpecError> {
        let base = self.base();
        let hosts = base.n_hosts;
        let check_host = |what: &str, idx: usize| -> Result<(), SpecError> {
            if idx >= hosts {
                let msg = format!("host index {idx} out of range for {hosts} hosts");
                return Err(SpecError::at(what, line, msg));
            }
            Ok(())
        };
        for (i, _) in &base.attackers {
            check_host("scenario.adversaries", *i)?;
        }
        if let StackSpec::Secure(b) = &self.stack {
            for i in &b.pre_register {
                check_host("scenario.stack.pre_register", *i)?;
            }
            for (i, _) in &b.name_overrides {
                check_host("scenario.stack.name_overrides", *i)?;
            }
        }
        match &self.workload.flows {
            FlowSpec::Pairs(pairs) => {
                for (s, d) in pairs {
                    check_host("workload.flows", *s)?;
                    check_host("workload.flows", *d)?;
                }
            }
            FlowSpec::ConvergeCast { sources, sink } => {
                check_host("workload.flows.converge_cast", *sink)?;
                for s in sources {
                    check_host("workload.flows.converge_cast", *s)?;
                }
            }
            FlowSpec::Scale(_) => {}
        }
        match &base.placement {
            Placement::Bypass if hosts != 5 => {
                let msg = format!("bypass topology is fixed at 5 hosts, got {hosts}");
                return Err(SpecError::at("scenario.placement", line, msg));
            }
            Placement::Custom(positions) => {
                let dns = self.stack.is_secure();
                let need = hosts + usize::from(dns);
                if positions.len() != need {
                    let msg = format!(
                        "custom placement needs {need} positions ({hosts} hosts{}), got {}",
                        if dns { " + DNS" } else { "" },
                        positions.len()
                    );
                    return Err(SpecError::at("scenario.placement.positions", line, msg));
                }
            }
            _ => {}
        }
        let (field, cell) = (base.resolved_field(), base.radio.max_range());
        let cells = (field.width / cell).ceil() * (field.height / cell).ceil();
        if cells > MAX_GRID_CELLS {
            let msg = format!(
                "a {:.0} m × {:.0} m field at radio range {cell} m needs {cells:.0} grid \
                 cells, more than the {MAX_GRID_CELLS} cap",
                field.width, field.height
            );
            return Err(SpecError::at("scenario.field", line, msg));
        }
        Ok(())
    }

    /// Serialize the full spec (every key explicit) as a document that
    /// `from_json` parses back to an equivalent spec.
    pub fn to_json(&self) -> Json {
        let b = self.base();
        let adversaries = b.attackers.iter().map(|(i, behavior)| {
            obj(vec![
                ("host", i.show()),
                ("behavior", section(BEHAVIOR, behavior, vec![])),
            ])
        });
        let scenario = section(
            SCENARIO,
            b,
            vec![
                ("placement", placement_json(&b.placement)),
                ("field", field_json(&b.field)),
                ("radio", section(RADIO, &b.radio, vec![])),
                ("mobility", mobility_json(&b.mobility)),
                ("churn", section(CHURN, b, vec![])),
                ("adversaries", Json::arr(adversaries.collect())),
                ("stack", stack_json(&self.stack)),
            ],
        );
        let w = &self.workload;
        let workload = section(WORKLOAD, w, vec![("flows", flows_json(&w.flows))]);
        obj(vec![("scenario", scenario), ("workload", workload)])
    }

    /// `to_json` rendered canonically (sorted keys, fixed floats).
    pub fn to_canonical_string(&self) -> String {
        json::canonical(&self.to_json())
    }

    /// Build the network and drive the workload to one report. The run
    /// is a pure function of (spec, seed): wall-derived report fields
    /// vary, everything under `RunReport::fingerprint()` does not.
    pub fn run(&self) -> Result<RunReport, SpecError> {
        self.run_with(None)
    }

    /// The identities a build of this spec asks for (none on the plain
    /// stack), as [`crate::identity::HostIdentity::for_host`] arguments.
    pub(crate) fn identity_keys(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        let secure = match &self.stack {
            StackSpec::Plain(_) => None,
            StackSpec::Secure(b) => Some(b),
        };
        secure.into_iter().flat_map(SecureBuilder::identity_keys)
    }

    /// [`Self::run`] as one job of a campaign, which lends its secure
    /// builds the campaign's identity pool. Same report either way.
    pub(crate) fn run_with(&self, pool: Option<&IdentityPool>) -> Result<RunReport, SpecError> {
        Ok(match self.stack.clone() {
            StackSpec::Plain(b) => self.workload.drive(&mut b.build()),
            StackSpec::Secure(b) => self.workload.drive(&mut b.build_with(pool)),
        })
    }
}

// ---------------------------------------------------------------------
// The structural sections: parsers
// ---------------------------------------------------------------------

fn parse_scenario(j: &Json) -> Result<StackSpec, SpecError> {
    let mut f = Fields::new(j, "scenario")?;
    let mut b = ScenarioBuilder::new();
    f.knobs(SCENARIO, &mut b)?;
    if let Some(p) = f.get("placement") {
        b.placement = parse_placement(p)?;
    }
    if let Some(fd) = f.get("field") {
        b.field = parse_field(fd)?;
    }
    if let Some(r) = f.get("radio") {
        parse_table(r, "scenario.radio", RADIO, &mut b.radio)?;
    }
    if let Some(m) = f.get("mobility") {
        b.mobility = parse_mobility(m)?;
    }
    if let Some(c) = f.get("churn") {
        parse_table(c, "scenario.churn", CHURN, &mut b)?;
    }
    if let Some(a) = f.get("adversaries") {
        b.attackers = parse_adversaries(a)?;
    }
    let stack = match f.get("stack") {
        Some(s) => parse_stack(s, b)?,
        None => StackSpec::Plain(b.plain()),
    };
    f.deny_unknown()?;
    Ok(stack)
}

fn parse_placement(j: &Json) -> Result<Placement, SpecError> {
    let mut f = Fields::new(j, "scenario.placement")?;
    let kind = f.req("kind")?;
    let placement = match as_str(kind, "scenario.placement.kind")? {
        "chain" => Placement::Chain {
            spacing: f.or("spacing", DEFAULT_SPACING, &POSITIVE)?,
        },
        "grid" => Placement::Grid {
            cols: f.or("cols", 1, &AT_LEAST_ONE)?,
            spacing: f.or("spacing", DEFAULT_SPACING, &POSITIVE)?,
        },
        "uniform" => Placement::Uniform,
        "bypass" => Placement::Bypass,
        "custom" => Placement::Custom(pos_list(
            f.req("positions")?,
            "scenario.placement.positions",
        )?),
        other => {
            let kinds = ["bypass", "chain", "custom", "grid", "uniform"];
            let path = "scenario.placement.kind";
            return Err(unknown("placement", other, path, kind.line, &kinds));
        }
    };
    f.deny_unknown()?;
    Ok(placement)
}

fn pos_list(j: &Json, path: &str) -> Result<Vec<Pos>, SpecError> {
    let parse_pos = |(i, item): (usize, &Json)| {
        let path = format!("{path}[{i}]");
        match as_arr(item, &path)? {
            [x, y] => Ok(Pos::new(as_f64(x, &path)?, as_f64(y, &path)?)),
            _ => Err(SpecError::at(path, item.line, "expected an [x, y] pair")),
        }
    };
    as_arr(j, path)?.iter().enumerate().map(parse_pos).collect()
}

fn parse_field(j: &Json) -> Result<FieldSpec, SpecError> {
    let mut f = Fields::new(j, "scenario.field")?;
    let keys = (f.get("density"), f.get("width"), f.get("height"));
    f.deny_unknown()?;
    match keys {
        (Some(d), None, None) => Ok(FieldSpec::Density(read(d, &f.child("density"), &DENSITY)?)),
        (None, Some(w), Some(h)) => Ok(FieldSpec::Explicit(Field::new(
            read(w, &f.child("width"), &LENGTH)?,
            read(h, &f.child("height"), &LENGTH)?,
        ))),
        _ => Err(SpecError::at(
            "scenario.field",
            j.line,
            "give either {\"density\": d} or {\"width\": w, \"height\": h}",
        )),
    }
}

fn parse_mobility(j: &Json) -> Result<Mobility, SpecError> {
    let mut f = Fields::new(j, "scenario.mobility")?;
    let kind = f.req("kind")?;
    let mobility = match as_str(kind, "scenario.mobility.kind")? {
        "static" => Mobility::Static,
        "random_waypoint" => {
            let min_speed = f.or("min_speed", 1.0, &ANY)?;
            let max_speed = f.or("max_speed", 4.0, &ANY)?;
            if !(0.0 <= min_speed && min_speed <= max_speed) {
                let msg = format!("need 0 <= min_speed <= max_speed, got {min_speed}..{max_speed}");
                return Err(SpecError::at("scenario.mobility", j.line, msg));
            }
            Mobility::RandomWaypoint {
                min_speed,
                max_speed,
                pause_s: f.or("pause_s", 2.0, &NON_NEGATIVE)?,
            }
        }
        "scripted" => Mobility::Scripted {
            speed: f.or("speed", 1.0, &POSITIVE)?,
            points: pos_list(f.req("points")?, "scenario.mobility.points")?,
        },
        other => {
            let kinds = ["random_waypoint", "scripted", "static"];
            let path = "scenario.mobility.kind";
            return Err(unknown("mobility", other, path, kind.line, &kinds));
        }
    };
    f.deny_unknown()?;
    Ok(mobility)
}

fn parse_adversaries(j: &Json) -> Result<Vec<(usize, Behavior)>, SpecError> {
    let parse_one = |(i, item): (usize, &Json)| {
        let mut f = Fields::new(item, &format!("scenario.adversaries[{i}]"))?;
        let host = usize::parse(f.req("host")?, &f.child("host"))?;
        let mut behavior = Behavior::default();
        if let Some(b) = f.get("behavior") {
            parse_table(b, &f.child("behavior"), BEHAVIOR, &mut behavior)?;
        }
        f.deny_unknown()?;
        Ok((host, behavior))
    };
    let items = as_arr(j, "scenario.adversaries")?;
    items.iter().enumerate().map(parse_one).collect()
}

fn parse_stack(j: &Json, base: ScenarioBuilder) -> Result<StackSpec, SpecError> {
    let mut f = Fields::new(j, "scenario.stack")?;
    let kind = f.req("kind")?;
    let stack = match as_str(kind, "scenario.stack.kind")? {
        "plain" => {
            let mut b = base.plain();
            f.knobs(PLAIN, &mut b.proto)?;
            StackSpec::Plain(b)
        }
        "secure" => {
            let mut b = base.secure();
            f.knobs(SECURE, &mut b)?;
            if let Some(n) = f.get("name_overrides") {
                b.name_overrides = parse_name_overrides(n)?;
            }
            if let Some(p) = f.get("proto") {
                let mut pf = Fields::new(p, "scenario.stack.proto")?;
                pf.knobs(PROTO, &mut b.proto)?;
                if let Some(c) = pf.get("credit") {
                    parse_table(c, &pf.child("credit"), CREDIT, &mut b.proto.credit)?;
                }
                pf.deny_unknown()?;
            }
            StackSpec::Secure(b)
        }
        other => {
            let path = "scenario.stack.kind";
            return Err(unknown(
                "stack",
                other,
                path,
                kind.line,
                &["plain", "secure"],
            ));
        }
    };
    f.deny_unknown()?;
    Ok(stack)
}

fn parse_name_overrides(j: &Json) -> Result<Vec<(usize, DomainName)>, SpecError> {
    let parse_one = |(i, item): (usize, &Json)| {
        let mut f = Fields::new(item, &format!("scenario.stack.name_overrides[{i}]"))?;
        let host = usize::parse(f.req("host")?, &f.child("host"))?;
        let (name, path) = (f.req("name")?, f.child("name"));
        f.deny_unknown()?;
        let text = as_str(name, &path)?;
        let name = DomainName::new(text).map_err(|e| {
            let msg = format!("\"{text}\" is not a valid domain name ({e:?})");
            SpecError::at(path, name.line, msg)
        })?;
        Ok((host, name))
    };
    let items = as_arr(j, "scenario.stack.name_overrides")?;
    items.iter().enumerate().map(parse_one).collect()
}

fn parse_flows(j: &Json) -> Result<FlowSpec, SpecError> {
    if let Val::Arr(items) = &j.v {
        let parse_pair = |(i, item): (usize, &Json)| {
            let path = format!("workload.flows[{i}]");
            match as_arr(item, &path)? {
                [s, d] => Ok((usize::parse(s, &path)?, usize::parse(d, &path)?)),
                _ => Err(SpecError::at(
                    path,
                    item.line,
                    "expected a [source, destination] pair",
                )),
            }
        };
        let pairs: Result<_, _> = items.iter().enumerate().map(parse_pair).collect();
        return pairs.map(FlowSpec::Pairs);
    }
    let mut f = Fields::new(j, "workload.flows")
        .map_err(|_| mismatch(j, "workload.flows", "an array or an object"))?;
    let keys = (f.get("scale"), f.get("converge_cast"));
    f.deny_unknown()?;
    match keys {
        (Some(n), None) => usize::parse(n, "workload.flows.scale").map(FlowSpec::Scale),
        (None, Some(c)) => {
            let mut cf = Fields::new(c, "workload.flows.converge_cast")?;
            let sources = Vec::parse(cf.req("sources")?, &cf.child("sources"))?;
            let sink = usize::parse(cf.req("sink")?, &cf.child("sink"))?;
            cf.deny_unknown()?;
            Ok(FlowSpec::ConvergeCast { sources, sink })
        }
        _ => Err(SpecError::at(
            "workload.flows",
            j.line,
            "give pairs [[s, d], ...], {\"scale\": n}, or {\"converge_cast\": {...}}",
        )),
    }
}

// ---------------------------------------------------------------------
// The structural sections: serializers
// ---------------------------------------------------------------------

fn pos_list_json(points: &[Pos]) -> Json {
    let pair = |p: &Pos| Json::arr(vec![Json::num(p.x), Json::num(p.y)]);
    Json::arr(points.iter().map(pair).collect())
}

fn placement_json(p: &Placement) -> Json {
    obj(match p {
        Placement::Chain { spacing } => vec![
            ("kind", Json::str("chain")),
            ("spacing", Json::num(*spacing)),
        ],
        Placement::Grid { cols, spacing } => vec![
            ("kind", Json::str("grid")),
            ("cols", cols.show()),
            ("spacing", Json::num(*spacing)),
        ],
        Placement::Uniform => vec![("kind", Json::str("uniform"))],
        Placement::Bypass => vec![("kind", Json::str("bypass"))],
        Placement::Custom(positions) => vec![
            ("kind", Json::str("custom")),
            ("positions", pos_list_json(positions)),
        ],
    })
}

fn field_json(f: &FieldSpec) -> Json {
    obj(match f {
        FieldSpec::Explicit(f) => vec![
            ("width", Json::num(f.width)),
            ("height", Json::num(f.height)),
        ],
        FieldSpec::Density(d) => vec![("density", Json::num(*d))],
    })
}

fn mobility_json(m: &Mobility) -> Json {
    obj(match m {
        Mobility::Static => vec![("kind", Json::str("static"))],
        Mobility::RandomWaypoint {
            min_speed,
            max_speed,
            pause_s,
        } => vec![
            ("kind", Json::str("random_waypoint")),
            ("min_speed", Json::num(*min_speed)),
            ("max_speed", Json::num(*max_speed)),
            ("pause_s", Json::num(*pause_s)),
        ],
        Mobility::Scripted { points, speed } => vec![
            ("kind", Json::str("scripted")),
            ("points", pos_list_json(points)),
            ("speed", Json::num(*speed)),
        ],
    })
}

fn stack_json(s: &StackSpec) -> Json {
    match s {
        StackSpec::Plain(b) => section(PLAIN, &b.proto, vec![("kind", Json::str("plain"))]),
        StackSpec::Secure(b) => {
            let name_overrides = b
                .name_overrides
                .iter()
                .map(|(i, name)| obj(vec![("host", i.show()), ("name", Json::str(name.as_str()))]));
            let credit = section(CREDIT, &b.proto.credit, vec![]);
            section(
                SECURE,
                b,
                vec![
                    ("kind", Json::str("secure")),
                    ("name_overrides", Json::arr(name_overrides.collect())),
                    ("proto", section(PROTO, &b.proto, vec![("credit", credit)])),
                ],
            )
        }
    }
}

fn flows_json(flows: &FlowSpec) -> Json {
    match flows {
        FlowSpec::Pairs(pairs) => {
            Json::arr(pairs.iter().map(|&(s, d)| vec![s, d].show()).collect())
        }
        FlowSpec::Scale(n) => obj(vec![("scale", n.show())]),
        FlowSpec::ConvergeCast { sources, sink } => {
            let cast = vec![("sources", sources.show()), ("sink", sink.show())];
            obj(vec![("converge_cast", obj(cast))])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_document_is_the_default_scenario() {
        let spec = ScenarioSpec::parse("{}").unwrap();
        let b = spec.base();
        assert_eq!(b.n_hosts, 8);
        assert_eq!(b.seed, 1);
        assert!(matches!(b.placement, Placement::Chain { spacing } if spacing == 180.0));
        assert_eq!(b.radio.loss, 0.0, "scenario default, not RadioConfig's 1%");
        assert_eq!(b.exec, None, "an unset executor stays unset");
        assert!(matches!(spec.stack, StackSpec::Plain(_)));
        assert_eq!(spec.workload, WorkloadSpec::default_for(false));
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_and_path() {
        let doc = "{\n  \"scenario\": {\n    \"radio\": {\n      \"lose\": 0.1\n    }\n  }\n}";
        let e = ScenarioSpec::parse(doc).unwrap_err();
        assert_eq!(e.path, "scenario.radio");
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("unknown key \"lose\""), "{e}");
        assert!(e.msg.contains("loss"), "should list expected keys: {e}");
    }

    /// The streaming-stats knob is gone: a document that still sets it
    /// fails like any other unknown key. (The key is spelled in halves
    /// so that a grep for the deleted knob finds nothing in the tree.)
    #[test]
    fn the_deleted_stats_knob_is_an_unknown_key_reported_with_its_line() {
        let key = concat!("per_node", "_stats");
        let doc = format!(
            "{{\"scenario\": {{\"stack\": {{\n \"kind\": \"plain\",\n \"{key}\": false}}}}}}"
        );
        let e = ScenarioSpec::parse(&doc).unwrap_err();
        assert_eq!((e.path.as_str(), e.line), ("scenario.stack", 3), "{e}");
        assert!(e.msg.contains(&format!("unknown key \"{key}\"")), "{e}");
    }

    #[test]
    fn the_deleted_oracle_knobs_are_unknown_keys_reported_with_their_line() {
        for (key, value) in [
            (concat!("que", "ue"), "heap"),
            (concat!("chan", "nel"), "linear"),
        ] {
            let doc = format!("{{\"scenario\": {{\n \"hosts\": 4,\n \"{key}\": \"{value}\"}}}}");
            let e = ScenarioSpec::parse(&doc).unwrap_err();
            assert_eq!((e.path.as_str(), e.line), ("scenario", 3), "{e}");
            assert!(e.msg.contains(&format!("unknown key \"{key}\"")), "{e}");
        }
    }

    #[test]
    fn wrong_types_and_ranges_are_diagnosed() {
        let e = ScenarioSpec::parse(r#"{"scenario": {"hosts": "eight"}}"#).unwrap_err();
        assert_eq!(e.path, "scenario.hosts");
        assert!(e.msg.contains("expected a number, found string"), "{e}");

        let e = ScenarioSpec::parse(r#"{"scenario": {"radio": {"loss": 1.5}}}"#).unwrap_err();
        assert_eq!(e.path, "scenario.radio.loss");
        assert!(e.msg.contains("[0, 1)"), "{e}");

        let e = ScenarioSpec::parse(r#"{"workload": {"flows": [[0, 9]]}}"#).unwrap_err();
        assert_eq!(e.path, "workload.flows");
        assert!(e.msg.contains("out of range"), "{e}");

        // A range failure points at the offending value's own line, not
        // at the object that encloses it.
        for (doc, path, line) in [
            ("{\"scenario\": {\n \"hosts\":\n  0}}", "scenario.hosts", 3),
            (
                "{\"scenario\": {\"radio\": {\n \"range\": 100,\n \"loss\": 1.5}}}",
                "scenario.radio.loss",
                3,
            ),
            (
                "{\"scenario\": {\"placement\": {\"kind\": \"grid\",\n \"cols\": 0}}}",
                "scenario.placement.cols",
                2,
            ),
            (
                "{\"scenario\": {\"adversaries\": [{\"host\": 0, \"behavior\": {\n \
                 \"forge_rrep\": true,\n \"data_drop_prob\": 2}}]}}",
                "scenario.adversaries[0].behavior.data_drop_prob",
                3,
            ),
            (
                "{\"scenario\": {\"stack\": {\"kind\": \"secure\", \"proto\": {\n \
                 \"key_bits\": 128}}}}",
                "scenario.stack.proto.key_bits",
                2,
            ),
            (
                "{\"workload\": {\n \"packets\": 1,\n \"formation_s\": -1}}",
                "workload.formation_s",
                3,
            ),
        ] {
            let e = ScenarioSpec::parse(doc).unwrap_err();
            assert_eq!((e.path.as_str(), e.line), (path, line), "{e}");
        }
    }

    /// Documents the JSON layer accepts but no build survives: each must
    /// fail in `parse`, naming the key — none may reach `build()`.
    #[test]
    fn hostile_documents_fail_in_parse() {
        let secure =
            |stack: &str| format!(r#"{{"scenario": {{"stack": {{"kind": "secure", {stack}}}}}}}"#);
        let scenario = |body: &str| format!(r#"{{"scenario": {{{body}}}}}"#);
        for (doc, path) in [
            // The six from the field: `expect` in the builder, the RSA
            // keygen assert, two overflows, an endless keygen, a run that
            // spends forever on shard barriers.
            (
                secure(r#""name_overrides": [{"host": 0, "name": ""}]"#),
                "scenario.stack.name_overrides[0].name",
            ),
            (
                secure(r#""proto": {"key_bits": 385}"#),
                "scenario.stack.proto.key_bits",
            ),
            (
                scenario(r#""field": {"density": 1e-300}"#),
                "scenario.field.density",
            ),
            (
                scenario(r#""radio": {"bits_per_sec": 1e-300}"#),
                "scenario.radio.bits_per_sec",
            ),
            (
                secure(r#""proto": {"key_bits": 4000000000, "crypto_backend": "null"}"#),
                "scenario.stack.proto.key_bits",
            ),
            (
                scenario(r#""hosts": 3, "exec": "sharded:100000""#),
                "scenario.exec",
            ),
            // Their neighbours: the other knobs the grid is sized from,
            // and a grid that is only too big in combination.
            (
                scenario(r#""radio": {"range": 1e-300}"#),
                "scenario.radio.range",
            ),
            (
                scenario(r#""radio": {"gray_zone": 1e300}"#),
                "scenario.radio.gray_zone",
            ),
            (
                scenario(r#""field": {"width": 1e300, "height": 10}"#),
                "scenario.field.width",
            ),
            (
                scenario(r#""field": {"width": 10, "height": 0}"#),
                "scenario.field.height",
            ),
            (
                scenario(r#""hosts": 2000, "field": {"density": 1e-6}"#),
                "scenario.field",
            ),
            (
                secure(r#""name_overrides": [{"host": 0, "name": "Not A Name"}]"#),
                "scenario.stack.name_overrides[0].name",
            ),
        ] {
            let e = ScenarioSpec::parse(&doc).expect_err(&doc);
            assert_eq!(e.path, path, "{doc}: {e}");
            assert_eq!(e.line, 1, "{doc}: {e}");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let doc = r#"{
            "scenario": {
                "hosts": 5, "seed": 42,
                "placement": {"kind": "bypass"},
                "radio": {"loss": 0.02, "gray_zone": 300.0},
                "mobility": {"kind": "random_waypoint", "min_speed": 0.5, "max_speed": 2.0, "pause_s": 1.0},
                "exec": "sharded:4",
                "churn": {"kills": 1, "window_s": [3.0, 8.0]},
                "adversaries": [{"host": 1, "behavior": {"forge_rrep": true}}],
                "stack": {"kind": "secure", "join_stagger_ms": 900.0,
                          "proto": {"key_bits": 512, "crypto_backend": "rsa",
                                    "credit": {"slash": 50}}}
            },
            "workload": {"flows": [[0, 2]], "packets": 3, "interval_ms": 250.0}
        }"#;
        let spec = ScenarioSpec::parse(doc).unwrap();
        let re = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        // Canonical serialization is the equality witness: every knob
        // survives the round trip byte-for-byte.
        assert_eq!(spec.to_canonical_string(), re.to_canonical_string());
        assert_eq!(spec.base().exec, Some(ExecMode::Sharded(4)));
        match &spec.stack {
            StackSpec::Secure(b) => {
                assert_eq!(b.proto.credit.slash, 50);
                assert_eq!(b.join_stagger, SimDuration::from_millis(900));
            }
            other => panic!("wrong stack: {other:?}"),
        }
    }

    #[test]
    fn parse_run_is_deterministic() {
        let doc = r#"{"scenario": {"hosts": 4, "seed": 7},
                      "workload": {"flows": [[0, 3]], "packets": 2, "interval_ms": 200.0}}"#;
        let a = ScenarioSpec::parse(doc).unwrap().run().unwrap();
        let b = ScenarioSpec::parse(doc).unwrap().run().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.totals.data_sent, 2);
    }

    #[test]
    fn impersonate_groups_round_trip() {
        let b = Behavior {
            impersonate: Some(Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, 1])),
            ..Behavior::default()
        };
        let j = section(BEHAVIOR, &b, vec![]);
        let mut re = Behavior::default();
        parse_table(&j, "t", BEHAVIOR, &mut re).unwrap();
        assert_eq!(re.impersonate, b.impersonate);
    }

    // -----------------------------------------------------------------
    // The tables, as the tests below see them
    // -----------------------------------------------------------------

    /// One knob table placed in a document: the dotted path of the
    /// object its keys live in (array elements as numeric segments), the
    /// smallest document in which that object is reachable, the heading
    /// of its reference table in `docs/SCENARIO.md`, and per row the
    /// key, its live default and some other value the row accepts.
    struct Section {
        at: &'static str,
        within: &'static str,
        heading: &'static str,
        rows: Vec<(&'static str, Json, Json)>,
    }

    fn rows<T: Clone>(table: &[Knob<T>], defaults: &T) -> Vec<(&'static str, Json, Json)> {
        let arr = |ns: &[u16]| Json::arr(ns.iter().map(|&n| Json::num(n as f64)).collect());
        table
            .iter()
            .map(|knob| {
                let default = (knob.show)(defaults);
                let n = match default.v {
                    Val::Num(n) => n,
                    _ => 0.0,
                };
                let numbers = [n + 1.0, n - 1.0, n * 2.0, n + 0.5].map(Json::num);
                let strings = ["hashsig", "rsa", "single"].map(Json::str);
                let others = [
                    Json::bool(true),
                    Json::bool(false),
                    arr(&[0]),
                    arr(&[1, 2]),
                    arr(&[0xfec0, 0, 0, 0, 0, 0, 0, 1]),
                ];
                let accepted = |candidate: &Json| {
                    let mut t = defaults.clone();
                    (knob.read)(&mut t, candidate, knob.key).is_ok() && (knob.show)(&t) != default
                };
                let other = (numbers.into_iter().chain(strings).chain(others))
                    .find(accepted)
                    .unwrap_or_else(|| panic!("no alternative value for `{}`", knob.key));
                (knob.key, default, other)
            })
            .collect()
    }

    fn sections() -> Vec<Section> {
        let builder = ScenarioBuilder::new();
        let secure = r#"{"scenario": {"stack": {"kind": "secure"}}}"#;
        let section = |at, within, heading, rows| Section {
            at,
            within,
            heading,
            rows,
        };
        vec![
            section("scenario", "{}", "### `scenario`", rows(SCENARIO, &builder)),
            section(
                "scenario.churn",
                "{}",
                "#### `scenario.churn`",
                rows(CHURN, &builder),
            ),
            section(
                "scenario.radio",
                "{}",
                "#### `scenario.radio`",
                rows(RADIO, &builder.radio),
            ),
            section(
                "scenario.adversaries.0.behavior",
                r#"{"scenario": {"adversaries": [{"host": 0}]}}"#,
                "#### `scenario.adversaries[].behavior`",
                rows(BEHAVIOR, &Behavior::default()),
            ),
            section(
                "scenario.stack",
                r#"{"scenario": {"stack": {"kind": "plain"}}}"#,
                "#### `scenario.stack` — plain",
                rows(PLAIN, &PlainConfig::default()),
            ),
            section(
                "scenario.stack",
                secure,
                "#### `scenario.stack` — secure",
                rows(SECURE, &builder.clone().secure()),
            ),
            section(
                "scenario.stack.proto",
                secure,
                "#### `scenario.stack.proto`",
                rows(PROTO, &ProtocolConfig::default()),
            ),
            section(
                "scenario.stack.proto.credit",
                secure,
                "#### `scenario.stack.proto.credit`",
                rows(CREDIT, &CreditConfig::default()),
            ),
            section(
                "workload",
                "{}",
                "### `workload`",
                rows(WORKLOAD, &WorkloadSpec::default_for(false)),
            ),
        ]
    }

    /// The value at a dotted path, inserting empty objects on the way.
    fn locate<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(doc, |j, segment| match &mut j.v {
            Val::Arr(items) => &mut items[segment.parse::<usize>().unwrap()],
            Val::Obj(members) => {
                let at = members.iter().position(|(k, _)| k == segment);
                let at = at.unwrap_or_else(|| {
                    members.push((segment.to_string(), Json::obj(Vec::new())));
                    members.len() - 1
                });
                &mut members[at].1
            }
            other => panic!("{path}: {segment} is inside {other:?}"),
        })
    }

    /// The tables are total: every row of every table, set alone to a
    /// value other than its default, survives parse → canonical text →
    /// parse → render. A key that parsed but did not render (or the
    /// reverse) cannot be written as a row, and this proves it for the
    /// rows there are.
    #[test]
    fn every_knob_round_trips_through_canonical_text() {
        let mut walked = 0;
        for s in sections() {
            for (key, default, other) in s.rows {
                let path = format!("{}.{key}", s.at);
                let mut doc = json::parse(s.within).unwrap();
                *locate(&mut doc, &path) = other.clone();
                let spec = ScenarioSpec::from_json(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
                let text = spec.to_canonical_string();
                let again = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
                assert_eq!(again.to_canonical_string(), text, "{path}");
                let got = locate(&mut again.to_json(), &path).clone();
                assert_eq!(json::compact(&got), json::compact(&other), "{path}");
                assert_ne!(json::compact(&got), json::compact(&default), "{path}");
                walked += 1;
            }
        }
        assert!(walked > 60, "only {walked} knobs walked");
    }

    /// `docs/SCENARIO.md` is checked, not trusted: every row of every
    /// table appears under its section's heading, with the live default.
    #[test]
    fn scenario_md_lists_every_knob_with_its_live_default() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIO.md");
        let text = std::fs::read_to_string(path).unwrap();
        for s in sections() {
            let (_, body) = text
                .split_once(&format!("\n{}\n", s.heading))
                .unwrap_or_else(|| panic!("docs/SCENARIO.md has no heading {:?}", s.heading));
            let body = body.split("\n#").next().unwrap();
            for (key, default, _) in s.rows {
                // The backend's default follows MANET_CRYPTO; the
                // reference documents the unset case.
                if key == "crypto_backend" && std::env::var("MANET_CRYPTO").is_ok() {
                    continue;
                }
                let row = body
                    .lines()
                    .find(|l| l.starts_with(&format!("| `{key}` |")))
                    .unwrap_or_else(|| panic!("{}: no row for `{key}`", s.heading));
                // | `key` | type / range | `default` … | meaning |
                let row = row.replace("\\|", "/"); // an escaped pipe is not a cell border
                let cell = row.split('|').nth(3).unwrap();
                let listed = cell.split('`').nth(1).unwrap_or_default();
                let listed = json::parse(listed)
                    .unwrap_or_else(|e| panic!("{}: `{key}` default {listed:?}: {e}", s.heading));
                assert_eq!(
                    json::compact(&listed),
                    json::compact(&default),
                    "{}: `{key}` is listed with a stale default",
                    s.heading
                );
            }
        }
    }
}
