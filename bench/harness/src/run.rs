//! One run of the benchmark: reps back to back for the run length, one
//! counted rep, and — with tracing on — traced reps, a tick-counting rep
//! and the kernel probes. Produces the metrics, the operation counts and
//! the correctness verdict of the result line, plus diagnostics.

use crate::host::{self, Spin};
use crate::inputs::{self, Workload};
use crate::jsonout;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Probes;
use crate::rep::RepResult;
use crate::spans::{self_times, Span};
use crate::stats::{best, median, summarize, Better};
use manet_secure::campaign::json::{self, Json, Val};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// In a traced run every this-many-th rep records spans, so that traced
/// and untraced reps sample the same stretches of host noise.
const TRACED_EVERY: usize = 5;
/// In a traced run a batch of the short probes (a child of ~0.1 s)
/// follows every second rep, ≥ 20 batches in a run, and a batch of the
/// long probes (~1.3 s) every sixteenth.
const PROBE_EVERY: usize = 2;
const LONG_PROBE_EVERY: usize = 16;
/// Reps a full-length run is expected to complete.
const MIN_REPS: usize = 60;
const MIN_REPS_CAMPAIGN: usize = 30;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Probe values measured beforehand (the smoke mode probes once for
    /// all its runs). `None`: probe in this run.
    pub probes: Option<Vec<(&'static str, f64)>>,
    /// Smoke mode only: a single traced rep stands in for every kind of
    /// rep (no counted rep, no tick count), which is enough for exact
    /// counts and span shares and is not a measurement.
    pub minimal: bool,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            probes: None,
            minimal: false,
        }
    }
}

/// What a run hands to the result line and the smoke checks.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every end-to-end metric.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// The same for every per-layer metric; empty without tracing.
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// Estimated share of `wall_s` by layer (`crypto`, `sim`,
    /// `handlers`); empty without tracing.
    pub est_shares: Vec<(&'static str, f64)>,
    /// Why `correct` is false (empty when it is true).
    pub problems: Vec<String>,
    /// Human-readable diagnostics (order statistics, shares, warnings).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    /// The last line of standard output.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        jsonout::result_line(self.correct, self.attempted, self.failed, metrics)
    }
}

/// One child process: its parsed output (None when it failed) and the
/// wall from spawn to exit.
struct Child {
    result: Option<RepResult>,
    wall_s: f64,
    traced: bool,
}

fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing; build the package first",
            path.display()
        ))
    }
}

fn spawn_rep(binary: &Path, dir: &Path, flags: &[&str]) -> Child {
    let t0 = Instant::now();
    let output = Command::new(binary)
        .arg("rep")
        .arg("--inputs")
        .arg(dir)
        .args(flags)
        // The ambient executor/backend knobs would change what runs.
        .env_remove("MANET_EXEC")
        .env_remove("MANET_CRYPTO")
        .output();
    let wall_s = t0.elapsed().as_secs_f64();
    let result = match output {
        Ok(out) if out.status.success() => {
            match RepResult::parse(&String::from_utf8_lossy(&out.stdout)) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("rep output unreadable: {e}");
                    None
                }
            }
        }
        Ok(out) => {
            eprintln!(
                "rep exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            );
            None
        }
        Err(e) => {
            eprintln!("rep could not start: {e}");
            None
        }
    };
    Child {
        result,
        wall_s,
        traced: flags.contains(&"--spans"),
    }
}

/// Run one batch of kernel probes in a child of its own and fold its
/// times into `probes`.
fn probe_child(binary: &Path, seed: u64, kind: &str, probes: &mut Probes) -> Result<(), String> {
    let out = Command::new(binary)
        .args(["probes", &seed.to_string(), kind])
        .output()
        .map_err(|e| format!("probe child could not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "probe child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    probes.absorb(&String::from_utf8_lossy(&out.stdout))
}

/// Directory for a run's inputs and outputs, beside the binaries (so
/// inside the build directory, which is inside the checkout).
fn scratch_dir(kind: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join(kind);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the input files of `(workload, seed)` into `dir`.
pub fn write_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, text) in inputs::generate(workload, seed) {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Duration of the named span in a rep (0 when the rep has none).
fn span_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, Span::duration)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let timed_bin = sibling_binary("manet-benchmark")?;
    let counted_bin = sibling_binary("manet-benchmark-counted")?;
    let dir = scratch_dir("manet-benchmark-tmp")?.join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    write_inputs(cfg.workload, cfg.seed, &dir)?;
    let outcome = run_in(cfg, &timed_bin, &counted_bin, &dir);
    // Inputs and campaign reports are scratch; traces are kept.
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(
    cfg: &RunConfig,
    timed_bin: &Path,
    counted_bin: &Path,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut notes = vec![format!(
        "{} seed {} · {}",
        cfg.workload.name(),
        cfg.seed,
        host::facts()
    )];
    let mut problems = Vec::new();

    // --- the timed reps, one child at a time (a closed loop) -----------
    let mut spin = Spin::default();
    let mut spins_ms = Vec::new();
    let mut children: Vec<Child> = Vec::new();
    let started = Instant::now();
    // At least one rep of each kind the run needs, however short it is.
    let enough = |children: &[Child]| {
        cfg.minimal
            || (children.iter().any(|c| !c.traced)
                && (!cfg.trace || children.iter().any(|c| c.traced)))
    };
    let mut probes = (cfg.trace && cfg.probes.is_none()).then(|| Probes::new(cfg.seed));
    while children.is_empty() || !enough(&children) || started.elapsed().as_secs_f64() < cfg.seconds
    {
        spins_ms.push(spin.run());
        let traced = cfg.minimal || (cfg.trace && children.len() % TRACED_EVERY == 1);
        let flags: &[&str] = if traced { &["--spans"] } else { &[] };
        children.push(spawn_rep(timed_bin, dir, flags));
        if let Some(probes) = &mut probes {
            if children.len() % PROBE_EVERY == 1 {
                probe_child(timed_bin, cfg.seed, "short", probes)?;
            }
            if children.len() % LONG_PROBE_EVERY == 1 {
                probe_child(timed_bin, cfg.seed, "long", probes)?;
            }
        }
    }
    let timed_count = children.len();
    let counted = (!cfg.minimal).then(|| spawn_rep(counted_bin, dir, &[]));
    let ticks = (cfg.trace && !cfg.minimal).then(|| spawn_rep(timed_bin, dir, &["--ticks"]));

    // --- operations and their failures ---------------------------------
    let reference = children
        .iter()
        .find_map(|c| c.result.as_ref())
        .ok_or("no rep completed")?
        .clone();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for child in children.iter().chain(counted.iter()).chain(ticks.iter()) {
        attempted += 1;
        match &child.result {
            None => failed += 1,
            Some(r) => {
                let (hosts, jobs) = (r.get("hosts") as u64, r.get("campaign.jobs") as u64);
                attempted += hosts + jobs;
                failed += hosts - (r.get("hosts_ready") as u64).min(hosts);
                failed += r.get("jobs_failed") as u64;
                if r.fingerprint != reference.fingerprint {
                    failed += 1;
                }
            }
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    // --- end-to-end metrics: untraced timed reps only -------------------
    let ok = |traced: bool| {
        children
            .iter()
            .filter(move |c| cfg.minimal || c.traced == traced)
            .filter_map(|c| c.result.as_ref().map(|r| (c.wall_s, r)))
    };
    let column =
        |traced: bool, key: &str| -> Vec<f64> { ok(traced).map(|(_, r)| r.get(key)).collect() };
    let walls: Vec<f64> = ok(false).map(|(w, _)| w).collect();
    let wall_s = best(&walls, Better::Lower).ok_or("no untraced rep completed")?;
    let setups = column(false, "setup_s");
    let rates = column(false, "events_per_s");
    let rss: Vec<f64> = column(false, "peak_rss_bytes");
    let counted_rep = counted.as_ref().and_then(|c| c.result.as_ref());
    let counted_get = |key: &str| counted_rep.map_or(0.0, |r| r.get(key));
    let mib = 1024.0 * 1024.0;
    let e2e_values: BTreeMap<&str, f64> = [
        ("wall_s", wall_s),
        ("setup_s", best(&setups, Better::Lower).unwrap_or(0.0)),
        ("events_per_s", best(&rates, Better::Higher).unwrap_or(0.0)),
        ("peak_rss_mib", median(&rss) / mib),
        ("alloc_mib", counted_get("alloc_bytes") / mib),
        ("allocs_k", counted_get("alloc_count") / 1e3),
        ("delivery_ratio", reference.get("delivery_ratio")),
        (
            "tx_bytes_per_acked",
            ratio(
                reference.get("sim.tx_bytes"),
                reference.get("node.data_acked"),
            ),
        ),
    ]
    .into();
    let end_to_end: Vec<_> = END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| (name, e2e_values[name], unit))
        .collect();
    for (label, values) in [
        ("wall_s", &walls),
        ("setup_s", &setups),
        ("events_per_s", &rates),
        ("host.spin_ms", &spins_ms),
    ] {
        if let Some(s) = summarize(values) {
            notes.push(format!(
                "{label}: n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            ));
        }
    }
    let disturbed = host::disturbed_share(&spins_ms);
    if disturbed > 0.8 {
        notes.push(format!(
            "warning: {:.0} % of reps ran next to a disturbed spin; the host was busy for most of this run",
            disturbed * 100.0
        ));
    }
    let want = match cfg.workload {
        Workload::CampaignSweep => MIN_REPS_CAMPAIGN,
        _ => MIN_REPS,
    };
    if cfg.seconds >= 30.0 && timed_count < want {
        notes.push(format!(
            "warning: {timed_count} reps in {} s, fewer than the {want} the estimator wants",
            cfg.seconds
        ));
    }

    // --- correctness invariants -----------------------------------------
    let delivery = reference.get("delivery_ratio");
    let mut require = |holds: bool, what: String| {
        if !holds {
            problems.push(what);
        }
    };
    match cfg.workload {
        Workload::PlainScale => require(delivery >= 0.8, format!("delivery {delivery} < 0.8")),
        Workload::SecureRoutes => require(delivery >= 0.9, format!("delivery {delivery} < 0.9")),
        Workload::SecureAttack => {
            require(delivery > 0.0, "nothing was delivered under attack".into());
            require(
                reference.get("crypto.verify_failed") > 0.0 && reference.get("node.rejected") > 0.0,
                "the attack left no rejected proof".into(),
            );
        }
        Workload::CampaignSweep => require(
            reference.get("campaign.jobs") > 0.0,
            "the campaign ran no job".into(),
        ),
    }
    require(
        cfg.minimal || counted_rep.is_some(),
        "the counted rep failed".into(),
    );

    // --- per-layer metrics (traced run) ---------------------------------
    let mut per_layer = Vec::new();
    let mut est_shares = Vec::new();
    if cfg.trace {
        let ticks_rep = ticks.as_ref().and_then(|c| c.result.as_ref());
        let traced: Vec<(f64, &RepResult)> = ok(true).collect();
        let probe_values = match (&cfg.probes, &probes) {
            (Some(values), _) => values.clone(),
            (None, Some(probes)) => probes.values(),
            (None, None) => unreachable!("a traced run probes unless it was handed values"),
        };
        let layer = LayerInputs {
            reference: &reference,
            counted: counted_rep,
            ticks: ticks_rep.map_or(0.0, |r| r.get("sim.ticks")),
            traced: &traced,
            probes: &probe_values,
            wall_s,
            busy_s: best(&column(false, "sim.busy_s"), Better::Lower).unwrap_or(0.0),
            peak_rss_bytes: median(&rss),
            spin_ms: best(&spins_ms, Better::Lower).unwrap_or(0.0),
            disturbed,
            reps: timed_count as f64,
        };
        let LayerOutput {
            values,
            shares,
            notes: layer_notes,
        } = layer.metrics();
        est_shares = shares;
        notes.extend(layer_notes);
        per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        match write_trace(cfg, &traced, &per_layer) {
            Ok(path) => notes.push(format!("spans and per-layer numbers: {}", path.display())),
            Err(e) => notes.push(format!("warning: trace not written: {e}")),
        }
    }

    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        est_shares,
        problems,
        notes,
    })
}

/// Everything the per-layer arithmetic reads.
struct LayerInputs<'a> {
    /// Any completed rep: the exact counts are the same in all of them.
    reference: &'a RepResult,
    counted: Option<&'a RepResult>,
    ticks: f64,
    /// `(wall_s, result)` of the traced reps.
    traced: &'a [(f64, &'a RepResult)],
    probes: &'a [(&'static str, f64)],
    /// Best untraced wall.
    wall_s: f64,
    /// Best engine-busy seconds of the untraced reps.
    busy_s: f64,
    peak_rss_bytes: f64,
    spin_ms: f64,
    disturbed: f64,
    reps: f64,
}

/// What the per-layer arithmetic produces.
struct LayerOutput {
    values: BTreeMap<&'static str, f64>,
    /// Estimated share of `wall_s` by layer.
    shares: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl LayerInputs<'_> {
    fn metrics(&self) -> LayerOutput {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut notes = Vec::new();
        let r = self.reference;
        m.extend(self.probes.iter().copied());
        let probe = |name: &str| {
            self.probes
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };

        // Exact counts, straight from a rep.
        for &(name, _, _) in &PER_LAYER {
            if let Some(v) = r.values.get(name) {
                m.insert(name, *v);
            }
        }
        m.insert("sim.ticks", self.ticks);
        let counted = |key: &str| self.counted.map_or(0.0, |c| c.get(key));
        m.insert("alloc.build_k", counted("alloc.build_k"));
        m.insert("alloc.traffic_k", counted("alloc.traffic_k"));
        m.insert("alloc.per_event", counted("alloc.per_event"));

        // Spans: the best duration of each boundary over the traced reps.
        let span_best = |name: &str| {
            let durations: Vec<f64> = self
                .traced
                .iter()
                .map(|(_, rep)| span_s(&rep.spans, name))
                .collect();
            best(&durations, Better::Lower).unwrap_or(0.0)
        };
        for (metric, span, scale) in [
            ("campaign.load_plan_ms", "campaign.load_plan", 1e3),
            ("campaign.expand_ms", "campaign.expand", 1e3),
            ("campaign.run_s", "campaign.run", 1.0),
            ("campaign.render_ms", "campaign.render", 1e3),
            ("scenario.build_s", "scenario.build", 1.0),
            ("scenario.bootstrap_s", "scenario.bootstrap", 1.0),
            ("scenario.formation_s", "scenario.formation", 1.0),
            ("scenario.traffic_s", "scenario.traffic", 1.0),
            ("scenario.report_s", "scenario.report", 1.0),
        ] {
            m.insert(metric, span_best(span) * scale);
        }
        // Both threads busy throughout reads 2.0; taken from the traced
        // rep whose fan-out was fastest.
        let fastest = self
            .traced
            .iter()
            .map(|(_, rep)| *rep)
            .filter(|rep| rep.get("cpu_s") > 0.0)
            .min_by(|a, b| a.get("traffic_s").total_cmp(&b.get("traffic_s")));
        m.insert(
            "campaign.cpu_per_wall",
            fastest.map_or(0.0, |rep| ratio(rep.get("cpu_s"), rep.get("traffic_s"))),
        );

        // Ratios of exact counts.
        let hosts = r.get("hosts");
        m.insert(
            "scenario.build_us_per_host",
            ratio(m["scenario.build_s"] * 1e6, hosts),
        );
        m.insert(
            "scenario.hosts_ready_share",
            ratio(r.get("hosts_ready"), hosts),
        );
        m.insert(
            "mem.rss_kib_per_host",
            ratio(self.peak_rss_bytes / 1024.0, hosts),
        );
        // Every verdict the pipeline produced is an attempt: a proof
        // rejected by the CGA hash never reaches the cache, so it counts
        // below the line and not above it.
        m.insert(
            "crypto.cache_hit_ratio",
            ratio(
                r.get("crypto.cached"),
                r.get("crypto.demand") + r.get("crypto.verify_failed"),
            ),
        );
        m.insert(
            "crypto.batch_amortization",
            ratio(
                r.get("crypto.batch_requests"),
                r.get("crypto.batch_executed"),
            ),
        );
        m.insert("sim.busy_s", self.busy_s);
        m.insert(
            "sim.ns_per_event",
            ratio(self.busy_s * 1e9, r.get("sim.events")),
        );

        // Estimates: exact count × probed cost.
        let keygen_est = r.get("keygens") * probe("crypto.keygen_ms") / 1e3;
        let sign_est = r.get("crypto.signs") * probe("crypto.sign_us") / 1e6;
        let verify_est = r.get("crypto.verifies") * probe("crypto.verify_us") / 1e6;
        m.insert("crypto.keygen_est_s", keygen_est);
        m.insert("crypto.sign_est_s", sign_est);
        m.insert("crypto.verify_est_s", verify_est);
        m.insert(
            "crypto.est_share",
            ratio(keygen_est + sign_est + verify_est, self.wall_s),
        );
        let rx = r.get("sim.rx_frames");
        let sim_est = ((r.get("sim.events") - rx).max(0.0) * probe("sim.timer_ns_per_event")
            + rx * probe("sim.bcast_ns_per_rx"))
            / 1e9;
        // The codec's cost cannot be told from the handlers' from outside
        // the program (that takes per-kind frame counts), so it stays
        // inside the residual. Its ceiling — every byte priced like the
        // probed key-bearing route request, or every plain frame peeked
        // and every sent one encoded — is printed beside it.
        let wire_ceiling = if r.get("keygens") > 0.0 {
            let per_byte = |ns: f64| ratio(ns, probe("wire.secure_ctl_bytes"));
            (r.get("rx_bytes") * per_byte(probe("wire.secure_ctl_decode_ns"))
                + r.get("tx_bytes") * per_byte(probe("wire.secure_ctl_encode_ns")))
                / 1e9
        } else {
            (rx * probe("wire.rreq_peek_ns") + r.get("tx_frames") * probe("wire.data_encode_ns"))
                / 1e9
        };
        // What is left of the engine's busy time is the protocol
        // handlers' (codec calls included). Estimates can overshoot; a
        // negative residual is reported as zero and said so.
        // (`campaign_sweep` does not expose its engines' busy time.)
        let handler_est = if self.busy_s > 0.0 {
            clamp_residual(self.busy_s - sim_est - sign_est - verify_est, &mut notes)
        } else {
            0.0
        };
        m.insert("node.handler_est_s", handler_est);
        m.insert("node.handler_share", ratio(handler_est, self.wall_s));

        // How far to trust the run.
        m.insert("host.spin_ms", self.spin_ms);
        m.insert("host.disturbed_share", self.disturbed);
        m.insert("bench.reps", self.reps);
        let traced_walls: Vec<f64> = self.traced.iter().map(|(w, _)| *w).collect();
        let traced_best = best(&traced_walls, Better::Lower).unwrap_or(self.wall_s);
        m.insert(
            "trace.overhead_share",
            ratio(traced_best - self.wall_s, self.wall_s),
        );

        let shares = vec![
            ("crypto", m["crypto.est_share"]),
            ("sim", ratio(sim_est, self.wall_s)),
            ("handlers", m["node.handler_share"]),
        ];
        let listed: Vec<String> = shares.iter().map(|(l, v)| format!("{l} {v:.3}")).collect();
        notes.push(format!(
            "estimated shares of wall_s: {} (of which codec at most {:.3})",
            listed.join(", "),
            ratio(wire_ceiling.min(handler_est), self.wall_s)
        ));
        notes.extend(self.share_table());
        LayerOutput {
            values: m,
            shares,
            notes,
        }
    }

    /// Self times of the fastest traced rep as shares of its wall, plus
    /// what the process spent outside `main`; they sum to 1.
    fn share_table(&self) -> Vec<String> {
        let Some((wall, rep)) = self
            .traced
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .copied()
        else {
            return vec!["warning: no traced rep completed".to_string()];
        };
        let own = self_times(&rep.spans);
        let mut lines = vec![format!("traced rep of {wall:.6} s, self time by span:")];
        let mut sum = 0.0;
        for (span, own_s) in rep.spans.iter().zip(&own) {
            lines.push(format!(
                "  {:<22} {:>9.6} s  {:>6.3}",
                span.name,
                own_s,
                own_s / wall
            ));
            sum += own_s;
        }
        let outside = wall - sum;
        lines.push(format!(
            "  {:<22} {:>9.6} s  {:>6.3}  (spawn, loader, exit)",
            "outside main",
            outside,
            outside / wall
        ));
        lines
    }
}

/// The handlers' residual, never negative.
fn clamp_residual(residual: f64, notes: &mut Vec<String>) -> f64 {
    if residual < 0.0 {
        notes.push(format!(
            "note: layer estimates exceed engine busy time by {:.6} s; handler residual clamped to 0 (1 clamp)",
            -residual
        ));
        0.0
    } else {
        residual
    }
}

/// Spans of every traced rep and the per-layer numbers, written where
/// the binaries live.
fn write_trace(
    cfg: &RunConfig,
    traced: &[(f64, &RepResult)],
    per_layer: &[(&'static str, f64, &'static str)],
) -> Result<PathBuf, String> {
    let path = scratch_dir("manet-benchmark-traces")?.join(format!(
        "{}-{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    let mut reps = Vec::new();
    for (rep_id, (wall, rep)) in traced.iter().enumerate() {
        let spans: Vec<String> = rep
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {}, \"rep\": {rep_id}}}",
                    jsonout::quote(&s.name),
                    jsonout::number(s.start),
                    jsonout::number(s.end),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        reps.push(format!(
            "{{\"rep\": {rep_id}, \"wall_s\": {}, \"spans\": [{}]}}",
            jsonout::number(*wall),
            spans.join(", ")
        ));
    }
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"reps\": [\n{}\n], \"result\": {}}}\n",
        jsonout::quote(cfg.workload.name()),
        cfg.seed,
        jsonout::quote(&host::facts()),
        reps.join(",\n"),
        jsonout::result_line(true, 1, 0, per_layer),
    );
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Are all names the contract file lists printed, with its units, and
/// nothing else? `printed` is `(name, unit)`; `section` is
/// `"end_to_end"` or `"per_layer"`.
pub fn check_printed(
    contract: &Json,
    section: &str,
    printed: &[(&str, &str)],
) -> Result<(), String> {
    let Some(Val::Arr(listed)) = contract.get(section).map(|j| &j.v) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    let text = |j: &Json, key: &str| match j.get(key).map(|v| &v.v) {
        Some(Val::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{section} entry without a {key}")),
    };
    let mut want = Vec::new();
    for entry in listed {
        want.push((text(entry, "name")?, text(entry, "unit")?));
    }
    for (name, unit) in &want {
        if !printed.iter().any(|(n, u)| n == name && u == unit) {
            return Err(format!(
                "{section}: {name} [{unit}] is listed but not printed"
            ));
        }
    }
    for (name, unit) in printed {
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        {
            return Err(format!("{section}: bad metric name {name:?}"));
        }
        if !want.iter().any(|(n, u)| n == name && u == unit) {
            return Err(format!(
                "{section}: {name} [{unit}] is printed but not listed"
            ));
        }
    }
    Ok(())
}

/// `name → direction and bound` must also agree, or the driver would
/// judge a metric the harness defines the other way round.
pub fn check_directions(contract: &Json) -> Result<(), String> {
    let lookup = |section: &str, name: &str| {
        let Some(Val::Arr(listed)) = contract.get(section).map(|j| &j.v) else {
            return None;
        };
        listed
            .iter()
            .find(|e| matches!(e.get("name").map(|v| &v.v), Some(Val::Str(s)) if s == name))
    };
    for &(name, _, better, bound) in &END_TO_END {
        let entry = lookup("end_to_end", name).ok_or(format!("{name} is not listed"))?;
        match (
            entry.get("better").map(|v| &v.v),
            entry.get("bound").map(|v| &v.v),
        ) {
            (Some(Val::Str(b)), Some(Val::Num(x))) if b == better.name() && *x == bound => {}
            _ => {
                return Err(format!(
                    "{name}: direction or bound differs from metrics.rs"
                ))
            }
        }
    }
    for &(name, _, better) in &PER_LAYER {
        let entry = lookup("per_layer", name).ok_or(format!("{name} is not listed"))?;
        match entry.get("better").map(|v| &v.v) {
            Some(Val::Str(b)) if b == better.name() => {}
            _ => return Err(format!("{name}: direction differs from metrics.rs")),
        }
    }
    Ok(())
}

/// The smoke mode: the workload-distinctness self-test over seeds 1–3
/// and the printed-metrics check against `BENCHMARK.json`, in about
/// twenty seconds. `contract_path` is `BENCHMARK.json` of the checkout.
pub fn smoke(contract_path: &Path) -> Result<Vec<String>, String> {
    let mut log = Vec::new();
    let text = std::fs::read_to_string(contract_path)
        .map_err(|e| format!("read {}: {e}", contract_path.display()))?;
    let contract = json::parse(&text)
        .map_err(|e| format!("{}: line {}: {}", contract_path.display(), e.line, e.msg))?;
    check_directions(&contract)?;

    // Operation costs do not depend on the seed; probe them once.
    let binary = sibling_binary("manet-benchmark")?;
    let mut probes = Probes::new(1);
    probe_child(&binary, 1, "short", &mut probes)?;
    probe_child(&binary, 1, "long", &mut probes)?;
    let probe_values = probes.values();
    for seed in 1..=3u64 {
        let mut by_workload = BTreeMap::new();
        for workload in Workload::ALL {
            // One traced rep gives the exact counts and the span shares.
            let mut cfg = RunConfig::new(workload, seed, 0.0, true);
            cfg.probes = Some(probe_values.clone());
            cfg.minimal = true;
            let outcome = run(&cfg)?;
            if !outcome.correct {
                return Err(format!(
                    "{} seed {seed}: {}",
                    workload.name(),
                    outcome.problems.join("; ")
                ));
            }
            if seed == 1 {
                for (section, metrics) in [
                    ("end_to_end", &outcome.end_to_end),
                    ("per_layer", &outcome.per_layer),
                ] {
                    let printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.0, m.2)).collect();
                    check_printed(&contract, section, &printed)?;
                }
            }
            by_workload.insert(workload.name(), outcome);
        }
        distinctness(&by_workload).map_err(|e| format!("seed {seed}: {e}"))?;
        log.push(format!("seed {seed}: workloads are distinct"));
    }
    log.push("every listed metric is printed with its unit, and nothing else".to_string());
    Ok(log)
}

/// What makes the four workloads four: each uses the layers differently.
fn distinctness(by_workload: &BTreeMap<&str, Outcome>) -> Result<(), String> {
    let v = |w: &str, name: &str| by_workload[w].value(name);
    let check = |holds: bool, what: &str| if holds { Ok(()) } else { Err(what.to_string()) };
    check(
        v("plain_scale", "crypto.est_share") == 0.0,
        "plain_scale spends time in crypto",
    )?;
    let shares = &by_workload["secure_routes"].est_shares;
    check(
        shares
            .iter()
            .all(|(layer, s)| *layer == "crypto" || *s < shares[0].1),
        "crypto is not the largest share of secure_routes",
    )?;
    check(
        v("secure_routes", "crypto.verify_failed") == 0.0,
        "an honest network rejected a proof",
    )?;
    check(
        v("secure_attack", "crypto.verify_failed") > 0.0,
        "the attacked network rejected nothing",
    )?;
    let gap =
        v("secure_routes", "crypto.cache_hit_ratio") - v("secure_attack", "crypto.cache_hit_ratio");
    check(
        gap >= 0.10,
        &format!("cache hit ratio under attack is only {gap:.3} below the honest one"),
    )?;
    for (w, outcome) in by_workload {
        let plan_ms = outcome.value("campaign.load_plan_ms") + outcome.value("campaign.expand_ms");
        check(
            (plan_ms > 0.0) == (*w == "campaign_sweep"),
            &format!("{w}: campaign set-up spans are {plan_ms} ms"),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_secure::campaign::json;

    #[test]
    fn residual_is_clamped_at_zero_and_the_clamp_is_counted() {
        let mut notes = Vec::new();
        assert_eq!(clamp_residual(0.25, &mut notes), 0.25);
        assert!(notes.is_empty());
        assert_eq!(clamp_residual(-0.001, &mut notes), 0.0);
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("1 clamp"), "{}", notes[0]);
    }

    #[test]
    fn ratio_of_nothing_is_zero_not_nan() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn printed_metrics_are_checked_both_ways() {
        let contract =
            json::parse(r#"{"per_layer": [{"name": "a.b", "unit": "ns", "better": "lower"}]}"#)
                .unwrap();
        assert!(check_printed(&contract, "per_layer", &[("a.b", "ns")]).is_ok());
        let missing = check_printed(&contract, "per_layer", &[]).unwrap_err();
        assert!(missing.contains("listed but not printed"), "{missing}");
        let extra =
            check_printed(&contract, "per_layer", &[("a.b", "ns"), ("c", "s")]).unwrap_err();
        assert!(extra.contains("printed but not listed"), "{extra}");
        let unit = check_printed(&contract, "per_layer", &[("a.b", "us")]).unwrap_err();
        assert!(unit.contains("a.b"), "{unit}");
        assert!(check_printed(&contract, "per_layer", &[("a b", "ns")]).is_err());
    }

    /// The committed contract and the tables in `metrics.rs` are one
    /// list written twice; this is what keeps them one.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let contract = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        check_printed(&contract, "end_to_end", &e2e).unwrap();
        check_printed(&contract, "per_layer", &layers).unwrap();
        check_directions(&contract).unwrap();
        let json::Val::Arr(workloads) = &contract.get("workloads").unwrap().v else {
            panic!("workloads is not a list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match &w.get("name").unwrap().v {
                json::Val::Str(s) => s.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
