//! One rep: a complete execution of a workload from its input files —
//! parse → build → set-up → traffic → report — through the program's
//! public functions only. Runs in a fresh child process (see
//! `bin/manet-benchmark.rs` and `bin/manet-benchmark-counted.rs`) and
//! prints what it measured as `key value` lines for the parent.

use crate::inputs::{NetSpec, Stack, NET_FILE, PLAN_FILE};
use crate::spans::{Recorder, Span};
use manet_secure::campaign::{self, json, ScenarioSpec};
use manet_secure::scenario::{Network, NodeApi, RunReport, Workload};
use manet_sim::{mem, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a rep is observed. The timed reps set neither flag.
#[derive(Clone, Copy, Default, Debug)]
pub struct RepOptions {
    /// Record spans at the layer boundaries and print them at exit.
    pub spans: bool,
    /// Count engine ticks through `Engine::set_tick_hook`. On a plain
    /// network this switches the engine to its hooked loop, so a rep
    /// with this flag is never timed.
    pub ticks: bool,
}

/// What one rep measured. Keys are per-layer metric names where the rep
/// observes the metric directly, and plain words for raw inputs to the
/// parent's arithmetic.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RepResult {
    pub values: BTreeMap<String, f64>,
    /// Hex digest of the machine-independent result
    /// (`RunReport::fingerprint()`, or the canonical campaign report).
    pub fingerprint: String,
    pub spans: Vec<Span>,
}

impl RepResult {
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// The line protocol between a rep child and the parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            out.push_str(&format!("v {k} {v:?}\n"));
        }
        out.push_str(&format!("fp {}\n", self.fingerprint));
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "span {parent} {:?} {:?} {}\n",
                s.start, s.end, s.name
            ));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = RepResult::default();
        for line in text.lines() {
            let bad = || format!("bad rep output line: {line:?}");
            let words: Vec<&str> = line.split(' ').collect();
            match words.as_slice() {
                ["v", key, value] => {
                    r.set(key, value.parse().map_err(|_| bad())?);
                }
                ["fp", digest] => r.fingerprint = digest.to_string(),
                ["span", parent, start, end, name] => r.spans.push(Span {
                    name: name.to_string(),
                    start: start.parse().map_err(|_| bad())?,
                    end: end.parse().map_err(|_| bad())?,
                    parent: match *parent {
                        "-" => None,
                        p => Some(p.parse().map_err(|_| bad())?),
                    },
                }),
                _ => return Err(bad()),
            }
        }
        if r.fingerprint.is_empty() {
            return Err("rep output carries no fingerprint".to_string());
        }
        Ok(r)
    }
}

fn hex_digest(bytes: &[u8]) -> String {
    manet_crypto::sha256(bytes)[..16]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Execute the rep described by the files in `dir`. `origin` is the
/// start of the child's `main`: `setup_s` and every span count from it.
pub fn run(dir: &Path, opts: RepOptions, origin: Instant) -> Result<RepResult, String> {
    let mut rec = Recorder::new(origin, opts.spans);
    let mut out = RepResult::default();
    rec.enter("rep");
    if dir.join(PLAN_FILE).exists() {
        run_campaign(dir, &mut rec, &mut out)?;
    } else {
        let path = dir.join(NET_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {} failed: {e}", path.display()))?;
        let spec = NetSpec::parse(&text)?;
        match spec.stack {
            Stack::Plain => {
                rec.enter("scenario.build");
                let before = mem::alloc_snapshot();
                let net = spec.plain_builder(manet_sim::ExecMode::Single).build();
                out.set(
                    "alloc.build_k",
                    mem::alloc_since(&before).count as f64 / 1e3,
                );
                rec.exit();
                run_network(net, &spec, opts, &mut rec, &mut out);
            }
            Stack::Secure => {
                rec.enter("scenario.build");
                let before = mem::alloc_snapshot();
                let net = spec.secure_builder().build();
                out.set(
                    "alloc.build_k",
                    mem::alloc_since(&before).count as f64 / 1e3,
                );
                rec.exit();
                // One key per host plus the DNS server's.
                out.set("keygens", (spec.hosts + 1) as f64);
                debug_assert_eq!(spec.hosts + 1, crate::inputs::SECURE_IDENTITIES);
                run_network(net, &spec, opts, &mut rec, &mut out);
            }
        }
    }
    if let Some((bytes, count)) = mem::alloc_totals() {
        out.set("alloc_bytes", bytes as f64);
        out.set("alloc_count", count as f64);
    }
    out.set("peak_rss_bytes", mem::peak_rss_bytes().unwrap_or(0) as f64);
    rec.exit();
    out.spans = rec.into_spans();
    Ok(out)
}

/// Set-up (bootstrap and/or formation beat), traffic and report of a
/// built network, whichever stack it runs.
fn run_network<P: NodeApi>(
    mut net: Network<P>,
    spec: &NetSpec,
    opts: RepOptions,
    rec: &mut Recorder,
    out: &mut RepResult,
) {
    let ticks = Arc::new(AtomicU64::new(0));
    if opts.ticks {
        // Replaces the builder's hook, so it must keep that hook's one
        // job: draining the batch verifier between collect and dispatch.
        let (counter, batch, backend) = (
            Arc::clone(&ticks),
            net.batch.clone(),
            net.crypto_backend.clone(),
        );
        net.engine.set_tick_hook(move || {
            // Relaxed: a statistic read after the run; publishes nothing.
            counter.fetch_add(1, Ordering::Relaxed);
            if let (Some(batch), Some(backend)) = (&batch, &backend) {
                batch.drain(backend.as_ref());
            }
        });
    }

    if spec.stack == Stack::Secure {
        rec.enter("scenario.bootstrap");
        net.bootstrap();
        rec.exit();
    }
    let formation = SimTime(spec.formation_ms * 1000);
    if formation > net.engine.now() {
        rec.enter("scenario.formation");
        net.engine.run_until(formation);
        rec.exit();
    }
    // The first application packet can be sent from here on.
    out.set("setup_s", rec.now());

    rec.enter("scenario.traffic");
    let before = mem::alloc_snapshot();
    let events_before = net.engine.events_processed();
    let traffic: RunReport = net.run(&Workload::flows(
        spec.flows.clone(),
        spec.packets,
        SimDuration::from_millis(spec.interval_ms),
    ));
    let traffic_allocs = mem::alloc_since(&before).count;
    rec.exit();

    rec.enter("scenario.report");
    let report = net.report(0.0);
    let json = report.to_json();
    out.fingerprint = hex_digest(format!("{:?}", report.fingerprint()).as_bytes());
    rec.exit();
    std::hint::black_box(json);

    let traffic_events = traffic.events - events_before;
    out.set("traffic_s", traffic.wall_s);
    out.set("events_per_s", traffic.events_per_sec);
    out.set("alloc.traffic_k", traffic_allocs as f64 / 1e3);
    out.set(
        "alloc.per_event",
        traffic_allocs as f64 / traffic_events.max(1) as f64,
    );
    out.set("hosts", spec.hosts as f64);
    let hosts_ready = (0..spec.hosts).filter(|&i| net.host(i).ready()).count();
    out.set("hosts_ready", hosts_ready as f64);
    out.set("delivery_ratio", report.delivery_ratio.unwrap_or(0.0));

    let counters = net.engine.metrics();
    out.set("sim.events", report.events as f64);
    out.set("sim.rx_frames", report.rx_frames as f64);
    out.set("sim.tx_bytes", report.tx_bytes as f64);
    out.set("sim.ticks", ticks.load(Ordering::Relaxed) as f64); // Relaxed: see above
    out.set("sim.busy_s", net.engine.busy_secs());
    out.set("tx_frames", counters.counter("phy.tx_frames") as f64);
    out.set("tx_bytes", counters.counter("phy.tx_bytes") as f64);
    out.set("rx_bytes", counters.counter("phy.rx_bytes") as f64);
    let t = report.totals;
    out.set("node.data_sent", t.data_sent as f64);
    out.set("node.data_acked", t.data_acked as f64);
    out.set("node.data_failed", t.data_failed as f64);
    out.set("node.rreq_sent", t.rreq_sent as f64);
    out.set("node.rrep_sent", t.rrep_sent as f64);
    out.set("node.crep_sent", t.crep_sent as f64);
    out.set("node.rerr_sent", t.rerr_sent as f64);
    out.set("node.rejected", t.rejected as f64);
    out.set("node.collisions", t.collisions_detected as f64);
    out.set("crypto.demand", report.crypto.demand() as f64);
    out.set("crypto.cached", report.crypto.cached as f64);
    out.set("crypto.verify_failed", report.crypto.failed as f64);
    if let Some(backend) = &net.crypto_backend {
        out.set("crypto.signs", backend.signs_executed() as f64);
        out.set("crypto.verifies", backend.verifies_executed() as f64);
    }
    if let Some(batch) = &net.batch {
        let s = batch.stats();
        out.set("crypto.batch_requests", s.requests as f64);
        out.set("crypto.batch_executed", s.executed as f64);
    }
    // Tear-down belongs to the rep a user waits for, so it happens
    // inside the root span.
    drop(net);
}

/// CPU seconds (user + system, all threads) this process has used:
/// fields 14 and 15 of `/proc/self/stat`, in the kernel's 100 Hz ticks.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, the next one being field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / 100.0
}

/// `campaign run` as the CLI does it: load the plan (with its
/// `base_file`), expand and validate every cell, fan the jobs out, and
/// write the canonical report.
fn run_campaign(dir: &Path, rec: &mut Recorder, out: &mut RepResult) -> Result<(), String> {
    rec.enter("campaign.load_plan");
    let plan = campaign::load_plan(&dir.join(PLAN_FILE)).map_err(|e| e.to_string())?;
    rec.exit();

    rec.enter("campaign.expand");
    let cells = plan.cells();
    for cell in &cells {
        let mut doc = plan.document_for(cell).map_err(|e| e.to_string())?;
        for &seed in &plan.seeds {
            json::set_path(&mut doc, "scenario.seed", json::Json::num(seed as f64))?;
            ScenarioSpec::from_json(&doc).map_err(|e| e.to_string())?;
        }
    }
    rec.exit();
    out.set("setup_s", rec.now());

    rec.enter("campaign.run");
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    let report = campaign::run_campaign(&plan).map_err(|e| e.to_string())?;
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    rec.exit();

    rec.enter("campaign.render");
    let text = report.canonical_json();
    let path = dir.join(format!("report-{}.json", std::process::id()));
    std::fs::write(&path, &text).map_err(|e| format!("write {} failed: {e}", path.display()))?;
    rec.exit();
    out.fingerprint = hex_digest(text.as_bytes());

    let jobs = cells.len() * plan.seeds.len();
    let total = |metric: &str| -> f64 {
        report
            .cells
            .iter()
            .flat_map(|c| &c.per_seed)
            .flat_map(|row| row.iter().filter(|(k, _)| *k == metric))
            .filter_map(|(_, v)| *v)
            .sum()
    };
    let failed_cells = report.cells.iter().filter(|c| !c.passed()).count();
    out.set("traffic_s", run_s);
    out.set("events_per_s", total("events") / run_s);
    out.set("cpu_s", cpu_s);
    out.set("campaign.jobs", jobs as f64);
    out.set("jobs_failed", (failed_cells * plan.seeds.len()) as f64);
    out.set("campaign.report_bytes", text.len() as f64);
    out.set("delivery_ratio", total("delivery_ratio") / jobs as f64);
    out.set("sim.events", total("events"));
    out.set("sim.rx_frames", total("rx_frames"));
    out.set("sim.tx_bytes", total("tx_bytes"));
    out.set("node.data_sent", total("totals.data_sent"));
    out.set("node.data_acked", total("totals.data_acked"));
    out.set("node.data_failed", total("totals.data_failed"));
    out.set("node.rreq_sent", total("totals.rreq_sent"));
    out.set("node.rrep_sent", total("totals.rrep_sent"));
    out.set("node.crep_sent", total("totals.crep_sent"));
    out.set("node.rerr_sent", total("totals.rerr_sent"));
    out.set("node.rejected", total("totals.rejected"));
    out.set("node.collisions", total("totals.collisions_detected"));
    out.set(
        "crypto.demand",
        total("crypto.executed") + total("crypto.cached"),
    );
    out.set("crypto.cached", total("crypto.cached"));
    Ok(())
}

/// Body of both rep binaries: `<program> rep --inputs <dir> [--spans]
/// [--ticks]`, arguments after `rep` in `args`.
pub fn child_main(args: &[String], origin: Instant) -> std::process::ExitCode {
    let mut dir = None;
    let mut opts = RepOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--inputs" => dir = it.next().cloned(),
            "--spans" => opts.spans = true,
            "--ticks" => opts.ticks = true,
            other => {
                eprintln!("rep: unknown argument {other:?}");
                return std::process::ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: rep --inputs <dir> [--spans] [--ticks]");
        return std::process::ExitCode::from(2);
    };
    match run(Path::new(&dir), opts, origin) {
        Ok(result) => {
            print!("{}", result.render());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rep failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_output_round_trips_through_the_line_protocol() {
        let mut r = RepResult::default();
        r.set("setup_s", 0.1 + 0.2); // not exactly representable
        r.set("sim.events", 412_345.0);
        r.fingerprint = "00ff".to_string();
        r.spans.push(Span {
            name: "rep".to_string(),
            start: 0.0,
            end: 1.0 / 3.0,
            parent: None,
        });
        r.spans.push(Span {
            name: "scenario.build".to_string(),
            start: 0.001,
            end: 0.2,
            parent: Some(0),
        });
        assert_eq!(RepResult::parse(&r.render()), Ok(r));
    }

    #[test]
    fn garbage_from_a_child_is_an_error_not_a_zero() {
        assert!(RepResult::parse("v setup_s fast\nfp 00").is_err());
        assert!(RepResult::parse("hello\nfp 00").is_err());
        assert!(
            RepResult::parse("v setup_s 1.0\n").is_err(),
            "no fingerprint"
        );
    }

    #[test]
    fn process_cpu_time_is_readable_and_monotonic() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= a);
    }
}
