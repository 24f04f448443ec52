//! Integration gates for the declarative campaign layer: a JSON
//! scenario is the *same universe* as the builder chain it describes
//! (round-trip ⇒ identical fingerprint), malformed documents fail with
//! line/key context, and every committed campaign under `campaigns/`
//! parses, expands, and — for the cheap ones — runs to byte-identical
//! canonical reports (`secure_attack`'s is pinned under `tests/golden/`).

use manet_secure::campaign::{load_plan, run_campaign, ScenarioSpec, SweepMode};
use manet_secure::scenario::{scale_family, ScenarioBuilder, Workload};
use manet_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::path::Path;

// ---------------------------------------------------------------------
// Round trips: builder → JSON → parse → run ⇒ the builder's report
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A plain builder captured into a spec, rendered to canonical
    /// JSON, parsed back, and run produces the exact fingerprint the
    /// builder produces directly — and the re-parse is textually a
    /// fixed point (canonical render of the re-parsed spec matches).
    #[test]
    fn plain_round_trip_preserves_the_fingerprint(
        hosts in 3usize..8,
        seed in 0u64..1000,
        packets in 1usize..4,
        interval_ms in 200u64..500,
    ) {
        let b = ScenarioBuilder::new().hosts(hosts).seed(seed).plain();
        let w = Workload::flows(
            vec![(0, hosts - 1)],
            packets,
            SimDuration::from_millis(interval_ms),
        );

        let direct = b.clone().build().run(&w);

        let spec = ScenarioSpec::from_plain_builder(&b).with_workload(&w, 0.0, false);
        let text = spec.to_canonical_string();
        let reparsed = ScenarioSpec::parse(&text).expect("canonical render must re-parse");
        // Canonical render is a parse fixed point.
        prop_assert_eq!(reparsed.to_canonical_string(), text);
        let via_json = reparsed.run().expect("spec run");
        prop_assert_eq!(via_json.fingerprint(), direct.fingerprint());
    }
}

/// The secure stack round-trips too: captured spec → JSON → parse →
/// run matches bootstrap-then-run on the builder itself.
#[test]
fn secure_round_trip_preserves_the_fingerprint() {
    let b = ScenarioBuilder::new().hosts(4).seed(4242).secure();
    let w = Workload::flows(vec![(0, 3)], 3, SimDuration::from_millis(300));

    let mut direct_net = b.clone().build();
    direct_net.bootstrap();
    let direct = direct_net.run(&w);

    let spec = ScenarioSpec::from_secure_builder(&b).with_workload(&w, 0.0, true);
    let reparsed =
        ScenarioSpec::parse(&spec.to_canonical_string()).expect("canonical render must re-parse");
    let via_json = reparsed.run().expect("spec run");
    assert_eq!(via_json.fingerprint(), direct.fingerprint());
    assert!(via_json.crypto.executed + via_json.crypto.cached > 0);
}

/// The S1 exhibit shape, declared purely as JSON at reduced scale,
/// reproduces the programmatic `scale_family` run bit for bit —
/// formation beat, engine-RNG flow picking, churn and all.
#[test]
fn s1_shape_from_config_matches_the_programmatic_run() {
    let doc = r#"{
      "scenario": {
        "hosts": 150,
        "seed": 5,
        "placement": {"kind": "uniform"},
        "field": {"density": 15.0},
        "mobility": {
          "kind": "random_waypoint",
          "min_speed": 1.0,
          "max_speed": 4.0,
          "pause_s": 2.0
        },
        "churn": {"kills": 3, "window_s": [4.0, 10.0]}
      },
      "workload": {
        "flows": {"scale": 5},
        "packets": 3,
        "interval_ms": 400.0,
        "formation_s": 1.0
      }
    }"#;
    let from_config = ScenarioSpec::parse(doc).unwrap().run().unwrap();

    let mut net = scale_family(150, 5)
        .churn(3, (SimTime(4_000_000), SimTime(10_000_000)))
        .plain()
        .build();
    net.engine.run_until(SimTime(1_000_000));
    let flows = net.scale_flows(5);
    let programmatic = net.run(&Workload::flows(flows, 3, SimDuration::from_millis(400)));

    assert_eq!(from_config.fingerprint(), programmatic.fingerprint());
    assert!(from_config.events > 1000, "run was non-trivial");
}

// ---------------------------------------------------------------------
// Malformed documents: precise errors with line/key context
// ---------------------------------------------------------------------

#[test]
fn unknown_keys_are_rejected_with_line_and_suggestions() {
    let doc = "{\n  \"scenario\": {\n    \"hots\": 5\n  }\n}";
    let err = ScenarioSpec::parse(doc).unwrap_err();
    assert_eq!(err.path, "scenario");
    assert_eq!(err.line, 3, "error must point at the offending key");
    assert!(
        err.msg
            .starts_with("unknown key \"hots\"; expected one of: "),
        "got: {}",
        err.msg
    );
    assert!(
        err.msg.contains("hosts"),
        "expected-keys list names the fix"
    );
}

#[test]
fn out_of_range_values_are_diagnosed_at_their_path() {
    let doc = "{\n  \"scenario\": {\n    \"radio\": {\"loss\": 1.5}\n  }\n}";
    let err = ScenarioSpec::parse(doc).unwrap_err();
    assert_eq!(
        err.to_string(),
        "scenario.radio.loss (line 3): loss probability must be in [0, 1), got 1.5"
    );
}

#[test]
fn syntax_errors_carry_the_source_line() {
    let err = ScenarioSpec::parse("{\n  \"scenario\": {,}\n}").unwrap_err();
    assert_eq!(err.path, "$");
    assert_eq!(err.line, 2);
    assert!(err.msg.starts_with("JSON syntax: "), "got: {}", err.msg);
}

#[test]
fn duplicate_keys_are_a_parse_error_not_a_silent_override() {
    let err = ScenarioSpec::parse("{\"scenario\": {\"hosts\": 3, \"hosts\": 4}}").unwrap_err();
    assert!(err.msg.contains("duplicate key"), "got: {}", err.msg);
}

#[test]
fn bad_enum_values_list_the_alternatives() {
    let doc = r#"{"scenario": {"placement": {"kind": "ring"}}}"#;
    let err = ScenarioSpec::parse(doc).unwrap_err();
    assert_eq!(err.path, "scenario.placement.kind");
    assert_eq!(
        err.msg,
        "unknown placement \"ring\"; expected one of: bypass, chain, custom, grid, uniform"
    );
}

// ---------------------------------------------------------------------
// Committed campaigns: every file parses, expands, and the cheap ones
// run to byte-identical canonical reports
// ---------------------------------------------------------------------

/// Every plan under `campaigns/`, sorted. `s2_secure_storm`,
/// `s2_secure_scale` and `v1_flood` are the one-cell plans the S2 and
/// V1 exhibits run (`crates/bench`, which embeds them).
const COMMITTED_PLANS: [&str; 6] = [
    "s1_density",
    "s2_secure_scale",
    "s2_secure_storm",
    "secure_attack",
    "smoke",
    "v1_flood",
];

#[test]
fn every_committed_campaign_parses_and_expands() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("campaigns");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("campaigns/ directory") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "json") != Some(true) {
            continue;
        }
        // s1_base.json is a defaults fragment pulled in via base_file,
        // not a standalone plan.
        if path.file_name().map(|n| n == "s1_base.json") == Some(true) {
            continue;
        }
        let plan =
            load_plan(&path).unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
        assert!(
            !plan.cells().is_empty(),
            "{} expands to no cells",
            path.display()
        );
        for cell in plan.cells() {
            let doc = plan.document_for(&cell).expect("cell document");
            ScenarioSpec::from_json(&doc)
                .unwrap_or_else(|e| panic!("{} cell invalid: {e}", path.display()));
        }
        names.push(path.file_stem().unwrap().to_string_lossy().into_owned());
    }
    names.sort();
    assert_eq!(names, COMMITTED_PLANS);
}

/// The canonical rendering of a resolved scenario is a file format:
/// `{}` and cell 0 of every committed plan (what `campaign print`
/// echoes) are pinned byte for byte under `tests/golden/`, `"exec":
/// null` included, so a change to the spec layer cannot silently
/// rename, drop, or re-default a key. Regenerate (only for an
/// *intentional* format change) with
/// `UPDATE_GOLDEN=1 cargo test --test campaign canonical_specs`.
#[test]
fn canonical_specs_match_their_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut rendered = vec![(
        "spec_default.json".to_string(),
        ScenarioSpec::parse("{}").unwrap().to_canonical_string(),
    )];
    for name in COMMITTED_PLANS {
        let plan = load_plan(&root.join(format!("campaigns/{name}.json"))).unwrap();
        let doc = plan.document_for(&plan.cells()[0]).unwrap();
        rendered.push((
            format!("spec_{name}.json"),
            ScenarioSpec::from_json(&doc).unwrap().to_canonical_string(),
        ));
    }
    for (file, text) in rendered {
        assert_golden(&file, &text);
    }
}

/// `text` is `tests/golden/<file>` byte for byte; `UPDATE_GOLDEN=1`
/// rewrites the fixture instead.
fn assert_golden(file: &str, text: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(text, golden, "{file} drifted from its golden");
}

#[test]
fn smoke_campaign_is_byte_identical_across_runs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("campaigns/smoke.json");
    let plan = load_plan(&path).unwrap();
    assert!(matches!(plan.mode, SweepMode::Grid));
    assert_eq!(plan.cells().len(), 2, "grid over 2 densities");
    assert_eq!(plan.seeds, vec![1, 2]);

    let a = run_campaign(&plan).unwrap();
    let b = run_campaign(&plan).unwrap();
    assert_eq!(
        a.canonical_json(),
        b.canonical_json(),
        "canonical campaign reports must be byte-identical"
    );
    assert!(
        a.passed(),
        "committed smoke tolerances hold:\n{}",
        a.summary_table()
    );
}

#[test]
fn secure_attack_campaign_is_byte_identical_across_runs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("campaigns/secure_attack.json");
    let plan = load_plan(&path).unwrap();
    assert!(matches!(plan.mode, SweepMode::Lhs { samples: 4, .. }));
    assert_eq!(plan.cells().len(), 4, "LHS draws `samples` cells");

    let a = run_campaign(&plan).unwrap();
    let b = run_campaign(&plan).unwrap();
    assert_eq!(a.canonical_json(), b.canonical_json());
    // Re-recorded once since it was first pinned, when every host got
    // a key stream of its own (new keys, so new addresses): whether a
    // job found its key pairs in the campaign's pool may not show here.
    // `UPDATE_GOLDEN=1 cargo test --test campaign secure_attack` rewrites
    // it, for a change that *means* to move a simulated number.
    assert_golden("report_secure_attack.json", &a.canonical_json());
    assert!(
        a.passed(),
        "committed attack tolerances hold:\n{}",
        a.summary_table()
    );
    // The sweep actually exercised the secure stack under attack.
    for cell in &a.cells {
        assert!(cell.mean_of("crypto.executed").unwrap_or(0.0) >= 1.0);
    }
}
