//! Smoke coverage for the exhibit harness: every ID in
//! [`manet_bench::EXHIBITS`] must render in quick mode. Without this,
//! `cargo test` never executes the harness and a broken exhibit only
//! surfaces when someone runs the `tables` binary by hand.

use manet_bench::{render, EXHIBITS};

/// The entries of the working directory (`crates/bench` under
/// `cargo test`), sorted.
fn cwd_entries() -> Vec<std::ffi::OsString> {
    let dir = std::fs::read_dir(".").expect("cwd is readable");
    let mut names: Vec<_> = dir.map(|e| e.unwrap().file_name()).collect();
    names.sort();
    names
}

#[test]
fn every_exhibit_renders_nonempty_in_quick_mode() {
    // Exhibits print tables and nothing else: a render that drops a
    // file into the source tree is a bug.
    let before = cwd_entries();
    for id in EXHIBITS {
        // S3 is a 100k-node run: minutes in release, unusable under a
        // debug build. Debug `cargo test` still covers its machinery
        // (streaming stats, the S3 overrides of the S1 document) via
        // the scale_exhibits unit tests; the full cell renders in the
        // release-mode CI smoke step and the perf gate.
        if *id == "s3" && cfg!(debug_assertions) {
            continue;
        }
        let out = render(id, true).unwrap_or_else(|| panic!("exhibit {id} unknown to render()"));
        assert!(
            out.trim().len() > 40,
            "exhibit {id} rendered suspiciously little output: {out:?}"
        );
        assert!(
            !out.contains("NaN"),
            "exhibit {id} rendered NaN cells:\n{out}"
        );
    }
    assert_eq!(cwd_entries(), before, "an exhibit wrote into the cwd");
}

#[test]
fn unknown_exhibit_id_is_none() {
    assert!(render("nope", true).is_none());
    assert!(render("", true).is_none());
}

#[test]
fn exhibit_ids_are_unique() {
    let mut ids: Vec<&str> = EXHIBITS.to_vec();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), EXHIBITS.len(), "duplicate exhibit id");
}
