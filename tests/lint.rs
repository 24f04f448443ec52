//! Tier-1 enforcement of the static analyzer: plain `cargo test` runs
//! the same engine CI runs via `cargo run -p manet-lint -- --deny`, so
//! a determinism-rule violation (std hasher in protocol code, hash-order
//! iteration, wall clock in the engine, undocumented unsafe, …) fails
//! the build even for contributors who never look at the CI config.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = manet_lint::run(root).expect("lint baseline and sources load");
    assert!(
        findings.is_empty(),
        "manet-lint found {} problem(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// One DSR data plane: each data-plane and discovery-bookkeeping
/// function is defined exactly once under `crates/core/src` (in
/// `dsr.rs`), so the plain and secure stacks cannot drift apart again.
#[test]
fn data_plane_functions_are_defined_once() {
    const ONCE: [&str; 9] = [
        "fn try_send_data",
        "fn send_routed",
        "fn forward",
        "fn flush_buffer",
        "fn on_ack_timer",
        "fn on_rreq_timer",
        "fn ensure_route",
        "fn handle_ack",
        "fn handle_data",
    ];
    let files = sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src"));
    for name in ONCE {
        // `fn forward` must not match `fn forward_x`: require the
        // parameter list (or a generic list) right after the name.
        let defs: usize = files
            .iter()
            .map(|(_, src)| {
                src.match_indices(name)
                    .filter(|(at, _)| src[at + name.len()..].starts_with(['(', '<']))
                    .count()
            })
            .sum();
        assert_eq!(
            defs, 1,
            "`{name}` is defined {defs} times under crates/core/src"
        );
    }
}

/// Every `.rs` file under `dir`, with its path.
fn sources(dir: &Path) -> Vec<(std::path::PathBuf, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("source file");
            out.push((path, src));
        }
    }
    out
}

/// Counters are read through their types — `stats()[Counter::X]`,
/// `Network::count`, `metrics()[LinkCounter::X]` — so a misspelt name
/// is a compile error, not a silent 0. The frozen benchmark harness
/// under `bench/harness/` is the one reader left that goes by name.
#[test]
fn no_counter_is_read_by_name_in_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let needle = concat!(".counter", "(\"");
    let readers: Vec<_> = ["crates", "tests", "examples"]
        .iter()
        .flat_map(|dir| sources(&root.join(dir)))
        .filter(|(_, src)| src.contains(needle))
        .map(|(path, _)| path)
        .collect();
    assert!(readers.is_empty(), "counters read by name in {readers:?}");
}

/// docs/OBSERVABILITY.md has one table row per counter, protocol
/// counters in `Counter::ALL` order, then the engine's in
/// `LinkCounter::ALL` order.
#[test]
fn observability_doc_lists_every_counter_in_order() {
    use manet_secure::Counter;
    use manet_sim::LinkCounter;
    let doc = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md"),
    )
    .expect("docs/OBSERVABILITY.md");
    let rows: Vec<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    let names: Vec<&str> = Counter::ALL
        .iter()
        .map(|c| c.name())
        .chain(LinkCounter::ALL.iter().map(|c| c.name()))
        .collect();
    assert_eq!(rows, names);
}
