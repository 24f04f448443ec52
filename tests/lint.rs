//! Tier-1 enforcement of the static analyzer: plain `cargo test` runs
//! the same engine CI runs via `cargo run -p manet-lint -- --deny`, so
//! a determinism-rule violation (std hasher in protocol code, hash-order
//! iteration, wall clock in the engine, undocumented unsafe, …) fails
//! the build even for contributors who never look at the CI config.

use std::hash::Hasher;
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

/// `manet-crypto` sits below `manet-sim` and carries a mirror of the
/// canonical Fx hasher. The two copies must stay byte-identical in
/// behavior; neither crate can see the other, so the equality is pinned
/// here at the workspace level.
#[test]
fn crypto_fxhash_mirror_matches_canonical() {
    let inputs: [&[u8]; 4] = [
        b"",
        b"fec0::13",
        b"hello world!!",
        b"0123456789abcdef0123456789abcdef~",
    ];
    for input in inputs {
        let mut canonical = manet_sim::fxhash::FxHasher::default();
        let mut mirror = manet_crypto::fxhash::FxHasher::default();
        canonical.write(input);
        mirror.write(input);
        assert_eq!(
            canonical.finish(),
            mirror.finish(),
            "fxhash copies diverge on {input:?}"
        );
    }
    let mut canonical = manet_sim::fxhash::FxHasher::default();
    let mut mirror = manet_crypto::fxhash::FxHasher::default();
    canonical.write_u64(0xfec0_0000_0000_000d);
    mirror.write_u64(0xfec0_0000_0000_000d);
    assert_eq!(canonical.finish(), mirror.finish());
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
    fn sources(dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(std::fs::read_to_string(&path).expect("source file"));
            }
        }
    }
    let mut files = Vec::new();
    sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src"),
        &mut files,
    );
    for name in ONCE {
        // `fn forward` must not match `fn forward_x`: require the
        // parameter list (or a generic list) right after the name.
        let defs: usize = files
            .iter()
            .map(|src| {
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
