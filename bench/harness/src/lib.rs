//! The repo benchmark. `README.md` beside this crate defines every
//! workload and metric; `BENCHMARK.json` at the repo root is the
//! contract the driver reads.

pub mod host;
pub mod inputs;
pub mod jsonout;
pub mod metrics;
pub mod probes;
pub mod rep;
pub mod run;
pub mod spans;
pub mod stats;

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// The `[profile.release]` table of a manifest, comments and blank
    /// lines dropped.
    fn release_profile(manifest: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap();
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap().trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    /// The harness is outside the root workspace, so it does not inherit
    /// the root's release profile; it copies it. The numbers must
    /// describe what users build, so a drift between the two fails here.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ours = release_profile(&here.join("Cargo.toml"));
        let root = release_profile(&here.join("../../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(ours, root);
    }
}
