//! manet-lint: the workspace's in-repo determinism & shard-safety
//! static analyzer.
//!
//! The simulator's north star is "byte-identical traces under every
//! executor". The golden-trace and differential suites prove that
//! *dynamically*, per run; this crate states the underlying source
//! invariants as rules and rejects violations at build time:
//!
//! | rule                 | invariant                                              |
//! |----------------------|--------------------------------------------------------|
//! | `default-hasher`     | no std `HashMap`/`HashSet` in core/crypto/sim          |
//! | `unordered-iter`     | no hash-order iteration feeding the event stream       |
//! | `wall-clock`         | `Instant::now`/`SystemTime` only in mem.rs / bench / campaign runner |
//! | `shared-state`       | `Mutex`/`RwLock`/`static mut`/`thread_local!` only in  |
//! |                      | sanctioned files (the `lint/allow.toml` entries)       |
//! | `atomic-ordering`    | every `Ordering::Relaxed`/`SeqCst` justified inline    |
//! | `undocumented-unsafe`| every `unsafe` carries a `// SAFETY:` comment          |
//! | `panic-budget`       | per-file `unwrap`/`expect`/`panic!` counts pinned      |
//!
//! Escape hatch: `// lint: allow(rule) — reason` inline (reason
//! mandatory), or a `[[allow]]` entry in `lint/allow.toml`. Both are
//! checked for staleness: an exception that suppresses nothing fails
//! the build.
//!
//! Two entry points keep the pass load-bearing: the `manet-lint` bin
//! (`cargo run -p manet-lint -- --deny`) for CI, and the workspace
//! test `tests/lint.rs`, which calls [`run`] so plain tier-1
//! `cargo test` enforces the same rules.

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use rules::{lint_sources, panic_counts, Finding, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect the workspace sources under `root`: every `crates/*/src`
/// tree, as `(workspace-relative path, contents)` pairs in sorted
/// order (the report must not depend on directory-walk order).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load `lint/allow.toml` under `root` (absent file = empty baseline;
/// a malformed file is a hard error, never a silent allow-all).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint").join("allow.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Lint the workspace at `root`: the single entry point shared by the
/// CLI and `tests/lint.rs`. Returns the surviving findings (empty =
/// clean).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let cfg = load_config(root)?;
    let files = workspace_sources(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    Ok(lint_sources(&files, &cfg))
}

/// Locate the workspace root from the environment: explicit argument,
/// else `CARGO_MANIFEST_DIR/../..` (this crate lives at
/// `crates/lint`), else the current directory.
pub fn default_root() -> PathBuf {
    if let Some(dir) = option_env!("CARGO_MANIFEST_DIR") {
        let p = Path::new(dir);
        if let Some(ws) = p.parent().and_then(Path::parent) {
            if ws.join("Cargo.toml").is_file() {
                return ws.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}
