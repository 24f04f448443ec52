//! Per-rule fixtures: every launch rule has (a) a known-bad snippet
//! that must fire and (b) an escape-hatch snippet that must suppress it
//! — but only when the allow carries a reason. Paths matter: rules are
//! scoped per crate, so fixtures place themselves in `crates/core/src`
//! (in scope) or `crates/wire/src` (out of scope) as needed.

use manet_lint::{lint_sources, Config, Finding};

fn lint_one(path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), src.to_string())], &Config::default())
}

fn lint_one_with(path: &str, src: &str, cfg: &str) -> Vec<Finding> {
    let cfg = Config::parse(cfg).expect("fixture config parses");
    lint_sources(&[(path.to_string(), src.to_string())], &cfg)
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// --- default-hasher --------------------------------------------------

#[test]
fn default_hasher_fires_in_core_scope() {
    let f = lint_one(
        "crates/core/src/fixture.rs",
        "use std::collections::HashMap;\n",
    );
    assert_eq!(rules_fired(&f), vec!["default-hasher"]);
    assert_eq!(f[0].line, 1);
}

#[test]
fn default_hasher_ignores_out_of_scope_crates_and_strings_and_tests() {
    // Out of scope: wire is codec code, not protocol/engine state.
    assert!(lint_one(
        "crates/wire/src/fixture.rs",
        "use std::collections::HashMap;\n"
    )
    .is_empty());
    // Inside a string or comment: the lexer must shield it.
    assert!(lint_one(
        "crates/core/src/fixture.rs",
        "// HashMap in prose\nconst S: &str = \"HashMap\";\n"
    )
    .is_empty());
    // Inside #[cfg(test)]: tests may use std maps freely.
    assert!(lint_one(
        "crates/core/src/fixture.rs",
        "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n"
    )
    .is_empty());
}

#[test]
fn default_hasher_allow_needs_a_reason() {
    // With a reason: suppressed, nothing else fires.
    let ok = lint_one(
        "crates/core/src/fixture.rs",
        "// lint: allow(default-hasher) — alias definition site\nuse std::collections::HashMap;\n",
    );
    assert!(ok.is_empty(), "allowed with reason, got {ok:?}");
    // Without a reason: the violation stays AND the directive is flagged.
    let bad = lint_one(
        "crates/core/src/fixture.rs",
        "// lint: allow(default-hasher)\nuse std::collections::HashMap;\n",
    );
    assert_eq!(rules_fired(&bad), vec!["default-hasher", "lint-directive"]);
}

#[test]
fn unknown_rule_in_allow_is_flagged() {
    let f = lint_one(
        "crates/core/src/fixture.rs",
        "// lint: allow(no-such-rule) — whatever\nfn f() {}\n",
    );
    assert_eq!(rules_fired(&f), vec!["lint-directive"]);
}

#[test]
fn stale_inline_allow_is_flagged() {
    let f = lint_one(
        "crates/core/src/fixture.rs",
        "// lint: allow(default-hasher) — left over after a refactor\nfn f() {}\n",
    );
    assert_eq!(rules_fired(&f), vec!["stale-allow"]);
}

// --- unordered-iter --------------------------------------------------

#[test]
fn unordered_iter_fires_on_field_and_for_loop() {
    let src = "\
use crate::fxhash::FxHashMap;
struct S { pending: FxHashMap<u64, u32> }
impl S {
    fn f(&self) -> u32 { self.pending.values().sum() }
    fn g(&self) { for (_k, _v) in &self.pending {} }
}
";
    let f = lint_one("crates/core/src/fixture.rs", src);
    assert_eq!(rules_fired(&f), vec!["unordered-iter"]);
    assert_eq!(f.len(), 2, "both the .values() and the for-loop: {f:?}");
}

#[test]
fn unordered_iter_lookups_are_fine_and_allow_suppresses() {
    let ok = "\
use crate::fxhash::FxHashMap;
struct S { pending: FxHashMap<u64, u32> }
impl S {
    fn f(&self, k: u64) -> Option<u32> { self.pending.get(&k).copied() }
}
";
    assert!(lint_one("crates/core/src/fixture.rs", ok).is_empty());
    let allowed = "\
use crate::fxhash::FxHashMap;
struct S { pending: FxHashMap<u64, u32> }
impl S {
    fn f(&self) -> u32 {
        // lint: allow(unordered-iter) — sum is order-insensitive
        self.pending.values().sum()
    }
}
";
    assert!(lint_one("crates/core/src/fixture.rs", allowed).is_empty());
}

#[test]
fn unordered_iter_sees_fields_declared_in_sibling_files_of_same_crate() {
    let decl = (
        "crates/core/src/state.rs".to_string(),
        "use crate::fxhash::FxHashMap;\npub struct S { pub pending: FxHashMap<u64, u32> }\n"
            .to_string(),
    );
    let usage = (
        "crates/core/src/logic.rs".to_string(),
        "fn f(s: &crate::state::S) -> u32 { s.pending.keys().count() as u32 }\n".to_string(),
    );
    let f = lint_sources(&[decl, usage], &Config::default());
    assert_eq!(rules_fired(&f), vec!["unordered-iter"]);
    assert_eq!(f[0].path, "crates/core/src/logic.rs");
}

// --- wall-clock ------------------------------------------------------

#[test]
fn wall_clock_fires_except_in_sanctioned_files() {
    let src = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    let f = lint_one("crates/sim/src/engine_fixture.rs", src);
    assert_eq!(rules_fired(&f), vec!["wall-clock"]);
    // The allocator shim, bench code, and the campaign runner (wall
    // totals are display-only, masked out of the canonical report) are
    // the sanctioned homes.
    assert!(lint_one("crates/sim/src/mem.rs", src).is_empty());
    assert!(lint_one("crates/bench/src/tables.rs", src).is_empty());
    assert!(lint_one("crates/core/src/campaign/runner.rs", src).is_empty());
    // SystemTime is never fine in engine code.
    let f = lint_one(
        "crates/core/src/fixture.rs",
        "fn t() { let _ = std::time::SystemTime::now(); }\n",
    );
    assert_eq!(rules_fired(&f), vec!["wall-clock"]);
}

// --- shared-state ----------------------------------------------------

#[test]
fn shared_state_fires_and_file_allowlist_suppresses() {
    let src = "use std::sync::Mutex;\nstatic S: Mutex<u32> = Mutex::new(0);\n";
    let f = lint_one("crates/core/src/fixture.rs", src);
    assert_eq!(rules_fired(&f), vec!["shared-state"]);
    let cfg = "[[allow]]\nrule = \"shared-state\"\npath = \"crates/core/src/fixture.rs\"\nreason = \"fixture: sanctioned\"\n";
    assert!(lint_one_with("crates/core/src/fixture.rs", src, cfg).is_empty());
}

#[test]
fn shared_state_catches_static_mut_and_thread_local() {
    let f = lint_one(
        "crates/sim/src/fixture.rs",
        "static mut COUNTER: u32 = 0;\nthread_local! { static TL: u8 = 0; }\n",
    );
    assert_eq!(rules_fired(&f), vec!["shared-state"]);
    assert_eq!(f.len(), 2);
    // A plain (immutable, non-cell) static is not shared *mutable* state.
    assert!(lint_one("crates/sim/src/fixture.rs", "static N: u32 = 7;\n").is_empty());
}

#[test]
fn stale_config_allow_is_flagged() {
    let cfg = "[[allow]]\nrule = \"shared-state\"\npath = \"crates/core/src/fixture.rs\"\nreason = \"nothing here uses locks anymore\"\n";
    let f = lint_one_with("crates/core/src/fixture.rs", "fn f() {}\n", cfg);
    assert_eq!(rules_fired(&f), vec!["stale-allow"]);
}

// --- atomic-ordering -------------------------------------------------

#[test]
fn atomic_ordering_needs_adjacent_justification() {
    let bare = "use std::sync::atomic::{AtomicU64, Ordering};\nstatic C: AtomicU64 = AtomicU64::new(0);\nfn f() { C.fetch_add(1, Ordering::Relaxed); }\n";
    let f = lint_one("crates/sim/src/fixture.rs", bare);
    assert_eq!(rules_fired(&f), vec!["atomic-ordering"]);
    let justified = "use std::sync::atomic::{AtomicU64, Ordering};\nstatic C: AtomicU64 = AtomicU64::new(0);\nfn f() { C.fetch_add(1, Ordering::Relaxed); } // Relaxed: test counter\n";
    assert!(lint_one("crates/sim/src/fixture.rs", justified).is_empty());
}

#[test]
fn cmp_ordering_is_not_an_atomic() {
    let src = "use std::cmp::Ordering;\nfn f(a: u32, b: u32) -> Ordering { a.cmp(&b).then(Ordering::Less) }\n";
    assert!(lint_one("crates/core/src/fixture.rs", src).is_empty());
}

// --- undocumented-unsafe ---------------------------------------------

#[test]
fn undocumented_unsafe_needs_safety_comment() {
    let bare = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let f = lint_one("crates/sim/src/fixture.rs", bare);
    assert_eq!(rules_fired(&f), vec!["undocumented-unsafe"]);
    let documented = "// SAFETY: caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", documented).is_empty());
}

#[test]
fn undocumented_unsafe_applies_even_outside_core_crates() {
    let f = lint_one(
        "crates/wire/src/fixture.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert_eq!(rules_fired(&f), vec!["undocumented-unsafe"]);
}

// --- panic-budget ----------------------------------------------------

#[test]
fn panic_budget_defaults_to_zero_and_pins_exactly() {
    let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }\nfn g() { panic!(\"no\"); }\n";
    // No budget: both sites are over.
    let f = lint_one("crates/core/src/fixture.rs", src);
    assert_eq!(rules_fired(&f), vec!["panic-budget"]);
    // Exact budget: clean.
    let exact = "[panic-budget]\n\"crates/core/src/fixture.rs\" = 2\n";
    assert!(lint_one_with("crates/core/src/fixture.rs", src, exact).is_empty());
    // Over-generous budget: stale pin.
    let loose = "[panic-budget]\n\"crates/core/src/fixture.rs\" = 3\n";
    let f = lint_one_with("crates/core/src/fixture.rs", src, loose);
    assert_eq!(rules_fired(&f), vec!["stale-allow"]);
}

#[test]
fn panic_budget_ignores_test_code_and_counts_expect() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(lint_one("crates/core/src/fixture.rs", src).is_empty());
    // An out-of-line test module marks itself with the inner form.
    let src = "//! unit tests\n#![cfg(test)]\n\nfn t() { Some(1).unwrap(); }\n";
    assert!(lint_one("crates/core/src/fixture.rs", src).is_empty());
    let f = lint_one(
        "crates/core/src/fixture.rs",
        "fn f(v: Option<u8>) -> u8 { v.expect(\"present\") }\n",
    );
    assert_eq!(rules_fired(&f), vec!["panic-budget"]);
}

#[test]
fn panic_budget_inline_allow_exempts_the_site() {
    let src = "\
fn f(v: Option<u8>) -> u8 {
    // lint: allow(panic-budget) — invariant: caller checked is_some
    v.unwrap()
}
";
    assert!(lint_one("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn budget_for_unknown_file_is_stale() {
    let cfg = "[panic-budget]\n\"crates/core/src/gone.rs\" = 4\n";
    let f = lint_one_with("crates/core/src/fixture.rs", "fn f() {}\n", cfg);
    assert_eq!(rules_fired(&f), vec!["stale-allow"]);
}
