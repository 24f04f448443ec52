//! The rule engine: seven launch rules over the token stream, with
//! per-crate scoping, `#[cfg(test)]` exclusion, the inline escape
//! hatch, and the `allow.toml` baseline.
//!
//! Scoping. Determinism rules (`default-hasher`, `unordered-iter`,
//! `wall-clock`, `shared-state`, `atomic-ordering`, `panic-budget`)
//! apply to protocol/engine code: `crates/{core,crypto,sim}/src`.
//! `undocumented-unsafe` applies to every scanned crate — an
//! unjustified `unsafe` is never fine. Code under `#[cfg(test)]` /
//! `#[test]` items is exempt from all rules: tests may use `HashMap`,
//! wall clocks, and `unwrap()` freely.
//!
//! Escape hatch. `// lint: allow(rule) — reason` suppresses findings
//! of `rule` on the directive's own line (trailing form) or on the
//! next code line (standalone form). The reason is mandatory: a
//! directive without one suppresses nothing and is itself a finding.
//! A directive that suppresses nothing is stale and is a finding —
//! same for `allow.toml` entries and over-generous panic budgets, so
//! the committed exception list can only shrink.

use crate::config::Config;
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;

/// Every rule the engine knows. `allow(...)` directives naming
/// anything else are rejected.
pub const RULES: &[&str] = &[
    "default-hasher",
    "unordered-iter",
    "wall-clock",
    "shared-state",
    "atomic-ordering",
    "undocumented-unsafe",
    "panic-budget",
];

/// Crates whose `src/` is protocol/engine code under the determinism
/// rules.
const CORE_CRATES: &[&str] = &["core", "crypto", "sim"];

/// Map-iteration methods whose visit order follows the hasher.
/// `retain` is deliberately absent: it mutates in arbitrary order but
/// yields nothing downstream.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "SeqCst", "Acquire", "Release", "AcqRel"];

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// One parsed `// lint: allow(rule) — reason` directive.
struct Directive {
    file: usize,
    rule: String,
    line: u32,
    /// Lines a finding may sit on to be suppressed: the directive's
    /// own line, and (standalone form) the next code line.
    targets: [u32; 2],
    reason_ok: bool,
    known_rule: bool,
    used: bool,
}

struct FileCtx<'a> {
    path: &'a str,
    toks: Vec<Tok<'a>>,
    /// Indices into `toks` of non-comment tokens, in order.
    code: Vec<usize>,
    /// Parallel to `toks`: true if the token sits inside a
    /// `#[cfg(test)]` / `#[test]` item.
    excluded: Vec<bool>,
}

/// Which crate a workspace-relative path belongs to
/// (`crates/sim/src/mem.rs` → `sim`).
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace")
}

fn in_core_scope(path: &str) -> bool {
    CORE_CRATES.contains(&crate_of(path))
}

/// Lint in-memory sources against a config. `files` holds
/// `(workspace-relative path, contents)` pairs. This is the whole
/// engine; [`crate::run`] is a thin filesystem loader around it.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .map(|(path, text)| {
            let toks = lex(text);
            let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
            let excluded = test_excluded(&toks, &code);
            FileCtx {
                path,
                toks,
                code,
                excluded,
            }
        })
        .collect();

    let mut directives = collect_directives(&ctxs);
    let mut findings: Vec<Finding> = Vec::new();

    // Directive syntax errors are findings in their own right and are
    // never suppressible.
    for d in &directives {
        let path = ctxs[d.file].path;
        if !d.known_rule {
            findings.push(Finding {
                rule: "lint-directive",
                path: path.to_string(),
                line: d.line,
                msg: format!("allow({}) names no known rule", d.rule),
            });
        } else if !d.reason_ok {
            findings.push(Finding {
                rule: "lint-directive",
                path: path.to_string(),
                line: d.line,
                msg: format!(
                    "allow({}) has no reason — write `// lint: allow({}) — why`",
                    d.rule, d.rule
                ),
            });
        }
    }

    // Hash-typed binding names, collected per crate: a field declared
    // in one file is iterated via `self.name` in another.
    let mut hashy: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for ctx in &ctxs {
        if in_core_scope(ctx.path) {
            collect_hashy_names(ctx, hashy.entry(crate_of(ctx.path)).or_default());
        }
    }
    for names in hashy.values_mut() {
        names.sort_unstable();
        names.dedup();
    }

    let mut raw: Vec<Finding> = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        if in_core_scope(ctx.path) {
            rule_default_hasher(ctx, &mut raw);
            rule_unordered_iter(ctx, &hashy[crate_of(ctx.path)], &mut raw);
            rule_wall_clock(ctx, &mut raw);
            rule_shared_state(ctx, &mut raw);
            rule_atomic_ordering(ctx, &mut raw);
            rule_panic_budget(ctx, fi, cfg, &mut directives, &mut raw);
        }
        rule_undocumented_unsafe(ctx, &mut raw);
    }

    // Suppression: inline directive first, then the allow.toml
    // baseline. Both record use so staleness is detectable.
    let mut cfg_used = vec![false; cfg.allows.len()];
    'raw: for f in raw {
        let fi = match ctxs.iter().position(|c| c.path == f.path) {
            Some(i) => i,
            None => {
                findings.push(f);
                continue;
            }
        };
        for d in directives.iter_mut() {
            if d.file == fi
                && d.known_rule
                && d.reason_ok
                && d.rule == f.rule
                && d.targets.contains(&f.line)
            {
                d.used = true;
                continue 'raw;
            }
        }
        for (i, a) in cfg.allows.iter().enumerate() {
            if a.rule == f.rule && a.path == f.path {
                cfg_used[i] = true;
                continue 'raw;
            }
        }
        findings.push(f);
    }

    // Staleness self-checks.
    for d in &directives {
        if d.known_rule && d.reason_ok && !d.used {
            findings.push(Finding {
                rule: "stale-allow",
                path: ctxs[d.file].path.to_string(),
                line: d.line,
                msg: format!("inline allow({}) suppresses nothing — remove it", d.rule),
            });
        }
    }
    for (i, a) in cfg.allows.iter().enumerate() {
        if !cfg_used[i] {
            findings.push(Finding {
                rule: "stale-allow",
                path: "lint/allow.toml".to_string(),
                line: 0,
                msg: format!(
                    "entry allow({}) for {} suppresses nothing — remove it",
                    a.rule, a.path
                ),
            });
        }
    }
    for (path, &budget) in &cfg.budgets {
        if !ctxs.iter().any(|c| c.path == path && in_core_scope(path)) {
            findings.push(Finding {
                rule: "stale-allow",
                path: "lint/allow.toml".to_string(),
                line: 0,
                msg: format!("panic budget of {budget} pinned for unknown file {path}"),
            });
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Actual panic-site counts per in-scope file, for `--budgets`.
pub fn panic_counts(files: &[(String, String)]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (path, text) in files {
        if !in_core_scope(path) {
            continue;
        }
        let toks = lex(text);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let excluded = test_excluded(&toks, &code);
        let n = panic_sites(&toks, &code, &excluded).len() as u64;
        if n > 0 {
            out.insert(path.clone(), n);
        }
    }
    out
}

// ---------------------------------------------------------------------
// #[cfg(test)] exclusion
// ---------------------------------------------------------------------

/// Mark tokens inside `#[cfg(test)]` / `#[test]`-attributed items, or
/// the whole rest of a file under an inner `#![cfg(test)]` (an
/// out-of-line `tests.rs` module). Works on the code-token view, so
/// braces inside strings or comments cannot confuse the matcher (the
/// lexer already swallowed them).
fn test_excluded(toks: &[Tok<'_>], code: &[usize]) -> Vec<bool> {
    let mut excluded = vec![false; toks.len()];
    let mut p = 0;
    while p < code.len() {
        let punct = |at: usize, c: char| code.get(at).is_some_and(|&i| toks[i].is_punct(c));
        let inner = punct(p + 1, '!');
        let open = p + 1 + inner as usize;
        if !punct(p, '#') || !punct(open, '[') {
            p += 1;
            continue;
        }
        // Scan the attribute body for the ident `test`.
        let mut q = open + 1;
        let mut depth = 1usize;
        let mut has_test = false;
        while q < code.len() && depth > 0 {
            let a = &toks[code[q]];
            if a.is_punct('[') {
                depth += 1;
            } else if a.is_punct(']') {
                depth -= 1;
            } else if a.is_ident("test") {
                has_test = true;
            }
            q += 1;
        }
        if !has_test {
            p = q;
            continue;
        }
        let attr_start = code[p];
        if inner {
            excluded[attr_start..].fill(true);
            break;
        }
        // Find the item body: `{…}` brace-matched, or a brace-less
        // item ending in `;`. Further attributes in between are fine.
        let mut r = q;
        let mut end_tok = None;
        while r < code.len() {
            let a = &toks[code[r]];
            if a.is_punct('{') {
                let mut bd = 1usize;
                let mut s = r + 1;
                while s < code.len() && bd > 0 {
                    if toks[code[s]].is_punct('{') {
                        bd += 1;
                    } else if toks[code[s]].is_punct('}') {
                        bd -= 1;
                    }
                    s += 1;
                }
                end_tok = Some(code[s.saturating_sub(1)]);
                r = s;
                break;
            }
            if a.is_punct(';') {
                end_tok = Some(code[r]);
                r += 1;
                break;
            }
            r += 1;
        }
        if let Some(end) = end_tok {
            for slot in excluded.iter_mut().take(end + 1).skip(attr_start) {
                *slot = true;
            }
        }
        p = r.max(p + 1);
    }
    excluded
}

// ---------------------------------------------------------------------
// Escape-hatch directives
// ---------------------------------------------------------------------

fn collect_directives(ctxs: &[FileCtx<'_>]) -> Vec<Directive> {
    let mut out = Vec::new();
    for (fi, ctx) in ctxs.iter().enumerate() {
        for (ti, t) in ctx.toks.iter().enumerate() {
            // Directives are plain `//` comments only: doc comments
            // (`///`, `//!`) merely *describe* the syntax.
            if t.kind != TokKind::LineComment
                || t.text.starts_with("///")
                || t.text.starts_with("//!")
            {
                continue;
            }
            let Some(at) = t.text.find("lint:") else {
                continue;
            };
            let rest = t.text[at + "lint:".len()..].trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..]
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || matches!(c, '-' | '—' | '–' | ':' | '*' | '/')
                })
                .trim();
            // Trailing form covers its own line; standalone form covers
            // the next code line.
            let own = t.line;
            let shares_line = ctx.toks[..ti]
                .iter()
                .rev()
                .take_while(|p| p.line == own)
                .any(|p| !p.is_comment());
            let next_code_line = if shares_line {
                own
            } else {
                ctx.toks[ti + 1..]
                    .iter()
                    .find(|p| !p.is_comment())
                    .map_or(own, |p| p.line)
            };
            out.push(Directive {
                file: fi,
                known_rule: RULES.contains(&rule.as_str()),
                rule,
                line: own,
                targets: [own, next_code_line],
                reason_ok: !reason.is_empty(),
                used: false,
            });
        }
    }
    out
}

/// Is there a comment on `line` or the `back` lines above it? Used by
/// the justification rules; lint directives themselves don't count.
fn has_adjacent_comment(ctx: &FileCtx<'_>, line: u32, back: u32, needle: Option<&str>) -> bool {
    ctx.toks.iter().any(|t| {
        t.is_comment()
            && t.line + back >= line
            && t.line <= line
            && !t.text.contains("lint:")
            && needle.is_none_or(|n| t.text.contains(n))
    })
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn rule_default_hasher(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for &i in &ctx.code {
        if ctx.excluded[i] {
            continue;
        }
        let t = &ctx.toks[i];
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Finding {
                rule: "default-hasher",
                path: ctx.path.to_string(),
                line: t.line,
                msg: format!(
                    "std {} uses the per-process randomized hasher; use FxHashMap/FxHashSet or BTreeMap",
                    t.text
                ),
            });
        }
    }
}

/// Pass 1 of `unordered-iter`: names bound to hash-typed values.
/// Walks backwards from each hash-type token through type position
/// (idents, lifetimes, `<`, `&`) to the `name :` or `name =` that
/// binds it.
fn collect_hashy_names(ctx: &FileCtx<'_>, out: &mut Vec<String>) {
    let toks = &ctx.toks;
    let code = &ctx.code;
    for (p, &i) in code.iter().enumerate() {
        if ctx.excluded[i] || !HASH_TYPES.contains(&toks[i].text) || toks[i].kind != TokKind::Ident
        {
            continue;
        }
        let mut q = p;
        while q > 0 {
            q -= 1;
            let t = &toks[code[q]];
            if t.is_punct(':') {
                if q > 0 && toks[code[q - 1]].is_punct(':') {
                    q -= 1; // `::` path separator — keep walking
                    continue;
                }
                if q > 0 && toks[code[q - 1]].kind == TokKind::Ident {
                    out.push(toks[code[q - 1]].text.to_string());
                }
                break;
            }
            if t.is_punct('=') {
                if q > 0 && toks[code[q - 1]].kind == TokKind::Ident {
                    let name = toks[code[q - 1]].text;
                    if name != "Target" && name != "Item" {
                        out.push(name.to_string());
                    }
                }
                break;
            }
            let type_position = t.kind == TokKind::Ident
                || t.kind == TokKind::Lifetime
                || t.is_punct('<')
                || t.is_punct('&');
            if !type_position {
                break;
            }
        }
    }
}

/// Pass 2: flag order-dependent consumption of those names.
fn rule_unordered_iter(ctx: &FileCtx<'_>, hashy: &[String], out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let code = &ctx.code;
    let is_hashy = |t: &Tok<'_>| {
        t.kind == TokKind::Ident && hashy.binary_search_by(|n| n.as_str().cmp(t.text)).is_ok()
    };
    for (p, &i) in code.iter().enumerate() {
        if ctx.excluded[i] || !is_hashy(&toks[i]) {
            continue;
        }
        // `name.iter()` / `name.keys()` / …
        if p + 2 < code.len()
            && toks[code[p + 1]].is_punct('.')
            && ITER_METHODS.contains(&toks[code[p + 2]].text)
            && code.get(p + 3).is_some_and(|&j| toks[j].is_punct('('))
        {
            out.push(Finding {
                rule: "unordered-iter",
                path: ctx.path.to_string(),
                line: toks[code[p + 2]].line,
                msg: format!(
                    "{}.{}() visits hash order — sort first, switch to BTreeMap, or justify with an allow",
                    toks[i].text,
                    toks[code[p + 2]].text
                ),
            });
            continue;
        }
        // `for pat in name` / `for pat in &name` / `for pat in &mut name`
        // (but not `for x in name.len()..` etc. — only when the name is
        // the whole iterated expression).
        let followed_by_access = code
            .get(p + 1)
            .is_some_and(|&j| toks[j].is_punct('.') || toks[j].is_punct('['));
        if followed_by_access {
            continue;
        }
        let mut q = p;
        while q > 0 {
            let t = &toks[code[q - 1]];
            if t.is_punct('&') || t.is_ident("mut") {
                q -= 1;
                continue;
            }
            // Walk over a field path: `self.pending`, `node.acked`, …
            if q > 1 && t.is_punct('.') && toks[code[q - 2]].kind == TokKind::Ident {
                q -= 2;
                continue;
            }
            break;
        }
        if q > 0 && toks[code[q - 1]].is_ident("in") {
            out.push(Finding {
                rule: "unordered-iter",
                path: ctx.path.to_string(),
                line: toks[i].line,
                msg: format!(
                    "`for … in {}` visits hash order — sort first, switch to BTreeMap, or justify with an allow",
                    toks[i].text
                ),
            });
        }
    }
}

fn rule_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    // The sanctioned wall-clock homes: the allocator shim (its numbers
    // are masked from fingerprints), bench/perf-gate code, and the
    // campaign runner (its wall totals are display-only — the canonical
    // report masks them exactly like `RunReport::fingerprint`).
    if ctx.path == "crates/sim/src/mem.rs"
        || ctx.path.contains("bench")
        || ctx.path == "crates/core/src/campaign/runner.rs"
    {
        return;
    }
    let toks = &ctx.toks;
    let code = &ctx.code;
    for (p, &i) in code.iter().enumerate() {
        if ctx.excluded[i] {
            continue;
        }
        let t = &toks[i];
        let instant_now = t.is_ident("Instant")
            && p + 3 < code.len()
            && toks[code[p + 1]].is_punct(':')
            && toks[code[p + 2]].is_punct(':')
            && toks[code[p + 3]].is_ident("now");
        if instant_now || t.is_ident("SystemTime") {
            out.push(Finding {
                rule: "wall-clock",
                path: ctx.path.to_string(),
                line: t.line,
                msg: format!(
                    "{} reads the wall clock in engine code — sim time must come from the event clock",
                    if instant_now { "Instant::now" } else { "SystemTime" }
                ),
            });
        }
    }
}

fn rule_shared_state(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let code = &ctx.code;
    let mut push = |line: u32, what: &str| {
        out.push(Finding {
            rule: "shared-state",
            path: ctx.path.to_string(),
            line,
            msg: format!("{what} introduces shared mutable state outside the sanctioned files"),
        });
    };
    for (p, &i) in code.iter().enumerate() {
        if ctx.excluded[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("Mutex") || t.is_ident("RwLock") {
            push(t.line, t.text);
        } else if t.is_ident("static") && code.get(p + 1).is_some_and(|&j| toks[j].is_ident("mut"))
        {
            push(t.line, "static mut");
        } else if t.is_ident("thread_local")
            && code.get(p + 1).is_some_and(|&j| toks[j].is_punct('!'))
        {
            push(t.line, "thread_local!");
        }
    }
}

fn rule_atomic_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.toks;
    let code = &ctx.code;
    for (p, &i) in code.iter().enumerate() {
        if ctx.excluded[i] || !toks[i].is_ident("Ordering") {
            continue;
        }
        let variant = (p + 3 < code.len()
            && toks[code[p + 1]].is_punct(':')
            && toks[code[p + 2]].is_punct(':')
            && ATOMIC_ORDERINGS.contains(&toks[code[p + 3]].text))
        .then(|| toks[code[p + 3]].text);
        let Some(variant) = variant else {
            continue; // cmp::Ordering::Less etc. — not an atomic
        };
        let line = toks[i].line;
        if !has_adjacent_comment(ctx, line, 2, None) {
            out.push(Finding {
                rule: "atomic-ordering",
                path: ctx.path.to_string(),
                line,
                msg: format!(
                    "Ordering::{variant} needs a justification comment on this line or the two above"
                ),
            });
        }
    }
}

fn rule_undocumented_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for &i in &ctx.code {
        if ctx.excluded[i] || !ctx.toks[i].is_ident("unsafe") {
            continue;
        }
        let line = ctx.toks[i].line;
        if !has_adjacent_comment(ctx, line, 3, Some("SAFETY")) {
            out.push(Finding {
                rule: "undocumented-unsafe",
                path: ctx.path.to_string(),
                line,
                msg: "unsafe without a `// SAFETY:` comment on this line or the three above"
                    .to_string(),
            });
        }
    }
}

/// Panic sites (`unwrap(` / `expect(` / `panic!`) outside test code,
/// as `(code-position, line)` pairs.
fn panic_sites(toks: &[Tok<'_>], code: &[usize], excluded: &[bool]) -> Vec<(usize, u32)> {
    let mut sites = Vec::new();
    for (p, &i) in code.iter().enumerate() {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];
        let call = |name: &str| {
            t.is_ident(name) && code.get(p + 1).is_some_and(|&j| toks[j].is_punct('('))
        };
        let is_macro =
            t.is_ident("panic") && code.get(p + 1).is_some_and(|&j| toks[j].is_punct('!'));
        if call("unwrap") || call("expect") || is_macro {
            sites.push((p, t.line));
        }
    }
    sites
}

fn rule_panic_budget(
    ctx: &FileCtx<'_>,
    fi: usize,
    cfg: &Config,
    directives: &mut [Directive],
    out: &mut Vec<Finding>,
) {
    let sites = panic_sites(&ctx.toks, &ctx.code, &ctx.excluded);
    // An inline allow(panic-budget) exempts its site from the count.
    let mut counted: Vec<u32> = Vec::new();
    'site: for &(_, line) in &sites {
        for d in directives.iter_mut() {
            if d.file == fi
                && d.rule == "panic-budget"
                && d.known_rule
                && d.reason_ok
                && d.targets.contains(&line)
            {
                d.used = true;
                continue 'site;
            }
        }
        counted.push(line);
    }
    let budget = cfg.budgets.get(ctx.path).copied().unwrap_or(0);
    let n = counted.len() as u64;
    if n > budget {
        let first_excess = counted[budget as usize];
        out.push(Finding {
            rule: "panic-budget",
            path: ctx.path.to_string(),
            line: first_excess,
            msg: format!(
                "{n} panic sites (unwrap/expect/panic!) but the pinned budget is {budget} — handle the error or re-pin in lint/allow.toml"
            ),
        });
    } else if n < budget {
        out.push(Finding {
            rule: "stale-allow",
            path: ctx.path.to_string(),
            line: 0,
            msg: format!(
                "panic budget {budget} exceeds the real count {n} — tighten the pin in lint/allow.toml"
            ),
        });
    }
}
