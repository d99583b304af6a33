//! Per-file analysis driver: token stream → findings.
//!
//! The engine owns everything that is rule-independent: classifying a file
//! from its path, locating `#[cfg(test)]`/`#[test]` regions by brace
//! matching, running every rule, and applying inline suppression
//! directives. Rules (in [`crate::rules`]) only look at tokens.

use crate::dataflow::{EffectSet, FlowInfo, ParsedForFlow};
use crate::lexer::{lex, LexedFile, Token};
use crate::lockgraph::LockGraph;
use crate::parser::{parse, ItemKind, ParsedFile};
use crate::rules;
use crate::symbols::Symbols;
use std::time::Instant;

/// Pseudo-rule id for malformed or unknown suppression directives. Not a
/// real rule: it cannot itself be suppressed, so a typo in an `allow(...)`
/// can never silently disable enforcement.
pub const BAD_DIRECTIVE: &str = "bad-directive";

/// What role a file plays, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`src/**`) of an invariant-bearing crate.
    Library,
    /// Binary / experiment-harness code (`src/bin/**`, the `cli` and
    /// `bench` crates): panicking on bad input is acceptable there, so
    /// `library-unwrap` does not apply.
    Harness,
    /// Test, bench, example, or fixture code: exempt from all rules.
    Test,
}

/// Crates whose `src/` is harness code rather than library code.
const HARNESS_CRATES: &[&str] = &["cli", "bench"];

/// Path components that mark a file as test-like.
const TEST_COMPONENTS: &[&str] = &["tests", "benches", "examples", "fixtures"];

/// Extracts the workspace crate name from a path like
/// `crates/<name>/src/lib.rs`. Returns `None` for the root package.
pub fn crate_of(path: &str) -> Option<&str> {
    let mut parts = path.split('/').peekable();
    while let Some(part) = parts.next() {
        if part == "crates" {
            return parts.peek().copied();
        }
    }
    None
}

/// Classifies a (repo-relative, `/`-separated) path.
pub fn classify(path: &str) -> FileKind {
    if path.split('/').any(|c| TEST_COMPONENTS.contains(&c)) {
        return FileKind::Test;
    }
    if path.contains("/src/bin/") {
        return FileKind::Harness;
    }
    match crate_of(path) {
        Some(name) if HARNESS_CRATES.contains(&name) => FileKind::Harness,
        _ => FileKind::Library,
    }
}

/// One diagnostic emitted by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule id (stable, kebab-case).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation of what is wrong and what to do instead.
    pub message: String,
    /// True if `lrgp-lint --fix` can rewrite this finding mechanically.
    pub fixable: bool,
}

/// A suppression that actually matched a finding.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The suppressed rule.
    pub rule: String,
    /// File the directive lives in.
    pub file: String,
    /// Directive line.
    pub line: u32,
    /// The stated justification.
    pub reason: String,
}

/// Everything the rules get to see about one file.
pub struct FileContext<'a> {
    /// Repo-relative path.
    pub path: &'a str,
    /// Role of the file.
    pub kind: FileKind,
    /// Workspace crate name, if under `crates/`.
    pub krate: Option<&'a str>,
    /// The full token stream.
    pub tokens: &'a [Token],
    /// Structural view: items, signatures, imports, delimiter pairing.
    pub parsed: &'a ParsedFile,
    /// Workspace-wide symbol table (field types, fn returns, statics).
    pub symbols: &'a Symbols,
    /// Layer-3 analysis: call graph + interprocedural effect fixpoint.
    pub flow: &'a FlowInfo,
    /// Layer-4 analysis: the whole-workspace lock-order graph.
    pub locks: &'a LockGraph,
    test_ranges: Vec<(usize, usize)>,
}

impl FileContext<'_> {
    /// True if token `idx` falls inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi)
    }

    /// Convenience: a finding anchored at token `idx`.
    pub fn finding(&self, rule: &'static str, idx: usize, message: String) -> Finding {
        let t = &self.tokens[idx];
        Finding {
            rule,
            file: self.path.to_string(),
            line: t.line,
            col: t.col,
            message,
            fixable: false,
        }
    }

    /// Like [`FileContext::finding`], marked machine-fixable.
    pub fn fixable_finding(&self, rule: &'static str, idx: usize, message: String) -> Finding {
        let mut f = self.finding(rule, idx, message);
        f.fixable = true;
        f
    }
}

/// The analysis result for one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings, in source order.
    pub findings: Vec<Finding>,
    /// Findings that were suppressed by a directive (one entry per
    /// directive that matched at least one finding).
    pub suppressions: Vec<Suppression>,
    /// For files under `crates/core/src/kernel/` only: each fn's
    /// interprocedural effect set from the dataflow fixpoint, so callers
    /// (the workspace self-check) can assert kernel purity directly
    /// rather than through the finding/suppression pipeline.
    pub kernel_effects: Vec<(String, EffectSet)>,
}

/// Locates `#[cfg(test)]`-style regions as token-index ranges.
///
/// An attribute marks the following item as test code when its token
/// stream mentions the ident `test` and does not mention `not` (so
/// `#[cfg(not(test))]` correctly stays live code). The region extends over
/// the item's brace block, or to the terminating `;` for brace-less items
/// like `#[cfg(test)] mod tests;`. An attribute on a struct field or a
/// struct-literal field (`#[cfg(test)] pub(crate) name: T` last in its
/// braces) has neither: its region ends at the enclosing unmatched `}`, so
/// it never runs on into the next item.
fn test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let start = i;
        // Walk the attribute's bracket group.
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                saw_test = true;
            } else if t.is_ident("not") {
                saw_not = true;
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j + 1;
            continue;
        }
        // Skip any further stacked attributes, then find the item body.
        let mut k = j + 1;
        while k < tokens.len()
            && tokens[k].is_punct("#")
            && tokens.get(k + 1).is_some_and(|t| t.is_punct("["))
        {
            let mut d = 0usize;
            k += 1;
            while k < tokens.len() {
                if tokens[k].is_punct("[") {
                    d += 1;
                } else if tokens[k].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // Scan the item header for `{` (start of body) or `;` (no body);
        // an unmatched `}` first means a field closed by its parent braces.
        let mut paren = 0i32;
        let mut end = None;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if paren == 0 && t.is_punct(";") {
                end = Some(k);
                break;
            } else if paren == 0 && t.is_punct("}") {
                end = Some(k - 1);
                break;
            } else if paren == 0 && t.is_punct("{") {
                let mut braces = 1i32;
                let mut m = k + 1;
                while m < tokens.len() && braces > 0 {
                    if tokens[m].is_punct("{") {
                        braces += 1;
                    } else if tokens[m].is_punct("}") {
                        braces -= 1;
                    }
                    m += 1;
                }
                end = Some(m.saturating_sub(1));
                break;
            }
            k += 1;
        }
        let end = end.unwrap_or(tokens.len().saturating_sub(1));
        ranges.push((start, end));
        i = end + 1;
    }
    ranges
}

/// One file prepared for analysis: lexed, parsed, classified.
struct PreparedFile {
    path: String,
    kind: FileKind,
    lexed: LexedFile,
    parsed: ParsedFile,
    test_ranges: Vec<(usize, usize)>,
}

/// Runs every rule on a set of files as one workspace: symbols (field
/// types, fn return types, `static mut` declarations) are collected from
/// **all** non-test files first, then each file is analyzed against that
/// shared table — this is what lets a rule in `topology.rs` know the type
/// of a field declared three modules away.
///
/// Paths should be repo-relative with `/` separators: they drive file
/// classification, per-crate rule scoping, and symbol-table keying.
/// Returns one [`FileAnalysis`] per input, in input order.
pub fn analyze_files(files: &[(String, String)]) -> Vec<FileAnalysis> {
    analyze_files_timed(files).0
}

/// Wallclock spent in each analysis layer, for the v4 report schema.
/// Milliseconds, rounded down; the stability self-check zeroes all four
/// before comparing serialized reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Lexing, parsing, and test-region location.
    pub lex_ms: u128,
    /// Symbol-table construction plus the per-file rule sweep.
    pub semantic_ms: u128,
    /// Call-graph construction and the interprocedural effect fixpoint.
    pub dataflow_ms: u128,
    /// Layer-4 whole-program graph analyses (lock-order graph).
    pub graph_ms: u128,
}

/// [`analyze_files`] plus the per-layer timing breakdown.
pub fn analyze_files_timed(files: &[(String, String)]) -> (Vec<FileAnalysis>, PhaseTimings) {
    let mut timings = PhaseTimings::default();
    let t = Instant::now();
    let prepared: Vec<PreparedFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            let parsed = parse(&lexed.tokens);
            let ranges = test_ranges(&lexed.tokens);
            PreparedFile {
                path: path.clone(),
                kind: classify(path),
                lexed,
                parsed,
                test_ranges: ranges,
            }
        })
        .collect();
    timings.lex_ms = t.elapsed().as_millis();
    let t = Instant::now();
    let symbols = Symbols::build(
        prepared
            .iter()
            .filter(|p| p.kind != FileKind::Test)
            .map(|p| (crate_of(&p.path), &p.parsed)),
    );
    timings.semantic_ms = t.elapsed().as_millis();
    let bundles: Vec<(&PreparedFile, ParsedForFlow)> = prepared
        .iter()
        .filter(|p| p.kind != FileKind::Test)
        .map(|p| {
            (
                p,
                ParsedForFlow {
                    parsed: &p.parsed,
                    tokens: &p.lexed.tokens,
                    test_ranges: &p.test_ranges,
                },
            )
        })
        .collect();
    let t = Instant::now();
    let flow = FlowInfo::build(
        bundles.iter().map(|(p, b)| (p.path.as_str(), crate_of(&p.path), b)),
        &symbols,
    );
    timings.dataflow_ms = t.elapsed().as_millis();
    let t = Instant::now();
    let locks = LockGraph::build(
        &flow.graph,
        bundles.iter().map(|(p, b)| (p.path.as_str(), b)),
    );
    timings.graph_ms = t.elapsed().as_millis();
    let t = Instant::now();
    let out = prepared.iter().map(|p| analyze_prepared(p, &symbols, &flow, &locks)).collect();
    timings.semantic_ms += t.elapsed().as_millis();
    (out, timings)
}

/// The deterministic effect surface: one line per public fn of every
/// library file, `module::path::fn effect,names` (`-` when pure), sorted
/// and deduplicated — the `--effects` snapshot diffed in CI. Also returns
/// the lock-order graph for the machine-readable variant.
pub fn effect_surface(files: &[(String, String)]) -> (Vec<String>, LockGraph) {
    let prepared: Vec<PreparedFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            let parsed = parse(&lexed.tokens);
            let ranges = test_ranges(&lexed.tokens);
            PreparedFile {
                path: path.clone(),
                kind: classify(path),
                lexed,
                parsed,
                test_ranges: ranges,
            }
        })
        .collect();
    let symbols = Symbols::build(
        prepared
            .iter()
            .filter(|p| p.kind != FileKind::Test)
            .map(|p| (crate_of(&p.path), &p.parsed)),
    );
    let bundles: Vec<(&PreparedFile, ParsedForFlow)> = prepared
        .iter()
        .filter(|p| p.kind != FileKind::Test)
        .map(|p| {
            (
                p,
                ParsedForFlow {
                    parsed: &p.parsed,
                    tokens: &p.lexed.tokens,
                    test_ranges: &p.test_ranges,
                },
            )
        })
        .collect();
    let flow = FlowInfo::build(
        bundles.iter().map(|(p, b)| (p.path.as_str(), crate_of(&p.path), b)),
        &symbols,
    );
    let locks = LockGraph::build(
        &flow.graph,
        bundles.iter().map(|(p, b)| (p.path.as_str(), b)),
    );
    let mut lines = std::collections::BTreeSet::new();
    for p in &prepared {
        if p.kind != FileKind::Library {
            continue;
        }
        let module = module_path_of(&p.path);
        for item in &p.parsed.items {
            if item.kind != ItemKind::Fn || !item.is_pub {
                continue;
            }
            if p.test_ranges.iter().any(|&(lo, hi)| item.kw >= lo && item.kw <= hi) {
                continue;
            }
            let Some(effects) = flow.effects_at(&p.path, item.kw) else { continue };
            let names = effects.names();
            let effects = if names.is_empty() { "-".to_string() } else { names.join(",") };
            lines.insert(format!("{module}::{} {effects}", item.name));
        }
    }
    (lines.into_iter().collect(), locks)
}

/// `crates/core/src/kernel/rate.rs` → `core::kernel::rate`; `mod.rs`
/// collapses into its directory, `lib.rs` into the crate, and files of
/// the root package are prefixed `crate`.
fn module_path_of(path: &str) -> String {
    let krate = crate_of(path).unwrap_or("crate");
    let mut segs: Vec<&str> = match path.split_once("/src/") {
        Some((_, rest)) => rest.trim_end_matches(".rs").split('/').collect(),
        None => Vec::new(),
    };
    if matches!(segs.last(), Some(&"mod") | Some(&"lib")) {
        segs.pop();
    }
    let mut out = krate.to_string();
    for s in segs {
        out.push_str("::");
        out.push_str(s);
    }
    out
}

/// Runs every rule on one file and applies suppression directives.
///
/// Single-file convenience over [`analyze_files`]: the symbol table is
/// built from this file alone, so cross-file facts resolve only within
/// it.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    analyze_files(&[(path.to_string(), src.to_string())])
        .pop()
        .unwrap_or_default()
}

fn analyze_prepared(
    file: &PreparedFile,
    symbols: &Symbols,
    flow: &FlowInfo,
    locks: &LockGraph,
) -> FileAnalysis {
    let lexed = &file.lexed;
    let path = file.path.as_str();
    let kind = file.kind;
    let mut analysis = FileAnalysis::default();
    // Directive hygiene is checked even in test files: a malformed
    // directive anywhere is a lie about what is being enforced.
    for (line, msg) in &lexed.directive_errors {
        analysis.findings.push(Finding {
            rule: BAD_DIRECTIVE,
            file: path.to_string(),
            line: *line,
            col: 1,
            message: format!("malformed lrgp-lint directive: {msg}"),
            fixable: false,
        });
    }
    for d in &lexed.directives {
        if !rules::is_known_rule(&d.rule) {
            analysis.findings.push(Finding {
                rule: BAD_DIRECTIVE,
                file: path.to_string(),
                line: d.line,
                col: 1,
                message: format!("allow() names unknown rule `{}`", d.rule),
                fixable: false,
            });
        }
    }
    if kind == FileKind::Test {
        return analysis;
    }
    let ctx = FileContext {
        path,
        kind,
        krate: crate_of(path),
        tokens: &lexed.tokens,
        parsed: &file.parsed,
        symbols,
        flow,
        locks,
        test_ranges: file.test_ranges.clone(),
    };
    if kind == FileKind::Library && ctx.krate == Some("core") && path.contains("/kernel/") {
        for item in &file.parsed.items {
            if item.kind == ItemKind::Fn {
                if let Some(effects) = flow.effects_at(path, item.kw) {
                    analysis.kernel_effects.push((item.name.clone(), effects));
                }
            }
        }
    }
    let mut raw: Vec<Finding> = Vec::new();
    for rule in rules::RULES {
        raw.extend((rule.check)(&ctx));
    }
    // A directive covers its own line and the next line carrying a token.
    let covered_lines = |directive_line: u32| -> [u32; 2] {
        let next = lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > directive_line)
            .min()
            .unwrap_or(directive_line);
        [directive_line, next]
    };
    let mut used = vec![false; lexed.directives.len()];
    'findings: for f in raw {
        for (di, d) in lexed.directives.iter().enumerate() {
            if d.rule == f.rule && covered_lines(d.line).contains(&f.line) {
                if !used[di] {
                    used[di] = true;
                    analysis.suppressions.push(Suppression {
                        rule: d.rule.clone(),
                        file: path.to_string(),
                        line: d.line,
                        reason: d.reason.clone(),
                    });
                }
                continue 'findings;
            }
        }
        analysis.findings.push(f);
    }
    analysis.findings.sort_by(|a, b| {
        (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule))
    });
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/engine.rs"), FileKind::Library);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Harness);
        assert_eq!(classify("crates/bench/src/bin/fig1.rs"), FileKind::Harness);
        assert_eq!(classify("crates/core/tests/props.rs"), FileKind::Test);
        assert_eq!(classify("examples/demo.rs"), FileKind::Test);
        assert_eq!(classify("crates/lint/tests/fixtures/x.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(crate_of("crates/model/src/analysis.rs"), Some("model"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let a = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let a = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    }

    #[test]
    fn braceless_cfg_test_item() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { x.unwrap(); }\n";
        let a = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn suppression_same_line_and_next_line() {
        let trailing =
            "fn f() { x.unwrap(); } // lrgp-lint: allow(library-unwrap, reason = \"ok\")\n";
        assert!(analyze_source("crates/model/src/x.rs", trailing).findings.is_empty());
        let above = "// lrgp-lint: allow(library-unwrap, reason = \"ok\")\nfn f() { x.unwrap(); }\n";
        let a = analyze_source("crates/model/src/x.rs", above);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressions.len(), 1);
        assert_eq!(a.suppressions[0].reason, "ok");
    }

    #[test]
    fn suppression_must_name_the_right_rule() {
        let src = "// lrgp-lint: allow(float-eq, reason = \"wrong rule\")\nfn f() { x.unwrap(); }\n";
        let a = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "library-unwrap");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// lrgp-lint: allow(no-such-rule, reason = \"typo\")\nfn f() {}\n";
        let a = analyze_source("crates/model/src/x.rs", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, BAD_DIRECTIVE);
    }
}
