//! Workspace call graph, derived from the same parsed view that feeds the
//! symbol table.
//!
//! Each `fn` item in every non-test file becomes a node; call sites are
//! recovered token-structurally (an identifier directly followed by `(`,
//! excluding keywords, macro invocations, and the defining occurrence).
//! Resolution follows the symbol table's philosophy — name-based, crate
//! first, workspace second — because the workspace's function names are
//! effectively unique per crate. Where they are not (constructor names
//! like `new`), [`crate::dataflow`] resolves the ambiguity conservatively
//! by intersecting the candidates' effect sets, so a collision can only
//! *hide* an effect behind a suppressible imprecision, never invent a
//! spurious cross-module edge that poisons every caller of `new`.

use crate::lexer::{Token, TokenKind};
use crate::parser::{ItemKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Key used for files outside any `crates/<name>/` directory (matches
/// [`crate::symbols`]).
pub const ROOT_CRATE: &str = "(root)";

fn crate_key(krate: Option<&str>) -> String {
    krate.unwrap_or(ROOT_CRATE).to_string()
}

/// Identifiers that look like calls but are control/operator keywords.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "let", "else",
    "move", "unsafe", "ref", "mut", "break", "continue", "where", "impl", "dyn",
];

/// One function in the workspace.
#[derive(Debug)]
pub struct FnNode {
    /// Crate key ([`ROOT_CRATE`] for files outside `crates/`).
    pub krate: String,
    /// Repo-relative file label.
    pub file: String,
    /// Declared name.
    pub name: String,
    /// Token index of the `fn` keyword in its file.
    pub kw: usize,
    /// Token indices of the body braces, if the fn has a body.
    pub body: Option<(usize, usize)>,
    /// Deduplicated callee names appearing in the body, sorted.
    pub callees: Vec<String>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes, in (file, token) scan order.
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<(String, String), Vec<usize>>,
    by_bare_name: BTreeMap<String, Vec<usize>>,
    by_site: BTreeMap<(String, usize), usize>,
}

impl CallGraph {
    /// Builds the graph from every non-test file. Each entry is
    /// `(file label, crate, parsed view, tokens, test ranges)`; fn items
    /// whose keyword falls in a test range are skipped, mirroring how the
    /// rules themselves treat `#[cfg(test)]` regions.
    pub fn build<'a>(
        files: impl IntoIterator<
            Item = (&'a str, Option<&'a str>, &'a ParsedFile, &'a [Token], &'a [(usize, usize)]),
        >,
    ) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file, krate, parsed, tokens, test_ranges) in files {
            let in_test =
                |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi);
            for item in &parsed.items {
                if item.kind != ItemKind::Fn || in_test(item.kw) {
                    continue;
                }
                let params: BTreeSet<&str> = item
                    .sig
                    .iter()
                    .flat_map(|s| s.params.iter().map(|(n, _)| n.as_str()))
                    .collect();
                let callees = match item.body {
                    Some((open, close)) => callees_in(tokens, open + 1, close, &params),
                    None => Vec::new(),
                };
                let idx = graph.fns.len();
                graph.fns.push(FnNode {
                    krate: crate_key(krate),
                    file: file.to_string(),
                    name: item.name.clone(),
                    kw: item.kw,
                    body: item.body,
                    callees,
                });
                let node = &graph.fns[idx];
                graph
                    .by_name
                    .entry((node.krate.clone(), node.name.clone()))
                    .or_default()
                    .push(idx);
                graph.by_bare_name.entry(node.name.clone()).or_default().push(idx);
                graph.by_site.insert((node.file.clone(), node.kw), idx);
            }
        }
        graph
    }

    /// The node index of the fn whose `fn` keyword sits at token `kw` of
    /// `file`, if it was indexed.
    pub fn fn_at(&self, file: &str, kw: usize) -> Option<usize> {
        self.by_site.get(&(file.to_string(), kw)).copied()
    }

    /// Candidate definitions for a call to `name` made from crate
    /// `krate`: same-crate definitions if any exist, otherwise every
    /// definition of that name in the workspace.
    pub fn candidates(&self, krate: &str, name: &str) -> &[usize] {
        if let Some(same) = self.by_name.get(&(krate.to_string(), name.to_string())) {
            return same;
        }
        self.by_bare_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Recovers callee names from a body token range: identifiers directly
/// followed by `(`, excluding keywords, macro bangs (`name!(..)` — those
/// are the lexical layer's business), fn definitions themselves, and bare
/// calls of a fn *parameter* or of a local closure (`apply(f, rate)` where
/// `apply: impl FnMut` is a closure argument, or where `let mut apply =
/// |f, rate| ..` binds one in the body — a call whose target is no
/// workspace fn, which must not resolve by name to an unrelated one).
fn callees_in(tokens: &[Token], lo: usize, hi: usize, params: &BTreeSet<&str>) -> Vec<String> {
    let mut params = params.clone();
    params.extend(closure_bindings(tokens, lo, hi));
    let mut names = BTreeSet::new();
    for i in lo..hi.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        if i >= 1 && tokens[i - 1].is_ident("fn") {
            continue;
        }
        let bare = i == 0
            || !(tokens[i - 1].is_punct(".") || tokens[i - 1].is_punct("::"));
        if bare && params.contains(t.text.as_str()) {
            continue;
        }
        names.insert(t.text.clone());
    }
    names.into_iter().collect()
}

/// Names bound to a closure literal by a `let` in `[lo, hi)`:
/// `let [mut] name = [move] |..| ..` (or `||`).
fn closure_bindings(tokens: &[Token], lo: usize, hi: usize) -> Vec<&str> {
    crate::parser::let_bindings(tokens, lo, hi)
        .into_iter()
        .filter(|b| tokens.get(b.idx + 1).is_some_and(|t| t.is_punct("=")))
        .filter(|b| {
            let mut init = b.idx + 2;
            if tokens.get(init).is_some_and(|t| t.is_ident("move")) {
                init += 1;
            }
            tokens.get(init).is_some_and(|t| t.is_punct("|") || t.is_punct("||"))
        })
        .map(|b| tokens[b.idx].text.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph_of(files: &[(&str, Option<&str>, &str)]) -> CallGraph {
        let lexed: Vec<_> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let parsed: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        let empty: Vec<(usize, usize)> = Vec::new();
        CallGraph::build(files.iter().enumerate().map(|(i, (file, krate, _))| {
            (*file, *krate, &parsed[i], lexed[i].tokens.as_slice(), empty.as_slice())
        }))
    }

    #[test]
    fn collects_fns_and_callees() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            Some("core"),
            "fn outer() { helper(1); x.method(); macro_like!(skip); let v = Thing::new(); }\n\
             fn helper(n: u32) {}\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        let outer = &g.fns[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.callees, vec!["helper", "method", "new"]);
        assert!(
            !outer.callees.iter().any(|c| c == "macro_like"),
            "macro invocations are not calls"
        );
    }

    #[test]
    fn bare_call_of_a_fn_parameter_is_not_a_callee() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            Some("core"),
            "fn drive(apply: impl FnMut(u32)) { apply(1); }\n\
             fn drive_method(apply: impl FnMut(u32)) { other.apply(2); }\n\
             fn apply(n: u32) {}\n",
        )]);
        // The bare `apply(1)` goes through the closure param, not the
        // workspace fn named `apply`.
        assert!(g.fns[0].callees.is_empty(), "{:?}", g.fns[0].callees);
        // A *method* call spelled like the param still resolves by name.
        assert_eq!(g.fns[1].callees, vec!["apply"]);
    }

    #[test]
    fn bare_call_of_a_let_bound_closure_is_not_a_callee() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            Some("core"),
            "fn drive(out: &mut Vec<u32>) { let mut apply = |f: u32| out.push(f); apply(1); }\n\
             fn drive_move() { let apply = move || 2; apply(); }\n\
             fn drive_value() { let apply = 3; apply(4); }\n\
             fn apply(n: u32) {}\n",
        )]);
        // Both closure forms shadow the workspace fn named `apply` ...
        assert_eq!(g.fns[0].callees, vec!["push"]);
        assert!(g.fns[1].callees.is_empty(), "{:?}", g.fns[1].callees);
        // ... a non-closure binding of the same name does not.
        assert_eq!(g.fns[2].callees, vec!["apply"]);
    }

    #[test]
    fn resolution_prefers_same_crate_then_workspace() {
        let g = graph_of(&[
            ("crates/core/src/a.rs", Some("core"), "fn shared() {}\nfn core_only() {}"),
            ("crates/model/src/b.rs", Some("model"), "fn shared() {}"),
        ]);
        let core_shared = g.candidates("core", "shared");
        assert_eq!(core_shared.len(), 1);
        assert_eq!(g.fns[core_shared[0]].krate, "core");
        // No same-crate definition: fall back to the workspace.
        let from_model = g.candidates("model", "core_only");
        assert_eq!(from_model.len(), 1);
        assert_eq!(g.fns[from_model[0]].krate, "core");
        assert!(g.candidates("core", "nonexistent").is_empty());
    }

    #[test]
    fn fn_at_keys_by_file_and_keyword() {
        let g = graph_of(&[("crates/core/src/a.rs", Some("core"), "fn f() { g(); }")]);
        let kw = g.fns[0].kw;
        assert_eq!(g.fn_at("crates/core/src/a.rs", kw), Some(0));
        assert_eq!(g.fn_at("crates/core/src/other.rs", kw), None);
    }

    #[test]
    fn test_range_fns_are_excluded() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let helper_kw = parsed
            .items
            .iter()
            .find(|i| i.name == "helper")
            .map(|i| i.kw)
            .expect("helper parsed");
        let ranges = vec![(helper_kw.saturating_sub(8), lexed.tokens.len())];
        let g = CallGraph::build([(
            "crates/core/src/a.rs",
            Some("core"),
            &parsed,
            lexed.tokens.as_slice(),
            ranges.as_slice(),
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }
}
