//! Layer-4 lock-order graph: which locks are acquired while which other
//! guards are live, propagated over the whole-workspace call graph, with
//! cycle detection.
//!
//! Lock identity is textual: the last path segment of the locked place
//! before any index (`lock_unpoisoned(&self.orders[b])` and
//! `self.orders[x].lock()` are both the lock `orders`). That
//! coarse-grains an array of mutexes into one node — deliberately so,
//! since a sharded `orders[i]` → `orders[j]` nesting is exactly the
//! acquisition pattern that deadlocks two workers taking the shards in
//! opposite orders. Acquisitions on a *bare fn parameter* (the generic
//! `lock_unpoisoned(m)` helper locking its own argument) are skipped:
//! the caller's argument-site acquisition accounts for them under the
//! caller's place name.
//!
//! Guard liveness reuses the layer-3 scope walk (`let` statement → `;` →
//! innermost enclosing brace close, or an explicit `drop(guard)`). While
//! a guard is live, an edge `held → then` is recorded for every direct
//! acquisition of `then` and for every acquisition any resolvable callee
//! performs transitively. Ambiguous callee names resolve to the
//! *intersection* of their candidates' acquire sets, mirroring the effect
//! fixpoint: a name shared by many constructors must not invent edges no
//! real call sequence performs. (The price is a known false negative on
//! trait-object dispatch, where the concrete target is one candidate
//! among several.)
//!
//! A cycle in the resulting graph — `a → b` somewhere, `b → a` somewhere
//! else — is a lock-order inversion: two threads interleaving those
//! paths block each other forever. Each cycle is reported once, anchored
//! at its lexicographically first edge site, with the full witness chain
//! in the message.

use crate::callgraph::CallGraph;
use crate::dataflow::ParsedForFlow;
use crate::lexer::{Token, TokenKind};
use crate::parser::let_bindings;
use std::collections::{BTreeMap, BTreeSet};

/// One observed acquisition order: while a guard on `held` was live,
/// `then` was acquired (directly or through the named callee).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock whose guard is live.
    pub held: String,
    /// The lock acquired under it.
    pub then: String,
    /// File of the acquisition (or call) site.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// Token index of the site within its file.
    pub idx: usize,
    /// Name of the fn the edge was observed in.
    pub in_fn: String,
}

/// The whole-workspace lock-order analysis.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// One edge per distinct `held → then` pair, at its first site,
    /// sorted by (held, then).
    pub edges: Vec<LockEdge>,
    /// Distinct cycles, each as indices into [`Self::edges`], rotated so
    /// the smallest lock name leads, sorted and deduplicated.
    pub cycles: Vec<Vec<usize>>,
}

/// A direct acquisition inside one fn body.
#[derive(Debug)]
struct Acquisition {
    /// Lock place name.
    place: String,
    /// Token index of the acquiring call.
    idx: usize,
    /// Live range of the guard (`let`-bound only): token span after the
    /// binding statement until scope end or `drop`.
    guard_span: Option<(usize, usize)>,
}

impl LockGraph {
    /// Builds the graph over the same bundles [`crate::dataflow::FlowInfo::build`]
    /// consumes, reusing its call graph.
    pub fn build<'a>(
        graph: &CallGraph,
        files: impl IntoIterator<Item = (&'a str, &'a ParsedForFlow<'a>)>,
    ) -> LockGraph {
        let by_label: BTreeMap<&str, &ParsedForFlow> = files.into_iter().collect();
        let n = graph.fns.len();
        // Per-fn direct acquisitions and the transitive acquire fixpoint.
        let mut acqs: Vec<Vec<Acquisition>> = Vec::with_capacity(n);
        for node in &graph.fns {
            match (node.body, by_label.get(node.file.as_str())) {
                (Some((open, close)), Some(f)) => {
                    acqs.push(acquisitions(f.tokens, &f.parsed.match_of, node.kw, open, close));
                }
                _ => acqs.push(Vec::new()),
            }
        }
        let mut trans: Vec<BTreeSet<String>> = acqs
            .iter()
            .map(|list| list.iter().map(|a| a.place.clone()).collect())
            .collect();
        let max_rounds = n.max(1) * 4;
        for _ in 0..max_rounds {
            let mut changed = false;
            for i in 0..n {
                let krate = graph.fns[i].krate.clone();
                for c in 0..graph.fns[i].callees.len() {
                    let callee = graph.fns[i].callees[c].clone();
                    for place in callee_acquires(graph, &trans, &krate, &callee, None) {
                        if trans[i].insert(place) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Edge collection: for every live guard span, every other direct
        // acquisition and every resolvable call inside it.
        let mut best: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
        let mut record = |held: &str, then: &str, file: &str, tok: &Token, idx: usize, in_fn: &str| {
            let edge = LockEdge {
                held: held.to_string(),
                then: then.to_string(),
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                idx,
                in_fn: in_fn.to_string(),
            };
            let key = (edge.held.clone(), edge.then.clone());
            match best.get(&key) {
                Some(old) if (old.file.as_str(), old.line, old.col) <= (edge.file.as_str(), edge.line, edge.col) => {}
                _ => {
                    best.insert(key, edge);
                }
            }
        };
        for (i, fn_acqs) in acqs.iter().enumerate().take(n) {
            let node = &graph.fns[i];
            let Some(f) = by_label.get(node.file.as_str()) else { continue };
            let toks = f.tokens;
            for a in fn_acqs {
                let Some((lo, hi)) = a.guard_span else { continue };
                // Direct second acquisitions under this guard.
                for b in fn_acqs {
                    if b.idx > lo && b.idx < hi {
                        record(&a.place, &b.place, &node.file, &toks[b.idx], b.idx, &node.name);
                    }
                }
                // Calls whose transitive acquire set is non-empty. A method
                // call on a receiver other than `self` is not a call of the
                // fn it sits in: `slot.out.drain(..)` inside a fn named
                // `drain` is `Vec::drain`.
                let mut k = lo;
                while k < hi.min(toks.len()) {
                    let t = &toks[k];
                    if t.kind == TokenKind::Ident
                        && toks.get(k + 1).is_some_and(|nx| nx.is_punct("("))
                        && !fn_acqs.iter().any(|b| b.idx == k)
                    {
                        let foreign_receiver =
                            k >= 2 && toks[k - 1].is_punct(".") && !toks[k - 2].is_ident("self");
                        let not = foreign_receiver.then_some(i);
                        for place in callee_acquires(graph, &trans, &node.krate, &t.text, not) {
                            record(&a.place, &place, &node.file, t, k, &node.name);
                        }
                    }
                    k += 1;
                }
            }
        }
        let edges: Vec<LockEdge> = best.into_values().collect();
        let cycles = find_cycles(&edges);
        LockGraph { edges, cycles }
    }

    /// Renders the witness chain of cycle `c` for a finding message.
    pub fn describe_cycle(&self, cycle: &[usize]) -> String {
        let steps: Vec<String> = cycle
            .iter()
            .map(|&e| {
                let e = &self.edges[e];
                format!(
                    "`{}` → `{}` ({}:{} in `{}`)",
                    e.held, e.then, e.file, e.line, e.in_fn
                )
            })
            .collect();
        steps.join(", then ")
    }
}

/// `lock-order-inversion`: a cycle in the whole-workspace lock-order
/// graph, reported once per cycle, anchored at its canonical first edge
/// site (so the finding lands in the file that acquires out of order).
pub fn lock_order_inversion(ctx: &crate::engine::FileContext) -> Vec<crate::engine::Finding> {
    if ctx.kind != crate::engine::FileKind::Library {
        return Vec::new();
    }
    let mut out = Vec::new();
    for cycle in &ctx.locks.cycles {
        let Some(&first) = cycle.first() else { continue };
        let anchor = &ctx.locks.edges[first];
        if anchor.file != ctx.path || ctx.in_test(anchor.idx) {
            continue;
        }
        out.push(ctx.finding(
            "lock-order-inversion",
            anchor.idx,
            format!(
                "lock-order inversion: {}; two threads interleaving these paths \
                 block each other forever — acquire the locks in one global \
                 order everywhere (or merge them under one mutex)",
                ctx.locks.describe_cycle(cycle)
            ),
        ));
    }
    out
}

/// The acquire set a call to `name` from `krate` contributes: the unique
/// candidate's transitive set, or the intersection over an ambiguous
/// name's candidates. Candidate `not`, when given, is no target of the
/// call.
fn callee_acquires(
    graph: &CallGraph,
    trans: &[BTreeSet<String>],
    krate: &str,
    name: &str,
    not: Option<usize>,
) -> BTreeSet<String> {
    let mut it = graph.candidates(krate, name).iter().filter(|&&c| Some(c) != not);
    let Some(&first) = it.next() else { return BTreeSet::new() };
    it.fold(trans[first].clone(), |acc, &c| acc.intersection(&trans[c]).cloned().collect())
}

/// Direct acquisitions in one fn body, with guard spans for `let`-bound
/// guards. `kw..open` is the signature span (for the bare-parameter
/// skip).
fn acquisitions(
    tokens: &[Token],
    match_of: &[Option<usize>],
    kw: usize,
    open: usize,
    close: usize,
) -> Vec<Acquisition> {
    let close = close.min(tokens.len());
    // Parameter names: `name :` pairs at any depth in the signature.
    let mut params: BTreeSet<&str> = BTreeSet::new();
    for j in kw + 1..open.min(tokens.len()) {
        if tokens[j].is_punct(":") && j >= 1 && tokens[j - 1].kind == TokenKind::Ident {
            params.insert(tokens[j - 1].text.as_str());
        }
    }
    let mut out = Vec::new();
    for k in open + 1..close {
        if !is_lock_acquisition(tokens, k) {
            continue;
        }
        let Some((place, bare)) = lock_place(tokens, match_of, k) else { continue };
        if bare && params.contains(place.as_str()) {
            continue;
        }
        out.push(Acquisition { place, idx: k, guard_span: None });
    }
    // Attach guard spans: an acquisition inside a `let` statement lives
    // from the statement's `;` to the innermost enclosing brace close or
    // an explicit `drop(name)` (the layer-3 scope walk).
    for b in let_bindings(tokens, open, close) {
        let mut k = b.idx + 1;
        let mut semi = None;
        // Group ranges skipped on the way to the `;`. An acquisition inside
        // one is a *temporary* whose guard dies at that group's close
        // (`let x = { let g = m.lock(); ... };` binds `x`, not a guard), so
        // it must not inherit this binding's span.
        let mut nested: Vec<(usize, usize)> = Vec::new();
        while k < close {
            let t = &tokens[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                match match_of.get(k).copied().flatten() {
                    Some(end) => {
                        nested.push((k, end));
                        k = end + 1;
                    }
                    None => break,
                }
                continue;
            }
            if t.is_punct(";") {
                semi = Some(k);
                break;
            }
            if t.is_punct("}") {
                break;
            }
            k += 1;
        }
        let Some(semi) = semi else { continue };
        let mut depth = 0i32;
        let mut end = close;
        let mut k = semi + 1;
        while k < close {
            let t = &tokens[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    end = k;
                    break;
                }
            } else if t.is_ident("drop")
                && tokens.get(k + 1).is_some_and(|n| n.is_punct("("))
                && tokens.get(k + 2).is_some_and(|n| n.is_ident(&b.name))
            {
                end = k;
                break;
            }
            k += 1;
        }
        for a in &mut out {
            if a.idx > b.idx
                && a.idx < semi
                && a.guard_span.is_none()
                && !nested.iter().any(|&(lo, hi)| a.idx > lo && a.idx < hi)
            {
                a.guard_span = Some((semi, end));
            }
        }
    }
    out
}

/// Method names that acquire a guard (the layer-3 set: `lock_unpoisoned`,
/// `.lock()`, `.try_lock()`, zero-arg `.read()`/`.write()`).
fn is_lock_acquisition(tokens: &[Token], k: usize) -> bool {
    let t = &tokens[k];
    if t.kind != TokenKind::Ident {
        return false;
    }
    let next_call = tokens.get(k + 1).is_some_and(|n| n.is_punct("("));
    match t.text.as_str() {
        "lock_unpoisoned" => next_call,
        "lock" | "try_lock" => next_call && k >= 1 && tokens[k - 1].is_punct("."),
        "read" | "write" => {
            next_call
                && k >= 1
                && tokens[k - 1].is_punct(".")
                && tokens.get(k + 2).is_some_and(|n| n.is_punct(")"))
        }
        _ => false,
    }
}

/// The lock place of the acquisition at `k`: the last path segment before
/// any index group. Returns `(name, is_bare_single_ident)`.
fn lock_place(
    tokens: &[Token],
    match_of: &[Option<usize>],
    k: usize,
) -> Option<(String, bool)> {
    if tokens[k].is_ident("lock_unpoisoned") {
        // Forward through the argument: `lock_unpoisoned(&self.orders[b])`.
        let mut j = k + 2; // past the `(`
        let mut last: Option<&str> = None;
        let mut segments = 0usize;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("&") || t.is_ident("mut") {
                j += 1;
                continue;
            }
            if t.kind == TokenKind::Ident {
                last = Some(t.text.as_str());
                segments += 1;
                j += 1;
                continue;
            }
            if t.is_punct(".") || t.is_punct("::") {
                j += 1;
                continue;
            }
            break; // `[`, `)`, `,` — the place ends here
        }
        return last.map(|name| (name.to_string(), segments == 1));
    }
    // Backward from the `.` before the method: skip `[...]` index groups,
    // take the nearest ident segment.
    let mut j = k.checked_sub(2)?;
    let mut segments = 1usize;
    loop {
        let t = &tokens[j];
        if t.is_punct("]") {
            j = match_of.get(j).copied().flatten()?.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident {
            // Count how deep the path goes, to distinguish a bare local
            // from a field access.
            if j >= 1 && (tokens[j - 1].is_punct(".") || tokens[j - 1].is_punct("::")) {
                segments += 1;
            }
            return Some((t.text.clone(), segments == 1));
        }
        return None;
    }
}

/// DFS cycle enumeration over the distinct `held → then` pairs; cycles
/// are canonicalized (smallest lock name leads) and deduplicated.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<usize>> {
    let mut adj: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(e.held.as_str()).or_default().push(i);
    }
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut path: Vec<usize> = Vec::new();
        dfs(start, start, edges, &adj, &mut path, &mut seen, &mut BTreeSet::new());
    }
    seen.into_iter().collect()
}

fn dfs(
    start: &str,
    at: &str,
    edges: &[LockEdge],
    adj: &BTreeMap<&str, Vec<usize>>,
    path: &mut Vec<usize>,
    seen: &mut BTreeSet<Vec<usize>>,
    visited: &mut BTreeSet<String>,
) {
    for &e in adj.get(at).map(Vec::as_slice).unwrap_or(&[]) {
        let then = edges[e].then.as_str();
        if then == start {
            let mut cycle = path.clone();
            cycle.push(e);
            seen.insert(canonicalize(cycle, edges));
            continue;
        }
        if visited.contains(then) || then < start {
            // `then < start`: every cycle is enumerated from its smallest
            // node, so smaller nodes need not be re-entered.
            continue;
        }
        visited.insert(then.to_string());
        path.push(e);
        dfs(start, then, edges, adj, path, seen, visited);
        path.pop();
        visited.remove(then);
    }
}

/// Rotates a cycle's edge list so the edge leaving the smallest lock name
/// comes first.
fn canonicalize(cycle: Vec<usize>, edges: &[LockEdge]) -> Vec<usize> {
    let lead = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, &e)| &edges[e].held)
        .map(|(pos, _)| pos)
        .unwrap_or(0);
    let mut out = cycle[lead..].to_vec();
    out.extend_from_slice(&cycle[..lead]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::Symbols;

    fn graph_of(files: &[(&str, Option<&str>, &str)]) -> LockGraph {
        let lexed: Vec<_> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let parsed: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        let _symbols = Symbols::build(
            files.iter().enumerate().map(|(i, (_, krate, _))| (*krate, &parsed[i])),
        );
        let empty: Vec<(usize, usize)> = Vec::new();
        let bundles: Vec<ParsedForFlow> = (0..files.len())
            .map(|i| ParsedForFlow {
                parsed: &parsed[i],
                tokens: &lexed[i].tokens,
                test_ranges: &empty,
            })
            .collect();
        let graph = CallGraph::build((0..files.len()).map(|i| {
            (files[i].0, files[i].1, bundles[i].parsed, bundles[i].tokens, bundles[i].test_ranges)
        }));
        LockGraph::build(
            &graph,
            (0..files.len()).map(|i| (files[i].0, &bundles[i])),
        )
    }

    #[test]
    fn opposite_orders_cycle_is_found() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn ab(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }\n\
             fn ba(s: &S) { let b = s.beta.lock(); let a = s.alpha.lock(); }\n",
        )]);
        assert_eq!(g.cycles.len(), 1, "edges: {:?}", g.edges);
        let cycle = &g.cycles[0];
        assert_eq!(cycle.len(), 2);
        assert_eq!(g.edges[cycle[0]].held, "alpha", "canonical rotation leads with the smallest");
    }

    #[test]
    fn nested_same_order_is_clean_and_interprocedural_edges_exist() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn outer(s: &S) { let a = s.alpha.lock(); tail(s); }\n\
             fn tail(s: &S) { let b = s.beta.lock(); }\n\
             fn also(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }\n",
        )]);
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
        assert!(
            g.edges.iter().any(|e| e.held == "alpha" && e.then == "beta"),
            "call through `tail` must contribute an edge: {:?}",
            g.edges
        );
    }

    #[test]
    fn relock_of_the_same_place_is_a_self_cycle() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn twice(s: &S) { let a = s.gate.lock(); let b = s.gate.lock(); }\n",
        )]);
        assert_eq!(g.cycles.len(), 1);
        assert_eq!(g.cycles[0].len(), 1, "a → a is a one-edge cycle");
    }

    #[test]
    fn generic_param_helper_contributes_no_place() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn helper(m: &Mutex<u32>) -> u32 { let g = m.lock(); 0 }\n\
             fn caller(s: &S) { let a = s.alpha.lock(); let x = helper(&s.alpha); }\n",
        )]);
        // `helper` locks only its parameter; the caller's edge must not
        // exist under the param's name (`m`), and the place-less helper
        // contributes nothing transitively.
        assert!(g.edges.iter().all(|e| e.then != "m"), "{:?}", g.edges);
        assert!(g.cycles.is_empty());
    }

    #[test]
    fn drop_ends_the_guard_span() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn staged(s: &S) { let a = s.alpha.lock(); drop(a); let b = s.beta.lock(); }\n\
             fn back(s: &S) { let b = s.beta.lock(); let a = s.alpha.lock(); }\n",
        )]);
        // Without the drop, alpha→beta + beta→alpha would cycle; the
        // explicit drop leaves only beta→alpha.
        assert!(g.cycles.is_empty(), "edges: {:?}", g.edges);
        assert!(g.edges.iter().any(|e| e.held == "beta" && e.then == "alpha"));
    }

    #[test]
    fn block_scoped_temporary_guard_does_not_leak() {
        // The guard inside the block-valued initializer dies at the
        // block's `}`; binding `x` is a plain value. Attributing the
        // guard to `x` would invent an alpha→beta edge and a cycle.
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn staged(s: &S) { let x = { let a = s.alpha.lock(); peek(&a) }; let b = s.beta.lock(); }\n\
             fn back(s: &S) { let b = s.beta.lock(); let a = s.alpha.lock(); }\n",
        )]);
        assert!(
            !g.edges.iter().any(|e| e.held == "alpha" && e.then == "beta"),
            "temporary guard leaked out of its block: {:?}",
            g.edges
        );
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
    }

    #[test]
    fn ambiguous_callees_resolve_to_the_intersection() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "impl A { fn grab(s: &S) { let b = s.beta.lock(); } }\n\
             impl B { fn grab(s: &S) { } }\n\
             fn caller(s: &S) { let a = s.alpha.lock(); B::grab(s); }\n",
        )]);
        assert!(
            !g.edges.iter().any(|e| e.held == "alpha" && e.then == "beta"),
            "ambiguous `grab` must not invent an alpha→beta edge: {:?}",
            g.edges
        );
    }
}
