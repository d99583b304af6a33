//! Intraprocedural control-flow graphs over token trees.
//!
//! The layer-3 rules need flow-shaped questions the flat token stream
//! cannot answer: "is this `wait()` re-entered by a loop that re-checks a
//! predicate?", "which statements can execute after this binding while it
//! is still live?". This module lowers one fn body (a brace-delimited
//! token range from [`crate::parser`]) into basic blocks with successor
//! edges, plus a side table of the loops it contains.
//!
//! The lowering is deliberately forgiving, in the same spirit as the
//! parser: `match` expressions are kept opaque inside their enclosing
//! block (the arms never contain the lock and wait shapes the rules look
//! for), closures are lowered inline, and anything unrecognized just
//! extends the current block. On weird-but-valid code the CFG degrades to
//! fewer, larger blocks — never to a crash or a spurious edge.

use crate::lexer::Token;

/// What kind of loop a [`LoopInfo`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `while <cond> { .. }` — the predicate is re-checked on every
    /// iteration by construction.
    While,
    /// `while let <pat> = <expr> { .. }`.
    WhileLet,
    /// `loop { .. }` — exits only via `break`/`return`.
    Loop,
    /// `for <pat> in <iter> { .. }`.
    For,
}

/// One loop found while lowering a body.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop kind.
    pub kind: LoopKind,
    /// Token index of the loop keyword.
    pub kw: usize,
    /// Token indices of the body's `{` and `}`.
    pub body: (usize, usize),
}

impl LoopInfo {
    /// True if token `idx` falls inside this loop's body.
    pub fn contains(&self, idx: usize) -> bool {
        idx > self.body.0 && idx < self.body.1
    }
}

/// A basic block: a maximal straight-line token span with its successors.
#[derive(Debug, Default)]
pub struct Block {
    /// Inclusive token span covered by the block's statements; `None` for
    /// synthesized empty blocks (join points, loop headers of `loop`).
    pub span: Option<(usize, usize)>,
    /// Indices of successor blocks.
    pub succs: Vec<usize>,
}

/// The control-flow graph of one fn body.
#[derive(Debug, Default)]
pub struct Cfg {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Every loop in the body, in source order of the loop keyword.
    pub loops: Vec<LoopInfo>,
}

impl Cfg {
    /// The innermost loop whose body contains token `idx`, if any.
    pub fn innermost_loop(&self, idx: usize) -> Option<&LoopInfo> {
        self.loops
            .iter()
            .filter(|l| l.contains(idx))
            .min_by_key(|l| l.body.1 - l.body.0)
    }

    /// The block whose span covers token `idx`, if any.
    pub fn block_of(&self, idx: usize) -> Option<usize> {
        self.blocks.iter().position(|b| {
            b.span.is_some_and(|(lo, hi)| idx >= lo && idx <= hi)
        })
    }

    /// Blocks reachable from `from` (inclusive), as a membership mask.
    pub fn reachable(&self, from: usize) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b >= seen.len() || seen[b] {
                continue;
            }
            seen[b] = true;
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        seen
    }
}

/// Lowers the body tokens between the brace pair `(open, close)`
/// (exclusive of the braces themselves) into a [`Cfg`].
pub fn build(tokens: &[Token], match_of: &[Option<usize>], open: usize, close: usize) -> Cfg {
    let mut b = Builder { tokens, match_of, cfg: Cfg::default() };
    let entry = b.new_block();
    let mut loop_stack = Vec::new();
    b.lower(open + 1, close, entry, &mut loop_stack);
    b.cfg
}

/// True if this loop's body can exit through a *conditional* `break` or
/// `return` — the shape that makes a bare `loop { .. wait() .. }` a
/// legitimate predicate loop. A `break`/`return` sitting directly in the
/// loop body (not nested under an inner `{`) exits unconditionally, which
/// is exactly the lost-wakeup shape the condvar rule flags.
pub fn loop_breaks_conditionally(
    tokens: &[Token],
    match_of: &[Option<usize>],
    lp: &LoopInfo,
) -> bool {
    let (open, close) = lp.body;
    let mut i = open + 1;
    let mut brace_depth = 0usize;
    let mut nested_loops = 0usize;
    while i < close {
        let t = &tokens[i];
        if t.is_punct("{") {
            brace_depth += 1;
        } else if t.is_punct("}") {
            brace_depth = brace_depth.saturating_sub(1);
            if nested_loops > 0 && brace_depth == 0 {
                nested_loops = 0;
            }
        } else if t.is_ident("while") || t.is_ident("for") || t.is_ident("loop") {
            // A `break` inside a nested loop targets that loop, not this
            // one; skip the nested body wholesale (but keep scanning it
            // for `return`, which exits the fn regardless).
            if let Some((nopen, nclose)) = body_braces(tokens, match_of, i) {
                let nested_returns = (nopen + 1..nclose)
                    .any(|k| tokens[k].is_ident("return"));
                if nested_returns {
                    return true;
                }
                i = nclose + 1;
                continue;
            }
            nested_loops += 1;
        } else if (t.is_ident("break") || t.is_ident("return")) && brace_depth >= 1 {
            return true;
        }
        i += 1;
    }
    false
}

/// Finds the `{`/`}` pair of the body following a control keyword at
/// `kw`: the first `{` at paren/bracket depth 0 after the header.
fn body_braces(
    tokens: &[Token],
    match_of: &[Option<usize>],
    kw: usize,
) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut k = kw + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("{") {
            let close = match_of.get(k).copied().flatten()?;
            return Some((k, close));
        } else if depth == 0 && (t.is_punct(";") || t.is_punct("}")) {
            return None;
        }
        k += 1;
    }
    None
}

struct Builder<'a> {
    tokens: &'a [Token],
    match_of: &'a [Option<usize>],
    cfg: Cfg,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        self.cfg.blocks.push(Block::default());
        self.cfg.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.cfg.blocks[from].succs.contains(&to) {
            self.cfg.blocks[from].succs.push(to);
        }
    }

    fn extend_span(&mut self, block: usize, idx: usize) {
        let span = &mut self.cfg.blocks[block].span;
        *span = match *span {
            None => Some((idx, idx)),
            Some((lo, hi)) => Some((lo.min(idx), hi.max(idx))),
        };
    }

    /// Lowers tokens in `[lo, hi)` starting in block `cur`. Returns the
    /// block control falls out of, or `None` if every path diverges
    /// (`return` / `break` / `continue`).
    ///
    /// `loop_stack` carries `(header_block, after_block)` per enclosing
    /// loop, innermost last, for `break`/`continue` edges.
    fn lower(
        &mut self,
        lo: usize,
        hi: usize,
        mut cur: usize,
        loop_stack: &mut Vec<(usize, usize)>,
    ) -> Option<usize> {
        let mut i = lo;
        while i < hi {
            let t = &self.tokens[i];
            if t.is_ident("if") {
                self.extend_span(cur, i);
                let Some((bopen, bclose)) = body_braces(self.tokens, self.match_of, i) else {
                    i += 1;
                    continue;
                };
                for k in i..bopen {
                    self.extend_span(cur, k);
                }
                let then_entry = self.new_block();
                self.edge(cur, then_entry);
                let then_exit = self.lower(bopen + 1, bclose, then_entry, loop_stack);
                let join = self.new_block();
                if let Some(e) = then_exit {
                    self.edge(e, join);
                }
                // `else` / `else if` chain.
                let mut k = bclose + 1;
                let mut has_else = false;
                if self.tokens.get(k).is_some_and(|t| t.is_ident("else")) {
                    has_else = true;
                    let else_entry = self.new_block();
                    self.edge(cur, else_entry);
                    let else_exit = if self.tokens.get(k + 1).is_some_and(|t| t.is_ident("if"))
                        || self.tokens.get(k + 1).is_some_and(|t| t.is_punct("{"))
                    {
                        if let Some((eopen, eclose)) =
                            body_braces(self.tokens, self.match_of, k)
                        {
                            for m in k..=eopen.saturating_sub(1) {
                                self.extend_span(else_entry, m);
                            }
                            let exit =
                                self.lower(eopen + 1, eclose, else_entry, loop_stack);
                            k = eclose + 1;
                            exit
                        } else {
                            Some(else_entry)
                        }
                    } else {
                        Some(else_entry)
                    };
                    if let Some(e) = else_exit {
                        self.edge(e, join);
                    }
                }
                if !has_else {
                    self.edge(cur, join);
                }
                cur = join;
                i = k;
                continue;
            }
            if t.is_ident("while") || t.is_ident("for") || t.is_ident("loop") {
                let Some((bopen, bclose)) = body_braces(self.tokens, self.match_of, i) else {
                    self.extend_span(cur, i);
                    i += 1;
                    continue;
                };
                let kind = if t.is_ident("for") {
                    LoopKind::For
                } else if t.is_ident("loop") {
                    LoopKind::Loop
                } else if self.tokens.get(i + 1).is_some_and(|n| n.is_ident("let")) {
                    LoopKind::WhileLet
                } else {
                    LoopKind::While
                };
                self.cfg.loops.push(LoopInfo { kind, kw: i, body: (bopen, bclose) });
                let header = self.new_block();
                self.edge(cur, header);
                for k in i..bopen {
                    self.extend_span(header, k);
                }
                let after = self.new_block();
                if kind != LoopKind::Loop {
                    // `while`/`for` fall through when the condition /
                    // iterator is exhausted; `loop` only exits via break.
                    self.edge(header, after);
                }
                let body_entry = self.new_block();
                self.edge(header, body_entry);
                loop_stack.push((header, after));
                let body_exit = self.lower(bopen + 1, bclose, body_entry, loop_stack);
                loop_stack.pop();
                if let Some(e) = body_exit {
                    self.edge(e, header);
                }
                cur = after;
                i = bclose + 1;
                continue;
            }
            if t.is_ident("match") {
                // Opaque: the whole match (header + arms) stays in the
                // current block.
                if let Some((_, bclose)) = body_braces(self.tokens, self.match_of, i) {
                    for k in i..=bclose.min(hi.saturating_sub(1)) {
                        self.extend_span(cur, k);
                    }
                    i = bclose + 1;
                    continue;
                }
                self.extend_span(cur, i);
                i += 1;
                continue;
            }
            if t.is_ident("return") || t.is_ident("break") || t.is_ident("continue") {
                self.extend_span(cur, i);
                match (t.text.as_str(), loop_stack.last().copied()) {
                    ("break", Some((_, after))) => self.edge(cur, after),
                    ("continue", Some((header, _))) => self.edge(cur, header),
                    _ => {}
                }
                // Skip the rest of the statement, then continue in a
                // fresh, unconnected block (unreachable until proven
                // otherwise by a label-free analysis we don't attempt).
                let mut k = i + 1;
                let mut depth = 0i32;
                while k < hi {
                    let tk = &self.tokens[k];
                    if tk.is_punct("(") || tk.is_punct("[") || tk.is_punct("{") {
                        depth += 1;
                    } else if tk.is_punct(")") || tk.is_punct("]") || tk.is_punct("}") {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if depth == 0 && tk.is_punct(";") {
                        self.extend_span(cur, k);
                        k += 1;
                        break;
                    }
                    self.extend_span(cur, k);
                    k += 1;
                }
                cur = self.new_block();
                i = k;
                continue;
            }
            if t.is_punct("{") {
                // Bare block (or closure body): lower inline.
                if let Some(close) = self.match_of.get(i).copied().flatten() {
                    if close < hi {
                        match self.lower(i + 1, close, cur, loop_stack) {
                            Some(exit) => cur = exit,
                            None => cur = self.new_block(),
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
            self.extend_span(cur, i);
            i += 1;
        }
        // A region that ended right after a divergence falls out of the
        // fresh unconnected block — edges drawn *from* it are harmless
        // because nothing edges *into* it, so reachability stays honest.
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> (Vec<crate::lexer::Token>, Vec<Option<usize>>, Cfg) {
        let toks = lex(src).tokens;
        let parsed = parse(&toks);
        let item = parsed
            .items
            .iter()
            .find(|i| i.kind == crate::parser::ItemKind::Fn)
            .expect("fixture has a fn");
        let (open, close) = item.body.expect("fn has a body");
        let cfg = build(&toks, &parsed.match_of, open, close);
        (toks, parsed.match_of, cfg)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, _, cfg) = cfg_of("fn f() { let a = 1; let b = a + 2; g(b); }");
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(cfg.loops.is_empty());
    }

    #[test]
    fn if_else_branches_and_joins() {
        let (_, _, cfg) = cfg_of("fn f(x: u32) { if x > 1 { a(); } else { b(); } c(); }");
        // entry, then, join, else — entry branches to then and else, both
        // reach the join, and `c()` lives in the join.
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        let reach = cfg.reachable(0);
        assert!(reach.iter().all(|&r| r), "all blocks reachable from entry");
    }

    #[test]
    fn if_without_else_falls_through() {
        let (_, _, cfg) = cfg_of("fn f(x: u32) { if x > 1 { a(); } c(); }");
        assert_eq!(cfg.blocks.len(), 3);
        // Entry reaches the join both through and around the then-block.
        let reach = cfg.reachable(0);
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn while_loop_has_backedge_and_kind() {
        let (_, _, cfg) = cfg_of("fn f(mut n: u32) { while n > 0 { n -= 1; } done(); }");
        assert_eq!(cfg.loops.len(), 1);
        assert_eq!(cfg.loops[0].kind, LoopKind::While);
        let header = 1; // entry=0, header=1 by construction order
        let backedges = cfg
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| *i != 0 && b.succs.contains(&header))
            .count();
        assert!(backedges >= 1, "the body block edges back to the loop header");
    }

    #[test]
    fn loop_kinds_are_classified() {
        let (_, _, cfg) = cfg_of(
            "fn f(v: &[u32]) { loop { if a() { break; } } while let Some(x) = b() { c(x); } \
             for x in v { d(x); } }",
        );
        let kinds: Vec<LoopKind> = cfg.loops.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![LoopKind::Loop, LoopKind::WhileLet, LoopKind::For]);
    }

    #[test]
    fn innermost_loop_picks_the_tightest() {
        let (toks, _, cfg) =
            cfg_of("fn f() { while a() { loop { if b() { break; } poll(); } } }");
        let poll = toks.iter().position(|t| t.is_ident("poll")).unwrap();
        assert_eq!(cfg.innermost_loop(poll).unwrap().kind, LoopKind::Loop);
        let outer_probe = toks.iter().position(|t| t.is_ident("loop")).unwrap();
        assert_eq!(cfg.innermost_loop(outer_probe).unwrap().kind, LoopKind::While);
    }

    #[test]
    fn conditional_break_detection() {
        let (toks, match_of, cfg) =
            cfg_of("fn f() { loop { if done() { break; } step(); } }");
        assert!(loop_breaks_conditionally(&toks, &match_of, &cfg.loops[0]));
        let (toks, match_of, cfg) = cfg_of("fn f() { loop { step(); break; } }");
        assert!(
            !loop_breaks_conditionally(&toks, &match_of, &cfg.loops[0]),
            "a bare break is unconditional"
        );
        let (toks, match_of, cfg) = cfg_of("fn f() { loop { step(); } }");
        assert!(!loop_breaks_conditionally(&toks, &match_of, &cfg.loops[0]));
    }

    #[test]
    fn nested_loop_break_does_not_count_for_the_outer() {
        let (toks, match_of, cfg) =
            cfg_of("fn f() { loop { while a() { if b() { break; } } step(); } }");
        let outer = cfg.loops.iter().find(|l| l.kind == LoopKind::Loop).unwrap();
        assert!(
            !loop_breaks_conditionally(&toks, &match_of, outer),
            "the break targets the inner while"
        );
    }

    #[test]
    fn nested_return_counts_for_the_outer() {
        let (toks, match_of, cfg) =
            cfg_of("fn f() { loop { while a() { if b() { return; } } step(); } }");
        let outer = cfg.loops.iter().find(|l| l.kind == LoopKind::Loop).unwrap();
        assert!(loop_breaks_conditionally(&toks, &match_of, outer));
    }

    #[test]
    fn return_terminates_the_block() {
        let (toks, _, cfg) = cfg_of("fn f(x: u32) -> u32 { if x > 0 { return 1; } after() }");
        let after = toks.iter().position(|t| t.is_ident("after")).unwrap();
        let ret = toks.iter().position(|t| t.is_ident("return")).unwrap();
        let (ab, rb) = (cfg.block_of(after).unwrap(), cfg.block_of(ret).unwrap());
        assert_ne!(ab, rb, "code after a return starts a new block");
        assert!(!cfg.blocks[rb].succs.contains(&ab), "return does not fall through");
    }

    #[test]
    fn match_is_opaque() {
        let (_, _, cfg) =
            cfg_of("fn f(x: u32) { match x { 0 => a(), _ => b(), } c(); }");
        assert_eq!(cfg.blocks.len(), 1, "match stays inside its enclosing block");
    }
}
