//! The semantic (parser-backed) determinism rules.
//!
//! Unlike the token-pattern rules in [`crate::rules`], the rules here use
//! the structural view from [`crate::parser`] and the workspace symbol
//! table from [`crate::symbols`]: they resolve imports and aliases, know
//! the types of fields declared in other files, and follow delimiter
//! pairing instead of guessing at brace depth. The layer-3 rules at the
//! bottom of the file go further and consume [`crate::cfg`] control-flow
//! graphs and the [`crate::dataflow`] interprocedural effect fixpoint.
//! Each protects the same invariant as the rest of the tool — that the
//! full-recompute and incremental engines produce bit-identical
//! results — against a bug class that is invisible at the single-line
//! lexical level.

use crate::cfg::{self, LoopKind};
use crate::dataflow::EffectSet;
use crate::engine::{FileContext, FileKind, Finding};
use crate::lexer::TokenKind;
use crate::parser::{let_bindings, Container, ItemKind};
use std::collections::BTreeSet;

/// Crates whose iteration order and float flow feed engine state or
/// serialized output; `hash-order-iteration` and `lossy-float-cast` are
/// scoped to them.
const ORDER_SENSITIVE_CRATES: &[&str] = &["core", "model", "num", "overlay", "pubsub"];

/// Hash-based std containers whose iteration order is randomly seeded.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Iterator-producing methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "values", "values_mut", "keys", "into_iter", "into_values",
    "into_keys", "drain",
];

/// Chain terminals whose result genuinely cannot depend on iteration
/// order (counting and pure existence checks).
const ORDER_FREE_TERMINALS: &[&str] = &["count", "len", "any", "all", "is_empty"];

/// Integer / narrower-float cast targets that lose f64 information.
const LOSSY_TARGETS: &[&str] =
    &["f32", "usize", "u64", "u32", "u16", "u8", "i64", "i32", "i16", "i8", "isize"];

/// Names a file binds to hash containers: the type names themselves
/// (including `use .. as` aliases) and every value (local, param, field in
/// this crate) declared with one of those types.
struct HashScope {
    type_names: BTreeSet<String>,
    value_names: BTreeSet<String>,
    /// True if the file can be mechanically switched to BTree containers:
    /// no `BTreeMap`/`BTreeSet` ident already present to collide with.
    fixable: bool,
}

fn hash_scope(ctx: &FileContext) -> HashScope {
    let mut type_names: BTreeSet<String> =
        HASH_TYPES.iter().map(|s| s.to_string()).collect();
    for u in &ctx.parsed.uses {
        if HASH_TYPES.iter().any(|t| ctx.parsed.resolves_to(&u.local, t)) {
            type_names.insert(u.local.clone());
        }
    }
    let is_hash_head = |head: &str| type_names.contains(head);
    let mut value_names = BTreeSet::new();
    for item in &ctx.parsed.items {
        if let Some(sig) = &item.sig {
            for (name, ty) in &sig.params {
                if is_hash_head(&ty.head) {
                    value_names.insert(name.clone());
                }
            }
        }
        for (name, ty) in &item.fields {
            if is_hash_head(&ty.head) {
                value_names.insert(name.clone());
            }
        }
    }
    for b in let_bindings(ctx.tokens, 0, ctx.tokens.len()) {
        let hash_ty = b.ty.as_ref().is_some_and(|t| is_hash_head(&t.head));
        let hash_init = b.init_head.as_ref().is_some_and(|h| is_hash_head(h));
        if hash_ty || hash_init {
            value_names.insert(b.name);
        }
    }
    let fixable = !ctx
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && (t.text == "BTreeMap" || t.text == "BTreeSet"));
    HashScope { type_names, value_names, fixable }
}

/// Resolves the root identifier of a place expression ending at token
/// `j` (inclusive): walks back over `.field` / `[index]` / `(..)` chains
/// and returns the index of the leftmost identifier.
fn place_root(ctx: &FileContext, mut j: usize) -> Option<usize> {
    loop {
        let t = ctx.tokens.get(j)?;
        if t.is_punct("]") || t.is_punct(")") {
            j = ctx.parsed.match_of.get(j).copied().flatten()?.checked_sub(1)?;
            continue;
        }
        if t.kind != TokenKind::Ident {
            return None;
        }
        // `a.b` / `a::b`: keep walking left past the separator.
        match j.checked_sub(2) {
            Some(prev) if ctx.tokens[j - 1].is_punct(".") || ctx.tokens[j - 1].is_punct("::") => {
                j = prev;
            }
            _ => return Some(j),
        }
    }
}

/// True if the expression token at `idx` denotes a hash-typed value:
/// a hash type name, a hash-typed local/param/field name, `self.field`
/// with a hash-typed field in this crate, or a call of a function whose
/// declared return type is hash-based.
fn is_hash_expr(ctx: &FileContext, scope: &HashScope, idx: usize) -> bool {
    let t = &ctx.tokens[idx];
    if t.kind == TokenKind::Ident {
        if scope.type_names.contains(&t.text) || scope.value_names.contains(&t.text) {
            return true;
        }
        // Field access `recv.name`: resolve the field's declared type
        // anywhere in this crate via the workspace symbol table.
        if idx >= 2 && ctx.tokens[idx - 1].is_punct(".") {
            if let Some(head) = ctx.symbols.field_head(ctx.krate, &t.text) {
                return HASH_TYPES.contains(&head.head.as_str());
            }
        }
        return false;
    }
    if t.is_punct(")") {
        // `accessor()` returning a hash container.
        if let Some(open) = ctx.parsed.match_of.get(idx).copied().flatten() {
            if open >= 1 && ctx.tokens[open - 1].kind == TokenKind::Ident {
                if let Some(head) = ctx.symbols.fn_return_head(ctx.krate, &ctx.tokens[open - 1].text)
                {
                    return HASH_TYPES.contains(&head.head.as_str());
                }
            }
        }
    }
    false
}

/// `hash-order-iteration`: iteration over a hash container whose result
/// can reach engine state or output.
pub fn hash_order_iteration(ctx: &FileContext) -> Vec<Finding> {
    if !ctx.krate.is_some_and(|k| ORDER_SENSITIVE_CRATES.contains(&k)) {
        return Vec::new();
    }
    let scope = hash_scope(ctx);
    let toks = ctx.tokens;
    let mut out = Vec::new();
    let mut for_headers: Vec<(usize, usize)> = Vec::new();

    // Case 1: `for pat in <hash expr> { body }` where the body lets
    // anything escape (writes an outer place, grows an outer collection,
    // or returns).
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("for") || ctx.in_test(i) {
            continue;
        }
        let Some((in_idx, body_open)) = for_loop_shape(ctx, i) else { continue };
        for_headers.push((i, body_open));
        let header_hash =
            (in_idx + 1..body_open).any(|k| is_hash_expr(ctx, &scope, k));
        if !header_hash {
            continue;
        }
        let Some(body_close) = ctx.parsed.match_of.get(body_open).copied().flatten() else {
            continue;
        };
        let loop_vars: BTreeSet<String> = toks[i + 1..in_idx]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text != "mut")
            .map(|t| t.text.clone())
            .collect();
        let body_locals: BTreeSet<String> = let_bindings(toks, body_open + 1, body_close)
            .into_iter()
            .map(|b| b.name)
            .collect();
        let is_local = |root_idx: usize| -> bool {
            let name = &toks[root_idx].text;
            loop_vars.contains(name) || body_locals.contains(name)
        };
        let mut escapes = false;
        for k in body_open + 1..body_close {
            let tk = &toks[k];
            if tk.is_ident("return") {
                escapes = true;
                break;
            }
            let is_assign = tk.kind == TokenKind::Punct
                && matches!(tk.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=");
            if is_assign && k > body_open + 1 {
                if let Some(root) = place_root(ctx, k - 1) {
                    if !is_local(root) {
                        escapes = true;
                        break;
                    }
                }
            }
            let grows = tk.kind == TokenKind::Ident
                && matches!(tk.text.as_str(), "push" | "push_back" | "insert" | "extend" | "entry")
                && k >= 2
                && toks[k - 1].is_punct(".")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("));
            if grows {
                if let Some(root) = place_root(ctx, k - 2) {
                    if !is_local(root) {
                        escapes = true;
                        break;
                    }
                }
            }
        }
        if escapes {
            out.push(hash_finding(ctx, &scope, i, "a `for` loop over"));
        }
    }

    // Case 2: iterator chains `<hash expr>.values()...` not ending in an
    // order-free terminal. Chains inside a for-loop header are case 1's
    // job (the loop decides by escape analysis).
    for (i, t) in toks.iter().enumerate() {
        let is_iter_call = t.kind == TokenKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_iter_call || ctx.in_test(i) {
            continue;
        }
        if for_headers.iter().any(|&(f, open)| i > f && i < open) {
            continue;
        }
        if !is_hash_expr(ctx, &scope, i - 2) {
            continue;
        }
        // Walk the method chain to its terminal.
        let mut terminal = t.text.clone();
        let mut close = ctx.parsed.match_of.get(i + 1).copied().flatten();
        while let Some(c) = close {
            let next_is_method = toks.get(c + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(c + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                && toks.get(c + 3).is_some_and(|n| n.is_punct("("));
            if !next_is_method {
                break;
            }
            terminal = toks[c + 2].text.clone();
            close = ctx.parsed.match_of.get(c + 3).copied().flatten();
        }
        if ORDER_FREE_TERMINALS.contains(&terminal.as_str()) {
            continue;
        }
        if feeds_sorted_snapshot(ctx, i) {
            continue;
        }
        out.push(hash_finding(ctx, &scope, i, "an iterator chain over"));
    }

    // Case 3: hash-typed fields in structs that derive a representation-
    // exposing trait — serialization and comparison iterate the container.
    const EXPOSING: &[&str] = &["Serialize", "Deserialize", "PartialEq", "Eq", "Hash"];
    for item in &ctx.parsed.items {
        if item.kind != ItemKind::Struct || ctx.in_test(item.kw) {
            continue;
        }
        let exposed: Vec<&str> = item
            .derives
            .iter()
            .filter(|d| EXPOSING.contains(&d.as_str()))
            .map(|d| d.as_str())
            .collect();
        if exposed.is_empty() {
            continue;
        }
        for (name, ty) in &item.fields {
            if scope.type_names.contains(&ty.head) {
                let msg = format!(
                    "field `{name}: {}<..>` in a struct deriving {}: serializing or \
                     comparing it walks randomly-seeded hash order, so two identical \
                     runs produce different bytes; use BTreeMap/BTreeSet or a sorted \
                     snapshot",
                    ty.head,
                    exposed.join("/"),
                );
                let mut f = ctx.finding("hash-order-iteration", item.kw, msg);
                f.fixable = scope.fixable;
                out.push(f);
            }
        }
    }
    out
}

/// True if the chain token at `i` sits in the initializer of a `let`
/// binding that is later explicitly sorted (`name.sort*()`): collecting
/// into a vec and sorting it is the documented remediation for hash
/// iteration, so flagging it would fight the rule's own advice.
fn feeds_sorted_snapshot(ctx: &FileContext, i: usize) -> bool {
    let toks = ctx.tokens;
    for b in let_bindings(toks, 0, toks.len()) {
        // Locate the binding's `=` (giving up at a statement boundary).
        let mut k = b.idx + 1;
        let mut eq = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                break;
            }
            if t.is_punct("=") {
                eq = Some(k);
                break;
            }
            k += 1;
        }
        let Some(eq) = eq else { continue };
        if i <= eq {
            continue;
        }
        // Find the terminating `;`, skipping matched groups.
        let mut k = eq + 1;
        let mut semi = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                match ctx.parsed.match_of.get(k).copied().flatten() {
                    Some(close) => k = close + 1,
                    None => break,
                }
                continue;
            }
            if t.is_punct(";") {
                semi = Some(k);
                break;
            }
            k += 1;
        }
        let Some(semi) = semi else { continue };
        if i >= semi {
            continue;
        }
        let sorted_later = (semi..toks.len()).any(|j| {
            toks[j].kind == TokenKind::Ident
                && toks[j].text == b.name
                && toks.get(j + 1).is_some_and(|n| n.is_punct("."))
                && toks
                    .get(j + 2)
                    .is_some_and(|n| n.kind == TokenKind::Ident && n.text.starts_with("sort"))
        });
        if sorted_later {
            return true;
        }
    }
    false
}

fn hash_finding(ctx: &FileContext, scope: &HashScope, idx: usize, what: &str) -> Finding {
    let msg = format!(
        "{what} a HashMap/HashSet whose result escapes (reaches state, output, or a \
         caller): std hash iteration order is randomly seeded per process, so this \
         path is not reproducible; use BTreeMap/BTreeSet or iterate a sorted key \
         snapshot"
    );
    let mut f = ctx.finding("hash-order-iteration", idx, msg);
    f.fixable = scope.fixable;
    f
}

/// Locates the `in` keyword and body `{` of the `for` loop whose keyword
/// sits at `for_idx`. Returns `None` for `impl .. for ..` headers.
fn for_loop_shape(ctx: &FileContext, for_idx: usize) -> Option<(usize, usize)> {
    let toks = ctx.tokens;
    let mut depth = 0i32;
    let mut k = for_idx + 1;
    let mut in_idx = None;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            in_idx = Some(k);
            break;
        } else if depth == 0 && t.is_punct("{") {
            return None;
        }
        k += 1;
    }
    let in_idx = in_idx?;
    let mut depth = 0i32;
    let mut k = in_idx + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("{") {
            return Some((in_idx, k));
        }
        k += 1;
    }
    None
}

/// `shared-mut-across-threads`: mutable state crossing a `spawn` boundary
/// without synchronization.
pub fn shared_mut_across_threads(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = ctx.tokens;
    // Names bound to Cell/RefCell anywhere in the file: capturing one of
    // these into a thread is a race even without a `&mut` token.
    let mut cellish: BTreeSet<String> = BTreeSet::new();
    for b in let_bindings(toks, 0, toks.len()) {
        let is_cell = |h: &str| h == "Cell" || h == "RefCell";
        if b.ty.as_ref().is_some_and(|t| is_cell(&t.head))
            || b.init_head.as_deref().is_some_and(is_cell)
        {
            cellish.insert(b.name);
        }
    }
    for item in &ctx.parsed.items {
        if let Some(sig) = &item.sig {
            for (name, ty) in &sig.params {
                if ty.head == "Cell" || ty.head == "RefCell" {
                    cellish.insert(name.clone());
                }
            }
        }
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("spawn") || ctx.in_test(i) {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|n| n.is_punct("(")).map(|_| i + 1) else {
            continue;
        };
        let Some(close) = ctx.parsed.match_of.get(open).copied().flatten() else { continue };
        // Locate the closure inside the spawn call.
        let mut j = open + 1;
        let mut params_open = None;
        while j < close {
            if toks[j].is_punct("|") || toks[j].is_punct("||") {
                params_open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(params_open) = params_open else { continue };
        let has_move = params_open >= 1 && toks[params_open - 1].is_ident("move");
        let (body_lo, mut closure_locals): (usize, BTreeSet<String>) =
            if toks[params_open].is_punct("||") {
                (params_open + 1, BTreeSet::new())
            } else {
                let mut end = params_open + 1;
                while end < close && !toks[end].is_punct("|") {
                    end += 1;
                }
                let names = toks[params_open + 1..end]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident && t.text != "mut")
                    .map(|t| t.text.clone())
                    .collect();
                (end + 1, names)
            };
        for b in let_bindings(toks, body_lo, close) {
            closure_locals.insert(b.name);
        }
        for k in body_lo..close {
            let tk = &toks[k];
            // `&mut name` reaching out of the closure.
            if tk.is_punct("&")
                && toks.get(k + 1).is_some_and(|n| n.is_ident("mut"))
                && toks.get(k + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let name = &toks[k + 2].text;
                if !closure_locals.contains(name) {
                    out.push(ctx.finding(
                        "shared-mut-across-threads",
                        k,
                        format!(
                            "`&mut {name}` captured across a spawn boundary: two workers \
                             holding it race, and the winner depends on the scheduler; \
                             move disjoint chunks into each worker or merge results \
                             deterministically after join"
                        ),
                    ));
                }
            }
            if tk.kind != TokenKind::Ident {
                continue;
            }
            // Unsynchronized `static mut` named anywhere in this crate.
            if ctx.symbols.is_mut_static(ctx.krate, &tk.text) {
                out.push(ctx.finding(
                    "shared-mut-across-threads",
                    k,
                    format!(
                        "`static mut {}` touched inside a spawned closure: unsynchronized \
                         static access across threads is a data race; use an atomic or \
                         pass per-worker state explicitly",
                        tk.text
                    ),
                ));
            }
            // Cell/RefCell captured into the thread.
            if cellish.contains(&tk.text) && !closure_locals.contains(&tk.text) {
                out.push(ctx.finding(
                    "shared-mut-across-threads",
                    k,
                    format!(
                        "`{}` is Cell/RefCell-typed and crosses a spawn boundary: interior \
                         mutability without Sync is a race (and RefCell panics); use \
                         Mutex/atomics or thread-local state",
                        tk.text
                    ),
                ));
            }
            // Writes to captured places from a non-`move` closure.
            if !has_move
                && toks.get(k + 1).is_some_and(|n| {
                    n.kind == TokenKind::Punct
                        && matches!(n.text.as_str(), "=" | "+=" | "-=" | "*=" | "/=")
                })
                && !closure_locals.contains(&tk.text)
                && place_root(ctx, k).is_some_and(|r| !closure_locals.contains(&toks[r].text))
            {
                out.push(ctx.finding(
                    "shared-mut-across-threads",
                    k,
                    format!(
                        "non-`move` spawn closure writes captured `{}`: the write aliases \
                         the spawning thread's binding; move ownership into the worker \
                         and return results through the join",
                        tk.text
                    ),
                ));
            }
        }
    }
    out
}

/// `lossy-float-cast`: `as <narrower>` applied to an expression with
/// positive `f64` evidence, in the order-sensitive crates.
pub fn lossy_float_cast(ctx: &FileContext) -> Vec<Finding> {
    if !ctx.krate.is_some_and(|k| ORDER_SENSITIVE_CRATES.contains(&k)) {
        return Vec::new();
    }
    let toks = ctx.tokens;
    // Names with declared f64 type: params and annotated locals.
    let mut f64_names: BTreeSet<String> = BTreeSet::new();
    for item in &ctx.parsed.items {
        if let Some(sig) = &item.sig {
            for (name, ty) in &sig.params {
                if ty.head == "f64" {
                    f64_names.insert(name.clone());
                }
            }
        }
        for (name, ty) in &item.fields {
            if ty.head == "f64" {
                f64_names.insert(name.clone());
            }
        }
    }
    for b in let_bindings(toks, 0, toks.len()) {
        if b.ty.as_ref().is_some_and(|t| t.head == "f64") {
            f64_names.insert(b.name);
        }
    }
    let ident_is_f64 = |idx: usize| -> bool {
        let t = &toks[idx];
        if t.kind != TokenKind::Ident {
            return t.kind == TokenKind::Float;
        }
        if t.text == "f64" || f64_names.contains(&t.text) {
            return true;
        }
        // Function-return evidence only applies to an actual call: a bare
        // ident sharing a name with an f64-returning fn (e.g. a `link: u32`
        // local next to `fn link(..) -> f64`) proves nothing.
        if toks.get(idx + 1).is_some_and(|n| n.is_punct("("))
            && ctx.symbols.fn_return_head(ctx.krate, &t.text).is_some_and(|h| h.head == "f64")
        {
            return true;
        }
        idx >= 1
            && toks[idx - 1].is_punct(".")
            && ctx.symbols.field_head(ctx.krate, &t.text).is_some_and(|h| h.head == "f64")
    };
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") || ctx.in_test(i) {
            continue;
        }
        let Some(target) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        if !LOSSY_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        // Walk the cast operand backwards collecting f64 evidence; `as`
        // binds tighter than arithmetic, so stop at any operator.
        let mut evidence = false;
        let mut j = i.checked_sub(1);
        while let Some(k) = j {
            let tk = &toks[k];
            if tk.is_punct(")") || tk.is_punct("]") {
                if let Some(open) = ctx.parsed.match_of.get(k).copied().flatten() {
                    evidence |= (open + 1..k).any(ident_is_f64);
                    j = open.checked_sub(1);
                    continue;
                }
                break;
            }
            if tk.kind == TokenKind::Ident || tk.kind == TokenKind::Float {
                evidence |= ident_is_f64(k);
                j = k.checked_sub(1);
                continue;
            }
            if tk.is_punct(".") || tk.is_punct("::") {
                j = k.checked_sub(1);
                continue;
            }
            break;
        }
        if evidence {
            out.push(ctx.finding(
                "lossy-float-cast",
                i,
                format!(
                    "`as {}` on an f64-carrying expression silently truncates: prices and \
                     rates lose precision differently across engines and platforms; keep \
                     the value in f64, or make the rounding explicit \
                     (`.round()`/`.floor()` + bounds check) and document it",
                    target.text
                ),
            ));
        }
    }
    out
}

/// `missing-must-use`: `Result`-returning public API without `#[must_use]`.
pub fn missing_must_use(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let mut out = Vec::new();
    for item in &ctx.parsed.items {
        // Trait-impl methods inherit the trait's attribute, and trait
        // declarations are out of scope for a mechanical insert.
        let eligible = item.kind == ItemKind::Fn
            && item.is_pub
            && matches!(item.container, Container::TopLevel | Container::InherentImpl)
            && !item.has_must_use
            && !ctx.in_test(item.kw);
        if !eligible {
            continue;
        }
        let returns_result =
            item.sig.as_ref().and_then(|s| s.ret.as_ref()).is_some_and(|r| r.head == "Result");
        if !returns_result {
            continue;
        }
        out.push(ctx.fixable_finding(
            "missing-must-use",
            item.kw,
            format!(
                "`pub fn {}` returns Result without `#[must_use = \"..\"]`: a dropped \
                 Result swallows the failure and the engine continues on stale state; \
                 annotate so callers must handle or explicitly discard it",
                item.name
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Layer-3 rules: CFG + call-graph + effect-fixpoint backed.
// ---------------------------------------------------------------------------

/// The body braces of the innermost fn item containing token `idx`.
fn enclosing_fn_body(ctx: &FileContext, idx: usize) -> Option<(usize, usize)> {
    ctx.parsed
        .items
        .iter()
        .filter(|it| it.kind == ItemKind::Fn)
        .filter_map(|it| it.body)
        .filter(|&(open, close)| idx > open && idx < close)
        .min_by_key(|&(open, close)| close - open)
}

/// `kernel-impure`: a fn declared under `crates/core/src/kernel/` whose
/// interprocedural effect set contains anything in
/// [`EffectSet::KERNEL_DENIED`] — directly or through any callee.
pub fn kernel_impure(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library
        || ctx.krate != Some("core")
        || !ctx.path.contains("/kernel/")
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for item in &ctx.parsed.items {
        if item.kind != ItemKind::Fn || ctx.in_test(item.kw) {
            continue;
        }
        let Some(i) = ctx.flow.graph.fn_at(ctx.path, item.kw) else { continue };
        let denied = ctx.flow.table.effects[i].intersect(EffectSet::KERNEL_DENIED);
        if !denied.is_empty() {
            out.push(ctx.finding(
                "kernel-impure",
                item.kw,
                format!(
                    "kernel fn `{}` acquires effects: {}; kernel::* is pure \
                     per-element math — the executor's full-recompute and \
                     incremental schedules call it in different counts, so \
                     any effect diverges them; hoist the effect into \
                     the executor and pass results in",
                    item.name,
                    ctx.flow.table.describe(i, denied)
                ),
            ));
        }
    }
    out
}

/// The cached-state structs of `crates/core` whose fields must never be
/// written without dirty-set marking. Derived-state structs, not inputs:
/// writing one of these without an exact `mark` is what silently breaks
/// incremental-vs-full bitwise equality.
const DIRTY_TRACKED_STRUCTS: &[&str] = &["StepState", "NodeTable"];

/// Field names inside the tracked structs that *are* the bookkeeping
/// (dirty lists, flags, scratch): writing them is the marking, not a
/// cached-state mutation.
fn is_dirty_bookkeeping_field(name: &str) -> bool {
    name.contains("dirty")
        || name.starts_with("changed")
        || name.ends_with("_scratch")
        || matches!(name, "first" | "force_utility" | "panic_on_flow")
}

/// Field-chain members of the place expression ending at token `end`
/// (inclusive): for `s.rates[i]` returns `[("rates", idx)]`. Bare roots
/// are deliberately not collected — only `.field` accesses can denote the
/// tracked structs' state.
fn lhs_field_members(ctx: &FileContext, mut j: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    loop {
        let Some(t) = ctx.tokens.get(j) else { return out };
        if t.is_punct("]") || t.is_punct(")") {
            let Some(open) = ctx.parsed.match_of.get(j).copied().flatten() else {
                return out;
            };
            let Some(prev) = open.checked_sub(1) else { return out };
            j = prev;
            continue;
        }
        if t.kind != TokenKind::Ident {
            return out;
        }
        let Some(prev2) = j.checked_sub(2) else { return out };
        if ctx.tokens[j - 1].is_punct(".") {
            out.push((t.text.clone(), j));
            j = prev2;
        } else if ctx.tokens[j - 1].is_punct("::") {
            j = prev2;
        } else {
            return out;
        }
    }
}

/// `unmarked-dirty-write`: an assignment to a cached field of
/// `StepState`/`NodeTable` inside a fn whose transitive effects never
/// touch the dirty-set API.
pub fn unmarked_dirty_write(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library || ctx.krate != Some("core") {
        return Vec::new();
    }
    let mut cached: BTreeSet<&str> = BTreeSet::new();
    for s in DIRTY_TRACKED_STRUCTS {
        if let Some(fields) = ctx.symbols.fields_of(Some("core"), s) {
            cached.extend(
                fields.iter().map(String::as_str).filter(|f| !is_dirty_bookkeeping_field(f)),
            );
        }
    }
    if cached.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for item in &ctx.parsed.items {
        if item.kind != ItemKind::Fn || ctx.in_test(item.kw) {
            continue;
        }
        let Some((open, close)) = item.body else { continue };
        let marks = ctx
            .flow
            .effects_at(ctx.path, item.kw)
            .is_some_and(|e| e.contains(EffectSet::DIRTY_API));
        if marks {
            continue;
        }
        for k in open + 1..close.min(ctx.tokens.len()) {
            let tk = &ctx.tokens[k];
            let is_assign = tk.kind == TokenKind::Punct
                && matches!(
                    tk.text.as_str(),
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^="
                );
            if !is_assign || k == 0 {
                continue;
            }
            let hit = lhs_field_members(ctx, k - 1)
                .into_iter()
                .find(|(name, _)| cached.contains(name.as_str()));
            if let Some((name, at)) = hit {
                out.push(ctx.finding(
                    "unmarked-dirty-write",
                    at,
                    format!(
                        "fn `{}` writes cached field `{name}` but never reaches the \
                         dirty-set API: incremental mode recomputes only marked \
                         nodes, so an unmarked write silently diverges it from the \
                         full solve; pair the write with `mark`/`note_*` (directly \
                         or via a marking helper)",
                        item.name
                    ),
                ));
            }
        }
    }
    out
}

/// `condvar-wait-no-predicate-loop`: a `Condvar::wait`/`wait_timeout`
/// call whose innermost enclosing loop does not re-check a predicate —
/// or that sits in no loop at all. Spurious wakeups make such a wait a
/// lost-wakeup/early-continue bug. `wait_while` is self-predicated and
/// exempt.
pub fn condvar_wait_no_predicate_loop(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_wait = (t.is_ident("wait") || t.is_ident("wait_timeout"))
            && i >= 1
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_wait || ctx.in_test(i) {
            continue;
        }
        // A condvar wait takes the guard as its first argument; a bare
        // ident there distinguishes it from `Child::wait()` and friends.
        if !toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident) {
            continue;
        }
        let Some((open, close)) = enclosing_fn_body(ctx, i) else { continue };
        let body_cfg = cfg::build(toks, &ctx.parsed.match_of, open, close);
        let verdict = match body_cfg.innermost_loop(i) {
            None => Some("sits in no loop"),
            Some(lp) => match lp.kind {
                LoopKind::While | LoopKind::WhileLet | LoopKind::For => None,
                LoopKind::Loop => {
                    if cfg::loop_breaks_conditionally(toks, &ctx.parsed.match_of, lp) {
                        None
                    } else {
                        Some("sits in a `loop` with no conditional exit")
                    }
                }
            },
        };
        if let Some(why) = verdict {
            out.push(ctx.finding(
                "condvar-wait-no-predicate-loop",
                i,
                format!(
                    "`.{}()` {why}: condvar wakeups are spurious and coalesced, so \
                     a wait that is not re-entered by a predicate check either \
                     hangs (lost wakeup) or continues early; use \
                     `while !predicate {{ guard = cv.wait(guard)?; }}` or \
                     `wait_while`",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Method names that acquire a guard when they appear in a `let`
/// initializer.
fn is_lock_acquisition(ctx: &FileContext, k: usize) -> bool {
    let toks = ctx.tokens;
    let t = &toks[k];
    if t.kind != TokenKind::Ident {
        return false;
    }
    let next_call = toks.get(k + 1).is_some_and(|n| n.is_punct("("));
    match t.text.as_str() {
        "lock_unpoisoned" => next_call,
        "lock" | "try_lock" => next_call && k >= 1 && toks[k - 1].is_punct("."),
        // Zero-arg `.read()` / `.write()` (RwLock); with args they are IO.
        "read" | "write" => {
            next_call
                && k >= 1
                && toks[k - 1].is_punct(".")
                && toks.get(k + 2).is_some_and(|n| n.is_punct(")"))
        }
        _ => false,
    }
}

/// Blocking calls that must not run while a guard is live. `.wait()` is
/// exempt: a condvar wait releases the guard it is given.
fn is_blocking_park(ctx: &FileContext, k: usize) -> Option<&'static str> {
    let toks = ctx.tokens;
    let t = &toks[k];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let next_call = toks.get(k + 1).is_some_and(|n| n.is_punct("("));
    let zero_arg = next_call && toks.get(k + 2).is_some_and(|n| n.is_punct(")"));
    match t.text.as_str() {
        "park" if zero_arg => Some("park()"),
        "recv" if zero_arg && k >= 1 && toks[k - 1].is_punct(".") => Some(".recv()"),
        "join" if zero_arg && k >= 1 && toks[k - 1].is_punct(".") => Some(".join()"),
        "sleep" if next_call => Some("sleep(..)"),
        _ => None,
    }
}

/// `lock-held-across-park`: a guard bound by `let` is still in scope when
/// the thread parks, blocks on a channel, joins, or sleeps.
pub fn lock_held_across_park(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    for b in let_bindings(toks, 0, toks.len()) {
        if ctx.in_test(b.idx) {
            continue;
        }
        // Statement end: the `;` at depth 0 after the binding.
        let mut k = b.idx + 1;
        let mut semi = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                match ctx.parsed.match_of.get(k).copied().flatten() {
                    Some(close) => k = close + 1,
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
        if !(b.idx..semi).any(|k| is_lock_acquisition(ctx, k)) {
            continue;
        }
        // The guard lives from the `;` to the close of the innermost
        // enclosing brace — or an explicit `drop(name)`.
        let mut depth = 0i32;
        let mut k = semi + 1;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_ident("drop")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(k + 2).is_some_and(|n| n.is_ident(&b.name))
            {
                break;
            } else if let Some(what) = is_blocking_park(ctx, k) {
                out.push(ctx.finding(
                    "lock-held-across-park",
                    k,
                    format!(
                        "`{what}` while guard `{}` is live: blocking with a lock \
                         held stalls every other thread on that lock (and deadlocks \
                         if the blocked-on thread needs it); drop the guard first \
                         or scope it in a block",
                        b.name
                    ),
                ));
            }
            k += 1;
        }
    }
    out
}

/// `vector-escape`: lane-batched f64 accumulation shapes in `crates/core`
/// library code — `chunks_exact`-style reduction loops and manual
/// multi-accumulator unrolling. Reassociation changes f64 low bits, and
/// every core reduction must fold sequentially so that all plans agree bit
/// for bit, so no module is exempt.
pub fn vector_escape(ctx: &FileContext) -> Vec<Finding> {
    if ctx.kind != FileKind::Library || ctx.krate != Some("core") {
        return Vec::new();
    }
    let toks = ctx.tokens;
    let mut out = Vec::new();
    // Shape (a): `.chunks_exact(..)` / `.array_chunks(..)` feeding an
    // accumulation before the enclosing brace closes.
    for (i, t) in toks.iter().enumerate() {
        let is_chunks = (t.is_ident("chunks_exact") || t.is_ident("array_chunks"))
            && i >= 1
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_chunks || ctx.in_test(i) {
            continue;
        }
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut accumulates = false;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_punct("+=")
                || ((t.is_ident("sum") || t.is_ident("fold"))
                    && toks.get(k.wrapping_sub(1)).is_some_and(|p| p.is_punct(".")))
            {
                accumulates = true;
                break;
            }
            k += 1;
        }
        if accumulates {
            out.push(vector_finding(ctx, i, "a `chunks_exact`-style reduction"));
        }
    }
    // Shape (b): manual lane unrolling — two or more float accumulators
    // fed by `+=` in one loop body and recombined afterwards.
    for item in &ctx.parsed.items {
        if item.kind != ItemKind::Fn || ctx.in_test(item.kw) {
            continue;
        }
        let Some((open, close)) = item.body else { continue };
        let mut float_accs: BTreeSet<String> = BTreeSet::new();
        for k in open + 1..close.min(toks.len()) {
            if toks[k].is_ident("let")
                && toks.get(k + 1).is_some_and(|n| n.is_ident("mut"))
                && toks.get(k + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                && toks.get(k + 3).is_some_and(|n| n.is_punct("="))
                && toks.get(k + 4).is_some_and(|n| n.kind == TokenKind::Float)
            {
                float_accs.insert(toks[k + 2].text.clone());
            }
        }
        if float_accs.len() < 2 {
            continue;
        }
        let body_cfg = cfg::build(toks, &ctx.parsed.match_of, open, close);
        for lp in &body_cfg.loops {
            let fed: BTreeSet<&str> = (lp.body.0 + 1..lp.body.1)
                .filter(|&k| {
                    toks[k].kind == TokenKind::Ident
                        && float_accs.contains(&toks[k].text)
                        && toks.get(k + 1).is_some_and(|n| n.is_punct("+="))
                })
                .map(|k| toks[k].text.as_str())
                .collect();
            if fed.len() < 2 {
                continue;
            }
            let recombined = (lp.body.1 + 1..close.min(toks.len())).any(|k| {
                toks[k].kind == TokenKind::Ident
                    && fed.contains(toks[k].text.as_str())
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("+"))
                    && toks.get(k + 2).is_some_and(|n| {
                        n.kind == TokenKind::Ident
                            && fed.contains(n.text.as_str())
                            && n.text != toks[k].text
                    })
            });
            if recombined {
                out.push(vector_finding(ctx, lp.kw, "a manual multi-accumulator reduction"));
            }
        }
    }
    out
}

fn vector_finding(ctx: &FileContext, idx: usize, what: &str) -> Finding {
    ctx.finding(
        "vector-escape",
        idx,
        format!(
            "{what} in crates/core: lane-batched accumulation reassociates \
             f64 adds, which breaks the bitwise agreement every execution \
             plan promises; accumulate sequentially",
        ),
    )
}
