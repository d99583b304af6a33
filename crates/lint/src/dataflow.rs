//! Interprocedural purity/effect analysis: a forward dataflow fixpoint
//! over the workspace call graph.
//!
//! Each function gets an [`EffectSet`] — does it do IO, spawn threads,
//! touch sync primitives, read statics, take `&mut`, call into the
//! executor's dirty-set API? Local effects are recovered token-
//! structurally from the body; the fixpoint then unions callee effects
//! into callers until stable. The lattice is a finite powerset and every
//! transfer is monotone (callee sets only grow, and ambiguous names
//! resolve to the *intersection* of their candidates, which also only
//! grows), so termination is structural, and cycles in the call graph —
//! recursion, mutual recursion — converge instead of looping.
//!
//! The rules built on top treat the result asymmetrically: `kernel-impure`
//! wants "no effect" to be trustworthy, so detection errs toward flagging
//! (any sync-primitive method name counts as LOCK); `unmarked-dirty-write`
//! wants "touches the dirty API" to be easy to earn, so the DIRTY_API bit
//! matches generously (any dirty/changed bookkeeping name).

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::symbols::Symbols;
use std::collections::BTreeMap;

/// A set of effects, as a bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub struct EffectSet(pub u16);

impl EffectSet {
    /// No effects: pure per-element math.
    pub const EMPTY: EffectSet = EffectSet(0);
    /// Writes to stdout/stderr/files, or process interaction.
    pub const IO: EffectSet = EffectSet(1);
    /// Spawns a thread.
    pub const SPAWN: EffectSet = EffectSet(2);
    /// Acquires a lock or touches a sync primitive (Mutex/RwLock/Condvar).
    pub const LOCK: EffectSet = EffectSet(4);
    /// Reads or writes a `static mut`.
    pub const STATIC_MUT: EffectSet = EffectSet(8);
    /// Mentions a crate `static` (read access, possibly interior).
    pub const STATIC_READ: EffectSet = EffectSet(16);
    /// Reads the wall clock.
    pub const TIME: EffectSet = EffectSet(32);
    /// Ambient randomness.
    pub const RNG: EffectSet = EffectSet(64);
    /// Takes a `&mut` parameter (out-parameters; a signature property,
    /// not propagated to callers).
    pub const MUT_PARAM: EffectSet = EffectSet(128);
    /// Touches the executor's dirty-set bookkeeping (`mark`, `note_*`,
    /// `dirty_*`/`changed_*` state).
    pub const DIRTY_API: EffectSet = EffectSet(256);
    /// Heap allocation: container/`String` construction (`Vec::with_capacity`,
    /// `Box::new`, `vec!`, `format!`), `collect`, `to_vec`/`to_owned`,
    /// `clone` of a container, or growth of a locally constructed
    /// container. Growing a *caller-provided* `&mut` scratch buffer is
    /// deliberately not counted: amortized reuse of caller-owned capacity
    /// is the kernel contract's sanctioned idiom.
    pub const ALLOC: EffectSet = EffectSet(512);
    /// A reachable panic site: `unwrap`/`expect`, the panic macro family,
    /// non-test `assert!`, range slicing (`x[lo..hi]`), arithmetic
    /// indexing (`x[i + 1]`), or integer division by a variable.
    /// `debug_assert!` is excluded by policy — it compiles out of release
    /// builds, which are what the hot-path budget protects.
    pub const PANIC: EffectSet = EffectSet(1024);

    /// Effects a kernel function must not acquire, directly or through
    /// any callee. `STATIC_READ` (constant tables) and `MUT_PARAM`
    /// (caller-provided scratch) are part of the kernel contract and
    /// stay allowed.
    pub const KERNEL_DENIED: EffectSet = EffectSet(
        Self::IO.0 | Self::SPAWN.0 | Self::LOCK.0 | Self::STATIC_MUT.0 | Self::TIME.0
            | Self::RNG.0,
    );

    /// Effects denied on the declared hot-path roots (see
    /// `crates/lint/hot_paths.txt`): the steady-state step must neither
    /// allocate nor reach a panic in release builds.
    pub const HOT_DENIED: EffectSet = EffectSet(Self::ALLOC.0 | Self::PANIC.0);

    /// Set union.
    #[must_use = "union returns the combined set"]
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use = "intersect returns the common subset"]
    pub fn intersect(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & other.0)
    }

    /// True if every bit of `other` is present.
    pub fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no effect is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Human names of the set bits, stable order.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (bit, name) in [
            (Self::IO, "io"),
            (Self::SPAWN, "spawn"),
            (Self::LOCK, "lock"),
            (Self::STATIC_MUT, "static-mut"),
            (Self::STATIC_READ, "static-read"),
            (Self::TIME, "time"),
            (Self::RNG, "rng"),
            (Self::MUT_PARAM, "mut-param"),
            (Self::DIRTY_API, "dirty-api"),
            (Self::ALLOC, "alloc"),
            (Self::PANIC, "panic"),
        ] {
            if self.contains(bit) {
                out.push(name);
            }
        }
        out
    }

    fn bits(self) -> impl Iterator<Item = EffectSet> {
        (0..16).map(|i| EffectSet(1 << i)).filter(move |b| self.contains(*b))
    }
}

/// Effects that flow from callee to caller. `MUT_PARAM` describes a
/// signature, not a behavior: calling a fn that takes `&mut` does not
/// make the caller take `&mut`.
const PROPAGATED: EffectSet = EffectSet(!EffectSet::MUT_PARAM.0);

/// The dirty-set bookkeeping entry points in `crates/core` (see
/// `StepState` in `crates/core/src/exec.rs`): calling one of these, or
/// touching the `dirty_*`/`changed_*` lists directly, is what pairs a
/// cached-state write with its invalidation. `mark` and `clear_marks` are
/// the dirty-list set's methods; the clamps and `note_*` methods are how a
/// delta writes the state and marks what it moved.
const DIRTY_API_FNS: &[&str] = &[
    "mark",
    "clear_marks",
    "mark_all_dirty",
    "clamp_rate",
    "clamp_population",
    "clamp_rho",
    "note_capacity_change",
    "note_cost_edit",
    "note_flow_added",
];

/// Per-function analysis results, aligned with [`CallGraph::fns`].
#[derive(Debug, Default)]
pub struct EffectTable {
    /// Fixpoint effect set per fn.
    pub effects: Vec<EffectSet>,
    /// For each fn, the first-seen origin of each effect bit — a token
    /// spelling for local effects, `call to \`f\`` for inherited ones.
    pub origins: Vec<BTreeMap<u16, String>>,
    /// For each fn, the callee (by node index) through which each
    /// *inherited* effect bit first arrived; locally originated bits are
    /// absent. Following these links yields a call-chain witness without
    /// re-running the fixpoint.
    pub via: Vec<BTreeMap<u16, usize>>,
}

impl EffectTable {
    /// A short provenance string for the given bits of fn `i`, e.g.
    /// ``lock (via `lock_unpoisoned`), io (via call to `trace`)``.
    pub fn describe(&self, i: usize, bits: EffectSet) -> String {
        let mut parts = Vec::new();
        for bit in bits.bits() {
            let name = bit.names().first().copied().unwrap_or("?");
            match self.origins.get(i).and_then(|m| m.get(&bit.0)) {
                Some(origin) => parts.push(format!("{name} (via {origin})")),
                None => parts.push(name.to_string()),
            }
        }
        parts.join(", ")
    }

    /// The call chain along which fn `i` carries `bit` (a single-bit set):
    /// node `i` first, then each callee the first-seen inheritance edge
    /// points at, ending at the fn whose own body introduces the effect.
    /// Deterministic (the `via` edge is first-seen under a stable
    /// iteration order) and cycle-guarded.
    pub fn witness_chain(&self, i: usize, bit: EffectSet) -> Vec<usize> {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(&next) = self.via.get(cur).and_then(|m| m.get(&bit.0)) {
            if chain.contains(&next) {
                break;
            }
            chain.push(next);
            cur = next;
        }
        chain
    }
}

/// The complete layer-3 workspace analysis handed to rules.
#[derive(Debug, Default)]
pub struct FlowInfo {
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Effect fixpoint over it.
    pub table: EffectTable,
}

impl FlowInfo {
    /// Builds the call graph and runs the fixpoint in one step. `files`
    /// entries mirror [`CallGraph::build`].
    pub fn build<'a>(
        files: impl IntoIterator<
            Item = (&'a str, Option<&'a str>, &'a ParsedForFlow<'a>),
        >,
        symbols: &Symbols,
    ) -> FlowInfo {
        let files: Vec<_> = files.into_iter().collect();
        let graph = CallGraph::build(files.iter().map(|(label, krate, f)| {
            (*label, *krate, f.parsed, f.tokens, f.test_ranges)
        }));
        let tokens_of: BTreeMap<&str, &[Token]> =
            files.iter().map(|(label, _, f)| (*label, f.tokens)).collect();
        let locals: Vec<(EffectSet, BTreeMap<u16, String>)> = graph
            .fns
            .iter()
            .map(|node| match tokens_of.get(node.file.as_str()) {
                Some(toks) => local_effects(toks, node.kw, node.body, &node.krate, symbols),
                None => (EffectSet::EMPTY, BTreeMap::new()),
            })
            .collect();
        let table = fixpoint(&graph, locals);
        FlowInfo { graph, table }
    }

    /// The fixpoint effects of the fn declared at `(file, kw)`, if known.
    pub fn effects_at(&self, file: &str, kw: usize) -> Option<EffectSet> {
        self.graph.fn_at(file, kw).map(|i| self.table.effects[i])
    }
}

/// What [`FlowInfo::build`] needs per file; a borrow bundle so the engine
/// can pass its prepared files without cloning.
#[derive(Debug)]
pub struct ParsedForFlow<'a> {
    /// Parsed structural view.
    pub parsed: &'a ParsedFile,
    /// Full token stream.
    pub tokens: &'a [Token],
    /// `#[cfg(test)]` regions as token ranges.
    pub test_ranges: &'a [(usize, usize)],
}

use crate::parser::ParsedFile;

/// Recovers the local (intraprocedural) effects of the fn whose keyword
/// sits at `kw`, with body `body`. The signature span (`kw` → body open)
/// contributes `MUT_PARAM`; the body contributes everything else.
pub fn local_effects(
    tokens: &[Token],
    kw: usize,
    body: Option<(usize, usize)>,
    krate: &str,
    symbols: &Symbols,
) -> (EffectSet, BTreeMap<u16, String>) {
    let mut eff = EffectSet::EMPTY;
    let mut origins: BTreeMap<u16, String> = BTreeMap::new();
    let mut add = |eff: &mut EffectSet, bit: EffectSet, origin: String| {
        if !eff.contains(bit) {
            *eff = eff.union(bit);
            origins.entry(bit.0).or_insert(origin);
        }
    };
    let sig_end = body.map(|(open, _)| open).unwrap_or_else(|| tokens.len().min(kw + 64));
    let mut k = kw;
    while k + 1 < sig_end {
        if tokens[k].is_punct("&") && tokens[k + 1].is_ident("mut") {
            add(&mut eff, EffectSet::MUT_PARAM, "`&mut` parameter".to_string());
            break;
        }
        k += 1;
    }
    let Some((open, close)) = body else { return (eff, origins) };
    let close = close.min(tokens.len());
    let krate_opt = if krate == crate::callgraph::ROOT_CRATE { None } else { Some(krate) };
    // Cheap local type evidence for the ALLOC/PANIC detectors: integer-
    // typed names (division-by-variable panics), names with container
    // type evidence (`.clone()` allocates), and containers *constructed
    // in this body* (growing one allocates; growing a caller-provided
    // buffer does not).
    let mut int_names: Vec<&str> = Vec::new();
    let mut container_typed: Vec<&str> = Vec::new();
    let mut container_locals: Vec<&str> = Vec::new();
    // `impl Into<String>` parameters: their `.into()` builds a `String`.
    let mut into_string: Vec<&str> = Vec::new();
    let mut j = kw + 1;
    while j + 1 < sig_end {
        if tokens[j].is_punct(":") && tokens[j - 1].kind == TokenKind::Ident {
            let pname = tokens[j - 1].text.as_str();
            let mut k = j + 1;
            while k < sig_end
                && (tokens[k].is_punct("&")
                    || tokens[k].is_ident("mut")
                    || tokens[k].kind == TokenKind::Lifetime)
            {
                k += 1;
            }
            if let Some(ty) = tokens.get(k).filter(|t| t.kind == TokenKind::Ident) {
                if INT_TYPES.contains(&ty.text.as_str()) {
                    int_names.push(pname);
                } else if CONTAINER_HEADS.contains(&ty.text.as_str()) {
                    container_typed.push(pname);
                } else if ty.is_ident("impl")
                    && tokens.get(k + 1).is_some_and(|t| t.is_ident("Into"))
                    && tokens.get(k + 2).is_some_and(|t| t.is_punct("<"))
                    && tokens.get(k + 3).is_some_and(|t| t.is_ident("String"))
                {
                    into_string.push(pname);
                }
            }
        }
        j += 1;
    }
    let bindings = crate::parser::let_bindings(tokens, open, close);
    for b in &bindings {
        let name = tokens[b.idx].text.as_str();
        if let Some(ty) = &b.ty {
            if INT_TYPES.contains(&ty.head.as_str()) {
                int_names.push(name);
            } else if CONTAINER_HEADS.contains(&ty.head.as_str()) {
                container_typed.push(name);
            }
        }
        if let Some(init) = &b.init_head {
            if CONTAINER_HEADS.contains(&init.as_str()) || init == "vec" {
                container_typed.push(name);
                container_locals.push(name);
            }
        }
    }
    let mut i = open + 1;
    while i < close {
        // Statement-level `#[cfg(test)]` guards (the item-level ranges are
        // stripped upstream): the gated statement never runs outside
        // tests, so its effects don't count.
        if let Some(end) = cfg_test_stmt_end(tokens, i, close) {
            i = end + 1;
            continue;
        }
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            scan_panic_puncts(tokens, i, close, &int_names, &mut |bit, origin| {
                add(&mut eff, bit, origin);
            });
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let prev_dot = i >= 1 && tokens[i - 1].is_punct(".");
        let next = tokens.get(i + 1);
        let next_call = next.is_some_and(|n| n.is_punct("("));
        let next_bang = next.is_some_and(|n| n.is_punct("!"));
        let next_path = next.is_some_and(|n| n.is_punct("::"));
        let zero_arg =
            next_call && tokens.get(i + 2).is_some_and(|n| n.is_punct(")"));
        let name = t.text.as_str();
        match name {
            "println" | "eprintln" | "print" | "eprint" | "dbg" | "write" | "writeln"
                if next_bang =>
            {
                add(&mut eff, EffectSet::IO, format!("`{name}!`"));
            }
            "File" | "OpenOptions" | "Command" if next_path => {
                add(&mut eff, EffectSet::IO, format!("`{name}::`"));
            }
            "fs" if next_path => add(&mut eff, EffectSet::IO, "`fs::`".to_string()),
            "stdout" | "stdin" | "stderr" if next_call => {
                add(&mut eff, EffectSet::IO, format!("`{name}()`"));
            }
            "spawn" if next_call => {
                add(&mut eff, EffectSet::SPAWN, "`spawn(`".to_string());
            }
            "lock_unpoisoned" if next_call => {
                add(&mut eff, EffectSet::LOCK, "`lock_unpoisoned(`".to_string());
            }
            "lock" | "try_lock" | "wait" | "wait_timeout" | "wait_while" | "notify_all"
            | "notify_one"
                if prev_dot && next_call =>
            {
                add(&mut eff, EffectSet::LOCK, format!("`.{name}(`"));
            }
            "read" | "write" if prev_dot && zero_arg => {
                add(&mut eff, EffectSet::LOCK, format!("`.{name}()`"));
            }
            "Mutex" | "RwLock" | "Condvar" if next_path => {
                add(&mut eff, EffectSet::LOCK, format!("`{name}::`"));
            }
            "Instant"
                if next_path && tokens.get(i + 2).is_some_and(|n| n.is_ident("now")) =>
            {
                add(&mut eff, EffectSet::TIME, "`Instant::now`".to_string());
            }
            "SystemTime" if next_path => {
                add(&mut eff, EffectSet::TIME, "`SystemTime::`".to_string());
            }
            "thread_rng" if next_call => {
                add(&mut eff, EffectSet::RNG, "`thread_rng()`".to_string());
            }
            "random" if prev_dot && zero_arg => {
                add(&mut eff, EffectSet::RNG, "`.random()`".to_string());
            }
            "vec" | "format" if next_bang => {
                add(&mut eff, EffectSet::ALLOC, format!("`{name}!`"));
            }
            "collect" | "to_vec" | "to_string" | "to_owned" if prev_dot && next_call => {
                add(&mut eff, EffectSet::ALLOC, format!("`.{name}(`"));
            }
            "with_capacity" if next_call => {
                add(&mut eff, EffectSet::ALLOC, "`with_capacity(`".to_string());
            }
            "Box" if next_path => {
                add(&mut eff, EffectSet::ALLOC, "`Box::`".to_string());
            }
            // `Vec::new()` / `String::default()` construct empty values
            // without touching the heap; every other associated fn on a
            // container head is assumed to allocate.
            "Vec" | "String" | "VecDeque" | "BTreeMap" | "BTreeSet"
                if next_path
                    && tokens.get(i + 2).is_some_and(|n| {
                        n.kind == TokenKind::Ident && n.text != "new" && n.text != "default"
                    }) =>
            {
                add(&mut eff, EffectSet::ALLOC, format!("`{name}::`"));
            }
            "into" if prev_dot && zero_arg
                && bare_receiver(tokens, i).is_some_and(|recv| into_string.contains(&recv)) =>
            {
                add(&mut eff, EffectSet::ALLOC, "`.into()` of an `impl Into<String>`".to_string());
            }
            "clone" if prev_dot && zero_arg && clones_container(tokens, i, krate_opt, symbols, &container_typed) => {
                add(&mut eff, EffectSet::ALLOC, "`.clone()` of a container".to_string());
            }
            "push" | "extend" | "insert" if prev_dot && next_call => {
                // Only growth of a container constructed in this body
                // counts: pushing into a caller's `&mut` scratch reuses
                // caller-owned (amortized) capacity by contract.
                if let Some(recv) = bare_receiver(tokens, i) {
                    if container_locals.contains(&recv) {
                        add(&mut eff, EffectSet::ALLOC, format!("growth of local `{recv}`"));
                    }
                }
            }
            "unwrap" | "expect" if prev_dot && next_call => {
                add(&mut eff, EffectSet::PANIC, format!("`.{name}(`"));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne"
                if next_bang =>
            {
                add(&mut eff, EffectSet::PANIC, format!("`{name}!`"));
            }
            "panic_any" if next_call => {
                add(&mut eff, EffectSet::PANIC, "`panic_any(`".to_string());
            }
            _ => {}
        }
        if symbols.is_mut_static(krate_opt, name) {
            add(&mut eff, EffectSet::STATIC_MUT, format!("`static mut {name}`"));
        } else if symbols.is_static(krate_opt, name) {
            add(&mut eff, EffectSet::STATIC_READ, format!("`static {name}`"));
        }
        if (DIRTY_API_FNS.contains(&name) && next_call)
            || name.contains("dirty")
            || name.contains("changed")
        {
            add(&mut eff, EffectSet::DIRTY_API, format!("`{name}`"));
        }
        i += 1;
    }
    (eff, origins)
}

/// Integer type names providing divide-by-variable evidence.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Heap-owning container type heads: constructing (non-empty) or growing
/// one allocates, and so does cloning one.
const CONTAINER_HEADS: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// The bare (single-ident, non-path) receiver of a `.method(` at `i`, if
/// any: `name.push(..)` yields `name`; `self.list.push(..)` and
/// `a().list.push(..)` yield nothing.
fn bare_receiver(tokens: &[Token], i: usize) -> Option<&str> {
    if i < 2 || tokens[i - 2].kind != TokenKind::Ident {
        return None;
    }
    if i >= 3 && (tokens[i - 3].is_punct(".") || tokens[i - 3].is_punct("::")) {
        return None;
    }
    Some(tokens[i - 2].text.as_str())
}

/// Container evidence for a `.clone()` receiver: a bare local/param whose
/// type or initializer names a container head, or a `self.field` whose
/// declared field type does.
fn clones_container(
    tokens: &[Token],
    i: usize,
    krate: Option<&str>,
    symbols: &Symbols,
    container_typed: &[&str],
) -> bool {
    if let Some(recv) = bare_receiver(tokens, i) {
        return container_typed.contains(&recv);
    }
    // `self.field.clone()`
    if i >= 4
        && tokens[i - 2].kind == TokenKind::Ident
        && tokens[i - 3].is_punct(".")
        && tokens[i - 4].is_ident("self")
    {
        return symbols
            .field_head(krate, tokens[i - 2].text.as_str())
            .is_some_and(|ty| CONTAINER_HEADS.contains(&ty.head.as_str()));
    }
    false
}

/// If the token at `i` opens a statement-level `#[cfg(test)]` attribute
/// (inside a fn body, where the item-level test ranges don't reach),
/// returns the index of the gated statement's last token.
fn cfg_test_stmt_end(tokens: &[Token], i: usize, close: usize) -> Option<usize> {
    if !tokens[i].is_punct("#") || !tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut saw_test = false;
    let mut saw_not = false;
    let attr_close = loop {
        if j >= close {
            return None;
        }
        let t = &tokens[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break j;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("not") {
            saw_not = true;
        }
        j += 1;
    };
    if !saw_test || saw_not {
        return None;
    }
    // The gated statement runs to the `;` at brace depth 0, or through
    // the first brace block (following `else` chains for a gated `if`).
    let mut k = attr_close + 1;
    let mut depth = 0i32;
    while k < close {
        let t = &tokens[k];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 && !tokens.get(k + 1).is_some_and(|t| t.is_ident("else")) {
                return Some(k);
            }
        } else if depth == 0 && t.is_punct(";") {
            return Some(k);
        }
        k += 1;
    }
    Some(close.saturating_sub(1))
}

/// True if the token before `k` puts an operator or `[` in *postfix*
/// (binary) position: an expression just ended, so what follows indexes
/// or combines it rather than starting a new one.
fn after_expression(tokens: &[Token], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = &tokens[k - 1];
    match prev.kind {
        TokenKind::Ident => !matches!(
            prev.text.as_str(),
            "in" | "if" | "else" | "match" | "return" | "break" | "while" | "loop" | "let"
                | "mut" | "move" | "ref" | "as" | "dyn" | "where" | "impl" | "use" | "pub"
                | "fn" | "const" | "static" | "struct" | "enum" | "trait" | "unsafe" | "for"
        ),
        TokenKind::Int | TokenKind::Float => true,
        _ => prev.is_punct(")") || prev.is_punct("]"),
    }
}

/// Panic evidence carried by punctuation: postfix indexing whose interior
/// range-slices (`x[lo..hi]`) or computes (`x[i + 1]`) — both panic when
/// out of bounds in release — and division/remainder by an integer-typed
/// variable. Plain `x[i]` lookups are *not* flagged: the id-to-dense-
/// column pattern is load-bearing throughout the workspace and a bare
/// index is the idiom's sanctioned form.
fn scan_panic_puncts(
    tokens: &[Token],
    i: usize,
    close: usize,
    int_names: &[&str],
    add: &mut dyn FnMut(EffectSet, String),
) {
    let t = &tokens[i];
    if t.is_punct("[") && after_expression(tokens, i) {
        let mut depth = 0i32;
        let mut k = i;
        while k < close {
            let t = &tokens[k];
            if t.is_punct("[") || t.is_punct("(") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("]") || t.is_punct(")") || t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 {
                if t.is_punct("..") || t.is_punct("..=") {
                    add(EffectSet::PANIC, "range slicing (`[lo..hi]`)".to_string());
                } else if matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%")
                    && t.kind == TokenKind::Punct
                    && after_expression(tokens, k)
                {
                    add(EffectSet::PANIC, format!("arithmetic index (`[.. {} ..]`)", t.text));
                }
            }
            k += 1;
        }
    }
    if (t.is_punct("/") || t.is_punct("%")) && after_expression(tokens, i) {
        // Only variable divisors with *integer* type evidence count —
        // float division never panics, and `x / b.max(1)` guards itself.
        if let Some(rhs) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
            if int_names.contains(&rhs.text.as_str())
                && !tokens.get(i + 2).is_some_and(|t| t.is_punct("."))
            {
                add(EffectSet::PANIC, format!("integer `{} {}`", t.text, rhs.text));
            }
        }
    }
}

/// Runs the interprocedural fixpoint: every fn's effects are its local
/// effects unioned with the propagated effects of every callee, iterated
/// to convergence. Ambiguous callee names (several definitions share it)
/// contribute the intersection of their candidates.
pub fn fixpoint(
    graph: &CallGraph,
    locals: Vec<(EffectSet, BTreeMap<u16, String>)>,
) -> EffectTable {
    let n = graph.fns.len();
    let mut effects: Vec<EffectSet> = locals.iter().map(|(e, _)| *e).collect();
    let mut origins: Vec<BTreeMap<u16, String>> =
        locals.into_iter().map(|(_, o)| o).collect();
    let mut via: Vec<BTreeMap<u16, usize>> = vec![BTreeMap::new(); n];
    // Monotone over a finite lattice: at most bits × n rounds, in
    // practice a handful. The cap is a safety net, not a correctness
    // device.
    let max_rounds = 16 * n.max(1);
    for _ in 0..max_rounds {
        let mut changed = false;
        for i in 0..n {
            let krate = graph.fns[i].krate.clone();
            for c in 0..graph.fns[i].callees.len() {
                let callee = graph.fns[i].callees[c].clone();
                let incoming = callee_effects(graph, &effects, &krate, &callee)
                    .intersect(PROPAGATED);
                let fresh = EffectSet(incoming.0 & !effects[i].0);
                if !fresh.is_empty() {
                    effects[i] = effects[i].union(fresh);
                    let cands = graph.candidates(&krate, &callee);
                    for bit in fresh.bits() {
                        origins[i].entry(bit.0).or_insert_with(|| {
                            format!("call to `{callee}`")
                        });
                        // Under intersection semantics every candidate
                        // carries the bit; record the first as the
                        // witness edge.
                        if let Some(&target) =
                            cands.iter().find(|&&x| effects[x].contains(bit))
                        {
                            via[i].entry(bit.0).or_insert(target);
                        }
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    EffectTable { effects, origins, via }
}

fn callee_effects(
    graph: &CallGraph,
    effects: &[EffectSet],
    krate: &str,
    name: &str,
) -> EffectSet {
    let cands = graph.candidates(krate, name);
    match cands {
        [] => EffectSet::EMPTY,
        [one] => effects[*one],
        many => many
            .iter()
            .map(|&i| effects[i])
            .reduce(EffectSet::intersect)
            .unwrap_or(EffectSet::EMPTY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn flow_of(files: &[(&str, Option<&str>, &str)]) -> FlowInfo {
        let lexed: Vec<_> = files.iter().map(|(_, _, src)| lex(src)).collect();
        let parsed: Vec<_> = lexed.iter().map(|l| parse(&l.tokens)).collect();
        let symbols = Symbols::build(
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
        FlowInfo::build(
            files
                .iter()
                .enumerate()
                .map(|(i, (label, krate, _))| (*label, *krate, &bundles[i])),
            &symbols,
        )
    }

    fn effects_of(flow: &FlowInfo, name: &str) -> EffectSet {
        let i = flow
            .graph
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not in graph"));
        flow.table.effects[i]
    }

    #[test]
    fn purity_fixpoint_converges_over_a_cycle() {
        // a → b → c → b is a cycle; c does IO, so the whole cycle (and a)
        // acquires IO. The disjoint pure cycle p ⇄ q stays pure.
        let flow = flow_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn a() { b(); }\n\
             fn b() { c(); }\n\
             fn c() { if deep() { b(); } println!(\"x\"); }\n\
             fn deep() -> bool { true }\n\
             fn p() { q(); }\n\
             fn q() { p(); }\n",
        )]);
        for f in ["a", "b", "c"] {
            assert!(
                effects_of(&flow, f).contains(EffectSet::IO),
                "{f} must inherit IO through the cycle"
            );
        }
        assert!(effects_of(&flow, "deep").is_empty());
        assert!(effects_of(&flow, "p").is_empty(), "pure cycle stays pure");
        assert!(effects_of(&flow, "q").is_empty());
    }

    #[test]
    fn effects_propagate_across_crates_by_unique_name() {
        let flow = flow_of(&[
            (
                "crates/core/src/k.rs",
                Some("core"),
                "fn kernel_like() -> f64 { shape_value(2.0) }",
            ),
            (
                "crates/model/src/u.rs",
                Some("model"),
                "fn shape_value(x: f64) -> f64 { x }\nfn loader() { fs::read(\"p\"); }",
            ),
        ]);
        assert!(effects_of(&flow, "kernel_like").is_empty());
        assert!(effects_of(&flow, "loader").contains(EffectSet::IO));
    }

    #[test]
    fn ambiguous_names_resolve_to_the_intersection() {
        // Two `new` constructors in the same crate: one locks, one is
        // pure. A call to `new` must not poison the caller with LOCK.
        let flow = flow_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "impl A { fn new() -> A { let g = m.lock(); A } }\n\
             impl B { fn new() -> B { B } }\n\
             fn caller() { let b = B::new(); }\n",
        )]);
        assert!(
            effects_of(&flow, "caller").is_empty(),
            "intersection of an impure and a pure `new` is pure"
        );
    }

    #[test]
    fn mut_param_is_local_not_propagated() {
        let flow = flow_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn fill(out: &mut Vec<f64>) { out.push(1.0); }\n\
             fn caller() { let mut v = Vec::new(); fill(&mut v); }\n",
        )]);
        assert!(effects_of(&flow, "fill").contains(EffectSet::MUT_PARAM));
        assert!(
            !effects_of(&flow, "caller").contains(EffectSet::MUT_PARAM),
            "taking &mut is a signature property, not a callee-inherited one"
        );
    }

    #[test]
    fn lock_time_static_and_dirty_evidence() {
        let flow = flow_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "static mut SCRATCH: u32 = 0;\n\
             static TABLE: [f64; 2] = [0.0, 1.0];\n\
             fn locks() { let g = lock_unpoisoned(&m); }\n\
             fn timed() { let t = Instant::now(); }\n\
             fn scratchy() { SCRATCH += 1; }\n\
             fn tabled() -> f64 { TABLE[0] }\n\
             fn marked(s: &mut S) { s.rates[0] = 1.0; mark(&mut s.flags, &mut s.list, 0); }\n",
        )]);
        assert!(effects_of(&flow, "locks").contains(EffectSet::LOCK));
        assert!(effects_of(&flow, "timed").contains(EffectSet::TIME));
        assert!(effects_of(&flow, "scratchy").contains(EffectSet::STATIC_MUT));
        assert!(effects_of(&flow, "tabled").contains(EffectSet::STATIC_READ));
        assert!(!effects_of(&flow, "tabled").contains(EffectSet::STATIC_MUT));
        assert!(effects_of(&flow, "marked").contains(EffectSet::DIRTY_API));
        assert!(
            EffectSet::KERNEL_DENIED.contains(EffectSet::LOCK)
                && !EffectSet::KERNEL_DENIED.contains(EffectSet::STATIC_READ),
            "kernel contract allows constant tables, denies sync"
        );
    }

    #[test]
    fn describe_names_the_origin() {
        let flow = flow_of(&[(
            "crates/core/src/x.rs",
            Some("core"),
            "fn inner() { println!(\"x\"); }\nfn outer() { inner(); }\n",
        )]);
        let outer = flow.graph.fns.iter().position(|f| f.name == "outer").unwrap();
        let desc = flow.table.describe(outer, EffectSet::IO);
        assert!(desc.contains("call to `inner`"), "{desc}");
        let inner = flow.graph.fns.iter().position(|f| f.name == "inner").unwrap();
        assert!(flow.table.describe(inner, EffectSet::IO).contains("println"), "local origin");
    }
}
