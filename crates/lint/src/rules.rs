//! The pattern rules. Each walks the token stream of one [`SourceFile`]
//! and emits [`Diagnostic`]s; suppression comments downgrade a finding rather than
//! hide it, so the JSON report still counts it. The concurrency rules
//! (`lock-graph`, `lock-order`, `blocking-under-lock`) live in
//! [`crate::locks`] on top of the shared lock tracker.

use crate::config::Config;
use crate::lexer::Tok;
use crate::report::Diagnostic;
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const NO_PANIC: &str = "no-panic";
pub const DETERMINISM: &str = "determinism";
pub const LOCK_ORDER: &str = "lock-order";
pub const LOCK_GRAPH: &str = "lock-graph";
pub const BLOCKING_UNDER_LOCK: &str = "blocking-under-lock";
pub const NARROW_CAST: &str = "narrow-cast";
pub const UNCHECKED_ARITH: &str = "unchecked-arith";
pub const UNBOUNDED_GROWTH: &str = "unbounded-growth";
pub const ALLOW_AUDIT: &str = "allow-audit";

/// Methods whose presence on the indexed collection counts as a bounds
/// guard (the enclosing function demonstrably reasons about length).
const GUARD_METHODS: &[&str] = &[
    "len",
    "get",
    "get_mut",
    "is_empty",
    "first",
    "last",
    "split_at",
    "contains_key",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn diag(
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        rule,
        file: file.rel.clone(),
        line,
        message,
        suppressed: file.suppression(line, rule),
    });
}

fn in_paths(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

fn ident_of(t: &Tok) -> Option<&str> {
    match t {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Rule 1: no `unwrap`/`expect`/panicking macros/unguarded indexing in
/// protocol-path crates. Errors must flow through `Action`s, `Result`s or
/// stream poisoning instead of aborting a peer.
pub fn no_panic(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !in_paths(&file.rel, &cfg.no_panic_paths) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Ident(id) if (id == "unwrap" || id == "expect") => {
                let after_dot = i > 0 && toks[i - 1].tok == Tok::Punct('.');
                let called = toks.get(i + 1).map(|t| t.tok == Tok::Punct('(')) == Some(true);
                if after_dot && called {
                    diag(
                        file,
                        NO_PANIC,
                        line,
                        format!(".{id}() can panic; return an error or use a graceful fallback"),
                        out,
                    );
                }
            }
            Tok::Ident(id)
                if PANIC_MACROS.contains(&id.as_str())
                    && toks.get(i + 1).map(|t| t.tok == Tok::Punct('!')) == Some(true) =>
            {
                diag(
                    file,
                    NO_PANIC,
                    line,
                    format!("{id}! aborts the peer; protocol code must degrade instead"),
                    out,
                );
            }
            Tok::Punct('[') => {
                if let Some(base) = index_base(toks, i) {
                    if index_is_benign(toks, i) {
                        continue;
                    }
                    let guarded = file
                        .enclosing_fn(i)
                        .is_some_and(|f| file.fn_mentions(f, &base, GUARD_METHODS));
                    if !guarded {
                        diag(
                            file,
                            NO_PANIC,
                            line,
                            format!(
                                "indexing `{base}[..]` without a visible bounds guard can panic; \
                                 use .get() or guard with .len()"
                            ),
                            out,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// Is `[` at `i` an index expression (vs attribute, array literal, slice
/// pattern or type)? If so, returns the indexed collection's name.
fn index_base(toks: &[crate::lexer::Token], i: usize) -> Option<String> {
    // Keywords preceding `[` mean a type or pattern position
    // (`impl T for [U]`, `for [a, b] in ..`), never an index expression.
    const KEYWORDS: &[&str] = &[
        "for", "in", "impl", "dyn", "as", "return", "break", "if", "else", "match", "where", "mut",
        "ref", "move", "box", "const", "static", "type",
    ];
    let prev = toks.get(i.checked_sub(1)?)?;
    match &prev.tok {
        Tok::Ident(id) if KEYWORDS.contains(&id.as_str()) => None,
        Tok::Ident(id) => Some(id.clone()),
        Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => {
            // Walk back over one balanced group / postfix chain to the
            // nearest identifier, which names the collection well enough
            // for the guard heuristic.
            let mut j = i - 1;
            let mut depth = 0i32;
            let mut steps = 0;
            while j > 0 && steps < 64 {
                match toks[j].tok {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                    Tok::Ident(ref id) if depth <= 0 => return Some(id.clone()),
                    _ => {}
                }
                j -= 1;
                steps += 1;
            }
            None
        }
        _ => None,
    }
}

/// Index expressions that cannot (or are vanishingly unlikely to) panic:
/// full-range slicing and mask/modulo-bounded subscripts.
fn index_is_benign(toks: &[crate::lexer::Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut inner = Vec::new();
    for t in &toks[open..] {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if depth >= 1 {
            inner.push(&t.tok);
        }
    }
    // `[..]`
    if inner.len() == 3 && inner[1] == &Tok::Punct('.') && inner[2] == &Tok::Punct('.') {
        return true;
    }
    // A `& MASK` or `% n` bound inside the subscript.
    inner.windows(2).any(|w| {
        (w[0] == &Tok::Punct('&') && matches!(w[1], Tok::Num(_))) || w[0] == &Tok::Punct('%')
    })
}

/// Rule 2: no wall-clock time, sleeping, OS randomness or hash-order
/// iteration inside the deterministic-replay crates.
pub fn determinism(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !in_paths(&file.rel, &cfg.determinism_paths) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let line = toks[i].line;
        let id = match ident_of(&toks[i].tok) {
            Some(id) => id,
            None => continue,
        };
        let path_call = |head: &str, tail: &str| {
            id == head
                && toks.get(i + 1).map(|t| t.tok == Tok::Punct(':')) == Some(true)
                && toks.get(i + 2).map(|t| t.tok == Tok::Punct(':')) == Some(true)
                && toks.get(i + 3).and_then(|t| ident_of(&t.tok)) == Some(tail)
        };
        if path_call("Instant", "now") {
            diag(
                file,
                DETERMINISM,
                line,
                "Instant::now() reads the wall clock; deterministic code must use SimTime".into(),
                out,
            );
        } else if path_call("thread", "sleep") {
            diag(
                file,
                DETERMINISM,
                line,
                "thread::sleep stalls on wall time; schedule a DES event instead".into(),
                out,
            );
        } else if id == "SystemTime" {
            diag(
                file,
                DETERMINISM,
                line,
                "SystemTime is nondeterministic; use SimTime".into(),
                out,
            );
        } else if id == "thread_rng" {
            diag(
                file,
                DETERMINISM,
                line,
                "thread_rng() is unseeded; use the seeded arm_util RNG".into(),
                out,
            );
        } else if id == "HashMap" || id == "HashSet" {
            diag(
                file,
                DETERMINISM,
                line,
                format!("{id} iterates in hash order; use BTreeMap/BTreeSet for replayable state"),
                out,
            );
        }
    }
}

/// Cast targets that are always narrowing from the integer types this
/// codebase computes in (`usize`, `u32`, `u64`).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "i8", "i16"];

/// Zero-argument methods whose return type is wider than `u32` — a
/// subsequent `as u32`/`as i32` provably truncates on overflow.
const WIDE_SOURCES: &[&str] = &[
    "len",
    "capacity",
    "as_micros",
    "as_millis",
    "as_nanos",
    "as_secs",
];

/// Rule: narrowing `as` casts in hot-path crates. Token-level type
/// inference is impossible, so the rule is asymmetric: casts to sub-`u32`
/// widths are always suspect (escaped by a visible mask, modulo, `min`,
/// `clamp` or literal operand), while casts to `u32`/`i32` are only
/// flagged when the source expression is a provably wider call such as
/// `.len()`.
pub fn narrow_cast(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !in_paths(&file.rel, &cfg.cast_paths) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.test_mask[i] || ident_of(&toks[i].tok) != Some("as") {
            continue;
        }
        let target = match toks.get(i + 1).and_then(|t| ident_of(&t.tok)) {
            Some(t) => t,
            None => continue,
        };
        let line = toks[i].line;
        if NARROW_TARGETS.contains(&target) {
            if !cast_is_benign(toks, i) {
                diag(
                    file,
                    NARROW_CAST,
                    line,
                    format!(
                        "`as {target}` silently truncates; mask, clamp or use try_from with a \
                         handled error"
                    ),
                    out,
                );
            }
        } else if (target == "u32" || target == "i32")
            && i >= 3
            && toks[i - 1].tok == Tok::Punct(')')
            && toks[i - 2].tok == Tok::Punct('(')
            && toks
                .get(i - 3)
                .and_then(|t| ident_of(&t.tok))
                .is_some_and(|m| WIDE_SOURCES.contains(&m))
        {
            let src = ident_of(&toks[i - 3].tok).unwrap_or("?");
            diag(
                file,
                NARROW_CAST,
                line,
                format!(
                    "`.{src}() as {target}` truncates for large values; bound the source or use \
                     try_from"
                ),
                out,
            );
        }
    }
}

/// A narrowing cast with a visible bound on the same expression: `& MASK`,
/// `% n`, `.min(..)`, `.clamp(..)`, a literal/bool/char operand, or a
/// saturating/checked combinator.
fn cast_is_benign(toks: &[crate::lexer::Token], as_idx: usize) -> bool {
    match toks.get(as_idx.wrapping_sub(1)).map(|t| &t.tok) {
        Some(Tok::Num(_)) | Some(Tok::Char) => return true,
        Some(Tok::Ident(id)) if id == "true" || id == "false" => return true,
        _ => {}
    }
    let start = as_idx.saturating_sub(12);
    let window = &toks[start..as_idx];
    window.windows(2).any(|w| {
        (w[0].tok == Tok::Punct('&') && matches!(w[1].tok, Tok::Num(_)))
            || w[0].tok == Tok::Punct('%')
    }) || window.iter().any(|t| {
        matches!(
            ident_of(&t.tok),
            Some("min")
                | Some("clamp")
                | Some("rem_euclid")
                | Some("saturating_sub")
                | Some("checked_sub")
                | Some("try_from")
        )
    })
}

/// Rule: `.len() - x` underflow in hot-path crates. Unsigned subtraction
/// from a length panics (debug) or wraps to huge (release) when the
/// operand exceeds it; require `saturating_sub`/`checked_sub` or a
/// visible emptiness guard in the enclosing function.
pub fn unchecked_arith(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !in_paths(&file.rel, &cfg.cast_paths) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if file.test_mask[i] {
            continue;
        }
        let is_len_sub = ident_of(&toks[i].tok) == Some("len")
            && toks[i + 1].tok == Tok::Punct('(')
            && toks[i + 2].tok == Tok::Punct(')')
            && toks[i + 3].tok == Tok::Punct('-');
        if !is_len_sub {
            continue;
        }
        let guarded = file.enclosing_fn(i).is_some_and(|f| {
            let body = &toks[f.open..=f.close.min(toks.len() - 1)];
            body.iter().any(|t| {
                matches!(
                    ident_of(&t.tok),
                    Some("is_empty") | Some("saturating_sub") | Some("checked_sub")
                )
            })
        });
        if !guarded {
            diag(
                file,
                UNCHECKED_ARITH,
                toks[i].line,
                "`.len() - …` underflows when the subtrahend exceeds the length; use \
                 saturating_sub/checked_sub or guard with is_empty"
                    .into(),
                out,
            );
        }
    }
}

/// Growth methods that add elements to a collection.
const GROWTH_METHODS: &[&str] = &["push", "push_back", "insert", "extend", "extend_from_slice"];

/// Methods whose presence on the same collection counts as eviction /
/// cap-keeping evidence.
const EVICT_METHODS: &[&str] = &[
    "truncate",
    "pop",
    "pop_front",
    "remove",
    "swap_remove",
    "drain",
    "retain",
    "clear",
    "split_off",
    "dedup",
    "shrink_to",
    "shift_remove",
    "take",
];

/// Accessor methods skipped when resolving the collection a call chain
/// operates on (`telemetry.lock().outcomes.push` grows `outcomes`;
/// `threads.lock().push` grows `threads`).
const CHAIN_ACCESSORS: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_mut",
    "as_ref",
    "get_mut",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "last_mut",
    "iter_mut",
    "values_mut",
];

/// Resolves the collection a `.method(` call at `dot_idx - 1` operates
/// on: walks the postfix chain backwards, skipping call groups and
/// accessor methods, and returns `(collection, chain_len)`.
fn chain_base(toks: &[crate::lexer::Token], method_idx: usize) -> Option<(String, usize)> {
    let mut j = method_idx.checked_sub(2)?; // before the `.`
    let mut chain_len = 1usize;
    let mut base: Option<String> = None;
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > 64 {
            break;
        }
        // Skip one balanced call group: `… ( args ) .method`.
        if toks[j].tok == Tok::Punct(')') {
            let mut depth = 0i32;
            loop {
                match toks[j].tok {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                    _ => {}
                }
                if depth == 0 || j == 0 {
                    break;
                }
                j -= 1;
            }
            j = j.checked_sub(1)?;
        }
        let id = match ident_of(&toks[j].tok) {
            Some(id) => id,
            None => break,
        };
        chain_len += 1;
        if base.is_none() && !CHAIN_ACCESSORS.contains(&id) {
            base = Some(id.to_string());
        }
        match j.checked_sub(1).map(|k| &toks[k].tok) {
            Some(Tok::Punct('.')) => match j.checked_sub(2) {
                Some(k) => j = k,
                None => break,
            },
            _ => break,
        }
    }
    base.map(|b| (b, chain_len))
}

/// Rule: unbounded collection growth in long-running crates. A
/// `push`/`insert`/`extend` on a field or lock-guarded collection is
/// flagged unless the same file shows eviction on that collection
/// (`truncate`, `pop_front`, `remove`, `drain`, `retain`, …). Growth into
/// plain locals is exempt — they die with their scope.
pub fn unbounded_growth(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !in_paths(&file.rel, &cfg.growth_paths) {
        return;
    }
    let toks = &file.tokens;
    let guard_vars = crate::locks::scan_file(file).guard_vars;
    // One pass building base → methods-called-on-it for the whole file
    // (tests included: a test that exercises eviction still proves the
    // path exists).
    let mut called: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for i in 0..toks.len() {
        let is_method_call = i >= 2
            && toks[i - 1].tok == Tok::Punct('.')
            && toks.get(i + 1).map(|t| t.tok == Tok::Punct('(')) == Some(true);
        if !is_method_call {
            continue;
        }
        if let Some(id) = ident_of(&toks[i].tok) {
            if GROWTH_METHODS.contains(&id) || EVICT_METHODS.contains(&id) {
                if let Some((base, _)) = chain_base(toks, i) {
                    called.entry(base).or_default().insert(
                        GROWTH_METHODS
                            .iter()
                            .chain(EVICT_METHODS.iter())
                            .find(|m| **m == id)
                            .copied()
                            .unwrap_or("?"),
                    );
                }
            }
        }
    }
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let is_method_call = i >= 2
            && toks[i - 1].tok == Tok::Punct('.')
            && toks.get(i + 1).map(|t| t.tok == Tok::Punct('(')) == Some(true);
        if !is_method_call {
            continue;
        }
        let id = match ident_of(&toks[i].tok) {
            Some(id) if GROWTH_METHODS.contains(&id) => id,
            _ => continue,
        };
        let (base, chain_len) = match chain_base(toks, i) {
            Some(b) => b,
            None => continue,
        };
        // Plain locals (single-component receivers) are scope-bounded —
        // unless the name is a lock guard, in which case the growth lands
        // in the long-lived locked collection.
        if chain_len <= 2 && !guard_vars.contains(&base) {
            continue;
        }
        let evicted = called
            .get(&base)
            .is_some_and(|ms| ms.iter().any(|m| EVICT_METHODS.contains(m)));
        if !evicted {
            diag(
                file,
                UNBOUNDED_GROWTH,
                toks[i].line,
                format!(
                    "`{base}.{id}(…)` grows without visible eviction on `{base}` in this file; \
                     cap it, evict, or justify with a suppression"
                ),
                out,
            );
        }
    }
}

/// Rule 5: every `#[allow(…)]` needs an adjacent `// lint:` justification.
pub fn allow_audit(file: &SourceFile, _cfg: &Config, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].tok != Tok::Punct('#') {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|t| t.tok == Tok::Punct('!')) == Some(true) {
            j += 1;
        }
        if toks.get(j).map(|t| t.tok == Tok::Punct('[')) != Some(true) {
            continue;
        }
        if toks.get(j + 1).and_then(|t| ident_of(&t.tok)) != Some("allow") {
            continue;
        }
        let line = toks[i].line;
        if !file.has_lint_justification(line) {
            diag(
                file,
                ALLOW_AUDIT,
                line,
                "#[allow(...)] without a `// lint:` justification comment".into(),
                out,
            );
        }
    }
}
