//! The pattern rules. Each walks the token stream of one [`SourceFile`]
//! and emits [`Diagnostic`]s; suppression comments downgrade a finding rather than
//! hide it, so the JSON report still counts it. The concurrency rules
//! (`lock-graph`, `blocking-under-lock`) live in
//! [`crate::locks`] on top of the shared lock tracker.

use crate::config::Config;
use crate::lexer::Tok;
use crate::report::Diagnostic;
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const LOCK_GRAPH: &str = "lock-graph";
pub const BLOCKING_UNDER_LOCK: &str = "blocking-under-lock";
pub const UNBOUNDED_GROWTH: &str = "unbounded-growth";

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
