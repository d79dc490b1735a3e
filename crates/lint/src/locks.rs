//! The lock tracker and the two concurrency rules built on it.
//!
//! One token-stream walk per function tracks which `Mutex`/`RwLock`/`Lock`
//! guards are live at every point (let-bound guards, `if let`/`while let`
//! bindings, statement temporaries, `drop()`). The workspace's rule is that
//! every lock is a leaf — no thread holds two at once (`arm_util::sync`) —
//! so the rules need no lock order and no graph:
//!
//! * `lock-graph` — any acquisition made while another guard is live,
//!   including a re-acquisition of the held lock, is a finding. The
//!   inferred lock graph must be empty.
//! * `blocking-under-lock` — channel receives, thread joins, condvar
//!   waits and socket I/O must not happen while a guard is live; with a
//!   bounded channel in scope, `send` blocks too.
//!
//! Nestings through a call the scan cannot follow (a callback run under a
//! guard) are caught at run time instead: `arm_util::Lock` asserts the
//! rule on every acquisition in debug builds.

use crate::lexer::Tok;
use crate::report::Diagnostic;
use crate::rules::{BLOCKING_UNDER_LOCK, LOCK_GRAPH};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One acquisition made while another guard was live.
#[derive(Debug, Clone)]
pub struct Nested {
    /// Field name of the held lock (`links`); equal to `acquired` for a
    /// re-acquisition.
    pub held: String,
    /// Line the held lock was acquired on.
    pub held_line: u32,
    /// Field name of the lock acquired under it (`book`).
    pub acquired: String,
    /// Line of the nested acquisition.
    pub line: u32,
}

/// A blocking call observed while a guard was live.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// The blocking method (`recv`, `join`, `write_all`, …).
    pub call: String,
    /// Line of the blocking call.
    pub line: u32,
    /// Field name of the held lock.
    pub lock_short: String,
    /// Line the lock was acquired on.
    pub lock_line: u32,
}

/// Everything the lock tracker extracts from one file.
#[derive(Debug, Default)]
pub struct FileLockScan {
    /// Acquisitions made under a live guard.
    pub nested: Vec<Nested>,
    /// Blocking calls under a live guard.
    pub blocking: Vec<BlockingSite>,
    /// Variable names ever bound to a lock guard in this file (used by
    /// the unbounded-growth rule to treat `guard.insert(…)` as growth of
    /// the locked collection, not of a local).
    pub guard_vars: BTreeSet<String>,
}

/// Methods that block the calling thread. The `bool` is "only when called
/// with no arguments" — it keeps `path.join("x")` and `Vec::insert` -like
/// same-named non-blocking methods out of the net.
const BLOCKING_CALLS: &[(&str, bool)] = &[
    ("recv", true),
    ("recv_timeout", false),
    ("recv_deadline", false),
    ("join", true),
    ("wait", false),
    ("wait_timeout", false),
    ("wait_while", false),
    ("write_all", false),
    ("read_exact", false),
    ("read_to_end", false),
    ("flush", true),
    ("accept", true),
    ("sleep", false),
];

/// One lock currently held while walking a function body.
struct Held {
    /// Field name (`links`).
    short: String,
    /// Binding variable, when let-bound (released by `drop(var)`).
    var: Option<String>,
    /// Statement temporary (released at `;` / end of its block).
    temp: bool,
    depth: usize,
    line: u32,
}

/// Walks every non-test function and extracts nested acquisitions,
/// blocking-under-lock sites and guard variable names.
pub fn scan_file(file: &SourceFile) -> FileLockScan {
    let toks = &file.tokens;
    let mut scan = FileLockScan::default();
    // `send` blocks only on bounded channels; a file that creates one is
    // assumed to send on one.
    let bounded_channels = toks
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(id) if id == "sync_channel" || id == "bounded"));
    for f in &file.fns {
        if file.test_mask[f.open] {
            continue;
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut stmt_let_var: Option<String> = None;
        let mut i = f.open + 1;
        while i < f.close {
            match &toks[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    // Guards bound inside the block die with it; statement
                    // temporaries registered at the outer depth die too —
                    // by the time a block closes, every acquisition its
                    // scrutinee/condition guard could cover has been seen.
                    held.retain(|h| h.depth < depth);
                    depth = depth.saturating_sub(1);
                    held.retain(|h| !(h.temp && h.depth == depth));
                }
                Tok::Punct(';') => {
                    held.retain(|h| !(h.temp && h.depth == depth));
                    stmt_let_var = None;
                }
                Tok::Ident(id) if id == "let" => {
                    stmt_let_var = let_binding_name(toks, i);
                }
                Tok::Ident(id) if id == "drop" => {
                    if let (Some(Tok::Punct('(')), Some(Tok::Ident(v)), Some(Tok::Punct(')'))) = (
                        toks.get(i + 1).map(|t| &t.tok),
                        toks.get(i + 2).map(|t| &t.tok),
                        toks.get(i + 3).map(|t| &t.tok),
                    ) {
                        held.retain(|h| h.var.as_deref() != Some(v.as_str()));
                    }
                }
                Tok::Ident(id) if (id == "lock" || id == "read" || id == "write") => {
                    // An acquisition is `<field>.lock()` / `.read()` /
                    // `.write()` with *empty* parens — socket `read(&mut
                    // buf)` / `write(&buf)` take arguments.
                    let is_acq = i >= 2
                        && toks[i - 1].tok == Tok::Punct('.')
                        && toks.get(i + 1).map(|t| t.tok == Tok::Punct('(')) == Some(true)
                        && toks.get(i + 2).map(|t| t.tok == Tok::Punct(')')) == Some(true);
                    if is_acq {
                        if let Some(Tok::Ident(base)) = toks.get(i - 2).map(|t| &t.tok) {
                            let line = toks[i].line;
                            // One finding per acquisition: against the
                            // same lock when it is already held, else
                            // against the innermost live guard.
                            let under = held
                                .iter()
                                .find(|h| h.short == *base)
                                .or_else(|| held.last());
                            if let Some(h) = under {
                                scan.nested.push(Nested {
                                    held: h.short.clone(),
                                    held_line: h.line,
                                    acquired: base.clone(),
                                    line,
                                });
                            }
                            // Guard lifetime: `let g = x.lock();` lives to
                            // scope end; `if let Ok(g) = x.lock() {` lives
                            // to the end of the block it opens; any longer
                            // chain is a statement temporary.
                            let term = toks.get(i + 3).map(|t| &t.tok);
                            let bound = stmt_let_var.is_some()
                                && matches!(term, Some(Tok::Punct(';')) | Some(Tok::Punct('{')));
                            let block_scoped = matches!(term, Some(Tok::Punct('{')));
                            if bound {
                                scan.guard_vars.extend(stmt_let_var.clone());
                            }
                            held.push(Held {
                                short: base.clone(),
                                var: if bound { stmt_let_var.clone() } else { None },
                                temp: !bound,
                                depth: if bound && block_scoped {
                                    depth + 1
                                } else {
                                    depth
                                },
                                line,
                            });
                        }
                    }
                }
                Tok::Ident(id) => {
                    if held.is_empty() {
                        i += 1;
                        continue;
                    }
                    let called = toks.get(i + 1).map(|t| t.tok == Tok::Punct('(')) == Some(true);
                    let empty_call =
                        called && toks.get(i + 2).map(|t| t.tok == Tok::Punct(')')) == Some(true);
                    let method = i >= 1
                        && (toks[i - 1].tok == Tok::Punct('.')
                            || toks[i - 1].tok == Tok::Punct(':'));
                    let blocking = called
                        && method
                        && (BLOCKING_CALLS
                            .iter()
                            .any(|(name, needs_empty)| id == name && (!needs_empty || empty_call))
                            || (id == "send" && bounded_channels));
                    if blocking {
                        // Attribute the call to the outermost live guard
                        // (innermost is listed in the message line ref).
                        if let Some(h) = held.last() {
                            scan.blocking.push(BlockingSite {
                                call: id.clone(),
                                line: toks[i].line,
                                lock_short: h.short.clone(),
                                lock_line: h.line,
                            });
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    scan
}

/// Extracts the bound variable of `let [mut] name =`, `let Ok(name) =`,
/// `let Some(mut name) =` and the `if let`/`while let` forms; `None` for
/// anything more structured.
fn let_binding_name(toks: &[crate::lexer::Token], let_idx: usize) -> Option<String> {
    let ident = |j: usize| match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.clone()),
        _ => None,
    };
    let punct = |j: usize, c: char| toks.get(j).map(|t| t.tok == Tok::Punct(c)) == Some(true);
    let mut j = let_idx + 1;
    // Constructor pattern: `Ok(` / `Some(` / any `Name(`.
    let wrapped = ident(j).is_some() && punct(j + 1, '(');
    if wrapped {
        j += 2;
    }
    if ident(j).as_deref() == Some("mut") {
        j += 1;
    }
    let name = ident(j)?;
    j += 1;
    if wrapped {
        if !punct(j, ')') {
            return None;
        }
        j += 1;
    }
    if punct(j, '=') {
        Some(name)
    } else {
        None
    }
}

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

/// Runs the two lock rules over every file: each nested acquisition is a
/// `lock-graph` finding, each blocking call under a guard a
/// `blocking-under-lock` one.
pub fn lock_rules(files: &BTreeMap<String, SourceFile>, out: &mut Vec<Diagnostic>) {
    for file in files.values() {
        let scan = scan_file(file);
        for n in &scan.nested {
            let message = if n.held == n.acquired {
                format!(
                    "re-acquiring `{}` while already held (line {}): self-deadlock",
                    n.acquired, n.held_line
                )
            } else {
                format!(
                    "acquiring `{}` while holding `{}` (line {}): every lock must be \
                     a leaf; release the first guard before taking the second",
                    n.acquired, n.held, n.held_line
                )
            };
            diag(file, LOCK_GRAPH, n.line, message, out);
        }
        for b in &scan.blocking {
            diag(
                file,
                BLOCKING_UNDER_LOCK,
                b.line,
                format!(
                    "blocking call `{}` while holding lock `{}` (acquired line {}); \
                     release the guard before blocking",
                    b.call, b.lock_short, b.lock_line
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/tcp.rs", src)
    }

    /// `(held, acquired)` for every nested acquisition.
    fn pairs(s: &FileLockScan) -> Vec<(&str, &str)> {
        s.nested
            .iter()
            .map(|n| (n.held.as_str(), n.acquired.as_str()))
            .collect()
    }

    #[test]
    fn let_bound_guard_produces_edge() {
        let s = scan_file(&parse(
            "fn f(&self) { let a = self.links.lock(); self.book.lock().get(1); drop(a); }",
        ));
        assert_eq!(pairs(&s), vec![("links", "book")]);
    }

    #[test]
    fn drop_releases_the_guard() {
        let s = scan_file(&parse(
            "fn f(&self) { let a = self.links.lock(); drop(a); self.links.lock().clear(); }",
        ));
        assert!(s.nested.is_empty());
    }

    #[test]
    fn reacquire_is_a_self_deadlock() {
        let s = scan_file(&parse(
            "fn f(&self) { let a = self.links.lock(); self.links.lock().clear(); }",
        ));
        assert_eq!(pairs(&s), vec![("links", "links")]);
    }

    #[test]
    fn one_finding_per_acquisition_naming_a_held_same_lock_first() {
        let s = scan_file(&parse(
            "fn f(&self) { let a = self.links.lock(); let b = self.book.lock(); \
             self.links.lock().clear(); }",
        ));
        assert_eq!(pairs(&s), vec![("links", "book"), ("links", "links")]);
    }

    #[test]
    fn if_let_guard_scopes_to_its_block() {
        let s = scan_file(&parse(
            "fn f(&self) { if let Ok(mut g) = self.links.lock() { self.book.lock().get(1); } \
             self.links.lock().clear(); }",
        ));
        // The nested acquisition is seen; the re-take after the block is
        // not a re-acquire.
        assert_eq!(pairs(&s), vec![("links", "book")]);
        assert!(s.guard_vars.contains("g"));
    }

    #[test]
    fn condition_temporary_dies_with_its_block() {
        let s = scan_file(&parse(
            "fn f(&self) { if self.cuts.lock().has(1) { x(); } self.endpoints.lock().get(2); }",
        ));
        assert!(s.nested.is_empty(), "{:?}", s.nested);
    }

    #[test]
    fn match_scrutinee_temporary_covers_the_arms() {
        let s = scan_file(&parse(
            "fn f(&self) { match self.endpoints.lock().get(1) { Some(ep) => \
             { self.inbound.lock().get(2); } None => {} } }",
        ));
        assert_eq!(pairs(&s), vec![("endpoints", "inbound")]);
    }

    #[test]
    fn socket_read_is_not_an_acquisition() {
        let s = scan_file(&parse(
            "fn f(&self) { let g = self.links.lock(); stream.read(&mut buf); }",
        ));
        assert!(s.nested.is_empty());
        // …but it is also not in the blocking list (plain `read` can be
        // non-blocking); `read_exact` is.
        assert!(s.blocking.is_empty());
    }

    #[test]
    fn blocking_calls_under_guard_are_reported() {
        let s = scan_file(&parse(
            "fn f(&self) { let g = self.links.lock(); rx.recv(); h.join(); p.join(\"x\"); }",
        ));
        let calls: Vec<&str> = s.blocking.iter().map(|b| b.call.as_str()).collect();
        assert_eq!(calls, vec!["recv", "join"], "{:?}", s.blocking);
    }

    #[test]
    fn bounded_send_blocks_unbounded_does_not() {
        let bounded = scan_file(&parse(
            "fn mk() { let (tx, rx) = sync_channel(4); } \
             fn f(&self) { let g = self.links.lock(); tx.send(1); }",
        ));
        assert_eq!(bounded.blocking.len(), 1);
        let unbounded = scan_file(&parse(
            "fn f(&self) { let g = self.links.lock(); tx.send(1); }",
        ));
        assert!(unbounded.blocking.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let s = scan_file(&parse(
            "#[cfg(test)] mod t { fn f(&self) { let b = self.book.lock(); \
             self.links.lock().get(1); } }",
        ));
        assert!(s.nested.is_empty());
    }
}
