//! AST-lite source model built on the token stream: matched braces,
//! `#[cfg(test)]` / `#[test]` regions, function spans, and the inline
//! suppression-comment lookup shared by every rule.

use crate::lexer::{lex, Lexed, Tok, Token};
use std::collections::BTreeMap;
use std::path::Path;

/// A function body: `name` and the token range `[open, close]` of its body
/// braces (inclusive).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub open: usize,
    pub close: usize,
}

/// One lexed and indexed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable diagnostic key).
    pub rel: String,
    pub tokens: Vec<Token>,
    pub comments: BTreeMap<u32, String>,
    /// Per-token: true when the token sits inside `#[cfg(test)]` or
    /// `#[test]` code.
    pub test_mask: Vec<bool>,
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(src);
        let brace_match = match_braces(&tokens);
        let test_mask = mark_test_regions(&tokens, &brace_match);
        let fns = find_fns(&tokens, &brace_match);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            comments,
            test_mask,
            fns,
        }
    }

    /// Loads and parses a file; returns `None` when unreadable.
    pub fn load(root: &Path, rel: &str) -> Option<SourceFile> {
        let src = std::fs::read_to_string(root.join(rel)).ok()?;
        Some(SourceFile::parse(rel, &src))
    }

    /// Checks for an `// arm-lint: allow(<rule>) -- reason` suppression on
    /// `line` or the line above. Returns the reason (may be empty).
    pub fn suppression(&self, line: u32, rule: &str) -> Option<String> {
        self.comment_block(line)
            .into_iter()
            .filter_map(|l| self.comments.get(&l))
            .find_map(|c| parse_suppression(c, rule))
    }

    /// Lines whose comments may govern `line`: a trailing comment on the
    /// line itself plus the contiguous run of comment lines directly above
    /// it (suppressions are allowed to wrap).
    fn comment_block(&self, line: u32) -> Vec<u32> {
        let mut lines = vec![line];
        let mut l = line.saturating_sub(1);
        while l > 0 && self.comments.contains_key(&l) {
            lines.push(l);
            l -= 1;
        }
        lines
    }
}

/// Parses `arm-lint: allow(rule-a, rule-b) -- reason` out of one comment.
fn parse_suppression(comment: &str, rule: &str) -> Option<String> {
    let at = comment.find("arm-lint:")?;
    let rest = &comment[at + "arm-lint:".len()..];
    let open = rest.find("allow(")?;
    let inner = &rest[open + "allow(".len()..];
    let close = inner.find(')')?;
    let listed = inner[..close]
        .split(',')
        .map(str::trim)
        .any(|r| r == rule || r == "all");
    if !listed {
        return None;
    }
    let reason = inner[close + 1..]
        .split_once("--")
        .map(|(_, r)| r.trim().to_string())
        .unwrap_or_default();
    Some(reason)
}

fn match_braces(tokens: &[Token]) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                }
            }
            _ => {}
        }
    }
    map
}

fn is_ident(t: &Token, s: &str) -> bool {
    matches!(&t.tok, Tok::Ident(i) if i == s)
}

/// Marks tokens covered by `#[test]`- or `#[cfg(test)]`-annotated items.
fn mark_test_regions(tokens: &[Token], braces: &BTreeMap<usize, usize>) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok == Tok::Punct('#') {
            // `#[…]` or `#![…]` — find the attribute's bracket span.
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].tok == Tok::Punct('!') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].tok == Tok::Punct('[') {
                let mut depth = 0i32;
                let mut end = j;
                let mut mentions_test = false;
                while end < tokens.len() {
                    match tokens[end].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Ident(ref id) if id == "test" => mentions_test = true,
                        _ => {}
                    }
                    end += 1;
                }
                if mentions_test {
                    // Skip to the annotated item's body and mask it. Stop
                    // at `;` (no body) to avoid swallowing a neighbor.
                    let mut k = end + 1;
                    while k < tokens.len() {
                        match tokens[k].tok {
                            Tok::Punct('{') => {
                                let close = braces.get(&k).copied().unwrap_or(k);
                                for slot in mask.iter_mut().take(close + 1).skip(i) {
                                    *slot = true;
                                }
                                i = close;
                                break;
                            }
                            Tok::Punct(';') => break,
                            _ => k += 1,
                        }
                    }
                }
                if i < end {
                    i = end;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Records every `fn name(…) … { … }` span (free functions, methods, and
/// nested fns alike).
fn find_fns(tokens: &[Token], braces: &BTreeMap<usize, usize>) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if is_ident(&tokens[i], "fn") {
            if let Tok::Ident(name) = &tokens[i + 1].tok {
                // Find the body `{`, giving up at a `;` (trait signature).
                let mut k = i + 2;
                let mut angle = 0i32;
                while k < tokens.len() {
                    match tokens[k].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('{') if angle <= 0 => {
                            if let Some(&close) = braces.get(&k) {
                                fns.push(FnSpan {
                                    name: name.clone(),
                                    open: k,
                                    close,
                                });
                            }
                            break;
                        }
                        Tok::Punct(';') if angle <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_is_masked() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }",
        );
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.tok, Tok::Ident(i) if i == "unwrap"))
            .map(|(i, _)| f.test_mask[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn fn_spans() {
        let f = SourceFile::parse("x.rs", "fn outer() { let x = 1; }\nfn other() {}");
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "other"]);
        let x_idx = f
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(i) if i == "x"))
            .unwrap();
        let outer = &f.fns[0];
        assert!(outer.open < x_idx && x_idx < outer.close);
    }

    #[test]
    fn suppression_parsing() {
        let f = SourceFile::parse(
            "x.rs",
            "// arm-lint: allow(unbounded-growth) -- startup only\nself.seen.push(x);",
        );
        assert_eq!(
            f.suppression(2, "unbounded-growth"),
            Some("startup only".into())
        );
        assert_eq!(f.suppression(2, "lock-graph"), None);
    }

    #[test]
    fn trait_signatures_do_not_create_spans() {
        let f = SourceFile::parse("x.rs", "trait T { fn a(&self); fn b(&self) { () } }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "b");
    }
}
