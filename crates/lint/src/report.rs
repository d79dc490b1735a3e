//! Diagnostics and the machine-readable JSON report. JSON is emitted by
//! hand — the linter deliberately depends on nothing, not even the
//! workspace's own serde shim.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finding. `suppressed` carries the inline justification when an
/// `// arm-lint: allow(...)` comment covers the site.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub suppressed: Option<String>,
}

impl Diagnostic {
    pub fn is_open(&self) -> bool {
        self.suppressed.is_none()
    }

    /// The `file:line: rule: message` form printed to stderr/stdout.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Wall time one rule (or rule family) took over the whole scan.
#[derive(Debug, Clone)]
pub struct RuleTiming {
    pub rule: &'static str,
    pub micros: u64,
}

/// The result of one full scan.
#[derive(Debug)]
pub struct Report {
    pub files_scanned: usize,
    pub duration_ms: u64,
    pub rule_timings: Vec<RuleTiming>,
    pub diags: Vec<Diagnostic>,
}

impl Report {
    pub fn open(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.is_open())
    }

    pub fn open_count(&self) -> usize {
        self.open().count()
    }

    pub fn suppressed_count(&self) -> usize {
        self.diags.len() - self.open_count()
    }

    /// Per-rule `(open, suppressed)` counts.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for d in &self.diags {
            let slot = counts.entry(d.rule).or_default();
            if d.is_open() {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        counts
    }

    /// Full machine-readable report: every diagnostic plus counts.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"duration_ms\": {},", self.duration_ms);
        let _ = writeln!(s, "  \"open\": {},", self.open_count());
        let _ = writeln!(s, "  \"suppressed\": {},", self.suppressed_count());
        s.push_str("  \"rule_counts\": ");
        s.push_str(&rule_counts_json(&self.rule_counts(), "  "));
        s.push_str(",\n  \"diagnostics\": [\n");
        for (i, d) in self.diags.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"suppressed\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(&d.message),
                match &d.suppressed {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
            s.push_str(if i + 1 < self.diags.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The compact BENCH-style summary tracked across PRs.
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{\n  \"tool\": \"arm-lint\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"duration_ms\": {},", self.duration_ms);
        let _ = writeln!(s, "  \"open\": {},", self.open_count());
        let _ = writeln!(s, "  \"suppressed\": {},", self.suppressed_count());
        s.push_str("  \"rule_timings_us\": {\n");
        for (i, t) in self.rule_timings.iter().enumerate() {
            let _ = write!(s, "    {}: {}", json_str(t.rule), t.micros);
            s.push_str(if i + 1 < self.rule_timings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  },\n");
        s.push_str("  \"rule_counts\": ");
        s.push_str(&rule_counts_json(&self.rule_counts(), "  "));
        s.push_str("\n}\n");
        s
    }

    /// GitHub Actions workflow commands — one `::error`/`::notice` line
    /// per finding, which the runner turns into inline PR annotations.
    pub fn github_annotations(&self) -> String {
        let mut s = String::new();
        for d in &self.diags {
            let kind = if d.is_open() { "error" } else { "notice" };
            // Workflow-command property values escape %, CR and LF.
            let msg = d
                .message
                .replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A");
            let _ = writeln!(
                s,
                "::{kind} file={},line={},title=arm-lint {}::{msg}",
                d.file, d.line, d.rule
            );
        }
        s
    }
}

fn rule_counts_json(counts: &BTreeMap<&'static str, (usize, usize)>, indent: &str) -> String {
    let mut s = String::from("{\n");
    for (i, (rule, (open, sup))) in counts.iter().enumerate() {
        let _ = write!(
            s,
            "{indent}  {}: {{\"open\": {open}, \"suppressed\": {sup}}}",
            json_str(rule)
        );
        s.push_str(if i + 1 < counts.len() { ",\n" } else { "\n" });
    }
    let _ = write!(s, "{indent}}}");
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let r = Report {
            files_scanned: 2,
            duration_ms: 1,
            rule_timings: vec![RuleTiming {
                rule: "lock-graph",
                micros: 42,
            }],
            diags: vec![
                Diagnostic {
                    rule: "lock-graph",
                    file: "a\"b.rs".into(),
                    line: 3,
                    message: "x".into(),
                    suppressed: None,
                },
                Diagnostic {
                    rule: "lock-graph",
                    file: "c.rs".into(),
                    line: 4,
                    message: "y".into(),
                    suppressed: Some("ok".into()),
                },
            ],
        };
        assert_eq!(r.open_count(), 1);
        assert_eq!(r.suppressed_count(), 1);
        let json = r.to_json();
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("\"lock-graph\": {\"open\": 1, \"suppressed\": 1}"));
        let summary = r.summary_json();
        assert!(summary.contains("\"rule_timings_us\""));
        assert!(summary.contains("\"lock-graph\": 42"));

        let gh = r.github_annotations();
        assert!(gh.contains("::error file=a\"b.rs,line=3,title=arm-lint lock-graph::x"));
        assert!(gh.contains("::notice file=c.rs,line=4,title=arm-lint lock-graph::y"));
    }
}
