//! arm-lint: project-specific static analysis for the adaptive-p2p-rm
//! workspace.
//!
//! Each rule enforces an invariant the middleware's correctness argument
//! leans on and that no compiler lint can check — it needs a
//! whole-workspace view or has no clippy equivalent (see DESIGN.md §9 and
//! §14):
//!
//! | rule                  | invariant                                           |
//! |-----------------------|-----------------------------------------------------|
//! | `lock-graph`          | every lock is a leaf: no acquisition, nor a         |
//! |                       | re-acquisition, while another guard is live         |
//! | `blocking-under-lock` | no blocking call (recv/join/wait/socket I/O) while  |
//! |                       | a guard is live                                     |
//! | `unbounded-growth`    | long-running crates cap or evict every collection   |
//!
//! (The two concurrency rules share one lock tracker in [`locks`]. In
//! debug builds `arm_util::Lock` also asserts the leaf rule on every
//! acquisition, which covers nestings through calls the scan cannot
//! follow. What a compiler lint decides with types is the compiler's job,
//! not a rule's: panic-freedom, narrowing casts, unchecked integer and
//! time arithmetic, ambient clocks and hash order, and reason-less
//! `#[allow]`s are clippy lints denied at the crate roots and in
//! per-crate `clippy.toml`s (DESIGN.md §9); that every `Message` variant
//! and lifecycle phase is wired everywhere is rustc's — the sites are
//! wildcard-free matches over one table, DESIGN.md §8.)
//!
//! Findings are suppressible inline with
//! `// arm-lint: allow(<rule>) -- reason` on the same line or the line
//! above; suppressed findings still appear in the JSON report.
//!
//! The crate is dependency-free by design: it must build offline and must
//! not depend on any crate it audits.

pub mod config;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scan;

pub use config::Config;
pub use report::{Diagnostic, Report, RuleTiming};
pub use scan::SourceFile;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Runs every rule over the workspace rooted at `root` and returns the
/// full report, diagnostics sorted by `(file, line, rule)` and per-rule
/// wall times recorded for the bench gate.
pub fn run(root: &Path, cfg: &Config) -> Report {
    let started = std::time::Instant::now();
    let files = collect_files(root, cfg);
    let mut diags = Vec::new();
    let mut timings = Vec::new();
    let mut timed = |label: &'static str,
                     diags: &mut Vec<Diagnostic>,
                     f: &mut dyn FnMut(&mut Vec<Diagnostic>)| {
        let t0 = std::time::Instant::now();
        f(diags);
        timings.push(RuleTiming {
            rule: label,
            micros: t0.elapsed().as_micros() as u64,
        });
    };
    timed("unbounded-growth", &mut diags, &mut |d| {
        for file in files.values() {
            rules::unbounded_growth(file, cfg, d);
        }
    });
    timed("lock-rules", &mut diags, &mut |d| {
        locks::lock_rules(&files, d);
    });
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        files_scanned: files.len(),
        duration_ms: started.elapsed().as_millis() as u64,
        rule_timings: timings,
        diags,
    }
}

/// Lexes and indexes every `.rs` file under the configured scan dirs,
/// keyed by workspace-relative path.
pub fn collect_files(root: &Path, cfg: &Config) -> BTreeMap<String, SourceFile> {
    let mut rel_paths = Vec::new();
    for dir in &cfg.scan_dirs {
        walk(&root.join(dir), root, &mut rel_paths);
    }
    rel_paths.sort();
    let mut files = BTreeMap::new();
    for rel in rel_paths {
        if cfg.scan_exclude.iter().any(|p| rel.starts_with(p.as_str())) {
            continue;
        }
        if let Some(f) = SourceFile::load(root, &rel) {
            files.insert(rel, f);
        }
    }
    files
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(path_to_rel(rel));
            }
        }
    }
}

fn path_to_rel(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root when running via `cargo run -p arm-lint` (two levels
/// above this crate's manifest).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}
