//! End-to-end fixture tests: the linter must report every planted
//! violation at its exact `file:line:rule`, honor inline suppressions,
//! leave test code alone — and pass the real workspace cleanly.

use arm_lint::{run, Config, SourceFile};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws1")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture_config() -> Config {
    Config {
        growth_paths: vec!["src/grow/".into()],
        scan_exclude: vec![],
        scan_dirs: vec!["src".into()],
    }
}

#[test]
fn fixtures_report_exact_file_line_rule() {
    let report = run(&fixture_root(), &fixture_config());
    let open: Vec<(&str, u32, &str)> = report
        .diags
        .iter()
        .filter(|d| d.suppressed.is_none())
        .map(|d| (d.file.as_str(), d.line, d.rule))
        .collect();
    let rendered: Vec<String> = report.diags.iter().map(|d| d.render()).collect();
    let expected: Vec<(&str, u32, &str)> = vec![
        ("src/block.rs", 10, "blocking-under-lock"),
        ("src/block.rs", 16, "blocking-under-lock"),
        ("src/cycle.rs", 10, "lock-graph"),
        ("src/cycle.rs", 17, "lock-graph"),
        ("src/grow/buf.rs", 10, "unbounded-growth"),
        ("src/locks.rs", 9, "lock-graph"),
        ("src/locks.rs", 16, "lock-graph"),
        ("src/locks.rs", 23, "lock-graph"),
        ("src/locks.rs", 30, "lock-graph"),
    ];
    assert_eq!(open, expected, "full report:\n{}", rendered.join("\n"));
}

#[test]
fn every_rule_fires_in_the_fixture_set() {
    let report = run(&fixture_root(), &fixture_config());
    for rule in ["lock-graph", "blocking-under-lock", "unbounded-growth"] {
        assert!(
            report
                .diags
                .iter()
                .any(|d| d.rule == rule && d.suppressed.is_none()),
            "rule {rule} never fired"
        );
    }
}

#[test]
fn suppressions_downgrade_but_stay_in_the_report() {
    let report = run(&fixture_root(), &fixture_config());
    let suppressed: Vec<(&str, u32, &str, &str)> = report
        .diags
        .iter()
        .filter_map(|d| {
            d.suppressed
                .as_deref()
                .map(|r| (d.file.as_str(), d.line, d.rule, r))
        })
        .collect();
    assert_eq!(
        suppressed,
        vec![(
            "src/grow/buf.rs",
            42,
            "unbounded-growth",
            "fixture: suppression downgrades, not hides"
        )]
    );
}

#[test]
fn test_code_is_exempt() {
    let report = run(&fixture_root(), &fixture_config());
    // The #[cfg(test)] module (lines 46+) grows a field with no eviction
    // and is masked entirely.
    assert!(
        !report
            .diags
            .iter()
            .any(|d| d.file == "src/grow/buf.rs" && d.line >= 46),
        "test code flagged"
    );
}

/// The acceptance gate: the linter's own workspace policy finds nothing
/// unsuppressed in the real repository.
#[test]
fn real_workspace_is_clean() {
    let report = run(&workspace_root(), &Config::workspace());
    let open: Vec<String> = report
        .diags
        .iter()
        .filter(|d| d.suppressed.is_none())
        .map(|d| d.render())
        .collect();
    assert!(
        open.is_empty(),
        "workspace violations:\n{}",
        open.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scan saw {}",
        report.files_scanned
    );
}

/// Acceptance lever one: deleting the early `drop(links)` in tcp.rs
/// `ensure_link` leaves the guard live across the writer spawn, so the
/// thread-exhaustion fallback's `self.links.lock()` becomes a re-acquire
/// and must fail the lock-graph rule by name.
#[test]
fn deleting_tcp_guard_drop_fails_lock_graph() {
    let root = workspace_root();
    let cfg = Config::workspace();
    let mut files = arm_lint::collect_files(&root, &cfg);

    let mut before = Vec::new();
    arm_lint::locks::lock_rules(&files, &mut before);
    assert!(
        before.iter().all(|d| d.suppressed.is_some()),
        "baseline not clean: {before:?}"
    );

    let tcp_rel = "crates/wire/src/tcp.rs";
    let src = std::fs::read_to_string(root.join(tcp_rel)).expect("tcp.rs");
    assert!(src.contains("drop(links);"), "fixture premise broken");
    let cut = src.replacen("drop(links);", "", 1);
    files.insert(tcp_rel.into(), SourceFile::parse(tcp_rel, &cut));

    let mut after = Vec::new();
    arm_lint::locks::lock_rules(&files, &mut after);
    assert!(
        after.iter().any(|d| d.file == tcp_rel
            && d.rule == "lock-graph"
            && d.message.contains("links")
            && d.suppressed.is_none()),
        "deleted drop not detected: {after:?}"
    );
}

/// Re-nesting the in-memory hub's `stats` — reading our endpoint's
/// inbound counters while the `endpoints` guard is still live, as the code
/// once did — must fail the lock-graph rule by name.
#[test]
fn renesting_mem_stats_fails_lock_graph() {
    let root = workspace_root();
    let cfg = Config::workspace();
    let mut files = arm_lint::collect_files(&root, &cfg);

    let mem_rel = "crates/wire/src/mem.rs";
    let src = std::fs::read_to_string(root.join(mem_rel)).expect("mem.rs");
    let leaf = "let own = self.hub.inner.endpoints.lock().get(&self.node).cloned();\n        \
                if let Some(ep) = own {";
    assert!(src.contains(leaf), "fixture premise broken");
    let nested = src.replacen(
        leaf,
        "if let Some(ep) = self.hub.inner.endpoints.lock().get(&self.node) {",
        1,
    );
    files.insert(mem_rel.into(), SourceFile::parse(mem_rel, &nested));

    let mut after = Vec::new();
    arm_lint::locks::lock_rules(&files, &mut after);
    assert!(
        after.iter().any(|d| d.file == mem_rel
            && d.rule == "lock-graph"
            && d.message.contains("`inbound` while holding `endpoints`")
            && d.suppressed.is_none()),
        "re-nested endpoints → inbound not detected: {after:?}"
    );
}

/// Acceptance lever two: seeding a bounded-channel send under a live
/// guard into tcp.rs (which already uses `sync_channel`, so sends count
/// as blocking) must fail blocking-under-lock by name.
#[test]
fn seeded_blocking_send_under_guard_fails_lint() {
    let root = workspace_root();
    let cfg = Config::workspace();
    let mut files = arm_lint::collect_files(&root, &cfg);

    let tcp_rel = "crates/wire/src/tcp.rs";
    let src = std::fs::read_to_string(root.join(tcp_rel)).expect("tcp.rs");
    let seeded = format!(
        "{src}\nimpl TcpTransport {{\n    fn seeded_backpressure(&self, tx: &SyncSender<usize>) {{\n        let links = self.links.lock();\n        tx.send(links.len()).ok();\n        drop(links);\n    }}\n}}\n"
    );
    files.insert(tcp_rel.into(), SourceFile::parse(tcp_rel, &seeded));

    let mut after = Vec::new();
    arm_lint::locks::lock_rules(&files, &mut after);
    assert!(
        after.iter().any(|d| d.file == tcp_rel
            && d.rule == "blocking-under-lock"
            && d.message.contains("`send`")
            && d.message.contains("links")
            && d.suppressed.is_none()),
        "seeded blocking send not detected: {after:?}"
    );
}
