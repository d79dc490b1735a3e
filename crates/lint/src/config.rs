//! Rule configuration: which paths each rule covers.

/// Full linter configuration. [`Config::workspace`] is the checked-in
/// policy for this repository; tests build bespoke configs over fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes where unbounded collection growth is flagged
    /// (long-running crates).
    pub growth_paths: Vec<String>,
    /// Path prefixes excluded from the scan entirely.
    pub scan_exclude: Vec<String>,
    /// Directories (relative to the root) to walk for `.rs` files.
    pub scan_dirs: Vec<String>,
}

impl Config {
    /// The policy enforced on this workspace by CI.
    pub fn workspace() -> Config {
        Config {
            growth_paths: vec![
                "crates/runtime/src/".into(),
                "crates/wire/src/".into(),
                "crates/telemetry/src/".into(),
                "crates/store/src/".into(),
            ],
            scan_exclude: vec!["crates/shims/".into(), "crates/lint/tests/fixtures/".into()],
            scan_dirs: vec!["crates".into(), "src".into()],
        }
    }
}
