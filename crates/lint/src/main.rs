//! The `arm-lint` CLI: scans the workspace, prints `file:line: rule:
//! message` diagnostics, optionally writes the JSON report, the
//! BENCH-style summary and GitHub annotations, and exits non-zero on any
//! unsuppressed finding (or on blowing the `--max-ms` scan-time budget).

use arm_lint::{default_root, run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: arm-lint [--root DIR] [--json FILE] [--summary FILE]
                [--github] [--max-ms N] [--verbose]

Scans the workspace with the checked-in rule policy: lock-graph,
blocking-under-lock and unbounded-growth. Exit code 1 when any
unsuppressed diagnostic remains, or when the scan exceeds --max-ms.
Suppress a finding inline with `// arm-lint: allow(<rule>) -- reason`.

  --json FILE      write the full JSON report
  --summary FILE   write the compact summary (per-rule counts + timings)
  --github         print GitHub Actions ::error/::notice annotations
  --max-ms N       fail if the full scan takes longer than N ms";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut summary_out: Option<PathBuf> = None;
    let mut github = false;
    let mut max_ms: Option<u64> = None;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            "--summary" => summary_out = args.next().map(PathBuf::from),
            "--github" => github = true,
            "--max-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_ms = Some(v),
                None => {
                    eprintln!("arm-lint: --max-ms needs an integer\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("arm-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    let cfg = Config::workspace();
    let report = run(&root, &cfg);

    for d in report.open() {
        println!("{}", d.render());
    }
    if verbose {
        for d in report.diags.iter().filter(|d| !d.is_open()) {
            let reason = d.suppressed.as_deref().unwrap_or("");
            println!("{} [suppressed: {reason}]", d.render());
        }
    }
    if github {
        print!("{}", report.github_annotations());
    }

    type RenderFn = fn(&arm_lint::Report) -> String;
    let writes: [(&Option<PathBuf>, RenderFn); 2] = [
        (&json_out, |r| r.to_json()),
        (&summary_out, |r| r.summary_json()),
    ];
    for (path, render) in writes {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, render(&report)) {
                eprintln!("arm-lint: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let open = report.open_count();
    println!(
        "arm-lint: {open} open, {} suppressed across {} files in {} ms",
        report.suppressed_count(),
        report.files_scanned,
        report.duration_ms
    );
    let mut failed = open > 0;
    if let Some(budget) = max_ms {
        if report.duration_ms > budget {
            eprintln!(
                "arm-lint: scan took {} ms, over the {budget} ms budget",
                report.duration_ms
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
