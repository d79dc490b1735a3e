//! `arm_bench`: the repo's end-to-end benchmark.
//!
//! ```text
//! arm_bench --workload W --seed N --seconds S --trace 0|1   one pass, one result line
//! arm_bench run --seed N [--seconds S] [--out FILE] [--smoke]   every workload, both passes
//! arm_bench compare A.json B.json                            bounds applied per metric
//! arm_bench manifest                                         prints /BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they interact.

mod gen;
mod inline;
mod ledger;
mod live;
mod passes;
mod procfs;
mod report;
mod simdes;
mod spec;
mod stats;
mod trace;

use passes::Scale;
use report::{PassResult, WorkloadResult};
use std::process::ExitCode;

/// Options shared by the driver form and `run`.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    /// Print the result line with sample counts and failed checks (how `run`
    /// reads the passes it spawns).
    detail: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
        smoke: false,
        detail: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--smoke" => o.smoke = true,
            "--detail" => o.detail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// The driver's form: one workload, one pass, one JSON line last.
fn one_pass(o: &Opts) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let scale = if o.smoke {
        Scale::smoke()
    } else {
        Scale::full(o.seconds)
    };
    let result = if o.trace {
        passes::traced(w, o.seed, &scale)?
    } else {
        passes::untraced(w, o.seed, &scale)?
    };
    eprint!("{}", result.table());
    for p in &result.problems {
        eprintln!("output check failed: {p}");
    }
    println!(
        "{}",
        if o.detail {
            result.detail_line()
        } else {
            result.contract_line()
        }
    );
    Ok(if result.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one pass in a process of its own, as the driver does, so that peak
/// memory, thread counts and allocator state are that pass's alone.
fn spawn_pass(w: &spec::Workload, o: &Opts, trace: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--detail"]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // The pass's own table and progress go straight to our stderr.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "{} pass of {} printed no result ({})",
        if trace { "traced" } else { "untraced" },
        w.name,
        out.status
    ))?;
    PassResult::from_detail_line(line)
}

/// `run`: every workload, untraced pass then traced and inline pass.
fn run_all(o: &Opts) -> Result<ExitCode, String> {
    let seconds = if o.smoke {
        Scale::smoke().seconds
    } else {
        o.seconds
    };
    let mut results = Vec::new();
    let mut ok = true;
    for w in &spec::WORKLOADS {
        eprintln!("== {}: untraced pass", w.name);
        let end_to_end = spawn_pass(w, o, false)?;
        eprintln!("== {}: traced and inline pass", w.name);
        let per_layer = spawn_pass(w, o, true)?;
        println!("{} (seed {})", w.name, o.seed);
        print!("{}{}", end_to_end.table(), per_layer.table());
        for p in end_to_end.problems.iter().chain(&per_layer.problems) {
            println!("  output check failed: {p}");
            ok = false;
        }
        results.push(WorkloadResult {
            name: w.name,
            end_to_end,
            per_layer,
        });
    }
    if let Some(path) = &o.out {
        report::append_run(
            std::path::Path::new(path),
            &report::run_json(o.seed, seconds, &results),
        )?;
        eprintln!("appended to {path}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&parse_opts(&args[1..])?),
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("usage: arm_bench compare A.json B.json".into());
            };
            let (table, acceptable) = report::compare(a, b)?;
            print!("{table}");
            Ok(if acceptable {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_pass(&parse_opts(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("arm_bench: {e}");
            ExitCode::from(2)
        }
    }
}
