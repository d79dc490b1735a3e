//! `arm_bench run --smoke`: every workload, every pass, every metric name,
//! in seconds. The numbers of a smoke run mean nothing; this checks that the
//! whole pipeline runs, that the output checks pass, and that no metric of
//! `/BENCHMARK.json` is missing from the result file.

use std::process::Command;

#[test]
fn smoke_run_reports_every_metric_on_every_workload() {
    let out = std::env::temp_dir().join(format!("arm-bench-smoke-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_arm_bench"))
        .args(["run", "--smoke", "--seed", "1", "--out"])
        .arg(&out)
        // Spans and WALs go under the target directory, as in a real run.
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn arm_bench");
    assert!(
        run.status.success(),
        "smoke run failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let result = std::fs::read_to_string(&out).expect("result file written");
    let _ = std::fs::remove_file(&out);
    let doc = serde_json::parse(result.lines().next().expect("one run")).expect("valid JSON");

    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let manifest = serde_json::parse(&manifest).expect("valid BENCHMARK.json");
    let names = |list: &str| -> Vec<String> {
        manifest
            .field(list)
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| m.field("name").as_str().expect("a name").to_string())
            .collect()
    };
    for workload in names("workloads") {
        let w = doc.field("workloads").field(&workload);
        assert!(
            w.as_object().is_some(),
            "{workload} missing from the result"
        );
        for metric in names("end_to_end") {
            let v = w.field("end_to_end").field(&metric).field("value").as_f64();
            assert!(v.is_some_and(|v| v > 0.0), "{workload}: {metric} = {v:?}");
        }
        for metric in names("per_layer") {
            let v = w.field("per_layer").field(&metric).field("value").as_f64();
            assert!(v.is_some(), "{workload}: {metric} missing");
        }
    }
    // The layers separate even in a smoke run: WAL rows only where a WAL is
    // configured, simulator rows only on the simulator.
    let value = |w: &str, m: &str| {
        doc.field("workloads")
            .field(w)
            .field("per_layer")
            .field(m)
            .field("value")
            .as_f64()
            .unwrap()
    };
    assert!(value("tcp8_full", "store.append_us") > 0.0);
    assert_eq!(value("tcp8_open", "store.append_us"), 0.0);
    assert_eq!(value("mem32_alloc", "store.persists_per_task"), 0.0);
    assert!(value("sim_des", "des.events") > 0.0);
    assert_eq!(value("tcp8_full", "des.events"), 0.0);
    assert!(value("mem32_alloc", "wire.mem.send_call_us") > 0.0);
    assert_eq!(value("mem32_alloc", "wire.tcp.send_call_us"), 0.0);
}

#[test]
fn unknown_workload_exits_non_zero_without_a_result() {
    let run = Command::new(env!("CARGO_BIN_EXE_arm_bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn arm_bench");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
