//! Results: the metric set of a pass, the JSON it is printed and stored as,
//! and `compare`, which holds one result file against another.

use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (tasks, calls, windows, runs — whatever the
    /// metric is a statistic of); 0 when the row does not apply.
    pub samples: u64,
}

/// Named metrics of one pass.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    map: BTreeMap<String, (f64, u64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.map.insert(name.to_string(), (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.map.get(name).map_or(0.0, |m| m.0)
    }

    /// Every end-to-end metric, in table order. A missing name is a bug in
    /// the pass that built the set.
    pub fn end_to_end(&self) -> Result<Vec<(String, Metric)>, String> {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let (value, samples) = *self
                    .map
                    .get(m.name)
                    .ok_or(format!("end-to-end metric {} was not measured", m.name))?;
                if value == 0.0 {
                    return Err(format!("end-to-end metric {} read 0", m.name));
                }
                Ok((
                    m.name.to_string(),
                    Metric {
                        value,
                        unit: m.unit,
                        samples,
                    },
                ))
            })
            .collect()
    }

    /// Every per-layer metric, in table order; rows a workload has no layer
    /// for read 0 with no samples.
    pub fn per_layer(&self) -> Vec<(String, Metric)> {
        spec::per_layer()
            .into_iter()
            .map(|m| {
                let (value, samples) = self.map.get(&m.name).copied().unwrap_or((0.0, 0));
                (
                    m.name,
                    Metric {
                        value,
                        unit: m.unit,
                        samples,
                    },
                )
            })
            .collect()
    }
}

/// What one pass over one workload yields.
#[derive(Debug, Clone)]
pub struct PassResult {
    pub metrics: Vec<(String, Metric)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty means the outputs were correct.
    pub problems: Vec<String>,
}

fn metrics_json(metrics: &[(String, Metric)], with_samples: bool) -> String {
    let mut s = String::from("{");
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.value, m.unit
        );
        if with_samples {
            let _ = write!(s, ", \"samples\": {}", m.samples);
        }
        s.push('}');
    }
    s.push('}');
    s
}

impl PassResult {
    /// The one-line result object of the driver's contract.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics, false)
        )
    }

    /// The result object `run` reads back from the passes it spawns: the
    /// contract's keys plus sample counts and the failed checks.
    pub fn detail_line(&self) -> String {
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('\\', "/").replace('"', "'")))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            problems.join(", "),
            metrics_json(&self.metrics, true)
        )
    }

    /// Reads a [`PassResult::detail_line`] back.
    pub fn from_detail_line(line: &str) -> Result<Self, String> {
        let doc = serde_json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let units: BTreeMap<String, &'static str> = spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(spec::per_layer().into_iter().map(|m| (m.name, m.unit)))
            .collect();
        let metrics = doc
            .field("metrics")
            .as_object()
            .ok_or("result line has no metrics")?
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    Metric {
                        value: m
                            .field("value")
                            .as_f64()
                            .ok_or(format!("{name}: no value"))?,
                        unit: units.get(name).ok_or(format!("{name}: unknown metric"))?,
                        samples: m.field("samples").as_u64().unwrap_or(0),
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            metrics,
            attempted: doc.field("attempted").as_u64().unwrap_or(0),
            failed: doc.field("failed").as_u64().unwrap_or(0),
            problems: doc
                .field("problems")
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// A table for people: name, value, unit, sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                s,
                "  {name:<44} {:>16.6} {:<9} n={}",
                m.value, m.unit, m.samples
            );
        }
        s
    }
}

/// One workload's share of a `run`: both metric sets.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: PassResult,
    pub per_layer: PassResult,
}

/// Serialises one `run` (all workloads, one seed) as a JSON object.
pub fn run_json(seed: u64, seconds: f64, workloads: &[WorkloadResult]) -> String {
    let mut s = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            w.name,
            w.end_to_end.attempted,
            w.end_to_end.failed,
            metrics_json(&w.end_to_end.metrics, true),
            metrics_json(&w.per_layer.metrics, true)
        );
    }
    s.push_str("}}");
    s
}

/// Appends a run as one line to the result file at `path` (JSON lines,
/// one run each): a set of runs to compare is built by running into one file.
pub fn append_run(path: &std::path::Path, run: &str) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{run}").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Per-layer rows that are counts made by a deterministic pass: equal seeds
/// must give equal values, whatever the machine was doing.
pub fn is_exact_count(name: &str) -> bool {
    name == "des.events"
        || name == "wire.msgs_per_task"
        || name == "wire.frame.bytes_per_task"
        || name == "alloc.explored_per_task"
        || name == "alloc.pruned_per_task"
        || name == "alloc.cache_hit_ratio"
        || name == "store.persists_per_task"
        || name == "telemetry.trace_events_per_task"
        || name.starts_with("core.calls_per_task.")
}

/// How one metric on one workload compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of a side differ among themselves by more than the bound.
    Unresolved,
}

/// The verdict for values `a` (parent) and `b` (change) of a metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = stats::spread_share(a).max(stats::spread_share(b));
    if spread > bound {
        let b_always_better = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct RunFile {
    /// workload -> metric -> values, one per run, in run order.
    end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) -> exact-count metric -> value.
    exact: BTreeMap<(String, u64), BTreeMap<String, f64>>,
    /// workload -> (attempted, failed) summed over runs.
    failures: BTreeMap<String, (u64, u64)>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut f = RunFile {
        end_to_end: BTreeMap::new(),
        exact: BTreeMap::new(),
        failures: BTreeMap::new(),
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = serde_json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let seed = run.field("seed").as_u64().unwrap_or(0);
        for (wname, w) in run.field("workloads").as_object().unwrap_or(&[]) {
            let fail = f.failures.entry(wname.clone()).or_default();
            fail.0 += w.field("attempted").as_u64().unwrap_or(0);
            fail.1 += w.field("failed").as_u64().unwrap_or(0);
            for (m, v) in w.field("end_to_end").as_object().unwrap_or(&[]) {
                let value = v
                    .field("value")
                    .as_f64()
                    .ok_or(format!("{path}: {wname}.{m} has no value"))?;
                f.end_to_end
                    .entry(wname.clone())
                    .or_default()
                    .entry(m.clone())
                    .or_default()
                    .push(value);
            }
            for (m, v) in w.field("per_layer").as_object().unwrap_or(&[]) {
                if let (true, Some(value)) = (is_exact_count(m), v.field("value").as_f64()) {
                    f.exact
                        .entry((wname.clone(), seed))
                        .or_default()
                        .insert(m.clone(), value);
                }
            }
        }
    }
    Ok(f)
}

/// `arm_bench compare A B`: one row per workload and end-to-end metric.
/// Returns the report and whether B is acceptable against A.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    );
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                a.end_to_end.get(w.name).and_then(|x| x.get(m.name)),
                b.end_to_end.get(w.name).and_then(|x| x.get(m.name)),
            ) else {
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound);
            acceptable &= v != Verdict::Worse;
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let _ = writeln!(
                out,
                "{:<12} {:<22} {:>12.5} {:>12.5} {:>+7.1}% {:>7.1}% {:>6.1}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                stats::spread_share(va).max(stats::spread_share(vb)) * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if let (Some(&(att_a, fail_a)), Some(&(att_b, fail_b))) =
            (a.failures.get(w.name), b.failures.get(w.name))
        {
            let share = |att: u64, fail: u64| fail as f64 / att.max(1) as f64;
            if share(att_b, fail_b) > share(att_a, fail_a) {
                acceptable = false;
                let _ = writeln!(
                    out,
                    "{:<12} failed share rose: {fail_a}/{att_a} -> {fail_b}/{att_b}  worse",
                    w.name
                );
            }
        }
    }
    // Counts made by the deterministic passes, for seeds both files ran.
    let (mut same, mut differ) = (0usize, Vec::new());
    for (key, ea) in &a.exact {
        let Some(eb) = b.exact.get(key) else { continue };
        for (m, va) in ea {
            match eb.get(m) {
                Some(vb) if vb == va => same += 1,
                Some(vb) => differ.push(format!("{} seed {} {m}: {va} -> {vb}", key.0, key.1)),
                None => {}
            }
        }
    }
    let _ = writeln!(
        out,
        "exact counts for equal seeds: {same} identical, {} differ",
        differ.len()
    );
    for d in differ {
        let _ = writeln!(out, "  {d}");
    }
    Ok((out, acceptable))
}

/// `/BENCHMARK.json`, generated from the spec tables.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"arm_bench/Cargo.toml\", \"--bin\", \"arm_bench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"arm_bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {},", spec::RUN_SECONDS);
    s.push_str("  \"workloads\": [\n");
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < spec::WORKLOADS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in spec::END_TO_END.iter().enumerate() {
        let sep = if i + 1 < spec::END_TO_END.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = spec::per_layer();
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_bad_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // 5% slower against a 10% bound: fine. 15% slower: worse.
        assert_eq!(
            verdict(&a, &[10.5, 10.4, 10.6, 10.5], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[11.5, 11.4, 11.6, 11.5], Better::Lower, 0.10),
            Verdict::Worse
        );
        // Getting better is never worse, in either direction.
        assert_eq!(
            verdict(&a, &[5.0, 5.1, 4.9, 5.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [10.0, 14.0, 8.0, 12.0];
        assert_eq!(
            verdict(&noisy, &[11.0, 9.0, 13.0, 10.0], Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[7.0, 7.5, 6.0, 7.9], Better::Lower, 0.08),
            Verdict::Ok
        );
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let r = PassResult {
            metrics: vec![(
                "setup_s".into(),
                Metric {
                    value: 0.8127,
                    unit: "s",
                    samples: 5,
                },
            )],
            attempted: 1000,
            failed: 0,
            problems: vec![],
        };
        assert_eq!(
            r.contract_line(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = serde_json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn detail_line_round_trips() {
        let r = PassResult {
            metrics: vec![
                (
                    "setup_s".into(),
                    Metric {
                        value: 0.8127,
                        unit: "s",
                        samples: 9,
                    },
                ),
                (
                    "des.events".into(),
                    Metric {
                        value: 2000484.0,
                        unit: "count",
                        samples: 1,
                    },
                ),
            ],
            attempted: 1000,
            failed: 3,
            problems: vec!["wire.tcp.dropped = 2 on \"n1\"".into()],
        };
        let back = PassResult::from_detail_line(&r.detail_line()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.attempted, back.failed), (1000, 3));
        assert_eq!(
            back.problems,
            vec!["wire.tcp.dropped = 2 on 'n1'".to_string()]
        );
    }

    #[test]
    fn end_to_end_refuses_a_missing_or_zero_metric() {
        let mut m = Metrics::default();
        for e in spec::END_TO_END {
            m.set(e.name, 1.0, 1);
        }
        assert_eq!(m.end_to_end().unwrap().len(), spec::END_TO_END.len());
        m.set("tasks_per_s", 0.0, 0);
        assert!(m.end_to_end().is_err());
    }

    #[test]
    fn manifest_matches_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `arm_bench manifest > BENCHMARK.json`"
        );
        let doc = serde_json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
