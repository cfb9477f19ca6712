//! Compare mode: judge a change's result set against its parent's.
//!
//! A result set is a JSON-lines file that `--save <file>` appends to, one
//! record per run: `{"workload": .., "seed": .., "trace": 0|1, "result":
//! <the run's result line>}`. Untraced runs of the same workload and
//! seed on both sides form a pair. For every workload x end-to-end
//! metric this prints both sides' median and quartiles, the pairs the
//! change won, and a verdict under the bound `BENCHMARK.json` fixes.

use crate::json::{self, Value};
use crate::stats::{score_pairs, verdict, Better, Summary};
use std::collections::BTreeMap;

pub const USAGE: &str =
    "usage: compare <parent.jsonl> <change.jsonl> [--benchmark <BENCHMARK.json>]";

/// An end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

pub fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(MetricSpec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_owned(),
                better: Better::parse(field("better")?.as_str().unwrap_or_default())
                    .ok_or("better is neither lower nor higher")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// workload -> seed -> metric -> value, untraced records only.
type ResultSet = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut out = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let seed = rec
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or(format!("line {}: no seed", i + 1))? as u64;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no result metrics", i + 1))?;
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.entry(workload.to_owned())
            .or_default()
            .insert(seed, values);
    }
    Ok(out)
}

fn fmt_summary(s: Option<Summary>) -> String {
    match s {
        Some(s) => format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n),
        None => "-".to_owned(),
    }
}

/// One table row per workload x metric.
pub fn compare(parent: &ResultSet, change: &ResultSet, specs: &[MetricSpec]) -> String {
    let mut rows = vec![[
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "won",
        "verdict",
    ]
    .map(str::to_owned)];
    let workloads: std::collections::BTreeSet<&String> =
        parent.keys().chain(change.keys()).collect();
    for w in workloads {
        let (p, c) = (parent.get(w), change.get(w));
        for spec in specs {
            let values = |side: Option<&BTreeMap<u64, BTreeMap<String, f64>>>| -> Vec<f64> {
                side.map(|runs| {
                    runs.values()
                        .filter_map(|m| m.get(&spec.name).copied())
                        .collect()
                })
                .unwrap_or_default()
            };
            let (pv, cv) = (values(p), values(c));
            let pairs: Vec<(f64, f64)> = match (p, c) {
                (Some(p), Some(c)) => p
                    .iter()
                    .filter_map(|(seed, pm)| {
                        Some((*pm.get(&spec.name)?, *c.get(seed)?.get(&spec.name)?))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let score = score_pairs(&pairs, spec.better);
            rows.push([
                w.clone(),
                spec.name.clone(),
                spec.unit.clone(),
                fmt_summary(Summary::of(&pv)),
                fmt_summary(Summary::of(&cv)),
                format!("{}/{}", score.won, score.total),
                verdict(&pv, &cv, &pairs, spec.better, spec.bound)
                    .name()
                    .to_owned(),
            ]);
        }
    }
    let widths: Vec<usize> = (0..7)
        .map(|i| rows.iter().map(|r| r[i].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for r in &rows {
        let cells: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// `compare` entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = p.clone(),
                None => {
                    eprintln!("{USAGE}");
                    return 2;
                }
            }
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let load = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let result = (|| -> Result<String, String> {
        let specs = metric_specs(&json::parse(&load(&benchmark)?)?)?;
        let p = parse_result_set(&load(parent)?).map_err(|e| format!("{parent}: {e}"))?;
        let c = parse_result_set(&load(change)?).map_err(|e| format!("{change}: {e}"))?;
        Ok(compare(&p, &c, &specs))
    })();
    match result {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("compare: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, wall: f64, rps: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "seed": {seed}, "trace": 0, "result": {{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"wall_s": {{"value": {wall}, "unit": "s"}}, "server_rps": {{"value": {rps}, "unit": "req/s"}}}}}}}}"#
        )
    }

    fn specs() -> Vec<MetricSpec> {
        metric_specs(
            &json::parse(
                r#"{"end_to_end": [
                    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                    {"name": "server_rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn reads_the_repository_benchmark_contract() {
        let specs =
            metric_specs(&json::parse(include_str!("../../BENCHMARK.json")).unwrap()).unwrap();
        assert!(specs
            .iter()
            .any(|s| s.name == "setup_s" && s.better == Better::Lower));
        assert!(specs.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    }

    #[test]
    fn pairs_by_seed_and_judges_each_metric() {
        let parent: String = (1..=10)
            .map(|s| record("server", s, 10.0 + s as f64 * 0.01, 100.0) + "\n")
            .collect();
        let change: String = (1..=10)
            .map(|s| record("server", s, 8.0 + s as f64 * 0.01, 100.0) + "\n")
            .collect();
        let traced_noise =
            r#"{"workload": "server", "seed": 1, "trace": 1, "result": {"metrics": {}}}"#;
        let p = parse_result_set(&(parent + traced_noise)).unwrap();
        let c = parse_result_set(&change).unwrap();
        assert_eq!(p["server"].len(), 10);
        let table = compare(&p, &c, &specs());
        let wall = table.lines().find(|l| l.contains("wall_s")).unwrap();
        assert!(
            wall.contains("10/10") && wall.ends_with("improved"),
            "{wall}"
        );
        let rps = table.lines().find(|l| l.contains("server_rps")).unwrap();
        assert!(rps.contains("0/10") && rps.ends_with("unchanged"), "{rps}");
    }

    #[test]
    fn missing_side_is_unresolved() {
        let p = parse_result_set(&record("report", 1, 5.0, 1.0)).unwrap();
        let table = compare(&p, &ResultSet::new(), &specs());
        assert!(
            table.lines().skip(1).all(|l| l.ends_with("unresolved")),
            "{table}"
        );
    }
}
