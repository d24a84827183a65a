//! `--compare <a.jsonl> <b.jsonl>`: the no-regression table.
//!
//! Both files hold result lines written with `--out` (any number of runs
//! per workload).  For every (metric, workload) pair the table gives both
//! medians, the ratio with its base, and a verdict against the bound that
//! `BENCHMARK.json` fixes for the metric:
//!
//! * `WORSE` — `b`'s median is worse than `a`'s by more than the bound, or
//!   `b` failed operations that `a` did not;
//! * `UNRESOLVED` — the run-to-run spread of either side (interquartile
//!   distance over median, four runs or more) is wider than the bound, so
//!   "unchanged" cannot be told from "changed";
//! * `PASS` — otherwise.
//!
//! Per-layer metrics have no bound and get no verdict.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, ratio_with_base, spread};

/// (workload, metric) -> one value per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

struct Side {
    runs: Runs,
    /// workload -> failed operations summed over its runs.
    failed: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side {
        runs: Runs::new(),
        failed: BTreeMap::new(),
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let j = Json::parse(line).map_err(|e| at(&e))?;
        if j.get("quick") == Some(&Json::Bool(true)) {
            return Err(at("a --quick run is not comparable"));
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no \"workload\" (write result lines with --out)"))?;
        *side.failed.entry(workload.to_string()).or_default() +=
            j.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            return Err(at("no \"metrics\" object"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(&format!("metric {name} has no value")))?;
            side.runs
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Pass,
    Worse,
    Unresolved,
}

/// The rule of the module doc for one bounded metric.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    let noisy = |xs: &[f64]| xs.len() >= 4 && spread(xs) > bound;
    if worse_by > bound {
        Verdict::Worse
    } else if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

struct Spec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn specs(bench: &Json, key: &str) -> Result<Vec<Spec>, String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} array"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Spec {
                name: field("name").ok_or(format!("a {key} metric has no name"))?,
                unit: field("unit").unwrap_or_default(),
                lower_is_better: field("better").as_deref() == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let (a_path, b_path, bench_path) = match args {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, flag, p] if flag == "--bench-json" => (a, b, p.as_str()),
        _ => {
            eprintln!("usage: --compare <a.jsonl> <b.jsonl> [--bench-json <BENCHMARK.json>]");
            return 2;
        }
    };
    match run(a_path, b_path, bench_path) {
        Ok(worse) => i32::from(worse > 0),
        Err(e) => {
            eprintln!("mpf-benchmark --compare: {e}");
            2
        }
    }
}

fn run(a_path: &str, b_path: &str, bench_path: &str) -> Result<usize, String> {
    let bench_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = Json::parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?;
    let mut metrics = specs(&bench, "end_to_end")?;
    metrics.extend(specs(&bench, "per_layer")?);
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads array")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let (a, b) = (load(a_path)?, load(b_path)?);

    println!("a = {a_path}\nb = {b_path}\n");
    println!(
        "{:<11} {:<34} {:>3} {:>3}  {:<44} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "na", "nb", "b / a", "spr a", "spr b", "bound"
    );
    let (mut worse, mut worse_pairs, mut unresolved, mut pairs) = (0, 0, 0, 0);
    for w in &workloads {
        let failed = |s: &Side| s.failed.get(w).copied().unwrap_or(0.0);
        if failed(&a) > 0.0 || failed(&b) > 0.0 {
            let v = if failed(&b) > failed(&a) {
                "WORSE"
            } else {
                "PASS"
            };
            worse += usize::from(v == "WORSE");
            println!(
                "{w:<11} {:<34} failed operations: a {} b {}  {v}",
                "fail_ratio",
                failed(&a),
                failed(&b)
            );
        }
        for m in &metrics {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.runs.get(&key), b.runs.get(&key)) else {
                continue;
            };
            let pct = |xs: &[f64]| {
                if xs.len() >= 2 {
                    format!("{:.1}%", spread(xs) * 100.0)
                } else {
                    "-".to_string()
                }
            };
            let (bound, v) = match m.bound {
                Some(bound) => {
                    pairs += 1;
                    let v = verdict(va, vb, m.lower_is_better, bound);
                    worse += usize::from(v == Verdict::Worse);
                    worse_pairs += usize::from(v == Verdict::Worse);
                    unresolved += usize::from(v == Verdict::Unresolved);
                    (
                        format!("{:.0}%", bound * 100.0),
                        format!("{v:?}").to_uppercase(),
                    )
                }
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "{w:<11} {:<34} {:>3} {:>3}  {:<44} {:>7} {:>7} {:>6}  {v}",
                m.name,
                va.len(),
                vb.len(),
                ratio_with_base(median(vb), median(va), &m.unit),
                pct(va),
                pct(vb),
                bound,
            );
        }
    }
    println!(
        "\n{pairs} bounded (metric, workload) pairs: {worse_pairs} WORSE, {unresolved} UNRESOLVED, \
         {} PASS",
        pairs - worse_pairs - unresolved,
    );
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Higher is better: 100 -> 95 is within 10 %, 100 -> 85 is not.
        assert_eq!(verdict(&[100.0], &[95.0], false, 0.10), Verdict::Pass);
        assert_eq!(verdict(&[100.0], &[85.0], false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[130.0], false, 0.10), Verdict::Pass);
        // Lower is better: the same numbers flip.
        assert_eq!(verdict(&[100.0], &[115.0], true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[70.0], true, 0.10), Verdict::Pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&steady, &steady, true, 0.10), Verdict::Pass);
        assert_eq!(verdict(&steady, &noisy, true, 0.10), Verdict::Unresolved);
        // Three runs a side say nothing about spread.
        assert_eq!(verdict(&noisy[..3], &noisy[..3], true, 0.10), Verdict::Pass);
        // A regression beyond the bound is still a regression.
        let slow: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&steady, &slow, true, 0.10), Verdict::Worse);
    }
}
