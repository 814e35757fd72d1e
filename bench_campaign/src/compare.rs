//! `--compare A.json B.json`: two sets of untraced runs, side by side.
//!
//! Per workload and end-to-end metric it prints each side's median and
//! quartiles and B's change against A as a share of A's median, signed
//! so that positive is worse, next to the metric's bound from
//! `BENCHMARK.json`. The verdict is `better` when every B run beats every
//! A run, `unresolved` when either side's spread (quartile distance over
//! median) is wider than the bound, `REGRESSION` when B is worse by more
//! than the bound, and `ok` otherwise. `fail_frac` regresses on any
//! increase.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::quartiles;

/// One end-to-end metric's definition in `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Untraced metric values per (workload, metric), plus per-workload
/// failed and attempted campaign counts.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failures: BTreeMap<String, (f64, f64)>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|metric| {
            Ok(Bound {
                name: metric
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("end_to_end metric without a name")?
                    .to_string(),
                higher_is_better: metric.get("better").and_then(Json::str) == Some("higher"),
                bound: metric
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("end_to_end metric without a bound")?,
            })
        })
        .collect()
}

fn side(doc: &Json) -> Side {
    let mut side = Side::default();
    for run in doc.get("runs").map(Json::arr).unwrap_or_default() {
        if run.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::str) else {
            continue;
        };
        let failures = side.failures.entry(workload.to_string()).or_default();
        failures.0 += run.get("failed").and_then(Json::num).unwrap_or(0.0);
        failures.1 += run.get("attempted").and_then(Json::num).unwrap_or(0.0);
        for (name, metric) in run.get("metrics").and_then(Json::obj).into_iter().flatten() {
            if let Some(value) = metric.get("value").and_then(Json::num) {
                side.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    side
}

fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (f64, &'static str) {
    let (a1, am, a3) = quartiles(a).expect("non-empty");
    let (b1, bm, b3) = quartiles(b).expect("non-empty");
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (bm - am) / am;
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
    let label = if all_better {
        "better"
    } else if spread > bound.bound {
        "unresolved"
    } else if worse > bound.bound {
        "REGRESSION"
    } else {
        "ok"
    };
    (worse, label)
}

fn summary(values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values).expect("non-empty");
    format!("{med:.6} [{q1:.6} {q3:.6}]")
}

/// Prints the comparison of `a` against `b` (bounds from `benchmark`);
/// returns whether any metric regressed.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<bool, String> {
    let bounds = bounds(&read_json(benchmark)?)?;
    let (a, b) = (side(&read_json(a)?), side(&read_json(b)?));
    let mut regressed = false;
    println!(
        "{:<24} {:<14} {:>34} {:>34} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound"
    );
    for (workload, &(a_failed, a_attempted)) in &a.failures {
        for bound in &bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (worse, label) = verdict(av, bv, bound);
            regressed |= label == "REGRESSION";
            println!(
                "{workload:<24} {:<14} {:>34} {:>34} {:>+8.2}% {:>6.1}%  {label}",
                bound.name,
                summary(av),
                summary(bv),
                worse * 100.0,
                bound.bound * 100.0
            );
        }
        if let Some(&(b_failed, b_attempted)) = b.failures.get(workload) {
            let (fa, fb) = (
                a_failed / a_attempted.max(1.0),
                b_failed / b_attempted.max(1.0),
            );
            let label = if fb > fa { "REGRESSION" } else { "ok" };
            regressed |= fb > fa;
            println!(
                "{workload:<24} {:<14} {fa:>34} {fb:>34} {:>9} {:>7}  {label}",
                "fail_frac", "", "0"
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Throughput down 20% with a 10% bound.
        let slower = [80.0, 81.0, 79.0, 80.0, 80.5];
        assert_eq!(verdict(&a, &slower, &bound(true, 0.1)).1, "REGRESSION");
        // The same numbers as a lower-is-better time: every B run wins.
        assert_eq!(verdict(&a, &slower, &bound(false, 0.1)).1, "better");
        // Within the bound.
        let close = [98.0, 99.0, 97.0, 98.0, 98.5];
        assert_eq!(verdict(&a, &close, &bound(true, 0.1)).1, "ok");
        // A spread wider than the bound hides any difference.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &noisy, &bound(true, 0.1)).1, "unresolved");
    }
}
