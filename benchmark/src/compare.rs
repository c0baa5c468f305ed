//! `--compare A.json B.json`: one row per workload and end-to-end metric,
//! judged against the bounds fixed in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread of either side exceeds the bound, and the two
    /// sides' runs overlap.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` of a change against the runs `a` of its parent.
/// `bound` is the share of `a`'s median by which the metric may get worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (base, changed) = (median(a), median(b));
    if base == 0.0 {
        // `failed_share`: any increase is a regression.
        return match changed {
            c if c > 0.0 => Verdict::Regressed,
            _ => Verdict::Unchanged,
        };
    }
    if quartile_spread(a).max(quartile_spread(b)) > bound {
        let all =
            |wins: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| wins(y, x)));
        return if all(&|y, x| better(y, x)) {
            Verdict::Improved
        } else if all(&|y, x| better(x, y)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        (changed - base) / base
    } else {
        (base - changed) / base
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(metric name, lower is better, bound)` of every end-to-end metric of
/// `BENCHMARK.json`, plus `failed_share`, which the driver's contract carries
/// as `attempted`/`failed` and which may not increase at all.
fn bounds(benchmark_json: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    let mut out = Vec::new();
    let metrics = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    for m in metrics {
        let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry without {key}"));
        out.push((
            field("name")?.as_str().unwrap_or_default().to_string(),
            field("better")?.as_str() == Some("lower"),
            field("bound")?.as_f64().unwrap_or(0.0),
        ));
    }
    out.push(("failed_share".to_string(), true, 0.0));
    Ok(out)
}

/// The values of `metric` on `workload` in a results file.
fn values(results: &Json, workload: &str, metric: &str) -> Option<(String, Vec<f64>)> {
    let entry = results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    let unit = entry.get("unit")?.as_str()?.to_string();
    let values = entry
        .get("values")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((unit, values))
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table and returns whether any row regressed.
pub fn compare(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    let spec = read(benchmark_json)?;
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?;
    println!("A = {path_a} (the base of every ratio), B = {path_b}");
    println!(
        "{:<22} {:<13} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A spread", "B spread", "bound"
    );
    let bounds = bounds(&spec)?;
    let mut regressed = false;
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        for (metric, lower_is_better, bound) in &bounds {
            let (lower_is_better, bound) = (*lower_is_better, *bound);
            let (Some((unit, va)), Some((_, vb))) =
                (values(&a, workload, metric), values(&b, workload, metric))
            else {
                return Err(format!(
                    "{workload}/{metric} is missing from one of the files"
                ));
            };
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{metric} has no values"));
            }
            let v = verdict(&va, &vb, lower_is_better, bound);
            regressed |= v == Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            let ratio = if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mb / ma)
            };
            println!(
                "{workload:<22} {metric:<13} {:>14} {:>14} {ratio:>8} {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                format!("{ma:.4} {unit}"),
                format!("{mb:.4} {unit}"),
                quartile_spread(&va) * 100.0,
                quartile_spread(&vb) * 100.0,
                bound * 100.0,
                v.as_str(),
            );
        }
    }
    println!("spread = (Q3 - Q1) / median over a file's runs (0 with one run: use --runs)");
    Ok(regressed)
}
