//! What a run prints and writes: the metrics by name with their units, the
//! run's metadata, the results file `--compare` reads, and the one-line
//! result the benchmark driver reads.

use crate::adapter::kernel_arm;
use crate::json::quote;
use crate::run::{Outcome, Settings};
use crate::stats::median;
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::process::Command;

/// All runs of one workload (more than one with `--runs`).
pub struct WorkloadRuns {
    pub name: &'static str,
    pub runs: Vec<Outcome>,
}

impl WorkloadRuns {
    /// `(name, unit, one value per run)` for every metric, `failed_share`
    /// last.
    fn series(&self) -> Vec<(&'static str, &'static str, Vec<f64>)> {
        let mut series: Vec<_> = self.runs[0]
            .metrics
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values = self.runs.iter().map(|r| r.metrics[i].value).collect();
                (m.name, m.unit, values)
            })
            .collect();
        let failed = self.runs.iter().map(Outcome::failed_share).collect();
        series.push(("failed_share", "ratio", failed));
        series
    }
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run's metadata as the members of a JSON object.
pub fn meta_json(settings: &Settings, traced: bool, runs: usize, wall_clock_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "\"git_rev\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"kernel_arm\": {}, \"seed\": {}, \
         \"seconds\": {}, \"quick\": {}, \"traced\": {traced}, \"runs\": {runs}, \
         \"wall_clock_s\": {wall_clock_s}",
        quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        quote(&first_line_of("rustc", &["-V"])),
        quote(&kernel_arm()),
        settings.seed,
        settings.seconds,
        settings.quick,
    )
}

/// The results file: metadata, then per workload the operation and sample
/// counts of each run and every metric with one value per run.
pub fn results_json(meta: &str, results: &[WorkloadRuns]) -> String {
    let list = |values: Vec<String>| format!("[{}]", values.join(", "));
    let mut out = format!("{{\n  \"meta\": {{{meta}}},\n  \"workloads\": [\n");
    for (i, workload) in results.iter().enumerate() {
        let per_run = |f: &dyn Fn(&Outcome) -> usize| {
            list(workload.runs.iter().map(|r| f(r).to_string()).collect())
        };
        writeln!(
            out,
            "    {{\"name\": {}, \"samples\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [",
            quote(workload.name),
            per_run(&|r| r.samples),
            per_run(&|r| r.attempted),
            per_run(&|r| r.failed),
        )
        .expect("writing to a String cannot fail");
        let series = workload.series();
        for (j, (name, unit, values)) in series.iter().enumerate() {
            writeln!(
                out,
                "      {{\"name\": {}, \"unit\": {}, \"median\": {}, \"values\": {}}}{}",
                quote(name),
                quote(unit),
                median(values),
                list(values.iter().map(f64::to_string).collect()),
                if j + 1 == series.len() { "" } else { "," },
            )
            .expect("writing to a String cannot fail");
        }
        let sep = if i + 1 == results.len() { "" } else { "," };
        writeln!(out, "    ]}}{sep}").expect("writing to a String cannot fail");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Every metric of one run by name, with its unit and the sample count.
pub fn print_run(workload: &Workload, settings: &Settings, outcome: &Outcome) {
    println!(
        "{}  seed={} samples={} checked={} failed={}\n  ({})",
        workload.name,
        settings.seed,
        outcome.samples,
        outcome.attempted,
        outcome.failed,
        workload.why
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>16.4} ratio",
        "failed_share",
        outcome.failed_share()
    );
    if let Some((p50, p90)) = outcome.pooled_p50_p90_ms {
        println!("  (all samples pooled: p50 {p50:.4} ms, p90 {p90:.4} ms)");
    }
}

/// The line the benchmark driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn driver_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
