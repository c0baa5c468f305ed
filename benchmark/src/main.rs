//! The repo benchmark.  See `benchmark/README.md`.
//!
//! ```text
//! ij-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//!              [--runs N] [--quick]
//! ij-benchmark --compare A.json B.json
//! ```
//!
//! Run from the repository root (`benchmark/run.sh` does): results go to
//! `benchmark/out/`, and `--compare` reads the bounds from `BENCHMARK.json`.

mod adapter;
mod compare;
mod json;
mod report;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use report::WorkloadRuns;
use run::Settings;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

const OUT_DIR: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// How long one run measures unless `--seconds` says otherwise: long enough
/// for 100 samples on every workload.  `BENCHMARK.json` gives the driver a
/// shorter `run_seconds`, to fit its 92 runs into its time budget.
const DEFAULT_SECONDS: f64 = 30.0;

struct Options {
    workloads: Vec<&'static Workload>,
    settings: Settings,
    traced: bool,
    runs: usize,
}

enum Mode {
    Run(Options),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut options = Options {
        workloads: Vec::new(),
        settings: Settings {
            seed: 7,
            seconds: DEFAULT_SECONDS,
            quick: false,
        },
        traced: false,
        runs: 1,
    };
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--compare" => return Ok(Mode::Compare(value("two files")?, value("two files")?)),
            "--workload" => {
                let name = value("a workload name")?;
                let workload = workloads::by_name(&name).ok_or(format!(
                    "unknown workload {name}; the workloads are {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?;
                options.workloads.push(workload);
            }
            "--seed" => {
                options.settings.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.settings.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--runs" => {
                options.runs = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--runs needs a number from 1")?;
            }
            "--quick" => options.settings.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                options.traced = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Mode::Run(options))
}

fn write(file: &str, text: &str) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs the selected workloads, prints and writes their metrics, and returns
/// whether every checked answer was right.
fn run(options: &Options) -> Result<bool, String> {
    let start = Instant::now();
    let selected: Vec<&Workload> = if options.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        options.workloads.clone()
    };
    let mut results = Vec::new();
    for &workload in &selected {
        let mut runs = Vec::new();
        for _ in 0..options.runs {
            let outcome = if options.traced {
                run::run_traced(workload, &options.settings)?
            } else {
                run::run_untraced(workload, &options.settings)?
            };
            report::print_run(workload, &options.settings, &outcome);
            runs.push(outcome);
        }
        results.push(WorkloadRuns {
            name: workload.name,
            runs,
        });
    }

    let meta = report::meta_json(
        &options.settings,
        options.traced,
        options.runs,
        start.elapsed().as_secs_f64(),
    );
    println!("meta: {{{meta}}}");
    let file = if options.traced {
        "trace-results.json"
    } else {
        "results.json"
    };
    write(file, &report::results_json(&meta, &results))?;
    for workload in &results {
        // The spans of the last run; every run records the same calls.
        if let Some(jsonl) = workload.runs.last().and_then(|r| r.trace_jsonl.as_ref()) {
            write(&format!("{}.trace.jsonl", workload.name), jsonl)?;
        }
    }
    // The benchmark driver runs one workload once and reads the last line.
    if let [WorkloadRuns { runs, .. }] = results.as_slice() {
        if let [outcome] = runs.as_slice() {
            println!("{}", report::driver_line(outcome));
        }
    }
    Ok(results.iter().all(|w| w.runs.iter().all(|r| r.failed == 0)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passed = match parse_args(&args) {
        Ok(Mode::Run(options)) => run(&options),
        Ok(Mode::Compare(a, b)) => {
            compare::compare(&a, &b, BENCHMARK_JSON).map(|regressed| !regressed)
        }
        Err(e) => Err(e),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ij-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
