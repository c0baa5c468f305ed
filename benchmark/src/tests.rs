//! `--quick` runs of all four workloads, checked against `BENCHMARK.json`,
//! plus the pure helpers `--compare` and the trace writer rest on.

use crate::compare::{verdict, Verdict};
use crate::json::{self, Json};
use crate::report::{driver_line, meta_json, results_json, WorkloadRuns};
use crate::run::{best_blocks, run_traced, run_untraced, Outcome, Settings};
use crate::stats::{median, quantile, quartile_spread};
use crate::trace::Tracer;
use crate::workloads::WORKLOADS;

const QUICK: Settings = Settings {
    seed: 7,
    seconds: 60.0,
    quick: true,
};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s metric lists.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every declared metric is present under its unit, finite, and nothing else
/// is reported; no checked answer was wrong.
fn assert_matches(outcome: &Outcome, declared: &[(String, String)], what: &str) {
    let reported: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(reported, declared, "{what}: names and units");
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    assert!(outcome.attempted >= 1, "{what}: nothing was checked");
    assert_eq!(outcome.failed, 0, "{what}: failed operations");
    assert_eq!(outcome.failed_share(), 0.0);
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name}"))
        .value
}

#[test]
fn benchmark_json_names_the_workloads() {
    let spec = benchmark_json();
    let declared: Vec<(&str, &str)> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |key| w.get(key).and_then(Json::as_str).expect(key);
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, ours);
}

#[test]
fn quick_untraced_runs_report_the_end_to_end_metrics() {
    let declared = declared(&benchmark_json(), "end_to_end");
    for workload in &WORKLOADS {
        let outcome = run_untraced(workload, &QUICK).expect(workload.name);
        assert_matches(&outcome, &declared, workload.name);
        assert_eq!(outcome.samples, 5);
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} must never be 0",
                workload.name,
                m.name
            );
        }
        let line = json::parse(&driver_line(&outcome)).expect("driver line parses");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit")),
            Some(&Json::String("s".to_string()))
        );
    }
}

#[test]
fn quick_traced_runs_report_the_per_layer_metrics_and_exact_counts_repeat() {
    let declared = declared(&benchmark_json(), "per_layer");
    for workload in &WORKLOADS {
        let first = run_traced(workload, &QUICK).expect(workload.name);
        let second = run_traced(workload, &QUICK).expect(workload.name);
        assert_matches(&first, &declared, workload.name);
        for exact in [
            "reduction.transformed_tuples",
            "reduction.max_relation_tuples",
            "segtree.intervals",
            "relation.dict_new_values",
            "engine.disjuncts_evaluated",
            "engine.disjuncts_total",
            "ejoin.cache_hits",
            "ejoin.cache_misses",
        ] {
            assert_eq!(
                value(&first, exact),
                value(&second, exact),
                "{}: {exact} must repeat",
                workload.name
            );
        }
        assert!(value(&first, "reduction.transformed_tuples") > 0.0);
        // Eight spans inside each `op` span.
        let jsonl = first
            .trace_jsonl
            .as_deref()
            .expect("a traced run keeps its spans");
        assert_eq!(jsonl.lines().count(), first.samples * 10);
        for line in jsonl.lines() {
            let span = json::parse(line).expect("span line parses");
            let ns = |key| span.get(key).and_then(Json::as_f64).expect(key);
            assert!(ns("end_ns") >= ns("start_ns"));
            assert!(ns("self_ns") <= ns("end_ns") - ns("start_ns"));
        }
    }
    // The warm workload's counts are those of a call that finds every trie
    // in the cache.
    let warm = run_traced(&WORKLOADS[3], &QUICK).expect("warm");
    assert_eq!(value(&warm, "ejoin.cache_misses"), 0.0);
}

#[test]
fn results_file_round_trips_through_the_reader() {
    let outcome = |p50: f64| Outcome {
        metrics: vec![crate::run::Metric {
            name: "eval_p50_ms",
            unit: "ms",
            value: p50,
        }],
        attempted: 10,
        failed: 0,
        samples: 5,
        pooled_p50_p90_ms: None,
        trace_jsonl: None,
    };
    let results = [WorkloadRuns {
        name: "temporal-sparse",
        runs: vec![outcome(1.5), outcome(2.5), outcome(3.5)],
    }];
    let text = results_json(&meta_json(&QUICK, false, 3, 1.25), &results);
    let parsed = json::parse(&text).expect("results file parses");
    assert_eq!(
        parsed.get("meta").and_then(|m| m.get("seed")),
        Some(&Json::Number(7.0))
    );
    let metrics = parsed
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")[0]
        .get("metrics")
        .and_then(Json::as_array)
        .expect("metrics");
    assert_eq!(metrics[0].get("median"), Some(&Json::Number(2.5)));
    assert_eq!(
        metrics[1].get("name"),
        Some(&Json::String("failed_share".to_string()))
    );
}

#[test]
fn verdicts_follow_the_bounds() {
    let base = [100.0, 100.5, 101.0, 100.2];
    let scale = |f: f64| base.map(|v| v * f);
    assert_eq!(verdict(&base, &scale(1.03), true, 0.05), Verdict::Unchanged);
    assert_eq!(verdict(&base, &scale(1.08), true, 0.05), Verdict::Regressed);
    assert_eq!(verdict(&base, &scale(0.90), true, 0.05), Verdict::Improved);
    // Higher is better: the same scaling reads the other way.
    assert_eq!(verdict(&base, &scale(1.08), false, 0.05), Verdict::Improved);
    assert_eq!(
        verdict(&base, &scale(0.90), false, 0.05),
        Verdict::Regressed
    );
    // A spread above the bound with overlapping runs decides nothing ...
    let noisy = [90.0, 100.0, 110.0, 120.0];
    assert_eq!(verdict(&noisy, &base, true, 0.05), Verdict::Unresolved);
    // ... unless every run of one side beats every run of the other.
    assert_eq!(verdict(&noisy, &scale(0.5), true, 0.05), Verdict::Improved);
    assert_eq!(verdict(&noisy, &scale(2.0), true, 0.05), Verdict::Regressed);
    // failed_share: base 0, any increase regresses.
    assert_eq!(verdict(&[0.0], &[0.0], true, 0.0), Verdict::Unchanged);
    assert_eq!(verdict(&[0.0], &[0.01], true, 0.0), Verdict::Regressed);
}

#[test]
fn the_least_disturbed_block_is_reported() {
    // Four blocks of two operations; the third was undisturbed.
    let samples = [30.0, 32.0, 20.0, 22.0, 10.0, 12.0, 40.0, 42.0];
    let done_at = [0.04, 0.08, 0.11, 0.14, 0.16, 0.18, 0.23, 0.28];
    let best = best_blocks(&samples, &done_at);
    assert_eq!(best.p50_ms, 11.0);
    assert!((best.p90_ms - 11.8).abs() < 1e-12);
    assert!((best.ops_per_second - 2.0 / 0.04).abs() < 1e-9);
    // Fewer operations than blocks: the empty blocks are skipped.
    let best = best_blocks(&[5.0], &[0.01]);
    assert_eq!((best.p50_ms, best.p90_ms), (5.0, 5.0));
    assert!((best.ops_per_second - 100.0).abs() < 1e-9);
}

#[test]
fn quartiles_are_pythons() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
    let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert_eq!(median(&values), 5.5);
    assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert!((quantile(&values, 0.9) - 9.1).abs() < 1e-12);
    assert_eq!(quartile_spread(&[3.0]), 0.0);
}

#[test]
fn self_time_is_the_span_minus_its_children() {
    let mut tracer = Tracer::on();
    let outer = tracer.begin("outer");
    let inner = tracer.begin("inner");
    tracer.count(inner, "n", 3.0);
    tracer.end(inner);
    tracer.end(outer);
    let spans = tracer.to_jsonl();
    let lines: Vec<Json> = spans
        .lines()
        .map(|l| json::parse(l).expect("line"))
        .collect();
    let ns = |i: usize, key| lines[i].get(key).and_then(Json::as_f64).expect(key);
    assert_eq!(lines[1].get("parent"), Some(&Json::Number(0.0)));
    assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    assert_eq!(
        ns(0, "self_ns"),
        ns(0, "end_ns") - ns(0, "start_ns") - (ns(1, "end_ns") - ns(1, "start_ns"))
    );
    assert_eq!(tracer.counts("inner", "n"), vec![3.0]);

    let mut off = Tracer::off();
    let span = off.begin("outer");
    off.end(span);
    assert!(off.to_jsonl().is_empty());
}
