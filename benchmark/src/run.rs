//! The two kinds of run: the untraced closed loop that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics.
//!
//! Both are a closed loop with one client: the next operation starts when
//! the previous one has returned.  Every answer is compared with the
//! instance's expected answer.

use crate::adapter::{Imported, Instance, Reduced, Session, Threads};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{Op, Workload};
use std::time::Instant;

/// The end-to-end metrics are measured under the engine's own thread settings.
const UNTRACED_THREADS: Threads = Threads::EngineDefault;

/// Milliseconds `f` took, and what it returned.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Untimed operations at the end of each set-up: at least one per instance,
/// so that a warm workload's timed operations find every trie in the cache.
const WARM_UP_OPS: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Sizes divided by 8 and 5 operations, through the same code.
    pub quick: bool,
}

impl Settings {
    fn max_ops(&self) -> usize {
        if self.quick {
            5
        } else {
            usize::MAX
        }
    }

    /// Set-up is repeated and its median reported, because one set-up is too
    /// short to repeat within its bound.
    fn set_up_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    fn traced_ops(&self) -> usize {
        if self.quick {
            5
        } else {
            20
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations whose answer was checked, warm-ups included.
    pub attempted: usize,
    /// Operations that returned an error or a wrong answer.
    pub failed: usize,
    /// Timed operations behind the latency percentiles.
    pub samples: usize,
    /// Median and 90th percentile of all timed operations of an untraced run
    /// taken together; printed beside the best-block metrics, not compared.
    pub pooled_p50_p90_ms: Option<(f64, f64)>,
    /// Spans of a traced run, one JSON object per line.
    pub trace_jsonl: Option<String>,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Counts checked answers and reports the first few wrong ones.
#[derive(Debug, Default)]
struct Checker {
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn check(&mut self, what: &str, got: &Result<bool, String>, expected: bool) {
        self.attempted += 1;
        if *got != Ok(expected) {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("FAILED {what}: got {got:?}, expected Ok({expected})");
            }
        }
    }
}

/// An instance with the answer every operation on it must return.
struct Checked {
    instance: Instance,
    expected: bool,
}

impl Checked {
    /// Builds the instance and takes its expected answer from the baseline
    /// oracle, which must agree with the planted mode where that fixes one.
    fn build(spec: &crate::adapter::InstanceSpec, tracer: &mut Tracer) -> Result<Checked, String> {
        let instance = Instance::build(spec, tracer);
        let expected = instance.baseline_answer(tracer)?;
        if let Some(planted) = instance.planted_answer() {
            if planted != expected {
                return Err(format!(
                    "seed {}: baseline oracle answers {expected}, planted mode guarantees {planted}",
                    spec.seed
                ));
            }
        }
        Ok(Checked { instance, expected })
    }
}

/// What set-up leaves for the timed loop.
struct Prepared {
    instances: Vec<Checked>,
    /// The long-lived session of a warm workload, with one reduction per
    /// instance.
    warm: Option<(Session, Vec<Reduced>)>,
}

impl Prepared {
    fn set_up(workload: &Workload, settings: &Settings) -> Result<Self, String> {
        let tracer = &mut Tracer::off();
        let instances = workload
            .specs(settings.seed, settings.quick)
            .iter()
            .map(|spec| Checked::build(spec, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        let warm = match workload.op {
            Op::ColdEvaluate => None,
            Op::WarmReduction => {
                let (session, first) =
                    Session::open(&instances[0].instance, UNTRACED_THREADS, tracer);
                let mut imported: Vec<Imported> = vec![first];
                for checked in &instances[1..] {
                    imported.push(session.import(&checked.instance, tracer));
                }
                let reductions = instances
                    .iter()
                    .zip(&imported)
                    .map(|(checked, db)| session.reduce(&checked.instance, db, tracer))
                    .collect::<Result<Vec<_>, _>>()?;
                Some((session, reductions))
            }
        };
        Ok(Prepared { instances, warm })
    }

    /// Runs operation number `i` and returns the milliseconds its engine
    /// call took.  Workspace construction, import and teardown of a cold
    /// operation are outside that time but inside the loop's wall-clock.
    fn op(&self, i: usize, checker: &mut Checker) -> f64 {
        let tracer = &mut Tracer::off();
        let at = i % self.instances.len();
        let checked = &self.instances[at];
        let (millis, answer) = match &self.warm {
            None => {
                let (session, db) = Session::open(&checked.instance, UNTRACED_THREADS, tracer);
                timed_ms(|| session.evaluate(&checked.instance, &db, tracer))
            }
            Some((session, reductions)) => {
                timed_ms(|| session.evaluate_reduction(&reductions[at], "op", tracer))
            }
        };
        checker.check("operation", &answer, checked.expected);
        millis
    }
}

/// Consecutive blocks the timed loop is cut into.
const BLOCKS: usize = 4;

/// The best value of each statistic over the blocks of the timed loop.
pub struct BestBlocks {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub ops_per_second: f64,
}

/// Cuts the timed loop into [`BLOCKS`] blocks of equally many consecutive
/// operations, computes each statistic per block, and keeps the best block's.
///
/// The reference container shares its host: for seconds to minutes at a time
/// other tenants slow the same code by 10 to 40 %.  Interference only ever
/// adds time, so the block that reads best is the one least disturbed, while
/// a change to the engine moves every block.  Over ten seeds this halved the
/// spread of the median, and kept the 90th percentile's within its bound
/// where the percentile of all samples pooled did not.
pub fn best_blocks(samples: &[f64], done_at: &[f64]) -> BestBlocks {
    let mut best = BestBlocks {
        p50_ms: f64::INFINITY,
        p90_ms: f64::INFINITY,
        ops_per_second: 0.0,
    };
    for block in 0..BLOCKS {
        let (from, to) = (
            block * samples.len() / BLOCKS,
            (block + 1) * samples.len() / BLOCKS,
        );
        if from == to {
            continue;
        }
        let started_at = if from == 0 { 0.0 } else { done_at[from - 1] };
        best.p50_ms = best.p50_ms.min(median(&samples[from..to]));
        best.p90_ms = best.p90_ms.min(quantile(&samples[from..to], 0.9));
        best.ops_per_second = best
            .ops_per_second
            .max((to - from) as f64 / (done_at[to - 1] - started_at));
    }
    best
}

/// The untraced run: the only source of end-to-end metrics.
pub fn run_untraced(workload: &Workload, settings: &Settings) -> Result<Outcome, String> {
    let mut checker = Checker::default();

    let mut set_up_seconds = Vec::new();
    let mut prepared = None;
    for _ in 0..settings.set_up_repeats() {
        // Tear the previous set-up down before the clock starts.
        drop(prepared.take());
        let start = Instant::now();
        let fresh = Prepared::set_up(workload, settings)?;
        for i in 0..WARM_UP_OPS {
            fresh.op(i, &mut checker);
        }
        set_up_seconds.push(start.elapsed().as_secs_f64());
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("set-up runs at least once");

    // Per operation: the milliseconds of its engine call, and the seconds
    // since the loop started at which the whole operation was over.
    let mut samples = Vec::new();
    let mut done_at = Vec::new();
    let loop_start = Instant::now();
    while samples.len() < settings.max_ops()
        && loop_start.elapsed().as_secs_f64() < settings.seconds
    {
        samples.push(prepared.op(samples.len(), &mut checker));
        done_at.push(loop_start.elapsed().as_secs_f64());
    }

    let input_tuples = workload.specs(settings.seed, settings.quick)[0].input_tuples();
    let blocks = best_blocks(&samples, &done_at);
    let metrics = vec![
        metric("eval_p50_ms", "ms", blocks.p50_ms),
        metric("eval_p90_ms", "ms", blocks.p90_ms),
        metric(
            "tuples_per_s",
            "1/s",
            input_tuples as f64 * blocks.ops_per_second,
        ),
        metric("setup_s", "s", median(&set_up_seconds)),
    ];
    Ok(Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        samples: samples.len(),
        pooled_p50_p90_ms: Some((median(&samples), quantile(&samples, 0.9))),
        trace_jsonl: None,
    })
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: the only source of per-layer metrics.  Single-threaded,
/// so the counts repeat exactly.  Every operation rebuilds its instance and
/// calls each layer once, on fresh workspaces:
///
/// ```text
/// op ─┬ workloads.build_scenario
///     ├ baselines.build, baselines.search        (also the expected answer)
///     ├ engine.import, engine.evaluate           (the full path)
///     └ engine.import, reduction.forward,        (the same path in steps)
///       engine.evaluate_reduction_cold, engine.evaluate_reduction_warm
/// ```
///
/// followed, outside the `op` span, by one `engine.evaluate` on a further
/// fresh workspace with the tracer off, which `bench.trace_overhead_share`
/// compares the traced one with.
pub fn run_traced(workload: &Workload, settings: &Settings) -> Result<Outcome, String> {
    let threads = Threads::Single;
    // One instance, the one of `--seed` itself, so that every operation
    // reports the same counts.
    let spec = &workload.specs(settings.seed, settings.quick)[0];
    let mut checker = Checker::default();
    let mut tracer = Tracer::on();
    let mut untraced_evaluate_ms = Vec::new();

    let run_start = Instant::now();
    let mut ops = 0u32;
    while (ops as usize) < settings.traced_ops()
        && (ops < 3 || run_start.elapsed().as_secs_f64() < settings.seconds)
    {
        let t = &mut tracer;
        t.set_op(ops);
        let op_span = t.begin("op");
        let Checked { instance, expected } = Checked::build(spec, t)?;
        {
            let (session, db) = Session::open(&instance, threads, t);
            let answer = session.evaluate(&instance, &db, t);
            checker.check("evaluate", &answer, expected);
        }
        {
            let (session, db) = Session::open(&instance, threads, t);
            let reduction = session.reduce(&instance, &db, t)?;
            for span in [
                "engine.evaluate_reduction_cold",
                "engine.evaluate_reduction_warm",
            ] {
                let answer = session.evaluate_reduction(&reduction, span, t);
                checker.check(span, &answer, expected);
            }
        }
        t.end(op_span);

        let off = &mut Tracer::off();
        let (session, db) = Session::open(&instance, threads, off);
        let (millis, answer) = timed_ms(|| session.evaluate(&instance, &db, off));
        untraced_evaluate_ms.push(millis);
        checker.check("untraced evaluate", &answer, expected);
        ops += 1;
    }

    let metrics = per_layer_metrics(workload, &tracer, ops, &untraced_evaluate_ms);
    Ok(Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        samples: ops as usize,
        pooled_p50_p90_ms: None,
        trace_jsonl: Some(tracer.to_jsonl()),
    })
}

/// Medians over the traced operations.  Counts are read from the span at
/// whose boundary they were recorded; the cache and disjunct counts are those
/// of the `evaluate_reduction` call that matches the workload's operation:
/// the first (cold) call, or the second (warm) call on the same engine.
fn per_layer_metrics(
    workload: &Workload,
    tracer: &Tracer,
    ops: u32,
    untraced_evaluate_ms: &[f64],
) -> Vec<Metric> {
    const FORWARD: &str = "reduction.forward";
    const COLD: &str = "engine.evaluate_reduction_cold";
    const WARM: &str = "engine.evaluate_reduction_warm";
    let op_span = match workload.op {
        Op::ColdEvaluate => COLD,
        Op::WarmReduction => WARM,
    };
    let time = |span: &str| median(&tracer.durations_ms(span));
    let forward = |count: &str| median(&tracer.counts(FORWARD, count));
    let op = |count: &str| median(&tracer.counts(op_span, count));
    // Sums and differences of spans are taken within each operation.
    let per_op = |terms: &[(&str, f64)]| {
        let values: Vec<f64> = (0..ops)
            .map(|id| {
                terms
                    .iter()
                    .map(|&(span, sign)| {
                        sign * tracer
                            .op_duration_ms(id, span)
                            .expect("every traced operation records every span")
                    })
                    .sum()
            })
            .collect();
        median(&values)
    };

    let evaluate_ms = time("engine.evaluate");
    let baseline_ms = per_op(&[("baselines.build", 1.0), ("baselines.search", 1.0)]);
    let attempts = op("cache_hits") + op("cache_misses");
    vec![
        metric(
            "workloads.build_scenario_ms",
            "ms",
            time("workloads.build_scenario"),
        ),
        metric("engine.import_ms", "ms", time("engine.import")),
        metric("reduction.forward_ms", "ms", time(FORWARD)),
        metric(
            "reduction.transformed_tuples",
            "count",
            forward("transformed_tuples"),
        ),
        metric(
            "reduction.blowup_x",
            "x",
            forward("transformed_tuples") / forward("input_tuples"),
        ),
        metric(
            "reduction.max_relation_tuples",
            "count",
            forward("max_relation_tuples"),
        ),
        metric("reduction.relations", "count", forward("relations")),
        metric("reduction.disjuncts", "count", forward("disjuncts")),
        metric("segtree.intervals", "count", forward("segtree_intervals")),
        metric("segtree.max_height", "count", forward("segtree_max_height")),
        metric(
            "relation.dict_new_values",
            "count",
            forward("dict_new_values"),
        ),
        metric("relation.dict_bytes", "bytes", forward("dict_bytes")),
        metric("engine.evaluate_ms", "ms", evaluate_ms),
        metric("engine.evaluate_reduction_cold_ms", "ms", time(COLD)),
        metric("engine.evaluate_reduction_warm_ms", "ms", time(WARM)),
        metric(
            "engine.glue_self_ms",
            "ms",
            per_op(&[("engine.evaluate", 1.0), (FORWARD, -1.0), (COLD, -1.0)]),
        ),
        metric(
            "engine.disjuncts_evaluated",
            "count",
            op("disjuncts_evaluated"),
        ),
        metric("engine.disjuncts_total", "count", op("disjuncts_total")),
        metric("engine.batches", "count", op("batches")),
        metric(
            "ejoin.trie_build_ms",
            "ms",
            per_op(&[(COLD, 1.0), (WARM, -1.0)]),
        ),
        metric("ejoin.search_ms", "ms", time(WARM)),
        metric("ejoin.cache_hits", "count", op("cache_hits")),
        metric("ejoin.cache_misses", "count", op("cache_misses")),
        metric(
            "ejoin.cache_hit_ratio",
            "ratio",
            if attempts > 0.0 {
                op("cache_hits") / attempts
            } else {
                0.0
            },
        ),
        metric("ejoin.cache_evictions", "count", op("cache_evictions")),
        metric(
            "ejoin.cache_resident_bytes",
            "bytes",
            op("cache_resident_bytes"),
        ),
        metric("ejoin.planning_ms", "ms", op("planning_ms")),
        metric("ejoin.disjuncts_planned", "count", op("disjuncts_planned")),
        metric("baselines.build_ms", "ms", time("baselines.build")),
        metric("baselines.search_ms", "ms", time("baselines.search")),
        metric("baselines.vs_engine_x", "x", evaluate_ms / baseline_ms),
        metric(
            "bench.trace_overhead_share",
            "ratio",
            (evaluate_ms - median(untraced_evaluate_ms)) / median(untraced_evaluate_ms),
        ),
        metric("bench.peak_rss_mb", "MB", peak_rss_mb()),
    ]
}
