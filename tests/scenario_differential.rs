//! Differential testing over the interval-native scenario suite.
//!
//! Three independent evaluation paths are held to identical answers on every
//! cell of a scenario sweep:
//!
//! 1. the reduction-based engine (the live plan `evaluate` runs → equality
//!    joins), evaluated cold and warm, and disjunct by disjunct
//!    over the paper's forward reduction the equality-join algorithm it chose
//!    held to the plain generic join (and to Yannakakis wherever that accepts
//!    the disjunct),
//! 2. the segment-tree baseline (`SegtreeBaseline`: per-column flat segment
//!    trees + backtracking, no reduction),
//! 3. the naive exhaustive oracle.
//!
//! The sweep covers all four [`ScenarioFamily`] generators × sizes × planted
//! modes; those bind interval variables only, so a second sweep runs mixed
//! point/interval queries — a cyclic one among them, with a variable
//! repeated inside an atom — over small random databases through the same
//! per-disjunct checks, and a third holds the engine and the baseline to
//! oracle-free metamorphic properties (atom and row order, endpoint scaling,
//! reflection, touching closed endpoints, monotonicity under tuple
//! insertion).  On a divergence the failing [`ScenarioConfig`] is *shrunk*
//! deterministically (the vendored proptest reports but does not shrink, so
//! minimisation lives here): smaller tuple counts, zero skew and full
//! selectivity are retried while the divergence persists, and the panic
//! message carries the minimal reproducing config.
//!
//! Debug builds shrink sizes and seed ranges (`scaled_tuples` /
//! `scaled_seeds`, mirroring `tests/forward_reduction.rs`) so tier-1 debug
//! time stays bounded; release builds run the full sweep.

mod common;

use common::disjunct_divergence;
use ij_baselines::SegtreeBaseline;
use ij_engine::{naive_boolean, naive_count, EngineConfig, IntersectionJoinEngine};
use ij_hypergraph::VarKind;
use ij_reduction::{
    forward_reduction, forward_reduction_with, plan_forward_reduction, EncodingStrategy,
    ForwardReduction, ReductionConfig,
};
use ij_relation::{Database, Query, Relation, Value, ValueId};
use ij_workloads::{build_scenario, PlantedAnswer, Scenario, ScenarioConfig, ScenarioFamily};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Witness-count cross-checks (enumeration mode) run only below this size —
/// `naive_count` has no early exit.
const COUNT_CHECK_MAX_TUPLES: usize = 14;

fn scaled_tuples(tuples: usize) -> usize {
    if cfg!(debug_assertions) {
        tuples.div_ceil(3).max(4)
    } else {
        tuples
    }
}

fn scaled_seeds(seeds: std::ops::Range<u64>) -> std::ops::Range<u64> {
    if cfg!(debug_assertions) {
        let len = seeds.end.saturating_sub(seeds.start);
        seeds.start..seeds.start + (len / 4).max(2).min(len)
    } else {
        seeds
    }
}

/// Evaluates every path on the scenario of `cfg` and returns a description
/// of the first disagreement (None = all paths agree and planted
/// expectations hold).
fn divergence(cfg: &ScenarioConfig) -> Option<String> {
    let scenario = build_scenario(cfg);
    let expected =
        naive_boolean(&scenario.query, &scenario.database).expect("naive evaluation succeeds");

    match cfg.planted {
        PlantedAnswer::Satisfiable if !expected => {
            return Some("planted-satisfiable scenario is unsatisfiable".to_string());
        }
        PlantedAnswer::Unsatisfiable if expected => {
            return Some("planted-unsatisfiable scenario is satisfiable".to_string());
        }
        PlantedAnswer::NearMiss if expected => {
            return Some("planted-near-miss scenario is satisfiable".to_string());
        }
        _ => {}
    }

    let baseline =
        SegtreeBaseline::build(&scenario.query, &scenario.database).expect("baseline builds");
    if baseline.evaluate_boolean() != expected {
        return Some(format!(
            "segtree baseline answered {}, naive answered {expected}",
            !expected
        ));
    }

    if cfg.tuples_per_relation <= COUNT_CHECK_MAX_TUPLES {
        let naive_witnesses =
            naive_count(&scenario.query, &scenario.database).expect("naive count succeeds");
        let baseline_witnesses = baseline.count_witnesses();
        if baseline_witnesses != naive_witnesses {
            return Some(format!(
                "segtree baseline counted {baseline_witnesses} witnesses, naive counted {naive_witnesses}"
            ));
        }
    }

    if let Some(mismatch) = engine_divergence(&scenario, expected) {
        return Some(mismatch);
    }
    None
}

/// Sweeps the engine on one scenario.  The paper's forward reduction is
/// checked disjunct by disjunct; the engine evaluates the live plan
/// `evaluate` runs twice, cold and then warm on the tries the first
/// evaluation memoised on it.
fn engine_divergence(scenario: &Scenario, expected: bool) -> Option<String> {
    let (query, db) = (&scenario.query, &scenario.database);
    let paper = forward_reduction(query, db).expect("forward reduction succeeds");
    if let Some(mismatch) = disjunct_divergence(&paper, expected) {
        return Some(mismatch);
    }
    let reduction =
        plan_forward_reduction(query, db, ReductionConfig::default(), None).expect("plan succeeds");
    let engine = IntersectionJoinEngine::new(EngineConfig::new());
    for round in ["cold", "warm"] {
        let stats = engine
            .evaluate_reduction(&reduction)
            .expect("uncancelled evaluation succeeds");
        if stats.answer != expected {
            return Some(format!(
                "{round} engine answered {}, naive answered {expected}",
                stats.answer
            ));
        }
    }
    None
}

/// Deterministic parameter shrinking: retries strictly simpler configs while
/// the divergence persists.  Tuple counts shrink fastest (halving, then
/// decrement), then skew is zeroed and selectivity maximised.  The planted
/// mode and family are part of the failure's identity and never shrink.
fn minimise(start: ScenarioConfig, diverges: &dyn Fn(&ScenarioConfig) -> bool) -> ScenarioConfig {
    let mut cfg = start;
    loop {
        let mut candidates: Vec<ScenarioConfig> = Vec::new();
        let n = cfg.tuples_per_relation;
        if n > 1 {
            candidates.push(cfg.with_tuples(n / 2));
            candidates.push(cfg.with_tuples(n - 1));
        }
        if cfg.skew != 0.0 {
            candidates.push(cfg.with_skew(0.0));
        }
        if cfg.selectivity != 1.0 {
            candidates.push(cfg.with_selectivity(1.0));
        }
        match candidates.into_iter().find(|c| diverges(c)) {
            Some(simpler) => cfg = simpler,
            None => return cfg,
        }
    }
}

/// Checks one config; on divergence, shrinks it and panics with both the
/// original and the minimal reproducing config.
fn check_config(cfg: &ScenarioConfig) {
    let Some(failure) = divergence(cfg) else {
        return;
    };
    let minimal = minimise(*cfg, &|c| divergence(c).is_some());
    let minimal_failure = divergence(&minimal).unwrap_or_else(|| failure.clone());
    panic!(
        "differential divergence: {failure}\n  original config: {cfg:?}\n  \
         minimal repro:   {minimal:?}\n  minimal failure: {minimal_failure}\n  \
         scenario: {}",
        build_scenario(&minimal).name
    );
}

/// The full sweep for one family: sizes × planted modes × seeds, each cell
/// swept over the engine-config grid by [`engine_divergence`].
///
/// `large` is the family's big size: IP ranges carry two interval variables
/// per atom, so their forward reduction grows quadratically in the canonical
/// partitions and a smaller "large" keeps the sweep fast.
fn sweep_family(family: ScenarioFamily, large: usize) {
    for tuples in [scaled_tuples(12), scaled_tuples(large)] {
        for planted in [
            PlantedAnswer::Natural,
            PlantedAnswer::Satisfiable,
            PlantedAnswer::Unsatisfiable,
            PlantedAnswer::NearMiss,
        ] {
            for seed in scaled_seeds(0..3) {
                let cfg = ScenarioConfig::new(family)
                    .with_tuples(tuples)
                    .with_seed(seed)
                    .with_planted(planted);
                check_config(&cfg);
            }
        }
    }
}

#[test]
fn temporal_overlap_agrees_across_all_paths() {
    sweep_family(ScenarioFamily::TemporalOverlap, 30);
}

#[test]
fn ip_ranges_agree_across_all_paths() {
    sweep_family(ScenarioFamily::IpRanges, 18);
}

#[test]
fn genomic_overlap_agrees_across_all_paths() {
    sweep_family(ScenarioFamily::GenomicOverlap, 30);
}

#[test]
fn spatial_rectangles_agree_across_all_paths() {
    sweep_family(ScenarioFamily::SpatialRectangles, 30);
    // The cyclic family is the one whose disjuncts build tries.  Its
    // near-miss cell (false, so every disjunct runs the full search) walks
    // the trie sizes the sweep above steps over: single-row tries, a handful
    // of rows, and either side of 64 tuples per relation.
    for tuples in [1, 2, 7, 63, 64, 65] {
        let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(tuples)
            .with_seed(1)
            .with_planted(PlantedAnswer::NearMiss);
        check_config(&cfg);
    }
}

#[test]
fn extreme_knob_settings_agree() {
    // Degenerate corners the random sweep under-samples: minimal sizes,
    // maximal skew, extreme selectivities.
    for family in ScenarioFamily::ALL {
        for (tuples, selectivity, skew) in [
            (1, 0.5, 1.0),
            (2, 1.0, 4.0),
            (3, 0.001, 0.0),
            (scaled_tuples(20), 1.0, 4.0),
        ] {
            let cfg = ScenarioConfig::new(family)
                .with_tuples(tuples)
                .with_seed(99)
                .with_selectivity(selectivity)
                .with_skew(skew);
            check_config(&cfg);
        }
    }
}

/// A mixed EIJ instance: `X` and `Y` are equality-joined point variables
/// carried through the reduction beside the interval columns.  Row `i` of
/// every relation shares its point values with row `i` of the others, and
/// `stride` spaces the intervals: at 1 neighbouring rows overlap (true), at 8
/// no two intervals of different relations meet (false).
fn mixed_eij_instance(stride: usize) -> (Query, Database) {
    let query = Query::parse("R(X,[A],[B]) & S([A],X,Y) & T(Y,[B])").expect("valid query");
    let point = |i: usize| Value::point((i % 4) as f64);
    let iv = |at: usize, len: usize| Value::interval(at as f64, (at + len) as f64);
    let rows = 10;
    let mut db = Database::new();
    db.insert_tuples(
        "R",
        3,
        (0..rows)
            .map(|i| vec![point(i), iv(i * stride, 3), iv(i * stride + 1, 2)])
            .collect(),
    );
    db.insert_tuples(
        "S",
        3,
        (0..rows)
            .map(|i| vec![iv(i * stride + 4 * (stride - 1), 2), point(i), point(i + 1)])
            .collect(),
    );
    db.insert_tuples(
        "T",
        2,
        (0..rows)
            .map(|i| vec![point(i + 1), iv(i * stride + 2, 4)])
            .collect(),
    );
    (query, db)
}

/// The relation `name` of `eager` projected onto the columns whose variables
/// `plan`'s atom of that name binds, as a set of id rows: the live columns
/// of the paper's relation.
fn live_projection(
    plan: &ForwardReduction,
    eager: &ForwardReduction,
    name: &str,
) -> BTreeSet<Vec<ValueId>> {
    let atom = |fr: &ForwardReduction| -> (usize, usize) {
        (fr.queries.iter().enumerate())
            .find_map(|(q, rq)| Some((q, rq.atoms.iter().position(|a| a.relation == name)?)))
            .expect("a disjunct binds every planned relation")
    };
    let (q, a) = atom(plan);
    let (kept, all) = (
        &plan.queries[q].atoms[a].vars,
        &eager.queries[q].atoms[a].vars,
    );
    let cols: Vec<usize> = (0..all.len()).filter(|&c| kept.contains(&all[c])).collect();
    let relation = eager.relation(name, None).expect("built");
    (0..relation.len())
        .map(|row| cols.iter().map(|&c| relation.id_at(row, c)).collect())
        .collect()
}

/// Theorem 4.13 on the demand-driven path: an evaluation that builds its
/// transformed relations on first use answers like the naive oracle and the
/// segment-tree baseline under every worker count, and every relation it
/// built is exactly the relation the eager [`forward_reduction_with`] builds
/// under that name projected onto the columns the plan's disjuncts bind —
/// the same rows, none twice.
#[test]
fn demand_driven_evaluation_builds_the_eager_relations() {
    let mut instances: Vec<(String, Query, Database)> = Vec::new();
    for family in ScenarioFamily::ALL {
        for planted in [PlantedAnswer::Natural, PlantedAnswer::NearMiss] {
            let cfg = ScenarioConfig::new(family)
                .with_tuples(scaled_tuples(24))
                .with_seed(5)
                .with_planted(planted);
            let scenario = build_scenario(&cfg);
            instances.push((scenario.name, scenario.query, scenario.database));
        }
    }
    for stride in [1, 8] {
        let (query, db) = mixed_eij_instance(stride);
        instances.push((format!("mixed-eij/stride{stride}"), query, db));
    }

    let mut answers = std::collections::BTreeSet::new();
    for (name, query, db) in &instances {
        let expected = naive_boolean(query, db).expect("naive evaluation succeeds");
        let baseline = SegtreeBaseline::build(query, db).expect("baseline builds");
        assert_eq!(baseline.evaluate_boolean(), expected, "{name}: baseline");
        answers.insert((name.starts_with("mixed"), expected));
        for encoding in [EncodingStrategy::Flat, EncodingStrategy::Decomposed] {
            let config = ReductionConfig { encoding };
            let eager = forward_reduction_with(query, db, config).expect("eager reduction");
            assert_eq!(eager.stats.relations_built, eager.stats.num_relations);
            for parallelism in [1usize, 2, 4] {
                let label = format!("{name}, {encoding:?}, parallelism {parallelism}");
                let engine =
                    IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
                let plan = plan_forward_reduction(query, db, config, None).expect("plan");
                assert_eq!(
                    plan.relations().count(),
                    0,
                    "{label}: a plan builds nothing"
                );
                let stats = engine
                    .evaluate_reduction(&plan)
                    .expect("evaluation succeeds");
                assert_eq!(stats.answer, expected, "{label}");
                assert_eq!(stats.reduction.num_relations, eager.stats.num_relations);
                assert_eq!(stats.reduction.relations_built, plan.relations().count());
                let mut live_tuples = 0;
                for built in plan.relations() {
                    let rows: Vec<Vec<ValueId>> = (0..built.len())
                        .map(|row| (0..built.arity()).map(|c| built.id_at(row, c)).collect())
                        .collect();
                    let set: BTreeSet<Vec<ValueId>> = rows.iter().cloned().collect();
                    assert_eq!(set.len(), rows.len(), "{label}: {}", built.name());
                    assert_eq!(
                        set,
                        live_projection(&plan, &eager, built.name()),
                        "{label}: {}",
                        built.name()
                    );
                    live_tuples += rows.len();
                }
                assert_eq!(stats.reduction.transformed_tuples, live_tuples);
                if !expected {
                    // Every disjunct ran, so every relation was read.
                    assert_eq!(stats.reduction.relations_built, eager.stats.num_relations);
                }
                // The one-call entry point plans the flat encoding and builds
                // it the same way.
                assert_eq!(engine.evaluate(query, db).expect("evaluate"), expected);
            }
        }
    }
    // Both outcomes were exercised, on the scenarios and on the EIJ query.
    assert_eq!(answers.len(), 4, "{answers:?}");
}

/// What demand-driven building skips: sequentially, a temporal star that is
/// true at its first disjunct builds that disjunct's three relations of the
/// nine planned, and a near-miss (false) instance builds all nine.
#[test]
fn early_exit_builds_only_the_relations_it_read() {
    let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
    let star = |planted| {
        let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
            .with_tuples(scaled_tuples(96))
            .with_seed(7)
            .with_planted(planted);
        let scenario = build_scenario(&cfg);
        engine
            .evaluate_cancellable(&scenario.query, &scenario.database, None)
            .expect("evaluation succeeds")
    };
    let natural = star(PlantedAnswer::Natural);
    assert!(natural.answer);
    assert_eq!(
        natural.ej_queries_evaluated, 1,
        "true at the first disjunct"
    );
    assert_eq!(natural.reduction.num_relations, 9);
    assert_eq!(natural.reduction.relations_built, 3);
    assert!(format!("{natural}").contains("built 3 of 9 transformed relations"));

    let near_miss = star(PlantedAnswer::NearMiss);
    assert!(!near_miss.answer);
    assert_eq!(near_miss.ej_queries_evaluated, near_miss.ej_queries_total);
    assert_eq!(near_miss.reduction.relations_built, 9);
    assert!(near_miss.reduction.transformed_tuples > natural.reduction.transformed_tuples);
}

/// What the two evaluators under test answer on one instance, with no
/// oracle beside them: the engine in its default configuration and the
/// segment-tree baseline.
fn engine_and_baseline(query: &Query, db: &Database) -> [bool; 2] {
    let engine = IntersectionJoinEngine::with_defaults()
        .evaluate(query, db)
        .expect("evaluation succeeds");
    let baseline = SegtreeBaseline::build(query, db)
        .expect("baseline builds")
        .evaluate_boolean();
    [engine, baseline]
}

/// A copy of `db` with every relation's rows passed through `rows`.
fn rebuilt(db: &Database, rows: impl Fn(Vec<Vec<Value>>) -> Vec<Vec<Value>>) -> Database {
    let mut out = Database::new();
    for relation in db.relations() {
        out.insert_tuples(relation.name(), relation.arity(), rows(relation.tuples()));
    }
    out
}

/// A copy of `db` with every interval `[lo, hi]` replaced by `map(lo, hi)`.
fn with_endpoints(db: &Database, map: impl Fn(f64, f64) -> (f64, f64)) -> Database {
    rebuilt(db, |rows| {
        rows.into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|value| {
                        let iv = value
                            .as_interval()
                            .expect("scenario columns hold intervals");
                        let (lo, hi) = map(iv.lo(), iv.hi());
                        Value::interval(lo, hi)
                    })
                    .collect()
            })
            .collect()
    })
}

/// Every family × planted mode × seed at the sweep's small size.
fn small_scenario_configs() -> impl Iterator<Item = ScenarioConfig> {
    ScenarioFamily::ALL.into_iter().flat_map(|family| {
        [
            PlantedAnswer::Natural,
            PlantedAnswer::Satisfiable,
            PlantedAnswer::Unsatisfiable,
            PlantedAnswer::NearMiss,
        ]
        .into_iter()
        .flat_map(move |planted| {
            scaled_seeds(0..3).map(move |seed| {
                ScenarioConfig::new(family)
                    .with_tuples(scaled_tuples(12))
                    .with_seed(seed)
                    .with_planted(planted)
            })
        })
    })
}

/// Holds the engine and the baseline, each against itself, to `variants` of
/// every small scenario: each variant is an instance with the same answer by
/// construction.
fn check_metamorphic(variants: impl Fn(&Scenario) -> Vec<(&'static str, Query, Database)>) {
    let mut answers = std::collections::BTreeSet::new();
    for cfg in small_scenario_configs() {
        let scenario = build_scenario(&cfg);
        let original = engine_and_baseline(&scenario.query, &scenario.database);
        for (what, query, db) in variants(&scenario) {
            assert_eq!(
                engine_and_baseline(&query, &db),
                original,
                "[engine, baseline] after {what} on {}",
                scenario.name
            );
        }
        answers.insert(original);
    }
    assert!(
        answers.contains(&[true; 2]) && answers.contains(&[false; 2]),
        "{answers:?}"
    );
}

/// A conjunctive query is monotone in its database: a true instance stays
/// true when rows are added (here the next seed's instance, relation by
/// relation), a false one stays false when rows are removed (every relation
/// cut to its first half).  An implication rather than an equality of
/// variants, so it has its own driver beside [`check_metamorphic`].
#[test]
fn answers_are_monotone_under_tuple_insertion() {
    let mut exercised = std::collections::BTreeSet::new();
    for cfg in small_scenario_configs() {
        let scenario = build_scenario(&cfg);
        let original = engine_and_baseline(&scenario.query, &scenario.database);
        assert_eq!(original[0], original[1], "{}", scenario.name);
        let (what, changed) = if original[0] {
            let next = build_scenario(&cfg.with_seed(cfg.seed + 1)).database;
            let mut grown = Database::new();
            for relation in scenario.database.relations() {
                let mut rows = relation.tuples();
                let more = next.relation(relation.name()).expect("same schema");
                rows.extend(more.tuples());
                grown.insert_tuples(relation.name(), relation.arity(), rows);
            }
            ("appending the next seed's rows", grown)
        } else {
            let halved = rebuilt(&scenario.database, |mut rows| {
                rows.truncate(rows.len() / 2);
                rows
            });
            ("cutting every relation to its first half", halved)
        };
        assert_eq!(
            engine_and_baseline(&scenario.query, &changed),
            original,
            "[engine, baseline] after {what} on {}",
            scenario.name
        );
        exercised.insert(original[0]);
    }
    assert_eq!(exercised.len(), 2, "both directions must be exercised");
}

/// A conjunction does not depend on the order of its atoms, nor a relation
/// on the order of its rows — and the row order changes nothing at all: the
/// transformed relations of the row-reversed instance are the original's, by
/// name and id column for id column (flat encoding; the decomposed one
/// numbers the rows).
#[test]
fn atom_and_row_order_do_not_change_answers() {
    check_metamorphic(|scenario| {
        let atoms = scenario.query.atoms().iter().rev().cloned().collect();
        let interval_vars = scenario.query.interval_variables();
        let interval_vars: Vec<&str> = interval_vars.iter().map(String::as_str).collect();
        let reversed_rows = rebuilt(&scenario.database, |mut rows| {
            rows.reverse();
            rows
        });
        let relations = |db: &Database| {
            let reduction = forward_reduction(&scenario.query, db).expect("reduction succeeds");
            let with_ids = |relation: &Relation| {
                let ids: Vec<Vec<ValueId>> = (0..relation.arity())
                    .map(|c| relation.column_ids(c).to_vec())
                    .collect();
                (relation.clone(), ids)
            };
            reduction.relations().map(with_ids).collect::<Vec<_>>()
        };
        assert_eq!(
            relations(&reversed_rows),
            relations(&scenario.database),
            "transformed relations after reversing rows on {}",
            scenario.name
        );
        vec![(
            "reversing atoms and rows",
            Query::from_atoms(atoms, &interval_vars),
            reversed_rows,
        )]
    });
}

/// Intersection of closed intervals is invariant under `x ↦ 4x` and under
/// `x ↦ −x`.  Both maps are exact in `f64`; a translation of the generators'
/// non-integral endpoints is not — a rounded sum can close a gap between two
/// closed intervals — so none is tested.
#[test]
fn scaling_and_reflecting_endpoints_do_not_change_answers() {
    check_metamorphic(|scenario| {
        let (query, db) = (&scenario.query, &scenario.database);
        vec![
            (
                "scaling endpoints by 4",
                query.clone(),
                with_endpoints(db, |lo, hi| (4.0 * lo, 4.0 * hi)),
            ),
            (
                "reflecting intervals",
                query.clone(),
                with_endpoints(db, |lo, hi| (-hi, -lo)),
            ),
        ]
    });
}

/// Intervals are closed (Definition 3.3): sharing one endpoint is
/// intersecting, whether the other interval is proper or a point.
#[test]
fn closed_endpoints_touch() {
    let query = Query::parse("R([A]) & S([A])").expect("valid query");
    for ((lo, hi), expected) in [((5.0, 9.0), true), ((5.0, 5.0), true), ((6.0, 9.0), false)] {
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![Value::interval(0.0, 5.0)]]);
        db.insert_tuples("S", 1, vec![vec![Value::interval(lo, hi)]]);
        let baseline = SegtreeBaseline::build(&query, &db).expect("baseline builds");
        assert_eq!(
            baseline.evaluate_boolean(),
            expected,
            "baseline, [{lo}, {hi}]"
        );
        let engine = IntersectionJoinEngine::with_defaults();
        for encoding in [EncodingStrategy::Flat, EncodingStrategy::Decomposed] {
            let plan = plan_forward_reduction(&query, &db, ReductionConfig { encoding }, None)
                .expect("plan succeeds");
            assert_eq!(
                (engine.evaluate_reduction(&plan))
                    .expect("evaluation succeeds")
                    .answer,
                expected,
                "{encoding:?}, [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn minimiser_finds_the_smallest_diverging_config() {
    // Synthetic predicate: "diverges" iff tuples >= 7.  The minimiser must
    // land exactly on 7 tuples with neutral knobs, proving it neither
    // overshoots (stops early) nor undershoots (accepts a passing config).
    let start = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
        .with_tuples(64)
        .with_selectivity(0.3)
        .with_skew(2.0);
    let minimal = minimise(start, &|c| c.tuples_per_relation >= 7);
    assert_eq!(minimal.tuples_per_relation, 7);
    assert_eq!(minimal.skew, 0.0);
    assert_eq!(minimal.selectivity, 1.0);
}

/// Queries with point variables in them: shared by two atoms, repeated inside
/// one atom, private to one atom, and permuted between atoms.  The first four
/// are ι-acyclic, so every disjunct runs Yannakakis; the fifth is a triangle
/// through a repeated point variable, so its cyclic disjuncts materialise
/// bags that must keep `X = X`.  The last is the triangle over one repeated
/// relation, whose three atoms read the same rows.
const MIXED_EIJ_QUERIES: [&str; 6] = [
    "R(X,[A]) & S(X,[A])",
    "R(X,X,[A]) & S(X,[A])",
    "R(X,X,[A]) & S([A])",
    "R(X,Y,[A]) & S(Y,X,[A]) & T(X,[A])",
    "R(X,X,[A]) & S([A],[B]) & T(X,[B])",
    "R([A],[B]) & R([B],[C]) & R([A],[C])",
];

/// One cell drawn both ways — a point from a domain of 4 and an interval over
/// a small integer domain (ties and overlaps likely); the kind of the
/// variable a column binds picks which one the column holds.
fn arb_cell() -> impl Strategy<Value = (Value, Value)> {
    (0u8..4, 0i32..14, 0i32..5).prop_map(|(p, lo, len)| {
        (
            Value::point(f64::from(p)),
            Value::interval(f64::from(lo), f64::from(lo + len)),
        )
    })
}

/// The database of `query` over `relations[i]` for its `i`-th atom, each row
/// cut to the atom's arity; a repeated relation has the rows of its first
/// atom.
fn mixed_eij_database(query: &Query, relations: &[Vec<Vec<(Value, Value)>>]) -> Database {
    let mut db = Database::new();
    for (atom, rows) in query.atoms().iter().zip(relations) {
        if db.relation(&atom.relation).is_some() {
            continue;
        }
        let tuples = rows
            .iter()
            .map(|row| {
                atom.vars
                    .iter()
                    .zip(row)
                    .map(|(var, &(point, interval))| match query.var_kind(var) {
                        Some(VarKind::Interval) => interval,
                        _ => point,
                    })
                    .collect()
            })
            .collect();
        db.insert_tuples(&atom.relation, atom.vars.len(), tuples);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 32 } else { 96 }
    ))]

    /// The scenario families bind interval variables only; this sweep puts
    /// point variables beside them.  The engine, at one worker and two, on
    /// the flat encoding `evaluate` plans and on the decomposed plan,
    /// answers like the naive oracle, and so does every disjunct's algorithm
    /// ([`disjunct_divergence`]).
    #[test]
    fn mixed_point_interval_queries_agree_with_naive(
        relations in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(arb_cell(), 3), 1..=8),
            3,
        ),
    ) {
        for text in MIXED_EIJ_QUERIES {
            let query = Query::parse(text).expect("valid query");
            let db = mixed_eij_database(&query, &relations);
            let expected = naive_boolean(&query, &db).expect("naive evaluation succeeds");
            let rows = || db.relations().map(|r| (r.name(), r.tuples())).collect::<Vec<_>>();
            let decomposed = ReductionConfig { encoding: EncodingStrategy::Decomposed };
            for parallelism in [1usize, 2] {
                let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
                prop_assert_eq!(
                    engine.evaluate(&query, &db).expect("evaluation succeeds"),
                    expected,
                    "{} at parallelism {}, on {:?}",
                    text,
                    parallelism,
                    rows()
                );
                let plan = plan_forward_reduction(&query, &db, decomposed, None).expect("plan succeeds");
                prop_assert_eq!(
                    engine.evaluate_reduction(&plan).expect("evaluation succeeds").answer,
                    expected,
                    "{} decomposed at parallelism {}, on {:?}",
                    text,
                    parallelism,
                    rows()
                );
            }
            let reduction = forward_reduction(&query, &db).expect("forward reduction succeeds");
            prop_assert_eq!(
                disjunct_divergence(&reduction, expected),
                None,
                "{} on {:?}",
                text,
                rows()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 12 } else { 48 }
    ))]

    /// Random generator parameters (the vendored proptest draws them; the
    /// harness shrinks on failure via `check_config`'s minimiser).
    #[test]
    fn random_scenario_parameters_agree(
        family_idx in 0usize..4,
        tuples in 1usize..=10,
        seed in 0u64..10_000,
        selectivity_pct in 1u32..=100,
        skew_tenths in 0u32..=40,
        planted_idx in 0usize..4,
    ) {
        let planted = [
            PlantedAnswer::Natural,
            PlantedAnswer::Satisfiable,
            PlantedAnswer::Unsatisfiable,
            PlantedAnswer::NearMiss,
        ][planted_idx];
        let cfg = ScenarioConfig::new(ScenarioFamily::ALL[family_idx])
            .with_tuples(tuples)
            .with_seed(seed)
            .with_selectivity(f64::from(selectivity_pct) / 100.0)
            .with_skew(f64::from(skew_tenths) / 10.0)
            .with_planted(planted);
        check_config(&cfg);
    }
}
