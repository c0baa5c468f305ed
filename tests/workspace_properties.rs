//! Property and acceptance tests for the `Workspace` layer:
//! evaluation of an imported database must be answer-identical to evaluating
//! the source database directly, per-database workspaces must bound interned
//! residency (dropping a workspace returns the dictionary to baseline).

use ij_engine::{EngineConfig, IntersectionJoinEngine, Workspace};
use ij_relation::{Database, Query, Value};
use ij_workloads::{generate_for_query, IntervalDistribution, WorkloadConfig};
use proptest::prelude::*;

fn triangle() -> Query {
    Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap()
}

fn workload(seed: u64, tuples: usize) -> Database {
    generate_for_query(
        &triangle(),
        &WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::Uniform {
                span: 120.0,
                max_len: 25.0,
            },
        },
    )
}

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two sequentially-created workspaces evaluating the same query and
    /// imported database produce the same answer as an engine evaluating
    /// the source database directly, and the second workspace's dictionary
    /// starts from the empty baseline after the first workspace drops — one
    /// workspace's interning does not leak into later workspaces.
    #[test]
    fn sequential_workspaces_agree_with_direct_evaluation(
        r in arb_rows(6),
        s in arb_rows(6),
        t in arb_rows(6),
    ) {
        let query = triangle();
        let mut source = Database::new();
        for (name, rows) in [("R", &r), ("S", &s), ("T", &t)] {
            source.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
        }
        let expected = IntersectionJoinEngine::with_defaults()
            .evaluate(&query, &source)
            .unwrap();

        // Sequential workers make the early-exit point — and hence the
        // placeholder interning of the enumerate path — deterministic, so
        // both workspaces end at the same residency.
        let config = EngineConfig::new().with_parallelism(1);
        let first = Workspace::new();
        let db = first.import_database(&source);
        prop_assert_eq!(
            first.engine(config).evaluate(&query, &db).unwrap(),
            expected
        );
        let first_residency = first.dictionary_len();
        prop_assert!(first_residency > 0);
        drop(db);
        drop(first);

        // After the first workspace drops, a sequentially-created second
        // workspace starts at the empty baseline and reproduces the answer.
        let second = Workspace::new();
        prop_assert_eq!(second.dictionary_len(), 0);
        let db = second.import_database(&source);
        prop_assert_eq!(
            second.engine(config).evaluate(&query, &db).unwrap(),
            expected
        );
        prop_assert_eq!(second.dictionary_len(), first_residency);
    }
}

/// Evaluating a sequence of distinct databases in per-database workspaces
/// keeps peak dictionary residency bounded: each workspace holds only its own
/// database's values (position in the sequence is irrelevant), and dropping
/// a workspace releases its residency (a fresh workspace is back at the
/// empty baseline).
#[test]
fn per_database_workspaces_bound_dictionary_residency() {
    let query = triangle();
    let sources: Vec<Database> = (0..6).map(|seed| workload(seed, 10)).collect();
    let residency_of = |source: &Database| {
        let ws = Workspace::new();
        let db = ws.import_database(source);
        let engine = ws.engine(EngineConfig::new().with_parallelism(1));
        let _ = engine.evaluate(&query, &db).unwrap();
        ws.dictionary_len()
    };
    let first_pass: Vec<usize> = sources.iter().map(residency_of).collect();
    let peak = *first_pass.iter().max().unwrap();
    assert!(peak > 0);
    // Residency is a per-database property, not a function of how many
    // databases were evaluated before: replaying the sequence reproduces the
    // same per-workspace residencies.
    let second_pass: Vec<usize> = sources.iter().map(residency_of).collect();
    assert_eq!(first_pass, second_pass);
}
