//! Quickstart: the full pipeline on the triangle query of Section 1.1.
//!
//! The triangle `Q△ = R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])` is the paper's
//! running example: the simplest cyclic intersection-join query, with
//! ij-width 3/2 (Example 4.16) and therefore an `O(N^1.5 polylog N)`
//! evaluation through the forward reduction of Section 4.  This example
//! walks every stage — static analysis, reduction, parallel disjunct
//! evaluation inside a scoped `Workspace`, the warmth of a kept reduction,
//! and a differential check against the naive evaluator — and prints what
//! each number means.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use intersection_joins::prelude::*;
use intersection_joins::reduction::{plan_forward_reduction, ReductionConfig};

fn main() {
    // The Boolean triangle query with intersection joins:
    //   Q△ = R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])
    let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").expect("valid query");

    // The cross-evaluation state — the value dictionary the databases intern
    // into — is owned by a Workspace.
    // Dropping the workspace reclaims everything it interned; a service
    // would hold one workspace per database.
    let workspace = Workspace::new();

    // A small interval database, interned into the workspace.  The first R
    // tuple, the S tuple and the T tuple pairwise intersect on A, B and C,
    // so the query is true.
    let iv = |lo: f64, hi: f64| Value::interval(lo, hi);
    let mut db = workspace.database();
    db.insert_tuples(
        "R",
        2,
        vec![
            vec![iv(0.0, 4.0), iv(10.0, 14.0)],
            vec![iv(100.0, 105.0), iv(200.0, 205.0)],
        ],
    );
    db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
    db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), iv(24.0, 26.0)]]);

    // One disjunct worker: the evaluation stops at the first true disjunct,
    // and with several workers *which* disjuncts were started by then — so
    // which transformed relations and tries exist afterwards — depends on
    // thread scheduling.  Sequentially it is the same every run, which is
    // what lets section 3 assert an exact count of trie lookups.
    let config = EngineConfig::new().with_parallelism(1);
    let engine = workspace.engine(config);

    println!("The triangle query of Section 1.1, over a 4-tuple interval database:");
    println!();
    println!("  query     {query}");
    println!(
        "  database  {} relations, {} tuples ({} distinct values interned in the workspace)",
        db.num_relations(),
        db.total_tuples(),
        workspace.dictionary_len()
    );

    // 1. Static analysis: acyclicity class (Section 6) and ij-width
    //    (Definition 4.14) — data-independent, they only read the query.
    let analysis = engine.analyze(&query);
    println!();
    println!("1. Static analysis (Sections 4.4 and 6):");
    println!("   {}", analysis.summary());
    println!(
        "   The forward reduction will produce {} EJ queries in {} isomorphism classes.",
        analysis.ij_width.num_reduced_queries,
        analysis.ij_width.classes.len()
    );

    // 2. Evaluation through the forward reduction (Section 4): the IJ query
    //    becomes a disjunction of EJ queries over segment-tree bitstrings;
    //    the engine's workers take the disjuncts one at a time, in order,
    //    and share each trie through the transformed relation it indexes
    //    (early exit on the first true disjunct).  A transformed relation
    //    is built when the first disjunct
    //    that reads it is evaluated, so the early exit also skips the
    //    relations only later disjuncts would have read: the summary says
    //    how many were built.  The reduction's bitstring ids are computed,
    //    not stored, and join the workspace's ids.
    let stats = engine
        .evaluate_cancellable(&query, &db, None)
        .expect("evaluation succeeds");
    println!();
    println!("2. Evaluation through the forward reduction (Theorem 4.13):");
    print_indented(&format!("{stats}"));

    // 3. Warmth belongs to the reduction: each trie is memoised on the
    //    transformed relation it indexes and freed with it, so `evaluate`,
    //    which plans a fresh reduction every call, starts cold.  A reduction
    //    planned once and kept is evaluated warm the second time, by any
    //    engine — here a brand-new one, the per-request engine of a server.
    //    (Sequential like the first run, so both evaluate the same disjuncts
    //    and every trie the second asks for is one the first built.)
    let reduction = plan_forward_reduction(&query, &db, ReductionConfig::default(), None)
        .expect("the plan succeeds");
    let cold = engine
        .evaluate_reduction(&reduction)
        .expect("evaluation succeeds");
    assert_eq!(
        cold.trie_cache, stats.trie_cache,
        "a fresh reduction starts cold"
    );
    let warm = workspace
        .engine(config)
        .evaluate_reduction(&reduction)
        .expect("evaluation succeeds");
    println!();
    println!("3. One kept reduction evaluated a second time, by a fresh engine, is warm:");
    print_indented(&format!("{warm}"));
    assert_eq!(
        warm.trie_cache.misses, 0,
        "warm evaluation must not rebuild"
    );
    assert_eq!(
        warm.trie_cache.hits,
        cold.trie_cache.hits + cold.trie_cache.misses
    );

    // 4. The workspace reports its dictionary residency in values and
    //    bytes, so an operator can alert on a growing workspace before it
    //    OOMs.
    println!();
    println!("4. The workspace's resource state:");
    println!("   workspace: {}", workspace.stats());

    // 5. Cross-check with the naive reference evaluator (exhaustive
    //    backtracking over Definition 3.3).
    let naive = naive_boolean(&query, &db).expect("naive evaluation succeeds");
    assert_eq!(stats.answer, naive);
    println!();
    println!("5. Differential check: the naive evaluator agrees (answer = {naive}).");
}

/// Prints a multi-line summary indented under its section header.
fn print_indented(text: &str) {
    for line in text.lines() {
        println!("   {line}");
    }
}
