//! Tests of the entry points, and the helpers the tests of every part share.

use super::ancestors::close_over_ancestors;
use super::build::{sorted_seeds, tree_column, PlanColumn};
use super::*;
use ij_hypergraph::VarKind;
use ij_relation::kernels::strictly_ascending;
use ij_relation::{CancelTicker, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

pub(super) fn iv(lo: f64, hi: f64) -> Value {
    Value::interval(lo, hi)
}

/// The Section 1.1 triangle query with a tiny database.
fn triangle_instance(satisfiable: bool) -> (Query, Database) {
    let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let mut db = Database::new();
    // R, S, T hold intervals; when `satisfiable` the three pairwise
    // intersections exist, otherwise the C-intervals are disjoint.
    db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(10.0, 14.0)]]);
    db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
    let c_t = if satisfiable {
        iv(24.0, 26.0)
    } else {
        iv(30.0, 31.0)
    };
    db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), c_t]]);
    (q, db)
}

#[test]
fn triangle_reduction_produces_eight_queries_and_twelve_relations() {
    let (q, db) = triangle_instance(true);
    let fr = forward_reduction(&q, &db).unwrap();
    assert_eq!(fr.queries.len(), 8);
    // Each atom has 2 interval variables with 2 levels each → 4 distinct
    // transformed relations per atom, 12 in total.
    assert_eq!(fr.stats.num_relations, 12);
    assert_eq!(fr.relations().count(), 12);
    // Every reduced query references existing relations with matching arity.
    for rq in &fr.queries {
        for atom in &rq.atoms {
            let rel = fr.relation(&atom.relation, None).unwrap();
            assert_eq!(rel.arity(), atom.vars.len());
        }
        // The reduced query is a pure EJ query.
        assert!(rq.to_query().is_ej());
    }
}

#[test]
fn transformed_relations_hold_bitstrings_only() {
    let (q, db) = triangle_instance(true);
    let fr = forward_reduction(&q, &db).unwrap();
    for rel in fr.relations() {
        for t in rel.tuples() {
            for v in t {
                assert!(
                    v.as_bits().is_some(),
                    "non-bitstring value {v:?} in {}",
                    rel.name()
                );
            }
        }
    }
}

#[test]
fn reduced_relation_sizes_respect_lemma_4_10() {
    // Lemma 4.10: |R̃| = O(|R| · log^i |I|).  With |I| ≤ 2N the height h
    // of the segment tree bounds the number of CP nodes by 2h+2 and the
    // number of compositions of a bitstring into i parts by (h+1)^(i-1).
    let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let mut db = Database::new();
    let n = 32;
    let mk = |offset: f64| {
        (0..n)
            .map(|i| {
                vec![
                    iv(i as f64 + offset, i as f64 + offset + 3.0),
                    iv(i as f64, i as f64 + 5.0),
                ]
            })
            .collect::<Vec<_>>()
    };
    db.insert_tuples("R", 2, mk(0.0));
    db.insert_tuples("S", 2, mk(1.0));
    db.insert_tuples("T", 2, mk(2.0));
    let fr = forward_reduction(&q, &db).unwrap();
    let height = fr
        .stats
        .variables
        .iter()
        .map(|(_, _, h)| *h as usize)
        .max()
        .unwrap();
    let cp_bound = 2 * height + 2;
    let comp_bound = height + 1;
    // Every transformed relation has at most 2 interval variables, each at
    // level ≤ 2, so the size is bounded by N · (cp_bound · comp_bound)^2.
    let per_var = cp_bound * comp_bound;
    let bound = n * per_var * per_var;
    for rel in fr.relations() {
        assert!(
            rel.len() <= bound,
            "relation {} has {} tuples, bound {bound}",
            rel.name(),
            rel.len()
        );
    }
}

#[test]
fn decomposed_encoding_splits_atoms_into_spine_and_parts() {
    let (q, db) = triangle_instance(true);
    let fr = forward_reduction_with(
        &q,
        &db,
        ReductionConfig {
            encoding: EncodingStrategy::Decomposed,
        },
    )
    .unwrap();
    assert_eq!(fr.queries.len(), 8);
    for rq in &fr.queries {
        // Every original atom has two interval variables, so it becomes a
        // spine plus two parts: nine atoms in total.
        assert_eq!(rq.atoms.len(), 9);
        // Every referenced relation exists with matching arity and every
        // part shares its Id variable with its spine.
        for atom in &rq.atoms {
            let rel = fr.relation(&atom.relation, None).unwrap();
            assert_eq!(rel.arity(), atom.vars.len());
        }
        let id_vars: Vec<&String> = rq
            .atoms
            .iter()
            .flat_map(|a| a.vars.iter())
            .filter(|v| v.starts_with("__id:"))
            .collect();
        // Three distinct Id variables, each appearing three times.
        let mut distinct = id_vars.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        assert_eq!(id_vars.len(), 9);
    }
}

#[test]
fn decomposed_encoding_is_smaller_on_multi_variable_atoms() {
    // A denser instance: the flat encoding materialises the product of
    // the per-variable expansions, the decomposed one their sum.
    let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
    let mut db = Database::new();
    let n = 24;
    let mk = |offset: f64| {
        (0..n)
            .map(|i| {
                vec![
                    iv(i as f64 + offset, i as f64 + offset + 4.0),
                    iv(i as f64 * 1.5, i as f64 * 1.5 + 6.0),
                ]
            })
            .collect::<Vec<_>>()
    };
    db.insert_tuples("R", 2, mk(0.0));
    db.insert_tuples("S", 2, mk(0.5));
    db.insert_tuples("T", 2, mk(1.0));
    let flat = forward_reduction(&q, &db).unwrap();
    let decomposed = forward_reduction_with(
        &q,
        &db,
        ReductionConfig {
            encoding: EncodingStrategy::Decomposed,
        },
    )
    .unwrap();
    assert!(
        decomposed.stats.transformed_tuples < flat.stats.transformed_tuples,
        "decomposed {} >= flat {}",
        decomposed.stats.transformed_tuples,
        flat.stats.transformed_tuples
    );
}

#[test]
fn decomposed_encoding_leaves_single_variable_atoms_flat() {
    // Figure 9d: T([A]) has a single interval variable and keeps the flat
    // relation even under the decomposed encoding.
    let q = Query::parse("R([A],[B],[C]) & S([A],[B],[C]) & T([A])").unwrap();
    let mut db = Database::new();
    db.insert_tuples("R", 3, vec![vec![iv(0.0, 2.0), iv(0.0, 2.0), iv(0.0, 2.0)]]);
    db.insert_tuples("S", 3, vec![vec![iv(1.0, 3.0), iv(1.0, 3.0), iv(1.0, 3.0)]]);
    db.insert_tuples("T", 1, vec![vec![iv(1.5, 1.8)]]);
    let fr = forward_reduction_with(
        &q,
        &db,
        ReductionConfig {
            encoding: EncodingStrategy::Decomposed,
        },
    )
    .unwrap();
    for rq in &fr.queries {
        // R and S decompose into 1 spine + 3 parts each; T stays flat.
        assert_eq!(rq.atoms.len(), 4 + 4 + 1);
        let t_atoms: Vec<_> = rq
            .atoms
            .iter()
            .filter(|a| a.relation.starts_with("T@"))
            .collect();
        assert_eq!(t_atoms.len(), 1);
        assert!(!t_atoms[0].vars.iter().any(|v| v.starts_with("__id:")));
    }
}

#[test]
fn point_values_for_interval_variables_are_accepted() {
    // Membership-style data: point values are treated as point intervals.
    let q = Query::parse("R([A]) & S([A])").unwrap();
    let mut db = Database::new();
    db.insert_tuples("R", 1, vec![vec![Value::point(3.0)]]);
    db.insert_tuples("S", 1, vec![vec![iv(0.0, 5.0)]]);
    let fr = forward_reduction(&q, &db).unwrap();
    assert_eq!(fr.queries.len(), 2);
    assert!(fr.stats.transformed_tuples > 0);
}

#[test]
fn carried_point_variables_survive_unchanged() {
    // EIJ query: equality join on X, intersection join on [A].
    let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
    let mut db = Database::new();
    db.insert_tuples("R", 2, vec![vec![Value::point(7.0), iv(0.0, 2.0)]]);
    db.insert_tuples("S", 2, vec![vec![Value::point(7.0), iv(1.0, 3.0)]]);
    let fr = forward_reduction(&q, &db).unwrap();
    assert_eq!(fr.queries.len(), 2);
    for rel in fr.relations() {
        for t in rel.tuples() {
            // First column carries the point value 7.0.
            assert_eq!(t[0], Value::point(7.0));
        }
    }
}

#[test]
fn stats_are_populated() {
    let (q, db) = triangle_instance(true);
    let fr = forward_reduction(&q, &db).unwrap();
    assert_eq!(fr.stats.input_tuples, 3);
    assert_eq!(fr.stats.num_queries, 8);
    assert_eq!(fr.stats.variables.len(), 3);
    assert!(fr.stats.transformed_tuples >= fr.stats.max_relation_tuples);
    assert!(fr.stats.max_relation_tuples > 0);
}

pub(super) const DECOMPOSED: ReductionConfig = ReductionConfig {
    encoding: EncodingStrategy::Decomposed,
};

/// `n` deterministic rows, one interval per column: overlapping, nested,
/// every fifth value a bare point, the last row repeating the first.
pub(super) fn interval_rows(n: usize, columns: usize, salt: usize) -> Vec<Vec<Value>> {
    let cell = |i: usize, c: usize| {
        let lo = (i * (7 + 2 * c) + 3 * salt) % 13;
        match (i + c + salt) % 5 {
            0 => Value::point(lo as f64),
            width => iv(lo as f64, (lo + width * (c + 1)) as f64),
        }
    };
    (0..n)
        .map(|i| (0..columns).map(|c| cell(i % (n - 1), c)).collect())
        .collect()
}

pub(super) fn database_of(relations: &[(&str, Vec<Vec<Value>>)]) -> Database {
    let mut db = Database::new();
    for (name, rows) in relations {
        db.insert_tuples(name, rows[0].len(), rows.clone());
    }
    db
}

/// The query shapes of the property tests: a star of degree 3 (levels 1
/// and 2 expand canonical partitions, level 3 the leaf), the triangle,
/// two variables reaching levels (3, 3), an EIJ query carrying the point
/// variables X and Y before, between and after interval columns, a
/// triangle over a repeated relation, with a variable of degree 2 and
/// one of degree 3, and a chain of two degree-2 variables whose unary
/// ends are a leaf's ancestors alone (under the decomposed encoding, its
/// middle atom's parts are a tuple identifier and those ancestors).
pub(super) const SHAPES: [&str; 6] = [
    "R([A]) & S([A]) & T([A])",
    "R([A],[B]) & S([B],[C]) & T([A],[C])",
    "R([A],[B]) & S([A],[B]) & T([A],[B])",
    "R(X,[A],[B]) & S([A],X,Y) & T(Y,[B])",
    "R([A],[B]) & R([B],[C]) & T([A],[C],[B])",
    "G([A]) & R([A],[B]) & E([B])",
];

/// One relation's rows, before a query shape gives them an arity and
/// column kinds: three raw cells `(lo, width, kind)` per row.
pub(super) type RawRows = Vec<Vec<(u32, u32, u32)>>;

/// A random small instance: a shape of [`SHAPES`] and raw rows for its
/// three relations over a domain small enough that intervals nest, touch
/// at closed endpoints and repeat.
pub(super) fn arb_instance() -> impl Strategy<Value = (usize, Vec<RawRows>)> {
    let row = proptest::collection::vec((0u32..8, 0u32..5, 0u32..4), 3);
    let rows = proptest::collection::vec(row, 1..6);
    (0..SHAPES.len(), proptest::collection::vec(rows, 3))
}

/// A larger random instance: up to 256 rows per relation over a domain
/// of a few hundred, so a tree is eight to ten levels tall, its leaves
/// sit at two depths, and a node's list merges rows from several levels
/// below it.
pub(super) fn arb_large_instance() -> impl Strategy<Value = (usize, Vec<RawRows>)> {
    let row = proptest::collection::vec((0u32..300, 0u32..40, 0u32..4), 3);
    let rows = proptest::collection::vec(row, 1..257);
    (0..SHAPES.len(), proptest::collection::vec(rows, 3))
}

/// The instance as a query and a database over `dict`, each relation's
/// rows in the order `order` puts them.  A point column holds one of three points; an
/// interval column an interval of width 0 to 4, a quarter of the
/// zero-width ones as a bare point; every relation repeats its first row.
/// A repeated relation has the rows of its first atom.
pub(super) fn instance(
    (shape, relations): &(usize, Vec<RawRows>),
    dict: &SharedDictionary,
    order: impl Fn(&mut Vec<Vec<Value>>),
) -> (Query, Database) {
    let q = Query::parse(SHAPES[*shape]).unwrap();
    let cell = |var: &String, (lo, width, kind): (u32, u32, u32)| match q.var_kind(var) {
        Some(VarKind::Interval) if (width, kind) == (0, 0) => Value::point(lo as f64),
        Some(VarKind::Interval) => iv(lo as f64, (lo + width) as f64),
        _ => Value::point((lo % 3) as f64),
    };
    let mut db = Database::new_in(dict.clone());
    for (atom, raw) in q.atoms().iter().zip(relations) {
        if db.relation(&atom.relation).is_some() {
            continue;
        }
        let mut rows: Vec<Vec<Value>> = (raw.iter().chain(&raw[..1]))
            .map(|row| (atom.vars.iter().zip(row).map(|(v, &c)| cell(v, c))).collect())
            .collect();
        order(&mut rows);
        db.insert_tuples(&atom.relation, atom.vars.len(), rows);
    }
    (q, db)
}

/// `Σ_{distinct seeds} ∏_columns C(|u| + i − 1, i − 1)` for one planned
/// relation, the seeds collected the slow way: a set of id rows.
pub(super) fn size_by_lemma_4_10(fr: &ForwardReduction, planned: &PlannedRelation) -> u64 {
    let spec = &planned.spec;
    let plan = fr.resolve(spec);
    let mut seeds: BTreeSet<Vec<ValueId>> = BTreeSet::new();
    for row in 0..fr.sources[spec.atom].rows {
        let of_row = plan.iter().fold(vec![vec![]], |seeds, column| {
            let extended = |seed: &Vec<ValueId>| {
                let seed = seed.clone();
                let ids = column.seeds_of(row, &mut Vec::new()).to_vec();
                ids.into_iter().map(move |id| [&seed[..], &[id]].concat())
            };
            seeds.iter().flat_map(extended).collect()
        });
        seeds.extend(of_row);
    }
    let options = |(id, column): (&ValueId, &PlanColumn<'_>)| match *column {
        PlanColumn::Carried(_) | PlanColumn::Ancestors(_) => 1,
        PlanColumn::Expand { level, .. } => {
            let node = fr.dict.resolve(*id).as_bits().unwrap();
            node.composition_count(level)
        }
    };
    (seeds.iter())
        .map(|seed| seed.iter().zip(&plan).map(options).product::<u64>())
        .sum()
}

/// Whether `var` is the `X#2` of an interval variable `X` of degree 2 in
/// `q`: the one column the live plan leaves out.
pub(super) fn dead(q: &Query, var: &str) -> bool {
    var.strip_suffix("#2").is_some_and(|x| {
        let degree = (q.atoms().iter())
            .filter(|atom| atom.vars.iter().any(|v| v == x))
            .count();
        q.var_kind(x) == Some(VarKind::Interval) && degree == 2
    })
}

/// A relation's rows as id rows, in order.
pub(super) fn id_rows(relation: &Relation) -> Vec<Vec<ValueId>> {
    (0..relation.len())
        .map(|row| {
            (0..relation.arity())
                .map(|c| relation.id_at(row, c))
                .collect()
        })
        .collect()
}

/// The relation `name` of `paper` (from [`forward_reduction_with`])
/// projected onto the columns whose variables the live plan's atom of
/// that name binds, as a set of id rows.
pub(super) fn live_projection(
    live: &ForwardReduction,
    paper: &ForwardReduction,
    name: &str,
) -> BTreeSet<Vec<ValueId>> {
    let atoms = |fr: &ForwardReduction| -> Vec<ReducedAtom> {
        (fr.queries.iter().flat_map(|rq| rq.atoms.iter().cloned())).collect()
    };
    let (live_atoms, paper_atoms) = (atoms(live), atoms(paper));
    let at = live_atoms.iter().position(|a| a.relation == name).unwrap();
    let (kept, all) = (&live_atoms[at].vars, &paper_atoms[at].vars);
    let cols: Vec<usize> = (0..all.len()).filter(|&c| kept.contains(&all[c])).collect();
    let relation = paper.relation(name, None).unwrap();
    (id_rows(relation).into_iter())
        .map(|row| cols.iter().map(|&c| row[c]).collect())
        .collect()
}

/// The relation `name` of the live plan is `paper`'s projected onto its
/// live columns, exactly: the same rows and no duplicate.  Where every
/// column is one piece wide the relation is its sorted seeds, so its
/// rows also strictly ascend — the set and the order fix its columns.
/// Returns its size.
pub(super) fn assert_live(live: &ForwardReduction, paper: &ForwardReduction, name: &str) -> usize {
    let relation = live.relation(name, None).unwrap();
    let rows = id_rows(relation);
    let set: BTreeSet<Vec<ValueId>> = rows.iter().cloned().collect();
    assert_eq!(set.len(), rows.len(), "duplicates in {name}");
    assert_eq!(set, live_projection(live, paper, name), "{name}");
    let spec = &live.relations[live.by_name[name]].spec;
    if live.resolve(spec).iter().all(|column| column.width() == 1) {
        let cols: Vec<&[ValueId]> = (0..relation.arity())
            .map(|c| relation.column_ids(c))
            .collect();
        assert!(strictly_ascending(&cols), "{name} out of order");
    }
    rows.len()
}

/// The distinct seeds of `planned` as its build takes them — closed over
/// the tree where the plan has an `Ancestors` column — are the sort of
/// every seed, column for column.  Returns whether the tree gave them.
pub(super) fn assert_seeds_from_the_tree(fr: &ForwardReduction, planned: &PlannedRelation) -> bool {
    let (name, spec) = (&planned.name, &planned.spec);
    let (plan, rows) = (fr.resolve(spec), fr.sources[spec.atom].rows);
    let mut ticker = CancelTicker::new(None);
    let Some((a, collapsed)) = tree_column(&plan) else {
        return false;
    };
    let sorted = sorted_seeds(name, &fr.dict, &plan, rows, &mut ticker).unwrap();
    let leaves = sorted_seeds(name, &fr.dict, &collapsed, rows, &mut ticker).unwrap();
    let closed = close_over_ancestors(&leaves, a, &mut ticker).unwrap();
    assert_eq!(id_rows(&closed), id_rows(&sorted), "{name}");
    true
}

/// Under both encodings: the star's plan and, as the reference, its
/// fully built reduction.
fn star_plan_and_reference(config: ReductionConfig) -> (ForwardReduction, ForwardReduction) {
    let q = Query::parse("R([A],[B]) & S([A],[B]) & T([A])").unwrap();
    let db = database_of(&[
        ("R", interval_rows(9, 2, 0)),
        ("S", interval_rows(7, 2, 1)),
        ("T", interval_rows(8, 1, 2)),
    ]);
    (
        plan_forward_reduction(&q, &db, config, None).unwrap(),
        forward_reduction_with(&q, &db, config).unwrap(),
    )
}

#[test]
fn a_plan_builds_relations_on_first_use_only() {
    for config in [ReductionConfig::default(), DECOMPOSED] {
        let (plan, reference) = star_plan_and_reference(config);
        assert_eq!(plan.relations().count(), 0);
        assert_eq!(plan.stats.relations_built, 0);
        assert_eq!(plan.stats.transformed_tuples, 0);
        assert_eq!(plan.stats.num_relations, reference.stats.num_relations);
        assert_eq!(
            reference.stats.relations_built,
            reference.stats.num_relations
        );

        // Building what the first query reads builds nothing else.
        let first = &plan.queries[0];
        for atom in &first.atoms {
            let built = plan.relation(&atom.relation, None).unwrap();
            assert_live(&plan, &reference, &atom.relation);
            // A second request is the same relation, not a second build.
            assert!(std::ptr::eq(
                built,
                plan.relation(&atom.relation, None).unwrap()
            ));
        }
        let stats = plan.materialised_stats();
        assert_eq!(stats.relations_built, first.atoms.len());
        assert!(stats.relations_built < stats.num_relations);
        assert!(stats.transformed_tuples < reference.stats.transformed_tuples);

        plan.materialise_all().unwrap();
        let live: Vec<usize> = (plan.relations.iter())
            .map(|planned| live_projection(&plan, &reference, &planned.name).len())
            .collect();
        let stats = plan.materialised_stats();
        assert_eq!(stats.transformed_tuples, live.iter().sum::<usize>());
        assert_eq!(stats.max_relation_tuples, *live.iter().max().unwrap());
        // B has degree 2: at its top level, one column instead of two.
        let narrower =
            |r: &Relation| r.arity() < reference.relation(r.name(), None).unwrap().arity();
        assert!(plan.relations().any(narrower));
    }
}

#[test]
fn an_interrupted_build_leaves_the_relation_unbuilt() {
    let (plan, reference) = star_plan_and_reference(ReductionConfig::default());
    let name = plan.queries[0].atoms[0].relation.clone();
    let cancelled = CancellationToken::new().with_check_interval(4);
    cancelled.cancel();
    assert_eq!(
        plan.relation(&name, Some(&cancelled)).unwrap_err(),
        EvalError::Cancelled
    );
    let expired = CancellationToken::new().with_budget(std::time::Duration::ZERO);
    assert!(matches!(
        plan.relation(&name, Some(&expired)),
        Err(EvalError::DeadlineExceeded { .. })
    ));
    assert_eq!(plan.relations().count(), 0);
    // The next request builds it from the untouched plan; once built, not
    // even a cancelled token fails the request.
    assert_live(&plan, &reference, &name);
    assert!(plan.relation(&name, Some(&cancelled)).is_ok());
}

#[test]
fn concurrent_requests_share_one_build() {
    let (plan, reference) = star_plan_and_reference(DECOMPOSED);
    let names: Vec<&str> = reference.relations().map(Relation::name).collect();
    // The addresses of the relations each worker was handed.
    let seen: Vec<BTreeSet<usize>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|worker| {
                let (plan, names) = (&plan, &names);
                // Every worker asks for every relation, each from a
                // different starting point.
                let request = move |i: usize| {
                    let name = names[(i + worker) % names.len()];
                    plan.relation(name, None).unwrap() as *const Relation as usize
                };
                scope.spawn(move || (0..names.len()).map(request).collect())
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // All four saw the same relation objects: one per name.
    assert!(seen.iter().all(|s| s == &seen[0] && s.len() == names.len()));
    let live: usize = (names.iter())
        .map(|name| assert_live(&plan, &reference, name))
        .sum();
    assert_eq!(plan.materialised_stats().transformed_tuples, live);
}
