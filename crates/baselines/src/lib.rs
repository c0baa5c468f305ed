//! Baseline evaluators for intersection-join queries.
//!
//! The related-work section of the paper (Section 2) describes how
//! intersection joins are evaluated in practice: one binary join at a time,
//! with plane-sweep or index-based algorithms whose cost is
//! `O(N log N + OUT)` per join but whose *intermediate* results can be
//! asymptotically larger than needed — which is exactly what the ij-width
//! approach avoids.  This crate implements those comparators:
//!
//! * [`plane_sweep_pairs`] — the classical sort-based sweep producing all
//!   intersecting pairs of two interval sets;
//! * [`binary_join_cascade`] — evaluates an EIJ query one atom at a time,
//!   materialising the intermediate variable bindings (for the triangle this
//!   is the `O(N²)` strategy mentioned in Section 1.1, and its exponent
//!   coincides with the FAQ-AI bound of Table 1 on all three cyclic queries);
//! * [`SegtreeBaseline`] — a direct evaluator that indexes every relation
//!   column with a segment tree and backtracks through overlap queries,
//!   the specialised-structure comparator of the differential harness;
//! * [`index_nested_loop_pairs`] — the index-based binary join: a segment
//!   tree over one side, probed once per interval of the other.
//!
//! The always-correct exhaustive evaluator is `ij_engine::naive_boolean`;
//! this crate's tests use it as their oracle.

#![warn(missing_docs)]

mod segtree_baseline;

pub use segtree_baseline::SegtreeBaseline;

use ij_hypergraph::VarKind;
use ij_relation::{Database, Query, Value};
use ij_segtree::{Interval, SegmentTree};
use std::collections::BTreeMap;

/// Errors raised by the baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// A relation referenced by the query is missing from the database.
    MissingRelation(String),
    /// A relation's arity does not match the query atom.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// The arity the query atom expects.
        expected: usize,
        /// The arity the relation actually has.
        found: usize,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::MissingRelation(r) => write!(f, "relation `{r}` missing from database"),
            BaselineError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "relation `{relation}` has arity {found}, query expects {expected}"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// All intersecting pairs `(i, j)` of two interval collections, computed with
/// the classical plane sweep over endpoint events in `O(N log N + OUT)`.
pub fn plane_sweep_pairs(left: &[Interval], right: &[Interval]) -> Vec<(usize, usize)> {
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Side {
        Left,
        Right,
    }
    // Events: (coordinate, is_end, side, index).  Starts sort before ends at
    // equal coordinates so that touching intervals count as intersecting
    // (closed-interval semantics).
    let mut events: Vec<(f64, u8, Side, usize)> =
        Vec::with_capacity(2 * (left.len() + right.len()));
    for (i, iv) in left.iter().enumerate() {
        events.push((iv.lo(), 0, Side::Left, i));
        events.push((iv.hi(), 1, Side::Left, i));
    }
    for (j, iv) in right.iter().enumerate() {
        events.push((iv.lo(), 0, Side::Right, j));
        events.push((iv.hi(), 1, Side::Right, j));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut active_left: Vec<usize> = Vec::new();
    let mut active_right: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    for (_, is_end, side, idx) in events {
        if is_end == 1 {
            match side {
                Side::Left => active_left.retain(|&i| i != idx),
                Side::Right => active_right.retain(|&j| j != idx),
            }
            continue;
        }
        match side {
            Side::Left => {
                for &j in &active_right {
                    out.push((idx, j));
                }
                active_left.push(idx);
            }
            Side::Right => {
                for &i in &active_left {
                    out.push((i, idx));
                }
                active_right.push(idx);
            }
        }
    }
    out
}

/// A partial assignment of the query variables: point variables map to their
/// committed value, interval variables to the running intersection of all
/// intervals bound so far.
#[derive(Debug, Clone, PartialEq)]
enum Binding {
    Point(Value),
    Interval(Interval),
}

/// Evaluates a Boolean EIJ query by joining one atom at a time (in query
/// order), materialising the intermediate bindings after every step.  The
/// per-step pair generation uses [`plane_sweep_pairs`] on the first shared
/// interval variable when one exists.  Returns the answer together with the
/// largest intermediate size (tuples), which the benchmarks report to show
/// why one-join-at-a-time processing is suboptimal.
pub fn binary_join_cascade(q: &Query, db: &Database) -> Result<(bool, usize), BaselineError> {
    let mut intermediates: Vec<BTreeMap<String, Binding>> = vec![BTreeMap::new()];
    let mut max_intermediate = 0usize;

    for atom in q.atoms() {
        let rel = db
            .relation(&atom.relation)
            .ok_or_else(|| BaselineError::MissingRelation(atom.relation.clone()))?;
        let tuples = rel.tuples();
        // Shared interval variable (already bound and occurring in this atom)
        // to drive the sweep, if any.
        let shared_interval = atom.vars.iter().enumerate().find(|(_, v)| {
            q.var_kind(v.as_str()) == Some(VarKind::Interval)
                && intermediates
                    .first()
                    .map(|b| b.contains_key(v.as_str()))
                    .unwrap_or(false)
        });

        let candidate_pairs: Vec<(usize, usize)> = match shared_interval {
            Some((col, var)) if !intermediates.is_empty() && !rel.is_empty() => {
                let left: Vec<Interval> = intermediates
                    .iter()
                    .map(|b| match &b[var] {
                        Binding::Interval(iv) => *iv,
                        Binding::Point(_) => unreachable!("interval variable bound to a point"),
                    })
                    .collect();
                let right: Vec<Interval> = tuples
                    .iter()
                    .map(|t| {
                        t[col]
                            .to_interval()
                            .unwrap_or_else(|| Interval::point(f64::MAX))
                    })
                    .collect();
                plane_sweep_pairs(&left, &right)
            }
            _ => {
                // No shared interval variable: consider every combination.
                (0..intermediates.len())
                    .flat_map(|i| (0..rel.len()).map(move |j| (i, j)))
                    .collect()
            }
        };

        let mut next: Vec<BTreeMap<String, Binding>> = Vec::new();
        'pairs: for (i, j) in candidate_pairs {
            let mut binding = intermediates[i].clone();
            let tuple = &tuples[j];
            for (col, var) in atom.vars.iter().enumerate() {
                let value = tuple[col];
                match q.var_kind(var) {
                    Some(VarKind::Interval) => {
                        let Some(iv) = value.to_interval() else {
                            continue 'pairs;
                        };
                        let merged = match binding.get(var) {
                            Some(Binding::Interval(current)) => match current.intersection(iv) {
                                Some(m) => m,
                                None => continue 'pairs,
                            },
                            _ => iv,
                        };
                        binding.insert(var.clone(), Binding::Interval(merged));
                    }
                    _ => match binding.get(var) {
                        Some(Binding::Point(existing)) => {
                            if *existing != value {
                                continue 'pairs;
                            }
                        }
                        _ => {
                            binding.insert(var.clone(), Binding::Point(value));
                        }
                    },
                }
            }
            next.push(binding);
        }
        max_intermediate = max_intermediate.max(next.len());
        if next.is_empty() {
            return Ok((false, max_intermediate));
        }
        intermediates = next;
    }
    Ok((true, max_intermediate))
}

/// Index-nested-loop evaluation of a *binary* intersection join between two
/// unary interval relations: build a segment tree on the inner relation and
/// probe it once per outer interval — the index-based family of
/// algorithms surveyed in Section 2 (R-tree join, relational interval tree
/// join, ...).  Returns the matching pairs of tuple indices.
pub fn index_nested_loop_pairs(outer: &[Interval], inner: &[Interval]) -> Vec<(usize, usize)> {
    let tree = SegmentTree::build_with_storage(inner);
    let mut out = Vec::new();
    for (i, iv) in outer.iter().enumerate() {
        for j in tree.overlapping(*iv) {
            out.push((i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_engine::{naive_boolean, NaiveError};

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    #[test]
    fn plane_sweep_matches_brute_force() {
        let left: Vec<Interval> = vec![
            Interval::new(0.0, 2.0),
            Interval::new(1.0, 5.0),
            Interval::new(10.0, 12.0),
            Interval::point(4.0),
        ];
        let right: Vec<Interval> = vec![
            Interval::new(2.0, 3.0),
            Interval::new(4.0, 4.5),
            Interval::new(11.0, 20.0),
            Interval::new(-5.0, -1.0),
        ];
        let mut sweep = plane_sweep_pairs(&left, &right);
        sweep.sort_unstable();
        let mut brute: Vec<(usize, usize)> = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a.intersects(*b) {
                    brute.push((i, j));
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(sweep, brute);
    }

    #[test]
    fn index_nested_loop_matches_plane_sweep() {
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 500) as f64 / 5.0
        };
        let mk = |n: usize, next: &mut dyn FnMut() -> f64| -> Vec<Interval> {
            (0..n)
                .map(|_| {
                    let lo = next();
                    Interval::new(lo, lo + next() / 10.0)
                })
                .collect()
        };
        let left = mk(80, &mut next);
        let right = mk(60, &mut next);
        let mut a = index_nested_loop_pairs(&left, &right);
        let mut b = plane_sweep_pairs(&left, &right);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn plane_sweep_handles_touching_endpoints() {
        let left = vec![Interval::new(0.0, 1.0)];
        let right = vec![Interval::new(1.0, 2.0)];
        assert_eq!(plane_sweep_pairs(&left, &right), vec![(0, 0)]);
    }

    #[test]
    fn plane_sweep_empty_inputs() {
        assert!(plane_sweep_pairs(&[], &[Interval::new(0.0, 1.0)]).is_empty());
        assert!(plane_sweep_pairs(&[Interval::new(0.0, 1.0)], &[]).is_empty());
    }

    fn triangle_db(satisfiable: bool) -> (Query, Database) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(10.0, 14.0)]]);
        db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
        let c = if satisfiable {
            iv(24.0, 26.0)
        } else {
            iv(30.0, 31.0)
        };
        db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), c]]);
        (q, db)
    }

    #[test]
    fn cascade_and_naive_agree_on_the_triangle() {
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            let (answer, max_intermediate) = binary_join_cascade(&q, &db).unwrap();
            assert_eq!(answer, satisfiable);
            assert!(max_intermediate >= usize::from(satisfiable));
            assert_eq!(naive_boolean(&q, &db).unwrap(), satisfiable);
        }
    }

    #[test]
    fn cascade_reports_missing_relations() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        assert!(matches!(
            binary_join_cascade(&q, &db),
            Err(BaselineError::MissingRelation(_))
        ));
        assert!(matches!(
            naive_boolean(&q, &db),
            Err(NaiveError::MissingRelation(_))
        ));
    }

    #[test]
    fn intermediates_can_blow_up() {
        // Star-shaped data: every R interval intersects every S interval on
        // [B], but no T interval closes the triangle.  The cascade
        // materialises the full quadratic pairing before discovering the
        // answer is false.
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let n = 30;
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            2,
            (0..n)
                .map(|i| vec![iv(i as f64, i as f64 + 0.5), iv(0.0, 100.0)])
                .collect(),
        );
        db.insert_tuples(
            "S",
            2,
            (0..n)
                .map(|i| vec![iv(0.0, 100.0), iv(200.0 + i as f64, 200.5 + i as f64)])
                .collect(),
        );
        db.insert_tuples("T", 2, vec![vec![iv(1000.0, 1001.0), iv(1000.0, 1001.0)]]);
        let (answer, max_intermediate) = binary_join_cascade(&q, &db).unwrap();
        assert!(!answer);
        assert_eq!(max_intermediate, n * n);
    }

    #[test]
    fn baselines_agree_with_each_other_on_random_instances() {
        use ij_workloads::{generate_for_query, IntervalDistribution, WorkloadConfig};
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        for seed in 0..10 {
            let db = generate_for_query(
                &q,
                &WorkloadConfig {
                    tuples_per_relation: 12,
                    seed,
                    distribution: IntervalDistribution::Uniform {
                        span: 60.0,
                        max_len: 6.0,
                    },
                },
            );
            let (cascade, _) = binary_join_cascade(&q, &db).unwrap();
            let nested = naive_boolean(&q, &db).unwrap();
            assert_eq!(cascade, nested, "seed {seed}");
        }
    }

    #[test]
    fn mixed_point_and_interval_variables() {
        let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![Value::point(1.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 2, vec![vec![Value::point(1.0), iv(1.0, 3.0)]]);
        assert!(binary_join_cascade(&q, &db).unwrap().0);
        assert!(naive_boolean(&q, &db).unwrap());
        let mut db2 = db.clone();
        db2.insert_tuples("S", 2, vec![vec![Value::point(2.0), iv(1.0, 3.0)]]);
        assert!(!binary_join_cascade(&q, &db2).unwrap().0);
    }
}
