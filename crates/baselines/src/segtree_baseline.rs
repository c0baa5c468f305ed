//! A segment-tree-backed direct evaluator for EIJ queries.
//!
//! The forward reduction (Section 4) answers an intersection join by
//! rewriting it into equality joins over canonical-partition identifiers.
//! [`SegtreeBaseline`] is the *other* classical route the paper compares
//! against (Section 2): index every relation column with a segment tree and
//! evaluate the query directly by backtracking, using overlap queries on the
//! indexes to enumerate only the tuples compatible with the running
//! intersection of each bound variable.  No reduction, no tries — just
//! stabbing walks over [`SegmentTree`]'s sorted-endpoint arrays.
//!
//! The evaluator is deliberately independent of the engine crate so the
//! differential harness can hold three implementations to the same answer:
//! the reduction-based engine, this baseline, and the naive oracle.

use crate::{BaselineError, Binding};
use ij_hypergraph::VarKind;
use ij_relation::{Database, Query, Value};
use ij_segtree::SegmentTree;
use std::collections::HashMap;

/// Per-atom state: the materialised rows plus one overlap index per column.
#[derive(Debug, Clone)]
struct AtomIndex {
    /// Variable names in column order (owned copy of the atom's schema).
    vars: Vec<String>,
    /// The relation's rows, materialised once at build time.
    rows: Vec<Vec<Value>>,
    /// One segment tree per column over `to_interval()` of each value
    /// (points become point intervals, giving membership-join semantics).
    /// `None` when some value in the column is not interval-convertible;
    /// such columns fall back to scanning.
    trees: Vec<Option<SegmentTree>>,
}

/// A direct segment-tree evaluator for Boolean and counting EIJ queries.
///
/// Build once per `(query, database)` pair with [`SegtreeBaseline::build`]
/// (this constructs one [`SegmentTree`] per relation column), then ask
/// for the Boolean answer ([`SegtreeBaseline::evaluate_boolean`]) or the
/// number of satisfying tuple combinations
/// ([`SegtreeBaseline::count_witnesses`], the enumeration-mode answer the
/// differential tests compare against the naive oracle's count).
///
/// ```
/// use ij_baselines::SegtreeBaseline;
/// use ij_relation::{Database, Query, Value};
///
/// let q = Query::parse("R([A]) & S([A])").unwrap();
/// let mut db = Database::new();
/// db.insert_tuples("R", 1, vec![vec![Value::interval(0.0, 2.0)]]);
/// db.insert_tuples("S", 1, vec![vec![Value::interval(1.0, 3.0)]]);
/// let baseline = SegtreeBaseline::build(&q, &db).unwrap();
/// assert!(baseline.evaluate_boolean());
/// assert_eq!(baseline.count_witnesses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SegtreeBaseline {
    query: Query,
    atoms: Vec<AtomIndex>,
}

impl SegtreeBaseline {
    /// Builds the per-column indexes for `q` over `db`.
    ///
    /// Self-joins are supported (each atom gets its own index over the shared
    /// relation).  Returns an error if a referenced relation is missing or
    /// has the wrong arity.
    pub fn build(q: &Query, db: &Database) -> Result<Self, BaselineError> {
        let mut atoms = Vec::with_capacity(q.atoms().len());
        for atom in q.atoms() {
            let rel = db
                .relation(&atom.relation)
                .ok_or_else(|| BaselineError::MissingRelation(atom.relation.clone()))?;
            if rel.arity() != atom.vars.len() {
                return Err(BaselineError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: atom.vars.len(),
                    found: rel.arity(),
                });
            }
            let rows = rel.tuples();
            let mut trees = Vec::with_capacity(atom.vars.len());
            for col in 0..atom.vars.len() {
                let mut intervals = Vec::with_capacity(rows.len());
                let mut indexable = true;
                for row in &rows {
                    match row[col].to_interval() {
                        Some(iv) => intervals.push(iv),
                        None => {
                            indexable = false;
                            break;
                        }
                    }
                }
                trees.push(indexable.then(|| SegmentTree::build_with_storage(&intervals)));
            }
            atoms.push(AtomIndex {
                vars: atom.vars.clone(),
                rows,
                trees,
            });
        }
        Ok(SegtreeBaseline {
            query: q.clone(),
            atoms,
        })
    }

    /// The Boolean answer (early exit on the first witness).
    pub fn evaluate_boolean(&self) -> bool {
        self.count_impl(true) > 0
    }

    /// The number of satisfying tuple combinations — one tuple per atom, the
    /// same witness semantics as the naive oracle's count.
    pub fn count_witnesses(&self) -> u64 {
        self.count_impl(false)
    }

    fn count_impl(&self, early_exit: bool) -> u64 {
        let mut search = Search {
            baseline: self,
            early_exit,
            count: 0,
        };
        search.go(0, &HashMap::new());
        search.count
    }

    /// The tuple indices of atom `atom_idx` compatible with `bindings`:
    /// probes the first indexed column whose variable is already bound
    /// (overlap query against the running intersection); falls back to the
    /// full row range when no bound variable has an index.
    fn candidates(&self, atom_idx: usize, bindings: &HashMap<String, Binding>) -> Vec<usize> {
        let atom = &self.atoms[atom_idx];
        for (col, var) in atom.vars.iter().enumerate() {
            let Some(binding) = bindings.get(var) else {
                continue;
            };
            let Some(tree) = &atom.trees[col] else {
                continue;
            };
            let probe = match binding {
                Binding::Interval(iv) => Some(*iv),
                Binding::Point(value) => value.to_interval(),
            };
            if let Some(probe) = probe {
                return tree.overlapping(probe);
            }
        }
        (0..atom.rows.len()).collect()
    }
}

struct Search<'a> {
    baseline: &'a SegtreeBaseline,
    early_exit: bool,
    count: u64,
}

impl Search<'_> {
    fn go(&mut self, atom_idx: usize, bindings: &HashMap<String, Binding>) -> bool {
        if atom_idx == self.baseline.atoms.len() {
            self.count += 1;
            return self.early_exit;
        }
        let atom = &self.baseline.atoms[atom_idx];
        'rows: for row_idx in self.baseline.candidates(atom_idx, bindings) {
            let row = &atom.rows[row_idx];
            let mut next = bindings.clone();
            for (col, var) in atom.vars.iter().enumerate() {
                let value = row[col];
                match self.baseline.query.var_kind(var) {
                    Some(VarKind::Interval) => {
                        let Some(iv) = value.to_interval() else {
                            continue 'rows;
                        };
                        let merged = match next.get(var) {
                            Some(Binding::Interval(current)) => match current.intersection(iv) {
                                Some(m) => m,
                                None => continue 'rows,
                            },
                            _ => iv,
                        };
                        next.insert(var.clone(), Binding::Interval(merged));
                    }
                    _ => match next.get(var) {
                        Some(Binding::Point(existing)) => {
                            if *existing != value {
                                continue 'rows;
                            }
                        }
                        _ => {
                            next.insert(var.clone(), Binding::Point(value));
                        }
                    },
                }
            }
            if self.go(atom_idx + 1, &next) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
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
    fn agrees_with_naive_on_the_triangle() {
        for satisfiable in [true, false] {
            let (q, db) = triangle_db(satisfiable);
            let baseline = SegtreeBaseline::build(&q, &db).unwrap();
            assert_eq!(baseline.evaluate_boolean(), satisfiable);
            assert_eq!(baseline.count_witnesses(), u64::from(satisfiable));
            assert_eq!(ij_engine::naive_boolean(&q, &db).unwrap(), satisfiable);
        }
    }

    #[test]
    fn counts_match_nested_enumeration_on_random_instances() {
        use ij_workloads::{generate_for_query, IntervalDistribution, WorkloadConfig};
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        for seed in 0..8 {
            let db = generate_for_query(
                &q,
                &WorkloadConfig {
                    tuples_per_relation: 10,
                    seed,
                    distribution: IntervalDistribution::Uniform {
                        span: 40.0,
                        max_len: 8.0,
                    },
                },
            );
            let baseline = SegtreeBaseline::build(&q, &db).unwrap();
            // Brute-force witness count for the triangle.
            let (r, s, t) = (
                db.relation("R").unwrap().tuples(),
                db.relation("S").unwrap().tuples(),
                db.relation("T").unwrap().tuples(),
            );
            let mut expected = 0u64;
            for a in &r {
                for b in &s {
                    for c in &t {
                        let ab = a[1].to_interval().unwrap();
                        let bc = b[0].to_interval().unwrap();
                        let aa = a[0].to_interval().unwrap();
                        let ta = c[0].to_interval().unwrap();
                        let sc = b[1].to_interval().unwrap();
                        let tc = c[1].to_interval().unwrap();
                        if ab.intersects(bc) && aa.intersects(ta) && sc.intersects(tc) {
                            expected += 1;
                        }
                    }
                }
            }
            assert_eq!(baseline.count_witnesses(), expected, "seed {seed}");
            assert_eq!(baseline.evaluate_boolean(), expected > 0, "seed {seed}");
        }
    }

    #[test]
    fn membership_joins_mix_points_and_intervals() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 5.0)], vec![iv(10.0, 11.0)]]);
        db.insert_tuples(
            "S",
            1,
            vec![vec![Value::point(3.0)], vec![Value::point(20.0)]],
        );
        let baseline = SegtreeBaseline::build(&q, &db).unwrap();
        assert!(baseline.evaluate_boolean());
        assert_eq!(baseline.count_witnesses(), 1);
    }

    #[test]
    fn equality_joins_on_point_variables() {
        let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![Value::point(1.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 2, vec![vec![Value::point(1.0), iv(1.0, 3.0)]]);
        let baseline = SegtreeBaseline::build(&q, &db).unwrap();
        assert!(baseline.evaluate_boolean());

        db.insert_tuples("S", 2, vec![vec![Value::point(2.0), iv(1.0, 3.0)]]);
        let baseline = SegtreeBaseline::build(&q, &db).unwrap();
        assert!(!baseline.evaluate_boolean());
    }

    #[test]
    fn self_joins_are_supported() {
        let q = Query::parse("R([A],[B]) & R([B],[C])").unwrap();
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            2,
            vec![
                vec![iv(0.0, 1.0), iv(5.0, 6.0)],
                vec![iv(5.5, 7.0), iv(9.0, 9.5)],
            ],
        );
        let baseline = SegtreeBaseline::build(&q, &db).unwrap();
        assert!(baseline.evaluate_boolean());
        assert_eq!(baseline.count_witnesses(), 1);
    }

    #[test]
    fn errors_are_reported() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        assert!(matches!(
            SegtreeBaseline::build(&q, &db),
            Err(BaselineError::MissingRelation(_))
        ));
        db.insert_tuples("S", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        assert!(matches!(
            SegtreeBaseline::build(&q, &db),
            Err(BaselineError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn empty_relations_yield_false() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        db.insert_tuples("S", 1, Vec::new());
        let baseline = SegtreeBaseline::build(&q, &db).unwrap();
        assert!(!baseline.evaluate_boolean());
        assert_eq!(baseline.count_witnesses(), 0);
    }
}
