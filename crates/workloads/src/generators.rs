//! Workload generators.

use ij_hypergraph::VarKind;
use ij_relation::{Database, Query, Relation, Value};
use ij_segtree::Interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an interval value through [`Interval::try_new`], so a generator
/// bug (reversed or non-finite endpoints from drifting arithmetic) fails
/// loudly with the offending endpoints instead of a bare assert or a
/// silent clamp.
pub(crate) fn checked_interval(lo: f64, hi: f64) -> Value {
    Value::Interval(
        Interval::try_new(lo, hi)
            .unwrap_or_else(|e| panic!("workload generator produced {e} (lo={lo}, hi={hi})")),
    )
}

/// How interval endpoints are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalDistribution {
    /// Left endpoints uniform in `[0, span)`, lengths uniform in `[0, max_len]`.
    Uniform {
        /// Extent of the left-endpoint domain.
        span: f64,
        /// Maximum interval length.
        max_len: f64,
    },
    /// Left endpoints uniform, lengths heavy-tailed (Pareto-like with shape
    /// `alpha`); a few very long intervals intersect almost everything.
    HeavyTailed {
        /// Extent of the left-endpoint domain.
        span: f64,
        /// Pareto shape parameter (> 0); smaller means heavier tails.
        alpha: f64,
        /// Length scale.
        scale: f64,
    },
    /// Degenerate point intervals with integer coordinates in `[0, domain)`;
    /// intersection joins become equality joins.
    Points {
        /// Number of distinct points.
        domain: u64,
    },
    /// Intervals aligned to a grid of `cells` cells over `[0, span)`: each
    /// interval covers a contiguous run of `1..=max_cells` cells.  Aligned
    /// intervals keep canonical partitions small, which makes large-`N`
    /// benchmark runs affordable.
    GridAligned {
        /// Extent of the domain.
        span: f64,
        /// Number of grid cells.
        cells: u32,
        /// Maximum number of covered cells.
        max_cells: u32,
    },
}

impl IntervalDistribution {
    fn sample(&self, rng: &mut StdRng) -> (f64, f64) {
        match *self {
            IntervalDistribution::Uniform { span, max_len } => {
                let lo = rng.gen_range(0.0..span);
                let len = rng.gen_range(0.0..=max_len);
                (lo, lo + len)
            }
            IntervalDistribution::HeavyTailed { span, alpha, scale } => {
                let lo = rng.gen_range(0.0..span);
                let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
                let len = scale * (u.powf(-1.0 / alpha) - 1.0);
                (lo, lo + len.min(span))
            }
            IntervalDistribution::Points { domain } => {
                let p = rng.gen_range(0..domain) as f64;
                (p, p)
            }
            IntervalDistribution::GridAligned {
                span,
                cells,
                max_cells,
            } => {
                let width = span / cells as f64;
                let start = rng.gen_range(0..cells);
                let run = rng.gen_range(1..=max_cells.max(1));
                let end = (start + run).min(cells);
                (start as f64 * width, end as f64 * width)
            }
        }
    }
}

/// Configuration of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of tuples per relation.
    pub tuples_per_relation: usize,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
    /// Distribution of interval values.
    pub distribution: IntervalDistribution,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            tuples_per_relation: 1000,
            seed: 42,
            distribution: IntervalDistribution::Uniform {
                span: 1000.0,
                max_len: 20.0,
            },
        }
    }
}

/// Generates a database for an arbitrary query: one relation per atom, with
/// `tuples_per_relation` tuples whose interval columns follow the configured
/// distribution and whose point columns take uniform integer values.
pub fn generate_for_query(q: &Query, cfg: &WorkloadConfig) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    for atom in q.atoms() {
        // Skip duplicate relation names (self-joins reuse the same relation).
        if db.relation(&atom.relation).is_some() {
            continue;
        }
        let mut rel = Relation::new(atom.relation.clone(), atom.vars.len(), db.dictionary());
        for _ in 0..cfg.tuples_per_relation {
            let mut row = Vec::with_capacity(atom.vars.len());
            for v in &atom.vars {
                match q.var_kind(v) {
                    Some(VarKind::Interval) => {
                        let (lo, hi) = cfg.distribution.sample(&mut rng);
                        row.push(checked_interval(lo, hi));
                    }
                    _ => {
                        let p = rng.gen_range(0..cfg.tuples_per_relation.max(1)) as f64;
                        row.push(Value::point(p));
                    }
                }
            }
            rel.push(row);
        }
        db.insert(rel);
    }
    db
}

/// A workload that is guaranteed to satisfy the query: the random database of
/// [`generate_for_query`] plus one *planted witness* tuple per relation whose
/// interval columns all hold the same unit interval and whose point columns
/// all hold the same value.  Every intersection and equality join is
/// satisfied by the planted tuples, so the Boolean query is true regardless
/// of the random part.  Used by the differential tests to guarantee coverage
/// of the `true` outcome.
pub fn planted_satisfiable(q: &Query, cfg: &WorkloadConfig) -> Database {
    let mut db = generate_for_query(q, cfg);
    let witness_interval = Value::interval(0.25, 1.25);
    let witness_point = Value::point(0.5);
    for atom in q.atoms() {
        let row: Vec<Value> = atom
            .vars
            .iter()
            .map(|v| match q.var_kind(v) {
                Some(VarKind::Interval) => witness_interval,
                _ => witness_point,
            })
            .collect();
        if let Some(rel) = db.relation_mut(&atom.relation) {
            rel.push(row);
        }
    }
    db
}

/// A workload that is guaranteed *not* to satisfy the query: the values of
/// the `i`-th relation are confined to a window disjoint from every other
/// relation's window, so no join variable occurring in two different
/// relations can ever be matched.  Used by the differential tests to
/// guarantee coverage of the `false` outcome.
///
/// # Panics
///
/// Panics if the query is not self-join-free or has no variable occurring in
/// at least two atoms (such a query is satisfied by any non-empty database
/// and cannot be planted false).
pub fn planted_unsatisfiable(q: &Query, cfg: &WorkloadConfig) -> Database {
    assert!(
        q.is_self_join_free(),
        "planted_unsatisfiable requires a self-join-free query"
    );
    let has_join_var = q
        .variables()
        .iter()
        .any(|v| q.atoms().iter().filter(|a| a.vars.contains(v)).count() >= 2);
    assert!(
        has_join_var,
        "planted_unsatisfiable requires at least one join variable"
    );

    let span = match cfg.distribution {
        IntervalDistribution::Uniform { span, max_len } => span + max_len,
        IntervalDistribution::HeavyTailed { span, .. } => 2.0 * span,
        IntervalDistribution::Points { domain } => domain as f64,
        IntervalDistribution::GridAligned { span, .. } => span,
    };
    let window = span + cfg.tuples_per_relation as f64 + 1.0;

    let mut db = generate_for_query(q, cfg);
    for (i, atom) in q.atoms().iter().enumerate() {
        let offset = window * (i as f64 + 1.0);
        let Some(rel) = db.relation_mut(&atom.relation) else {
            continue;
        };
        let arity = rel.arity();
        let shifted: Vec<Vec<Value>> = rel
            .tuples()
            .iter()
            .map(|t| {
                t.iter()
                    .map(|v| match v.as_interval() {
                        Some(iv) => checked_interval(iv.lo() + offset, iv.hi() + offset),
                        None => Value::point(v.as_point().unwrap_or(0.0) + offset),
                    })
                    .collect()
            })
            .collect();
        *rel = Relation::from_tuples(rel.name().to_string(), arity, shifted, rel.dictionary());
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_given_the_seed() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let cfg = WorkloadConfig {
            tuples_per_relation: 50,
            seed: 7,
            ..WorkloadConfig::default()
        };
        let a = generate_for_query(&q, &cfg);
        let b = generate_for_query(&q, &cfg);
        assert_eq!(a, b);
        let c = generate_for_query(&q, &WorkloadConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_relations_match_query_schemas() {
        let q = Query::parse("R([A],[B]) & S([B],C)").unwrap();
        let cfg = WorkloadConfig {
            tuples_per_relation: 20,
            ..WorkloadConfig::default()
        };
        let db = generate_for_query(&q, &cfg);
        assert_eq!(db.num_relations(), 2);
        let r = db.relation("R").unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 20);
        // S has an interval column (B) and a point column (C).
        let s = db.relation("S").unwrap();
        for t in s.tuples() {
            assert!(t[0].as_interval().is_some());
            assert!(t[1].as_point().is_some());
        }
    }

    #[test]
    fn self_joins_share_one_relation() {
        let q = Query::parse("R([A],[B]) & R([B],[C])").unwrap();
        let db = generate_for_query(
            &q,
            &WorkloadConfig {
                tuples_per_relation: 5,
                ..Default::default()
            },
        );
        assert_eq!(db.num_relations(), 1);
    }

    #[test]
    fn distributions_produce_valid_intervals() {
        let distributions = [
            IntervalDistribution::Uniform {
                span: 100.0,
                max_len: 10.0,
            },
            IntervalDistribution::HeavyTailed {
                span: 100.0,
                alpha: 1.5,
                scale: 5.0,
            },
            IntervalDistribution::Points { domain: 50 },
            IntervalDistribution::GridAligned {
                span: 100.0,
                cells: 32,
                max_cells: 4,
            },
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for d in distributions {
            for _ in 0..200 {
                let (lo, hi) = d.sample(&mut rng);
                assert!(lo <= hi, "{d:?} produced an inverted interval");
                assert!(lo.is_finite() && hi.is_finite());
            }
        }
    }

    #[test]
    fn points_distribution_yields_point_intervals() {
        let q = Query::parse("R([A])").unwrap();
        let cfg = WorkloadConfig {
            tuples_per_relation: 30,
            seed: 3,
            distribution: IntervalDistribution::Points { domain: 5 },
        };
        let db = generate_for_query(&q, &cfg);
        for t in db.relation("R").unwrap().tuples() {
            let iv = t[0].as_interval().unwrap();
            assert!(iv.is_point());
        }
    }

    #[test]
    fn planted_satisfiable_contains_a_witness_row_per_relation() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let cfg = WorkloadConfig {
            tuples_per_relation: 7,
            seed: 3,
            distribution: IntervalDistribution::Uniform {
                span: 500.0,
                max_len: 5.0,
            },
        };
        let db = planted_satisfiable(&q, &cfg);
        for name in ["R", "S", "T"] {
            let rel = db.relation(name).unwrap();
            assert_eq!(rel.len(), 8);
            let witness = rel.row(rel.len() - 1);
            for v in witness {
                assert_eq!(
                    v.as_interval().unwrap(),
                    ij_segtree::Interval::new(0.25, 1.25)
                );
            }
        }
    }

    #[test]
    fn planted_unsatisfiable_separates_relations_into_disjoint_windows() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let cfg = WorkloadConfig {
            tuples_per_relation: 6,
            seed: 1,
            distribution: IntervalDistribution::Uniform {
                span: 50.0,
                max_len: 10.0,
            },
        };
        let db = planted_unsatisfiable(&q, &cfg);
        // No interval of R intersects any interval of S or T (and so on).
        let names = ["R", "S", "T"];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                for ta in db.relation(a).unwrap().tuples() {
                    for tb in db.relation(b).unwrap().tuples() {
                        for va in &ta {
                            for vb in &tb {
                                assert!(!va
                                    .as_interval()
                                    .unwrap()
                                    .intersects(vb.as_interval().unwrap()));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "join variable")]
    fn planted_unsatisfiable_rejects_queries_without_join_variables() {
        let q = Query::parse("R([A])").unwrap();
        planted_unsatisfiable(&q, &WorkloadConfig::default());
    }
}
