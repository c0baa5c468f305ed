//! The backward reduction (Section 5, Definition D.2).
//!
//! Given a self-join-free IJ query `Q`, an EJ query `Q̃` whose hypergraph
//! belongs to `τ(H)` and an arbitrary database `D̃` of bitstrings over the
//! schema of `Q̃`, the backward reduction builds a database `D` of intervals
//! over the schema of `Q` with `|D| = |D̃|` such that `Q(D)` holds iff
//! `Q̃(D̃)` holds.  Combined with the forward reduction this shows the
//! reduction is *tight*: the IJ query is exactly as hard as the hardest EJ
//! query of the disjunction (Theorem 5.2).
//!
//! Each tuple of a reduced relation holds, for every original interval
//! variable of level `ℓ`, the bitstrings `X#1 … X#ℓ`; the backward reduction
//! concatenates them and maps the result through the dyadic embedding `F`
//! (Example 5.1): prefix-related bitstrings map to nested intervals,
//! unrelated bitstrings to disjoint ones.

use crate::forward::ReducedQuery;
use ij_hypergraph::VarKind;
use ij_relation::{Database, Query, Relation, Value};
use ij_segtree::{BitString, DyadicEmbedding};

/// Errors raised by the backward reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackwardError {
    /// The original query has a self-join, which Theorem 5.2 excludes.
    SelfJoin,
    /// A relation of the reduced query is missing from the EJ database.
    MissingRelation(String),
    /// A column that should hold a bitstring holds something else.
    NotABitString { relation: String, column: usize },
    /// The concatenated bitstrings are too long for the dyadic embedding.
    BitstringTooLong { relation: String, length: usize },
}

impl std::fmt::Display for BackwardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackwardError::SelfJoin => {
                write!(f, "the backward reduction requires a self-join-free query")
            }
            BackwardError::MissingRelation(r) => {
                write!(f, "relation `{r}` missing from the EJ database")
            }
            BackwardError::NotABitString { relation, column } => {
                write!(
                    f,
                    "relation `{relation}` column {column} does not hold a bitstring"
                )
            }
            BackwardError::BitstringTooLong { relation, length } => {
                write!(f, "concatenated bitstring of length {length} in `{relation}` exceeds the embedding depth")
            }
        }
    }
}

impl std::error::Error for BackwardError {}

/// Maps an EJ database over the schema of `reduced` (one of the queries
/// produced by [`crate::forward_reduction`] on `original`) back to an interval
/// database over the schema of `original`.
///
/// `ej_db` must contain one relation per reduced atom, named like the reduced
/// atom's relation, with bitstring values in the reduction-introduced columns
/// and arbitrary values in carried columns.
pub fn backward_reduction(
    original: &Query,
    reduced: &ReducedQuery,
    ej_db: &Database,
) -> Result<Database, BackwardError> {
    if !original.is_self_join_free() {
        return Err(BackwardError::SelfJoin);
    }

    // Determine the dyadic embedding depth: the longest concatenated
    // bitstring any tuple produces for any interval variable.
    let mut max_len: usize = 1;
    for (atom_idx, atom) in reduced.atoms.iter().enumerate() {
        let rel = ej_db
            .relation(&atom.relation)
            .ok_or_else(|| BackwardError::MissingRelation(atom.relation.clone()))?;
        let groups = column_groups_for_atom(original, &original.atoms()[atom_idx], atom);
        for t in rel.tuples() {
            for (cols, kind) in &groups {
                if *kind != VarKind::Interval {
                    continue;
                }
                let mut len = 0usize;
                for &c in cols {
                    let b = t[c].as_bits().ok_or(BackwardError::NotABitString {
                        relation: atom.relation.clone(),
                        column: c,
                    })?;
                    len += b.len() as usize;
                }
                max_len = max_len.max(len);
            }
        }
    }
    if max_len > ij_segtree::DYADIC_MAX_DEPTH as usize {
        return Err(BackwardError::BitstringTooLong {
            relation: "<any>".to_string(),
            length: max_len,
        });
    }
    let embedding = DyadicEmbedding::new(max_len as u8);

    let mut out = Database::new();
    for (atom_idx, reduced_atom) in reduced.atoms.iter().enumerate() {
        let original_atom = &original.atoms()[atom_idx];
        let rel = ej_db
            .relation(&reduced_atom.relation)
            .ok_or_else(|| BackwardError::MissingRelation(reduced_atom.relation.clone()))?;
        let groups = column_groups_for_atom(original, original_atom, reduced_atom);
        let mut new_rel = Relation::new(
            original_atom.relation.clone(),
            original_atom.vars.len(),
            out.dictionary(),
        );
        for t in rel.tuples() {
            let mut row: Vec<Value> = Vec::with_capacity(original_atom.vars.len());
            for (cols, kind) in &groups {
                match kind {
                    VarKind::Interval => {
                        let parts: Result<Vec<BitString>, BackwardError> = cols
                            .iter()
                            .map(|&c| {
                                t[c].as_bits().ok_or(BackwardError::NotABitString {
                                    relation: reduced_atom.relation.clone(),
                                    column: c,
                                })
                            })
                            .collect();
                        let concat = BitString::concat_all(parts?);
                        row.push(Value::Interval(embedding.interval(concat)));
                    }
                    VarKind::Point => {
                        // Carried point variable: exactly one column.
                        row.push(t[cols[0]]);
                    }
                }
            }
            new_rel.push(row);
        }
        out.insert(new_rel);
    }
    Ok(out)
}

/// For each column of the original atom (in order): the reduced-atom columns
/// realising it and the variable kind.
fn column_groups_for_atom(
    original: &Query,
    original_atom: &ij_relation::Atom,
    reduced_atom: &crate::forward::ReducedAtom,
) -> Vec<(Vec<usize>, VarKind)> {
    let mut groups = Vec::with_capacity(original_atom.vars.len());
    let mut cursor = 0usize;
    for v in &original_atom.vars {
        match original.var_kind(v) {
            Some(VarKind::Interval) => {
                // The reduced columns for `v` are the consecutive run of
                // columns named `v#1`, `v#2`, ...
                let mut cols = Vec::new();
                while cursor < reduced_atom.vars.len()
                    && reduced_atom.vars[cursor].starts_with(&format!("{v}#"))
                {
                    cols.push(cursor);
                    cursor += 1;
                }
                groups.push((cols, VarKind::Interval));
            }
            _ => {
                groups.push((vec![cursor], VarKind::Point));
                cursor += 1;
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::forward_reduction;
    use ij_relation::Value;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    fn bits(s: &str) -> Value {
        Value::Bits(BitString::parse(s).unwrap())
    }

    /// Builds the triangle reduction structure (we only need the query
    /// shapes, so any small interval database will do).
    fn triangle_reduction() -> (Query, crate::forward::ForwardReduction) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        db.insert_tuples("S", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        db.insert_tuples("T", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        let fr = forward_reduction(&q, &db).unwrap();
        (q, fr)
    }

    #[test]
    fn backward_reduction_preserves_size_and_schema() {
        let (q, fr) = triangle_reduction();
        let reduced = &fr.queries[0];
        // Build an arbitrary EJ database over the reduced schema with
        // fixed-length (2-bit) values.
        let mut ej_db = Database::new();
        for atom in &reduced.atoms {
            let arity = atom.vars.len();
            let mut rel = Relation::new(atom.relation.clone(), arity, ej_db.dictionary());
            rel.push(
                (0..arity)
                    .map(|i| bits(if i % 2 == 0 { "01" } else { "10" }))
                    .collect(),
            );
            rel.push((0..arity).map(|_| bits("11")).collect());
            ej_db.insert(rel);
        }
        let d2 = backward_reduction(&q, reduced, &ej_db).unwrap();
        assert_eq!(d2.num_relations(), 3);
        assert_eq!(d2.total_tuples(), ej_db.total_tuples());
        for atom in q.atoms() {
            let rel = d2.relation(&atom.relation).unwrap();
            assert_eq!(rel.arity(), atom.vars.len());
            for t in rel.tuples() {
                for v in t {
                    assert!(v.as_interval().is_some());
                }
            }
        }
    }

    #[test]
    fn prefix_relations_become_containment() {
        // Example 5.1: values that are prefixes of one another map to nested
        // intervals; unrelated values map to disjoint intervals.
        let (q, fr) = triangle_reduction();
        let reduced = &fr.queries[0];
        let mut ej_db = Database::new();
        for atom in &reduced.atoms {
            let arity = atom.vars.len();
            let mut rel = Relation::new(atom.relation.clone(), arity, ej_db.dictionary());
            rel.push((0..arity).map(|_| bits("0")).collect());
            rel.push((0..arity).map(|_| bits("1")).collect());
            ej_db.insert(rel);
        }
        let d2 = backward_reduction(&q, reduced, &ej_db).unwrap();
        for atom in q.atoms() {
            let rel = d2.relation(&atom.relation).unwrap();
            // Within one relation, tuples built from "0..." and "1..." yield
            // disjoint intervals in each column.
            let a = rel.tuples()[0][0].as_interval().unwrap();
            let b = rel.tuples()[1][0].as_interval().unwrap();
            assert!(!a.intersects(b));
        }
    }

    #[test]
    fn self_joins_are_rejected() {
        let q = Query::parse("R([A],[B]) & R([B],[C])").unwrap();
        let (q_tri, fr) = triangle_reduction();
        let _ = q_tri;
        assert_eq!(
            backward_reduction(&q, &fr.queries[0], &Database::new()),
            Err(BackwardError::SelfJoin)
        );
    }

    #[test]
    fn missing_relation_is_reported() {
        let (q, fr) = triangle_reduction();
        let err = backward_reduction(&q, &fr.queries[0], &Database::new());
        assert!(matches!(err, Err(BackwardError::MissingRelation(_))));
    }

    #[test]
    fn non_bitstring_values_are_reported() {
        let (q, fr) = triangle_reduction();
        let reduced = &fr.queries[0];
        let mut ej_db = Database::new();
        for atom in &reduced.atoms {
            let arity = atom.vars.len();
            let mut rel = Relation::new(atom.relation.clone(), arity, ej_db.dictionary());
            rel.push((0..arity).map(|_| Value::point(1.0)).collect());
            ej_db.insert(rel);
        }
        assert!(matches!(
            backward_reduction(&q, reduced, &ej_db),
            Err(BackwardError::NotABitString { .. })
        ));
    }
}
