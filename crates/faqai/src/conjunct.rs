//! The inequality-join reformulation of an intersection-join query
//! (Appendix F.1, equations (15)–(17)).
//!
//! An intersection predicate over the intervals `{x_1, …, x_k}` holds exactly
//! when some `x_i` has the maximum left endpoint and that left endpoint lies
//! inside every other interval:
//!
//! ```text
//! ⋂_i x_i ≠ ∅   ≡   ⋁_i ⋀_{j≠i}  x_j.l ≤ x_i.l ≤ x_j.r
//! ```
//!
//! Lifting this to a Boolean IJ query replaces every interval variable `[X]`
//! by the scalar endpoint variables `X.l(R)` / `X.r(R)` of each atom `R`
//! containing `[X]`, and turns the query into a disjunction of conjuncts: one
//! conjunct per *choice function* that picks, for every interval variable,
//! the atom whose left endpoint is largest.  Each conjunct is a Functional
//! Aggregate Query with Additive Inequalities (FAQ-AI) \[2\]; this module
//! materialises exactly those conjuncts so that the relaxed-width analysis
//! (module [`crate::relaxed`]) and the inequality-join evaluator (module
//! [`crate::evaluate`]) can reproduce the paper's comparator column of
//! Table 1.

use ij_hypergraph::VarKind;
use ij_relation::Query;
use std::fmt;

/// Which endpoint of an interval a scalar variable denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// The left endpoint `X.l(R)`.
    Left,
    /// The right endpoint `X.r(R)`.
    Right,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Left => write!(f, "l"),
            Endpoint::Right => write!(f, "r"),
        }
    }
}

/// A scalar endpoint variable `X.l(R)` or `X.r(R)`: the left or right
/// endpoint of the `[X]`-interval carried by the atom at index `atom`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarVar {
    /// The interval variable name (`X`).
    pub var: String,
    /// Index of the atom (in [`Query::atoms`] order) whose `[X]`-column the
    /// scalar refers to.
    pub atom: usize,
    /// Left or right endpoint.
    pub end: Endpoint,
}

impl fmt::Display for ScalarVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}(#{})", self.var, self.end, self.atom)
    }
}

/// One additive inequality `lhs ≤ rhs` between two scalar endpoint variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inequality {
    /// The smaller side.
    pub lhs: ScalarVar,
    /// The larger side.
    pub rhs: ScalarVar,
}

impl Inequality {
    /// The two atoms the inequality connects (its "relaxed hyperedge").
    pub fn atoms(&self) -> (usize, usize) {
        (self.lhs.atom, self.rhs.atom)
    }

    /// True if both endpoints live in the same atom (the inequality is then a
    /// per-tuple filter rather than a join condition).
    pub fn is_intra_atom(&self) -> bool {
        self.lhs.atom == self.rhs.atom
    }
}

impl fmt::Display for Inequality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ≤ {}", self.lhs, self.rhs)
    }
}

/// One conjunct of the FAQ-AI disjunction: the original atoms (now carrying
/// scalar endpoint columns) plus the additive inequalities induced by one
/// choice function.
#[derive(Debug, Clone)]
pub struct FaqAiConjunct {
    /// For every interval variable (in [`Query::interval_variables`] order):
    /// the atom index chosen as the "maximum left endpoint" witness `V_X`.
    pub choice: Vec<(String, usize)>,
    /// The additive inequalities of the conjunct.
    pub inequalities: Vec<Inequality>,
    /// Number of atoms of the underlying query.
    pub num_atoms: usize,
}

impl FaqAiConjunct {
    /// The inequalities that connect two *different* atoms — the relaxed
    /// hyperedges that constrain the relaxed tree decompositions of
    /// Appendix F.
    pub fn cross_atom_inequalities(&self) -> Vec<&Inequality> {
        self.inequalities
            .iter()
            .filter(|i| !i.is_intra_atom())
            .collect()
    }
}

impl fmt::Display for FaqAiConjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let choices: Vec<String> = self
            .choice
            .iter()
            .map(|(v, a)| format!("V_{v}=#{a}"))
            .collect();
        let ineqs: Vec<String> = self.inequalities.iter().map(|i| i.to_string()).collect();
        write!(f, "[{}] {}", choices.join(", "), ineqs.join(" ∧ "))
    }
}

/// Errors raised when building the FAQ-AI reformulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaqAiError {
    /// The query contains point variables; the comparator only covers pure IJ
    /// queries (the paper's Appendix F instances are all pure IJ).
    NotAnIjQuery,
    /// An interval variable repeats within one atom.
    RepeatedIntervalVariable {
        /// The atom's relation name.
        relation: String,
        /// The repeated interval variable.
        variable: String,
    },
    /// A relation referenced by the query is missing from the database.
    MissingRelation(String),
    /// A value bound to an interval variable is not an interval.
    NotAnInterval {
        /// The atom's relation name.
        relation: String,
        /// The offending column index.
        column: usize,
    },
}

impl fmt::Display for FaqAiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaqAiError::NotAnIjQuery => {
                write!(
                    f,
                    "the FAQ-AI comparator only supports pure intersection-join queries"
                )
            }
            FaqAiError::RepeatedIntervalVariable { relation, variable } => {
                write!(
                    f,
                    "interval variable `{variable}` repeated in atom `{relation}`"
                )
            }
            FaqAiError::MissingRelation(r) => write!(f, "relation `{r}` missing from database"),
            FaqAiError::NotAnInterval { relation, column } => {
                write!(
                    f,
                    "relation `{relation}` column {column} holds a non-interval value"
                )
            }
        }
    }
}

impl std::error::Error for FaqAiError {}

/// The atoms containing each interval variable, in query order: the map
/// `F(X)` of Appendix F.1.
pub fn containing_atoms(q: &Query) -> Vec<(String, Vec<usize>)> {
    q.interval_variables()
        .into_iter()
        .map(|v| {
            let atoms: Vec<usize> = q
                .atoms()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.vars.contains(&v))
                .map(|(i, _)| i)
                .collect();
            (v, atoms)
        })
        .collect()
}

/// Validates that `q` is a pure IJ query without repeated interval variables
/// inside an atom.
fn validate_ij_query(q: &Query) -> Result<(), FaqAiError> {
    if !q.is_ij() {
        return Err(FaqAiError::NotAnIjQuery);
    }
    for atom in q.atoms() {
        for (i, v) in atom.vars.iter().enumerate() {
            if q.var_kind(v) == Some(VarKind::Interval) && atom.vars[..i].contains(v) {
                return Err(FaqAiError::RepeatedIntervalVariable {
                    relation: atom.relation.clone(),
                    variable: v.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Builds the FAQ-AI disjunction of a pure IJ query: one conjunct per choice
/// function `(V_X)_X ∈ ∏_X F(X)` (equation (17) of Appendix F.1 and its
/// analogues (24) and (37)).
pub fn faqai_disjunction(q: &Query) -> Result<Vec<FaqAiConjunct>, FaqAiError> {
    validate_ij_query(q)?;
    let f = containing_atoms(q);
    // Enumerate the product of the choice sets.
    let mut choices: Vec<Vec<usize>> = vec![Vec::new()];
    for (_, atoms) in &f {
        let mut next = Vec::with_capacity(choices.len() * atoms.len());
        for prefix in &choices {
            for &a in atoms {
                let mut c = prefix.clone();
                c.push(a);
                next.push(c);
            }
        }
        choices = next;
    }

    let mut conjuncts = Vec::with_capacity(choices.len());
    for choice in choices {
        let mut inequalities = Vec::new();
        for ((var, atoms), &chosen) in f.iter().zip(&choice) {
            for &other in atoms {
                if other == chosen {
                    continue;
                }
                // X.l(other) ≤ X.l(chosen) ≤ X.r(other)
                inequalities.push(Inequality {
                    lhs: ScalarVar {
                        var: var.clone(),
                        atom: other,
                        end: Endpoint::Left,
                    },
                    rhs: ScalarVar {
                        var: var.clone(),
                        atom: chosen,
                        end: Endpoint::Left,
                    },
                });
                inequalities.push(Inequality {
                    lhs: ScalarVar {
                        var: var.clone(),
                        atom: chosen,
                        end: Endpoint::Left,
                    },
                    rhs: ScalarVar {
                        var: var.clone(),
                        atom: other,
                        end: Endpoint::Right,
                    },
                });
            }
        }
        conjuncts.push(FaqAiConjunct {
            choice: f
                .iter()
                .map(|(v, _)| v.clone())
                .zip(choice.iter().copied())
                .collect(),
            inequalities,
            num_atoms: q.atoms().len(),
        });
    }
    Ok(conjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Query {
        Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap()
    }

    fn four_clique() -> Query {
        Query::parse("R([A],[B]) & S([A],[C]) & T([A],[D]) & U([B],[C]) & V([B],[D]) & W([C],[D])")
            .unwrap()
    }

    fn lw4() -> Query {
        Query::parse("R([A],[B],[C]) & S([B],[C],[D]) & T([C],[D],[A]) & U([D],[A],[B])").unwrap()
    }

    #[test]
    fn triangle_has_eight_conjuncts_with_six_inequalities_each() {
        let conjuncts = faqai_disjunction(&triangle()).unwrap();
        // |F(A)| · |F(B)| · |F(C)| = 2 · 2 · 2.
        assert_eq!(conjuncts.len(), 8);
        for c in &conjuncts {
            // 3 variables × 1 non-chosen atom × 2 inequalities.
            assert_eq!(c.inequalities.len(), 6);
            // Every inequality connects two different atoms for the triangle
            // (each variable occurs in exactly two atoms).
            assert!(c.cross_atom_inequalities().len() == 6);
            assert_eq!(c.num_atoms, 3);
            // Every pair of atoms is connected by some inequality.
            let pairs: std::collections::BTreeSet<(usize, usize)> = c
                .cross_atom_inequalities()
                .iter()
                .map(|i| {
                    let (a, b) = i.atoms();
                    (a.min(b), a.max(b))
                })
                .collect();
            assert_eq!(
                pairs.into_iter().collect::<Vec<_>>(),
                [(0, 1), (0, 2), (1, 2)]
            );
        }
    }

    #[test]
    fn lw4_has_81_conjuncts_with_sixteen_inequalities_each() {
        let conjuncts = faqai_disjunction(&lw4()).unwrap();
        assert_eq!(conjuncts.len(), 81);
        for c in &conjuncts {
            // 4 variables × 2 non-chosen atoms × 2 inequalities.
            assert_eq!(c.inequalities.len(), 16);
        }
    }

    #[test]
    fn four_clique_has_81_conjuncts_with_sixteen_inequalities_each() {
        let conjuncts = faqai_disjunction(&four_clique()).unwrap();
        // Every variable occurs in three atoms: 3^4 choice functions.
        assert_eq!(conjuncts.len(), 81);
        for c in &conjuncts {
            assert_eq!(c.inequalities.len(), 16);
            assert_eq!(c.num_atoms, 6);
        }
    }

    #[test]
    fn containing_atoms_follows_appendix_f() {
        // F(A) = {R, T}, F(B) = {R, S}, F(C) = {S, T} for the triangle, using
        // atom indices 0, 1, 2.
        let f = containing_atoms(&triangle());
        assert_eq!(
            f,
            vec![
                ("A".to_string(), vec![0, 2]),
                ("B".to_string(), vec![0, 1]),
                ("C".to_string(), vec![1, 2]),
            ]
        );
    }

    #[test]
    fn point_variables_are_rejected() {
        let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
        assert!(matches!(
            faqai_disjunction(&q),
            Err(FaqAiError::NotAnIjQuery)
        ));
    }

    #[test]
    fn repeated_interval_variables_are_rejected() {
        let q = Query::parse("R([A],[A]) & S([A])").unwrap();
        assert!(matches!(
            faqai_disjunction(&q),
            Err(FaqAiError::RepeatedIntervalVariable { .. })
        ));
    }

    #[test]
    fn conjunct_rendering_mentions_the_choice() {
        let conjuncts = faqai_disjunction(&triangle()).unwrap();
        let text = conjuncts[0].to_string();
        assert!(text.contains("V_A="));
        assert!(text.contains('≤'));
    }
}
