//! The Boolean conjunctive query AST.
//!
//! A query is a conjunction of atoms `R(args)` where every argument is a
//! variable: point variables (`X`) are joined with equality, interval
//! variables (`[X]`) with intersection (Definition 3.3).  Queries mixing both
//! are EIJ queries; a variable that appears both bracketed and unbracketed is
//! treated as an interval variable ranging over both intervals and points
//! (the *membership join* of Section 7 — point values are treated as point
//! intervals).

use ij_hypergraph::{Hypergraph, VarId, VarKind};
use std::collections::BTreeMap;
use std::fmt;

/// One atom of a query: a relation name and its argument variables in column
/// order (repetitions allowed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation name.
    pub relation: String,
    /// Argument variable names, in column order.
    pub vars: Vec<String>,
}

/// A Boolean conjunctive query with equality and/or intersection joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    atoms: Vec<Atom>,
    kinds: BTreeMap<String, VarKind>,
}

/// Error raised by [`Query::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError(pub String);

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for QueryParseError {}

impl Query {
    /// Builds a query from atoms, marking the variables listed in
    /// `interval_vars` as interval variables and all others as point
    /// variables.
    pub fn from_atoms(atoms: Vec<Atom>, interval_vars: &[&str]) -> Self {
        let mut kinds = BTreeMap::new();
        for atom in &atoms {
            for v in &atom.vars {
                let kind = if interval_vars.contains(&v.as_str()) {
                    VarKind::Interval
                } else {
                    VarKind::Point
                };
                kinds.insert(v.clone(), kind);
            }
        }
        Query { atoms, kinds }
    }

    /// Parses a query such as `R([A],[B]) & S([B],C) & T(C)`.
    ///
    /// Atoms are separated by `&` or `∧`; bracketed arguments are interval
    /// variables.  A variable bracketed in at least one occurrence is an
    /// interval variable everywhere (membership-join semantics).
    pub fn parse(text: &str) -> Result<Self, QueryParseError> {
        let mut atoms = Vec::new();
        let mut kinds: BTreeMap<String, VarKind> = BTreeMap::new();
        let cleaned = text.replace('∧', "&");
        for raw_atom in cleaned.split('&') {
            let raw_atom = raw_atom.trim();
            if raw_atom.is_empty() {
                continue;
            }
            let open = raw_atom
                .find('(')
                .ok_or_else(|| QueryParseError(format!("missing '(' in atom `{raw_atom}`")))?;
            if !raw_atom.ends_with(')') {
                return Err(QueryParseError(format!("missing ')' in atom `{raw_atom}`")));
            }
            let relation = raw_atom[..open].trim().to_string();
            if relation.is_empty() {
                return Err(QueryParseError(format!(
                    "missing relation name in `{raw_atom}`"
                )));
            }
            let args = &raw_atom[open + 1..raw_atom.len() - 1];
            let mut vars = Vec::new();
            for arg in args.split(',') {
                let arg = arg.trim();
                if arg.is_empty() {
                    return Err(QueryParseError(format!(
                        "empty argument in atom `{raw_atom}`"
                    )));
                }
                let (name, kind) = if arg.starts_with('[') && arg.ends_with(']') {
                    (arg[1..arg.len() - 1].trim().to_string(), VarKind::Interval)
                } else {
                    (arg.to_string(), VarKind::Point)
                };
                if name.is_empty() || name.contains(['(', ')', '[', ']']) {
                    return Err(QueryParseError(format!("invalid variable `{arg}`")));
                }
                // Interval wins over point (membership joins).
                let entry = kinds.entry(name.clone()).or_insert(kind);
                if kind == VarKind::Interval {
                    *entry = VarKind::Interval;
                }
                vars.push(name);
            }
            atoms.push(Atom { relation, vars });
        }
        if atoms.is_empty() {
            return Err(QueryParseError("query has no atoms".to_string()));
        }
        Ok(Query { atoms, kinds })
    }

    /// Builds a query from a hypergraph.  Each hyperedge becomes an atom
    /// whose columns are the edge's variables in vertex-id order (this is
    /// also the column convention of the workload generators).
    pub fn from_hypergraph(h: &Hypergraph) -> Self {
        let mut atoms = Vec::new();
        let mut kinds = BTreeMap::new();
        for edge in h.edges() {
            let vars: Vec<String> = edge
                .vertices
                .iter()
                .map(|&v| h.vertex(v).name.clone())
                .collect();
            for &v in &edge.vertices {
                kinds.insert(h.vertex(v).name.clone(), h.vertex(v).kind);
            }
            atoms.push(Atom {
                relation: edge.label.clone(),
                vars,
            });
        }
        Query { atoms, kinds }
    }

    /// The atoms of the query.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The kind (point or interval) of a variable.
    pub fn var_kind(&self, name: &str) -> Option<VarKind> {
        self.kinds.get(name).copied()
    }

    /// All variable names (sorted).
    pub fn variables(&self) -> Vec<String> {
        self.kinds.keys().cloned().collect()
    }

    /// The interval variables (sorted).
    pub fn interval_variables(&self) -> Vec<String> {
        self.kinds
            .iter()
            .filter(|(_, &k)| k == VarKind::Interval)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// True if the query is an IJ query (every variable is an interval
    /// variable).
    pub fn is_ij(&self) -> bool {
        self.kinds.values().all(|&k| k == VarKind::Interval)
    }

    /// True if the query is an EJ query (every variable is a point variable).
    pub fn is_ej(&self) -> bool {
        self.kinds.values().all(|&k| k == VarKind::Point)
    }

    /// True if no relation name occurs in more than one atom.
    pub fn is_self_join_free(&self) -> bool {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    }

    /// The hypergraph of the query (Definition 3.3) together with the
    /// mapping from variable names to hypergraph vertex identifiers.
    pub fn hypergraph(&self) -> (Hypergraph, BTreeMap<String, VarId>) {
        let mut h = Hypergraph::new();
        let mut ids: BTreeMap<String, VarId> = BTreeMap::new();
        for (name, &kind) in &self.kinds {
            ids.insert(name.clone(), h.add_vertex(name.clone(), kind));
        }
        for atom in &self.atoms {
            let vs: Vec<VarId> = atom.vars.iter().map(|v| ids[v]).collect();
            h.add_edge(atom.relation.clone(), vs);
        }
        (h, ids)
    }

    /// A textual rendering, e.g. `R([A],[B]) ∧ S([B],[C])`.
    pub fn render(&self) -> String {
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let args: Vec<String> = a
                    .vars
                    .iter()
                    .map(|v| match self.kinds[v] {
                        VarKind::Interval => format!("[{v}]"),
                        VarKind::Point => v.clone(),
                    })
                    .collect();
                format!("{}({})", a.relation, args.join(","))
            })
            .collect();
        atoms.join(" ∧ ")
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_hypergraph::{is_iota_acyclic, triangle_ij};

    #[test]
    fn parse_triangle_ij() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        assert_eq!(q.atoms().len(), 3);
        assert!(q.is_ij());
        assert!(!q.is_ej());
        assert!(q.is_self_join_free());
        assert_eq!(q.variables(), vec!["A", "B", "C"]);
        assert_eq!(q.render(), "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])");
    }

    #[test]
    fn parse_mixed_query_with_unicode_connector() {
        let q = Query::parse("R(X,[A]) ∧ S(X,[A])").unwrap();
        assert!(!q.is_ij());
        assert!(!q.is_ej());
        assert_eq!(q.var_kind("X"), Some(VarKind::Point));
        assert_eq!(q.var_kind("A"), Some(VarKind::Interval));
        assert_eq!(q.interval_variables(), vec!["A"]);
    }

    #[test]
    fn membership_join_promotes_to_interval() {
        // The same variable bracketed in one atom and bare in another.
        let q = Query::parse("R([A]) & S(A)").unwrap();
        assert_eq!(q.var_kind("A"), Some(VarKind::Interval));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Query::parse("").is_err());
        assert!(Query::parse("R[A]").is_err());
        assert!(Query::parse("R(A").is_err());
        assert!(Query::parse("(A)").is_err());
        assert!(Query::parse("R(A,)").is_err());
        assert!(Query::parse("R([A)]").is_err());
    }

    #[test]
    fn self_joins_are_detected() {
        let q = Query::parse("R([A],[B]) & R([B],[C])").unwrap();
        assert!(!q.is_self_join_free());
    }

    #[test]
    fn hypergraph_round_trip() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let (h, ids) = q.hypergraph();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert!(ids.contains_key("A"));
        assert!(!is_iota_acyclic(&h));
        // from_hypergraph reconstructs an equivalent query.
        let q2 = Query::from_hypergraph(&h);
        assert_eq!(q2.atoms().len(), 3);
        assert!(q2.is_ij());
        let (h2, _) = q2.hypergraph();
        assert_eq!(h2.num_vertices(), 3);
    }

    #[test]
    fn from_hypergraph_matches_catalog() {
        let q = Query::from_hypergraph(&triangle_ij());
        assert_eq!(q.render(), "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])");
    }

    #[test]
    fn repeated_variables_within_an_atom_are_kept_positionally() {
        let q = Query::parse("R(X,X,Y)").unwrap();
        assert_eq!(q.atoms()[0].vars, vec!["X", "X", "Y"]);
        let (h, _) = q.hypergraph();
        // The hypergraph collapses the repeated variable to a set.
        assert_eq!(h.edge(0).vertices.len(), 2);
    }

    /// Random text for the reject-never-panic property of [`Query::parse`]:
    /// every character the grammar gives a meaning to, whitespace, and
    /// letters, digits and punctuation it must take as names or reject, plus
    /// a few longer fragments so that a useful share of the draws is
    /// accepted and reaches the round-trip half.
    fn arb_query_text(max_len: usize) -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy as _;
        const ALPHABET: [&str; 29] = [
            "R", "S", "A", "(", ")", "[", "]", ",", "&", "∧", "#", "b", ":", "0", "1", ".", "-",
            "e", "N", "a", "n", "i", "f", " ", "\n", "..", "R(", "[A]", "S(A)",
        ];
        proptest::collection::vec(0..ALPHABET.len(), 0..=max_len)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// `Query::parse` returns `Ok` or `Err` on any text — never unwinds
        /// — and a query it accepts renders and re-parses to itself.
        #[test]
        fn parse_rejects_or_round_trips(text in arb_query_text(10)) {
            if let Ok(query) = Query::parse(&text) {
                let again = Query::parse(&query.render());
                proptest::prop_assert_eq!(again.as_ref(), Ok(&query), "{:?}", text);
            }
        }
    }

    #[test]
    fn from_atoms_builder() {
        let q = Query::from_atoms(
            vec![
                Atom {
                    relation: "R".into(),
                    vars: vec!["A".into(), "B".into()],
                },
                Atom {
                    relation: "S".into(),
                    vars: vec!["B".into(), "C".into()],
                },
            ],
            &["A", "B"],
        );
        assert_eq!(q.var_kind("A"), Some(VarKind::Interval));
        assert_eq!(q.var_kind("C"), Some(VarKind::Point));
    }
}
