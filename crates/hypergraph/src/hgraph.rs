//! Labelled multi-hypergraphs with point and interval vertices.

use std::collections::BTreeSet;
use std::fmt;

/// Index of a vertex (query variable) within a [`Hypergraph`].
pub type VarId = usize;

/// Index of a hyperedge (relation atom) within a [`Hypergraph`].
pub type EdgeId = usize;

/// Whether a variable is a point variable (equality joins) or an interval
/// variable (intersection joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarKind {
    /// A point variable `X`: all occurrences must carry the same value.
    Point,
    /// An interval variable `[X]`: the intervals of all occurrences must have
    /// a non-empty intersection.
    Interval,
}

/// A query variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Vertex {
    /// Human-readable name, e.g. `"A"` or `"A#1"` for reduction-introduced
    /// point variables.
    pub name: String,
    /// Point or interval variable.
    pub kind: VarKind,
}

/// A hyperedge: a relation atom with a label and a set of variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hyperedge {
    /// Relation name, e.g. `"R"`.
    pub label: String,
    /// The variables of the atom (kept sorted, duplicates removed).
    pub vertices: BTreeSet<VarId>,
}

/// A labelled multi-hypergraph `H = (V, E)` (Definition A.1).
///
/// Several hyperedges may share the same vertex set; they are distinguished
/// by their position and label (the paper labels hyperedges for the same
/// reason).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hypergraph {
    vertices: Vec<Vertex>,
    edges: Vec<Hyperedge>,
}

impl Hypergraph {
    /// Creates an empty hypergraph.
    pub fn new() -> Self {
        Hypergraph::default()
    }

    /// Adds a vertex and returns its identifier.  Names need not be unique,
    /// but the convenience constructors in the catalog module keep them so.
    pub fn add_vertex(&mut self, name: impl Into<String>, kind: VarKind) -> VarId {
        self.vertices.push(Vertex {
            name: name.into(),
            kind,
        });
        self.vertices.len() - 1
    }

    /// Adds a point variable.
    pub fn add_point_var(&mut self, name: impl Into<String>) -> VarId {
        self.add_vertex(name, VarKind::Point)
    }

    /// Adds an interval variable.
    pub fn add_interval_var(&mut self, name: impl Into<String>) -> VarId {
        self.add_vertex(name, VarKind::Interval)
    }

    /// Adds a hyperedge over the given vertices and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if any vertex identifier is out of range.
    pub fn add_edge(
        &mut self,
        label: impl Into<String>,
        vertices: impl IntoIterator<Item = VarId>,
    ) -> EdgeId {
        let vertices: BTreeSet<VarId> = vertices.into_iter().collect();
        for &v in &vertices {
            assert!(v < self.vertices.len(), "unknown vertex {v}");
        }
        self.edges.push(Hyperedge {
            label: label.into(),
            vertices,
        });
        self.edges.len() - 1
    }

    /// Finds a vertex by name.
    pub fn vertex_by_name(&self, name: &str) -> Option<VarId> {
        self.vertices.iter().position(|v| v.name == name)
    }

    /// Finds an edge by label (the first match).
    pub fn edge_by_label(&self, label: &str) -> Option<EdgeId> {
        self.edges.iter().position(|e| e.label == label)
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[Hyperedge] {
        &self.edges
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of hyperedges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The vertex data for `v`.
    pub fn vertex(&self, v: VarId) -> &Vertex {
        &self.vertices[v]
    }

    /// The edge data for `e`.
    pub fn edge(&self, e: EdgeId) -> &Hyperedge {
        &self.edges[e]
    }

    /// Identifiers of the hyperedges containing vertex `v` (the set `E_v`).
    pub fn edges_containing(&self, v: VarId) -> Vec<EdgeId> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.vertices.contains(&v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of hyperedges containing `v`.
    pub fn degree(&self, v: VarId) -> usize {
        self.edges
            .iter()
            .filter(|e| e.vertices.contains(&v))
            .count()
    }

    /// All interval variables.
    pub fn interval_vars(&self) -> Vec<VarId> {
        (0..self.vertices.len())
            .filter(|&v| self.vertices[v].kind == VarKind::Interval)
            .collect()
    }

    /// All point variables.
    pub fn point_vars(&self) -> Vec<VarId> {
        (0..self.vertices.len())
            .filter(|&v| self.vertices[v].kind == VarKind::Point)
            .collect()
    }

    /// Interval variables appearing in at least one hyperedge: the variables
    /// the forward reduction has to resolve (Algorithm 1 iterates over every
    /// interval join variable of the query).
    pub fn join_interval_vars(&self) -> Vec<VarId> {
        self.interval_vars()
            .into_iter()
            .filter(|&v| self.degree(v) >= 1)
            .collect()
    }

    /// True if every vertex is a point variable (an EJ query hypergraph).
    pub fn is_ej(&self) -> bool {
        self.vertices.iter().all(|v| v.kind == VarKind::Point)
    }

    /// True if every vertex is an interval variable (an IJ query hypergraph).
    pub fn is_ij(&self) -> bool {
        self.vertices.iter().all(|v| v.kind == VarKind::Interval)
    }

    /// Returns a copy of the hypergraph with all vertices occurring in at
    /// most one hyperedge removed (and any hyperedge that becomes empty
    /// dropped).  Dropping singleton variables does not change fractional
    /// hypertree or submodular widths and is used by the paper to reduce the
    /// number of distinct reduced queries (Appendix E.4, F.2, F.3).
    pub fn drop_singleton_vertices(&self) -> Hypergraph {
        let keep: Vec<bool> = (0..self.vertices.len())
            .map(|v| self.degree(v) >= 2)
            .collect();
        self.restrict_to(&keep)
    }

    /// Returns a copy restricted to the vertices with `keep[v] == true`,
    /// remapping vertex identifiers densely.  Hyperedges that become empty
    /// are dropped.
    fn restrict_to(&self, keep: &[bool]) -> Hypergraph {
        assert_eq!(keep.len(), self.vertices.len());
        let mut mapping: Vec<Option<VarId>> = vec![None; self.vertices.len()];
        let mut out = Hypergraph::new();
        for (v, vertex) in self.vertices.iter().enumerate() {
            if keep[v] {
                mapping[v] = Some(out.add_vertex(vertex.name.clone(), vertex.kind));
            }
        }
        for edge in &self.edges {
            let vs: Vec<VarId> = edge.vertices.iter().filter_map(|&v| mapping[v]).collect();
            if !vs.is_empty() {
                out.add_edge(edge.label.clone(), vs);
            }
        }
        out
    }

    /// The primal (Gaifman) graph: an undirected graph on the vertices with
    /// an edge whenever two vertices co-occur in a hyperedge.  Returned as an
    /// adjacency matrix.
    pub fn primal_graph(&self) -> Vec<Vec<bool>> {
        let n = self.vertices.len();
        let mut adj = vec![vec![false; n]; n];
        for e in &self.edges {
            let vs: Vec<VarId> = e.vertices.iter().copied().collect();
            for i in 0..vs.len() {
                for j in i + 1..vs.len() {
                    adj[vs[i]][vs[j]] = true;
                    adj[vs[j]][vs[i]] = true;
                }
            }
        }
        adj
    }

    /// Multiset of hyperedge vertex sets (used by tests and invariants).
    pub fn edge_vertex_sets(&self) -> Vec<BTreeSet<VarId>> {
        self.edges.iter().map(|e| e.vertices.clone()).collect()
    }

    /// A compact textual rendering such as `R(A,B) ∧ S(B,C)`.
    pub fn render(&self) -> String {
        let atoms: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                let vars: Vec<String> = e
                    .vertices
                    .iter()
                    .map(|&v| {
                        let vx = &self.vertices[v];
                        match vx.kind {
                            VarKind::Point => vx.name.clone(),
                            VarKind::Interval => format!("[{}]", vx.name),
                        }
                    })
                    .collect();
                format!("{}({})", e.label, vars.join(","))
            })
            .collect();
        atoms.join(" ∧ ")
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Convenience constructor for an IJ hypergraph from `(label, vars)` atoms
/// where variables are identified by name and every variable is an interval
/// variable.
pub(crate) fn ij_from_atoms(atoms: &[(&str, &[&str])]) -> Hypergraph {
    from_atoms(atoms, VarKind::Interval)
}

/// Convenience constructor for an EJ hypergraph from `(label, vars)` atoms.
pub(crate) fn ej_from_atoms(atoms: &[(&str, &[&str])]) -> Hypergraph {
    from_atoms(atoms, VarKind::Point)
}

fn from_atoms(atoms: &[(&str, &[&str])], kind: VarKind) -> Hypergraph {
    let mut h = Hypergraph::new();
    for (label, vars) in atoms {
        let ids: Vec<VarId> = vars
            .iter()
            .map(|name| {
                h.vertex_by_name(name)
                    .unwrap_or_else(|| h.add_vertex(*name, kind))
            })
            .collect();
        h.add_edge(*label, ids);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        ij_from_atoms(&[("R", &["A", "B"]), ("S", &["B", "C"]), ("T", &["A", "C"])])
    }

    #[test]
    fn construction_and_lookup() {
        let h = triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        let a = h.vertex_by_name("A").unwrap();
        assert_eq!(h.degree(a), 2);
        assert_eq!(h.edges_containing(a).len(), 2);
        assert_eq!(h.edge_by_label("S"), Some(1));
        assert!(h.is_ij());
        assert!(!h.is_ej());
        assert_eq!(h.render(), "R([A],[B]) ∧ S([B],[C]) ∧ T([A],[C])");
    }

    #[test]
    fn duplicate_vertices_in_an_atom_collapse() {
        let mut h = Hypergraph::new();
        let a = h.add_point_var("A");
        let e = h.add_edge("R", vec![a, a]);
        assert_eq!(h.edge(e).vertices.len(), 1);
    }

    #[test]
    fn dropping_singleton_vertices() {
        // Example 4.8 / Figure 9d: T([A]) makes nothing a singleton for A,
        // but B and C each occur in two edges.
        let h = ij_from_atoms(&[
            ("R", &["A", "B", "C"]),
            ("S", &["A", "B", "C"]),
            ("T", &["A"]),
        ]);
        assert_eq!(h.drop_singleton_vertices().num_vertices(), 3);

        let mut g = Hypergraph::new();
        let a = g.add_point_var("A");
        let b = g.add_point_var("B");
        let c = g.add_point_var("C");
        g.add_edge("R", vec![a, b]);
        g.add_edge("S", vec![b, c]);
        let reduced = g.drop_singleton_vertices();
        assert_eq!(reduced.num_vertices(), 1);
        assert_eq!(reduced.num_edges(), 2);
        assert_eq!(reduced.vertex(0).name, "B");
    }

    #[test]
    fn restriction_drops_empty_edges() {
        let mut g = Hypergraph::new();
        let a = g.add_point_var("A");
        let b = g.add_point_var("B");
        g.add_edge("R", vec![a]);
        g.add_edge("S", vec![a, b]);
        let restricted = g.restrict_to(&[false, true]);
        assert_eq!(restricted.num_edges(), 1);
        assert_eq!(restricted.edge(0).label, "S");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn primal_graph_of_triangle_is_complete() {
        let h = triangle();
        let adj = h.primal_graph();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(adj[i][j], i != j);
            }
        }
    }

    #[test]
    fn multi_hyperedges_are_preserved() {
        let h = ij_from_atoms(&[("R", &["A", "B", "C"]), ("S", &["A", "B", "C"])]);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge(0).vertices, h.edge(1).vertices);
    }

    #[test]
    fn interval_and_point_vars_are_tracked() {
        let mut h = Hypergraph::new();
        let a = h.add_interval_var("A");
        let x = h.add_point_var("X");
        h.add_edge("R", vec![a, x]);
        assert_eq!(h.interval_vars(), vec![a]);
        assert_eq!(h.point_vars(), vec![x]);
        assert!(!h.is_ej());
        assert!(!h.is_ij());
    }
}
