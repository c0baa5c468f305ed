//! Relaxed tree decompositions and relaxed widths (Appendix F).
//!
//! In an FAQ-AI conjunct the scalar endpoint variables of different atoms are
//! pairwise disjoint, so a tree decomposition boils down to a partition of
//! the *atoms* into bags arranged in a tree.  The decomposition is *relaxed*
//! when every additive inequality has its two atoms either in the same bag or
//! in two adjacent bags \[2\].  Because the atoms of a bag share no variables,
//! the fractional edge cover number of the bag equals the number of atoms in
//! it, so
//!
//! ```text
//! fhtw_ℓ(conjunct) = min over relaxed decompositions of (max bag size)
//! ```
//!
//! and, for the modular polymatroid `h(S) = |S| / arity` the paper uses in
//! Appendix F, the same value lower-bounds `subw_ℓ`, hence
//! `subw_ℓ = fhtw_ℓ` for every conjunct analysed in the paper.
//!
//! FAQ-AI's runtime carries an extra `log^{max(k-1,1)} N` factor, where `k`
//! is the number of inequalities whose variables straddle two adjacent bags
//! of an optimal relaxed decomposition; the optimiser below therefore
//! minimises the pair `(width, crossing inequalities)` lexicographically.
//!
//! This module reproduces the analytic FAQ-AI column of Table 1 and the
//! partition table of Table 3 (the proof that the 4-clique conjunct admits no
//! relaxed decomposition with two relations per bag).

use crate::conjunct::{FaqAiConjunct, Inequality};

/// A relaxed tree decomposition of an FAQ-AI conjunct: a partition of the
/// atom indices into bags plus a tree over the bags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxedDecomposition {
    /// The bags: disjoint, covering sets of atom indices.
    pub bags: Vec<Vec<usize>>,
    /// Edges of the tree over bag indices (empty for a single bag).
    pub tree_edges: Vec<(usize, usize)>,
    /// The width: the maximum number of atoms in a bag.  Because atoms of an
    /// FAQ-AI conjunct share no variables this equals the maximum fractional
    /// edge cover number over the bags.
    pub width: usize,
    /// Number of inequalities whose two atoms lie in different bags.
    pub crossing_inequalities: usize,
}

impl RelaxedDecomposition {
    /// The `log` exponent FAQ-AI pays for this decomposition:
    /// `max(k − 1, 1)` where `k` is the number of crossing inequalities
    /// (Theorem 3.5 of \[2\], as used in Appendix F).
    pub fn log_exponent(&self) -> usize {
        self.crossing_inequalities.saturating_sub(1).max(1)
    }
}

/// The relaxed-width analysis of one conjunct.
#[derive(Debug, Clone)]
pub struct ConjunctAnalysis {
    /// The conjunct's choice function, copied from [`FaqAiConjunct::choice`].
    pub choice: Vec<(String, usize)>,
    /// An optimal relaxed decomposition (minimum width, then minimum number
    /// of crossing inequalities).
    pub decomposition: RelaxedDecomposition,
}

/// The relaxed-width analysis of a whole FAQ-AI disjunction: the paper's
/// "FAQ-AI approach" column of Table 1.
#[derive(Debug, Clone)]
pub struct FaqAiAnalysis {
    /// Per-conjunct analyses.
    pub conjuncts: Vec<ConjunctAnalysis>,
    /// The relaxed fractional hypertree width of the disjunction: the
    /// maximum width over the conjuncts (the disjunction is only as fast as
    /// its slowest disjunct).
    pub width: usize,
    /// The largest `log` exponent among conjuncts of maximum width.
    pub log_exponent: usize,
}

impl FaqAiAnalysis {
    /// A short rendering such as `O(N^2 log^3 N)`.
    pub fn runtime(&self) -> String {
        format!("O(N^{} log^{} N)", self.width, self.log_exponent)
    }
}

/// Computes an optimal relaxed tree decomposition of a conjunct by exhaustive
/// search over set partitions of the atoms.
///
/// A partition of the atoms into bags admits *some* tree in which every
/// crossing inequality connects adjacent bags if and only if the graph of
/// bag pairs that must be adjacent is a forest (a forest always extends to a
/// spanning tree; a cycle can never be embedded in a tree).  The number of
/// crossing inequalities does not depend on which extension is chosen, so the
/// search only ranges over set partitions — exponential in the number of
/// atoms only, and instantaneous for the paper's queries (≤ 6 atoms).
pub fn optimal_relaxed_decomposition(conjunct: &FaqAiConjunct) -> RelaxedDecomposition {
    let n = conjunct.num_atoms;
    assert!(n >= 1, "a conjunct needs at least one atom");
    let cross: Vec<&Inequality> = conjunct.cross_atom_inequalities();

    let mut best: Option<RelaxedDecomposition> = None;
    for bags in set_partitions(n) {
        // Bag index of every atom.
        let mut bag_of = vec![usize::MAX; n];
        for (b, bag) in bags.iter().enumerate() {
            for &a in bag {
                bag_of[a] = b;
            }
        }
        let width = bags.iter().map(Vec::len).max().unwrap_or(0);
        if let Some(b) = &best {
            if width > b.width {
                continue;
            }
        }

        // Bag pairs forced adjacent by a crossing inequality, plus the number
        // of crossing inequalities (a property of the partition alone).
        let mut required: Vec<(usize, usize)> = Vec::new();
        let mut crossing = 0usize;
        for ineq in &cross {
            let (a, b) = ineq.atoms();
            let (ba, bb) = (bag_of[a], bag_of[b]);
            if ba == bb {
                continue;
            }
            crossing += 1;
            let pair = (ba.min(bb), ba.max(bb));
            if !required.contains(&pair) {
                required.push(pair);
            }
        }

        // The required adjacencies must form a forest.
        let mut dsu = DisjointSets::new(bags.len());
        let mut is_forest = true;
        for &(x, y) in &required {
            if !dsu.union(x, y) {
                is_forest = false;
                break;
            }
        }
        if !is_forest {
            continue;
        }
        // Extend the forest to a spanning tree by linking the remaining
        // components in index order.
        let mut tree_edges = required.clone();
        for b in 1..bags.len() {
            if dsu.union(0, b) {
                tree_edges.push((0, b));
            }
        }

        let candidate = RelaxedDecomposition {
            bags: bags.clone(),
            tree_edges,
            width,
            crossing_inequalities: crossing,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                (candidate.width, candidate.crossing_inequalities)
                    < (b.width, b.crossing_inequalities)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("the single-bag decomposition is always relaxed-valid")
}

/// A minimal union-find over `0..n`, used to check that the forced bag
/// adjacencies form a forest.
struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Unions the two sets; returns false if they were already the same set
    /// (i.e. adding the edge would close a cycle).
    fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        self.parent[rx] = ry;
        true
    }
}

/// Analyses every conjunct of an FAQ-AI disjunction and aggregates the
/// relaxed width and log exponent of the whole disjunction.
pub fn analyze_disjunction(conjuncts: &[FaqAiConjunct]) -> FaqAiAnalysis {
    let analyses: Vec<ConjunctAnalysis> = conjuncts
        .iter()
        .map(|c| ConjunctAnalysis {
            choice: c.choice.clone(),
            decomposition: optimal_relaxed_decomposition(c),
        })
        .collect();
    let width = analyses
        .iter()
        .map(|a| a.decomposition.width)
        .max()
        .unwrap_or(0);
    let log_exponent = analyses
        .iter()
        .filter(|a| a.decomposition.width == width)
        .map(|a| a.decomposition.log_exponent())
        .max()
        .unwrap_or(1);
    FaqAiAnalysis {
        conjuncts: analyses,
        width,
        log_exponent,
    }
}

/// One row of Table 3: a partition of the six 4-clique atoms into three pairs
/// together with three inequalities connecting every two parts (the witness
/// that no tree over the three parts keeps all inequalities between adjacent
/// bags).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The partition into three bags of two atom indices each.
    pub partition: [[usize; 2]; 3],
    /// For every pair of bags, one inequality connecting them
    /// (bag pair `(0,1)`, `(0,2)`, `(1,2)` in order).
    pub witnesses: [Inequality; 3],
}

/// Reproduces Table 3: for the given conjunct (the paper uses the 4-clique
/// conjunct with `V_A = R`, `V_B = U`, `V_C = S`, `V_D = T`), enumerate every
/// partition of the atoms into bags of exactly two atoms and exhibit, for
/// each, three inequalities forming a triangle among the three bags.
///
/// Returns `None` if some partition has no such triangle (i.e. if a relaxed
/// decomposition with two atoms per bag exists, contradicting the paper).
pub fn table3(conjunct: &FaqAiConjunct) -> Option<Vec<Table3Row>> {
    let n = conjunct.num_atoms;
    if n != 6 {
        return None;
    }
    let cross = conjunct.cross_atom_inequalities();
    let mut rows = Vec::new();
    for bags in partitions_into_pairs(n) {
        let bag_of = |atom: usize| bags.iter().position(|b| b.contains(&atom)).unwrap();
        // For every pair of bags, find one inequality connecting them.
        let mut witnesses: Vec<Inequality> = Vec::with_capacity(3);
        for (x, y) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let found = cross.iter().find(|i| {
                let (a, b) = i.atoms();
                let (ba, bb) = (bag_of(a), bag_of(b));
                (ba == x && bb == y) || (ba == y && bb == x)
            });
            match found {
                Some(i) => witnesses.push((*i).clone()),
                None => return None,
            }
        }
        rows.push(Table3Row {
            partition: [
                [bags[0][0], bags[0][1]],
                [bags[1][0], bags[1][1]],
                [bags[2][0], bags[2][1]],
            ],
            witnesses: [
                witnesses[0].clone(),
                witnesses[1].clone(),
                witnesses[2].clone(),
            ],
        });
    }
    Some(rows)
}

/// All set partitions of `{0, …, n-1}`, each as a list of sorted blocks in
/// order of their smallest element (restricted-growth-string enumeration).
fn set_partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
    let mut out = Vec::new();
    let mut assignment = vec![0usize; n];
    fn rec(i: usize, max_used: usize, assignment: &mut Vec<usize>, out: &mut Vec<Vec<Vec<usize>>>) {
        let n = assignment.len();
        if i == n {
            let blocks = max_used + 1;
            let mut bags: Vec<Vec<usize>> = vec![Vec::new(); blocks];
            for (atom, &b) in assignment.iter().enumerate() {
                bags[b].push(atom);
            }
            out.push(bags);
            return;
        }
        for b in 0..=max_used + 1 {
            assignment[i] = b;
            rec(i + 1, max_used.max(b), assignment, out);
        }
    }
    if n == 0 {
        return vec![vec![]];
    }
    assignment[0] = 0;
    rec(1, 0, &mut assignment, &mut out);
    out
}

/// All partitions of `{0, …, n-1}` (n even) into unordered pairs.
fn partitions_into_pairs(n: usize) -> Vec<Vec<[usize; 2]>> {
    fn rec(remaining: &[usize], current: &mut Vec<[usize; 2]>, out: &mut Vec<Vec<[usize; 2]>>) {
        if remaining.is_empty() {
            out.push(current.clone());
            return;
        }
        let first = remaining[0];
        for i in 1..remaining.len() {
            let partner = remaining[i];
            let rest: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&x| x != first && x != partner)
                .collect();
            current.push([first, partner]);
            rec(&rest, current, out);
            current.pop();
        }
    }
    assert!(
        n.is_multiple_of(2),
        "pair partitions need an even number of elements"
    );
    let mut out = Vec::new();
    rec(&(0..n).collect::<Vec<usize>>(), &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conjunct::faqai_disjunction;
    use ij_relation::Query;

    fn triangle() -> Query {
        Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap()
    }

    fn lw4() -> Query {
        Query::parse("R([A],[B],[C]) & S([B],[C],[D]) & T([C],[D],[A]) & U([D],[A],[B])").unwrap()
    }

    fn four_clique() -> Query {
        Query::parse("R([A],[B]) & S([A],[C]) & T([A],[D]) & U([B],[C]) & V([B],[D]) & W([C],[D])")
            .unwrap()
    }

    #[test]
    fn set_partitions_have_bell_number_counts() {
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
        assert_eq!(set_partitions(6).len(), 203);
    }

    #[test]
    fn decomposition_trees_span_every_bag() {
        // The constructed tree of an optimal decomposition has exactly
        // `bags − 1` edges and every bag is reachable (it is a tree).
        let q = four_clique();
        for c in faqai_disjunction(&q).unwrap().iter().take(5) {
            let d = optimal_relaxed_decomposition(c);
            assert_eq!(d.tree_edges.len(), d.bags.len().saturating_sub(1));
            let mut dsu = DisjointSets::new(d.bags.len());
            for &(x, y) in &d.tree_edges {
                assert!(dsu.union(x, y), "the tree edges contain a cycle");
            }
        }
    }

    #[test]
    fn pair_partition_counts_are_double_factorials() {
        assert_eq!(partitions_into_pairs(2).len(), 1);
        assert_eq!(partitions_into_pairs(4).len(), 3);
        assert_eq!(partitions_into_pairs(6).len(), 15);
    }

    #[test]
    fn triangle_relaxed_width_is_two_with_log_cubed() {
        // Appendix F.1: fhtw_ℓ = subw_ℓ = 2 and k = 4 crossing inequalities,
        // giving O(N^2 log^3 N).
        let analysis = analyze_disjunction(&faqai_disjunction(&triangle()).unwrap());
        assert_eq!(analysis.width, 2);
        assert_eq!(analysis.log_exponent, 3);
        assert_eq!(analysis.runtime(), "O(N^2 log^3 N)");
        for c in &analysis.conjuncts {
            assert_eq!(c.decomposition.width, 2);
            assert_eq!(c.decomposition.crossing_inequalities, 4);
            assert_eq!(c.decomposition.bags.len(), 2);
        }
    }

    #[test]
    fn lw4_relaxed_width_is_two_with_log_ninth() {
        // Appendix F.2.1: fhtw_ℓ = subw_ℓ = 2; the conjunct analysed in the
        // paper has k = 10 crossing inequalities, giving O(N^2 log^9 N).
        let analysis = analyze_disjunction(&faqai_disjunction(&lw4()).unwrap());
        assert_eq!(analysis.width, 2);
        assert!(
            analysis.log_exponent >= 9,
            "log exponent {}",
            analysis.log_exponent
        );
        // Every conjunct needs at least two relations in one bag.
        for c in &analysis.conjuncts {
            assert_eq!(c.decomposition.width, 2);
        }
    }

    #[test]
    fn four_clique_relaxed_width_is_three() {
        // Appendix F.3.1: fhtw_ℓ = subw_ℓ = 3 and the analysed conjunct has
        // k = 6 crossing inequalities, giving O(N^3 log^5 N).
        let analysis = analyze_disjunction(&faqai_disjunction(&four_clique()).unwrap());
        assert_eq!(analysis.width, 3);
        assert!(analysis.log_exponent >= 5);
    }

    #[test]
    fn table3_exhibits_a_triangle_for_every_pair_partition() {
        // The paper's Table 3 uses the conjunct with V_A = R, V_B = U,
        // V_C = S, V_D = T (atom indices 0, 3, 1, 2).
        let conjuncts = faqai_disjunction(&four_clique()).unwrap();
        let target = conjuncts
            .iter()
            .find(|c| {
                c.choice
                    == vec![
                        ("A".to_string(), 0),
                        ("B".to_string(), 3),
                        ("C".to_string(), 1),
                        ("D".to_string(), 2),
                    ]
            })
            .expect("the Table 3 conjunct exists");
        let rows = table3(target).expect("every pair partition has a triangle of inequalities");
        assert_eq!(rows.len(), 15);
        for row in &rows {
            // The three witnesses connect three distinct bag pairs.
            for w in &row.witnesses {
                assert!(!w.is_intra_atom());
            }
        }
    }

    #[test]
    fn single_atom_conjunct_gets_the_trivial_decomposition() {
        let q = Query::parse("R([A],[B])").unwrap();
        let conjuncts = faqai_disjunction(&q).unwrap();
        let d = optimal_relaxed_decomposition(&conjuncts[0]);
        assert_eq!(d.width, 1);
        assert_eq!(d.bags, vec![vec![0]]);
        assert!(d.tree_edges.is_empty());
        assert_eq!(d.log_exponent(), 1);
    }

    #[test]
    fn acyclic_ij_queries_get_width_one_relaxed_decompositions() {
        // A path query: every inequality connects adjacent atoms, so bags of
        // one atom each arranged on a path are relaxed-valid.
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([C],[D])").unwrap();
        let analysis = analyze_disjunction(&faqai_disjunction(&q).unwrap());
        assert_eq!(analysis.width, 1);
    }
}
