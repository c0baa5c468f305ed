//! The plan of a forward reduction: validation, segment trees, the tree
//! nodes of every source cell and one spec per transformed relation.

use super::{
    bits_id, EncodingStrategy, ForwardReduction, ReducedAtom, ReducedQuery, ReductionConfig,
    ReductionError, ReductionStats,
};
use ij_hypergraph::{full_reduction, VarId, VarKind};
use ij_relation::{
    CancelTicker, CancellationToken, Database, EvalError, Query, Value, ValueId, MAX_INLINE_BITS,
};
use ij_segtree::{BitString, Interval, SegmentTree};
use std::collections::BTreeMap;

/// What one transformed relation is made of: an atom of the original query
/// and, per output column group, where it comes from.  A flat relation lists
/// the atom's columns in order; a spine is the tuple identifier plus the
/// carried columns; a part is the tuple identifier plus one expanded column.
#[derive(Debug)]
pub(super) struct RelationSpec {
    pub(super) atom: usize,
    pub(super) columns: Vec<SpecColumn>,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum SpecColumn {
    /// The per-tuple identifier of the decomposed encoding.
    TupleId,
    /// The atom's source column `col`, copied (a point variable).
    Carried { col: usize },
    /// The atom's source column `col` (an interval variable) expanded into
    /// `level` bitstring columns: from the leaf at the variable's top level,
    /// from the canonical partition below.
    Expand {
        col: usize,
        level: usize,
        leaf: bool,
    },
    /// The atom's source column `col` (an interval variable of degree 2 at
    /// its top level) as the one live column `X#1`: each ancestor-or-self of
    /// the row's leaf, whole.  A build sorts its seeds with this column
    /// collapsed to the leaf and takes the ancestors from the tree
    /// (`close_over_ancestors`).
    Ancestors { col: usize },
}

impl SpecColumn {
    /// The source column this one reads, if it reads one.
    pub(super) fn source<'a>(&self, atom: &'a AtomSource) -> Option<&'a SourceColumn> {
        match *self {
            SpecColumn::TupleId => None,
            SpecColumn::Carried { col }
            | SpecColumn::Expand { col, .. }
            | SpecColumn::Ancestors { col } => Some(&atom.columns[col]),
        }
    }

    /// The variables bound to the output columns: `id_var` for the tuple
    /// identifier, the source variable of a carried column, and `X#1..X#w`
    /// for an interval variable `X` written as `w` pieces.
    pub(super) fn vars(&self, atom_vars: &[String], id_var: &str) -> Vec<String> {
        let pieces =
            |col: usize, width: usize| (1..=width).map(move |j| format!("{}#{j}", atom_vars[col]));
        match *self {
            SpecColumn::TupleId => vec![id_var.to_string()],
            SpecColumn::Carried { col } => vec![atom_vars[col].clone()],
            SpecColumn::Expand { col, level, .. } => pieces(col, level).collect(),
            SpecColumn::Ancestors { col } => pieces(col, 1).collect(),
        }
    }
}

/// Which columns a plan gives its transformed relations (module docs, "Plan,
/// then build on demand").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Shape {
    /// Every column of Definition 4.9: `D̃` as the paper defines it.
    Paper,
    /// Without the top-level `X#2` of an interval variable of degree 2,
    /// which one atom binds and no join reads.
    Live,
}

/// What the relation builds of one atom read from its source relation.
#[derive(Debug)]
pub(super) struct AtomSource {
    pub(super) rows: usize,
    pub(super) columns: Vec<SourceColumn>,
}

#[derive(Debug)]
pub(super) enum SourceColumn {
    /// The ids of a point column.
    Point(Vec<ValueId>),
    /// The segment-tree nodes of an interval column.
    Interval(NodeLists),
}

/// [`plan_forward_reduction`] with the columns `shape` says.
pub(super) fn plan(
    q: &Query,
    db: &Database,
    ReductionConfig { encoding }: ReductionConfig,
    token: Option<&CancellationToken>,
    shape: Shape,
) -> Result<ForwardReduction, ReductionError> {
    validate(q, db)?;
    let (hypergraph, var_ids) = q.hypergraph();

    // --- segment trees, one per join interval variable, and the tree nodes
    // of every source tuple, once per column bound to the variable ----------
    let id_to_name: BTreeMap<VarId, String> = var_ids
        .iter()
        .map(|(name, &id)| (id, name.clone()))
        .collect();
    let mut degrees: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut node_lists: BTreeMap<(usize, usize), NodeLists> = BTreeMap::new();
    let mut stats = ReductionStats {
        input_tuples: db.total_tuples(),
        ..ReductionStats::default()
    };
    for &var in &hypergraph.join_interval_vars() {
        let name = &id_to_name[&var];
        let mut columns: Vec<((usize, usize), Vec<Interval>)> = Vec::new();
        for (atom_idx, atom) in q.atoms().iter().enumerate() {
            // At most one column per atom: `validate` rejects repeats.
            let Some(col) = atom.vars.iter().position(|v| v == name) else {
                continue;
            };
            #[expect(
                clippy::expect_used,
                reason = "infallible: `validate` found every relation"
            )]
            let rel = db.relation(&atom.relation).expect("validated");
            let intervals = rel
                .column(col)
                .map(|value| {
                    value.to_interval().ok_or(ReductionError::NotAnInterval {
                        relation: atom.relation.clone(),
                        column: col,
                    })
                })
                .collect::<Result<Vec<Interval>, _>>()?;
            columns.push(((atom_idx, col), intervals));
        }
        let all: Vec<Interval> = columns.iter().flat_map(|(_, ivs)| ivs).copied().collect();
        let tree = SegmentTree::build(&all);
        admit_height(name, tree.height())?;
        stats
            .variables
            .push((name.clone(), all.len(), tree.height()));
        // Number of atoms containing the variable (its `k`).
        degrees.insert(var, columns.len());
        for (key, intervals) in columns {
            node_lists.insert(key, NodeLists::build(&tree, &intervals, token)?);
        }
    }

    // --- what the relation builds will read: per atom and source column,
    // the node lists of an interval column or the ids of a point column ----
    let is_interval = |v: &String| q.var_kind(v) == Some(VarKind::Interval);
    let sources: Vec<AtomSource> = (q.atoms().iter().enumerate())
        .map(|(atom_idx, atom)| {
            #[expect(
                clippy::expect_used,
                reason = "infallible: `validate` found every relation"
            )]
            let source = db.relation(&atom.relation).expect("validated");
            let column = |col| match node_lists.remove(&(atom_idx, col)) {
                Some(nodes) => SourceColumn::Interval(nodes),
                None => SourceColumn::Point(source.column_ids(col).to_vec()),
            };
            AtomSource {
                rows: source.len(),
                columns: (0..atom.vars.len()).map(column).collect(),
            }
        })
        .collect();

    // --- structural reduction ----------------------------------------------
    let reduced_structures = full_reduction(&hypergraph);
    stats.num_queries = reduced_structures.len();

    // --- the EJ queries, and one spec per distinct transformed relation: a
    // relation depends on its atom and level assignment only, so the
    // structures share most of them -----------------------------------------
    let mut reduction = ForwardReduction {
        queries: Vec::with_capacity(reduced_structures.len()),
        stats,
        dict: db.dictionary().clone(),
        sources,
        tuple_ids: Vec::new(),
        relations: Vec::new(),
        by_name: BTreeMap::new(),
    };
    for structure in reduced_structures {
        let mut atoms: Vec<ReducedAtom> = Vec::with_capacity(q.atoms().len());
        for (atom_idx, atom) in q.atoms().iter().enumerate() {
            let levels = &structure.edge_levels[atom_idx];
            let expand = |col: usize| {
                let var = var_ids[&atom.vars[col]];
                let (level, degree) = (levels[&var], degrees[&var]);
                match shape == Shape::Live && (level, degree) == (2, 2) {
                    true => SpecColumn::Ancestors { col },
                    false => SpecColumn::Expand {
                        col,
                        level,
                        leaf: level == degree,
                    },
                }
            };
            // The decomposed encoding only pays off for atoms with at least
            // two interval variables (Section 1.1); other atoms use the flat
            // relation under either strategy.
            let decompose = encoding == EncodingStrategy::Decomposed
                && atom.vars.iter().filter(|v| is_interval(v)).count() >= 2;
            let spec = |columns: Vec<SpecColumn>| RelationSpec {
                atom: atom_idx,
                columns,
            };
            if !decompose {
                // Carried columns copy their ids, interval columns expand
                // into `level` bitstring columns.
                let columns = (0..atom.vars.len()).map(|col| match is_interval(&atom.vars[col]) {
                    true => expand(col),
                    false => SpecColumn::Carried { col },
                });
                let name = reduced_relation_name(q, atom_idx, levels, &id_to_name);
                atoms.push(reduction.bind(name, spec(columns.collect()), &atom.vars, ""));
                continue;
            }

            // --- decomposed encoding: spine + one part per interval variable
            let id_var = format!("__id:{}@{}", atom.relation, atom_idx);
            let rows = reduction.sources[atom_idx].rows;
            for i in reduction.tuple_ids.len()..rows {
                let id = reduction.dict.intern(Value::point(i as f64));
                reduction.tuple_ids.push(id);
            }

            // The spine: one tuple `(Id, carried point values…)` per source
            // tuple, the carried columns copying the source ids verbatim.
            let carried = (0..atom.vars.len()).filter(|&col| !is_interval(&atom.vars[col]));
            let columns = std::iter::once(SpecColumn::TupleId)
                .chain(carried.map(|col| SpecColumn::Carried { col }));
            let spine_name = format!("{}@{}⟨id⟩", atom.relation, atom_idx);
            atoms.push(reduction.bind(spine_name, spec(columns.collect()), &atom.vars, &id_var));

            // The parts: tuples `(Id, X₁,…,X_ℓ)`, Definition 4.9 applied to a
            // single variable.
            for col in (0..atom.vars.len()).filter(|&col| is_interval(&atom.vars[col])) {
                let var_name = &atom.vars[col];
                let level = levels[&var_ids[var_name]];
                let part_name = format!("{}@{}⟨{}:{}⟩", atom.relation, atom_idx, var_name, level);
                let columns = vec![SpecColumn::TupleId, expand(col)];
                atoms.push(reduction.bind(part_name, spec(columns), &atom.vars, &id_var));
            }
        }
        reduction.queries.push(ReducedQuery { atoms, structure });
    }
    reduction.stats = reduction.materialised_stats();
    Ok(reduction)
}

/// The name of the transformed relation of one atom under a level
/// assignment for its interval variables.
pub(super) fn reduced_relation_name(
    q: &Query,
    atom_idx: usize,
    levels: &BTreeMap<VarId, usize>,
    id_to_name: &BTreeMap<VarId, String>,
) -> String {
    let atom = &q.atoms()[atom_idx];
    let mut level_names: Vec<String> = levels
        .iter()
        .map(|(id, l)| format!("{}:{}", id_to_name[id], l))
        .collect();
    level_names.sort();
    format!("{}@{}⟨{}⟩", atom.relation, atom_idx, level_names.join(","))
}

/// The segment-tree nodes of one interval column, as ids, computed once and
/// shared by every level assignment of its atom: per source tuple, the
/// canonical partition of its interval (Definition 4.9, second bullet: the
/// levels below the variable's degree) and the leaf of its left endpoint
/// (third bullet: the top level).
#[derive(Debug)]
pub(super) struct NodeLists {
    /// Per row, its canonical partition (possibly empty).
    pub(super) partitions: RowLists,
    /// Per row, its leaf (whose ancestors are a degree-2 top column).
    pub(super) leaves: Vec<ValueId>,
}

/// One run of ids per source row, flattened: row `r`'s run is
/// `ids[starts[r]..starts[r + 1]]`.
#[derive(Debug)]
pub(super) struct RowLists {
    pub(super) ids: Vec<ValueId>,
    pub(super) starts: Vec<usize>,
}

impl RowLists {
    fn new() -> Self {
        RowLists {
            ids: Vec::new(),
            starts: vec![0],
        }
    }

    /// Closes the run of the current row.
    fn end_row(&mut self) {
        self.starts.push(self.ids.len());
    }

    /// Row `row`'s run.
    pub(super) fn of_row(&self, row: usize) -> &[ValueId] {
        &self.ids[self.starts[row]..self.starts[row + 1]]
    }
}

impl NodeLists {
    /// The node lists of `intervals` in `tree`.  `token` is polled once per
    /// interval.
    pub(super) fn build(
        tree: &SegmentTree,
        intervals: &[Interval],
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        let mut lists = NodeLists {
            partitions: RowLists::new(),
            leaves: Vec::with_capacity(intervals.len()),
        };
        let id_of = |node: BitString| bits_id(node.bits(), node.len());
        let mut ticker = CancelTicker::new(token);
        for &iv in intervals {
            ticker.tick()?;
            let partitions = &mut lists.partitions;
            let leaf = tree.for_each_canonical_node_with_leaf(iv, |node| {
                partitions.ids.push(id_of(node));
            });
            partitions.end_row();
            lists.leaves.push(id_of(leaf));
        }
        Ok(lists)
    }
}

/// Rejects a tree taller than [`MAX_INLINE_BITS`] levels, whose longest
/// nodes have no computed id ([`bits_id`]).
fn admit_height(variable: &str, height: u8) -> Result<(), ReductionError> {
    if height > MAX_INLINE_BITS {
        let variable = variable.to_string();
        return Err(ReductionError::TreeTooTall { variable, height });
    }
    Ok(())
}

fn validate(q: &Query, db: &Database) -> Result<(), ReductionError> {
    for atom in q.atoms() {
        let rel = db
            .relation(&atom.relation)
            .ok_or_else(|| ReductionError::MissingRelation(atom.relation.clone()))?;
        if rel.arity() != atom.vars.len() {
            return Err(ReductionError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: atom.vars.len(),
                found: rel.arity(),
            });
        }
        // Interval variables must not repeat within an atom.
        for (i, v) in atom.vars.iter().enumerate() {
            if q.var_kind(v) == Some(VarKind::Interval) && atom.vars[..i].contains(v) {
                return Err(ReductionError::RepeatedIntervalVariable {
                    relation: atom.relation.clone(),
                    variable: v.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::build::PlanColumn;
    use crate::forward::tests::*;
    use crate::forward::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Every disjunct of `τ(H)` is one choice of permutations, and every
    /// transformed relation is named after its atom and its levels
    /// (Definition 4.9), so two disjuncts never read the same set of
    /// relations: each is its own unit of work, with no duplicate to drop.
    #[test]
    fn no_two_disjuncts_read_the_same_relations() {
        let mut queries: Vec<Query> = ij_hypergraph::named_catalog()
            .iter()
            .map(|entry| Query::from_hypergraph(&entry.hypergraph))
            .collect();
        for text in [
            "R([A],[B]) & R([B],[C]) & R([A],[C])",
            "R(X,X,[A]) & S(X,[A])",
        ] {
            queries.push(Query::parse(text).unwrap());
        }
        for q in &queries {
            let mut db = Database::new();
            for atom in q.atoms() {
                let row = |k: f64| {
                    let value = |v: &String| match q.var_kind(v) {
                        Some(VarKind::Interval) => iv(k, k + 2.0),
                        _ => Value::point(k),
                    };
                    atom.vars.iter().map(value).collect()
                };
                db.insert_tuples(&atom.relation, atom.vars.len(), vec![row(0.0), row(1.0)]);
            }
            for encoding in [EncodingStrategy::Flat, EncodingStrategy::Decomposed] {
                let fr =
                    plan_forward_reduction(q, &db, ReductionConfig { encoding }, None).unwrap();
                let mut seen = BTreeSet::new();
                for (i, rq) in fr.queries.iter().enumerate() {
                    let names: BTreeSet<&str> =
                        rq.atoms.iter().map(|a| a.relation.as_str()).collect();
                    assert!(
                        seen.insert(names),
                        "{} ({encoding:?}): disjunct {i} repeats a relation set",
                        q.render()
                    );
                }
            }
        }
    }

    #[test]
    fn missing_relation_is_reported() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        match forward_reduction(&q, &db) {
            Err(ReductionError::MissingRelation(name)) => assert_eq!(name, "S"),
            other => panic!("expected MissingRelation, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let q = Query::parse("R([A],[B])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        assert!(matches!(
            forward_reduction(&q, &db),
            Err(ReductionError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn repeated_interval_variable_is_rejected() {
        let q = Query::parse("R([A],[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        assert!(matches!(
            forward_reduction(&q, &db),
            Err(ReductionError::RepeatedIntervalVariable { .. })
        ));
    }

    #[test]
    fn a_tree_too_tall_for_computed_node_ids_is_rejected() {
        // A tree 30 levels tall needs 2²⁸ endpoints, so the check is tested
        // on the height alone: 29 is the tallest tree whose node ids fit.
        assert_eq!(MAX_INLINE_BITS, 29);
        assert_eq!(admit_height("A", 29), Ok(()));
        assert_eq!(
            admit_height("A", 30),
            Err(ReductionError::TreeTooTall {
                variable: "A".to_string(),
                height: 30
            })
        );
        assert!(admit_height("A", 30)
            .unwrap_err()
            .to_string()
            .contains("`A` is 30 levels tall"));
    }

    #[test]
    fn node_list_ids_are_the_dictionarys_ids_of_the_nodes() {
        // Points, shared endpoints, nesting and both infinities.
        let intervals = [
            Interval::new(0.0, 4.0),
            Interval::new(2.0, 9.0),
            Interval::point(4.0),
            Interval::new(4.0, 6.0),
            Interval::new(f64::NEG_INFINITY, 2.0),
            Interval::new(6.0, f64::INFINITY),
            Interval::all(),
        ];
        let outside = [Interval::new(100.0, 101.0), Interval::point(-3.0)];
        let tree = SegmentTree::build(&intervals);
        let queries: Vec<Interval> = intervals.iter().chain(&outside).copied().collect();
        let dict = SharedDictionary::new();
        let nodes = NodeLists::build(&tree, &queries, None).unwrap();
        let (ancestors_of, mut ancestors) = (PlanColumn::Ancestors(&nodes.leaves), Vec::new());
        let id = |node: BitString| dict.intern(Value::Bits(node));
        for (row, &iv) in queries.iter().enumerate() {
            let partition: Vec<ValueId> =
                (tree.canonical_partition(iv).into_iter().map(id)).collect();
            assert_eq!(nodes.partitions.of_row(row), partition, "{iv}");
            let leaf = tree.leaf_of_interval(iv);
            assert_eq!(nodes.leaves[row], id(leaf), "{iv}");
            let expected: Vec<ValueId> = leaf.ancestors().into_iter().map(id).collect();
            assert_eq!(ancestors_of.seeds_of(row, &mut ancestors), expected);
        }
        assert_eq!(dict.len(), 0, "every node id is inline");
    }

    /// The live plan against the paper's reduction of the same instance:
    /// every disjunct is the paper's without its dead `X#2` variables, every
    /// relation is the paper's projected onto its live columns — the same
    /// build, column for column, where nothing is dead — and its size is
    /// exactly Lemma 4.10's count over its seeds.
    fn assert_live_plan_matches_the_paper(q: &Query, db: &Database, config: ReductionConfig) {
        let paper = forward_reduction_with(q, db, config).unwrap();
        let live = plan_forward_reduction(q, db, config, None).unwrap();
        assert_eq!(live.queries.len(), paper.queries.len());
        for (lq, pq) in live.queries.iter().zip(&paper.queries) {
            assert_eq!(lq.atoms.len(), pq.atoms.len());
            for (la, pa) in lq.atoms.iter().zip(&pq.atoms) {
                assert_eq!(la.relation, pa.relation);
                let alive = pa.vars.iter().filter(|v| !dead(q, v));
                assert_eq!(la.vars, alive.cloned().collect::<Vec<_>>(), "{config:?}");
            }
        }
        let mut total = 0;
        for planned in &live.relations {
            let name = &planned.name;
            assert_seeds_from_the_tree(&live, planned);
            total += assert_live(&live, &paper, name);
            let (built, reference) = (
                live.relation(name, None).unwrap(),
                paper.relation(name, None).unwrap(),
            );
            if built.arity() == reference.arity() {
                assert_eq!(built, reference, "{config:?}: {name}");
            }
            let count = size_by_lemma_4_10(&live, planned);
            assert_eq!(built.len() as u64, count, "{config:?}: {name}");
        }
        assert_eq!(live.materialised_stats().transformed_tuples, total);
        assert_eq!(live.stats.num_relations, paper.stats.num_relations);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Degree-2 and degree-3 variables, carried point columns and a
        /// repeated relation, under both encodings: the live plan builds
        /// the paper's relations without their dead columns.
        #[test]
        fn the_live_plan_is_the_paper_reduction_without_its_dead_columns(raw in arb_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            for config in [ReductionConfig::default(), DECOMPOSED] {
                assert_live_plan_matches_the_paper(&q, &db, config);
            }
        }
    }
}
