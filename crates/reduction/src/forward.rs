//! The data-level forward reduction (Section 4, Algorithm 1).
//!
//! Given an IJ (or mixed EIJ) query `Q` and a database `D` of intervals, the
//! reduction produces a disjunction of EJ queries over a database of
//! segment-tree bitstrings such that `Q(D)` is true iff one of the EJ queries
//! is true over the transformed database (Theorem 4.13).
//!
//! The implementation resolves every join interval variable at once (the
//! iterative one-variable-at-a-time formulation of Algorithm 1 composes to
//! exactly this): for each interval variable `[X]` occurring in `k` atoms a
//! segment tree is built over all `[X]`-intervals of those atoms, and the
//! atom at position `i` of a permutation of the `k` atoms receives, per
//! original tuple,
//!
//! * one transformed tuple per node of the canonical partition of the
//!   interval and per composition of that node's bitstring into `i` parts,
//!   when `i < k` (Definition 4.9, second bullet);
//! * one transformed tuple per composition of `leaf(x)` into `k` parts, when
//!   `i = k` (third bullet).
//!
//! Transformed relations are shared across the EJ queries of the disjunction:
//! the relation for an atom only depends on the *level* assigned to each of
//! its interval variables, not on the full permutation.
//!
//! # The transform kernel
//!
//! The transform never leaves the id domain.  The canonical partition and
//! the leaf of every cell are computed once per (atom, interval column)
//! (`NodeLists`) and shared by all level assignments of the atom.  One
//! relation build (`build_transformed_relation`, which also builds the parts
//! of the decomposed encoding) then walks the source rows with one reusable
//! flat id buffer per source column — a carried column contributes its source
//! id, an interval column the pieces of every (node, composition) pair, cut
//! by an odometer over the cut positions — and emits the cross product of
//! the buffers with a second odometer into one reusable row.  A piece is a
//! bitstring of at most the tree height, so its id is computed, not looked
//! up (the inline ids of [`SharedDictionary::intern`]): no hash, no lock and
//! no allocation per row.  [`Relation::dedup`] then sorts the raw ids.

use ij_hypergraph::{full_reduction, ReducedHypergraph, VarId, VarKind};
use ij_relation::{
    faults, CancelTicker, CancellationToken, Database, EvalError, Query, Relation,
    SharedDictionary, Value, ValueId,
};
use ij_segtree::{BitString, Interval, SegmentTree};
use std::collections::{BTreeMap, BTreeSet};

/// How the transformed relations encode the bitstring columns of an atom with
/// several interval variables (Section 1.1, closing discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingStrategy {
    /// The paper's default encoding: one transformed relation per atom and
    /// level assignment, holding every combination of the per-variable
    /// bitstring expansions.  An atom with `j` join interval variables of
    /// degree `m` blows up by a factor `O(log^j N)` *per combination*, i.e.
    /// the relation materialises the product of the per-variable expansions.
    #[default]
    Flat,
    /// The lossless decomposition sketched at the end of Section 1.1: the
    /// atom is split into a *spine* relation `R̃(Id, carried…)` plus one
    /// relation `R̃_X(Id, X₁,…,X_ℓ)` per interval variable, joined on a
    /// per-tuple identifier.  The transformed size is the *sum* of the
    /// per-variable expansions instead of their product — `O(N log N)` per
    /// variable — at the cost of extra (acyclicity-preserving) join atoms in
    /// the reduced EJ queries.  Same data complexity modulo log factors, far
    /// smaller constants for atoms with two or more interval variables.
    Decomposed,
}

/// Configuration of the forward reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReductionConfig {
    /// Encoding of the transformed relations.
    pub encoding: EncodingStrategy,
}

/// One atom of a reduced EJ query: the transformed relation name (in the
/// transformed [`Database`]) and the variable bound to every column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedAtom {
    /// Name of the transformed relation in [`ForwardReduction::database`].
    pub relation: String,
    /// Variable names bound to the columns, e.g. `["A#1", "A#2", "B#1"]`.
    pub vars: Vec<String>,
}

/// One EJ query of the disjunction produced by the forward reduction.
#[derive(Debug, Clone)]
pub struct ReducedQuery {
    /// The atoms.  Under the flat encoding they align one-to-one with the
    /// atoms of the original query; under the decomposed encoding an atom
    /// with two or more interval variables contributes a spine atom plus one
    /// atom per interval variable, all sharing a per-tuple `Id` variable.
    pub atoms: Vec<ReducedAtom>,
    /// The reduced hypergraph (with the permutation bookkeeping).
    pub structure: ReducedHypergraph,
}

impl ReducedQuery {
    /// Dense variable identifiers for the query's variable names, assigned in
    /// first-occurrence order — the binding step shared by every evaluator of
    /// a reduced disjunct (engine and benchmark harness alike).
    pub fn dense_var_ids(&self) -> std::collections::BTreeMap<&str, usize> {
        let mut var_ids = std::collections::BTreeMap::new();
        for atom in &self.atoms {
            for v in &atom.vars {
                let next = var_ids.len();
                var_ids.entry(v.as_str()).or_insert(next);
            }
        }
        var_ids
    }

    /// The reduced query as a [`Query`] value (all point variables).
    pub fn to_query(&self) -> Query {
        Query::from_atoms(
            self.atoms
                .iter()
                .map(|a| ij_relation::Atom {
                    relation: a.relation.clone(),
                    vars: a.vars.clone(),
                })
                .collect(),
            &[],
        )
    }
}

/// Size and construction statistics of a forward reduction (Lemma 4.10 and
/// Theorem 4.15 are about these quantities).
#[derive(Debug, Clone, Default)]
pub struct ReductionStats {
    /// Per interval variable: (name, number of source intervals, segment tree
    /// height).
    pub variables: Vec<(String, usize, u8)>,
    /// Size of the input database (tuples).
    pub input_tuples: usize,
    /// Total number of tuples across all transformed relations.
    pub transformed_tuples: usize,
    /// The largest transformed relation.
    pub max_relation_tuples: usize,
    /// Number of distinct transformed relations.
    pub num_relations: usize,
    /// Number of EJ queries in the disjunction.
    pub num_queries: usize,
}

/// The result of the forward reduction.
#[derive(Debug, Clone)]
pub struct ForwardReduction {
    /// The transformed database `D̃` of bitstrings (plus carried-over point
    /// values).
    pub database: Database,
    /// The EJ queries of the disjunction `⋁ Q̃_i`.
    pub queries: Vec<ReducedQuery>,
    /// Statistics.
    pub stats: ReductionStats,
}

impl ForwardReduction {
    /// Indices into [`ForwardReduction::queries`] with literally identical
    /// queries (same relations bound to the same variables) removed: distinct
    /// permutations frequently produce the same EJ query, and evaluating a
    /// duplicate can never change the disjunction's answer.  Keeps the first
    /// occurrence of each query, in order.
    pub fn deduped_query_indices(&self) -> Vec<usize> {
        let mut seen: std::collections::HashSet<Vec<(&str, &[String])>> =
            std::collections::HashSet::new();
        let mut out = Vec::with_capacity(self.queries.len());
        for (i, rq) in self.queries.iter().enumerate() {
            let key: Vec<(&str, &[String])> = rq
                .atoms
                .iter()
                .map(|a| (a.relation.as_str(), a.vars.as_slice()))
                .collect();
            if seen.insert(key) {
                out.push(i);
            }
        }
        out
    }
}

/// Errors raised by the forward reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// A relation referenced by the query is missing from the database.
    MissingRelation(String),
    /// A relation's arity does not match the query atom.
    ArityMismatch {
        relation: String,
        expected: usize,
        found: usize,
    },
    /// An interval variable occurs twice in the same atom (not supported by
    /// the reduction; rewrite the query first).
    RepeatedIntervalVariable { relation: String, variable: String },
    /// A value of an interval variable is not an interval (or a point, which
    /// is treated as a point interval).
    NotAnInterval { relation: String, column: usize },
    /// The reduction was interrupted mid-transform: the caller's
    /// [`CancellationToken`] was cancelled or its deadline expired.  The
    /// transformed database under construction is dropped whole, never
    /// published partially.
    Interrupted(EvalError),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::MissingRelation(r) => write!(f, "relation `{r}` missing from database"),
            ReductionError::ArityMismatch {
                relation,
                expected,
                found,
            } => {
                write!(
                    f,
                    "relation `{relation}` has arity {found}, query expects {expected}"
                )
            }
            ReductionError::RepeatedIntervalVariable { relation, variable } => {
                write!(
                    f,
                    "interval variable `{variable}` repeated in atom `{relation}`"
                )
            }
            ReductionError::NotAnInterval { relation, column } => {
                write!(
                    f,
                    "relation `{relation}` column {column} holds a non-interval value"
                )
            }
            ReductionError::Interrupted(e) => write!(f, "reduction interrupted: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReductionError::Interrupted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for ReductionError {
    fn from(e: EvalError) -> Self {
        ReductionError::Interrupted(e)
    }
}

/// Runs the forward reduction of query `q` over database `db` with the
/// default (flat) encoding.
pub fn forward_reduction(q: &Query, db: &Database) -> Result<ForwardReduction, ReductionError> {
    forward_reduction_with(q, db, ReductionConfig::default())
}

/// Runs the forward reduction of query `q` over database `db` with an
/// explicit [`ReductionConfig`].
pub fn forward_reduction_with(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
) -> Result<ForwardReduction, ReductionError> {
    forward_reduction_with_token(q, db, config, None)
}

/// [`forward_reduction_with`] polling a [`CancellationToken`]: the per-tuple
/// loops — the segment-tree node pass over every interval column and the
/// expansion of every relation build — check the token every
/// [`check_interval`](CancellationToken::check_interval) rows and abort with
/// [`ReductionError::Interrupted`] when it fires — the segment-tree builds
/// and the structural reduction run to completion (both are small: `O(N)`
/// interval collection and a per-*shape* permutation enumeration).
pub fn forward_reduction_with_token(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
    token: Option<&CancellationToken>,
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
        stats
            .variables
            .push((name.clone(), all.len(), tree.height()));
        // Number of atoms containing the variable (its `k`).
        degrees.insert(var, columns.len());
        for (key, intervals) in columns {
            node_lists.insert(key, NodeLists::build(&tree, &intervals, token)?);
        }
    }

    // --- structural reduction ----------------------------------------------
    let reduced_structures = full_reduction(&hypergraph);
    stats.num_queries = reduced_structures.len();

    // --- transformed relations, memoised per (atom, level assignment) ------
    // The transformed database interns into the *input* database's
    // dictionary: ids must be join-compatible with the carried columns, and a
    // workspace-scoped input keeps its reduction scoped too.
    let dict = db.dictionary();
    let mut database = Database::new_in(dict.clone());
    let mut built: BTreeSet<String> = BTreeSet::new();
    let mut insert = |relation: Relation| {
        stats.transformed_tuples += relation.len();
        stats.max_relation_tuples = stats.max_relation_tuples.max(relation.len());
        database.insert(relation);
    };
    // The per-tuple identifiers `0.0, 1.0, …` of the decomposed encoding,
    // interned once per call: a prefix of them serves the spine and every
    // part of every decomposed atom.
    let mut tuple_id_prefix: Vec<ValueId> = Vec::new();
    let mut queries: Vec<ReducedQuery> = Vec::with_capacity(reduced_structures.len());

    for structure in reduced_structures {
        let mut atoms: Vec<ReducedAtom> = Vec::with_capacity(q.atoms().len());
        for (atom_idx, atom) in q.atoms().iter().enumerate() {
            let source = db.relation(&atom.relation).expect("validated");
            let levels = &structure.edge_levels[atom_idx];
            let is_interval = |v: &String| q.var_kind(v) == Some(VarKind::Interval);
            let expand = |col: usize| {
                let var = var_ids[&atom.vars[col]];
                PlanColumn::Expand {
                    nodes: &node_lists[&(atom_idx, col)],
                    level: levels[&var],
                    leaf: levels[&var] == degrees[&var],
                }
            };
            // The decomposed encoding only pays off for atoms with at least
            // two interval variables (Section 1.1); other atoms use the flat
            // relation under either strategy.
            let decompose = config.encoding == EncodingStrategy::Decomposed
                && atom.vars.iter().filter(|v| is_interval(v)).count() >= 2;
            if !decompose {
                let (name, vars) =
                    reduced_relation_signature(q, atom_idx, levels, &id_to_name, &var_ids);
                if built.insert(name.clone()) {
                    // Carried columns copy their ids, interval columns expand
                    // into `level` bitstring columns.
                    let plan: Vec<PlanColumn<'_>> = (0..atom.vars.len())
                        .map(|col| match is_interval(&atom.vars[col]) {
                            true => expand(col),
                            false => PlanColumn::Carried(source.column_ids(col)),
                        })
                        .collect();
                    insert(build_transformed_relation(
                        &name,
                        dict,
                        &plan,
                        source.len(),
                        token,
                    )?);
                }
                atoms.push(ReducedAtom {
                    relation: name,
                    vars,
                });
                continue;
            }

            // --- decomposed encoding: spine + one part per interval variable
            let id_var = format!("__id:{}@{}", atom.relation, atom_idx);
            for i in tuple_id_prefix.len()..source.len() {
                tuple_id_prefix.push(dict.intern(Value::point(i as f64)));
            }
            let tuple_ids = &tuple_id_prefix[..source.len()];

            // The spine: one tuple `(Id, carried point values…)` per source
            // tuple, the carried columns copying the source ids verbatim.
            let spine_name = format!("{}@{}⟨id⟩", atom.relation, atom_idx);
            let carried = (0..atom.vars.len()).filter(|&col| !is_interval(&atom.vars[col]));
            if built.insert(spine_name.clone()) {
                let cols = std::iter::once(tuple_ids.to_vec())
                    .chain(carried.clone().map(|col| source.column_ids(col).to_vec()))
                    .collect();
                insert(Relation::from_id_columns_in(
                    spine_name.clone(),
                    source.len(),
                    cols,
                    dict,
                ));
            }
            atoms.push(ReducedAtom {
                relation: spine_name,
                vars: std::iter::once(id_var.clone())
                    .chain(carried.map(|col| atom.vars[col].clone()))
                    .collect(),
            });

            // The parts: tuples `(Id, X₁,…,X_ℓ)`, Definition 4.9 applied to a
            // single variable.
            for col in (0..atom.vars.len()).filter(|&col| is_interval(&atom.vars[col])) {
                let var_name = &atom.vars[col];
                let level = levels[&var_ids[var_name]];
                let part_name = format!("{}@{}⟨{}:{}⟩", atom.relation, atom_idx, var_name, level);
                if built.insert(part_name.clone()) {
                    let plan = [PlanColumn::Carried(tuple_ids), expand(col)];
                    insert(build_transformed_relation(
                        &part_name,
                        dict,
                        &plan,
                        source.len(),
                        token,
                    )?);
                }
                let mut part_vars: Vec<String> = vec![id_var.clone()];
                for j in 1..=level {
                    part_vars.push(format!("{var_name}#{j}"));
                }
                atoms.push(ReducedAtom {
                    relation: part_name,
                    vars: part_vars,
                });
            }
        }
        queries.push(ReducedQuery { atoms, structure });
    }
    stats.num_relations = built.len();

    Ok(ForwardReduction {
        database,
        queries,
        stats,
    })
}

/// The name and column variables of the transformed relation of one atom
/// under a level assignment for its interval variables.
fn reduced_relation_signature(
    q: &Query,
    atom_idx: usize,
    levels: &BTreeMap<VarId, usize>,
    id_to_name: &BTreeMap<VarId, String>,
    var_ids: &BTreeMap<String, VarId>,
) -> (String, Vec<String>) {
    let atom = &q.atoms()[atom_idx];
    let mut vars: Vec<String> = Vec::new();
    for v in &atom.vars {
        match q.var_kind(v) {
            Some(VarKind::Interval) => {
                let var_id = var_ids[v];
                let level = levels[&var_id];
                for j in 1..=level {
                    vars.push(format!("{v}#{j}"));
                }
            }
            _ => vars.push(v.clone()),
        }
    }
    let mut level_names: Vec<String> = levels
        .iter()
        .map(|(id, l)| format!("{}:{}", id_to_name[id], l))
        .collect();
    level_names.sort();
    let name = format!("{}@{}⟨{}⟩", atom.relation, atom_idx, level_names.join(","));
    (name, vars)
}

/// The segment-tree nodes of one interval column, computed once and shared
/// by every level assignment of its atom: per source tuple, the canonical
/// partition of its interval (Definition 4.9, second bullet: the levels
/// below the variable's degree) and the leaf of its left endpoint (third
/// bullet: the top level).
struct NodeLists {
    /// Row `r`'s canonical partition is
    /// `partitions[partition_starts[r]..partition_starts[r + 1]]`.
    partitions: Vec<BitString>,
    partition_starts: Vec<usize>,
    leaves: Vec<BitString>,
}

impl NodeLists {
    fn build(
        tree: &SegmentTree,
        intervals: &[Interval],
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        let mut lists = NodeLists {
            partitions: Vec::new(),
            partition_starts: vec![0],
            leaves: Vec::with_capacity(intervals.len()),
        };
        let mut ticker = CancelTicker::new(token);
        for &iv in intervals {
            ticker.tick()?;
            lists.partitions.extend(tree.canonical_partition(iv));
            lists.partition_starts.push(lists.partitions.len());
            lists.leaves.push(tree.leaf_of_interval(iv));
        }
        Ok(lists)
    }

    /// The nodes a source row expands from: its leaf at the top level, its
    /// canonical partition (possibly empty) below.
    fn of_row(&self, row: usize, leaf: bool) -> &[BitString] {
        if leaf {
            return std::slice::from_ref(&self.leaves[row]);
        }
        &self.partitions[self.partition_starts[row]..self.partition_starts[row + 1]]
    }
}

/// How one source column contributes to a transformed relation.
#[derive(Clone, Copy)]
enum PlanColumn<'a> {
    /// Copies the source row's id (a carried point column, or the tuple
    /// identifier of the decomposed encoding).
    Carried(&'a [ValueId]),
    /// Expands the source row's interval into `level` bitstring columns: one
    /// option per node of the row and per composition of it into `level`
    /// pieces.
    Expand {
        nodes: &'a NodeLists,
        level: usize,
        leaf: bool,
    },
}

impl PlanColumn<'_> {
    /// Number of output columns.
    fn width(&self) -> usize {
        match *self {
            PlanColumn::Carried(_) => 1,
            PlanColumn::Expand { level, .. } => level,
        }
    }
}

/// Builds one transformed relation (Definition 4.9, applied once per
/// `Expand` column of the plan): per source row, the cross product of its
/// columns' options, deduplicated at the end.  The loop stays in the id
/// domain and allocates nothing per row: every plan column has one reusable
/// buffer holding the current row's options back to back (`width` ids each),
/// and an odometer over the buffers fills one reusable output row.
fn build_transformed_relation(
    name: &str,
    dict: &SharedDictionary,
    plan: &[PlanColumn<'_>],
    source_rows: usize,
    token: Option<&CancellationToken>,
) -> Result<Relation, ReductionError> {
    faults::point("reduction-transform");
    let widths: Vec<usize> = plan.iter().map(PlanColumn::width).collect();
    let arity = widths.iter().sum();
    let mut out = Relation::new_in(name.to_string(), arity, dict);
    let mut options: Vec<Vec<ValueId>> = vec![Vec::new(); plan.len()];
    // The odometer: per plan column, the offset of the chosen option.
    let mut chosen: Vec<usize> = vec![0; plan.len()];
    let mut cuts: Vec<u8> = Vec::new();
    let mut row: Vec<ValueId> = Vec::with_capacity(arity);
    let mut ticker = CancelTicker::new(token);
    'rows: for source_row in 0..source_rows {
        ticker.tick()?;
        for (column, options) in plan.iter().zip(&mut options) {
            options.clear();
            match *column {
                PlanColumn::Carried(ids) => options.push(ids[source_row]),
                PlanColumn::Expand { nodes, level, leaf } => {
                    for &node in nodes.of_row(source_row, leaf) {
                        push_compositions(dict, node, level, &mut cuts, options);
                    }
                    // An empty canonical partition: the tuple joins nothing.
                    if options.is_empty() {
                        continue 'rows;
                    }
                }
            }
        }
        chosen.fill(0);
        'emit: loop {
            row.clear();
            for ((&width, options), &at) in widths.iter().zip(&options).zip(&chosen) {
                row.extend_from_slice(&options[at..at + width]);
            }
            out.push_ids(&row);
            for ((&width, options), at) in widths.iter().zip(&options).zip(&mut chosen).rev() {
                *at += width;
                if *at < options.len() {
                    continue 'emit;
                }
                *at = 0;
            }
            break;
        }
    }
    out.dedup();
    Ok(out)
}

/// Appends to `out` the ids of every way of writing `node` as `level`
/// (possibly empty) consecutive pieces, `level` ids per composition — the
/// set `𝔉(u, i)` of Lemma 4.10, like [`BitString::compositions`] but with no
/// piece list per composition: `cuts` is a reusable odometer over the
/// non-decreasing cut positions `0 ≤ c₁ ≤ … ≤ c_{level-1} ≤ len`.  Pieces of
/// at most 29 bits — all of them, for any tree that fits in memory — get
/// their inline id from `dict.intern` arithmetically.
fn push_compositions(
    dict: &SharedDictionary,
    node: BitString,
    level: usize,
    cuts: &mut Vec<u8>,
    out: &mut Vec<ValueId>,
) {
    debug_assert!(level >= 1, "an atom holding the variable has level >= 1");
    cuts.clear();
    cuts.resize(level - 1, 0);
    loop {
        let mut prev = 0;
        for &cut in cuts.iter() {
            out.push(dict.intern(Value::Bits(node.prefix(cut).suffix(prev))));
            prev = cut;
        }
        out.push(dict.intern(Value::Bits(node.suffix(prev))));
        // Bump the last cut that can still grow; the cuts after it restart
        // from its new position.
        let Some(i) = cuts.iter().rposition(|&cut| cut < node.len()) else {
            return;
        };
        let bumped = cuts[i] + 1;
        cuts[i..].fill(bumped);
    }
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
    use ij_relation::Value;

    fn iv(lo: f64, hi: f64) -> Value {
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
        assert_eq!(fr.database.num_relations(), 12);
        // Every reduced query references existing relations with matching arity.
        for rq in &fr.queries {
            for atom in &rq.atoms {
                let rel = fr.database.relation(&atom.relation).unwrap();
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
        for rel in fr.database.relations() {
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
        for rel in fr.database.relations() {
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
                let rel = fr.database.relation(&atom.relation).unwrap();
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
        for rel in fr.database.relations() {
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

    const DECOMPOSED: ReductionConfig = ReductionConfig {
        encoding: EncodingStrategy::Decomposed,
    };

    /// The row-at-a-time transform the id-native kernel replaced, kept as its
    /// oracle: it works on resolved values, recomputes the canonical
    /// partition (or leaf) of every cell per level assignment, lists each
    /// node's [`BitString::compositions`] and clones its way through the
    /// cross product.  Returns every transformed relation as a row set.
    fn oracle_reduction(
        q: &Query,
        db: &Database,
        config: ReductionConfig,
    ) -> BTreeMap<String, BTreeSet<Vec<Value>>> {
        let (h, var_ids) = q.hypergraph();
        let id_to_name: BTreeMap<VarId, String> =
            var_ids.iter().map(|(n, &id)| (id, n.clone())).collect();
        let is_interval = |v: &String| q.var_kind(v) == Some(VarKind::Interval);
        let tree_of = |var: &String| {
            let intervals: Vec<Interval> = q
                .atoms()
                .iter()
                .flat_map(|atom| {
                    let rel = db.relation(&atom.relation).unwrap();
                    let col = atom.vars.iter().position(|v| v == var);
                    col.into_iter().flat_map(move |col| rel.column(col))
                })
                .map(|value| value.to_interval().unwrap())
                .collect();
            SegmentTree::build(&intervals)
        };
        let trees: BTreeMap<&String, SegmentTree> = var_ids
            .keys()
            .filter(|v| is_interval(v))
            .map(|v| (v, tree_of(v)))
            .collect();
        // Definition 4.9 for one cell: its nodes, each split into `level` pieces.
        let expand = |var: &String, value: Value, level: usize| -> Vec<Vec<Value>> {
            let iv = value.to_interval().unwrap();
            let nodes = match level < h.degree(var_ids[var]) {
                true => trees[var].canonical_partition(iv),
                false => vec![trees[var].leaf_of_interval(iv)],
            };
            nodes
                .into_iter()
                .flat_map(|node| node.compositions(level))
                .map(|pieces| pieces.into_iter().map(Value::Bits).collect())
                .collect()
        };
        let product = |options: Vec<Vec<Vec<Value>>>| -> Vec<Vec<Value>> {
            options.iter().fold(vec![vec![]], |rows, options| {
                rows.iter()
                    .flat_map(|row| options.iter().map(move |o| [&row[..], &o[..]].concat()))
                    .collect()
            })
        };

        let mut out = BTreeMap::new();
        for structure in full_reduction(&h) {
            for (atom_idx, atom) in q.atoms().iter().enumerate() {
                let levels = &structure.edge_levels[atom_idx];
                let source = db.relation(&atom.relation).unwrap().tuples();
                let decompose = config.encoding == EncodingStrategy::Decomposed
                    && atom.vars.iter().filter(|v| is_interval(v)).count() >= 2;
                if !decompose {
                    let (name, _) =
                        reduced_relation_signature(q, atom_idx, levels, &id_to_name, &var_ids);
                    let rows = source.iter().flat_map(|tuple| {
                        product(
                            (atom.vars.iter().zip(tuple))
                                .map(|(v, &value)| match is_interval(v) {
                                    true => expand(v, value, levels[&var_ids[v]]),
                                    false => vec![vec![value]],
                                })
                                .collect(),
                        )
                    });
                    out.insert(name, rows.collect());
                    continue;
                }
                let tuple_id = |i: usize| Value::point(i as f64);
                let spine = source.iter().enumerate().map(|(i, tuple)| {
                    let carried = atom.vars.iter().zip(tuple).filter(|(v, _)| !is_interval(v));
                    std::iter::once(tuple_id(i))
                        .chain(carried.map(|(_, &value)| value))
                        .collect()
                });
                out.insert(
                    format!("{}@{}⟨id⟩", atom.relation, atom_idx),
                    spine.collect(),
                );
                for (col, var) in atom.vars.iter().enumerate() {
                    if !is_interval(var) {
                        continue;
                    }
                    let level = levels[&var_ids[var]];
                    let rows = source.iter().enumerate().flat_map(|(i, tuple)| {
                        product(vec![
                            vec![vec![tuple_id(i)]],
                            expand(var, tuple[col], level),
                        ])
                    });
                    out.insert(
                        format!("{}@{}⟨{}:{}⟩", atom.relation, atom_idx, var, level),
                        rows.collect(),
                    );
                }
            }
        }
        out
    }

    /// Under both encodings, the kernel builds exactly the oracle's relations:
    /// the same names, the same row sets, no duplicate rows.
    fn assert_kernel_matches_oracle(q: &Query, db: &Database) {
        for config in [ReductionConfig::default(), DECOMPOSED] {
            let fr = forward_reduction_with(q, db, config).unwrap();
            let expected = oracle_reduction(q, db, config);
            assert_eq!(
                fr.database
                    .relation_names()
                    .into_iter()
                    .collect::<BTreeSet<_>>(),
                expected.keys().cloned().collect::<BTreeSet<_>>(),
                "{config:?}"
            );
            for rel in fr.database.relations() {
                let rows = rel.tuples();
                let set: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
                assert_eq!(
                    set.len(),
                    rows.len(),
                    "{config:?}: duplicates in {}",
                    rel.name()
                );
                assert_eq!(set, expected[rel.name()], "{config:?}: {}", rel.name());
            }
            assert_eq!(
                fr.stats.transformed_tuples,
                expected.values().map(BTreeSet::len).sum::<usize>()
            );
        }
    }

    /// `n` deterministic rows, one interval per column: overlapping, nested,
    /// every fifth value a bare point, the last row repeating the first.
    fn interval_rows(n: usize, columns: usize, salt: usize) -> Vec<Vec<Value>> {
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

    fn database_of(relations: &[(&str, Vec<Vec<Value>>)]) -> Database {
        let mut db = Database::new_in(SharedDictionary::new());
        for (name, rows) in relations {
            db.insert_tuples(name, rows[0].len(), rows.clone());
        }
        db
    }

    #[test]
    fn kernel_matches_the_oracle_on_a_star() {
        // One variable of degree 3: levels 1 and 2 expand canonical
        // partitions, level 3 the leaf.
        let q = Query::parse("R([A]) & S([A]) & T([A])").unwrap();
        let db = database_of(&[
            ("R", interval_rows(9, 1, 0)),
            ("S", interval_rows(7, 1, 1)),
            ("T", interval_rows(8, 1, 2)),
        ]);
        assert_kernel_matches_oracle(&q, &db);
    }

    #[test]
    fn kernel_matches_the_oracle_on_the_triangle() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let db = database_of(&[
            ("R", interval_rows(8, 2, 0)),
            ("S", interval_rows(6, 2, 1)),
            ("T", interval_rows(7, 2, 2)),
        ]);
        assert_kernel_matches_oracle(&q, &db);
    }

    #[test]
    fn kernel_matches_the_oracle_on_two_variables_at_level_three() {
        // Both variables have degree 3, so an atom reaches levels (3, 3):
        // arity 6, the wide path of `Relation::dedup`.
        let q = Query::parse("R([A],[B]) & S([A],[B]) & T([A],[B])").unwrap();
        let db = database_of(&[
            ("R", interval_rows(6, 2, 0)),
            ("S", interval_rows(5, 2, 1)),
            ("T", interval_rows(5, 2, 2)),
        ]);
        let fr = forward_reduction(&q, &db).unwrap();
        assert!(fr.database.relations().any(|rel| rel.arity() == 6));
        assert_kernel_matches_oracle(&q, &db);
    }

    #[test]
    fn kernel_matches_the_oracle_with_carried_point_columns() {
        // EIJ: X and Y are equality-joined point variables carried through,
        // before, between and after the interval columns.
        let q = Query::parse("R(X,[A],[B]) & S([A],X,Y) & T(Y,[B])").unwrap();
        let with_points = |rows: Vec<Vec<Value>>, at: &[usize]| -> Vec<Vec<Value>> {
            (rows.into_iter().enumerate())
                .map(|(i, mut row)| {
                    for (j, &col) in at.iter().enumerate() {
                        row.insert(col, Value::point(((i + j) % 3) as f64));
                    }
                    row
                })
                .collect()
        };
        let db = database_of(&[
            ("R", with_points(interval_rows(8, 2, 0), &[0])),
            ("S", with_points(interval_rows(6, 1, 1), &[1, 2])),
            ("T", with_points(interval_rows(7, 1, 2), &[0])),
        ]);
        assert_kernel_matches_oracle(&q, &db);
    }

    /// The node lists of `intervals` in the tree over `tree_intervals`.
    fn node_lists(tree_intervals: &[Interval], intervals: &[Interval]) -> NodeLists {
        NodeLists::build(&SegmentTree::build(tree_intervals), intervals, None).unwrap()
    }

    #[test]
    fn rows_with_an_empty_canonical_partition_drop() {
        // The second interval lies outside the tree: no node, so its row
        // joins nothing and must not reach the output — at the partition
        // levels; its leaf still exists.
        let inside = Interval::new(0.0, 4.0);
        let nodes = node_lists(&[inside], &[inside, Interval::new(10.0, 11.0)]);
        let dict = SharedDictionary::new();
        let ids = [7.0, 8.0].map(|p| dict.intern(Value::point(p)));
        let build = |leaf: bool| {
            let plan = [
                PlanColumn::Carried(&ids),
                PlanColumn::Expand {
                    nodes: &nodes,
                    level: 2,
                    leaf,
                },
            ];
            build_transformed_relation("R", &dict, &plan, 2, None).unwrap()
        };
        let partitions = build(false);
        assert!(!partitions.is_empty());
        assert!(partitions.column(0).all(|v| v == Value::point(7.0)));
        assert!(build(true).column(0).any(|v| v == Value::point(8.0)));
    }

    #[test]
    fn a_token_cancelled_mid_transform_interrupts() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let db = database_of(&[("R", interval_rows(9, 1, 0)), ("S", interval_rows(9, 1, 1))]);
        let token = CancellationToken::new().with_check_interval(4);
        token.cancel();
        assert_eq!(
            forward_reduction_with_token(&q, &db, ReductionConfig::default(), Some(&token))
                .unwrap_err(),
            ReductionError::Interrupted(EvalError::Cancelled)
        );
        // The expansion loop itself polls: node lists built beforehand, the
        // token fires on the fourth row.
        let intervals: Vec<Interval> = (0..9).map(|i| Interval::new(i as f64, 9.0)).collect();
        let nodes = node_lists(&intervals, &intervals);
        let plan = [PlanColumn::Expand {
            nodes: &nodes,
            level: 1,
            leaf: false,
        }];
        let dict = SharedDictionary::new();
        assert_eq!(
            build_transformed_relation("R", &dict, &plan, 9, Some(&token)).unwrap_err(),
            ReductionError::Interrupted(EvalError::Cancelled)
        );
        // Fewer rows than the check interval never poll.
        assert!(build_transformed_relation("R", &dict, &plan, 3, Some(&token)).is_ok());
    }
}
