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
//! # Plan, then build on demand
//!
//! The reduction is split in two.  The **plan** ([`plan_forward_reduction`])
//! is cheap and runs once, on the caller's thread: it validates the query,
//! builds one segment tree per join interval variable, computes the tree
//! nodes of every source cell (`NodeLists`), enumerates the reduced
//! structures, and records the EJ queries plus one *spec* per distinct
//! transformed relation — which atom, which level per interval column,
//! whether it is a flat relation, a spine or a part.  No transformed tuple
//! exists yet.
//!
//! A [`ForwardReduction`] owns the plan and one **write-once cell** per
//! transformed relation.  [`ForwardReduction::relation`] fills a cell the
//! first time somebody asks for that relation, with the one routine that
//! builds transformed relations (`build_relation`); every later request is a
//! load.  Who asks first depends on the entry point:
//!
//! * [`forward_reduction_with`] (and [`forward_reduction`], its default-config
//!   shorthand) plans and then asks for *every* relation before returning, on
//!   the caller's thread — the standalone reduction, whose
//!   [`ForwardReduction::stats`] are the full sizes of Lemma 4.10;
//! * the engine's `evaluate*` only plans, and each disjunct worker asks for
//!   the relations of the disjunct it is about to evaluate.  A disjunction
//!   that is true at its first disjunct never builds the relations only the
//!   other disjuncts read; a false one builds all of them, spread over the
//!   workers.
//!
//! Two threads asking for the same empty cell do not build it twice: the
//! second waits for the first.  A build that is **interrupted** (its token is
//! cancelled or past its deadline) or that **panics** leaves its cell empty —
//! the half-built relation is dropped, never published — and the next
//! request builds it again from the plan, which a failed build cannot have
//! touched.
//!
//! # The transform kernel
//!
//! The transform never leaves the id domain.  The canonical partition and
//! the leaf of every cell are computed once per (atom, interval column), as
//! node ids (`NodeLists`), and shared by all level assignments of the atom.
//! One relation build (`build_relation`, which also builds the parts of the
//! decomposed encoding) is *seeds → sort → expand*.  A **seed** of a source
//! row is one id per source column: the row's id in a carried column, the id
//! of one of its nodes in an interval column.  A seed expands to one tuple
//! per choice of a composition of each of its nodes into `level` pieces, and
//! the map (seed, cuts) ↦ tuple is injective: concatenating a column's pieces
//! gives back its node, and the piece lengths give back the cuts.  So
//! distinct seeds expand to disjoint sets of pairwise distinct tuples, and a
//! relation is a set exactly when its seeds are: [`Relation::dedup`] sorts
//! the seeds, the only sort of a build.  That is Lemma 4.10's counting
//! argument read as an algorithm — `|R̃| = Σ_seeds ∏_columns C(|u| + level −
//! 1, level − 1)` before a tuple is written — so every output column is
//! allocated once at that length and filled seed by seed.  A piece is at
//! most as long as the tree is high, so its id is computed, not looked up
//! (the inline ids of [`SharedDictionary::intern`]): no hash, no lock, and
//! no allocation per row or per seed.  The rows end up in **seed order**
//! (ascending ids, column by column), each seed's tuples in cut order with
//! the first column varying slowest: a function of the source rows' *set*,
//! so equal inputs in any row order give equal columns.

use ij_hypergraph::{full_reduction, ReducedHypergraph, VarId, VarKind};
use ij_relation::sync::lock_recover;
use ij_relation::{
    faults, CancelTicker, CancellationToken, Database, EvalError, Query, Relation,
    SharedDictionary, Value, ValueId,
};
use ij_segtree::{BitString, Interval, SegmentTree};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Lock class of a transformed relation's build gate (`sync::lock_order`):
/// held by the one thread building the relation, waited on by every other
/// thread that needs it meanwhile.  The builder acquires nothing under it but
/// `dict-stripe` (bitstrings too long for an inline id, which no tree that
/// fits in memory produces), and nobody acquires a gate while holding another
/// lock.
const RELATION_BUILD: &str = "reduction-relation-build";

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

/// One atom of a reduced EJ query: the transformed relation name and the
/// variable bound to every column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedAtom {
    /// Name of the transformed relation, as [`ForwardReduction::relation`]
    /// takes it.
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
///
/// The three *size* fields — [`relations_built`](Self::relations_built),
/// [`transformed_tuples`](Self::transformed_tuples) and
/// [`max_relation_tuples`](Self::max_relation_tuples) — count the transformed
/// relations **materialised so far**.  Which that is depends on the entry
/// point: [`forward_reduction_with`] builds every relation, so on its result
/// the fields are the full sizes of `D̃` (`relations_built == num_relations`);
/// the engine's `evaluate_cancellable` builds a relation only when a disjunct
/// it evaluates reads it, so in its `EvaluationStats::reduction` the fields
/// say how much of `D̃` the evaluation needed.  Every other field is fixed by
/// the plan and identical under both.
#[derive(Debug, Clone, Default)]
pub struct ReductionStats {
    /// Per interval variable: (name, number of source intervals, segment tree
    /// height).
    pub variables: Vec<(String, usize, u8)>,
    /// Size of the input database (tuples).
    pub input_tuples: usize,
    /// Total number of tuples across the transformed relations built so far
    /// (all of them under [`forward_reduction_with`]; see the type docs).
    pub transformed_tuples: usize,
    /// The largest transformed relation built so far (the largest of all
    /// under [`forward_reduction_with`]).
    pub max_relation_tuples: usize,
    /// Number of distinct transformed relations the plan names, built or not.
    pub num_relations: usize,
    /// Number of transformed relations built so far: `num_relations` under
    /// [`forward_reduction_with`], possibly fewer under the engine's
    /// `evaluate_cancellable`.
    pub relations_built: usize,
    /// Number of EJ queries in the disjunction.
    pub num_queries: usize,
}

/// The result of the forward reduction: the EJ queries of the disjunction and
/// the transformed database `D̃` they run over.
///
/// `D̃` is held as one write-once cell per transformed relation.
/// [`ForwardReduction::relation`] fills a cell the first time the relation
/// is asked for and loads it ever after; a second thread asking meanwhile
/// waits for the build in flight, and a build that is interrupted or panics
/// leaves its cell empty — never a partial relation — for the next request
/// to fill.  [`forward_reduction_with`] returns with every cell filled;
/// [`plan_forward_reduction`] returns with none, for an evaluator (the
/// engine's `evaluate*`) that builds what its disjuncts read.
#[derive(Debug)]
pub struct ForwardReduction {
    /// The EJ queries of the disjunction `⋁ Q̃_i`.
    pub queries: Vec<ReducedQuery>,
    /// Statistics, as of the moment this value was returned: from
    /// [`forward_reduction_with`] the size fields cover all
    /// of `D̃`; from [`plan_forward_reduction`] nothing is built yet and they
    /// are zero.  [`ForwardReduction::materialised_stats`] recounts.
    pub stats: ReductionStats,
    /// The dictionary of the *input* database: transformed ids must be
    /// join-compatible with the carried columns, and a workspace-scoped
    /// input keeps its reduction scoped too.
    dict: SharedDictionary,
    /// Per atom of the original query, what its relation builds read.
    sources: Vec<AtomSource>,
    /// The per-tuple identifiers `0.0, 1.0, …` of the decomposed encoding,
    /// interned once: a prefix of them serves the spine and every part of
    /// every decomposed atom.
    tuple_ids: Vec<ValueId>,
    /// The transformed relations of `D̃`, in first-use order of the plan.
    relations: Vec<PlannedRelation>,
    /// Relation name → index into `relations`.
    by_name: BTreeMap<String, usize>,
}

/// One transformed relation of `D̃`: how to build it, and the write-once
/// cell holding it once somebody has.
#[derive(Debug)]
struct PlannedRelation {
    name: String,
    /// `None` for a relation supplied prebuilt ([`ForwardReduction::prebuilt`]).
    spec: Option<RelationSpec>,
    cell: OnceLock<Relation>,
    /// Serialises builders of this relation, so a second thread needing it
    /// waits for the first instead of building it again.
    building: Mutex<()>,
}

/// What one transformed relation is made of: an atom of the original query
/// and, per output column group, where it comes from.  A flat relation lists
/// the atom's columns in order; a spine is the tuple identifier plus the
/// carried columns; a part is the tuple identifier plus one expanded column.
#[derive(Debug)]
struct RelationSpec {
    atom: usize,
    columns: Vec<SpecColumn>,
}

#[derive(Debug, Clone, Copy)]
enum SpecColumn {
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
}

impl SpecColumn {
    /// The source column this one reads, if it reads one.
    fn source<'a>(&self, atom: &'a AtomSource) -> Option<&'a SourceColumn> {
        match *self {
            SpecColumn::TupleId => None,
            SpecColumn::Carried { col } | SpecColumn::Expand { col, .. } => {
                Some(&atom.columns[col])
            }
        }
    }
}

/// What the relation builds of one atom read from its source relation.
#[derive(Debug)]
struct AtomSource {
    rows: usize,
    columns: Vec<SourceColumn>,
}

#[derive(Debug)]
enum SourceColumn {
    /// The ids of a point column.
    Point(Vec<ValueId>),
    /// The segment-tree nodes of an interval column.
    Interval(NodeLists),
}

impl ForwardReduction {
    /// A reduction over relations built elsewhere (hand-made disjunctions in
    /// tests and benchmarks): every cell starts filled.
    pub fn prebuilt(relations: Vec<Relation>, queries: Vec<ReducedQuery>) -> Self {
        let mut reduction = ForwardReduction {
            stats: ReductionStats {
                num_queries: queries.len(),
                ..ReductionStats::default()
            },
            queries,
            // Never read: nothing is left to build.
            dict: SharedDictionary::global().clone(),
            sources: Vec::new(),
            tuple_ids: Vec::new(),
            relations: Vec::new(),
            by_name: BTreeMap::new(),
        };
        for relation in relations {
            let planned = reduction.plan_relation(relation.name().to_string(), None);
            // A repeated name keeps its first relation.
            let _ = planned.cell.set(relation);
        }
        reduction.stats = reduction.materialised_stats();
        reduction
    }

    /// Registers the relation `name` unless the plan has it already.
    fn plan_relation(&mut self, name: String, spec: Option<RelationSpec>) -> &PlannedRelation {
        let index = match self.by_name.get(&name) {
            Some(&index) => index,
            None => {
                self.by_name.insert(name.clone(), self.relations.len());
                self.relations.push(PlannedRelation {
                    name,
                    spec,
                    cell: OnceLock::new(),
                    building: Mutex::new(()),
                });
                self.relations.len() - 1
            }
        };
        &self.relations[index]
    }

    /// The transformed relation `name`, built now if nobody asked for it
    /// before.  A concurrent request for the same relation waits for the
    /// build in flight.  `token` is polled before a build starts and then
    /// every [`check_interval`](CancellationToken::check_interval) units of
    /// the build — a seed collected or a tuple written; only the sort of the
    /// seeds in between runs unpolled.  An interrupted (or panicking) build
    /// leaves the relation unbuilt, and a later request builds it again.
    /// Requests for a relation already built never fail.  The relation is a
    /// duplicate-free set in seed order (module docs), not sorted by id.
    ///
    /// # Panics
    ///
    /// If the plan has no relation `name` — the names to ask for are those of
    /// [`ForwardReduction::queries`].
    pub fn relation(
        &self,
        name: &str,
        token: Option<&CancellationToken>,
    ) -> Result<&Relation, EvalError> {
        let index = *self
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("no transformed relation `{name}` in this reduction"));
        let planned = &self.relations[index];
        if let Some(built) = planned.cell.get() {
            return Ok(built);
        }
        let _building = lock_recover(&planned.building, RELATION_BUILD);
        // Whoever held the gate before either filled the cell or failed.
        if let Some(built) = planned.cell.get() {
            return Ok(built);
        }
        // A caller asking for one relation after another (a disjunct worker
        // binding its atoms) polls between the builds, however small each is.
        if let Some(token) = token {
            token.checkpoint()?;
        }
        let spec = planned
            .spec
            .as_ref()
            .expect("prebuilt relations are filled at construction");
        let rows = self.sources[spec.atom].rows;
        let built = build_relation(name, &self.dict, &self.resolve(spec), rows, token)?;
        Ok(planned.cell.get_or_init(|| built))
    }

    /// Builds every relation not built yet, in plan order, on this thread.
    fn materialise_all(&self) -> Result<(), EvalError> {
        for planned in &self.relations {
            self.relation(&planned.name, None)?;
        }
        Ok(())
    }

    /// The transformed relations built so far, in plan order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations
            .iter()
            .filter_map(|planned| planned.cell.get())
    }

    /// [`ForwardReduction::stats`] with the size fields recounted over the
    /// relations built by now.
    pub fn materialised_stats(&self) -> ReductionStats {
        let mut stats = ReductionStats {
            num_relations: self.relations.len(),
            relations_built: 0,
            transformed_tuples: 0,
            max_relation_tuples: 0,
            ..self.stats.clone()
        };
        for relation in self.relations() {
            stats.relations_built += 1;
            stats.transformed_tuples += relation.len();
            stats.max_relation_tuples = stats.max_relation_tuples.max(relation.len());
        }
        stats
    }

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
    /// The reduction was interrupted, in its plan or in a relation build:
    /// the caller's [`CancellationToken`] was cancelled or its deadline
    /// expired.  The reduction under construction is dropped whole.
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
/// explicit [`ReductionConfig`]: [`plan_forward_reduction`] followed by a
/// request for every relation of the plan, so all of `D̃` is built before the
/// call returns and [`ForwardReduction::stats`] reports all of it.
pub fn forward_reduction_with(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
) -> Result<ForwardReduction, ReductionError> {
    let mut reduction = plan_forward_reduction(q, db, config, None)?;
    reduction.materialise_all()?;
    reduction.stats = reduction.materialised_stats();
    Ok(reduction)
}

/// Plans the forward reduction of `q` over `db` without building any
/// transformed relation: the returned [`ForwardReduction`] carries the EJ
/// queries and builds each relation of `D̃` the first time
/// [`ForwardReduction::relation`] is asked for it.  This is all of the
/// reduction that can reject its input.  `token` is polled by the
/// segment-tree node pass over every interval column, once per source tuple,
/// every [`check_interval`](CancellationToken::check_interval) tuples, and
/// aborts it with [`ReductionError::Interrupted`]; the segment-tree builds
/// and the structural reduction run to completion (both are small: `O(N)`
/// interval collection and a per-*shape* permutation enumeration).  Relation
/// builds poll the token [`ForwardReduction::relation`] is given.
pub fn plan_forward_reduction(
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
            let nodes = NodeLists::build(&tree, &intervals, db.dictionary(), token)?;
            node_lists.insert(key, nodes);
        }
    }

    // --- what the relation builds will read: per atom and source column,
    // the node lists of an interval column or the ids of a point column ----
    let is_interval = |v: &String| q.var_kind(v) == Some(VarKind::Interval);
    let sources: Vec<AtomSource> = (q.atoms().iter().enumerate())
        .map(|(atom_idx, atom)| {
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
                SpecColumn::Expand {
                    col,
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
                // Carried columns copy their ids, interval columns expand
                // into `level` bitstring columns.
                let columns = (0..atom.vars.len()).map(|col| match is_interval(&atom.vars[col]) {
                    true => expand(col),
                    false => SpecColumn::Carried { col },
                });
                let spec = RelationSpec {
                    atom: atom_idx,
                    columns: columns.collect(),
                };
                reduction.plan_relation(name.clone(), Some(spec));
                atoms.push(ReducedAtom {
                    relation: name,
                    vars,
                });
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
            let spine_name = format!("{}@{}⟨id⟩", atom.relation, atom_idx);
            let carried = (0..atom.vars.len()).filter(|&col| !is_interval(&atom.vars[col]));
            let columns = std::iter::once(SpecColumn::TupleId)
                .chain(carried.clone().map(|col| SpecColumn::Carried { col }));
            let spine = RelationSpec {
                atom: atom_idx,
                columns: columns.collect(),
            };
            reduction.plan_relation(spine_name.clone(), Some(spine));
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
                let part = RelationSpec {
                    atom: atom_idx,
                    columns: vec![SpecColumn::TupleId, expand(col)],
                };
                reduction.plan_relation(part_name.clone(), Some(part));
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
        reduction.queries.push(ReducedQuery { atoms, structure });
    }
    reduction.stats = reduction.materialised_stats();
    Ok(reduction)
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

/// The segment-tree nodes of one interval column, as ids, computed once and
/// shared by every level assignment of its atom: per source tuple, the
/// canonical partition of its interval (Definition 4.9, second bullet: the
/// levels below the variable's degree) and the leaf of its left endpoint
/// (third bullet: the top level).
#[derive(Debug)]
struct NodeLists {
    /// Row `r`'s canonical partition is
    /// `partitions[partition_starts[r]..partition_starts[r + 1]]`.
    partitions: Vec<ValueId>,
    partition_starts: Vec<usize>,
    leaves: Vec<ValueId>,
}

impl NodeLists {
    fn build(
        tree: &SegmentTree,
        intervals: &[Interval],
        dict: &SharedDictionary,
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        let mut lists = NodeLists {
            partitions: Vec::new(),
            partition_starts: vec![0],
            leaves: Vec::with_capacity(intervals.len()),
        };
        let id_of = |node: BitString| dict.intern(Value::Bits(node));
        let mut ticker = CancelTicker::new(token);
        for &iv in intervals {
            ticker.tick()?;
            tree.for_each_canonical_node(iv, |node| lists.partitions.push(id_of(node)));
            lists.partition_starts.push(lists.partitions.len());
            lists.leaves.push(id_of(tree.leaf_of_interval(iv)));
        }
        Ok(lists)
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

impl<'a> PlanColumn<'a> {
    /// Number of output columns.
    fn width(&self) -> usize {
        match *self {
            PlanColumn::Carried(_) => 1,
            PlanColumn::Expand { level, .. } => level,
        }
    }

    /// What a source row contributes to the seeds in this column: its id, or
    /// the nodes it expands from — its leaf at the top level, its canonical
    /// partition below (possibly empty: the row joins nothing).
    fn seeds_of(&self, row: usize) -> &'a [ValueId] {
        match *self {
            PlanColumn::Carried(ids) => &ids[row..=row],
            PlanColumn::Expand { nodes, leaf, .. } if leaf => &nodes.leaves[row..=row],
            PlanColumn::Expand { nodes, .. } => {
                &nodes.partitions[nodes.partition_starts[row]..nodes.partition_starts[row + 1]]
            }
        }
    }

    /// The node the seed id `seed` names in this column, to be cut into
    /// [`width`](Self::width) pieces; `None` for the id of a carried column.
    fn node_of(&self, dict: &SharedDictionary, seed: ValueId) -> Option<BitString> {
        let expands = matches!(self, PlanColumn::Expand { .. });
        expands.then(|| dict.resolve(seed).as_bits().expect("a node id"))
    }
}

impl ForwardReduction {
    /// The build plan of a spec: its columns, borrowed from what this
    /// reduction keeps of the source atom.
    fn resolve(&self, spec: &RelationSpec) -> Vec<PlanColumn<'_>> {
        let source = &self.sources[spec.atom];
        let resolve = |column: &SpecColumn| match (*column, column.source(source)) {
            (SpecColumn::TupleId, _) => PlanColumn::Carried(&self.tuple_ids[..source.rows]),
            (SpecColumn::Carried { .. }, Some(SourceColumn::Point(ids))) => {
                PlanColumn::Carried(ids)
            }
            (SpecColumn::Expand { level, leaf, .. }, Some(SourceColumn::Interval(nodes))) => {
                PlanColumn::Expand { nodes, level, leaf }
            }
            _ => unreachable!("the plan carries point columns and expands interval columns"),
        };
        spec.columns.iter().map(resolve).collect()
    }
}

/// Builds one transformed relation (Definition 4.9, applied once per
/// `Expand` column of the plan) — the one routine that materialises `D̃`,
/// behind every cell of a [`ForwardReduction`], as *seeds → sort → expand*
/// (module docs).  Only the seeds are sorted, the output columns are
/// allocated once, and nothing is allocated per source row or per seed.
fn build_relation(
    name: &str,
    dict: &SharedDictionary,
    plan: &[PlanColumn<'_>],
    source_rows: usize,
    token: Option<&CancellationToken>,
) -> Result<Relation, EvalError> {
    faults::point("reduction-transform");
    // One unit of work per seed collected and per tuple written: a source row
    // or a seed stands for `O(log^j N)` of them, too many between two polls.
    let mut ticker = CancelTicker::new(token);

    // (1) The seeds: per source row, the cross product of its columns' ids.
    let mut seeds: Vec<Vec<ValueId>> = vec![Vec::new(); plan.len()];
    let mut collected = 0;
    for row in 0..source_rows {
        let count: usize = (plan.iter().map(|column| column.seeds_of(row).len())).product();
        // An empty canonical partition: the tuple joins nothing.
        if count == 0 {
            continue;
        }
        ticker.advance(count)?;
        let mut outer = 1;
        for (column, seeds) in plan.iter().zip(&mut seeds) {
            let ids = column.seeds_of(row);
            let inner = count / (outer * ids.len());
            repeat(seeds, ids.iter().copied(), inner, outer);
            outer *= ids.len();
        }
        collected += count;
    }
    let mut seeds = Relation::from_id_columns_in(name, collected, seeds, dict);
    seeds.dedup();

    // (2) The exact size: distinct seeds expand to disjoint sets of tuples,
    // `C(|u| + level − 1, level − 1)` options per node `u` (Lemma 4.10).
    let tuples_of = |seed: usize| -> usize {
        let options = |(c, column): (usize, &PlanColumn<'_>)| {
            let node = column.node_of(dict, seeds.id_at(seed, c));
            node.map_or(1, |node| node.composition_count(column.width()) as usize)
        };
        plan.iter().enumerate().map(options).product()
    };
    let counts: Vec<usize> = (0..seeds.len()).map(tuples_of).collect();
    let total: usize = counts.iter().sum();

    // (3) The tuples: per seed, the cross product of its columns' options
    // (`width` ids each), the first column varying slowest.
    let arity = plan.iter().map(PlanColumn::width).sum();
    let mut columns: Vec<Vec<ValueId>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
    let (mut options, mut cuts) = (Vec::new(), Vec::new());
    for (seed, &count) in counts.iter().enumerate() {
        ticker.advance(count)?;
        let (mut outer, mut first) = (1, 0);
        for (c, column) in plan.iter().enumerate() {
            let (id, width) = (seeds.id_at(seed, c), column.width());
            options.clear();
            match column.node_of(dict, id) {
                Some(node) => push_compositions(dict, node, width, &mut cuts, &mut options),
                None => options.push(id),
            }
            let n = options.len() / width;
            for (j, out) in columns[first..first + width].iter_mut().enumerate() {
                let pieces = options.iter().skip(j).step_by(width).copied();
                repeat(out, pieces, count / (outer * n), outer);
            }
            outer *= n;
            first += width;
        }
    }
    // Lemma 4.10's count, taken in (2), against the rows written in (3):
    // `from_id_columns_in` asserts that every column holds `total` ids.
    Ok(Relation::from_id_columns_in(name, total, columns, dict))
}

/// Appends one column of a cross product to `out`: each of `ids` `inner`
/// times in a row, and that pattern `outer` times over.
fn repeat(out: &mut Vec<ValueId>, ids: impl Iterator<Item = ValueId>, inner: usize, outer: usize) {
    let start = out.len();
    for id in ids {
        out.resize(out.len() + inner, id);
    }
    let pattern = out.len() - start;
    for _ in 1..outer {
        out.extend_from_within(out.len() - pattern..);
    }
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert_eq!(fr.relations().count(), 12);
        // Every reduced query references existing relations with matching arity.
        for rq in &fr.queries {
            for atom in &rq.atoms {
                let rel = fr.relation(&atom.relation, None).unwrap();
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
        for rel in fr.relations() {
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
        for rel in fr.relations() {
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
                let rel = fr.relation(&atom.relation, None).unwrap();
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
        for rel in fr.relations() {
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
                fr.relations()
                    .map(|rel| rel.name().to_string())
                    .collect::<BTreeSet<_>>(),
                expected.keys().cloned().collect::<BTreeSet<_>>(),
                "{config:?}"
            );
            for rel in fr.relations() {
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
        // two column groups of three, filled from a two-column seed.
        let q = Query::parse("R([A],[B]) & S([A],[B]) & T([A],[B])").unwrap();
        let db = database_of(&[
            ("R", interval_rows(6, 2, 0)),
            ("S", interval_rows(5, 2, 1)),
            ("T", interval_rows(5, 2, 2)),
        ]);
        let fr = forward_reduction(&q, &db).unwrap();
        assert!(fr.relations().any(|rel| rel.arity() == 6));
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
        let tree = SegmentTree::build(tree_intervals);
        NodeLists::build(&tree, intervals, &SharedDictionary::new(), None).unwrap()
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
            build_relation("R", &dict, &plan, 2, None).unwrap()
        };
        let partitions = build(false);
        assert!(!partitions.is_empty());
        assert!(partitions.column(0).all(|v| v == Value::point(7.0)));
        assert!(build(true).column(0).any(|v| v == Value::point(8.0)));
    }

    /// A one-row node list made by hand: the row's canonical partition and
    /// its leaf are both the single node `node`.
    fn single_node(dict: &SharedDictionary, node: BitString) -> NodeLists {
        let id = dict.intern(Value::Bits(node));
        NodeLists {
            partitions: vec![id],
            partition_starts: vec![0, 1],
            leaves: vec![id],
        }
    }

    #[test]
    fn a_token_cancelled_mid_transform_interrupts() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let db = database_of(&[("R", interval_rows(9, 1, 0)), ("S", interval_rows(9, 1, 1))]);
        let token = CancellationToken::new().with_check_interval(4);
        token.cancel();
        assert_eq!(
            plan_forward_reduction(&q, &db, ReductionConfig::default(), Some(&token)).unwrap_err(),
            ReductionError::Interrupted(EvalError::Cancelled)
        );
        // The build itself polls, one unit per seed collected and one per
        // tuple written: node lists built beforehand, one leaf per row, so
        // two rows are 2 + 2 units and the token fires on the fourth.
        let intervals: Vec<Interval> = (0..9).map(|i| Interval::new(i as f64, 9.0)).collect();
        let nodes = node_lists(&intervals, &intervals);
        let plan = [PlanColumn::Expand {
            nodes: &nodes,
            level: 1,
            leaf: true,
        }];
        let dict = SharedDictionary::new();
        for rows in [2, 9] {
            assert_eq!(
                build_relation("R", &dict, &plan, rows, Some(&token)).unwrap_err(),
                EvalError::Cancelled
            );
        }
        // Fewer seeds plus tuples than the check interval never poll.
        assert!(build_relation("R", &dict, &plan, 1, Some(&token)).is_ok());
    }

    #[test]
    fn one_seed_expanding_past_the_check_interval_polls() {
        // One source row, one seed: a per-seed count would be 1 + 1 units and
        // never reach the interval.  Its 13-bit leaf has C(15, 2) = 105
        // compositions into three pieces, and the poll unit is the tuple.
        let dict = SharedDictionary::new();
        let nodes = single_node(&dict, BitString::from_bits(0b1_0110_0111_0001, 13));
        let plan = [PlanColumn::Expand {
            nodes: &nodes,
            level: 3,
            leaf: true,
        }];
        assert_eq!(
            build_relation("R", &dict, &plan, 1, None).unwrap().len(),
            105
        );
        let token = CancellationToken::new().with_check_interval(4);
        token.cancel();
        assert_eq!(
            build_relation("R", &dict, &plan, 1, Some(&token)).unwrap_err(),
            EvalError::Cancelled
        );
    }

    #[test]
    fn a_node_too_long_for_an_inline_id_goes_through_the_dictionary() {
        // No tree that fits in memory is 30 levels tall, so the node list is
        // made by hand.  The node and its one 30-bit piece are stored in the
        // dictionary, every shorter piece has its inline id.
        let dict = SharedDictionary::new();
        let node = BitString::from_bits(0x2AAA_AAAA | 1, ij_relation::MAX_INLINE_BITS + 1);
        let nodes = single_node(&dict, node);
        let carried = [dict.intern(Value::point(7.0))];
        for (level, leaf) in [(1, true), (2, false), (3, true)] {
            let plan = [
                PlanColumn::Expand {
                    nodes: &nodes,
                    level,
                    leaf,
                },
                PlanColumn::Carried(&carried),
            ];
            let built = build_relation("R", &dict, &plan, 1, None).unwrap();
            let expected: Vec<Vec<Value>> = (node.compositions(level))
                .map(|pieces| pieces.into_iter().map(Value::Bits).collect())
                .map(|mut row: Vec<Value>| {
                    row.push(Value::point(7.0));
                    row
                })
                .collect();
            // One seed: its compositions in cut order.
            assert_eq!(built.tuples(), expected, "level {level}");
        }
    }

    #[test]
    fn push_compositions_agrees_with_the_paper_facing_iterator_and_the_count() {
        // The exact-size fill rests on the three spellings of 𝔉(u, i)
        // agreeing: same pieces, same order, `composition_count` of them.
        let dict = SharedDictionary::new();
        let (mut cuts, mut ids) = (Vec::new(), Vec::new());
        for len in 0..=6u8 {
            for bits in 0..1u64 << len {
                let node = BitString::from_bits(bits, len);
                for level in 1..=4 {
                    ids.clear();
                    push_compositions(&dict, node, level, &mut cuts, &mut ids);
                    let expected: Vec<ValueId> = (node.compositions(level).flatten())
                        .map(|piece| dict.intern(Value::Bits(piece)))
                        .collect();
                    assert_eq!(ids, expected, "{node} into {level}");
                    assert_eq!(
                        (ids.len() / level) as u64,
                        node.composition_count(level),
                        "{node} into {level}"
                    );
                }
            }
        }
    }

    /// The query shapes of the property tests: a star of degree 3 (levels 1
    /// and 2 expand canonical partitions, level 3 the leaf), the triangle,
    /// two variables reaching levels (3, 3), and an EIJ query carrying the
    /// point variables X and Y before, between and after interval columns.
    const SHAPES: [&str; 4] = [
        "R([A]) & S([A]) & T([A])",
        "R([A],[B]) & S([B],[C]) & T([A],[C])",
        "R([A],[B]) & S([A],[B]) & T([A],[B])",
        "R(X,[A],[B]) & S([A],X,Y) & T(Y,[B])",
    ];

    /// One relation's rows, before a query shape gives them an arity and
    /// column kinds: three raw cells `(lo, width, kind)` per row.
    type RawRows = Vec<Vec<(u32, u32, u32)>>;

    /// A random small instance: a shape of [`SHAPES`] and raw rows for its
    /// three relations over a domain small enough that intervals nest, touch
    /// at closed endpoints and repeat.
    fn arb_instance() -> impl Strategy<Value = (usize, Vec<RawRows>)> {
        let row = proptest::collection::vec((0u32..8, 0u32..5, 0u32..4), 3);
        let rows = proptest::collection::vec(row, 1..6);
        (0..SHAPES.len(), proptest::collection::vec(rows, 3))
    }

    /// The instance as a query and a database over `dict`, each relation's
    /// rows in the order `order` puts them.  A point column holds one of three points; an
    /// interval column an interval of width 0 to 4, a quarter of the
    /// zero-width ones as a bare point; every relation repeats its first row.
    fn instance(
        (shape, relations): &(usize, Vec<RawRows>),
        dict: &SharedDictionary,
        order: impl Fn(&mut Vec<Vec<Value>>),
    ) -> (Query, Database) {
        let q = Query::parse(SHAPES[*shape]).unwrap();
        let cell = |var: &String, (lo, width, kind): (u32, u32, u32)| match q.var_kind(var) {
            Some(VarKind::Interval) if (width, kind) == (0, 0) => Value::point(lo as f64),
            Some(VarKind::Interval) => iv(lo as f64, (lo + width) as f64),
            _ => Value::point((lo % 3) as f64),
        };
        let mut db = Database::new_in(dict.clone());
        for (atom, raw) in q.atoms().iter().zip(relations) {
            let mut rows: Vec<Vec<Value>> = (raw.iter().chain(&raw[..1]))
                .map(|row| (atom.vars.iter().zip(row).map(|(v, &c)| cell(v, c))).collect())
                .collect();
            order(&mut rows);
            db.insert_tuples(&atom.relation, atom.vars.len(), rows);
        }
        (q, db)
    }

    /// `Σ_{distinct seeds} ∏_columns C(|u| + i − 1, i − 1)` for one planned
    /// relation, the seeds collected the slow way: a set of id rows.
    fn size_by_lemma_4_10(fr: &ForwardReduction, planned: &PlannedRelation) -> u64 {
        let spec = planned.spec.as_ref().unwrap();
        let plan = fr.resolve(spec);
        let mut seeds: BTreeSet<Vec<ValueId>> = BTreeSet::new();
        for row in 0..fr.sources[spec.atom].rows {
            let of_row = plan.iter().fold(vec![vec![]], |seeds, column| {
                let extended = |seed: &Vec<ValueId>| {
                    let seed = seed.clone();
                    (column.seeds_of(row).iter()).map(move |&id| [&seed[..], &[id]].concat())
                };
                seeds.iter().flat_map(extended).collect()
            });
            seeds.extend(of_row);
        }
        let options = |(id, column): (&ValueId, &PlanColumn<'_>)| match *column {
            PlanColumn::Carried(_) => 1,
            PlanColumn::Expand { level, .. } => {
                let node = fr.dict.resolve(*id).as_bits().unwrap();
                node.composition_count(level)
            }
        };
        (seeds.iter())
            .map(|seed| seed.iter().zip(&plan).map(options).product::<u64>())
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Repeated rows, nested and touching intervals, bare points in
        /// interval columns, carried point columns: the kernel builds the
        /// oracle's relations as duplicate-free sets, under both encodings.
        #[test]
        fn kernel_matches_the_oracle_on_random_instances(raw in arb_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            assert_kernel_matches_oracle(&q, &db);
        }

        /// Lemma 4.10 as an identity: a relation has exactly one tuple per
        /// distinct seed and per choice of one composition in each column.
        #[test]
        fn relation_sizes_are_the_sum_over_distinct_seeds(raw in arb_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            for config in [ReductionConfig::default(), DECOMPOSED] {
                let fr = forward_reduction_with(&q, &db, config).unwrap();
                for planned in &fr.relations {
                    let built = fr.relation(&planned.name, None).unwrap();
                    prop_assert_eq!(
                        built.len() as u64,
                        size_by_lemma_4_10(&fr, planned),
                        "{:?}: {}", config, &planned.name
                    );
                }
            }
        }

        /// A transformed relation is a function of its source rows' *set*:
        /// reversing or rotating the rows of every source relation leaves it
        /// equal column for column, so a trie-cache fingerprint — a function
        /// of the columns — cannot tell the orders apart either.  (Over one
        /// dictionary: a carried value's id is its interning rank.)  The
        /// spine and parts of a decomposed atom are left out: their tuple
        /// identifiers are row positions.
        #[test]
        fn source_row_order_does_not_change_a_relation(raw in arb_instance(), by in 1usize..5) {
            let dict = SharedDictionary::new();
            for config in [ReductionConfig::default(), DECOMPOSED] {
                let build = |order: &dyn Fn(&mut Vec<Vec<Value>>)| {
                    let (q, db) = instance(&raw, &dict, order);
                    forward_reduction_with(&q, &db, config).unwrap()
                };
                let original = build(&|_| ());
                let reordered = [
                    build(&|rows| rows.reverse()),
                    build(&|rows| { let n = rows.len(); rows.rotate_left(by % n) }),
                ];
                for planned in &original.relations {
                    let spec = planned.spec.as_ref().unwrap();
                    if spec.columns.iter().any(|c| matches!(c, SpecColumn::TupleId)) {
                        continue;
                    }
                    let built = original.relation(&planned.name, None).unwrap();
                    for other in &reordered {
                        prop_assert_eq!(
                            built,
                            other.relation(&planned.name, None).unwrap(),
                            "{:?}: {}", config, &planned.name
                        );
                    }
                }
            }
        }
    }

    /// Under both encodings: the star's plan and, as the reference, its
    /// fully built reduction.
    fn star_plan_and_reference(config: ReductionConfig) -> (ForwardReduction, ForwardReduction) {
        let q = Query::parse("R([A],[B]) & S([A],[B]) & T([A])").unwrap();
        let db = database_of(&[
            ("R", interval_rows(9, 2, 0)),
            ("S", interval_rows(7, 2, 1)),
            ("T", interval_rows(8, 1, 2)),
        ]);
        (
            plan_forward_reduction(&q, &db, config, None).unwrap(),
            forward_reduction_with(&q, &db, config).unwrap(),
        )
    }

    #[test]
    fn a_plan_builds_relations_on_first_use_only() {
        for config in [ReductionConfig::default(), DECOMPOSED] {
            let (plan, reference) = star_plan_and_reference(config);
            assert_eq!(plan.relations().count(), 0);
            assert_eq!(plan.stats.relations_built, 0);
            assert_eq!(plan.stats.transformed_tuples, 0);
            assert_eq!(plan.stats.num_relations, reference.stats.num_relations);
            assert_eq!(
                reference.stats.relations_built,
                reference.stats.num_relations
            );

            // Building what the first query reads builds nothing else.
            let first = &plan.queries[0];
            for atom in &first.atoms {
                let built = plan.relation(&atom.relation, None).unwrap();
                assert_eq!(built, reference.relation(&atom.relation, None).unwrap());
                // A second request is the same relation, not a second build.
                assert!(std::ptr::eq(
                    built,
                    plan.relation(&atom.relation, None).unwrap()
                ));
            }
            let stats = plan.materialised_stats();
            assert_eq!(stats.relations_built, first.atoms.len());
            assert!(stats.relations_built < stats.num_relations);
            assert!(stats.transformed_tuples < reference.stats.transformed_tuples);

            plan.materialise_all().unwrap();
            let stats = plan.materialised_stats();
            assert_eq!(stats.transformed_tuples, reference.stats.transformed_tuples);
            assert_eq!(
                stats.max_relation_tuples,
                reference.stats.max_relation_tuples
            );
        }
    }

    #[test]
    fn an_interrupted_build_leaves_the_relation_unbuilt() {
        let (plan, reference) = star_plan_and_reference(ReductionConfig::default());
        let name = plan.queries[0].atoms[0].relation.clone();
        let cancelled = CancellationToken::new().with_check_interval(4);
        cancelled.cancel();
        assert_eq!(
            plan.relation(&name, Some(&cancelled)).unwrap_err(),
            EvalError::Cancelled
        );
        let expired = CancellationToken::new().with_budget(std::time::Duration::ZERO);
        assert!(matches!(
            plan.relation(&name, Some(&expired)),
            Err(EvalError::DeadlineExceeded { .. })
        ));
        assert_eq!(plan.relations().count(), 0);
        // The next request builds it from the untouched plan; once built, not
        // even a cancelled token fails the request.
        let built = plan.relation(&name, None).unwrap();
        assert_eq!(built, reference.relation(&name, None).unwrap());
        assert!(plan.relation(&name, Some(&cancelled)).is_ok());
    }

    #[test]
    fn concurrent_requests_share_one_build() {
        let (plan, reference) = star_plan_and_reference(DECOMPOSED);
        let names: Vec<&str> = reference.relations().map(Relation::name).collect();
        // The addresses of the relations each worker was handed.
        let seen: Vec<BTreeSet<usize>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|worker| {
                    let (plan, names) = (&plan, &names);
                    // Every worker asks for every relation, each from a
                    // different starting point.
                    let request = move |i: usize| {
                        let name = names[(i + worker) % names.len()];
                        plan.relation(name, None).unwrap() as *const Relation as usize
                    };
                    scope.spawn(move || (0..names.len()).map(request).collect())
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // All four saw the same relation objects: one per name.
        assert!(seen.iter().all(|s| s == &seen[0] && s.len() == names.len()));
        assert_eq!(
            plan.materialised_stats().transformed_tuples,
            reference.stats.transformed_tuples
        );
    }
}
