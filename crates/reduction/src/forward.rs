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
//! * the engine's `evaluate*` only plans ([`plan_forward_reduction`]), and
//!   each disjunct worker asks for the relations of the disjunct it is about
//!   to evaluate.  A disjunction that is true at its first disjunct never
//!   builds the relations only the other disjuncts read; a false one builds
//!   all of them, spread over the workers.
//!
//! The two plans differ in one column.  Definition 4.9 gives the top-level
//! atom of an interval variable `X` of degree `k` the pieces `X#1..X#k` of
//! its leaf, and `X#k` is in no other atom: no join reads it, and the
//! engine's join projects such singleton columns away (Appendix E.4/F).
//! For a variable of degree 2, [`plan_forward_reduction`] never builds that
//! column: the top-level atom gets `X#1` alone, one piece per ancestor-or-self
//! of the row's leaf — the prefixes of the leaf, which is what the first of
//! two pieces ranges over.  Such a relation is the projection of
//! [`forward_reduction_with`]'s relation of the same name onto its live
//! columns, and its disjuncts are those of [`forward_reduction_with`]
//! without their `X#2` variables.  So the plan's sizes are *live* sizes, at
//! most those of `D̃`; Lemma 4.10's sizes are those of
//! [`forward_reduction_with`], which builds `D̃` exactly as Definition 4.9
//! defines it.  A variable of degree 3 or more keeps every piece under both.
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
//! allocated once at that length and filled seed by seed.  When every
//! column is one piece wide — a carried id, a node at level 1, or the
//! ancestor of a degree-2 variable's top column, whose seeds are the leaf's
//! ancestors themselves — each seed is its own one tuple, and the sorted
//! seeds *are* the relation: nothing is expanded.  A piece is at
//! most as long as the tree is high, so its id is computed, not looked up
//! ([`ValueId::inline_bits`], the encoding the dictionary shares): the cut
//! positions come from one table per (node length, level) and a piece is a
//! shift and a mask of its node's bits — no hash, no lock, no call into the
//! dictionary, and no allocation per row or per seed.  The node ids of
//! `NodeLists` are computed the same way.  The rows end up in **seed order**
//! (ascending ids, column by column), each seed's tuples in cut order with
//! the first column varying slowest: a function of the source rows' *set*,
//! so equal inputs in any row order give equal columns.
//!
//! A plan with such an ancestor column does not sort all of its seeds.
//! Node ids are implicit-heap indices (`1 << len | bits` under a tag bit):
//! they ascend level by level, the parent of `h` is `h >> 1`, and the rows
//! under a node are those under its two children plus those whose leaf it
//! is.  So the build sorts only the seeds with that column collapsed to the
//! row's leaf, `h + 1` times fewer, and derives the rest in order: the
//! ancestors of a group's leaves level by level, and under each node the
//! merge of its children's sorted lists of the columns that follow
//! (`close_over_ancestors`).  The seeds come out as the sort of all of them
//! would order them, column for column, so nothing downstream can tell the
//! two apart.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use ij_hypergraph::{full_reduction, ReducedHypergraph, VarId, VarKind};
use ij_relation::sync::lock_recover;
use ij_relation::{
    faults, CancelTicker, CancellationToken, Database, EvalError, Query, Relation,
    SharedDictionary, Value, ValueId, MAX_INLINE_BITS,
};
use ij_segtree::{BitString, Interval, SegmentTree};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Lock class of a transformed relation's build gate (`sync::lock_order`):
/// held by the one thread building the relation, waited on by every other
/// thread that needs it meanwhile.  The builder acquires nothing under it but
/// `dictionary` (bitstrings too long for an inline id, which no tree that
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
/// the fields are the full sizes of `D̃` (`relations_built == num_relations`),
/// Lemma 4.10's sizes.  The engine's `evaluate_cancellable` runs on
/// [`plan_forward_reduction`], whose relations are *live*: without the
/// top-level `X#2` column of a degree-2 variable (module docs), so a relation
/// has at most as many tuples as its namesake in `D̃`.  It builds a relation
/// only when a disjunct it evaluates reads it, so in its
/// `EvaluationStats::reduction` the fields say how much of the live
/// reduction the evaluation needed.  Every other field is fixed by the plan
/// and identical under both.
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
    /// are zero.  [`ForwardReduction::materialised_stats`] recounts — on a
    /// plan, live sizes (see [`ReductionStats`]).
    pub stats: ReductionStats,
    /// The dictionary of the *input* database: transformed ids must be
    /// join-compatible with the carried columns, so the transformed
    /// relations intern into it too.
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
    /// The atom's source column `col` (an interval variable of degree 2 at
    /// its top level) as the one live column `X#1`: each ancestor-or-self of
    /// the row's leaf, whole.  A build sorts its seeds with this column
    /// collapsed to the leaf and takes the ancestors from the tree
    /// (`close_over_ancestors`).
    Ancestors { col: usize },
}

impl SpecColumn {
    /// The source column this one reads, if it reads one.
    fn source<'a>(&self, atom: &'a AtomSource) -> Option<&'a SourceColumn> {
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
    fn vars(&self, atom_vars: &[String], id_var: &str) -> Vec<String> {
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
enum Shape {
    /// Every column of Definition 4.9: `D̃` as the paper defines it.
    Paper,
    /// Without the top-level `X#2` of an interval variable of degree 2,
    /// which one atom binds and no join reads.
    Live,
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
        let dict = relations
            .first()
            .map_or_else(SharedDictionary::new, |r| r.dictionary().clone());
        let mut reduction = ForwardReduction {
            stats: ReductionStats {
                num_queries: queries.len(),
                ..ReductionStats::default()
            },
            queries,
            // The relations' dictionary, never read: nothing is left to build.
            dict,
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

    /// Plans the relation `name` of `spec` unless the plan has it already,
    /// and returns the atom of a disjunct that binds it: `atom_vars` are the
    /// source atom's variables, `id_var` the tuple identifier's.
    fn bind(
        &mut self,
        name: String,
        spec: RelationSpec,
        atom_vars: &[String],
        id_var: &str,
    ) -> ReducedAtom {
        let vars = spec.columns.iter().flat_map(|c| c.vars(atom_vars, id_var));
        let atom = ReducedAtom {
            relation: name.clone(),
            vars: vars.collect(),
        };
        self.plan_relation(name, Some(spec));
        atom
    }

    /// The transformed relation `name`, built now if nobody asked for it
    /// before.  A concurrent request for the same relation waits for the
    /// build in flight.  `token` is polled before a build starts and then
    /// every [`check_interval`](CancellationToken::check_interval) units of
    /// the build — a seed collected, a seed listed under a tree node or a
    /// tuple written; only the sort of the collected seeds runs unpolled
    /// (with an ancestor column, of the seeds with it collapsed to the
    /// leaf).  An interrupted (or panicking) build leaves the relation
    /// unbuilt, and a later request builds it again.
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
        #[expect(
            clippy::panic,
            reason = "documented: the names to ask for are those of the plan's queries"
        )]
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
        #[expect(
            clippy::expect_used,
            reason = "infallible: a cell without a spec was filled when the reduction was made"
        )]
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
/// explicit [`ReductionConfig`]: the plan of `D̃` as Definition 4.9 defines
/// it, every column included, followed by a request for every relation of
/// the plan, so all of `D̃` is built before the call returns and
/// [`ForwardReduction::stats`] reports all of it — Lemma 4.10's sizes.
pub fn forward_reduction_with(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
) -> Result<ForwardReduction, ReductionError> {
    let mut reduction = plan(q, db, config, None, Shape::Paper)?;
    reduction.materialise_all()?;
    reduction.stats = reduction.materialised_stats();
    Ok(reduction)
}

/// Plans the forward reduction of `q` over `db` without building any
/// transformed relation: the returned [`ForwardReduction`] carries the EJ
/// queries and builds each of its relations the first time
/// [`ForwardReduction::relation`] is asked for it.  This is the plan the
/// engine's `evaluate*` runs, and its relations are live: the top column of
/// an interval variable of degree 2 is `X#1` alone, one piece per
/// ancestor-or-self of the row's leaf, and `X#2` — bound by that one atom,
/// read by no join — is neither built nor in the disjuncts (module docs).
/// Each relation is the projection of [`forward_reduction_with`]'s relation
/// of the same name onto its live columns, so the sizes
/// [`ForwardReduction::materialised_stats`] counts are live sizes; Lemma
/// 4.10's are [`forward_reduction_with`]'s.
///
/// This is all of the reduction that can reject its input.  `token` is
/// polled by the segment-tree node pass over every interval column, once per
/// source tuple, every [`check_interval`](CancellationToken::check_interval)
/// tuples, and aborts it with [`ReductionError::Interrupted`]; the
/// segment-tree builds and the structural reduction run to completion (both
/// are small: `O(N)` interval collection and a per-*shape* permutation
/// enumeration).  Relation builds poll the token
/// [`ForwardReduction::relation`] is given.
pub fn plan_forward_reduction(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
    token: Option<&CancellationToken>,
) -> Result<ForwardReduction, ReductionError> {
    plan(q, db, config, token, Shape::Live)
}

/// [`plan_forward_reduction`] with the columns `shape` says.
fn plan(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
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
        stats
            .variables
            .push((name.clone(), all.len(), tree.height()));
        // Number of atoms containing the variable (its `k`).
        degrees.insert(var, columns.len());
        let ancestors = shape == Shape::Live && columns.len() == 2;
        for (key, intervals) in columns {
            let nodes = NodeLists::build(&tree, &intervals, db.dictionary(), ancestors, token)?;
            node_lists.insert(key, nodes);
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
            let decompose = config.encoding == EncodingStrategy::Decomposed
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
fn reduced_relation_name(
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
struct NodeLists {
    /// Per row, its canonical partition (possibly empty).
    partitions: RowLists,
    /// Per row, its leaf.
    leaves: Vec<ValueId>,
    /// Per row, each ancestor-or-self of its leaf, root first: the live top
    /// column of a variable of degree 2.  `None` where no plan reads it.
    ancestors: Option<RowLists>,
}

/// One run of ids per source row, flattened: row `r`'s run is
/// `ids[starts[r]..starts[r + 1]]`.
#[derive(Debug)]
struct RowLists {
    ids: Vec<ValueId>,
    starts: Vec<usize>,
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
    fn of_row(&self, row: usize) -> &[ValueId] {
        &self.ids[self.starts[row]..self.starts[row + 1]]
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.starts.len() - 1
    }
}

impl NodeLists {
    /// The node lists of `intervals` in `tree`, with the leaves' ancestors
    /// when `ancestors` is set.  `token` is polled once per interval.
    fn build(
        tree: &SegmentTree,
        intervals: &[Interval],
        dict: &SharedDictionary,
        ancestors: bool,
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        let mut lists = NodeLists {
            partitions: RowLists::new(),
            leaves: Vec::with_capacity(intervals.len()),
            ancestors: ancestors.then(RowLists::new),
        };
        let id_of = |node: BitString| bits_id(dict, node.bits(), node.len());
        let mut ticker = CancelTicker::new(token);
        for &iv in intervals {
            ticker.tick()?;
            let partitions = &mut lists.partitions;
            let leaf = tree.for_each_canonical_node_with_leaf(iv, |node| {
                partitions.ids.push(id_of(node));
            });
            partitions.end_row();
            lists.leaves.push(id_of(leaf));
            if let Some(ancestors) = &mut lists.ancestors {
                // `anc(leaf)` of Section 3: its prefixes, the root included.
                (ancestors.ids).extend((0..=leaf.len()).map(|n| id_of(leaf.prefix(n))));
                ancestors.end_row();
            }
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
    /// Copies each ancestor-or-self of the source row's leaf, whole: one
    /// option per ancestor.
    Ancestors(&'a RowLists),
}

impl<'a> PlanColumn<'a> {
    /// Number of output columns.
    fn width(&self) -> usize {
        match *self {
            PlanColumn::Carried(_) | PlanColumn::Ancestors(_) => 1,
            PlanColumn::Expand { level, .. } => level,
        }
    }

    /// What a source row contributes to the seeds in this column: its id,
    /// its leaf's ancestors, or the nodes it expands from — its leaf at the
    /// top level, its canonical partition below (possibly empty: the row
    /// joins nothing).
    fn seeds_of(&self, row: usize) -> &'a [ValueId] {
        match *self {
            PlanColumn::Carried(ids) => &ids[row..=row],
            PlanColumn::Ancestors(lists) => lists.of_row(row),
            PlanColumn::Expand { nodes, leaf, .. } if leaf => &nodes.leaves[row..=row],
            PlanColumn::Expand { nodes, .. } => nodes.partitions.of_row(row),
        }
    }

    /// The node the seed id `seed` names in this column, to be cut into
    /// [`width`](Self::width) pieces; `None` for a seed that is its own one
    /// option (a carried id, an ancestor).
    #[expect(
        clippy::expect_used,
        reason = "infallible: an `Expand` column's seeds are the ids of tree nodes"
    )]
    fn node_of(&self, dict: &SharedDictionary, seed: ValueId) -> Option<BitString> {
        let expands = matches!(self, PlanColumn::Expand { .. });
        expands.then(|| {
            (seed.as_inline_bits())
                .unwrap_or_else(|| dict.resolve(seed).as_bits().expect("a node id"))
        })
    }
}

impl ForwardReduction {
    /// The build plan of a spec: its columns, borrowed from what this
    /// reduction keeps of the source atom.
    fn resolve(&self, spec: &RelationSpec) -> Vec<PlanColumn<'_>> {
        let source = &self.sources[spec.atom];
        #[expect(
            clippy::expect_used,
            reason = "infallible: the plan lists the ancestors of every degree-2 variable's leaves"
        )]
        #[expect(
            clippy::unreachable,
            reason = "infallible: the plan carries point columns and expands interval columns"
        )]
        let resolve = |column: &SpecColumn| match (*column, column.source(source)) {
            (SpecColumn::TupleId, _) => PlanColumn::Carried(&self.tuple_ids[..source.rows]),
            (SpecColumn::Carried { .. }, Some(SourceColumn::Point(ids))) => {
                PlanColumn::Carried(ids)
            }
            (SpecColumn::Expand { level, leaf, .. }, Some(SourceColumn::Interval(nodes))) => {
                PlanColumn::Expand { nodes, level, leaf }
            }
            (SpecColumn::Ancestors { .. }, Some(SourceColumn::Interval(nodes))) => {
                let lists = nodes.ancestors.as_ref();
                PlanColumn::Ancestors(lists.expect("the plan lists a degree-2 leaf's ancestors"))
            }
            _ => unreachable!("the plan carries point columns and expands interval columns"),
        };
        spec.columns.iter().map(resolve).collect()
    }
}

/// Builds one transformed relation (Definition 4.9, applied once per
/// `Expand` column of the plan) — the one routine that materialises `D̃`
/// and the live plan's relations, behind every cell of a
/// [`ForwardReduction`], as *seeds → sort → expand* (module docs).  Only
/// seeds are sorted — for a plan with an `Ancestors` column only the seeds
/// with that column collapsed to the row's leaf, the rest coming from the
/// tree ([`close_over_ancestors`]) — the output columns are allocated once,
/// and nothing is allocated per source row or per seed; a plan whose
/// columns are all one piece wide returns the sorted seeds.
fn build_relation(
    name: &str,
    dict: &SharedDictionary,
    plan: &[PlanColumn<'_>],
    source_rows: usize,
    token: Option<&CancellationToken>,
) -> Result<Relation, EvalError> {
    faults::point(faults::Site::ReductionTransform);
    // One unit of work per seed collected, per seed listed under a tree node
    // and per tuple written: a source row or a seed stands for `O(log^j N)`
    // of them, too many between two polls.
    let mut ticker = CancelTicker::new(token);

    // (1) The distinct seeds, ascending.
    let seeds = match tree_column(plan) {
        Some(a) => {
            let leaves = sorted_seeds(name, dict, plan, Some(a), source_rows, &mut ticker)?;
            close_over_ancestors(name, dict, &leaves, a, &mut ticker)?
        }
        None => sorted_seeds(name, dict, plan, None, source_rows, &mut ticker)?,
    };
    // Every column one piece wide: each seed is its one tuple, so the sorted
    // seeds are the relation.
    if plan.iter().all(|column| column.width() == 1) {
        ticker.advance(seeds.len())?;
        return Ok(seeds);
    }

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
    let (mut options, mut tables) = (Vec::new(), CompositionTables::default());
    for (seed, &count) in counts.iter().enumerate() {
        ticker.advance(count)?;
        let (mut outer, mut first) = (1, 0);
        for (c, column) in plan.iter().enumerate() {
            let (id, width) = (seeds.id_at(seed, c), column.width());
            options.clear();
            match column.node_of(dict, id) {
                Some(node) => tables.push_compositions(dict, node, width, &mut options),
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
    // `from_id_columns` asserts that every column holds `total` ids.
    Ok(Relation::from_id_columns(name, total, columns, dict))
}

/// The distinct seeds of `plan`, ascending (column by column, by raw id):
/// per source row, the cross product of its columns' ids, sorted and
/// deduplicated by [`Relation::dedup`] — the one sort of a build.  Column
/// `collapse`, an `Ancestors` column, contributes the row's leaf alone
/// instead of each of its ancestors: `h + 1` times fewer seeds for
/// [`close_over_ancestors`] to close over the tree.
fn sorted_seeds(
    name: &str,
    dict: &SharedDictionary,
    plan: &[PlanColumn<'_>],
    collapse: Option<usize>,
    source_rows: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<Relation, EvalError> {
    let seeds_of = |c: usize, row: usize| {
        let ids = plan[c].seeds_of(row);
        match collapse == Some(c) {
            // A row's ancestors run from the root down to its leaf.
            true => &ids[ids.len().saturating_sub(1)..],
            false => ids,
        }
    };
    let mut seeds: Vec<Vec<ValueId>> = vec![Vec::new(); plan.len()];
    let mut collected = 0;
    for row in 0..source_rows {
        let count: usize = (0..plan.len()).map(|c| seeds_of(c, row).len()).product();
        // An empty canonical partition: the tuple joins nothing.
        if count == 0 {
            continue;
        }
        ticker.advance(count)?;
        let mut outer = 1;
        for (c, seeds) in seeds.iter_mut().enumerate() {
            let ids = seeds_of(c, row);
            let inner = count / (outer * ids.len());
            repeat(seeds, ids.iter().copied(), inner, outer);
            outer *= ids.len();
        }
        collected += count;
    }
    let mut seeds = Relation::from_id_columns(name, collected, seeds, dict);
    seeds.dedup();
    Ok(seeds)
}

/// The column whose seeds a build takes from the tree instead of a sort
/// ([`close_over_ancestors`]): the first `Ancestors` column whose leaves all
/// have inline ids — heap indices, which the closure computes with.  Only a
/// tree more than [`MAX_INLINE_BITS`] levels tall, which does not fit in
/// memory, has other leaves.
fn tree_column(plan: &[PlanColumn<'_>]) -> Option<usize> {
    plan.iter().position(|column| match column {
        PlanColumn::Ancestors(lists) => (0..lists.rows()).all(|row| {
            (lists.of_row(row).last()).is_some_and(|leaf| leaf.as_inline_bits().is_some())
        }),
        _ => false,
    })
}

/// The distinct seeds of a plan whose column `a` is an `Ancestors` column,
/// ascending, from `leaves` — the same plan's distinct seeds with column `a`
/// collapsed to the row's leaf, ascending ([`sorted_seeds`]) — with no
/// sort.  An inline node id is the node's implicit-heap index under a tag
/// bit (`1 << len | bits`, the segment tree's numbering): ids ascend level
/// by level, and the parent of heap index `h` is `h >> 1`.  Per *group* — a
/// run of rows with equal columns before `a`, in order:
///
/// * the group's nodes are every ancestor-or-self of its leaves, ascending
///   ([`AncestorClosure::close`]);
/// * when `a` is the last column, they are the group's seeds;
/// * otherwise a node's seeds pair it with each entry of its *list*: the
///   columns after `a` of the rows whose leaf is that node, merged with its
///   two children's lists ([`AncestorClosure::merge_lists`]).
///
/// Groups in order, each group's nodes ascending and each node's list in
/// order: the seeds come out exactly as [`sorted_seeds`] without `collapse`
/// would sort them, column for column.  One unit of `ticker` per seed
/// listed.
fn close_over_ancestors(
    name: &str,
    dict: &SharedDictionary,
    leaves: &Relation,
    a: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<Relation, EvalError> {
    let cols: Vec<&[ValueId]> = (0..leaves.arity()).map(|c| leaves.column_ids(c)).collect();
    let (prefix, suffix) = (&cols[..a], &cols[a + 1..]);
    let mut out: Vec<Vec<ValueId>> = vec![Vec::new(); cols.len()];
    let mut closure = AncestorClosure::default();
    let mut start = 0;
    while start < leaves.len() {
        let end = (start + 1..leaves.len())
            .find(|&row| prefix.iter().any(|col| col[row] != col[start]))
            .unwrap_or(leaves.len());
        let group = start..end;
        closure.close(dict, &cols[a][group.clone()]);
        if suffix.is_empty() {
            ticker.advance(closure.nodes.len())?;
            for (c, col) in prefix.iter().enumerate() {
                out[c].extend(std::iter::repeat_n(col[start], closure.nodes.len()));
            }
            out[a].extend(closure.nodes.iter().map(|&(_, id)| id));
            start = end;
            continue;
        }
        closure.encode(suffix, group.clone());
        closure.merge_lists(&cols[a][group], ticker)?;
        for (&(_, node), list) in closure.nodes.iter().zip(&closure.lists) {
            for (c, col) in prefix.iter().enumerate() {
                out[c].extend(std::iter::repeat_n(col[start], list.len()));
            }
            out[a].extend(std::iter::repeat_n(node, list.len()));
            let codes = &closure.codes[list.clone()];
            for (j, column) in out[a + 1..].iter_mut().enumerate() {
                column.extend(codes.iter().map(|&code| closure.decode(suffix, code, j)));
            }
        }
        start = end;
    }
    Ok(Relation::from_id_columns(name, out[a].len(), out, dict))
}

/// The ancestors of one group's leaves and, per node, its list of suffixes
/// (the columns after the tree column), for [`close_over_ancestors`]; the
/// buffers are reused from group to group.
#[derive(Debug, Default)]
struct AncestorClosure {
    /// Per distinct leaf: its heap index shifted up to depth
    /// [`MAX_INLINE_BITS`], so keys compare as left-aligned bits, above 8
    /// bits holding its depth.
    keys: Vec<u64>,
    /// Every ancestor-or-self of the leaves, ascending: heap index and id.
    nodes: Vec<(u32, ValueId)>,
    /// The nodes at depth `d` are `nodes[levels[d]..levels[d + 1]]`.
    levels: Vec<usize>,
    /// Per group row, then per merged list entry: a suffix as one `u32`
    /// that orders suffixes as the columns do (the suffix's one raw id, or
    /// its rank among the group's suffixes).
    codes: Vec<u32>,
    /// Per rank, a group row with that suffix (suffixes of two or more
    /// columns only).
    ranked: Vec<usize>,
    /// Per node, its list: a range of `codes`, ascending, each code once.
    lists: Vec<Range<usize>>,
}

impl AncestorClosure {
    /// Every ancestor-or-self of `leaves` (ascending, repeats allowed) into
    /// `nodes`, ascending, level by level.  Sorted by left-aligned bits, the
    /// leaves' depth-`d` prefixes ascend, equal ones side by side, so each
    /// level is one pass with no comparison sort.  Leaves of one depth —
    /// every leaf of a complete tree — are in that order already.
    fn close(&mut self, dict: &SharedDictionary, leaves: &[ValueId]) {
        self.keys.clear();
        for (i, leaf) in leaves.iter().enumerate() {
            if i > 0 && leaves[i - 1] == *leaf {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "infallible: `tree_column` admits a column of inline leaves only"
            )]
            let node = leaf.as_inline_bits().expect("an inline leaf");
            let heap = 1 << node.len() | node.bits();
            let aligned = heap << (MAX_INLINE_BITS - node.len());
            self.keys.push(aligned << 8 | u64::from(node.len()));
        }
        if !self.keys.is_sorted() {
            self.keys.sort_unstable();
        }
        let depth = |key: u64| (key & 0xff) as u8;
        let deepest = self.keys.iter().map(|&key| depth(key)).max().unwrap_or(0);
        self.nodes.clear();
        self.levels.clear();
        for d in 0..=deepest {
            self.levels.push(self.nodes.len());
            for &key in self.keys.iter().filter(|&&key| depth(key) >= d) {
                let heap = (key >> 8 >> (MAX_INLINE_BITS - d)) as u32;
                if self.nodes.last().map(|&(last, _)| last) != Some(heap) {
                    let id = bits_id(dict, u64::from(heap ^ 1 << d), d);
                    self.nodes.push((heap, id));
                }
            }
        }
        self.levels.push(self.nodes.len());
    }

    /// Fills `codes` with one code per row of `group`: the raw id of a
    /// one-column suffix, else the rank of the row's suffix among the
    /// group's distinct suffixes.
    fn encode(&mut self, suffix: &[&[ValueId]], group: Range<usize>) {
        self.codes.clear();
        self.ranked.clear();
        if let [column] = suffix {
            self.codes.extend(column[group].iter().map(|id| id.raw()));
            return;
        }
        let row_of = |row: usize| suffix.iter().map(move |col| col[row]);
        let mut order: Vec<usize> = group.clone().collect();
        order.sort_unstable_by(|&x, &y| row_of(x).cmp(row_of(y)));
        self.codes.resize(group.len(), 0);
        for row in order {
            let last = self.ranked.last().copied();
            if last.is_none_or(|last| row_of(last).ne(row_of(row))) {
                self.ranked.push(row);
            }
            self.codes[row - group.start] = (self.ranked.len() - 1) as u32;
        }
    }

    /// The suffix id of column `j` that `code` stands for.
    fn decode(&self, suffix: &[&[ValueId]], code: u32, j: usize) -> ValueId {
        match suffix.len() {
            1 => ValueId::from_raw(code),
            _ => suffix[j][self.ranked[code as usize]],
        }
    }

    /// Each node's list, deepest level first: the codes of the group's rows
    /// whose leaf is the node (`leaves`, one per row: a run of the group,
    /// whose codes ascend) merged with its children's lists.
    fn merge_lists(
        &mut self,
        leaves: &[ValueId],
        ticker: &mut CancelTicker<'_>,
    ) -> Result<(), EvalError> {
        self.lists.clear();
        let mut row = 0;
        for &(_, node) in &self.nodes {
            let own = row;
            while row < leaves.len() && leaves[row] == node {
                row += 1;
            }
            self.lists.push(own..row);
        }
        for d in (0..self.levels.len() - 1).rev() {
            let below = self.levels[d + 1]
                ..self
                    .levels
                    .get(d + 2)
                    .map_or(self.levels[d + 1], |&end| end);
            let mut child = below.start;
            for i in self.levels[d]..self.levels[d + 1] {
                let mut runs = [self.lists[i].clone(), 0..0, 0..0];
                for run in &mut runs[1..] {
                    if below.contains(&child) && self.nodes[child].0 >> 1 == self.nodes[i].0 {
                        *run = self.lists[child].clone();
                        child += 1;
                    }
                }
                self.lists[i] = merge_runs(&mut self.codes, &mut runs);
                ticker.advance(self.lists[i].len())?;
            }
        }
        Ok(())
    }
}

/// The union of the ascending runs `runs` of `codes`: the one non-empty run
/// itself, or else their merge appended to `codes`, ascending, each code
/// once.
fn merge_runs(codes: &mut Vec<u32>, runs: &mut [Range<usize>]) -> Range<usize> {
    let mut live = runs.iter().filter(|run| !run.is_empty());
    if let (Some(run), None) = (live.next(), live.next()) {
        return run.clone();
    }
    let start = codes.len();
    loop {
        let heads = runs.iter().filter(|run| !run.is_empty());
        let Some(min) = heads.map(|run| codes[run.start]).min() else {
            break;
        };
        codes.push(min);
        for run in runs.iter_mut() {
            if run.start < run.end && codes[run.start] == min {
                run.start += 1;
            }
        }
    }
    start..codes.len()
}

/// Appends one column of a cross product to `out`: each of `ids` `inner`
/// times in a row, and that pattern `outer` times over.  With `inner == 1`
/// — the last column of every cross product — the pattern is one `extend`
/// instead of a `resize` per id.
fn repeat(out: &mut Vec<ValueId>, ids: impl Iterator<Item = ValueId>, inner: usize, outer: usize) {
    let start = out.len();
    if inner == 1 {
        out.extend(ids);
    } else {
        for id in ids {
            out.resize(out.len() + inner, id);
        }
    }
    let pattern = out.len() - start;
    for _ in 1..outer {
        out.extend_from_within(out.len() - pattern..);
    }
}

/// The id of the bitstring of `len` bits `bits`: computed
/// ([`ValueId::inline_bits`]) up to 29 bits — every node and piece of any
/// tree that fits in memory — and interned above.
#[inline]
fn bits_id(dict: &SharedDictionary, bits: u64, len: u8) -> ValueId {
    ValueId::inline_bits(bits, len)
        .unwrap_or_else(|| dict.intern(Value::Bits(BitString::from_bits(bits, len))))
}

/// One piece of a composition: the `len` bits of its node that end `shift`
/// bits before the node's last bit.
#[derive(Debug, Clone, Copy)]
struct Piece {
    shift: u8,
    len: u8,
}

/// The pieces of every composition of a node into `level` pieces, per
/// (node length, level).  The set `𝔉(u, i)` of Lemma 4.10 depends on the
/// node `u` only through its length, so one relation build enumerates the
/// cut positions once per length and level it meets, and a seed's
/// compositions are shifts and masks of its node's bits.
#[derive(Debug, Default)]
struct CompositionTables {
    /// `tables[level][len]`: `level` pieces per composition, in cut order;
    /// empty until a node of that length is cut at that level.
    tables: Vec<Vec<Vec<Piece>>>,
}

impl CompositionTables {
    /// The pieces of every composition of a node of `len` bits into `level`
    /// pieces, `level` per composition: an odometer over the non-decreasing
    /// cut positions `0 ≤ c₁ ≤ … ≤ c_{level-1} ≤ len`, the last cut moving
    /// fastest — [`BitString::compositions`]' order.
    fn pieces(&mut self, len: u8, level: usize) -> &[Piece] {
        debug_assert!(level >= 1, "an atom holding the variable has level >= 1");
        if self.tables.len() <= level {
            self.tables.resize_with(level + 1, Vec::new);
        }
        let by_len = &mut self.tables[level];
        if by_len.len() <= usize::from(len) {
            by_len.resize_with(usize::from(len) + 1, Vec::new);
        }
        let table = &mut by_len[usize::from(len)];
        if table.is_empty() {
            let mut cuts = vec![0u8; level - 1];
            loop {
                let mut prev = 0;
                for &cut in cuts.iter().chain([&len]) {
                    table.push(Piece {
                        shift: len - cut,
                        len: cut - prev,
                    });
                    prev = cut;
                }
                // Bump the last cut that can still grow; the cuts after it
                // restart from its new position.
                let Some(i) = cuts.iter().rposition(|&cut| cut < len) else {
                    break;
                };
                let bumped = cuts[i] + 1;
                cuts[i..].fill(bumped);
            }
        }
        table
    }

    /// Appends to `out` the ids of every way of writing `node` as `level`
    /// (possibly empty) consecutive pieces, `level` ids per composition —
    /// `𝔉(u, i)` with no piece list per composition.
    fn push_compositions(
        &mut self,
        dict: &SharedDictionary,
        node: BitString,
        level: usize,
        out: &mut Vec<ValueId>,
    ) {
        let bits = node.bits();
        out.extend(self.pieces(node.len(), level).iter().map(|piece| {
            let mask = (1u64 << piece.len) - 1;
            bits_id(dict, bits >> piece.shift & mask, piece.len)
        }));
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
    use ij_relation::kernels::strictly_ascending;
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
                    let name = reduced_relation_name(q, atom_idx, levels, &id_to_name);
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
        let mut db = Database::new();
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
        NodeLists::build(&tree, intervals, &SharedDictionary::new(), false, None).unwrap()
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
            partitions: RowLists {
                ids: vec![id],
                starts: vec![0, 1],
            },
            leaves: vec![id],
            ancestors: None,
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
    fn a_token_cancelled_mid_ancestor_closure_interrupts() {
        // Nine rows, each with its own leaf in a tree over nine intervals.
        // Collecting the seeds with the ancestors collapsed to the leaf is 9
        // units, below the interval of 12; the seeds listed under the
        // tree's nodes are more than 3, so the poll comes while the build
        // closes them over the tree — at the last column, after a carried
        // one, and before one (a node's list merged from its children's).
        let intervals: Vec<Interval> = (0..9).map(|i| Interval::new(i as f64, 9.0)).collect();
        let dict = SharedDictionary::new();
        let tree = SegmentTree::build(&intervals);
        let nodes = NodeLists::build(&tree, &intervals, &dict, true, None).unwrap();
        let ancestors = PlanColumn::Ancestors(nodes.ancestors.as_ref().unwrap());
        let ids: Vec<ValueId> = (0..9)
            .map(|i| dict.intern(Value::point(i as f64)))
            .collect();
        let carried = PlanColumn::Carried(&ids);
        let token = CancellationToken::new().with_check_interval(12);
        token.cancel();
        for plan in [
            vec![ancestors],
            vec![carried, ancestors],
            vec![ancestors, carried],
        ] {
            let a = tree_column(&plan).unwrap();
            let mut ticker = CancelTicker::new(Some(&token));
            let leaves = sorted_seeds("R", &dict, &plan, Some(a), 9, &mut ticker).unwrap();
            assert_eq!(leaves.len(), 9);
            assert_eq!(
                close_over_ancestors("R", &dict, &leaves, a, &mut ticker).unwrap_err(),
                EvalError::Cancelled
            );
            assert_eq!(
                build_relation("R", &dict, &plan, 9, Some(&token)).unwrap_err(),
                EvalError::Cancelled
            );
            // The same build, not cancelled, lists more seeds than that.
            assert!(build_relation("R", &dict, &plan, 9, None).unwrap().len() > 12);
        }
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
    fn table_driven_compositions_agree_with_the_paper_facing_iterator_and_the_count() {
        // The exact-size fill rests on the three spellings of 𝔉(u, i)
        // agreeing: same pieces, same order, `composition_count` of them.
        // Every node up to 6 bits, four bit patterns per length up to 13,
        // and one node too long for an inline id (its long pieces interned).
        let dict = SharedDictionary::new();
        let mut nodes: Vec<BitString> = (0..=6u8)
            .flat_map(|len| (0..1u64 << len).map(move |bits| BitString::from_bits(bits, len)))
            .collect();
        for len in 7..=13u8 {
            let all = (1u64 << len) - 1;
            for bits in [0, all, 0x1555 & all, 0b1_0110_0111_0001 & all] {
                nodes.push(BitString::from_bits(bits, len));
            }
        }
        let long = ij_relation::MAX_INLINE_BITS + 2;
        nodes.push(BitString::from_bits(0x5A5A_5A5A & ((1 << long) - 1), long));
        let (mut tables, mut ids) = (CompositionTables::default(), Vec::new());
        for node in nodes {
            for level in 1..=4 {
                ids.clear();
                tables.push_compositions(&dict, node, level, &mut ids);
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
        // Only the long node's pieces above 29 bits went through the
        // dictionary: its whole self, and its two 30-bit ends.
        assert_eq!(dict.len(), 3);
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
        let nodes = NodeLists::build(&tree, &queries, &dict, true, None).unwrap();
        let id = |node: BitString| dict.intern(Value::Bits(node));
        for (row, &iv) in queries.iter().enumerate() {
            let partition: Vec<ValueId> =
                (tree.canonical_partition(iv).into_iter().map(id)).collect();
            assert_eq!(nodes.partitions.of_row(row), partition, "{iv}");
            let leaf = tree.leaf_of_interval(iv);
            assert_eq!(nodes.leaves[row], id(leaf), "{iv}");
            let ancestors: Vec<ValueId> = leaf.ancestors().into_iter().map(id).collect();
            assert_eq!(nodes.ancestors.as_ref().unwrap().of_row(row), ancestors);
        }
        assert_eq!(dict.len(), 0, "every node id is inline");
    }

    /// The query shapes of the property tests: a star of degree 3 (levels 1
    /// and 2 expand canonical partitions, level 3 the leaf), the triangle,
    /// two variables reaching levels (3, 3), an EIJ query carrying the point
    /// variables X and Y before, between and after interval columns, a
    /// triangle over a repeated relation, with a variable of degree 2 and
    /// one of degree 3, and a chain of two degree-2 variables whose unary
    /// ends are a leaf's ancestors alone (under the decomposed encoding, its
    /// middle atom's parts are a tuple identifier and those ancestors).
    const SHAPES: [&str; 6] = [
        "R([A]) & S([A]) & T([A])",
        "R([A],[B]) & S([B],[C]) & T([A],[C])",
        "R([A],[B]) & S([A],[B]) & T([A],[B])",
        "R(X,[A],[B]) & S([A],X,Y) & T(Y,[B])",
        "R([A],[B]) & R([B],[C]) & T([A],[C],[B])",
        "G([A]) & R([A],[B]) & E([B])",
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

    /// A larger random instance: up to 256 rows per relation over a domain
    /// of a few hundred, so a tree is eight to ten levels tall, its leaves
    /// sit at two depths, and a node's list merges rows from several levels
    /// below it.
    fn arb_large_instance() -> impl Strategy<Value = (usize, Vec<RawRows>)> {
        let row = proptest::collection::vec((0u32..300, 0u32..40, 0u32..4), 3);
        let rows = proptest::collection::vec(row, 1..257);
        (0..SHAPES.len(), proptest::collection::vec(rows, 3))
    }

    /// The instance as a query and a database over `dict`, each relation's
    /// rows in the order `order` puts them.  A point column holds one of three points; an
    /// interval column an interval of width 0 to 4, a quarter of the
    /// zero-width ones as a bare point; every relation repeats its first row.
    /// A repeated relation has the rows of its first atom.
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
            if db.relation(&atom.relation).is_some() {
                continue;
            }
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
            PlanColumn::Carried(_) | PlanColumn::Ancestors(_) => 1,
            PlanColumn::Expand { level, .. } => {
                let node = fr.dict.resolve(*id).as_bits().unwrap();
                node.composition_count(level)
            }
        };
        (seeds.iter())
            .map(|seed| seed.iter().zip(&plan).map(options).product::<u64>())
            .sum()
    }

    /// Whether `var` is the `X#2` of an interval variable `X` of degree 2 in
    /// `q`: the one column the live plan leaves out.
    fn dead(q: &Query, var: &str) -> bool {
        var.strip_suffix("#2").is_some_and(|x| {
            let degree = (q.atoms().iter())
                .filter(|atom| atom.vars.iter().any(|v| v == x))
                .count();
            q.var_kind(x) == Some(VarKind::Interval) && degree == 2
        })
    }

    /// A relation's rows as id rows, in order.
    fn id_rows(relation: &Relation) -> Vec<Vec<ValueId>> {
        (0..relation.len())
            .map(|row| {
                (0..relation.arity())
                    .map(|c| relation.id_at(row, c))
                    .collect()
            })
            .collect()
    }

    /// The relation `name` of `paper` (from [`forward_reduction_with`])
    /// projected onto the columns whose variables the live plan's atom of
    /// that name binds, as a set of id rows.
    fn live_projection(
        live: &ForwardReduction,
        paper: &ForwardReduction,
        name: &str,
    ) -> BTreeSet<Vec<ValueId>> {
        let atoms = |fr: &ForwardReduction| -> Vec<ReducedAtom> {
            (fr.queries.iter().flat_map(|rq| rq.atoms.iter().cloned())).collect()
        };
        let (live_atoms, paper_atoms) = (atoms(live), atoms(paper));
        let at = live_atoms.iter().position(|a| a.relation == name).unwrap();
        let (kept, all) = (&live_atoms[at].vars, &paper_atoms[at].vars);
        let cols: Vec<usize> = (0..all.len()).filter(|&c| kept.contains(&all[c])).collect();
        let relation = paper.relation(name, None).unwrap();
        (id_rows(relation).into_iter())
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect()
    }

    /// The relation `name` of the live plan is `paper`'s projected onto its
    /// live columns, exactly: the same rows and no duplicate.  Where every
    /// column is one piece wide the relation is its sorted seeds, so its
    /// rows also strictly ascend — the set and the order fix its columns.
    /// Returns its size.
    fn assert_live(live: &ForwardReduction, paper: &ForwardReduction, name: &str) -> usize {
        let relation = live.relation(name, None).unwrap();
        let rows = id_rows(relation);
        let set: BTreeSet<Vec<ValueId>> = rows.iter().cloned().collect();
        assert_eq!(set.len(), rows.len(), "duplicates in {name}");
        assert_eq!(set, live_projection(live, paper, name), "{name}");
        let spec = live.relations[live.by_name[name]].spec.as_ref().unwrap();
        if live.resolve(spec).iter().all(|column| column.width() == 1) {
            let cols: Vec<&[ValueId]> = (0..relation.arity())
                .map(|c| relation.column_ids(c))
                .collect();
            assert!(strictly_ascending(&cols), "{name} out of order");
        }
        rows.len()
    }

    /// The distinct seeds of `planned` as its build takes them — closed over
    /// the tree where the plan has an `Ancestors` column — are the sort of
    /// every seed, column for column.  Returns whether the tree gave them.
    fn assert_seeds_from_the_tree(fr: &ForwardReduction, planned: &PlannedRelation) -> bool {
        let (name, spec) = (&planned.name, planned.spec.as_ref().unwrap());
        let (plan, rows) = (fr.resolve(spec), fr.sources[spec.atom].rows);
        let mut ticker = CancelTicker::new(None);
        let Some(a) = tree_column(&plan) else {
            return false;
        };
        let sorted = sorted_seeds(name, &fr.dict, &plan, None, rows, &mut ticker).unwrap();
        let leaves = sorted_seeds(name, &fr.dict, &plan, Some(a), rows, &mut ticker).unwrap();
        let closed = close_over_ancestors(name, &fr.dict, &leaves, a, &mut ticker).unwrap();
        assert_eq!(id_rows(&closed), id_rows(&sorted), "{name}");
        true
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

        /// Repeated rows, nested and touching intervals, bare points in
        /// interval columns, carried point columns: the kernel builds the
        /// oracle's relations as duplicate-free sets, under both encodings.
        #[test]
        fn kernel_matches_the_oracle_on_random_instances(raw in arb_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            assert_kernel_matches_oracle(&q, &db);
        }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// At up to 256 rows over a wide domain, under both encodings: every
        /// relation of the live plan with an `Ancestors` column takes from
        /// the tree exactly the seeds the sort of all of them gives.
        #[test]
        fn seeds_closed_over_the_tree_are_the_sorted_seeds(raw in arb_large_instance()) {
            let (q, db) = instance(&raw, &SharedDictionary::new(), |_| ());
            let degree_2 = (q.atoms().iter().flat_map(|atom| &atom.vars))
                .any(|v| dead(&q, &format!("{v}#2")));
            for config in [ReductionConfig::default(), DECOMPOSED] {
                let live = plan_forward_reduction(&q, &db, config, None).unwrap();
                let closed = (live.relations.iter())
                    .filter(|planned| assert_seeds_from_the_tree(&live, planned))
                    .count();
                prop_assert_eq!(closed > 0, degree_2, "{:?}", config);
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
                assert_live(&plan, &reference, &atom.relation);
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
            let live: Vec<usize> = (plan.relations.iter())
                .map(|planned| live_projection(&plan, &reference, &planned.name).len())
                .collect();
            let stats = plan.materialised_stats();
            assert_eq!(stats.transformed_tuples, live.iter().sum::<usize>());
            assert_eq!(stats.max_relation_tuples, *live.iter().max().unwrap());
            // B has degree 2: at its top level, one column instead of two.
            let narrower =
                |r: &Relation| r.arity() < reference.relation(r.name(), None).unwrap().arity();
            assert!(plan.relations().any(narrower));
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
        assert_live(&plan, &reference, &name);
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
        let live: usize = (names.iter())
            .map(|name| assert_live(&plan, &reference, name))
            .sum();
        assert_eq!(plan.materialised_stats().transformed_tuples, live);
    }

    #[test]
    fn repeat_is_the_nested_loop() {
        let ids: Vec<ValueId> = (3..7).map(ValueId::from_raw).collect();
        let prefix = [ValueId::from_raw(99)];
        for inner in [1, 2, 5] {
            for outer in [1, 3] {
                let mut expected = prefix.to_vec();
                for _ in 0..outer {
                    for &id in &ids {
                        for _ in 0..inner {
                            expected.push(id);
                        }
                    }
                }
                let mut out = prefix.to_vec();
                repeat(&mut out, ids.iter().copied(), inner, outer);
                assert_eq!(out, expected, "inner {inner}, outer {outer}");
            }
        }
    }
}
