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
//! seeds *are* the relation: nothing is expanded.  Node and piece ids are
//! **computed, never looked up** ([`ValueId::inline_bits`]): the plan
//! admits no tree taller than 29 levels ([`ReductionError::TreeTooTall`],
//! which takes 2²⁸ endpoints), the cut positions come from one table per
//! (node length, level) and a piece is a shift and a mask of its node's
//! bits — no hash, no lock, no dictionary call and no allocation per row or
//! per seed.  The rows end up in **seed order**
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
//! ancestors of a group's leaves in one pass over them, and under each node
//! the merge of its children's sorted lists of the columns that follow
//! (`close_over_ancestors`).  A plan with two such columns collapses both
//! and closes over the second's tree first (`closed_seeds`).  The seeds
//! come out as the sort of all of them would order them, column for
//! column, so nothing downstream can tell the two apart.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

mod ancestors;
mod build;
mod plan;
#[cfg(test)]
mod tests;

use build::build_relation;
use ij_hypergraph::ReducedHypergraph;
use ij_relation::sync::lock_recover;
use ij_relation::{
    CancellationToken, Database, EvalError, Query, Relation, SharedDictionary, ValueId,
};
use ij_segtree::BitString;
use plan::{plan, AtomSource, RelationSpec, Shape};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Lock class of a transformed relation's build gate (`sync::lock_order`):
/// held by the one thread building the relation, waited on by every other
/// thread that needs it meanwhile.  The builder acquires nothing under it,
/// and nobody acquires a gate while holding another lock.
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
    spec: RelationSpec,
    cell: OnceLock<Relation>,
    /// Serialises builders of this relation, so a second thread needing it
    /// waits for the first instead of building it again.
    building: Mutex<()>,
}

impl ForwardReduction {
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
        if !self.by_name.contains_key(&name) {
            self.by_name.insert(name.clone(), self.relations.len());
            self.relations.push(PlannedRelation {
                name,
                spec,
                cell: OnceLock::new(),
                building: Mutex::new(()),
            });
        }
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
        let spec = &planned.spec;
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
    /// An interval variable's segment tree is too tall for computed node ids
    /// (module docs): more than 29 levels, at least 2²⁸ distinct endpoints.
    TreeTooTall { variable: String, height: u8 },
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
            ReductionError::TreeTooTall { variable, height } => {
                write!(f, "segment tree of `{variable}` is {height} levels tall")
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

/// The id of the tree node or piece of `len` bits `bits` (module docs).
#[inline]
#[expect(
    clippy::expect_used,
    reason = "infallible: `plan` admits no taller tree"
)]
fn bits_id(bits: u64, len: u8) -> ValueId {
    ValueId::inline_bits(bits, len).expect("a node of a tree `plan` admitted")
}

/// The tree node or piece an id of [`bits_id`] names.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "infallible: node ids are made by `bits_id`"
)]
fn id_bits(id: ValueId) -> BitString {
    id.as_inline_bits().expect("an id made by `bits_id`")
}
