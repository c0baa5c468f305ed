//! The only file of the benchmark that names engine items.
//!
//! Later PRs may not edit `benchmark/`, so everything the benchmark needs
//! from the engine goes through the pinned surface below; the rest of the
//! benchmark sees plain data only.
//!
//! * `ij_workloads::{build_scenario, ScenarioConfig, ScenarioFamily, PlantedAnswer}`
//! * `ij_engine::{Workspace::{new, import_database, engine, dictionary_len,
//!   dictionary_bytes}, EngineConfig::{new, with_parallelism, with_trie_shards},
//!   IntersectionJoinEngine::{evaluate, evaluate_reduction}, kernel_arm}`
//! * `ij_reduction::{forward_reduction_with, ReductionConfig::default}`
//! * `ij_baselines::SegtreeBaseline::{build, evaluate_boolean}`
//! * the `EvaluationStats` fields `answer`, `reduction.{input_tuples,
//!   transformed_tuples, max_relation_tuples, num_relations, num_queries,
//!   variables}`, `ej_queries_evaluated`, `ej_queries_total`,
//!   `ej_query_batches`, `trie_cache.{hits, misses, evictions, entries,
//!   resident_bytes}`, `disjuncts_planned`, `planning_nanos`, and the argument
//!   and return types of the functions above (`Scenario`, `Database`,
//!   `ForwardReduction`).
//!
//! Each call into a layer is wrapped in a span of the caller's [`Tracer`];
//! with the tracer off the wrapping costs one branch and no clock read.

use crate::trace::Tracer;
use ij_baselines::SegtreeBaseline;
use ij_engine::{EngineConfig, IntersectionJoinEngine, Workspace};
use ij_reduction::{forward_reduction_with, ForwardReduction, ReductionConfig};
use ij_relation::Database;
use ij_workloads::{build_scenario, PlantedAnswer, Scenario, ScenarioConfig, ScenarioFamily};

/// Every scenario family used here joins three relations.
const RELATIONS_PER_SCENARIO: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    TemporalOverlap,
    IpRanges,
    SpatialRectangles,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planted {
    /// The answer is whatever the draw yields.
    Natural,
    /// The last atom is shifted out of range: the answer is false.
    NearMiss,
}

/// The recipe of one generated instance (selectivity 0.5 and skew 1, the
/// generator's mid-density defaults, on every workload).
#[derive(Debug, Clone, Copy)]
pub struct InstanceSpec {
    pub family: Family,
    pub tuples_per_relation: usize,
    pub planted: Planted,
    pub seed: u64,
}

impl InstanceSpec {
    pub fn input_tuples(&self) -> usize {
        RELATIONS_PER_SCENARIO * self.tuples_per_relation
    }
}

/// Engine thread settings.  The traced run is single-threaded so that its
/// counts repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    EngineDefault,
    Single,
}

/// A generated query and database, still in the generator's dictionary.
pub struct Instance {
    scenario: Scenario,
    planted: Planted,
}

impl Instance {
    /// Span `workloads.build_scenario`.
    pub fn build(spec: &InstanceSpec, tracer: &mut Tracer) -> Instance {
        let family = match spec.family {
            Family::TemporalOverlap => ScenarioFamily::TemporalOverlap,
            Family::IpRanges => ScenarioFamily::IpRanges,
            Family::SpatialRectangles => ScenarioFamily::SpatialRectangles,
        };
        let planted = match spec.planted {
            Planted::Natural => PlantedAnswer::Natural,
            Planted::NearMiss => PlantedAnswer::NearMiss,
        };
        let config = ScenarioConfig::new(family)
            .with_tuples(spec.tuples_per_relation)
            .with_seed(spec.seed)
            .with_selectivity(0.5)
            .with_skew(1.0)
            .with_planted(planted);
        let span = tracer.begin("workloads.build_scenario");
        let scenario = build_scenario(&config);
        tracer.end(span);
        Instance {
            scenario,
            planted: spec.planted,
        }
    }

    /// The answer the planted mode guarantees, if it guarantees one.
    pub fn planted_answer(&self) -> Option<bool> {
        match self.planted {
            Planted::Natural => None,
            Planted::NearMiss => Some(false),
        }
    }

    /// The engine-independent oracle.  Spans `baselines.build` and
    /// `baselines.search`.
    pub fn baseline_answer(&self, tracer: &mut Tracer) -> Result<bool, String> {
        let span = tracer.begin("baselines.build");
        let built = SegtreeBaseline::build(&self.scenario.query, &self.scenario.database);
        tracer.end(span);
        let baseline = built.map_err(|e| format!("baseline build: {e}"))?;
        let span = tracer.begin("baselines.search");
        let answer = baseline.evaluate_boolean();
        tracer.end(span);
        Ok(answer)
    }
}

/// A database imported into a [`Session`]'s workspace.
pub struct Imported(Database);

/// A forward reduction living in a [`Session`]'s workspace.
pub struct Reduced(ForwardReduction);

/// A workspace and an engine built from it.
pub struct Session {
    workspace: Workspace,
    engine: IntersectionJoinEngine,
}

impl Session {
    /// A fresh workspace with `instance` imported into it.  Span
    /// `engine.import` covers the workspace construction and the import.
    pub fn open(instance: &Instance, threads: Threads, tracer: &mut Tracer) -> (Session, Imported) {
        let config = match threads {
            Threads::EngineDefault => EngineConfig::new(),
            Threads::Single => EngineConfig::new().with_parallelism(1).with_trie_shards(1),
        };
        let span = tracer.begin("engine.import");
        let workspace = Workspace::new();
        let imported = Imported(workspace.import_database(&instance.scenario.database));
        tracer.end(span);
        let engine = workspace.engine(config);
        (Session { workspace, engine }, imported)
    }

    /// Imports a further instance into this session's workspace.  Span
    /// `engine.import`.
    pub fn import(&self, instance: &Instance, tracer: &mut Tracer) -> Imported {
        let span = tracer.begin("engine.import");
        let imported = Imported(self.workspace.import_database(&instance.scenario.database));
        tracer.end(span);
        imported
    }

    /// The full path: reduction and disjunct evaluation.  Span
    /// `engine.evaluate`.
    pub fn evaluate(
        &self,
        instance: &Instance,
        db: &Imported,
        tracer: &mut Tracer,
    ) -> Result<bool, String> {
        let span = tracer.begin("engine.evaluate");
        let result = self.engine.evaluate(&instance.scenario.query, &db.0);
        tracer.end(span);
        result.map_err(|e| format!("evaluate: {e}"))
    }

    /// The forward reduction alone.  Span `reduction.forward`, carrying the
    /// reduction's size counts and the dictionary growth it caused.
    pub fn reduce(
        &self,
        instance: &Instance,
        db: &Imported,
        tracer: &mut Tracer,
    ) -> Result<Reduced, String> {
        let dict_len = self.workspace.dictionary_len();
        let dict_bytes = self.workspace.dictionary_bytes();
        let span = tracer.begin("reduction.forward");
        let result =
            forward_reduction_with(&instance.scenario.query, &db.0, ReductionConfig::default());
        tracer.end(span);
        let reduction = result.map_err(|e| format!("forward reduction: {e}"))?;
        let stats = &reduction.stats;
        let intervals: usize = stats.variables.iter().map(|v| v.1).sum();
        let max_height = stats.variables.iter().map(|v| v.2).max().unwrap_or(0);
        for (name, value) in [
            ("input_tuples", stats.input_tuples),
            ("transformed_tuples", stats.transformed_tuples),
            ("max_relation_tuples", stats.max_relation_tuples),
            ("relations", stats.num_relations),
            ("disjuncts", stats.num_queries),
            ("segtree_intervals", intervals),
            ("segtree_max_height", usize::from(max_height)),
            (
                "dict_new_values",
                self.workspace.dictionary_len().saturating_sub(dict_len),
            ),
            (
                "dict_bytes",
                self.workspace.dictionary_bytes().saturating_sub(dict_bytes),
            ),
        ] {
            tracer.count(span, name, value as f64);
        }
        Ok(Reduced(reduction))
    }

    /// Evaluates a reduction computed earlier in this session, under span
    /// `span_name`, which carries what the call reported about itself.
    pub fn evaluate_reduction(
        &self,
        reduction: &Reduced,
        span_name: &'static str,
        tracer: &mut Tracer,
    ) -> Result<bool, String> {
        let span = tracer.begin(span_name);
        let result = self.engine.evaluate_reduction(&reduction.0);
        tracer.end(span);
        let stats = result.map_err(|e| format!("evaluate_reduction: {e}"))?;
        for (name, value) in [
            ("disjuncts_evaluated", stats.ej_queries_evaluated as f64),
            ("disjuncts_total", stats.ej_queries_total as f64),
            ("batches", stats.ej_query_batches as f64),
            ("cache_hits", stats.trie_cache.hits as f64),
            ("cache_misses", stats.trie_cache.misses as f64),
            ("cache_evictions", stats.trie_cache.evictions as f64),
            ("cache_entries", stats.trie_cache.entries as f64),
            (
                "cache_resident_bytes",
                stats.trie_cache.resident_bytes as f64,
            ),
            ("disjuncts_planned", stats.disjuncts_planned as f64),
            ("planning_ms", stats.planning_nanos as f64 / 1e6),
        ] {
            tracer.count(span, name, value);
        }
        Ok(stats.answer)
    }
}

/// The intersection-kernel dispatch arm of this host (`scalar` or `avx2`).
pub fn kernel_arm() -> String {
    ij_engine::kernel_arm().to_string()
}
