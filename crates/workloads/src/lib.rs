//! Synthetic interval workloads for the test and benchmark harnesses.
//!
//! The paper has no experimental section and therefore no datasets; the
//! workloads below are synthetic substitutes that exercise the same code
//! paths.  All generators are deterministic given a seed.
//!
//! * [`generate_for_query`] — for an arbitrary query, one relation per atom
//!   filled with intervals (and points for point variables) drawn from an
//!   [`IntervalDistribution`]; [`planted_satisfiable`] and
//!   [`planted_unsatisfiable`] plant a witness or rule every one out;
//! * [`build_scenario`] — the interval-native scenario suite: four
//!   [`ScenarioFamily`] generators (temporal overlap, IP range matching,
//!   genomic overlap, spatial rectangles) with size/selectivity/skew knobs
//!   and planted-answer modes, driven by one [`ScenarioConfig`] recipe.

#![warn(missing_docs)]

mod generators;
mod scenarios;

pub use generators::{
    generate_for_query, planted_satisfiable, planted_unsatisfiable, IntervalDistribution,
    WorkloadConfig,
};
pub use scenarios::{build_scenario, PlantedAnswer, Scenario, ScenarioConfig, ScenarioFamily};
