//! Synthetic interval workloads for the test and benchmark harnesses.
//!
//! The paper has no experimental section and therefore no datasets; the
//! workloads below are synthetic substitutes that exercise the same code
//! paths (documented in `DESIGN.md`).  All generators are deterministic given
//! a seed.
//!
//! * [`generate_for_query`] — for an arbitrary query, one relation per atom
//!   filled with intervals (and points for point variables) drawn from an
//!   [`IntervalDistribution`];
//! * [`build_scenario`] — the interval-native scenario suite: four
//!   [`ScenarioFamily`] generators (temporal overlap, IP range matching,
//!   genomic overlap, spatial rectangles) with size/selectivity/skew knobs
//!   and planted-answer modes, driven by one [`ScenarioConfig`] recipe;
//! * [`temporal_sessions`] — a temporal-database style workload (sessions
//!   with start/end timestamps, Section 2's motivation);
//! * [`spatial_boxes`] — minimum-bounding-rectangle projections (two interval
//!   columns per tuple), the spatial-join motivation of Section 2;
//! * [`point_intervals`] — degenerate point intervals, for which intersection
//!   joins coincide with equality joins (Section 1).

#![warn(missing_docs)]

mod generators;
mod scenarios;

pub use generators::{
    generate_for_query, planted_satisfiable, planted_unsatisfiable, point_intervals, spatial_boxes,
    temporal_sessions, IntervalDistribution, WorkloadConfig,
};
pub use scenarios::{build_scenario, PlantedAnswer, Scenario, ScenarioConfig, ScenarioFamily};
