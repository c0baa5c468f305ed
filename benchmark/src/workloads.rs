//! The four workloads.  `why` is also the `why` of `BENCHMARK.json`.

use crate::adapter::{Family, InstanceSpec, Planted};

/// What one timed operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A fresh workspace, an import, then `evaluate(query, db)`; the
    /// `evaluate` call is timed.
    ColdEvaluate,
    /// `evaluate_reduction` on a long-lived engine whose reductions were
    /// computed, and whose trie cache was filled, during set-up.
    WarmReduction,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub tuples_per_relation: usize,
    pub planted: Planted,
    pub op: Op,
    /// Instances per untraced run, from seeds `s..s+instances`, visited
    /// round-robin.  More than one so that a run's medians describe the
    /// family at that size and not one draw, which keeps them steady from
    /// seed to seed.  The warm workload keeps every instance's reduction and
    /// tries resident and pays for each in set-up, so it draws fewer.
    pub instances: usize,
}

/// `--quick` divides every size by this.
const QUICK_DIVISOR: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "temporal-sparse",
        why: "iota-acyclic star at natural density, true at the first disjunct, no tries: the forward reduction is nearly all of the op, so a reduction change must show and an ejoin change must not",
        family: Family::TemporalOverlap,
        tuples_per_relation: 512,
        planted: Planted::Natural,
        op: Op::ColdEvaluate,
        instances: 8,
    },
    Workload {
        name: "ip-ranges-product",
        why: "two join interval variables per atom under the flat encoding, answer false so all 36 disjuncts run by Yannakakis: the only workload with 36 independent units for disjunct parallelism",
        family: Family::IpRanges,
        tuples_per_relation: 32,
        planted: Planted::NearMiss,
        op: Op::ColdEvaluate,
        instances: 8,
    },
    Workload {
        name: "spatial-triangle-cold",
        why: "cyclic triangle (ij-width 3/2), answer false so all 8 disjuncts run the generic join on a cold cache: reduction, trie build and leapfrog search all show",
        family: Family::SpatialRectangles,
        tuples_per_relation: 512,
        planted: Planted::NearMiss,
        op: Op::ColdEvaluate,
        instances: 8,
    },
    Workload {
        name: "spatial-triangle-warm",
        why: "the same triangles reduced once in set-up and evaluated on one long-lived engine: no reduction, every trie lookup a cache hit, so pure search; a reduction change must leave it flat",
        family: Family::SpatialRectangles,
        tuples_per_relation: 512,
        planted: Planted::NearMiss,
        op: Op::WarmReduction,
        instances: 4,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The instances of one run.
    pub fn specs(&self, seed: u64, quick: bool) -> Vec<InstanceSpec> {
        let divisor = if quick { QUICK_DIVISOR } else { 1 };
        (0..self.instances as u64)
            .map(|j| InstanceSpec {
                family: self.family,
                tuples_per_relation: self.tuples_per_relation / divisor,
                planted: self.planted,
                seed: seed.wrapping_add(j),
            })
            .collect()
    }
}
