//! Interval-native scenario generators.
//!
//! Where [`generate_for_query`](crate::generate_for_query) fills an arbitrary
//! query with one configured distribution, the scenario suite goes the other
//! way: each [`ScenarioFamily`] fixes a realistic query shape *and* a
//! domain-specific interval distribution, and exposes the same three knobs
//! everywhere — size, selectivity, skew — plus a planted-answer mode.  The
//! four families cover the paper's Section 2 motivations and differ
//! structurally (star, full matching, path, cyclic triangle), so a harness
//! sweeping them exercises ι-acyclic and cyclic plans, unary and binary
//! atoms, wide and degenerate point intervals.
//!
//! Every scenario is deterministic given its [`ScenarioConfig`] — the config
//! *is* the reproduction recipe, which is what lets the differential harness
//! shrink a failing configuration instead of a failing dataset.

use ij_hypergraph::VarKind;
use ij_relation::{Database, Query, Relation, Value};
use ij_segtree::Interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scenario families of the interval-native suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioFamily {
    /// Calendars/sessions sharing a time axis: three unary relations joined
    /// on one interval variable (a star, ι-acyclic).  Durations are
    /// heavy-tailed under skew — a few marathon sessions overlap everything.
    TemporalOverlap,
    /// Firewall-style range matching: rules, flows, and a watchlist joined
    /// on source *and* destination address ranges.  Rules and watchlist
    /// entries are CIDR-aligned blocks (power-of-two sizes); flows are
    /// degenerate point addresses, exercising membership-join semantics.
    IpRanges,
    /// Genome annotation overlap: genes–reads–enhancers form a path query
    /// (α-acyclic).  Under skew the positions cluster around a few hotspot
    /// loci, producing the dense pile-ups typical of real coverage data.
    GenomicOverlap,
    /// Axis-aligned rectangles joined pairwise per axis: a cyclic triangle
    /// over two-interval-column relations (ij-width 3/2), the MBR spatial
    /// join of Section 2.
    SpatialRectangles,
}

impl ScenarioFamily {
    /// All families, in a stable sweep order.
    pub const ALL: [ScenarioFamily; 4] = [
        ScenarioFamily::TemporalOverlap,
        ScenarioFamily::IpRanges,
        ScenarioFamily::GenomicOverlap,
        ScenarioFamily::SpatialRectangles,
    ];

    /// Stable kebab-case name (used in scenario labels and bench ids).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioFamily::TemporalOverlap => "temporal-overlap",
            ScenarioFamily::IpRanges => "ip-ranges",
            ScenarioFamily::GenomicOverlap => "genomic-overlap",
            ScenarioFamily::SpatialRectangles => "spatial-rectangles",
        }
    }

    /// The family's fixed query text (bracketed variables are intervals).
    pub fn query_text(self) -> &'static str {
        match self {
            ScenarioFamily::TemporalOverlap => "Sessions([T]) & Meetings([T]) & Oncall([T])",
            ScenarioFamily::IpRanges => "Rules([S],[D]) & Flows([S],[D]) & Watchlist([S],[D])",
            ScenarioFamily::GenomicOverlap => "Genes([G]) & Reads([G],[E]) & Enhancers([E])",
            ScenarioFamily::SpatialRectangles => {
                "Buildings([X],[Y]) & FloodZones([Y],[Z]) & Coverage([X],[Z])"
            }
        }
    }

    /// The family's parsed query.
    pub fn query(self) -> Query {
        Query::parse(self.query_text()).expect("scenario query text parses")
    }

    /// A per-family salt so equal seeds do not produce correlated draws
    /// across families.
    fn salt(self) -> u64 {
        match self {
            ScenarioFamily::TemporalOverlap => 0x74656d70,
            ScenarioFamily::IpRanges => 0x69707234,
            ScenarioFamily::GenomicOverlap => 0x67656e6f,
            ScenarioFamily::SpatialRectangles => 0x73706174,
        }
    }
}

/// Planted-answer modes for a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlantedAnswer {
    /// No planting: the Boolean answer is whatever the random draw yields.
    Natural,
    /// One witness row is appended per relation, all sharing a common
    /// intersection point — the Boolean answer is guaranteed `true`.
    Satisfiable,
    /// Every relation's values are shifted into a window disjoint from every
    /// other relation's window, so no join variable can ever be matched —
    /// the Boolean answer is guaranteed `false`.
    Unsatisfiable,
    /// Adversarially unsatisfiable: only the *last* atom's relation is
    /// shifted out of range, leaving the natural overlap structure of every
    /// earlier atom intact.  The Boolean answer is guaranteed `false` (every
    /// scenario query's last atom shares a variable with an earlier atom),
    /// but every proper prefix of the atom list keeps its matches — the
    /// worst case for evaluators that materialise or backtrack through
    /// partial matches before discovering the final atom never closes them.
    NearMiss,
}

/// The full recipe for one scenario instance.  Two equal configs always
/// produce identical databases; the differential harness shrinks failing
/// configs field by field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Which family to generate.
    pub family: ScenarioFamily,
    /// Number of tuples per relation (before any planted witness row).
    pub tuples_per_relation: usize,
    /// RNG seed; generation is deterministic given the full config.
    pub seed: u64,
    /// Overlap density knob in `(0, 1]`: larger values produce longer
    /// intervals / wider blocks relative to the domain, hence more matches.
    /// Values outside the range are clamped.
    pub selectivity: f64,
    /// Length/position skew knob in `[0, 4]`: `0` is uniform; larger values
    /// heavy-tail the interval lengths (and, for [`ScenarioFamily::GenomicOverlap`],
    /// concentrate positions around hotspots).  Values outside are clamped.
    pub skew: f64,
    /// Planted-answer mode.
    pub planted: PlantedAnswer,
}

impl ScenarioConfig {
    /// A mid-density, mildly skewed, natural-answer config for `family`.
    pub fn new(family: ScenarioFamily) -> Self {
        ScenarioConfig {
            family,
            tuples_per_relation: 64,
            seed: 42,
            selectivity: 0.5,
            skew: 1.0,
            planted: PlantedAnswer::Natural,
        }
    }

    /// Sets the number of tuples per relation.
    pub fn with_tuples(mut self, tuples: usize) -> Self {
        self.tuples_per_relation = tuples;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the selectivity knob (clamped to `(0, 1]` at generation time).
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        self.selectivity = selectivity;
        self
    }

    /// Sets the skew knob (clamped to `[0, 4]` at generation time).
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Sets the planted-answer mode.
    pub fn with_planted(mut self, planted: PlantedAnswer) -> Self {
        self.planted = planted;
        self
    }

    fn clamped_selectivity(&self) -> f64 {
        self.selectivity.clamp(1e-3, 1.0)
    }

    fn clamped_skew(&self) -> f64 {
        self.skew.clamp(0.0, 4.0)
    }
}

/// A generated scenario: the family's query plus a database built from one
/// [`ScenarioConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label encoding the config (family, size, seed, mode).
    pub name: String,
    /// The family's query.
    pub query: Query,
    /// The generated database.
    pub database: Database,
}

/// Builds the scenario described by `cfg`.  Deterministic: equal configs
/// yield equal scenarios.
pub fn build_scenario(cfg: &ScenarioConfig) -> Scenario {
    let query = cfg.family.query();
    let mut rng =
        StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) ^ cfg.family.salt());
    let n = cfg.tuples_per_relation;
    let selectivity = cfg.clamped_selectivity();
    let skew = cfg.clamped_skew();

    let mut database = match cfg.family {
        ScenarioFamily::TemporalOverlap => temporal_overlap(&mut rng, n, selectivity, skew),
        ScenarioFamily::IpRanges => ip_ranges(&mut rng, n, selectivity, skew),
        ScenarioFamily::GenomicOverlap => genomic_overlap(&mut rng, n, selectivity, skew),
        ScenarioFamily::SpatialRectangles => spatial_rectangles(&mut rng, n, selectivity, skew),
    };

    match cfg.planted {
        PlantedAnswer::Natural => {}
        PlantedAnswer::Satisfiable => plant_witness(&query, &mut database),
        PlantedAnswer::Unsatisfiable => separate_windows(&query, &mut database),
        PlantedAnswer::NearMiss => shift_last_atom(&query, &mut database),
    }

    Scenario {
        name: format!(
            "{}/n{}/seed{}/sel{}/skew{}/{:?}",
            cfg.family.name(),
            n,
            cfg.seed,
            selectivity,
            skew,
            cfg.planted
        ),
        query,
        database,
    }
}

/// A checked interval from generator arithmetic: the generators only ever
/// combine finite draws, so a failure here is a generator bug — surface it
/// with the offending endpoints instead of silently clamping.
fn checked_interval(lo: f64, hi: f64) -> Value {
    Value::Interval(
        Interval::try_new(lo, hi)
            .unwrap_or_else(|e| panic!("scenario generator produced {e} (lo={lo}, hi={hi})")),
    )
}

/// Draws a non-negative length with scale `base`: `skew = 0` is uniform in
/// `[0, 2 * base]`; larger skew is Pareto-like with heavier and heavier
/// tails (a few draws approach `cap`).  Always finite and `<= cap`.
fn skewed_length(rng: &mut StdRng, base: f64, skew: f64, cap: f64) -> f64 {
    let len = if skew <= 0.0 {
        rng.gen_range(0.0..=(2.0 * base))
    } else {
        let alpha = 2.0 / (1.0 + skew);
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
        base * (u.powf(-1.0 / alpha) - 1.0)
    };
    len.min(cap)
}

/// Three unary calendars over one horizon; selectivity is the expected
/// fraction of the horizon each session covers (domain-relative, so the
/// per-pair overlap probability is independent of `n` — at full selectivity
/// the pairwise match count grows quadratically, the regime where the
/// forward reduction's equality joins beat pairwise index probing).
fn temporal_overlap(rng: &mut StdRng, n: usize, selectivity: f64, skew: f64) -> Database {
    let mut db = Database::new();
    let horizon = (n.max(1) as f64) * 20.0;
    let base_len = selectivity * horizon / 8.0 + 0.25;
    for name in ["Sessions", "Meetings", "Oncall"] {
        let mut rel = Relation::new(name, 1, db.dictionary());
        for _ in 0..n {
            let start = rng.gen_range(0.0..horizon);
            let len = skewed_length(rng, base_len, skew, horizon);
            rel.push(vec![checked_interval(start, start + len)]);
        }
        db.insert(rel);
    }
    db
}

/// CIDR-aligned source/destination blocks for rules and watchlist entries;
/// point addresses for flows.  Selectivity widens the maximum block (up to
/// /8); skew biases the prefix-length draw toward wider blocks.
fn ip_ranges(rng: &mut StdRng, n: usize, selectivity: f64, skew: f64) -> Database {
    const SPACE_BITS: u32 = 32;
    let max_block_bits = (8.0 + selectivity * 16.0).round() as u32; // 8..=24
    let cidr_block = |rng: &mut StdRng| -> (f64, f64) {
        let u: f64 = rng.gen_range(0.0f64..1.0);
        // skew > 0 pushes u^(1/(1+skew)) toward 1, i.e. toward wide blocks.
        let bits = (u.powf(1.0 / (1.0 + skew)) * max_block_bits as f64).floor() as u32;
        let bits = bits.min(max_block_bits);
        let size = 1u64 << bits;
        let blocks = 1u64 << (SPACE_BITS - bits);
        let lo = rng.gen_range(0..blocks) * size;
        (lo as f64, (lo + size - 1) as f64)
    };
    let mut db = Database::new();
    for name in ["Rules", "Watchlist"] {
        let mut rel = Relation::new(name, 2, db.dictionary());
        for _ in 0..n {
            let (slo, shi) = cidr_block(rng);
            let (dlo, dhi) = cidr_block(rng);
            rel.push(vec![checked_interval(slo, shi), checked_interval(dlo, dhi)]);
        }
        db.insert(rel);
    }
    let mut flows = Relation::new("Flows", 2, db.dictionary());
    let space = (1u64 << SPACE_BITS) as f64;
    for _ in 0..n {
        let src = rng.gen_range(0.0..space).floor();
        let dst = rng.gen_range(0.0..space).floor();
        flows.push(vec![checked_interval(src, src), checked_interval(dst, dst)]);
    }
    db.insert(flows);
    db
}

/// Genes, reads and enhancers over one genome; skew concentrates positions
/// around a few hotspot loci (clustered pile-ups), selectivity scales the
/// annotation lengths.
fn genomic_overlap(rng: &mut StdRng, n: usize, selectivity: f64, skew: f64) -> Database {
    let genome = (n.max(1) as f64) * 100.0;
    let hotspots: Vec<f64> = (0..(n / 8).max(1))
        .map(|_| rng.gen_range(0.0..genome))
        .collect();
    let cluster_prob = skew / (1.0 + skew);
    let spread = genome / (hotspots.len() as f64 * 4.0);
    let position = |rng: &mut StdRng| -> f64 {
        if rng.gen_range(0.0f64..1.0) < cluster_prob {
            let center = hotspots[rng.gen_range(0..hotspots.len())];
            // Triangular offset around the hotspot.
            let offset = (rng.gen_range(-1.0f64..1.0) + rng.gen_range(-1.0f64..1.0)) * spread / 2.0;
            (center + offset).clamp(0.0, genome)
        } else {
            rng.gen_range(0.0..genome)
        }
    };
    // Genes are long, reads medium, enhancers short.
    let schemas: [(&str, &[f64]); 3] = [
        ("Genes", &[4.0]),
        ("Reads", &[1.0, 1.0]),
        ("Enhancers", &[0.5]),
    ];
    let base_len = selectivity * 40.0 + 0.25;
    let mut db = Database::new();
    for (name, scales) in schemas {
        let mut rel = Relation::new(name, scales.len(), db.dictionary());
        for _ in 0..n {
            let row: Vec<Value> = scales
                .iter()
                .map(|scale| {
                    let lo = position(rng);
                    let len = skewed_length(rng, base_len * scale, skew, genome);
                    checked_interval(lo, lo + len)
                })
                .collect();
            rel.push(row);
        }
        db.insert(rel);
    }
    db
}

/// Axis-aligned rectangles as (x-extent, y-extent) interval pairs joined in
/// a triangle; selectivity scales the sides relative to the world.
fn spatial_rectangles(rng: &mut StdRng, n: usize, selectivity: f64, skew: f64) -> Database {
    let world = (n.max(1) as f64) * 10.0;
    let base_side = selectivity * 25.0 + 0.25;
    let mut db = Database::new();
    for name in ["Buildings", "FloodZones", "Coverage"] {
        let mut rel = Relation::new(name, 2, db.dictionary());
        for _ in 0..n {
            let row: Vec<Value> = (0..2)
                .map(|_| {
                    let lo = rng.gen_range(0.0..world);
                    let side = skewed_length(rng, base_side, skew, world);
                    checked_interval(lo, lo + side)
                })
                .collect();
            rel.push(row);
        }
        db.insert(rel);
    }
    db
}

/// Appends one witness row per relation whose interval columns all hold the
/// same unit interval (and point columns the same point), guaranteeing a
/// satisfying combination regardless of the random part.
fn plant_witness(query: &Query, db: &mut Database) {
    let witness_interval = Value::interval(0.25, 1.25);
    let witness_point = Value::point(0.5);
    for atom in query.atoms() {
        let row: Vec<Value> = atom
            .vars
            .iter()
            .map(|v| match query.var_kind(v) {
                Some(VarKind::Interval) => witness_interval,
                _ => witness_point,
            })
            .collect();
        if let Some(rel) = db.relation_mut(&atom.relation) {
            rel.push(row);
        }
    }
}

/// The largest absolute endpoint across all relations the query touches
/// (endpoints are `>= 0` by construction in every family, but the shift
/// helpers stay correct for arbitrary signs).
fn data_span(query: &Query, db: &Database) -> f64 {
    let mut span = 0.0f64;
    for atom in query.atoms() {
        if let Some(rel) = db.relation(&atom.relation) {
            for tuple in rel.tuples() {
                for value in tuple {
                    if let Some(iv) = value.to_interval() {
                        span = span.max(iv.hi().abs()).max(iv.lo().abs());
                    }
                }
            }
        }
    }
    span
}

/// Shifts every value of `relation` by `offset` (intervals endpoint-wise,
/// points directly).
fn shift_relation(db: &mut Database, relation: &str, offset: f64) {
    let Some(rel) = db.relation_mut(relation) else {
        return;
    };
    let arity = rel.arity();
    let shifted: Vec<Vec<Value>> = rel
        .tuples()
        .iter()
        .map(|t| {
            t.iter()
                .map(|v| match v.as_interval() {
                    Some(iv) => checked_interval(iv.lo() + offset, iv.hi() + offset),
                    None => Value::point(v.as_point().unwrap_or(0.0) + offset),
                })
                .collect()
        })
        .collect();
    *rel = Relation::from_tuples(rel.name().to_string(), arity, shifted, rel.dictionary());
}

/// Shifts each relation's values into a window disjoint from every other
/// relation's window.  Every scenario query has each atom sharing a variable
/// with another atom, so some join constraint is violated by every tuple
/// combination and the Boolean answer is `false`.
fn separate_windows(query: &Query, db: &mut Database) {
    // Window width from the actual generated data: all values live in
    // `[-span, span]`, so steps of `2 * span + 1` keep the windows disjoint
    // whatever the signs.
    let window = 2.0 * data_span(query, db) + 1.0;
    for (i, atom) in query.atoms().iter().enumerate() {
        shift_relation(db, &atom.relation, window * (i as f64 + 1.0));
    }
}

/// Shifts only the last atom's relation out of the data's range: the final
/// join constraint can never close, so the answer is `false`, but every
/// earlier atom keeps its natural matches (the near-miss worst case).
fn shift_last_atom(query: &Query, db: &mut Database) {
    let window = 2.0 * data_span(query, db) + 1.0;
    if let Some(atom) = query.atoms().last() {
        shift_relation(db, &atom.relation, window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(family: ScenarioFamily) -> ScenarioConfig {
        ScenarioConfig::new(family).with_tuples(12).with_seed(7)
    }

    #[test]
    fn generation_is_deterministic_given_the_config() {
        for family in ScenarioFamily::ALL {
            let cfg = small(family);
            let a = build_scenario(&cfg);
            let b = build_scenario(&cfg);
            assert_eq!(a, b, "{}", family.name());
            let c = build_scenario(&cfg.with_seed(8));
            assert_ne!(a.database, c.database, "{}", family.name());
        }
    }

    #[test]
    fn scenarios_match_their_query_schemas() {
        for family in ScenarioFamily::ALL {
            let scenario = build_scenario(&small(family));
            for atom in scenario.query.atoms() {
                let rel = scenario
                    .database
                    .relation(&atom.relation)
                    .unwrap_or_else(|| panic!("{}: missing {}", family.name(), atom.relation));
                assert_eq!(rel.arity(), atom.vars.len(), "{}", family.name());
                assert_eq!(rel.len(), 12, "{}", family.name());
                for tuple in rel.tuples() {
                    for value in tuple {
                        let iv = value.to_interval().expect("interval-convertible value");
                        assert!(iv.lo().is_finite() && iv.hi().is_finite());
                        assert!(iv.lo() >= 0.0, "{}: negative endpoint", family.name());
                    }
                }
            }
        }
    }

    #[test]
    fn ip_ranges_blocks_are_cidr_aligned_and_flows_are_points() {
        let scenario = build_scenario(&small(ScenarioFamily::IpRanges).with_tuples(40));
        for name in ["Rules", "Watchlist"] {
            for tuple in scenario.database.relation(name).unwrap().tuples() {
                for value in tuple {
                    let iv = value.as_interval().unwrap();
                    let size = iv.hi() - iv.lo() + 1.0;
                    assert_eq!(size.log2().fract(), 0.0, "block size {size} not 2^k");
                    assert_eq!(iv.lo() % size, 0.0, "block not aligned to its size");
                }
            }
        }
        for tuple in scenario.database.relation("Flows").unwrap().tuples() {
            for value in tuple {
                assert!(value.as_interval().unwrap().is_point());
            }
        }
    }

    #[test]
    fn selectivity_scales_interval_lengths() {
        for family in [
            ScenarioFamily::TemporalOverlap,
            ScenarioFamily::GenomicOverlap,
            ScenarioFamily::SpatialRectangles,
        ] {
            let total_length = |selectivity: f64| -> f64 {
                let cfg = ScenarioConfig::new(family)
                    .with_tuples(64)
                    .with_skew(0.0)
                    .with_selectivity(selectivity);
                let scenario = build_scenario(&cfg);
                scenario
                    .query
                    .atoms()
                    .iter()
                    .flat_map(|a| scenario.database.relation(&a.relation).unwrap().tuples())
                    .flat_map(|t| t.into_iter().map(|v| v.to_interval().unwrap().length()))
                    .sum()
            };
            assert!(
                total_length(0.05) < total_length(0.9),
                "{}: selectivity did not scale lengths",
                family.name()
            );
        }
    }

    #[test]
    fn skew_produces_heavier_tails() {
        let max_length = |skew: f64| -> f64 {
            let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
                .with_tuples(128)
                .with_skew(skew);
            let scenario = build_scenario(&cfg);
            scenario
                .database
                .relation("Sessions")
                .unwrap()
                .tuples()
                .iter()
                .map(|t| t[0].to_interval().unwrap().length())
                .fold(0.0, f64::max)
        };
        assert!(max_length(0.0) < max_length(3.5));
    }

    #[test]
    fn planted_satisfiable_appends_a_shared_witness() {
        for family in ScenarioFamily::ALL {
            let cfg = small(family).with_planted(PlantedAnswer::Satisfiable);
            let scenario = build_scenario(&cfg);
            for atom in scenario.query.atoms() {
                let rel = scenario.database.relation(&atom.relation).unwrap();
                assert_eq!(rel.len(), 13, "{}", family.name());
                for value in rel.row(rel.len() - 1) {
                    assert_eq!(value.as_interval().unwrap(), Interval::new(0.25, 1.25));
                }
            }
        }
    }

    #[test]
    fn planted_unsatisfiable_separates_every_relation_pair() {
        for family in ScenarioFamily::ALL {
            let cfg = small(family).with_planted(PlantedAnswer::Unsatisfiable);
            let scenario = build_scenario(&cfg);
            let names: Vec<&str> = scenario
                .query
                .atoms()
                .iter()
                .map(|a| a.relation.as_str())
                .collect();
            for (i, a) in names.iter().enumerate() {
                for b in names.iter().skip(i + 1) {
                    let ra = scenario.database.relation(a).unwrap();
                    let rb = scenario.database.relation(b).unwrap();
                    for ta in ra.tuples() {
                        for tb in rb.tuples() {
                            for va in &ta {
                                for vb in &tb {
                                    assert!(
                                        !va.to_interval()
                                            .unwrap()
                                            .intersects(vb.to_interval().unwrap()),
                                        "{}: {a} and {b} overlap",
                                        family.name()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planted_near_miss_shifts_only_the_last_relation() {
        for family in ScenarioFamily::ALL {
            let natural = build_scenario(&small(family));
            let near_miss = build_scenario(&small(family).with_planted(PlantedAnswer::NearMiss));
            let atoms = near_miss.query.atoms();
            let (last, prefix) = atoms.split_last().expect("scenario queries have atoms");
            // Every earlier relation keeps its natural tuples...
            for atom in prefix {
                assert_eq!(
                    natural.database.relation(&atom.relation),
                    near_miss.database.relation(&atom.relation),
                    "{}: prefix relation {} changed",
                    family.name(),
                    atom.relation
                );
            }
            // ...while the last relation is disjoint from all of them.
            let shifted = near_miss.database.relation(&last.relation).unwrap();
            for atom in prefix {
                let rel = near_miss.database.relation(&atom.relation).unwrap();
                for ta in rel.tuples() {
                    for tb in shifted.tuples() {
                        for va in &ta {
                            for vb in &tb {
                                assert!(
                                    !va.to_interval()
                                        .unwrap()
                                        .intersects(vb.to_interval().unwrap()),
                                    "{}: {} overlaps shifted {}",
                                    family.name(),
                                    atom.relation,
                                    last.relation
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn knobs_are_clamped_not_rejected() {
        let cfg = ScenarioConfig::new(ScenarioFamily::TemporalOverlap)
            .with_tuples(4)
            .with_selectivity(42.0)
            .with_skew(-3.0);
        // Must not panic; clamped to selectivity 1.0, skew 0.0.
        let scenario = build_scenario(&cfg);
        assert_eq!(scenario.database.relation("Sessions").unwrap().len(), 4);
    }

    #[test]
    fn names_encode_the_config() {
        let cfg = small(ScenarioFamily::GenomicOverlap);
        let scenario = build_scenario(&cfg);
        assert!(scenario.name.contains("genomic-overlap"));
        assert!(scenario.name.contains("n12"));
        assert!(scenario.name.contains("seed7"));
    }
}
