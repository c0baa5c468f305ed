//! One transformed relation built from its plan: seeds → sort → expand.

use super::ancestors::close_over_ancestors;
use super::plan::{NodeLists, RelationSpec, SourceColumn, SpecColumn};
use super::{bits_id, id_bits, ForwardReduction};
use ij_relation::{
    faults, CancelTicker, CancellationToken, EvalError, Relation, SharedDictionary, ValueId,
};
use ij_segtree::BitString;

/// How one source column contributes to a transformed relation.
#[derive(Clone, Copy)]
pub(super) enum PlanColumn<'a> {
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
    /// Copies each ancestor-or-self of the source row's leaf (`leaves`),
    /// whole: one option per ancestor.
    Ancestors(&'a [ValueId]),
}

impl<'a> PlanColumn<'a> {
    /// Number of output columns.
    pub(super) fn width(&self) -> usize {
        match *self {
            PlanColumn::Carried(_) | PlanColumn::Ancestors(_) => 1,
            PlanColumn::Expand { level, .. } => level,
        }
    }

    /// What a source row contributes to the seeds in this column: its id,
    /// its leaf's ancestors root first (computed into `ancestors`), or the
    /// nodes it expands from — its leaf at the top level, its canonical
    /// partition below (possibly empty: the row joins nothing).
    pub(super) fn seeds_of<'s>(
        &'s self,
        row: usize,
        ancestors: &'s mut Vec<ValueId>,
    ) -> &'s [ValueId] {
        match *self {
            PlanColumn::Carried(ids) => &ids[row..=row],
            PlanColumn::Ancestors(leaves) => {
                // `anc(leaf)` of Section 3: its prefixes, the root included.
                let leaf = id_bits(leaves[row]);
                let prefixes = (0..=leaf.len()).map(|n| leaf.prefix(n));
                ancestors.clear();
                ancestors.extend(prefixes.map(|node| bits_id(node.bits(), node.len())));
                ancestors
            }
            PlanColumn::Expand { nodes, leaf, .. } if leaf => &nodes.leaves[row..=row],
            PlanColumn::Expand { nodes, .. } => nodes.partitions.of_row(row),
        }
    }

    /// The node the seed id `seed` names in this column, to be cut into
    /// [`width`](Self::width) pieces; `None` for a seed that is its own one
    /// option (a carried id, an ancestor).
    fn node_of(&self, seed: ValueId) -> Option<BitString> {
        let expands = matches!(self, PlanColumn::Expand { .. });
        expands.then(|| id_bits(seed))
    }
}

impl ForwardReduction {
    /// The build plan of a spec: its columns, borrowed from what this
    /// reduction keeps of the source atom.
    pub(super) fn resolve(&self, spec: &RelationSpec) -> Vec<PlanColumn<'_>> {
        let source = &self.sources[spec.atom];
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
                PlanColumn::Ancestors(&nodes.leaves)
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
pub(super) fn build_relation(
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
        Some((a, collapsed)) => {
            let leaves = sorted_seeds(name, dict, &collapsed, source_rows, &mut ticker)?;
            close_over_ancestors(&leaves, a, &mut ticker)?
        }
        None => sorted_seeds(name, dict, plan, source_rows, &mut ticker)?,
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
            let node = column.node_of(seeds.id_at(seed, c));
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
            match column.node_of(id) {
                Some(node) => tables.push_compositions(node, width, &mut options),
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
/// deduplicated by [`Relation::dedup`] — the one sort of a build.
pub(super) fn sorted_seeds(
    name: &str,
    dict: &SharedDictionary,
    plan: &[PlanColumn<'_>],
    source_rows: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<Relation, EvalError> {
    let mut seeds: Vec<Vec<ValueId>> = vec![Vec::new(); plan.len()];
    let (mut collected, mut ancestors) = (0, Vec::new());
    for row in 0..source_rows {
        let mut count = 1;
        for column in plan {
            count *= column.seeds_of(row, &mut ancestors).len();
        }
        // An empty canonical partition: the tuple joins nothing.
        if count == 0 {
            continue;
        }
        ticker.advance(count)?;
        let mut outer = 1;
        for (column, seeds) in plan.iter().zip(&mut seeds) {
            let ids = column.seeds_of(row, &mut ancestors);
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

/// The column `a` whose seeds a build takes from the tree instead of a sort
/// ([`close_over_ancestors`]), the first `Ancestors` column, and the plan
/// with that column collapsed to the row's leaf: a carried column of the
/// leaves, `h + 1` times fewer seeds to sort.
pub(super) fn tree_column<'a>(plan: &[PlanColumn<'a>]) -> Option<(usize, Vec<PlanColumn<'a>>)> {
    let (a, leaves) = (plan.iter().enumerate()).find_map(|(a, column)| match *column {
        PlanColumn::Ancestors(leaves) => Some((a, leaves)),
        _ => None,
    })?;
    let mut collapsed = plan.to_vec();
    collapsed[a] = PlanColumn::Carried(leaves);
    Some((a, collapsed))
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
    fn push_compositions(&mut self, node: BitString, level: usize, out: &mut Vec<ValueId>) {
        let bits = node.bits();
        out.extend(self.pieces(node.len(), level).iter().map(|piece| {
            let mask = (1u64 << piece.len) - 1;
            bits_id(bits >> piece.shift & mask, piece.len)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::plan::reduced_relation_name;
    use crate::forward::plan::RowLists;
    use crate::forward::tests::*;
    use crate::forward::*;
    use ij_hypergraph::{full_reduction, VarId, VarKind};
    use ij_relation::Value;
    use ij_segtree::{Interval, SegmentTree};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The row-at-a-time transform the id-native kernel replaced, kept as its
    /// oracle: it works on resolved values, recomputes the canonical
    /// partition (or leaf) of every cell per level assignment, lists each
    /// node's [`BitString::compositions`] and clones its way through the
    /// cross product.  Returns every transformed relation as a row set.
    fn oracle_reduction(
        q: &Query,
        db: &Database,
        ReductionConfig { encoding }: ReductionConfig,
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
                let decompose = encoding == EncodingStrategy::Decomposed
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
        NodeLists::build(&tree, intervals, None).unwrap()
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
    fn table_driven_compositions_agree_with_the_paper_facing_iterator_and_the_count() {
        // The exact-size fill rests on the three spellings of 𝔉(u, i)
        // agreeing: same pieces, same order, `composition_count` of them.
        // Every node up to 6 bits, and four bit patterns per length up to 13.
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
        let (mut tables, mut ids) = (CompositionTables::default(), Vec::new());
        for node in nodes {
            for level in 1..=4 {
                ids.clear();
                tables.push_compositions(node, level, &mut ids);
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
        // Every piece has its inline id: nothing went into the dictionary.
        assert_eq!(dict.len(), 0);
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
                    let spec = &planned.spec;
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
