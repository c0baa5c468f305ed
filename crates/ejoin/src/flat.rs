//! Flat (CSR-style) leapfrog tries: sorted-array levels with child-range
//! offsets — the one trie the generic join indexes its atoms with.
//!
//! A [`FlatTrie`] stores one sorted [`ValueId`] array per trie level plus a
//! child-range offset array per non-leaf level — the compressed-sparse-row
//! discipline: entry `i` of level `l` owns the values
//! `levels[l+1].values[child_start[i] .. child_start[i+1]]`, so the whole
//! trie is a handful of contiguous allocations with no per-node boxes and no
//! hash probes.  The candidate sets the generic join intersects are
//! **sorted runs**, which is what unlocks the galloping multi-way
//! intersection kernels of [`ij_relation::kernels`]
//! ([`leapfrog_next`](kernels::leapfrog_next),
//! [`gallop_seek`](kernels::gallop_seek)): candidate generation walks arrays
//! in cache order.
//!
//! The build is column-wise: surviving row indices (the rows that pass the
//! repeated-variable filter, see `trie.rs`) are sorted lexicographically
//! by the level columns, and one linear pass emits the CSR arrays, collapsing
//! duplicate paths.  Rows that already strictly ascend in level order with
//! no repeated variable — a relation that
//! [`Relation::dedup`](ij_relation::Relation::dedup) sorted, or one the
//! forward reduction emitted in seed order, whose column order is the level
//! order — skip the permutation and the sort: one pass checks the ascent
//! while it emits the upper levels, and the deepest level is the last column
//! as it is.  The pass gives up at the first row that does not ascend, and
//! the sort takes over.  A trie's root-to-leaf paths are therefore exactly
//! the sorted, deduplicated set of filter-surviving rows projected onto the
//! level order, and the two builds give equal arrays.  The unit tests below
//! and `tests/flat_trie_properties.rs` hold the build and the joins over it
//! to that definition and to brute-force oracles across cache
//! configurations.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::trie::{repeated_variable_rows, trie_level_vars};
use crate::{BoundAtom, EvalContext};
use ij_hypergraph::VarId;
use ij_relation::{faults, CancelTicker, CancellationToken, EvalError, ValueId};
use std::sync::Arc;

/// One level of a [`FlatTrie`].
#[derive(Debug, PartialEq)]
struct FlatLevel {
    /// The level's values: the concatenation of every parent's sorted,
    /// deduplicated child run (level 0 is one run — the root's children).
    values: Box<[ValueId]>,
    /// CSR offsets into the **next** level: entry `i`'s children are
    /// `next.values[child_start[i] .. child_start[i + 1]]`.  Length
    /// `values.len() + 1`; empty for the deepest level.
    child_start: Box<[u32]>,
}

/// A flat trie over one atom, with levels ordered by the global variable
/// order (see the module docs for the layout and its invariants).
#[derive(Debug)]
pub struct FlatTrie {
    /// The atom's distinct variables in global order — the trie levels.
    pub level_vars: Vec<VarId>,
    levels: Vec<FlatLevel>,
}

impl FlatTrie {
    /// Builds the flat trie of `atom` with levels sorted according to
    /// `global_order` (a total order over all query variables, e.g. the
    /// elimination order of the chosen decomposition).  Rows whose repeated
    /// variables disagree are filtered out and duplicate paths collapse.
    ///
    /// The column-wise CSR build: sort the surviving rows lexicographically
    /// by the level columns, then emit every level's value and offset arrays
    /// in one pass over the sorted permutation (a row extends the arrays from
    /// the first level where its path diverges from its predecessor's;
    /// fully-equal paths — duplicate tuples — are skipped).  When no
    /// variable repeats, the build first tries the rows as they are: one
    /// pass emits the upper levels from the rows in place, checking at each
    /// row that it strictly ascends in level order, and the deepest level
    /// is the last level column verbatim — no permutation and no sort.  At
    /// the first row that does not ascend (a repeated row or a descent) the
    /// pass stops and the sorting build runs; a zero-level atom takes the
    /// sorting build at once.  Every pass polls `token` (if any) at least
    /// every [`check_interval`](CancellationToken::check_interval) rows; the
    /// lexicographic sort runs to completion (a single `sort_unstable_by`,
    /// bounded and allocation-free).
    ///
    /// # Errors
    ///
    /// [`EvalError::Cancelled`] / [`EvalError::DeadlineExceeded`] when the
    /// token fires mid-build; a tokenless build never fails.
    ///
    /// # Panics
    ///
    /// Panics if the relation has more than `u32::MAX` rows (row indices and
    /// CSR offsets are `u32`).
    pub fn build(
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        assert!(
            atom.relation.len() <= u32::MAX as usize,
            "flat trie build supports at most 2^32 rows per relation"
        );
        let level_vars = trie_level_vars(atom, global_order);
        let columns: Vec<&[ValueId]> = level_vars
            .iter()
            .map(|&v| {
                #[expect(
                    clippy::unwrap_used,
                    reason = "infallible: the levels are the atom's own variables"
                )]
                let column = atom.vars.iter().position(|&u| u == v).unwrap();
                atom.relation.column_ids(column)
            })
            .collect();
        faults::point(faults::Site::TrieBuild);
        let mut ticker = CancelTicker::new(token);
        let levels = match repeated_variable_rows(atom) {
            // The rows that pass the repeated-variable filter.
            Some(rows) => build_sorted(&columns, rows, &mut ticker)?,
            // A zero-level atom has no column to take the presorted path.
            None if columns.is_empty() => build_sorted(&columns, Vec::new(), &mut ticker)?,
            None => match build_presorted(&columns, &mut ticker)? {
                Some(levels) => levels,
                None => {
                    let rows = atom.relation.len() as u32;
                    build_sorted(&columns, (0..rows).collect(), &mut ticker)?
                }
            },
        };
        Ok(FlatTrie { level_vars, levels })
    }

    /// The trie of `atom` under `global_order`, memoised on the atom's
    /// relation ([`Relation::memoised`](ij_relation::Relation::memoised))
    /// under the atom's column binding and its level order: built by
    /// [`FlatTrie::build`] on the first lookup and shared by every later one
    /// while the relation's columns stay as they are.  Every lookup is
    /// counted into `eval`'s ledger (if any), and so is every finished
    /// build.
    ///
    /// # Errors
    ///
    /// The build's [`EvalError`] when `eval.token` fires mid-build; nothing
    /// is memoised then.
    pub(crate) fn memoised(
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        eval: EvalContext<'_>,
    ) -> Result<Arc<FlatTrie>, EvalError> {
        // The column binding, then the level order: the binding's length is
        // the relation's arity, so the split is unambiguous.
        let mut key = Vec::with_capacity(2 * atom.vars.len());
        key.extend_from_slice(&atom.vars);
        key.extend(trie_level_vars(atom, global_order));
        let mut hit = true;
        let trie = atom.relation.memoised(&key, || {
            hit = false;
            if let Some(a) = eval.activity {
                a.record_lookup(false);
            }
            let trie = FlatTrie::build(atom, global_order, eval.token)?;
            if let Some(a) = eval.activity {
                a.record_build(trie.heap_bytes());
            }
            Ok(trie)
        })?;
        if let (true, Some(a)) = (hit, eval.activity) {
            a.record_lookup(true);
        }
        Ok(trie)
    }

    /// The sorted, distinct child run `lo..hi` of `level`'s value array (the
    /// root run is `0..self.level_len(0)`; descend through
    /// [`FlatTrie::child_range`]).
    pub fn run(&self, level: usize, lo: u32, hi: u32) -> &[ValueId] {
        &self.levels[level].values[lo as usize..hi as usize]
    }

    /// Number of values stored at `level` across all runs.
    pub fn level_len(&self, level: usize) -> u32 {
        self.levels[level].values.len() as u32
    }

    /// The half-open range of the next level's value array holding the
    /// children of the entry at absolute `index` of `level`.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) when called on the deepest level, whose entries
    /// have no children.
    pub fn child_range(&self, level: usize, index: u32) -> (u32, u32) {
        let offsets = &self.levels[level].child_start;
        (offsets[index as usize], offsets[index as usize + 1])
    }

    /// True if a trie with at least one level holds no tuples (an atom whose
    /// repeated-variable filter rejects every row).  Zero-level tries (arity-zero guard atoms) carry
    /// no row information and always report non-empty — the join engine
    /// short-circuits empty relations before any trie is built.
    pub fn is_empty(&self) -> bool {
        self.levels.first().is_some_and(|l| l.values.is_empty())
    }

    /// Number of levels (distinct variables).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Estimated heap footprint in bytes.  The CSR arrays are exact-sized
    /// boxed slices, so this is essentially the true allocation; an
    /// evaluation reads it once per trie it builds
    /// ([`EvalActivity::built_bytes`](crate::EvalActivity::built_bytes)).
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.level_vars.capacity() * std::mem::size_of::<VarId>()
            + self
                .levels
                .iter()
                .map(|l| {
                    std::mem::size_of::<FlatLevel>()
                        + l.values.len() * std::mem::size_of::<ValueId>()
                        + l.child_start.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }
}

/// The levels of a trie over the rows `perm` of `columns` (one per level):
/// sorts `perm` lexicographically by the level columns, then emits every
/// level's value and offset arrays in one pass over it — a row extends the
/// arrays from the first level where its path diverges from its
/// predecessor's, and a fully-equal path (a duplicate tuple) is skipped.
/// Polls `ticker` once per row of the emission.
fn build_sorted(
    columns: &[&[ValueId]],
    mut perm: Vec<u32>,
    ticker: &mut CancelTicker<'_>,
) -> Result<Vec<FlatLevel>, EvalError> {
    let k = columns.len();
    perm.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        columns
            .iter()
            .map(|col| col[a].cmp(&col[b]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut values: Vec<Vec<ValueId>> = vec![Vec::new(); k];
    let mut child_start: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut prev: Option<usize> = None;
    for &row in &perm {
        ticker.tick()?;
        let row = row as usize;
        // First level where this row's path diverges from its predecessor's;
        // `k` means a duplicate path.
        let diverge = match prev {
            None => 0,
            Some(p) => columns
                .iter()
                .position(|col| col[row] != col[p])
                .unwrap_or(k),
        };
        for level in diverge..k {
            if level + 1 < k {
                // The new entry's children begin at the next level's current
                // end (its own entries are pushed right after, while the
                // prefix stays equal).
                child_start[level].push(values[level + 1].len() as u32);
            }
            values[level].push(columns[level][row]);
        }
        prev = Some(row);
    }
    // Closing sentinels: entry `i`'s children end where entry `i + 1`'s
    // begin, so each offset array carries one final end-of-level mark.
    for level in 0..k.saturating_sub(1) {
        child_start[level].push(values[level + 1].len() as u32);
    }
    Ok(flat_levels(values, child_start))
}

/// The levels of a trie over `columns` (one per level, at least one) if its
/// rows strictly ascend in level order, else `None`: no permutation and no
/// sort.  Every row is a new path, so the deepest level is the last column
/// verbatim, and a row opens an entry on each upper level from the first
/// where it differs from its predecessor — the same comparison that checks
/// the ascent, made in the one pass that emits.  Two levels, every triangle
/// atom's, are one packed `u64` per row: level 0 is the run-length encoding
/// of column 0, whose run starts are its offsets.  Polls `ticker` once per
/// chunk of [`check_interval`](CancellationToken::check_interval) rows,
/// before the chunk, so a chunk's rows are the units it counts.
fn build_presorted(
    columns: &[&[ValueId]],
    ticker: &mut CancelTicker<'_>,
) -> Result<Option<Vec<FlatLevel>>, EvalError> {
    let rows = columns.first().map_or(0, |col| col.len());
    let chunk = ticker
        .token()
        .map_or(rows, |t| t.check_interval() as usize)
        .max(1);
    let ascending = match columns {
        [first, second] => presorted_two_levels(first, second, chunk, ticker)?,
        _ => presorted_levels(columns, chunk, ticker)?,
    };
    let Some((mut values, mut child_start)) = ascending else {
        return Ok(None);
    };
    if let Some(last) = columns.last() {
        values.push(last.to_vec());
        child_start.push(Vec::new());
    }
    Ok(Some(flat_levels(values, child_start)))
}

/// The upper levels of a presorted trie (values and offsets per level) and
/// whether the rows ascend: `None` at the first row that does not.
type UpperLevels = Option<(Vec<Vec<ValueId>>, Vec<Vec<u32>>)>;

/// [`build_presorted`]'s level 0 over two columns: a row opens an entry
/// where column 0 changes, and its row index is the entry's first child.
fn presorted_two_levels(
    first: &[ValueId],
    second: &[ValueId],
    chunk: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<UpperLevels, EvalError> {
    let key = |a: ValueId, b: ValueId| u64::from(a.raw()) << 32 | u64::from(b.raw());
    let (mut values, mut starts) = (Vec::new(), Vec::new());
    let mut prev = None;
    for start in (0..first.len()).step_by(chunk) {
        let end = (start + chunk).min(first.len());
        ticker.advance(end - start)?;
        let rows = first[start..end].iter().zip(&second[start..end]);
        for (row, (&a, &b)) in (start..).zip(rows) {
            let next = key(a, b);
            match prev {
                Some(prev) if next <= prev => return Ok(None),
                Some(prev) if next >> 32 == prev >> 32 => {}
                _ => {
                    values.push(a);
                    starts.push(row as u32);
                }
            }
            prev = Some(next);
        }
    }
    starts.push(first.len() as u32);
    Ok(Some((vec![values], vec![starts])))
}

/// [`build_presorted`]'s upper levels over any number of columns: a row
/// diverges from its predecessor at the first column that differs, which
/// must hold a larger id, and opens an entry on each upper level from there.
fn presorted_levels(
    columns: &[&[ValueId]],
    chunk: usize,
    ticker: &mut CancelTicker<'_>,
) -> Result<UpperLevels, EvalError> {
    let (k, rows) = (columns.len(), columns[0].len());
    let mut values: Vec<Vec<ValueId>> = vec![Vec::new(); k - 1];
    let mut child_start: Vec<Vec<u32>> = vec![Vec::new(); k - 1];
    // The length of level `level + 1` before row `row` — the deepest level
    // holds one value per row.
    let next_len = |values: &[Vec<ValueId>], level: usize, row: usize| {
        values.get(level + 1).map_or(row, Vec::len) as u32
    };
    for start in (0..rows).step_by(chunk) {
        let end = (start + chunk).min(rows);
        ticker.advance(end - start)?;
        for row in start..end {
            let diverge = match row {
                0 => 0,
                _ => match columns.iter().position(|col| col[row] != col[row - 1]) {
                    Some(level) if columns[level][row] > columns[level][row - 1] => level,
                    _ => return Ok(None),
                },
            };
            for level in diverge..k - 1 {
                child_start[level].push(next_len(&values, level, row));
                values[level].push(columns[level][row]);
            }
        }
    }
    for (level, starts) in child_start.iter_mut().enumerate() {
        starts.push(next_len(&values, level, rows));
    }
    Ok(Some((values, child_start)))
}

/// Boxes per-level value and offset arrays into trie levels.
fn flat_levels(values: Vec<Vec<ValueId>>, child_start: Vec<Vec<u32>>) -> Vec<FlatLevel> {
    (values.into_iter().zip(child_start))
        .map(|(values, child_start)| FlatLevel {
            values: values.into_boxed_slice(),
            child_start: child_start.into_boxed_slice(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::{Relation, SharedDictionary, Value};
    use std::collections::BTreeSet;

    fn rel(dict: &SharedDictionary, name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
            dict,
        )
    }

    fn lcg_rows(mut seed: u64, n: usize, arity: usize, modulus: u64) -> Vec<Vec<f64>> {
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % modulus) as f64
        };
        (0..n)
            .map(|_| (0..arity).map(|_| next()).collect())
            .collect()
    }

    /// The definition a build is held to, computed row by row from the
    /// relation: the atom's distinct variables in `order`, and the set of
    /// rows that pass the repeated-variable filter, projected onto them.
    fn definition(atom: &BoundAtom<'_>, order: &[VarId]) -> (Vec<VarId>, BTreeSet<Vec<ValueId>>) {
        let level_vars: Vec<VarId> = order
            .iter()
            .copied()
            .filter(|v| atom.vars.contains(v))
            .collect();
        let column_of = |v: VarId| atom.vars.iter().position(|&u| u == v).unwrap();
        let paths = (0..atom.relation.len())
            .filter(|&row| {
                atom.vars.iter().enumerate().all(|(c, &v)| {
                    atom.relation.column_ids(c)[row] == atom.relation.column_ids(column_of(v))[row]
                })
            })
            .map(|row| {
                level_vars
                    .iter()
                    .map(|&v| atom.relation.column_ids(column_of(v))[row])
                    .collect()
            })
            .collect();
        (level_vars, paths)
    }

    /// Collects every full-depth root-to-leaf path of a flat trie (also
    /// asserting that every run is sorted and distinct).
    fn flat_paths(trie: &FlatTrie) -> Vec<Vec<ValueId>> {
        fn rec(
            trie: &FlatTrie,
            level: usize,
            lo: u32,
            hi: u32,
            prefix: &mut Vec<ValueId>,
            out: &mut Vec<Vec<ValueId>>,
        ) {
            let run = trie.run(level, lo, hi);
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "runs must be sorted and distinct"
            );
            for (i, &v) in run.iter().enumerate() {
                prefix.push(v);
                if level + 1 < trie.depth() {
                    let (clo, chi) = trie.child_range(level, lo + i as u32);
                    rec(trie, level + 1, clo, chi, prefix, out);
                } else {
                    out.push(prefix.clone());
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        if trie.depth() > 0 {
            rec(trie, 0, 0, trie.level_len(0), &mut Vec::new(), &mut out);
        }
        out
    }

    #[test]
    fn flat_paths_equal_the_definition() {
        let dict = SharedDictionary::new();
        let r = rel(&dict, "R", lcg_rows(11, 200, 3, 7));
        let one = rel(&dict, "O", vec![vec![4.0, 5.0, 4.0]]);
        // Plain bindings, a permuted level order, and a repeated variable —
        // on 200 rows and on a single row.
        for relation in [&r, &one] {
            for vars in [vec![0, 1, 2], vec![2, 0, 1], vec![0, 1, 0]] {
                let atom = BoundAtom::new(relation, vars.clone());
                let order = [1, 2, 0];
                let (level_vars, expected) = definition(&atom, &order);
                let flat = FlatTrie::build(&atom, &order, None).unwrap();
                assert_eq!(flat.level_vars, level_vars, "vars {vars:?}");
                assert_eq!(flat.depth(), level_vars.len());
                assert_eq!(flat.is_empty(), expected.is_empty());
                let got = flat_paths(&flat);
                // Flat enumeration is lexicographically sorted and distinct,
                // like the set's iteration order.
                assert!(got.iter().eq(expected.iter()), "vars {vars:?}");
            }
        }
    }

    #[test]
    fn presorted_rows_build_the_arrays_of_the_sorting_build() {
        // Rows over a small id domain, deduplicated: sorted by (column 0,
        // column 1, column 2), so they strictly ascend in level order for
        // the order [0, 1, 2].
        let ids = lcg_rows(5, 300, 3, 6);
        let cols = (0..3)
            .map(|c| (ids.iter().map(|row| ValueId::from_raw(row[c] as u32))).collect())
            .collect();
        let mut r = Relation::from_id_columns("R", ids.len(), cols, &SharedDictionary::new());
        r.dedup();
        assert!(r.len() < ids.len(), "some rows repeat");
        let atom = BoundAtom::new(&r, vec![0, 1, 2]);
        // The relation and its deduplicated projections onto one and two
        // leading columns: one, two and three levels.
        let (one, two) = (r.projection(&[0]), r.projection(&[0, 1]));
        for relation in [&*one, &*two, &r] {
            let columns: Vec<&[ValueId]> = (0..relation.arity())
                .map(|c| relation.column_ids(c))
                .collect();
            assert!(ij_relation::kernels::strictly_ascending(&columns));
            let all: Vec<u32> = (0..relation.len() as u32).collect();
            let mut ticker = CancelTicker::new(None);
            let presorted = build_presorted(&columns, &mut ticker).unwrap().unwrap();
            let sorted = build_sorted(&columns, all, &mut ticker).unwrap();
            assert_eq!(presorted, sorted, "{} levels", columns.len());
        }
        let built = FlatTrie::build(&atom, &[0, 1, 2], None).unwrap();
        let (_, expected) = definition(&atom, &[0, 1, 2]);
        assert!(flat_paths(&built).iter().eq(expected.iter()));
    }

    /// Three sets of rows of `levels` raw ids: strictly ascending, with one
    /// row repeated beside itself, and with one descent, at a row `at`
    /// picks (the last row included).
    fn shaped_rows(seed: u64, levels: usize, at: usize) -> [(&'static str, Vec<Vec<u32>>); 3] {
        let mut set: Vec<Vec<u32>> = lcg_rows(seed, 40, levels, 6)
            .into_iter()
            .map(|row| row.into_iter().map(|v| v as u32).collect())
            .collect();
        set.sort();
        set.dedup();
        let mut repeated = set.clone();
        repeated.insert(at % set.len(), set[at % set.len()].clone());
        let mut descent = set.clone();
        if set.len() > 1 {
            let i = 1 + at % (set.len() - 1);
            descent.swap(i - 1, i);
        }
        [
            ("ascending", set),
            ("a repeated row", repeated),
            ("one descent", descent),
        ]
    }

    #[test]
    fn the_presorted_pass_builds_exactly_the_strictly_ascending_rows() {
        for seed in 0..40 {
            for levels in 1..=4 {
                for (what, rows) in shaped_rows(seed, levels, seed as usize * 7) {
                    let columns: Vec<Vec<ValueId>> = (0..levels)
                        .map(|c| rows.iter().map(|row| ValueId::from_raw(row[c])).collect())
                        .collect();
                    let columns: Vec<&[ValueId]> = columns.iter().map(Vec::as_slice).collect();
                    let ascends = rows.windows(2).all(|pair| pair[0] < pair[1]);
                    let mut ticker = CancelTicker::new(None);
                    let presorted = build_presorted(&columns, &mut ticker).unwrap();
                    assert_eq!(presorted.is_some(), ascends, "{what}, {levels} levels");
                    let all: Vec<u32> = (0..rows.len() as u32).collect();
                    let sorted = build_sorted(&columns, all, &mut ticker).unwrap();
                    if let Some(built) = presorted {
                        assert_eq!(built, sorted, "{what}, {levels} levels");
                    }
                }
            }
        }
    }

    #[test]
    fn the_presorted_pass_polls_once_per_check_interval_of_rows() {
        let token = CancellationToken::new().with_check_interval(4);
        token.cancel();
        for levels in 1..=4 {
            let column = |rows: u32| (0..rows).map(ValueId::from_raw).collect::<Vec<_>>();
            for (rows, polls) in [(3, false), (4, true), (9, true)] {
                let columns: Vec<Vec<ValueId>> = vec![column(rows); levels];
                let columns: Vec<&[ValueId]> = columns.iter().map(Vec::as_slice).collect();
                let built = build_presorted(&columns, &mut CancelTicker::new(Some(&token)));
                assert_eq!(built.is_err(), polls, "{rows} rows, {levels} levels");
            }
        }
    }

    #[test]
    fn duplicates_collapse_and_repeated_variables_filter() {
        let dict = SharedDictionary::new();
        let r = rel(
            &dict,
            "R",
            vec![
                vec![1.0, 1.0],
                vec![1.0, 1.0], // duplicate path
                vec![1.0, 2.0], // rejected by A == A filter
                vec![3.0, 3.0],
            ],
        );
        let atom = BoundAtom::new(&r, vec![0, 0]);
        let flat = FlatTrie::build(&atom, &[0], None).unwrap();
        assert_eq!(flat.depth(), 1);
        // The values {1.0, 3.0} survive, and resolve back from their ids.
        let values: Vec<Value> = flat
            .run(0, 0, flat.level_len(0))
            .iter()
            .map(|&id| dict.resolve(id))
            .collect();
        assert_eq!(values, vec![Value::point(1.0), Value::point(3.0)]);
        // A filter that rejects everything leaves an empty (non-zero-level)
        // trie.
        let none = rel(&dict, "N", vec![vec![1.0, 2.0]]);
        let empty = FlatTrie::build(&BoundAtom::new(&none, vec![0, 0]), &[0], None).unwrap();
        assert!(empty.is_empty());
        // Zero-level guard atoms report non-empty.
        let mut guard = Relation::new("G", 0, &dict);
        guard.push(vec![]);
        let atom = BoundAtom::new(&guard, vec![]);
        let zero = FlatTrie::build(&atom, &[], None).unwrap();
        assert_eq!(zero.depth(), 0);
        assert!(!zero.is_empty());
    }

    #[test]
    fn heap_bytes_track_flat_trie_size() {
        let dict = SharedDictionary::new();
        let small = rel(&dict, "S", vec![vec![1.0]]);
        let small_trie = FlatTrie::build(&BoundAtom::new(&small, vec![0]), &[0], None).unwrap();
        assert!(small_trie.heap_bytes() > std::mem::size_of::<FlatTrie>());
        // 256 two-level paths dwarf a single one-level path.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64, -(i as f64)]).collect();
        let big = rel(&dict, "B", rows);
        let atom = BoundAtom::new(&big, vec![0, 1]);
        let big_trie = FlatTrie::build(&atom, &[0, 1], None).unwrap();
        assert!(big_trie.heap_bytes() > 8 * small_trie.heap_bytes());
    }
}
