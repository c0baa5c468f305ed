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
//! The build is column-wise: surviving row indices (after the
//! repeated-variable kernel mask of the shared build plan, see `trie.rs`) are
//! sorted lexicographically by the level columns, and one linear pass emits
//! the CSR arrays, collapsing duplicate paths.  A trie's root-to-leaf paths
//! are therefore exactly the sorted, deduplicated set of filter-surviving
//! rows projected onto the level order; a sharded build splits that set by
//! [`shard_of`](crate::shard_of) on the first level's value.  The unit tests
//! below and `tests/flat_trie_properties.rs` hold the builds and the joins
//! over them to that definition and to brute-force oracles across shard
//! counts and cache configurations.

use crate::trie::{
    build_shards_isolated, effective_shard_count, partition_rows_by_shard, TriePlan,
};
use crate::BoundAtom;
use ij_hypergraph::VarId;
use ij_relation::{faults, kernels, CancelTicker, CancellationToken, EvalError, ValueId};

/// One level of a [`FlatTrie`].
#[derive(Debug)]
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
    pub fn build(atom: &BoundAtom<'_>, global_order: &[VarId]) -> Self {
        let plan = TriePlan::new(atom, global_order);
        // ij-analysis: allow(panic) — infallible: no cancel token or deadline is supplied
        FlatTrie::from_plan(&plan, None, None).expect("tokenless builds cannot be cancelled")
    }

    /// Builds the flat trie of `atom` split into sub-tries by
    /// [`shard_of`](crate::shard_of) on the first level variable's value,
    /// each shard's CSR arrays built on its own scoped thread.  Every
    /// returned trie carries the same `level_vars`; their union over shards
    /// equals [`FlatTrie::build`].
    ///
    /// The shard count actually used is
    /// [`effective_shard_count`]`(rows, num_shards)`: relations too small to
    /// give every shard [`MIN_ROWS_PER_SHARD`](crate::MIN_ROWS_PER_SHARD)
    /// rows are built as a single unsharded trie instead of spawning
    /// near-empty shard threads.  The build also degenerates to one trie
    /// when `num_shards <= 1` or the atom has no levels (arity-zero guard
    /// relations).
    ///
    /// The CSR emission loop polls `token` (if any) every
    /// [`check_interval`](CancellationToken::check_interval) rows; shard
    /// workers run under `catch_unwind`, a panicking worker cancels its
    /// siblings (through a build-local child token, so the caller's token is
    /// never signalled), and the panic surfaces as
    /// [`EvalError::WorkerPanicked`] naming the relation.
    ///
    /// # Errors
    ///
    /// [`EvalError::Cancelled`] / [`EvalError::DeadlineExceeded`] when the
    /// token fires mid-build, [`EvalError::WorkerPanicked`] when a shard
    /// worker panics.
    ///
    /// # Panics
    ///
    /// Panics if the relation has more than `u32::MAX` rows (row indices and
    /// CSR offsets are `u32`).
    pub fn build_sharded(
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        num_shards: usize,
        token: Option<&CancellationToken>,
    ) -> Result<Vec<Self>, EvalError> {
        assert!(
            atom.relation.len() <= u32::MAX as usize,
            "flat trie build supports at most 2^32 rows per relation"
        );
        let num_shards = effective_shard_count(atom.relation.len(), num_shards);
        let plan = TriePlan::new(atom, global_order);
        if num_shards <= 1 || plan.level_columns.is_empty() {
            return Ok(vec![FlatTrie::from_plan(&plan, None, token)?]);
        }
        let shard_rows = partition_rows_by_shard(atom, &plan, num_shards);
        // Build-local child token: lets a panicking shard worker cancel its
        // siblings without the cancellation leaking into the caller's token.
        let local = token.map(|t| t.child());
        build_shards_isolated(atom.relation.name(), local.as_ref(), &shard_rows, {
            let plan = &plan;
            move |rows, tok| FlatTrie::from_plan(plan, Some(rows), tok)
        })
    }

    /// The column-wise CSR build: sort the surviving rows lexicographically
    /// by the level columns, then emit every level's value and offset arrays
    /// in one pass over the sorted permutation (a row extends the arrays from
    /// the first level where its path diverges from its predecessor's;
    /// fully-equal paths — duplicate tuples — are skipped).  The emission
    /// loop polls `token` every `check_interval` rows; the lexicographic sort
    /// itself runs to completion (it is a single `sort_unstable_by`, bounded
    /// and allocation-free).
    fn from_plan(
        plan: &TriePlan<'_>,
        rows: Option<&[u32]>,
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        faults::point("trie-build");
        let mut ticker = CancelTicker::new(token);
        let k = plan.level_columns.len();
        let num_rows = plan
            .level_columns
            .first()
            .map(|c| c.len())
            .unwrap_or_default();
        // Surviving row indices: the given shard partition (already
        // mask-filtered), or the mask's survivors, or everything.
        let mut perm: Vec<u32> = match rows {
            Some(rows) => rows.to_vec(),
            None => match &plan.pass {
                Some(mask) => {
                    let mut surviving = Vec::new();
                    kernels::select_indices(mask, 0, &mut surviving);
                    surviving
                }
                None => (0..num_rows as u32).collect(),
            },
        };
        let columns = &plan.level_columns;
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
            // First level where this row's path diverges from its
            // predecessor's; `k` means a duplicate path.
            let diverge = match prev {
                None => 0,
                Some(p) => columns
                    .iter()
                    .position(|col| col[row] != col[p])
                    .unwrap_or(k),
            };
            for level in diverge..k {
                if level + 1 < k {
                    // The new entry's children begin at the next level's
                    // current end (its own entries are pushed right after,
                    // while the prefix stays equal).
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
        Ok(FlatTrie {
            level_vars: plan.level_vars.clone(),
            levels: values
                .into_iter()
                .zip(child_start)
                .map(|(values, child_start)| FlatLevel {
                    values: values.into_boxed_slice(),
                    child_start: child_start.into_boxed_slice(),
                })
                .collect(),
        })
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

    /// True if a trie with at least one level holds no tuples (possible for
    /// individual shards, and for atoms whose repeated-variable filter
    /// rejects every row).  Zero-level tries (arity-zero guard atoms) carry
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
    /// boxed slices, so this is essentially the true allocation; the
    /// byte-budgeted [`TrieCache`](crate::TrieCache) sums it over a build's
    /// shards once per insert.
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

/// The tries built for one atom, one per shard.  This is the unit the
/// [`TrieCache`](crate::TrieCache) stores and the generic join's search
/// indexes.
#[derive(Debug)]
pub struct TrieBuild {
    shards: Vec<FlatTrie>,
}

impl TrieBuild {
    /// Builds `atom`'s tries under `global_order` into
    /// [`effective_shard_count`]`(rows, num_shards)` shards
    /// ([`FlatTrie::build_sharded`]).
    ///
    /// # Errors
    ///
    /// Propagates the build's [`EvalError`]: cancellation or deadline expiry
    /// of `token`, or a shard worker panic.
    pub fn build_sharded(
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        num_shards: usize,
        token: Option<&CancellationToken>,
    ) -> Result<TrieBuild, EvalError> {
        Ok(TrieBuild {
            shards: FlatTrie::build_sharded(atom, global_order, num_shards, token)?,
        })
    }

    /// Number of shards (1 = unsharded).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sub-trie for `shard`.
    pub(crate) fn shard(&self, shard: usize) -> &FlatTrie {
        &self.shards[shard]
    }

    /// The level variables (identical across shards).
    pub fn level_vars(&self) -> &[VarId] {
        &self.shards[0].level_vars
    }

    /// True if the sub-trie for `shard` holds no tuples.
    pub fn shard_is_empty(&self, shard: usize) -> bool {
        self.shards[shard].is_empty()
    }

    /// Estimated heap footprint of the build in bytes, summed over shards.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(FlatTrie::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::{shard_of, MIN_ROWS_PER_SHARD};
    use ij_relation::{Relation, Value};
    use std::collections::BTreeSet;

    fn rel(name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
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
        let r = rel("R", lcg_rows(11, 200, 3, 7));
        let one = rel("O", vec![vec![4.0, 5.0, 4.0]]);
        // Plain bindings, a permuted level order, and a repeated variable —
        // on 200 rows and on a single row.
        for relation in [&r, &one] {
            for vars in [vec![0, 1, 2], vec![2, 0, 1], vec![0, 1, 0]] {
                let atom = BoundAtom::new(relation, vars.clone());
                let order = [1, 2, 0];
                let (level_vars, expected) = definition(&atom, &order);
                let flat = FlatTrie::build(&atom, &order);
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
    fn sharded_flat_build_partitions_the_definition() {
        // Large enough that even 8 requested shards pass the
        // MIN_ROWS_PER_SHARD sizing and actually shard.
        let n = 8 * MIN_ROWS_PER_SHARD;
        let r = rel("R", lcg_rows(3, n, 2, 9));
        for vars in [vec![5, 2], vec![2, 5], vec![5, 5]] {
            let atom = BoundAtom::new(&r, vars);
            let order = [2, 5];
            let (level_vars, full) = definition(&atom, &order);
            for num_shards in [2usize, 3, 8] {
                let shards = FlatTrie::build_sharded(&atom, &order, num_shards, None).unwrap();
                assert_eq!(shards.len(), effective_shard_count(n, num_shards));
                assert_eq!(shards.len(), num_shards);
                for (index, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.level_vars, level_vars);
                    // Each shard holds exactly the paths whose first-level
                    // value hashes to it.
                    let expected = full
                        .iter()
                        .filter(|path| shard_of(path[0], num_shards) == index);
                    assert!(
                        flat_paths(shard).iter().eq(expected),
                        "shard {index} of {num_shards}"
                    );
                }
            }
        }
        // Small relations degrade to one unsharded trie holding every path.
        let small = rel("S", (0..40).map(|i| vec![i as f64, -(i as f64)]).collect());
        let atom = BoundAtom::new(&small, vec![0, 1]);
        let shards = FlatTrie::build_sharded(&atom, &[0, 1], 8, None).unwrap();
        assert_eq!(shards.len(), 1);
        assert!(flat_paths(&shards[0])
            .iter()
            .eq(definition(&atom, &[0, 1]).1.iter()));
    }

    #[test]
    fn duplicates_collapse_and_repeated_variables_filter() {
        let r = rel(
            "R",
            vec![
                vec![1.0, 1.0],
                vec![1.0, 1.0], // duplicate path
                vec![1.0, 2.0], // rejected by A == A filter
                vec![3.0, 3.0],
            ],
        );
        let atom = BoundAtom::new(&r, vec![0, 0]);
        let flat = FlatTrie::build(&atom, &[0]);
        assert_eq!(flat.depth(), 1);
        // The values {1.0, 3.0} survive, and resolve back from their ids.
        let values: Vec<Value> = flat
            .run(0, 0, flat.level_len(0))
            .iter()
            .map(|id| id.resolve())
            .collect();
        assert_eq!(values, vec![Value::point(1.0), Value::point(3.0)]);
        // A filter that rejects everything leaves an empty (non-zero-level)
        // trie.
        let none = rel("N", vec![vec![1.0, 2.0]]);
        let empty = FlatTrie::build(&BoundAtom::new(&none, vec![0, 0]), &[0]);
        assert!(empty.is_empty());
        // Zero-level guard atoms report non-empty, sharded or not.
        let mut guard = Relation::new("G", 0);
        guard.push(vec![]);
        let atom = BoundAtom::new(&guard, vec![]);
        let zero = FlatTrie::build(&atom, &[]);
        assert_eq!(zero.depth(), 0);
        assert!(!zero.is_empty());
        let shards = FlatTrie::build_sharded(&atom, &[], 4, None).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].depth(), 0);
        assert!(!shards[0].is_empty());
    }

    #[test]
    fn heap_bytes_track_flat_trie_size() {
        let small = rel("S", vec![vec![1.0]]);
        let small_trie = FlatTrie::build(&BoundAtom::new(&small, vec![0]), &[0]);
        assert!(small_trie.heap_bytes() > std::mem::size_of::<FlatTrie>());
        // 256 two-level paths dwarf a single one-level path.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64, -(i as f64)]).collect();
        let big = rel("B", rows);
        let atom = BoundAtom::new(&big, vec![0, 1]);
        let big_trie = FlatTrie::build(&atom, &[0, 1]);
        assert!(big_trie.heap_bytes() > 8 * small_trie.heap_bytes());
        // A build accounts the sum over its shards.
        let build = TrieBuild::build_sharded(&atom, &[0, 1], 1, None).unwrap();
        assert_eq!(build.shard_count(), 1);
        assert_eq!(build.level_vars(), &[0, 1]);
        assert!(!build.shard_is_empty(0));
        assert_eq!(build.heap_bytes(), big_trie.heap_bytes());
    }
}
