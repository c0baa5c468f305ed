//! The trie build plan shared by every [`FlatTrie`](crate::FlatTrie) build:
//! level order, repeated-variable filtering, and sharding.
//!
//! The generic worst-case-optimal join processes one variable at a time; each
//! atom is indexed as a trie whose levels are the atom's variables sorted by
//! the global variable order ([`trie_level_vars`]).  Repeated variables
//! within an atom are checked before the build (tuples whose repeated columns
//! disagree are filtered out) so the trie has one level per *distinct*
//! variable.
//!
//! The build works entirely on the dense `u32` [`ValueId`]s read straight out
//! of the columnar relation storage — the join never hashes or compares a
//! full `Value`.
//!
//! # Sharded builds
//!
//! [`FlatTrie::build_sharded`](crate::FlatTrie::build_sharded) splits the
//! build across threads: rows are partitioned by a deterministic hash of the
//! value bound to the trie's *first* level variable ([`shard_of`]), and one
//! sub-trie is built per shard on a scoped worker thread.  Because a given
//! first-level value lands in exactly one shard, the union of the shard tries
//! equals the unsharded trie, and a join search can be fanned out shard by
//! shard (see `generic.rs`): any full assignment binds the first join
//! variable to one value, hence lives entirely inside one shard.  The row
//! partition itself is computed over
//! [`ColumnsView`](ij_relation::ColumnsView) row-range chunks, so both phases
//! of the build parallelise.  Sharding is sized per atom: relations too small
//! to give every shard [`MIN_ROWS_PER_SHARD`] rows are built unsharded
//! ([`effective_shard_count`]) instead of paying thread-spawn overhead for
//! near-empty shards.
//!
//! The linear passes of the build — the repeated-variable equal-pair filter
//! and the surviving-row selection — run on the chunked scan kernels of
//! [`ij_relation::kernels`].

use crate::BoundAtom;
use ij_hypergraph::VarId;
use ij_relation::{faults, kernels, panic_payload_string, CancellationToken, EvalError, ValueId};

/// The shard a first-level value id belongs to, out of `num_shards`.
///
/// The mapping is a fixed multiply-mix of the raw id — deterministic across
/// threads, runs and machines, which keeps sharded evaluation bit-identical
/// to the unsharded one.
pub fn shard_of(id: ValueId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0);
    let mixed = (id.raw() as u64 ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    ((mixed >> 32) % num_shards as u64) as usize
}

/// Minimum number of rows each shard must receive (on average) for a sharded
/// build to be worth its thread-spawn and partition overhead.  Relations
/// smaller than `shards × MIN_ROWS_PER_SHARD` are built unsharded.
pub const MIN_ROWS_PER_SHARD: usize = 1024;

/// Per-atom shard sizing: the shard count a relation of `rows` rows is
/// actually built with when `requested` shards are asked for.
///
/// The decision is all-or-nothing — either the full `requested` count (every
/// shard averages at least [`MIN_ROWS_PER_SHARD`] rows) or `1` (the relation
/// is too small to be worth near-empty shard threads).  All-or-nothing keeps
/// every sharded atom of one join partitioned by the *same* `shard_of`
/// mapping, which is what lets the search index all of them with one shard
/// number; too-small atoms degrade to a single trie shared by every shard of
/// the search.  The function is pure, so cache keys derived from it are
/// stable.
pub fn effective_shard_count(rows: usize, requested: usize) -> usize {
    if requested >= 2 && rows >= requested.saturating_mul(MIN_ROWS_PER_SHARD) {
        requested
    } else {
        1
    }
}

/// The distinct variables of `atom` sorted by their position in
/// `global_order` — the trie levels.  Shared by the build plan below and the
/// trie cache's key computation, so a key always describes the level order
/// the build actually uses.
///
/// # Panics
///
/// Panics if one of the atom's variables is missing from `global_order`.
pub(crate) fn trie_level_vars(atom: &BoundAtom<'_>, global_order: &[VarId]) -> Vec<VarId> {
    let position = |v: VarId| {
        global_order
            .iter()
            .position(|&u| u == v)
            .expect("variable missing from global order")
    };
    let mut level_vars: Vec<VarId> = atom.var_set().into_iter().collect();
    level_vars.sort_by_key(|&v| position(v));
    level_vars
}

/// The phase-1 row partition of a sharded trie build: hash the first-level
/// column chunk by chunk
/// ([`ColumnsView`](ij_relation::ColumnsView) row-range views on scoped
/// threads), then concatenate the per-chunk shard lists in chunk order.  The
/// partition is a pure function of the ids, so the chunking never affects the
/// result.  Rows rejected by the plan's repeated-variable mask are dropped
/// here, so the per-shard builds only see surviving rows.
pub(crate) fn partition_rows_by_shard(
    atom: &BoundAtom<'_>,
    plan: &TriePlan<'_>,
    num_shards: usize,
) -> Vec<Vec<u32>> {
    let chunks = atom.relation.columns().chunks(num_shards);
    let first_col_index = plan.first_level_column;
    let pass = plan.pass.as_deref();
    let chunk_parts: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|view| {
                scope.spawn(move || {
                    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
                    let base = view.start() as u32;
                    for (i, &id) in view.column(first_col_index).iter().enumerate() {
                        if pass.is_some_and(|m| m[base as usize + i] == 0) {
                            continue;
                        }
                        parts[shard_of(id, num_shards)].push(base + i as u32);
                    }
                    parts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut shard_rows: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    for parts in chunk_parts {
        for (shard, mut rows) in parts.into_iter().enumerate() {
            shard_rows[shard].append(&mut rows);
        }
    }
    shard_rows
}

/// The per-atom build recipe shared by the unsharded and sharded builds in
/// `flat.rs`: the level variables in global order, the id column backing each
/// level, and the pre-computed repeated-variable filter mask.
pub(crate) struct TriePlan<'a> {
    pub(crate) level_vars: Vec<VarId>,
    /// Relation column index backing the first level (the shard key column).
    pub(crate) first_level_column: usize,
    pub(crate) level_columns: Vec<&'a [ValueId]>,
    /// Per-row pass mask of the repeated-variable filters
    /// ([`repeated_variable_mask`]), accumulated over every repeated column
    /// pair with the chunked [`kernels::and_equal_mask`] scan instead of
    /// per-row branches inside the insert loop.  `None` when the atom has no
    /// repeated variables (every row passes).
    pub(crate) pass: Option<Vec<u8>>,
}

impl<'a> TriePlan<'a> {
    pub(crate) fn new(atom: &BoundAtom<'a>, global_order: &[VarId]) -> Self {
        let level_vars = trie_level_vars(atom, global_order);
        let column_of = |v: VarId| {
            atom.vars
                .iter()
                .position(|&u| u == v)
                .expect("column exists")
        };
        let level_columns: Vec<&[ValueId]> = level_vars
            .iter()
            .map(|&v| atom.relation.column_ids(column_of(v)))
            .collect();
        let first_level_column = level_vars.first().map(|&v| column_of(v)).unwrap_or(0);
        TriePlan {
            level_vars,
            first_level_column,
            level_columns,
            pass: repeated_variable_mask(atom),
        }
    }
}

/// Per-row pass mask of `atom`'s repeated-variable filters: `1` where every
/// column bound to a repeated variable agrees with the variable's first
/// column (id equality coincides with value equality).  `None` when no
/// variable repeats, i.e. every row passes.  Every evaluator that keeps one
/// column per variable — a trie level, a semijoin key — applies it first.
pub(crate) fn repeated_variable_mask(atom: &BoundAtom<'_>) -> Option<Vec<u8>> {
    let mut pass: Option<Vec<u8>> = None;
    for (i, &v) in atom.vars.iter().enumerate() {
        let first = atom.vars.iter().position(|&u| u == v).unwrap();
        if first != i {
            let mask = pass.get_or_insert_with(|| vec![1u8; atom.relation.len()]);
            kernels::and_equal_mask(
                atom.relation.column_ids(first),
                atom.relation.column_ids(i),
                mask,
            );
        }
    }
    pass
}

/// Runs one `build` closure per shard on scoped threads, each isolated by
/// `catch_unwind` — phase 2 of a sharded trie build.  The
/// `shard-worker` failpoint fires inside the isolation boundary; a panicking
/// worker cancels its siblings through `token` (the caller passes a
/// build-local child token, so the evaluation's own token is never
/// signalled) and is reported as [`EvalError::WorkerPanicked`] naming
/// `atom_name` — preferred over the `Cancelled` it induced in the siblings.
pub(crate) fn build_shards_isolated<T, F>(
    atom_name: &str,
    token: Option<&CancellationToken>,
    shard_rows: &[Vec<u32>],
    build: F,
) -> Result<Vec<T>, EvalError>
where
    T: Send,
    F: Fn(&[u32], Option<&CancellationToken>) -> Result<T, EvalError> + Sync,
{
    let results: Vec<Result<T, EvalError>> = std::thread::scope(|scope| {
        let build = &build;
        let handles: Vec<_> = shard_rows
            .iter()
            .map(|rows| {
                scope.spawn(move || {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        faults::point("shard-worker");
                        build(rows, token)
                    }));
                    match caught {
                        Ok(result) => result,
                        Err(payload) => {
                            // Stop sibling shard builders promptly.
                            if let Some(t) = token {
                                t.cancel();
                            }
                            Err(EvalError::WorkerPanicked {
                                atom: atom_name.to_string(),
                                payload: panic_payload_string(payload.as_ref()),
                            })
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panics are caught"))
            .collect()
    });
    let mut first_err: Option<EvalError> = None;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(t) => out.push(t),
            Err(e) => {
                let prefer = matches!(
                    (&first_err, &e),
                    (None, _) | (Some(EvalError::Cancelled), EvalError::WorkerPanicked { .. })
                );
                if prefer {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_shard_count_is_all_or_nothing() {
        assert_eq!(effective_shard_count(0, 4), 1);
        assert_eq!(effective_shard_count(MIN_ROWS_PER_SHARD, 1), 1);
        assert_eq!(
            effective_shard_count(4 * MIN_ROWS_PER_SHARD - 1, 4),
            1,
            "one row short of the budget must not shard"
        );
        assert_eq!(effective_shard_count(4 * MIN_ROWS_PER_SHARD, 4), 4);
        assert_eq!(effective_shard_count(1000, usize::MAX), 1);
    }
}
