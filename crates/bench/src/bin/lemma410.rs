//! E8 — Lemma 4.10: the size of the transformed relations.
//!
//! The forward reduction maps a relation of size `N` to relations of size
//! `O(N · log^i |I|)` where `i` is the number of fresh variables the relation
//! receives for one interval variable.  This binary measures the transformed
//! relation sizes of the triangle reduction for growing `N` and compares them
//! against the bound `N · (2h+2) · (h+1)` per interval variable, where `h` is
//! the segment-tree height — and against the lemma's count taken exactly: a
//! transformed relation has one tuple per distinct *seed* (one tree node per
//! interval column of a source tuple) and per choice of a composition of each
//! node, `Σ_seeds ∏_columns C(|u| + i − 1, i − 1)`, recomputed here from the
//! source database and the public segment-tree API.
//!
//! ```text
//! cargo run --release -p ij-bench --bin lemma410
//! ```

use ij_bench::{dense_workload, render_table};
use ij_hypergraph::triangle_ij;
use ij_reduction::{forward_reduction, ForwardReduction};
use ij_relation::{Database, Query};
use ij_segtree::{BitString, SegmentTree};
use std::collections::{BTreeMap, BTreeSet};

/// `Σ_relations Σ_{distinct seeds} ∏_columns C(|u| + i − 1, i − 1)` over the
/// transformed relations of `reduction` (flat encoding, interval variables
/// only): Lemma 4.10's count of `D̃`, without looking at `D̃`.
fn exact_size(query: &Query, db: &Database, reduction: &ForwardReduction) -> u64 {
    // One tree per variable over every column bound to it, as the reduction
    // builds them; a variable's degree is the number of those columns.
    let mut columns: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for atom in query.atoms() {
        for (col, var) in atom.vars.iter().enumerate() {
            let of_var = columns.entry(var.as_str()).or_default();
            of_var.push((atom.relation.as_str(), col));
        }
    }
    let trees: BTreeMap<&str, SegmentTree> = (columns.iter())
        .map(|(&var, of_var)| (var, SegmentTree::build(&db.collect_intervals(of_var))))
        .collect();
    let (_, var_ids) = query.hypergraph();

    // A relation depends on its atom and the level of each of its variables.
    let mut relations: BTreeMap<&str, (usize, Vec<usize>)> = BTreeMap::new();
    for reduced in &reduction.queries {
        for (atom_idx, atom) in query.atoms().iter().enumerate() {
            let levels = &reduced.structure.edge_levels[atom_idx];
            let levels = atom.vars.iter().map(|var| levels[&var_ids[var]]).collect();
            relations.insert(&reduced.atoms[atom_idx].relation, (atom_idx, levels));
        }
    }
    let mut total = 0;
    for (atom_idx, levels) in relations.values() {
        let atom = &query.atoms()[*atom_idx];
        let source = db
            .relation(&atom.relation)
            .expect("the workload has every relation");
        let mut seeds: BTreeSet<Vec<BitString>> = BTreeSet::new();
        for tuple in source.tuples() {
            // The nodes a cell expands from: its leaf at the variable's top
            // level, its canonical partition below.
            let nodes = atom
                .vars
                .iter()
                .zip(&tuple)
                .zip(levels)
                .map(|((var, cell), &level)| {
                    let (tree, x) = (
                        &trees[var.as_str()],
                        cell.to_interval().expect("an interval"),
                    );
                    match level < columns[var.as_str()].len() {
                        true => tree.canonical_partition(x),
                        false => vec![tree.leaf_of_interval(x)],
                    }
                });
            let of_tuple = nodes.fold(vec![vec![]], |seeds, nodes| {
                let extended = |seed: &Vec<BitString>| {
                    let seed = seed.clone();
                    nodes
                        .clone()
                        .into_iter()
                        .map(move |node| [&seed[..], &[node]].concat())
                };
                seeds.iter().flat_map(extended).collect()
            });
            seeds.extend(of_tuple);
        }
        let tuples_of = |seed: &Vec<BitString>| -> u64 {
            let options = seed.iter().zip(levels);
            options
                .map(|(node, &level)| node.composition_count(level))
                .product()
        };
        total += seeds.iter().map(tuples_of).sum::<u64>();
    }
    total
}

fn main() {
    let query = Query::from_hypergraph(&triangle_ij());
    let mut rows = Vec::new();
    for n in [100usize, 200, 400, 800, 1600] {
        let db = dense_workload(&query, n, 0xBEEF);
        let reduction = forward_reduction(&query, &db).expect("reduction succeeds");
        let height = reduction
            .stats
            .variables
            .iter()
            .map(|(_, _, h)| *h as usize)
            .max()
            .unwrap_or(1);
        // Each triangle relation has two interval variables, each contributing
        // at most (2h+2)·(h+1) expansions per tuple (canonical partition ×
        // compositions into at most two parts).
        let per_var = (2 * height + 2) * (height + 1);
        let bound = n * per_var * per_var;
        let blowup = reduction.stats.max_relation_tuples as f64 / n as f64;
        rows.push(vec![
            n.to_string(),
            height.to_string(),
            reduction.stats.transformed_tuples.to_string(),
            exact_size(&query, &db, &reduction).to_string(),
            reduction.stats.max_relation_tuples.to_string(),
            format!("{:.1}", blowup),
            bound.to_string(),
            (reduction.stats.max_relation_tuples <= bound).to_string(),
        ]);
    }
    println!("Lemma 4.10: transformed relation sizes for the triangle reduction\n");
    println!(
        "{}",
        render_table(
            &[
                "N",
                "tree height h",
                "total transformed tuples",
                "exact Σ ∏ C(|u|+i−1, i−1)",
                "largest relation",
                "blow-up (×N)",
                "bound N·((2h+2)(h+1))²",
                "within bound",
            ],
            &rows
        )
    );
    println!("the blow-up column grows poly-logarithmically with N, as Lemma 4.10 predicts;");
    println!("the exact column is the lemma's count over the distinct seeds and equals the total.");
}
