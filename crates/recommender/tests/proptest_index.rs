//! Differential property tests for the I2I index: `I2iIndex::build` and
//! `I2iIndex::build_cleaned` must return exactly the lists of the original
//! per-anchor builder, kept here verbatim as the reference — the same items
//! in the same order with the same `f32` bits. The reference accumulates
//! each anchor's co-clicks in a fresh `HashMap`, binary-searches every
//! clicker in the sorted exclusion list and fully sorts before truncating,
//! which is slow but obviously follows Eq 1 as written.
//!
//! Inputs cover what the dense accumulator and the top-n selection must get
//! right: empty and singleton graphs, equal scores (including distinct
//! counts that round to one `f32`), `n_per_item` of 0, 1, small and larger
//! than any list, exclusions that are empty, cover every user, repeat or
//! name ids the graph does not have, and pools of 1, 2 and 4 workers.

use proptest::prelude::*;
use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};
use ricd_recommender::I2iIndex;
use std::collections::HashMap;

// ---------------------------------------------------------------- reference

/// The original builder, verbatim: one anchor's top-`n` list.
fn build_list(
    g: &BipartiteGraph,
    anchor: ItemId,
    n: usize,
    excluded_users: &[UserId],
) -> Vec<(ItemId, f32)> {
    // Wedge accumulation of co-click counts.
    let mut counts: std::collections::HashMap<ItemId, u64> = std::collections::HashMap::new();
    for (u, _) in g.item_neighbors(anchor) {
        if excluded_users.binary_search(&u).is_ok() {
            continue;
        }
        for (v, c) in g.user_neighbors(u) {
            if v != anchor {
                *counts.entry(v).or_default() += c as u64;
            }
        }
    }
    let total: u64 = counts.values().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut scored: Vec<(ItemId, f32)> = counts
        .into_iter()
        .map(|(v, c)| (v, (c as f64 / total as f64) as f32))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored
}

/// Every anchor's reference list, as `(item id, score bits)` so equality
/// is bit-exact.
fn reference(g: &BipartiteGraph, n: usize, excluded: &[UserId]) -> Vec<Vec<(u32, u32)>> {
    let mut sorted = excluded.to_vec();
    sorted.sort_unstable();
    (0..g.num_items() as u32)
        .map(|a| bits(&build_list(g, ItemId(a), n, &sorted)))
        .collect()
}

fn bits(list: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    list.iter().map(|&(v, s)| (v.0, s.to_bits())).collect()
}

fn lists(idx: &I2iIndex) -> Vec<Vec<(u32, u32)>> {
    (0..idx.num_items() as u32)
        .map(|a| bits(idx.related(ItemId(a))))
        .collect()
}

// ---------------------------------------------------------------- inputs

const USERS: u32 = 30;
const ITEMS: u32 = 20;
/// Click counts near 2²⁵: neighbouring counts differ by less than one `f32`
/// ulp of their score, so distinct counts round to one score.
const HUGE: u32 = 1 << 25;

/// A random click graph: empty, a single edge, or light edges plus a few
/// huge ones whose scores collide in `f32`.
fn graphs() -> impl Strategy<Value = BipartiteGraph> {
    (
        0usize..8,
        proptest::collection::vec((0..USERS, 0..ITEMS, 1u32..4), 0..160),
        proptest::collection::vec((0..USERS, 0..ITEMS, 0u32..4), 0..12),
    )
        .prop_map(|(shape, light, huge)| {
            let mut b = GraphBuilder::new();
            match shape {
                0 => {}
                1 => {
                    b.add_click(UserId(light.len() as u32 % USERS), ItemId(3), 2);
                }
                _ => {
                    for (u, v, c) in light {
                        b.add_click(UserId(u), ItemId(v), c);
                    }
                    for (u, v, d) in huge {
                        b.add_click(UserId(u), ItemId(v), HUGE + d);
                    }
                }
            }
            b.build()
        })
}

const PER_ITEM: [usize; 6] = [0, 1, 2, 3, 5, 1000];

/// An exclusion list, unsorted and possibly repeating: none, every user
/// (plus ids past the graph), or a random subset with out-of-range ids.
fn exclusions() -> impl Strategy<Value = Vec<UserId>> {
    (
        0usize..4,
        proptest::collection::vec(0..USERS + 8, 0..20),
        any::<bool>(),
    )
        .prop_map(|(kind, ids, far)| {
            let mut out: Vec<UserId> = match kind {
                0 => Vec::new(),
                1 => (0..USERS + 4).rev().map(UserId).collect(),
                _ => ids.into_iter().map(UserId).collect(),
            };
            if far && kind != 0 {
                out.push(UserId(u32::MAX));
            }
            out
        })
}

const POOLS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_matches_the_reference(
        g in graphs(),
        n_sel in 0usize..PER_ITEM.len(),
        excluded in exclusions(),
    ) {
        let n = PER_ITEM[n_sel];
        let plain = reference(&g, n, &[]);
        let cleaned = reference(&g, n, &excluded);
        for workers in POOLS {
            let pool = WorkerPool::new(workers);
            prop_assert_eq!(lists(&I2iIndex::build(&g, n, &pool)), plain.clone(), "build, {} workers", workers);
            prop_assert_eq!(
                lists(&I2iIndex::build_cleaned(&g, n, &pool, &excluded)),
                cleaned.clone(),
                "build_cleaned, {} workers", workers
            );
        }
    }
}

/// The drawn cases are not vacuous: across them some lists are truncated,
/// some exclusions remove wedges, and some anchors hold distinct counts
/// whose scores are the same `f32`.
#[test]
fn drawn_cases_exercise_truncation_exclusion_and_ties() {
    let cases = (graphs(), 0usize..PER_ITEM.len(), exclusions());
    let mut rng = proptest::rng_from_seed(0x1d_e000);
    let (mut truncated, mut excluded_wedges, mut f32_ties) = (0, 0, 0);
    for _ in 0..256 {
        let (g, n_sel, excluded) = cases.generate(&mut rng);
        let n = PER_ITEM[n_sel];
        let full = reference(&g, usize::MAX, &[]);
        let kept = reference(&g, n, &[]);
        truncated += full
            .iter()
            .zip(&kept)
            .filter(|(f, k)| f.len() > k.len())
            .count();
        if reference(&g, usize::MAX, &excluded) != full {
            excluded_wedges += 1;
        }
        for a in 0..g.num_items() as u32 {
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for (u, _) in g.item_neighbors(ItemId(a)) {
                for (v, c) in g.user_neighbors(u) {
                    if v.0 != a {
                        *counts.entry(v.0).or_default() += c as u64;
                    }
                }
            }
            let list = &full[a as usize];
            f32_ties += list
                .windows(2)
                .filter(|w| w[0].1 == w[1].1 && counts[&w[0].0] != counts[&w[1].0])
                .count();
        }
    }
    assert!(truncated > 0, "no list was ever truncated");
    assert!(excluded_wedges > 0, "no exclusion ever removed a wedge");
    assert!(f32_ties > 0, "no distinct counts ever shared an f32 score");
}
