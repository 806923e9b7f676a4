//! Differential property tests for group screening (Module 2): the
//! linear-time `screen_groups` must return exactly the groups and
//! `ScreeningStats` of the original per-pair implementation, kept here
//! verbatim as the reference. Its checks binary-search `g.clicks(u, v)` for
//! every group user × group item pair, which is slow but obviously follows
//! the rules as written.
//!
//! Inputs cover what the fast path's slot array must get right: group
//! users and items in arbitrary order and with repeats, pre-filled
//! `ridden_hot_items`, every `ScreeningMode`, and the thresholds that
//! decide each rule (`t_click`, `t_hot`, `hot_avg_max`,
//! `min_target_support`, `min_group_users`, `min_group_targets`).

use proptest::prelude::*;
use ricd_core::detect::{detect_groups, Seeds};
use ricd_core::extract::SquareStrategy;
use ricd_core::params::{RicdParams, ScreeningMode};
use ricd_core::result::SuspiciousGroup;
use ricd_core::screen::{screen_groups, ScreeningStats};
use ricd_datagen::{generate, AttackConfig, DatasetConfig};
use ricd_engine::WorkerPool;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId, UserId};

// ---------------------------------------------------------------- reference

/// The original driver: the same phase order and group-size gates as
/// `screen_groups`, over the reference checks below.
fn reference_screen_groups(
    g: &BipartiteGraph,
    groups: Vec<SuspiciousGroup>,
    params: &RicdParams,
) -> (Vec<SuspiciousGroup>, ScreeningStats) {
    let mut stats = ScreeningStats::default();
    if params.screening == ScreeningMode::None {
        return (groups, stats);
    }
    let hot: Vec<bool> = g
        .all_item_total_clicks()
        .into_iter()
        .map(|t| t >= params.t_hot)
        .collect();
    let mut out = Vec::with_capacity(groups.len());
    for mut group in groups {
        user_behavior_check(g, &hot, &mut group, params, &mut stats);
        if params.screening == ScreeningMode::Full {
            item_behavior_verification(g, &hot, &mut group, params, &mut stats);
            drop_disconnected_users(g, &mut group, params, &mut stats);
            let splits = split_by_heavy_edges(g, &group, params);
            if splits.is_empty() {
                stats.groups_dropped += 1;
            }
            for split in splits {
                if split.users.len() >= params.min_group_users
                    && split.items.len() >= params.min_group_targets
                {
                    out.push(split);
                } else {
                    stats.groups_dropped += 1;
                }
            }
            continue;
        }
        if group.users.len() >= params.min_group_users && !group.items.is_empty() {
            out.push(group);
        } else {
            stats.groups_dropped += 1;
        }
    }
    (out, stats)
}

/// Splits a screened group into connected components over its heavy
/// (`clicks ≥ T_click`) user–item edges. Ridden hot items are attributed to
/// every split whose users clicked them.
fn split_by_heavy_edges(
    g: &BipartiteGraph,
    group: &SuspiciousGroup,
    params: &RicdParams,
) -> Vec<SuspiciousGroup> {
    // Union-find over local indices: users then items.
    let nu = group.users.len();
    let n = nu + group.items.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let item_local: std::collections::HashMap<ItemId, usize> = group
        .items
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, nu + i))
        .collect();
    for (ui, &u) in group.users.iter().enumerate() {
        for (v, c) in g.user_neighbors(u) {
            if c >= params.t_click {
                if let Some(&vi) = item_local.get(&v) {
                    let (a, b) = (find(&mut parent, ui), find(&mut parent, vi));
                    parent[a] = b;
                }
            }
        }
    }
    let mut splits: std::collections::HashMap<usize, SuspiciousGroup> =
        std::collections::HashMap::new();
    for (ui, &u) in group.users.iter().enumerate() {
        splits
            .entry(find(&mut parent, ui))
            .or_default()
            .users
            .push(u);
    }
    for (ii, &v) in group.items.iter().enumerate() {
        splits
            .entry(find(&mut parent, nu + ii))
            .or_default()
            .items
            .push(v);
    }
    let mut out: Vec<SuspiciousGroup> = splits.into_values().collect();
    // Deterministic order: by first user id.
    out.sort_by_key(|s| (s.users.first().copied(), s.items.first().copied()));
    for s in &mut out {
        // Attribute each ridden hot item to the splits whose users touch it.
        s.ridden_hot_items = group
            .ridden_hot_items
            .iter()
            .copied()
            .filter(|&h| s.users.iter().any(|&u| g.clicks(u, h).is_some()))
            .collect();
    }
    out
}

/// True if `u` exhibits the crowd-worker click signature.
///
/// Characteristic (1) is checked *within the group* — some ordinary group
/// item carries ≥ `T_click` of `u`'s clicks. Characteristic (2) — "the
/// average number of clicks of hot items is extremely small (< 4)" — is
/// checked over `u`'s **whole click record**, exactly like the Section IV
/// Table III/IV analysis: an experienced worker's organic history keeps the
/// global hot average low, while a genuine hot-item fan (Table IV's user:
/// 19, 4, … clicks on hot items) exceeds it.
fn user_is_suspicious(
    g: &BipartiteGraph,
    hot: &[bool],
    u: UserId,
    group_items: &[ItemId],
    params: &RicdParams,
) -> bool {
    let has_heavy_ordinary = group_items
        .iter()
        .any(|&v| !hot[v.index()] && g.clicks(u, v).is_some_and(|c| c >= params.t_click));
    if !has_heavy_ordinary {
        return false;
    }
    let mut hot_clicks = 0u64;
    let mut hot_count = 0u64;
    for (v, c) in g.user_neighbors(u) {
        if hot[v.index()] {
            hot_clicks += c as u64;
            hot_count += 1;
        }
    }
    // Characteristic (2): hot items, if clicked at all, are clicked lightly.
    hot_count == 0 || (hot_clicks as f64 / hot_count as f64) < params.hot_avg_max
}

fn user_behavior_check(
    g: &BipartiteGraph,
    hot: &[bool],
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    let items = group.items.clone();
    let before = group.users.len();
    group
        .users
        .retain(|&u| user_is_suspicious(g, hot, u, &items, params));
    stats.users_removed += before - group.users.len();
}

fn item_behavior_verification(
    g: &BipartiteGraph,
    hot: &[bool],
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    let users = group.users.clone();
    let mut kept = Vec::with_capacity(group.items.len());
    for &v in &group.items {
        if hot[v.index()] {
            group.ridden_hot_items.push(v);
            stats.hot_items_reclassified += 1;
            continue;
        }
        // Coincidence of heavy clickers: how many of the group's surviving
        // (abnormal) users hammer this item?
        let support = users
            .iter()
            .filter(|&&u| g.clicks(u, v).is_some_and(|c| c >= params.t_click))
            .count();
        if support >= params.min_target_support {
            kept.push(v);
        } else {
            stats.items_removed += 1;
        }
    }
    group.items = kept;
    group.ridden_hot_items.sort_unstable();
    group.ridden_hot_items.dedup();
}

/// A user whose heavy edges all pointed at removed items no longer belongs.
fn drop_disconnected_users(
    g: &BipartiteGraph,
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    let items = group.items.clone();
    let before = group.users.len();
    group.users.retain(|&u| {
        items
            .iter()
            .any(|&v| g.clicks(u, v).is_some_and(|c| c >= params.t_click))
    });
    stats.users_removed += before - group.users.len();
}

// ---------------------------------------------------------------- inputs

const USERS: u32 = 40;
const ITEMS: u32 = 24;

/// A random click graph over `USERS` × `ITEMS`: light and heavy edges
/// (heavy counts reach past every drawn `t_click`), plus a background crowd
/// on a few items so some item totals clear every drawn `t_hot`.
fn graphs() -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec((0..USERS, 0..ITEMS, 1u32..5), 0..200),
        proptest::collection::vec((0..USERS, 0..ITEMS, 8u32..30), 0..120),
        proptest::collection::vec((0..ITEMS, 20u32..200), 0..4),
    )
        .prop_map(|(light, heavy, crowds)| {
            let mut b = GraphBuilder::new();
            for (u, v, c) in light.into_iter().chain(heavy) {
                b.add_click(UserId(u), ItemId(v), c);
            }
            // Crowd users sit above the group-user id range.
            for (v, n) in crowds {
                for k in 0..n {
                    b.add_click(UserId(USERS + k), ItemId(v), 1 + k % 3);
                }
            }
            // Pin the id space so every drawn group member is in range.
            b.add_click(UserId(USERS - 1), ItemId(ITEMS - 1), 1);
            b.build()
        })
}

/// Groups whose users and items come in arbitrary order and may repeat,
/// some with ridden hot items already attached.
fn groups() -> impl Strategy<Value = Vec<SuspiciousGroup>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0..USERS, 0..30),
            proptest::collection::vec(0..ITEMS, 0..20),
            proptest::collection::vec(0..ITEMS, 0..3),
        )
            .prop_map(|(users, items, ridden)| SuspiciousGroup {
                users: users.into_iter().map(UserId).collect(),
                items: items.into_iter().map(ItemId).collect(),
                ridden_hot_items: ridden.into_iter().map(ItemId).collect(),
            }),
        0..4,
    )
}

const MODES: [ScreeningMode; 3] = [
    ScreeningMode::None,
    ScreeningMode::UserCheckOnly,
    ScreeningMode::Full,
];

fn param_sets() -> impl Strategy<Value = RicdParams> {
    (
        (0usize..3, 3u32..16, 20u64..250, 1.0f64..8.0),
        (0usize..4, 0usize..4, 0usize..3),
    )
        .prop_map(
            |((mode, t_click, t_hot, hot_avg_max), (support, users, targets))| RicdParams {
                screening: MODES[mode],
                t_click,
                t_hot,
                hot_avg_max,
                min_target_support: support,
                min_group_users: users,
                min_group_targets: targets,
                ..RicdParams::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn screening_matches_the_reference(
        g in graphs(),
        groups in groups(),
        params in param_sets(),
    ) {
        let fast = screen_groups(&g, groups.clone(), &params);
        let reference = reference_screen_groups(&g, groups, &params);
        prop_assert_eq!(fast, reference);
    }
}

/// The drawn cases are not vacuous: across them, full screening fires every
/// rule, re-splits a group into several and attributes ridden hot items.
#[test]
fn drawn_cases_exercise_every_rule() {
    let cases = (graphs(), groups(), param_sets());
    let mut rng = proptest::rng_from_seed(0x5c4e_e000);
    let mut fired = ScreeningStats::default();
    let (mut resplit, mut ridden) = (false, false);
    for _ in 0..512 {
        let (g, groups, mut params) = cases.generate(&mut rng);
        params.screening = ScreeningMode::Full;
        for group in groups {
            let (out, stats) = screen_groups(&g, vec![group], &params);
            fired.users_removed += stats.users_removed;
            fired.hot_items_reclassified += stats.hot_items_reclassified;
            fired.items_removed += stats.items_removed;
            fired.groups_dropped += stats.groups_dropped;
            resplit |= out.len() > 1;
            ridden |= out.iter().any(|s| !s.ridden_hot_items.is_empty());
        }
    }
    assert!(fired.users_removed > 0, "{fired:?}");
    assert!(fired.hot_items_reclassified > 0, "{fired:?}");
    assert!(fired.items_removed > 0, "{fired:?}");
    assert!(fired.groups_dropped > 0, "{fired:?}");
    assert!(resplit, "no group was re-split");
    assert!(ridden, "no split kept a ridden hot item");
}

/// The groups detection actually produces on the small synthetic world,
/// screened in every mode.
#[test]
fn detected_small_world_groups_match_the_reference() {
    let ds = generate(&DatasetConfig::small(), &AttackConfig::evaluation()).expect("generate");
    let params = RicdParams::default();
    let detected = detect_groups(
        &ds.graph,
        &Seeds::default(),
        &params,
        &WorkerPool::new(2),
        SquareStrategy::default(),
    );
    assert!(!detected.groups.is_empty(), "detection found no groups");
    for mode in MODES {
        let p = RicdParams {
            screening: mode,
            ..params
        };
        let fast = screen_groups(&ds.graph, detected.groups.clone(), &p);
        let reference = reference_screen_groups(&ds.graph, detected.groups.clone(), &p);
        assert_eq!(fast, reference, "{mode:?}");
        if mode == ScreeningMode::Full {
            assert!(!fast.0.is_empty(), "full screening kept no group");
            assert!(fast.1.users_removed + fast.1.items_removed > 0);
        }
    }
}
