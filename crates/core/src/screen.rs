//! The suspicious group screening module (Section V-B, module 2).
//!
//! Detection (Algorithm 2/3) is purely structural; screening applies the
//! *behavioral* characteristics from the Section IV analysis to each
//! candidate group, in two steps:
//!
//! **User behavior check** — an abnormal user (crowd worker): (1) clicks
//! some ordinary group item at least `T_click` times (the attack clicks);
//! (2) clicks hot items far less — an average of `< hot_avg_max` (paper:
//! "extremely small (< 4)"). Users failing either rule are normal shoppers
//! who wandered into the dense region (e.g. the `u₁` of Fig 5, whose clicks
//! on `i₂` stay below `T_click`) and are removed.
//!
//! **Item behavior verification** — among the group's items: globally hot
//! items are the *victims* being ridden, not abnormal outputs; they move to
//! the group's `ridden_hot_items`. An ordinary item survives as a target
//! only if at least `min_target_support` of the group's (surviving) users
//! clicked it `T_click`+ times — an item whose in-group clicks are all light
//! is camouflage (the `i₁` of Fig 6, linked only by disguise edges), and is
//! removed.
//!
//! After both steps, users left without any surviving target are dropped,
//! groups are re-split along heavy edges into per-seller tasks, and a group
//! must retain at least `min_group_users` workers and `min_group_targets`
//! targets to be reported (the paper's property 4b: "explicitly limit the
//! detected group's size to avoid the misjudgment of group-buying
//! phenomenon" — a couple of shoppers re-clicking the same promotion is
//! risk-control's job, not a crowdsourced campaign).
//!
//! **Cost.** Every check is one pass over each group user's adjacency,
//! tested against a dense item→slot array that marks the group's items, so
//! a group costs O(Σ deg(u) over its users + |group items|). Per-pair edge
//! lookups would cost |users| × |items|, and groups get large: hot items
//! glue every campaign into one detected component.

use crate::params::{RicdParams, ScreeningMode};
use crate::result::SuspiciousGroup;
use ricd_graph::{BipartiteGraph, ItemId, UserId};

/// Counters describing a screening pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScreeningStats {
    /// Users removed by the user behavior check.
    pub users_removed: usize,
    /// Items reclassified as ridden hot items.
    pub hot_items_reclassified: usize,
    /// Ordinary items removed as camouflage/disguise.
    pub items_removed: usize,
    /// Groups dropped entirely.
    pub groups_dropped: usize,
}

/// Screens every group in place according to `params.screening`.
pub fn screen_groups(
    g: &BipartiteGraph,
    groups: Vec<SuspiciousGroup>,
    params: &RicdParams,
) -> (Vec<SuspiciousGroup>, ScreeningStats) {
    let mut stats = ScreeningStats::default();
    if params.screening == ScreeningMode::None {
        return (groups, stats);
    }
    // Hot flags and the slot array once per call, so each group costs
    // O(Σ deg(u) over its users + |group items|).
    let hot: Vec<bool> = g
        .all_item_total_clicks()
        .into_iter()
        .map(|t| t >= params.t_hot)
        .collect();
    let mut slots = ItemSlots::new(g.num_items());
    let mut out = Vec::with_capacity(groups.len());
    for mut group in groups {
        user_behavior_check(g, &hot, &mut slots, &mut group, params, &mut stats);
        if params.screening == ScreeningMode::Full {
            item_behavior_verification(g, &hot, &mut slots, &mut group, params, &mut stats);
            slots.fill(&group.items);
            drop_disconnected_users(g, &slots, &mut group, params, &mut stats);
            // Distinct seller tasks often share ridden hot items, which glue
            // their structures into one connected component during
            // detection. Once hot items and camouflage are gone, the real
            // group boundary is connectivity through *heavy* edges —
            // re-split so each output group is one attack task (the
            // granularity of the paper's `g = {g₁…gₙ}` and case study).
            let mut splits = split_by_heavy_edges(g, &slots, &group, params);
            slots.clear(&group.items);
            attribute_ridden_hot_items(g, &mut slots, &group.ridden_hot_items, &mut splits);
            if splits.is_empty() {
                stats.groups_dropped += 1;
            }
            for split in splits {
                // Property 4b: a reportable group needs real group scale.
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

/// Dense item → local-index map over the whole item space.
///
/// Every entry is `NONE` between uses: [`ItemSlots::fill`] marks a list and
/// [`ItemSlots::clear`] unmarks the same list, so a reset costs the list's
/// length, not the item count. A duplicated item maps to its *last* index.
struct ItemSlots(Vec<u32>);

impl ItemSlots {
    const NONE: u32 = u32::MAX;

    fn new(num_items: usize) -> Self {
        Self(vec![Self::NONE; num_items])
    }

    fn fill(&mut self, items: &[ItemId]) {
        for (i, &v) in items.iter().enumerate() {
            self.0[v.index()] = i as u32;
        }
    }

    fn clear(&mut self, items: &[ItemId]) {
        for &v in items {
            self.0[v.index()] = Self::NONE;
        }
    }

    fn get(&self, v: ItemId) -> Option<usize> {
        let s = self.0[v.index()];
        (s != Self::NONE).then_some(s as usize)
    }
}

/// Splits a screened group into connected components over its heavy
/// (`clicks ≥ T_click`) user–item edges. `slots` holds `group.items`.
fn split_by_heavy_edges(
    g: &BipartiteGraph,
    slots: &ItemSlots,
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
    for (ui, &u) in group.users.iter().enumerate() {
        for (v, c) in g.user_neighbors(u) {
            if c >= params.t_click {
                if let Some(vi) = slots.get(v) {
                    let (a, b) = (find(&mut parent, ui), find(&mut parent, nu + vi));
                    parent[a] = b;
                }
            }
        }
    }
    let mut split_of = vec![usize::MAX; n];
    let mut out: Vec<SuspiciousGroup> = Vec::new();
    for x in 0..n {
        let root = find(&mut parent, x);
        if split_of[root] == usize::MAX {
            split_of[root] = out.len();
            out.push(SuspiciousGroup::default());
        }
        let split = &mut out[split_of[root]];
        if x < nu {
            split.users.push(group.users[x]);
        } else {
            split.items.push(group.items[x - nu]);
        }
    }
    // Deterministic order: by first user id.
    out.sort_by_key(|s| (s.users.first().copied(), s.items.first().copied()));
    out
}

/// Attributes each ridden hot item to the splits whose users clicked it.
/// `ridden` is sorted and deduplicated, so sorting each split's list puts
/// it in `ridden` order.
fn attribute_ridden_hot_items(
    g: &BipartiteGraph,
    slots: &mut ItemSlots,
    ridden: &[ItemId],
    splits: &mut [SuspiciousGroup],
) {
    slots.fill(ridden);
    for split in splits.iter_mut() {
        split.ridden_hot_items = split
            .users
            .iter()
            .flat_map(|&u| g.user_adjacency(u))
            .copied()
            .filter(|&v| slots.get(v).is_some())
            .collect();
        split.ridden_hot_items.sort_unstable();
        split.ridden_hot_items.dedup();
    }
    slots.clear(ridden);
}

/// True if `u` exhibits the crowd-worker click signature; `slots` holds the
/// group's items.
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
    slots: &ItemSlots,
    u: UserId,
    params: &RicdParams,
) -> bool {
    let mut has_heavy_ordinary = false;
    let mut hot_clicks = 0u64;
    let mut hot_count = 0u64;
    for (v, c) in g.user_neighbors(u) {
        if hot[v.index()] {
            hot_clicks += c as u64;
            hot_count += 1;
        } else if c >= params.t_click && slots.get(v).is_some() {
            has_heavy_ordinary = true;
        }
    }
    // Characteristic (2): hot items, if clicked at all, are clicked lightly.
    has_heavy_ordinary
        && (hot_count == 0 || (hot_clicks as f64 / hot_count as f64) < params.hot_avg_max)
}

fn user_behavior_check(
    g: &BipartiteGraph,
    hot: &[bool],
    slots: &mut ItemSlots,
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    let before = group.users.len();
    slots.fill(&group.items);
    group
        .users
        .retain(|&u| user_is_suspicious(g, hot, slots, u, params));
    slots.clear(&group.items);
    stats.users_removed += before - group.users.len();
}

fn item_behavior_verification(
    g: &BipartiteGraph,
    hot: &[bool],
    slots: &mut ItemSlots,
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    // Coincidence of heavy clickers: how many of the group's surviving
    // (abnormal) users hammer each item?
    slots.fill(&group.items);
    let mut support = vec![0usize; group.items.len()];
    for &u in &group.users {
        for (v, c) in g.user_neighbors(u) {
            if c >= params.t_click {
                if let Some(s) = slots.get(v) {
                    support[s] += 1;
                }
            }
        }
    }
    let mut kept = Vec::with_capacity(group.items.len());
    for &v in &group.items {
        if hot[v.index()] {
            group.ridden_hot_items.push(v);
            stats.hot_items_reclassified += 1;
        } else if slots
            .get(v)
            .is_some_and(|s| support[s] >= params.min_target_support)
        {
            kept.push(v);
        } else {
            stats.items_removed += 1;
        }
    }
    slots.clear(&group.items);
    group.items = kept;
    group.ridden_hot_items.sort_unstable();
    group.ridden_hot_items.dedup();
}

/// A user whose heavy edges all pointed at removed items no longer belongs.
/// `slots` holds the group's surviving items.
fn drop_disconnected_users(
    g: &BipartiteGraph,
    slots: &ItemSlots,
    group: &mut SuspiciousGroup,
    params: &RicdParams,
    stats: &mut ScreeningStats,
) {
    let before = group.users.len();
    group.users.retain(|&u| {
        g.user_neighbors(u)
            .any(|(v, c)| c >= params.t_click && slots.get(v).is_some())
    });
    stats.users_removed += before - group.users.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricd_graph::GraphBuilder;

    /// Builds the Fig 5 / Fig 6 situation:
    /// * i0 — globally hot item ridden by the group;
    /// * i1, i2 — target items hammered by workers u0, u1, u2;
    /// * u3 — a normal shopper who clicked i0 a lot and i1 once;
    /// * i3 — a camouflage item clicked once by a single worker.
    fn scenario() -> BipartiteGraph {
        let mut b = GraphBuilder::new();
        // Make i0 hot: 1000+ background clicks.
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // Workers: light on hot, heavy on targets, one camouflage click.
        for u in 0..3u32 {
            b.add_click(UserId(u), ItemId(0), 1);
            b.add_click(UserId(u), ItemId(1), 14);
            b.add_click(UserId(u), ItemId(2), 13);
        }
        b.add_click(UserId(0), ItemId(3), 1); // camouflage
                                              // Normal shopper: heavy on hot, light on the target.
        b.add_click(UserId(3), ItemId(0), 19);
        b.add_click(UserId(3), ItemId(1), 1);
        b.build()
    }

    fn group() -> SuspiciousGroup {
        SuspiciousGroup {
            users: vec![UserId(0), UserId(1), UserId(2), UserId(3)],
            items: vec![ItemId(0), ItemId(1), ItemId(2), ItemId(3)],
            ridden_hot_items: vec![],
        }
    }

    fn params() -> RicdParams {
        RicdParams {
            t_hot: 1_000,
            t_click: 12,
            ..RicdParams::default()
        }
    }

    #[test]
    fn full_screening_keeps_workers_and_targets() {
        let g = scenario();
        let (out, stats) = screen_groups(&g, vec![group()], &params());
        assert_eq!(out.len(), 1);
        let grp = &out[0];
        assert_eq!(
            grp.users,
            vec![UserId(0), UserId(1), UserId(2)],
            "normal shopper removed"
        );
        assert_eq!(
            grp.items,
            vec![ItemId(1), ItemId(2)],
            "hot + camouflage removed"
        );
        assert_eq!(grp.ridden_hot_items, vec![ItemId(0)]);
        assert_eq!(stats.users_removed, 1);
        assert_eq!(stats.hot_items_reclassified, 1);
        assert_eq!(stats.items_removed, 1);
    }

    #[test]
    fn mode_none_passes_through() {
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::None,
            ..params()
        };
        let (out, stats) = screen_groups(&g, vec![group()], &p);
        assert_eq!(out[0], group());
        assert_eq!(stats, ScreeningStats::default());
    }

    #[test]
    fn mode_user_only_skips_item_verification() {
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::UserCheckOnly,
            ..params()
        };
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert_eq!(out[0].users, vec![UserId(0), UserId(1), UserId(2)]);
        // Items untouched, including the hot one — that's why RICD-I's
        // precision trails full RICD (Table VI).
        assert_eq!(out[0].items, group().items);
        assert!(out[0].ridden_hot_items.is_empty());
    }

    #[test]
    fn heavy_hot_clicker_fails_user_check() {
        // A user whose only heavy clicks are on the hot item is a fan, not a
        // worker.
        let g = scenario();
        let p = RicdParams {
            screening: ScreeningMode::UserCheckOnly,
            min_group_users: 1,
            ..params()
        };
        let passes_user_check = |u: UserId| {
            let grp = SuspiciousGroup {
                users: vec![u],
                items: vec![ItemId(0), ItemId(1)],
                ridden_hot_items: vec![],
            };
            let (out, _) = screen_groups(&g, vec![grp], &p);
            out.iter().any(|s| s.users.contains(&u))
        };
        assert!(!passes_user_check(UserId(3)));
        assert!(passes_user_check(UserId(0)));
    }

    #[test]
    fn group_needs_two_workers() {
        // Only one worker → not a group attack → dropped.
        let mut b = GraphBuilder::new();
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        b.add_click(UserId(0), ItemId(0), 1);
        b.add_click(UserId(0), ItemId(1), 20);
        let g = b.build();
        let grp = SuspiciousGroup {
            users: vec![UserId(0)],
            items: vec![ItemId(0), ItemId(1)],
            ridden_hot_items: vec![],
        };
        let (out, stats) = screen_groups(&g, vec![grp], &params());
        assert!(out.is_empty());
        assert_eq!(stats.groups_dropped, 1);
    }

    #[test]
    fn camouflage_item_needs_support() {
        // Items need min_target_support heavy clickers to survive.
        let g = scenario();
        let mut p = params();
        p.min_target_support = 4;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        // Both targets only have 3 heavy clickers → everything pruned → the
        // group dies.
        assert!(out.is_empty());
    }

    #[test]
    fn property_4b_group_size_floor() {
        // The same valid group dies when the analyst raises the group-size
        // floor above its scale (property 4b).
        let g = scenario();
        let mut p = params();
        p.min_group_users = 4;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert!(out.is_empty());
        let mut p = params();
        p.min_group_targets = 3;
        let (out, _) = screen_groups(&g, vec![group()], &p);
        assert!(out.is_empty());
    }

    #[test]
    fn users_without_surviving_targets_dropped() {
        let mut b = GraphBuilder::new();
        for u in 100..1100u32 {
            b.add_click(UserId(u), ItemId(0), 1);
        }
        // u0, u1, u2 hammer targets i1 and i4; u3 hammers only i2, which
        // will be removed (support 1).
        for u in 0..3u32 {
            b.add_click(UserId(u), ItemId(1), 14);
            b.add_click(UserId(u), ItemId(4), 14);
        }
        b.add_click(UserId(3), ItemId(2), 14);
        let g = b.build();
        let grp = SuspiciousGroup {
            users: vec![UserId(0), UserId(1), UserId(2), UserId(3)],
            items: vec![ItemId(1), ItemId(2), ItemId(4)],
            ridden_hot_items: vec![],
        };
        let (out, _) = screen_groups(&g, vec![grp], &params());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].users, vec![UserId(0), UserId(1), UserId(2)]);
        assert_eq!(out[0].items, vec![ItemId(1), ItemId(4)]);
    }
}
