//! The batch job every workload shares: click table → graph → RICD
//! pipeline → cleaned I2I index, as `ricd detect` runs it and as the serve
//! tier rebuilds its index.
//!
//! Untraced, the pipeline runs through `RicdPipeline::run`. Traced, the
//! benchmark composes the same modules itself (detect → screen → identify)
//! so each public layer call gets its own span; the output checks compare
//! the composed result with `RicdPipeline::run`'s.

use crate::trace::Tracer;
use ricd_core::detect::{detect_groups_with, Seeds};
use ricd_core::extract::{ExtractionStats, FixpointMode, SquareStrategy};
use ricd_core::identify::rank_output;
use ricd_core::screen::{screen_groups, ScreeningStats};
use ricd_core::{DetectionResult, RicdParams, RicdPipeline, RunStatus};
use ricd_engine::WorkerPool;
use ricd_graph::io as graph_io;
use ricd_graph::{BipartiteGraph, GraphBuilder, ItemId};
use ricd_recommender::I2iIndex;
use std::io::BufRead;

/// Width of each anchor's cleaned I2I list, the serve tier's default
/// (`ServeConfig::recommend_per_anchor`).
pub const PER_ANCHOR: usize = 50;

/// The detector every workload runs: default parameters, the host-sized
/// worker pool, and a registry the pool reports into.
pub fn pipeline() -> RicdPipeline {
    RicdPipeline::new(RicdParams::default())
}

/// The pipeline's pool reporting into the pipeline's registry, as
/// `RicdPipeline::run` attaches it.
pub fn pool(p: &RicdPipeline) -> WorkerPool {
    p.pool.clone().with_metrics(&p.metrics)
}

/// Counters the traced composition collects from the layer calls' return
/// values and the pool's `pool.*` metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub extract: ExtractionStats,
    pub detect_groups: usize,
    pub screen: ScreeningStats,
    pub groups_out: usize,
    pub anchors: usize,
    pub edges: usize,
}

impl LayerCounts {
    /// The counts as per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = |n: usize| n as f64;
        vec![
            ("graph.builder.edges", c(self.edges)),
            ("core.extract.rounds", c(self.extract.rounds)),
            ("core.extract.dirty_users", c(self.extract.dirty_users)),
            ("core.extract.dirty_items", c(self.extract.dirty_items)),
            (
                "core.extract.kernel_wedge",
                self.extract.kernel_wedge as f64,
            ),
            (
                "core.extract.kernel_blocked",
                self.extract.kernel_blocked as f64,
            ),
            ("core.detect.groups", c(self.detect_groups)),
            ("core.screen.groups_out", c(self.groups_out)),
            ("core.screen.users_removed", c(self.screen.users_removed)),
            (
                "core.screen.hot_items_reclassified",
                c(self.screen.hot_items_reclassified),
            ),
            ("core.screen.items_removed", c(self.screen.items_removed)),
            ("core.screen.groups_dropped", c(self.screen.groups_dropped)),
            ("recommender.index.anchors", c(self.anchors)),
        ]
    }
}

/// Reads a TSV click table the way `ricd detect` does. Traced, a second
/// span times `GraphBuilder::build` over the same records in file order
/// (`read_tsv` builds internally, so `graph.io.read` includes one build);
/// the rebuilt graph must equal the read one.
pub fn load(t: &Tracer, src: impl BufRead) -> Result<(BipartiteGraph, bool), String> {
    let g = t
        .span("graph.io.read", || graph_io::read_tsv(src))
        .map_err(|e| format!("reading the click table: {e}"))?;
    if !t.on() {
        return Ok((g, true));
    }
    let records: Vec<_> = g.edges().collect();
    let rebuilt = t.span("graph.builder.build", || {
        let mut b = GraphBuilder::with_capacity(records.len());
        b.extend(records.iter().copied());
        b.build()
    });
    let same = graphs_equal(&g, &rebuilt);
    Ok((g, same))
}

/// Runs detection on `g`: `RicdPipeline::run` untraced, the composed
/// module calls traced.
pub fn detect(
    t: &Tracer,
    p: &RicdPipeline,
    g: &BipartiteGraph,
    counts: &mut LayerCounts,
) -> DetectionResult {
    if !t.on() {
        return p.run(g);
    }
    let params = &p.params;
    let pool = pool(p);
    let detected = t.span("core.detect", || {
        detect_groups_with(
            g,
            &Seeds::none(),
            params,
            &pool,
            SquareStrategy::Parallel,
            FixpointMode::default(),
            Some(&p.metrics),
        )
    });
    counts.extract = detected.stats;
    counts.detect_groups = detected.groups.len();
    let (groups, stats) = t.span("core.screen", || screen_groups(g, detected.groups, params));
    counts.screen = stats;
    counts.groups_out = groups.len();
    let (ranked_users, ranked_items) = t.span("core.identify", || rank_output(g, &groups));
    let mut result = DetectionResult {
        groups,
        ranked_users,
        ranked_items,
        timings: Default::default(),
        status: RunStatus::Complete,
    };
    result.prune_empty();
    result
}

/// Builds the cleaned I2I index with the result's flagged users removed.
pub fn index(
    t: &Tracer,
    pool: &WorkerPool,
    g: &BipartiteGraph,
    result: &DetectionResult,
    counts: &mut LayerCounts,
) -> I2iIndex {
    let flagged = result.suspicious_users();
    let idx = t.span("recommender.index.build", || {
        I2iIndex::build_cleaned(g, PER_ANCHOR, pool, &flagged)
    });
    counts.anchors = (0..idx.num_items())
        .filter(|&v| !idx.related(ItemId(v as u32)).is_empty())
        .count();
    idx
}

/// Same groups, same rankings (scores compared bit for bit).
pub fn results_equal(a: &DetectionResult, b: &DetectionResult) -> bool {
    let bits = |v: &[(ricd_graph::UserId, f64)]| -> Vec<(u32, u64)> {
        v.iter().map(|(u, s)| (u.0, s.to_bits())).collect()
    };
    let ibits = |v: &[(ItemId, f64)]| -> Vec<(u32, u64)> {
        v.iter().map(|(i, s)| (i.0, s.to_bits())).collect()
    };
    a.groups == b.groups
        && bits(&a.ranked_users) == bits(&b.ranked_users)
        && ibits(&a.ranked_items) == ibits(&b.ranked_items)
        && a.status == b.status
}

pub fn graphs_equal(a: &BipartiteGraph, b: &BipartiteGraph) -> bool {
    a.num_users() == b.num_users()
        && a.num_items() == b.num_items()
        && a.num_edges() == b.num_edges()
        && a.edges().eq(b.edges())
}

pub fn indexes_equal(a: &I2iIndex, b: &I2iIndex) -> bool {
    a.num_items() == b.num_items()
        && (0..a.num_items() as u32).all(|v| {
            let (x, y) = (a.related(ItemId(v)), b.related(ItemId(v)));
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

/// The graph as an in-memory TSV click table.
pub fn to_tsv(g: &BipartiteGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    graph_io::write_tsv(g, &mut buf).expect("writing to memory cannot fail");
    buf
}
