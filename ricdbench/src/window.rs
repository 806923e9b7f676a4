//! `window-1x`: the serve scenario's shape cut into several hundred ticks
//! and replayed through `WindowedDetector` with a sliding window of half
//! the horizon and `detect_every = 1`. The first half is a checkpoint; each
//! pass restores it and replays the second half open-loop at a fixed tick
//! rate. After every tick the latest result is published as a `RiskView`
//! and answers risk queries.

use crate::job::{self, LayerCounts};
use crate::report::{int, median, obj, secs, Dist, Json, Ledger};
use crate::trace::Tracer;
use crate::{derive_seed, scenario, Args, Out};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ricd_core::riskview::RiskView;
use ricd_core::temporal::{TimedClick, WindowCheckpoint, WindowConfig, WindowedDetector};
use ricd_core::DetectionResult;
use ricd_graph::UserId;
use std::time::{Duration, Instant};

/// Ticks the scenario is cut into; the first half is the checkpoint.
const TICKS: u64 = 400;
/// Seconds between scheduled ticks, about four times a tick's cost on the
/// seed code, so a host slowed twofold still keeps up.
const TICK_GAP_S: f64 = 0.06;
/// Risk queries answered after each tick, and users per query.
const QUERIES_PER_TICK: usize = 1;
const QUERY_USERS: usize = 16384;
/// A run makes at least this many passes, and as many more as fit in
/// `--seconds`.
const MIN_PASSES: usize = 2;
/// Reference batch jobs over the final window graph, after each pass.
const REFERENCE_JOBS: usize = 10;
/// Checkpoint restores timed per pass; the last one replays.
const RESTORES: usize = 10;

fn window_config(horizon: u64, detect_every: u64) -> WindowConfig {
    WindowConfig {
        window: Some(horizon / 2),
        half_life: None,
        detect_every,
    }
}

/// `detect_every = u64::MAX` switches detection off, so `ingest_batch` only
/// ingests and evicts: for filling the checkpoint, and for the traced pass,
/// which runs the pipeline itself.
const MAINTAIN_ONLY: u64 = u64::MAX;

struct Workload {
    ckpt: WindowCheckpoint,
    live: Vec<Vec<TimedClick>>,
    first_live_seq: u64,
    horizon: u64,
    users: u32,
}

fn build(args: &Args) -> Result<Workload, String> {
    let horizon = scenario::horizon(args.scale);
    let tl = scenario::timeline(args.seed, args.scale, horizon / TICKS)?;
    let batches: Vec<Vec<TimedClick>> = tl.batches.iter().map(|b| b.wire()).collect();
    let half = batches.len() / 2;
    let users = batches
        .iter()
        .flatten()
        .map(|r| r.0 .0 + 1)
        .max()
        .unwrap_or(1);
    // The first half only has to fill the window; no detection needed.
    let mut wd = WindowedDetector::new(job::pipeline(), window_config(horizon, MAINTAIN_ONLY))?;
    for (seq, b) in batches[..half].iter().enumerate() {
        wd.ingest_batch(seq as u64, b);
    }
    Ok(Workload {
        ckpt: wd.checkpoint(),
        live: batches[half..].to_vec(),
        first_live_seq: half as u64,
        horizon,
        users,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    tick_s: Vec<f64>,
    fresh_s: Vec<f64>,
    query_s: Vec<f64>,
    final_result: DetectionResult,
    final_graph: Option<ricd_graph::BipartiteGraph>,
    /// The per-tick results, kept by the traced pass's untraced twin.
    results: Vec<DetectionResult>,
    window_records_max: usize,
    evicted: usize,
}

/// One untraced pass: restore, then the live ticks open-loop.
fn pass(
    w: &Workload,
    rng: &mut StdRng,
    keep_results: bool,
    ledger: &mut Ledger,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut restored = None;
    for _ in 0..RESTORES {
        let ckpt = w.ckpt.clone();
        let t0 = Instant::now();
        let mut wd = WindowedDetector::restore(job::pipeline(), window_config(w.horizon, 1), ckpt)?;
        std::hint::black_box(wd.result());
        p.setup_s.push(secs(t0));
        restored = Some(wd);
    }
    let mut wd = restored.expect("at least one restore");

    let gap = Duration::from_secs_f64(TICK_GAP_S);
    let start = Instant::now();
    for (i, b) in w.live.iter().enumerate() {
        let due = start + gap * i as u32;
        sleep_until(due);
        let seq = w.first_live_seq + i as u64;
        let t1 = Instant::now();
        let stats = wd.ingest_batch(seq, b);
        let done = Instant::now();
        p.tick_s.push((done - t1).as_secs_f64());
        p.fresh_s.push((done - due).as_secs_f64());
        p.window_records_max = p.window_records_max.max(stats.window_records);
        p.evicted += stats.evicted;
        if stats.detected && !stats.replayed && !wd.last_result().status.is_degraded() {
            ledger.ok();
        } else {
            ledger.fail(format!("tick {seq}: no complete detection"));
        }
        let view = RiskView::from_result(i as u64 + 1, wd.last_result());
        if keep_results {
            p.results.push(wd.last_result().clone());
        }
        for _ in 0..QUERIES_PER_TICK {
            let users: Vec<UserId> = (0..QUERY_USERS)
                .map(|_| UserId(rng.gen_range(0..w.users)))
                .collect();
            let q0 = Instant::now();
            let flagged = users.iter().filter(|&&u| view.user(u).flagged).count();
            p.query_s.push(secs(q0));
            std::hint::black_box(flagged);
            ledger.ok();
        }
    }
    p.final_result = wd.result().clone();
    p.final_graph = Some(wd.window_graph());
    Ok(p)
}

/// The traced pass: the detector only ingests and evicts, and the
/// benchmark composes the window graph and the pipeline itself, so each
/// layer gets a span. Every tick's result must equal the untraced one.
fn traced_pass(
    t: &Tracer,
    pipeline: &ricd_core::RicdPipeline,
    w: &Workload,
    untraced: &[DetectionResult],
    counts: &mut LayerCounts,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let mut wd = WindowedDetector::restore(
        job::pipeline(),
        window_config(w.horizon, MAINTAIN_ONLY),
        w.ckpt.clone(),
    )?;
    let mut same = true;
    let mut total = 0.0;
    for (i, b) in w.live.iter().enumerate() {
        let seq = w.first_live_seq + i as u64;
        let t0 = Instant::now();
        let result = t.span("window.tick", || {
            t.span("core.temporal.maintain", || wd.ingest_batch(seq, b));
            let g = t.span("core.temporal.window_graph", || wd.window_graph());
            counts.edges = g.num_edges();
            job::detect(t, pipeline, &g, counts)
        });
        total += secs(t0);
        same &= untraced
            .get(i)
            .is_some_and(|r| job::results_equal(r, &result));
    }
    ledger.check(
        "composed window ticks equal WindowedDetector::ingest_batch",
        same,
    );
    Ok(total)
}

pub fn run(args: &Args, t: &Tracer, ledger: &mut Ledger) -> Result<Out, String> {
    let w = build(args)?;
    let mut rng = StdRng::seed_from_u64(derive_seed(args.seed, 31));
    let ref_p = job::pipeline();
    // Layer counts describe the ticks; the reference jobs' go unreported.
    let mut ref_counts = LayerCounts::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut batch = Vec::new();
    let pass_s = TICK_GAP_S * w.live.len() as f64;
    let planned = MIN_PASSES.max((args.seconds / pass_s) as usize);
    while passes.len() < planned {
        let keep = t.on() && passes.is_empty();
        let p = pass(&w, &mut rng, keep, ledger)?;
        if let Some(first) = passes.first() {
            ledger.check(
                "every pass ends in the same result",
                job::results_equal(&first.final_result, &p.final_result),
            );
        }
        // Output check: the final flagged set equals one-shot detection on
        // the final window graph, which the reference batch job computes.
        let tsv = job::to_tsv(p.final_graph.as_ref().expect("a pass keeps its graph"));
        for _ in 0..REFERENCE_JOBS {
            let t0 = Instant::now();
            let r = t.span(
                "window.reference_job",
                || -> Result<DetectionResult, String> {
                    let (g, same) = job::load(t, &tsv[..])?;
                    if t.on() {
                        ledger.check("graph.builder rebuild equals read_tsv graph", same);
                    }
                    let r = job::detect(t, &ref_p, &g, &mut ref_counts);
                    job::index(t, &job::pool(&ref_p), &g, &r, &mut ref_counts);
                    Ok(r)
                },
            )?;
            batch.push(secs(t0));
            ledger.check(
                "final window result equals one-shot detection on window_graph()",
                r.suspicious_users() == p.final_result.suspicious_users()
                    && r.suspicious_items() == p.final_result.suspicious_items()
                    && r.groups == p.final_result.groups,
            );
        }
        passes.push(p);
    }
    let last = passes.last().expect("at least one pass");

    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| f(p).iter().map(|s| s * 1e3))
            .collect()
    };
    let setup: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let (fresh_d, query_d, tick_d) = (
        Dist::of(&all(|p| &p.fresh_s)),
        Dist::of(&all(|p| &p.query_s)),
        Dist::of(&all(|p| &p.tick_s)),
    );
    let mut out = Out::default();
    out.e2e(median(&setup), median(&batch), &fresh_d, &query_d, &tick_d);
    out.samples = vec![
        ("setup_s", Dist::of(&setup)),
        ("batch_s", Dist::of(&batch)),
        ("fresh_ms", fresh_d),
        ("query_ms", query_d),
        ("tick_ms", tick_d),
    ];
    out.details = Some(obj([
        ("passes", int(passes.len())),
        ("live_ticks", int(w.live.len())),
        ("checkpoint_records", int(w.ckpt.log.len())),
        ("window_ticks", int(w.horizon / 2)),
        ("tick_gap_s", Json::F64(TICK_GAP_S)),
        (
            "flagged_users",
            int(last.final_result.suspicious_users().len()),
        ),
    ]));

    if t.on() {
        let untraced_total: f64 = passes[0].tick_s.iter().sum();
        let tick_p = job::pipeline();
        let mut counts = LayerCounts {
            anchors: ref_counts.anchors,
            ..LayerCounts::default()
        };
        let traced_total = traced_pass(t, &tick_p, &w, &passes[0].results, &mut counts, ledger)?;
        out.overhead_s = traced_total - untraced_total;
        out.layer_ms(
            "core.temporal.maintain_p50_ms",
            "core.temporal.maintain_tail_ms",
            &t.durations("core.temporal.maintain"),
        );
        out.layer_ms(
            "core.temporal.window_graph_p50_ms",
            "core.temporal.window_graph_tail_ms",
            &t.durations("core.temporal.window_graph"),
        );
        out.layer(
            "core.temporal.window_records_max",
            passes[0].window_records_max as f64,
        );
        out.layer("core.temporal.evicted_records", passes[0].evicted as f64);
        out.job_layers(t, &counts);
        out.pool(&tick_p.metrics, w.live.len());
    }
    Ok(out)
}
