//! `batch-100x`: `ricd detect`'s path on the 100× world. Each repeat is one
//! daily batch job: read the TSV click table, build the graph, run the
//! pipeline, build the cleaned I2I index, then answer recommendation
//! queries from the result.

use crate::job::{self, LayerCounts};
use crate::report::{int, median, obj, secs, Dist, Json, Ledger};
use crate::trace::Tracer;
use crate::{derive_seed, Args, Out, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ricd_datagen::prelude::*;
use ricd_graph::{ItemId, UserId};
use ricd_recommender::recommend_with;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Recommendation queries answered from each job's index, and the users
/// each query asks for: one page of a batch recommendation call, holding
/// one user from each sixteenth of the users ranked by clicks, so every
/// page carries the same mix of light and heavy users.
const QUERIES_PER_JOB: usize = 100;
const QUERY_USERS: usize = 16;
/// A run makes at least this many untraced jobs, however short `--seconds`.
const MIN_JOBS: usize = 2;
/// Timed set-ups per job besides the job's own.
const EXTRA_SETUPS: usize = 3;

/// The preset's organic world, with the planted groups drawn from the
/// workload seed.
fn world(args: &Args) -> (DatasetConfig, AttackConfig) {
    let (d, a) = match args.scale {
        Scale::Full => (DatasetConfig::scale100(), AttackConfig::scale100()),
        Scale::Toy => (DatasetConfig::small(), AttackConfig::small()),
    };
    (
        d,
        AttackConfig {
            seed: derive_seed(args.seed, 2),
            ..a
        },
    )
}

/// Writes the workload's inputs: the click table and the planted truth.
pub fn prepare(args: &Args, dir: &Path) -> Result<(), String> {
    let (d, a) = world(args);
    let ds = generate(&d, &a)?;
    let io_err = |e: std::io::Error| e.to_string();
    let mut w = BufWriter::new(File::create(dir.join("clicks.tsv")).map_err(io_err)?);
    ricd_graph::io::write_tsv(&ds.graph, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(io_err)?;
    let mut t = BufWriter::new(File::create(dir.join("truth.tsv")).map_err(io_err)?);
    for u in ds.truth.abnormal_users() {
        writeln!(t, "u\t{}", u.0).map_err(io_err)?;
    }
    for v in ds.truth.abnormal_items() {
        writeln!(t, "i\t{}", v.0).map_err(io_err)?;
    }
    t.flush().map_err(io_err)?;
    eprintln!(
        "prepared {}: {} users, {} items, {} records, {} planted groups",
        dir.display(),
        ds.graph.num_users(),
        ds.graph.num_items(),
        ds.graph.num_edges(),
        ds.truth.groups.len()
    );
    Ok(())
}

fn read_truth(path: &Path) -> Result<(BTreeSet<u32>, BTreeSet<u32>), String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut users, mut items) = (BTreeSet::new(), BTreeSet::new());
    for line in BufReader::new(f).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (kind, id) = line.split_once('\t').ok_or("bad truth line")?;
        let id: u32 = id.parse().map_err(|_| "bad truth id")?;
        match kind {
            "u" => users.insert(id),
            "i" => items.insert(id),
            _ => return Err("bad truth kind".into()),
        };
    }
    Ok((users, items))
}

struct Job {
    setup_s: f64,
    tick_s: f64,
    batch_s: f64,
    fresh_s: f64,
    result: ricd_core::DetectionResult,
    graph: ricd_graph::BipartiteGraph,
    index: ricd_recommender::I2iIndex,
}

/// One job. Traced, the whole job is one operation whose children are the
/// layer calls.
fn run_job(
    t: &Tracer,
    p: &ricd_core::RicdPipeline,
    clicks: &Path,
    counts: &mut LayerCounts,
    ledger: &mut Ledger,
) -> Result<Job, String> {
    t.span("batch.job", || {
        let t0 = Instant::now();
        let f = File::open(clicks).map_err(|e| format!("{}: {e}", clicks.display()))?;
        let (graph, rebuilt_same) = job::load(t, BufReader::new(f))?;
        let setup_s = secs(t0);
        if t.on() {
            ledger.check("graph.builder rebuild equals read_tsv graph", rebuilt_same);
        }
        counts.edges = graph.num_edges();
        let t1 = Instant::now();
        let result = job::detect(t, p, &graph, counts);
        let tick_s = secs(t1);
        let index = job::index(t, &job::pool(p), &graph, &result, counts);
        let batch_s = secs(t1);
        Ok(Job {
            setup_s,
            tick_s,
            batch_s,
            fresh_s: secs(t0),
            result,
            graph,
            index,
        })
    })
}

/// Users with at least one click, fewest clicks first (ties by id).
fn users_by_degree(g: &ricd_graph::BipartiteGraph) -> Vec<UserId> {
    let mut users: Vec<UserId> = (0..g.num_users() as u32)
        .map(UserId)
        .filter(|&u| !g.user_adjacency(u).is_empty())
        .collect();
    users.sort_by_key(|&u| (g.user_adjacency(u).len(), u));
    users
}

pub fn run(args: &Args, t: &Tracer, ledger: &mut Ledger) -> Result<Out, String> {
    let dir = args.data_dir()?;
    let clicks = dir.join("clicks.tsv");
    let (truth_u, truth_i) = read_truth(&dir.join("truth.tsv"))?;
    let bare = Tracer::new(false);
    let (plain, traced_p) = (job::pipeline(), job::pipeline());
    let mut counts = LayerCounts::default();
    let mut rng = StdRng::seed_from_u64(derive_seed(args.seed, 3));

    let (mut setup, mut tick, mut batch, mut fresh, mut query) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut overhead = Vec::new();
    let mut reference: Option<ricd_core::DetectionResult> = None;
    let mut by_degree: Option<Vec<UserId>> = None;
    let start = Instant::now();
    let mut jobs = 0;
    while jobs < MIN_JOBS || secs(start) < args.seconds {
        jobs += 1;
        let j = run_job(&bare, &plain, &clicks, &mut counts, ledger)?;
        ledger.check(
            "batch job completed undegraded",
            !j.result.status.is_degraded(),
        );
        match &reference {
            None => reference = Some(j.result.clone()),
            Some(r) => ledger.check(
                "repeated job gives identical groups and rankings",
                job::results_equal(r, &j.result),
            ),
        }
        setup.push(j.setup_s);
        tick.push(j.tick_s);
        batch.push(j.batch_s);
        fresh.push(j.fresh_s);

        // Recommendation queries from the job's product: uniform over
        // users with at least one click.
        let strata = by_degree.get_or_insert_with(|| users_by_degree(&j.graph));
        let width = strata.len() / QUERY_USERS;
        for _ in 0..QUERIES_PER_JOB {
            let page: Vec<UserId> = (0..QUERY_USERS)
                .map(|k| strata[k * width + rng.gen_range(0..width)])
                .collect();
            let q0 = Instant::now();
            let recs: Vec<_> = page
                .iter()
                .map(|&u| recommend_with(&j.graph, &j.index, u, 10))
                .collect();
            query.push(secs(q0));
            let repeats_click = page
                .iter()
                .zip(&recs)
                .any(|(&u, r)| r.iter().any(|(v, _)| j.graph.user_adjacency(u).contains(v)));
            if repeats_click {
                ledger.fail("recommendation repeats a clicked item");
            } else {
                ledger.ok();
            }
        }

        if t.on() {
            let traced = run_job(t, &traced_p, &clicks, &mut counts, ledger)?;
            ledger.check(
                "composed layer calls equal RicdPipeline::run",
                job::results_equal(&j.result, &traced.result),
            );
            ledger.check(
                "traced index equals untraced index",
                job::indexes_equal(&j.index, &traced.index),
            );
            // The traced job also times a separate graph rebuild; leave it
            // out of the overhead.
            let rebuild = t
                .durations("graph.builder.build")
                .last()
                .copied()
                .unwrap_or(0.0);
            overhead.push(traced.fresh_s - rebuild - j.fresh_s);
        }
        drop(j);
        // One read's time swings by half from one read to the next, so each
        // job times set-up a few more times, with its graph already freed.
        for _ in 0..EXTRA_SETUPS {
            let t0 = Instant::now();
            let f = File::open(&clicks).map_err(|e| format!("{}: {e}", clicks.display()))?;
            std::hint::black_box(job::load(&bare, BufReader::new(f))?);
            setup.push(secs(t0));
        }
    }

    let result = reference.ok_or("no job ran")?;
    let found_u: BTreeSet<u32> = result.suspicious_users().iter().map(|u| u.0).collect();
    let found_i: BTreeSet<u32> = result
        .suspicious_items()
        .iter()
        .map(|v: &ItemId| v.0)
        .collect();
    let hit = found_u.intersection(&truth_u).count() + found_i.intersection(&truth_i).count();
    let found = found_u.len() + found_i.len();
    let truth = truth_u.len() + truth_i.len();
    let recall = hit as f64 / truth.max(1) as f64;
    let precision = hit as f64 / found.max(1) as f64;
    ledger.check("detection flags planted nodes", hit > 0);

    let ms = |v: &[f64]| v.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let (fresh_d, tick_d, query_d) = (
        Dist::of(&ms(&fresh)),
        Dist::of(&ms(&tick)),
        Dist::of(&ms(&query)),
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
        ("jobs", int(jobs)),
        ("queries_per_job", int(QUERIES_PER_JOB)),
        ("users_per_query", int(QUERY_USERS)),
        ("recall", Json::F64(recall)),
        ("precision", Json::F64(precision)),
        ("groups", int(result.groups.len())),
        ("flagged_users", int(found_u.len())),
        ("flagged_items", int(found_i.len())),
    ]));
    if t.on() {
        out.job_layers(t, &counts);
        out.pool(&traced_p.metrics, t.durations("batch.job").len());
        out.overhead_s = median(&overhead);
    }
    Ok(out)
}
