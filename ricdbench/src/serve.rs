//! `serve-1x`: the monolith daemon (`ricd_serve::server::start`,
//! `ServeConfig::default()`) on loopback, restored from a checkpoint file of
//! the scenario's first half the way `ricd serve --resume` is. The daemon
//! is a child process of its own (`ricdbench daemon`), so its peak resident
//! set is its own. The second half arrives open-loop at a fixed batch rate
//! on one connection while risk and recommend queries arrive open-loop at a
//! fixed rate on a second.
//!
//! Every live batch carries one probe record: a fresh user clicking the
//! first half's most-clicked item. The probe's `recommend` answer turns
//! non-empty once a published view contains the batch, which is how
//! freshness is read through the public query API.

use crate::job::{self, LayerCounts};
use crate::report::{encode, int, median, obj, peak_rss_mb, secs, text, Dist, Json, Ledger};
use crate::trace::{median_s, Tracer};
use crate::{derive_seed, scenario, Args, Out, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ricd_core::incremental::{Checkpoint, StreamingDetector};
use ricd_graph::{ItemId, UserId};
use ricd_serve::{Client, IngestOutcome, ServeConfig, ServeSnapshot, ServeState};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches the scenario is cut into; the first half is the checkpoint.
const BATCHES: u64 = 100;
/// Queries per second on the query connection.
const QUERY_RATE: f64 = 10.0;
/// Interval between freshness probes of a sent, not yet visible batch.
const PROBE_POLL: Duration = Duration::from_millis(2);
/// Users per risk query: enough server work (about 4 ms) that the wire's
/// fixed cost, which shifts by about 0.15 ms between runs on a shared
/// guest, is a small part of it.
const RISK_USERS: usize = 2048;
/// Rounds of in-process measurements (see `in_process_round`) before the
/// load and after it, so their samples span the run. The daemon is down
/// during both.
const ROUNDS_BEFORE: usize = 3;
const ROUNDS_AFTER: usize = 3;
const RESTORES: usize = 2;
const REFERENCE_JOBS: usize = 2;
/// How long the last probe may take to appear before it counts as lost.
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// The checkpoint file the daemon resumes from, in the data directory.
const CHECKPOINT_FILE: &str = "serve-checkpoint.json";

/// Interval between live batch sends, fixed whatever the run length: at
/// full scale the 50 live batches take 30 s (1.67 batches/s, below the
/// seed daemon's saturation rate).
fn batch_gap(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_millis(600),
        Scale::Toy => Duration::from_millis(40),
    }
}

type Batch = Vec<(UserId, ItemId, u32)>;

struct Workload {
    ckpt: Checkpoint,
    live: Vec<Batch>,
    first_live_seq: u64,
    probe_base: u32,
    probe_item: ItemId,
    real_users: u32,
}

fn build(args: &Args) -> Result<Workload, String> {
    let h = scenario::horizon(args.scale);
    let tl = scenario::timeline(args.seed, args.scale, h / BATCHES)?;
    let batches: Vec<Batch> = tl.batches.iter().map(|b| b.untimed()).collect();
    let half = batches.len() / 2;
    let real_users = batches
        .iter()
        .flatten()
        .map(|r| r.0 .0 + 1)
        .max()
        .unwrap_or(1);
    let mut clicks = std::collections::HashMap::<ItemId, u64>::new();
    for &(_, v, c) in batches[..half].iter().flatten() {
        *clicks.entry(v).or_default() += c as u64;
    }
    let probe_item = clicks
        .into_iter()
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
        .ok_or("the first half has no clicks")?;
    let mut sd = StreamingDetector::new(job::pipeline());
    for (seq, b) in batches[..half].iter().enumerate() {
        sd.ingest_batch(seq as u64, b);
    }
    let live = batches[half..]
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut b = b.clone();
            b.push((UserId(real_users + i as u32), probe_item, 1));
            b
        })
        .collect();
    Ok(Workload {
        ckpt: sd.checkpoint(),
        live,
        first_live_seq: half as u64,
        probe_base: real_users,
        probe_item,
        real_users,
    })
}

/// A digest of everything a published view serves: groups, flagged users
/// and items, the click graph and the cleaned index. The daemon and the
/// synchronous drives run the same binary, so equal views digest equally.
fn digest(s: &ServeSnapshot) -> String {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", s.view.groups()).hash(&mut h);
    s.view.flagged_users().iter().for_each(|u| u.0.hash(&mut h));
    s.view.flagged_items().iter().for_each(|v| v.0.hash(&mut h));
    (s.graph.num_users(), s.graph.num_items()).hash(&mut h);
    s.graph
        .edges()
        .for_each(|(u, v, c)| (u.0, v.0, c).hash(&mut h));
    for v in 0..s.clean_index.num_items() as u32 {
        for (x, score) in s.clean_index.related(ItemId(v)) {
            (v, x.0, score.to_bits()).hash(&mut h);
        }
    }
    format!("{:016x}", h.finish())
}

/// `ricdbench daemon`: restores the checkpoint file the way
/// `ricd serve --resume` does, serves on a loopback port it prints as
/// `listening on ADDR`, and after a client's shutdown request prints a
/// summary of its final state (with its own peak resident set) as one JSON
/// line. It exits early if its parent goes away first.
pub fn daemon(args: &Args) -> Result<(), String> {
    let path = args.data_dir()?.join(CHECKPOINT_FILE);
    let read_err = |e: String| format!("{}: {e}", path.display());
    let body = std::fs::read_to_string(&path).map_err(|e| read_err(e.to_string()))?;
    let ckpt: Checkpoint = serde_json::from_str(&body).map_err(|e| read_err(e.to_string()))?;
    drop(body);
    // Left detached on purpose: it ends the process when our stdin closes,
    // which happens only if the parent dies, since the parent holds it open
    // until it has read the summary.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(3);
    });
    let t0 = Instant::now();
    let state = ServeState::restore(ServeConfig::default(), job::pipeline(), ckpt);
    let restore_s = secs(t0);
    let handle = ricd_serve::server::start(state, "127.0.0.1:0")
        .map_err(|e| format!("binding the daemon: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening on {}", handle.addr())
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    let state = handle.join();
    let snap = state.shared().load();
    let m = state.registry();
    let summary = obj([
        ("restore_s", Json::F64(restore_s)),
        ("batches", int(m.counter("serve.batches").get())),
        ("swaps", int(m.counter("serve.swaps").get())),
        ("final_epoch", int(snap.view.epoch())),
        ("flagged_users", int(snap.view.num_flagged_users())),
        ("view_digest", text(digest(&snap))),
        ("peak_rss_mb", Json::F64(peak_rss_mb())),
    ]);
    writeln!(stdout, "{}", encode(&summary))
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())
}

/// The daemon child process; killed and reaped if dropped before
/// [`Daemon::finish`].
struct Daemon {
    child: Child,
    out: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(args: &Args, data: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating ricdbench: {e}"))?;
        let mut child = Command::new(exe)
            .args(["daemon", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .arg("--data")
            .arg(data)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon {
            child,
            out,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = d.line()?;
        d.addr = line
            .strip_prefix("listening on ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("the daemon said `{}`", line.trim()))?;
        Ok(d)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.out.read_line(&mut line) {
            Ok(0) => Err("the daemon exited early".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("reading from the daemon: {e}")),
        }
    }

    /// Requests a shutdown over the wire, then returns the daemon's
    /// summary once it has exited.
    fn finish(mut self) -> Result<Json, String> {
        Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()))
            .map_err(|e| format!("shutting the daemon down: {e}"))?;
        let line = self.line()?;
        let summary: Json =
            serde_json::from_str(line.trim()).map_err(|e| format!("the daemon's summary: {e}"))?;
        // Its stdout closes when it exits; only then is its stdin closed.
        let _ = self.out.read_to_string(&mut String::new());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("the daemon exited with {status}"));
        }
        Ok(summary)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the two client threads saw.
#[derive(Default)]
struct Load {
    ack_s: Vec<f64>,
    query_s: Vec<f64>,
    fresh_s: Vec<Option<f64>>,
    queue_depth_max: u64,
    backpressure: u64,
    /// How late the generators ran behind their schedules, worst case.
    ingest_lag_s: f64,
    query_lag_s: f64,
    failures: Vec<String>,
    queries_ok: u64,
    batches_ok: u64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Runs the open-loop load: one live batch every `batch_gap` on the ingest
/// connection, which reads the daemon's queue depth after each send and
/// between sends polls the oldest unseen batch's probe every `PROBE_POLL`.
/// Risk and recommend queries for real users arrive at `QUERY_RATE` on the
/// query connection, each timed from its scheduled instant.
fn drive(w: &Workload, addr: SocketAddr, seed: u64, batch_gap: Duration) -> Load {
    let n = w.live.len();
    let query_gap = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let t0 = Instant::now() + Duration::from_millis(50);
    let due = |i: usize| t0 + batch_gap * i as u32;
    let load_end = due(n);
    let (ingest, queries) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let mut l = Load {
                fresh_s: vec![None; n],
                ..Load::default()
            };
            let mut c = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    l.failures.push(format!("ingest connect: {e}"));
                    return l;
                }
            };
            let (mut sent, mut seen) = (0usize, 0usize);
            while seen < n {
                if sent < n && Instant::now() >= due(sent) {
                    l.ingest_lag_s = l.ingest_lag_s.max(secs(due(sent)));
                    send(&mut c, w, sent, &mut l);
                    match c.status() {
                        Ok(st) => {
                            let depth = st.shards.iter().map(|s| s.backlog).max();
                            l.queue_depth_max = l.queue_depth_max.max(depth.unwrap_or(0));
                        }
                        Err(e) => l.failures.push(format!("status after batch {sent}: {e}")),
                    }
                    sent += 1;
                } else if seen < sent {
                    if Instant::now() > load_end + DRAIN_GRACE {
                        break;
                    }
                    match c.recommend(UserId(w.probe_base + seen as u32), 10) {
                        Ok(r) if r.items.is_empty() => std::thread::sleep(PROBE_POLL),
                        Ok(r) => {
                            l.fresh_s[seen] = Some(secs(due(seen)));
                            if r.items.iter().any(|(v, _)| *v == w.probe_item) || r.degraded {
                                l.failures.push(format!("probe {seen}: bad answer"));
                            }
                            seen += 1;
                        }
                        Err(e) => {
                            l.failures.push(format!("probe {seen}: {e}"));
                            break;
                        }
                    }
                } else {
                    sleep_until(due(sent));
                }
            }
            l
        });
        let queries = s.spawn(|| {
            let mut l = Load::default();
            let mut c = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    l.failures.push(format!("query connect: {e}"));
                    return l;
                }
            };
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 21));
            for q in 0u32.. {
                let at = t0 + query_gap * q;
                if at >= load_end {
                    break;
                }
                sleep_until(at);
                l.query_lag_s = l.query_lag_s.max(secs(at));
                let ok = if q % 2 == 1 {
                    let user = UserId(rng.gen_range(0..w.real_users));
                    c.recommend(user, 10).map(|r| !r.degraded)
                } else {
                    let users: Vec<UserId> = (0..RISK_USERS)
                        .map(|_| UserId(rng.gen_range(0..w.real_users)))
                        .collect();
                    c.query_risk(users, Vec::new())
                        .map(|r| !r.degraded && r.users.len() == RISK_USERS)
                };
                l.query_s.push(secs(at));
                match ok {
                    Ok(true) => l.queries_ok += 1,
                    Ok(false) => l.failures.push("query: degraded or short answer".into()),
                    Err(e) => l.failures.push(format!("query: {e}")),
                }
            }
            l
        });
        (
            ingest.join().expect("ingest thread panicked"),
            queries.join().expect("query thread panicked"),
        )
    });
    let mut l = ingest;
    l.query_s = queries.query_s;
    l.query_lag_s = queries.query_lag_s;
    l.queries_ok = queries.queries_ok;
    l.failures.extend(queries.failures);
    l
}

/// Sends live batch `i`, timing the acknowledgement.
fn send(c: &mut Client, w: &Workload, i: usize, l: &mut Load) {
    let b = &w.live[i];
    let seq = w.first_live_seq + i as u64;
    let t0 = Instant::now();
    match c.ingest(seq, b.clone()) {
        Ok(IngestOutcome::Accepted { records }) if records == b.len() => {
            l.ack_s.push(secs(t0));
            l.batches_ok += 1;
        }
        Ok(IngestOutcome::Accepted { records }) => l.failures.push(format!(
            "batch {seq}: {records} of {} records queued",
            b.len()
        )),
        Ok(IngestOutcome::Backpressure { .. }) => {
            // Refused: counted as failed, then delivered anyway so the final
            // view still covers every batch.
            l.backpressure += 1;
            l.failures.push(format!("batch {seq}: backpressure"));
            if let Err(e) = c.ingest_blocking(seq, b) {
                l.failures.push(format!("batch {seq}: retry failed: {e}"));
            }
        }
        Err(e) => l.failures.push(format!("batch {seq}: {e}")),
    }
}

/// Every `ServeConfig::default().swap_every_batches` batches, and after the
/// last, the synchronous drive publishes a view.
fn swap_due(i: usize, n: usize) -> bool {
    let every = ServeConfig::default().swap_every_batches;
    (i + 1).is_multiple_of(every) || i + 1 == n
}

/// Drives a `ServeState` synchronously over the live batches. Untraced it
/// runs `ServeConfig::default()`; traced, the state never swaps on its own
/// and the drive calls `rebuild_view` at the same cadence, so ingest and
/// rebuild get separate spans, and each published index is rebuilt once
/// more through `I2iIndex::build_cleaned` under its own span.
fn sync_drive(
    t: &Tracer,
    w: &Workload,
    ticks: &mut Vec<f64>,
    frontier: &mut Vec<f64>,
    ledger: &mut Ledger,
) -> (Arc<ServeSnapshot>, usize) {
    let p = job::pipeline();
    let pool = job::pool(&p);
    let cfg = if t.on() {
        ServeConfig {
            swap_every_batches: usize::MAX,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig::default()
    };
    let mut state = ServeState::restore(cfg, p, w.ckpt.clone());
    let n = w.live.len();
    for (i, b) in w.live.iter().enumerate() {
        let seq = w.first_live_seq + i as u64;
        t.span("serve.batch", || {
            let t0 = Instant::now();
            let stats = t.span("core.incremental.ingest", || state.ingest(seq, b));
            ticks.push(secs(t0));
            frontier.push(stats.frontier_items as f64);
            if t.on() && swap_due(i, n) {
                t.span("serve.state.view_rebuild", || state.rebuild_view());
                let snap = state.shared().load();
                let flagged = snap.view.flagged_users();
                let idx = t.span("recommender.index.build", || {
                    ricd_recommender::I2iIndex::build_cleaned(
                        &snap.graph,
                        job::PER_ANCHOR,
                        &pool,
                        &flagged,
                    )
                });
                ledger.check(
                    "published index equals build_cleaned on its view",
                    job::indexes_equal(&idx, &snap.clean_index),
                );
            }
        });
    }
    state.flush();
    let history = state.checkpoint().records.len();
    (state.shared().load(), history)
}

/// Samples of the in-process measurements: checkpoint restores, the
/// synchronous drives' ticks and the reference batch jobs.
#[derive(Default)]
struct InProcess {
    setup: Vec<f64>,
    ticks: Vec<f64>,
    frontier: Vec<f64>,
    drives: Vec<f64>,
    batch: Vec<f64>,
    history: usize,
    counts: LayerCounts,
}

/// `RESTORES` timed checkpoint restores, one synchronous drive over the
/// live batches, and `REFERENCE_JOBS` batch jobs over the drive's final
/// table. Returns the digest of the drive's final view.
fn in_process_round(
    t: &Tracer,
    w: &Workload,
    ref_p: &ricd_core::RicdPipeline,
    m: &mut InProcess,
    ledger: &mut Ledger,
) -> Result<String, String> {
    for _ in 0..RESTORES {
        let ckpt = w.ckpt.clone();
        let t0 = Instant::now();
        let s = ServeState::restore(ServeConfig::default(), job::pipeline(), ckpt);
        m.setup.push(secs(t0));
        drop(s);
    }
    let t0 = Instant::now();
    let (snap, history) = sync_drive(
        &Tracer::new(false),
        w,
        &mut m.ticks,
        &mut m.frontier,
        ledger,
    );
    m.drives.push(secs(t0));
    m.history = history;
    let tsv = job::to_tsv(&snap.graph);
    let view = digest(&snap);
    drop(snap);
    for _ in 0..REFERENCE_JOBS {
        let t0 = Instant::now();
        t.span("serve.reference_job", || -> Result<(), String> {
            let (g, same) = job::load(t, &tsv[..])?;
            if t.on() {
                ledger.check("graph.builder rebuild equals read_tsv graph", same);
            }
            m.counts.edges = g.num_edges();
            let r = job::detect(t, ref_p, &g, &mut m.counts);
            ledger.check(
                "reference job completed undegraded",
                !r.status.is_degraded(),
            );
            job::index(t, &job::pool(ref_p), &g, &r, &mut m.counts);
            Ok(())
        })?;
        m.batch.push(secs(t0));
    }
    Ok(view)
}

pub fn run(args: &Args, t: &Tracer, ledger: &mut Ledger) -> Result<Out, String> {
    let w = build(args)?;
    let data = args.data_dir()?;
    let ckpt_path = data.join(CHECKPOINT_FILE);
    let ckpt_json = serde_json::to_string(&w.ckpt).map_err(|e| e.to_string())?;
    std::fs::write(&ckpt_path, ckpt_json).map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
    let ref_p = job::pipeline();
    let mut m = InProcess::default();

    let mut views = Vec::new();
    for _ in 0..ROUNDS_BEFORE {
        views.push(in_process_round(t, &w, &ref_p, &mut m, ledger)?);
    }
    let daemon = Daemon::spawn(args, &data)?;
    let load = drive(&w, daemon.addr, args.seed, batch_gap(args.scale));
    let summary = daemon.finish()?;
    // After the harness idled through the load, the first drive ran a
    // quarter slower than the rest on the reference guest: warm up untimed.
    let warm_up = Tracer::new(false);
    sync_drive(&warm_up, &w, &mut Vec::new(), &mut Vec::new(), ledger);
    for _ in 0..ROUNDS_AFTER {
        views.push(in_process_round(t, &w, &ref_p, &mut m, ledger)?);
    }

    ledger.attempted += load.batches_ok + load.queries_ok;
    for f in &load.failures {
        ledger.fail(f.clone());
    }
    let lost = load.fresh_s.iter().filter(|f| f.is_none()).count();
    for _ in 0..lost {
        ledger.fail("a live batch never became visible");
    }
    // Output check: the daemon's final view equals a synchronous drive.
    let reference = views[0].clone();
    ledger.check(
        "daemon final view equals synchronous ServeState drive",
        summary["view_digest"].as_str() == Some(reference.as_str()),
    );
    ledger.check(
        "synchronous drives agree",
        views.iter().all(|v| *v == reference),
    );
    let InProcess {
        setup,
        ticks,
        frontier,
        drives,
        batch,
        history,
        counts,
    } = m;
    let sync_s = median(&drives);
    let count = |key: &str| summary[key].as_u64().unwrap_or(0);

    let fresh: Vec<f64> = load.fresh_s.iter().flatten().map(|s| s * 1e3).collect();
    let ms = |v: &[f64]| v.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    // `query_p50_ms` is the risk queries' median. Over both kinds it would
    // fall in the gap between the recommend answers (about 0.5 ms) and the
    // risk answers, and move with the share of each kind near the gap.
    let (fresh_d, query_d, tick_d) = (
        Dist::of(&fresh),
        Dist::of(&ms(&every_other(&load.query_s, 0))),
        Dist::of(&drive_means_ms(&ticks, w.live.len())),
    );
    let mut out = Out::default();
    out.e2e(median(&setup), median(&batch), &fresh_d, &query_d, &tick_d);
    out.e2e.push((
        "peak_rss_mb",
        summary["peak_rss_mb"].as_f64().unwrap_or(0.0),
    ));
    out.samples = vec![
        ("setup_s", Dist::of(&setup)),
        ("batch_s", Dist::of(&batch)),
        ("fresh_ms", fresh_d),
        ("query_risk_ms", query_d),
        ("query_ms", Dist::of(&ms(&load.query_s))),
        (
            "query_recommend_ms",
            Dist::of(&ms(&every_other(&load.query_s, 1))),
        ),
        ("tick_drive_mean_ms", tick_d),
        ("tick_ms", Dist::of(&ms(&ticks))),
        ("ack_ms", Dist::of(&ms(&load.ack_s))),
    ];
    let batch_gap_s = batch_gap(args.scale).as_secs_f64();
    out.details = Some(obj([
        ("live_batches", int(w.live.len())),
        ("checkpoint_records", int(w.ckpt.records.len())),
        ("batch_rate_per_s", Json::F64(1.0 / batch_gap_s)),
        ("load_s", Json::F64(batch_gap_s * w.live.len() as f64)),
        ("query_rate_per_s", Json::F64(QUERY_RATE)),
        ("ingest_lag_max_s", Json::F64(load.ingest_lag_s)),
        ("query_lag_max_s", Json::F64(load.query_lag_s)),
        ("daemon", summary.clone()),
        ("harness_peak_rss_mb", Json::F64(peak_rss_mb())),
        ("sync_drive_s", Json::F64(sync_s)),
        ("probe_poll_ms", Json::F64(PROBE_POLL.as_secs_f64() * 1e3)),
    ]));

    if t.on() {
        // The traced synchronous drive and a standalone detector restore.
        let (mut traced_ticks, mut traced_frontier) = (Vec::new(), Vec::new());
        let traced_t0 = Instant::now();
        let (final_traced, _) = sync_drive(t, &w, &mut traced_ticks, &mut traced_frontier, ledger);
        let traced_s = secs(traced_t0);
        ledger.check(
            "traced drive equals untraced drive",
            digest(&final_traced) == reference,
        );
        let ckpt = w.ckpt.clone();
        t.span("serve.restore", || {
            t.span("core.incremental.restore", || {
                StreamingDetector::restore(job::pipeline(), ckpt)
            })
        });
        // The traced drive also rebuilds each published index once more;
        // that extra work is not tracing overhead.
        out.overhead_s = traced_s - sync_s - sum_in(t, "recommender.index.build", "serve.batch");

        out.layer_ms(
            "core.incremental.ingest_p50_ms",
            "core.incremental.ingest_tail_ms",
            &t.durations("core.incremental.ingest"),
        );
        out.layer("core.incremental.frontier_items", median(&frontier));
        out.layer("core.incremental.history_records", history as f64);
        out.layer(
            "core.incremental.restore_s",
            median_s(t, "core.incremental.restore"),
        );
        out.layer_ms(
            "serve.state.view_rebuild_p50_ms",
            "serve.state.view_rebuild_tail_ms",
            &t.durations("serve.state.view_rebuild"),
        );
        out.layer(
            "serve.state.swaps_per_batch",
            count("swaps") as f64 / count("batches").max(1) as f64,
        );
        let ack = Dist::of(&ms(&load.ack_s));
        out.layer("serve.server.ack_p50_ms", ack.p50);
        out.layer("serve.server.ack_tail_ms", ack.tail);
        out.layer(
            "serve.server.backpressure_rejected",
            load.backpressure as f64,
        );
        out.layer("serve.server.queue_depth_max", load.queue_depth_max as f64);
        out.job_layers(t, &counts);
        out.pool(
            &ref_p.metrics,
            (ROUNDS_BEFORE + ROUNDS_AFTER) * REFERENCE_JOBS,
        );
    }
    Ok(out)
}

/// Each drive's mean `ServeState::ingest` time per live batch, in ms; their
/// median is `tick_p50_ms`. The mean over the batches counts the view
/// swaps, which carry most of a batch's cost, and does not jump with the
/// share of cheap batches a seed's campaigns leave (the per-batch median
/// sits where cheap and detection-running batches meet); the median over
/// drives drops the contention bursts a single drive catches.
fn drive_means_ms(ticks_s: &[f64], batches: usize) -> Vec<f64> {
    ticks_s
        .chunks(batches)
        .map(|d| 1e3 * d.iter().sum::<f64>() / d.len() as f64)
        .collect()
}

/// The queries of one kind: risk queries are the even ones, recommend
/// queries the odd ones.
fn every_other(query_s: &[f64], first: usize) -> Vec<f64> {
    query_s.iter().skip(first).step_by(2).copied().collect()
}

/// Total duration of `name` spans whose parent is a `parent` span.
fn sum_in(t: &Tracer, name: &str, parent: &str) -> f64 {
    let spans = t.spans();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(|s| s.dur_s())
        .sum()
}
