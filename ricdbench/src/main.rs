//! The RICD benchmark: one command per workload, every end-to-end metric by
//! name with its unit, and a non-zero exit when an output check fails.
//!
//! ```text
//! ricdbench prepare --workload batch-100x --seed 1 --data DIR
//! ricdbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--data DIR] [--scale full|toy] [--report FILE] [--spans FILE]
//! ricdbench daemon --workload serve-1x --data DIR
//! ```
//!
//! `run.py` beside this package builds it and drives `prepare` and `run`;
//! `run` starts `daemon` itself for serve-1x. The last line of standard
//! output is the result object; `--report` receives the full record (every
//! sample distribution, provenance and, when traced, the per-layer self
//! times), `--spans` the raw spans of a traced run.

mod batch;
mod job;
mod report;
mod scenario;
mod serve;
mod trace;
mod window;

use job::LayerCounts;
use report::{encode, int, obj, peak_rss_mb, text, Dist, Json, Ledger};
use ricd_obs::MetricsRegistry;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["batch-100x", "serve-1x", "window-1x"];

/// End-to-end metrics, printed by every untraced run, with their units.
/// The tails of the three latencies go to the run report, not here: on a
/// 2-vCPU guest their run-to-run spread is wider than any bound a gate
/// could use.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("batch_s", "s"),
    ("fresh_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("tick_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not run reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("graph.io.read_s", "s"),
    ("graph.builder.build_s", "s"),
    ("graph.builder.edges", "count"),
    ("core.detect.s", "s"),
    ("core.extract.rounds", "count"),
    ("core.extract.dirty_users", "count"),
    ("core.extract.dirty_items", "count"),
    ("core.extract.kernel_wedge", "count"),
    ("core.extract.kernel_blocked", "count"),
    ("core.detect.groups", "count"),
    ("core.screen.s", "s"),
    ("core.screen.groups_out", "count"),
    ("core.screen.users_removed", "count"),
    ("core.screen.hot_items_reclassified", "count"),
    ("core.screen.items_removed", "count"),
    ("core.screen.groups_dropped", "count"),
    ("core.identify.s", "s"),
    ("recommender.index.build_s", "s"),
    ("recommender.index.anchors", "count"),
    ("core.incremental.ingest_p50_ms", "ms"),
    ("core.incremental.ingest_tail_ms", "ms"),
    ("core.incremental.frontier_items", "count"),
    ("core.incremental.history_records", "count"),
    ("core.incremental.restore_s", "s"),
    ("serve.state.view_rebuild_p50_ms", "ms"),
    ("serve.state.view_rebuild_tail_ms", "ms"),
    ("serve.state.swaps_per_batch", "ratio"),
    ("serve.server.ack_p50_ms", "ms"),
    ("serve.server.ack_tail_ms", "ms"),
    ("serve.server.backpressure_rejected", "count"),
    ("serve.server.queue_depth_max", "count"),
    ("core.temporal.maintain_p50_ms", "ms"),
    ("core.temporal.maintain_tail_ms", "ms"),
    ("core.temporal.window_graph_p50_ms", "ms"),
    ("core.temporal.window_graph_tail_ms", "ms"),
    ("core.temporal.window_records_max", "count"),
    ("core.temporal.evicted_records", "count"),
    ("engine.pool.partitions", "count"),
    ("engine.pool.retries", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as `BENCHMARK.json` defines it.
    Full,
    /// A seconds-long version of the same workload for the harness self-test.
    Toy,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub data: Option<PathBuf>,
    pub report: Option<PathBuf>,
    pub spans: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            scale: Scale::Full,
            data: None,
            report: None,
            spans: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = val()?,
                "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    a.trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                    }
                }
                "--scale" => {
                    a.scale = match val()?.as_str() {
                        "full" => Scale::Full,
                        "toy" => Scale::Toy,
                        other => return Err(format!("--scale must be full or toy, got `{other}`")),
                    }
                }
                "--data" => a.data = Some(PathBuf::from(val()?)),
                "--report" => a.report = Some(PathBuf::from(val()?)),
                "--spans" => a.spans = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got `{}`",
                a.workload
            ));
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }

    pub fn data_dir(&self) -> Result<PathBuf, String> {
        self.data.clone().ok_or_else(|| "--data is required".into())
    }
}

/// A seed for one purpose (`salt`) derived from the workload seed, so each
/// generator gets an independent stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one workload measured.
#[derive(Default)]
pub struct Out {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Sample distributions behind the timings, for the report.
    pub samples: Vec<(&'static str, Dist)>,
    pub details: Option<Json>,
    pub overhead_s: f64,
}

impl Out {
    /// The end-to-end metrics every workload reports (peak RSS is added
    /// when the run ends).
    pub fn e2e(&mut self, setup_s: f64, batch_s: f64, fresh: &Dist, query: &Dist, tick: &Dist) {
        self.e2e = vec![
            ("setup_s", setup_s),
            ("batch_s", batch_s),
            ("fresh_p50_ms", fresh.p50),
            ("query_p50_ms", query.p50),
            ("tick_p50_ms", tick.p50),
        ];
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.push((name, v));
    }

    /// p50 and tail of a span's durations, in ms.
    pub fn layer_ms(&mut self, p50: &'static str, tail: &'static str, durations_s: &[f64]) {
        let ms: Vec<f64> = durations_s.iter().map(|s| s * 1e3).collect();
        let d = Dist::of(&ms);
        self.layers.push((p50, d.p50));
        self.layers.push((tail, d.tail));
    }

    /// The batch job's layers: median span durations and the counts.
    pub fn job_layers(&mut self, t: &Tracer, c: &LayerCounts) {
        for (metric, span) in [
            ("graph.io.read_s", "graph.io.read"),
            ("graph.builder.build_s", "graph.builder.build"),
            ("core.detect.s", "core.detect"),
            ("core.screen.s", "core.screen"),
            ("core.identify.s", "core.identify"),
            ("recommender.index.build_s", "recommender.index.build"),
        ] {
            self.layers.push((metric, trace::median_s(t, span)));
        }
        self.layers.extend(c.metrics());
    }

    /// Pool partitions and retries per traced operation.
    pub fn pool(&mut self, m: &MetricsRegistry, ops: usize) {
        let per_op = |name: &str| m.counter(name).get() as f64 / ops.max(1) as f64;
        self.layers
            .push(("engine.pool.partitions", per_op("pool.partitions_started")));
        self.layers
            .push(("engine.pool.retries", per_op("pool.retries")));
    }
}

fn metrics_json(names: &[(&str, &str)], values: &[(&'static str, f64)]) -> Json {
    Json::Object(
        names
            .iter()
            .map(|(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (
                    name.to_string(),
                    obj([("value", Json::F64(v)), ("unit", text(*unit))]),
                )
            })
            .collect(),
    )
}

fn write_file(path: &std::path::Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let tracer = Tracer::new(args.trace);
    let mut ledger = Ledger::default();
    let started = std::time::Instant::now();
    let steal0 = report::cpu_steal_ticks();
    let mut out = match args.workload.as_str() {
        "batch-100x" => batch::run(args, &tracer, &mut ledger)?,
        "serve-1x" => serve::run(args, &tracer, &mut ledger)?,
        _ => window::run(args, &tracer, &mut ledger)?,
    };
    // serve-1x reports its daemon's peak, not the load generator's.
    if !out.e2e.iter().any(|(n, _)| *n == "peak_rss_mb") {
        out.e2e.push(("peak_rss_mb", peak_rss_mb()));
    }
    let steal1 = report::cpu_steal_ticks();
    let steal_pct = 100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;

    let summary = tracer.summary();
    if args.trace {
        out.layer("trace.unattributed_pct", 100.0 * summary.unattributed_share);
        out.layer("trace.overhead_s", out.overhead_s);
        out.layer("trace.traced_wall_s", summary.traced_wall_s);
        let spans = tracer.spans();
        out.layer("trace.spans", spans.len() as f64);
        out.layer(
            "trace.ops",
            spans.iter().filter(|s| s.parent.is_none()).count() as f64,
        );
    }
    let metrics = if args.trace {
        metrics_json(&PER_LAYER, &out.layers)
    } else {
        metrics_json(&END_TO_END, &out.e2e)
    };
    let failed = ledger.failures.len() as u64;
    let correct = ledger.correct();

    if let Some(path) = &args.report {
        let report = obj([
            ("workload", text(&args.workload)),
            ("seed", int(args.seed)),
            ("trace", Json::Bool(args.trace)),
            (
                "scale",
                text(if args.scale == Scale::Full {
                    "full"
                } else {
                    "toy"
                }),
            ),
            ("run_seconds", Json::F64(args.seconds)),
            ("wall_s", Json::F64(report::secs(started))),
            ("host_cpu_steal_pct", Json::F64(steal_pct)),
            (
                "available_parallelism",
                int(std::thread::available_parallelism().map_or(1, |n| n.get())),
            ),
            ("correct", Json::Bool(correct)),
            ("attempted", int(ledger.attempted)),
            ("failed", int(failed)),
            (
                "failed_frac",
                Json::F64(failed as f64 / ledger.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Array(ledger.failures.iter().take(20).map(text).collect()),
            ),
            (
                "checks",
                Json::Object(
                    ledger
                        .checks
                        .iter()
                        .map(|(n, ok)| (n.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Object(
                    out.samples
                        .iter()
                        .map(|(n, d)| (n.to_string(), d.json()))
                        .collect(),
                ),
            ),
            ("details", out.details.clone().unwrap_or(Json::Null)),
            (
                "trace_summary",
                if args.trace {
                    summary.json()
                } else {
                    Json::Null
                },
            ),
            ("metrics", metrics.clone()),
        ]);
        write_file(path, &encode(&report))?;
    }
    if let (true, Some(path)) = (args.trace, &args.spans) {
        write_file(path, &encode(&tracer.spans_json()))?;
    }
    for f in ledger.failures.iter().take(10) {
        eprintln!("failed: {f}");
    }
    for (name, ok) in &ledger.checks {
        if !ok {
            eprintln!("output check failed: {name}");
        }
    }
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", int(ledger.attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", encode(&result));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: ricdbench prepare|run --workload <name> ...");
        return ExitCode::from(2);
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ricdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd.as_str() {
        "prepare" => args.data_dir().and_then(|dir| {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            match args.workload.as_str() {
                "batch-100x" => batch::prepare(&args, &dir),
                // The 1× scenario is generated in the measuring process.
                _ => Ok(()),
            }
            .map(|()| true)
        }),
        "run" => run(&args),
        "daemon" => serve::daemon(&args).map(|()| true),
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ricdbench: {e}");
            ExitCode::from(1)
        }
    }
}
