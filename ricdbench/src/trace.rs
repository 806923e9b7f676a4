//! Spans recorded from the benchmark's own code around each public call
//! into a layer. Spans live in memory and are written when the run ends.
//!
//! Every operation the benchmark times (one batch job, one serve batch,
//! one window tick) opens a root span; layer calls made while it is open
//! become its children. With tracing off every call runs bare.

use crate::report::{int, obj, text, Dist, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// The operation (root span) this span belongs to.
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    ops: RefCell<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            ops: RefCell::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span, or a new operation's root when none is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let op = match parent {
            Some(p) => self.spans.borrow()[p].op,
            None => {
                let mut ops = self.ops.borrow_mut();
                *ops += 1;
                *ops
            }
        };
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                op,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_s)
            .collect()
    }

    /// Per-name totals and self times, plus the share of root-span time no
    /// child span covers. Children of one span run one after another on
    /// the benchmark thread, so the covered part of a span is the sum of
    /// its children's durations.
    pub fn summary(&self) -> TraceSummary {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut layers: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        let mut root_s = 0.0;
        let mut root_self_s = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let self_s = (s.dur_s() - child_s[i]).max(0.0);
            let e = layers.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_s();
            e.2 += self_s;
            if s.parent.is_none() {
                root_s += s.dur_s();
                root_self_s += self_s;
            }
        }
        TraceSummary {
            layers,
            traced_wall_s: root_s,
            unattributed_share: if root_s > 0.0 {
                root_self_s / root_s
            } else {
                0.0
            },
        }
    }

    /// The spans as JSON, for the spans file written at the end of a run.
    pub fn spans_json(&self) -> Json {
        Json::Array(
            self.spans
                .borrow()
                .iter()
                .map(|s| {
                    obj([
                        ("name", text(s.name)),
                        ("op", int(s.op)),
                        ("parent", s.parent.map_or(Json::Null, int)),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

pub struct TraceSummary {
    /// name → (count, total seconds, self seconds)
    pub layers: BTreeMap<&'static str, (usize, f64, f64)>,
    pub traced_wall_s: f64,
    pub unattributed_share: f64,
}

impl TraceSummary {
    pub fn json(&self) -> Json {
        obj([
            (
                "layers",
                Json::Object(
                    self.layers
                        .iter()
                        .map(|(k, (n, total, own))| {
                            (
                                k.to_string(),
                                obj([
                                    ("count", int(*n)),
                                    ("total_s", Json::F64(*total)),
                                    ("self_s", Json::F64(*own)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("traced_wall_s", Json::F64(self.traced_wall_s)),
            ("unattributed_share", Json::F64(self.unattributed_share)),
        ])
    }
}

/// Median of a span's durations in seconds (0 when the span never ran).
pub fn median_s(t: &Tracer, name: &str) -> f64 {
    Dist::of(&t.durations(name)).p50
}
