//! Building blocks shared by every workload: JSON helpers, sample
//! distributions with the `_tail` rule, the outcome ledger, and the
//! process's peak resident set size.

pub use serde_json::Value as Json;

/// An object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn int(n: impl TryInto<u64>) -> Json {
    Json::U64(n.try_into().unwrap_or(u64::MAX))
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Compact JSON; floats keep every digit (shortest round-trip form).
pub fn encode(v: &Json) -> String {
    serde_json::to_string(v).expect("a JSON value always encodes")
}

/// The percentiles a `_tail` may stand for, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Summary of one timing's samples. `tail` is the highest percentile of
/// `TAIL_LADDER` with at least ten samples beyond it, so the percentile a
/// tail stands for is the same for every run with a similar sample count;
/// with fewer than 20 samples none qualifies and `tail` is the maximum,
/// flagged by `tail_pct = 100`. Percentiles are nearest-rank.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    /// The samples themselves, kept when there are few of them.
    pub few: Vec<f64>,
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub min: f64,
    pub max: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        if samples.is_empty() {
            return Dist::default();
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let rank = |pct: f64| ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
        let (tail, tail_pct) = TAIL_LADDER
            .iter()
            .find(|&&pct| n - 1 - rank(pct) >= 10)
            .map_or((s[n - 1], 100.0), |&pct| (s[rank(pct)], pct));
        Dist {
            few: if n <= 50 {
                samples.to_vec()
            } else {
                Vec::new()
            },
            n,
            p50: median_sorted(&s),
            tail,
            tail_pct,
            min: s[0],
            max: s[n - 1],
        }
    }

    pub fn json(&self) -> Json {
        obj([
            ("n", int(self.n)),
            ("p50", Json::F64(self.p50)),
            ("tail", Json::F64(self.tail)),
            ("tail_pct", Json::F64(self.tail_pct)),
            ("min", Json::F64(self.min)),
            ("max", Json::F64(self.max)),
            (
                "values",
                Json::Array(self.few.iter().map(|&x| Json::F64(x)).collect()),
            ),
        ])
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).p50
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome ledger of one run: operations attempted, and the ones that
/// failed, were refused or answered wrongly, each with a reason.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Output checks: name and whether it passed.
    pub checks: Vec<(String, bool)>,
}

impl Ledger {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failures.push(why.into());
    }

    /// Records an output check; a failed check is also a failed operation.
    pub fn check(&mut self, name: &str, passed: bool) {
        self.checks.push((name.to_string(), passed));
        if passed {
            self.ok();
        } else {
            self.fail(format!("output check `{name}` failed"));
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Wall-clock seconds since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host-wide CPU time counters from `/proc/stat`: (steal, total) ticks.
/// Time the hypervisor gave to other guests shows up as steal; the run
/// report carries its share so noisy runs can be recognised.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}
