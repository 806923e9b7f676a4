#!/usr/bin/env python3
"""The RICD benchmark driver.

Run one workload (from the root of a source checkout):

    python3 ricdbench/run.py --workload batch-100x --seed 1 --seconds 30 --trace 0

builds the benchmark package (``ricdbench/Cargo.toml``) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), generates the workload's
inputs from the seed, measures, and prints the result object as the last
line of standard output. The exit code is non-zero when an output check
fails or the program cannot be built. The full record, with provenance,
goes to ``.bench_results/<workload>-s<seed>-t<trace>.json``; a traced run
also writes its spans beside it.

Compare two sets of untraced results (for example one directory of runs
per commit, made with the same seeds):

    python3 ricdbench/run.py compare PARENT_DIR CHANGE_DIR

Self-test the harness at toy scale (seconds per workload):

    python3 ricdbench/run.py selftest
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Sources whose digest identifies the measured program when the checkout
# carries no git metadata.
SOURCE_DIRS = ("crates", "shims", "ricdbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(msg, code=1):
    print(f"ricdbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target_dir(), "release", "ricdbench")
    if not os.path.isfile(exe):
        fail(f"build produced no binary at {exe}")
    return exe


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_bin(exe, args, capture):
    try:
        return subprocess.run(
            [exe] + args,
            stdout=subprocess.PIPE if capture else sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(args[:3])}` ran past {RUN_TIMEOUT_S} s")


def measure(exe, workload, seed, seconds, trace, scale="full", results=".bench_results"):
    """Prepares inputs and runs one measurement; returns (exit code, stdout, report path)."""
    data = os.path.join(".bench_data", f"{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-s{seed}-t{trace}")
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale, "--data", data]
    try:
        prep = run_bin(exe, ["prepare", "--seconds", str(seconds)] + common, capture=False)
        if prep.returncode != 0:
            fail(f"preparing {workload} failed")
        args = ["run"] + common + [
            "--seconds", str(seconds), "--trace", str(trace),
            "--report", stem + ".json", "--spans", stem + "-spans.json",
        ]
        done = run_bin(exe, args, capture=True)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    report = stem + ".json"
    if os.path.isfile(report):
        with open(report) as f:
            rec = json.load(f)
        rec["provenance"] = {
            "revision": revision(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "run_seconds": float(seconds),
            "command": sys.argv,
            "tail_rule": "highest of p99/p90/p75/p50 (nearest rank) with at least "
            "10 samples beyond it; the maximum when a timing has fewer than 20 samples",
        }
        with open(report, "w") as f:
            json.dump(rec, f, indent=1)
    return done.returncode, done.stdout, report


def cmd_run(argv):
    run_seconds = str(load_bench()["run_seconds"])
    opts = {"--workload": None, "--seed": "1", "--seconds": run_seconds, "--trace": "0", "--scale": "full"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            fail(f"unknown flag {flag}", 2)
        opts[flag] = next(it, None)
        if opts[flag] is None:
            fail(f"{flag} needs a value", 2)
    if opts["--workload"] is None:
        fail("--workload is required", 2)
    exe = build()
    code, out, _ = measure(
        exe, opts["--workload"], int(opts["--seed"]), opts["--seconds"],
        int(opts["--trace"]), opts["--scale"],
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


# ---------------------------------------------------------------- compare


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(d):
    """{(workload, seed): metrics} for the untraced reports in `d`."""
    rows = {}
    for name in sorted(os.listdir(d)):
        if not name.endswith("-t0.json"):
            continue
        with open(os.path.join(d, name)) as f:
            rec = json.load(f)
        if not rec.get("trace"):
            rows[(rec["workload"], rec["seed"])] = rec["metrics"]
    return rows


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """improved / worse / unchanged / unresolved for one (metric, workload) row.

    A gain needs the change to win at least nine tenths of the seed-paired
    runs (ties count for neither) and the medians to differ by more than the
    parent's interquartile range. A regression is a median worse than the
    parent's by more than the bound. When the parent's own spread is wider
    than the bound, the row is unresolved unless every change run beats
    every parent run.
    """
    sign = -1.0 if better == "lower" else 1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap = sign * (cm - pm)
    spread = iqr / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(pairs) and gap > iqr:
        v = "improved"
    elif pm and -gap / abs(pm) > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, pm, cm, wins, len(pairs), iqr


def cmd_compare(argv):
    if len(argv) != 2:
        fail("usage: run.py compare PARENT_DIR CHANGE_DIR", 2)
    bench = load_bench()
    parent, change = load_results(argv[0]), load_results(argv[1])
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    if not workloads:
        fail("no workload has untraced results on both sides")
    counts = {}
    print(f"{'metric':<16}{'workload':<12}{'verdict':<12}{'parent':>14}{'change':>14}  ratio (base)")
    for m in bench["end_to_end"]:
        for w in workloads:
            seeds = sorted({s for ww, s in parent if ww == w} & {s for ww, s in change if ww == w})
            if not seeds:
                continue
            p = [parent[(w, s)][m["name"]]["value"] for s in seeds]
            c = [change[(w, s)][m["name"]]["value"] for s in seeds]
            v, pm, cm, wins, n, iqr = verdict(p, c, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            ratio = cm / pm if pm else float("nan")
            print(
                f"{m['name']:<16}{w:<12}{v:<12}{pm:>14.6g}{cm:>14.6g}  "
                f"{ratio:.4f} (base: parent median {pm:.6g} {m['unit']}; "
                f"wins {wins}/{n}; parent IQR {iqr:.4g}; bound {m['bound']})"
            )
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))


# --------------------------------------------------------------- self-test


def check_spans(path):
    """Every span nests inside its parent, within one root per operation."""
    with open(path) as f:
        spans = json.load(f)
    roots = {}
    for i, s in enumerate(spans):
        if s["end_ns"] < s["start_ns"]:
            return f"span {i} ends before it starts"
        if s["parent"] is None:
            if s["op"] in roots:
                return f"operation {s['op']} has two roots"
            roots[s["op"]] = i
            continue
        p = spans[s["parent"]]
        if p["op"] != s["op"]:
            return f"span {i} and its parent belong to different operations"
        if not (p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]):
            return f"span {i} ({s['name']}) lies outside its parent ({p['name']})"
    if not roots:
        return "no spans recorded"
    if {s["op"] for s in spans} != set(roots):
        return "an operation has no root span"
    return None


def check_layer_map(bench):
    """layers.json names only metrics and workloads BENCHMARK.json defines,
    and maps every per-layer metric (the trace.* ones aside) to one layer."""
    with open(os.path.join(HERE, "layers.json")) as f:
        layer_map = json.load(f)
    problems = []
    mapped = [n for layer in layer_map["layers"] for n in layer["metrics"]]
    wanted = [m["name"] for m in bench["per_layer"] if not m["name"].startswith("trace.")]
    if sorted(mapped) != sorted(wanted):
        problems.append(
            "layers.json metrics differ from BENCHMARK.json per_layer: "
            f"only in layers.json {sorted(set(mapped) - set(wanted))}, "
            f"unmapped {sorted(set(wanted) - set(mapped))}, "
            f"mapped twice {sorted({n for n in mapped if mapped.count(n) > 1})}"
        )
    # "failed" is the result line's failed count (failed / attempted).
    targets = {m["name"] for m in bench["end_to_end"]} | {"failed"}
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in layer_map["layers"]:
        for move in layer["moves"]:
            if move["metric"] not in targets or move["workload"] not in workloads:
                problems.append(f"layers.json: {layer['layer']} moves unknown {move}")
    return problems


def cmd_selftest(argv):
    bench = load_bench()
    problems = check_layer_map(bench)
    exe = build()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    with_tmp = os.path.join(".bench_results", "selftest")
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, names in ((0, e2e), (1, layers)):
            code, out, report = measure(exe, w, 7, "2", trace, scale="toy", results=with_tmp)
            tag = f"{w} trace={trace}"
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append(f"{tag}: the last stdout line is not a JSON object")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if code != 0 or res.get("correct") is not True:
                problems.append(f"{tag}: output checks failed (exit {code})")
            if list(res.get("metrics", {})) != names:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            units = {x["name"]: x["unit"] for x in bench["end_to_end"] + bench["per_layer"]}
            for n, m in res.get("metrics", {}).items():
                if m.get("unit") != units.get(n):
                    problems.append(f"{tag}: {n} has unit {m.get('unit')}")
                if not trace and not m.get("value", 0) > 0:
                    problems.append(f"{tag}: end-to-end metric {n} is not positive")
            if trace:
                err = check_spans(report.replace(".json", "-spans.json"))
                if err:
                    problems.append(f"{tag}: {err}")
            print(f"selftest {tag}: exit {code}, correct {res.get('correct')}", file=sys.stderr)
    shutil.rmtree(with_tmp, ignore_errors=True)
    if problems:
        for p in problems:
            print("FAIL " + p)
        sys.exit(1)
    print(f"selftest passed: {len(bench['workloads'])} workloads, traced and untraced")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        cmd_compare(argv[1:])
    elif argv and argv[0] == "selftest":
        cmd_selftest(argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
