#!/usr/bin/env python3
"""End-to-end benchmark of the ANEK reproduction.

Runs one workload for a fixed time and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with
tracing off. With --trace 1 the workload runs again with tracing on and
the metrics are the per-layer ones, computed from the recorded spans.
The line before it stamps the result with the commit, source digest,
core count, kernel backend and build type.

    python3 e2e_bench/run.py --workload pmd_j1 --seed 1993524 \\
        --seconds 15 --trace 0

The harness (harness.cpp) is built from the repository's sources on first
use, into $CARGO_TARGET_DIR (default .bench_build) under the current
directory. See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("pmd_j1", "pmd_j4", "table3", "pmd_edit")
PMD_WORKLOADS = ("pmd_j1", "pmd_j4", "pmd_edit")
DEFAULT_SEEDS = {"pmd_j1": 1993524, "pmd_j4": 1993524, "pmd_edit": 1993524,
                 "table3": 7}

# Independent references for the output checks: the paper's Table 2
# (ANEK leaves 4 PLURAL warnings on PMD) and Table 4 (classification of
# ANEK's specs against Bierhoff's hand specs), plus the contracts every
# run must keep (no isolated method failures, no aborted run, and a
# consistent, in-range elimination for Table 3's baseline).
PAPER_REFERENCES = {
    "methods_failed": 0,
    "aborted": False,
    "pmd_warnings": 4,
    # Same / Added Helpful / Added Constraining / Removed /
    # Changed (More Restrictive) / Changed (Wrong)
    "table4": [14, 6, 1, 3, 6, 3],
    "elim_consistent": True,
    "elim_in_range": True,
}

END_TO_END = {
    "verdict_s": "s",
    "infer_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.generate_s": "s",
    "lang.parse_s": "s",
    "analysis.callgraph_s": "s",
    "analysis.waves": "count",
    "analysis.widest_wave": "count",
    "analysis.ir_pass_s": "s",
    "pfg.build_pass_s": "s",
    "pfg.nodes": "count",
    "pfg.edges": "count",
    "constraints.pass_s": "s",
    "constraints.vars": "count",
    "constraints.factors": "count",
    "factor.bp_s": "s",
    "factor.bp_calls": "count",
    "factor.bp_messages": "count",
    "factor.bp_iterations": "count",
    "factor.bp_converged_ratio": "ratio",
    "factor.bp_us_per_call": "us",
    "factor.solve_s": "s",
    "infer.traced_s": "s",
    "infer.picks": "count",
    "infer.picks_per_method": "ratio",
    "infer.fallback_solves": "count",
    "infer.specs": "count",
    "infer.failed_methods": "count",
    "infer.other_s": "s",
    "support.pool_busy_share": "ratio",
    "plural.check_s": "s",
    "plural.warnings": "count",
    "plural.elim_s": "s",
    "plural.elim_ops": "count",
    "plural.elim_vars": "count",
    "plural.elim_eqs": "count",
    "cache.open_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_s": "s",
    "cache.stores": "count",
    "cache.store_s": "s",
    "trace.overhead_s": "s",
}

HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build_harness():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("e2e_bench: the repository sources are not next to "
                         "this directory; nothing to build")
    out = build_dir() / "e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build directory too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "anek_e2e",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)
    return out / "anek_e2e"


def run_harness(binary, workload, seed, seconds, spans=None, small=False):
    """Runs one harness process and returns its parsed JSON result."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(work)]
    if spans:
        cmd += ["--spans", str(spans)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"e2e_bench: harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stamp(result):
    """What the numbers depend on, so runs from different hosts, backends
    or builds are never compared silently."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": result["nproc"], "jobs": result["jobs"],
            "kernel_backend": result["kernel_backend"],
            "build_type": result["build_type"],
            "workload": result["workload"], "seed": int(result["seed"])}


def check_op(workload, op, refs):
    """Failed output checks of one operation against \\p refs."""
    failures = []

    def expect(name, observed, reference):
        if observed != reference:
            failures.append(f"{name}: got {observed!r}, "
                            f"reference {reference!r}")

    expect("methods_failed", op["methods_failed"], refs["methods_failed"])
    expect("aborted", op["aborted"], refs["aborted"])
    if workload in PMD_WORKLOADS:
        expect("pmd_warnings", op["warnings"], refs["pmd_warnings"])
        expect("table4", op["table4"], refs["table4"])
    else:
        expect("elim_consistent", op["elim_consistent"],
               refs["elim_consistent"])
        expect("elim_in_range", op["elim_in_range"], refs["elim_in_range"])
    return failures


def check_run(result, refs):
    """Returns (attempted, failed, messages). Each operation that fails a
    check counts once. In a traced run every traced operation is paired
    with an untraced one on the same input; their specs and warnings must
    agree, since tracing must not change results."""
    ops = result["ops"]
    failed, messages = 0, []
    for index, op in enumerate(ops):
        failures = check_op(result["workload"], op, refs)
        if op["traced"]:
            twin = ops[index + 1] if index + 1 < len(ops) else None
            if twin is None or twin["traced"]:
                failures.append("traced operation has no untraced twin")
            elif (op["spec_digest"], op["warnings"]) != (
                    twin["spec_digest"], twin["warnings"]):
                failures.append("tracing changed specs or warnings")
        if failures:
            failed += 1
            messages.append(f"op {index}: " + "; ".join(failures))
    return len(ops), failed, messages


def end_to_end_metrics(result):
    ops = [op for op in result["ops"] if not op["traced"]]
    values = {
        "verdict_s": statistics.median(op["verdict_s"] for op in ops),
        "infer_s": statistics.median(op["infer_s"] for op in ops),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def self_seconds(span, kids):
    """Span duration minus the part of it its children cover."""
    covered, end = 0, None
    for start, stop in sorted((k[5], k[6]) for k in kids):
        if end is None or start > end:
            covered += stop - start
            end = stop
        elif stop > end:
            covered += stop - end
            end = stop
    return (span[6] - span[5] - covered) / 1e9


def layer_metrics(result, spans_doc):
    """Per-layer metrics from the spans of a traced run. Span rows are
    [id, parent, op, thread, name, start_ns, end_ns, args]."""
    groups = defaultdict(list)
    for span in spans_doc["spans"]:
        groups[span[2]].append(span)

    def root(group):
        return next(s for s in group if s[1] == 0)

    def named(group, name):
        return [s for s in group if s[4] == name]

    setups = [g for g in groups.values() if root(g)[4] == "setup"]
    fills = [g for g in setups if named(g, "cache.open")]
    ops = [g for g in groups.values() if root(g)[4] == "op"]
    passes = next(g for g in groups.values() if root(g)[4] == "passes")

    def secs(spans):
        return sum(s[6] - s[5] for s in spans) / 1e9

    def arg(spans, key):
        return sum(s[7].get(key, 0) for s in spans)

    def median_over(groups_, fn):
        return statistics.median(fn(g) for g in groups_) if groups_ else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def bp(g):
        return named(g, "factor.bp")

    def lookups(g):
        return named(g, "cache.lookup")

    def infer_self(g):
        span = named(g, "infer")[0]
        kids = [s for s in g if s[1] == span[0]]
        return self_seconds(span, kids)

    jobs = spans_doc["jobs"]
    methods = arg(named(passes, "analysis.ir_pass"), "methods")
    untraced = [op["infer_s"] for op in result["ops"] if not op["traced"]]
    traced = [op["infer_s"] for op in result["ops"] if op["traced"]]
    infer_of = lambda g: secs(named(g, "infer"))
    values = {
        "corpus.generate_s": median_over(
            setups, lambda g: secs(named(g, "corpus.generate"))),
        "lang.parse_s": median_over(
            setups, lambda g: secs(named(g, "lang.parse"))),
        "analysis.callgraph_s": secs(named(passes, "analysis.callgraph")),
        "analysis.waves": arg(named(passes, "analysis.callgraph"), "waves"),
        "analysis.widest_wave": arg(named(passes, "analysis.callgraph"),
                                    "widest_wave"),
        "analysis.ir_pass_s": secs(named(passes, "analysis.ir_pass")),
        "pfg.build_pass_s": secs(named(passes, "pfg.build_pass")),
        "pfg.nodes": arg(named(passes, "pfg.build_pass"), "nodes"),
        "pfg.edges": arg(named(passes, "pfg.build_pass"), "edges"),
        "constraints.pass_s": secs(named(passes, "constraints.pass")),
        "constraints.vars": arg(named(passes, "constraints.pass"), "vars"),
        "constraints.factors": arg(named(passes, "constraints.pass"),
                                   "factors"),
        "factor.bp_s": median_over(ops, lambda g: secs(bp(g))),
        "factor.bp_calls": median_over(ops, lambda g: len(bp(g))),
        "factor.bp_messages": median_over(
            ops, lambda g: arg(bp(g), "messages")),
        "factor.bp_iterations": median_over(
            ops, lambda g: arg(bp(g), "iterations")),
        "factor.bp_converged_ratio": median_over(
            ops, lambda g: ratio(arg(bp(g), "converged"), len(bp(g)))),
        "factor.bp_us_per_call": median_over(
            ops, lambda g: 1e6 * ratio(secs(bp(g)), len(bp(g)))),
        "factor.solve_s": median_over(
            ops, lambda g: arg(named(g, "infer"), "solve_seconds")),
        "infer.traced_s": median_over(ops, infer_of),
        "infer.picks": median_over(
            ops, lambda g: arg(named(g, "infer"), "picks")),
        "infer.picks_per_method": median_over(
            ops, lambda g: ratio(arg(named(g, "infer"), "picks"), methods)),
        "infer.fallback_solves": median_over(
            ops, lambda g: arg(named(g, "infer"), "fallback_solves")),
        "infer.specs": median_over(
            ops, lambda g: arg(named(g, "infer"), "specs")),
        "infer.failed_methods": median_over(
            ops, lambda g: arg(named(g, "infer"), "failed_methods")),
        "infer.other_s": median_over(ops, infer_self),
        "support.pool_busy_share": median_over(
            ops, lambda g: ratio(secs(bp(g)), infer_of(g) * jobs)),
        "plural.check_s": median_over(
            ops, lambda g: secs(named(g, "plural.check"))),
        "plural.warnings": median_over(
            ops, lambda g: arg(named(g, "plural.check"), "warnings")),
        "plural.elim_s": median_over(
            ops, lambda g: secs(named(g, "plural.elim"))),
        "plural.elim_ops": median_over(
            ops, lambda g: arg(named(g, "plural.elim"), "ops")),
        "plural.elim_vars": median_over(
            ops, lambda g: arg(named(g, "plural.elim"), "vars")),
        "plural.elim_eqs": median_over(
            ops, lambda g: arg(named(g, "plural.elim"), "eqs")),
        "cache.open_s": median_over(
            ops, lambda g: secs(named(g, "cache.open"))),
        "cache.lookups": median_over(ops, lambda g: len(lookups(g))),
        "cache.hit_ratio": median_over(
            ops, lambda g: ratio(arg(lookups(g), "hit"), len(lookups(g)))),
        "cache.lookup_s": median_over(ops, lambda g: secs(lookups(g))),
        "cache.stores": median_over(
            fills, lambda g: len(named(g, "cache.store"))),
        "cache.store_s": median_over(
            fills, lambda g: secs(named(g, "cache.store"))),
        "trace.overhead_s": (statistics.median(traced)
                             - statistics.median(untraced)),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int,
                        help="generator seed (default: the paper's)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    started = time.monotonic()
    binary = build_harness()
    spans_path = None
    if args.trace:
        spans_path = build_dir() / "spans" / f"{args.workload}-{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    result = run_harness(binary, args.workload, seed, args.seconds,
                         spans=spans_path)
    attempted, failed, messages = check_run(result, PAPER_REFERENCES)
    for message in messages:
        log(f"e2e_bench: check failed: {message}")
    if args.trace:
        with open(spans_path) as f:
            metrics = layer_metrics(result, json.load(f))
    else:
        metrics = end_to_end_metrics(result)
    for name, metric in metrics.items():
        log(f"{args.workload:>9} {name:<26} {metric['value']:>16.6f} "
            f"{metric['unit']}")
    log(f"e2e_bench: {attempted} operations, {failed} failed, "
        f"{time.monotonic() - started:.1f}s")
    untraced = [op for op in result["ops"] if not op["traced"]]
    samples = {"setup_s": result["setup_s"],
               "verdict_s": [op["verdict_s"] for op in untraced],
               "infer_s": [op["infer_s"] for op in untraced]}
    print(json.dumps({"stamp": stamp(result), "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
