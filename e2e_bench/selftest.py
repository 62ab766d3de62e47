#!/usr/bin/env python3
"""Reduced-size self-test of the end-to-end benchmark harness.

    python3 e2e_bench/selftest.py

Runs every workload once on small inputs (a 350-method PMD-style corpus,
a 48-helper Table 3 pair), untraced and traced, and proves that:

  * every metric BENCHMARK.json names is emitted, with its unit;
  * each output check passes against references equal to what the run
    produced, and fails when that one reference is wrong;
  * the traced/untraced agreement check fails when they disagree;
  * run.py exits non-zero, printing no result, when the repository
    sources are missing.

Exits 0 when all of that holds.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def check_metric_names(benchmark):
    expect({m["name"]: m["unit"] for m in benchmark["end_to_end"]}
           == run.END_TO_END, "run.py end-to-end metrics match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in benchmark["per_layer"]}
           == run.PER_LAYER, "run.py per-layer metrics match BENCHMARK.json")


def check_emitted(label, metrics, declared):
    for m in declared:
        got = metrics.get(m["name"])
        expect(got is not None, f"{label}: metric {m['name']} emitted")
        if got is not None:
            expect(got["unit"] == m["unit"],
                   f"{label}: {m['name']} has unit {m['unit']}")
            expect(isinstance(got["value"], (int, float)),
                   f"{label}: {m['name']} is a number")


def wrong(value):
    """A reference that differs from \\p value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, list):
        return [value[0] + 1] + value[1:]
    return value + 1


def check_checks(workload, result):
    """Each check passes on matching references and fails on a wrong one."""
    op = result["ops"][0]
    refs = dict(run.PAPER_REFERENCES)
    keys = ["methods_failed", "aborted"]
    if workload in run.PMD_WORKLOADS:
        refs.update(pmd_warnings=op["warnings"], table4=op["table4"])
        keys += ["pmd_warnings", "table4"]
    else:
        refs.update(elim_consistent=op["elim_consistent"],
                    elim_in_range=op["elim_in_range"])
        keys += ["elim_consistent", "elim_in_range"]
    attempted, failed, _ = run.check_run(result, refs)
    expect(attempted >= 1 and failed == 0,
           f"{workload}: checks pass against matching references")
    for key in keys:
        bad = dict(refs, **{key: wrong(refs[key])})
        attempted, failed, messages = run.check_run(result, bad)
        expect(failed == attempted and all(key in m for m in messages),
               f"{workload}: check {key} fails on a wrong reference")
    return refs


def check_twin(workload, traced, refs):
    bad = copy.deepcopy(traced)
    first = next(op for op in bad["ops"] if op["traced"])
    first["spec_digest"] += "0"
    _, failed, messages = run.check_run(bad, refs)
    expect(failed >= 1 and any("tracing changed" in m for m in messages),
           f"{workload}: traced/untraced disagreement is a failed check")


def check_missing_sources(benchmark_file):
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchmark_file, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload",
         "pmd_j1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, env={"PATH": "/usr/bin:/bin"})
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without printing a result when sources are missing")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    benchmark_file = run.ROOT / "BENCHMARK.json"
    benchmark = json.loads(benchmark_file.read_text())
    check_metric_names(benchmark)
    binary = run.build_harness()
    spans = run.build_dir() / "spans" / "selftest.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        seed = run.DEFAULT_SEEDS[workload]
        plain = run.run_harness(binary, workload, seed, 0, small=True)
        check_emitted(f"{workload} --trace 0", run.end_to_end_metrics(plain),
                      benchmark["end_to_end"])
        refs = check_checks(workload, plain)
        traced = run.run_harness(binary, workload, seed, 0, spans=spans,
                                 small=True)
        with open(spans) as f:
            layers = run.layer_metrics(traced, json.load(f))
        check_emitted(f"{workload} --trace 1", layers, benchmark["per_layer"])
        attempted, failed, _ = run.check_run(traced, refs)
        expect(attempted == 2 and failed == 0,
               f"{workload}: traced run agrees with its untraced twin")
        check_twin(workload, traced, refs)
        print(f"selftest: {workload} ok", file=sys.stderr)
    check_missing_sources(benchmark_file)
    if FAILURES:
        print(f"selftest: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
