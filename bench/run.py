"""rankone benchmark driver.

    python3 bench/run.py --workload verify-tensor --seed 0 --seconds 40 --trace 0

Runs from the root of a checkout that holds `src/rankone`.  Every pass of the
workload runs in a fresh worker interpreter (bench/worker.py), one at a time,
closed loop with one client: the next operation starts when the previous one
returns.  A fresh worker per pass matters because rankone keeps unbounded
`lru_cache`s and a CLI user starts cold on every call.

--trace 0  prints the end-to-end metrics (BENCHMARK.json `end_to_end`).
           run_s and the query latencies are in reference-speed seconds
           (see worker.py); their wall-clock values are in the provenance.
--trace 1  alternates untraced and traced passes and prints the per-layer
           metrics (BENCHMARK.json `per_layer`); spans of the last traced pass
           are written to .bench_traces/<workload>.tsv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records provenance.  Standard library
only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
REFERENCE = os.path.join(BENCH, "reference.json")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

# Import-only workers started before each pass, so that setup_s is a median
# of many spawns spread over the run.
PROBES_PER_PASS = 2
# Every run, workers included, ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker on `job`; adds the setup timings measured from the spawn."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(job), env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    if not res["rankone_file"].startswith(SRC + os.sep):
        raise BenchError(f"worker imported rankone from {res['rankone_file']}, not {SRC}")
    res["setup"] = {"interpreter_s": res["t_start"] - spawned,
                    "import_numpy_s": res["t_numpy"] - res["t_start"],
                    "import_rankone_s": res["t_rankone"] - res["t_numpy"],
                    "setup_s": res["t_rankone"] - spawned}
    return res


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Passes, each after PROBES_PER_PASS setup probes, while another one still
    fits in `seconds` (untraced and traced alternating when `trace`, at least
    one of each).  Returns (probes, passes)."""
    ops = workloads.plan(workload, seed)
    verify = workload != "cli-queries"
    reference = {}
    if not verify:
        with open(REFERENCE) as fh:
            table = json.load(fh)["digests"]
        reference = {k: table[k] for k in map(" ".join, ops) if k in table}
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    probes, passes = [], []
    while True:
        began = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        job = {"ops": ops, "verify": verify, "reference": reference}
        if traced:
            job["trace_out"] = os.path.join(TRACE_DIR, f"{workload}.tsv")
        probes += [spawn({"ops": []}, deadline) for _ in range(PROBES_PER_PASS)]
        res = spawn(job, deadline)
        res["traced"] = traced
        passes.append(res)
        now = time.perf_counter()
        if trace and len(passes) < 2:
            continue
        if now + (now - began) > start + seconds:
            return probes, passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(probes: list, passes: list) -> dict:
    latencies = [s * 1000 for p in passes for s in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": metric(statistics.median(r["setup"]["setup_s"] for r in probes + passes), "s"),
        "run_s": metric(statistics.median(p["run_s"] for p in passes), "s"),
        "query_p50_ms": metric(quantile(latencies, 50), "ms"),
        "query_p90_ms": metric(quantile(latencies, 90), "ms"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
        "success_rate": metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(probes: list, passes: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name in tracing.SPAN_NAMES:
        calls = {p["trace"]["layers"][name][0] for p in traced}
        if len(calls) != 1:
            print(f"warning: {name}.calls differs between traced passes: {sorted(calls)}",
                  file=sys.stderr)
        out[f"{name}.calls"] = metric(traced[0]["trace"]["layers"][name][0], "count")
        out[f"{name}.self_s"] = metric(
            statistics.median(p["trace"]["layers"][name][1] for p in traced), "s")
    for key in ("interpreter_s", "import_numpy_s", "import_rankone_s"):
        out[f"setup.{key}"] = metric(
            statistics.median(r["setup"][key] for r in probes + passes), "s")
    out["worker.cpu_s"] = metric(statistics.median(p["cpu_s"] for p in plain), "s")
    out["trace.overhead_ratio"] = metric(
        statistics.median(p["run_s"] for p in traced)
        / statistics.median(p["run_s"] for p in plain), "ratio")
    out["trace.coverage_ratio"] = metric(
        statistics.median(p["trace"]["covered_s"] / p["wall_run_s"] for p in traced), "ratio")
    out["wall.run_s"] = metric(statistics.median(p["wall_run_s"] for p in plain), "s")
    out["probe.speed"] = metric(statistics.median(p["probe_speed"] for p in plain), "ratio")
    return out


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def provenance(args, passes: list) -> dict:
    wall = [s * 1000 for p in passes for s in p["wall_latencies_s"]]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "operations_per_pass": len(passes[0]["latencies_s"]),
        "latency_samples": sum(len(p["latencies_s"]) for p in passes),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "rankone": passes[0]["rankone"], "git_sha": git_sha(),
        "wall_run_s": statistics.median(p["wall_run_s"] for p in passes),
        "wall_query_p50_ms": quantile(wall, 50), "wall_query_p90_ms": quantile(wall, 90),
        "probe_speed": statistics.median(p["probe_speed"] for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rankone", "cli.py")):
        print(f"error: no rankone sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        probes, passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in passes:
        for line in p["failures"]:
            print(f"failed: {line}", file=sys.stderr)
        for name in p.get("trace_missing", []):
            print(f"warning: traced function {name} not found", file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = per_layer(probes, passes) if args.trace else end_to_end(probes, passes)
    print(json.dumps({"provenance": provenance(args, passes)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
