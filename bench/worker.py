"""One cold worker pass: import rankone, run a job's argv lists through `cli.main`, check them.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  The job
arrives as JSON on stdin; the result leaves as one JSON line on stdout.  The
imports below come first and are timed, because a CLI user pays them on every
call.

While the operations run, a speed probe thread times a fixed piece of
pure-Python exact arithmetic every PROBE_INTERVAL_S.  On a shared host the
same pass runs up to twice as slow for seconds to minutes at a time; scaling
each time by the probe's relative speed over the same interval turns it into
reference-speed seconds, which repeat far more closely than wall time (see
README.md).  Wall times are reported alongside.
"""
import sys
import time

T_START = time.perf_counter()
import numpy  # noqa: E402

T_NUMPY = time.perf_counter()
import rankone.cli  # noqa: E402

T_RANKONE = time.perf_counter()

import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402

cli = rankone.cli

PROBE_INTERVAL_S = 0.02
# A latency is scaled by the probe speed over its own interval widened by this
# much on each side; the host's slow and fast phases last a second or more.
PROBE_WINDOW_S = 0.25
# Duration of one probe chunk at reference speed (about the fast phase of a
# 2.1 GHz x86-64 core under CPython 3.11).
PROBE_REFERENCE_S = 2e-4


def probe_chunk():
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return total


class SpeedProbe(threading.Thread):
    """Relative machine speed (reference chunk time / measured chunk time), sampled
    every PROBE_INTERVAL_S until `halt` is set.  Touches nothing in rankone."""

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.times: list[float] = []
        self.speeds: list[float] = []

    def run(self):
        while True:
            start = time.perf_counter()
            probe_chunk()
            self.times.append(start)
            self.speeds.append(PROBE_REFERENCE_S / (time.perf_counter() - start))
            if self.halt.wait(PROBE_INTERVAL_S):
                return

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed of the samples in [start, end]."""
        window = self.speeds[bisect_left(self.times, start):bisect_right(self.times, end)]
        return statistics.fmean(window or self.speeds)


def digest(results) -> str:
    """Short hash of a report's `results` object (JSON) or results rows (CSV)."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_report(text: str, fmt: str):
    """(results, check statuses) of a JSON or CSV report."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["section", "key", "value"]:
            raise ValueError("CSV report without its header row")
        results = [row[1:] for row in rows[1:] if row[0] == "results"]
        statuses = [row[2] for row in rows[1:] if row[0] == "checks"]
        return results, statuses
    doc = json.loads(text)
    return doc["results"], [c["status"] for c in doc["checks"]]


def run_op(argv):
    """Call `cli.main(argv)` as a CLI user would; returns (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse and usage errors exit through parser.exit
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a traceback: the query failed, the pass goes on
        return None, "", f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue().strip()[-200:]


def run_job(job) -> dict:
    ops, verify, reference = job["ops"], job["verify"], job.get("reference", {})
    spans, digests, failures = [], [], []
    attempted = failed = 0

    def fail(argv, why, count=1):
        nonlocal failed
        failed += count
        if len(failures) < 5:
            failures.append(f"{' '.join(argv)}: {why}")

    probe = SpeedProbe()
    probe.start()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for argv in ops:
        begin = time.perf_counter()
        code, text, error = run_op(argv)
        spans.append((begin, time.perf_counter()))
        fmt = "csv" if "csv" in argv else "json"  # no label or number reads "csv"
        try:
            results, statuses = parse_report(text, fmt) if code is not None else (None, [])
        except (ValueError, KeyError, TypeError) as exc:
            results, statuses, error = None, [], error or f"unreadable report: {exc}"
        if verify:
            # every reported check is one operation
            attempted += max(len(statuses), 1)
            not_passed = sum(1 for s in statuses if s != "pass")
            if not_passed:
                fail(argv, f"{not_passed} checks did not pass", not_passed)
            elif code != 0 or not statuses:
                fail(argv, error or f"exit {code}")
            continue
        attempted += 1
        key = " ".join(argv)
        got = digest(results) if results is not None else None
        digests.append(got)
        bad = sum(1 for s in statuses if s == "fail")
        if code != 0 or results is None:
            fail(argv, error or f"exit {code}")
        elif bad:
            fail(argv, f"{bad} failed checks")
        elif key in reference and reference[key] != got:
            fail(argv, "results differ from the reference")
    end = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    probe.halt.set()
    probe.join()
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    w = PROBE_WINDOW_S
    return {"wall_run_s": end - start, "run_s": (end - start) * probe.speed(start, end),
            "wall_latencies_s": [b - a for a, b in spans],
            "latencies_s": [(b - a) * probe.speed(a - w, b + w) for a, b in spans],
            "probe_speed": probe.speed(start, end), "cpu_s": cpu_s,
            "attempted": attempted, "failed": failed, "failures": failures,
            "digests": digests}


def main():
    job = json.loads(sys.stdin.read())
    tracer = None
    missing = []
    if job.get("trace_out"):
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    result = run_job(job) if job["ops"] else {}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace_missing"] = missing
        os.makedirs(os.path.dirname(job["trace_out"]), exist_ok=True)
        tracer.write(job["trace_out"])
    result.update({
        "t_start": T_START, "t_numpy": T_NUMPY, "t_rankone": T_RANKONE,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "rankone": getattr(rankone, "__version__", "unknown"),
        "rankone_file": rankone.__file__,
    })
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
