"""symmkit benchmark: one seeded workload, closed loop, one client in one process.

    python3 perfbench/run.py --workload converge --seed 0 --seconds 50 --trace 0

Run from the root of a symmkit checkout; the library is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics untraced.
``--trace 1`` alternates untraced and traced runs of each op and reports the
per-layer metrics, the tracing overhead among them.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FULL, TINY, WORKLOADS, Outcome, digest_of  # noqa: E402

SETUP_REPEATS = 3  # before the measurement, and again after it
MIN_OPS = 11  # the smallest sample with a percentile that has ten samples beyond it
DIGEST_OPS = MIN_OPS
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SANDBOX = "shared cores; no CPU pinning; no cache dropping; wall-clock timing"


class SetupError(Exception):
    """The checkout does not provide symmkit from its own src/."""


def import_symmkit():
    """A fresh import of symmkit from this checkout's src/, every module reloaded."""
    for name in [m for m in sys.modules if m == "symmkit" or m.startswith("symmkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("symmkit")
        importlib.import_module("symmkit.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import symmkit from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"symmkit was imported from {package.__file__}, not from {SRC}")
    return package


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(symmkit_threads):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "SYMMKIT_THREADS": symmkit_threads,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "sandbox": SANDBOX,
        "loop": "closed loop: one client in one process; each op starts when the previous one ends",
    }


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def set_up(name, seed, workdir):
    """Import, input generation and a tiny warm-up op, repeated; (workload, seconds of each)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](import_symmkit(), seed, workdir)
        workload.run(TINY)
        times.append(time.perf_counter() - start)
    return workload, times


def failure(exc):
    return Outcome(False, 0, detail=f"{type(exc).__name__}: {exc}")


def timed_op(workload, sizes, call):
    """Time ``call(sizes)`` and check its output; (seconds, Outcome).  Errors are failures."""
    start = time.perf_counter()
    try:
        out = call(sizes)
    except Exception as exc:  # a failed op, recorded and counted
        return time.perf_counter() - start, failure(exc)
    latency = time.perf_counter() - start
    try:
        return latency, workload.check(out, sizes)
    except (ValueError, KeyError, OSError) as exc:  # missing or malformed output files
        return latency, failure(exc)


def measure(workload, seconds, sizes, tracer=None):
    """Closed loop for ``seconds`` and at least MIN_OPS ops (one op when traced).

    With a tracer, each op runs untraced and then traced, and the two
    outputs must agree.
    """
    plain, traced, outcomes = [], [], []
    min_ops = MIN_OPS if tracer is None else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        latency, outcome = timed_op(workload, sizes, workload.run)
        plain.append(latency)
        outcomes.append(outcome)
        if tracer is not None:
            tracer.install(workload.sk)
            try:
                latency, again = timed_op(workload, sizes, lambda s: tracer.root(i, workload.run, s))
            finally:
                tracer.uninstall()
            traced.append(latency)
            if again.ok and outcome.ok and again.digest != outcome.digest:
                again.ok, again.detail = False, "traced output differs from the untraced output"
            outcomes.append(again)
        i += 1
    return plain, traced, outcomes


def run_workload(name, seed, seconds, trace, sizes=FULL, out_dir=OUT):
    """One benchmark run; returns (result line dict, report dict).  Spans go to ``out_dir``."""
    symmkit_threads = os.environ.pop("SYMMKIT_THREADS", None)
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{name}-") as tmp:
        workload, setup_times = set_up(name, seed, Path(tmp))
        tracer = Tracer() if trace else None
        plain, traced, outcomes = measure(workload, seconds, sizes, tracer)
        if not trace:
            # set-up takes a fraction of a second, so also sample the host after the run
            setup_times += set_up(name, seed, Path(tmp))[1]
    failed = [o for o in outcomes if not o.ok]
    untraced = outcomes[::2] if trace else outcomes
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "sizes": dataclasses.asdict(sizes),
        "ops": len(plain),
        "fail_ratio": len(failed) / len(outcomes),
        "failures": [o.detail for o in failed[:5]],
        "outputs_sha256": digest_of(untraced[:DIGEST_OPS]),
        "outputs_sha256_ops": len(untraced[:DIGEST_OPS]),
        "provenance": provenance(symmkit_threads),
    }
    if trace:
        converge = {"rows": 0, "changed": 0}
        for outcome in outcomes[1::2]:
            for key in converge:
                converge[key] += outcome.counts.get(key, 0)
        overhead_ms = 1e3 * (statistics.median(traced) - statistics.median(plain))
        threads = workload.sk.experiments.worker_count()
        metrics = layer_metrics(tracer, len(traced), threads, converge, overhead_ms)
        self_by_layer = {k[: -len(".self_ms")]: v for k, (v, _) in metrics.items() if k.endswith(".self_ms")}
        report["top_layer"] = max(self_by_layer, key=self_by_layer.get)
        report["traced_op_p50_ms"] = 1e3 * statistics.median(traced)
        report["untraced_op_p50_ms"] = 1e3 * statistics.median(plain)
        spans_path = out_dir / f"spans-{name}-seed{seed}.csv"
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        items = sum(o.items for o in outcomes if o.ok)
        tail_ms, tail_pct = tail(plain)
        metrics = {
            "items_per_s": (items / sum(plain), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(plain), "ms"),
            "op_tail_ms": (1e3 * tail_ms, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["op_tail_percentile"] = tail_pct
        report["op_samples"] = len(plain)
        report["items"] = items
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report, [1e3 * t for t in plain]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report, latencies = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"report": report, "result": result, "latencies_ms": latencies}, fh, indent=2, sort_keys=True)
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    print("fail_ratio =", report["fail_ratio"])
    print("report", json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
