"""The benchmark's workloads: seeded inputs, one op each, and the op's output check.

Inputs are made here with numpy from the workload seed; the library only
receives them.  Every op of a run repeats one seeded input, so a run is the
median of k repeats.  ``run`` is the timed part and goes through the entry
points a user calls; ``check`` is untimed and validates the outputs without
calling into the library.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

GRID_DIMS = (64, 64)
GRID_SPACING = 1.0 / 16.0
GRID_ORIGIN = tuple(-d * GRID_SPACING / 2.0 for d in GRID_DIMS)
CONVERGE_AXIS = 1
# report keys that carry wall-clock time; they are left out of output digests
TIMING_KEY = re.compile(r"(^|_)(seconds|elapsed|timings?|ms|s)$")


@dataclass(frozen=True)
class Sizes:
    converge_steps: int
    verify_trials: int


FULL = Sizes(converge_steps=2000, verify_trials=1)
# warm-up size, and the size the smoke test runs at
TINY = Sizes(converge_steps=5, verify_trials=1)


@dataclass
class Outcome:
    """Result of one op's output check."""

    ok: bool
    items: int
    digest: bytes = b""
    detail: str = ""
    counts: dict = field(default_factory=dict)


def _fail(detail):
    return Outcome(False, 0, detail=detail)


def canonical_json(payload):
    """Sorted, compact JSON bytes of a report with its timing fields removed."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if not TIMING_KEY.search(str(k))}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(payload), sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def cell_centers(dims, origin, spacing):
    axes = [o + (np.arange(d) + 0.5) * spacing for d, o in zip(dims, origin)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def blob_values(rng, dims=GRID_DIMS, origin=GRID_ORIGIN, spacing=GRID_SPACING, max_blobs=5):
    """Sum of 1..max_blobs disk or box indicators with integer levels 0..8."""
    centers = cell_centers(dims, origin, spacing)
    lo = np.asarray(origin)
    span = np.asarray(dims) * spacing
    values = np.zeros(len(centers))
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        level = float(rng.integers(0, 9))
        if rng.random() < 0.5:
            c = lo + rng.random(len(dims)) * span
            r = (0.1 + 0.3 * rng.random()) * span.min()
            mask = np.sum((centers - c) ** 2, axis=1) <= r * r
        else:
            a = lo + rng.random(len(dims)) * span
            b = lo + rng.random(len(dims)) * span
            mask = np.all((centers >= np.minimum(a, b)) & (centers <= np.maximum(a, b)), axis=1)
        values += level * mask
    return values.reshape(dims)


def write_grd1(path, values, origin=GRID_ORIGIN, spacing=GRID_SPACING):
    header = {"dims": list(values.shape), "origin": list(origin), "spacing": spacing}
    with open(path, "wb") as fh:
        fh.write(b"GRD1\n")
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_grd1(data):
    """Values from GRD1 bytes; raises ValueError on a malformed file."""
    magic, header, payload = data.split(b"\n", 2)
    if magic != b"GRD1":
        raise ValueError("bad GRD1 magic")
    dims = tuple(json.loads(header)["dims"])
    if len(payload) != 8 * int(np.prod(dims)):
        raise ValueError("GRD1 payload has the wrong length")
    return np.frombuffer(payload, dtype="<f8").reshape(dims)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One op kind on one seeded input: ``run`` is timed, ``check`` is not."""

    name = ""

    def __init__(self, sk, seed, workdir):
        self.sk = sk

    def run(self, sizes):
        raise NotImplementedError

    def check(self, out, sizes):
        raise NotImplementedError

    def _cli(self, argv):
        """``symmkit <argv>`` in-process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sk.cli.cli_dispatch(argv)
        return code, out.getvalue(), err.getvalue()


class Converge(Workload):
    """``symmkit converge`` on a seeded 64x64 GRD1 blob function, axis 1."""

    name = "converge"
    LINE = re.compile(r"converge: initial L1 (\S+), final L1 (\S+)")

    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed, workdir)
        self.trace_path = workdir / "converge_trace.csv"
        self.final_path = workdir / "converge_final.grd"
        self.input_path = workdir / "converge_in.grd"
        self.seed = seed
        values = blob_values(np.random.default_rng(seed))
        write_grd1(self.input_path, values)
        self.sorted_input = np.sort(values, axis=None)

    def run(self, sizes):
        return self._cli([
            "converge", "--in", str(self.input_path), "--axis", str(CONVERGE_AXIS),
            "--iters", str(sizes.converge_steps), "--seed", str(self.seed),
            "--out", str(self.trace_path), "--final", str(self.final_path),
        ])

    def check(self, out, sizes):
        code, stdout, stderr = out
        if code != 0:
            return _fail(f"exit {code}: {(stderr or stdout).strip()}")
        match = self.LINE.search(stdout)
        if match is None:
            return _fail(f"no L1 summary in {stdout!r}")
        initial, final = float(match.group(1)), float(match.group(2))
        trace = self.trace_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(trace.decode())))
        if len(rows) != sizes.converge_steps or float(rows[-1]["l1"]) != final:
            return _fail("trace rows disagree with the step count or the final L1")
        if not final <= initial:
            return _fail(f"final L1 {final!r} exceeds initial L1 {initial!r}")
        final_grd = self.final_path.read_bytes()
        values = read_grd1(final_grd)
        if not np.array_equal(np.sort(values, axis=None), self.sorted_input):
            return _fail("final iterate is not equimeasurable with the input")
        l1 = [initial] + [float(r["l1"]) for r in rows]
        changed = sum(a != b for a, b in zip(l1, l1[1:]))
        return Outcome(True, len(rows), trace + final_grd, counts={"rows": len(rows), "changed": changed})


class Verify(Workload):
    """``symmkit verify`` at a seed; items are property trials run."""

    name = "verify"

    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed, workdir)
        self.report_path = workdir / "verify_report.json"
        self.seed = seed

    def run(self, sizes):
        return self._cli([
            "verify", "--trials", str(sizes.verify_trials), "--seed", str(self.seed),
            "--report", str(self.report_path),
        ])

    def check(self, out, sizes):
        code, stdout, stderr = out
        if code != 0:
            return _fail(f"exit {code}: {(stderr or stdout).strip()}")
        report = json.loads(self.report_path.read_text())
        if report.get("all_hold") is not True:
            return _fail(f"all_hold is not true at seed {self.seed}")
        suites = [r for group in ("transformers", "set_maps") for r in report[group].values()]
        trials = sum(p["trials"] for suite in suites for p in suite.values() if p["verdict"] != "skipped")
        return Outcome(True, trials, canonical_json(report))


WORKLOADS = {w.name: w for w in (Converge, Verify)}


def digest_of(outcomes):
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(hashlib.sha256(outcome.digest).digest())
    return h.hexdigest()
