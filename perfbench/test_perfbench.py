"""Smoke test of the benchmark's own code at tiny sizes: a few steps, 1 trial, 100 samples."""

import json
import sys

import pytest

import run
from workloads import TINY, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def restore_symmkit_modules():
    """The benchmark re-imports symmkit; give other tests back the modules they imported."""
    saved = {k: m for k, m in sys.modules.items() if k == "symmkit" or k.startswith("symmkit.")}
    yield
    for k in [k for k in sys.modules if k == "symmkit" or k.startswith("symmkit.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_its_checks(name, trace, tmp_path):
    result, report, _ = run.run_workload(name, seed=0, seconds=0, trace=trace, sizes=TINY, out_dir=tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and report["fail_ratio"] == 0.0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{name}-seed0.csv").stat().st_size > 0
    else:
        assert report["op_samples"] >= run.MIN_OPS


def test_same_seed_gives_bit_identical_outputs(tmp_path):
    digests = {run.run_workload("converge", 3, 0, 0, TINY, tmp_path)[1]["outputs_sha256"] for _ in range(2)}
    assert len(digests) == 1
