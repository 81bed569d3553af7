import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symmkit as sk
from symmkit.errors import GalleryMismatch
from symmkit.experiments import (
    draw_polarization_plane,
    run_convergence,
    run_gallery,
    run_verify,
)
from symmkit.harness import random_blob_function

ROOT = Path(__file__).resolve().parents[1]


def test_run_convergence_rejects_zero_iterations():
    f = sk.GridFunction(sk.centered_grid((8,), 0.25), np.arange(8.0))
    with pytest.raises(ValueError):
        run_convergence(f, 0, 0)


@pytest.mark.parametrize("run", [run_verify, run_gallery])
def test_zero_trials_rejected(run):
    with pytest.raises(ValueError):
        run(trials=0)


def test_symmetric_input_all_distances_zero():
    g = sk.centered_grid((8,), 0.25)
    f = sk.steiner_symmetrize_function(
        sk.GridFunction(g, np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])), 0
    )
    trace = run_convergence(f, 0, 50, seed=2)
    assert trace.initial_l1 == 0.0
    assert all(row["l1"] == 0.0 for row in trace.rows)


def test_1d_fixture_reaches_target_exactly():
    g = sk.Grid((8,), (-1.0,), 0.25)
    f = sk.GridFunction(g, np.array([0.0, 0.0, 7.0, 1.0, 3.0, 0.0, 2.0, 0.0]))
    trace = run_convergence(f, 0, 300, seed=5)
    assert trace.final_l1 == 0.0
    assert trace.final == sk.steiner_symmetrize_function(f, 0)


def test_every_iterate_equimeasurable_and_trace_shape():
    g = sk.centered_grid((16, 16), 0.25)
    f = random_blob_function(np.random.default_rng(5), g)
    trace = run_convergence(f, 1, 40, seed=9)
    assert len(trace.rows) == 40
    assert all(row["l1"] >= 0.0 for row in trace.rows)
    assert sk.distribution(trace.final) == sk.distribution(f)


def test_drawn_planes_admissible_and_oriented_toward_center():
    g = sk.centered_grid((16, 16), 0.25)
    rng = np.random.default_rng(3)
    for _ in range(100):
        plane = draw_polarization_plane(g, 1, rng)
        # admissible: reflection maps the lattice to itself
        sk.reflect_grid_function(sk.GridFunction(g, np.zeros(g.dims)), plane)
        # oriented so the positive side contains the grid's central plane
        assert plane.signed(np.asarray(g.center)) >= 0.0


def test_trace_csv_deterministic(tmp_path):
    g = sk.centered_grid((8, 8), 0.5)
    f = random_blob_function(np.random.default_rng(11), g)
    t1 = run_convergence(f, 1, 25, seed=13)
    t2 = run_convergence(f, 1, 25, seed=13)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "k,l1,linf,normal,offset"


def test_verify_battery_all_hold():
    report, all_hold = run_verify(trials=25, seed=3)
    assert all_hold
    assert report["all_hold"]
    assert set(report["transformers"]) == {
        "two_point",
        "reflection",
        "identity",
        "two_point_reflected",
    }
    for checks in report["transformers"].values():
        assert all(r["verdict"] == "holds" for r in checks.values())


@pytest.mark.parametrize("seed", [7, 311])
def test_verify_work_per_trial(seed):
    # one trial of every suite: f, the monotone bump and the L^p partner are
    # drawn once for all four transformers (3 draws, one trial_rng), with one
    # distribution(f) and one modulus_profile(f); each Tf adds a
    # distribution and, but for the identity's (Tf equals f), a
    # modulus_profile; the set-map laws take 8 draws and 14 trial_rng calls,
    # and each of the 7 images the polarization set map makes there is
    # polarize read on an indicator
    from symmkit import geometry, harness, rearrange

    watched = {
        harness.random_blob_function.__code__: "random_blob_function",
        geometry.Reflection.__init__.__code__: "Reflection",
        rearrange.polarize.__code__: "polarize",
        harness.trial_rng.__code__: "trial_rng",
        harness.modulus_profile.__code__: "modulus_profile",
        geometry.distribution.__code__: "distribution",
    }
    calls = dict.fromkeys(watched.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        run_verify(trials=1, seed=seed)
    finally:
        sys.setprofile(None)
    assert calls == {
        "random_blob_function": 11,
        "Reflection": 18,
        "polarize": 10,
        "trial_rng": 15,
        "modulus_profile": 4,
        "distribution": 5,
    }


def test_gallery_matches_expected_matrix():
    summary = run_gallery(seed=7, trials=15)
    assert summary["all_match"]
    names = [row["example"] for row in summary["rows"]]
    assert names == [
        "sawtooth_chord_movement",
        "shake_after_polarization",
        "cog_reflection",
        "near_boundary_swap",
    ]
    by_name = {row["example"]: row for row in summary["rows"]}
    saw = by_name["sawtooth_chord_movement"]
    assert saw["checks"]["canonical_four_match"] == "fails"
    assert saw["checks"]["perimeter_convex"] == "holds"
    assert by_name["cog_reflection"]["checks"]["monotonic_on_cone_pair"] == "fails"
    assert by_name["near_boundary_swap"]["checks"]["perimeter_on_straddling_square"] == "fails"


@pytest.mark.parametrize("seed", [7, 2024])
def test_gallery_checks_pin_expected_matrix(seed):
    import symmkit.experiments as ex

    summary = run_gallery(seed=seed, trials=20)
    got = [(row["example"], list(row["checks"].items())) for row in summary["rows"]]
    want = [(example, list(expected.items())) for example, _, expected, _ in ex.GALLERY_ROWS]
    assert got == want


def test_gallery_strict_raises_on_tampered_expectation(monkeypatch):
    import symmkit.experiments as ex

    rows = [
        (example, set_map, {**expected, "measure_preserving": "fails"}, check)
        if example == "cog_reflection"
        else (example, set_map, expected, check)
        for example, set_map, expected, check in ex.GALLERY_ROWS
    ]
    monkeypatch.setattr(ex, "GALLERY_ROWS", tuple(rows))
    with pytest.raises(GalleryMismatch) as info:
        ex.run_gallery(seed=1, trials=2)
    bad = [row["example"] for row in info.value.summary["rows"] if not row["match"]]
    assert bad == ["cog_reflection"]


def test_verify_imports_no_thread_pool_or_masked_arrays():
    # a fresh interpreter: the modules other tests import do not count
    script = (
        "import sys\n"
        "import symmkit.cli\n"
        "from symmkit.experiments import run_verify\n"
        "run_verify(trials=1)\n"
        "print(sorted({'concurrent.futures', 'numpy.ma'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
