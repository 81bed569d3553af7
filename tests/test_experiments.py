import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from map_helpers import MEAN

import symmkit as sk
from symmkit.errors import GalleryMismatch
from symmkit.experiments import draw_polarization_plane, run_convergence
from symmkit.chordmaps import canonical_set_map, cog_reflection_set_map
from symmkit.harness import (
    SETMAP_LAWS,
    TRANSFORMER_LAWS,
    check_laws,
    random_blob_function,
    run_gallery,
    run_verify,
    trial_rng,
)

ROOT = Path(__file__).resolve().parents[1]


def test_run_convergence_rejects_zero_iterations():
    f = sk.GridFunction(sk.centered_grid((8,), 0.25), np.arange(8.0))
    with pytest.raises(ValueError):
        run_convergence(f, 0, 0)


@pytest.mark.parametrize("iterations", [2.7, 2.0, float("inf"), "3", None])
def test_run_convergence_rejects_a_non_integer_count(iterations):
    # 2.7 used to run 2 steps, and inf raised OverflowError
    f = sk.GridFunction(sk.centered_grid((8,), 0.25), np.arange(8.0))
    with pytest.raises(ValueError, match="iteration count must be an integer"):
        run_convergence(f, 0, iterations)


def test_run_convergence_takes_a_numpy_integer_count():
    f = sk.GridFunction(sk.centered_grid((8,), 0.25), np.arange(8.0))
    assert len(run_convergence(f, 0, np.int64(3)).rows) == 3


def _cell_copied(f, plane):
    # the top value written over the first cell: the set of values stays, their counts do not
    values = f.values.copy()
    values.flat[0] = values.max()
    return f.with_values(values)


def _permuted(f, plane):
    return f.with_values(f.values[::-1])


def _zeros_negated(f, plane):
    # -0.0 and 0.0 are one value in a distribution profile
    return f.with_values(np.where(f.values == 0.0, -0.0, f.values)[::-1])


@pytest.mark.parametrize("step, breaks", [(_cell_copied, True), (_permuted, False), (_zeros_negated, False)])
def test_profile_guard_catches_a_step_that_changes_a_value(monkeypatch, step, breaks):
    from symmkit import experiments

    f = random_blob_function(trial_rng(61, 0), sk.centered_grid((8, 8), 0.5))
    assert f.values.flat[0] == f.values.min() == 0.0 < f.values.max()
    monkeypatch.setattr(experiments, "polarize", step)
    if breaks:
        with pytest.raises(AssertionError, match="iterate lost the distribution profile"):
            run_convergence(f, 1, 3)
    else:
        assert len(run_convergence(f, 1, 3).rows) == 3


PLANE = sk.axis_plane(1, 2, 0.0, 1)


def _transformer_laws(trials):
    return check_laws(TRANSFORMER_LAWS, {"mean": sk.PointwiseTransformer(MEAN, PLANE)}, trials)


def _capped_transformer_law(trials):
    # the modulus law's cap is applied after the count is checked
    return check_laws(TRANSFORMER_LAWS, {"identity": lambda f: f}, trials, laws=["modulus_reducing"])


def _skipped_setmap_law(trials):
    # no plane: the count is checked before the law is skipped for want of one
    return check_laws(SETMAP_LAWS, {"cog": cog_reflection_set_map(u_axis=1)}, trials, laws=["symmetric_invariant"])


def _setmap_laws(trials):
    return check_laws(SETMAP_LAWS, {"identity": canonical_set_map("identity", PLANE)}, trials)


@pytest.mark.parametrize("trials", [0, -3, 2.5])
@pytest.mark.parametrize(
    "run", [run_verify, run_gallery, _transformer_laws, _capped_transformer_law, _skipped_setmap_law, _setmap_laws]
)
def test_zero_trials_rejected(run, trials):
    # a count below 1 used to report every law as "holds" on no trials, and
    # 2.5 raised TypeError from range
    with pytest.raises(ValueError, match="trial count"):
        run(trials=trials)


def test_symmetric_input_all_distances_zero():
    g = sk.centered_grid((8,), 0.25)
    f = sk.steiner_symmetrize_function(
        sk.GridFunction(g, np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])), 0
    )
    trace = run_convergence(f, 0, 50, seed=2)
    assert trace.initial_l1 == 0.0
    assert all(row["l1"] == 0.0 for row in trace.rows)
    assert trace.target_step == 1


def test_1d_fixture_reaches_target_exactly():
    g = sk.Grid((8,), (-1.0,), 0.25)
    f = sk.GridFunction(g, np.array([0.0, 0.0, 7.0, 1.0, 3.0, 0.0, 2.0, 0.0]))
    trace = run_convergence(f, 0, 300, seed=5)
    assert trace.final_l1 == 0.0
    assert trace.final == sk.steiner_symmetrize_function(f, 0)


def test_target_step_is_the_first_row_at_the_target():
    # the golden converge input: 200 steps fall short of the target, which
    # the same rng stream reaches at step 213
    f = random_blob_function(trial_rng(4242, 0), sk.centered_grid((64, 64), 1.0 / 16.0))
    assert run_convergence(f, 1, 200, seed=5).target_step is None
    trace = run_convergence(f, 1, 300, seed=5)
    assert trace.target_step == 213
    assert [row["k"] for row in trace.rows if row["l1"] == 0.0] == list(range(213, 301))
    assert trace.final == sk.steiner_symmetrize_function(f, 1)


def test_central_plane_oriented_by_lattice_index():
    # the central plane's offset rounds to 0.30999999999999994, an ulp past
    # the rounded center 0.3099999999999999; oriented by that float test it
    # pointed away from the center, and f never moved from [1, 0]
    g = sk.Grid((2,), (-0.39,), 0.7)
    trace = run_convergence(sk.GridFunction(g, np.array([1.0, 0.0])), 0, 400)
    assert trace.final.values.tolist() == [0.0, 1.0]
    assert trace.final_l1 == 0.0


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


def calls_made(watched, run):
    """Calls of each watched function while ``run()`` runs, by name; ``watched`` maps code objects to names."""
    calls = dict.fromkeys(watched.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_converge_work_per_step():
    # one reflection plan and one polarize per step, and no distribution
    # profile: the per-step guard compares sorted values. Each step's new
    # plane builds its own plan.
    from symmkit import geometry, rearrange

    watched = {
        geometry.Reflection.__init__.__code__: "Reflection",
        rearrange.polarize.__code__: "polarize",
        geometry.distribution.__code__: "distribution",
    }
    f = random_blob_function(trial_rng(67, 0), sk.centered_grid((16, 16), 0.25))
    calls = calls_made(watched, lambda: run_convergence(f, 1, 50))
    assert calls == {"Reflection": 50, "polarize": 50, "distribution": 0}


@pytest.mark.parametrize("seed", [7, 311])
def test_verify_work_per_trial(seed):
    # one trial of every suite, each catalog on one trial_rng: f, the
    # monotone bump and the L^p partner are drawn once for all four
    # transformers (3 draws), with one distribution(f) and one
    # modulus_profile(f); each Tf adds a distribution and, but for the
    # identity's (Tf equals f), a modulus_profile. The two set maps share one
    # domain and plane, so each input is drawn once for both: the nested
    # pair, the sample (read by two laws) and the symmetric set take 3 draws.
    # Every mirror read goes through the plane's kept plan, and verify reads
    # one plane on one grid: the four rows read f, the bumped f and the
    # partner (12 kernel calls), the two set maps make 7 images each (14
    # kernel calls), and the one symmetric set takes a mirror read, all on 1
    # plan
    from symmkit import geometry, harness, rearrange

    watched = {
        harness.random_blob_function.__code__: "random_blob_function",
        geometry.Reflection.__init__.__code__: "Reflection",
        rearrange.PointwiseTransformer.__call__.__code__: "kernel",
        harness.trial_rng.__code__: "trial_rng",
        harness.modulus_profile.__code__: "modulus_profile",
        geometry.distribution.__code__: "distribution",
    }
    assert calls_made(watched, lambda: run_verify(trials=1, seed=seed)) == {
        "random_blob_function": 6,
        "Reflection": 1,
        "kernel": 26,
        "trial_rng": 2,
        "modulus_profile": 4,
        "distribution": 5,
    }


def test_gallery_builds_one_plan():
    # every row reads the one gallery plane on the one grid: the composite's
    # polarization, the near swap, the symmetric rasters and the classifier
    from symmkit import geometry

    watched = {geometry.Reflection.__init__.__code__: "Reflection"}
    assert calls_made(watched, lambda: run_gallery(seed=7, trials=15)) == {"Reflection": 1}


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
    from symmkit import harness

    summary = run_gallery(seed=seed, trials=20)
    got = [(row["example"], list(row["checks"].items())) for row in summary["rows"]]
    want = [(example, list(expected.items())) for example, _, expected, _ in harness.GALLERY_ROWS]
    assert got == want


def test_gallery_strict_raises_on_tampered_expectation(monkeypatch):
    from symmkit import harness

    rows = [
        (example, set_map, {**expected, "measure_preserving": "fails"}, check)
        if example == "cog_reflection"
        else (example, set_map, expected, check)
        for example, set_map, expected, check in harness.GALLERY_ROWS
    ]
    monkeypatch.setattr(harness, "GALLERY_ROWS", tuple(rows))
    with pytest.raises(GalleryMismatch) as info:
        harness.run_gallery(seed=1, trials=2)
    bad = [row["example"] for row in info.value.summary["rows"] if not row["match"]]
    assert bad == ["cog_reflection"]


def test_verify_imports_no_thread_pool_or_masked_arrays():
    # a fresh interpreter: the modules other tests import do not count
    script = (
        "import sys\n"
        "import symmkit.cli\n"
        "from symmkit.harness import run_verify\n"
        "run_verify(trials=1)\n"
        "print(sorted({'concurrent.futures', 'numpy.ma'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
