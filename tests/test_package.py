"""The package surface: 78 public names, each loaded from its home module on first use,
and the small float constants of the source, each a tolerance, pinned."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symmkit as sk
from symmkit import rearrange

ROOT = Path(__file__).resolve().parents[1]

# symmkit.__all__, with check_laws the one law runner
PUBLIC = """
    AssociatedFunctionPair CANONICAL_MAPS CanonicalMap ChordMovedRegion ConvergenceTrace
    ConvexPolygon DistributionProfile EmptySet Grid GridFunction
    GridSet LP_EXPONENTS MODULUS_MAX_TRIALS MisalignedHyperplane NonConvexColumn NotARearrangement
    OffGrid OrientedHyperplane PLContraction PointwiseTransformer PropertyReport Reflection
    SETMAP_LAWS SetMap SymmkitError TRANSFORMER_LAWS UnknownName axis_plane
    blaschke_composite_set_map boundary_graphs box_raster canonical_contraction canonical_set_map centered_grid
    check_laws chord_move_gridset chord_move_polygon chord_movement_set_map chordmaps
    chordwise_distance classify_rearrangement cog_reflect cog_reflection_set_map contractions
    convex_hull disk_raster distribution errors experiments geometry graph_lengths grid_perimeter
    harness induced_set_map layer_cake_rearrangement modulus_profile near_swap near_swap_set_map
    perimeter_region polarize polarize_set polygon_raster polygons rearrange reflect_grid_function
    reflect_grid_set region_is_convex run_convergence run_gallery run_verify sawtooth_contraction
    schwarz_symmetrize_function schwarz_symmetrize_set set_from_indicator shake_set
    steiner_symmetrize_function steiner_symmetrize_set union_of_translates
""".split()

# what `converge`, `polarize`, `steiner` and `schwarz` load, and nothing more
COMMAND_MODULES = [
    "symmkit", "symmkit.cli", "symmkit.contractions", "symmkit.errors", "symmkit.experiments",
    "symmkit.geometry", "symmkit.gridio", "symmkit.rearrange",
]
# what `verify` and `gallery` load: those and `polygons`, `chordmaps` and `harness`
PROPERTY_MODULES = sorted([*COMMAND_MODULES, "symmkit.chordmaps", "symmkit.harness", "symmkit.polygons"])


def codes_and_modules(body):
    """Exit codes of ``body``'s ``cli_dispatch`` calls in a fresh interpreter, and the symmkit modules it loaded.

    ``body`` runs inside a temporary directory ``tmp`` and appends each exit
    code to ``codes``. A fresh interpreter, so the modules other tests import
    do not count.
    """
    script = (
        "import json, sys, tempfile\n"
        "import numpy as np\n"
        "import symmkit as sk\n"
        "from symmkit import gridio\n"
        "from symmkit.cli import cli_dispatch\n"
        "codes = []\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        + "".join(f"    {line}\n" for line in body)
        + "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'symmkit')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_load_only_their_modules():
    codes, modules = codes_and_modules([
        "path = tmp + '/f.grd'",
        "f = sk.GridFunction(sk.centered_grid((4, 4), 0.5), np.arange(16.0).reshape(4, 4))",
        "gridio.write_grid_function(path, f)",
        "for argv in (['converge', '--axis', '1', '--iters', '5'], ['polarize', '--normal', '0,1'], ['steiner', '--axis', '1']):",
        "    codes.append(cli_dispatch([*argv, '--in', path, '--out', tmp + '/out']))",
        "g = sk.GridFunction(sk.centered_grid((3, 4, 5), 0.5), np.arange(60.0).reshape(3, 4, 5))",
        "gridio.write_grid_function(path, g)",
        "codes.append(cli_dispatch(['schwarz', '--axis', '0', '--in', path, '--out', tmp + '/out']))",
    ])
    assert codes == [0, 0, 0, 0]
    assert modules == COMMAND_MODULES


@pytest.mark.parametrize("command", ["verify", "gallery"])
def test_property_commands_load_only_their_modules(command):
    codes, modules = codes_and_modules(
        [f"codes.append(cli_dispatch(['{command}', '--trials', '1', '--report', tmp + '/report.json']))"]
    )
    assert codes == [0]
    assert modules == PROPERTY_MODULES


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 78
    assert sk.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(sk))


def test_each_name_is_the_object_of_its_home_module():
    for name in PUBLIC:
        home = importlib.import_module(f"symmkit.{sk._HOME[name]}")
        obj = getattr(sk, name)
        if name == sk._HOME[name]:
            assert obj is home
            continue
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sk.no_such_name


def test_name_follows_a_patch_of_its_home_and_the_undo(monkeypatch):
    original = rearrange.polarize

    def patched(f, plane):
        return f

    with monkeypatch.context() as patch:
        patch.setattr(rearrange, "polarize", patched)
        assert sk.polarize is patched
    assert sk.polarize is original


# every float constant of src/symmkit with 0 < |v| < 1e-6, by module: the six
# named *_TOL constants, the harness perimeter's slack, and the polygons
# dominance and raster slacks.  A new tolerance fails here, and a removed one
# is struck from this list in the same change.
SMALL_FLOATS = sorted([
    ("chordmaps", 1e-12), ("chordmaps", 1e-9), ("contractions", 1e-12), ("geometry", 1e-12), ("geometry", 1e-9),
    ("harness", 1e-9), ("polygons", 1e-12), ("polygons", 1e-9), ("polygons", 1e-12),
])


def test_small_float_constants_are_pinned():
    found = []
    for path in sorted((ROOT / "src" / "symmkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-6:
                found.append((path.stem, node.value))
    assert sorted(found) == SMALL_FLOATS
