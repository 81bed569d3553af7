import json
import os
import threading

import numpy as np
import pytest

import symmkit as sk
from symmkit import gridio
from symmkit.cli import cli_dispatch
from symmkit.harness import random_blob_function, trial_rng


@pytest.fixture
def sample_grd(tmp_path):
    f = random_blob_function(trial_rng(71, 0), sk.centered_grid((16, 16), 0.25))
    path = tmp_path / "f.grd"
    gridio.write_grid_function(path, f)
    return path, f


def test_polarize_roundtrip(tmp_path, sample_grd):
    path, f = sample_grd
    out = tmp_path / "g.grd"
    status = cli_dispatch(
        ["polarize", "--in", str(path), "--normal", "0,1", "--offset", "0",
         "--positive", "+", "--out", str(out)]
    )
    assert status == 0
    expect = sk.polarize(f, sk.axis_plane(1, 2, 0.0, 1))
    assert gridio.read_grid_function(out) == expect


def test_polarize_negative_side(tmp_path, sample_grd):
    path, f = sample_grd
    out = tmp_path / "g.grd"
    assert cli_dispatch(
        ["polarize", "--in", str(path), "--normal", "0,1", "--offset", "0",
         "--positive", "-", "--out", str(out)]
    ) == 0
    expect = sk.polarize(f, sk.axis_plane(1, 2, 0.0, -1))
    assert gridio.read_grid_function(out) == expect


def test_steiner(tmp_path, sample_grd):
    path, f = sample_grd
    out = tmp_path / "s.grd"
    assert cli_dispatch(["steiner", "--in", str(path), "--axis", "1", "--out", str(out)]) == 0
    assert gridio.read_grid_function(out) == sk.steiner_symmetrize_function(f, 1)


def test_schwarz(tmp_path):
    g = sk.centered_grid((4, 8, 8), 0.5)
    rng = trial_rng(73, 0)
    a = sk.GridSet(g, rng.random(g.dims) < 0.3)
    path = tmp_path / "a.grd"
    gridio.write_grid_set(path, a)
    out = tmp_path / "b.grd"
    assert cli_dispatch(["schwarz", "--in", str(path), "--axis", "0", "--out", str(out)]) == 0
    assert gridio.read_grid_set(out) == sk.schwarz_symmetrize_set(a, 0)


def test_converge_rejects_zero_iters(tmp_path, sample_grd):
    path, _ = sample_grd
    argv = ["converge", "--in", str(path), "--axis", "1", "--iters", "0", "--out", str(tmp_path / "t.csv")]
    assert cli_dispatch(argv) == 2


@pytest.mark.parametrize("axis", ["2", "-1"])
@pytest.mark.parametrize("command", ["steiner", "converge"])
def test_axis_out_of_range_exit_2(tmp_path, sample_grd, capsys, command, axis):
    path, _ = sample_grd
    argv = [command, "--in", str(path), "--axis", axis, "--out", str(tmp_path / "o")]
    if command == "converge":
        argv += ["--iters", "3"]
    assert cli_dispatch(argv) == 2
    assert f"axis {axis} is outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["2", "-1"])
def test_chordmap_axis_out_of_range_exit_2(tmp_path, capsys, axis):
    apath = tmp_path / "a.grd"
    gridio.write_grid_set(apath, sk.disk_raster(sk.centered_grid((16, 16), 0.25), (0.0, -1.0), 0.7))
    cpath = tmp_path / "phi.json"
    gridio.write_contraction(cpath, sk.canonical_contraction("abs", 8.0))
    argv = ["chordmap", "--in", str(apath), "--contraction", str(cpath), "--axis", axis,
            "--out", str(tmp_path / "b.grd")]
    assert cli_dispatch(argv) == 2
    assert f"axis {axis} is outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["3", "-1"])
def test_schwarz_axis_out_of_range_exit_2(tmp_path, capsys, axis):
    g = sk.centered_grid((4, 8, 8), 0.5)
    path = tmp_path / "a.grd"
    gridio.write_grid_set(path, sk.GridSet(g, trial_rng(73, 0).random(g.dims) < 0.3))
    argv = ["schwarz", "--in", str(path), "--axis", axis, "--out", str(tmp_path / "b.grd")]
    assert cli_dispatch(argv) == 2
    assert f"axis {axis} is outside 0..2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "gallery"])
def test_zero_trials_exit_2(tmp_path, capsys, command):
    report = tmp_path / "r.json"
    assert cli_dispatch([command, "--trials", "0", "--report", str(report)]) == 2
    assert "trial count" in capsys.readouterr().err
    assert not report.exists()


def test_converge_rejects_missing_input(tmp_path):
    argv = ["converge", "--in", str(tmp_path / "missing.grd"), "--axis", "1", "--iters", "3",
            "--out", str(tmp_path / "t.csv")]
    assert cli_dispatch(argv) == 2


@pytest.mark.parametrize(
    "header", [{"origin": [0.0], "spacing": 1.0}, {"dims": 5, "origin": [0.0], "spacing": 1.0}]
)
def test_malformed_grd1_exit_2(tmp_path, capsys, header):
    path = tmp_path / "bad.grd"
    path.write_bytes(b"GRD1\n" + json.dumps(header).encode() + b"\n" + np.zeros(5).tobytes())
    argv = ["steiner", "--in", str(path), "--axis", "0", "--out", str(tmp_path / "o.grd")]
    assert cli_dispatch(argv) == 2
    assert "GRD1 header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, dims, spacing",
    [
        # every cell center past the second would be inf, its lattice error NaN
        (["polarize", "--normal", "1", "--offset", "1e308", "--positive", "-"], [10], 1e308),
        # cell volume 1e400, past the float range
        (["converge", "--axis", "1", "--iters", "3"], [4, 4], 1e200),
    ],
)
def test_grid_past_the_float_range_exit_2(tmp_path, capsys, command, dims, spacing):
    header = {"dims": dims, "origin": [0.0] * len(dims), "spacing": spacing}
    path = tmp_path / "wide.grd"
    path.write_bytes(b"GRD1\n" + json.dumps(header).encode() + b"\n" + np.arange(float(np.prod(dims))).tobytes())
    out = tmp_path / "o.out"
    argv = [command[0], "--in", str(path), *command[1:], "--out", str(out)]
    assert cli_dispatch(argv) == 2
    assert "far corner and cell volume" in capsys.readouterr().err
    assert not out.exists()


def test_grd1_header_larger_than_file_exit_2(tmp_path, capsys):
    # 8e18 payload bytes: refused from the file size, never read or allocated
    header = {"dims": [10**6] * 3, "origin": [0.0] * 3, "spacing": 1.0}
    path = tmp_path / "huge.grd"
    path.write_bytes(b"GRD1\n" + json.dumps(header).encode() + b"\n")
    argv = ["steiner", "--in", str(path), "--axis", "0", "--out", str(tmp_path / "o.grd")]
    assert cli_dispatch(argv) == 2
    assert "GRD1 payload truncated" in capsys.readouterr().err
    assert not (tmp_path / "o.grd").exists()


def test_grd1_header_longer_than_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "long.grd"
    path.write_bytes(b"GRD1\n" + b" " * gridio.HEADER_LIMIT + b'{"dims": [1], "origin": [0.0], "spacing": 1.0}\n')
    argv = ["steiner", "--in", str(path), "--axis", "0", "--out", str(tmp_path / "o.grd")]
    assert cli_dispatch(argv) == 2
    assert f"no newline within {gridio.HEADER_LIMIT} bytes" in capsys.readouterr().err
    assert not (tmp_path / "o.grd").exists()


def test_grd1_header_nested_too_deeply_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.grd"
    path.write_bytes(b"GRD1\n" + b"[" * 30000 + b"\n")
    argv = ["steiner", "--in", str(path), "--axis", "0", "--out", str(tmp_path / "o.grd")]
    assert cli_dispatch(argv) == 2
    assert "GRD1 header is nested too deeply" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
@pytest.mark.parametrize(
    "side",
    [
        10**6,  # 8e18 payload bytes, below sys.maxsize: one read would raise MemoryError
        10**7,  # 8e21 payload bytes, past sys.maxsize: one read would raise OverflowError
    ],
)
def test_grd1_stream_shorter_than_header_exit_2(tmp_path, capsys, side):
    header = {"dims": [side] * 3, "origin": [0.0] * 3, "spacing": 1.0}
    stream = b"GRD1\n" + json.dumps(header).encode() + b"\n" + np.zeros(2).tobytes()
    fifo = tmp_path / "in.grd"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:  # blocks until the reader opens the pipe
            fh.write(stream)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    argv = ["steiner", "--in", str(fifo), "--axis", "0", "--out", str(tmp_path / "o.grd")]
    assert cli_dispatch(argv) == 2
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert "GRD1 payload truncated" in capsys.readouterr().err
    assert not (tmp_path / "o.grd").exists()


@pytest.mark.parametrize("broken", ["polygon", "contraction"])
def test_chordmap_malformed_json_exit_2(tmp_path, capsys, broken):
    ppath, cpath = tmp_path / "k.json", tmp_path / "phi.json"
    gridio.write_polygon(ppath, sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]]))
    gridio.write_contraction(cpath, sk.canonical_contraction("abs", 8.0))
    (ppath if broken == "polygon" else cpath).write_text("{}")
    argv = ["chordmap", "--in", str(ppath), "--contraction", str(cpath), "--normal", "0,1",
            "--out", str(tmp_path / "region.json")]
    assert cli_dispatch(argv) == 2
    assert f"{broken} has no" in capsys.readouterr().err


def test_chordmap_polygon_nested_too_deeply_exit_2(tmp_path, capsys):
    ppath, cpath = tmp_path / "k.json", tmp_path / "phi.json"
    ppath.write_text("[" * 30000)
    gridio.write_contraction(cpath, sk.canonical_contraction("abs", 8.0))
    argv = ["chordmap", "--in", str(ppath), "--contraction", str(cpath), "--normal", "0,1",
            "--out", str(tmp_path / "region.json")]
    assert cli_dispatch(argv) == 2
    assert "polygon is nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_chordmap_non_finite_vertex_exit_2(tmp_path, capsys, bad):
    ppath, cpath = tmp_path / "k.json", tmp_path / "phi.json"
    ppath.write_text(f'{{"vertices": [[0.0, 0.0], [2.0, 0.0], [1.0, {bad}]]}}')
    gridio.write_contraction(cpath, sk.canonical_contraction("abs", 8.0))
    argv = ["chordmap", "--in", str(ppath), "--contraction", str(cpath), "--normal", "0,1",
            "--out", str(tmp_path / "region.json")]
    assert cli_dispatch(argv) == 2
    assert "polygon vertices must be finite" in capsys.readouterr().err
    assert not (tmp_path / "region.json").exists()


def test_chordmap_grid_mode(tmp_path):
    g = sk.centered_grid((16, 16), 0.25)
    a = sk.disk_raster(g, (0.0, -1.0), 0.7)
    apath = tmp_path / "a.grd"
    gridio.write_grid_set(apath, a)
    cpath = tmp_path / "phi.json"
    gridio.write_contraction(cpath, sk.canonical_contraction("abs", 8.0))
    out = tmp_path / "b.grd"
    status = cli_dispatch(
        ["chordmap", "--in", str(apath), "--contraction", str(cpath), "--axis", "1",
         "--out", str(out)]
    )
    assert status == 0
    expect = sk.chord_move_gridset(a, sk.canonical_contraction("abs", 8.0), 1)
    assert gridio.read_grid_set(out) == expect


def test_chordmap_polygon_mode(tmp_path):
    poly = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    ppath = tmp_path / "k.json"
    gridio.write_polygon(ppath, poly)
    cpath = tmp_path / "phi.json"
    gridio.write_contraction(cpath, sk.sawtooth_contraction(1.0, 8.0))
    out = tmp_path / "region.json"
    status = cli_dispatch(
        ["chordmap", "--in", str(ppath), "--contraction", str(cpath),
         "--normal", "0,1", "--out", str(out)]
    )
    assert status == 0
    region = gridio.read_region(out)
    expect = sk.chord_move_polygon(poly, sk.sawtooth_contraction(1.0, 8.0), (0.0, 1.0))
    assert np.array_equal(region.xs, expect.xs)


def test_verify_writes_report_and_exits_zero(tmp_path):
    report = tmp_path / "r.json"
    status = cli_dispatch(["verify", "--trials", "10", "--seed", "7", "--report", str(report)])
    assert status == 0
    payload = json.loads(report.read_text())
    assert payload["all_hold"] is True


def test_converge_trace(tmp_path, sample_grd):
    path, f = sample_grd
    trace = tmp_path / "t.csv"
    final = tmp_path / "final.grd"
    status = cli_dispatch(
        ["converge", "--in", str(path), "--axis", "1", "--iters", "30", "--seed", "5",
         "--out", str(trace), "--final", str(final)]
    )
    assert status == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,l1,linf,normal,offset"
    assert len(lines) == 31
    out = gridio.read_grid_function(final)
    assert sk.distribution(out) == sk.distribution(f)


def test_converge_deterministic(tmp_path, sample_grd):
    path, _ = sample_grd
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for t in (t1, t2):
        assert cli_dispatch(
            ["converge", "--in", str(path), "--axis", "1", "--iters", "20",
             "--seed", "5", "--out", str(t)]
        ) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_gallery_report(tmp_path):
    report = tmp_path / "g.json"
    status = cli_dispatch(["gallery", "--report", str(report), "--trials", "8"])
    assert status == 0
    payload = json.loads(report.read_text())
    assert payload["all_match"] is True


def test_usage_error_exit_2(capsys):
    assert cli_dispatch(["polarize", "--in", "x.grd"]) == 2  # missing required flags
    assert cli_dispatch(["nonsense"]) == 2


def test_io_error_exit_2(tmp_path, capsys):
    out = tmp_path / "g.grd"
    status = cli_dispatch(
        ["polarize", "--in", str(tmp_path / "missing.grd"), "--normal", "0,1",
         "--out", str(out)]
    )
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_misaligned_plane_exit_2(tmp_path, sample_grd):
    path, _ = sample_grd
    status = cli_dispatch(
        ["polarize", "--in", str(path), "--normal", "0,1", "--offset", "0.1",
         "--out", str(tmp_path / "g.grd")]
    )
    assert status == 2


def test_plane_of_another_dimension_exit_2(tmp_path, sample_grd, capsys):
    path, _ = sample_grd
    status = cli_dispatch(
        ["polarize", "--in", str(path), "--normal", "0,0,1", "--out", str(tmp_path / "g.grd")]
    )
    assert status == 2
    assert "a hyperplane in dimension 3 cannot reflect a grid in dimension 2" in capsys.readouterr().err
