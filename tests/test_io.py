import io
import json

import numpy as np
import pytest

import symmkit as sk
from symmkit import gridio
from symmkit.harness import random_blob_function, trial_rng


def test_grid_function_roundtrip(tmp_path):
    f = random_blob_function(trial_rng(61, 0), sk.centered_grid((8, 6), 0.25))
    path = tmp_path / "f.grd"
    gridio.write_grid_function(path, f)
    again = gridio.read_grid_function(path)
    assert again == f
    assert again.grid == f.grid


def test_grd1_layout(tmp_path):
    g = sk.Grid((2, 2), (0.0, 0.0), 1.0)
    f = sk.GridFunction(g, [[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "f.grd"
    gridio.write_grid_function(path, f)
    raw = path.read_bytes()
    assert raw.startswith(b"GRD1\n")
    header_line, rest = raw[5:].split(b"\n", 1)
    header = json.loads(header_line)
    assert header == {"dims": [2, 2], "origin": [0.0, 0.0], "spacing": 1.0}
    assert np.array_equal(np.frombuffer(rest, "<f8"), [1.0, 2.0, 3.0, 4.0])


def test_grid_set_roundtrip_and_validation(tmp_path):
    g = sk.centered_grid((6, 6), 0.5)
    a = sk.disk_raster(g, (0.0, 0.0), 1.0)
    path = tmp_path / "a.grd"
    gridio.write_grid_set(path, a)
    assert gridio.read_grid_set(path) == a
    f = sk.GridFunction(g, np.full(g.dims, 0.5))
    gridio.write_grid_function(path, f)
    with pytest.raises(ValueError):
        gridio.read_grid_set(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.grd"
    path.write_bytes(b"NOPE\n{}\n")
    with pytest.raises(ValueError):
        gridio.read_grid_function(path)


def test_truncated_payload(tmp_path):
    g = sk.Grid((4,), (0.0,), 1.0)
    f = sk.GridFunction(g, np.arange(4.0))
    path = tmp_path / "f.grd"
    gridio.write_grid_function(path, f)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        gridio.read_grid_function(path)


def test_trailing_bytes_rejected(tmp_path):
    g = sk.Grid((4,), (0.0,), 1.0)
    path = tmp_path / "f.grd"
    gridio.write_grid_function(path, sk.GridFunction(g, np.arange(4.0)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError):
        gridio.read_grid_function(path)


def test_polygon_roundtrip(tmp_path):
    poly = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    path = tmp_path / "k.json"
    gridio.write_polygon(path, poly)
    again = gridio.read_polygon(path)
    assert np.array_equal(again.vertices, poly.vertices)


def test_contraction_roundtrip(tmp_path):
    phi = sk.sawtooth_contraction(1.0, 4.0)
    path = tmp_path / "phi.json"
    gridio.write_contraction(path, phi)
    again = gridio.read_contraction(path)
    ts = np.linspace(-5, 5, 101)
    assert np.array_equal(phi(ts), again(ts))


def test_region_roundtrip(tmp_path):
    poly = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    region = sk.chord_move_polygon(poly, sk.canonical_contraction("abs", 8.0), (0.0, 1.0))
    path = tmp_path / "r.json"
    gridio.write_region(path, region)
    again = gridio.read_region(path)
    assert np.array_equal(again.xs, region.xs)
    assert np.array_equal(again.lower, region.lower)
    assert np.array_equal(again.upper, region.upper)
    payload = json.loads(path.read_text())
    assert set(payload) == {"u", "omega", "gplus", "gminus"}
    assert payload["omega"] == [region.xs[0], region.xs[-1]]


@pytest.mark.parametrize(
    "gplus, gminus",
    [
        ("[[0.0, NaN], [1.0, 1.0]]", "[[0.0, 0.0], [1.0, 0.0]]"),
        ("[[0.0, 1.0], [1.0, Infinity]]", "[[0.0, 0.0], [1.0, 0.0]]"),
        ("[[0.0, 1.0], [1.0, 1.0]]", "[[0.0, -Infinity], [1.0, 0.0]]"),
        ("[[0.0, 1.0], [Infinity, 1.0]]", "[[0.0, 0.0], [Infinity, 0.0]]"),
        ("[[0.0, 1.0], [NaN, 1.0]]", "[[0.0, 0.0], [NaN, 0.0]]"),
    ],
    ids=["nan_upper", "inf_upper", "minus_inf_lower", "inf_station", "nan_station"],
)
def test_region_with_non_finite_breakpoints_is_refused(tmp_path, gplus, gminus):
    path = tmp_path / "r.json"
    path.write_text(f'{{"u": [0.0, 1.0], "gplus": {gplus}, "gminus": {gminus}}}')
    with pytest.raises(ValueError, match="region breakpoints must be finite"):
        gridio.read_region(path)


def test_write_is_deterministic(tmp_path):
    f = random_blob_function(trial_rng(67, 1), sk.centered_grid((8, 8), 0.25))
    p1, p2 = tmp_path / "a.grd", tmp_path / "b.grd"
    gridio.write_grid_function(p1, f)
    gridio.write_grid_function(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


class RecordingStream(io.BytesIO):
    """An in-memory GRD1 stream that records how many bytes were read when closed."""

    def close(self):
        self.consumed = self.tell()
        super().close()


@pytest.mark.parametrize(
    "prefix, error",
    [(b"", "bad magic"), (b"GRD1\n", "no newline within")],
)
def test_grd1_header_lines_read_at_most_the_limit(monkeypatch, prefix, error):
    # a line that never ends: only HEADER_LIMIT bytes of it may be read
    stream = RecordingStream(prefix + b"7" * (8 * gridio.HEADER_LIMIT))
    monkeypatch.setattr(gridio, "open", lambda path, mode: stream, raising=False)
    with pytest.raises(ValueError, match=error):
        gridio.read_grid_function("endless.grd")
    assert stream.consumed <= len(prefix) + gridio.HEADER_LIMIT


def test_grd1_header_without_newline_names_the_limit(tmp_path):
    path = tmp_path / "f.grd"
    path.write_bytes(b"GRD1\n" + json.dumps({"dims": [2], "origin": [0.0], "spacing": 1.0}).encode())
    with pytest.raises(ValueError, match=f"no newline within {gridio.HEADER_LIMIT} bytes"):
        gridio.read_grid_function(path)


GOOD_HEADER = {"dims": [2], "origin": [0.0], "spacing": 1.0}


def _write_grd(path, header):
    path.write_bytes(b"GRD1\n" + json.dumps(header).encode() + b"\n" + np.zeros(2).tobytes())


@pytest.mark.parametrize(
    "key, value",
    [("dims", None), ("origin", None), ("spacing", None), ("dims", 5), ("dims", [2.5]),
     ("dims", [True]), ("origin", "x"), ("origin", 0.0), ("spacing", "1"), ("spacing", [1.0])],
)
def test_malformed_grd1_header_names_the_key(tmp_path, key, value):
    header = dict(GOOD_HEADER)
    if value is None:
        del header[key]
    else:
        header[key] = value
    path = tmp_path / "bad.grd"
    _write_grd(path, header)
    with pytest.raises(ValueError, match=repr(key)):
        gridio.read_grid_function(path)


def test_grd1_header_must_be_an_object(tmp_path):
    path = tmp_path / "bad.grd"
    _write_grd(path, [2])
    with pytest.raises(ValueError, match="GRD1 header must be a JSON object"):
        gridio.read_grid_function(path)


def test_well_formed_header_still_reads(tmp_path):
    path = tmp_path / "ok.grd"
    _write_grd(path, GOOD_HEADER)
    assert gridio.read_grid_function(path).grid == sk.Grid((2,), (0.0,), 1.0)


@pytest.mark.parametrize(
    "reader, payload, key",
    [
        (gridio.read_polygon, {"verts": [[0, 0], [1, 0], [0, 1]]}, "vertices"),
        (gridio.read_polygon, {"vertices": "abc"}, "vertices"),
        (gridio.read_polygon, {"vertices": [[0, 0], [1], [0, 1]]}, "vertices"),
        (gridio.read_contraction, {}, "breakpoints"),
        (gridio.read_contraction, {"breakpoints": 5}, "breakpoints"),
        (gridio.read_contraction, {"breakpoints": [[0.0, "a"]]}, "breakpoints"),
        (gridio.read_region, {"u": [0.0, 1.0], "gplus": []}, "gminus"),
    ],
)
def test_malformed_json_names_the_key(tmp_path, reader, payload, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=repr(key)):
        reader(path)


@pytest.mark.parametrize(
    "reader", [gridio.read_polygon, gridio.read_contraction, gridio.read_region]
)
def test_json_payload_must_be_an_object(tmp_path, reader):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must be a JSON object"):
        reader(path)


@pytest.mark.parametrize(
    "reader", [gridio.read_polygon, gridio.read_contraction, gridio.read_region]
)
def test_json_nested_past_the_recursion_limit_raises_value_error(tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 30000)
    with pytest.raises(ValueError, match="nested too deeply"):
        reader(path)
