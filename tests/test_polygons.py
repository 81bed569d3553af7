import numpy as np
import pytest
from chord_oracle import amplification, chords_at

import symmkit as sk
from symmkit.harness import random_convex_polygon, trial_rng
from symmkit.polygons import perp

U = np.array([0.0, 1.0])


def test_validation_rejects_clockwise_and_collinear():
    with pytest.raises(ValueError):
        sk.ConvexPolygon([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # clockwise
    with pytest.raises(ValueError):
        sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])  # collinear


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_rejects_non_finite_vertices(bad):
    with pytest.raises(ValueError, match="vertices must be finite"):
        sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, bad]])


def test_area_perimeter():
    sq = sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert sq.area() == 1.0
    assert sq.perimeter() == 4.0


def test_chord_square_full_height():
    sq = sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    seg = sk.boundary_graphs(sq, U).chord(0.5)
    assert seg == (0.0, 1.0)
    assert (seg[0] + seg[1]) / 2.0 == 0.5


def test_chord_missing_line():
    sq = sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert sk.boundary_graphs(sq, U).chord(1.7) is None


def test_chord_triangle_clipping_oracle():
    tri = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    seg = sk.boundary_graphs(tri, U).chord(1.0)
    assert np.allclose(seg, (0.0, 1.0))
    # oracle: dense point-membership scan along the same line
    ts = np.linspace(-1.0, 3.0, 4001)
    inside = np.array([tri.contains((1.0, t)) for t in ts])
    lo, hi = ts[inside].min(), ts[inside].max()
    assert abs(lo - seg[0]) < 2e-3 and abs(hi - seg[1]) < 2e-3


@pytest.mark.parametrize("u", [(0.0, 0.0), (0.0, 2.0), (np.nan, 1.0)], ids=["zero", "not_unit", "nan"])
def test_boundary_graphs_rejects_a_direction_that_is_not_a_finite_unit_vector(u):
    sq = sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite unit 2-vector"):
        sk.boundary_graphs(sq, u)


def test_chord_arbitrary_direction():
    sq = sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    seg = sk.boundary_graphs(sq, u).chord(0.0)  # main diagonal
    assert np.allclose(seg, (0.0, np.sqrt(2.0)))


def test_chord_extents_lipschitz_in_station():
    rng = np.random.default_rng(4)
    for _ in range(10):
        poly = random_convex_polygon(rng)
        w = perp(U)
        xs_v = np.sort(poly.vertices @ w)
        # max slope of the boundary graphs over interior stations
        interior = np.linspace(xs_v[0], xs_v[-1], 101)[1:-1]
        lo, hi, ok = chords_at(poly, U, interior)
        assert ok.all()
        edges = np.roll(poly.vertices, -1, axis=0) - poly.vertices
        with np.errstate(divide="ignore"):
            slopes = np.abs(edges[:, 1] / edges[:, 0])
        lip = slopes[np.isfinite(slopes)].max()
        dx = np.diff(interior)
        # between consecutive vertex stations the graphs are linear
        for arr in (lo, hi):
            jumps = np.abs(np.diff(arr))
            station_between = np.array(
                [np.any((xs_v > a) & (xs_v < b)) for a, b in zip(interior[:-1], interior[1:])]
            )
            assert np.all(jumps[~station_between] <= lip * dx[~station_between] + 1e-9)


def test_degenerate_touching_chord_kept():
    tri = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    seg = sk.boundary_graphs(tri, U).chord(2.0)  # line through the right vertex
    assert seg is not None
    assert abs(seg[1] - seg[0]) < 1e-9


@pytest.mark.parametrize(
    "seed, u", [(745, (0.0, 1.0)), (275, (1.0, 0.0)), (2094, (0.6, 0.8))]
)
def test_vertex_station_beside_near_parallel_edge(seed, u):
    # an edge almost parallel to u (dx = -2.2e-5 for seed 745) bounds the
    # chord at its endpoint's station only to about 1e-11; that chord holds
    # the vertex, so it must not be rejected as empty
    poly = random_convex_polygon(trial_rng(seed, 0), box=2.0)
    u = np.asarray(u)
    _, _, ok = chords_at(poly, u, np.unique(poly.vertices @ perp(u)))
    assert ok.all()
    region = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), u)
    assert abs(region.area() - poly.area()) < 1e-9
    assert abs(sk.perimeter_region(region) - poly.perimeter()) < 1e-9


def random_direction(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(theta), np.sin(theta)])


def turned_square(u, t0=0.0):
    """The square [0, 1] x [t0, t0 + 1] of the frame (perp(u), u): the unit
    square turned so that an edge is parallel to u at each end."""
    turn = np.array([[u[1], u[0]], [-u[0], u[1]]])  # e1 -> perp(u), e2 -> u
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + [0.0, t0]
    return sk.ConvexPolygon(square @ turn.T)


def vertex_and_interior_stations(poly, u):
    xs = np.unique(poly.vertices @ perp(u))
    return xs, (xs[:-1] + xs[1:]) / 2.0


class TestRandomDirections:
    def test_chords_match_the_oracle(self):
        for i in range(200):
            rng = trial_rng(107, i)
            poly = random_convex_polygon(rng)
            u = random_direction(rng)
            xs = np.concatenate(vertex_and_interior_stations(poly, u))
            lo, hi, ok = chords_at(poly, u, xs)
            assert ok.all()
            got = np.array([sk.boundary_graphs(poly, u).chord(x) for x in xs])
            tol = 1e-12 * max(1.0, float(np.abs(poly.vertices).max())) * amplification(poly, u)
            assert np.abs(got[:, 0] - lo).max() <= tol
            assert np.abs(got[:, 1] - hi).max() <= tol

    def test_identity_move_keeps_area_and_perimeter(self):
        for i in range(200):
            rng = trial_rng(109, i)
            poly = random_convex_polygon(rng)
            u = random_direction(rng)
            region = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), u)
            assert abs(region.area() - poly.area()) <= 1e-12 * poly.area()
            assert abs(sk.perimeter_region(region) - poly.perimeter()) <= 1e-12 * poly.perimeter()

    def test_turned_square_chords_match_the_oracle(self):
        # rounding leaves each end edge parallel to u or up to an ulp off it;
        # in the second case the extreme station holds one vertex, and across
        # that ulp the exact chord shrinks from the whole edge to the vertex,
        # where the oracle's slack reads the whole edge
        for i in range(100):
            u = random_direction(trial_rng(113, i))
            square = turned_square(u)
            x_vertex = square.vertices @ perp(u)
            vertex, interior = vertex_and_interior_stations(square, u)
            left = vertex[1] if np.count_nonzero(x_vertex == vertex[0]) == 1 else vertex[0]
            right = vertex[-2] if np.count_nonzero(x_vertex == vertex[-1]) == 1 else vertex[-1]
            assert right - left > 0.99
            for x in np.concatenate([vertex, interior]):
                (lo,), (hi,), (ok,) = chords_at(square, u, [x])
                assert ok
                got = sk.boundary_graphs(square, u).chord(x)
                assert lo - 1e-12 <= got[0] <= got[1] <= hi + 1e-12
                if left <= x <= right:
                    assert abs(got[0] - lo) <= 1e-12 and abs(got[1] - hi) <= 1e-12

    @pytest.mark.parametrize("name, t0", [("id", 0.0), ("abs", -0.7)])
    def test_turned_square_move_keeps_area_and_perimeter(self, name, t0):
        # at t0 = -0.7 the kink of abs lies between the midpoint of a full
        # chord and that of an end vertex an ulp away, so a contraction
        # breakpoint pulls back to within an ulp of a vertex station
        for i in range(100):
            u = random_direction(trial_rng(127, i))
            square = turned_square(u, t0)
            region = sk.chord_move_polygon(square, sk.canonical_contraction(name, 8.0), u)
            assert abs(region.area() - square.area()) <= 1e-12 * square.area()
            if name == "id":
                assert abs(sk.perimeter_region(region) - square.perimeter()) <= 1e-12 * square.perimeter()


def test_convex_hull_ccw_strict():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.5, 0.0]]
    hull = sk.convex_hull(pts)
    poly = sk.ConvexPolygon(hull)  # validates strict convexity + ccw
    assert poly.area() == 1.0


def test_polygon_raster_matches_containment():
    g = sk.centered_grid((20, 20), 0.2)
    tri = sk.ConvexPolygon([[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]])
    raster = sk.polygon_raster(g, tri)
    centers = g.centers()
    expect = np.array([tri.contains(p) for p in centers]).reshape(g.dims)
    assert np.array_equal(raster.mask, expect)
