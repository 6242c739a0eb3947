"""Metric geometry: distances, geodesics, rays, projections, suite."""

from __future__ import annotations

import math
import random
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fejerlab.cli import ConfigError, _read_point, _read_set
from fejerlab.moduli import FastCertificate, Harmonic, TableSchedule
from fejerlab.problems import BusemannProblem, busemann_subgradient
from fejerlab.spaces import (
    GEOM_TOL,
    TRIPOD_ORIGIN,
    Ball,
    Box,
    Euclidean,
    EuclideanDir,
    HalfPlane,
    HalfPlaneIdealPoint,
    Halfspace,
    Segment,
    Tripod,
    TripodEnd,
    TripodSegment,
    WholeSpace,
    _LIBM,
    _select,
    cn_residual,
    contains,
    distance,
    geodesic_point,
    geometry_suite,
    project_convex,
    quasi_triangle_residual,
    ray_point,
    space_of,
    sqdist,
    stack,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
height = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_euclidean_distance_345():
    assert distance(Euclidean((0.0, 0.0)), Euclidean((3.0, 4.0))) == 5.0
    assert sqdist(Euclidean((0.0, 0.0)), Euclidean((3.0, 4.0))) == 25.0


def test_tripod_distance_same_and_different_rays():
    assert distance(Tripod(1, 2.0), Tripod(1, 0.5)) == 1.5
    assert distance(Tripod(0, 1.0), Tripod(1, 1.0)) == 2.0
    assert distance(Tripod(2, 3.0), Tripod(0, 0.0)) == 3.0


def test_tripod_origin_is_canonical():
    assert Tripod(2, 0.0) == Tripod(0, 0.0)
    assert distance(Tripod(1, 0.0), Tripod(2, 0.0)) == 0.0


def test_points_reject_nan_coordinates():
    for make in (lambda: Tripod(1, math.nan), lambda: Tripod(0, -1.0)):
        with pytest.raises(ValueError, match="tripod coordinate must be >= 0"):
            make()
    for x, y in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="half-plane point needs"):
            HalfPlane(x, y)
    for x, y, coord in (
        (math.inf, 1.0, "x=inf"), (-math.inf, 1.0, "x=-inf"), (0.0, math.inf, "y=inf"),
        (0.0, -math.inf, "y=-inf"), (math.nan, 1.0, "x=nan"),
    ):
        with pytest.raises(ValueError, match=f"half-plane point needs .*{coord}"):
            HalfPlane(x, y)


@pytest.mark.parametrize(
    "x, y, message",
    [
        (math.nan, 1.0, "half-plane point needs a finite x, got x=nan"),
        (math.inf, 1.0, "half-plane point needs a finite x, got x=inf"),
        (-math.inf, 2, "half-plane point needs a finite x, got x=-inf"),
        (0.0, math.nan, "half-plane point needs y > 0, got y=nan"),
        (0.0, 0.0, "half-plane point needs y > 0, got y=0.0"),
        (1, -0.0, "half-plane point needs y > 0, got y=-0.0"),
        (0.0, -1, "half-plane point needs y > 0, got y=-1.0"),
        (0.0, -math.inf, "half-plane point needs y > 0, got y=-inf"),
        (0.0, math.inf, "half-plane point needs a finite y, got y=inf"),
    ],
)
def test_halfplane_point_rejects_with_its_message_whatever_the_number_type(x, y, message):
    # Python floats, ints and NumPy floats are refused with the same words.
    for cast in (lambda v: v, np.float64):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HalfPlane(cast(x), cast(y))


@pytest.mark.parametrize(
    "coords, message",
    [
        ((math.inf, 0.0), "coords[0]=inf"),
        ((math.nan, 0.0), "coords[0]=nan"),
        ((1.0, -math.inf), "coords[1]=-inf"),
        ((0.0, 2.0, math.nan), "coords[2]=nan"),
    ],
)
def test_euclidean_point_rejects_a_non_finite_coordinate_by_name(coords, message):
    for cast in (lambda v: v, np.float64):
        with pytest.raises(ValueError, match=f"^Euclidean point needs finite coordinates, got {re.escape(message)}$"):
            Euclidean(tuple(cast(c) for c in coords))
    # A batch is left unchecked: its columns are the hot path's.
    batch = Euclidean(tuple(np.array([c, 1.0]) for c in coords))
    assert np.array_equal([c[0] for c in batch.coords], coords, equal_nan=True)


@pytest.mark.parametrize(
    "x, y", [(0.0, 1.0), (-0.0, 5e-324), (3, 2), (np.float64(-2.5), np.float64(1e308)),
             (np.float32(0.1), 7)]
)
def test_halfplane_point_stores_python_floats(x, y):
    p = HalfPlane(x, y)
    assert type(p.x) is float and type(p.y) is float
    assert (math.copysign(1.0, p.x), p.x, p.y) == (math.copysign(1.0, float(x)), float(x), float(y))


@pytest.mark.parametrize(
    "ray, coord, message",
    [
        (1, math.nan, "tripod coordinate must be >= 0, got nan"),
        (0, -1.0, "tripod coordinate must be >= 0, got -1.0"),
        (2, -math.inf, "tripod coordinate must be >= 0, got -inf"),
        (0, math.inf, "tripod coordinate must be finite, got inf"),
        (3, 1.0, "tripod ray must be 0, 1 or 2, got 3"),
        (-1, 2, "tripod ray must be 0, 1 or 2, got -1"),
    ],
)
def test_tripod_point_rejects_with_its_message_whatever_the_number_type(ray, coord, message):
    for cast in (lambda v: v, np.float64):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Tripod(ray, cast(coord))
    # A batch raises its first bad path's point error.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Tripod(np.array([1, ray, 2]), np.array([0.5, coord, -1.0]))


def test_tripod_point_stores_python_floats_and_one_origin():
    for ray, coord in ((2, 1), (1, np.float64(0.5)), (1, 5e-324), (0, 1.7976931348623157e308)):
        p = Tripod(ray, coord)
        assert (p.ray, type(p.coord), p.coord) == (ray, float, float(coord))
    # Every zero, on every ray and of every sign and type, is the origin on ray 0.
    for ray in (0, 1, 2):
        for zero in (0.0, -0.0, 0, np.float64(-0.0)):
            p = Tripod(ray, zero)
            assert p == TRIPOD_ORIGIN and p.ray == 0
            assert type(p.coord) is float and math.copysign(1.0, p.coord) == 1.0


def test_halfplane_geodesic_out_of_float_range_names_the_geodesic():
    # The geodesic's top, at t = 1/2, lies above the largest float.
    x, y = HalfPlane(-1.7e308, 8.5e307), HalfPlane(1.7e308, 8.5e307)
    assert 0.0 < geodesic_point(x, y, 0.1).y < math.inf
    with pytest.raises(ValueError, match=r"geodesic point at t=0.5 from HalfPlane\(x=-1.7e\+308"):
        geodesic_point(x, y, 0.5)
    # A ray whose height overflows to inf without an OverflowError.
    with pytest.raises(ValueError, match=r"ray point at arclength 50.0 from .* out of float range"):
        ray_point(HalfPlane(0.0, 1e300), HalfPlaneIdealPoint(None), 50.0)


def test_halfplane_vertical_distance_is_log_ratio():
    assert abs(distance(HalfPlane(0.0, 1.0), HalfPlane(0.0, math.e)) - 1.0) < 1e-12
    d = distance(HalfPlane(0.0, 1.0), HalfPlane(1.0, 1.0))
    assert abs(d - math.acosh(1.5)) < 1e-12


def test_halfplane_distance_between_heights_far_apart():
    assert distance(HalfPlane(0.0, 1.0), HalfPlane(0.0, 1e160)) == pytest.approx(160 * math.log(10.0))
    assert math.isfinite(distance(HalfPlane(0.0, 1.0), HalfPlane(0.0, 8.2e307)))
    x = HalfPlane(0.0, 1.0)
    assert distance(x, ray_point(x, HalfPlaneIdealPoint(None), 400.0)) == pytest.approx(400.0)


def test_space_of():
    assert space_of(Euclidean((1.0,))) == "euclidean"
    assert space_of(Tripod(0, 1.0)) == "tripod"
    assert space_of(HalfPlane(0.0, 1.0)) == "halfplane"


# ---------------------------------------------------------------------------
# Geodesics and rays
# ---------------------------------------------------------------------------


def test_euclidean_midpoint():
    m = geodesic_point(Euclidean((0.0, 0.0)), Euclidean((3.0, 4.0)), 0.5)
    assert m == Euclidean((1.5, 2.0))


def test_geodesic_endpoints_are_the_input_objects():
    x, y = Tripod(0, 1.0), Tripod(1, 2.0)
    assert geodesic_point(x, y, 0.0) is x
    assert geodesic_point(x, y, 1.0) is y


def test_tripod_geodesic_passes_through_origin():
    x, y = Tripod(0, 1.0), Tripod(1, 2.0)
    assert geodesic_point(x, y, 1.0 / 3.0) == Tripod(0, 0.0)
    assert geodesic_point(x, y, 2.0 / 3.0) == Tripod(1, 1.0)


def test_halfplane_geodesic_midpoint_is_circle_apex():
    m = geodesic_point(HalfPlane(-1.0, 1.0), HalfPlane(1.0, 1.0), 0.5)
    assert abs(m.x) < 1e-10 and abs(m.y - math.sqrt(2.0)) < 1e-10


@given(finite, finite, finite, finite, st.floats(min_value=0.0, max_value=1.0))
def test_euclidean_geodesic_metric_proportionality(ax, ay, bx, by, t):
    a, b = Euclidean((ax, ay)), Euclidean((bx, by))
    g = geodesic_point(a, b, t)
    assert abs(distance(a, g) - t * distance(a, b)) <= 1e-9


def test_ray_point_euclidean():
    p = ray_point(Euclidean((0.0, 0.0)), EuclideanDir((1.0, 0.0)), 2.0)
    assert p == Euclidean((2.0, 0.0))


def test_ray_point_tripod_crosses_origin():
    p = ray_point(Tripod(0, 1.0), TripodEnd(2), 2.5)
    assert p == Tripod(2, 1.5)
    assert ray_point(Tripod(0, 1.0), TripodEnd(0), 2.5) == Tripod(0, 3.5)


def test_ray_point_halfplane_vertical():
    p = ray_point(HalfPlane(0.0, 1.0), HalfPlaneIdealPoint(None), 2.0)
    assert abs(p.x) < 1e-12 and abs(p.y - math.exp(2.0)) < 1e-12


@pytest.mark.parametrize("boundary_x", [None, 0.5])
def test_ray_point_halfplane_out_of_range_names_the_ray(boundary_x):
    # exp(800) overflows a float; toward 0.5 the height underflows to 0.
    with pytest.raises(ValueError, match=r"arclength 800 from HalfPlane\(x=0.0, y=1.0\)"):
        ray_point(HalfPlane(0.0, 1.0), HalfPlaneIdealPoint(boundary_x), 800)
    # Inside the range the point is returned as before.
    p = ray_point(HalfPlane(0.0, 1.0), HalfPlaneIdealPoint(boundary_x), 700.0)
    assert 0.0 < p.y < math.inf


@pytest.mark.parametrize("s", [1.0, 10.0])
def test_ray_point_toward_a_boundary_point_out_of_float_range(s):
    # |x - b| overflows to inf, so the ray's scale y / |x - b| is 0.
    with pytest.raises(ValueError, match=r"out of float range"):
        ray_point(HalfPlane(-1.7e308, 1.0), HalfPlaneIdealPoint(1.7e308), s)


def test_ray_additivity_all_spaces():
    cases = [
        (Euclidean((1.0, -2.0)), EuclideanDir((0.6, 0.8))),
        (Tripod(1, 0.5), TripodEnd(2)),
        (HalfPlane(0.3, 2.0), HalfPlaneIdealPoint(1.0)),
        (HalfPlane(0.3, 2.0), HalfPlaneIdealPoint(None)),
    ]
    for x, direction in cases:
        for s in (0.0, 0.7, 2.3):
            p = ray_point(x, direction, s)
            assert abs(distance(x, p) - s) <= 1e-10
        a = ray_point(x, direction, 1.0)
        b = ray_point(x, direction, 3.0)
        assert abs(distance(a, b) - 2.0) <= 1e-10


# ---------------------------------------------------------------------------
# Comparison inequalities
# ---------------------------------------------------------------------------


@given(finite, finite, finite, finite, finite, finite, st.floats(min_value=0.0, max_value=1.0))
def test_cn_equality_in_the_plane(x1, x2, a1, a2, b1, b2, t):
    r = cn_residual(Euclidean((x1, x2)), Euclidean((a1, a2)), Euclidean((b1, b2)), t)
    assert abs(r) <= 1e-9


@given(
    st.integers(min_value=0, max_value=2),
    positive,
    st.integers(min_value=0, max_value=2),
    positive,
    st.integers(min_value=0, max_value=2),
    positive,
    st.floats(min_value=0.0, max_value=1.0),
)
def test_cn_inequality_tripod(rx, cx, ra, ca, rb, cb, t):
    r = cn_residual(Tripod(rx, cx), Tripod(ra, ca), Tripod(rb, cb), t)
    assert r <= 1e-9


@given(finite, height, finite, height, finite, height, st.floats(min_value=0.0, max_value=1.0))
@example(0.0, 1.0, 0.0, 2.0, 1e-10, 7.0, 0.5)  # a near-vertical geodesic
def test_cn_inequality_halfplane(x1, y1, a1, b1, a2, b2, t):
    r = cn_residual(HalfPlane(x1, y1), HalfPlane(a1, b1), HalfPlane(a2, b2), t)
    assert r <= 1e-9


def test_quasi_triangle_q2_equality_at_midpoint():
    x, y = Euclidean((0.0, 0.0)), Euclidean((2.0, 2.0))
    o = geodesic_point(x, y, 0.5)
    assert abs(quasi_triangle_residual(2.0, x, y, o)) <= 1e-12


@given(finite, finite, finite, finite, finite, finite, st.sampled_from([1.0, 2.0, 3.0]))
def test_quasi_triangle_inequality_euclidean(x1, x2, y1, y2, o1, o2, q):
    r = quasi_triangle_residual(q, Euclidean((x1, x2)), Euclidean((y1, y2)), Euclidean((o1, o2)))
    assert r <= 1e-9


# ---------------------------------------------------------------------------
# Projections and membership
# ---------------------------------------------------------------------------


def test_halfspace_projection():
    h = Halfspace((1.0, 0.0), 0.0)
    assert project_convex(h, Euclidean((1.0, 1.0))) == Euclidean((0.0, 1.0))
    inside = Euclidean((-1.0, 5.0))
    assert project_convex(h, inside) is inside


def test_ball_projection_euclidean():
    ball = Ball(Euclidean((0.0, 0.0)), 1.0)
    p = project_convex(ball, Euclidean((3.0, 4.0)))
    assert abs(distance(p, Euclidean((0.0, 0.0))) - 1.0) <= 1e-12
    assert abs(p.coords[0] - 0.6) <= 1e-12 and abs(p.coords[1] - 0.8) <= 1e-12


def test_ball_projection_tripod_walks_the_geodesic():
    ball = Ball(Tripod(0, 1.0), 0.5)
    assert project_convex(ball, Tripod(1, 2.0)) == Tripod(0, 0.5)


def test_ball_projection_halfplane_vertical():
    ball = Ball(HalfPlane(0.0, 1.0), 1.0)
    p = project_convex(ball, HalfPlane(0.0, math.exp(2.0)))
    assert abs(p.x) < 1e-10 and abs(p.y - math.e) < 1e-10


def test_box_projection_and_membership():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    assert project_convex(box, Euclidean((3.0, -5.0))) == Euclidean((1.0, -1.0))
    assert contains(box, Euclidean((0.5, -1.0)))
    assert not contains(box, Euclidean((1.1, 0.0)))


def test_box_with_infinite_sides():
    box = Box((0.0, -math.inf), (math.inf, 0.0))
    assert project_convex(box, Euclidean((-1.0, 1.0))) == Euclidean((0.0, 0.0))
    assert contains(box, Euclidean((100.0, -100.0)))


def test_segment_projection_euclidean():
    seg = Segment(Euclidean((-1.0, 0.0)), Euclidean((1.0, 0.0)))
    assert project_convex(seg, Euclidean((0.0, 2.0))) == Euclidean((0.0, 0.0))
    assert project_convex(seg, Euclidean((2.0, 3.0))) == Euclidean((1.0, 0.0))


def test_segment_projection_is_nearest_point_halfplane():
    seg = Segment(HalfPlane(-1.0, 1.0), HalfPlane(1.0, 1.0))
    x = HalfPlane(0.0, 3.0)
    p = project_convex(seg, x)
    # compare against a dense sweep of the segment
    best = min(
        distance(x, geodesic_point(seg.a, seg.b, t / 2000.0)) for t in range(2001)
    )
    assert distance(x, p) <= best + 1e-6
    assert contains(seg, p)
    # The segment lies on the circle |z| = sqrt(2), and x straight above its
    # apex, which is therefore the foot.
    assert distance(p, HalfPlane(0.0, math.sqrt(2.0))) <= GEOM_TOL


def test_segment_projection_tripod_is_the_branch_point():
    seg = Segment(Tripod(1, 2.0), Tripod(2, 1.0))
    cases = [
        (Tripod(0, 3.0), TRIPOD_ORIGIN),
        (Tripod(1, 0.5), Tripod(1, 0.5)),
        (Tripod(1, 5.0), Tripod(1, 2.0)),
        (Tripod(2, 4.0), Tripod(2, 1.0)),
    ]
    for x, foot in cases:
        assert distance(project_convex(seg, x), foot) <= 1e-15


# ---------------------------------------------------------------------------
# Half-plane accuracy against a 60-digit reference
# ---------------------------------------------------------------------------

# x in [-3, 3]; heights log-uniform in a box, or near-vertical pairs whose
# abscissae differ by a relative 1e-13 to 1e-12.
HALFPLANE_ROWS = {"y-0.2-5": (0.2, 5.0), "y-1e-2-1e2": (1e-2, 1e2), "y-1e-3-1e3": (1e-3, 1e3),
                  "near-vertical": None}


def _halfplane_pairs(row, n, seed=2026):
    rnd = random.Random(seed)
    lo, hi = HALFPLANE_ROWS[row] or (1e-3, 1e3)

    def point():
        return HalfPlane(rnd.uniform(-3.0, 3.0), math.exp(rnd.uniform(math.log(lo), math.log(hi))))

    for _ in range(n):
        x, y = point(), point()
        if HALFPLANE_ROWS[row] is None:
            rel = rnd.choice((-1.0, 1.0)) * rnd.uniform(1e-13, 1e-12)
            y = HalfPlane(x.x + rel * max(1.0, abs(x.x)), y.y)
        yield x, y, point(), rnd.random()


def _mp_z(p):
    return mpmath.mpc(p.x, p.y)


def _mp_distance(z, w):
    return 2 * mpmath.asinh(abs(z - w) / (2 * mpmath.sqrt(z.imag * w.imag)))


def _mp_foot(a, b, x):
    """The foot of x on the segment [a, b]: z -> -(z - p) / (z - q) maps the
    geodesic through a and b, with ideal ends p < q, onto the imaginary axis
    (z -> z - a.x for a vertical one), where the foot of w is i |w|."""
    za, zb, zx = _mp_z(a), _mp_z(b), _mp_z(x)
    if a.x == b.x:
        p, q = None, None
        to_axis, back = (lambda z: z - za.real), (lambda w: w + za.real)
    else:
        c = (abs(zb) ** 2 - abs(za) ** 2) / (2 * (zb.real - za.real))
        r = abs(za - c)
        p, q = c - r, c + r
        to_axis, back = (lambda z: -(z - p) / (z - q)), (lambda w: (p + q * w) / (w + 1))
    ha, hb, hx = (abs(to_axis(z)) for z in (za, zb, zx))
    return back(mpmath.mpc(0, min(max(hx, min(ha, hb)), max(ha, hb))))


@pytest.mark.parametrize("row", list(HALFPLANE_ROWS))
def test_halfplane_geometry_matches_a_60_digit_reference(row):
    worst_geo = worst_foot = 0.0
    with mpmath.workdps(60):
        for x, y, z, t in _halfplane_pairs(row, 1000):
            zx, zy, g = _mp_z(x), _mp_z(y), _mp_z(geodesic_point(x, y, t))
            d = _mp_distance(zx, zy)
            geo = max(abs(_mp_distance(zx, g) - t * d), abs(_mp_distance(g, zy) - (1 - t) * d))
            foot = _mp_distance(_mp_z(project_convex(Segment(x, y), z)), _mp_foot(x, y, z))
            worst_geo, worst_foot = max(worst_geo, float(geo)), max(worst_foot, float(foot))
    assert worst_geo <= 1e-10 and worst_foot <= 1e-10, (worst_geo, worst_foot)


def test_halfplane_far_pairs_match_a_60_digit_reference():
    """Pairs farther apart than about 1,419, where |x - y| / (2 sqrt(y1 y2))
    overflows: the distance is taken in logs and the geodesic rescaled."""
    rnd = random.Random(1419)
    pairs = [(HalfPlane(0.0, 1e-300), HalfPlane(1e10, 1e-300))]
    while len(pairs) < 200:
        x = HalfPlane(rnd.uniform(-3.0, 3.0), 10.0 ** rnd.uniform(-300.0, 300.0))
        y = HalfPlane(rnd.choice((-1.0, 1.0)) * 10.0 ** rnd.uniform(0.0, 300.0), 10.0 ** rnd.uniform(-300.0, 300.0))
        if math.hypot(x.x - y.x, x.y - y.y) / (2.0 * math.sqrt(x.y) * math.sqrt(y.y)) == math.inf:
            pairs.append((x, y))
    with mpmath.workdps(60):
        for x, y in pairs:
            zx, zy = _mp_z(x), _mp_z(y)
            d = _mp_distance(zx, zy)
            assert abs(distance(x, y) - d) <= GEOM_TOL, (x, y)
            for t in (1e-9, rnd.random(), 0.5, 1.0 - 1e-9):
                g = _mp_z(geodesic_point(x, y, t))
                geo = max(abs(_mp_distance(zx, g) - t * d), abs(_mp_distance(g, zy) - (1 - t) * d))
                assert geo <= GEOM_TOL * d, (x, y, t)
    assert distance(*pairs[0]) == pytest.approx(1427.6027576563083, abs=1e-10)


def test_halfplane_distance_when_the_abscissa_difference_overflows():
    """Pairs whose x2 - x1 overflows: the distance, and the geodesic both
    ways, whose apex at t = 0.5 on the first pair is 1.7e308 high."""
    rnd = random.Random(308)
    pairs = [(HalfPlane(-1.7e308, 1.0), HalfPlane(1.7e308, 1.0))]
    while len(pairs) < 50:
        x = HalfPlane(-(10.0 ** rnd.uniform(307.9, 308.25)), 10.0 ** rnd.uniform(-300.0, 300.0))
        y = HalfPlane(10.0 ** rnd.uniform(307.9, 308.25), 10.0 ** rnd.uniform(-300.0, 300.0))
        if y.x - x.x == math.inf:
            pairs.append((x, y))
    with mpmath.workdps(60):
        for x, y in pairs:
            zx, zy = _mp_z(x), _mp_z(y)
            d = _mp_distance(zx, zy)
            assert abs(distance(x, y) - d) <= GEOM_TOL, (x, y)
            assert abs(distance(y, x) - d) <= GEOM_TOL, (x, y)
            for (p, zp), (q, zq) in (((x, zx), (y, zy)), ((y, zy), (x, zx))):
                for t in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
                    g = _mp_z(geodesic_point(p, q, t))
                    geo = max(abs(_mp_distance(zp, g) - t * d), abs(_mp_distance(g, zq) - (1 - t) * d))
                    assert geo <= GEOM_TOL * d, (p, q, t)
    assert distance(*pairs[0]) == pytest.approx(1420.84, abs=0.005)
    apex = geodesic_point(*pairs[0], 0.5)
    assert apex.x == 0.0 and apex.y == pytest.approx(1.7e308, rel=1e-12)


def test_halfplane_distance_when_the_scale_overflows():
    """Heights near the float maximum, where 2 sqrt(y1) sqrt(y2) overflows:
    the distance, and the geodesic against the closed form with D = y1
    sinh(td) + y2 sinh((1-t)d).  Its apex at t = 0.5 lies above the float
    range."""
    x, y = HalfPlane(0.0, 1.7e308), HalfPlane(1.7e308, 1.7e308)
    assert 2.0 * math.sqrt(x.y) * math.sqrt(y.y) == math.inf
    above = []
    with mpmath.workdps(60):
        zx, zy = _mp_z(x), _mp_z(y)
        d = _mp_distance(zx, zy)
        assert abs(distance(x, y) - d) <= 1e-15 * d and d == pytest.approx(0.9624, abs=1e-4)
        for t in (0.1, 0.5, 0.9):
            (x1, y1), (x2, y2) = (zx.real, zx.imag), (zy.real, zy.imag)
            den = y1 * mpmath.sinh(t * d) + y2 * mpmath.sinh((1 - t) * d)
            gx, gy = x1 + (x2 - x1) * y1 * mpmath.sinh(t * d) / den, y1 * y2 * mpmath.sinh(d) / den
            if gy > sys.float_info.max:
                above.append(t)
                with pytest.raises(ValueError, match=f"geodesic point at t={t} .* out of float range"):
                    geodesic_point(x, y, t)
                continue
            g = geodesic_point(x, y, t)
            assert abs(g.x - gx) <= 1e-15 * gx and abs(g.y - gy) <= 1e-15 * gy, t
    assert above == [0.5]


def test_halfplane_geodesic_takes_the_abscissa_from_the_nearer_end():
    """y's abscissa 1e-20 is below the rounding unit of x's 1, so x1 +
    (x2 - x1) w rounds it away (x = 0.0 past the midpoint, 32 hyperbolic
    units off at t = 0.9); taken from y, the point stays on the geodesic."""
    x, y = HalfPlane(1.0, 1.0), HalfPlane(1e-20, 1e-30)
    with mpmath.workdps(60):
        zx, zy = _mp_z(x), _mp_z(y)
        d = _mp_distance(zx, zy)
        for t in (0.5, 0.9, 1.0 - 1e-12):
            g = _mp_z(geodesic_point(x, y, t))
            geo = max(abs(_mp_distance(zx, g) - t * d), abs(_mp_distance(g, zy) - (1 - t) * d))
            assert geo <= 1e-15 * d, (t, float(geo))


def test_halfplane_extreme_heights_stay_finite():
    points = [HalfPlane(0.0, 1e-300), HalfPlane(2.5, 1e-300), HalfPlane(-3.0, 1e300), HalfPlane(1.0, 1.0)]
    for x in points:
        for y in points:
            d = distance(x, y)
            assert math.isfinite(d)
            for t in (1e-9, 0.3, 0.9):
                g = geodesic_point(x, y, t)
                assert abs(distance(x, g) - t * d) <= 1e-10 * max(1.0, d)
            for z in points:
                p = project_convex(Segment(x, y), z)
                assert math.isfinite(p.x) and 0.0 < p.y < math.inf


def test_tripod_segment_projection():
    cset = TripodSegment((2.0, 2.0, 2.0))
    assert project_convex(cset, Tripod(1, 3.0)) == Tripod(1, 2.0)
    inside = Tripod(2, 1.0)
    assert project_convex(cset, inside) is inside


def test_whole_space_projection_is_identity():
    x = HalfPlane(1.0, 2.0)
    assert project_convex(WholeSpace(), x) is x
    assert contains(WholeSpace(), x)


def test_projection_nonexpansive_samples():
    sets = [
        Ball(Euclidean((0.5, -0.5)), 1.5),
        Halfspace((0.0, 1.0), 0.25),
        Box((-1.0, -2.0), (0.5, 0.5)),
        Segment(Euclidean((-1.0, -1.0)), Euclidean((2.0, 0.0))),
    ]
    pts = [Euclidean((a / 3.0, b / 3.0)) for a in range(-6, 7, 3) for b in range(-6, 7, 3)]
    for cset in sets:
        for x in pts:
            for y in pts:
                px, py = project_convex(cset, x), project_convex(cset, y)
                assert distance(px, py) <= distance(x, y) + GEOM_TOL


# ---------------------------------------------------------------------------
# Randomized suite and config parsing
# ---------------------------------------------------------------------------


def test_geometry_suite_passes_each_space_smoke():
    for space in ("euclidean", "tripod", "halfplane"):
        summary = geometry_suite(space, samples=300, seed=5, projection_samples=100)
        assert summary["pass"], summary


# float.hex of every residual of the default suite (10,000 + 1,000 + 1,000
# samples), recorded when every space ran sample by sample, in the order
# symmetry, identity, triangle, geodesic_parameter, cn, quasi_triangle,
# projection_nonexpansive, projection_firm, ray_additivity.  The last seed is
# the ensemble seed of the first benchmark run of euclid-skm.
_SUITE_RESIDUALS = {
    ("euclidean", 1, 0): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.0000000000000p-44", "0x1.0000000000000p-49", "0x1.0000000000000p-51",
        "0x1.7d8430acf6a53p-50", "0x1.0000000000000p-49",
    ),
    ("euclidean", 1, 20260814): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.4000000000000p-45", "0x1.0000000000000p-49", "0x0.0p+0", "0x1.564868db65873p-50",
        "0x1.0000000000000p-49",
    ),
    ("euclidean", 1, 12742532702349066664): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.0000000000000p-45", "0x1.0000000000000p-49", "0x1.0000000000000p-51",
        "0x1.c85d441463db0p-54", "0x1.0000000000000p-49",
    ),
    ("euclidean", 2, 0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.8000000000000p-45",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.07e0f66afed07p-49",
    ),
    ("euclidean", 2, 20260814): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.0000000000000p-44",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-49", "0x1.007fe00ff6070p-49",
    ),
    ("euclidean", 2, 12742532702349066664): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.0000000000000p-44",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.1e3779b97f4a8p-49",
    ),
    ("euclidean", 3, 0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.8000000000000p-44",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.09cfdcd8ed009p-49",
    ),
    ("euclidean", 3, 20260814): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.0000000000000p-44",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-49", "0x1.1e3779b97f4a8p-49",
    ),
    ("euclidean", 3, 12742532702349066664): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-48", "0x1.0000000000000p-44",
        "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p-49", "0x1.1e3779b97f4a8p-49",
    ),
    ("halfplane", 2, 20260814): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0980000000000p-46", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.2000000000000p-49", "0x1.0fdd5f9e6b866p-45",
    ),
    ("tripod", 2, 7): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.8000000000000p-45", "0x1.0000000000000p-49", "0x1.4000000000000p-51",
        "0x1.4000000000000p-50", "0x1.0000000000000p-49",
    ),
    # Recorded while the tripod and the half-plane still ran sample by
    # sample.  10275544119336676368 is the ensemble seed of the first
    # benchmark run of halfplane-sppa-witness; 20260814 is the seed of the
    # shipped tripod config.
    ("halfplane", 2, 0): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.1800000000000p-45", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.c000000000000p-50", "0x1.a36bd5afcec22p-44",
    ),
    # projection_firm re-recorded (was 0x1.0000000000000p-49) when the
    # geodesic took its abscissa from the nearer end.
    ("halfplane", 2, 10275544119336676368): (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.3a00000000000p-46", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.c000000000000p-50", "0x1.8dae58ee86f0ep-45",
    ),
    ("tripod", 2, 0): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.0000000000000p-44", "0x1.0000000000000p-49", "0x1.4000000000000p-51",
        "0x1.0000000000000p-50", "0x1.0000000000000p-49",
    ),
    ("tripod", 2, 20260814): (
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-49", "0x1.0000000000000p-49",
        "0x1.8000000000000p-45", "0x1.0000000000000p-49", "0x1.4000000000000p-51",
        "0x1.4000000000000p-50", "0x1.0000000000000p-49",
    ),
}


@pytest.mark.parametrize("space, dim, seed", sorted(_SUITE_RESIDUALS, key=str))
def test_geometry_suite_residuals_are_bit_for_bit_recorded(space, dim, seed):
    summary = geometry_suite(space, seed=seed, dim=dim)
    got = tuple(v.hex() for v in summary["residuals"].values())
    assert list(summary["residuals"]) == [
        "symmetry", "identity", "triangle", "geodesic_parameter", "cn", "quasi_triangle",
        "projection_nonexpansive", "projection_firm", "ray_additivity",
    ]
    assert got == _SUITE_RESIDUALS[space, dim, seed]
    assert summary["pass"] is True


def test_suite_residuals_of_a_batch_equal_its_points_entry_by_entry():
    # The maxima above hide every residual below them; here each one counts.
    # The quasi-triangle entries for q = 2, 3 are all far below 0, and NumPy's
    # power would round some of them unlike a point's d ** q.
    from fejerlab.spaces import (
        _main_residuals, _projection_residuals, _ray_residuals, _set_samples, _suite_sets,
    )

    g = np.random.default_rng(3)
    n = 400
    for dim in (1, 2, 3):
        cols = [g.uniform(-5.0, 5.0, n) for _ in range(3 * dim)]
        t = g.uniform(0.0, 1.0, n)
        t[:3] = (0.0, 1.0, 0.5)
        v = g.normal(size=(dim, n))
        v /= np.sqrt((v * v).sum(axis=0))
        s1, s2 = g.uniform(0.0, 3.0, n), g.uniform(0.0, 3.0, n)
        x, y, o = (Euclidean(tuple(cols[k * dim : (k + 1) * dim])) for k in range(3))
        sets = [(c, _set_samples(c)) for c in _suite_sets("euclidean", dim)]
        batch = (
            _main_residuals(x, y, o, t)
            + _projection_residuals(sets, x, y)
            + _ray_residuals(x, EuclideanDir(tuple(v)), s1, s2)
        )
        for i in range(n):
            xi, yi, oi = (Euclidean(tuple(float(c[i]) for c in p.coords)) for p in (x, y, o))
            di = EuclideanDir(tuple(float(c[i]) for c in v))
            point = (
                _main_residuals(xi, yi, oi, float(t[i]))
                + _projection_residuals(sets, xi, yi)
                + _ray_residuals(xi, di, float(s1[i]), float(s2[i]))
            )
            assert [r[i].hex() for r in batch] == [r.hex() for r in point], (dim, i)


# Per space, the rows of the entry-by-entry check below: (x, y, o, t,
# direction, s1, s2).  Random samples as the suite draws them, then every
# branch: t at 0 and 1, coincident points, the tripod's origin and points on
# one ray, heights near the float maximum, abscissae at +-1.7e308, pairs
# more than 1400 apart, the ideal point at infinity and finite ones, and
# arclengths whose ray leaves the float range.
_BIG = 1.7e308


def _tripod_rows(g, n):
    def pt():
        return Tripod(int(g.integers(3)), float(g.uniform(0.0, 5.0)))

    rows = [(pt(), pt(), pt(), float(g.uniform()), TripodEnd(int(g.integers(3))),
             float(g.uniform(0.0, 3.0)), float(g.uniform(0.0, 3.0))) for _ in range(n)]
    o, a, b, c = Tripod(0, 0.0), Tripod(1, 0.5), Tripod(1, 2.0), Tripod(2, 1.5e308)
    rows += [
        (a, b, o, 0.0, TripodEnd(1), 0.0, 0.0),
        (a, b, c, 1.0, TripodEnd(2), 0.5, 0.5),
        (a, a, a, 0.5, TripodEnd(0), 0.5, 1.0),
        (o, b, a, 0.3, TripodEnd(2), 2.0, 0.0),
        (b, o, c, 0.7, TripodEnd(0), 2.0, 3.0),
        (o, o, o, 0.5, TripodEnd(1), 1.0, 1.0),
        (c, Tripod(0, 1.5e308), b, 0.5, TripodEnd(1), _BIG, _BIG),
        (b, c, o, 0.25, TripodEnd(1), 1e-300, 1.0),
    ]
    return rows


def _halfplane_rows(g, n):
    def pt():
        return HalfPlane(float(g.uniform(-3.0, 3.0)), 1e3 ** float(g.uniform(-1.0, 1.0)))

    def end():
        return HalfPlaneIdealPoint(None if g.uniform() < 0.25 else float(g.uniform(-4.0, 4.0)))

    rows = [(pt(), pt(), pt(), float(g.uniform()), end(),
             float(g.uniform(0.0, 3.0)), float(g.uniform(0.0, 3.0))) for _ in range(n)]
    a, b = HalfPlane(0.3, 2.0), HalfPlane(-1.0, 0.5)
    top, corner = HalfPlane(0.0, _BIG), HalfPlane(_BIG, _BIG)
    left, right = HalfPlane(-_BIG, 1.0), HalfPlane(_BIG, 1.0)
    low, high = HalfPlane(0.0, 1e-305), HalfPlane(0.0, 1e305)
    far1, far2 = HalfPlane(-1e300, 1e-300), HalfPlane(1e300, 1e-300)
    none, half = HalfPlaneIdealPoint(None), HalfPlaneIdealPoint(0.5)
    rows += [
        (a, b, a, 0.0, none, 0.0, 0.0),
        (a, b, b, 1.0, half, 0.5, 0.0),
        (a, a, a, 0.5, none, 1.0, 2.0),
        (top, corner, a, 0.1, none, 1.0, 1.0),
        (top, corner, b, 0.9, half, 2.0, 0.5),
        (top, corner, a, 0.5, half, 0.5, 0.5),
        (left, right, a, 0.3, HalfPlaneIdealPoint(_BIG), 1.0, 2.0),
        (right, left, b, 0.6, HalfPlaneIdealPoint(-_BIG), 1.0, 1.0),
        (low, high, a, 0.5, none, 700.0, 5.0),
        (far1, far2, b, 0.25, half, 700.0, 100.0),
        (far2, far1, a, 0.75, none, 800.0, 1.0),
        (b, low, high, 0.4, half, 800.0, 1.0),
    ]
    return rows


def _batch_of(points):
    """The batch of a list of tripod or half-plane points or directions."""
    p = points[0]
    if isinstance(p, Tripod):
        return Tripod(np.array([q.ray for q in points]), np.array([q.coord for q in points]))
    if isinstance(p, HalfPlane):
        return HalfPlane(np.array([q.x for q in points]), np.array([q.y for q in points]))
    if isinstance(p, TripodEnd):
        return TripodEnd(np.array([q.ray for q in points]))
    if isinstance(p, HalfPlaneIdealPoint):
        ends = [math.nan if q.boundary_x is None else q.boundary_x for q in points]
        return HalfPlaneIdealPoint(np.array(ends))
    return np.array(points)


def _helper_results(helper, rows):
    """Each row's residuals as float.hex, or the type of what it raised."""
    out = []
    for row in rows:
        try:
            out.append([r.hex() for r in helper(*row)])
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            out.append(type(exc))
    return out


def _batch_results(helper, rows):
    cols = [_batch_of(list(col)) for col in zip(*rows)]
    batch = helper(*cols)
    n = len(rows)
    return [[np.broadcast_to(r, (n,))[i].hex() for r in batch] for i in range(n)]


@pytest.mark.parametrize("space", ["tripod", "halfplane"])
def test_suite_residuals_of_a_tripod_or_halfplane_batch_equal_its_points(space):
    from fejerlab.spaces import (
        _main_residuals, _projection_residuals, _ray_residuals, _set_samples, _suite_sets,
    )

    g = np.random.default_rng(11)
    rows = (_tripod_rows if space == "tripod" else _halfplane_rows)(g, 300)
    sets = [(c, _set_samples(c)) for c in _suite_sets(space, 2)]
    helpers = (
        (_main_residuals, [r[:4] for r in rows]),
        (lambda x, y: _projection_residuals(sets, x, y), [r[:2] for r in rows]),
        (_ray_residuals, [(r[0],) + r[4:] for r in rows]),
    )
    raised = 0
    with np.errstate(all="ignore"):
        for helper, args in helpers:
            per_point = _helper_results(helper, args)
            good = [a for a, r in zip(args, per_point) if isinstance(r, list)]
            assert _batch_results(helper, good) == [r for r in per_point if isinstance(r, list)]
            for a, r in zip(args, per_point):
                if not isinstance(r, list):  # a batch holding a raising row raises too
                    raised += 1
                    with pytest.raises(r):
                        helper(*(_batch_of([p, q]) for p, q in zip(good[0], a)))
    assert raised >= (0 if space == "tripod" else 4)


@pytest.mark.parametrize("space", ["euclidean", "tripod", "halfplane"])
def test_suite_runs_as_one_batch(monkeypatch, space):
    """The distance is called as often for 100 samples as for 10,000: the
    suite does not fall back to a call per sample."""
    import fejerlab.spaces as spaces

    calls = []
    real = spaces.distance
    monkeypatch.setattr(spaces, "distance", lambda x, y: calls.append(1) or real(x, y))
    counts = []
    for samples in (100, 10_000):
        calls.clear()
        summary = geometry_suite(space, samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert summary["pass"] is True


def test_nan_residual_fails_the_batch_suite(monkeypatch):
    import fejerlab.spaces as spaces

    real = spaces.distance
    monkeypatch.setattr(spaces, "distance", lambda x, y: real(x, y) * math.nan)
    summary = geometry_suite("euclidean", 200, 1, 2, 50)
    assert summary["pass"] is False
    res = summary["residuals"]
    for name in ("symmetry", "identity", "triangle", "geodesic_parameter", "ray_additivity"):
        assert math.isnan(res[name]), (name, res)


@pytest.mark.parametrize("space", ["tripod", "halfplane"])
def test_nan_self_distance_fails_the_batch_suite(monkeypatch, space):
    import fejerlab.spaces as spaces

    # A batch's distance to itself reads NaN; every other distance is exact.
    real = spaces.distance
    monkeypatch.setattr(spaces, "distance", lambda x, y: math.nan if x is y else real(x, y))
    summary = geometry_suite(space, 200, 1, 2, 50)
    assert summary["pass"] is False
    assert math.isnan(summary["residuals"]["identity"])
    assert summary["residuals"]["symmetry"] == 0.0


def test_point_spec_round_trip():
    """A config's point of every space reads as the point it describes."""
    for spec, p in (
        ({"space": "euclidean", "coords": [1.0, -2.5]}, Euclidean((1.0, -2.5))),
        ({"space": "tripod", "ray": 2, "coord": 0.75}, Tripod(2, 0.75)),
        ({"space": "halfplane", "x": -0.5, "y": 2.0}, HalfPlane(-0.5, 2.0)),
    ):
        assert _read_point(spec, "p", spec["space"]) == p
    with pytest.raises(ConfigError, match=r"p\.space: expected one of \('euclidean',\)"):
        _read_point({"space": "sphere"}, "p", "euclidean")


def test_convex_set_spec_round_trip():
    """A config's set of every kind reads as the set it describes; a null
    box bound is unbounded."""
    e = {"space": "euclidean", "coords": [0.0, 1.0]}
    for spec, space, cset in (
        ({"kind": "whole_space"}, "euclidean", WholeSpace()),
        (
            {"kind": "ball", "center": e, "radius": 2.0},
            "euclidean",
            Ball(Euclidean((0.0, 1.0)), 2.0),
        ),
        (
            {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.5},
            "euclidean",
            Halfspace((0.0, 1.0), 0.5),
        ),
        (
            {"kind": "box", "lo": [0.0, None], "hi": [None, 1.0]},
            "euclidean",
            Box((0.0, -math.inf), (math.inf, 1.0)),
        ),
        (
            {"kind": "tripod_segment", "max_coords": [1.0, 2.0, 3.0]},
            "tripod",
            TripodSegment((1.0, 2.0, 3.0)),
        ),
        (
            {
                "kind": "segment",
                "a": {"space": "halfplane", "x": -1.0, "y": 1.0},
                "b": {"space": "halfplane", "x": 1.0, "y": 1.0},
            },
            "halfplane",
            Segment(HalfPlane(-1.0, 1.0), HalfPlane(1.0, 1.0)),
        ),
    ):
        assert _read_set(spec, "s", space) == cset
    with pytest.raises(ConfigError, match=r"s\.kind: expected one of"):
        _read_set({"kind": "cone"}, "s", "euclidean")


def test_invalid_points_rejected():
    import pytest

    with pytest.raises(ValueError):
        HalfPlane(0.0, 0.0)
    with pytest.raises(ValueError):
        Tripod(3, 1.0)
    with pytest.raises(ValueError):
        Tripod(0, -0.5)
    with pytest.raises(ValueError):
        Euclidean(())


def test_mixed_space_distance_rejected():
    import pytest

    with pytest.raises(ValueError):
        distance(Euclidean((0.0,)), Tripod(0, 1.0))


def test_halfspace_projection_rejects_another_dimension():
    with pytest.raises(ValueError, match="dimension"):
        project_convex(Halfspace((1.0, 0.0), 0.0), Euclidean((1.0, 1.0, 1.0)))


# ---------------------------------------------------------------------------
# One Euclidean geometry: a batch of columns equals its points bit for bit
# ---------------------------------------------------------------------------

# Edge cases: a point exactly on the ball's boundary, (3, 4) at radius 5; the
# float just outside it, where radius/d is the float below 1 (a correctly
# rounded quotient of floats d > r never rounds up to 1); the centre of the
# radius-0 ball; a point with a -0.0 coordinate; the degenerate segment's
# point; points beyond each infinite side of the box.
_NEAR = math.nextafter(5.0, math.inf)
EDGE_POINTS = [
    (3.0, 4.0), (_NEAR, 0.0), (0.0, 0.0), (0.5, -1.0), (-0.0, 2.5), (1.0, 1.0),
    (10.0, -7.0), (-3.0, 3.0), (-1e6, 1e6), (2.0, 1.0),
]
EDGE_SETS = [
    WholeSpace(),
    Ball(Euclidean((0.0, 0.0)), 5.0),
    Ball(Euclidean((0.5, -1.0)), 0.0),
    Halfspace((0.6, 0.8), 1.0),
    Halfspace((1.0, 0.0), -0.0),
    Box((-1.0, -math.inf), (math.inf, 2.0)),
    Box((-math.inf, -math.inf), (math.inf, math.inf)),
    Segment(Euclidean((1.0, 1.0)), Euclidean((1.0, 1.0))),
    Segment(Euclidean((-1.0, 0.0)), Euclidean((2.0, 1.0))),
]


def _batch(points):
    """The Euclidean batch of the points, one path per point."""
    return Euclidean(tuple(np.array(col) for col in zip(*points)))


def _bits(value, rows):
    """IEEE bits per path; a column shared by every path is broadcast."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (rows,)).view(np.uint64)


def _assert_rows_equal(batch, per_point):
    """A batch result (a column or a tuple of columns) against the float
    results of its points, compared as bits (so -0.0 != 0.0)."""
    rows = len(per_point)
    if isinstance(batch, tuple):
        for i, col in enumerate(batch):
            assert np.array_equal(_bits(col, rows), _bits([p[i] for p in per_point], rows)), i
    else:
        assert np.array_equal(_bits(batch, rows), _bits(per_point, rows))


def test_batch_geometry_matches_float_geometry():
    X, Y = _batch(EDGE_POINTS), _batch(EDGE_POINTS[::-1])
    pairs = [(Euclidean(x), Euclidean(y)) for x, y in zip(EDGE_POINTS, EDGE_POINTS[::-1])]
    _assert_rows_equal(sqdist(X, Y), [sqdist(x, y) for x, y in pairs])
    _assert_rows_equal(distance(X, Y), [distance(x, y) for x, y in pairs])
    # Each path's subgradient direction toward its own atom; path 7 sits at
    # its atom, where the batch takes s = 0 and the placeholder e_1.
    atoms = ((Euclidean((1.0, 1.0)), 0.5), (Euclidean((-3.0, 3.0)), 0.5))
    problem = BusemannProblem("euclidean", atoms, WholeSpace(), 1.0)
    e = np.arange(len(EDGE_POINTS)) % 2
    direction, s = busemann_subgradient(problem, e, X)
    per_point = [busemann_subgradient(problem, ei, x) for ei, (x, _) in zip(e.tolist(), pairs)]
    assert [si for _, si in per_point].count(0.0) == 1
    _assert_rows_equal(direction.vector, [(1.0, 0.0) if u is None else u.vector for u, _ in per_point])
    _assert_rows_equal(s, [si for _, si in per_point])
    u = EuclideanDir((0.6, -0.8))
    _assert_rows_equal(ray_point(X, u, 2.5).coords, [ray_point(x, u, 2.5).coords for x, _ in pairs])
    # Per-path parameters including both shortcuts, and float parameters.
    t = np.array([0.0, 1.0, 0.5, 0.25, 1.0, 0.0, 0.1, 0.9, 1e-17, 1.0 - 1e-16])
    per_point = [geodesic_point(x, y, ti).coords for (x, y), ti in zip(pairs, t.tolist())]
    _assert_rows_equal(geodesic_point(X, Y, t).coords, per_point)
    for ti in (0.0, 1.0, 0.3):
        per_point = [geodesic_point(x, y, ti).coords for x, y in pairs]
        _assert_rows_equal(geodesic_point(X, Y, ti).coords, per_point)


def _points_of(batch) -> list:
    """The points of a batch, in path order."""
    if isinstance(batch, Euclidean):
        return [Euclidean(c) for c in zip(*(col.tolist() for col in batch.coords))]
    if isinstance(batch, Tripod):
        return [Tripod(r, c) for r, c in zip(batch.ray.tolist(), batch.coord.tolist())]
    return [HalfPlane(x, y) for x, y in zip(batch.x.tolist(), batch.y.tolist())]


@pytest.mark.parametrize(
    "points",
    [
        [Euclidean((1.0, -2.0)), Euclidean((0.0, 3.0)), Euclidean((-4.0, 0.5))],
        [Tripod(0, 1.0), Tripod(2, 0.5), TRIPOD_ORIGIN],
        [HalfPlane(0.0, 1.0), HalfPlane(-1.5, 0.25), HalfPlane(2.0, 3.0)],
    ],
    ids=["euclidean", "tripod", "halfplane"],
)
def test_select_picks_each_path_of_two_batches(points):
    p, q, r = points
    a, b = stack([p, q, r]), stack([q, r, p])
    picked = _select(np.array([True, False, True]), a, b)
    assert type(picked) is type(a)
    assert _points_of(picked) == [p, r, r]
    assert _points_of(_select(np.array([False, True, False]), a, b)) == [q, q, p]
    if isinstance(picked, Tripod):
        assert picked.ray.dtype.kind == "i"


@pytest.mark.parametrize("cset", EDGE_SETS, ids=lambda c: type(c).__name__)
def test_batch_projection_matches_point_projection(cset):
    batch = project_convex(cset, _batch(EDGE_POINTS))
    _assert_rows_equal(batch.coords, [project_convex(cset, Euclidean(p)).coords for p in EDGE_POINTS])


# Euclidean projections, bit for bit, as fejerlab has always computed them.
# The segment's clamped ends are its own a + t (b - a), not a or b itself: at
# t = 0 the -0.0 of a reads 0.0, and at t = 1 b's 0.9 reads 0.8999999999999999.
_PIN_POINTS = [
    (-3.0, -1.0), (5.0, 3.0), (0.3, 0.6), (3.0, 4.0), (6.0, 8.0), (-0.0, 0.2), (_NEAR, 0.0),
    (0.0, 0.0),
]
_B = 0.8999999999999999
_PINNED_PROJECTIONS = {
    "segment": (
        Segment(Euclidean((-0.0, 0.2)), Euclidean((1.0, 0.9))),
        [(0.0, 0.2), (1.0, _B), (0.38926174496644295, 0.47248322147651006), (1.0, _B), (1.0, _B),
         (0.0, 0.2), (1.0, _B), (0.0, 0.2)],
    ),
    "degenerate-segment": (
        Segment(Euclidean((-0.0, 0.2)), Euclidean((-0.0, 0.2))), [(-0.0, 0.2)] * 8,
    ),
    "ball-radius-0": (Ball(Euclidean((0.5, -0.0)), 0.0), [(0.5, -0.0)] * 8),
    # Inside, on the boundary (3, 4), outside at d = 10 and just outside at _NEAR.
    "ball": (
        Ball(Euclidean((0.0, 0.0)), 5.0),
        [(-3.0, -1.0), (4.28746462856272, 2.5724787771376323), (0.3, 0.6), (3.0, 4.0),
         (3.0, 4.0), (-0.0, 0.2), (5.0, 0.0), (0.0, 0.0)],
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_PROJECTIONS))
def test_euclidean_projection_bits_are_pinned(name):
    cset, expected = _PINNED_PROJECTIONS[name]
    for p, q in zip(_PIN_POINTS, expected, strict=True):
        assert np.array_equal(_bits(project_convex(cset, Euclidean(p)).coords, 2), _bits(q, 2)), p
    _assert_rows_equal(project_convex(cset, _batch(_PIN_POINTS)).coords, expected)


def test_nan_distance_reads_as_inside_the_ball():
    # A float point cannot hold a NaN; a batch's NaN path (its columns are
    # unchecked) has a NaN distance, which leaves its coordinates where they are.
    ball = Ball(Euclidean((0.0, 0.0)), 1.0)
    with pytest.raises(ValueError, match=r"coords\[0\]=nan"):
        Euclidean((math.nan, 0.0))
    points = [(math.nan, 0.0), (3.0, 4.0), (0.5, 0.5)]
    expected = [points[0]] + [project_convex(ball, Euclidean(p)).coords for p in points[1:]]
    _assert_rows_equal(project_convex(ball, _batch(points)).coords, expected)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Ball(Euclidean((0.0, 0.0)), math.nan), id="ball-radius"),
        pytest.param(lambda: Halfspace((math.nan, 0.0), 0.0), id="halfspace-normal"),
        pytest.param(lambda: Halfspace((1.0, 0.0), math.nan), id="halfspace-offset"),
        pytest.param(lambda: Box((math.nan,), (1.0,)), id="box-lo"),
        pytest.param(lambda: TripodSegment((1.0, math.nan, 1.0)), id="tripod-segment"),
        pytest.param(lambda: EuclideanDir((math.nan, 0.0)), id="euclidean-dir"),
        pytest.param(lambda: EuclideanDir((np.array([1.0, math.nan]), np.array([0.0, 0.0]))),
                     id="euclidean-dir-batch"),
        pytest.param(lambda: TableSchedule((math.nan,), Harmonic(1.0, 1.0)), id="table-schedule"),
        pytest.param(lambda: FastCertificate(u=math.nan, r=16), id="fast-certificate"),
    ],
)
def test_a_nan_parameter_fails_its_constructor_check(make):
    # Each check is written so that NaN fails it, as a negative radius or an
    # empty box side does.
    with pytest.raises(ValueError):
        make()


def test_float_geometry_keeps_the_point_api_shortcuts():
    x = Euclidean((3.0, 4.0))
    assert project_convex(Ball(Euclidean((0.0, 0.0)), 5.0), x) is x  # on the boundary
    assert project_convex(Halfspace((1.0, 0.0), 3.0), x) is x
    outside = Euclidean((_NEAR, 0.0))
    p = project_convex(Ball(Euclidean((0.0, 0.0)), 5.0), outside)
    assert p is not outside and p.coords[0] < _NEAR
    c = Euclidean((0.5, -1.0))
    assert project_convex(Ball(c, 0.0), x) == c
    assert project_convex(Segment(x, x), Euclidean((9.0, 9.0))) == x


# Entries of every kind a batch may hold: signed zeros, subnormals, normal
# values and infinities, each in a function's domain.
_SUBNORMAL = 2.2250738585072014e-308 / 3.0
_LIBM_ARGS = {
    "hypot": ([0.0, -0.0, 5e-324, _SUBNORMAL, -1.5, 3e300, math.inf, -math.inf],
              [-0.0, 2.5, _SUBNORMAL, 5e-324, 4e300, -0.0, 1.0, 2.0]),
    "asinh": ([0.0, -0.0, 5e-324, -_SUBNORMAL, 1.5, -2e300, math.inf, -math.inf],),
    "log": ([5e-324, _SUBNORMAL, 0.75, 1.0, 1.5, 2e300, math.inf],),
    "exp": ([0.0, -0.0, 5e-324, -_SUBNORMAL, 1.5, -800.0, 700.0, math.inf, -math.inf],),
    "expm1": ([0.0, -0.0, 5e-324, -_SUBNORMAL, 1e-300, -1.5, 700.0, math.inf, -math.inf],),
    "cosh": ([0.0, -0.0, 5e-324, _SUBNORMAL, -1.5, 700.0, math.inf, -math.inf],),
    "pow": ([1e3, 5e-324, _SUBNORMAL, 0.5, 2.0, 0.0, math.inf],
            [-0.0, 2.0, 0.5, -3.0, 0.3, 5.0, 0.5]),
}


def _bits_equal(got, want) -> bool:
    return (
        got.dtype == want.dtype == np.float64
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


@pytest.mark.parametrize("name", sorted(_LIBM_ARGS))
def test_batch_libm_equals_math_bit_for_bit(name):
    f = pow if name == "pow" else getattr(math, name)
    batch = getattr(_LIBM, name)
    args = [np.array(a) for a in _LIBM_ARGS[name]]
    want = np.array([f(*entry) for entry in zip(*_LIBM_ARGS[name])])
    assert _bits_equal(batch(*args), want)
    # A (rows, columns) batch, and 0-d inputs, keep their shapes.
    grid = [np.array([a, a[::-1]]) for a in args]
    want_grid = np.array([want, [f(*e) for e in zip(*(a[::-1] for a in args))]])
    assert _bits_equal(batch(*grid), want_grid)
    for entry in zip(*args):
        assert _bits_equal(batch(*entry), np.array(f(*(float(v) for v in entry))))
    if len(args) == 2:  # a scalar broadcast against an array, either way round
        x, y = _LIBM_ARGS[name]
        want_x = np.array([f(x[0], v) for v in y])
        want_y = np.array([f(v, y[0]) for v in x])
        assert _bits_equal(batch(x[0], args[1]), want_x)
        assert _bits_equal(batch(args[0], y[0]), want_y)
