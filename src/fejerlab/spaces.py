"""Geodesic metric-space kernel for three concrete Hadamard spaces.

Supported spaces:

* ``Euclidean`` — R^d with the usual norm;
* ``Tripod`` — the R-tree made of three rays glued at one origin (the
  minimal branching example of nonpositive curvature);
* ``HalfPlane`` — the hyperbolic upper half-plane (a curved smooth example).

The module provides distances, geodesic interpolation ((1-t)x (+) t y),
geodesic rays toward ideal directions, metric projections onto convex sets,
and the two residuals used to certify the geometry numerically: the CN
(quadratic convexity) inequality along geodesics and the weak quasi-triangle
inequality for the d^q family.

Half-plane geometry is in closed form.  The metric is 2 asinh(|x - y| /
(2 sqrt(y1 y2))); a geodesic point is the hyperboloid's (sinh((1-t)d) x +
sinh(td) y) / sinh d in half-plane coordinates, one formula for every
geodesic, and a ray toward a boundary point is its limit.  A segment
projection (half-plane and tripod) takes the foot's distance from a out of
d(x, a), d(x, b) and d(a, b), by hyperbolic Pythagoras or the Gromov
product, and clamps it to the segment; the suite checks its angle condition
(Bridson-Haefliger, *Metric Spaces of Non-Positive Curvature*, II.2.4).
Tripod geometry reads y on the line through x's ray: y's coordinate is +c
on that ray and -c on another, through the origin, so distances, geodesics
and rays are the line's, and a point's ray is read off its sign.

The point API is the one layer of every space's geometry; no space keeps
a second copy under it.  ``SPACES`` names each space's point class.  A
point's coordinates are its fields (R^d's one field is its coordinate tuple;
``columns``, and ``point`` back): floats, or 1-D arrays with one entry per
path (a tripod's ray column is an int array).  Such a point is a *batch*,
and the point API runs on it unchanged, path by path in each array entry.
The metric ball's projection is one formula for every space, the point at
distance r from the centre on the geodesic toward x.  Every
branch a batch can take per path goes through one select, and each
transcendental function of a batch goes through libm entry by entry, as for
a point, so a batch equals its points bit for bit.  A branch a point rarely
takes is guarded by ``c is not False and _any(c)``: a point pays one
identity test, a batch computes the branch only if some path takes it.

All geometric tolerances are the single constant :data:`GEOM_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace
from typing import Union

import numpy as np

from . import rng

#: Absolute tolerance for every geometric identity check in the package.
GEOM_TOL = 1e-10

#: Config coordinates and set parameters lie in +-DOMAIN, half-plane heights >= 1/DOMAIN.  So
#: d <= 2 DOMAIN sqrt(dim), and the ensemble's sums of d^4 (and gap^2, gap <= d^2) over paths
#: stay below (2 DOMAIN)^4 dim^2 paths = 1.6e201 dim^2 paths: finite while dim^2 paths < 1e107.
DOMAIN = 1e50


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def _float_cols(cols) -> tuple:
    """Coordinates as floats; a batch's columns as float64 arrays."""
    return tuple(np.asarray(c, np.float64) if isinstance(c, np.ndarray) else float(c) for c in cols)


# Whether a condition holds: for a batch, on some path or on every path.
def _any(cond) -> bool:
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _all(cond) -> bool:
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: a bool picks one side whole (a
    point keeps its identity), a boolean array picks per path, column by
    column for coordinate tuples and for two points of one space."""
    if cond is True:
        return a
    if cond is False or not isinstance(cond, np.ndarray):
        return a if cond else b
    cols = _COLUMNS.get(type(a))
    if cols is not None:
        return point(type(a), _select(cond, cols(a), cols(b)))
    if isinstance(a, tuple):
        return tuple(np.where(cond, ai, bi) for ai, bi in zip(a, b))
    return np.where(cond, a, b)


@dataclass(frozen=True)
class Euclidean:
    """A point of R^d, d >= 1, with finite coordinates, or a batch of them
    (see the module notes)."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise ValueError("Euclidean point needs dimension >= 1")
        coords = _float_cols(self.coords)
        for i, c in enumerate(coords):
            # A batch's columns are left unchecked: they are the vector kernel's.
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"Euclidean point needs finite coordinates, got coords[{i}]={c}")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, init=False)
class Tripod:
    """A point of the tripod R-tree: (ray index, finite coordinate >= 0), or
    a batch of them (an int ray column and a float coordinate column).

    The origin (coordinate 0) is canonically stored on ray 0 so that point
    equality is unambiguous.
    """

    ray: int
    coord: float

    def __init__(self, ray: int, coord: float) -> None:
        if isinstance(ray, np.ndarray) or isinstance(coord, np.ndarray):
            ray, coord = np.broadcast_arrays(ray, np.asarray(coord, np.float64))
            ok = ((ray == 0) | (ray == 1) | (ray == 2)) & (coord >= 0.0) & (coord < math.inf)
            if not ok.all():  # the first bad path raises the point's error
                i = int(np.argmin(ok))
                Tripod(ray[i].item(), coord[i].item())
        else:
            coord = float(coord)
            if ray not in (0, 1, 2):
                raise ValueError(f"tripod ray must be 0, 1 or 2, got {ray}")
            if not coord >= 0.0:
                raise ValueError(f"tripod coordinate must be >= 0, got {coord}")
            if coord == math.inf:
                raise ValueError("tripod coordinate must be finite, got inf")
        zero = coord == 0.0
        if zero is not False:  # the origin on ray 0, and -0.0 as 0.0
            ray, coord = _select(zero, 0, ray), _select(zero, 0.0, coord)
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "coord", coord)


@dataclass(frozen=True, init=False)
class HalfPlane:
    """A point of the hyperbolic upper half-plane (finite x, finite y > 0),
    or a batch of them (x and y columns)."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.broadcast_arrays(np.asarray(x, np.float64), np.asarray(y, np.float64))
            ok = (y > 0.0) & (y < math.inf) & (x - x == 0.0)
            if not ok.all():  # the first bad path raises the point's error
                i = int(np.argmin(ok))
                HalfPlane(x[i].item(), y[i].item())
        else:
            x, y = float(x), float(y)
            if not y > 0.0:
                raise ValueError(f"half-plane point needs y > 0, got y={y}")
            if y == math.inf:
                raise ValueError("half-plane point needs a finite y, got y=inf")
            if x - x != 0.0:  # nan for a NaN or infinite x
                raise ValueError(f"half-plane point needs a finite x, got x={x}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


Point = Union[Euclidean, Tripod, HalfPlane]

TRIPOD_ORIGIN = Tripod(0, 0.0)


#: The spaces by name, each with its point class.
SPACES = {"euclidean": Euclidean, "tripod": Tripod, "halfplane": HalfPlane}
_NAMES = {kind: name for name, kind in SPACES.items()}
# A point's columns are its fields in order (R^d's one field is its coordinate tuple).
_COLUMNS = {kind: attrgetter(*(f.name for f in fields(kind))) for kind in _NAMES}


def space_of(p: Point) -> str:
    if type(p) not in _NAMES:
        raise TypeError(f"not a point: {p!r}")
    return _NAMES[type(p)]


def columns(p: Point) -> tuple:
    """A point's coordinates in order, or a batch's columns (``_COLUMNS``)."""
    return _COLUMNS[type(p)](p)


def point(kind: type, cols) -> Point:
    """The point of the class ``kind`` whose coordinates (columns) are ``cols``."""
    return kind(tuple(cols)) if kind is Euclidean else kind(*cols)


def stack(points: list) -> Point:
    """The batch of points of one space, one path per point in list order."""
    return point(type(points[0]), (np.array(c) for c in zip(*map(columns, points))))


def _require_same_space(x: Point, y: Point) -> None:
    if type(x) is not type(y):
        raise ValueError(
            f"points live in different spaces: {space_of(x)} vs {space_of(y)}"
        )
    if isinstance(x, Euclidean) and len(x.coords) != len(y.coords):
        raise ValueError(
            f"Euclidean dimension mismatch: {len(x.coords)} vs {len(y.coords)}"
        )


# ---------------------------------------------------------------------------
# Convex sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WholeSpace:
    """The whole space (trivial constraint)."""


@dataclass(frozen=True)
class Ball:
    """Closed metric ball; radius 0 describes a singleton."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"ball radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class Halfspace:
    """Euclidean halfspace {x : <normal, x> <= offset}; normal is unit."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self) -> None:
        n = tuple(float(c) for c in self.normal)
        nrm = math.sqrt(sum(c * c for c in n))
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"halfspace normal must be a unit vector, |n|={nrm}")
        if math.isnan(self.offset):
            raise ValueError("halfspace offset must not be NaN")
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True)
class Box:
    """Euclidean axis-aligned box; bounds may be +-inf."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(c) for c in self.lo)
        hi = tuple(float(c) for c in self.hi)
        if len(lo) != len(hi):
            raise ValueError("box bounds must have equal dimension")
        if not all(l <= h for l, h in zip(lo, hi)):
            raise ValueError(f"box needs lo <= hi on every side, got {lo} and {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class TripodSegment:
    """Subtree of the tripod: points with coord <= max_coords[ray]."""

    max_coords: tuple[float, float, float]

    def __post_init__(self) -> None:
        m = tuple(float(c) for c in self.max_coords)
        if len(m) != 3 or not all(c >= 0.0 for c in m):
            raise ValueError("tripod segment needs three nonnegative maxima")
        object.__setattr__(self, "max_coords", m)


@dataclass(frozen=True)
class Segment:
    """Geodesic segment between two points of the same space."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        _require_same_space(self.a, self.b)


ConvexSet = Union[WholeSpace, Ball, Halfspace, Box, TripodSegment, Segment]


# ---------------------------------------------------------------------------
# Directions (ideal points / ends)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EuclideanDir:
    """Unit vector of R^d (equivalence class of parallel rays), or a batch
    of them with one entry per path in each column."""

    vector: tuple[float, ...]

    def __post_init__(self) -> None:
        v = _float_cols(self.vector)
        nrm = sum(c * c for c in v) ** 0.5
        if not _all(abs(nrm - 1.0) <= 1e-12):
            raise ValueError(f"direction must be a unit vector, |v|={nrm}")
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class TripodEnd:
    """The ideal end of one tripod ray, or a batch of them (a ray column)."""

    ray: int

    def __post_init__(self) -> None:
        ok = (self.ray == 0) | (self.ray == 1) | (self.ray == 2)
        if ok is not True and not _all(ok):
            raise ValueError(f"tripod ray must be 0, 1 or 2, got {self.ray}")


@dataclass(frozen=True)
class HalfPlaneIdealPoint:
    """Boundary point of the half-plane: finite abscissa or None for infinity
    (the common endpoint of all upward vertical geodesics).  A batch's
    column holds NaN where the point is infinity; a NaN abscissa reads as
    infinity for a point too."""

    boundary_x: float | None


Direction = Union[EuclideanDir, TripodEnd, HalfPlaneIdealPoint]


def euclid_dim(cset: ConvexSet) -> int | None:
    """The dimension of a Euclidean convex set's points; None for the whole
    space and for tripod and half-plane sets."""
    if isinstance(cset, (Ball, Segment)):
        p = cset.center if isinstance(cset, Ball) else cset.a
        return len(p.coords) if isinstance(p, Euclidean) else None
    if isinstance(cset, (Halfspace, Box)):
        return len(cset.normal if isinstance(cset, Halfspace) else cset.lo)
    return None


# ---------------------------------------------------------------------------
# Transcendental functions of a batch
# ---------------------------------------------------------------------------


def _entrywise(f):
    """The libm function ``f`` (from Python's math) entry by entry on
    arrays, as for a point: NumPy's own versions round some entries
    differently.  The arguments broadcast as NumPy's do, and each entry is
    one call of ``f`` on Python floats; the result is a float64 array of the
    broadcast shape (0-d for scalars)."""

    def g(*args):
        cols = np.broadcast_arrays(*args)
        values = map(f, *(c.ravel().tolist() for c in cols))
        return np.fromiter(values, np.float64, cols[0].size).reshape(cols[0].shape)

    return g


# The math functions the geometry calls, for a batch (sqrt is correctly
# rounded in both).  Each geometry function picks this or ``math`` once.
_LIBM = SimpleNamespace(
    sqrt=np.sqrt,
    hypot=_entrywise(math.hypot),
    asinh=_entrywise(math.asinh),
    log=_entrywise(math.log),
    exp=_entrywise(math.exp),
    expm1=_entrywise(math.expm1),
    cosh=_entrywise(math.cosh),
    pow=_entrywise(pow),
)


# ---------------------------------------------------------------------------
# Distance
# ---------------------------------------------------------------------------


def sqdist(x: Point, y: Point) -> float:
    """Squared distance; for Euclidean points computed without the square
    root (exact sum of squared coordinate differences)."""
    _require_same_space(x, y)
    if isinstance(x, Euclidean):
        acc = 0.0
        for xi, yi in zip(x.coords, y.coords):
            d = xi - yi
            acc += d * d
        return acc
    d = distance(x, y)
    return d * d


def distance(x: Point, y: Point) -> float:
    """The metric of the space both points live in."""
    kind = type(x)
    if kind is Euclidean:
        acc = sqdist(x, y)
        return np.sqrt(acc) if isinstance(acc, np.ndarray) else math.sqrt(acc)
    if kind is not type(y):
        _require_same_space(x, y)  # raises: the points live in different spaces
    if kind is Tripod:  # on the line through x's ray (see the module notes)
        return abs(x.coord - (2.0 * (x.ray == y.ray) - 1.0) * y.coord)
    return _halfplane_distance(x, y)


def _halfplane_distance(x: HalfPlane, y: HalfPlane) -> float:
    # arcosh(1 + |x - y|^2 / (2 y1 y2)) without its cancellation near x = y,
    # and with no square that overflows when the heights are far apart.
    dx = x.x - y.x
    m = math if dx.__class__ is float else _LIBM  # a point's columns are floats
    h = m.hypot(dx, x.y - y.y)
    rx, ry = m.sqrt(x.y), m.sqrt(y.y)
    scale = 2.0 * rx * ry
    q = h / scale
    over = scale == math.inf
    if over is not False and _any(over):
        # For heights near the float maximum the scale overflows; its half does not.
        q = _select(over, 0.5 * h / (rx * ry), q)
    d = 2.0 * m.asinh(q)
    far = q == math.inf
    if far is not False and _any(far):  # d beyond ~1419: asinh q = log 2q, taken in logs
        wide = h == math.inf  # x.x - y.x overflows; its half does not
        h = _select(wide, m.hypot(0.5 * x.x - 0.5 * y.x, 0.5 * x.y - 0.5 * y.y), h)
        lh = m.log(_select(far, h, 1.0))
        lh = _select(wide, math.log(2.0) + lh, lh)
        d = _select(far, 2.0 * (lh - 0.5 * m.log(x.y) - 0.5 * m.log(y.y)), d)
    return d


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------


def _halfplane_geodesic(x: HalfPlane, y: HalfPlane, t, d) -> HalfPlane:
    """(1-t)x (+) t y: with D = y1 sinh(td) + y2 sinh((1-t)d),
    (x1 + (x2 - x1) y1 sinh(td) / D, y1 y2 sinh(d) / D).  Each term is
    scaled by -2 e^-d / sqrt(y1 y2), so for d below 1400 none overflows
    and D does not underflow.  Beyond, both terms are scaled by a further
    e^-s that takes the larger to 1, or sqrt(y1 y2) e^-s down to e^709 if
    that takes more, and sqrt(y1 y2) e^-s is taken in logs.  The abscissa is
    taken from the nearer end, from halved abscissae where x2 - x1
    overflows.  A point whose height leaves the float range raises
    ValueError.  d is d(x, y).  A point has 0 < t < 1; a batch's paths at
    t = 0 or 1, or with x = y, take x or y itself."""
    same = d == 0.0
    if same is True:
        return x
    a, b = t * d, (1.0 - t) * d
    m = _LIBM if isinstance(a, np.ndarray) else math
    lh = 0.5 * (m.log(y.y) - m.log(x.y))  # log sqrt(y2 / y1)
    ea, eb = a - d - lh, b - d + lh
    try:
        s, root = 0.0, m.sqrt(x.y) * m.sqrt(y.y)
        far = d >= 1400.0
        if far is not False and _any(far):
            lr = 0.5 * (m.log(x.y) + m.log(y.y))
            top = _select(eb > ea, eb, ea)  # max(ea, eb, lr - 709)
            top = _select(lr - 709.0 > top, lr - 709.0, top)
            s = _select(far, top, 0.0)
            root = _select(far, m.exp(lr - top), root)
        wx = m.exp(ea - s) * m.expm1(-2.0 * a)
        wy = m.exp(eb - s) * m.expm1(-2.0 * b)
        den = _select(same, 1.0, wx + wy)  # 0 where x = y, whose paths take x
        # From the nearer end (wx, wy <= 0, and wx / den is y's weight), so
        # x2 - x1 does not round a far smaller end away.
        h = _select(abs(y.x - x.x) == math.inf, 0.5, 1.0)
        hx, hy = h * x.x, h * y.x
        px = _select(wx >= wy, hx + (hy - hx) * (wx / den), hy - (hy - hx) * (wy / den)) / h
        p = (px, root * (m.expm1(-2.0 * d) / den))
        at_x, at_y = same | (t == 0.0), t == 1.0
        if at_x is not False or at_y is not False:
            p = _select(at_x, (x.x, x.y), _select(at_y, (y.x, y.y), p))
        return HalfPlane(*p)
    except (OverflowError, ZeroDivisionError, ValueError):
        raise ValueError(
            f"geodesic point at t={t!r} from {x} to {y} is out of float range"
        ) from None


def geodesic_point(x: Point, y: Point, t: float, d=None) -> Point:
    """The point (1-t)x (+) t y on the unique geodesic from x to y: x itself
    at t = 0, y itself at t = 1.  For a batch t may hold one parameter per
    path.  A caller that has d(x, y) may pass it as ``d``; the half-plane
    geodesic reads it."""
    kind = type(x)
    if kind is not type(y) or kind is Euclidean:
        _require_same_space(x, y)
    ok = (0.0 <= t) & (t <= 1.0)
    if ok is not True and not _all(ok):
        raise ValueError(f"geodesic parameter must be in [0,1], got {t}")
    if not isinstance(t, np.ndarray):
        if t == 0.0:
            return x
        if t == 1.0:
            return y
    if kind is Euclidean:  # x + t (y - x); a batch's paths at t = 0 or 1 take x or y
        p = tuple(xi + t * (yi - xi) for xi, yi in zip(x.coords, y.coords))
        return Euclidean(_select(t == 0.0, x.coords, _select(t == 1.0, y.coords, p)))
    if kind is HalfPlane:
        return _halfplane_geodesic(x, y, t, _halfplane_distance(x, y) if d is None else d)
    # The tripod: on the line through x's ray (see the module notes); toward
    # the origin, (1-t) x.  A batch's paths at t = 1 take y.
    xc, yc = x.coord, y.coord
    v = xc + t * ((2.0 * (x.ray == y.ray) - 1.0) * yc - xc)
    at_origin = yc == 0.0
    if at_origin is not False:
        v = _select(at_origin, (1.0 - t) * xc, v)
    p = (y.ray + (x.ray - y.ray) * (v >= 0.0), abs(v))  # x's ray where v >= 0
    at_y = t == 1.0
    if at_y is not False:
        p = _select(at_y, (y.ray, yc), p)
    return Tripod(*p)


def ray_point(x: Point, direction: Direction, s: float) -> Point:
    """The point at arclength s >= 0 on the geodesic ray from x toward
    the ideal direction (per path for a batch)."""
    if _any(s < 0.0):
        raise ValueError(f"ray arclength must be >= 0, got {s}")
    if isinstance(x, Euclidean):
        if not isinstance(direction, EuclideanDir):
            raise ValueError("Euclidean point needs a EuclideanDir direction")
        if len(direction.vector) != len(x.coords):
            raise ValueError("direction dimension mismatch")
        return Euclidean(tuple(xi + s * ui for xi, ui in zip(x.coords, direction.vector)))
    if isinstance(x, Tripod):
        if not isinstance(direction, TripodEnd):
            raise ValueError("tripod point needs a TripodEnd direction")
        j = direction.ray
        # On the line through x's ray, end j lies up that ray or down it
        # through the origin; ray j where the point passes below 0.
        v = x.coord + (2.0 * (x.ray == j) - 1.0) * s
        return Tripod(j + (x.ray - j) * (v >= 0.0), abs(v))
    if not isinstance(direction, HalfPlaneIdealPoint):
        raise ValueError("half-plane point needs a HalfPlaneIdealPoint direction")
    b = direction.boundary_x
    up = b is None or b != b  # toward infinity (NaN in a batch's column)
    if up is not False:  # the limit below takes a stand-in end on those paths
        b = _select(up, x.x, b)
    m = _LIBM if isinstance(x.x - b + s, np.ndarray) else math
    # exp may overflow, y leave the float range (then HalfPlane raises), or
    # rho overflow (then k = 0 divides).
    try:
        # The geodesic's limit as its end tends to b: with rho = |x - b| and
        # D = 2 y^2 sinh s + rho^2 e^-s, (x + 2 (b - x) y^2 sinh(s) / D,
        # y rho^2 / D), scaled by 1 / (y rho e^s); k = y / rho.  Toward
        # infinity, (x, y e^s).
        rho = m.hypot(x.x - b, x.y)
        k = x.y / rho
        w = -m.expm1(-2.0 * s)
        e = m.exp(-s)
        den = k * w + e * (e / k)
        p = (x.x + (b - x.x) * (k * w / den), rho * e / den)
        if up is not False:
            p = _select(up, (x.x, x.y * m.exp(_select(up, s, 0.0))), p)
        return HalfPlane(*p)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"ray point at arclength {s!r} from {x} is out of float range") from None


# ---------------------------------------------------------------------------
# Metric projections
# ---------------------------------------------------------------------------


def _project_segment(seg: Segment, x: Point) -> Point:
    """Projection onto a segment [a, b]: in R^d the foot's parameter, in the
    tripod and the half-plane the distance tau from a to the foot of x,
    clamped to [0, L], L = d(a, b)."""
    a, b = seg.a, seg.b
    if isinstance(x, Euclidean):
        num = 0.0
        den = 0.0
        for ai, bi, xi in zip(a.coords, b.coords, x.coords):
            ab = bi - ai
            num += (xi - ai) * ab
            den += ab * ab
        if den == 0.0:
            return a
        t = num / den
        t = _select(t < 0.0, 0.0, _select(t > 1.0, 1.0, t))
        # The segment's own a + t (b - a), also at a clamped t = 0 or 1, where
        # geodesic_point would take a or b itself: its bits are the projection's.
        return Euclidean(tuple(ai + t * (bi - ai) for ai, bi in zip(a.coords, b.coords)))
    L = distance(a, b)
    if L == 0.0:
        return a
    da, db = distance(x, a), distance(x, b)
    if isinstance(x, Tripod):
        tau = 0.5 * (da + L - db)  # the Gromov product (b|x)_a
    else:
        # Pythagoras: cosh d_b / cosh d_a = cosh(L - tau) / cosh tau, solved
        # as e^(2 tau) = (1 - mu) / (mu - e^-2L), mu = e^-L cosh d_b / cosh d_a.
        m = _LIBM if isinstance(da, np.ndarray) else math
        mu = m.exp(db - da - L) * (1.0 + m.exp(-2.0 * db)) / (1.0 + m.exp(-2.0 * da))
        num, den = 1.0 - mu, mu - m.exp(-2.0 * L)
        lo, hi = num <= 0.0, den <= 0.0
        tau = 0.5 * m.log(_select(lo | hi, 1.0, num / _select(hi, 1.0, den)))
        tau = _select(lo, -math.inf, _select(hi, math.inf, tau))
    v = tau / L
    v = _select(0.0 > v, 0.0, v)  # min(max(v, 0.0), 1.0)
    return geodesic_point(a, b, _select(1.0 < v, 1.0, v))


def project_convex(cset: ConvexSet, x: Point) -> Point:
    """Metric projection onto a closed convex set (unique in CAT(0))."""
    if isinstance(cset, WholeSpace):
        return x
    if isinstance(cset, Ball):
        # In every space, the point at distance r from the centre toward x.
        # A NaN distance reads as inside, and a batch's paths inside take
        # t = 1, x itself (d may be 0 there).
        d = distance(x, cset.center)
        outside = d > cset.radius
        if outside is False:
            return x
        t = cset.radius / _select(outside, d, 1.0)
        return geodesic_point(cset.center, x, _select(outside, t, 1.0))
    if isinstance(cset, Segment):
        _require_same_space(cset.a, x)
        return _project_segment(cset, x)
    if isinstance(cset, TripodSegment):
        if not isinstance(x, Tripod):
            raise ValueError("tripod-segment projection needs a tripod point")
        if isinstance(x.ray, np.ndarray):
            m = np.take(cset.max_coords, x.ray)
        else:
            m = cset.max_coords[x.ray]
        inside = x.coord <= m
        if inside is True:
            return x
        return Tripod(x.ray, _select(inside, x.coord, m))
    if not isinstance(cset, (Halfspace, Box)):
        raise TypeError(f"not a convex set: {cset!r}")
    kind = "halfspace" if isinstance(cset, Halfspace) else "box"
    if not isinstance(x, Euclidean):
        raise ValueError(f"{kind} projection is Euclidean-only")
    if euclid_dim(cset) != len(x.coords):
        raise ValueError(f"{kind} dimension mismatch")
    if kind == "box":  # min(max(x, lo), hi) with Python's tie rules, as selects
        m = (_select(xi < lo, lo, xi) for xi, lo in zip(x.coords, cset.lo))
        return Euclidean(tuple(_select(hi < mi, hi, mi) for mi, hi in zip(m, cset.hi)))
    v = 0.0
    for ni, xi in zip(cset.normal, x.coords):
        v += ni * xi
    v = v - cset.offset
    inside = v <= 0.0
    if inside is True:
        return x
    p = tuple(xi - v * ni for ni, xi in zip(cset.normal, x.coords))
    return Euclidean(_select(inside, x.coords, p))


def contains(cset: ConvexSet, x: Point) -> bool:
    """Whether x lies in the set, up to the geometric tolerance."""
    return distance(x, project_convex(cset, x)) <= GEOM_TOL


# ---------------------------------------------------------------------------
# Geometry residuals
# ---------------------------------------------------------------------------


def cn_residual(x: Point, a: Point, b: Point, t: float) -> float:
    """Defect of the quadratic convexity (CN) inequality along the geodesic
    from a to b:  d^2(gamma(t), x) - [(1-t)d^2(a,x) + t d^2(b,x)
    - t(1-t)d^2(a,b)].  Nonpositive (up to rounding) in Hadamard spaces.
    """
    g = geodesic_point(a, b, t)
    return sqdist(g, x) - (
        (1.0 - t) * sqdist(a, x) + t * sqdist(b, x) - t * (1.0 - t) * sqdist(a, b)
    )


def quasi_triangle_residual(q: float, x: Point, y: Point, o: Point) -> float:
    """Defect of the weak quasi-triangle inequality for d^q:
    d^q(x,y) - 2^(q-1) (d^q(x,o) + d^q(y,o)).  Nonpositive for q >= 1."""
    if q < 1.0:
        raise ValueError(f"quasi-triangle exponent must be >= 1, got {q}")
    return _quasi_triangle(q, distance(x, y), distance(x, o), distance(y, o))


def _quasi_triangle(q: float, dxy, dxo, dyo):
    """The quasi-triangle defect from the three distances (arrays for a
    batch, whose powers go through libm entry by entry).  d ** 1.0 is d."""
    if q != 1.0:
        p = _LIBM.pow if isinstance(dxy, np.ndarray) else pow
        dxy, dxo, dyo = p(dxy, q), p(dxo, q), p(dyo, q)
    return dxy - 2.0 ** (q - 1.0) * (dxo + dyo)


# ---------------------------------------------------------------------------
# Randomized geometry certification suite
# ---------------------------------------------------------------------------


# Every section evaluates one residual helper, once, on a batch of all its
# samples.  The batch takes the uniforms at the counters one sample at a time
# would take, and equals its points bit for bit, so the residuals are those
# of the samples run one by one.

_MAIN = (
    "symmetry", "identity", "triangle", "geodesic_parameter", "geodesic_parameter", "cn",
    "quasi_triangle", "quasi_triangle", "quasi_triangle",
)
_RAY = ("ray_additivity", "ray_additivity")


def _main_residuals(x: Point, y: Point, o: Point, t) -> tuple:
    """The metric axioms, the geodesic parameter identity at t, CN and the
    quasi-triangle inequality for q in {1, 2, 3}, in the order of _MAIN."""
    dxy, dxo, dyo = distance(x, y), distance(x, o), distance(y, o)
    g = geodesic_point(x, y, t)
    return (
        abs(dxy - distance(y, x)),
        distance(x, x),
        dxy - (dxo + dyo),
        abs(distance(x, g) - t * dxy),
        abs(distance(g, y) - (1.0 - t) * dxy),
        cn_residual(o, x, y, t),
        _quasi_triangle(1.0, dxy, dxo, dyo),
        _quasi_triangle(2.0, dxy, dxo, dyo),
        _quasi_triangle(3.0, dxy, dxo, dyo),
    )


def _projection_residuals(sets: list, x: Point, y: Point) -> tuple:
    """Per (set, sample points) pair: nonexpansiveness at (x, y), then the
    angle condition at P_C(x) toward each sample point."""
    out = []
    for cset, points in sets:
        px, py = project_convex(cset, x), project_convex(cset, y)
        out.append(distance(px, py) - distance(x, y))
        out += [_angle_residual(x, px, c) for c in points]
    return tuple(out)


def _angle_residual(x: Point, p: Point, c: Point):
    """The angle at p = P_C(x) between x and c in C is >= pi/2
    (Bridson-Haefliger II.2.4): <x - p, c - p> <= 0 in R^d, d(x,c) =
    d(x,p) + d(p,c) on a tree, cosh d(x,c) >= cosh d(x,p) cosh d(p,c)."""
    if isinstance(x, Euclidean):
        return sum((xc - pc) * (cc - pc) for xc, pc, cc in zip(x.coords, p.coords, c.coords))
    if isinstance(x, Tripod):
        return distance(x, p) + distance(p, c) - distance(x, c)
    dxp = distance(x, p)
    m = _LIBM if isinstance(dxp, np.ndarray) else math
    return m.cosh(dxp) * m.cosh(distance(p, c)) / m.cosh(distance(x, c)) - 1.0


def _ray_residuals(x: Point, direction: Direction, s1, s2) -> tuple:
    """Ray additivity over arclengths s1 then s2, and the arclength s1."""
    p1 = ray_point(x, direction, s1)
    p2 = ray_point(p1, direction, s2)
    p12 = ray_point(x, direction, s1 + s2)
    return distance(p2, p12), abs(distance(x, p1) - s1)


def _suite_sets(space: str, dim: int) -> list[ConvexSet]:
    if space == "euclidean":
        e1 = tuple([1.0] + [0.0] * (dim - 1))
        mid = Euclidean(tuple([0.5] + [-0.25] * (dim - 1)))
        lo = tuple([-1.0] * dim)
        hi = tuple([0.5] * dim)
        sa = Euclidean(tuple([-1.0] * dim))
        sb = Euclidean(tuple([2.0] + [0.5] * (dim - 1)))
        return [
            Halfspace(e1, 0.0),
            Ball(mid, 1.2),
            Box(lo, hi),
            Segment(sa, sb),
        ]
    if space == "tripod":
        return [
            TripodSegment((1.5, 1.0, 2.0)),
            Ball(Tripod(0, 0.5), 1.0),
            Segment(Tripod(1, 2.0), Tripod(2, 1.0)),
        ]
    return [
        Ball(HalfPlane(0.0, 1.0), 0.8),
        Segment(HalfPlane(-1.0, 1.0), HalfPlane(1.5, 2.0)),
    ]


def _set_samples(cset: ConvexSet) -> list[Point]:
    if isinstance(cset, Halfspace):
        d = len(cset.normal)
        pts = [Euclidean(tuple(o * n for n in cset.normal)) for o in (cset.offset,)]
        interior = Euclidean(tuple((cset.offset - 1.0) * n for n in cset.normal))
        side = Euclidean(
            tuple(
                cset.offset * n + (0.7 if i == d - 1 and d > 1 else 0.0)
                for i, n in enumerate(cset.normal)
            )
        )
        return pts + [interior, project_convex(cset, side)]
    if isinstance(cset, Ball):
        return [cset.center]
    if isinstance(cset, Box):
        lo, hi = cset.lo, cset.hi
        corners = [Euclidean(lo), Euclidean(hi)]
        corners.append(Euclidean(tuple(0.5 * (l + h) for l, h in zip(lo, hi))))
        return corners
    if isinstance(cset, Segment):
        return [cset.a, cset.b, geodesic_point(cset.a, cset.b, 0.5)]
    if isinstance(cset, TripodSegment):
        return [TRIPOD_ORIGIN] + [
            Tripod(i, cset.max_coords[i]) for i in range(3) if cset.max_coords[i] > 0
        ]
    return []


def _uniform_columns(state: rng.RngState, n: int, k: int):
    """The uniforms of n samples that draw k each, as k columns of n, and
    the state after them."""
    u = rng.uniform_run(state.key, state.counter, n * k).reshape(n, k)
    return u.T, rng.RngState(state.key, state.counter + n * k)


def _sample_points(space: str, cols):
    """The batch of sample points from their uniforms (columns u, v, ...):
    R^d's in [-5, 5)^d, the tripod's on ray int(3u) at coordinate 5v, the
    half-plane's at x = 6u - 3 with height 1e3^(2v - 1)."""
    if space == "euclidean":
        return Euclidean(tuple(10.0 * u - 5.0 for u in cols))
    u, v = cols
    if space == "tripod":
        return Tripod((u * 3.0).astype(np.int64) % 3, 5.0 * v)
    return HalfPlane(6.0 * u - 3.0, _LIBM.pow(1e3, 2.0 * v - 1.0))


def _unit_vector(us: list[float], dim: int) -> tuple[float, ...]:
    """A spherically symmetric unit vector of R^dim from a Box-Muller pair
    per two dimensions.  It stays on libm's log, cos and sin, one sample at
    a time: NumPy's may round differently."""
    comps: list[float] = []
    for u1, u2 in zip(us[::2], us[1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        comps.append(r * math.cos(2.0 * math.pi * u2))
        comps.append(r * math.sin(2.0 * math.pi * u2))
    v = comps[:dim]
    nrm = math.sqrt(sum(c * c for c in v))
    if nrm == 0.0:
        v, nrm = [1.0] + [0.0] * (dim - 1), 1.0
    return tuple(c / nrm for c in v)


def _ray_samples(space: str, state: rng.RngState, n: int, dim: int):
    """The ray section's start points, directions and arclengths s1, s2 (in
    [0, 3)), each a batch of n.  A direction is a unit vector of R^d, a
    tripod end, or a half-plane ideal point: infinity with chance 1/4, else
    a second uniform's abscissa in [-4, 4)."""
    if space == "euclidean":
        pairs = 2 * ((dim + 1) // 2)  # Box-Muller draws a pair per two dimensions
        u, _ = _uniform_columns(state, n, dim + pairs + 2)
        rows = u[dim : dim + pairs].T.tolist()
        vectors = np.array([_unit_vector(us, dim) for us in rows]).reshape(len(rows), dim)
        direction = EuclideanDir(tuple(vectors.T))
    elif space == "tripod":
        u, _ = _uniform_columns(state, n, 5)
        direction = TripodEnd((u[2] * 3.0).astype(np.int64) % 3)
    else:
        # A sample draws 5 uniforms, or 6 when its direction takes an
        # abscissa, so where each starts depends on the ones before it.
        flat = rng.uniform_run(state.key, state.counter, 6 * n).tolist()
        rows, pos = [], 0
        for _ in range(n):
            finite = flat[pos + 2] >= 0.25  # 0 or 1 more uniform
            b = 8.0 * flat[pos + 3] - 4.0 if finite else math.nan
            rows.append((flat[pos], flat[pos + 1], b, flat[pos + 3 + finite], flat[pos + 4 + finite]))
            pos += 5 + finite
        u = np.array(rows, np.float64).reshape(n, 5).T
        direction = HalfPlaneIdealPoint(u[2])
    k = dim if space == "euclidean" else 2
    return _sample_points(space, u[:k]), direction, 3.0 * u[-2], 3.0 * u[-1]


def _sections(space: str, state, samples: int, projection_samples: int, sets, dim: int):
    """The three sections' residuals, each section's samples drawn as one
    block of uniforms and run as one batch."""
    k = dim if space == "euclidean" else 2  # uniforms per sample point
    u, state = _uniform_columns(state, samples, 3 * k + 1)
    x, y, o = (_sample_points(space, u[i * k : (i + 1) * k]) for i in range(3))
    main = _main_residuals(x, y, o, u[3 * k])
    u, state = _uniform_columns(state, projection_samples, 2 * k)
    proj = _projection_residuals(sets, _sample_points(space, u[:k]), _sample_points(space, u[k:]))
    return main, proj, _ray_residuals(*_ray_samples(space, state, projection_samples, dim))


def _worst(names: tuple, section: tuple, residuals: dict) -> None:
    """Fold a section's residuals (a column, or one value, per name) into
    the largest residual per name.  A NaN residual is kept (``max`` would
    drop it), so it fails the suite."""
    for name, col in zip(names, section):
        m = residuals[name]
        v = float(np.max(col, initial=m))  # NaN if any entry is
        residuals[name] = v if v > m or v != v else m


def geometry_suite(
    space: str,
    samples: int = 10_000,
    seed: int = 0,
    dim: int = 2,
    projection_samples: int = 1_000,
) -> dict:
    """Randomized certification of the metric geometry of one space.

    Checks metric axioms (symmetry, identity, triangle inequality), the
    geodesic parameter identity, the CN inequality, the weak quasi-triangle
    inequality for q in {1,2,3} (``samples`` draws), projection
    nonexpansiveness and the projection's angle condition at sample points
    of each set, and ray additivity (``projection_samples`` draws each).
    Each section runs as one batch of all its samples, and a batch equals
    its points bit for bit.  Returns a dict of maximal residuals and a
    ``pass`` flag (every residual <= GEOM_TOL; a NaN residual fails).
    """
    if space not in SPACES:
        raise ValueError(f"unknown space kind: {space!r}")
    state = rng.make_state(seed, 0)
    sets = [(cset, _set_samples(cset)) for cset in _suite_sets(space, dim)]
    main, proj, ray = _sections(space, state, samples, projection_samples, sets, dim)
    proj_names = ()
    for _, points in sets:
        proj_names += ("projection_nonexpansive",) + ("projection_firm",) * len(points)
    residuals = dict.fromkeys(_MAIN + proj_names + _RAY, 0.0)
    _worst(_MAIN, main, residuals)
    _worst(proj_names, proj, residuals)
    _worst(_RAY, ray, residuals)
    return {
        "space": space,
        "samples": samples,
        "tolerance": GEOM_TOL,
        "residuals": residuals,
        "pass": all(v <= GEOM_TOL for v in residuals.values()),
    }
