"""Concrete stochastic problem instances.

Three families are supported, each bundling a sampler over a finite index
set, per-sample data, an exact solution-set projector, Lipschitz data, and the
growth of the gap that the solution-set derivation proves (the regularity
modulus is read off it):

* :class:`MeanMinProblem` — minimize the mean of per-atom costs (half squared
  distance, i.e. Frechet-mean / proximal instances, or plain distance, i.e.
  median instances);
* :class:`FixedPointProblem` — find a common fixed point of metric
  projections drawn at random (convex feasibility);
* :class:`BusemannProblem` — minimize a mean of distance costs over a
  constraint set by moving along geodesic rays toward ideal points.

A problem is built from its data alone (space, weighted atoms or sets,
cost kind or constraint set, region bound; ``_MeanCost`` declares what the
two mean-cost problems share).  Its solution set, anchor and growth of F
(``v`` for a fixed-point problem) are derived in closed form at
construction, never passed in; shapes without a closed form are rejected
rather than approximated.  All integrals are exact finite sums, so
regularity validation carries no Monte-Carlo error.  A point solution set
(a ball of radius 0) is measured by the distance to its center.

The per-sample maps, ``gap_F`` and ``dist_to_solutions`` also take a
batch of any space (see :mod:`fejerlab.spaces`), with an index array of
each path's drawn atom or operator.  Their branches (x at the drawn atom,
the drawn set, max(0, .)) go through ``spaces._select``, so a batch equals
its points bit for bit.  ``sample_data`` takes what they share at x once: the
operator images of a fixed-point problem, the atom distances of a distance
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .spaces import (
    Ball,
    Box,
    ConvexSet,
    Direction,
    Euclidean,
    EuclideanDir,
    Halfspace,
    HalfPlane,
    Point,
    Segment,
    TRIPOD_ORIGIN,
    Tripod,
    TripodEnd,
    TripodSegment,
    _select,
    contains,
    distance,
    euclid_dim,
    geodesic_point,
    project_convex,
    space_of,
    sqdist,
)

HALF_SQUARED = "half_squared_distance"
DISTANCE = "distance"


#: What a solution-set derivation knows of the gap F: ("quadratic", c) for
#: F(x) >= c d^2(x, S) and ("sharp", c) for F(x) >= c d(x, S) on the whole
#: space, or None when no such bound is known.
Growth = tuple[str, float] | None


class NoModulusKnownError(ValueError):
    """Raised when no regularity modulus is known for an instance shape.

    A guessed modulus would silently invalidate every certificate built on
    top of it, so unsupported shapes fail loudly instead.
    """


def _check_weights(weights: tuple[float, ...]) -> None:
    if not weights:
        raise ValueError("need at least one atom/operator")
    if not all(w > 0.0 for w in weights):  # NaN is not positive either
        raise ValueError("weights must be positive")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total}")


def _cum_weights(weights: tuple[float, ...]) -> tuple[float, ...]:
    """The cumulative weights as floats: a draw bisects them (see
    ``rng.categorical``)."""
    return tuple(np.cumsum(np.asarray(weights, dtype=np.float64)).tolist())


def _solution_atom(atoms, solution_set: ConvexSet) -> int | None:
    """The index of the atom a point solution set sits at, or None."""
    if isinstance(solution_set, Ball) and solution_set.radius == 0.0:
        return next((i for i, (a, _) in enumerate(atoms) if a == solution_set.center), None)
    return None


# ---------------------------------------------------------------------------
# Problem types
# ---------------------------------------------------------------------------


def _set(problem, **derived) -> None:
    """Set a frozen problem's derived fields."""
    for name, value in derived.items():
        object.__setattr__(problem, name, value)


@dataclass(frozen=True, eq=False)
class _MeanCost:
    """What the two mean-cost problems share: their space, (point, weight)
    atoms, the fields derived from them and their checks.  A subclass adds
    its cost kind or constraint set and the region bound B."""

    space: str
    atoms: tuple[tuple[Point, float], ...]
    solution_set: ConvexSet = field(init=False)
    solution_anchor: Point = field(init=False)
    growth: Growth = field(init=False)
    min_value: float = field(init=False)
    cum_weights: tuple[float, ...] = field(init=False, repr=False)
    solution_atom: int | None = field(init=False, repr=False)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def _settle(self, derive, given) -> None:
        """Check the region bound, the weights and the atoms' space, then set
        the solution set, anchor and growth that derive(space, atoms, given)
        proves from the checked data, and what follows."""
        if not self.region_bound > 0.0:
            raise ValueError("region bound must be > 0")
        _check_weights(self.weights)
        if any(space_of(a) != self.space for a, _ in self.atoms):
            raise ValueError("atom lies outside the declared space")
        solution_set, anchor, growth = derive(self.space, self.atoms, given)
        atom = _solution_atom(self.atoms, solution_set)
        _set(self, solution_set=solution_set, solution_anchor=anchor, growth=growth)
        _set(self, cum_weights=_cum_weights(self.weights), solution_atom=atom)
        _set(self, min_value=mean_cost_exact(self, anchor))


@dataclass(frozen=True, eq=False)
class MeanMinProblem(_MeanCost):
    """Minimize f_bar(x) = sum_i w_i f(i, x) over the whole space.  Data:
    space, atoms, cost kind, region bound B."""

    cost_kind: str
    region_bound: float

    def __post_init__(self) -> None:
        if self.cost_kind not in (HALF_SQUARED, DISTANCE):
            raise ValueError(f"unknown cost kind: {self.cost_kind!r}")
        self._settle(_derive_mean_min_solution, self.cost_kind)


@dataclass(frozen=True, eq=False)
class FixedPointProblem:
    """Find a common fixed point of the metric projections onto the sets.
    Data: space, sets, weights.  Derived: their intersection S, its anchor
    and ``v``, the least constant with d^2(x, S) <= v F(x) (everywhere)."""

    space: str
    sets: tuple[ConvexSet, ...]
    weights: tuple[float, ...]
    solution_set: ConvexSet = field(init=False)
    solution_anchor: Point = field(init=False)
    v: float = field(init=False)
    region_bound: float = field(default=math.inf, init=False)
    cum_weights: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_weights(self.weights)  # before v divides by their sums
        if len(self.sets) != len(self.weights):
            raise ValueError("need one weight per operator")
        solution_set, anchor, v = _derive_intersection(self.space, self.sets, self.weights)
        if space_of(anchor) != self.space:
            raise ValueError("operator sets lie outside the declared space")
        if not contains(solution_set, anchor):
            raise ValueError("anchor does not lie in the solution set")
        _set(self, solution_set=solution_set, solution_anchor=anchor, v=v)
        _set(self, cum_weights=_cum_weights(self.weights))

    @property
    def growth(self) -> Growth:
        # Linear regularity: dist^2 <= v * E[d^2(T_k x, x)] = v * F(x).
        return ("quadratic", 1.0 / self.v)


@dataclass(frozen=True, eq=False)
class BusemannProblem(_MeanCost):
    """Minimize a mean of distance costs over a constraint set C by
    Busemann-subgradient steps.  Data: space, atoms, C, region bound B;
    the solution set is the constrained argmin."""

    constraint: ConvexSet
    region_bound: float

    def __post_init__(self) -> None:
        if self.space not in ("euclidean", "tripod"):
            raise ValueError("Busemann instances support euclidean and tripod spaces")
        self._settle(_derive_busemann_solution, self.constraint)
        if not contains(self.constraint, self.solution_anchor):
            raise ValueError("solution anchor does not lie in the constraint set")

    @property
    def cost_kind(self) -> str:
        return DISTANCE


Problem = MeanMinProblem | FixedPointProblem | BusemannProblem


# ---------------------------------------------------------------------------
# Solution-set derivation
# ---------------------------------------------------------------------------


def _euclid_mean_point(atoms: tuple[tuple[Point, float], ...]) -> Euclidean:
    dim = len(atoms[0][0].coords)
    if any(len(a.coords) != dim for a, _ in atoms):
        raise ValueError("atoms have mismatched dimensions")
    coords = []
    for i in range(dim):
        coords.append(math.fsum(w * a.coords[i] for a, w in atoms))
    return Euclidean(tuple(coords))


def _tripod_frechet_point(atoms) -> Tripod:
    # On ray j at coordinate t the mean half-squared cost is
    # (t^2 + 2 t (M - 2 S_j) + sum w c^2) / 2 with S_j the weighted atom
    # coordinate mass on ray j and M the total; the candidate minimizer on
    # ray j is t_j = max(0, 2 S_j - M), positive for at most one ray.
    S = [0.0, 0.0, 0.0]
    for a, w in atoms:
        if a.coord > 0.0:
            S[a.ray] += w * a.coord
    M = math.fsum(S)
    best = TRIPOD_ORIGIN
    for j in range(3):
        t = 2.0 * S[j] - M
        if t > 0.0:
            best = Tripod(j, t)
    return best


def _tripod_median_growth(space, atoms) -> Growth:
    """Three tripod atoms, one on each ray off the origin, every weight w
    below 1/2: the weighted median then sits at the branch point, a sharp
    minimum with slope 1 - 2 max w.  None for any other layout."""
    top = max(w for _, w in atoms)
    if (
        space == "tripod"
        and len(atoms) == 3
        and sorted(a.ray for a, _ in atoms if a.coord > 0.0) == [0, 1, 2]
        and top < 0.5
    ):
        return ("sharp", 1.0 - 2.0 * top)
    return None


def _derive_mean_min_solution(space, atoms, cost_kind):
    """(solution set, designated anchor, growth of F) in closed form for the
    supported mean-minimization shapes."""
    if len(atoms) == 1:
        # F(x) = d^2(x, a) / 2 or d(x, a) exactly.
        anchor = atoms[0][0]
        growth = ("quadratic", 0.5) if cost_kind == HALF_SQUARED else ("sharp", 1.0)
        return Ball(anchor, 0.0), anchor, growth
    if cost_kind == HALF_SQUARED:
        if space == "euclidean":
            # F(x) = d^2(x, mean) / 2 identically.
            anchor = _euclid_mean_point(atoms)
            return Ball(anchor, 0.0), anchor, ("quadratic", 0.5)
        if space == "tripod":
            # Strong convexity of the mean half-squared cost (parameter 1).
            anchor = _tripod_frechet_point(atoms)
            return Ball(anchor, 0.0), anchor, ("quadratic", 1.0 / 8.0)
        raise ValueError(
            "no closed-form Frechet mean is available for several half-plane atoms"
        )
    # Distance costs.  A majority atom (weight > 1/2) is the weighted median
    # in any metric space: moving distance t away raises its term by w*t and
    # lowers the rest by at most (1-w)*t < w*t.  Otherwise the geometry is
    # only derived for the tripod with one atom per ray and every weight
    # below 1/2.  No growth is derived for a majority atom.
    heaviest = max(atoms, key=lambda aw: aw[1])
    if heaviest[1] > 0.5:
        return Ball(heaviest[0], 0.0), heaviest[0], None
    if growth := _tripod_median_growth(space, atoms):
        return Ball(TRIPOD_ORIGIN, 0.0), TRIPOD_ORIGIN, growth
    raise ValueError(
        "no closed-form median is available for this distance-cost instance"
    )


def _representative_point(cset: ConvexSet, space: str) -> Point:
    if isinstance(cset, Ball):
        return cset.center
    if isinstance(cset, Box):
        return project_convex(cset, Euclidean((0.0,) * len(cset.lo)))
    if isinstance(cset, Halfspace):
        return Euclidean(tuple(cset.offset * n for n in cset.normal))
    if isinstance(cset, Segment):
        return geodesic_point(cset.a, cset.b, 0.5)
    if isinstance(cset, TripodSegment):
        return TRIPOD_ORIGIN
    # WholeSpace, which fixes no dimension: in R^d the anchor is the origin of
    # the plane (so it only suits starts in R^2).
    if space == "euclidean":
        return Euclidean((0.0, 0.0))
    if space == "tripod":
        return TRIPOD_ORIGIN
    return HalfPlane(0.0, 1.0)


def _axis_bounds(cset: ConvexSet, dim: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(lo, hi) of a box, or of a halfspace whose unit normal is exactly
    +-e_i: the set is the product of the intervals [lo_i, hi_i].  A normal
    off the axis by any amount tilts the set, however far out."""
    if isinstance(cset, Box):
        return cset.lo, cset.hi
    axes = [i for i, c in enumerate(cset.normal) if c != 0.0]
    if len(axes) != 1 or abs(cset.normal[axes[0]]) != 1.0:
        raise ValueError(
            "operator intersections are derived only for axis-aligned "
            "halfspace normals"
        )
    sign = 1.0 if cset.normal[axes[0]] > 0 else -1.0
    free = (-sign * math.inf,) * dim
    side = tuple(sign * (cset.offset if i == axes[0] else math.inf) for i in range(dim))
    return (free, side) if sign > 0 else (side, free)


def _derive_intersection(space: str, sets: tuple[ConvexSet, ...], weights: tuple[float, ...]):
    """(solution set, designated anchor, linear-regularity constant v) in
    closed form for the supported operator families: a single set, or
    Euclidean axis-aligned halfspaces and boxes.  v is the least constant
    with d^2(x, S) <= v F(x) everywhere."""
    if len(sets) == 1:
        # F(x) = d^2(x, S).
        return sets[0], _representative_point(sets[0], space), 1.0
    if space != "euclidean":
        raise ValueError(
            "no closed-form intersection for several non-Euclidean operator sets"
        )
    if not all(isinstance(cset, (Halfspace, Box)) for cset in sets):
        raise ValueError(
            "operator intersections are derived only for axis-aligned "
            "halfspaces and boxes"
        )
    dims = {euclid_dim(cset) for cset in sets}
    if len(dims) > 1:
        raise ValueError("operator sets have mismatched dimensions")
    dim = dims.pop()
    bounds = [_axis_bounds(cset, dim) for cset in sets]
    lo = tuple(max(b[0][i] for b in bounds) for i in range(dim))
    hi = tuple(min(b[1][i] for b in bounds) for i in range(dim))
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("operator sets have empty intersection")
    # d^2(x, S) sums over the sides of S that x lies past, and on each the
    # sets that attain S's bound, of total weight W, add W times the same
    # square to F.  So v = max 1/W, attained just past the side of least W.
    v = 1.0
    for side, s_bounds in enumerate((lo, hi)):
        for i, bound in enumerate(s_bounds):
            if math.isfinite(bound):
                W = math.fsum(w for b, w in zip(bounds, weights) if b[side][i] == bound)
                v = max(v, 1.0 / W)
    box = Box(lo, hi)
    return box, project_convex(box, Euclidean((0.0,) * dim)), v


def _derive_busemann_solution(space, atoms, constraint):
    """(constrained argmin, designated anchor, growth of F) in closed form
    for the supported Busemann shapes."""
    if len(atoms) == 1:
        # F(x) = d(x, a) exactly.
        anchor = atoms[0][0]
        if not contains(constraint, anchor):
            raise ValueError("single-atom argmin requires the atom inside C")
        return Ball(anchor, 0.0), anchor, ("sharp", 1.0)
    if len(atoms) == 2 and space == "euclidean":
        (a1, w1), (a2, w2) = atoms
        if abs(w1 - w2) <= 1e-12:
            if not (contains(constraint, a1) and contains(constraint, a2)):
                raise ValueError("segment argmin requires both atoms inside C")
            seg = Segment(a1, a2)
            return seg, geodesic_point(a1, a2, 0.5), None
        heavy = a1 if w1 > w2 else a2
        if not contains(constraint, heavy):
            raise ValueError("two-atom argmin requires the heavier atom inside C")
        # Weak sharp minimum at the heavier atom with slope |w1 - w2|.
        return Ball(heavy, 0.0), heavy, ("sharp", abs(w1 - w2))
    if growth := _tripod_median_growth(space, atoms):
        if not contains(constraint, TRIPOD_ORIGIN):
            raise ValueError("median argmin requires the origin inside C")
        return Ball(TRIPOD_ORIGIN, 0.0), TRIPOD_ORIGIN, growth
    raise ValueError("no closed-form constrained argmin for this atom layout")


# ---------------------------------------------------------------------------
# Sampling and per-sample data
# ---------------------------------------------------------------------------


def sample_index(problem: Problem, state: rng.RngState) -> tuple[int, rng.RngState]:
    """Draw an atom/operator index with the problem's weights."""
    u, state = rng.next_uniform(state)
    return rng.categorical(problem.cum_weights, u), state


def _atom(problem, e) -> Point:
    """The e-th atom; for an index array, the batch of each path's atom
    (a single atom stays a point, which every path shares)."""
    return _pick([a for a, _ in problem.atoms], e)


def _pick(values, e):
    """values[e]; for an index array, each path's entry of its own e
    (values may be columns or points of one space)."""
    if not isinstance(e, np.ndarray):
        return values[e]
    y, *rest = values
    for j, v in enumerate(rest, 1):
        y = _select(e == j, v, y)
    return y


def sample_data(problem: Problem, x: Point) -> tuple | None:
    """What the gap, the solution distance and the step from x share, per
    atom or operator in order: the images T_i x of a fixed-point problem,
    the distances d(x, a_i) of a distance cost; None for a half-squared
    cost, whose Euclidean gap sums squares that distances do not give bit
    for bit.  Each is what the point API takes at x, bit for bit."""
    if isinstance(problem, FixedPointProblem):
        return tuple(project_convex(cset, x) for cset in problem.sets)
    if problem.cost_kind == HALF_SQUARED:
        return None
    return tuple(distance(x, a) for a, _ in problem.atoms)


def cost(problem, e: int, x: Point) -> float:
    """Per-sample cost f(e, x)."""
    a = problem.atoms[e][0]
    if problem.cost_kind == HALF_SQUARED:
        return 0.5 * sqdist(x, a)
    return distance(x, a)


def mean_cost_exact(problem, x: Point, data=None) -> float:
    """f_bar(x) = sum_i w_i f(i, x), an exact finite sum.  ``data`` may
    pass ``sample_data(problem, x)``, a distance cost's atom distances."""
    if problem.cost_kind == HALF_SQUARED:
        costs = [0.5 * sqdist(x, a) for a, _ in problem.atoms]
    else:
        costs = [distance(x, a) for a, _ in problem.atoms] if data is None else data
    total = 0.0
    for (_, w), c in zip(problem.atoms, costs):
        total += w * c
    return total


def gap_F(problem: Problem, x: Point, data=None) -> float:
    """The optimality gap F(x): f_bar(x) - min f_bar for minimization
    instances, the mean squared displacement sum_i p_i d^2(T_i x, x) for
    fixed-point instances.  Zero exactly on the solution set.

    ``data`` may pass ``sample_data(problem, x)`` when the caller already
    has it (the ensemble shares it with the step from x)."""
    if isinstance(problem, FixedPointProblem):
        images = sample_data(problem, x) if data is None else data
        total = 0.0
        for y, p in zip(images, problem.weights):
            total += p * sqdist(y, x)
        return total
    gap = mean_cost_exact(problem, x, data) - problem.min_value
    return _select(gap > 0.0, gap, 0.0)  # max(0.0, gap)


def dist_to_solutions(problem: Problem, x: Point, q: int = 1, data=None) -> float:
    """d(x, solution set)^q for q in {1, 2}.  On a point solution set (a
    ball of radius 0) d is d(x, center), the projection's own distance; at
    an atom, ``data`` = ``sample_data(problem, x)`` holds it already."""
    if q not in (1, 2):
        raise ValueError(f"distance power must be 1 or 2, got {q}")
    sol = problem.solution_set
    atom = None if data is None or isinstance(problem, FixedPointProblem) else problem.solution_atom
    if atom is not None:
        d = data[atom]
    else:
        point = isinstance(sol, Ball) and sol.radius == 0.0
        d = distance(x, sol.center if point else project_convex(sol, x))
    return d if q == 1 else d * d


def prox_step(problem: MeanMinProblem, e: int, lam: float, x: Point, d=None) -> Point:
    """Closed-form proximal point of f(e, .) with step lam at x.  A caller
    that has d(x, a_e) may pass it as ``d``."""
    if not lam > 0.0:
        raise ValueError(f"prox step must be > 0, got {lam}")
    a = _atom(problem, e)
    if problem.cost_kind == HALF_SQUARED:
        return geodesic_point(x, a, lam / (1.0 + lam), d)
    # Move min(lam, d) toward the atom; at the atom (d = 0) t = 0 keeps x.
    d = distance(x, a) if d is None else d
    near = d < lam
    if near is False:  # a point at least lam from the atom, without a select
        return geodesic_point(x, a, lam / d, d)
    t = _select(near, d, lam) / _select(d == 0.0, 1.0, d)
    return geodesic_point(x, a, t, d)


def operator_apply(problem: FixedPointProblem, k: int, x: Point, images=None) -> Point:
    """T_k x, the metric projection onto the k-th set.  For a batch, k holds
    each path's index and T_k x is picked from ``images`` =
    ``sample_data(problem, x)`` (computed here when not passed)."""
    if images is None and not isinstance(k, np.ndarray):
        return project_convex(problem.sets[k], x)
    return _pick(sample_data(problem, x) if images is None else images, k)


# ---------------------------------------------------------------------------
# Busemann machinery
# ---------------------------------------------------------------------------


def busemann_subgradient(
    problem: BusemannProblem, e: int, x: Point, d=None
) -> tuple[Direction | None, float]:
    """Busemann subgradient of f(e, .) = d(., a_e) at x.

    For x != a_e the subgradient is the ideal point of the geodesic ray that
    starts at x, passes through a_e, and continues to infinity (the descent
    direction of the distance cost), with weight s = 1; at x = a_e the zero
    element (s = 0) is returned.  A batch gets a batch of directions and
    one s per path; a path at its atom has s = 0 and a placeholder
    direction (e_1 in R^d, on the tripod the end its classification
    gives), which its zero step ignores.  A caller that has d(x, a_e) may
    pass it as ``d``.
    """
    a = _atom(problem, e)
    d = distance(x, a) if d is None else d
    if not isinstance(d, np.ndarray) and d == 0.0:
        return None, 0.0
    at_atom = d == 0.0
    s = _select(at_atom, 0.0, 1.0)
    if isinstance(x, Euclidean):
        safe = _select(at_atom, 1.0, d)
        u = tuple((ai - xi) / safe for xi, ai in zip(x.coords, a.coords))  # (a - x) / d
        e1 = (1.0,) + (0.0,) * (len(u) - 1)
        return EuclideanDir(_select(at_atom, e1, u)), s
    # Tripod: classify how the geodesic from x arrives at a and extend it.
    # It arrives climbing a's ray, and the extension keeps climbing it,
    # unless a is the origin (the geodesic descends x's ray through it) or
    # a lies below x on x's ray (it arrives descending, passes a and
    # reaches the origin): then it continues along the lowest-index ray
    # other than x's.
    climbs = (a.coord != 0.0) & ((x.coord == 0.0) | (x.ray != a.ray) | (x.coord < a.coord))
    return TripodEnd(_select(climbs, a.ray, 1 * (x.ray == 0))), s


# ---------------------------------------------------------------------------
# Regularity moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaggedModulus:
    """The linear regularity modulus tau(t) = slope * t for d^2, together
    with the radius of the ball around the solution anchor on which it is
    valid (inf when global)."""

    slope: float
    region: float


def regularity_modulus_for(problem: Problem) -> TaggedModulus:
    """The exact regularity modulus tau of the instance for d^2: tau(d^2(x,
    S)) <= F(x) on the tagged region.  Being linear, it is also a modulus in
    mean: tau(E d^2) = E tau(d^2) <= E F.

    It is read off the growth the solution-set derivation recorded: F >= c
    d^2 gives slope c everywhere, and F >= c d gives slope c / B on the ball
    of radius B = region_bound, where d <= B.  An instance without a known
    growth raises NoModulusKnownError rather than guessing.
    """
    if problem.growth is None:
        raise NoModulusKnownError(
            f"no regularity modulus is known for this instance shape "
            f"({type(problem).__name__}, space={problem.space!r}, "
            f"{len(getattr(problem, 'atoms', getattr(problem, 'sets', ())))} terms, q=2)"
        )
    shape, c = problem.growth
    if shape == "quadratic":
        return TaggedModulus(c, math.inf)
    B = problem.region_bound
    return TaggedModulus(c / B, B)


# ---------------------------------------------------------------------------
# Catalogue instances
# ---------------------------------------------------------------------------


def frechet_r1() -> MeanMinProblem:
    """Frechet mean of the two points +-1 on the line (half squared costs):
    minimizer 0, minimum value 1/2, F(t) = t^2 / 2."""
    atoms = ((Euclidean((-1.0,)), 0.5), (Euclidean((1.0,)), 0.5))
    return MeanMinProblem("euclidean", atoms, HALF_SQUARED, 4.0)


def tripod_median(region_bound: float = 2.0) -> MeanMinProblem:
    """Weighted median of one unit atom per tripod ray (equal weights):
    minimizer at the branch point, minimum value 1."""
    w = 1.0 / 3.0
    atoms = ((Tripod(0, 1.0), w), (Tripod(1, 1.0), w), (Tripod(2, 1.0), w))
    return MeanMinProblem("tripod", atoms, DISTANCE, region_bound)


def tripod_frechet() -> MeanMinProblem:
    """Frechet mean (half squared costs) of three tripod atoms with unequal
    weights; the minimizer sits strictly inside the heaviest ray."""
    atoms = ((Tripod(0, 2.0), 0.5), (Tripod(1, 1.0), 0.3), (Tripod(2, 1.0), 0.2))
    return MeanMinProblem("tripod", atoms, HALF_SQUARED, 4.0)


def halfplane_single_atom() -> MeanMinProblem:
    """Half squared distance to one hyperbolic atom (prox flows along the
    geodesic toward it)."""
    return MeanMinProblem("halfplane", ((HalfPlane(0.0, 1.0), 1.0),), HALF_SQUARED, 3.0)


def two_halfspace() -> FixedPointProblem:
    """Common fixed points of the projections onto {x1 <= 0} and {x2 <= 0}
    in the plane (equal probabilities): the third quadrant, with exact
    linear-regularity constant v = 2."""
    sets = (Halfspace((1.0, 0.0), 0.0), Halfspace((0.0, 1.0), 0.0))
    return FixedPointProblem("euclidean", sets, (0.5, 0.5))


def segment_argmin() -> BusemannProblem:
    """Mean distance to the two foci (+-1, 0) over the box [-2,2]^2: the
    argmin is the whole segment between the foci (minimum value 1)."""
    atoms = ((Euclidean((-1.0, 0.0)), 0.5), (Euclidean((1.0, 0.0)), 0.5))
    box = Box((-2.0, -2.0), (2.0, 2.0))
    return BusemannProblem("euclidean", atoms, box, 4.0)


def r1_single_atom_busemann() -> BusemannProblem:
    """|x - 1| over C = [-2, 2] on the line."""
    atoms = ((Euclidean((1.0,)), 1.0),)
    return BusemannProblem("euclidean", atoms, Box((-2.0,), (2.0,)), 3.0)


def euclid_two_atom_busemann() -> BusemannProblem:
    """Unequally weighted two-atom mean distance: a weak sharp minimum at
    the heavier atom."""
    atoms = ((Euclidean((-1.0, 0.0)), 0.7), (Euclidean((1.0, 0.0)), 0.3))
    box = Box((-3.0, -3.0), (3.0, 3.0))
    return BusemannProblem("euclidean", atoms, box, 4.0)


def tripod_median_busemann(region_bound: float = 2.0) -> BusemannProblem:
    """The tripod median solved with Busemann subgradient steps, constrained
    to the subtree of radius 2."""
    w = 1.0 / 3.0
    atoms = ((Tripod(0, 1.0), w), (Tripod(1, 1.0), w), (Tripod(2, 1.0), w))
    cset = TripodSegment((2.0, 2.0, 2.0))
    return BusemannProblem("tripod", atoms, cset, region_bound)
