"""The three stochastic iterations and their explicit rate certificates.

A path's iteration is written once, in ``path_iterates``; ``run_path``
keeps its first `horizon` points, and the ensemble harness's scalar kernel
runs one per path.  A path is deterministic given (problem, algorithm,
schedule, x0, seed, path_index): each step consumes exactly one uniform
draw from the path's counter-based stream to select an atom/operator
index, so trajectories are bit-reproducible and independent paths never
share randomness.

Every algorithm is described once, by its entry in ``_SPECS``: its one
step (a path takes it on one point, the ensemble harness's wide kernel on
a batch of all paths, the one-step audit ``harness.fejer_margin`` once per
index), run validation, the rate certificates and the gap windows.  The
schedules a run admits follow from the noise term: with none (L = T = 0)
any relaxations in (0, 1], with one a harmonic schedule, whose squared sum
T is finite.  The printed rate functions are

* proximal (sppa):    rho(eps) = theta(chi(eps / 24 Lbar), (b + 4 L^2 T) / (tau eps/6))
* Krasnoselskii-Mann (skm):  rho(eps) = theta(0, b / (tau eps/6))
* Busemann subgradient (sb): rho(eps) = theta(chi(eps / 6 L^2), (b + L^2 T) / (tau eps/6))

with theta the divergence witness of the step schedule under the step
transform the analysis uses (``moduli.divergence_witness_theta``: for a
constant schedule the count form, one past the least index), chi the
squared-step tail witness, tau the slope of the instance's linear
regularity modulus for d^2, b a strict upper bound on max{d(x0,z),
d^2(x0,z)} with z the reference solution (``_reference``), and T a strict
upper bound on the squared step sum.  The tau-free liminf windows
theta(N, budget/eps) are exposed separately so gap-window audits work even
when no modulus is known.  A certificate is the ``moduli.RateCertificate``
of these ingredients; a schedule theta rejects raises when an index is
taken.  An index past ``moduli.INDEX_CAP`` is None: no run can reach it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from . import rng
from .moduli import (
    FastCertificate,
    Harmonic,
    RateCertificate,
    RootSchedule,
    StepSchedule,
    _IDENTITY,
    _MEAN,
    _check_relaxations,
    divergence_witness_theta,
    recursion_bound_u,
    schedule_square_sum_bound,
    schedule_value,
)
from .problems import (
    HALF_SQUARED,
    BusemannProblem,
    FixedPointProblem,
    MeanMinProblem,
    Problem,
    _pick,
    busemann_subgradient,
    dist_to_solutions,
    operator_apply,
    prox_step,
    regularity_modulus_for,
    sample_index,
)
from .spaces import (
    Euclidean,
    Point,
    WholeSpace,
    _select,
    contains,
    distance,
    euclid_dim,
    geodesic_point,
    project_convex,
    ray_point,
    space_of,
)

# ---------------------------------------------------------------------------
# Per-algorithm specs
# ---------------------------------------------------------------------------


def _sppa_lipschitz(problem: MeanMinProblem) -> tuple[float, float]:
    """(L, Lbar) of the proximal costs.  Half-squared costs are Lipschitz on
    the ball of radius B around the anchor, |grad| = d(., a_e) <= B +
    d(a_e, anchor); distance costs are 1-Lipschitz."""
    if problem.cost_kind != HALF_SQUARED:
        return 1.0, 1.0
    anchor = problem.solution_anchor
    per_atom = [problem.region_bound + distance(a, anchor) for a, _ in problem.atoms]
    L_bar = math.fsum(w * le * le for (_, w), le in zip(problem.atoms, per_atom))
    return max(per_atom), L_bar


# The steps x_{n+1} = step(problem, e_n, lambda_n, x_n).  Each calls the
# problems/spaces functions by their module names, so a wrapper bound to
# one of those names sees every call.


def _sppa_step(problem: MeanMinProblem, e: int, lam: float, x: Point, data=None) -> Point:
    """Stochastic proximal point: the prox of the drawn cost at x."""
    return prox_step(problem, e, lam, x, None if data is None else _pick(data, e))


def _skm_step(problem: FixedPointProblem, k: int, lam: float, x: Point, data=None) -> Point:
    """Randomized Krasnoselskii-Mann: the fraction lam along the geodesic from
    x to T x for the drawn projection T."""
    return geodesic_point(x, operator_apply(problem, k, x, data), lam)


def _sb_step(problem: BusemannProblem, e: int, t: float, x: Point, data=None) -> Point:
    """Projected Busemann subgradient: s t along the subgradient ray of the
    drawn cost, then back onto the constraint set."""
    xi, s = busemann_subgradient(problem, e, x, None if data is None else _pick(data, e))
    # A zero subgradient (x at the drawn atom) leaves x in place.
    y = x if xi is None else _select(s == 0.0, x, ray_point(x, xi, s * t))
    return project_convex(problem.constraint, y)


@dataclass(frozen=True)
class _Spec:
    """What distinguishes one algorithm from another: its step, validation,
    the rate certificate and the gap window.

    ``step(problem, e, lam, x, data=None)`` is the next iterate from x
    with drawn index e and step lam; e and x may be an index array and a
    batch of any space.  ``data`` = ``sample_data(problem, x)``, the per-sample
    data of every problem, spares the step what the caller took for the gap
    and the solution distance at x: the Krasnoselskii-Mann step reads its
    projection T_e x, the proximal and subgradient steps of a distance cost
    read d(x, a_e).  ``lipschitz`` gives (L, Lbar) of the instance, or is
    None when the analysis has no noise term (then L = Lbar = T = 0, and the
    schedule is any relaxations in (0, 1]); a noise term f L^2 T needs T
    finite, so a harmonic schedule.  ``noise`` is the f of budget_scale =
    b + f L^2 T; ``chi_scale`` maps (L, Lbar) to the divisor of eps in the
    tail witness, or is None when chi is identically zero.
    """

    iteration: str
    step: Callable[..., Point]
    problem_type: type
    problem_kind: str
    x0_in_constraint: bool
    transform: str
    cushion: float
    lipschitz: Callable[[Problem], tuple[float, float]] | None
    noise: float
    chi_scale: Callable[[float, float], float] | None


_SPECS = {
    "sppa": _Spec(
        iteration="proximal",
        step=_sppa_step,
        problem_type=MeanMinProblem,
        problem_kind="a mean-minimization problem",
        x0_in_constraint=False,
        transform=_IDENTITY,
        cushion=0.1,
        lipschitz=_sppa_lipschitz,
        noise=4.0,
        chi_scale=lambda L, L_bar: 24.0 * L_bar,
    ),
    "skm": _Spec(
        iteration="Krasnoselskii-Mann",
        step=_skm_step,
        problem_type=FixedPointProblem,
        problem_kind="a fixed-point problem",
        x0_in_constraint=False,
        transform=_MEAN,
        cushion=0.5,
        lipschitz=None,
        noise=0.0,
        chi_scale=None,
    ),
    "sb": _Spec(
        iteration="subgradient",
        step=_sb_step,
        problem_type=BusemannProblem,
        problem_kind="a Busemann problem",
        x0_in_constraint=True,
        transform=_IDENTITY,
        cushion=0.1,
        # Distance costs are 1-Lipschitz and the subgradient weights s are 0 or 1.
        lipschitz=lambda problem: (1.0, 1.0),
        noise=1.0,
        chi_scale=lambda L, L_bar: 6.0 * L * L,
    ),
}


def validate_run(problem: Problem, algorithm: str, sched: StepSchedule, x0: Point) -> None:
    """Raise unless `algorithm` may run on `problem` with `sched` from `x0`.

    TypeError for a problem of the wrong family, ValueError for an unknown
    algorithm, a start point in another space or of another dimension or
    outside the constraint set, or a schedule the analysis does not cover.
    """
    spec = _SPECS.get(algorithm)
    if spec is None:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if not isinstance(problem, spec.problem_type):
        raise TypeError(f"the {spec.iteration} iteration needs {spec.problem_kind}")
    if space_of(x0) != problem.space:
        raise ValueError(
            f"start point lies in {space_of(x0)!r}, problem in {problem.space!r}"
        )
    # The solution set has the data's dimension, unless it is the whole space.
    dim = euclid_dim(problem.solution_set)
    if isinstance(x0, Euclidean) and dim not in (None, len(x0.coords)):
        raise ValueError(f"start point has dimension {len(x0.coords)}, the problem {dim}")
    if spec.lipschitz is None:
        _check_relaxations(sched)
    elif not isinstance(sched, Harmonic):
        raise ValueError(
            f"{spec.iteration} steps need a divergent, square-summable schedule; "
            "use a harmonic schedule"
        )
    if spec.x0_in_constraint and not contains(problem.constraint, x0):
        raise ValueError("start point must lie in the constraint set")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """One realized sample path: points (length horizon+1), the drawn
    indices and the schedule values used (length horizon each)."""

    points: list
    indices: list[int]
    steps: list[float]
    seed: int
    path_index: int = 0


def path_iterates(
    problem: Problem,
    algorithm: str,
    sched: StepSchedule,
    x0: Point,
    seed: int,
    path_index: int = 0,
) -> Iterator[tuple[Point, int, float]]:
    """(x_{n+1}, e_n, lambda_n) for n = 0, 1, ... of one path: x_{n+1} =
    step(problem, e_n, lambda_n, x_n) with its spec's step (taking no shared
    data) and e_n drawn from the path's stream."""
    step = _SPECS[algorithm].step
    state = rng.make_state(seed, path_index)
    x = x0
    for n in itertools.count():
        e, state = sample_index(problem, state)
        lam = schedule_value(sched, n)
        x = step(problem, e, lam, x)
        yield x, e, lam


def run_path(
    problem: Problem,
    algorithm: str,
    sched: StepSchedule,
    x0: Point,
    horizon: int,
    seed: int,
    path_index: int = 0,
) -> Trajectory:
    """The first `horizon` steps of one path (``path_iterates``), after
    ``validate_run``."""
    validate_run(problem, algorithm, sched, x0)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    points, indices, steps = [x0], [], []
    walk = path_iterates(problem, algorithm, sched, x0, seed, path_index)
    for x, e, lam in itertools.islice(walk, horizon):
        points.append(x)
        indices.append(e)
        steps.append(lam)
    return Trajectory(points, indices, steps, seed, path_index)


# ---------------------------------------------------------------------------
# Certificate ingredients
# ---------------------------------------------------------------------------


def fejer_budget(x0: Point, z: Point, cushion: float) -> float:
    """b = max{d(x0,z), d^2(x0,z)} + cushion, a strict upper bound on both
    the initial distance and squared distance to the solution z."""
    if not cushion > 0.0:
        raise ValueError(f"budget cushion must be > 0, got {cushion}")
    d = distance(x0, z)
    return max(d, d * d) + cushion


def _reference(problem: Problem, x: Point) -> Point:
    """The reference solution z for a start or state x: the solution
    anchor, or x itself when every point is a solution (then d(x, z) = 0 in
    any dimension, while the whole space's anchor is a point of the plane)."""
    return x if isinstance(problem.solution_set, WholeSpace) else problem.solution_anchor


def _ingredients(
    spec: _Spec, problem: Problem, sched: StepSchedule, x0: Point
) -> tuple[float, float, float, float]:
    """(b, L, Lbar, T) of the instance under the algorithm's spec, with b
    measured to the reference solution."""
    b = fejer_budget(x0, _reference(problem, x0), spec.cushion)
    if spec.lipschitz is None:
        return b, 0.0, 0.0, 0.0
    L, L_bar = spec.lipschitz(problem)
    return b, L, L_bar, schedule_square_sum_bound(sched)


def _budget_scale(spec: _Spec, b: float, L: float, T: float) -> float:
    return b + spec.noise * L * L * T


def _liminf_bound(algorithm: str, sched: StepSchedule, b: float, L: float, T: float):
    """phi(eps, N) = theta(N, budget_scale / eps): the right end of a window
    starting at N that must contain an iterate with mean gap below eps."""
    spec = _SPECS[algorithm]
    budget_scale = _budget_scale(spec, b, L, T)

    def phi(eps: float, N: int) -> int | None:
        if not eps > 0.0:
            raise ValueError(f"gap tolerance must be > 0, got {eps}")
        return divergence_witness_theta(sched, spec.transform, N, budget_scale / eps)

    return phi


def liminf_bound_sppa(sched: StepSchedule, b: float, L: float, T: float):
    """Window bound for the proximal iteration: theta(N, (b + 4 L^2 T)/eps)
    with the identity step transform."""
    return _liminf_bound("sppa", sched, b, L, T)


def liminf_bound_skm(sched: StepSchedule, b: float):
    """Window bound for the Krasnoselskii-Mann iteration: theta(N, b/eps)
    with the lambda(1-lambda) step transform."""
    return _liminf_bound("skm", sched, b, 0.0, 0.0)


def liminf_bound_sb(sched: StepSchedule, b: float, L: float, T: float):
    """Window bound for the subgradient iteration: theta(N, (b + L^2 T)/eps)
    with the identity step transform."""
    return _liminf_bound("sb", sched, b, L, T)


def gap_window(problem: Problem, algorithm: str, sched: StepSchedule, x0: Point):
    """The liminf window phi(eps, N) of a run, with b measured to the
    reference solution (see ``_reference``) and L, T from the algorithm's
    spec."""
    validate_run(problem, algorithm, sched, x0)
    spec = _SPECS[algorithm]
    b, L, _, T = _ingredients(spec, problem, sched, x0)
    args = (b,) if spec.lipschitz is None else (b, L, T)
    # Looked up by name, so a wrapper bound to the module attribute sees it.
    return globals()[f"liminf_bound_{algorithm}"](sched, *args)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _certificate(
    algorithm: str, problem: Problem, sched: StepSchedule, x0: Point
) -> RateCertificate:
    """The rate certificate (see the module docstring); a ValueError when x0
    lies outside the region on which the regularity modulus tau holds."""
    validate_run(problem, algorithm, sched, x0)
    spec = _SPECS[algorithm]
    tagged = regularity_modulus_for(problem)
    if (d0 := distance(x0, _reference(problem, x0))) > tagged.region:
        raise ValueError(
            f"start point lies {d0} from the solution anchor, outside the radius "
            f"{tagged.region} on which the regularity modulus holds"
        )
    b, L, L_bar, T = _ingredients(spec, problem, sched, x0)
    return RateCertificate(
        algorithm, sched, spec.transform, tagged.slope, b, L, L_bar, T,
        budget=_budget_scale(spec, b, L, T),
        chi_div=None if spec.chi_scale is None else spec.chi_scale(L, L_bar),
    )


def certificate_sppa(
    problem: MeanMinProblem, sched: StepSchedule, x0: Point
) -> RateCertificate:
    """Rate certificate for the proximal iteration on this instance."""
    return _certificate("sppa", problem, sched, x0)


def certificate_skm(
    problem: FixedPointProblem, sched: StepSchedule, x0: Point
) -> RateCertificate:
    """Rate certificate for the Krasnoselskii-Mann iteration."""
    return _certificate("skm", problem, sched, x0)


def certificate_sb(
    problem: BusemannProblem, sched: StepSchedule, x0: Point
) -> RateCertificate:
    """Rate certificate for the Busemann subgradient iteration."""
    return _certificate("sb", problem, sched, x0)


def fast_certificate_skm(
    problem: FixedPointProblem, c: float, r: int, x0: Point
) -> tuple[FastCertificate, RootSchedule]:
    """Fast-rate parameters and the tailored schedule for a linearly regular
    fixed-point instance.

    With lambda_n(1-lambda_n) = v c / (n+r) the one-step contraction becomes
    E[dist^2(x_{n+1})] <= (1 - c/(n+r)) E[dist^2(x_n)], so the recursion
    bound yields E[dist^2(x_n)] <= u/(n+r) with u = r * dist^2(x_0).  The
    run is checked (``validate_run``) on the derived schedule.
    """
    if not isinstance(problem, FixedPointProblem):
        raise TypeError("the fast certificate needs a fixed-point problem")
    if not c > 1.0:
        raise ValueError(f"contraction parameter must be > 1, got {c}")
    if r < 1:
        raise ValueError(f"offset must be a positive integer, got {r}")
    q = problem.v * c
    if 4.0 * q > r:
        raise ValueError(
            f"infeasible parameters: need v*c <= r/4 so the relaxation "
            f"equation is solvable, got v*c={q}, r={r}"
        )
    sched = RootSchedule(q, r)
    validate_run(problem, "skm", sched, x0)
    L0 = dist_to_solutions(problem, x0, 2)
    u = recursion_bound_u(c, 0.0, r, L0)
    return FastCertificate(u=u, r=r), sched
