"""Problem instances: costs, gaps, prox/operator steps, subgradients, moduli."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from fejerlab import rng
from fejerlab.cli import ConfigError, _read_problem
from fejerlab.problems import (
    DISTANCE,
    HALF_SQUARED,
    BusemannProblem,
    FixedPointProblem,
    MeanMinProblem,
    NoModulusKnownError,
    TaggedModulus,
    _MeanCost,
    _atom,
    busemann_subgradient,
    cost,
    dist_to_solutions,
    euclid_two_atom_busemann,
    frechet_r1,
    gap_F,
    halfplane_single_atom,
    mean_cost_exact,
    operator_apply,
    prox_step,
    r1_single_atom_busemann,
    regularity_modulus_for,
    sample_index,
    segment_argmin,
    tripod_frechet,
    tripod_median,
    tripod_median_busemann,
    two_halfspace,
)
from fejerlab.spaces import (
    Ball,
    Box,
    Euclidean,
    EuclideanDir,
    HalfPlane,
    Halfspace,
    Tripod,
    TripodEnd,
    TripodSegment,
    WholeSpace,
    contains,
    distance,
    geodesic_point,
    project_convex,
    ray_point,
    sqdist,
    stack,
)

from conftest import ball_point, modulus_for_power, random_weights


def single_atom_r1(a: float, kind: str) -> "MeanMinProblem":
    return MeanMinProblem("euclidean", ((Euclidean((a,)), 1.0),), kind, 8.0)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_weights_must_form_a_distribution():
    atoms_bad_sum = ((Euclidean((0.0,)), 0.5), (Euclidean((1.0,)), 0.4))
    with pytest.raises(ValueError):
        MeanMinProblem("euclidean", atoms_bad_sum, HALF_SQUARED, 1.0)
    atoms_negative = ((Euclidean((0.0,)), 1.5), (Euclidean((1.0,)), -0.5))
    with pytest.raises(ValueError):
        MeanMinProblem("euclidean", atoms_negative, HALF_SQUARED, 1.0)


def test_atoms_must_live_in_declared_space():
    with pytest.raises(ValueError):
        MeanMinProblem("tripod", ((Euclidean((0.0,)), 1.0),), HALF_SQUARED, 1.0)


def test_busemann_rejects_halfplane_and_outside_anchor():
    with pytest.raises(ValueError):
        BusemannProblem(
            "halfplane", ((HalfPlane(0.0, 1.0), 1.0),), Ball(HalfPlane(0.0, 1.0), 1.0), 1.0
        )
    with pytest.raises(ValueError):
        # single atom outside the constraint set
        BusemannProblem(
            "euclidean", ((Euclidean((5.0,)), 1.0),), Box((-2.0,), (2.0,)), 1.0
        )


def test_fixed_point_requires_weight_per_operator():
    # Counted before the derivation, which would pair the third of three
    # sets with no weight and divide by that side's total weight, 0.
    one = (Halfspace((1.0, 0.0), 0.0),)
    three = one + (Halfspace((0.0, 1.0), 0.0), Halfspace((-1.0, 0.0), 1.0))
    for sets in (one, three):
        with pytest.raises(ValueError, match="need one weight per operator"):
            FixedPointProblem("euclidean", sets, (0.5, 0.5))


_HALFSPACES = (Halfspace((1.0, 0.0), 0.0), Halfspace((0.0, 1.0), 0.0))
_R1_PAIR = ((Euclidean((-1.0,)), 0.5), (Euclidean((1.0,)), 0.5))
_TRIPOD_PAIR = ((Tripod(0, 1.0), 0.5), (Tripod(1, 1.0), 0.5))
_HALFPLANE_ATOMS = ((HalfPlane(0.0, 1.0), 0.6), (HalfPlane(1.5, 0.5), 0.4))
_BOX = Box((-2.0, -2.0), (2.0, 2.0))

# Row id, class, data, and the message of its one fault.  The derivation
# reads the data only after these checks: it would fail on them with a bare
# error (or a message about its closed forms), or accept a NaN weight.
_MALFORMED = [
    ("atoms-of-another-space", MeanMinProblem, ("euclidean", _TRIPOD_PAIR, HALF_SQUARED, 4.0),
     "atom lies outside the declared space"),
    ("no-atoms-half-squared", MeanMinProblem, ("euclidean", (), HALF_SQUARED, 4.0),
     "need at least one atom/operator"),
    ("no-atoms-distance", MeanMinProblem, ("tripod", (), DISTANCE, 4.0),
     "need at least one atom/operator"),
    ("no-atoms-busemann", BusemannProblem, ("euclidean", (), _BOX, 4.0),
     "need at least one atom/operator"),
    ("nan-weight-mean-min", MeanMinProblem,
     ("euclidean", ((Euclidean((-1.0,)), math.nan), (Euclidean((1.0,)), 0.5)), HALF_SQUARED, 4.0),
     "weights must be positive"),
    ("nan-weight-fixed-point", FixedPointProblem, ("euclidean", _HALFSPACES, (math.nan, 0.5)),
     "weights must be positive"),
    ("unknown-cost-kind", MeanMinProblem, ("euclidean", _R1_PAIR, "l1", 4.0),
     "unknown cost kind: 'l1'"),
    ("halfplane-busemann", BusemannProblem, ("halfplane", _HALFPLANE_ATOMS, WholeSpace(), 4.0),
     "Busemann instances support euclidean and tripod spaces"),
]


@pytest.mark.parametrize(
    "make, data, message", [r[1:] for r in _MALFORMED], ids=[r[0] for r in _MALFORMED]
)
def test_the_data_is_checked_before_the_derivation(make, data, message):
    with pytest.raises(ValueError) as info:
        make(*data)
    assert str(info.value) == message


_DATA_AND_DERIVED = [
    (
        MeanMinProblem,
        ("euclidean", ((Euclidean((1.0,)), 1.0),), HALF_SQUARED, 4.0),
        ("space", "atoms", "cost_kind", "region_bound"),
        ("solution_set", "solution_anchor", "growth"),
    ),
    (
        FixedPointProblem,
        ("euclidean", (Halfspace((1.0, 0.0), 0.0),), (1.0,)),
        ("space", "sets", "weights"),
        ("solution_set", "solution_anchor", "v", "region_bound"),
    ),
    (
        BusemannProblem,
        ("euclidean", ((Euclidean((1.0,)), 1.0),), Box((-2.0,), (2.0,)), 3.0),
        ("space", "atoms", "constraint", "region_bound"),
        ("solution_set", "solution_anchor", "growth"),
    ),
]


@pytest.mark.parametrize(
    "make, data, init, derived", _DATA_AND_DERIVED, ids=["mean_min", "fixed_point", "busemann"]
)
def test_a_problem_takes_its_data_and_derives_the_rest(make, data, init, derived):
    assert [f.name for f in dataclasses.fields(make) if f.init] == list(init)
    problem = make(*data)
    for name in derived:
        with pytest.raises(TypeError):
            make(*data, **{name: getattr(problem, name)})
    with pytest.raises(TypeError):
        make(*data, *(getattr(problem, name) for name in derived))


def test_the_mean_cost_problems_declare_only_the_fields_they_do_not_share():
    shared = ["space", "atoms", "solution_set", "solution_anchor", "growth", "min_value"]
    shared += ["cum_weights", "solution_atom"]
    assert [f.name for f in dataclasses.fields(_MeanCost)] == shared
    for make, own in (
        (MeanMinProblem, ["cost_kind", "region_bound"]),
        (BusemannProblem, ["constraint", "region_bound"]),
    ):
        assert list(vars(make)["__annotations__"]) == own
        assert [f.name for f in dataclasses.fields(make)] == shared + own


# ---------------------------------------------------------------------------
# Derived solution sets
# ---------------------------------------------------------------------------


def test_frechet_r1_solution_is_origin():
    p = frechet_r1()
    assert p.solution_anchor == Euclidean((0.0,))
    assert abs(p.min_value - 0.5) < 1e-15


def test_tripod_median_solution_is_branch_point():
    p = tripod_median()
    assert p.solution_anchor == Tripod(0, 0.0)
    assert abs(p.min_value - 1.0) < 1e-15


def test_tripod_frechet_solution_inside_heaviest_ray():
    p = tripod_frechet()
    assert p.solution_anchor == Tripod(0, 0.5)
    assert gap_F(p, p.solution_anchor) == 0.0


def test_majority_weight_median_sits_at_heavy_atom():
    atoms = ((Euclidean((2.0, 0.0)), 0.7), (Euclidean((-1.0, 1.0)), 0.3))
    p = MeanMinProblem("euclidean", atoms, DISTANCE, 4.0)
    assert p.solution_anchor == Euclidean((2.0, 0.0))
    assert p.solution_set == Ball(Euclidean((2.0, 0.0)), 0.0)


def test_equal_weight_euclidean_median_has_no_closed_form():
    atoms = ((Euclidean((-1.0,)), 0.5), (Euclidean((1.0,)), 0.5))
    with pytest.raises(ValueError):
        MeanMinProblem("euclidean", atoms, DISTANCE, 4.0)


def test_two_halfspace_solution_is_third_quadrant():
    p = two_halfspace()
    assert contains(p.solution_set, Euclidean((-1.0, -2.0)))
    assert not contains(p.solution_set, Euclidean((0.1, -1.0)))
    assert contains(p.solution_set, p.solution_anchor)


def test_segment_argmin_solution_is_the_focal_segment():
    p = segment_argmin()
    assert contains(p.solution_set, Euclidean((0.3, 0.0)))
    assert not contains(p.solution_set, Euclidean((1.2, 0.0)))
    assert abs(p.min_value - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Costs and gaps
# ---------------------------------------------------------------------------


def test_cost_half_squared_r1():
    p = single_atom_r1(1.0, HALF_SQUARED)
    assert cost(p, 0, Euclidean((3.0,))) == 2.0
    assert cost(p, 0, Euclidean((1.0,))) == 0.0


def test_cost_distance_tripod():
    p = tripod_median()
    assert cost(p, 1, Tripod(0, 1.0)) == 2.0  # atom (ray1, 1), across the origin
    assert cost(p, 0, Tripod(0, 1.0)) == 0.0


def test_mean_cost_frechet_r1():
    p = frechet_r1()
    assert mean_cost_exact(p, Euclidean((0.0,))) == 0.5
    assert mean_cost_exact(p, Euclidean((1.0,))) == 1.0


def test_mean_cost_tripod_median_at_origin():
    assert mean_cost_exact(tripod_median(), Tripod(0, 0.0)) == 1.0


def test_gap_frechet_r1_is_half_square():
    p = frechet_r1()
    for t in (0.0, 0.4, 0.8, 1.5):
        assert abs(gap_F(p, Euclidean((t,))) - 0.5 * t * t) < 1e-15


def test_gap_tripod_median_linear_near_origin():
    p = tripod_median()
    for t in (0.0, 0.25, 0.75, 1.0):
        assert abs(gap_F(p, Tripod(0, t)) - t / 3.0) < 1e-12


def test_gap_two_halfspace():
    assert abs(gap_F(two_halfspace(), Euclidean((1.0, 1.0))) - 1.0) < 1e-15
    assert gap_F(two_halfspace(), Euclidean((-1.0, -1.0))) == 0.0


def test_dist_to_solutions_values():
    assert dist_to_solutions(frechet_r1(), Euclidean((3.0,)), 2) == 9.0
    assert abs(dist_to_solutions(two_halfspace(), Euclidean((1.0, 1.0)), 2) - 2.0) < 1e-12
    assert dist_to_solutions(frechet_r1(), Euclidean((0.0,)), 1) == 0.0
    with pytest.raises(ValueError):
        dist_to_solutions(frechet_r1(), Euclidean((0.0,)), 3)


def _same_bits(a, b) -> bool:
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


@pytest.mark.parametrize(
    "problem",
    [
        frechet_r1(),
        tripod_median(),
        tripod_frechet(),
        halfplane_single_atom(),
        FixedPointProblem("euclidean", (Ball(Euclidean((0.5, -0.5)), 0.75),), (1.0,)),
        FixedPointProblem("tripod", (Ball(Tripod(1, 0.5), 0.7),), (1.0,)),
        FixedPointProblem("halfplane", (Ball(HalfPlane(0.3, 2.0), 0.6),), (1.0,)),
    ],
    ids=["r1-point", "tripod-median-point", "tripod-frechet-point", "halfplane-point",
         "euclidean-ball", "tripod-ball", "halfplane-ball"],
)
def test_dist_to_solutions_equals_the_projection_distance_bit_for_bit(problem):
    """A point solution set skips the projection; the distance is the same
    float, at the center itself, inside a ball and outside it."""
    sol = problem.solution_set
    state = rng.make_state(13, 0)
    points = [sol.center]
    for _ in range(100):
        x, state = ball_point(sol.center, 3.0, state)
        points.append(x)
    for x in points:
        d = distance(x, project_convex(sol, x))
        assert _same_bits(dist_to_solutions(problem, x), d), x
        assert _same_bits(dist_to_solutions(problem, x, 2), d * d), x
    if problem.space == "euclidean":  # a batch of the same points
        dim = len(sol.center.coords)
        batch = Euclidean(tuple(np.array([x.coords[i] for x in points]) for i in range(dim)))
        d = distance(batch, project_convex(sol, batch))
        assert _same_bits(dist_to_solutions(problem, batch), d)


def test_solution_points_have_zero_gap_and_distance():
    state = rng.make_state(77, 0)
    p = two_halfspace()
    for _ in range(200):
        x, state = ball_point(p.solution_anchor, 1.0, state)
        y = Euclidean((min(x.coords[0], 0.0), min(x.coords[1], 0.0)))
        assert gap_F(p, y) <= 1e-10
        assert dist_to_solutions(p, y, 1) <= 1e-10
    seg = segment_argmin()
    for t in np.linspace(-1.0, 1.0, 41):
        y = Euclidean((float(t), 0.0))
        assert gap_F(seg, y) <= 1e-10
        assert dist_to_solutions(seg, y, 1) <= 1e-10


# ---------------------------------------------------------------------------
# Proximal and projection steps
# ---------------------------------------------------------------------------


def test_prox_half_squared_r1():
    p = single_atom_r1(4.0, HALF_SQUARED)
    assert prox_step(p, 0, 1.0, Euclidean((0.0,))) == Euclidean((2.0,))


def test_prox_distance_moves_at_most_lambda():
    p = single_atom_r1(4.0, DISTANCE)
    assert prox_step(p, 0, 1.0, Euclidean((0.0,))) == Euclidean((1.0,))
    landed = prox_step(p, 0, 10.0, Euclidean((0.0,)))
    assert landed is p.atoms[0][0]  # reaches the atom and stops there
    at_atom = prox_step(p, 0, 1.0, Euclidean((4.0,)))
    assert at_atom == Euclidean((4.0,))


def test_prox_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        prox_step(frechet_r1(), 0, 0.0, Euclidean((1.0,)))


def test_operator_apply_projects():
    p = two_halfspace()
    assert operator_apply(p, 0, Euclidean((1.0, 1.0))) == Euclidean((0.0, 1.0))
    assert operator_apply(p, 1, Euclidean((1.0, 1.0))) == Euclidean((1.0, 0.0))


def test_prox_optimality_against_perturbations():
    state = rng.make_state(11, 0)
    cases = [
        (single_atom_r1(4.0, HALF_SQUARED), Euclidean((0.5,)), 0.7),
        (tripod_median(), Tripod(1, 1.5), 0.9),
        (halfplane_single_atom(), HalfPlane(1.0, 2.0), 1.3),
    ]
    for problem, x, lam in cases:
        for e in range(len(problem.atoms)):
            p = prox_step(problem, e, lam, x)
            obj_p = cost(problem, e, p) + sqdist(x, p) / (2.0 * lam)
            for _ in range(100):
                y, state = ball_point(p, 0.8, state)
                obj_y = cost(problem, e, y) + sqdist(x, y) / (2.0 * lam)
                assert obj_p <= obj_y + 1e-9


def test_prox_resolvent_inequality():
    # f(e,p) - f(e,y) <= (d^2(x,y) - d^2(p,y)) / (2 lam) for every y
    state = rng.make_state(13, 0)
    cases = [
        (frechet_r1(), Euclidean((2.0,)), 0.5),
        (tripod_median(), Tripod(2, 1.0), 1.0),
        (halfplane_single_atom(), HalfPlane(-0.5, 0.7), 0.8),
    ]
    for problem, x, lam in cases:
        for e in range(len(problem.atoms)):
            p = prox_step(problem, e, lam, x)
            for _ in range(100):
                y, state = ball_point(x, 2.0, state)
                lhs = cost(problem, e, p) - cost(problem, e, y)
                rhs = (sqdist(x, y) - sqdist(p, y)) / (2.0 * lam)
                assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Busemann subgradients and the cone pairing
# ---------------------------------------------------------------------------


def test_subgradient_points_toward_the_atom_r1():
    p = r1_single_atom_busemann()  # atom at 1
    direction, s = busemann_subgradient(p, 0, Euclidean((3.0,)))
    assert s == 1.0
    assert direction == EuclideanDir((-1.0,))
    direction, s = busemann_subgradient(p, 0, Euclidean((1.0,)))
    assert s == 0.0 and direction is None


def test_subgradient_tripod_atom_at_origin_extends_past_branch():
    atoms = ((Tripod(0, 0.0), 1.0),)
    p = BusemannProblem("tripod", atoms, TripodSegment((2.0, 2.0, 2.0)), 2.0)
    direction, s = busemann_subgradient(p, 0, Tripod(2, 1.5))
    assert (direction, s) == (TripodEnd(0), 1.0)


def test_subgradient_tripod_cases():
    p = tripod_median_busemann()
    # from another ray: climb the atom's ray
    assert busemann_subgradient(p, 1, Tripod(0, 1.0)) == (TripodEnd(1), 1.0)
    # same ray from below the atom: keep climbing
    assert busemann_subgradient(p, 0, Tripod(0, 0.5)) == (TripodEnd(0), 1.0)
    # same ray from above: descend through the atom toward the origin
    direction, s = busemann_subgradient(p, 0, Tripod(0, 1.5))
    assert s == 1.0 and direction == TripodEnd(1)


def test_subgradient_of_a_tripod_batch_classifies_each_path():
    # Every case above as one batch, with paths at their atom (s = 0, any
    # end) and a path at the origin; then an atom at the origin.
    p = tripod_median_busemann()
    cases = [
        (1, Tripod(0, 1.0)), (0, Tripod(0, 0.5)), (0, Tripod(0, 1.5)), (0, Tripod(0, 1.0)),
        (2, Tripod(0, 0.0)), (1, Tripod(1, 2.0)), (2, Tripod(2, 3.0)), (2, Tripod(2, 1.0)),
    ]
    origin = BusemannProblem("tripod", ((Tripod(0, 0.0), 1.0),), TripodSegment((2.0,) * 3), 2.0)
    at_origin = [(0, Tripod(2, 1.5)), (0, Tripod(0, 1.0)), (0, Tripod(0, 0.0))]
    for problem, pairs in ((p, cases), (origin, at_origin)):
        e = np.array([ei for ei, _ in pairs])
        direction, s = busemann_subgradient(problem, e, stack([x for _, x in pairs]))
        for i, (ei, x) in enumerate(pairs):
            end, si = busemann_subgradient(problem, ei, x)
            assert s[i] == si
            if end is not None:
                assert direction.ray[i] == end.ray
        assert 0.0 in s and 1.0 in s


def test_atom_of_an_index_array_is_the_batch_of_each_paths_atom():
    halfplane = MeanMinProblem("halfplane", _HALFPLANE_ATOMS, DISTANCE, 4.0)
    for problem in (tripod_median(), tripod_frechet(), halfplane):
        e = np.array([2, 0, 1, 1]) % len(problem.atoms)
        points = [problem.atoms[ei][0] for ei in e.tolist()]
        batch = _atom(problem, e)
        assert type(batch) is type(points[0])
        for name in ("ray", "coord") if isinstance(batch, Tripod) else ("x", "y"):
            assert getattr(batch, name).tolist() == [getattr(q, name) for q in points]


def test_subgradient_ray_descends_the_cost_at_unit_rate():
    cases = [
        (r1_single_atom_busemann(), 0, Euclidean((3.0,))),
        (tripod_median_busemann(), 1, Tripod(0, 1.0)),
        (euclid_two_atom_busemann(), 0, Euclidean((2.0, 2.0))),
    ]
    for problem, e, x in cases:
        direction, s = busemann_subgradient(problem, e, x)
        d0 = cost(problem, e, x)
        for t in (0.25 * d0, 0.5 * d0, d0):
            moved = ray_point(x, direction, s * t)
            assert abs(cost(problem, e, moved) - (d0 - t)) < 1e-9


# ---------------------------------------------------------------------------
# Regularity moduli
# ---------------------------------------------------------------------------


def test_modulus_frechet_r1():
    assert regularity_modulus_for(frechet_r1()) == TaggedModulus(0.5, math.inf)


def test_modulus_tripod_median():
    shape, c = tripod_median().growth
    assert shape == "sharp" and c == pytest.approx(1.0 / 3.0, rel=1e-14)
    tagged = regularity_modulus_for(tripod_median(2.0))
    assert tagged.slope == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert tagged.region == 2.0


def test_modulus_fixed_point_linear_regularity():
    assert two_halfspace().growth == ("quadratic", 0.5)
    assert regularity_modulus_for(two_halfspace()) == TaggedModulus(0.5, math.inf)


def test_modulus_single_atom_distance():
    p = r1_single_atom_busemann()
    assert p.growth == ("sharp", 1.0)
    assert regularity_modulus_for(p) == TaggedModulus(1.0 / 3.0, 3.0)


def test_modulus_unequal_two_atom_busemann():
    p = euclid_two_atom_busemann()
    shape, c = p.growth
    assert shape == "sharp" and c == pytest.approx(0.4, rel=1e-14)
    tagged = regularity_modulus_for(p)
    assert tagged.slope == pytest.approx(0.1, rel=1e-14) and tagged.region == 4.0


def test_modulus_strong_convexity_tripod_frechet():
    assert regularity_modulus_for(tripod_frechet()).slope == 0.125
    assert regularity_modulus_for(halfplane_single_atom()).slope == 0.5


def test_no_modulus_for_equal_weight_busemann():
    with pytest.raises(NoModulusKnownError):
        regularity_modulus_for(segment_argmin())


def test_no_modulus_for_euclidean_majority_median():
    atoms = ((Euclidean((2.0, 0.0)), 0.7), (Euclidean((-1.0, 1.0)), 0.3))
    p = MeanMinProblem("euclidean", atoms, DISTANCE, 4.0)
    with pytest.raises(NoModulusKnownError):
        regularity_modulus_for(p)


def test_the_solution_set_derivation_records_the_growth():
    majority = MeanMinProblem(
        "euclidean", ((Euclidean((2.0, 0.0)), 0.7), (Euclidean((-1.0, 1.0)), 0.3)), DISTANCE, 4.0
    )
    for problem, expected in (
        (frechet_r1(), ("quadratic", 0.5)),
        (halfplane_single_atom(), ("quadratic", 0.5)),
        (tripod_frechet(), ("quadratic", 0.125)),
        (two_halfspace(), ("quadratic", 0.5)),
        (tripod_median(), ("sharp", 1.0 / 3.0)),
        (tripod_median_busemann(), ("sharp", 1.0 / 3.0)),
        (r1_single_atom_busemann(), ("sharp", 1.0)),
        (euclid_two_atom_busemann(), ("sharp", 0.4)),
        (segment_argmin(), None),
        (majority, None),
    ):
        if expected is None:
            assert problem.growth is None
            continue
        shape, c = problem.growth
        assert shape == expected[0] and c == pytest.approx(expected[1], rel=1e-14)
        tagged = regularity_modulus_for(problem)
        if shape == "sharp":  # F >= c d >= (c / B) d^2 on the ball of radius B
            assert tagged == TaggedModulus(c / problem.region_bound, problem.region_bound)
        else:
            assert tagged == TaggedModulus(c, math.inf)


def test_modulus_soundness_on_random_in_region_points():
    instances = [
        (frechet_r1(), 2),
        (tripod_median(2.0), 1),
        (tripod_median(2.0), 2),
        (two_halfspace(), 2),
        (r1_single_atom_busemann(), 2),
        (euclid_two_atom_busemann(), 1),
        (tripod_frechet(), 2),
    ]
    state = rng.make_state(23, 0)
    for problem, q in instances:
        tau, region = modulus_for_power(problem, q)
        radius = min(region, problem.region_bound, 4.0)
        for _ in range(100):
            x, state = ball_point(problem.solution_anchor, radius, state)
            d = dist_to_solutions(problem, x, q)
            if d == 0.0:
                continue
            assert tau(d) <= gap_F(problem, x) + 1e-9


def test_linear_regularity_margin_two_halfspace():
    # v = 2 is valid: dist^2(x) <= v * F(x) on a grid around the corner.
    p = two_halfspace()
    for a in range(-4, 5):
        for b in range(-4, 5):
            x = Euclidean((a / 2.0, b / 2.0))
            assert p.v * gap_F(p, x) - dist_to_solutions(p, x, 2) >= -1e-12


def _axis_instance(rnd: random.Random):
    """A random fixed-point instance of 1-4 axis-aligned boxes and +-
    halfspaces in R^1-R^3, with random weights, and the (axis, sign, bound)
    of every finite side of every set.  Every set contains [-0.5, 0.5]^d,
    and the bounds lie on a grid of step 0.5, so several sets often attain
    the same side of the intersection."""
    dim, grid = rnd.randint(1, 3), (0.5, 1.0, 1.5, math.inf)
    sets, sides = [], []
    for _ in range(rnd.randint(1, 4)):
        if rnd.random() < 0.5:
            lo = tuple(-rnd.choice(grid) for _ in range(dim))
            hi = tuple(rnd.choice(grid) for _ in range(dim))
            sets.append(Box(lo, hi))
            sides += [(i, -1.0, b) for i, b in enumerate(lo)] + [(i, 1.0, b) for i, b in enumerate(hi)]
        else:
            i, sign, offset = rnd.randrange(dim), rnd.choice((-1.0, 1.0)), rnd.choice(grid[:-1])
            sets.append(Halfspace(tuple(sign if j == i else 0.0 for j in range(dim)), offset))
            sides.append((i, sign, sign * offset))
    raw = [rnd.uniform(0.05, 1.0) for _ in sets]
    weights = tuple(w / math.fsum(raw) for w in raw)
    problem = FixedPointProblem("euclidean", tuple(sets), weights)
    return problem, dim, [s for s in sides if math.isfinite(s[2])]


def test_linear_regularity_constant_is_the_sampled_sup():
    """The derived v bounds d^2(x, S) / F(x) from above, and the ratio
    reaches it just past a side of S.  Besides points anywhere, the samples
    lie in [-0.4, 0.4]^d but for one coordinate less than 0.5 past a side of
    a set; past a side of S they violate only the sets that attain it."""
    rnd = random.Random(20260814)
    for _ in range(300):
        p, dim, sides = _axis_instance(rnd)
        points = [[rnd.uniform(-3.0, 3.0) for _ in range(dim)] for _ in range(20)]
        for i, sign, bound in sides:
            for _ in range(5):
                x = [rnd.uniform(-0.4, 0.4) for _ in range(dim)]
                x[i] = bound + sign * rnd.uniform(1e-3, 0.45)
                points.append(x)
        ratios = [
            dist_to_solutions(p, x, 2) / F
            for x in map(Euclidean, map(tuple, points))
            if (F := gap_F(p, x)) > 0.0
        ]
        assert max(ratios, default=1.0) <= p.v * (1.0 + 1e-12), (p, max(ratios))
        if sides:
            assert max(ratios) >= p.v * (1.0 - 1e-6), (p, max(ratios))
        else:
            assert p.v == 1.0


def test_intersection_needs_normals_exactly_on_an_axis():
    """A normal 1e-13 off e_2 tilts its halfspace: at x = (-1e6, 5e-8) both
    sets hold x (F = 0), yet the box read from the normals as if axis-aligned
    puts x 5e-8 outside.  Such normals are refused, as any tilted one is."""
    for normal in ((1e-13, 1.0), (0.0, 1.0 - 2.0**-52), (-1e-300, -1.0)):
        with pytest.raises(ValueError, match="axis-aligned"):
            FixedPointProblem("euclidean", (Halfspace((1.0, 0.0), 0.0), Halfspace(normal, 0.0)), (0.5, 0.5))
    p = FixedPointProblem("euclidean", (Halfspace((1.0, 0.0), 0.0), Halfspace((-0.0, -1.0), 0.0)), (0.5, 0.5))
    assert p.v == 2.0


# ---------------------------------------------------------------------------
# Sampling and serialization
# ---------------------------------------------------------------------------


def test_sample_index_deterministic_and_weighted():
    p = euclid_two_atom_busemann()  # weights 0.7 / 0.3
    state = rng.make_state(99, 0)
    e1, s1 = sample_index(p, state)
    e2, _ = sample_index(p, state)
    assert e1 == e2 and s1.counter == state.counter + 1
    counts = [0, 0]
    state = rng.make_state(99, 0)
    n = 20_000
    for _ in range(n):
        e, state = sample_index(p, state)
        counts[e] += 1
    freq = counts[0] / n
    assert abs(freq - 0.7) <= 3.0 * math.sqrt(0.7 * 0.3 / n)


def _fields(p) -> dict:
    """Every dataclass field of a problem but its weight table, which is
    derived from the weights."""
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p) if f.name != "cum_weights"}


def test_problem_spec_round_trip():
    """A config's problem of every kind reads as the catalogue instance
    it describes."""

    def euclid(*coords):
        return {"space": "euclidean", "coords": list(coords)}

    def tripod(ray, coord):
        return {"space": "tripod", "ray": ray, "coord": coord}

    w3 = 1.0 / 3.0
    cases = [
        (
            {
                "kind": "mean_min",
                "space": "euclidean",
                "cost": "half_squared_distance",
                "atoms": [
                    {"point": euclid(-1.0), "weight": 0.5},
                    {"point": euclid(1.0), "weight": 0.5},
                ],
            },
            frechet_r1(),
        ),
        (
            {
                "kind": "mean_min",
                "space": "tripod",
                "cost": "distance",
                "atoms": [{"point": tripod(j, 1.0), "weight": w3} for j in range(3)],
                "region_bound": 2.0,
            },
            tripod_median(),
        ),
        (
            {
                "kind": "mean_min",
                "space": "halfplane",
                "cost": "half_squared_distance",
                "atoms": [{"point": {"space": "halfplane", "x": 0.0, "y": 1.0}, "weight": 1.0}],
                "region_bound": 3.0,
            },
            halfplane_single_atom(),
        ),
        (
            {
                "kind": "fixed_point",
                "space": "euclidean",
                "operators": [
                    {"set": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}, "weight": 0.5},
                    {"set": {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0}, "weight": 0.5},
                ],
            },
            two_halfspace(),
        ),
        (
            {
                "kind": "busemann",
                "space": "euclidean",
                "atoms": [
                    {"point": euclid(-1.0, 0.0), "weight": 0.7},
                    {"point": euclid(1.0, 0.0), "weight": 0.3},
                ],
                "constraint": {"kind": "box", "lo": [-3.0, -3.0], "hi": [3.0, 3.0]},
            },
            euclid_two_atom_busemann(),
        ),
        (
            {
                "kind": "busemann",
                "space": "tripod",
                "atoms": [{"point": tripod(j, 1.0), "weight": w3} for j in range(3)],
                "constraint": {"kind": "tripod_segment", "max_coords": [2.0, 2.0, 2.0]},
                "region_bound": 2.0,
            },
            tripod_median_busemann(),
        ),
    ]
    for spec, p in cases:
        rebuilt = _read_problem(spec, "problem", spec["space"])
        assert type(rebuilt) is type(p)
        assert _fields(rebuilt) == _fields(p)
        assert np.array_equal(rebuilt.cum_weights, p.cum_weights)
    with pytest.raises(ConfigError, match=r"problem\.kind: expected one of"):
        _read_problem({"kind": "saddle", "space": "euclidean"}, "problem", "euclidean")


def test_one_step_subgradient_inequality_inside_constraint():
    # d^2(moved, y) <= d^2(x, y) - 2 t (f(e,x) - f(e,y)) + t^2 s^2
    state = rng.make_state(31, 0)
    problem = segment_argmin()
    for _ in range(200):
        x, state = ball_point(problem.solution_anchor, 1.8, state)
        y, state = ball_point(problem.solution_anchor, 1.8, state)
        u, state = rng.next_uniform(state)
        t = 0.05 + u
        for e in range(len(problem.atoms)):
            direction, s = busemann_subgradient(problem, e, x)
            moved = x if s == 0.0 else ray_point(x, direction, s * t)
            lhs = sqdist(moved, y)
            rhs = (
                sqdist(x, y)
                - 2.0 * t * (cost(problem, e, x) - cost(problem, e, y))
                + t * t * s * s
            )
            assert lhs <= rhs + 1e-9
