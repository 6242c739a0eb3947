"""Runners, budgets, liminf windows, and rate certificates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fejerlab.algorithms import (
    _SPECS,
    certificate_sb,
    certificate_skm,
    certificate_sppa,
    fast_certificate_skm,
    fejer_budget,
    gap_window,
    liminf_bound_sb,
    liminf_bound_skm,
    liminf_bound_sppa,
    run_path,
    validate_run,
)
from fejerlab.harness import curves_csv_text, fejer_margin, run_ensemble
from fejerlab.moduli import (
    Constant,
    Harmonic,
    RootSchedule,
    TableSchedule,
    divergence_witness_theta,
    schedule_value,
    tail_rate_chi,
)
from fejerlab.problems import (
    DISTANCE,
    HALF_SQUARED,
    FixedPointProblem,
    MeanMinProblem,
    NoModulusKnownError,
    dist_to_solutions,
    euclid_two_atom_busemann,
    gap_F,
    operator_apply,
    r1_single_atom_busemann,
    sample_data,
    segment_argmin,
    tripod_median,
    two_halfspace,
)
from fejerlab.spaces import Box, Euclidean, HalfPlane, Halfspace, Tripod, WholeSpace, distance

H11 = Harmonic(1.0, 1.0)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def test_sppa_rejects_constant_schedule_and_wrong_problem():
    with pytest.raises(ValueError):
        run_path(frechet := MeanMinProblem(
            "euclidean", ((Euclidean((1.0,)), 1.0),), HALF_SQUARED, 4.0
        ), "sppa", Constant(0.5), Euclidean((0.0,)), 5, 0)
    with pytest.raises(TypeError):
        run_path(two_halfspace(), "sppa", H11, Euclidean((1.0, 1.0)), 5, 0)
    with pytest.raises(ValueError):  # space mismatch
        run_path(frechet, "sppa", H11, Tripod(0, 1.0), 5, 0)
    with pytest.raises(ValueError):  # negative horizon
        run_path(frechet, "sppa", H11, Euclidean((0.0,)), -1, 0)


def test_start_point_dimension_must_match_the_data():
    for x0 in (Euclidean((1.0,)), Euclidean((1.0, 1.0, 1.0))):
        with pytest.raises(ValueError, match="dimension"):
            run_path(two_halfspace(), "skm", Constant(0.5), x0, 5, 0)
    atoms = ((Euclidean((-1.0, 0.0)), 0.5), (Euclidean((1.0,)), 0.5))
    with pytest.raises(ValueError, match="dimension"):
        MeanMinProblem("euclidean", atoms, HALF_SQUARED, 4.0)
    boxes = (Box((0.0,), (1.0,)), Box((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="dimension"):
        FixedPointProblem("euclidean", boxes, (0.5, 0.5))
    # The whole space fixes no dimension (its anchor's two coordinates do not count).
    whole = FixedPointProblem("euclidean", (WholeSpace(),), (1.0,))
    traj = run_path(whole, "skm", Constant(0.5), Euclidean((1.0, 2.0, 3.0)), 3, 0)
    assert traj.points[-1] == Euclidean((1.0, 2.0, 3.0))


def test_sppa_single_atom_contracts_each_step():
    p = MeanMinProblem("euclidean", ((Euclidean((1.0,)), 1.0),), HALF_SQUARED, 4.0)
    a = Euclidean((1.0,))
    traj = run_path(p, "sppa", H11, Euclidean((5.0,)), 20, 3)
    assert len(traj.points) == 21
    assert len(traj.indices) == len(traj.steps) == 20
    assert traj.points[0] == Euclidean((5.0,))
    for n in range(20):
        lam = schedule_value(H11, n)
        assert traj.steps[n] == lam
        expect = distance(traj.points[n], a) / (1.0 + lam)
        assert abs(distance(traj.points[n + 1], a) - expect) <= 1e-12


def test_sppa_constant_on_solution_set():
    p = MeanMinProblem("euclidean", ((Euclidean((1.0,)), 1.0),), HALF_SQUARED, 4.0)
    traj = run_path(p, "sppa", H11, Euclidean((1.0,)), 10, 5)
    assert all(pt == Euclidean((1.0,)) for pt in traj.points)


def test_skm_rejects_steps_above_one():
    with pytest.raises(ValueError):
        run_path(two_halfspace(), "skm", Harmonic(2.0, 1.0), Euclidean((1.0, 1.0)), 5, 0)


def test_skm_unit_step_is_picard():
    p = two_halfspace()
    traj = run_path(p, "skm", Constant(1.0), Euclidean((1.0, 1.0)), 3, 7)
    x = Euclidean((1.0, 1.0))
    for n in range(3):
        x = operator_apply(p, traj.indices[n], x)
        assert traj.points[n + 1] == x


def test_skm_half_step_one_step_enumeration():
    p = two_halfspace()
    seen = set()
    for seed in range(24):
        traj = run_path(p, "skm", Constant(0.5), Euclidean((1.0, 1.0)), 1, seed)
        seen.add(traj.points[1].coords)
    assert seen == {(0.5, 1.0), (1.0, 0.5)}


def test_skm_constant_on_fixed_points():
    traj = run_path(two_halfspace(), "skm", Constant(0.5), Euclidean((-1.0, -1.0)), 10, 0)
    assert all(pt == Euclidean((-1.0, -1.0)) for pt in traj.points)


def test_sb_first_step_moves_toward_atom():
    p = r1_single_atom_busemann()  # atom 1, C = [-2, 2]
    traj = run_path(p, "sb", Harmonic(1.0, 2.0), Euclidean((0.0,)), 1, 0)
    assert traj.steps[0] == 0.5
    assert traj.points[1] == Euclidean((0.5,))


def test_sb_constant_at_atom():
    p = r1_single_atom_busemann()
    traj = run_path(p, "sb", H11, Euclidean((1.0,)), 10, 4)
    assert all(pt == Euclidean((1.0,)) for pt in traj.points)


def test_sb_rejects_start_outside_constraint_and_constant_schedule():
    p = r1_single_atom_busemann()
    with pytest.raises(ValueError):
        run_path(p, "sb", H11, Euclidean((3.0,)), 5, 0)
    with pytest.raises(ValueError):
        run_path(p, "sb", Constant(0.5), Euclidean((0.0,)), 5, 0)


def test_sb_iterates_stay_in_constraint():
    p = segment_argmin()
    traj = run_path(p, "sb", H11, Euclidean((2.0, 2.0)), 50, 11)
    from fejerlab.spaces import contains

    assert all(contains(p.constraint, pt) for pt in traj.points)


def test_runs_are_seed_deterministic_and_path_dependent():
    p = segment_argmin()
    a = run_path(p, "sb", H11, Euclidean((2.0, 2.0)), 30, 123, path_index=0)
    b = run_path(p, "sb", H11, Euclidean((2.0, 2.0)), 30, 123, path_index=0)
    assert a.points == b.points and a.indices == b.indices
    c = run_path(p, "sb", H11, Euclidean((2.0, 2.0)), 30, 123, path_index=1)
    assert c.points != a.points


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# name -> (problem, schedule, start, a schedule it refuses, and a step and
# state the one-step audit refuses: a relaxation above 1, a state outside C).
_ALIASED = {
    "skm": (two_halfspace(), Constant(0.5), Euclidean((1.0, 2.0)), Harmonic(2.0, 1.0),
            (1.5, Euclidean((1.0, 2.0)))),
    "sb": (segment_argmin(), H11, Euclidean((1.5, 1.5)), Constant(0.5),
           (0.3, Euclidean((3.0, 0.0)))),
}


@pytest.mark.parametrize("name", sorted(_ALIASED))
def test_a_spec_under_another_name_runs_the_same(monkeypatch, name):
    # Validation, a path, an ensemble and the one-step audit read the spec,
    # not its name.  (Certificates and gap windows are looked up by name.)
    alias = f"{name}-copy"
    monkeypatch.setitem(_SPECS, alias, _SPECS[name])
    problem, sched, x0, refused, (step, state) = _ALIASED[name]

    def outcomes(algorithm):
        stats = run_ensemble(problem, algorithm, sched, x0, 5, 12, 3, (0.5,))
        traj = run_path(problem, algorithm, sched, x0, 12, 3)
        return [
            _outcome(validate_run, problem, algorithm, sched, x0),
            _outcome(validate_run, problem, algorithm, refused, x0),
            _outcome(validate_run, problem, algorithm, sched, state),
            (traj.points, traj.indices, traj.steps),
            curves_csv_text(stats),
            _outcome(fejer_margin, problem, algorithm, x0, 0.5),
            _outcome(fejer_margin, problem, algorithm, state, step),
        ]

    real, copy = outcomes(name), outcomes(alias)
    assert copy == real
    assert real[1][0] is ValueError and real[-1][0] is ValueError


# ---------------------------------------------------------------------------
# Budgets and liminf windows
# ---------------------------------------------------------------------------


def test_fejer_budget():
    b = fejer_budget(Euclidean((1.0, 1.0)), Euclidean((0.0, 0.0)), 0.5)
    assert b == pytest.approx(2.5, abs=1e-12)  # max(sqrt(2), 2) + 1/2
    small = fejer_budget(Euclidean((0.5,)), Euclidean((0.0,)), 0.1)
    assert small == pytest.approx(0.6, abs=1e-12)  # distance dominates its square
    with pytest.raises(ValueError):
        fejer_budget(Euclidean((1.0,)), Euclidean((0.0,)), 0.0)


def test_liminf_window_sppa_tripod_median():
    phi = liminf_bound_sppa(H11, 9.1, 1.0, 1.645)
    assert phi(2.0, 0) == 1425
    assert phi(2.0, 10) > 1425  # later start, later window end
    with pytest.raises(ValueError):
        phi(0.0, 0)


def test_liminf_window_sb_segment_argmin():
    phi = liminf_bound_sb(H11, 4.1, 1.0, 1.645)
    assert phi(1.0, 0) == 175


def test_liminf_window_skm_constant_schedule():
    phi = liminf_bound_skm(Constant(0.5), 2.5)
    # budget 2.5/eps over weights lambda(1-lambda) = 1/4, count form
    assert phi(1.0, 0) == 10
    assert phi(1.0, 7) == 17
    assert phi(0.5, 0) == 20


def test_certificate_windows_match_standalone_builders():
    cert = certificate_sppa(tripod_median(4.0), H11, Tripod(0, 3.0))
    assert cert.b == pytest.approx(9.1, abs=1e-12)


def test_gap_windows_match_standalone_builders():
    assert gap_window(tripod_median(4.0), "sppa", H11, Tripod(0, 3.0))(2.0, 0) == 1425
    assert gap_window(segment_argmin(), "sb", H11, Euclidean((0.0, 2.0)))(1.0, 0) == 175
    phi = gap_window(two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0)))
    assert phi(1.0, 7) == 17
    with pytest.raises(ValueError):  # validated like a run
        gap_window(tripod_median(4.0), "sppa", Constant(0.5), Tripod(0, 3.0))


# ---------------------------------------------------------------------------
# Rate certificates
# ---------------------------------------------------------------------------


def test_certificate_skm_flagship_constants():
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    assert cert.algorithm == "skm"
    assert cert.L == 0.0 and cert.T == 0.0
    assert cert.b == pytest.approx(2.5, abs=1e-12)
    assert cert.tau == 0.5
    assert cert.chi(0.3) == 0


def test_certificate_skm_flagship_rho_values():
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    # rho(eps) = ceil(120 / eps) for this instance
    assert cert.rho(0.01) == 12000
    assert cert.rho(0.02) == 6000  # doubling eps halves the index
    assert cert.rho(1.0) == 120


def test_certificate_skm_metric_rates():
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    assert cert.metric_rates(0.2, 0.1) == (12000, 120000, 3000, 30000)
    assert cert.metric_rates(0.3, 0.1) == (5334, 53334, 1334, 13334)
    lam_one = cert.metric_rates(0.2, 1.0)
    assert lam_one[0] == lam_one[1] and lam_one[2] == lam_one[3]


def test_certificate_divergence_uses_count_form():
    # the certificate witness is k + ceil(b/w): the sum over n = k..m of w
    # reaches b first at m = k + ceil(b/w) - 1, so a constant schedule's
    # witness is one more than the minimal witness index for every budget
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    for k, budget, count in ((0, 1.0, 4), (0, 2.5, 10), (0, 0.3, 2), (5, 1.0, 9)):
        assert cert.divergence(k, budget) == count


def _one_theta_case(case):
    """(certificate, gap window or None) of a schedule kind under a transform."""
    kind, transform = case.split("-")
    sched = {
        "constant": Constant(0.5),
        "harmonic": Harmonic(1.0, 2.0),
        "table": TableSchedule((0.5, 0.9, 0.25), Harmonic(2.0, 1.0)),
    }[kind]
    if transform == "mean":
        problem, x0 = two_halfspace(), Euclidean((1.0, 1.0))
        return certificate_skm(problem, sched, x0), gap_window(problem, "skm", sched, x0)
    problem, x0 = tripod_median(2.0), Tripod(0, 1.0)
    if kind == "harmonic":
        return certificate_sppa(problem, sched, x0), gap_window(problem, "sppa", sched, x0)
    # The proximal run takes harmonic schedules only; its certificate holds any.
    return dataclasses.replace(certificate_sppa(problem, H11, x0), sched=sched), None


@pytest.mark.parametrize("case", [
    "constant-mean", "constant-identity", "harmonic-mean", "harmonic-identity",
    "table-mean", "table-identity",
])
def test_the_certificate_and_the_gap_window_take_the_one_theta(case):
    cert, phi = _one_theta_case(case)
    theta = lambda k, budget: divergence_witness_theta(cert.sched, cert.transform, k, budget)
    for k in (0, 1, 7, 100):
        for budget in (0.3, 1.0, 2.5, 9.5):
            assert cert.divergence(k, budget) == theta(k, budget), (k, budget)
    for eps in (0.5, 1.0, 2.0) if phi else ():
        for start in (0, 7):
            assert phi(eps, start) == theta(start, cert.budget / eps), (eps, start)
    if case == "constant-mean":
        # The count form k + ceil(b/w), not the least index k - 1 + ceil(b/w).
        assert cert.divergence(0, 1.0) == 4 and phi(1.0, 0) == 10
        # euclid-skm's eps = 1: b/w is 480.0000000000001, and the guard
        # keeps the index at 480.
        budget = cert.budget / (cert.tau * (0.25 / 6.0))
        assert budget / 0.25 > 480.0
        assert cert.divergence(0, budget) == theta(0, budget) == 480
        assert cert.metric_rates(1.0, 0.1)[0] == 480


def test_certificate_sppa_tripod_constants():
    cert = certificate_sppa(tripod_median(2.0), H11, Tripod(0, 1.0))
    assert cert.algorithm == "sppa"
    assert cert.L == 1.0 and cert.L_bar == 1.0
    assert cert.T == 1.645
    assert cert.b == pytest.approx(1.1, abs=1e-12)
    assert cert.tau == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_certificate_sppa_rho_assembles_printed_formula():
    cert = certificate_sppa(tripod_median(2.0), H11, Tripod(0, 1.0))
    budget_scale = cert.b + 4.0 * cert.L * cert.L * cert.T
    for eps, index in ((30.0, 15348), (90.0, 11)):
        expected = cert.divergence(
            tail_rate_chi(H11, eps / (24.0 * cert.L_bar)),
            budget_scale / (cert.tau * (eps / 6.0)),
        )
        assert cert.rho(eps) == expected == index


def test_certificate_sppa_lipschitz_from_half_squared_data():
    p = MeanMinProblem("euclidean", ((Euclidean((1.0,)), 1.0),), HALF_SQUARED, 4.0)
    cert = certificate_sppa(p, H11, Euclidean((0.5,)))
    # |grad| of d^2/2 on the ball of radius B around the anchor: B + d(a, anchor)
    assert cert.L == pytest.approx(4.0, abs=1e-12)
    assert cert.L_bar == pytest.approx(16.0, abs=1e-12)


def test_certificate_sb_constants_and_rho_shape():
    p = euclid_two_atom_busemann()
    x0 = Euclidean((2.0, 2.0))
    cert = certificate_sb(p, H11, x0)
    assert cert.algorithm == "sb"
    assert cert.L == 1.0 and cert.T == 1.645
    assert cert.b == pytest.approx(13.1, abs=1e-12)  # d^2 = 13 dominates
    budget_scale = cert.b + cert.L * cert.L * cert.T
    for eps, index in ((40.0, 2263740419), (120.0, 893)):
        expected = cert.divergence(
            tail_rate_chi(H11, eps / (6.0 * cert.L * cert.L)),
            budget_scale / (cert.tau * (eps / 6.0)),
        )
        assert cert.rho(eps) == expected == index


def test_certificate_sb_single_atom_works():
    cert = certificate_sb(r1_single_atom_busemann(), H11, Euclidean((0.0,)))
    assert cert.b == pytest.approx(1.1, abs=1e-12)
    assert cert.rho(60.0) >= 0


def test_certificate_sb_rejects_start_outside_constraint():
    with pytest.raises(ValueError, match="constraint set"):
        certificate_sb(r1_single_atom_busemann(), H11, Euclidean((3.0,)))


def test_certificate_sb_equal_weights_has_no_modulus():
    with pytest.raises(NoModulusKnownError):
        certificate_sb(segment_argmin(), H11, Euclidean((0.0, 2.0)))


def test_certificate_sppa_halfplane_majority_has_no_modulus():
    # no growth is derived for a majority atom, and a problem takes none
    atoms = ((HalfPlane(0.0, 1.0), 0.6), (HalfPlane(1.5, 0.5), 0.2), (HalfPlane(-1.0, 2.0), 0.2))
    p = MeanMinProblem("halfplane", atoms, DISTANCE, 4.0)
    assert p.growth is None
    with pytest.raises(NoModulusKnownError):
        certificate_sppa(p, H11, HalfPlane(0.0, 2.0))


def test_certificate_is_validated_like_a_run():
    with pytest.raises(ValueError, match="harmonic"):
        certificate_sppa(tripod_median(), Constant(0.5), Tripod(0, 1.0))


def test_certificate_refuses_a_start_outside_the_modulus_region():
    # tau(d^2) = d^2 / 6 holds for d <= 2 only: at d = 10 it reads 16.7,
    # above F = 9.33 there.
    problem = tripod_median(2.0)
    with pytest.raises(ValueError, match="outside the radius 2.0 on which the regularity modulus holds"):
        certificate_sppa(problem, H11, Tripod(0, 10.0))
    with pytest.raises(ValueError, match="outside the radius"):
        certificate_sppa(problem, H11, Tripod(1, 2.0 + 1e-9))
    # On or inside the ball the certificate is built; its index at eps = 1
    # (at 30 on the ball of radius 10) lies past INDEX_CAP.
    for x0 in (Tripod(0, 2.0), Tripod(2, 0.5), Tripod(0, 0.0)):
        cert = certificate_sppa(problem, H11, x0)
        assert cert.rho(1.0) is None and cert.rho(30.0) > 0
    cert = certificate_sppa(tripod_median(10.0), H11, Tripod(0, 10.0))
    assert cert.rho(30.0) is None and cert.rho(1000.0) > 0


def test_shifted_tail_table_is_a_valid_relaxation_schedule():
    # lambda_n <= 1/2 throughout: the tail 2 / (n + 1) starts at index 3.
    sched = TableSchedule((0.5, 0.5, 0.5), Harmonic(2.0, 1.0))
    x0 = Euclidean((1.0, 1.0))
    trajectory = run_path(two_halfspace(), "skm", sched, x0, 10, seed=3)
    assert max(trajectory.steps) == 0.5
    cert = certificate_skm(two_halfspace(), sched, x0)
    assert cert.metric_rates(0.3, 0.1) == (None,) * 4  # past INDEX_CAP
    assert cert.metric_rates(3.0, 0.1)[0] > 0
    assert gap_window(two_halfspace(), "skm", sched, x0)(1.0, 0) > 0
    with pytest.raises(ValueError, match=r"relaxations must lie in \(0, 1\]"):
        run_path(two_halfspace(), "skm", TableSchedule((0.5,) * 3, Harmonic(4.5, 1.0)), x0, 1, seed=3)


def test_certificate_rho_rejects_nonpositive_eps():
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    with pytest.raises(ValueError):
        cert.rho(0.0)


# ---------------------------------------------------------------------------
# Fast-rate certificate
# ---------------------------------------------------------------------------


def test_fast_certificate_flagship():
    cert, sched = fast_certificate_skm(two_halfspace(), 2.0, 16, Euclidean((1.0, 1.0)))
    assert cert.r == 16
    assert cert.u == pytest.approx(32.0, rel=1e-12)
    assert sched == RootSchedule(4.0, 16)
    assert schedule_value(sched, 0) == 0.5


def test_fast_certificate_preconditions():
    with pytest.raises(ValueError):
        fast_certificate_skm(two_halfspace(), 1.0, 16, Euclidean((1.0, 1.0)))
    with pytest.raises(ValueError):
        fast_certificate_skm(two_halfspace(), 2.0, 15, Euclidean((1.0, 1.0)))
    with pytest.raises(TypeError):
        fast_certificate_skm(segment_argmin(), 2.0, 16, Euclidean((0.0, 0.0)))


def test_fast_certificate_zero_start():
    cert, _ = fast_certificate_skm(two_halfspace(), 2.0, 16, Euclidean((-1.0, -1.0)))
    assert cert.u == 0.0


# ---------------------------------------------------------------------------
# One step per algorithm: a batch of paths equals its points bit for bit
# ---------------------------------------------------------------------------

# Starts for the batch: the atoms (-1, 0) and (1, 0) of the Busemann
# problems and (2, 0) of the median, also with a -0.0 coordinate (a path at
# its atom must keep it), points inside and outside the skm sets, and
# points closer to an atom than a step.
BATCH_POINTS = [
    (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (-0.0, 2.5), (0.5, -0.0), (3.0, -4.0),
    (-2.0, 0.25), (2.0, 1e-9), (-1.0, 1.0), (0.0, 0.0), (-1.0, 1e-12), (2.5, 2.5),
    (-1.0, -0.0), (2.0, -0.0),
]
_MEDIAN = MeanMinProblem(
    "euclidean", ((Euclidean((2.0, 0.0)), 0.7), (Euclidean((-1.0, 1.0)), 0.3)), DISTANCE, 4.0
)
_FRECHET_2D = MeanMinProblem(
    "euclidean",
    ((Euclidean((0.0, 1.0)), 0.3), (Euclidean((2.0, -1.0)), 0.5), (Euclidean((-1.0, -0.5)), 0.2)),
    HALF_SQUARED,
    4.0,
)
_BOX_HALFSPACE = FixedPointProblem(
    "euclidean",
    (Box((-math.inf, -1.0), (1.0, math.inf)), Halfspace((0.0, 1.0), 0.5)),
    (0.4, 0.6),
)
BATCH_CASES = [
    # Distance costs: paths at an atom stay; then a step longer than every distance.
    pytest.param("sppa", _MEDIAN, 0.5, id="sppa-distance"),
    pytest.param("sppa", _MEDIAN, 3.0, id="sppa-distance-long-step"),
    pytest.param("sppa", _FRECHET_2D, 0.7, id="sppa-half-squared"),
    pytest.param("skm", _BOX_HALFSPACE, 0.6, id="skm-box-halfspace"),
    pytest.param("skm", _BOX_HALFSPACE, 1.0, id="skm-box-halfspace-unit"),
    # Paths at an atom stay (and are projected).
    pytest.param("sb", euclid_two_atom_busemann(), 0.4, id="sb-two-atoms"),
    pytest.param("sb", segment_argmin(), 2.0, id="sb-segment"),
]


def _bits(values):
    """IEEE bits per path (so -0.0 != 0.0); a float every path shares is
    broadcast."""
    arr = np.broadcast_to(np.asarray(values, dtype=np.float64), (len(BATCH_POINTS),))
    return arr.view(np.uint64)


def _assert_batch_is_its_points(batch, points):
    if isinstance(batch, Euclidean):
        for i, col in enumerate(batch.coords):
            assert np.array_equal(_bits(col), _bits([p.coords[i] for p in points])), i
    else:
        assert np.array_equal(_bits(batch), _bits(points))


@pytest.mark.parametrize("algorithm,problem,lam", BATCH_CASES)
def test_batch_step_gap_and_distance_match_the_points(algorithm, problem, lam):
    step = _SPECS[algorithm].step
    points = [Euclidean(p) for p in BATCH_POINTS]
    batch = Euclidean(tuple(np.array(col) for col in zip(*BATCH_POINTS)))
    terms = len(problem.weights)
    for shift in range(terms):
        idx = (np.arange(len(points)) + shift) % terms
        moved = [step(problem, int(e), lam, x) for e, x in zip(idx, points)]
        _assert_batch_is_its_points(step(problem, idx, lam, batch), moved)
        # The step reads the per-sample data the gap took, with the same bits.
        shared = step(problem, idx, lam, batch, sample_data(problem, batch))
        _assert_batch_is_its_points(shared, moved)
    data = sample_data(problem, batch)
    gaps = [gap_F(problem, x) for x in points]
    dists = [dist_to_solutions(problem, x) for x in points]
    _assert_batch_is_its_points(gap_F(problem, batch), gaps)
    _assert_batch_is_its_points(gap_F(problem, batch, data), gaps)
    _assert_batch_is_its_points(dist_to_solutions(problem, batch), dists)
    _assert_batch_is_its_points(dist_to_solutions(problem, batch, 1, data), dists)


def test_one_point_steps_keep_their_shortcuts():
    # A point at its drawn atom is returned itself by both steps that can
    # stand still, and a unit relaxation lands on the projection itself.
    x = Euclidean((2.0, 0.0))
    assert _SPECS["sppa"].step(_MEDIAN, 0, 0.5, x) is x
    p = euclid_two_atom_busemann()
    assert _SPECS["sb"].step(p, 0, 0.4, Euclidean((-1.0, 0.0))) == Euclidean((-1.0, 0.0))
    y = Euclidean((3.0, 3.0))
    assert _SPECS["skm"].step(_BOX_HALFSPACE, 1, 1.0, y) == operator_apply(_BOX_HALFSPACE, 1, y)
