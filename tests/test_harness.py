"""Ensemble runner, statistics, one-step audits, certificate audits, export."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fejerlab import harness
from fejerlab.algorithms import (
    certificate_skm,
    certificate_sppa,
    fast_certificate_skm,
    run_path,
)
from fejerlab.harness import (
    CHUNK,
    AuditReport,
    EnsembleStats,
    _block_width,
    _envelope_rounding,
    _Reducer,
    certificate_audit,
    curves_csv_text,
    export_results,
    fast_audit,
    fejer_margin,
    liminf_witness_check,
    load_curves,
    run_ensemble,
    stats_from_curves,
    tail_probability,
)
from fejerlab.moduli import Constant, FastCertificate, Harmonic
from fejerlab.problems import (
    DISTANCE,
    FixedPointProblem,
    MeanMinProblem,
    dist_to_solutions,
    euclid_two_atom_busemann,
    frechet_r1,
    gap_F,
    halfplane_single_atom,
    r1_single_atom_busemann,
    sample_data,
    segment_argmin,
    tripod_median,
    tripod_median_busemann,
    two_halfspace,
)
from fejerlab.spaces import (
    Ball,
    Box,
    Euclidean,
    HalfPlane,
    Halfspace,
    Segment,
    Tripod,
    TripodSegment,
    WholeSpace,
    distance,
)

H11 = Harmonic(1.0, 1.0)
EPS = (0.5, 1.0)


def small_flagship(paths=300, horizon=60, seed=7, threads=1, kernel="vector", eps=EPS):
    return run_ensemble(
        two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0)),
        paths, horizon, seed, eps, threads=threads, kernel=kernel,
    )


def halfplane_majority():
    """Mean distance to three hyperbolic atoms, the heaviest (weight 0.6)
    its median."""
    atoms = ((HalfPlane(0.0, 1.0), 0.6), (HalfPlane(1.5, 0.5), 0.2), (HalfPlane(-1.0, 2.0), 0.2))
    return MeanMinProblem("halfplane", atoms, DISTANCE, 4.0)


def euclid_median():
    """Mean distance to two unequally weighted atoms of the plane."""
    atoms = ((Euclidean((2.0, 0.0)), 0.7), (Euclidean((-1.0, 1.0)), 0.3))
    return MeanMinProblem("euclidean", atoms, DISTANCE, 4.0)


def assert_stats_equal(a: EnsembleStats, b: EnsembleStats):
    for name in ("mean_dist", "mean_sq_dist", "mean_gap", "std_dist", "std_sq_dist", "std_gap"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.tail.keys() == b.tail.keys()
    for e in a.tail:
        assert np.array_equal(a.tail[e], b.tail[e])
        assert np.array_equal(a.point_tail[e], b.point_tail[e])


# ---------------------------------------------------------------------------
# Kernel parity and determinism
# ---------------------------------------------------------------------------


def test_vector_scalar_parity_skm():
    v = small_flagship(paths=600, kernel="vector")
    s = small_flagship(paths=600, kernel="scalar")
    assert_stats_equal(v, s)


def test_vector_scalar_parity_sppa_half_squared():
    kw = dict(paths=550, horizon=40, seed=3, epsilons=(0.3,))
    v = run_ensemble(frechet_r1(), "sppa", H11, Euclidean((2.0,)), kernel="vector", **kw)
    s = run_ensemble(frechet_r1(), "sppa", H11, Euclidean((2.0,)), kernel="scalar", **kw)
    assert_stats_equal(v, s)


def test_vector_scalar_parity_sppa_distance_cost():
    p = euclid_median()
    kw = dict(paths=550, horizon=40, seed=9, epsilons=(0.5,))
    v = run_ensemble(p, "sppa", H11, Euclidean((0.0, 0.0)), kernel="vector", **kw)
    s = run_ensemble(p, "sppa", H11, Euclidean((0.0, 0.0)), kernel="scalar", **kw)
    assert_stats_equal(v, s)


def test_vector_scalar_parity_sb():
    kw = dict(paths=550, horizon=40, seed=5, epsilons=(0.8,))
    p = segment_argmin()
    v = run_ensemble(p, "sb", H11, Euclidean((2.0, 2.0)), kernel="vector", **kw)
    s = run_ensemble(p, "sb", H11, Euclidean((2.0, 2.0)), kernel="scalar", **kw)
    assert_stats_equal(v, s)


def test_thread_count_does_not_change_results():
    base = small_flagship(paths=1200, threads=1)
    for threads in (2, 5):
        assert_stats_equal(base, small_flagship(paths=1200, threads=threads))
    scalar_base = small_flagship(paths=700, threads=1, kernel="scalar")
    assert_stats_equal(scalar_base, small_flagship(paths=700, threads=4, kernel="scalar"))


def test_identical_seed_identical_stats():
    assert_stats_equal(small_flagship(seed=42), small_flagship(seed=42))


@pytest.mark.parametrize("paths", [513, 1100])
def test_vector_scalar_parity_ragged_last_chunk(paths):
    median = euclid_median()
    cases = (
        (two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0)), (0.5, 1.0)),
        (frechet_r1(), "sppa", H11, Euclidean((2.0,)), (0.3,)),
        (median, "sppa", H11, Euclidean((0.0, 0.0)), (0.5,)),
        (segment_argmin(), "sb", H11, Euclidean((2.0, 2.0)), (0.8,)),
        # Prox and subgradient steps taken at an atom (d == 0) leave the point.
        (median, "sppa", H11, Euclidean((2.0, 0.0)), (0.5,)),
        (euclid_two_atom_busemann(), "sb", H11, Euclidean((-1.0, 0.0)), (0.5,)),
        (r1_single_atom_busemann(), "sb", H11, Euclidean((1.0,)), (0.5,)),
    )
    for problem, algorithm, sched, x0, eps in cases:
        kw = dict(paths=paths, horizon=20, seed=11, epsilons=eps)
        v = run_ensemble(problem, algorithm, sched, x0, kernel="vector", **kw)
        s = run_ensemble(problem, algorithm, sched, x0, kernel="scalar", **kw)
        assert_stats_equal(v, s)


def test_vector_skm_projects_once_per_set_and_step(monkeypatch):
    # Per step: one projection onto each of the two half-spaces, shared by
    # the gap and the step, and one onto the solution set for the distance.
    from fejerlab import problems

    problem, x0, horizon = two_halfspace(), Euclidean((1.0, 1.0)), 9
    calls = []
    project = problems.project_convex
    monkeypatch.setattr(problems, "project_convex", lambda cset, x: calls.append(cset) or project(cset, x))
    run_ensemble(problem, "skm", Constant(0.5), x0, 7, horizon, 1, EPS, kernel="vector")
    assert len(calls) == 3 * (horizon + 1)


# ---------------------------------------------------------------------------
# Streaming reduction against full-matrix references
# ---------------------------------------------------------------------------


def _chunked_sums(M: np.ndarray) -> np.ndarray:
    """Column sums of an ensemble matrix: per CHUNK-row slice, folded in
    ascending slice order."""
    parts = [M[a : a + CHUNK].sum(axis=0) for a in range(0, len(M), CHUNK)]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _full_matrix_reference(dist: np.ndarray, gap: np.ndarray, epsilons) -> dict:
    sq = dist * dist
    sup = np.maximum.accumulate(dist[:, ::-1], axis=1)[:, ::-1]
    return {
        "sums": [_chunked_sums(m) for m in (dist, sq, sq * sq, gap, gap * gap)],
        "tail": [(sup >= e).sum(axis=0) for e in epsilons],
        "point": [(dist >= e).sum(axis=0) for e in epsilons],
    }


def _reference_ensemble(problem, algorithm, sched, x0, paths, horizon, seed, epsilons):
    trajs = [run_path(problem, algorithm, sched, x0, horizon, seed, p) for p in range(paths)]
    dist = np.array([[dist_to_solutions(problem, pt, 1) for pt in t.points] for t in trajs])
    gap = np.array([[gap_F(problem, pt) for pt in t.points] for t in trajs])
    return _full_matrix_reference(dist, gap, epsilons)


def _assert_matches_reference(stats: EnsembleStats, ref: dict):
    paths = stats.paths
    sd, sd2, _, sg, _ = ref["sums"]
    assert np.array_equal(stats.mean_dist, sd / paths)
    assert np.array_equal(stats.mean_sq_dist, sd2 / paths)
    assert np.array_equal(stats.mean_gap, sg / paths)
    for i, e in enumerate(stats.epsilons):
        assert np.array_equal(stats.tail[e], ref["tail"][i] / paths), e
        assert np.array_equal(stats.point_tail[e], ref["point"][i] / paths), e


def _crafted_distances(paths: int, horizon: int) -> np.ndarray:
    """Random distances below 1, with path 0 never reaching the threshold 2,
    path 1 reaching it only at n = 0, path 2 only at n = horizon, and every
    fourth path from path 3 on at a few spread-out steps."""
    r = np.random.default_rng(paths * 1000 + horizon)
    dist = r.random((paths, horizon + 1)) * 2.0 ** r.integers(-30, 1, (paths, horizon + 1))
    dist[3::4, :: max(1, horizon // 3)] = 2.5
    if paths > 1:
        dist[1, 0] = 2.0
    if paths > 2:
        dist[2, horizon] = 3.0
    return dist


@pytest.mark.parametrize(
    "paths,horizon",
    [(1, 0), (1, 70), (3, 0), (600, 0), (3, 1), (513, 65), (1100, 130), (1025, 128)],
)
def test_reducer_matches_full_matrix_reference(paths, horizon):
    dist = _crafted_distances(paths, horizon)
    gap = np.sqrt(dist) * 0.3
    epsilons = (2.0, 1e-3, 10.0)
    ref = _full_matrix_reference(dist, gap, epsilons)

    red = _Reducer(paths, horizon, epsilons)
    n0 = 0
    while n0 <= horizon:
        width = _block_width(n0, horizon + 1)
        red.add(n0, np.array(dist[:, n0 : n0 + width]), np.array(gap[:, n0 : n0 + width]))
        n0 += width

    for got, want in zip(red.sums, ref["sums"]):
        assert np.array_equal(got, want)
    assert np.array_equal(red.tail_counts(), np.array(ref["tail"]))
    assert np.array_equal(red.point, np.array(ref["point"]))
    assert np.all(red.tail_counts()[2] == 0)  # no path reaches 10
    last = red.last[0]  # the last index at which each path reaches 2
    assert last[0] == -1
    if paths > 2:
        assert last[1] == 0 and last[2] == horizon


@pytest.mark.parametrize("paths,horizon", [(1, 0), (1, 30), (513, 0), (513, 30)])
def test_ensemble_matches_scalar_trajectory_reference(paths, horizon):
    # Distances never increase from (1, 1), so eps = sqrt(2) is reached only
    # at n = 0 and eps = 2 never.
    args = (two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0)), paths, horizon, 3)
    epsilons = (math.sqrt(2.0), 2.0, 0.3)
    ref = _reference_ensemble(*args, epsilons)
    for kernel in ("vector", "scalar"):
        stats = run_ensemble(*args, epsilons, kernel=kernel)
        _assert_matches_reference(stats, ref)
        assert stats.tail[math.sqrt(2.0)][0] == 1.0
        assert np.all(stats.tail[math.sqrt(2.0)][1:] == 0.0)
        assert np.all(stats.tail[2.0] == 0.0)
    # The spaces that only take batches of one.
    for problem, algorithm, x0 in (
        (tripod_median(), "sppa", Tripod(0, 1.5)),
        (tripod_median_busemann(), "sb", Tripod(1, 1.5)),
        (halfplane_single_atom(), "sppa", HalfPlane(1.0, 2.0)),
        (halfplane_majority(), "sppa", HalfPlane(0.0, math.exp(1.15))),
    ):
        args = (problem, algorithm, H11, x0, paths, horizon, 3)
        epsilons = (0.5, 0.05)
        ref = _reference_ensemble(*args, epsilons)
        _assert_matches_reference(run_ensemble(*args, epsilons), ref)


def _box_and_halfspace():
    # x1 >= -1, x2 <= 0.5 and x2 >= -0.5.
    box = Box((-1.0, -math.inf), (math.inf, 0.5))
    return FixedPointProblem("euclidean", (box, Halfspace((0.0, -1.0), 0.5)), (0.6, 0.4))


# name -> (problem, algorithm, schedule, start) of the bit-for-bit grid.
_GRID_CASES = {
    "skm-two-halfspaces": lambda: (two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0))),
    "skm-box-halfspace": lambda: (
        _box_and_halfspace(), "skm", Constant(0.5), Euclidean((3.0, 2.0))
    ),
    "skm-ball": lambda: (
        FixedPointProblem("euclidean", (Ball(Euclidean((0.5, -0.5)), 0.75),), (1.0,)),
        "skm", Constant(0.7), Euclidean((2.0, 1.0)),
    ),
    "skm-segment": lambda: (
        FixedPointProblem(
            "euclidean", (Segment(Euclidean((-1.0, 0.0)), Euclidean((1.0, 1.0))),), (1.0,)
        ),
        "skm", Constant(1.0), Euclidean((0.0, 2.0)),
    ),
    "sppa-half-squared": lambda: (frechet_r1(), "sppa", H11, Euclidean((2.0,))),
    "sppa-distance": lambda: (euclid_median(), "sppa", H11, Euclidean((0.0, 0.0))),
    "sb-segment-argmin": lambda: (segment_argmin(), "sb", H11, Euclidean((2.0, 2.0))),
    "sb-two-atoms": lambda: (euclid_two_atom_busemann(), "sb", H11, Euclidean((-1.0, 0.0))),
    "tripod-sppa": lambda: (tripod_median(), "sppa", H11, Tripod(0, 1.5)),
    "tripod-sb": lambda: (tripod_median_busemann(), "sb", H11, Tripod(1, 1.5)),
    "halfplane-sppa": lambda: (
        halfplane_majority(), "sppa", H11, HalfPlane(0.0, math.exp(1.15))
    ),
    "halfplane-sppa-half-squared": lambda: (
        halfplane_single_atom(), "sppa", H11, HalfPlane(1.0, 2.0)
    ),
}

# SHA-256 of every statistic of the grid's ensembles, recorded before the
# harness had one kernel (a path-major scalar kernel and a step-major
# Euclidean one); the half-plane cases were recorded before the scalar
# path-step lost its per-draw NumPy call and its projection onto a point,
# and re-recorded when the half-plane geodesic took its abscissa from the
# nearer end (last-bit moves; no tail count changed).
_GRID_DIGESTS = {
    "halfplane-sppa": "5f18424f2a3e35e905f65543d2689ae98be15fc9e5072ec2115b9ea53ee995b0",
    "halfplane-sppa-half-squared": (
        "45c23a86c32a416b5c8e43434b4fdd21087fea18a1f8fe392da703b79abbd0f7"
    ),
    "sb-segment-argmin": "c9d1141013e32c3abde3331b25599c9154bd3cc6e405d5a06fe48445e185e2db",
    "sb-two-atoms": "bd354f594b20f604c0a6c65d02df2288b435ca8194bca330282197b224682f9a",
    "skm-ball": "097629ed71d0c92f32839f4ef6e59724a02bd0db08f2bc8858b1fa9ae07404dc",
    "skm-box-halfspace": "8a0dbbd00894c816e08977d023a172df61fb110dcaa6edf41c1556581838833f",
    "skm-segment": "4d6a7bf9c498b2f7649c64bf53a74e62c96d82ded63520a86f860884d60ef570",
    "skm-two-halfspaces": "8e75b78a474c56a1c3e1717fc62fd89b4903430517c8d512fa6efc0a9bf24c16",
    "sppa-distance": "b412e7694dc26e43bfcec753d458596b6a44ddf6da39d22ac740c16c657df408",
    "sppa-half-squared": "371e5eb843cd5b4c18f9a52c9cbfd14ccb90b2dd96156c35d8f632d19b11163f",
    "tripod-sb": "73500788a0cf9a3f631755e90ad694c283756d1357d017bf982cf080af57cc2b",
    "tripod-sppa": "fd51a3eb04abf64d87ec752559db057074cb294222fd59858e46c7417b4c655a",
}


def _grid_digest(name: str) -> str:
    """SHA-256 over the dtype and bytes of every statistic, for paths {1, 7,
    513} x horizons {0, 1, 2, 65}; Euclidean cases run the default kernel
    ("vector") and, at 7 paths or fewer, also kernel="scalar"."""
    problem, algorithm, sched, x0 = _GRID_CASES[name]()
    h = hashlib.sha256()
    for paths in (1, 7, 513):
        for horizon in (0, 1, 2, 65):
            scalar = paths <= 7 and problem.space == "euclidean"
            for kernel in ("vector", "scalar") if scalar else ("vector",):
                stats = run_ensemble(
                    problem, algorithm, sched, x0, paths, horizon, 11, (0.5, 0.1), kernel=kernel
                )
                arrays = [getattr(stats, f) for f in ("mean_dist", "mean_sq_dist", "mean_gap")]
                arrays += [getattr(stats, f) for f in ("std_dist", "std_sq_dist", "std_gap")]
                arrays += [stats.tail[e] for e in stats.epsilons]
                arrays += [stats.point_tail[e] for e in stats.epsilons]
                for a in arrays:
                    h.update(a.dtype.str.encode() + a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_GRID_CASES))
def test_ensemble_grid_is_bit_for_bit_recorded(name):
    assert _grid_digest(name) == _GRID_DIGESTS[name]


# The grid's tree and half-plane cases, and Krasnoselskii-Mann on one tree
# or half-plane set, which the wide kernel also steps as one batch.
_CURVED_CASES = {
    **{
        name: case for name, case in _GRID_CASES.items()
        if name.startswith(("tripod", "halfplane"))
    },
    "tripod-skm-segment": lambda: (
        FixedPointProblem("tripod", (TripodSegment((1.0, 0.5, 2.0)),), (1.0,)),
        "skm", Constant(0.7), Tripod(1, 2.0),
    ),
    "halfplane-skm-ball": lambda: (
        FixedPointProblem("halfplane", (Ball(HalfPlane(0.0, 1.0), 0.5),), (1.0,)),
        "skm", Constant(0.7), HalfPlane(1.0, 3.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_CURVED_CASES))
@pytest.mark.parametrize("paths", [7, 513])
def test_wide_kernel_matches_scalar_in_curved_spaces(name, paths):
    # 513 paths draw from two CHUNK slices of streams.
    problem, algorithm, sched, x0 = _CURVED_CASES[name]()
    args = (problem, algorithm, sched, x0, paths, 65, 11, (0.5, 0.1))
    wide = run_ensemble(*args, kernel="vector")
    assert_stats_equal(wide, run_ensemble(*args, kernel="scalar"))
    assert np.any(wide.mean_dist[1:] != wide.mean_dist[0])  # the paths moved


@pytest.mark.parametrize("name", ["halfplane-sppa", "tripod-sppa"])
def test_scalar_kernel_reads_no_shared_atom_distances(name, monkeypatch):
    # The wide step reads the atom distances the kernel shares; a scalar
    # path takes its own.  Scaling the shared ones by 1 + 1e-9 must move the
    # wide kernel's iterates, and so its statistics, off the scalar ones.
    def scaled(problem, x):
        return tuple(d * (1.0 + 1e-9) for d in sample_data(problem, x))

    monkeypatch.setattr(harness, "sample_data", scaled)
    problem, algorithm, sched, x0 = _CURVED_CASES[name]()
    args = (problem, algorithm, sched, x0, 7, 65, 11, (0.5, 0.1))
    wide, scalar = run_ensemble(*args, kernel="vector"), run_ensemble(*args, kernel="scalar")
    assert not np.array_equal(wide.mean_dist, scalar.mean_dist)


@pytest.mark.parametrize("name", sorted(_CURVED_CASES))
def test_wide_kernel_warns_nowhere_in_curved_spaces(name):
    # Steps from a drawn atom (d = 0) and projections of points inside the
    # set divide by nothing that is zero: no RuntimeWarning.
    problem, algorithm, sched, x0 = _CURVED_CASES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_ensemble(problem, algorithm, sched, x0, 7, 65, 11, (0.5, 0.1))


@pytest.mark.parametrize(
    "name", ["halfplane-sppa", "halfplane-sppa-half-squared", "tripod-sppa", "tripod-sb"]
)
def test_batched_observables_match_the_point_api(name):
    # The kernel takes each step's distances and gaps as one batch of all
    # paths.  The point API's values at the runners' iterates, folded by the
    # reducer, must give the ensemble's statistics bit for bit.
    problem, algorithm, sched, x0 = _GRID_CASES[name]()
    paths, horizon, seed, epsilons = 7, 30, 11, (0.5, 0.1)
    trajs = [run_path(problem, algorithm, sched, x0, horizon, seed, p) for p in range(paths)]
    dist = np.array([[dist_to_solutions(problem, x) for x in t.points] for t in trajs])
    gap = np.array([[gap_F(problem, x) for x in t.points] for t in trajs])
    red = _Reducer(paths, horizon, epsilons)
    n0 = 0
    while n0 <= horizon:
        width = _block_width(n0, horizon + 1)
        red.add(n0, np.array(dist[:, n0 : n0 + width]), np.array(gap[:, n0 : n0 + width]))
        n0 += width

    def std(s1, s2):
        return np.sqrt(np.maximum((s2 - s1 * s1 / paths) / (paths - 1), 0.0))

    stats = run_ensemble(problem, algorithm, sched, x0, paths, horizon, seed, epsilons)
    sd, sd2, sd4, sg, sg2 = red.sums
    tail = red.tail_counts()
    ref = dataclasses.replace(
        stats,
        mean_dist=sd / paths,
        mean_sq_dist=sd2 / paths,
        mean_gap=sg / paths,
        std_dist=std(sd, sd2),
        std_sq_dist=std(sd2, sd4),
        std_gap=std(sg, sg2),
        tail={e: tail[i] / paths for i, e in enumerate(epsilons)},
        point_tail={e: red.point[i] / paths for i, e in enumerate(epsilons)},
    )
    assert_stats_equal(stats, ref)
    assert np.any(stats.std_dist > 0.0) and np.any(stats.mean_gap > 0.0)


# name -> (problem, algorithm, schedule, start) of one long path that takes
# a step from its drawn atom (d = 0) and steps nearer than lambda (d < lambda).
_LONG_PATH_CASES = {
    "halfplane-sppa": lambda: (
        halfplane_majority(), "sppa", H11, HalfPlane(0.0, math.exp(1.15))
    ),
    "tripod-sppa": lambda: (tripod_median(), "sppa", Harmonic(50.0, 1.0), Tripod(0, 1.5)),
    "tripod-sb": lambda: (tripod_median_busemann(), "sb", Harmonic(10.0, 1.0), Tripod(1, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_LONG_PATH_CASES))
def test_shared_distances_match_the_point_api_on_one_long_path(name):
    # The kernel takes each atom's distance once per step, and the solution
    # distance, the gap and the next step all read it.  On one path the
    # ensemble's means are that path's own values: they must equal the point
    # API's at the runner's iterates (the runner shares nothing) bit for bit.
    problem, algorithm, sched, x0 = _LONG_PATH_CASES[name]()
    horizon, seed = 240, 13
    traj = run_path(problem, algorithm, sched, x0, horizon, seed)
    stats = run_ensemble(problem, algorithm, sched, x0, 1, horizon, seed, ())
    dist = np.array([dist_to_solutions(problem, x) for x in traj.points])
    gap = np.array([gap_F(problem, x) for x in traj.points])
    assert np.array_equal(stats.mean_dist.view(np.uint64), dist.view(np.uint64))
    assert np.array_equal(stats.mean_gap.view(np.uint64), gap.view(np.uint64))
    # Both branches of a step toward the drawn atom were taken, twice each.
    d = [distance(x, problem.atoms[e][0]) for x, e in zip(traj.points, traj.indices)]
    assert sum(di == 0.0 for di in d) >= 2
    assert sum(0.0 < di < lam for di, lam in zip(d, traj.steps)) >= 2


def _envelope_record(cert, mean_sq, paths=64):
    """fast_audit's envelope record on a hand-built ensemble of `paths`
    paths with these means of squares at n = 0, 1, ... and no spread."""
    zeros = np.zeros(len(mean_sq))
    stats = EnsembleStats(
        "skm", paths, len(mean_sq) - 1, (), zeros, np.array(mean_sq), zeros, zeros, zeros, zeros,
    )
    (record,) = fast_audit(stats, cert, ()).records
    return record


def test_fast_envelope_allows_the_rounding_of_its_mean_and_no_more():
    # Every path sits at d^2 = 2e100 = u/r: the exact mean of squares meets
    # the envelope at n = 0, and only rounding can put it above.
    cert = FastCertificate(u=16 * 2e100, r=16)
    env = cert.u / 16
    allowance = _envelope_rounding(64, env, 0.0, env)
    assert 0.0 < allowance < 1e-13 * env
    for mean_sq, held in (
        (env, True),
        (env + 0.5 * allowance, True),
        (env + 2.0 * allowance, False),
        (env * (1.0 + 1e-12), False),
    ):
        record = _envelope_record(cert, [mean_sq])
        assert record.bound_satisfied is held, mean_sq
        assert record.mc_margin == env - mean_sq  # the printed margin is the raw slack
    # A nan or infinite statistic fails, as it did before the allowance.
    record = _envelope_record(cert, [math.nan])
    assert record.bound_satisfied is False and math.isnan(record.mc_margin)
    record = _envelope_record(cert, [math.inf])
    assert record.bound_satisfied is False and record.mc_margin == -math.inf
    # With r = 1 the bound halves from n = 0 to n = 1, and so does the
    # allowance: a smaller excess fails at n = 1, while n = 0's larger one
    # is rounding.  The record names the failing index.
    a0 = _envelope_rounding(64, 2e100, 0.0, 2e100)
    cert1 = FastCertificate(u=2e100, r=1)
    record = _envelope_record(cert1, [2e100 + 0.9 * a0, 1e100 + 0.7 * a0])
    assert (record.bound_satisfied, record.predicted_index) == (False, 1)


def test_ensemble_memory_is_bounded_in_the_horizon():
    # The (paths x horizon+1) distance and gap matrices of one 512-path
    # chunk alone would take 32 MB here.
    tracemalloc.start()
    try:
        small_flagship(paths=1024, horizon=4000, eps=(1.0, 0.3, 0.2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_vector_kernel_equals_scalar_on_the_tripod():
    # Every space draws and steps as one batch, the tree's too.
    args = (tripod_median(), "sppa", H11, Tripod(0, 1.0), 10, 5, 0, (0.5,))
    assert_stats_equal(
        run_ensemble(*args, kernel="vector"), run_ensemble(*args, kernel="scalar")
    )


def test_run_ensemble_validation():
    p = two_halfspace()
    x0 = Euclidean((1.0, 1.0))
    with pytest.raises(ValueError):
        run_ensemble(p, "spam", Constant(0.5), x0, 10, 5, 0, ())
    with pytest.raises(ValueError):  # duplicate thresholds
        run_ensemble(p, "skm", Constant(0.5), x0, 10, 5, 0, (0.5, 0.5))
    with pytest.raises(ValueError):  # nonpositive threshold
        run_ensemble(p, "skm", Constant(0.5), x0, 10, 5, 0, (0.0,))
    with pytest.raises(TypeError):  # algorithm/problem mismatch
        run_ensemble(frechet_r1(), "skm", Constant(0.5), Euclidean((1.0,)), 10, 5, 0, ())
    with pytest.raises(ValueError, match="unknown kernel"):  # "vector" or "scalar" only
        run_ensemble(p, "skm", Constant(0.5), x0, 10, 5, 0, (), kernel="auto")
    with pytest.raises(ValueError):  # sb start outside constraint
        run_ensemble(segment_argmin(), "sb", H11, Euclidean((3.0, 0.0)), 10, 5, 0, ())


# ---------------------------------------------------------------------------
# Statistics semantics
# ---------------------------------------------------------------------------


def test_start_in_solution_set_gives_zero_curves():
    stats = run_ensemble(
        two_halfspace(), "skm", Constant(0.5), Euclidean((-1.0, -1.0)), 50, 30, 1, (0.5,)
    )
    assert np.all(stats.mean_dist == 0.0)
    assert np.all(stats.mean_gap == 0.0)
    assert np.all(stats.tail[0.5] == 0.0)


def test_single_path_matches_trajectory():
    p = segment_argmin()
    x0 = Euclidean((2.0, 2.0))
    stats = run_ensemble(p, "sb", H11, x0, 1, 25, 77, (0.5,), kernel="scalar")
    traj = run_path(p, "sb", H11, x0, 25, 77, path_index=0)
    for n, pt in enumerate(traj.points):
        assert stats.mean_dist[n] == dist_to_solutions(p, pt, 1)
        assert stats.mean_gap[n] == gap_F(p, pt)
    assert np.all(stats.std_dist == 0.0)  # undefined spread reported as zero


def test_stderr_halves_when_paths_double():
    # averaged over 20 replications the stderr ratio should sit near sqrt(2)
    n_rep, at = 20, 40
    ratios = []
    for rep in range(n_rep):
        small = run_ensemble(
            frechet_r1(), "sppa", H11, Euclidean((2.0,)), 200, at, 1000 + rep, ()
        )
        big = run_ensemble(
            frechet_r1(), "sppa", H11, Euclidean((2.0,)), 400, at, 5000 + rep, ()
        )
        ratios.append(small.stderr_dist()[at] / big.stderr_dist()[at])
    mean_ratio = float(np.mean(ratios))
    assert 1.09 <= mean_ratio <= 1.74  # sqrt(2) +- 3 sigma of the replication spread


def test_tail_probability_semantics():
    stats = small_flagship()
    assert tail_probability(stats, 0, -1.0) == 1.0
    for e in EPS:
        probs = [tail_probability(stats, n, e) for n in range(stats.horizon + 1)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))  # sup-tail shrinks in n
    for n in (0, 10, stats.horizon):
        assert tail_probability(stats, n, 1.0) <= tail_probability(stats, n, 0.5)
    with pytest.raises(ValueError):
        tail_probability(stats, stats.horizon + 1, 0.5)
    with pytest.raises(ValueError):
        tail_probability(stats, 0, 0.123)  # threshold not recorded


def test_point_tail_below_sup_tail():
    stats = small_flagship()
    for e in EPS:
        assert np.all(stats.point_tail[e] <= stats.tail[e])


def test_supermartingale_envelope_flagship():
    stats = small_flagship(paths=800, horizon=100)
    ms, se = stats.mean_sq_dist, stats.stderr_sq_dist()
    for n in range(100):
        assert ms[n + 1] <= ms[n] + 3.0 * max(se[n], se[n + 1]) + 1e-12


def test_square_threshold_equivalence_on_samples():
    # the events {d >= eps} and {d^2 >= eps^2} coincide sample by sample
    p = segment_argmin()
    traj = run_path(p, "sb", H11, Euclidean((2.0, 2.0)), 60, 13)
    dists = [dist_to_solutions(p, pt, 1) for pt in traj.points]
    for eps in (0.3, 0.7, 1.1):
        for d in dists:
            assert (d >= eps) == (d * d >= eps * eps)


# ---------------------------------------------------------------------------
# One-step inequality audit
# ---------------------------------------------------------------------------


def test_fejer_margin_exact_skm():
    m = fejer_margin(two_halfspace(), "skm", Euclidean((1.0, 2.0)), 0.5)
    assert m.stderr == 0.0
    assert m.slack == m.rhs - m.lhs
    assert m.slack >= -1e-10


def test_fejer_margin_exact_sb():
    m = fejer_margin(segment_argmin(), "sb", Euclidean((1.5, 1.5)), 0.3)
    assert m.stderr == 0.0 and m.slack >= -1e-10


def test_fejer_margin_exact_sppa():
    m = fejer_margin(tripod_median(), "sppa", Tripod(1, 1.5), 0.7)
    assert m.stderr == 0.0 and m.slack >= -1e-10


def test_fejer_margin_on_the_whole_space_in_three_dimensions():
    # Every point is a solution, so z defaults to the state itself.
    whole = FixedPointProblem("euclidean", (WholeSpace(),), (1.0,))
    m = fejer_margin(whole, "skm", Euclidean((1.0, 2.0, 3.0)), 0.5)
    assert (m.lhs, m.rhs, m.slack) == (0.0, 0.0, 0.0)


def test_fejer_margin_monte_carlo_reproducible():
    a = fejer_margin(tripod_median(), "sppa", Tripod(1, 1.5), 0.7, mc_samples=20_000, seed=3)
    b = fejer_margin(tripod_median(), "sppa", Tripod(1, 1.5), 0.7, mc_samples=20_000, seed=3)
    assert (a.lhs, a.rhs, a.slack, a.stderr) == (b.lhs, b.rhs, b.slack, b.stderr)
    assert a.stderr > 0.0
    assert a.slack >= -3.0 * a.stderr
    c = fejer_margin(tripod_median(), "sppa", Tripod(1, 1.5), 0.7, mc_samples=20_000, seed=4)
    assert c.lhs != a.lhs


def test_fejer_margin_validation():
    with pytest.raises(ValueError):
        fejer_margin(two_halfspace(), "skm", Euclidean((1.0, 1.0)), 1.5)  # step > 1
    with pytest.raises(ValueError):
        fejer_margin(segment_argmin(), "sb", Euclidean((3.0, 0.0)), 0.5)  # x outside C
    with pytest.raises(ValueError):
        fejer_margin(tripod_median(), "sppa", Tripod(0, 1.0), 0.5, mc_samples=1)


# ---------------------------------------------------------------------------
# Window witness and certificate audits
# ---------------------------------------------------------------------------


def test_liminf_witness_examples():
    stats = run_ensemble(tripod_median(), "sppa", H11, Tripod(0, 1.5), 64, 80, 3, ())
    big_eps = float(stats.mean_gap[0]) + 1.0
    assert liminf_witness_check(stats, big_eps, 0, 80) == 0
    assert liminf_witness_check(stats, 0.0, 0, 80) is None  # gaps are nonnegative
    assert liminf_witness_check(stats, big_eps, 50, 10) is None  # empty window
    with pytest.raises(ValueError):
        liminf_witness_check(stats, 0.5, -1, 10)


def test_liminf_witness_respects_window_start():
    stats = run_ensemble(tripod_median(), "sppa", H11, Tripod(0, 1.5), 64, 80, 3, ())
    eps = float(stats.mean_gap[40]) + 1e-9
    w = liminf_witness_check(stats, eps, 30, 80)
    assert w is not None and 30 <= w <= 40


def test_certificate_audit_checked_and_unchecked_records():
    stats = small_flagship(paths=400, horizon=900, eps=(1.0,))
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    report = certificate_audit(stats, {1.0: cert.metric_rates(1.0, 0.1)}, 0.1)
    assert report.kind == "rate" and report.lam == 0.1
    by_crit = {r.criterion: r for r in report.records}
    mean_rec = by_crit["mean"]
    assert mean_rec.predicted_index == cert.metric_rates(1.0, 0.1)[0] == 480
    assert mean_rec.bound_satisfied is True
    as_rec = by_crit["almost_sure"]
    # the relaxed almost-sure index rho(lam * theta(eps)) falls past the run
    assert as_rec.predicted_index == cert.metric_rates(1.0, 0.1)[3] == 1200
    assert as_rec.bound_satisfied is None  # beyond the horizon: unchecked
    assert "horizon" in as_rec.note
    assert report.all_pass


def test_certificate_audit_checks_tail_within_horizon():
    stats = small_flagship(paths=400, horizon=1500, eps=(1.0,))
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    report = certificate_audit(stats, {1.0: cert.metric_rates(1.0, 0.1)}, 0.1)
    as_rec = {r.criterion: r for r in report.records}["almost_sure"]
    assert as_rec.predicted_index == 1200
    assert as_rec.bound_satisfied is True
    assert as_rec.observed_value_at_index == tail_probability(stats, 1200, 1.0)


def test_certificate_audit_requires_recorded_threshold():
    stats = small_flagship(paths=100, horizon=40, eps=(0.5,))
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    # the audited tail index for eps=6 lies inside the horizon, but the run
    # never recorded that threshold
    with pytest.raises(ValueError):
        certificate_audit(stats, {6.0: cert.metric_rates(6.0, 0.1)}, 0.1)


def test_certificate_audit_lambda_range():
    stats = small_flagship(paths=100, horizon=40)
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    with pytest.raises(ValueError):
        certificate_audit(stats, {0.5: cert.metric_rates(0.5, 0.1)}, 0.0)


def test_fast_audit_envelope_and_tail():
    cert, sched = fast_certificate_skm(two_halfspace(), 2.0, 16, Euclidean((1.0, 1.0)))
    stats = run_ensemble(
        two_halfspace(), "skm", sched, Euclidean((1.0, 1.0)), 400, 200, 11, (1.0, 2.0)
    )
    report = fast_audit(stats, cert, [1.0, 4.0])
    assert report.kind == "fast" and report.lam is None
    crits = {r.criterion for r in report.records}
    assert crits == {"fast_mean_envelope", "fast_tail"}
    assert report.all_pass
    env = [r for r in report.records if r.criterion == "fast_mean_envelope"][0]
    assert env.bound_satisfied is True
    with pytest.raises(ValueError):
        fast_audit(stats, cert, [9.0])  # sqrt(9)=3 was not recorded


# ---------------------------------------------------------------------------
# Export and round trips
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_byte_identical(tmp_path):
    stats = small_flagship(paths=64, horizon=30)
    text = curves_csv_text(stats)
    path = tmp_path / "curves.csv"
    path.write_text(text)
    cols = load_curves(str(path))
    rebuilt = stats_from_curves(cols, stats.algorithm, stats.paths)
    assert curves_csv_text(rebuilt) == text


def test_csv_without_thresholds_has_no_tail_columns():
    stats = run_ensemble(
        two_halfspace(), "skm", Constant(0.5), Euclidean((1.0, 1.0)), 16, 10, 1, ()
    )
    header = curves_csv_text(stats).splitlines()[0]
    assert "tail" not in header
    assert header.startswith("n,mean_dist,mean_sq_dist,mean_gap")


def test_export_results_writes_curves_and_audit(tmp_path):
    stats = small_flagship(paths=64, horizon=30)
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    report = certificate_audit(stats, {1.0: cert.metric_rates(1.0, 0.1)}, 0.1)
    prefix = str(tmp_path / "exp-")
    written = export_results(stats, report, prefix)
    assert written == [prefix + "curves.csv", prefix + "audit.json"]
    doc = json.loads((tmp_path / "exp-audit.json").read_text())
    assert doc["schema"] == "fejerlab-audit-v1"
    assert AuditReport.from_json_dict(doc) == report


def test_export_without_report_writes_only_curves(tmp_path):
    stats = small_flagship(paths=16, horizon=5)
    prefix = str(tmp_path / "solo-")
    written = export_results(stats, None, prefix)
    assert written == [prefix + "curves.csv"]
    assert not (tmp_path / "solo-audit.json").exists()


def test_export_to_unwritable_prefix_names_the_path(tmp_path):
    stats = small_flagship(paths=16, horizon=5)
    prefix = str(tmp_path / "missing" / "sub" / "x-")
    with pytest.raises(OSError, match="curves.csv"):
        export_results(stats, None, prefix)


def test_audit_report_rejects_unknown_schema():
    with pytest.raises(ValueError):
        AuditReport.from_json_dict({"schema": "something-else", "records": []})


def test_load_curves_validates_header_and_rows(tmp_path):
    good = small_flagship(paths=16, horizon=5)
    path = tmp_path / "c.csv"
    path.write_text(curves_csv_text(good))
    cols = load_curves(str(path))
    assert len(cols["n"]) == 6
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_curves(str(path))
    # break row contiguity
    text = curves_csv_text(good).splitlines()
    text[3], text[4] = text[4], text[3]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        load_curves(str(path))
