"""Package-level acceptance suite: eight criteria, one test each.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every test enforces the stated numerical tolerance and runtime
budget; the ensemble-scale criteria (4, 5, 8) share one flagship run through
a module-level cache so the suite stays inside its budgets.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from conftest import ball_point, modulus_for_power, random_weights

from fejerlab.algorithms import (
    certificate_skm,
    fast_certificate_skm,
    fejer_budget,
    liminf_bound_sb,
    liminf_bound_sppa,
)
from fejerlab.cli import main as cli_main
from fejerlab.harness import (
    certificate_audit,
    curves_csv_text,
    fast_audit,
    fejer_margin,
    run_ensemble,
    tail_probability,
)
from fejerlab.moduli import (
    Constant,
    Harmonic,
    fast_bounds,
    recursion_bound_u,
    schedule_square_sum_bound,
)
from fejerlab.problems import (
    dist_to_solutions,
    euclid_two_atom_busemann,
    frechet_r1,
    gap_F,
    halfplane_single_atom,
    r1_single_atom_busemann,
    segment_argmin,
    tripod_frechet,
    tripod_median,
    tripod_median_busemann,
    two_halfspace,
)
from fejerlab.rng import make_state, next_uniform
from fejerlab.spaces import Euclidean, Tripod, geometry_suite

FLAGSHIP_SEED = 20260814
_cache: dict = {}


def _flagship():
    """The flagship projection-splitting ensemble, built once per session:
    two-halfspace instance, constant relaxation 1/2, x0=(1,1), 2000 paths,
    horizon 20000, tail thresholds 0.3 and 0.2."""
    if "flagship" not in _cache:
        problem = two_halfspace()
        sched = Constant(0.5)
        x0 = Euclidean((1.0, 1.0))
        stats = run_ensemble(
            problem, "skm", sched, x0, 2000, 20000, FLAGSHIP_SEED, (0.3, 0.2), threads=4
        )
        _cache["flagship"] = (problem, sched, x0, stats)
    return _cache["flagship"]


def test_criterion_1_geometry_suites():
    # CPU time of this process, so busy neighbours on the machine do not count.
    t0 = time.process_time()
    for space in ("euclidean", "tripod", "halfplane"):
        summary = geometry_suite(space, samples=10_000, seed=0)
        res = summary["residuals"]
        assert summary["pass"] is True, f"{space}: {res}"
        # metric axioms and the geodesic-parameter identity
        for key in ("symmetry", "identity", "triangle", "geodesic_parameter"):
            assert res[key] <= 1e-10, f"{space}.{key} = {res[key]}"
        # curvature inequalities: CN and the quasi-triangle family q in {1,2,3}
        assert res["cn"] <= 1e-10, f"{space}.cn = {res['cn']}"
        assert res["quasi_triangle"] <= 1e-10, f"{space}.qt = {res['quasi_triangle']}"
    elapsed = time.process_time() - t0
    assert elapsed < 1.0, f"geometry suites took {elapsed:.2f}s of CPU time"


def test_criterion_2_recursion_bound_lemma():
    t0 = time.monotonic()
    assert recursion_bound_u(1.5, 3.0, 1.0, 1.0) == 6.0

    # 100 random parameterizations; r >= ceil(c) keeps every recursion
    # coefficient 1 - c/(n+r) nonnegative from n = 0 on.
    state = make_state(2026, 0)
    n_params = 100
    c = np.empty(n_params)
    r = np.empty(n_params)
    d = np.empty(n_params)
    x0 = np.empty(n_params)
    for i in range(n_params):
        u1, state = next_uniform(state)
        u2, state = next_uniform(state)
        u3, state = next_uniform(state)
        u4, state = next_uniform(state)
        c[i] = 1.0 + 2.0 * max(u1, 1e-9)
        r[i] = math.ceil(c[i]) + int(8.0 * u2)
        d[i] = 10.0 * u3
        x0[i] = 10.0 * u4
    u = np.array(
        [recursion_bound_u(c[i], d[i], r[i], x0[i]) for i in range(n_params)]
    )

    # Equality-case recursion x_{n+1} = (1 - c/(n+r)) x_n + d/(n+r)^2,
    # dominated by u/(n+r) for every n.
    allowance = u * (1.0 + 1e-12)
    x = x0.copy()
    steps = 100_000
    worst = np.max(x * r - allowance)
    for n in range(steps):
        denom = n + r
        x = (1.0 - c / denom) * x + d / (denom * denom)
        worst = max(worst, np.max(x * (denom + 1.0) - allowance))
    assert worst <= 0.0, f"recursion bound violated by {worst:.3e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"recursion audit took {elapsed:.2f}s"


def test_criterion_3_one_step_fejer_inequalities():
    t0 = time.monotonic()

    # Exact finite-sum audits on 10^3 frozen states for each of skm and sb.
    skm_problem = two_halfspace()
    state = make_state(31, 0)
    for _ in range(1000):
        x, state = ball_point(skm_problem.solution_anchor, 3.0, state)
        u, state = next_uniform(state)
        m = fejer_margin(skm_problem, "skm", x, 0.05 + 0.95 * u)
        assert m.stderr == 0.0
        assert m.slack >= -1e-10, f"skm slack {m.slack:.3e} at {x}"

    sb_problem = segment_argmin()
    for _ in range(1000):
        x, state = ball_point(sb_problem.solution_anchor, 2.0, state)
        u, state = next_uniform(state)
        m = fejer_margin(sb_problem, "sb", x, 0.05 + 0.95 * u)
        assert m.stderr == 0.0
        assert m.slack >= -1e-10, f"sb slack {m.slack:.3e} at {x}"

    # Monte-Carlo audit (m = 10^5 draws) on 100 frozen sppa states.
    sppa_problem = tripod_median(2.0)
    for i in range(100):
        x, state = ball_point(sppa_problem.solution_anchor, 2.0, state)
        u, state = next_uniform(state)
        m = fejer_margin(
            sppa_problem, "sppa", x, 0.05 + 1.95 * u, mc_samples=100_000, seed=i
        )
        assert m.slack >= -3.0 * m.stderr, (
            f"sppa slack {m.slack:.3e} below -3 stderr ({m.stderr:.3e}) at {x}"
        )

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"one-step audits took {elapsed:.2f}s"


def test_criterion_4_flagship_skm_rate_audit():
    t0 = time.monotonic()
    problem, sched, x0, stats = _flagship()
    cert = certificate_skm(problem, sched, x0)
    assert problem.v == 2.0
    assert cert.b == pytest.approx(2.5, abs=1e-12)

    # Predicted mean-rate index for metric eps = 0.2 at lambda = 0.1.
    rates = cert.metric_rates(0.2, 0.1)
    assert rates[0] == 12000
    se = stats.stderr_dist()
    above = stats.mean_dist[12000:] - (0.2 + 3.0 * se[12000:])
    assert np.all(above < 0.0), f"mean dist exceeds 0.2+3se by {np.max(above):.3e}"

    # Almost-sure audit at lambda = 0.1, eps = 0.3: truncated tail frequency
    # at the relaxed index, against the binomial allowance around 0.1.
    as_index = cert.metric_rates(0.3, 0.1)[3]
    assert as_index == 13334
    observed = tail_probability(stats, as_index, 0.3)
    sigma = math.sqrt(0.1 * 0.9 / stats.paths)
    assert observed <= 0.1 + 3.0 * sigma, f"tail {observed} at {as_index}"

    report = certificate_audit(stats, {e: cert.metric_rates(e, 0.1) for e in (0.3, 0.2)}, 0.1)
    assert report.all_pass

    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"flagship audit took {elapsed:.2f}s"


def test_criterion_5_fast_rate_audit():
    t0 = time.monotonic()
    problem = two_halfspace()
    x0 = Euclidean((1.0, 1.0))
    cert, root = fast_certificate_skm(problem, 2.0, 16, x0)
    assert cert.u == pytest.approx(32.0, rel=1e-12)
    assert cert.r == 16
    assert root.q == pytest.approx(4.0) and root.r == 16

    stats = run_ensemble(
        problem, "skm", root, x0, 2000, 10_000, FLAGSHIP_SEED, (1.0, 2.0), threads=4
    )

    # Mean envelope at every iterate: E[dist^2(x_n)] <= u/(n+r) + 3 stderr.
    n_arr = np.arange(stats.horizon + 1)
    env = cert.u / (n_arr + cert.r)
    excess = stats.mean_sq_dist - (env + 3.0 * stats.stderr_sq_dist())
    assert np.all(excess <= 0.0), f"envelope exceeded by {np.max(excess):.3e}"

    # Truncated tail bound K(u+2d)/(eps(n+r)) at five grid indices.
    grid = [0, 10, 100, 1000, 10_000]
    for eps in (1.0, 4.0):
        thr = math.sqrt(eps)
        for n in grid:
            _, bound = fast_bounds(cert, n, eps)
            if bound >= 1.0:
                continue
            sigma = math.sqrt(bound * (1.0 - bound) / stats.paths) if bound > 0 else 0.0
            observed = float(stats.tail[thr][n])
            assert observed <= bound + 3.0 * sigma, (
                f"tail {observed} vs {bound:.4g} at n={n}, eps={eps}"
            )

    report = fast_audit(stats, cert, (1.0, 4.0), grid=grid)
    assert report.all_pass
    assert sum(r.criterion == "fast_tail" for r in report.records) == 10

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"fast-rate audit took {elapsed:.2f}s"


def test_criterion_6_liminf_window_audits(tmp_path, capsys):
    t0 = time.monotonic()
    harmonic = Harmonic(1.0, 1.0)
    t_sum = schedule_square_sum_bound(harmonic)

    # Tripod-median SPPA: window end phi(2.0, 0) = 1425 <= 2000, and the
    # start point is genuinely outside the target (gap 7/3 > 2).
    tripod_problem = tripod_median(4.0)
    b_tripod = fejer_budget(Tripod(0, 3.0), tripod_problem.solution_anchor, 0.1)
    phi_tripod = liminf_bound_sppa(harmonic, b_tripod, 1.0, t_sum)
    assert phi_tripod(2.0, 0) == 1425 <= 2000
    start_gap = gap_F(tripod_problem, Tripod(0, 3.0))
    assert start_gap == pytest.approx(7.0 / 3.0)
    assert start_gap > 2.0

    # Segment-argmin SB: window end phi(1.0, 0) = 175, gap at x0 is
    # sqrt(5) - 1 > 1.
    sb_problem = segment_argmin()
    b_sb = fejer_budget(Euclidean((0.0, 2.0)), sb_problem.solution_anchor, 0.1)
    phi_sb = liminf_bound_sb(harmonic, b_sb, 1.0, t_sum)
    assert phi_sb(1.0, 0) == 175 <= 2000
    sb_start_gap = gap_F(sb_problem, Euclidean((0.0, 2.0)))
    assert sb_start_gap == pytest.approx(math.sqrt(5) - 1)
    assert sb_start_gap > 1.0

    # Drive both audits through the CLI with the shipped configs: a witness
    # iterate must appear inside each window and the astronomical-index note
    # must be emitted alongside the pass.
    for cfg, window in (
        ("scripts/tripod_sppa_liminf.json", "window [0, 1425]"),
        ("scripts/segment_sb_liminf.json", "window [0, 175]"),
    ):
        out = str(tmp_path / (cfg.split("/")[-1][:6] + "_"))
        rc = cli_main(["audit", "--config", cfg, "--out", out])
        printed = capsys.readouterr().out
        assert rc == 0, printed
        assert "[PASS] gap-window (liminf) check" in printed
        assert window in printed
        assert "witness at n=" in printed
        assert "astronomically large" in printed
        with open(out + "audit.json") as fh:
            doc = json.load(fh)
        assert doc["records"][0]["bound_satisfied"] is True

    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"liminf audits took {elapsed:.2f}s"


def test_criterion_7_regularity_modulus_soundness_in_mean():
    t0 = time.monotonic()
    # Every catalogue instance with a known modulus, with the sampling ball
    # capped so the support stays inside the constraint set.
    instances = [
        (frechet_r1(), 4.0),
        (tripod_median(2.0), 4.0),
        (tripod_frechet(), 4.0),
        (halfplane_single_atom(), 4.0),
        (two_halfspace(), 4.0),
        (r1_single_atom_busemann(), 1.0),
        (euclid_two_atom_busemann(), 2.0),
        (tripod_median_busemann(), 2.0),
    ]
    state = make_state(77, 0)
    for problem, cap in instances:
        for q in (1, 2):
            tau, region = modulus_for_power(problem, q)
            radius = min(region, problem.region_bound, cap)
            for _ in range(1000):
                u, state = next_uniform(state)
                k = 2 + int(3.0 * u)  # 2..4 support points
                support = []
                for _ in range(k):
                    x, state = ball_point(problem.solution_anchor, radius, state)
                    support.append(x)
                weights, state = random_weights(k, state)
                mean_dist = math.fsum(
                    w * dist_to_solutions(problem, x, q)
                    for w, x in zip(weights, support)
                )
                mean_gap = math.fsum(
                    w * gap_F(problem, x) for w, x in zip(weights, support)
                )
                if mean_dist <= 0.0:
                    continue
                bound = tau(mean_dist)
                assert bound <= mean_gap + 1e-9, (
                    f"{type(problem).__name__} q={q}: tau({mean_dist:.6g}) = "
                    f"{bound:.6g} > mean gap {mean_gap:.6g}"
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"modulus soundness took {elapsed:.2f}s"


def test_criterion_8_byte_identical_determinism():
    problem, sched, x0, stats = _flagship()
    reference = curves_csv_text(stats).encode()

    rerun = run_ensemble(
        problem, "skm", sched, x0, 2000, 20000, FLAGSHIP_SEED, (0.3, 0.2), threads=4
    )
    assert curves_csv_text(rerun).encode() == reference

    single_thread = run_ensemble(
        problem, "skm", sched, x0, 2000, 20000, FLAGSHIP_SEED, (0.3, 0.2), threads=1
    )
    assert curves_csv_text(single_thread).encode() == reference
