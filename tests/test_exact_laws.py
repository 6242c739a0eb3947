"""Ensembles checked against the exact law of the process they simulate.

Under the constant relaxation 1/2 the Krasnoselskii-Mann step onto the
coordinate halfspaces {x_i <= 0} halves coordinate i of a point x > 0 when
set i is drawn, and leaves the others.  So from x0 > 0 the iterate after n
steps is (x0_i 2^-A_i)_i with (A_1, ..., A_d) ~ Multinomial(n; w), and
d^2(x_n, S) = sum_i x0_i^2 4^-A_i.  The moments of d^2 follow exactly, in
fractions, from the generating function E prod_i t_i^A_i = (sum_i w_i t_i)^n.
The mean of d and the threshold probabilities are sums over the multinomial
law, with d taken in float from each exact iterate.  d never increases
along a path, so the running-supremum tail equals the point tail.

Pass rule: |z| <= 5, where z is the ensemble's deviation from the exact
value over the exact standard error sqrt(Var / paths); a curve point of
zero variance must equal its exact value.  A point is checked only where
the normal law of z is not undone by rare paths: for a threshold curve when
the exact binomial chance of |z| > 5 is at most ``RARE``, for a mean curve
when the chance that one path alone moves z past 5 is.  Each checked point
then fails a correct run with probability at most 2 Phi(-5) + RARE = 1.6e-6,
so over the fewer than 600 points each test checks (about 180) its
Bonferroni level is below 1e-3.  Past those points the curves are carried by paths too rare to
be drawn, and a sample of this size says nothing about them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from fejerlab.harness import run_ensemble
from fejerlab.moduli import Constant
from fejerlab.problems import FixedPointProblem, two_halfspace
from fejerlab.spaces import Euclidean, Halfspace

PATHS, HORIZON, SEED = 2000, 60, 20260814
Z_MAX = 5.0
RARE = 1e-6
#: The two-sided chance 2 Phi(-5) of |z| > 5 under a normal law.
NORMAL_LEVEL = math.erfc(Z_MAX / math.sqrt(2.0))


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for a in range(n + 1):
        for rest in _compositions(n - a, parts - 1):
            yield (a, *rest)


def _law(weights: tuple[Fraction, ...], x0: tuple[int, ...], n: int) -> list[tuple[float, float]]:
    """(probability, d) of every draw-count vector after n steps."""
    q = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (q // w.denominator) for w in weights]
    out = []
    for a in _compositions(n, len(weights)):
        coef = math.factorial(n)
        for ai in a:
            coef //= math.factorial(ai)
        p = coef * math.prod(m**ai for m, ai in zip(nums, a)) / q**n
        out.append((p, math.hypot(*(c * 2.0**-ai for c, ai in zip(x0, a)))))
    return out


def _moment(weights, x0, n: int, power: int) -> Fraction:
    """E d^(2 power) for power 1 or 2, from the generating function: E
    prod_i 4^-(A_i [i in I]) over each index tuple I of length power."""
    def pgf(idx):
        return sum(w * Fraction(1, 4) ** idx.count(i) for i, w in enumerate(weights)) ** n

    pairs = [(i,) for i in range(len(x0))] if power == 1 else [
        (i, j) for i in range(len(x0)) for j in range(len(x0))
    ]
    return sum(math.prod(x0[i] ** 2 for i in idx) * pgf(idx) for idx in pairs)


def _binomial_level(p: float, q: float) -> float:
    """The exact chance that k ~ Bin(PATHS, p) lies more than Z_MAX
    standard errors from PATHS p."""
    band = Z_MAX * math.sqrt(PATHS * p * q)
    lo, hi = math.ceil(PATHS * p - band) - 1, math.floor(PATHS * p + band) + 1
    logs = lambda k: (math.lgamma(PATHS + 1) - math.lgamma(k + 1) - math.lgamma(PATHS - k + 1)
                      + k * math.log(p) + (PATHS - k) * math.log(q))
    total = 0.0
    for ks in (range(lo, -1, -1), range(hi, PATHS + 1)):
        for k in ks:
            term = math.exp(logs(k))
            total += term
            if term < 1e-30:
                break
    return total


def _cells(weights, x0, epsilons, n):
    """(curve, exact value, exact variance of one path, rare-event level) at n."""
    law = _law(weights, x0, n)
    m2, m4 = _moment(weights, x0, n, 1), _moment(weights, x0, n, 2)
    assert math.fsum(p * d * d for p, d in law) == pytest.approx(float(m2), rel=1e-12)
    m1 = math.fsum(p * d for p, d in law)

    def one_path(values, mean, var):
        if var == 0.0:
            return 0.0
        far = Z_MAX * math.sqrt(var * PATHS)
        return PATHS * math.fsum(p for (p, _), v in zip(law, values) if abs(v - mean) > far)

    v1 = math.fsum(p * (d - m1) ** 2 for p, d in law)
    v2 = float(m4 - m2 * m2)
    yield "mean_dist", m1, v1, one_path([d for _, d in law], m1, v1)
    yield "mean_sq_dist", float(m2), v2, one_path([d * d for _, d in law], float(m2), v2)
    for eps in epsilons:
        p = math.fsum(p for p, d in law if d >= eps)
        q = math.fsum(p for p, d in law if d < eps)
        level = _binomial_level(p, q) if p and q else 0.0
        yield ("tail", eps), p, p * q, level
        yield ("point_tail", eps), p, p * q, level


def _observed(stats, curve, n):
    if isinstance(curve, str):
        return getattr(stats, curve)[n]
    name, eps = curve
    return getattr(stats, name)[eps][n]


_INSTANCES = {
    # The flagship: x_n = (2^-A, 2^-(n-A)) with A ~ Bin(n, 1/2), E d^2 =
    # 2 (5/8)^n and E d^4 = 2 (17/32)^n + 2 4^-n.
    "flagship": ((Fraction(1, 2), Fraction(1, 2)), (1, 1), (0.3, 0.2)),
    "three-halfspaces": ((Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)), (1, 2, 3), (2.0, 0.5)),
}


def _problem(weights):
    dim = len(weights)
    sets = tuple(Halfspace(tuple(float(i == j) for j in range(dim)), 0.0) for i in range(dim))
    return FixedPointProblem("euclidean", sets, tuple(float(w) for w in weights))


def test_the_flagship_moments_are_the_closed_forms():
    weights, x0, _ = _INSTANCES["flagship"]
    flagship, ours = two_halfspace(), _problem(weights)
    assert (ours.sets, ours.weights) == (flagship.sets, flagship.weights)
    for n in (0, 1, 2, 7, 60):
        assert _moment(weights, x0, n, 1) == 2 * Fraction(5, 8) ** n
        assert _moment(weights, x0, n, 2) == 2 * Fraction(17, 32) ** n + 2 * Fraction(1, 4) ** n


@pytest.mark.parametrize("name", list(_INSTANCES))
def test_an_ensemble_follows_the_exact_law(name):
    weights, x0, epsilons = _INSTANCES[name]
    stats = run_ensemble(
        _problem(weights), "skm", Constant(0.5), Euclidean(tuple(map(float, x0))),
        PATHS, HORIZON, SEED, epsilons,
    )
    for eps in epsilons:
        assert (stats.tail[eps] == stats.point_tail[eps]).all()
    checked = {}
    for n in range(HORIZON + 1):
        for curve, exact, var, rare in _cells(weights, x0, epsilons, n):
            observed = _observed(stats, curve, n)
            if var == 0.0:
                assert observed == pytest.approx(exact, rel=1e-12, abs=1e-300), (curve, n)
            elif rare <= RARE:
                z = (observed - exact) / math.sqrt(var / PATHS)
                assert abs(z) <= Z_MAX, (curve, n, observed, exact, z)
            else:
                continue
            checked[curve] = checked.get(curve, 0) + 1
    total = sum(checked.values())
    assert total * (NORMAL_LEVEL + RARE) < 1e-3, total
    # Every curve is checked well past its start.
    assert all(count >= 10 for count in checked.values()), checked
    assert len(checked) == 2 + 2 * len(epsilons), checked
