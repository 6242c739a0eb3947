"""Moduli, step schedules, witnesses, and rate indices."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
import pytest
from scipy.special import polygamma

from fejerlab.algorithms import certificate_skm
from fejerlab.cli import ConfigError, _read_schedule
from fejerlab.moduli import (
    INDEX_CAP,
    _BERNOULLI,
    Constant,
    FastCertificate,
    Harmonic,
    RootSchedule,
    TableSchedule,
    _polygamma,
    divergence_witness_theta,
    fast_bounds,
    metric_rates,
    recursion_bound_u,
    schedule_square_sum_bound,
    schedule_value,
    tail_rate_chi,
)
from fejerlab.problems import two_halfspace
from fejerlab.spaces import Euclidean

IDENTITY = "identity"
MEAN = "mean_lambda_one_minus_lambda"


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


def test_schedule_values():
    assert schedule_value(Harmonic(1.0, 1.0), 0) == 1.0
    assert schedule_value(Harmonic(1.0, 1.0), 5) == 1.0 / 6.0
    assert schedule_value(Constant(0.5), 123) == 0.5
    tbl = TableSchedule((0.9, 0.8), Harmonic(1.0, 1.0))
    assert schedule_value(tbl, 0) == 0.9
    assert schedule_value(tbl, 1) == 0.8
    # the harmonic tail uses the global index
    assert schedule_value(tbl, 2) == 1.0 / 3.0


def test_root_schedule_solves_relaxation_equation():
    sched = RootSchedule(4.0, 16)
    assert schedule_value(sched, 0) == 0.5
    for n in (0, 1, 5, 100, 10_000):
        lam = schedule_value(sched, n)
        assert 0.0 < lam <= 0.5
        assert abs(lam * (1.0 - lam) - 4.0 / (n + 16)) < 1e-15


def test_root_schedule_feasibility():
    with pytest.raises(ValueError):
        RootSchedule(4.0, 15)  # needs 4q <= r


def test_schedule_square_sum_bound_harmonic():
    t = schedule_square_sum_bound(Harmonic(1.0, 1.0))
    assert t == 1.645
    assert t > math.pi ** 2 / 6.0


def test_schedule_square_sum_bound_table():
    t = schedule_square_sum_bound(TableSchedule((0.5,), Harmonic(1.0, 1.0)))
    exact = 0.25 + (math.pi ** 2 / 6.0 - 1.0)
    assert t == 0.895 and t > exact


def test_schedule_square_sum_bound_rejects_divergent():
    with pytest.raises(ValueError):
        schedule_square_sum_bound(Constant(0.5))


def test_a_squared_step_sum_past_the_float_range_is_a_value_error():
    # The sum is a^2 pi^2 / 6: its 3-decimal bound is a float at a = 1e152
    # and past the float range at a = 1e153 and a = 1e300.
    assert schedule_square_sum_bound(Harmonic(1e152, 1.0)) == pytest.approx(1e304 * math.pi**2 / 6)
    for a, total in ((1e153, "1.64e+306"), (1e300, "1.64e+600")):
        message = re.escape(f"squared-step sum {total} exceeds the float range")
        with pytest.raises(ValueError, match=f"^{message}$"):
            schedule_square_sum_bound(Harmonic(a, 1.0))


def test_schedule_spec_round_trip():
    """A config's schedule of every kind reads as the schedule it describes."""
    for spec, sched in (
        ({"kind": "harmonic", "a": 0.5, "s": 2.0}, Harmonic(0.5, 2.0)),
        ({"kind": "harmonic", "a": 0.5}, Harmonic(0.5, 1.0)),
        ({"kind": "constant", "c": 0.25}, Constant(0.25)),
        (
            {"kind": "table", "values": [0.9, 0.8], "tail": {"a": 1.0, "s": 3.0}},
            TableSchedule((0.9, 0.8), Harmonic(1.0, 3.0)),
        ),
        ({"kind": "root", "q": 4.0, "r": 16}, RootSchedule(4.0, 16)),
    ):
        assert _read_schedule(spec, "schedule") == sched
    with pytest.raises(ConfigError, match=r"schedule\.kind: expected one of"):
        _read_schedule({"kind": "geometric"}, "schedule")


# ---------------------------------------------------------------------------
# Tail-rate witness chi
# ---------------------------------------------------------------------------


def test_tail_rate_chi_harmonic():
    sched = Harmonic(1.0, 1.0)
    assert tail_rate_chi(sched, 0.1) == 10
    assert tail_rate_chi(sched, 0.5) == 2


def test_tail_rate_chi_soundness_brute_force():
    # The tail sum_{n >= N} 1/(n+1)^2 is the Hurwitz zeta(2, N + 1), taken
    # at 60 digits by mpmath.zeta: a reference with no truncation and no
    # float rounding, apart from the trigamma that tail_rate_chi reads.
    sched = Harmonic(1.0, 1.0)
    for eps in (0.1, 0.5, 0.037):
        n0 = tail_rate_chi(sched, eps)
        with mpmath.workdps(60):
            assert mpmath.zeta(2, n0 + 1) < eps
            if n0 > 0:  # minimality: the tail from n0 - 1 adds 1/n0^2
                assert mpmath.zeta(2, n0) >= eps


def test_tail_rate_chi_rejects_constant():
    with pytest.raises(ValueError):
        tail_rate_chi(Constant(0.5), 0.1)


# ---------------------------------------------------------------------------
# Divergence witness theta
# ---------------------------------------------------------------------------


def test_divergence_witness_harmonic_identity():
    sched = Harmonic(1.0, 1.0)
    assert divergence_witness_theta(sched, IDENTITY, 0, 1.0) == 0
    assert divergence_witness_theta(sched, IDENTITY, 2, 1.0) == 6


def test_divergence_witness_constant_mean():
    # The count form k + ceil(b/w): w = 1/4 first sums to 1 at n = 3, and
    # the witness is one past that.
    assert divergence_witness_theta(Constant(0.5), MEAN, 0, 1.0) == 4


def test_divergence_witness_minimality():
    sched = Harmonic(1.0, 1.0)
    for k, b in ((0, 2.3), (3, 1.7), (10, 0.4)):
        m = divergence_witness_theta(sched, IDENTITY, k, b)
        total = math.fsum(schedule_value(sched, n) for n in range(k, m + 1))
        assert total >= b
        if m > k:
            assert math.fsum(schedule_value(sched, n) for n in range(k, m)) < b


def test_divergence_witness_mean_transform_minimality():
    sched = Harmonic(1.0, 2.0)
    m = divergence_witness_theta(sched, MEAN, 1, 0.5)
    vals = [schedule_value(sched, n) for n in range(1, m + 1)]
    total = math.fsum(v * (1.0 - v) for v in vals)
    assert total >= 0.5
    assert math.fsum(v * (1.0 - v) for v in vals[:-1]) < 0.5


def test_divergence_witness_large_budget_uses_exact_bisection():
    # At budget 28 the witness is about 8e11, where consecutive partial sums
    # differ in the fourteenth digit; from 30 on it lies past INDEX_CAP.
    def harmonic(n):  # the partial sum H_{n+1} = psi(n+2) - psi(1), exact integer args
        return mpmath.digamma(n + 2) - mpmath.digamma(1)

    for budget in (20.0, 26.0, 28.0, 30.0, 60.0, 100.0, 200.0):
        m = divergence_witness_theta(Harmonic(1.0, 1.0), IDENTITY, 0, budget)
        with mpmath.workdps(80):
            if m is None:  # past the cap: even the sum up to it falls short
                assert budget >= 30.0 and harmonic(INDEX_CAP) < budget, budget
            else:
                assert harmonic(m) >= budget > harmonic(m - 1), budget


def _unhoisted_partial(a: float, s: float, k: int, mean: bool):
    """m -> the harmonic witness's partial sum from k to m at the working
    precision, from mpmath's own digamma and trigamma at k+s (production
    shifts them up by the recurrence), each taken once per precision."""
    fixed = {}

    def partial(m):
        if m < k:
            return mpmath.mpf(0)
        if mpmath.mp.prec not in fixed:
            lo = mpmath.mpf(k) + s
            fixed[mpmath.mp.prec] = mpmath.digamma(lo), mpmath.polygamma(1, lo) if mean else 0
        psi_lo, tri_lo = fixed[mpmath.mp.prec]
        hi = mpmath.mpf(m) + s + 1
        val = a * (mpmath.digamma(hi) - psi_lo)
        if mean:
            val -= a * a * (tri_lo - mpmath.polygamma(1, hi))
        return val

    return partial


def _witness_dps(a: float, s: float, k: int, b: float, mean: bool) -> int:
    budget_id = b + a * a * float(polygamma(1, k + s)) if mean else b
    return 40 + int(0.44 * budget_id / a)


def _witness_reference(a: float, s: float, k: int, b: float, mean: bool) -> int:
    """The arbitrary-precision bisection of the harmonic witness over the
    unhoisted partial sums."""
    budget_id = b + a * a * float(polygamma(1, k + s)) if mean else b
    partial = _unhoisted_partial(a, s, k, mean)
    with mpmath.workdps(_witness_dps(a, s, k, b, mean)):
        hi = int(mpmath.ceil((k + s) * mpmath.e ** (mpmath.mpf(budget_id) / a))) + 2
        while partial(hi) < b:
            hi *= 2
        lo = k - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if partial(mid) >= b:
                hi = mid
            else:
                lo = mid
        return hi


def test_divergence_witness_matches_unhoisted_bisection():
    # Small budgets too: both shipped gap windows (5.745 and 7.84) lie
    # there, and 1.0 and 1.5 are harmonic numbers, where the partial sum
    # meets the budget exactly.  The partial sums increase strictly, so m
    # is the bisection's answer exactly when partial(m - 1) < b <=
    # partial(m); for the other starts the test checks that instead.  A
    # witness past INDEX_CAP is None exactly when partial(INDEX_CAP) < b.
    sched = Harmonic(1.0, 1.0)
    for transform, mean in ((IDENTITY, False), (MEAN, True)):
        for k in (0, 1, 7, 100, 5000):
            partial = _unhoisted_partial(1.0, 1.0, k, mean)
            for budget in (0.05, 1.0, 1.5, 5.745, 7.84, 20.0, 30.0, 60.0, 100.0, 200.0, 400.0,
                           600.0, 800.0):
                m = divergence_witness_theta(sched, transform, k, budget)
                with mpmath.workdps(_witness_dps(1.0, 1.0, k, budget, mean)):
                    if m is None:
                        assert partial(INDEX_CAP) < budget, (transform, k, budget)
                        continue
                    assert m >= k and partial(m - 1) < budget <= partial(m), (transform, k, budget)
                if k in (0, 7):
                    assert m == _witness_reference(1.0, 1.0, k, budget, mean), (transform, k, budget)


def test_polygamma_matches_the_reference():
    # The reference is mpmath's own digamma and trigamma at 80 digits.  The
    # points cover the recurrence's shift (x < 80), both sides of where it
    # stops (79.5, 80), and the series alone out to past INDEX_CAP.
    for x in (1, 1.5, 2, 3.5, 7, 79.5, 80, 101, 5001, 10**6 + 0.25, 2**40 + 0.5, 10**12 + 2):
        for order in (0, 1):
            value = _polygamma(order, 0, float(x))
            with mpmath.workdps(80):
                error = abs(mpmath.mpf(str(value)) / mpmath.polygamma(order, x) - 1)
                assert error < 4 * mpmath.mpf(10) ** -40, (x, order, error)


def test_bernoulli_numbers_are_exact():
    assert [Fraction(*b) for b in _BERNOULLI] == [
        Fraction(*mpmath.bernfrac(2 * k)) for k in range(1, 17)
    ]


def test_divergence_witness_rejects_non_divergent():
    with pytest.raises(ValueError):
        divergence_witness_theta(Constant(1.0), MEAN, 0, 1.0)


# ---------------------------------------------------------------------------
# Metric rates
# ---------------------------------------------------------------------------


def test_metric_rates_orders_and_collapse():
    rho = lambda e: round(1.0 / e)
    rates = metric_rates(rho, 0.2, 0.5)
    assert rates[0] == rho(0.01)
    assert rates[2] == rho(0.04)
    assert rates[1] == rho(0.005) and rates[3] == rho(0.02)
    lam_one = metric_rates(rho, 0.2, 1.0)
    assert lam_one[0] == lam_one[1] and lam_one[2] == lam_one[3]


# ---------------------------------------------------------------------------
# Fast-rate recursion
# ---------------------------------------------------------------------------


def test_recursion_bound_u_values():
    assert recursion_bound_u(2.0, 1.0, 2, 1.0) == 2.0
    assert recursion_bound_u(2.0, 0.0, 1, 0.0) == 0.0
    assert recursion_bound_u(1.5, 3.0, 1, 1.0) == 6.0
    with pytest.raises(ValueError):
        recursion_bound_u(1.0, 1.0, 1, 1.0)


def test_recursion_bound_u_dominates_equality_recursion():
    for c, d, r, x0 in ((2.0, 1.0, 2, 1.0), (1.5, 3.0, 1, 1.0)):
        u = recursion_bound_u(c, d, r, x0)
        x = x0
        for n in range(10_000):
            assert x * (n + r) <= u * (1.0 + 1e-12)
            x = (1.0 - c / (n + r)) * x + d / (n + r) ** 2


def test_fast_bounds_values():
    cert = FastCertificate(u=2.0, r=2)
    assert fast_bounds(cert, 14, 0.5) == (0.125, 0.25)
    flagship = FastCertificate(u=32.0, r=16)
    assert fast_bounds(flagship, 0, 4.0) == (2.0, 0.5)


def test_fast_bounds_clamped_and_monotone():
    cert = FastCertificate(u=5.0, r=1)
    prev_mean, prev_tail = math.inf, math.inf
    for n in range(0, 2000, 7):
        mean, tail = fast_bounds(cert, n, 0.1)
        assert 0.0 <= tail <= 1.0
        assert mean <= prev_mean and tail <= prev_tail
        prev_mean, prev_tail = mean, tail
    far = fast_bounds(cert, 10_000_000, 0.1)
    assert far[0] < 1e-5 and far[1] < 1e-4


# ---------------------------------------------------------------------------
# One schedule path: a harmonic schedule is a table with no leading values
# ---------------------------------------------------------------------------


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _four_functions(sched, mean_ok):
    """Every value the four schedule functions give on a grid of inputs."""
    out = [schedule_value(sched, n) for n in (0, 1, 2, 7, 100, 10**6, 2**60)]
    out.append(schedule_square_sum_bound(sched))
    out += [tail_rate_chi(sched, eps) for eps in (5.0, 0.3, 0.01, 1e-5)]
    for transform in (IDENTITY, MEAN) if mean_ok else (IDENTITY,):
        for k in (0, 1, 7, 100):
            out += [divergence_witness_theta(sched, transform, k, b) for b in (0.05, 1.0, 9.5, 40.0)]
    return [_bits(v) for v in out]


@pytest.mark.parametrize("a, s", [(1.0, 1.0), (0.5, 2.0), (0.7, 1.3), (2.5, 7.25), (3.0, 1.0), (1e-3, 5.0)])
def test_harmonic_equals_the_table_with_no_leading_values_bit_for_bit(a, s):
    mean_ok = a <= s  # the mean transform needs lambda_0 = a / s <= 1
    assert _four_functions(Harmonic(a, s), mean_ok) == _four_functions(
        TableSchedule((), Harmonic(a, s)), mean_ok
    )
    if not mean_ok:
        for sched in (Harmonic(a, s), TableSchedule((), Harmonic(a, s))):
            with pytest.raises(ValueError, match=r"relaxations must lie in \(0, 1\]"):
                divergence_witness_theta(sched, MEAN, 0, 1.0)


# Leading values, then a tail 2 / (n + 1) that starts at index 3 (where it
# is 1/2): every step is at most 1 although the tail's a exceeds its s.
_SHIFTED = TableSchedule((0.5, 0.9, 0.25), Harmonic(2.0, 1.0))


def _lam_mp(sched, n):
    m = len(sched.values)
    return mpmath.mpf(sched.values[n]) if n < m else sched.tail.a / (mpmath.mpf(n) + sched.tail.s)


def _square_tail_mp(sched, n0):
    """sum_{n >= n0} lambda_n^2 at 50 digits: the leading values term by
    term, the harmonic tail by Euler-Maclaurin summation (nsum's default
    extrapolation is off by 0.5 % on this slowly converging series)."""
    m, a, s = len(sched.values), sched.tail.a, sched.tail.s
    with mpmath.workdps(50):
        head = mpmath.fsum(_lam_mp(sched, n) ** 2 for n in range(n0, m))
        tail = mpmath.nsum(
            lambda n: (a / (n + s)) ** 2, [max(n0, m), mpmath.inf], method="euler-maclaurin"
        )
        return head + tail


def test_table_square_sum_bound_matches_brute_force():
    with mpmath.workdps(50):
        exact = _square_tail_mp(_SHIFTED, 0)
        t = schedule_square_sum_bound(_SHIFTED)
        assert t > exact and t - 0.001 <= exact  # the least 3-decimal bound above


def test_table_tail_rate_chi_matches_brute_force():
    # The witness falls before (0), inside (1, 2) and after (3+) the values.
    seen = set()
    for eps in (4.0, 3.0, 2.5, 2.2, 1.5, 0.3, 0.01):
        n0 = tail_rate_chi(_SHIFTED, eps)
        with mpmath.workdps(50):
            assert _square_tail_mp(_SHIFTED, n0) < eps, eps
            if n0 > 0:
                assert _square_tail_mp(_SHIFTED, n0 - 1) >= eps, eps
        seen.add(min(n0, 3))
    assert seen == {0, 1, 2, 3}


def test_table_divergence_witness_matches_brute_force():
    for transform in (IDENTITY, MEAN):
        for k in (0, 1, 2, 3, 10):  # before, inside and after the values
            for b in (0.2, 0.6, 1.4, 3.0, 6.0):
                m = divergence_witness_theta(_SHIFTED, transform, k, b)
                with mpmath.workdps(50):
                    lams = [_lam_mp(_SHIFTED, n) for n in range(k, m + 1)]
                    w = lams if transform == IDENTITY else [x * (1 - x) for x in lams]
                    assert mpmath.fsum(w) >= b, (transform, k, b)
                    assert mpmath.fsum(w[:-1]) < b, (transform, k, b)


_PIN_EPSILONS = (5.0, 2.5, 1.5, 0.3, 0.01, 1e-5, 1e-9)
_PIN_STARTS = (0, 1, 7, 100)
# 5.744999999999999 and 7.84 are the budgets / epsilon of the shipped gap
# windows (segment_sb_liminf.json and tripod_sppa_liminf.json), whose ends
# are theta(H(1, 1), identity, 0, b) = 175 and 1425.
_PIN_BUDGETS = (0.05, 1.0, 1.5, 5.744999999999999, 7.84, 20.0, 26.0)

# (schedule, T, chi at _PIN_EPSILONS, theta at _PIN_STARTS x _PIN_BUDGETS),
# recorded when theta below a witness of about 5e11, chi and T were still
# summed with float digamma and trigamma values.  A witness past INDEX_CAP
# is None.
_PINNED_WITNESSES = (
    (Harmonic(1.0, 1.0), 1.645, (0, 0, 1, 3, 100, 100000, 1000000000), {
        IDENTITY: (
            (0, 0, 1, 175, 1425, 272400599, 109894245428),
            (1, 3, 6, 476, 3876, 740461600, 298723530400),
            (7, 19, 33, 2345, 19065, 3641427011, None),
            (105, 272, 449, 31418, 255291, 48759303281, None),
        ),
        MEAN: (
            (1, 6, 11, 907, 7387, 1411217157, 569325635609),
            (1, 6, 11, 907, 7387, 1411217157, 569325635609),
            (7, 21, 36, 2679, 21779, 4159989937, None),
            (105, 274, 453, 31731, 257843, 49246888227, None),
        ),
    }),
    (Harmonic(0.5, 2.0), 0.162, (0, 0, 0, 0, 24, 24999, 249999999), {
        IDENTITY: (
            (0, 9, 29, 149159, 9848051, None, None),
            (1, 17, 49, 245924, 16236693, None, None),
            (7, 61, 169, 831211, 54879007, None, None),
            (110, 748, 2037, 9919992, 654945668, None, None),
        ),
        MEAN: (
            (0, 13, 40, 205919, 13595524, None, None),
            (1, 20, 59, 299612, 19781372, None, None),
            (7, 64, 179, 881513, 58200089, None, None),
            (110, 751, 2046, 9968978, 658179934, None, None),
        ),
    }),
    (_SHIFTED, 2.258, (0, 0, 2, 13, 400, 400000, 4000000000), {
        IDENTITY: (
            (0, 1, 2, 26, 77, 33897, 680863),
            (1, 2, 3, 34, 99, 43525, 874246),
            (7, 11, 15, 132, 377, 165320, 3320551),
            (102, 165, 212, 1776, 5064, 2213668, 44462728),
        ),
        MEAN: (
            (0, 4, 7, 81, 237, 104818, 2105392),
            (1, 6, 8, 92, 269, 118775, 2385722),
            (7, 13, 18, 170, 491, 215756, 4333624),
            (102, 166, 214, 1810, 5164, 2258160, 45356412),
        ),
    }),
)


@pytest.mark.parametrize("sched, t, chi, theta", _PINNED_WITNESSES)
def test_schedule_witnesses_are_pinned(sched, t, chi, theta):
    assert schedule_square_sum_bound(sched) == t
    assert tuple(tail_rate_chi(sched, eps) for eps in _PIN_EPSILONS) == chi
    for transform, rows in theta.items():
        got = tuple(
            tuple(divergence_witness_theta(sched, transform, k, b) for b in _PIN_BUDGETS)
            for k in _PIN_STARTS
        )
        assert got == rows, transform


def _exact_sum(sched, k, m, mean):
    """sum_{n=k}^{m} of lambda_n or lambda_n(1-lambda_n) at the working
    precision: the leading values as fractions, the tail by digamma and
    trigamma evaluated afresh."""
    values, a, s = sched.values, mpmath.mpf(sched.tail.a), sched.tail.s
    head = sum((Fraction(v) - (Fraction(v) ** 2 if mean else 0) for v in values[k : m + 1]), Fraction(0))
    out = mpmath.mpf(head.numerator) / head.denominator
    j = max(k, len(values))
    if m >= j:
        lo, hi = mpmath.mpf(j) + s, mpmath.mpf(m) + s + 1
        out += a * (mpmath.digamma(hi) - mpmath.digamma(lo))
        if mean:
            out -= a * a * (mpmath.polygamma(1, lo) - mpmath.polygamma(1, hi))
    return out


@pytest.mark.parametrize(
    "sched, transform, k, b, expected",
    [
        # lambda_3 = 1/5 lies below the float 0.2.
        (TableSchedule((), Harmonic(2.0, 7.0)), IDENTITY, 3, 0.2, 4),
        # 0.9 + 0.25 + 3/4 + 3/5 lies above 2.5 by the float 0.9's excess.
        (TableSchedule((0.5, 0.9, 0.25), Harmonic(3.0, 1.0)), IDENTITY, 1, 2.5, 4),
        # The budget the tail must add, 6 - 0.3, is not a float; the witness,
        # 8677574926089305052621707, lies past the cap.
        (TableSchedule((0.3,), Harmonic(0.1, 1.0)), IDENTITY, 0, 6.0, None),
        # a^2 = 0.1^2 is not a float; the witness, 75583311383864999856248701,
        # lies past the cap.
        (TableSchedule((), Harmonic(0.1, 1.0)), MEAN, 0, 6.0, None),
    ],
)
def test_divergence_witness_is_the_exact_minimum_where_floats_round(sched, transform, k, b, expected):
    assert divergence_witness_theta(sched, transform, k, b) == expected
    mean = transform == MEAN
    with mpmath.workdps(80):
        if expected is None:  # past the cap: even the sum up to it falls short
            assert _exact_sum(sched, k, INDEX_CAP, mean) < b
        else:
            assert _exact_sum(sched, k, expected, mean) >= b
            assert _exact_sum(sched, k, expected - 1, mean) < b


def _floats_around(x):
    """(the largest float <= x, the least float > x) of an mpf x."""
    f = float(x)
    below = f if f <= x else math.nextafter(f, -math.inf)
    return below, math.nextafter(below, math.inf)


def _at_the_cap(case):
    """(witness, a budget whose witness is INDEX_CAP, the least budget past it)."""
    if case in ("harmonic", "table"):
        sched, k = (Harmonic(1.0, 1.0), 0) if case == "harmonic" else (_SHIFTED_3, 1)
        ref = TableSchedule((), sched) if case == "harmonic" else sched
        with mpmath.workdps(60):
            at_cap = _exact_sum(ref, k, INDEX_CAP, False)
            inside, past = _floats_around(at_cap)
            assert _exact_sum(ref, k, INDEX_CAP - 1, False) < inside <= at_cap < past
        return lambda b: divergence_witness_theta(sched, IDENTITY, k, b), inside, past
    if case == "chi":
        with mpmath.workdps(60):
            # sum_{n >= N} 1/(n+1)^2 = psi_1(N + 1)
            tail = mpmath.polygamma(1, INDEX_CAP + 1)
            past, inside = _floats_around(tail)
            assert past <= tail < inside <= mpmath.polygamma(1, INDEX_CAP)
        return lambda eps: tail_rate_chi(Harmonic(1.0, 1.0), eps), inside, past
    if case == "constant":  # the count form k + ceil(b / c), guarded against float noise
        witness = lambda b: divergence_witness_theta(Constant(0.5), IDENTITY, 0, b)
        return witness, 0.5 * INDEX_CAP, 0.5 * (INDEX_CAP + 1)
    # The certificate's witness is the same function, here under the mean
    # transform: w = 0.5 (1 - 0.5).
    cert = certificate_skm(two_halfspace(), Constant(0.5), Euclidean((1.0, 1.0)))
    return lambda b: cert.divergence(0, b), 0.25 * INDEX_CAP, 0.25 * (INDEX_CAP + 1)


_SHIFTED_3 = TableSchedule((0.5, 0.9, 0.25), Harmonic(3.0, 1.0))


@pytest.mark.parametrize("case", ["harmonic", "table", "chi", "constant", "constant-count"])
def test_a_witness_at_the_cap_is_returned_and_one_past_it_is_none(case):
    witness, inside, past = _at_the_cap(case)
    assert witness(inside) == INDEX_CAP
    assert witness(past) is None


def test_a_witness_from_a_start_past_the_cap_is_none():
    for sched in (Harmonic(1.0, 1.0), _SHIFTED_3, Constant(0.5)):
        for k in (INDEX_CAP + 1, 10**30):
            assert divergence_witness_theta(sched, IDENTITY, k, 0.05) is None, (sched, k)
    # One constant step of 0.5 meets the budget, so the count form is k + 1:
    # the cap from one before it, and None from the cap itself.
    assert divergence_witness_theta(Constant(0.5), IDENTITY, INDEX_CAP - 1, 0.05) == INDEX_CAP
    assert divergence_witness_theta(Constant(0.5), IDENTITY, INDEX_CAP, 0.05) is None


def test_tail_rate_chi_is_the_exact_minimum_where_floats_round():
    # psi_1(1e9 + 1/2) lies 6.2e-26 below the float 1e-9, a relative 6e-17.
    assert tail_rate_chi(Harmonic(1.0, 3.5), 1e-9) == 999999997
    with mpmath.workdps(60):
        assert mpmath.polygamma(1, 999999997 + 3.5) < 1e-9 <= mpmath.polygamma(1, 999999996 + 3.5)


def test_relaxation_rule_checks_the_tail_where_it_starts():
    # At its first index 3 the tail 4 / (n + 1) is exactly 1: allowed.
    assert divergence_witness_theta(TableSchedule((0.5,) * 3, Harmonic(4.0, 1.0)), MEAN, 0, 1.0) > 0
    for bad in (
        TableSchedule((0.5,) * 3, Harmonic(4.5, 1.0)),  # 4.5 / 4 > 1 at index 3
        TableSchedule((0.5, 1.25), Harmonic(1.0, 1.0)),  # a value above 1
        Harmonic(2.0, 1.0),  # 2 at index 0
    ):
        with pytest.raises(ValueError, match=r"relaxations must lie in \(0, 1\]"):
            divergence_witness_theta(bad, MEAN, 0, 1.0)
        divergence_witness_theta(bad, IDENTITY, 0, 1.0)  # step sizes, not relaxations
