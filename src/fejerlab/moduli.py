"""The schedule arithmetic behind the convergence-rate certificates.

A certificate's moduli are numbers: the regularity modulus tau for d^2 is
linear, tau(t) = tau * t with tau its slope (see
``problems.regularity_modulus_for``), and the consistency modulus theta of
the distance is the square, theta(eps) = eps^2.  This module provides the
step-schedule witnesses (the tail-rate chi and the divergence witness
theta), the metric-rate quadruple, the Nemirovski-type recursion constant,
and the fast-rate mean/tail envelopes.

chi, theta and the square-sum bound T read one exact partial sum of the
schedule (``_partial_sums``) at 40 decimal digits, on the standard
library's ``decimal``, with psi and psi_1 from their asymptotic series
(``_polygamma``), and chi and theta find each minimal index by one
bisection up to ``INDEX_CAP`` (``_least_index``); a constant schedule's
theta is the count form k + ceil(b/w), one past the least index.  An index
past the cap is None: no run reaches it, so it is reported as beyond, not
computed.  Only an exact sum imports ``decimal``, so a constant schedule
never loads it."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

#: Relative shave applied before taking integer ceilings of analytically
#: computed indices, guarding against a 1-ulp float overshoot turning an
#: exact integer into the next one.
CEIL_GUARD = 5e-13

#: Decimal digits of every exact schedule sum, and the guard digits that
#: ``_polygamma`` carries past them.
_DPS = 40
_GUARD = 10

#: The Bernoulli numbers B_2, B_4, ..., B_32 as (numerator, denominator).
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322), (-7709321041217, 510),
)

#: The largest index a witness returns; past it a witness is None.
INDEX_CAP = 10**12


def _guarded_ceil(x: float, k: int) -> int | None:
    """k + ceil(x) after a tiny relative shave of x (see CEIL_GUARD), or
    None when that exceeds INDEX_CAP (x = inf included); decided by one
    exact comparison of the shaved x with INDEX_CAP - k."""
    x *= 1.0 - CEIL_GUARD
    return k + math.ceil(x) if x <= INDEX_CAP - k else None


# ---------------------------------------------------------------------------
# Step schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Harmonic:
    """lambda_n = a / (n + s) with a > 0 and shift s >= 1."""

    a: float
    s: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError(f"harmonic schedule needs a > 0, got {self.a}")
        if not self.s >= 1.0:
            raise ValueError(f"harmonic schedule needs shift >= 1, got {self.s}")


@dataclass(frozen=True)
class Constant:
    """lambda_n = c with c in (0, 1]."""

    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"constant schedule needs c in (0,1], got {self.c}")


@dataclass(frozen=True)
class TableSchedule:
    """Explicit leading values, then a harmonic tail (global index)."""

    values: tuple[float, ...]
    tail: Harmonic

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not all(v > 0.0 for v in vals):
            raise ValueError("table schedule values must be positive")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RootSchedule:
    """lambda_n = (1 - sqrt(1 - 4q/(n+r))) / 2, the smaller root of
    lambda(1-lambda) = q/(n+r); requires 4q <= r.  Used by the fast-rate
    construction, where the product lambda_n(1-lambda_n) must equal an exact
    harmonic sequence."""

    q: float
    r: int

    def __post_init__(self) -> None:
        if not self.q > 0.0:
            raise ValueError(f"root schedule needs q > 0, got {self.q}")
        if self.r < 1 or 4.0 * self.q > self.r:
            raise ValueError(
                f"root schedule needs 4q <= r for solvability, got q={self.q}, r={self.r}"
            )


StepSchedule = Union[Harmonic, Constant, TableSchedule, RootSchedule]


def _table(sched: StepSchedule) -> tuple[tuple[float, ...], Harmonic]:
    """(leading values, harmonic tail): a harmonic schedule is a table with
    no leading values.  Constant and root schedules have no such form."""
    if isinstance(sched, Harmonic):
        return (), sched
    if isinstance(sched, TableSchedule):
        return sched.values, sched.tail
    if isinstance(sched, (Constant, RootSchedule)):
        raise ValueError("squared-step series is not summable for this schedule")
    raise TypeError(f"not a schedule: {sched!r}")


def schedule_value(sched: StepSchedule, n: int) -> float:
    """lambda_n of the schedule."""
    if n < 0:
        raise ValueError(f"schedule index must be >= 0, got {n}")
    if isinstance(sched, Constant):
        return sched.c
    if isinstance(sched, RootSchedule):
        return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * sched.q / (n + sched.r)))
    values, tail = _table(sched)
    if n < len(values):
        return values[n]
    return tail.a / (n + tail.s)


def _exact():
    """The context of every exact sum: _DPS digits.  decimal is imported
    here, where an exact sum runs, so a constant schedule never loads it."""
    from decimal import Context, localcontext
    return localcontext(Context(prec=_DPS))


def schedule_square_sum_bound(sched: StepSchedule) -> float:
    """A strict upper bound T > sum_n lambda_n^2: the smallest 3-decimal
    number strictly above the exact sum, which must lie in the float range."""
    from decimal import ROUND_CEILING
    with _exact():
        total = _partial_sums(sched, 0, 0, 1)(math.inf)
        if total * 1000 > sys.float_info.max:
            raise ValueError(f"squared-step sum {total:.3g} exceeds the float range")
        t = int((total * 1000).to_integral_value(ROUND_CEILING)) / 1000.0
    return t if t > total else t + 0.001


def _polygamma(order: int, n: float, s: float):
    """psi(x) (order 0) or psi_1(x) (order 1) at x = n + s >= 1 (n = inf
    included), to _DPS + _GUARD digits, left unrounded.  From x = N = 2 _DPS
    on it is the asymptotic series (DLMF 5.11.2, 5.15.8) through B_32,
    psi(x) = ln x - 1/(2x) - sum_k B_2k / (2k x^2k) and psi_1(x) = 1/x +
    1/(2x^2) + sum_k B_2k / x^(2k+1), whose remainder for real x > 0 is
    below the first omitted term, under 1e-54 at x = N.  Below N it steps up
    by the recurrence: psi(x+N) - sum_{i<N} 1/(x+i) or psi_1(x+N) + sum_{i<N}
    1/(x+i)^2, where the guard digits absorb the cancellation near x = 1.46."""
    from decimal import Context, Decimal, localcontext
    with localcontext(Context(prec=_DPS + _GUARD)):
        x = Decimal(n) + Decimal(s)
        shift = 2 * _DPS if x < 2 * _DPS else 0
        terms = sum(1 / (x + i) ** (order + 1) for i in range(shift))
        x += shift
        x2 = x * x
        if order == 0:
            value, power = x.ln() - 1 / (2 * x), x2
        else:
            value, power = (1 + 1 / (2 * x)) / x, x2 * x
        last = value.adjusted() - _DPS - _GUARD
        for k, (num, den) in enumerate(_BERNOULLI, 1):
            term = num / (den * power) if order else -num / (2 * k * den * power)
            if term.adjusted() < last:  # the terms fall, and this one is past the last digit
                break
            value += term
            power *= x2
        return value + terms if order else value - terms


def _partial_sums(sched: StepSchedule, k: int, steps: int, squares: int):
    """m -> sum_{n=k}^{m} (steps lambda_n + squares lambda_n^2), m = inf
    included, of a harmonic or table schedule in the ``_exact`` context.

    The leading values and a enter as exact Decimals.  The tail from j =
    max(k, len(values)) on is a (psi(m+s+1) - psi(j+s)) in steps and a^2
    (psi_1(j+s) - psi_1(m+s+1)) in squares, with m exact, so no index is
    rounded.  The fixed end j is evaluated once; a search over m pays one
    digamma or trigamma per step (``_polygamma`` both)."""
    from decimal import Decimal
    values, h = _table(sched)
    a = Decimal(h.a)
    head = [Decimal(0)]
    for v in map(Decimal, values[k:]):
        head.append(head[-1] + steps * v + squares * v * v)
    j = max(k, len(values))
    psi_j = _polygamma(0, j, h.s) if steps else 0
    tri_j = _polygamma(1, j, h.s) if squares else 0

    def partial(m: float) -> Decimal:
        if m < j:
            return head[max(m - k + 1, 0)]
        val = head[-1]
        if steps:
            val += steps * a * (_polygamma(0, m + 1, h.s) - psi_j)
        if squares:
            val += squares * a * a * (tri_j - _polygamma(1, m + 1, h.s))
        return val

    return partial


def _least_index(holds: Callable[[int], bool], lo: int) -> int | None:
    """The least n in (lo, INDEX_CAP] with holds(n), or None when there is
    none, for a predicate that is false at lo and monotone (false, then
    true) above it: one bisection."""
    hi = INDEX_CAP
    if not holds(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Tail-rate witness chi
# ---------------------------------------------------------------------------


def tail_rate_chi(sched: StepSchedule, eps: float) -> int | None:
    """Smallest N with sum_{n>=N} lambda_n^2 < eps, located by monotone
    bisection against the exact tail sums; None past INDEX_CAP.  Constant
    and root schedules have a divergent square series and are rejected."""
    if not eps > 0.0:
        raise ValueError(f"tail budget must be > 0, got {eps}")
    with _exact():
        return _least_index(lambda n: _partial_sums(sched, n, 0, 1)(math.inf) < eps, -1)


# ---------------------------------------------------------------------------
# Divergence witness theta
# ---------------------------------------------------------------------------

_IDENTITY = "identity"
_MEAN = "mean_lambda_one_minus_lambda"


def _check_relaxations(sched: StepSchedule) -> None:
    """Raise unless every lambda_n lies in (0, 1].  A harmonic tail
    decreases, so only its first value a / (m + s), m values in, is checked."""
    if isinstance(sched, (Constant, RootSchedule)):
        return
    values, tail = _table(sched)
    if any(v > 1.0 for v in values):
        raise ValueError("table schedule exceeds 1; relaxations must lie in (0, 1]")
    if tail.a > (m := len(values)) + tail.s:
        lam = tail.a / (m + tail.s)
        raise ValueError(f"harmonic tail is {lam} > 1 at index {m}; relaxations must lie in (0, 1]")


def divergence_witness_theta(
    sched: StepSchedule, transform: str, k: int, b: float
) -> int | None:
    """theta(k, b): an index m >= k with sum_{n=k}^{m} w_n >= b, or None past
    INDEX_CAP, with w_n = lambda_n (identity) or lambda_n(1-lambda_n) (mean).
    A constant schedule takes the count form k + ceil(b/w), one past the
    least such index (the guarded ceiling keeps float noise from bumping a
    budget that is a multiple of w); any other the least index, by bisection
    on the exact partial sums.  A series not certified divergent raises."""
    if k < 0:
        raise ValueError(f"start index must be >= 0, got {k}")
    if not b > 0.0:
        raise ValueError(f"divergence budget must be > 0, got {b}")
    if transform not in (_IDENTITY, _MEAN):
        raise ValueError(f"unknown divergence transform: {transform!r}")
    if isinstance(sched, RootSchedule):
        raise ValueError("divergence witnesses are not provided for root schedules")
    mean = transform == _MEAN
    if mean:
        if isinstance(sched, Constant) and sched.c == 1.0:
            raise ValueError(
                "lambda(1-lambda) vanishes for the constant-1 schedule; "
                "the transformed series does not diverge"
            )
        _check_relaxations(sched)

    if isinstance(sched, Constant):
        w = sched.c * (1.0 - sched.c) if mean else sched.c
        return _guarded_ceil(b / w, k)

    with _exact():
        partial = _partial_sums(sched, k, 1, -1 if mean else 0)
        return _least_index(lambda m: partial(m) >= b, k - 1)


# ---------------------------------------------------------------------------
# Rate assembly
# ---------------------------------------------------------------------------


def metric_rates(
    rho: Callable[[float], int | None], eps: float, lam: float
) -> tuple[int | None, ...]:
    """The four metric iteration indices derived from a certificate rho and
    the consistency modulus theta(eps) = eps^2 of the distance:
    (rho(theta(eps/2)), rho(lam*theta(eps/2)), rho(theta(eps)),
    rho(lam*theta(eps))), each None past INDEX_CAP.

    The first pair serves the mean/almost-sure statements about the distance
    to the limit; the second pair the corresponding statements about the
    distance to the solution set.
    """
    if not eps > 0.0:
        raise ValueError(f"metric tolerance must be > 0, got {eps}")
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"confidence level must be in (0,1], got {lam}")
    th_half = (eps / 2.0) ** 2.0
    th_full = eps ** 2.0
    return (
        rho(th_half),
        rho(lam * th_half),
        rho(th_full),
        rho(lam * th_full),
    )


def recursion_bound_u(c: float, d: float, r: int, x0: float) -> float:
    """The constant u = max{d/(c-1), r*x0} for which the recursion
    x_{n+1} <= (1 - c/(n+r)) x_n + d/(n+r)^2 implies x_n <= u/(n+r)."""
    if not c > 1.0:
        raise ValueError(f"recursion constant needs c > 1, got {c}")
    if d < 0.0:
        raise ValueError(f"recursion offset must be >= 0, got {d}")
    if r < 1:
        raise ValueError(f"recursion shift must be >= 1, got {r}")
    if x0 < 0.0:
        raise ValueError(f"recursion start must be >= 0, got {x0}")
    return max(d / (c - 1.0), r * x0)


@dataclass(frozen=True)
class FastCertificate:
    """Fast-rate parameters: E[dist_sq] <= u/(n+r) and the tail envelope
    u/(eps (n+r))."""

    u: float
    r: int

    def __post_init__(self) -> None:
        if not (self.u >= 0.0 and self.r >= 1):
            raise ValueError(f"fast certificate needs u >= 0 and r >= 1, got u={self.u}, r={self.r}")


def fast_bounds(cert: FastCertificate, n: int, eps: float) -> tuple[float, float]:
    """(mean bound u/(n+r), tail bound min(1, u/(eps(n+r))))."""
    if not eps > 0.0:
        raise ValueError(f"tail threshold must be > 0, got {eps}")
    if n < 0:
        raise ValueError(f"iteration index must be >= 0, got {n}")
    denom = n + cert.r
    return cert.u / denom, min(1.0, cert.u / (eps * denom))


# ---------------------------------------------------------------------------
# Rate certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCertificate:
    """An explicit convergence-rate certificate, held as its ingredients:
    ``sched`` and ``transform`` fix theta (``divergence_witness_theta``),
    ``tau`` is the slope of the linear regularity modulus for d^2, (b, L,
    L_bar, T) are the instance's constants, ``budget`` = b + f L^2 T is the
    budget scale, and ``chi_div`` is the divisor of eps in the tail witness,
    or None when chi is identically zero.  ``rho`` maps a gap tolerance to
    an iteration index, None when chi or theta passes INDEX_CAP."""

    algorithm: str
    sched: StepSchedule
    transform: str
    tau: float
    b: float
    L: float
    L_bar: float
    T: float
    budget: float
    chi_div: float | None

    def divergence(self, k: int, budget: float) -> int | None:
        return divergence_witness_theta(self.sched, self.transform, k, budget)

    def chi(self, eps: float) -> int | None:
        if self.chi_div is not None:
            return tail_rate_chi(self.sched, eps)
        if not eps > 0.0:
            raise ValueError(f"tail budget must be > 0, got {eps}")
        return 0

    def rho(self, eps: float) -> int | None:
        """theta(chi(eps / chi_div), budget / (tau eps/6))."""
        if not eps > 0.0:
            raise ValueError(f"rate argument must be > 0, got {eps}")
        tau_eps = self.tau * (eps / 6.0)
        if not (tau_eps > 0.0 and math.isfinite(budget := self.budget / tau_eps)):
            raise ValueError(f"the rate index exceeds the float range (gap tolerance {eps})")
        start = 0 if self.chi_div is None else self.chi(eps / self.chi_div)
        return None if start is None else self.divergence(start, budget)

    def metric_rates(self, eps: float, lam: float) -> tuple[int | None, ...]:
        return metric_rates(self.rho, eps, lam)
