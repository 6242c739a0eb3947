"""Deterministic Monte-Carlo ensembles and certificate audits.

The ensemble runner evaluates many independent trajectories of one
algorithm and aggregates, per iteration index, the distance to the solution
set, its square, the optimality gap, and exceedance tails.  Determinism is
absolute: path p always draws from counter-based stream p, so no draw
depends on how paths are batched, and every sum over paths is taken per
slice of ``CHUNK`` paths in path order, the slice sums added in ascending
slice order.  ``CHUNK`` thus fixes the summation order, and the aggregate
is bit-identical across runs.  Everything runs on the calling thread.

One kernel runs every ensemble, step-major: each step advances every
path by the algorithm's own step from ``algorithms._SPECS``, then takes
the problem's per-sample data (``sample_data``: the operator images of a
fixed-point problem, the atom distances of a distance cost),
``dist_to_solutions`` and ``gap_F`` at the new points of all paths as one
batch (a point whose coordinates are columns, one entry per path; see
``spaces``), so it runs ``run_path``'s arithmetic and equals it bit for
bit.  The distance and the gap read the per-sample data, and so does the
next step, so each atom distance is taken once per path-step.  In every
space the paths also draw and step as that one batch: a step draws a
column of indices per slice of streams and makes one call of the step on
all paths.  ``kernel="scalar"`` is the cross-check: each path runs
``algorithms.path_iterates``, the iteration ``run_path`` runs, which
reads no shared data, and one point of each path is stacked into the batch
per step.  The kernel writes each step's distances and gaps as one row of
step-major buffers and streams them into one reducer a block of steps at a
time, so memory grows with paths plus the horizon, not with their product.

Under a constant schedule the wide kernel stops stepping once no path can
move: at a block's end it takes the step at every index k on the batch,
and if no path changes bit for bit (-0.0 and 0.0 differ) under any k, the
batch is every later iterate, whatever is drawn.  The remaining blocks then
repeat the last row, and no draw is made for them; the draws are
counter-based, so that shifts no other.  The output is bit-identical to
stepping on, which ``kernel="scalar"`` still does.

The curves file's columns are declared once (``_CURVES``), and a re-audit
reads its thresholds in the file's order, so they write back byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algorithms import _SPECS, _reference, path_iterates, validate_run
from .moduli import (
    Constant,
    FastCertificate,
    StepSchedule,
    fast_bounds,
    schedule_value,
)
from .problems import (
    HALF_SQUARED,
    BusemannProblem,
    Problem,
    busemann_subgradient,
    dist_to_solutions,
    gap_F,
    mean_cost_exact,
    sample_data,
)
from .spaces import Point, columns, contains, distance, sqdist, stack

# Paths per reduction slice: fixes the summation order of every sum.
CHUNK = 512
# Steps per block of the kernel's distance and gap buffers.
BLOCK = 64


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------


@dataclass
class EnsembleStats:
    """Per-iteration ensemble aggregates over all paths.

    ``tail[eps][n]`` is the fraction of paths with sup_{m >= n} dist_m >=
    eps (the running-supremum tail, truncated at the horizon), while
    ``point_tail[eps][n]`` is the fraction with dist_n >= eps.
    """

    algorithm: str
    paths: int
    horizon: int
    epsilons: tuple[float, ...]
    mean_dist: np.ndarray
    mean_sq_dist: np.ndarray
    mean_gap: np.ndarray
    std_dist: np.ndarray
    std_sq_dist: np.ndarray
    std_gap: np.ndarray
    tail: dict[float, np.ndarray] = field(default_factory=dict)
    point_tail: dict[float, np.ndarray] = field(default_factory=dict)

    def stderr_dist(self) -> np.ndarray:
        return self.std_dist / math.sqrt(self.paths)

    def stderr_sq_dist(self) -> np.ndarray:
        return self.std_sq_dist / math.sqrt(self.paths)


def tail_probability(stats: EnsembleStats, n: int, eps: float) -> float:
    """P(sup_{m >= n} dist_m >= eps), estimated over the ensemble (tail
    truncated at the horizon)."""
    if not 0 <= n <= stats.horizon:
        raise ValueError(f"index must lie in [0, {stats.horizon}], got {n}")
    if eps <= 0.0:
        return 1.0  # distances are nonnegative, so the sup always clears 0
    if eps not in stats.tail:
        raise ValueError(
            f"ensemble was not run with threshold {eps!r}; have {sorted(stats.tail)}"
        )
    return float(stats.tail[eps][n])


# ---------------------------------------------------------------------------
# Streaming reduction and kernels
# ---------------------------------------------------------------------------


class _Reducer:
    """Folds per-path distances and gaps into the ensemble sums, a block of
    steps at a time, without keeping (paths x horizon) matrices.

    Sums over paths run per ``CHUNK``-row slice, in path order, and the
    slice sums are added in ascending slice order.  Threshold counts are
    exact integers: the running-sup tail at n counts the paths whose last
    index with dist >= eps is at least n.
    """

    def __init__(self, paths: int, horizon: int, epsilons) -> None:
        self.paths = paths
        self.epsilons = epsilons
        # Rows: sums of dist, dist^2, dist^4, gap, gap^2.
        self.sums = np.zeros((5, horizon + 1))
        self.point = np.zeros((len(epsilons), horizon + 1), dtype=np.int64)
        self.last = np.full((len(epsilons), paths), -1, dtype=np.int64)
        # Two (paths, steps) buffers for add, allocated once: the first
        # paths * steps entries of a row, so C-contiguous at every width.
        self.work = np.empty((2, paths * min(BLOCK + 1, horizon + 1)))

    def add(self, n0: int, dist: np.ndarray, gap: np.ndarray) -> None:
        """Take dist and gap, both step-major (steps, paths), of every path
        at the steps n0, n0+1, ....  The float sums run on a (paths, steps)
        copy of each, so a block of one step is summed pairwise down its
        column, a wider one row after row (see ``_block_width``); the
        threshold counts are exact integers, taken from the step rows."""
        steps = len(dist)
        cols = slice(n0, n0 + steps)
        a, b = (w[: self.paths * steps].reshape(self.paths, steps) for w in self.work)
        np.copyto(a, dist.T)
        self._fold(0, cols, a)
        np.multiply(a, a, out=b)
        self._fold(1, cols, b)
        b *= b
        self._fold(2, cols, b)
        np.copyto(a, gap.T)
        self._fold(3, cols, a)
        np.multiply(a, a, out=b)
        self._fold(4, cols, b)
        for i, e in enumerate(self.epsilons):
            hit = dist >= e
            self.point[i, cols] = hit.sum(axis=1)
            seen = hit.any(axis=0)
            last = n0 + len(hit) - 1 - np.argmax(hit[::-1], axis=0)
            self.last[i][seen] = last[seen]

    def _fold(self, row: int, cols: slice, m: np.ndarray) -> None:
        """Set sums[row, cols] to m's column sums, taken per CHUNK-row slice
        and added in ascending slice order."""
        for lo in range(0, self.paths, CHUNK):
            s = m[lo : lo + CHUNK].sum(axis=0)
            if lo == 0:
                self.sums[row, cols] = s
            else:
                self.sums[row, cols] += s

    def tail_counts(self) -> np.ndarray:
        """Per threshold and n, the number of paths with sup_{m >= n}
        dist_m >= eps."""
        length = self.sums.shape[1]
        out = np.zeros((len(self.epsilons), length), dtype=np.int64)
        for i, last in enumerate(self.last):
            counts = np.bincount(last[last >= 0], minlength=length)
            out[i] = np.cumsum(counts[::-1])[::-1]
        return out


def _block_width(n0: int, total: int) -> int:
    """Steps in the kernel's block starting at n0: ``BLOCK``, or one more
    rather than leave a one-step block behind.  NumPy sums the rows of a
    wider block one after another but a single column pairwise, so only a
    one-step ensemble has a one-step block.  The widths depend on n0 and
    total alone, so a stationary ensemble's repeated rows (see ``_kernel``)
    are summed in the blocks its steps would have filled."""
    width = min(BLOCK, total - n0)
    return width + 1 if total - n0 - width == 1 else width


def _words(x: Point) -> list[np.ndarray]:
    """A batch's columns as 64-bit words: equal words are equal bits (-0.0 and 0.0 differ)."""
    return [np.asarray(c).view(np.int64) for c in columns(x)]


def _unmoved(problem: Problem, step, lam: float, X: Point, data) -> bool:
    """Whether the step with relaxation lam leaves every path of the batch X
    bit for bit where it is under every index k (``data`` =
    ``sample_data(problem, X)``).  A step moves each path by its own index
    alone, so then no draw moves any path, and under a constant schedule
    X is every later iterate."""
    words = _words(X)
    for k in range(len(problem.cum_weights)):
        moved = _words(step(problem, np.full(len(words[0]), k), lam, X, data))
        if not all(np.array_equal(a, b) for a, b in zip(words, moved)):
            return False
    return True


def _kernel(
    problem: Problem,
    algorithm: str,
    sched: StepSchedule,
    x0: Point,
    horizon: int,
    seed: int,
    red: _Reducer,
    walks: list | None,
) -> None:
    """Each step advances every path, then writes the distances and gaps at
    the new points as one row of step-major (steps, paths) buffers, taken
    once and reused; a block of rows at a time goes to the reducer.
    Without ``walks`` the paths draw and step as that batch, and every step
    reads the per-sample data the distance and the gap took at its start
    points; else each path is its walk (a ``path_iterates`` generator),
    which reads no shared data, and one point of each is stacked per step.

    Under a ``Constant`` schedule the batch is tested at each block's end
    (``_unmoved``).  Once no index moves any path, the remaining blocks
    repeat the last row, and no further draw or step is made: the draws are
    counter-based, so skipping them shifts no other.  The walks never skip,
    so ``kernel="scalar"`` cross-checks the skip."""
    paths = red.paths
    X = stack([x0] * paths)
    if walks is None:
        starts = range(0, paths, CHUNK)
        keys = [rng.stream_keys(seed, np.arange(s, min(s + CHUNK, paths))) for s in starts]
        cum = np.asarray(problem.cum_weights)  # converted once, not per draw
        step = _SPECS[algorithm].step
    n0, width = 0, _block_width(0, horizon + 1)
    dist = np.empty((min(BLOCK + 1, horizon + 1), paths))
    gap = np.empty_like(dist)

    for n in range(horizon + 1):
        if n:
            if walks is None:
                lam = schedule_value(sched, n - 1)
                # One row-wise draw per CHUNK slice of keys (the tracer counts them).
                e = [rng.categorical(cum, rng.uniforms(k, n - 1)) for k in keys]
                X = step(problem, np.concatenate(e), lam, X, data)
            else:
                X = stack([next(walk)[0] for walk in walks])
        data = sample_data(problem, X)
        dist[n - n0] = dist_to_solutions(problem, X, 1, data)
        gap[n - n0] = gap_F(problem, X, data)
        if n - n0 < width - 1:
            continue
        red.add(n0, dist[:width], gap[:width])
        n0 = n + 1
        if (
            n < horizon
            and walks is None
            and isinstance(sched, Constant)
            and _unmoved(problem, step, sched.c, X, data)
        ):
            dist[:], gap[:] = dist[width - 1], gap[width - 1]
            while n0 <= horizon:
                width = _block_width(n0, horizon + 1)
                red.add(n0, dist[:width], gap[:width])
                n0 += width
            return
        width = _block_width(n0, horizon + 1)


def run_ensemble(
    problem: Problem,
    algorithm: str,
    sched: StepSchedule,
    x0: Point,
    paths: int,
    horizon: int,
    seed: int,
    epsilons,
    threads: int = 1,
    kernel: str = "vector",
) -> EnsembleStats:
    """Run `paths` independent trajectories and aggregate their statistics.

    ``kernel`` selects how the paths step: "vector" draws and steps every
    space's ensemble as one batch of all paths, and "scalar" runs
    ``run_path``'s iteration (``algorithms.path_iterates``) on each path
    and stacks one point of each per step, reading no shared data, to
    cross-check that m steps of one equal one step of m.  Every kernel
    takes the distances and gaps of all paths as one batch per step.
    ``threads`` is validated (>= 1) and kept for compatibility; all work
    runs on the calling thread.
    """
    validate_run(problem, algorithm, sched, x0)
    if paths < 1:
        raise ValueError(f"need at least one path, got {paths}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")
    epsilons = tuple(float(e) for e in epsilons)
    if any(not e > 0.0 for e in epsilons):
        raise ValueError("tail thresholds must be > 0")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("tail thresholds must be distinct")

    if kernel not in ("vector", "scalar"):
        raise ValueError(f"unknown kernel: {kernel!r}")

    red = _Reducer(paths, horizon, epsilons)
    walks = None
    if kernel == "scalar":
        walks = [path_iterates(problem, algorithm, sched, x0, seed, p) for p in range(paths)]
    _kernel(problem, algorithm, sched, x0, horizon, seed, red, walks)
    sd, sd2, sd4, sg, sg2 = red.sums
    tail = red.tail_counts()

    def finalize_std(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        if paths < 2:
            return np.zeros_like(s1)
        var = (s2 - s1 * s1 / paths) / (paths - 1)
        return np.sqrt(np.maximum(var, 0.0))

    return EnsembleStats(
        algorithm, paths, horizon, epsilons,
        mean_dist=sd / paths, mean_sq_dist=sd2 / paths, mean_gap=sg / paths,
        std_dist=finalize_std(sd, sd2), std_sq_dist=finalize_std(sd2, sd4),
        std_gap=finalize_std(sg, sg2),
        tail={e: tail[i] / paths for i, e in enumerate(epsilons)},
        point_tail={e: red.point[i] / paths for i, e in enumerate(epsilons)},
    )


# ---------------------------------------------------------------------------
# One-step supermartingale inequality audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FejerMargin:
    """One-step inequality audit: lhs = E[d^2(x^+, z)] after one step from
    x, rhs = the supermartingale bound; slack = rhs - lhs should be
    nonnegative (within float error for exact sums, within Monte-Carlo
    error otherwise)."""

    lhs: float
    rhs: float
    slack: float
    stderr: float


def fejer_margin(
    problem: Problem,
    algorithm: str,
    x: Point,
    step: float,
    mc_samples: int | None = None,
    seed: int = 0,
) -> FejerMargin:
    """Audit the one-step Fejér inequality of the algorithm at state x, with
    z the reference solution (``algorithms._reference``).

    The inequality is read off the algorithm's spec: with no noise term the
    step is a relaxation in (0, 1] and rhs = d^2(x, z) - lam(1-lam) F(x);
    otherwise rhs = d^2(x, z) - 2 t (f(x) - f(z)) + c t^2 sum_e w_e l_e^2,
    with f the mean cost, c the spec's noise factor and l_e the Lipschitz
    constant of cost e along the step (the subgradient weight s of a
    Busemann cost).  A spec that starts in the constraint set audits states
    in it only.

    With ``mc_samples`` unset the expectation over the drawn index is the
    exact finite sum; otherwise it is a Monte-Carlo estimate (the returned
    stderr is then nonzero).
    """
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    z = _reference(problem, x)
    d2 = sqdist(x, z)

    spec = _SPECS.get(algorithm)
    if spec is None:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if not isinstance(problem, spec.problem_type):
        raise TypeError(f"one-step audit: {algorithm} needs {spec.problem_kind}")
    weights = problem.weights
    if spec.lipschitz is None and step > 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    if spec.x0_in_constraint and not contains(problem.constraint, x):
        raise ValueError("state x must lie in the constraint set")
    data = sample_data(problem, x)
    vals = [sqdist(spec.step(problem, e, step, x, data), z) for e in range(len(weights))]
    if spec.lipschitz is None:
        rhs = d2 - step * (1.0 - step) * gap_F(problem, x, data)
    else:
        if isinstance(problem, BusemannProblem):
            # The subgradient weights s: 1, or 0 at the atom.
            lips = [busemann_subgradient(problem, e, x)[1] for e in range(len(weights))]
        elif problem.cost_kind == HALF_SQUARED:
            # Local Lipschitz constants along the prox segments at x.
            lips = [distance(x, a) for a, _ in problem.atoms]
        else:
            lips = [1.0] * len(weights)
        l_sq = math.fsum(w * l * l for w, l in zip(weights, lips))
        drop = mean_cost_exact(problem, x) - mean_cost_exact(problem, z)
        rhs = d2 - 2.0 * step * drop + spec.noise * step * step * l_sq

    if mc_samples is None:
        lhs = math.fsum(w * v for w, v in zip(weights, vals))
        stderr = 0.0
    else:
        if mc_samples < 2:
            raise ValueError("need at least two Monte-Carlo draws")
        u = rng.uniforms(rng.stream_keys(seed, np.arange(mc_samples)), 0)
        idx = rng.categorical(problem.cum_weights, u)
        counts = np.bincount(idx, minlength=len(vals))
        varr = np.array(vals)
        lhs = float(counts @ varr) / mc_samples
        var = float(counts @ (varr - lhs) ** 2) / (mc_samples - 1)
        stderr = math.sqrt(var / mc_samples)
    return FejerMargin(lhs=lhs, rhs=rhs, slack=rhs - lhs, stderr=stderr)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

_TRUNCATED = "sup-tail truncated at the horizon (later exceedances unobserved)"


@dataclass
class AuditRecord:
    epsilon: float
    criterion: str
    predicted_index: int | None  # None: past moduli.INDEX_CAP
    observed_value_at_index: float | None
    bound_satisfied: bool | None
    mc_margin: float | None
    note: str


_SCHEMA = "fejerlab-audit-v1"


@dataclass
class AuditReport:
    kind: str
    algorithm: str
    paths: int
    horizon: int
    lam: float | None
    records: list[AuditRecord]

    @property
    def all_pass(self) -> bool:
        """True when no checked record failed (unchecked records are not
        failures: their predicted index lies beyond the horizon)."""
        return all(r.bound_satisfied is not False for r in self.records)

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["lambda"] = doc.pop("lam")
        return {"schema": _SCHEMA, **doc}

    @staticmethod
    def from_json_dict(doc: dict) -> "AuditReport":
        if not isinstance(doc, dict):
            raise ValueError(f"an audit file holds a JSON object, not {type(doc).__name__}")
        if doc.get("schema") != _SCHEMA:
            raise ValueError(f"unknown audit schema: {doc.get('schema')!r}")
        fields = {k: v for k, v in doc.items() if k not in ("schema", "lambda")}
        fields["records"] = [AuditRecord(**r) for r in doc["records"]]
        return AuditReport(lam=doc["lambda"], **fields)


def _report(kind: str, stats: EnsembleStats, lam: float | None, records) -> AuditReport:
    return AuditReport(kind, stats.algorithm, stats.paths, stats.horizon, lam, records)


def liminf_witness_check(
    stats: EnsembleStats, eps: float, start: int, bound_index: int | None
) -> int | None:
    """First index n in [start, min(bound_index, horizon)] with mean gap
    below eps, or None if the window contains no such iterate.  A
    bound_index of None lies past the horizon."""
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    end = stats.horizon if bound_index is None else min(bound_index, stats.horizon)
    if start > end:
        return None
    window = stats.mean_gap[start : end + 1]
    hits = np.nonzero(window < eps)[0]
    return int(start + hits[0]) if len(hits) else None


def certificate_audit(
    stats: EnsembleStats, rates: dict[float, tuple[int | None, ...]], lam: float
) -> AuditReport:
    """Check a rate certificate's mean and almost-sure indices against the
    ensemble.  ``rates`` maps each audited epsilon to its four indices,
    ``RateCertificate.metric_rates(eps, lam)``, computed before the run.

    Per epsilon, all four assembled indices are reported; the mean check
    runs at rho(theta(eps/2)) (largest mean distance over n >= index must
    be below eps up to 3 standard errors) and the almost-sure check at the
    relaxed index rho(lam * theta(eps)) (running-sup exceedance fraction
    must be below lam up to 3 binomial standard errors).  Indices beyond
    the horizon (None ones included) yield "unchecked" records, which never
    count as failures.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"confidence level must lie in (0,1), got {lam}")
    records: list[AuditRecord] = []
    sqrt_paths = math.sqrt(stats.paths)
    for eps, (idx, as_strict, mean_relaxed, as_relaxed) in rates.items():
        eps = float(eps)
        idx_note = (
            f"indices: mean={_index_label(idx)}, as_strict={_index_label(as_strict)}, "
            f"mean_relaxed={_index_label(mean_relaxed)}, "
            f"as_relaxed={_index_label(as_relaxed)}"
        )

        if idx is None or idx > stats.horizon:
            records.append(
                AuditRecord(
                    eps, "mean", idx, None, None, None,
                    note=f"unchecked: index beyond horizon {stats.horizon}; {idx_note}",
                )
            )
        else:
            seg = stats.mean_dist[idx:]
            j = int(np.argmax(seg))
            observed = float(seg[j])
            se = float(stats.std_dist[idx + j]) / sqrt_paths
            records.append(
                AuditRecord(
                    eps, "mean", idx, observed,
                    bool(observed < eps + 3.0 * se),
                    eps - observed,
                    note=(
                        f"max mean distance over n >= {idx}, tolerance 3 stderr "
                        f"= {3.0 * se:.3g}; {idx_note}"
                    ),
                )
            )

        idx = as_relaxed
        se = math.sqrt(lam * (1.0 - lam) / stats.paths)
        if idx is None or idx > stats.horizon:
            records.append(
                AuditRecord(
                    eps, "almost_sure", idx, None, None, None,
                    note=(
                        f"unchecked: index beyond horizon {stats.horizon}; "
                        f"{_TRUNCATED}; {idx_note}"
                    ),
                )
            )
        else:
            if eps not in stats.tail:
                raise ValueError(
                    f"ensemble lacks the tail threshold {eps!r}; have {sorted(stats.tail)}"
                )
            observed = float(stats.tail[eps][idx])
            records.append(
                AuditRecord(
                    eps, "almost_sure", idx, observed,
                    bool(observed < lam + 3.0 * se),
                    lam - observed,
                    note=(
                        f"exceedance fraction vs lambda={lam:g}, tolerance 3 binomial "
                        f"stderr = {3.0 * se:.3g}; audited at the relaxed index "
                        f"rho(lam*theta(eps)), strict index {_index_label(as_strict)}; "
                        f"{_TRUNCATED}; {idx_note}"
                    ),
                )
            )
    return _report("rate", stats, lam, records)


def _default_grid(horizon: int) -> list[int]:
    grid = {0}
    n = 1
    while n <= horizon:
        grid.add(n)
        n *= 10
    grid.add(horizon)
    return sorted(grid)


def fast_audit(
    stats: EnsembleStats, cert: FastCertificate, epsilons, grid=None
) -> AuditReport:
    """Check the fast-rate envelope E[dist^2(x_n)] <= u/(n+r) at every n and
    the tail bound P(sup_{m>=n} dist_m >= sqrt(eps)) <= u/(eps(n+r))
    on a grid of indices.  Tail thresholds sqrt(eps) must be among the
    ensemble's thresholds.

    The envelope holds at n when its slack is at least -(rounding bound)
    (see ``_envelope_rounding``).  The record shows the least slack, of
    the indices where the envelope fails if there are any."""
    n_arr = np.arange(stats.horizon + 1)
    env = cert.u / (n_arr + cert.r)
    se = stats.stderr_sq_dist()
    slack = env + 3.0 * se - stats.mean_sq_dist
    ok = slack >= -_envelope_rounding(stats.paths, env, 3.0 * se, stats.mean_sq_dist)
    held = bool(ok.all())  # a nan slack fails
    worst = int(np.argmin(slack if held else np.where(ok, np.inf, slack)))
    note = (
        f"E[dist^2] vs u/(n+r) over all n in [0, {stats.horizon}]; "
        f"tightest index {worst}, bound {env[worst]:.6g}, "
        f"tolerance 3 stderr = {3.0 * float(se[worst]):.3g}"
    )
    observed, margin = float(stats.mean_sq_dist[worst]), float(slack[worst])
    records = [AuditRecord(0.0, "fast_mean_envelope", worst, observed, held, margin, note)]
    grid = _default_grid(stats.horizon) if grid is None else sorted(set(grid))
    for eps in epsilons:
        eps = float(eps)
        thr = math.sqrt(eps)
        if thr not in stats.tail:
            raise ValueError(
                f"ensemble lacks the tail threshold sqrt({eps!r}) = {thr!r}; "
                f"have {sorted(stats.tail)}"
            )
        for n in grid:
            if n > stats.horizon:
                continue
            _, tail_bound = fast_bounds(cert, n, eps)
            observed = float(stats.tail[thr][n])
            if 0.0 < tail_bound < 1.0:
                se_b = math.sqrt(tail_bound * (1.0 - tail_bound) / stats.paths)
            else:
                se_b = 0.0
            ok = tail_bound >= 1.0 or observed <= tail_bound + 3.0 * se_b
            records.append(
                AuditRecord(
                    eps,
                    "fast_tail",
                    n,
                    observed,
                    bool(ok),
                    tail_bound + 3.0 * se_b - observed,
                    note=(
                        f"P(sup dist >= sqrt(eps)={thr:g}) at n={n} vs bound "
                        f"{tail_bound:.6g} (+3 binomial stderr); {_TRUNCATED}"
                    ),
                )
            )
    return _report("fast", stats, None, records)


def _envelope_rounding(paths: int, env, tol, mean_sq):
    """How far below 0 the computed slack env + tol - mean_sq may fall when
    the exact mean of the squared distances M is at most u/(n+r) + tol.

    Each term of the mean passes through at most paths + 1 roundings (its
    square, the additions of any summation order, the division), so the
    mean is M(1 + theta) with |theta| <= gamma_(paths+1), where gamma_k =
    k e / (1 - k e) and e = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Lemma 3.1 and section 4.2).  env is one
    rounding of u/(n+r), and the slack rounds twice more.  Carried through,
    the slack is at least -(1 + e)(gamma_2 (u/(n+r) + tol) + gamma_(paths+1)
    M), which gamma_(paths+3) (env + tol + mean_sq) bounds for every path
    count below 10^8.  The bound holds for finite terms only: where one is
    infinite or nan, the allowance is 0."""
    k = paths + 3
    gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    allowance = gamma * (env + tol + mean_sq)
    return np.where(np.isfinite(allowance), allowance, 0.0)


def _index_label(idx: int | None) -> str:
    """An index as printed: None, past moduli.INDEX_CAP, is ">1e12"."""
    return ">1e12" if idx is None else str(idx)


_GAP_CAVEAT = (
    "full rate-certificate indices rho(eps) at small eps are astronomically "
    "large under harmonic schedules (the divergence witness grows exponentially "
    "in the budget); they are certified by the geometry, recursion, one-step "
    "inequality, and modulus-soundness checks rather than by simulation"
)


def liminf_audit(
    stats: EnsembleStats, bound_idx: int | None, eps: float, start: int
) -> AuditReport:
    """Gap-window audit: the certified window [start, bound_idx], with
    bound_idx = phi(eps, start) of ``algorithms.gap_window`` computed before
    the run (None past moduli.INDEX_CAP), must contain an iterate whose mean
    optimality gap is below eps.  A window past the horizon with no witness
    before it is unchecked."""
    witness = liminf_witness_check(stats, eps, start, bound_idx)
    window = f"window [{start}, {_index_label(bound_idx)}]"
    if witness is not None:
        observed, held = float(stats.mean_gap[witness]), True
        note = f"{window}: witness at n={witness} with mean gap {observed:.6g} < {eps:g}"
    elif bound_idx is None or bound_idx > stats.horizon:
        observed = held = None
        note = (
            f"unchecked: {window} extends beyond horizon {stats.horizon} "
            "and no witness was observed up to the horizon"
        )
    else:
        observed, held = float(np.min(stats.mean_gap[start : bound_idx + 1])), False
        note = f"{window}: no iterate with mean gap below {eps:g} (minimum {observed:.6g})"
    margin = None if observed is None else eps - observed
    note += f"; {_GAP_CAVEAT}"
    record = AuditRecord(eps, "gap_window", bound_idx, observed, held, margin, note)
    return _report("liminf", stats, None, [record])


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


#: The curves file's columns after ``n``, in order: per EnsembleStats field, one column of
#: its name or, with a prefix, one per threshold (prefix + repr, in ``epsilons`` order).
_CURVES = {
    "mean_dist": None, "mean_sq_dist": None, "mean_gap": None,
    "tail": "tail_eps_", "point_tail": "point_tail_eps_",
    "std_dist": None, "std_sq_dist": None, "std_gap": None,
}


def curves_csv_text(stats: EnsembleStats) -> str:
    """The per-iteration curves as CSV text (deterministic byte for byte):
    each value in ``%.17g``, which formats as ``format(x, ".17g")`` does."""
    cols = {}
    for name, prefix in _CURVES.items():
        v = getattr(stats, name)
        cols |= {name: v} if prefix is None else {f"{prefix}{e!r}": v[e] for e in stats.epsilons}
    row = "%d" + ",%.17g" * len(cols)
    lines = [",".join(["n", *cols])]
    # BLOCK rows at a time, so that only a block's values are Python floats.
    for lo in range(0, stats.horizon + 1, BLOCK):
        hi = min(lo + BLOCK, stats.horizon + 1)
        lines += [row % r for r in zip(range(lo, hi), *(v[lo:hi].tolist() for v in cols.values()))]
    return "\n".join(lines) + "\n"


def export_results(
    stats: EnsembleStats, report: AuditReport | None, path_prefix: str
) -> list[str]:
    """Write {prefix}curves.csv (always) and {prefix}audit.json (when a
    report is given); returns the written paths."""
    written = []
    curves_path = f"{path_prefix}curves.csv"
    try:
        with open(curves_path, "w") as fh:
            fh.write(curves_csv_text(stats))
    except OSError as exc:
        raise OSError(f"cannot write curves to {curves_path}: {exc}") from exc
    written.append(curves_path)
    if report is not None:
        written.append(write_audit(report, path_prefix))
    return written


def write_audit(report: AuditReport, path_prefix: str) -> str:
    """Write {prefix}audit.json; returns its path."""
    audit_path = f"{path_prefix}audit.json"
    try:
        with open(audit_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write audit to {audit_path}: {exc}") from exc
    return audit_path


def read_audit(path_prefix: str) -> AuditReport:
    """Read {prefix}audit.json back."""
    with open(f"{path_prefix}audit.json") as fh:
        return AuditReport.from_json_dict(json.load(fh))


def load_curves(path: str) -> dict[str, np.ndarray]:
    """Parse a curves CSV back into named columns; a repeated header raises."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"empty curves file: {path}")
    header = lines[0].split(",")
    if len(set(header)) < len(header):
        repeated = sorted({c for c in header if header.count(c) > 1})
        raise ValueError(f"curves file {path} repeats columns: {repeated}")
    missing = {"n", *(name for name, prefix in _CURVES.items() if prefix is None)} - set(header)
    if missing:
        raise ValueError(f"curves file {path} lacks columns: {sorted(missing)}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"malformed curves row (got {len(parts)} fields): {ln[:60]}")
        rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError(f"curves file {path} has a header but no rows")
    data = np.array(rows)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    n = cols["n"]
    if not np.array_equal(n, np.arange(len(n))):
        raise ValueError(f"curves file {path} has non-contiguous iteration indices")
    return cols


def stats_from_curves(cols: dict[str, np.ndarray], algorithm: str, paths: int) -> EnsembleStats:
    """Rebuild ensemble statistics from parsed curves (for re-audit), the
    thresholds in the file's column order, so that they write back the same.
    Two columns of one family that parse to one threshold raise."""
    if paths < 1:
        raise ValueError(f"need the original path count >= 1, got {paths}")
    curves = {}
    for name, prefix in _CURVES.items():
        if prefix is None:
            curves[name] = cols[name]
        else:
            k, curves[name] = len(prefix), {}
            for c in (c for c in cols if c[:k] == prefix):
                if (eps := float(c[k:])) in curves[name]:
                    raise ValueError(f"curves column {c} repeats the threshold {eps}")
                curves[name][eps] = cols[c]
    return EnsembleStats(algorithm, paths, len(cols["n"]) - 1, tuple(curves["tail"]), **curves)
