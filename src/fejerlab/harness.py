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
``dist_to_solutions`` and ``gap_F`` at the new points of all paths as one
batch (a point whose coordinates are columns, one entry per path; see
``spaces``), so it runs the scalar runners' arithmetic and equals them bit
for bit.  A Euclidean ensemble also steps as that one batch.  The tree and
half-plane spaces, and ``kernel="scalar"``, step path by path: each path
draws its index from its own stream state (a bisection of the cumulative
weights, with no NumPy call) and steps as a point, and the points are
stacked into the batch.  The wide batch draws a column of indices per slice
of streams.  The kernel streams the distances and gaps into one reducer a
block of steps at a time, so memory grows with paths plus the horizon, not
with their product.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .algorithms import _SPECS, _reference, validate_run
from .moduli import (
    FastCertificate,
    StepSchedule,
    fast_bounds,
    schedule_value,
)
from .problems import (
    HALF_SQUARED,
    FixedPointProblem,
    Problem,
    busemann_subgradient,
    dist_to_solutions,
    gap_F,
    mean_cost_exact,
    operator_images,
    sample_index,
)
from .spaces import Euclidean, Point, contains, distance, sqdist, stack

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
    space: str
    paths: int
    horizon: int
    seed: int
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

    def add(self, n0: int, dist: np.ndarray, gap: np.ndarray) -> None:
        """Take dist and gap, both (paths, steps), of every path at the steps
        n0, n0+1, ....  A block of one step is summed pairwise down its
        column, a wider one row after row (see ``_block_width``)."""
        cols = slice(n0, n0 + dist.shape[1])
        sq = dist * dist
        moments = (dist, sq, sq * sq, gap, gap * gap)
        for lo in range(0, self.paths, CHUNK):
            s = np.stack([m[lo : lo + CHUNK].sum(axis=0) for m in moments])
            if lo == 0:
                self.sums[:, cols] = s
            else:
                self.sums[:, cols] += s
        for i, e in enumerate(self.epsilons):
            hit = dist >= e
            self.point[i, cols] = hit.sum(axis=0)
            seen = hit.any(axis=1)
            last = n0 + hit.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
            self.last[i][seen] = last[seen]

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
    one-step ensemble has a one-step block."""
    width = min(BLOCK, total - n0)
    return width + 1 if total - n0 - width == 1 else width


def _kernel(
    problem: Problem,
    algorithm: str,
    sched: StepSchedule,
    x0: Point,
    horizon: int,
    seed: int,
    red: _Reducer,
    wide: bool,
) -> None:
    """Each step advances every path, then records the distances and gaps
    at the new points as one batch of all paths; a block of steps at a time
    goes to the reducer.  Wide, the paths draw and step as that Euclidean
    batch; else each path draws and steps as a point, and they are stacked."""
    paths = red.paths
    if wide:
        starts = range(0, paths, CHUNK)
        keys = [rng.stream_keys(seed, np.arange(s, min(s + CHUNK, paths))) for s in starts]
        X = Euclidean(tuple(np.full(paths, c) for c in x0.coords))
    else:
        xs = [x0] * paths
        states = [rng.make_state(seed, p) for p in range(paths)]
    step = _SPECS[algorithm].step
    fixed_point = isinstance(problem, FixedPointProblem)  # the only images
    n0, width = 0, _block_width(0, horizon + 1)
    dist, gap = np.empty((paths, width)), np.empty((paths, width))

    for n in range(horizon + 1):
        if n:
            lam = schedule_value(sched, n - 1)
            if wide:
                # One row-wise draw per CHUNK slice of keys (the tracer counts
                # them); the images the gap took at x_{n-1} serve the step.
                e = [rng.categorical(problem.cum_weights, rng.uniforms(k, n - 1)) for k in keys]
                X = step(problem, np.concatenate(e), lam, X, images)
            else:
                for p, x in enumerate(xs):
                    e, states[p] = sample_index(problem, states[p])
                    xs[p] = step(problem, e, lam, x)
        if not wide:
            X = stack(xs)
        images = operator_images(problem, X) if fixed_point else None
        dist[:, n - n0] = dist_to_solutions(problem, X)
        gap[:, n - n0] = gap_F(problem, X, images)
        if n - n0 == width - 1:
            red.add(n0, dist, gap)
            n0, width = n0 + width, _block_width(n0 + width, horizon + 1)
            dist, gap = np.empty((paths, width)), np.empty((paths, width))


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
    kernel: str = "auto",
) -> EnsembleStats:
    """Run `paths` independent trajectories and aggregate their statistics.

    ``kernel`` selects how the paths step: "auto" steps a Euclidean
    ensemble as one batch of all paths and other spaces path by path,
    "scalar" steps path by path in every space (each path-step then calls
    the point API once, as the runners do, to cross-check that m steps of
    one equal one step of m), and "vector" demands the wide batch.  Every
    kernel takes the distances and gaps of all paths as one batch per step.
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

    if kernel not in ("auto", "vector", "scalar"):
        raise ValueError(f"unknown kernel: {kernel!r}")
    if kernel == "vector" and problem.space != "euclidean":
        raise ValueError("vectorized kernel is only available in Euclidean spaces")

    red = _Reducer(paths, horizon, epsilons)
    wide = kernel != "scalar" and problem.space == "euclidean"
    _kernel(problem, algorithm, sched, x0, horizon, seed, red, wide)
    sd, sd2, sd4, sg, sg2 = red.sums
    tail = red.tail_counts()

    def finalize_std(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        if paths < 2:
            return np.zeros_like(s1)
        var = (s2 - s1 * s1 / paths) / (paths - 1)
        return np.sqrt(np.maximum(var, 0.0))

    return EnsembleStats(
        algorithm=algorithm,
        space=problem.space,
        paths=paths,
        horizon=horizon,
        seed=seed,
        epsilons=epsilons,
        mean_dist=sd / paths,
        mean_sq_dist=sd2 / paths,
        mean_gap=sg / paths,
        std_dist=finalize_std(sd, sd2),
        std_sq_dist=finalize_std(sd2, sd4),
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
    z: Point | None = None,
    mc_samples: int | None = None,
    seed: int = 0,
) -> FejerMargin:
    """Audit the one-step Fejér inequality of the algorithm at state x.

    With ``mc_samples`` unset the expectation over the drawn index is the
    exact finite sum; otherwise it is a Monte-Carlo estimate (the returned
    stderr is then nonzero).
    """
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    z = _reference(problem, x) if z is None else z
    if not contains(problem.solution_set, z):
        raise ValueError("reference point z must lie in the solution set")
    d2 = sqdist(x, z)

    spec = _SPECS.get(algorithm)
    if spec is None:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    if not isinstance(problem, spec.problem_type):
        raise TypeError(f"one-step audit: {algorithm} needs {spec.problem_kind}")
    weights = problem.weights
    if algorithm == "skm" and step > 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    if algorithm == "sb" and not contains(problem.constraint, x):
        raise ValueError("state x must lie in the constraint set")
    images = operator_images(problem, x)
    vals = [sqdist(spec.step(problem, e, step, x, images), z) for e in range(len(weights))]
    if algorithm == "skm":
        rhs = d2 - step * (1.0 - step) * gap_F(problem, x, images)
    else:
        if algorithm == "sb":
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
    predicted_index: int
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
        if doc.get("schema") != _SCHEMA:
            raise ValueError(f"unknown audit schema: {doc.get('schema')!r}")
        fields = {k: v for k, v in doc.items() if k not in ("schema", "lambda")}
        fields["records"] = [AuditRecord(**r) for r in doc["records"]]
        return AuditReport(lam=doc["lambda"], **fields)


def _report(kind: str, stats: EnsembleStats, lam: float | None, records) -> AuditReport:
    return AuditReport(kind, stats.algorithm, stats.paths, stats.horizon, lam, records)


def liminf_witness_check(
    stats: EnsembleStats, eps: float, start: int, bound_index: int
) -> int | None:
    """First index n in [start, min(bound_index, horizon)] with mean gap
    below eps, or None if the window contains no such iterate."""
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    end = min(bound_index, stats.horizon)
    if start > end:
        return None
    window = stats.mean_gap[start : end + 1]
    hits = np.nonzero(window < eps)[0]
    return int(start + hits[0]) if len(hits) else None


def certificate_audit(
    stats: EnsembleStats, rates: dict[float, tuple[int, int, int, int]], lam: float
) -> AuditReport:
    """Check a rate certificate's mean and almost-sure indices against the
    ensemble.  ``rates`` maps each audited epsilon to its four indices,
    ``RateCertificate.metric_rates(eps, lam)``, computed before the run.

    Per epsilon, all four assembled indices are reported; the mean check
    runs at rho(theta(eps/2)) (largest mean distance over n >= index must
    be below eps up to 3 standard errors) and the almost-sure check at the
    relaxed index rho(lam * theta(eps)) (running-sup exceedance fraction
    must be below lam up to 3 binomial standard errors).  Indices beyond
    the horizon yield "unchecked" records, which never count as failures.
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

        if idx > stats.horizon:
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
        if idx > stats.horizon:
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
    the tail bound P(sup_{m>=n} dist_m >= sqrt(eps)) <= K(u+2d)/(eps(n+r))
    on a grid of indices.  Tail thresholds sqrt(eps) must be among the
    ensemble's thresholds."""
    n_arr = np.arange(stats.horizon + 1)
    env = cert.u / (n_arr + cert.r)
    se = stats.stderr_sq_dist()
    slack = env + 3.0 * se - stats.mean_sq_dist
    worst = int(np.argmin(slack))
    note = (
        f"E[dist^2] vs u/(n+r) over all n in [0, {stats.horizon}]; "
        f"tightest index {worst}, bound {env[worst]:.6g}, "
        f"tolerance 3 stderr = {3.0 * float(se[worst]):.3g}"
    )
    observed, margin = float(stats.mean_sq_dist[worst]), float(slack[worst])
    records = [AuditRecord(0.0, "fast_mean_envelope", worst, observed, margin >= 0.0, margin, note)]
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


def _index_label(idx: int) -> str:
    """Astronomically large witness indices are printed as magnitudes,
    found without the decimal string of the index."""
    if idx >= 10**12:
        e = int(math.log10(idx))  # off by at most one; corrected exactly
        e += (10 ** (e + 1) <= idx) - (10**e > idx)
        return f"~1e{e}"
    return str(idx)


_GAP_CAVEAT = (
    "full rate-certificate indices rho(eps) at small eps are astronomically "
    "large under harmonic schedules (the divergence witness grows exponentially "
    "in the budget); they are certified by the geometry, recursion, one-step "
    "inequality, and modulus-soundness checks rather than by simulation"
)


def liminf_audit(stats: EnsembleStats, bound_idx: int, eps: float, start: int) -> AuditReport:
    """Gap-window audit: the certified window [start, bound_idx], with
    bound_idx = phi(eps, start) of ``algorithms.gap_window`` computed before
    the run, must contain an iterate whose mean optimality gap is below
    eps.  A window past the horizon with no witness before it is
    unchecked."""
    witness = liminf_witness_check(stats, eps, start, bound_idx)
    window = f"window [{start}, {_index_label(bound_idx)}]"
    if witness is not None:
        observed, held = float(stats.mean_gap[witness]), True
        note = f"{window}: witness at n={witness} with mean gap {observed:.6g} < {eps:g}"
    elif bound_idx > stats.horizon:
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def curves_csv_text(stats: EnsembleStats) -> str:
    """The per-iteration curves as CSV text (deterministic byte for byte)."""
    cols = ["n", "mean_dist", "mean_sq_dist", "mean_gap"]
    cols += [f"tail_eps_{e!r}" for e in stats.epsilons]
    cols += [f"point_tail_eps_{e!r}" for e in stats.epsilons]
    cols += ["std_dist", "std_sq_dist", "std_gap"]
    lines = [",".join(cols)]
    for n in range(stats.horizon + 1):
        row = [
            str(n),
            _fmt(stats.mean_dist[n]),
            _fmt(stats.mean_sq_dist[n]),
            _fmt(stats.mean_gap[n]),
        ]
        row += [_fmt(stats.tail[e][n]) for e in stats.epsilons]
        row += [_fmt(stats.point_tail[e][n]) for e in stats.epsilons]
        row += [_fmt(stats.std_dist[n]), _fmt(stats.std_sq_dist[n]), _fmt(stats.std_gap[n])]
        lines.append(",".join(row))
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


@contextlib.contextmanager
def _exact_ints():
    """Lift CPython's limit on int/str conversion (4,300 digits by default,
    from 3.10.7 on) while an audit file is written or read: a certified
    window end can have thousands of digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def write_audit(report: AuditReport, path_prefix: str) -> str:
    """Write {prefix}audit.json; returns its path."""
    audit_path = f"{path_prefix}audit.json"
    try:
        with open(audit_path, "w") as fh, _exact_ints():
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write audit to {audit_path}: {exc}") from exc
    return audit_path


def read_audit(path_prefix: str) -> AuditReport:
    """Read {prefix}audit.json back."""
    with open(f"{path_prefix}audit.json") as fh, _exact_ints():
        return AuditReport.from_json_dict(json.load(fh))


def load_curves(path: str) -> dict[str, np.ndarray]:
    """Parse a curves CSV back into named columns."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"empty curves file: {path}")
    header = lines[0].split(",")
    expected = {"n", "mean_dist", "mean_sq_dist", "mean_gap", "std_dist", "std_sq_dist", "std_gap"}
    missing = expected - set(header)
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


def stats_from_curves(
    cols: dict[str, np.ndarray], algorithm: str, space: str, paths: int, seed: int
) -> EnsembleStats:
    """Rebuild ensemble statistics from parsed curves (for re-audit)."""
    if paths < 1:
        raise ValueError(f"need the original path count >= 1, got {paths}")
    horizon = len(cols["n"]) - 1
    tail = {}
    point_tail = {}
    for name, arr in cols.items():
        if name.startswith("tail_eps_"):
            tail[float(name[len("tail_eps_"):])] = arr
        elif name.startswith("point_tail_eps_"):
            point_tail[float(name[len("point_tail_eps_"):])] = arr
    return EnsembleStats(
        algorithm=algorithm,
        space=space,
        paths=paths,
        horizon=horizon,
        seed=seed,
        epsilons=tuple(sorted(tail)),
        mean_dist=cols["mean_dist"],
        mean_sq_dist=cols["mean_sq_dist"],
        mean_gap=cols["mean_gap"],
        std_dist=cols["std_dist"],
        std_sq_dist=cols["std_sq_dist"],
        std_gap=cols["std_gap"],
        tail=tail,
        point_tail=point_tail,
    )
