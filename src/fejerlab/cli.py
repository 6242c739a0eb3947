"""Command-line front end.

One JSON config describes an experiment end to end: the space, the problem
instance, the algorithm and its step schedule, the ensemble size, and the
audit request.  Four subcommands consume it:

  fejerlab validate --config cfg.json            geometry suites, exit 0/2
  fejerlab run      --config cfg.json --out p_   ensemble + curves CSV
  fejerlab audit    --config cfg.json --out p_   certificate audit + JSON
  fejerlab report   --config cfg.json --out p_   human-readable summary

Each audit kind (rate certificate, fast rate, gap window) is one entry of
``_AUDITS``: its field under ``config.audit``, the reader that resolves it
when the config is read, the check `audit` builds before the ensemble runs,
and how its records print.

Exit codes are a stable contract: 0 pass, 1 input error, 2 geometry
failure, 3 runtime failure, 4 audit failure, 5 no known regularity modulus
for the instance shape.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import algorithms, moduli, problems, spaces
from .algorithms import fast_certificate_skm, gap_window, validate_run
from .harness import (
    AuditRecord,
    AuditReport,
    EnsembleStats,
    _index_label,
    certificate_audit,
    export_results,
    fast_audit,
    liminf_audit,
    load_curves,
    read_audit,
    run_ensemble,
    stats_from_curves,
    write_audit,
)
from .moduli import StepSchedule
from .problems import NoModulusKnownError, Problem
from .spaces import Point, geometry_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GEOMETRY = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4
EXIT_NO_MODULUS = 5

_SPACES = ("euclidean", "tripod", "halfplane")
_ALGORITHMS = ("sppa", "skm", "sb")
_COSTS = (problems.HALF_SQUARED, problems.DISTANCE)


class ConfigError(ValueError):
    """Input error traced to a config field; message names the field path."""


# ---------------------------------------------------------------------------
# Config parsing.  The schema lives here alone: every object is read field by
# field, unknown fields are errors, and a constructor's ValueError or
# TypeError becomes a ConfigError at the path of the object it was building.
# ---------------------------------------------------------------------------


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required field missing")
    return doc[key]


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object, got {type(v).__name__}")
    return v


def _fields(v, allowed, path: str) -> dict:
    """An object whose fields are among ``allowed``."""
    extras = set(_as_dict(v, path)) - set(allowed)
    if extras:
        raise ConfigError(f"{path}: unknown field(s) {sorted(extras)}")
    return v


def _object(v, key: str, kinds: dict, path: str) -> tuple[dict, str]:
    """An object whose field ``key`` names its kind, a key of ``kinds``, and
    whose other fields are among ``kinds[kind]``."""
    kind = _choice(_need(_as_dict(v, path), key, path), kinds, f"{path}.{key}")
    return _fields(v, (key, *kinds[kind]), path), kind


def _choice(v, options, path: str) -> str:
    if not isinstance(v, str) or v not in options:
        raise ConfigError(f"{path}: expected one of {tuple(options)}, got {v!r}")
    return v


def _integer(doc: dict, key: str, path: str, lo=None, hi=None, default=None) -> int:
    """doc[key] as an integer in [lo, hi]; ``default`` when given and the key
    is absent."""
    if default is not None and key not in doc:
        return default
    v, path = _need(doc, key, path), f"{path}.{key}"
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return v


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise ConfigError(f"{path}: integer out of float range") from None
    if not math.isfinite(f):
        raise ConfigError(f"{path}: expected a finite number, got {f}")
    return f


def _number(doc: dict, key: str, path: str, default: float | None = None) -> float:
    """doc[key] as a finite float; ``default`` when given and the key is absent."""
    if default is not None and key not in doc:
        return default
    return _as_float(_need(doc, key, path), f"{path}.{key}")


def _list(doc: dict, key: str, path: str) -> list:
    v = _need(doc, key, path)
    if not isinstance(v, list):
        raise ConfigError(f"{path}.{key}: expected a list, got {type(v).__name__}")
    return v


def _numbers(doc: dict, key: str, path: str, null=None) -> tuple[float, ...]:
    """doc[key] as a list of finite floats; a JSON null entry reads as
    ``null`` when one is given."""
    return tuple(
        null if v is None and null is not None else _as_float(v, f"{path}.{key}[{i}]")
        for i, v in enumerate(_list(doc, key, path))
    )


def _build(path: str, make, *args):
    """make(*args); its ValueError, TypeError or OverflowError is an input
    error at ``path``."""
    try:
        return make(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_POINT_FIELDS = {"euclidean": ("coords",), "tripod": ("ray", "coord"), "halfplane": ("x", "y")}
_SET_FIELDS = {
    "whole_space": (),
    "ball": ("center", "radius"),
    "halfspace": ("normal", "offset"),
    "box": ("lo", "hi"),
    "tripod_segment": ("max_coords",),
    "segment": ("a", "b"),
}
_PROBLEM_FIELDS = {
    "mean_min": ("space", "atoms", "cost", "region_bound"),
    "fixed_point": ("space", "operators", "v"),
    "busemann": ("space", "atoms", "constraint", "region_bound"),
}
_SCHEDULE_FIELDS = {
    "harmonic": ("a", "s"),
    "constant": ("c",),
    "table": ("values", "tail"),
    "root": ("q", "r"),
}


def _in_domain(x: float, path: str, lo: float = -spaces.DOMAIN) -> float:
    if not lo <= x <= spaces.DOMAIN:
        raise ConfigError(f"{path}: {x!r} is outside the domain [{lo:g}, {spaces.DOMAIN:g}]")
    return x


def _domain_numbers(doc: dict, key: str, path: str, null=None) -> tuple[float, ...]:
    """``_numbers`` with each finite entry in the domain."""
    nums = enumerate(_numbers(doc, key, path, null))
    return tuple(v if math.isinf(v) else _in_domain(v, f"{path}.{key}[{i}]") for i, v in nums)


def _read_point(v, path: str, space: str) -> Point:
    """A point, which must lie in ``space`` and in its coordinate domain."""
    doc, _ = _object(v, "space", {space: _POINT_FIELDS[space]}, path)
    if space == "euclidean":
        return _build(path, spaces.Euclidean, _domain_numbers(doc, "coords", path))
    if space == "tripod":
        ray, coord = _integer(doc, "ray", path), _number(doc, "coord", path)
        return _build(path, spaces.Tripod, ray, _in_domain(coord, f"{path}.coord"))
    x = _in_domain(_number(doc, "x", path), f"{path}.x")
    y = _in_domain(_number(doc, "y", path), f"{path}.y", 1 / spaces.DOMAIN)
    return _build(path, spaces.HalfPlane, x, y)


def _read_set(v, path: str, space: str) -> spaces.ConvexSet:
    """A convex set whose points lie in ``space`` and whose parameters lie in
    the domain; a null box bound is unbounded."""
    doc, kind = _object(v, "kind", _SET_FIELDS, path)
    if kind == "whole_space":
        return spaces.WholeSpace()
    if kind == "ball":
        center = _read_point(_need(doc, "center", path), f"{path}.center", space)
        radius = _in_domain(_number(doc, "radius", path), f"{path}.radius")
        return _build(path, spaces.Ball, center, radius)
    if kind == "halfspace":
        normal = _numbers(doc, "normal", path)
        offset = _in_domain(_number(doc, "offset", path), f"{path}.offset")
        return _build(path, spaces.Halfspace, normal, offset)
    if kind == "box":
        lo = _domain_numbers(doc, "lo", path, -math.inf)
        return _build(path, spaces.Box, lo, _domain_numbers(doc, "hi", path, math.inf))
    if kind == "tripod_segment":
        return _build(path, spaces.TripodSegment, _domain_numbers(doc, "max_coords", path))
    a, b = (_read_point(_need(doc, k, path), f"{path}.{k}", space) for k in ("a", "b"))
    return _build(path, spaces.Segment, a, b)


def _read_terms(doc: dict, key: str, item: str, read, path: str) -> tuple:
    """The non-empty list doc[key] of {item, weight} objects, as
    (read(item, its path), weight) pairs."""
    terms = []
    for i, v in enumerate(_list(doc, key, path)):
        p = f"{path}.{key}[{i}]"
        term = _fields(v, (item, "weight"), p)
        terms.append((read(_need(term, item, p), f"{p}.{item}"), _number(term, "weight", p)))
    if not terms:
        raise ConfigError(f"{path}.{key}: expected at least one entry")
    return tuple(terms)


def _read_problem(v, path: str, space: str) -> Problem:
    """A problem, which must lie in ``space``."""
    doc, kind = _object(v, "kind", _PROBLEM_FIELDS, path)
    _choice(_need(doc, "space", path), (space,), f"{path}.space")
    if kind == "fixed_point":
        ops = _read_terms(doc, "operators", "set", lambda s, p: _read_set(s, p, space), path)
        sets, weights = tuple(s for s, _ in ops), tuple(w for _, w in ops)
        problem = _build(path, problems.build_fixed_point, space, sets, weights)
        # v is derived from the sets; a stated v may only repeat it.
        if "v" in doc and (stated := _number(doc, "v", path)) != problem.v:
            raise ConfigError(
                f"{path}.v: the operator sets give v = {problem.v!r}, not {stated!r}; "
                f"v is derived, drop the key"
            )
        return problem
    atoms = _read_terms(doc, "atoms", "point", lambda a, p: _read_point(a, p, space), path)
    region_bound = _number(doc, "region_bound", path, 4.0)
    if kind == "mean_min":
        cost = _choice(_need(doc, "cost", path), _COSTS, f"{path}.cost")
        return _build(path, problems.build_mean_min, space, atoms, cost, region_bound)
    constraint = _read_set(_need(doc, "constraint", path), f"{path}.constraint", space)
    return _build(path, problems.build_busemann, space, atoms, constraint, region_bound)


def _read_harmonic(doc: dict, path: str) -> moduli.Harmonic:
    return _build(path, moduli.Harmonic, _number(doc, "a", path), _number(doc, "s", path, 1.0))


def _read_schedule(v, path: str) -> StepSchedule:
    doc, kind = _object(v, "kind", _SCHEDULE_FIELDS, path)
    if kind == "harmonic":
        return _read_harmonic(doc, path)
    if kind == "constant":
        return _build(path, moduli.Constant, _number(doc, "c", path))
    if kind == "table":
        tail = _fields(_need(doc, "tail", path), ("a", "s"), f"{path}.tail")
        values = _numbers(doc, "values", path)
        return _build(path, moduli.TableSchedule, values, _read_harmonic(tail, f"{path}.tail"))
    return _build(path, moduli.RootSchedule, _number(doc, "q", path), _integer(doc, "r", path))


class Audit(NamedTuple):
    """A resolved audit request: its kind (a key of ``_AUDITS``), what its
    reader took from ``config.audit``, and the thresholds the ensemble tracks."""

    kind: str
    params: object
    thresholds: tuple[float, ...]


@dataclass
class Experiment:
    """A parsed config.  ``sched`` is the schedule the ensemble runs: the
    configured one, or the one the audit derives."""

    space: str
    problem: Problem
    algorithm: str
    sched: StepSchedule
    x0: Point
    paths: int
    horizon: int
    seed: int
    threads: int
    epsilons: tuple[float, ...]
    audit: Audit


# Audit kinds.  A reader runs when the config is read.  From its field's value
# (None when absent) it returns the kind's parameters, the schedule the
# ensemble runs and the thresholds it tracks.  A check is built by `audit`
# alone, before the ensemble runs, so a missing modulus (exit 5) or an index
# that cannot be computed (exit 1) fails first; it returns stats ->
# AuditReport.  Both call harness and algorithms functions by their module
# names at call time, so a wrapper bound to a name sees every call.


def _configured_schedule(top: dict, problem: Problem, algorithm: str, x0: Point) -> StepSchedule:
    sched = _read_schedule(_need(top, "schedule", "config"), "config.schedule")
    _build("config", validate_run, problem, algorithm, sched, x0)
    return sched


def _read_rate(v, path, top, problem, algorithm, x0, epsilons):
    lam = None if v is None else _as_float(v, path)  # only the audit requires it
    if lam is not None and not 0.0 < lam < 1.0:
        raise ConfigError(f"{path}: must lie in (0,1), got {lam}")
    return lam, _configured_schedule(top, problem, algorithm, x0), epsilons


def _read_fast(v, path, top, problem, algorithm, x0, epsilons):
    """The certificate and its root schedule, so infeasible parameters fail
    every subcommand; the fast tail bound controls dist^2 >= eps at sqrt(eps)."""
    doc = _fields(v, ("c", "r"), path)
    c, r = _number(doc, "c", path), _integer(doc, "r", path, lo=1)
    if algorithm != "skm":
        raise ConfigError(f"{path}: fast-rate audits are defined for algorithm 'skm'")
    if "schedule" in top:
        raise ConfigError("config.schedule: the fast audit derives the schedule; drop the key")
    cert, sched = _build(path, fast_certificate_skm, problem, c, r, x0)
    return cert, sched, tuple(math.sqrt(e) for e in epsilons)


def _read_liminf(v, path, top, problem, algorithm, x0, epsilons):
    doc = _fields(v, ("epsilon", "start"), path)
    eps, start = _number(doc, "epsilon", path), _integer(doc, "start", path, lo=0)
    if not eps > 0.0:
        raise ConfigError(f"{path}.epsilon: must be > 0, got {eps}")
    return (eps, start), _configured_schedule(top, problem, algorithm, x0), epsilons


def _rate_check(exp: Experiment):
    lam = exp.audit.params
    if lam is None:
        raise ConfigError("config.audit.lambda: required for certificate audits")
    if not exp.epsilons:
        raise ConfigError("config.audit.epsilons: at least one threshold required")
    certificate = getattr(algorithms, f"certificate_{exp.algorithm}")
    try:
        cert = certificate(exp.problem, exp.sched, exp.x0)
    except NoModulusKnownError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    rates = {
        eps: _build(f"config.audit.epsilons[{i}]", cert.metric_rates, eps, lam)
        for i, eps in enumerate(exp.epsilons)
    }
    return lambda stats: certificate_audit(stats, rates, lam)


def _fast_check(exp: Experiment):
    return lambda stats: fast_audit(stats, exp.audit.params, exp.epsilons)


def _liminf_check(exp: Experiment):
    eps, start = exp.audit.params
    phi = gap_window(exp.problem, exp.algorithm, exp.sched, exp.x0)
    # The end grows like e^(budget / (a eps)) for a harmonic schedule.
    step = "config.schedule.a" if isinstance(exp.sched, moduli.Harmonic) else "config.schedule"
    end = _build(f"{step} with config.audit.liminf.epsilon={eps!r}", phi, eps, start)
    return lambda stats: liminf_audit(stats, end, eps, start)


class _AuditKind(NamedTuple):
    field: str  # beside epsilons, under config.audit
    read: Callable
    check: Callable
    # AuditRecord.criterion -> the check's printed name and, for a record read
    # off a curve, the curves.csv column `report` shows at the index, labelled.
    criteria: dict[str, tuple[str, str | None, str | None]]


# One entry per AuditReport.kind.  A config asks for a kind by its field; the
# first kind, the rate certificate, needs none and is the default.
_AUDITS = {
    "rate": _AuditKind("lambda", _read_rate, _rate_check, {
        "mean": ("mean-rate certificate check", "mean_dist", "curve value there"),
        "almost_sure": ("almost-sure tail check", None, None),
    }),
    "fast": _AuditKind("fast", _read_fast, _fast_check, {
        "fast_mean_envelope": ("fast-rate envelope check", "mean_sq_dist", "curve value there"),
        "fast_tail": ("fast-rate tail check", None, None),
    }),
    "liminf": _AuditKind("liminf", _read_liminf, _liminf_check, {
        "gap_window": ("gap-window (liminf) check", "mean_gap", "mean gap at window end"),
    }),
}


def parse_experiment(doc, seed_override: int | None = None) -> Experiment:
    """Validate the raw JSON config and build the experiment objects.

    Every violation raises ConfigError naming the offending field path.
    """
    top = _fields(
        doc, ("space", "problem", "algorithm", "x0", "schedule", "ensemble", "audit"), "config"
    )
    space = _choice(_need(top, "space", "config"), _SPACES, "config.space")
    problem = _read_problem(_need(top, "problem", "config"), "config.problem", space)
    algorithm = _choice(_need(top, "algorithm", "config"), _ALGORITHMS, "config.algorithm")
    x0 = _read_point(_need(top, "x0", "config"), "config.x0", space)

    path = "config.ensemble"
    ens = _fields(_need(top, "ensemble", "config"), ("paths", "horizon", "seed", "threads"), path)
    paths = _integer(ens, "paths", path, lo=1)
    horizon = _integer(ens, "horizon", path, lo=0)
    seed = _integer(ens, "seed", path, lo=0, hi=2**64 - 1)
    threads = _integer(ens, "threads", path, lo=1, default=1)
    if seed_override is not None:
        if not 0 <= seed_override < 2**64:
            raise ConfigError(
                f"--seed-override: must be an unsigned 64-bit integer, got {seed_override}"
            )
        seed = seed_override

    # A config without an audit block asks for the default kind, with no thresholds.
    path = "config.audit"
    aud = _as_dict(top.get("audit", {"epsilons": []}), path)
    asked = [k for k in list(_AUDITS)[1:] if _AUDITS[k].field in aud]
    if len(asked) > 1:
        fields = " and ".join(repr(_AUDITS[k].field) for k in asked)
        raise ConfigError(f"{path}: choose at most one of {fields}")
    kind = asked[0] if asked else next(iter(_AUDITS))
    field = _AUDITS[kind].field
    epsilons = _numbers(_fields(aud, ("epsilons", field), path), "epsilons", path)
    if any(not e > 0.0 for e in epsilons):
        raise ConfigError(f"{path}.epsilons: thresholds must be > 0")
    if len(set(epsilons)) != len(epsilons):
        raise ConfigError(f"{path}.epsilons: thresholds must be distinct")
    params, sched, thresholds = _AUDITS[kind].read(
        aud.get(field), f"{path}.{field}", top, problem, algorithm, x0, epsilons
    )
    return Experiment(
        space, problem, algorithm, sched, x0, paths, horizon, seed, threads, epsilons,
        Audit(kind, params, thresholds),
    )


# ---------------------------------------------------------------------------
# Experiment assembly helpers
# ---------------------------------------------------------------------------


def _run_stats(exp: Experiment) -> EnsembleStats:
    return run_ensemble(
        exp.problem, exp.algorithm, exp.sched, exp.x0, exp.paths, exp.horizon, exp.seed,
        exp.audit.thresholds, threads=exp.threads,
    )


def _print_records(report: AuditReport, details) -> dict[str, int]:
    """One PASS/FAIL/UNCHECKED line per record, ``details(record, column,
    label)`` after the threshold, then the record's note; returns the count
    per status.  An unknown criterion prints by its name."""
    counts = {"PASS": 0, "FAIL": 0, "UNCHECKED": 0}
    for r in report.records:
        status = {True: "PASS", False: "FAIL", None: "UNCHECKED"}[r.bound_satisfied]
        counts[status] += 1
        name, *shown = next(
            (k.criteria[r.criterion] for k in _AUDITS.values() if r.criterion in k.criteria),
            (r.criterion, None, None),
        )
        print(f"[{status}] {name}: eps={r.epsilon:g}{details(r, *shown)}")
        print(f"    {r.note}")
    return counts


def _audit_details(r: AuditRecord, *_) -> str:
    obs = "n/a" if r.observed_value_at_index is None else f"{r.observed_value_at_index:.6g}"
    margin = "n/a" if r.mc_margin is None else f"{r.mc_margin:.6g}"
    return f" index={_index_label(r.predicted_index)} observed={obs} margin={margin}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(exp: Experiment) -> int:
    """Run the geometry suites for the configured space, R^d in the start
    point's dimension d; exit 0/2."""
    dim = len(exp.x0.coords) if exp.space == "euclidean" else 2
    summary = geometry_suite(exp.space, seed=exp.seed, dim=dim)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if summary["pass"] else EXIT_GEOMETRY


def cmd_run(exp: Experiment, out_prefix: str) -> int:
    stats = _run_stats(exp)
    for path in export_results(stats, None, out_prefix):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_audit(exp: Experiment, out_prefix: str, curves_path: str | None = None) -> int:
    check = _AUDITS[exp.audit.kind].check(exp)
    if curves_path is not None:
        try:
            cols = load_curves(curves_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--curves {curves_path}: {exc}") from exc
        stats = stats_from_curves(cols, exp.algorithm, exp.space, exp.paths, exp.seed)
        missing = [t for t in exp.audit.thresholds if t not in stats.tail]
        if missing:
            raise ConfigError(
                f"--curves {curves_path}: missing tail thresholds {missing}; "
                f"file tracks {sorted(stats.tail)}"
            )
    else:
        stats = _run_stats(exp)

    report = check(stats)
    if curves_path is None:
        written = export_results(stats, report, out_prefix)
    else:
        written = [write_audit(report, out_prefix)]
    _print_records(report, _audit_details)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK if report.all_pass else EXIT_AUDIT


def cmd_report(out_prefix: str) -> int:
    """Juxtapose the audit's predicted indices with the observed curves."""
    report = read_audit(out_prefix)
    cols = load_curves(f"{out_prefix}curves.csv")
    horizon = len(cols["n"]) - 1

    lam = "" if report.lam is None else f" lambda={report.lam:g}"
    print(
        f"fejerlab report: kind={report.kind} algorithm={report.algorithm} "
        f"paths={report.paths} horizon={report.horizon}{lam}"
    )
    if not report.records:
        return EXIT_OK

    def details(r: AuditRecord, column: str | None, label: str | None) -> str:
        line = f" predicted index {_index_label(r.predicted_index)}"
        if r.predicted_index <= horizon and column is not None:
            line += f" | {label} {cols[column][r.predicted_index]:.6g}"
        if r.observed_value_at_index is not None:
            line += f" | audited value {r.observed_value_at_index:.6g}"
        if r.mc_margin is not None:
            line += f" | margin {r.mc_margin:.6g}"
        return line

    counts = _print_records(report, details)
    print(
        f"checks: {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['UNCHECKED']} unchecked"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fejerlab",
        description="Stochastic splitting algorithms on geodesic spaces: "
        "run ensembles and audit convergence-rate certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("validate", "run the geometry suites for the configured space"),
        ("run", "run the ensemble and write the curves CSV"),
        ("audit", "build the certificate and audit it against an ensemble"),
        ("report", "summarize audit.json next to curves.csv"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment JSON config")
        p.add_argument("--out", default="", help="output path prefix")
        p.add_argument(
            "--seed-override", type=int, default=None, help="replace the config seed"
        )
        if name == "audit":
            p.add_argument(
                "--curves",
                default=None,
                help="audit a previously written curves CSV instead of running",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(
            f"config error: {args.config} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except ValueError as exc:  # e.g. an integer beyond int's digit limit
        print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        exp = parse_experiment(doc, seed_override=args.seed_override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "validate":
        return cmd_validate(exp)
    if args.command == "run":
        try:
            return cmd_run(exp, args.out)
        except Exception as exc:  # noqa: BLE001 - contract: runtime failure -> 3
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    if args.command == "audit":
        try:
            return cmd_audit(exp, args.out, curves_path=args.curves)
        except NoModulusKnownError as exc:
            print(f"no modulus known: {exc}", file=sys.stderr)
            return EXIT_NO_MODULUS
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except Exception as exc:  # noqa: BLE001
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    # report
    try:
        return cmd_report(args.out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"report input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
