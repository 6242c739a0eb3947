"""Command-line front end.

One JSON config describes an experiment end to end: the space, the problem
instance, the algorithm and its step schedule, the ensemble size, and the
audit request.  Four subcommands consume it:

  fejerlab validate --config cfg.json            geometry suites, exit 0/2
  fejerlab run      --config cfg.json --out p_   ensemble + curves CSV
  fejerlab audit    --config cfg.json --out p_   certificate audit + JSON
  fejerlab report   --config cfg.json --out p_   human-readable summary

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

from . import algorithms
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
from .moduli import FastCertificate, StepSchedule, schedule_from_spec
from .problems import NoModulusKnownError, Problem, problem_from_spec
from .spaces import Point, geometry_suite, point_from_spec, space_of

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GEOMETRY = 2
EXIT_RUNTIME = 3
EXIT_AUDIT = 4
EXIT_NO_MODULUS = 5

_SPACES = ("euclidean", "tripod", "halfplane")
_ALGORITHMS = ("sppa", "skm", "sb")

_CHECK_NAMES = {
    "mean": "mean-rate certificate check",
    "almost_sure": "almost-sure tail check",
    "fast_mean_envelope": "fast-rate envelope check",
    "fast_tail": "fast-rate tail check",
    "gap_window": "gap-window (liminf) check",
}


class ConfigError(ValueError):
    """Input error traced to a config field; message names the field path."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required field missing")
    return doc[key]


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object, got {type(v).__name__}")
    return v


def _as_int(v, path: str, lo: int | None = None, hi: int | None = None) -> int:
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
    return float(v)


def _no_extras(doc: dict, allowed, path: str) -> None:
    extras = set(doc) - set(allowed)
    if extras:
        raise ConfigError(f"{path}: unknown field(s) {sorted(extras)}")


@dataclass
class Experiment:
    """A parsed config.  ``sched`` and ``thresholds`` are what the ensemble
    runs and tracks: under ``audit.fast`` the certificate's root schedule
    and sqrt(eps) per audited eps (the fast tail bound controls dist^2 >=
    eps), otherwise the configured schedule and the audited epsilons."""

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
    thresholds: tuple[float, ...]
    lam: float | None
    fast: FastCertificate | None
    liminf: dict | None


def parse_experiment(doc, seed_override: int | None = None) -> Experiment:
    """Validate the raw JSON config and build the experiment objects.

    Every violation raises ConfigError naming the offending field path.
    """
    top = _as_dict(doc, "config")
    _no_extras(
        top,
        ("space", "problem", "algorithm", "x0", "schedule", "ensemble", "audit"),
        "config",
    )

    space = _need(top, "space", "config")
    if space not in _SPACES:
        raise ConfigError(f"config.space: expected one of {_SPACES}, got {space!r}")

    try:
        problem = problem_from_spec(_as_dict(_need(top, "problem", "config"), "config.problem"))
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config.problem: {exc}") from exc
    if problem.space != space:
        raise ConfigError(
            f"config.space: {space!r} does not match the problem's space {problem.space!r}"
        )

    algorithm = _need(top, "algorithm", "config")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(
            f"config.algorithm: expected one of {_ALGORITHMS}, got {algorithm!r}"
        )

    try:
        x0 = point_from_spec(_as_dict(_need(top, "x0", "config"), "config.x0"))
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config.x0: {exc}") from exc
    if space_of(x0) != space:
        raise ConfigError(
            f"config.x0: point lies in {space_of(x0)!r}, config.space is {space!r}"
        )

    try:
        sched = schedule_from_spec(
            _as_dict(_need(top, "schedule", "config"), "config.schedule")
        )
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config.schedule: {exc}") from exc

    ens = _as_dict(_need(top, "ensemble", "config"), "config.ensemble")
    _no_extras(ens, ("paths", "horizon", "seed", "threads"), "config.ensemble")
    paths = _as_int(_need(ens, "paths", "config.ensemble"), "config.ensemble.paths", lo=1)
    horizon = _as_int(
        _need(ens, "horizon", "config.ensemble"), "config.ensemble.horizon", lo=0
    )
    seed = _as_int(
        _need(ens, "seed", "config.ensemble"), "config.ensemble.seed", lo=0, hi=2**64 - 1
    )
    threads = _as_int(ens.get("threads", 1), "config.ensemble.threads", lo=1)

    epsilons: tuple[float, ...] = ()
    lam = None
    fast_params = fast = None
    liminf = None
    if "audit" in top:
        aud = _as_dict(top["audit"], "config.audit")
        _no_extras(aud, ("epsilons", "lambda", "fast", "liminf"), "config.audit")
        raw_eps = _need(aud, "epsilons", "config.audit")
        if not isinstance(raw_eps, list):
            raise ConfigError("config.audit.epsilons: expected a list of numbers")
        epsilons = tuple(
            _as_float(e, f"config.audit.epsilons[{i}]") for i, e in enumerate(raw_eps)
        )
        if any(not e > 0.0 for e in epsilons):
            raise ConfigError("config.audit.epsilons: thresholds must be > 0")
        if len(set(epsilons)) != len(epsilons):
            raise ConfigError("config.audit.epsilons: thresholds must be distinct")
        if "lambda" in aud:
            lam = _as_float(aud["lambda"], "config.audit.lambda")
            if not 0.0 < lam < 1.0:
                raise ConfigError(
                    f"config.audit.lambda: must lie in (0,1), got {lam}"
                )
        if "fast" in aud:
            fd = _as_dict(aud["fast"], "config.audit.fast")
            _no_extras(fd, ("c", "r"), "config.audit.fast")
            fast_params = (
                _as_float(_need(fd, "c", "config.audit.fast"), "config.audit.fast.c"),
                _as_int(_need(fd, "r", "config.audit.fast"), "config.audit.fast.r", lo=1),
            )
            if not fast_params[0] > 1.0:
                raise ConfigError(f"config.audit.fast.c: must be > 1, got {fast_params[0]}")
            if algorithm != "skm":
                raise ConfigError(
                    "config.audit.fast: fast-rate audits are defined for algorithm 'skm'"
                )
        if "liminf" in aud:
            ld = _as_dict(aud["liminf"], "config.audit.liminf")
            _no_extras(ld, ("epsilon", "start"), "config.audit.liminf")
            eps_l = _as_float(
                _need(ld, "epsilon", "config.audit.liminf"), "config.audit.liminf.epsilon"
            )
            if not eps_l > 0.0:
                raise ConfigError(
                    f"config.audit.liminf.epsilon: must be > 0, got {eps_l}"
                )
            start = _as_int(
                _need(ld, "start", "config.audit.liminf"),
                "config.audit.liminf.start",
                lo=0,
            )
            liminf = {"epsilon": eps_l, "start": start}
        if fast_params is not None and liminf is not None:
            raise ConfigError("config.audit: choose at most one of 'fast' and 'liminf'")

    if seed_override is not None:
        if not 0 <= seed_override < 2**64:
            raise ConfigError(
                f"--seed-override: must be an unsigned 64-bit integer, got {seed_override}"
            )
        seed = seed_override

    # Cross-field validity (algorithm/problem/schedule/start point).
    try:
        validate_run(problem, algorithm, sched, x0)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc

    thresholds = epsilons
    if fast_params is not None:
        try:
            fast, sched = fast_certificate_skm(problem, *fast_params, x0)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config.audit.fast: {exc}") from exc
        thresholds = tuple(math.sqrt(e) for e in epsilons)

    return Experiment(
        space=space,
        problem=problem,
        algorithm=algorithm,
        sched=sched,
        x0=x0,
        paths=paths,
        horizon=horizon,
        seed=seed,
        threads=threads,
        epsilons=epsilons,
        thresholds=thresholds,
        lam=lam,
        fast=fast,
        liminf=liminf,
    )


# ---------------------------------------------------------------------------
# Experiment assembly helpers
# ---------------------------------------------------------------------------


def _run_stats(exp: Experiment) -> EnsembleStats:
    return run_ensemble(
        exp.problem,
        exp.algorithm,
        exp.sched,
        exp.x0,
        exp.paths,
        exp.horizon,
        exp.seed,
        exp.thresholds,
        threads=exp.threads,
    )


def _audit_check(exp: Experiment):
    """The configured audit, as a function of the ensemble statistics.  It
    builds the rate certificate or the gap window now, so a missing modulus
    fails (exit 5) before any ensemble work."""
    if exp.fast is not None:
        return lambda stats: fast_audit(stats, exp.fast, exp.epsilons)
    if exp.liminf is not None:
        phi = gap_window(exp.problem, exp.algorithm, exp.sched, exp.x0)
        return lambda stats: liminf_audit(
            stats, phi, exp.liminf["epsilon"], exp.liminf["start"]
        )
    if exp.lam is None:
        raise ConfigError("config.audit.lambda: required for certificate audits")
    if not exp.epsilons:
        raise ConfigError("config.audit.epsilons: at least one threshold required")
    # Looked up by module attribute, so a wrapper bound to it sees the call.
    certificate = getattr(algorithms, f"certificate_{exp.algorithm}")
    try:
        cert = certificate(exp.problem, exp.sched, exp.x0)
    except NoModulusKnownError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    return lambda stats: certificate_audit(stats, cert, exp.epsilons, exp.lam)


def _print_records(report: AuditReport, details) -> dict[str, int]:
    """One PASS/FAIL/UNCHECKED line per record, ``details(record)`` after
    the threshold, then the record's note; returns the count per status."""
    counts = {"PASS": 0, "FAIL": 0, "UNCHECKED": 0}
    for r in report.records:
        status = {True: "PASS", False: "FAIL", None: "UNCHECKED"}[r.bound_satisfied]
        counts[status] += 1
        name = _CHECK_NAMES.get(r.criterion, r.criterion)
        print(f"[{status}] {name}: eps={r.epsilon:g}{details(r)}")
        print(f"    {r.note}")
    return counts


def _audit_details(r: AuditRecord) -> str:
    obs = "n/a" if r.observed_value_at_index is None else f"{r.observed_value_at_index:.6g}"
    margin = "n/a" if r.mc_margin is None else f"{r.mc_margin:.6g}"
    return f" index={_index_label(r.predicted_index)} observed={obs} margin={margin}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(exp: Experiment) -> int:
    """Run the geometry suites for the configured space; exit 0/2."""
    summary = geometry_suite(exp.space, seed=exp.seed)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if summary["pass"] else EXIT_GEOMETRY


def cmd_run(exp: Experiment, out_prefix: str) -> int:
    stats = _run_stats(exp)
    for path in export_results(stats, None, out_prefix):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_audit(exp: Experiment, out_prefix: str, curves_path: str | None = None) -> int:
    check = _audit_check(exp)
    if curves_path is not None:
        try:
            cols = load_curves(curves_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--curves {curves_path}: {exc}") from exc
        stats = stats_from_curves(
            cols, exp.algorithm, exp.space, exp.paths, exp.seed
        )
        missing = [t for t in exp.thresholds if t not in stats.tail]
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

    header = (
        f"fejerlab report: kind={report.kind} algorithm={report.algorithm} "
        f"paths={report.paths} horizon={report.horizon}"
    )
    if report.lam is not None:
        header += f" lambda={report.lam:g}"
    print(header)
    if not report.records:
        return EXIT_OK

    def details(r: AuditRecord) -> str:
        line = f" predicted index {_index_label(r.predicted_index)}"
        if r.predicted_index <= horizon:
            idx = r.predicted_index
            if r.criterion in ("mean", "fast_mean_envelope"):
                curve = cols["mean_dist" if r.criterion == "mean" else "mean_sq_dist"][idx]
                line += f" | curve value there {curve:.6g}"
            elif r.criterion == "gap_window":
                line += f" | mean gap at window end {cols['mean_gap'][idx]:.6g}"
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
