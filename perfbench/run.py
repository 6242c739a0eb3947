#!/usr/bin/env python3
"""fejerlab benchmark: the CLI pipeline a user of run_experiments.py runs.

Usage, from the root of a fejerlab checkout:

    python3 perfbench/run.py --workload euclid-skm --seed 1 --seconds 30 --trace 0

The workload's config is generated from ``--seed`` (see ``workloads.py``).
One rep of the pipeline is ``fejerlab validate``, ``fejerlab audit``,
``fejerlab audit --curves`` (re-audits the CSV the audit wrote, so export's
write and read paths are both measured) and ``fejerlab report``, each in a
fresh interpreter on the sources under ``src/``.  Closed loop, one process
at a time.

``--trace 0`` repeats the pipeline for about ``--seconds`` (at least one
rep) and reports the mean of each figure over the reps.  Before each rep it
times ``setup_s`` once: a cold interpreter importing ``fejerlab.cli`` and
parsing the config; ``setup_s`` is the median of those samples.  The
machine's speed varies by about 16 % from one rep to the next, with little
correlation between reps, so every figure averages samples spread over the
whole run.  Over the reps of a run the mean is the steadier estimate: in a
bootstrap of about 50 measured reps per workload its spread was about 0.75
times the median's.  The speed also drifts by up to a fifth over minutes,
so before and after each rep the run times a reference process of fixed
work (``REFERENCE_CODE``) and reports every timing scaled to the speed at
which the reference takes ``REFERENCE_NOMINAL_S``; the measured timings and
the reference are printed too.
``error_rate`` (failed / attempted operations) is printed with the
metrics; it is 0 on a correct program, so it is not a bounded metric of
``BENCHMARK.json``.  ``--trace 1`` runs one untraced audit, then
the pipeline once under the tracer (``traced_cli.py``), then the untraced
layer probes (``layers.py``), and reports the per-layer metrics.  Each
per-layer value is the total over the traced pipeline's four processes.

Every operation is checked: each command's exit code; in ``audit.json``
no FAIL record and at least one PASS record, and on a gap-window audit a
PASS (an observed witness) on every record; the re-audit's ``audit.json``
byte-identical to the audit's; the report footer ``0 failed``;
``curves.csv`` byte-identical across the reps of a run (and between the
traced and untraced audit); and on the pooled workloads, once per run, the
curves of 1 thread against the config's thread count and those of the
vector kernel against the scalar kernel on ``KERNEL_CHECK_PATHS`` paths.
Each failed check counts in ``failed`` and in ``error_rate``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without fejerlab
sources under ``src/`` the benchmark exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import POOLED, WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# A run must end within 180 s; no single command may eat all of it.
COMMAND_TIMEOUT_S = 150.0
# Paths of the vector-against-scalar kernel check: the scalar kernel runs
# about 50 us per path step.
KERNEL_CHECK_PATHS = 32

SETUP_CODE = (
    "import json, sys\n"
    "import fejerlab.cli as cli\n"
    "with open(sys.argv[1]) as fh:\n"
    "    cli.parse_experiment(json.load(fh))\n"
)

# The machine-speed reference: a fresh interpreter doing fixed work that does
# not depend on the program (third-party imports, a pure-Python loop and
# numpy arithmetic), like the commands it is interleaved with.
REFERENCE_CODE = (
    "import numpy, mpmath\n"
    "s = 0.0\n"
    "for i in range(300000):\n"
    "    s += (i * 0.5) ** 0.5 if i % 3 else -1.0\n"
    "a = numpy.arange(200000, dtype=float)\n"
    "for _ in range(40):\n"
    "    a = numpy.sqrt(a * a + 1.0)\n"
)
# The reference's wall time on the machine the benchmark was defined on (2
# vCPUs of a shared Intel Xeon host, Python 3.11.7, numpy 1.26): timings
# are reported at this speed.
REFERENCE_NOMINAL_S = 0.45

# Exits 0 when the vector and the scalar kernel give byte-identical curves.
KERNEL_CHECK_CODE = (
    "import json, sys\n"
    "from fejerlab.cli import parse_experiment\n"
    "from fejerlab.harness import curves_csv_text, run_ensemble\n"
    "with open(sys.argv[1]) as fh:\n"
    "    exp = parse_experiment(json.load(fh))\n"
    "def curves(kernel):\n"
    "    return curves_csv_text(run_ensemble(\n"
    "        exp.problem, exp.algorithm, exp.sched, exp.x0, exp.paths, exp.horizon,\n"
    "        exp.seed, exp.epsilons, threads=1, kernel=kernel))\n"
    "sys.exit(0 if curves('vector') == curves('scalar') else 1)\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "validate_s": "s",
    "audit_s": "s",
    "reaudit_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LEAF_METRICS = (
    "rng.uniforms",
    "rng.categorical",
    "rng.next_uniform",
    "spaces.distance",
    "spaces.geodesic_point",
    "spaces.project_convex",
    "problems.sample_index",
    "problems.prox_step",
    "problems.dist_to_solutions",
    "problems.gap_F",
)
_WITNESS_PROBE = ("20", "200", "600", "800")

PER_LAYER = {
    **{f"{m}.{k}": u for m in _LEAF_METRICS for k, u in (("calls", "count"), ("self_s", "s"))},
    "spaces.geometry_suite.s": "s",
    "moduli.divergence_witness_theta.calls": "count",
    "moduli.divergence_witness_theta.s": "s",
    "moduli.tail_rate_chi.calls": "count",
    "moduli.tail_rate_chi.s": "s",
    "moduli.schedule_value.calls": "count",
    **{f"moduli.divergence_witness_theta.probe_b{b}_s": "s" for b in _WITNESS_PROBE},
    "moduli.divergence_witness_theta.failed": "count",
    "algorithms.certificate.s": "s",
    "harness.run_ensemble.s": "s",
    "harness.run_ensemble.self_s": "s",
    "harness.run_ensemble.cpu_s": "s",
    "harness.run_ensemble.cpu_util": "ratio",
    "harness.chunk_bytes": "bytes-computed",
    "harness.run_ensemble.s.threads1": "s",
    "harness.thread_speedup": "ratio",
    "harness.export_results.s": "s",
    "harness.export_results.bytes": "bytes",
    "harness.load_curves.s": "s",
    "harness.certificate_audit.s": "s",
    "harness.liminf_witness_check.s": "s",
    "cli.import_s": "s",
    "cli.parse_experiment.s": "s",
    "trace.overhead_s": "s",
}

_FOOTER = re.compile(r"^checks: \d+ passed, (\d+) failed, \d+ unchecked$")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    out: str


def child_env() -> dict:
    """The program's sources only, and one BLAS thread so that a process
    never runs more threads than the config asks for."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_proc(args: list[str], workdir: Path, tag: str) -> Proc:
    """Run one process to its end; wall time, CPU and peak RSS from wait4."""
    out_path = workdir / f"{tag}.out"
    with open(out_path, "w") as out, open(workdir / f"{tag}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            args, stdout=out, stderr=err, env=child_env(), cwd=workdir
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        out=out_path.read_text(),
    )


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "fejerlab.cli", *args]


def untraced_command(step: str, *args: str) -> list[str]:
    return cli_command(*args)


def traced_command(traces: dict[str, Path]):
    """Each step runs under its own tracer and writes its own trace file."""

    def command(step: str, *args: str) -> list[str]:
        return [sys.executable, str(BENCH / "traced_cli.py"), str(traces[step]), "--", *args]

    return command


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checks:
    """Counts operations and the ones whose outcome was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def validate_ok(proc: Proc) -> bool:
    try:
        return proc.rc == 0 and json.loads(proc.out)["pass"] is True
    except (ValueError, KeyError, TypeError):
        return False


def audit_ok(proc: Proc, prefix: Path, doc: dict) -> bool:
    """Exit 0, records that were checked and held, and outputs of the
    configured shape.

    A record is PASS (True), FAIL (False) or UNCHECKED (None, its index lies
    beyond the horizon).  A rate audit must have no FAIL and at least one
    PASS; a gap-window audit can only FAIL once its window ends within the
    horizon, so each of its records must be PASS, a witness seen.
    """
    if proc.rc != 0:
        return False
    ens = doc["ensemble"]
    try:
        report = json.loads(Path(f"{prefix}audit.json").read_text())
        with open(f"{prefix}curves.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        verdicts = [r["bound_satisfied"] for r in report["records"]]
        if report["kind"] == "liminf":
            held = bool(verdicts) and all(v is True for v in verdicts)
        else:
            held = False not in verdicts and True in verdicts
        return (
            held
            and report["paths"] == ens["paths"]
            and report["horizon"] == ens["horizon"]
            and rows == ens["horizon"] + 1
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False


def report_ok(proc: Proc) -> bool:
    lines = proc.out.strip().splitlines()
    m = _FOOTER.match(lines[-1]) if lines else None
    return proc.rc == 0 and m is not None and m.group(1) == "0"


def pipeline(command, cfg: Path, prefix: Path, doc: dict, workdir: Path, checks: Checks, tag: str) -> dict:
    """One validate / audit / re-audit / report rep, checked; returns each Proc."""
    # Outputs of an earlier rep must not pass for this rep's.
    for stale in prefix.parent.glob(f"{prefix.name}*"):
        stale.unlink()
    steps = {
        "validate": ("validate", "--config", str(cfg)),
        "audit": ("audit", "--config", str(cfg), "--out", str(prefix)),
        "reaudit": (
            "audit", "--config", str(cfg), "--out", f"{prefix}re_",
            "--curves", f"{prefix}curves.csv",
        ),
        "report": ("report", "--config", str(cfg), "--out", str(prefix)),
    }
    procs = {
        step: run_proc(command(step, *args), workdir, f"{tag}{step}")
        for step, args in steps.items()
    }
    checks.record(validate_ok(procs["validate"]), f"{tag}validate")
    checks.record(audit_ok(procs["audit"], prefix, doc), f"{tag}audit")
    audit_json = sha256(Path(f"{prefix}audit.json"))
    checks.record(
        procs["reaudit"].rc == 0
        and audit_json is not None
        and sha256(Path(f"{prefix}re_audit.json")) == audit_json,
        f"{tag}reaudit",
    )
    checks.record(report_ok(procs["report"]), f"{tag}report")
    return procs


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def write_config(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def warm_up(cfg: Path, workdir: Path) -> None:
    """Let the interpreter write bytecode before anything is timed."""
    run_proc([sys.executable, "-c", SETUP_CODE, str(cfg)], workdir, "warmup")


def run_untraced(doc: dict, pooled: bool, seconds: float, workdir: Path) -> tuple[dict, Checks]:
    checks = Checks()
    cfg = write_config(doc, workdir / "config.json")
    warm_up(cfg, workdir)
    prefix = workdir / "out_"
    setup, reference, reps, curves = [], [], [], []

    def sample_reference() -> None:
        proc = run_proc([sys.executable, "-c", REFERENCE_CODE], workdir, f"ref{len(reference)}")
        checks.record(proc.rc == 0, f"ref{len(reference)}")
        reference.append(proc.wall_s)

    t0 = time.perf_counter()
    while True:
        # Set-up and reference samples are spread over the run like the
        # reps, so that they see the same phases of the machine.
        sample_reference()
        proc = run_proc([sys.executable, "-c", SETUP_CODE, str(cfg)], workdir, f"setup{len(setup)}")
        checks.record(proc.rc == 0, f"setup{len(setup)}")
        setup.append(proc.wall_s)
        reps.append(pipeline(untraced_command, cfg, prefix, doc, workdir, checks, f"rep{len(reps)}_"))
        curves.append(sha256(Path(f"{prefix}curves.csv")))
        sample_reference()
        # Start another rep while it is expected to end within half a rep
        # of the budget, so that a run measures about `seconds` on average.
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(reps) / 2 > seconds:
            break
    for i, digest in enumerate(curves[1:], start=1):
        checks.record(digest is not None and digest == curves[0], f"rep{i} curves differ")

    if pooled:
        one = copy.deepcopy(doc)
        one["ensemble"]["threads"] = 1
        cfg1 = write_config(one, workdir / "config_threads1.json")
        proc = run_proc(cli_command("run", "--config", str(cfg1), "--out", f"{prefix}t1_"), workdir, "threads1")
        checks.record(
            proc.rc == 0 and sha256(Path(f"{prefix}t1_curves.csv")) == curves[0],
            "threads1 curves differ",
        )
        few = copy.deepcopy(doc)
        few["ensemble"]["paths"] = KERNEL_CHECK_PATHS
        cfg_few = write_config(few, workdir / "config_kernels.json")
        proc = run_proc([sys.executable, "-c", KERNEL_CHECK_CODE, str(cfg_few)], workdir, "kernels")
        checks.record(proc.rc == 0, "vector kernel curves differ from scalar")

    def mean(f) -> float:
        return statistics.fmean(f(rep) for rep in reps)

    ens = doc["ensemble"]
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": mean(lambda r: sum(p.wall_s for p in r.values())),
        "validate_s": mean(lambda r: r["validate"].wall_s),
        "audit_s": mean(lambda r: r["audit"].wall_s),
        "reaudit_s": mean(lambda r: r["reaudit"].wall_s),
        # Printed, not reported: on the pooled workload the CPU that the
        # threads spend handing the interpreter lock to each other swings
        # with the host's load, by up to a fifth between runs.
        "cpu_s": mean(lambda r: r["audit"].cpu_s),
    }
    # The machine's speed changes by up to a fifth from one minute to the
    # next, which no run of a minute averages out; every timing is scaled
    # to the speed at which the reference takes REFERENCE_NOMINAL_S.
    speed = REFERENCE_NOMINAL_S / statistics.fmean(reference)
    metrics = {name: value * speed for name, value in measured.items() if name in END_TO_END}
    metrics["path_steps_per_s"] = ens["paths"] * ens["horizon"] / metrics["audit_s"]
    metrics["peak_rss_mb"] = mean(lambda r: r["audit"].peak_rss_mb)
    print(f"reps: {len(reps)}; setup samples: {len(setup)}; reference samples: {len(reference)}")
    print(f"reference_s = {statistics.fmean(reference):.6g} s (speed factor {speed:.6g})")
    for name, value in measured.items():
        print(f"measured {name} = {value:.6g} s")
    return metrics, checks


def _sum_traces(paths: list[Path]) -> dict:
    """Totals over the traced processes: {metric: {field: value}}."""
    total: dict[str, dict] = {"import_s": 0.0}
    for path in paths:
        with open(path) as fh:
            trace = json.load(fh)
        total["import_s"] += trace["import_s"]
        for kind in ("leaves", "spans"):
            for metric, rec in trace[kind].items():
                acc = total.setdefault(metric, dict.fromkeys(rec, 0))
                for k, v in rec.items():
                    acc[k] += v
    return total


def run_traced(doc: dict, workdir: Path) -> tuple[dict, Checks]:
    checks = Checks()
    cfg = write_config(doc, workdir / "config.json")
    warm_up(cfg, workdir)

    base_prefix = workdir / "base_"
    base = run_proc(cli_command("audit", "--config", str(cfg), "--out", str(base_prefix)), workdir, "base_audit")
    checks.record(audit_ok(base, base_prefix, doc), "untraced audit")

    traces = {step: workdir / f"trace_{step}.json" for step in ("validate", "audit", "reaudit", "report")}
    prefix = workdir / "traced_"
    procs = pipeline(traced_command(traces), cfg, prefix, doc, workdir, checks, "traced_")
    checks.record(
        sha256(Path(f"{prefix}curves.csv")) == sha256(Path(f"{base_prefix}curves.csv")),
        "traced curves differ from untraced",
    )
    tr = _sum_traces([p for p in traces.values() if p.exists()])

    probe_proc = run_proc([sys.executable, str(BENCH / "layers.py"), str(cfg)], workdir, "layers")
    try:
        probe = json.loads(probe_proc.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        probe = None
    if not checks.record(probe_proc.rc == 0 and probe is not None, "layer probe"):
        probe = {"threads1_s": 0.0, "threads_s": 0.0, "chunk_bytes": 0,
                 "witness_s": {}, "witness_errors": {}}
    for budget, error in probe["witness_errors"].items():
        print(f"witness probe: budget {budget} failed: {error}")

    def get(metric: str, field: str) -> float:
        return tr.get(metric, {}).get(field, 0)

    ens = get("harness.run_ensemble", "s")
    metrics = {}
    for m in _LEAF_METRICS:
        metrics[f"{m}.calls"] = get(m, "calls")
        metrics[f"{m}.self_s"] = get(m, "self_s")
    metrics.update({
        "spaces.geometry_suite.s": get("spaces.geometry_suite", "s"),
        "moduli.divergence_witness_theta.calls": get("moduli.divergence_witness_theta", "calls"),
        "moduli.divergence_witness_theta.s": get("moduli.divergence_witness_theta", "s"),
        "moduli.tail_rate_chi.calls": get("moduli.tail_rate_chi", "calls"),
        "moduli.tail_rate_chi.s": get("moduli.tail_rate_chi", "s"),
        "moduli.schedule_value.calls": get("moduli.schedule_value", "calls"),
        **{
            f"moduli.divergence_witness_theta.probe_b{b}_s": probe["witness_s"].get(b, 0.0)
            for b in _WITNESS_PROBE
        },
        "moduli.divergence_witness_theta.failed": len(probe["witness_errors"]),
        "algorithms.certificate.s": get("algorithms.certificate", "s"),
        "harness.run_ensemble.s": ens,
        "harness.run_ensemble.self_s": get("harness.run_ensemble", "self_s"),
        "harness.run_ensemble.cpu_s": get("harness.run_ensemble", "cpu_s"),
        "harness.run_ensemble.cpu_util": get("harness.run_ensemble", "cpu_s") / ens if ens else 0.0,
        "harness.chunk_bytes": probe["chunk_bytes"],
        "harness.run_ensemble.s.threads1": probe["threads1_s"],
        "harness.thread_speedup": probe["threads1_s"] / probe["threads_s"] if probe["threads_s"] else 0.0,
        "harness.export_results.s": get("harness.export_results", "s"),
        "harness.export_results.bytes": sum(
            Path(f"{prefix}{name}").stat().st_size
            for name in ("curves.csv", "audit.json")
            if Path(f"{prefix}{name}").exists()
        ),
        "harness.load_curves.s": get("harness.load_curves", "s"),
        "harness.certificate_audit.s": get("harness.certificate_audit", "s"),
        "harness.liminf_witness_check.s": get("harness.liminf_witness_check", "s"),
        "cli.import_s": tr["import_s"],
        "cli.parse_experiment.s": get("cli.parse_experiment", "s"),
        "trace.overhead_s": procs["audit"].wall_s - base.wall_s,
    })
    return metrics, checks


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running command is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fejerlab" / "cli.py").is_file():
        print(f"perfbench: no fejerlab sources under {SRC}", file=sys.stderr)
        return 2

    doc = make_config(args.workload, args.seed)
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            units = PER_LAYER
            metrics, checks = run_traced(doc, workdir)
        else:
            units = END_TO_END
            metrics, checks = run_untraced(doc, args.workload in POOLED, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, config ensemble {doc['ensemble']}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        f"error_rate = {checks.failed / checks.attempted:.6g} "
        f"({checks.failed} of {checks.attempted} operations failed)"
    )
    for note in checks.notes:
        print(f"failed: {note}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
