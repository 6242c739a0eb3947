#!/usr/bin/env python3
"""End-to-end timing of `fejerlab audit` on the four shipped configs.

Each config runs through `fejerlab audit` ``AUDIT_RUNS`` (3) times, each in
a fresh child interpreter with ``PYTHONPATH`` set to the chosen source
tree.  The configs come from the ``scripts/`` directory beside that tree,
so a parent checkout runs with its own configs.  Per config the script
records the median wall time as ``wall_s`` and every run's as
``wall_s_runs``, the median peak RSS of the child as ``peak_rss_mb`` and
every run's as ``peak_rss_mb_runs`` (from the rusage the kernel keeps for
the waited-for child, as ``resource.getrusage(RUSAGE_CHILDREN)`` reports
it, but for that child alone), and from the first run the highest number
of threads the child ran at once (sampled from /proc every 20 ms), the exit
code and the SHA-256 of the written ``curves.csv`` and ``audit.json``.
Runs of one config whose curves or audit digests differ make the script
exit 1.  Each config also runs once
through `fejerlab validate`, whose exit code, wall time and SHA-256 of
standard output (the geometry suite's residuals) are recorded, so a
geometry change that moves a residual shows up.  The written curves are then re-audited
(`fejerlab audit --curves`), recording the exit code, wall time and the
SHA-256 of the re-audit's ``audit.json``, and summarized by `fejerlab
report`, recording its exit code, wall time and SHA-256 of standard output.

Each run also records ``src_lines``, the line count of the tree's
``fejerlab/*.py`` (what ``wc -l src/fejerlab/*.py`` totals), with
``src_lines_by_module`` (file name -> lines) beside it, and
``import_s``, the median wall time of 5 fresh interpreters that only run
``import fejerlab.cli`` with the audits' ``PYTHONPATH`` and environment (the
fixed cost every command pays before it starts), with all 5 as
``import_s_runs``.  Each run also records
``tier1_s``, the wall time of one run of the Tier-1 suite (``python -m
pytest -q --continue-on-collection-errors`` in the tree's root, with the
tree's ``src`` first on ``PYTHONPATH``), and ``tier1_counts``, the outcome
counts as its summary line names them (passed, failed, error, ...).  The
benchmark's own self-tests (``python -m pytest perfbench/test_perfbench.py``,
run the same way) record their outcome counts as
``perfbench_selftest_counts``.  The script exits 1 when any command or the
Tier-1 suite exits nonzero, or when a config's audits disagree; the
self-tests' outcome does not change it.

Results go under ``runs.<label>`` of the output JSON; other labels already
in the file are kept, so before and after numbers can share one file:

    python3 scripts/bench.py --src /path/to/parent/src --label before --out BENCH_<n>.json
    python3 scripts/bench.py --label after --out BENCH_<n>.json

Against each other label already in the file, the run prints every one of
its five digests per config (curves, audit, re-audit, validate stdout and
report stdout) that differs, then how many of them differ, then each
config's audit wall time and peak RSS, ``import_s`` and ``tier1_s`` beside
that label's with their ratio (this run's over that label's), an audit,
peak-RSS or import ratio marked "within noise" when the two runs' ranges of
those figures (least to largest of ``wall_s_runs``, ``peak_rss_mb_runs`` or
``import_s_runs``, or the one figure of a run that predates them) overlap,
then each module's line count beside that label's and the difference (when
that label's run recorded them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
AUDIT_RUNS = 3
CONFIGS = (
    "flagship_skm.json",
    "fast_skm.json",
    "tripod_sppa_liminf.json",
    "segment_sb_liminf.json",
)


def _sha256(path: pathlib.Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _tree_digest(src: pathlib.Path) -> str:
    """SHA-256 over the tree's Python files (names and bytes), to tell
    measured trees apart without recording where they lay."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _src_lines_by_module(src: pathlib.Path) -> dict[str, int]:
    """Newlines in each of the package's modules, as ``wc -l`` counts them."""
    modules = sorted((src / "fejerlab").glob("*.py"))
    return {path.name: path.read_bytes().count(b"\n") for path in modules}


def _thread_sampler(pid: int, peak: list[int], done: threading.Event) -> None:
    status = pathlib.Path(f"/proc/{pid}/status")
    while not done.is_set():
        try:
            for line in status.read_text().splitlines():
                if line.startswith("Threads:"):
                    peak[0] = max(peak[0], int(line.split()[1]))
        except OSError:
            return
        done.wait(0.02)


def run_audit(src: pathlib.Path, config: pathlib.Path, outdir: pathlib.Path) -> dict:
    """One `fejerlab audit` in a child process; its time, memory and outputs."""
    prefix = outdir / (config.stem + "_")
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "fejerlab.cli", "audit", "--config", str(config), "--out", str(prefix)]
    # stderr goes to a file, not a pipe: the parent reads it only after the
    # child exits, and a full pipe would block the child.
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        peak_threads, done = [0], threading.Event()
        sampler = threading.Thread(target=_thread_sampler, args=(proc.pid, peak_threads, done))
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        done.set()
        sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(max(0, err.seek(0, os.SEEK_END) - 500))
        stderr_tail = err.read().decode(errors="replace")
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "peak_os_threads": peak_threads[0],
        "curves_sha256": _sha256(pathlib.Path(f"{prefix}curves.csv")),
        "audit_sha256": _sha256(pathlib.Path(f"{prefix}audit.json")),
        "stderr_tail": stderr_tail,
    }


def run_cli(src: pathlib.Path, *args: str) -> dict:
    """One `fejerlab <args>` in a child process; its exit code and output digest."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "fejerlab.cli", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
    return {
        "exit_code": proc.returncode,
        "wall_s": time.perf_counter() - t0,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def import_seconds(src: pathlib.Path, runs: int = 5) -> list[float]:
    """Wall times of ``runs`` fresh interpreters importing fejerlab.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fejerlab.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pytest(src: pathlib.Path, *args: str) -> tuple[float, dict[str, int], int]:
    """Wall time, outcome counts (e.g. {"passed": 476}) and exit code of one
    pytest run in the tree's root (the Tier-1 suite without ``args``)."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=src.parent, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    # "3 failed, 473 passed, 1 error in 71.91s (0:01:11)": count, outcome pairs.
    words = summary.strip("= ").split(" in ")[0].replace(",", "").split()
    counts = {words[i + 1]: int(words[i]) for i in range(0, len(words) - 1, 2) if words[i].isdigit()}
    return wall, counts, proc.returncode


# The digests of one config's result, by name.
DIGESTS = {
    "curves": lambda res: res.get("curves_sha256"),
    "audit": lambda res: res.get("audit_sha256"),
    "re-audit": lambda res: res.get("reaudit", {}).get("audit_sha256"),
    "validate stdout": lambda res: res.get("validate", {}).get("stdout_sha256"),
    "report stdout": lambda res: res.get("report", {}).get("stdout_sha256"),
}


def print_digest_diffs(results: dict, label: str, other: dict) -> None:
    """Print each digest of ``results`` that differs from the run ``other``
    (recorded under ``label``), then their count."""
    diffs = [
        f"{name}: {kind}"
        for name, res in results.items()
        for kind, digest in DIGESTS.items()
        if digest(res) != digest(other.get(name, {}))
    ]
    for diff in diffs:
        print(f"differs from {label!r}: {diff}")
    print(f"{len(diffs)} of {len(results) * len(DIGESTS)} digests differ from {label!r}")


def _range(run: dict, key: str) -> tuple[float, float]:
    """The least and largest of a run's figures of ``key``: its
    ``<key>_runs``, or the one ``key`` of a run that predates them."""
    times = run.get(f"{key}_runs") or [run[key]]
    return min(times), max(times)


def _noise(now: dict, before: dict, key: str) -> str:
    """", within noise" when the two runs' ranges of ``key`` overlap."""
    (lo, hi), (lo_b, hi_b) = _range(now, key), _range(before, key)
    return ", within noise" if lo <= hi_b and lo_b <= hi else ""


def print_ratios(run: dict, label: str, other: dict) -> None:
    """Print each config's audit wall time and peak RSS, the import time
    and the Tier-1 time of ``run`` beside the ones recorded under ``label``
    (the run ``other``), with their ratio; an audit's, a peak RSS's or the
    import's ratio is "within noise" when the two ranges of its figures
    overlap."""
    rows = []
    for name, res in run["configs"].items():
        before = other["configs"].get(name, {})
        for key, what, unit in (("wall_s", "audit", "s"), ("peak_rss_mb", "audit peak RSS", "MB")):
            if before.get(key):
                rows.append((f"{name} {what}", unit, res[key], before[key], _noise(res, before, key)))
    if other.get("import_s"):
        rows.append(("import fejerlab.cli", "s", run["import_s"], other["import_s"], _noise(run, other, "import_s")))
    if other.get("tier1_s"):
        rows.append(("tier-1 suite", "s", run["tier1_s"], other["tier1_s"], ""))
    for what, unit, now, before, noise in rows:
        print(f"{what}: {before:.3f} {unit} in {label!r}, {now:.3f} {unit} now (ratio {now / before:.3f}{noise})")


def print_line_deltas(lines: dict[str, int], label: str, other: dict[str, int]) -> None:
    """Print each module's line count beside the one recorded under
    ``label`` (``other``; a module missing there counts 0), and the change."""
    for name in sorted(lines.keys() | other.keys()):
        before, after = other.get(name, 0), lines.get(name, 0)
        print(f"{name}: {before} lines in {label!r}, {after} now ({after - before:+d})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(HERE.parent / "src"), help="source tree to run; its ../scripts holds the configs"
    )
    parser.add_argument("--label", required=True, help="name of this run in the output")
    parser.add_argument("--out", required=True, help="output JSON, e.g. BENCH_<n>.json (merged)")
    args = parser.parse_args(argv)

    src = pathlib.Path(args.src).resolve()
    results = {}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            config = src.parent / "scripts" / name
            runs = [run_audit(src, config, pathlib.Path(tmp)) for _ in range(AUDIT_RUNS)]
            res = results[name] = runs[0]
            for key in ("wall_s", "peak_rss_mb"):
                res[f"{key}_runs"] = [r[key] for r in runs]
                res[key] = statistics.median(res[f"{key}_runs"])
            failed |= any(r["exit_code"] for r in runs)
            if len({(r["curves_sha256"], r["audit_sha256"]) for r in runs}) > 1:
                print(f"{name}: the {AUDIT_RUNS} audits wrote different curves or audit files")
                failed = True
            res["validate"] = run_cli(src, "validate", "--config", str(config))
            prefix = f"{pathlib.Path(tmp) / config.stem}_"
            reaudit = res["reaudit"] = run_cli(
                src, "audit", "--config", str(config), "--out", f"{prefix}re_",
                "--curves", f"{prefix}curves.csv",
            )
            # Its stdout names the temporary directory; the file digest does not.
            del reaudit["stdout_sha256"]
            reaudit["audit_sha256"] = _sha256(pathlib.Path(f"{prefix}re_audit.json"))
            res["report"] = run_cli(src, "report", "--config", str(config), "--out", prefix)
            codes = [res["exit_code"]] + [res[k]["exit_code"] for k in ("validate", "reaudit", "report")]
            failed |= any(codes)
            print(
                f"{name}: wall {res['wall_s']:.2f} s (median of {AUDIT_RUNS}), peak RSS {res['peak_rss_mb']:.1f} MB (median), "
                f"exit codes (audit, validate, re-audit, report) {codes}"
            )

    import_s_runs = import_seconds(src)
    import_s = statistics.median(import_s_runs)
    print(f"import fejerlab.cli: {import_s:.3f} s (median of 5 fresh interpreters)")
    tier1_s, tier1_counts, tier1_code = run_pytest(src)
    failed |= tier1_code != 0
    print(f"tier-1 suite: {tier1_s:.1f} s, {tier1_counts}, exit code {tier1_code}")
    _, selftest_counts, selftest_code = run_pytest(src, "perfbench/test_perfbench.py")
    print(f"perfbench self-tests: {selftest_counts}, exit code {selftest_code}")
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"schema": "fejerlab-bench-v1", "runs": {}}
    lines = _src_lines_by_module(src)
    this = {
        "src_sha256": _tree_digest(src),
        "src_lines": sum(lines.values()),
        "src_lines_by_module": lines,
        "import_s": import_s,
        "import_s_runs": import_s_runs,
        "tier1_s": tier1_s,
        "tier1_counts": tier1_counts,
        "perfbench_selftest_counts": selftest_counts,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "configs": results,
    }
    for label, run in doc["runs"].items():
        if label != args.label:
            print_digest_diffs(results, label, run["configs"])
            print_ratios(this, label, run)
            if "src_lines_by_module" in run:  # runs recorded before it was kept lack it
                print_line_deltas(lines, label, run["src_lines_by_module"])
    doc["runs"][args.label] = this
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
