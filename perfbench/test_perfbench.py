"""Self-tests of the benchmark.

Run from the root of a fejerlab checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.POOLED) <= set(workloads.WORKLOADS)


def test_configs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 3) == workloads.make_config(name, 3)
        assert workloads.make_config(name, 3) != workloads.make_config(name, 4)


def _bindings() -> dict:
    import fejerlab.cli  # noqa: F401 - loads every fejerlab module

    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "fejerlab" or name.startswith("fejerlab.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    targets = {
        getattr(sys.modules[f"fejerlab.{mod}"], fn)
        for mod, fn, _ in tracer.LEAVES + tracer.SPANS
    }
    tr = tracer.Tracer()
    with tr:
        during = _bindings()
        wrapped = [k for k, v in before.items() if v in targets]
        # Every alias is patched, e.g. harness.gap_F and problems.gap_F.
        assert ("fejerlab.harness", "gap_F") in wrapped
        assert ("fejerlab.problems", "gap_F") in wrapped
        assert ("fejerlab.cli", "run_ensemble") in wrapped
        for key in wrapped:
            assert during[key] is not before[key]
            assert during[key].__wrapped__ is before[key]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _ensemble(doc: dict):
    from fejerlab.cli import parse_experiment
    from fejerlab.harness import run_ensemble

    exp = parse_experiment(doc)
    return run_ensemble(
        exp.problem, exp.algorithm, exp.sched, exp.x0, exp.paths, exp.horizon,
        exp.seed, exp.epsilons, threads=exp.threads,
    )


def _tiny(workload: str, paths: int, horizon: int) -> dict:
    doc = workloads.make_config(workload, 1)
    doc["ensemble"].update(paths=paths, horizon=horizon)
    return doc


def test_tracer_counts_scalar_calls():
    tr = tracer.Tracer()
    with tr:
        _ensemble(_tiny("halfplane-sppa-witness", 4, 10))
    s = tr.summary()
    assert s["leaves"]["problems.sample_index"]["calls"] == 40
    assert s["leaves"]["rng.next_uniform"]["calls"] == 40
    assert s["leaves"]["problems.prox_step"]["calls"] == 40
    ens = s["spans"]["harness.run_ensemble"]
    assert ens["calls"] == 1
    assert 0.0 <= ens["self_s"] <= ens["s"]
    for rec in s["leaves"].values():
        assert 0.0 <= rec["self_s"] <= rec["s"]


def test_tracer_counts_pool_threads():
    # 1030 paths = 3 chunks of 512 on 2 threads; 3 steps per chunk.
    tr = tracer.Tracer()
    with tr:
        _ensemble(_tiny("euclid-skm", 1030, 3))
    s = tr.summary()
    assert s["leaves"]["rng.uniforms"]["calls"] == 9
    assert s["leaves"]["rng.categorical"]["calls"] == 9
    ens = s["spans"]["harness.run_ensemble"]
    assert 0.0 <= ens["self_s"] <= ens["s"]


def test_output_checks_count_failures():
    good = run.Proc(0, 1.0, 1.0, 1.0, "checks: 2 passed, 0 failed, 1 unchecked\n")
    assert run.report_ok(good)
    assert not run.report_ok(run.Proc(0, 1.0, 1.0, 1.0, "checks: 2 passed, 1 failed, 0 unchecked\n"))
    assert not run.report_ok(run.Proc(4, 1.0, 1.0, 1.0, good.out))
    assert run.validate_ok(run.Proc(0, 1.0, 1.0, 1.0, '{"pass": true}'))
    assert not run.validate_ok(run.Proc(0, 1.0, 1.0, 1.0, '{"pass": false}'))


@pytest.mark.parametrize(
    "kind, verdicts, held",
    [
        ("rate", [True, None, None], True),
        ("rate", [True, False], False),
        ("rate", [None, None], False),
        ("liminf", [True], True),
        ("liminf", [None], False),
        ("liminf", [False], False),
        ("liminf", [], False),
    ],
)
def test_audit_check_wants_checked_records_that_held(tmp_path, kind, verdicts, held):
    doc = _tiny("halfplane-sppa-witness", 4, 2)
    prefix = tmp_path / "x_"
    Path(f"{prefix}curves.csv").write_text("n\n0\n1\n2\n")
    audit = {
        "kind": kind, "paths": 4, "horizon": 2,
        "records": [{"bound_satisfied": v} for v in verdicts],
    }
    Path(f"{prefix}audit.json").write_text(json.dumps(audit))
    assert run.audit_ok(run.Proc(0, 1.0, 1.0, 1.0, ""), prefix, doc) is held


def test_tiny_workload_runs_through_the_check_path(tmp_path):
    # Two chunks, so the threads-1 and the kernel comparisons run too.  The
    # horizon reaches the eps=1.0 mean-rate index (480), so a record is
    # checked.
    metrics, checks = run.run_untraced(_tiny("euclid-skm", 600, 500), True, 0.0, tmp_path)
    assert (checks.attempted, checks.failed) == (9, 0), checks.notes
    assert metrics.keys() == run.END_TO_END.keys()
    assert all(v > 0 for v in metrics.values())


def test_tiny_traced_run(tmp_path, capsys):
    metrics, checks = run.run_traced(_tiny("halfplane-sppa-witness", 8, 60), tmp_path)
    assert checks.failed == 0, checks.notes
    assert metrics.keys() == run.PER_LAYER.keys()
    assert metrics["problems.sample_index.calls"] == 8 * 60
    # Every failed witness probe is counted and printed.
    failed = metrics["moduli.divergence_witness_theta.failed"]
    assert isinstance(failed, int) and failed >= 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("witness probe:")]
    assert len(printed) == failed


@pytest.mark.parametrize("trace", ["0", "1"])
def test_exits_nonzero_without_sources(tmp_path, trace):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euclid-skm", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
