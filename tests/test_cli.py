"""End-to-end tests for the fejerlab command-line interface.

Every test drives cli.main(argv) in process with a JSON config written to a
temp directory, then checks the exit code, the printed output, and the files
written under the --out prefix.
"""

import copy
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fejerlab.cli import _AUDITS, ConfigError, main, parse_experiment
from fejerlab.harness import curves_csv_text, load_curves, stats_from_curves
from fejerlab.moduli import RootSchedule
from fejerlab.problems import HALF_SQUARED, NoModulusKnownError
from fejerlab.spaces import DOMAIN, Euclidean, HalfPlane, Tripod, geometry_suite

# ---------------------------------------------------------------------------
# Config builders
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

CONSTANT_HALF = {"kind": "constant", "c": 0.5}
HARMONIC_11 = {"kind": "harmonic", "a": 1.0, "s": 1.0}


def _euclid(*coords):
    return {"space": "euclidean", "coords": list(coords)}


def _tripod(ray, coord):
    return {"space": "tripod", "ray": ray, "coord": coord}



def rate_config(paths=400, horizon=1500, seed=7, threads=1, epsilons=(1.0,), lam=0.1):
    """Small projection-splitting experiment with a rate-certificate audit."""
    return {
        "space": "euclidean",
        "problem": {  # catalogue two_halfspace()
            "kind": "fixed_point",
            "space": "euclidean",
            "operators": [
                {"set": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}, "weight": 0.5},
                {"set": {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.0}, "weight": 0.5},
            ],
        },
        "algorithm": "skm",
        "x0": _euclid(1.0, 1.0),
        "schedule": CONSTANT_HALF,
        "ensemble": {"paths": paths, "horizon": horizon, "seed": seed, "threads": threads},
        "audit": {"epsilons": list(epsilons), "lambda": lam},
    }


def fast_config(paths=200, horizon=400, seed=11):
    cfg = rate_config(paths=paths, horizon=horizon, seed=seed)
    cfg["audit"] = {"epsilons": [1.0, 4.0], "fast": {"c": 2.0, "r": 16}}
    del cfg["schedule"]  # the fast audit derives it
    return cfg


def sb_liminf_config(paths=128, horizon=400, seed=5):
    return {
        "space": "euclidean",
        "problem": {  # catalogue segment_argmin()
            "kind": "busemann",
            "space": "euclidean",
            "atoms": [
                {"point": _euclid(-1.0, 0.0), "weight": 0.5},
                {"point": _euclid(1.0, 0.0), "weight": 0.5},
            ],
            "constraint": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
            "region_bound": 4.0,
        },
        "algorithm": "sb",
        "x0": _euclid(0.0, 2.0),
        "schedule": HARMONIC_11,
        "ensemble": {"paths": paths, "horizon": horizon, "seed": seed, "threads": 1},
        "audit": {"epsilons": [1.0], "liminf": {"epsilon": 1.0, "start": 0}},
    }


def tripod_liminf_config(paths=64, horizon=120, seed=3):
    return {
        "space": "tripod",
        "problem": {  # catalogue tripod_median(4.0)
            "kind": "mean_min",
            "space": "tripod",
            "cost": "distance",
            "atoms": [{"point": _tripod(j, 1.0), "weight": 1.0 / 3.0} for j in range(3)],
            "region_bound": 4.0,
        },
        "algorithm": "sppa",
        "x0": _tripod(0, 3.0),
        "schedule": HARMONIC_11,
        "ensemble": {"paths": paths, "horizon": horizon, "seed": seed, "threads": 1},
        "audit": {"epsilons": [2.0], "liminf": {"epsilon": 2.0, "start": 0}},
    }


def halfplane_config(paths=64, horizon=120, seed=3):
    return {
        "space": "halfplane",
        "problem": {
            "kind": "mean_min",
            "space": "halfplane",
            "cost": "distance",
            "atoms": [{"point": {"space": "halfplane", "x": 0.0, "y": 1.0}, "weight": 1.0}],
            "region_bound": 4.0,
        },
        "algorithm": "sppa",
        "x0": {"space": "halfplane", "x": 1.0, "y": 2.0},
        "schedule": HARMONIC_11,
        "ensemble": {"paths": paths, "horizon": horizon, "seed": seed, "threads": 1},
        "audit": {"epsilons": [1.0], "liminf": {"epsilon": 1.0, "start": 0}},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_passes_and_prints_machine_readable_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=4, horizon=4))
    rc = run_cli("validate", "--config", cfg)
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert rc == 0
    assert summary["pass"] is True
    assert summary["space"] == "euclidean"


def test_validate_tripod_space(tmp_path, capsys):
    cfg = write_config(tmp_path, tripod_liminf_config(paths=2, horizon=2))
    rc = run_cli("validate", "--config", cfg)
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0 and summary["pass"] is True and summary["space"] == "tripod"


def test_validate_checks_the_dimension_of_the_start_point(tmp_path, capsys):
    """The flagship lifted to R^3 (a zero third coordinate on every normal
    and on the start) validates R^3, not the plane."""
    cfg = _shipped("flagship_skm.json")
    for op in cfg["problem"]["operators"]:
        op["set"]["normal"].append(0.0)
    cfg["x0"]["coords"].append(0.0)
    printed = {}
    for dim, doc in ((3, cfg), (2, _shipped("flagship_skm.json"))):
        assert run_cli("validate", "--config", write_config(tmp_path, doc)) == 0
        printed[dim] = capsys.readouterr().out
        suite = geometry_suite("euclidean", seed=doc["ensemble"]["seed"], dim=dim)
        assert printed[dim] == json.dumps(suite, indent=2, sort_keys=True) + "\n"
    assert printed[3] != printed[2]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_curves_with_one_row_per_iterate(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=1, horizon=10))
    out = str(tmp_path / "a_")
    rc = run_cli("run", "--config", cfg, "--out", out)
    assert rc == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}curves.csv" in printed
    with open(out + "curves.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 11  # header + iterates 0..horizon
    assert rows[0][:4] == ["n", "mean_dist", "mean_sq_dist", "mean_gap"]


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = write_config(tmp_path, rate_config(paths=40, horizon=60))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "a_"))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "b_"))
    a = (tmp_path / "a_curves.csv").read_bytes()
    b = (tmp_path / "b_curves.csv").read_bytes()
    assert a == b


def test_seed_override_changes_the_curves(tmp_path):
    cfg = write_config(tmp_path, rate_config(paths=40, horizon=60, seed=7))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "a_"))
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "b_"), "--seed-override", "8")
    run_cli("run", "--config", cfg, "--out", str(tmp_path / "c_"), "--seed-override", "7")
    a = (tmp_path / "a_curves.csv").read_bytes()
    b = (tmp_path / "b_curves.csv").read_bytes()
    c = (tmp_path / "c_curves.csv").read_bytes()
    assert a != b
    assert a == c  # overriding with the config's own seed is a no-op


def test_seed_override_out_of_range_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=2, horizon=2))
    rc = run_cli("run", "--config", cfg, "--seed-override", "-1")
    assert rc == 1
    assert "--seed-override" in capsys.readouterr().err


def test_run_to_unwritable_prefix_is_a_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=2, horizon=2))
    rc = run_cli("run", "--config", cfg, "--out", str(tmp_path / "missing" / "dir_"))
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_a_geometry_suite_that_raises_is_a_runtime_error_of_validate(tmp_path, capsys, monkeypatch):
    import fejerlab.cli as cli

    monkeypatch.setattr(cli, "geometry_suite", lambda *a, **k: 1 / 0)
    rc = run_cli("validate", "--config", write_config(tmp_path, rate_config(paths=2, horizon=2)))
    assert (rc, capsys.readouterr().err) == (3, "runtime error: division by zero\n")


# ---------------------------------------------------------------------------
# audit: rate certificates
# ---------------------------------------------------------------------------


def test_audit_rate_certificate_passes_and_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    out = str(tmp_path / "r_")
    rc = run_cli("audit", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] mean-rate certificate check" in printed
    assert "[PASS] almost-sure tail check" in printed
    with open(out + "audit.json") as fh:
        doc = json.load(fh)
    assert doc["schema"] == "fejerlab-audit-v1"
    assert doc["kind"] == "rate"
    assert {r["criterion"] for r in doc["records"]} == {"mean", "almost_sure"}


def test_audit_beyond_horizon_checks_are_unchecked_not_failed(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(horizon=900))
    out = str(tmp_path / "u_")
    rc = run_cli("audit", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0  # unchecked records do not fail the audit
    assert "[UNCHECKED] almost-sure tail check" in printed
    assert "horizon" in printed


def test_audit_reaudit_from_curves_matches_the_original(tmp_path):
    cfg = write_config(tmp_path, rate_config())
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    re_out = str(tmp_path / "re_")
    rc = run_cli(
        "audit", "--config", cfg, "--out", re_out, "--curves", out + "curves.csv"
    )
    assert rc == 0
    original = (tmp_path / "r_audit.json").read_bytes()
    reaudited = (tmp_path / "re_audit.json").read_bytes()
    assert original == reaudited


def test_reaudit_to_unwritable_prefix_names_the_audit_path(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=4, horizon=10))
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) in (0, 4)
    capsys.readouterr()
    bad = str(tmp_path / "missing" / "dir_")
    rc = run_cli("audit", "--config", cfg, "--out", bad, "--curves", out + "curves.csv")
    assert rc == 3
    assert f"cannot write audit to {bad}audit.json" in capsys.readouterr().err


def test_audit_doctored_curves_fail_with_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    with open(out + "curves.csv") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    i_mean = header.index("mean_dist")
    i_tail = header.index("tail_eps_1.0")
    for row in rows[1:]:
        row[i_mean] = "9.9"  # every iterate pretends to sit far from the solutions
        row[i_tail] = "1"
    doctored = tmp_path / "doctored.csv"
    with open(doctored, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rc = run_cli(
        "audit", "--config", cfg, "--out", str(tmp_path / "d_"), "--curves", str(doctored)
    )
    printed = capsys.readouterr().out
    assert rc == 4
    assert "[FAIL] mean-rate certificate check" in printed
    assert "[FAIL] almost-sure tail check" in printed


def test_audit_corrupted_curves_file_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    bad = tmp_path / "bad.csv"
    bad.write_text("n,mean_dist\n0,1.0\n")
    rc = run_cli(
        "audit", "--config", cfg, "--out", str(tmp_path / "x_"), "--curves", str(bad)
    )
    assert rc == 1
    assert "--curves" in capsys.readouterr().err


def test_audit_header_only_curves_file_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    bad = tmp_path / "bad.csv"
    bad.write_text("n,mean_dist,mean_sq_dist,mean_gap,std_dist,std_sq_dist,std_gap\n")
    rc = run_cli(
        "audit", "--config", cfg, "--out", str(tmp_path / "x_"), "--curves", str(bad)
    )
    assert rc == 1
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["tail_eps_1.0", "point_tail_eps_1.0"])
def test_audit_curves_with_a_bad_threshold_header_is_an_input_error(tmp_path, capsys, column):
    cfg = write_config(tmp_path, rate_config(paths=4, horizon=10))
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) in (0, 4)
    capsys.readouterr()
    text = Path(out + "curves.csv").read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(f",{column},", f",{column.replace('1.0', 'x1.0')},", 1))
    rc = run_cli(
        "audit", "--config", cfg, "--out", str(tmp_path / "x_"), "--curves", str(bad)
    )
    assert rc == 1
    assert f"config error: --curves {bad}: " in capsys.readouterr().err


@pytest.mark.parametrize("column, message", [
    ("tail_eps_1.00", "curves column tail_eps_1.00 repeats the threshold 1.0"),
    ("point_tail_eps_1", "curves column point_tail_eps_1 repeats the threshold 1.0"),
    ("tail_eps_1.0", "repeats columns: ['tail_eps_1.0']"),
])
def test_audit_curves_with_two_columns_for_one_threshold_is_an_input_error(
    tmp_path, capsys, column, message
):
    # An all-ones column appended under a second header for the threshold
    # 1.0.  Read as the later column, an all-ones tail would fail the
    # almost-sure check at index 1200.
    cfg = write_config(tmp_path, rate_config(paths=16, horizon=1300))
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    lines = Path(out + "curves.csv").read_text().splitlines()
    doubled = [lines[0] + f",{column}"] + [ln + ",1" for ln in lines[1:]]
    Path(out + "curves.csv").write_text("\n".join(doubled) + "\n")
    rc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "x_"), "--curves", out + "curves.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --curves {out}curves.csv: ") and message in err, err
    rc = run_cli("report", "--config", cfg, "--out", out)
    err = capsys.readouterr().err
    if column == "tail_eps_1.0":  # `report` reads the columns by name
        assert rc == 1 and err.startswith("report input error: ") and message in err, err
    else:
        assert rc == 0, err


def test_audit_curves_missing_tail_threshold_is_an_input_error(tmp_path, capsys):
    cfg_run = write_config(tmp_path, rate_config(epsilons=(1.0,)), name="run.json")
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg_run, "--out", out) == 0
    cfg_wider = write_config(tmp_path, rate_config(epsilons=(2.0,)), name="wider.json")
    rc = run_cli(
        "audit",
        "--config",
        cfg_wider,
        "--out",
        str(tmp_path / "w_"),
        "--curves",
        out + "curves.csv",
    )
    assert rc == 1
    assert "missing tail thresholds" in capsys.readouterr().err


def test_audit_without_lambda_is_an_input_error(tmp_path, capsys):
    cfg = rate_config(paths=2, horizon=2)
    del cfg["audit"]["lambda"]
    path = write_config(tmp_path, cfg)
    rc = run_cli("audit", "--config", path, "--out", str(tmp_path / "x_"))
    assert rc == 1
    assert "config.audit.lambda" in capsys.readouterr().err


def test_audit_unknown_modulus_shape_exits_5(tmp_path, capsys):
    # Equal-weight two-atom Busemann objectives have no catalogued regularity
    # modulus, so a certificate audit must fail fast with the dedicated code.
    cfg = sb_liminf_config(paths=2, horizon=2)
    cfg["audit"] = {"epsilons": [1.0], "lambda": 0.5}
    path = write_config(tmp_path, cfg)
    # Only the certificate needs the modulus: the ensemble itself runs.
    assert run_cli("run", "--config", path, "--out", str(tmp_path / "x_")) == 0
    capsys.readouterr()
    rc = run_cli("audit", "--config", path, "--out", str(tmp_path / "y_"))
    assert rc == 5
    assert "no modulus known" in capsys.readouterr().err
    assert not (tmp_path / "y_curves.csv").exists()  # failed before the ensemble


# ---------------------------------------------------------------------------
# audit: fast-rate and gap-window variants
# ---------------------------------------------------------------------------


def test_audit_fast_rate_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, fast_config())
    out = str(tmp_path / "f_")
    rc = run_cli("audit", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] fast-rate envelope check" in printed
    assert "[PASS] fast-rate tail check" in printed
    with open(out + "audit.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "fast"
    criteria = {r["criterion"] for r in doc["records"]}
    assert criteria == {"fast_mean_envelope", "fast_tail"}


def test_audit_fast_rejects_infeasible_parameters(tmp_path, capsys):
    cfg = fast_config(paths=2, horizon=2)
    cfg["audit"]["fast"] = {"c": 2.0, "r": 15}  # root schedule infeasible: 4vc > r
    path = write_config(tmp_path, cfg)
    # The parameters are part of the config, so every subcommand rejects them.
    for command in ("validate", "run", "audit"):
        rc = run_cli(command, "--config", path, "--out", str(tmp_path / "x_"))
        assert rc == 1, command
        assert "config.audit.fast" in capsys.readouterr().err, command


@pytest.mark.parametrize(
    "make, builder, check",
    [
        (rate_config, ("algorithms", "certificate_skm"), "certificate_audit"),
        (fast_config, ("cli", "fast_certificate_skm"), "fast_audit"),
        (sb_liminf_config, ("algorithms", "liminf_bound_sb"), "liminf_audit"),
    ],
    ids=["rate", "fast", "liminf"],
)
def test_audit_and_reaudit_build_the_fast_certificate_once(
    tmp_path, monkeypatch, make, builder, check
):
    """Each kind builds its certificate and its check once per audit, and
    calls them at the module names a wrapper is bound to."""
    import fejerlab.algorithms as algorithms
    import fejerlab.cli as cli

    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted({"cli": cli, "algorithms": algorithms}[builder[0]], builder[1])
    counted(cli, check)
    cfg = write_config(tmp_path, make(paths=16, horizon=40))
    out = str(tmp_path / "f_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    assert sorted(calls) == sorted([builder[1], check])
    rc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "re_"), "--curves", out + "curves.csv")
    assert rc == 0
    assert sorted(calls) == sorted([builder[1], check] * 2)


def test_audit_gap_window_passes_with_witness_and_caveat(tmp_path, capsys):
    cfg = write_config(tmp_path, sb_liminf_config())
    out = str(tmp_path / "g_")
    rc = run_cli("audit", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] gap-window (liminf) check" in printed
    assert "window [0, 175]" in printed
    assert "astronomically large" in printed
    with open(out + "audit.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "liminf"
    assert doc["records"][0]["criterion"] == "gap_window"
    assert doc["records"][0]["bound_satisfied"] is True


def test_audit_gap_window_witness_can_precede_a_long_window(tmp_path, capsys):
    # The certified window end (1425) exceeds this short horizon, but the
    # witness iterate appears early, so the check still passes.
    cfg = write_config(tmp_path, tripod_liminf_config())
    rc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "t_"))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "window [0, 1425]" in printed
    assert "witness at n=" in printed


_GAP_CAVEAT = (
    "full rate-certificate indices rho(eps) at small eps are astronomically "
    "large under harmonic schedules (the divergence witness grows exponentially "
    "in the budget); they are certified by the geometry, recursion, one-step "
    "inequality, and modulus-soundness checks rather than by simulation"
)


def _reaudit_with_mean_gap(tmp_path, cfg, value):
    """Audit cfg, then re-audit its curves with every mean gap set to value;
    returns the exit code and the re-audit's only record."""
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "g_")
    assert run_cli("audit", "--config", path, "--out", out) == 0
    with open(out + "curves.csv") as fh:
        rows = list(csv.reader(fh))
    i_gap = rows[0].index("mean_gap")
    for row in rows[1:]:
        row[i_gap] = value
    doctored = tmp_path / "doctored.csv"
    with open(doctored, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    re_out = str(tmp_path / "d_")
    rc = run_cli("audit", "--config", path, "--out", re_out, "--curves", str(doctored))
    with open(re_out + "audit.json") as fh:
        (record,) = json.load(fh)["records"]
    return rc, record


def test_audit_gap_window_without_a_witness_fails(tmp_path, capsys):
    rc, record = _reaudit_with_mean_gap(tmp_path, sb_liminf_config(paths=16), "10")
    assert rc == 4
    assert "[FAIL] gap-window (liminf) check" in capsys.readouterr().out
    assert record == {
        "epsilon": 1.0,
        "criterion": "gap_window",
        "predicted_index": 175,
        "observed_value_at_index": 10.0,
        "bound_satisfied": False,
        "mc_margin": -9.0,
        "note": "window [0, 175]: no iterate with mean gap below 1 (minimum 10); " + _GAP_CAVEAT,
    }


def test_audit_gap_window_past_the_horizon_without_a_witness_is_unchecked(tmp_path, capsys):
    rc, record = _reaudit_with_mean_gap(tmp_path, tripod_liminf_config(paths=8), "10")
    assert rc == 0
    assert "[UNCHECKED] gap-window (liminf) check" in capsys.readouterr().out
    assert record == {
        "epsilon": 2.0,
        "criterion": "gap_window",
        "predicted_index": 1425,
        "observed_value_at_index": None,
        "bound_satisfied": None,
        "mc_margin": None,
        "note": (
            "unchecked: window [0, 1425] extends beyond horizon 120 and no witness "
            "was observed up to the horizon; " + _GAP_CAVEAT
        ),
    }


def test_audit_gap_window_end_past_the_cap(tmp_path, capsys):
    # At eps = 3e-4 the certified window end lies past INDEX_CAP: it prints
    # as >1e12 and audit.json writes it as null.
    cfg = sb_liminf_config(paths=64, horizon=100)
    cfg["audit"]["liminf"]["epsilon"] = 3e-4
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "g_")
    rc = run_cli("audit", "--config", path, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0, printed
    assert "[PASS] gap-window (liminf) check" in printed
    assert "window [0, >1e12]" in printed
    with open(out + "audit.json") as fh:
        (record,) = json.load(fh)["records"]
    assert record["predicted_index"] is None and record["bound_satisfied"] is True
    assert run_cli("report", "--config", path, "--out", out) == 0
    assert "predicted index >1e12" in capsys.readouterr().out
    re_out = str(tmp_path / "re_")
    assert run_cli("audit", "--config", path, "--out", re_out, "--curves", out + "curves.csv") == 0
    assert (tmp_path / "re_audit.json").read_bytes() == (tmp_path / "g_audit.json").read_bytes()


def test_audit_gap_window_of_a_subnormal_step_is_past_the_cap(tmp_path, capsys):
    # Under a = 1e-320 the steps up to INDEX_CAP sum to less than the budget:
    # the window end is beyond, and the audit runs.
    cfg = _shipped(TRIPOD)
    cfg["ensemble"].update(paths=3, horizon=5)
    cfg["schedule"]["a"] = 1e-320
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "s_"))
    printed = capsys.readouterr().out
    assert rc == 0, printed
    assert "check: eps=2 index=>1e12 " in printed and "window [0, >1e12]" in printed


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_summarizes_a_rate_audit(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    rc = run_cli("report", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0
    assert (
        "fejerlab report: kind=rate algorithm=skm paths=400 horizon=1500 lambda=0.1"
        in printed
    )
    assert "mean-rate certificate check" in printed
    assert "almost-sure tail check" in printed
    assert "checks: 2 passed, 0 failed, 0 unchecked" in printed


def test_report_counts_unchecked_records(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(horizon=900))
    out = str(tmp_path / "u_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    rc = run_cli("report", "--config", cfg, "--out", out)
    printed = capsys.readouterr().out
    assert rc == 0
    assert "checks: 1 passed, 0 failed, 1 unchecked" in printed


def _fast_one_eps():
    cfg = fast_config(paths=16, horizon=40)
    cfg["audit"]["epsilons"] = [4.0]
    return cfg


_TRUNC = "sup-tail truncated at the horizon (later exceedances unobserved)"
_RATE_INDICES = "indices: mean=480, as_strict=4800, mean_relaxed=120, as_relaxed=1200"


def _fast_tail(n, bound, observed, margin):
    return [
        f"[PASS] fast-rate tail check: eps=4 predicted index {n} | audited value {observed} "
        f"| margin {margin}",
        f"    P(sup dist >= sqrt(eps)=2) at n={n} vs bound {bound} (+3 binomial stderr); {_TRUNC}",
    ]


# Kind, a small config of it, and report's stdout on that config's audit.
_REPORTS = [
    ("rate", lambda: rate_config(paths=32, horizon=700), [
        "fejerlab report: kind=rate algorithm=skm paths=32 horizon=700 lambda=0.1",
        "[PASS] mean-rate certificate check: eps=1 predicted index 480 | curve value there "
        "4.91194e-68 | audited value 4.91194e-68 | margin 1",
        "    max mean distance over n >= 480, tolerance 3 stderr = 6.74e-68; " + _RATE_INDICES,
        "[UNCHECKED] almost-sure tail check: eps=1 predicted index 1200",
        f"    unchecked: index beyond horizon 700; {_TRUNC}; " + _RATE_INDICES,
        "checks: 1 passed, 0 failed, 1 unchecked",
    ]),
    ("fast", _fast_one_eps, [
        "fejerlab report: kind=fast algorithm=skm paths=16 horizon=40",
        "[PASS] fast-rate envelope check: eps=0 predicted index 0 | curve value there 2 "
        "| audited value 2 | margin 0",
        "    E[dist^2] vs u/(n+r) over all n in [0, 40]; tightest index 0, bound 2, "
        "tolerance 3 stderr = 0",
        *_fast_tail(0, "0.5", 0, "0.875"),
        *_fast_tail(1, "0.470588", 0, "0.844939"),
        *_fast_tail(10, "0.307692", 0, "0.653846"),
        *_fast_tail(40, "0.142857", 0, "0.405302"),
        "checks: 5 passed, 0 failed, 0 unchecked",
    ]),
    ("liminf", lambda: sb_liminf_config(paths=16, horizon=200), [
        "fejerlab report: kind=liminf algorithm=sb paths=16 horizon=200",
        "[PASS] gap-window (liminf) check: eps=1 predicted index 175 | mean gap at window end "
        "3.61543e-05 | audited value 0.528627 | margin 0.471373",
        "    window [0, 175]: witness at n=1 with mean gap 0.528627 < 1; " + _GAP_CAVEAT,
        "checks: 1 passed, 0 failed, 0 unchecked",
    ]),
]


@pytest.mark.parametrize(
    "make, expected", [r[1:] for r in _REPORTS], ids=[r[0] for r in _REPORTS]
)
def test_report_prints_each_kind_line_for_line(tmp_path, capsys, make, expected):
    cfg = write_config(tmp_path, make())
    out = str(tmp_path / "p_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("report", "--config", cfg, "--out", out) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_report_missing_outputs_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=2, horizon=2))
    rc = run_cli("report", "--config", cfg, "--out", str(tmp_path / "nope_"))
    assert rc == 1
    assert "report input error" in capsys.readouterr().err


def test_report_header_only_curves_file_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config(paths=2, horizon=2))
    out = str(tmp_path / "r_")
    run_cli("audit", "--config", cfg, "--out", out)
    with open(out + "curves.csv") as fh:
        header = fh.readline()
    with open(out + "curves.csv", "w") as fh:
        fh.write(header)
    capsys.readouterr()
    rc = run_cli("report", "--config", cfg, "--out", out)
    assert rc == 1
    assert "no rows" in capsys.readouterr().err


def test_report_rejects_unknown_audit_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, rate_config())
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    with open(out + "audit.json") as fh:
        doc = json.load(fh)
    doc["schema"] = "fejerlab-audit-v999"
    with open(out + "audit.json", "w") as fh:
        json.dump(doc, fh)
    rc = run_cli("report", "--config", cfg, "--out", out)
    assert rc == 1
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "an audit file holds a JSON object, not list"),
    # read as given, then refused when the header line formats it
    (lambda doc: {**doc, "lambda": "x"}, "Unknown format code 'g'"),
], ids=["array", "lambda-string"])
def test_report_of_a_malformed_audit_file_is_an_input_error(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path, rate_config(paths=2, horizon=2))
    out = str(tmp_path / "r_")
    assert run_cli("audit", "--config", cfg, "--out", out) == 0
    doc = json.loads(Path(out + "audit.json").read_text())
    Path(out + "audit.json").write_text(json.dumps(edit(doc)))
    capsys.readouterr()
    rc = run_cli("report", "--config", cfg, "--out", out)
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("report input error: ") and message in err, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"space": "euclidean",\n  "problem": }')
    rc = run_cli("validate", "--config", str(path))
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err


def test_integer_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    text = json.dumps(rate_config(paths=2, horizon=2, seed=0))
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"seed": 0', '"seed": ' + "9" * 5000))
    rc = run_cli("validate", "--config", str(path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"config error: {path} is not valid JSON")


def _shipped(name):
    with open(ROOT / "scripts" / name) as fh:
        return json.load(fh)


def _benchmark_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.make_config(w, 1) for w in workloads.WORKLOADS]


def test_shipped_and_benchmark_configs_parse():
    docs = [_shipped(p.name) for p in sorted((ROOT / "scripts").glob("*.json"))]
    docs += _benchmark_configs()
    assert len(docs) == 6
    for doc in docs:
        exp = parse_experiment(doc)
        assert exp.problem.space == doc["space"] and exp.paths == doc["ensemble"]["paths"]


def test_shipped_configs_take_v_from_the_operator_sets(tmp_path, capsys):
    """Without a stated v the flagship certifies with the derived v = 2 (the
    indices of v = 1 are half as large), a stated v equal to it is accepted,
    and the fast config runs the root schedule q = v c = 4."""
    cfg = _shipped("flagship_skm.json")
    assert "v" not in cfg["problem"]
    cfg["ensemble"].update(paths=4, horizon=10)
    printed = []
    for v in (None, 2.0):
        if v is not None:
            cfg["problem"]["v"] = v
        rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "f_"))
        printed.append(capsys.readouterr().out)
        assert rc == 0
    assert printed[0] == printed[1]
    assert "eps=0.3 index=5334 " in printed[0]
    assert "indices: mean=5334, as_strict=53334, mean_relaxed=1334, as_relaxed=13334" in printed[0]
    fast = _shipped("fast_skm.json")
    assert "v" not in fast["problem"]
    assert parse_experiment(fast).sched == RootSchedule(4.0, 16)


@pytest.mark.parametrize(
    "name", ["flagship_skm.json", "fast_skm.json", "tripod_sppa_liminf.json", "segment_sb_liminf.json"]
)
def test_a_shipped_curves_file_reads_back_to_its_own_bytes(tmp_path, name):
    """A re-audit's reading of a curves file keeps its thresholds in the
    file's column order, the config's (the flagship's 0.3 before 0.2), so
    the statistics it rebuilds write back to the file byte for byte."""
    cfg = _shipped(name)
    cfg["ensemble"].update(paths=24, horizon=70)
    out = str(tmp_path / "c_")
    assert run_cli("run", "--config", write_config(tmp_path, cfg), "--out", out) == 0
    exp = parse_experiment(cfg)
    stats = stats_from_curves(load_curves(out + "curves.csv"), exp.algorithm, exp.paths)
    assert stats.epsilons == exp.audit.thresholds
    assert curves_csv_text(stats).encode() == Path(out + "curves.csv").read_bytes()


_DELETE = object()


def _set(doc, path, value):
    """Set doc[path[0]][path[1]]... = value, inserting the last key if new;
    ``_DELETE`` removes the last key instead."""
    for key in path[:-1]:
        doc = doc[key]
    if value is _DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


_OP1 = ("problem", "operators", 1)
_ATOM2 = ("problem", "atoms", 2)

FLAG, TRIPOD, SEGMENT = "flagship_skm.json", "tripod_sppa_liminf.json", "segment_sb_liminf.json"
FAST = "fast_skm.json"
HALFPLANE = "halfplane"  # no shipped config is half-plane: halfplane_config()


def _config(name):
    return halfplane_config() if name == HALFPLANE else _shipped(name)


# Row id, shipped config, the field to set, its new value, and how the
# error must begin: with the path of the offending field.
_REJECTED = [
    ("v-misspelled", FLAG, ("problem", "vv"), 2.0,
     "config.problem: unknown field(s) ['vv']"),
    ("v-not-derived", FLAG, ("problem", "v"), 1.0,
     "config.problem.v: the operator sets give v = 2.0, not 1.0; v is derived, drop the key"),
    ("lipschitz-cap", SEGMENT, ("problem", "lipschitz_cap"), 1.0,
     "config.problem: unknown field(s) ['lipschitz_cap']"),
    ("region-bound-misspelled", TRIPOD, ("problem", "region_bund"), 4.0,
     "config.problem: unknown field(s) ['region_bund']"),
    ("coords-string", FLAG, ("x0", "coords"), "11",
     "config.x0.coords: expected a list"),
    ("ray-float", TRIPOD, ("x0", "ray"), 1.7,
     "config.x0.ray: expected an integer"),
    ("ray-bool", TRIPOD, ("x0", "ray"), True,
     "config.x0.ray: expected an integer"),
    ("root-r-float", FLAG, ("schedule",), {"kind": "root", "q": 0.25, "r": 16.9},
     "config.schedule.r: expected an integer"),
    ("nan-coordinate", FLAG, ("x0", "coords"), [math.nan, 1.0],
     "config.x0.coords[0]: expected a finite number"),
    ("infinite-offset", FLAG, (*_OP1, "set", "offset"), math.inf,
     "config.problem.operators[1].set.offset: expected a finite number"),
    ("offset-string", FLAG, (*_OP1, "set", "offset"), "0",
     "config.problem.operators[1].set.offset: expected a number"),
    ("huge-v", FLAG, ("problem", "v"), 10**400,
     "config.problem.v: integer out of float range"),
    ("huge-epsilon", FLAG, ("audit", "epsilons"), [10**400],
     "config.audit.epsilons[0]: integer out of float range"),
    ("point-unknown-key", FLAG, ("x0", "z"), 0.0,
     "config.x0: unknown field(s) ['z']"),
    ("atom-point-unknown-key", TRIPOD, (*_ATOM2, "point", "x"), 0.0,
     "config.problem.atoms[2].point: unknown field(s) ['x']"),
    ("atom-of-another-space", TRIPOD, (*_ATOM2, "point"), {"space": "euclidean", "coords": [1.0]},
     "config.problem.atoms[2].point.space: expected one of ('tripod',)"),
    ("atom-unknown-key", TRIPOD, (*_ATOM2, "label"), "c",
     "config.problem.atoms[2]: unknown field(s) ['label']"),
    ("operator-unknown-key", FLAG, (*_OP1, "label"), "y",
     "config.problem.operators[1]: unknown field(s) ['label']"),
    ("set-unknown-key", FLAG, (*_OP1, "set", "radius"), 1.0,
     "config.problem.operators[1].set: unknown field(s) ['radius']"),
    ("box-unknown-key", SEGMENT, ("problem", "constraint", "center"), [0.0, 0.0],
     "config.problem.constraint: unknown field(s) ['center']"),
    ("schedule-unknown-key", FLAG, ("schedule", "a"), 1.0,
     "config.schedule: unknown field(s) ['a']"),
    ("schedule-tail-unknown-key", FLAG, ("schedule",),
     {"kind": "table", "values": [0.5], "tail": {"a": 1.0, "s": 2.0, "c": 0.5}},
     "config.schedule.tail: unknown field(s) ['c']"),
    ("fast-schedule-stated", FAST, ("schedule",), {"kind": "constant", "c": 0.5},
     "config.schedule: the fast audit derives the schedule; drop the key"),
    ("fast-and-liminf", FAST, ("audit", "liminf"), {"epsilon": 1.0, "start": 0},
     "config.audit: choose at most one of 'fast' and 'liminf'"),
    ("fast-not-skm", SEGMENT, ("audit",), {"epsilons": [1.0], "fast": {"c": 2.0, "r": 16}},
     "config.audit.fast: fast-rate audits are defined for algorithm 'skm'"),
    ("lambda-under-fast", FAST, ("audit", "lambda"), 0.1,
     "config.audit: unknown field(s) ['lambda']"),
    ("lambda-under-liminf", SEGMENT, ("audit", "lambda"), 0.1,
     "config.audit: unknown field(s) ['lambda']"),
    ("euclidean-far", FLAG, ("x0", "coords"), [1.0, 1e200],
     "config.x0.coords[1]: 1e+200 is outside the domain [-1e+50, 1e+50]"),
    ("tripod-far", TRIPOD, ("x0", "coord"), 1.5e308,
     "config.x0.coord: 1.5e+308 is outside the domain [-1e+50, 1e+50]"),
    ("halfplane-low", HALFPLANE, ("x0", "y"), 1e-300,
     "config.x0.y: 1e-300 is outside the domain [1e-50, 1e+50]"),
    ("halfplane-far-atom", HALFPLANE, ("problem", "atoms", 0, "point", "x"), 1e101,
     "config.problem.atoms[0].point.x: 1e+101 is outside the domain [-1e+50, 1e+50]"),
    ("offset-far", FLAG, (*_OP1, "set", "offset"), 1e51,
     "config.problem.operators[1].set.offset: 1e+51 is outside the domain [-1e+50, 1e+50]"),
    ("box-bound-far", SEGMENT, ("problem", "constraint", "hi"), [2.0, 1e51],
     "config.problem.constraint.hi[1]: 1e+51 is outside the domain [-1e+50, 1e+50]"),
    ("horizon-past-the-index-cap", FLAG, ("ensemble", "horizon"), 10**12 + 1,
     "config.ensemble.horizon: must be <= 1000000000000, got 1000000000001"),
]


@pytest.mark.parametrize(
    "name, field, value, message", [r[1:] for r in _REJECTED], ids=[r[0] for r in _REJECTED]
)
def test_config_defects_are_input_errors_naming_the_field(
    tmp_path, capsys, name, field, value, message
):
    cfg = _config(name)
    _set(cfg, field, value)
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, field, value, x0",
    [
        (FLAG, ("x0", "coords"), [1e50, -1e50], Euclidean((1e50, -1e50))),
        (TRIPOD, ("x0", "coord"), 1e50, Tripod(0, 1e50)),
        (HALFPLANE, ("x0", "x"), -1e50, HalfPlane(-1e50, 2.0)),
        (HALFPLANE, ("x0", "y"), 1e-50, HalfPlane(1.0, 1e-50)),
        (HALFPLANE, ("x0", "y"), 1e50, HalfPlane(1.0, 1e50)),
    ],
    ids=["euclidean", "tripod", "halfplane-x", "halfplane-low-y", "halfplane-high-y"],
)
def test_coordinate_domain_includes_its_bounds(name, field, value, x0):
    cfg = _config(name)
    _set(cfg, field, value)
    assert parse_experiment(cfg).x0 == x0


# The statistics must be numbers, and the fast envelope at n = 0 (the float
# mean of equal squares against u/r = d^2(x0)) must allow their rounding.
@pytest.mark.parametrize("name, codes", [(FLAG, (0,)), (FAST, (0,))], ids=["flagship", "fast"])
def test_a_start_at_the_domain_bound_gives_finite_statistics(tmp_path, capsys, name, codes):
    cfg = _shipped(name)
    cfg["ensemble"].update(paths=64, horizon=50)
    cfg["x0"]["coords"] = [DOMAIN, DOMAIN]
    out = str(tmp_path / "b_")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # NumPy's overflow warning
        rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", out)
    assert rc in codes, capsys.readouterr().err
    with open(out + "curves.csv") as fh:
        cells = [float(c) for row in list(csv.reader(fh))[1:] for c in row]
    assert all(math.isfinite(c) for c in cells)
    with open(out + "audit.json") as fh:
        margins = [r["mc_margin"] for r in json.load(fh)["records"]]
    assert all(m is None or math.isfinite(m) for m in margins)


@pytest.mark.parametrize("paths, start", [(16, 1e50), (64, 1e50), (200, 1e10)])
def test_fast_envelope_passes_a_start_whose_squares_round(tmp_path, capsys, paths, start):
    # Every path starts at d^2(x0) = u/r, but the float mean of its squares
    # lies an ulp or so above: the check allows that rounding, and the
    # printed margin stays the raw slack.
    cfg = _shipped(FAST)
    cfg["ensemble"].update(paths=paths, horizon=50)
    cfg["x0"]["coords"] = [start, start]
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "f_"))
    out = capsys.readouterr().out
    assert rc == 0, out
    (line,) = [ln for ln in out.splitlines() if "envelope check" in ln]
    assert line.startswith("[PASS]") and "index=0" in line and "margin=-" in line


_COLD_START = """
import sys
from fejerlab.cli import main
lines = []
for config in sys.argv[1:]:
    prefix = config.removesuffix(".json") + "_"
    commands = (["validate"], ["run"], ["audit"], ["audit", "--curves", prefix + "curves.csv"],
                ["report"])
    codes = [main([*cmd, "--config", config, "--out", prefix]) for cmd in commands]
    lines.append(f"{codes} {'mpmath' in sys.modules} {'decimal' in sys.modules}")
print(*lines, sep="\\n")
"""


def test_only_an_exact_sum_loads_decimal_and_none_loads_mpmath(tmp_path):
    # In one fresh interpreter, every command on each shipped config at 64 x
    # 50.  The constant (flagship) and root (fast) schedules have closed
    # forms: no command on them takes an exact sum, so none may pay for
    # importing decimal; the harmonic gap windows (tripod, segment) take one
    # on decimal.  mpmath is a test-only reference: no command loads it.
    configs = []
    for name in (FLAG, FAST, TRIPOD, SEGMENT):
        cfg = _shipped(name)
        cfg["ensemble"].update(paths=64, horizon=50)
        configs.append(write_config(tmp_path, cfg, name))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, *configs],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
        timeout=120,
    )
    assert proc.stdout.splitlines()[-4:] == [
        "[0, 0, 0, 0, 0] False False",
        "[0, 0, 0, 0, 0] False False",
        "[0, 0, 0, 0, 0] False True",
        "[0, 0, 0, 0, 0] False True",
    ], proc.stdout


_NO_FLOAT_INDEX = "config.audit.epsilons[0]: the rate index exceeds the float range"

# Row id, shipped config, the field to set, its new value, and how the
# error must begin: audit requests the reader accepts but whose audit cannot
# be built, because a certified index leaves the float range or the rate
# audit lacks what it needs.  `validate` and `run` accept them.
_NO_INDEX = [
    ("epsilon-huge", FLAG, ("audit", "epsilons"), [0.3, 1e308], "config.audit.epsilons[1]"),
    ("epsilon-subnormal", FLAG, ("audit", "epsilons"), [1e-320, 0.2], "config.audit.epsilons[0]"),
    # tau (eps'/6) underflows to 0 at eps' = lam (eps/2)^2, or the budget
    # over it overflows to inf.
    ("epsilon-tiny", FLAG, ("audit", "epsilons"), [1e-161, 0.2], _NO_FLOAT_INDEX),
    ("epsilon-tiny-budget-inf", FLAG, ("audit", "epsilons"), [1.3e-161], _NO_FLOAT_INDEX),
    ("epsilon-tiny-sppa", TRIPOD, ("audit",), {"epsilons": [1e-161], "lambda": 0.1},
     _NO_FLOAT_INDEX),
    ("lambda-missing", FLAG, ("audit", "lambda"), _DELETE,
     "config.audit.lambda: required for certificate audits"),
    ("audit-missing", FLAG, ("audit",), _DELETE,
     "config.audit.lambda: required for certificate audits"),
    ("epsilons-empty", FLAG, ("audit", "epsilons"), [],
     "config.audit.epsilons: at least one threshold required"),
    ("audit-unedited", FLAG, ("audit", "lambda"), 0.1, None),
]


@pytest.mark.parametrize(
    "name, field, value, message", [r[1:] for r in _NO_INDEX], ids=[r[0] for r in _NO_INDEX]
)
def test_audit_index_out_of_range_fails_before_the_ensemble(
    tmp_path, capsys, monkeypatch, name, field, value, message
):
    import fejerlab.cli as cli

    cfg = _shipped(name)
    cfg["ensemble"].update(paths=3, horizon=5)
    _set(cfg, field, value)
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert run_cli(command, "--config", path, "--out", str(tmp_path / "x_")) == 0, command
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: ran.append(a) or 1 / 0)
    rc = run_cli("audit", "--config", path, "--out", str(tmp_path / "x_"))
    err = capsys.readouterr().err
    if message is None:  # the control: the stand-in is what the audit calls
        assert rc == 3 and len(ran) == 1, err
        return
    assert rc == 1 and not ran, err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("audit, path", [
    ({"epsilons": [0.3], "liminf": {"epsilon": 0.3, "start": 0}},
     "config.schedule with config.audit.liminf.epsilon=0.3"),
    ({"epsilons": [0.3], "lambda": 0.1}, "config.audit.epsilons[0]"),
], ids=["liminf", "rate"])
def test_a_constant_one_relaxation_is_an_input_error_of_the_audit(
    tmp_path, capsys, monkeypatch, audit, path
):
    # lambda(1 - lambda) vanishes at lambda = 1, so the Krasnoselskii-Mann
    # witness has no index.  The steps are relaxations in (0, 1], so
    # `validate` and `run` accept the config; `audit` exits 1 before the
    # ensemble, with the error at the field that asked for the index.
    import fejerlab.cli as cli

    cfg = _shipped(FLAG)
    cfg["ensemble"].update(paths=3, horizon=5)
    cfg["schedule"] = {"kind": "constant", "c": 1.0}
    cfg["audit"] = audit
    config = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert run_cli(command, "--config", config, "--out", str(tmp_path / "x_")) == 0, command
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: ran.append(a) or 1 / 0)
    rc = run_cli("audit", "--config", config, "--out", str(tmp_path / "x_"))
    err = capsys.readouterr().err
    assert rc == 1 and not ran, err
    assert err.startswith(f"config error: {path}: lambda(1-lambda) vanishes"), err


@pytest.mark.parametrize("name, audit, path", [
    (TRIPOD, None, "config.schedule with config.audit.liminf.epsilon=2.0"),
    (SEGMENT, None, "config.schedule with config.audit.liminf.epsilon=1.0"),
    (TRIPOD, {"epsilons": [0.3], "lambda": 0.1}, "config"),
], ids=["tripod-liminf", "segment-liminf", "tripod-rate"])
def test_a_squared_step_sum_past_the_float_range_is_an_input_error_of_the_audit(
    tmp_path, capsys, monkeypatch, name, audit, path
):
    # At a = 1e300 the squared steps sum to about 1.64e600, which no float
    # holds, so neither the gap window nor the rate certificate has its T.
    # The proximal and subgradient steps need not be relaxations, so
    # `validate` and `run` accept the config.
    import fejerlab.cli as cli

    cfg = _shipped(name)
    cfg["ensemble"].update(paths=3, horizon=5)
    cfg["schedule"]["a"] = 1e300
    if audit is not None:
        cfg["audit"] = audit
    config = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert run_cli(command, "--config", config, "--out", str(tmp_path / "x_")) == 0, command
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **k: ran.append(a) or 1 / 0)
    rc = run_cli("audit", "--config", config, "--out", str(tmp_path / "x_"))
    err = capsys.readouterr().err
    assert rc == 1 and not ran, err
    assert err == f"config error: {path}: squared-step sum 1.64e+600 exceeds the float range\n"


def test_audit_accepts_a_table_whose_tail_starts_below_one(tmp_path, capsys):
    # Every step is at most 1/2: the tail 2 / (n + 1) starts at index 3.  At
    # eps = 0.2 the almost-sure index lies past INDEX_CAP.
    cfg = _shipped(FLAG)
    cfg["ensemble"].update(paths=8, horizon=20)
    cfg["schedule"] = {"kind": "table", "values": [0.5, 0.5, 0.5], "tail": {"a": 2.0, "s": 1.0}}
    for command in ("run", "audit"):
        rc = run_cli(command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "t_"))
        assert rc == 0, capsys.readouterr().err


def test_audit_prints_indices_past_the_cap_as_beyond(tmp_path, capsys):
    # Under the harmonic schedule a = 0.5, s = 1 every index of the flagship's
    # epsilons lies past INDEX_CAP (at eps = 0.2 the almost-sure one has about
    # 6,500 digits): each prints as >1e12 and audit.json writes null.
    cfg = _shipped(FLAG)
    cfg["ensemble"].update(paths=8, horizon=20)
    cfg["schedule"] = {"kind": "harmonic", "a": 0.5, "s": 1.0}
    prefix = tmp_path / "h_"
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(prefix))
    out = capsys.readouterr().out
    assert rc == 0
    assert max(len(line) for line in out.splitlines()) <= 1_000
    assert "as_strict=>1e12, mean_relaxed=>1e12, as_relaxed=>1e12" in out
    with open(f"{prefix}audit.json") as fh:
        indices = [r["predicted_index"] for r in json.load(fh)["records"]]
    assert indices == [None] * 4


def test_audit_json_holds_exact_indices_and_null_past_the_cap(tmp_path, capsys):
    cfg = _shipped(FLAG)
    cfg["ensemble"].update(paths=8, horizon=20)
    cfg["audit"]["epsilons"] = [0.3, 1e-7]
    prefix = tmp_path / "m_"
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(prefix))
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "indices: mean=5334, as_strict=53334, mean_relaxed=1334, as_relaxed=13334" in out
    assert "indices: mean=>1e12, as_strict=>1e12, mean_relaxed=>1e12, as_relaxed=>1e12" in out
    with open(f"{prefix}audit.json") as fh:
        indices = [r["predicted_index"] for r in json.load(fh)["records"]]
    assert indices == [5334, 13334, None, None]


_LABELS = re.compile(r"\b(?:index|mean|as_strict|mean_relaxed|as_relaxed)=([^\s,;]+)")


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1e-20])
def test_tripod_rate_audit_past_the_cap_is_unchecked(tmp_path, capsys, eps):
    # Every index of these epsilons lies past INDEX_CAP (at 0.1 the largest
    # has about 490,000 digits): each record is unchecked, each index prints
    # in at most 13 characters, and audit.json is small and plain JSON.
    cfg = _shipped(TRIPOD)
    cfg["ensemble"].update(paths=3, horizon=5)
    cfg["audit"] = {"epsilons": [eps], "lambda": 0.1}
    prefix = tmp_path / "t_"
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(prefix))
    out = capsys.readouterr().out
    assert rc == 0, out
    statuses = [line.split("]")[0] for line in out.splitlines() if line.startswith("[")]
    assert statuses == ["[UNCHECKED"] * 2
    labels = _LABELS.findall(out)
    assert len(labels) == 10 and max(map(len, labels)) <= 13, labels
    assert (tmp_path / "t_audit.json").stat().st_size < 1024
    with open(f"{prefix}audit.json") as fh:
        assert [r["predicted_index"] for r in json.load(fh)["records"]] == [None, None]


def test_validate_exits_2_on_a_nan_residual(tmp_path, capsys, monkeypatch):
    import fejerlab.cli as cli
    import fejerlab.spaces as spaces

    # Every Euclidean distance reads NaN, but only inside the suite: the
    # config reader measures distances too.
    def nan_suite(*args, **kwargs):
        with monkeypatch.context() as m:
            real = spaces.distance
            m.setattr(spaces, "distance", lambda x, y: real(x, y) * math.nan)
            return spaces.geometry_suite(*args, **kwargs)

    monkeypatch.setattr(cli, "geometry_suite", nan_suite)
    rc = run_cli("validate", "--config", write_config(tmp_path, rate_config(paths=2, horizon=2)))
    summary = json.loads(capsys.readouterr().out)
    assert rc == 2 and summary["pass"] is False
    assert math.isnan(summary["residuals"]["triangle"])


def test_rate_audit_from_outside_the_modulus_region_is_an_input_error(tmp_path, capsys):
    cfg = _shipped(TRIPOD)
    cfg["ensemble"].update(paths=3, horizon=5)
    cfg["problem"]["region_bound"] = 2.0
    cfg["x0"]["coord"] = 10.0
    cfg["audit"] = {"epsilons": [30.0], "lambda": 0.1}
    path = write_config(tmp_path, cfg)
    assert run_cli("run", "--config", path, "--out", str(tmp_path / "r_")) == 0
    rc = run_cli("audit", "--config", path, "--out", str(tmp_path / "r_"))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: config: start point lies 10.0 from the solution anchor")
    cfg["problem"]["region_bound"] = 10.0  # the start on the region's edge
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r_"))
    assert rc == 0, capsys.readouterr().err


def test_missing_config_file_is_an_input_error(tmp_path, capsys):
    rc = run_cli("validate", "--config", str(tmp_path / "absent.json"))
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_unknown_top_level_field_is_rejected(tmp_path, capsys):
    cfg = rate_config(paths=2, horizon=2)
    cfg["extra"] = 1
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "unknown field" in capsys.readouterr().err


def test_invalid_start_point_is_rejected_with_field_path(tmp_path, capsys):
    cfg = rate_config(paths=2, horizon=2)
    cfg["x0"] = {"space": "halfplane", "x": 0.0, "y": 0.0}  # boundary: not a point
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "config.x0" in capsys.readouterr().err


def test_space_point_mismatch_is_rejected(tmp_path, capsys):
    cfg = rate_config(paths=2, horizon=2)
    cfg["x0"] = _tripod(0, 1.0)
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "config.x0" in capsys.readouterr().err


def test_cross_field_schedule_check_is_rejected(tmp_path, capsys):
    cfg = tripod_liminf_config(paths=2, horizon=2)
    cfg["schedule"] = CONSTANT_HALF  # not summable: invalid for sppa
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "config:" in capsys.readouterr().err


def test_fast_and_liminf_are_mutually_exclusive(tmp_path, capsys):
    cfg = fast_config(paths=2, horizon=2)
    cfg["audit"]["liminf"] = {"epsilon": 1.0, "start": 0}
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "at most one" in capsys.readouterr().err


def test_duplicate_audit_thresholds_are_rejected(tmp_path, capsys):
    cfg = rate_config(paths=2, horizon=2, epsilons=(1.0, 1.0))
    rc = run_cli("validate", "--config", write_config(tmp_path, cfg))
    assert rc == 1
    assert "distinct" in capsys.readouterr().err


@pytest.mark.parametrize("coords", [[1.0, 1.0, 1.0], [1.0]])
def test_start_point_of_another_dimension_is_an_input_error(tmp_path, capsys, coords):
    cfg = rate_config(paths=2, horizon=2)  # two half-planes of R^2
    cfg["x0"] = {"space": "euclidean", "coords": coords}
    rc = run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x_"))
    assert rc == 1
    assert "dimension" in capsys.readouterr().err


def test_liminf_audit_from_a_start_of_another_dimension_is_an_input_error(tmp_path, capsys):
    cfg = sb_liminf_config(paths=2, horizon=2)
    cfg["problem"] = {
        "kind": "mean_min",
        "space": "euclidean",
        "cost": HALF_SQUARED,
        "atoms": [
            {"point": _euclid(1.0, 0.0), "weight": 0.5},
            {"point": _euclid(-1.0, 2.0), "weight": 0.5},
        ],
        "region_bound": 4.0,
    }
    cfg["algorithm"] = "sppa"
    cfg["x0"] = {"space": "euclidean", "coords": [0.0, 0.0, 0.0]}
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x_"))
    assert rc == 1
    assert "dimension" in capsys.readouterr().err


def test_atoms_of_different_dimensions_are_an_input_error(tmp_path, capsys):
    cfg = sb_liminf_config(paths=2, horizon=2)
    cfg["algorithm"] = "sppa"
    cfg["problem"] = {
        "kind": "mean_min",
        "space": "euclidean",
        "cost": HALF_SQUARED,
        "atoms": [
            {"point": {"space": "euclidean", "coords": [-1.0, 0.0]}, "weight": 0.5},
            {"point": {"space": "euclidean", "coords": [1.0]}, "weight": 0.5},
        ],
    }
    rc = run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x_"))
    assert rc == 1
    assert "config.problem" in capsys.readouterr().err


def test_operator_set_of_another_space_is_an_input_error(tmp_path, capsys):
    cfg = tripod_liminf_config(paths=2, horizon=2)
    cfg["algorithm"] = "skm"
    cfg["schedule"] = CONSTANT_HALF
    cfg["problem"] = {
        "kind": "fixed_point",
        "space": "tripod",
        "operators": [{"set": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "weight": 1.0}],
    }
    rc = run_cli("run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x_"))
    assert rc == 1
    assert "outside the declared space" in capsys.readouterr().err


@pytest.mark.parametrize("audit", [
    {"epsilons": [1.0], "liminf": {"epsilon": 1.0, "start": 0}},
    {"epsilons": [1.0], "lambda": 0.1},
], ids=["gap_window", "rate"])
def test_whole_space_audit_from_a_three_dimensional_start(tmp_path, capsys, audit):
    # Every point solves a single whole-space operator, so b measures d(x0, x0)
    # = 0, in the start's own dimension.
    cfg = rate_config(paths=4, horizon=20)
    cfg["problem"] = {
        "kind": "fixed_point",
        "space": "euclidean",
        "operators": [{"set": {"kind": "whole_space"}, "weight": 1.0}],
    }
    cfg["x0"] = {"space": "euclidean", "coords": [1.0, 1.0, 1.0]}
    cfg["audit"] = audit
    rc = run_cli("audit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "w_"))
    assert rc == 0, capsys.readouterr().err
    assert "FAIL" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The exit-code contract over single-field edits
# ---------------------------------------------------------------------------

_ODD_VALUES = (None, "x", [], {}, -1, 0, 0.5, 1e300, 10**400, True, _DELETE)


def _field_paths(doc, at=()):
    """The path of every key and list index in doc, a parent before its children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _field_paths(value, at + (key,))


def test_every_single_field_edit_of_a_shipped_config_keeps_the_exit_code_contract():
    """Each edit parses or raises ConfigError (exit 1), and each parsed
    edit's audit check builds or raises ConfigError or NoModulusKnownError
    (exit 5): no edit fails as a runtime error (exit 3) before an ensemble
    runs."""
    edits, failures = 0, []
    for name in (FLAG, FAST, TRIPOD, SEGMENT):
        base = _shipped(name)
        base["ensemble"].update(paths=2, horizon=2)
        for field in _field_paths(base):
            for value in _ODD_VALUES:
                doc = copy.deepcopy(base)
                _set(doc, field, value if value is _DELETE else copy.deepcopy(value))
                edits += 1
                try:
                    exp = parse_experiment(doc)
                except ConfigError:
                    continue
                except Exception as exc:  # noqa: BLE001 - collected and reported below
                    failures.append((name, field, value, "parse", exc))
                    continue
                try:
                    _AUDITS[exp.audit.kind].check(exp)
                except (ConfigError, NoModulusKnownError):
                    pass
                except Exception as exc:  # noqa: BLE001
                    failures.append((name, field, value, "check", exc))
    assert edits == 1859
    assert not failures, failures


def test_epsilons_whose_square_roots_coincide_are_an_input_error(tmp_path, capsys):
    # The fast audit tracks sqrt(eps), and sqrt(1.0000000000000002) rounds to
    # 1.0: the two thresholds would be one column twice.
    cfg = _shipped(FAST)
    cfg["ensemble"].update(paths=2, horizon=2)
    cfg["audit"]["epsilons"] = [1.0, 1.0000000000000002]
    message = "config.audit.epsilons: tracked thresholds (1.0, 1.0) must be distinct"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_experiment(cfg)
    config = write_config(tmp_path, cfg)
    for command in ("validate", "run", "audit"):
        rc = run_cli(command, "--config", config, "--out", str(tmp_path / "x_"))
        err = capsys.readouterr().err
        assert rc == 1 and err == f"config error: {message}\n", (command, err)
