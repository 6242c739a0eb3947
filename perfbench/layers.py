"""Untraced layer probes for one workload config.

Usage:
    python3 perfbench/layers.py CONFIG_JSON

Prints one JSON object:

* ``threads1_s`` / ``threads_s``: ``run_ensemble`` on one thread and on the
  config's thread count (``run.py`` checks that the two give the same
  curves);
* ``chunk_bytes``: the per-chunk distance and gap matrices,
  2 x m x (horizon+1) x 8 bytes with m = min(CHUNK, paths), computed from
  the shape, not measured;
* ``witness_s`` / ``witness_errors``: ``divergence_witness_theta`` for the
  harmonic schedule (a=1, s=1, k=0) at each probe budget, with the error
  of every budget that raised.  Budgets of about 709-2636 raise
  ``OverflowError`` at the seed commit (``_harmonic_partial_mp`` converts
  ``m + s + 1`` to a float once the witness passes ~1e308); the probe counts
  that failure rather than avoiding the budget.
"""

import json
import sys
import time

from fejerlab.cli import parse_experiment
from fejerlab.harness import CHUNK, run_ensemble
from fejerlab.moduli import Harmonic, divergence_witness_theta

WITNESS_BUDGETS = (20, 200, 600, 800)


def _ensemble_s(exp, threads: int) -> float:
    t0 = time.perf_counter()
    run_ensemble(
        exp.problem,
        exp.algorithm,
        exp.sched,
        exp.x0,
        exp.paths,
        exp.horizon,
        exp.seed,
        exp.epsilons,
        threads=threads,
    )
    return time.perf_counter() - t0


def main(config_path: str) -> dict:
    with open(config_path) as fh:
        exp = parse_experiment(json.load(fh))
    t1 = _ensemble_s(exp, 1)
    tn = _ensemble_s(exp, exp.threads)

    witness_s, witness_errors = {}, {}
    for budget in WITNESS_BUDGETS:
        t0 = time.perf_counter()
        try:
            divergence_witness_theta(Harmonic(1.0, 1.0), "identity", 0, float(budget))
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            witness_errors[str(budget)] = f"{type(exc).__name__}: {exc}"
        witness_s[str(budget)] = time.perf_counter() - t0

    return {
        "threads1_s": t1,
        "threads_s": tn,
        "chunk_bytes": 2 * min(CHUNK, exp.paths) * (exp.horizon + 1) * 8,
        "witness_s": witness_s,
        "witness_errors": witness_errors,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
