"""Per-module tracing of fejerlab from outside its sources.

The tracer replaces chosen public functions of ``fejerlab`` modules with
timing wrappers, at every place the function is bound: ``harness`` and
``cli`` import names from ``problems``, ``spaces``, ``moduli`` and
``algorithms``, while ``rng`` is reached as a module attribute, so each
module's own global is patched as well as every alias of it.
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of probe:

* *spans* wrap coarse calls (an ensemble, an export, a certificate build)
  and record calls, inclusive wall time, self time and process CPU time;
* *leaves* wrap hot calls (RNG draws, geometry, per-sample problem
  evaluation) and aggregate calls, inclusive and self time per thread.

Each thread keeps its own frame stack, because the Euclidean kernel runs
chunks on a thread pool.  A frame's self time is its wall time minus the
time its wrapped callees on the same thread take.  Work a span hands to
the pool runs on threads with an empty stack; the wall time during which
any such thread is inside a wrapped call is also subtracted from the spans
open at that moment, so ``harness.run_ensemble`` self time is the wall time
of the ensemble that no wrapped layer accounts for.
"""

from __future__ import annotations

import sys
import threading
import time

# (module, function, metric) for the hot calls: aggregated per thread.
LEAVES = (
    ("rng", "uniforms", "rng.uniforms"),
    ("rng", "categorical", "rng.categorical"),
    ("rng", "next_uniform", "rng.next_uniform"),
    ("spaces", "distance", "spaces.distance"),
    ("spaces", "geodesic_point", "spaces.geodesic_point"),
    ("spaces", "project_convex", "spaces.project_convex"),
    ("problems", "sample_index", "problems.sample_index"),
    ("problems", "prox_step", "problems.prox_step"),
    ("problems", "dist_to_solutions", "problems.dist_to_solutions"),
    ("problems", "gap_F", "problems.gap_F"),
    ("moduli", "schedule_value", "moduli.schedule_value"),
    ("moduli", "divergence_witness_theta", "moduli.divergence_witness_theta"),
    ("moduli", "tail_rate_chi", "moduli.tail_rate_chi"),
)

# (module, function, metric) for the coarse calls.  Several functions may
# share one metric: every certificate builder counts as algorithms.certificate.
SPANS = (
    ("cli", "parse_experiment", "cli.parse_experiment"),
    ("spaces", "geometry_suite", "spaces.geometry_suite"),
    ("algorithms", "certificate_sppa", "algorithms.certificate"),
    ("algorithms", "certificate_skm", "algorithms.certificate"),
    ("algorithms", "certificate_sb", "algorithms.certificate"),
    ("algorithms", "fast_certificate_skm", "algorithms.certificate"),
    ("algorithms", "liminf_bound_sppa", "algorithms.certificate"),
    ("algorithms", "liminf_bound_skm", "algorithms.certificate"),
    ("algorithms", "liminf_bound_sb", "algorithms.certificate"),
    ("harness", "run_ensemble", "harness.run_ensemble"),
    ("harness", "export_results", "harness.export_results"),
    ("harness", "load_curves", "harness.load_curves"),
    ("harness", "certificate_audit", "harness.certificate_audit"),
    ("harness", "liminf_witness_check", "harness.liminf_witness_check"),
)

PACKAGE = "fejerlab"


class _ThreadState:
    __slots__ = ("stack", "leaves", "spans")

    def __init__(self) -> None:
        # One child-time accumulator per open frame on this thread.
        self.stack: list[float] = []
        # metric -> [calls, inclusive s, self s]
        self.leaves: dict[str, list] = {}
        # metric -> [calls, inclusive s, self s, cpu s]
        self.spans: dict[str, list] = {}


class Tracer:
    """Installs timing wrappers into the loaded ``fejerlab`` modules."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        # Wall-clock union of frames opened on threads with an empty stack.
        self._pool_active = 0
        self._pool_since = 0.0
        self._pool_covered = 0.0

    # -- bookkeeping -------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _pool_enter(self) -> None:
        with self._lock:
            if self._pool_active == 0:
                self._pool_since = time.perf_counter()
            self._pool_active += 1

    def _pool_exit(self) -> None:
        with self._lock:
            self._pool_active -= 1
            if self._pool_active == 0:
                self._pool_covered += time.perf_counter() - self._pool_since

    def _pool_covered_now(self) -> float:
        with self._lock:
            covered = self._pool_covered
            if self._pool_active:
                covered += time.perf_counter() - self._pool_since
        return covered

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, metric: str, fn):
        state = self._state
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            st = state()
            stack = st.stack
            pooled = not stack
            if pooled:
                self._pool_enter()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = st.leaves.get(metric)
                if rec is None:
                    rec = st.leaves[metric] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                if pooled:
                    self._pool_exit()

        leaf.__wrapped__ = fn
        return leaf

    def _span(self, metric: str, fn):
        state = self._state
        clock = time.perf_counter
        cpu = time.process_time

        def span(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0.0)
            p0 = self._pool_covered_now()
            c0 = cpu()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                dcpu = cpu() - c0
                pooled = self._pool_covered_now() - p0
                child = stack.pop()
                rec = st.spans.get(metric)
                if rec is None:
                    rec = st.spans[metric] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child - pooled
                rec[3] += dcpu
                if stack:
                    # The parent subtracts pool time itself; pass on only
                    # the part of this span the pool did not cover.
                    stack[-1] += dt - pooled

        span.__wrapped__ = fn
        return span

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the loaded fejerlab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for targets, make in ((LEAVES, self._leaf), (SPANS, self._span)):
            for mod_name, fn_name, metric in targets:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(home, fn_name)
                wrapper = make(metric, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where it was bound."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Merged per-metric totals over all threads.

        ``{"leaves": {metric: {"calls", "s", "self_s"}},
        "spans": {metric: {"calls", "s", "self_s", "cpu_s"}}}``; a metric
        never called is absent.
        """
        leaves: dict[str, list] = {}
        spans: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for merged, part in ((leaves, st.leaves), (spans, st.spans)):
                for metric, rec in part.items():
                    acc = merged.setdefault(metric, [0] + [0.0] * (len(rec) - 1))
                    for i, v in enumerate(rec):
                        acc[i] += v
        return {
            "leaves": {
                m: {"calls": r[0], "s": r[1], "self_s": r[2]} for m, r in leaves.items()
            },
            "spans": {
                m: {"calls": r[0], "s": r[1], "self_s": r[2], "cpu_s": r[3]}
                for m, r in spans.items()
            },
        }
