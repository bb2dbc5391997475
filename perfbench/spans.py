"""Timing spans around relqosc's public functions, for the traced run only.

Tracer.install() rebinds every public function of the package's layer
modules, in every relqosc module namespace that holds it, to a wrapper that
records a span while an op is open. The LAPACK and dense calls the package
reaches (scipy.linalg.eigh_tridiagonal, numpy.linalg.eigvalsh) are wrapped
on their own modules and wherever a relqosc module binds them, and so are
the entries of verify.SUITES. restore() puts the originals back. Spans
stay in memory; worker.py writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

LAYER_MODULES = ("models", "specfun", "analytic", "solver", "susyblock", "verify", "cli")

# Per-layer metric -> the end-to-end metric and workload it should move.
# Names and units are in BENCHMARK.json; worker.py and run.py fill the values.
SHOULD_MOVE = {
    "import.relqosc_s": "setup_s on all workloads; op_ms_p50 on cli-cold",
    "import.scipy_linalg_s": "setup_s on all workloads; op_ms_p50 on cli-cold",
    "import.scipy_linalg_loaded": "setup_s on all workloads; op_ms_p50 on cli-cold",
    "solver.eigen_lowest.self_ms": "op_ms_p50 on spectrum-fd and levels-fd",
    "solver.eigen_lowest.calls": "op_ms_p50 on spectrum-fd and levels-fd",
    "solver.eigenpairs": "op_ms_p50 on spectrum-fd and levels-fd",
    "lapack.eigh_tridiagonal.self_ms": "op_ms_p50 on spectrum-fd and verify-all; no change on levels-fd",
    "lapack.calls": "op_ms_p50 on spectrum-fd and verify-all; no change on levels-fd",
    "lapack.vectors_discarded_ratio": "op_ms_p50 on spectrum-fd and verify-all; no change on levels-fd",
    "lapack.vector_bytes_computed": "op_ms_p50 on spectrum-fd and verify-all; no change on levels-fd",
    "solver.choose_domain.self_ms": "op_ms_p50 on verify-all",
    "solver.discretize.self_ms": "op_ms_p50 on verify-all",
    "models.effective_problem.self_ms": "op_ms_p50 on verify-all",
    "models.effective_problem.calls": "op_ms_p50 on verify-all",
    "solver.residual_pair_check.self_ms": "op_ms_p50 on levels-fd",
    "analytic.analytic_wavefunction.self_ms": "op_ms_p50 on levels-fd",
    "specfun.hermite.self_ms": "op_ms_p50 on levels-fd",
    "specfun.kummer_terminating.self_ms": "op_ms_p50 on levels-fd",
    "solver.fail_count": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.e2_rel_err.n8000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.e2_rel_err.n16000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.e2_rel_err.n32000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.solve_ms.n8000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.solve_ms.n16000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "solver.solve_ms.n32000": "fail_ratio and e2_rel_err_max on spectrum-fd",
    "susyblock.discretize_supercharge.self_ms": "op_ms_p50 on verify-all",
    "susyblock.susy_isospectrality_check.self_ms": "op_ms_p50 on verify-all",
    "susyblock.block_spectrum.self_ms": "op_ms_p50 on verify-all",
    "susyblock.commutator_rayleigh.self_ms": "op_ms_p50 on verify-all",
    "dense.eigvalsh.self_ms": "op_ms_p50 on verify-all",
    "verify.spectrum.ms": "op_ms_p50 and fail_ratio on verify-all",
    "verify.susy.ms": "op_ms_p50 and fail_ratio on verify-all",
    "verify.nonrel.ms": "op_ms_p50 and fail_ratio on verify-all",
    "verify.pair.ms": "op_ms_p50 and fail_ratio on verify-all",
    "verify.checks_failed": "op_ms_p50 and fail_ratio on verify-all",
    "cli.main.self_ms": "op_ms_p50 on cli-cold",
    "cli.stdout_bytes": "op_ms_p50 on cli-cold",
    "cli.process_overhead_ms": "op_ms_p50 on cli-cold",
    "fail_ratio": "failed/attempted of every run; spectrum-fd shows the N=32000 residual-bound failures",
    "e2_rel_err_max": "accuracy on spectrum-fd and levels-fd; must not rise when a solve gets faster",
    "trace.untraced_op_ms_p50": "base of trace.overhead_ms",
    "trace.traced_op_ms_p50": "base of trace.overhead_ms",
    "trace.overhead_ms": "nothing: the cost of tracing itself",
}

GRID_SIZES = (8000, 16000, 32000)

# Float rounding of perf_counter differences; a real overlap is far larger.
NESTING_SLACK_S = 1e-9


class Recorder:
    """Spans as [name, start, end, parent index, op id, attrs], kept in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        self.op = op_id
        idx = self.open("op")
        try:
            yield
        finally:
            self.close(idx)
            self.op = None


def _lapack_attrs(arguments: dict) -> dict:
    n = len(arguments["d"])
    lo, hi = arguments.get("select_range") or (0, n - 1)
    return {"n": n, "k": int(hi) - int(lo) + 1, "vectors": not arguments.get("eigvals_only", False)}


def _eigen_attrs(arguments: dict) -> dict:
    return {"k": int(arguments["k"])}


def _wrap(recorder: Recorder, name: str, fn, attrs=None):
    signature = inspect.signature(fn) if attrs else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if recorder.op is None:
            return fn(*args, **kwargs)
        info = attrs(signature.bind(*args, **kwargs).arguments) if attrs else None
        idx = recorder.open(name, info)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(idx)

    return traced


class Tracer:
    """Installs span wrappers into module namespaces and restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: List[tuple] = []  # (namespace, key, original)

    def _set(self, namespace, key, value) -> None:
        if isinstance(namespace, dict):
            self._saved.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._saved.append((namespace, key, getattr(namespace, key)))
            setattr(namespace, key, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        import relqosc

        modules = {name: importlib.import_module(f"relqosc.{name}") for name in LAYER_MODULES}
        wrappers: Dict[int, tuple] = {}
        for namespace, key, name, attrs in (
            (scipy.linalg, "eigh_tridiagonal", "lapack.eigh_tridiagonal", _lapack_attrs),
            (numpy.linalg, "eigvalsh", "dense.eigvalsh", None),
        ):
            fn = getattr(namespace, key)
            wrappers[id(fn)] = (fn, _wrap(self.recorder, name, fn, attrs))
            self._set(namespace, key, wrappers[id(fn)][1])
        for short, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    attrs = _eigen_attrs if name == "eigen_lowest" else None
                    wrappers[id(fn)] = (fn, _wrap(self.recorder, f"{short}.{name}", fn, attrs))
        for mod in (relqosc, *modules.values()):
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, key, hit[1])
        suites = modules["verify"].SUITES
        for key in list(suites):
            self._set(suites, key, _wrap(self.recorder, f"verify.{key}", suites[key]))

    def restore(self) -> None:
        for namespace, key, original in reversed(self._saved):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._saved.clear()


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children (s)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def nesting_problems(spans: List[list]) -> List[str]:
    """Spans with negative self time or children longer than themselves."""
    problems = []
    for i, st in enumerate(self_times(spans)):
        if spans[i][2] is None:
            problems.append(f"span {i} ({spans[i][0]}) never closed")
        elif st < -NESTING_SLACK_S:
            problems.append(f"span {i} ({spans[i][0]}) self time {st:.3e} s < 0")
    return problems


def _under(spans: List[list], span: list, name: str) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: List[list], n_ops: int) -> Dict[str, float]:
    """Span-derived per-layer metrics, per op of the traced phase."""
    selfs = self_times(spans)
    self_ms: Dict[str, float] = defaultdict(float)
    total_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (name, start, end, _p, _op, _a), st in zip(spans, selfs):
        self_ms[name] += st * 1e3
        total_ms[name] += (end - start) * 1e3
        calls[name] += 1
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for name in ("solver.eigen_lowest", "lapack.eigh_tridiagonal", "solver.choose_domain",
                 "solver.discretize", "models.effective_problem", "solver.residual_pair_check",
                 "analytic.analytic_wavefunction", "specfun.hermite", "specfun.kummer_terminating",
                 "susyblock.discretize_supercharge", "susyblock.susy_isospectrality_check",
                 "susyblock.block_spectrum", "susyblock.commutator_rayleigh", "dense.eigvalsh",
                 "cli.main"):
        out[f"{name}.self_ms"] = self_ms[name] * per_op
    for suite in ("spectrum", "susy", "nonrel", "pair"):
        out[f"verify.{suite}.ms"] = total_ms[f"verify.{suite}"] * per_op
    out["solver.eigen_lowest.calls"] = calls["solver.eigen_lowest"] * per_op
    out["models.effective_problem.calls"] = calls["models.effective_problem"] * per_op
    out["lapack.calls"] = calls["lapack.eigh_tridiagonal"] * per_op
    pairs = sum(s[5]["k"] for s in spans if s[0] == "solver.eigen_lowest")
    out["solver.eigenpairs"] = pairs * per_op
    with_vectors = [s for s in spans if s[0] == "lapack.eigh_tridiagonal" and s[5]["vectors"]]
    # Only numeric_levels hands the eigenvectors on; every other public caller
    # of eigen_lowest reads the eigenvalues and drops the vectors.
    discarded = sum(1 for s in with_vectors if not _under(spans, s, "solver.numeric_levels"))
    out["lapack.vectors_discarded_ratio"] = discarded / len(with_vectors) if with_vectors else 0.0
    out["lapack.vector_bytes_computed"] = sum(s[5]["n"] * s[5]["k"] * 8 for s in with_vectors) * per_op
    return out


def per_grid_metrics(records: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Accuracy against cost at each grid size N, from op records labelled with N.

    The worst E^2 error comes from every op that passed its gate, the median
    op time from the untraced ops only.
    """
    out = {}
    for n in GRID_SIZES:
        errs = [r["e2_rel_err"] for r in records
                if r["label"].get("n_points") == n and r["e2_rel_err"] is not None]
        ms = [r["ms"] for r in untraced if r["label"].get("n_points") == n]
        out[f"solver.e2_rel_err.n{n}"] = max(errs) if errs else 0.0
        out[f"solver.solve_ms.n{n}"] = median(ms) if ms else 0.0
    return out
