"""One benchmark process: set up a workload, then run its closed loop.

run.py starts this script with the BLAS thread count pinned and PYTHONPATH
pointing at the checkout's src/:

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode M

Every mode first sets up (import, input generation, one warm-up op) and
prints READY. `probe` stops there. `timed` runs the untraced closed loop for
T seconds. `traced` runs an untraced half and a traced half of T. Both print
their results as one JSON line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# op_ms_tail is the highest percentile with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def run_op(wl, inp, op_id: int, recorder: Optional[spans.Recorder] = None) -> dict:
    """Time one op, then gate its output; failures are recorded, never dropped."""
    rec = {"op": op_id, "label": getattr(inp, "label", {}), "failure": None,
           "e2_rel_err": None, "checks_failed": 0, "stdout_bytes": 0}
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = wl.run(inp)
        else:
            with recorder.op_span(op_id):
                out = wl.run(inp)
    except wl.expected_errors as exc:
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        rec["failure"], rec["error"] = "solver", f"{type(exc).__name__}: {exc}"
        return rec
    except Exception as exc:  # the loop must go on; the op counts as wrong
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        traceback.print_exc(file=sys.stderr)
        rec["failure"], rec["error"] = "wrong", f"{type(exc).__name__}: {exc}"
        return rec
    rec["ms"] = (time.perf_counter() - t0) * 1e3
    outcome = wl.check(inp, out)
    rec.update(e2_rel_err=outcome.e2_rel_err if outcome.passed else None,
               checks_failed=outcome.checks_failed, stdout_bytes=outcome.stdout_bytes)
    if not outcome.passed:
        rec["failure"] = "solver" if outcome.solver_failure else "wrong"
    return rec


def closed_loop(wl, blocks, seconds: float, recorder=None, first_op: int = 0) -> Tuple[List[dict], float]:
    """One client, next op after the last one ends, stopping only between blocks.

    The loop stops once less than half a block's time is left, so the run
    lasts `seconds` give or take half a block.
    """
    records: List[dict] = []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        for inp in next(blocks):
            records.append(run_op(wl, inp, first_op + len(records), recorder))
        now = time.perf_counter()
        if now - start + 0.5 * (now - block_start) >= seconds:
            return records, now - start


def tail(sorted_ms: List[float]) -> Tuple[int, float, int]:
    """(percentile, value, samples beyond) at the highest nearest-rank
    percentile with TAIL_MIN_BEYOND samples above it; the maximum if none has."""
    n = len(sorted_ms)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, sorted_ms[rank - 1], n - rank
    return 100, sorted_ms[-1], 0


def _blas_versions() -> Dict[str, str]:
    import numpy
    import scipy

    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    for label, mod, key in (("numpy_blas", numpy, "blas"), ("scipy_lapack", scipy, "lapack")):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"][key]
            out[label] = f"{dep.get('name')} {dep.get('version')}"
        except (AttributeError, KeyError, TypeError, ValueError):
            out[label] = "unknown"
    return out


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), **_blas_versions(), "cpu": cpu,
        "nproc": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def timed_result(wl, records: List[dict], elapsed: float) -> dict:
    ms = sorted(r["ms"] for r in records)
    pct, tail_ms, beyond = tail(ms)
    rss = peak_rss_mb(wl)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "wrong": sum(1 for r in records if r["failure"] == "wrong"),
        "elapsed_s": elapsed,
        "metrics": {"op_ms_p50": median(ms), "op_ms_tail": tail_ms,
                    "ops_per_s": len(records) / elapsed, "peak_rss_mb": rss},
        "tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(ms)},
        "errors": sorted({r["error"] for r in records if "error" in r})[:5],
        "op_ms": [round(r["ms"], 4) for r in records],
        "env": environment(),
    }


def cli_child_minus_main_ms(untraced: List[dict]) -> float:
    """Median over the command mix of (cold child wall - in-process main)."""
    by_template: Dict[int, List[dict]] = {}
    for r in untraced:
        by_template.setdefault(r["label"]["template"], []).append(r)
    gaps = []
    for recs in by_template.values():
        t0 = time.perf_counter()
        code, _ = workloads.run_cli_child(recs[0]["label"]["argv"].split())
        wall_ms = (time.perf_counter() - t0) * 1e3
        if code == 0:
            gaps.append(wall_ms - median(r["ms"] for r in recs))
    return median(gaps) if gaps else 0.0


def traced_result(wl, blocks, name: str, seed: int, seconds: float) -> dict:
    untraced, _ = closed_loop(wl, blocks, seconds / 2)
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        traced, _ = closed_loop(wl, blocks, seconds / 2, recorder, first_op=len(untraced))
    finally:
        tracer.restore()
    records = untraced + traced
    metrics = spans.layer_metrics(recorder.spans, len(traced))
    metrics.update(spans.per_grid_metrics(records, untraced))
    passed_errs = [r["e2_rel_err"] for r in records if r["e2_rel_err"] is not None]
    p50_plain, p50_traced = median(r["ms"] for r in untraced), median(r["ms"] for r in traced)
    metrics.update({
        "solver.fail_count": sum(1 for r in records if r["failure"] == "solver"),
        "fail_ratio": sum(1 for r in records if r["failure"]) / len(records),
        "e2_rel_err_max": max(passed_errs) if passed_errs else 0.0,
        "verify.checks_failed": sum(r["checks_failed"] for r in records) / len(records),
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in traced) / len(traced),
        "trace.untraced_op_ms_p50": p50_plain,
        "trace.traced_op_ms_p50": p50_traced,
        "trace.overhead_ms": p50_traced - p50_plain,
    })
    child_gap = cli_child_minus_main_ms(untraced) if name == "cli-cold" else None
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"], "spans": recorder.spans}, fh)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "wrong": sum(1 for r in records if r["failure"] == "wrong"),
        "metrics": metrics,
        "cli_child_minus_main_ms": child_gap,
        "span_problems": spans.nesting_problems(recorder.spans)[:10],
        "spans": len(recorder.spans),
        "errors": sorted({r["error"] for r in records if "error" in r})[:5],
        "env": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "timed", "traced"))
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, in_process=args.mode == "traced")
    if "relqosc" in sys.modules:
        loaded = Path(sys.modules["relqosc"].__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            print(f"relqosc was imported from {loaded}, not from {SRC}", file=sys.stderr)
            return 2
    stream = wl.blocks()
    first = next(stream)
    run_op(wl, first[0], -1)  # warm-up, not recorded
    blocks = itertools.chain([first], stream)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0
    if args.mode == "timed":
        records, elapsed = closed_loop(wl, blocks, args.seconds)
        result = timed_result(wl, records, elapsed)
    else:
        result = traced_result(wl, blocks, args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
