"""Benchmark of relqosc: one workload run, the self-test, or the full report.

    python3 perfbench/run.py --workload spectrum-fd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke     # a few ops of every workload, untraced and traced
    python3 perfbench/run.py --report    # every workload, every metric, tracing overhead

Run from a checkout: the package is imported from its src/ and nowhere else.
A run prints an `env` line (seed, git commit, sha256 of src/, versions,
CPU, nproc, thread pin) and, last, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Every run also writes
its full record, and a traced run its spans, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

# One BLAS/OpenMP thread in the benchmark process and every child (nproc >= 1).
BLAS_THREADS = "1"
# Fresh interpreters set up per timed run; setup_s is their median.
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
RUN_DEADLINE_S = 170.0
SMOKE_SECONDS = 1.0


class BenchError(RuntimeError):
    """A run that cannot give a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/**/*.py, which names the code under test without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def spawn_worker(mode: str, workload: str, seed: int, seconds: float, deadline: Deadline) -> Tuple[float, str]:
    """Start worker.py; return (spawn-to-READY seconds, the rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    limit = deadline.remaining()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    return setup, rest


def last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_probe(deadline: Deadline) -> Tuple[float, float, int]:
    """Fresh `import relqosc` under -X importtime: (relqosc s, scipy.linalg s, loaded 0/1)."""
    code = "import sys, relqosc; print(int('scipy.linalg' in sys.modules))"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=deadline.remaining(), check=False)
    if proc.returncode != 0:
        raise BenchError(f"import probe exited with code {proc.returncode}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6  # microseconds
    if "relqosc" not in cumulative:
        raise BenchError("import probe did not import relqosc")
    return cumulative["relqosc"], cumulative.get("scipy.linalg", 0.0), int(proc.stdout.strip())


def timed_run(workload: str, seed: int, seconds: float, deadline: Deadline) -> Tuple[dict, dict]:
    setups = [spawn_worker("probe", workload, seed, seconds, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, out = spawn_worker("timed", workload, seed, seconds, deadline)
    setups.append(setup)
    result = last_json(out)
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    result["setup_samples_s"] = setups
    return result, values


def traced_run(workload: str, seed: int, seconds: float, deadline: Deadline) -> Tuple[dict, dict]:
    probes = [import_probe(deadline) for _ in range(IMPORT_PROBES)]
    _, out = spawn_worker("traced", workload, seed, seconds, deadline)
    result = last_json(out)
    if result["span_problems"]:
        raise BenchError("span nesting broken: " + "; ".join(result["span_problems"]))
    values = dict(result["metrics"])
    values["import.relqosc_s"] = statistics.median(p[0] for p in probes)
    values["import.scipy_linalg_s"] = statistics.median(p[1] for p in probes)
    values["import.scipy_linalg_loaded"] = max(p[2] for p in probes)
    gap = result["cli_child_minus_main_ms"]
    values["cli.process_overhead_ms"] = gap - 1e3 * values["import.relqosc_s"] if gap is not None else 0.0
    return result, values


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Tuple[dict, dict]:
    """One run; returns (the result line, the record written under perfbench/out/)."""
    deadline = Deadline(RUN_DEADLINE_S)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    result, values = (traced_run if trace else timed_run)(workload, seed, seconds, deadline)
    missing, unknown = set(units) - set(values), set(values) - set(units)
    if missing or unknown:
        raise BenchError(f"metrics missing {sorted(missing)}, not in BENCHMARK.json {sorted(unknown)}")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise BenchError(f"non-finite metrics {bad}")
    line = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "src_sha256": source_digest(), "env": result.pop("env"),
        "result": line, "detail": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record), encoding="utf-8")
    return line, record


def env_line(record: dict) -> str:
    detail = record["detail"]
    info = {k: record[k] for k in ("workload", "seed", "trace", "commit", "src_sha256", "env")}
    for key in ("tail", "setup_samples_s", "errors", "spans"):
        if key in detail:
            info[key] = detail[key]
    return json.dumps({"env": info})


def smoke() -> int:
    """A few ops of every workload, untraced and traced; check every metric and unit."""
    spec = load_spec()
    problems: List[str] = []
    if set(spans.SHOULD_MOVE) != {m["name"] for m in spec["per_layer"]}:
        problems.append("spans.SHOULD_MOVE and BENCHMARK.json per_layer name different metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            try:
                line, _ = run_once(workload, 1, SMOKE_SECONDS * (1 + trace), trace)
            except BenchError as exc:
                problems.append(f"{tag}: {exc}")
                continue
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{tag}: correct={line['correct']} attempted={line['attempted']}")
            print(f"{tag}: {line['attempted']} ops, {line['failed']} failed, "
                  f"{len(line['metrics'])} metrics with units", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
    return 0 if not problems else 1


def report(seed: int, seconds: float) -> int:
    """Every workload: end-to-end metrics, then the per-layer table, then tracing overhead."""
    spec = load_spec()
    lines, tails = {}, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            lines[workload, trace], record = run_once(workload, seed, seconds, trace)
            tails.setdefault(workload, record["detail"].get("tail"))
            print(env_line(record), file=sys.stderr, flush=True)
    names = list(workloads.WORKLOADS)
    print(f"# end-to-end, seed {seed}, {seconds:g} s per run")
    for workload in names:
        line = lines[workload, 0]
        print(f"\n{workload}: attempted {line['attempted']}, failed {line['failed']}, correct {line['correct']}")
        for m in spec["end_to_end"]:
            v = line["metrics"][m["name"]]
            beside = ""
            if m["name"] == "op_ms_tail":
                beside = "  (p{percentile}, {samples_beyond} of {samples} samples beyond)".format(**tails[workload])
            print(f"  {m['name']:<14} {v['value']:>14.6g} {v['unit']}{beside}")
    print("\n# per layer, traced run")
    print(f"{'metric':<44} {'unit':<6} " + " ".join(f"{w:>12}" for w in names) + "  should move")
    for m in spec["per_layer"]:
        vals = " ".join(f"{lines[w, 1]['metrics'][m['name']]['value']:>12.5g}" for w in names)
        print(f"{m['name']:<44} {m['unit']:<6} {vals}  {spans.SHOULD_MOVE[m['name']]}")
    print("\n# tracing overhead: traced op_ms_p50 - untraced op_ms_p50, in the traced run")
    for w in names:
        got = {k: lines[w, 1]["metrics"][k]["value"] for k in
               ("trace.overhead_ms", "trace.traced_op_ms_p50", "trace.untraced_op_ms_p50")}
        print(f"  {w:<12} {got['trace.overhead_ms']:+.3f} ms "
              f"({got['trace.traced_op_ms_p50']:.3f} traced vs {got['trace.untraced_op_ms_p50']:.3f} untraced)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of relqosc.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test: a few ops of every workload")
    ap.add_argument("--report", action="store_true", help="run every workload and print every metric")
    args = ap.parse_args(argv)
    if sum((args.workload is not None, args.smoke, args.report)) != 1:
        ap.error("give exactly one of --workload, --smoke, --report")
    if not (SRC / "relqosc" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {SRC / 'relqosc'} or {SPEC_PATH} is missing; run from a checkout", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], stdout=subprocess.DEVNULL,
                   env=child_env(), timeout=120, check=False)
    seconds = args.seconds if args.seconds is not None else float(load_spec()["run_seconds"])
    try:
        if args.smoke:
            return smoke()
        if args.report:
            return report(args.seed, seconds)
        line, record = run_once(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(env_line(record))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
