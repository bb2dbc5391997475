"""Command line front end.

Subcommands:

    spectrum      closed-form and finite-difference level tables
    wavefunction  sampled spinor profiles for one level
    verify        fixed-matrix verification suites with PASS/FAIL lines
    nonrel        weak-relativistic sweep over a list of light speeds
    ajc           ladder-operator route: A+A rungs and the paired +/- energies

Exit codes: 0 success, 1 verification failure, 2 bad arguments or model
validation, 3 numerical failure. Output is deterministic for a fixed BLAS
thread count: identical inputs then produce byte-identical CSV or JSON,
floats printed to 12 significant digits. Eigenvalues do not depend on the
thread count, but on large grids (N = 16000) the LAPACK stein eigenvectors,
and so the wavefunction samples, can differ in the 12th digit between one
and two BLAS threads.
Output is written as it is made: the wavefunction JSON document is streamed
one sample at a time rather than built whole.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .analytic import analytic_e2, analytic_wavefunction, build_spectrum_table
from .models import Family, ModelSpec, PhysicalParams, RadialProblem, default_spec, effective_problem, pair_recover_psi2
from .solver import Grid, SolverError, choose_domain, discretize, eigen_lowest, eigenvalues_lowest, numeric_spectrum
from .susyblock import KERNEL_LADDER_TOL, discretize_supercharge
from .verify import available_suites, nonrel_check, nonrel_sweep, run_suite

__all__ = ["RunConfig", "build_parser", "main"]

FAMILY_LABELS = [f.value for f in Family]
METHODS = ("analytic", "numeric", "both")
FORMATS = ("csv", "json")
DEFAULT_C_LIST = "10,20,40"


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation (config file + flags)."""

    family: Optional[str] = None
    m: float = 1.0
    c: float = 1.0
    omega: float = 1.0
    a: float = 1.0
    b: Optional[float] = None
    ml: Optional[int] = None
    levels: int = 5
    grid_n: int = 4000
    grid_max: Optional[float] = None
    method: str = "both"
    format: str = "csv"
    tolerance: float = 1e-4
    delta: Optional[float] = None
    out: Optional[str] = None

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.levels < 1:
            raise ValueError("levels must be a positive integer")
        if self.grid_n < 3:
            raise ValueError("grid-n must be at least 3")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.grid_max is not None and not self.grid_max > 0:
            raise ValueError("grid-max must be positive")
        if self.delta is not None and not self.delta > 0:
            raise ValueError("delta must be positive")

    def model_spec(self) -> ModelSpec:
        if self.family is None:
            raise ValueError("a model family is required (--family or config file)")
        default = default_spec(Family.from_label(self.family))
        b = default.params.b if self.b is None else self.b
        ml = default.ml if self.ml is None else self.ml
        params = PhysicalParams(m=self.m, c=self.c, omega=self.omega, a=self.a, b=b)
        return ModelSpec(default.family, params, ml=ml)

    def resolve_grid(self, problem: RadialProblem, k: int) -> Grid:
        if self.grid_max is not None:
            x_min = 0.0 if problem.singular_at_zero else -self.grid_max
            return Grid(x_min, self.grid_max, self.grid_n)
        return choose_domain(problem, k, n_points=self.grid_n)


_FIELD_TYPES = {
    "family": str, "m": float, "c": float, "omega": float, "a": float,
    "b": float, "ml": int, "levels": int, "grid_n": int, "grid_max": float,
    "method": str, "format": str, "tolerance": float, "delta": float, "out": str,
}


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path}: top level must be a JSON object")
    values = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"config file {path}: unknown key {key!r}")
        if value is None:
            continue
        try:
            values[key] = _FIELD_TYPES[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config file {path}: bad value for {key!r}: {value!r}") from exc
    return values


def make_config(args: argparse.Namespace) -> RunConfig:
    """Package defaults, overlaid by the config file, overlaid by explicit flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for field in _FIELD_TYPES:
        given = getattr(args, field, None)
        if given is not None:
            values[field] = given
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _round12(value):
    if value is None or isinstance(value, (int, np.integer, str, bool)):
        return value
    return float(f"{float(value):.12g}")


def _json_float(value) -> str:
    """json.dumps spelling of _round12(value) for a float: repr, or NaN/Infinity/-Infinity."""
    v = _round12(value)
    if math.isfinite(v):
        return repr(v)
    if math.isnan(v):
        return "NaN"
    return "Infinity" if v > 0 else "-Infinity"


def _csv_table(header: Sequence[str], rows, comment: Optional[str] = None) -> str:
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _params_json(spec: ModelSpec) -> dict:
    p = spec.params
    return {
        "m": _round12(p.m), "c": _round12(p.c), "omega": _round12(p.omega),
        "a": _round12(p.a), "b": _round12(p.b), "ml": spec.ml,
    }


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write text chunks, as they are made, to stdout or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = cfg.model_spec()
    k = cfg.levels
    analytic = build_spectrum_table(spec, k) if cfg.method in ("analytic", "both") else None
    numeric = None
    if cfg.method in ("numeric", "both"):
        grid = cfg.resolve_grid(effective_problem(spec), k) if cfg.grid_max is not None else None
        numeric = numeric_spectrum(spec, k, grid=grid, n_points=cfg.grid_n)
    rows = []
    for n in range(k):
        e2_a = analytic.levels[n].e2 if analytic else None
        e2_n = numeric.levels[n].e2 if numeric else None
        ref = analytic.levels[n] if analytic else numeric.levels[n]
        rel = None
        if analytic and numeric:
            rel = abs(e2_n - e2_a) / abs(e2_a)
        rows.append((n, e2_a, e2_n, ref.e, ref.eps, rel))
    if cfg.format == "json":
        doc = {
            "family": spec.family.value,
            "params": _params_json(spec),
            "method": cfg.method,
            "levels": [
                {
                    "n": n,
                    "e2_analytic": _round12(e2_a),
                    "e2_numeric": _round12(e2_n),
                    "e": _round12(e),
                    "eps": _round12(eps),
                    "rel_err": _round12(rel),
                }
                for n, e2_a, e2_n, e, eps, rel in rows
            ],
        }
        _emit([_json_doc(doc)], cfg.out)
    else:
        header = ("n", "e2_analytic", "e2_numeric", "e", "eps", "rel_err")
        _emit([_csv_table(header, rows)], cfg.out)
    return 0


def cmd_wavefunction(cfg: RunConfig, n: int) -> int:
    spec = cfg.model_spec()
    k = cfg.levels
    if n < 0 or n >= k:
        raise ValueError(f"level index n={n} outside 0 <= n < levels={k}")
    problem = effective_problem(spec)
    grid = cfg.resolve_grid(problem, k)
    results = eigen_lowest(discretize(problem, grid), k)
    lam = results[n].eigenvalue
    e2 = problem.lambda_to_e2(lam)
    if e2 < 0:
        raise SolverError(f"negative E^2 = {e2:.6g} at level {n}; refine the grid")
    e = math.sqrt(e2)
    psi1_num = results[n].vector
    psi1_ana = analytic_wavefunction(spec, n, grid.nodes)
    norm = math.sqrt(grid.h * float(np.sum(psi1_ana ** 2)))
    if norm > 0:
        psi1_ana = psi1_ana / norm
    if float(np.dot(psi1_ana, psi1_num)) < 0:
        psi1_ana = -psi1_ana
    psi2_num = pair_recover_psi2(spec, e, grid.nodes, psi1_num)
    meta = (
        f"family={spec.family.value} n={n} e={_fmt(e)} e2={_fmt(e2)} "
        f"grid_n={grid.n_points} x_min={_fmt(grid.x_min)} x_max={_fmt(grid.x_max)}"
    )
    header = ("x", "psi1_analytic", "psi1_numeric", "psi2_numeric")
    rows = zip(grid.nodes, psi1_ana, psi1_num, psi2_num)
    if cfg.format == "json":
        head = {
            "family": spec.family.value,
            "params": _params_json(spec),
            "n": n,
            "e": _round12(e),
            "e2": _round12(e2),
            "grid": {
                "x_min": _round12(grid.x_min),
                "x_max": _round12(grid.x_max),
                "n_points": grid.n_points,
            },
        }
        _emit(_samples_json(head, header, rows), cfg.out)
    else:
        _emit([_csv_table(header, rows, comment=meta)], cfg.out)
    return 0


def _samples_json(head: dict, fields: Sequence[str], rows) -> Iterator[str]:
    """The document {**head, "samples": [dict(zip(fields, row)), ...]} exactly as
    _json_doc prints it, made one sample at a time.

    json.dumps with indent always runs the pure-Python encoder, which would
    hold every sample dict and the whole text at once.
    """
    # Each sample is a nested object at depth 2 under indent=2.
    sample = "    {{\n" + ",\n".join(f"      {json.dumps(f)}: {{}}" for f in fields) + "\n    }}"
    # json.dumps(head, indent=2) ends with "\n}"; the samples key goes before it.
    yield json.dumps(head, indent=2)[:-2] + ',\n  "samples": ['
    sep = "\n"
    for row in rows:
        yield sep + sample.format(*map(_json_float, row))
        sep = ",\n"
    yield "\n  ]\n}\n"


def cmd_verify(suite: str, tolerance: float) -> int:
    results = run_suite(suite, tolerance)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.suite}/{r.name}: {r.detail}")
    summary_failures = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(summary_failures)}/{len(results)} checks passed")
    _emit(["\n".join(lines) + "\n"], None)
    if summary_failures:
        doc = {
            "failures": [
                {"suite": r.suite, "name": r.name, "detail": r.detail}
                for r in summary_failures
            ]
        }
        sys.stderr.write(_json_doc(doc))
        return 1
    return 0


def cmd_nonrel(cfg: RunConfig, c_list: str) -> int:
    c_values = _parse_c_list(c_list)
    if cfg.family is not None:
        families = [Family.from_label(cfg.family)]
    else:
        families = list(Family)
    n_max = cfg.levels - 1
    rows = []
    for family in families:
        base = dataclasses.replace(cfg, family=family.value)
        template = base.model_spec()

        def at_c(c, t=template):
            return ModelSpec(t.family, dataclasses.replace(t.params, c=c), ml=t.ml)

        sweep = nonrel_sweep(at_c, n_max, c_values=c_values)
        prev = {}
        for n, c, shift, eps, diff in sweep:
            ratio = None
            if n in prev and diff > 0:
                ratio = prev[n] / diff
            prev[n] = diff
            rows.append((family.value, n, c, shift, eps, diff, ratio))
    checks = [nonrel_check(family) for family in families]
    ok = all(r.passed for r in checks)
    if cfg.format == "json":
        doc = {
            "c_values": [_round12(c) for c in c_values],
            "rows": [
                {
                    "family": fam, "n": n, "c": _round12(c),
                    "e_minus_mc2": _round12(shift), "eps": _round12(eps),
                    "diff": _round12(diff), "ratio": _round12(ratio),
                }
                for fam, n, c, shift, eps, diff, ratio in rows
            ],
            "checks": [
                {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in checks
            ],
        }
        _emit([_json_doc(doc)], cfg.out)
    else:
        header = ("family", "n", "c", "e_minus_mc2", "eps", "diff", "ratio")
        _emit([_csv_table(header, rows)], cfg.out)
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.name}: {r.detail}" for r in checks]
        _emit(["\n".join(lines) + "\n"], None)
    return 0 if ok else 1


def _parse_c_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --c-list {text!r}: entries must be numbers") from exc
    if not values:
        raise ValueError("--c-list must contain at least one light speed")
    if any(not v > 0 for v in values):
        raise ValueError("--c-list entries must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("--c-list entries must be strictly increasing")
    return values


def cmd_ajc(cfg: RunConfig) -> int:
    spec = cfg.model_spec()
    k = cfg.levels
    problem = effective_problem(spec)
    delta = cfg.delta if cfg.delta is not None else problem.delta
    grid = cfg.resolve_grid(problem, k)
    pair = discretize_supercharge(spec, grid, delta=delta)
    eigenvalues = eigenvalues_lowest(pair.dtd_operator(), k).tolist()
    mc2 = spec.mc2
    c2 = spec.params.c ** 2
    ground_shift = analytic_e2(spec, 0) - mc2 ** 2
    genuine_kernel = ground_shift <= c2 * delta * KERNEL_LADDER_TOL
    rows = []
    next_n = 0
    for i, lam in enumerate(eigenvalues):
        lam = max(lam, 0.0)
        ata = lam / delta
        is_kernel = ata < KERNEL_LADDER_TOL
        e2 = mc2 ** 2 + c2 * lam
        e_plus = math.sqrt(e2)
        if is_kernel and not genuine_kernel:
            kernel, n, e2_a, rel = "spurious", None, None, None
        else:
            kernel = "genuine" if is_kernel else "none"
            n = next_n
            next_n += 1
            e2_a = analytic_e2(spec, n)
            rel = abs(e2 - e2_a) / abs(e2_a)
        rows.append((i, ata, kernel, e_plus, -e_plus, e2, n, e2_a, rel))
    if cfg.format == "json":
        doc = {
            "family": spec.family.value,
            "params": _params_json(spec),
            "delta": _round12(delta),
            "rows": [
                {
                    "index": i, "ata": _round12(ata), "kernel": kernel,
                    "e_plus": _round12(ep), "e_minus": _round12(em),
                    "e2": _round12(e2), "n": n,
                    "e2_analytic": _round12(e2_a), "rel_err": _round12(rel),
                }
                for i, ata, kernel, ep, em, e2, n, e2_a, rel in rows
            ],
        }
        _emit([_json_doc(doc)], cfg.out)
    else:
        header = ("index", "ata", "kernel", "e_plus", "e_minus", "e2", "n", "e2_analytic", "rel_err")
        meta = f"family={spec.family.value} delta={_fmt(delta)} grid_n={grid.n_points} x_max={_fmt(grid.x_max)}"
        _emit([_csv_table(header, rows, comment=meta)], cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    model = argparse.ArgumentParser(add_help=False)
    g = model.add_argument_group("model")
    g.add_argument("--family", choices=FAMILY_LABELS, help="oscillator family")
    g.add_argument("--m", type=float, help="rest mass (default 1)")
    g.add_argument("--c", type=float, help="light speed (default 1)")
    g.add_argument("--omega", type=float, help="harmonic frequency (default 1)")
    g.add_argument("--a", type=float, help="isotonic linear strength (default 1)")
    g.add_argument("--b", type=float, help="isotonic inverse strength (default 1 in 1D, 0.25 in 2D)")
    g.add_argument("--ml", type=int, help="angular index, 2D families only (default 1)")
    run = model.add_argument_group("run")
    run.add_argument("--levels", type=int, help="number of levels (default 5)")
    run.add_argument("--grid-n", type=int, dest="grid_n", help="interior grid points (default 4000)")
    run.add_argument("--grid-max", type=float, dest="grid_max", help="outer edge of the grid (default: automatic)")
    run.add_argument("--method", choices=METHODS, help="which route(s) to tabulate (default both)")
    run.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    run.add_argument("--tolerance", type=float, help="relative tolerance for checks (default 1e-4)")
    run.add_argument("--delta", type=float, help="ladder normalization (default 4*m*omega or 4*a)")
    run.add_argument("--out", help="write output to this file instead of stdout")
    run.add_argument("--config", help="JSON file of option defaults; explicit flags win")

    parser = argparse.ArgumentParser(
        prog="relqosc",
        description="Spectra and spinor profiles of relativistic oscillator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[model], help="tabulate energy levels")
    p_wave = sub.add_parser("wavefunction", parents=[model], help="sample one level's spinor profile")
    p_wave.add_argument("--n", type=int, default=0, help="level index (default 0, must be < levels)")
    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", choices=available_suites(), default="all")
    p_verify.add_argument("--tolerance", type=float, default=1e-4)
    p_nonrel = sub.add_parser("nonrel", parents=[model], help="weak-relativistic sweep")
    p_nonrel.add_argument("--c-list", dest="c_list", default=DEFAULT_C_LIST,
                          help="comma separated light speeds (default 10,20,40)")
    sub.add_parser("ajc", parents=[model], help="ladder route: A+A rungs and paired energies")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if not args.tolerance > 0:
                raise ValueError("tolerance must be positive")
            return cmd_verify(args.suite, args.tolerance)
        cfg = make_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, args.n)
        if args.command == "nonrel":
            return cmd_nonrel(cfg, args.c_list)
        if args.command == "ajc":
            return cmd_ajc(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
