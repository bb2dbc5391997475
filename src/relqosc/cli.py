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
Output is written as it is made: every CSV and JSON table is streamed one
chunk of rows at a time rather than built whole, and each chunk's float
cells are spelled together by a single "%.12g" format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .analytic import analytic_e2, analytic_wavefunction, build_spectrum_table
from .models import Family, ModelSpec, PhysicalParams, RadialProblem, default_spec, effective_problem, pair_recover_psi2
from .solver import Grid, SolverError, choose_domain, discretize, eigen_lowest, eigenvalues_lowest, spectrum_table
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
    "method": str, "format": str, "delta": float, "out": str,
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


def _json_cell(value) -> str:
    return json.dumps(_round12(value))


# Table rows are pulled, spelled and written this many at a time.
_CHUNK_ROWS = 256

# Cells spelled by one "%.12g" per chunk (np.float64 subclasses float); any
# other cell goes through _fmt or _json_cell on its own.
_FLOAT_TYPES = frozenset((float, np.float64))

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell_chunks(rows) -> Iterator[Tuple[int, tuple]]:
    """(row count, the cells of those rows in order) for each chunk of rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield len(chunk), tuple(chain.from_iterable(chunk))


def _all_floats(cells: tuple) -> bool:
    return _FLOAT_TYPES.issuperset(map(type, cells))


def _csv_floats(floats: tuple) -> List[str]:
    """_fmt of each float, from one % call."""
    return ("%.12g\n" * len(floats) % floats).splitlines()


def _json_floats(floats: tuple) -> List[str]:
    """_json_cell of each float, from one % call.

    A "%.12g" token already holds the digits of repr(float(token)); only the
    layout can differ, so a chunk whose every token has a "." and no e+1x or
    e-3xx exponent is spelled as json spells it.
    """
    text = "%.12g\n" * len(floats) % floats
    tokens = text.splitlines()
    if text.count(".") == len(tokens) and "e+1" not in text and "e-3" not in text:
        return tokens
    return [_json_token(t) for t in tokens]


def _json_token(token: str) -> str:
    # repr prints 1e12 <= |v| < 1e16 positionally and subnormals with fewer digits.
    if "e+1" in token or "e-3" in token:
        return repr(float(token))
    if "." in token or "e" in token:
        return token
    return _JSON_NONFINITE.get(token, token + ".0")


def _spell_cells(cells: tuple, spell_floats, spell_other) -> List[str]:
    """The text of each cell: spell_floats on all float cells at once, spell_other on each other cell."""
    if _all_floats(cells):
        return spell_floats(cells)
    spelled = iter(spell_floats(tuple(v for v in cells if type(v) in _FLOAT_TYPES)))
    return [next(spelled) if type(v) in _FLOAT_TYPES else spell_other(v) for v in cells]


def _csv_field(text: str) -> str:
    """text as one CSV field: csv.writer's minimal quoting, applied when it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(value) -> str:
    return _csv_field(_fmt(value))


def _csv_table(header: Sequence[str], rows, comment: Optional[str] = None) -> Iterator[str]:
    """An optional '# comment' line, the header and the rows, made one chunk of rows at a time."""
    if comment is not None:
        yield f"# {comment}\n"
    yield ",".join(map(_csv_field, header)) + "\n"
    row_floats = ",".join(["%.12g"] * len(header)) + "\n"
    row_text = row_floats.replace("%.12g", "%s")
    for n, cells in _cell_chunks(rows):
        if _all_floats(cells):
            yield row_floats * n % cells
        else:
            yield row_text * n % tuple(_spell_cells(cells, _csv_floats, _csv_cell))


def _json_table(head: dict, key: str, fields: Sequence[str], rows, tail: Optional[dict]) -> Iterator[str]:
    """The document {**head, key: [dict(zip(fields, row)), ...], **(tail or {})}
    exactly as json.dumps(doc, indent=2) + "\n" prints it, made one chunk of
    rows at a time.

    json.dumps with indent always runs the pure-Python encoder, which would
    hold every row dict and the whole text at once. Every command passes a
    non-empty head and at least one row: json.dumps spells an empty list "[]",
    which this would print as "[\n  ]".
    """
    # Each row is a nested object at depth 2 under indent=2.
    names = [json.dumps(f).replace("%", "%%") for f in fields]
    row_text = "    {\n" + ",\n".join(f"      {name}: %s" for name in names) + "\n    }"
    # json.dumps(head, indent=2) ends with "\n}"; the list key goes before it.
    yield json.dumps(head, indent=2)[:-2] + f",\n  {json.dumps(key)}: ["
    sep = "\n"
    for n, cells in _cell_chunks(rows):
        yield sep + ",\n".join([row_text] * n) % tuple(_spell_cells(cells, _json_floats, _json_cell))
        sep = ",\n"
    # The tail's keys sit at depth 1, as the head's do: drop its opening "{".
    yield "\n  ]" + ("," + json.dumps(tail, indent=2)[1:] if tail else "\n}") + "\n"


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


def _emit_table(cfg: RunConfig, header: Sequence[str], rows, head: dict, key: str = "rows",
                comment: Optional[str] = None, tail: Optional[dict] = None) -> None:
    """Write one table in cfg.format: CSV with an optional '#' comment line, or
    the JSON document {**head, key: [dict(zip(header, row)), ...], **tail}."""
    if cfg.format == "json":
        _emit(_json_table(head, key, header, rows, tail), cfg.out)
    else:
        _emit(_csv_table(header, rows, comment), cfg.out)


def _check_line(r) -> str:
    return f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.name}: {r.detail}"


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = cfg.model_spec()
    k = cfg.levels
    analytic = build_spectrum_table(spec, k) if cfg.method in ("analytic", "both") else None
    numeric = None
    if cfg.method in ("numeric", "both"):
        problem = effective_problem(spec)
        grid = cfg.resolve_grid(problem, k)
        numeric = spectrum_table(problem, eigenvalues_lowest(discretize(problem, grid), k))
    rows = []
    for n in range(k):
        e2_a = analytic.levels[n].e2 if analytic else None
        e2_n = numeric.levels[n].e2 if numeric else None
        ref = analytic.levels[n] if analytic else numeric.levels[n]
        rel = None
        if analytic and numeric:
            rel = abs(e2_n - e2_a) / abs(e2_a)
        rows.append((n, e2_a, e2_n, ref.e, ref.eps, rel))
    header = ("n", "e2_analytic", "e2_numeric", "e", "eps", "rel_err")
    head = {"family": spec.family.value, "params": _params_json(spec), "method": cfg.method}
    _emit_table(cfg, header, rows, head, key="levels")
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
    _emit_table(cfg, header, rows, head, key="samples", comment=meta)
    return 0


def cmd_verify(suite: str, tolerance: float) -> int:
    results = run_suite(suite, tolerance)
    lines = [_check_line(r) for r in results]
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
    header = ("family", "n", "c", "e_minus_mc2", "eps", "diff", "ratio")
    head = {"c_values": [_round12(c) for c in c_values]}
    tail = {
        "checks": [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in checks
        ],
    }
    _emit_table(cfg, header, rows, head, tail=tail)
    if cfg.format == "csv":
        _emit(["\n".join(map(_check_line, checks)) + "\n"], None)
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
    header = ("index", "ata", "kernel", "e_plus", "e_minus", "e2", "n", "e2_analytic", "rel_err")
    head = {"family": spec.family.value, "params": _params_json(spec), "delta": _round12(delta)}
    meta = f"family={spec.family.value} delta={_fmt(delta)} grid_n={grid.n_points} x_max={_fmt(grid.x_max)}"
    _emit_table(cfg, header, rows, head, comment=meta)
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
