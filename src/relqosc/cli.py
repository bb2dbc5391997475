"""Command line front end.

Subcommands:

    spectrum      closed-form and finite-difference level tables
    wavefunction  sampled spinor profiles for one level
    verify        fixed-matrix verification suites with PASS/FAIL lines
    nonrel        weak-relativistic sweep over a list of light speeds
    ajc           ladder-operator route: A+A rungs and the paired +/- energies

Exit codes: 0 success, 1 verification failure, 2 bad arguments or model
validation, 3 runtime or solver error. Output is deterministic for a fixed BLAS
thread count: identical inputs then produce byte-identical CSV or JSON,
floats printed to 12 significant digits. Eigenvalues do not depend on the
thread count, but on large grids (N = 16000) the LAPACK stein eigenvectors,
and so the wavefunction samples, can differ in the 12th digit between one
and two BLAS threads.
Output is written as it is made: every CSV and JSON table is streamed one
chunk of rows at a time rather than built whole. A chunk of float cells only
(the wavefunction samples) is spelled by a single "%.12g" format; the short
tables that mix in integers, strings or empty cells are spelled cell by cell.
The console script and `python -m relqosc.cli` both start through entry(),
which freezes the imported objects before it runs main().
"""

# No `from __future__ import annotations`: make_config converts config
# values by RunConfig's field types, which must be objects, not strings.
import argparse
import dataclasses
import gc
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, get_args

import numpy as np

from .analytic import analytic_e2, analytic_wavefunction, build_spectrum_table
from .models import Family, ModelSpec, default_spec, effective_problem, pair_recover_psi2
from .solver import DEFAULT_N_POINTS, SolverError, choose_domain, eigenvalues_lowest, solve, spectrum_table
from .susyblock import KERNEL_LADDER_TOL, discretize_supercharge
from .verify import DEFAULT_TOLERANCE, NONREL_C_VALUES, available_suites, nonrel_check, nonrel_sweep, run_suite

__all__ = ["RunConfig", "build_parser", "main", "entry"]

FAMILY_LABELS = [f.value for f in Family]
METHODS = ("analytic", "numeric", "both")
FORMATS = ("csv", "json")


@dataclass
class RunConfig:
    """Resolved options for one CLI invocation (config file + flags); a model value left None is the family default."""

    family: Optional[str] = None
    m: Optional[float] = None
    c: Optional[float] = None
    omega: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    ml: Optional[int] = None
    levels: int = 5
    grid_n: int = DEFAULT_N_POINTS
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
        if self.grid_max is not None and not 0 < self.grid_max < math.inf:
            raise ValueError(f"grid-max must be positive and finite, got {self.grid_max}")

    def model_spec(self) -> ModelSpec:
        if self.family is None:
            raise ValueError("a model family is required (--family or config file)")
        default = default_spec(Family.from_label(self.family))
        given = {name: getattr(self, name) for name in ("m", "c", "omega", "a", "b") if getattr(self, name) is not None}
        params = dataclasses.replace(default.params, **given)
        ml = default.ml if self.ml is None else self.ml
        return ModelSpec(default.family, params, ml=ml)


def _load_config_file(path: str, types: dict) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path}: top level must be a JSON object")
    values = {}
    for key, value in raw.items():
        if key not in types:
            raise ValueError(f"config file {path}: unknown key {key!r}")
        if value is None:
            continue
        kind = types[key]
        # As the flags do: no booleans, and no fraction where an integer goes.
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"config file {path}: bad value for {key!r}: {value!r}")
        try:
            values[key] = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"config file {path}: bad value for {key!r}: {value!r}") from exc
    return values


def make_config(args: argparse.Namespace) -> RunConfig:
    """Package defaults, overlaid by the config file, overlaid by explicit flags.

    The config file may set only the command's own options, each to its RunConfig field's type.
    """
    options = vars(args)
    # Optional[X] is Union[X, None], whose first argument is X.
    types = {f.name: (get_args(f.type) or (f.type,))[0] for f in dataclasses.fields(RunConfig) if f.name in options}
    values = _load_config_file(args.config, types) if args.config else {}
    values.update((name, options[name]) for name in types if options[name] is not None)
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

# A chunk whose cells are all of these types (np.float64 subclasses float) is
# spelled by one "%.12g" format; any other chunk cell by cell, by _csv_cell or
# _json_cell.
_FLOAT_TYPES = frozenset((float, np.float64))

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cell_chunks(rows) -> Iterator[Tuple[int, tuple]]:
    """(row count, the cells of those rows in order) for each chunk of rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield len(chunk), tuple(chain.from_iterable(chunk))


def _all_floats(cells: tuple) -> bool:
    return _FLOAT_TYPES.issuperset(map(type, cells))


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
            yield row_text * n % tuple(map(_csv_cell, cells))


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
        spelled = _json_floats(cells) if _all_floats(cells) else map(_json_cell, cells)
        yield sep + ",\n".join([row_text] * n) % tuple(spelled)
        sep = ",\n"
    # The tail's keys sit at depth 1, as the head's do: drop its opening "{".
    yield "\n  ]" + ("," + json.dumps(tail, indent=2)[1:] if tail else "\n}") + "\n"


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
                comment: Optional[str] = None, tail: Optional[dict] = None, csv_tail: Iterable[str] = ()) -> None:
    """Write one table in cfg.format: CSV with an optional '#' comment line and
    the csv_tail text after the rows, or the JSON document
    {**head, key: [dict(zip(header, row)), ...], **tail}."""
    if cfg.format == "json":
        _emit(_json_table(head, key, header, rows, tail), cfg.out)
    else:
        _emit(chain(_csv_table(header, rows, comment), csv_tail), cfg.out)


def _check_line(r) -> str:
    return f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.name}: {r.detail}"


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = cfg.model_spec()
    k = cfg.levels
    analytic = build_spectrum_table(spec, k) if cfg.method in ("analytic", "both") else None
    numeric = None
    if cfg.method in ("numeric", "both"):
        _, problem, eigenvalues, _ = solve(spec, k, n_points=cfg.grid_n, x_max=cfg.grid_max)
        numeric = spectrum_table(problem, eigenvalues)
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
    grid, problem, _, results = solve(spec, k, n_points=cfg.grid_n, x_max=cfg.grid_max, vectors=True)
    level = spectrum_table(problem, [results[n].eigenvalue]).levels[0]
    e, e2 = level.e, level.e2
    psi1_num = results[n].vector
    psi1_ana = analytic_wavefunction(spec, n, grid.nodes)
    peak = float(np.max(np.abs(psi1_ana)))
    if peak == 0:
        raise ValueError(
            f"the closed-form psi1 of level {n} is zero at every node of this grid "
            f"([{grid.x_min:g}, {grid.x_max:g}], {grid.n_points} nodes), so it cannot be normalized"
        )
    # Scaled by a power of two, which is exact, below 1 in magnitude: no square in the norm overflows.
    psi1_ana = np.ldexp(psi1_ana, -math.frexp(peak)[1])
    psi1_ana = psi1_ana / math.sqrt(grid.h * float(np.sum(psi1_ana ** 2)))
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
    failures = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    _emit(["\n".join(lines) + "\n"], None)
    if failures:
        doc = {"failures": [{"suite": r.suite, "name": r.name, "detail": r.detail} for r in failures]}
        sys.stderr.write(json.dumps(doc, indent=2) + "\n")
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
        spec = dataclasses.replace(cfg, family=family.value).model_spec()
        rows.extend((family.value, *row) for row in nonrel_sweep(spec, n_max, c_values=c_values))
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
    _emit_table(cfg, header, rows, head, tail=tail, csv_tail=[line + "\n" for line in map(_check_line, checks)])
    return 0 if ok else 1


def _parse_c_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --c-list {text!r}: entries must be numbers") from exc
    if not values:
        raise ValueError("--c-list must contain at least one light speed")
    if not all(map(math.isfinite, values)):
        raise ValueError("--c-list entries must be finite")
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
    grid = choose_domain(problem, k, cfg.grid_n, cfg.grid_max)
    pair = discretize_supercharge(spec, grid, delta=delta)
    eigenvalues = eigenvalues_lowest(pair.dtd_operator(), k).tolist()
    mc2 = spec.mc2
    c2 = spec.params.c ** 2
    # Kernel rows are judged on the problem's own ladder scale; --delta scales only the ata column.
    ground_shift = analytic_e2(spec, 0) - mc2 ** 2
    genuine_kernel = ground_shift <= c2 * problem.delta * KERNEL_LADDER_TOL
    rows = []
    next_n = 0
    for i, lam in enumerate(eigenvalues):
        lam = max(lam, 0.0)
        ata = lam / delta
        if not math.isfinite(ata):
            raise ValueError(f"A+A rung {lam:g}/delta is not finite at delta={delta:g}")
        is_kernel = lam / problem.delta < KERNEL_LADDER_TOL
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
    run.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    run.add_argument("--out", help="write output to this file instead of stdout")
    run.add_argument("--config", help="JSON file of this command's option defaults; explicit flags win")
    grid = argparse.ArgumentParser(add_help=False)
    grid_run = grid.add_argument_group("run")
    grid_run.add_argument("--grid-n", type=int, dest="grid_n", help=f"interior grid points (default {DEFAULT_N_POINTS})")
    grid_run.add_argument("--grid-max", type=float, dest="grid_max", help="outer edge of the grid (default: automatic)")

    parser = argparse.ArgumentParser(
        prog="relqosc",
        description="Spectra and spinor profiles of relativistic oscillator models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_spectrum = sub.add_parser("spectrum", parents=[model, grid], help="tabulate energy levels")
    p_spectrum.add_argument("--method", choices=METHODS, help="which route(s) to tabulate (default both)")
    p_wave = sub.add_parser("wavefunction", parents=[model, grid], help="sample one level's spinor profile")
    p_wave.add_argument("--n", type=int, default=0, help="level index (default 0, must be < levels)")
    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", choices=available_suites(), default="all",
                          help="the suite to run, or all of them (default %(default)s)")
    p_verify.add_argument("--tolerance", type=float,
                          help="relative E^2 tolerance of the spectrum suite's two numeric checks "
                               f"(default {DEFAULT_TOLERANCE:g}), with --suite spectrum or all only; "
                               "every other check has a fixed bound")
    p_nonrel = sub.add_parser("nonrel", parents=[model], help="weak-relativistic sweep")
    p_nonrel.add_argument("--c-list", dest="c_list", default=",".join(f"{c:g}" for c in NONREL_C_VALUES),
                          help="comma separated light speeds (default %(default)s, the nonrel suite's)")
    p_ajc = sub.add_parser("ajc", parents=[model, grid], help="ladder route: A+A rungs and paired energies")
    p_ajc.add_argument("--delta", type=float, help="ladder normalization: A+A rung = D^T D eigenvalue / delta "
                       "(default 4*m*omega in the harmonic families, 4*a in the isotonic ones); it scales only "
                       "the ata column, kernel rows are judged on the default scale")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A flag that this run would not read is an error, as argparse makes one
        # that the command never reads.
        if args.command == "verify":
            if args.tolerance is not None and args.suite not in ("spectrum", "all"):
                raise ValueError(f"--tolerance is read only by the spectrum suite, not by --suite {args.suite}")
            tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
            if not 0 < tolerance < math.inf:
                raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
            return cmd_verify(args.suite, tolerance)
        cfg = make_config(args)
        if args.command == "spectrum":
            if cfg.method == "analytic" and (args.grid_n is not None or args.grid_max is not None):
                raise ValueError("--grid-n and --grid-max are read only when spectrum solves (--method numeric or both)")
            return cmd_spectrum(cfg)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, args.n)
        if args.command == "nonrel":
            return cmd_nonrel(cfg, args.c_list)
        return cmd_ajc(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """Process entry of the `relqosc` console script and `python -m relqosc.cli`."""
    # Everything imported so far lives until the process ends. Freezing moves
    # it out of the collector's generations, so the cyclic collections of
    # interpreter shutdown skip numpy's import graph, while shutdown itself
    # (atexit handlers, stream flushes, profilers, coverage) still runs in
    # full. Only the process entry freezes: main() also runs inside tests and
    # other programs, whose garbage a freeze would pin for good.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
