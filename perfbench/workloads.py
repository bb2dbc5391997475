"""Seeded inputs, the timed op and the correctness gate of each workload.

A workload turns the seed into an endless stream of blocks of op inputs.
The closed loop in worker.py stops only between blocks, so every run sees
the same mix of op costs. The program receives only the generated
ModelSpecs and argv lists; every check runs outside the timed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("spectrum-fd", "levels-fd", "verify-all", "cli-cold")

FAMILY_LABELS = ("1d-ho", "1d-iso", "2d-ho", "2d-iso")

# Allowed |E2_num - E2_ana| is ORDER_TOL_FACTOR * c^2 * lambda_n * (h^2 lambda_n)^(p/2)
# with p the stencil's observed order. Over the drawn parameter ranges the
# measured error stays below a fifth of this at every N used here.
ORDER_TOL_FACTOR = 1.0

# 1 - |<psi_ana, psi_num>| on the grid; measured values stay below 1e-8.
OVERLAP_DEFECT_MAX = 1e-6

CLI_TIMEOUT_S = 60.0

DIGESTS_PATH = Path(__file__).resolve().parent / "cli_digests.json"


@dataclass
class Outcome:
    """What the gate saw for one op that returned."""

    passed: bool
    e2_rel_err: Optional[float] = None
    checks_failed: int = 0
    stdout_bytes: int = 0
    # The op failed the way the solver reports a failure (a CLI exit 3),
    # not by returning a wrong answer.
    solver_failure: bool = False


@dataclass
class ModelInput:
    spec: object
    k: int
    n_points: int

    @property
    def label(self) -> Dict[str, object]:
        return {"family": self.spec.family.value, "k": self.k, "n_points": self.n_points}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_spec(rq, rng: random.Random, family):
    """A valid model of the family with seeded parameters."""
    Family = rq.Family
    m, c = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)
    if family is Family.HARMONIC_1D:
        return rq.ModelSpec(family, rq.PhysicalParams(m=m, c=c, omega=_log_uniform(rng, 0.5, 2.0)))
    if family is Family.ISOTONIC_1D:
        params = rq.PhysicalParams(m=m, c=c, a=_log_uniform(rng, 0.5, 2.0), b=rng.uniform(0.1, 2.0))
        return rq.ModelSpec(family, params)
    if family is Family.HARMONIC_2D:
        params = rq.PhysicalParams(m=m, c=c, omega=_log_uniform(rng, 0.5, 2.0))
        return rq.ModelSpec(family, params, ml=rng.choice((-3, -2, -1, 1, 2, 3)))
    a = _log_uniform(rng, 0.5, 2.0)
    while True:
        b, ml = rng.uniform(-1.0, 1.0), rng.choice((-2, -1, 0, 1, 2, 3))
        if (ml - b) ** 2 >= 0.25:
            return rq.ModelSpec(family, rq.PhysicalParams(m=m, c=c, a=a, b=b), ml=ml)


def default_spec(rq, family):
    """The family's model at the CLI defaults: unit m, c, omega, a; b = 1 in 1D,
    0.25 in 2D; ml = 1 in 2D."""
    Family = rq.Family
    if family is Family.ISOTONIC_2D:
        return rq.ModelSpec(family, rq.PhysicalParams(b=0.25), ml=1)
    if family is Family.HARMONIC_2D:
        return rq.ModelSpec(family, ml=1)
    return rq.ModelSpec(family)


def observed_order(rq, spec) -> float:
    """Grid order of the E^2 error: 2, or 1.5 in cusp sectors.

    A half-line eigenfunction starts as x**nu; a fractional nu below 2 is the
    power-law cusp the README names, where the 3-point stencil loses order.
    """
    p, fam = spec.params, spec.family
    if fam is rq.Family.HARMONIC_1D:
        return 2.0
    if fam is rq.Family.ISOTONIC_1D:
        nu = p.b + 1.0
    elif fam is rq.Family.HARMONIC_2D:
        nu = abs(spec.ml) + 0.5
    else:
        nu = abs(spec.ml - p.b) + 0.5
    return 1.5 if nu < 2.0 and nu != round(nu) else 2.0


def check_e2(rq, spec, k: int, grid, e2_numeric) -> Tuple[bool, float]:
    """Gate numeric E^2 against the closed-form table; returns (ok, worst rel err)."""
    problem = rq.effective_problem(spec)
    order = observed_order(rq, spec)
    exact = rq.build_spectrum_table(spec, k).e2_values()
    c2 = spec.params.c ** 2
    ok, worst = len(e2_numeric) == k, 0.0
    for n in range(min(k, len(e2_numeric))):
        lam = problem.lambda_estimate(n)
        tol = ORDER_TOL_FACTOR * c2 * lam * (grid.h ** 2 * lam) ** (order / 2.0)
        err = abs(float(e2_numeric[n]) - float(exact[n]))
        ok = ok and err <= tol
        worst = max(worst, err / abs(float(exact[n])))
    return ok, worst


class InProcess:
    """A workload whose ops call relqosc in this process on seeded models.

    Each block holds, per family, one op for every (k, N) in SHAPES, shuffled.
    """

    SHAPES: Tuple[Tuple[int, int], ...] = ()

    def __init__(self, seed: int):
        import relqosc

        self.rq = relqosc
        self.rng = random.Random(seed)
        self.expected_errors = (relqosc.SolverError,)
        self.rss_of_children = False

    def blocks(self) -> Iterator[list]:
        while True:
            block = [
                ModelInput(draw_spec(self.rq, self.rng, family), k, n_points)
                for family in self.rq.Family
                for k, n_points in self.SHAPES
            ]
            self.rng.shuffle(block)
            yield block


class SpectrumFD(InProcess):
    """numeric_spectrum: the eigenvalues-only use of a solve."""

    # Per family each (k, N) pair, with (8, 16000) and (8, 32000) twice. With
    # equal weights the median and the tail would sit on gaps between cost
    # classes and jump from run to run. Doubled, the median falls mid-way
    # into the (8, 16000) class and the tail inside the (8, 32000) ops.
    SHAPES = ((5, 8000), (8, 8000), (5, 16000), (8, 16000), (8, 16000), (5, 32000), (8, 32000), (8, 32000))

    # At N = 32000 whether a solve fails the residual bound depends on the
    # model's parameters, so drawn models there would make a run's failed
    # count depend on which models its last blocks drew. These ops use each
    # family's default model instead, so every block fails the same ops:
    # k = 5 on 1d-ho, 2d-ho and 2d-iso, and k = 8 on 1d-ho.
    FIXED_N = 32000

    def blocks(self) -> Iterator[list]:
        fixed = {family: default_spec(self.rq, family) for family in self.rq.Family}
        while True:
            block = [
                ModelInput(fixed[family] if n_points == self.FIXED_N
                           else draw_spec(self.rq, self.rng, family), k, n_points)
                for family in self.rq.Family
                for k, n_points in self.SHAPES
            ]
            self.rng.shuffle(block)
            yield block

    def run(self, inp: ModelInput):
        return self.rq.numeric_spectrum(inp.spec, inp.k, n_points=inp.n_points)

    def check(self, inp: ModelInput, table) -> Outcome:
        rq = self.rq
        grid = rq.choose_domain(rq.effective_problem(inp.spec), inp.k, n_points=inp.n_points)
        ok, worst = check_e2(rq, inp.spec, inp.k, grid, table.e2_values())
        return Outcome(passed=ok, e2_rel_err=worst)


class LevelsFD(InProcess):
    """What `relqosc wavefunction` computes, minus formatting, at levels 0, k/2 and k-1."""

    # Cost rises with N, then k. Doubled for the same reason as in
    # SpectrumFD: the median falls mid-way into the (8, 16000) class and the
    # tail inside the slowest family's (12, 16000) ops.
    SHAPES = ((8, 8000), (12, 8000), (8, 16000), (8, 16000), (12, 16000), (12, 16000))

    def run(self, inp: ModelInput):
        rq = self.rq
        grid, results = rq.numeric_levels(inp.spec, inp.k, n_points=inp.n_points)
        table = rq.numeric_spectrum(inp.spec, inp.k, grid=grid)
        profiles = []
        for n in (0, inp.k // 2, inp.k - 1):
            e, psi1 = table.levels[n].e, results[n].vector
            psi_ana = rq.analytic_wavefunction(inp.spec, n, grid.nodes)
            psi2 = rq.pair_recover_psi2(inp.spec, e, grid.nodes, psi1)
            residual = rq.residual_pair_check(inp.spec, e, grid, psi1)
            profiles.append((psi_ana, psi1, psi2, residual))
        return grid, table, profiles

    def check(self, inp: ModelInput, out) -> Outcome:
        import numpy as np

        grid, table, profiles = out
        ok, worst = check_e2(self.rq, inp.spec, inp.k, grid, table.e2_values())
        for psi_ana, psi1, psi2, residual in profiles:
            norm = math.sqrt(grid.h * float(psi_ana @ psi_ana))
            overlap = abs(grid.h * float(psi_ana @ psi1)) / norm if norm > 0 else 0.0
            ok = (ok and 1.0 - overlap <= OVERLAP_DEFECT_MAX
                  and bool(np.all(np.isfinite(psi2))) and math.isfinite(residual))
        return Outcome(passed=ok, e2_rel_err=worst)


class VerifyAll(InProcess):
    """In-process run_suite("all"); its parameter matrix is fixed, so the seed has no effect."""

    def blocks(self) -> Iterator[list]:
        while True:
            yield [None]

    def run(self, _inp):
        return self.rq.run_suite("all")

    def check(self, _inp, results) -> Outcome:
        failed = sum(1 for r in results if not r.passed)
        return Outcome(passed=bool(results) and failed == 0, checks_failed=failed)


# The cold-start command mix, taken round-robin; model commands get a seeded family.
CLI_TEMPLATES = (
    ("spectrum", "--method", "analytic"),
    ("spectrum",),
    ("nonrel",),
    ("ajc",),
    ("wavefunction", "--n", "2", "--grid-n", "4000"),
    ("wavefunction", "--n", "3", "--grid-n", "16000", "--format", "json"),
    ("verify", "--suite", "spectrum"),
)


def cli_argv(template: Tuple[str, ...], family: str) -> List[str]:
    if template[0] == "verify":
        return list(template)
    return [template[0], "--family", family, *template[1:]]


def all_cli_argvs() -> List[List[str]]:
    seen, out = set(), []
    for template in CLI_TEMPLATES:
        for family in FAMILY_LABELS:
            argv = cli_argv(template, family)
            if tuple(argv) not in seen:
                seen.add(tuple(argv))
                out.append(argv)
    return out


@dataclass
class CliInput:
    template: int
    argv: List[str]

    @property
    def label(self) -> Dict[str, object]:
        return {"template": self.template, "argv": " ".join(self.argv)}


def run_cli_child(argv: List[str]) -> Tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "relqosc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=False,
    )
    return proc.returncode, proc.stdout


class CliCold:
    """One `python -m relqosc.cli` child per op, one at a time.

    With in_process=True (the traced run) the op calls relqosc.cli.main(argv)
    with stdout captured instead, so spans can see inside it.
    """

    def __init__(self, seed: int, in_process: bool = False):
        self.rng = random.Random(seed)
        self.first_template = self.rng.randrange(len(CLI_TEMPLATES))
        self.digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        self.in_process = in_process
        self.expected_errors = ()
        self.rss_of_children = not in_process
        if in_process:
            import relqosc.cli

            self.cli = relqosc.cli

    def blocks(self) -> Iterator[List[CliInput]]:
        """One block is a whole round of the command mix, so every run weighs
        the commands the same."""
        while True:
            order = [(self.first_template + i) % len(CLI_TEMPLATES) for i in range(len(CLI_TEMPLATES))]
            yield [CliInput(t, cli_argv(CLI_TEMPLATES[t], self.rng.choice(FAMILY_LABELS))) for t in order]

    def run(self, inp: CliInput) -> Tuple[int, bytes]:
        if not self.in_process:
            return run_cli_child(inp.argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(inp.argv)
        return code, buf.getvalue().encode("utf-8")

    def check(self, inp: CliInput, out: Tuple[int, bytes]) -> Outcome:
        code, stdout = out
        digest = hashlib.sha256(stdout).hexdigest()
        ok = code == 0 and digest == self.digests.get(" ".join(inp.argv))
        return Outcome(passed=ok, stdout_bytes=len(stdout), solver_failure=code == 3)


def make(name: str, seed: int, in_process: bool = False):
    """The named workload; in_process only changes cli-cold (see CliCold)."""
    if name == "cli-cold":
        return CliCold(seed, in_process)
    return {"spectrum-fd": SpectrumFD, "levels-fd": LevelsFD, "verify-all": VerifyAll}[name](seed)
