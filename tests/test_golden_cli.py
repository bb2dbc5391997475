"""Golden CLI output: the sha256 of stdout for a fixed list of argvs.

Every subcommand and family runs in this process, in CSV and JSON, at the
defaults and at two other parameter sets, with and without --grid-max.
Grids stay at N <= 4000, where the bytes do not depend on the BLAS thread
count. golden_cli.json holds the digests; rewrite it only for an intended
change of the output, and name each changed argv in the change:

    PYTHONPATH=src python tests/test_golden_cli.py

Every argv of the benchmark's own digests (perfbench/cli_digests.json, read
only) is checked too. The 21 at N <= 4000 run in this process; the N = 16000
wavefunction tables each run in a fresh `python -m relqosc.cli` with one
BLAS thread, as the benchmark runs them.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relqosc.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
BENCH_DIGESTS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "cli_digests.json"
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

FAMILIES = ("1d-ho", "1d-iso", "2d-ho", "2d-iso")
FORMATS = ((), ("--format", "json"))


def param_sets(family):
    """The defaults and two other parameter sets; the second puts 2D families at ml = -2."""
    two_d = family.startswith("2d")
    return (
        (),
        ("--m", "2", "--c", "1.5", "--omega", "0.8", "--a", "0.7", "--b", "0.5"),
        ("--m", "0.5", "--c", "3", "--omega", "1.7", "--a", "1.3", "--b", "2.5")
        + (("--ml", "-2") if two_d else ()),
    )


def golden_argvs():
    argvs = []
    for family in FAMILIES:
        model = ("--family", family)
        for params in param_sets(family):
            for fmt in FORMATS:
                argvs.append(("spectrum", *model, *params, *fmt))
                argvs.append(("wavefunction", *model, *params, "--n", "2", "--grid-n", "1000", *fmt))
                argvs.append(("nonrel", *model, *params, *fmt))
                argvs.append(("ajc", *model, *params, *fmt))
        for method in ("analytic", "numeric"):
            argvs.append(("spectrum", *model, "--method", method, "--levels", "7"))
        argvs.append(("spectrum", *model, "--method", "analytic", "--format", "json"))
        argvs.append(("spectrum", *model, "--levels", "1"))
        for fmt in FORMATS:
            argvs.append(("spectrum", *model, "--grid-max", "9", "--grid-n", "3000", *fmt))
        argvs.append(("wavefunction", *model))
        argvs.append(("wavefunction", *model, "--grid-max", "6", "--grid-n", "500", "--format", "json"))
        argvs.append(("wavefunction", *model, "--n", "4", "--levels", "6"))
        argvs.append(("ajc", *model, "--grid-max", "8", "--levels", "3"))
        argvs.append(("ajc", *model, "--delta", "2.5", "--grid-n", "2000", "--format", "json"))
        argvs.append(("ajc", *model, "--levels", "6", "--c", "2"))
        for fmt in FORMATS:
            argvs.append(("nonrel", *model, "--c-list", "5,50,500", "--levels", "2", *fmt))
        if family.startswith("2d"):
            argvs.append(("spectrum", *model, "--ml", "3"))
            argvs.append(("ajc", *model, "--ml", "2"))
    argvs.append(("nonrel",))
    argvs.append(("nonrel", "--format", "json", "--c-list", "8,16"))
    argvs.append(("nonrel", "--c-list", "10,20,40,80", "--levels", "3", "--m", "2"))
    for suite in ("spectrum", "susy", "nonrel", "pair", "all"):
        argvs.append(("verify", "--suite", suite))
    argvs.append(("verify", "--suite", "spectrum", "--tolerance", "1e-3"))
    return [" ".join(argv) for argv in argvs]


def stdout_digest(argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    assert code == 0, f"relqosc {argv} exited {code}"
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_stdout_matches_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(golden_argvs())
    changed = [argv for argv in golden_argvs() if stdout_digest(argv) != golden[argv]]
    assert changed == []


def bench_digests(large_grid: bool):
    """The benchmark's pinned digests of the N = 16000 argvs, or of all the others."""
    digests = json.loads(BENCH_DIGESTS_PATH.read_text(encoding="utf-8"))
    return {argv: d for argv, d in digests.items() if ("--grid-n 16000" in argv) == large_grid}


def test_small_grid_stdout_matches_benchmark_digests():
    digests = bench_digests(large_grid=False)
    assert len(digests) == 21
    changed = [argv for argv, d in sorted(digests.items()) if stdout_digest(argv) != d]
    assert changed == []


def test_large_grid_digests_cover_every_family():
    assert sorted(bench_digests(large_grid=True)) == [
        f"wavefunction --family {family} --n 3 --grid-n 16000 --format json" for family in FAMILIES
    ]


@pytest.mark.parametrize("argv", sorted(bench_digests(large_grid=True)))
def test_large_grid_stdout_matches_benchmark_digest(argv):
    proc = subprocess.run([sys.executable, "-m", "relqosc.cli", *argv.split()],
                          capture_output=True, timeout=300, env={**os.environ, **ONE_BLAS_THREAD})
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == bench_digests(large_grid=True)[argv]


if __name__ == "__main__":
    digests = {argv: stdout_digest(argv) for argv in golden_argvs()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
