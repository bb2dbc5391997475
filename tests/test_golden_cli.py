"""Golden CLI output: the sha256 of stdout for a fixed list of argvs.

Every subcommand and family runs in this process, in CSV and JSON, at the
defaults and at two other parameter sets, with and without --grid-max.
Grids stay at N <= 4000, where the bytes do not depend on the BLAS thread
count. golden_cli.json holds the digests; rewrite it only for an intended
change of the output, and name each changed argv in the change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from relqosc.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

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


if __name__ == "__main__":
    digests = {argv: stdout_digest(argv) for argv in golden_argvs()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
