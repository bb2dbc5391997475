"""Seeded fuzz of the command line: never a traceback, a warning or a NaN.

Each case calls relqosc.cli.main(argv) in this process on an argv drawn from
a fixed seed: model parameters across decades, zero, negative and non-finite,
angular indices from -40 to 40, small grids, and random grid edges, ladder
normalizations and light-speed lists. Every run must end in a documented exit
code (0 success, 1 failed check, 2 bad input, 3 solver failure); exits 2 and
3 print exactly one stderr line, a successful run prints no NaN, and no
warning or other exception escapes. Argvs found by earlier fuzzing are added
as explicit cases.
"""

import random
import re
import warnings

import pytest

from relqosc.cli import main
from test_cli import CLOSED_FORM_OVERFLOWS, HUGE_CLOSED_FORM

SEED = 17
DRAWS = 200
FAMILIES = ("1d-ho", "1d-iso", "2d-ho", "2d-iso")
SPECIAL = ("0", "-0.0", "-1", "-3.5e7", "nan", "inf", "-inf")
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def number(rng: random.Random) -> str:
    """Mostly O(1) values, often far out in the decades, sometimes zero, negative or not finite."""
    u = rng.random()
    if u < 0.1:
        return rng.choice(SPECIAL)
    exponent = rng.uniform(-4, 4) if u < 0.7 else rng.uniform(-200, 200)
    return repr(10.0 ** exponent)


def drawn_argv(rng: random.Random) -> list:
    command = rng.choice(("spectrum", "wavefunction", "nonrel", "ajc"))
    family = rng.choice(FAMILIES)
    argv = [command, f"--family={family}"]
    for name in ("m", "c", "omega", "a", "b"):
        if rng.random() < 0.4:
            argv.append(f"--{name}={number(rng)}")
    if rng.random() < (0.6 if family.startswith("2d") else 0.05):
        argv.append(f"--ml={rng.randint(-40, 40)}")
    levels = rng.randint(1, 8)
    argv += [f"--levels={levels}", f"--format={rng.choice(('csv', 'json'))}"]
    if command == "spectrum":
        argv.append(f"--method={rng.choice(('analytic', 'numeric', 'both'))}")
    if command == "wavefunction":
        argv.append(f"--n={rng.randint(0, levels)}")
    if command == "ajc" and rng.random() < 0.3:
        argv.append(f"--delta={number(rng)}")
    if command == "nonrel":
        if rng.random() < 0.5:
            c_list = [number(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.7:  # mostly the increasing lists that the command accepts
                c_list.sort(key=float)
            argv.append("--c-list=" + ",".join(c_list))
    else:
        argv.append(f"--grid-n={rng.randint(3, 400)}")
        if rng.random() < 0.4:
            argv.append(f"--grid-max={number(rng)}")
    return argv


def drawn_argvs() -> list:
    rng = random.Random(SEED)
    return [drawn_argv(rng) for _ in range(DRAWS)]


EXPLICIT = {
    "huge-closed-form": list(HUGE_CLOSED_FORM),
    "closed-form-power-overflow": list(CLOSED_FORM_OVERFLOWS[0]),
    "closed-form-kummer-overflow": list(CLOSED_FORM_OVERFLOWS[1]),
    "nonrel-out": ["nonrel", "--family", "1d-ho", "--levels", "1", "--out", "{tmp}/f.csv"],
}
CASES = {**{f"draw-{i}": argv for i, argv in enumerate(drawn_argvs())}, **EXPLICIT}


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES)
def test_cli_never_tracebacks_warns_or_prints_nan(capsys, tmp_path, argv):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
            assert code == 2
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    if code in (2, 3) and not err.startswith("usage:"):
        assert err.startswith(("error: ", "solver error: ")) and err.count("\n") == 1, err
    if code == 0:
        assert not NAN.search(out)
