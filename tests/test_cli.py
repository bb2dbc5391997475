"""CLI behaviour.

Most cases call relqosc.cli.main(argv) in this process and read its output
through capsys. Exit-code tests and byte-determinism across runs start a
fresh `python -m relqosc.cli`; the tests of which modules a command loads
run it in a fresh interpreter.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import relqosc.cli
import relqosc.models
import relqosc.solver
import relqosc.verify
from relqosc.cli import RunConfig, _json_float, _round12, main
from relqosc.models import Family, default_spec

CLI = [sys.executable, "-m", "relqosc.cli"]


def run_cli(*args, check=False):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


@pytest.fixture
def run_main(capsys):
    """main(argv) in this process, returned with the fields run_cli gives."""

    def run(*args, check=False):
        code = main(list(args))
        out, err = capsys.readouterr()
        if check and code != 0:
            raise AssertionError(f"exit {code}: {err}")
        return subprocess.CompletedProcess(list(args), code, out, err)

    return run


def parse_csv(text):
    lines = [
        ln for ln in text.splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("[")
    ]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestSpectrum:
    def test_default_table_values(self, run_main):
        proc = run_main("spectrum", "--family", "1d-ho", "--levels", "3", check=True)
        header, rows = parse_csv(proc.stdout)
        assert header[:3] == ["n", "e2_analytic", "e2_numeric"]
        assert [row["e2_analytic"] for row in rows] == ["1", "3", "5"]
        for row in rows:
            rel = abs(float(row["e2_numeric"]) - float(row["e2_analytic"]))
            assert rel <= 1e-4 * float(row["e2_analytic"])

    def test_analytic_only_leaves_solver_cells_empty(self, run_main):
        proc = run_main(
            "spectrum", "--family", "2d-ho", "--ml", "-2", "--levels", "2",
            "--method", "analytic", check=True,
        )
        _, rows = parse_csv(proc.stdout)
        assert [row["e2_analytic"] for row in rows] == ["9", "13"]
        assert all(row["e2_numeric"] == "" and row["rel_err"] == "" for row in rows)

    def test_json_document_round_trips(self, run_main):
        proc = run_main(
            "spectrum", "--family", "1d-iso", "--format", "json", "--levels", "4",
            check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["family"] == "1d-iso"
        assert len(doc["levels"]) == 4
        assert json.dumps(doc, indent=2) + "\n" == proc.stdout

    def test_runs_are_byte_identical(self):
        args = ("spectrum", "--family", "2d-iso", "--b", "0.25", "--ml", "1")
        first = run_cli(*args, check=True)
        second = run_cli(*args, check=True)
        assert first.stdout == second.stdout

    def test_output_file(self, run_main, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_main("spectrum", "--family", "1d-ho", "--out", str(out), check=True)
        assert proc.stdout == ""
        header, rows = parse_csv(out.read_text())
        assert rows and header[0] == "n"


class TestValidationExits:
    @pytest.mark.parametrize(
        "args",
        [
            ("spectrum", "--family", "2d-iso", "--ml", "0"),  # sub-critical sector
            ("spectrum", "--family", "1d-ho", "--levels", "0"),
            ("spectrum", "--family", "1d-ho", "--ml", "1"),  # ml is 2D-only
            ("ajc", "--family", "2d-ho", "--ml", "1", "--delta", "-1"),
            ("nonrel", "--family", "1d-ho", "--c-list", "10,10"),
            ("nonrel", "--family", "1d-ho", "--c-list", "10,-3"),
        ],
    )
    def test_bad_input_exits_2(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_unknown_suite_exits_2(self):
        proc = run_cli("verify", "--suite", "nope")
        assert proc.returncode == 2

    def test_wavefunction_level_bound(self):
        proc = run_cli("wavefunction", "--family", "1d-ho", "--levels", "3", "--n", "7")
        assert proc.returncode == 2


class TestWavefunction:
    def test_csv_has_metadata_and_matching_profiles(self, run_main):
        proc = run_main(
            "wavefunction", "--family", "1d-ho", "--n", "1", "--grid-n", "2000",
            check=True,
        )
        meta = next(ln for ln in proc.stdout.splitlines() if ln.startswith("#"))
        assert "family=1d-ho" in meta and "n=1" in meta
        header, rows = parse_csv(proc.stdout)
        assert header == ["x", "psi1_analytic", "psi1_numeric", "psi2_numeric"]
        worst = max(
            abs(float(r["psi1_analytic"]) - float(r["psi1_numeric"])) for r in rows
        )
        peak = max(abs(float(r["psi1_analytic"])) for r in rows)
        assert worst <= 1e-3 * peak

    def test_second_component_weight(self, run_main):
        """The lower-component weight satisfies the exact (E-mc2)/(E+mc2) ratio."""
        proc = run_main(
            "wavefunction", "--family", "1d-ho", "--n", "1", "--grid-n", "4000",
            "--format", "json", check=True,
        )
        doc = json.loads(proc.stdout)
        xs = [row["x"] for row in doc["samples"]]
        h = xs[1] - xs[0]
        w2 = h * sum(row["psi2_numeric"] ** 2 for row in doc["samples"])
        e = doc["e"]
        assert w2 == pytest.approx((e - 1.0) / (e + 1.0), rel=1e-3)

    def test_effective_problem_built_once(self, run_main, monkeypatch):
        calls = []
        build = relqosc.models.effective_problem

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for mod in (relqosc.models, relqosc.cli, relqosc.solver, relqosc.verify):
            monkeypatch.setattr(mod, "effective_problem", counting)
        run_main("wavefunction", "--family", "2d-iso", "--n", "1", "--grid-n", "500", check=True)
        assert len(calls) == 1


class TestStreamedJson:
    """The wavefunction document is written sample by sample; it must read
    exactly as json.dumps(indent=2) prints it."""

    @pytest.mark.parametrize(
        "model", [("--family", "1d-iso"), ("--family", "2d-ho", "--ml", "-1")]
    )
    def test_matches_json_dumps_on_stdout_and_out(self, run_main, tmp_path, model):
        args = ("wavefunction", *model, "--n", "2", "--grid-n", "300", "--format", "json")
        text = run_main(*args, check=True).stdout
        path = tmp_path / "wave.json"
        assert run_main(*args, "--out", str(path), check=True).stdout == ""
        assert path.read_text(encoding="utf-8") == text
        doc = json.loads(text)
        assert len(doc["samples"]) == doc["grid"]["n_points"] == 300
        assert text == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            0.1, 1.0, 1e-5, 1e16, -0.0, math.nan, math.inf, -math.inf,
            0.1 + 0.2, 1 / 3, -2 / 3, 123456789012.5, 9.9999999999995e-5,
            1e22, 5e-324, 1.7976931348623157e308,
        ],
    )
    def test_float_spelling_matches_json(self, value):
        for v in (value, np.float64(value)):
            assert _json_float(v) == json.dumps(_round12(v))


LOADED_SCRIPT = """
import contextlib, io, json, sys
import relqosc, relqosc.cli
def loaded():
    return ["scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules]
out = [["import", None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = relqosc.cli.main(argv)
    out.append([" ".join(argv), code, *loaded()])
print(json.dumps(out))
"""


def commands_loading(*argvs):
    """Per command in one fresh interpreter: [argv, exit code, scipy.linalg loaded, LAPACK module loaded]."""
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_never_load_scipy_linalg():
    assert commands_loading(
        ["spectrum", "--family", "1d-ho", "--method", "analytic"],
        ["nonrel", "--family", "2d-iso"],
        ["spectrum", "--family", "1d-ho"],
    ) == [
        ["import", None, False, False],
        ["spectrum --family 1d-ho --method analytic", 0, False, False],
        ["nonrel --family 2d-iso", 0, False, False],
        ["spectrum --family 1d-ho", 0, False, True],
    ]


def test_solving_commands_never_load_scipy_linalg():
    argvs = [
        ["ajc", "--family", "2d-ho"],
        ["wavefunction", "--family", "1d-iso", "--n", "2", "--grid-n", "400"],
        ["wavefunction", "--family", "2d-iso", "--n", "3", "--grid-n", "400", "--format", "json"],
        ["verify", "--suite", "spectrum"],
    ]
    assert commands_loading(*argvs)[1:] == [[" ".join(argv), 0, False, True] for argv in argvs]


class TestVerifyCommand:
    def test_single_suite_passes(self, run_main):
        proc = run_main("verify", "--suite", "pair")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert all(ln.startswith("[PASS]") for ln in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_unknown_family_lines_absent(self, run_main):
        proc = run_main("verify", "--suite", "susy")
        assert proc.returncode == 0
        assert "[FAIL]" not in proc.stdout


class TestNonrel:
    def test_table_and_ratio_column(self, run_main):
        proc = run_main(
            "nonrel", "--family", "1d-ho", "--levels", "3", "--c-list", "10,20,40",
            check=True,
        )
        header, rows = parse_csv(proc.stdout)
        assert "ratio" in header
        ratios = [float(r["ratio"]) for r in rows if r["ratio"] not in ("", "nan")]
        assert ratios and all(3.5 <= q <= 4.5 for q in ratios)
        assert proc.stdout.count("[PASS]") >= 1

    def test_json_includes_checks(self, run_main):
        proc = run_main("nonrel", "--family", "1d-iso", "--format", "json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["rows"] and doc["checks"]
        assert all(chk["passed"] for chk in doc["checks"])


class TestAjc:
    def test_harmonic_2d_rungs_are_integers(self, run_main):
        proc = run_main("ajc", "--family", "2d-ho", "--ml", "1", "--levels", "4", check=True)
        header, rows = parse_csv(proc.stdout)
        assert rows[0]["kernel"] == "genuine"
        for i, row in enumerate(rows):
            assert float(row["ata"]) == pytest.approx(float(i), abs=1e-2)
        matched = [r for r in rows if r["n"] != ""]
        assert matched and all(abs(float(r["rel_err"])) <= 1e-2 for r in matched)

    def test_isotonic_2d_rungs_are_integers_at_m2(self, run_main):
        proc = run_main("ajc", "--family", "2d-iso", "--m", "2", "--levels", "4", check=True)
        _, rows = parse_csv(proc.stdout)
        for i, row in enumerate(rows):
            assert float(row["ata"]) == pytest.approx(float(i), abs=1e-2)

    def test_isotonic_1d_rungs_do_not_depend_on_mass(self, run_main):
        rungs = {}
        for m in ("1", "2"):
            _, rows = parse_csv(run_main("ajc", "--family", "1d-iso", "--m", m, "--levels", "4", check=True).stdout)
            rungs[m] = [row["ata"] for row in rows]
        assert rungs["2"] == rungs["1"]

    def test_spurious_kernel_is_flagged(self, run_main):
        proc = run_main("ajc", "--family", "1d-iso", "--levels", "3", check=True)
        _, rows = parse_csv(proc.stdout)
        spurious = [r for r in rows if r["kernel"] == "spurious"]
        assert len(spurious) == 1
        assert spurious[0]["n"] == "" and spurious[0]["e2_analytic"] == ""


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, run_main, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "1d-ho", "levels": 2, "omega": 2.0}))
        proc = run_main("spectrum", "--config", str(cfg), check=True)
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == 2
        assert rows[1]["e2_analytic"] == "5"  # 1 + 2 m omega c^2 n with omega = 2
        proc2 = run_main("spectrum", "--config", str(cfg), "--omega", "1", check=True)
        _, rows2 = parse_csv(proc2.stdout)
        assert rows2[1]["e2_analytic"] == "3"

    def test_defaults_are_the_default_models(self):
        for family in Family:
            assert RunConfig(family=family.value).model_spec() == default_spec(family)

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"familly": "1d-ho"}))
        proc = run_cli("spectrum", "--config", str(cfg))
        assert proc.returncode == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        proc = run_cli("spectrum", "--family", "1d-ho", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 3
