"""CLI behaviour.

Most cases call relqosc.cli.main(argv) in this process and read its output
through capsys. Exit-code tests and byte-determinism across runs start a
fresh `python -m relqosc.cli`; the tests of which modules a command loads
run it in a fresh interpreter.
"""

import csv
import io
import json
import math
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqosc.cli
import relqosc.models
import relqosc.solver
import relqosc.verify
from relqosc.cli import (
    _CHUNK_ROWS,
    RunConfig,
    _csv_floats,
    _csv_table,
    _emit_table,
    _fmt,
    _json_cell,
    _json_floats,
    _json_table,
    _round12,
    _spell_cells,
    main,
)
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
            ("spectrum", "--family", "1d-ho", "--tolerance", "1e-3"),  # verify-only flag
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("wavefunction", "--family", "2d-iso", "--n", "1", "--grid-n", "500"),
            ("spectrum", "--family", "2d-iso", "--grid-max", "9", "--grid-n", "500"),
        ],
    )
    def test_effective_problem_built_once(self, run_main, monkeypatch, argv):
        calls = []
        build = relqosc.models.effective_problem

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for mod in (relqosc.models, relqosc.cli, relqosc.solver, relqosc.verify):
            monkeypatch.setattr(mod, "effective_problem", counting)
        run_main(*argv, check=True)
        assert len(calls) == 1


def csv_reference(header, rows, comment=None):
    """The CSV table as csv.writer writes the _fmt spelling of each cell."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def json_reference(head, key, fields, rows, tail=None):
    doc = {**head, key: [dict(zip(fields, map(_round12, row))) for row in rows], **(tail or {})}
    return json.dumps(doc, indent=2) + "\n"


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Floats where a "%.12g" token and repr lay the same value out differently:
# NaN, +-inf, subnormals, integral values, the 1e12-1e16 band; plus any bit pattern.
PLAIN_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e12),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.integers(-10 ** 16, 10 ** 16).map(float),
    st.integers(0, 2 ** 64 - 1).map(from_bits),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]),
)
FLOATS = st.builds(lambda v, wrap: np.float64(v) if wrap else v, PLAIN_FLOATS, st.booleans())
# csv.writer quotes a field holding CR only from Python 3.12 on; the table never does.
TEXT = st.text(st.characters(blacklist_characters="\r"), max_size=8)
CELLS = st.one_of(FLOATS, st.none(), TEXT, st.integers(), st.just(True))


class TestBulkSpelling:
    """Each chunk's float cells are spelled by one %-format; the text must equal
    the per-cell spelling: _fmt for CSV, json.dumps(_round12(v)) for JSON."""

    @given(st.lists(FLOATS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_floats(self, cells):
        cells = tuple(cells)
        assert _spell_cells(cells, _csv_floats, _fmt) == [_fmt(v) for v in cells]
        assert _spell_cells(cells, _json_floats, _json_cell) == [json.dumps(_round12(v)) for v in cells]

    @given(st.lists(CELLS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mixed_cells(self, cells):
        cells = tuple(cells)
        assert _spell_cells(cells, _csv_floats, _fmt) == [_fmt(v) for v in cells]
        assert _spell_cells(cells, _json_floats, _json_cell) == [json.dumps(_round12(v)) for v in cells]

    @given(st.lists(st.tuples(CELLS, FLOATS, CELLS), min_size=1, max_size=12),
           st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_tables_across_chunks(self, mixed, floats):
        """Small chunks, so that tables span several, some all-float and some mixed."""
        rows = mixed + floats
        fields = ("x", "y,\"z", "100%")
        with mock.patch.object(relqosc.cli, "_CHUNK_ROWS", 3):
            assert "".join(_csv_table(fields, rows, "c=1")) == csv_reference(fields, rows, "c=1")
            assert "".join(_json_table({"h": 1}, "rows", fields, rows, {"t": None})) == json_reference(
                {"h": 1}, "rows", fields, rows, {"t": None})

    def test_csv_quotes_carriage_return(self):
        assert "".join(_csv_table(("a", "b"), [("x\ry", 1.0)])) == 'a,b\n"x\ry",1\n'


class TestStreamedJson:
    """Every CSV and JSON table is written one chunk of rows at a time; JSON must
    read exactly as json.dumps(indent=2) prints it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("wavefunction", "--family", "1d-iso", "--n", "2", "--grid-n", "300"),
            ("wavefunction", "--family", "2d-ho", "--ml", "-1", "--n", "2", "--grid-n", "300"),
            ("spectrum", "--family", "1d-ho", "--method", "analytic"),  # null solver cells
            ("ajc", "--family", "1d-iso", "--levels", "3"),  # spurious kernel row: null n, string kernel
            ("nonrel",),  # a null ratio and the trailing checks key
        ],
    )
    def test_matches_json_dumps_on_stdout_and_out(self, run_main, tmp_path, argv):
        args = (*argv, "--format", "json")
        text = run_main(*args, check=True).stdout
        path = tmp_path / "table.json"
        assert run_main(*args, "--out", str(path), check=True).stdout == ""
        assert path.read_text(encoding="utf-8") == text
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n_rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("dest", ["stdout", "out"])
    def test_wavefunction_at_chunk_edges(self, run_main, tmp_path, fmt, n_rows, dest):
        argv = ("wavefunction", "--family", "1d-ho", "--n", "1", "--grid-n", str(n_rows))
        doc_text = run_main(*argv, "--format", "json", check=True).stdout
        doc = json.loads(doc_text)
        assert len(doc["samples"]) == n_rows
        if fmt == "json":
            want = json.dumps(doc, indent=2) + "\n"
        else:
            # _fmt of a 12-digit rounded value spells the value itself.
            header = tuple(doc["samples"][0])
            want = csv_reference(header, [tuple(row.values()) for row in doc["samples"]])
        if dest == "stdout":
            text = run_main(*argv, "--format", fmt, check=True).stdout
        else:
            path = tmp_path / f"table.{fmt}"
            assert run_main(*argv, "--format", fmt, "--out", str(path), check=True).stdout == ""
            text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            assert text.startswith("# family=1d-ho n=1 ")
            text = text.split("\n", 1)[1]
        assert text == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_chunk_written_before_rows_run_out(self, monkeypatch, fmt):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        seen = []

        def rows():
            for i in range(3 * _CHUNK_ROWS):
                if i == _CHUNK_ROWS:
                    seen.append(out.getvalue())
                yield (float(i), i / 7)

        _emit_table(RunConfig(format=fmt), ("a", "b"), rows(), {"h": 1})
        first = list(zip(map(float, range(_CHUNK_ROWS)), (i / 7 for i in range(_CHUNK_ROWS))))
        if fmt == "csv":
            assert seen == [csv_reference(("a", "b"), first)]
        else:
            assert seen[0].startswith('{\n  "h": 1,\n  "rows": [\n    {\n')
            assert seen[0].count("{") == 1 + _CHUNK_ROWS
        assert out.getvalue().count("\n") > seen[0].count("\n")

    @pytest.mark.parametrize(
        "value",
        [
            0.1, 1.0, 1e-5, 1e16, -0.0, math.nan, math.inf, -math.inf,
            0.1 + 0.2, 1 / 3, -2 / 3, 123456789012.5, 9.9999999999995e-5,
            1e22, 5e-324, 1.7976931348623157e308,
            None, "spurious", 3, True,
        ],
    )
    def test_float_spelling_matches_json(self, value):
        for v in (value, np.float64(value)) if isinstance(value, float) else (value,):
            assert _spell_cells((v,), _json_floats, _json_cell) == [json.dumps(_round12(v))]
            assert _spell_cells((v, 0.5) * 2, _json_floats, _json_cell) == [json.dumps(_round12(v)), "0.5"] * 2


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
        for bad in ({"familly": "1d-ho"}, {"family": "1d-ho", "tolerance": 1e-3}):
            cfg.write_text(json.dumps(bad))
            proc = run_cli("spectrum", "--config", str(cfg))
            assert proc.returncode == 2 and "unknown key" in proc.stderr

    def test_missing_config_file_exits_3(self, tmp_path):
        proc = run_cli("spectrum", "--family", "1d-ho", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 3
