"""CLI behaviour.

Most cases, the exit-code tests included, call relqosc.cli.main(argv) in
this process and read its output through capsys; the exit-code tests also
require that no warning is raised. TestProcessEntry pins a fresh
`python -m relqosc.cli` against main(argv) for every exit code, byte
determinism across runs starts two of them, and the tests of which modules a
command loads run it in a fresh interpreter.
"""

import csv
import dataclasses
import gc
import importlib
import io
import json
import math
import struct
import subprocess
import sys
from pathlib import Path
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
    _csv_table,
    _emit_table,
    _fmt,
    _json_floats,
    _json_table,
    _parse_c_list,
    _round12,
    build_parser,
    main,
    make_config,
)
from relqosc.models import Family, default_spec
from relqosc.verify import nonrel_sweep
from test_golden_cli import golden_argvs

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


# Closed-form wavefunctions whose samples overflow on these grids.
CLOSED_FORM_OVERFLOWS = [
    ("wavefunction", "--family", "2d-ho", "--c", "483764", "--b", "0.0749409", "--ml", "6",
     "--grid-max", "7.39472e+148", "--format", "json"),
    ("wavefunction", "--family", "1d-iso", "--m", "3.14368e-97", "--omega", "0.0141108", "--a", "661623",
     "--b", "0.223064", "--grid-max", "3.2619e+91", "--n", "2", "--format", "json"),
]
# A closed-form wavefunction whose largest sample, about 3.8e165, squares past the float range.
HUGE_CLOSED_FORM = ("wavefunction", "--family", "1d-iso", "--c", "0.00276074", "--omega", "453829",
                    "--b", "181.556", "--n", "1", "--format", "json")


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
            ("spectrum", "--family", "1d-ho", "--c", "inf"),
            ("spectrum", "--family", "1d-ho", "--omega", "inf"),
            ("spectrum", "--family", "2d-iso", "--b", "nan"),
            ("nonrel", "--family", "1d-ho", "--c-list", "10,inf"),
            ("ajc", "--family", "2d-ho", "--delta", "inf"),
            ("spectrum", "--family", "1d-ho", "--m", "1e200"),  # (mc^2)^2 overflows
            ("spectrum", "--family", "1d-iso", "--a", "inf"),
            ("spectrum", "--family", "1d-ho", "--grid-max", "inf"),
            # derived scales that overflow or underflow
            ("spectrum", "--family", "2d-iso", "--b", "1e200"),
            ("ajc", "--family", "2d-iso", "--b", "1e200"),
            ("spectrum", "--family", "1d-ho", "--m", "1e-300", "--c", "1e-300"),
            ("spectrum", "--family", "1d-ho", "--m", "1e-300", "--c", "1e-300", "--method", "analytic"),
            ("spectrum", "--family", "1d-ho", "--m", "1e10", "--omega", "1e300"),
            ("spectrum", "--family", "1d-ho", "--m", "1e10", "--omega", "1e300", "--method", "analytic"),
            ("spectrum", "--family", "1d-iso", "--b", "1e200", "--method", "analytic"),
            ("ajc", "--family", "1d-ho", "--m", "1e-200", "--omega", "1e200"),  # E_0^2 = (mc^2)^2 = 0
            # grid spacings whose h^2 or 2/h^2 is not finite and nonzero
            ("spectrum", "--family", "1d-ho", "--grid-max", "1e-160"),
            ("wavefunction", "--family", "1d-ho", "--grid-max", "1e-300"),
            ("spectrum", "--family", "1d-ho", "--grid-max", "1e300"),
            ("spectrum", "--family", "2d-iso", "--grid-max", "1e-300"),
            ("ajc", "--family", "2d-ho", "--grid-max", "1e-200"),
            ("spectrum", "--family", "2d-ho", "--omega", "1e306"),
            # flags that this run would not read
            ("verify", "--suite", "susy", "--tolerance", "1e-3"),
            ("verify", "--suite", "nonrel", "--tolerance", "1e-3"),
            ("verify", "--suite", "pair", "--tolerance", "1e-3"),
            ("spectrum", "--family", "1d-ho", "--method", "analytic", "--grid-n", "7"),
            ("spectrum", "--family", "1d-ho", "--method", "analytic", "--grid-max", "0.001"),
            # overflows inside the potential and the partner products, named without a warning
            ("ajc", "--family", "2d-ho", "--grid-max", "4.4e-151"),
            ("spectrum", "--family", "1d-ho", "--grid-max", "1e155"),
            # ladder normalizations that SupersymmetricPair rejects
            ("ajc", "--family", "2d-ho", "--delta", "nan"),
            ("ajc", "--family", "1d-iso", "--delta", "0"),
            # closed-form samples that are not finite: x^(s + 1/2), a product inside 1F1
            *CLOSED_FORM_OVERFLOWS,
            # E_0^2 = (mc^2)^2 = 1e-320 is subnormal, and the relative error divides by it
            ("spectrum", "--family", "2d-iso", "--m", "1e-160", "--levels", "2", "--grid-max", "3", "--format", "json"),
            ("ajc", "--family", "2d-iso", "--m", "1e-160", "--levels", "2", "--grid-max", "3"),
            # an A+A rung lambda/delta past the float range
            ("ajc", "--family", "2d-ho", "--delta", "1e-320", "--levels", "2"),
            ("ajc", "--family", "1d-ho", "--delta", "1e-310", "--levels", "2"),
            # a tolerance that bounds nothing
            ("verify", "--suite", "spectrum", "--tolerance", "inf"),
        ],
    )
    def test_bad_input_exits_2(self, run_main, capsys, recwarn, args):
        if args[0] != "verify" and "--tolerance" in args:  # argparse prints its usage before the error line
            with pytest.raises(SystemExit) as exc:
                run_main(*args)
            assert exc.value.code == 2
            assert "error: unrecognized arguments: --tolerance" in capsys.readouterr().err
        else:
            proc = run_main(*args)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not recwarn.list

    @pytest.mark.parametrize("command, flag, value", [
        ("spectrum", "--delta", "9"),
        ("wavefunction", "--method", "analytic"),
        ("wavefunction", "--delta", "9"),
        ("nonrel", "--method", "analytic"),
        ("nonrel", "--delta", "9"),
        ("nonrel", "--grid-n", "7"),
        ("nonrel", "--grid-max", "3"),
        ("ajc", "--method", "analytic"),
    ])
    def test_option_the_command_does_not_read_exits_2(self, run_main, capsys, recwarn, command, flag, value):
        """A flag that the command would not read is a usage error, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            run_main(command, "--family", "1d-ho", flag, value)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not recwarn.list

    def test_domain_limit_exits_3_unless_the_edge_is_given(self, run_main, recwarn):
        """The automatic edge would lie past X_MAX_LIMIT; --grid-max skips that sizing."""
        proc = run_main("spectrum", "--family", "1d-ho", "--omega", "1e-13")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("solver error: potential does not reach") and proc.stderr.count("\n") == 1
        run_main("spectrum", "--family", "1d-ho", "--omega", "1e-13", "--grid-max", "10", check=True)
        assert not recwarn.list

    def test_negative_squared_energy_exits_3(self, run_main, recwarn):
        """The operator at omega = 1e160 solves, but its lowest value maps to E^2 < 0."""
        proc = run_main("spectrum", "--family", "1d-ho", "--omega", "1e160")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("solver error: squared energy ") and proc.stderr.count("\n") == 1
        assert "< 0 at level 0; discretization failure" in proc.stderr
        assert not recwarn.list

    @pytest.mark.parametrize("argv", [
        # off-diagonals whose square overflows, which unscaled stebz could not bisect
        ("spectrum", "--family", "1d-ho", "--grid-max", "1e-75"),
        ("wavefunction", "--family", "1d-ho", "--grid-max", "1e-110"),
        ("ajc", "--family", "1d-ho", "--grid-max", "1e-150"),
        # operators on which unscaled stein returned NaN vectors
        ("wavefunction", "--family", "1d-ho", "--levels", "2", "--grid-max", "1e-72"),
        ("wavefunction", "--family", "1d-ho", "--levels", "2", "--grid-max", "1e-73"),
        ("wavefunction", "--family", "1d-ho", "--levels", "2", "--grid-n", "400", "--grid-max", "1e-73"),
        ("wavefunction", "--family", "1d-ho", "--levels", "2", "--grid-n", "4000", "--grid-max", "3e-72"),
        ("wavefunction", "--family", "1d-ho", "--levels", "2", "--grid-n", "16000", "--grid-max", "1e-70"),
        ("wavefunction", "--family", "1d-iso", "--m", "1.0495113244875367e+39", "--c", "1.230231004254882e-28",
         "--a", "7.703013544560719e+150", "--b=3.634207307325429e-73", "--grid-n", "50"),
    ])
    def test_extreme_operator_scales_solve(self, run_main, recwarn, argv):
        """The LAPACK seam scales each operator by a power of two, so these print finite values."""
        doc = json.loads(run_main(*argv, "--format", "json", check=True).stdout)
        rows = doc.get("samples") or doc.get("levels") or doc["rows"]
        values = [v for row in rows for v in row.values() if isinstance(v, float)]
        assert values and all(map(math.isfinite, values))
        assert not recwarn.list

    def test_unknown_suite_exits_2(self, run_main, capsys, recwarn):
        with pytest.raises(SystemExit) as exc:
            run_main("verify", "--suite", "nope")
        assert exc.value.code == 2
        assert "error: argument --suite: invalid choice: 'nope'" in capsys.readouterr().err
        assert not recwarn.list

    def test_wavefunction_level_bound(self, run_main, recwarn):
        proc = run_main("wavefunction", "--family", "1d-ho", "--levels", "3", "--n", "7")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: level index n=7 ") and proc.stderr.count("\n") == 1
        assert not recwarn.list


MODEL_OPTIONS = {"command", "family", "m", "c", "omega", "a", "b", "ml", "levels", "format", "out", "config"}
GRID_OPTIONS = {"grid_n", "grid_max"}


@pytest.mark.parametrize("command, dests", [
    ("spectrum", MODEL_OPTIONS | GRID_OPTIONS | {"method"}),
    ("wavefunction", MODEL_OPTIONS | GRID_OPTIONS | {"n"}),
    ("verify", {"command", "suite", "tolerance"}),
    ("nonrel", MODEL_OPTIONS | {"c_list"}),
    ("ajc", MODEL_OPTIONS | GRID_OPTIONS | {"delta"}),
])
def test_each_command_takes_the_options_it_reads(command, dests):
    assert set(vars(build_parser().parse_args([command]))) == dests


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

    def test_huge_closed_form_is_normalized(self, run_main, monkeypatch, recwarn):
        """The norm is taken on the samples scaled by a power of two, so their squares cannot overflow.

        The rows are read as the command hands them to its writer, before rounding to 12 digits.
        """
        tables = []
        emit = relqosc.cli._emit_table

        def keep(cfg, header, rows, *args, **kwargs):
            tables.append(list(rows))
            emit(cfg, header, tables[-1], *args, **kwargs)

        monkeypatch.setattr(relqosc.cli, "_emit_table", keep)
        run_main(*HUGE_CLOSED_FORM, check=True)
        x, psi = np.array([row[:2] for row in tables[0]]).T
        assert np.all(np.isfinite(psi)) and np.any(psi != 0)
        assert (x[1] - x[0]) * float(np.sum(psi ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert not recwarn.list

    def test_closed_form_zero_on_every_node_exits_2(self, run_main, recwarn):
        """No node lies within about 1960 of the origin, so the ground state underflows at all of them."""
        proc = run_main("wavefunction", "--family", "1d-ho", "--grid-max", "1e5", "--grid-n", "50", "--levels", "1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: the closed-form psi1 of level 0 is zero at every node of this grid "
                               "([-100000, 100000], 50 nodes), so it cannot be normalized\n")
        assert not recwarn.list

    @pytest.mark.parametrize("grid_max", ["1e-62", "1e-70", "1e-71"])
    def test_residual_on_tiny_grid_exits_0(self, run_main, recwarn, grid_max):
        """||T||_inf is 1e131 to 1e149 here; the residual squares no entry of that size, and the level is spectrum's."""
        argv = ("--family", "1d-ho", "--grid-max", grid_max, "--levels", "2", "--format", "json")
        wave = json.loads(run_main("wavefunction", *argv, check=True).stdout)
        levels = json.loads(run_main("spectrum", *argv, "--method", "numeric", check=True).stdout)["levels"]
        assert wave["e2"] == levels[0]["e2_numeric"]
        assert not recwarn.list

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
    """A chunk of float cells only is spelled by one %-format; the text must equal
    the per-cell spelling: _fmt for CSV, json.dumps(_round12(v)) for JSON."""

    @given(st.lists(FLOATS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_floats(self, cells):
        cells = tuple(cells)
        fields = tuple(f"c{i}" for i in range(len(cells)))
        assert "".join(_csv_table(fields, [cells])) == csv_reference(fields, [cells])
        assert _json_floats(cells) == [json.dumps(_round12(v)) for v in cells]

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
            if isinstance(v, float):
                assert _json_floats((v,)) == [json.dumps(_round12(v))]
                assert _json_floats((v, 0.5) * 2) == [json.dumps(_round12(v)), "0.5"] * 2
            rows = [(v, 0.5)] * 2
            assert "".join(_json_table({"h": 1}, "rows", ("a", "b"), rows, None)) == json_reference(
                {"h": 1}, "rows", ("a", "b"), rows)


LOADED_SCRIPT = """
import contextlib, io, json, sys
import relqosc, relqosc.cli
def loaded():
    lapack = sys.modules.get("relqosc.lapack")
    return [sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
            bool(lapack and lapack._lapack.cache_info().currsize)]
out = [["import", None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = relqosc.cli.main(argv)
    out.append([" ".join(argv), code, *loaded()])
print(json.dumps(out))
"""


def commands_loading(*argvs):
    """Per command in one fresh interpreter: [argv, exit code, the scipy modules loaded, whether LAPACK is
    loaded]."""
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, json.dumps(argvs)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_never_load_scipy_linalg():
    assert commands_loading(
        ["spectrum", "--family", "1d-ho", "--method", "analytic"],
        ["nonrel", "--family", "2d-iso"],
        ["spectrum", "--family", "1d-ho"],
    ) == [
        ["import", None, [], False],
        ["spectrum --family 1d-ho --method analytic", 0, [], False],
        ["nonrel --family 2d-iso", 0, [], False],
        ["spectrum --family 1d-ho", 0, [], True],
    ]


def test_solving_commands_never_load_scipy_linalg():
    argvs = [
        ["ajc", "--family", "2d-ho"],
        ["wavefunction", "--family", "1d-iso", "--n", "2", "--grid-n", "400"],
        ["wavefunction", "--family", "2d-iso", "--n", "3", "--grid-n", "400", "--format", "json"],
        ["verify", "--suite", "spectrum"],
    ]
    assert commands_loading(*argvs)[1:] == [[" ".join(argv), 0, [], True] for argv in argvs]


def test_solving_commands_never_import_scipy():
    argvs = [
        ["spectrum", "--family", "1d-ho"],
        ["ajc", "--family", "2d-ho"],
        ["wavefunction", "--family", "1d-iso", "--n", "2", "--grid-n", "400"],
        ["wavefunction", "--family", "2d-iso", "--n", "3", "--grid-n", "400", "--format", "json"],
        ["verify", "--suite", "spectrum"],
        ["verify", "--suite", "all"],
    ]
    assert commands_loading(*argvs) == [
        ["import", None, [], False],
        *([" ".join(argv), 0, [], True] for argv in argvs),
    ]


class TestProcessEntry:
    """`python -m relqosc.cli` starts through entry(); main(argv) in process must behave the same."""

    @pytest.mark.parametrize(
        "code, argv",
        [
            (0, ["spectrum", "--family", "1d-ho"]),
            (1, ["verify", "--suite", "spectrum", "--tolerance", "1e-30"]),
            (2, ["spectrum", "--family", "1d-ho", "--levels", "0"]),
            (3, ["spectrum", "--family", "1d-ho", "--omega", "1e-14"]),
        ],
    )
    def test_entry_matches_main(self, capsys, code, argv):
        child = subprocess.run(CLI + argv, capture_output=True, timeout=300)
        frozen = gc.get_freeze_count()
        assert main(argv) == code
        assert gc.get_freeze_count() == frozen
        assert child.returncode == code
        assert child.stdout == capsys.readouterr().out.encode()

    def test_out_file_is_complete(self, capsys, tmp_path):
        argv = ["wavefunction", "--family", "2d-ho", "--n", "1", "--grid-n", "2000", "--format", "json"]
        out = tmp_path / "samples.json"
        run_cli(*argv, "--out", str(out), check=True)
        assert main(argv) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_entry_freezes_and_shutdown_still_runs(self):
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}'))\n"
            "runpy.run_module('relqosc.cli', run_name='__main__')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, "spectrum", "--family", "1d-ho"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,e2_analytic,")
        assert proc.stderr.startswith("frozen ") and int(proc.stderr.split()[1]) > 0

    def test_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, _, name = scripts["relqosc"].partition(":")
        assert getattr(importlib.import_module(module), name) is relqosc.cli.entry


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

    @pytest.mark.parametrize("argv", sorted({
        argv.replace(" --format json", "") for argv in golden_argvs() if argv.startswith("nonrel")}))
    def test_rows_are_the_sweeps(self, run_main, argv):
        """Every column, ratio included, is nonrel_sweep's, at 12 digits."""
        args = build_parser().parse_args(argv.split())
        cfg = make_config(args)
        families = [Family.from_label(cfg.family)] if cfg.family else list(Family)
        want = [
            tuple(map(_round12, (family.value, *row)))
            for family in families
            for row in nonrel_sweep(dataclasses.replace(cfg, family=family.value).model_spec(),
                                    cfg.levels - 1, c_values=_parse_c_list(args.c_list))
        ]
        doc = json.loads(run_main(*argv.split(), "--format", "json", check=True).stdout)
        assert [tuple(row.values()) for row in doc["rows"]] == want

    def test_out_file_holds_the_check_lines(self, run_main, tmp_path):
        """The CSV table and its check lines go to one place, the --out file."""
        out = tmp_path / "f.csv"
        proc = run_main("nonrel", "--family", "1d-ho", "--levels", "1", "--out", str(out), check=True)
        assert proc.stdout == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("family,") and lines[-1].startswith("[PASS] nonrel/limit 1d-ho: ")

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

    @pytest.mark.parametrize("family", ["1d-iso", "2d-ho"])
    @pytest.mark.parametrize("delta", ["1e300", "1e-9"])
    def test_delta_scales_only_the_ata_column(self, run_main, family, delta):
        """Kernel rows are judged on the problem's own ladder scale, whatever --delta the user gives."""
        columns = ("kernel", "n", "e2_analytic", "rel_err")

        def labels(*extra):
            _, rows = parse_csv(run_main("ajc", "--family", family, "--levels", "3", *extra, check=True).stdout)
            return [tuple(row[c] for c in columns) for row in rows]

        assert labels("--delta", delta) == labels()


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

    def test_given_values_overlay_the_default_model(self):
        for family in Family:
            default = default_spec(family)
            expected = dataclasses.replace(default, params=dataclasses.replace(default.params, m=2.0))
            assert RunConfig(family=family.value, m=2.0).model_spec() == expected

    @pytest.mark.parametrize(
        "bad",
        [
            {"family": "2d-ho", "ml": 1.5, "levels": 2.7},
            {"family": "1d-ho", "levels": 2.7},
            {"family": "1d-ho", "grid_n": 1000.5},
            {"family": "1d-ho", "levels": True},
            {"family": "1d-ho", "m": True},
            {"family": "1d-ho", "levels": math.inf},
        ],
    )
    def test_non_integral_or_boolean_values_exit_2(self, run_main, recwarn, tmp_path, bad):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(bad))
        proc = run_main("spectrum", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not recwarn.list

    def test_integral_float_counts_as_integer(self, run_main, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "2d-ho", "ml": 2.0, "levels": 3.0}))
        _, rows = parse_csv(run_main("spectrum", "--config", str(cfg), check=True).stdout)
        assert len(rows) == 3

    def test_unknown_config_key_exits_2(self, run_main, recwarn, tmp_path):
        cfg = tmp_path / "run.json"
        for command, bad in (
            ("spectrum", {"familly": "1d-ho"}),
            ("spectrum", {"family": "1d-ho", "tolerance": 1e-3}),
            ("spectrum", {"family": "1d-ho", "delta": 9.0}),  # an ajc option
            ("nonrel", {"family": "1d-ho", "grid_n": 100}),  # nonrel solves no grid
        ):
            cfg.write_text(json.dumps(bad))
            proc = run_main(command, "--config", str(cfg))
            assert proc.returncode == 2 and "unknown key" in proc.stderr
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not recwarn.list

    def test_non_finite_delta_exits_2(self, run_main, recwarn, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": "2d-ho", "delta": "inf"}))
        proc = run_main("ajc", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not recwarn.list

    def test_missing_config_file_exits_3(self, run_main, recwarn, tmp_path):
        proc = run_main("spectrum", "--family", "1d-ho", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
        assert not recwarn.list
