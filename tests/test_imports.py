"""Import hygiene: every name a package or test module imports is read in it; the lapack module stands alone and
alone knows ctypes, LAPACK and the CPU count, no module imports scipy, only its seam calls LAPACK, only solver.solve
builds and solves a model's finite-difference operator, verify solves at one call site, and the closed forms read no
numeric fact of the models."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "relqosc").glob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])


def exported(tree: ast.Module) -> set:
    """The names a module lists in a literal __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unread_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports (not from __future__) that nothing reads and __all__ does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_read(path):
    assert unread_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_finds_unread_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from typing import List, Optional\n"
        "from .solver import Grid\n"
        "__all__ = ['Grid']\n"
        "def f(x: List[int]) -> None:\n"
        "    return numpy.linalg.norm(x)\n"
    )
    assert unread_imports(tree) == ["Optional (line 4)", "os (line 2)", "osp (line 2)"]


def imports_from(tree: ast.Module, module: str) -> set:
    """Names a module imports from the package's given module; the module's own name for a module import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(module for alias in node.names if alias.name.split(".")[-1] == module)
    return names


@pytest.mark.parametrize("name", ["solver.py", "susyblock.py"])
def test_numeric_route_imports_no_closed_form(name):
    """The finite-difference route takes only the table records from the closed forms."""
    tree = ast.parse((ROOT / "src" / "relqosc" / name).read_text(encoding="utf-8"))
    assert imports_from(tree, "analytic") <= {"Level", "SpectrumTable"}


def test_closed_form_imports_no_numeric_facts():
    """The closed forms state each family's facts on their own: analytic takes from models only the model
    records and finite_on_nodes, never the helpers for q and s, _facts or effective_problem."""
    tree = ast.parse((ROOT / "src" / "relqosc" / "analytic.py").read_text(encoding="utf-8"))
    assert imports_from(tree, "models") <= {"Family", "ModelSpec", "finite_on_nodes"}


def test_finds_analytic_imports():
    tree = ast.parse(
        "from .analytic import Level, analytic_e2\n"
        "from . import analytic\n"
        "import relqosc.analytic\n"
        "from .models import ModelSpec\n"
    )
    assert imports_from(tree, "analytic") == {"Level", "analytic_e2", "analytic"}


def test_finds_models_imports():
    tree = ast.parse(
        "from .models import ModelSpec, _facts\n"
        "from relqosc import models\n"
        "from relqosc.models import effective_problem as problem\n"
        "from .analytic import Level\n"
    )
    assert imports_from(tree, "models") == {"ModelSpec", "_facts", "models", "effective_problem"}


def private_names(tree: ast.Module) -> dict:
    """Single-underscore names the module binds at its top level, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items() if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set:
    """Names the module reads, as plain names or as attributes."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SRC}
    read = set().union(*map(read_names, trees.values()))
    unread = [f"{name}: {private} (line {line})" for name, tree in trees.items()
              for private, line in private_names(tree).items() if private not in read]
    assert unread == []


def test_finds_private_names():
    tree = ast.parse(
        "_LIMIT: int = 3\n"
        "_cache = __all__ = None\n"
        "def _helper():\n"
        "    _local = 1\n"
        "class _Record: pass\n"
        "def public(): pass\n"
    )
    assert private_names(tree) == {"_LIMIT": 1, "_cache": 2, "_helper": 3, "_Record": 5}
    assert read_names(ast.parse("_helper(np._LIMIT)")) == {"_helper", "np", "_LIMIT"}


LAPACK = {"dlaebz", "dstein", "dsterf", "dlagtf", "dlagts", "idamax", "dscal", "ddot", "daxpy", "dnrm2", "_flapack",
          "_lapack"}
SOLVE_STEPS = {"discretize", "eigen_lowest"}


def called_name(func: ast.expr):
    """The name a call's function goes by: a name, an attribute, or the string key of a subscript."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Subscript):
        return func.slice.value if isinstance(func.slice, ast.Constant) and isinstance(func.slice.value, str) else None
    return getattr(func, "id", None)


def call_sites(tree: ast.Module, names: set) -> list:
    """(function, line) of each call of any of names, by name, attribute or string key: the function is the
    module-level one the call sits in, nested functions included; "<module>" for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and called_name(child.func) in names:
                found.append((owner, child.lineno))
            top = owner == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if top else owner)

    visit(tree, "<module>")
    return found


def callers(tree: ast.Module, names: set) -> set:
    """Functions that call any of names, by name, attribute or string key; "<module>" for a call outside any function."""
    return {owner for owner, _ in call_sites(tree, names)}


def package_callers(names: set) -> set:
    return {(path.name, caller) for path in SRC
            for caller in callers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), names)}


def test_only_the_seam_calls_lapack():
    """Every LAPACK call goes through lapack._lapack_seam, which scales the operator for the bisection and stein:
    only it calls _lapack's dlaebz and dsterf, only its inverse iteration _stein, which it alone calls, calls
    the kernels of dstein, nothing calls dstein itself, and only _lapack calls _flapack."""
    assert package_callers(LAPACK) == {("lapack.py", "_lapack_seam"), ("lapack.py", "_stein"), ("lapack.py", "_lapack")}
    assert package_callers({"_stein"}) == {("lapack.py", "_lapack_seam")}
    assert package_callers({"dstein"}) == set()


def test_only_solve_many_drives_the_seam():
    """solver.solve_many is the one driver of every LAPACK seam: eigenvalues_lowest and eigen_lowest are its
    one-request cases, its one call of lapack.solve_operators is the seam's one caller, and the seam itself
    returns each request's checked answer."""
    assert package_callers({"_lapack_seam"}) == {("lapack.py", "solve_operators")}
    assert package_callers({"solve_operators"}) == {("solver.py", "solve_many")}


def package_imports(tree: ast.Module) -> set:
    """The package modules a module imports: each relative import as its dots and module, and each import of
    relqosc."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "relqosc"):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name.split(".")[0] == "relqosc")
    return names


CPU_COUNTS = {"sched_getaffinity", "cpu_count"}


def lapack_knowledge(tree: ast.Module) -> set:
    """What a module knows of the LAPACK layer: "ctypes" where it imports ctypes, and each LAPACK routine, LAPACK
    loader and CPU count it names, as a name, an attribute or a string constant."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return {"ctypes" for name in imported if name.split(".")[0] == "ctypes"} | (
        (read_names(tree) | strings) & (LAPACK | CPU_COUNTS))


def test_lapack_imports_no_package_module():
    """The LAPACK layer stands alone: the lapack module imports no other module of the package."""
    assert package_imports(ast.parse((ROOT / "src" / "relqosc" / "lapack.py").read_text(encoding="utf-8"))) == set()


def test_only_lapack_knows_ctypes_lapack_and_cpus():
    """No module but lapack imports ctypes, names a routine of _lapack() or its loaders, or counts the CPUs:
    the model level hands it operators and leaves the lanes to it."""
    known = {path.name: lapack_knowledge(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             for path in SRC}
    assert {name: names for name, names in known.items() if names} == {
        "lapack.py": {"ctypes", *LAPACK - {"dstein"}, *CPU_COUNTS}}


IMPORTERS = {"import_module", "__import__"}
MODULE_RUNNERS = {"module_from_spec", "exec_module"}


def scipy_reach(tree: ast.Module) -> set:
    """(how, line) for each way a module reaches a scipy module: "import <name>" for each import of scipy or a
    scipy module, by a statement or by import_module or __import__ on a string, and the name of each call that
    creates or executes a module itself (module_from_spec, exec_module)."""
    found = set()
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and called_name(node.func) in IMPORTERS:
            names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        found |= {(f"import {name}", node.lineno) for name in names if name.split(".")[0] == "scipy"}
        if isinstance(node, ast.Call) and called_name(node.func) in MODULE_RUNNERS:
            found.add((called_name(node.func), node.lineno))
    return found


def test_no_module_imports_scipy():
    """No module of the package imports scipy or a scipy module, in any form, or creates or executes a module
    itself: the LAPACK layer reaches scipy's LAPACK through the path of its shared object alone."""
    reach = {path.name: scipy_reach(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in SRC}
    assert {name: ways for name, ways in reach.items() if ways} == {}


def test_finds_scipy_reach():
    tree = ast.parse(
        "import numpy, scipy.linalg as sl\n"
        "from scipy import special\n"
        "from .scipy import local\n"
        "import importlib.util, scipyx\n"
        "spec = importlib.util.find_spec('scipy')\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "found = importlib.import_module('scipy.linalg'), __import__('scipy'), __import__(name), __import__('np')\n"
    )
    assert scipy_reach(tree) == {("import scipy.linalg", 1), ("import scipy", 2), ("module_from_spec", 6),
                                 ("exec_module", 7), ("import scipy.linalg", 8), ("import scipy", 8)}


def test_finds_package_imports_and_lapack_knowledge():
    tree = ast.parse(
        "import ctypes.util, os, relqosc.models\n"
        "from . import analytic\n"
        "from .solver import Grid\n"
        "from relqosc import verify\n"
        "from numpy import ndarray\n"
        "cpus = len(os.sched_getaffinity(0))\n"
        "values = routines['dsterf'](d), lapack.dlaebz\n"
        "name = 'sterf'\n"
    )
    assert package_imports(tree) == {"relqosc.models", ".", ".solver", "relqosc"}
    assert lapack_knowledge(tree) == {"ctypes", "sched_getaffinity", "dsterf", "dlaebz"}
    assert lapack_knowledge(ast.parse("from ctypes import c_int\n")) == {"ctypes"}


def test_finds_lapack_callers():
    tree = ast.parse(
        "lapack = _flapack()\n"
        "def seam(d, e):\n"
        "    return lapack.dlaebz(d, e), _flapack().dstein(d)\n"
        "def outer():\n"
        "    f = lambda: mod.dstein()\n"
        "def nesting():\n"
        "    def inner():\n"
        "        return dlaebz()\n"
        "def keyed():\n"
        "    return lambda work: routines['dstein'](work)\n"
        "def clean():\n"
        "    return _flapack, lapack.dlaebz, routines['dlaebz'], routines[name](), routines[0]()\n"
    )
    assert callers(tree, LAPACK) == {"<module>", "seam", "outer", "nesting", "keyed"}


def test_verify_solves_in_one_place():
    """run_suite answers every suite's requests with one solve_many call, and verify calls it nowhere else."""
    tree = ast.parse((ROOT / "src" / "relqosc" / "verify.py").read_text(encoding="utf-8"))
    assert [owner for owner, _ in call_sites(tree, {"solve_many"})] == ["run_suite"]


def test_finds_call_sites():
    tree = ast.parse(
        "def run(batch):\n"
        "    answers = solve_many(batch)\n"
        "    return answers or solver.solve_many(batch)\n"
        "solve_many\n"
    )
    assert call_sites(tree, {"solve_many"}) == [("run", 2), ("run", 3)]


def test_only_solve_builds_and_solves_the_model_operator():
    """Every model-level finite-difference solve goes through solver.solve_many."""
    assert package_callers(SOLVE_STEPS) == {("solver.py", "solve_many")}


def test_finds_solve_step_callers():
    tree = ast.parse(
        "def numeric_levels(spec, k):\n"
        "    return eigen_lowest(discretize(problem, grid), k)\n"
        "def cmd_spectrum(cfg):\n"
        "    return solver.discretize(problem, grid)\n"
        "def cmd_ajc(cfg):\n"
        "    return eigenvalues_lowest(pair.dtd_operator(), k), discretize_supercharge(spec, grid)\n"
        "step = eigen_lowest\n"
    )
    assert callers(tree, SOLVE_STEPS) == {"numeric_levels", "cmd_spectrum"}
