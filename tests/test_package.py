"""Package surface: every exported name resolves and every demo runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import lanepolicy

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = sorted(
    f"lanepolicy.{info.name}" for info in pkgutil.iter_modules(lanepolicy.__path__)
)


@pytest.mark.parametrize("module_name", ["lanepolicy", *MODULES])
def test_exports_resolve(module_name: str):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_only_the_files_module_reads_or_writes_files():
    # json.loads of text already in memory (--set values, scenario text) is allowed
    file_access = re.compile(r"\bopen\(|^\s*(import|from) csv\b|\bjson\.dumps?\(", re.MULTILINE)
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "_files.py" and file_access.search(path.read_text())
    )
    assert offenders == []


def test_only_the_demand_module_states_the_operating_point():
    # the linear profile q0*(1 - x/A), and the q0 and auto_share rule
    restated = re.compile(r"1\.0 - (nodes|x_arr) /|\b(q0|auto_share) must\b")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "demand.py" and restated.search(path.read_text())
    )
    assert offenders == []


def test_only_the_cost_model_states_lane_stream_loads():
    # bus PCE, the auto vehicles of a stream and the auto travelers at a
    # signal; config.py declares bus_pce
    restated = re.compile(r"\bbus_pce\b|\.vehicles\(|\bsignal_auto_pax\(")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name not in ("config.py", "costmodel.py") and restated.search(path.read_text())
    )
    assert offenders == []


def test_only_the_cost_model_builds_the_unit_demand_field():
    # the unit demand profiles at the grid nodes are costmodel._loads' table
    restated = re.compile(r"\bDemandField\(q0=1\.0\b")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "costmodel.py" and restated.search(path.read_text())
    )
    assert offenders == []


def test_only_the_cost_model_states_time_and_waiting_laws():
    # which (t0, alpha, beta) a traveler class rides on and the waiting
    # coefficients; config.py declares them
    restated = re.compile(r"\b(t0|alpha|beta)_(auto|bus)\b|\bwait_gamma\d\b")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name not in ("config.py", "costmodel.py") and restated.search(path.read_text())
    )
    assert offenders == []


def test_only_the_cost_model_states_cost_rates():
    # values of time, crowding, the fare, auto money and operating costs are
    # priced from costmodel._rates; config.py declares them, and the CLI
    # manifest echoes vot_wait among its highlighted defaults without pricing it
    read = re.compile(
        r"\.(discomfort_(quad|lin)|(fixed|variable)_operating_cost|fare"
        r"|auto_fixed_cost|auto_cost_per_mi|vot_(auto|bus|wait))\b"
    )
    echo = '"econ.vot_wait": scenario.econ.vot_wait,'
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name not in ("config.py", "costmodel.py")
        and read.search(path.read_text().replace(echo, ""))
    )
    assert offenders == []


def test_only_the_frequency_sweep_contracts_the_moment_table():
    # poly's monomials a^j b^m F^k are priced in _fsweep alone: the exact
    # share terms and the share table behind the coarse split pass's bounds
    contracts = re.compile(r"\.poly\b")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "_fsweep.py" and contracts.search(path.read_text())
    )
    assert offenders == []


def test_only_the_cost_model_prices_at_the_grid_nodes():
    # evaluation contexts and the size of a stacked pricing pass; the optimizer
    # searches and calls the cost model's batched functions
    restated = re.compile(r"\b(build)?_context\(|^_PRICE_BLOCK\b", re.MULTILINE)
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "costmodel.py" and restated.search(path.read_text())
    )
    assert offenders == []


def test_no_module_interpolates_a_node_profile():
    # the cost model prices at the grid nodes only, so no profile is read
    # between them
    interpolates = re.compile(r"\binterp\(")
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if interpolates.search(path.read_text())
    )
    assert offenders == []


def test_the_cli_restates_no_library_check():
    # the library functions check --F, --n and the demand range; the
    # capacity floor's slack is optimizer._FLOOR_SLACK
    restated = re.compile(r"\d(\.\d+)?e-\d|\bargs\.(F|n|q0_lo|q0_hi)\b[^\n]*[<>]|isfinite")
    source = (Path(lanepolicy.__path__[0]) / "cli.py").read_text()
    assert restated.findall(source) == []


def test_the_library_prices_components_only_from_the_moment_table():
    # node-level component pricing is the tests' reference (tests/_reference.py);
    # the library's one node-level batch is the equilibrium gap
    defined, callers = [], []
    for path in sorted(Path(lanepolicy.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("_components", "_user_cost")
        ]
        callers += [
            getattr(scope, "name", "<module>")
            for scope in tree.body
            for node in ast.walk(scope)
            if isinstance(node, ast.Call)
            and "_in_passes" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert defined == []
    assert callers == ["_equilibrium_gaps"]


def _halves_a_bracket(node: ast.AST) -> bool:
    """``0.5 * (a + b)`` or ``(a + b) / 2``: the midpoint of a bracket."""
    if not isinstance(node, ast.BinOp):
        return False
    sides = (node.left, node.right)
    if isinstance(node.op, ast.Mult):
        return any(isinstance(s, ast.Constant) and s.value == 0.5 for s in sides) and any(
            isinstance(s, ast.BinOp) and isinstance(s.op, ast.Add) for s in sides
        )
    return (
        isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    )


def test_only_numeric_halves_a_bracket():
    # every bisection is a walk of numeric.find_roots; threshold and optimizer
    # hand it their brackets
    halvers = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if any(_halves_a_bracket(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert halvers == ["numeric.py"]


def _estimates_a_root(node: ast.AST) -> bool:
    """A secant's zero-crossing share ``g / (g - h)``, or a divided difference
    ``(c[i] - c[j]) / (x[k] - x[l])``: the steps of estimating a root."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    top, bottom = node.left, node.right
    if not (isinstance(bottom, ast.BinOp) and isinstance(bottom.op, ast.Sub)):
        return False
    if ast.dump(top) in (ast.dump(bottom.left), ast.dump(bottom.right)):
        return True
    return (
        isinstance(top, ast.BinOp)
        and isinstance(top.op, ast.Sub)
        and all(
            isinstance(s, ast.Subscript) for s in (top.left, top.right, bottom.left, bottom.right)
        )
    )


def test_only_numeric_estimates_a_root():
    # find_roots predicts each walk's path from its own model of g, in
    # Python floats; callers hand it values already priced, never an
    # estimate.  No module fits or solves a polynomial through NumPy, whose
    # first LAPACK call raises the peak RSS of a run.
    fits = re.compile(
        r"\b(np|numpy)\.(linalg|polyfit|roots)\b"
        r"|\bfrom numpy import[^\n]*\b(linalg|polyfit|roots)\b"
    )
    offenders = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if fits.search(path.read_text())
    )
    assert offenders == []
    estimators = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if any(_estimates_a_root(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert estimators == ["numeric.py"]


def _steps_a_grid(node: ast.AST) -> bool:
    """``np.arange`` called with a start, a stop and a step."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "arange"
        and (len(node.args) >= 3 or any(kw.arg == "step" for kw in node.keywords))
    )


def test_only_numeric_steps_a_grid():
    # every search grid comes from numeric._lattice, whose one end rule keeps
    # both ends; an index range or np.linspace is no search grid
    steppers = sorted(
        path.name
        for path in Path(lanepolicy.__path__[0]).glob("*.py")
        if path.name != "numeric.py"
        and any(_steps_a_grid(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert steppers == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path: Path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
