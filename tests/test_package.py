"""Package surface: every exported name resolves and every demo runs."""

from __future__ import annotations

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


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path: Path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
