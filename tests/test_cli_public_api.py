"""The CLI and the demos reach the library through its public names only."""

import ast
from pathlib import Path

import pytest

from qsconc import cli

CLI_SOURCE = Path(cli.__file__).read_text()
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_qsconc(node: ast.ImportFrom) -> bool:
    """``from . import x``, ``from qsconc import x`` or ``from qsconc.mod import x``."""
    return bool(node.level) or (node.module or "").split(".")[0] == "qsconc"


def _qsconc_modules(tree: ast.Module) -> set[str]:
    """Local names bound by ``from qsconc import ...`` (or ``from . import``) and
    ``import qsconc...`` statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "qsconc"):
            if node.module in (None, "qsconc"):
                names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name for a in node.names
                         if a.name.startswith("qsconc"))
    return names


def private_uses(source: str) -> list[str]:
    """``module._name`` attribute uses and ``from .module import _name`` imports."""
    tree = ast.parse(source)
    modules = _qsconc_modules(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and _from_qsconc(node)
              and any(_is_private(a.name) for a in node.names)):
            found.append(f"line {node.lineno}: private import from {node.module}")
    return found


def test_cli_uses_no_private_library_name():
    assert private_uses(CLI_SOURCE) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_uses_no_private_library_name(demo):
    source = demo.read_text()
    assert _qsconc_modules(ast.parse(source))  # it imports from qsconc
    assert private_uses(source) == []


def test_guard_sees_private_uses():
    source = ("from . import bounds, closed_forms\nfrom .errors import _hidden\n"
              "import qsconc.roof as roof\n"
              "bounds._bound_function(p)\nclosed_forms._pow(2.0, 3)\nroof._descend()\n"
              "args._private\n")
    assert private_uses(source) == [
        "line 2: private import from errors",
        "line 4: bounds._bound_function",
        "line 5: closed_forms._pow",
        "line 6: roof._descend",
    ]


def test_guard_sees_private_imports_from_submodules():
    # The demos import the way a user would: from qsconc or its submodules.
    source = "from qsconc.closed_forms import _in_range\nfrom qsconc.cli import main\n"
    assert private_uses(source) == ["line 1: private import from qsconc.closed_forms"]


def test_guard_finds_the_cli_module_imports():
    # Without them the first test would pass vacuously.
    modules = _qsconc_modules(ast.parse(CLI_SOURCE))
    assert {"bounds", "closed_forms", "inequalities", "measures", "states"} <= modules
