"""The CLI and the demos reach the library through its public names only,
and every public name has a caller or implements one of the paper's formulas."""

import ast
import inspect
from pathlib import Path

import pytest

import qsconc
from qsconc import cli

CLI_SOURCE = Path(cli.__file__).read_text()
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


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


# Exports that neither the CLI, the demos nor bench/ name, each with the
# formula of the paper it implements, or the formula's input or result.
PAPER_FORMULAS = {
    "bound_value_regime_a": "the published regime-A bound g(N)",
    "bound_value_regime_b": "the published regime-B bound",
    "bound_value_tight": "the sound single-norm bound co R_m(N/m)",
    "bridge_window": "the (q, s) window of the qubit-qudit bridge identity",
    "in_regime_a_window": "the (q, s) window of the regime-A bound",
    "in_regime_b_window": "the (q, s) window of the regime-B bound",
    "haar_random_unitary": "the local unitaries that leave every measure unchanged; tests draw them",
    "ParamPair": "(q, s) with its sign regime and factor eps",
    "Regime": "the sign regimes A and B",
    "SchmidtSpectrum": "the Schmidt spectrum that defines the pure-state measure",
    "BoundReport": "both reshuffle norms and the bound detect and bound_auto return",
    "DetectedBy": "which reshuffle criterion fires",
    "EnvelopeCurve": "the convex envelope of an isotropic or Werner curve",
    "IsotropicExtremum": "the isotropic curve's extremum over Schmidt spectra",
    "MonogamyReport": "the monogamy residual tau = K - sum K_i and its terms",
    "PolygonReport": "the polygon inequality's marginals and violations",
    "RoofResult": "the convex-roof estimate and its decomposition",
    "SandwichReport": "a norm lower bound against the roof upper estimate",
}


def _names_used(path: Path) -> set[str]:
    """Names, attributes, imported names and strings (traced names) in a file."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_export_has_a_caller_or_is_a_paper_formula():
    exports = {name for name, obj in vars(qsconc).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    used = set().union(*map(_names_used, [Path(cli.__file__), *DEMOS, *BENCH]))
    assert sorted(exports - used - PAPER_FORMULAS.keys()) == []
    assert sorted(PAPER_FORMULAS.keys() - exports) == []
    assert sorted(PAPER_FORMULAS.keys() & used) == []
