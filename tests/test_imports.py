"""Module boundaries: no package module imports another module's private names."""

import ast
from pathlib import Path

import pytest

import bellcert

SRC = Path(bellcert.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Underscore names a module's source takes from other bellcert modules.

    Covers ``from .m import _x`` (and ``from bellcert.m import _x``) as well
    as ``m._x`` on a module bound by ``from . import m`` or ``import
    bellcert.m as m``.
    """
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "bellcert":
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                elif node.module is None or node.module == "bellcert":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bellcert.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_private_names(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .posthoc import _margin_search, min_trace_Q", ["posthoc._margin_search"]),
        ("from bellcert.linalg import _extend", ["bellcert.linalg._extend"]),
        ("from . import jordan\njordan._validated_family([])", ["jordan._validated_family"]),
        ("import bellcert.linalg as la\nla._extend", ["la._extend"]),
        ("from . import __version__\nfrom .linalg import sym_eig", []),
        ("from numpy import _globals\nimport numpy as np\nnp._x", []),
    ],
)
def test_the_scan_sees_each_import_form(source, expected):
    assert private_imports(source) == expected


# --------------------------------------------------------------------------
# the convex solver and the span builders stay apart


def package_imports(source: str) -> set[str]:
    """Short names of the bellcert modules a module's source imports.

    Covers ``from .m import x``, ``from . import m``, ``from bellcert.m import
    x`` and ``import bellcert.m``.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "bellcert":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module)
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bellcert."):
                    found.add(alias.name.partition(".")[2])
    return found


def reachable_modules(name: str) -> set[str]:
    """Every bellcert module that importing ``name`` loads, ``name`` excluded."""
    seen, todo = set(), [name]
    while todo:
        for module in package_imports((SRC / f"{todo.pop()}.py").read_text()) - seen:
            seen.add(module)
            todo.append(module)
    return seen - {name}


def test_the_solver_imports_only_config_errors_and_linalg():
    assert package_imports((SRC / "solver.py").read_text()) <= {"config", "errors", "linalg"}


def test_the_span_builders_load_no_solver():
    # a certificate checker takes question_span and frame_generators from here
    assert not reachable_modules("strategies") & {"solver", "posthoc"}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .solver import best_margin", {"solver"}),
        ("from . import solver, config", {"solver", "config"}),
        ("from bellcert.posthoc import min_trace_Q\nimport bellcert.linalg", {"posthoc", "linalg"}),
        ("from numpy import linalg\nimport numpy.linalg\nfrom bellcert import x", {"x"}),
    ],
)
def test_the_import_scan_sees_each_form(source, expected):
    assert package_imports(source) == expected
