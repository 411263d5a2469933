"""One tolerance path: package code takes its tolerances from the caller's Settings."""

import ast
import dataclasses
from pathlib import Path

import pytest

import bellcert
from bellcert.config import Settings

SRC = Path(bellcert.__file__).resolve().parent

# kernels that take a plain number by design: the stacked Hermitian
# validator and the orthogonalizer's entry points
KERNELS = frozenset(
    {
        "require_hermitian_stack",
        "orthonormal_rows",
        "extend_orthonormal_rows",
        "extension_rank",
        "_extend",
        "_residual_svd",
    }
)


def _is_tolerance(name: str) -> bool:
    return name == "tol" or name.endswith("_tol")


def tolerance_leaks(source: str, *, defaults_allowed: bool = False) -> list[str]:
    """Ways a module's source sets or reads a tolerance outside Settings.

    Reports ``f(name)`` for every parameter named ``tol`` or ``*_tol`` of a
    function (or lambda) not in KERNELS, and ``DEFAULTS.<field>`` for every
    attribute read on ``DEFAULTS`` (bare or as ``<module>.DEFAULTS``) unless
    ``defaults_allowed``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if name not in KERNELS:
                found += [f"{name}({p.arg})" for p in params if p and _is_tolerance(p.arg)]
        elif isinstance(node, ast.Attribute) and not defaults_allowed:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "DEFAULTS") or (
                isinstance(owner, ast.Attribute) and owner.attr == "DEFAULTS"
            ):
                found.append(f"DEFAULTS.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_tolerances_come_from_settings(path):
    source = path.read_text()
    assert tolerance_leaks(source, defaults_allowed=path.name == "config.py") == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(x, tol=1e-9): pass", ["f(tol)"]),
        ("def f(x, *, gap_tol, distinct_tol): pass", ["f(gap_tol)", "f(distinct_tol)"]),
        ("class M:\n    def __post_init__(self, tol): pass", ["__post_init__(tol)"]),
        ("async def f(tol, /): pass", ["f(tol)"]),
        ("g = lambda m, tol: m", ["<lambda>(tol)"]),
        ("def f(*tol, **eig_tol): pass", ["f(tol)", "f(eig_tol)"]),
        ("def f():\n    return DEFAULTS.eig_tol", ["DEFAULTS.eig_tol"]),
        ("from . import config\nconfig.DEFAULTS.sym_tol", ["DEFAULTS.sym_tol"]),
        ("def orthonormal_rows(rows, tol): pass\ndef _verdict(v, tol): pass", ["_verdict(tol)"]),
        ("def f(m, *, settings=None):\n    return (settings or DEFAULTS).eig_tol", []),
        ("s = DEFAULTS\nDEFAULTS_X.eig_tol\nsettings.sym_tol", []),
        ("def f(tolerance, atol, tols, tol_x): pass", []),
        ("_TOL = 1e-9\ndef f(x):\n    return x < _TOL", []),
    ],
)
def test_the_scan_sees_each_form(source, expected):
    assert tolerance_leaks(source) == expected


def test_config_may_read_its_defaults():
    assert tolerance_leaks("DEFAULTS.sym_tol", defaults_allowed=True) == []


def unread_fields(sources: list[str], names: list[str]) -> list[str]:
    """The names that no source reads as an attribute, ``<expr>.<name>``.

    A keyword (``replace(eig_tol=...)``), a string, a ``getattr`` call or an
    assignment to the attribute does not count as a read.
    """
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in names if name not in read]


def test_every_settings_field_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "config.py"]
    names = [f.name for f in dataclasses.fields(Settings)]
    assert unread_fields(sources, names) == []


@pytest.mark.parametrize(
    "sources, expected",
    [
        (["s.sym_tol"], ["eig_tol"]),
        (["s.sym_tol", "(settings or DEFAULTS).eig_tol"], []),
        (["def f(settings):\n    return settings.eig_tol < settings.sym_tol"], []),
        (["s.sym_tol\ns.replace(eig_tol=1e-6)"], ["eig_tol"]),
        (["s.sym_tol\nx = 'eig_tol'\ngetattr(s, 'eig_tol')"], ["eig_tol"]),
        (["s.sym_tol\ns.eig_tol = 1e-6"], ["eig_tol"]),
        (["def eig_tol(sym_tol): pass"], ["sym_tol", "eig_tol"]),
    ],
)
def test_the_field_scan_sees_each_form(sources, expected):
    assert unread_fields(sources, ["sym_tol", "eig_tol"]) == expected
