"""The benchmark's hooks into bellcert still exist.

perfbench/tracing.py wraps the functions its LAYERS and CAPTURED name, and
perfbench/run.py calls bellcert entry points. Both files are read here with
ast, never imported, so that renaming or deleting one of those functions
fails this suite and not only ``python -m pytest perfbench``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_constant(path: Path, name: str):
    """The literal value of a module-level assignment `name = ...` in `path`."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def traced_names() -> list[tuple[str, str]]:
    """(module, function) for every LAYERS entry and every CAPTURED solver."""
    path = PERFBENCH / "tracing.py"
    layers = _module_constant(path, "LAYERS")
    captured = _module_constant(path, "CAPTURED")  # Capture rebinds them in posthoc
    pairs = [(m, n) for m, names in layers.items() for n in names]
    return list(dict.fromkeys(pairs + [("posthoc", n) for n in captured]))


def entry_point_calls(source: str) -> list[tuple[str, str, int, list[str]]]:
    """(module, function, positional count, keywords) of each bellcert call in `source`.

    A call is found through `self.x = bellcert.m` and then `self.x.f(...)`, or
    through `from bellcert.m import f` and then `f(...)`.
    """
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # self attribute -> bellcert module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, function)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            value = node.value
            if isinstance(value.value, ast.Name) and value.value.id == "bellcert":
                for t in node.targets:
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
                        bound[t.attr] = value.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bellcert."):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module.split(".", 1)[1], alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, target = node.func, None
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            owner = func.value
            if isinstance(owner.value, ast.Name) and owner.value.id == "self":
                target = (bound[owner.attr], func.attr) if owner.attr in bound else None
        if target is not None:
            calls.append((*target, len(node.args), [k.arg for k in node.keywords]))
    return calls


def _resolve(module: str, name: str):
    mod = importlib.import_module(f"bellcert.{module}")
    assert hasattr(mod, name), f"bellcert.{module} has no {name}"
    return getattr(mod, name)


def _ids(calls) -> list[str]:
    return [f"{module}.{name}" for module, name, *_ in calls]


TRACED = traced_names()


@pytest.mark.parametrize("module, name", TRACED, ids=_ids(TRACED))
def test_every_traced_function_exists(module, name):
    assert callable(_resolve(module, name))


# run.py and the modules it loads its jobs and checks from
RUN_CALLS = [
    call
    for name in ("run.py", "inputs.py", "oracle.py")
    for call in entry_point_calls((PERFBENCH / name).read_text())
]


def test_run_calls_the_cli_and_the_planner():
    assert {(m, f) for m, f, _, _ in RUN_CALLS} >= {("cli", "main"), ("certify", "iterative_plan")}


@pytest.mark.parametrize("module, name, positional, keywords", RUN_CALLS, ids=_ids(RUN_CALLS))
def test_every_run_entry_point_takes_its_arguments(module, name, positional, keywords):
    signature = inspect.signature(_resolve(module, name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize(
    "source, expected",
    [
        (
            "import bellcert.cli\nclass R:\n    def __init__(self):\n"
            "        self.c = bellcert.cli\n    def go(self):\n        self.c.main([], x=1)",
            [("cli", "main", 1, ["x"])],
        ),
        ("from bellcert.cli import main as m\nm(a)", [("cli", "main", 1, [])]),
        ("self.other.main(1)\nnp.linalg.eigh(a)", []),
    ],
    ids=["self-attribute", "from-import", "other-calls"],
)
def test_the_scan_finds_each_form(source, expected):
    assert entry_point_calls(source) == expected
