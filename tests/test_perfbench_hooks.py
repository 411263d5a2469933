"""The benchmark's hooks into bellcert still exist.

perfbench/tracing.py wraps the functions its LAYERS and CAPTURED name, and
perfbench/run.py calls bellcert entry points. Both files are read here with
ast, never imported, so that renaming or deleting one of those functions
fails this suite and not only ``python -m pytest perfbench``.
"""

import ast
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bellcert import certify, cli
from bellcert.jordan import jordan_closure
from bellcert.linalg import smat

from helpers import pipeline_target_json, random_projective_measurement, random_reflection

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def self_timed_layers() -> list[tuple[str, str]]:
    """(module, function) of every per-layer metric in BENCHMARK.json that is a self time."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"].removesuffix(".self_s") for m in bench["per_layer"]]
    return [tuple(n.split(".")) for n, m in zip(names, bench["per_layer"]) if n != m["name"]]


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _probe_inputs(tmp_path: Path) -> tuple[list[list[str]], tuple]:
    """The library equivalents of run.py's probe jobs plus one closure job.

    CLI argument lists for certify of a binary target and of a 3-outcome
    measurement at d = 4, an order-3 posthoc-check at d = 5 and a
    jordan-closure at d = 8, and the arguments of an iterative plan at d = 4
    whose target needs extension rounds.
    """
    rng = np.random.default_rng(5)
    argv = []
    for kind in ("pair", "measurement"):
        target = _write(tmp_path / f"{kind}.json", pipeline_target_json(4, kind))
        argv.append(["certify", "--target", target, "--out", str(tmp_path / kind)])
    refs = [random_projective_measurement(rng, 5, 3) for _ in range(2)]
    alice = [{"projections": [p.tolist() for p in m]} for m in refs]
    argv.append([
        "posthoc-check",
        "--state", _write(tmp_path / "state.json", {"schmidt_coeffs": [5 ** -0.5] * 5}),
        "--alice", _write(tmp_path / "alice.json", alice),
        "--target", _write(tmp_path / "target.json", alice[0]),
        "--json",
    ])
    closure = {"matrices": [random_reflection(rng, 8, 4).tolist() for _ in range(3)]}
    argv.append(["jordan-closure", "--observables", _write(tmp_path / "closure.json", closure)])
    # the sign of a random element of the closure, cut between its top two eigenvalues
    gens = [random_reflection(rng, 4, 2) for _ in range(3)]
    basis, _ = jordan_closure(gens)
    vals, vecs = np.linalg.eigh(np.tensordot(rng.standard_normal(basis.dimension), smat(basis.rows), 1))
    target = (vecs * np.where(np.arange(4) == 3, 1.0, -1.0)) @ vecs.T
    return argv, (gens, target)


def test_the_probe_jobs_reach_every_self_timed_layer(tmp_path, monkeypatch, capsys):
    """A traced layer that the probe never calls reads 0 s, and perfbench's
    traced run rejects that as "has no span". Each traced function is rebound
    as perfbench's Tracer rebinds it: in every bellcert module that holds it."""
    timed = self_timed_layers()
    assert set(timed) <= set(TRACED)
    argv, (gens, target) = _probe_inputs(tmp_path)
    calls: Counter = Counter()
    for module, name in TRACED:
        original = getattr(importlib.import_module(f"bellcert.{module}"), name)

        def counted(*args, _func=original, _key=(module, name), **kwargs):
            calls[_key] += 1
            return _func(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "bellcert" or mod_name.startswith("bellcert.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    for args in argv:
        assert cli.main(args) == 0, args
    capsys.readouterr()
    certify.iterative_plan(gens, target, seed=0)  # looked up now: the rebound name
    missing = [f"{m}.{n}" for m, n in timed if not calls[(m, n)]]
    assert missing == []
