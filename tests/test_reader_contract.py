"""One reader contract: a wrong-typed JSON value raises BadParams, and the CLI exits 2.

Every public reader of parsed JSON is fed the same wrong-typed values. Each
must raise BadParams (exit code 2 on the command line), never TypeError,
KeyError or AttributeError, which end the command line in a traceback with
exit code 1, the code for a negative outcome.
"""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from bellcert import serialize
from bellcert.cli import main
from bellcert.config import Settings
from bellcert.errors import BadParams
from bellcert.posthoc import RobustnessParams
from bellcert.serialize import encode_matrix, measurement_to_json_dict, strategy_to_json_dict
from bellcert.strategies import ProjectiveMeasurement, SchmidtState, Strategy

from helpers import X

MEASUREMENT = measurement_to_json_dict(ProjectiveMeasurement.from_observable(X))
# a certification strategy's file: the pipeline rebuilds it from its target
FORMAT_2 = {"format": 2, "target": {"matrix": encode_matrix(np.diag([1.0, -1.0, 1.0]))}}

# each reader with an input it accepts
VALID = {
    "decode_matrix": encode_matrix(X),
    "state_from_json": {"schmidt_coeffs": [0.6, 0.8]},
    "measurement_from_json_dict": MEASUREMENT,
    "measurements_from_json": {"measurements": [MEASUREMENT]},
    "target_from_json": {"matrix": encode_matrix(X)},
    "matrices_from_json": {"matrices": [encode_matrix(X)]},
    # a strategy's "dim" is optional, and read as the state's dimension
    "strategy_from_json_dict": {
        "dim": 2,
        "schmidt_coeffs": [0.6, 0.8],
        "alice": [{"label": "A", **MEASUREMENT}],
        "bob": [{"label": "B", **MEASUREMENT}],
        "meta": {"kind": "test"},
    },
    "strategy_from_json_dict:format-2": FORMAT_2,
    "Settings.from_file": {"eig_tol": 1e-9},
    "RobustnessParams.from_json_dict": {
        "n": 6, "lambda_min_gram": 1.0, "trace_q": 3.0, "lambda_min_q": 1.0,
        "lambda_max_schmidt": 0.6, "kappa_schmidt": 1.0, "epsilon": 0.0, "delta": 1e-4,
    },
}
# readers of JSON objects of numbers, where 5 is a well-typed value
NUMERIC = {"Settings.from_file", "RobustnessParams.from_json_dict"}

WRONG = [5, "x", None, True, [], {}, [5]]
# wrong-looking values that are well typed: an empty reference list, and a
# settings file that overrides nothing
WELL_TYPED = {("measurements_from_json", "[]"), ("Settings.from_file", "{}")}


def read(name: str, raw, tmp_path: Path):
    if name == "Settings.from_file":
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(raw))
        return Settings.from_file(path)
    if name == "RobustnessParams.from_json_dict":
        return RobustnessParams.from_json_dict(raw)
    return getattr(serialize, name.split(":")[0])(raw)


def wrong_cases():
    """Each reader with each wrong value, whole or in place of one field."""
    for name in sorted(VALID):
        for raw in WRONG:
            yield pytest.param(name, raw, id=f"{name}:{json.dumps(raw)}")
        if isinstance(VALID[name], dict):
            values = ["5" if name in NUMERIC else 5, "x", None, True, [5]]
            for key in VALID[name]:
                for value in values:
                    raw = {**VALID[name], key: value}
                    yield pytest.param(name, raw, id=f"{name}:{key}={json.dumps(value)}")


@pytest.mark.parametrize("name", sorted(VALID))
def test_each_reader_accepts_its_valid_input(name, tmp_path):
    read(name, VALID[name], tmp_path)


@pytest.mark.parametrize("name, raw", list(wrong_cases()))
def test_wrong_typed_values_raise_bad_params(name, raw, tmp_path):
    if (name, json.dumps(raw)) in WELL_TYPED:
        read(name, raw, tmp_path)
    else:
        with pytest.raises(BadParams):
            read(name, raw, tmp_path)


@pytest.mark.parametrize("label", [None, [1], 5, True, {"A": 0}])
def test_a_non_string_label_raises_bad_params(label):
    raw = json.loads(json.dumps(VALID["strategy_from_json_dict"]))
    raw["bob"][0]["label"] = label
    with pytest.raises(BadParams, match="'label'"):
        serialize.strategy_from_json_dict(raw)


@pytest.mark.parametrize("fmt", [3, 0, "2", 2.0, False])
@pytest.mark.parametrize(
    "reader", ["strategy_from_json_dict", "state_from_json", "measurements_from_json"]
)
def test_an_unknown_strategy_format_raises_bad_params(reader, fmt):
    with pytest.raises(BadParams, match="'format' must be 1 or 2"):
        getattr(serialize, reader)({**FORMAT_2, "format": fmt})


def test_absent_labels_and_dim_take_their_defaults():
    raw = json.loads(json.dumps(VALID["strategy_from_json_dict"]))
    for key in ("dim", "meta"):
        del raw[key]
    for m in (*raw["alice"], *raw["bob"]):
        del m["label"]
    s = serialize.strategy_from_json_dict(raw)
    assert (s.alice_labels, s.bob_labels, s.dim) == (("A0",), ("B0",), 2)


# --------------------------------------------------------------------------
# every public *_from_json* reader in serialize is on the list


def unlisted_readers(source: str, listed) -> list[str]:
    """Public module-level functions named ``*_from_json*`` missing from `listed`."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and "_from_json" in node.name
        and not node.name.startswith("_")
        and node.name not in listed
    ]


def test_every_serialize_reader_is_listed():
    source = Path(serialize.__file__).read_text()
    assert unlisted_readers(source, VALID) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def a_from_json(raw): pass", ["a_from_json"]),
        ("def a_from_json_dict(raw): pass\ndef b(raw): pass", ["a_from_json_dict"]),
        ("def state_from_json(raw): pass", []),
        ("def _a_from_json(raw): pass\ndef read_a(path): pass", []),
        ("class C:\n    def a_from_json(self): pass", []),
    ],
)
def test_the_reader_scan_sees_each_form(source, expected):
    assert unlisted_readers(source, {"state_from_json"}) == expected


# --------------------------------------------------------------------------
# malformed input files on the command line


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    strategy = Strategy(
        state=SchmidtState(np.array([0.6, 0.8])),
        alice=(ProjectiveMeasurement.from_observable(X),),
        bob=(ProjectiveMeasurement.from_observable(X),),
    )
    good = {
        "state": json.dumps(VALID["state_from_json"]),
        "alice": json.dumps([MEASUREMENT]),
        "target": json.dumps(VALID["target_from_json"]),
        "strategy": json.dumps(strategy_to_json_dict(strategy)),
    }
    return write, good


def _strategy_with(key, value):
    return lambda good: json.dumps({**json.loads(good["strategy"]), key: value})


NAN_3D = '{"matrix": [[NaN, 1, 0], [1, 0, 0], [0, 0, 1]]}'

# (command, file that is malformed, its text or a function of the good texts,
# expected error)
MALFORMED = {
    "state-number": ("posthoc-check", "state", '{"schmidt_coeffs": 5}', "'schmidt_coeffs' list"),
    "alice-list-of-number": ("posthoc-check", "alice", "[5]", "'projections' list"),
    "alice-measurements-number": (
        "posthoc-check", "alice", '{"measurements": 3}', "'measurements' list"
    ),
    "alice-number": ("posthoc-check", "alice", "5", "'measurements' list"),
    "target-projections-number": (
        "posthoc-check", "target", '{"projections": 3}', "'projections' list"
    ),
    "strategy-list": ("correlations", "strategy", "[1]", "'schmidt_coeffs' list"),
    "strategy-alice-number": (
        "correlations", "strategy", _strategy_with("alice", 5), "needs an 'alice' list"
    ),
    "strategy-meta-number": (
        "correlations", "strategy", _strategy_with("meta", 5), "needs a 'meta' object"
    ),
    "strategy-format-string": (
        "correlations",
        "strategy",
        json.dumps({**FORMAT_2, "format": "2"}),
        "'format' must be 1 or 2",
    ),
    "strategy-format-2-target-number": (
        "correlations", "strategy", '{"format": 2, "target": 5}', "needs a 'target' object"
    ),
    "strategy-format-2-target-2d": (
        "correlations",
        "strategy",
        json.dumps({"format": 2, "target": {"matrix": encode_matrix(X)}}),
        "dimension >= 3",
    ),
    "state-strings": (
        "posthoc-check", "state", '{"schmidt_coeffs": ["0.6", "0.8"]}', "must be JSON numbers"
    ),
    "target-booleans": (
        "posthoc-check",
        "target",
        '{"matrix": [[false, true], [true, false]]}',
        "must be JSON numbers",
    ),
    # json reads a long integer literal exactly; it overflows a float
    "state-huge-integer": (
        "posthoc-check", "state", '{"schmidt_coeffs": [1%s]}' % ("0" * 400), "too large"
    ),
    "target-nan": ("posthoc-check", "target", '{"matrix": [[NaN, 1], [1, 0]]}', "non-finite"),
    "alice-infinity": (
        "posthoc-check",
        "alice",
        '[{"projections": [[[1, 0], [0, 0]], [[0, 0], [0, Infinity]]]}]',
        "non-finite",
    ),
    "certify-nan": ("certify", "target", NAN_3D, "non-finite"),
    "closure-nan": ("jordan-closure", "observables", '{"matrices": [[[NaN, 1], [1, 0]]]}', "non-finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_exits_two_with_one_error_line(case, files, tmp_path, capsys):
    write, good = files
    command, bad, text, expected = MALFORMED[case]
    text = text(good) if callable(text) else text
    paths = {name: write(f"{name}.json", good[name]) for name in good}
    paths[bad] = write("bad.json", text)
    argv = {
        "posthoc-check": ["--state", paths["state"], "--alice", paths["alice"],
                          "--target", paths["target"]],
        "correlations": ["--strategy", paths["strategy"]],
        "certify": ["--target", paths["target"], "--out", str(tmp_path / "out")],
        "jordan-closure": ["--observables", paths.get("observables", "")],
    }[command]
    with warnings.catch_warnings():
        # NaN used to reach LAPACK, warn, and fail there
        warnings.simplefilter("error")
        code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]
    assert not (tmp_path / "out").exists()
