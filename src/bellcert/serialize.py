"""JSON and CSV interchange for strategies, correlation tables, and inputs.

Matrices travel as nested row-major lists; complex entries become [re, im]
pairs so files stay valid JSON. Floats round-trip exactly: repr writes the
shortest string that reads back as the same float. JSON inputs are read under
one rule: a field sits in a JSON object and holds the JSON type asked for
(``_field``), and a number is a JSON number (``config.is_number``: not
``"0.6"`` or ``true``); anything else raises BadParams. NaN and Infinity are
left to the objects' validators.

A strategy that a certification pipeline built is written as its target
alone (format 2) and rebuilt by that pipeline on reading; any other strategy
lists every measurement (format 1).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .certify import certification_strategy
from .config import Settings, is_number
from .errors import BadParams
from .strategies import (
    CorrelationTable,
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
)


def encode_matrix(m: np.ndarray) -> list:
    arr = np.asarray(m)
    if np.iscomplexobj(arr):
        return np.stack([arr.real, arr.imag], -1).tolist()
    return arr.astype(float).tolist()


def _field(raw: object, key: str, kind: type, what: str):
    """raw[key] when raw is a JSON object holding a `kind` there; else BadParams."""
    if isinstance(raw, dict) and key in raw and isinstance(raw[key], kind):
        return raw[key]
    noun = {list: "list", dict: "object"}.get(kind, "entry")
    raise BadParams(f"{what} needs {'an' if key[0] in 'aeiou' else 'a'} '{key}' {noun}")


def _all_numbers(values: list) -> bool:
    # the set of types is one C-level pass; is_number settles any other type
    return set(map(type, values)) <= {int, float} or all(map(is_number, values))


def decode_matrix(raw: Sequence) -> np.ndarray:
    """A matrix from a non-empty list of equal-length rows.

    Entries are JSON numbers or [re, im] pairs of them, mixed freely; the
    result is real when no pair appears. Any other shape raises BadParams.
    """
    sequence = (list, tuple)
    if not (isinstance(raw, sequence) and raw) or not all(
        isinstance(row, sequence) and len(row) == len(raw[0]) for row in raw
    ):
        raise BadParams("a matrix must be a non-empty list of equal-length rows")
    flat = [v for row in raw for v in row]
    if _all_numbers(flat):
        return np.array(raw, dtype=float)
    cells = [v if isinstance(v, sequence) else (v, 0.0) for v in flat]
    parts = [x for c in cells for x in c]
    if set(map(len, cells)) != {2} or not _all_numbers(parts):
        raise BadParams("matrix entries must be JSON numbers or [re, im] pairs")
    return np.array(parts, dtype=float).view(complex).reshape(len(raw), -1)


def measurement_to_json_dict(m: ProjectiveMeasurement) -> dict:
    return {"projections": [encode_matrix(p) for p in m.projections]}


def measurement_from_json_dict(
    raw: dict, *, settings: Settings | None = None
) -> ProjectiveMeasurement:
    projections = _field(raw, "projections", list, "a measurement")
    return ProjectiveMeasurement(tuple(map(decode_matrix, projections)), settings=settings)


def strategy_to_json_dict(s: Strategy) -> dict:
    """{"format": 2, "target": target} when `s` records its pipeline target, else format 1."""
    if isinstance(s.target, ProjectiveMeasurement):
        return {"format": 2, "target": measurement_to_json_dict(s.target)}
    if s.target is not None:
        return {"format": 2, "target": {"matrix": encode_matrix(s.target)}}
    return {
        "dim": s.dim,
        "schmidt_coeffs": [float(c) for c in s.state.coeffs],
        "alice": [
            {"label": lab, **measurement_to_json_dict(m)}
            for lab, m in zip(s.alice_labels, s.alice)
        ],
        "bob": [
            {"label": lab, **measurement_to_json_dict(m)}
            for lab, m in zip(s.bob_labels, s.bob)
        ],
        "meta": dict(s.meta),
    }


def _strategy_format(raw: object) -> int:
    """A strategy dictionary's "format": the JSON integer 1 or 2, and 1 when absent."""
    fmt = raw.get("format", 1) if isinstance(raw, dict) else 1
    if type(fmt) is not int or fmt not in (1, 2):
        raise BadParams(f"a strategy's 'format' must be 1 or 2, got {fmt!r}")
    return fmt


def strategy_from_json_dict(raw: dict, *, settings: Settings | None = None) -> Strategy:
    """A strategy from strategy_to_json_dict's shape.

    Format 2 is rebuilt by the certification pipeline from its target, so it
    equals the strategy that was written, bit for bit. In format 1 a
    measurement's "label" is a JSON string (A{i} and B{i} when absent), and
    "dim", when present, is the state's dimension as a JSON integer.
    """
    if _strategy_format(raw) == 2:
        raw_target = _field(raw, "target", dict, "a format-2 strategy")
        target = target_from_json(raw_target, settings=settings)
        return certification_strategy(target, settings=settings)
    state = state_from_json(raw)
    if "dim" in raw and not (type(raw["dim"]) is int and raw["dim"] == state.dim):
        raise BadParams(f"a strategy's 'dim' must be the integer {state.dim}, its state's")
    alice_raw, bob_raw = (_field(raw, key, list, "a strategy") for key in ("alice", "bob"))
    meta = _field(raw, "meta", dict, "a strategy") if "meta" in raw else {}
    alice, bob = (measurements_from_json(r, settings=settings) for r in (alice_raw, bob_raw))

    def labels(entries: list, prefix: str) -> tuple[str, ...]:
        return tuple(
            _field(m, "label", str, "a measurement") if "label" in m else f"{prefix}{i}"
            for i, m in enumerate(entries)
        )

    return Strategy(
        state=state,
        alice=tuple(alice),
        bob=tuple(bob),
        alice_labels=labels(alice_raw, "A"),
        bob_labels=labels(bob_raw, "B"),
        meta=dict(meta),
    )


def write_strategy(path: str | Path, s: Strategy) -> None:
    # one line, no indent: json then runs its C encoder
    Path(path).write_text(json.dumps(strategy_to_json_dict(s), allow_nan=False) + "\n")


def read_strategy(path: str | Path, *, settings: Settings | None = None) -> Strategy:
    return strategy_from_json_dict(json.loads(Path(path).read_text()), settings=settings)


# --------------------------------------------------------------------------
# readers for command-line inputs


def state_from_json(raw: dict, *, settings: Settings | None = None) -> SchmidtState:
    """Accept {"schmidt_coeffs": [...]} or a full strategy dictionary.

    A format-2 strategy is rebuilt at ``settings`` for its state, as
    measurements_from_json rebuilds it for its Alice family.
    """
    if _strategy_format(raw) == 2:
        return strategy_from_json_dict(raw, settings=settings).state
    coeffs = _field(raw, "schmidt_coeffs", list, "a state")
    if not _all_numbers(coeffs):
        raise BadParams("Schmidt coefficients must be JSON numbers")
    return SchmidtState(np.array(coeffs, dtype=float))


def measurements_from_json(
    raw: dict | list, *, settings: Settings | None = None
) -> list[ProjectiveMeasurement]:
    """Accept a list of measurement dicts, or {"measurements": [...]}.

    A strategy dictionary's {"alice": [...]} is accepted too; a format-2
    strategy gives its rebuilt Alice family, base questions included.
    """
    if _strategy_format(raw) == 2:
        return list(strategy_from_json_dict(raw, settings=settings).alice)
    if not isinstance(raw, list):
        alice = isinstance(raw, dict) and "measurements" not in raw and "alice" in raw
        raw = _field(raw, "alice" if alice else "measurements", list, "a reference list")
    return [measurement_from_json_dict(m, settings=settings) for m in raw]


def target_from_json(
    raw: dict, *, settings: Settings | None = None
) -> np.ndarray | ProjectiveMeasurement:
    """Accept {"matrix": [...]} for an observable or {"projections": [...]}."""
    if isinstance(raw, dict) and "matrix" not in raw and "projections" in raw:
        return measurement_from_json_dict(raw, settings=settings)
    return decode_matrix(_field(raw, "matrix", object, "a target"))


def matrices_from_json(raw: dict) -> list[np.ndarray]:
    """Accept {"matrices": [matrix, ...]}."""
    return [decode_matrix(m) for m in _field(raw, "matrices", list, "a matrix file")]


# --------------------------------------------------------------------------
# correlation tables as CSV

_CSV_HEADER = ["x", "j", "y", "k", "re", "im"]


def table_rows(table: CorrelationTable, end: str = "\n") -> str:
    """One x,j,y,k,re,im line per entry in row-major order, floats by repr, each ending `end`.

    A certify table holds few distinct floats, so each distinct bit pattern is
    given to repr once; bits, not values, keep -0.0 apart from 0.0.
    """
    values = table.values
    if not values.size:
        return ""
    pairs = np.stack([values.real, values.imag], -1, dtype=float)
    bits, inverse = np.unique(pairs.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    fields = text[inverse.reshape(len(values), -1)].tolist()
    # x,j, joined over ["", *cols] starts every column's line with x,j,
    cols = ["", *(f"{y},{k},%s,%s{end}" for y, k in table.cols)]
    return "".join(
        f"{x},{j},".join(cols) % tuple(row) for (x, j), row in zip(table.rows, fields)
    )


def table_to_csv(path: str | Path, table: CorrelationTable) -> None:
    # the text csv.writer writes (no field needs quoting), built in one join
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n" + table_rows(table, "\r\n"))
