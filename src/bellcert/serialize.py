"""JSON and CSV interchange for strategies, correlation tables, and inputs.

Matrices travel as nested row-major lists; complex entries become [re, im]
pairs so files stay valid JSON. Floats round-trip exactly (repr-based, 17
significant digits). Reader helpers are deliberately tolerant about which
top-level shape they accept so command-line inputs can stay minimal.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import Settings
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


def decode_matrix(raw: Sequence) -> np.ndarray:
    """A matrix from a non-empty list of equal-length rows.

    Entries are numbers or [re, im] pairs, mixed freely; the result is real
    when no pair appears. Any other shape raises BadParams.
    """
    sequence = (list, tuple)
    if not (isinstance(raw, sequence) and raw) or not all(
        isinstance(row, sequence) and len(row) == len(raw[0]) for row in raw
    ):
        raise BadParams("a matrix must be a non-empty list of equal-length rows")
    rows = []
    complex_seen = False
    try:
        for raw_row in raw:
            row = []
            for v in raw_row:
                if isinstance(v, sequence):
                    if len(v) != 2:
                        raise BadParams("complex entries must be [re, im] pairs")
                    row.append(complex(float(v[0]), float(v[1])))
                    complex_seen = True
                else:
                    row.append(complex(float(v), 0.0))
            rows.append(row)
    except TypeError as exc:
        raise BadParams("matrix entries must be numbers or [re, im] pairs") from exc
    arr = np.array(rows, dtype=complex)
    if not complex_seen and np.all(arr.imag == 0.0):
        return arr.real.copy()
    return arr


def measurement_to_json_dict(m: ProjectiveMeasurement) -> dict:
    return {"projections": [encode_matrix(p) for p in m.projections]}


def measurement_from_json_dict(
    raw: dict, *, settings: Settings | None = None
) -> ProjectiveMeasurement:
    if "projections" not in raw:
        raise BadParams("measurement entry needs a 'projections' list")
    return ProjectiveMeasurement(
        tuple(decode_matrix(p) for p in raw["projections"]), settings=settings
    )


def strategy_to_json_dict(s: Strategy) -> dict:
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


def strategy_from_json_dict(raw: dict, *, settings: Settings | None = None) -> Strategy:
    try:
        coeffs = np.array([float(c) for c in raw["schmidt_coeffs"]])
        alice_raw = raw["alice"]
        bob_raw = raw["bob"]
    except KeyError as exc:
        raise BadParams(f"strategy file is missing field {exc}") from exc
    state = SchmidtState(coeffs)
    alice = tuple(measurement_from_json_dict(m, settings=settings) for m in alice_raw)
    bob = tuple(measurement_from_json_dict(m, settings=settings) for m in bob_raw)
    labels_a = tuple(str(m.get("label", f"A{i}")) for i, m in enumerate(alice_raw))
    labels_b = tuple(str(m.get("label", f"B{i}")) for i, m in enumerate(bob_raw))
    return Strategy(
        state=state,
        alice=alice,
        bob=bob,
        alice_labels=labels_a,
        bob_labels=labels_b,
        meta=dict(raw.get("meta", {})),
    )


def write_strategy(path: str | Path, s: Strategy) -> None:
    # one line, no indent: json then runs its C encoder
    Path(path).write_text(json.dumps(strategy_to_json_dict(s)) + "\n")


def read_strategy(path: str | Path, *, settings: Settings | None = None) -> Strategy:
    return strategy_from_json_dict(json.loads(Path(path).read_text()), settings=settings)


# --------------------------------------------------------------------------
# tolerant readers for command-line inputs


def state_from_json(raw: dict) -> SchmidtState:
    """Accept {"schmidt_coeffs": [...]} or a full strategy dictionary."""
    if "schmidt_coeffs" in raw:
        return SchmidtState(np.array([float(c) for c in raw["schmidt_coeffs"]]))
    raise BadParams("state file needs a 'schmidt_coeffs' list")


def measurements_from_json(
    raw: dict | list, *, settings: Settings | None = None
) -> list[ProjectiveMeasurement]:
    """Accept a list of measurement dicts, or {"measurements": [...]}.

    A strategy dictionary's {"alice": [...]} is accepted too.
    """
    if isinstance(raw, dict):
        if "measurements" in raw:
            raw = raw["measurements"]
        elif "alice" in raw:
            raw = raw["alice"]
        else:
            raise BadParams("expected a 'measurements' (or 'alice') list")
    return [measurement_from_json_dict(m, settings=settings) for m in raw]


def target_from_json(
    raw: dict, *, settings: Settings | None = None
) -> np.ndarray | ProjectiveMeasurement:
    """Accept {"matrix": [...]} for an observable or {"projections": [...]}."""
    if "matrix" in raw:
        return decode_matrix(raw["matrix"])
    if "projections" in raw:
        return measurement_from_json_dict(raw, settings=settings)
    raise BadParams("target file needs 'matrix' or 'projections'")


# --------------------------------------------------------------------------
# correlation tables as CSV

_CSV_HEADER = ["x", "j", "y", "k", "re", "im"]


def table_to_csv(path: str | Path, table: CorrelationTable) -> None:
    # the text csv.writer writes (no field needs quoting), built in one join
    rows = "".join(
        f"{x},{j},{y},{k},{float(v.real)!r},{float(v.imag)!r}\r\n"
        for (x, j, y, k), v in sorted(table.items())
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n" + rows)


def table_from_csv(path: str | Path) -> CorrelationTable:
    entries: dict[tuple[int, int, int, int], complex] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise BadParams(f"unexpected CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 6:
                raise BadParams(f"malformed CSV row {row!r}")
            x, j, y, k = (int(v) for v in row[:4])
            entries[(x, j, y, k)] = complex(float(row[4]), float(row[5]))
    return CorrelationTable(entries=entries)
