"""JSON/CSV round-trips for matrices, strategies, and correlation tables."""

import json

import numpy as np
import pytest

from bellcert.errors import BadParams
from bellcert.serialize import (
    decode_matrix,
    encode_matrix,
    measurement_from_json_dict,
    measurement_to_json_dict,
    measurements_from_json,
    read_strategy,
    state_from_json,
    strategy_from_json_dict,
    strategy_to_json_dict,
    table_from_csv,
    table_to_csv,
    target_from_json,
    write_strategy,
)
from bellcert.simplex import initial_strategy
from bellcert.strategies import (
    CorrelationTable,
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    correlation_table,
)

from helpers import X, random_projective_measurement, random_symmetric


def _exact(a, b) -> bool:
    """Equal JSON values, floats compared by repr so that -0.0 != 0.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_exact(u, v) for u, v in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_exact(a[k], b[k]) for k in a)
    return type(a) is type(b) and repr(a) == repr(b)


class TestMatrixCodec:
    def test_real_round_trip_is_exact(self, rng):
        m = random_symmetric(rng, 5) * 1e3
        again = decode_matrix(encode_matrix(m))
        assert not np.iscomplexobj(again)
        assert np.array_equal(m, again)

    def test_complex_round_trip_is_exact(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        again = decode_matrix(encode_matrix(m))
        assert np.iscomplexobj(again)
        assert np.array_equal(m, again)

    def test_json_compatible(self, rng):
        m = rng.standard_normal((2, 4)) * 1e-17
        text = json.dumps(encode_matrix(m))
        again = decode_matrix(json.loads(text))
        assert np.array_equal(m, again)

    def test_malformed_complex_entry(self):
        with pytest.raises(BadParams):
            decode_matrix([[[1.0, 2.0, 3.0]]])


class TestStrategyCodec:
    def test_round_trip_preserves_everything(self):
        strat = initial_strategy(3)
        again = strategy_from_json_dict(strategy_to_json_dict(strat))
        assert again.dim == strat.dim
        assert np.array_equal(again.state.coeffs, strat.state.coeffs)
        assert again.alice_labels == strat.alice_labels
        assert again.bob_labels == strat.bob_labels
        assert again.meta == strat.meta
        for m1, m2 in zip(strat.alice, again.alice):
            for p1, p2 in zip(m1.projections, m2.projections):
                assert np.max(np.abs(p1 - p2)) < 1e-15

    def test_file_round_trip(self, tmp_path):
        strat = initial_strategy(4)
        path = tmp_path / "strategy.json"
        write_strategy(path, strat)
        again = read_strategy(path)
        table_gap = correlation_table(strat).max_difference(correlation_table(again))
        assert table_gap < 1e-15

    def test_file_is_one_line_of_the_exact_dict(self, tmp_path):
        # a complex measurement, and -0.0 in a matrix entry and in meta
        half = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        neg = np.array([[1.0, -0.0], [-0.0, 0.0]])
        strat = Strategy(
            state=SchmidtState(np.array([0.8, 0.6])),
            alice=(ProjectiveMeasurement((half, np.eye(2) - half)),),
            bob=(ProjectiveMeasurement((neg, np.eye(2) - neg)),),
            meta={"kind": "test", "offset": -0.0},
        )
        path = tmp_path / "strategy.json"
        write_strategy(path, strat)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        expected = strategy_to_json_dict(strat)
        assert _exact(json.loads(text), expected)
        assert _exact(expected["bob"][0]["projections"][0][0][1], -0.0)
        assert _exact(expected["alice"][0]["projections"][0][0][1], [0.0, -0.5])

    def test_missing_fields_raise(self):
        with pytest.raises(BadParams):
            strategy_from_json_dict({"schmidt_coeffs": [1.0]})

    def test_default_labels_fill_in(self):
        strat = initial_strategy(3)
        raw = strategy_to_json_dict(strat)
        for entry in raw["alice"]:
            del entry["label"]
        again = strategy_from_json_dict(raw)
        assert again.alice_labels == ("A0", "A1", "A2", "A3")


class TestTolerantReaders:
    def test_state_reader(self):
        st = state_from_json({"schmidt_coeffs": [0.8, 0.6]})
        assert np.allclose(st.coeffs, [0.8, 0.6])
        with pytest.raises(BadParams):
            state_from_json({"coeffs": [1.0]})

    def test_measurements_reader_accepts_plain_list(self, rng):
        projs = random_projective_measurement(rng, 3, 3)
        entry = measurement_to_json_dict(ProjectiveMeasurement(tuple(projs)))
        for raw in ([entry], {"measurements": [entry]}):
            out = measurements_from_json(raw)
            assert len(out) == 1 and out[0].outputs == 3
        with pytest.raises(BadParams):
            measurements_from_json({"bob": [entry]})

    def test_target_reader_dispatches_on_shape(self):
        obs = target_from_json({"matrix": encode_matrix(X)})
        assert isinstance(obs, np.ndarray)
        meas = target_from_json(
            measurement_to_json_dict(ProjectiveMeasurement.from_observable(X))
        )
        assert isinstance(meas, ProjectiveMeasurement)
        with pytest.raises(BadParams):
            target_from_json({"observable": []})

    def test_measurement_reader_requires_projections(self):
        with pytest.raises(BadParams):
            measurement_from_json_dict({"matrix": encode_matrix(X)})


class TestTableCsv:
    def test_round_trip_is_exact(self, tmp_path):
        table = correlation_table(initial_strategy(3))
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        again = table_from_csv(path)
        assert table.max_difference(again) == 0.0

    def test_three_outcome_table_round_trips_in_key_order(self, rng, tmp_path):
        projs = random_projective_measurement(rng, 3, 3)
        strat = Strategy(
            state=SchmidtState(np.array([0.8, 0.48, 0.36])),
            alice=(ProjectiveMeasurement(tuple(projs)),),
            bob=(ProjectiveMeasurement(tuple(projs[::-1])),),
        )
        table = correlation_table(strat)
        assert not table.is_real()
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        assert table_from_csv(path).entries == table.entries
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(["x", "j", "y", "k", "re", "im"])
        assert lines[1:] == [
            f"{x},{j},{y},{k},{float(v.real)!r},{float(v.imag)!r}"
            for (x, j, y, k), v in sorted(table.items())
        ]

    def test_complex_entries_survive(self, tmp_path):
        entries = {
            (0, 1, 0, 1): complex(0.25, -1.0 / 3.0),
            (0, 0, 0, 0): complex(1.0, 0.0),
        }
        table = CorrelationTable(entries=entries)
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        again = table_from_csv(path)
        assert again[(0, 1, 0, 1)] == entries[(0, 1, 0, 1)]

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(BadParams):
            table_from_csv(path)

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,j,y,k,re,im\n0,0,0\n")
        with pytest.raises(BadParams):
            table_from_csv(path)
