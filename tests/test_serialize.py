"""JSON/CSV round-trips for matrices, strategies, and correlation tables."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from bellcert.certify import certification_strategy
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
    table_rows,
    table_to_csv,
    target_from_json,
    write_strategy,
)
from bellcert.simplex import initial_strategy, pair_observables
from bellcert.strategies import (
    CorrelationTable,
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    correlation_table,
)

from helpers import (
    PIPELINE_TARGETS,
    X,
    assert_same_strategy,
    pipeline_target_json,
    random_projective_measurement,
    random_symmetric,
    read_table_csv,
    table_items,
)


def _exact(a, b) -> bool:
    """Equal JSON values, floats compared by repr so that -0.0 != 0.0."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_exact(u, v) for u, v in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_exact(a[k], b[k]) for k in a)
    return type(a) is type(b) and repr(a) == repr(b)


def _csv_rows(table: CorrelationTable) -> str:
    """The table's lines as csv.writer writes them, floats by repr, in sorted key order."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows(
        (*key, repr(float(v.real)), repr(float(v.imag)))
        for key, v in sorted(table_items(table))
    )
    return out.getvalue()


def _table(values: np.ndarray) -> CorrelationTable:
    n, m = values.shape
    return CorrelationTable(
        tuple((x // 3, x % 3) for x in range(n)), tuple((y // 2, y % 2) for y in range(m)), values
    )


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

    def test_mixed_entries_decode_complex(self):
        got = decode_matrix([[1, [0.0, 2.0]], [[0.0, -2.0], 3]])
        assert np.array_equal(got, np.array([[1, 2j], [-2j, 3]]))
        # a pair with a zero imaginary part still makes the matrix complex
        assert np.iscomplexobj(decode_matrix([[1, [0.0, 0.0]]]))
        assert decode_matrix([[1, 0], [0, 1]]).dtype == np.float64

    @pytest.mark.parametrize(
        "raw",
        [5, None, "ab", {"rows": []}, [], [1, 2], [[1, 2], 3], [[1, 0], [0]], [[None]], [[[1, None]]],
         # float() would read "0.5" as 0.5 and true as 1.0
         [["0.5", 1.0]], [[True, 0], [0, 1]], [[1, [0.0, "2"]]], [[[False, 1.0]]]],
    )
    def test_non_matrices_are_rejected(self, raw):
        with pytest.raises(BadParams):
            decode_matrix(raw)


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

    def test_non_finite_values_are_not_written(self, tmp_path):
        strat = Strategy(
            state=SchmidtState(np.array([0.8, 0.6])),
            alice=(ProjectiveMeasurement.from_observable(X),),
            bob=(ProjectiveMeasurement.from_observable(X),),
            meta={"offset": float("nan")},
        )
        path = tmp_path / "strategy.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_strategy(path, strat)
        assert not path.exists()

    def test_default_labels_fill_in(self):
        strat = initial_strategy(3)
        raw = strategy_to_json_dict(strat)
        for entry in raw["alice"]:
            del entry["label"]
        again = strategy_from_json_dict(raw)
        assert again.alice_labels == ("A0", "A1", "A2", "A3")


def _pipeline_strategy(d: int, kind: str) -> Strategy:
    return certification_strategy(target_from_json(pipeline_target_json(d, kind)))


class TestPipelineFormat:
    @pytest.mark.parametrize("d, kind", PIPELINE_TARGETS)
    def test_the_file_holds_the_target_and_reads_back_bit_for_bit(self, d, kind, tmp_path):
        strat = _pipeline_strategy(d, kind)
        path = tmp_path / "strategy.json"
        write_strategy(path, strat)
        raw = json.loads(path.read_text())
        assert raw.keys() == {"format", "target"} and raw["format"] == 2
        again = read_strategy(path)
        assert_same_strategy(again, strat)
        write_strategy(tmp_path / "again.json", again)
        assert (tmp_path / "again.json").read_text() == path.read_text()

    @pytest.mark.parametrize("d, kind", PIPELINE_TARGETS)
    def test_a_replaced_strategy_is_written_in_format_1(self, d, kind, tmp_path):
        strat = _pipeline_strategy(d, kind)
        replaced = dataclasses.replace(strat, bob=strat.bob[:-1], bob_labels=strat.bob_labels[:-1])
        assert replaced.target is None
        path = tmp_path / "strategy.json"
        write_strategy(path, replaced)
        raw = json.loads(path.read_text())
        assert "format" not in raw and len(raw["bob"]) == len(strat.bob) - 1
        assert _exact(raw, strategy_to_json_dict(replaced))
        assert_same_strategy(read_strategy(path), replaced)

    def test_the_reference_list_of_a_format_2_file_is_alices_whole_family(self):
        strat = _pipeline_strategy(5, "measurement")
        refs = measurements_from_json(strategy_to_json_dict(strat))
        assert len(refs) == strat.alice_questions == 5 + 1 + 3
        for m, n in zip(refs, strat.alice, strict=True):
            assert all(map(np.array_equal, m.projections, n.projections))


class TestTolerantReaders:
    def test_state_reader(self):
        st = state_from_json({"schmidt_coeffs": [0.8, 0.6]})
        assert np.allclose(st.coeffs, [0.8, 0.6])
        with pytest.raises(BadParams):
            state_from_json({"coeffs": [1.0]})
        for coeffs in (["0.8", "0.6"], [True]):
            with pytest.raises(BadParams, match="JSON numbers"):
                state_from_json({"schmidt_coeffs": coeffs})

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
        again = read_table_csv(path)
        assert table.max_difference(again) == 0.0

    def test_three_outcome_table_round_trips_in_key_order(self, rng, tmp_path):
        projs = random_projective_measurement(rng, 3, 3)
        strat = Strategy(
            state=SchmidtState(np.array([0.8, 0.48, 0.36])),
            alice=(ProjectiveMeasurement(tuple(projs)),),
            bob=(ProjectiveMeasurement(tuple(projs[::-1])),),
        )
        table = correlation_table(strat)
        assert np.max(np.abs(table.values.imag)) > 1e-12
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        again = read_table_csv(path)
        assert (again.rows, again.cols) == (table.rows, table.cols)
        assert np.array_equal(again.values, table.values)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(["x", "j", "y", "k", "re", "im"])
        assert lines[1:] == [
            f"{x},{j},{y},{k},{float(v.real)!r},{float(v.imag)!r}"
            for (x, j, y, k), v in sorted(table_items(table))
        ]

    def test_bytes_match_the_csv_module(self, tmp_path):
        # splitlines() above cannot see the line terminator; compare raw bytes
        table = correlation_table(initial_strategy(4))
        table.values[-1, -2] = complex(-0.0, 1e-300)
        table.values[-2, -1] = complex(float("inf"), float("nan"))
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        ref = "x,j,y,k,re,im\r\n" + _csv_rows(table)
        assert path.read_bytes() == ref.encode()

    def test_rows_of_a_pipeline_table_match_the_csv_module(self):
        # few distinct floats: the writer formats each once and reuses it
        table = correlation_table(certification_strategy(pair_observables(8)[(0, 1)]))
        assert len(set(table.values.ravel().tolist())) < len(table) / 10
        assert table_rows(table, "\r\n") == _csv_rows(table)
        assert table_rows(table) == _csv_rows(table).replace("\r\n", "\n")

    def test_rows_of_a_distinct_table_with_signed_zeros_nans_and_infs(self):
        values = np.random.default_rng(23).standard_normal((6, 7, 2)) @ [1.0, 1j]
        special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, 1e-300]
        values.real.flat[:8] = special
        values.imag.flat[8:16] = special
        values[-1, -1] = complex(-0.0, 0.0)
        bits = values.view(np.int64).reshape(-1, 2)
        assert len(np.unique(bits, axis=0)) == values.size
        table = _table(values)
        assert table_rows(table, "\r\n") == _csv_rows(table)
        assert table_rows(table) == _csv_rows(table).replace("\r\n", "\n")

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_rows_of_an_empty_table_are_empty(self, shape):
        assert table_rows(_table(np.zeros(shape, dtype=complex))) == ""

    def test_complex_entries_survive(self, tmp_path):
        values = np.array([[1.0, 0.5j], [-0.0, complex(0.25, -1.0 / 3.0)]])
        table = CorrelationTable(((0, 0), (0, 1)), ((0, 0), (0, 1)), values)
        path = tmp_path / "table.csv"
        table_to_csv(path, table)
        again = read_table_csv(path)
        assert again.values[1, 1] == complex(0.25, -1.0 / 3.0)
        assert table.max_difference(again) == 0.0
