"""Exercises the command-line entry point through main(argv)."""

import dataclasses
import json

import numpy as np
import pytest

from bellcert import cli, posthoc, serialize
from bellcert.cli import main
from bellcert.certify import certification_strategy
from bellcert.config import Settings
from bellcert.jordan import has_trivial_centralizer
from bellcert.posthoc import posthoc_feasible_binary
from bellcert.serialize import (
    decode_matrix,
    encode_matrix,
    measurement_to_json_dict,
    read_strategy,
    write_strategy,
)
from bellcert.simplex import initial_strategy, pair_observables, simplex_observables
from bellcert.strategies import ProjectiveMeasurement, SchmidtState, correlation_table

from helpers import (
    HADAMARD_DIR,
    PIPELINE_TARGETS,
    X,
    Z,
    assert_same_strategy,
    near_reducible_family,
    pipeline_target_json,
    random_projective_measurement,
    random_reflection,
    read_table_csv,
    table_items,
)


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def posthoc_files(tmp_path):
    """State/reference/target files for a feasible single-reference check."""
    gamma = np.pi / 6
    state = _write_json(
        tmp_path / "state.json",
        {"schmidt_coeffs": [np.cos(gamma), np.sin(gamma)]},
    )
    meas = ProjectiveMeasurement.from_observable(X)
    alice = _write_json(tmp_path / "alice.json", [measurement_to_json_dict(meas)])
    target = _write_json(tmp_path / "target.json", {"matrix": encode_matrix(X)})
    return state, alice, target


class TestSimplexCommand:
    def test_writes_json_file(self, tmp_path):
        out = tmp_path / "simplex.json"
        assert main(["simplex", "--dim", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 3
        assert len(payload["vectors"]) == 4
        assert all(len(v) == 3 for v in payload["vectors"])
        obs = [decode_matrix(o) for o in payload["observables"]]
        assert len(obs) == 4
        for o in obs:
            assert np.max(np.abs(o @ o - np.eye(3))) < 1e-12

    def test_pairs_flag_adds_pairwise_signs(self, tmp_path):
        out = tmp_path / "simplex.json"
        assert main(["simplex", "--dim", "3", "--pairs", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["pairs"]) == {
            f"{j},{k}" for j in range(4) for k in range(j + 1, 4)
        }

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["simplex", "--dim", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dim"] == 2


class TestCorrelationsCommand:
    def test_brute_force_check_passes(self, tmp_path, capsys):
        path = tmp_path / "strategy.json"
        write_strategy(path, initial_strategy(3))
        code = main(["correlations", "--strategy", str(path), "--check-brute-force"])
        assert code == 0
        assert "brute-force gap:" in capsys.readouterr().out

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_brute_force_check_on_a_side_without_questions(self, tmp_path, capsys, side):
        strat = initial_strategy(3)
        path = tmp_path / "strategy.json"
        write_strategy(path, dataclasses.replace(strat, **{side: (), f"{side}_labels": ()}))
        code = main(["correlations", "--strategy", str(path), "--check-brute-force"])
        assert code == 0
        assert capsys.readouterr().out == "brute-force gap: 0.000e+00\n"

    def test_csv_output_matches_library_table(self, tmp_path):
        strat = initial_strategy(3)
        spath = tmp_path / "strategy.json"
        write_strategy(spath, strat)
        out = tmp_path / "table.csv"
        assert main(["correlations", "--strategy", str(spath), "--out", str(out)]) == 0
        assert correlation_table(strat).max_difference(read_table_csv(out)) == 0.0

    def test_stdout_rows_are_the_csv_rows(self, tmp_path, capsys):
        # one row format: stdout has no header and ends lines with \n
        strat = initial_strategy(3)
        spath = tmp_path / "strategy.json"
        write_strategy(spath, strat)
        out = tmp_path / "table.csv"
        assert main(["correlations", "--strategy", str(spath), "--out", str(out)]) == 0
        assert main(["correlations", "--strategy", str(spath)]) == 0
        printed = capsys.readouterr().out
        assert printed == "".join(
            f"{x},{j},{y},{k},{v.real!r},{v.imag!r}\n"
            for (x, j, y, k), v in sorted(table_items(correlation_table(strat)))
        )
        header, rows = out.read_bytes().decode().split("\r\n", 1)
        assert header == "x,j,y,k,re,im" and rows.replace("\r\n", "\n") == printed


class TestPosthocCheckCommand:
    def test_feasible_instance_exits_zero(self, posthoc_files, capsys):
        state, alice, target = posthoc_files
        code = main(
            ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion: feasible" in out
        # the minimum-trace witness for this partial state is 1/sin^2(pi/6) = 4
        trq = float(out.split("TrQ = ")[1].splitlines()[0])
        assert abs(trq - 4.0) < 1e-6

    def test_json_flag_emits_machine_payload(self, posthoc_files, capsys):
        state, alice, target = posthoc_files
        code = main(
            [
                "posthoc-check",
                "--state",
                state,
                "--alice",
                alice,
                "--target",
                target,
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        entry = payload["results"][0]
        assert entry["power"] == 1
        assert entry["verdict"] == "feasible"
        assert abs(entry["trace_q"] - 4.0) < 1e-6
        assert abs(entry["lambda_min_q"] - 1.0) < 1e-5

    def test_infeasible_instance_exits_one(self, tmp_path, capsys):
        state = _write_json(
            tmp_path / "state.json",
            {"schmidt_coeffs": [np.sqrt(0.5), np.sqrt(0.5)]},
        )
        meas = ProjectiveMeasurement.from_observable(X)
        alice = _write_json(tmp_path / "alice.json", [measurement_to_json_dict(meas)])
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(HADAMARD_DIR)}
        )
        code = main(
            ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "infeasible" in out
        assert "criterion: not feasible" in out

    def test_feasibility_band_follows_tolerance_flag(self, tmp_path, capsys):
        # The same infeasible instance sits at lambda_min = -1/2; widening
        # the verdict band past that turns "infeasible" into "marginal".
        state = _write_json(
            tmp_path / "state.json",
            {"schmidt_coeffs": [np.sqrt(0.5), np.sqrt(0.5)]},
        )
        meas = ProjectiveMeasurement.from_observable(X)
        alice = _write_json(tmp_path / "alice.json", [measurement_to_json_dict(meas)])
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(HADAMARD_DIR)}
        )
        code = main(
            [
                "posthoc-check",
                "--state",
                state,
                "--alice",
                alice,
                "--target",
                target,
                "--tol-feas",
                "0.6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "marginal" in out

    def test_no_hermitian_combination_prints_null(self, tmp_path, capsys):
        # O D^2 and O D X D are not symmetric for the skewed state, nor is any
        # combination of them: lambda_min_achieved is -inf, which JSON spells null
        coeffs = np.array([0.8, 0.5, 0.3]) / np.linalg.norm([0.8, 0.5, 0.3])
        state = _write_json(tmp_path / "state.json", {"schmidt_coeffs": list(coeffs)})
        swap_12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        swap_13 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        meas = ProjectiveMeasurement.from_observable(swap_12)
        alice = _write_json(tmp_path / "alice.json", [measurement_to_json_dict(meas)])
        target = _write_json(tmp_path / "target.json", {"matrix": encode_matrix(swap_13)})
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv + ["--json"]) == 1

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["results"][0]["verdict"] == "infeasible"
        assert payload["results"][0]["lambda_min_achieved"] is None
        assert main(argv) == 1
        assert "(lambda_min -inf)" in capsys.readouterr().out

    def test_a_repeated_reference_keeps_the_verdict(self, tmp_path, capsys):
        # d = 4, kappa = 10: no combination of the generators is symmetric.
        # Listing a reference twice adds the zero combination of the two
        # copies, which must not count as a symmetric direction (it once
        # turned this "infeasible" into "marginal" at lambda_min ~ 1e-17)
        rng = np.random.default_rng(4)
        coeffs = 10.0 ** (-np.arange(4) / 3)
        state = _write_json(
            tmp_path / "state.json", {"schmidt_coeffs": list(coeffs / np.linalg.norm(coeffs))}
        )
        refs = [
            measurement_to_json_dict(ProjectiveMeasurement.from_observable(o))
            for o in (random_reflection(rng, 4, 2) for _ in range(2))
        ]
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(random_reflection(rng, 4, 2))}
        )
        for name, listed in (("alice", refs), ("alice_twice", refs + refs[:1])):
            alice = _write_json(tmp_path / f"{name}.json", listed)
            argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
            assert main(argv + ["--json"]) == 1
            [entry] = json.loads(capsys.readouterr().out)["results"]
            assert entry["verdict"] == "infeasible"
            assert entry["lambda_min_achieved"] is None

    def test_nan_schmidt_coefficient_exits_two(self, posthoc_files, tmp_path, capsys):
        _, alice, target = posthoc_files
        state = tmp_path / "nan_state.json"
        state.write_text('{"schmidt_coeffs": [0.5, NaN, 0.5]}')
        argv = ["posthoc-check", "--state", str(state), "--alice", alice, "--target", target]
        assert main(argv) == 2
        assert "error: Schmidt coefficients must be finite" in capsys.readouterr().err

    def test_complex_binary_references_take_the_order_l_check(self, tmp_path, capsys):
        # a real binary target against complex rank-1 binary references: the
        # order-L check decides it, where the binary check would reject the
        # references as complex
        rng = np.random.default_rng(2)
        refs = []
        for _ in range(2):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            p0 = np.outer(v, v.conj()) / np.vdot(v, v).real
            refs.append(ProjectiveMeasurement((p0, np.eye(3) - p0)))
        state = _write_json(tmp_path / "state.json", {"schmidt_coeffs": [3 ** -0.5] * 3})
        alice = _write_json(tmp_path / "alice.json", [measurement_to_json_dict(m) for m in refs])
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(np.diag([1.0, -1.0, 1.0]))}
        )
        code = main(["posthoc-check", "--state", state, "--alice", alice, "--target", target])
        out = capsys.readouterr().out
        assert code == 1
        assert "power 1: infeasible (lambda_min -3.333e-01)" in out

    def test_real_references_take_the_binary_check(self, posthoc_files, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("real binary question sent to the order-L check")

        monkeypatch.setattr(posthoc, "posthoc_feasible_general", unexpected)
        state, alice, target = posthoc_files
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv + ["--json"]) == 0
        entry = json.loads(capsys.readouterr().out)["results"][0]
        gamma = np.pi / 6
        expected = posthoc_feasible_binary(
            SchmidtState(np.array([np.cos(gamma), np.sin(gamma)])), [X], X
        ).to_json_dict()
        assert {k: entry[k] for k in expected} == expected

    def test_removed_outputs_flag_is_rejected(self, posthoc_files, capsys):
        # a matrix target is binary; --outputs -2 used to print "criterion: feasible"
        state, alice, target = posthoc_files
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv + ["--outputs", "-2"]) == 2
        assert "unrecognized arguments: --outputs -2" in capsys.readouterr().err

    def test_one_outcome_target_exits_two(self, posthoc_files, tmp_path, capsys):
        state, alice, _ = posthoc_files
        target = _write_json(tmp_path / "one.json", {"projections": [encode_matrix(np.eye(2))]})
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv) == 2
        assert "error: a measurement needs at least two outputs, got 1" in capsys.readouterr().err

    def test_order_l_target_of_the_wrong_size_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        ref = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))
        target = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 4, 3)))
        argv = [
            "posthoc-check",
            "--state",
            _write_json(tmp_path / "state.json", {"schmidt_coeffs": [3 ** -0.5] * 3}),
            "--alice",
            _write_json(tmp_path / "alice.json", [measurement_to_json_dict(ref)]),
            "--target",
            _write_json(tmp_path / "target.json", measurement_to_json_dict(target)),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "operator of shape (4, 4) does not match the state's dimension 3" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "state.json"
        bad.write_text("{not json")
        code = main(
            [
                "posthoc-check",
                "--state",
                str(bad),
                "--alice",
                str(bad),
                "--target",
                str(bad),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestJordanClosureCommand:
    def test_pauli_pair_summary(self, tmp_path, capsys):
        path = _write_json(
            tmp_path / "obs.json",
            {"matrices": [encode_matrix(X), encode_matrix(Z)]},
        )
        assert main(["jordan-closure", "--observables", path]) == 0
        out = capsys.readouterr().out
        assert "dimension: 3" in out
        assert "iterations: 0" in out
        assert "full-algebra: True" in out
        assert "trivial-centralizer: True" in out

    def test_extra_generators_merge_before_iterating(self, tmp_path, capsys):
        obs = _write_json(tmp_path / "obs.json", {"matrices": [encode_matrix(Z)]})
        extra = _write_json(tmp_path / "extra.json", {"matrices": [encode_matrix(X)]})
        assert main(["jordan-closure", "--observables", obs]) == 0
        assert "dimension: 2" in capsys.readouterr().out
        assert main(["jordan-closure", "--observables", obs, "--extra", extra]) == 0
        assert "dimension: 3" in capsys.readouterr().out

    def test_extras_alone_are_closed(self, tmp_path, capsys):
        obs = _write_json(tmp_path / "obs.json", {"matrices": []})
        extra = _write_json(tmp_path / "extra.json", {"matrices": [encode_matrix(X)]})
        assert main(["jordan-closure", "--observables", obs, "--extra", extra]) == 0
        assert "dimension: 2" in capsys.readouterr().out

    def test_closes_a_d9_family_within_the_symmetric_matrices(self, tmp_path, capsys):
        # the closure has dimension 37; rounding noise accepted as
        # directions would outgrow dim Sym(9) = 45 and exit 2
        rng = np.random.default_rng(102)
        refs = [random_reflection(rng, 9, r) for r in (6, 5, 8)]
        path = _write_json(tmp_path / "obs.json", {"matrices": [encode_matrix(m) for m in refs]})
        assert main(["jordan-closure", "--observables", path]) == 0
        out = capsys.readouterr().out
        assert "dimension: 37" in out
        assert "full-algebra: False" in out

    @staticmethod
    def _count_centralizer_tests(monkeypatch, tmp_path, capsys) -> list:
        calls = []

        def counted(generators, *, settings=None):
            calls.append(len(generators))
            return has_trivial_centralizer(generators, settings=settings)

        monkeypatch.setattr(cli, "has_trivial_centralizer", counted)
        # positive control: [Z] at d = 2 closes to the diagonal matrices,
        # not Sym(2), so its commutant is tested
        path = _write_json(tmp_path / "control.json", {"matrices": [encode_matrix(Z)]})
        assert main(["jordan-closure", "--observables", path]) == 0
        assert "trivial-centralizer: False" in capsys.readouterr().out
        assert calls == [1]
        calls.clear()
        return calls

    def test_a_full_closure_runs_no_commutant_test(self, tmp_path, monkeypatch, capsys):
        calls = self._count_centralizer_tests(monkeypatch, tmp_path, capsys)
        path = _write_json(
            tmp_path / "obs.json",
            {"matrices": [encode_matrix(m) for m in simplex_observables(4)]},
        )
        assert main(["jordan-closure", "--observables", path]) == 0
        out = capsys.readouterr().out
        assert "dimension: 10" in out
        assert "full-algebra: True" in out
        assert "trivial-centralizer: True" in out
        assert calls == []

    def test_a_closure_short_of_sym_d_tests_the_family(self, tmp_path, monkeypatch, capsys):
        # two block-diagonal reflections at d = 4: the closure stays inside
        # Sym(2) + Sym(2), and the commutant test runs once, on the family
        calls = self._count_centralizer_tests(monkeypatch, tmp_path, capsys)
        zero = np.zeros((2, 2))
        family = [np.block([[X, zero], [zero, Z]]), np.block([[Z, zero], [zero, X]])]
        path = _write_json(tmp_path / "obs.json", {"matrices": [encode_matrix(m) for m in family]})
        assert main(["jordan-closure", "--observables", path]) == 0
        out = capsys.readouterr().out
        assert "full-algebra: False" in out
        assert "trivial-centralizer: False" in out
        assert calls == [2]

    def test_a_near_reducible_full_closure_reads_trivial(self, tmp_path, capsys):
        # blocks 2 + 6 coupled at 2e-9, scale 0.01: the closure reaches all
        # 36 dimensions of Sym(8), and the commutator's singular values at
        # the coupling fall under the commutant test's own 1e-9 cutoff
        family = near_reducible_family(np.random.default_rng(0), 8, 2, 2e-9, 0.01)
        assert not has_trivial_centralizer(family)
        path = _write_json(tmp_path / "obs.json", {"matrices": [encode_matrix(m) for m in family]})
        assert main(["jordan-closure", "--observables", path]) == 0
        out = capsys.readouterr().out
        assert "dimension: 36" in out
        assert "full-algebra: True" in out
        assert "trivial-centralizer: True" in out

    def test_no_full_closure_reads_a_nontrivial_commutant(self, tmp_path, capsys):
        # 200 families of that shape at d = 3..6, the blocks coupled at
        # 1e-13 .. 1e-3; the commutant test alone disagrees with the
        # closure on some of the full ones
        rng = np.random.default_rng(57)
        path = tmp_path / "obs.json"
        full = disagree = 0
        for _ in range(200):
            d = int(rng.integers(3, 7))
            cut = int(rng.integers(1, d))
            eps, scale = 10 ** rng.uniform(-13, -3), 10 ** rng.uniform(-3, 3)
            family = near_reducible_family(rng, d, cut, eps, scale)
            _write_json(path, {"matrices": [encode_matrix(m) for m in family]})
            assert main(["jordan-closure", "--observables", str(path)]) == 0
            out = capsys.readouterr().out
            if "full-algebra: True" in out:
                full += 1
                disagree += not has_trivial_centralizer(family)
                assert "trivial-centralizer: True" in out
        assert full >= 50 and disagree >= 5


class TestMatrixInputsAreChecked:
    @pytest.mark.parametrize(
        "matrix", [5, [1, 2], [], [[1.0, 0.0], [0.0]], [[1.0, 0.0, 0.0], "abc", [0, 0, 1]]]
    )
    def test_certify_target(self, tmp_path, capsys, matrix):
        target = _write_json(tmp_path / "target.json", {"matrix": matrix})
        assert main(["certify", "--target", target, "--out", str(tmp_path / "out")]) == 2
        assert "error: a matrix must be a non-empty list of equal-length rows" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("where", ["observables", "extra"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"matrices": 3}, "needs a 'matrices' list"),
            ({"matrices": {"a": [[1.0]]}}, "needs a 'matrices' list"),
            ({"observables": []}, "needs a 'matrices' list"),
            ([[[1.0, 0.0], [0.0, 1.0]]], "needs a 'matrices' list"),
            ({"matrices": [[1, 2]]}, "a matrix must be a non-empty list of equal-length rows"),
            ({"matrices": [[[1, 0], [0]]]}, "a matrix must be a non-empty list of equal-length rows"),
        ],
    )
    def test_jordan_closure(self, tmp_path, capsys, where, payload, message):
        good = _write_json(tmp_path / "good.json", {"matrices": [encode_matrix(X)]})
        bad = _write_json(tmp_path / "bad.json", payload)
        argv = ["jordan-closure", "--observables", bad if where == "observables" else good]
        if where == "extra":
            argv += ["--extra", bad]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestCertifyCommand:
    def test_writes_bundle_and_reports_feasible(self, tmp_path, capsys):
        target = _write_json(
            tmp_path / "target.json",
            {"matrix": encode_matrix(simplex_observables(3)[0])},
        )
        out_dir = tmp_path / "bundle"
        code = main(["certify", "--target", target, "--out", str(out_dir)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "all-feasible: True" in stdout
        assert "O: feasible" in stdout

        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_feasible"] is True
        assert report["extensions"][0]["verdict"] == "feasible"

        strat = read_strategy(out_dir / "strategy.json")
        table = read_table_csv(out_dir / "table.csv")
        assert correlation_table(strat).max_difference(table) < 1e-15

    def test_no_table_flag_skips_csv(self, tmp_path):
        target = _write_json(
            tmp_path / "target.json",
            {"matrix": encode_matrix(simplex_observables(3)[1])},
        )
        out_dir = tmp_path / "bundle"
        code = main(
            ["certify", "--target", target, "--out", str(out_dir), "--no-table"]
        )
        assert code == 0
        assert (out_dir / "strategy.json").exists()
        assert (out_dir / "report.json").exists()
        assert not (out_dir / "table.csv").exists()

    def test_measurement_target(self, tmp_path, capsys):
        projs = random_projective_measurement(np.random.default_rng(0), 4, 3)
        target = _write_json(
            tmp_path / "target.json", {"projections": [encode_matrix(p) for p in projs]}
        )
        out_dir = tmp_path / "bundle"
        assert main(["certify", "--target", target, "--out", str(out_dir)]) == 0
        assert "all-feasible: True" in capsys.readouterr().out

        report = json.loads((out_dir / "report.json").read_text())
        assert [(e["label"], e["verdict"]) for e in report["extensions"]] == [
            (f"O{k}", "feasible") for k in range(3)
        ]
        strat = read_strategy(out_dir / "strategy.json")
        write_strategy(tmp_path / "again.json", strat)
        assert (tmp_path / "again.json").read_text() == (out_dir / "strategy.json").read_text()
        table = read_table_csv(out_dir / "table.csv")
        assert correlation_table(strat).max_difference(table) == 0.0


def _certify_bundle(tmp_path, target_json, monkeypatch):
    """Run certify on a target; return the bundle directory and the strategy it held."""
    held = []

    def write(path, strategy):
        held.append(strategy)
        write_strategy(path, strategy)

    monkeypatch.setattr(cli, "write_strategy", write)
    target = _write_json(tmp_path / "target.json", target_json)
    out_dir = tmp_path / "bundle"
    assert main(["certify", "--target", target, "--out", str(out_dir)]) == 0
    [strategy] = held
    return out_dir, strategy


class TestCertifiedStrategyFile:
    """certify writes its strategy as the target (format 2); readers rebuild it exactly."""

    @pytest.mark.parametrize("d, kind", PIPELINE_TARGETS)
    def test_the_bundle_reads_back_as_certifys_strategy(self, d, kind, tmp_path, monkeypatch):
        out_dir, held = _certify_bundle(tmp_path, pipeline_target_json(d, kind), monkeypatch)
        assert json.loads((out_dir / "strategy.json").read_text())["format"] == 2
        assert_same_strategy(read_strategy(out_dir / "strategy.json"), held)
        table = tmp_path / "t.csv"
        argv = ["correlations", "--strategy", str(out_dir / "strategy.json"), "--out", str(table)]
        assert main(argv) == 0
        assert table.read_bytes() == (out_dir / "table.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["pair", "measurement"])
    def test_posthoc_check_reads_both_formats_alike(self, kind, tmp_path, monkeypatch, capsys):
        out_dir, held = _certify_bundle(tmp_path, pipeline_target_json(4, kind), monkeypatch)
        old = tmp_path / "format1.json"
        write_strategy(old, dataclasses.replace(held))
        assert "format" not in json.loads(old.read_text())
        other_pair = {"matrix": encode_matrix(pair_observables(4)[(1, 2)])}
        target = _write_json(tmp_path / "t.json", other_pair)
        capsys.readouterr()
        printed = []
        for strategy in (out_dir / "strategy.json", old):
            argv = ["posthoc-check", "--state", str(strategy), "--alice", str(strategy),
                    "--target", target, "--json"]
            printed.append((main(argv), capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][0] == 0 and printed[0][1].err == ""

    def test_posthoc_check_rebuilds_the_state_at_the_given_tolerances(self, tmp_path, capsys):
        # O^2 = I only within 2.37e-9: certify accepts the target at
        # --tol-eig 1e-7, and so must the --state file that names it
        o = pair_observables(4)[(0, 1)].copy()
        o[0, 1] += 3e-9
        o[1, 0] += 3e-9
        assert 2e-9 < np.max(np.abs(o @ o - np.eye(4))) < 1e-7
        target = _write_json(tmp_path / "t.json", {"matrix": encode_matrix(o)})
        out_dir = tmp_path / "out"
        tol = ["--tol-eig", "1e-7"]
        assert main(["certify", "--target", target, "--out", str(out_dir), *tol]) == 0
        strategy = str(out_dir / "strategy.json")
        capsys.readouterr()
        argv = ["posthoc-check", "--state", strategy, "--alice", strategy, "--target", target]
        assert main([*argv, *tol]) == 0
        assert capsys.readouterr().err == ""
        assert main(argv) == 2
        assert "squares to I within 2.37e-09" in capsys.readouterr().err

    def test_posthoc_check_rebuilds_one_strategy_file_once(self, tmp_path, monkeypatch, capsys):
        out_dir, _ = _certify_bundle(tmp_path, pipeline_target_json(4, "pair"), monkeypatch)
        strategy = str(out_dir / "strategy.json")
        calls = []

        def counted(target, *, settings=None):
            calls.append(target)
            return certification_strategy(target, settings=settings)

        monkeypatch.setattr(serialize, "certification_strategy", counted)
        # positive control: reading the file rebuilds its pipeline through the patch
        read_strategy(strategy)
        assert len(calls) == 1
        calls.clear()
        other_pair = {"matrix": encode_matrix(pair_observables(4)[(1, 2)])}
        target = _write_json(tmp_path / "t.json", other_pair)
        capsys.readouterr()
        argv = ["posthoc-check", "--state", strategy, "--alice", strategy, "--target", target]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(calls) == 1

    def test_the_file_at_d16_is_under_16_kb(self, tmp_path):
        # the measurement list this file used to hold took 1.46 MB
        pair = {"matrix": encode_matrix(pair_observables(16)[(0, 1)])}
        target = _write_json(tmp_path / "target.json", pair)
        out_dir = tmp_path / "bundle"
        assert main(["certify", "--target", target, "--out", str(out_dir), "--no-table"]) == 0
        assert (out_dir / "strategy.json").stat().st_size < 16 * 1024


class TestRobustnessCommand:
    FROZEN = {
        "n": 4,
        "lambda_min_gram": 1.0,
        "trace_q": 3.0,
        "lambda_min_q": 1.0,
        "lambda_max_schmidt": 1.0 / np.sqrt(3.0),
        "kappa_schmidt": 1.0,
        "epsilon": 0.0,
        "delta": 1e-4,
    }

    def test_frozen_value_printed_exactly(self, tmp_path, capsys):
        path = _write_json(tmp_path / "params.json", self.FROZEN)
        assert main(["robustness", "--params", path]) == 0
        assert capsys.readouterr().out.strip() == "0.034641016151377546"

    def test_epsilon_override_with_config(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        config = _write_json(tmp_path / "config.json", {"robustness_constant": 1.0})
        code = main(
            [
                "robustness",
                "--params",
                params,
                "--epsilon",
                "0.01",
                "--config",
                config,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.6109991680526687"

    def test_flag_beats_config(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        config = _write_json(tmp_path / "config.json", {"robustness_constant": 1.0})
        base_args = ["robustness", "--params", params, "--epsilon", "0.01"]

        assert main(base_args) == 0
        default_out = capsys.readouterr().out.strip()
        assert main(base_args + ["--config", config]) == 0
        config_out = capsys.readouterr().out.strip()
        assert (
            main(base_args + ["--config", config, "--robustness-constant", "2.0"]) == 0
        )
        flag_out = capsys.readouterr().out.strip()

        assert config_out != default_out
        assert flag_out == default_out

    @pytest.mark.parametrize("flag", ["--epsilon", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_error_flags_exit_two(self, tmp_path, capsys, flag, value):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        assert main(["robustness", "--params", params, flag, value]) == 2
        assert f"error: {flag[2:]} must be finite, got {value}" in capsys.readouterr().err

    def test_nan_in_params_file_exits_two(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**self.FROZEN, "trace_q": float("nan")}))
        assert "NaN" in params.read_text()
        assert main(["robustness", "--params", str(params)]) == 2
        assert "error: trace_q must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--epsilon", "0.1", "--delta", "0.1"]])
    def test_params_file_must_hold_an_object(self, tmp_path, capsys, extra):
        params = _write_json(tmp_path / "params.json", list(self.FROZEN.values()))
        assert main(["robustness", "--params", params, *extra]) == 2
        assert "error: robustness parameters must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["4", True, None])
    def test_params_values_must_be_json_numbers(self, tmp_path, capsys, value):
        params = _write_json(tmp_path / "params.json", {**self.FROZEN, "n": value})
        assert main(["robustness", "--params", params]) == 2
        err = capsys.readouterr().err
        assert "error: robustness parameters value(s) must be JSON numbers: n" in err

    def test_missing_params_field_is_named(self, tmp_path, capsys):
        raw = {k: v for k, v in self.FROZEN.items() if k not in ("trace_q", "delta")}
        params = _write_json(tmp_path / "params.json", raw)
        assert main(["robustness", "--params", params]) == 2
        err = capsys.readouterr().err
        assert "error: robustness parameters lack field(s): trace_q, delta" in err
        # the error flags supply what the file leaves out
        raw = {k: v for k, v in self.FROZEN.items() if k not in ("epsilon", "delta")}
        params = _write_json(tmp_path / "params.json", raw)
        argv = ["robustness", "--params", params, "--epsilon", "0", "--delta", "1e-4"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "0.034641016151377546"

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        config = _write_json(tmp_path / "config.json", {"frobnicate": 1.0})
        code = main(["robustness", "--params", params, "--config", config])
        assert code == 2
        assert "unknown settings key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["jacobi_tol", "mgs_tol", "sdp_tol"])
    def test_removed_solver_knobs_are_unknown_keys(self, tmp_path, capsys, key):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        config = _write_json(tmp_path / "config.json", {key: 1e-12})
        code = main(["robustness", "--params", params, "--config", config])
        assert code == 2
        assert f"unknown settings key(s): {key}" in capsys.readouterr().err

    def test_removed_seed_flag_is_rejected(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        assert main(["robustness", "--params", params, "--seed", "3"]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_every_settings_field_has_its_flag(self, tmp_path):
        flags = {
            "--tol-sym": "sym_tol",
            "--tol-eig": "eig_tol",
            "--tol-singular": "singular_tol",
            "--tol-feas": "feas_tol",
            "--tol-membership": "membership_tol",
            "--robustness-constant": "robustness_constant",
        }
        assert sorted(flags.values()) == sorted(f.name for f in dataclasses.fields(Settings))
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        argv = ["robustness", "--params", params]
        for k, flag in enumerate(flags):
            argv += [flag, f"{k + 1}.5e-3"]
        settings = cli._build_settings(cli.build_parser().parse_args(argv))
        for k, field in enumerate(flags.values()):
            assert getattr(settings, field) == float(f"{k + 1}.5e-3")
        assert cli.build_parser() is cli.build_parser()

    def test_removed_tol_sdp_flag_is_rejected(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", self.FROZEN)
        assert main(["robustness", "--params", params, "--tol-sdp", "1e-6"]) == 2
        assert "unrecognized arguments: --tol-sdp 1e-6" in capsys.readouterr().err


# 1e-8 of antisymmetry: rejected at the default sym_tol (1e-10), accepted at 1e-6
_SKEW = 1e-8 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_LOOSE = {"sym_tol": 1e-6, "eig_tol": 1e-6}


def _loose_flags(tmp_path, via_config: bool, keys=("sym_tol", "eig_tol")) -> list[str]:
    """The loose tolerances as command-line flags or as a --config file."""
    if via_config:
        return ["--config", _write_json(tmp_path / "loose.json", {k: _LOOSE[k] for k in keys})]
    flags = {"sym_tol": "--tol-sym", "eig_tol": "--tol-eig"}
    return [arg for k in keys for arg in (flags[k], str(_LOOSE[k]))]


def _off_idempotent(o: np.ndarray, eps: float = 4e-9) -> dict:
    """{(1+eps) P0, I - (1+eps) P0} for P0 = (I+O)/2: complete, but each
    projection is eps * max|P0| from idempotent."""
    p0 = (1.0 + eps) * 0.5 * (np.eye(len(o)) + o)
    return {"projections": [encode_matrix(p0), encode_matrix(np.eye(len(o)) - p0)]}


class TestSettingsReachInputValidation:
    """The tolerance flags and --config reach the file readers and validators."""

    def test_certify_target_off_symmetric(self, tmp_path, capsys):
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(pair_observables(3)[(0, 1)] + _SKEW)}
        )
        argv = ["certify", "--target", target, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "not Hermitian" in capsys.readouterr().err
        for via_config in (False, True):
            assert main(argv + _loose_flags(tmp_path, via_config)) == 0
            assert "all-feasible: True" in capsys.readouterr().out

    def test_posthoc_reference_off_idempotent(self, posthoc_files, tmp_path, capsys):
        state, _, target = posthoc_files
        alice = _write_json(tmp_path / "loose_alice.json", [_off_idempotent(X)])
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv) == 2
        assert "projection 0 is not idempotent (2.00e-09)" in capsys.readouterr().err
        for via_config in (False, True):
            assert main(argv + _loose_flags(tmp_path, via_config, ("eig_tol",))) == 0
            assert "criterion: feasible" in capsys.readouterr().out

    def test_correlations_strategy_off_idempotent(self, tmp_path, capsys):
        path = tmp_path / "strategy.json"
        write_strategy(path, initial_strategy(3))
        raw = json.loads(path.read_text())
        raw["alice"][0].update(_off_idempotent(simplex_observables(3)[0]))
        path.write_text(json.dumps(raw))
        argv = ["correlations", "--strategy", str(path)]
        assert main(argv) == 2
        assert "not idempotent" in capsys.readouterr().err
        for via_config in (False, True):
            assert main(argv + _loose_flags(tmp_path, via_config, ("eig_tol",))) == 0
            assert capsys.readouterr().out.startswith("0,0,0,0,")


class TestInvalidSettingsAreRejected:
    """NaN, infinite and out-of-range settings exit 2, however they are given."""

    def test_nan_tolerances_do_not_pass_a_non_involution(self, tmp_path, capsys):
        o = np.array([[0.3, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, -1.0]])
        target = _write_json(tmp_path / "target.json", {"matrix": encode_matrix(o)})
        argv = ["certify", "--target", target, "--out", str(tmp_path / "out")]
        assert main(argv + ["--tol-sym", "nan", "--tol-eig", "nan"]) == 2
        assert "sym_tol must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol-sym", "nan"),
            ("--tol-eig", "inf"),
            ("--tol-singular", "0"),
            ("--tol-feas", "-1"),
            ("--tol-membership", "-inf"),
            ("--robustness-constant", "-0.5"),
            ("--robustness-constant", "nan"),
        ],
    )
    def test_flag_and_config(self, tmp_path, capsys, flag, value):
        field = cli._SETTINGS_FLAGS[flag[2:].replace("-", "_")]
        params = _write_json(tmp_path / "params.json", TestRobustnessCommand.FROZEN)
        config = _write_json(tmp_path / "config.json", {field: float(value)})
        for extra in (f"{flag}={value}", f"--config={config}"):
            assert main(["robustness", "--params", params, extra]) == 2
            assert f"error: {field} must be finite and" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [{"feas_tol": True}, {"sym_tol": "1e-3"}, {"eig_tol": None}])
    def test_config_values_must_be_json_numbers(self, tmp_path, capsys, raw):
        params = _write_json(tmp_path / "params.json", TestRobustnessCommand.FROZEN)
        config = _write_json(tmp_path / "config.json", raw)
        assert main(["robustness", "--params", params, "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"error: settings value(s) must be JSON numbers: {next(iter(raw))}" in err

    def test_integer_config_values_are_accepted(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", TestRobustnessCommand.FROZEN)
        config = _write_json(tmp_path / "config.json", {"robustness_constant": 2})
        assert main(["robustness", "--params", params, "--config", config]) == 0
        assert capsys.readouterr().out.strip() == "0.034641016151377546"

    def test_zero_robustness_constant_is_allowed(self, tmp_path, capsys):
        params = _write_json(tmp_path / "params.json", TestRobustnessCommand.FROZEN)
        assert main(["robustness", "--params", params, "--robustness-constant", "0"]) == 0


class TestComplexInputsAreRejected:
    # a Hermitian involution with complex entries (Pauli Y plus a +1 block)
    Y3 = np.array([[0.0, -1j, 0.0], [1j, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_certify(self, tmp_path, capsys):
        target = _write_json(tmp_path / "target.json", {"matrix": encode_matrix(self.Y3)})
        assert main(["certify", "--target", target, "--out", str(tmp_path / "out")]) == 2
        assert "expected a real matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["observables", "extra"])
    def test_jordan_closure(self, tmp_path, capsys, where):
        real = _write_json(tmp_path / "real.json", {"matrices": [encode_matrix(np.eye(3))]})
        mixed = _write_json(
            tmp_path / "mixed.json",
            {"matrices": [encode_matrix(np.eye(3)), encode_matrix(self.Y3)]},
        )
        argv = ["jordan-closure", "--observables", mixed if where == "observables" else real]
        if where == "extra":
            argv += ["--extra", mixed]
        assert main(argv) == 2
        assert "expected a real matrix" in capsys.readouterr().err


class TestStrictJsonOutput:
    """A non-finite value exits 2 instead of writing NaN or Infinity."""

    def test_simplex(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "simplex_vectors", lambda d: np.full((d + 1, d), np.nan))
        assert main(["simplex", "--dim", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Out of range float values are not JSON compliant" in captured.err

    def test_posthoc_check_json(self, posthoc_files, monkeypatch, capsys):
        state, alice, target = posthoc_files
        real = cli.posthoc_check
        monkeypatch.setattr(
            cli,
            "posthoc_check",
            lambda *a, **k: [dataclasses.replace(r, trace_q=np.inf) for r in real(*a, **k)],
        )
        argv = ["posthoc-check", "--state", state, "--alice", alice, "--target", target]
        assert main(argv + ["--json"]) == 2
        assert capsys.readouterr().out == ""

    def test_certify_writes_nothing(self, tmp_path, monkeypatch, capsys):
        real = cli.certificate_report
        monkeypatch.setattr(
            cli,
            "certificate_report",
            lambda *a, **k: dataclasses.replace(real(*a, **k), gram_lambda_min=np.nan),
        )
        target = _write_json(
            tmp_path / "target.json", {"matrix": encode_matrix(simplex_observables(3)[0])}
        )
        out_dir = tmp_path / "bundle"
        assert main(["certify", "--target", target, "--out", str(out_dir)]) == 2
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not out_dir.exists()


class TestVerifyExamplesCommand:
    def test_all_examples_pass(self, capsys):
        assert main(["verify-examples"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        names = " ".join(lines)
        for fragment in (
            "analytic-family-closed-form",
            "analytic-family-feasible",
            "cheating-povm",
            "degenerate-pair",
        ):
            assert fragment in names


class TestDegeneracyCheckCommand:
    def test_counts(self, capsys):
        assert main(["degeneracy-check", "--dim", "5", "--questions", "4"]) == 0
        assert "degenerate-pair-possible: True" in capsys.readouterr().out
        assert (
            main(
                [
                    "degeneracy-check",
                    "--dim",
                    "3",
                    "--questions",
                    "4",
                    "--maximally-entangled",
                ]
            )
            == 0
        )
        assert "degenerate-pair-possible: False" in capsys.readouterr().out

    @pytest.mark.parametrize("dim, questions", [("-1", "-3"), ("0", "3"), ("3", "-1")])
    def test_impossible_sizes_exit_two(self, capsys, dim, questions):
        # "--dim -1 --questions -3" used to print True and "--dim 0" False, exit 0
        assert main(["degeneracy-check", "--dim", dim, "--questions", questions]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need a dimension d >= 1 and n >= 0")


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["simplex"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
