"""End-to-end certification pipeline: strategy builders, reports, plans."""

import dataclasses
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bellcert import certify, posthoc, strategies
from bellcert.certify import (
    CertificateReport,
    IterativePlan,
    binary_certification_strategy,
    certificate_report,
    iterative_plan,
    measurement_certification_strategy,
    split_measurement,
)
from bellcert.config import DEFAULTS
from bellcert.errors import (
    BadDimension,
    BadParams,
    InvalidMeasurement,
    NotSymmetric,
    SolverStall,
    Unreachable,
)
from bellcert.jordan import contains, jordan_closure, span_basis
from bellcert.linalg import extend_orthonormal_rows, sgn_map, svec, sym_eig
from bellcert.posthoc import min_trace_Q, posthoc_check
from bellcert.simplex import (
    degenerate_pair_3d,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
)
from bellcert.strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    require_binary_observables,
)

from helpers import (
    X,
    Z,
    extension_batch_one_offer,
    linalg_calls,
    random_projective_measurement,
    random_reflection,
)


class TestSplit:
    def test_round_trip(self, rng):
        meas = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 4, 3)))
        parts = split_measurement(meas)
        assert len(parts) == 3
        for part in parts:
            vals = np.linalg.eigvalsh(part)
            assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-9
        for p, part in zip(meas.projections, parts, strict=True):
            assert np.max(np.abs(p - 0.5 * (np.eye(4) + part))) < 1e-10

    def test_caller_settings_reach_split(self):
        # every projection 4e-9 * 0.5 from idempotent: 2 P - I squares to I
        # only within ~8e-9, outside the default eig_tol
        loose = DEFAULTS.replace(eig_tol=1e-6)
        p0 = (1.0 + 4e-9) * 0.5 * (np.eye(3) + simplex_observables(3)[0])
        meas = ProjectiveMeasurement((p0, np.eye(3) - p0), settings=loose)
        with pytest.raises(InvalidMeasurement):
            split_measurement(meas)
        with pytest.raises(InvalidMeasurement):
            measurement_certification_strategy(meas)
        parts = split_measurement(meas, settings=loose)
        assert np.max(np.abs(0.5 * (np.eye(3) + parts[0]) - p0)) < 1e-15
        strat = measurement_certification_strategy(meas, settings=loose)
        assert strat.alice_labels[-2:] == ("O0", "O1")


class TestBinaryStrategyBuilder:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_question_counts_and_labels(self, d):
        target = simplex_observables(d)[0]
        strat = binary_certification_strategy(target)
        assert strat.dim == d
        assert strat.alice_questions == d + 2
        assert strat.bob_questions == d * (d + 1) // 2
        assert strat.alice_labels == ("T0", "T1", "T2", "T3", "T4", "T5")[: d + 1] + ("O",)
        assert list(strat.meta.items()) == [
            ("kind", "binary-certification"),
            ("base_questions", d + 1),
        ]

    def test_state_is_maximally_entangled(self):
        strat = binary_certification_strategy(simplex_observables(3)[1])
        assert np.allclose(strat.state.coeffs, np.full(3, 1 / np.sqrt(3)))

    def test_rejects_small_dimension(self):
        with pytest.raises(BadDimension):
            binary_certification_strategy(X)
        with pytest.raises(BadDimension):
            measurement_certification_strategy(ProjectiveMeasurement.from_observable(X))

    def test_rejects_non_symmetric_target(self):
        # Bob's questions span the full symmetric algebra, so any valid
        # involution is expressible; the only way out is to not be a
        # symmetric matrix in the first place.
        bad = np.diag([1.0, 1.0, -1.0]) + 0.3 * (
            np.outer([1, 0, 0], [0, 1, 0]) - np.outer([0, 1, 0], [1, 0, 0])
        )
        with pytest.raises(NotSymmetric):
            binary_certification_strategy(bad)


class TestMeasurementStrategyBuilder:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_question_counts(self, rng, d):
        outputs = 3
        meas = ProjectiveMeasurement(
            tuple(random_projective_measurement(rng, d, outputs))
        )
        strat = measurement_certification_strategy(meas)
        assert strat.alice_questions == d + 1 + outputs
        assert strat.bob_questions == d * (d + 1) // 2
        assert strat.alice_labels == ("T0", "T1", "T2", "T3", "T4", "T5")[: d + 1] + (
            "O0",
            "O1",
            "O2",
        )
        assert list(strat.meta.items()) == [
            ("kind", "measurement-certification"),
            ("base_questions", d + 1),
            ("target_outputs", outputs),
        ]
        for m, o in zip(strat.alice[d + 1 :], split_measurement(meas), strict=True):
            assert np.max(np.abs(m.observable() - o)) <= 1e-15


@pytest.fixture(scope="module")
def report():
    target = simplex_observables(3)[2]
    strat = binary_certification_strategy(target)
    return certificate_report(strat)


class TestCertificateReport:
    def test_structure(self, report):
        assert report.dim == 3
        assert report.alice_questions == 5
        assert report.bob_questions == 6
        assert report.gram_lambda_min > 0.0
        assert report.closure_dimension == 6
        assert report.full_algebra is True
        assert abs(report.schmidt_kappa - 1.0) < 1e-12
        assert abs(report.schmidt_max - 1 / np.sqrt(3)) < 1e-12

    def test_extension_certificate(self, report):
        assert len(report.extensions) == 1
        label, cert = report.extensions[0]
        assert label == "O"
        assert cert.verdict == "feasible"
        # A maximally entangled state with a spanning reference family
        # forces the minimum-trace witness to the identity.
        assert abs(cert.trace_q - 3.0) < 1e-5
        assert abs(cert.lambda_min_q - 1.0) < 1e-5
        assert report.all_feasible()

    def test_extensions_hold_posthoc_check_results(self, report):
        strat = binary_certification_strategy(simplex_observables(3)[2])
        [result] = posthoc_check(strat.state, strat.bob, strat.alice[-1].observable())
        _, cert = report.extensions[0]
        assert cert.to_json_dict() == result.to_json_dict()
        assert np.array_equal(cert.witness, result.witness)

    def test_robustness_wiring(self, report):
        params = report.robustness_params(epsilon=0.0, delta=1e-4)
        assert params.n == report.bob_questions
        assert params.trace_q == report.extensions[0][1].trace_q
        assert params.epsilon == 0.0
        with pytest.raises(BadParams):
            report.robustness_params(epsilon=0.0, delta=1e-4, extension_index=5)

    def test_json_dict_keys(self, report):
        payload = report.to_json_dict()
        assert payload["all_feasible"] is True
        assert "table" not in payload
        # each entry is posthoc-check --json's result object plus its label
        [(label, cert)] = report.extensions
        assert payload["extensions"] == [{"label": label, **cert.to_json_dict()}]
        assert list(payload["extensions"][0]) == [
            "label",
            "verdict",
            "power",
            "lambda_min_achieved",
            "certificate_tol",
            "trace_q",
            "lambda_min_q",
        ]

    def test_no_hermitian_combination_writes_strict_json(self):
        # O D^2 and O D X D are not symmetric for the skewed state, nor is any
        # combination of them: lambda_min_achieved is -inf, which JSON spells null
        coeffs = np.array([0.8, 0.5, 0.3]) / np.linalg.norm([0.8, 0.5, 0.3])
        swap_12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        swap_13 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        strat = Strategy(
            state=SchmidtState(coeffs),
            alice=tuple(ProjectiveMeasurement.from_observable(o) for o in (swap_12, swap_13)),
            bob=(ProjectiveMeasurement.from_observable(swap_12),),
            meta={"base_questions": 1},
        )
        got = certificate_report(strat)
        assert not got.all_feasible()
        with pytest.raises(BadParams, match="has no trace certificate"):
            got.robustness_params(epsilon=0.0, delta=1e-4)

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = json.dumps(got.to_json_dict(), allow_nan=False)
        [entry] = json.loads(text, parse_constant=reject)["extensions"]
        assert entry["label"] == "A1"
        assert entry["verdict"] == "infeasible"
        assert entry["lambda_min_achieved"] is None
        assert "trace_q" not in entry and "lambda_min_q" not in entry

    @pytest.mark.parametrize("d", [4, 8])
    def test_smallest_eigenvalues_match_the_full_decomposition(self, d):
        strat = binary_certification_strategy(pair_observables(d)[(0, 1)])
        got = certificate_report(strat)
        bob = np.array([m.observable().ravel() for m in strat.bob])
        gram_min = sym_eig(bob @ bob.T).values[-1]
        assert got.gram_lambda_min == pytest.approx(gram_min, rel=1e-12, abs=0)
        _, q = min_trace_Q(
            strat.state, [m.observable() for m in strat.bob], strat.alice[-1].observable()
        )
        q_min = sym_eig(q).values[-1]
        assert got.extensions[0][1].lambda_min_q == pytest.approx(q_min, rel=1e-12, abs=0)

    def test_rejects_strategy_without_metadata(self):
        strat = binary_certification_strategy(simplex_observables(3)[0])
        stripped = type(strat)(
            state=strat.state,
            alice=strat.alice,
            bob=strat.bob,
            alice_labels=strat.alice_labels,
            bob_labels=strat.bob_labels,
        )
        with pytest.raises(BadParams):
            certificate_report(stripped)

    @pytest.mark.parametrize("base", [0, 6])
    def test_rejects_base_questions_out_of_range(self, base):
        strat = binary_certification_strategy(simplex_observables(3)[0])
        moved = dataclasses.replace(strat, meta={**strat.meta, "base_questions": base})
        with pytest.raises(BadParams, match=f"base_questions = {base} is inconsistent"):
            certificate_report(moved)

    def test_rejects_a_non_binary_bob_measurement(self, rng):
        strat = binary_certification_strategy(simplex_observables(3)[0])
        three = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))
        mixed = dataclasses.replace(strat, bob=(*strat.bob, three), bob_labels=())
        with pytest.raises(BadParams, match="certificate reports need binary Bob measurements"):
            certificate_report(mixed)


def _bob_only(family) -> Strategy:
    """Bob asks `family`; Alice asks one base question, so no extension is checked."""
    bob = ProjectiveMeasurement.binary_family(family)
    state = SchmidtState.maximally_entangled(bob[0].dim)
    return Strategy(state=state, alice=bob[:1], bob=bob, meta={"base_questions": 1})


@pytest.fixture
def closure_calls(monkeypatch):
    """The families certificate_report hands to jordan_closure."""
    calls = []
    original = certify.jordan_closure

    def counted(generators, **kwargs):
        calls.append(len(generators))
        return original(generators, **kwargs)

    monkeypatch.setattr(certify, "jordan_closure", counted)
    return calls


def _report_closure(family) -> tuple:
    r = certificate_report(_bob_only(family))
    return r.closure_dimension, r.closure_iterations, r.full_algebra


def _closure(family) -> tuple:
    d = family[0].shape[0]
    basis, iterations = jordan_closure(family)
    return basis.dimension, iterations, basis.dimension == d * (d + 1) // 2


def _pipeline_strategies(d: int) -> list[Strategy]:
    rng = np.random.default_rng(d)
    meas = ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, 3)))
    return [
        binary_certification_strategy(random_reflection(rng, d)),
        measurement_certification_strategy(meas),
    ]


class TestClosureFromConstruction:
    """certificate_report takes a pipeline strategy's closure from its
    construction and runs jordan_closure for every other strategy; either
    way it reports what jordan_closure does."""

    @pytest.mark.parametrize("d", range(3, 33))
    def test_the_pipeline_family_fills_sym_after_no_sweep(self, d):
        assert _closure(maximal_independent_subset(d)[0]) == (d * (d + 1) // 2, 0, True)

    @pytest.mark.parametrize("d", range(3, 17))
    def test_pipeline_strategies_run_no_closure(self, closure_calls, d):
        want = _closure(maximal_independent_subset(d)[0])
        for strat in _pipeline_strategies(d):
            r = certificate_report(strat)
            assert (r.closure_dimension, r.closure_iterations, r.full_algebra) == want
        assert closure_calls == []

    @pytest.mark.parametrize("d", [3, 8])
    def test_a_replaced_strategy_runs_the_closure(self, closure_calls, d):
        strat = binary_certification_strategy(simplex_observables(d)[0])
        r = certificate_report(dataclasses.replace(strat))
        assert (r.closure_dimension, r.closure_iterations, r.full_algebra) == _closure(
            maximal_independent_subset(d)[0]
        )
        assert closure_calls == [d * (d + 1) // 2]

    @pytest.mark.parametrize("extra", [0, 3])
    @pytest.mark.parametrize("d", range(3, 8))
    def test_random_reflection_families_agree(self, d, extra):
        rng = np.random.default_rng(100 * d + extra)
        for _ in range(4):
            family = [random_reflection(rng, d) for _ in range(d * (d + 1) // 2 + extra)]
            assert _report_closure(family) == _closure(family)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_a_duplicated_member_agrees(self, closure_calls, d):
        rng = np.random.default_rng(d)
        family = [random_reflection(rng, d) for _ in range(d * (d + 1) // 2)]
        assert _report_closure(family) == _closure(family)
        family[-1] = family[0]
        assert _report_closure(family) == _closure(family)
        assert closure_calls == [len(family)] * 2

    @pytest.mark.parametrize("d", [8, 16])
    def test_a_pipeline_report_runs_no_svd(self, d):
        # the Gram matrix; the exact witness's lstsq and margin, once for the
        # check and once for min_trace_Q's re-solve; two eigvalsh of the
        # minimum-trace step
        n = d * (d + 1) // 2
        strat = binary_certification_strategy(pair_observables(d)[(0, 1)])
        with linalg_calls() as calls:
            certificate_report(strat)
        eig, solve = ("eigvalsh", (d, d), None), ("lstsq", (d * d, n + 1), None)
        assert calls == [("eigvalsh", (n, n), None), solve, eig, solve, eig, eig, eig]

    def test_a_complex_bob_family_raises_as_jordan_closure_does(self, rng):
        # a unitary change of basis keeps every projection Hermitian
        d = 3
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        eye = np.eye(d)
        bob = tuple(
            ProjectiveMeasurement((0.5 * (eye + b), 0.5 * (eye - b)))
            for b in (u @ o @ u.conj().T for o in maximal_independent_subset(d)[0])
        )
        strat = Strategy(
            state=SchmidtState.maximally_entangled(d), alice=bob[:1], bob=bob,
            meta={"base_questions": 1},
        )
        with pytest.raises(NotSymmetric, match="expected a real matrix, got complex entries"):
            certificate_report(strat)
        with pytest.raises(NotSymmetric, match="expected a real matrix, got complex entries"):
            jordan_closure([m.observable() for m in bob])


class TestCertifyValidatesOnce:
    def test_a_d8_certify_validates_bob_once_and_runs_no_closure(self, monkeypatch, closure_calls):
        d = 8
        t0 = simplex_observables(d)[0]
        stacks = []
        original = strategies.require_binary_observables

        def recorded(obs, **kwargs):
            stacks.append(any(np.array_equal(o, t0) for o in obs))
            return original(obs, **kwargs)

        monkeypatch.setattr(strategies, "require_binary_observables", recorded)
        strat = binary_certification_strategy(pair_observables(d)[(0, 1)])
        assert stacks.count(True) == 1
        assert strat.alice[: d + 1] == strat.bob[: d + 1]
        report = certificate_report(strat)
        assert closure_calls == []
        assert (report.closure_dimension, report.closure_iterations) == (d * (d + 1) // 2, 0)

    def test_min_trace_q_exact_exit_validates_the_question_once(self, monkeypatch):
        d = 8
        strat = binary_certification_strategy(pair_observables(d)[(0, 1)])
        powers = [m.observable() for m in strat.bob]
        target = strat.alice[-1].observable()
        validated, inside = [], []
        original_validate = posthoc.require_binary_observables
        original_check = posthoc.posthoc_feasible_binary

        def validate(obs, **kwargs):
            validated.append((len(obs), bool(inside)))
            return original_validate(obs, **kwargs)

        def check(*args, **kwargs):
            inside.append(1)
            try:
                return original_check(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(posthoc, "require_binary_observables", validate)
        monkeypatch.setattr(posthoc, "posthoc_feasible_binary", check)
        trace_q, q = min_trace_Q(strat.state, powers, target)
        assert (trace_q, q.tolist()) == (float(d), np.eye(d).tolist())
        assert [v for v in validated if v[0] == len(powers) + 1] == [(len(powers) + 1, True)]

    def test_binary_references_build_no_generalized_observables(self, monkeypatch):
        strat = binary_certification_strategy(pair_observables(4)[(0, 1)])
        calls = []
        original = posthoc.generalized_observables
        monkeypatch.setattr(
            posthoc, "generalized_observables", lambda m: calls.append(1) or original(m)
        )
        [result] = posthoc_check(strat.state, strat.bob, strat.alice[-1].observable())
        assert result.feasible and calls == []


def _random_plan_input(rng):
    """d = 6..12, two or three reflections of rank 1 or 2, and as target the
    sign of a random element of their closure."""
    d = int(rng.integers(6, 13))
    refs = [
        random_reflection(rng, d, int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(2, 4)))
    ]
    closure, _ = jordan_closure(refs)
    coeffs = rng.standard_normal(closure.dimension)
    return refs, sgn_map(np.tensordot(coeffs, closure.basis, axes=1)).matrix


def _load_oracle():
    """The benchmark's independent checker, perfbench/oracle.py."""
    spec = importlib.util.spec_from_file_location(
        "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    )
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


class TestIterativePlan:
    def test_reachable_target_needs_one_round(self):
        obs = simplex_observables(3)
        plan = iterative_plan([obs[0], obs[1], obs[2], obs[3]], obs[0])
        assert plan.rounds[-1].party == "alice"
        assert len(plan.rounds[-1].observables) == 1
        assert plan.closure_dimension == 6

    def test_degenerate_pair_needs_bob_extension(self):
        _, refs, first, _ = degenerate_pair_3d()
        plan = iterative_plan(list(refs), first)
        parties = [r.party for r in plan.rounds]
        assert parties[0] == "bob"
        assert parties[-1] == "alice"
        assert len(plan.rounds) >= 2
        for rnd in plan.rounds:
            for obs in rnd.observables:
                gap = np.max(np.abs(obs @ obs - np.eye(3)))
                assert gap < 1e-9

    @pytest.mark.parametrize("draw", [None, 1, 98], ids=["degenerate-pair", "d9", "d8"])
    def test_each_round_grows_its_span_inside_the_closure(self, draw):
        # draw 1 (d = 9): when each round combined the orthonormal rows of the
        # other party's span, Alice's span outgrew the 22-dimensional closure
        # and Bob's second round was up to 2.1 off it in Frobenius norm
        if draw is None:
            _, refs, target, _ = degenerate_pair_3d()
            refs = list(refs)
        else:
            refs, target = _random_plan_input(np.random.default_rng(draw))
        plan = iterative_plan(refs, target)
        closure, _ = jordan_closure(refs)
        d = target.shape[0]
        families = dict.fromkeys(("alice", "bob"), [np.eye(d), *refs])
        for rnd in plan.rounds[:-1]:
            before = span_basis(families[rnd.party]).dimension
            families[rnd.party] = [*families[rnd.party], *rnd.observables]
            assert span_basis(families[rnd.party]).dimension > before
        for rnd in plan.rounds:
            assert all(contains(closure, o)[0] for o in rnd.observables)

    def test_a_plan_that_no_span_can_grow_stalls(self, monkeypatch):
        # with the target never reachable, both spans grow to the closure
        # (all of Sym(3)) and the next pass grows neither
        monkeypatch.setattr(certify, "sign_reachable", lambda *a, **k: False)
        _, refs, first, _ = degenerate_pair_3d()
        with pytest.raises(SolverStall, match="span dimensions 6 and 6, closure 6"):
            iterative_plan(list(refs), first)

    def test_random_plans_pass_the_benchmark_check(self):
        # three reflections of rank d // 2 and a cut of a random closure
        # element, as the benchmark draws them; a seed fixes the plan
        oracle = _load_oracle()
        for s in range(20):
            rng = np.random.default_rng(s)
            d = int(rng.integers(4, 9))
            refs = [random_reflection(rng, d, d // 2) for _ in range(3)]
            closure, _ = jordan_closure(refs)
            h = np.tensordot(rng.standard_normal(closure.dimension), closure.basis, axes=1)
            vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
            cut = int(rng.integers(0, d - 1))
            target = (vecs * np.sign(vals - 0.5 * (vals[cut] + vals[cut + 1]))) @ vecs.T
            plan = iterative_plan(refs, target, seed=s)
            job = SimpleNamespace(data={"refs": refs, "target": target})
            assert oracle.check_plan(job, plan, None) == (oracle.OK, ""), (s, d)
            again = iterative_plan(refs, target, seed=s)
            assert [r.party for r in again.rounds] == [r.party for r in plan.rounds]
            for r1, r2 in zip(plan.rounds, again.rounds, strict=True):
                assert all(map(np.array_equal, r1.observables, r2.observables))

    def test_unreachable_target(self):
        with pytest.raises(Unreachable):
            iterative_plan([Z], X)

    def test_plan_with_rounds_on_both_sides(self):
        # d = 8, three reflections, closure dimension 16: Bob's first round
        # does not reach the target, so Alice's family grows before Bob's
        # second round
        refs, target = _random_plan_input(np.random.default_rng(98))
        plan = iterative_plan(refs, target)
        assert [r.party for r in plan.rounds] == ["bob", "alice", "bob", "alice"]
        assert len(plan.rounds[-1].observables) == 1
        assert np.array_equal(plan.rounds[-1].observables[0], target)
        planned = [o for r in plan.rounds for o in r.observables]
        require_binary_observables(planned)
        assert all(np.array_equal(o, o.T) for o in planned)
        job = SimpleNamespace(data={"refs": refs, "target": target})
        oracle = _load_oracle()
        assert oracle.check_plan(job, plan, None) == (oracle.OK, "")

    def test_reachability_reads_the_questions_not_their_basis(self):
        # d = 8, closure dimension 16: once Bob's span is the closure, the
        # orthonormal rows of that span gave target @ span one Hermitian
        # direction fewer than the questions do, so the search answered
        # "not reachable" and the plan stalled at "span dimensions 16 and 16"
        refs, target = _random_plan_input(np.random.default_rng(21))
        plan = iterative_plan(refs, target)
        assert [r.party for r in plan.rounds] == ["bob", "alice"]
        assert plan.closure_dimension == 16
        job = SimpleNamespace(data={"refs": refs, "target": target})
        oracle = _load_oracle()
        assert oracle.check_plan(job, plan, None) == (oracle.OK, "")

    def test_plan_whose_first_search_ends_on_its_bound(self):
        # d = 11, two reflections, closure dimension 5 (draws as in
        # test_plan_with_rounds_on_both_sides): the first reachability search
        # ends below -feas_tol with its bound (8.5e-8) inside the band. The
        # bound settles "not reachable", where asking for a Farkas certificate
        # used to raise SolverStall
        refs, target = _random_plan_input(np.random.default_rng(132))
        plan = iterative_plan(refs, target)
        assert (target.shape[0], plan.closure_dimension) == (11, 5)
        assert [r.party for r in plan.rounds] == ["bob", "alice"]
        # the benchmark's independent plan check accepts it
        oracle = _load_oracle()
        job = SimpleNamespace(data={"refs": refs, "target": target})
        assert oracle.check_plan(job, plan, None) == (oracle.OK, "")

    def test_self_target_in_two_dimensions(self):
        plan = iterative_plan([X], X)
        assert [r.party for r in plan.rounds] == ["alice"]
        assert isinstance(plan, IterativePlan)


def _plan_key(plan):
    return [(r.party, np.array(r.observables).tobytes()) for r in plan.rounds]


def _benchmark_plan_input(rng, d):
    """Three reflections of rank d // 2 and a cut of a random closure element,
    as the benchmark's plan slots draw them."""
    refs = [random_reflection(rng, d, d // 2) for _ in range(3)]
    closure, _ = jordan_closure(refs)
    h = np.tensordot(rng.standard_normal(closure.dimension), closure.basis, axes=1)
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    cut = int(rng.integers(0, d - 1))
    return refs, (vecs * np.sign(vals - 0.5 * (vals[cut] + vals[cut + 1]))) @ vecs.T


class TestExtensionBatch:
    """A round offers all its cut points in one batch and keeps them in
    order by extend_orthonormal_rows' rule for a one-row offer."""

    def test_plans_equal_the_one_offer_per_cut_point_plans(self, monkeypatch):
        inputs = [(list(degenerate_pair_3d()[1]), degenerate_pair_3d()[2])]
        inputs += [_random_plan_input(np.random.default_rng(k)) for k in range(60)]
        plans = [iterative_plan(refs, target) for refs, target in inputs]
        monkeypatch.setattr(certify, "_extension_batch", extension_batch_one_offer)
        for (refs, target), plan in zip(inputs, plans, strict=True):
            assert _plan_key(iterative_plan(refs, target)) == _plan_key(plan)

    def test_the_grown_spans_stay_orthonormal(self, monkeypatch):
        grown = []
        original = certify._extension_batch

        def recorded(*args):
            new, span = original(*args)
            grown.append(span)
            return new, span

        monkeypatch.setattr(certify, "_extension_batch", recorded)
        refs, target = _random_plan_input(np.random.default_rng(98))
        assert len(iterative_plan(refs, target).rounds) == 4
        for span in grown:
            gram = span.rows @ span.rows.T
            assert np.max(np.abs(gram - np.eye(span.dimension))) <= 1e-12

    def test_keeps_and_drops_as_one_row_offers_do(self, monkeypatch):
        # diag(1, -1, 1, ..., 1) at d = 8, Givens-rotated in the plane (i, j):
        # off the diagonal span by exactly sqrt(2) |sin 2t|, set to a factor
        # of tol * max(1, |o|_F = sqrt(8)); a rule without the norm's share
        # would keep the 0.5x offer, one off by 10 % would flip 0.9x or 1.1x
        d = 8
        into = span_basis(list(np.eye(d)[:, None] * np.eye(d)))
        bound = into.tol * np.sqrt(d)

        def rotated(factor, i, j):
            t = 0.5 * np.arcsin(factor * bound / np.sqrt(2.0))
            g = np.eye(d)
            g[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
            return g @ np.diag([1.0, -1.0] + [1.0] * (d - 2)) @ g.T

        offered = [
            rotated(0.5, 0, 1),
            rotated(2.0, 0, 1),
            rotated(2.0, 0, 1),
            rotated(2.0, 1, 2),
            rotated(0.9, 1, 3),
            rotated(1.1, 1, 4),
        ]
        q, expected = into.rows, []
        for o in offered:
            q2, added = extend_orthonormal_rows(q, svec(o)[None], into.tol)
            if added:
                q, expected = q2, [*expected, o]
        monkeypatch.setattr(certify, "cut_point_observables", lambda h, **_: offered)
        kept, span = certify._extension_batch(
            np.eye(d)[None], into, np.random.default_rng(0), DEFAULTS
        )
        assert [any(o is k for k in kept) for o in offered] == [False, True, False, True, False, True]
        assert [id(o) for o in kept] == [id(o) for o in expected]
        assert span.dimension == len(q) == d + 3

    def test_a_round_runs_no_svd_and_one_eigh_per_combination(self):
        rng = np.random.default_rng(3)
        source = np.array([np.eye(6), *(random_reflection(rng, 6, 3) for _ in range(3))])
        into = span_basis(source)
        with linalg_calls() as calls:
            kept, grown = certify._extension_batch(source, into, rng, DEFAULTS)
        assert calls == [("eigh", (6, 6), None)] * len(source)
        assert len(kept) == grown.dimension - into.dimension > 0

    @pytest.mark.parametrize(
        "which, svds",
        [("degenerate-pair", 7), ("d6-rank3", 8)],
    )
    def test_plan_svd_counts(self, which, svds):
        # one project-and-SVD per cut point made these 17 and 28
        if which == "degenerate-pair":
            _, refs, target, _ = degenerate_pair_3d()
            refs = list(refs)
        else:
            refs, target = _benchmark_plan_input(np.random.default_rng(0), 6)
        with linalg_calls() as calls:
            plan = iterative_plan(refs, target)
        assert [r.party for r in plan.rounds] == ["bob", "alice"]
        assert sum(name == "svd" for name, *_ in calls) == svds
