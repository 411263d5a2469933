"""States, measurements, observables, correlation tables, worked examples."""

import numpy as np
import pytest

from bellcert.config import DEFAULTS
from bellcert.errors import (
    BadParams,
    BellcertError,
    DimMismatch,
    InvalidMeasurement,
    NotOrderL,
    NotSymmetric,
    TooLarge,
)
from bellcert.strategies import (
    CorrelationTable,
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    brute_force_correlation,
    correlation,
    correlation_table,
    generalized_observables,
    require_binary_observable,
    require_binary_observables,
    require_order_l,
    verify_cheating_povm,
    verify_degenerate_pair,
)
from bellcert import jordan, linalg, strategies
from bellcert.certify import binary_certification_strategy, certification_strategy
from bellcert.linalg import require_symmetric
from bellcert.posthoc import posthoc_feasible_general
from bellcert.simplex import (
    degenerate_pair_3d,
    initial_strategy,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
)

from helpers import (
    X,
    Z,
    binary_family_loop,
    fourier_duals_loop,
    random_projective_measurement,
    random_reflection,
    random_schmidt_coeffs,
    random_symmetric,
)


class TestSchmidtState:
    def test_normalization_enforced(self):
        with pytest.raises(BadParams):
            SchmidtState(np.array([1.0, 1.0]))

    def test_positive_coefficients_required(self):
        with pytest.raises(BadParams):
            SchmidtState(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "coeffs", [[np.nan] * 3, [0.5, np.nan, 0.5], [np.inf, 0.5], [-np.inf, 1.0]]
    )
    def test_finite_coefficients_required(self, coeffs):
        # NaN passes both the sign test and the unit-norm test
        with pytest.raises(BadParams, match="must be finite"):
            SchmidtState(np.array(coeffs))

    def test_maximally_entangled_values(self):
        st = SchmidtState.maximally_entangled(4)
        assert st.dim == 4
        assert np.allclose(st.coeffs, 0.5)
        assert st.kappa == pytest.approx(1.0)

    def test_kappa_is_ratio_of_extremes(self):
        st = SchmidtState(np.array([0.8, 0.6]))
        assert st.kappa == pytest.approx(0.8 / 0.6)

    def test_matrix_is_diagonal(self):
        st = SchmidtState(np.array([0.8, 0.6]))
        assert np.allclose(st.matrix, np.diag([0.8, 0.6]))


class TestProjectiveMeasurement:
    def test_valid_binary_measurement(self):
        m = ProjectiveMeasurement.from_observable(X)
        assert m.outputs == 2
        assert m.dim == 2
        assert np.allclose(m.observable(), X)

    def test_completeness_enforced(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement((p, p))

    def test_idempotence_enforced(self):
        almost = np.array([[0.6, 0.2], [0.2, 0.4]])
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement((almost, np.eye(2) - almost))

    def test_orthogonality_enforced(self):
        v = np.array([1.0, 0.0])
        w = np.array([np.cos(0.3), np.sin(0.3)])
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement((np.outer(v, v), np.outer(w, w)))

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_idempotence_failure_names_the_projection(self, rng, where):
        projs = random_projective_measurement(rng, 4, 3)
        projs[where] = 0.9 * projs[where]
        with pytest.raises(InvalidMeasurement, match=f"projection {where} is not idempotent"):
            ProjectiveMeasurement(tuple(projs))

    @pytest.mark.parametrize(
        "vectors, pair",
        [
            ([[1, 0, 0], [1, 1, 0], [0, 1, 1]], "0 and 1"),
            ([[1, 0, 0], [0, 1, 0], [0, 1, 1]], "1 and 2"),
            ([[1, 0, 0], [0, 1, 0], [1, 0, 1]], "0 and 2"),
        ],
    )
    def test_orthogonality_failure_names_the_first_pair(self, vectors, pair):
        rank_one = [np.outer(v, v) / np.dot(v, v) for v in np.array(vectors, dtype=float)]
        with pytest.raises(InvalidMeasurement, match=f"projections {pair} are not orthogonal"):
            ProjectiveMeasurement(tuple(rank_one))

    def test_projections_real_within_tol_are_stored_real(self):
        u = np.array([1.0, 1j, 0.0]) / np.sqrt(2.0)
        circular = np.outer(u, u.conj())
        axis = np.diag([0.0, 0.0, 1.0]).astype(complex)
        axis[0, 1], axis[1, 0] = 1e-12j, -1e-12j
        m = ProjectiveMeasurement((circular, circular.conj(), axis))
        assert [np.iscomplexobj(p) for p in m.projections] == [True, True, False]
        assert np.array_equal(m.projections[2], np.diag([0.0, 0.0, 1.0]))
        assert np.array_equal(m.projections[0], circular)

    def test_empty_and_mixed_dimensions_are_rejected(self):
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement(())
        with pytest.raises(DimMismatch):
            ProjectiveMeasurement((np.eye(2), np.zeros((3, 3))))

    def test_observable_requires_two_outputs(self, rng):
        projs = random_projective_measurement(rng, 3, 3)
        m = ProjectiveMeasurement(tuple(projs))
        with pytest.raises(InvalidMeasurement):
            m.observable()

    def test_random_measurements_validate(self, rng):
        for d, outputs in [(2, 2), (4, 2), (4, 3), (5, 5)]:
            projs = random_projective_measurement(rng, d, outputs)
            m = ProjectiveMeasurement(tuple(projs))
            assert m.dim == d and m.outputs == outputs


class TestGeneralizedObservables:
    def test_binary_stays_real(self):
        m = ProjectiveMeasurement.from_observable(Z)
        obs = generalized_observables(m)
        assert len(obs) == 2
        assert not np.iscomplexobj(obs[0]) and not np.iscomplexobj(obs[1])
        assert np.allclose(obs[0], np.eye(2))
        assert np.allclose(obs[1], Z)

    def test_fourier_relations(self, rng):
        for outputs in (3, 4):
            projs = random_projective_measurement(rng, 5, outputs)
            m = ProjectiveMeasurement(tuple(projs))
            obs = generalized_observables(m)
            assert np.allclose(obs[0], np.eye(5))
            a = obs[1]
            # unitarity, order, and the power structure A^(j) = A^j
            assert np.max(np.abs(a @ a.conj().T - np.eye(5))) < 1e-12
            power = np.eye(5, dtype=complex)
            for j in range(outputs):
                assert np.max(np.abs(obs[j] - power)) < 1e-12 if j else True
                power = power @ a
            assert np.max(np.abs(power - np.eye(5))) < 1e-12

    @pytest.mark.parametrize("outputs", [3, 4, 5, 6])
    def test_contractions_match_the_reference_loops(self, rng, outputs):
        projs = random_projective_measurement(rng, 7, outputs)
        obs = generalized_observables(ProjectiveMeasurement(tuple(projs)))
        assert np.array_equal(obs[0], np.eye(7)) and obs[0].dtype == complex
        for got, ref in zip(obs[1:], fourier_duals_loop(projs), strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-13

    def test_require_order_l_checks_order(self):
        with pytest.raises(NotOrderL):
            require_order_l(Z, 3)  # Z has order 2, not 3
        with pytest.raises(NotOrderL):
            require_order_l(0.5 * X, 2)  # not unitary

    def test_order_l_checks_agree_across_callers(self):
        # the order-L criterion raises require_order_l's own errors
        me2 = SchmidtState.maximally_entangled(2)
        for bad, outputs, message in (
            (0.5 * X, 2, "^matrix is not unitary$"),
            (Z, 3, "^matrix does not have order 3$"),
        ):
            for check in (
                lambda: require_order_l(bad, outputs),
                lambda: posthoc_feasible_general(me2, [np.eye(2)], bad, outputs),
            ):
                with pytest.raises(NotOrderL, match=message):
                    check()
        u = require_order_l(Z, 2)
        assert u.dtype == complex and np.array_equal(u, Z)

    @pytest.mark.parametrize("outputs", [1, 0, -2])
    def test_fewer_than_two_outputs_raise(self, outputs):
        # one check in require_order_l; the order-L criterion used to return []
        me2 = SchmidtState.maximally_entangled(2)
        for check in (
            lambda: require_order_l(Z, outputs),
            lambda: posthoc_feasible_general(me2, [X], Z, outputs),
        ):
            with pytest.raises(BadParams, match=f"at least two outputs, got {outputs}"):
                check()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        # each validator compares `gap > tol`, which is false for NaN
        me2 = SchmidtState.maximally_entangled(2)
        spoilt = np.diag([bad, 1.0])
        for check in (
            lambda: ProjectiveMeasurement((np.diag([bad, 0.0]), np.diag([0.0, 1.0]))),
            lambda: require_order_l(spoilt, 3),
            lambda: posthoc_feasible_general(me2, [np.eye(2)], spoilt, 3),
        ):
            with pytest.raises(BadParams, match="non-finite entry"):
                check()
        with pytest.raises(BadParams, match="^matrix 1 has a non-finite entry$"):
            require_binary_observables([X, spoilt])

    def test_require_binary_observable(self):
        assert np.allclose(require_binary_observable(X), X)
        with pytest.raises(InvalidMeasurement):
            require_binary_observable(0.9 * X)


class TestBinaryObservableFamily:
    DEFECTS = {
        "non-square": (lambda m: m[:, :-1], DimMismatch),
        "complex": (lambda m: m + 1e-3j * np.eye(len(m)), NotSymmetric),
        "asymmetric": (lambda m: m + np.triu(np.full_like(m, 1e-6), 1), NotSymmetric),
        "not an involution": (lambda m: 0.9 * m, InvalidMeasurement),
    }

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_a_defect_raises_what_the_single_validator_raises(self, rng, defect, where):
        spoil, expected = self.DEFECTS[defect]
        family = [random_reflection(rng, 4) for _ in range(5)]
        family[where] = spoil(family[where])
        with pytest.raises(BellcertError) as single:
            require_binary_observable(family[where])
        with pytest.raises(BellcertError) as batched:
            require_binary_observables(family)
        assert single.type is batched.type is expected

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_mixed_sizes_raise(self, rng, where):
        family = [random_reflection(rng, 4) for _ in range(5)]
        family[where] = random_reflection(rng, 3)
        with pytest.raises(DimMismatch):
            require_binary_observables(family)

    def test_output_is_the_per_matrix_symmetrized_copies(self, rng):
        family = [random_reflection(rng, 5) for _ in range(6)]
        family[1] = family[1] + 1e-12 * rng.standard_normal((5, 5))
        family[3] = family[3].astype(complex)
        out = require_binary_observables(family)
        assert out.shape == (6, 5, 5) and out.dtype == float
        for o, m in zip(out, family):
            assert np.array_equal(o, require_symmetric(m))
            assert np.array_equal(o, require_binary_observable(m))
        assert require_binary_observables([]).shape == (0, 0, 0)


def _binary_measurement_one_by_one(o: np.ndarray) -> ProjectiveMeasurement:
    m = require_binary_observable(o)
    eye = np.eye(len(m))
    return ProjectiveMeasurement((0.5 * (eye + m), 0.5 * (eye - m)))


class TestBinaryFamily:
    @pytest.mark.parametrize("d", range(3, 17))
    def test_equals_the_one_by_one_construction_bit_for_bit(self, d):
        # the two parties' families of the certify pipeline, with a pair target,
        # against measurements built one at a time and against the loop form
        alice = [*simplex_observables(d), pair_observables(d)[(0, 1)]]
        for family in (alice, maximal_independent_subset(d)[0]):
            batched = ProjectiveMeasurement.binary_family(family)
            assert len(batched) == len(family)
            loop = binary_family_loop(family)
            for m, o, want in zip(batched, family, loop, strict=True):
                ref = _binary_measurement_one_by_one(o)
                assert m.outputs == 2
                for p, q, r in zip(m.projections, ref.projections, want, strict=True):
                    assert p.dtype == q.dtype and np.array_equal(p, q)
                    assert p.tobytes() == r.tobytes()

    def test_from_observable_is_a_family_of_one(self):
        m = ProjectiveMeasurement.from_observable(X)
        [n] = ProjectiveMeasurement.binary_family([X])
        assert all(np.array_equal(p, q) for p, q in zip(m.projections, n.projections))
        assert ProjectiveMeasurement.binary_family([]) == ()

    DEFECTS = {
        "asymmetric": (lambda m: m + np.triu(np.full_like(m, 1e-6), 1), NotSymmetric),
        "not an involution": (lambda m: 0.9 * m, InvalidMeasurement),
        "NaN entry": (lambda m: np.where(np.eye(len(m), dtype=bool), np.nan, m), BadParams),
        "complex entry": (lambda m: m + 1e-3j * np.eye(len(m)), NotSymmetric),
    }

    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_a_bad_observable_is_named_by_its_index(self, rng, defect, where):
        spoil, expected = self.DEFECTS[defect]
        family = [random_reflection(rng, 4) for _ in range(7)]
        family[where] = spoil(family[where])
        with pytest.raises(BellcertError) as single:
            _binary_measurement_one_by_one(family[where])
        with pytest.raises(BellcertError, match=rf"matrix {where}\b") as batched:
            ProjectiveMeasurement.binary_family(family)
        assert single.type is batched.type is expected

    def test_the_first_bad_observable_is_named_not_the_worst(self):
        family = simplex_observables(4)
        family[1], family[3] = 0.99 * family[1], 0.5 * family[3]
        with pytest.raises(InvalidMeasurement, match=r"matrix 1 squares to I within 1\.99e-02"):
            ProjectiveMeasurement.binary_family(family)

    def test_a_bad_projection_stack_is_named_by_its_measurement(self):
        good = [0.5 * (np.eye(2) + X), 0.5 * (np.eye(2) - X)]
        stack = np.array([good, good, [good[0], 0.9 * good[1]]])
        with pytest.raises(InvalidMeasurement, match="measurement 2: projection 1 is not"):
            strategies.require_projective_stack(stack)
        stack[2, 1] = good[1] + [[0.0, 1e-6], [0.0, 0.0]]
        with pytest.raises(NotSymmetric, match=r"matrix \(2, 1\) is not Hermitian"):
            strategies.require_projective_stack(stack)

    def test_strategy_validation_calls_do_not_grow_with_d(self, monkeypatch):
        # one batched pass per party, not one per measurement: the target,
        # then each party's observables (their projections need no pass)
        calls = []
        original = linalg.require_hermitian_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (linalg, jordan, strategies):
            monkeypatch.setattr(module, "require_hermitian_stack", counted)
        counts = {}
        for d in (4, 10):
            calls.clear()
            binary_certification_strategy(pair_observables(d)[(0, 1)])
            counts[d] = len(calls)
        assert counts[4] == counts[10] == 3

    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_an_involution_at_the_tolerance_gives_valid_projections(self, rng, d):
        # O^2 - I just under eig_tol: (I +/- O)/2 pass the projection checks
        # that binary_family no longer repeats
        tol = DEFAULTS.eig_tol
        r, e = random_reflection(rng, d), random_symmetric(rng, d)

        def gap(o):
            return float(np.max(np.abs(o @ o - np.eye(d))))

        o = r + (0.99 * tol / gap(r + 1e-12 * e)) * 1e-12 * e
        assert 0.9 * tol < gap(o) < tol
        [m] = ProjectiveMeasurement.binary_family([o])
        [projs] = strategies.require_projective_stack([m.projections])
        assert all(np.array_equal(p, q) for p, q in zip(projs, m.projections))


# a 2x2 antisymmetric nudge of 1e-8: its symmetric part is zero, so it
# fails only the symmetry check at the default sym_tol (1e-10)
SKEW = 1e-8 * np.array([[0.0, 1.0], [-1.0, 0.0]])
LOOSE = DEFAULTS.replace(sym_tol=1e-6, eig_tol=1e-6)


class TestValidatorsReadSettings:
    def test_binary_observables_symmetry_at_sym_tol(self):
        loose = DEFAULTS.replace(sym_tol=1e-6)
        with pytest.raises(NotSymmetric):
            require_binary_observables([X, Z + SKEW])
        assert np.array_equal(require_binary_observables([X, Z + SKEW], settings=loose)[1], Z)
        with pytest.raises(NotSymmetric):
            require_binary_observable(Z + SKEW)
        assert np.array_equal(require_binary_observable(Z + SKEW, settings=loose), Z)

    def test_binary_observables_involution_at_eig_tol(self):
        nudged = (1.0 + 1e-8) * X  # squares to I within 2e-8
        with pytest.raises(InvalidMeasurement):
            require_binary_observables([nudged])
        assert np.array_equal(
            require_binary_observables([nudged], settings=DEFAULTS.replace(eig_tol=1e-6))[0],
            nudged,
        )
        with pytest.raises(InvalidMeasurement):
            ProjectiveMeasurement.from_observable(nudged)
        m = ProjectiveMeasurement.from_observable(nudged, settings=LOOSE)
        assert np.array_equal(m.observable(), nudged)

    def test_measurement_at_eig_tol(self):
        p0 = (1.0 + 4e-9) * 0.5 * (np.eye(2) + X)  # 2e-9 from idempotent
        with pytest.raises(InvalidMeasurement, match=r"projection 0 is not idempotent"):
            ProjectiveMeasurement((p0, np.eye(2) - p0))
        m = ProjectiveMeasurement((p0, np.eye(2) - p0), settings=LOOSE)
        assert np.array_equal(m.projections[0], p0)

    def test_order_l_at_eig_tol(self):
        nudged = (1.0 + 1e-8) * Z  # unitary within 2e-8
        for check in (
            lambda **kw: require_order_l(nudged, 2, **kw),
        ):
            with pytest.raises(NotOrderL):
                check()
            check(settings=LOOSE)

    def test_degenerate_pair_validates_at_the_given_settings(self):
        state, refs, first, second = degenerate_pair_3d()
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 1e-8, -1e-8
        nudged = [refs[0] + skew, *refs[1:]]
        with pytest.raises(NotSymmetric):
            verify_degenerate_pair(state, nudged, first, second)
        report = verify_degenerate_pair(state, nudged, first, second, settings=LOOSE)
        assert report.degenerate
        assert (report.gap_tol, report.distinct_tol) == (1e-9, 1e-6)


class TestCorrelation:
    def test_closed_form_two_dimensional(self):
        # <psi|A (x) B|psi> for D = diag(c, s): Tr[D A D B^T]
        c, s = 0.8, 0.6
        st = SchmidtState(np.array([c, s]))
        assert correlation(st, X, X) == pytest.approx(2 * c * s)
        assert correlation(st, Z, Z) == pytest.approx(1.0)
        assert correlation(st, X, Z) == pytest.approx(0.0)
        assert correlation(st, Z, np.eye(2)) == pytest.approx(c * c - s * s)

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 2)])
    def test_a_non_square_operator_is_a_dimension_mismatch(self, shape):
        st = SchmidtState.maximally_entangled(2)
        with pytest.raises(DimMismatch, match="expected a square matrix"):
            correlation(st, np.ones(shape), Z)
        with pytest.raises(DimMismatch, match="expected a square matrix"):
            correlation(st, X, np.ones(shape))

    def test_maximally_entangled_is_normalized_trace(self, rng):
        st = SchmidtState.maximally_entangled(4)
        a = random_reflection(rng, 4)
        b = random_reflection(rng, 4)
        assert correlation(st, a, b) == pytest.approx(np.trace(a @ b.T) / 4.0)

    def test_table_matches_brute_force_on_random_strategies(self, rng):
        worst = 0.0
        for _ in range(8):
            d = int(rng.integers(2, 5))
            outputs = int(rng.integers(2, 4))
            st = SchmidtState(random_schmidt_coeffs(rng, d))
            alice = tuple(
                ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, outputs)))
                for _ in range(2)
            )
            bob = tuple(
                ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, 2)))
                for _ in range(2)
            )
            strat = Strategy(state=st, alice=alice, bob=bob)
            worst = max(
                worst,
                correlation_table(strat).max_difference(brute_force_correlation(strat)),
            )
        assert worst < 1e-12

    def test_table_matches_per_entry_correlations_for_three_outcomes(self, rng):
        d = 4
        st = SchmidtState(random_schmidt_coeffs(rng, d))
        alice = tuple(
            ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, 3)))
            for _ in range(2)
        )
        bob = (
            ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, 3))),
            ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, 2))),
        )
        strat = Strategy(state=st, alice=alice, bob=bob)
        table = correlation_table(strat)
        expected = {
            (x, j, y, k): correlation(st, a, b)
            for x, m in enumerate(alice)
            for j, a in enumerate(generalized_observables(m))
            for y, n in enumerate(bob)
            for k, b in enumerate(generalized_observables(n))
        }
        keys = [row + col for row in table.rows for col in table.cols]
        assert keys == list(expected)
        assert np.max(np.abs(table.values.ravel() - list(expected.values()))) <= 1e-14

    @pytest.mark.parametrize("d, outputs", [(8, 2), (4, 3)])
    def test_certify_table_matches_brute_force(self, d, outputs):
        if outputs == 2:
            target = pair_observables(d)[(0, 1)]
        else:
            projs = random_projective_measurement(np.random.default_rng(d), d, outputs)
            target = ProjectiveMeasurement(tuple(projs))
        strat = certification_strategy(target)
        table = correlation_table(strat)
        assert table.max_difference(brute_force_correlation(strat)) <= 1e-13
        rows = [r for r, (_, j) in enumerate(table.rows) if j == 0]
        cols = [c for c, (_, k) in enumerate(table.cols) if k == 0]
        assert np.max(np.abs(table.values[np.ix_(rows, cols)] - 1.0)) <= 1e-12

    def test_brute_force_guards_size(self):
        d = 100
        reflection = np.eye(d) - 2.0 * np.diag([1.0] + [0.0] * (d - 1))
        m = ProjectiveMeasurement.from_observable(reflection)
        strat = Strategy(
            state=SchmidtState.maximally_entangled(d), alice=(m,), bob=(m,)
        )
        with pytest.raises(TooLarge):
            brute_force_correlation(strat)

    def test_table_entries_and_validation(self):
        strat = initial_strategy(3)
        table = correlation_table(strat)
        # (d+1)^2 question pairs, 2x2 outputs each -> j,k in {0,1}
        assert len(table) == 16 * 4
        # every entry real and of magnitude at most 1, the (x, 0, y, 0) ones 1
        values = table.values
        assert values.shape == (8, 8)
        assert table.rows == table.cols == tuple((x, j) for x in range(4) for j in range(2))
        assert np.max(np.abs(values.imag)) <= 1e-12
        assert np.max(np.abs(values)) <= 1.0 + 1e-9
        # identity components: every (x, 0, y, 0) entry is 1
        assert np.max(np.abs(values[0::2, 0::2] - 1.0)) <= 1e-9
        # distinct simplex questions at maximal entanglement: Tr[T_j T_k]/d
        entry = values[table.rows.index((1, 1)), table.cols.index((2, 1))]
        assert entry.real == pytest.approx(-5.0 / 27.0)

    def test_max_difference_requires_matching_keys(self):
        one = np.ones((1, 1), dtype=complex)
        t1 = CorrelationTable(((0, 0),), ((0, 0),), one)
        t2 = CorrelationTable(((0, 1),), ((0, 0),), one)
        with pytest.raises(DimMismatch):
            t1.max_difference(t2)

    def test_max_difference_of_two_empty_tables_is_zero(self):
        empty = CorrelationTable((), (), np.zeros((0, 0), dtype=complex))
        assert empty.max_difference(empty) == 0.0


class TestDegenerateExample:
    def test_pair_verifies(self):
        state, refs, first, second = degenerate_pair_3d()
        report = verify_degenerate_pair(state, refs, first, second)
        assert report.degenerate
        assert report.correlation_gap < 1e-12
        assert report.distinctness == pytest.approx(np.sqrt(6.0), abs=1e-12)
        assert report.centralizer_trivial

    def test_pair_members_are_involutions(self):
        _, _, first, second = degenerate_pair_3d()
        for o in (first, second):
            assert np.max(np.abs(o @ o - np.eye(3))) < 1e-12

    def test_perturbed_pair_is_not_degenerate(self):
        state, refs, first, second = degenerate_pair_3d()
        vals, vecs = np.linalg.eigh(second)
        rot = vecs @ np.diag(np.sign(vals)) @ vecs.T
        # nudge the second observable off the coincidence surface
        theta = 1e-3
        c, s = np.cos(theta), np.sin(theta)
        g = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        report = verify_degenerate_pair(state, refs, first, g @ rot @ g.T)
        assert not report.degenerate


class TestCheatingExample:
    def test_report_is_valid(self):
        rep = verify_cheating_povm()
        assert rep.valid
        assert rep.completeness_residual < 1e-12
        # one dishonest effect is exactly rank one, so the smallest
        # eigenvalue sits at zero up to rounding
        assert rep.min_eigenvalue > -1e-12
        assert rep.correlation_gap < 1e-12
        # the dishonest effects are genuinely non-projective
        assert rep.projection_defect > 0.1
        assert rep.overlap == pytest.approx((10.0 * np.sqrt(2.0) - 9.0) / 48.0, abs=1e-14)


class TestRejectedInputs:
    """Each validation branch raises its class with its message."""

    def test_empty_schmidt_state(self):
        with pytest.raises(BadParams, match="need at least one Schmidt coefficient"):
            SchmidtState(np.array([]))
        with pytest.raises(BadParams, match="dimension must be >= 1"):
            SchmidtState.maximally_entangled(0)

    def test_projections_that_do_not_sum_to_identity(self):
        with pytest.raises(
            InvalidMeasurement, match=r"measurement 0: projections do not sum to identity \(1.00e\+00\)"
        ):
            strategies.require_projective_stack([[np.diag([1.0, 0.0])]])

    @pytest.mark.parametrize("shape", [(1, 2, 2), (1, 1, 2, 2, 2)])
    def test_stack_of_the_wrong_rank(self, shape):
        stack = np.broadcast_to(np.eye(2), shape)
        with pytest.raises(DimMismatch, match=r"expected a \(k, L, d, d\) stack, got shape"):
            strategies.require_projective_stack(stack)

    def test_strategy_label_count(self):
        meas = ProjectiveMeasurement.from_observable(Z)
        with pytest.raises(BadParams, match="label count does not match measurement count"):
            Strategy(SchmidtState.maximally_entangled(2), (meas,), (meas,), alice_labels=("a", "b"))

    def test_strategy_measurement_dimension(self):
        meas = ProjectiveMeasurement.from_observable(Z)
        with pytest.raises(DimMismatch, match="measurement dimension 2 != state dimension 3"):
            Strategy(SchmidtState.maximally_entangled(3), (meas,), (meas,))

    def test_correlation_operator_size(self):
        state = SchmidtState.maximally_entangled(2)
        with pytest.raises(DimMismatch, match="operator dimension does not match the state"):
            correlation(state, np.eye(3), Z)
        with pytest.raises(DimMismatch, match="operator dimension does not match the state"):
            correlation(state, Z, np.eye(3))

    def test_degenerate_pair_observable_size(self):
        _, refs, first, second = degenerate_pair_3d()
        with pytest.raises(DimMismatch, match="observable dimension does not match the state"):
            verify_degenerate_pair(SchmidtState.maximally_entangled(2), refs, first, second)
