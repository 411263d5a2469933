"""Feasibility criterion, trace certificates, robustness bounds, 2d family.

Expected values come from hand derivations frozen as literals:
- the rotated-basis target against a maximally entangled {X} reference is
  infeasible with certified value exactly -1/2 (the symmetry constraint
  forces a single direction whose minimum eigenvalue is -1/2);
- for D = diag(cos g, sin g) and reference {X}, the minimum-trace
  certificate for the target X equals 1/sin^2(g);
- a maximally entangled reference family containing its own target yields
  the ideal certificate Tr Q = d with Q = I.
"""

import numpy as np
import pytest

from bellcert.certify import split_measurement
from bellcert.config import DEFAULTS
from bellcert.errors import (
    BadParams,
    DimMismatch,
    Infeasible,
    InvalidMeasurement,
    NotOrderL,
    TrivialRegion,
)
from bellcert.jordan import contains, span_basis
from bellcert.linalg import realify, sgn_map
from bellcert.posthoc import (
    RobustnessParams,
    _symmetric_combinations,
    analytic_family_2d,
    analytic_family_region,
    barrier_derivatives,
    min_trace_Q,
    posthoc_feasible_binary,
    posthoc_feasible_general,
    robustness_bound,
    sign_reachable,
    vector_recovery_bound,
)
from bellcert.simplex import (
    degenerate_pair_3d,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
)
from bellcert.strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    generalized_observables,
)

from helpers import (
    HADAMARD_DIR,
    X,
    Z,
    barrier_hessian_loop,
    random_symmetric,
    random_projective_measurement,
    random_reflection,
    random_schmidt_coeffs,
)

ME2 = SchmidtState.maximally_entangled(2)
ME3 = SchmidtState.maximally_entangled(3)
GAMMA_STAR = np.arctan(1.0 / np.sqrt(2.0))


class TestBinaryFeasibility:
    def test_hadamard_direction_is_infeasible(self):
        result = posthoc_feasible_binary(ME2, [X], HADAMARD_DIR)
        assert result.verdict == "infeasible"
        assert not result.feasible
        assert result.lambda_min_achieved == pytest.approx(-0.5, abs=1e-12)
        assert result.witness is None and result.coefficients is None

    def test_reference_member_is_feasible_with_unit_value(self):
        # H = D^2 witnesses the reference observable itself: X * (D X D)>= 0
        st = SchmidtState(np.array([np.cos(0.5), np.sin(0.5)]))
        result = posthoc_feasible_binary(st, [X], X)
        assert result.feasible
        assert result.power == 1
        assert result.certificate_tol == DEFAULTS.feas_tol

    def test_witness_is_span_member_with_positive_product(self):
        st = SchmidtState(np.array([np.cos(0.4), np.sin(0.4)]))
        target = analytic_family_2d(0.4, 1.1)
        result = posthoc_feasible_binary(st, [X], target)
        assert result.feasible
        d2 = st.matrix @ st.matrix
        dxd = st.matrix @ X @ st.matrix
        member, _, _ = contains(span_basis([d2, dxd]), result.witness)
        assert member
        product = target @ result.witness
        assert np.max(np.abs(product - product.T)) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (product + product.T))[0] > 0.0
        recon = result.coefficients[0] * d2 + result.coefficients[1] * dxd
        assert np.max(np.abs(recon - result.witness)) < 1e-9

    def test_near_boundary_target_is_marginal(self):
        gamma = 0.5
        st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        bound = analytic_family_region(gamma)
        target = analytic_family_2d(gamma, bound - 1e-9)
        result = posthoc_feasible_binary(st, [X], target)
        assert result.verdict == "marginal"
        assert abs(result.lambda_min_achieved) <= DEFAULTS.feas_tol

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimMismatch):
            posthoc_feasible_binary(ME3, [X], HADAMARD_DIR)

    def test_non_involution_target_raises(self):
        with pytest.raises(InvalidMeasurement):
            posthoc_feasible_binary(ME2, [X], 0.5 * X)

    def test_value_agrees_with_explicit_two_generator_oracle(self):
        # with generators G0 = O D^2 and G1 = O D X D, the symmetry constraint
        # t0 asym(G0) + t1 asym(G1) = 0 is one linear equation (both
        # asymmetric parts are multiples of the 2x2 rotation generator), so
        # the achievable direction is unique up to sign and the certified
        # value is max over signs of the minimum eigenvalue - computable
        # exactly without the solver
        gamma = 0.55
        st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        d2 = st.matrix @ st.matrix
        dxd = st.matrix @ X @ st.matrix
        for a in (-1.5, -0.2, 0.9, 2.0):
            target = analytic_family_2d(gamma, a)
            g0 = target @ d2
            g1 = target @ dxd
            alpha0 = g0[0, 1] - g0[1, 0]
            alpha1 = g1[0, 1] - g1[1, 0]
            t = np.array([alpha1, -alpha0])
            t = t / np.linalg.norm(t)
            m = t[0] * g0 + t[1] * g1
            m = 0.5 * (m + m.T)
            oracle = max(
                float(np.linalg.eigvalsh(m)[0]), float(np.linalg.eigvalsh(-m)[0])
            )
            result = posthoc_feasible_binary(st, [X], target)
            assert result.feasible == (oracle > DEFAULTS.feas_tol)
            assert result.lambda_min_achieved == pytest.approx(oracle, abs=1e-9)

    def test_sign_of_a_span_element_is_feasible_at_skewed_schmidt_spectra(self, rng):
        # target = sgn(H) for H = sum_k c_k S_k in span{D^2, D A D}: O H = |H|,
        # so the unit coefficient vector c / |c| has lambda_min at least
        # min|eig H| / |c|; whenever that exceeds feas_tol the verdict must
        # be "feasible", and no instance may be called infeasible
        for kappa in (1.0, 1e2, 1e3):
            proven = 0
            for d in (3, 4, 5):
                for _ in range(10):
                    coeffs = kappa ** (-np.arange(d) / (d - 1))
                    state = SchmidtState(coeffs / np.linalg.norm(coeffs))
                    refs = [random_reflection(rng, d) for _ in range(d)]
                    dm = state.matrix
                    span = [dm @ dm] + [dm @ a @ dm for a in refs]
                    c = rng.standard_normal(d + 1)
                    vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", c, span))
                    target = (vecs * np.sign(vals)) @ vecs.T
                    result = posthoc_feasible_binary(state, refs, target)
                    assert result.verdict != "infeasible", (kappa, d)
                    if np.min(np.abs(vals)) / np.linalg.norm(c) > DEFAULTS.feas_tol:
                        assert result.verdict == "feasible", (kappa, d)
                        proven += 1
            assert proven >= 27, kappa

    def test_margin_just_above_feas_tol_is_feasible(self, rng):
        # sgn(H) for H = sum_k c_k S_k whose own margin min|eig H| / |c| lies
        # in (1.1, 20) feas_tol, so the verdict must be "feasible". At
        # kappa ~ 1e3 the trace-normalized optimum has coefficients far longer
        # than 1 / |traces|, and its unit-norm margin can fall below feas_tol
        # although the best unit-norm margin does not.
        tol = DEFAULTS.feas_tol
        checked = 0
        while checked < 40:
            d = int(rng.integers(2, 5))
            kappa = 10.0 ** rng.uniform(2.9, 3.4)
            coeffs = kappa ** (-np.arange(d) / (d - 1))
            state = SchmidtState(coeffs / np.linalg.norm(coeffs))
            refs = [random_reflection(rng, d) for _ in range(int(rng.integers(1, d + 1)))]
            dm = state.matrix
            span = [dm @ dm] + [dm @ a @ dm for a in refs]
            c = rng.standard_normal(len(span))
            vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", c, span))
            if not 1.1 * tol < np.min(np.abs(vals)) / np.linalg.norm(c) < 20 * tol:
                continue
            target = (vecs * np.sign(vals)) @ vecs.T
            result = posthoc_feasible_binary(state, refs, target)
            assert result.verdict == "feasible", (d, kappa, result.lambda_min_achieved)
            checked += 1

    def test_nearly_parallel_references_are_feasible(self, rng):
        # references A and R A R^T with R a rotation by 1e-9..1e-5: a span
        # element that uses their difference has coefficients ~1/eps long,
        # which must not stall the solver. Each target is sgn(H) for such an
        # H whose own margin clears feas_tol.
        for _ in range(30):
            d = int(rng.integers(2, 5))
            coeffs = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
            state = SchmidtState(coeffs / np.linalg.norm(coeffs))
            a = random_reflection(rng, d)
            k = rng.standard_normal((d, d))
            k = 10.0 ** rng.uniform(-9, -5) * (k - k.T)
            r = np.linalg.solve(np.eye(d) - k, np.eye(d) + k)  # Cayley: orthogonal
            refs = [a, r @ a @ r.T]
            dm = state.matrix
            span = [dm @ dm] + [dm @ x @ dm for x in refs]
            c = rng.standard_normal(3)
            c[2] = -c[1] + 10.0 ** rng.uniform(-3, 0) * rng.standard_normal()
            vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", c, span))
            assert np.min(np.abs(vals)) / np.linalg.norm(c) > DEFAULTS.feas_tol
            target = (vecs * np.sign(vals)) @ vecs.T
            assert posthoc_feasible_binary(state, refs, target).verdict == "feasible"

    def test_repeated_calls_are_bit_identical(self):
        state, refs, first, _ = degenerate_pair_3d()
        gamma = 0.45
        st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        for args in (
            (state, refs, first),
            (ME3, simplex_observables(3), pair_observables(3)[(0, 1)]),
            (st, [X], analytic_family_2d(gamma, 0.8)),
        ):
            a = posthoc_feasible_binary(*args)
            b = posthoc_feasible_binary(*args)
            assert a.verdict == b.verdict
            assert a.lambda_min_achieved == b.lambda_min_achieved
            for x, y in (
                (a.witness, b.witness),
                (a.coefficients, b.coefficients),
                (a.certificate, b.certificate),
            ):
                assert (x is None and y is None) or np.array_equal(x, y)


def _symmetric_directions(gens) -> np.ndarray:
    """Directions M_j spanning the symmetric combinations of gens, by SVD."""
    asym = np.stack([(g - g.T).ravel() for g in gens], axis=1)
    _, sv, vt = np.linalg.svd(asym)
    rank = int(np.sum(sv > 1e-12 * max(1.0, float(sv[0]))))
    dirs = np.einsum("km,kij->mij", vt[rank:].T, np.array(gens))
    return 0.5 * (dirs + dirs.transpose(0, 2, 1))


def assert_farkas_certificate(z, gens) -> None:
    """Z >= 0, Tr Z = 1 and Tr(Z M_j) = 0: no symmetric combination is PD."""
    dirs = _symmetric_directions(gens)
    assert z is not None
    assert np.max(np.abs(z - z.T)) <= 1e-15
    assert np.linalg.eigvalsh(z)[0] >= -1e-12
    assert abs(np.trace(z) - 1.0) <= 1e-12
    if len(dirs):
        pairing = np.einsum("ij,mij->m", z, dirs)
        assert np.max(np.abs(pairing)) <= 1e-9 * np.max(np.abs(dirs))


def _binary_generators(state, refs, target):
    dm = state.matrix
    return [target @ s for s in [dm @ dm] + [dm @ a @ dm for a in refs]]


class TestFarkasCertificate:
    def test_hadamard_direction(self):
        result = posthoc_feasible_binary(ME2, [X], HADAMARD_DIR)
        assert result.verdict == "infeasible"
        assert_farkas_certificate(
            result.certificate, _binary_generators(ME2, [X], HADAMARD_DIR)
        )

    def test_degenerate_pair_against_its_initial_span(self):
        # the maximally entangled span {D^2, D A D} is the initial span
        # {I, A} of the iterative plan, from which the target is unreachable
        state, refs, first, _ = degenerate_pair_3d()
        result = posthoc_feasible_binary(state, refs, first)
        assert result.verdict == "infeasible"
        gens = _binary_generators(state, refs, first)
        assert len(_symmetric_directions(gens)) >= 2
        assert_farkas_certificate(result.certificate, gens)

    def test_traceless_family_gets_the_normalized_identity(self):
        o = np.diag([1.0, 1.0, -1.0, -1.0])
        r = np.diag([1.0, -1.0, 1.0, -1.0])
        me4 = SchmidtState.maximally_entangled(4)
        result = posthoc_feasible_binary(me4, [r], o)
        assert result.verdict == "infeasible"
        assert_farkas_certificate(result.certificate, _binary_generators(me4, [r], o))
        assert np.max(np.abs(result.certificate - np.eye(4) / 4)) <= 1e-15

    def test_random_instances(self):
        # acceptance-09-style draws: random states, references and reflection
        # targets; every infeasible verdict must carry a valid certificate
        rng = np.random.default_rng(909)
        infeasible = several_directions = 0
        for trial in range(150):
            d = 2 + trial % 3
            state = SchmidtState(random_schmidt_coeffs(rng, d))
            refs = [random_reflection(rng, d) for _ in range(1 + trial % d)]
            target = random_reflection(rng, d)
            result = posthoc_feasible_binary(state, refs, target)
            if result.verdict == "infeasible":
                gens = _binary_generators(state, refs, target)
                assert_farkas_certificate(result.certificate, gens)
                infeasible += 1
                several_directions += len(_symmetric_directions(gens)) >= 2
        assert infeasible >= 20
        assert several_directions >= 5

    def test_order_three_certificate_in_the_realified_frame(self, rng):
        a = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))
        b = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))
        powers = generalized_observables(a)[1:]
        target = generalized_observables(b)[1]
        results = posthoc_feasible_general(ME3, powers, target, 3)
        dm = ME3.matrix.astype(complex)
        span = [dm @ dm] + [dm @ p @ dm for p in powers]
        checked = 0
        for r in results:
            if r.verdict != "infeasible":
                continue
            wh = np.linalg.matrix_power(target.conj(), r.power).conj().T
            gens = []
            for s in span:
                gens += [realify(wh @ s), realify(1j * wh @ s)]
            assert_farkas_certificate(r.certificate, gens)
            checked += 1
        assert checked >= 1


class TestAnalyticFamily:
    def test_zero_offset_returns_the_flip(self):
        assert np.allclose(analytic_family_2d(0.3, 0.0), X, atol=1e-15)

    def test_matches_direct_sign_computation(self):
        worst = 0.0
        for gamma in (0.1, 0.35, GAMMA_STAR, 0.7):
            st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
            bound = analytic_family_region(gamma)
            for frac in (-0.95, -0.4, 0.0, 0.3, 0.8, 0.95):
                a = frac * bound
                direct = sgn_map(X + a * st.matrix @ st.matrix)
                assert not direct.singular
                closed = analytic_family_2d(gamma, a)
                worst = max(worst, float(np.max(np.abs(closed - direct.matrix))))
        assert worst < 1e-8

    def test_members_are_involutions(self):
        o = analytic_family_2d(0.6, 1.7)
        assert np.max(np.abs(o @ o - np.eye(2))) < 1e-12
        assert np.max(np.abs(o - o.T)) == 0.0

    def test_members_are_feasible(self):
        for gamma in (0.25, 0.6):
            st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
            bound = analytic_family_region(gamma)
            for frac in (-0.9, 0.5):
                target = analytic_family_2d(gamma, frac * bound)
                assert posthoc_feasible_binary(st, [X], target).feasible

    def test_region_boundary(self):
        gamma = 0.3
        bound = analytic_family_region(gamma)
        assert bound == pytest.approx(1.0 / (np.cos(gamma) * np.sin(gamma)))
        with pytest.raises(TrivialRegion):
            analytic_family_2d(gamma, bound * 1.000001)
        with pytest.raises(TrivialRegion):
            analytic_family_2d(gamma, -bound * 1.000001)

    def test_gamma_domain(self):
        for bad in (0.0, np.pi / 4.0, 1.2, -0.3):
            with pytest.raises(BadParams):
                analytic_family_2d(bad, 0.1)


class TestGeneralFeasibility:
    def test_binary_instance_matches_dedicated_path(self):
        for gamma in (0.35, GAMMA_STAR):
            st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
            target = analytic_family_2d(gamma, 0.5)
            binary = posthoc_feasible_binary(st, [X], target)
            general = posthoc_feasible_general(
                st, [X.astype(complex)], target.astype(complex), 2
            )
            assert len(general) == 1
            assert general[0].power == 1
            assert general[0].verdict == binary.verdict
            assert general[0].lambda_min_achieved == pytest.approx(
                binary.lambda_min_achieved, abs=1e-9
            )

    def test_three_outcome_self_family_is_feasible_at_every_power(self, rng):
        projs = random_projective_measurement(rng, 3, 3)
        m = ProjectiveMeasurement(tuple(projs))
        obs = generalized_observables(m)
        results = posthoc_feasible_general(ME3, [obs[1], obs[2]], obs[1], 3)
        assert [r.power for r in results] == [1, 2]
        for r in results:
            assert r.feasible
            # witnesses are Hermitian positive definite
            w = r.witness
            assert np.max(np.abs(w - w.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(w)[0] > 0.0

    def test_witness_coefficients_reconstruct_span_element(self, rng):
        projs = random_projective_measurement(rng, 3, 3)
        m = ProjectiveMeasurement(tuple(projs))
        obs = generalized_observables(m)
        powers = [obs[1], obs[2]]
        results = posthoc_feasible_general(ME3, powers, obs[1], 3)
        dm = ME3.matrix.astype(complex)
        span = [dm @ dm] + [dm @ p @ dm for p in powers]
        for r in results:
            w_l = np.linalg.matrix_power(obs[1].conj(), r.power)
            lhs = w_l @ r.witness
            rhs = sum(c * s for c, s in zip(r.coefficients, span))
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_order_violations_raise(self):
        with pytest.raises(NotOrderL):
            posthoc_feasible_general(ME3, [np.eye(3)], 0.5 * np.eye(3), 3)
        a = generalized_observables(
            ProjectiveMeasurement(tuple(random_projective_measurement(
                np.random.default_rng(0), 3, 3
            )))
        )[1]
        with pytest.raises(NotOrderL):
            posthoc_feasible_general(ME3, [a], a, 2)

    def test_four_outcome_family(self, rng):
        projs = random_projective_measurement(rng, 4, 4)
        m = ProjectiveMeasurement(tuple(projs))
        obs = generalized_observables(m)
        me4 = SchmidtState.maximally_entangled(4)
        results = posthoc_feasible_general(
            me4, [obs[1], obs[2], obs[3]], obs[1], 4
        )
        assert [r.power for r in results] == [1, 2, 3]
        assert all(r.feasible for r in results)


class TestSymmetricCombinations:
    def test_more_generators_than_matrix_entries(self, rng):
        # d = 2 with five references: six generators against four entries, so
        # the asymmetry matrix is wide and its null space needs all of V
        st = SchmidtState(np.array([np.cos(0.4), np.sin(0.4)]))
        refs = [X, Z] + [random_reflection(rng, 2, 1) for _ in range(3)]
        target = random_reflection(rng, 2, 1)
        dm = st.matrix
        gens = target @ np.array([dm @ dm] + [dm @ a @ dm for a in refs])
        null, mats = _symmetric_combinations(gens)
        asym = (gens - gens.transpose(0, 2, 1)).reshape(len(gens), -1)
        assert null.shape == (6, 6 - np.linalg.matrix_rank(asym.T))
        assert np.allclose(null.T @ null, np.eye(null.shape[1]), atol=1e-12)
        assert np.max(np.abs(asym.T @ null)) <= 1e-12
        assert np.allclose(mats, np.einsum("km,kij->mij", null, gens), atol=1e-12)
        # D^2, D X D and D Z D span every symmetric 2x2 matrix, target included
        result = posthoc_feasible_binary(st, refs, target)
        assert result.feasible
        assert np.linalg.eigvalsh(target @ result.witness)[0] > 0.0


class TestSignReachable:
    def test_diagonal_span_reaches_z_but_not_the_hadamard_direction(self):
        span = span_basis([np.eye(2), Z])
        assert sign_reachable(span, Z)
        assert sign_reachable(span, -Z)
        assert not sign_reachable(span, HADAMARD_DIR)


class TestMinTraceCertificate:
    def test_barrier_derivatives_match_the_reference_loop(self, rng):
        n, m = 6, 9
        a = rng.standard_normal((n, n))
        k = np.linalg.inv(a @ a.T + np.eye(n))
        mats = [random_symmetric(rng, n) for _ in range(m)]
        ref = barrier_hessian_loop(k, mats)
        tol = 1e-12 * float(np.max(np.abs(ref)))
        grad, hess = barrier_derivatives(k, np.array(mats))
        assert np.max(np.abs(hess - ref)) <= tol
        assert np.allclose(grad, [-np.sum(k * b) for b in mats], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 12), (10, 46)])
    def test_barrier_derivatives_match_the_loop_at_other_shapes(self, rng, n, m):
        # a positive definite K as in the barrier, and an indefinite one
        a = rng.standard_normal((n, n))
        for k in (np.linalg.inv(a @ a.T + np.eye(n)), random_symmetric(rng, n)):
            mats = [random_symmetric(rng, n) for _ in range(m)]
            ref = barrier_hessian_loop(k, mats)
            tol = 1e-12 * float(np.max(np.abs(ref)))
            grad, hess = barrier_derivatives(k, np.array(mats))
            assert hess.shape == (m, m)
            assert np.max(np.abs(hess - ref)) <= tol
            assert np.allclose(grad, [-np.trace(k @ b) for b in mats], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 8, 10])
    def test_pipeline_pair_targets_reach_the_dimension(self, d):
        # the certify pipeline's instance: maximally entangled state, Bob's
        # spanning family, a simplex pair target; Q = I is optimal
        bob, _ = maximal_independent_subset(d)
        me = SchmidtState.maximally_entangled(d)
        for key in ((0, 1), (2, d)):
            tr, q = min_trace_Q(me, bob, pair_observables(d)[key])
            assert tr == pytest.approx(d, rel=1e-9)
            assert tr == pytest.approx(float(np.trace(q)), rel=1e-12)

    def test_pipeline_three_outcome_measurement_reaches_the_dimension(self):
        # every binary coarse-graining of a fixed d = 4 three-outcome measurement
        meas = ProjectiveMeasurement(
            tuple(random_projective_measurement(np.random.default_rng(0), 4, 3))
        )
        bob, _ = maximal_independent_subset(4)
        me = SchmidtState.maximally_entangled(4)
        for part in split_measurement(meas):
            tr, _ = min_trace_Q(me, bob, part)
            assert tr == pytest.approx(4.0, rel=1e-9)

    def test_maximally_entangled_self_family_reaches_dimension(self):
        for d in (2, 3, 4):
            me = SchmidtState.maximally_entangled(d)
            obs = simplex_observables(d) if d >= 2 else []
            tr, q = min_trace_Q(me, obs, obs[0])
            assert tr == pytest.approx(d, abs=1e-5)
            vals = np.linalg.eigvalsh(q)
            assert vals[0] == pytest.approx(1.0, abs=1e-5)
            assert np.max(np.abs(q - np.eye(d))) < 1e-4

    def test_partial_entanglement_closed_form(self):
        # D = diag(cos g, sin g), reference {X}, target X: Tr Q = 1/sin^2 g
        for gamma in (GAMMA_STAR, 0.3, 0.6):
            st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
            tr, q = min_trace_Q(st, [X], X)
            assert tr == pytest.approx(1.0 / np.sin(gamma) ** 2, abs=1e-6)
            assert np.linalg.eigvalsh(q)[0] == pytest.approx(1.0, abs=1e-7)

    def test_frozen_instance(self):
        st = SchmidtState(np.array([np.cos(GAMMA_STAR), np.sin(GAMMA_STAR)]))
        tr, _ = min_trace_Q(st, [X], X)
        assert tr == pytest.approx(3.0, abs=1e-6)

    def test_certificate_satisfies_the_constraints(self):
        gamma = 0.45
        st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        target = analytic_family_2d(gamma, 0.8)
        tr, q = min_trace_Q(st, [X], target)
        # Q >= I and O D Q D inside the span of {D^2, D X D}
        assert np.linalg.eigvalsh(q)[0] >= 1.0 - 1e-7
        dm = st.matrix
        member, _, _ = contains(
            span_basis([dm @ dm, dm @ X @ dm]), target @ dm @ q @ dm, tol=1e-7
        )
        assert member
        assert tr == pytest.approx(float(np.trace(q)), abs=1e-12)

    def test_deterministic_across_calls(self):
        st = SchmidtState(np.array([np.cos(0.5), np.sin(0.5)]))
        tr1, q1 = min_trace_Q(st, [X], X)
        tr2, q2 = min_trace_Q(st, [X], X)
        assert tr1 == tr2
        assert np.array_equal(q1, q2)

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            min_trace_Q(ME2, [X], HADAMARD_DIR)

    def test_power_validation(self):
        with pytest.raises(BadParams):
            min_trace_Q(ME2, [X], X, outputs=2, power=2)

    def test_skewed_reflection_instance_stops_relative_to_the_trace(self):
        # d = 3, kappa = 1e3, Tr Q ~ 1.36e4: the barrier stops relative to
        # Tr Q, since an absolute n * mu <= 5e-10 would ask the Newton loop
        # for ~1e-14 relative accuracy
        st = SchmidtState(
            np.array([0.999499875437211, 0.031606961274361696, 0.000999499875437211])
        )
        refs = [
            np.array([
                [0.1277770945892735, 0.699455734525429, 0.7031605005529084],
                [0.699455734525429, 0.43909025832091997, -0.5638806792994068],
                [0.7031605005529084, -0.5638806792994068, 0.4331326470898065],
            ]),
            np.array([
                [0.6639570514306792, 0.5560704935999113, 0.49994663715543497],
                [0.5560704935999113, 0.07983668406402128, -0.8272917925527922],
                [0.49994663715543497, -0.8272917925527922, 0.2562062645052987],
            ]),
            np.array([
                [-0.6406242694126343, -0.5185705135196252, 0.5662907097485537],
                [-0.5185705135196252, -0.25171525341321427, -0.8171438390559606],
                [0.5662907097485537, -0.8171438390559606, -0.10766047717415139],
            ]),
        ]
        target = np.array([
            [0.9886602268104764, -0.10163685747663065, 0.11054820272321786],
            [-0.10163685747663065, 0.08904255622432296, 0.990828629170208],
            [0.11054820272321786, 0.990828629170208, -0.0777027830347987],
        ])
        tr, q = min_trace_Q(st, refs, target)
        assert np.linalg.eigvalsh(q)[0] >= 1.0 - 1e-6
        assert tr == pytest.approx(float(np.trace(q)), rel=1e-12)
        dm = st.matrix
        member, _, _ = contains(
            span_basis([dm @ dm] + [dm @ a @ dm for a in refs]),
            target @ dm @ q @ dm,
            tol=1e-7,
        )
        assert member

    def test_realified_path_agrees_with_the_real_path(self, rng):
        for d in (3, 4, 5):
            st = SchmidtState(random_schmidt_coeffs(rng, d))
            refs = [random_reflection(rng, d) for _ in range(d)]
            dm = st.matrix
            combo = dm @ dm + sum(
                c * dm @ a @ dm for c, a in zip(rng.standard_normal(d), refs)
            )
            target = sgn_map(combo).matrix
            tr_real, _ = min_trace_Q(st, refs, target)
            tr_complex, q = min_trace_Q(
                st, [a.astype(complex) for a in refs], target.astype(complex), outputs=2
            )
            assert np.iscomplexobj(q)
            assert abs(tr_complex - tr_real) <= 1e-9 * tr_real

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_order_l_certificate_satisfies_the_constraints(self, rng, kappa):
        # feasible by construction: among the references are D^-1 W_l P0 D^-1
        # with W_l = conj(U)^l, so P0 witnesses every power l
        for d, outputs in ((3, 3), (4, 3), (4, 4)):
            coeffs = kappa ** (-np.arange(d) / (d - 1))
            st = SchmidtState(coeffs / np.linalg.norm(coeffs))
            u = generalized_observables(_random_unitary_measurement(rng, d, outputs))[1]
            other = generalized_observables(_random_unitary_measurement(rng, d, outputs))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            p0 = g @ g.conj().T + 0.1 * np.eye(d)
            dinv = np.diag(1.0 / st.coeffs)
            powers = list(other[1:]) + [
                dinv @ np.linalg.matrix_power(u.conj(), l) @ p0 @ dinv
                for l in range(1, outputs)
            ]
            dm = st.matrix
            span = np.array([dm @ dm] + [dm @ a @ dm for a in powers])
            flat = span.reshape(len(span), -1).T
            for power in range(1, outputs):
                tr, q = min_trace_Q(st, powers, u, outputs=outputs, power=power)
                assert np.max(np.abs(q - q.conj().T)) <= 1e-10 * tr
                assert np.linalg.eigvalsh(q)[0] >= 1.0 - 1e-6
                lhs = (np.linalg.matrix_power(u.conj(), power) @ dm @ q @ dm).ravel()
                coef = np.linalg.lstsq(flat, lhs, rcond=None)[0]
                assert np.linalg.norm(flat @ coef - lhs) <= 1e-7 * np.linalg.norm(lhs)

    def test_general_path_maximally_entangled(self, rng):
        projs = random_projective_measurement(rng, 3, 3)
        m = ProjectiveMeasurement(tuple(projs))
        obs = generalized_observables(m)
        for power in (1, 2):
            tr, q = min_trace_Q(ME3, [obs[1], obs[2]], obs[1], outputs=3, power=power)
            assert tr == pytest.approx(3.0, abs=1e-5)
            assert np.linalg.eigvalsh(q)[0] == pytest.approx(1.0, abs=1e-5)


def _random_unitary_measurement(rng, d: int, outputs: int) -> ProjectiveMeasurement:
    """Projective measurement onto the blocks of a random complex unitary basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cuts = np.array_split(np.arange(d), outputs)
    return ProjectiveMeasurement(tuple(q[:, c] @ q[:, c].conj().T for c in cuts))


class TestRobustnessBound:
    def test_frozen_value(self):
        params = RobustnessParams(
            n=4,
            lambda_min_gram=1.0,
            trace_q=3.0,
            lambda_min_q=1.0,
            lambda_max_schmidt=1.0 / np.sqrt(3.0),
            kappa_schmidt=1.0,
            epsilon=0.0,
            delta=1e-4,
        )
        assert robustness_bound(params) == pytest.approx(
            0.034641016151377546, abs=1e-16
        )

    def test_zero_errors_give_zero(self):
        params = RobustnessParams(4, 1.0, 3.0, 1.0, 0.5, 1.0, 0.0, 0.0)
        assert robustness_bound(params) == 0.0

    def test_monotone_in_both_errors(self):
        base = dict(
            n=6,
            lambda_min_gram=0.8,
            trace_q=4.0,
            lambda_min_q=1.0,
            lambda_max_schmidt=0.7,
            kappa_schmidt=1.5,
        )
        prev = -1.0
        for eps in (0.0, 1e-4, 1e-3, 1e-2):
            value = robustness_bound(RobustnessParams(**base, epsilon=eps, delta=1e-5))
            assert value > prev
            prev = value
        prev = -1.0
        for delta in (0.0, 1e-5, 1e-4, 1e-3):
            value = robustness_bound(RobustnessParams(**base, epsilon=1e-4, delta=delta))
            assert value > prev
            prev = value

    def test_constant_variant_is_tighter(self):
        params = RobustnessParams(4, 1.0, 3.0, 1.0, 0.5, 1.0, 1e-3, 1e-4)
        loose = robustness_bound(params)
        tight = robustness_bound(
            params, settings=DEFAULTS.replace(robustness_constant=1.0)
        )
        assert tight < loose

    def test_parameter_validation(self):
        good = dict(
            n=4,
            lambda_min_gram=1.0,
            trace_q=3.0,
            lambda_min_q=1.0,
            lambda_max_schmidt=0.5,
            kappa_schmidt=1.0,
            epsilon=0.0,
            delta=0.0,
        )
        for key, bad in [
            ("n", 0),
            ("lambda_min_gram", 0.0),
            ("lambda_min_q", 0.0),
            ("trace_q", 0.5),
            ("lambda_max_schmidt", 1.5),
            ("kappa_schmidt", 0.9),
            ("epsilon", -1e-9),
            ("delta", -1e-9),
        ]:
            with pytest.raises(BadParams):
                robustness_bound(RobustnessParams(**{**good, key: bad}))

    def test_json_round_trip(self):
        params = RobustnessParams(4, 1.0, 3.0, 1.0, 0.5, 1.2, 1e-3, 1e-4)
        again = RobustnessParams.from_json_dict(params.to_json_dict())
        assert again == params


class TestVectorRecoveryBound:
    def test_frozen_value(self):
        assert vector_recovery_bound(1, 1.0, 0.01, 0.0, 1.0) == pytest.approx(
            0.1414213562373095, abs=1e-15
        )

    def test_monotone(self):
        assert vector_recovery_bound(1, 1.0, 0.02, 0.0, 1.0) > vector_recovery_bound(
            1, 1.0, 0.01, 0.0, 1.0
        )
        assert vector_recovery_bound(1, 1.0, 0.01, 0.01, 1.0) > vector_recovery_bound(
            1, 1.0, 0.01, 0.0, 1.0
        )

    def test_validation(self):
        with pytest.raises(BadParams):
            vector_recovery_bound(0, 1.0, 0.01, 0.0, 1.0)
        with pytest.raises(BadParams):
            vector_recovery_bound(1, 0.0, 0.01, 0.0, 1.0)
        with pytest.raises(BadParams):
            vector_recovery_bound(1, 1.0, -0.01, 0.0, 1.0)
        with pytest.raises(BadParams):
            vector_recovery_bound(1, 1.0, 0.01, 0.0, 0.0)


class TestResultPayload:
    def test_json_dict_fields(self):
        result = posthoc_feasible_binary(ME2, [X], HADAMARD_DIR)
        payload = result.to_json_dict()
        assert payload["verdict"] == "infeasible"
        assert payload["power"] == 1
        assert set(payload) == {
            "verdict",
            "power",
            "lambda_min_achieved",
            "certificate_tol",
        }
