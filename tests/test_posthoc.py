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

import json
from dataclasses import replace

import numpy as np
import pytest

from bellcert import posthoc, solver
from bellcert.cli import main
from bellcert.certify import (
    binary_certification_strategy,
    certificate_report,
    measurement_certification_strategy,
    split_measurement,
)
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
from bellcert.linalg import sgn_map
from bellcert.posthoc import (
    RobustnessParams,
    analytic_family_2d,
    analytic_family_region,
    min_trace_Q,
    posthoc_check,
    posthoc_feasible_binary,
    posthoc_feasible_general,
    robustness_bound,
    sign_reachable,
    vector_recovery_bound,
)
from bellcert.serialize import measurement_to_json_dict
from bellcert.simplex import (
    degenerate_pair_3d,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
)
from bellcert.solver import (
    _DECREMENT_TOL,
    _MU_SHRINK,
    barrier_derivatives,
    central_path,
    hermitian_basis,
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
    assert_farkas_certificate,
    barrier_hessian_loop,
    random_symmetric,
    random_projective_measurement,
    random_reflection,
    random_schmidt_coeffs,
    symmetric_directions,
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

    @pytest.mark.parametrize(
        "field, value",
        [("feas_tol", -1.0), ("feas_tol", 0.0), ("feas_tol", np.nan), ("sym_tol", np.inf),
         ("eig_tol", np.nan), ("robustness_constant", -1.0)],
    )
    def test_settings_reject_non_finite_and_out_of_range_values(self, field, value):
        # with feas_tol = -1 the Hadamard direction (lambda_min -1/2) would
        # read "feasible"; no such Settings can be built
        with pytest.raises(BadParams, match=f"{field} must be finite"):
            DEFAULTS.replace(**{field: value})

    @pytest.mark.parametrize("where", ["target", "reference"])
    def test_non_finite_entries_raise_bad_params(self, where):
        # they used to reach LAPACK and end in numpy's LinAlgError
        nan = np.array([[np.nan, 1.0], [1.0, 0.0]])
        target, ref = (nan, X) if where == "target" else (X, nan)
        with pytest.raises(BadParams, match="non-finite entry"):
            posthoc_feasible_binary(ME2, [ref], target)

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

    def test_empty_reference_family(self):
        # span{D^2} alone: O D^2 is positive definite for O = I only
        assert posthoc_feasible_binary(ME2, [], np.eye(2)).feasible
        assert posthoc_feasible_binary(ME2, [], Z).verdict == "infeasible"

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

    def test_binary_results_stay_float64(self):
        # the solver core takes complex stacks too; real ones must stay real
        st = SchmidtState(np.array([np.cos(0.5), np.sin(0.5)]))
        feasible = posthoc_feasible_binary(st, [X], X)
        assert feasible.witness.dtype == feasible.coefficients.dtype == np.float64
        state, refs, first, _ = degenerate_pair_3d()
        for args in ((ME2, [X], HADAMARD_DIR), (state, refs, first)):
            assert posthoc_feasible_binary(*args).certificate.dtype == np.float64
        assert min_trace_Q(st, [X], analytic_family_2d(0.5, 0.8))[1].dtype == np.float64

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


def _binary_generators(state, refs, target):
    dm = state.matrix
    return [target @ s for s in [dm @ dm] + [dm @ a @ dm for a in refs]]


def _barrier_calls(monkeypatch) -> list:
    """Record the size of every solver.barrier_derivatives call: one per Newton step."""
    calls = []

    def counted(k, mats):
        calls.append(len(mats))
        return barrier_derivatives(k, mats)

    monkeypatch.setattr(solver, "barrier_derivatives", counted)
    return calls


def _identity_complement_is_pd(gens) -> bool:
    """Whether I minus its projection onto the symmetric combinations of gens
    is positive definite, from an SVD of the directions."""
    dirs = symmetric_directions(gens)
    n = dirs.shape[1]
    _, sv, vt = np.linalg.svd(dirs.reshape(len(dirs), -1), full_matrices=False)
    q = vt[sv > 1e-12 * sv[0]]
    z = np.eye(n).ravel() - (q @ np.eye(n).ravel()) @ q
    return bool(np.linalg.eigvalsh(z.reshape(n, n))[0] > 0.0)


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
        assert len(symmetric_directions(gens)) >= 2
        assert_farkas_certificate(result.certificate, gens)

    def test_traceless_family_gets_the_normalized_identity(self, monkeypatch):
        # the span is orthogonal to I, so the first iterate's dual I/n settles it
        calls = _barrier_calls(monkeypatch)
        o = np.diag([1.0, 1.0, -1.0, -1.0])
        r = np.diag([1.0, -1.0, 1.0, -1.0])
        me4 = SchmidtState.maximally_entangled(4)
        result = posthoc_feasible_binary(me4, [r], o)
        assert result.verdict == "infeasible" and calls == []
        assert_farkas_certificate(result.certificate, _binary_generators(me4, [r], o))
        assert np.max(np.abs(result.certificate - np.eye(4) / 4)) <= 1e-15

    def test_only_a_span_whose_identity_complement_is_not_pd_runs_the_barrier(
        self, monkeypatch
    ):
        # the draws of test_random_instances with two or more directions: the
        # first iterate's dual I/n settles the verdict exactly when I's
        # projection off the span is positive definite; otherwise the
        # barrier runs and its dual gives the certificate
        calls = _barrier_calls(monkeypatch)
        rng = np.random.default_rng(909)
        seen = {True: 0, False: 0}
        for trial in range(150):
            d = 2 + trial % 3
            state = SchmidtState(random_schmidt_coeffs(rng, d))
            refs = [random_reflection(rng, d) for _ in range(1 + trial % d)]
            target = random_reflection(rng, d)
            calls.clear()
            result = posthoc_feasible_binary(state, refs, target)
            gens = _binary_generators(state, refs, target)
            if result.verdict == "infeasible" and len(symmetric_directions(gens)) >= 2:
                pd = _identity_complement_is_pd(gens)
                assert bool(calls) != pd
                assert_farkas_certificate(result.certificate, gens)
                seen[pd] += 1
        assert seen[True] and seen[False]

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
                several_directions += len(symmetric_directions(gens)) >= 2
        assert infeasible >= 20
        assert several_directions >= 5

    @pytest.mark.parametrize("per_power, infeasible_min", [(1, 48), (3, 25)])
    def test_order_l_certificates_are_d_by_d_hermitian(self, per_power, infeasible_min):
        # references D^-1 conj(U)^l H D^-1 put the indefinite Hermitian H
        # among the power-l generators conj(U)^-l S_k: one per power gives
        # one Hermitian direction, never positive definite either way; three
        # give at least three, and a mix of verdicts (29 of 48 infeasible)
        rng = np.random.default_rng(9)
        checked = 0
        for trial in range(24):
            d, outputs = (3, 3) if trial % 2 else (4, 3)
            state = SchmidtState(random_schmidt_coeffs(rng, d))
            u = generalized_observables(_random_unitary_measurement(rng, d, outputs))[1]
            dinv = np.diag(1.0 / state.coeffs)
            powers = [
                dinv @ np.linalg.matrix_power(u.conj(), l) @ _random_indefinite(rng, d) @ dinv
                for l in range(1, outputs)
                for _ in range(per_power)
            ]
            dm = state.matrix
            span = [dm @ dm] + [dm @ p @ dm for p in powers]
            for r in posthoc_feasible_general(state, powers, u, outputs):
                wh = np.linalg.matrix_power(u.conj(), r.power).conj().T
                gens = [g for s in span for g in (wh @ s, 1j * wh @ s)]
                assert len(symmetric_directions(gens)) >= per_power
                if r.verdict == "infeasible":
                    assert_farkas_certificate(r.certificate, gens)
                    checked += 1
        assert checked >= infeasible_min


def _boundary_family(index: int) -> np.ndarray:
    """Family ``index`` of a seeded draw of badly scaled symmetric generators.

    n in [3, 7) and m in [2, 5); generator k is 10^U(-3, 3) C (G + G^T) C^T
    with G standard normal and C = Q diag(10^U(-3, 0)), Q a random
    orthogonal matrix.
    """
    rng = np.random.default_rng(307)
    for _ in range(index + 1):
        n, m = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        gens = []
        for _ in range(m):
            g = rng.standard_normal((n, n))
            c = np.linalg.qr(rng.standard_normal((n, n)))[0] @ np.diag(10 ** rng.uniform(-3, 0, n))
            gens.append(10 ** rng.uniform(-3, 3) * (c @ (g + g.T) @ c.T))
    return np.array(gens)


class TestMarginSearch:
    # generator 0 shifted along I to just below the family's feasibility
    # boundary (by 1e-4, 1e-5, 1e-5 and 1e-4)
    @pytest.mark.parametrize(
        "index, alpha",
        [
            (2, 0.6700206088308036),
            (5, 0.7783882405551971),
            (13, 225.27631985659983),
            (21, 0.027261488557932072),
        ],
    )
    def test_shifted_family_is_decided_with_a_certificate(self, index, alpha):
        gens = _boundary_family(index)
        gens[0] += alpha * np.eye(gens.shape[1])
        value, _, certificate = solver.solve_pd_in_span(gens, settings=DEFAULTS)
        assert value <= DEFAULTS.feas_tol
        if value < -DEFAULTS.feas_tol:
            assert_farkas_certificate(certificate, gens)

    # the same shift, 1e-5 and 1e-6 below the boundary, on families where no
    # dual of the search projects to a certificate
    @pytest.mark.parametrize(
        "index, alpha", [(74, 0.0007312557676991353), (120, 0.010132754185135647)]
    )
    def test_complement_supplies_the_certificate(self, index, alpha, monkeypatch):
        searched = []
        complement = solver._complement_certificate
        monkeypatch.setattr(
            solver,
            "_complement_certificate",
            lambda *args, **kw: searched.append(1) or complement(*args, **kw),
        )
        gens = _boundary_family(index)
        gens[0] += alpha * np.eye(gens.shape[1])
        value, _, certificate = solver.solve_pd_in_span(gens, settings=DEFAULTS)
        assert searched == [1]
        assert value < -DEFAULTS.feas_tol
        assert_farkas_certificate(certificate, gens)

    def test_complement_of_a_hermitian_family(self):
        # the span: every element of W = (real symmetric) + i span{J12, J13}
        # orthogonal to P_W(Z0), Z0 = v v^dag + I/20 > 0 with v = (1, i, 1)/sqrt(3).
        # Z0 is orthogonal to the span, so no element is positive definite;
        # P_W(Z0) is indefinite, so every certificate needs the i J23
        # direction, which only the complement's i(E_ab - E_ba) units supply
        units = np.eye(9).reshape(-1, 3, 3)
        w = [units[k] for k in (0, 4, 8)] + [units[k] + units[k].T for k in (1, 2, 5)]
        w = np.array(w + [1j * (units[k] - units[k].T) for k in (1, 2)])
        w /= np.linalg.norm(w, axis=(1, 2))[:, None, None]
        v = np.array([1.0, 1.0j, 1.0]) / np.sqrt(3.0)
        z0 = np.outer(v, v.conj()) + 0.05 * np.eye(3)
        pz = np.tensordot(np.einsum("kij,ij->k", w.conj(), z0).real, w, axes=1)
        assert np.linalg.eigvalsh(pz)[0] < -0.05
        overlap = np.einsum("kij,ij->k", w.conj(), pz).real / np.vdot(pz, pz).real
        mats = w - overlap[:, None, None] * pz
        basis = hermitian_basis(mats)[2]
        assert len(basis) == 7  # W less the direction of P_W(Z0)
        assert_farkas_certificate(solver._complement_certificate(basis, DEFAULTS), mats)

    def test_centre_at_zero_reports_a_finite_margin(self, monkeypatch):
        # every span element is diagonal and exactly traceless, so each
        # centre of the search would sit at the zero combination; the first
        # iterate's dual I/n settles the span before any centre
        calls = _barrier_calls(monkeypatch)
        o = np.diag([1.0, 1.0, -1.0, -1.0])
        refs = [np.diag([1.0, -1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0, 1.0])]
        me4 = SchmidtState.maximally_entangled(4)
        result = posthoc_feasible_binary(me4, refs, o)
        assert result.verdict == "infeasible" and calls == []
        assert np.isfinite(result.lambda_min_achieved)
        assert_farkas_certificate(result.certificate, _binary_generators(me4, refs, o))
        assert np.max(np.abs(result.certificate - np.eye(4) / 4)) <= 1e-15


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

    def test_every_power_shares_one_span(self, rng, monkeypatch):
        # an order-4 question against an unrelated measurement: each power
        # fails the exact witness and goes to the solver, over the one span
        calls = []
        span = posthoc.question_span

        def counting(state, ops):
            calls.append(len(ops))
            return span(state, ops)

        monkeypatch.setattr(posthoc, "question_span", counting)
        d, outputs = 5, 4
        target, other = (
            generalized_observables(
                ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, outputs)))
            )
            for _ in range(2)
        )
        me = SchmidtState.maximally_entangled(d)
        results = posthoc_feasible_general(me, other[1:], target[1], outputs)
        assert [r.power for r in results] == [1, 2, 3]
        assert calls == [outputs]


class TestPosthocCheck:
    REFS = [ProjectiveMeasurement.from_observable(X)]

    def test_feasible_binary_question_carries_the_min_trace_certificate(self):
        st = SchmidtState(np.array([np.cos(0.5), np.sin(0.5)]))
        [result] = posthoc_check(st, self.REFS, X)
        check = posthoc_feasible_binary(st, [X], X)
        assert result.feasible and result.power == 1
        assert result.lambda_min_achieved == check.lambda_min_achieved
        tr, q = min_trace_Q(st, [X], X)
        assert result.trace_q == tr
        assert result.lambda_min_q == float(np.linalg.eigvalsh(q)[0])
        assert list(result.to_json_dict()) == [
            "verdict",
            "power",
            "lambda_min_achieved",
            "certificate_tol",
            "trace_q",
            "lambda_min_q",
        ]

    def test_measurement_target_of_two_outcomes_matches_its_observable(self):
        st = SchmidtState(np.array([np.cos(0.5), np.sin(0.5)]))
        [matrix] = posthoc_check(st, self.REFS, X)
        [measurement] = posthoc_check(st, self.REFS, ProjectiveMeasurement.from_observable(X))
        assert measurement.to_json_dict() == matrix.to_json_dict()

    def test_infeasible_question_carries_no_trace_fields(self):
        [result] = posthoc_check(ME2, self.REFS, HADAMARD_DIR)
        assert result.verdict == "infeasible"
        assert result.trace_q is None and result.lambda_min_q is None
        assert set(result.to_json_dict()) == {
            "verdict",
            "power",
            "lambda_min_achieved",
            "certificate_tol",
        }

    def test_order_l_question_with_an_infeasible_power_carries_no_trace_fields(self):
        # against the coarse-graining {E0 + E2, E1 + E3}, only power 2 of the
        # diagonal four-outcome target (A^2 = diag(1, -1, 1, -1)) is feasible
        target = ProjectiveMeasurement(tuple(np.diag(row) for row in np.eye(4)))
        ref = ProjectiveMeasurement((np.diag([1.0, 0, 1, 0]), np.diag([0.0, 1, 0, 1])))
        results = posthoc_check(SchmidtState.maximally_entangled(4), [ref], target)
        assert [r.verdict for r in results] == ["infeasible", "feasible", "infeasible"]
        assert all(r.trace_q is None and r.lambda_min_q is None for r in results)

    def test_order_l_question_feasible_at_every_power_is_quantified(self, rng):
        m = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))
        results = posthoc_check(ME3, [m], m)
        obs = generalized_observables(m)
        assert [r.power for r in results] == [1, 2]
        for r in results:
            tr, q = min_trace_Q(ME3, obs[1:], obs[1], outputs=3, power=r.power)
            assert (r.trace_q, r.lambda_min_q) == (tr, float(np.linalg.eigvalsh(q)[0]))

    def test_one_outcome_target_raises(self):
        with pytest.raises(BadParams, match="at least two outputs, got 1"):
            posthoc_check(ME2, self.REFS, ProjectiveMeasurement((np.eye(2),)))

    def test_order_l_target_dimension_is_checked_against_the_state(self, rng):
        refs = [ProjectiveMeasurement(tuple(random_projective_measurement(rng, 3, 3)))]
        target = ProjectiveMeasurement(tuple(random_projective_measurement(rng, 4, 3)))
        with pytest.raises(DimMismatch, match="shape \\(4, 4\\) does not match the state's dimension 3"):
            posthoc_check(ME3, refs, target)


def _cayley(k: np.ndarray) -> np.ndarray:
    """(I - K)^-1 (I + K): orthogonal for antisymmetric K, unitary for anti-Hermitian K."""
    eye = np.eye(len(k))
    return np.linalg.solve(eye - k, eye + k)


def _power_gens(state, refs, u, power):
    """The order-L check's generators W^dag S_k and i W^dag S_k, W = conj(u)^power."""
    w_dag = np.linalg.matrix_power(u.conj(), power).conj().T
    span = _binary_generators(state, refs, np.eye(state.dim))
    return [g for s in span for g in (w_dag @ s, 1j * w_dag @ s)]


def _off_span(refs, x: np.ndarray) -> bool:
    """Whether x lies off span{I, *refs} by more than membership_tol * max(1, |x|_F)."""
    cols = np.array([np.eye(len(x)), *refs]).reshape(len(refs) + 1, -1).T
    x = x.ravel()
    residual = np.linalg.norm(cols @ np.linalg.lstsq(cols, x, rcond=None)[0] - x)
    return residual > DEFAULTS.membership_tol * max(1.0, np.linalg.norm(x))


def _own_order_three(rng) -> list[np.ndarray]:
    """A^(0), A^(1), A^(2) of a random real three-outcome measurement at d = 4."""
    return generalized_observables(
        ProjectiveMeasurement(tuple(random_projective_measurement(rng, 4, 3)))
    )


class TestExactWitness:
    """P = D^2 decides a check when D^-1 W D lies in span{I, A_x}, before any search."""

    SKEWED = SchmidtState(np.array([1.0, 1.0, 1e-2, 1e-2]) / np.linalg.norm([1.0, 1.0, 1e-2, 1e-2]))
    BLOCK = np.block([[X, np.zeros((2, 2))], [np.zeros((2, 2)), Z]])  # commutes with SKEWED's D

    @staticmethod
    def _refuse_search(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a span basis was built")

        monkeypatch.setattr(solver, "hermitian_basis", refuse)
        # positive controls: posthoc's own call (sign_reachable) and the
        # solver's (the Hadamard direction's search) are both refused
        for search in (
            lambda: sign_reachable(np.array([np.eye(2), Z]), Z),
            lambda: posthoc_feasible_binary(ME2, [X], HADAMARD_DIR),
        ):
            with pytest.raises(AssertionError, match="a span basis was built"):
                search()

    @staticmethod
    def _direct(gens):
        """The solver's answer alone, as (verdict, value, coefficients)."""
        value, t, _ = solver.solve_pd_in_span(gens, settings=DEFAULTS)
        tol = DEFAULTS.feas_tol
        return "feasible" if value > tol else "infeasible" if value < -tol else "marginal", value, t

    @pytest.mark.parametrize("d", range(3, 9))
    def test_pipeline_pair_targets_take_the_exact_witness(self, d):
        bob, _ = maximal_independent_subset(d)
        me = SchmidtState.maximally_entangled(d)
        for key in ((0, 1), (2, d)):
            target = pair_observables(d)[key]
            result = posthoc_feasible_binary(me, bob, target)
            assert np.max(np.abs(target @ result.witness - me.matrix @ me.matrix)) <= 1e-12
            verdict, value, _ = self._direct(_binary_generators(me, bob, target))
            assert result.verdict == verdict == "feasible"
            assert result.lambda_min_achieved == pytest.approx(value, rel=1e-10)

    def test_skewed_target_among_the_references_is_decided_exactly(self, rng, monkeypatch):
        st = self.SKEWED
        assert st.kappa == pytest.approx(1e2)
        refs = [random_reflection(rng, 4) for _ in range(2)] + [self.BLOCK]
        self._refuse_search(monkeypatch)
        result = posthoc_feasible_binary(st, refs, self.BLOCK)
        assert result.feasible
        assert np.max(np.abs(self.BLOCK @ result.witness - st.matrix @ st.matrix)) <= 1e-12
        tr, q = min_trace_Q(st, refs, self.BLOCK)
        assert tr == 4.0 and np.array_equal(q, np.eye(4))

    def test_target_just_off_the_span_falls_through_to_the_solver(self):
        # Bob's spanning family certifies every involution. The block target
        # is decided exactly; rotated by 1e-6 across the two Schmidt blocks,
        # D^-1 O D leaves span{I, A_x} = Sym(4) by ~1e-6 kappa, and the solver
        # decides it as it would alone
        st = self.SKEWED
        bob, _ = maximal_independent_subset(4)
        exact = posthoc_feasible_binary(st, bob, self.BLOCK)
        assert np.max(np.abs(self.BLOCK @ exact.witness - st.matrix @ st.matrix)) <= 1e-12
        k = np.zeros((4, 4))
        k[1, 2], k[2, 1] = 1e-6, -1e-6
        r = _cayley(k)
        target = r @ self.BLOCK @ r.T
        assert _off_span(bob, target * (st.coeffs / st.coeffs[:, None]))
        result = posthoc_feasible_binary(st, bob, target)
        verdict, value, t = self._direct(_binary_generators(st, bob, target))
        assert result.verdict == verdict == exact.verdict == "feasible"
        assert result.lambda_min_achieved == value
        assert np.array_equal(result.coefficients, t)

    def test_own_order_three_question_is_decided_exactly(self, rng, monkeypatch):
        me = SchmidtState.maximally_entangled(4)
        obs = _own_order_three(rng)
        direct = [self._direct(_power_gens(me, obs[1:], obs[1], power)) for power in (1, 2)]
        self._refuse_search(monkeypatch)
        results = posthoc_feasible_general(me, obs[1:], obs[1], 3)
        for r, (verdict, value, _) in zip(results, direct, strict=True):
            assert np.max(np.abs(r.witness - me.matrix @ me.matrix)) <= 1e-12
            assert r.verdict == verdict == "feasible"
            assert r.lambda_min_achieved == pytest.approx(value, rel=1e-10)
        for power in (1, 2):
            tr, q = min_trace_Q(me, obs[1:], obs[1], outputs=3, power=power)
            assert tr == 4.0 and np.array_equal(q, np.eye(4))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_pipeline_reports_build_no_span_basis(self, d, monkeypatch):
        self._refuse_search(monkeypatch)
        pairs = pair_observables(d)
        strategies = [binary_certification_strategy(pairs[key]) for key in ((0, 1), (2, d))]
        if d == 4:
            meas = random_projective_measurement(np.random.default_rng(0), 4, 3)
            strategies.append(measurement_certification_strategy(ProjectiveMeasurement(tuple(meas))))
        for strategy in strategies:
            report = certificate_report(strategy)
            assert report.all_feasible()
            for _, ext in report.extensions:
                assert ext.trace_q == d and ext.lambda_min_q == 1.0

    def test_own_order_three_target_just_off_the_span_falls_through(self, rng):
        me = SchmidtState.maximally_entangled(4)
        obs = _own_order_three(rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = _cayley(1e-6 * (g - g.conj().T))
        target = r @ obs[1] @ r.conj().T
        # the own family alone certifies no such target: the solver finds no
        # Hermitian combination at either power
        for l, result in enumerate(posthoc_feasible_general(me, obs[1:], target, 3), 1):
            # D^-1 W D = W at kappa = 1
            assert _off_span(obs[1:], np.linalg.matrix_power(target.conj(), l))
            verdict, value, _ = self._direct(_power_gens(me, obs[1:], target, l))
            assert result.verdict == verdict
            assert result.lambda_min_achieved == value


class TestHermitianBasis:
    def test_more_generators_than_matrix_entries(self, rng):
        # d = 2 with five references: six generators against four entries, so
        # the asymmetry matrix is wide and its null space needs all of V.
        # D^2, D X D and D Z D span every symmetric 2x2 matrix, so target @ H
        # is symmetric exactly for H in the target's commutant span{I, target}
        st = SchmidtState(np.array([np.cos(0.4), np.sin(0.4)]))
        refs = [X, Z] + [random_reflection(rng, 2, 1) for _ in range(3)]
        target = random_reflection(rng, 2, 1)
        dm = st.matrix
        gens = target @ np.array([dm @ dm] + [dm @ a @ dm for a in refs])
        coef, sigma, basis = hermitian_basis(gens)
        assert coef.shape == (6, 2) and sigma.shape == (2,) and basis.shape == (2, 2, 2)
        assert np.allclose(coef.T @ coef, np.eye(2), atol=1e-12)
        flat = basis.reshape(2, -1)
        assert np.allclose(flat @ flat.T, np.eye(2), atol=1e-12)
        assert np.array_equal(basis, basis.transpose(0, 2, 1))
        combos = np.einsum("kj,kab->jab", coef, gens)
        assert np.allclose(combos, sigma[:, None, None] * basis, atol=1e-12)
        result = posthoc_feasible_binary(st, refs, target)
        assert result.feasible
        assert np.linalg.eigvalsh(target @ result.witness)[0] > 0.0

    def test_repeated_generators_add_no_direction(self):
        # the Hadamard direction against {X}: one symmetric direction, and its
        # listing twice or with +/- I (which repeats D^2) adds no other
        gens = np.array(_binary_generators(ME2, [X], HADAMARD_DIR))
        _, sigma, basis = hermitian_basis(gens)
        assert len(sigma) == 1
        for extra in ([X], [X, X], [np.eye(2)], [-np.eye(2), X]):
            more = np.array(_binary_generators(ME2, [X, *extra], HADAMARD_DIR))
            coef, sigma2, basis2 = hermitian_basis(more)
            assert len(sigma2) == 1 and coef.shape == (len(more), 1)
            assert np.allclose(np.outer(basis2, basis2), np.outer(basis, basis), atol=1e-12)
            result = posthoc_feasible_binary(ME2, [X, *extra], HADAMARD_DIR)
            assert result.verdict == "infeasible"


class TestSignReachable:
    def test_diagonal_span_reaches_z_but_not_the_hadamard_direction(self):
        questions = np.array([np.eye(2), Z])
        assert sign_reachable(questions, Z)
        assert sign_reachable(questions, -Z)
        assert not sign_reachable(questions, HADAMARD_DIR)

    def test_the_degenerate_pair_is_settled_at_the_first_iterate(self, monkeypatch):
        # the plan's first question: the degenerate pair's target against
        # {I, T_0..T_3}. I's projection off the span is positive definite, so
        # the first iterate's dual I/n is already a Farkas certificate and
        # no Newton step runs
        _, refs, target, _ = degenerate_pair_3d()
        questions = np.array([np.eye(3), *refs])
        calls = _barrier_calls(monkeypatch)
        assert not sign_reachable(questions, target)
        assert calls == []
        _, sigma, basis = hermitian_basis(target @ questions)
        assert len(sigma) >= 2
        _, _, z = solver.best_margin(sigma, basis, DEFAULTS)
        assert calls == []
        # re-checked independently, against the products themselves
        gens = list(target @ questions)
        assert np.linalg.eigvalsh(z)[0] > 0.1
        assert_farkas_certificate(z, gens)
        assert _identity_complement_is_pd(gens)


class TestMinTraceCertificate:
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_barrier_derivatives_match_the_reference_loop(self, rng, hermitian):
        # real coefficients over complex Hermitian directions give a real
        # gradient and Hessian too
        n, m = 6, 9
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if hermitian else 0)
        k = np.linalg.inv(a @ a.conj().T + np.eye(n))
        mats = [random_symmetric(rng, n) for _ in range(m)]
        if hermitian:
            mats = [b + 1j * (c - c.T) for b, c in zip(mats, rng.standard_normal((m, n, n)))]
        ref = barrier_hessian_loop(k, mats)
        tol = 1e-12 * float(np.max(np.abs(ref)))
        grad, hess = barrier_derivatives(k, np.array(mats))
        assert grad.dtype == hess.dtype == np.float64
        assert np.max(np.abs(hess - ref)) <= tol
        assert np.allclose(grad, [-np.trace(k @ b) for b in mats], rtol=0, atol=1e-12)

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

    @staticmethod
    def _count_barrier_derivatives(monkeypatch) -> list:
        calls = _barrier_calls(monkeypatch)
        # positive control: the README's d = 3 instance runs the barrier
        min_trace_Q(ME3, simplex_observables(3), pair_observables(3)[(0, 1)])
        assert calls
        calls.clear()
        return calls

    @pytest.mark.parametrize("d", [4, 8, 10])
    def test_pipeline_pair_targets_reach_the_dimension(self, d, monkeypatch):
        # the certify pipeline's instance: maximally entangled state, Bob's
        # spanning family, a simplex pair target; I lies in the Q-frame span,
        # so Q = I is the exact optimum and no barrier runs
        calls = self._count_barrier_derivatives(monkeypatch)
        bob, _ = maximal_independent_subset(d)
        me = SchmidtState.maximally_entangled(d)
        for key in ((0, 1), (2, d)):
            tr, q = min_trace_Q(me, bob, pair_observables(d)[key])
            assert tr == d
            assert np.array_equal(q, np.eye(d))
        assert calls == []

    def test_quick_start_target_runs_the_tangent_stepped_barrier(self, monkeypatch):
        # the README's d = 3 instance against the simplex family alone: I is
        # not in the Q-frame span (Tr Q = 5 > 3), so the exact exit does not
        # fire. The tangent step of each centring keeps the derivative
        # evaluations at 34; without it they are 61
        calls = self._count_barrier_derivatives(monkeypatch)
        tr, q = min_trace_Q(ME3, simplex_observables(3), pair_observables(3)[(0, 1)])
        assert tr == pytest.approx(5.0, rel=1e-9)
        assert tr == pytest.approx(float(np.trace(q)), rel=1e-12)
        assert np.linalg.eigvalsh(q)[0] == pytest.approx(1.0, abs=1e-8)
        assert 0 < len(calls) <= 40

    def test_skewed_spectrum_takes_the_exact_exit(self, monkeypatch):
        # kappa = 1e3 and a target commuting with D, against Bob's spanning
        # family: O D^2 is symmetric, so Q = I satisfies the constraint
        calls = self._count_barrier_derivatives(monkeypatch)
        coeffs = np.array([1.0, 1.0, 1e-3, 1e-3])
        st = SchmidtState(coeffs / np.linalg.norm(coeffs))
        assert st.kappa == pytest.approx(1e3)
        target = np.block([[X, np.zeros((2, 2))], [np.zeros((2, 2)), Z]])
        bob, _ = maximal_independent_subset(4)
        tr, q = min_trace_Q(st, bob, target)
        assert tr == 4.0 and np.array_equal(q, np.eye(4)) and calls == []
        # Q = I re-checked apart from the solver: O D^2 by least squares
        dm = st.matrix
        span = np.array([dm @ dm] + [dm @ b @ dm for b in bob]).reshape(len(bob) + 1, -1).T
        lhs = (target @ dm @ dm).ravel()
        coef = np.linalg.lstsq(span, lhs, rcond=None)[0]
        assert np.linalg.norm(span @ coef - lhs) <= 1e-8 * np.linalg.norm(lhs)

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

    def test_pipeline_three_outcome_report_takes_the_exact_exit(self):
        meas = ProjectiveMeasurement(
            tuple(random_projective_measurement(np.random.default_rng(0), 4, 3))
        )
        report = certificate_report(measurement_certification_strategy(meas))
        assert [label for label, _ in report.extensions] == ["O0", "O1", "O2"]
        for _, ext in report.extensions:
            assert ext.trace_q == 4.0 and ext.lambda_min_q == 1.0

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
            span_basis([dm @ dm, dm @ X @ dm], settings=DEFAULTS.replace(membership_tol=1e-7)),
            target @ dm @ q @ dm,
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
            span_basis(
                [dm @ dm] + [dm @ a @ dm for a in refs],
                settings=DEFAULTS.replace(membership_tol=1e-7),
            ),
            target @ dm @ q @ dm,
        )
        assert member

    def test_complex_typed_path_agrees_with_the_real_path(self, rng):
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
            assert q.shape == (d, d)
            assert abs(tr_complex - tr_real) <= 1e-9 * tr_real

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0, 1e3, 1e4])
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

    @staticmethod
    def _kappa_10_state(d: int) -> SchmidtState:
        coeffs = 10.0 ** (-np.arange(d) / (d - 1))
        return SchmidtState(coeffs / np.linalg.norm(coeffs))

    def test_binary_certificate_reads_only_the_witness(self, monkeypatch):
        # kappa = 10, two reflections and the sgn of a span element: the
        # barrier runs, and it starts from the check's witness matrix, so a
        # result without coefficients gives the same certificate
        rng = np.random.default_rng(4)
        st = self._kappa_10_state(3)
        refs = [random_reflection(rng, 3) for _ in range(2)]
        dm = st.matrix
        combo = dm @ dm + sum(c * dm @ a @ dm for c, a in zip(rng.standard_normal(2), refs))
        target = sgn_map(combo).matrix
        calls = self._count_barrier_derivatives(monkeypatch)
        tr, q = min_trace_Q(st, refs, target)
        assert tr > 3.0 + 1e-3 and calls
        check = posthoc.posthoc_feasible_binary
        monkeypatch.setattr(
            posthoc,
            "posthoc_feasible_binary",
            lambda *a, **k: replace(check(*a, **k), coefficients=None),
        )
        again = min_trace_Q(st, refs, target)
        assert again[0] == tr and np.array_equal(again[1], q)

    def test_order_l_certificate_reads_only_the_witness(self, monkeypatch):
        rng = np.random.default_rng(4)
        st = self._kappa_10_state(3)
        u = generalized_observables(_random_unitary_measurement(rng, 3, 3))[1]
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p0 = g @ g.conj().T + 0.1 * np.eye(3)
        dinv = np.diag(1.0 / st.coeffs)
        powers = [dinv @ np.linalg.matrix_power(u.conj(), l) @ p0 @ dinv for l in (1, 2)]
        calls = self._count_barrier_derivatives(monkeypatch)
        certificates = [min_trace_Q(st, powers, u, outputs=3, power=l) for l in (1, 2)]
        assert all(tr > 3.0 + 1e-3 for tr, _ in certificates) and calls
        decide = posthoc._decide
        monkeypatch.setattr(
            posthoc,
            "_decide",
            lambda *a: [replace(r, coefficients=None) for r in decide(*a)],
        )
        for power, (tr, q) in zip((1, 2), certificates):
            again = min_trace_Q(st, powers, u, outputs=3, power=power)
            assert again[0] == tr and np.array_equal(again[1], q)


    def test_order_l_solves_one_power_per_call(self, rng, monkeypatch, tmp_path, capsys):
        # each call decides one check, by its exact witness or by the solver
        calls = []
        decide = posthoc._decide

        def counting(state, ops, frames, settings):
            calls.extend(power for power, _ in frames)
            return decide(state, ops, frames, settings)

        monkeypatch.setattr(posthoc, "_decide", counting)
        d, outputs = 5, 4
        refs = [
            ProjectiveMeasurement(tuple(random_projective_measurement(rng, d, outputs)))
            for _ in range(2)
        ]
        powers = [a for m in refs for a in generalized_observables(m)[1:]]
        state = SchmidtState.maximally_entangled(d)
        for power in range(1, outputs):
            calls.clear()
            min_trace_Q(state, powers, powers[0], outputs=outputs, power=power)
            assert len(calls) == 1
        # posthoc-check: one solve per power for the verdicts, one per power
        # for the certificates, (L - 1) + (L - 1) = 6 and not (L - 1) + (L - 1)^2
        files = {
            "state": {"schmidt_coeffs": [float(c) for c in state.coeffs]},
            "alice": [measurement_to_json_dict(m) for m in refs],
            "target": measurement_to_json_dict(refs[0]),
        }
        argv = ["posthoc-check"]
        for name, payload in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            argv += [f"--{name}", str(path)]
        calls.clear()
        assert main(argv) == 0
        assert "criterion: feasible" in capsys.readouterr().out
        assert len(calls) == 2 * (outputs - 1)


def _random_indefinite(rng, d: int) -> np.ndarray:
    """Random Hermitian d x d matrix with eigenvalues of both signs."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    vals = rng.uniform(0.2, 1.0, d) * np.where(np.arange(d) % 2, -1.0, 1.0)
    return (q * vals) @ q.conj().T


def _random_unitary_measurement(rng, d: int, outputs: int) -> ProjectiveMeasurement:
    """Projective measurement onto the blocks of a random complex unitary basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cuts = np.array_split(np.arange(d), outputs)
    return ProjectiveMeasurement(tuple(q[:, c] @ q[:, c].conj().T for c in cuts))


class TestCentralPath:
    @pytest.mark.parametrize("n, m", [(3, 4), (4, 7), (6, 12)])
    def test_every_yield_is_a_centre_on_the_mu_schedule(self, rng, n, m):
        # min Tr Q - mu log det(Q - I) over Q = sum_i x_i B_i, with B_0 = I and
        # random symmetric B_i, from Q = 2 I: the path is not linear in mu
        mats = np.array([np.eye(n)] + [random_symmetric(rng, n) for _ in range(m - 1)])
        cost = np.einsum("kaa->k", mats)
        x0 = np.eye(m)[0] * 2.0
        seen = []
        for x, mu in central_path(x0, cost, -np.eye(n), mats, 1.0):
            seen.append((x.copy(), mu))
            if len(seen) == 10:
                break
        for x, mu in seen:
            slack = np.tensordot(x, mats, axes=1) - np.eye(n)
            assert np.linalg.eigvalsh(slack)[0] > 0.0
            k = np.linalg.inv(slack)
            grad = cost - mu * np.array([np.trace(k @ b) for b in mats])
            hess = mu * barrier_hessian_loop(k, mats)
            assert float(grad @ np.linalg.solve(hess, grad)) <= _DECREMENT_TOL
        mus = [mu for _, mu in seen]
        assert mus[0] == 1.0
        assert all(b == a * _MU_SHRINK for a, b in zip(mus, mus[1:]))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_are_rejected(self, value):
        # a NaN epsilon used to pass the `< 0` test and print nan
        good = RobustnessParams(4, 1.0, 3.0, 1.0, 0.5, 1.2, 1e-3, 1e-4).to_json_dict()
        for key in good:
            with pytest.raises(BadParams, match=f"{key} must be finite"):
                robustness_bound(RobustnessParams(**{**good, key: value}))

    def test_fractional_reference_count_is_rejected(self):
        params = RobustnessParams(4.5, 1.0, 3.0, 1.0, 0.5, 1.2, 1e-3, 1e-4)
        with pytest.raises(BadParams, match="whole number"):
            robustness_bound(params)

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
        # the rule robustness_bound keeps: every input finite, n whole
        with pytest.raises(BadParams, match="n must be a whole number"):
            vector_recovery_bound(2.5, 1.0, 0.01, 0.0, 1.0)
        for value in (np.nan, np.inf, -np.inf):
            for i in range(5):
                args = [1, 1.0, 0.1, 0.1, 1.0]
                args[i] = value
                with pytest.raises(BadParams, match="must be finite"):
                    vector_recovery_bound(*args)


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
