"""Acceptance gate: one test per numbered criterion.

Each test is self-contained, draws its randomness from a fixed local seed,
and checks exactly the stated property at the stated tolerance. The terminal
summary hook in conftest.py prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from bellcert.certify import measurement_certification_strategy
from bellcert.jordan import (
    has_trivial_centralizer,
    jordan_closure,
    span_basis,
    contains,
)
from bellcert.linalg import sgn_map
from bellcert.posthoc import (
    RobustnessParams,
    analytic_family_2d,
    analytic_family_region,
    min_trace_Q,
    posthoc_feasible_binary,
    robustness_bound,
    vector_recovery_bound,
)
from bellcert.simplex import (
    degenerate_pair_3d,
    maximal_independent_subset,
    pair_observables,
    simplex_observables,
    simplex_vectors,
)
from bellcert.strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    brute_force_correlation,
    correlation_table,
    verify_cheating_povm,
    verify_degenerate_pair,
)

from helpers import (
    HADAMARD_DIR,
    X,
    Z,
    random_orthogonal,
    random_projective_measurement,
    random_reflection,
    random_schmidt_coeffs,
)


def _numerical_rank(mats, tol=1e-8):
    stack = np.stack([np.asarray(m).ravel() for m in mats])
    sv = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def test_criterion_01_simplex_geometry():
    start = time.perf_counter()
    for d in range(2, 13):
        v = simplex_vectors(d)
        gram = v @ v.T
        off = gram[~np.eye(d + 1, dtype=bool)]
        assert np.max(np.abs(off + 1.0 / d)) < 1e-10
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-10
        assert np.max(np.abs(v.sum(axis=0))) < 1e-10
    assert time.perf_counter() - start < 1.0


def test_criterion_02_pairwise_sign_family_rank():
    start = time.perf_counter()
    for d in range(3, 11):
        pairs = pair_observables(d)
        assert len(pairs) == (d + 1) * d // 2
        assert _numerical_rank(list(pairs.values())) == d * (d + 1) // 2
    assert _numerical_rank(list(pair_observables(2).values())) < 3
    assert time.perf_counter() - start < 5.0


def test_criterion_03_maximal_independent_subset():
    for d in range(3, 11):
        mats, labels = maximal_independent_subset(d)
        expected = d * (d + 1) // 2
        assert len(mats) == expected == len(labels)
        assert _numerical_rank(mats) == expected

        # linear identity tying the excluded pair observables to the family:
        # summing T_jk over 1 <= j < k <= d cancels against d*v0 v0^T plus a
        # multiple of the identity
        pairs = pair_observables(d)
        v0 = simplex_vectors(d)[0]
        total = sum(
            pairs[(j, k)] for j in range(1, d + 1) for k in range(j + 1, d + 1)
        )
        residual = total + d * np.outer(v0, v0) + (d * (d - 3) / 2.0) * np.eye(d)
        assert np.max(np.abs(residual)) < 1e-9


def test_criterion_04_jordan_closure_and_centralizer():
    start = time.perf_counter()
    for d in range(3, 11):
        basis, iterations = jordan_closure(simplex_observables(d))
        assert basis.dimension == d * (d + 1) // 2
        assert iterations <= int(np.ceil(2 * np.log2(d)))

    basis, _ = jordan_closure([Z])
    assert basis.dimension == 2

    # dichotomy on random reflection families: the closure reaches the full
    # space of symmetric matrices exactly when only scalars commute with
    # every generator
    rng = np.random.default_rng(401)
    for trial in range(200):
        d = int(rng.integers(2, 7))
        kind = trial % 3
        if kind == 0:
            family = [random_reflection(rng, d) for _ in range(int(rng.integers(2, 4)))]
        elif kind == 1:
            family = [random_reflection(rng, d)]
        else:
            # a shared invariant subspace keeps the closure reducible
            q = random_orthogonal(rng, d)
            split = int(rng.integers(1, d))
            family = []
            for _ in range(int(rng.integers(2, 4))):
                blocks = np.zeros((d, d))
                blocks[:split, :split] = random_reflection(rng, split) if split > 1 else np.eye(1)
                blocks[split:, split:] = (
                    random_reflection(rng, d - split) if d - split > 1 else -np.eye(1)
                )
                family.append(q @ blocks @ q.T)
        basis, _ = jordan_closure(family)
        full = basis.dimension == d * (d + 1) // 2
        assert has_trivial_centralizer(family) == full
    assert time.perf_counter() - start < 60.0


def test_criterion_05_pair_targets_feasible_with_witnesses():
    for d in range(3, 9):
        state = SchmidtState(np.full(d, 1.0 / np.sqrt(d)))
        refs = simplex_observables(d)
        dd = state.matrix @ state.matrix
        span_mats = [dd] + [state.matrix @ a @ state.matrix for a in refs]
        basis = span_basis(span_mats)
        for (j, k), target in sorted(pair_observables(d).items()):
            result = posthoc_feasible_binary(state, refs, target)
            assert result.verdict == "feasible", (d, j, k)

            w = result.witness
            member, _, residual = contains(basis, w)
            assert member and residual <= 1e-7
            product = target @ w
            assert np.max(np.abs(product - product.T)) <= 1e-7
            assert np.linalg.eigvalsh(0.5 * (product + product.T))[0] > 0.0
            image = sgn_map(w)
            assert not image.singular
            assert np.max(np.abs(image.matrix - target)) <= 1e-7


def test_criterion_06_infeasible_instance_and_analytic_family():
    gamma_star = np.arctan(1.0 / np.sqrt(2.0))
    state = SchmidtState(np.array([np.cos(gamma_star), np.sin(gamma_star)]))
    result = posthoc_feasible_binary(state, [X], HADAMARD_DIR)
    assert result.verdict == "infeasible"

    for gamma in (0.15, 0.4, gamma_star, 0.7, 0.98 * np.pi / 4):
        st = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        bound = analytic_family_region(gamma)
        for frac in (-0.95, -0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9, 0.95):
            a = frac * bound
            closed = analytic_family_2d(gamma, a)
            direct = sgn_map(X + a * st.matrix @ st.matrix)
            assert np.max(np.abs(closed - direct.matrix)) < 1e-8
            res = posthoc_feasible_binary(st, [X], closed)
            assert res.verdict == "feasible", (gamma, frac)


def test_criterion_07_cheating_povm_detection():
    report = verify_cheating_povm()
    assert report.valid
    assert report.correlation_gap <= 1e-12
    assert abs(report.overlap) > 1e-3
    assert report.projection_defect > 1e-3


def test_criterion_08_degenerate_observable_pair():
    state, refs, first, second = degenerate_pair_3d()
    for obs in (first, second):
        assert np.max(np.abs(obs - obs.T)) < 1e-12
        assert np.max(np.abs(obs @ obs - np.eye(3))) < 1e-12
    report = verify_degenerate_pair(state, refs, first, second)
    assert report.degenerate
    assert report.correlation_gap <= 1e-12
    assert report.distinctness > 1e-1


def _oracle_max_min_eig(gens, rng, samples=4000):
    """Independent maximum of lambda_min over symmetric unit combinations.

    Exact for null-space dimension <= 1 (sign enumeration) and effectively
    exact for dimension 2 (dense angular grid); a random search otherwise,
    which can only under-estimate the true maximum.
    """
    stacked = np.stack([(m - m.T).ravel() for m in gens], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    cutoff = 1e-11 * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > cutoff))
    _, _, vt = np.linalg.svd(stacked, full_matrices=True)
    null = vt[rank:].T
    m = null.shape[1]
    if m == 0:
        return -np.inf, True
    sym = np.stack([0.5 * (x + x.T) for x in gens])
    dirs = np.einsum("gm,gij->mij", null, sym)
    if m == 1:
        best = max(
            float(np.linalg.eigvalsh(s * dirs[0])[0]) for s in (1.0, -1.0)
        )
        return best, True
    if m == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        combos = (
            np.cos(theta)[:, None, None] * dirs[0]
            + np.sin(theta)[:, None, None] * dirs[1]
        )
        return float(np.linalg.eigvalsh(combos)[:, 0].max()), True
    points = rng.standard_normal((samples, m))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    combos = np.einsum("sm,mij->sij", points, dirs)
    return float(np.linalg.eigvalsh(combos)[:, 0].max()), False


def _random_feasibility_instance(rng, d, n_refs):
    state = SchmidtState(random_schmidt_coeffs(rng, d))
    refs = [random_reflection(rng, d) for _ in range(n_refs)]
    dd = state.matrix @ state.matrix
    span_mats = [dd] + [state.matrix @ a @ state.matrix for a in refs]
    if rng.integers(2) == 0:
        target = random_reflection(rng, d)
    else:
        # force a feasible case: the sign of a nonsingular span element is
        # certifiable by construction
        while True:
            combo = sum(rng.standard_normal() * m for m in span_mats)
            image = sgn_map(np.asarray(combo))
            if not image.singular and abs(np.trace(image.matrix)) < d - 0.5:
                target = image.matrix
                break
    gens = [target @ m for m in span_mats]
    return state, refs, target, span_mats, gens


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(901)

    # fast correlation path against the explicit tensor-product computation
    for _ in range(100):
        d = int(rng.integers(2, 7))
        state = SchmidtState(random_schmidt_coeffs(rng, d))

        def draw_side():
            measurements = []
            for _ in range(int(rng.integers(1, 4))):
                outputs = int(rng.integers(2, min(4, d) + 1))
                projs = random_projective_measurement(rng, d, outputs)
                measurements.append(ProjectiveMeasurement(tuple(projs)))
            return tuple(measurements)

        strategy = Strategy(state=state, alice=draw_side(), bob=draw_side())
        gap = correlation_table(strategy).max_difference(
            brute_force_correlation(strategy)
        )
        assert gap <= 1e-10

    # feasibility solver against an independent oracle; marginal instances
    # (|value| inside a 1e-3 guard band) are excluded from verdict comparison
    margin = 1e-3
    checked_feasible = 0
    checked_infeasible = 0
    for trial in range(40):
        if trial < 24:
            d, n_refs = 2, 1 + trial % 2
        else:
            d, n_refs = 3, 2 + trial % 4
        state, refs, target, span_mats, gens = _random_feasibility_instance(
            rng, d, n_refs
        )
        result = posthoc_feasible_binary(state, refs, target)
        oracle, exact = _oracle_max_min_eig(gens, rng)

        if result.verdict == "feasible":
            # certify independently of the solver: witness in span, product
            # symmetric positive definite
            w = result.witness
            columns = np.stack([m.ravel() for m in span_mats], axis=1)
            coeffs, *_ = np.linalg.lstsq(columns, w.ravel(), rcond=None)
            residual = np.linalg.norm(columns @ coeffs - w.ravel())
            assert residual <= 1e-7 * max(1.0, float(np.linalg.norm(w)))
            product = target @ w
            assert np.max(np.abs(product - product.T)) <= 1e-6
            assert np.linalg.eigvalsh(0.5 * (product + product.T))[0] > 0.0
            if exact:
                assert oracle > -margin
            checked_feasible += 1
        elif result.verdict == "infeasible":
            # the oracle must never exhibit a clearly feasible point the
            # solver missed
            assert oracle <= margin
            if exact and oracle < -margin:
                checked_infeasible += 1

    assert checked_feasible >= 10
    assert checked_infeasible >= 5


def test_criterion_10_robustness_bounds():
    params = RobustnessParams(
        n=4,
        lambda_min_gram=1.0,
        trace_q=3.0,
        lambda_min_q=1.0,
        lambda_max_schmidt=1.0 / np.sqrt(3.0),
        kappa_schmidt=1.0,
        epsilon=0.0,
        delta=0.0,
    )
    assert robustness_bound(params) == 0.0
    assert vector_recovery_bound(4, 1.0, 0.0, 0.0, 1.0) == 0.0

    eps_grid = np.linspace(0.0, 0.05, 6)
    delta_grid = np.linspace(0.0, 0.02, 6)
    rb = np.array(
        [
            [
                robustness_bound(dataclasses.replace(params, epsilon=e, delta=dl))
                for dl in delta_grid
            ]
            for e in eps_grid
        ]
    )
    vb = np.array(
        [
            [vector_recovery_bound(4, 0.8, e, dl, 1.3) for dl in delta_grid]
            for e in eps_grid
        ]
    )
    for grid in (rb, vb):
        assert np.all(np.diff(grid, axis=0) >= -1e-15)
        assert np.all(np.diff(grid, axis=1) >= -1e-15)

    # the recovery inequality on concrete vector instances: measure the
    # hypothesis constants from each instance and check the conclusion
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        dim = n + int(rng.integers(0, 4))
        while True:
            basis = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
            gram = basis.conj().T @ basis
            lam = float(np.linalg.eigvalsh(gram)[0].real)
            if lam > 1e-8:
                break

        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        reference = basis @ alpha
        reference *= rng.uniform(0.2, 2.0) / np.linalg.norm(reference)

        eta_scale = rng.choice([0.0, 1e-3, 1e-2, 0.1])
        perturbed = basis + eta_scale * (
            rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
        )

        w_scale = rng.choice([0.0, 1e-6, 1e-3, 0.1, 1.0])
        vec = reference + w_scale * (
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        )
        norm_ref = float(np.linalg.norm(reference))
        norm_vec = float(np.linalg.norm(vec))
        if norm_vec > norm_ref:
            vec = vec * (norm_ref / norm_vec)

        eps_act = float(np.max(np.linalg.norm(perturbed - basis, axis=0)))
        delta_act = float(
            np.max(
                np.abs(
                    perturbed.conj().T @ vec - basis.conj().T @ reference
                )
            )
        )
        bound = vector_recovery_bound(
            n, lam, eps_act + 1e-15, delta_act + 1e-15, norm_ref
        )
        assert float(np.linalg.norm(vec - reference)) <= bound + 1e-12


def test_criterion_11_pipeline_counts_and_min_trace():
    rng = np.random.default_rng(1101)
    for d in range(3, 9):
        for outputs in sorted({2, min(3, d), min(4, d)}):
            projs = random_projective_measurement(rng, d, outputs)
            strategy = measurement_certification_strategy(
                ProjectiveMeasurement(tuple(projs))
            )
            assert strategy.alice_questions == d + 1 + outputs
            assert strategy.bob_questions == d * (d + 1) // 2

        state = SchmidtState(np.full(d, 1.0 / np.sqrt(d)))
        refs = simplex_observables(d)
        trace, q = min_trace_Q(state, refs, refs[0])
        assert abs(trace - d) <= 1e-5
        assert np.linalg.eigvalsh(q)[0] >= 1.0 - 1e-6
