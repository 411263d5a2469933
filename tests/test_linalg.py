from __future__ import annotations

import numpy as np
import pytest

from bellcert.config import DEFAULTS
from bellcert.errors import BadParams, DimMismatch, EmptyInput, NotSymmetric, SolverStall
from bellcert.jordan import cut_point_observables, span_basis
from bellcert.linalg import (
    extend_orthonormal_rows,
    extension_rank,
    orthonormal_rows,
    require_hermitian_stack,
    require_symmetric,
    sgn_map,
    smat,
    svec,
    sym_eig,
)

from helpers import (
    X,
    Z,
    gram_schmidt_rows,
    random_orthogonal,
    random_reflection,
    random_symmetric,
)


# ---------------------------------------------------------------- sym_eig


def test_sym_eig_2x2_closed_form():
    vals, vecs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-13)
    s = 1.0 / np.sqrt(2.0)
    # each column is its eigenvector up to sign
    assert abs(vecs[:, 0] @ [s, s]) == pytest.approx(1.0, abs=1e-12)
    assert abs(vecs[:, 1] @ [s, -s]) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_3x3_matches_characteristic_polynomial_roots():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    # char poly: -l^3 + tr l^2 - c1 l + det, roots found independently
    tr = np.trace(a)
    c1 = 0.5 * (tr**2 - np.trace(a @ a))
    det = np.linalg.det(a)
    roots = np.sort(np.roots([1.0, -tr, c1, -det]).real)[::-1]
    vals, _ = sym_eig(a)
    assert np.allclose(vals, roots, atol=1e-10)


def test_sym_eig_reconstructs_random_6x6(rng):
    h = random_symmetric(rng, 6)
    vals, vecs = sym_eig(h)
    resid = np.linalg.norm((vecs * vals) @ vecs.T - h)
    assert resid <= 1e-10 * np.linalg.norm(h)
    assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_sym_eig_matches_numpy_eigvalsh(rng, d):
    for _ in range(3):
        h = random_symmetric(rng, d, scale=3.0)
        vals, vecs = sym_eig(h)
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.allclose(vals, ref, atol=1e-11 * max(1.0, np.abs(ref).max()))
        assert np.all(np.diff(vals) <= 1e-14)  # descending
        resid = np.linalg.norm((vecs * vals) @ vecs.T - h)
        assert resid <= 1e-11 * max(1.0, np.linalg.norm(h))


def test_sym_eig_is_deterministic(rng):
    h = random_symmetric(rng, 7)
    first = sym_eig(h)
    second = sym_eig(h)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_sym_eig_degenerate_identity():
    vals, vecs = sym_eig(np.eye(3))
    assert np.array_equal(vals, np.ones(3))
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-15)


def test_sym_eig_repeated_eigenvalue_in_rotated_basis(rng):
    u = random_orthogonal(rng, 6)
    spectrum = np.array([3.0, 1.0, 1.0, 1.0, -2.0, -2.0])
    h = (u * spectrum) @ u.T
    vals, vecs = sym_eig(h)
    assert np.allclose(vals, spectrum, atol=1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
    assert np.linalg.norm((vecs * vals) @ vecs.T - h) <= 1e-12 * np.linalg.norm(h)
    again = sym_eig(h)
    assert np.array_equal(again.values, vals)
    assert np.array_equal(again.vectors, vecs)


def test_sym_eig_rejects_asymmetric_and_empty():
    with pytest.raises(NotSymmetric):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(EmptyInput):
        sym_eig(np.zeros((0, 0)))
    with pytest.raises(DimMismatch):
        sym_eig(np.zeros((2, 3)))


def test_require_symmetric_symmetrizes_within_tolerance():
    h = np.array([[1.0, 1.0 + 5e-12], [1.0, 2.0]])
    out = require_symmetric(h)
    assert np.allclose(out, out.T, atol=0)


class TestHermitianStack:
    DEFECTS = {
        "non-square": (lambda m: m[:, :-1], DimMismatch),
        "mixed shapes": (lambda m: m[:-1, :-1], DimMismatch),
        "complex": (lambda m: m + 1e-3j * np.eye(len(m)), NotSymmetric),
        "asymmetric": (lambda m: m + np.triu(np.full_like(m, 1e-6), 1), NotSymmetric),
        # NaN fails no `gap > tol` test, so it is caught before the gaps
        "nan": (lambda m: np.where(np.eye(len(m)) > 0, np.nan, m), BadParams),
        "infinite": (lambda m: m + np.diag(np.r_[np.inf, np.zeros(len(m) - 1)]), BadParams),
    }

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_a_defect_at_any_index_raises(self, rng, defect, where):
        spoil, expected = self.DEFECTS[defect]
        family = [random_symmetric(rng, 4) for _ in range(5)]
        family[where] = spoil(family[where])
        with pytest.raises(expected) as caught:
            require_hermitian_stack(family, 1e-10)
        if defect in ("asymmetric", "nan", "infinite"):
            assert f"matrix {where} " in str(caught.value)
        if defect in ("non-square", "complex", "asymmetric", "nan", "infinite"):
            with pytest.raises(expected):
                require_symmetric(family[where])

    def test_asymmetry_is_relative_to_the_largest_entry(self):
        # the same 5e-5 gap passes beside an entry of 1e6 and fails beside 1
        h = np.array([[1e6, 1.0], [1.0 + 5e-5, 0.0]])
        assert require_hermitian_stack([h], 1e-10).shape == (1, 2, 2)
        h[0, 0] = 1.0
        with pytest.raises(NotSymmetric):
            require_hermitian_stack([h], 1e-10)

    def test_output_is_the_hermitian_part_bit_for_bit(self, rng):
        real = [random_symmetric(rng, 5) + 1e-12 * rng.standard_normal((5, 5)) for _ in range(4)]
        out = require_hermitian_stack(real, 1e-10)
        assert out.dtype == float
        for o, m in zip(out, real):
            assert np.array_equal(o, 0.5 * (m + m.T))
            assert np.array_equal(o, require_symmetric(m))
        herm = [a + 1j * (b - b.T) for a, b in zip(real, rng.standard_normal((4, 5, 5)))]
        out = require_hermitian_stack(herm, 1e-10, allow_complex=True)
        assert out.dtype == complex
        for o, m in zip(out, herm):
            assert np.array_equal(o, 0.5 * (m + m.conj().T))

    def test_complex_dtype_with_real_values_is_real(self, rng):
        m = random_symmetric(rng, 3)
        for allow_complex in (False, True):
            out = require_hermitian_stack([m.astype(complex)], 1e-10, allow_complex=allow_complex)
            assert out.dtype == float and np.array_equal(out[0], m)


# ---------------------------------------------------------------- sgn_map


def test_sgn_map_diagonal_and_singular_flag():
    image, singular = sgn_map(np.diag([2.0, -3.0]))
    assert not singular
    assert np.allclose(image, np.diag([1.0, -1.0]), atol=1e-12)

    image, singular = sgn_map(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert singular
    assert np.allclose(image, np.full((2, 2), 0.5), atol=1e-12)


def test_sgn_map_fixes_reflections(rng):
    for d in (2, 4, 6):
        o = random_reflection(rng, d)
        image, singular = sgn_map(o)
        assert not singular
        assert np.allclose(image, o, atol=1e-10)


def test_sgn_map_scale_invariant_and_idempotent(rng):
    h = random_symmetric(rng, 5)
    base = sgn_map(h).matrix
    for t in (0.5, 2.0, 7.0):
        assert np.allclose(sgn_map(t * h).matrix, base, atol=1e-10)
    again, _ = sgn_map(base)
    assert np.allclose(again, base, atol=1e-10)


def test_sgn_map_orthogonal_covariance(rng):
    h = random_symmetric(rng, 6)
    q = random_orthogonal(rng, 6)
    left = sgn_map(q @ h @ q.T).matrix
    right = q @ sgn_map(h).matrix @ q.T
    assert np.allclose(left, right, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_eigenspace_functions_are_basis_free(rng, d):
    # sym_eig fixes no eigenvector sign and no basis inside a repeated
    # eigenvalue's eigenspace, so its callers must not depend on either:
    # f(U H U^T) = U f(H) U^T for every orthogonal U, repeats and 0 included
    for _ in range(20):
        spectrum = rng.integers(-2, 3, size=d).astype(float)
        v = random_orthogonal(rng, d)
        h = (v * spectrum) @ v.T
        u = random_orthogonal(rng, d)
        turned = u @ h @ u.T
        image, turned_image = sgn_map(h), sgn_map(turned)
        assert turned_image.singular == image.singular == bool(np.any(spectrum == 0))
        assert np.max(np.abs(turned_image.matrix - u @ image.matrix @ u.T)) <= 1e-12
        cuts, turned_cuts = cut_point_observables(h), cut_point_observables(turned)
        assert len(cuts) == len(turned_cuts) == np.unique(spectrum).size - 1
        for c, t in zip(cuts, turned_cuts, strict=True):
            assert np.max(np.abs(t - u @ c @ u.T)) <= 1e-12


# ------------------------------------------------------------ span rank


def test_span_rank_basic_families():
    assert span_basis([np.eye(2), X, Z]).dimension == 3
    assert span_basis([np.eye(2), X, Z, X + Z]).dimension == 3
    assert span_basis([X, X + 1e-12 * Z]).dimension == 1
    fine = DEFAULTS.replace(membership_tol=1e-15)
    assert span_basis([X, X + 1e-12 * Z], settings=fine).dimension == 2


def test_span_rank_stable_under_reordering(rng):
    mats = [random_symmetric(rng, 4) for _ in range(5)]
    mats.append(mats[0] + mats[2])
    mats.append(0.5 * mats[1] - mats[3])
    expected = span_basis(mats).dimension
    assert expected == 5
    perm = rng.permutation(len(mats))
    assert span_basis([mats[i] for i in perm]).dimension == expected


def test_span_rank_errors():
    with pytest.raises(EmptyInput):
        span_basis([])
    with pytest.raises(DimMismatch):
        span_basis([np.eye(2), np.eye(3)])


def test_orthonormal_rows_and_extension():
    rows = np.array([v.ravel() for v in (X, Z, X + Z)])
    q = orthonormal_rows(rows, 1e-10)
    assert q.shape[0] == 2
    assert np.allclose(q @ q.T, np.eye(2), atol=1e-12)
    assert np.allclose(rows @ q.T @ q, rows, atol=1e-12)  # spans the input

    q2, added = extend_orthonormal_rows(q, [Z.ravel(), np.eye(2).ravel()], 1e-10)
    assert added == 1  # Z already in span, identity is new
    assert q2.shape[0] == 3
    assert np.allclose(q2 @ q2.T, np.eye(3), atol=1e-12)
    assert np.allclose(q2[:2], q, atol=0)  # the existing rows are kept as they are


def _assert_same_span(rows, tol, projector_atol=1e-10):
    """Same rank and span projector as the row-by-row reference."""
    flat = np.array([np.ravel(r) for r in rows])
    ref = gram_schmidt_rows(rows, tol)
    q = orthonormal_rows(flat, tol)
    assert q.shape == ref.shape
    assert np.allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-12)
    assert np.allclose(q.T @ q, ref.T @ ref, atol=projector_atol)
    return q


def test_blocked_kernel_matches_gram_schmidt_on_dependent_rows(rng):
    mats = [random_symmetric(rng, 4) for _ in range(5)]
    mats += [mats[0] + mats[2], 0.5 * mats[1] - mats[3], np.zeros((4, 4))]
    assert _assert_same_span(mats, 1e-8).shape[0] == 5


def test_blocked_kernel_matches_gram_schmidt_across_blocks(rng):
    base = [random_symmetric(rng, 12) for _ in range(40)]
    # one offer of 2 * 64 + 7 rows, orthogonalized as a whole
    coeffs = rng.standard_normal((2 * 64 + 7, len(base)))
    rows = [sum(c * b for c, b in zip(row, base)).ravel() for row in coeffs]
    assert len(rows) == 135
    q = _assert_same_span(rows, 1e-8)
    assert q.shape[0] == 40

    seed = orthonormal_rows(np.array([b.ravel() for b in base[:10]]), 1e-8)
    grown, added = extend_orthonormal_rows(seed, rows, 1e-8)
    assert added == 30
    assert np.allclose(grown @ grown.T, np.eye(40), atol=1e-12)
    assert np.allclose(grown.T @ grown, q.T @ q, atol=1e-10)


def test_blocked_kernel_matches_gram_schmidt_near_threshold():
    family = [X, X + 1e-12 * Z]
    assert _assert_same_span(family, 1e-8).shape[0] == 1
    # the second direction is a residual of size 1e-12 left after a
    # cancellation of size 1, so both kernels know it only to ~1e-4
    q = _assert_same_span(family, 1e-15, projector_atol=1e-3)
    assert q.shape[0] == 2
    flat = np.array([m.ravel() for m in family])
    assert np.allclose(flat @ q.T @ q, flat, atol=1e-14)


def _failing_svd(monkeypatch, failures: int) -> list:
    """Make the first `failures` SVDs raise as gesdd does when it does not
    converge; returns the shapes of every SVD asked for."""
    shapes = []
    original = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        if len(shapes) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes


@pytest.mark.parametrize("shape", [(9, 6), (4, 6)])
def test_an_svd_that_does_not_converge_is_taken_of_the_transpose(rng, monkeypatch, shape):
    rows = rng.standard_normal(shape)
    seed = orthonormal_rows(rows[:1], 1e-8)
    want, added = extend_orthonormal_rows(seed, rows[1:], 1e-8)
    shapes = _failing_svd(monkeypatch, 1)
    got, got_added = extend_orthonormal_rows(seed, rows[1:], 1e-8)
    m = shape[0] - 1
    assert shapes == [(m, 6), (6, m)]
    assert got_added == added
    assert np.array_equal(got[:1], seed)
    # the same directions, each up to sign
    assert np.allclose(np.abs(np.sum(got * want, axis=1)), 1.0, atol=1e-12)
    # the rank-only entry point retries the same way
    shapes.clear()
    assert extension_rank(seed, rows[1:], 1e-8) == added
    assert shapes == [(m, 6), (6, m)]


def test_an_svd_that_fails_both_ways_is_a_solver_stall(rng, monkeypatch):
    shapes = _failing_svd(monkeypatch, 2)
    with pytest.raises(SolverStall, match=r"SVD of a \(7, 6\) residual did not converge"):
        orthonormal_rows(rng.standard_normal((7, 6)), 1e-8)
    shapes.clear()
    with pytest.raises(SolverStall, match=r"SVD of a \(7, 6\) residual did not converge"):
        extension_rank(np.zeros((0, 6)), rng.standard_normal((7, 6)), 1e-8)


def test_extension_rank_counts_the_rows_an_offer_adds(rng):
    # the rank-only probe against the offer that returns rows: dependent,
    # independent and empty offers, from an empty and a partial set
    base = rng.standard_normal((3, 8))
    for q in (np.zeros((0, 8)), orthonormal_rows(base, 1e-8)):
        for rows in (
            rng.standard_normal((4, 8)),
            rng.standard_normal((5, 3)) @ base,
            np.vstack([base, 2.0 * base[:1]]),
            np.zeros((0, 8)),
        ):
            assert extension_rank(q, rows, 1e-8) == extend_orthonormal_rows(q, rows, 1e-8)[1]


def test_blocked_kernel_span_is_independent_of_row_order(rng):
    mats = [random_symmetric(rng, 5) for _ in range(6)]
    mats.append(mats[1] - 2.0 * mats[4])
    q = _assert_same_span(mats, 1e-8)
    perm = rng.permutation(len(mats))
    p = _assert_same_span([mats[i] for i in perm], 1e-8)
    assert np.allclose(p.T @ p, q.T @ q, atol=1e-10)


# ------------------------------------------------------------- svec / smat


@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_svec_is_an_isometry_of_the_symmetric_matrices(rng, d):
    a, b = random_symmetric(rng, d), random_symmetric(rng, d)
    assert svec(a).shape == (d * (d + 1) // 2,)
    assert abs(svec(a) @ svec(b) - np.trace(a @ b)) < 1e-13
    assert np.max(np.abs(smat(svec(a)) - a)) < 1e-15


def test_svec_and_smat_act_on_stacks(rng):
    stack = np.array([[random_symmetric(rng, 4) for _ in range(3)] for _ in range(2)])
    v = svec(stack)
    assert v.shape == (2, 3, 10)
    assert np.array_equal(v[1, 2], svec(stack[1, 2]))
    back = smat(v)
    assert back.shape == stack.shape
    assert np.array_equal(back, back.swapaxes(-1, -2))
    assert np.max(np.abs(back - stack)) < 1e-15
