"""Spans of symmetric matrices, Jordan products, closures, and cut points.

The Jordan product a*b = (ab + ba)/2 keeps symmetric matrices symmetric; the
closure of a family under it (together with the identity) is the algebra that
controls which binary observables the family can certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import BadParams, DimMismatch, EmptyInput, SolverStall
from .linalg import (
    extend_orthonormal_rows,
    orthonormal_rows,
    require_hermitian_stack,
    require_symmetric,
    sym_eig,
)


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """Orthonormal (Frobenius) basis for a span of real symmetric matrices.

    Attributes
    ----------
    matrix_dim:
        Ambient matrix size d (elements are d x d).
    rows:
        The basis as the orthogonalizer returns it: orthonormal vectorized
        matrices, shape (dimension, d*d). A row kept with singular value sigma
        is symmetric only to about eps/sigma, so a combination of rows may need
        symmetrizing before a check at ``sym_tol``.
    tol:
        Relative residual threshold used for membership decisions.
    """

    matrix_dim: int
    rows: np.ndarray
    tol: float

    @property
    def dimension(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """The basis matrices, shape (dimension, d, d): a read-only view of ``rows``."""
        view = self.rows.reshape(-1, self.matrix_dim, self.matrix_dim)
        view.flags.writeable = False
        return view


# relative singular-value cutoff for the commutant's null space
_CENTRALIZER_TOL = 1e-9


def _validated_family(mats: Sequence[np.ndarray], settings: Settings) -> tuple[np.ndarray, int]:
    if not len(mats):
        raise EmptyInput("need at least one matrix")
    stack = require_hermitian_stack(mats, settings.sym_tol)
    return stack, stack.shape[1]


def span_basis(
    mats: Sequence[np.ndarray], *, settings: Settings | None = None
) -> SpanBasis:
    """Orthonormal basis of span{mats} for real symmetric matrices.

    The orthogonalizer keeps a direction whose residual exceeds
    ``settings.membership_tol * max(1, largest Frobenius norm)``, and the
    basis keeps that tolerance for membership tests. Raises
    EmptyInput for an empty family and DimMismatch on inconsistent sizes.
    """
    s = settings or DEFAULTS
    stack, d = _validated_family(mats, s)
    tol = s.membership_tol
    return SpanBasis(matrix_dim=d, rows=orthonormal_rows(stack, tol), tol=tol)


def contains(
    b: SpanBasis, m: np.ndarray, *, settings: Settings | None = None
) -> tuple[bool, np.ndarray, float]:
    """Test span membership of a matrix symmetric within ``settings.sym_tol``.

    Returns
    -------
    (member, coefficients, residual):
        ``coefficients`` are the Frobenius projections onto the orthonormal
        basis; ``member`` is True when the residual is at most
        ``b.tol * max(1, ||m||_F)``, the tolerance the basis was built with.
    """
    a = require_symmetric(m, settings=settings)
    if a.shape[0] != b.matrix_dim:
        raise DimMismatch(f"matrix is {a.shape[0]}x{a.shape[0]}, span is over {b.matrix_dim}")
    coeffs = b.rows @ a.ravel()
    residual = float(np.linalg.norm(a.ravel() - coeffs @ b.rows))
    member = residual <= b.tol * max(1.0, float(np.linalg.norm(a)))
    return member, coeffs, residual


def jordan_closure(
    generators: Sequence[np.ndarray],
    extra_generators: Sequence[np.ndarray] = (),
    *,
    settings: Settings | None = None,
) -> tuple[SpanBasis, int]:
    """Close span{I, generators, extra_generators} under the Jordan product.

    Parameters
    ----------
    generators:
        Symmetric matrices (binary observables in the main use case).
    extra_generators:
        Optional additional symmetric seeds merged before iterating.
    settings:
        Seeds are validated at ``sym_tol``; the span tolerance is ``membership_tol``.

    Returns
    -------
    (basis, iterations):
        ``basis`` spans the closure (it contains the identity and every
        generator); ``iterations`` counts the sweeps in which the dimension
        strictly grew. For binary generators this is at most ceil(2*log2 d),
        since each sweep at least doubles the reachable word length.

    Raises SolverStall if the basis outgrows dim Sym(d) = d(d+1)/2, which
    no closure can: rows that drift off the symmetric matrices let rounding
    noise pass as new directions.
    """
    s = settings or DEFAULTS
    tol = s.membership_tol
    if not len(generators):
        raise EmptyInput("need at least one matrix")
    seeds = require_hermitian_stack([*generators, *extra_generators], s.sym_tol)
    d = seeds.shape[1]
    q = orthonormal_rows(np.concatenate([np.eye(d)[None], seeds]), tol)
    iterations = 0
    fresh_from = 0
    full = d * (d + 1) // 2
    while len(q) < full:
        mats = q.reshape(-1, d, d)
        n = len(mats)
        # row i times the rows after it, skipping pairs of rows that both
        # predate the last sweep (already offered); one batch per row, never
        # the whole n x n product tensor
        products: list[np.ndarray] = []
        for i in range(n):
            right = mats[max(i, fresh_from) :]
            products.extend((0.5 * (mats[i] @ right + right @ mats[i])).reshape(-1, d * d))
        q2, added = extend_orthonormal_rows(q, products, tol)
        if added == 0:
            break
        if len(q2) > full:
            raise SolverStall(
                f"closure basis reached {len(q2)} rows, more than dim Sym({d}) = {full}"
            )
        fresh_from = n
        q = q2
        iterations += 1
    return SpanBasis(matrix_dim=d, rows=q, tol=tol), iterations


def cut_point_observables(
    h: np.ndarray, *, settings: Settings | None = None
) -> list[np.ndarray]:
    """Binary observables sgn(h - r I) for midpoints r between distinct eigenvalues.

    Consecutive eigenvalues closer than ``singular_tol`` (relative) are treated
    as one cluster. A scalar multiple of the identity therefore yields an empty
    list. Each returned matrix is an exact involution by construction (signs
    are applied in the eigenbasis).
    """
    s = settings or DEFAULTS
    vals, vecs = sym_eig(h, settings=s)
    d = vals.size
    scale = max(1.0, float(np.max(np.abs(vals))) if d else 0.0)
    gap_tol = s.singular_tol * scale
    cuts = []
    for i in range(d - 1):
        if vals[i] - vals[i + 1] > gap_tol:
            signs = np.where(np.arange(d) <= i, 1.0, -1.0)
            m = (vecs * signs) @ vecs.T
            cuts.append(0.5 * (m + m.T))
    return cuts


def has_trivial_centralizer(
    generators: Sequence[np.ndarray], *, settings: Settings | None = None
) -> bool:
    """Whether only multiples of the identity commute with every generator.

    The commutant is computed as the null space of the stacked operators
    S -> SG - GS over all real d x d matrices; triviality means nullity 1,
    with singular values below 1e-9 relative to the largest counted as zero.
    """
    gens, d = _validated_family(generators, settings or DEFAULTS)
    eye = np.eye(d)
    blocks = [np.kron(g, eye) - np.kron(eye, g) for g in gens]
    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    nullity = int(np.sum(sv <= _CENTRALIZER_TOL * max(1.0, smax)))
    return nullity == 1


def degeneracy_possible(d: int, n: int, maximally_entangled: bool = False) -> bool:
    """Dimension-counting test for indistinguishable binary observables.

    With d the local dimension and n the number of reference observables, a
    degenerate pair generically exists whenever floor(d^2/4) exceeds n+1
    (n for a maximally entangled state, whose identity marginal is fixed).
    Raises BadParams for d < 1 or n < 0.
    """
    if d < 1 or n < 0:
        raise BadParams(f"need a dimension d >= 1 and n >= 0 questions, got d={d}, n={n}")
    fiber = (d * d) // 4
    if maximally_entangled:
        return fiber > n
    return fiber > n + 1
