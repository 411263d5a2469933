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
    extension_rank,
    orthonormal_rows,
    require_hermitian_stack,
    require_symmetric,
    smat,
    svec,
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
        The basis in svec coordinates (see :func:`~bellcert.linalg.svec`):
        orthonormal rows of shape (dimension, d(d+1)/2). The coordinates
        cover Sym(d) and nothing else, so every combination of rows is a
        symmetric matrix.
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
        """The basis matrices, shape (dimension, d, d): read-only, exactly symmetric."""
        mats = smat(self.rows)
        mats.flags.writeable = False
        return mats


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
    return SpanBasis(matrix_dim=d, rows=orthonormal_rows(svec(stack), tol), tol=tol)


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
    v = svec(a)
    coeffs = b.rows @ v
    residual = float(np.linalg.norm(v - coeffs @ b.rows))
    member = residual <= b.tol * max(1.0, float(np.linalg.norm(v)))
    return member, coeffs, residual


# a sweep probes only if the probe is at most this share of its pairs: a
# closure short of Sym(d) pays for every probe on top of the full offer
_PROBE_MAX_SHARE = 1 / 3


def jordan_closure(
    generators: Sequence[np.ndarray], *, settings: Settings | None = None
) -> tuple[SpanBasis, int]:
    """Close span{I, generators} under the Jordan product.

    Parameters
    ----------
    generators:
        Symmetric matrices (binary observables in the main use case).
    settings:
        Generators are validated at ``sym_tol``; the span tolerance is
        ``membership_tol``.

    Returns
    -------
    (basis, iterations):
        ``basis`` spans the closure (it contains the identity and every
        generator); ``iterations`` counts the sweeps in which the dimension
        strictly grew. For binary generators this is at most ceil(2*log2 d),
        since each sweep at least doubles the reachable word length.

    Each sweep offers the Jordan product of every pair of basis matrices not
    offered before, in svec coordinates, to one orthogonalization. It first
    probes the last (missing + fresh) of those pairs, products of the newest
    rows: the directions Sym(d) lacks plus one known dependency per fresh b
    (b = sum_k a_k (b_k*b) for I = sum_k a_k b_k). The probe asks only for
    the rank its residual adds (:func:`~bellcert.linalg.extension_rank`, an
    SVD without vectors): a probe that fills Sym(d) ends the sweep, else the
    full offer runs from the same basis. This is exact: the probe's residual
    rows are rows of the full offer's, so its singular values are no larger
    (Weyl), and a product of Frobenius-unit matrices has norm at most 1, so
    both offers keep at one threshold. A sweep that fills Sym(d) returns the
    standard svec basis, the identity of size d(d+1)/2, since any
    orthonormal basis spans it; a closure short of it keeps the full offers'
    rows. Raises SolverStall if the basis outgrows dim Sym(d) = d(d+1)/2,
    which no closure can: it would mean rounding noise passed as new
    directions.
    """
    s = settings or DEFAULTS
    tol = s.membership_tol
    seeds, d = _validated_family(generators, s)
    q = orthonormal_rows(svec(np.concatenate([np.eye(d)[None], seeds])), tol)
    iterations = 0
    fresh_from = 0
    full = d * (d + 1) // 2
    while len(q) < full:
        mats = smat(q)
        n = len(mats)
        # pairs i <= j with j fresh: a pair of rows that both predate the
        # last sweep was offered then
        i, j = np.nonzero(np.arange(n)[:, None] <= np.arange(fresh_from, n))
        j += fresh_from

        def products(k: int) -> np.ndarray:
            # svec rows of a*b for the pairs from k on: for symmetric a and
            # b, a*b is the symmetric part of ab
            ab = mats[i[k:]] @ mats[j[k:]]
            return svec(0.5 * (ab + ab.transpose(0, 2, 1)))

        # the probe: the last (full - n) missing + (n - fresh_from) fresh pairs
        probe = full - fresh_from
        grown = n
        if probe <= _PROBE_MAX_SHARE * len(i):
            grown += extension_rank(q, products(len(i) - probe), tol)
        if grown < full:
            q2, added = extend_orthonormal_rows(q, products(0), tol)
            if added == 0:
                break
            grown = len(q2)
        if grown > full:
            raise SolverStall(
                f"closure basis reached {grown} rows, more than dim Sym({d}) = {full}"
            )
        # any orthonormal basis spans a filled Sym(d): the standard one needs no rows
        q = q2 if grown < full else np.eye(full)
        fresh_from = n
        iterations += 1
    return SpanBasis(matrix_dim=d, rows=q, tol=tol), iterations


def cut_point_observables(
    h: np.ndarray, *, settings: Settings | None = None
) -> list[np.ndarray]:
    """Binary observables sgn(h - r I) for midpoints r between distinct eigenvalues.

    Consecutive eigenvalues closer than ``singular_tol`` (relative) are treated
    as one cluster. A scalar multiple of the identity therefore yields an empty
    list. Each returned matrix is an exact involution by construction (signs
    are applied in the eigenbasis). One eigendecomposition serves every cut:
    the signs of all cuts are broadcast into one stacked product.
    """
    s = settings or DEFAULTS
    vals, vecs = sym_eig(h, settings=s)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    cuts = np.flatnonzero(vals[:-1] - vals[1:] > s.singular_tol * scale)
    # row k: +1 on the eigenvalues above cut k, -1 below it
    signs = np.where(np.arange(vals.size) <= cuts[:, None], 1.0, -1.0)
    m = (vecs * signs[:, None, :]) @ vecs.T
    return list(0.5 * (m + m.transpose(0, 2, 1)))


def has_trivial_centralizer(
    generators: Sequence[np.ndarray], *, settings: Settings | None = None
) -> bool:
    """Whether only multiples of the identity commute with every generator.

    The commutant is the null space of the stacked operators S -> SG - GS
    over all real d x d matrices. For symmetric G this map sends Sym(d) to
    Skew(d) and Skew(d) to Sym(d), so in orthonormal coordinates of both
    (svec on Sym, sqrt(2) times the strict upper triangle on Skew) the
    operator for k generators is two blocks: Sym -> Skew, of shape
    (k d(d-1)/2, d(d+1)/2), and Skew -> Sym, of shape (k d(d+1)/2, d(d-1)/2).
    Each block is one batched product over an orthonormal basis of its
    domain, and together their singular values are those of the whole
    operator. Singular values above 1e-9 times max(1, the largest) count
    toward the rank; triviality means nullity d^2 - rank = 1. Used alone, it
    can disagree with jordan_closure on a near-reducible family, which reads
    full and non-trivial at once; ``bellcert jordan-closure`` settles that
    by the closure.
    """
    gens, d = _validated_family(generators, settings or DEFAULTS)
    k, n_sym, n_skew = len(gens), d * (d + 1) // 2, d * (d - 1) // 2
    i, j = np.triu_indices(d, 1)
    skew = np.zeros((n_skew, d, d))
    skew[np.arange(n_skew), i, j] = np.sqrt(0.5)
    skew[np.arange(n_skew), j, i] = -np.sqrt(0.5)
    # for symmetric G: [S, G] = SG - (SG)^T and [K, G] = KG + (KG)^T
    sg = (smat(np.eye(n_sym)).reshape(-1, d) @ gens).reshape(k, n_sym, d, d)
    kg = (skew.reshape(-1, d) @ gens).reshape(k, n_skew, d, d)
    to_skew = np.sqrt(2.0) * (sg - sg.swapaxes(-1, -2))[..., i, j]
    to_sym = svec(kg + kg.swapaxes(-1, -2))
    sv = np.concatenate([
        np.linalg.svd(to_skew.swapaxes(1, 2).reshape(k * n_skew, n_sym), compute_uv=False),
        np.linalg.svd(to_sym.swapaxes(1, 2).reshape(k * n_sym, n_skew), compute_uv=False),
    ])
    rank = int(np.sum(sv > _CENTRALIZER_TOL * max(1.0, sv.max(initial=0.0))))
    return d * d - rank == 1


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
