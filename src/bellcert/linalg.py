"""Dense symmetric linear algebra used everywhere else in the package.

Every factorization is a LAPACK call through numpy: ``eigh`` for symmetric
eigendecompositions and one project-and-SVD per offer of rows for
orthogonalization. An offer whose caller needs only the dimension it
reaches (:func:`extension_rank`, the closure's probe) computes singular
values alone, no vectors. A plan round (``certify._extension_batch``)
offers its cut points once and keeps them in order by the rule for a
one-row offer, whose singular value is its norm, so it needs no SVD. Spans
of symmetric matrices are kept in svec coordinates (:func:`svec`,
:func:`smat`).
Eigenvalues come out descending. Eigenvectors are LAPACK's own, so their
signs and the basis chosen within a repeated eigenvalue's eigenspace carry
no meaning; every caller depends only on eigenvalues and eigenspaces.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import BadParams, DimMismatch, EmptyInput, NotSymmetric, SolverStall


class EigenDecomposition(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


class SignImage(NamedTuple):
    """Result of the matrix sign map: the image and a singularity flag."""

    matrix: np.ndarray
    singular: bool


def as_square_matrix(h: np.ndarray) -> np.ndarray:
    """Coerce to a square 2-d complex or float array; DimMismatch otherwise."""
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.astype(complex if np.iscomplexobj(a) else float)


def require_hermitian_stack(
    mats: Sequence[np.ndarray] | np.ndarray, tol: float, *, allow_complex: bool = False
) -> np.ndarray:
    """Validate a family of Hermitian matrices and return the Hermitized stack.

    The matrices are stacked along one or more leading axes: a sequence of
    them, or for instance the (k, L, d, d) array of k measurements' L
    projections. Every matrix must be square and of one shape (DimMismatch
    otherwise). Complex entries raise NotSymmetric unless ``allow_complex``
    is set. Matrix M fails with BadParams when an entry is not finite, and
    with NotSymmetric when max|M - M^dag| > tol * max(1, max|M|). Each message
    names the first failing matrix by its index along the leading axes (an
    int for one axis, a tuple for more). Returns the stack of (M + M^dag)/2,
    of the input's shape, real unless complex entries are allowed and present.
    """
    try:
        a = np.array(list(mats))
    except ValueError as exc:  # a ragged sequence
        raise DimMismatch("matrices have mixed shapes") from exc
    if a.ndim < 3 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"expected square matrices, got shape {a.shape[1:]}")

    def at(flat: int) -> int | tuple[int, ...]:
        index = tuple(int(i) for i in np.unravel_index(flat, a.shape[:-2]))
        return index[0] if len(index) == 1 else index

    if np.iscomplexobj(a) and not np.any(a.imag):
        a = a.real
    if np.iscomplexobj(a) and not allow_complex:
        k = np.flatnonzero(np.any(a.imag, axis=(-2, -1)))[0]
        raise NotSymmetric(f"expected a real matrix, got complex entries in matrix {at(k)}")
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    adj = np.swapaxes(a.conj(), -2, -1)
    scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
    # NaN passes every `gap > tol` test; max and sum propagate it, and inf
    if not scale.sum() < np.inf:
        k = np.flatnonzero(~np.isfinite(scale))[0]
        raise BadParams(f"matrix {at(k)} has a non-finite entry")
    gap = np.abs(a - adj).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(gap > tol * scale)
    if bad.size:
        k = bad[0]
        raise NotSymmetric(
            f"matrix {at(k)} is not Hermitian: max |H - H^dag| = {gap.flat[k]:.3e}"
        )
    return 0.5 * (a + adj)


def require_symmetric(h: np.ndarray, *, settings: Settings | None = None) -> np.ndarray:
    """Validate symmetry of a real matrix and return its symmetrized copy.

    Asymmetry is measured entrywise against sym_tol, relative to max(1, max|H|).
    """
    return require_hermitian_stack([h], (settings or DEFAULTS).sym_tol)[0]


def sym_eig(h: np.ndarray, *, settings: Settings | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a real symmetric matrix (LAPACK ``eigh``).

    Parameters
    ----------
    h:
        Real square matrix, symmetric to within ``settings.sym_tol``
        (raises NotSymmetric otherwise). It is symmetrized before decomposing.
    settings:
        Tolerance bundle; defaults to the package-wide defaults.

    Returns
    -------
    EigenDecomposition
        ``values`` descending; ``vectors[:, i]`` is a unit eigenvector of
        ``values[i]``, with LAPACK's sign, and the columns of a repeated
        eigenvalue are LAPACK's orthonormal basis of its eigenspace.
    """
    a = require_symmetric(h, settings=settings)
    if a.shape[0] == 0:
        raise EmptyInput("cannot decompose an empty matrix")
    vals, vecs = np.linalg.eigh(a)
    return EigenDecomposition(vals[::-1], vecs[:, ::-1])


def sgn_map(h: np.ndarray, *, settings: Settings | None = None) -> SignImage:
    """Matrix sign of a real symmetric matrix via functional calculus.

    Eigenvalues with magnitude below ``singular_tol`` (relative to
    max(1, max|lambda|)) map to 0 and raise the ``singular`` flag; the image is
    then a proper involution only on the nonsingular eigenspaces. The map is
    invariant under positive rescaling of nonsingular input.
    """
    s = settings or DEFAULTS
    vals, vecs = sym_eig(h, settings=s)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    small = np.abs(vals) < s.singular_tol * scale
    signs = np.where(small, 0.0, np.sign(vals))
    m = (vecs * signs) @ vecs.T
    return SignImage(0.5 * (m + m.T), bool(np.any(small)))


@cache
def _triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # upper-triangle indices of a d x d matrix and their svec weights
    i, j = np.triu_indices(d)
    return i, j, np.where(i == j, 1.0, np.sqrt(2.0))


def svec(a: np.ndarray) -> np.ndarray:
    """Symmetric matrices (..., d, d) as vectors (..., d(d+1)/2).

    The upper triangle, row by row, with off-diagonal entries times sqrt(2):
    an isometry of Sym(d) onto R^{d(d+1)/2}, so svec(A) . svec(B) = Tr(AB).
    Only the upper triangle is read.
    """
    i, j, w = _triangle(a.shape[-1])
    return a[..., i, j] * w


def smat(v: np.ndarray) -> np.ndarray:
    """The inverse of :func:`svec`: exactly symmetric matrices (..., d, d)."""
    d = (math.isqrt(8 * v.shape[-1] + 1) - 1) // 2
    i, j, w = _triangle(d)
    out = np.empty((*v.shape[:-1], d, d))
    out[..., i, j] = out[..., j, i] = v / w
    return out


def _residual_svd(
    q: np.ndarray, rows: np.ndarray, tol: float, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None, float]:
    # the one kernel behind the three public entry points, which stay
    # separate functions so that each is timed and counted under its own
    # name: the rows projected off q twice, together, and the singular
    # values of the residual (with its right singular vectors if asked for)
    # against the threshold tol * max(1, largest row norm)
    rows = np.asarray(rows, dtype=float).reshape(len(rows), q.shape[1])
    if not len(rows):
        return np.zeros(0), np.zeros((0, q.shape[1])), 0.0
    thresh = tol * max(1.0, float(np.linalg.norm(rows, axis=1).max()))
    for _ in range(2):
        rows = rows - (rows @ q.T) @ q
    # gesdd may converge on the transpose: same singular values, u = these v
    for a in (rows, rows.T):
        try:
            out = np.linalg.svd(a, full_matrices=False, compute_uv=vectors)
        except np.linalg.LinAlgError:
            continue
        if not vectors:
            return out, None, thresh
        u, sv, vt = out
        return sv, vt if a is rows else u.T, thresh
    raise SolverStall(f"SVD of a {rows.shape} residual did not converge")


def _extend(q: np.ndarray, rows: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    sv, vt, thresh = _residual_svd(q, rows, tol, vectors=True)
    new = vt[sv > thresh]
    return np.concatenate([q, new]), len(new)


def orthonormal_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of a real matrix.

    This is :func:`extend_orthonormal_rows` started from an empty set; the
    result is the orthonormal array alone.
    """
    work = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    return _extend(np.zeros((0, work.shape[1])), work, tol)[0]


def extend_orthonormal_rows(
    q: np.ndarray, rows: np.ndarray, tol: float
) -> tuple[np.ndarray, int]:
    """Grow an orthonormal row set with the directions new rows add to its span.

    All candidate rows (a 2-d array) are projected off the current set twice,
    together; the right singular vectors of the residual whose singular value
    exceeds ``tol * max(1, largest candidate row norm)`` join the set, in
    order of decreasing singular value.

    Returns the extended orthonormal array and the number of rows added.
    """
    return _extend(np.asarray(q, dtype=float), rows, tol)


def extension_rank(q: np.ndarray, rows: np.ndarray, tol: float) -> int:
    """How many rows :func:`extend_orthonormal_rows` would add, without the rows.

    The same residual, threshold and retry on the transpose, but the SVD
    computes singular values only, a fraction of the cost of one with
    vectors. For a caller that needs only the dimension an offer reaches.
    """
    sv, _, thresh = _residual_svd(np.asarray(q, dtype=float), rows, tol, vectors=False)
    return int(np.sum(sv > thresh))
