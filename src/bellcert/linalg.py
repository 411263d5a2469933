"""Dense symmetric linear algebra used everywhere else in the package.

Every factorization is a LAPACK call through numpy: ``eigh`` for symmetric
eigendecompositions and a blocked project-and-SVD kernel for orthogonalization.
Eigenvalue ordering, eigenvector signs and tie-breaking are fixed after the
call, so results are deterministic for a given LAPACK build.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import DimMismatch, EmptyInput, NotSymmetric


class EigenDecomposition(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


class SignImage(NamedTuple):
    """Result of the matrix sign map: the image and a singularity flag."""

    matrix: np.ndarray
    singular: bool


def as_square_matrix(h: np.ndarray, *, allow_complex: bool = False) -> np.ndarray:
    """Coerce to a square 2-d ndarray, raising DimMismatch otherwise."""
    a = np.asarray(h)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        if not allow_complex:
            if np.max(np.abs(a.imag)) > 0:
                raise NotSymmetric("expected a real matrix, got complex entries")
            a = a.real
        return a.astype(complex)
    return a.astype(float)


def require_symmetric(h: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate symmetry of a real matrix and return its symmetrized copy.

    Asymmetry is measured entrywise, relative to max(1, max|H|).
    """
    if tol is None:
        tol = DEFAULTS.sym_tol
    a = as_square_matrix(h)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > tol * scale:
        raise NotSymmetric(f"matrix is not symmetric: max |H - H^T| = {gap:.3e}")
    return 0.5 * (a + a.T)


def require_hermitian(h: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate Hermiticity (complex allowed) and return the Hermitized copy."""
    if tol is None:
        tol = DEFAULTS.sym_tol
    a = as_square_matrix(h, allow_complex=True)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    gap = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if gap > tol * scale:
        raise NotSymmetric(f"matrix is not Hermitian: max |H - H^dag| = {gap:.3e}")
    return 0.5 * (a + a.conj().T)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product Tr[A^dag B], returned as a real scalar.

    For real matrices this is Tr[A^T B] = sum_ij A_ij B_ij. Raises DimMismatch
    when the shapes differ.
    """
    x = np.asarray(a)
    y = np.asarray(b)
    if x.shape != y.shape:
        raise DimMismatch(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.vdot(x, y).real)


def _canonical_columns(vals: np.ndarray, vecs: np.ndarray) -> EigenDecomposition:
    """Sort eigenpairs descending with sign-canonicalized, lexicographic tie-break."""
    d = vals.size
    cols = []
    for i in range(d):
        u = vecs[:, i].copy()
        nz = np.flatnonzero(np.abs(u) > 1e-12)
        j = int(nz[0]) if nz.size else 0
        if u[j] < 0.0:
            u = -u
        cols.append(u)
    order = sorted(range(d), key=lambda i: (-vals[i], tuple(-cols[i])))
    values = np.array([vals[i] for i in order])
    vectors = np.column_stack([cols[i] for i in order]) if d else np.zeros((0, 0))
    return EigenDecomposition(values, vectors)


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
        ``values`` descending; ``vectors[:, i]`` is the unit eigenvector of
        ``values[i]``, sign-fixed so its first component of magnitude > 1e-12
        is positive. Ties in the eigenvalues are broken lexicographically on
        the eigenvectors, making the output deterministic for a given LAPACK
        build.
    """
    s = settings or DEFAULTS
    a = require_symmetric(h, s.sym_tol)
    if a.shape[0] == 0:
        raise EmptyInput("cannot decompose an empty matrix")
    vals, vecs = np.linalg.eigh(a)
    return _canonical_columns(vals, vecs)


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


# candidate rows orthogonalized per SVD: bounds the scratch array of one
# extension so that a large batch of candidates is never stacked at once
BLOCK_ROWS = 64


def _extend(q: np.ndarray, rows: Sequence[np.ndarray], tol: float) -> tuple[np.ndarray, int]:
    # the one kernel behind both public entry points, which stay separate
    # functions so that each is timed and counted under its own name
    # largest row norm from one C-level pass over the squared norms: no stacked
    # copy of the rows, and no per-row Python call even for single-row offers
    thresh = tol * max(1.0, float(np.sqrt(max(map(np.vdot, rows, rows), default=0.0))))
    start = q.shape[0]
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = np.array(rows[lo : lo + BLOCK_ROWS], dtype=float).reshape(-1, q.shape[1])
        for _ in range(2):
            block -= (block @ q.T) @ q
        _, sv, vt = np.linalg.svd(block, full_matrices=False)
        q = np.vstack([q, vt[sv > thresh]])
    return q, q.shape[0] - start


def orthonormal_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of a real matrix.

    This is :func:`extend_orthonormal_rows` started from an empty set; the
    result is the orthonormal array alone.
    """
    work = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    return _extend(np.zeros((0, work.shape[1])), work, tol)[0]


def extend_orthonormal_rows(
    q: np.ndarray, rows: Sequence[np.ndarray], tol: float
) -> tuple[np.ndarray, int]:
    """Grow an orthonormal row set with the directions new rows add to its span.

    Candidates are taken in order, in blocks of at most ``BLOCK_ROWS`` rows.
    Each block is projected off the current set twice; the right singular
    vectors of the residual whose singular value exceeds
    ``tol * max(1, largest candidate row norm)`` join the set.

    Returns the extended orthonormal array and the number of rows added.
    """
    return _extend(np.asarray(q, dtype=float), rows, tol)


def numerical_rank(mats: Sequence[np.ndarray], tol: float | None = None) -> int:
    """Dimension of the span of a family of equal-shaped real matrices.

    Matrices are vectorized and run through the orthogonalizer; the rank is
    the number of directions it keeps. Raises EmptyInput for an empty
    family and DimMismatch on inconsistent shapes.
    """
    if tol is None:
        tol = DEFAULTS.membership_tol
    mats = list(mats)
    if not mats:
        raise EmptyInput("numerical_rank needs at least one matrix")
    shape = np.asarray(mats[0]).shape
    rows = []
    for m in mats:
        a = np.asarray(m, dtype=float)
        if a.shape != shape:
            raise DimMismatch(f"shape mismatch in family: {a.shape} vs {shape}")
        rows.append(a.ravel())
    return orthonormal_rows(np.array(rows), tol).shape[0]


def realify(m: np.ndarray) -> np.ndarray:
    """Real 2d x 2d embedding [[Re, -Im], [Im, Re]] of a complex d x d matrix.

    Hermitian inputs map to symmetric outputs, positive definiteness is
    preserved, and traces double.
    """
    a = as_square_matrix(m, allow_complex=True)
    re, im = a.real, a.imag
    top = np.hstack([re, -im])
    bot = np.hstack([im, re])
    return np.vstack([top, bot])


def derealify(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify` (averages the redundant blocks)."""
    a = as_square_matrix(r)
    n = a.shape[0]
    if n % 2 != 0:
        raise DimMismatch("realified matrix must have even dimension")
    d = n // 2
    re = 0.5 * (a[:d, :d] + a[d:, d:])
    im = 0.5 * (a[d:, :d] - a[:d, d:])
    return re + 1j * im
