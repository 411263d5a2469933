"""Shared builders for randomized test inputs, and plain-loop reference kernels.

Other oracles live in the tests.
"""

from __future__ import annotations

import numpy as np

from bellcert.config import DEFAULTS
from bellcert.jordan import jordan_product
from bellcert.linalg import orthonormal_rows

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
HADAMARD_DIR = (X + Z) / np.sqrt(2.0)


def random_symmetric(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return scale * 0.5 * (a + a.T)


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_reflection(
    rng: np.random.Generator, d: int, positive: int | None = None
) -> np.ndarray:
    """Random symmetric involution with `positive` +1 eigenvalues (1..d-1)."""
    if positive is None:
        positive = int(rng.integers(1, d))
    u = random_orthogonal(rng, d)
    signs = np.array([1.0] * positive + [-1.0] * (d - positive))
    return (u * signs) @ u.T


def random_projective_measurement(
    rng: np.random.Generator, d: int, outputs: int
) -> list[np.ndarray]:
    """Random rank-partitioned projective measurement (real) as raw projections."""
    u = random_orthogonal(rng, d)
    sizes = [d // outputs] * outputs
    for i in range(d % outputs):
        sizes[i] += 1
    projs = []
    start = 0
    for size in sizes:
        cols = u[:, start : start + size]
        projs.append(cols @ cols.T)
        start += size
    return projs


def random_schmidt_coeffs(rng: np.random.Generator, d: int) -> np.ndarray:
    lam = rng.uniform(0.35, 1.0, size=d)
    return lam / np.linalg.norm(lam)


def gram_schmidt_rows(rows, tol: float) -> np.ndarray:
    """Row-by-row Gram-Schmidt reference for the blocked orthogonalizer.

    Rows are taken in order and orthogonalized twice against the rows kept so
    far; a row is kept when its residual exceeds tol * max(1, largest row norm).
    """
    rows = [np.asarray(r, dtype=float).ravel() for r in rows]
    thresh = tol * max([1.0] + [float(np.linalg.norm(r)) for r in rows])
    qs: list[np.ndarray] = []
    for r in rows:
        u = r.copy()
        for _ in range(2):
            for qrow in qs:
                u = u - np.dot(qrow, u) * qrow
        nu = float(np.linalg.norm(u))
        if nu > thresh:
            qs.append(u / nu)
    return np.array(qs) if qs else np.zeros((0, rows[0].size))


def barrier_hessian_loop(k: np.ndarray, mats) -> np.ndarray:
    """Reference double loop for H_ij = Tr(K B_i K B_j)."""
    km = [k @ b for b in mats]
    m = len(km)
    return np.array([[np.sum(km[i] * km[j].T) for j in range(m)] for i in range(m)])


def jordan_closure_reference(gens, tol: float = DEFAULTS.membership_tol):
    """Pairwise reference for jordan_closure: every sweep offers every pair.

    Each sweep re-orthonormalizes the current basis together with the Jordan
    product of every pair of its matrices, until the span stops growing or
    reaches d(d+1)/2. Returns (orthonormal rows, sweeps that grew the span).
    """
    d = gens[0].shape[0]
    q = orthonormal_rows(np.array([np.eye(d)] + list(gens)), tol)
    sweeps = 0
    while len(q) < d * (d + 1) // 2:
        mats = [row.reshape(d, d) for row in q]
        products = [jordan_product(a, b) for i, a in enumerate(mats) for b in mats[i:]]
        grown = orthonormal_rows(np.array(mats + products), tol)
        if len(grown) == len(q):
            break
        q = grown
        sweeps += 1
    return q, sweeps


def canonical_columns_loop(vals: np.ndarray, vecs: np.ndarray):
    """Per-column reference for sym_eig's canonicalization.

    Flips each eigenvector so that its first entry of magnitude > 1e-12 is
    positive, then sorts the pairs by (-value, -vector entries) with a stable
    tuple sort. Returns (values, vectors).
    """
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
    return values, vectors


def fourier_duals_loop(projs) -> list[np.ndarray]:
    """Reference loops for A^(j) = sum_a omega^(aj) P_a, j = 1..L-1."""
    L = len(projs)
    omega = np.exp(2j * np.pi / L)
    out = []
    for j in range(1, L):
        acc = np.zeros(projs[0].shape, dtype=complex)
        for a, p in enumerate(projs):
            acc += omega ** (a * j) * p
        out.append(acc)
    return out


def inverse_fourier_loop(u: np.ndarray, outputs: int) -> list[np.ndarray]:
    """Reference loops for M_a = (1/L) sum_j omega^(-aj) U^j, Hermitized."""
    powers = [np.eye(u.shape[0], dtype=complex)]
    for _ in range(outputs - 1):
        powers.append(powers[-1] @ u)
    omega = np.exp(2j * np.pi / outputs)
    projs = []
    for out in range(outputs):
        acc = np.zeros(u.shape, dtype=complex)
        for j in range(outputs):
            acc += omega ** (-out * j) * powers[j]
        acc /= outputs
        projs.append(0.5 * (acc + acc.conj().T))
    return projs
