"""Regular-simplex reference strategies.

The d+1 unit vectors of a regular simplex in R^d (pairwise inner product
-1/d) define reflections T_x = 2 v_x v_x^T - I whose correlations on the
maximally entangled state pin down a full matrix algebra once the pairwise
sign observables T_jk = sgn(T_j + T_k) are added.
"""

from __future__ import annotations

import numpy as np

from .config import Settings
from .errors import BadDimension
from .strategies import ProjectiveMeasurement, SchmidtState, Strategy


def simplex_vectors(d: int) -> np.ndarray:
    """The d+1 unit vectors of a regular simplex in R^d, as array rows.

    Construction: orthonormalize {a, e_1, ..., e_d} in R^(d+1) (a the
    normalized all-ones vector) in that order, express the normalized
    projections of each e_x off a in the resulting basis, and drop the first
    coordinate (exactly 0) of every image.

    Guarantees: unit norms and pairwise inner products -1/d to 1e-12, vector
    sum zero to 1e-10. Raises BadDimension for d < 2.
    """
    if d < 2:
        raise BadDimension("simplex vectors need dimension >= 2")
    n = d + 1
    a = np.full(n, 1.0 / np.sqrt(n))
    # QR with diag(R) made positive is the ordered Gram-Schmidt basis
    q, r = np.linalg.qr(np.column_stack([a, np.eye(n)[:, 1:]]))
    u = (q * np.sign(np.diag(r))).T
    f = np.eye(n) - np.outer(a, a)
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return (f @ u.T)[:, 1:]


def simplex_observables(d: int) -> list[np.ndarray]:
    """Reflections T_x = 2 v_x v_x^T - I around the simplex directions."""
    vs = simplex_vectors(d)
    return list(2.0 * vs[:, :, None] * vs[:, None, :] - np.eye(d))


def pair_observables(d: int) -> dict[tuple[int, int], np.ndarray]:
    """Pairwise sign observables T_jk = sgn(T_j + T_k) for 0 <= j < k <= d.

    Computed in closed form as 2 w w^T - I with w the normalized difference
    sqrt(d/(2(d+1))) (v_j - v_k). This is exactly the sign: with
    <v_j, v_k> = -1/d, T_j + T_k = 2(v_j v_j^T + v_k v_k^T) - 2I has
    eigenvalue 2/d on w, -2/d on v_j + v_k and -2 on the rest of R^d, so it
    is nonsingular and positive on w alone. All pairs are built in one
    broadcast, which equals np.outer bit for bit: the factor 2 is exact.
    """
    vs = simplex_vectors(d)
    j, k = np.triu_indices(d + 1, 1)
    w = np.sqrt(d / (2.0 * (d + 1.0))) * (vs[j] - vs[k])
    mats = 2.0 * w[:, :, None] * w[:, None, :] - np.eye(d)
    return dict(zip(zip(j.tolist(), k.tolist()), mats))


def maximal_independent_subset(d: int) -> tuple[list[np.ndarray], list[str]]:
    """A linearly independent size-d(d+1)/2 subset of the simplex family.

    Keeps every T_j plus the pairs {T_jk : 1 <= j < k <= d} except T_12;
    together these span the full space of symmetric d x d matrices. Raises
    BadDimension for d < 3 (no such spanning subset exists at d = 2).
    """
    if d < 3:
        raise BadDimension("the independent pair family needs dimension >= 3")
    obs = simplex_observables(d)
    pairs = pair_observables(d)
    mats = list(obs)
    labels = [f"T{j}" for j in range(d + 1)]
    for j in range(1, d + 1):
        for k in range(j + 1, d + 1):
            if (j, k) == (1, 2):
                continue
            mats.append(pairs[(j, k)])
            labels.append(f"T{j}_{k}")
    return mats, labels


def initial_strategy(d: int, *, settings: Settings | None = None) -> Strategy:
    """Maximally entangled state with the d+1 simplex reflections on each side."""
    obs = simplex_observables(d)
    meas = ProjectiveMeasurement.binary_family(obs, settings=settings)
    labels = tuple(f"T{j}" for j in range(d + 1))
    return Strategy(
        state=SchmidtState.maximally_entangled(d),
        alice=meas,
        bob=meas,
        alice_labels=labels,
        bob_labels=labels,
        meta={"kind": "initial-simplex", "base_questions": d + 1},
    )


def degenerate_pair_3d() -> tuple[SchmidtState, list[np.ndarray], np.ndarray, np.ndarray]:
    """A three-dimensional pair of distinct reflections no simplex test separates.

    Returns (state, reference, first, second): the maximally entangled state,
    the four simplex reflections T_0..T_3, and two symmetric involutions whose
    correlations against {I, T_0..T_3} coincide exactly although the matrices
    differ by Frobenius distance sqrt(6).
    """
    s2 = np.sqrt(2.0)
    first = np.array(
        [
            [0.0, -1.0 / s2, 1.0 / s2],
            [-1.0 / s2, -0.5, -0.5],
            [1.0 / s2, -0.5, -0.5],
        ]
    )
    second = np.array(
        [
            [0.0, -1.0 / s2, -1.0 / s2],
            [-1.0 / s2, -0.5, 0.5],
            [-1.0 / s2, 0.5, -0.5],
        ]
    )
    return (
        SchmidtState.maximally_entangled(3),
        simplex_observables(3),
        first,
        second,
    )
