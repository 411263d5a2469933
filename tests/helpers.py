"""Shared builders for randomized test inputs, plain-loop reference kernels,
and the Farkas-certificate check of the post-hoc tests.

Other oracles live in the tests.
"""

from __future__ import annotations

import contextlib
import csv

import numpy as np

from bellcert.config import DEFAULTS
from bellcert.jordan import SpanBasis
from bellcert.linalg import (
    extend_orthonormal_rows,
    orthonormal_rows,
    require_hermitian_stack,
    smat,
    svec,
    sym_eig,
)
from bellcert.simplex import pair_observables, simplex_vectors
from bellcert.strategies import CorrelationTable, Strategy, require_binary_observables

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


def near_reducible_family(
    rng: np.random.Generator, d: int, cut: int, eps: float, scale: float
) -> list[np.ndarray]:
    """Three generators scale * U (B_k + eps C_k) U^T.

    B_k is block-diagonal over the cut (its two blocks random reflections
    with any signature), C_k random symmetric and U random orthogonal, so
    eps couples the blocks: the family reads irreducible for eps well above
    rounding and reducible for eps at it.
    """
    u = random_orthogonal(rng, d)
    gens = []
    for _ in range(3):
        b = np.zeros((d, d))
        for lo, hi in ((0, cut), (cut, d)):
            v = random_orthogonal(rng, hi - lo)
            b[lo:hi, lo:hi] = (v * rng.choice([-1.0, 1.0], hi - lo)) @ v.T
        gens.append(scale * u @ (b + eps * random_symmetric(rng, d)) @ u.T)
    return gens


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


def symmetric_directions(gens) -> np.ndarray:
    """Directions M_j spanning the Hermitian real combinations of gens, by SVD.

    The real null space of t -> sum_k t_k (G_k - G_k^dag), on the real and
    imaginary parts of the entries; for real gens, the symmetric combinations.
    """
    asym = np.stack([(g - g.conj().T).ravel().view(float) for g in gens], axis=1)
    _, sv, vt = np.linalg.svd(asym)
    rank = int(np.sum(sv > 1e-12 * max(1.0, float(sv[0]))))
    dirs = np.einsum("km,kij->mij", vt[rank:].T, np.array(gens))
    return 0.5 * (dirs + dirs.conj().transpose(0, 2, 1))


def assert_farkas_certificate(z, gens) -> None:
    """Z = Z^dag >= 0, Tr Z = 1 and Re Tr(Z M_j) = 0: no Hermitian combination is PD."""
    dirs = symmetric_directions(gens)
    assert z is not None
    assert z.shape == np.shape(gens)[1:]
    assert np.max(np.abs(z - z.conj().T)) <= 1e-15
    assert np.linalg.eigvalsh(z)[0] >= -1e-12
    assert abs(np.trace(z) - 1.0) <= 1e-12
    if len(dirs):
        pairing = np.einsum("ij,mji->m", z, dirs).real
        assert np.max(np.abs(pairing)) <= 1e-9 * np.max(np.abs(dirs))


def random_schmidt_coeffs(rng: np.random.Generator, d: int) -> np.ndarray:
    lam = rng.uniform(0.35, 1.0, size=d)
    return lam / np.linalg.norm(lam)


def gram_schmidt_rows(rows, tol: float) -> np.ndarray:
    """Row-by-row Gram-Schmidt reference for the orthogonalizer.

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
        products = [0.5 * (a @ b + b @ a) for i, a in enumerate(mats) for b in mats[i:]]
        grown = orthonormal_rows(np.array(mats + products), tol)
        if len(grown) == len(q):
            break
        q = grown
        sweeps += 1
    return q, sweeps


def jordan_closure_one_offer(gens, tol: float = DEFAULTS.membership_tol):
    """Reference for jordan_closure without its probe: one offer per sweep.

    Each sweep offers the Jordan product of every pair of basis rows with a
    fresh row, in jordan_closure's order and svec coordinates, to one
    extend_orthonormal_rows call. Returns (orthonormal svec rows, sweeps that
    grew the span); a jordan_closure short of Sym(d) has these rows bit for bit.
    """
    seeds = require_hermitian_stack(gens, DEFAULTS.sym_tol)
    d = seeds.shape[1]
    q = orthonormal_rows(svec(np.concatenate([np.eye(d)[None], seeds])), tol)
    sweeps = fresh_from = 0
    while len(q) < d * (d + 1) // 2:
        mats = smat(q)
        n = len(mats)
        i, j = np.nonzero(np.arange(n)[:, None] <= np.arange(fresh_from, n))
        ab = mats[i] @ mats[fresh_from + j]
        q2, added = extend_orthonormal_rows(q, svec(0.5 * (ab + ab.transpose(0, 2, 1))), tol)
        if added == 0:
            break
        fresh_from, q = n, q2
        sweeps += 1
    return q, sweeps


def cut_point_observables_loop(h, settings=DEFAULTS) -> list[np.ndarray]:
    """Reference loop for cut_point_observables: one product per cut.

    The cut after eigenvalue i (descending) is kept when the gap to the next
    exceeds singular_tol * max(1, max |lambda|); its signs are +1 up to i.
    """
    vals, vecs = sym_eig(h, settings=settings)
    d = vals.size
    gap_tol = settings.singular_tol * max(1.0, float(np.max(np.abs(vals))))
    cuts = []
    for i in range(d - 1):
        if vals[i] - vals[i + 1] > gap_tol:
            m = (vecs * np.where(np.arange(d) <= i, 1.0, -1.0)) @ vecs.T
            cuts.append(0.5 * (m + m.T))
    return cuts


def extension_batch_one_offer(source, into: SpanBasis, rng, settings=DEFAULTS):
    """Reference for certify._extension_batch: one offer per cut point.

    Draws the same Gaussian combinations H of the source questions and
    offers each cut point of each H to its own extend_orthonormal_rows call,
    in order. Returns (the observables kept, the grown span).
    """
    q = into.rows
    kept = []
    for h in np.tensordot(rng.standard_normal((len(source),) * 2), source, axes=1):
        for o in cut_point_observables_loop(h, settings):
            q2, added = extend_orthonormal_rows(q, svec(o)[None], into.tol)
            if added:
                q = q2
                kept.append(o)
    return kept, SpanBasis(into.matrix_dim, q, into.tol)


LINALG_CALLS = ("svd", "eigh", "eigvalsh", "lstsq", "qr", "cholesky", "solve", "inv")


@contextlib.contextmanager
def linalg_calls():
    """Record the numpy.linalg factorizations and solves called inside the block.

    Yields a list that fills with (name, shape of the first argument), one
    entry per call of a function in LINALG_CALLS; a count that does not
    depend on the host's speed.
    """
    calls: list[tuple[str, tuple[int, ...]]] = []
    saved = {name: getattr(np.linalg, name) for name in LINALG_CALLS}

    def recorded(name, func):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return func(a, *args, **kwargs)

        return wrapper

    for name, func in saved.items():
        setattr(np.linalg, name, recorded(name, func))
    try:
        yield calls
    finally:
        for name, func in saved.items():
            setattr(np.linalg, name, func)


def commutant_nullity_reference(gens, tol: float = 1e-9) -> int:
    """Kronecker reference for has_trivial_centralizer: the commutant's dimension.

    kron(G, I) - kron(I, G) is S -> GS - SG on row-major vec(S); the blocks of
    every generator are stacked into one (k d^2, d^2) matrix, and its singular
    values at most tol * max(1, largest) are counted.
    """
    d = gens[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g) for g in gens])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv <= tol * max(1.0, sv[0])))


def simplex_observables_loop(d: int) -> list[np.ndarray]:
    """Reference loop for simplex_observables: 2 v v^T - I, one np.outer per vector."""
    eye = np.eye(d)
    return [2.0 * np.outer(v, v) - eye for v in simplex_vectors(d)]


def pair_observables_loop(d: int) -> dict[tuple[int, int], np.ndarray]:
    """Reference loop for pair_observables: 2 w w^T - I, one np.outer per pair j < k."""
    vs = simplex_vectors(d)
    eye = np.eye(d)
    scale = np.sqrt(d / (2.0 * (d + 1.0)))
    out = {}
    for j in range(d + 1):
        for k in range(j + 1, d + 1):
            w = scale * (vs[j] - vs[k])
            out[(j, k)] = 2.0 * np.outer(w, w) - eye
    return out


def binary_family_loop(observables) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference loop for binary_family: the projections (I + O)/2 and (I - O)/2,
    formed one validated observable at a time."""
    obs = require_binary_observables(observables)
    eye = np.eye(obs.shape[-1])
    return [(0.5 * (eye + o), 0.5 * (eye - o)) for o in obs]


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


def table_items(table: CorrelationTable) -> list:
    """((x, j, y, k), value) for every entry, keyed from the table's labels."""
    return [
        (row + col, complex(table.values[r, c]))
        for r, row in enumerate(table.rows)
        for c, col in enumerate(table.cols)
    ]


def read_table_csv(path) -> CorrelationTable:
    """The correlation table in a file that table_to_csv wrote, read by csv.reader."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["x", "j", "y", "k", "re", "im"]
    keys = [tuple(map(int, r[:4])) for r in rows]
    row_labels = tuple(sorted({key[:2] for key in keys}))
    col_labels = tuple(sorted({key[2:] for key in keys}))
    assert keys == [r + c for r in row_labels for c in col_labels]  # row-major, no gaps
    values = np.array([complex(float(r[4]), float(r[5])) for r in rows])
    return CorrelationTable(
        row_labels, col_labels, values.reshape(len(row_labels), len(col_labels))
    )


# certify's two kinds of target at d = 3..6, as (d, kind) pairs
PIPELINE_TARGETS = [(d, kind) for d in range(3, 7) for kind in ("pair", "measurement")]


def pipeline_target_json(d: int, kind: str) -> dict:
    """A target file's contents: the pair observable T_01, or a 3-outcome measurement."""
    if kind == "pair":
        return {"matrix": pair_observables(d)[(0, 1)].tolist()}
    projs = random_projective_measurement(np.random.default_rng(d), d, 3)
    return {"projections": [p.tolist() for p in projs]}


def assert_same_strategy(a: Strategy, b: Strategy) -> None:
    """Equal state, labels and meta, and every projection equal bit for bit.

    tobytes tells -0.0 from 0.0, which np.array_equal does not.
    """
    assert np.array_equal(a.state.coeffs, b.state.coeffs)
    assert (a.alice_labels, a.bob_labels, a.meta) == (b.alice_labels, b.bob_labels, b.meta)
    for m, n in zip((*a.alice, *a.bob), (*b.alice, *b.bob), strict=True):
        assert m.outputs == n.outputs
        for p, q in zip(m.projections, n.projections):
            assert p.dtype == q.dtype and np.array_equal(p, q) and p.tobytes() == q.tobytes()
