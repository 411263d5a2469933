"""The convex core: is some Hermitian real combination of a stack positive definite?

Every stage of the search works on one Frobenius-orthonormal basis of the
Hermitian combinations of the check's generators, so a verdict depends on the
span alone, not on how the references list it. One log-det barrier decides it
deterministically: the central path of the best minimum eigenvalue over the
span's unit ball, whose points give a positive definite witness and whose dual
gives a Farkas certificate. The minimum-trace barrier follows the same path.

The core takes a real symmetric stack (the binary check) and a complex
Hermitian one (the order-L check) alike, over real coefficients, so every
witness, Farkas certificate and Q is a d x d matrix.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .config import Settings
from .errors import SolverStall
from .linalg import extend_orthonormal_rows


# --------------------------------------------------------------------------
# core solver: is some Hermitian combination of the generators positive definite?

# Central-path schedule shared by the margin search and the minimum-trace
# barrier: mu shrinks by _MU_SHRINK after each centering, down to N * mu =
# MU_FLOOR for block size N (MU_FLOOR * Tr Q for the minimum-trace barrier).
_MU_SHRINK = 0.15
MU_FLOOR = 5e-10
# Centring: Newton decrement <= _DECREMENT_TOL within _MAX_NEWTON steps, line
# search halving down to _STEP_FLOOR, Armijo fraction, Newton-system ridge.
_MAX_NEWTON = 80
_DECREMENT_TOL = 2e-11
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-14
_RIDGE = 1e-13
# Numerical rank: singular values at or below this times max(1, largest)
# count as zero.
_RANK_CUTOFF = 1e-12


def _rank(sv: np.ndarray) -> int:
    return int(np.sum(sv > _RANK_CUTOFF * np.max(sv, initial=1.0)))


def hermitian_basis(
    gens: np.ndarray, scale: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A basis of the Hermitian real combinations of gens, as (coef, sigma, B).

    gens is a real or complex (m, n, n) stack. B is Frobenius-orthonormal
    (the dot product of the float views), coef (m, r) has orthonormal
    columns and sum_k coef[k, j] gens[k] = sigma_j B_j, so a dependency among
    the generators adds no direction. With scale, the sums are of
    diag(scale) gens[k] diag(scale) instead; which combinations are
    Hermitian is still read off the unscaled gens.
    """
    m, n = gens.shape[:2]
    asym = (gens - gens.conj().transpose(0, 2, 1)).reshape(m, -1).view(float)
    # the thin factor already holds every row of vt unless asym.T is wide
    _, sv, vt = np.linalg.svd(asym.T, full_matrices=m > asym.shape[1])
    null = vt[_rank(sv):].T
    mats = (null.T @ gens.reshape(m, -1)).reshape(-1, n, n)
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    if scale is not None:
        mats = scale[:, None] * mats * scale
    u, sigma, vt = np.linalg.svd(mats.reshape(-1, n * n).view(float), full_matrices=False)
    r = _rank(sigma)
    basis = vt[:r].view(mats.dtype).reshape(-1, n, n)
    return null @ u[:, :r], sigma[:r], 0.5 * (basis + basis.conj().transpose(0, 2, 1))


def lambda_min(m: np.ndarray) -> float:
    # no check: every caller passes a matrix that is Hermitian by construction
    return float(np.linalg.eigvalsh(m)[0])


def _farkas(z: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """Project z onto the orthogonal complement of span{basis}, at unit trace.

    basis is Frobenius-orthonormal. Returns None unless the projection is
    positive definite, i.e. unless it is a certificate that no real
    combination of the basis is positive definite.
    """
    herm = 0.5 * (z + z.conj().T)
    flat = basis.reshape(len(basis), -1).view(float)
    z = herm - np.tensordot(flat @ herm.ravel().view(float), basis, axes=1)
    if lambda_min(z) <= 0.0:
        return None
    return z / np.trace(z).real


def _best_sign(b: np.ndarray) -> tuple[float, float, np.ndarray | None]:
    """The one-direction case: max of lambda_min(+b) and lambda_min(-b).

    Returns (value, sign, certificate). When b is indefinite, the
    certificate weights its extreme eigenvectors so that Tr(Z b) = 0.
    """
    vals, vecs = np.linalg.eigh(b)
    lo, hi = float(vals[0]), float(vals[-1])
    cert = None
    if lo < 0.0 < hi:
        u, w = vecs[:, 0], vecs[:, -1]
        cert = (hi * np.outer(u, u.conj()) - lo * np.outer(w, w.conj())) / (hi - lo)
    if lo >= -hi:
        return lo, 1.0, cert
    return -hi, -1.0, cert


def _margin_search(
    sigma: np.ndarray, basis: np.ndarray
) -> Iterator[tuple[float, np.ndarray, float, np.ndarray | None]]:
    """Search span{basis} (Frobenius-orthonormal) for a positive definite element.

    Runs in coordinates w with M(w) = sum_k w_k sigma_k B_k, the generators'
    combination at coef @ w (of norm |w|) for hermitian_basis's coef.
    Yields (lambda_min(M) / |w|, w, bound, dual): first at the projection
    of I onto the span, or at B_0 when the span is traceless and so
    orthogonal to I (bound inf, dual I/n), then at each centre of max s
    s.t. blockdiag(M(w) - s I, [[I, w], [w^T, 1]]) > 0, where with N the
    total block size s + N mu bounds max_{|w| <= 1} lambda_min(M(w)) and
    the unit-trace dual Y = mu (M(w) - s I)^-1 has Tr(Y B_k) -> 0 as mu -> 0.
    I/n is that dual's mu -> inf end, the analytic centre, so when its
    projection off the span is positive definite it is already a Farkas
    certificate and no Newton step is needed. Ends once N mu reaches MU_FLOOR.
    """
    n, r = basis.shape[1], len(sigma)
    traces = np.einsum("kaa->k", basis).real
    norm2 = float(traces @ traces)
    u0 = traces / norm2 if norm2 > 0.0 else np.eye(r)[0]  # unit trace, or B_0
    lam = lambda_min(np.tensordot(u0, basis, axes=1))
    dual = np.eye(n, dtype=basis.dtype) / n
    yield lam / float(np.linalg.norm(u0 / sigma)), u0 / sigma, np.inf, dual
    dirs = sigma[:, None, None] * basis
    size = n + r + 1
    stack = np.zeros((r + 1, size, size), dtype=basis.dtype)
    stack[:r, :n, :n] = dirs
    j = np.arange(r)
    stack[j, n + j, -1] = stack[j, -1, n + j] = 1.0
    stack[r, :n, :n] = -np.eye(n)
    base = np.diag(np.r_[np.zeros(n), np.ones(r + 1)])
    x = np.append(np.zeros(r), -1.0)
    for x, mu in central_path(x, -np.eye(r + 1)[r], base, stack, 1.0 / size):
        w, s = x[:r], float(x[r])
        m_w = np.tensordot(w, dirs, axes=1)
        point = w if w.any() else np.eye(r)[0]  # a centre at w = 0 has no direction
        margin = lambda_min(np.tensordot(point, dirs, axes=1)) / float(np.linalg.norm(point))
        yield margin, point, s + size * mu, mu * np.linalg.inv(m_w - s * np.eye(n))
        if size * mu <= MU_FLOOR:
            return


def best_margin(
    sigma: np.ndarray, basis: np.ndarray, settings: Settings
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """The margin search over span{basis}, as (margin, w, certificate).

    No direction gives (-inf, None, I / n), and one _best_sign's answer. With
    more, _margin_search (w is in its coordinates) runs until a margin above
    feas_tol, a dual that _farkas projects to a certificate, or a bound at
    most feas_tol. Its first iterate's dual is I/n: when I's projection off
    the span is positive definite, the search stops there, before any
    Newton step, with that projection at unit trace as the certificate and
    the margin at I's projection onto the span (at B_0 for a traceless span).
    """
    tol = settings.feas_tol
    n = basis.shape[1]
    if len(sigma) == 0:
        return float("-inf"), None, np.eye(n) / n
    if len(sigma) == 1:
        value, sign, cert = _best_sign(sigma[0] * basis[0])
        return value, np.array([sign]), cert
    cert = None
    for value, w, bound, dual in _margin_search(sigma, basis):
        if (
            value > tol
            or (dual is not None and (cert := _farkas(dual, basis)) is not None)
            or bound <= tol
        ):
            break
    return value, w, cert


def _complement_certificate(basis: np.ndarray, settings: Settings) -> np.ndarray | None:
    """A Farkas certificate for span{basis} found on its orthogonal complement.

    Searches the complement in the symmetric (for a complex basis,
    Hermitian) matrices, spanned by E_ab + E_ba (and i(E_ab - E_ba)), for a
    positive definite element and returns it at unit trace; None if the
    search's bound drops to feas_tol first.
    """
    n = basis.shape[1]
    units = np.eye(n * n).reshape(-1, n, n)
    herm = units + units.transpose(0, 2, 1)
    if np.iscomplexobj(basis):
        herm = np.concatenate([herm, 1j * (units - units.transpose(0, 2, 1))])
    rows, added = extend_orthonormal_rows(
        basis.reshape(len(basis), -1).view(float),
        herm.reshape(len(herm), -1).view(float),
        _RANK_CUTOFF,
    )
    if added == 0:
        return None
    comp = rows[len(basis) :].view(basis.dtype).reshape(-1, n, n)
    comp = 0.5 * (comp + comp.conj().transpose(0, 2, 1))
    for value, w, bound, _ in _margin_search(np.ones(len(comp)), comp):
        if value > 0.0 and (cert := _farkas(np.tensordot(w, comp, axes=1), basis)) is not None:
            return cert
        if bound <= settings.feas_tol:
            break
    return None


def solve_pd_in_span(
    gens: Sequence[np.ndarray], *, settings: Settings
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Decide whether some real combination of gens is positive definite.

    gens is a real or complex stack; only its Hermitian (for real gens,
    symmetric) combinations are searched, over hermitian_basis. A margin
    below -feas_tol that best_margin leaves without a certificate takes
    one from the span's complement, or raises SolverStall. Returns
    (lambda_min at the returned unit-norm coefficient vector, that vector
    over the ORIGINAL generators or None, Farkas certificate or None).
    """
    coef, sigma, basis = hermitian_basis(np.asarray(gens))
    value, w, cert = best_margin(sigma, basis, settings)
    if value < -settings.feas_tol and cert is None:
        cert = _complement_certificate(basis, settings)
        if cert is None:
            raise SolverStall(
                f"margin search ended at lambda_min {value:.3e} without a certificate"
            )
    return value, None if w is None else coef @ (w / np.linalg.norm(w)), cert


def barrier_derivatives(k: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -log det(S0 + sum_i c_i B_i) with respect to c.

    ``k`` is the inverse of that slack at the current point and ``mats``
    stacks the symmetric or Hermitian directions B_i, shape (m, n, n), over
    real c. Returns (g, H) with g_i = -Tr(K B_i) and H_ij = Tr(K B_i K B_j) =
    <K B_i, (K B_j)^T>, both real and from one stacked K B_i; H is a single
    GEMM.
    """
    m = len(mats)
    km = k @ mats
    hess = km.reshape(m, -1) @ km.transpose(0, 2, 1).reshape(m, -1).T
    return -np.einsum("iaa->i", km).real, hess.real


def central_path(
    x: np.ndarray, cost: np.ndarray, base: np.ndarray, stack: np.ndarray, mu: float
) -> Iterator[tuple[np.ndarray, float]]:
    """Central path of cost @ x - mu log det S(x), S(x) = base + sum_i x_i stack[i].

    Yields (x, mu) at each centre: damped Newton from a strictly feasible x,
    whose line search keeps S(x) positive definite and stops on no strict
    decrease. Resumed, it shrinks mu and first takes the tangent step, exact
    where the path is linear in mu. Raises SolverStall if a centring fails.
    """
    flat = stack.reshape(len(stack), -1)
    slack = base + (x @ flat).reshape(base.shape)
    logdet = _logdet(slack)

    def search(dx: np.ndarray, slope: float) -> bool:
        """Move x to the first x + alpha dx, alpha = 1, 1/2, ..., with Armijo decrease."""
        nonlocal x, slack, logdet
        f_cur = float(cost @ x) - mu * logdet
        alpha = 1.0
        while alpha > _STEP_FLOOR:
            trial = x + alpha * dx
            trial_slack = base + (trial @ flat).reshape(base.shape)
            trial_logdet = _logdet(trial_slack)
            if trial_logdet is not None and (
                float(cost @ trial) - mu * trial_logdet < f_cur - _ARMIJO * alpha * slope
            ):
                x, slack, logdet = trial, trial_slack, trial_logdet
                return True
            alpha *= 0.5
        return False

    while True:
        for _newton in range(_MAX_NEWTON):
            try:
                g_bar, h_bar = barrier_derivatives(np.linalg.inv(slack), stack)
                grad = cost + mu * g_bar
                hess = 0.5 * mu * (h_bar + h_bar.T) + _RIDGE * np.eye(x.size)
                # the Newton step and H^-1 g_bar from one factorization
                step, tangent = np.linalg.solve(hess, np.column_stack([-grad, g_bar])).T
            except np.linalg.LinAlgError as exc:
                raise SolverStall("barrier Newton system is singular") from exc
            decrement = float(-grad @ step)
            if decrement <= _DECREMENT_TOL or not search(step, decrement):
                break
        else:
            raise SolverStall("barrier Newton loop did not converge")
        yield x, mu
        # hess ~ mu h_bar, so this is (1 - sigma) h_bar^-1 g_bar
        tangent *= (1.0 - _MU_SHRINK) * mu
        mu *= _MU_SHRINK
        slope = -float((cost + mu * g_bar) @ tangent)
        if slope > 0.0:
            search(tangent, slope)


def _logdet(m: np.ndarray) -> float | None:
    """log det M via Cholesky; None when M is not positive definite."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return float(2.0 * np.sum(np.log(np.diag(chol).real)))
