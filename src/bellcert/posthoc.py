"""Post-hoc certification: feasibility criteria, trace certificates, bounds.

Given a Schmidt-diagonal reference state D and reference observables A_x, an
extra observable O is certified by exhibiting a positive definite P with
conj(O)^l P inside span{D A_x^j D} for every power l. Ruling such a P in or
out is a small semidefinite feasibility problem over the span; this module
decides it deterministically with a phase-I log-det barrier that returns
either a positive definite witness or a Farkas dual certificate, refines
feasible instances to the minimum-trace certificate Q = D^-1 P D^-1 with the
same damped-Newton barrier core, over the same symmetric combinations of the
same generators carried into that frame by congruence, and evaluates the
closed-form robustness bounds that consume those certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import (
    BadParams,
    DimMismatch,
    Infeasible,
    SolverStall,
    TrivialRegion,
)
from .jordan import SpanBasis
from .linalg import (
    as_square_matrix,
    derealify,
    realify,
    sym_eig,
)
from .strategies import SchmidtState, require_binary_observable, require_order_l


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of one feasibility check.

    Attributes
    ----------
    verdict:
        "feasible", "infeasible", or "marginal" (lambda_min_achieved within
        +/- certificate_tol of zero).
    lambda_min_achieved:
        Minimum eigenvalue of the symmetric combination at the unit-norm
        coefficient vector the solver returned (the witness direction when
        feasible); -inf when no combination satisfies the symmetry constraint
        at all. With one symmetric direction this is the exact optimum; with
        more, the barrier stops once the verdict is settled.
    witness:
        For a feasible real check, the span element H with O H symmetric
        positive definite; for a complex check, the Hermitian positive
        definite P itself. None when infeasible.
    coefficients:
        Coefficients of the witness combination over the span generators
        (D^2 first, then the D A D terms, in input order).
    certificate_tol:
        The feasibility threshold the verdict was decided against.
    power:
        Which power l of the target the result certifies.
    certificate:
        Farkas certificate, present on every infeasible verdict (and on a
        marginal one when it was found): a symmetric positive semidefinite Z
        with Tr Z = 1 and Tr(Z G) = 0 for every symmetric combination G of the
        generators target @ S_k (realified 2d x 2d for the order-L check), so
        that no such G is positive definite. None when feasible.
    """

    verdict: str
    lambda_min_achieved: float
    witness: np.ndarray | None
    coefficients: np.ndarray | None
    certificate_tol: float
    power: int = 1
    certificate: np.ndarray | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "power": self.power,
            "lambda_min_achieved": self.lambda_min_achieved,
            "certificate_tol": self.certificate_tol,
        }


# --------------------------------------------------------------------------
# core solver: is some symmetric combination of the generators positive definite?

# Central-path schedule shared by the phase-I and minimum-trace barriers: mu
# shrinks by _MU_SHRINK after each centering, down to n * mu = _MU_FLOOR
# (_MU_FLOOR * Tr Q for the minimum-trace barrier, whose objective is Tr Q).
_MU_SHRINK = 0.15
_MU_FLOOR = 5e-10


def _symmetric_combinations(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric combinations of gens, as (null, mats).

    null has orthonormal columns spanning {t : sum_k t_k gens[k] is
    symmetric}, and mats[j] = sum_k null[k, j] gens[k].
    """
    asym = (gens - gens.transpose(0, 2, 1)).reshape(len(gens), -1)
    # the thin factor already holds every row of vt unless asym.T is wide
    _, sv, vt = np.linalg.svd(asym.T, full_matrices=asym.shape[0] > asym.shape[1])
    cutoff = 1e-12 * max(1.0, float(sv[0]) if sv.size else 0.0)
    null = vt[int(np.sum(sv > cutoff)):].T  # (n, n - rank)
    mats = np.einsum("km,kij->mij", null, gens)
    return null, 0.5 * (mats + mats.transpose(0, 2, 1))


def _frobenius_basis(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A Frobenius-orthonormal symmetric basis B of span{mats}.

    Returns (U, sigma, B) with mats = U diag(sigma) B, keeping the singular
    values above 1e-12 sigma_max.
    """
    n = mats.shape[1]
    u, sig, vt = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    keep = sig > 1e-12 * sig[0]
    basis = vt[keep].reshape(-1, n, n)
    return u[:, keep], sig[keep], 0.5 * (basis + basis.transpose(0, 2, 1))


def _lambda_min(m: np.ndarray) -> float:
    # solver-internal: m is symmetric by construction
    return float(np.linalg.eigvalsh(m)[0])


def _farkas(z: np.ndarray, mats: np.ndarray) -> np.ndarray | None:
    """Project z onto {Z : Tr(Z M_j) = 0 for all j} and scale it to unit trace.

    Returns None unless the projection is positive definite, i.e. unless it
    is a certificate that no combination of the M_j is positive definite.
    """
    flat = mats.reshape(len(mats), -1)
    sym = 0.5 * (z + z.T)
    coef = np.linalg.lstsq(flat.T, sym.ravel(), rcond=None)[0]
    z = sym - np.tensordot(coef, mats, axes=1)
    if _lambda_min(z) <= 0.0:
        return None
    return z / np.trace(z)


def _best_sign(b: np.ndarray, settings: Settings) -> tuple[float, float, np.ndarray | None]:
    """The one-direction case: max of lambda_min(+b) and lambda_min(-b).

    Returns (value, sign, certificate). When b is indefinite, the
    certificate weights its extreme eigenvectors so that Tr(Z b) = 0.
    """
    vals, vecs = sym_eig(b, settings=settings)
    hi, lo = float(vals[0]), float(vals[-1])
    cert = None
    if lo < 0.0 < hi:
        u, w = vecs[:, -1], vecs[:, 0]
        cert = (hi * np.outer(u, u) - lo * np.outer(w, w)) / (hi - lo)
    if lo >= -hi:
        return lo, 1.0, cert
    return -hi, -1.0, cert


def _phase_one(
    mats: np.ndarray, settings: Settings
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Phase-I barrier for "is some sum_j t_j mats[j] positive definite?".

    Runs over a Frobenius-orthonormal basis B of the span, mats =
    U diag(sigma) B, so bounded matrices have bounded coordinates u; a point
    is reported by its least-norm coefficients t = U (u / sigma). Follows the
    central path of max s s.t. M(u) - s I > 0, Tr M(u) = 1, with u = u0 + V z
    and V spanning the traces' orthogonal complement; there nu = s + n mu
    bounds the optimum s* from above. Stops on lambda_min(M) / |t| > feas_tol
    (witness), on nu < 0 (Y - nu I with Y = mu (M - s I)^-1, projected, is a
    Farkas certificate), or on s >= -feas_tol |t| and nu |tau| <= feas_tol
    (marginal: with tau_j = Tr mats[j], no unit t beats s* |tau|). Once
    s > 0, or at the mu floor, _unit_ball_margin settles the margin.
    Returns (lambda_min(M) / |t|, t, certificate or None).
    """
    tol = settings.feas_tol
    n = mats.shape[1]
    u_svd, sig, basis = _frobenius_basis(mats)
    traces = np.einsum("kaa->k", basis)
    tau = float(np.linalg.norm(sig * traces))
    r = len(sig)
    u0 = traces / float(traces @ traces)
    perp = np.linalg.svd(traces[None, :])[2][1:]  # (r - 1, r)
    base = np.tensordot(u0, basis, axes=1)
    stack = np.concatenate([np.tensordot(perp, basis, axes=1), -np.eye(n)[None]])
    cost = -np.eye(r)[-1]

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, float, float]:
        u = u0 + x[:-1] @ perp
        lam = _lambda_min(np.tensordot(u, basis, axes=1))
        return u / sig, float(np.linalg.norm(u / sig)), lam

    x = np.zeros(r)
    w, norm, lam = evaluate(x)
    x[-1] = lam - 1.0  # lambda_min(M(u0) - s I) = 1
    mu = 1.0 / float(np.trace(np.linalg.inv(base - x[-1] * np.eye(n))))
    value = lam / norm
    while value <= tol:
        x = _centre(x, cost, base, stack, mu)
        w, norm, lam = evaluate(x)
        value = lam / norm
        if value > tol:
            break
        s, nu = float(x[-1]), float(x[-1]) + n * mu
        if nu < 0.0:
            slack = base + np.tensordot(x, stack, axes=1)
            cert = _farkas(mu * np.linalg.inv(slack) - nu * np.eye(n), basis)
            if cert is not None:
                return value, u_svd @ w, cert
        if s >= -tol * norm and nu * tau <= tol:
            break
        if s > 0.0 or n * mu <= _MU_FLOOR:
            found = _unit_ball_margin(sig[:, None, None] * basis, w / norm, settings)
            if found is not None:
                value, w = found
            elif value < -tol:
                raise SolverStall(
                    f"phase-I barrier reached n*mu = {n * mu:.1e} without a "
                    f"certificate (lambda_min {value:.3e})"
                )
            break
        mu *= _MU_SHRINK
    return value, u_svd @ w, None


def _unit_ball_margin(
    mats: np.ndarray, direction: np.ndarray, settings: Settings
) -> tuple[float, np.ndarray] | None:
    """Some |t| <= 1 with lambda_min(M(t)) / |t| > feas_tol, or None if none.

    Central path of max s s.t. blockdiag(M(t) - s I, [[I, t], [t^T, 1]]) > 0
    (the second block is |t| < 1) from t = direction / 2; with N the total
    block size, s + N mu bounds the optimum. Returns (that ratio, t).
    """
    m, n = mats.shape[0], mats.shape[1]
    size = n + m + 1
    stack = np.zeros((m + 1, size, size))
    stack[:m, :n, :n] = mats
    j = np.arange(m)
    stack[j, n + j, -1] = stack[j, -1, n + j] = 1.0
    stack[m, :n, :n] = -np.eye(n)
    base = np.diag(np.r_[np.zeros(n), np.ones(m + 1)])
    cost = -np.eye(m + 1)[m]
    x = np.append(0.5 * direction, 0.0)
    x[-1] = _lambda_min(np.tensordot(x[:-1], mats, axes=1)) - 1.0
    mu = 1.0 / float(np.trace(np.linalg.inv(base + np.tensordot(x, stack, axes=1))))
    while True:
        x = _centre(x, cost, base, stack, mu)
        t = x[:-1]
        value = _lambda_min(np.tensordot(t, mats, axes=1)) / np.linalg.norm(t)
        if value > settings.feas_tol:
            return value, t
        if x[-1] + size * mu <= settings.feas_tol or size * mu <= _MU_FLOOR:
            return None
        mu *= _MU_SHRINK


def _solve_pd_in_span(
    gens: Sequence[np.ndarray], *, settings: Settings
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Decide whether some symmetric combination of gens is positive definite.

    Only symmetric combinations are searched (the asymmetry null space is
    factored out first). Returns (lambda_min at the returned unit-norm
    coefficient vector, that vector in the ORIGINAL generator coordinates or
    None, Farkas certificate or None).
    """
    null, mats = _symmetric_combinations(np.asarray(gens))
    m = null.shape[1]
    n = mats.shape[1]
    if m == 0:
        return float("-inf"), None, np.eye(n) / n
    traces = np.einsum("jaa->j", mats)
    if m == 1:
        value, sign, cert = _best_sign(mats[0], settings)
        return value, sign * null[:, 0], cert
    if float(np.linalg.norm(traces)) <= 1e-12 * max(1.0, float(np.max(np.abs(mats)))):
        # every combination is traceless, so none is positive definite
        value, sign, _ = _best_sign(mats[0], settings)
        return value, sign * null[:, 0], _farkas(np.eye(n) / n, mats)
    value, t, cert = _phase_one(mats, settings)
    return value, null @ (t / np.linalg.norm(t)), cert


def _verdict(value: float, tol: float) -> str:
    if value > tol:
        return "feasible"
    if value < -tol:
        return "infeasible"
    return "marginal"


# --------------------------------------------------------------------------
# the two public feasibility checks


def _binary_generators(
    state: SchmidtState, refs: Sequence[np.ndarray], o: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The span elements S_k (D^2, then D A_x D) and the generators O S_k."""
    dm = state.matrix
    span = np.array([dm @ dm] + [dm @ a @ dm for a in refs])
    return span, o @ span


def posthoc_feasible_binary(
    state: SchmidtState,
    alice: Sequence[np.ndarray],
    target: np.ndarray,
    *,
    settings: Settings | None = None,
) -> FeasibilityResult:
    """Decide whether a binary observable passes the post-hoc criterion.

    Searches span{D^2, D A_x D} for an element H with target @ H symmetric
    positive definite; existence is equivalent to the target being the matrix
    sign of some span element, i.e. to the reference strategy certifying it.
    An infeasible verdict carries a Farkas certificate.

    Raises SolverStall when the barrier cannot settle the verdict (its Newton
    loop fails) - an honest "could not decide", never silently converted
    into a verdict.
    """
    s = settings or DEFAULTS
    o = require_binary_observable(target, s.eig_tol)
    refs = [require_binary_observable(a, s.eig_tol) for a in alice]
    d = state.dim
    if o.shape[0] != d or any(r.shape[0] != d for r in refs):
        raise DimMismatch("observable dimension does not match the state")
    span, gens = _binary_generators(state, refs, o)
    value, coeffs, certificate = _solve_pd_in_span(gens, settings=s)
    verdict = _verdict(value, s.feas_tol)
    feasible = verdict == "feasible"
    return FeasibilityResult(
        verdict=verdict,
        lambda_min_achieved=value,
        witness=np.tensordot(coeffs, span, axes=1) if feasible else None,
        coefficients=coeffs if feasible else None,
        certificate_tol=s.feas_tol,
        power=1,
        certificate=None if feasible else certificate,
    )


def sign_reachable(
    span: SpanBasis,
    target: np.ndarray,
    *,
    settings: Settings | None = None,
) -> bool:
    """Whether target = sgn(H) for some H in the span.

    Searches the span for an element H with target @ H symmetric positive
    definite; a marginal answer counts as not reachable. Raises SolverStall
    when the barrier cannot settle the answer.
    """
    s = settings or DEFAULTS
    value, _, _ = _solve_pd_in_span(target @ span.basis, settings=s)
    return value > s.feas_tol


def _span_generators_complex(
    state: SchmidtState, alice_powers: Sequence[np.ndarray]
) -> np.ndarray:
    dm = state.matrix.astype(complex)
    gens = [dm @ dm]
    for a in alice_powers:
        m = as_square_matrix(a, allow_complex=True).astype(complex)
        if m.shape[0] != state.dim:
            raise DimMismatch("reference operator dimension does not match the state")
        gens.append(dm @ m @ dm)
    return np.array(gens)


def _power_generators(span: np.ndarray, u: np.ndarray, power: int) -> np.ndarray:
    """Realified generators of P in span{W^dag S_k} over C, W = conj(u)^power.

    Each W^dag S_k contributes itself and i W^dag S_k, so that real
    coefficients (interleaved real and imaginary parts) cover the complex span.
    """
    base = np.linalg.matrix_power(u.conj(), power).conj().T @ span
    return np.array([realify(m) for b in base for m in (b, 1j * b)])


def posthoc_feasible_general(
    state: SchmidtState,
    alice_powers: Sequence[np.ndarray],
    target: np.ndarray,
    outputs: int,
    *,
    settings: Settings | None = None,
) -> list[FeasibilityResult]:
    """Run the order-L criterion: one feasibility check per power l = 1..L-1.

    ``alice_powers`` lists the reference operators whose D-sandwiched images
    span the constraint space - typically every nontrivial power A_x^j of each
    reference observable. The target must be unitary of order ``outputs``
    (raises NotOrderL). Power l asks for a Hermitian positive definite P with
    conj(target)^l P in the complex span; the l = 0 instance is omitted since
    P = D^2 always witnesses it.

    The search realifies the complex problem ([[Re,-Im],[Im,Re]] embedding),
    which turns Hermitian positive definite into symmetric positive definite
    and lets one real solver core serve every case; Farkas certificates are
    therefore realified 2d x 2d matrices.
    """
    s = settings or DEFAULTS
    u = require_order_l(target, outputs, s.eig_tol)
    span = _span_generators_complex(state, alice_powers)
    results: list[FeasibilityResult] = []
    for power in range(1, outputs):
        gens = _power_generators(span, u, power)
        value, coeffs, certificate = _solve_pd_in_span(gens, settings=s)
        verdict = _verdict(value, s.feas_tol)
        witness = None
        complex_coeffs = None
        if verdict == "feasible":
            complex_coeffs = coeffs[0::2] + 1j * coeffs[1::2]
            witness = derealify(np.tensordot(coeffs, gens, axes=1))
        results.append(
            FeasibilityResult(
                verdict=verdict,
                lambda_min_achieved=value,
                witness=witness,
                coefficients=complex_coeffs,
                certificate_tol=s.feas_tol,
                power=power,
                certificate=None if verdict == "feasible" else certificate,
            )
        )
    return results


# --------------------------------------------------------------------------
# minimum-trace certificate


def min_trace_Q(
    state: SchmidtState,
    alice_powers: Sequence[np.ndarray],
    target: np.ndarray,
    outputs: int = 2,
    power: int = 1,
    *,
    settings: Settings | None = None,
) -> tuple[float, np.ndarray]:
    """Minimum-trace normalized certificate for one power of the criterion.

    Solves min Tr Q over Hermitian Q >= I subject to conj(target)^power D Q D
    lying in span{D^2, D A D}. The feasible set is the congruence
    Q = D^-1 P D^-1 of the feasibility check's own parametrization: P runs
    over the symmetric combinations of its generators (realified, with
    D^-1 replaced by diag(1/lambda, 1/lambda), for the order-L check), and
    the barrier starts from the check's witness, so the robustness bound can
    consume Tr Q and lambda_min(Q) = 1.

    Runs the feasibility check itself and raises Infeasible when it fails,
    and SolverStall if the barrier Newton iteration cannot make progress. The
    path-following is deterministic, so repeated calls agree to well below
    1e-8.
    """
    s = settings or DEFAULTS
    if not (1 <= power < outputs):
        raise BadParams(f"power must lie in [1, {outputs - 1}]")
    is_real = (
        not np.iscomplexobj(np.asarray(target))
        and all(not np.iscomplexobj(np.asarray(a)) for a in alice_powers)
        and outputs == 2
    )
    if is_real:
        feasibility = posthoc_feasible_binary(
            state, list(alice_powers), target, settings=s
        )
    else:
        feasibility = posthoc_feasible_general(
            state, alice_powers, target, outputs, settings=s
        )[power - 1]
    if not feasibility.feasible:
        raise Infeasible(
            f"criterion infeasible at power {power}: "
            f"lambda_min {feasibility.lambda_min_achieved:.3e} "
            f"(verdict {feasibility.verdict})"
        )
    coeffs = feasibility.coefficients
    scale = 1.0 / state.coeffs
    if is_real:
        o = require_binary_observable(target, s.eig_tol)
        refs = [require_binary_observable(a, s.eig_tol) for a in alice_powers]
        gens = _binary_generators(state, refs, o)[1]
    else:
        u = require_order_l(target, outputs, s.eig_tol)
        gens = _power_generators(_span_generators_complex(state, alice_powers), u, power)
        coeffs = np.column_stack([coeffs.real, coeffs.imag]).ravel()
        scale = np.tile(scale, 2)

    # Q-frame directions D^-1 M D^-1 over the symmetric combinations M, and
    # the witness's coordinates in their orthonormal basis
    null, mats = _symmetric_combinations(gens)
    u_svd, sig, basis = _frobenius_basis(scale[:, None] * mats * scale)
    n = basis.shape[1]
    traces = state.dim / n * np.einsum("kaa->k", basis)  # Tr Q, not the realified trace
    c = sig * (u_svd.T @ (null.T @ coeffs))
    lam0 = _lambda_min(np.tensordot(c, basis, axes=1))
    if lam0 <= 0.0:
        raise SolverStall("witness lost positivity in the Q frame")
    c *= 2.0 / lam0  # lambda_min(Q) = 2 > 1

    # central path of Tr Q - mu log det(Q - I), stopped relative to Tr Q
    minus_eye = -np.eye(n)
    mu = max(1.0, float(traces @ c) / n)
    while True:
        c = _centre(c, traces, minus_eye, basis, mu)
        if n * mu <= _MU_FLOOR * max(1.0, float(traces @ c)):
            break
        mu *= _MU_SHRINK
    q_final = np.tensordot(c, basis, axes=1)
    if is_real:
        q_out: np.ndarray = 0.5 * (q_final + q_final.T)
    else:
        q_out = derealify(q_final)
        q_out = 0.5 * (q_out + q_out.conj().T)
    return float(traces @ c), q_out


def barrier_derivatives(k: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -log det(S0 + sum_i c_i B_i) with respect to c.

    ``k`` is the inverse of that slack at the current point and ``mats``
    stacks the symmetric directions B_i, shape (m, n, n). Returns (g, H) with
    g_i = -Tr(K B_i) and H_ij = Tr(K B_i K B_j) = <K B_i, (K B_j)^T>, both
    from one stacked K B_i; H is a single GEMM.
    """
    m = len(mats)
    km = k @ mats
    return -np.einsum("iaa->i", km), km.reshape(m, -1) @ km.transpose(0, 2, 1).reshape(m, -1).T


def _centre(
    x: np.ndarray, cost: np.ndarray, base: np.ndarray, stack: np.ndarray, mu: float
) -> np.ndarray:
    """Minimize cost @ x - mu log det S(x), S(x) = base + sum_i x_i stack[i].

    Damped Newton from a strictly feasible x; the backtracking line search
    keeps S(x) positive definite and accepts only a strict decrease, so it
    stops once rounding hides any progress. The accepted trial's slack and
    log det carry into the next step, so each point is factored once. Raises
    SolverStall when the loop does not converge.
    """
    flat = stack.reshape(len(stack), -1)
    slack = base + (x @ flat).reshape(base.shape)
    logdet = _logdet(slack)
    for _newton in range(80):
        try:
            g_bar, h_bar = barrier_derivatives(np.linalg.inv(slack), stack)
            grad = cost + mu * g_bar
            hess = 0.5 * mu * (h_bar + h_bar.T) + 1e-13 * np.eye(x.size)
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise SolverStall("barrier Newton system is singular") from exc
        decrement = float(-grad @ step)
        if decrement <= 2e-11:
            return x
        f_cur = float(cost @ x) - mu * logdet
        alpha = 1.0
        while alpha > 1e-14:
            trial = x + alpha * step
            trial_slack = base + (trial @ flat).reshape(base.shape)
            trial_logdet = _logdet(trial_slack)
            if trial_logdet is not None and (
                float(cost @ trial) - mu * trial_logdet < f_cur - 1e-4 * alpha * decrement
            ):
                x, slack, logdet = trial, trial_slack, trial_logdet
                break
            alpha *= 0.5
        else:
            return x
    raise SolverStall("barrier Newton loop did not converge")


def _logdet(m: np.ndarray) -> float | None:
    """log det M via Cholesky; None when M is not positive definite."""
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return float(2.0 * np.sum(np.log(np.diag(chol))))


# --------------------------------------------------------------------------
# robustness bounds


@dataclass(frozen=True)
class RobustnessParams:
    """Inputs of the closed-form robustness bound.

    n reference observables with Gram matrix minimum eigenvalue
    ``lambda_min_gram``; ``trace_q``/``lambda_min_q`` from the certificate;
    ``lambda_max_schmidt``/``kappa_schmidt`` the largest Schmidt coefficient
    and the ratio of extreme Schmidt coefficients; ``epsilon`` the observable
    error, ``delta`` the correlation error.
    """

    n: int
    lambda_min_gram: float
    trace_q: float
    lambda_min_q: float
    lambda_max_schmidt: float
    kappa_schmidt: float
    epsilon: float
    delta: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda_min_gram": self.lambda_min_gram,
            "trace_q": self.trace_q,
            "lambda_min_q": self.lambda_min_q,
            "lambda_max_schmidt": self.lambda_max_schmidt,
            "kappa_schmidt": self.kappa_schmidt,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RobustnessParams":
        return cls(
            n=int(raw["n"]),
            lambda_min_gram=float(raw["lambda_min_gram"]),
            trace_q=float(raw["trace_q"]),
            lambda_min_q=float(raw["lambda_min_q"]),
            lambda_max_schmidt=float(raw["lambda_max_schmidt"]),
            kappa_schmidt=float(raw["kappa_schmidt"]),
            epsilon=float(raw["epsilon"]),
            delta=float(raw["delta"]),
        )


def _validate_robustness(p: RobustnessParams) -> None:
    if p.n < 1:
        raise BadParams("need at least one reference observable")
    if p.lambda_min_gram <= 0.0:
        raise BadParams("Gram minimum eigenvalue must be positive")
    if p.lambda_min_q <= 0.0 or p.trace_q < p.lambda_min_q:
        raise BadParams("certificate trace/eigenvalue values are inconsistent")
    if p.lambda_max_schmidt <= 0.0 or p.lambda_max_schmidt > 1.0:
        raise BadParams("largest Schmidt coefficient must lie in (0, 1]")
    if p.kappa_schmidt < 1.0:
        raise BadParams("Schmidt condition number must be >= 1")
    if p.epsilon < 0.0 or p.delta < 0.0:
        raise BadParams("error parameters must be nonnegative")


def robustness_bound(
    params: RobustnessParams, *, settings: Settings | None = None
) -> float:
    """Distance bound on the recovered observable in the noisy regime.

    epsilon' = (n/lG)^(1/4) * sqrt(2 (TrQ/lQ) kappa)
               * sqrt((2 sqrt(TrQ/lQ) lmaxD + c) epsilon + delta) + epsilon

    with c = ``settings.robustness_constant``. Zero exactly when
    epsilon = delta = 0, and monotone in both error parameters.
    """
    s = settings or DEFAULTS
    _validate_robustness(params)
    ratio = params.trace_q / params.lambda_min_q
    prefactor = (params.n / params.lambda_min_gram) ** 0.25 * np.sqrt(
        2.0 * ratio * params.kappa_schmidt
    )
    inner = (
        2.0 * np.sqrt(ratio) * params.lambda_max_schmidt + s.robustness_constant
    ) * params.epsilon + params.delta
    return float(prefactor * np.sqrt(inner) + params.epsilon)


def vector_recovery_bound(
    n: int,
    lambda_min_gram: float,
    epsilon: float,
    delta: float,
    reference_norm: float,
) -> float:
    """Error bound for recovering a vector from inner products with a frame.

    For n linearly independent reference vectors with Gram minimum eigenvalue
    ``lambda_min_gram``, a vector within the reference span whose norm does
    not exceed ``reference_norm``, per-vector perturbations below epsilon, and
    inner-product errors below delta:

    ||v - v_ref|| <= (4n/lG)^(1/4) * sqrt(eps*r + delta) * sqrt(r),  r = ||v_ref||.
    """
    if n < 1:
        raise BadParams("need at least one reference vector")
    if lambda_min_gram <= 0.0:
        raise BadParams("Gram minimum eigenvalue must be positive")
    if epsilon < 0.0 or delta < 0.0:
        raise BadParams("error parameters must be nonnegative")
    if reference_norm <= 0.0:
        raise BadParams("reference norm must be positive")
    return float(
        (4.0 * n / lambda_min_gram) ** 0.25
        * np.sqrt(epsilon * reference_norm + delta)
        * np.sqrt(reference_norm)
    )


# --------------------------------------------------------------------------
# the two-dimensional analytic family


def analytic_family_region(gamma: float) -> float:
    """Largest |a| for which the one-reference family at angle gamma is nontrivial."""
    if not 0.0 < gamma < np.pi / 4.0:
        raise BadParams("gamma must lie strictly inside (0, pi/4)")
    return 1.0 / (np.cos(gamma) * np.sin(gamma))


def analytic_family_2d(
    gamma: float, a: float, *, settings: Settings | None = None
) -> np.ndarray:
    """Closed form for sgn(X + a D^2) at Schmidt angle gamma.

    D = diag(cos gamma, sin gamma) and X the symmetric flip; every observable
    certified by the single reference X arises this way. With g = cos(gamma)
    and z = a (2g^2 - 1) the image is [[z, 2], [2, -z]] / sqrt(4 + z^2).

    Raises BadParams for gamma outside (0, pi/4) and TrivialRegion when
    |a| > 1/(cos gamma sin gamma), where the sign image collapses to +/-I.
    """
    bound = analytic_family_region(gamma)
    if abs(a) > bound:
        raise TrivialRegion(
            f"|a| = {abs(a):.6g} exceeds the nontrivial bound {bound:.6g}"
        )
    g = np.cos(gamma)
    z = a * (2.0 * g * g - 1.0)
    s = np.hypot(2.0, z)
    return np.array([[z / s, 2.0 / s], [2.0 / s, -z / s]])
