"""Post-hoc certification: feasibility criteria, trace certificates, bounds.

Given a Schmidt-diagonal reference state D and reference observables A_x, an
extra observable O is certified by exhibiting a positive definite P with
conj(O)^l P inside span{D A_x^j D} for every power l. Ruling such a P in or
out is a small eigenvalue-optimization problem over the span; this module
solves it with a projected supergradient ascent, refines feasible instances
with a log-det barrier to the minimum-trace certificate, and evaluates the
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
    NotOrderL,
    SolverStall,
    TrivialRegion,
)
from .jordan import SpanBasis
from .linalg import (
    as_square_matrix,
    derealify,
    orthonormal_rows,
    realify,
    sym_eig,
)
from .strategies import SchmidtState, require_binary_observable


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of one feasibility check.

    Attributes
    ----------
    verdict:
        "feasible", "infeasible", or "marginal" (certified minimum eigenvalue
        within +/- certificate_tol of zero).
    lambda_min_achieved:
        Best minimum eigenvalue over unit-norm coefficient vectors; -inf when
        no combination satisfies the symmetry constraint at all.
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
    """

    verdict: str
    lambda_min_achieved: float
    witness: np.ndarray | None
    coefficients: np.ndarray | None
    certificate_tol: float
    power: int = 1

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
# core solver: max over the unit sphere of lambda_min of a symmetric pencil


def _symmetric_coefficient_subspace(gens: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal columns spanning {t : sum_k t_k G_k is symmetric}."""
    rows = np.array([(g - g.T).ravel() for g in gens])
    m = rows.T  # (d*d, n): columns are the asymmetry images
    u, sv, vt = np.linalg.svd(m)
    cutoff = 1e-12 * max(1.0, float(sv[0]) if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T  # (n, n - rank)


def _min_eig_and_vector(m: np.ndarray, settings: Settings) -> tuple[float, np.ndarray]:
    vals, vecs = sym_eig(m, settings=settings)
    return float(vals[-1]), vecs[:, -1]


@dataclass
class _AscentOutcome:
    value: float
    point: np.ndarray  # coefficients in the reduced (null-space) coordinates
    stalled: bool


def _ascend_min_eig(
    mats: Sequence[np.ndarray],
    start: np.ndarray,
    *,
    settings: Settings,
    maxiter: int,
) -> _AscentOutcome:
    """Maximize lambda_min(sum_j t_j mats[j]) over the unit sphere from `start`.

    Projected supergradient ascent with Polyak-style level steps: the target
    level sits `delta` above the incumbent and `delta` halves after each
    stretch of non-improving steps.
    """
    t = np.asarray(start, dtype=float)
    t = t / np.linalg.norm(t)

    def value_grad(point: np.ndarray) -> tuple[float, np.ndarray]:
        m = sum(c * b for c, b in zip(point, mats))
        val, u = _min_eig_and_vector(m, settings)
        grad = np.array([float(u @ b @ u) for b in mats])
        return val, grad

    best_val, _ = value_grad(t)
    best_t = t.copy()
    delta = 0.25 * max(1.0, abs(best_val))
    fails = 0
    stalled = True
    for _it in range(maxiter):
        val, grad = value_grad(t)
        if val > best_val + 1e-14:
            best_val, best_t = val, t.copy()
            fails = 0
        else:
            fails += 1
            if fails >= 10:
                delta *= 0.5
                fails = 0
        if delta < 1e-12:
            stalled = False  # converged: the level collapsed
            break
        if best_val > 100.0 * settings.feas_tol and delta < 1e-4:
            stalled = False  # clearly feasible and polished enough
            break
        g_tan = grad - np.dot(grad, t) * t
        gn = float(np.linalg.norm(g_tan))
        if gn < 1e-14:
            stalled = False  # stationary on the sphere
            break
        step = (best_val + delta - val) / (gn * gn)
        step = min(max(step, 1e-8), 10.0)
        t = t + step * g_tan
        t = t / np.linalg.norm(t)
    return _AscentOutcome(value=best_val, point=best_t, stalled=stalled)


def _solve_pd_in_span(
    gens: Sequence[np.ndarray],
    *,
    settings: Settings,
    seed: int,
    restarts: int,
    maxiter: int,
    preferred: Sequence[np.ndarray] = (),
) -> tuple[float, np.ndarray | None, bool]:
    """Find unit coefficients t maximizing lambda_min(sum t_k gens[k]).

    Only symmetric combinations are searched (the asymmetry null space is
    factored out first). Returns (best value, best coefficient vector in the
    ORIGINAL generator coordinates or None, stalled flag).
    """
    null = _symmetric_coefficient_subspace(gens)
    m = null.shape[1]
    if m == 0:
        return float("-inf"), None, False
    d = gens[0].shape[0]
    mats = []
    for j in range(m):
        acc = np.zeros((d, d))
        for k, g in enumerate(gens):
            if null[k, j] != 0.0:
                acc += null[k, j] * g
        mats.append(0.5 * (acc + acc.T))

    if m == 1:
        val_plus, _ = _min_eig_and_vector(mats[0], settings)
        val_minus, _ = _min_eig_and_vector(-mats[0], settings)
        if val_plus >= val_minus:
            return val_plus, null[:, 0].copy(), False
        return val_minus, -null[:, 0].copy(), False

    starts: list[np.ndarray] = []
    trace_dir = np.array([np.trace(b) for b in mats])
    if np.linalg.norm(trace_dir) > 1e-12:
        starts.append(trace_dir)
        starts.append(-trace_dir)
    for p in preferred:
        reduced = null.T @ np.asarray(p, dtype=float)
        if np.linalg.norm(reduced) > 1e-12:
            starts.append(reduced)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        starts.append(rng.standard_normal(m))

    best = _AscentOutcome(value=float("-inf"), point=np.zeros(m), stalled=False)
    any_stall = False
    for s0 in starts:
        out = _ascend_min_eig(mats, s0, settings=settings, maxiter=maxiter)
        any_stall = any_stall or out.stalled
        if out.value > best.value:
            best = out
        if best.value > 100.0 * settings.feas_tol:
            break  # certified with clear margin; no need for more restarts
    coeffs = null @ best.point
    undecided = any_stall and abs(best.value) <= 10.0 * settings.feas_tol
    return best.value, coeffs, undecided


def _verdict(value: float, tol: float) -> str:
    if value > tol:
        return "feasible"
    if value < -tol:
        return "infeasible"
    return "marginal"


# --------------------------------------------------------------------------
# the two public feasibility checks


def _span_generators_real(
    state: SchmidtState, alice: Sequence[np.ndarray]
) -> list[np.ndarray]:
    dm = state.matrix
    gens = [dm @ dm]
    for a in alice:
        gens.append(dm @ a @ dm)
    return gens


def posthoc_feasible_binary(
    state: SchmidtState,
    alice: Sequence[np.ndarray],
    target: np.ndarray,
    *,
    settings: Settings | None = None,
    seed: int = 0,
    restarts: int = 8,
    maxiter: int = 600,
) -> FeasibilityResult:
    """Decide whether a binary observable passes the post-hoc criterion.

    Searches span{D^2, D A_x D} for an element H with target @ H symmetric
    positive definite; existence is equivalent to the target being the matrix
    sign of some span element, i.e. to the reference strategy certifying it.

    Raises SolverStall when the ascent exhausts its budget inside the marginal
    band while still improving - an honest "could not decide", never silently
    converted into a verdict.
    """
    s = settings or DEFAULTS
    o = require_binary_observable(target, s.eig_tol)
    refs = [require_binary_observable(a, s.eig_tol) for a in alice]
    d = state.dim
    if o.shape[0] != d or any(r.shape[0] != d for r in refs):
        raise DimMismatch("observable dimension does not match the state")
    span = _span_generators_real(state, refs)
    gens = [o @ sp for sp in span]
    # prefer the D^2 direction: for honest targets O = sgn(H) the witness
    # often sits close to the state's own density direction
    preferred = [np.eye(len(span))[0]]
    value, coeffs, stalled = _solve_pd_in_span(
        gens,
        settings=s,
        seed=seed,
        restarts=restarts,
        maxiter=maxiter,
        preferred=preferred,
    )
    if stalled:
        raise SolverStall(
            f"feasibility ascent undecided after {maxiter} iterations "
            f"(best lambda_min {value:.3e})"
        )
    verdict = _verdict(value, s.feas_tol)
    witness = None
    if coeffs is not None and verdict != "infeasible":
        witness = sum(c * sp for c, sp in zip(coeffs, span))
        witness = np.asarray(witness)
    return FeasibilityResult(
        verdict=verdict,
        lambda_min_achieved=value,
        witness=witness if verdict == "feasible" else None,
        coefficients=coeffs if verdict == "feasible" else None,
        certificate_tol=s.feas_tol,
        power=1,
    )


def sign_reachable(
    span: SpanBasis,
    target: np.ndarray,
    *,
    settings: Settings | None = None,
    seed: int = 0,
) -> bool:
    """Whether target = sgn(H) for some H in the span.

    Searches the span for an element H with target @ H symmetric positive
    definite, starting from the projection of the target itself. Raises
    SolverStall when the ascent cannot decide inside the marginal band.
    """
    s = settings or DEFAULTS
    gens = [target @ b for b in span.basis]
    preferred = [span.rows() @ target.ravel()]
    value, _, stalled = _solve_pd_in_span(
        gens,
        settings=s,
        seed=seed,
        restarts=8,
        maxiter=600,
        preferred=preferred,
    )
    if stalled:
        raise SolverStall(
            f"reachability check undecided (best lambda_min {value:.3e})"
        )
    return value > s.feas_tol


def _require_order(u: np.ndarray, outputs: int, tol: float) -> np.ndarray:
    m = as_square_matrix(u, allow_complex=True).astype(complex)
    d = m.shape[0]
    if float(np.max(np.abs(m @ m.conj().T - np.eye(d)))) > tol:
        raise NotOrderL("target is not unitary")
    power = np.eye(d, dtype=complex)
    for _ in range(outputs):
        power = power @ m
    if float(np.max(np.abs(power - np.eye(d)))) > tol:
        raise NotOrderL(f"target does not have order {outputs}")
    return m


def _span_generators_complex(
    state: SchmidtState, alice_powers: Sequence[np.ndarray]
) -> list[np.ndarray]:
    dm = state.matrix.astype(complex)
    gens = [dm @ dm]
    for a in alice_powers:
        m = as_square_matrix(a, allow_complex=True).astype(complex)
        if m.shape[0] != state.dim:
            raise DimMismatch("reference operator dimension does not match the state")
        gens.append(dm @ m @ dm)
    return gens


def posthoc_feasible_general(
    state: SchmidtState,
    alice_powers: Sequence[np.ndarray],
    target: np.ndarray,
    outputs: int,
    *,
    settings: Settings | None = None,
    seed: int = 0,
    restarts: int = 8,
    maxiter: int = 600,
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
    and lets one real solver core serve every case.
    """
    s = settings or DEFAULTS
    u = _require_order(target, outputs, s.eig_tol)
    span = _span_generators_complex(state, alice_powers)
    n = len(span)
    results: list[FeasibilityResult] = []
    w = np.eye(u.shape[0], dtype=complex)
    ubar = u.conj()
    for power in range(1, outputs):
        w = w @ ubar
        wh = w.conj().T
        # P in span{W^dag S_i} over C: realify both S and iS for real coords
        gens: list[np.ndarray] = []
        for sp in span:
            base = wh @ sp
            gens.append(realify(base))
            gens.append(realify(1j * base))
        preferred = [np.eye(2 * n)[0]]
        value, coeffs, stalled = _solve_pd_in_span(
            gens,
            settings=s,
            seed=seed,
            restarts=restarts,
            maxiter=maxiter,
            preferred=preferred,
        )
        if stalled:
            raise SolverStall(
                f"feasibility ascent undecided at power {power} "
                f"(best lambda_min {value:.3e})"
            )
        verdict = _verdict(value, s.feas_tol)
        witness = None
        complex_coeffs = None
        if coeffs is not None and verdict == "feasible":
            complex_coeffs = coeffs[0::2] + 1j * coeffs[1::2]
            p_real = sum(c * g for c, g in zip(coeffs, gens))
            witness = derealify(np.asarray(p_real))
        results.append(
            FeasibilityResult(
                verdict=verdict,
                lambda_min_achieved=value,
                witness=witness,
                coefficients=complex_coeffs,
                certificate_tol=s.feas_tol,
                power=power,
            )
        )
    return results


# --------------------------------------------------------------------------
# minimum-trace certificate


def _hermitian_basis(d: int, complex_part: bool) -> list[np.ndarray]:
    basis: list[np.ndarray] = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = inv
            e[j, i] = inv
            basis.append(e)
            if complex_part:
                f = np.zeros((d, d), dtype=complex)
                f[i, j] = 1j * inv
                f[j, i] = -1j * inv
                basis.append(f)
    return basis


def _embed(m: np.ndarray) -> np.ndarray:
    v = np.asarray(m, dtype=complex).ravel()
    return np.concatenate([v.real, v.imag])


def min_trace_Q(
    state: SchmidtState,
    alice_powers: Sequence[np.ndarray],
    target: np.ndarray,
    outputs: int = 2,
    power: int = 1,
    *,
    settings: Settings | None = None,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Minimum-trace normalized certificate for one power of the criterion.

    Solves min Tr Q over Hermitian Q >= I subject to conj(target)^power D Q D
    lying in span{D^2, D A D}; Q = D^{-1} P D^{-1} rescales the feasibility
    witness so the robustness bound can consume Tr Q and lambda_min(Q) = 1.

    Raises Infeasible when the underlying criterion fails, and SolverStall if
    the barrier Newton iteration cannot make progress. The path-following is
    deterministic, so repeated calls agree to well below 1e-8.
    """
    s = settings or DEFAULTS
    if not (1 <= power < outputs):
        raise BadParams(f"power must lie in [1, {outputs - 1}]")
    d = state.dim

    is_real = (
        not np.iscomplexobj(np.asarray(target))
        and all(not np.iscomplexobj(np.asarray(a)) for a in alice_powers)
        and outputs == 2
    )

    # 1) feasibility and a strictly positive witness
    if is_real:
        feas = posthoc_feasible_binary(
            state, list(alice_powers), target, settings=s, seed=seed
        )
        witness_p = None
        if feas.feasible:
            o = require_binary_observable(target, s.eig_tol)
            witness_p = o @ feas.witness
            witness_p = 0.5 * (witness_p + witness_p.T)
        results = [feas]
        w_l = require_binary_observable(target, s.eig_tol).astype(complex)
        span = [m.astype(complex) for m in _span_generators_real(
            state, [require_binary_observable(a, s.eig_tol) for a in alice_powers]
        )]
    else:
        all_results = posthoc_feasible_general(
            state, alice_powers, target, outputs, settings=s, seed=seed
        )
        results = [r for r in all_results if r.power == power]
        witness_p = results[0].witness
        u = _require_order(target, outputs, s.eig_tol)
        w_l = np.linalg.matrix_power(u.conj(), power)
        span = _span_generators_complex(state, alice_powers)
    result = results[0]
    if not result.feasible:
        raise Infeasible(
            f"criterion infeasible at power {power}: "
            f"lambda_min {result.lambda_min_achieved:.3e} "
            f"(verdict {result.verdict})"
        )

    # 2) affine subspace {Q Hermitian : W D Q D in span}
    span_rows = []
    for sp in span:
        span_rows.append(_embed(sp))
        span_rows.append(_embed(1j * sp))
    q_span = orthonormal_rows(np.array(span_rows), 1e-12)
    dm = state.matrix.astype(complex)
    basis = _hermitian_basis(d, complex_part=not is_real)
    resid_rows = []
    for b in basis:
        vec = _embed(w_l @ dm @ b @ dm)
        vec = vec - q_span.T @ (q_span @ vec)
        resid_rows.append(vec)
    resid = np.array(resid_rows).T  # (embed_dim, n_basis)
    u_svd, sv, vt = np.linalg.svd(resid)
    cutoff = 1e-10 * max(1.0, float(sv[0]) if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    null = vt[rank:].T  # (n_basis, m)
    m_dim = null.shape[1]
    if m_dim == 0:
        raise Infeasible("constraint subspace for Q is empty")
    q_dirs = []
    for j in range(m_dim):
        acc = np.zeros((d, d), dtype=complex)
        for k, b in enumerate(basis):
            if null[k, j] != 0.0:
                acc += null[k, j] * b
        q_dirs.append(0.5 * (acc + acc.conj().T))

    # 3) realify (complex case) and set up the barrier problem
    if is_real:
        stack = np.array([q.real for q in q_dirs])
        weight = 1.0
        nu = d
    else:
        stack = np.array([realify(q) for q in q_dirs])
        weight = 0.5
        nu = 2 * d
    traces = weight * np.trace(stack, axis1=1, axis2=2)

    def assemble(cv: np.ndarray) -> np.ndarray:
        return np.tensordot(cv, stack, axes=1)

    # strictly feasible start from the witness: Q0 = D^-1 P D^-1 scaled
    dinv = np.diag(1.0 / state.coeffs)
    q0 = dinv @ witness_p @ dinv
    q0 = 0.5 * (q0 + np.conj(q0.T))
    flat = np.array([q.ravel() for q in q_dirs]).T
    c0, lstsq_resid, *_ = np.linalg.lstsq(
        np.vstack([flat.real, flat.imag]),
        np.concatenate([q0.ravel().real, q0.ravel().imag]),
        rcond=None,
    )
    recon = sum(c * q for c, q in zip(c0, q_dirs))
    if float(np.linalg.norm(recon - q0)) > 1e-6 * max(1.0, float(np.linalg.norm(q0))):
        raise SolverStall("feasibility witness does not parametrize into the Q subspace")
    lam0, _ = _min_eig_and_vector(assemble(c0), s)
    if lam0 <= 0.0:
        raise SolverStall("witness lost positivity during reparametrization")
    c = np.asarray(c0, dtype=float) * (2.0 / lam0)  # lambda_min(M(c)) = 2 > 1

    def is_interior(mat: np.ndarray) -> bool:
        try:
            np.linalg.cholesky(mat - np.eye(mat.shape[0]))
            return True
        except np.linalg.LinAlgError:
            return False

    mu = max(1.0, float(traces @ c) / nu)
    mu_floor = 5e-10
    while True:
        for _newton in range(80):
            m_cur = assemble(c)
            k = np.linalg.inv(m_cur - np.eye(m_cur.shape[0]))
            g_bar, h_bar = barrier_derivatives(k, stack)
            grad = traces + mu * g_bar
            hess = 0.5 * mu * (h_bar + h_bar.T) + 1e-13 * np.eye(m_dim)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError as exc:
                raise SolverStall("barrier Newton system is singular") from exc
            decrement = float(-grad @ step)
            if decrement <= 2e-11:
                break
            alpha = 1.0
            f_cur = float(traces @ c) - mu * _logdet_shifted(m_cur)
            moved = False
            while alpha > 1e-14:
                trial = c + alpha * step
                m_trial = assemble(trial)
                if is_interior(m_trial):
                    f_trial = float(traces @ trial) - mu * _logdet_shifted(m_trial)
                    if f_trial <= f_cur - 1e-4 * alpha * decrement:
                        c = trial
                        moved = True
                        break
                alpha *= 0.5
            if not moved:
                break
        else:
            raise SolverStall("barrier Newton loop did not converge")
        if mu * nu <= mu_floor:
            break
        mu *= 0.15
    q_final = assemble(c)
    objective = float(weight * np.trace(q_final))
    if is_real:
        q_out: np.ndarray = 0.5 * (q_final + q_final.T)
    else:
        q_out = derealify(q_final)
        q_out = 0.5 * (q_out + q_out.conj().T)
    return objective, q_out


def barrier_derivatives(k: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of -log det(sum_i c_i B_i - I) with respect to c.

    ``k`` is (M - I)^-1 at the current point and ``mats`` stacks the
    symmetric directions B_i, shape (m, n, n). Returns (g, H) with
    g_i = -Tr(K B_i) and H_ij = Tr(K B_i K B_j), both from one stacked K B_i.
    """
    km = k @ mats
    return -np.einsum("iaa->i", km), np.einsum("iab,jba->ij", km, km)


def _logdet_shifted(m: np.ndarray) -> float:
    """log det(M - I) via Cholesky; assumes M - I is positive definite."""
    chol = np.linalg.cholesky(m - np.eye(m.shape[0]))
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
