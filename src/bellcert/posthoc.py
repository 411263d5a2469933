"""Post-hoc certification: feasibility criteria, trace certificates, bounds.

Given a Schmidt-diagonal reference state D and reference observables A_x, an
extra observable O is certified by exhibiting a positive definite P with
conj(O)^l P inside span{D A_x^j D} for every power l. Each check first tries
the exact witness P = D^2, which exists exactly when D^-1 conj(O)^l D lies in
span{I, A_x^j}: one least-squares solve decides that, and it decides every
question of the certification pipeline, whose reference family spans every
symmetric matrix. Otherwise, ruling such a P in or out is a small
semidefinite feasibility problem over the span. Every stage of that search
works on one Frobenius-orthonormal basis of the Hermitian combinations of the
check's generators, so a verdict depends on the span alone, not on how the
references list it. One log-det barrier decides it deterministically: the
central path of the best minimum eigenvalue over the span's unit ball, whose
points give a positive definite witness and whose dual gives a Farkas
certificate. Feasible instances are refined to the minimum-trace certificate
Q = D^-1 P D^-1 with the same damped-Newton core, over the same basis carried
into that frame by congruence, and the closed-form robustness bounds consume
those certificates.

The solver core takes a real symmetric stack (the binary check) and a complex
Hermitian one (the order-L check) alike, over real coefficients, so every
witness, Farkas certificate and Q is a d x d matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULTS, Settings, json_numbers
from .errors import (
    BadParams,
    DimMismatch,
    Infeasible,
    SolverStall,
    TrivialRegion,
)
from .linalg import extend_orthonormal_rows
from .strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    generalized_observables,
    require_binary_observables,
    require_order_l,
)


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of one feasibility check.

    Attributes
    ----------
    verdict:
        "feasible", "infeasible", or "marginal" (lambda_min_achieved within
        +/- certificate_tol of zero).
    lambda_min_achieved:
        lambda_min(W^dag sum_k c_k S_k) / |c| at the coefficients c the check
        returned: for the exact witness P = D^2, lambda_min(P) / |c| at its
        least-norm c (O H = P on the binary check); otherwise at the solver's
        unit-norm coefficient vector (the witness direction when feasible),
        and -inf when no nonzero combination of the generators is Hermitian.
        With one Hermitian direction the solver's value is the exact optimum;
        with more, the barrier stops once the verdict is settled.
    witness:
        For a feasible binary check, the span element H with O H symmetric
        positive definite; for an order-L check, the d x d Hermitian positive
        definite P itself. None when infeasible.
    coefficients:
        Coefficients of the witness combination over the span generators
        (D^2 first, then the D A D terms, in input order): real for the
        binary check, complex (W P = sum_k c_k S_k) for the order-L one.
        When the generators are linearly dependent this is the least-norm
        representation. The solver's are of unit norm; the exact witness's
        represent P = D^2 itself.
    certificate_tol:
        The feasibility threshold the verdict was decided against.
    power:
        Which power l of the target the result certifies.
    certificate:
        Farkas certificate, present on every infeasible verdict (and on a
        marginal one when it was found): a d x d positive semidefinite Z,
        symmetric for the binary check and Hermitian for the order-L check,
        with Tr Z = 1 and Tr(Z G) = 0 for every Hermitian real combination G
        of the check's generators (target @ S_k, or W^dag S_k and i W^dag S_k),
        so that no such G is positive definite. None when feasible.
    trace_q, lambda_min_q:
        Tr Q and lambda_min(Q) of the minimum-trace certificate for this
        power; posthoc_check sets them when every power of its question is
        feasible, and they are None otherwise.
    """

    verdict: str
    lambda_min_achieved: float
    witness: np.ndarray | None
    coefficients: np.ndarray | None
    certificate_tol: float
    power: int = 1
    certificate: np.ndarray | None = None
    trace_q: float | None = None
    lambda_min_q: float | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    def to_json_dict(self) -> dict:
        """JSON fields; a non-finite lambda_min_achieved (-inf) becomes null.

        trace_q and lambda_min_q follow only when they are set.
        """
        value = self.lambda_min_achieved
        payload = {
            "verdict": self.verdict,
            "power": self.power,
            "lambda_min_achieved": value if np.isfinite(value) else None,
            "certificate_tol": self.certificate_tol,
        }
        if self.trace_q is not None:
            payload.update(trace_q=self.trace_q, lambda_min_q=self.lambda_min_q)
        return payload


# --------------------------------------------------------------------------
# core solver: is some Hermitian combination of the generators positive definite?

# Central-path schedule shared by the margin search and the minimum-trace
# barrier: mu shrinks by _MU_SHRINK after each centering, down to N * mu =
# _MU_FLOOR for block size N (_MU_FLOOR * Tr Q for the minimum-trace barrier).
_MU_SHRINK = 0.15
_MU_FLOOR = 5e-10
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


def _hermitian_basis(
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


def _lambda_min(m: np.ndarray) -> float:
    # solver-internal: m is Hermitian by construction
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
    if _lambda_min(z) <= 0.0:
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
    combination at coef @ w (of norm |w|) for _hermitian_basis's coef.
    Yields (lambda_min(M) / |w|, w, bound, dual): first at the projection
    of I onto the span (bound inf, no dual), then at each centre of max s
    s.t. blockdiag(M(w) - s I, [[I, w], [w^T, 1]]) > 0, where with N the
    total block size s + N mu bounds max_{|w| <= 1} lambda_min(M(w)) and
    the unit-trace dual Y = mu (M(w) - s I)^-1 has Tr(Y B_k) -> 0 as mu -> 0.
    Ends once N mu reaches _MU_FLOOR.
    """
    n, r = basis.shape[1], len(sigma)
    traces = np.einsum("kaa->k", basis).real
    if traces @ traces > 0.0:
        u0 = traces / float(traces @ traces)  # unit trace
        lam = _lambda_min(np.tensordot(u0, basis, axes=1))
        yield lam / float(np.linalg.norm(u0 / sigma)), u0 / sigma, np.inf, None
    dirs = sigma[:, None, None] * basis
    size = n + r + 1
    stack = np.zeros((r + 1, size, size), dtype=basis.dtype)
    stack[:r, :n, :n] = dirs
    j = np.arange(r)
    stack[j, n + j, -1] = stack[j, -1, n + j] = 1.0
    stack[r, :n, :n] = -np.eye(n)
    base = np.diag(np.r_[np.zeros(n), np.ones(r + 1)])
    x = np.append(np.zeros(r), -1.0)
    for x, mu in _central_path(x, -np.eye(r + 1)[r], base, stack, 1.0 / size):
        w, s = x[:r], float(x[r])
        m_w = np.tensordot(w, dirs, axes=1)
        point = w if w.any() else np.eye(r)[0]  # a centre at w = 0 has no direction
        margin = _lambda_min(np.tensordot(point, dirs, axes=1)) / float(np.linalg.norm(point))
        yield margin, point, s + size * mu, mu * np.linalg.inv(m_w - s * np.eye(n))
        if size * mu <= _MU_FLOOR:
            return


def _best_margin(
    sigma: np.ndarray, basis: np.ndarray, settings: Settings
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """The margin search over span{basis}, as (margin, w, certificate).

    No direction gives (-inf, None, I / n), and one _best_sign's answer. With
    more, _margin_search (w is in its coordinates) runs until a margin above
    feas_tol, a dual that _farkas projects to a certificate, or a bound at
    most feas_tol.
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


def _solve_pd_in_span(
    gens: Sequence[np.ndarray], *, settings: Settings
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Decide whether some real combination of gens is positive definite.

    gens is a real or complex stack; only its Hermitian (for real gens,
    symmetric) combinations are searched, over _hermitian_basis. A margin
    below -feas_tol that _best_margin leaves without a certificate takes
    one from the span's complement, or raises SolverStall. Returns
    (lambda_min at the returned unit-norm coefficient vector, that vector
    over the ORIGINAL generators or None, Farkas certificate or None).
    """
    coef, sigma, basis = _hermitian_basis(np.asarray(gens))
    value, w, cert = _best_margin(sigma, basis, settings)
    if value < -settings.feas_tol and cert is None:
        cert = _complement_certificate(basis, settings)
        if cert is None:
            raise SolverStall(
                f"margin search ended at lambda_min {value:.3e} without a certificate"
            )
    return value, None if w is None else coef @ (w / np.linalg.norm(w)), cert


# --------------------------------------------------------------------------
# the two public feasibility checks


def _span(state: SchmidtState, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Span elements S_k of a question ops = [target, *references]: D^2, then D A D.

    Every operator, the target included, must be d x d for the state's d
    (DimMismatch otherwise); the target itself adds no span element.
    """
    d = state.dim
    bad = [np.shape(a) for a in ops if np.shape(a) != (d, d)]
    if bad:
        raise DimMismatch(f"operator of shape {bad[0]} does not match the state's dimension {d}")
    dm = state.matrix
    refs = np.array(ops[1:]).reshape(-1, d, d)
    return np.concatenate([(dm @ dm)[None], dm @ refs @ dm])


def _generators(span: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The generators of a check's witness, from its frame W and span S_k.

    A real W (the binary check, W = O) gives W S_k. A complex W =
    conj(U)^power gives W^dag S_k and i W^dag S_k, interleaved, so that real
    coefficients cover the complex span of the W^dag S_k.
    """
    if np.isrealobj(w):
        return w @ span
    base = w.conj().T @ span
    return np.stack([base, 1j * base], axis=1).reshape(-1, *base.shape[1:])


def _feasibility_result(
    gens: np.ndarray, span: np.ndarray, power: int, settings: Settings
) -> FeasibilityResult:
    """Decide one check over its _generators and record the outcome.

    On the binary check (one generator per S_k) c is the solver's real
    coefficient vector t and the witness is H = sum_k c_k S_k. On the
    order-L check c pairs t's entries into complex numbers and the witness
    is P = sum_k c_k W^dag S_k, so that W P = sum_k c_k S_k.
    """
    value, t, certificate = _solve_pd_in_span(gens, settings=settings)
    tol = settings.feas_tol
    verdict = "feasible" if value > tol else "infeasible" if value < -tol else "marginal"
    if verdict != "feasible":
        return FeasibilityResult(verdict, value, None, None, tol, power, certificate)
    binary = len(gens) == len(span)
    c = t if binary else t[0::2] + 1j * t[1::2]
    members = span if binary else gens[0::2]
    return FeasibilityResult(verdict, value, np.tensordot(c, members, axes=1), c, tol, power)


def _decide(
    state: SchmidtState, ops: Sequence[np.ndarray], frames: Sequence[tuple], settings: Settings
) -> list[FeasibilityResult]:
    """Decide the checks of the question ops = [target, *references], one per (power, W) frame.

    The check asks for P > 0 with W P = sum_k c_k S_k. The binary check has
    the real W = O, real c and the witness H = sum_k c_k S_k (P = O H); the
    order-L check has the complex W = conj(U)^power, complex c and the
    witness P. First the exact witness P = D^2: it exists exactly when
    x = D^-1 W D lies in span{I, A_x}, and one least-squares solve of x
    against [I, *references] gives its least-norm coefficients c. It is
    accepted when the residual is at most membership_tol * max(1, |x|_F),
    W^dag sum_k c_k S_k is Hermitian to sym_tol relative to its largest
    entry, and its lambda_min / |c| (then lambda_min_achieved) exceeds
    feas_tol. Otherwise _feasibility_result decides the check. The span and
    the [I, *references] matrix are built once for every frame.
    """
    s = settings
    span = _span(state, ops)
    d, lam = state.dim, state.coeffs
    refs = np.concatenate([np.eye(d)[None], np.array(ops[1:]).reshape(-1, d, d)])
    refs = refs.reshape(len(refs), -1).T

    def decide(power: int, w: np.ndarray) -> FeasibilityResult:
        x = (w * (lam / lam[:, None])).ravel()  # x_ij = W_ij lam_j / lam_i
        c = np.linalg.lstsq(refs, x, rcond=None)[0]
        if np.linalg.norm(refs @ c - x) <= s.membership_tol * max(1.0, np.linalg.norm(x)):
            member = np.tensordot(c, span, axes=1)
            p = w.conj().T @ member
            if np.max(np.abs(p - p.conj().T)) <= s.sym_tol * np.max(np.abs(p)):
                value = _lambda_min(0.5 * (p + p.conj().T)) / float(np.linalg.norm(c))
                if value > s.feas_tol:
                    witness = member if np.isrealobj(w) else p
                    return FeasibilityResult("feasible", value, witness, c, s.feas_tol, power)
        return _feasibility_result(_generators(span, w), span, power, s)

    return [decide(power, w) for power, w in frames]


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
    loop fails, or it ends below -feas_tol with no certificate) - an honest
    "could not decide", never silently converted into a verdict.
    """
    s = settings or DEFAULTS
    obs = require_binary_observables([target, *alice], settings=s)
    return _decide(state, obs, [(1, obs[0])], s)[0]


def sign_reachable(
    questions: np.ndarray,
    target: np.ndarray,
    *,
    settings: Settings | None = None,
) -> bool:
    """Whether target = sgn(H) for some H in the span of a party's questions.

    questions is the (k, d, d) stack of the questions themselves, not an
    orthonormal basis of their span, whose rows drift off it by about
    eps / sigma. Searches the span for an element H with target @ H
    symmetric positive definite; a marginal answer counts as not reachable.
    A search that ends at or below feas_tol has proved the negative answer
    (by its bound or a Farkas certificate), so no complement search runs.
    Raises SolverStall only when the barrier's Newton loop fails.
    """
    s = settings or DEFAULTS
    _, sigma, basis = _hermitian_basis(target @ np.asarray(questions))
    return _best_margin(sigma, basis, s)[0] > s.feas_tol


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

    The search runs on the d x d Hermitian problem itself, over real
    coefficients of the generators W^dag S_k and i W^dag S_k, so witnesses
    and Farkas certificates are d x d Hermitian matrices.
    """
    s = settings or DEFAULTS
    u = require_order_l(target, outputs, settings=s)
    frames = [(power, np.linalg.matrix_power(u.conj(), power)) for power in range(1, outputs)]
    return _decide(state, [u, *alice_powers], frames, s)


def is_binary_question(
    target: np.ndarray, references: Sequence[np.ndarray], outputs: int
) -> bool:
    """Whether the binary check, not the order-L one, decides a question.

    True for two outcomes when the target and every reference operator are
    real-typed arrays; a complex-typed one sends the question to
    posthoc_feasible_general. posthoc_check and min_trace_Q both route here.
    """
    return outputs == 2 and not any(
        np.iscomplexobj(np.asarray(m)) for m in (target, *references)
    )


def posthoc_check(
    state: SchmidtState,
    references: Sequence[ProjectiveMeasurement],
    target: np.ndarray | ProjectiveMeasurement,
    *,
    settings: Settings | None = None,
) -> list[FeasibilityResult]:
    """Decide one post-hoc question: a target against reference measurements.

    A matrix target is a two-outcome observable; a measurement target is
    checked through its generalized observable A^(1), one power l = 1..L-1
    at a time. Each reference contributes its generalized observables A^(j),
    j >= 1, and is_binary_question picks the binary or the order-L check.
    When every power is feasible, each result carries the trace_q and
    lambda_min_q of its power's min_trace_Q certificate. A target with fewer
    than two outcomes raises BadParams.
    """
    s = settings or DEFAULTS
    outputs = 2
    if isinstance(target, ProjectiveMeasurement):
        # A^(1); a one-outcome target has only A^(0) = I, which require_order_l rejects
        outputs, target = target.outputs, generalized_observables(target)[:2][-1]
    powers = [a for m in references for a in generalized_observables(m)[1:]]
    if is_binary_question(target, powers, outputs):
        results = [posthoc_feasible_binary(state, powers, target, settings=s)]
    else:
        results = posthoc_feasible_general(state, powers, target, outputs, settings=s)
    if not all(r.feasible for r in results):
        return results
    quantified = []
    for r in results:
        trace_q, q = min_trace_Q(state, powers, target, outputs, r.power, settings=s)
        quantified.append(replace(r, trace_q=trace_q, lambda_min_q=_lambda_min(q)))
    return quantified


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
    over the Hermitian real combinations of its generators, and the barrier
    starts from the check's witness, so the robustness bound can consume
    Tr Q and lambda_min(Q) = 1. Q is d x d: real symmetric on the binary
    path, Hermitian on the order-L one (is_binary_question picks the path).

    Runs the feasibility check itself (for the order-L check, of ``power``
    alone) and raises Infeasible when it fails. When I lies in the Q-frame
    span, Q = I is the exact optimum and is returned with Tr Q = d without a
    barrier. The exit is taken, in Frobenius norm and at
    ``membership_tol * max(1, sqrt(d))`` (the rule of jordan.contains), when
    the check's witness in the Q frame, D^-1 P D^-1 scaled to lambda_min = 1,
    lies that near I: the exact witness P = D^2 decides every pipeline target
    against Bob's spanning family this way, with no span basis built. Else
    the Q-frame basis is built, and the exit is taken when I lies that near
    its projection onto the span. Otherwise a barrier follows the central
    path from twice that scaled witness projected onto the basis (only the
    witness matrix is read, not its coefficients), raising SolverStall if
    the start is not above I or its Newton iteration cannot make progress.
    All are deterministic, so repeated calls agree to well below 1e-8.
    """
    s = settings or DEFAULTS
    if not (1 <= power < outputs):
        raise BadParams(f"power must lie in [1, {outputs - 1}]")
    binary = is_binary_question(target, alice_powers, outputs)
    if binary:
        ops = require_binary_observables([target, *alice_powers], settings=s)
        w = ops[0]
        feasibility = posthoc_feasible_binary(state, list(alice_powers), target, settings=s)
    else:
        u = require_order_l(target, outputs, settings=s)
        ops, w = [u, *alice_powers], np.linalg.matrix_power(u.conj(), power)
        [feasibility] = _decide(state, ops, [(power, w)], s)
    if not feasibility.feasible:
        raise Infeasible(
            f"criterion infeasible at power {power}: "
            f"lambda_min {feasibility.lambda_min_achieved:.3e} "
            f"(verdict {feasibility.verdict})"
        )

    # the check's positive witness P in the Q frame, q0 = D^-1 P D^-1 at
    # lambda_min = 1. Q = I is the optimum when it lies in the span, since
    # Tr Q >= Tr I for every Q >= I; the exact witness P = D^2 gives q0 = I.
    n = state.dim
    p = w @ feasibility.witness if binary else feasibility.witness
    q0 = p / np.outer(state.coeffs, state.coeffs)
    q0 = 0.5 * (q0 + q0.conj().T)
    q0 /= _lambda_min(q0)
    eye = np.eye(n, dtype=q0.dtype)
    near = s.membership_tol * max(1.0, np.sqrt(n))
    if np.linalg.norm(q0 - eye) <= near:
        return float(n), eye

    # Q-frame directions D^-1 M D^-1 over the Hermitian combinations M
    _, _, basis = _hermitian_basis(_generators(_span(state, ops), w), 1.0 / state.coeffs)
    # Tr B_k = <B_k, I> are I's coordinates in the orthonormal basis. I can
    # lie in the span with a witness other than D^2: the exact one is passed
    # over when its margin is at most feas_tol.
    traces = np.einsum("kaa->k", basis).real
    if np.linalg.norm(np.tensordot(traces, basis, axes=1) - eye) <= near:
        return float(n), eye

    # start at 2 q0 (lambda_min(Q) = 2 > 1), projected onto the basis
    c = basis.reshape(len(basis), -1).view(float) @ (2.0 * q0).ravel().view(float)
    if _lambda_min(np.tensordot(c, basis, axes=1)) <= 1.0:
        raise SolverStall("the witness's projection onto the Q frame is not above I")

    # central path of Tr Q - mu log det(Q - I), stopped relative to Tr Q
    mu = max(1.0, float(traces @ c) / n)
    for c, mu in _central_path(c, traces, -np.eye(n), basis, mu):
        if n * mu <= _MU_FLOOR * max(1.0, float(traces @ c)):
            break
    q = np.tensordot(c, basis, axes=1)
    return float(traces @ c), 0.5 * (q + q.conj().T)


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


def _central_path(
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
        return asdict(self)

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RobustnessParams":
        """Read every field as a float from a JSON object of numbers (json_numbers).

        A missing field raises BadParams; robustness_bound checks that n is whole.
        """
        values = json_numbers(raw, "robustness parameters")
        missing = [f.name for f in fields(cls) if f.name not in values]
        if missing:
            raise BadParams(f"robustness parameters lack field(s): {', '.join(missing)}")
        return cls(**{f.name: values[f.name] for f in fields(cls)})


def _validate_robustness(p: RobustnessParams) -> None:
    # NaN passes every `< 0` test below
    for f in fields(p):
        if not np.isfinite(getattr(p, f.name)):
            raise BadParams(f"{f.name} must be finite, got {getattr(p, f.name)!r}")
    if p.n < 1 or p.n != int(p.n):
        raise BadParams("need a whole number n >= 1 of reference observables")
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
