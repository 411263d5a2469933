"""Post-hoc certification: feasibility criteria, trace certificates, bounds.

Given a Schmidt-diagonal reference state D and reference observables A_x, an
extra observable O is certified by exhibiting a positive definite P with
conj(O)^l P inside span{D A_x^j D} for every power l. Each check first tries
the exact witness P = D^2, which exists exactly when D^-1 conj(O)^l D lies in
span{I, A_x^j}: one least-squares solve decides that, and it decides every
question of the certification pipeline, whose reference family spans every
symmetric matrix. Otherwise, ruling such a P in or out is a small
semidefinite feasibility problem over the span, which the convex core in
solver.py decides. Feasible instances are refined to the minimum-trace
certificate Q = D^-1 P D^-1 with the same damped-Newton core, over the same
basis carried into that frame by congruence, and the closed-form robustness
bounds consume those certificates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import solver
from .config import DEFAULTS, Settings, json_numbers
from .errors import BadParams, Infeasible, SolverStall, TrivialRegion
from .strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    frame_generators,
    generalized_observables,
    question_span,
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
# the two public feasibility checks


def _feasibility_result(
    gens: np.ndarray, span: np.ndarray, power: int, settings: Settings
) -> FeasibilityResult:
    """Decide one check over its frame_generators and record the outcome.

    On the binary check (one generator per S_k) c is the solver's real
    coefficient vector t and the witness is H = sum_k c_k S_k. On the
    order-L check c pairs t's entries into complex numbers and the witness
    is P = sum_k c_k W^dag S_k, so that W P = sum_k c_k S_k.
    """
    value, t, certificate = solver.solve_pd_in_span(gens, settings=settings)
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
    span = question_span(state, ops)
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
                value = solver.lambda_min(0.5 * (p + p.conj().T)) / float(np.linalg.norm(c))
                if value > s.feas_tol:
                    witness = member if np.isrealobj(w) else p
                    return FeasibilityResult("feasible", value, witness, c, s.feas_tol, power)
        return _feasibility_result(frame_generators(span, w), span, power, s)

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
    When I's projection off the span is positive definite, the search's
    first iterate proves it (the dual I/n projects to a certificate) and no
    Newton step runs. Raises SolverStall only when the barrier's Newton loop
    fails.
    """
    s = settings or DEFAULTS
    _, sigma, basis = solver.hermitian_basis(target @ np.asarray(questions))
    return solver.best_margin(sigma, basis, s)[0] > s.feas_tol


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
    # a binary reference's one power is its observable: no identity is built
    powers = [a for m in references
              for a in ([m.observable()] if m.outputs == 2 else generalized_observables(m)[1:])]
    if is_binary_question(target, powers, outputs):
        results = [posthoc_feasible_binary(state, powers, target, settings=s)]
    else:
        results = posthoc_feasible_general(state, powers, target, outputs, settings=s)
    if not all(r.feasible for r in results):
        return results
    quantified = []
    for r in results:
        trace_q, q = min_trace_Q(state, powers, target, outputs, r.power, settings=s)
        quantified.append(replace(r, trace_q=trace_q, lambda_min_q=solver.lambda_min(q)))
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
        # validates [target, *alice_powers] first, so it raises what that raises
        feasibility = posthoc_feasible_binary(state, list(alice_powers), target, settings=s)
        w = require_binary_observables([target], settings=s)[0]
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
    q0 /= solver.lambda_min(q0)
    eye = np.eye(n, dtype=q0.dtype)
    near = s.membership_tol * max(1.0, np.sqrt(n))
    if np.linalg.norm(q0 - eye) <= near:
        return float(n), eye

    # Q-frame directions D^-1 M D^-1 over the Hermitian combinations M
    if binary:
        ops = require_binary_observables([w, *alice_powers], settings=s)
    gens = frame_generators(question_span(state, ops), w)
    _, _, basis = solver.hermitian_basis(gens, 1.0 / state.coeffs)
    # Tr B_k = <B_k, I> are I's coordinates in the orthonormal basis. I can
    # lie in the span with a witness other than D^2: the exact one is passed
    # over when its margin is at most feas_tol.
    traces = np.einsum("kaa->k", basis).real
    if np.linalg.norm(np.tensordot(traces, basis, axes=1) - eye) <= near:
        return float(n), eye

    # start at 2 q0 (lambda_min(Q) = 2 > 1), projected onto the basis
    c = basis.reshape(len(basis), -1).view(float) @ (2.0 * q0).ravel().view(float)
    if solver.lambda_min(np.tensordot(c, basis, axes=1)) <= 1.0:
        raise SolverStall("the witness's projection onto the Q frame is not above I")

    # central path of Tr Q - mu log det(Q - I), stopped relative to Tr Q
    mu = max(1.0, float(traces @ c) / n)
    for c, mu in solver.central_path(c, traces, -np.eye(n), basis, mu):
        if n * mu <= solver.MU_FLOOR * max(1.0, float(traces @ c)):
            break
    q = np.tensordot(c, basis, axes=1)
    return float(traces @ c), 0.5 * (q + q.conj().T)


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


def _require_finite_and_whole_n(values: dict) -> None:
    """The rule both bounds share: every input finite, and n a whole number >= 1."""
    # NaN passes every `< 0` test after this one
    for name, value in values.items():
        if not np.isfinite(value):
            raise BadParams(f"{name} must be finite, got {value!r}")
    if values["n"] < 1 or values["n"] != int(values["n"]):
        raise BadParams(f"n must be a whole number >= 1, got {values['n']!r}")


def _validate_robustness(p: RobustnessParams) -> None:
    _require_finite_and_whole_n(asdict(p))
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
    _require_finite_and_whole_n(
        dict(n=n, lambda_min_gram=lambda_min_gram, epsilon=epsilon, delta=delta,
             reference_norm=reference_norm)
    )
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
