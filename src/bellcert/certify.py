"""Certification pipelines: reference strategies, extension plans, reports.

The workflow certifies a new binary observable (or, outcome by outcome, a
whole real projective measurement) against a fixed reference family. One
party keeps a spanning set of reference questions; the other party's extra
question is accepted exactly when the post-hoc criterion holds against that
set. ``iterative_plan`` schedules intermediate extensions for targets that
only become certifiable after both parties' families have grown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import (
    BadDimension,
    BadParams,
    InvalidMeasurement,
    SolverStall,
    Unreachable,
)
from .jordan import (
    SpanBasis,
    contains,
    cut_point_observables,
    jordan_closure,
    span_basis,
)
from .linalg import extend_orthonormal_rows, svec
from .posthoc import FeasibilityResult, RobustnessParams, posthoc_check, sign_reachable
from .simplex import maximal_independent_subset
from .strategies import (
    ProjectiveMeasurement,
    SchmidtState,
    Strategy,
    require_binary_observable,
    require_binary_observables,
)


def split_measurement(
    m: ProjectiveMeasurement, *, settings: Settings | None = None
) -> list[np.ndarray]:
    """Binary coarse-grainings 2 P_a - I, one per outcome.

    Each is a symmetric involution whenever the measurement is real
    projective, so an L-outcome measurement can be certified one outcome at a
    time through the binary machinery. All outcomes are validated in one call.
    """
    twice = 2.0 * np.array(m.projections) - np.eye(m.dim)
    return list(require_binary_observables(twice, settings=settings))


def _certification_strategy(
    target: np.ndarray | ProjectiveMeasurement,
    extras: Sequence[np.ndarray],
    labels: Sequence[str],
    meta: dict,
    settings: Settings | None,
) -> Strategy:
    """Bob's spanning family against Alice's simplex reflections plus `extras`.

    The strategy records `target`: it is all the strategy's file needs.
    """
    d = extras[0].shape[0]
    if d < 3:
        raise BadDimension("the certification pipeline needs dimension >= 3")
    bob_mats, bob_labels = maximal_independent_subset(d)
    bob = ProjectiveMeasurement.binary_family(bob_mats, settings=settings)
    strategy = Strategy(
        state=SchmidtState.maximally_entangled(d),
        # T_0..T_d lead Bob's family: Alice's base questions are the same measurements
        alice=bob[: d + 1] + ProjectiveMeasurement.binary_family(extras, settings=settings),
        bob=bob,
        alice_labels=tuple(f"T{j}" for j in range(d + 1)) + tuple(labels),
        bob_labels=tuple(bob_labels),
        # "kind" keeps its first place: a format-1 file writes meta in this order
        meta={"kind": meta["kind"], "base_questions": d + 1, **meta},
    )
    object.__setattr__(strategy, "target", target)
    return strategy


def binary_certification_strategy(
    target: np.ndarray, *, settings: Settings | None = None
) -> Strategy:
    """Reference strategy certifying one binary observable post hoc.

    Bob holds the spanning reference family (d(d+1)/2 questions, spanning
    every symmetric d x d matrix, the target included), Alice holds the d+1
    simplex reflections plus the target as one extra question. The state is
    maximally entangled. Raises BadDimension for d < 3.
    """
    o = require_binary_observable(target, settings=settings)
    return _certification_strategy(o, [o], ("O",), {"kind": "binary-certification"}, settings)


def measurement_certification_strategy(
    m: ProjectiveMeasurement, *, settings: Settings | None = None
) -> Strategy:
    """Reference strategy certifying every outcome of a projective measurement.

    Alice gets the d+1 simplex reflections plus one binary coarse-graining per
    outcome (labels O0, O1, ...); Bob keeps the spanning reference family.
    """
    return _certification_strategy(
        m,
        split_measurement(m, settings=settings),
        [f"O{a}" for a in range(m.outputs)],
        {"kind": "measurement-certification", "target_outputs": m.outputs},
        settings,
    )


def certification_strategy(
    target: np.ndarray | ProjectiveMeasurement, *, settings: Settings | None = None
) -> Strategy:
    """The reference strategy `certify` builds: per outcome for a measurement
    target, else for one binary observable."""
    if isinstance(target, ProjectiveMeasurement):
        return measurement_certification_strategy(target, settings=settings)
    return binary_certification_strategy(target, settings=settings)


# --------------------------------------------------------------------------
# iterative extension planning


@dataclass(frozen=True)
class PlanRound:
    """One extension round: which party gains which new binary observables."""

    party: str
    observables: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class IterativePlan:
    """Schedule of alternating extensions ending with the target question.

    The final round always belongs to the target's party ("alice") and
    contains the target itself; earlier rounds list helper observables, each
    certifiable against the other party's family at the time it is added.
    """

    rounds: tuple[PlanRound, ...]
    closure_dimension: int
    closure_iterations: int
    dim: int


def _extension_batch(
    source: np.ndarray,
    into: SpanBasis,
    rng: np.random.Generator,
    settings: Settings,
) -> tuple[list[np.ndarray], SpanBasis]:
    """Cut points of one random basis of the source party's span that enlarge `into`.

    The n elements of a Gaussian change of basis of the source's n questions
    are offered in order. Each returned observable is sgn(H - rI) for such an
    H, hence certifiable against the source party's family, and extends the
    destination span.
    """
    q = into.rows
    added_obs: list[np.ndarray] = []
    # H combines the questions, not their orthonormal rows: a row kept with
    # singular value sigma is off by about eps/sigma, and cut points of such
    # combinations drift out of the closure within a few rounds
    for h in np.tensordot(rng.standard_normal((len(source),) * 2), source, axes=1):
        for o in cut_point_observables(h, settings=settings):
            q2, added = extend_orthonormal_rows(q, svec(o)[None], into.tol)
            if added:
                q = q2
                added_obs.append(o)
    return added_obs, SpanBasis(into.matrix_dim, q, into.tol)


def iterative_plan(
    initial_alice: Sequence[np.ndarray],
    target: np.ndarray,
    *,
    seed: int = 0,
    settings: Settings | None = None,
) -> IterativePlan:
    """Plan alternating extensions until the target becomes certifiable.

    Both parties start with the initial family (mirrored). A party may gain
    any observable that is the sign of a combination of the other party's
    current span; rounds alternate until the target is the sign of an element
    of Bob's span, at which point it joins Alice as the final round. ``seed``
    seeds the random basis each round draws.

    Raises Unreachable when the target lies outside the Jordan closure of the
    initial family - no sequence of extensions can ever reach it. Every planned
    observable is a cut point of a span element, so it lies in the closure,
    and each round before the last grows one party's span inside it. So the
    plan ends: with the target, or with SolverStall when neither span grows.
    """
    s = settings or DEFAULTS
    o, *refs = require_binary_observables([target, *initial_alice], settings=s)
    closure, closure_iters = jordan_closure(refs, settings=s)
    member, _, _ = contains(closure, o, settings=s)
    if not member:
        raise Unreachable(
            "target lies outside the algebra generated by the initial family"
        )
    d = o.shape[0]
    rng = np.random.default_rng(seed)
    initial = np.array([np.eye(d), *refs])
    families = dict.fromkeys(("alice", "bob"), initial)
    spans = dict.fromkeys(("alice", "bob"), span_basis(initial, settings=s))
    rounds: list[PlanRound] = []
    while not sign_reachable(families["bob"], o, settings=s):
        # Bob is grown from Alice's span first, then Alice from Bob's
        for party, source in (("bob", "alice"), ("alice", "bob")):
            new, grown = _extension_batch(families[source], spans[party], rng, s)
            if new:
                rounds.append(PlanRound(party=party, observables=tuple(new)))
                families[party] = np.concatenate([families[party], new])
                spans[party] = grown
                break
        else:
            raise SolverStall(
                "no span grows and the target is not reachable: span dimensions "
                f"{spans['bob'].dimension} and {spans['alice'].dimension}, "
                f"closure {closure.dimension}"
            )
    rounds.append(PlanRound(party="alice", observables=(o,)))
    return IterativePlan(
        rounds=tuple(rounds),
        closure_dimension=closure.dimension,
        closure_iterations=closure_iters,
        dim=d,
    )


# --------------------------------------------------------------------------
# certificate report


@dataclass(frozen=True)
class CertificateReport:
    """Everything the robustness bound needs, plus structural diagnostics.

    ``gram_lambda_min`` is the smallest eigenvalue of the Gram matrix
    Tr[B_j B_k] over Bob's reference observables; ``closure_dimension`` and
    ``full_algebra`` describe the algebra Bob's family generates;
    ``extensions`` pairs each Alice question beyond the base family with its
    label and the FeasibilityResult posthoc_check returned for it.
    """

    dim: int
    alice_questions: int
    bob_questions: int
    schmidt_kappa: float
    schmidt_max: float
    gram_lambda_min: float
    closure_dimension: int
    closure_iterations: int
    full_algebra: bool
    extensions: tuple[tuple[str, FeasibilityResult], ...]

    def all_feasible(self) -> bool:
        return all(r.feasible for _, r in self.extensions)

    def robustness_params(
        self, epsilon: float, delta: float, extension_index: int = 0
    ) -> RobustnessParams:
        if not 0 <= extension_index < len(self.extensions):
            raise BadParams(f"no extension with index {extension_index}")
        label, ext = self.extensions[extension_index]
        if ext.trace_q is None:
            raise BadParams(f"extension {label!r} has no trace certificate")
        return RobustnessParams(
            n=self.bob_questions,
            lambda_min_gram=self.gram_lambda_min,
            trace_q=ext.trace_q,
            lambda_min_q=ext.lambda_min_q,
            lambda_max_schmidt=self.schmidt_max,
            kappa_schmidt=self.schmidt_kappa,
            epsilon=epsilon,
            delta=delta,
        )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "alice_questions": self.alice_questions,
            "bob_questions": self.bob_questions,
            "schmidt_kappa": self.schmidt_kappa,
            "schmidt_max": self.schmidt_max,
            "gram_lambda_min": self.gram_lambda_min,
            "closure_dimension": self.closure_dimension,
            "closure_iterations": self.closure_iterations,
            "full_algebra": self.full_algebra,
            "all_feasible": self.all_feasible(),
            "extensions": [
                {"label": label, **r.to_json_dict()} for label, r in self.extensions
            ],
        }


def _gram_fills_sym(gram: np.ndarray, lam: np.ndarray, d: int, s: Settings) -> bool:
    """Whether jordan_closure's first step keeps N = d(d+1)/2 rows of svec([I; B]).

    It keeps singular values above membership_tol * max(sqrt(d), max |B_k|_F),
    and sigma_N([I; B]) >= sigma_N(B) = sqrt(lam[-N]) by interlacing (n >= N).
    With T = tr G >= |G|_2, forming G and eigvalsh move lam[-N] by at most
    (d^2 + n) eps T, and the SVD moves sigma_N by at most N eps |[I; B]|_F =
    N eps sqrt(d + T); each bound is taken 8 times over. A complex family is
    left to jordan_closure.
    """
    full, n = d * (d + 1) // 2, len(lam)
    if n < full or not np.isrealobj(gram):
        return False
    eps, t = 8 * np.finfo(float).eps, float(np.trace(gram))
    thresh = s.membership_tol * np.sqrt(max(d, np.max(np.diag(gram))))
    slack = lam[-full] - (d * d + n) * eps * t
    return slack > 0 and np.sqrt(slack) > thresh + full * eps * np.sqrt(d + t)


def certificate_report(
    strategy: Strategy, *, settings: Settings | None = None
) -> CertificateReport:
    """Certify every extension question of a strategy against Bob's family.

    The strategy's meta must record ``base_questions`` (as the pipeline
    constructors do); Alice questions beyond that count are treated as
    extensions and checked post hoc, each with its minimum-trace certificate
    when feasible. Bob's measurements must all be binary.

    The closure of Bob's family is read off its Gram matrix G = Tr[B_j B_k]
    when the family is real, has n >= N = d(d+1)/2 members, and the N-th
    largest eigenvalue of G clears jordan_closure's first-step threshold by a
    rounding margin: jordan_closure would then return dimension N after 0
    sweeps. Otherwise jordan_closure runs.
    """
    s = settings or DEFAULTS
    if "base_questions" not in strategy.meta:
        raise BadParams("strategy meta lacks 'base_questions'")
    base = int(strategy.meta["base_questions"])
    if not 0 < base <= strategy.alice_questions:
        raise BadParams(f"base_questions = {base} is inconsistent with the strategy")
    try:
        bob_obs = [m.observable() for m in strategy.bob]
    except InvalidMeasurement as exc:
        raise BadParams("certificate reports need binary Bob measurements") from exc

    d = strategy.dim
    full = d * (d + 1) // 2
    flat = np.array([b.ravel() for b in bob_obs])
    gram = flat @ flat.T
    lam = np.linalg.eigvalsh(gram) if bob_obs else np.zeros(0)
    if _gram_fills_sym(gram, lam, d, s):
        dimension, closure_iters = full, 0
    else:
        closure, closure_iters = jordan_closure(bob_obs, settings=s)
        dimension = closure.dimension

    extensions = []
    for label, m in zip(strategy.alice_labels[base:], strategy.alice[base:], strict=True):
        [result] = posthoc_check(strategy.state, strategy.bob, m.observable(), settings=s)
        extensions.append((label, result))

    return CertificateReport(
        dim=d,
        alice_questions=strategy.alice_questions,
        bob_questions=strategy.bob_questions,
        schmidt_kappa=strategy.state.kappa,
        schmidt_max=float(np.max(strategy.state.coeffs)),
        gram_lambda_min=float(lam[0]),
        closure_dimension=dimension,
        closure_iterations=closure_iters,
        full_algebra=dimension == full,
        extensions=tuple(extensions),
    )
