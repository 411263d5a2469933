"""Post-hoc verdicts depend only on the question, not on how it is written down.

Each transformation below rewrites a question without changing the
mathematics: O is certified exactly when O = sgn(H) for some H in
span{D^2, D A_x D}, and a change of the reference list that keeps that span,
a sign that the span absorbs, or a basis change applied to the state and every
operator alike cannot change the answer. Every transformed question must get
the original verdicts, and every witness and Farkas certificate it carries,
carried back to the original frame, is re-checked against the original
question's generators (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51(1), 2018).

Binary questions are decided by posthoc_feasible_binary and order-3 ones by
posthoc_feasible_general, at Schmidt condition numbers kappa = 1 .. 1e3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from bellcert.linalg import sgn_map
from bellcert.posthoc import posthoc_feasible_binary, posthoc_feasible_general
from bellcert.strategies import ProjectiveMeasurement, SchmidtState, generalized_observables

from helpers import assert_farkas_certificate, random_orthogonal, random_reflection

KAPPAS = (1.0, 10.0, 1e2, 1e3)
OUTPUTS = 3  # of the order-L questions


@dataclass(frozen=True)
class Question:
    coeffs: np.ndarray
    refs: tuple[np.ndarray, ...]
    target: np.ndarray
    outputs: int  # 2: the binary check

    @property
    def state(self) -> SchmidtState:
        return SchmidtState(self.coeffs)

    def decide(self):
        if self.outputs == 2:
            return [posthoc_feasible_binary(self.state, list(self.refs), self.target)]
        return posthoc_feasible_general(self.state, list(self.refs), self.target, self.outputs)

    def span(self) -> np.ndarray:
        dm = self.state.matrix
        return np.array([dm @ dm] + [dm @ a @ dm for a in self.refs])

    def frame(self, power: int) -> np.ndarray:
        """W = conj(U)^power: W P lies in the span for an order-L witness P."""
        return np.linalg.matrix_power(self.target.conj(), power)

    def generators(self, power: int) -> list[np.ndarray]:
        """The real-coefficient generators whose Hermitian combinations are searched."""
        if self.outputs == 2:
            return [self.target @ s for s in self.span()]
        wh = self.frame(power).conj().T
        return [g for s in self.span() for g in (wh @ s, 1j * wh @ s)]


def _geometric(kappa: float, d: int) -> np.ndarray:
    c = kappa ** (-np.arange(d) / (d - 1))
    return c / np.linalg.norm(c)


def _unitary_measurement(rng, d: int) -> np.ndarray:
    """A^(1) of a projective measurement onto blocks of a random unitary basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cuts = np.array_split(np.arange(d), OUTPUTS)
    return generalized_observables(
        ProjectiveMeasurement(tuple(q[:, c] @ q[:, c].conj().T for c in cuts))
    )


@lru_cache(maxsize=None)
def questions(kind: str, kappa: float) -> tuple[Question, ...]:
    """Feasible and infeasible questions at d = 3 and 4.

    Binary: the sign of a random span element (feasible), and reflections
    with one or two +1 eigenvalues against two or three reflections; at
    d = 4 a two-by-two split has no symmetric combination at all. Order 3:
    references that hold D^-1 conj(U)^l P0 D^-1 for P0 > 0 (feasible at
    every power), and the powers of an unrelated measurement alone. Last, at
    d = 4, one question of each kind that the exact witness P = D^2 decides:
    D^-1 W D lies in span{I, A_x}. Binary: a diagonal target against three
    diagonal reflections, which with I span the diagonal matrices. Order 3:
    references that hold D^-1 conj(U)^l D.
    """
    rng = np.random.default_rng(17 if kind == "binary" else 31)
    found = []
    for d in (3, 4):
        coeffs = _geometric(kappa, d)
        dm = np.diag(coeffs)
        if kind == "binary":
            for n_refs, target_kind in ((2, "sign"), (2, 1), (3, 2), (2, 2)):
                refs = tuple(random_reflection(rng, d) for _ in range(n_refs))
                if target_kind == "sign":
                    h = dm @ dm + sum(rng.standard_normal() * dm @ a @ dm for a in refs)
                    target = sgn_map(h).matrix
                else:
                    target = random_reflection(rng, d, target_kind)
                found.append(Question(coeffs, refs, target, 2))
        else:
            u = _unitary_measurement(rng, d)[1]
            other = _unitary_measurement(rng, d)[1:]
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            p0 = g @ g.conj().T + 0.1 * np.eye(d)
            dinv = np.diag(1.0 / coeffs)
            built = tuple(
                dinv @ np.linalg.matrix_power(u.conj(), l) @ p0 @ dinv
                for l in range(1, OUTPUTS)
            )
            found.append(Question(coeffs, tuple(other) + built, u, OUTPUTS))
            found.append(Question(coeffs, tuple(other), u, OUTPUTS))
    if kind == "binary":
        refs = tuple(np.diag(np.where(np.arange(d) == j, 1.0, -1.0)) for j in range(3))
        found.append(Question(coeffs, refs, np.diag([1.0, -1.0, 1.0, -1.0]), 2))
    else:
        exact = tuple(
            np.diag(1.0 / coeffs) @ np.linalg.matrix_power(u.conj(), l) @ dm
            for l in range(1, OUTPUTS)
        )
        found.append(Question(coeffs, tuple(other) + exact, u, OUTPUTS))
    return tuple(found)


# --------------------------------------------------------------------------
# transformations: (question, rng) -> (question', back, sign), where back
# carries a matrix of the new frame to the old one and sign * back(H') is a
# binary witness of the original question


def _conjugate(q: Question, v: np.ndarray, coeffs: np.ndarray):
    """Apply the real orthogonal v to every operator and take the given coefficients."""
    moved = replace(
        q,
        coeffs=coeffs,
        refs=tuple(v @ a @ v.T for a in q.refs),
        target=v @ q.target @ v.T,
    )
    return moved, lambda m: v.T @ m @ v, 1.0


def _permute(q: Question, perm: np.ndarray):
    """Reorder the Schmidt basis: D becomes P D P^T for the permutation matrix P."""
    return _conjugate(q, np.eye(len(perm))[perm], q.coeffs[perm])


def _same_frame(q: Question, **changes):
    return replace(q, **changes), lambda m: m, 1.0


def _overcomplete(q: Question) -> tuple[np.ndarray, ...]:
    """The references, their negations, and repeats, past dim Sym(d) = d(d+1)/2."""
    d = q.target.shape[0]
    pool = q.refs + tuple(-a for a in q.refs)
    reps = d * (d + 1) // (2 * len(pool)) + 1
    return (pool * reps)[: d * (d + 1) // 2 + 2]


TRANSFORMS = {
    "reorder": lambda q, rng: _same_frame(q, refs=q.refs[::-1]),
    "reference-sign": lambda q, rng: _same_frame(q, refs=(-q.refs[0],) + q.refs[1:]),
    "target-sign": lambda q, rng: (replace(q, target=-q.target), lambda m: m, -1.0),
    "schmidt-permutation": lambda q, rng: _permute(q, rng.permutation(len(q.coeffs))),
    "duplicate": lambda q, rng: _same_frame(q, refs=q.refs + q.refs[:1]),
    "duplicate-twice": lambda q, rng: _same_frame(q, refs=q.refs + q.refs[:1] * 2),
    "plus-identity": lambda q, rng: _same_frame(q, refs=q.refs + (np.eye(len(q.coeffs)),)),
    "minus-identity": lambda q, rng: _same_frame(q, refs=(-np.eye(len(q.coeffs)),) + q.refs),
    "overcomplete": lambda q, rng: _same_frame(q, refs=_overcomplete(q)),
    "orthogonal-conjugation": lambda q, rng: _conjugate(
        q, random_orthogonal(rng, len(q.coeffs)), q.coeffs
    ),
}


def _cases():
    for kind in ("binary", "order-L"):
        for kappa in KAPPAS:
            for name in TRANSFORMS:
                # -U has order 2L, not L, for odd L
                if name == "target-sign" and kind != "binary":
                    continue
                # a basis change commutes with D only when D is a multiple of I
                if name == "orthogonal-conjugation" and kappa != 1.0:
                    continue
                yield pytest.param(kind, kappa, name, id=f"{kind}-{kappa:g}-{name}")


def _assert_witness(q: Question, power: int, witness: np.ndarray) -> None:
    """A binary witness H lies in the span with O H > 0; an order-L P > 0 has W P in it."""
    span = q.span()
    if q.outputs == 2:
        member, pd = witness, q.target @ witness
    else:
        member, pd = q.frame(power) @ witness, witness
    flat = span.reshape(len(span), -1).T
    coef = np.linalg.lstsq(flat, member.ravel(), rcond=None)[0]
    scale = float(np.max(np.linalg.norm(span, axis=(1, 2))))
    assert np.linalg.norm(flat @ coef - member.ravel()) <= 1e-9 * scale
    assert np.max(np.abs(pd - pd.conj().T)) <= 1e-9 * np.max(np.abs(pd))
    assert np.linalg.eigvalsh(0.5 * (pd + pd.conj().T))[0] > 0.0


@pytest.mark.parametrize("kind, kappa, name", list(_cases()))
def test_verdicts_and_certificates_survive_the_rewrite(kind, kappa, name):
    rng = np.random.default_rng(2024)
    for q in questions(kind, kappa):
        original = [r.verdict for r in q.decide()]
        moved, back, sign = TRANSFORMS[name](q, rng)
        results = moved.decide()
        assert [r.verdict for r in results] == original
        for r in results:
            if r.feasible:
                _assert_witness(q, r.power, sign * back(r.witness))
            elif r.certificate is not None or r.verdict == "infeasible":
                assert_farkas_certificate(back(r.certificate), q.generators(r.power))


def _exact(q: Question, r) -> bool:
    """Whether a feasible result carries the exact witness P = D^2."""
    p = q.target @ r.witness if q.outputs == 2 else r.witness
    return bool(np.max(np.abs(p - q.state.matrix @ q.state.matrix)) <= 1e-12)


def test_the_questions_cover_every_verdict_path():
    # both verdicts per kind and kappa, the exact witness among the feasible
    # ones, and a binary question with no symmetric combination at all
    # (lambda_min_achieved = -inf)
    for kind in ("binary", "order-L"):
        for kappa in KAPPAS:
            answers = [(q, r) for q in questions(kind, kappa) for r in q.decide()]
            verdicts = {r.verdict for _, r in answers}
            assert {"feasible", "infeasible"} <= verdicts, (kind, kappa, verdicts)
            assert any(r.feasible and _exact(q, r) for q, r in answers), (kind, kappa)
    values = [q.decide()[0].lambda_min_achieved for q in questions("binary", 10.0)]
    assert -np.inf in values
