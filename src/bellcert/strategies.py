"""States, measurements, and correlation data for bipartite strategies.

A strategy is a Schmidt-diagonal pure state together with one projective
measurement per question on each side. In the Schmidt basis a joint
correlation reduces to a trace, <A (x) B> = Tr[D A D B^T] with D the diagonal
matrix of Schmidt coefficients, which is how everything here is computed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULTS
from .errors import (
    BadParams,
    DimMismatch,
    InvalidMeasurement,
    NotOrderL,
    TooLarge,
)
from .jordan import has_trivial_centralizer
from .linalg import as_square_matrix, require_hermitian, require_symmetric, sym_eig

_BRUTE_FORCE_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Bipartite pure state given by its (strictly positive) Schmidt coefficients."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.coeffs, dtype=float).ravel()
        if lam.size == 0:
            raise BadParams("need at least one Schmidt coefficient")
        if np.any(lam <= 0.0):
            raise BadParams("Schmidt coefficients must be strictly positive")
        total = float(np.sum(lam * lam))
        if abs(total - 1.0) > 1e-12:
            raise BadParams(f"squared Schmidt coefficients sum to {total!r}, not 1")
        lam.setflags(write=False)
        object.__setattr__(self, "coeffs", lam)

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    @property
    def matrix(self) -> np.ndarray:
        """diag(coeffs); correlations are Tr[D A D B^T]."""
        return np.diag(self.coeffs)

    @property
    def kappa(self) -> float:
        """Condition number max(coeffs)/min(coeffs) of the Schmidt spectrum."""
        return float(np.max(self.coeffs) / np.min(self.coeffs))

    @classmethod
    def maximally_entangled(cls, d: int) -> "SchmidtState":
        if d < 1:
            raise BadParams("dimension must be >= 1")
        return cls(np.full(d, 1.0 / np.sqrt(d)))


def _clean_projection(p: np.ndarray, tol: float) -> np.ndarray:
    a = require_hermitian(np.asarray(p), tol)
    if np.iscomplexobj(a) and float(np.max(np.abs(a.imag))) <= tol:
        a = a.real.copy()
    return a


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """A complete family of mutually orthogonal projections.

    Validation (raising InvalidMeasurement) checks, entrywise within the
    tolerance: idempotence of each projection, orthogonality of each pair,
    and completeness sum(projections) = I.
    """

    projections: tuple[np.ndarray, ...]
    validate_tol: InitVar[float | None] = None

    def __post_init__(self, validate_tol: float | None) -> None:
        tol = DEFAULTS.eig_tol if validate_tol is None else validate_tol
        projs = tuple(_clean_projection(p, tol) for p in self.projections)
        if not projs:
            raise InvalidMeasurement("a measurement needs at least one output")
        d = projs[0].shape[0]
        for p in projs:
            if p.shape[0] != d:
                raise DimMismatch("projections have mixed dimensions")
        for a, p in enumerate(projs):
            gap = float(np.max(np.abs(p @ p - p)))
            if gap > tol:
                raise InvalidMeasurement(f"projection {a} is not idempotent ({gap:.2e})")
        for a in range(len(projs)):
            for b in range(a + 1, len(projs)):
                gap = float(np.max(np.abs(projs[a] @ projs[b])))
                if gap > tol:
                    raise InvalidMeasurement(
                        f"projections {a} and {b} are not orthogonal ({gap:.2e})"
                    )
        total = sum(projs)
        gap = float(np.max(np.abs(total - np.eye(d))))
        if gap > tol:
            raise InvalidMeasurement(f"projections do not sum to identity ({gap:.2e})")
        object.__setattr__(self, "projections", projs)

    @property
    def dim(self) -> int:
        return int(self.projections[0].shape[0])

    @property
    def outputs(self) -> int:
        return len(self.projections)

    def observable(self) -> np.ndarray:
        """The +/-1 observable of a binary measurement."""
        if self.outputs != 2:
            raise InvalidMeasurement("observable() requires exactly two outputs")
        return self.projections[0] - self.projections[1]

    @classmethod
    def from_observable(
        cls, o: np.ndarray, tol: float | None = None
    ) -> "ProjectiveMeasurement":
        """Binary measurement {(I+O)/2, (I-O)/2} of a symmetric involution."""
        m = require_binary_observable(o, tol)
        eye = np.eye(m.shape[0])
        return cls((0.5 * (eye + m), 0.5 * (eye - m)), validate_tol=tol)


def require_binary_observable(o: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Validate a real symmetric involution and return its symmetrized copy."""
    if tol is None:
        tol = DEFAULTS.eig_tol
    m = require_symmetric(o)
    gap = float(np.max(np.abs(m @ m - np.eye(m.shape[0]))))
    if gap > tol:
        raise InvalidMeasurement(f"matrix squares to I only within {gap:.2e}")
    return m


def require_order_l(a: np.ndarray, outputs: int, tol: float | None = None) -> np.ndarray:
    """Validate a unitary with a^outputs = I and return it as a complex array.

    Raises NotOrderL when either identity fails by more than ``tol``
    (entrywise).
    """
    if tol is None:
        tol = DEFAULTS.eig_tol
    u = as_square_matrix(a, allow_complex=True).astype(complex)
    eye = np.eye(u.shape[0])
    if float(np.max(np.abs(u @ u.conj().T - eye))) > tol:
        raise NotOrderL("matrix is not unitary")
    if float(np.max(np.abs(np.linalg.matrix_power(u, outputs) - eye))) > tol:
        raise NotOrderL(f"matrix does not have order {outputs}")
    return u


@dataclass(frozen=True, eq=False)
class Strategy:
    """State plus per-question measurements (and labels) for both parties."""

    state: SchmidtState
    alice: tuple[ProjectiveMeasurement, ...]
    bob: tuple[ProjectiveMeasurement, ...]
    alice_labels: tuple[str, ...] = ()
    bob_labels: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))
        if not self.alice_labels:
            object.__setattr__(
                self, "alice_labels", tuple(f"A{x}" for x in range(len(self.alice)))
            )
        if not self.bob_labels:
            object.__setattr__(
                self, "bob_labels", tuple(f"B{y}" for y in range(len(self.bob)))
            )
        if len(self.alice_labels) != len(self.alice) or len(self.bob_labels) != len(self.bob):
            raise BadParams("label count does not match measurement count")
        d = self.state.dim
        for m in (*self.alice, *self.bob):
            if m.dim != d:
                raise DimMismatch(f"measurement dimension {m.dim} != state dimension {d}")

    @property
    def dim(self) -> int:
        return self.state.dim

    @property
    def alice_questions(self) -> int:
        return len(self.alice)

    @property
    def bob_questions(self) -> int:
        return len(self.bob)


def generalized_observables(m: ProjectiveMeasurement) -> list[np.ndarray]:
    """Fourier-dual observables A^(j) = sum_a omega^(aj) M_a, j = 0..L-1.

    Element 0 is the identity, element 1 is unitary of order L, and element j
    equals element 1 raised to the j-th power. Binary measurements stay real:
    [I, M_0 - M_1].
    """
    d = m.dim
    L = m.outputs
    if L == 2:
        return [np.eye(d), m.projections[0] - m.projections[1]]
    omega = np.exp(2j * np.pi / L)
    out: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for j in range(1, L):
        acc = np.zeros((d, d), dtype=complex)
        for a, p in enumerate(m.projections):
            acc += omega ** (a * j) * p
        out.append(acc)
    return out


def povm_from_observable(
    a: np.ndarray, outputs: int, tol: float | None = None
) -> ProjectiveMeasurement:
    """Invert the Fourier duality: recover M_a = (1/L) sum_j omega^(-aj) A^j.

    Raises NotOrderL unless ``a`` is unitary with a^outputs = I (within tol).
    """
    if tol is None:
        tol = DEFAULTS.eig_tol
    if outputs < 2:
        raise BadParams("a measurement needs at least two outputs")
    u = require_order_l(a, outputs, tol)
    d = u.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(outputs - 1):
        powers.append(powers[-1] @ u)
    omega = np.exp(2j * np.pi / outputs)
    projs = []
    for out in range(outputs):
        acc = np.zeros((d, d), dtype=complex)
        for j in range(outputs):
            acc += omega ** (-out * j) * powers[j]
        acc /= outputs
        projs.append(0.5 * (acc + acc.conj().T))
    return ProjectiveMeasurement(tuple(projs), validate_tol=tol)


def correlation(state: SchmidtState, alice_op: np.ndarray, bob_op: np.ndarray) -> complex:
    """Joint expectation <psi| A (x) B |psi> = Tr[D A D B^T] in the Schmidt basis.

    Note the plain transpose on B (no conjugation); it comes from re-expressing
    Bob's half of the state on Alice's side.
    """
    d = state.dim
    a = as_square_matrix(alice_op, allow_complex=True)
    b = as_square_matrix(bob_op, allow_complex=True)
    if a.shape[0] != d or b.shape[0] != d:
        raise DimMismatch("operator dimension does not match the state")
    dm = state.matrix
    return complex(np.trace(dm @ a @ dm @ b.T))


@dataclass(eq=False)
class CorrelationTable:
    """Correlations keyed by (x, j, y, k): question indices and dual powers.

    Power 0 entries are identity marginals, so every (x, 0, y, 0) entry is 1
    and all magnitudes are at most 1 (up to rounding).
    """

    entries: dict[tuple[int, int, int, int], complex]

    def __getitem__(self, key: tuple[int, int, int, int]) -> complex:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()

    def max_abs(self) -> float:
        return max(abs(v) for v in self.entries.values())

    def is_real(self, tol: float = 1e-12) -> bool:
        return all(abs(v.imag) <= tol for v in self.entries.values())

    def validate(self, tol: float = 1e-9) -> None:
        """Check the normalization invariants, raising BadParams on failure."""
        for (x, j, y, k), v in self.entries.items():
            if j == 0 and k == 0 and abs(v - 1.0) > tol:
                raise BadParams(f"identity entry ({x},0,{y},0) = {v}, expected 1")
            if abs(v) > 1.0 + tol:
                raise BadParams(f"entry ({x},{j},{y},{k}) has magnitude {abs(v)} > 1")

    def max_difference(self, other: "CorrelationTable") -> float:
        if set(self.entries) != set(other.entries):
            raise DimMismatch("correlation tables have different key sets")
        return max(abs(self.entries[k] - other.entries[k]) for k in self.entries)


def correlation_table(strategy: Strategy) -> CorrelationTable:
    """All joint correlations of a strategy, one entry per question/power pair.

    Every entry is Tr[D A D B^T] as in :func:`correlation`, computed at once
    as one contraction of the stacked D A D against the stacked B.
    """
    d = strategy.dim
    dm = strategy.state.matrix
    alice = [generalized_observables(m) for m in strategy.alice]
    bob = [generalized_observables(m) for m in strategy.bob]
    rows = [(x, j) for x, ops in enumerate(alice) for j in range(len(ops))]
    cols = [(y, k) for y, ops in enumerate(bob) for k in range(len(ops))]
    a = dm @ np.array([op for ops in alice for op in ops]).reshape(-1, d, d) @ dm
    b = np.array([op for ops in bob for op in ops]).reshape(-1, d, d)
    values = np.einsum("xab,yab->xy", a, b)
    keys = [row + col for row in rows for col in cols]
    return CorrelationTable(dict(zip(keys, values.astype(complex).ravel().tolist())))


def brute_force_correlation(strategy: Strategy) -> CorrelationTable:
    """Same table computed on the full d^2-dimensional product space.

    Builds |psi> = sum_i lambda_i |ii> explicitly and evaluates
    <psi| A (x) B |psi> with Kronecker products; raises TooLarge when
    d^2 > 4096. Used as an independent cross-check of correlation_table.
    """
    d = strategy.dim
    if d * d > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"product dimension {d * d} exceeds {_BRUTE_FORCE_LIMIT}")
    psi = np.zeros(d * d)
    for i, lam in enumerate(strategy.state.coeffs):
        psi[i * d + i] = lam
    alice_ops = [generalized_observables(m) for m in strategy.alice]
    bob_ops = [generalized_observables(m) for m in strategy.bob]
    entries: dict[tuple[int, int, int, int], complex] = {}
    for x, aops in enumerate(alice_ops):
        for j, a in enumerate(aops):
            for y, bops in enumerate(bob_ops):
                for k, b in enumerate(bops):
                    op = np.kron(a, b)
                    entries[(x, j, y, k)] = complex(np.vdot(psi, op @ psi))
    return CorrelationTable(entries)


@dataclass(frozen=True, eq=False)
class DegeneracyReport:
    """Outcome of checking two observables against a reference family."""

    correlation_gap: float
    distinctness: float
    centralizer_trivial: bool
    degenerate: bool
    gap_tol: float
    distinct_tol: float


def verify_degenerate_pair(
    state: SchmidtState,
    reference: Sequence[np.ndarray],
    first: np.ndarray,
    second: np.ndarray,
    *,
    gap_tol: float = 1e-9,
    distinct_tol: float = 1e-6,
) -> DegeneracyReport:
    """Check that two distinct observables produce identical correlations.

    The pair is reported degenerate when its correlations against the identity
    and every reference observable agree within ``gap_tol``, the two matrices
    differ by more than ``distinct_tol`` in Frobenius norm, and the reference
    family has a trivial centralizer (so the coincidence is not an artifact of
    a reducible reference).
    """
    refs = [require_binary_observable(r) for r in reference]
    b1 = require_binary_observable(first)
    b2 = require_binary_observable(second)
    d = state.dim
    for m in (*refs, b1, b2):
        if m.shape[0] != d:
            raise DimMismatch("observable dimension does not match the state")
    ops = [np.eye(d)] + refs
    gap = max(
        abs(correlation(state, a, b1) - correlation(state, a, b2)) for a in ops
    )
    distinctness = float(np.linalg.norm(b1 - b2))
    trivial = has_trivial_centralizer(refs)
    return DegeneracyReport(
        correlation_gap=float(gap),
        distinctness=distinctness,
        centralizer_trivial=trivial,
        degenerate=bool(gap <= gap_tol and distinctness > distinct_tol and trivial),
        gap_tol=gap_tol,
        distinct_tol=distinct_tol,
    )


@dataclass(frozen=True, eq=False)
class CheatingPovmReport:
    """Self-contained check of the built-in non-projective cheating strategy."""

    completeness_residual: float
    min_eigenvalue: float
    max_eigenvalue: float
    projection_defect: float
    correlation_gap: float
    overlap: float
    valid: bool


def verify_cheating_povm() -> CheatingPovmReport:
    """Verify the hard-coded two-output POVM that fakes a projective strategy.

    On the partially entangled two-qubit state with tan(gamma) = 1/sqrt(2),
    the POVM's +/-1 observable reproduces, against Alice's {I, X}, exactly the
    correlations of the projective observable (X+Z)/sqrt(2) - yet its effects
    are not projections: the overlap <psi| I (x) M_0 M_1 |psi> is far from 0.
    Everything is recomputed from scratch; ``valid`` requires the correlation
    gap below 1e-12, completeness and positivity at the 1e-12 level, and both
    non-projectivity witnesses (projection defect and overlap) above 1e-3.
    """
    s2 = np.sqrt(2.0)
    m0 = np.array([[(6.0 - s2) / 8.0, s2 / 4.0], [s2 / 4.0, s2 / 2.0]])
    m1 = np.array([[(2.0 + s2) / 8.0, -s2 / 4.0], [-s2 / 4.0, 1.0 - s2 / 2.0]])
    gamma = np.arctan(1.0 / s2)
    state = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    honest = (x + z) / s2
    cheat = m0 - m1

    completeness = float(np.max(np.abs(m0 + m1 - np.eye(2))))
    eigs = np.concatenate([sym_eig(m0).values, sym_eig(m1).values])
    defect = min(
        float(np.linalg.norm(m @ m - m)) for m in (m0, m1)
    )
    gap = max(
        abs(correlation(state, a, cheat) - correlation(state, a, honest))
        for a in (np.eye(2), x)
    )
    overlap = correlation(state, np.eye(2), m0 @ m1).real
    valid = (
        completeness <= 1e-12
        and float(eigs.min()) >= -1e-12
        and float(eigs.max()) <= 1.0 + 1e-12
        and gap <= 1e-12
        and defect > 1e-3
        and abs(overlap) > 1e-3
    )
    return CheatingPovmReport(
        completeness_residual=completeness,
        min_eigenvalue=float(eigs.min()),
        max_eigenvalue=float(eigs.max()),
        projection_defect=defect,
        correlation_gap=float(gap),
        overlap=float(overlap),
        valid=valid,
    )
