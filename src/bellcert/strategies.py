"""States, measurements, correlations and post-hoc question spans for bipartite strategies.

A strategy is a Schmidt-diagonal pure state together with one projective
measurement per question on each side. In the Schmidt basis a joint
correlation reduces to a trace, <A (x) B> = Tr[D A D B^T] with D the diagonal
matrix of Schmidt coefficients, which is how everything here is computed.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULTS, Settings
from .errors import (
    BadParams,
    DimMismatch,
    InvalidMeasurement,
    NotOrderL,
    TooLarge,
)
from .jordan import has_trivial_centralizer
from .linalg import as_square_matrix, require_hermitian_stack, sym_eig

_BRUTE_FORCE_LIMIT = 4096
# verify_degenerate_pair: the largest correlation gap of a degenerate pair and
# the smallest Frobenius distance of two distinct observables
_DEGENERACY_GAP_TOL = 1e-9
_DISTINCT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SchmidtState:
    """Bipartite pure state given by its (strictly positive) Schmidt coefficients."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.coeffs, dtype=float).ravel()
        if lam.size == 0:
            raise BadParams("need at least one Schmidt coefficient")
        if not np.all(np.isfinite(lam)):  # NaN would pass both tests below
            raise BadParams(f"Schmidt coefficients must be finite, got {lam.tolist()!r}")
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


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """A complete family of mutually orthogonal projections.

    Validation (raising InvalidMeasurement) checks, entrywise within
    ``settings.eig_tol``: Hermiticity, idempotence of each projection,
    orthogonality of each pair, and completeness sum(projections) = I; see
    :func:`require_projective_stack`. ``binary_family`` builds many binary
    measurements at once and runs those checks once over all of them.
    """

    projections: tuple[np.ndarray, ...]
    settings: InitVar[Settings | None] = None

    def __post_init__(self, settings: Settings | None) -> None:
        if not len(self.projections):
            raise InvalidMeasurement("a measurement needs at least one output")
        [projs] = require_projective_stack([self.projections], settings=settings)
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
        cls, o: np.ndarray, *, settings: Settings | None = None
    ) -> "ProjectiveMeasurement":
        """Binary measurement {(I+O)/2, (I-O)/2} of a symmetric involution."""
        return cls.binary_family([o], settings=settings)[0]

    @classmethod
    def binary_family(
        cls, observables: Sequence[np.ndarray], *, settings: Settings | None = None
    ) -> tuple["ProjectiveMeasurement", ...]:
        """The binary measurements {(I+O)/2, (I-O)/2} of a family of observables.

        The (k, d, d) stack is validated once, by require_binary_observables;
        an error names the index of the first failing observable. That is
        the constructor's check too: with P = (I + O)/2 and Q = (I - O)/2,
        P^2 - P = Q^2 - Q = -PQ = (O^2 - I)/4 and P + Q = I, so O^2 = I
        within eig_tol keeps every projection gap within eig_tol / 4.
        """
        obs = require_binary_observables(observables, settings=settings)
        eye = np.eye(obs.shape[-1])
        out = []
        for pair in zip(0.5 * (eye + obs), 0.5 * (eye - obs)):
            m = object.__new__(cls)  # validated above, so __post_init__ is skipped
            object.__setattr__(m, "projections", pair)
            out.append(m)
        return tuple(out)


def require_projective_stack(
    stack: Sequence[Sequence[np.ndarray]] | np.ndarray, *, settings: Settings | None = None
) -> list[tuple[np.ndarray, ...]]:
    """Validate k measurements of L projections each: a (k, L, d, d) stack.

    Checks every measurement entrywise within ``settings.eig_tol``:
    Hermiticity (require_hermitian_stack), idempotence of each projection,
    orthogonality of each pair and completeness. A failure raises
    InvalidMeasurement (or require_hermitian_stack's error) naming the
    failing measurement's index. Returns each measurement's Hermitized
    projections; a projection that is real within tol is stored real.
    """
    tol = (settings or DEFAULTS).eig_tol
    stack = require_hermitian_stack(stack, tol, allow_complex=True)
    if stack.ndim != 4:
        raise DimMismatch(f"expected a (k, L, d, d) stack, got shape {stack.shape}")
    real = None
    if np.iscomplexobj(stack):  # a projection that is real within tol is checked real
        real = np.abs(stack.imag).max(axis=(2, 3), initial=0.0) <= tol
        stack = np.where(real[..., None, None], stack.real, stack)
    # every product P_a P_b, less P_a on the diagonal: all should vanish
    prod = stack[:, :, None] @ stack[:, None, :]
    n = np.arange(stack.shape[1])
    prod[:, n, n] -= stack
    gap = np.abs(prod).max(axis=(3, 4), initial=0.0)
    bad = np.argwhere(gap.diagonal(axis1=1, axis2=2) > tol)
    if bad.size:
        i, a = bad[0]
        raise InvalidMeasurement(
            f"measurement {i}: projection {a} is not idempotent ({gap[i, a, a]:.2e})"
        )
    bad = np.argwhere((gap > tol) & (n[:, None] < n))
    if bad.size:
        i, a, b = bad[0]
        raise InvalidMeasurement(
            f"measurement {i}: projections {a} and {b} are not orthogonal ({gap[i, a, b]:.2e})"
        )
    gap = np.abs(stack.sum(axis=1) - np.eye(stack.shape[-1])).max(axis=(1, 2))
    bad = np.flatnonzero(gap > tol)
    if bad.size:
        i = bad[0]
        raise InvalidMeasurement(
            f"measurement {i}: projections do not sum to identity ({gap[i]:.2e})"
        )
    if real is None:
        return [tuple(m) for m in stack]
    return [tuple(p.real.copy() if r else p for p, r in zip(*pair)) for pair in zip(stack, real)]


def require_binary_observable(o: np.ndarray, *, settings: Settings | None = None) -> np.ndarray:
    """Validate a real symmetric involution and return its symmetrized copy."""
    return require_binary_observables([o], settings=settings)[0]


def require_binary_observables(
    obs: Sequence[np.ndarray], *, settings: Settings | None = None
) -> np.ndarray:
    """require_binary_observable on every matrix at once: the (k, d, d) stack.

    Symmetry is checked at ``settings.sym_tol`` and O^2 = I entrywise at
    ``settings.eig_tol``. Mixed sizes raise DimMismatch.
    """
    s = settings or DEFAULTS
    if not len(obs):
        return np.zeros((0, 0, 0))
    m = require_hermitian_stack(obs, s.sym_tol)
    gap = np.abs(m @ m - np.eye(m.shape[1])).reshape(len(m), -1).max(axis=1, initial=0.0)
    bad = np.flatnonzero(gap > s.eig_tol)
    if bad.size:
        k = bad[0]
        raise InvalidMeasurement(f"matrix {k} squares to I within {gap[k]:.2e}")
    return m


def require_order_l(a: np.ndarray, outputs: int, *, settings: Settings | None = None) -> np.ndarray:
    """Validate a unitary with a^outputs = I and return it as a complex array.

    Raises BadParams for fewer than two outputs or a non-finite entry, and
    NotOrderL when either identity fails entrywise by more than eig_tol.
    """
    if outputs < 2:
        raise BadParams(f"a measurement needs at least two outputs, got {outputs}")
    tol = (settings or DEFAULTS).eig_tol
    u = as_square_matrix(a).astype(complex)
    if not np.isfinite(u).all():
        raise BadParams("the matrix has a non-finite entry")
    eye = np.eye(u.shape[0])
    if float(np.max(np.abs(u @ u.conj().T - eye))) > tol:
        raise NotOrderL("matrix is not unitary")
    if float(np.max(np.abs(np.linalg.matrix_power(u, outputs) - eye))) > tol:
        raise NotOrderL(f"matrix does not have order {outputs}")
    return u


@dataclass(frozen=True, eq=False)
class Strategy:
    """State plus per-question measurements (and labels) for both parties.

    ``target`` is the observable or measurement a certification pipeline
    built the strategy from (None otherwise); the strategy is that pipeline's
    output for it, so a file can store the target alone. It is not an
    __init__ argument, and dataclasses.replace resets it to None.
    """

    state: SchmidtState
    alice: tuple[ProjectiveMeasurement, ...]
    bob: tuple[ProjectiveMeasurement, ...]
    alice_labels: tuple[str, ...] = ()
    bob_labels: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)
    target: np.ndarray | ProjectiveMeasurement | None = field(default=None, init=False)

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
    fourier = np.exp(2j * np.pi / L) ** np.outer(np.arange(1, L), np.arange(L))
    powers = np.tensordot(fourier, np.array(m.projections), axes=1)
    return [np.eye(d, dtype=complex), *powers]


def correlation(state: SchmidtState, alice_op: np.ndarray, bob_op: np.ndarray) -> complex:
    """Joint expectation <psi| A (x) B |psi> = Tr[D A D B^T] in the Schmidt basis.

    Note the plain transpose on B (no conjugation); it comes from re-expressing
    Bob's half of the state on Alice's side.
    """
    d = state.dim
    a = as_square_matrix(alice_op)
    b = as_square_matrix(bob_op)
    if a.shape[0] != d or b.shape[0] != d:
        raise DimMismatch("operator dimension does not match the state")
    dm = state.matrix
    return complex(np.trace(dm @ a @ dm @ b.T))


@dataclass(eq=False)
class CorrelationTable:
    """Correlations values[r, c] of rows[r] = (x, j) against cols[c] = (y, k).

    x, y index questions and j, k powers of their generalized observables.
    Both labels ascend, so values' row-major order is ascending (x, j, y, k).
    Power 0 is the identity: (x, 0, y, 0) entries are 1, all magnitudes <= 1.
    """

    rows: tuple[tuple[int, int], ...]
    cols: tuple[tuple[int, int], ...]
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.size

    def max_difference(self, other: "CorrelationTable") -> float:
        """Largest |entry difference| of two tables with the same labels; 0.0 when empty."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimMismatch("correlation tables have different labels")
        return float(np.max(np.abs(self.values - other.values), initial=0.0))


def _labelled_powers(measurements: Sequence[ProjectiveMeasurement]):
    """The (question, power) labels and the generalized observables they name, in order."""
    ops = [generalized_observables(m) for m in measurements]
    labels = tuple((x, j) for x, o in enumerate(ops) for j in range(len(o)))
    return labels, [a for o in ops for a in o]


def correlation_table(strategy: Strategy) -> CorrelationTable:
    """All joint correlations of a strategy, one entry per question/power pair.

    Every entry is Tr[D A D B^T] as in :func:`correlation`, computed at once
    as one matrix product of the flattened D A D against the flattened B.
    """
    d = strategy.dim
    dm = strategy.state.matrix
    rows, alice = _labelled_powers(strategy.alice)
    cols, bob = _labelled_powers(strategy.bob)
    a = (dm @ np.array(alice).reshape(-1, d, d) @ dm).reshape(-1, d * d)
    b = np.array(bob).reshape(-1, d * d)
    return CorrelationTable(rows, cols, (a @ b.T).astype(complex))


def question_span(state: SchmidtState, ops: Sequence[np.ndarray]) -> np.ndarray:
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


def frame_generators(span: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The generators of a check's witness, from its frame W and span S_k.

    A real W (the binary check, W = O) gives W S_k. A complex W =
    conj(U)^power gives W^dag S_k and i W^dag S_k, interleaved, so that real
    coefficients cover the complex span of the W^dag S_k.
    """
    if np.isrealobj(w):
        return w @ span
    base = w.conj().T @ span
    return np.stack([base, 1j * base], axis=1).reshape(-1, *base.shape[1:])


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
    rows, alice = _labelled_powers(strategy.alice)
    cols, bob = _labelled_powers(strategy.bob)
    values = np.empty((len(rows), len(cols)), dtype=complex)
    for r, a in enumerate(alice):
        for c, b in enumerate(bob):
            values[r, c] = np.vdot(psi, np.kron(a, b) @ psi)
    return CorrelationTable(rows, cols, values)


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
    settings: Settings | None = None,
) -> DegeneracyReport:
    """Check that two distinct observables produce identical correlations.

    The pair is reported degenerate when its correlations against the identity
    and every reference observable agree within 1e-9, the two matrices differ
    by more than 1e-6 in Frobenius norm, and the reference family has a
    trivial centralizer (so the coincidence is not an artifact of a reducible
    reference). ``settings`` validates the observables.
    """
    b1, b2, *refs = require_binary_observables([first, second, *reference], settings=settings)
    d = state.dim
    if b1.shape[0] != d:
        raise DimMismatch("observable dimension does not match the state")
    ops = [np.eye(d)] + refs
    gap = max(
        abs(correlation(state, a, b1) - correlation(state, a, b2)) for a in ops
    )
    distinctness = float(np.linalg.norm(b1 - b2))
    trivial = has_trivial_centralizer(refs, settings=settings)
    return DegeneracyReport(
        correlation_gap=float(gap),
        distinctness=distinctness,
        centralizer_trivial=trivial,
        degenerate=bool(gap <= _DEGENERACY_GAP_TOL and distinctness > _DISTINCT_TOL and trivial),
        gap_tol=_DEGENERACY_GAP_TOL,
        distinct_tol=_DISTINCT_TOL,
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
