"""Numeric tolerances and solver knobs, with a single shared default instance.

A :class:`Settings` object is the only way to set a package tolerance: every
public function that validates input or applies a threshold takes a
``settings=`` keyword and falls back to :data:`DEFAULTS` when it is omitted.
Only this module reads ``DEFAULTS`` fields; everywhere else they are read
from the caller's settings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import BadParams


@dataclass(frozen=True)
class Settings:
    """Package-wide tolerances.

    Eigendecompositions and orthogonalization are LAPACK calls with no knob
    of their own; with a given LAPACK build their results are deterministic.
    Every field must be finite, the tolerances positive and
    ``robustness_constant`` nonnegative; anything else raises BadParams.

    Attributes
    ----------
    sym_tol:
        Max allowed entrywise asymmetry |H - H^T| relative to max(1, max|H|).
    eig_tol:
        Tolerance for eigen-identities: involutions, idempotence, completeness,
        reconstruction residuals.
    singular_tol:
        Eigenvalues with |lambda| below this (relative to max(1, max|lambda|))
        are mapped to 0 by the matrix sign map and flagged as singular.
    feas_tol:
        Feasibility threshold for the post-hoc criterion: the verdict is
        "feasible" when the certified minimum eigenvalue exceeds +feas_tol,
        "infeasible" below -feas_tol, "marginal" in between.
    membership_tol:
        Span-membership residual threshold, relative to max(1, ||M||_F).
        Also the default tolerance baked into span bases.
    robustness_constant:
        Additive constant c in the (2*sqrt(TrQ/lmin Q)*lmax(D) + c)*eps term
        of the robustness bound. The default 2 is the conservative value the
        derivation supports end to end; 1 gives the tighter variant of the
        same bound.
    """

    sym_tol: float = 1e-10
    eig_tol: float = 1e-9
    singular_tol: float = 1e-8
    feas_tol: float = 1e-7
    membership_tol: float = 1e-8
    robustness_constant: float = 2.0

    def __post_init__(self) -> None:
        # a NaN threshold makes every `gap > tol` comparison false
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            constant = f.name == "robustness_constant"
            if not (math.isfinite(value) and (value >= 0.0 if constant else value > 0.0)):
                raise BadParams(
                    f"{f.name} must be finite and {'>= 0' if constant else '> 0'}, got {value!r}"
                )

    def replace(self, **overrides: float) -> "Settings":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_file(cls, path: str | Path, base: "Settings | None" = None) -> "Settings":
        """Load overrides from a JSON file of {field: number} on top of `base`."""
        values = json_numbers(json.loads(Path(path).read_text()), "settings")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise BadParams(f"unknown settings key(s): {', '.join(unknown)}")
        start = base if base is not None else DEFAULTS
        return start.replace(**values)


def is_number(v: object) -> bool:
    """An int or a float, not a bool: float() alone would also read true and "1e-3"."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_numbers(raw: object, what: str) -> dict[str, float]:
    """A parsed JSON object of numbers as {key: float}; else BadParams naming `what`."""
    if not isinstance(raw, dict):
        raise BadParams(f"{what} must be a JSON object, got {type(raw).__name__}")
    wrong = sorted(k for k, v in raw.items() if not is_number(v))
    if wrong:
        raise BadParams(f"{what} value(s) must be JSON numbers: {', '.join(wrong)}")
    return {k: float(v) for k, v in raw.items()}


DEFAULTS = Settings()
