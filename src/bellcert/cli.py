"""Command-line interface.

Subcommands mirror the library layers: build simplex reference families,
evaluate correlation tables, run the post-hoc feasibility check, inspect
Jordan closures, produce full certification reports, evaluate robustness
bounds, re-verify the built-in worked examples, and query the degeneracy
dimension count.

Exit codes: 0 on success; 1 when a check completes with a negative outcome
(infeasible or unreachable target, failed verification, correlation
mismatch); 2 for malformed inputs or any other handled error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULTS, Settings, json_numbers
from .errors import BellcertError, Infeasible, Unreachable
from .jordan import has_trivial_centralizer, jordan_closure, degeneracy_possible
from .linalg import sgn_map
from .posthoc import (
    RobustnessParams,
    analytic_family_2d,
    analytic_family_region,
    posthoc_check,
    posthoc_feasible_binary,
    robustness_bound,
)
from .serialize import (
    encode_matrix,
    matrices_from_json,
    measurements_from_json,
    read_strategy,
    state_from_json,
    strategy_from_json_dict,
    table_rows,
    table_to_csv,
    target_from_json,
    write_strategy,
)
from .simplex import (
    degenerate_pair_3d,
    pair_observables,
    simplex_observables,
    simplex_vectors,
)
from .strategies import (
    SchmidtState,
    brute_force_correlation,
    correlation_table,
    verify_cheating_povm,
    verify_degenerate_pair,
)
from .certify import certificate_report, certification_strategy

# command-line flag dest -> Settings field; the flag is the dest with dashes
_SETTINGS_FLAGS = {
    "tol_sym": "sym_tol",
    "tol_eig": "eig_tol",
    "tol_singular": "singular_tol",
    "tol_feas": "feas_tol",
    "tol_membership": "membership_tol",
    "robustness_constant": "robustness_constant",
}


def _build_settings(args: argparse.Namespace) -> Settings:
    s = DEFAULTS
    if getattr(args, "config", None):
        s = Settings.from_file(args.config, base=s)
    overrides = {
        field: getattr(args, dest)
        for dest, field in _SETTINGS_FLAGS.items()
        if getattr(args, dest, None) is not None
    }
    return s.replace(**overrides)


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _parent_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="JSON file of tolerance overrides")
    for dest in _SETTINGS_FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), type=float, dest=dest)
    return p


# built once per process: parsing leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parent = _parent_parser()
    parser = argparse.ArgumentParser(
        prog="bellcert",
        description="Certify binary quantum observables against reference families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simplex", parents=[parent], help="emit the simplex reference family"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument(
        "--pairs", action="store_true", help="include the pairwise sign observables"
    )

    p = sub.add_parser(
        "correlations", parents=[parent], help="tabulate strategy correlations"
    )
    p.add_argument("--strategy", required=True, help="strategy JSON file")
    p.add_argument("--out", help="write the table as CSV")
    p.add_argument(
        "--check-brute-force",
        action="store_true",
        help="cross-check against the explicit tensor-product computation",
    )

    p = sub.add_parser(
        "posthoc-check", parents=[parent], help="run the post-hoc criterion"
    )
    p.add_argument("--state", required=True, help="JSON with schmidt_coeffs")
    p.add_argument("--alice", required=True, help="JSON list of reference measurements")
    p.add_argument("--target", required=True, help="JSON observable or measurement")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "jordan-closure", parents=[parent], help="close a family under symmetrized products"
    )
    p.add_argument("--observables", required=True, help="JSON {matrices: [...]}")
    p.add_argument("--extra", help="JSON {matrices: [...]} of extra seeds")

    p = sub.add_parser(
        "certify", parents=[parent], help="build and certify a reference strategy"
    )
    p.add_argument("--target", required=True, help="JSON observable or measurement")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-table", action="store_true", help="skip the correlation table")

    p = sub.add_parser(
        "robustness", parents=[parent], help="evaluate the closed-form robustness bound"
    )
    p.add_argument("--params", required=True, help="JSON of bound parameters")
    p.add_argument("--epsilon", type=float, help="override the observable error")
    p.add_argument("--delta", type=float, help="override the correlation error")

    p = sub.add_parser(
        "verify-examples", parents=[parent], help="re-verify the built-in worked examples"
    )

    p = sub.add_parser(
        "degeneracy-check", parents=[parent], help="dimension count for degenerate pairs"
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--questions", type=int, required=True)
    p.add_argument("--maximally-entangled", action="store_true")

    return parser


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_simplex(args, settings: Settings) -> int:
    d = args.dim
    payload = {
        "dim": d,
        "vectors": [[float(v) for v in row] for row in simplex_vectors(d)],
        "observables": [encode_matrix(o) for o in simplex_observables(d)],
    }
    if args.pairs:
        payload["pairs"] = {
            f"{j},{k}": encode_matrix(m)
            for (j, k), m in sorted(pair_observables(d).items())
        }
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_correlations(args, settings: Settings) -> int:
    strategy = read_strategy(args.strategy, settings=settings)
    table = correlation_table(strategy)
    if args.out:
        table_to_csv(args.out, table)
    if args.check_brute_force:
        reference = brute_force_correlation(strategy)
        gap = table.max_difference(reference)
        print(f"brute-force gap: {gap:.3e}")
        if gap > 1e-10:
            print("MISMATCH between fast and explicit correlation computations")
            return 1
    if not args.out:
        sys.stdout.write(table_rows(table))
    return 0


def _cmd_posthoc_check(args, settings: Settings) -> int:
    raw_state = _load_json(args.state)
    rebuilt = None
    if isinstance(raw_state, dict) and raw_state.get("format") == 2:
        rebuilt = strategy_from_json_dict(raw_state, settings=settings)
    state = rebuilt.state if rebuilt is not None else state_from_json(raw_state, settings=settings)
    raw_alice = _load_json(args.alice)
    # one certified strategy file as both inputs: its pipeline is rebuilt once
    if rebuilt is not None and raw_alice == raw_state:
        refs = list(rebuilt.alice)
    else:
        refs = measurements_from_json(raw_alice, settings=settings)
    target = target_from_json(_load_json(args.target), settings=settings)
    results = posthoc_check(state, refs, target, settings=settings)
    feasible = all(r.feasible for r in results)
    if args.json:
        payload = {"feasible": feasible, "results": [r.to_json_dict() for r in results]}
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for r in results:
            line = f"power {r.power}: {r.verdict} (lambda_min {r.lambda_min_achieved:.3e})"
            if r.trace_q is not None:
                line += f", TrQ = {r.trace_q:.9f}"
            print(line)
        print("criterion:", "feasible" if feasible else "not feasible")
    return 0 if feasible else 1


def _cmd_jordan_closure(args, settings: Settings) -> int:
    mats = matrices_from_json(_load_json(args.observables))
    extras = matrices_from_json(_load_json(args.extra)) if args.extra else []
    basis, iterations = jordan_closure(mats + extras, settings=settings)
    d = basis.matrix_dim
    full = basis.dimension == d * (d + 1) // 2
    # a family's commutant is its closure's, and Sym(d)'s is the scalars
    trivial = full or has_trivial_centralizer(mats + extras, settings=settings)
    print(f"dimension: {basis.dimension}")
    print(f"iterations: {iterations}")
    print(f"full-algebra: {full}")
    print(f"trivial-centralizer: {trivial}")
    return 0


def _cmd_certify(args, settings: Settings) -> int:
    target = target_from_json(_load_json(args.target), settings=settings)
    strategy = certification_strategy(target, settings=settings)
    report = certificate_report(strategy, settings=settings)
    text = json.dumps(report.to_json_dict(), indent=2, allow_nan=False)
    table = None if args.no_table else correlation_table(strategy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_strategy(out / "strategy.json", strategy)
    (out / "report.json").write_text(text + "\n")
    if table is not None:
        table_to_csv(out / "table.csv", table)
    for label, r in report.extensions:
        print(f"{label}: {r.verdict}", end="")
        if r.trace_q is not None:
            print(f" (TrQ = {r.trace_q:.9f})", end="")
        print()
    print("all-feasible:", report.all_feasible())
    return 0 if report.all_feasible() else 1


def _cmd_robustness(args, settings: Settings) -> int:
    raw = json_numbers(_load_json(args.params), "robustness parameters")
    flags = {"epsilon": args.epsilon, "delta": args.delta}
    raw.update({k: v for k, v in flags.items() if v is not None})
    params = RobustnessParams.from_json_dict(raw)
    print(f"{robustness_bound(params, settings=settings)!r}")
    return 0


def _cmd_verify_examples(args, settings: Settings) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    # closed-form family vs direct sign computation, plus feasibility
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst = 0.0
    feasible_all = True
    for gamma in (0.2, 0.5, 0.7):
        state = SchmidtState(np.array([np.cos(gamma), np.sin(gamma)]))
        bound = analytic_family_region(gamma)
        for frac in (-0.9, -0.4, 0.0, 0.4, 0.9):
            a = frac * bound
            closed = analytic_family_2d(gamma, a, settings=settings)
            direct = sgn_map(
                x + a * state.matrix @ state.matrix, settings=settings
            )
            worst = max(worst, float(np.max(np.abs(closed - direct.matrix))))
            res = posthoc_feasible_binary(state, [x], closed, settings=settings)
            feasible_all = feasible_all and res.feasible
    check("analytic-family-closed-form", worst < 1e-8, f"max err {worst:.2e}")
    check("analytic-family-feasible", feasible_all)

    povm = verify_cheating_povm()
    check(
        "cheating-povm",
        povm.valid,
        f"correlation gap {povm.correlation_gap:.2e}, overlap {povm.overlap:.6f}",
    )

    state3, refs3, first, second = degenerate_pair_3d()
    report = verify_degenerate_pair(state3, refs3, first, second, settings=settings)
    check(
        "degenerate-pair",
        report.degenerate,
        f"correlation gap {report.correlation_gap:.2e}",
    )
    return 0 if failures == 0 else 1


def _cmd_degeneracy_check(args, settings: Settings) -> int:
    possible = degeneracy_possible(
        args.dim, args.questions, maximally_entangled=args.maximally_entangled
    )
    print("degenerate-pair-possible:", possible)
    return 0


_COMMANDS = {
    "simplex": _cmd_simplex,
    "correlations": _cmd_correlations,
    "posthoc-check": _cmd_posthoc_check,
    "jordan-closure": _cmd_jordan_closure,
    "certify": _cmd_certify,
    "robustness": _cmd_robustness,
    "verify-examples": _cmd_verify_examples,
    "degeneracy-check": _cmd_degeneracy_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        settings = _build_settings(args)
        return _COMMANDS[args.command](args, settings)
    except (Infeasible, Unreachable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BellcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
