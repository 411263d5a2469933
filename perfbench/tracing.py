"""Spans and counters at bellcert's module boundaries, recorded from outside.

Both classes here wrap public functions by rebinding the name in every
``bellcert.*`` module that holds it (the defining module included, so calls
inside that module are seen too) and restore the originals on ``uninstall``.

``Capture`` keeps the return values of the feasibility and minimum-trace
solvers so the oracle can re-check the witnesses, which the command line does
not print. It is on in every run and adds one Python call per solve.

``Tracer`` records a span per call (name, start, end, parent, job id) in
memory, plus counters taken at the same boundaries, and reduces them to
per-layer calls and self times (span time minus the time its child spans
cover).
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "linalg": ("sym_eig", "sgn_map", "orthonormal_rows", "extend_orthonormal_rows"),
    "simplex": ("pair_observables", "maximal_independent_subset"),
    "jordan": ("jordan_closure", "span_basis", "cut_point_observables"),
    "posthoc": ("posthoc_feasible_binary", "posthoc_feasible_general", "min_trace_Q"),
    "strategies": ("correlation_table",),
    "certify": (
        "certificate_report",
        "binary_certification_strategy",
        "measurement_certification_strategy",
        "iterative_plan",
    ),
    "serialize": ("write_strategy", "table_to_csv"),
    "cli": ("main",),
}

CAPTURED = ("posthoc_feasible_binary", "posthoc_feasible_general", "min_trace_Q")


class _Rebinder:
    def __init__(self):
        self._saved = []

    def rebind(self, module_name: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[f"bellcert.{module_name}"], name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bellcert" or mod_name.startswith("bellcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class Capture(_Rebinder):
    """Collects (name, bound arguments, result) of every solver call of a job."""

    def __init__(self):
        super().__init__()
        self.records: list = []

    def install(self) -> "Capture":
        for name in CAPTURED:
            self.rebind("posthoc", name, lambda f, name=name: self._wrap(name, f))
        return self

    def _wrap(self, name, func):
        signature = inspect.signature(func)

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.records.append((name, bound.arguments, result))
            return result

        return wrapper

    def take(self) -> list:
        out, self.records = self.records, []
        return out


class Tracer(_Rebinder):
    """Span recorder for the functions in LAYERS."""

    def __init__(self):
        super().__init__()
        self.spans: list = []  # (id, name, start, end, parent, job, error)
        self.counts: Counter = Counter()
        self.verdicts: dict[int, list[str]] = {}  # span id -> verdicts returned
        self.job = None
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        for module_name, names in LAYERS.items():
            for name in names:
                self.rebind(module_name, name, lambda f, q=f"{module_name}.{name}": self._wrap(q, f))
        return self

    def _wrap(self, qualname: str, func):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, qualname, start, end, parent, tracer.job, error)
            tracer._count(sid, qualname, args, kwargs, result)
            return result

        return wrapper

    def _count(self, sid, qualname, args, kwargs, result) -> None:
        c = self.counts
        if qualname == "linalg.extend_orthonormal_rows":
            rows = args[1] if len(args) > 1 else kwargs["rows"]
            c[f"{qualname}.rows_offered"] += len(rows)
            c[f"{qualname}.rows_accepted"] += int(result[1])
        elif qualname == "posthoc.posthoc_feasible_binary":
            self.verdicts[sid] = [result.verdict]
        elif qualname == "posthoc.posthoc_feasible_general":
            self.verdicts[sid] = [r.verdict for r in result]
        elif qualname == "strategies.correlation_table":
            c[f"{qualname}.entries"] += len(result)
        elif qualname == "certify.iterative_plan":
            c[f"{qualname}.rounds"] += len(result.rounds)
        elif qualname.startswith("serialize."):
            c["serialize.bytes_written"] += os.path.getsize(args[0])

    def layer_metrics(self) -> dict:
        """Reduce the spans to the per-layer metrics, as {name: (value, unit)}."""
        spans = self.spans
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, self_s, verdicts = Counter(), defaultdict(float), Counter()
        sweeps = stalls = eig_in_binary = feasible_solves = resolves = 0
        for sid, name, start, end, parent, _, error in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            parent_name = spans[parent][1] if parent is not None else None
            if name == "linalg.extend_orthonormal_rows" and parent_name == "jordan.jordan_closure":
                sweeps += 1
            if name.startswith("posthoc.") and error == "SolverStall" and not (
                parent_name or ""
            ).startswith("posthoc."):
                stalls += 1
            if sid in self.verdicts:
                if parent_name == "posthoc.min_trace_Q":
                    resolves += name == "posthoc.posthoc_feasible_binary"
                else:  # a verdict the caller receives; min_trace_Q re-solves
                    verdicts.update(self.verdicts[sid])
                    feasible_solves += (
                        name == "posthoc.posthoc_feasible_binary" and self.verdicts[sid] == ["feasible"]
                    )
            if name == "linalg.sym_eig":
                p = parent
                while p is not None and spans[p][1] != "posthoc.posthoc_feasible_binary":
                    p = spans[p][4]
                eig_in_binary += p is not None

        def ratio(a, b):
            return a / b if b else 0.0

        cnt = self.counts
        offered = cnt["linalg.extend_orthonormal_rows.rows_offered"]
        accepted = cnt["linalg.extend_orthonormal_rows.rows_accepted"]
        pfb_calls = calls["posthoc.posthoc_feasible_binary"]
        return {
            "linalg.sym_eig.calls": (calls["linalg.sym_eig"], "count"),
            "linalg.sym_eig.self_s": (self_s["linalg.sym_eig"], "s"),
            "linalg.sgn_map.calls": (calls["linalg.sgn_map"], "count"),
            "linalg.orthonormal_rows.self_s": (self_s["linalg.orthonormal_rows"], "s"),
            "linalg.extend_orthonormal_rows.self_s": (self_s["linalg.extend_orthonormal_rows"], "s"),
            "linalg.extend_orthonormal_rows.rows_offered": (offered, "count"),
            "linalg.extend_orthonormal_rows.rows_accepted": (accepted, "count"),
            "linalg.extend_orthonormal_rows.accept_ratio": (ratio(accepted, offered), "ratio"),
            "simplex.pair_observables.self_s": (self_s["simplex.pair_observables"], "s"),
            "simplex.maximal_independent_subset.self_s": (
                self_s["simplex.maximal_independent_subset"], "s"),
            "jordan.jordan_closure.calls": (calls["jordan.jordan_closure"], "count"),
            "jordan.jordan_closure.self_s": (self_s["jordan.jordan_closure"], "s"),
            "jordan.jordan_closure.sweeps": (sweeps, "count"),
            "jordan.span_basis.self_s": (self_s["jordan.span_basis"], "s"),
            "jordan.cut_point_observables.self_s": (self_s["jordan.cut_point_observables"], "s"),
            "posthoc.posthoc_feasible_binary.calls": (pfb_calls, "count"),
            "posthoc.posthoc_feasible_binary.self_s": (self_s["posthoc.posthoc_feasible_binary"], "s"),
            "posthoc.posthoc_feasible_binary.sym_eig_per_call": (ratio(eig_in_binary, pfb_calls), "count"),
            "posthoc.posthoc_feasible_binary.calls_per_feasible": (
                ratio(feasible_solves + resolves, feasible_solves), "count"),
            "posthoc.posthoc_feasible_general.calls": (calls["posthoc.posthoc_feasible_general"], "count"),
            "posthoc.posthoc_feasible_general.self_s": (self_s["posthoc.posthoc_feasible_general"], "s"),
            "posthoc.min_trace_Q.calls": (calls["posthoc.min_trace_Q"], "count"),
            "posthoc.min_trace_Q.self_s": (self_s["posthoc.min_trace_Q"], "s"),
            "posthoc.verdict.feasible": (verdicts["feasible"], "count"),
            "posthoc.verdict.infeasible": (verdicts["infeasible"], "count"),
            "posthoc.verdict.marginal": (verdicts["marginal"], "count"),
            "posthoc.stalls": (stalls, "count"),
            "strategies.correlation_table.self_s": (self_s["strategies.correlation_table"], "s"),
            "strategies.correlation_table.entries": (cnt["strategies.correlation_table.entries"], "count"),
            "certify.certificate_report.self_s": (self_s["certify.certificate_report"], "s"),
            "certify.binary_certification_strategy.self_s": (
                self_s["certify.binary_certification_strategy"], "s"),
            "certify.measurement_certification_strategy.self_s": (
                self_s["certify.measurement_certification_strategy"], "s"),
            "certify.iterative_plan.self_s": (self_s["certify.iterative_plan"], "s"),
            "certify.iterative_plan.rounds": (cnt["certify.iterative_plan.rounds"], "count"),
            "serialize.write_strategy.self_s": (self_s["serialize.write_strategy"], "s"),
            "serialize.table_to_csv.self_s": (self_s["serialize.table_to_csv"], "s"),
            "serialize.bytes_written": (cnt["serialize.bytes_written"], "bytes"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        import json

        with open(path, "w") as fh:
            for sid, name, start, end, parent, job, error in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "error": error}) + "\n")
