"""Independent checks of every job's output, in plain numpy.

A check returns ``(status, reason)`` with status

- ``"ok"``: the output holds up;
- ``"failed"``: the job delivered no answer (exit code 2, an exception such
  as SolverStall, or a "marginal" verdict where a certificate is known to
  exist);
- ``"wrong"``: the job delivered an answer that is false: a verdict that
  contradicts ground truth, a witness or certificate that fails its re-check,
  an invalid plan, a wrong closure dimension;
- ``"undecided"``: the checks found nothing false, but could not confirm
  every plan step (no witness found for it).

Failed and wrong jobs both count in ``failed`` and lower ``ok_frac``; only wrong
ones make a run incorrect. Undecided jobs are counted on their own.
"""

from __future__ import annotations

import csv
import json

import numpy as np

FEAS_MARGIN = 1e-5  # a witness margin this large is ground truth "feasible"
Q_FLOOR = 1.0 - 1e-6  # lambda_min(Q) must not fall below this
SPAN_TOL = 1e-8  # relative residual for span membership
SYM_TOL = 1e-8  # relative asymmetry allowed in O.H
RANK_TOL = 1e-8  # relative singular-value cutoff for spans and closures
PLAN_MARGIN = 1e-9  # lambda_min(O.H) above this, for unit H, witnesses a plan step

OK, FAILED, WRONG, UNDECIDED = "ok", "failed", "wrong", "undecided"


# ----------------------------------------------------------------------
# linear algebra


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] == 0:
        return rows
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * max(1.0, sv[0])))
    return vt[:rank]


def closure_basis(mats) -> np.ndarray:
    """Orthonormal basis (k, d, d) of the Jordan closure of {I} and `mats`."""
    d = mats[0].shape[0]
    q = _orthonormal_rows(np.array([np.eye(d).ravel()] + [m.ravel() for m in mats]))
    while True:
        b = q.reshape(-1, d, d)
        b = 0.5 * (b + b.transpose(0, 2, 1))
        prod = np.einsum("aij,bjk->abik", b, b)
        jordan = 0.5 * (prod + prod.transpose(1, 0, 2, 3))
        iu = np.triu_indices(len(b))
        grown = _orthonormal_rows(np.vstack([q, jordan[iu].reshape(-1, d * d)]))
        if grown.shape[0] == q.shape[0]:
            return b
        q = grown


def trivial_centralizer(mats) -> bool:
    d = mats[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g) for g in mats])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv <= 1e-9 * max(1.0, sv[0]))) == 1


def span_residual(m: np.ndarray, gens) -> float:
    """Relative distance of m from the (complex) span of gens."""
    g = np.array([np.asarray(x, dtype=complex).ravel() for x in gens]).T
    v = np.asarray(m, dtype=complex).ravel()
    coef, *_ = np.linalg.lstsq(g, v, rcond=None)
    return float(np.linalg.norm(g @ coef - v) / max(np.linalg.norm(v), 1e-300))


def _span_generators(coeffs, ops) -> list[np.ndarray]:
    dm = np.diag(np.asarray(coeffs, dtype=float))
    return [dm @ dm] + [dm @ np.asarray(a) @ dm for a in ops]


def _hermitian_pd(m: np.ndarray) -> tuple[bool, str]:
    norm = float(np.linalg.norm(m))
    asym = float(np.linalg.norm(m - m.conj().T))
    if asym > SYM_TOL * max(norm, 1e-300):
        return False, f"not symmetric (asymmetry {asym:.2e} of {norm:.2e})"
    lam = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    if lam <= 0.0:
        return False, f"not positive definite (lambda_min {lam:.3e})"
    return True, ""


def binary_truth(coeffs, refs, target) -> str | None:
    """"feasible" when a witness with margin FEAS_MARGIN is found, else None."""
    o = np.asarray(target)
    gens = [o @ g for g in _span_generators(coeffs, refs)]
    asym = np.array([(g - g.T).ravel() for g in gens]).T
    _, sv, vt = np.linalg.svd(asym)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
    mats = np.einsum("mk,kij->mij", vt[rank:], np.array(gens))
    best = max_min_eig(0.5 * (mats + mats.transpose(0, 2, 1)), goal=FEAS_MARGIN)
    return "feasible" if best > FEAS_MARGIN else None


def max_min_eig(mats: np.ndarray, goal: float) -> float:
    """max over unit c of lambda_min(sum_k c_k mats[k]), or a lower bound.

    O.H is symmetric exactly when H commutes with O, so callers pass the
    symmetric combinations O.H over an orthonormal basis of the commuting
    H. Up to two directions are searched exhaustively. For more, a
    supergradient ascent (lambda_min is concave in c) from the trace
    direction and a few seeded random starts returns the best value it
    reaches, stopping once that exceeds `goal`; a value above zero is then
    a witness, a value below proves nothing."""
    if len(mats) == 0:
        return -np.inf
    if len(mats) == 1:
        return float(max(np.linalg.eigvalsh(mats[0])[0], np.linalg.eigvalsh(-mats[0])[0]))
    if len(mats) == 2:
        return _circle_max_min_eig(mats[0], mats[1])
    rng = np.random.default_rng(0)
    starts = [np.einsum("kii->k", mats)] + [rng.standard_normal(len(mats)) for _ in range(8)]
    best = -np.inf
    for c in starts:
        if np.linalg.norm(c) < 1e-12:
            continue
        c = c / np.linalg.norm(c)
        for it in range(400):
            vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", c, mats))
            best = max(best, float(vals[0]))
            if best > goal:
                return best
            v = vecs[:, 0]
            g = np.einsum("i,kij,j->k", v, mats, v)
            g -= (g @ c) * c
            if np.linalg.norm(g) < 1e-14:
                break
            c = c + (0.5 / np.sqrt(it + 1.0)) * g / np.linalg.norm(g)
            c /= np.linalg.norm(c)
    return best


def _circle_max_min_eig(m1: np.ndarray, m2: np.ndarray) -> float:
    """max over theta of lambda_min(cos(theta) m1 + sin(theta) m2)."""

    def f(theta):
        t = np.atleast_1d(theta)
        stack = np.cos(t)[:, None, None] * m1 + np.sin(t)[:, None, None] * m2
        return np.linalg.eigvalsh(stack)[:, 0]

    grid = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    vals = f(grid)
    k = int(np.argmax(vals))
    lo, hi = grid[k] - 2.0 * np.pi / 2048, grid[k] + 2.0 * np.pi / 2048
    ratio = 0.5 * (np.sqrt(5.0) - 1.0)
    for _ in range(60):  # golden section: lambda_min is unimodal on a feasible arc
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if f(a)[0] < f(b)[0]:
            lo = a
        else:
            hi = b
    return float(max(vals[k], f(0.5 * (lo + hi))[0]))


# ----------------------------------------------------------------------
# captured solver results


def check_captures(captures) -> tuple[str, str]:
    """Re-check every witness and minimum-trace certificate a job produced."""
    for name, args, result in captures:
        if name == "posthoc_feasible_binary":
            if not result.feasible:
                continue
            o = np.asarray(args["target"])
            h = result.witness
            gens = _span_generators(args["state"].coeffs, args["alice"])
            res = span_residual(h, gens)
            if res > SPAN_TOL:
                return WRONG, f"binary witness outside the span (residual {res:.2e})"
            ok, why = _hermitian_pd(o @ h)
            if not ok:
                return WRONG, f"binary witness: O.H {why}"
        elif name == "posthoc_feasible_general":
            u = np.asarray(args["target"], dtype=complex)
            gens = _span_generators(args["state"].coeffs, args["alice_powers"])
            for r in result:
                if not r.feasible:
                    continue
                ok, why = _hermitian_pd(r.witness)
                if not ok:
                    return WRONG, f"order-{args['outputs']} witness P {why}"
                w = np.linalg.matrix_power(u.conj(), r.power)
                res = span_residual(w @ r.witness, gens)
                if res > SPAN_TOL:
                    return WRONG, f"order-{args['outputs']} witness outside the span ({res:.2e})"
        elif name == "min_trace_Q":
            tr, q = result
            q = np.asarray(q, dtype=complex)
            if float(np.linalg.norm(q - q.conj().T)) > SYM_TOL * float(np.linalg.norm(q)):
                return WRONG, "min-trace Q is not Hermitian"
            lam = float(np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0])
            if lam < Q_FLOOR:
                return WRONG, f"min-trace Q has lambda_min {lam:.9f} < 1 - 1e-6"
            if abs(tr - float(np.trace(q).real)) > 1e-6 * max(1.0, abs(tr)):
                return WRONG, "reported Tr Q disagrees with Q"
            coeffs = args["state"].coeffs
            dm = np.diag(coeffs)
            w = np.linalg.matrix_power(np.asarray(args["target"], dtype=complex).conj(), args["power"])
            res = span_residual(w @ dm @ q @ dm, _span_generators(coeffs, args["alice_powers"]))
            if res > SPAN_TOL:
                return WRONG, f"min-trace Q violates the span constraint ({res:.2e})"
    return OK, ""


# ----------------------------------------------------------------------
# per-job checks


def _verdicts(verdicts, truth) -> tuple[str, str]:
    for v in verdicts:
        if truth == "feasible" and v == "infeasible":
            return WRONG, "infeasible verdict on a feasible instance"
        if truth == "feasible" and v == "marginal":
            return FAILED, "marginal verdict on a feasible instance"
    return OK, ""


def check_certify(job, rc: int, stdout: str, captures) -> tuple[str, str]:
    if rc == 2:
        return FAILED, "exit code 2"
    report = json.loads((job.out_dir / "report.json").read_text())
    d = job.data["d"]
    if report["closure_dimension"] != d * (d + 1) // 2 or not report["full_algebra"]:
        return WRONG, f"closure dimension {report['closure_dimension']} for a spanning family"
    status = _verdicts([e["verdict"] for e in report["extensions"]], job.truth)
    if status[0] != OK:
        return status
    if rc != (0 if report["all_feasible"] else 1):
        return WRONG, f"exit code {rc} disagrees with the report"
    for e in report["extensions"]:
        if e["lambda_min_q"] is None or e["lambda_min_q"] < Q_FLOOR:
            return WRONG, f"{e['label']}: lambda_min(Q) = {e['lambda_min_q']}"
    alice, bob = report["alice_questions"], report["bob_questions"]
    with open(job.out_dir / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != 4 * alice * bob:
        return WRONG, f"correlation table has {len(rows)} entries, expected {4 * alice * bob}"
    for x, j, y, k, re, im in rows:
        if j == "0" and k == "0" and abs(complex(float(re), float(im)) - 1.0) > 1e-9:
            return WRONG, f"identity correlation ({x},0,{y},0) is not 1"
    return check_captures(captures)


def check_posthoc(job, rc: int, stdout: str, captures) -> tuple[str, str]:
    if rc == 2:
        return FAILED, "exit code 2"
    payload = json.loads(stdout)
    results = payload["results"]
    if len(results) != job.data["outputs"] - 1:
        return WRONG, f"{len(results)} powers checked, expected {job.data['outputs'] - 1}"
    status = _verdicts([r["verdict"] for r in results], job.truth)
    if status[0] != OK:
        return status
    if rc != (0 if payload["feasible"] else 1):
        return WRONG, f"exit code {rc} disagrees with the verdict"
    if payload["feasible"]:
        for r in results:
            if r["lambda_min_q"] < Q_FLOOR:
                return WRONG, f"lambda_min(Q) = {r['lambda_min_q']} at power {r['power']}"
    return check_captures(captures)


def check_closure(job, rc: int, stdout: str, captures) -> tuple[str, str]:
    if rc != 0:
        return FAILED, f"exit code {rc}"
    fields = dict(line.split(": ", 1) for line in stdout.strip().splitlines())
    refs = job.data["refs"]
    d = refs[0].shape[0]
    dim = len(closure_basis(refs))
    if int(fields["dimension"]) != dim:
        return WRONG, f"closure dimension {fields['dimension']}, independent count {dim}"
    if (fields["full-algebra"] == "True") != (dim == d * (d + 1) // 2):
        return WRONG, "full-algebra flag disagrees with the dimension"
    if (fields["trivial-centralizer"] == "True") != trivial_centralizer(refs):
        return WRONG, "trivial-centralizer flag disagrees with the commutant"
    return OK, ""


def _extends(rows: np.ndarray, m: np.ndarray) -> tuple[bool, np.ndarray]:
    grown = _orthonormal_rows(np.vstack([rows, m.ravel()]))
    return grown.shape[0] > rows.shape[0], grown


def sign_margin(rows: np.ndarray, o: np.ndarray) -> float:
    """Best lambda_min(O.H) found over unit H in span(rows) commuting with O;
    above zero, H is a witness that O = sgn(H) is reachable from that span."""
    d = o.shape[0]
    mats = rows.reshape(-1, d, d)
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    comm = np.array([(m @ o - o @ m).ravel() for m in mats]).T
    _, sv, vt = np.linalg.svd(comm)
    rank = int(np.sum(sv > RANK_TOL * max(1.0, sv[0])))
    commuting = np.einsum("mk,kij->mij", vt[rank:], mats)
    products = np.einsum("ij,mjk->mik", o, commuting)
    return max_min_eig(0.5 * (products + products.transpose(0, 2, 1)), goal=PLAN_MARGIN)


def check_plan(job, plan, error) -> tuple[str, str]:
    """Plan validity: every step is a new involution of the closure that is
    the sign of an element of the other party's span at that point, and the
    final round gives Alice the target. Every generated target lies in the
    closure, so Unreachable is a wrong answer. A step whose witness the
    search does not find is UNDECIDED: neither shown valid nor invalid."""
    if error is not None:
        if type(error).__name__ == "Unreachable":
            return WRONG, "Unreachable raised for a target inside the closure"
        return FAILED, f"{type(error).__name__}: {error}"
    refs, target = job.data["refs"], job.data["target"]
    d = target.shape[0]
    closure = closure_basis(refs).reshape(-1, d * d)
    if plan.closure_dimension != closure.shape[0]:
        return WRONG, f"closure dimension {plan.closure_dimension}, independent count {closure.shape[0]}"
    if not plan.rounds or plan.rounds[-1].party != "alice":
        return WRONG, "the last round does not belong to Alice"
    last = plan.rounds[-1].observables
    if len(last) != 1 or float(np.max(np.abs(last[0] - target))) > 1e-9:
        return WRONG, "the last round is not the target"
    initial = _orthonormal_rows(np.array([np.eye(d).ravel()] + [a.ravel() for a in refs]))
    spans = {"alice": initial, "bob": initial}
    undecided = None
    for idx, rnd in enumerate(plan.rounds):
        other = spans["bob" if rnd.party == "alice" else "alice"]
        for o in rnd.observables:
            if float(np.max(np.abs(o @ o - np.eye(d)))) > 1e-8 or float(np.max(np.abs(o - o.T))) > 1e-8:
                return WRONG, f"round {idx}: not a symmetric involution"
            if span_residual(o, closure.reshape(-1, d, d)) > SPAN_TOL:
                return WRONG, f"round {idx}: observable outside the closure"
            margin = sign_margin(other, o)
            if margin <= PLAN_MARGIN and undecided is None:
                undecided = f"round {idx}: no witness found in the other span (best {margin:.2e})"
            if idx < len(plan.rounds) - 1:
                grew, spans[rnd.party] = _extends(spans[rnd.party], o)
                if not grew:
                    return WRONG, f"round {idx}: observable does not extend {rnd.party}'s span"
    if undecided is not None:
        return UNDECIDED, undecided
    return OK, ""
