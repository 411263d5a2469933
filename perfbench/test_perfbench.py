"""Smoke tests of the benchmark at small sizes.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

import bellcert  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _names_and_units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def _emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_pair_target_is_the_library_pair_observable():
    for d in (3, 4, 8):
        library = bellcert.pair_observables(d)
        assert np.allclose(inputs.pair_target(d), library[(0, 1)], atol=1e-12)
        for x, y in ((1, 2), (0, d), (2, d)):
            assert np.allclose(inputs.pair_target(d, x, y), library[(x, y)], atol=1e-12)


def test_end_to_end_run_emits_every_metric_with_its_unit(capsys):
    assert run.main(["--workload", "reachability", "--seed", "0", "--seconds", "0.1"]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert _emitted(result) == _names_and_units(BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit(capsys):
    assert run.main(["--workload", "reachability", "--seed", "0", "--seconds", "0.1", "--trace", "1"]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert result["correct"]
    assert _emitted(result) == _names_and_units(BENCH["per_layer"])
    for name, m in result["metrics"].items():
        if m["unit"] == "s":
            assert m["value"] > 0, f"{name} has no span"


def _traced_counts(tmp_path, seed: int) -> dict:
    probe = {
        w: inputs.Generator(w, seed, tmp_path, ladder=((4, 1),), measurement=(4, 3))
        for w in inputs.WORKLOADS
    }
    runner = run.Runner()
    tracer = Tracer().install()
    try:
        for job in run.probe_jobs(probe):
            assert runner.execute(job, tracer)[1] == oracle.OK
    finally:
        tracer.uninstall()
        runner.close()
    return {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit in ("count", "bytes")}


def test_fixed_seed_repeats_per_layer_counts(tmp_path):
    first = _traced_counts(tmp_path / "a", 5)
    second = _traced_counts(tmp_path / "b", 5)
    assert first == second
    assert first["posthoc.posthoc_feasible_binary.calls_per_feasible"] == 2.0
    assert first["linalg.sym_eig.calls"] > 0


@pytest.fixture
def feasible_instance():
    rng = np.random.default_rng(3)
    d = 3
    coeffs = inputs.geometric_schmidt(d, 10.0)
    refs = [inputs.random_reflection(rng, d, 1) for _ in range(d)]
    dm = np.diag(coeffs)
    h = 0.3 * dm @ dm + sum(dm @ a @ dm for a in refs)
    vals, vecs = np.linalg.eigh(h)
    target = (vecs * np.sign(vals)) @ vecs.T
    return bellcert.SchmidtState(coeffs), refs, target


def test_oracle_rejects_a_corrupted_witness(feasible_instance):
    state, refs, target = feasible_instance
    result = bellcert.posthoc_feasible_binary(state, refs, target)
    assert result.feasible
    args = {"state": state, "alice": refs, "target": target}
    assert oracle.check_captures([("posthoc_feasible_binary", args, result)])[0] == oracle.OK
    outside = dataclasses.replace(result, witness=result.witness + 1e-3 * np.eye(3)[:, ::-1])
    negated = dataclasses.replace(result, witness=-result.witness)
    for bad in (outside, negated):
        assert oracle.check_captures([("posthoc_feasible_binary", args, bad)])[0] == oracle.WRONG


def test_oracle_rejects_a_certificate_below_identity(feasible_instance):
    state, refs, target = feasible_instance
    tr, q = bellcert.min_trace_Q(state, refs, target)
    args = {"state": state, "alice_powers": refs, "target": target, "power": 1}
    assert oracle.check_captures([("min_trace_Q", args, (tr, q))])[0] == oracle.OK
    half = 0.5 * q
    assert oracle.check_captures([("min_trace_Q", args, (float(np.trace(half)), half))])[0] == oracle.WRONG


def test_oracle_rejects_a_plan_that_ends_elsewhere(tmp_path):
    gen = inputs.Generator("reachability", 2, tmp_path)
    job = next(j for j in gen.jobs() if j.job_id == "plan-d4")
    plan = bellcert.iterative_plan(job.data["refs"], job.data["target"], seed=job.data["seed"])
    assert oracle.check_plan(job, plan, None)[0] == oracle.OK
    last = dataclasses.replace(plan.rounds[-1], observables=(-job.data["target"],))
    wrong = dataclasses.replace(plan, rounds=plan.rounds[:-1] + (last,))
    assert oracle.check_plan(job, wrong, None)[0] == oracle.WRONG


def test_plan_step_needs_a_sign_witness_in_the_other_span():
    rng = np.random.default_rng(4)
    d = 5
    refs = [inputs.random_reflection(rng, d, 2) for _ in range(3)]
    rows = oracle._orthonormal_rows(np.array([np.eye(d).ravel()] + [a.ravel() for a in refs]))
    assert oracle.sign_margin(rows, refs[0]) > oracle.PLAN_MARGIN  # refs[0] = sgn(refs[0])
    stranger = inputs.random_reflection(rng, d, 2)  # commutes with no span element but I
    assert oracle.sign_margin(rows, stranger) <= oracle.PLAN_MARGIN


def test_witness_search_beyond_two_directions():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((4, 6, 6))
    mats = mats + mats.transpose(0, 2, 1)
    traceless = mats - np.einsum("kii->k", mats)[:, None, None] * np.eye(6) / 6
    assert oracle.max_min_eig(traceless, goal=1e-9) <= 0.0  # no combination is definite
    with_identity = np.concatenate([traceless, [np.eye(6)]])
    assert oracle.max_min_eig(with_identity, goal=1e-9) > 1e-9


def test_tail_is_the_p90_by_nearest_rank():
    assert run.tail_latency([float(i) for i in range(1, 11)]) == (9.0, 1)
    assert run.tail_latency([float(i) for i in range(1, 10)]) == (9.0, 0)


def test_slot_latency_is_the_median_of_its_scaled_samples():
    slots = run.slot_latencies({"a": [4.0, 1.0, 3.0, 2.0], "b": [5.0], "c": [3.0, 1.0, 2.0]})
    assert slots == {"a": 2.5, "b": 5.0, "c": 2.0}


def test_reference_factor_scales_to_the_nominal_host_speed(monkeypatch):
    reference = hostspeed.Reference()
    nominal = hostspeed.NOMINAL_S
    times = iter([nominal, nominal, 2.0 * nominal])
    monkeypatch.setattr(reference, "gap", lambda: next(times))
    reference.factor()  # the interval after construction: its first reference time was not patched
    assert reference.factor() == pytest.approx(1.0)  # nominal before and after
    assert reference.factor() == pytest.approx(2.0 / 3.0)  # nominal before, twice nominal after
