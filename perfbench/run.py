"""Benchmark for bellcert: whole certification jobs, timed and checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 55 --trace 0

Workloads are defined in inputs.py. BENCHMARK.json lists certify-ladder and
reachability. posthoc-skewed runs the same way but is not listed: its jobs
take from milliseconds to tens of seconds, so at the current solver speed one
run's figures depend on which instances the seed drew.

One client in one process runs jobs back to back (a closed loop) through the
public entry points: ``bellcert.cli.main([...])`` for ``certify``,
``posthoc-check`` and ``jordan-closure``, and ``bellcert.iterative_plan``.
A workload is a fixed list of job slots whose inputs are drawn from
``--seed``. The run repeats the list, each time in a new order, at least
MIN_REPEATS times and for ``--seconds`` seconds. Between two jobs it times a
fixed reference kernel (hostspeed.py), which scales each latency to a
nominal host speed. Generating inputs and checking every output (oracle.py)
are not timed.

End-to-end metrics (``--trace 0``):

- ``jobs_per_s``, ``job_p50_s``, ``job_tail_s``: jobs per second, median and
  p90 latency over the slots, where each slot counts with the median of its
  scaled latencies (see ``slot_latencies``);
- ``ok_frac``: share of attempted jobs that passed every check;
- ``setup_s``: median scaled wall time of a fresh interpreter importing
  bellcert.cli;
- ``peak_rss_mb``: the run's peak resident set size.

``--trace 1`` runs a few small probe jobs and the workload's slots four
times: untraced, traced, traced, untraced. The first traced pass gives the
per-layer metrics (tracing.py); its counts depend only on the seed. The
tracing overhead compares each job's lowest traced and untraced latency.
The spans are written to ``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment (numpy, BLAS, Python, CPU count, seed, thread pins)
and the run's details: the reference kernel's times, and under ``plain`` the
same figures from unscaled latencies (best-of-N per slot, and over the whole
loop).
"""

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from hostspeed import NOMINAL_S, Reference
from inputs import WORKLOADS, Generator
from tracing import Capture, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 15
MIN_REPEATS = 3  # every slot is timed at least this often
WALL_CAP_S = 150.0  # stop starting jobs after this much wall time
TAIL_PERCENTILE = 90.0


def _env_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "numpy": np.__version__,
        "blas": vendor,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class SetupTimer:
    """Wall time of a fresh interpreter importing bellcert.cli, the start-up
    cost every command-line invocation pays, scaled like the jobs (see
    hostspeed.py). Samples are taken between repeats, so that they spread
    over the run like the jobs do."""

    def __init__(self, reference: Reference):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.cmd = [sys.executable, "-c", "import bellcert.cli"]
        self.reference = reference
        self.samples: list[float] = []  # plain wall times
        self.scaled: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # warm the file cache
        reference.factor()  # so that the next interval starts from a fresh reference time

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.samples.append(time.perf_counter() - t0)
            self.scaled.append(self.samples[-1] * self.reference.factor())

    def median(self) -> float:
        self.sample(max(0, SETUP_SAMPLES - len(self.samples)))
        return statistics.median(self.scaled)


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """(p90 latency by nearest rank, number of jobs beyond it).

    There is one latency per slot, too few for the highest percentile with
    ten jobs beyond it; a fixed percentile picks the same slot however many
    repeats a run completes."""
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def loop_tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, latency) at the highest nearest-rank percentile with at
    least ten jobs beyond it, or None for fewer than eleven jobs."""
    if len(latencies) < 11:
        return None
    rank = len(latencies) - 10
    return 100.0 * rank / len(latencies), sorted(latencies)[rank - 1]


class Runner:
    """Executes jobs in process and checks them."""

    def __init__(self):
        import bellcert.certify
        import bellcert.cli

        self.cli = bellcert.cli
        self.certify = bellcert.certify
        self.capture = Capture().install()

    def close(self) -> None:
        self.capture.uninstall()

    def execute(self, job, tracer=None):
        """Run one job; returns (latency_s, status, reason)."""
        if tracer is not None:
            tracer.job = job.job_id
        if job.kind == "plan":
            raw = json.loads(Path(job.data["path"]).read_text())
            refs = [np.array(a) for a in raw["initial"]]
            target = np.array(raw["target"])
            self.capture.take()
            plan = error = None
            t0 = time.perf_counter()
            try:
                plan = self.certify.iterative_plan(refs, target, seed=job.data["seed"])
            except Exception as exc:  # the oracle classifies every exception
                error = exc
            latency = time.perf_counter() - t0
            status, reason = oracle.check_plan(job, plan, error)
            return latency, status, reason
        if job.out_dir is not None:  # so that a repeat cannot pass on an earlier repeat's files
            shutil.rmtree(job.out_dir, ignore_errors=True)
        out = io.StringIO()
        self.capture.take()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(job.argv)
            except Exception:  # an unhandled error is a failed job
                rc = 2
        latency = time.perf_counter() - t0
        captures = self.capture.take()
        check = {"certify": oracle.check_certify, "posthoc": oracle.check_posthoc,
                 "closure": oracle.check_closure}[job.kind]
        try:
            status, reason = check(job, rc, out.getvalue(), captures)
        except Exception as exc:  # output the oracle cannot parse is a wrong answer
            status, reason = oracle.WRONG, f"unreadable output: {type(exc).__name__}: {exc}"
        return latency, status, reason


def best_pass(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each slot's lowest plain latency in the run, for the detail line."""
    return {job_id: min(latencies) for job_id, latencies in samples.items()}


def slot_latencies(scaled: dict[str, list[float]]) -> dict[str, float]:
    """Each slot's median scaled latency in the run.

    A slot runs the same inputs every repeat. Scaling (hostspeed.py) removes
    the drift that outlasts a job; the median discards the samples that a
    burst inside the job slowed, or sped up, unlike the reference times
    around it, and the first, cold call of each slot."""
    return {job_id: statistics.median(xs) for job_id, xs in scaled.items()}


def run_end_to_end(runner, jobs, reference: Reference, setup: SetupTimer, seconds: float, seed: int) -> dict:
    """Repeat the slots, each repeat in a new order, for `seconds`.

    After MIN_REPEATS repeats the loop starts a job only if the slot's
    median latency so far still fits in `seconds`, so a run lasts about
    `seconds` whatever the speed of the host."""
    samples: dict[str, list[float]] = {job.job_id: [] for job in jobs}
    scaled: dict[str, list[float]] = {job.job_id: [] for job in jobs}
    statuses, repeat_s = [], []
    started = time.perf_counter()

    def fits(job) -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= WALL_CAP_S:
            return False
        return len(repeat_s) < MIN_REPEATS or elapsed + statistics.median(samples[job.job_id]) <= seconds

    while True:
        t0 = time.perf_counter()
        ran = 0
        for i in np.random.default_rng([seed, len(repeat_s)]).permutation(len(jobs)):
            if not fits(jobs[i]):
                break
            latency, status, reason = runner.execute(jobs[i])
            samples[jobs[i].job_id].append(latency)
            scaled[jobs[i].job_id].append(latency * reference.factor())
            statuses.append((jobs[i].job_id, status, reason))
            ran += 1
        if ran:
            repeat_s.append(time.perf_counter() - t0)
        if ran < len(jobs):
            break
        if len(setup.samples) < SETUP_SAMPLES:
            setup.sample()
    return {"samples": samples, "scaled": scaled, "statuses": statuses, "repeat_s": repeat_s,
            "wall_s": time.perf_counter() - started}


def reference_record(reference: Reference) -> dict:
    """How fast the host ran the reference kernel during the run."""
    times = reference.samples
    return {"nominal_s": NOMINAL_S, "runs": len(times), "min_s": min(times),
            "median_s": statistics.median(times), "max_s": max(times)}


def run_traced(runner, jobs, workload: str) -> dict:
    """Untraced, traced, traced and untraced passes over the same jobs; the
    first traced pass gives the per-layer metrics."""
    tracers = [Tracer(), Tracer()]
    best: dict[bool, dict[str, float]] = {False: {}, True: {}}
    statuses = []
    for tracer in (None, tracers[0], tracers[1], None):
        if tracer is not None:
            tracer.install()
        try:
            for job in jobs:
                latency, status, reason = runner.execute(job, tracer)
                traced = tracer is not None
                best[traced][job.job_id] = min(latency, best[traced].get(job.job_id, latency))
                statuses.append((job.job_id, status, reason))
        finally:
            if tracer is not None:
                tracer.uninstall()
    metrics = tracers[0].layer_metrics()
    rate = {traced: len(b) / sum(b.values()) for traced, b in best.items()}
    metrics["trace.jobs_per_s_untraced"] = (rate[False], "1/s")
    metrics["trace.jobs_per_s_traced"] = (rate[True], "1/s")
    metrics["trace.overhead_frac"] = (rate[False] / rate[True] - 1.0, "ratio")
    tracers[0].dump(WORK / f"spans-{workload}.jsonl")
    return {"metrics": metrics, "statuses": statuses, "spans": len(tracers[0].spans)}


def probe_jobs(probe_gen) -> list:
    """Small jobs that together reach every layer, so that no layer is missing
    from a trace: certify of a binary target and of a 3-outcome measurement at
    d = 4, an order-3 posthoc-check at d = 5 and an iterative plan at d = 4."""
    certify = probe_gen["certify-ladder"].jobs()
    posthoc = [j for j in probe_gen["posthoc-skewed"].jobs() if j.job_id == "m3-d5-other"]
    plans = [j for j in probe_gen["reachability"].jobs() if j.job_id == "plan-d4"]
    jobs = certify + posthoc + plans
    for job in jobs:
        job.job_id = f"probe/{job.job_id}"
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellcert" / "cli.py").is_file():
        print(f"error: no bellcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = None
    try:
        runner = Runner()
        jobs = Generator(args.workload, args.seed, workdir).jobs()
        detail = {"workload": args.workload, "env": _env_record(args.seed)}
        if args.trace:
            probe = {w: Generator(w, args.seed, workdir / "probe", ladder=((4, 1),), measurement=(4, 3))
                     for w in WORKLOADS}
            traced = run_traced(runner, probe_jobs(probe) + jobs, args.workload)
            metrics = traced["metrics"]
            statuses = traced["statuses"]
            detail["spans"] = traced["spans"]
        else:
            reference = Reference()
            setup = SetupTimer(reference)
            e2e = run_end_to_end(runner, jobs, reference, setup, args.seconds, args.seed)
            statuses = e2e["statuses"]
            slots = slot_latencies(e2e["scaled"])
            tail, beyond = tail_latency(list(slots.values()))
            n_failed = sum(1 for _, s, _ in statuses if s in (oracle.FAILED, oracle.WRONG))
            metrics = {
                "jobs_per_s": (len(slots) / sum(slots.values()), "1/s"),
                "job_p50_s": (statistics.median(slots.values()), "s"),
                "job_tail_s": (tail, "s"),
                "ok_frac": (1.0 - n_failed / len(statuses), "ratio"),
                "setup_s": (setup.median(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            latencies = [x for xs in e2e["samples"].values() for x in xs]
            best = best_pass(e2e["samples"])
            detail.update(
                repeats=len(e2e["repeat_s"]), repeat_s=e2e["repeat_s"], wall_s=e2e["wall_s"],
                jobs=len(latencies), tail_percentile=TAIL_PERCENTILE, tail_slots=len(slots),
                tail_slots_beyond=beyond, slot_scaled_s=slots, reference=reference_record(reference),
                plain=dict(
                    best_pass_s=best, jobs_per_s=len(best) / sum(best.values()),
                    job_p50_s=statistics.median(best.values()), job_tail_s=tail_latency(list(best.values()))[0],
                    setup_s=statistics.median(setup.samples), loop_jobs_per_s=len(latencies) / sum(latencies),
                    loop_p50_s=statistics.median(latencies), loop_tail=loop_tail(latencies),
                ),
                setup_samples=len(setup.samples),
            )
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [s for s in statuses if s[1] in (oracle.FAILED, oracle.WRONG)]
    detail["failures"] = failures
    detail["undecided"] = [s for s in statuses if s[1] == oracle.UNDECIDED]
    print(json.dumps(detail))
    result = {
        "correct": not any(s == oracle.WRONG for _, s, _ in statuses),
        "attempted": len(statuses),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
