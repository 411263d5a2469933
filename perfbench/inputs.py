"""Seeded input generator for the benchmark workloads.

A workload is a fixed list of job slots (dimension, Schmidt skew, target
kind, outcome count); the random content of each slot is drawn once from the
seed. A run repeats the whole list several times, so every slot is timed
more than once on the same inputs, and runs of the same code measure the
same mix of work whatever the seed.

The generator writes each job's JSON inputs into the work directory and
records what the oracle needs to check the job's output: the ground truth
where it is known by construction, and the arrays the inputs encode.
Nothing here is timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("certify-ladder", "posthoc-skewed", "reachability")

# certify-ladder: targets per dimension, the pair target T_01 and then pair
# targets T_xy with (x, y) drawn from the seed. Random reflections are left
# out: their cost varies too much between draws (at d = 4 a rank-one one took
# 0.23 to 0.76 s, at d = 8 1.3 to 5.4 s), so one run's figures would depend
# on the draw; the pair targets of one d cost within ~1.5x of each other.
# The ROADMAP's d = 12 and d = 16 are left out: one job takes 3.4-6 s at
# d = 12 and 15-20 s at d = 16, so a run could time it only a few times, and
# the reference times around so long a job no longer tell how fast the host
# ran during it (hostspeed.py). d = 10 is the largest size that keeps a job
# near 2 s.
LADDER = ((4, 2), (8, 1), (10, 1))
# One 3-outcome projective measurement at d = 4, drawn once from a fixed seed:
# like T_01 it is the same for every seed, because its cost varies by a
# factor of three between random draws. At d = 8 one such job takes 3-4 s,
# which would halve how often a run can time the d = 10 job.
LADDER_MEASUREMENT = (4, 3)
MEASUREMENT_SEED = 0

# posthoc-skewed: for every (d, kappa), one span target and one reflection
# target; plus one "own" and one "other" instance per order-L cell (d,
# outputs). d = outputs = 4 is left out: with a different measurement among
# the references one such check runs for ~50 s.
POSTHOC_DIMS = (3, 4, 5, 6)
KAPPAS = (1.0, 1e1, 1e2, 1e3)
ORDER_L_CELLS = ((5, 3), (5, 4))

# reachability: plans at PLAN_DIMS and for both members of the degenerate
# pair, closures at CLOSURE_DIMS. Two closures at d = 10 put the median job
# on a closure at d = 10, whose cost depends little on the instance, rather
# than on the plan at d = 6, whose cost does.
PLAN_DIMS = (4, 5, 6)
CLOSURE_DIMS = (8, 10, 10, 12)


@dataclass
class Job:
    """One unit of work: a CLI invocation or an ``iterative_plan`` call."""

    job_id: str
    kind: str  # "certify" | "posthoc" | "closure" | "plan"
    argv: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)  # arrays the oracle checks against
    truth: str | None = None  # "feasible" when known by construction
    out_dir: Path | None = None


def encode(m: np.ndarray) -> list:
    a = np.asarray(m)
    if np.iscomplexobj(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_reflection(rng: np.random.Generator, d: int, positive: int) -> np.ndarray:
    """Symmetric involution with `positive` eigenvalues +1, in a random basis."""
    u = random_orthogonal(rng, d)
    signs = np.array([1.0] * positive + [-1.0] * (d - positive))
    return (u * signs) @ u.T


def random_measurement(rng: np.random.Generator, d: int, outputs: int) -> list[np.ndarray]:
    """Real projective measurement with ranks as equal as possible."""
    u = random_orthogonal(rng, d)
    sizes = [d // outputs + (1 if a < d % outputs else 0) for a in range(outputs)]
    projs, start = [], 0
    for size in sizes:
        cols = u[:, start : start + size]
        projs.append(cols @ cols.T)
        start += size
    return projs


def geometric_schmidt(d: int, kappa: float) -> np.ndarray:
    """Schmidt coefficients in geometric progression with max/min = kappa."""
    lam = kappa ** (-np.arange(d) / (d - 1))
    return lam / np.linalg.norm(lam)


def pair_target(d: int, x: int = 0, y: int = 1) -> np.ndarray:
    """The pairwise sign observable T_xy of the regular simplex in R^d.

    Follows the documented construction (orthonormalize the all-ones vector
    and e_1..e_d in R^(d+1), express the simplex directions in that basis,
    drop the first coordinate), so it equals ``pair_observables(d)[(x, y)]``.
    """
    n = d + 1
    a = np.full(n, 1.0 / np.sqrt(n))
    q, r = np.linalg.qr(np.column_stack([a] + [np.eye(n)[k] for k in range(1, n)]))
    u = (q * np.sign(np.diag(r))).T
    vs = []
    for k in (x, y):
        f = np.eye(n)[k] - a[k] * a
        vs.append((u @ (f / np.linalg.norm(f)))[1:])
    w = np.sqrt(d / (2.0 * (d + 1.0))) * (vs[0] - vs[1])
    return 2.0 * np.outer(w, w) - np.eye(d)


def measurement_json(projs: list[np.ndarray]) -> dict:
    return {"projections": [encode(p) for p in projs]}


def binary_json(o: np.ndarray) -> dict:
    eye = np.eye(o.shape[0])
    return measurement_json([0.5 * (eye + o), 0.5 * (eye - o)])


class Generator:
    """Writes the inputs of a workload's jobs under `workdir`.

    `ladder` and `measurement` set the certify-ladder sizes; traced runs use a
    d = 4 ladder as a probe that reaches every layer.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, ladder=LADDER,
                 measurement=LADDER_MEASUREMENT):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.ladder = ladder
        self.measurement = measurement

    def jobs(self) -> list[Job]:
        """The workload's job slots, with content drawn from the seed."""
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload)])
        root = self.workdir / "inputs"
        root.mkdir(parents=True, exist_ok=True)
        make = {
            "certify-ladder": self._certify_jobs,
            "posthoc-skewed": self._posthoc_jobs,
            "reachability": self._reachability_jobs,
        }[self.workload]
        return make(rng, root)

    @staticmethod
    def _write(path: Path, payload) -> str:
        path.write_text(json.dumps(payload))
        return str(path)

    # ------------------------------------------------------------------
    def _certify_job(self, root: Path, name: str, target_json: dict, data: dict) -> Job:
        target = self._write(root / f"{name}.target.json", target_json)
        out = root / f"{name}.out"
        return Job(
            job_id=name,
            kind="certify",
            argv=["certify", "--target", target, "--out", str(out)],
            data=data,
            truth="feasible",  # Bob's family spans every symmetric matrix
            out_dir=out,
        )

    def _certify_jobs(self, rng, root: Path) -> list[Job]:
        jobs = []
        for d, count in self.ladder:
            pairs = [(x, y) for x in range(d + 1) for y in range(x + 1, d + 1) if (x, y) != (0, 1)]
            for j in range(count):
                o = pair_target(d) if j == 0 else pair_target(d, *pairs[rng.integers(len(pairs))])
                jobs.append(
                    self._certify_job(root, f"d{d}-{j}", {"matrix": encode(o)}, {"d": d})
                )
        d, outputs = self.measurement
        projs = random_measurement(np.random.default_rng(MEASUREMENT_SEED), d, outputs)
        jobs.append(self._certify_job(root, f"d{d}-m{outputs}", measurement_json(projs), {"d": d}))
        return jobs

    # ------------------------------------------------------------------
    def _posthoc_job(self, root, name, coeffs, refs_json, target_json, data, truth) -> Job:
        state = self._write(root / f"{name}.state.json", {"schmidt_coeffs": [float(c) for c in coeffs]})
        alice = self._write(root / f"{name}.alice.json", refs_json)
        target = self._write(root / f"{name}.target.json", target_json)
        data = dict(data, coeffs=np.asarray(coeffs))
        return Job(
            job_id=name,
            kind="posthoc",
            argv=["posthoc-check", "--state", state, "--alice", alice, "--target", target, "--json"],
            data=data,
            truth=truth,
        )

    def _posthoc_jobs(self, rng, root: Path) -> list[Job]:
        jobs = []
        for d in POSTHOC_DIMS:
            for j, kappa in enumerate(KAPPAS):
                coeffs = geometric_schmidt(d, kappa)
                refs = [random_reflection(rng, d, int(rng.integers(1, d))) for _ in range(d)]
                # sgn of a random span element: feasible by construction
                dm = np.diag(coeffs)
                gens = [dm @ dm] + [dm @ a @ dm for a in refs]
                vals, vecs = np.linalg.eigh(np.einsum("k,kij->ij", rng.standard_normal(d + 1), gens))
                span_target = (vecs * np.sign(vals)) @ vecs.T
                reflection = random_reflection(rng, d, int(rng.integers(1, d)))
                for kind, target, truth in (
                    ("span", span_target, "feasible"),
                    ("refl", reflection, oracle.binary_truth(coeffs, refs, reflection)),
                ):
                    jobs.append(
                        self._posthoc_job(
                            root, f"b-d{d}-k{j}-{kind}", coeffs, [binary_json(a) for a in refs],
                            {"matrix": encode(target)},
                            {"refs": refs, "target": target, "outputs": 2}, truth,
                        )
                    )
        for d, outputs in ORDER_L_CELLS:
            coeffs = np.full(d, 1.0 / np.sqrt(d))
            for own in (True, False):
                refs = [random_measurement(rng, d, outputs) for _ in range(2)]
                target = refs[0] if own else random_measurement(rng, d, outputs)
                jobs.append(
                    self._posthoc_job(
                        root, f"m{outputs}-d{d}-{'own' if own else 'other'}", coeffs,
                        [measurement_json(p) for p in refs], measurement_json(target),
                        {"refs": refs, "target": target, "outputs": outputs},
                        "feasible" if own else None,
                    )
                )
        return jobs

    # ------------------------------------------------------------------
    def _reachability_jobs(self, rng, root: Path) -> list[Job]:
        jobs = []
        families = [(d, [random_reflection(rng, d, d // 2) for _ in range(3)]) for d in PLAN_DIMS]
        for d, refs in families:
            basis = oracle.closure_basis(refs)
            h = np.einsum("k,kij->ij", rng.standard_normal(len(basis)), basis)
            vals, vecs = np.linalg.eigh(h)
            cut = int(rng.integers(0, d - 1))
            r = 0.5 * (vals[cut] + vals[cut + 1])
            target = (vecs * np.sign(vals - r)) @ vecs.T
            jobs.append(self._plan_job(root, f"plan-d{d}", refs, target, rng))
        _, refs3, first, second = _degenerate_pair()
        for i, target in enumerate((first, second)):
            jobs.append(self._plan_job(root, f"plan-degenerate-{i}", refs3, target, rng))
        for i, d in enumerate(CLOSURE_DIMS):
            refs = [random_reflection(rng, d, d // 2) for _ in range(3)]
            name = f"closure-d{d}-{i}"
            obs = self._write(root / f"{name}.json", {"matrices": [encode(a) for a in refs]})
            jobs.append(
                Job(
                    job_id=name,
                    kind="closure",
                    argv=["jordan-closure", "--observables", obs],
                    data={"refs": refs},
                )
            )
        return jobs

    def _plan_job(self, root, name, refs, target, rng) -> Job:
        path = self._write(
            root / f"{name}.json",
            {"initial": [encode(a) for a in refs], "target": encode(target)},
        )
        return Job(
            job_id=name,
            kind="plan",
            data={"path": path, "refs": refs, "target": target, "seed": int(rng.integers(2**31))},
        )


def _degenerate_pair():
    from bellcert.simplex import degenerate_pair_3d

    return degenerate_pair_3d()
