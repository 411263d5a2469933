"""Host-speed reference for the benchmark's timings.

On a virtual machine that shares its cores with other tenants, the same code
runs at a speed that drifts over minutes. On a 2-vCPU x86-64 VM, the fastest
run of one fixed plan job (the degenerate pair target) within a 55 s window
ranged from 0.71 to 1.20 s over 25 minutes, with CPU time equal to wall time
and the other vCPU idle: the slowdown comes from outside the VM. Best-of-N
latencies move with that drift, so two sets of runs of the same code
disagreed by more than the benchmark's bounds.

The benchmark therefore times a fixed reference kernel between jobs: small
symmetric eigendecompositions, products and contractions in a Python loop,
the kind of work bellcert does, but none of bellcert's own code, so no change
to the program moves it. Each job's latency is scaled by NOMINAL_S over the
mean of the reference times just before and just after the job: the latency
the job would have had on a host where the kernel takes NOMINAL_S.

Over ten 55 s runs (ten seeds) of each workload on that VM, while the
kernel's median time varied by 1.6x from run to run, the interquartile range
of jobs_per_s, job_p50_s and job_tail_s was 8, 6 and 8 % of the median on
certify-ladder and 5, 8 and 11 % on reachability; the plain best-of-N
figures of the same runs spread 32, 35 and 31 %, and 22, 31 and 34 %.
Scaling helps less the longer the job: for jobs of 4 s or more, the reference
times around a job tell little about how fast the host ran during it, so the
workloads keep their jobs shorter than that.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# About the kernel's fastest run on that 2-vCPU VM (numpy 2.4, OpenBLAS
# pinned to one thread). Only the scale of the reported times depends on it.
NOMINAL_S = 0.011
_MATRICES = 16
_DIM = 10
_ROUNDS = 15
RUNS_PER_GAP = 2


class Reference:
    """Times the reference kernel and turns latencies into scaled ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((_MATRICES, _DIM, _DIM))
        self._mats = m + m.transpose(0, 2, 1)
        self.samples: list[float] = []  # one reference time per gap between timed intervals
        self._last = self.gap()

    def time(self) -> float:
        """Wall time of one run of the kernel, with the garbage collector off
        so that no collection of the objects the jobs left behind lands in
        it."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(_ROUNDS):
                for m in self._mats:
                    vals, vecs = np.linalg.eigh(m)
                    p = (vecs * np.sign(vals)) @ vecs.T
                    acc += float(np.einsum("ij,ji->", p, m))
                    acc += float(np.linalg.svd(p @ m, compute_uv=False)[0])
                    acc += sum(float(v) for v in vals)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def gap(self) -> float:
        """The reference time now: the mean of RUNS_PER_GAP runs. A mean, not
        the fastest run, because a job of a second or more runs through the
        host's fast and slow moments alike."""
        self.samples.append(statistics.fmean(self.time() for _ in range(RUNS_PER_GAP)))
        return self.samples[-1]

    def factor(self) -> float:
        """NOMINAL_S over the mean reference time just before and just after
        the interval timed since the previous call: the factor that scales
        that interval to the nominal host speed."""
        before, self._last = self._last, self.gap()
        return NOMINAL_S / (0.5 * (before + self._last))
