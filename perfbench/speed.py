"""Speed probe: a fixed piece of work timed between ops to track machine speed.

On a shared machine the core the benchmark runs on slows and speeds up by 20
to 60% over seconds to minutes, as other tenants load the host.  The op times
move with it, so a run's raw median depends on when it ran.  The probe is a
fixed mix of the library work ffcert does (LAPACK ``eigh``, complex matmul,
sparse matvec, weighted sampling, JSON and interpreter loops) on inputs made
once from a fixed seed.  It never calls ffcert, so a change to the program
does not change it.  The benchmark times the probe before and after every op
and every set-up, and scales each duration by ``REF_S`` over the mean of the
two probe times: the result reads in seconds at the probe's reference speed.

``REF_S`` is the probe's time on an idle core of the machine the benchmark
was written on (2-vCPU Intel Xeon at 2.1 GHz, one BLAS thread).  It only
sets the scale; what a comparison of two commits relies on is that both are
scaled by the same probe.
"""
from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse as sp

REF_S = 0.025
SEED = 12345
WARMUP = 3


class SpeedProbe:
    def __init__(self):
        g = np.random.default_rng(SEED)
        a = g.standard_normal((128, 128)) + 1j * g.standard_normal((128, 128))
        self.hermitian = a + a.conj().T
        self.square = g.standard_normal((192, 192)) + 1j * g.standard_normal((192, 192))
        # 100k entries at random places; sp.random would allocate 0.5 GB to place them
        rows, cols = g.integers(8192, size=(2, 100_000))
        self.sparse = sp.csr_matrix((g.standard_normal(100_000), (rows, cols)), shape=(8192, 8192))
        self.vector = np.ones(8192)
        p = g.random(64)
        self.weights = p / p.sum()
        self.values = [float(v) for v in g.standard_normal(2000)]
        for _ in range(WARMUP):
            self._work()
        self.times: list[float] = []

    def _work(self) -> None:
        np.linalg.eigh(self.hermitian)
        for _ in range(2):
            self.square @ self.square @ self.square
        for _ in range(20):
            self.sparse @ self.vector
        np.random.default_rng(7).choice(64, size=100_000, p=self.weights)
        json.loads(json.dumps(self.values))
        sum(k * k for k in range(40_000))

    def __call__(self) -> float:
        """Run the probe once; records and returns its duration in seconds."""
        t0 = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the probe's reference speed, given the probe times around it."""
    return seconds * REF_S * 2.0 / (before + after)
