"""A fixed calibration kernel, sampled while the program runs.

The benchmark runs on a small share of a shared host.  Neighbours slow it
by up to 2x, in bursts of a few seconds and in spells of many minutes, and
the guest sees no stolen time: the program just runs slower.  While a
pipeline call runs, a timer signal interrupts it every ``INTERVAL_S`` and
times one short slice of this kernel, so the samples see the same moments
the call does.  The call's wall time, less the time spent in samples, is
then scaled by ``REFERENCE_S`` over the mean sample.  The kernel uses no
program code, so a change to the program moves the corrected times and
leaves the samples alone.

A slice mixes small-matrix ``einsum`` contractions (the shape pull-back),
a SuperLU triangular solve (the preconditioner), an elementwise kernel
(the GP covariance), numpy calls on tiny arrays and the construction of
small sparse matrices (the interpreter-bound placement search and
per-target assembly).  Under load these slow down by different amounts;
timed alone, during repeated calls on a loaded host, the mix tracked every
workload's slowdown better than any one part or a pure-Python loop.
"""

from __future__ import annotations

import signal
import time
from statistics import mean

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Corrected times are seconds of a machine on which a sampled slice takes
# this long.  The value only sets that scale and stays fixed so that runs
# compare; a slice sampled inside a call takes 3-6 ms on a 2 vCPU KVM
# guest (Intel Xeon) with Python 3.11, numpy 2.4, scipy 1.17 and OpenBLAS
# on one thread, depending on the host's load.
REFERENCE_S = 0.004

# Time between samples: a 4 s call gets about 40 of them, and sampling
# takes about 4 % of the call.
INTERVAL_S = 0.1


class Kernel:
    """Fixed inputs, built once; ``slice`` runs one short piece of work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 3, 3))
        self.y = rng.standard_normal((64, 3, 400))
        m = 50
        eye = sp.identity(m)
        band = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(m, m))
        lap = (sp.kron(eye, band) + sp.kron(band, eye)).astype(complex)
        self.lu = spla.splu((lap + 0.3j * sp.identity(m * m)).tocsc())
        self.rhs = rng.standard_normal(m * m) + 0j
        self.z = rng.standard_normal(250)
        self.tiny = [0.1, 0.5, 0.3, 0.9]
        self.rows = rng.integers(0, 30, 100)
        self.cols = rng.integers(0, 30, 100)
        self.vals = rng.standard_normal(100)
        self.vec = rng.standard_normal(30)

    def slice(self) -> None:
        np.einsum("kij,kjl->kil", self.x, self.y)
        self.lu.solve(self.rhs)
        np.exp(-np.abs(np.subtract.outer(self.z, self.z)))
        for _ in range(30):
            v = np.asarray(self.tiny)
            np.linalg.norm(v)
            np.exp(-v).sum()
            np.dot(v, v)
            np.clip(v, 0.0, 1.0)
        for _ in range(3):
            m = sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=(30, 30))
            m.tocsc().T @ self.vec


class Sampler:
    """Times one kernel slice every ``INTERVAL_S`` inside a ``with`` block.

    ``spent`` is the time taken by the samples so far: a stretch of the
    block's own work is its wall time less the growth of ``spent``.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel.slice()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than INTERVAL_S
            self._sample(None, None)

    def speed(self) -> float:
        """The machine's speed over the block, relative to the reference.

        Samples come at a fixed rate, so their mean is the time-average
        slowdown over the block.
        """
        return REFERENCE_S / mean(self.samples)
