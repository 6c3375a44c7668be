"""How fast the host runs right now, sampled throughout a run.

Other tenants of the host slow this machine by up to 2x, in phases from
a fraction of a second to many minutes long, so the same ``peaks2d`` round
takes from 9.5 s to 20 s.  :class:`HostSpeed` times a fixed reference
kernel (a sparse LU solve, sparse matrix-vector products and small dense
solves from the interpreter, the kinds of work the workloads do) every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler, so the samples
interleave with the program's work.  :func:`clock` is ``perf_counter``
minus the time spent in the kernel, so intervals measured with it exclude
the samples.

The ratio ``REFERENCE_S`` / median sample time scales a run's times to a
host running at a fixed reference speed.  The kernel is the benchmark's own
code and never changes with the program, so the ratio carries no change of
the program's speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERVAL_S = 0.25
# The median interleaved sample on the machine described in README.md
# (4.8 ms when the kernel runs back to back, with warm caches).
REFERENCE_S = 0.005


def _laplacian(n: int, dim: int) -> sp.csr_matrix:
    line = sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    if dim == 2:
        return (sp.kron(line, eye) + sp.kron(eye, line)).tocsr()
    return (sp.kron(sp.kron(line, eye), eye) + sp.kron(sp.kron(eye, line), eye)
            + sp.kron(sp.kron(eye, eye), line)).tocsr()


_LU_MATRIX = _laplacian(33, 2).tocsc()  # the size of peaks2d's systems
_MATVEC_MATRIX = _laplacian(24, 3)
_RHS = np.ones(_LU_MATRIX.shape[0])
_VEC = np.ones(_MATVEC_MATRIX.shape[0])
_SMALL = np.eye(4) * 2.0 + 0.1  # order_study's 4x4 systems
_SMALL_RHS = np.ones(4)


def kernel() -> None:
    """Run the reference work once."""
    spla.splu(_LU_MATRIX).solve(_RHS)
    y = _VEC
    for _ in range(20):
        y = _MATVEC_MATRIX @ y * 0.1
    for _ in range(300):
        np.linalg.solve(_SMALL, _SMALL_RHS)


# Seconds spent in the kernel since import.  Module state because the
# SIGALRM handler that adds to it is itself one per process.
_busy = 0.0


def clock() -> float:
    """``perf_counter`` minus the time spent sampling the host speed."""
    return perf_counter() - _busy


class HostSpeed:
    """Sample the kernel's time every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        global _busy
        t0 = perf_counter()
        kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        _busy += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(None, None)  # so that even a short run has a sample
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self) -> float:
        """Factor taking this run's times to the reference host speed."""
        return REFERENCE_S / statistics.median(self.samples)
