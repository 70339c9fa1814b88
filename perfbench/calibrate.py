"""Speed calibration of the machine, independent of pdmd.

On a shared 2-vCPU Xeon VM, pdmd's operations ran up to ~2x slower for
seconds to minutes at a time, in CPU time as much as in wall time (the
guest is not descheduled: the core itself runs slower).  So the worker
times a fixed kernel just before every fit and, where the kernel leaves
the caches alone, every query round.  A run reports the median of each
timing's ratio to the median of the few kernel runs on either side of
it, times the kernel's time on a quiet run (``KERNELS``).  Over 24
ten-second windows of one run of bagged-noisy, the log of the median
ratio to the kernel run just before spread with a standard deviation of
0.02-0.035 for queries, against 0.04-0.05 for the ratio of the two lower
deciles over the window and 0.09-0.14 unscaled.  Taking the median of
the three kernel runs on either side kept the queries' figures and cut
that of mono fits, timed once per ten rounds, from 0.074 to 0.044.

The blas kernel's 1.3 MB working set evicts the models a query round
would find in cache, so on wide-state it runs before fits only, which
are at most about a second apart.

How much an operation slows down depends on what it spends its time on,
so each workload names the kernel that matches its work:

- ``blas``: products of a 10240 x 12 matrix (about 1 MB, the shape of
  the optDMD Jacobian) and one product of 400 x 400 matrices; for the
  BLAS-bound basis SVD and lift of wide-state.
- ``interp``: a Python loop of calls on arrays of a few dozen entries,
  the shape of pdmd's online query path (input checks, a complex power,
  a small product, an interpolation); for bagged-noisy, whose fits and
  queries are bound by the interpreter and NumPy's per-call overhead.

Over 52 four-second windows of one 8-minute run, in which the machine's
speed varied 2x, the log time of bagged-noisy's queries and of its roi
and mono fits followed the interp kernel's with a residual standard
deviation of 0.02-0.04 and the blas kernel's with 0.06-0.09 (the blas
kernel moved 1.4x where they moved 1.8-2.3x).  On wide-state the blas
kernel tracked the roi/rkoi queries and the fits better (0.06-0.08
against 0.12-0.19).
"""

import time
from typing import Callable, NamedTuple

import numpy as np

_rng = np.random.default_rng(0)
_TALL = _rng.standard_normal((10_240, 12))
_VECTOR = _rng.standard_normal(10_240)
_SQUARE = _rng.standard_normal((400, 400))
_PARAMS = _rng.random((6, 1))
_TABLE = _rng.standard_normal((6, 12)) + 1j * _rng.standard_normal((6, 12))
_EIGS = np.exp(0.1j * _rng.random(6))
_AMPLITUDES = _rng.standard_normal(6) + 0j
_MODES = _rng.standard_normal((40, 6)) + 0j


def blas_kernel() -> float:
    """Seconds for one run of the BLAS-bound kernel."""
    start = time.perf_counter()
    for _ in range(10):
        _TALL.T @ _TALL
        _TALL.T @ _VECTOR
        np.outer(_VECTOR[:512], _VECTOR[:12])
    _SQUARE @ _SQUARE
    return time.perf_counter() - start


def interp_kernel() -> float:
    """Seconds for one run of the interpreter-bound kernel."""
    start = time.perf_counter()
    for step in range(150):
        params = np.asarray(_PARAMS, dtype=float)
        table = np.hstack([_TABLE.real, _TABLE.imag])
        np.all(np.isfinite(table))
        state = (_MODES @ (_EIGS ** (step + 1) * _AMPLITUDES)).real
        np.interp(0.37, params[:, 0], table[:, 0])
        sorted({"state": state, "step": step})
    return time.perf_counter() - start


class Kernel(NamedTuple):
    run: Callable[[], float]
    reference_s: float  # its time on a quiet run
    between_queries: bool  # leaves the caches alone, so it may run between query rounds


KERNELS = {
    "blas": Kernel(blas_kernel, 4.5e-3, between_queries=False),
    "interp": Kernel(interp_kernel, 1.75e-3, between_queries=True),
}
